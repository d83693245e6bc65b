"""Encoder-embedding ingestion, attention pooling, losses, training loop.

Sentence-encoder vectors arrive precomputed in an EMB1 file; the encoder
itself never runs in-process, so the semantic representation of each text is
a constant while the embedding table and propagation weights train. Each
training group (one per target by default, or one joint group) owns its own
graph and model; best-val checkpoints are kept per group, and the whole run
repeats over trials with shifted seeds.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cpa, graph, metrics, topics
from .binfile import F32, Reader
from .corpus import LABELS, Dataset, Example, Split
from .numerics import (AdamState, Tensor, adam_step, add, backward,
                       cosine_sim, elemwise_mul, gather_rows, logsigmoid,
                       mean_all, row_sums, scale, sub)

LABEL_KEYS = ("favor", "none", "against")


class TrainingError(Exception):
    """Bad embedding file, missing records, or a broken training run."""


# --- EMB1 embedding files ---------------------------------------------------
#
# EMB1 layout, little-endian:
#   magic "EMB1" | u32 record count | u32 dim
#   | per record: u32 id byte length, UTF-8 id, u32 token count T,
#     T x dim float32
# T = 1 means pooled-only. Ids "target:<name>" and "label:<favor|none|against>"
# carry target and label vectors; all other ids are example ids.

_EMB_MAGIC = b"EMB1"


@dataclass
class EncoderStore:
    """Precomputed encoder vectors: example rows as the file's float32,
    target and label vectors pooled to float64."""

    dim: int
    tokens: dict[str, np.ndarray]   # example id -> (T, dim) float32
    targets: dict[str, np.ndarray]  # target name -> (dim,) float64
    labels: dict[str, np.ndarray]   # "favor"/"none"/"against" -> (dim,)

    def __len__(self) -> int:
        return len(self.tokens) + len(self.targets) + len(self.labels)

    def pooled(self, rec_id: str) -> np.ndarray:
        """Mean of an example's token rows, (dim,) float64."""
        return _pool(self.tokens[rec_id])

    def label_matrix(self) -> np.ndarray:
        missing = [k for k in LABEL_KEYS if k not in self.labels]
        if missing:
            raise TrainingError(f"missing label records: {missing}")
        return np.stack([self.labels[k] for k in LABEL_KEYS])


def _pool(rows: np.ndarray) -> np.ndarray:
    return np.mean(rows, axis=0, dtype=np.float64)


class EmbeddingWriter:
    """Writes an EMB1 file one record at a time, so records need not all be
    held in memory; the record count is fixed up front. Use it as a context
    manager: leaving it without an error checks that count was met."""

    def __init__(self, path: str | Path, count: int, dim: int = 768):
        self.count = count
        self.dim = dim
        self.written = 0
        self._fh = open(path, "wb")
        self._fh.write(_EMB_MAGIC)
        self._fh.write(struct.pack("<II", count, dim))

    def __enter__(self) -> EmbeddingWriter:
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._fh.close()
        if exc_type is None and self.written != self.count:
            raise TrainingError(f"{self.written} records written, header "
                                f"says {self.count}")

    def write(self, rec_id: str, mat: np.ndarray) -> None:
        if self.written == self.count:
            raise TrainingError(f"record {rec_id!r} is past the header's "
                                f"count of {self.count}")
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float32))
        if mat.shape[1] != self.dim:
            raise TrainingError(f"record {rec_id!r} has dim {mat.shape[1]}, "
                                f"file says {self.dim}")
        raw = rec_id.encode("utf-8")
        self._fh.write(struct.pack("<I", len(raw)))
        self._fh.write(raw)
        self._fh.write(struct.pack("<I", mat.shape[0]))
        self._fh.write(mat.astype("<f4").tobytes(order="C"))
        self.written += 1


def save_embeddings(path: str | Path,
                    records: list[tuple[str, np.ndarray]],
                    dim: int = 768) -> None:
    with EmbeddingWriter(path, len(records), dim) as out:
        for rec_id, mat in records:
            out.write(rec_id, mat)


def load_embeddings(path: str | Path, expect_dim: int = 768) -> EncoderStore:
    path = Path(path)
    if not path.is_file():
        raise TrainingError(f"missing embedding file: {path}")
    with Reader(path, TrainingError, _EMB_MAGIC) as src:
        count, dim = src.unpack("<II")
        if dim != expect_dim:
            raise TrainingError(
                f"{path}: dimension {dim} != expected {expect_dim}")
        # a record takes at least 8 header bytes and one row of 4*dim bytes
        if count > src.left() // (8 + 4 * dim):
            raise src.fail(f"{count} records cannot fit in the file")
        # Every record's rows are views into one float32 block sized from
        # the file (at most one row per 4*dim bytes left): one allocation
        # per load, not one per record, so loading leaves no heap fragments
        # behind.
        rows = np.empty((src.left() // (4 * dim), dim), dtype=np.float32)
        store = EncoderStore(dim=dim, tokens={}, targets={}, labels={})
        n_rows = 0
        for _ in range(count):
            start = src.off
            rec_id = src.text(src.u32())
            t = src.u32()
            if t < 1:
                raise src.fail(f"record {rec_id!r} has zero rows", start)
            mat = rows[n_rows:n_rows + t]
            mat[...] = src.array(F32, t * dim).reshape(t, dim)
            n_rows += t
            if not np.isfinite(mat).all():
                raise src.fail(f"record {rec_id!r} has non-finite values",
                               start)
            if rec_id.startswith("target:"):
                store.targets[rec_id[len("target:"):]] = _pool(mat)
            elif rec_id.startswith("label:"):
                key = rec_id[len("label:"):]
                if key not in LABEL_KEYS:
                    raise src.fail(f"unknown label record {rec_id!r}", start)
                store.labels[key] = _pool(mat)
            else:
                if rec_id in store.tokens:
                    raise src.fail(f"duplicate record {rec_id!r}", start)
                store.tokens[rec_id] = mat
        src.finish()
    return store


def missing_ids(store: EncoderStore, dataset: Dataset) -> list[str]:
    """Record ids the dataset needs but the store lacks, sorted."""
    missing = [ex.id for ex in dataset.examples if ex.id not in store.tokens]
    missing += [f"target:{t}" for t in dataset.targets
                if t not in store.targets]
    missing += [f"label:{k}" for k in LABEL_KEYS if k not in store.labels]
    return sorted(missing)


# --- attention pooling ------------------------------------------------------

def attention_weights(token_matrix: np.ndarray,
                      target_vec: np.ndarray) -> np.ndarray:
    """Softmax over tokens of (target . token)/sqrt(dim); sums to 1."""
    m = np.atleast_2d(np.asarray(token_matrix, dtype=np.float64))
    t = np.asarray(target_vec, dtype=np.float64).reshape(-1)
    if m.shape[0] < 1:
        raise TrainingError("attention over zero tokens")
    if m.shape[1] != t.shape[0]:
        raise TrainingError(
            f"token dim {m.shape[1]} vs target dim {t.shape[0]}")
    logits = (m @ t) / np.sqrt(m.shape[1])
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


def semantic_rep(token_matrix: np.ndarray,
                 target_vec: np.ndarray) -> np.ndarray:
    """Target-attended pooling of the token vectors; parameter-free."""
    m = np.atleast_2d(np.asarray(token_matrix, dtype=np.float64))
    return attention_weights(m, target_vec) @ m


def semantic_matrix(examples: list[Example],
                    store: EncoderStore) -> np.ndarray:
    """Stacked semantic_rep rows for a list of examples."""
    rows = []
    for ex in examples:
        if ex.id not in store.tokens or ex.target not in store.targets:
            raise TrainingError(f"missing embedding record for {ex.id!r}")
        rows.append(semantic_rep(store.tokens[ex.id], store.targets[ex.target]))
    return np.stack(rows) if rows else np.zeros((0, store.dim))


# --- losses -----------------------------------------------------------------

def loss_contrastive(v_tilde: Tensor, z_tilde_pos: Tensor,
                     z_tilde_negs: list[Tensor]) -> Tensor:
    """Mean over negatives (then batch rows) of -log sigmoid(pos - neg)."""
    if not z_tilde_negs:
        raise TrainingError("contrastive loss needs at least one negative")
    pos = row_sums(elemwise_mul(v_tilde, z_tilde_pos))
    acc = None
    for z_neg in z_tilde_negs:
        neg = row_sums(elemwise_mul(v_tilde, z_neg))
        term = scale(logsigmoid(sub(pos, neg)), -1.0)
        acc = term if acc is None else add(acc, term)
    return mean_all(scale(acc, 1.0 / len(z_tilde_negs)))


def loss_cosine(e_sem: Tensor, v_i: Tensor) -> Tensor:
    """Batch mean of 1 - cos(e_sem, v_i)."""
    cos = cosine_sim(e_sem, v_i)
    ones = Tensor(np.ones(cos.shape))
    return mean_all(sub(ones, cos))


# --- configuration ----------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr_cpa: float = 1e-5
    lr_embed: float = 1e-4
    dropout: float = 0.1
    hops: int = 3
    h: int = 5
    seed: int = 0
    trials: int = 3
    alpha: float | None = None   # None -> 50/H
    beta: float = 0.01
    lda_sweeps: int = 500
    fold_in_sweeps: int = 50
    d1: int = 64
    leaky_slope: float = 0.01
    joint: bool = False
    parallel_trials: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size", "hops", "h", "trials",
                     "lda_sweeps", "fold_in_sweeps", "d1"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        for name in ("lr_cpa", "lr_embed", "leaky_slope"):
            if getattr(self, name) <= 0:
                raise TrainingError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError("dropout must be in [0, 1)")


def derive_seed(*parts) -> int:
    """Stable child seed from mixed int/str parts."""
    ints = [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p)
            for p in parts]
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


# --- per-group training -----------------------------------------------------

@dataclass
class GroupData:
    """Static per-group inputs shared by all trials."""

    group: str
    pool: list[Example]          # graph text nodes, row order fixed
    val: list[Example]
    triple: topics.TopicModelTriple
    dis_pool: np.ndarray         # (n, 3H) fold-in distributions
    dis_val: np.ndarray
    sem_val: np.ndarray          # (n_val, dim) semantic reps
    lap: graph.BipartiteLaplacian
    pooled_vecs: np.ndarray | None = None  # filled by build_group_data
    seconds: dict[str, float] = field(default_factory=dict)  # stage wall times


@dataclass
class GroupResult:
    group: str
    ids: list[str]
    checkpoint: cpa.CpaCheckpoint
    dis_train: np.ndarray
    log_rows: list[dict]
    best_epoch: int
    best_val_micf: float
    val_preds: list
    val_golds: list
    val_targets: list[str]
    train_s: float = 0.0   # wall time of the epochs, val scoring excluded
    val_s: float = 0.0     # wall time of val scoring over all epochs


def fold_in_matrix(examples: list[Example], triple: topics.TopicModelTriple,
                   sweeps: int, base_seed: int) -> np.ndarray:
    """(n, 3H) topic distributions: the three fold-in posteriors side by
    side, divided by 3; per-example seeds derived from the id."""
    seeds = [derive_seed(base_seed, 101, ex.id) for ex in examples]
    return topics.fold_in(triple.models, [ex.tokens for ex in examples],
                          seeds, sweeps) / 3.0


def build_group_data(dataset: Dataset, store: EncoderStore, group: str,
                     target: str | None, triple: topics.TopicModelTriple,
                     config: TrainConfig) -> GroupData:
    pool = dataset.train_pool(target)
    if not pool:
        raise TrainingError(f"group {group!r} has no training texts")
    val = dataset.split(Split.VAL, target)
    start = time.perf_counter()
    dis_pool = fold_in_matrix(pool, triple, config.fold_in_sweeps, config.seed)
    dis_val = fold_in_matrix(val, triple, config.fold_in_sweeps, config.seed)
    folded = time.perf_counter()
    lap = graph.laplacian(
        graph.build_adjacency([ex.stance for ex in pool], dis_pool))
    built = time.perf_counter()
    data = GroupData(group=group, pool=pool, val=val, triple=triple,
                     dis_pool=dis_pool, dis_val=dis_val,
                     sem_val=semantic_matrix(val, store), lap=lap,
                     seconds={"fold_in_s": folded - start,
                              "graph_build_s": built - folded})
    data.pooled_vecs = np.stack([store.pooled(ex.id) for ex in pool])
    return data


def _val_metrics(data: GroupData, table: cpa.EmbeddingTable,
                 weights: cpa.CpaWeights, config: TrainConfig):
    """(macf, micf, preds, golds, targets) on the val split, current params."""
    from . import inference  # late import; inference also imports this module

    if not data.val:
        return 0.0, 0.0, [], [], []
    preds = inference.score_batch(data.sem_val, data.dis_val, table.z,
                                  table.u, weights,
                                  slope=config.leaky_slope).predicted
    golds = [ex.stance for ex in data.val]
    targets = [ex.target for ex in data.val]
    macf, micf = metrics.macro_micro(preds, golds, targets)
    return macf, micf, preds, golds, targets


def train_group(data: GroupData, store: EncoderStore, config: TrainConfig,
                trial_seed: int) -> GroupResult:
    """Train one group's graph model; keep the best-val epoch's snapshot."""
    began = time.perf_counter()
    val_s = 0.0
    n = len(data.pool)
    h = data.triple.h
    label_vecs = store.label_matrix()
    table = cpa.init_embedding_table(
        data.pooled_vecs, h, label_vecs,
        seed=derive_seed(trial_seed, 1, data.group), d0=store.dim)
    weights = cpa.init_cpa_weights(
        d0=store.dim, d1=config.d1, hops=config.hops,
        seed=derive_seed(trial_seed, 2, data.group))

    sem_pool = semantic_matrix(data.pool, store)
    gold_rows = np.array([table.label_row(LABELS.index(ex.stance))
                          for ex in data.pool])
    neg_rows = np.array([[table.label_row(j) for j in range(3)
                          if table.label_row(j) != gold_rows[i]]
                         for i in range(n)])

    adam_embed = AdamState([table.e0], lr=config.lr_embed)
    adam_cpa = AdamState(weights.params, lr=config.lr_cpa)

    best = None  # (micf, epoch, e0 copy, w1 copies, w2 copies)
    log_rows = []
    val_snapshot = ([], [], [])
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(
            derive_seed(trial_seed, 3, data.group, epoch))
        lap = graph.dropout_graph(data.lap, config.dropout, config.dropout, rng)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            layers = cpa.propagate(table.e0, lap, weights,
                                   slope=config.leaky_slope)
            reps = cpa.final_reps(table.e0, layers)
            v_tilde = gather_rows(reps, batch)
            z_pos = gather_rows(reps, gold_rows[batch])
            z_negs = [gather_rows(reps, neg_rows[batch, j]) for j in (0, 1)]
            l_con = loss_contrastive(v_tilde, z_pos, z_negs)
            l_cos = loss_cosine(Tensor(sem_pool[batch]),
                                gather_rows(table.e0, batch))
            loss = add(l_con, l_cos)
            backward(loss)
            adam_step(adam_embed)
            adam_step(adam_cpa)
            epoch_loss += float(loss.data[0, 0]) * len(batch)
        epoch_loss /= n

        val_start = time.perf_counter()
        macf, micf, preds, golds, targets = _val_metrics(
            data, table, weights, config)
        val_s += time.perf_counter() - val_start
        log_rows.append({"epoch": epoch, "loss": epoch_loss,
                         "val_macf": macf, "val_micf": micf})
        if best is None or micf > best[0]:
            w1, w2 = weights.as_arrays()
            best = (micf, epoch, table.e0.data.copy(), w1, w2)
            val_snapshot = (preds, golds, targets)

    micf, best_epoch, e0, w1, w2 = best
    checkpoint = cpa.CpaCheckpoint(e0=e0, w1=w1, w2=w2, h=h, n_text=n)
    return GroupResult(
        group=data.group, ids=[ex.id for ex in data.pool],
        checkpoint=checkpoint, dis_train=data.dis_pool, log_rows=log_rows,
        best_epoch=best_epoch, best_val_micf=micf,
        val_preds=val_snapshot[0], val_golds=val_snapshot[1],
        val_targets=val_snapshot[2],
        train_s=time.perf_counter() - began - val_s, val_s=val_s,
    )


# --- run orchestration ------------------------------------------------------

@dataclass
class TrialResult:
    trial: int
    seed: int
    groups: dict[str, GroupResult]
    val_row: dict[str, float] = field(default_factory=dict)


@dataclass
class TrainResult:
    trials: list[TrialResult]
    target_order: list[str]
    report_text: str
    report_csv: str
    group_seconds: dict[str, dict[str, float]] = field(default_factory=dict)


def _trial_val_row(trial: TrialResult, dataset: Dataset,
                   joint: bool) -> dict[str, float]:
    preds, golds, targets = [], [], []
    for result in trial.groups.values():
        preds += result.val_preds
        golds += result.val_golds
        targets += result.val_targets
    row = {}
    if preds:
        per_target = metrics.per_target_f_avg(preds, golds, targets)
        macf, micf = metrics.macro_micro(preds, golds, targets)
    else:
        per_target, macf, micf = {}, 0.0, 0.0
    for target in dataset.targets:
        row[target] = per_target.get(target, 0.0)
    row["MacF"] = macf
    row["MicF"] = micf
    return row


def run_trial(dataset: Dataset, store: EncoderStore,
              group_data: list[GroupData], config: TrainConfig,
              trial: int) -> TrialResult:
    seed = config.seed + trial
    groups = {}
    for data in group_data:
        groups[data.group] = train_group(data, store, config, seed)
    result = TrialResult(trial=trial, seed=seed, groups=groups)
    result.val_row = _trial_val_row(result, dataset, config.joint)
    return result


def train(dataset: Dataset, store: EncoderStore,
          triples: dict[str, topics.TopicModelTriple],
          config: TrainConfig) -> TrainResult:
    """Full run: every group, every trial; returns results plus a val report.

    Trials shift only the collaborative-training seed (inits, dropout, batch
    order); topic models and fold-in distributions are fixed by the base
    seed and shared across trials.
    """
    absent = missing_ids(store, dataset)
    if absent:
        raise TrainingError(f"embedding records missing for ids: {absent}")

    if config.joint:
        group_keys = [("joint", None)]
    else:
        group_keys = [(t, t) for t in dataset.targets]
    for key, _ in group_keys:
        if key not in triples:
            raise TrainingError(f"no topic triple for group {key!r}")

    group_data = [
        build_group_data(dataset, store, key, target, triples[key], config)
        for key, target in group_keys
    ]

    if config.parallel_trials and config.trials > 1:
        # spawn: workers start from a fresh import, not a fork of this
        # process and whatever threads it holds
        with ProcessPoolExecutor(
                max_workers=min(config.trials, os.cpu_count() or 1),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [
                pool.submit(run_trial, dataset, store, group_data, config, t)
                for t in range(config.trials)
            ]
            trials = [f.result() for f in futures]
    else:
        trials = [run_trial(dataset, store, group_data, config, t)
                  for t in range(config.trials)]

    text, csv_text = metrics.report([t.val_row for t in trials],
                                    dataset.targets)
    return TrainResult(trials=trials, target_order=dataset.targets,
                       report_text=text, report_csv=csv_text,
                       group_seconds={d.group: d.seconds for d in group_data})
