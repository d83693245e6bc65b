"""Run config, encoder-embedding ingestion, attention pooling and its
export, the Adam optimizer, training.

Training first fits every group's three per-stance topic models in one
fit, folds every group's texts into its models in one call and builds
each group's graph; then each group's graph trains with Adam.
Sentence-encoder vectors arrive precomputed in an EMB1 file; the encoder
itself never runs in-process, so the semantic representation of each text is
a constant. It is also the text's node row in the graph, while the topic and
label rows and the propagation weights train. Each training group (one per
target by default, or one joint group) owns its own graph and model;
best-val checkpoints are kept per group, and the whole run repeats over
trials with shifted seeds.
"""

from __future__ import annotations

import csv
import functools
import struct
import time
import zlib
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import cpa, graph, inference, metrics, topics
from .binfile import F32, Reader
from .corpus import LABELS, Dataset, Example, Split, stance_subsets

# the label records' names, in label order
LABEL_KEYS = tuple(label.value.lower() for label in LABELS)


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
_U32 = struct.Struct("<I")


class TokenRows:
    """An EMB1 file's example records, read through open() or items(), or by
    semantic_matrix through _source() and _fill(), which leave the finite
    check to it: each id maps to its record's byte offset and row count, and
    no rows are kept. A read checks the header and the record it finds at
    that offset, so a file changed since it was indexed raises
    TrainingError, not another record's rows."""

    def __init__(self, path: Path, header: tuple[int, int],
                 index: dict[str, tuple[int, int]]):
        self.path = path
        self._header = header  # (record count, dim)
        self._index = index

    def __contains__(self, rec_id: object) -> bool:
        return rec_id in self._index

    def where(self, rec_id: str) -> tuple[int, int]:
        """The record's byte offset and row count."""
        return self._index[rec_id]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """(id, rows) of every record in file order, read through one open
        file into views of one float32 block: one large allocation, not one
        per record. Copying a 1242-record store this way took about 1,000
        minor page faults against about 9,900 for an array per record."""
        block = np.empty((sum(t for _, t in self._index.values()),
                          self._header[1]), dtype=F32)
        at = 0
        with self.open() as read:
            for rec_id, (_, t) in self._index.items():
                yield rec_id, read(rec_id, block[at:at + t])
                at += t

    @contextmanager
    def open(self) -> Iterator[Callable[..., np.ndarray]]:
        """read(rec_id, out=None), a record's (T, dim) float32 rows, read
        into out when it is given and checked to be finite; every read made
        in the block goes through one open file."""
        with self._source() as src:
            yield functools.partial(self._read, src)

    @contextmanager
    def _source(self) -> Iterator[Reader]:
        """The file, open, with its header checked against the indexed
        one."""
        with Reader(self.path, TrainingError, _EMB_MAGIC) as src:
            if src.unpack("<II") != self._header:
                raise src.fail("header changed since the file was indexed", 4)
            yield src

    def _read(self, src: Reader, rec_id: str,
              out: np.ndarray | None = None) -> np.ndarray:
        """_fill's rows, checked to be finite."""
        return _finite(src, rec_id, self._index[rec_id][0],
                       self._fill(src, rec_id, out))

    def _fill(self, src: Reader, rec_id: str,
              out: np.ndarray | None = None) -> np.ndarray:
        """The record's rows, read into out when it is given, with its
        header in one read of the file, and not checked to be finite. The
        header read must be the indexed id length, id and row count."""
        start, t = self._index[rec_id]
        want = rec_id.encode("utf-8")
        head = bytearray(8 + len(want))
        src.seek(start)
        if out is None:  # the bytes are checked before the rows are allocated
            src.need(len(head) + F32.itemsize * self._header[1] * t)
            out = np.empty((t, self._header[1]), dtype=F32)
        src.read_into(head, out)
        if head != _U32.pack(len(want)) + want + _U32.pack(t):
            raise src.fail(f"record {rec_id!r} changed since the file was "
                           f"indexed", start)
        return out


@dataclass
class EncoderStore:
    """Precomputed encoder vectors: example rows as the file's float32,
    read through tokens.open(), target and label vectors pooled to
    float64."""

    dim: int
    tokens: TokenRows                 # example id -> (T, dim) float32
    targets: dict[str, np.ndarray]    # target name -> (dim,) float64
    labels: dict[str, np.ndarray]     # "favor"/"none"/"against" -> (dim,)

    def label_matrix(self) -> np.ndarray:
        missing = [k for k in LABEL_KEYS if k not in self.labels]
        if missing:
            raise TrainingError(f"missing label records: {missing}")
        return np.stack([self.labels[k] for k in LABEL_KEYS])


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
        if not len(mat):  # load_embeddings refuses it
            raise TrainingError(f"record {rec_id!r} has zero rows")
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


def _non_finite(src: Reader, rec_id: str, start: int) -> Exception:
    """The error of a non-finite value in the record at byte `start`."""
    return src.fail(f"record {rec_id!r} has non-finite values", start)


def _finite(src: Reader, rec_id: str, start: int,
            rows: np.ndarray) -> np.ndarray:
    """rows, the record at byte `start`'s, unless a value is non-finite."""
    # a NaN makes min and max NaN, an infinity makes one infinite
    if not (-np.inf < rows.min() and rows.max() < np.inf):
        raise _non_finite(src, rec_id, start)
    return rows


def _record_head(src: Reader) -> tuple[str, int]:
    """The id and row count of the record header at the cursor, which moves
    past it, parsed from one read of up to 256 bytes. A header that read
    does not hold whole, or whose id does not decode, is read again field
    by field, which raises the error at the field's offset."""
    head = src.ahead()
    n = int.from_bytes(head[:4], "little")
    if len(head) >= 8 + n:
        try:
            rec_id = head[4:4 + n].decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            src.skip(8 + n)
            return rec_id, _U32.unpack_from(head, 4 + n)[0]
    return src.text(src.u32()), src.u32()


def load_embeddings(path: str | Path, expect_dim: int = 768) -> EncoderStore:
    """The EMB1 file, walked once; a repeated record id is an error. Every
    record has its framing checked (id, row count, length). Target and
    label records are read and pooled; example records are indexed, and
    read later through TokenRows.open()."""
    path = Path(path)
    if not path.is_file():
        raise TrainingError(f"missing embedding file: {path}")
    index, targets, labels = {}, {}, {}
    with Reader(path, TrainingError, _EMB_MAGIC) as src:
        count, dim = src.unpack("<II")
        if dim != expect_dim:
            raise TrainingError(
                f"{path}: dimension {dim} != expected {expect_dim}")
        # a record takes at least 8 header bytes and one row of 4*dim bytes
        if count > src.left() // (8 + 4 * dim):
            raise src.fail(f"{count} records cannot fit in the file")
        seen = set()
        for _ in range(count):
            start = src.off
            rec_id, t = _record_head(src)
            if t < 1:
                raise src.fail(f"record {rec_id!r} has zero rows", start)
            if rec_id in seen:
                raise src.fail(f"duplicate record {rec_id!r}", start)
            seen.add(rec_id)
            if not rec_id.startswith(("target:", "label:")):
                src.skip(F32.itemsize * dim * t)
                index[rec_id] = (start, t)
                continue
            src.need(F32.itemsize * dim * t)  # before the rows are allocated
            rows = np.empty((t, dim), dtype=F32)
            src.read_into(rows)
            pooled = np.mean(_finite(src, rec_id, start, rows), axis=0,
                             dtype=np.float64)
            if rec_id.startswith("target:"):
                targets[rec_id[len("target:"):]] = pooled
            else:
                key = rec_id[len("label:"):]
                if key not in LABEL_KEYS:
                    raise src.fail(f"unknown label record {rec_id!r}", start)
                labels[key] = pooled
        src.finish()
    return EncoderStore(dim=dim, tokens=TokenRows(path, (count, dim), index),
                        targets=targets, labels=labels)


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
    return _weights(m, t, np.sqrt(m.shape[1]))


def _weights(m: np.ndarray, t: np.ndarray, root: np.float64) -> np.ndarray:
    """attention_weights of float64 rows m and vector t, with root the
    square root of their dim, unchecked: the one softmax, whose operations
    and their order semantic rows are bitwise equal to."""
    weights = m @ t
    weights /= root
    weights -= weights.max()
    np.exp(weights, out=weights)
    weights /= weights.sum()
    return weights


def export_attention(example: Example, store: EncoderStore,
                     path: str | Path) -> None:
    """CSV of per-token attention weights (one row per token vector)."""
    if example.id not in store.tokens:
        raise TrainingError(f"no embedding record for example {example.id!r}")
    if example.target not in store.targets:
        raise TrainingError(f"no embedding record for target {example.target!r}")
    with store.tokens.open() as read:
        mat = read(example.id)
    weights = attention_weights(mat, store.targets[example.target])
    if len(example.tokens) == mat.shape[0]:
        names = list(example.tokens)
    else:
        # encoder token rows need not align with our word tokens
        names = [f"token_{i}" for i in range(mat.shape[0])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token", "attention_weight"])
        for name, w in zip(names, weights):
            writer.writerow([name, f"{w:.12f}"])


def semantic_matrix(examples: list[Example],
                    store: EncoderStore) -> np.ndarray:
    """Target-attended pooling of every example's token rows, (n, dim)
    float64: row i is attention_weights(m, target) @ m, with m the float64
    copy of example i's rows and target its target's vector.

    Each example's record is read once, in file order, into one float32
    and one float64 buffer sized for the longest, and its row is written at
    the example's position; none is read for no examples. The pooled rows,
    not the records, are checked to be finite: the target vectors are, and
    a float32 value cannot overflow a float64 product, so a NaN or an
    infinity in a record leaves a NaN or an infinity in its row (0 times an
    infinity is NaN). The first such row in file order names its record."""
    for ex in examples:
        if ex.id not in store.tokens:
            raise TrainingError(f"missing embedding record for {ex.id!r}")
    for name in dict.fromkeys(ex.target for ex in examples):
        if name not in store.targets:
            raise TrainingError(f"missing embedding record for target "
                                f"{name!r}")
        if store.targets[name].shape != (store.dim,):
            raise TrainingError(f"token dim {store.dim} vs target {name!r} "
                                f"of shape {store.targets[name].shape}")
    out = np.empty((len(examples), store.dim))
    if not examples:
        return out
    where = [store.tokens.where(ex.id) for ex in examples]
    longest = max(t for _, t in where)
    narrow = np.empty((longest, store.dim), dtype=F32)
    wide = np.empty((longest, store.dim))
    root = np.sqrt(store.dim)
    with store.tokens._source() as src:
        # a non-finite record meets inf - inf or 0 * inf; its row keeps a NaN
        with np.errstate(invalid="ignore"):
            for i in sorted(range(len(examples)), key=where.__getitem__):
                ex, m = examples[i], wide[:where[i][1]]
                np.copyto(m, store.tokens._fill(src, ex.id, narrow[:len(m)]))
                np.matmul(_weights(m, store.targets[ex.target], root), m,
                          out=out[i])
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        if bad.size:
            i = min(bad, key=where.__getitem__)
            raise _non_finite(src, examples[i].id, where[i][0])
    return out


# --- configuration ----------------------------------------------------------

class ConfigError(Exception):
    """Bad config file, bad config value, or an unusable run directory."""


DATASETS = ("semeval", "ukp", "synthetic")


@dataclass
class RunConfig:
    """Every setting of a run: each key is a flag of cosd train and a key
    of run.json's config. validate() is the one check of the values. What
    the method fixes is no key: the hops of the dataset kind
    (resolved_hops), the topic priors fit_topics passes, cpa.D1,
    cpa.LEAKY_SLOPE and topics.FOLD_IN_SWEEPS."""

    dataset: str = "semeval"
    data: str = ""
    embeddings: str = ""
    out_dir: str = ""
    h: int = 5
    lda_sweeps: int = 500
    lr_cpa: float = 1e-5
    lr_embed: float = 1e-4
    dropout: float = 0.1
    epochs: int = 50
    seed: int = 0
    trials: int = 3
    joint: bool = False

    def resolved_hops(self) -> int:
        """The propagation hops of the dataset kind: 3 on tweets, 2 on
        the argument and synthetic corpora."""
        return 2 if self.dataset in ("ukp", "synthetic") else 3

    def validate(self) -> None:
        """ConfigError unless every value has its default's type and lies
        in range."""
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise ConfigError(f"{f.name} = {value!r} is not a "
                                  f"{type(f.default).__name__}")
            if type(value) is float and not np.isfinite(value):
                raise ConfigError(f"{f.name} = {value!r} is not finite")
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset kind {self.dataset!r}")
        for name, low in (("epochs", 1), ("h", 1), ("trials", 1),
                          ("lda_sweeps", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"need {name} >= {low}, got "
                                  f"{getattr(self, name)}")
        for name in ("lr_cpa", "lr_embed"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"need {name} > 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"need 0 <= dropout < 1, got {self.dropout}")


def derive_seed(*parts: int | str) -> int:
    """Stable child seed from mixed int/str parts: the first word of
    numpy's SeedSequence over the parts, a str taken as the crc32 of its
    UTF-8 bytes."""
    return int(np.random.SeedSequence(
        [zlib.crc32(part.encode("utf-8")) if isinstance(part, str) else part
         for part in parts]).generate_state(1)[0])


# --- Adam -------------------------------------------------------------------

class AdamState:
    """Adam with bias correction over a fixed list of parameter arrays,
    which adam_step updates in place, so whatever holds those arrays (the
    CPA model record) sees every step. Two scratch arrays of the largest
    parameter's size hold every step's temporaries; each parameter writes
    into views of their heads of its own shape."""

    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not params:
            raise TrainingError("AdamState needs at least one parameter")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        size = max(p.size for p in params)
        flat = np.empty(size), np.empty(size)
        self.scratch = [tuple(f[:p.size].reshape(p.shape) for f in flat)
                        for p in params]


def adam_step(state: AdamState, grads: list[np.ndarray]) -> None:
    """One update of every parameter, in place; grads[i] belongs to
    state.params[i]. The update is Kingma & Ba's Algorithm 1
    (arXiv:1412.6980), written into the state's scratch with the operations
    and rounding of the whole-array expressions
    p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)."""
    if len(grads) != len(state.params):
        raise TrainingError(f"{len(grads)} grads for "
                            f"{len(state.params)} parameters")
    for i, (p, g) in enumerate(zip(state.params, grads)):
        if g.shape != p.shape:
            raise TrainingError(f"grad {i} has shape {g.shape}, "
                                f"parameter {p.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v, (step, den) in zip(state.params, grads, state.m, state.v,
                                       state.scratch):
        m *= b1
        m += np.multiply(g, 1 - b1, out=step)
        v *= b2
        np.multiply(g, 1 - b2, out=den)
        den *= g
        v += den
        np.divide(m, 1 - b1 ** t, out=step)
        step *= state.lr
        np.divide(v, 1 - b2 ** t, out=den)
        np.sqrt(den, out=den)
        den += state.eps
        step /= den
        p -= step


# --- per-group training -----------------------------------------------------

def group_keys(dataset: Dataset, joint: bool) -> list[tuple[str, str | None]]:
    """(group name, target filter) per training group: one group per
    target, or a single "joint" group over every target."""
    if joint:
        return [("joint", None)]
    return [(t, t) for t in dataset.targets]


@dataclass
class GroupData:
    """Static per-group inputs shared by all trials."""

    group: str
    pool: list[Example]          # graph text nodes, row order fixed
    val: list[Example]
    triple: topics.TopicModelTriple
    dis_val: np.ndarray          # (n_val, 3H) fold-in distributions
    sem_pool: np.ndarray         # (n, dim) semantic reps, the text rows
    sem_val: np.ndarray          # (n_val, dim)
    lap: graph.BipartiteLaplacian
    graph_build_s: float = 0.0   # wall time of building lap


# an epoch's log row: its keys in the per-epoch log's column order, each
# with its value's format spec there
LOG_COLUMNS = (("epoch", ""), ("loss", ".8f"), ("val_macf", ".6f"),
               ("val_micf", ".6f"), ("val_micf_no_sem", ".6f"),
               ("val_micf_no_dis", ".6f"))


@dataclass
class GroupResult:
    """One trial's training of one group; the group's inputs stay in its
    GroupData."""

    checkpoint: cpa.CpaModel     # a copy of the best-val epoch's model
    log_rows: list[dict]         # per epoch, keyed as LOG_COLUMNS
    best_epoch: int
    best_val_micf: float
    val_preds: list              # the best epoch's, in data.val order
    train_s: float = 0.0   # wall time of the epochs, val scoring excluded
    val_s: float = 0.0     # wall time of val scoring over all epochs


def fold_in_matrix(pairs: Sequence[tuple[topics.TopicModelTriple,
                                         list[Example]]]) -> topics.FoldIn:
    """Per (triple, examples) pair, the (n, 3H) topic distributions: the
    three fold-in posteriors side by side, divided by 3; and the number of
    (text, model) pairs stopped at topics.FOLD_IN_SWEEPS. Every pair's
    texts are folded in together."""
    rows, capped = topics.fold_in_sets(
        [(triple.models, [ex.tokens for ex in examples])
         for triple, examples in pairs])
    return topics.FoldIn([r / 3.0 for r in rows], capped)


def fit_topics(dataset: Dataset, config: RunConfig,
               h: int) -> list[topics.TopicModelTriple]:
    """Every group's topic triple with h topics per stance, in group_keys
    order, fitted on the token docs of its train pool's stance subsets and
    seeded per group; all groups in one fit, at the doc-topic prior 50/h
    and the topic-word prior 0.01 of Griffiths & Steyvers (PNAS 2004). A
    group with no training texts (a target only in val or test) fails
    before anything is fitted."""
    keys = group_keys(dataset, config.joint)
    subsets = [stance_subsets(dataset, target) for _, target in keys]
    for (group, _), examples in zip(keys, subsets):
        if not any(examples):
            raise TrainingError(f"group {group!r} has no training texts")
    return topics.fit_triples(
        [[[ex.tokens for ex in docs] for docs in examples]
         for examples in subsets],
        h=h, alpha=50.0 / h, sweeps=config.lda_sweeps,
        seeds=[derive_seed(config.seed, 7, group) for group, _ in keys])


def build_groups(dataset: Dataset, store: EncoderStore, config: RunConfig
                 ) -> tuple[list[GroupData], dict[str, float]]:
    """Every group's record, in group_keys order, and the run's figures of
    the topic fit and the fold-in, which cover all groups at once: their
    wall times, the fit's token updates (each model's stop sweep times its
    in-vocabulary tokens, over all models), the models that ran to the
    sweep cap and the (text, model) pairs the fold-in stopped at its sweep
    cap. The triples are fitted together, every pool and val split is
    folded in together, then each group's graph is built. A group with no
    training texts fails in fit_topics, before anything is fitted."""
    keys = group_keys(dataset, config.joint)
    pools = [dataset.train_pool(target) for _, target in keys]
    vals = [dataset.split(Split.VAL, target) for _, target in keys]
    began = time.perf_counter()
    triples = fit_topics(dataset, config, config.h)
    fitted = time.perf_counter()
    rows, capped = fold_in_matrix(
        [(triple, examples) for triple, pool, val in zip(triples, pools, vals)
         for examples in (pool, val)])
    folded = time.perf_counter()
    groups = []
    for (group, _), triple, pool, val, dis_pool, dis_val in zip(
            keys, triples, pools, vals, rows[::2], rows[1::2]):
        start = time.perf_counter()
        lap = graph.laplacian(
            graph.build_adjacency([ex.stance for ex in pool], dis_pool))
        built = time.perf_counter()
        groups.append(GroupData(
            group=group, pool=pool, val=val, triple=triple, dis_val=dis_val,
            sem_pool=semantic_matrix(pool, store),
            sem_val=semantic_matrix(val, store), lap=lap,
            graph_build_s=built - start))
    # a model's expected counts sum to its in-vocabulary tokens, to rounding
    models = [m for triple in triples for m in triple.models]
    return groups, {
        "topic_fit_s": fitted - began,
        "topic_fit_updates": sum(
            m.trained_sweeps * round(m.topic_totals.sum()) for m in models),
        "topic_fit_capped": sum(m.trained_sweeps == config.lda_sweeps
                                for m in models),
        "fold_in_s": folded - fitted, "fold_in_capped": capped}


def _val_metrics(data: GroupData, model: cpa.CpaModel):
    """(macf, micf, preds) on the val split, current params: MacF and the
    predictions of full mode, and MicF per scoring mode. Each side is
    scored once, and inference.mode_scores labels it for every mode."""
    micf = dict.fromkeys(inference.MODES, 0.0)
    if not data.val:
        return 0.0, micf, []
    golds = [ex.stance for ex in data.val]
    targets = [ex.target for ex in data.val]
    sem, dis = inference.score_batch(data.sem_val, data.dis_val, model)
    for mode in ("no_sem", "no_dis", "full"):  # full's preds are kept
        preds = inference.mode_scores(sem, dis, mode).predicted
        macf, micf[mode] = metrics.macro_micro(preds, golds, targets)
    return macf, micf, preds


def train_group(data: GroupData, store: EncoderStore, config: RunConfig,
                trial_seed: int) -> GroupResult:
    """Train one group's graph model; keep a copy of the best-val epoch's.
    The text rows are the pool's semantic rows, fixed in the buffers. Each
    epoch is one step over every pool text on that epoch's dropout graph,
    and Adam updates the model in place: the topic and label rows and the
    weights."""
    began = time.perf_counter()
    val_s = 0.0
    model = cpa.init_model(
        data.triple.h, store.label_matrix(),
        seed=derive_seed(trial_seed, 1, data.group),
        weight_seed=derive_seed(trial_seed, 2, data.group),
        hops=config.resolved_hops())

    gold = np.array([LABELS.index(ex.stance) for ex in data.pool])

    adam_embed = AdamState([model.side], lr=config.lr_embed)
    adam_cpa = AdamState(model.w1 + model.w2, lr=config.lr_cpa)
    buffers = cpa.Buffers(data.sem_pool, model)

    best = None  # (micf, epoch, model copy, val predictions)
    log_rows = []
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(
            derive_seed(trial_seed, 3, data.group, epoch))
        lap = graph.dropout_graph(data.lap, config.dropout, rng)
        step = cpa.batch_loss(model, buffers, lap, gold)
        # the gradients live in buffers until the next batch_loss call
        adam_step(adam_embed, [step.g_side])
        adam_step(adam_cpa, step.g_w1 + step.g_w2)

        val_start = time.perf_counter()
        macf, micf, preds = _val_metrics(data, model)
        val_s += time.perf_counter() - val_start
        log_rows.append(dict(zip(
            [name for name, _ in LOG_COLUMNS],
            (epoch, step.loss, macf, micf["full"], micf["no_sem"],
             micf["no_dis"]))))
        if best is None or micf["full"] > best[0]:
            best = (micf["full"], epoch, model.copy(), preds)

    micf, best_epoch, checkpoint, val_preds = best
    return GroupResult(
        checkpoint=checkpoint, log_rows=log_rows, best_epoch=best_epoch,
        best_val_micf=micf, val_preds=val_preds,
        train_s=time.perf_counter() - began - val_s, val_s=val_s,
    )


# --- run orchestration ------------------------------------------------------

@dataclass
class TrainResult:
    groups: list[GroupData]
    trials: list[dict[str, GroupResult]]  # trial i is seeded config.seed + i
    report_text: str
    report_csv: str
    stages: dict[str, float]     # build_groups' figures, all groups


def train(dataset: Dataset, store: EncoderStore,
          config: RunConfig) -> TrainResult:
    """Full run: every group's record (build_groups), then every trial in
    order; returns the group records, the trials' results, a val report and
    build_groups' figures of the topic fit and the fold-in.

    Trials shift only the collaborative-training seed (inits and dropout);
    the topic models are fixed by the base seed, the fold-in distributions
    by the topic models, and both are shared across trials.
    """
    absent = missing_ids(store, dataset)
    if absent:
        raise TrainingError(f"embedding records missing for ids: {absent}")

    groups, stages = build_groups(dataset, store, config)
    trials = [{data.group: train_group(data, store, config, config.seed + i)
               for data in groups}
              for i in range(config.trials)]

    val = [ex for data in groups for ex in data.val]
    text, csv_text = metrics.trial_report(
        [[pred for data in groups for pred in t[data.group].val_preds]
         for t in trials],
        [ex.stance for ex in val], [ex.target for ex in val], dataset.targets)
    return TrainResult(groups=groups, trials=trials, report_text=text,
                       report_csv=csv_text, stages=stages)
