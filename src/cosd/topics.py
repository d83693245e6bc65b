"""Per-stance LDA topic models and the 3H-dim implicit-topic distribution.

Three LDA models (favor / none / against training subsets, shared vocabulary,
H topics each) are fit by the collapsed variational update CVB0, every
training group's triple in one fit (fit_triples), from initial topics drawn
by a numpy Generator per model. The sweep count is a cap: each model stops
at its own fixed point, the first sweep that moves none of its doc-topic and
topic-word counts by more than 1e-4, and its topic-word counts are its
expected counts, float64. Any text is folded in under all three models with
their counts frozen, each (text, model) chain run to its own fixed point at
1e-9 (fold_in_sets); one kernel, _cvb0, sweeps both. The three posteriors
side by side, divided by 3, are a text's topic distribution, which later
doubles as text-to-topic edge weights. perplexity scores given posteriors.
"""

from __future__ import annotations

import json
import numbers
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf, lgamma, prod
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .binfile import F64, Reader
from .corpus import Vocabulary

# a doc set: each doc is its tokens
Docs = Sequence[Sequence[str]]


class TopicsError(Exception):
    """Bad topic-model arguments or a corrupt model file."""


def _check_priors(alpha: float, beta: float) -> None:
    # alpha > 0 keeps every update's total and the log joint defined;
    # beta > 0 keeps every denominator n_t + beta * |V| positive when a topic
    # empties
    if not (0 < alpha < inf and 0 < beta < inf):
        raise TopicsError(f"priors must be finite with alpha > 0 and "
                          f"beta > 0: alpha={alpha}, beta={beta}")


@dataclass
class LdaModel:
    """One fitted topic model: H, its finite positive priors, its vocabulary
    and its (H, |V|) expected topic-word counts, all that fold-in and
    scoring read."""

    h: int
    alpha: float
    beta: float
    vocab: Vocabulary
    topic_word_counts: np.ndarray  # (h, |V|) float64, finite and >= 0
    trained_sweeps: int
    # (sweeps done, the fit's log joint then) recorded by the fit; kept in
    # the JSON sidecar only, so a loaded model has none
    log_joint: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.h < 1:
            raise TopicsError(f"H must be >= 1, got {self.h}")
        _check_priors(self.alpha, self.beta)
        self.topic_word_counts = np.asarray(self.topic_word_counts,
                                            dtype=np.float64)
        counts = self.topic_word_counts
        if counts.shape != (self.h, len(self.vocab)):
            raise TopicsError("topic_word_counts shape mismatch")
        # a NaN fails every comparison, so it is tested for on its own
        if not (np.isfinite(counts).all() and (counts >= 0).all()):
            raise TopicsError("counts must be finite and >= 0")

    @property
    def topic_totals(self) -> np.ndarray:
        """Expected tokens per topic, (h,) float64."""
        return self.topic_word_counts.sum(axis=1)

    def phi(self) -> np.ndarray:
        """Smoothed topic-word distributions, (h, |V|); rows sum to 1."""
        return (self.topic_word_counts + self.beta) / (
            self.topic_totals[:, None] + self.beta * len(self.vocab))

    def top_words(self, n: int) -> list[list[str]]:
        phi = self.phi()
        out = []
        for k in range(self.h):
            order = np.argsort(-phi[k], kind="stable")[: min(n, len(self.vocab))]
            out.append([self.vocab.tokens[int(w)] for w in order])
        return out


@dataclass
class TopicModelTriple:
    favor: LdaModel
    none: LdaModel
    against: LdaModel

    def __post_init__(self):
        models = (self.favor, self.none, self.against)
        if len({m.h for m in models}) != 1:
            raise TopicsError("triple models disagree on H")
        if any(m.vocab.tokens != self.favor.vocab.tokens for m in models):
            raise TopicsError("triple models disagree on vocabulary")

    @property
    def h(self) -> int:
        return self.favor.h

    @property
    def models(self) -> tuple[LdaModel, LdaModel, LdaModel]:
        return (self.favor, self.none, self.against)


def _doc_token_ids(docs: Docs, vocab: Vocabulary) -> list[list[int]]:
    index = vocab.index
    return [[index[t] for t in doc if t in index] for doc in docs]


# --- the CVB0 sweep ----------------------------------------------------------


def _head(buf: np.ndarray, n: int) -> np.ndarray:
    """A C-contiguous buffer's first n columns, contiguous: (H, N) -> its
    first H n values."""
    rows = buf.shape[:-1]
    return buf.reshape(-1)[:prod(rows) * n].reshape(*rows, n)


def _cvb0(gamma: np.ndarray, cols: dict[str, np.ndarray],
          tables: Sequence[tuple[str, np.ndarray, bool]], n_chains: int,
          word_factor, tol: float, sweeps: int, on_sweep=None):
    """CVB0 (Asuncion et al., "On Smoothing and Inference for Topic Models",
    UAI 2009), the fit's and the fold-in's one kernel: every column at once
    gets gamma_k = (n_dk - gamma_k + alpha) * word factor_k over its sum
    across k, added in topic order, from the counts the previous sweep
    left; then np.bincount sums each table afresh, a bin's columns in
    column order, so a chain's arithmetic is a scalar loop's over its own.

    gamma (H, n) starts the columns; cols holds their other arrays, "chain",
    "alpha", each table's key and what word_factor(update, gamma, counts,
    cols) reads to multiply its factor into update, each C-contiguous with
    the column as its last axis. A table is (the key of its bins, each
    bin's chain, tested); tables[0] is n_dk. A chain freezes at the first
    sweep that moves none of its bins of a tested table by more than tol,
    or after sweeps sweeps, and the other columns are compressed into the
    heads of the arrays. on_sweep(s, counts, gamma, ran, stops) runs after
    sweep s. Returns the tables as each chain stopped, the stop sweeps and
    the chains still moving at the cap.
    """
    # the columns still sweeping: the heads of the arrays the call starts
    # with, so that no sweep allocates a column array
    at = bufs = {"gamma": gamma, **cols}
    update, norm = np.empty_like(gamma), np.empty(gamma.shape[1])
    g, step, total = gamma, update, norm

    def recount(at):  # over no columns, np.bincount gives int64 zeros
        return [np.array([np.bincount(at[key], row, len(chain_of))
                          for row in at["gamma"]], dtype=np.float64)
                for key, chain_of, _ in tables]

    counts = recount(at)
    final = [np.empty_like(table) for table in counts]
    running, capped = np.ones(n_chains, bool), np.zeros(n_chains, bool)
    stop = np.full(n_chains, sweeps)
    for s in range(sweeps):
        # every index is in range, and mode "wrap" writes out unbuffered
        np.take(counts[0], at[tables[0][0]], axis=1, out=step, mode="wrap")
        step -= g
        step += at["alpha"]
        word_factor(step, g, counts, at)
        np.copyto(total, step[0])
        for row in step[1:]:
            total += row
        np.divide(step, total, out=g)
        new, moved = recount(at), np.zeros(n_chains)
        for old, now, (_, chain_of, tested) in zip(counts, new, tables):
            if tested:
                np.maximum.at(moved, chain_of, np.abs(now - old).max(axis=0))
        counts, done = new, running & (moved <= tol)
        if s + 1 == sweeps:  # every chain stops, those still moving capped
            capped, done = running & ~done, running
        if on_sweep is not None:
            on_sweep(s, counts, g, running, done)
        if done.any():
            stop[done] = s + 1
            for kept, now, (_, chain_of, _) in zip(final, counts, tables):
                np.copyto(kept, now, where=done[chain_of])
            running &= ~done
            if not running.any():
                break
            keep = np.flatnonzero(running[at["chain"]])
            n = len(keep)
            # np.take reads all of its input before it writes over it
            at = {name: np.take(at[name], keep, axis=-1, out=_head(buf, n))
                  for name, buf in bufs.items()}
            g, step, total = at["gamma"], _head(update, n), norm[:n]
    return final, stop, capped


# --- fitting -----------------------------------------------------------------

# sweeps between the log-joint records a fit keeps for the sidecar
_LOG_JOINT_EVERY = 50

# a fit's model is frozen at the first sweep that moves none of its
# doc-topic and topic-word counts by more than this
_FIT_TOL = 1e-4


def fit_triples(groups: Sequence[tuple[Docs, Docs, Docs]],
                h: int, alpha: float, beta: float = 0.01,
                sweeps: int = 500, *,
                seeds: Sequence[int]) -> list[TopicModelTriple]:
    """Per group of (favor, none, against) docs, its three per-stance models
    over one vocabulary built from its docs, seeded seeds[g], seeds[g] + 1
    and seeds[g] + 2; every group's models in one fit, each run to its own
    fixed point or for sweeps sweeps. The priors are finite and > 0; a seed
    is an integer >= 0. The models share no counts, so each is the
    same whatever the other groups hold: a one-set fit is
    fit_triples([(docs, [], [])], ...)[0].favor."""
    if len(seeds) != len(groups):
        raise TopicsError(f"{len(seeds)} seeds for {len(groups)} groups")
    doc_sets, vocabs, set_seeds = [], [], []
    for (favor, none, against), seed in zip(groups, seeds):
        vocab = Vocabulary.from_docs([*favor, *none, *against])
        doc_sets += [favor, none, against]
        vocabs += [vocab] * 3
        set_seeds += [seed + offset for offset in range(3)]
    models = _fit(doc_sets, vocabs, h, alpha, beta, sweeps, set_seeds)
    return [TopicModelTriple(*models[at:at + 3])
            for at in range(0, len(models), 3)]


def _fit(doc_sets: Sequence[Docs], vocabs: Sequence[Vocabulary],
         h: int, alpha: float, beta: float, sweeps: int,
         seeds: Sequence[int], sweep_callback=None) -> list[LdaModel]:
    """One model per doc set over its vocabulary, all in one _cvb0 fit with
    a chain per model. A token's gamma starts one-hot at its initial
    topic: set m's n in-vocabulary tokens, in (doc, position) order, draw
    theirs as np.random.default_rng(seeds[m]).integers(H, size=n). Its word
    factor is (n_wk - gamma_k + beta) / (n_k - gamma_k + beta |V|) over its
    own model's counts. A model stops at the first sweep that moves none of
    its n_dk and n_wk by more than _FIT_TOL, or after sweeps sweeps: its
    trained_sweeps; its counts are those it stopped with, and its log joint
    is recorded every 50 sweeps and at its stop, except over an empty
    vocabulary. sweep_callback(s, n_k (H, sets), gamma of the models still
    sweeping) runs after every sweep. Both priors are finite and > 0, and
    each seed is an integer >= 0.
    """
    if not isinstance(h, numbers.Integral) or h < 1:
        raise TopicsError(f"H must be an integer >= 1, got {h!r}")
    if sweeps < 1:
        raise TopicsError(f"sweeps must be >= 1, got {sweeps}")
    h = int(h)
    _check_priors(alpha, beta)
    for seed in seeds:
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise TopicsError(f"seeds must be integers >= 0, got {seed!r}")
    n_sets = len(doc_sets)
    set_of = np.repeat(np.arange(n_sets), [len(docs) for docs in doc_sets])
    ids = [doc for docs, vocab in zip(doc_sets, vocabs)
           for doc in _doc_token_ids(docs, vocab)]
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    sizes = np.array([len(vocab) for vocab in vocabs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    # per token, in (set, doc, position) order: its doc, its set and its
    # word's column among the sets' vocabularies side by side
    doc = np.repeat(np.arange(len(ids)), lengths)
    token_set = set_of[doc]
    words = (np.array([w for doc_ids in ids for w in doc_ids], dtype=np.int64)
             + offsets[token_set])
    # each token's initial topic, in the same order: set m's tokens draw
    # theirs from a Generator of their own, seeded seeds[m]
    per_set = np.bincount(token_set, minlength=n_sets)
    topic = np.concatenate([
        np.random.default_rng(int(seed)).integers(h, size=n)
        for seed, n in zip(seeds, per_set)])
    # the columns interleave the sets: every set's first token, then every
    # set's second, and so on. A bin holds one set's tokens, still in token
    # order, but np.bincount's adds into one bin no longer follow each
    # other, so none waits on the one before
    rank = np.arange(len(doc)) - (np.cumsum(per_set) - per_set)[token_set]
    layout = np.lexsort((token_set, rank))
    doc, token_set, words, topic = (
        a[layout] for a in (doc, token_set, words, topic))
    gamma = (np.arange(h)[:, None] == topic).astype(np.float64)
    del topic, rank, layout
    scratch = np.empty_like(gamma)
    log_joints = [[] for _ in doc_sets]

    def word_factor(update, gamma, counts, cols):
        # update times (n_wk - g + beta), then that over (n_k - g + beta |V|)
        factor = _head(scratch, gamma.shape[1])
        for table, index, prior, apply in (
                (counts[1], cols["word"], beta, np.multiply),
                (counts[2], cols["chain"], cols["beta_v"], np.divide)):
            np.take(table, index, axis=1, out=factor, mode="wrap")
            factor -= gamma
            factor += prior
            apply(update, factor, out=update)

    def on_sweep(s, counts, gamma, ran, stops):
        n_dk, n_wk, n_k = counts
        if sweep_callback is not None:
            sweep_callback(s, n_k, gamma)
        due = ran if (s + 1) % _LOG_JOINT_EVERY == 0 else stops
        for m in np.flatnonzero(due & (sizes > 0)):
            mine = (set_of == m) & (lengths > 0)
            log_joints[m].append((s + 1, _log_joint(
                n_wk[:, offsets[m]:offsets[m + 1]], n_k[:, m],
                n_dk[:, mine], lengths[mine], alpha, beta)))

    (_, n_wk, _), stop, _ = _cvb0(
        gamma, {"chain": token_set, "doc": doc, "word": words,
                "alpha": np.full(len(doc), float(alpha)),
                "beta_v": (beta * sizes)[token_set]},
        [("doc", set_of, True),
         ("word", np.repeat(np.arange(n_sets), sizes), True),
         ("chain", np.arange(n_sets), False)],
        n_sets, word_factor, _FIT_TOL, sweeps, on_sweep)
    return [LdaModel(h=h, alpha=float(alpha), beta=float(beta), vocab=vocab,
                     topic_word_counts=table, trained_sweeps=int(done),
                     log_joint=record)
            for vocab, table, done, record in zip(
                vocabs, np.split(n_wk, offsets[1:-1], axis=1), stop,
                log_joints)]


def _log_joint(n_wt: np.ndarray, n_t: np.ndarray, n_dt: np.ndarray,
               lengths: np.ndarray, alpha: float, beta: float) -> float:
    """Collapsed log p(w, z) of one model, up to assignment-independent
    constants, from its (H, |V|) word-topic counts, (H,) topic totals and
    (H, D) topic counts of its D nonempty docs of the given lengths; the
    fit passes its expected counts.
    """
    h, v = n_wt.shape
    word, topic, doc, length = (
        sum(map(lgamma, terms.ravel().tolist())) for terms in (
            n_wt + beta, n_t + beta * v, n_dt + alpha, lengths + alpha * h))
    return word - topic + doc - length


# --- fold-in -----------------------------------------------------------------

# docs per fold-in batch; bounds the (H, tokens x models) arrays
_FOLD_IN_BATCH = 1024

# a chain is frozen at the first sweep that moves none of its counts by more
_FOLD_IN_TOL = 1e-9


FoldInSet = tuple[Sequence[LdaModel], Docs]


class FoldIn(NamedTuple):
    """Fold-in posteriors, one array per set, and the number of (doc,
    model) chains stopped at the sweep cap rather than at their fixed
    point."""

    rows: list[np.ndarray]
    capped: int


def fold_in_sets(sets: Sequence[FoldInSet], sweeps: int = 50) -> FoldIn:
    """Fold-in posteriors of several model sets' docs; per set (models,
    docs) one (D, len(models)*H) array. A set's models share H and
    vocabulary, and all sets share H and the model count. Row d holds the
    set's models' length-H posteriors side by side: each (doc, model) pair
    is a _cvb0 chain from gamma = 1/H with the model's frozen phi as word
    factor, frozen at the first sweep that moves none of its n_k by more
    than 1e-9 or after sweeps sweeps, and gives (n_k + alpha) /
    (length + H alpha). So a row does not depend on the rest of the batch,
    the other sets or the other models of its set. Empty or fully
    out-of-vocabulary docs give the uniform prior.
    """
    if not sets:
        return FoldIn([], 0)
    if sweeps < 1:
        raise TopicsError(f"sweeps must be >= 1, got {sweeps}")
    for models, _ in sets:
        if not models:
            raise TopicsError("fold-in needs at least one model")
        first = models[0]
        if any(m.h != first.h or m.vocab.tokens != first.vocab.tokens
               for m in models[1:]):
            raise TopicsError("fold-in models disagree on H or vocabulary")
    h, n_models = sets[0][0][0].h, len(sets[0][0])
    if any(models[0].h != h or len(models) != n_models for models, _ in sets):
        raise TopicsError("fold-in sets disagree on H or model count")
    sizes = [len(docs) for _, docs in sets]
    out = np.full((sum(sizes), n_models * h), 1.0 / h)
    rows = np.split(out, np.cumsum(sizes)[:-1])
    ids, tables = [], []
    for models, docs in sets:
        ids += _doc_token_ids(docs, models[0].vocab)
        # table[k, w, m] = the word's frozen phi_k under model m
        tables.append(np.array([m.phi() for m in models]).transpose(1, 2, 0))
    # the sets' tables side by side; a doc's word ids shift by the
    # vocabulary sizes of the sets before its own, and its chains take its
    # set's alphas
    set_of = np.repeat(np.arange(len(sets)), sizes)
    offsets = np.cumsum([0] + [t.shape[1] for t in tables[:-1]])[set_of]
    alphas = np.array([[m.alpha for m in models]
                       for models, _ in sets])[set_of]
    factor = np.concatenate(tables, axis=1)
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    live = np.flatnonzero(lengths)
    capped = 0
    for at in range(0, len(live), _FOLD_IN_BATCH):
        batch = live[at:at + _FOLD_IN_BATCH]
        # a column per (token, model) pair in token order, its word factor
        # the word's phi under the model; chain c = doc * M + model
        doc = np.repeat(np.arange(len(batch)), lengths[batch])
        words = (np.array([w for d in batch for w in ids[d]], dtype=np.int64)
                 + offsets[batch][doc])
        phi = np.take(factor, words, axis=1).reshape(h, -1)
        chain = (doc[:, None] * n_models + np.arange(n_models)).reshape(-1)
        alpha = alphas[batch].reshape(-1)
        (counts,), _, stuck = _cvb0(
            np.full(phi.shape, 1.0 / h),
            {"chain": chain, "alpha": alpha[chain], "phi": phi},
            [("chain", np.arange(len(alpha)), True)], len(alpha),
            lambda update, gamma, counts, cols: np.multiply(
                update, cols["phi"], out=update),
            _FOLD_IN_TOL, sweeps)
        out[batch] = ((counts.T + alpha[:, None]) / (
            lengths[batch].repeat(n_models)[:, None] + h * alpha[:, None])
        ).reshape(len(batch), -1)
        capped += int(stuck.sum())
    return FoldIn(rows, capped)


def perplexity(model: LdaModel, docs: Docs, thetas: np.ndarray) -> float:
    """exp(-mean log p(w|d)) with p(w|d) = sum_h theta_dh phi_hw.

    Row d of thetas, (len(docs), H), is doc d's topic posterior under the
    model, which the caller takes from the fold-in; phi comes from the
    smoothed trained counts. Docs with no in-vocabulary tokens are skipped;
    raises if nothing is left.
    """
    if np.shape(thetas) != (len(docs), model.h):
        raise TopicsError(f"thetas of shape {np.shape(thetas)} for "
                          f"{len(docs)} docs under H={model.h}")
    phi = model.phi()
    log_lik = 0.0
    total = 0
    for theta, ids in zip(thetas, _doc_token_ids(docs, model.vocab)):
        if not ids:
            continue
        p = theta @ phi[:, ids]
        log_lik += float(np.log(p).sum())
        total += len(ids)
    if total == 0:
        raise TopicsError("perplexity undefined: zero in-vocabulary tokens")
    return float(np.exp(-log_lik / total))


def umass_coherence(model: LdaModel, docs: Docs, top_n: int) -> float:
    """Mean over topics of sum_{i<j} log((D(w_i,w_j)+1)/D(w_j)).

    D counts document co-occurrence over docs. Pairs whose denominator word
    never occurs are skipped (possible on tiny corpora where top words are
    pure smoothing artifacts).
    """
    if top_n < 2:
        raise TopicsError(f"top_n must be >= 2, got {top_n}")
    index = model.vocab.index
    doc_sets = [frozenset(index[t] for t in doc if t in index) for doc in docs]
    tops = model.top_words(top_n)
    score = 0.0
    for words in tops:
        ids = [index[w] for w in words]
        topic_score = 0.0
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                d_j = sum(1 for s in doc_sets if ids[b] in s)
                if d_j == 0:
                    continue
                d_ij = sum(1 for s in doc_sets if ids[a] in s and ids[b] in s)
                topic_score += np.log((d_ij + 1.0) / d_j)
        score += topic_score
    return float(score / model.h)


# --- serialization --------------------------------------------------------
#
# LDA3 layout, little-endian (in .lda1 files):
#   magic "LDA3" | u32 H | u32 |V| | f64 alpha | f64 beta | u32 sweeps
#   | f64 expected counts (H x |V|, row-major)
#   | per vocab token: u32 byte length, UTF-8 bytes
# A JSON sidecar (<path>.json) lists the top-10 words per topic and the
# fit's log-joint trace as [sweeps done, value] pairs.

_LDA_MAGIC = b"LDA3"


def save_lda(model: LdaModel, path: str | Path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_LDA_MAGIC)
        fh.write(struct.pack("<II", model.h, len(model.vocab)))
        fh.write(struct.pack("<dd", model.alpha, model.beta))
        fh.write(struct.pack("<I", model.trained_sweeps))
        fh.write(model.topic_word_counts.astype(F64).tobytes(order="C"))
        for tok in model.vocab.tokens:
            raw = tok.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
    doc = {
        "h": model.h, "alpha": model.alpha, "beta": model.beta,
        "trained_sweeps": model.trained_sweeps,
        "top_words": model.top_words(10),
        "log_joint": [[s, value] for s, value in model.log_joint],
    }
    with open(f"{path}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_lda(path: str | Path) -> LdaModel:
    with Reader(path, TopicsError, _LDA_MAGIC) as src:
        h, v = src.unpack("<II")
        alpha, beta = src.unpack("<dd")
        (sweeps,) = src.unpack("<I")
        src.need(F64.itemsize * h * v)  # before the table is allocated
        counts = np.empty((h, v), F64)
        src.read_into(counts)
        tokens = [src.text(src.u32()) for _ in range(v)]
        src.finish()
    vocab = Vocabulary(tokens=tokens,
                       index={t: i for i, t in enumerate(tokens)})
    try:
        return LdaModel(h=h, alpha=alpha, beta=beta, vocab=vocab,
                        topic_word_counts=counts, trained_sweeps=sweeps)
    except TopicsError as exc:  # the model's own checks name no file
        raise TopicsError(f"{path}: {exc}") from exc
