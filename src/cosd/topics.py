"""Per-stance LDA topic models and the 3H-dim implicit-topic distribution.

Three LDA models (favor / none / against training subsets, shared vocabulary,
H topics each) are fit by the collapsed variational update CVB0, every
training group's triple in one fit (fit_triples): each sweep updates every
token of every model at once as whole-array numpy operations, from its
model's expected counts as the previous sweep left them; the initial topics
come from a keyed counter hash per doc. The models' topic-word counts are
those expected counts, float64. Any text, train or test, is folded in under
all three models with counts frozen by the same update run to its fixed
point (fold_in_sets); the three length-H posteriors concatenated and
divided by 3 give its topic distribution, which later doubles as
text-to-topic edge weights. perplexity samples nothing: it scores the
fold-in posteriors it is given.
"""

from __future__ import annotations

import json
import numbers
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf, lgamma
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


# --- per-doc uniforms --------------------------------------------------------
#
# A keyed counter hash (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC 2011): a doc's key is splitmix64's finalizer over its seed,
# and its draw number c is the top 53 bits of the finalizer over
# key + (c + 1) * gamma, which is splitmix64's sequence started at the key.
# The + 1 keeps seed 0's first draw off 0.0: the finalizer maps 0 to 0. All
# arithmetic is on uint64 arrays, which wrap without a warning.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _keys(seeds: Sequence[int]) -> np.ndarray:
    """Each seed's key, the finalizer over it; (n,) uint64. A seed must be
    an integer in [0, 2**64)."""
    for seed in seeds:
        if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
            raise TopicsError(
                f"seeds must be integers in [0, 2**64), got {seed!r}")
    return _mix64(np.array([int(seed) for seed in seeds], dtype=np.uint64))


def _uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The draws numbered counters of the docs keyed by keys, broadcast
    together, as doubles in [0, 1). A doc of n tokens draws its initial
    topics as floor(u * H) from counters 0..n-1."""
    z = _mix64(keys + (counters.astype(np.uint64) + np.uint64(1)) * _GAMMA)
    return (z >> np.uint64(11)) * 2.0**-53


# --- fitting -----------------------------------------------------------------

# sweeps between the log-joint records a fit keeps for the sidecar
_LOG_JOINT_EVERY = 50


def fit_triples(groups: Sequence[tuple[Docs, Docs, Docs]],
                h: int, alpha: float, beta: float = 0.01,
                sweeps: int = 500, *,
                seeds: Sequence[int]) -> list[TopicModelTriple]:
    """Per group of (favor, none, against) docs, its three per-stance models
    over one vocabulary built from its docs, seeded seeds[g], seeds[g] + 1
    and seeds[g] + 2; every group's models in one fit. The priors are
    finite and > 0; a seed is an integer in [0, 2**64). The models share no
    counts, so each is the same whatever the other groups hold: a one-set
    fit is fit_triples([(docs, [], [])], ...)[0].favor."""
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
    """One model per doc set over its vocabulary, every set's tokens in one
    synchronous CVB0 fit (Asuncion et al., "On Smoothing and Inference for
    Topic Models", UAI 2009).

    Each in-vocabulary token holds a distribution gamma over the H topics,
    one-hot at its initial topic floor(u * H): doc i of set m draws u from
    the counter hash keyed by the finalizer over (the key of seeds[m]) + i,
    numbers 0..n-1 for its n tokens. A sweep sets every token at once, from
    the previous sweep's expected counts of its own model,
    gamma_k = (n_dk - gamma_k + alpha)(n_wk - gamma_k + beta)
    / (n_k - gamma_k + beta |V|) over its sum across k, added in topic
    order, with |V| its set's vocabulary size; then it recounts n_dk, n_wk
    and n_k, each a sum over its tokens in token order. A model's arithmetic
    is that of a scalar loop over its own tokens, whatever the other sets
    hold. sweep_callback(s, topic totals (H, sets), gamma (H, tokens) in
    the fit's column order) runs after every sweep. Each model records its log joint over its expected
    counts every 50 sweeps and after the last, except over an empty
    vocabulary, where it is undefined. Both priors are finite and > 0.
    """
    if not isinstance(h, numbers.Integral) or h < 1:
        raise TopicsError(f"H must be an integer >= 1, got {h!r}")
    if sweeps < 1:
        raise TopicsError(f"sweeps must be >= 1, got {sweeps}")
    h = int(h)
    _check_priors(alpha, beta)
    keys = np.concatenate([
        _mix64(_keys([seed]) + np.arange(len(docs), dtype=np.uint64))
        for seed, docs in zip(seeds, doc_sets)])
    set_of = np.repeat(np.arange(len(doc_sets)),
                       [len(docs) for docs in doc_sets])
    ids = [doc for docs, vocab in zip(doc_sets, vocabs)
           for doc in _doc_token_ids(docs, vocab)]
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    sizes = np.array([len(vocab) for vocab in vocabs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_docs, n_sets, width = len(ids), len(doc_sets), int(offsets[-1])
    # per token, in (set, doc, position) order: its doc, its set and its
    # word's column among the sets' vocabularies side by side
    doc = np.repeat(np.arange(n_docs), lengths)
    token_set = set_of[doc]
    words = (np.array([w for doc_ids in ids for w in doc_ids], dtype=np.int64)
             + offsets[token_set])
    position = np.arange(len(doc)) - (np.cumsum(lengths) - lengths)[doc]
    # the columns interleave the sets: every set's first token, then every
    # set's second, and so on. A bin holds one set's tokens, still in token
    # order, but np.bincount's adds into one bin no longer follow each
    # other, so none waits on the one before
    per_set = np.bincount(token_set, minlength=n_sets)
    rank = np.arange(len(doc)) - (np.cumsum(per_set) - per_set)[token_set]
    layout = np.lexsort((token_set, rank))
    doc, token_set, words, position = (
        a[layout] for a in (doc, token_set, words, position))
    topic = np.arange(h)[:, None]
    gamma = (topic == (_uniforms(keys[doc], position) * h).astype(np.int64)
             ).astype(np.float64)
    del position, rank, layout
    # np.bincount adds each (topic, bin) sum in token order
    flat = [(topic * bins + index).ravel()
            for bins, index in ((n_docs, doc), (width, words),
                                (n_sets, token_set))]

    def recount():
        # over no tokens at all, np.bincount gives int64 zeros
        return [np.bincount(at, gamma.ravel(), h * bins)
                .astype(np.float64, copy=False).reshape(h, bins)
                for at, bins in zip(flat, (n_docs, width, n_sets))]

    n_dk, n_wk, n_k = recount()
    beta_v = (beta * sizes)[token_set]
    update, factor = np.empty_like(gamma), np.empty_like(gamma)
    norm = np.empty(len(doc))
    log_joints = [[] for _ in doc_sets]
    for s in range(sweeps):
        # every index is in range, and mode "wrap" writes out unbuffered;
        # update becomes (n_dk - g + alpha) * (n_wk - g + beta), then that
        # over (n_k - g + beta |V|)
        np.take(n_dk, doc, axis=1, out=update, mode="wrap")
        update -= gamma
        update += alpha
        for counts, index, prior, apply in (
                (n_wk, words, beta, np.multiply),
                (n_k, token_set, beta_v, np.divide)):
            np.take(counts, index, axis=1, out=factor, mode="wrap")
            factor -= gamma
            factor += prior
            apply(update, factor, out=update)
        np.copyto(norm, update[0])
        for row in update[1:]:
            norm += row
        np.divide(update, norm, out=gamma)
        n_dk, n_wk, n_k = recount()
        if sweep_callback is not None:
            sweep_callback(s, n_k, gamma)
        done = s + 1
        if done % _LOG_JOINT_EVERY == 0 or done == sweeps:
            for m, record in enumerate(log_joints):
                if sizes[m]:
                    mine = (set_of == m) & (lengths > 0)
                    record.append((done, _log_joint(
                        n_wk[:, offsets[m]:offsets[m + 1]], n_k[:, m],
                        n_dk[:, mine], lengths[mine], alpha, beta)))
    return [LdaModel(h=h, alpha=float(alpha), beta=float(beta), vocab=vocab,
                     topic_word_counts=table, trained_sweeps=sweeps,
                     log_joint=record)
            for vocab, table, record in zip(
                vocabs, np.split(n_wk, offsets[1:-1], axis=1), log_joints)]


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
    docs) one (D, len(models)*H) array.

    A set's models share H and vocabulary, and every set has the same H
    and number of models. Row d holds the set's models' length-H posteriors
    side by side, each summing to 1. Topic-word counts stay frozen, so
    every (doc, model) chain is independent; each runs the collapsed
    variational fixed point CVB0 (Asuncion et al., "On Smoothing and
    Inference for Topic Models", UAI 2009) from gamma = 1/H,
    gamma_ik <- (n_k - gamma_ik + alpha) phi_k,w_i normalised over its
    model's H topics, n_k = sum_i gamma_ik, every token at once. A chain
    is frozen at the first sweep that moves none of its n_k by more than
    1e-9, or after sweeps sweeps, and its posterior is
    (n + alpha) / (length + H alpha). Each chain's arithmetic is that of a
    scalar loop over its own tokens in order, so a doc's row does not
    depend on the rest of the batch, the other sets or the other models of
    its set. Empty or fully out-of-vocabulary docs give the uniform prior.
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
        # table[w] = the word's frozen phi under each model, H values per
        # model side by side
        tables.append(np.concatenate([m.phi().T for m in models], axis=1))
    # the sets' tables stacked; a doc's word ids shift by the vocabulary
    # sizes of the sets before its own, and its chains take its set's alphas
    set_of = np.repeat(np.arange(len(sets)), sizes)
    offsets = np.cumsum([0] + [len(t) for t in tables[:-1]])[set_of]
    alphas = np.array([[m.alpha for m in models]
                       for models, _ in sets])[set_of]
    factor = np.concatenate(tables)
    live = np.flatnonzero([len(doc) for doc in ids])
    capped = 0
    for at in range(0, len(live), _FOLD_IN_BATCH):
        batch = live[at:at + _FOLD_IN_BATCH]
        out[batch], batch_capped = _cvb0(
            [ids[d] for d in batch], offsets[batch], factor, alphas[batch], h,
            sweeps)
        capped += batch_capped
    return FoldIn(rows, capped)


def _cvb0(ids: list[list[int]], offsets: np.ndarray, factor: np.ndarray,
          alphas: np.ndarray, h: int, sweeps: int) -> tuple[np.ndarray, int]:
    """fold_in_sets over nonempty docs: (D, M*H) posteriors and the number
    of chains still running after the last sweep.

    Doc d's word w is factor row w + offsets[d], and its chains take the
    priors alphas[d] (M values); chain c = doc * M + model. Arrays are
    topic-major, (H, columns), a column per (token, model) pair in token
    order, so np.bincount sums a chain's columns in its tokens' order, as
    a scalar loop would. A frozen chain's columns leave every array.
    """
    n_docs, n_models = alphas.shape
    n_chains = n_docs * n_models
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    doc = np.repeat(np.arange(n_docs), lengths)
    words = np.array([w for doc_ids in ids for w in doc_ids]) + offsets[doc]
    phi = (factor[words].reshape(-1, n_models, h).transpose(2, 0, 1)
           .reshape(h, -1))
    chain = (doc[:, None] * n_models + np.arange(n_models)).reshape(-1)
    alpha = alphas.reshape(-1)
    col_alpha = alpha[chain]
    gamma = np.full(phi.shape, 1.0 / h)
    counts = np.stack([np.bincount(chain, row, n_chains) for row in gamma])
    final = np.empty_like(counts)
    running = np.ones(n_chains, dtype=bool)
    for _ in range(sweeps):
        # (n_k - gamma_ik + alpha) phi_k,w, written over the gathered n_k
        new = np.take(counts, chain, axis=1)
        new -= gamma
        new += col_alpha
        new *= phi
        new /= new.sum(axis=0)
        gamma = new
        new = np.stack([np.bincount(chain, row, n_chains) for row in gamma])
        done = running & (np.abs(new - counts).max(axis=0) <= _FOLD_IN_TOL)
        counts = new
        if done.any():
            np.copyto(final, counts, where=done)
            running &= ~done
            if not running.any():
                break
            keep = running[chain]
            chain, col_alpha, phi, gamma = (
                np.compress(keep, a, axis=-1)
                for a in (chain, col_alpha, phi, gamma))
    np.copyto(final, counts, where=running)
    post = (final.T + alpha[:, None]) / (
        lengths.repeat(n_models)[:, None] + h * alpha[:, None])
    return post.reshape(n_docs, n_models * h), int(running.sum())


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
