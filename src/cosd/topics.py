"""Per-stance LDA topic models and the 3H-dim implicit-topic distribution.

Three LDA models (favor / none / against training subsets, shared vocabulary,
H topics each) are fit by collapsed Gibbs sampling. Any text, train or test,
is folded in under all three models with counts frozen; the three length-H
posteriors concatenated and divided by 3 give its topic distribution, which
later doubles as text-to-topic edge weights.

One sampler does both jobs: one chain per doc (per doc and model in the
fold-in), every chain stepped in lockstep one token position at a time as
numpy operations, each doc drawing from a keyed counter hash. Fitting
moves its models' word and topic counts after every position step
(AD-LDA); the fold-in keeps them frozen.
"""

from __future__ import annotations

import json
import numbers
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf, lgamma
from pathlib import Path

import numpy as np

from .binfile import I64, Reader
from .corpus import Example, Vocabulary


class TopicsError(Exception):
    """Bad topic-model arguments or a corrupt model file."""


@dataclass
class LdaModel:
    h: int
    alpha: float
    beta: float
    vocab: Vocabulary
    topic_word_counts: np.ndarray  # (h, |V|) int64
    topic_totals: np.ndarray       # (h,) int64
    trained_sweeps: int
    # (sweeps done, the fit's log joint then) recorded by the fit; kept in
    # the JSON sidecar only, so a loaded model has none
    log_joint: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.h < 1:
            raise TopicsError(f"H must be >= 1, got {self.h}")
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise TopicsError(f"priors must be finite and >= 0: "
                              f"alpha={self.alpha}, beta={self.beta}")
        if self.topic_word_counts.shape != (self.h, len(self.vocab)):
            raise TopicsError("topic_word_counts shape mismatch")
        if (self.topic_word_counts < 0).any():
            raise TopicsError("negative counts")
        if not np.array_equal(self.topic_totals,
                              self.topic_word_counts.sum(axis=1)):
            raise TopicsError("topic_totals do not match counts")

    def phi(self) -> np.ndarray:
        """Smoothed topic-word distributions, (h, |V|); rows sum to 1."""
        v = len(self.vocab)
        if v == 0:
            return np.zeros((self.h, 0))
        counts = self.topic_word_counts.astype(np.float64)
        return (counts + self.beta) / (self.topic_totals[:, None] + self.beta * v)

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


def _doc_token_ids(docs: Sequence[Sequence[str]],
                   vocab: Vocabulary) -> list[list[int]]:
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


def _keys(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Each doc's key, the finalizer over its seed; (n,) uint64. A seed
    must be an integer in [0, 2**64)."""
    column = np.asarray(seeds)
    if column.dtype.kind not in "ui" or (column.size and column.min() < 0):
        for seed in seeds:
            if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
                raise TopicsError(
                    f"seeds must be integers in [0, 2**64), got {seed!r}")
        column = np.array([int(seed) for seed in seeds], dtype=np.uint64)
    return _mix64(column.astype(np.uint64))


def _uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The draws numbered counters of the docs keyed by keys, broadcast
    together, as doubles in [0, 1). A doc of n tokens draws its initial
    topics as floor(u * H) from counters 0..n-1, and the uniform of sweep s
    at position j from counter n * (s + 1) + j."""
    z = _mix64(keys + (counters.astype(np.uint64) + np.uint64(1)) * _GAMMA)
    return (z >> np.uint64(11)) * 2.0**-53


# --- the lockstep, shared by fitting and fold-in -----------------------------
#
# Docs are sorted longest first, so the docs still running at any token
# position are a prefix of them, and every per-chain array is addressed by
# slices. Counts are topic-major, (H, chains).


def _longest_first(ids: Sequence[Sequence[int]]) -> np.ndarray:
    """The indices of the nonempty docs, longest first (stable)."""
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    live = np.flatnonzero(lengths)
    return live[np.argsort(-lengths[live], kind="stable")]


def _start(ids: Sequence[Sequence[int]], keys: np.ndarray, h: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
        np.ndarray]:
    """Over docs sorted longest first, doc d keyed by keys[d]: the padded
    (position, doc) word ids (0 past a doc's end) and draw counters, the
    docs' lengths, how many docs still run at each position, the initial
    topics floor(u * H) from draws 0..n-1, and their (H, docs) counts."""
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    n_docs, n_max = len(ids), int(lengths.max(initial=0))
    counters = np.repeat(np.arange(n_max)[:, None], n_docs, axis=1)
    in_doc = counters < lengths
    tokens = np.zeros((n_docs, n_max), dtype=np.int64)
    tokens[in_doc.T] = [w for doc in ids for w in doc]
    z = (_uniforms(keys, counters) * h).astype(np.int64)
    docs = np.broadcast_to(np.arange(n_docs), z.shape)
    counts = np.bincount(z[in_doc] * n_docs + docs[in_doc],
                         minlength=h * n_docs).reshape(h, n_docs)
    return tokens.T, counters, lengths, in_doc.sum(axis=1), z, counts


def _draw(local: np.ndarray, at: np.ndarray, alpha, factor: np.ndarray,
          u: np.ndarray) -> np.ndarray:
    """Redraw the tokens of the first len(at) chains; their new topics.

    local holds the chains' own topic counts, (H, chains) and C-contiguous,
    and at[c] the flat index k * chains + c of chain c's topic k in it. The
    token is taken off local; the prefix sums of (local_t + alpha) *
    factor_t, added in the order of a sequential cumsum, pick the first t
    with u * total <= prefix_t (H - 1 if none; int(u * H) where total <= 0);
    the token is added back there and at updated in place.
    """
    (h, n_chains), m = local.shape, len(at)
    flat = local.reshape(-1)
    flat[at] -= 1
    prefix = [(local[0, :m] + alpha) * factor[0]]
    for t in range(1, h):
        prefix.append(prefix[-1] + (local[t, :m] + alpha) * factor[t])
    total = prefix[-1]
    goal = u * total
    # the prefix sums never decrease, and goal never exceeds the last, so
    # the first t is how many of the first H - 1 fall short of goal
    new = (prefix[0] < goal).astype(np.int64)
    for t in range(1, h - 1):
        new += prefix[t] < goal
    if total.min() <= 0.0:
        zero = total <= 0.0
        new[zero] = (u[zero] * h).astype(np.int64)
    np.multiply(new, n_chains, out=at)
    at += np.arange(m)
    flat[at] += 1
    return new


# --- fitting -----------------------------------------------------------------

# sweeps between the log-joint records a fit keeps for the sidecar
_LOG_JOINT_EVERY = 50


def fit_lda(docs: list[list[str]], h: int, alpha: float | None = None,
            beta: float = 0.01, sweeps: int = 500, seed: int = 0,
            vocab: Vocabulary | None = None,
            sweep_callback=None) -> LdaModel:
    """Fit one LDA model by collapsed Gibbs sampling: _fit with one doc set.

    docs are token lists. With vocab=None the vocabulary is built from docs;
    passing a vocabulary lets several models share one (required inside a
    triple). alpha defaults to 50/H, beta to 0.01. Deterministic per seed,
    an integer in [0, 2**64). An empty doc list yields a prior-only model.
    sweep_callback, when given, is called as sweep_callback(sweep_index,
    topic_totals_copy) after every sweep (diagnostics only).
    """
    if vocab is None:
        vocab = Vocabulary.from_docs(docs)
    callback = None if sweep_callback is None else (
        lambda s, totals: sweep_callback(s, totals[:, 0]))
    (model,) = _fit([docs], vocab, h, alpha, beta, sweeps, [seed], callback)
    return model


def fit_triple(favor_docs: list[list[str]], none_docs: list[list[str]],
               against_docs: list[list[str]], h: int,
               alpha: float | None = None, beta: float = 0.01,
               sweeps: int = 500, seed: int = 0) -> TopicModelTriple:
    """Fit the three per-stance models over one shared vocabulary in one
    lockstep, seeded seed, seed + 1 and seed + 2. The models share no
    counts, so each equals fit_lda's over its docs, its seed and that
    vocabulary."""
    vocab = Vocabulary.from_docs(favor_docs + none_docs + against_docs)
    return TopicModelTriple(*_fit(
        [favor_docs, none_docs, against_docs], vocab, h, alpha, beta, sweeps,
        [seed + offset for offset in range(3)]))


def _fit(doc_sets: Sequence[list[list[str]]], vocab: Vocabulary, h: int,
         alpha: float | None, beta: float, sweeps: int, seeds: Sequence[int],
         sweep_callback=None) -> list[LdaModel]:
    """One model per doc set over vocab, every set's docs in one lockstep.

    One chain per nonempty doc; doc i of set m draws from the counter hash
    keyed by the finalizer over (the key of seeds[m]) + i. A chain draws
    from p_t = (n_dt + alpha)(n_wt + beta) / (n_t + beta |V|): n_dt its own
    counts without the token, n_wt and n_t its model's counts as the
    previous position step left them, less the token (AD-LDA; Newman et
    al., "Distributed Algorithms for Topic Models", JMLR 2009).
    sweep_callback(s, topic totals (H, sets)) runs after every sweep. Each
    model records its log joint every 50 sweeps and after the last, except
    at alpha = 0 or over an empty vocabulary, where it is undefined.
    """
    if not isinstance(h, numbers.Integral) or h < 1:
        raise TopicsError(f"H must be an integer >= 1, got {h!r}")
    if sweeps < 1:
        raise TopicsError(f"sweeps must be >= 1, got {sweeps}")
    h = int(h)
    alpha = 50.0 / h if alpha is None else alpha
    # beta > 0 keeps every denominator n_t + beta * |V| positive when a
    # topic empties
    if not (0 <= alpha < inf and 0 < beta < inf):
        raise TopicsError(f"priors must be finite with alpha >= 0 and "
                          f"beta > 0: alpha={alpha}, beta={beta}")
    keys = np.concatenate([
        _mix64(_keys([seed]) + np.arange(len(docs), dtype=np.uint64))
        for seed, docs in zip(seeds, doc_sets)])
    set_of = np.repeat(np.arange(len(doc_sets)),
                       [len(docs) for docs in doc_sets])
    ids = [doc for docs in doc_sets for doc in _doc_token_ids(docs, vocab)]
    live = _longest_first(ids)
    keys, set_of = keys[live], set_of[live]
    tokens, counters, lengths, alive, z, n_dt = _start(
        [ids[d] for d in live], keys, h)
    v, n_sets, n_chains = len(vocab), len(doc_sets), len(live)
    width = n_sets * v
    # the sets' word-topic tables side by side, (H, sets x |V|): chain c's
    # word w is column w + set_of[c] * |V|
    words = tokens + set_of * v
    in_doc = counters < lengths
    n_wt = np.bincount(z[in_doc] * width + words[in_doc],
                       minlength=h * width).reshape(h, width)
    n_t = n_wt.reshape(h, n_sets, v).sum(axis=2)
    flat_wt, flat_t = n_wt.reshape(-1), n_t.reshape(-1)
    z = z * n_chains + np.arange(n_chains)  # flat indices into n_dt
    topics = np.arange(h)[:, None]
    beta_v = beta * v
    log_joints = [[] for _ in doc_sets]
    for s in range(sweeps):
        counters += lengths
        uniforms = _uniforms(keys, counters)
        for j, m in enumerate(alive):
            at, word, of = z[j, :m], words[j, :m], set_of[:m]
            old = at // n_chains
            # the model's counts as the last step left them, less the token
            held = topics == old
            new = _draw(n_dt, at, alpha, (n_wt[:, word] - held + beta)
                        / (n_t[:, of] - held + beta_v), uniforms[j, :m])
            # ufunc.at applies a repeated index once per repeat, where
            # fancy-index += would apply it once: chains of one model may
            # hold the same word at this position
            np.subtract.at(flat_wt, old * width + word, 1)
            np.add.at(flat_wt, new * width + word, 1)
            np.subtract.at(flat_t, old * n_sets + of, 1)
            np.add.at(flat_t, new * n_sets + of, 1)
        if sweep_callback is not None:
            sweep_callback(s, n_t.copy())
        done = s + 1
        if alpha > 0 and v > 0 and (done % _LOG_JOINT_EVERY == 0
                                    or done == sweeps):
            for m, record in enumerate(log_joints):
                mine = set_of == m
                record.append((done, _log_joint(
                    n_wt[:, m * v:(m + 1) * v], n_t[:, m], n_dt[:, mine],
                    lengths[mine], alpha, beta)))
    return [LdaModel(h=h, alpha=float(alpha), beta=float(beta), vocab=vocab,
                     topic_word_counts=n_wt[:, m * v:(m + 1) * v].copy(),
                     topic_totals=n_t[:, m].copy(), trained_sweeps=sweeps,
                     log_joint=record)
            for m, record in enumerate(log_joints)]


def _log_joint(n_wt: np.ndarray, n_t: np.ndarray, n_dt: np.ndarray,
               lengths: np.ndarray, alpha: float, beta: float) -> float:
    """Collapsed log p(w, z) of one model, up to assignment-independent
    constants, from its (H, |V|) word-topic counts, (H,) topic totals and
    (H, D) topic counts of its D nonempty docs of the given lengths.

    Undefined at alpha = 0, where a doc-topic count of 0 hits the pole of
    lgamma; raises TopicsError there.
    """
    if alpha == 0:
        raise TopicsError("the log joint is undefined at alpha = 0")
    h, v = n_wt.shape
    word, topic, doc, length = (
        sum(map(lgamma, terms.ravel().tolist())) for terms in (
            n_wt + beta, n_t + beta * v, n_dt + alpha, lengths + alpha * h))
    return word - topic + doc - length


# --- fold-in -----------------------------------------------------------------

# docs per lockstep batch; bounds the padded factor and topic arrays
_FOLD_IN_BATCH = 1024


def fold_in(models: Sequence[LdaModel], docs: Sequence[Sequence[str]],
            seeds: Sequence[int], sweeps: int = 50) -> np.ndarray:
    """Fold-in posteriors of every doc under every model, (D, len(models)*H):
    fold_in_sets with the one set (models, docs, seeds)."""
    (rows,) = fold_in_sets([(models, docs, seeds)], sweeps)
    return rows


FoldInSet = tuple[Sequence[LdaModel], Sequence[Sequence[str]], Sequence[int]]


def fold_in_sets(sets: Sequence[FoldInSet],
                 sweeps: int = 50) -> list[np.ndarray]:
    """Fold-in posteriors of several model sets' docs; per set (models,
    docs, seeds) one (D, len(models)*H) array.

    A set's models share H and vocabulary, and every set has the same H
    and number of models. Row d holds the set's models' length-H posteriors
    side by side, each summing to 1. Topic-word counts stay frozen, so docs
    are independent: one collapsed Gibbs chain per (doc, model) pair, the
    chains of every set stepped in one lockstep, token position by token
    position. Each chain reads its own model's word factors and alpha. Doc
    d's draws are those of the counter hash keyed by seeds[d], an integer
    in [0, 2**64) (_uniforms: its initial topics, then sweeps x n
    uniforms), shared by its chains under every model of its set. Each
    chain's arithmetic is that of a one-chain sequential loop (a running
    sum over H, first topic whose prefix sum reaches u * total), so a doc's
    row does not depend on the rest of the batch or on the other sets.
    Empty or fully out-of-vocabulary docs give the uniform prior.
    """
    if not sets:
        return []
    keys = []
    for models, docs, seeds in sets:
        if not models:
            raise TopicsError("fold-in needs at least one model")
        first = models[0]
        if any(m.h != first.h or m.vocab.tokens != first.vocab.tokens
               for m in models[1:]):
            raise TopicsError("fold-in models disagree on H or vocabulary")
        if len(seeds) != len(docs):
            raise TopicsError(f"{len(seeds)} seeds for {len(docs)} docs")
        keys.append(_keys(seeds))
    h, n_models = sets[0][0][0].h, len(sets[0][0])
    if any(models[0].h != h or len(models) != n_models
           for models, _, _ in sets):
        raise TopicsError("fold-in sets disagree on H or model count")
    sizes = [len(docs) for _, docs, _ in sets]
    out = np.full((sum(sizes), n_models * h), 1.0 / h)
    rows = np.split(out, np.cumsum(sizes)[:-1])
    ids, tables = [], []
    for models, docs, _ in sets:
        ids += _doc_token_ids(docs, models[0].vocab)
        # table[w] = the word's frozen conditional factor under each model,
        # H values per model side by side
        tables.append(np.concatenate(
            [((m.topic_word_counts + m.beta)
              / (m.topic_totals + m.beta * len(m.vocab))[:, None]).T
             for m in models], axis=1))
    keys = np.concatenate(keys)
    # the sets' tables stacked; a doc's word ids shift by the vocabulary
    # sizes of the sets before its own, and its chains take its set's alphas
    set_of = np.repeat(np.arange(len(sets)), sizes)
    offsets = np.cumsum([0] + [len(t) for t in tables[:-1]])[set_of]
    alphas = np.array([[m.alpha for m in models]
                       for models, _, _ in sets])[set_of]
    factor = np.concatenate(tables)
    live = _longest_first(ids)
    for at in range(0, len(live), _FOLD_IN_BATCH):
        batch = live[at:at + _FOLD_IN_BATCH]
        out[batch] = _lockstep([ids[d] for d in batch], keys[batch],
                               offsets[batch], factor, alphas[batch], h,
                               sweeps)
    return rows


def _lockstep(ids: list[list[int]], keys: np.ndarray, offsets: np.ndarray,
              factor: np.ndarray, alphas: np.ndarray, h: int,
              sweeps: int) -> np.ndarray:
    """fold_in_sets over nonempty docs sorted longest first; (D, M*H).

    Doc d draws from the counter hash under keys[d], one (position, doc)
    array of uniforms per sweep, and its word w is factor row
    w + offsets[d]; its chains take the priors alphas[d] (M values). Chain
    c = doc * M + model, so the live chains stay a prefix.
    """
    n_models = alphas.shape[1]
    tokens, counters, lengths, alive, z, counts = _start(ids, keys, h)
    n_docs, n_max = len(ids), len(tokens)
    n_chains = n_docs * n_models
    tokens = tokens + offsets
    # a doc's chains start from its initial topics; z holds the flat
    # index of each chain's topic in local, as _draw reads it
    z = z.repeat(n_models, axis=1) * n_chains + np.arange(n_chains)
    local = counts.repeat(n_models, axis=1).astype(np.float64)
    # (position, topic, chain): the factor of the chain's token at that
    # position under the chain's model
    pos_factor = (factor[tokens].reshape(n_max, n_docs, n_models, h)
                  .transpose(0, 3, 1, 2).reshape(n_max, h, n_chains))
    alpha = alphas.reshape(-1)
    for _ in range(sweeps):
        counters += lengths
        uniforms = _uniforms(keys, counters)
        for j, m_docs in enumerate(alive):
            m = m_docs * n_models
            _draw(local, z[j, :m], alpha[:m], pos_factor[j, :, :m],
                  uniforms[j, :m_docs].repeat(n_models))

    post = (local.T + alpha[:, None]) / (
        lengths.repeat(n_models)[:, None] + h * alpha[:, None])
    return post.reshape(n_docs, n_models * h)


def perplexity(model: LdaModel, docs: list[list[str]], seeds: Sequence[int],
               sweeps: int = 50) -> float:
    """exp(-mean log p(w|d)) with p(w|d) = sum_h theta_dh phi_hw.

    theta comes from fold-in (doc i seeded seeds[i]), phi from the smoothed
    trained counts. Docs with no in-vocabulary tokens are skipped; raises if
    nothing is left.
    """
    phi = model.phi()
    thetas = fold_in([model], docs, seeds, sweeps=sweeps)
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


def umass_coherence(model: LdaModel, docs: list[list[str]],
                    top_n: int) -> float:
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
# LDA1 layout, little-endian:
#   magic "LDA1" | u32 H | u32 |V| | f64 alpha | f64 beta | u32 sweeps
#   | i64 counts (H x |V|, row-major)
#   | per vocab token: u32 byte length, UTF-8 bytes, u32 doc frequency
# A JSON sidecar (<path>.json) lists the top-10 words per topic and the
# fit's log-joint trace as [sweeps done, value] pairs.

_LDA_MAGIC = b"LDA1"


def save_lda(model: LdaModel, path: str | Path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_LDA_MAGIC)
        fh.write(struct.pack("<II", model.h, len(model.vocab)))
        fh.write(struct.pack("<dd", model.alpha, model.beta))
        fh.write(struct.pack("<I", model.trained_sweeps))
        fh.write(model.topic_word_counts.astype("<i8").tobytes(order="C"))
        for tok, freq in zip(model.vocab.tokens, model.vocab.doc_freq):
            raw = tok.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", freq))
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
        src.need(I64.itemsize * h * v)  # before the table is allocated
        counts = np.empty((h, v), I64)
        src.read_into(counts)
        tokens = []
        freqs = []
        for _ in range(v):
            tokens.append(src.text(src.u32()))
            freqs.append(src.u32())
        src.finish()
    vocab = Vocabulary(tokens=tokens,
                       index={t: i for i, t in enumerate(tokens)},
                       doc_freq=freqs)
    try:
        return LdaModel(h=h, alpha=alpha, beta=beta, vocab=vocab,
                        topic_word_counts=counts,
                        topic_totals=counts.sum(axis=1), trained_sweeps=sweeps)
    except TopicsError as exc:  # the model's own checks name no file
        raise TopicsError(f"{path}: {exc}") from exc


def token_docs(examples: list[Example]) -> list[list[str]]:
    """Token lists for a list of examples (LDA input shape)."""
    return [list(ex.tokens) for ex in examples]
