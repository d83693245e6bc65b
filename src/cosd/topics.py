"""Per-stance LDA topic models and the 3H-dim implicit-topic distribution.

Three LDA models (favor / none / against training subsets, shared vocabulary,
H topics each) are fit by collapsed Gibbs sampling. Any text, train or test,
is folded in under all three models with counts frozen; the three length-H
posteriors concatenated and divided by 3 give its topic distribution, which
later doubles as text-to-topic edge weights.
"""

from __future__ import annotations

import functools
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


class GibbsLda:
    """Sequential collapsed Gibbs sampler over a fixed vocabulary.

    State lives in plain Python lists of integer-valued floats: per-doc and
    per-word topic counts, topic totals and per-doc topic assignments. At
    the small H used here the per-token work is a handful of float ops, and
    array round-trips would dominate. sweep() runs a straight-line kernel
    generated once per H (_sweep_kernel). Uniform draws are batched from one
    PCG64 stream per sampler, so runs are deterministic per seed.
    """

    def __init__(self, doc_ids: list[list[int]], h: int, alpha: float,
                 beta: float, vocab_size: int, seed: int):
        if not isinstance(h, numbers.Integral) or h < 1:
            raise TopicsError(f"H must be an integer >= 1, got {h!r}")
        # beta > 0 keeps every denominator n_k + beta * |V| positive when a
        # topic empties
        if not (0 <= alpha < inf and 0 < beta < inf):
            raise TopicsError(f"priors must be finite with alpha >= 0 and "
                              f"beta > 0: alpha={alpha}, beta={beta}")
        h = int(h)
        self.h = h
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.vocab_size = vocab_size
        self.doc_ids = [list(ids) for ids in doc_ids]
        self.rng = np.random.default_rng(seed)

        self._n_dk = [[0.0] * h for _ in self.doc_ids]
        self._n_wk = [[0.0] * h for _ in range(vocab_size)]
        self._n_k = [0.0] * h
        self.assignments = []
        self.token_total = sum(len(ids) for ids in self.doc_ids)
        init = self.rng.integers(0, h, size=self.token_total).tolist()
        pos = 0
        for d, ids in enumerate(self.doc_ids):
            z_d = init[pos:pos + len(ids)]
            pos += len(ids)
            self.assignments.append(z_d)
            row = self._n_dk[d]
            for w, k in zip(ids, z_d):
                row[k] += 1.0
                self._n_wk[w][k] += 1.0
                self._n_k[k] += 1.0

    @property
    def n_k(self) -> np.ndarray:
        return np.array(self._n_k)

    def topic_word_array(self) -> np.ndarray:
        """(h, |V|) counts as an integer array."""
        if self.vocab_size == 0:
            return np.zeros((self.h, 0), dtype=np.int64)
        return np.rint(np.array(self._n_wk).T).astype(np.int64)

    def sweep(self) -> None:
        """One full Gibbs pass: resample every token's topic assignment."""
        _sweep_kernel(self.h)(
            self.doc_ids, self.assignments, self._n_dk, self._n_wk,
            self._n_k, self.rng.random(self.token_total).tolist(),
            self.alpha, self.beta, self.beta * self.vocab_size)

    def log_joint(self) -> float:
        """Collapsed log p(w, z) up to assignment-independent constants.

        Undefined at alpha = 0, where a doc-topic count of 0 hits the pole
        of lgamma; raises TopicsError there.
        """
        beta, alpha = self.beta, self.alpha
        if alpha == 0:
            raise TopicsError("the log joint is undefined at alpha = 0")
        out = 0.0
        for k in range(self.h):
            out += sum(lgamma(wrow[k] + beta) for wrow in self._n_wk)
            out -= lgamma(self._n_k[k] + beta * self.vocab_size)
        for d, ids in enumerate(self.doc_ids):
            out += sum(lgamma(c + alpha) for c in self._n_dk[d])
            out -= lgamma(len(ids) + alpha * self.h)
        return out


# One Gibbs sweep with the loops over topics unrolled for a fixed H. Token
# by token: unpack the doc, word and topic count rows into locals (d*, w*,
# n*), take one off the old topic k's locals, form the prefix sums c* of
# p_t = (n_dt + alpha) * (n_wt + beta) / (n_t + beta * |V|) starting from
# 0.0, and pick the first t with u * total <= c_t (the last topic if none;
# int(u * H) if total <= 0). Counts are integer-valued floats, so taking one
# off and adding it back is exact: the lists are written only when the
# topic changes.
_SWEEP_TEMPLATE = """\
def sweep(doc_ids, assignments, n_dk, n_wk, n_k, uniforms, alpha, beta,
          beta_v):
    pos = 0
    for ids, z_d, row in zip(doc_ids, assignments, n_dk):
        for j, w in enumerate(ids):
            k = z_d[j]
            wrow = n_wk[w]
            {doc_locals}, = row
            {word_locals}, = wrow
            {topic_locals}, = n_k
{unassign}
{prefix_sums}
            u = uniforms[pos]
            pos += 1
            if c{last} <= 0.0:
                new = int(u * {h})
            else:
                u *= c{last}
{pick}
            if new != k:
                z_d[j] = new
                row[k] -= 1.0
                wrow[k] -= 1.0
                n_k[k] -= 1.0
                row[new] += 1.0
                wrow[new] += 1.0
                n_k[new] += 1.0
"""


def _first_true(cond: str, then: str, lo: int, hi: int,
                indent: int) -> list[str]:
    """Source lines running `then` for the first t in [lo, hi) where `cond`
    holds, or for hi - 1 if it holds nowhere.

    cond and then are format strings in {t}; cond must be monotone in t
    (false, then true from some t on), so halving finds the first t and
    nests only log2(hi - lo) deep, which compiles for any H.
    """
    pad = " " * indent
    if hi - lo == 1:
        return [pad + then.format(t=lo)]
    mid = (lo + hi) // 2
    return ([f"{pad}if {cond.format(t=mid - 1)}:"]
            + _first_true(cond, then, lo, mid, indent + 4)
            + [f"{pad}else:"]
            + _first_true(cond, then, mid, hi, indent + 4))


@functools.lru_cache(maxsize=16)
def _sweep_kernel(h: int):
    """The sweep function for H topics, compiled once per H.

    Bit-identical to the loop over topics it unrolls (kept in the tests as
    the oracle): the same float expressions in the same order. The pick may
    halve instead of scanning because the prefix sums of the nonnegative
    p_t never decrease.
    """
    if type(h) is not int or h < 1:
        raise TopicsError(f"H must be an integer >= 1, got {h!r}")
    topics = range(h)
    terms = [f"(d{t} + alpha) * (w{t} + beta) / (n{t} + beta_v)"
             for t in topics]
    source = _SWEEP_TEMPLATE.format(
        h=h, last=h - 1,
        doc_locals=", ".join(f"d{t}" for t in topics),
        word_locals=", ".join(f"w{t}" for t in topics),
        topic_locals=", ".join(f"n{t}" for t in topics),
        unassign="\n".join(_first_true(
            "k <= {t}", "d{t} -= 1.0; w{t} -= 1.0; n{t} -= 1.0", 0, h, 12)),
        prefix_sums="\n".join(
            f"            c{t} = {f'c{t - 1}' if t else '0.0'} + {term}"
            for t, term in zip(topics, terms)),
        pick="\n".join(_first_true("u <= c{t}", "new = {t}", 0, h, 16)))
    namespace: dict = {}
    exec(compile(source, f"<cosd.topics sweep H={h}>", "exec"), namespace)
    return namespace["sweep"]


@dataclass
class LdaModel:
    h: int
    alpha: float
    beta: float
    vocab: Vocabulary
    topic_word_counts: np.ndarray  # (h, |V|) int64
    topic_totals: np.ndarray       # (h,) int64
    trained_sweeps: int
    # (sweeps done, GibbsLda.log_joint()) recorded by fit_lda; kept in the
    # JSON sidecar only, so a loaded model has none
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


# sweeps between the log-joint records fit_lda keeps for the sidecar
_LOG_JOINT_EVERY = 50


def fit_lda(docs: list[list[str]], h: int, alpha: float | None = None,
            beta: float = 0.01, sweeps: int = 500, seed: int = 0,
            vocab: Vocabulary | None = None,
            sweep_callback=None) -> LdaModel:
    """Fit one LDA model by collapsed Gibbs sampling.

    docs are token lists. With vocab=None the vocabulary is built from docs;
    passing a vocabulary lets several models share one (required inside a
    triple). alpha defaults to 50/H, beta to 0.01. Deterministic per seed.
    An empty doc list yields a prior-only model. sweep_callback, when given,
    is called as sweep_callback(sweep_index, topic_totals_copy) after every
    sweep (diagnostics only). The model's log_joint records the sampler's
    log joint every 50 sweeps and after the last; with
    alpha = 0 it is undefined (a doc-topic count of 0 hits the pole of
    lgamma) and nothing is recorded.
    """
    if h < 1:
        raise TopicsError(f"H must be >= 1, got {h}")
    if sweeps < 1:
        raise TopicsError(f"sweeps must be >= 1, got {sweeps}")
    if alpha is None:
        alpha = 50.0 / h
    if vocab is None:
        vocab = Vocabulary.from_docs(docs)
    sampler = GibbsLda(_doc_token_ids(docs, vocab), h, alpha, beta,
                       len(vocab), seed)
    log_joint = []
    for s in range(sweeps):
        sampler.sweep()
        if sweep_callback is not None:
            sweep_callback(s, sampler.n_k)
        done = s + 1
        if alpha > 0 and (done % _LOG_JOINT_EVERY == 0 or done == sweeps):
            log_joint.append((done, sampler.log_joint()))
    counts = sampler.topic_word_array()
    return LdaModel(
        h=h, alpha=float(alpha), beta=float(beta), vocab=vocab,
        topic_word_counts=counts, topic_totals=counts.sum(axis=1),
        trained_sweeps=sweeps, log_joint=log_joint,
    )


def fit_triple(favor_docs: list[list[str]], none_docs: list[list[str]],
               against_docs: list[list[str]], h: int,
               alpha: float | None = None, beta: float = 0.01,
               sweeps: int = 500, seed: int = 0) -> TopicModelTriple:
    """Fit the three per-stance models over one shared vocabulary."""
    vocab = Vocabulary.from_docs(favor_docs + none_docs + against_docs)
    favor, none, against = (
        fit_lda(docs, h, alpha, beta, sweeps, seed + offset, vocab=vocab)
        for offset, docs in enumerate((favor_docs, none_docs, against_docs))
    )
    return TopicModelTriple(favor=favor, none=none, against=against)


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
    Empty or fully out-of-vocabulary docs, and H = 1, give the uniform
    prior.
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
    if h == 1:
        return rows
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
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    # longest first (stable), so the docs still running at any token
    # position are a prefix of the batch
    live = np.flatnonzero(lengths)
    live = live[np.argsort(-lengths[live], kind="stable")].tolist()
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
    c = doc * M + model, so the chains alive at a position are a prefix of
    every per-chain array and each step works on slices. Counts and
    factors are topic-major, (H, chains), so a step is a few vector ops
    over the live chains.
    """
    n_models = alphas.shape[1]
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    n_docs, n_max = len(ids), int(lengths[0])
    n_chains = n_docs * n_models
    # (position, doc) counters: draw j of each doc, then the sweeps' draws
    counters = np.repeat(np.arange(n_max)[:, None], n_docs, axis=1)
    in_doc = counters < lengths
    alive = in_doc.sum(axis=1)

    tokens = np.zeros((n_docs, n_max), dtype=np.int64)
    tokens[in_doc.T] = np.concatenate(ids)
    tokens = tokens.T + offsets
    # initial topics from draws 0..n-1, shared by the doc's chains
    z = (_uniforms(keys, counters) * h).astype(np.int64)
    z = z.repeat(n_models, axis=1)
    # (position, topic, chain): the factor of the chain's token at that
    # position under the chain's model
    pos_factor = (factor[tokens].reshape(n_max, n_docs, n_models, h)
                  .transpose(0, 3, 1, 2).reshape(n_max, h, n_chains))
    alpha = alphas.reshape(-1)
    # local counts, addressed flat: chain c's count of topic k is at
    # k * n_chains + c, and z holds that flat index of each chain's topic
    local = np.zeros((h, n_chains))
    flat_local = local.reshape(-1)
    chains = np.arange(n_chains)
    z *= n_chains
    z += chains
    for j in range(n_max):
        flat_local[z[j, :alive[j] * n_models]] += 1.0

    for _ in range(sweeps):
        counters += lengths
        uniforms = _uniforms(keys, counters)
        for j in range(n_max):
            m_docs = alive[j]
            m = m_docs * n_models
            zj = z[j, :m]
            flat_local[zj] -= 1.0
            a = alpha[:m]
            f = pos_factor[j, :, :m]
            # prefix sums of (L_t + alpha) * f_t, added in the order of a
            # sequential cumsum
            prefix = [(local[0, :m] + a) * f[0]]
            for t in range(1, h):
                prefix.append(prefix[-1] + (local[t, :m] + a) * f[t])
            total = prefix[-1]
            u = uniforms[j, :m_docs].repeat(n_models)
            goal = u * total
            # the first t with goal <= prefix t, or H - 1 if none: the
            # prefix sums never decrease, so that is how many of the first
            # H - 1 fall short of goal
            k = (prefix[0] < goal).astype(np.int64)
            for t in range(1, h - 1):
                k += prefix[t] < goal
            if total.min() <= 0.0:
                flat = total <= 0.0
                k[flat] = (u[flat] * h).astype(np.int64)
            np.multiply(k, n_chains, out=zj)
            zj += chains[:m]
            flat_local[zj] += 1.0

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
