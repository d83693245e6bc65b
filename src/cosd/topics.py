"""Per-stance LDA topic models and the 3H-dim implicit-topic distribution.

Three LDA models (favor / none / against training subsets, shared vocabulary,
H topics each) are fit by collapsed Gibbs sampling. Any text, train or test,
is folded in under all three models with counts frozen; the three length-H
posteriors concatenated and divided by 3 give its topic distribution, which
later doubles as text-to-topic edge weights.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from math import lgamma
from pathlib import Path

import numpy as np

from .binfile import I64, Reader
from .corpus import Example, Vocabulary


class TopicsError(Exception):
    """Bad topic-model arguments or a corrupt model file."""


class GibbsLda:
    """Sequential collapsed Gibbs sampler over a fixed vocabulary.

    State lives in plain Python lists: at H <= 7 the per-token work is a
    handful of float ops, and array round-trips would dominate. Uniform
    draws are batched from one PCG64 stream per sampler, so runs are
    deterministic per seed.
    """

    def __init__(self, doc_ids: list[list[int]], h: int, alpha: float,
                 beta: float, vocab_size: int, seed: int):
        if h < 1:
            raise TopicsError(f"H must be >= 1, got {h}")
        if alpha < 0 or beta < 0:
            raise TopicsError(f"negative priors: alpha={alpha}, beta={beta}")
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
        h = self.h
        alpha, beta = self.alpha, self.beta
        beta_v = beta * self.vocab_size
        n_dk, n_wk, n_k = self._n_dk, self._n_wk, self._n_k
        uniforms = self.rng.random(self.token_total).tolist()
        probs = [0.0] * h
        pos = 0
        for d, ids in enumerate(self.doc_ids):
            z_d = self.assignments[d]
            row = n_dk[d]
            for j, w in enumerate(ids):
                k = z_d[j]
                wrow = n_wk[w]
                row[k] -= 1.0
                wrow[k] -= 1.0
                n_k[k] -= 1.0
                total = 0.0
                for t in range(h):
                    p = (row[t] + alpha) * (wrow[t] + beta) / (n_k[t] + beta_v)
                    probs[t] = p
                    total += p
                u = uniforms[pos]
                pos += 1
                if total <= 0.0:
                    k = int(u * h)
                else:
                    u *= total
                    acc = 0.0
                    for k in range(h):
                        acc += probs[k]
                        if u <= acc:
                            break
                z_d[j] = k
                row[k] += 1.0
                wrow[k] += 1.0
                n_k[k] += 1.0

    def log_joint(self) -> float:
        """Collapsed log p(w, z) up to assignment-independent constants."""
        beta, alpha = self.beta, self.alpha
        out = 0.0
        for k in range(self.h):
            out += sum(lgamma(wrow[k] + beta) for wrow in self._n_wk)
            out -= lgamma(self._n_k[k] + beta * self.vocab_size)
        for d, ids in enumerate(self.doc_ids):
            out += sum(lgamma(c + alpha) for c in self._n_dk[d])
            out -= lgamma(len(ids) + alpha * self.h)
        return out


@dataclass
class LdaModel:
    h: int
    alpha: float
    beta: float
    vocab: Vocabulary
    topic_word_counts: np.ndarray  # (h, |V|) int64
    topic_totals: np.ndarray       # (h,) int64
    trained_sweeps: int

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
    sweep (diagnostics only).
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
    for s in range(sweeps):
        sampler.sweep()
        if sweep_callback is not None:
            sweep_callback(s, sampler.n_k)
    counts = sampler.topic_word_array()
    return LdaModel(
        h=h, alpha=float(alpha), beta=float(beta), vocab=vocab,
        topic_word_counts=counts, topic_totals=counts.sum(axis=1),
        trained_sweeps=sweeps,
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


# docs per lockstep batch; bounds the padded factor and topic arrays
_FOLD_IN_BATCH = 1024
# uniforms held at once per batch (4 MB): they are drawn a few sweeps at a
# time, so memory does not grow with sweeps x the longest doc's length
_FOLD_IN_UNIFORMS = 1 << 19


def fold_in(models: Sequence[LdaModel], docs: Sequence[Sequence[str]],
            seeds: Sequence[int], sweeps: int = 50) -> np.ndarray:
    """Fold-in posteriors of every doc under every model, (D, len(models)*H).

    Row d holds the models' length-H posteriors side by side, each summing
    to 1. Topic-word counts stay frozen, so docs are independent: one
    collapsed Gibbs chain per (doc, model) pair, all stepped in lockstep,
    token position by token position. Doc d draws from one PCG64 stream
    seeded with seeds[d] (H-ary initial topics, then sweeps x n uniforms),
    shared by its chains under every model; the models must share H and
    vocabulary. Each chain's arithmetic is that of a one-chain sequential
    loop (a running sum over H, first topic whose prefix sum reaches u *
    total), so a doc's row does not depend on the rest of the batch.
    Empty or fully out-of-vocabulary docs, and H = 1, give the uniform prior.
    """
    if not models:
        raise TopicsError("fold-in needs at least one model")
    first = models[0]
    if any(m.h != first.h or m.vocab.tokens != first.vocab.tokens
           for m in models[1:]):
        raise TopicsError("fold-in models disagree on H or vocabulary")
    if len(seeds) != len(docs):
        raise TopicsError(f"{len(seeds)} seeds for {len(docs)} docs")
    h = first.h
    out = np.full((len(docs), len(models) * h), 1.0 / h)
    ids = _doc_token_ids(docs, first.vocab)
    live = [d for d in range(len(docs)) if ids[d]]
    if h == 1 or not live:
        return out
    # factor[w] = the word's frozen conditional factor under each model, H
    # values per model side by side; alpha per model, broadcast per chain
    factor = np.concatenate(
        [((m.topic_word_counts + m.beta)
          / (m.topic_totals + m.beta * len(m.vocab))[:, None]).T
         for m in models], axis=1)
    alphas = np.array([m.alpha for m in models])
    # longest first (stable), so the docs still running at any token
    # position are a prefix of the batch
    live.sort(key=lambda d: -len(ids[d]))
    for at in range(0, len(live), _FOLD_IN_BATCH):
        batch = live[at:at + _FOLD_IN_BATCH]
        out[batch] = _lockstep([ids[d] for d in batch],
                               [seeds[d] for d in batch], factor, alphas, h,
                               sweeps)
    return out


def _lockstep(ids: list[list[int]], seeds: list[int], factor: np.ndarray,
              alphas: np.ndarray, h: int, sweeps: int) -> np.ndarray:
    """fold_in over nonempty docs sorted longest first; (D, M*H).

    Chain c = doc * M + model, so the chains alive at a position are a
    prefix of every per-chain array and each step works on slices.
    """
    n_models = len(alphas)
    lengths = np.array([len(doc) for doc in ids])
    n_docs, n_max = len(ids), int(lengths[0])
    n_chains = n_docs * n_models
    alive = (lengths[None, :] > np.arange(n_max)[:, None]).sum(axis=1)

    words = np.zeros((n_max, n_docs), dtype=np.int64)
    z = np.zeros((n_max, n_chains), dtype=np.int64)
    rngs = []
    for d, (doc, seed) in enumerate(zip(ids, seeds)):
        n = len(doc)
        rng = np.random.default_rng(seed)
        words[:n, d] = doc
        z[:n, d * n_models:(d + 1) * n_models] = (
            rng.integers(0, h, size=n)[:, None])
        rngs.append(rng)
    # sweeps s..s+chunk-1 of doc d; successive random() calls continue the
    # doc's stream, so the values are those of one random(sweeps * n)
    chunk = max(1, min(sweeps, _FOLD_IN_UNIFORMS // (n_max * n_docs)))
    uniforms = np.zeros((chunk, n_max, n_docs))
    # (position, doc, M*H): row j of a doc's block is that token's factor
    pos_factor = factor[words]
    alpha = np.tile(alphas, n_docs)[:, None]
    # local counts, addressed flat: chain c's count of topic k is at c*H + k
    local = np.zeros((n_chains, h))
    flat_local = local.reshape(-1)
    base = np.arange(n_chains) * h
    for j in range(n_max):
        m = alive[j] * n_models
        flat_local[base[:m] + z[j, :m]] += 1.0

    for s in range(sweeps):
        c = s % chunk
        if c == 0:
            todo = min(chunk, sweeps - s)
            for d, (doc, rng) in enumerate(zip(ids, rngs)):
                n = len(doc)
                uniforms[:todo, :n, d] = rng.random(todo * n).reshape(todo, n)
        for j in range(n_max):
            m_docs = alive[j]
            m = m_docs * n_models
            flat_local[base[:m] + z[j, :m]] -= 1.0
            p = local[:m] + alpha[:m]
            p *= pos_factor[j, :m_docs].reshape(m, h)
            acc = np.cumsum(p, axis=1, out=p)
            total = acc[:, -1]
            u = uniforms[c, j, :m_docs].repeat(n_models)
            reached = acc >= (u * total)[:, None]
            reached[:, -1] = True
            k = reached.argmax(axis=1)
            flat = total <= 0.0
            if flat.any():
                k[flat] = (u[flat] * h).astype(np.int64)
            z[j, :m] = k
            flat_local[base[:m] + k] += 1.0

    post = (local + alpha) / (lengths.repeat(n_models)[:, None] + h * alpha)
    return post.reshape(n_docs, n_models * h)


def perplexity(model: LdaModel, docs: list[list[str]], sweeps: int = 50,
               seed: int = 0) -> float:
    """exp(-mean log p(w|d)) with p(w|d) = sum_h theta_dh phi_hw.

    theta comes from fold-in (doc i seeded seed + i), phi from the smoothed
    trained counts. Docs with no in-vocabulary tokens are skipped; raises if
    nothing is left.
    """
    phi = model.phi()
    thetas = fold_in([model], docs, [seed + i for i in range(len(docs))],
                     sweeps=sweeps)
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
# A JSON sidecar (<path>.json) lists the top-10 words per topic.

_LDA_MAGIC = b"LDA1"


def save_lda(model: LdaModel, path: str | Path, sidecar: bool = True) -> None:
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
    if sidecar:
        doc = {
            "h": model.h, "alpha": model.alpha, "beta": model.beta,
            "trained_sweeps": model.trained_sweeps,
            "top_words": model.top_words(10),
        }
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_lda(path: str | Path) -> LdaModel:
    with Reader(path, TopicsError, _LDA_MAGIC) as src:
        h, v = src.unpack("<II")
        alpha, beta = src.unpack("<dd")
        (sweeps,) = src.unpack("<I")
        counts = src.array(I64, h * v).reshape(h, v).astype(np.int64)
        tokens = []
        freqs = []
        for _ in range(v):
            tokens.append(src.text(src.u32()))
            freqs.append(src.u32())
        src.finish()
    vocab = Vocabulary(tokens=tokens,
                       index={t: i for i, t in enumerate(tokens)},
                       doc_freq=freqs)
    return LdaModel(h=h, alpha=alpha, beta=beta, vocab=vocab,
                    topic_word_counts=counts, topic_totals=counts.sum(axis=1),
                    trained_sweeps=sweeps)


def token_docs(examples: list[Example]) -> list[list[str]]:
    """Token lists for a list of examples (LDA input shape)."""
    return [list(ex.tokens) for ex in examples]
