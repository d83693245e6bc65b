"""Topic model tests: sampler invariants, fold-in, scores, serialization.

Hand-computed oracles cover coherence and the single-topic perplexity case;
the planted-corpus recovery check runs a reduced version of the acceptance
setup so regressions surface here first. The lockstep sampler must equal,
bit for bit, the plain loops kept here as oracles: when fitting
(lockstep_loop, one doc at a time within each position step) and when
folding in (doc_topic_posterior, one doc under one model). The sequential
sampler it replaced (SequentialLda, loop_sweep) stays as the statistical
reference for topic recovery.
"""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import greedy_match_tv, planted_corpus
from cosd.corpus import Vocabulary
import cosd.topics
from cosd.topics import (
    LdaModel,
    TopicModelTriple,
    TopicsError,
    fit_lda,
    fit_triple,
    fold_in,
    fold_in_sets,
    load_lda,
    perplexity,
    save_lda,
    umass_coherence,
)


def _model(counts, vocab_tokens, alpha=0.5, beta=0.01, sweeps=10):
    counts = np.asarray(counts, dtype=np.int64)
    vocab = Vocabulary(tokens=list(vocab_tokens),
                       index={t: i for i, t in enumerate(vocab_tokens)},
                       doc_freq=[1] * len(vocab_tokens))
    return LdaModel(h=counts.shape[0], alpha=alpha, beta=beta, vocab=vocab,
                    topic_word_counts=counts,
                    topic_totals=counts.sum(axis=1), trained_sweeps=sweeps)


# --- sampler ---------------------------------------------------------------


class SequentialLda:
    """Reference: the sequential collapsed Gibbs sampler, state in plain
    lists of integer-valued floats, uniforms from one PCG64 stream. Each
    token sees every earlier token's new topic, so it is the statistical
    reference the lockstep fit is compared against."""

    def __init__(self, doc_ids, h, alpha, beta, vocab_size, seed):
        self.h, self.alpha, self.beta = h, alpha, beta
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
            for w, k in zip(ids, z_d):
                self._n_dk[d][k] += 1.0
                self._n_wk[w][k] += 1.0
                self._n_k[k] += 1.0

    def counts(self) -> np.ndarray:
        return np.rint(np.array(self._n_wk).T).astype(np.int64)


def loop_sweep(self: SequentialLda) -> None:
    """One sequential Gibbs pass as a loop over topics per token."""
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


def scalar_log_joint(n_wk, n_k, rows, lengths, alpha, beta):
    """The collapsed log joint of one model by the scalar formula."""
    h, v = len(n_k), len(n_wk)
    out = 0.0
    for t in range(h):
        out += sum(math.lgamma(n_wk[w][t] + beta) for w in range(v))
        out -= math.lgamma(n_k[t] + beta * v)
    for row, n in zip(rows, lengths):
        out += sum(math.lgamma(c + alpha) for c in row)
        out -= math.lgamma(n + alpha * h)
    return out


def lockstep_loop(doc_sets, v, h, alpha, beta, seeds, sweeps):
    """Oracle: the lockstep fit as plain loops, one doc at a time within
    each position step.

    doc_sets holds each model's docs as word ids. Doc i of model m draws
    from the counter hash keyed by the finalizer over (the key of
    seeds[m]) + i. A doc reads its own counts as they are and its model's
    word and topic counts as they stood after the previous step; the moves
    of a step are applied once every doc has drawn. Returns per model the
    (H, v) counts and the log joint at sweep 0, every 50 sweeps and after
    the last (none at alpha = 0 or v = 0), and the number of exact ties
    (u * total equal to the picked prefix sum) and of flat draws (total 0).
    """
    docs = []  # (model, word ids, draws)
    for m, (seed, set_docs) in enumerate(zip(seeds, doc_sets)):
        key = cosd.topics._keys([seed])
        for i, ids in enumerate(set_docs):
            if ids:
                doc_key = cosd.topics._mix64(
                    key + np.array([i], dtype=np.uint64))
                docs.append((m, ids, cosd.topics._uniforms(
                    doc_key, np.arange(len(ids) * (sweeps + 1))).tolist()))
    n_wk = [[[0.0] * h for _ in range(v)] for _ in doc_sets]
    n_k = [[0.0] * h for _ in doc_sets]
    z, n_dk = [], []
    for m, ids, draws in docs:
        z.append([int(u * h) for u in draws[:len(ids)]])
        n_dk.append([0.0] * h)
        for w, k in zip(ids, z[-1]):
            n_dk[-1][k] += 1.0
            n_wk[m][w][k] += 1.0
            n_k[m][k] += 1.0

    records = [[] for _ in doc_sets]

    def record(done):
        if alpha > 0 and v > 0:
            for m in range(len(doc_sets)):
                mine = [i for i, doc in enumerate(docs) if doc[0] == m]
                records[m].append((done, scalar_log_joint(
                    n_wk[m], n_k[m], [n_dk[i] for i in mine],
                    [len(docs[i][1]) for i in mine], alpha, beta)))

    record(0)
    ties = flats = 0
    n_max = max((len(ids) for _, ids, _ in docs), default=0)
    for s in range(sweeps):
        for j in range(n_max):
            moves = []
            for (m, ids, draws), z_d, row in zip(docs, z, n_dk):
                if j >= len(ids):
                    continue
                w, k = ids[j], z_d[j]
                row[k] -= 1.0
                prefix, acc = [], 0.0
                for t in range(h):
                    own = 1.0 if t == k else 0.0
                    factor = ((n_wk[m][w][t] - own + beta)
                              / (n_k[m][t] - own + beta * v))
                    acc += (row[t] + alpha) * factor
                    prefix.append(acc)
                u = draws[len(ids) * (s + 1) + j]
                if acc <= 0.0:
                    new = int(u * h)
                    flats += 1
                else:
                    goal = u * acc
                    new = next((t for t in range(h) if goal <= prefix[t]),
                               h - 1)
                    ties += goal == prefix[new]
                z_d[j] = new
                row[new] += 1.0
                moves.append((m, w, k, new))
            for m, w, old, new in moves:
                n_wk[m][w][old] -= 1.0
                n_wk[m][w][new] += 1.0
                n_k[m][old] -= 1.0
                n_k[m][new] += 1.0
        if (s + 1) % 50 == 0 or s + 1 == sweeps:
            record(s + 1)
    counts = [np.rint(np.array(table).reshape(v, h).T).astype(np.int64)
              for table in n_wk]
    return counts, records, ties, flats


def _vocab(v: int) -> Vocabulary:
    tokens = [f"w{i}" for i in range(v)]
    return Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)},
                      doc_freq=[1] * v)


def _token_docs(docs):
    """Word ids as tokens of _vocab; -1 is a word outside it."""
    return [[f"w{w}" if w >= 0 else "zzz" for w in doc] for doc in docs]


def _kernel_corpora(h: int):
    """(docs as word ids, vocabulary size, alpha, beta) cases; -1 is a word
    outside the vocabulary."""
    rng = np.random.default_rng(h)
    mixed = [rng.integers(0, 12, size=int(n)).tolist()
             for n in rng.integers(0, 14, size=25)]
    return [
        (mixed + [[-1, -1], [-1, 4, -1, 7]], 12, 50.0 / h, 0.01),
        # alpha = 0: one-token docs have an all-zero conditional, so the
        # flat int(u * H) branch runs
        (mixed + [[3], [5], [3]], 12, 0.0, 0.01),
        (mixed, 12, 1e-12, 1e-12),
        ([[], [0], [], [1, 1, 1, 1, 1, 1], [2] * 9 + [0]], 3, 0.1, 0.5),
        ([[w] for w in range(8)] + [[]], 8, 0.01, 1e-9),
        # many docs hold word 0 at position 0 and share words further on:
        # the step's count moves must add up over repeated indices
        ([[0, 1, 2], [0, 1, 0], [0, 2, 1], [0], [0, 0, 0, 1]] * 3, 3, 0.5,
         0.25),
        ([], 5, 0.5, 0.01),
        ([[], [-1]], 0, 0.5, 0.01),
    ]


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7, 8, 33])
@pytest.mark.parametrize("dyadic", [False, True])
def test_sweep_kernel_equals_loop_oracle(monkeypatch, h, dyadic):
    # the lockstep fit's sweeps against lockstep_loop, count for count
    if dyadic:
        # uniforms in {0, 1/4, 1/2, 3/4}: u * total often equals a prefix
        # sum exactly, so the tie rule (first t with u * total <= prefix)
        # decides; the fit and the oracle both draw through _uniforms
        real_uniforms = cosd.topics._uniforms
        monkeypatch.setattr(cosd.topics, "_uniforms", lambda keys, counters:
                            np.floor(real_uniforms(keys, counters) * 4) / 4)
    ties = flats = 0
    for case, (docs, v, alpha, beta) in enumerate(_kernel_corpora(h)):
        model = fit_lda(_token_docs(docs), h, alpha, beta, sweeps=12,
                        seed=case, vocab=_vocab(v))
        (counts,), (records,), case_ties, case_flats = lockstep_loop(
            [[[w for w in doc if w >= 0] for doc in docs]], v, h, alpha,
            beta, [case], 12)
        assert np.array_equal(model.topic_word_counts, counts), case
        assert [s for s, _ in model.log_joint] == [s for s, _ in records[1:]]
        for (_, got), (_, want) in zip(model.log_joint, records[1:]):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        ties += case_ties
        flats += case_flats
    assert flats > 0
    if dyadic and h > 1:
        assert ties > 0


def test_fit_triple_counts_equal_loop_oracle():
    docs, _ = planted_corpus(n_docs=45, seed=30)
    sets = (docs[:15], docs[15:30], docs[30:])
    got = fit_triple(*sets, h=4, sweeps=60, seed=8)
    index = got.favor.vocab.index
    counts, records, _, _ = lockstep_loop(
        [[[index[t] for t in doc] for doc in set_docs] for set_docs in sets],
        len(index), 4, 50.0 / 4, 0.01, [8, 9, 10], 60)
    for model, want, trace in zip(got.models, counts, records):
        assert np.array_equal(model.topic_word_counts, want)
        assert np.array_equal(model.topic_totals, want.sum(axis=1))
        assert [s for s, _ in model.log_joint] == [50, 60]
        for (_, value), (_, oracle) in zip(model.log_joint, trace[1:]):
            assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)
    # the models share no counts: each is its own one-model fit
    for offset, (model, set_docs) in enumerate(zip(got.models, sets)):
        alone = fit_lda(set_docs, 4, sweeps=60, seed=8 + offset,
                        vocab=model.vocab)
        assert np.array_equal(alone.topic_word_counts,
                              model.topic_word_counts)
        assert alone.log_joint == model.log_joint


def test_fit_rejects_a_seed_outside_64_bits():
    docs = [["a", "b"], ["b"]]
    for bad in (-1, 2**64, 1.5):
        with pytest.raises(TopicsError, match="seeds must be integers"):
            fit_lda(docs, h=2, sweeps=1, seed=bad)
    with pytest.raises(TopicsError, match="seeds must be integers"):
        fit_triple(docs, docs, docs, h=2, sweeps=1, seed=2**64 - 2)


def test_lockstep_recovers_planted_topics_like_the_sequential_sampler():
    # either sampler lands now and then in a mode that merges two planted
    # topics (max TV near 0.19) whatever its correctness, so each corpus
    # compares the best of three chains per sampler, same fit seeds
    for corpus_seed in (7, 1, 2):
        docs, phi_true = planted_corpus(n_topics=3, n_docs=120,
                                        vocab_size=30, seed=corpus_seed,
                                        doc_len=(12, 25))
        lockstep, reference = [], []
        for seed in (11, 12, 13):
            model = fit_lda(docs, h=3, sweeps=150, seed=seed)
            lockstep.append(max(greedy_match_tv(model.phi(), phi_true)))
            vocab = model.vocab
            chain = SequentialLda([[vocab.index[t] for t in doc]
                                   for doc in docs], 3, 50.0 / 3, 0.01,
                                  len(vocab), seed)
            for _ in range(150):
                loop_sweep(chain)
            counts = chain.counts()
            phi = LdaModel(h=3, alpha=50.0 / 3, beta=0.01, vocab=vocab,
                           topic_word_counts=counts,
                           topic_totals=counts.sum(axis=1),
                           trained_sweeps=150).phi()
            reference.append(max(greedy_match_tv(phi, phi_true)))
        assert min(lockstep) <= min(reference) + 0.02, corpus_seed


def test_sampler_conserves_counts_every_sweep():
    docs, _ = planted_corpus(n_docs=40, seed=3)
    total = sum(len(d) for d in docs)
    seen = []
    model = fit_lda(docs, h=3, sweeps=5, seed=1,
                    sweep_callback=lambda s, n_k: seen.append((s, n_k.copy())))
    assert [s for s, _ in seen] == [0, 1, 2, 3, 4]
    for _, n_k in seen:
        assert n_k.sum() == total
        assert (n_k >= 0).all()
    assert model.topic_totals.sum() == total
    assert (model.topic_word_counts >= 0).all()


def test_sampler_improves_log_joint_on_structured_corpus():
    docs, _ = planted_corpus(n_docs=60, seed=4)
    # one fit's first sweep is the whole of a one-sweep fit of the same seed
    ((_, after_one),) = fit_lda(docs, h=3, sweeps=1, seed=2).log_joint
    ((_, after_30),) = fit_lda(docs, h=3, sweeps=30, seed=2).log_joint
    assert after_30 > after_one


def test_fit_lda_deterministic_per_seed():
    docs, _ = planted_corpus(n_docs=30, seed=5)
    a = fit_lda(docs, h=3, sweeps=20, seed=9)
    b = fit_lda(docs, h=3, sweeps=20, seed=9)
    c = fit_lda(docs, h=3, sweeps=20, seed=10)
    assert np.array_equal(a.topic_word_counts, b.topic_word_counts)
    assert not np.array_equal(a.topic_word_counts, c.topic_word_counts)


def test_fit_lda_default_alpha_is_50_over_h():
    docs, _ = planted_corpus(n_docs=12, seed=6)
    m = fit_lda(docs, h=4, sweeps=2, seed=0)
    assert m.alpha == pytest.approx(50.0 / 4)


def test_fit_lda_recovers_planted_topics_reduced():
    docs, phi_true = planted_corpus(n_topics=3, n_docs=120, vocab_size=30,
                                    seed=7, doc_len=(12, 25))
    model = fit_lda(docs, h=3, sweeps=150, seed=11)
    # fit_lda sorts the vocabulary, which matches the wNN naming order
    assert model.vocab.tokens == [f"w{i:02d}" for i in range(30)]
    tv = greedy_match_tv(model.phi(), phi_true)
    assert max(tv) <= 0.2


def test_fit_lda_rejects_bad_arguments():
    with pytest.raises(TopicsError):
        fit_lda([["a", "b"]], h=0)
    with pytest.raises(TopicsError):
        fit_lda([["a", "b"]], h=2, sweeps=0)
    with pytest.raises(TopicsError):
        fit_lda([["a", "b"]], h=2, alpha=-1.0)
    with pytest.raises(TopicsError):
        fit_lda([["a", "b"]], h=2.5)
    for alpha, beta in ((float("nan"), 0.01), (0.5, float("inf"))):
        with pytest.raises(TopicsError, match="finite"):
            fit_lda([["a", "b"]], h=2, alpha=alpha, beta=beta)


def test_fit_lda_rejects_zero_beta():
    # beta = 0 would divide by n_k + 0 once a topic empties; fold-in under
    # an existing beta = 0 model stays allowed (see the flat-branch test)
    docs, _ = planted_corpus(n_docs=9, seed=2)
    for beta in (0.0, -0.01):
        with pytest.raises(TopicsError, match="beta > 0"):
            fit_lda(docs, h=7, alpha=0.01, beta=beta, sweeps=50)


def test_fit_lda_with_explicit_vocab_drops_unknown_tokens():
    vocab = Vocabulary.from_docs([["alpha", "beta"]])
    m = fit_lda([["gamma", "delta"]], h=2, sweeps=3, seed=0, vocab=vocab)
    assert m.topic_word_counts.sum() == 0
    theta = fold_in([m], [["gamma"]], [0], sweeps=5)[0]
    assert np.allclose(theta, [0.5, 0.5])


# --- model dataclasses ------------------------------------------------------


def test_lda_model_validates_counts():
    vocab = Vocabulary.from_docs([["a", "b"]])
    good = np.array([[2, 1], [0, 3]], dtype=np.int64)
    with pytest.raises(TopicsError):
        LdaModel(h=2, alpha=0.1, beta=0.01, vocab=vocab,
                 topic_word_counts=good, topic_totals=np.array([3, 4]),
                 trained_sweeps=1)
    with pytest.raises(TopicsError):
        LdaModel(h=3, alpha=0.1, beta=0.01, vocab=vocab,
                 topic_word_counts=good, topic_totals=good.sum(axis=1),
                 trained_sweeps=1)
    with pytest.raises(TopicsError):
        LdaModel(h=2, alpha=0.1, beta=0.01, vocab=vocab,
                 topic_word_counts=np.array([[2, -1], [0, 3]]),
                 topic_totals=np.array([1, 3]), trained_sweeps=1)


def test_phi_rows_are_distributions():
    m = _model([[3, 1, 0], [0, 0, 4]], ["a", "b", "c"], beta=0.5)
    phi = m.phi()
    assert phi.shape == (2, 3)
    assert np.allclose(phi.sum(axis=1), 1.0)
    assert np.allclose(phi[0], [3.5 / 5.5, 1.5 / 5.5, 0.5 / 5.5])


def test_top_words_orders_by_phi_with_stable_ties():
    m = _model([[5, 5, 1]], ["apple", "banana", "cherry"])
    assert m.top_words(2) == [["apple", "banana"]]
    assert m.top_words(10) == [["apple", "banana", "cherry"]]


def test_triple_requires_shared_h_and_vocab():
    a = _model([[3, 1]], ["a", "b"])
    b = _model([[1, 3]], ["a", "b"])
    mismatched_h = _model([[1, 1], [2, 2]], ["a", "b"])
    other_vocab = _model([[1, 3]], ["a", "c"])
    TopicModelTriple(favor=a, none=b, against=a)  # shared H and vocab: fine
    with pytest.raises(TopicsError):
        TopicModelTriple(favor=a, none=mismatched_h, against=b)
    with pytest.raises(TopicsError):
        TopicModelTriple(favor=a, none=other_vocab, against=b)


def test_fit_triple_builds_union_vocab_and_distinct_models():
    favor = [["apple", "pie"], ["apple", "tart"]]
    none = [["neutral", "words"], ["plain", "words"]]
    against = [["sour", "grapes"], ["sour", "mash"]]
    triple = fit_triple(favor, none, against, h=2, sweeps=10, seed=3)
    union = sorted({t for d in favor + none + against for t in d})
    for m in triple.models:
        assert m.vocab.tokens == union
    assert triple.h == 2
    # seeds differ per stance, so the count tables should not all coincide
    tables = [m.topic_word_counts for m in triple.models]
    assert not (np.array_equal(tables[0], tables[1])
                and np.array_equal(tables[1], tables[2]))


# --- fold-in ----------------------------------------------------------------


def doc_topic_posterior(model: LdaModel, tokens, sweeps: int = 50,
                        seed: int = 0) -> np.ndarray:
    """Oracle: the scalar one-doc, one-model fold-in sampler.

    Topic-word counts stay frozen; only the doc-local topic counts move.
    Empty or fully out-of-vocabulary docs return the uniform prior.
    """
    index = model.vocab.index
    ids = [index[t] for t in tokens if t in index]
    h = model.h
    if len(ids) == 0 or h == 1:
        return np.full(h, 1.0 / h)
    # the doc's draws: counters 0..n-1 for the initial topics, then n per
    # sweep
    n = len(ids)
    draws = cosd.topics._uniforms(cosd.topics._keys([seed]),
                                  np.arange(n * (sweeps + 1)))
    alpha = model.alpha
    denom = model.topic_totals + model.beta * len(model.vocab)
    # counts are frozen, so the word factor of the conditional is a constant
    # per distinct word; precompute it once per token position
    factor = {}
    for w in set(ids):
        factor[w] = ((model.topic_word_counts[:, w] + model.beta)
                     / denom).tolist()
    pos_factor = [factor[w] for w in ids]
    z = [int(u * h) for u in draws[:n]]
    local = [0.0] * h
    for k in z:
        local[k] += 1.0
    uniforms = draws[n:].tolist()
    probs = [0.0] * h
    pos = 0
    for _ in range(sweeps):
        for j, fw in enumerate(pos_factor):
            local[z[j]] -= 1.0
            total = 0.0
            for t in range(h):
                p = (local[t] + alpha) * fw[t]
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
            z[j] = k
            local[k] += 1.0
    return (np.array(local) + alpha) / (len(ids) + h * alpha)


def _oracle_rows(models, docs, seeds, sweeps):
    return np.stack([
        np.concatenate([doc_topic_posterior(m, doc, sweeps=sweeps, seed=seed)
                        for m in models])
        for doc, seed in zip(docs, seeds)])


def _mixed_docs(docs):
    """Planted docs of mixed lengths plus empty, all-OOV and part-OOV docs."""
    return ([docs[0][:3], [], docs[1], ["zzz", "qqq"], docs[2][:1],
             ["zzz"] + docs[3][:5]] + docs[4:12])


def test_posterior_sums_to_one_and_is_seed_deterministic():
    docs, _ = planted_corpus(n_docs=40, seed=8)
    m = fit_lda(docs, h=3, sweeps=30, seed=1)
    theta = fold_in([m], docs[:5], list(range(5)), sweeps=20)
    again = fold_in([m], docs[:5], list(range(5)), sweeps=20)
    assert theta.shape == (5, 3)
    assert np.allclose(theta.sum(axis=1), 1.0)
    assert (theta > 0).all()
    assert np.array_equal(theta, again)


def test_posterior_uniform_for_empty_oov_and_single_topic():
    m = _model([[3, 1], [1, 3]], ["a", "b"])
    assert np.allclose(fold_in([m], [[], ["zzz"]], [0, 0]), 0.5)
    single = _model([[3, 1]], ["a", "b"])
    assert np.allclose(fold_in([single], [["a", "b"]], [0]), [[1.0]])
    assert fold_in([m], [], []).shape == (0, 2)


def test_posterior_concentrates_on_matching_topic():
    # topic 0 emits only "a", topic 1 only "b"; a pure-"a" doc should land
    # almost all of its mass on topic 0 despite the smoothing prior
    m = _model([[100, 0], [0, 100]], ["a", "b"], alpha=0.1)
    theta = fold_in([m], [["a"] * 6], [0], sweeps=30)[0]
    assert theta[0] > 0.9


def test_dis_vector_concatenates_thirds():
    docs, _ = planted_corpus(n_docs=30, seed=9)
    split = len(docs) // 3
    triple = fit_triple(docs[:split], docs[split:2 * split],
                        docs[2 * split:], h=2, sweeps=15, seed=4)
    rows = fold_in(triple.models, docs[:2], [5, 6], sweeps=10)
    assert rows.shape == (2, 6)
    # one posterior per model side by side, each a distribution
    assert np.allclose(rows.reshape(2, 3, 2).sum(axis=2), 1.0)


@pytest.mark.parametrize("h", [1, 2, 3, 5, 7])
def test_fold_in_equals_scalar_oracle(h):
    docs, _ = planted_corpus(n_docs=30, seed=20 + h)
    split = len(docs) // 3
    triple = fit_triple(docs[:split], docs[split:2 * split],
                        docs[2 * split:], h=h, sweeps=10, seed=h)
    batch = _mixed_docs(docs)
    seeds = [100 + 7 * i for i in range(len(batch))]
    got = fold_in(triple.models, batch, seeds, sweeps=6)
    assert got.shape == (len(batch), 3 * h)
    assert np.array_equal(got, _oracle_rows(triple.models, batch, seeds, 6))
    one = fold_in([triple.none], batch, seeds, sweeps=6)
    assert np.array_equal(one, _oracle_rows([triple.none], batch, seeds, 6))


def test_fold_in_zero_beta_unseen_word_takes_flat_branch():
    # beta = 0: "c" has zero count under every topic of the first model, so
    # its conditional is all zeros and the sampler draws int(u * H); the
    # models' priors differ, so each chain must use its own model's alpha
    vocab = ["a", "b", "c"]
    models = [_model([[4, 1, 0], [1, 4, 0], [2, 2, 0]], vocab, beta=0.0),
              _model([[4, 1, 1], [1, 4, 2], [2, 2, 3]], vocab, alpha=2.0,
                     beta=0.0)]
    docs = [["c", "c", "a"], ["c"], ["a", "b", "c", "c", "b"], ["b"]]
    seeds = [3, 1, 4, 1]
    got = fold_in(models, docs, seeds, sweeps=8)
    assert np.array_equal(got, _oracle_rows(models, docs, seeds, 8))


def _dyadic_model(rng, h: int, vocab: list[str], alpha: float) -> LdaModel:
    """beta = 0 model whose word factors count / total are dyadic: a last
    word pads every topic's total up to a power of two."""
    counts = rng.integers(0, 4, size=(h, len(vocab) - 1))
    totals = counts.sum(axis=1)
    pad = 2 ** np.ceil(np.log2(totals + 1)).astype(np.int64) - totals
    return _model(np.column_stack([counts, pad]), vocab, alpha=alpha,
                  beta=0.0)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_fold_in_tie_rule_equals_scalar_oracle(monkeypatch, h):
    # exact dyadic arithmetic with uniforms in {0, 1/4, 1/2, 3/4}: u * total
    # often equals a prefix sum exactly, so the first topic whose prefix sum
    # reaches u * total must be picked, as the oracle's u <= acc does; the
    # oracle and the lockstep both draw through _uniforms
    real_uniforms = cosd.topics._uniforms
    monkeypatch.setattr(cosd.topics, "_uniforms", lambda keys, counters:
                        np.floor(real_uniforms(keys, counters) * 4) / 4)
    rng = np.random.default_rng(h)
    vocab = [f"w{i}" for i in range(6)]
    models = [_dyadic_model(rng, h, vocab, alpha)
              for alpha in (0.5, 1.0, 0.25)]
    docs = [[vocab[i] for i in rng.integers(0, len(vocab), size=n)]
            for n in rng.integers(1, 10, size=24)]
    seeds = list(range(len(docs)))
    got = fold_in(models, docs, seeds, sweeps=6)
    assert np.array_equal(got, _oracle_rows(models, docs, seeds, 6))


# seeds of one and two 32-bit words, up to the largest, 2**64 - 1
_SEEDS = [0, 1, 17, 2**32 - 1, 2**32 + 5, 2**63 + 9, 2**64 - 1]


# splitmix64 from state 1234567: output k is the finalizer over the state
# advanced k times by gamma
_SPLITMIX64 = [6457827717110365317, 3203168211198807973, 9817491932198370423,
               4593380528125082431, 16408922859458223821]


def test_mix64_gives_the_splitmix64_reference_outputs():
    gamma = 0x9E3779B97F4A7C15
    states = np.array([(1234567 + k * gamma) % 2**64 for k in range(1, 6)],
                      dtype=np.uint64)
    assert cosd.topics._mix64(states).tolist() == _SPLITMIX64


def test_uniforms_are_uniform_and_uncorrelated():
    keys = cosd.topics._keys(np.arange(1000) + 2024)
    u = cosd.topics._uniforms(keys[:, None], np.arange(1000))
    assert u.shape == (1000, 1000)
    assert 0.0 <= u.min() and u.max() < 1.0
    # chi-square over 64 equal bins against its 0.999 quantile at 63 degrees
    # of freedom
    counts = np.bincount((u * 64).astype(np.int64).ravel(), minlength=64)
    expected = u.size / 64
    assert ((counts - expected) ** 2 / expected).sum() < 103.4
    # lag 1 within a doc, and adjacent keys at the same counter
    for a, b in ((u[:, :-1], u[:, 1:]), (u[:-1], u[1:])):
        assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.01
    # the finalizer maps 0 to 0; the counter's + 1 keeps seed 0 off it
    assert cosd.topics._uniforms(cosd.topics._keys([0]), np.arange(1))[0] > 0


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
def test_fold_in_rejects_a_seed_outside_64_bits(bad):
    m = _model([[3, 1], [1, 3]], ["a", "b"])
    single = _model([[3, 1]], ["a", "b"])
    for model in (m, single):  # checked before any draw, even at H = 1
        with pytest.raises(TopicsError, match="seeds must be integers"):
            fold_in([model], [["a"], ["b"]], [3, bad])


def test_fold_in_seeds_of_any_width_equal_scalar_oracle():
    docs, _ = planted_corpus(n_docs=30, seed=14)
    split = len(docs) // 3
    triple = fit_triple(docs[:split], docs[split:2 * split],
                        docs[2 * split:], h=3, sweeps=10, seed=6)
    batch = docs[:len(_SEEDS)]
    got = fold_in(triple.models, batch, _SEEDS, sweeps=4)
    assert np.array_equal(got, _oracle_rows(triple.models, batch, _SEEDS, 4))
    # a uint64 column, as training passes them, gives the same rows
    column = np.array(_SEEDS, dtype=np.uint64)
    assert np.array_equal(fold_in(triple.models, batch, column, sweeps=4),
                          got)


def test_fold_in_rows_independent_of_batch(monkeypatch):
    docs, _ = planted_corpus(n_docs=30, seed=11)
    split = len(docs) // 3
    triple = fit_triple(docs[:split], docs[split:2 * split],
                        docs[2 * split:], h=3, sweeps=10, seed=2)
    batch = _mixed_docs(docs)
    seeds = [50 + i for i in range(len(batch))]
    full = fold_in(triple.models, batch, seeds, sweeps=5)
    perm = np.random.default_rng(0).permutation(len(batch))
    permuted = fold_in(triple.models, [batch[i] for i in perm],
                       [seeds[i] for i in perm], sweeps=5)
    assert np.array_equal(permuted, full[perm])
    for i in (0, 2, len(batch) - 1):
        alone = fold_in(triple.models, [batch[i]], [seeds[i]], sweeps=5)
        assert np.array_equal(alone[0], full[i])
    # lockstep batches smaller than the doc count give the same rows
    monkeypatch.setattr(cosd.topics, "_FOLD_IN_BATCH", 3)
    assert np.array_equal(fold_in(triple.models, batch, seeds, sweeps=5),
                          full)


def test_fold_in_sets_equal_each_sets_own_call_and_oracle(monkeypatch):
    # one lockstep over sets that differ in vocabulary, priors and doc
    # lengths; each chain must read its own set's factors and alpha
    docs, _ = planted_corpus(n_docs=30, seed=13)
    split = len(docs) // 3
    triple = fit_triple(docs[:split], docs[split:2 * split],
                        docs[2 * split:], h=3, sweeps=10, seed=5)
    rng = np.random.default_rng(13)
    hand = [_model(rng.integers(0, 6, size=(3, 4)), ["a", "b", "c", "d"],
                   alpha=alpha) for alpha in (0.5, 2.0, 0.1)]
    batch = _mixed_docs(docs)
    sets = [(triple.models, batch, [100 + i for i in range(len(batch))]),
            (hand, [["a", "d", "a"], [], ["zzz"], ["b"] * 40, ["c", "a"]],
             [1, 2, 3, 4, 5]),
            (triple.models, [], []),
            (hand, [["zzz"], ["d"]], [9, 9])]
    own = [fold_in(models, set_docs, seeds, sweeps=6)
           for models, set_docs, seeds in sets]
    for size in (cosd.topics._FOLD_IN_BATCH, 3):
        monkeypatch.setattr(cosd.topics, "_FOLD_IN_BATCH", size)
        got = fold_in_sets(sets, sweeps=6)
        assert len(got) == len(sets)
        for rows, alone, (models, set_docs, seeds) in zip(got, own, sets):
            assert rows.shape == (len(set_docs), 9)
            assert np.array_equal(rows, alone)
            if set_docs:
                assert np.array_equal(
                    rows, _oracle_rows(models, set_docs, seeds, 6))


def test_fold_in_rejects_mismatched_inputs():
    a = _model([[3, 1], [1, 3]], ["a", "b"])
    other_vocab = _model([[3, 1], [1, 3]], ["a", "c"])
    other_h = _model([[3, 1], [1, 3], [2, 2]], ["a", "b"])
    with pytest.raises(TopicsError):
        fold_in([a, other_vocab], [["a"]], [0])
    with pytest.raises(TopicsError):
        fold_in([a, other_h], [["a"]], [0])
    with pytest.raises(TopicsError):
        fold_in([a], [["a"], ["b"]], [0])
    with pytest.raises(TopicsError):
        fold_in([], [["a"]], [0])
    # sets folded in together must agree on H and on the number of models
    with pytest.raises(TopicsError):
        fold_in_sets([([a], [["a"]], [0]), ([other_h], [["a"]], [0])])
    with pytest.raises(TopicsError):
        fold_in_sets([([a, a], [["a"]], [0]), ([a], [["b"]], [1])])
    assert fold_in_sets([]) == []


# --- corpus-level scores ------------------------------------------------------


def test_perplexity_single_topic_matches_hand_computation():
    m = _model([[3, 1]], ["a", "b"], beta=0.01)
    # H = 1 makes theta = [1], so p(w|d) is exactly the smoothed phi row
    p_a = 3.01 / 4.02
    p_b = 1.01 / 4.02
    expect = np.exp(-(2 * np.log(p_a) + np.log(p_b)) / 3)
    got = perplexity(m, [["a", "b", "a"]], [0], sweeps=5)
    assert got == pytest.approx(expect, rel=1e-12)


def test_perplexity_skips_oov_docs_and_is_at_least_one():
    docs, _ = planted_corpus(n_docs=30, seed=10)
    m = fit_lda(docs, h=3, sweeps=30, seed=2)
    with_oov = docs[:5] + [["zzz", "qqq"]]
    seeds = list(range(len(with_oov)))
    val = perplexity(m, with_oov, seeds, sweeps=10)
    assert val >= 1.0
    assert val == pytest.approx(perplexity(m, docs[:5], seeds[:5], sweeps=10))


def test_perplexity_errors_when_no_tokens_scorable():
    m = _model([[3, 1]], ["a", "b"])
    with pytest.raises(TopicsError):
        perplexity(m, [["zzz"], []], [0, 1])


def test_umass_hand_computed_oracle():
    m = _model([[5, 3, 1]], ["a", "b", "c"])
    docs = [["a", "b"], ["a"], ["b", "c"]]
    # top words (a, b, c); D(b)=2, D(a,b)=1; D(c)=1, D(a,c)=0, D(b,c)=1
    expect = np.log(2 / 2) + np.log(1 / 1) + np.log(2 / 1)
    assert umass_coherence(m, docs, top_n=3) == pytest.approx(expect)


def test_umass_skips_pairs_with_absent_denominator_word():
    m = _model([[5, 4, 3]], ["a", "b", "z"])
    docs = [["a", "b"], ["a"], ["b"]]
    # "z" never occurs: both pairs ending in z are skipped, (a,b) scores 0
    assert umass_coherence(m, docs, top_n=3) == pytest.approx(0.0)


def test_umass_requires_at_least_two_words():
    m = _model([[5, 3]], ["a", "b"])
    with pytest.raises(TopicsError):
        umass_coherence(m, [["a"]], top_n=1)


def test_umass_averages_over_topics():
    m = _model([[5, 3, 0, 0], [0, 0, 5, 3]], ["a", "b", "c", "d"])
    docs = [["a", "b"], ["c", "d"], ["b", "d"]]
    # per-topic sums: log((1+1)/2) = 0 for (a,b) and log((1+1)/2) = 0 for (c,d)
    assert umass_coherence(m, docs, top_n=2) == pytest.approx(0.0)


# --- serialization -----------------------------------------------------------


def test_lda_file_round_trip(tmp_path):
    docs, _ = planted_corpus(n_docs=25, seed=12)
    m = fit_lda(docs, h=3, sweeps=15, seed=6)
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    back = load_lda(path)
    assert back.h == m.h
    assert back.alpha == m.alpha
    assert back.beta == m.beta
    assert back.trained_sweeps == m.trained_sweeps
    assert back.vocab.tokens == m.vocab.tokens
    assert list(back.vocab.doc_freq) == list(m.vocab.doc_freq)
    assert np.array_equal(back.topic_word_counts, m.topic_word_counts)
    sidecar = tmp_path / "model.lda1.json"
    assert sidecar.exists()
    doc = json.loads(sidecar.read_text())
    assert doc["top_words"] == m.top_words(10)
    assert doc["log_joint"] == [[15, m.log_joint[0][1]]]
    # the trace lives only in the sidecar
    assert back.log_joint == []


def test_fit_records_log_joint_of_the_oracle_sampler(tmp_path):
    docs, _ = planted_corpus(n_docs=30, seed=14)
    m = fit_lda(docs, h=3, sweeps=120, seed=4)
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    recorded = json.loads((tmp_path / "model.lda1.json").read_text())
    assert recorded["log_joint"] == [list(pair) for pair in m.log_joint]
    ids = [[m.vocab.index[t] for t in doc] for doc in docs]
    _, (want,), _, _ = lockstep_loop([ids], len(m.vocab), 3, 50.0 / 3, 0.01,
                                     [4], 120)
    assert [s for s, _ in want] == [0, 50, 100, 120]
    assert [s for s, _ in m.log_joint] == [50, 100, 120]
    for (_, got), (_, value) in zip(m.log_joint, want[1:]):
        assert got == pytest.approx(value, rel=1e-9, abs=0.0)
    # the trace climbs from the random start on a planted corpus
    assert m.log_joint[0][1] > want[0][1]


def test_fit_with_zero_alpha_records_no_log_joint():
    # lgamma has a pole at 0, so the log joint is undefined at alpha = 0,
    # and over an empty vocabulary, where n_t + beta * |V| is 0
    docs, _ = planted_corpus(n_docs=12, seed=15)
    m = fit_lda(docs, h=3, alpha=0.0, sweeps=60, seed=1)
    assert m.log_joint == []
    assert m.topic_totals.sum() == sum(len(d) for d in docs)
    empty = fit_lda([[], []], h=2, sweeps=3)
    assert empty.log_joint == []
    assert empty.topic_word_counts.shape == (2, 0)


def test_log_joint_at_zero_alpha_raises_topics_error():
    m = fit_lda([["a", "b"], ["c"]], h=3, alpha=0.0, sweeps=1)
    assert m.log_joint == []
    # whatever the counts, alpha = 0 alone makes it undefined
    doc_topics = np.array([[2, 0], [0, 0], [0, 1]])
    with pytest.raises(TopicsError, match="alpha = 0"):
        cosd.topics._log_joint(m.topic_word_counts, m.topic_totals,
                               doc_topics, np.array([2, 1]), 0.0, 0.01)


def test_lda_file_rejects_corruption(tmp_path):
    docs, _ = planted_corpus(n_docs=10, seed=13)
    m = fit_lda(docs, h=2, sweeps=5, seed=0)
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad.lda1"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(TopicsError):
        load_lda(bad_magic)
    trailing = tmp_path / "trailing.lda1"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(TopicsError):
        load_lda(trailing)
    nan_alpha = tmp_path / "nan.lda1"
    nan_alpha.write_bytes(raw[:12] + struct.pack("<d", float("nan"))
                          + raw[20:])
    with pytest.raises(TopicsError, match="finite"):
        load_lda(nan_alpha)
    bad_text = tmp_path / "text.lda1"
    # the first vocabulary token's bytes follow its u32 length
    first = 4 + 8 + 16 + 4 + 8 * m.h * len(m.vocab) + 4
    bad_text.write_bytes(raw[:first] + b"\xff" + raw[first + 1:])
    with pytest.raises(TopicsError, match="UTF-8"):
        load_lda(bad_text)


def test_lda_loads_the_file_counts_and_checks_sizes_first(tmp_path):
    m = _model([[3, 1, 0], [1, 3, 2]], ["a", "bb", "ccc"])
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    raw = path.read_bytes()
    counts = np.frombuffer(raw[32:32 + 8 * 6], dtype="<i8").reshape(2, 3)
    assert np.array_equal(load_lda(path).topic_word_counts, counts)
    # a header claiming 2**31 topics fails on the file's size before the
    # count table is allocated
    huge = tmp_path / "huge.lda1"
    huge.write_bytes(raw[:4] + struct.pack("<I", 2 ** 31) + raw[8:])
    tracemalloc.start()
    try:
        with pytest.raises(TopicsError, match="huge.lda1: truncated"):
            load_lda(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(raw) + (1 << 16)


def test_lda_truncated_at_every_offset_raises_topics_error(tmp_path):
    m = _model([[3, 1, 0], [1, 3, 2]], ["a", "bb", "ccc"])
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.lda1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(TopicsError, match="cut.lda1"):
            load_lda(cut)
