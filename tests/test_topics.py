"""Topic model tests: fit invariants, fold-in, scores, serialization.

Hand-computed oracles cover coherence and the single-topic perplexity case;
the planted-corpus recovery check runs a reduced version of the acceptance
setup so regressions surface here first. The CVB0 fit and the CVB0 fold-in
must equal, bit for bit, the plain loops kept here as oracles: cvb0_loop,
one token at a time within each sweep, and cvb0_posterior, one doc under
one model. log_likelihoods, which perplexity sums, must equal the per-doc
loop loop_log_likelihoods: its counts exactly, its sums to 1e-12 relative.
A sequential collapsed Gibbs sampler (SequentialLda, loop_sweep) stays as
the statistical reference for topic recovery.
"""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import fit_checking_sweeps, greedy_match_tv, planted_corpus
from cosd.corpus import Vocabulary
import cosd.topics
from cosd.topics import (
    LdaModel,
    TopicModelTriple,
    TopicsError,
    fit_triples,
    fold_in_sets,
    load_lda,
    log_likelihoods,
    perplexity,
    save_lda,
    umass_coherence,
)


def _model(counts, vocab_tokens, alpha=0.5, beta=0.01, sweeps=10):
    counts = np.asarray(counts, dtype=np.float64)
    vocab = Vocabulary(tokens=list(vocab_tokens),
                       index={t: i for i, t in enumerate(vocab_tokens)})
    return LdaModel(h=counts.shape[0], alpha=alpha, beta=beta, vocab=vocab,
                    topic_word_counts=counts, trained_sweeps=sweeps)


def fit_one(docs, h, alpha, beta=0.01, sweeps=500, seed=0):
    """One model over docs alone: fit_triples' one-set call."""
    return fit_triples([(docs, [], [])], h, alpha, beta, sweeps,
                       seeds=[seed])[0].favor


def _triple(favor, none, against, h, sweeps, seed):
    """One group's triple: fit_triples over that group alone."""
    (triple,) = fit_triples([(favor, none, against)], h=h, alpha=50.0 / h,
                            sweeps=sweeps, seeds=[seed])
    return triple


# --- fit -------------------------------------------------------------------


class SequentialLda:
    """Reference: the sequential collapsed Gibbs sampler, state in plain
    lists of integer-valued floats, uniforms from one PCG64 stream. Each
    token sees every earlier token's new topic; it is the statistical
    reference the CVB0 fit's topic recovery is compared against."""

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
            u = uniforms[pos] * total
            pos += 1
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


def cvb0_loop(doc_sets, v, h, alpha, beta, seeds, sweeps, tol=None):
    """Oracle: the synchronous CVB0 fit as plain loops, one model at a time
    and one token at a time within each sweep.

    doc_sets holds each model's docs as word ids under a vocabulary of v
    words. Model m's n tokens, in token order, start one-hot at
    np.random.default_rng(seeds[m]).integers(H, size=n). A sweep sets every
    token, in order, from the counts its model held after the previous sweep:
    (n_dk - g_k + alpha)(n_wk - g_k + beta) / (n_k - g_k + beta v) over their
    running sum across topics; then every count is summed afresh from 0.0
    over its tokens in order. A model stops at the first sweep that moves
    none of its n_dk and n_wk by more than tol (the fit's _FIT_TOL unless
    given), or after sweeps sweeps. Returns per model the (H, v) counts it
    stopped with, its log joint at sweep 0, every 50 sweeps and at its stop
    (none at v = 0), and its stop sweep.
    """
    tol = cosd.topics._FIT_TOL if tol is None else tol

    def recount(docs, tokens):
        n_dk = [[0.0] * h for _ in docs]
        n_wk = [[0.0] * h for _ in range(v)]
        n_k = [0.0] * h
        for d, w, gamma in tokens:
            for k in range(h):
                n_dk[d][k] += gamma[k]
                n_wk[w][k] += gamma[k]
                n_k[k] += gamma[k]
        return n_dk, n_wk, n_k

    tables, records, stops = [], [], []
    for seed, docs in zip(seeds, doc_sets):
        draws = iter(np.random.default_rng(seed).integers(
            h, size=sum(map(len, docs))).tolist())
        tokens = []  # (doc, word, gamma) in token order
        for i, ids in enumerate(docs):
            for w in ids:
                gamma = [0.0] * h
                gamma[next(draws)] = 1.0
                tokens.append((i, w, gamma))
        live = [d for d, ids in enumerate(docs) if ids]
        trace = []

        def record(done, n_dk, n_wk, n_k):
            if v > 0:
                trace.append((done, scalar_log_joint(
                    n_wk, n_k, [n_dk[d] for d in live],
                    [len(docs[d]) for d in live], alpha, beta)))

        n_dk, n_wk, n_k = recount(docs, tokens)
        record(0, n_dk, n_wk, n_k)
        for s in range(sweeps):
            updated = []
            for d, w, g in tokens:
                p = [(n_dk[d][k] - g[k] + alpha) * (n_wk[w][k] - g[k] + beta)
                     / (n_k[k] - g[k] + beta * v) for k in range(h)]
                total = 0.0
                for pk in p:
                    total += pk
                updated.append((d, w, [pk / total for pk in p]))
            tokens = updated
            before = n_dk + n_wk
            n_dk, n_wk, n_k = recount(docs, tokens)
            moved = max((abs(a - b) for now, then in zip(n_dk + n_wk, before)
                         for a, b in zip(now, then)), default=0.0)
            stopped = moved <= tol or s + 1 == sweeps
            if (s + 1) % 50 == 0 or stopped:
                record(s + 1, n_dk, n_wk, n_k)
            if stopped:
                break
        tables.append(np.array(n_wk).reshape(v, h).T)
        records.append(trace)
        stops.append(s + 1)
    return tables, records, stops


def _vocab(v: int) -> Vocabulary:
    tokens = [f"w{i}" for i in range(v)]
    return Vocabulary(tokens=tokens,
                      index={t: i for i, t in enumerate(tokens)})


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
        # a small alpha: a one-token doc's update is alpha times its word's
        # factors, tiny but positive
        (mixed + [[3], [5], [3]], 12, 1e-6, 0.01),
        (mixed, 12, 1e-12, 1e-12),
        ([[], [0], [], [1, 1, 1, 1, 1, 1], [2] * 9 + [0]], 3, 0.1, 0.5),
        ([[w] for w in range(8)] + [[]], 8, 0.01, 1e-9),
        # many docs hold word 0 at position 0 and share words further on:
        # each recount must add every token of a word in token order
        ([[0, 1, 2], [0, 1, 0], [0, 2, 1], [0], [0, 0, 0, 1]] * 3, 3, 0.5,
         0.25),
        ([], 5, 0.5, 0.01),
        ([[], [-1]], 0, 0.5, 0.01),
        # one word: every word factor (n_wk - g + beta) / (n_k - g + beta)
        # is exactly 1
        ([[0] * n for n in range(1, 10)], 1, 1.0, 0.01),
    ]


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7, 8, 33])
@pytest.mark.parametrize("dyadic", [False, True])
def test_sweep_kernel_equals_loop_oracle(monkeypatch, h, dyadic):
    # every case is one set of one fit, each over its own vocabulary and
    # priors; each model must equal cvb0_loop over its set alone, count for
    # count
    corpora = _kernel_corpora(h)
    if dyadic:
        # initial topics floor(j H / 4) for j in 0..3 only: at H > 4 some
        # topics start empty, with n_k = 0 under the denominator; the fit
        # and the oracle both draw through np.random.default_rng, once per
        # case each
        real_rng, seeded = np.random.default_rng, []

        class FourTopics:
            def __init__(self, seed):
                seeded.append(seed)
                self.rng = real_rng(seed)

            def integers(self, high, size):
                return self.rng.integers(4, size=size) * high // 4

        monkeypatch.setattr(np.random, "default_rng", FourTopics)
    for case, (docs, v, alpha, beta) in enumerate(corpora):
        (model,) = cosd.topics._fit([_token_docs(docs)], [_vocab(v)], h,
                                    alpha, beta, 12, [case])
        (counts,), (records,), (stop,) = cvb0_loop(
            [[[w for w in doc if w >= 0] for doc in docs]], v, h, alpha,
            beta, [case], 12)
        assert model.topic_word_counts.dtype == np.float64
        assert np.array_equal(model.topic_word_counts, counts), case
        assert model.trained_sweeps == stop, case
        assert [s for s, _ in model.log_joint] == [s for s, _ in records[1:]]
        for (_, got), (_, want) in zip(model.log_joint, records[1:]):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    if dyadic:
        assert seeded == [case for case in range(len(corpora))
                          for _ in range(2)]


def test_fit_triple_counts_equal_loop_oracle():
    docs, _ = planted_corpus(n_docs=45, seed=30)
    sets = (docs[:15], docs[15:30], docs[30:])
    got = _triple(*sets, h=4, sweeps=60, seed=8)
    index = got.favor.vocab.index
    counts, records, stops = cvb0_loop(
        [[[index[t] for t in doc] for doc in set_docs] for set_docs in sets],
        len(index), 4, 50.0 / 4, 0.01, [8, 9, 10], 60)
    for model, want, trace, stop in zip(got.models, counts, records, stops):
        assert np.array_equal(model.topic_word_counts, want)
        assert model.trained_sweeps == stop
        assert [s for s, _ in model.log_joint] == [s for s, _ in trace[1:]]
        for (_, value), (_, oracle) in zip(model.log_joint, trace[1:]):
            assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)
    # the models share no counts: each is its own one-model fit
    for offset, (model, set_docs) in enumerate(zip(got.models, sets)):
        (alone,) = cosd.topics._fit([set_docs], [model.vocab], 4, 50.0 / 4,
                                    0.01, 60, [8 + offset])
        assert np.array_equal(alone.topic_word_counts,
                              model.topic_word_counts)
        assert alone.log_joint == model.log_joint


def test_fit_triples_equals_each_groups_own_fit_and_loop_oracle():
    # one fit over groups whose vocabularies and longest docs differ, one
    # of them with no vocabulary at all and one with docs in favor only
    # (fit_one's shape): every model must be its own group's one-group fit,
    # count for count and record for record
    groups = []
    for g, (vocab_size, doc_len) in enumerate(((12, (3, 8)), (40, (15, 31)),
                                               (25, (1, 4)))):
        docs, _ = planted_corpus(n_docs=24, vocab_size=vocab_size,
                                 seed=40 + g, doc_len=doc_len)
        groups.append((docs[:8], docs[8:16], docs[16:]))
    groups.insert(2, ([], [[]], []))
    docs, _ = planted_corpus(n_docs=10, vocab_size=18, seed=44,
                             doc_len=(9, 14))
    groups.append((docs, [], []))
    seeds = [3, 2**40, 77, 5, 2**63]
    joint = fit_triples(groups, h=3, alpha=50.0 / 3, sweeps=60, seeds=seeds)
    assert [len(t.favor.vocab) for t in joint][2] == 0
    assert len({len(t.favor.vocab) for t in joint}) == 5
    assert len({max(map(len, group[0] + group[1] + group[2]))
                for group in groups}) == 5
    for triple, group, seed in zip(joint, groups, seeds):
        (alone,) = fit_triples([group], h=3, alpha=50.0 / 3, sweeps=60,
                               seeds=[seed])
        index = triple.favor.vocab.index
        counts, records, stops = cvb0_loop(
            [[[index[t] for t in doc] for doc in docs] for docs in group],
            len(index), 3, 50.0 / 3, 0.01, [seed, seed + 1, seed + 2], 60)
        for model, own, want, trace, stop in zip(
                triple.models, alone.models, counts, records, stops):
            assert model.vocab.tokens == own.vocab.tokens
            assert np.array_equal(model.topic_word_counts,
                                  own.topic_word_counts)
            assert np.array_equal(model.topic_totals, own.topic_totals)
            assert model.log_joint == own.log_joint
            assert model.trained_sweeps == own.trained_sweeps == stop
            assert np.array_equal(model.topic_word_counts, want)
            if not index:  # no vocabulary, no log joint
                assert model.log_joint == trace == []
                continue
            assert [s for s, _ in model.log_joint] == [s for s, _ in trace[1:]]
            for (_, value), (_, oracle) in zip(model.log_joint, trace[1:]):
                assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)


def test_fit_stops_each_model_at_its_own_fixed_point():
    # one group whose three models settle at three different sweeps, fitted
    # again under a cap between the last two: the two that settle before it
    # stop where they did, and the third runs to the cap. Each model must
    # equal the oracle count for count, stop for stop and record for record
    docs, _ = planted_corpus(n_docs=24, vocab_size=25, seed=42,
                             doc_len=(1, 4))
    group = (docs[:8], docs[8:16], docs[16:])
    free = _triple(*group, h=3, sweeps=500, seed=5)
    stops = sorted(m.trained_sweeps for m in free.models)
    assert stops[0] < stops[1] < stops[2] < 500
    cap = (stops[1] + stops[2]) // 2
    capped = _triple(*group, h=3, sweeps=cap, seed=5)
    index = capped.favor.vocab.index
    counts, records, oracle_stops = cvb0_loop(
        [[[index[t] for t in doc] for doc in set_docs] for set_docs in group],
        len(index), 3, 50.0 / 3, 0.01, [5, 6, 7], cap)
    for model, settled, want, trace, stop in zip(
            capped.models, free.models, counts, records, oracle_stops):
        assert model.trained_sweeps == stop
        assert np.array_equal(model.topic_word_counts, want)
        recorded_at = [s for s, _ in trace[1:]]
        assert [s for s, _ in model.log_joint] == recorded_at
        assert recorded_at == [*range(50, stop, 50), stop]
        for (_, value), (_, oracle) in zip(model.log_joint, trace[1:]):
            assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)
        if settled.trained_sweeps < cap:
            assert model.trained_sweeps == settled.trained_sweeps
            assert np.array_equal(model.topic_word_counts,
                                  settled.topic_word_counts)
            assert model.log_joint == settled.log_joint
        else:
            assert model.trained_sweeps == cap
            assert not np.array_equal(model.topic_word_counts,
                                      settled.topic_word_counts)
    assert sorted(m.trained_sweeps for m in capped.models) == [*stops[:2],
                                                               cap]


def test_fit_stops_a_model_with_no_in_vocabulary_token_at_its_first_sweep():
    # a model with no docs, one with empty docs only and one whose docs are
    # all outside its vocabulary move no count: each stops at sweep 1 with
    # zero counts and one log-joint record, the oracle's, while the models
    # beside it sweep on as their own one-model fits
    docs, _ = planted_corpus(n_docs=12, vocab_size=10, seed=3, doc_len=(2, 5))
    vocab = Vocabulary.from_docs(docs)
    models = cosd.topics._fit([docs, [], [[], []], [["zzz"], ["qqq", "z"]]],
                              [vocab] * 4, 3, 50.0 / 3, 0.01, 500,
                              [9, 10, 11, 12])
    (alone,) = cosd.topics._fit([docs], [vocab], 3, 50.0 / 3, 0.01, 500, [9])
    assert 1 < models[0].trained_sweeps < 500
    assert models[0].trained_sweeps == alone.trained_sweeps
    assert np.array_equal(models[0].topic_word_counts,
                          alone.topic_word_counts)
    assert models[0].log_joint == alone.log_joint
    index = vocab.index
    counts, records, stops = cvb0_loop(
        [[[index[t] for t in doc if t in index] for doc in set_docs]
         for set_docs in (docs, [], [[], []], [["zzz"], ["qqq", "z"]])],
        len(vocab), 3, 50.0 / 3, 0.01, [9, 10, 11, 12], 500)
    assert stops == [m.trained_sweeps for m in models]
    for model, want, trace in zip(models, counts, records):
        assert np.array_equal(model.topic_word_counts, want)
        assert [s for s, _ in model.log_joint] == [s for s, _ in trace[1:]]
        for (_, value), (_, oracle) in zip(model.log_joint, trace[1:]):
            assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)
    for model in models[1:]:
        assert model.trained_sweeps == 1
        assert model.topic_word_counts.shape == (3, len(vocab))
        assert not model.topic_word_counts.any()
        assert [s for s, _ in model.log_joint] == [1]


def test_fit_triples_takes_one_seed_per_group():
    docs = [["a", "b"], ["b"]]
    with pytest.raises(TopicsError, match="1 seeds for 2 groups"):
        fit_triples([(docs, docs, docs)] * 2, h=2, alpha=25.0, sweeps=1,
                    seeds=[4])


def test_fit_rejects_a_seed_outside_64_bits(monkeypatch):
    # a seed must be an integer >= 0, checked before any draw; a Generator
    # takes any such seed, 2**64 and above included
    docs = [["a", "b"], ["b"]]
    fitted = fit_triples([(docs, docs, docs)], h=2, alpha=25.0, sweeps=1,
                         seeds=[2**64])[0]
    for m in fitted.models:
        assert m.topic_word_counts.sum() == pytest.approx(3.0)
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw is made
    for bad in (-1, 1.5):
        with pytest.raises(TopicsError, match="seeds must be integers >= 0"):
            fit_one(docs, h=2, alpha=25.0, sweeps=1, seed=bad)


def test_lockstep_recovers_planted_topics_like_the_sequential_sampler():
    # the sequential Gibbs sampler is the quality reference: on each
    # reduced corpus, the best of three CVB0 fits must recover the planted
    # topics about as well as the best of three Gibbs chains, same seeds.
    # CVB0 reaches one fixed point from every seed here, while a chain's
    # final counts are one draw scattered around its mode (0.125 and 0.128
    # for two chains of one mode on corpus 7), hence the margin
    for corpus_seed in (7, 1, 2):
        docs, phi_true = planted_corpus(n_topics=3, n_docs=120,
                                        vocab_size=30, seed=corpus_seed,
                                        doc_len=(12, 25))
        fitted, reference = [], []
        for seed in (11, 12, 13):
            model = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=150, seed=seed)
            fitted.append(max(greedy_match_tv(model.phi(), phi_true)))
            vocab = model.vocab
            chain = SequentialLda([[vocab.index[t] for t in doc]
                                   for doc in docs], 3, 50.0 / 3, 0.01,
                                  len(vocab), seed)
            for _ in range(150):
                loop_sweep(chain)
            phi = LdaModel(h=3, alpha=50.0 / 3, beta=0.01, vocab=vocab,
                           topic_word_counts=chain.counts(),
                           trained_sweeps=150).phi()
            reference.append(max(greedy_match_tv(phi, phi_true)))
        assert min(fitted) <= min(reference) + 0.02, corpus_seed


def test_sampler_conserves_counts_every_sweep():
    # expected counts are float sums: each token's gamma is a distribution,
    # and the topic totals add up to the token count to rounding
    docs, _ = planted_corpus(n_docs=40, seed=3)
    total = sum(len(d) for d in docs)
    seen = []

    def check(s, n_t, gamma):
        seen.append(s)
        assert gamma.shape == (3, total)
        assert (gamma >= 0).all()
        assert np.allclose(gamma.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        assert (n_t >= 0).all()
        assert abs(n_t[:, 0].sum() - total) <= 1e-9 * total

    (model,) = fit_checking_sweeps(
        check, [docs], [Vocabulary.from_docs(docs)], 3, 50.0 / 3, 0.01, 5,
        [1])
    assert seen == [0, 1, 2, 3, 4]
    assert abs(model.topic_totals.sum() - total) <= 1e-9 * total
    assert (model.topic_word_counts >= 0).all()


def test_sampler_improves_log_joint_on_structured_corpus():
    docs, _ = planted_corpus(n_docs=60, seed=4)
    # one fit's first sweep is the whole of a one-sweep fit of the same seed
    ((_, after_one),) = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=1,
                                seed=2).log_joint
    ((_, after_30),) = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=30,
                               seed=2).log_joint
    assert after_30 > after_one


def test_fit_lda_deterministic_per_seed():
    docs, _ = planted_corpus(n_docs=30, seed=5)
    a = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=20, seed=9)
    b = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=20, seed=9)
    c = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=20, seed=10)
    assert np.array_equal(a.topic_word_counts, b.topic_word_counts)
    assert not np.array_equal(a.topic_word_counts, c.topic_word_counts)


def test_fit_lda_recovers_planted_topics_reduced():
    # every fit, not the best of several: five reduced corpora, six fit
    # seeds each
    for corpus_seed in (7, 1, 2, 3, 4):
        docs, phi_true = planted_corpus(n_topics=3, n_docs=120,
                                        vocab_size=30, seed=corpus_seed,
                                        doc_len=(12, 25))
        for seed in (11, 0, 1, 2, 3, 4):
            model = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=150, seed=seed)
            # the fit sorts the vocabulary, which matches the wNN naming
            # order
            assert model.vocab.tokens == [f"w{i:02d}" for i in range(30)]
            tv = greedy_match_tv(model.phi(), phi_true)
            assert max(tv) <= 0.15, (corpus_seed, seed)


def test_fit_lda_rejects_bad_arguments():
    with pytest.raises(TopicsError):
        fit_one([["a", "b"]], h=0, alpha=1.0)
    with pytest.raises(TopicsError):
        fit_one([["a", "b"]], h=2, alpha=25.0, sweeps=0)
    with pytest.raises(TopicsError):
        fit_one([["a", "b"]], h=2, alpha=-1.0)
    with pytest.raises(TopicsError):
        fit_one([["a", "b"]], h=2.5, alpha=20.0)
    for alpha, beta in ((float("nan"), 0.01), (0.5, float("inf"))):
        with pytest.raises(TopicsError, match="finite"):
            fit_one([["a", "b"]], h=2, alpha=alpha, beta=beta)


def test_fit_lda_rejects_zero_beta():
    # beta = 0 would divide by n_k + 0 once a topic empties
    docs, _ = planted_corpus(n_docs=9, seed=2)
    for beta in (0.0, -0.01):
        with pytest.raises(TopicsError, match="beta > 0"):
            fit_one(docs, h=7, alpha=0.01, beta=beta, sweeps=50)


def test_fit_rejects_zero_alpha_before_it_draws(monkeypatch):
    # alpha = 0 would give a one-token doc an all-zero conditional and put
    # the log joint on lgamma's pole; the fit refuses it up front
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw is made
    for alpha in (0.0, -0.0):
        with pytest.raises(TopicsError, match="alpha > 0"):
            fit_one([["a", "b"], ["c"]], h=3, alpha=alpha, sweeps=1)


def test_fit_lda_with_explicit_vocab_drops_unknown_tokens():
    vocab = Vocabulary.from_docs([["alpha", "beta"]])
    (m,) = cosd.topics._fit([[["gamma", "delta"]]], [vocab], 2, 25.0, 0.01,
                            3, [0])
    assert m.topic_word_counts.sum() == 0
    theta = fold_in_one([m], [["gamma"]], sweeps=5)[0]
    assert np.allclose(theta, [0.5, 0.5])


# --- model dataclasses ------------------------------------------------------


def test_lda_model_validates_counts():
    vocab = Vocabulary.from_docs([["a", "b"]])
    good = np.array([[2, 1], [0, 3.5]])
    model = LdaModel(h=2, alpha=0.1, beta=0.01, vocab=vocab,
                     topic_word_counts=good, trained_sweeps=1)
    assert model.topic_totals.tolist() == [3.0, 3.5]
    # integer counts are held as float64 expected counts
    ints = LdaModel(h=2, alpha=0.1, beta=0.01, vocab=vocab,
                    topic_word_counts=np.array([[2, 1], [0, 3]]),
                    trained_sweeps=1)
    assert ints.topic_word_counts.dtype == np.float64
    with pytest.raises(TopicsError):
        LdaModel(h=3, alpha=0.1, beta=0.01, vocab=vocab,
                 topic_word_counts=good, trained_sweeps=1)
    # a NaN passes every comparison test for a negative count
    for bad in (-1.0, -1e-300, float("nan"), float("inf"), float("-inf")):
        counts = good.copy()
        counts[1, 0] = bad
        with pytest.raises(TopicsError, match="finite and >= 0"):
            LdaModel(h=2, alpha=0.1, beta=0.01, vocab=vocab,
                     topic_word_counts=counts, trained_sweeps=1)


def test_lda_model_requires_each_token_once_at_its_own_index():
    counts = np.array([[4, 1, 0], [1, 4, 0]])
    # a repeated token, a token indexed elsewhere, and an index key that is
    # no token
    for tokens, index in ((["a", "a", "b"], {"a": 1, "b": 2}),
                          (["a", "b", "c"], {"a": 0, "b": 2, "c": 1}),
                          (["a", "b", "c"], {"a": 0, "b": 1, "c": 2, "d": 3})):
        with pytest.raises(TopicsError, match="tokens must be unique"):
            LdaModel(h=2, alpha=0.1, beta=0.01,
                     vocab=Vocabulary(tokens=tokens, index=index),
                     topic_word_counts=counts, trained_sweeps=1)


def test_lda_model_rejects_a_zero_or_non_finite_prior():
    # a fold-in under a zero prior could meet an all-zero conditional: a
    # word no topic holds at beta = 0, or a one-token doc at alpha = 0,
    # whose own counts are all 0 once its token is taken off; no such model
    # can be built
    vocab = Vocabulary.from_docs([["a", "b", "c"]])
    counts = np.array([[4, 1, 0], [1, 4, 0]], dtype=np.int64)
    for alpha, beta in ((0.0, 0.01), (0.5, 0.0), (-0.5, 0.01), (0.5, -0.0),
                        (float("inf"), 0.01), (0.5, float("nan"))):
        with pytest.raises(TopicsError, match="alpha > 0 and beta > 0"):
            LdaModel(h=2, alpha=alpha, beta=beta, vocab=vocab,
                     topic_word_counts=counts, trained_sweeps=1)


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
    triple = _triple(favor, none, against, h=2, sweeps=10, seed=3)
    union = sorted({t for d in favor + none + against for t in d})
    for m in triple.models:
        assert m.vocab.tokens == union
    assert triple.h == 2
    # seeds differ per stance, so the count tables should not all coincide
    tables = [m.topic_word_counts for m in triple.models]
    assert not (np.array_equal(tables[0], tables[1])
                and np.array_equal(tables[1], tables[2]))


# --- fold-in ----------------------------------------------------------------


def _token_sums(gamma, h):
    """n_k = sum_i gamma_ik, added in token order from 0.0."""
    counts = [0.0] * h
    for g in gamma:
        for k in range(h):
            counts[k] += g[k]
    return counts


def cvb0_posterior(model: LdaModel, tokens, sweeps: int = 50) -> np.ndarray:
    """Oracle: the scalar one-doc, one-model CVB0 fold-in.

    phi stays frozen. Every token starts at gamma = 1/H; each sweep updates
    every token from the previous sweep's counts and gammas,
    gamma_ik = (n_k - gamma_ik + alpha) phi_kw over its running sum across
    topics, then recounts, and the doc stops at the first sweep that moves
    no count by more than 1e-9. Empty or fully out-of-vocabulary docs
    return the uniform prior.
    """
    index = model.vocab.index
    ids = [index[t] for t in tokens if t in index]
    h = model.h
    if not ids:
        return np.full(h, 1.0 / h)
    phi = model.phi().tolist()
    alpha = model.alpha
    gamma = [[1.0 / h] * h for _ in ids]
    counts = _token_sums(gamma, h)
    for _ in range(sweeps):
        updated = []
        for g, w in zip(gamma, ids):
            p = [(counts[k] - g[k] + alpha) * phi[k][w] for k in range(h)]
            total = 0.0
            for pk in p:
                total += pk
            updated.append([pk / total for pk in p])
        gamma = updated
        new = _token_sums(gamma, h)
        change = max(abs(a - b) for a, b in zip(new, counts))
        counts = new
        if change <= 1e-9:
            break
    return np.array([(n + alpha) / (len(ids) + h * alpha) for n in counts])


def fold_in_one(models, docs, sweeps=50):
    """The fold-in rows of one model set: fold_in_sets' one-set call."""
    (rows,), _ = fold_in_sets([(models, docs)], sweeps)
    return rows


def _oracle_rows(models, docs, sweeps=50):
    return np.stack([
        np.concatenate([cvb0_posterior(m, doc, sweeps) for m in models])
        for doc in docs])


def _mixed_docs(docs):
    """Planted docs of mixed lengths plus empty, all-OOV and part-OOV docs."""
    return ([docs[0][:3], [], docs[1], ["zzz", "qqq"], docs[2][:1],
             ["zzz"] + docs[3][:5]] + docs[4:12])


def _planted_triple(corpus_seed, h, seed):
    # 50 fit sweeps: after 10, CVB0's models are still near flat, and the
    # fold-in of corpus 12's batch needs 55 sweeps to settle, past the
    # default cap; after 50 it needs 20
    docs, _ = planted_corpus(n_docs=30, seed=corpus_seed)
    split = len(docs) // 3
    return docs, _triple(docs[:split], docs[split:2 * split],
                         docs[2 * split:], h=h, sweeps=50, seed=seed)


def test_posterior_sums_to_one_and_is_seed_deterministic():
    # the fold-in takes no seed: the same docs give the same rows
    docs, _ = planted_corpus(n_docs=40, seed=8)
    m = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=30, seed=1)
    theta = fold_in_one([m], docs[:5], sweeps=20)
    again = fold_in_one([m], docs[:5], sweeps=20)
    assert theta.shape == (5, 3)
    assert np.allclose(theta.sum(axis=1), 1.0)
    assert (theta > 0).all()
    assert np.array_equal(theta, again)


def test_posterior_uniform_for_empty_oov_and_single_topic():
    m = _model([[3, 1], [1, 3]], ["a", "b"])
    assert np.array_equal(fold_in_one([m], [[], ["zzz"]]), np.full((2, 2),
                                                                  0.5))
    single = _model([[3, 1]], ["a", "b"])
    assert np.allclose(fold_in_one([single], [["a", "b"]]), [[1.0]])
    assert fold_in_one([m], []).shape == (0, 2)


def test_posterior_concentrates_on_matching_topic():
    # topic 0 emits only "a", topic 1 only "b"; a pure-"a" doc should land
    # almost all of its mass on topic 0 despite the smoothing prior
    m = _model([[100, 0], [0, 100]], ["a", "b"], alpha=0.1)
    theta = fold_in_one([m], [["a"] * 6], sweeps=30)[0]
    assert theta[0] > 0.9


def test_dis_vector_concatenates_thirds():
    docs, triple = _planted_triple(9, h=2, seed=4)
    rows = fold_in_one(triple.models, docs[:2], sweeps=10)
    assert rows.shape == (2, 6)
    # one posterior per model side by side, each a distribution
    assert np.allclose(rows.reshape(2, 3, 2).sum(axis=2), 1.0)


@pytest.mark.parametrize("h", [1, 2, 3, 5, 7])
def test_fold_in_equals_scalar_oracle(h):
    docs, triple = _planted_triple(20 + h, h=h, seed=h)
    # the planted docs plus the same docs eight times over, which run more
    # sweeps before they settle
    batch = _mixed_docs(docs) + [doc * 8 for doc in docs[12:16]]
    for sweeps in (3, 50):
        got = fold_in_one(triple.models, batch, sweeps)
        assert got.shape == (len(batch), 3 * h)
        assert np.array_equal(got, _oracle_rows(triple.models, batch, sweeps))
    one = fold_in_one([triple.none], batch)
    assert np.array_equal(one, _oracle_rows([triple.none], batch))
    # each model's block is that model's fold-in alone
    assert np.array_equal(got[:, h:2 * h], one)


def test_fold_in_unseen_word_under_models_of_differing_priors():
    # "c" has zero count under every topic of the first model, so its
    # factors are beta / (n_t + beta |V|), tiny but positive; the models'
    # priors differ, so each chain must use its own model's alpha and beta
    vocab = ["a", "b", "c"]
    models = [_model([[4, 1, 0], [1, 4, 0], [2, 2, 0]], vocab, beta=1e-9),
              _model([[4, 1, 1], [1, 4, 2], [2, 2, 3]], vocab, alpha=2.0,
                     beta=0.5)]
    docs = [["c", "c", "a"], ["c"], ["a", "b", "c", "c", "b"], ["b"]]
    got = fold_in_one(models, docs, sweeps=8)
    assert np.array_equal(got, _oracle_rows(models, docs, 8))


def test_fold_in_stops_each_text_at_its_own_fixed_point(monkeypatch):
    docs, triple = _planted_triple(12, h=3, seed=7)
    batch = _mixed_docs(docs) + [doc * 8 for doc in docs[12:16]]
    settled = fold_in_one(triple.models, batch)
    # every text is frozen before the default cap, so a higher cap changes
    # no byte
    assert np.array_equal(fold_in_one(triple.models, batch, 500), settled)
    # a text that reaches the cap still gets its models' distributions, the
    # oracle's after as many sweeps
    for sweeps in (1, 2):
        capped = fold_in_one(triple.models, batch, sweeps)
        assert np.array_equal(capped, _oracle_rows(triple.models, batch,
                                                   sweeps))
        assert (capped > 0).all()
        assert np.allclose(capped.reshape(len(batch), 3, 3).sum(axis=2), 1.0)
        assert not np.array_equal(capped, settled)
    # a frozen row is that of the fixed point: 200 sweeps with no text
    # frozen move it by far less than the 1e-9 the rule stops at
    monkeypatch.setattr(cosd.topics, "_FOLD_IN_TOL", -1.0)
    assert np.abs(fold_in_one(triple.models, batch, 200)
                  - settled).max() < 1e-10


def test_fold_in_rows_independent_of_batch(monkeypatch):
    docs, triple = _planted_triple(11, h=3, seed=2)
    batch = _mixed_docs(docs)
    full = fold_in_one(triple.models, batch)
    perm = np.random.default_rng(0).permutation(len(batch))
    permuted = fold_in_one(triple.models, [batch[i] for i in perm])
    assert np.array_equal(permuted, full[perm])
    for i in (0, 2, len(batch) - 1):
        alone = fold_in_one(triple.models, [batch[i]])
        assert np.array_equal(alone[0], full[i])
    # alongside another set, whose texts settle at other sweeps
    hand = _model([[5, 0, 1], [0, 5, 1], [1, 1, 5]], ["a", "b", "c"])
    (_, beside), _ = fold_in_sets([([hand] * 3, [["a", "c"] * 9, ["b"]]),
                                   (triple.models, batch)])
    assert np.array_equal(beside, full)
    # batches smaller than the doc count give the same rows
    monkeypatch.setattr(cosd.topics, "_FOLD_IN_BATCH", 3)
    assert np.array_equal(fold_in_one(triple.models, batch), full)


def test_fold_in_sets_equal_each_sets_own_call_and_oracle(monkeypatch):
    # one call over sets that differ in vocabulary, priors and doc lengths;
    # each chain must read its own set's factors and alpha
    docs, triple = _planted_triple(13, h=3, seed=5)
    rng = np.random.default_rng(13)
    hand = [_model(rng.integers(0, 6, size=(3, 4)), ["a", "b", "c", "d"],
                   alpha=alpha) for alpha in (0.5, 2.0, 0.1)]
    sets = [(triple.models, _mixed_docs(docs)),
            (hand, [["a", "d", "a"], [], ["zzz"], ["b"] * 40, ["c", "a"]]),
            (triple.models, []),
            (hand, [["zzz"], ["d"]])]
    own = [fold_in_one(models, set_docs) for models, set_docs in sets]
    for size in (cosd.topics._FOLD_IN_BATCH, 3):
        monkeypatch.setattr(cosd.topics, "_FOLD_IN_BATCH", size)
        got, _ = fold_in_sets(sets)
        assert len(got) == len(sets)
        for rows, alone, (models, set_docs) in zip(got, own, sets):
            assert rows.shape == (len(set_docs), 9)
            assert np.array_equal(rows, alone)
            if set_docs:
                assert np.array_equal(rows,
                                      _oracle_rows(models, set_docs))


def test_fold_in_rejects_mismatched_inputs():
    a = _model([[3, 1], [1, 3]], ["a", "b"])
    other_vocab = _model([[3, 1], [1, 3]], ["a", "c"])
    other_h = _model([[3, 1], [1, 3], [2, 2]], ["a", "b"])
    with pytest.raises(TopicsError):
        fold_in_one([a, other_vocab], [["a"]])
    with pytest.raises(TopicsError):
        fold_in_one([a, other_h], [["a"]])
    with pytest.raises(TopicsError):
        fold_in_one([], [["a"]])
    with pytest.raises(TopicsError, match="sweeps must be >= 1"):
        fold_in_one([a], [["a"]], sweeps=0)
    # sets folded in together must agree on H and on the number of models
    with pytest.raises(TopicsError):
        fold_in_sets([([a], [["a"]]), ([other_h], [["a"]])])
    with pytest.raises(TopicsError):
        fold_in_sets([([a, a], [["a"]]), ([a], [["b"]])])
    assert fold_in_sets([]) == ([], 0)


# --- corpus-level scores ------------------------------------------------------


def loop_log_likelihoods(model, docs, thetas):
    """The per-doc loop log_likelihoods replaced: each doc's sum of
    log(theta_d @ phi[:, ids]) over its in-vocabulary ids, and their count."""
    phi = model.phi()
    sums, counts = [], []
    for theta, doc in zip(thetas, docs):
        ids = [model.vocab.index[t] for t in doc if t in model.vocab.index]
        sums.append(float(np.log(theta @ phi[:, ids]).sum()) if ids else 0.0)
        counts.append(len(ids))
    return np.array(sums), np.array(counts)


@pytest.mark.parametrize("h", [1, 3])
def test_log_likelihoods_equal_the_per_doc_loop(h):
    docs, _ = planted_corpus(n_docs=30, seed=10)
    m = fit_one(docs, h=h, alpha=50.0 / h, sweeps=30, seed=2)
    # out-of-vocabulary tokens inside a doc, an empty doc and an all-OOV doc
    docs = [docs[0] + ["zzz"], [], ["zzz", "qqq"], *docs[1:8],
            ["qqq", *docs[8], "zzz"]]
    rng = np.random.default_rng(h)
    for thetas in (fold_in_one([m], docs, sweeps=10),
                   rng.dirichlet(np.ones(h), size=len(docs))):
        sums, counts = log_likelihoods(m, docs, thetas)
        want_sums, want_counts = loop_log_likelihoods(m, docs, thetas)
        assert counts.dtype == np.int64 and sums.dtype == np.float64
        assert np.array_equal(counts, want_counts)
        assert counts[1] == counts[2] == 0 and sums[1] == sums[2] == 0.0
        assert np.allclose(sums, want_sums, rtol=1e-12, atol=0.0)
        assert perplexity(m, docs, thetas) == pytest.approx(
            np.exp(-want_sums.sum() / want_counts.sum()), rel=1e-12)


def test_log_likelihoods_of_no_docs_are_empty():
    m = _model([[3, 1]], ["a", "b"])
    sums, counts = log_likelihoods(m, [], np.ones((0, 1)))
    assert sums.shape == counts.shape == (0,)


def test_log_likelihoods_reject_thetas_not_one_row_per_doc_of_width_h():
    m = _model([[3, 1], [1, 3]], ["a", "b"])
    docs = [["a"], ["b", "a"]]
    thetas = fold_in_one([m], docs)
    for bad in (thetas[:1], np.vstack([thetas, thetas[:1]]), thetas[:, :1],
                thetas[0]):
        with pytest.raises(TopicsError, match="thetas of shape"):
            log_likelihoods(m, docs, bad)


def test_perplexity_single_topic_matches_hand_computation():
    m = _model([[3, 1]], ["a", "b"], beta=0.01)
    # H = 1 makes theta = [1], so p(w|d) is exactly the smoothed phi row
    p_a = 3.01 / 4.02
    p_b = 1.01 / 4.02
    expect = np.exp(-(2 * np.log(p_a) + np.log(p_b)) / 3)
    docs = [["a", "b", "a"]]
    got = perplexity(m, docs, fold_in_one([m], docs, sweeps=5))
    assert got == pytest.approx(expect, rel=1e-12)


def test_perplexity_skips_oov_docs_and_is_at_least_one():
    docs, _ = planted_corpus(n_docs=30, seed=10)
    m = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=30, seed=2)
    with_oov = docs[:5] + [["zzz", "qqq"]]
    val = perplexity(m, with_oov, fold_in_one([m], with_oov, sweeps=10))
    assert val >= 1.0
    alone = fold_in_one([m], docs[:5], sweeps=10)
    assert val == pytest.approx(perplexity(m, docs[:5], alone))


def test_perplexity_errors_when_no_tokens_scorable():
    m = _model([[3, 1]], ["a", "b"])
    docs = [["zzz"], []]
    with pytest.raises(TopicsError, match="zero in-vocabulary tokens"):
        perplexity(m, docs, fold_in_one([m], docs))


def test_perplexity_rejects_thetas_not_one_row_per_doc_of_width_h():
    m = _model([[3, 1], [1, 3]], ["a", "b"])
    docs = [["a"], ["b", "a"]]
    thetas = fold_in_one([m], docs)
    perplexity(m, docs, thetas)
    # an extra row would be dropped by the per-doc loop without a word
    for bad in (thetas[:1], np.vstack([thetas, thetas[:1]]), thetas[:, :1],
                np.full((2, 3), 1 / 3), thetas[0]):
        with pytest.raises(TopicsError, match="thetas of shape"):
            perplexity(m, docs, bad)


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
    m = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=15, seed=6)
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    back = load_lda(path)
    assert back.h == m.h
    assert back.alpha == m.alpha
    assert back.beta == m.beta
    assert back.trained_sweeps == m.trained_sweeps
    assert back.vocab.tokens == m.vocab.tokens
    assert back.vocab.index == m.vocab.index
    # header, float64 counts, then each token as its length and bytes,
    # nothing more
    assert path.read_bytes()[:4] == b"LDA3"
    assert path.stat().st_size == (4 + 8 + 16 + 4 + 8 * m.h * len(m.vocab)
                                   + sum(4 + len(t.encode())
                                         for t in m.vocab.tokens))
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
    m = fit_one(docs, h=3, alpha=50.0 / 3, sweeps=120, seed=4)
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    recorded = json.loads((tmp_path / "model.lda1.json").read_text())
    assert recorded["log_joint"] == [list(pair) for pair in m.log_joint]
    ids = [[m.vocab.index[t] for t in doc] for doc in docs]
    _, (want,), _ = cvb0_loop([ids], len(m.vocab), 3, 50.0 / 3, 0.01, [4],
                              120)
    assert [s for s, _ in want] == [0, 50, 100, 120]
    assert [s for s, _ in m.log_joint] == [50, 100, 120]
    for (_, got), (_, value) in zip(m.log_joint, want[1:]):
        assert got == pytest.approx(value, rel=1e-9, abs=0.0)
    # the trace climbs from the random start on a planted corpus
    assert m.log_joint[0][1] > want[0][1]


def test_fit_over_an_empty_vocabulary_records_no_log_joint():
    # the log joint is undefined over an empty vocabulary, where
    # n_t + beta * |V| is 0; phi is (H, 0) and divides nothing
    empty = fit_one([[], []], h=2, alpha=25.0, sweeps=3)
    assert empty.log_joint == []
    assert empty.topic_word_counts.shape == (2, 0)
    assert empty.phi().shape == (2, 0)
    assert empty.topic_totals.tolist() == [0, 0]


def test_lda_file_rejects_corruption(tmp_path):
    docs, _ = planted_corpus(n_docs=10, seed=13)
    m = fit_one(docs, h=2, alpha=25.0, sweeps=5, seed=0)
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
    # a zero prior in the header: alpha at byte 12, beta at byte 20
    for at, name in ((12, "alpha"), (20, "beta")):
        zero = tmp_path / f"zero-{name}.lda1"
        zero.write_bytes(raw[:at] + struct.pack("<d", 0.0) + raw[at + 8:])
        with pytest.raises(TopicsError, match=f"zero-{name}.lda1: priors"):
            load_lda(zero)
    # the retired LDA1 and LDA2 magics
    for magic in (b"LDA1", b"LDA2"):
        old = tmp_path / "old.lda1"
        old.write_bytes(magic + raw[4:])
        with pytest.raises(TopicsError,
                           match="old.lda1: bad magic, not a LDA3"):
            load_lda(old)
    bad_text = tmp_path / "text.lda1"
    # the first vocabulary token's bytes follow its u32 length
    first = 4 + 8 + 16 + 4 + 8 * m.h * len(m.vocab) + 4
    bad_text.write_bytes(raw[:first] + b"\xff" + raw[first + 1:])
    with pytest.raises(TopicsError, match="UTF-8"):
        load_lda(bad_text)


def test_lda_file_whose_vocabulary_repeats_a_token_raises(tmp_path):
    m = _model([[3, 1, 0], [1, 3, 2]], ["aa", "bb", "ccc"])
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    raw = path.read_bytes()
    # the second token's bytes made the first's: same length, so the file
    # reads whole, as a vocabulary whose index would skip column 0
    assert raw.count(b"bb") == 1
    path.write_bytes(raw.replace(b"bb", b"aa"))
    with pytest.raises(TopicsError, match="model.lda1: vocabulary tokens "
                                          "must be unique"):
        load_lda(path)


def test_lda_loads_the_file_counts_and_checks_sizes_first(tmp_path):
    m = _model([[3, 1, 0], [1, 3, 2]], ["a", "bb", "ccc"])
    path = tmp_path / "model.lda1"
    save_lda(m, path)
    raw = path.read_bytes()
    counts = np.frombuffer(raw[32:32 + 8 * 6], dtype="<f8").reshape(2, 3)
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
