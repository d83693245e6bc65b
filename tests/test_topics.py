"""Topic model tests: sampler invariants, fold-in, scores, serialization.

Hand-computed oracles cover coherence and the single-topic perplexity case;
the planted-corpus recovery check runs a reduced version of the acceptance
setup so regressions surface here first. The batched lockstep fold-in must
equal, bit for bit, the one-doc one-model sequential sampler kept here as
the oracle.
"""

import struct

import numpy as np
import pytest

from conftest import greedy_match_tv, planted_corpus
from cosd.corpus import Vocabulary
import cosd.topics
from cosd.topics import (
    GibbsLda,
    LdaModel,
    TopicModelTriple,
    TopicsError,
    fit_lda,
    fit_triple,
    fold_in,
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
    vocab = Vocabulary.from_docs(docs)
    ids = [[vocab.index[t] for t in d] for d in docs]
    sampler = GibbsLda(ids, h=3, alpha=50 / 3, beta=0.01,
                       vocab_size=len(vocab), seed=2)
    before = sampler.log_joint()
    for _ in range(30):
        sampler.sweep()
    assert sampler.log_joint() > before


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
    rng = np.random.default_rng(seed)
    alpha = model.alpha
    denom = model.topic_totals + model.beta * len(model.vocab)
    # counts are frozen, so the word factor of the conditional is a constant
    # per distinct word; precompute it once per token position
    factor = {}
    for w in set(ids):
        factor[w] = ((model.topic_word_counts[:, w] + model.beta)
                     / denom).tolist()
    pos_factor = [factor[w] for w in ids]
    z = rng.integers(0, h, size=len(ids)).tolist()
    local = [0.0] * h
    for k in z:
        local[k] += 1.0
    uniforms = rng.random(sweeps * len(ids)).tolist()
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


def test_fold_in_uniforms_drawn_in_sweep_chunks_match_oracle(monkeypatch):
    docs, _ = planted_corpus(n_docs=30, seed=12)
    split = len(docs) // 3
    triple = fit_triple(docs[:split], docs[split:2 * split],
                        docs[2 * split:], h=3, sweeps=10, seed=4)
    batch = [docs[0][:3], docs[1], docs[2][:1], docs[3][:5]] + docs[4:12]
    seeds = [70 + i for i in range(len(batch))]
    oracle = _oracle_rows(triple.models, batch, seeds, 7)
    # one padded sweep holds longest length x docs uniforms; budgets of 1,
    # 2 and 3 sweeps leave a short last chunk out of 7 sweeps
    n_max = max(len(doc) for doc in batch)
    for per_chunk in (1, 2, 3):
        monkeypatch.setattr(cosd.topics, "_FOLD_IN_UNIFORMS",
                            per_chunk * n_max * len(batch))
        assert np.array_equal(fold_in(triple.models, batch, seeds, sweeps=7),
                              oracle)


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


# --- corpus-level scores ------------------------------------------------------


def test_perplexity_single_topic_matches_hand_computation():
    m = _model([[3, 1]], ["a", "b"], beta=0.01)
    # H = 1 makes theta = [1], so p(w|d) is exactly the smoothed phi row
    p_a = 3.01 / 4.02
    p_b = 1.01 / 4.02
    expect = np.exp(-(2 * np.log(p_a) + np.log(p_b)) / 3)
    got = perplexity(m, [["a", "b", "a"]], sweeps=5, seed=0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_perplexity_skips_oov_docs_and_is_at_least_one():
    docs, _ = planted_corpus(n_docs=30, seed=10)
    m = fit_lda(docs, h=3, sweeps=30, seed=2)
    with_oov = docs[:5] + [["zzz", "qqq"]]
    val = perplexity(m, with_oov, sweeps=10, seed=0)
    assert val >= 1.0
    assert val == pytest.approx(perplexity(m, docs[:5], sweeps=10, seed=0))


def test_perplexity_errors_when_no_tokens_scorable():
    m = _model([[3, 1]], ["a", "b"])
    with pytest.raises(TopicsError):
        perplexity(m, [["zzz"], []])


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
    import json

    doc = json.loads(sidecar.read_text())
    assert doc["top_words"] == m.top_words(10)


def test_lda_file_rejects_corruption(tmp_path):
    docs, _ = planted_corpus(n_docs=10, seed=13)
    m = fit_lda(docs, h=2, sweeps=5, seed=0)
    path = tmp_path / "model.lda1"
    save_lda(m, path, sidecar=False)
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


def test_lda_truncated_at_every_offset_raises_topics_error(tmp_path):
    m = _model([[3, 1, 0], [1, 3, 2]], ["a", "bb", "ccc"])
    path = tmp_path / "model.lda1"
    save_lda(m, path, sidecar=False)
    raw = path.read_bytes()
    cut = tmp_path / "cut.lda1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(TopicsError, match="cut.lda1"):
            load_lda(cut)
