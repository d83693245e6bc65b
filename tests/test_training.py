"""Training-side tests: embedding file IO, attention pooling, losses,
seed derivation, and a miniature end-to-end run on the synthetic corpus.

Loss oracles are closed-form scalar evaluations of the tape's losses
(tape.py), which cpa.batch_loss is checked against; the run-level checks pin
determinism, best-checkpoint bookkeeping, and the frozen-batch descent
property at a tiny learning rate.
"""

import dataclasses
import re
import struct
import zlib

import numpy as np
import pytest

import cosd.training
from cosd import cpa, graph, inference, metrics
from cosd.corpus import (Dataset, Example, Split, Stance, load_semeval,
                         stance_subsets)
from cosd.synth import make_synthetic
from cosd.topics import fit_triples, fold_in_sets, perplexity, token_docs
from cosd.training import (
    AdamState,
    ConfigError,
    EmbeddingWriter,
    EncoderStore,
    RunConfig,
    TrainingError,
    adam_step,
    attention_weights,
    build_groups,
    derive_seed,
    fold_in_matrix,
    fold_in_seeds,
    group_keys,
    load_embeddings,
    missing_ids,
    save_embeddings,
    semantic_matrix,
    semantic_rep,
    train,
    train_group,
)
from tape import Tensor, backward, loss_contrastive

LN2 = float(np.log(2.0))


# --- embedding file IO --------------------------------------------------------


def _records(rng, dim=8):
    return [
        ("ex-1", rng.standard_normal((3, dim))),
        ("ex-2", rng.standard_normal((1, dim))),
        ("target:Policy", rng.standard_normal((1, dim))),
        ("label:favor", rng.standard_normal((1, dim))),
        ("label:none", rng.standard_normal((1, dim))),
        ("label:against", rng.standard_normal((2, dim))),
    ]


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = _records(rng)
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, records, dim=8)
    store = load_embeddings(path, expect_dim=8)
    assert store.dim == 8
    assert set(store.tokens) == {"ex-1", "ex-2"}
    assert set(store.targets) == {"Policy"}
    assert set(store.labels) == {"favor", "none", "against"}
    # storage is float32; loaded values are the rounded ones exactly
    assert np.array_equal(store.tokens["ex-1"],
                          records[0][1].astype(np.float32).astype(np.float64))
    assert np.allclose(store.labels["against"],
                       records[5][1].astype(np.float32).mean(axis=0))


def test_embeddings_writer_is_deterministic(tmp_path):
    records = _records(np.random.default_rng(1))
    a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_embeddings(a, records, dim=8)
    save_embeddings(b, records, dim=8)
    assert a.read_bytes() == b.read_bytes()


def test_embedding_writer_streams_the_save_embeddings_bytes(tmp_path):
    records = _records(np.random.default_rng(3))
    whole, streamed = tmp_path / "whole.emb1", tmp_path / "streamed.emb1"
    save_embeddings(whole, records, dim=8)
    with EmbeddingWriter(streamed, len(records), dim=8) as out:
        for rec_id, mat in records:
            out.write(rec_id, mat)
    assert streamed.read_bytes() == whole.read_bytes()


def test_embedding_writer_enforces_the_header_count(tmp_path):
    with pytest.raises(TrainingError, match="1 records written, header"):
        with EmbeddingWriter(tmp_path / "short.emb1", 2, dim=4) as out:
            out.write("a", np.ones(4))
    with EmbeddingWriter(tmp_path / "long.emb1", 1, dim=4) as out:
        out.write("a", np.ones(4))
        with pytest.raises(TrainingError, match="past the header's count"):
            out.write("b", np.ones(4))
    with pytest.raises(TrainingError, match="has dim 3"):
        with EmbeddingWriter(tmp_path / "dim.emb1", 1, dim=4) as out:
            out.write("a", np.ones(3))


def test_embeddings_single_record_store(tmp_path):
    path = tmp_path / "one.emb1"
    save_embeddings(path, [("only", np.ones((1, 8)))], dim=8)
    store = load_embeddings(path, expect_dim=8)
    assert (len(store.tokens), store.targets, store.labels) == (1, {}, {})


def test_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "narrow.emb1"
    save_embeddings(path, [("x", np.ones((1, 300)))], dim=300)
    with pytest.raises(TrainingError):
        load_embeddings(path)  # default expectation is 768


def test_embeddings_corruption_errors(tmp_path):
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, _records(np.random.default_rng(2)), dim=8)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.emb1"
    bad_magic.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(TrainingError):
        load_embeddings(bad_magic, expect_dim=8)

    trailing = tmp_path / "trail.emb1"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(TrainingError):
        load_embeddings(trailing, expect_dim=8)

    # padded to the size of a one-row record, so the count is plausible
    zero_rows = tmp_path / "zero.emb1"
    zero_rows.write_bytes(b"EMB1" + struct.pack("<II", 1, 4)
                          + struct.pack("<I", 1) + b"x"
                          + struct.pack("<I", 0) + bytes(16))
    with pytest.raises(TrainingError, match="zero rows"):
        load_embeddings(zero_rows, expect_dim=4)

    # a count the file cannot hold fails before anything is allocated
    huge_count = tmp_path / "count.emb1"
    huge_count.write_bytes(b"EMB1" + struct.pack("<II", 2**32 - 1, 4)
                           + raw[12:])
    with pytest.raises(TrainingError, match="records cannot fit"):
        load_embeddings(huge_count, expect_dim=4)

    dupe = tmp_path / "dupe.emb1"
    save_embeddings(dupe, [("x", np.ones((1, 4))), ("x", np.ones((1, 4)))],
                    dim=4)
    with pytest.raises(TrainingError):
        load_embeddings(dupe, expect_dim=4)

    bad_label = tmp_path / "label.emb1"
    save_embeddings(bad_label, [("label:maybe", np.ones((1, 4)))], dim=4)
    with pytest.raises(TrainingError):
        load_embeddings(bad_label, expect_dim=4)

    with pytest.raises(TrainingError):
        load_embeddings(tmp_path / "absent.emb1", expect_dim=8)


def test_embeddings_truncated_at_every_offset_raise_training_error(tmp_path):
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, [("ex-1", np.ones((2, 4))),
                           ("label:favor", np.ones((1, 4)))], dim=4)
    raw = path.read_bytes()
    cut = tmp_path / "cut.emb1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(TrainingError, match="cut.emb1") as err:
            load_embeddings(cut, expect_dim=4)
        # a skip past the end fails where it is made, inside the file
        at = re.search(r"at byte (\d+)$", str(err.value))
        assert at is None or int(at.group(1)) <= size
    cut.write_bytes(raw + b"\x00")
    with pytest.raises(TrainingError, match="trailing bytes"):
        load_embeddings(cut, expect_dim=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embeddings_reject_non_finite_values(tmp_path, bad):
    vecs = np.ones((2, 4))
    vecs[1, 2] = bad
    path = tmp_path / "bad.emb1"
    for rec_id in ("ex-1", "target:Policy", "label:none"):
        save_embeddings(path, [("fine", np.ones((1, 4))), (rec_id, vecs)],
                        dim=4)
        with pytest.raises(TrainingError, match=f"'{rec_id}' has non-finite"):
            # target and label records are read by the load, an example
            # record when its rows are asked for
            load_embeddings(path, expect_dim=4).tokens.get("ex-1")


def _record_offsets(records, dim):
    """Byte offset of each record of save_embeddings(records, dim)."""
    offsets, at = [], 12
    for rec_id, mat in records:
        offsets.append(at)
        at += 8 + len(rec_id.encode("utf-8")) + 4 * dim * len(np.atleast_2d(mat))
    return offsets


@pytest.mark.parametrize("rec_id", ["target:Policy", "label:none", "ex-2"])
def test_embeddings_reject_a_repeated_record(tmp_path, rec_id):
    records = _records(np.random.default_rng(4))
    records.append((rec_id, np.ones((1, 8))))
    path = tmp_path / "again.emb1"
    save_embeddings(path, records, dim=8)
    at = _record_offsets(records, 8)[-1]
    with pytest.raises(TrainingError,
                       match=f"duplicate record '{rec_id}' at byte {at}$"):
        load_embeddings(path, expect_dim=8)


def test_embeddings_subset_read_checks_only_the_values_it_reads(tmp_path):
    bad = np.ones((2, 4))
    bad[1, 3] = np.nan
    records = [("fine", np.ones((1, 4))), ("ex-1", bad),
               ("label:none", np.ones((1, 4)))]
    path = tmp_path / "bad.emb1"
    save_embeddings(path, records, dim=4)
    at = _record_offsets(records, 4)[1]
    store = load_embeddings(path, expect_dim=4)
    assert np.array_equal(store.tokens["fine"], np.ones((1, 4)))
    with pytest.raises(TrainingError,
                       match=f"'ex-1' has non-finite values at byte {at}$"):
        store.tokens["ex-1"]


def _reversed(path, records):
    save_embeddings(path, records[::-1], dim=8)


def _more_rows(path, records):
    save_embeddings(path, [(rec_id, np.ones((4, 8)) if rec_id == "ex-2"
                            else mat) for rec_id, mat in records], dim=8)


def _cut(path, records):
    path.write_bytes(path.read_bytes()[:_record_offsets(records, 8)[1] + 20])


def _one_more(path, records):
    save_embeddings(path, records + [("ex-3", np.ones((1, 8)))], dim=8)


@pytest.mark.parametrize("rewrite, message", [
    (_reversed, "record 'ex-2' changed since the file was indexed at byte "
                "120$"),
    (_more_rows, "record 'ex-2' changed since the file was indexed"),
    (_cut, "truncated"),
    (_one_more, "header changed since the file was indexed at byte 4$"),
])
def test_a_file_rewritten_after_indexing_fails_the_read(tmp_path, rewrite,
                                                        message):
    records = _records(np.random.default_rng(6))
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, records, dim=8)
    store = load_embeddings(path, expect_dim=8)
    rewrite(path, records)
    with pytest.raises(TrainingError, match=f"vecs.emb1: {message}"):
        store.tokens["ex-2"]


def _more_records(rng, dim=8):
    return _records(rng, dim) + [(f"ex-{i}", rng.standard_normal((i % 3 + 1,
                                                                   dim)))
                                 for i in range(3, 9)]


def test_semantic_rows_equal_each_record_stacked(tmp_path):
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, _more_records(np.random.default_rng(7)), dim=8)
    store = load_embeddings(path, expect_dim=8)
    examples = [Example(id=rec_id, text="t", target="Policy",
                        stance=Stance.NONE, split=Split.TEST, tokens=("t",))
                for rec_id in ("ex-5", "ex-1", "ex-8", "ex-1")]
    target = store.targets["Policy"]
    assert np.array_equal(semantic_matrix(examples, store), np.stack(
        [semantic_rep(store.tokens[ex.id], target) for ex in examples]))


@pytest.mark.parametrize("t", [1, 2, 17, 64])
def test_embeddings_pool_to_the_float64_mean(tmp_path, t):
    rng = np.random.default_rng(t)
    mats = {rec_id: rng.standard_normal((t, 768)).astype(np.float32)
            for rec_id in ("ex-1", "target:Policy", "label:favor")}
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, list(mats.items()))
    store = load_embeddings(path)
    want = {rec_id: mat.astype(np.float64).mean(axis=0)
            for rec_id, mat in mats.items()}
    # example rows keep the file's float32 values; pooled rows are float64
    assert store.tokens["ex-1"].dtype == np.float32
    assert np.array_equal(store.tokens["ex-1"], mats["ex-1"])
    for got, rec_id in ((store.tokens["ex-1"].mean(axis=0, dtype=np.float64),
                         "ex-1"),
                        (store.targets["Policy"], "target:Policy"),
                        (store.labels["favor"], "label:favor")):
        assert got.dtype == np.float64
        assert np.array_equal(got, want[rec_id])


def test_label_matrix_order_and_missing():
    dim = 4
    labels = {"favor": np.full(dim, 1.0), "none": np.full(dim, 2.0),
              "against": np.full(dim, 3.0)}
    store = EncoderStore(dim=dim, tokens={}, targets={}, labels=labels)
    mat = store.label_matrix()
    assert np.array_equal(mat, [[1.0] * 4, [2.0] * 4, [3.0] * 4])
    del store.labels["none"]
    with pytest.raises(TrainingError):
        store.label_matrix()


# --- attention pooling ----------------------------------------------------------


def test_semantic_rep_single_token_is_identity():
    token = np.arange(6, dtype=float).reshape(1, 6)
    target = np.ones(6)
    assert np.array_equal(semantic_rep(token, target), token[0])


def test_attention_weights_sum_and_orthonormal_ratio():
    dim = 768
    tokens = np.zeros((2, dim))
    tokens[0, 0] = 1.0
    tokens[1, 1] = 1.0
    target = tokens[0]
    w = attention_weights(tokens, target)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[0] / w[1] == pytest.approx(np.exp(1.0 / np.sqrt(dim)))


def test_semantic_rep_in_convex_hull():
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((5, 7))
    target = rng.standard_normal(7)
    rep = semantic_rep(tokens, target)
    assert (rep >= tokens.min(axis=0) - 1e-12).all()
    assert (rep <= tokens.max(axis=0) + 1e-12).all()


def test_attention_errors():
    with pytest.raises(TrainingError):
        attention_weights(np.zeros((0, 4)), np.ones(4))
    with pytest.raises(TrainingError):
        attention_weights(np.ones((2, 4)), np.ones(5))


def test_semantic_matrix_requires_records():
    store = EncoderStore(dim=4, tokens={}, targets={}, labels={})
    ex = Example(id="x", text="t", target="T", stance=Stance.FAVOR,
                 split=Split.TRAIN, tokens=("t",))
    with pytest.raises(TrainingError):
        semantic_matrix([ex], store)
    assert semantic_matrix([], store).shape == (0, 4)


# --- losses ----------------------------------------------------------------------


def _loss_rows(v, pos, negs):
    v_t = Tensor(np.atleast_2d(v), requires_grad=True)
    pos_t = Tensor(np.atleast_2d(pos), requires_grad=True)
    neg_ts = [Tensor(np.atleast_2d(n), requires_grad=True) for n in negs]
    return v_t, pos_t, neg_ts


def test_contrastive_equal_scores_is_ln2():
    v, pos, negs = _loss_rows([1.0, 0.0], [0.0, 1.0],
                              [[0.0, 2.0], [0.0, -1.0]])
    # all inner products with v are 0: every pos - neg margin is 0
    loss = loss_contrastive(v, pos, negs)
    assert loss.data[0, 0] == pytest.approx(LN2, abs=1e-12)


def test_contrastive_saturates_for_large_margin():
    v, pos, negs = _loss_rows([1.0], [20.0], [[0.0]])
    assert loss_contrastive(v, pos, negs).data[0, 0] < 1e-8


def test_contrastive_unit_margin_value():
    v, pos, negs = _loss_rows([1.0], [1.0], [[0.0]])
    expect = -np.log(1.0 / (1.0 + np.exp(-1.0)))
    got = loss_contrastive(v, pos, negs).data[0, 0]
    assert got == pytest.approx(expect, abs=1e-9)
    assert got == pytest.approx(0.313262, abs=1e-6)


def test_contrastive_positive_and_monotone():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((3, 5))
    pos = rng.standard_normal((3, 5))
    negs = [rng.standard_normal((3, 5)) for _ in range(2)]
    loss = loss_contrastive(*_loss_rows(v, pos, negs))
    assert loss.data[0, 0] > 0.0
    tighter = loss_contrastive(*_loss_rows(v, pos + 0.5 * v, negs))
    assert tighter.data[0, 0] < loss.data[0, 0]


def test_contrastive_needs_negatives_and_backprop_works():
    v, pos, _ = _loss_rows([1.0], [1.0], [])
    with pytest.raises(TrainingError):
        loss_contrastive(v, pos, [])
    v, pos, negs = _loss_rows([1.0, 2.0], [0.5, 0.5], [[1.0, -1.0]])
    loss = loss_contrastive(v, pos, negs)
    backward(loss)
    assert v.grad is not None and np.isfinite(v.grad).all()


# --- seeds and config --------------------------------------------------------------


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(1, "b", 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert 0 <= derive_seed(0) < 2 ** 32


@pytest.mark.parametrize("base", [0, 17, 2**32 + 5, 2**70 + 3])
def test_derive_seeds_equal_the_seed_sequence_oracle(base):
    ids = ["", "a", "tweet-1", "tweet-2", "Ünïcode ✓", "x" * 300]
    want = [int(np.random.SeedSequence(
        [base, 101, zlib.crc32(i.encode("utf-8"))]).generate_state(1)[0])
        for i in ids]
    assert [derive_seed(base, 101, i) for i in ids] == want
    # parts of any mix and count, as training derives them
    for parts in ([base], [base, 3, "group", 7], [base, 2**64, 0, "g"]):
        words = [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p
                 for p in parts]
        assert derive_seed(*parts) == int(
            np.random.SeedSequence(words).generate_state(1)[0])


def test_train_config_validation():
    RunConfig().validate()
    RunConfig(hops=0, alpha=0.0, dropout=0.0).validate()  # 0 = the default
    for bad in (dict(epochs=0), dict(dropout=1.0), dict(lr_cpa=0.0),
                dict(trials=0), dict(hops=-4), dict(alpha=-0.5),
                dict(beta=0.0), dict(lr_embed=float("nan")),
                dict(dataset="mystery"),
                dict(epochs=3.0), dict(joint=1)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()


# --- group data and the run ---------------------------------------------------------


@pytest.fixture(scope="module")
def synth_setup(synth_small):
    root, paths = synth_small
    dataset = load_semeval(root)
    store = load_embeddings(paths["embeddings"])
    target = dataset.targets[0]
    (triple,) = fit_triples(
        [[token_docs(docs) for docs in stance_subsets(dataset, target)]],
        h=2, sweeps=30, seeds=[3])
    return dataset, store, target, triple


def _group(dataset, store, config):
    """The record of the dataset's one training group."""
    (data,), _ = build_groups(dataset, store, config)
    return data


def _config(**kw):
    base = dict(epochs=3, batch_size=16, hops=2, h=2, seed=5, trials=2,
                lda_sweeps=30, fold_in_sweeps=10, d1=8, dropout=0.1)
    base.update(kw)
    return RunConfig(**base)


def test_missing_ids_reporting(synth_setup):
    dataset, store, target, _ = synth_setup
    assert missing_ids(store, dataset) == []
    poked = EncoderStore(dim=store.dim, tokens=dict(store.tokens),
                         targets={}, labels=dict(store.labels))
    first = dataset.examples[0].id
    del poked.tokens[first]
    missing = missing_ids(poked, dataset)
    assert first in missing
    assert f"target:{target}" in missing


def test_fold_in_matrix_rows_are_distributions(synth_setup):
    dataset, _, target, triple = synth_setup
    pool = dataset.train_pool(target)[:6]
    (mat,) = fold_in_matrix([(triple, pool)], sweeps=10, base_seed=5)
    assert mat.shape == (6, 6)
    assert np.allclose(mat.sum(axis=1), 1.0)
    # per-example seeds: a subset reproduces the same rows, alone or as
    # one of several pairs folded in together
    (sub,) = fold_in_matrix([(triple, pool[:2])], sweeps=10, base_seed=5)
    assert np.array_equal(sub, mat[:2])
    head, empty, tail = fold_in_matrix(
        [(triple, pool[:2]), (triple, []), (triple, pool[2:])], sweeps=10,
        base_seed=5)
    assert np.array_equal(head, mat[:2]) and np.array_equal(tail, mat[2:])
    assert empty.shape == (0, 6)
    (other_seed,) = fold_in_matrix([(triple, pool)], sweeps=10, base_seed=6)
    assert not np.array_equal(other_seed, mat)


def test_fold_in_matrix_equals_scalar_oracle_thirds(synth_setup):
    from test_topics import doc_topic_posterior

    dataset, _, target, triple = synth_setup
    pool = dataset.train_pool(target)[:8]
    (mat,) = fold_in_matrix([(triple, pool)], sweeps=7, base_seed=5)
    for row, ex in zip(mat, pool):
        seed = (derive_seed(5, 101) << 32) | zlib.crc32(ex.id.encode("utf-8"))
        parts = [doc_topic_posterior(m, ex.tokens, sweeps=7, seed=seed)
                 for m in triple.models]
        assert np.array_equal(row, np.concatenate(parts) / 3.0)


def test_fold_in_seeds_key_each_text_by_its_id():
    texts = [Example(id=i, text="t", target="T", stance=Stance.NONE,
                     split=Split.TRAIN, tokens=("t",))
             for i in ("", "a", "Ünïcode ✓", "x" * 300)]
    seeds = fold_in_seeds(2**70 + 3, texts)
    high = derive_seed(2**70 + 3, 101) << 32
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [high | zlib.crc32(ex.id.encode("utf-8"))
                              for ex in texts]
    assert fold_in_seeds(4, []).shape == (0,)


def test_perplexity_theta_is_the_training_fold_in_block(synth_setup):
    # one seeding rule: a text's chain under model j depends only on its
    # key and tokens, so its theta under that model alone is block j of the
    # row training folds it in with
    dataset, _, target, triple = synth_setup
    h = triple.h
    for j, examples in enumerate(stance_subsets(dataset, target)):
        seeds = fold_in_seeds(5, examples)
        docs = token_docs(examples)
        (rows,) = fold_in_matrix([(triple, examples)], sweeps=7, base_seed=5)
        (theta,) = fold_in_sets([([triple.models[j]], docs, seeds)], sweeps=7)
        assert np.array_equal(theta / 3.0, rows[:, j * h:(j + 1) * h])
        phi = triple.models[j].phi()
        index = triple.models[j].vocab.index
        log_lik = [np.log(t @ phi[:, [index[w] for w in doc if w in index]])
                   for t, doc in zip(theta, docs)]
        want = np.exp(-np.concatenate(log_lik).mean())
        assert perplexity(triple.models[j], docs,
                          theta) == pytest.approx(want, rel=1e-12)


def test_build_group_data_shapes(synth_setup):
    dataset, store, target, _ = synth_setup
    (data,), seconds = build_groups(dataset, store, _config())
    # the triple is fitted on the pool's stance subsets, seeded from the
    # base seed and the group's name
    (want,) = fit_triples([[token_docs(docs)
                            for docs in stance_subsets(dataset, target)]],
                          h=2, sweeps=30, seeds=[derive_seed(5, 7, target)])
    for got_model, want_model in zip(data.triple.models, want.models):
        assert np.array_equal(got_model.topic_word_counts,
                              want_model.topic_word_counts)
    assert data.graph_build_s >= 0.0
    assert set(seconds) == {"topic_fit_s", "fold_in_s"}
    n = len(dataset.train_pool(target))
    assert len(data.pool) == n
    assert data.dis_pool.shape == (n, 6)
    assert data.lap.rows == n + 6 + 3
    assert data.sem_val.shape == (len(data.val), store.dim)
    assert np.array_equal(data.sem_pool, semantic_matrix(data.pool, store))


def test_group_data_reads_each_record_once(synth_setup, monkeypatch):
    dataset, store, target, _ = synth_setup
    reads = []
    original = cosd.training.TokenRows._read

    def counting(self, src, rec_id, out=None):
        reads.append(rec_id)
        return original(self, src, rec_id, out)

    monkeypatch.setattr(cosd.training.TokenRows, "_read", counting)
    data = _group(dataset, store, _config())
    assert sorted(reads) == sorted(ex.id for ex in data.pool + data.val)


def test_train_forms_pool_semantic_rows_once_per_group(synth_setup,
                                                       monkeypatch):
    dataset, store, target, _ = synth_setup
    calls = []
    original = cosd.training.semantic_matrix

    def counting(examples, store):
        calls.append([ex.id for ex in examples])
        return original(examples, store)

    monkeypatch.setattr(cosd.training, "semantic_matrix", counting)
    train(dataset, store, _config(trials=2))
    pool = [ex.id for ex in dataset.train_pool(target)]
    assert calls.count(pool) == 1  # one group, two trials


def test_train_group_logs_and_best_checkpoint(synth_setup):
    dataset, store, target, _ = synth_setup
    config = _config()
    data = _group(dataset, store, config)
    result = train_group(data, store, config, trial_seed=7)
    assert [row["epoch"] for row in result.log_rows] == [1, 2, 3]
    best_from_log = max(row["val_micf"] for row in result.log_rows)
    assert result.best_val_micf == pytest.approx(best_from_log)
    assert result.log_rows[result.best_epoch - 1]["val_micf"] == \
        pytest.approx(result.best_val_micf)
    # the checkpoint holds U, Z and the weights, the shape load_checkpoint
    # returns
    assert result.checkpoint.h == 2
    assert result.checkpoint.side.shape == (3 * 2 + 3, store.dim)
    assert result.checkpoint.hops == config.hops
    assert all(np.isfinite(row["loss"]) for row in result.log_rows)
    assert len(result.val_preds) == len(data.val)


def test_train_group_text_rows_are_the_semantic_rows(synth_setup,
                                                     monkeypatch):
    dataset, store, target, _ = synth_setup
    config = _config()
    data = _group(dataset, store, config)
    n = len(data.pool)
    adam_params = []

    class Recording(AdamState):
        def __init__(self, params, lr):
            adam_params.append([p.shape for p in params])
            super().__init__(params, lr)

    buffers = []

    class Held(cpa.Buffers):
        def __init__(self, texts, model):
            super().__init__(texts, model)
            buffers.append(self)

    seen = []
    original = cosd.training._val_metrics

    def checked(data, model, config):
        (held,) = buffers
        seen.append((held.n, held.e0[:n].copy(), model.u.copy()))
        return original(data, model, config)

    monkeypatch.setattr(cosd.training, "AdamState", Recording)
    monkeypatch.setattr(cpa, "Buffers", Held)
    monkeypatch.setattr(cosd.training, "_val_metrics", checked)
    train_group(data, store, config, trial_seed=7)
    # Adam holds the topic and label rows and the weights, no text row
    assert adam_params[0] == [(3 * 2 + 3, store.dim)]
    assert adam_params[1] == [(store.dim, 8), (8, 8)] * 2
    assert len(seen) == config.epochs
    for n_text, texts, _ in seen:
        assert n_text == n
        assert np.array_equal(texts, data.sem_pool)  # bit for bit
    # while the topic rows train
    assert not np.array_equal(seen[0][2], seen[-1][2])


def _three_call_val_metrics(data, model, config):
    """(macf, micf, preds) of _val_metrics by one score_batch call per
    mode, each given only the rows its mode reads: the oracle."""
    golds = [ex.stance for ex in data.val]
    targets = [ex.target for ex in data.val]
    micf = {}
    for mode, sem, dis in (("no_sem", None, data.dis_val),
                           ("no_dis", data.sem_val, None),
                           ("full", data.sem_val, data.dis_val)):
        sem_scores, dis_scores = inference.score_batch(
            sem, dis, model, slope=config.leaky_slope)
        preds = inference.argmax_labels(sem_scores + dis_scores)
        macf, micf[mode] = metrics.macro_micro(preds, golds, targets)
    return macf, micf, preds


def test_val_metrics_scores_each_side_once_as_three_calls_would(
        tmp_path, monkeypatch):
    # heavy noise, so the modes' val labels differ and fall short of 1.0
    paths = make_synthetic(tmp_path, seed=5, n_train=60, n_val=45, n_test=3,
                           h=2, words_per_topic=6, noise=3.0)
    dataset = load_semeval(tmp_path)
    store = load_embeddings(paths["embeddings"])
    config = _config(epochs=4)
    data = _group(dataset, store, config)
    calls = []
    for name in ("semantic_scores", "distributed_scores"):
        def counting(*args, _name=name,
                     _original=getattr(inference, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(inference, name, counting)
    original = cosd.training._val_metrics
    epochs = []

    def checked(data, model, config):
        calls.clear()
        got = original(data, model, config)
        assert sorted(calls) == ["distributed_scores", "semantic_scores"]
        epochs.append((got, _three_call_val_metrics(data, model, config)))
        return got

    monkeypatch.setattr(cosd.training, "_val_metrics", checked)
    train_group(data, store, config, trial_seed=7)
    assert len(epochs) == config.epochs
    for got, want in epochs:
        assert got == want
    # the ablations' labels are not full mode's
    assert all(micf["full"] < 1.0 and micf["no_sem"] != micf["full"]
               for (_, micf, _), _ in epochs)


def test_frozen_batch_step_decreases_loss(synth_setup):
    dataset, store, target, _ = synth_setup
    config = _config(epochs=1)
    data = _group(dataset, store, config)
    model = cpa.init_model(2, store.label_matrix(), seed=1, d1=8, hops=2,
                           weight_seed=2)
    from cosd.corpus import LABELS

    batch = np.arange(4)
    gold = np.array([LABELS.index(ex.stance) for ex in data.pool[:4]])
    negs = np.array([[j for j in range(3) if j != g] for g in gold])
    buffers = cpa.Buffers(data.sem_pool, model)

    def batch_loss():
        return cpa.batch_loss(model, buffers, data.lap, batch, gold, negs)

    # as in training, the text rows stay fixed
    adam_e = AdamState([model.side], lr=1e-7)
    adam_w = AdamState(model.w1 + model.w2, lr=1e-7)
    before = batch_loss()
    adam_step(adam_e, [before.g_side])
    adam_step(adam_w, before.g_w1 + before.g_w2)
    after = batch_loss().loss
    assert after < before.loss


def test_train_run_deterministic_and_trial_sensitive(synth_setup):
    dataset, store, target, _ = synth_setup
    config = _config()
    result = train(dataset, store, config)
    again = train(dataset, store, config)
    assert result.report_csv == again.report_csv
    assert result.report_text == again.report_text
    assert len(result.trials) == 2
    a = result.trials[0].groups[target].checkpoint
    b = result.trials[1].groups[target].checkpoint
    assert not np.array_equal(a.side, b.side)
    same = again.trials[0].groups[target].checkpoint
    assert np.array_equal(a.side, same.side)
    # report declares one column per target plus the two aggregates
    header = result.report_csv.splitlines()[0].split(",")
    assert header == ["run", target, "MacF", "MicF"]
    assert [row.split(",")[0] for row in result.report_csv.splitlines()[1:]] \
        == ["trial-1", "trial-2", "mean"]


def test_six_target_train_equals_per_group_fits(tmp_path):
    # train fits every group's triple in one lockstep and folds every
    # group's texts in with one call; each group's triple and fold-in rows
    # must be those of its own one-group fit and fold-in
    paths = make_synthetic(tmp_path, seed=3, n_train=90, n_val=30, n_test=3,
                           h=2, words_per_topic=6)
    base = load_semeval(tmp_path)
    names = [f"Target {k}" for k in range(6)]
    # groups of unequal size, so their vocabularies and longest texts differ
    picks = np.random.default_rng(3).choice(
        6, size=len(base.examples), p=[0.35, 0.25, 0.15, 0.1, 0.08, 0.07])
    dataset = Dataset([dataclasses.replace(ex, target=names[k])
                       for ex, k in zip(base.examples, picks)], names,
                      base.val_carved)
    store = load_embeddings(paths["embeddings"])
    (vector,) = store.targets.values()
    store = dataclasses.replace(store,
                                targets=dict.fromkeys(names, vector))
    config = _config(trials=1, epochs=1)
    result = train(dataset, store, config)
    assert [data.group for data in result.groups] == names
    assert set(result.seconds) == {"topic_fit_s", "fold_in_s"}
    assert len({len(data.triple.favor.vocab) for data in result.groups}) > 1
    for data in result.groups:
        assert data.pool == dataset.train_pool(data.group)
        (want,) = fit_triples(
            [[token_docs(docs)
              for docs in stance_subsets(dataset, data.group)]],
            h=2, sweeps=30, seeds=[derive_seed(5, 7, data.group)])
        for got, own in zip(data.triple.models, want.models):
            assert got.vocab.tokens == own.vocab.tokens
            assert np.array_equal(got.topic_word_counts,
                                  own.topic_word_counts)
            assert got.log_joint == own.log_joint
        dis_pool, dis_val = fold_in_matrix(
            [(want, data.pool), (want, data.val)], sweeps=10, base_seed=5)
        assert np.array_equal(data.dis_pool, dis_pool)
        assert np.array_equal(data.dis_val, dis_val)


def test_train_rejects_missing_records(synth_setup):
    dataset, store, _, _ = synth_setup
    poked = EncoderStore(dim=store.dim, tokens=dict(store.tokens),
                         targets=dict(store.targets),
                         labels=dict(store.labels))
    del poked.tokens[dataset.examples[0].id]
    with pytest.raises(TrainingError):
        train(dataset, poked, _config())


def test_group_keys_per_target_or_joint(synth_setup):
    dataset, _, target, _ = synth_setup
    assert group_keys(dataset, joint=False) == [(target, target)]
    assert group_keys(dataset, joint=True) == [("joint", None)]
