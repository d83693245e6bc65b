"""Scoring-path tests: semantic and distributed scores, ablation modes,
end-to-end batch scoring on the synthetic corpus, retrieval, attention export.

distributed_scores is verified by brute-force enumeration of every per-block
inner product; a batch must agree with one-row calls row for row.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import record_rows
import cosd
from cosd.corpus import Split, Stance, load_semeval
from cosd.cpa import CpaModel, infer_transform, init_cpa_weights, propagate
from cosd.inference import (
    InferenceError,
    argmax_labels,
    distributed_scores,
    score_batch,
    semantic_scores,
    top_k_similar,
    zscore_rows,
)
from cosd.training import (RunConfig, TrainingError, build_groups,
                           export_attention, fold_in_matrix, load_embeddings,
                           semantic_matrix, train_group)

ZERO_WEIGHTS = ([np.zeros((3, 2))], [np.zeros((3, 2))])


def _model(u, weights, z=None):
    """A model with topic table u, label table z (zeros by default) and
    weights (w1, w2)."""
    z = np.zeros((3, u.shape[1])) if z is None else z
    return CpaModel(side=np.concatenate([u, z]), w1=weights[0],
                    w2=weights[1], h=len(u) // 3)


def _transform_vec(vec, model):
    """infer_transform of one vector, passed as a one-row matrix."""
    (row,) = infer_transform(vec[None], model)
    return row


def _scored(sem, dis, topic_table=np.eye(3)):
    """(sem scores, dis scores, labels) of score_batch on one row whose raw
    score triples are sem and dis; a side given as None is dropped.

    The identity label table makes the semantic scores the row itself. With
    H = 1, the identity topic table and zero weights, the distributed scores
    are the row's topic distribution, so dis must sum to 1.
    """
    sem, dis = score_batch(
        None if sem is None else np.array([sem], dtype=float),
        None if dis is None else np.array([dis], dtype=float),
        _model(topic_table, ZERO_WEIGHTS, np.eye(3)))
    return sem, dis, argmax_labels(sem + dis)


# --- semantic score -------------------------------------------------------------


def test_semantic_score_orthonormal_rows():
    z = np.eye(3, 6)
    assert np.allclose(semantic_scores(z[:1], z), [[1.0, 0.0, 0.0]])
    assert np.allclose(semantic_scores(np.zeros((1, 6)), z), [[0.0, 0.0, 0.0]])


def test_semantic_score_hand_inner_products():
    rng = np.random.default_rng(0)
    e = rng.standard_normal(4)
    z = rng.standard_normal((3, 4))
    got = semantic_scores(e[None], z)[0]
    for j in range(3):
        assert got[j] == pytest.approx(sum(e[k] * z[j, k] for k in range(4)))
    with pytest.raises(InferenceError):
        semantic_scores(e[None], z[:, :3])


def test_semantic_scores_batch_matches_single():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((5, 6))
    z = rng.standard_normal((3, 6))
    batch = semantic_scores(mat, z)
    assert batch.shape == (5, 3)
    for i in range(5):
        assert np.allclose(batch[i], semantic_scores(mat[i:i + 1], z)[0])


def test_semantic_scores_reject_non_finite_rows_and_labels():
    z = np.eye(3, 4)
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.ones((3, 4))
        rows[1, 3] = bad  # a column every label row weighs by 0
        with np.errstate(invalid="ignore"), \
                pytest.raises(InferenceError, match="non-finite"):
            semantic_scores(rows, z)
        labels = z.copy()
        labels[2, 0] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(InferenceError, match="non-finite"):
            semantic_scores(np.ones((2, 4)), labels)
    # overflow to infinity from finite inputs gives no label either
    with np.errstate(over="ignore"), \
            pytest.raises(InferenceError, match="non-finite"):
        semantic_scores(np.full((1, 4), 1e300), z * 1e10)
    # the scoring path raises rather than label a NaN row silently
    rows = np.eye(3)
    rows[0, 0] = np.nan
    with pytest.raises(InferenceError, match="non-finite"):
        score_batch(rows, None, _model(np.eye(3), ZERO_WEIGHTS, np.eye(3)))


# --- distributed score ------------------------------------------------------------


def _block_max_oracle(dis, model):
    """Per stance block, max over its topics of the transformed products."""
    u = model.u
    e_dis = _transform_vec(sum(dis[j] * u[j] for j in range(len(dis))),
                           model)
    products = [float(_transform_vec(u[j], model) @ e_dis)
                for j in range(len(dis))]
    h = len(dis) // 3
    return [max(products[b * h:(b + 1) * h]) for b in range(3)]


def test_distributed_rep_one_hot_and_uniform():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 5))
    model = _model(u, init_cpa_weights(d0=5, d1=3, hops=2, seed=3))
    u_tilde = infer_transform(u, model)
    one_hot = np.zeros(6)
    one_hot[4] = 1.0
    # a one-hot row mixes in exactly that topic's embedding
    expect = (u_tilde @ u_tilde[4]).reshape(3, 2).max(axis=1)
    assert np.allclose(distributed_scores(one_hot[None], model)[0], expect)
    uniform = np.full(6, 1.0 / 6.0)
    e_mean = _transform_vec(u.mean(axis=0), model)
    expect = (u_tilde @ e_mean).reshape(3, 2).max(axis=1)
    assert np.allclose(distributed_scores(uniform[None], model)[0], expect)


def test_distributed_rep_matches_loop_and_validates():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((6, 4))
    dis = rng.random(6)
    dis /= dis.sum()
    model = _model(u, init_cpa_weights(d0=4, d1=3, hops=1, seed=4))
    got = distributed_scores(dis[None], model)[0]
    assert np.allclose(got, _block_max_oracle(dis, model))
    with pytest.raises(InferenceError):
        distributed_scores((dis * 2.0)[None], model)
    with pytest.raises(InferenceError):
        distributed_scores(dis[None, :5], model)


def test_distributed_scores_reject_non_finite_rows():
    rng = np.random.default_rng(3)
    model = _model(rng.standard_normal((6, 4)),
                   init_cpa_weights(d0=4, d1=3, hops=1, seed=4))
    dis = np.full((3, 6), 1.0 / 6.0)
    for bad in (np.nan, np.inf):
        rows = dis.copy()
        rows[1, 2] = bad
        with pytest.raises(InferenceError, match="sum to 1"):
            distributed_scores(rows, model)
        # the scoring path raises rather than label a NaN row silently
        with pytest.raises(InferenceError, match="sum to 1"):
            score_batch(None, rows, model)
    # +inf and -inf in one row sum to NaN, not to 1
    rows = dis.copy()
    rows[0, :2] = np.inf, -np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(InferenceError, match="sum to 1"):
        distributed_scores(rows, model)


def test_distributed_score_h1_reduces_to_inner_products():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 5))
    dis = np.array([0.6, 0.3, 0.1])
    model = _model(u, init_cpa_weights(d0=5, d1=3, hops=1, seed=0))
    got = distributed_scores(dis[None], model)[0]
    e_dis = _transform_vec(dis @ u, model)
    u_tilde = infer_transform(u, model)
    assert np.allclose(got, u_tilde @ e_dis)


def test_distributed_score_zero_weights_uses_raw_blocks():
    rng = np.random.default_rng(5)
    h = 2
    u = rng.standard_normal((3 * h, 4))
    dis = rng.random(3 * h)
    dis /= dis.sum()
    zero = _model(u, ([np.zeros((4, 2))], [np.zeros((4, 2))]))
    got = distributed_scores(dis[None], zero)[0]
    raw = u @ (dis @ u)  # transform appends zero tails, inner products survive
    assert np.allclose(got, raw.reshape(3, h).max(axis=1))


def test_distributed_score_brute_force_h2():
    rng = np.random.default_rng(6)
    h = 2
    u = rng.standard_normal((3 * h, 5))
    dis = rng.random(3 * h)
    dis /= dis.sum()
    model = _model(u, init_cpa_weights(d0=5, d1=3, hops=2, seed=1))
    got = distributed_scores(dis[None], model)[0]
    e_dis = _transform_vec(dis @ u, model)
    products = [float(_transform_vec(u[j], model) @ e_dis)
                for j in range(6)]
    expect = [max(products[0], products[1]),
              max(products[2], products[3]),
              max(products[4], products[5])]
    assert np.allclose(got, expect)


def test_distributed_scores_batch_matches_single():
    rng = np.random.default_rng(7)
    h = 2
    u = rng.standard_normal((3 * h, 5))
    model = _model(u, init_cpa_weights(d0=5, d1=3, hops=2, seed=2))
    dis_matrix = rng.random((4, 3 * h))
    dis_matrix /= dis_matrix.sum(axis=1, keepdims=True)
    batch = distributed_scores(dis_matrix, model)
    assert batch.shape == (4, 3)
    for i in range(4):
        assert np.allclose(batch[i], _block_max_oracle(dis_matrix[i], model))
        assert np.allclose(batch[i],
                           distributed_scores(dis_matrix[i:i + 1], model)[0])
    assert distributed_scores(np.zeros((0, 6)), model).shape == (0, 3)


def _whole_width_scores(dis, model, slope):
    """Oracle: the scores formed at the texts' full width,
    infer_transform(dis @ U) @ infer_transform(U).T, then the block max."""
    sims = (infer_transform(dis @ model.u, model, slope)
            @ infer_transform(model.u, model, slope).T)
    return sims.reshape(len(dis), 3, -1).max(axis=2)


@pytest.mark.parametrize("h", [1, 2, 3, 5])
@pytest.mark.parametrize("hops", [1, 2, 3])
@pytest.mark.parametrize("slope", [0.0, 0.01])
def test_distributed_scores_hop_by_hop_equal_the_whole_width_product(
        h, hops, slope):
    rng = np.random.default_rng([h, hops, int(slope * 100)])
    model = _model(rng.standard_normal((3 * h, 24)),
                   init_cpa_weights(d0=24, d1=6, hops=hops, seed=h),
                   rng.standard_normal((3, 24)))
    dis = rng.random((40, 3 * h)) ** 3
    dis /= dis.sum(axis=1, keepdims=True)
    want = _whole_width_scores(dis, model, slope)
    got = distributed_scores(dis, model, slope)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    dis[7, -1] = np.nan
    with pytest.raises(InferenceError, match="sum to 1"):
        distributed_scores(dis, model, slope)


# --- modes and score normalization -------------------------------------------------


def test_argmax_tie_break_label_order():
    assert argmax_labels(np.array([[0.0, 0.0, 0.0]])) == [Stance.FAVOR]
    assert argmax_labels(np.array([[0.0, 1.0, 1.0]])) == [Stance.NONE]
    assert argmax_labels(np.array([[1.0, 0.0, 2.0]])) == [Stance.AGAINST]
    # rows with ties and NaNs label as one argmax per row would
    rows = np.random.default_rng(11).integers(0, 3, (200, 3)).astype(float)
    rows[::7, 1] = np.nan
    assert argmax_labels(rows) == [
        [Stance.FAVOR, Stance.NONE, Stance.AGAINST][int(np.argmax(row))]
        for row in rows]
    assert argmax_labels(np.zeros((0, 3))) == []


def test_bundle_modes_zero_one_side():
    sem = [0.5, 0.0, 0.0]
    dis = [0.0, 0.0, 1.0]
    full_sem, full_dis, full_labels = _scored(sem, dis)
    assert full_labels == [Stance.AGAINST]
    assert np.allclose(full_sem + full_dis, [[0.5, 0.0, 1.0]])
    no_sem = _scored(None, dis)
    assert np.allclose(no_sem[0], 0.0)
    assert np.allclose(no_sem[1], full_dis)
    assert no_sem[2] == [Stance.AGAINST]
    no_dis = _scored(sem, None)
    assert np.allclose(no_dis[1], 0.0)
    assert np.allclose(no_dis[0], full_sem)
    assert no_dis[2] == [Stance.FAVOR]
    with pytest.raises(InferenceError, match="no semantic rows and no topic"):
        _scored(None, None)


def test_bundle_constant_shift_invariance():
    rng = np.random.default_rng(8)
    sem = rng.standard_normal(3)
    dis = rng.random(3)
    dis /= dis.sum()
    base = _scored(sem, dis)
    # I + c 11^T as the topic table adds one constant to every dis score
    shifted = _scored(sem + 7.5, dis, topic_table=np.eye(3) + 0.5)
    delta = (shifted[0] + shifted[1]) - (base[0] + base[1])
    assert np.allclose(delta, delta[0, 0])
    assert shifted[2] == base[2]


def test_zscore_rows_standardizes():
    rows = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    out = zscore_rows(rows)
    assert np.allclose(out[0].mean(), 0.0)
    assert np.allclose(out[0].std(), 1.0)
    assert np.array_equal(out[1], np.zeros(3))
    # a constant side z-scores to zeros, so the other side alone decides
    sem, dis, _ = _scored([2.0, 2.0, 2.0], [0.0, 1.0, 0.0])
    sem, dis = zscore_rows(sem), zscore_rows(dis)
    assert np.array_equal(sem, np.zeros((1, 3)))
    assert argmax_labels(sem + dis) == [Stance.NONE]


def test_score_batch_rows_match_one_row_calls():
    rng = np.random.default_rng(9)
    h = 2
    z = rng.standard_normal((3, 5))
    u = rng.standard_normal((3 * h, 5))
    model = _model(u, init_cpa_weights(d0=5, d1=3, hops=2, seed=5), z)
    sem_rows = rng.standard_normal((6, 5))
    dis_rows = rng.random((6, 3 * h))
    dis_rows /= dis_rows.sum(axis=1, keepdims=True)
    for sem, dis in ((sem_rows, dis_rows), (None, dis_rows), (sem_rows, None)):
        batch_sem, batch_dis = score_batch(sem, dis, model)
        for i in range(6):
            one_sem, one_dis = score_batch(
                *(None if side is None else side[i:i + 1]
                  for side in (sem, dis)), model)
            assert np.allclose(one_sem[0], batch_sem[i])
            assert np.allclose(one_dis[0], batch_dis[i])
    with pytest.raises(InferenceError):
        score_batch(sem_rows[:5], dis_rows, model)
    empty_sem, empty_dis = score_batch(sem_rows[:0], dis_rows[:0], model)
    assert empty_sem.shape == empty_dis.shape == (0, 3)


def test_score_batch_takes_none_for_the_side_its_mode_drops():
    rng = np.random.default_rng(10)
    model = _model(rng.standard_normal((6, 5)),
                   init_cpa_weights(d0=5, d1=3, hops=2, seed=6),
                   rng.standard_normal((3, 5)))
    sem_rows = rng.standard_normal((4, 5))
    dis_rows = rng.random((4, 6))
    dis_rows /= dis_rows.sum(axis=1, keepdims=True)
    both_sem, both_dis = score_batch(sem_rows, dis_rows, model)
    # the side given as None reads as zeros, the other as when both are given
    no_sem = score_batch(None, dis_rows, model)
    assert np.array_equal(no_sem[0], np.zeros((4, 3)))
    assert np.array_equal(no_sem[1], both_dis)
    no_dis = score_batch(sem_rows, None, model)
    assert np.array_equal(no_dis[0], both_sem)
    assert np.array_equal(no_dis[1], np.zeros((4, 3)))
    with pytest.raises(InferenceError, match="no semantic rows and no topic"):
        score_batch(None, None, model)
    empty_sem, empty_dis = score_batch(None, dis_rows[:0], model)
    assert empty_sem.shape == empty_dis.shape == (0, 3)


# --- end-to-end on synthetic data ---------------------------------------------------


@pytest.fixture(scope="module")
def trained(synth_small):
    root, paths = synth_small
    dataset = load_semeval(root)
    store = load_embeddings(paths["embeddings"])
    config = RunConfig(epochs=4, batch_size=16, hops=2, h=2, seed=2,
                       trials=1, lda_sweeps=40, fold_in_sweeps=10, d1=8,
                       dropout=0.1)
    (data,), _ = build_groups(dataset, store, config)
    result = train_group(data, store, config, trial_seed=2)
    triple = data.triple
    return dataset, store, triple, data, result


def _score_examples(examples, store, triple, ckpt, mode="full"):
    """score_batch on the examples' rows, the side mode drops as None."""
    return score_batch(
        None if mode == "no_sem" else semantic_matrix(examples, store),
        None if mode == "no_dis"
        else fold_in_matrix([(triple, examples)], 10).rows[0], ckpt)


def test_predict_returns_bundles_and_beats_chance(trained):
    dataset, store, triple, data, result = trained
    test_examples = dataset.split(Split.TEST)
    sem, dis = _score_examples(test_examples, store, triple,
                               result.checkpoint)
    hits = sum(p is ex.stance for p, ex in zip(argmax_labels(sem + dis),
                                               test_examples))
    assert hits / len(test_examples) > 0.5  # chance is 1/3


def test_predict_deterministic_and_validates_records(trained):
    dataset, store, triple, data, result = trained
    examples = dataset.examples[:3]
    a = _score_examples(examples, store, triple, result.checkpoint)
    b = _score_examples(examples, store, triple, result.checkpoint)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    from dataclasses import replace

    ghost = replace(examples[0], id="not-in-store")
    with pytest.raises(TrainingError):
        _score_examples([ghost], store, triple, result.checkpoint)
    stranger = replace(examples[0], target="Unknown Target")
    with pytest.raises(TrainingError):
        _score_examples([stranger], store, triple, result.checkpoint)


def test_predict_modes_agree_with_bundle_rules(trained):
    dataset, store, triple, data, result = trained
    examples = dataset.examples[:5]
    full = _score_examples(examples, store, triple, result.checkpoint)
    no_sem = _score_examples(examples, store, triple, result.checkpoint,
                             mode="no_sem")
    no_dis = _score_examples(examples, store, triple, result.checkpoint,
                             mode="no_dis")
    assert np.allclose(no_sem[0], 0.0)
    assert np.array_equal(no_sem[1], full[1])
    assert np.allclose(no_dis[1], 0.0)
    assert np.array_equal(no_dis[0], full[0])


# --- retrieval and attention ---------------------------------------------------------


def test_final_train_reps_shape(trained):
    _, _, _, data, result = trained
    ckpt = result.checkpoint
    n = len(data.pool)
    # the pool's semantic rows are the text rows
    reps = propagate(data.sem_pool, ckpt, data.lap)
    width = ckpt.d0 + ckpt.hops * 8
    assert reps.shape == (n + 3 * ckpt.h + 3, width)
    assert np.isfinite(reps).all()
    assert np.array_equal(reps[:n, :ckpt.d0], data.sem_pool)


def test_top_k_similar_contract():
    reps = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.0, 0.0]])
    ids = ["a", "b", "c", "zero"]
    got = top_k_similar(np.array([1.0, 0.0]), reps, ids, k=4)
    assert got[0] == ("a", pytest.approx(1.0))
    sims = [s for _, s in got]
    assert sims == sorted(sims, reverse=True)
    assert got[-1][0] == "zero" and got[-1][1] == 0.0

    excl = top_k_similar(np.array([1.0, 0.0]), reps, ids, k=2, exclude_id="a")
    assert [rec_id for rec_id, _ in excl] == ["c", "b"]

    with pytest.raises(InferenceError):
        top_k_similar(np.array([1.0, 0.0]), reps, ids, k=5)
    with pytest.raises(InferenceError):
        top_k_similar(np.array([1.0, 0.0]), reps, ids, k=0)
    with pytest.raises(InferenceError):
        top_k_similar(np.zeros(2), reps, ids, k=1)
    with pytest.raises(InferenceError):
        top_k_similar(np.ones(3), reps, ids, k=1)
    with pytest.raises(InferenceError):
        top_k_similar(np.ones(2), reps, ids[:2], k=1)


def test_top_k_retrieves_same_stance_neighbors(trained):
    dataset, store, _, data, result = trained
    lap = data.lap
    reps = propagate(data.sem_pool, result.checkpoint, lap)[:len(data.pool)]
    ids = [ex.id for ex in data.pool]
    stance_of = {ex.id: ex.stance for ex in data.pool}
    query_ex = data.pool[0]
    got = top_k_similar(reps[0], reps, ids, k=2, exclude_id=query_ex.id)
    assert len(got) == 2
    assert all(rec_id != query_ex.id for rec_id, _ in got)
    # the text rows are separable semantic rows; neighbors share stance
    assert all(stance_of[rec_id] is query_ex.stance for rec_id, _ in got)


def test_export_attention_csv(trained, tmp_path):
    dataset, store, _, _, _ = trained
    ex = dataset.examples[0]
    out = tmp_path / "attn.csv"
    export_attention(ex, store, out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["token", "attention_weight"]
    body = rows[1:]
    (rows,) = record_rows(store.tokens, ex.id)
    assert len(body) == rows.shape[0]
    weights = [float(w) for _, w in body]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    if len(ex.tokens) == len(body):
        assert [name for name, _ in body] == list(ex.tokens)

    from dataclasses import replace

    with pytest.raises(TrainingError):
        export_attention(replace(ex, id="ghost"), store, tmp_path / "x.csv")


def test_inference_imports_without_training():
    # a fresh interpreter, so no other test has imported training already
    src = str(Path(cosd.__file__).resolve().parent.parent)
    code = ("import sys, cosd.inference; "
            "sys.exit('cosd.training' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
