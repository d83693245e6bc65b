"""Propagation module tests.

The load-bearing check is matrix-form vs node-form equivalence: the batched
hop must equal an explicit per-neighbor message loop (self term + discounted
messages, elementwise interaction included) on random unit-weight bipartite
graphs. The same oracle runs at acceptance scale elsewhere.
"""

import numpy as np
import pytest

import cosd.numerics as nm
from cosd.cpa import (
    CpaError,
    CpaWeights,
    EmbeddingTable,
    final_reps,
    infer_transform,
    init_cpa_weights,
    init_embedding_table,
    load_checkpoint,
    one_hop_message,
    propagate,
    save_checkpoint,
)
from cosd.graph import BipartiteLaplacian, laplacian
from cosd.numerics import Tensor, backward, xavier_init


def _lrelu(x, slope=0.01):
    return np.where(x >= 0, x, slope * x)


def _unit_bipartite(rng, n_text, n_side):
    """Random 0/1 bipartite adjacency with no isolated rows."""
    mask = rng.random((n_text, n_side)) < 0.5
    for i in range(n_text):
        if not mask[i].any():
            mask[i, rng.integers(0, n_side)] = True
    m = mask.astype(float)
    adj = np.zeros((n_text + n_side, n_text + n_side))
    adj[:n_text, n_text:] = mask
    adj[n_text:, :n_text] = mask.T
    return m, adj


def _node_form_hop(prev, adj, w1, w2, slope=0.01):
    """Literal per-node recursion: self term plus per-neighbor messages."""
    deg = adj.sum(axis=1)
    out = np.zeros((prev.shape[0], w1.shape[1]))
    for e in range(prev.shape[0]):
        acc = prev[e] @ w1
        for i in range(prev.shape[0]):
            if adj[e, i] != 0:
                acc = acc + adj[e, i] * one_hop_message(
                    prev[e], prev[i], deg[e], deg[i], w1, w2)
        out[e] = _lrelu(acc, slope)
    return out


# --- embedding table ----------------------------------------------------------


def test_embedding_table_blocks_and_row_helpers():
    n_text, h, d0 = 4, 2, 6
    data = np.arange((n_text + 3 * h + 3) * d0, dtype=float).reshape(-1, d0)
    table = EmbeddingTable(e0=Tensor(data, requires_grad=True),
                           n_text=n_text, h=h)
    assert table.n_nodes == 13
    assert table.d0 == d0
    assert np.array_equal(table.v, data[:4])
    assert np.array_equal(table.u, data[4:10])
    assert np.array_equal(table.z, data[10:])
    assert table.topic_row(0) == 4
    assert table.label_row(2) == 12
    with pytest.raises(CpaError):
        EmbeddingTable(e0=Tensor(data), n_text=5, h=h)


def test_init_embedding_table_seeds_blocks():
    rng = np.random.default_rng(0)
    texts = rng.standard_normal((5, 8))
    labels = rng.standard_normal((3, 8))
    table = init_embedding_table(texts, h=2, label_vecs=labels, seed=3, d0=8)
    assert table.e0.requires_grad
    assert np.array_equal(table.v, texts)
    assert np.array_equal(table.z, labels)
    bound = np.sqrt(6.0 / (6 + 8))
    assert (np.abs(table.u) <= bound).all()
    with pytest.raises(CpaError):
        init_embedding_table(texts, h=2, label_vecs=labels[:2], seed=0, d0=8)
    with pytest.raises(CpaError):
        init_embedding_table(texts[:, :4], h=2, label_vecs=labels, seed=0, d0=8)


# --- weights -------------------------------------------------------------------


def test_init_cpa_weights_shapes_and_determinism():
    w = init_cpa_weights(d0=10, d1=4, hops=3, seed=7)
    assert w.hops == 3
    assert w.w1[0].shape == (10, 4) and w.w2[0].shape == (10, 4)
    assert w.w1[1].shape == (4, 4) and w.w1[2].shape == (4, 4)
    assert len(w.params) == 6
    again = init_cpa_weights(d0=10, d1=4, hops=3, seed=7)
    for a, b in zip(w.params, again.params):
        assert np.array_equal(a.data, b.data)
    # per-hop seeds differ, so w1 and w2 of the same hop must differ
    assert not np.array_equal(w.w1[0].data, w.w2[0].data)
    with pytest.raises(CpaError):
        init_cpa_weights(hops=0)


def test_cpa_weights_validation():
    a, b = xavier_init(4, 3, 0), xavier_init(3, 3, 1)
    with pytest.raises(CpaError):
        CpaWeights(w1=[a], w2=[])
    with pytest.raises(CpaError):
        CpaWeights(w1=[a], w2=[b])
    with pytest.raises(CpaError):
        CpaWeights(w1=[a, xavier_init(4, 3, 2)],
                   w2=[a, xavier_init(4, 3, 3)])  # chain break: 3 != 4
    ok = CpaWeights(w1=[a, b], w2=[xavier_init(4, 3, 4), xavier_init(3, 3, 5)])
    arrays1, arrays2 = ok.as_arrays()
    arrays1[0][0, 0] += 100.0
    assert ok.w1[0].data[0, 0] != arrays1[0][0, 0]


# --- propagation ----------------------------------------------------------------


def test_propagate_zero_graph_reduces_to_dense_layer():
    rng = np.random.default_rng(1)
    e0 = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    weights = init_cpa_weights(d0=6, d1=4, hops=2, seed=0)
    empty = BipartiteLaplacian(np.zeros((2, 3)), np.zeros((2, 3)))
    layers = propagate(e0, empty, weights)
    expect = _lrelu(e0.data @ weights.w1[0].data)
    assert np.allclose(layers[0].data, expect)
    assert np.allclose(layers[1].data, _lrelu(expect @ weights.w1[1].data))


def test_propagate_layer_dims_default_widths():
    rng = np.random.default_rng(2)
    e0 = Tensor(rng.standard_normal((5, 768)), requires_grad=True)
    weights = init_cpa_weights(hops=3, seed=1)
    empty = BipartiteLaplacian(np.zeros((2, 3)), np.zeros((2, 3)))
    layers = propagate(e0, empty, weights)
    assert [l.shape for l in layers] == [(5, 64), (5, 64), (5, 64)]
    reps = final_reps(e0, layers)
    assert reps.shape == (5, 768 + 3 * 64)


def test_propagate_matches_node_form_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n_text = int(rng.integers(2, 7))
        n_side = int(rng.integers(2, 6))
        hops = int(rng.integers(1, 4))
        m, adj = _unit_bipartite(rng, n_text, n_side)
        lap = laplacian(m)
        n = n_text + n_side
        e0 = Tensor(rng.standard_normal((n, 6)), requires_grad=True)
        weights = init_cpa_weights(d0=6, d1=5, hops=hops, seed=trial)
        layers = propagate(e0, lap, weights)
        prev = e0.data
        for k in range(hops):
            prev = _node_form_hop(prev, adj, weights.w1[k].data,
                                  weights.w2[k].data)
            scale = max(1.0, np.abs(prev).max())
            assert np.abs(layers[k].data - prev).max() / scale < 1e-6


def test_propagate_is_permutation_equivariant():
    rng = np.random.default_rng(4)
    m, _ = _unit_bipartite(rng, 4, 3)
    lap = laplacian(m)
    n = 7
    e0 = rng.standard_normal((n, 6))
    weights = init_cpa_weights(d0=6, d1=5, hops=2, seed=9)
    base = propagate(Tensor(e0), lap, weights)[-1].data

    # node order is texts then side nodes, so permute within each block
    text_perm, side_perm = rng.permutation(4), rng.permutation(3)
    perm = np.concatenate([text_perm, 4 + side_perm])
    lap_p = BipartiteLaplacian(lap.to_text[np.ix_(text_perm, side_perm)],
                               lap.to_side[np.ix_(text_perm, side_perm)])
    out_p = propagate(Tensor(e0[perm]), lap_p, weights)[-1].data
    assert np.allclose(out_p, base[perm])


def test_propagate_shape_errors():
    e0 = Tensor(np.ones((4, 6)), requires_grad=True)
    weights = init_cpa_weights(d0=6, d1=3, hops=1, seed=0)
    with pytest.raises(CpaError):
        propagate(e0, BipartiteLaplacian(np.zeros((2, 1)), np.zeros((2, 1))),
                  weights)
    with pytest.raises(CpaError):
        propagate(e0, BipartiteLaplacian(np.zeros((2, 3)), np.zeros((2, 3))),
                  weights)


def test_propagate_gradients_reach_all_parameters():
    rng = np.random.default_rng(5)
    m, _ = _unit_bipartite(rng, 3, 3)
    lap = laplacian(m)
    e0 = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    weights = init_cpa_weights(d0=4, d1=3, hops=2, seed=2)
    reps = final_reps(e0, propagate(e0, lap, weights))
    backward(nm.mean_all(reps))
    assert e0.grad is not None and np.abs(e0.grad).sum() > 0
    for p in weights.params:
        assert p.grad is not None


# --- per-message oracle ----------------------------------------------------------


def test_one_hop_message_hand_cases():
    w1 = np.array([[1.0, 0.0], [0.0, 2.0]])
    w2 = np.array([[0.5, 0.0], [0.0, 0.5]])
    e_i = np.array([1.0, 3.0])
    zero = np.zeros(2)
    out = one_hop_message(zero, e_i, 4.0, 1.0, w1, w2)
    assert np.allclose(out, (e_i @ w1) / 2.0)
    out = one_hop_message(e_i, e_i, 1.0, 1.0, w1, w2)
    assert np.allclose(out, e_i @ w1 + (e_i * e_i) @ w2)


def test_one_hop_message_matches_scalar_expansion():
    rng = np.random.default_rng(6)
    e, e_i = rng.standard_normal(4), rng.standard_normal(4)
    w1, w2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    got = one_hop_message(e, e_i, 3.0, 2.0, w1, w2)
    for j in range(4):
        expect = sum(e_i[k] * w1[k, j] for k in range(4))
        expect += sum(e[k] * e_i[k] * w2[k, j] for k in range(4))
        expect /= np.sqrt(6.0)
        assert got[j] == pytest.approx(expect)


def test_one_hop_message_rejects_zero_degree():
    w = np.eye(2)
    with pytest.raises(CpaError):
        one_hop_message(np.ones(2), np.ones(2), 0.0, 1.0, w, w)
    with pytest.raises(CpaError):
        one_hop_message(np.ones(2), np.ones(2), 1.0, -2.0, w, w)


# --- final representations -------------------------------------------------------


def test_final_reps_blocks_and_degenerate_case():
    e0 = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    l1 = Tensor(np.ones((3, 2)))
    l2 = Tensor(2 * np.ones((3, 2)))
    reps = final_reps(e0, [l1, l2])
    assert reps.shape == (3, 8)
    assert np.array_equal(reps.data[:, :4], e0.data)
    assert np.array_equal(reps.data[:, 4:6], l1.data)
    assert np.array_equal(reps.data[:, 6:], l2.data)
    assert final_reps(e0, []) is e0
    with pytest.raises(CpaError):
        final_reps(e0, [Tensor(np.ones((2, 2)))])


# --- inference transform ----------------------------------------------------------


def test_infer_transform_zero_and_w2_zero_reductions():
    x = np.array([1.0, -2.0, 0.5])
    zero = CpaWeights(w1=[Tensor(np.zeros((3, 2)))],
                      w2=[Tensor(np.zeros((3, 2)))])
    out = infer_transform(x, zero)
    assert np.array_equal(out, np.concatenate([x, np.zeros(2)]))

    rng = np.random.default_rng(7)
    w1 = rng.standard_normal((3, 2))
    only_w1 = CpaWeights(w1=[Tensor(w1)], w2=[Tensor(np.zeros((3, 2)))])
    out = infer_transform(x, only_w1)
    assert np.allclose(out[3:], _lrelu(x @ w1))


def test_infer_transform_matches_literal_loop():
    rng = np.random.default_rng(8)
    weights = init_cpa_weights(d0=5, d1=4, hops=3, seed=3)
    x = rng.standard_normal((6, 5))
    got = infer_transform(x, weights)
    parts = [x]
    prev = x
    for k in range(3):
        prev = _lrelu(prev @ (weights.w1[k].data + weights.w2[k].data))
        parts.append(prev)
    assert np.allclose(got, np.concatenate(parts, axis=1))
    assert got.shape == (6, 5 + 3 * 4)


def test_infer_transform_rank_and_width_checks():
    weights = init_cpa_weights(d0=4, d1=2, hops=2, seed=0)
    vec = infer_transform(np.ones(4), weights)
    mat = infer_transform(np.ones((1, 4)), weights)
    assert vec.ndim == 1 and mat.ndim == 2
    assert np.allclose(vec, mat[0])
    with pytest.raises(CpaError):
        infer_transform(np.ones(5), weights)


# --- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    h, n_text, d0, d1, hops = 2, 4, 6, 3, 2
    e0 = rng.standard_normal((n_text + 3 * h + 3, d0))
    w1 = [rng.standard_normal((d0, d1)), rng.standard_normal((d1, d1))]
    w2 = [rng.standard_normal((d0, d1)), rng.standard_normal((d1, d1))]
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, e0, w1, w2, h=h, n_text=n_text)
    back = load_checkpoint(path)
    assert back.h == h and back.n_text == n_text
    assert back.d0 == d0 and back.hops == hops
    assert np.array_equal(back.e0, e0)
    for a, b in zip(back.w1 + back.w2, w1 + w2):
        assert np.array_equal(a, b)
    assert np.array_equal(back.v, e0[:4])
    assert np.array_equal(back.u, e0[4:10])
    assert np.array_equal(back.z, e0[10:])
    weights = back.weights()
    assert weights.hops == hops
    assert not weights.w1[0].requires_grad


def test_checkpoint_rejects_corruption(tmp_path):
    e0 = np.zeros((1 + 3 + 3, 2))
    w1 = [np.zeros((2, 2))]
    w2 = [np.zeros((2, 2))]
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, e0, w1, w2, h=1, n_text=1)
    raw = path.read_bytes()
    bad = tmp_path / "bad.cpa1"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CpaError):
        load_checkpoint(bad)
    trailing = tmp_path / "trail.cpa1"
    trailing.write_bytes(raw + b"\x01")
    with pytest.raises(CpaError):
        load_checkpoint(trailing)


def test_checkpoint_truncated_at_every_offset_raises_cpa_error(tmp_path):
    e0 = np.ones((1 + 3 + 3, 2))
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, e0, [np.ones((2, 2))], [np.ones((2, 2))],
                    h=1, n_text=1)
    raw = path.read_bytes()
    cut = tmp_path / "cut.cpa1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(CpaError, match="cut.cpa1"):
            load_checkpoint(cut)


def test_save_checkpoint_validates_shapes(tmp_path):
    with pytest.raises(CpaError):
        save_checkpoint(tmp_path / "x.cpa1", np.zeros((5, 2)),
                        [np.zeros((2, 2))], [np.zeros((2, 2))],
                        h=1, n_text=1)
    with pytest.raises(CpaError):
        save_checkpoint(tmp_path / "x.cpa1", np.zeros((7, 2)),
                        [np.zeros((2, 2))], [], h=1, n_text=1)
    with pytest.raises(CpaError):
        save_checkpoint(tmp_path / "x.cpa1", np.zeros((7, 2)),
                        [np.zeros((3, 2))], [np.zeros((3, 2))],
                        h=1, n_text=1)
