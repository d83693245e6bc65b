"""Propagation module tests.

Two checks are load-bearing. Matrix-form vs node-form equivalence: the
batched hop must equal an explicit per-neighbor message loop (self term +
discounted messages, elementwise interaction included) on random unit-weight
bipartite graphs. Fused vs tape equivalence: batch_loss's hand-derived
gradients must equal the autodiff tape's (tape.py) on random graphs. Both
oracles also run at acceptance scale elsewhere.
"""

import struct
import tracemalloc

import numpy as np
import pytest

import tape
from cosd.cpa import (
    Buffers,
    CpaError,
    CpaModel,
    batch_loss,
    infer_transform,
    init_cpa_weights,
    init_model,
    load_checkpoint,
    propagate,
    save_checkpoint,
    xavier_init,
)
from cosd.graph import BipartiteLaplacian, dropout_graph, laplacian
from tape import Tensor, final_reps, one_hop_message


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


def _model(e0, w1, w2, h, n_text):
    return CpaModel(e0=e0, w1=list(w1), w2=list(w2), h=h, n_text=n_text)


def test_embedding_table_blocks_and_row_helpers():
    n_text, h, d0 = 4, 2, 6
    data = np.arange((n_text + 3 * h + 3) * d0, dtype=float).reshape(-1, d0)
    model = _model(data, *init_cpa_weights(d0, 3, 1, seed=0), h, n_text)
    assert model.d0 == d0 and model.hops == 1
    assert np.array_equal(model.u, data[4:10])
    assert np.array_equal(model.z, data[10:])
    assert model.label_row(2) == 12
    # views: an in-place update of e0 shows in the blocks; a snapshot is a
    # copy of U, Z and the weights, with no text rows
    snapshot = model.snapshot()
    model.e0 += 1.0
    assert np.array_equal(model.z, data[10:])
    assert snapshot.n_text == 0 and snapshot.h == h
    assert np.array_equal(snapshot.e0 + 1.0, model.e0[n_text:])
    assert np.array_equal(snapshot.z + 1.0, model.z)
    assert snapshot.w1[0] is not model.w1[0]
    assert np.array_equal(snapshot.w1[0], model.w1[0])
    with pytest.raises(CpaError):
        _model(data, *init_cpa_weights(d0, 3, 1, seed=0), h, 5)


def test_init_embedding_table_seeds_blocks():
    rng = np.random.default_rng(0)
    texts = rng.standard_normal((5, 8))
    labels = rng.standard_normal((3, 8))
    model = init_model(texts, h=2, label_vecs=labels, seed=3, d1=4, hops=2,
                       weight_seed=7)
    # the text rows are a copy of the given rows
    assert model.n_text == 5 and np.array_equal(model.e0[:5], texts)
    assert not np.shares_memory(model.e0, texts)
    assert np.array_equal(model.z, labels)
    assert np.array_equal(model.u, xavier_init(6, 8, seed=3))
    bound = np.sqrt(6.0 / (6 + 8))
    assert (np.abs(model.u) <= bound).all()
    w1, w2 = init_cpa_weights(8, 4, 2, seed=7)
    for a, b in zip(model.w1 + model.w2, w1 + w2):
        assert np.array_equal(a, b)
    with pytest.raises(CpaError):
        init_model(texts, h=2, label_vecs=labels[:2], seed=0, weight_seed=1)
    with pytest.raises(CpaError):
        init_model(texts[:, :4], h=2, label_vecs=labels, seed=0,
                   weight_seed=1)


# --- weights -------------------------------------------------------------------


def test_init_cpa_weights_shapes_and_determinism():
    w1, w2 = init_cpa_weights(d0=10, d1=4, hops=3, seed=7)
    assert len(w1) == len(w2) == 3
    assert w1[0].shape == (10, 4) and w2[0].shape == (10, 4)
    assert w1[1].shape == (4, 4) and w1[2].shape == (4, 4)
    again1, again2 = init_cpa_weights(d0=10, d1=4, hops=3, seed=7)
    for a, b in zip(w1 + w2, again1 + again2):
        assert np.array_equal(a, b)
    # per-hop seeds differ, so w1 and w2 of the same hop must differ
    assert not np.array_equal(w1[0], w2[0])
    with pytest.raises(CpaError):
        init_cpa_weights(hops=0)


def test_cpa_weights_validation():
    e0 = np.zeros((1 + 3 + 3, 4))
    a, b = xavier_init(4, 3, 0), xavier_init(3, 3, 1)
    for w1, w2 in (([a], []), ([], []), ([a], [b]),
                   ([a, xavier_init(4, 3, 2)],
                    [a, xavier_init(4, 3, 3)]),  # chain break: 3 != 4
                   ([a, xavier_init(3, 2, 2)],
                    [a, xavier_init(3, 2, 3)]),  # later hop not d1 x d1
                   ([b], [b])):                  # first hop not d0 rows
        with pytest.raises(CpaError):
            _model(e0, w1, w2, h=1, n_text=1)
    ok = _model(e0, [a, b], [xavier_init(4, 3, 4), xavier_init(3, 3, 5)],
                h=1, n_text=1)
    assert ok.hops == 2


# --- propagation ----------------------------------------------------------------


def test_propagate_zero_graph_reduces_to_dense_layer():
    rng = np.random.default_rng(1)
    e0 = rng.standard_normal((5, 6))
    w1, w2 = init_cpa_weights(d0=6, d1=4, hops=2, seed=0)
    empty = BipartiteLaplacian(np.zeros((2, 3)), np.zeros((2, 3)))
    layers = propagate(e0, empty, w1, w2)
    expect = _lrelu(e0 @ w1[0])
    assert np.allclose(layers[0], expect)
    assert np.allclose(layers[1], _lrelu(expect @ w1[1]))


def test_propagate_layer_dims_default_widths():
    rng = np.random.default_rng(2)
    e0 = rng.standard_normal((5, 768))
    w1, w2 = init_cpa_weights(hops=3, seed=1)
    empty = BipartiteLaplacian(np.zeros((2, 3)), np.zeros((2, 3)))
    layers = propagate(e0, empty, w1, w2)
    assert [l.shape for l in layers] == [(5, 64), (5, 64), (5, 64)]


def test_propagate_matches_node_form_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n_text = int(rng.integers(2, 7))
        n_side = int(rng.integers(2, 6))
        hops = int(rng.integers(1, 4))
        m, adj = _unit_bipartite(rng, n_text, n_side)
        lap = laplacian(m)
        n = n_text + n_side
        e0 = rng.standard_normal((n, 6))
        w1, w2 = init_cpa_weights(d0=6, d1=5, hops=hops, seed=trial)
        layers = propagate(e0, lap, w1, w2)
        prev = e0
        for k in range(hops):
            prev = _node_form_hop(prev, adj, w1[k], w2[k])
            scale = max(1.0, np.abs(prev).max())
            assert np.abs(layers[k] - prev).max() / scale < 1e-6


def test_propagate_is_permutation_equivariant():
    rng = np.random.default_rng(4)
    m, _ = _unit_bipartite(rng, 4, 3)
    lap = laplacian(m)
    n = 7
    e0 = rng.standard_normal((n, 6))
    w1, w2 = init_cpa_weights(d0=6, d1=5, hops=2, seed=9)
    base = propagate(e0, lap, w1, w2)[-1]

    # node order is texts then side nodes, so permute within each block
    text_perm, side_perm = rng.permutation(4), rng.permutation(3)
    perm = np.concatenate([text_perm, 4 + side_perm])
    lap_p = BipartiteLaplacian(lap.to_text[np.ix_(text_perm, side_perm)],
                               lap.to_side[np.ix_(text_perm, side_perm)])
    out_p = propagate(e0[perm], lap_p, w1, w2)[-1]
    assert np.allclose(out_p, base[perm])


def test_propagate_shape_errors():
    e0 = np.ones((4, 6))
    w1, w2 = init_cpa_weights(d0=6, d1=3, hops=1, seed=0)
    with pytest.raises(CpaError):
        propagate(e0, BipartiteLaplacian(np.zeros((2, 1)), np.zeros((2, 1))),
                  w1, w2)
    with pytest.raises(CpaError):
        propagate(e0, BipartiteLaplacian(np.zeros((2, 3)), np.zeros((2, 3))),
                  w1, w2)


def test_propagate_gradients_reach_all_parameters():
    rng = np.random.default_rng(5)
    m, _ = _unit_bipartite(rng, 3, 6)  # h = 1: three topics, three labels
    model = _model(rng.standard_normal((9, 4)),
                   *init_cpa_weights(d0=4, d1=3, hops=2, seed=2), h=1,
                   n_text=3)
    gold = np.array([6, 7, 8])
    negs = np.array([[7, 8], [6, 8], [6, 7]])
    _, g_e0, g_w1, g_w2 = batch_loss(model, laplacian(m), np.arange(3), gold,
                                     negs)
    assert g_e0.shape == model.e0.shape and np.abs(g_e0).sum() > 0
    # hop weights reach every node row through propagation
    assert np.abs(g_e0[3:6]).sum() > 0
    for g, w in zip(g_w1 + g_w2, model.w1 + model.w2):
        assert g.shape == w.shape and np.abs(g).sum() > 0


def _random_case(rng, hops, rate):
    """A model on a random graph and a batch whose texts share label rows."""
    h = int(rng.integers(1, 3))
    n_text = int(rng.integers(4, 10))
    n_side = 3 * h + 3
    m = np.where(rng.random((n_text, n_side)) < 0.5,
                 rng.random((n_text, n_side)) + 0.05, 0.0)
    lap = dropout_graph(laplacian(m), rate, rate, rng)
    model = _model(rng.standard_normal((n_text + n_side, 7)),
                   *init_cpa_weights(d0=7, d1=4, hops=hops,
                                     seed=int(rng.integers(1000))),
                   h=h, n_text=n_text)
    b = int(rng.integers(3, n_text + 1))
    batch = rng.permutation(n_text)[:b]
    labels = rng.integers(0, 3, size=b)
    labels[:2] = labels[2]  # at least three texts share a gold label row
    gold = np.array([model.label_row(j) for j in labels])
    negs = np.array([[model.label_row(j) for j in range(3) if j != k]
                     for k in labels])
    return model, lap, batch, gold, negs


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_batch_loss_matches_tape_oracle(hops, rate):
    rng = np.random.default_rng(100 * hops + int(10 * rate))
    for _ in range(5):
        model, lap, batch, gold, negs = _random_case(rng, hops, rate)
        loss, g_e0, g_w1, g_w2 = batch_loss(model, lap, batch, gold, negs)
        e0 = Tensor(model.e0, requires_grad=True)
        w1 = [Tensor(w, requires_grad=True) for w in model.w1]
        w2 = [Tensor(w, requires_grad=True) for w in model.w2]
        oracle = tape.batch_loss(e0, w1, w2, lap, batch, gold, negs)
        tape.backward(oracle)
        assert abs(loss - oracle.data[0, 0]) <= 1e-12 * abs(oracle.data[0, 0])
        for got, ref in zip([g_e0] + g_w1 + g_w2, [e0] + w1 + w2):
            scale = np.abs(ref.grad).max()
            assert scale > 0
            assert np.abs(got - ref.grad).max() <= 1e-12 * scale


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_propagate_matches_tape_propagate(hops, rate):
    rng = np.random.default_rng(100 * hops + int(10 * rate))
    for _ in range(5):
        model, lap = _random_case(rng, hops, rate)[:2]
        got = propagate(model.e0, lap, model.w1, model.w2)
        ref = tape.propagate(Tensor(model.e0), lap,
                             [Tensor(w) for w in model.w1],
                             [Tensor(w) for w in model.w2])
        assert len(got) == len(ref) == hops
        for a, b in zip(got, ref):
            scale = np.abs(b.data).max()
            assert np.abs(a - b.data).max() <= 1e-12 * scale


def test_reused_buffers_hold_no_stale_state():
    rng = np.random.default_rng(12)
    model, base, batch, gold, negs = _random_case(rng, 3, 0.0)
    laps = [dropout_graph(base, 0.2, 0.2, rng) for _ in range(2)]
    perm = rng.permutation(len(batch))
    cases = [(laps[0], batch, gold, negs),
             (laps[1], batch[perm], gold[perm], negs[perm]),
             (laps[0], batch[:2], gold[:2], negs[:2])]
    buffers = Buffers(model.e0, model.w1)
    for case in cases:
        reused = batch_loss(model, *case, buffers=buffers)
    fresh = batch_loss(model, *cases[-1],
                       buffers=Buffers(model.e0, model.w1))
    assert reused.g_e0 is buffers.grads[0]
    assert fresh.g_e0 is not reused.g_e0
    assert reused.loss == fresh.loss
    for got, ref in zip([reused.g_e0] + reused.g_w1 + reused.g_w2,
                        [fresh.g_e0] + fresh.g_w1 + fresh.g_w2):
        assert np.array_equal(got, ref)


def test_batch_loss_allocates_no_table_per_call():
    # the acceptance size: 600 texts, H = 3, encoder width, two hops
    rng = np.random.default_rng(13)
    n_text, h, d0 = 600, 3, 768
    n_side = 3 * h + 3
    m = np.where(rng.random((n_text, n_side)) < 0.5,
                 rng.random((n_text, n_side)) + 0.05, 0.0)
    lap = dropout_graph(laplacian(m), 0.1, 0.1, rng)
    model = _model(rng.standard_normal((n_text + n_side, d0)),
                   *init_cpa_weights(d0=d0, d1=64, hops=2, seed=1), h=h,
                   n_text=n_text)
    batch = rng.permutation(n_text)[:32]
    labels = rng.integers(0, 3, size=32)
    gold = np.array([model.label_row(j) for j in labels])
    negs = np.array([[model.label_row(j) for j in range(3) if j != k]
                     for k in labels])
    buffers = Buffers(model.e0, model.w1)
    batch_loss(model, lap, batch, gold, negs, buffers=buffers)
    tracemalloc.start()
    try:
        batch_loss(model, lap, batch, gold, negs, buffers=buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * model.e0.nbytes


def test_batch_loss_validates_inputs():
    rng = np.random.default_rng(11)
    model, lap, batch, gold, negs = _random_case(rng, 2, 0.0)
    with pytest.raises(CpaError):
        batch_loss(model, lap, batch, gold[1:], negs)
    with pytest.raises(CpaError):
        batch_loss(model, lap, batch, gold, negs[:, :0])
    with pytest.raises(CpaError):
        batch_loss(model, lap, batch, gold + 3, negs)
    inf = _model(model.e0.copy(), model.w1, model.w2, model.h, model.n_text)
    inf.e0[batch[0]] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(CpaError, match="non-finite"):
            batch_loss(inf, lap, batch, gold, negs)
    other = _random_case(np.random.default_rng(1), 3, 0.0)[0]
    with pytest.raises(CpaError, match="buffers"):
        batch_loss(model, lap, batch, gold, negs,
                   buffers=Buffers(other.e0, other.w1))


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
    e0 = np.zeros((6, 3))
    zero = _model(e0, [np.zeros((3, 2))], [np.zeros((3, 2))], h=1, n_text=0)
    out = infer_transform(x, zero)
    assert np.array_equal(out, np.concatenate([x, np.zeros(2)]))

    rng = np.random.default_rng(7)
    w1 = rng.standard_normal((3, 2))
    only_w1 = _model(e0, [w1], [np.zeros((3, 2))], h=1, n_text=0)
    out = infer_transform(x, only_w1)
    assert np.allclose(out[3:], _lrelu(x @ w1))


def test_infer_transform_matches_literal_loop():
    rng = np.random.default_rng(8)
    w1, w2 = init_cpa_weights(d0=5, d1=4, hops=3, seed=3)
    x = rng.standard_normal((6, 5))
    got = infer_transform(x, _model(np.zeros((6, 5)), w1, w2, h=1, n_text=0))
    parts = [x]
    prev = x
    for k in range(3):
        prev = _lrelu(prev @ (w1[k] + w2[k]))
        parts.append(prev)
    assert np.allclose(got, np.concatenate(parts, axis=1))
    assert got.shape == (6, 5 + 3 * 4)


def test_infer_transform_rank_and_width_checks():
    model = _model(np.zeros((6, 4)), *init_cpa_weights(d0=4, d1=2, hops=2,
                                                       seed=0), h=1, n_text=0)
    vec = infer_transform(np.ones(4), model)
    mat = infer_transform(np.ones((1, 4)), model)
    assert vec.ndim == 1 and mat.ndim == 2
    assert np.allclose(vec, mat[0])
    with pytest.raises(CpaError):
        infer_transform(np.ones(5), model)


# --- checkpoints -------------------------------------------------------------------


def _cpa2_size(model):
    """20 header bytes, then [U; Z] and the weights as float64."""
    return 20 + 8 * ((3 * model.h + 3) * model.d0
                     + sum(w.size for w in model.w1 + model.w2))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    h, n_text, d0, d1, hops = 2, 4, 6, 3, 2
    e0 = rng.standard_normal((n_text + 3 * h + 3, d0))
    w1 = [rng.standard_normal((d0, d1)), rng.standard_normal((d1, d1))]
    w2 = [rng.standard_normal((d0, d1)), rng.standard_normal((d1, d1))]
    path = tmp_path / "model.cpa1"
    model = _model(e0, w1, w2, h=h, n_text=n_text)
    save_checkpoint(path, model)
    assert path.stat().st_size == _cpa2_size(model)
    back = load_checkpoint(path)
    # the text rows are not kept: the file holds the model's snapshot
    assert back.h == h and back.n_text == 0
    assert back.d0 == d0 and back.hops == hops
    assert np.array_equal(back.e0, e0[n_text:])
    for a, b in zip(back.w1 + back.w2, w1 + w2):
        assert np.array_equal(a, b)
    assert np.array_equal(back.u, e0[4:10])
    assert np.array_equal(back.z, e0[10:])
    again = tmp_path / "snapshot.cpa1"
    save_checkpoint(again, model.snapshot())
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_without_texts_reads_only_side_rows_and_weights(tmp_path):
    rng = np.random.default_rng(4)
    h, n_text, d0, d1 = 2, 400, 64, 8
    model = _model(rng.standard_normal((n_text + 3 * h + 3, d0)),
                   *init_cpa_weights(d0=d0, d1=d1, hops=2, seed=1), h=h,
                   n_text=n_text)
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, model)
    read = 8 * (model.u.size + model.z.size
                + sum(w.size for w in model.w1 + model.w2))
    assert path.stat().st_size == 20 + read
    tracemalloc.start()
    try:
        assert load_checkpoint(path).n_text == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < read + (1 << 16)
    # a non-finite topic row, label row or weight fails the load
    raw = bytearray(path.read_bytes())
    for at in (0, 3 * h + 2, 3 * h + 3):
        bad = raw.copy()
        bad[20 + 8 * d0 * at:28 + 8 * d0 * at] = struct.pack("<d", np.inf)
        path.write_bytes(bad)
        with pytest.raises(CpaError, match="model.cpa1: non-finite values"):
            load_checkpoint(path)


def test_checkpoint_rejects_corruption(tmp_path):
    e0 = np.zeros((1 + 3 + 3, 2))
    w1 = [np.zeros((2, 2))]
    w2 = [np.zeros((2, 2))]
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, _model(e0, w1, w2, h=1, n_text=1))
    raw = path.read_bytes()
    bad = tmp_path / "bad.cpa1"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CpaError):
        load_checkpoint(bad)
    # the retired CPA1 layout (with a text table) is not read
    old = tmp_path / "old.cpa1"
    old.write_bytes(b"CPA1" + raw[4:])
    with pytest.raises(CpaError, match="old.cpa1: bad magic, not a CPA2"):
        load_checkpoint(old)
    trailing = tmp_path / "trail.cpa1"
    trailing.write_bytes(raw + b"\x01")
    with pytest.raises(CpaError):
        load_checkpoint(trailing)
    no_hops = tmp_path / "no-hops.cpa1"
    no_hops.write_bytes(raw[:12] + bytes(4) + raw[16:])
    with pytest.raises(CpaError, match="no-hops.cpa1"):
        load_checkpoint(no_hops)


def test_checkpoint_truncated_at_every_offset_raises_cpa_error(tmp_path):
    e0 = np.ones((1 + 3 + 3, 2))
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, _model(e0, [np.ones((2, 2))], [np.ones((2, 2))],
                                 h=1, n_text=1))
    raw = path.read_bytes()
    cut = tmp_path / "cut.cpa1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(CpaError, match="cut.cpa1"):
            load_checkpoint(cut)


def test_checkpoint_loads_the_file_bytes_and_checks_sizes_first(tmp_path):
    rng = np.random.default_rng(3)
    model = _model(rng.standard_normal((5 + 6 + 3, 3)),
                   *init_cpa_weights(d0=3, d1=4, hops=2, seed=2), h=2,
                   n_text=5)
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    tables = np.frombuffer(raw[20:], dtype="<f8")
    back = load_checkpoint(path)
    got = np.concatenate([a.ravel() for a in [back.e0, *back.w1, *back.w2]])
    assert np.array_equal(got, tables)
    # a header field claiming 2**31 (topics, width or hops) fails on the
    # file's size before any table is allocated
    huge = tmp_path / "huge.cpa1"
    for offset in (16, 4, 8, 12):
        huge.write_bytes(raw[:offset] + struct.pack("<I", 2 ** 31)
                         + raw[offset + 4:])
        tracemalloc.start()
        try:
            with pytest.raises(CpaError, match="huge.cpa1: truncated"):
                load_checkpoint(huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(raw) + (1 << 16)


def test_save_checkpoint_validates_shapes():
    # save_checkpoint takes a model record, which cannot hold these shapes
    with pytest.raises(CpaError):
        _model(np.zeros((5, 2)), [np.zeros((2, 2))], [np.zeros((2, 2))],
               h=1, n_text=1)
    with pytest.raises(CpaError):
        _model(np.zeros((7, 2)), [np.zeros((2, 2))], [], h=1, n_text=1)
    with pytest.raises(CpaError):
        _model(np.zeros((7, 2)), [np.zeros((3, 2))], [np.zeros((3, 2))],
               h=1, n_text=1)
