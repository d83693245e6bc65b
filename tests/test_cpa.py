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


def _model(side, w1, w2, h):
    return CpaModel(side=side, w1=list(w1), w2=list(w2), h=h)


def _split(e0, lap):
    """(texts, side) of a node table over lap's texts."""
    return e0[:lap.n_text], e0[lap.n_text:]


def _hop_outputs(e0, lap, w1, w2, slope=0.01):
    """propagate over the node table e0 ([texts; U; Z], H from its side
    rows): E^1..E^l, its final reps past the first d0 columns, which are
    e0 itself."""
    texts, side = _split(e0, lap)
    model = _model(side, w1, w2, h=(len(side) - 3) // 3)
    reps = propagate(texts, model, lap, slope)
    d0, d1 = model.d0, model.d1
    assert np.array_equal(reps[:, :d0], e0)
    return [reps[:, d0 + k * d1:d0 + (k + 1) * d1] for k in range(model.hops)]


def test_embedding_table_blocks_and_row_helpers():
    h, d0 = 2, 6
    data = np.arange((3 * h + 3) * d0, dtype=float).reshape(-1, d0)
    model = _model(data, *init_cpa_weights(d0, 3, 1, seed=0), h)
    assert model.d0 == d0 and model.hops == 1
    assert model.shape == (h, d0, 3, 1)
    assert np.array_equal(model.u, data[:6])
    assert np.array_equal(model.z, data[6:])
    # views: an in-place update of the side table shows in the blocks; a
    # copy is a copy of U, Z and the weights
    copy = model.copy()
    model.side += 1.0
    assert np.array_equal(model.z, data[6:])
    assert copy.h == h
    assert np.array_equal(copy.side + 1.0, model.side)
    assert np.array_equal(copy.z + 1.0, model.z)
    assert copy.w1[0] is not model.w1[0]
    assert np.array_equal(copy.w1[0], model.w1[0])
    with pytest.raises(CpaError):
        _model(data, *init_cpa_weights(d0, 3, 1, seed=0), h + 1)


def test_init_embedding_table_seeds_blocks():
    rng = np.random.default_rng(0)
    texts = rng.standard_normal((5, 8))
    labels = rng.standard_normal((3, 8))
    model = init_model(h=2, label_vecs=labels, seed=3, d1=4, hops=2,
                       weight_seed=7)
    # the buffers' text rows are a copy of the given rows, and the node
    # table is texts, then topics, then labels
    buffers = Buffers(texts, model)
    assert buffers.n == 5 and np.array_equal(buffers.e0[:5], texts)
    assert not np.shares_memory(buffers.e0, texts)
    assert np.array_equal(buffers.e0[5:], model.side)
    assert np.array_equal(model.z, labels)
    assert np.array_equal(model.u, xavier_init(6, 8, seed=3))
    bound = np.sqrt(6.0 / (6 + 8))
    assert (np.abs(model.u) <= bound).all()
    w1, w2 = init_cpa_weights(8, 4, 2, seed=7)
    for a, b in zip(model.w1 + model.w2, w1 + w2):
        assert np.array_equal(a, b)
    with pytest.raises(CpaError):
        init_model(h=2, label_vecs=labels[:2], seed=0, weight_seed=1)
    with pytest.raises(CpaError):
        Buffers(texts[:, :4], model)


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
    side = np.zeros((3 + 3, 4))
    a, b = xavier_init(4, 3, 0), xavier_init(3, 3, 1)
    for w1, w2 in (([a], []), ([], []), ([a], [b]),
                   ([a, xavier_init(4, 3, 2)],
                    [a, xavier_init(4, 3, 3)]),  # chain break: 3 != 4
                   ([a, xavier_init(3, 2, 2)],
                    [a, xavier_init(3, 2, 3)]),  # later hop not d1 x d1
                   ([b], [b])):                  # first hop not d0 rows
        with pytest.raises(CpaError):
            _model(side, w1, w2, h=1)
    ok = _model(side, [a, b], [xavier_init(4, 3, 4), xavier_init(3, 3, 5)],
                h=1)
    assert ok.hops == 2


# --- propagation ----------------------------------------------------------------


def test_propagate_zero_graph_reduces_to_dense_layer():
    rng = np.random.default_rng(1)
    e0 = rng.standard_normal((8, 6))
    w1, w2 = init_cpa_weights(d0=6, d1=4, hops=2, seed=0)
    empty = BipartiteLaplacian(np.zeros((2, 6)), np.zeros((2, 6)))
    layers = _hop_outputs(e0, empty, w1, w2)
    expect = _lrelu(e0 @ w1[0])
    assert np.allclose(layers[0], expect)
    assert np.allclose(layers[1], _lrelu(expect @ w1[1]))


def test_propagate_layer_dims_default_widths():
    rng = np.random.default_rng(2)
    e0 = rng.standard_normal((8, 768))
    w1, w2 = init_cpa_weights(hops=3, seed=1)
    empty = BipartiteLaplacian(np.zeros((2, 6)), np.zeros((2, 6)))
    layers = _hop_outputs(e0, empty, w1, w2)
    assert [l.shape for l in layers] == [(8, 64), (8, 64), (8, 64)]


def test_propagate_matches_node_form_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n_text = int(rng.integers(2, 7))
        n_side = 3 * int(rng.integers(1, 3)) + 3  # H = 1 or 2
        hops = int(rng.integers(1, 4))
        m, adj = _unit_bipartite(rng, n_text, n_side)
        lap = laplacian(m)
        n = n_text + n_side
        e0 = rng.standard_normal((n, 6))
        w1, w2 = init_cpa_weights(d0=6, d1=5, hops=hops, seed=trial)
        layers = _hop_outputs(e0, lap, w1, w2)
        prev = e0
        for k in range(hops):
            prev = _node_form_hop(prev, adj, w1[k], w2[k])
            scale = max(1.0, np.abs(prev).max())
            assert np.abs(layers[k] - prev).max() / scale < 1e-6


def test_propagate_is_permutation_equivariant():
    rng = np.random.default_rng(4)
    m, _ = _unit_bipartite(rng, 4, 6)
    lap = laplacian(m)
    n = 10
    e0 = rng.standard_normal((n, 6))
    w1, w2 = init_cpa_weights(d0=6, d1=5, hops=2, seed=9)
    base = _hop_outputs(e0, lap, w1, w2)[-1]

    # node order is texts then side nodes, so permute within each block
    text_perm, side_perm = rng.permutation(4), rng.permutation(6)
    perm = np.concatenate([text_perm, 4 + side_perm])
    lap_p = BipartiteLaplacian(lap.to_text[np.ix_(text_perm, side_perm)],
                               lap.to_side[np.ix_(text_perm, side_perm)])
    out_p = _hop_outputs(e0[perm], lap_p, w1, w2)[-1]
    assert np.allclose(out_p, base[perm])


def test_propagate_shape_errors():
    texts = np.ones((2, 6))
    model = _model(np.ones((6, 6)), *init_cpa_weights(d0=6, d1=3, hops=1,
                                                      seed=0), h=1)
    with pytest.raises(CpaError):
        propagate(texts, model,
                  BipartiteLaplacian(np.zeros((2, 5)), np.zeros((2, 5))))
    # as many nodes as the table, but not its texts and side rows
    with pytest.raises(CpaError):
        propagate(texts, model,
                  BipartiteLaplacian(np.zeros((3, 5)), np.zeros((3, 5))))
    with pytest.raises(CpaError):
        propagate(np.ones((2, 5)), model,
                  BipartiteLaplacian(np.zeros((2, 6)), np.zeros((2, 6))))


def test_propagate_gradients_reach_all_parameters():
    rng = np.random.default_rng(5)
    m, _ = _unit_bipartite(rng, 3, 6)  # h = 1: three topics, three labels
    lap = laplacian(m)
    texts, side = _split(rng.standard_normal((9, 4)), lap)
    model = _model(side, *init_cpa_weights(d0=4, d1=3, hops=2, seed=2), h=1)
    gold = np.array([0, 1, 2])
    negs = np.array([[1, 2], [0, 2], [0, 1]])
    _, g_side, g_w1, g_w2 = batch_loss(model, Buffers(texts, model), lap,
                                       np.arange(3), gold, negs)
    assert g_side.shape == model.side.shape and np.abs(g_side).sum() > 0
    # hop weights reach every node row through propagation
    assert np.abs(g_side[:3]).sum() > 0
    for g, w in zip(g_w1 + g_w2, model.w1 + model.w2):
        assert g.shape == w.shape and np.abs(g).sum() > 0


def _random_case(rng, hops, rate):
    """A model, its texts, a random graph and a batch (text rows, gold and
    negative label indices) whose texts share label rows."""
    h = int(rng.integers(1, 3))
    n_text = int(rng.integers(4, 10))
    n_side = 3 * h + 3
    m = np.where(rng.random((n_text, n_side)) < 0.5,
                 rng.random((n_text, n_side)) + 0.05, 0.0)
    lap = dropout_graph(laplacian(m), rate, rng)
    texts, side = _split(rng.standard_normal((n_text + n_side, 7)), lap)
    model = _model(side, *init_cpa_weights(d0=7, d1=4, hops=hops,
                                           seed=int(rng.integers(1000))),
                   h=h)
    b = int(rng.integers(3, n_text + 1))
    batch = rng.permutation(n_text)[:b]
    gold = rng.integers(0, 3, size=b)
    gold[:2] = gold[2]  # at least three texts share a gold label row
    negs = np.array([[j for j in range(3) if j != k] for k in gold])
    return model, texts, lap, batch, gold, negs


def _tape_table(model, texts):
    """The node table [texts; U; Z] as a tape leaf."""
    return Tensor(np.concatenate([texts, model.side]), requires_grad=True)


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_batch_loss_matches_tape_oracle(hops, rate):
    rng = np.random.default_rng(100 * hops + int(10 * rate))
    for _ in range(5):
        model, texts, lap, batch, gold, negs = _random_case(rng, hops, rate)
        loss, g_side, g_w1, g_w2 = batch_loss(
            model, Buffers(texts, model), lap, batch, gold, negs)
        e0 = _tape_table(model, texts)
        w1 = [Tensor(w, requires_grad=True) for w in model.w1]
        w2 = [Tensor(w, requires_grad=True) for w in model.w2]
        # the tape takes node rows: labels follow the texts and topics
        first = len(texts) + 3 * model.h
        oracle = tape.batch_loss(e0, w1, w2, lap, batch, first + gold,
                                 first + negs)
        tape.backward(oracle)
        assert abs(loss - oracle.data[0, 0]) <= 1e-12 * abs(oracle.data[0, 0])
        # the text rows are data: the side rows are e0's trained rows
        for got, ref in zip([g_side] + g_w1 + g_w2,
                            [e0.grad[len(texts):]]
                            + [w.grad for w in w1 + w2]):
            scale = np.abs(ref).max()
            assert scale > 0
            assert np.abs(got - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_propagate_matches_tape_propagate(hops, rate):
    rng = np.random.default_rng(100 * hops + int(10 * rate))
    for _ in range(5):
        model, texts, lap = _random_case(rng, hops, rate)[:3]
        e0 = np.concatenate([texts, model.side])
        got = _hop_outputs(e0, lap, model.w1, model.w2)
        ref = tape.propagate(Tensor(e0), lap,
                             [Tensor(w) for w in model.w1],
                             [Tensor(w) for w in model.w2])
        assert len(got) == len(ref) == hops
        for a, b in zip(got, ref):
            scale = np.abs(b.data).max()
            assert np.abs(a - b.data).max() <= 1e-12 * scale


def test_reused_buffers_hold_no_stale_state():
    rng = np.random.default_rng(12)
    model, texts, base, batch, gold, negs = _random_case(rng, 3, 0.0)
    laps = [dropout_graph(base, 0.2, rng) for _ in range(2)]
    perm = rng.permutation(len(batch))
    cases = [(laps[0], batch, gold, negs),
             (laps[1], batch[perm], gold[perm], negs[perm]),
             (laps[0], batch[:2], gold[:2], negs[:2])]
    buffers = Buffers(texts, model)
    for case in cases:
        reused = batch_loss(model, buffers, *case)
    fresh = batch_loss(model, Buffers(texts, model), *cases[-1])
    assert reused.g_side is buffers.g_side
    assert fresh.g_side is not reused.g_side
    assert reused.loss == fresh.loss
    for got, ref in zip([reused.g_side] + reused.g_w1 + reused.g_w2,
                        [fresh.g_side] + fresh.g_w1 + fresh.g_w2):
        assert np.array_equal(got, ref)


def test_reused_buffers_follow_the_models_side_rows():
    rng = np.random.default_rng(15)
    model, texts, lap, batch, gold, negs = _random_case(rng, 2, 0.1)
    buffers = Buffers(texts, model)
    first = batch_loss(model, buffers, lap, batch, gold, negs)
    # an update in place between two calls, as adam_step makes
    model.side -= 0.5 * first.g_side
    reused = batch_loss(model, buffers, lap, batch, gold, negs)
    fresh = batch_loss(model, Buffers(texts, model), lap, batch, gold, negs)
    assert reused.loss != first.loss
    assert reused.loss == fresh.loss
    for got, ref in zip([reused.g_side] + reused.g_w1 + reused.g_w2,
                        [fresh.g_side] + fresh.g_w1 + fresh.g_w2):
        assert np.array_equal(got, ref)
    assert np.array_equal(buffers.e0, np.concatenate([texts, model.side]))


def test_batch_loss_allocates_no_table_per_call():
    # the acceptance size: 600 texts, H = 3, encoder width, two hops
    rng = np.random.default_rng(13)
    n_text, h, d0 = 600, 3, 768
    n_side = 3 * h + 3
    m = np.where(rng.random((n_text, n_side)) < 0.5,
                 rng.random((n_text, n_side)) + 0.05, 0.0)
    lap = dropout_graph(laplacian(m), 0.1, rng)
    texts, side = _split(rng.standard_normal((n_text + n_side, d0)), lap)
    model = _model(side, *init_cpa_weights(d0=d0, d1=64, hops=2, seed=1),
                   h=h)
    batch = rng.permutation(n_text)[:32]
    gold = rng.integers(0, 3, size=32)
    negs = np.array([[j for j in range(3) if j != k] for k in gold])
    buffers = Buffers(texts, model)
    batch_loss(model, buffers, lap, batch, gold, negs)
    tracemalloc.start()
    try:
        batch_loss(model, buffers, lap, batch, gold, negs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * buffers.e0.nbytes


def test_batch_loss_validates_inputs():
    rng = np.random.default_rng(11)
    model, texts, lap, batch, gold, negs = _random_case(rng, 2, 0.0)
    buffers = Buffers(texts, model)
    with pytest.raises(CpaError):
        batch_loss(model, buffers, lap, batch, gold[1:], negs)
    with pytest.raises(CpaError):
        batch_loss(model, buffers, lap, batch, gold, negs[:, :0])
    with pytest.raises(CpaError):
        batch_loss(model, buffers, lap, batch, gold + 3, negs)
    with pytest.raises(CpaError):
        batch_loss(model, buffers, lap, batch + len(texts), gold, negs)
    inf = texts.copy()
    inf[batch[0]] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(CpaError, match="non-finite"):
            batch_loss(model, Buffers(inf, model), lap, batch, gold, negs)
    other, other_texts = _random_case(np.random.default_rng(1), 3, 0.0)[:2]
    with pytest.raises(CpaError, match="buffers"):
        batch_loss(model, Buffers(other_texts, other), lap, batch, gold,
                   negs)


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
    x = np.array([[1.0, -2.0, 0.5]])
    side = np.zeros((6, 3))
    zero = _model(side, [np.zeros((3, 2))], [np.zeros((3, 2))], h=1)
    out = infer_transform(x, zero)
    assert np.array_equal(out, np.concatenate([x, np.zeros((1, 2))], axis=1))

    rng = np.random.default_rng(7)
    w1 = rng.standard_normal((3, 2))
    only_w1 = _model(side, [w1], [np.zeros((3, 2))], h=1)
    out = infer_transform(x, only_w1)
    assert np.allclose(out[:, 3:], _lrelu(x @ w1))


def test_infer_transform_matches_literal_loop():
    rng = np.random.default_rng(8)
    w1, w2 = init_cpa_weights(d0=5, d1=4, hops=3, seed=3)
    x = rng.standard_normal((6, 5))
    got = infer_transform(x, _model(np.zeros((6, 5)), w1, w2, h=1))
    parts = [x]
    prev = x
    for k in range(3):
        prev = _lrelu(prev @ (w1[k] + w2[k]))
        parts.append(prev)
    assert np.allclose(got, np.concatenate(parts, axis=1))
    assert got.shape == (6, 5 + 3 * 4)


def test_infer_transform_rank_and_width_checks():
    model = _model(np.zeros((6, 4)), *init_cpa_weights(d0=4, d1=2, hops=2,
                                                       seed=0), h=1)
    assert infer_transform(np.ones((1, 4)), model).shape == (1, 4 + 2 * 2)
    # a matrix of rows in, a matrix out: a 1-D row or a 3-D stack is refused
    for bad in (np.ones(4), np.ones((1, 1, 4)), np.ones((1, 5)), np.ones(5)):
        with pytest.raises(CpaError):
            infer_transform(bad, model)


# --- checkpoints -------------------------------------------------------------------


def _cpa2_size(model):
    """20 header bytes, then [U; Z] and the weights as float64."""
    return 20 + 8 * ((3 * model.h + 3) * model.d0
                     + sum(w.size for w in model.w1 + model.w2))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    h, d0, d1, hops = 2, 6, 3, 2
    side = rng.standard_normal((3 * h + 3, d0))
    w1 = [rng.standard_normal((d0, d1)), rng.standard_normal((d1, d1))]
    w2 = [rng.standard_normal((d0, d1)), rng.standard_normal((d1, d1))]
    path = tmp_path / "model.cpa1"
    model = _model(side, w1, w2, h=h)
    save_checkpoint(path, model)
    assert path.stat().st_size == _cpa2_size(model)
    back = load_checkpoint(path)
    # the file holds the model as it is
    assert back.h == h
    assert back.d0 == d0 and back.hops == hops
    assert np.array_equal(back.side, side)
    for a, b in zip(back.w1 + back.w2, w1 + w2):
        assert np.array_equal(a, b)
    assert np.array_equal(back.u, side[:6])
    assert np.array_equal(back.z, side[6:])
    again = tmp_path / "copy.cpa1"
    save_checkpoint(again, model.copy())
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_without_texts_reads_only_side_rows_and_weights(tmp_path):
    rng = np.random.default_rng(4)
    h, d0, d1 = 2, 64, 8
    model = _model(rng.standard_normal((3 * h + 3, d0)),
                   *init_cpa_weights(d0=d0, d1=d1, hops=2, seed=1), h=h)
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, model)
    read = 8 * (model.u.size + model.z.size
                + sum(w.size for w in model.w1 + model.w2))
    assert path.stat().st_size == 20 + read
    tracemalloc.start()
    try:
        assert load_checkpoint(path).h == h
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
    side = np.zeros((3 + 3, 2))
    w1 = [np.zeros((2, 2))]
    w2 = [np.zeros((2, 2))]
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, _model(side, w1, w2, h=1))
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
    side = np.ones((3 + 3, 2))
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, _model(side, [np.ones((2, 2))], [np.ones((2, 2))],
                                 h=1))
    raw = path.read_bytes()
    cut = tmp_path / "cut.cpa1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(CpaError, match="cut.cpa1"):
            load_checkpoint(cut)


def test_checkpoint_loads_the_file_bytes_and_checks_sizes_first(tmp_path):
    rng = np.random.default_rng(3)
    model = _model(rng.standard_normal((6 + 3, 3)),
                   *init_cpa_weights(d0=3, d1=4, hops=2, seed=2), h=2)
    path = tmp_path / "model.cpa1"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    tables = np.frombuffer(raw[20:], dtype="<f8")
    back = load_checkpoint(path)
    got = np.concatenate([a.ravel() for a in [back.side, *back.w1, *back.w2]])
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
               h=1)
    with pytest.raises(CpaError):
        _model(np.zeros((6, 2)), [np.zeros((2, 2))], [], h=1)
    with pytest.raises(CpaError):
        _model(np.zeros((6, 2)), [np.zeros((3, 2))], [np.zeros((3, 2))],
               h=1)
