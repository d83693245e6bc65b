"""Propagation module tests.

Two checks are load-bearing. Matrix-form vs node-form equivalence: the
batched hop must equal an explicit per-neighbor message loop (self term +
discounted messages, elementwise interaction included) on random unit-weight
bipartite graphs. Fused vs tape equivalence: batch_loss's hand-derived
gradients must equal the autodiff tape's (tape.py) on random graphs. Both
oracles also run at acceptance scale elsewhere. batch_loss's full step, one
label-score pass over every text that masks out each text's gold column, is
also checked against the gathered-rows loss it replaced
(_gathered_batch_loss), which takes explicit negative labels, over all
rows, in order and permuted, at random and acceptance sizes.
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
    Step,
    _forward,
    _leaky_relu,
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
    _, g_side, g_w1, g_w2 = batch_loss(model, Buffers(texts, model), lap,
                                       gold)
    assert g_side.shape == model.side.shape and np.abs(g_side).sum() > 0
    # hop weights reach every node row through propagation
    assert np.abs(g_side[:3]).sum() > 0
    for g, w in zip(g_w1 + g_w2, model.w1 + model.w2):
        assert g.shape == w.shape and np.abs(g).sum() > 0


def _rivals(gold):
    """Each text's two other label indices, ascending: the explicit
    negatives the slow references take, (n, 2)."""
    return np.array([[j for j in range(3) if j != g] for g in gold])


def _random_case(rng, hops, rate):
    """A model, its texts, a random graph and every text's gold label
    index, some texts sharing a label row."""
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
    gold = rng.integers(0, 3, size=n_text)
    gold[:2] = gold[2]  # at least three texts share a gold label row
    return model, texts, lap, gold


def _tape_table(model, texts):
    """The node table [texts; U; Z] as a tape leaf."""
    return Tensor(np.concatenate([texts, model.side]), requires_grad=True)


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_batch_loss_matches_tape_oracle(hops, rate):
    rng = np.random.default_rng(100 * hops + int(10 * rate))
    for _ in range(5):
        model, texts, lap, gold = _random_case(rng, hops, rate)
        loss, g_side, g_w1, g_w2 = batch_loss(
            model, Buffers(texts, model), lap, gold)
        e0 = _tape_table(model, texts)
        w1 = [Tensor(w, requires_grad=True) for w in model.w1]
        w2 = [Tensor(w, requires_grad=True) for w in model.w2]
        # the tape takes node rows: labels follow the texts and topics
        first = len(texts) + 3 * model.h
        oracle = tape.batch_loss(e0, w1, w2, lap, np.arange(len(texts)),
                                 first + gold, first + _rivals(gold))
        tape.backward(oracle)
        assert abs(loss - oracle.data[0, 0]) <= 1e-12 * abs(oracle.data[0, 0])
        # the text rows are data: the side rows are e0's trained rows
        for got, ref in zip([g_side] + g_w1 + g_w2,
                            [e0.grad[len(texts):]]
                            + [w.grad for w in w1 + w2]):
            scale = np.abs(ref).max()
            assert scale > 0
            assert np.abs(got - ref).max() <= 1e-12 * scale


# The gathered-rows loss batch_loss replaced, kept as its oracle: it takes
# a batch of text rows and explicit negative labels, gathers every batch
# text's and label node's final rep, one copy per batch row, and scatters
# their gradients back with np.add.at. Over all text rows, in any order,
# each with its two other labels as negatives, it is one full step.
def _gathered_batch_loss(model: CpaModel, buf: Buffers,
                          lap: BipartiteLaplacian,
                          batch: np.ndarray, gold: np.ndarray,
                          negs: np.ndarray, slope: float = 0.01) -> Step:
    """One mini-batch's loss and its gradients for (side, w1, w2), over
    buf's texts and the model's current side rows.

    The final rep of a node is [E^0 | E^1 | ... | E^l] over the propagated
    hops. With v a batch text's rep and z its gold (z+) or negative (z-)
    label node's, the loss is the mean over batch rows and negatives of
    -log sigmoid(v.z+ - v.z-). batch: (B,) text rows; gold: (B,) and negs:
    (B, J) label indices, 0..2 in label order.

    The gradients are views into buf and hold until the next call with the
    same buffers overwrites them.
    """
    batch, gold = np.asarray(batch), np.asarray(gold)
    negs = np.asarray(negs)
    b = len(batch)
    if (gold.shape != (b,) or negs.ndim != 2 or negs.shape[0] != b
            or negs.shape[1] < 1):
        raise CpaError(f"batch {batch.shape}, gold {gold.shape} and "
                       f"negatives {negs.shape} disagree")
    labels = np.concatenate([gold, *negs.T])
    n, side_rows = buf.n, 3 * model.h + labels  # label rows within [U; Z]
    if not (0 <= batch.min() <= batch.max() < n
            and 0 <= labels.min() <= labels.max() < 3):
        raise CpaError("batch row out of range")
    rows = np.concatenate([batch, n + side_rows])
    _forward(model, lap, slope, buf)
    layers = [buf.e0] + buf.layers

    # forward: every gathered final rep, in the order of rows
    reps = np.concatenate([layer[rows] for layer in layers], axis=1)
    v, z_pos = reps[:b], reps[b:2 * b]
    z_negs = [reps[(2 + j) * b:(3 + j) * b] for j in range(negs.shape[1])]
    pos = (v * z_pos).sum(axis=1, keepdims=True)
    margins = [pos - (v * z).sum(axis=1, keepdims=True) for z in z_negs]
    acc = np.logaddexp(0.0, -margins[0])
    for m in margins[1:]:
        acc = acc + np.logaddexp(0.0, -m)
    loss = (acc * (1.0 / len(margins))).mean()

    # backward to the gathered reps; d(-log sigmoid(m))/dm = -sigmoid(-m)
    coef = (1.0 / b) * (1.0 / len(margins)) * -1.0
    g_margins = [coef * np.exp(-np.logaddexp(0.0, m)) for m in margins]
    g_pos = sum(g_margins[1:], g_margins[0])
    g_v = g_pos * z_pos
    for g, z in zip(g_margins, z_negs):
        g_v -= g * z
    g_reps = np.concatenate([g_v, g_pos * v] + [-g * v for g in g_margins])
    bounds = np.cumsum([0] + [layer.shape[1] for layer in layers])

    # backward through the hops, last to first. With G = d loss / d pre
    # and G' = G + L^T G: g_W1 = E^T G', g_W2 = (E (*) L E)^T G, and E gets
    # G' W1^T + (G W2^T) (*) L E + L^T((G W2^T) (*) E), plus its own
    # gathered rows (one accumulating scatter per layer: label rows repeat
    # within a batch).
    g_out = buf.grads[-1]
    g_out.fill(0.0)
    np.add.at(g_out, rows, g_reps[:, bounds[-2]:])
    for k in reversed(range(model.hops)):
        prev, nbr, prod = layers[k], buf.nbr[k], buf.prod[k]
        np.multiply(g_out, slope, out=g_out, where=buf.neg[k])  # now G
        np.matmul(prod.T, g_out, out=buf.g_w2[k])
        g_sum = lap.transpose_matmul(g_out, out=buf.narrow)
        g_sum += g_out                                          # G'
        np.matmul(prev.T, g_sum, out=buf.g_w1[k])
        if k == 0:
            break
        g_in = buf.grads[k - 1]
        np.matmul(g_sum, model.w1[k].T, out=g_in)
        # g_sum's last read is above, so narrow is free
        g_prod = np.matmul(g_out, model.w2[k].T, out=buf.narrow)
        g_in += np.multiply(g_prod, nbr, out=prod)
        g_prod *= prev
        g_in += lap.transpose_matmul(g_prod, out=nbr)
        np.add.at(g_in, rows, g_reps[:, bounds[k]:bounds[k + 1]])
        g_out = g_in
    # hop 0 continued: only E^0's side rows n: train and get a gradient;
    # their L^T term reads the text rows, as in transpose_matmul
    g_side = np.matmul(g_sum[n:], model.w1[0].T, out=buf.g_side)
    g_prod = np.matmul(g_out, model.w2[0].T, out=buf.wide)
    g_side += np.multiply(g_prod[n:], nbr[n:], out=prod[n:])
    g_prod[:n] *= prev[:n]
    g_side += np.matmul(lap.to_text.T, g_prod[:n], out=nbr[n:])
    np.add.at(g_side, side_rows, g_reps[b:, :bounds[1]])
    if not (np.isfinite(loss) and all(
            np.isfinite(g).all() for g in [g_side, *buf.g_w1, *buf.g_w2])):
        raise CpaError("non-finite loss or gradient")
    return Step(float(loss), g_side, buf.g_w1, buf.g_w2)


def _assert_matches_gathered(model, texts, lap, gold, order=None,
                             tol=1e-13):
    """The full step equals the gathered oracle over every text row, taken
    in `order` (default: row order), within tol relative."""
    order = np.arange(len(texts)) if order is None else order
    got = batch_loss(model, Buffers(texts, model), lap, gold)
    ref = _gathered_batch_loss(model, Buffers(texts, model), lap, order,
                               gold[order], _rivals(gold)[order])
    assert abs(got.loss - ref.loss) <= tol * abs(ref.loss)
    for a, b in zip([got.g_side] + got.g_w1 + got.g_w2,
                    [ref.g_side] + ref.g_w1 + ref.g_w2):
        # an all-zero gradient must be matched exactly
        assert np.abs(a - b).max() <= tol * np.abs(b).max()


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_batch_loss_matches_gathered_oracle(hops, rate):
    rng = np.random.default_rng(200 * hops + int(10 * rate))
    for _ in range(5):
        _assert_matches_gathered(*_random_case(rng, hops, rate))


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_batch_loss_matches_a_permuted_all_rows_batch(hops):
    # the mean over the texts sums them in another order, so equal to
    # rounding only
    rng = np.random.default_rng(300 + hops)
    for _ in range(5):
        case = _random_case(rng, hops, 0.1)
        _assert_matches_gathered(*case, order=rng.permutation(len(case[1])),
                                 tol=1e-12)


def _acceptance_case(rng):
    """600 texts, H = 3, the encoder width and two hops, as at acceptance
    scale, with every text's gold label index."""
    n_text, h, d0 = 600, 3, 768
    n_side = 3 * h + 3
    m = np.where(rng.random((n_text, n_side)) < 0.5,
                 rng.random((n_text, n_side)) + 0.05, 0.0)
    lap = dropout_graph(laplacian(m), 0.1, rng)
    texts, side = _split(rng.standard_normal((n_text + n_side, d0)), lap)
    model = _model(side, *init_cpa_weights(d0=d0, d1=64, hops=2, seed=1),
                   h=h)
    gold = rng.integers(0, 3, size=n_text)
    return model, texts, lap, gold


def test_batch_loss_matches_gathered_oracle_at_acceptance_size():
    _assert_matches_gathered(*_acceptance_case(np.random.default_rng(14)))


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
    model, texts, base, gold = _random_case(rng, 3, 0.0)
    laps = [dropout_graph(base, 0.2, rng) for _ in range(2)]
    perm = rng.permutation(len(gold))
    cases = [(laps[0], gold), (laps[1], gold[perm]), (laps[0], gold)]
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
    model, texts, lap, gold = _random_case(rng, 2, 0.1)
    buffers = Buffers(texts, model)
    first = batch_loss(model, buffers, lap, gold)
    # an update in place between two calls, as adam_step makes
    model.side -= 0.5 * first.g_side
    reused = batch_loss(model, buffers, lap, gold)
    fresh = batch_loss(model, Buffers(texts, model), lap, gold)
    assert reused.loss != first.loss
    assert reused.loss == fresh.loss
    for got, ref in zip([reused.g_side] + reused.g_w1 + reused.g_w2,
                        [fresh.g_side] + fresh.g_w1 + fresh.g_w2):
        assert np.array_equal(got, ref)
    assert np.array_equal(buffers.e0, np.concatenate([texts, model.side]))


def test_batch_loss_allocates_no_table_per_call():
    model, texts, lap, gold = _acceptance_case(
        np.random.default_rng(13))
    buffers = Buffers(texts, model)
    batch_loss(model, buffers, lap, gold)
    tracemalloc.start()
    try:
        batch_loss(model, buffers, lap, gold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # text-by-3 and label-by-width arrays only: no gathered copy of the
    # text rows or of a label row, and no table-wide scatter
    assert peak < buffers.e0.nbytes / 8


def test_batch_loss_validates_inputs():
    rng = np.random.default_rng(11)
    model, texts, lap, gold = _random_case(rng, 2, 0.0)
    buffers = Buffers(texts, model)
    # labels for fewer texts than the buffers hold raise before the forward
    # copies the side rows in
    before = buffers.e0.copy()
    shifted = model.copy()
    shifted.side += 1.0
    with pytest.raises(CpaError, match="disagree"):
        batch_loss(shifted, buffers, lap, gold[1:])
    assert np.array_equal(buffers.e0, before)
    with pytest.raises(CpaError, match="disagree"):
        batch_loss(model, buffers, lap, gold[:, None])
    with pytest.raises(CpaError):
        batch_loss(model, buffers, lap, gold + 3)
    with pytest.raises(CpaError):
        batch_loss(model, buffers, lap, gold - 3)
    with pytest.raises(CpaError, match="disagree"):
        batch_loss(model, Buffers(texts[:0], model),
                   BipartiteLaplacian(np.zeros((0, len(model.side))),
                                      np.zeros((0, len(model.side)))),
                   gold[:0])
    inf = texts.copy()
    inf[0] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(CpaError, match="non-finite"):
            batch_loss(model, Buffers(inf, model), lap, gold)
    other, other_texts, _, other_gold = _random_case(
        np.random.default_rng(1), 3, 0.0)
    with pytest.raises(CpaError, match="buffers"):
        batch_loss(model, Buffers(other_texts, other), lap, other_gold)


# --- the leaky ReLU and the rival mask ---------------------------------------
#
# The forward and batch_loss as they were before the leaky ReLU became a
# product with exact multipliers and the loss read each text's rivals
# through a mask over its label scores, kept as their oracle: the leaky ReLU
# and its backward are masked multiplies, np.multiply(..., slope, where=neg),
# and the loss takes explicit negative labels, one margin per negative,
# gathers the batch rows' label scores and scatters into them with
# np.add.at. Called with every text row in order and each text's two other
# labels as negatives, it is bitwise the full step.


def _masked_forward(model, lap, slope, buf):
    buf.e0[buf.n:] = model.side
    prev = buf.e0
    for k, (a, b) in enumerate(zip(model.w1, model.w2)):
        nbr, prod, pre = buf.nbr[k], buf.prod[k], buf.layers[k]
        lap.matmul(prev, out=nbr)
        np.multiply(prev, nbr, out=prod)
        np.matmul(prev, a, out=pre)
        pre += lap.matmul(pre, out=buf.narrow)
        pre += np.matmul(prod, b, out=buf.narrow)
        np.less(pre, 0.0, out=buf.neg[k])
        np.multiply(pre, slope, out=pre, where=buf.neg[k])
        prev = pre


def _masked_batch_loss(model, buf, lap, batch, gold, negs, slope):
    n, b = buf.n, len(batch)
    _masked_forward(model, lap, slope, buf)
    layers = [buf.e0] + buf.layers
    vs = [layer[batch] for layer in layers]
    zs = [layer[-3:] for layer in layers]
    scores = sum(v @ z.T for v, z in zip(vs, zs))
    rows = np.arange(b)
    pos = scores[rows, gold][:, None]
    margins = [pos - scores[rows, neg][:, None] for neg in negs.T]
    acc = np.logaddexp(0.0, -margins[0])
    for m in margins[1:]:
        acc = acc + np.logaddexp(0.0, -m)
    loss = (acc * (1.0 / len(margins))).mean()
    coef = (1.0 / b) * (1.0 / len(margins)) * -1.0
    g_margins = [coef * np.exp(-np.logaddexp(0.0, m)) for m in margins]
    one_hot = np.eye(3)
    g_scores = one_hot[gold] * sum(g_margins[1:], g_margins[0])
    for g, neg in zip(g_margins, negs.T):
        g_scores -= one_hot[neg] * g

    def add_scored(g_layer, k):
        np.add.at(g_layer, batch, g_scores @ zs[k])
        g_layer[-3:] += g_scores.T @ vs[k]

    g_out = buf.grads[-1]
    g_out.fill(0.0)
    add_scored(g_out, model.hops)
    for k in reversed(range(model.hops)):
        prev, nbr, prod = layers[k], buf.nbr[k], buf.prod[k]
        np.multiply(g_out, slope, out=g_out, where=buf.neg[k])
        np.matmul(prod.T, g_out, out=buf.g_w2[k])
        g_sum = lap.transpose_matmul(g_out, out=buf.narrow)
        g_sum += g_out
        np.matmul(prev.T, g_sum, out=buf.g_w1[k])
        if k == 0:
            break
        g_in = buf.grads[k - 1]
        np.matmul(g_sum, model.w1[k].T, out=g_in)
        g_prod = np.matmul(g_out, model.w2[k].T, out=buf.narrow)
        g_in += np.multiply(g_prod, nbr, out=prod)
        g_prod *= prev
        g_in += lap.transpose_matmul(g_prod, out=nbr)
        add_scored(g_in, k)
        g_out = g_in
    g_side = np.matmul(g_sum[n:], model.w1[0].T, out=buf.g_side)
    g_prod = np.matmul(g_out, model.w2[0].T, out=buf.wide)
    g_side += np.multiply(g_prod[n:], nbr[n:], out=prod[n:])
    g_prod[:n] *= prev[:n]
    g_side += np.matmul(lap.to_text.T, g_prod[:n], out=nbr[n:])
    g_side[-3:] += g_scores.T @ vs[0]
    return Step(float(loss), g_side, buf.g_w1, buf.g_w2)


def _bitwise_equal(a, b):
    """Equal bit for bit: array_equal that also tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_steps_bitwise_equal(got, ref):
    assert got.loss == ref.loss
    for a, b in zip([got.g_side] + got.g_w1 + got.g_w2,
                    [ref.g_side] + ref.g_w1 + ref.g_w2):
        assert _bitwise_equal(a, b)


@pytest.mark.parametrize("zeroed", [False, True])
@pytest.mark.parametrize("slope", [0.01, 1.0, 3.0])
def test_leaky_relu_is_bitwise_the_masked_form(slope, zeroed):
    rng = np.random.default_rng(int(100 * slope) + zeroed)
    for hops in (1, 2, 3):
        for _ in range(3):
            model, texts, lap, gold = _random_case(rng, hops, 0.1)
            if zeroed:
                # every hop's pre-activations in column 1 are exactly 0.0
                for w in model.w1 + model.w2:
                    w[:, 1] = 0.0
            ref = Buffers(texts, model)
            _masked_forward(model, lap, slope, ref)
            got = propagate(texts, model, lap, slope)
            assert _bitwise_equal(
                got, np.concatenate([ref.e0] + ref.layers, axis=1))
            if zeroed:
                assert all((layer[:, 1] == 0.0).all() for layer in ref.layers)
            _assert_steps_bitwise_equal(
                batch_loss(model, Buffers(texts, model), lap, gold, slope),
                _masked_batch_loss(model, Buffers(texts, model), lap,
                                   np.arange(len(texts)), gold,
                                   _rivals(gold), slope))


@pytest.mark.parametrize("slope", [0.01, 1.0, 3.0])
def test_leaky_relu_keeps_signed_zeros_and_infinities(slope):
    # a matmul sums from +0.0, so no pre-activation of the forward is -0.0;
    # the helper itself must keep both zeros as np.where and the masked
    # multiply do
    x = np.array([[-2.0, -0.0, 0.0, 3.0, -1e-300, 5e-324, np.inf, -np.inf]])
    neg, scratch = np.empty(x.shape, dtype=bool), np.empty(x.shape)
    got = _leaky_relu(x.copy(), slope, neg, scratch)
    assert _bitwise_equal(got, np.where(x >= 0, x, slope * x))
    masked = x.copy()
    np.multiply(masked, slope, out=masked, where=x < 0)
    assert _bitwise_equal(got, masked)
    assert np.array_equal(neg, x < 0)


def test_buffers_follow_a_new_graph():
    # one Buffers runs steps on one dropout graph, then on a second, with
    # an update between steps: every hop's messages are the second graph's,
    # as in fresh buffers
    rng = np.random.default_rng(19)
    model, texts, base, gold = _random_case(rng, 3, 0.0)
    first, second = (dropout_graph(base, 0.3, rng) for _ in range(2))
    buffers = Buffers(texts, model)
    for lap in (first, first, second, second):
        reused = batch_loss(model, buffers, lap, gold)
        model.side -= 0.1 * reused.g_side
    fresh_buffers = Buffers(texts, model)
    fresh = batch_loss(model, fresh_buffers, second, gold)
    reused = batch_loss(model, buffers, second, gold)
    _assert_steps_bitwise_equal(reused, fresh)
    for a, b in zip(buffers.layers, fresh_buffers.layers):
        assert _bitwise_equal(a, b)
    # and both equal the masked oracle
    _assert_steps_bitwise_equal(fresh, _masked_batch_loss(
        model, Buffers(texts, model), second, np.arange(len(texts)), gold,
        _rivals(gold), 0.01))


@pytest.mark.parametrize("labels", [[0], [1], [2], [0, 1, 2]])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_rival_mask_is_bitwise_the_per_negative_loss(hops, labels):
    # the rival mask's edge rows: a pool whose texts all share one gold
    # label, so every row masks the same column, and a pool that holds
    # each gold class
    rng = np.random.default_rng(400 + 10 * hops + labels[0])
    for _ in range(3):
        model, texts, lap, _ = _random_case(rng, hops, 0.1)
        gold = np.resize(labels, len(texts))
        assert set(gold) == set(labels)
        _assert_steps_bitwise_equal(
            batch_loss(model, Buffers(texts, model), lap, gold),
            _masked_batch_loss(model, Buffers(texts, model), lap,
                               np.arange(len(texts)), gold, _rivals(gold),
                               0.01))
        _assert_matches_gathered(model, texts, lap, gold)


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
