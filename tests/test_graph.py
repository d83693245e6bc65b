"""Graph construction tests: adjacency, block Laplacian, dropout.

The Laplacian is checked entrywise against a dense oracle on random bipartite
graphs, including zero-degree rows; dropout statistics use binomial bounds
wide enough to never flake at the pinned seeds.
"""

import numpy as np
import pytest

from cosd.corpus import Stance
from cosd.graph import (
    BipartiteLaplacian,
    GraphError,
    build_adjacency,
    dropout_graph,
    laplacian,
)


def _dense_lap(m_dense):
    """Dense oracle: normalized bipartite block adjacency."""
    n1, n2 = m_dense.shape
    n = n1 + n2
    a = np.zeros((n, n))
    a[:n1, n1:] = m_dense
    a[n1:, :n1] = m_dense.T
    d = a.sum(axis=1)
    inv = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return a * inv[:, None] * inv[None, :]


def _full(lap):
    """The whole (n + m) x (n + m) matrix the two blocks stand for."""
    n = lap.n_text
    out = np.zeros((lap.rows, lap.rows))
    out[:n, n:] = lap.to_text
    out[n:, :n] = lap.to_side.T
    return out


def _random_adjacency(rng, rows, cols, density):
    return np.where(rng.random((rows, cols)) < density,
                    rng.random((rows, cols)) + 0.05, 0.0)


# --- block container ----------------------------------------------------------


def test_block_laplacian_accessors_and_shape_check():
    lap = BipartiteLaplacian(np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                             np.array([[0.5, 0.0, 0.25], [0.0, 0.0, 0.0]]))
    assert lap.n_text == 2
    assert lap.rows == 5
    assert lap.nnz == 3
    with pytest.raises(GraphError):
        BipartiteLaplacian(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(GraphError):
        BipartiteLaplacian(np.zeros(3), np.zeros(3))


# --- adjacency ---------------------------------------------------------------


def test_adjacency_one_hot_label_rows():
    stances = [Stance.FAVOR, Stance.NONE, Stance.AGAINST]
    m = build_adjacency(stances, np.tile([0.5, 0.3, 0.2], (3, 1)))
    assert np.array_equal(m[:, 3:], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(m[:, 3:].sum(axis=1), [1, 1, 1])


def test_adjacency_direct_placement_h1():
    m = build_adjacency([Stance.FAVOR, Stance.AGAINST],
                        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.array_equal(m[:, :3], [[1, 0, 0], [0, 0, 1]])
    assert m.shape == (2, 3 * 1 + 3)


def test_adjacency_concatenates_columns():
    h = 2
    dis = np.array([[0.3, 0.1, 0.2, 0.1, 0.2, 0.1],
                    [0.1, 0.1, 0.1, 0.1, 0.1, 0.5]])
    m = build_adjacency([Stance.FAVOR, Stance.NONE], dis)
    assert m.shape == (2, 3 * h + 3)
    assert np.array_equal(m, np.hstack([dis, [[1, 0, 0], [0, 1, 0]]]))
    assert np.allclose(m[:, :3 * h].sum(axis=1), 1.0)


def test_adjacency_prunes_negligible_weights():
    tiny = 1e-9
    m = build_adjacency([Stance.FAVOR], np.array([[1.0 - tiny, tiny, 0.0]]))
    assert np.count_nonzero(m[:, :3]) == 1
    assert m[0, 1] == 0.0


def test_adjacency_errors():
    one = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(GraphError):
        build_adjacency([Stance.FAVOR], np.zeros((0, 3)))
    with pytest.raises(GraphError):
        build_adjacency([], np.zeros((0, 3)))
    with pytest.raises(GraphError):
        build_adjacency([Stance.UNKNOWN], one)
    with pytest.raises(GraphError):
        build_adjacency([Stance.FAVOR], np.array([[0.5, 0.5]]))
    with pytest.raises(GraphError):
        build_adjacency([Stance.FAVOR], np.array([1.0, 0.0, 0.0]))
    with pytest.raises(GraphError):
        build_adjacency([Stance.FAVOR], np.array([[np.nan, 0.0, 1.0]]))


# --- laplacian ---------------------------------------------------------------


def test_laplacian_single_edge_hand_case():
    lap = laplacian(np.array([[2.0]]))
    assert np.allclose(_full(lap), [[0, 1], [1, 0]])


def test_laplacian_is_symmetric():
    rng = np.random.default_rng(1)
    full = _full(laplacian(_random_adjacency(rng, 4, 5, 0.6)))
    assert np.array_equal(full, full.T)


def test_laplacian_isolated_node_row_and_column_zero():
    # text 1 and side 1 have no edges at all
    lap = laplacian(np.array([[1.0, 0.0], [0.0, 0.0]]))
    full = _full(lap)
    assert np.allclose(full[1], 0.0)
    assert np.allclose(full[:, 1], 0.0)
    assert np.allclose(full[3], 0.0)
    assert np.allclose(full[:, 3], 0.0)
    assert lap.nnz == 2


def test_laplacian_matches_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = int(rng.integers(1, 11))
        c = int(rng.integers(1, 10))
        dense = _random_adjacency(rng, r, c, 0.45)
        lap = laplacian(dense)
        assert np.allclose(_full(lap), _dense_lap(dense), atol=1e-12)
        assert lap.nnz == 2 * np.count_nonzero(dense)


def test_laplacian_spectral_radius_at_most_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        full = _full(laplacian(_random_adjacency(rng, 6, 7, 0.5)))
        x = rng.standard_normal(full.shape[0])
        x /= np.linalg.norm(x)
        est = 0.0
        for _ in range(200):
            y = full @ x
            n = np.linalg.norm(y)
            if n == 0:
                break
            est = n
            x = y / n
        assert est <= 1.0 + 1e-6


def test_laplacian_rejects_negative_weights():
    with pytest.raises(GraphError):
        laplacian(np.array([[-1.0]]))
    with pytest.raises(GraphError):
        laplacian(np.array([[np.inf]]))


# --- dropout -----------------------------------------------------------------


def _ones(n_text, n_side):
    return BipartiteLaplacian(np.ones((n_text, n_side)),
                              np.ones((n_text, n_side)))


def _two_rate_dropout(lap, node_rate, edge_rate, rng):
    """The oracle: dropout_graph as it was with separate node and edge
    rates, unchanged; training always passed the one rate twice."""
    for name, rate in (("node_rate", node_rate), ("edge_rate", edge_rate)):
        if not 0.0 <= rate < 1.0:
            raise GraphError(f"{name} must be in [0, 1), got {rate}")

    to_text, to_side = lap.to_text, lap.to_side
    shape = to_text.shape
    if edge_rate > 0.0:
        survive = 1.0 - edge_rate
        to_text = np.where(rng.random(shape) >= edge_rate,
                           to_text / survive, 0.0)
        to_side = np.where(rng.random(shape) >= edge_rate,
                           to_side / survive, 0.0)
    if node_rate > 0.0:
        alive = rng.random(lap.rows) >= node_rate
        keep = np.outer(alive[:lap.n_text], alive[lap.n_text:])
        to_text = np.where(keep, to_text, 0.0)
        to_side = np.where(keep, to_side, 0.0)
    return BipartiteLaplacian(to_text, to_side)


def test_dropout_zero_rates_is_identity():
    lap = laplacian(_random_adjacency(np.random.default_rng(0), 30, 12, 0.5))
    out = dropout_graph(lap, 0.0, np.random.default_rng(0))
    assert out is not lap
    assert np.array_equal(_full(out), _full(lap))


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.5, 0.9])
def test_dropout_matches_two_rate_oracle(rate):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        lap = laplacian(_random_adjacency(rng, int(rng.integers(1, 40)),
                                          int(rng.integers(1, 15)), 0.5))
        got_rng, want_rng = (np.random.default_rng(100 + seed)
                             for _ in range(2))
        got = dropout_graph(lap, rate, got_rng)
        want = _two_rate_dropout(lap, rate, rate, want_rng)
        for a, b in ((got.to_text, want.to_text), (got.to_side, want.to_side)):
            assert (a.shape, a.dtype) == (b.shape, b.dtype)
            assert a.tobytes() == b.tobytes()
        # the same draws: both generators are left in the same state
        assert (got_rng.bit_generator.state
                == want_rng.bit_generator.state)


def _replay_masks(n_text, n_side, rate, seed):
    """The draws of dropout_graph, replayed: the to_text and to_side edge
    keep-masks, then which text and side nodes drop."""
    rng = np.random.default_rng(seed)
    edge_kept = [rng.random((n_text, n_side)) >= rate for _ in range(2)]
    dropped = rng.random(n_text + n_side) < rate
    return edge_kept, dropped[:n_text], dropped[n_text:]


def test_dropout_edge_rate_binomial_bound_and_rescale():
    lap = _ones(40, 25)
    assert lap.nnz == 2000
    out = dropout_graph(lap, 0.5, np.random.default_rng(7))
    edge_kept, texts, sides = _replay_masks(40, 25, 0.5, 7)
    live = np.outer(~texts, ~sides)
    # on the live node pairs each block is Binomial(live, 0.5); the bounds
    # sit 6 sd out
    n, sd = live.sum(), np.sqrt(live.sum() * 0.25)
    for block, kept in zip((out.to_text, out.to_side), edge_kept):
        assert n / 2 - 6 * sd <= np.count_nonzero(block) <= n / 2 + 6 * sd
        assert set(np.unique(block)) <= {0.0, 2.0}
        # an edge survives, rescaled by 1/(1 - rate), where both of its
        # nodes and its own direction survive
        assert np.array_equal(block, np.where(live & kept, 2.0, 0.0))


def test_dropout_directions_are_independent():
    lap = _ones(20, 6)
    out = dropout_graph(lap, 0.3, np.random.default_rng(3))
    edge_kept, _, _ = _replay_masks(20, 6, 0.3, 3)
    assert not np.array_equal(*edge_kept)
    full = _full(out)
    assert not np.array_equal(full, full.T)
    assert not np.array_equal(out.to_text, out.to_side)


def test_dropout_node_rate_zeroes_rows_and_columns():
    n_text, n_side = 30, 10
    lap = _ones(n_text, n_side)
    out = dropout_graph(lap, 0.5, np.random.default_rng(11))
    _, texts, sides = _replay_masks(n_text, n_side, 0.5, 11)
    assert texts.any() and sides.any()  # seed chosen so both sides drop
    for block in (out.to_text, out.to_side):
        assert not block[texts].any()
        assert not block[:, sides].any()
    dropped = np.concatenate([texts, sides])
    full = _full(out)
    assert not full[dropped].any() and not full[:, dropped].any()


def test_dropout_deterministic_per_rng_seed():
    lap = laplacian(_random_adjacency(np.random.default_rng(4), 60, 15, 0.5))
    a = dropout_graph(lap, 0.3, np.random.default_rng(5))
    b = dropout_graph(lap, 0.3, np.random.default_rng(5))
    assert np.array_equal(a.to_text, b.to_text)
    assert np.array_equal(a.to_side, b.to_side)


def test_dropout_rejects_rates_outside_unit_interval():
    lap = _ones(5, 3)
    rng = np.random.default_rng(0)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(GraphError):
            dropout_graph(lap, bad, rng)
