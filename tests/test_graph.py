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


def test_dropout_zero_rates_is_identity():
    lap = laplacian(_random_adjacency(np.random.default_rng(0), 30, 12, 0.5))
    out = dropout_graph(lap, 0.0, 0.0, np.random.default_rng(0))
    assert out is not lap
    assert np.array_equal(_full(out), _full(lap))


def test_dropout_edge_rate_binomial_bound_and_rescale():
    lap = _ones(40, 25)
    assert lap.nnz == 2000
    out = dropout_graph(lap, 0.0, 0.5, np.random.default_rng(7))
    # each block: Binomial(1000, 0.5), sd 15.8; the bounds sit 6 sd out
    for block in (out.to_text, out.to_side):
        assert 400 <= np.count_nonzero(block) <= 600
        assert np.array_equal(np.unique(block), [0.0, 2.0])


def test_dropout_directions_are_independent():
    lap = _ones(20, 6)
    out = dropout_graph(lap, 0.0, 0.3, np.random.default_rng(3))
    full = _full(out)
    assert not np.array_equal(full, full.T)
    assert not np.array_equal(out.to_text, out.to_side)


def test_dropout_node_rate_zeroes_rows_and_columns():
    n_text, n_side = 30, 10
    lap = _ones(n_text, n_side)
    out = dropout_graph(lap, 0.5, 0.0, np.random.default_rng(11))
    dropped = np.random.default_rng(11).random(n_text + n_side) < 0.5
    texts, sides = dropped[:n_text], dropped[n_text:]
    assert texts.any() and sides.any()  # seed chosen so both sides drop
    for block in (out.to_text, out.to_side):
        assert not block[texts].any()
        assert not block[:, sides].any()
        # node dropout alone does not rescale
        assert (block[np.ix_(~texts, ~sides)] == 1.0).all()
    full = _full(out)
    assert not full[dropped].any() and not full[:, dropped].any()


def test_dropout_deterministic_per_rng_seed():
    lap = laplacian(_random_adjacency(np.random.default_rng(4), 60, 15, 0.5))
    a = dropout_graph(lap, 0.2, 0.3, np.random.default_rng(5))
    b = dropout_graph(lap, 0.2, 0.3, np.random.default_rng(5))
    assert np.array_equal(a.to_text, b.to_text)
    assert np.array_equal(a.to_side, b.to_side)


def test_dropout_rejects_rates_outside_unit_interval():
    lap = _ones(5, 3)
    rng = np.random.default_rng(0)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(GraphError):
            dropout_graph(lap, bad, 0.0, rng)
        with pytest.raises(GraphError):
            dropout_graph(lap, 0.0, bad, rng)
