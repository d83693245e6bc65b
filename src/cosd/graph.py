"""Heterogeneous topic graph: adjacency, normalized Laplacian, dropout.

Node ordering everywhere is texts, then the 3H topics, then the 3 labels.
Only training texts enter the graph; test texts go through the graph-free
inference transform instead. The graph is bipartite (texts on one side,
topics and labels on the other), so the Laplacian is stored as its two
off-diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LABELS, Stance

# m1 fold-in weights below this are dropped; the distributions are dense but
# mostly negligible.
M1_PRUNE = 1e-6


class GraphError(Exception):
    """Malformed adjacency input or out-of-contract graph arguments."""


@dataclass(frozen=True)
class BipartiteLaplacian:
    """L = [[0, to_text], [to_side^T, 0]] over n texts then m side nodes.

    Both blocks are (n, m): to_text[i, j] weighs side node j's message into
    text i, to_side[i, j] text i's message into side node j. Without dropout
    the two blocks are equal and L is symmetric.
    """

    to_text: np.ndarray
    to_side: np.ndarray

    def __post_init__(self):
        if self.to_text.ndim != 2 or self.to_text.shape != self.to_side.shape:
            raise GraphError(f"blocks must be equal-shape 2-D, got "
                             f"{self.to_text.shape} and {self.to_side.shape}")

    @property
    def n_text(self) -> int:
        return self.to_text.shape[0]

    @property
    def rows(self) -> int:
        return sum(self.to_text.shape)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.to_text)
                   + np.count_nonzero(self.to_side))

    def _product(self, top: np.ndarray, bottom: np.ndarray, x: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        """[top @ x[n:]; bottom^T @ x[:n]], written into out if given."""
        if x.ndim != 2 or x.shape[0] != self.rows:
            raise GraphError(f"laplacian covers {self.rows} nodes, "
                             f"operand has shape {x.shape}")
        if out is None:
            out = np.empty(x.shape)
        elif out.shape != x.shape or np.may_share_memory(out, x):
            raise GraphError(f"output of shape {out.shape} must be a "
                             f"separate array of the operand's {x.shape}")
        n = self.n_text
        np.matmul(top, x[n:], out=out[:n])
        np.matmul(bottom.T, x[:n], out=out[n:])
        return out

    def matmul(self, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """L @ x: texts gather from side nodes, side nodes from texts."""
        return self._product(self.to_text, self.to_side, x, out)

    def transpose_matmul(self, x: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
        """L^T @ x, the adjoint of matmul."""
        return self._product(self.to_side, self.to_text, x, out)


def build_adjacency(stances: list[Stance], dis: np.ndarray) -> np.ndarray:
    """Dense (n, 3H + 3) adjacency [m1 | m2] in the order of the rows given.

    m1 is the fold-in matrix with weights below M1_PRUNE zeroed; m2 one-hot
    encodes each row's stance over LABELS.
    """
    dis = np.asarray(dis, dtype=np.float64)
    if dis.ndim != 2 or dis.shape[1] == 0 or dis.shape[1] % 3:
        raise GraphError(f"fold-in matrix must be (n, 3H), got {dis.shape}")
    if len(stances) != dis.shape[0]:
        raise GraphError(f"{len(stances)} stances vs {dis.shape[0]} rows")
    if not len(stances):
        raise GraphError("empty training set")
    if not np.isfinite(dis).all():
        raise GraphError("non-finite fold-in weight")
    label_col = {label: j for j, label in enumerate(LABELS)}
    m2 = np.zeros((len(stances), 3))
    for i, stance in enumerate(stances):
        if stance not in label_col:
            raise GraphError(f"row {i}: stance {stance} not graphable")
        m2[i, label_col[stance]] = 1.0
    m1 = np.where(dis >= M1_PRUNE, dis, 0.0)
    return np.concatenate([m1, m2], axis=1)


def laplacian(m: np.ndarray) -> BipartiteLaplacian:
    """Symmetric normalization of the bipartite adjacency [[0, M], [M^T, 0]].

    Each entry M_ij is divided by sqrt(d_i * d_j). Zero-degree nodes keep
    all-zero rows and columns (1/sqrt(0) treated as 0).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise GraphError(f"adjacency must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise GraphError("non-finite weight in adjacency")
    if (m < 0).any():
        raise GraphError("negative weight in adjacency")
    degrees = np.outer(m.sum(axis=1), m.sum(axis=0))
    norm = np.divide(m, np.sqrt(degrees), out=np.zeros_like(m), where=m > 0)
    return BipartiteLaplacian(norm, norm)


def dropout_graph(lap: BipartiteLaplacian, rate: float,
                  rng: np.random.Generator) -> BipartiteLaplacian:
    """Training-time graph dropout at one rate; returns a fresh Laplacian.

    Edge dropout zeroes entries of the two blocks independently (so the two
    directions of an edge drop independently) and rescales survivors by
    1/(1 - rate) so the propagated expectation is unchanged; node dropout
    then samples nodes and zeroes their rows and columns in both blocks,
    except the three label nodes (the last rows), which a step ranks every
    text against. Draw order: the to_text mask, the to_side mask, then the
    node mask; rate 0 draws nothing, so the caller's later draws are as
    they were.
    """
    if not 0.0 <= rate < 1.0:
        raise GraphError(f"rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return BipartiteLaplacian(lap.to_text, lap.to_side)
    shape, survive = lap.to_text.shape, 1.0 - rate
    to_text = np.where(rng.random(shape) >= rate, lap.to_text / survive, 0.0)
    to_side = np.where(rng.random(shape) >= rate, lap.to_side / survive, 0.0)
    alive = rng.random(lap.rows) >= rate
    alive[lap.n_text:][-3:] = True  # the label nodes
    keep = np.outer(alive[:lap.n_text], alive[lap.n_text:])
    return BipartiteLaplacian(np.where(keep, to_text, 0.0),
                              np.where(keep, to_side, 0.0))
