"""Reverse-mode autodiff tape: the test oracle for cpa.batch_loss.

Dense 2-D tensor ops with vector-Jacobian closures recorded on a tape of
parent links, the CPA losses and propagation written with them, and the
per-neighbor message of the node-form recursion. Nothing under src/ imports
this module; tests compare the shipped hand-derived gradients against it.

All data is float64. Shapes are strictly (rows, cols); 1-D input becomes a
row. Broadcasting is limited to the row-vector bias case in add/sub.
backward() accumulates into .grad for every requires_grad tensor reachable
from the loss; calling it twice without zeroing doubles the grads.
"""

from __future__ import annotations

import numpy as np

from cosd.cpa import CpaError
from cosd.graph import BipartiteLaplacian
from cosd.training import TrainingError


class TapeError(Exception):
    """A tensor that is not 2-D or not finite, mismatched operand shapes,
    an index out of range, or a loss that is not a scalar."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise TapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise TapeError("non-finite tensor data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(op: str, data: np.ndarray, parents: tuple, vjp) -> Tensor:
    if not np.isfinite(data).all():
        raise TapeError(f"non-finite result in {op}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        # untracked: keep the tape from growing through frozen inputs
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise TapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _result("matmul", out, (a, b), vjp)


def spmm(lap: BipartiteLaplacian, b: Tensor) -> Tensor:
    """L @ b for a bipartite block Laplacian; L is a constant (no gradient)."""
    if b.shape[0] != lap.rows:
        raise TapeError(
            f"spmm shape mismatch: {lap.rows}x{lap.rows} @ {b.shape}")
    n = lap.n_text
    out = np.concatenate([lap.to_text @ b.data[n:],
                          lap.to_side.T @ b.data[:n]])

    def vjp(g):
        return (np.concatenate([lap.to_side @ g[n:], lap.to_text.T @ g[:n]]),)

    return _result("spmm", out, (b,), vjp)


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> bool:
    """True when b is a broadcast (1, cols) row against a's rows."""
    if a.shape == b.shape:
        return False
    if b.shape == (1, a.shape[1]):
        return True
    raise TapeError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    broadcast = _binary_shapes("add", a, b)

    def vjp(g):
        return g, g.sum(axis=0, keepdims=True) if broadcast else g

    return _result("add", a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    broadcast = _binary_shapes("sub", a, b)

    def vjp(g):
        return g, -g.sum(axis=0, keepdims=True) if broadcast else -g

    return _result("sub", a.data - b.data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _result("scale", a.data * c, (a,), vjp)


def elemwise_mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TapeError(f"elemwise_mul shape mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return g * b.data, g * a.data

    return _result("elemwise_mul", a.data * b.data, (a, b), vjp)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise TapeError("concat_cols of nothing")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise TapeError("concat_cols row counts differ")
    widths = [p.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, splits, axis=1))

    return _result("concat_cols", np.concatenate([p.data for p in parts], axis=1),
                   tuple(parts), vjp)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise TapeError("gather_rows index must be 1-D")
    if len(idx) and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise TapeError("gather_rows index out of range")

    def vjp(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return (da,)

    return _result("gather_rows", a.data[idx].copy(), (a,), vjp)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    mask = a.data >= 0

    def vjp(g):
        return (g * np.where(mask, 1.0, slope),)

    return _result("leaky_relu", np.where(mask, a.data, slope * a.data),
                   (a,), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return ((g - (g * y).sum(axis=1, keepdims=True)) * y,)

    return _result("softmax_rows", y, (a,), vjp)


def logsigmoid(a: Tensor) -> Tensor:
    out = -np.logaddexp(0.0, -a.data)

    def vjp(g):
        # sigmoid(-x), stable at both tails
        return (g * np.exp(-np.logaddexp(0.0, a.data)),)

    return _result("logsigmoid", out, (a,), vjp)


def row_sums(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result("row_sums", a.data.sum(axis=1, keepdims=True), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full(a.shape, float(g[0, 0])),)

    return _result("sum_all", np.array([[a.data.sum()]]), (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size

    def vjp(g):
        return (np.full(a.shape, float(g[0, 0]) / size),)

    return _result("mean_all", np.array([[a.data.mean()]]), (a,), vjp)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss.

    Adds this call's adjoint into .grad of every requires_grad tensor on the
    tape; repeated calls keep accumulating.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, got {loss.shape}")
    order = _toposort(loss)
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg


# --- CPA losses and propagation on the tape ------------------------------

def loss_contrastive(v_tilde: Tensor, z_tilde_pos: Tensor,
                     z_tilde_negs: list[Tensor]) -> Tensor:
    """Mean over negatives (then batch rows) of -log sigmoid(pos - neg)."""
    if not z_tilde_negs:
        raise TrainingError("contrastive loss needs at least one negative")
    pos = row_sums(elemwise_mul(v_tilde, z_tilde_pos))
    acc = None
    for z_neg in z_tilde_negs:
        neg = row_sums(elemwise_mul(v_tilde, z_neg))
        term = scale(logsigmoid(sub(pos, neg)), -1.0)
        acc = term if acc is None else add(acc, term)
    return mean_all(scale(acc, 1.0 / len(z_tilde_negs)))


def propagate(e0: Tensor, lap: BipartiteLaplacian, w1: list[Tensor],
              w2: list[Tensor], slope: float = 0.01) -> list[Tensor]:
    """Hop outputs E^1..E^l.

    Each hop: E^k = LReLU((E + L E) W1^k + (E (*) L E) W2^k) where E is the
    previous hop's output and L the normalized (possibly dropout'd)
    Laplacian. Tracked for gradients.
    """
    if lap.rows != e0.shape[0]:
        raise CpaError(
            f"laplacian covers {lap.rows} nodes, table has {e0.shape[0]}")
    outputs = []
    prev = e0
    for a, b in zip(w1, w2):
        neighbors = spmm(lap, prev)
        mixed = matmul(add(prev, neighbors), a)
        interaction = matmul(elemwise_mul(prev, neighbors), b)
        prev = leaky_relu(add(mixed, interaction), slope)
        outputs.append(prev)
    return outputs


def one_hop_message(e: np.ndarray, e_i: np.ndarray, deg_e: float,
                    deg_ei: float, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Single neighbor message (test oracle; plain numpy, row convention)."""
    if deg_e <= 0 or deg_ei <= 0:
        raise CpaError(f"degrees must be positive, got {deg_e}, {deg_ei}")
    return (e_i @ w1 + (e * e_i) @ w2) / np.sqrt(deg_e * deg_ei)


def final_reps(e0: Tensor, layers: list[Tensor]) -> Tensor:
    """Per-node concatenation [e0 | e1 | ... | el]; width d0 + hops*d1."""
    for k, layer in enumerate(layers):
        if layer.shape[0] != e0.shape[0]:
            raise CpaError(
                f"layer {k + 1} has {layer.shape[0]} rows, table {e0.shape[0]}")
    if not layers:
        return e0
    return concat_cols([e0] + layers)


def batch_loss(e0: Tensor, w1: list[Tensor], w2: list[Tensor],
               lap: BipartiteLaplacian, batch, gold, negs,
               slope: float = 0.01) -> Tensor:
    """cpa.batch_loss's ranking loss over the text rows `batch`, with their
    gold and negative label node rows given, recorded on the tape."""
    reps = final_reps(e0, propagate(e0, lap, w1, w2, slope))
    negs = np.asarray(negs)
    return loss_contrastive(
        gather_rows(reps, batch), gather_rows(reps, gold),
        [gather_rows(reps, negs[:, j]) for j in range(negs.shape[1])])
