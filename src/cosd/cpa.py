"""Collaboration propagation: the CPA model record (the trained topic and
label rows and hop weights) and its Xavier initialization, multi-hop graph
message passing over the node table [T; U; Z], the training loss with its
hand-derived gradients and the buffers that hold the table and both write
into, and the graph-free transform used at inference time.

Node rows are ordered texts, topics, labels, matching the graph module.
Every hop's LeakyReLU slope is the constant LEAKY_SLOPE, part of the layer.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .binfile import F64, Reader
from .graph import BipartiteLaplacian

D0 = 768
D1 = 64
LEAKY_SLOPE = 0.01  # as in NGCF (arXiv:1905.08108); no setting holds it


class CpaError(Exception):
    """Inconsistent model pieces or a corrupt checkpoint file."""


@dataclass
class CpaModel:
    """The trained parameters: the side table [U; Z] (3H topic rows, then
    the 3 label rows, width d0) and per-hop weights w1[k], w2[k]: first hop
    d0 x d1, later hops d1 x d1.

    Training updates every array in place; a checkpoint stores the model as
    it is.
    """

    side: np.ndarray
    w1: list[np.ndarray]
    w2: list[np.ndarray]
    h: int

    def __post_init__(self):
        expected = 3 * self.h + 3
        if self.side.ndim != 2 or self.side.shape[0] != expected:
            raise CpaError(
                f"side table has shape {self.side.shape}, H = {self.h} "
                f"needs {expected} rows")
        if not self.w1 or len(self.w1) != len(self.w2):
            raise CpaError(f"w1/w2 hop counts {len(self.w1)} and "
                           f"{len(self.w2)} must be equal and positive")
        d1 = self.d1
        for k, (a, b) in enumerate(zip(self.w1, self.w2)):
            shape = (self.d0 if k == 0 else d1, d1)
            if a.shape != shape or b.shape != shape:
                raise CpaError(f"hop {k + 1}: w1 {a.shape} and w2 {b.shape}, "
                               f"chain needs {shape}")

    @property
    def d0(self) -> int:
        return self.side.shape[1]

    @property
    def d1(self) -> int:
        return self.w1[0].shape[1]

    @property
    def hops(self) -> int:
        return len(self.w1)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.h, self.d0, self.d1, self.hops

    # views of the blocks
    @property
    def u(self) -> np.ndarray:
        return self.side[:3 * self.h]

    @property
    def z(self) -> np.ndarray:
        return self.side[3 * self.h:]

    def copy(self) -> CpaModel:
        return CpaModel(side=self.side.copy(), w1=[w.copy() for w in self.w1],
                        w2=[w.copy() for w in self.w2], h=self.h)


def xavier_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Uniform on +/- sqrt(6/(rows+cols)); deterministic per seed."""
    if rows < 1 or cols < 1:
        raise CpaError(f"xavier_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_cpa_weights(d0: int = D0, d1: int = D1, hops: int = 3,
                     seed: int = 0) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(w1, w2), Xavier-initialized; hop k draws w1 from seed + 2k and w2
    from seed + 2k + 1."""
    if hops < 1:
        raise CpaError(f"hops must be >= 1, got {hops}")
    w1, w2 = [], []
    for k in range(hops):
        rows = d0 if k == 0 else d1
        w1.append(xavier_init(rows, d1, seed + 2 * k))
        w2.append(xavier_init(rows, d1, seed + 2 * k + 1))
    return w1, w2


def init_model(h: int, label_vecs: np.ndarray, seed: int, weight_seed: int,
               d1: int = D1, hops: int = 3) -> CpaModel:
    """Z starts from the label encoder vectors, U from Xavier noise (seed)
    at their width d0; the weights come from init_cpa_weights(weight_seed)."""
    label_vecs = np.asarray(label_vecs, dtype=np.float64)
    if label_vecs.ndim != 2 or label_vecs.shape[0] != 3:
        raise CpaError(f"label block must be (3, d0), got {label_vecs.shape}")
    d0 = label_vecs.shape[1]
    u = xavier_init(3 * h, d0, seed)
    w1, w2 = init_cpa_weights(d0, d1, hops, weight_seed)
    return CpaModel(side=np.concatenate([u, label_vecs]), w1=w1, w2=w2, h=h)


def _slopes(neg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The leaky ReLU's multipliers into out: exactly LEAKY_SLOPE where the
    mask neg is set and 1.0 elsewhere, so a product with them is bitwise
    the masked product np.multiply(x, LEAKY_SLOPE, where=neg)."""
    np.multiply(neg, LEAKY_SLOPE, out=out)
    out += ~neg
    return out


def _leaky_relu(x: np.ndarray, neg: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """x <- LReLU(x) in place, bitwise np.where(x >= 0, x, LEAKY_SLOPE * x);
    neg (bool, x's shape) receives the mask x < 0 and scratch (x's shape)
    the multipliers."""
    np.less(x, 0.0, out=neg)
    x *= _slopes(neg, scratch)
    return x


class Buffers:
    """One text pool's node table e0 = [T; U; Z] and the arrays that
    propagate and batch_loss write, allocated once for its texts (the fixed
    text rows T, copied in here) and one model shape, so a training run
    allocates no table-height array per step. Each forward copies the
    model's side rows [U; Z] into e0.

    Per hop k (input E^k of width d_k: d0 for the first hop, then d1):
    layers[k] = E^{k+1}, nbr[k] = L E^k, prod[k] = E^k (*) L E^k,
    neg[k] = (pre-activation < 0) and grads[k] = d loss / d E^{k+1};
    g_side = d loss / d [U; Z], and g_w1[k], g_w2[k] the weight gradients.
    wide (d0) and narrow (d1) are one scratch per width. The backward
    reuses nbr and prod as scratch once it has read them. Apart from T, a
    call writes every array before it reads it, so no state carries over
    from one call, or one graph, to the next.
    """

    def __init__(self, texts: np.ndarray, model: CpaModel):
        self.shape = h, d0, d1, hops = model.shape
        if np.ndim(texts) != 2 or np.shape(texts)[1] != d0:
            raise CpaError(f"text rows {np.shape(texts)}, model width {d0}")
        self.n = len(texts)
        self.e0 = np.concatenate([texts, model.side], dtype=np.float64)
        rows, widths = len(self.e0), [d0] + [d1] * (hops - 1)
        self.layers = [np.empty((rows, d1)) for _ in range(hops)]
        self.nbr = [np.empty((rows, w)) for w in widths]
        self.prod = [np.empty((rows, w)) for w in widths]
        self.neg = [np.empty((rows, d1), dtype=bool) for _ in range(hops)]
        self.grads = [np.empty((rows, d1)) for _ in range(hops)]
        self.g_side = np.empty((3 * h + 3, d0))
        self.g_w1 = [np.empty((w, d1)) for w in widths]
        self.g_w2 = [np.empty((w, d1)) for w in widths]
        self.wide = np.empty((rows, d0))
        self.narrow = np.empty((rows, d1))


def _forward(model: CpaModel, lap: BipartiteLaplacian, buf: Buffers) -> None:
    """The model's side rows into buf.e0, then the hop outputs into
    buf.layers, keeping each hop's L E, E (*) L E and negative mask for the
    backward.

    A hop's pre-activation (E + L E) W1 + (E (*) L E) W2 is computed as
    P + L P + (E (*) L E) W2 with P = E W1, so the W1 path runs the
    Laplacian at width d1.
    """
    if buf.shape != model.shape:
        raise CpaError(f"buffers of shape {buf.shape} for a model of shape "
                       f"{model.shape}")
    if lap.to_text.shape != (buf.n, len(model.side)):
        raise CpaError(f"laplacian blocks {lap.to_text.shape}, table has "
                       f"{buf.n} texts and {len(model.side)} side rows")
    prev = buf.e0
    prev[buf.n:] = model.side
    for k, (a, b) in enumerate(zip(model.w1, model.w2)):
        nbr, prod, pre = buf.nbr[k], buf.prod[k], buf.layers[k]
        lap.matmul(prev, out=nbr)
        np.multiply(prev, nbr, out=prod)
        np.matmul(prev, a, out=pre)
        pre += lap.matmul(pre, out=buf.narrow)
        pre += np.matmul(prod, b, out=buf.narrow)
        prev = _leaky_relu(pre, buf.neg[k], buf.narrow)


def propagate(texts: np.ndarray, model: CpaModel,
              lap: BipartiteLaplacian) -> np.ndarray:
    """Final representations [E^0 | E^1 | ... | E^l] of every node, with
    E^0 = [texts; U; Z].

    Each hop: E^k = LReLU((E + L E) W1^k + (E (*) L E) W2^k) where E is the
    previous hop's output and L the normalized (possibly dropout'd)
    Laplacian.
    """
    buf = Buffers(texts, model)
    _forward(model, lap, buf)
    return np.concatenate([buf.e0] + buf.layers, axis=1)


class Step(NamedTuple):
    """One step's ranking loss and its gradients."""

    loss: float
    g_side: np.ndarray
    g_w1: list[np.ndarray]
    g_w2: list[np.ndarray]


def batch_loss(model: CpaModel, buf: Buffers, lap: BipartiteLaplacian,
               gold: np.ndarray) -> Step:
    """One full step's loss and its gradients for (side, w1, w2), over
    every one of buf's texts and the model's current side rows.

    The final rep of a node is [E^0 | E^1 | ... | E^l] over the propagated
    hops. With v a text's rep, z+ its gold label node's and z- each of the
    two other label nodes', the loss ranks gold above both rivals: the
    mean over texts and rivals of -log sigmoid(v.z+ - v.z-). gold: (n,)
    label indices of buf's n texts, 0..2 in label order.

    Every v.z is read from the (n, 3) label scores S = sum_k V_k Z_k^T,
    with V_k the text rows of layer k (a view) and Z_k its three label
    rows; a mask over S's columns picks each text's rivals. A call
    allocates only text-by-3 and label-by-width arrays.

    The gradients are views into buf and hold until the next call with the
    same buffers overwrites them.
    """
    gold, n = np.asarray(gold), buf.n
    if not n or gold.shape != (n,):
        raise CpaError(f"{n} texts and gold labels {gold.shape} disagree")
    if not 0 <= gold.min() <= gold.max() < 3:
        raise CpaError("label index out of range")
    _forward(model, lap, buf)
    layers = [buf.e0] + buf.layers

    # forward: the label scores; the label nodes are the last three rows.
    # A text's gold column holds margin 0 and is masked to an exact 0, so
    # each row sums its two rival terms
    vs = [layer[:n] for layer in layers]
    zs = [layer[-3:] for layer in layers]
    scores = sum(v @ z.T for v, z in zip(vs, zs))
    rows = np.arange(n)
    rival = np.arange(3) != gold[:, None]
    margins = scores[rows, gold][:, None] - scores
    loss = ((np.logaddexp(0.0, -margins) * rival).sum(axis=1) * 0.5).mean()

    # backward to the scores; d(-log sigmoid(m))/dm = -sigmoid(-m)
    coef = -0.5 / n
    g_margins = coef * np.exp(-np.logaddexp(0.0, margins)) * rival
    g_scores = np.negative(g_margins)
    g_scores[rows, gold] = g_margins.sum(axis=1)

    def add_scored(g_layer: np.ndarray, k: int) -> None:
        # layer k's own score terms: dS Z_k into the text rows (formed in
        # narrow, free at both calls), dS^T V_k into the label rows
        g_layer[:n] += np.matmul(g_scores, zs[k], out=buf.narrow[:n])
        g_layer[-3:] += g_scores.T @ vs[k]

    # backward through the hops, last to first. With G = d loss / d pre
    # and G' = G + L^T G: g_W1 = E^T G', g_W2 = (E (*) L E)^T G, and E gets
    # G' W1^T + (G W2^T) (*) L E + L^T((G W2^T) (*) E), plus its own score
    # terms
    g_out = buf.grads[-1]
    g_out.fill(0.0)
    add_scored(g_out, model.hops)
    for k in reversed(range(model.hops)):
        prev, nbr, prod = layers[k], buf.nbr[k], buf.prod[k]
        g_out *= _slopes(buf.neg[k], buf.narrow)                # now G
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
        add_scored(g_in, k)
        g_out = g_in
    # hop 0 continued: only E^0's side rows n: train and get a gradient;
    # their L^T term reads the text rows, as in transpose_matmul
    g_side = np.matmul(g_sum[n:], model.w1[0].T, out=buf.g_side)
    g_prod = np.matmul(g_out, model.w2[0].T, out=buf.wide)
    g_side += np.multiply(g_prod[n:], nbr[n:], out=prod[n:])
    g_prod[:n] *= prev[:n]
    g_side += np.matmul(lap.to_text.T, g_prod[:n], out=prod[n:])
    g_side[-3:] += g_scores.T @ vs[0]
    if not (np.isfinite(loss) and all(
            np.isfinite(g).all() for g in [g_side, *buf.g_w1, *buf.g_w2])):
        raise CpaError("non-finite loss or gradient")
    return Step(float(loss), g_side, buf.g_w1, buf.g_w2)


def infer_transform(x: np.ndarray, model: CpaModel) -> np.ndarray:
    """Graph-free counterpart of propagate for unseen rows, (n, d0) in:
    x beside its hop_outputs, concatenated like the final reps. Uses the
    trained weights read-only."""
    prev = np.asarray(x, dtype=np.float64)
    if prev.ndim != 2 or prev.shape[1] != model.d0:
        raise CpaError(f"input of shape {prev.shape}, need (n, {model.d0})")
    first = prev @ (model.w1[0] + model.w2[0])
    return np.concatenate([prev, *hop_outputs(first, model)], axis=1)


def hop_outputs(first: np.ndarray, model: CpaModel) -> Iterator[np.ndarray]:
    """The graph-free hop outputs e^1, ..., e^l of rows e^0, given the
    first hop's pre-activation `first` = e^0 (W1^1 + W2^1):
    e^k = LReLU(e^{k-1} (W1^k + W2^k)). The caller forms `first`, so rows
    e^0 = D U can pass D (U (W1^1 + W2^1)) and never form e^0."""
    neg, scratch = np.empty(first.shape, dtype=bool), np.empty(first.shape)
    prev = _leaky_relu(first.copy(), neg, scratch)
    yield prev
    for a, b in zip(model.w1[1:], model.w2[1:]):
        prev = _leaky_relu(prev @ (a + b), neg, scratch)
        yield prev


# --- checkpoint serialization ----------------------------------------------
#
# CPA2 layout, little-endian (the model as it is: a text's row is its
# semantic row, so no text table is stored):
#   magic "CPA2" | u32 d0 | u32 d1 | u32 l | u32 H
#   | f64 [U; Z] ((3H + 3) x d0, row-major)
#   | f64 W1[1..l] then W2[1..l] (hop 1: d0 x d1, later: d1 x d1, row-major)

_CPA_MAGIC = b"CPA2"


def save_checkpoint(path: str | Path, model: CpaModel) -> None:
    """Writes the model: [U; Z] and the weights."""
    with open(path, "wb") as fh:
        fh.write(_CPA_MAGIC)
        fh.write(struct.pack("<IIII", model.d0, model.d1, model.hops,
                             model.h))
        for arr in [model.side, *model.w1, *model.w2]:
            fh.write(np.asarray(arr, dtype="<f8").tobytes(order="C"))


def load_checkpoint(path: str | Path) -> CpaModel:
    """The model a CPA2 file holds: [U; Z] and the weights. Every array
    must be finite."""
    with Reader(path, CpaError, _CPA_MAGIC) as src:
        d0, d1, hops, h = src.unpack("<IIII")
        if min(d0, d1, hops) < 1:
            raise src.fail("zero width or hop count in header, file corrupt")

        # every table must lie in the file before the first is allocated:
        # [U; Z], then W1 and W2 of one d0 x d1 and hops - 1 d1 x d1 tables
        src.need(F64.itemsize * ((3 * h + 3) * d0
                                 + 2 * (d0 + (hops - 1) * d1) * d1))

        def take(rows: int, cols: int) -> np.ndarray:
            out = np.empty((rows, cols), F64)
            src.read_into(out)
            return out

        side = take(3 * h + 3, d0)
        w1 = [take(d0 if k == 0 else d1, d1) for k in range(hops)]
        w2 = [take(d0 if k == 0 else d1, d1) for k in range(hops)]
        src.finish()
    # a NaN makes min and max NaN, an infinity makes one infinite; no mask
    # of a table's size is allocated
    if not all(-np.inf < a.min() and a.max() < np.inf
               for a in [side, *w1, *w2]):
        raise CpaError(f"{src.path}: non-finite values")
    return CpaModel(side=side, w1=w1, w2=w2, h=h)
