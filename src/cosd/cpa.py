"""Collaboration propagation: multi-hop graph message passing over the
stacked embedding table, final concatenated representations, and the
graph-free transform used at inference time.

Node rows are ordered texts, topics, labels, matching the graph module.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import F64, Reader
from .graph import BipartiteLaplacian
from .numerics import (NumericsError, Tensor, add, concat_cols, elemwise_mul,
                       leaky_relu, matmul, spmm, xavier_init)

D0 = 768
D1 = 64


class CpaError(Exception):
    """Inconsistent model pieces or a corrupt checkpoint file."""


@dataclass
class EmbeddingTable:
    """Trainable stacked table [V; U; Z]: texts, topics, labels."""

    e0: Tensor
    n_text: int
    h: int

    def __post_init__(self):
        expected = self.n_text + 3 * self.h + 3
        if self.e0.shape[0] != expected:
            raise CpaError(
                f"table has {self.e0.shape[0]} rows, node order needs {expected}")

    @property
    def n_nodes(self) -> int:
        return self.e0.shape[0]

    @property
    def d0(self) -> int:
        return self.e0.shape[1]

    # read-only numpy views of the blocks
    @property
    def v(self) -> np.ndarray:
        return self.e0.data[: self.n_text]

    @property
    def u(self) -> np.ndarray:
        return self.e0.data[self.n_text: self.n_text + 3 * self.h]

    @property
    def z(self) -> np.ndarray:
        return self.e0.data[self.n_text + 3 * self.h:]

    def label_row(self, j: int) -> int:
        return self.n_text + 3 * self.h + j

    def topic_row(self, j: int) -> int:
        return self.n_text + j


def init_embedding_table(pooled_texts: np.ndarray, h: int,
                         label_vecs: np.ndarray, seed: int,
                         d0: int = D0) -> EmbeddingTable:
    """V and Z start from encoder vectors, U from Xavier noise."""
    pooled_texts = np.asarray(pooled_texts, dtype=np.float64)
    label_vecs = np.asarray(label_vecs, dtype=np.float64)
    if pooled_texts.ndim != 2 or pooled_texts.shape[1] != d0:
        raise CpaError(f"text block must be (n, {d0})")
    if label_vecs.shape != (3, d0):
        raise CpaError(f"label block must be (3, {d0})")
    u = xavier_init(3 * h, d0, seed).data
    stacked = np.concatenate([pooled_texts, u, label_vecs], axis=0)
    return EmbeddingTable(e0=Tensor(stacked, requires_grad=True),
                          n_text=len(pooled_texts), h=h)


@dataclass
class CpaWeights:
    """Per hop k: w1[k], w2[k]; first hop d0 x d1, later hops d1 x d1."""

    w1: list[Tensor]
    w2: list[Tensor]

    def __post_init__(self):
        if len(self.w1) != len(self.w2):
            raise CpaError("w1/w2 hop counts differ")
        for k, (a, b) in enumerate(zip(self.w1, self.w2)):
            if a.shape != b.shape:
                raise CpaError(f"hop {k}: w1 {a.shape} vs w2 {b.shape}")
            if k > 0 and a.shape[0] != self.w1[k - 1].shape[1]:
                raise CpaError(f"hop {k}: input dim breaks the chain")

    @property
    def hops(self) -> int:
        return len(self.w1)

    @property
    def params(self) -> list[Tensor]:
        return self.w1 + self.w2

    def as_arrays(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return ([w.data.copy() for w in self.w1],
                [w.data.copy() for w in self.w2])


def init_cpa_weights(d0: int = D0, d1: int = D1, hops: int = 3,
                     seed: int = 0) -> CpaWeights:
    if hops < 1:
        raise CpaError(f"hops must be >= 1, got {hops}")
    w1, w2 = [], []
    for k in range(hops):
        rows = d0 if k == 0 else d1
        w1.append(xavier_init(rows, d1, seed + 2 * k))
        w2.append(xavier_init(rows, d1, seed + 2 * k + 1))
    return CpaWeights(w1=w1, w2=w2)


def propagate(e0: Tensor, lap: BipartiteLaplacian, weights: CpaWeights,
              slope: float = 0.01) -> list[Tensor]:
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
    for k in range(weights.hops):
        neighbors = spmm(lap, prev)
        mixed = matmul(add(prev, neighbors), weights.w1[k])
        interaction = matmul(elemwise_mul(prev, neighbors), weights.w2[k])
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


def infer_transform(x: np.ndarray, weights: CpaWeights,
                    slope: float = 0.01) -> np.ndarray:
    """Graph-free counterpart of propagate for unseen rows.

    Per hop: e^k = LReLU(e^{k-1} (W1^k + W2^k)); the hop outputs are then
    concatenated like final_reps. Accepts a vector or a matrix of rows and
    returns the same rank. Uses the trained weights read-only.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    if arr.shape[1] != weights.w1[0].shape[0]:
        raise CpaError(
            f"input width {arr.shape[1]} != first-hop dim {weights.w1[0].shape[0]}")
    parts = [arr]
    prev = arr
    for k in range(weights.hops):
        pre = prev @ (weights.w1[k].data + weights.w2[k].data)
        prev = np.where(pre >= 0, pre, slope * pre)
        parts.append(prev)
    out = np.concatenate(parts, axis=1)
    return out[0] if single else out


# --- checkpoint serialization ----------------------------------------------
#
# CPA1 layout, little-endian:
#   magic "CPA1" | u32 d0 | u32 d1 | u32 l | u32 H | u32 n_tr
#   | f64 E ((n_tr + 3H + 3) x d0, row-major)
#   | f64 W1[1..l] then W2[1..l] (hop 1: d0 x d1, later: d1 x d1, row-major)

_CPA_MAGIC = b"CPA1"


@dataclass
class CpaCheckpoint:
    """Frozen post-training model: numpy arrays only, safe to share."""

    e0: np.ndarray
    w1: list[np.ndarray]
    w2: list[np.ndarray]
    h: int
    n_text: int

    @property
    def d0(self) -> int:
        return self.e0.shape[1]

    @property
    def hops(self) -> int:
        return len(self.w1)

    @property
    def v(self) -> np.ndarray:
        return self.e0[: self.n_text]

    @property
    def u(self) -> np.ndarray:
        return self.e0[self.n_text: self.n_text + 3 * self.h]

    @property
    def z(self) -> np.ndarray:
        return self.e0[self.n_text + 3 * self.h:]

    def weights(self) -> CpaWeights:
        return CpaWeights(w1=[Tensor(w) for w in self.w1],
                          w2=[Tensor(w) for w in self.w2])


def save_checkpoint(path: str | Path, e0: np.ndarray, w1: list[np.ndarray],
                    w2: list[np.ndarray], h: int, n_text: int) -> None:
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != n_text + 3 * h + 3:
        raise CpaError("e0 row count does not match n_tr + 3H + 3")
    if len(w1) != len(w2):
        raise CpaError("w1/w2 hop counts differ")
    d0 = e0.shape[1]
    d1 = w1[0].shape[1] if w1 else D1
    with open(path, "wb") as fh:
        fh.write(_CPA_MAGIC)
        fh.write(struct.pack("<IIIII", d0, d1, len(w1), h, n_text))
        fh.write(e0.astype("<f8").tobytes(order="C"))
        for mats in (w1, w2):
            for k, w in enumerate(mats):
                rows = d0 if k == 0 else d1
                if w.shape != (rows, d1):
                    raise CpaError(f"hop {k + 1} weight shape {w.shape}")
                fh.write(np.asarray(w, dtype="<f8").tobytes(order="C"))


def load_checkpoint(path: str | Path) -> CpaCheckpoint:
    with Reader(path, CpaError, _CPA_MAGIC) as src:
        d0, d1, hops, h, n_text = src.unpack("<IIIII")
        if min(d0, d1) < 1:
            raise src.fail("zero width in header, file corrupt")

        def take(rows: int, cols: int) -> np.ndarray:
            values = src.array(F64, rows * cols).reshape(rows, cols)
            return values.astype(np.float64)

        e0 = take(n_text + 3 * h + 3, d0)
        w1 = [take(d0 if k == 0 else d1, d1) for k in range(hops)]
        w2 = [take(d0 if k == 0 else d1, d1) for k in range(hops)]
        src.finish()
    if not all(np.isfinite(a).all() for a in [e0, *w1, *w2]):
        raise CpaError(f"{src.path}: non-finite values")
    return CpaCheckpoint(e0=e0, w1=w1, w2=w2, h=h, n_text=n_text)
