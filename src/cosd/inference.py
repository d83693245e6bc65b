"""Hybrid scoring of unseen texts and retrieval.

The semantic score dots the target-attended text representation against the
trained label embeddings; the distributed score composes the text's topic
distribution with the trained topic embeddings, pushes both sides through
the graph-free transform, and takes a per-stance max over topics. Their sum
decides the label. score_batch is the one scoring path: val scoring during
training, eval and predict all call it on stacked rows. It takes rows and
no settings: a side given as None scores zeros and is never computed. It
returns the two sides' scores, and mode_scores is the one labelling rule:
it turns them into a mode's labels, so one scoring serves every mode.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .corpus import LABELS, Stance
from .cpa import CpaModel, hop_outputs

# each mode by the score sides its labels read: (semantic, distributed)
MODES = {"full": (True, True), "no_sem": (False, True),
         "no_dis": (True, False)}


class InferenceError(Exception):
    """Mismatched or missing rows, invalid mode, or out-of-range retrieval."""


def semantic_scores(e_sem_matrix: np.ndarray,
                    z_table: np.ndarray) -> np.ndarray:
    """(n, 3) inner products against the three trained label embeddings.
    A non-finite row or label entry makes its scores non-finite, and those
    are rejected."""
    e = np.asarray(e_sem_matrix, dtype=np.float64)
    z_table = np.asarray(z_table, dtype=np.float64)
    if e.ndim != 2 or z_table.shape != (3, e.shape[1]):
        raise InferenceError(
            f"label table {z_table.shape} vs semantic rows {e.shape}")
    scores = e @ z_table.T
    if not np.isfinite(scores).all():
        raise InferenceError("non-finite semantic scores")
    return scores


def distributed_scores(dis_matrix: np.ndarray, model: CpaModel,
                       slope: float = 0.01) -> np.ndarray:
    """(n, 3) per stance block, max over its H topics of the products of the
    transformed topic-weighted mix with the model's transformed topic
    embeddings: infer_transform(dis_matrix @ U) @ infer_transform(U).T.

    Each row of dis_matrix is a topic distribution (sums to 1; a row with a
    NaN or an infinity sums to neither). The product is summed hop by hop
    at the topic table's size, never at the texts' width: hop 0 is
    dis (U U^T), hop 1's pre-activation dis (U (W1 + W2)), and later hops
    run at width d1.
    """
    dis_matrix = np.asarray(dis_matrix, dtype=np.float64)
    u_table = model.u
    if dis_matrix.ndim != 2 or dis_matrix.shape[1] != u_table.shape[0]:
        raise InferenceError(
            f"topic rows {dis_matrix.shape} vs {u_table.shape[0]} topics")
    if dis_matrix.shape[0] == 0:
        return np.zeros((0, 3))
    if not np.abs(dis_matrix.sum(axis=1) - 1.0).max() <= 1e-6:
        raise InferenceError("a topic distribution does not sum to 1")
    first = u_table @ (model.w1[0] + model.w2[0])
    sims = dis_matrix @ (u_table @ u_table.T)
    for text_hop, topic_hop in zip(
            hop_outputs(dis_matrix @ first, model, slope),
            hop_outputs(first, model, slope)):
        sims += text_hop @ topic_hop.T
    return sims.reshape(len(dis_matrix), 3, -1).max(axis=2)


def zscore_rows(scores: np.ndarray) -> np.ndarray:
    """Standardize each row; a constant row becomes zeros."""
    mean = scores.mean(axis=1, keepdims=True)
    std = scores.std(axis=1, keepdims=True)
    return np.divide(scores - mean, std, out=np.zeros_like(scores),
                     where=std > 0)


def argmax_labels(total: np.ndarray) -> list[Stance]:
    """Row-wise argmax; ties break by label order Favor < None < Against."""
    return [LABELS[i] for i in np.argmax(np.atleast_2d(total), axis=1)]


def sides_read(modes: Iterable[str]) -> tuple[bool, bool]:
    """Whether some mode reads the semantic, and the distributed side."""
    if unknown := [mode for mode in modes if mode not in MODES]:
        raise InferenceError(f"unknown mode {unknown[0]!r}, expected one "
                             f"of {tuple(MODES)}")
    return tuple(map(any, zip(*(MODES[mode] for mode in modes))))


class Scores(NamedTuple):
    """(n, 3) score rows in label order (Favor, None, Against) and each
    text's label."""

    sem: np.ndarray
    dis: np.ndarray
    predicted: list[Stance]    # argmax of sem + dis


def mode_scores(sem: np.ndarray, dis: np.ndarray, mode: str,
                score_norm: bool = False) -> Scores:
    """A mode's two score sides and its labels: a side the mode does not
    read (MODES) is zeros, and score_norm z-scores each side's rows first.
    The labels are the argmax of the sides' sum, where 0 + x is x."""
    sides = [(zscore_rows(side) if score_norm else side) if read
             else np.zeros_like(side)
             for side, read in zip((sem, dis), sides_read([mode]))]
    return Scores(*sides, argmax_labels(sides[0] + sides[1]))


def score_batch(sem_rows: np.ndarray | None, dis_rows: np.ndarray | None,
                model: CpaModel,
                slope: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Hybrid scores of stacked texts against one group's trained model:
    the (n, 3) semantic and distributed score rows, in label order (Favor,
    None, Against).

    sem_rows are semantic representations (n, d0), dis_rows topic
    distributions (n, 3H). A side given as None is never scored and reads
    as zeros; one side must be given. mode_scores labels the texts.
    """
    if sem_rows is None and dis_rows is None:
        raise InferenceError("no semantic rows and no topic rows to score")
    n = len(dis_rows if sem_rows is None else sem_rows)
    if dis_rows is not None and len(dis_rows) != n:
        raise InferenceError(f"{n} semantic rows vs {len(dis_rows)} topic rows")
    sem = (np.zeros((n, 3)) if sem_rows is None
           else semantic_scores(sem_rows, model.z))
    dis = (np.zeros((n, 3)) if dis_rows is None
           else distributed_scores(dis_rows, model, slope))
    return sem, dis


def top_k_similar(query_rep: np.ndarray, train_reps: np.ndarray,
                  train_ids: list[str], k: int,
                  exclude_id: str | None = None) -> list[tuple[str, float]]:
    """Cosine retrieval over training representations, descending.

    Zero-norm stored rows score 0; the query must be nonzero. exclude_id
    drops the query's own row when it is one of the stored texts.
    """
    query = np.asarray(query_rep, dtype=np.float64).reshape(-1)
    reps = np.asarray(train_reps, dtype=np.float64)
    if reps.shape[0] != len(train_ids):
        raise InferenceError(
            f"{reps.shape[0]} rep rows vs {len(train_ids)} ids")
    if reps.shape[1] != query.shape[0]:
        raise InferenceError("query/representation width mismatch")
    qn = np.linalg.norm(query)
    if qn == 0:
        raise InferenceError("zero-norm query")
    keep = [i for i, rec_id in enumerate(train_ids) if rec_id != exclude_id]
    if k < 1 or k > len(keep):
        raise InferenceError(f"k={k} out of range (1..{len(keep)})")
    norms = np.linalg.norm(reps[keep], axis=1)
    sims = np.divide(reps[keep] @ query, norms * qn,
                     out=np.zeros(len(keep)), where=norms > 0)
    order = np.argsort(-sims, kind="stable")[:k]
    return [(train_ids[keep[i]], float(sims[i])) for i in order]
