"""Official stance metrics: per-target F_avg, macro and micro aggregates.

F_avg is the mean of the Favor and Against F1 scores; the None class is
deliberately left out. Any precision/recall/F1 with a zero denominator is 0
(the official scorer's convention). MacF is the mean F_avg over the targets
that have examples; MicF is F_avg over all examples pooled.
"""

from __future__ import annotations

import csv
import io
from collections import Counter

from .corpus import Stance

SCORED_CLASSES = (Stance.FAVOR, Stance.AGAINST)


class MetricsError(Exception):
    """Misaligned or empty prediction, gold and target lists."""


# Labels are counted by their index here: a Stance hashes through Python
# code, an index in C.
_ORDER = tuple(Stance)
_SCORED = [_ORDER.index(cls) for cls in SCORED_CLASSES]


def _f_avg(pairs: Counter) -> float:
    """F_avg over (prediction, gold) pairs counted by label index."""
    total = 0.0
    for cls in _SCORED:
        tp = pairs[cls, cls]
        predicted = sum(n for (pred, _), n in pairs.items() if pred == cls)
        actual = sum(n for (_, gold), n in pairs.items() if gold == cls)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        if precision + recall:
            total += 2.0 * precision * recall / (precision + recall)
    return total / len(_SCORED)


def _scores(preds, golds, targets) -> tuple[dict[str, float], float, float]:
    """F_avg per target in sorted order, MacF and MicF of aligned lists."""
    if not len(preds) == len(golds) == len(targets):
        raise MetricsError(f"{len(preds)} predictions vs {len(golds)} golds "
                           f"vs {len(targets)} targets")
    if not preds:
        raise MetricsError("no predictions to score")
    groups: dict[str, Counter] = {}
    for (target, pred, gold), n in Counter(zip(
            targets, map(_ORDER.index, preds),
            map(_ORDER.index, golds))).items():
        groups.setdefault(target, Counter())[pred, gold] = n
    per_target = {t: _f_avg(groups[t]) for t in sorted(groups)}
    macf = sum(per_target.values()) / len(per_target)
    return per_target, macf, _f_avg(sum(groups.values(), Counter()))


def macro_micro(preds: list[Stance], golds: list[Stance],
                targets: list[str]) -> tuple[float, float]:
    """(MacF, MicF) of aligned prediction, gold and target lists."""
    return _scores(preds, golds, targets)[1:]


def trial_report(trial_preds: list[list[Stance]], golds: list[Stance],
                 targets: list[str], target_order: list[str],
                 trials: list[int] | None = None) -> tuple[str, str]:
    """Each trial's scores as (aligned text, CSV), then their mean.

    Each trial's predictions follow the order of the one gold and target
    list. Columns are the F_avg of each target of target_order (0 for a
    target without examples), then MacF and MicF; a trial without
    predictions reads all 0. Rows are labeled trial-N with N from trials,
    which defaults to 1, 2, ...
    """
    if not trial_preds:
        raise MetricsError("a report needs at least one trial")
    trials = trials or list(range(1, len(trial_preds) + 1))
    if len(trials) != len(trial_preds):
        raise MetricsError(f"{len(trials)} trial labels vs "
                           f"{len(trial_preds)} trials")
    columns = list(target_order) + ["MacF", "MicF"]
    labeled = []
    for trial, preds in zip(trials, trial_preds):
        per_target, macf, micf = (_scores(preds, golds, targets) if preds
                                  else ({}, 0.0, 0.0))
        labeled.append((f"trial-{trial}",
                        [per_target.get(t, 0.0) for t in target_order]
                        + [macf, micf]))
    labeled.append(("mean", [sum(cells) / len(cells) for cells in
                             zip(*(row for _, row in labeled))]))

    name_w = max(len("run"), max(len(name) for name, _ in labeled))
    col_w = [max(len(c), 6) for c in columns]
    lines = ["  ".join(["run".ljust(name_w)]
                       + [c.rjust(w) for c, w in zip(columns, col_w)])]
    for name, row in labeled:
        cells = [f"{v:.4f}".rjust(w) for v, w in zip(row, col_w)]
        lines.append("  ".join([name.ljust(name_w)] + cells))

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["run"] + columns)
    writer.writerows([name] + [f"{v:.6f}" for v in row]
                     for name, row in labeled)
    return "\n".join(lines) + "\n", out.getvalue()
