"""Official stance metrics: per-target F_avg, macro and micro aggregates.

F_avg is the mean of the Favor and Against F1 scores; the None class is
deliberately left out. Any precision/recall/F1 with a zero denominator is 0
(the official scorer's convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Stance

SCORED_CLASSES = (Stance.FAVOR, Stance.AGAINST)


class MetricsError(Exception):
    """Misaligned prediction/gold lists or an empty target group."""


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def f1(self) -> float:
        precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)


@dataclass
class ConfusionCounts:
    """TP/FP/FN per (target, class) for the two scored classes."""

    per: dict[tuple[str, Stance], ClassCounts] = field(default_factory=dict)

    def add(self, target: str, gold: Stance, pred: Stance) -> None:
        for cls in SCORED_CLASSES:
            cell = self.per.setdefault((target, cls), ClassCounts())
            if gold is cls and pred is cls:
                cell.tp += 1
            elif pred is cls:
                cell.fp += 1
            elif gold is cls:
                cell.fn += 1

    def targets(self) -> list[str]:
        return sorted({t for t, _ in self.per})

    def pooled(self, cls: Stance) -> ClassCounts:
        out = ClassCounts()
        for (_, c), cell in self.per.items():
            if c is cls:
                out.tp += cell.tp
                out.fp += cell.fp
                out.fn += cell.fn
        return out

    def f_avg(self, target: str | None = None) -> float:
        total = 0.0
        for cls in SCORED_CLASSES:
            cell = (self.pooled(cls) if target is None
                    else self.per.get((target, cls), ClassCounts()))
            total += cell.f1()
        return total / len(SCORED_CLASSES)


def _tally(preds, golds, targets=None) -> ConfusionCounts:
    if len(preds) != len(golds):
        raise MetricsError(f"{len(preds)} predictions vs {len(golds)} golds")
    if targets is None:
        targets = [""] * len(preds)
    elif len(targets) != len(preds):
        raise MetricsError(f"{len(targets)} targets vs {len(preds)} predictions")
    counts = ConfusionCounts()
    for pred, gold, target in zip(preds, golds, targets):
        counts.add(target, gold, pred)
    return counts


def f_avg(preds: list[Stance], golds: list[Stance]) -> float:
    """(F1_favor + F1_against) / 2 over aligned lists."""
    return _tally(preds, golds).f_avg()


def macro_micro(preds: list[Stance], golds: list[Stance],
                targets: list[str],
                target_order: list[str] | None = None) -> tuple[float, float]:
    """MacF = mean of per-target F_avg; MicF = F_avg on pooled counts.

    target_order, when given, fixes the expected target set; a listed target
    with no examples is an error.
    """
    counts = _tally(preds, golds, targets)
    seen = counts.targets()
    order = seen if target_order is None else list(target_order)
    missing = [t for t in order if t not in seen]
    if missing or not order:
        raise MetricsError(f"empty target group(s): {missing or order}")
    mac = sum(counts.f_avg(t) for t in order) / len(order)
    mic = counts.f_avg(None)
    return mac, mic


def per_target_f_avg(preds, golds, targets) -> dict[str, float]:
    counts = _tally(preds, golds, targets)
    return {t: counts.f_avg(t) for t in counts.targets()}


def report_row(preds: list[Stance], golds: list[Stance], targets: list[str],
               target_order: list[str]) -> dict[str, float]:
    """One trial's report row: F_avg per target of target_order (0 for a
    target without examples), then "MacF" and "MicF"; all 0 without
    predictions."""
    if preds:
        per_target = per_target_f_avg(preds, golds, targets)
        macf, micf = macro_micro(preds, golds, targets)
    else:
        per_target, macf, micf = {}, 0.0, 0.0
    row = {t: per_target.get(t, 0.0) for t in target_order}
    row["MacF"] = macf
    row["MicF"] = micf
    return row


def trial_report(trial_preds: list[list[Stance]], golds: list[Stance],
                 targets: list[str], target_order: list[str],
                 trials: list[int] | None = None) -> tuple[str, str]:
    """report() over one report_row per trial: each trial's predictions,
    in the order of the one gold list and target list."""
    return report([report_row(preds, golds, targets, target_order)
                   for preds in trial_preds], target_order, trials)


def report(trial_rows: list[dict[str, float]], target_order: list[str],
           trials: list[int] | None = None) -> tuple[str, str]:
    """Render trial metrics as (aligned text, CSV).

    Each trial row maps target name -> F_avg plus "MacF" and "MicF"; a mean
    row is appended. Column order follows target_order. Rows are labeled
    trial-N with N from trials, which defaults to 1, 2, ...
    """
    if not trial_rows:
        raise MetricsError("report needs at least one trial")
    trials = trials or list(range(1, len(trial_rows) + 1))
    columns = list(target_order) + ["MacF", "MicF"]
    for trial, row in zip(trials, trial_rows):
        absent = [c for c in columns if c not in row]
        if absent:
            raise MetricsError(f"trial {trial} missing columns {absent}")

    mean_row = {c: sum(row[c] for row in trial_rows) / len(trial_rows)
                for c in columns}
    labeled = [(f"trial-{t}", row) for t, row in zip(trials, trial_rows)]
    labeled.append(("mean", mean_row))

    name_w = max(len("run"), max(len(name) for name, _ in labeled))
    col_w = [max(len(c), 6) for c in columns]
    lines = ["  ".join(["run".ljust(name_w)]
                       + [c.rjust(w) for c, w in zip(columns, col_w)])]
    for name, row in labeled:
        cells = [f"{row[c]:.4f}".rjust(w) for c, w in zip(columns, col_w)]
        lines.append("  ".join([name.ljust(name_w)] + cells))
    text = "\n".join(lines) + "\n"

    csv_lines = [",".join(["run"] + columns)]
    for name, row in labeled:
        csv_lines.append(",".join([name] + [f"{row[c]:.6f}" for c in columns]))
    return text, "\n".join(csv_lines) + "\n"
