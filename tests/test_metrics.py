"""Metric tests built on hand-countable confusion cases.

The 5-example case is worked out in comments so the expected fractions are
auditable without re-deriving them. A brute-force tally of TP/FP/FN per
(target, class) is the oracle for random cases, and one report's exact
bytes are pinned.
"""

import csv
import io
import random

import pytest

from cosd.corpus import Stance
from cosd.metrics import MetricsError, macro_micro, trial_report

F, N, A = Stance.FAVOR, Stance.NONE, Stance.AGAINST


def f_avg_of(preds, golds):
    """F_avg of aligned lists: the MicF of one target."""
    return macro_micro(preds, golds, ["t"] * len(preds))[1]


def test_f_avg_hand_computed_five_example_case():
    golds = [F, F, A, A, N]
    preds = [F, A, A, N, N]
    # Favor: tp=1 fp=0 fn=1 -> P=1, R=1/2, F=2/3
    # Against: tp=1 fp=1 fn=1 -> P=1/2, R=1/2, F=1/2
    assert f_avg_of(preds, golds) == pytest.approx(7.0 / 12.0, abs=1e-12)


def test_f_avg_perfect_is_one():
    golds = [F, A, N, F, A]
    assert f_avg_of(golds, golds) == 1.0


def test_f_avg_no_favor_anywhere_halves_against():
    golds = [A, A, N]
    preds = [A, N, N]
    # Against: tp=1 fp=0 fn=1 -> F_A = 2/3; Favor absent -> F_F = 0
    assert f_avg_of(preds, golds) == pytest.approx((2.0 / 3.0) / 2.0)


def test_f_avg_zero_division_rules():
    assert f_avg_of([N, N], [N, N]) == 0.0
    # predicted Favor never gold, gold Against never predicted
    assert f_avg_of([F, F], [A, A]) == 0.0


def test_f_avg_bounds_and_length_check():
    golds = [F, A, F, N]
    preds = [F, F, A, A]
    val = f_avg_of(preds, golds)
    assert 0.0 <= val < 1.0
    with pytest.raises(MetricsError):
        f_avg_of([F], [F, A])
    with pytest.raises(MetricsError):
        f_avg_of([], [])


def test_f_avg_permutation_invariant():
    golds = [F, F, A, A, N, F]
    preds = [F, A, A, N, N, F]
    base = f_avg_of(preds, golds)
    order = [3, 0, 5, 2, 1, 4]
    assert f_avg_of([preds[i] for i in order],
                    [golds[i] for i in order]) == pytest.approx(base)


def test_counts_accumulate_over_examples():
    # Favor: tp=1 fp=0 fn=1 -> P=1, R=1/2, F=2/3
    # Against: tp=1 fp=1 fn=0 -> P=1/2, R=1, F=2/3
    assert f_avg_of([F, A, A], [F, F, A]) == pytest.approx(2.0 / 3.0)
    # one more Favor hit: Favor tp=2 fn=1 -> F=4/5
    assert f_avg_of([F, A, A, F], [F, F, A, F]) == pytest.approx(
        (4.0 / 5.0 + 2.0 / 3.0) / 2.0)


def test_macro_micro_single_target_collapse():
    golds = [F, F, A, A, N]
    preds = [F, A, A, N, N]
    mac, mic = macro_micro(preds, golds, ["t"] * 5)
    assert mac == pytest.approx(7.0 / 12.0)
    assert mic == pytest.approx(7.0 / 12.0)
    assert mic == pytest.approx(f_avg_of(preds, golds))


def test_macro_micro_perfect_multi_target():
    golds = [F, A, N, F, A, N]
    targets = ["a", "a", "a", "b", "b", "b"]
    assert macro_micro(golds, golds, targets) == (1.0, 1.0)


def test_macro_micro_hand_constructed_two_targets():
    # target x: golds FFAA preds FNAN -> F_F = 2/3, F_A = 2/3, F_avg = 2/3
    # target y: golds FFAA preds FFAA -> F_avg = 1
    golds = [F, F, A, A, F, F, A, A]
    preds = [F, N, A, N, F, F, A, A]
    targets = ["x"] * 4 + ["y"] * 4
    mac, mic = macro_micro(preds, golds, targets)
    assert mac == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
    # pooled Favor: tp=3 fp=0 fn=1 -> 6/7; pooled Against same -> MicF = 6/7
    assert mic == pytest.approx(6.0 / 7.0)
    assert mac != pytest.approx(mic)


def test_macro_micro_rejects_missing_target_group():
    with pytest.raises(MetricsError):
        macro_micro([], [], [])
    with pytest.raises(MetricsError):
        macro_micro([F, A], [F, A], ["a"])
    with pytest.raises(MetricsError):
        macro_micro([F], [F, A], ["a", "a"])


def test_macro_micro_averages_only_targets_with_examples():
    golds = [F, A, F, A]
    preds = [F, A, A, F]
    targets = ["good", "good", "bad", "bad"]
    mac_all, _ = macro_micro(preds, golds, targets)
    mac_good, mic_good = macro_micro(preds[:2], golds[:2], targets[:2])
    assert mac_good == 1.0 and mic_good == 1.0
    assert mac_all == pytest.approx(0.5)


# --- brute-force oracle ---------------------------------------------------------


def _oracle_f_avg(cells):
    """F_avg from (tp, fp, fn) per scored class, zero denominators -> 0."""
    total = 0.0
    for tp, fp, fn in cells:
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            total += 2.0 * precision * recall / (precision + recall)
    return total / len(cells)


def _oracle_cells(triples, target=None):
    """(tp, fp, fn) of Favor and Against, counted one example at a time over
    the examples of target (all of them when None)."""
    cells = []
    for cls in (F, A):
        tp = fp = fn = 0
        for pred, gold, t in triples:
            if target is not None and t != target:
                continue
            if pred is cls and gold is cls:
                tp += 1
            elif pred is cls:
                fp += 1
            elif gold is cls:
                fn += 1
        cells.append((tp, fp, fn))
    return cells


def test_metrics_match_a_brute_force_tally():
    rng = random.Random(20240515)
    names = ["t0", "t1", "t2", "t3"]
    seen_zero = seen_absent = 0
    for _ in range(1500):
        n = rng.randint(1, 30)
        pool = rng.sample(names, rng.randint(1, 4))
        # some cases leave a class out of golds or predictions entirely
        gold_labels = rng.choice([[F, N, A], [F, N], [N, A], [N]])
        pred_labels = rng.choice([[F, N, A], [F, A], [N], [A]])
        golds = [rng.choice(gold_labels) for _ in range(n)]
        preds = [rng.choice(pred_labels) for _ in range(n)]
        targets = [rng.choice(pool) for _ in range(n)]
        triples = list(zip(preds, golds, targets))
        present = sorted(set(targets))
        per_target = [_oracle_f_avg(_oracle_cells(triples, t))
                      for t in present]
        want_mac = sum(per_target) / len(per_target)
        want_mic = _oracle_f_avg(_oracle_cells(triples))
        assert macro_micro(preds, golds, targets) == (want_mac, want_mic)
        assert f_avg_of(preds, golds) == want_mic
        seen_zero += any(tp + fp == 0 or tp + fn == 0
                         for tp, fp, fn in _oracle_cells(triples))
        seen_absent += len(present) < len(pool)
    assert seen_zero > 100 and seen_absent > 100


# --- trial_report -----------------------------------------------------------------


def _rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def test_trial_report_golden_bytes():
    golds = [F, F, A, A, N, F, A, N, A]
    targets = ["Atheism"] * 5 + ["Climate Change"] * 4
    trial_preds = [
        [F, A, A, N, N, F, A, N, A],
        [F, F, A, A, N, A, A, F, N],
        [N, N, N, N, N, F, F, F, F],
    ]
    text, csv_text = trial_report(
        trial_preds, golds, targets,
        ["Climate Change", "Hillary Clinton", "Atheism"], [1, 2, 4])
    assert text == (
        "run      Climate Change  Hillary Clinton  Atheism    MacF    MicF\n"
        "trial-1          1.0000           0.0000   0.5833  0.7917  0.7750\n"
        "trial-2          0.2500           0.0000   1.0000  0.6250  0.7083\n"
        "trial-4          0.2000           0.0000   0.0000  0.1000  0.1429\n"
        "mean             0.4833           0.0000   0.5278  0.5056  0.5421\n")
    assert csv_text == (
        "run,Climate Change,Hillary Clinton,Atheism,MacF,MicF\n"
        "trial-1,1.000000,0.000000,0.583333,0.791667,0.775000\n"
        "trial-2,0.250000,0.000000,1.000000,0.625000,0.708333\n"
        "trial-4,0.200000,0.000000,0.000000,0.100000,0.142857\n"
        "mean,0.483333,0.000000,0.527778,0.505556,0.542063\n")


def test_per_target_f_avg_values():
    golds = [F, F, A, A, N, F, A]
    preds = [F, A, A, N, N, F, A]
    targets = ["t1"] * 5 + ["t2"] * 2
    (row, _) = _rows(trial_report([preds], golds, targets, ["t1", "t2"])[1])
    assert float(row["t1"]) == pytest.approx(7.0 / 12.0, abs=1e-6)
    assert float(row["t2"]) == 1.0


def test_report_single_trial_equals_mean():
    golds = [F, F, A, A, N, F, A]
    preds = [F, A, A, N, N, F, A]
    targets = ["AT"] * 5 + ["CC"] * 2
    text, csv_text = trial_report([preds], golds, targets, ["AT", "CC"])
    lines = text.splitlines()
    assert lines[0].split() == ["run", "AT", "CC", "MacF", "MicF"]
    assert lines[1].split()[1:] == lines[2].split()[1:]
    assert [lines[1].split()[0], lines[2].split()[0]] == ["trial-1", "mean"]
    csv_lines = csv_text.splitlines()
    assert csv_lines[0] == "run,AT,CC,MacF,MicF"
    assert csv_lines[1].split(",")[1:] == csv_lines[2].split(",")[1:]


def test_report_mean_over_three_trials():
    golds = [F, A, F, A]
    targets = ["T"] * 4
    # all None scores 0; half scores Favor P=1 R=1/2 -> F=2/3 and
    # Against P=2/3 R=1 -> F=4/5
    half = [F, A, A, A]
    trial_preds = [[N] * 4, half, half]
    rows = _rows(trial_report(trial_preds, golds, targets, ["T"])[1])
    want = f_avg_of(half, golds)
    assert want == pytest.approx((2.0 / 3.0 + 4.0 / 5.0) / 2.0)
    assert [float(row["T"]) for row in rows] == pytest.approx(
        [0.0, want, want, 2.0 * want / 3.0], abs=1e-6)
    text = trial_report([half] * 3, golds, targets, ["T"])[0]
    assert text.splitlines()[-1].split()[1:] == [f"{want:.4f}"] * 3


def test_report_requires_all_columns():
    with pytest.raises(MetricsError):
        trial_report([], [F], ["T"], ["T"])
    with pytest.raises(MetricsError):
        trial_report([[F, A]], [F], ["T"], ["T"])
    # every column of target_order is present, even without examples
    (row, _) = _rows(trial_report([[F]], [F], ["T"], ["T", "U"])[1])
    assert list(row) == ["run", "T", "U", "MacF", "MicF"]
    assert float(row["U"]) == 0.0


def test_report_labels_rows_with_given_trial_numbers():
    text, csv_text = trial_report([[F]], [F], ["T"], ["T"], trials=[2])
    assert [line.split()[0] for line in text.splitlines()] == [
        "run", "trial-2", "mean"]
    assert csv_text.splitlines()[1].startswith("trial-2,")
    with pytest.raises(MetricsError):
        trial_report([[F], [F]], [F], ["T"], ["T"], trials=[2])


def test_report_row_matches_the_metric_functions():
    golds = [F, F, A, A, N, F, A]
    preds = [F, A, A, N, N, F, A]
    targets = ["t1"] * 5 + ["t2"] * 2
    (row, _) = _rows(trial_report([preds], golds, targets,
                                  ["t2", "absent", "t1"])[1])
    assert list(row) == ["run", "t2", "absent", "t1", "MacF", "MicF"]
    assert row["t1"] == f"{f_avg_of(preds[:5], golds[:5]):.6f}"
    assert row["t2"] == f"{f_avg_of(preds[5:], golds[5:]):.6f}"
    assert row["absent"] == "0.000000"
    macf, micf = macro_micro(preds, golds, targets)
    assert (row["MacF"], row["MicF"]) == (f"{macf:.6f}", f"{micf:.6f}")
    # a trial without predictions (a group without val texts) reads all 0
    (empty, _) = _rows(trial_report([[]], [], [], ["t1"])[1])
    assert empty == {"run": "trial-1", "t1": "0.000000",
                     "MacF": "0.000000", "MicF": "0.000000"}
