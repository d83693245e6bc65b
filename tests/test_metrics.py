"""Metric tests built on hand-countable confusion cases.

The 5-example case is worked out in comments so the expected fractions are
auditable without re-deriving them.
"""

import pytest

from cosd.corpus import Stance
from cosd.metrics import (
    ConfusionCounts,
    MetricsError,
    f_avg,
    macro_micro,
    per_target_f_avg,
    report,
    report_row,
)

F, N, A = Stance.FAVOR, Stance.NONE, Stance.AGAINST


def test_f_avg_hand_computed_five_example_case():
    golds = [F, F, A, A, N]
    preds = [F, A, A, N, N]
    # Favor: tp=1 fp=0 fn=1 -> P=1, R=1/2, F=2/3
    # Against: tp=1 fp=1 fn=1 -> P=1/2, R=1/2, F=1/2
    assert f_avg(preds, golds) == pytest.approx(7.0 / 12.0, abs=1e-12)


def test_f_avg_perfect_is_one():
    golds = [F, A, N, F, A]
    assert f_avg(golds, golds) == 1.0


def test_f_avg_no_favor_anywhere_halves_against():
    golds = [A, A, N]
    preds = [A, N, N]
    # Against: tp=1 fp=0 fn=1 -> F_A = 2/3; Favor absent -> F_F = 0
    assert f_avg(preds, golds) == pytest.approx((2.0 / 3.0) / 2.0)


def test_f_avg_zero_division_rules():
    assert f_avg([N, N], [N, N]) == 0.0
    # predicted Favor never gold, gold Against never predicted
    assert f_avg([F, F], [A, A]) == 0.0


def test_f_avg_bounds_and_length_check():
    golds = [F, A, F, N]
    preds = [F, F, A, A]
    val = f_avg(preds, golds)
    assert 0.0 <= val < 1.0
    with pytest.raises(MetricsError):
        f_avg([F], [F, A])


def test_f_avg_permutation_invariant():
    golds = [F, F, A, A, N, F]
    preds = [F, A, A, N, N, F]
    base = f_avg(preds, golds)
    order = [3, 0, 5, 2, 1, 4]
    assert f_avg([preds[i] for i in order],
                 [golds[i] for i in order]) == pytest.approx(base)


def test_macro_micro_single_target_collapse():
    golds = [F, F, A, A, N]
    preds = [F, A, A, N, N]
    mac, mic = macro_micro(preds, golds, ["t"] * 5)
    assert mac == pytest.approx(7.0 / 12.0)
    assert mic == pytest.approx(7.0 / 12.0)
    assert mic == pytest.approx(f_avg(preds, golds))


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
    golds, preds = [F, A], [F, A]
    with pytest.raises(MetricsError):
        macro_micro(preds, golds, ["a", "a"], target_order=["a", "b"])
    with pytest.raises(MetricsError):
        macro_micro([], [], [])


def test_macro_micro_respects_target_order_subset():
    golds = [F, A, F, A]
    preds = [F, A, A, F]
    targets = ["good", "good", "bad", "bad"]
    mac_all, _ = macro_micro(preds, golds, targets)
    mac_good, mic_good = macro_micro(preds[:2], golds[:2], targets[:2],
                                     target_order=["good"])
    assert mac_good == 1.0 and mic_good == 1.0
    assert mac_all == pytest.approx(0.5)


def test_per_target_f_avg_values():
    golds = [F, F, A, A, N, F, A]
    preds = [F, A, A, N, N, F, A]
    targets = ["t1"] * 5 + ["t2"] * 2
    table = per_target_f_avg(preds, golds, targets)
    assert table["t1"] == pytest.approx(7.0 / 12.0)
    assert table["t2"] == 1.0


def test_confusion_counts_accumulate():
    counts = ConfusionCounts()
    counts.add("t", F, F)
    counts.add("t", F, A)
    counts.add("t", A, A)
    favor = counts.per[("t", F)]
    against = counts.per[("t", A)]
    assert (favor.tp, favor.fp, favor.fn) == (1, 0, 1)
    assert (against.tp, against.fp, against.fn) == (1, 1, 0)


def test_report_single_trial_equals_mean():
    row = {"AT": 0.5, "CC": 0.25, "MacF": 0.375, "MicF": 0.4}
    text, csv = report([row], ["AT", "CC"])
    lines = text.splitlines()
    assert lines[0].split() == ["run", "AT", "CC", "MacF", "MicF"]
    assert lines[1].split() == ["trial-1", "0.5000", "0.2500", "0.3750", "0.4000"]
    assert lines[2].split() == ["mean", "0.5000", "0.2500", "0.3750", "0.4000"]
    csv_lines = csv.splitlines()
    assert csv_lines[0] == "run,AT,CC,MacF,MicF"
    assert csv_lines[1] == "trial-1,0.500000,0.250000,0.375000,0.400000"
    assert csv_lines[2] == "mean,0.500000,0.250000,0.375000,0.400000"


def test_report_mean_over_three_trials():
    rows = [
        {"T": 0.3, "MacF": 0.3, "MicF": 0.3},
        {"T": 0.6, "MacF": 0.6, "MicF": 0.6},
        {"T": 0.6, "MacF": 0.6, "MicF": 0.6},
    ]
    text, csv = report(rows, ["T"])
    assert text.splitlines()[-1].split() == ["mean", "0.5000", "0.5000", "0.5000"]
    identical = report([rows[1]] * 3, ["T"])[0]
    assert identical.splitlines()[-1].split()[1:] == ["0.6000", "0.6000", "0.6000"]


def test_report_requires_all_columns():
    with pytest.raises(MetricsError):
        report([], ["T"])
    with pytest.raises(MetricsError):
        report([{"T": 0.5, "MacF": 0.5}], ["T"])  # MicF missing


def test_report_labels_rows_with_given_trial_numbers():
    row = {"T": 0.5, "MacF": 0.5, "MicF": 0.5}
    text, csv = report([row], ["T"], trials=[2])
    assert [line.split()[0] for line in text.splitlines()] == [
        "run", "trial-2", "mean"]
    assert csv.splitlines()[1].startswith("trial-2,")


def test_report_row_matches_the_metric_functions():
    golds = [F, F, A, A, N, F, A]
    preds = [F, A, A, N, N, F, A]
    targets = ["t1"] * 5 + ["t2"] * 2
    row = report_row(preds, golds, targets, ["t2", "absent", "t1"])
    assert list(row) == ["t2", "absent", "t1", "MacF", "MicF"]
    per_target = per_target_f_avg(preds, golds, targets)
    assert row["t1"] == per_target["t1"] and row["t2"] == per_target["t2"]
    assert row["absent"] == 0.0
    assert (row["MacF"], row["MicF"]) == macro_micro(preds, golds, targets)
    assert report_row([], [], [], ["t1"]) == {"t1": 0.0, "MacF": 0.0,
                                              "MicF": 0.0}
