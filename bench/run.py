#!/usr/bin/env python3
"""cosd benchmark: one workload per process, driven through cosd.cli.main.

    python3 bench/run.py --workload train-single --seed 1 --seconds 10 \
        --trace 0

The cosd sources are imported from src/ beside this directory; nothing is
installed. Inputs are generated from --seed into .bench_work/ and removed at
exit. --trace 0 measures the end-to-end metrics, with times scaled to a
reference machine speed (calibrate.py); --trace 1 runs the timed part once
untraced and once traced and reports per-layer metrics. Metric
names and units come from BENCHMARK.json. The last line of stdout is the
JSON result; README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# One BLAS thread, so that a run keeps to one core and its timings do not
# depend on whether a second core happens to be free.
BLAS_THREADS = "1"
# Set up at least SETUP_MIN times and until SETUP_SECONDS have passed, at
# most SETUP_MAX times: cheap set-ups get more samples for their median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 20, 2.0
MODES = ("full", "no_sem", "no_dis")
LABELS = ("Favor", "None", "Against")
SCORED = ("Favor", "Against")   # F_avg leaves None out
MICF_FLOOR = 0.9                # acceptance criterion 5 on train-single


# -----------------------------------------------------------------------------

@dataclass
class Command:
    argv: list[str]
    seconds: float
    ok: bool
    start: float = 0.0  # perf_counter() when the command began


class Session:
    """Runs cosd commands in-process; counts attempted and failed ones.

    A command fails when it exits non-zero or raises, or when a check on
    its output fails afterwards (reject).
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def command(self, argv: list) -> Command:
        argv = [str(a) for a in argv]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:       # argparse rejected the arguments
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                self.tracer.end(span)
        cmd = Command(argv, seconds, ok=True, start=start)
        if code != 0:
            self.reject(cmd, f"exited {code}: {err.getvalue().strip()}")
        return cmd

    def reject(self, cmd: Command, reason: str) -> None:
        print(f"FAILED cosd {' '.join(cmd.argv)}: {reason}", file=sys.stderr)
        if cmd.ok:
            cmd.ok = False
            self.failed += 1


# -----------------------------------------------------------------------------

@dataclass
class Inputs:
    data: Path
    embeddings: Path
    texts: dict[str, int]               # split -> text count
    targets: int
    run_dir: Path | None = None         # trained during set-up
    train: Command | None = None


def count_rows(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def inputs_from(paths: dict[str, Path], targets: int) -> Inputs:
    return Inputs(data=paths["train"].parent, embeddings=paths["embeddings"],
                  texts={s: count_rows(paths[s])
                         for s in ("train", "val", "test")},
                  targets=targets)


def train(session: Session, inputs: Inputs, run_dir: Path, seed: int,
          flags: list[str]) -> Command:
    return session.command(
        ["train", "--dataset", "synthetic", "--data", inputs.data,
         "--embeddings", inputs.embeddings, "--out-dir", run_dir,
         "--seed", seed, "--h", "3", "--trials", "1", *flags])


def setup_single(cosd, session, out, seed):
    return inputs_from(cosd.synth.make_synthetic(
        out, seed=seed, n_train=600, n_val=150, n_test=150, h=3), 1)


def setup_multi(cosd, session, out, seed):
    import multi_target

    return inputs_from(multi_target.build(out, seed),
                       len(multi_target.TARGETS))


def setup_heldout(cosd, session, out, seed):
    inputs = inputs_from(cosd.synth.make_synthetic(
        out / "data", seed=seed, n_train=150, n_val=30, n_test=2000, h=3), 1)
    inputs.run_dir = out / "run"
    inputs.train = train(session, inputs, inputs.run_dir, seed,
                         ["--epochs", "1"])
    return inputs


@dataclass
class Workload:
    name: str
    setup: Callable[..., Inputs]
    train_flags: list[str] | None   # None: the model is trained in set-up
    micf_floor: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload("train-single", setup_single,
             ["--epochs", "3", "--lda-sweeps", "300"], MICF_FLOOR),
    Workload("train-multi", setup_multi, ["--epochs", "3"]),
    Workload("predict-heldout", setup_heldout, None),
)}


# -----------------------------------------------------------------------------

@dataclass
class Scored:
    """One scoring pass: cosd predict, then cosd eval in every mode."""

    predict: Command
    evals: dict[str, Command]
    micf: dict[str, float] = field(default_factory=dict)
    # file name -> (bytes, command that wrote it), for byte comparisons
    outputs: dict[str, tuple[bytes, Command]] = field(default_factory=dict)


def read_gold(test_tsv: Path) -> list[tuple[str, str]]:
    with open(test_tsv, encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        return [(row["ID"], row["Stance"]) for row in rows]


def micro_f_avg(preds: list[str], golds: list[str]) -> float:
    """Mean of the Favor and Against F1 over pooled counts."""
    total = 0.0
    for cls in SCORED:
        tp = sum(p == cls and g == cls for p, g in zip(preds, golds))
        fp = sum(p == cls and g != cls for p, g in zip(preds, golds))
        fn = sum(p != cls and g == cls for p, g in zip(preds, golds))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            total += 2 * precision * recall / (precision + recall)
    return total / len(SCORED)


def check_predictions(path: Path, gold: list[tuple[str, str]]
                      ) -> tuple[list[str], str | None]:
    """(predicted labels, problem or None) for a predict TSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE))[1:]
    if [row[0] for row in rows] != [i for i, _ in gold]:
        return [], f"{len(rows)} rows do not match the {len(gold)} input ids"
    for row in rows:
        if len(row) != 8 or row[1] not in LABELS:
            return [], f"malformed row {row}"
        try:
            finite = all(math.isfinite(float(x)) for x in row[2:])
        except ValueError:
            finite = False
        if not finite:
            return [], f"non-finite score in row {row}"
    return [row[1] for row in rows], None


def report_micf(path: Path) -> str:
    """The MicF cell of the first trial row of an eval report CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        return next(csv.DictReader(fh))["MicF"]


def score(session: Session, workload: Workload, inputs: Inputs,
          run_dir: Path, out_dir: Path) -> Scored:
    """cosd predict over test.tsv, then cosd eval in each mode, checked."""
    out_dir.mkdir(parents=True)
    test_tsv = inputs.data / "test.tsv"
    preds_path = out_dir / "predictions.tsv"
    predict = session.command(["predict", "--run", run_dir, "--in", test_tsv,
                               "--out", preds_path])
    result = Scored(predict, {
        mode: session.command(["eval", "--run", run_dir, "--split", "test",
                               "--mode", mode])
        for mode in MODES})

    cells = {}
    for mode, cmd in result.evals.items():
        if not cmd.ok:
            continue
        for ext in ("csv", "txt"):
            name = f"report-test-{mode}.{ext}"
            result.outputs[name] = ((run_dir / name).read_bytes(), cmd)
        cells[mode] = report_micf(run_dir / f"report-test-{mode}.csv")
        result.micf[mode] = float(cells[mode])
    if "full" in cells and result.micf["full"] < workload.micf_floor:
        session.reject(result.evals["full"], f"test MicF {cells['full']} < "
                                             f"{workload.micf_floor}")
    if predict.ok:
        result.outputs["predictions.tsv"] = (preds_path.read_bytes(), predict)
        gold = read_gold(test_tsv)
        preds, problem = check_predictions(preds_path, gold)
        if problem:
            session.reject(predict, problem)
        elif "full" in cells:
            own = f"{micro_f_avg(preds, [g for _, g in gold]):.6f}"
            if own != cells["full"]:
                session.reject(predict, f"MicF of the predictions {own} != "
                                        f"eval full-mode MicF {cells['full']}")
    return result


def compare_outputs(session: Session, reference: Scored, result: Scored,
                    what: str) -> None:
    """Reject every command whose output file differs from the reference."""
    for name, (data, cmd) in result.outputs.items():
        if name in reference.outputs and reference.outputs[name][0] != data:
            session.reject(cmd, f"{name} is not byte-identical to the {what}")


# -----------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def throughput(cmds: list[Command], texts_per_call: int,
               seconds: Callable[[float, float], float]) -> float:
    """Texts per second over all the successful commands together.

    `seconds(start, seconds)` gives the time a command counts. The rate
    over the whole window averages the host's drift, where a quantile of a
    few per-call rates follows it.
    """
    times = [seconds(c.start, c.seconds) for c in cmds if c.ok]
    return texts_per_call * len(times) / sum(times) if times else 0.0


def timed_setups(cosd, session, workload, work: Path, seed: int,
                 least: int, most: int = 1, budget: float = 0.0
                 ) -> tuple[Inputs, list[tuple[float, float]], list[Command]]:
    """Set up into fresh directories, keeping the last.

    Sets up at least `least` times, and more, up to `most`, until `budget`
    seconds have been spent. Returns the inputs, each set-up's (start,
    seconds) and any set-up train commands.
    """
    setups, trains = [], []
    inputs = None
    while len(setups) < least or (len(setups) < most
                                  and sum(s for _, s in setups) < budget):
        k = len(setups)
        if inputs is not None:
            shutil.rmtree(work / f"setup-{k - 1}")
        start = time.perf_counter()
        inputs = workload.setup(cosd, session, work / f"setup-{k}", seed)
        setups.append((start, time.perf_counter() - start))
        if inputs.train is not None:
            trains.append(inputs.train)
    return inputs, setups, trains


def timed_part(session, workload, inputs, out: Path, seed: int,
               seconds: float) -> tuple[Command | None, list[Scored]]:
    """Train (train workloads), then score until `seconds` pass, at least once.

    Every scoring pass must repeat the first one byte for byte. The first
    pass also carries the train's report-val.csv for later comparisons.
    """
    train_cmd, run_dir = None, inputs.run_dir
    if workload.train_flags is not None:
        run_dir = out / "run"
        train_cmd = train(session, inputs, run_dir, seed, workload.train_flags)
    start = time.perf_counter()
    passes: list[Scored] = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(score(session, workload, inputs, run_dir,
                            out / f"pass-{len(passes)}"))
        compare_outputs(session, passes[0], passes[-1], "first pass's")
    if train_cmd is not None and train_cmd.ok:
        passes[0].outputs["report-val.csv"] = (
            (run_dir / "report-val.csv").read_bytes(), train_cmd)
    return train_cmd, passes


def measure(cosd, session, workload, work, seed, seconds):
    """End-to-end metrics: repeated set-up, then the timed part.

    Times are scaled to the reference speed (calibrate.py); the context
    keeps the raw ones, less the calibration bursts.
    """
    import calibrate

    with calibrate.Calibrator() as cal:
        inputs, setups, setup_trains = timed_setups(
            cosd, session, workload, work, seed, SETUP_MIN, SETUP_MAX,
            SETUP_SECONDS)
        train_cmd, passes = timed_part(session, workload, inputs,
                                       work / "timed", seed, seconds)
    trains = [c for c in ([train_cmd] if train_cmd else setup_trains) if c.ok]
    predicts = [p.predict for p in passes]
    evals = [c for p in passes for c in p.evals.values()]
    per_call = inputs.texts["test"]
    metrics = {
        "setup_s": median([cal.scaled(*setup) for setup in setups]),
        "train_s": median([cal.scaled(c.start, c.seconds) for c in trains]),
        "predict_texts_per_s": throughput(predicts, per_call, cal.scaled),
        "eval_texts_per_s": throughput(evals, per_call, cal.scaled),
        "test_micf_full": passes[-1].micf.get("full", 0.0),
        "test_micf_no_dis": passes[-1].micf.get("no_dis", 0.0),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    speeds = [rate / calibrate.REFERENCE_RATE for rate in cal.rates]
    extra = {
        "setups": len(setups), "scoring_passes": len(passes),
        "speed": {"bursts": len(speeds), "median": median(speeds),
                  "min": min(speeds), "max": max(speeds)},
        "raw": {"setup_s": median([cal.own(*setup) for setup in setups]),
                "train_s": median([cal.own(c.start, c.seconds)
                                   for c in trains]),
                "predict_texts_per_s": throughput(predicts, per_call,
                                                  cal.own),
                "eval_texts_per_s": throughput(evals, per_call, cal.own)},
        "test_micf_no_sem": passes[-1].micf.get("no_sem"),
    }
    return metrics, inputs, extra


def traced(cosd, session, workload, work, seed, seconds):
    """Per-layer metrics: the timed part untraced, then traced, compared."""
    import spans

    inputs, _, _ = timed_setups(cosd, session, workload, work, seed, 1)
    start = time.perf_counter()
    _, (plain,) = timed_part(session, workload, inputs, work / "plain",
                             seed, 0)
    plain_s = time.perf_counter() - start

    tracer = spans.Tracer()
    tracer.install()
    session.tracer = tracer
    start = time.perf_counter()
    try:
        _, (result,) = timed_part(session, workload, inputs, work / "traced",
                                  seed, 0)
    finally:
        traced_s = time.perf_counter() - start
        session.tracer = None
        tracer.uninstall()
    compare_outputs(session, plain, result, "untraced run's")

    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_s - plain_s
    trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    extra = {"trace_file": str(trace_path.relative_to(ROOT)),
             "coverage_pct_by_command": spans.coverage_by_command(tracer),
             "untraced_layers": tracer.missing}
    return metrics, inputs, extra


# -----------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None when unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return func()
    return None


def context(numpy, args, inputs: Inputs, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "inputs": {"texts": inputs.texts, "targets": inputs.targets,
                   "predict_texts_per_call": inputs.texts["test"],
                   "eval_texts_per_call": inputs.texts["test"]},
        **extra,
    }


def declared_metrics(trace_on: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace_on else "end_to_end"]


def import_cosd():
    """Import cosd from src/ beside this directory, never from elsewhere."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy

    import cosd.cli
    if not Path(cosd.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cosd was imported from {cosd.cli.__file__}, "
                          f"not from {src}")
    return cosd, numpy


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="score for at least this long (after any train)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cosd, numpy = import_cosd()
    except ImportError as exc:
        print(f"error: cannot import cosd from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    session = Session(cosd.cli)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-",
                                 dir=WORK))
    try:
        run = traced if args.trace else measure
        metrics, inputs, extra = run(cosd, session, workload, work, args.seed,
                                     args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(names ^ set(metrics))}")
    print("context " + json.dumps(context(numpy, args, inputs, extra)))
    for m in declared:
        print(f"{m['name']:<38} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
