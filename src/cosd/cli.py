"""Command-line pipeline driver: the parser, the config and one short
function per command; the run directory is cosd.rundir's.

Commands: topics, train, predict, eval, inspect, synth. topics, train and
synth take their configuration as flat key = value text; every key is also
a flag of train, while topics and synth take flags only for the keys they
read. Precedence: flag, then the config file, then defaults. predict, eval
and inspect read the configuration of the run they are given from its
manifest; predict and eval add only their own --mode (eval takes
several). One command per process; every randomized step derives
from the single seed, so identical invocations produce identical outputs
(run directories are timestamped unless --out-dir pins them; file
contents never embed timestamps).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import re
import sys
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from . import cpa, inference, metrics, rundir, synth, topics, training
from .corpus import (CorpusError, Dataset, Example, Split, Stance,
                     load_semeval, load_ukp, read_splits, read_text,
                     stance_subsets)
from .cpa import CpaError
from .graph import GraphError
from .inference import InferenceError
from .metrics import MetricsError
from .topics import TopicsError
from .training import (DATASETS, LABEL_KEYS, ConfigError, RunConfig,
                       TrainingError)


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(field: dataclasses.Field, raw: str):
    """A config file's text as the type of the key's default."""
    kind = type(field.default)
    if kind is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{field.name}: not a boolean: {raw!r}")
        return _BOOL_WORDS[word]
    return kind(raw)


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"missing config file: {path}")
    out, first_line = {}, {}
    for lineno, line in enumerate(read_text(path, ConfigError).splitlines(),
                                  1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated, "
                              f"first on line {first}")
        out[key] = value.strip('"')
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    by_name = {f.name: f for f in dataclasses.fields(RunConfig)}
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config).items():
            if key not in by_name:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                setattr(config, key, _coerce(by_name[key], raw))
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
    for name in by_name:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def load_dataset(config: RunConfig) -> Dataset:
    if not config.data:
        raise ConfigError("no --data directory given")
    if config.dataset == "ukp":
        return load_ukp(config.data)
    # synthetic corpora ship a val.tsv, so the loader skips the carve
    return load_semeval(config.data, seed=config.seed)


# --- commands ---------------------------------------------------------------

def parse_h_range(raw: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+):(\d+)", raw.strip())
    if not match:
        raise ConfigError(f"bad h-range {raw!r}, expected LO:HI")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo < 1 or lo > hi:
        raise ConfigError(f"bad h-range {raw!r}: need 1 <= LO <= HI")
    return lo, hi


def check_out_path(flag: str, path: str | None) -> None:
    """An output file's path, checked before the work that fills it: a
    directory, or a file in a directory that does not exist, is an error
    that names the flag. An absent path passes."""
    if path and Path(path).is_dir():
        raise ConfigError(f"{flag} {path} is a directory")
    if path and not Path(path).parent.is_dir():
        raise ConfigError(f"{flag} {path}: {Path(path).parent} is not a "
                          f"directory")


def cmd_topics(args: argparse.Namespace) -> int:
    config = build_config(args)
    lo, hi = parse_h_range(args.h_range)
    if args.top_n < 2:
        raise ConfigError(f"need --top-n >= 2, got {args.top_n}")
    # the CSV is written after every fit, so its path is checked first
    check_out_path("--out", args.out)
    dataset = load_dataset(config)
    keys = training.group_keys(dataset, config.joint)
    names = [(key, stance_key) for key, _ in keys for stance_key in LABEL_KEYS]
    docs = [[ex.tokens for ex in texts] for _, target in keys
            for texts in stance_subsets(dataset, target)]
    scores = [[] for _ in docs]
    for h in range(lo, hi + 1):
        # the triples train --h H fits, every group in one call, then each
        # subset folded into its model, all in one call
        models = [model for triple in training.fit_topics(dataset, config, h)
                  for model in triple.models]
        thetas = topics.fold_in_sets(
            [([model], subset) for model, subset in zip(models, docs)]).rows
        for model, subset, theta, row in zip(models, docs, thetas, scores):
            try:
                perp = topics.perplexity(model, subset, theta)
            except TopicsError:  # no in-vocabulary token in the subset
                perp = float("nan")
            row.append((h, perp, topics.umass_coherence(model, subset,
                                                        top_n=args.top_n)))
    rows = [(*name, *score) for name, row in zip(names, scores)
            for score in row]
    header = f"{'group':<24}{'stance':<9}{'H':>3}{'perplexity':>14}{'coherence':>12}"
    lines = [header]
    for key, stance_key, h, perp, coher in rows:
        lines.append(f"{key:<24}{stance_key:<9}{h:>3}{perp:>14.4f}{coher:>12.4f}")
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["group", "stance", "h", "perplexity", "coherence"])
            writer.writerows([k, s, h, f"{p:.6f}", f"{c:.6f}"]
                             for k, s, h, p, c in rows)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    config = build_config(args)
    if not config.embeddings:
        raise ConfigError("no --embeddings file given")
    run_dir = rundir.claim_run_dir(config)
    try:
        dataset = load_dataset(config)
        # each group's files are named by its slug
        slugs = rundir.checked_slugs(
            [k for k, _ in training.group_keys(dataset, config.joint)],
            "train")
        store = training.load_embeddings(config.embeddings)
        loaded = time.perf_counter()

        result = training.train(dataset, store, config)

        rundir.write_run(run_dir, config, slugs, result, dataset.targets,
                         start, loaded)
    except BaseException:
        # a timestamped directory is this run's own: rmdir removes it only
        # while it is still empty, and never a pinned --out-dir
        if not config.out_dir:
            with contextlib.suppress(OSError):
                run_dir.rmdir()
        raise
    print(f"run directory: {run_dir}")
    print(result.report_text, end="")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if len(set(args.mode)) < len(args.mode):
        raise ConfigError(f"--mode repeats a mode: {' '.join(args.mode)}")
    run = rundir.RunDir(args.run)
    trials = run.trials(args.trial)
    labeled = [ex for ex in run.corpus(Split[args.split.upper()]).examples
               if ex.stance is not Stance.UNKNOWN]
    if not labeled:
        raise ConfigError(f"no labeled examples in split {args.split!r}")
    # semantic rows and fold-ins depend on the split, not the trial
    rows = run.rows(labeled, args.mode)
    sides = [run.score(rows, trial) for trial in trials]
    for mode in args.mode:
        text, csv_text = metrics.trial_report(
            [inference.mode_scores(*both, mode).predicted for both in sides],
            [ex.stance for ex in labeled], [ex.target for ex in labeled],
            run.targets, trials)
        rundir.write_report(run.path, f"{args.split}-{mode}", text, csv_text)
        print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    check_out_path("--out", args.outfile)
    run = rundir.RunDir(args.run)
    trial = run.trials(args.trial)[0]  # the first trial unless one is named
    examples = read_splits(args.infile, [Split.TEST]).examples
    scores = inference.mode_scores(
        *run.score(run.rows(examples, [args.mode]), trial), args.mode)
    # Python floats, which format faster than numpy scalars, to the same
    # text, each line by one format
    line = "%s\t%s" + "\t%.6f" * 6
    lines = [line % (ex.id, label.value, *sem, *dis)
             for ex, sem, dis, label in zip(examples, scores.sem.tolist(),
                                            scores.dis.tolist(),
                                            scores.predicted)]
    header = ("ID\tPredicted\tSemFavor\tSemNone\tSemAgainst"
              "\tDisFavor\tDisNone\tDisAgainst")
    Path(args.outfile).write_text("\n".join([header, *lines]) + "\n",
                                  encoding="utf-8")
    print(f"wrote {len(examples)} predictions to {args.outfile}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.attention_out and not args.export_attention:
        raise ConfigError("--attention-out needs --export-attention")
    for flag, path in (("--dump-graph", args.dump_graph),
                       ("--dump-final-reps", args.dump_final_reps),
                       ("--attention-out", args.attention_out)):
        check_out_path(flag, path)
    run = rundir.RunDir(args.run)
    trial = run.trials(args.trial)[0]
    group = run.group(args.group)
    ckpt, pool, lap = run.training_graph(group, trial)
    ids = [ex.id for ex in pool]
    n = lap.n_text

    did_something = False
    if args.dump_graph:
        lines = []
        for block, to_text in ((lap.to_text, True), (lap.to_side, False)):
            for i, j in zip(*np.nonzero(block)):
                r, c = (i, n + j) if to_text else (n + j, i)
                lines.append(f"{r} {c} {block[i, j]:.12f}")
        Path(args.dump_graph).write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
        print(f"graph: {lap.nnz} entries over {lap.rows} nodes "
              f"-> {args.dump_graph}")
        did_something = True

    node_names = (ids
                  + [f"topic:{j}" for j in range(3 * ckpt.h)]
                  + [f"label:{key}" for key in LABEL_KEYS])
    if args.dump_final_reps or args.similar_to:
        # the text rows are the pool's semantic rows
        reps = cpa.propagate(training.semantic_matrix(pool, run.store),
                             ckpt, lap)
    if args.dump_final_reps:
        lines = [
            name + " " + " ".join(f"{x:.8f}" for x in row)
            for name, row in zip(node_names, reps)
        ]
        Path(args.dump_final_reps).write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
        print(f"final reps: {reps.shape[0]} x {reps.shape[1]} "
              f"-> {args.dump_final_reps}")
        did_something = True

    if args.similar_to:
        sem = training.semantic_matrix([_example(run, args.similar_to)],
                                       run.store)
        # the query's first d0 columns are the text's row in the graph
        (query,) = cpa.infer_transform(sem, ckpt)
        hits = inference.top_k_similar(query, reps[:n], ids, args.k,
                                       exclude_id=args.similar_to)
        for rec_id, sim in hits:
            print(f"{rec_id}\t{sim:.6f}")
        did_something = True

    if args.export_attention:
        out = args.attention_out or f"{args.export_attention}-attention.csv"
        training.export_attention(_example(run, args.export_attention),
                                  run.store, out)
        print(f"attention weights -> {out}")
        did_something = True

    if not did_something:
        stops = "/".join(str(m.trained_sweeps)
                         for m in run.triple(group).models)
        print(f"run {run.path}: groups {list(run.groups)}, "
              f"trial {trial}, {n} text nodes, H={ckpt.h}, hops={ckpt.hops}, "
              f"topic fit sweeps {stops} ({'/'.join(LABEL_KEYS)})")
    return 0


def _example(run: rundir.RunDir, rec_id: str) -> Example:
    """The text of the run's dataset (any split) with this id."""
    for ex in run.corpus(*Split).examples:
        if ex.id == rec_id:
            return ex
    raise ConfigError(f"example {rec_id!r} not in dataset")


def cmd_synth(args: argparse.Namespace) -> int:
    config = build_config(args)
    for name in ("n_train", "n_val", "n_test", "gen_h", "words_per_topic"):
        if getattr(args, name) < 1:
            raise ConfigError(f"need --{name.replace('_', '-')} >= 1, got "
                              f"{getattr(args, name)}")
    if not (np.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError(f"need a finite --noise >= 0, got {args.noise}")
    paths = synth.make_synthetic(
        args.out, seed=config.seed, n_train=args.n_train, n_val=args.n_val,
        n_test=args.n_test, h=args.gen_h, words_per_topic=args.words_per_topic,
        noise=args.noise)
    for role in ("train", "val", "test", "embeddings", "truth"):
        print(f"{role}: {paths[role]}")
    return 0


# --- argument parsing --------------------------------------------------------

# argparse options a config key's flag takes beyond the one its type implies
_FLAG_OPTIONS = {
    "dataset": {"choices": DATASETS},
    "data": {"help": "dataset directory"},
    "embeddings": {"help": "EMB1 embedding file"},
    "out_dir": {"help": "run directory"},
    "h": {"help": "topics per stance subset"},
    "lda_sweeps": {"help": "most CVB0 sweeps of the topic fit; each "
                           "model stops at its own fixed point, the first "
                           "sweep that moves none of its doc-topic and "
                           "topic-word counts by more than 1e-4"},
    "joint": {"help": "one joint graph instead of per-target graphs"},
    "lr_embed": {"help": "Adam learning rate of the topic and label rows"},
}
TOPICS_KEYS = ("dataset", "data", "lda_sweeps", "seed", "joint")


def _add_config_flags(parser: argparse.ArgumentParser,
                      keys: Iterable[str] = ()) -> None:
    """--config FILE and one flag per named config key, or per key when
    none is named. An absent flag parses to None, so the file and the
    defaults show through."""
    parser.add_argument("--config", help="flat key = value config file")
    kinds = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
    for key in keys or kinds:
        kind = kinds[key]
        typed = ({"action": "store_const", "const": True} if kind is bool
                 else {} if kind is str else {"type": kind})
        parser.add_argument("--" + key.replace("_", "-"), dest=key, **typed,
                            **_FLAG_OPTIONS.get(key, {}))


def _add_run_flags(parser: argparse.ArgumentParser, trial_help: str) -> None:
    parser.add_argument("--run", required=True, help="run directory from train")
    parser.add_argument("--trial", type=int, help=trial_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cosd parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cosd",
        description="collaborative stance detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations, so a flag a command does not read is an error, not a
    # prefix of one it does (--h of --h-range or --help)
    p = sub.add_parser("topics", help="perplexity/coherence over an H range",
                       allow_abbrev=False)
    _add_config_flags(p, TOPICS_KEYS)
    p.add_argument("--h-range", dest="h_range", default="3:7",
                   help="inclusive LO:HI topic-count range")
    p.add_argument("--top-n", dest="top_n", type=int, default=10,
                   help="top words per topic for coherence")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("train", help="fit topic models and train the graph")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    # predict, eval and inspect take their config from the run's manifest
    p = sub.add_parser("predict", help="score a TSV of texts with a trained run",
                       allow_abbrev=False)
    _add_run_flags(p, "trial number (default 1)")
    p.add_argument("--mode", choices=inference.MODES, default="full",
                   help="score with both paths or ablate one")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="metrics for a split against a trained run",
                       allow_abbrev=False)
    _add_run_flags(p, "one trial (default: all + mean)")
    p.add_argument("--mode", choices=inference.MODES, nargs="+",
                   default=["full"],
                   help="score with both paths or ablate one")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump graph/representations/attention",
                       allow_abbrev=False)
    _add_run_flags(p, "trial number (default 1)")
    p.add_argument("--group", help="target name (or 'joint')")
    p.add_argument("--dump-graph", dest="dump_graph",
                   help="write laplacian as 'row col weight' lines")
    p.add_argument("--dump-final-reps", dest="dump_final_reps",
                   help="write one 'id v0 v1 ...' line per node")
    p.add_argument("--similar-to", dest="similar_to",
                   help="example id to retrieve neighbors for")
    p.add_argument("--k", type=int, default=2, help="neighbors to retrieve")
    p.add_argument("--export-attention", dest="export_attention",
                   help="example id whose attention weights to export")
    p.add_argument("--attention-out", dest="attention_out",
                   help="CSV path for --export-attention")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("synth", help="generate the synthetic benchmark",
                       allow_abbrev=False)
    _add_config_flags(p, ["seed"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-train", dest="n_train", type=int, default=600)
    p.add_argument("--n-val", dest="n_val", type=int, default=150)
    p.add_argument("--n-test", dest="n_test", type=int, default=150)
    p.add_argument("--gen-h", dest="gen_h", type=int, default=3,
                   help="planted topics per stance")
    p.add_argument("--words-per-topic", dest="words_per_topic", type=int,
                   default=8)
    p.add_argument("--noise", type=float, default=0.3)
    p.set_defaults(func=cmd_synth)
    return parser


_HANDLED = (ConfigError, CorpusError, TopicsError, GraphError, CpaError,
            TrainingError, InferenceError, MetricsError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
