"""Command-line pipeline driver.

Commands: topics, train, predict, eval, inspect, synth. topics, train and
synth take their configuration as flat key = value text; every key is also
a flag of train, while topics and synth take flags only for the keys they
read. Precedence: flag, then the config file, then defaults. predict, eval
and inspect read the configuration of the run they are given from its
run.json; predict and eval add only their own --mode and --score-norm. One
command per process; every randomized step derives from the single seed,
so identical invocations produce identical outputs (run directories are
timestamped unless --out-dir pins them; file contents never embed
timestamps).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import re
import shutil
import sys
import time
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import cpa, graph, inference, metrics, synth, topics, training
from .corpus import (LABELS, CorpusError, Dataset, Example, Split, Stance,
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
    out = {}
    for lineno, line in enumerate(read_text(path, ConfigError).splitlines(),
                                  1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip().strip('"')
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


def slugify(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug or "group"


def load_dataset(config: RunConfig) -> Dataset:
    if not config.data:
        raise ConfigError("no --data directory given")
    if config.dataset == "ukp":
        return load_ukp(config.data)
    # synthetic corpora ship a val.tsv, so the loader skips the carve
    return load_semeval(config.data, seed=config.seed)


# --- run directory layout ---------------------------------------------------

def run_dir_for(config: RunConfig) -> Path:
    if config.out_dir:
        return Path(config.out_dir)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-seed{config.seed}"


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(run_dir: Path, config: RunConfig, groups: list[str],
                   targets: list[str]) -> None:
    """run.json; targets is the dataset's sorted target list, the columns
    of every eval report."""
    _write_json(run_dir / "run.json", {
        "config": dataclasses.asdict(config),
        "groups": [{"name": g, "slug": slugify(g)} for g in groups],
        "targets": targets,
        "data": str(Path(config.data).resolve()),
        "embeddings": str(Path(config.embeddings).resolve()),
    })


def _read_json_object(path: Path) -> dict:
    """The JSON object in a run-directory file; ConfigError names the file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return doc


def _checked_slugs(names: list[str], where: str | Path) -> dict[str, str]:
    """Group name -> file-name slug; ConfigError when two names share one."""
    slugs = [slugify(name) for name in names]
    clash = [n for n, slug in zip(names, slugs) if slugs.count(slug) > 1]
    if clash:
        raise ConfigError(f"{where}: groups {clash} share a file name")
    return dict(zip(names, slugs))


# per training group with texts, in manifest order: its name, the positions
# of its texts in the scored list, their semantic rows and fold-in rows
# (None for the side the scoring mode drops)
GroupRows = list[tuple[str, list[int], np.ndarray | None, np.ndarray | None]]


class Scores(NamedTuple):
    """(n, 3) score rows in label order (Favor, None, Against) and each
    text's label."""

    sem: np.ndarray
    dis: np.ndarray
    predicted: list[Stance]    # argmax of sem + dis


class RunDir:
    """A trained run directory, opened through its checked manifest.

    Only this class and the writers of cmd_train know the layout on disk.
    Groups are addressed by name; trials count from 1.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        manifest = self.path / "run.json"
        if not manifest.is_file():
            raise ConfigError(f"not a run directory (no run.json): {self.path}")
        doc = _read_json_object(manifest)
        try:
            config = RunConfig(**doc["config"])
            config.data = doc["data"]
            config.embeddings = doc["embeddings"]
            groups = doc["groups"]
            targets = doc["targets"]
        except KeyError as exc:
            raise ConfigError(f"{manifest}: missing key {exc}") from exc
        except TypeError as exc:  # config not an object, or an unknown key
            raise ConfigError(f"{manifest}: bad config: {exc}") from exc
        try:
            config.validate()  # the checks train passed
        except ConfigError as exc:
            raise ConfigError(f"{manifest}: {exc}") from exc
        if not (isinstance(groups, list) and groups and all(
                isinstance(g, dict) and isinstance(g.get("name"), str)
                and g.get("slug") == slugify(g["name"]) for g in groups)):
            raise ConfigError(f"{manifest}: groups must be a non-empty list "
                              f"of objects with a name and its slug")
        self.config = config
        self.groups = _checked_slugs([g["name"] for g in groups], manifest)
        if not (isinstance(targets, list) and targets
                and all(isinstance(t, str) for t in targets)
                and targets == sorted(set(targets))):
            raise ConfigError(f"{manifest}: targets must be a non-empty "
                              f"sorted list of distinct names")
        if not config.joint and targets != list(self.groups):
            raise ConfigError(f"{manifest}: targets {targets} differ from "
                              f"the groups {list(self.groups)}")
        self.targets = targets

    @functools.cached_property
    def store(self) -> training.EncoderStore:
        return training.load_embeddings(self.config.embeddings)

    def corpus(self, *splits: Split) -> Dataset:
        """The given splits of the run's data, read from only the files
        they need."""
        return read_splits(self.config.data, splits, seed=self.config.seed,
                           ukp=self.config.dataset == "ukp")

    def trials(self, trial: int | None) -> list[int]:
        """[trial] when one is asked for, else every trial of the run."""
        if trial is None:
            return list(range(1, self.config.trials + 1))
        if not 1 <= trial <= self.config.trials:
            raise ConfigError(f"trial {trial} is not in this run's "
                              f"1..{self.config.trials}")
        return [trial]

    def group(self, name: str | None) -> str:
        """The named group, or the run's only group when none is named."""
        if name:
            if name not in self.groups:
                raise ConfigError(f"unknown group {name!r}")
            return name
        if len(self.groups) > 1:
            raise ConfigError("several groups in this run; pick one with --group")
        return next(iter(self.groups))

    def _trial_file(self, name: str, trial: int, suffix: str) -> Path:
        return self.path / f"trial-{trial}" / f"{self.groups[name]}{suffix}"

    def checkpoint(self, name: str, trial: int) -> cpa.CpaModel:
        """The trial's checkpoint of the group, whose H, d1 and hop count
        must be the run's."""
        path = self._trial_file(name, trial, ".cpa1")
        ckpt = cpa.load_checkpoint(path)
        got = (ckpt.h, ckpt.d1, ckpt.hops)
        want = (self.config.h, self.config.d1, self.config.resolved_hops())
        if got != want:
            raise ConfigError(f"{path}: H, d1 and hops are {got}, but the "
                              f"run's config gives {want}")
        return ckpt

    def rows(self, examples: list[Example], mode: str = "full") -> GroupRows:
        """The texts, in any order, split by training group, with the rows
        the scoring mode reads: no_sem builds no semantic rows (and opens
        no embedding file), no_dis folds nothing in (and loads no topic
        model); the dropped side is None. This is the one place the mode
        is decided. Semantic rows read only the texts' own records of the
        run's store. Every group's texts are folded in together.
        InferenceError names an unknown mode, ConfigError a target the run
        has no group for."""
        if mode not in inference.MODES:
            raise InferenceError(f"unknown mode {mode!r}, expected one of "
                                 f"{inference.MODES}")
        at: dict[str, list[int]] = {name: [] for name in self.groups}
        for i, ex in enumerate(examples):
            name = "joint" if self.config.joint else ex.target
            if name not in at:
                raise ConfigError(f"no trained group for target {ex.target!r}")
            at[name].append(i)
        groups = [(name, [examples[i] for i in where])
                  for name, where in at.items() if where]
        sem = [None] * len(groups) if mode == "no_sem" else [
            training.semantic_matrix(group, self.store) for _, group in groups]
        dis = [None] * len(groups) if mode == "no_dis" else (
            training.fold_in_matrix(
                [(self._triple(name), group) for name, group in groups],
                self.config.fold_in_sweeps, self.config.seed))
        return [(name, at[name], sem_rows, dis_rows)
                for (name, _), sem_rows, dis_rows in zip(groups, sem, dis)]

    def _triple(self, name: str) -> topics.TopicModelTriple:
        """The group's topic triple, each of whose models must have the
        run's H and the vocabulary of the group's first model."""
        models = []
        for key in LABEL_KEYS:
            path = self.path / "lda" / f"{self.groups[name]}.{key}.lda1"
            model = topics.load_lda(path)
            if model.h != self.config.h:
                raise ConfigError(f"{path}: H={model.h}, but the run's "
                                  f"config gives H={self.config.h}")
            if models and model.vocab.tokens != models[0].vocab.tokens:
                raise ConfigError(f"{path}: vocabulary differs from the "
                                  f"group's {LABEL_KEYS[0]} model")
            models.append(model)
        return topics.TopicModelTriple(*models)

    def score(self, rows: GroupRows, trial: int,
              score_norm: bool = False) -> Scores:
        """Every group's rows scored against the trial's checkpoint of that
        group, in the order of the texts given to rows; score_norm z-scores
        each side's row before the sum's argmax labels it."""
        n = sum(len(where) for _, where, _, _ in rows)
        sem, dis = np.zeros((n, 3)), np.zeros((n, 3))
        for name, where, sem_rows, dis_rows in rows:
            sem[where], dis[where] = inference.score_batch(
                sem_rows, dis_rows, self.checkpoint(name, trial),
                slope=self.config.leaky_slope)
        if score_norm:
            sem, dis = inference.zscore_rows(sem), inference.zscore_rows(dis)
        return Scores(sem, dis, inference.argmax_labels(sem + dis))

    def training_graph(self, name: str, trial: int) -> tuple[
            cpa.CpaModel, list[Example], graph.BipartiteLaplacian]:
        """The trial's checkpoint, the train pool its graph was built over
        and the graph's Laplacian.

        The graph is rebuilt as training built it: the group's train pool,
        checked against the trial's .meta.json, folded in again under the
        run's topic models. Its text rows are left to the caller.
        """
        ckpt = self.checkpoint(name, trial)
        meta_path = self._trial_file(name, trial, ".meta.json")
        meta = _read_json_object(meta_path)
        pool = self.corpus(Split.TRAIN, Split.VAL).train_pool(
            None if self.config.joint else name)
        if (meta.get("ids") != [ex.id for ex in pool] or meta.get("stances")
                != [ex.stance.value for ex in pool]):
            raise ConfigError(f"{meta_path}: ids and stances differ from the "
                              f"train pool in {self.config.data}")
        (dis,) = training.fold_in_matrix([(self._triple(name), pool)],
                                         self.config.fold_in_sweeps,
                                         self.config.seed)
        lap = graph.laplacian(graph.build_adjacency(
            [ex.stance for ex in pool], dis))
        return ckpt, pool, lap


def _write_train_outputs(run_dir: Path, config: RunConfig,
                         result: training.TrainResult) -> None:
    lda_dir = run_dir / "lda"
    lda_dir.mkdir(parents=True, exist_ok=True)
    for data in result.groups:
        slug = slugify(data.group)
        for stance_key, model in zip(LABEL_KEYS, data.triple.models):
            topics.save_lda(model, lda_dir / f"{slug}.{stance_key}.lda1")

    for trial in result.trials:
        trial_dir = run_dir / f"trial-{trial.trial + 1}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        for data in result.groups:
            slug = slugify(data.group)
            group = trial.groups[data.group]
            ckpt = group.checkpoint
            cpa.save_checkpoint(trial_dir / f"{slug}.cpa1", ckpt)
            meta = {
                "group": data.group,
                "ids": [ex.id for ex in data.pool],
                "stances": [ex.stance.value for ex in data.pool],
                "best_epoch": group.best_epoch,
                "best_val_micf": group.best_val_micf,
                "label_order": [label.value for label in LABELS],
                "h": ckpt.h,
                "hops": ckpt.hops,
                "seed": trial.seed,
            }
            _write_json(trial_dir / f"{slug}.meta.json", meta)
            log_lines = ["epoch,loss,val_macf,val_micf,"
                         "val_micf_no_sem,val_micf_no_dis"]
            log_lines += [
                f"{r['epoch']},{r['loss']:.8f},{r['val_macf']:.6f},"
                f"{r['val_micf']:.6f},"
                f"{r['val_micf_no_sem']:.6f},{r['val_micf_no_dis']:.6f}"
                for r in group.log_rows
            ]
            (trial_dir / f"{slug}.log.csv").write_text(
                "\n".join(log_lines) + "\n", encoding="utf-8")

    (run_dir / "report-val.txt").write_text(result.report_text,
                                            encoding="utf-8")
    (run_dir / "report-val.csv").write_text(result.report_csv,
                                            encoding="utf-8")
    config_lines = [f"{k} = {v}" for k, v in
                    sorted(dataclasses.asdict(config).items())]
    (run_dir / "config.txt").write_text("\n".join(config_lines) + "\n",
                                        encoding="utf-8")


# --- commands ---------------------------------------------------------------

def parse_h_range(raw: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+):(\d+)", raw.strip())
    if not match:
        raise ConfigError(f"bad h-range {raw!r}, expected LO:HI")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo < 1 or lo > hi:
        raise ConfigError(f"bad h-range {raw!r}: need 1 <= LO <= HI")
    return lo, hi


def cmd_topics(args: argparse.Namespace) -> int:
    config = build_config(args)
    lo, hi = parse_h_range(args.h_range)
    if args.top_n < 2:
        raise ConfigError(f"need --top-n >= 2, got {args.top_n}")
    dataset = load_dataset(config)
    keys = training.group_keys(dataset, config.joint)
    names = [(key, stance_key) for key, _ in keys for stance_key in LABEL_KEYS]
    subsets = [texts for _, target in keys
               for texts in stance_subsets(dataset, target)]
    docs = [topics.token_docs(texts) for texts in subsets]
    scores = [[] for _ in subsets]
    for h in range(lo, hi + 1):
        # the triples train --h H fits, every group in one call, then each
        # subset folded into its model, with the seeds train folds its texts
        # in with, all in one lockstep
        models = [model for triple in training.fit_topics(dataset, config, h)
                  for model in triple.models]
        thetas = topics.fold_in_sets(
            [([model], subset, training.fold_in_seeds(config.seed, texts))
             for model, subset, texts in zip(models, docs, subsets)],
            config.fold_in_sweeps)
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
    run_dir = run_dir_for(config)
    # the nearest existing path decides whether mkdir can succeed; checked
    # here, so a file in the way fails the run before it trains
    existing = next(p for p in (run_dir, *run_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {run_dir}: {existing} is not a "
                          f"directory")
    dataset = load_dataset(config)
    # each group's files are named by its slug
    _checked_slugs([k for k, _ in training.group_keys(dataset, config.joint)],
                   "train")
    store = training.load_embeddings(config.embeddings)
    loaded = time.perf_counter()

    result = training.train(dataset, store, config)

    written = time.perf_counter()
    run_dir.mkdir(parents=True, exist_ok=True)
    # the old manifest goes before the first file is replaced, so a reused
    # directory whose writing breaks off is never read as the old run; then
    # the old run's files this one may not overwrite (its extra trials and
    # groups, and eval reports of its models)
    (run_dir / "run.json").unlink(missing_ok=True)
    for old in [*run_dir.glob("trial-*"), run_dir / "lda"]:
        if old.is_dir():
            shutil.rmtree(old)
    for old in [*run_dir.glob("report-*.txt"), *run_dir.glob("report-*.csv")]:
        old.unlink()
    _write_train_outputs(run_dir, config, result)
    # wall times per stage; never compared, unlike the other outputs
    _write_json(run_dir / "timings.json", {
        "load_s": loaded - start,
        **result.seconds,
        "groups": {data.group: {
            "graph_build_s": data.graph_build_s,
            "trials": [{"train_s": t.groups[data.group].train_s,
                        "val_s": t.groups[data.group].val_s}
                       for t in result.trials]}
            for data in result.groups},
        "write_s": time.perf_counter() - written,
        "total_s": time.perf_counter() - start,
    })
    # last, so eval and predict reject a directory whose writing broke off
    write_manifest(run_dir, config, [data.group for data in result.groups],
                   dataset.targets)
    print(f"run directory: {run_dir}")
    print(result.report_text, end="")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    run = RunDir(args.run)
    trials = run.trials(args.trial)
    labeled = [ex for ex in run.corpus(Split[args.split.upper()]).examples
               if ex.stance is not Stance.UNKNOWN]
    if not labeled:
        raise ConfigError(f"no labeled examples in split {args.split!r}")
    # semantic rows and fold-ins depend on the split, not the trial
    rows = run.rows(labeled, args.mode)
    text, csv_text = metrics.trial_report(
        [run.score(rows, trial, args.score_norm).predicted
         for trial in trials],
        [ex.stance for ex in labeled], [ex.target for ex in labeled],
        run.targets, trials)
    suffix = f"{args.split}-{args.mode}" + ("-zscore" if args.score_norm else "")
    (run.path / f"report-{suffix}.txt").write_text(text, encoding="utf-8")
    (run.path / f"report-{suffix}.csv").write_text(csv_text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    run = RunDir(args.run)
    trial = run.trials(args.trial)[0]  # the first trial unless one is named
    examples = read_splits(args.infile, [Split.TEST]).examples
    scores = run.score(run.rows(examples, args.mode), trial, args.score_norm)
    lines = [f"{ex.id}\t{label.value}\t"
             + "\t".join(f"{x:.6f}" for x in (*sem, *dis))
             for ex, sem, dis, label in zip(examples, scores.sem, scores.dis,
                                            scores.predicted)]
    header = ("ID\tPredicted\tSemFavor\tSemNone\tSemAgainst"
              "\tDisFavor\tDisNone\tDisAgainst")
    Path(args.outfile).write_text("\n".join([header, *lines]) + "\n",
                                  encoding="utf-8")
    print(f"wrote {len(examples)} predictions to {args.outfile}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    run = RunDir(args.run)
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
        reps = cpa.propagate(training.semantic_matrix(pool, run.store), ckpt,
                             lap, slope=run.config.leaky_slope)
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
        (sem,) = training.semantic_matrix([_example(run, args.similar_to)],
                                          run.store)
        # the query's first d0 columns are the text's row in the graph
        query = cpa.infer_transform(sem, ckpt, slope=run.config.leaky_slope)
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
        print(f"run {run.path}: groups {list(run.groups)}, "
              f"trial {trial}, {n} text nodes, H={ckpt.h}, hops={ckpt.hops}")
    return 0


def _example(run: RunDir, rec_id: str) -> Example:
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
    "hops": {"help": "propagation hops (0 = per-dataset default)"},
    "alpha": {"help": "doc-topic prior (0 = 50/H)"},
    "beta": {"help": "topic-word prior"},
    "d1": {"help": "propagated embedding width"},
    "joint": {"help": "one joint graph instead of per-target graphs"},
    "lr_embed": {"help": "Adam learning rate of the topic and label rows"},
}
TOPICS_KEYS = ("dataset", "data", "alpha", "beta", "lda_sweeps",
               "fold_in_sweeps", "seed", "joint")


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


def _add_score_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=inference.MODES, default="full",
                        help="score with both paths or ablate one")
    parser.add_argument("--score-norm", dest="score_norm",
                        action="store_true",
                        help="z-score each score triple before adding")


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

    # predict, eval and inspect take their config from the run's run.json
    p = sub.add_parser("predict", help="score a TSV of texts with a trained run",
                       allow_abbrev=False)
    _add_run_flags(p, "trial number (default 1)")
    _add_score_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="metrics for a split against a trained run",
                       allow_abbrev=False)
    _add_run_flags(p, "one trial (default: all + mean)")
    _add_score_flags(p)
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
