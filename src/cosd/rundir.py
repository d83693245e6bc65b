"""The run directory cosd train writes and eval, predict and inspect read:
one table of its layout, LAYOUT, names every file for the writer, the
cleanup of a reused directory and the one checked reader, RunDir."""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import shutil
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cpa, graph, inference, topics, training
from .corpus import LABELS, Dataset, Example, Split, read_splits
from .training import LABEL_KEYS, ConfigError, RunConfig

# every file of a run directory by its role, relative to the directory:
# {slug} is a group's file name, {key} a stance key, {trial} a trial from
# 1 and {suffix} a report's split and mode; the manifest comes first
_TRIAL = "trial-{trial}/{slug}"
_REPORT = "report-{suffix}"
LAYOUT = {
    "manifest": "run.json",
    "config": "config.txt",
    "timings": "timings.json",
    "topics": "lda/{slug}.{key}.lda1",
    "checkpoint": _TRIAL + ".cpa1",
    "meta": _TRIAL + ".meta.json",
    "log": _TRIAL + ".log.csv",
    "report_txt": _REPORT + ".txt",
    "report_csv": _REPORT + ".csv",
}


def _path(root: Path, role: str, **fields) -> Path:
    return root / LAYOUT[role].format(**fields)


def slugify(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug or "group"


def checked_slugs(names: list[str], where: str | Path) -> dict[str, str]:
    """Group name -> file-name slug; ConfigError when two names share one."""
    slugs = [slugify(name) for name in names]
    clash = [n for n, slug in zip(names, slugs) if slugs.count(slug) > 1]
    if clash:
        raise ConfigError(f"{where}: groups {clash} share a file name")
    return dict(zip(names, slugs))


def run_dir_for(config: RunConfig) -> Path:
    if config.out_dir:
        return Path(config.out_dir)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-seed{config.seed}"


def claim_run_dir(config: RunConfig) -> Path:
    """The directory run_dir_for names, checked before any data loads. A
    pinned --out-dir may hold an old run, which write_run replaces; a
    timestamped one is made here and must be new, so that two trains that
    start in the same second with the same seed never share one."""
    path = run_dir_for(config)
    # the nearest existing path decides whether mkdir can succeed
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {path}: {existing} is not a directory")
    if not config.out_dir:
        try:
            path.mkdir(parents=True)
        except FileExistsError:
            raise ConfigError(f"run directory {path} already exists; name "
                              f"one with --out-dir") from None
    return path


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json_object(path: Path) -> dict:
    """The JSON object in a run-directory file; ConfigError names the file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return doc


# --- writing ----------------------------------------------------------------

def write_report(path: Path, suffix: str, text: str, csv_text: str) -> None:
    """One trial report, as aligned text and as CSV."""
    for role, content in (("report_txt", text), ("report_csv", csv_text)):
        _path(path, role, suffix=suffix).write_text(content, encoding="utf-8")


def write_run(path: Path, config: RunConfig, slugs: dict[str, str],
              result: training.TrainResult, targets: list[str],
              started: float, loaded: float) -> None:
    """A train's files, written into path in place of any old run there.

    slugs is checked_slugs of the groups; targets is the dataset's sorted
    target list, the columns of every eval report; started and loaded are
    the perf_counter readings at the train's start and after its loading.
    """
    written = time.perf_counter()
    path.mkdir(parents=True, exist_ok=True)
    # the old manifest goes first, so a reused directory whose writing
    # breaks off is never read as the old run; then every other top-level
    # name of the layout, its fields as wildcards: the old run's extra
    # trials and groups, and the eval reports of its models
    for rel in LAYOUT.values():
        top = rel.split("/")[0]
        for old in path.glob(re.sub(r"\{\w+\}", "*", top)):
            if top != rel and old.is_dir():
                shutil.rmtree(old)
            elif top == rel and old.is_file():
                old.unlink()

    def new(role: str, **fields) -> Path:
        file = _path(path, role, **fields)
        file.parent.mkdir(exist_ok=True)
        return file

    for data in result.groups:
        for key, model in zip(LABEL_KEYS, data.triple.models):
            topics.save_lda(model, new("topics", key=key,
                                       slug=slugs[data.group]))
    columns = training.LOG_COLUMNS
    for i, trial in enumerate(result.trials):
        for data in result.groups:
            at = {"trial": i + 1, "slug": slugs[data.group]}
            group = trial[data.group]
            ckpt = group.checkpoint
            cpa.save_checkpoint(new("checkpoint", **at), ckpt)
            _write_json(new("meta", **at), {
                "group": data.group,
                "ids": [ex.id for ex in data.pool],
                "stances": [ex.stance.value for ex in data.pool],
                "best_epoch": group.best_epoch,
                "best_val_micf": group.best_val_micf,
                "label_order": [label.value for label in LABELS],
                "h": ckpt.h,
                "hops": ckpt.hops,
                "seed": config.seed + i,
            })
            log = [",".join(name for name, _ in columns)] + [
                ",".join(format(row[name], spec) for name, spec in columns)
                for row in group.log_rows]
            new("log", **at).write_text("\n".join(log) + "\n",
                                        encoding="utf-8")
    write_report(path, "val", result.report_text, result.report_csv)
    new("config").write_text(
        "".join(f"{k} = {v}\n"
                for k, v in sorted(dataclasses.asdict(config).items())),
        encoding="utf-8")
    # wall times per stage, the fit's token updates and the fold-in's capped
    # (text, model) pairs; never compared, unlike the other outputs
    _write_json(new("timings"), {
        "load_s": loaded - started,
        **result.stages,
        "groups": {data.group: {
            "graph_build_s": data.graph_build_s,
            "trials": [{"train_s": t[data.group].train_s,
                        "val_s": t[data.group].val_s}
                       for t in result.trials]}
            for data in result.groups},
        "write_s": time.perf_counter() - written,
        "total_s": time.perf_counter() - started,
    })
    # last, so eval and predict reject a directory whose writing broke off
    _write_json(new("manifest"), {
        "config": dataclasses.asdict(config),
        "groups": [{"name": g, "slug": slug} for g, slug in slugs.items()],
        "targets": targets,
        "data": str(Path(config.data).resolve()),
        "embeddings": str(Path(config.embeddings).resolve()),
    })


# --- reading ----------------------------------------------------------------

# per training group with texts, in manifest order: its name, the positions
# of its texts in the scored list, their semantic rows and fold-in rows
# (None for a side no scoring mode reads)
GroupRows = list[tuple[str, list[int], np.ndarray | None, np.ndarray | None]]


class RunDir:
    """A trained run directory, opened through its checked manifest; every
    file it opens is named by LAYOUT. Groups are addressed by name; trials
    count from 1."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        manifest = _path(self.path, "manifest")
        if not manifest.is_file():
            raise ConfigError(f"not a run directory (no {manifest.name}): "
                              f"{self.path}")
        doc = _read_json_object(manifest)
        try:
            settings = doc["config"]
            if isinstance(settings, dict):  # retired with mini-batch steps
                settings.pop("batch_size", None)
            config = RunConfig(**settings)
            config.data = doc["data"]
            config.embeddings = doc["embeddings"]
            groups = doc["groups"]
            targets = doc["targets"]
            config.validate()  # the checks train passed
        except KeyError as exc:
            raise ConfigError(f"{manifest}: missing key {exc}") from exc
        except TypeError as exc:  # config not an object, or an unknown key
            raise ConfigError(f"{manifest}: bad config: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{manifest}: {exc}") from exc
        if not (isinstance(groups, list) and groups and all(
                isinstance(g, dict) and isinstance(g.get("name"), str)
                and g.get("slug") == slugify(g["name"]) for g in groups)):
            raise ConfigError(f"{manifest}: groups must be a non-empty list "
                              f"of objects with a name and its slug")
        self.config = config
        self.groups = checked_slugs([g["name"] for g in groups], manifest)
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
        """The given splits of the run's data, read from only their files."""
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

    def _file(self, role: str, name: str, **fields) -> Path:
        return _path(self.path, role, slug=self.groups[name], **fields)

    def checkpoint(self, name: str, trial: int) -> cpa.CpaModel:
        """The trial's checkpoint of the group, whose H, d1 and hop count
        must be the run's."""
        path = self._file("checkpoint", name, trial=trial)
        ckpt = cpa.load_checkpoint(path)
        got = (ckpt.h, ckpt.d1, ckpt.hops)
        want = (self.config.h, self.config.d1, self.config.resolved_hops())
        if got != want:
            raise ConfigError(f"{path}: H, d1 and hops are {got}, but the "
                              f"run's config gives {want}")
        return ckpt

    def rows(self, examples: list[Example],
             modes: Sequence[str] = ("full",)) -> GroupRows:
        """The texts, in any order, split by training group, with the rows
        some scoring mode reads (inference.sides_read): semantic rows only
        when one reads them (else no embedding file is opened), fold-in
        rows only when one reads topics (else no topic model is loaded);
        a side no mode reads is None. Semantic rows read only the texts'
        own records of the run's store. Every group's texts are folded in
        together. InferenceError names an unknown mode, ConfigError a
        target the run has no group for."""
        read_sem, read_dis = inference.sides_read(modes)
        at: dict[str, list[int]] = {name: [] for name in self.groups}
        for i, ex in enumerate(examples):
            name = "joint" if self.config.joint else ex.target
            if name not in at:
                raise ConfigError(f"no trained group for target {ex.target!r}")
            at[name].append(i)
        groups = [(name, [examples[i] for i in where])
                  for name, where in at.items() if where]
        sem = [None] * len(groups) if not read_sem else [
            training.semantic_matrix(group, self.store) for _, group in groups]
        dis = [None] * len(groups) if not read_dis else (
            training.fold_in_matrix(
                [(self.triple(name), group) for name, group in groups],
                self.config.fold_in_sweeps).rows)
        return [(name, at[name], sem_rows, dis_rows)
                for (name, _), sem_rows, dis_rows in zip(groups, sem, dis)]

    def triple(self, name: str) -> topics.TopicModelTriple:
        """The group's topic triple, each of whose models must have the
        run's H and the vocabulary of the group's first model."""
        models = []
        for key in LABEL_KEYS:
            path = self._file("topics", name, key=key)
            model = topics.load_lda(path)
            if model.h != self.config.h:
                raise ConfigError(f"{path}: H={model.h}, but the run's "
                                  f"config gives H={self.config.h}")
            if models and model.vocab.tokens != models[0].vocab.tokens:
                raise ConfigError(f"{path}: vocabulary differs from the "
                                  f"group's {LABEL_KEYS[0]} model")
            models.append(model)
        return topics.TopicModelTriple(*models)

    def score(self, rows: GroupRows,
              trial: int) -> tuple[np.ndarray, np.ndarray]:
        """Every group's rows scored against the trial's checkpoint of that
        group, in the order of the texts given to rows: the semantic and
        distributed sides, zeros where rows has None; inference.mode_scores
        labels them for each mode."""
        n = sum(len(where) for _, where, _, _ in rows)
        sem, dis = np.zeros((n, 3)), np.zeros((n, 3))
        for name, where, sem_rows, dis_rows in rows:
            sem[where], dis[where] = inference.score_batch(
                sem_rows, dis_rows, self.checkpoint(name, trial),
                slope=self.config.leaky_slope)
        return sem, dis

    def training_graph(self, name: str, trial: int) -> tuple[
            cpa.CpaModel, list[Example], graph.BipartiteLaplacian]:
        """The trial's checkpoint, the train pool its graph was built over
        and the graph's Laplacian.

        The graph is rebuilt as training built it: the group's train pool,
        checked against the trial's meta file, folded in again under the
        run's topic models. Its text rows are left to the caller.
        """
        ckpt = self.checkpoint(name, trial)
        meta_path = self._file("meta", name, trial=trial)
        meta = _read_json_object(meta_path)
        pool = self.corpus(Split.TRAIN, Split.VAL).train_pool(
            None if self.config.joint else name)
        if (meta.get("ids") != [ex.id for ex in pool] or meta.get("stances")
                != [ex.stance.value for ex in pool]):
            raise ConfigError(f"{meta_path}: ids and stances differ from the "
                              f"train pool in {self.config.data}")
        (dis,) = training.fold_in_matrix([(self.triple(name), pool)],
                                         self.config.fold_in_sweeps).rows
        lap = graph.laplacian(graph.build_adjacency(
            [ex.stance for ex in pool], dis))
        return ckpt, pool, lap
