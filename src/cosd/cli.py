"""Command-line pipeline driver.

Commands: topics, train, predict, eval, inspect, synth. Configuration is
flat key = value text; every key is also a flag. Precedence: flag, then the
COSD_SEED environment variable (seed only), then the config file, then
defaults. One command per process; every randomized step derives from the
single seed, so identical invocations produce identical outputs (run
directories are timestamped unless --out-dir pins them; file contents never
embed timestamps).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import cpa, graph, inference, metrics, synth, topics, training
from .corpus import (LABELS, CorpusError, Dataset, Split, Stance,
                     load_semeval, load_ukp, stance_subsets)
from .cpa import CpaError
from .graph import GraphError
from .inference import InferenceError
from .metrics import MetricsError
from .numerics import NumericsError
from .topics import TopicsError
from .training import TrainingError, derive_seed

LABEL_NAMES = tuple(label.value for label in LABELS)


class ConfigError(Exception):
    """Bad config file, bad flag value, or an unusable run directory."""


@dataclasses.dataclass
class RunConfig:
    dataset: str = "semeval"
    data: str = ""
    embeddings: str = ""
    out_dir: str = ""
    h: int = 5
    hops: int = 0                 # 0 = per-dataset default (3 tweet, 2 ukp/synthetic)
    alpha: float = 0.0            # 0 = 50/H
    beta: float = 0.01
    lda_sweeps: int = 500
    fold_in_sweeps: int = 50
    lr_cpa: float = 1e-5
    lr_embed: float = 1e-4
    dropout: float = 0.1
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    trials: int = 3
    d1: int = 64
    leaky_slope: float = 0.01
    joint: bool = False
    parallel_trials: bool = False
    score_norm: bool = False
    mode: str = "full"

    def resolved_hops(self) -> int:
        if self.hops > 0:
            return self.hops
        return 2 if self.dataset in ("ukp", "synthetic") else 3

    def train_config(self) -> training.TrainConfig:
        return training.TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            lr_cpa=self.lr_cpa, lr_embed=self.lr_embed, dropout=self.dropout,
            hops=self.resolved_hops(), h=self.h, seed=self.seed,
            trials=self.trials, alpha=self.alpha or None, beta=self.beta,
            lda_sweeps=self.lda_sweeps, fold_in_sweeps=self.fold_in_sweeps,
            d1=self.d1, leaky_slope=self.leaky_slope, joint=self.joint,
            parallel_trials=self.parallel_trials,
        )


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(field: dataclasses.Field, raw: str):
    if field.type in ("bool", bool):
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{field.name}: not a boolean: {raw!r}")
        return _BOOL_WORDS[word]
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    return raw


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"missing config file: {path}")
    out = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
    env_seed = os.environ.get("COSD_SEED")
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"COSD_SEED: {exc}") from exc
    for name in by_name:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    if config.dataset not in ("semeval", "ukp", "synthetic"):
        raise ConfigError(f"unknown dataset kind {config.dataset!r}")
    if config.mode not in inference.MODES:
        raise ConfigError(f"unknown mode {config.mode!r}")
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


def _group_keys(config: RunConfig, dataset: Dataset) -> list[tuple[str, str | None]]:
    if config.joint:
        return [("joint", None)]
    return [(t, t) for t in dataset.targets]


def fit_group_triples(dataset: Dataset, config: RunConfig
                      ) -> tuple[dict[str, topics.TopicModelTriple],
                                 dict[str, float]]:
    """Per group, the fitted topic triple and its fit wall time."""
    triples, seconds = {}, {}
    for key, target in _group_keys(config, dataset):
        start = time.perf_counter()
        favor, none, against = stance_subsets(dataset, target)
        triples[key] = topics.fit_triple(
            topics.token_docs(favor), topics.token_docs(none),
            topics.token_docs(against), h=config.h,
            alpha=config.alpha or None, beta=config.beta,
            sweeps=config.lda_sweeps, seed=derive_seed(config.seed, 7, key))
        seconds[key] = time.perf_counter() - start
    return triples, seconds


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


def write_manifest(run_dir: Path, config: RunConfig, groups: list[str]) -> None:
    _write_json(run_dir / "run.json", {
        "config": dataclasses.asdict(config),
        "groups": [{"name": g, "slug": slugify(g)} for g in groups],
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


def read_manifest(run_dir: str | Path) -> tuple[RunConfig, list[dict], Path]:
    run_dir = Path(run_dir)
    manifest = run_dir / "run.json"
    if not manifest.is_file():
        raise ConfigError(f"not a run directory (no run.json): {run_dir}")
    doc = _read_json_object(manifest)
    try:
        config = RunConfig(**doc["config"])
        config.data = doc["data"]
        config.embeddings = doc["embeddings"]
        groups = doc["groups"]
    except KeyError as exc:
        raise ConfigError(f"{manifest}: missing key {exc}") from exc
    except TypeError as exc:  # config not an object, or an unknown key
        raise ConfigError(f"{manifest}: bad config: {exc}") from exc
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        if type(value) is not type(field.default):
            raise ConfigError(f"{manifest}: {field.name} = {value!r} is not "
                              f"a {type(field.default).__name__}")
    if not (isinstance(groups, list) and all(
            isinstance(g, dict) and {"name", "slug"} <= g.keys()
            for g in groups)):
        raise ConfigError(f"{manifest}: groups must be a list of objects "
                          f"with a name and a slug")
    return config, groups, run_dir


def load_run_triple(run_dir: Path, slug: str) -> topics.TopicModelTriple:
    stems = [run_dir / "lda" / f"{slug}.{k}.lda1"
             for k in ("favor", "none", "against")]
    favor, none, against = (topics.load_lda(p) for p in stems)
    return topics.TopicModelTriple(favor=favor, none=none, against=against)


def load_run_checkpoint(run_dir: Path, trial: int, slug: str
                        ) -> tuple[cpa.CpaCheckpoint, dict]:
    base = run_dir / f"trial-{trial}" / slug
    ckpt_path = base.with_suffix(".cpa1")
    meta_path = base.with_suffix(".meta.json")
    if not ckpt_path.is_file():
        raise ConfigError(f"missing checkpoint: {ckpt_path}")
    return cpa.load_checkpoint(ckpt_path), _read_json_object(meta_path)


def _write_train_outputs(run_dir: Path, config: RunConfig, dataset: Dataset,
                         triples: dict, result: training.TrainResult) -> None:
    lda_dir = run_dir / "lda"
    lda_dir.mkdir(parents=True, exist_ok=True)
    for key, triple in triples.items():
        slug = slugify(key)
        for stance_key, model in zip(("favor", "none", "against"),
                                     triple.models):
            topics.save_lda(model, lda_dir / f"{slug}.{stance_key}.lda1")

    for trial in result.trials:
        trial_dir = run_dir / f"trial-{trial.trial + 1}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        for key, group in trial.groups.items():
            slug = slugify(key)
            ckpt = group.checkpoint
            cpa.save_checkpoint(trial_dir / f"{slug}.cpa1", ckpt.e0,
                                ckpt.w1, ckpt.w2, ckpt.h, ckpt.n_text)
            np.save(trial_dir / f"{slug}.dis.npy", group.dis_train)
            stance_by_id = {ex.id: ex.stance.value for ex in dataset.examples}
            meta = {
                "group": key,
                "ids": group.ids,
                "stances": [stance_by_id[i] for i in group.ids],
                "best_epoch": group.best_epoch,
                "best_val_micf": group.best_val_micf,
                "label_order": list(LABEL_NAMES),
                "h": ckpt.h,
                "hops": ckpt.hops,
                "seed": trial.seed,
            }
            _write_json(trial_dir / f"{slug}.meta.json", meta)
            log_lines = ["epoch,loss,val_macf,val_micf"]
            log_lines += [
                f"{r['epoch']},{r['loss']:.8f},{r['val_macf']:.6f},{r['val_micf']:.6f}"
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
    dataset = load_dataset(config)
    rows = []
    for key, target in _group_keys(config, dataset):
        subsets = stance_subsets(dataset, target)
        for stance_key, subset in zip(("favor", "none", "against"), subsets):
            docs = topics.token_docs(subset)
            for h in range(lo, hi + 1):
                model = topics.fit_lda(
                    docs, h, alpha=config.alpha or None, beta=config.beta,
                    sweeps=config.lda_sweeps,
                    seed=derive_seed(config.seed, 7, key, stance_key, h))
                try:
                    perp = topics.perplexity(model, docs,
                                             sweeps=config.fold_in_sweeps,
                                             seed=config.seed)
                except TopicsError:
                    perp = float("nan")
                coher = topics.umass_coherence(model, docs, top_n=args.top_n)
                rows.append((key, stance_key, h, perp, coher))

    header = f"{'group':<24}{'stance':<9}{'H':>3}{'perplexity':>14}{'coherence':>12}"
    lines = [header]
    for key, stance_key, h, perp, coher in rows:
        lines.append(f"{key:<24}{stance_key:<9}{h:>3}{perp:>14.4f}{coher:>12.4f}")
    print("\n".join(lines))
    if args.out:
        csv_lines = ["group,stance,h,perplexity,coherence"]
        csv_lines += [f"{k},{s},{h},{p:.6f},{c:.6f}"
                      for k, s, h, p, c in rows]
        Path(args.out).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    config = build_config(args)
    if not config.embeddings:
        raise ConfigError("no --embeddings file given")
    dataset = load_dataset(config)
    store = training.load_embeddings(config.embeddings)
    absent = training.missing_ids(store, dataset)
    if absent:
        raise TrainingError(f"embedding records missing for ids: {absent}")
    loaded = time.perf_counter()

    triples, fit_seconds = fit_group_triples(dataset, config)
    result = training.train(dataset, store, triples, config.train_config())

    written = time.perf_counter()
    run_dir = run_dir_for(config)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_train_outputs(run_dir, config, dataset, triples, result)
    # wall times per stage; never compared, unlike the other outputs
    _write_json(run_dir / "timings.json", {
        "load_s": loaded - start,
        "groups": {key: {
            "topic_fit_s": fit_seconds[key], **result.group_seconds[key],
            "trials": [{"train_s": t.groups[key].train_s,
                        "val_s": t.groups[key].val_s}
                       for t in result.trials]} for key in triples},
        "write_s": time.perf_counter() - written,
        "total_s": time.perf_counter() - start,
    })
    # last, so eval and predict reject a directory whose writing broke off
    write_manifest(run_dir, config, list(triples))
    print(f"run directory: {run_dir}")
    print(result.report_text, end="")
    return 0


def _trial_numbers(args: argparse.Namespace, config: RunConfig) -> list[int]:
    if getattr(args, "trial", None):
        return [args.trial]
    return list(range(1, config.trials + 1))


def cmd_eval(args: argparse.Namespace) -> int:
    config, groups, run_dir = read_manifest(args.run)
    mode = args.mode or config.mode
    if mode not in inference.MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    score_norm = bool(args.score_norm) or config.score_norm
    split = {"train": Split.TRAIN, "val": Split.VAL,
             "test": Split.TEST}[args.split]
    dataset = load_dataset(config)
    store = training.load_embeddings(config.embeddings)

    # semantic rows and fold-ins depend on the group and split, not the trial
    scored = []
    for group in groups:
        target = None if config.joint else group["name"]
        examples = dataset.split(split, target)
        examples = [ex for ex in examples if ex.stance is not Stance.UNKNOWN]
        if not examples:
            continue
        triple = load_run_triple(run_dir, group["slug"])
        scored.append((group["slug"], examples,
                       training.semantic_matrix(examples, store),
                       training.fold_in_matrix(examples, triple,
                                               config.fold_in_sweeps,
                                               config.seed)))
    if not scored:
        raise ConfigError(f"no labeled examples in split {args.split!r}")

    trial_rows = []
    for trial in _trial_numbers(args, config):
        preds, golds, targets = [], [], []
        for slug, examples, sem_rows, dis_rows in scored:
            ckpt, _ = load_run_checkpoint(run_dir, trial, slug)
            preds += inference.score_batch(
                sem_rows, dis_rows, ckpt.z, ckpt.u, ckpt.weights(),
                mode=mode, score_norm=score_norm,
                slope=config.leaky_slope).predicted
            golds += [ex.stance for ex in examples]
            targets += [ex.target for ex in examples]
        per_target = metrics.per_target_f_avg(preds, golds, targets)
        macf, micf = metrics.macro_micro(preds, golds, targets)
        row = {t: per_target.get(t, 0.0) for t in dataset.targets}
        row["MacF"] = macf
        row["MicF"] = micf
        trial_rows.append(row)

    text, csv_text = metrics.report(trial_rows, dataset.targets)
    suffix = f"{args.split}-{mode}" + ("-zscore" if score_norm else "")
    (run_dir / f"report-{suffix}.txt").write_text(text, encoding="utf-8")
    (run_dir / f"report-{suffix}.csv").write_text(csv_text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from .corpus import _tweet_rows

    config, groups, run_dir = read_manifest(args.run)
    mode = args.mode or config.mode
    if mode not in inference.MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    score_norm = bool(args.score_norm) or config.score_norm
    trial = args.trial or 1
    store = training.load_embeddings(config.embeddings)
    examples = _tweet_rows(Path(args.infile), Split.TEST)

    by_name = {g["name"]: g["slug"] for g in groups}
    members: dict[str, list[int]] = {}  # group -> input row numbers
    for i, ex in enumerate(examples):
        key = "joint" if config.joint else ex.target
        if key not in by_name:
            raise ConfigError(f"no trained group for target {ex.target!r}")
        if ex.id not in store.tokens:
            raise InferenceError(f"no embedding record for example {ex.id!r}")
        members.setdefault(key, []).append(i)

    lines = [""] * len(examples)
    for key, rows in members.items():
        group = [examples[i] for i in rows]
        triple = load_run_triple(run_dir, by_name[key])
        ckpt, _ = load_run_checkpoint(run_dir, trial, by_name[key])
        scores = inference.score_batch(
            training.semantic_matrix(group, store),
            training.fold_in_matrix(group, triple, config.fold_in_sweeps,
                                    config.seed),
            ckpt.z, ckpt.u, ckpt.weights(), mode=mode,
            score_norm=score_norm, slope=config.leaky_slope)
        for i, sem, dis, label in zip(rows, scores.sem, scores.dis,
                                      scores.predicted):
            values = "\t".join(f"{x:.6f}" for x in (*sem, *dis))
            lines[i] = f"{examples[i].id}\t{label.value}\t{values}"
    header = ("ID\tPredicted\tSemFavor\tSemNone\tSemAgainst"
              "\tDisFavor\tDisNone\tDisAgainst")
    Path(args.outfile).write_text("\n".join([header, *lines]) + "\n",
                                  encoding="utf-8")
    print(f"wrote {len(examples)} predictions to {args.outfile}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    config, groups, run_dir = read_manifest(args.run)
    trial = args.trial or 1
    if args.group:
        matches = [g for g in groups if g["name"] == args.group]
        if not matches:
            raise ConfigError(f"unknown group {args.group!r}")
        group = matches[0]
    elif len(groups) == 1:
        group = groups[0]
    else:
        raise ConfigError("several groups in this run; pick one with --group")
    ckpt, meta = load_run_checkpoint(run_dir, trial, group["slug"])
    dis_train = np.load(run_dir / f"trial-{trial}" / f"{group['slug']}.dis.npy")

    stance_by_value = {label.value: label for label in LABELS}
    lap = graph.laplacian(graph.build_adjacency(
        [stance_by_value[name] for name in meta["stances"]], dis_train))
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

    reps = None
    node_names = (meta["ids"]
                  + [f"topic:{j}" for j in range(3 * ckpt.h)]
                  + [f"label:{name.lower()}" for name in LABEL_NAMES])
    if args.dump_final_reps or args.similar_to:
        reps = inference.final_train_reps(ckpt, lap, slope=config.leaky_slope)
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
        store = training.load_embeddings(config.embeddings)
        if args.similar_to not in store.tokens:
            raise InferenceError(
                f"no embedding record for example {args.similar_to!r}")
        query = cpa.infer_transform(store.pooled(args.similar_to),
                                    ckpt.weights(), slope=config.leaky_slope)
        hits = inference.top_k_similar(query, reps[:n], meta["ids"], args.k,
                                       exclude_id=args.similar_to)
        for rec_id, sim in hits:
            print(f"{rec_id}\t{sim:.6f}")
        did_something = True

    if args.export_attention:
        dataset = load_dataset(config)
        store = training.load_embeddings(config.embeddings)
        wanted = [ex for ex in dataset.examples if ex.id == args.export_attention]
        if not wanted:
            raise ConfigError(f"example {args.export_attention!r} not in dataset")
        out = args.attention_out or f"{args.export_attention}-attention.csv"
        inference.export_attention(wanted[0], store, out)
        print(f"attention weights -> {out}")
        did_something = True

    if not did_something:
        print(f"run {run_dir}: groups {[g['name'] for g in groups]}, "
              f"trial {trial}, {n} text nodes, H={ckpt.h}, hops={ckpt.hops}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = build_config(args)
    paths = synth.make_synthetic(
        args.out, seed=config.seed, n_train=args.n_train, n_val=args.n_val,
        n_test=args.n_test, h=args.gen_h, words_per_topic=args.words_per_topic,
        noise=args.noise)
    for role in ("train", "val", "test", "embeddings", "truth"):
        print(f"{role}: {paths[role]}")
    return 0


# --- argument parsing --------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--dataset", choices=["semeval", "ukp", "synthetic"])
    parser.add_argument("--data", help="dataset directory")
    parser.add_argument("--embeddings", help="EMB1 embedding file")
    parser.add_argument("--out-dir", dest="out_dir", help="run directory")
    parser.add_argument("--h", type=int, help="topics per stance subset")
    parser.add_argument("--hops", type=int, help="propagation hops")
    parser.add_argument("--alpha", type=float, help="doc-topic prior (0 = 50/H)")
    parser.add_argument("--beta", type=float, help="topic-word prior")
    parser.add_argument("--lda-sweeps", dest="lda_sweeps", type=int)
    parser.add_argument("--fold-in-sweeps", dest="fold_in_sweeps", type=int)
    parser.add_argument("--lr-cpa", dest="lr_cpa", type=float)
    parser.add_argument("--lr-embed", dest="lr_embed", type=float)
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--d1", type=int, help="propagated embedding width")
    parser.add_argument("--leaky-slope", dest="leaky_slope", type=float)
    parser.add_argument("--joint", action="store_const", const=True,
                        help="one joint graph instead of per-target graphs")
    parser.add_argument("--parallel-trials", dest="parallel_trials",
                        action="store_const", const=True)
    parser.add_argument("--score-norm", dest="score_norm",
                        action="store_const", const=True,
                        help="z-score each score triple before adding")
    parser.add_argument("--mode", choices=list(inference.MODES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosd",
        description="collaborative stance detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topics", help="perplexity/coherence over an H range")
    _add_config_flags(p)
    p.add_argument("--h-range", dest="h_range", default="3:7",
                   help="inclusive LO:HI topic-count range")
    p.add_argument("--top-n", dest="top_n", type=int, default=10,
                   help="top words per topic for coherence")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("train", help="fit topic models and train the graph")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a TSV of texts with a trained run")
    _add_config_flags(p)
    p.add_argument("--run", required=True, help="run directory from train")
    p.add_argument("--trial", type=int, help="trial number (default 1)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="metrics for a split against a trained run")
    _add_config_flags(p)
    p.add_argument("--run", required=True)
    p.add_argument("--trial", type=int, help="one trial (default: all + mean)")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump graph/representations/attention")
    _add_config_flags(p)
    p.add_argument("--run", required=True)
    p.add_argument("--trial", type=int)
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

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    _add_config_flags(p)
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


_HANDLED = (ConfigError, CorpusError, TopicsError, GraphError, NumericsError,
            CpaError, TrainingError, InferenceError, MetricsError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
