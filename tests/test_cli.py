"""End-to-end command tests: config precedence, run-directory layout,
re-loadable artifacts, exit codes with one-line diagnostics.

A single small training run (module fixture) backs the eval / predict /
inspect commands so the suite stays fast.
"""

import argparse
import csv
import json
import re
import shutil
import struct
import time
import tracemalloc

import numpy as np
import pytest

from conftest import record_rows
import cosd.cli
import cosd.cpa
import cosd.inference
import cosd.rundir
import cosd.topics
from cosd import metrics, training
from cosd.corpus import Split, load_semeval, read_splits
from cosd.cli import (
    ConfigError,
    build_config,
    build_parser,
    main,
    parse_h_range,
    read_config_file,
)
from cosd.rundir import RunDir, run_dir_for, slugify

SLUG = "synthetic-policy"  # slugified synth target name


def _config(argv):
    return build_config(build_parser().parse_args(argv))


def _scores(run, texts, trial, mode="full", norm=False):
    """The run's scores and labels of texts in one mode, as predict gives
    them."""
    return cosd.inference.mode_scores(
        *run.score(run.rows(texts, [mode]), trial), mode, norm)


# --- config layer -----------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "h = 4\n"
        'data = "corpus/dir"  # trailing comment\n'
        "joint = on\n"
        "\n"
        "lr_cpa = 2e-5\n",
        encoding="utf-8")
    got = read_config_file(cfg)
    assert got == {"h": "4", "data": "corpus/dir", "joint": "on",
                   "lr_cpa": "2e-5"}
    # a file may hold keys the command has no flag for
    for argv in (["train"], ["topics"], ["synth", "--out", "D"]):
        config = _config(argv + ["--config", str(cfg)])
        assert config.h == 4
        assert config.data == "corpus/dir"
        assert config.joint is True
        assert config.lr_cpa == 2e-5
        assert config.epochs == 50  # untouched default


def test_config_file_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "absent.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config_file(bad)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        _config(["train", "--config", str(unknown)])
    notint = tmp_path / "notint.cfg"
    notint.write_text("epochs = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        _config(["train", "--config", str(notint)])
    notbool = tmp_path / "notbool.cfg"
    notbool.write_text("joint = maybe\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        _config(["train", "--config", str(notbool)])


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + b"dataset = ukp\nh = 4\n")
    assert read_config_file(cfg) == {"dataset": "ukp", "h": "4"}
    config = _config(["train", "--config", str(cfg)])
    assert (config.dataset, config.h) == ("ukp", 4)


def test_seed_precedence_flag_file_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nh = 4\n", encoding="utf-8")
    assert _config(["train"]).seed == training.RunConfig().seed
    assert _config(["train", "--config", str(cfg)]).seed == 3
    flag_wins = _config(["train", "--config", str(cfg), "--seed", "12"])
    assert flag_wins.seed == 12
    assert flag_wins.h == 4  # the flag touches only the seed


def test_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 4\ndropout = 0.3\n", encoding="utf-8")
    config = _config(["train", "--config", str(cfg), "--h", "3"])
    assert config.h == 3
    assert config.dropout == 0.3


def test_config_validation(tmp_path):
    cfg_config = _config(["train"])
    assert cfg_config.dataset == "semeval"
    assert cfg_config.resolved_hops() == 3
    assert _config(["train", "--dataset", "ukp"]).resolved_hops() == 2
    assert _config(["train", "--hops", "5"]).resolved_hops() == 5
    assert _config(["train", "--hops", "0"]).resolved_hops() == 3
    with pytest.raises(ConfigError, match="hops"):
        _config(["train", "--hops", "-4"])
    # argparse guards the flags; merged file values are revalidated
    bad_kind = tmp_path / "kind.cfg"
    bad_kind.write_text("dataset = mystery\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        _config(["train", "--config", str(bad_kind)])
    # eval and predict own --mode; it is no config key
    bad_mode = tmp_path / "mode.cfg"
    bad_mode.write_text("mode = full\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key 'mode'"):
        _config(["train", "--config", str(bad_mode)])


def test_parse_h_range():
    assert parse_h_range("3:7") == (3, 7)
    assert parse_h_range(" 2:2 ") == (2, 2)
    for bad in ("7:3", "0:4", "3", "a:b", "3:4:5"):
        with pytest.raises(ConfigError):
            parse_h_range(bad)


def test_slugify():
    assert slugify("Hillary Clinton") == "hillary-clinton"
    assert slugify("Synthetic Policy") == SLUG
    assert slugify("***") == "group"


def test_run_dir_naming():
    pinned = _config(["train", "--out-dir", "runs/here"])
    assert str(run_dir_for(pinned)) == "runs/here"
    auto = run_dir_for(_config(["train", "--seed", "8"]))
    assert re.fullmatch(r"runs/\d{8}-\d{6}-seed8", str(auto))


RUN_FLAGS = {"--run", "--trial"}
TRAIN_OWN = {"--config", "--dataset", "--data", "--embeddings", "--out-dir",
             "--h", "--hops", "--alpha", "--beta", "--lda-sweeps",
             "--fold-in-sweeps", "--lr-cpa", "--lr-embed", "--dropout",
             "--epochs", "--seed", "--trials", "--d1", "--leaky-slope",
             "--joint"}  # one per RunConfig key


@pytest.mark.parametrize("command, own, argv", [
    ("eval", RUN_FLAGS | {"--mode", "--score-norm", "--split"}, ["--run", "R"]),
    ("predict", RUN_FLAGS | {"--mode", "--score-norm", "--in", "--out"},
     ["--run", "R", "--in", "in.tsv", "--out", "out.tsv"]),
    ("inspect", RUN_FLAGS | {"--group", "--dump-graph", "--dump-final-reps",
                             "--similar-to", "--k", "--export-attention",
                             "--attention-out"}, ["--run", "R"]),
    ("topics", {"--config", "--dataset", "--data", "--alpha", "--beta",
                "--lda-sweeps", "--fold-in-sweeps", "--seed", "--joint",
                "--h-range", "--top-n", "--out"}, []),
    ("synth", {"--config", "--seed", "--out", "--n-train", "--n-val",
               "--n-test", "--gen-h", "--words-per-topic", "--noise"},
     ["--out", "D"]),
    ("train", TRAIN_OWN, []),
], ids=["eval", "predict", "inspect", "topics", "synth", "train"])
def test_scoring_commands_take_only_their_own_flags(command, own, argv,
                                                    capsys):
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices[command]._option_string_actions) == {
        "-h", "--help"} | own
    argv = [command, *argv]
    build_parser().parse_args(argv)
    # a flag the command does not read is a usage error, not a prefix of
    # one it does
    for flag in (["--h", "3"], ["--embeddings", "/nonexistent"],
                 ["--config", "/nonexistent.cfg"], ["--parallel-trials"],
                 ["--mode", "full"], ["--score-norm"]):
        if flag[0] in own:
            continue
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_main_reuses_one_parser_after_a_usage_error(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 2
    assert "required: --run" in capsys.readouterr().err
    assert main(["eval", "--run", "/nonexistent"]) == 2
    assert "not a run directory" in capsys.readouterr().err


# --- training run fixture ----------------------------------------------------------


TRAIN_FLAGS = ["--h", "2", "--hops", "2", "--lda-sweeps", "40",
               "--fold-in-sweeps", "10", "--epochs", "3", "--trials", "2",
               "--d1", "8", "--seed", "5"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, synth_small):
    root, paths = synth_small
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = main(["train", "--dataset", "synthetic", "--data", str(root),
               "--embeddings", str(paths["embeddings"]),
               "--out-dir", str(out)] + TRAIN_FLAGS)
    assert rc == 0
    return out


def test_train_run_layout(run_dir, tmp_path, monkeypatch):
    assert (run_dir / "run.json").is_file()
    for stance_key in ("favor", "none", "against"):
        assert (run_dir / "lda" / f"{SLUG}.{stance_key}.lda1").is_file()
    # CPA2: a 20-byte header, then the topic and label rows (3H + 3 = 9 of
    # d0 = 768) and the weights of two hops (768 x 8, then 8 x 8, twice),
    # as float64; no text row
    cpa_size = 20 + 8 * (9 * 768 + 2 * (768 * 8 + 8 * 8))
    for trial in (1, 2):
        base = run_dir / f"trial-{trial}"
        assert (base / f"{SLUG}.cpa1").stat().st_size == cpa_size
        assert (base / f"{SLUG}.meta.json").is_file()
        assert not (base / f"{SLUG}.dis.npy").exists()
        with open(base / f"{SLUG}.log.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["epoch", "loss", "val_macf", "val_micf",
                                 "val_micf_no_sem", "val_micf_no_dis"]
        assert len(rows) == 3  # one row per epoch
    assert (run_dir / "report-val.txt").is_file()
    assert (run_dir / "report-val.csv").is_file()
    config_text = (run_dir / "config.txt").read_text(encoding="utf-8")
    assert "seed = 5" in config_text

    # the writer wrote exactly the files the layout table names for the
    # run's group, stances and trials and its val report, and the JSON
    # sidecar save_lda writes beside each topic model
    layout = cosd.rundir.LAYOUT
    names = {role: {rel.format(slug=SLUG, key=key, trial=trial, suffix="val")
                    for key in ("favor", "none", "against")
                    for trial in (1, 2)}
             for role, rel in layout.items()}
    assert set(_run_files(run_dir)) == {
        *(name for role in names.values() for name in role),
        *(f"{name}.json" for name in names["topics"])}

    # the reader opens every file through that table: under a table whose
    # every name has moved, a copy at the moved names scores as the run
    run = RunDir(run_dir)
    texts = run.corpus(Split.VAL).examples
    want = [_scores(run, texts, trial) for trial in (1, 2)]
    moved = tmp_path / "moved"
    for role, rel in list(layout.items()):
        for name in names[role]:
            (moved / f"moved-{name}").parent.mkdir(parents=True,
                                                   exist_ok=True)
            shutil.copy(run_dir / name, moved / f"moved-{name}")
        monkeypatch.setitem(layout, role, f"moved-{rel}")
    run = RunDir(moved)
    for trial, scores in zip((1, 2), want):
        got = _scores(run, texts, trial)
        assert got.predicted == scores.predicted
        assert np.array_equal(got.sem, scores.sem)
        assert np.array_equal(got.dis, scores.dis)
        _, pool, _ = run.training_graph("Synthetic Policy", trial)
        meta = json.loads((run_dir / f"trial-{trial}" / f"{SLUG}.meta.json")
                          .read_text(encoding="utf-8"))
        assert [ex.id for ex in pool] == meta["ids"]


def test_train_writes_stage_timings(run_dir):
    doc = json.loads((run_dir / "timings.json").read_text(encoding="utf-8"))
    assert set(doc) == {"load_s", "topic_fit_s", "topic_fit_updates",
                        "topic_fit_capped", "fold_in_s", "fold_in_capped",
                        "groups", "write_s", "total_s"}
    # the updates the fit made, each model's stop sweep times its tokens,
    # and the models that ran to the cap of 40 sweeps, read from the run's
    # topic models
    models = [cosd.topics.load_lda(path)
              for path in sorted((run_dir / "lda").glob("*.lda1"))]
    assert len(models) == 3
    assert doc["topic_fit_updates"] == sum(
        m.trained_sweeps * round(m.topic_totals.sum()) for m in models) > 0
    assert doc["topic_fit_capped"] == sum(
        m.trained_sweeps == 40 for m in models)
    for key in ("topic_fit_updates", "topic_fit_capped"):
        assert type(doc[key]) is int
    # the topic fit and the fold-in cover every group at once; the graph
    # is built per group
    (group,) = doc["groups"].values()
    assert set(group) == {"graph_build_s", "trials"}
    for value in (doc["topic_fit_s"], doc["fold_in_s"],
                  group["graph_build_s"]):
        assert value >= 0.0
    assert len(group["trials"]) == 2
    for trial in group["trials"]:
        assert trial["train_s"] > 0.0 and trial["val_s"] >= 0.0
    stages = (doc["load_s"] + doc["write_s"] + doc["topic_fit_s"]
              + doc["fold_in_s"] + group["graph_build_s"]
              + sum(t["train_s"] + t["val_s"] for t in group["trials"]))
    assert stages <= doc["total_s"]


def _run_files(run_dir):
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_manifest_reload(run_dir, synth_small):
    root, _ = synth_small
    run = RunDir(run_dir)
    assert run.path == run_dir
    config = run.config
    assert config.seed == 5 and config.h == 2 and config.trials == 2
    assert config.data == str(root.resolve())
    assert run.groups == {"Synthetic Policy": SLUG}
    assert run.targets == ["Synthetic Policy"]
    with pytest.raises(ConfigError):
        RunDir(run_dir / "lda")


def test_meta_and_seed_tagged_trials(run_dir):
    metas = [json.loads((run_dir / f"trial-{t}" / f"{SLUG}.meta.json")
                        .read_text(encoding="utf-8")) for t in (1, 2)]
    assert metas[0]["seed"] != metas[1]["seed"]
    for meta in metas:
        assert meta["group"] == "Synthetic Policy"
        assert meta["h"] == 2 and meta["hops"] == 2
        assert len(meta["ids"]) == len(meta["stances"]) == 60
        assert meta["label_order"] == ["Favor", "None", "Against"]
        assert 1 <= meta["best_epoch"] <= 3
    report = (run_dir / "report-val.csv").read_text(encoding="utf-8")
    lines = report.strip().splitlines()
    assert len(lines) == 1 + 2 + 1  # header, two trials, mean row
    assert lines[-1].startswith("mean,")


def test_eval_writes_reports_and_is_deterministic(run_dir, capsys):
    rc = main(["eval", "--run", str(run_dir), "--split", "test"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MicF" in out and "mean" in out
    text_path = run_dir / "report-test-full.txt"
    csv_path = run_dir / "report-test-full.csv"
    first = (text_path.read_bytes(), csv_path.read_bytes())
    assert main(["eval", "--run", str(run_dir), "--split", "test"]) == 0
    assert (text_path.read_bytes(), csv_path.read_bytes()) == first
    csv_lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert csv_lines[0] == "run,Synthetic Policy,MacF,MicF"


def test_eval_single_trial_and_ablation(run_dir):
    rc = main(["eval", "--run", str(run_dir), "--split", "val",
               "--trial", "1", "--mode", "no_dis"])
    assert rc == 0
    report = run_dir / "report-val-no_dis.csv"
    lines = report.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 1 + 1  # header, trial-1, mean
    rc = main(["eval", "--run", str(run_dir), "--split", "val",
               "--score-norm"])
    assert rc == 0
    assert (run_dir / "report-val-full-zscore.csv").is_file()


def test_eval_labels_the_trial_it_scores(run_dir):
    assert main(["eval", "--run", str(run_dir), "--split", "val",
                 "--trial", "2"]) == 0
    lines = (run_dir / "report-val-full.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert [line.split(",")[0] for line in lines] == ["run", "trial-2", "mean"]


def test_predict_writes_tsv(run_dir, synth_small, tmp_path, capsys):
    root, _ = synth_small
    out = tmp_path / "preds.tsv"
    rc = main(["predict", "--run", str(run_dir),
               "--in", str(root / "test.tsv"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split("\t") == [
        "ID", "Predicted", "SemFavor", "SemNone", "SemAgainst",
        "DisFavor", "DisNone", "DisAgainst"]
    assert len(lines) == 1 + 21
    stances = {"Favor", "None", "Against"}
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == 8
        assert cells[1] in stances
    again = tmp_path / "preds2.tsv"
    assert main(["predict", "--run", str(run_dir),
                 "--in", str(root / "test.tsv"), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_predict_of_one_text_equals_its_line_in_the_whole_split(
        run_dir, synth_small, tmp_path):
    # a text's fold-in row and scores depend on that text alone
    root, _ = synth_small
    whole = tmp_path / "whole.tsv"
    assert main(["predict", "--run", str(run_dir),
                 "--in", str(root / "test.tsv"), "--out", str(whole)]) == 0
    header, *rows = (root / "test.tsv").read_text(
        encoding="utf-8").splitlines()
    predicted = whole.read_text(encoding="utf-8").splitlines()
    for i in (0, len(rows) // 2, len(rows) - 1):
        one_in, one_out = tmp_path / f"one-{i}.tsv", tmp_path / f"pred-{i}.tsv"
        one_in.write_text(f"{header}\n{rows[i]}\n", encoding="utf-8")
        assert main(["predict", "--run", str(run_dir), "--in", str(one_in),
                     "--out", str(one_out)]) == 0
        assert one_out.read_text(encoding="utf-8").splitlines() == [
            predicted[0], predicted[1 + i]]


def test_inspect_summary_and_dumps(run_dir, tmp_path, capsys):
    assert main(["inspect", "--run", str(run_dir)]) == 0
    summary = capsys.readouterr().out
    assert "60 text nodes" in summary and "H=2" in summary

    graph_out = tmp_path / "lap.txt"
    reps_out = tmp_path / "reps.txt"
    rc = main(["inspect", "--run", str(run_dir),
               "--dump-graph", str(graph_out),
               "--dump-final-reps", str(reps_out)])
    assert rc == 0
    capsys.readouterr()
    lap_lines = graph_out.read_text(encoding="utf-8").strip().splitlines()
    assert all(len(line.split()) == 3 for line in lap_lines)
    rep_lines = reps_out.read_text(encoding="utf-8").strip().splitlines()
    assert len(rep_lines) == 60 + 3 * 2 + 3
    assert rep_lines[-1].startswith("label:against ")
    width = len(rep_lines[0].split()) - 1
    assert width == 768 + 2 * 8


def test_inspect_summary_shows_each_topic_models_stop_sweep(run_dir, tmp_path,
                                                         capsys):
    # the summary reads each model's trained_sweeps from its .lda1 file, in
    # label order; one rewritten with another stop sweep shows that one
    stops = [cosd.topics.load_lda(
        run_dir / "lda" / f"{SLUG}.{key}.lda1").trained_sweeps
        for key in ("favor", "none", "against")]
    assert all(1 <= stop <= 40 for stop in stops)
    assert main(["inspect", "--run", str(run_dir)]) == 0
    summary = capsys.readouterr().out
    assert summary.rstrip().endswith(
        f"topic fit sweeps {stops[0]}/{stops[1]}/{stops[2]} "
        f"(favor/none/against)")
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / "lda" / f"{SLUG}.none.lda1"
    model = cosd.topics.load_lda(path)
    model.trained_sweeps = 17
    cosd.topics.save_lda(model, path)
    assert main(["inspect", "--run", str(copy)]) == 0
    assert (f"topic fit sweeps {stops[0]}/17/{stops[2]} "
            in capsys.readouterr().out)


def test_inspect_reads_the_embeddings_only_for_final_reps(run_dir, tmp_path,
                                                          capsys):
    # the summary and the graph need no text rows, so they run with the
    # run's EMB1 file gone; --dump-final-reps needs them and exits 2
    graph_out = tmp_path / "lap.txt"
    assert main(["inspect", "--run", str(run_dir),
                 "--dump-graph", str(graph_out)]) == 0
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    doc = json.loads((copy / "run.json").read_text(encoding="utf-8"))
    gone = tmp_path / "moved-away.emb1"
    doc["embeddings"] = str(gone)
    (copy / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", "--run", str(copy)]) == 0
    assert "60 text nodes" in capsys.readouterr().out
    without = tmp_path / "lap-without.txt"
    assert main(["inspect", "--run", str(copy),
                 "--dump-graph", str(without)]) == 0
    assert without.read_bytes() == graph_out.read_bytes()
    _expect_failure(["inspect", "--run", str(copy), "--dump-final-reps",
                     str(tmp_path / "reps.txt")], capsys, needle=str(gone))


def test_inspect_similar_to_queries_with_the_texts_graph_row(
        run_dir, tmp_path, capsys, monkeypatch):
    meta = json.loads((run_dir / "trial-1" / f"{SLUG}.meta.json")
                      .read_text(encoding="utf-8"))
    query_id = meta["ids"][3]
    queries = []
    original = cosd.inference.top_k_similar

    def recording(query_rep, *args, **kwargs):
        queries.append(query_rep)
        return original(query_rep, *args, **kwargs)

    monkeypatch.setattr(cosd.inference, "top_k_similar", recording)
    reps = tmp_path / "reps.txt"
    assert main(["inspect", "--run", str(run_dir), "--similar-to", query_id,
                 "--dump-final-reps", str(reps)]) == 0
    capsys.readouterr()
    (query,) = queries
    row = next(line.split()[1:] for line in
               reps.read_text(encoding="utf-8").splitlines()
               if line.split()[0] == query_id)
    # the query is infer_transform of the text's semantic row, which is the
    # text's row of the graph: E^0 of its final rep
    assert [f"{x:.8f}" for x in query[:768]] == row[:768]
    assert query.shape == (768 + 2 * 8,)
    # a text of the test split is found too; an unknown id is not
    test_id = next(ex.id for ex in RunDir(run_dir).corpus(Split.TEST).examples)
    assert main(["inspect", "--run", str(run_dir),
                 "--similar-to", test_id]) == 0
    _expect_failure(["inspect", "--run", str(run_dir),
                     "--similar-to", "no-such-text"], capsys,
                    needle="'no-such-text' not in dataset")


def test_inspect_similar_and_attention(run_dir, synth_small, tmp_path, capsys):
    meta = json.loads((run_dir / "trial-1" / f"{SLUG}.meta.json")
                      .read_text(encoding="utf-8"))
    query_id = meta["ids"][0]
    rc = main(["inspect", "--run", str(run_dir),
               "--similar-to", query_id, "--k", "3"])
    assert rc == 0
    rows = [line.split("\t") for line in
            capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 3
    assert all(rec_id != query_id for rec_id, _ in rows)
    sims = [float(s) for _, s in rows]
    assert sims == sorted(sims, reverse=True)

    attn = tmp_path / "attn.csv"
    rc = main(["inspect", "--run", str(run_dir),
               "--export-attention", query_id, "--attention-out", str(attn)])
    assert rc == 0
    capsys.readouterr()
    lines = attn.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "token,attention_weight"
    assert len(lines) > 1


def test_inspect_attention_out_needs_export_attention(run_dir, tmp_path,
                                                      capsys):
    # one error line, and neither the run summary nor a file
    attn = tmp_path / "attn.csv"
    assert main(["inspect", "--run", str(run_dir),
                 "--attention-out", str(attn)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "error: --attention-out needs --export-attention\n")
    assert not attn.exists()


def test_export_attention_opens_the_file_once_for_its_record(
        run_dir, tmp_path, capsys, monkeypatch):
    meta = json.loads((run_dir / "trial-1" / f"{SLUG}.meta.json")
                      .read_text(encoding="utf-8"))
    query_id = meta["ids"][0]
    opens, reads = [], []
    original_open = training.TokenRows.open
    original_read = training.TokenRows._read

    def opening(self):
        opens.append(self.path)
        return original_open(self)

    def recording(self, src, rec_id, out=None):
        reads.append(rec_id)
        return original_read(self, src, rec_id, out)

    monkeypatch.setattr(training.TokenRows, "open", opening)
    monkeypatch.setattr(training.TokenRows, "_read", recording)
    assert main(["inspect", "--run", str(run_dir), "--export-attention",
                 query_id, "--attention-out", str(tmp_path / "a.csv")]) == 0
    capsys.readouterr()
    assert len(opens) == 1
    assert reads == [query_id]


def test_synth_command(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["synth", "--out", str(out), "--seed", "4",
               "--n-train", "30", "--n-val", "9", "--n-test", "9",
               "--gen-h", "2", "--words-per-topic", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    for role in ("train", "val", "test", "embeddings", "truth"):
        assert f"{role}: " in printed
        assert role in printed
    assert (out / "train.tsv").is_file()
    assert (out / "synth.emb1").is_file()
    assert (out / "truth.json").is_file()


# --- failure paths exit 2 with one-line diagnostics ------------------------------------


def _expect_failure(argv, capsys, needle=None):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    if needle:
        assert needle in err
    return err


def test_missing_embeddings_file_names_path(synth_small, tmp_path, capsys):
    root, _ = synth_small
    ghost = tmp_path / "nope.emb1"
    _expect_failure(["train", "--dataset", "synthetic", "--data", str(root),
                     "--embeddings", str(ghost), "--out-dir",
                     str(tmp_path / "r")] + TRAIN_FLAGS,
                    capsys, needle=str(ghost))


def test_train_without_embeddings_flag(synth_small, tmp_path, capsys):
    root, _ = synth_small
    _expect_failure(["train", "--dataset", "synthetic", "--data", str(root),
                     "--out-dir", str(tmp_path / "r")] + TRAIN_FLAGS,
                    capsys, needle="--embeddings")


def test_missing_data_dir(capsys, synth_small, tmp_path):
    _, paths = synth_small
    _expect_failure(["train", "--dataset", "synthetic",
                     "--embeddings", str(paths["embeddings"]),
                     "--out-dir", str(tmp_path / "r")] + TRAIN_FLAGS,
                    capsys, needle="--data")


def test_eval_on_non_run_dir(tmp_path, capsys):
    _expect_failure(["eval", "--run", str(tmp_path)], capsys,
                    needle="run.json")


def test_eval_on_truncated_topic_model(run_dir, tmp_path, capsys):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    lda.write_bytes(lda.read_bytes()[:-3])
    _expect_failure(["eval", "--run", str(copy), "--split", "test"], capsys,
                    needle=f"{SLUG}.none.lda1")


def test_eval_names_a_topic_model_whose_counts_fail_its_checks(
        run_dir, tmp_path, capsys):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    model = cosd.topics.load_lda(lda)
    raw = lda.read_bytes()
    # the f8 counts follow the magic, H, |V|, both priors and the sweeps; a
    # NaN would pass a check for negative counts alone
    first = 4 + 8 + 16 + 4
    for cell in range(model.topic_word_counts.size):
        at = first + 8 * cell
        for bad in (float("nan"), float("inf"), -1.0):
            lda.write_bytes(raw[:at] + struct.pack("<d", bad)
                            + raw[at + 8:])
            err = _expect_failure(["eval", "--run", str(copy), "--split",
                                   "test"], capsys)
            assert err == (f"error: {lda}: counts must be finite and "
                           f">= 0\n")


def test_a_topic_model_whose_vocabulary_repeats_a_token_exits_2(
        run_dir, tmp_path, capsys):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.favor.lda1"
    model = cosd.topics.load_lda(lda)
    # the first two neighbouring tokens of one byte length: the second's
    # bytes made the first's, so the file still reads whole
    first, second = next(
        pair for pair in zip(model.vocab.tokens, model.vocab.tokens[1:])
        if len(pair[0].encode()) == len(pair[1].encode()))
    raw = lda.read_bytes()
    at = (4 + 8 + 16 + 4 + 8 * model.topic_word_counts.size
          + sum(4 + len(t.encode()) for t in model.vocab.tokens[
              :model.vocab.index[second]]) + 4)
    lda.write_bytes(raw[:at] + first.encode() + raw[at + len(first):])
    err = _expect_failure(["eval", "--run", str(copy), "--split", "test"],
                          capsys)
    assert err == (f"error: {lda}: vocabulary tokens must be unique, each "
                   f"indexed at its own position\n")


def test_a_topic_model_with_a_zero_prior_exits_2(run_dir, synth_small,
                                                 tmp_path, capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    raw = lda.read_bytes()
    # alpha follows the magic, H and |V|; beta follows alpha
    for at in (12, 20):
        lda.write_bytes(raw[:at] + struct.pack("<d", 0.0) + raw[at + 8:])
        for argv in (["eval", "--split", "test"],
                     ["predict", "--in", str(root / "test.tsv"),
                      "--out", str(tmp_path / "p.tsv")], ["inspect"]):
            _expect_failure(argv + ["--run", str(copy), "--trial", "1"],
                            capsys, needle=f"{lda}: priors must be finite "
                                           f"with alpha > 0 and beta > 0")
    assert not (tmp_path / "p.tsv").exists()


def _assert_every_reader_rejects_the_layout(copy, lda, root, tmp_path,
                                            capsys):
    for argv in (["eval", "--split", "test"],
                 ["predict", "--in", str(root / "test.tsv"),
                  "--out", str(tmp_path / "p.tsv")],
                 ["inspect"]):
        err = _expect_failure(argv + ["--run", str(copy), "--trial", "1"],
                              capsys)
        assert err == f"error: {lda}: bad magic, not a LDA3 file\n"
    assert not (tmp_path / "p.tsv").exists()


def test_an_old_lda1_topic_model_exits_2(run_dir, synth_small, tmp_path,
                                         capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    model = cosd.topics.load_lda(lda)
    # the retired LDA1 layout, a u32 document frequency after each token,
    # around this file's own f8 counts: the magic alone is read
    size = 32 + 8 * model.topic_word_counts.size
    raw = bytearray(b"LDA1" + lda.read_bytes()[4:size])
    for token in model.vocab.tokens:
        raw += struct.pack("<I", len(token.encode())) + token.encode()
        raw += struct.pack("<I", 1)
    lda.write_bytes(bytes(raw))
    _assert_every_reader_rejects_the_layout(copy, lda, root, tmp_path, capsys)


def test_an_old_lda2_topic_model_exits_2(run_dir, synth_small, tmp_path,
                                         capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    model = cosd.topics.load_lda(lda)
    # the retired LDA2 layout: the same header and tokens around integer
    # counts of the same byte size
    raw = lda.read_bytes()
    counts = np.rint(model.topic_word_counts).astype("<i8").tobytes()
    lda.write_bytes(b"LDA2" + raw[4:32] + counts + raw[32 + len(counts):])
    _assert_every_reader_rejects_the_layout(copy, lda, root, tmp_path, capsys)


def test_eval_on_truncated_checkpoint(run_dir, tmp_path, capsys):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    ckpt = copy / "trial-1" / f"{SLUG}.cpa1"
    ckpt.write_bytes(ckpt.read_bytes()[:-4])
    _expect_failure(["eval", "--run", str(copy), "--split", "test"], capsys,
                    needle=f"{SLUG}.cpa1")


@pytest.mark.parametrize("name", ["run.json", f"trial-1/{SLUG}.meta.json"])
def test_eval_on_truncated_or_non_object_json(run_dir, tmp_path, capsys,
                                              name):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    # only inspect reads .meta.json; eval scores from the checkpoint alone
    argv = (["eval", "--run", str(copy), "--split", "test"]
            if name == "run.json" else ["inspect", "--run", str(copy)])
    raw = (copy / name).read_bytes()
    for size in (0, 1, 100, len(raw) // 2, len(raw) - 2):
        (copy / name).write_bytes(raw[:size])
        _expect_failure(argv, capsys, needle=name.split("/")[-1])
    (copy / name).write_text("[1, 2]\n", encoding="utf-8")
    _expect_failure(argv, capsys, needle="not a JSON object")


# edit -> (targets, what the error says)
TARGETS_EDITS = {
    "targets_not_a_list": ("Synthetic Policy", "sorted list"),
    "targets_empty": ([], "sorted list"),
    "targets_not_strings": ([7], "sorted list"),
    "targets_unsorted": (["Synthetic Policy", "Other Policy"], "sorted list"),
    "targets_repeated": (["Synthetic Policy"] * 2, "sorted list"),
    # a per-target run has one group per target
    "targets_not_the_groups": (["Other Policy", "Synthetic Policy"],
                               "differ from the groups"),
}


@pytest.mark.parametrize("edit", ["no_config", "unknown_key", "retired_key",
                                  "bad_type", "bad_groups", "zero_trials",
                                  "negative_hops", "no_targets",
                                  *TARGETS_EDITS])
def test_eval_on_malformed_manifest(run_dir, tmp_path, capsys, edit):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    doc = json.loads((copy / "run.json").read_text(encoding="utf-8"))
    if edit in TARGETS_EDITS:
        doc["targets"], said = TARGETS_EDITS[edit]
    elif edit == "no_targets":
        # a run trained before run.json held targets: no fallback
        del doc["targets"]
    elif edit == "no_config":
        del doc["config"]
    elif edit == "unknown_key":
        doc["config"]["mystery"] = 1
    elif edit == "retired_key":
        doc["config"]["parallel_trials"] = False
    elif edit == "bad_type":
        doc["config"]["fold_in_sweeps"] = "10"
    elif edit == "zero_trials":
        doc["config"]["trials"] = 0
    elif edit == "negative_hops":
        doc["config"]["hops"] = -4
    else:
        doc["groups"] = [{"name": "Synthetic Policy"}]
    (copy / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["eval", "--run", str(copy), "--split", "test"],
                 ["inspect", "--run", str(copy)]):
        err = _expect_failure(argv, capsys, needle="run.json")
        if edit in TARGETS_EDITS:
            assert said in err
        elif edit == "no_targets":
            assert "missing key 'targets'" in err


def test_a_run_trained_with_mini_batches_still_scores(run_dir, synth_small,
                                                     tmp_path, capsys):
    # run.json of a run trained before full-graph steps holds batch_size,
    # the one retired key that is dropped
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    doc = json.loads((copy / "run.json").read_text(encoding="utf-8"))
    doc["config"]["batch_size"] = 32
    (copy / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["eval", "--split", "test"],
                 ["predict", "--in", str(root / "test.tsv"),
                  "--out", str(tmp_path / "p.tsv")],
                 ["inspect"]):
        assert main(argv + ["--run", str(copy)]) == 0
        assert capsys.readouterr().err == ""
    assert RunDir(copy).config == RunDir(run_dir).config


def test_train_rejects_the_retired_batch_size(synth_small, tmp_path, capsys):
    root, paths = synth_small
    argv = ["train", "--dataset", "synthetic", "--data", str(root),
            "--embeddings", str(paths["embeddings"]),
            "--out-dir", str(tmp_path / "r")] + TRAIN_FLAGS
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--batch-size", "16"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "cosd: error: unrecognized arguments: --batch-size 16"]
    cfg = tmp_path / "old.cfg"
    cfg.write_text("batch_size = 32\n", encoding="utf-8")
    _expect_failure(argv + ["--config", str(cfg)], capsys,
                    needle="unknown config key 'batch_size'")
    assert not (tmp_path / "r").exists()


def test_interrupted_train_writes_no_manifest(run_dir, synth_small, tmp_path,
                                              capsys, monkeypatch):
    root, paths = synth_small
    argv = ["train", "--dataset", "synthetic", "--data", str(root),
            "--embeddings", str(paths["embeddings"])] + TRAIN_FLAGS
    reused = tmp_path / "reused"
    shutil.copytree(run_dir, reused)
    # a train that fails before it writes leaves the old run whole
    _expect_failure(argv + ["--out-dir", str(reused), "--embeddings",
                            str(tmp_path / "nope.emb1")], capsys)
    assert RunDir(reused).config.seed == 5

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cosd.cpa, "save_checkpoint", disk_full)
    for out in (tmp_path / "run", reused):
        _expect_failure(argv + ["--out-dir", str(out), "--seed", "6"], capsys,
                        needle="disk full")
        assert (out / "lda").is_dir()
        assert not (out / "run.json").exists()
        _expect_failure(["eval", "--run", str(out)], capsys, needle="run.json")


def test_train_into_a_reused_dir_leaves_only_the_new_run(run_dir, synth_small,
                                                         tmp_path):
    root, paths = synth_small
    reused = tmp_path / "reused"
    shutil.copytree(run_dir, reused)  # --trials 2
    assert main(["eval", "--run", str(reused), "--split", "test"]) == 0
    # the files of a group the new run lacks
    shutil.copy(reused / "lda" / f"{SLUG}.none.lda1",
                reused / "lda" / "other.none.lda1")
    runs = {}
    for out in (reused, tmp_path / "fresh"):
        assert main(["train", "--dataset", "synthetic", "--data", str(root),
                     "--embeddings", str(paths["embeddings"]),
                     "--out-dir", str(out)] + TRAIN_FLAGS
                    + ["--trials", "1", "--seed", "11"]) == 0
        runs[out.name] = _run_files(out)
    assert set(runs["reused"]) == set(runs["fresh"])
    assert not (reused / "trial-2").exists()
    assert not list(reused.glob("report-test-*"))
    # these name the run directory or hold wall times
    for name in set(runs["fresh"]) - {"config.txt", "run.json",
                                      "timings.json"}:
        assert runs["reused"][name] == runs["fresh"][name], name


@pytest.mark.parametrize("flag", [["--epochs", "0"], ["--dropout", "1.0"],
                                  ["--hops", "-4"], ["--lr-cpa", "nan"],
                                  ["--seed", "-1"]])
def test_train_checks_its_config_before_loading_or_fitting(
        flag, synth_small, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr(cosd.cli, "load_semeval", never)
    monkeypatch.setattr(cosd.training, "load_embeddings", never)
    monkeypatch.setattr(cosd.topics, "fit_triples", never)
    root, paths = synth_small
    out = tmp_path / "r"
    _expect_failure(["train", "--dataset", "synthetic", "--data", str(root),
                     "--embeddings", str(paths["embeddings"]),
                     "--out-dir", str(out)] + TRAIN_FLAGS + flag, capsys,
                    needle=flag[0][2:].replace("-", "_"))
    assert not out.exists()


def test_train_checks_its_out_dir_before_loading_or_training(
        synth_small, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the out-dir was checked")

    monkeypatch.setattr(cosd.cli, "load_semeval", never)
    monkeypatch.setattr(cosd.training, "load_embeddings", never)
    monkeypatch.setattr(cosd.training, "train", never)
    root, paths = synth_small
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n", encoding="utf-8")
    # the out-dir itself, or a directory above it, is a file
    for out in (blocker, blocker / "run"):
        _expect_failure(["train", "--dataset", "synthetic", "--data",
                         str(root), "--embeddings", str(paths["embeddings"]),
                         "--out-dir", str(out)] + TRAIN_FLAGS, capsys,
                        needle=f"--out-dir {out}: {blocker} is not a "
                               f"directory")
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_trains_started_in_the_same_second_never_share_a_directory(
        synth_small, tmp_path, capsys, monkeypatch):
    root, paths = synth_small
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(time, "strftime", lambda *args: "20261020-084659")
    argv = ["train", "--dataset", "synthetic", "--data", str(root),
            "--embeddings", str(paths["embeddings"])] + TRAIN_FLAGS
    assert main(argv) == 0
    capsys.readouterr()
    first = tmp_path / "runs" / "20261020-084659-seed5"
    files = _run_files(first)

    def never(*args, **kwargs):
        raise AssertionError("loaded data into another run's directory")

    # the same seed in the same second names the same directory: the later
    # train stops before it loads anything, and the earlier run stays whole
    monkeypatch.setattr(cosd.cli, "load_semeval", never)
    err = _expect_failure(argv + ["--h", "3", "--trials", "1"], capsys,
                          needle="runs/20261020-084659-seed5 already exists")
    assert "--out-dir" in err
    assert _run_files(first) == files
    assert RunDir(first).config.trials == 2


def test_a_failed_auto_named_train_leaves_no_run_directory(
        synth_small, tmp_path, capsys, monkeypatch):
    # the timestamped directory is made before the data loads; a train
    # that fails after that removes it again, while a pinned --out-dir is
    # never touched
    root, paths = synth_small
    monkeypatch.chdir(tmp_path)
    _expect_failure(["train", "--dataset", "synthetic", "--data",
                     str(tmp_path / "missing"), "--embeddings", "x.emb1",
                     "--seed", "3"], capsys, needle="missing")
    assert list(tmp_path.glob("runs/*-seed3")) == []
    # so does one after the data has loaded
    _expect_failure(["train", "--dataset", "synthetic", "--data", str(root),
                     "--embeddings", "x.emb1", "--seed", "3"], capsys,
                    needle="x.emb1")
    assert list(tmp_path.glob("runs/*-seed3")) == []
    pinned = tmp_path / "pinned"
    pinned.mkdir()
    _expect_failure(["train", "--dataset", "synthetic", "--data",
                     str(tmp_path / "missing"), "--embeddings", "x.emb1",
                     "--out-dir", str(pinned)], capsys, needle="missing")
    assert pinned.is_dir()


def test_topics_rejects_a_negative_seed_flag(synth_small, capsys,
                                             monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr(cosd.cli, "load_semeval", never)
    root, _ = synth_small
    _expect_failure(["topics", "--dataset", "synthetic", "--data", str(root),
                     "--seed", "-2"], capsys, needle="seed >= 0")


@pytest.mark.parametrize("flag", [["--n-train", "0"], ["--n-val", "0"],
                                  ["--n-test", "0"], ["--gen-h", "0"],
                                  ["--words-per-topic", "0"],
                                  ["--noise", "-1"], ["--noise", "nan"],
                                  ["--noise", "inf"], ["--seed", "-3"]],
                         ids=["n_train", "n_val", "n_test", "gen_h",
                              "words_per_topic", "negative_noise",
                              "nan_noise", "inf_noise", "negative_seed"])
def test_synth_checks_its_flags_before_writing(flag, tmp_path, capsys):
    out = tmp_path / "corpus"
    _expect_failure(["synth", "--out", str(out)] + flag, capsys,
                    needle=flag[0][2:])
    assert not out.exists()


def test_topics_bad_h_range(synth_small, capsys):
    root, _ = synth_small
    _expect_failure(["topics", "--dataset", "synthetic", "--data", str(root),
                     "--h-range", "7:3"], capsys, needle="7:3")


@pytest.mark.parametrize("top_n", ["1", "0"])
def test_topics_checks_top_n_before_loading_or_fitting(top_n, synth_small,
                                                       capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before --top-n was checked")

    monkeypatch.setattr(cosd.cli, "load_semeval", never)
    monkeypatch.setattr(cosd.training, "fit_topics", never)
    root, _ = synth_small
    _expect_failure(["topics", "--dataset", "synthetic", "--data", str(root),
                     "--h-range", "2:3", "--top-n", top_n], capsys,
                    needle=f"--top-n >= 2, got {top_n}")


@pytest.mark.parametrize("parent", ["tmp", "missing", "a_file"])
def test_topics_checks_out_before_loading_or_fitting(parent, synth_small,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(cosd.cli, "load_semeval", never)
    monkeypatch.setattr(cosd.training, "fit_topics", never)
    root, _ = synth_small
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    # --out names a directory, or a file in a missing directory or under
    # a file
    out, want = ((tmp_path, f"--out {tmp_path} is a directory")
                 if parent == "tmp" else
                 (tmp_path / parent / "t.csv",
                  f"--out {tmp_path / parent / 't.csv'}: "
                  f"{tmp_path / parent} is not a directory"))
    assert main(["topics", "--dataset", "synthetic", "--data", str(root),
                 "--h-range", "2:2", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {want}\n")


@pytest.mark.parametrize("command", ["topics", "train"])
def test_zero_topic_word_prior_exits_2(command, synth_small, tmp_path,
                                       capsys):
    root, paths = synth_small
    argv = [command, "--dataset", "synthetic", "--data", str(root),
            "--alpha", "0.01", "--beta", "0", "--lda-sweeps", "50"]
    if command == "topics":
        argv += ["--h-range", "7:7"]
    else:
        argv += ["--embeddings", str(paths["embeddings"]), "--out-dir",
                 str(tmp_path / "r"), "--h", "7", "--trials", "1"]
    _expect_failure(argv, capsys, needle="beta > 0")


def test_inspect_unknown_group(run_dir, capsys):
    _expect_failure(["inspect", "--run", str(run_dir),
                     "--group", "Atheism"], capsys, needle="Atheism")


@pytest.mark.parametrize("command", ["eval", "predict", "inspect"])
@pytest.mark.parametrize("trial", ["0", "3", "-1"])
def test_trial_outside_the_run(run_dir, synth_small, tmp_path, capsys,
                               command, trial):
    root, _ = synth_small
    argv = [command, "--run", str(run_dir), "--trial", trial]
    if command == "predict":
        argv += ["--in", str(root / "test.tsv"), "--out",
                 str(tmp_path / "o.tsv")]
    _expect_failure(argv, capsys, needle=f"trial {trial} is not in")
    assert not (tmp_path / "o.tsv").exists()


def _cut_ids(meta):
    meta["ids"] = meta["ids"][:-5]


META_EDITS = {
    "no_ids": lambda meta: meta.pop("ids"),
    "no_stances": lambda meta: meta.pop("stances"),
    "unknown_stance": lambda meta: meta["stances"].__setitem__(0, "Bogus"),
    "cut_ids": _cut_ids,
    "long_stances": lambda meta: meta["stances"].append("Favor"),
    "ids_not_strings": lambda meta: meta["ids"].__setitem__(0, 7),
}


@pytest.mark.parametrize("edit", sorted(META_EDITS))
def test_inspect_rejects_bad_training_graph_files(run_dir, tmp_path, capsys,
                                                  edit):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    name = f"{SLUG}.meta.json"
    meta = json.loads((copy / "trial-1" / name).read_text(encoding="utf-8"))
    META_EDITS[edit](meta)
    (copy / "trial-1" / name).write_text(json.dumps(meta), encoding="utf-8")
    reps = tmp_path / "reps.txt"
    _expect_failure(["inspect", "--run", str(copy),
                     "--dump-final-reps", str(reps)], capsys, needle=name)
    assert not reps.exists()


def _run_reading(run_dir, path, tmp_path, key="data"):
    """A copy of run_dir whose run.json names path as the run's data (or
    as its embeddings)."""
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    doc = json.loads((copy / "run.json").read_text(encoding="utf-8"))
    doc[key] = str(path)
    (copy / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    return copy


def test_inspect_rejects_data_edited_after_training(run_dir, synth_small,
                                                    tmp_path, capsys):
    root, _ = synth_small
    data = tmp_path / "data"
    shutil.copytree(root, data)
    header, first, *rows = (data / "train.tsv").read_text(
        encoding="utf-8").splitlines()
    cells = first.split("\t")
    cells[3] = "AGAINST" if cells[3] != "AGAINST" else "FAVOR"
    (data / "train.tsv").write_text(
        "\n".join([header, "\t".join(cells), *rows]) + "\n",
        encoding="utf-8")
    copy = _run_reading(run_dir, data, tmp_path)
    _expect_failure(["inspect", "--run", str(copy)], capsys,
                    needle=f"{SLUG}.meta.json")


def _reshaped(ckpt, field):
    """ckpt with one more topic per stance ("h"), one more propagated
    column ("d1") or one more hop ("hops")."""
    h, d0, d1, hops = ckpt.h, ckpt.d0, ckpt.d1, ckpt.hops
    if field == "h":
        u = np.concatenate([ckpt.u, ckpt.u[:3]])
        return cosd.cpa.CpaModel(np.concatenate([u, ckpt.z]),
                                 ckpt.w1, ckpt.w2, h=h + 1)
    w1, w2 = cosd.cpa.init_cpa_weights(
        d0, d1 + (field == "d1"), hops + (field == "hops"), seed=0)
    return cosd.cpa.CpaModel(ckpt.side, w1, w2, h=h)


@pytest.mark.parametrize("field", ["h", "d1", "hops"])
def test_a_checkpoint_whose_shape_is_not_the_runs_exits_2(
        run_dir, synth_small, tmp_path, capsys, field):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / "trial-1" / f"{SLUG}.cpa1"
    cosd.cpa.save_checkpoint(
        path, _reshaped(cosd.cpa.load_checkpoint(path), field))
    run = ["--run", str(copy), "--trial", "1"]
    for mode in ("full", "no_sem", "no_dis"):
        for argv in (["eval", "--split", "test"],
                     ["predict", "--in", str(root / "test.tsv"),
                      "--out", str(tmp_path / "p.tsv")]):
            _expect_failure(argv + run + ["--mode", mode], capsys,
                            needle=f"{path}: H, d1 and hops")
    _expect_failure(["inspect"] + run, capsys, needle=str(path))



def test_a_topic_model_whose_h_is_not_the_runs_exits_2(run_dir, synth_small,
                                                       tmp_path, capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    (triple,) = cosd.topics.fit_triples([([["a", "b"], ["b", "c"]], [], [])],
                                        h=3, alpha=50.0 / 3, sweeps=2,
                                        seeds=[0])
    cosd.topics.save_lda(triple.favor, lda)
    run = ["--run", str(copy), "--trial", "1"]
    predict = ["predict", "--in", str(root / "test.tsv"),
               "--out", str(tmp_path / "p.tsv")]
    for mode in ("full", "no_sem"):
        for argv in (["eval", "--split", "test"], predict):
            _expect_failure(argv + run + ["--mode", mode], capsys,
                            needle=f"{lda}: H=3, but the run's config "
                                   f"gives H=2")
    # no_dis reads no topic model
    assert main(predict + run + ["--mode", "no_dis"]) == 0
    _expect_failure(["inspect"] + run, capsys, needle=str(lda))


def test_a_topic_model_of_another_vocabulary_exits_2(run_dir, synth_small,
                                                      tmp_path, capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lda = copy / "lda" / f"{SLUG}.none.lda1"
    (triple,) = cosd.topics.fit_triples([([["a", "b"], ["b", "c"]], [], [])],
                                        h=2, alpha=50.0 / 2, sweeps=2,
                                        seeds=[0])
    cosd.topics.save_lda(triple.favor, lda)
    run = ["--run", str(copy), "--trial", "1"]
    predict = ["predict", "--in", str(root / "test.tsv"),
               "--out", str(tmp_path / "p.tsv")]
    for mode in ("full", "no_sem"):
        for argv in (["eval", "--split", "test"], predict):
            _expect_failure(argv + run + ["--mode", mode], capsys,
                            needle=f"{lda}: vocabulary differs from the "
                                   f"group's favor model")
    assert main(predict + run + ["--mode", "no_dis"]) == 0
    _expect_failure(["inspect"] + run, capsys, needle=str(lda))


def _with_value(path, row, value):
    """path's checkpoint with value at the first column of table row `row`
    (topic rows, then label rows, then the weights)."""
    raw = bytearray(path.read_bytes())
    d0 = struct.unpack_from("<I", raw, 4)[0]
    struct.pack_into("<d", raw, 20 + 8 * d0 * row, value)
    path.write_bytes(bytes(raw))


def test_a_non_finite_checkpoint_table_exits_2(run_dir, synth_small,
                                               tmp_path, capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / "trial-1" / f"{SLUG}.cpa1"
    h = cosd.cpa.load_checkpoint(path).h
    # the first topic row, the last label row, the first weight
    for row in (0, 3 * h + 2, 3 * h + 3):
        shutil.copy(run_dir / "trial-1" / f"{SLUG}.cpa1", path)
        _with_value(path, row, np.inf)
        for argv in (["eval", "--split", "test"],
                     ["predict", "--in", str(root / "test.tsv"),
                      "--out", str(tmp_path / "p.tsv")],
                     ["inspect"]):
            _expect_failure(argv + ["--run", str(copy), "--trial", "1"],
                            capsys, needle=f"{path}: non-finite values")


def test_an_old_cpa1_checkpoint_exits_2(run_dir, synth_small, tmp_path,
                                        capsys):
    root, _ = synth_small
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / "trial-1" / f"{SLUG}.cpa1"
    ckpt = cosd.cpa.load_checkpoint(path)
    # the retired CPA1 layout: n_text in the header and a text table first
    n_text = 60
    header = struct.pack("<4sIIIII", b"CPA1", ckpt.d0, ckpt.d1, ckpt.hops,
                         ckpt.h, n_text)
    path.write_bytes(header + np.concatenate(
        [np.ones((n_text, ckpt.d0)).ravel(),
         *(a.ravel() for a in [ckpt.side, *ckpt.w1, *ckpt.w2])]).tobytes())
    for argv in (["eval", "--split", "test"],
                 ["predict", "--in", str(root / "test.tsv"),
                  "--out", str(tmp_path / "p.tsv")],
                 ["inspect"]):
        err = _expect_failure(argv + ["--run", str(copy), "--trial", "1"],
                              capsys)
        assert err == f"error: {path}: bad magic, not a CPA2 file\n"
    assert not (tmp_path / "p.tsv").exists()


def test_inspect_rebuilds_the_training_laplacian(run_dir):
    run = RunDir(run_dir)
    name = run.group(None)
    (data,), _ = training.build_groups(run.corpus(*Split), run.store,
                                       run.config)
    for trial in (1, 2):
        _, pool, lap = run.training_graph(name, trial)
        assert [ex.id for ex in pool] == [ex.id for ex in data.pool]
        assert np.array_equal(lap.to_text, data.lap.to_text)
        assert np.array_equal(lap.to_side, data.lap.to_side)


def test_train_rejects_targets_sharing_a_slug(synth_small, tmp_path, capsys):
    root, paths = synth_small
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "val", "test"):
        header, *rows = (root / f"{split}.tsv").read_text(
            encoding="utf-8").splitlines()
        rows = [row.replace("Synthetic Policy", "synthetic policy")
                if i % 2 else row for i, row in enumerate(rows)]
        (data / f"{split}.tsv").write_text("\n".join([header, *rows]) + "\n",
                                           encoding="utf-8")
    out = tmp_path / "run"
    _expect_failure(["train", "--dataset", "synthetic", "--data", str(data),
                     "--embeddings", str(paths["embeddings"]),
                     "--out-dir", str(out)] + TRAIN_FLAGS, capsys,
                    needle="share a file name")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "topics"])
def test_train_fails_on_a_target_without_training_texts_before_fitting(
        command, synth_small, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("fitted before every group's pool was checked")

    monkeypatch.setattr(cosd.topics, "fit_triples", never)
    root, paths = synth_small
    data = tmp_path / "data"
    shutil.copytree(root, data)
    # a val-only target, named to sort after the target with texts
    first = (root / "val.tsv").read_text(encoding="utf-8").splitlines()[1]
    ex_id, target, text, stance = first.split("\t")
    with open(data / "val.tsv", "a", encoding="utf-8") as fh:
        fh.write(f"lonely-1\tZz Lonely\t{text}\t{stance}\n")
    store = training.load_embeddings(paths["embeddings"])
    records = [*store.tokens.items(),
               ("lonely-1", *record_rows(store.tokens, ex_id)),
               *((f"target:{name}", vec)
                 for name, vec in store.targets.items()),
               ("target:Zz Lonely", store.targets[target]),
               *((f"label:{key}", vec) for key, vec in store.labels.items())]
    training.save_embeddings(data / "emb.emb1", records, dim=store.dim)
    out = tmp_path / "run"
    argv = [command, "--dataset", "synthetic", "--data", str(data)]
    if command == "train":
        argv += ["--embeddings", str(data / "emb.emb1"),
                 "--out-dir", str(out)] + TRAIN_FLAGS
    else:  # topics reports the groups train fits, and rejects the same
        argv += ["--h-range", "2:3", "--out", str(out)]
    _expect_failure(argv, capsys,
                    needle="group 'Zz Lonely' has no training texts")
    assert not out.exists()


@pytest.mark.parametrize("groups", [
    [{"name": "Synthetic Policy", "slug": "../../other/synthetic-policy"}],
    [{"name": "Synthetic Policy", "slug": "synthetic"}],
    [{"name": "Synthetic Policy", "slug": SLUG},
     {"name": "synthetic policy", "slug": SLUG}],
    [{"name": "Synthetic Policy", "slug": SLUG}] * 2,
    [],
], ids=["path", "not_the_slug", "shared_slug", "repeated", "empty"])
def test_run_dir_rejects_bad_group_slugs(run_dir, tmp_path, capsys, groups):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    doc = json.loads((copy / "run.json").read_text(encoding="utf-8"))
    doc["groups"] = groups
    (copy / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match="run.json"):
        RunDir(copy)
    _expect_failure(["eval", "--run", str(copy)], capsys, needle="run.json")


def test_predict_unknown_target(run_dir, tmp_path, capsys):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("ID\tTarget\tTweet\tStance\n"
                     "9001\tAliens\todd text here\tNONE\n", encoding="utf-8")
    _expect_failure(["predict", "--run", str(run_dir),
                     "--in", str(rogue), "--out", str(tmp_path / "o.tsv")],
                    capsys, needle="Aliens")


def test_eval_unknown_target(run_dir, synth_small, tmp_path, capsys):
    root, _ = synth_small
    data = tmp_path / "data"
    shutil.copytree(root, data)
    header, first, *rows = (data / "test.tsv").read_text(
        encoding="utf-8").splitlines()
    cells = first.split("\t")
    cells[1] = "Aliens"
    (data / "test.tsv").write_text(
        "\n".join([header, "\t".join(cells), *rows]) + "\n",
        encoding="utf-8")
    copy = _run_reading(run_dir, data, tmp_path)
    _expect_failure(["eval", "--run", str(copy), "--split", "test"], capsys,
                    needle="no trained group for target 'Aliens'")


def test_predict_text_without_embedding_record(run_dir, tmp_path, capsys):
    ghost = tmp_path / "ghost.tsv"
    ghost.write_text("ID\tTarget\tTweet\tStance\n"
                     "ghost-1\tSynthetic Policy\tsome words\tNONE\n",
                     encoding="utf-8")
    _expect_failure(["predict", "--run", str(run_dir),
                     "--in", str(ghost), "--out", str(tmp_path / "o.tsv")],
                    capsys, needle="ghost-1")


def test_predict_names_a_missing_target_record_of_a_joint_run(
        synth_small, tmp_path, capsys):
    # a joint run scores any target, so a target without a vector in the
    # embeddings reaches the semantic rows; the text's own record exists
    root, paths = synth_small
    run = tmp_path / "run"
    assert main(["train", "--dataset", "synthetic", "--data", str(root),
                 "--embeddings", str(paths["embeddings"]), "--out-dir",
                 str(run), "--joint"] + TRAIN_FLAGS) == 0
    capsys.readouterr()
    text_id = (root / "test.tsv").read_text(
        encoding="utf-8").splitlines()[1].split("\t")[0]
    rows = tmp_path / "other.tsv"
    rows.write_text("ID\tTarget\tTweet\tStance\n"
                    f"{text_id}\t{OTHER}\tsome words\tNONE\n",
                    encoding="utf-8")
    err = _expect_failure(["predict", "--run", str(run), "--in", str(rows),
                           "--out", str(tmp_path / "o.tsv")], capsys,
                          needle=f"missing embedding record for target "
                                 f"'{OTHER}'")
    assert text_id not in err


# --- topics command ---------------------------------------------------------------


def test_topics_table_and_csv(synth_small, tmp_path, capsys):
    root, _ = synth_small
    out = tmp_path / "sweep.csv"
    argv = ["topics", "--dataset", "synthetic", "--data", str(root),
            "--h-range", "2:3", "--lda-sweeps", "20", "--fold-in-sweeps",
            "10", "--seed", "6", "--top-n", "4", "--out", str(out)]
    assert main(argv) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 1 + 3 * 2  # header + stances x h values
    assert table[0].split() == ["group", "stance", "H", "perplexity",
                                "coherence"]
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "group,stance,h,perplexity,coherence"
    assert len(lines) == 1 + 6

    again = tmp_path / "sweep2.csv"
    assert main(argv[:-1] + [str(again)]) == 0
    capsys.readouterr()
    assert again.read_bytes() == out.read_bytes()


def test_topics_rows_score_the_models_train_fits(run_dir, synth_small,
                                               tmp_path, capsys):
    root, _ = synth_small
    out = tmp_path / "sweep.csv"
    # the flags of the run_dir fixture's train that topics reads
    assert main(["topics", "--dataset", "synthetic", "--data", str(root),
                 "--h-range", "2:2", "--lda-sweeps", "40",
                 "--fold-in-sweeps", "10", "--seed", "5", "--top-n", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in
            out.read_text(encoding="utf-8").strip().splitlines()[1:]]
    subsets = cosd.cli.stance_subsets(RunDir(run_dir).corpus(*Split),
                                      "Synthetic Policy")
    assert [row[1] for row in rows] == ["favor", "none", "against"]
    for row, examples in zip(rows, subsets):
        model = cosd.topics.load_lda(run_dir / "lda" / f"{SLUG}.{row[1]}.lda1")
        docs = [ex.tokens for ex in examples]
        (theta,) = cosd.topics.fold_in_sets([([model], docs)], 10).rows
        want = (cosd.topics.perplexity(model, docs, theta),
                cosd.topics.umass_coherence(model, docs, top_n=4))
        assert row == ["Synthetic Policy", row[1], "2",
                       f"{want[0]:.6f}", f"{want[1]:.6f}"]


# --- predict agrees with eval on interleaved targets -------------------------------


OTHER = "Other Policy"


def _train_two_targets(synth_small, data, other, extra=()):
    """The small synthetic corpus with every other row moved to the target
    named other, written to data and trained per target (or as extra train
    flags say) for one trial; returns the run directory."""
    root, paths = synth_small
    for split in ("train", "val", "test"):
        header, *rows = (root / f"{split}.tsv").read_text(
            encoding="utf-8").splitlines()
        lines = [header]
        for i, row in enumerate(rows):
            cells = row.split("\t")
            if i % 2:
                cells[1] = other
            lines.append("\t".join(cells))
        (data / f"{split}.tsv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    store = training.load_embeddings(paths["embeddings"])
    (target_vec,) = store.targets.values()
    records = list(store.tokens.items())
    records += [(f"target:{name}", target_vec)
                for name in ("Synthetic Policy", other)]
    records += [(f"label:{k}", store.labels[k]) for k in training.LABEL_KEYS]
    emb = data / "two.emb1"
    training.save_embeddings(emb, records, dim=store.dim)
    run = data / "run"
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--trials") + 1] = "1"
    assert main(["train", "--dataset", "synthetic", "--data", str(data),
                 "--embeddings", str(emb), "--out-dir", str(run)] + flags
                + list(extra)) == 0
    return run


@pytest.fixture(scope="module")
def two_target_run(tmp_path_factory, synth_small):
    data = tmp_path_factory.mktemp("two-target")
    return data, _train_two_targets(synth_small, data, OTHER)


def test_csv_outputs_quote_a_target_name_with_a_comma(tmp_path, synth_small,
                                                      capsys):
    name = "Trump, Donald"
    data = tmp_path / "data"
    data.mkdir()
    run = _train_two_targets(synth_small, data, name)
    assert main(["eval", "--run", str(run), "--split", "test"]) == 0
    topics_csv = tmp_path / "topics.csv"
    assert main(["topics", "--dataset", "synthetic", "--data", str(data),
                 "--h-range", "2:2", "--lda-sweeps", "10",
                 "--fold-in-sweeps", "5", "--top-n", "3",
                 "--out", str(topics_csv)]) == 0
    capsys.readouterr()
    with open(run / "report-test-full.csv", encoding="utf-8",
              newline="") as f:
        report = list(csv.DictReader(f))
    columns = ["run", "Synthetic Policy", name, "MacF", "MicF"]
    text = (run / "report-test-full.txt").read_text(encoding="utf-8")
    assert [list(row) for row in report] == [columns, columns]
    # the text report's cells, which hold no spaces after the header
    assert [[row["run"]] + [f"{float(row[c]):.4f}" for c in columns[1:]]
            for row in report] == [line.split()
                                   for line in text.splitlines()[1:]]
    with open(topics_csv, encoding="utf-8", newline="") as f:
        topic_rows = list(csv.DictReader(f))
    assert {row["group"] for row in topic_rows} == {"Synthetic Policy", name}
    for row in topic_rows:
        assert None not in row and row["h"] == "2"
        float(row["perplexity"]), float(row["coherence"])


@pytest.mark.parametrize("mode", ["full", "no_sem", "no_dis"])
@pytest.mark.parametrize("norm", [False, True])
def test_predict_labels_equal_eval_predictions(two_target_run, tmp_path,
                                               monkeypatch, mode, norm):
    data, run = two_target_run
    extra = ["--mode", mode] + (["--score-norm"] if norm else [])
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--run", str(run), "--in", str(data / "test.tsv"),
                 "--out", str(out)] + extra) == 0
    rows = [line.split("\t") for line in
            out.read_text(encoding="utf-8").strip().splitlines()[1:]]
    inputs = [line.split("\t") for line in
              (data / "test.tsv").read_text(encoding="utf-8")
              .strip().splitlines()[1:]]
    assert [r[0] for r in rows] == [r[0] for r in inputs]  # input order
    assert {r[1] for r in inputs} == {"Synthetic Policy", OTHER}

    # eval scores the split's texts in file order; record its predictions
    evaluated = []
    original = cosd.inference.mode_scores

    def recording(*args, **kwargs):
        scores = original(*args, **kwargs)
        evaluated.extend(label.value for label in scores.predicted)
        return scores

    monkeypatch.setattr(cosd.inference, "mode_scores", recording)
    assert main(["eval", "--run", str(run), "--split", "test"] + extra) == 0
    assert evaluated == [r[1] for r in rows]
    assert np.isfinite([float(x) for r in rows for x in r[2:]]).all()


def test_scoring_commands_fold_in_once(run_dir, two_target_run, tmp_path,
                                       monkeypatch):
    calls = []
    original = cosd.topics.fold_in_sets

    def counting(sets, sweeps=50):
        calls.append(sorted(len(docs) for _, docs in sets))
        return original(sets, sweeps)

    monkeypatch.setattr(cosd.topics, "fold_in_sets", counting)
    # one group, two trials: the fold-in does not depend on the trial
    assert main(["eval", "--run", str(run_dir), "--split", "test"]) == 0
    assert len(calls) == 1
    lines = (run_dir / "report-test-full.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 2 + 1  # header, two trials, mean

    # two groups: one fold-in over both groups' texts per command
    data, run = two_target_run
    calls.clear()
    assert main(["eval", "--run", str(run), "--split", "test"]) == 0
    assert main(["predict", "--run", str(run), "--in", str(data / "test.tsv"),
                 "--out", str(tmp_path / "preds.tsv")]) == 0
    n_test = len((data / "test.tsv").read_text(
        encoding="utf-8").strip().splitlines()) - 1
    assert len(calls) == 2
    assert calls[0] == calls[1] and len(calls[0]) == 2
    assert sum(calls[0]) == n_test


def test_topics_folds_every_subset_in_once_per_h(two_target_run, tmp_path,
                                                 capsys, monkeypatch):
    data, run = two_target_run
    calls = []
    original = cosd.topics.fold_in_sets

    def recording(sets, sweeps=50):
        calls.append((sets, sweeps))
        return original(sets, sweeps)

    monkeypatch.setattr(cosd.topics, "fold_in_sets", recording)
    out = tmp_path / "sweep.csv"
    assert main(["topics", "--dataset", "synthetic", "--data", str(data),
                 "--h-range", "2:3", "--lda-sweeps", "10",
                 "--fold-in-sweeps", "5", "--seed", "5", "--top-n", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # per H one call over both groups' three subsets, one model a set
    assert [len(sets) for sets, _ in calls] == [6, 6]
    assert {len(models) for sets, _ in calls for models, _ in sets} == {1}
    assert {sweeps for _, sweeps in calls} == {5}
    with open(out, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))[1:]

    # the oracle: each subset folded into its model alone
    dataset = RunDir(run).corpus(*Split)
    want = []
    for g, (name, target) in enumerate(training.group_keys(dataset, False)):
        subsets = cosd.cli.stance_subsets(dataset, target)
        for j, (key, texts) in enumerate(zip(training.LABEL_KEYS, subsets)):
            docs = [ex.tokens for ex in texts]
            for h, (sets, _) in zip((2, 3), calls):
                (model,), _ = sets[3 * g + j]
                assert model.h == h
                (theta,), _ = original([([model], docs)], 5)
                want.append([
                    name, key, str(h),
                    f"{cosd.topics.perplexity(model, docs, theta):.6f}",
                    f"{cosd.topics.umass_coherence(model, docs, 3):.6f}"])
    assert {row[0] for row in want} == {"Synthetic Policy", OTHER}
    assert rows == want


def test_run_dir_scores_interleaved_targets_in_input_order(two_target_run):
    _, path = two_target_run
    run = RunDir(path)
    texts = run.corpus(Split.TEST).examples
    assert [ex.target for ex in texts[:4]] == ["Synthetic Policy", OTHER] * 2
    for mode, norm in (("full", False), ("no_dis", True)):
        scores = _scores(run, texts, 1, mode, norm)
        assert len(scores.predicted) == len(texts)
        for name in run.groups:
            at = [i for i, ex in enumerate(texts) if ex.target == name]
            alone = _scores(run, [texts[i] for i in at], 1, mode, norm)
            for got, want in zip(scores, alone):
                if isinstance(want, list):
                    assert [got[i] for i in at] == want
                else:
                    assert np.array_equal(got[at], want)


def test_run_dir_rows_rejects_an_unknown_mode(run_dir):
    run = RunDir(run_dir)
    texts = run.corpus(Split.TEST).examples
    with pytest.raises(cosd.inference.InferenceError,
                       match="unknown mode 'nope'"):
        run.rows(texts, ["nope"])


def _oracle_scores(run, texts, trial, mode, norm):
    """Scores by the path that computes both sides for every mode, then
    zeros the side the mode drops."""
    n = len(texts)
    sem, dis = np.zeros((n, 3)), np.zeros((n, 3))
    for name, where, sem_rows, dis_rows in run.rows(texts, ["full"]):
        model = run.checkpoint(name, trial)
        slope = run.config.leaky_slope
        group_sem = cosd.inference.semantic_scores(sem_rows, model.z)
        group_dis = cosd.inference.distributed_scores(dis_rows, model, slope)
        if norm:
            group_sem = cosd.inference.zscore_rows(group_sem)
            group_dis = cosd.inference.zscore_rows(group_dis)
        if mode == "no_sem":
            group_sem = np.zeros_like(group_sem)
        elif mode == "no_dis":
            group_dis = np.zeros_like(group_dis)
        sem[where], dis[where] = group_sem, group_dis
    return cosd.inference.Scores(sem, dis,
                                 cosd.inference.argmax_labels(sem + dis))


@pytest.mark.parametrize("mode", ["full", "no_sem", "no_dis"])
@pytest.mark.parametrize("norm", [False, True])
def test_rows_of_a_mode_score_as_both_sides_zeroed(run_dir, two_target_run,
                                                   mode, norm):
    for path in (run_dir, two_target_run[1]):
        run = RunDir(path)
        texts = run.corpus(Split.TEST).examples
        got = _scores(run, texts, 1, mode, norm)
        want = _oracle_scores(run, texts, 1, mode, norm)
        for field in ("sem", "dis"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.predicted == want.predicted


def _eval_outputs(run, argv, capsys):
    """The stdout and the report files of one eval call on run, whose eval
    reports are removed before the call and after it."""
    for old in run.glob("report-*-*"):
        old.unlink()
    assert main(["eval", "--run", str(run)] + argv) == 0
    reports = {path.name: path.read_bytes()
               for path in run.glob("report-*-*")}
    for path in run.glob("report-*-*"):
        path.unlink()
    return capsys.readouterr().out, reports


@pytest.mark.parametrize("modes", [["full", "no_sem", "no_dis"],
                                   ["no_sem", "no_dis"]])
def test_a_multi_mode_eval_equals_its_single_mode_calls(
        run_dir, two_target_run, tmp_path, capsys, modes):
    for k, path in enumerate((run_dir, two_target_run[1])):
        run = tmp_path / f"run-{k}"
        shutil.copytree(path, run)
        for split in ("train", "val", "test"):
            for norm in ([], ["--score-norm"]):
                argv = ["--split", split] + norm
                out, reports = "", {}
                for mode in modes:
                    one_out, one_reports = _eval_outputs(
                        run, argv + ["--mode", mode], capsys)
                    out += one_out
                    reports.update(one_reports)
                assert len(reports) == 2 * len(modes)
                assert _eval_outputs(run, argv + ["--mode", *modes],
                                     capsys) == (out, reports)
        # a repeated mode is an error before anything is scored or written
        _expect_failure(["eval", "--run", str(run), "--mode", "full",
                         "full"], capsys, needle="--mode repeats a mode")
        assert not list(run.glob("report-*-*"))


def _count_calls(monkeypatch):
    """Calls per command of the loads and row builders a mode may skip."""
    calls = {}
    for module, name in ((cosd.topics, "fold_in_sets"),
                         (cosd.topics, "load_lda"),
                         (training, "load_embeddings"),
                         (training, "semantic_matrix")):
        def counting(*args, _name=name, _original=getattr(module, name),
                     **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("mode, skipped", [
    ("full", set()),
    ("no_dis", {"fold_in_sets", "load_lda"}),
    ("no_sem", {"load_embeddings", "semantic_matrix"}),
    ("no_sem no_dis", set()),
])
def test_scoring_commands_skip_the_side_their_mode_drops(
        run_dir, synth_small, tmp_path, monkeypatch, mode, skipped):
    root, _ = synth_small
    calls = _count_calls(monkeypatch)
    # one group: one triple of topic models, one call of everything else,
    # however many modes read them
    wanted = {"fold_in_sets": 1, "load_lda": 3, "load_embeddings": 1,
              "semantic_matrix": 1}
    commands = [["eval", "--run", str(run_dir), "--split", "test"]]
    if " " not in mode:  # predict takes one mode
        commands.append(["predict", "--run", str(run_dir), "--in",
                         str(root / "test.tsv"), "--out",
                         str(tmp_path / "p.tsv")])
    for argv in commands:
        calls.clear()
        assert main(argv + ["--mode", *mode.split()]) == 0
        assert calls == {name: count for name, count in wanted.items()
                         if name not in skipped}


def _run_without(run_dir, tmp_path, part):
    """A copy of run_dir whose EMB1 file ("embeddings") or topic models
    ("lda") are gone."""
    if part == "lda":
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        shutil.rmtree(copy / "lda")
        return copy, copy / "lda"
    gone = tmp_path / "removed.emb1"
    return _run_reading(run_dir, gone, tmp_path, "embeddings"), gone


@pytest.mark.parametrize("part, mode", [("embeddings", "no_sem"),
                                        ("lda", "no_dis")])
def test_an_ablation_runs_without_the_inputs_of_the_side_it_drops(
        run_dir, synth_small, tmp_path, capsys, part, mode):
    root, _ = synth_small
    copy, gone = _run_without(run_dir, tmp_path, part)
    commands = (["eval", "--run", str(copy), "--split", "test"],
                ["predict", "--run", str(copy), "--in",
                 str(root / "test.tsv"), "--out", str(tmp_path / "p.tsv")])
    for argv in commands:
        assert main(argv + ["--mode", mode]) == 0
        _expect_failure(argv + ["--mode", "full"], capsys, needle=str(gone))


def test_predict_rejects_a_repeated_id_before_loading(run_dir, synth_small,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    root, _ = synth_small
    header, first, second, *rows = (root / "test.tsv").read_text(
        encoding="utf-8").splitlines()
    dup = first.split("\t")[0]
    repeat = second.split("\t")
    repeat[0] = dup
    repeat[2] = "another text entirely"
    infile = tmp_path / "repeated.tsv"
    infile.write_text("\n".join([header, first, second, *rows, "",
                                 "\t".join(repeat)]) + "\n",
                      encoding="utf-8")
    calls = _count_calls(monkeypatch)
    err = _expect_failure(["predict", "--run", str(run_dir), "--in",
                           str(infile), "--out", str(tmp_path / "p.tsv")],
                          capsys)
    # the blank line counts: the repeat sits on the file's last line
    last = len(rows) + 5
    assert f"{infile}:{last}: duplicate example id " in err
    assert f"{dup!r}, first on line 2" in err
    assert calls == {}
    assert not (tmp_path / "p.tsv").exists()


def test_log_val_micf_per_mode_equals_eval_at_the_best_epoch(run_dir):
    meta = json.loads((run_dir / "trial-1" / f"{SLUG}.meta.json").read_text(
        encoding="utf-8"))
    header, *rows = (run_dir / "trial-1" / f"{SLUG}.log.csv").read_text(
        encoding="utf-8").strip().splitlines()
    best = dict(zip(header.split(","), rows[meta["best_epoch"] - 1].split(",")))
    assert main(["eval", "--run", str(run_dir), "--split", "val",
                 "--trial", "1", "--mode", "full", "no_sem", "no_dis"]) == 0
    for mode, column in (("full", "val_micf"), ("no_sem", "val_micf_no_sem"),
                         ("no_dis", "val_micf_no_dis")):
        report = (run_dir / f"report-val-{mode}.csv").read_text(
            encoding="utf-8").strip().splitlines()
        assert report[1].split(",")[-1] == best[column]


def test_scoring_reads_only_the_records_it_scores(run_dir, synth_small,
                                                  tmp_path, monkeypatch):
    root, _ = synth_small
    reads = []
    original = training.TokenRows._fill

    def recording(self, src, rec_id, out=None):
        reads.append(rec_id)
        return original(self, src, rec_id, out)

    monkeypatch.setattr(training.TokenRows, "_fill", recording)
    out = tmp_path / "p.tsv"
    assert main(["predict", "--run", str(run_dir), "--in",
                 str(root / "test.tsv"), "--out", str(out)]) == 0
    test_ids = [line.split("\t")[0] for line in
                out.read_text(encoding="utf-8").splitlines()[1:]]
    assert sorted(reads) == sorted(test_ids)
    reads.clear()
    # eval scores both trials from one read of each record
    assert main(["eval", "--run", str(run_dir), "--split", "val"]) == 0
    val = RunDir(run_dir).corpus(Split.VAL).examples
    assert sorted(reads) == sorted(ex.id for ex in val)


def _record_offsets(emb):
    """Record id -> byte offset of each record of an EMB1 file."""
    raw = emb.read_bytes()
    count, dim = struct.unpack_from("<II", raw, 4)
    at, offsets = 12, {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", raw, at)
        (t,) = struct.unpack_from("<I", raw, at + 4 + n)
        offsets[raw[at + 4:at + 4 + n].decode("utf-8")] = at
        at += 8 + n + 4 * dim * t
    return offsets


def test_scoring_holds_one_record_besides_the_rows_it_builds(
        run_dir, synth_small, tmp_path):
    _, paths = synth_small
    store = training.load_embeddings(paths["embeddings"])
    # unscored records of 7.9 MB, far more than the bound below
    padded = tmp_path / "padded.emb1"
    training.save_embeddings(padded, [
        *store.tokens.items(),
        *((f"target:{name}", vec) for name, vec in store.targets.items()),
        *((f"label:{key}", vec) for key, vec in store.labels.items()),
        *((f"pad-{i}", np.ones((64, store.dim))) for i in range(40))],
        dim=store.dim)
    texts = RunDir(run_dir).corpus(Split.TEST).examples
    largest = max(rows.nbytes for rows in
                  record_rows(store.tokens, *(ex.id for ex in texts)))
    for emb in (paths["embeddings"], padded):
        run = RunDir(_run_reading(run_dir, emb, tmp_path / emb.stem,
                                  "embeddings"))
        tracemalloc.start()
        try:
            rows = run.rows(texts, ["no_dis"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        built = sum(sem.nbytes for _, _, sem, _ in rows)
        # one record's float32 rows and their float64 copy; 128 KiB for
        # the index, the pooled target and label vectors and file buffers
        assert peak <= built + 3 * largest + 2**17, emb


def test_train_reads_no_test_record(synth_small, tmp_path, capsys):
    root, paths = synth_small
    test_id = read_splits(root, [Split.TEST]).examples[0].id
    raw = bytearray(paths["embeddings"].read_bytes())
    at = _record_offsets(paths["embeddings"])[test_id]
    # the record's first value follows its id and its row count
    struct.pack_into("<f", raw, at + 8 + len(test_id.encode("utf-8")),
                     np.nan)
    emb = tmp_path / "nan.emb1"
    emb.write_bytes(bytes(raw))
    run = tmp_path / "run"
    assert main(["train", "--dataset", "synthetic", "--data", str(root),
                 "--embeddings", str(emb), "--out-dir", str(run)]
                + TRAIN_FLAGS) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--split", "val"]) == 0
    capsys.readouterr()
    err = _expect_failure(["eval", "--run", str(run), "--split", "test"],
                          capsys)
    assert err == (f"error: {emb}: record {test_id!r} has non-finite values "
                   f"at byte {at}\n")


def test_a_repeated_label_record_exits_2(run_dir, synth_small, tmp_path,
                                         capsys):
    root, paths = synth_small
    raw = paths["embeddings"].read_bytes()
    count, dim = struct.unpack_from("<II", raw, 4)
    again = (struct.pack("<I", len(b"label:favor")) + b"label:favor"
             + struct.pack("<I", 1) + np.ones(dim, dtype="<f4").tobytes())
    emb = tmp_path / "again.emb1"
    emb.write_bytes(raw[:4] + struct.pack("<II", count + 1, dim) + raw[12:]
                    + again)
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    doc = json.loads((copy / "run.json").read_text(encoding="utf-8"))
    doc["embeddings"] = str(emb)
    (copy / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    _expect_failure(["predict", "--run", str(copy), "--in",
                     str(root / "test.tsv"), "--out", str(tmp_path / "p.tsv")],
                    capsys, needle=f"duplicate record 'label:favor' at byte "
                                   f"{len(raw)}")


# --- eval reads only the files of its split ----------------------------------------


def test_eval_of_the_test_split_reads_test_tsv_alone(run_dir, synth_small,
                                                    tmp_path, capsys):
    root, _ = synth_small
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(root / "test.tsv", data / "test.tsv")
    copy = _run_reading(run_dir, data, tmp_path)
    for mode in ("full", "no_sem", "no_dis"):
        for run in (run_dir, copy):
            assert main(["eval", "--run", str(run), "--split", "test",
                         "--mode", mode]) == 0
        for ext in ("txt", "csv"):
            name = f"report-test-{mode}.{ext}"
            assert (copy / name).read_bytes() == (run_dir / name).read_bytes()
    capsys.readouterr()
    # with no val.tsv the val split is carved from train.tsv
    _expect_failure(["eval", "--run", str(copy), "--split", "val"], capsys,
                    needle=str(data / "train.tsv"))


def test_eval_of_a_carved_split_equals_a_report_over_the_full_load(
        synth_small, tmp_path, capsys):
    root, paths = synth_small
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.tsv", "test.tsv"):
        shutil.copy(root / name, data / name)
    path = tmp_path / "run"
    assert main(["train", "--dataset", "semeval", "--data", str(data),
                 "--embeddings", str(paths["embeddings"]),
                 "--out-dir", str(path)] + TRAIN_FLAGS) == 0
    run = RunDir(path)
    dataset = load_semeval(data, seed=run.config.seed)
    assert dataset.val_carved
    for split in (Split.VAL, Split.TRAIN):
        name = split.name.lower()
        assert main(["eval", "--run", str(path), "--split", name]) == 0
        texts = dataset.split(split)
        assert texts
        rows = run.rows(texts)
        want = metrics.trial_report(
            [cosd.inference.mode_scores(*run.score(rows, trial),
                                        "full").predicted
             for trial in (1, 2)],
            [ex.stance for ex in texts], [ex.target for ex in texts],
            dataset.targets, [1, 2])
        got = tuple((path / f"report-{name}-full.{ext}").read_text(
            encoding="utf-8") for ext in ("txt", "csv"))
        assert got == want
    capsys.readouterr()
    # training scored the same carved val split
    assert ((path / "report-val.txt").read_bytes()
            == (path / "report-val-full.txt").read_bytes())


def test_a_joint_report_has_a_column_for_a_target_its_split_lacks(
        synth_small, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    run = _train_two_targets(synth_small, data, OTHER, ["--joint"])
    assert RunDir(run).targets == [OTHER, "Synthetic Policy"]
    header, *rows = (data / "test.tsv").read_text(
        encoding="utf-8").splitlines()
    kept = [row for row in rows if row.split("\t")[1] != OTHER]
    (data / "test.tsv").write_text("\n".join([header, *kept]) + "\n",
                                   encoding="utf-8")
    assert main(["eval", "--run", str(run), "--split", "test"]) == 0
    capsys.readouterr()
    with open(run / "report-test-full.csv", encoding="utf-8",
              newline="") as f:
        report = list(csv.DictReader(f))
    assert [row["run"] for row in report] == ["trial-1", "mean"]
    for row in report:
        assert list(row) == ["run", OTHER, "Synthetic Policy", "MacF",
                             "MicF"]
        assert row[OTHER] == "0.000000"
        # MacF averages only the targets with texts
        assert row["MacF"] == row["Synthetic Policy"]


def _with_bad_byte(src, dst, line):
    """src's bytes with 0xff put at the start of line `line`, written to
    dst."""
    lines = src.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    dst.write_bytes(b"\n".join(lines))
    return dst


def test_invalid_utf8_input_exits_2_naming_file_and_line(
        run_dir, synth_small, tmp_path, capsys):
    root, paths = synth_small
    bad = _with_bad_byte(root / "test.tsv", tmp_path / "bad.tsv", 3)
    _expect_failure(["predict", "--run", str(run_dir), "--in", str(bad),
                     "--out", str(tmp_path / "p.tsv")], capsys,
                    needle=f"{bad}:3: invalid UTF-8")
    assert not (tmp_path / "p.tsv").exists()

    data = tmp_path / "data"
    shutil.copytree(root, data)
    _with_bad_byte(root / "test.tsv", data / "test.tsv", 4)
    copy = _run_reading(run_dir, data, tmp_path)
    _expect_failure(["eval", "--run", str(copy), "--split", "test"], capsys,
                    needle=f"{data / 'test.tsv'}:4: invalid UTF-8")

    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"h = 2\n# caf\xe9 in Latin-1\nepochs = 1\n")
    _expect_failure(["train", "--config", str(cfg), "--data", str(root),
                     "--embeddings", str(paths["embeddings"]),
                     "--out-dir", str(tmp_path / "r")], capsys,
                    needle=f"{cfg}:2: invalid UTF-8")
    assert not (tmp_path / "r").exists()
