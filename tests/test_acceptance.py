"""Acceptance gate: eight criteria with pinned tolerances and budgets.

Each test computes its verdict, prints one [PASS]/[FAIL] line straight to
the terminal (bypassing capture), and then asserts. Criteria 5-7 share one
full training run on the generated benchmark via a module fixture.
"""

import time
from collections import Counter

import numpy as np
import pytest

from conftest import (SEMEVAL_TABLE, UKP_TABLE, fit_checking_sweeps,
                      greedy_match_tv, planted_corpus)
from cosd import inference, synth
from cosd.cli import main
from cosd.corpus import LABELS, Split, Vocabulary, load_semeval
from cosd.cpa import (Buffers, CpaModel, batch_loss, init_cpa_weights,
                      propagate)
from cosd.graph import laplacian
from cosd.metrics import Stance, macro_micro
from cosd.topics import _fit
from cosd.training import (RunConfig, fold_in_matrix, load_embeddings,
                           semantic_matrix, train)
from tape import one_hop_message


def _verdict(capsys, num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _unit_bipartite(rng, n_text, n_side):
    mask = rng.random((n_text, n_side)) < 0.5
    for i in range(n_text):
        if not mask[i].any():
            mask[i, rng.integers(0, n_side)] = True
    m = mask.astype(float)
    adj = np.zeros((n_text + n_side, n_text + n_side))
    adj[:n_text, n_text:] = mask
    adj[n_text:, :n_text] = mask.T
    return m, adj


def test_criterion_1_node_form_equivalence(capsys):
    """Matrix propagation == literal per-node message recursion."""
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        n_text = int(rng.integers(2, 7))
        # the side rows are [U; Z]: H = 1, or 2 while n stays at most 12
        h = int(rng.integers(1, 3)) if n_text <= 3 else 1
        n_side = 3 * h + 3
        hops = trial % 3 + 1
        m, adj = _unit_bipartite(rng, n_text, n_side)
        lap = laplacian(m)
        n = n_text + n_side
        e0 = rng.standard_normal((n, 6))
        weights = init_cpa_weights(d0=6, d1=5, hops=hops, seed=trial)
        reps = propagate(e0[:n_text], CpaModel(e0[n_text:], *weights, h=h),
                         lap)
        layers = [reps[:, 6 + 5 * k:11 + 5 * k] for k in range(hops)]

        deg = adj.sum(axis=1)
        prev = e0
        for k in range(hops):
            w1, w2 = weights[0][k], weights[1][k]
            nxt = np.zeros((n, w1.shape[1]))
            for e in range(n):
                acc = prev[e] @ w1
                for i in range(n):
                    if adj[e, i] != 0:
                        acc = acc + adj[e, i] * one_hop_message(
                            prev[e], prev[i], deg[e], deg[i], w1, w2)
                nxt[e] = np.where(acc > 0, acc, 0.01 * acc)
            rel = (np.abs(layers[k] - nxt).max()
                   / max(np.abs(nxt).max(), 1e-12))
            worst = max(worst, rel)
            prev = nxt
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _verdict(capsys, 1, "matrix form == per-node recursion", ok,
             f"50 graphs, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradients_match_finite_differences(capsys):
    """Hand-derived grads vs central differences on the full loss."""
    t0 = time.perf_counter()
    seed = 6  # keeps pre-activations and gradients away from zero
    rng = np.random.default_rng(seed)
    n_text, h, d0, d1, hops = 6, 2, 8, 5, 3
    n_side = 3 * h + 3
    m, _ = _unit_bipartite(rng, n_text, n_side)
    lap = laplacian(m)
    e0 = rng.standard_normal((n_text + n_side, d0))
    weights = init_cpa_weights(d0=d0, d1=d1, hops=hops, seed=seed + 1)
    # the text rows are data; the side rows [U; Z] train
    model = CpaModel(side=e0[n_text:].copy(), w1=weights[0], w2=weights[1],
                     h=h)
    buffers = Buffers(e0[:n_text], model)
    gold = np.array([0, 1, 2, 0, 1, 2])

    def full_loss():
        return batch_loss(model, buffers, lap, gold)

    # kink margin: h = 1e-5 perturbations cannot cross an activation zero
    dense = np.zeros((lap.rows, lap.rows))
    dense[:n_text, n_text:] = lap.to_text
    dense[n_text:, :n_text] = lap.to_side.T
    prev, margin = e0, np.inf
    for k in range(hops):
        agg = dense @ prev
        pre = ((prev + agg) @ weights[0][k]
               + (prev * agg) @ weights[1][k])
        margin = min(margin, np.abs(pre).min())
        prev = np.where(pre > 0, pre, 0.01 * pre)

    tensors = [model.side] + model.w1 + model.w2
    step = full_loss()
    # the gradients are views into buffers, which each call overwrites
    grads = [g.copy() for g in [step.g_side, *step.g_w1, *step.g_w2]]
    h_fd = 1e-5
    worst, n_params = 0.0, 0
    for t, g in zip(tensors, grads):
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = t[idx]
            t[idx] = keep + h_fd
            up = full_loss().loss
            t[idx] = keep - h_fd
            down = full_loss().loss
            t[idx] = keep
            fd = (up - down) / (2 * h_fd)
            mag = max(abs(fd), abs(g[idx]))
            if mag > 0:
                worst = max(worst, abs(fd - g[idx]) / mag)
            n_params += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and margin > 1e-3 and elapsed < 30.0
    _verdict(capsys, 2, "autodiff matches central differences", ok,
             f"{n_params} params over {len(tensors)} tensors, "
             f"worst rel {worst:.2e}, kink margin {margin:.1e}, {elapsed:.2f}s")


def test_criterion_3_planted_topic_recovery(capsys):
    """The CVB0 fit recovers planted topics; expected counts conserved."""
    t0 = time.perf_counter()
    docs, phi_true = planted_corpus(n_topics=3, n_docs=300, vocab_size=50,
                                    seed=42)
    total_tokens = sum(len(d) for d in docs)
    vocab = Vocabulary.from_docs(docs)
    conserved = []

    def check(sweep, n_k, gamma):
        # expected counts are float sums, exact to rounding only
        conserved.append(bool((gamma >= 0).all()) and abs(
            float(n_k.sum()) - total_tokens) <= 1e-9 * total_tokens)

    (model,) = fit_checking_sweeps(check, [docs], [vocab], 3, 50.0 / 3, 0.01,
                                   500, [42])
    tvs = greedy_match_tv(model.phi(), phi_true)
    elapsed = time.perf_counter() - t0
    # the fit sweeps until the model stops at its fixed point or the cap
    ok = (max(tvs) <= 0.15 and len(conserved) == model.trained_sweeps
          and all(conserved) and elapsed < 30.0)
    # a report beside the verdict: the same fit from five seeds
    others = [_fit([docs], [vocab], 3, 50.0 / 3, 0.01, 500, [seed])[0]
              for seed in range(43, 47)]
    spread = [max(tvs)] + [max(greedy_match_tv(m.phi(), phi_true))
                           for m in others]
    stops = "/".join(str(m.trained_sweeps) for m in [model, *others])
    _verdict(capsys, 3, "planted-topic recovery", ok,
             f"max greedy TV {max(tvs):.3f} (fit seeds 42-46: "
             f"{min(spread):.3f}-{max(spread):.3f}, stopped at sweeps "
             f"{stops} of 500), counts conserved over {len(conserved)} "
             f"sweeps, {elapsed:.2f}s")


def test_criterion_4_metric_oracle(capsys):
    """Hand-worked confusion case and perfect predictions."""
    t0 = time.perf_counter()
    F, A, N = Stance.FAVOR, Stance.AGAINST, Stance.NONE
    golds = [F, F, A, A, N]
    preds = [F, A, A, N, N]
    # favor: p=1, r=1/2 -> 2/3; against: p=r=1/2 -> 1/2; mean 7/12
    got = macro_micro(preds, golds, ["t"] * 5)[1]
    exact = got == (2.0 / 3.0 + 1.0 / 2.0) / 2.0
    near_rational = abs(got - 7.0 / 12.0) <= 2 ** -52
    perfect = macro_micro(golds, golds, ["t"] * 5) == (1.0, 1.0)
    elapsed = time.perf_counter() - t0
    ok = exact and near_rational and perfect and elapsed < 1.0
    _verdict(capsys, 4, "metric oracle", ok,
             f"F_avg {got:.12f} == 7/12, perfect -> (1.0, 1.0), "
             f"{elapsed:.3f}s")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """One full run on the generated benchmark, scored in all three modes."""
    out = tmp_path_factory.mktemp("acceptance") / "synth"
    t0 = time.perf_counter()
    paths = synth.make_synthetic(out, seed=13, n_train=600, n_val=150,
                                 n_test=150, h=3, words_per_topic=8,
                                 noise=0.3)
    dataset = load_semeval(out, seed=13)
    store = load_embeddings(paths["embeddings"])
    target = dataset.targets[0]
    config = RunConfig(dataset="synthetic", epochs=10, h=3, seed=17,
                       trials=1, lda_sweeps=300)
    result = train(dataset, store, config)

    (group,) = result.groups
    triple = group.triple
    ckpt = result.trials[0][target].checkpoint
    test_ex = dataset.split(Split.TEST)
    sem = inference.semantic_scores(semantic_matrix(test_ex, store), ckpt.z)
    (dis_mat,) = fold_in_matrix([(triple, test_ex)]).rows
    dis = inference.distributed_scores(dis_mat, ckpt)
    elapsed = time.perf_counter() - t0

    golds = [ex.stance for ex in test_ex]
    targets = [ex.target for ex in test_ex]

    def micf(mode):
        preds = inference.mode_scores(sem, dis, mode).predicted
        return macro_micro(preds, golds, targets)[1]

    majority = Counter(ex.stance for ex in dataset.train_pool()).most_common(1)[0][0]
    return {
        **{mode: micf(mode) for mode in inference.MODES},
        "baseline": macro_micro([majority] * len(golds), golds, targets)[1],
        "elapsed": elapsed,
        "epochs": config.epochs,
    }


def test_criterion_5_end_to_end_learnability(capsys, e2e):
    ok = (e2e["full"] >= 0.9 and e2e["epochs"] <= 50
          and e2e["baseline"] < 0.5 and e2e["elapsed"] < 120.0)
    _verdict(capsys, 5, "synthetic end-to-end learnability", ok,
             f"test MicF {e2e['full']:.4f} >= 0.9 in {e2e['epochs']} epochs, "
             f"majority baseline {e2e['baseline']:.4f}, "
             f"{e2e['elapsed']:.1f}s")


def test_criterion_6_ablation_ordering(capsys, e2e):
    best_ablation = max(e2e["no_sem"], e2e["no_dis"])
    ok = e2e["full"] >= best_ablation - 0.02
    _verdict(capsys, 6, "full mode beats both ablations", ok,
             f"full {e2e['full']:.4f} vs no_sem {e2e['no_sem']:.4f} / "
             f"no_dis {e2e['no_dis']:.4f}")


def test_criterion_7_byte_identical_reports(capsys, synth_small,
                                            tmp_path_factory):
    t0 = time.perf_counter()
    root, paths = synth_small
    base = tmp_path_factory.mktemp("determinism")
    flags = ["--dataset", "synthetic", "--data", str(root),
             "--embeddings", str(paths["embeddings"]),
             "--h", "2", "--lda-sweeps", "40", "--epochs", "3",
             "--trials", "2", "--seed", "5"]
    outputs = []
    for run in ("a", "b"):
        run_dir = base / run
        assert main(["train", "--out-dir", str(run_dir)] + flags) == 0
        outputs.append(tuple(
            (run_dir / name).read_bytes()
            for name in ("report-val.txt", "report-val.csv",
                         "trial-1/synthetic-policy.log.csv",
                         "trial-2/synthetic-policy.cpa1")))
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1]
    _verdict(capsys, 7, "identical seed -> byte-identical reports", ok,
             f"2 runs, {len(outputs[0])} artifacts compared, {elapsed:.1f}s")


def test_criterion_8_dataset_fidelity(capsys, semeval_dataset, ukp_dataset):
    def by_stance(examples):
        counts = Counter(ex.stance for ex in examples)
        return tuple(counts.get(label, 0) for label in LABELS)

    mismatches = []
    for target, table in SEMEVAL_TABLE.items():
        if by_stance(semeval_dataset.train_pool(target)) != table["train"]:
            mismatches.append(("semeval", target, "train"))
        if by_stance(semeval_dataset.split(Split.TEST, target)) != table["test"]:
            mismatches.append(("semeval", target, "test"))
    for topic, table in UKP_TABLE.items():
        for split_name, split in (("train", Split.TRAIN), ("val", Split.VAL),
                                  ("test", Split.TEST)):
            if by_stance(ukp_dataset.split(split, topic)) != table[split_name]:
                mismatches.append(("ukp", topic, split_name))

    sem_train = len(semeval_dataset.train_pool())
    sem_test = len(semeval_dataset.split(Split.TEST))
    ukp_train = len(ukp_dataset.split(Split.TRAIN))
    ukp_test = len(ukp_dataset.split(Split.TEST))
    totals_ok = (sem_train, sem_test, ukp_train, ukp_test) == (
        2914, 1249, 18341, 5109)
    ok = not mismatches and totals_ok
    _verdict(capsys, 8, "loader counts match the published tables", ok,
             f"semeval {sem_train}/{sem_test}, ukp {ukp_train}/{ukp_test}, "
             f"{len(mismatches)} cell mismatches")
