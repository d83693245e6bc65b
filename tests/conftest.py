"""Shared fixtures: benchmark-shaped corpora and a small synthetic run.

The corpus fixtures reproduce the official per-target per-stance counts
exactly (the loaders are required to recover every one of them); texts are
filler with enough variety for tokenizer and LDA smoke tests.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from cosd import topics

# target -> split -> (favor, none, against)
SEMEVAL_TABLE = {
    "Atheism": {"train": (92, 117, 304), "test": (32, 28, 160)},
    "Climate Change is a real Concern": {"train": (212, 168, 15),
                                         "test": (123, 35, 11)},
    "Feminist Movement": {"train": (210, 126, 328), "test": (58, 44, 183)},
    "Hillary Clinton": {"train": (118, 178, 393), "test": (45, 78, 172)},
    "Legalization of Abortion": {"train": (121, 177, 355),
                                 "test": (46, 45, 189)},
}

UKP_TABLE = {
    "abortion": {"train": (490, 1746, 591), "val": (54, 195, 66),
                 "test": (136, 486, 165)},
    "cloning": {"train": (508, 1075, 604), "val": (56, 120, 67),
                "test": (142, 299, 168)},
    "death penalty": {"train": (316, 1522, 789), "val": (38, 165, 90),
                      "test": (103, 396, 232)},
    "gun control": {"train": (566, 1359, 479), "val": (63, 152, 53),
                    "test": (158, 378, 133)},
    "marijuana legalization": {"train": (422, 908, 450), "val": (47, 101, 50),
                               "test": (118, 253, 126)},
    "minimum wage": {"train": (414, 968, 396), "val": (46, 108, 44),
                     "test": (116, 270, 111)},
    "nuclear energy": {"train": (436, 1524, 613), "val": (48, 170, 68),
                       "test": (122, 424, 171)},
    "school uniforms": {"train": (392, 1248, 525), "val": (44, 139, 58),
                        "test": (109, 347, 146)},
}

SEMEVAL_STANCES = ("FAVOR", "NONE", "AGAINST")
UKP_STANCES = ("Argument_for", "NoArgument", "Argument_against")

_FILLER = [
    "the committee believes this policy helps everyone in the long run",
    "nobody should trust these claims without better evidence #skeptic",
    "we marched downtown today and the crowd kept growing",
    "honestly the debate last night changed my view completely",
    "new report says costs will rise again http://example.com/report",
    "stop pretending this issue is simple @somebody it never was",
    "science gives us the tools, courage gives us the will",
    "my grandmother always said fairness starts at the kitchen table",
    "another rally another round of empty promises from both sides",
    "read the fine print before you celebrate this so called victory",
]


def _text(rng: random.Random, i: int) -> str:
    return f"{_FILLER[rng.randrange(len(_FILLER))]} case{i}"


def write_semeval_fixture(root) -> None:
    rng = random.Random(1234)
    serial = 0
    for split in ("train", "test"):
        lines = ["ID\tTarget\tTweet\tStance"]
        for target, table in SEMEVAL_TABLE.items():
            for stance, count in zip(SEMEVAL_STANCES, table[split]):
                for _ in range(count):
                    lines.append(
                        f"{10001 + serial}\t{target}\t{_text(rng, serial)}\t{stance}")
                    serial += 1
        (root / f"{split}.tsv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")


def write_ukp_fixture(root) -> None:
    rng = random.Random(4321)
    serial = 0
    for topic, table in UKP_TABLE.items():
        lines = ["topic\tretrievedUrl\tarchivedUrl\tsentenceHash"
                 "\tsentence\tannotation\tset"]
        for split in ("train", "val", "test"):
            for stance, count in zip(UKP_STANCES, table[split]):
                for _ in range(count):
                    lines.append(
                        f"{topic}\thttp://src.example/{serial}\thttp://arch.example/{serial}"
                        f"\thash{serial:06d}\t{_text(rng, serial)}\t{stance}\t{split}")
                    serial += 1
        name = topic.replace(" ", "_") + ".tsv"
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def semeval_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("semeval")
    write_semeval_fixture(root)
    return root


@pytest.fixture(scope="session")
def ukp_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ukp")
    write_ukp_fixture(root)
    return root


@pytest.fixture(scope="session")
def semeval_dataset(semeval_dir):
    from cosd.corpus import load_semeval

    return load_semeval(semeval_dir, seed=7)


@pytest.fixture(scope="session")
def ukp_dataset(ukp_dir):
    from cosd.corpus import load_ukp

    return load_ukp(ukp_dir)


@pytest.fixture(scope="session")
def synth_small(tmp_path_factory):
    """Small synthetic corpus + embeddings for fast pipeline tests."""
    from cosd.synth import make_synthetic

    root = tmp_path_factory.mktemp("synth-small")
    paths = make_synthetic(root, seed=5, n_train=60, n_val=21, n_test=21, h=2,
                           words_per_topic=6)
    return root, paths


def record_rows(tokens, *ids):
    """The (T, dim) float32 rows of each record id, in order, read through
    one TokenRows.open() of the EMB1 file."""
    with tokens.open() as read:
        return [read(rec_id) for rec_id in ids]


def planted_corpus(n_topics=3, n_docs=300, vocab_size=50, seed=0,
                   doc_len=(15, 31), purity=0.85):
    """Corpus drawn from known topic-word tables; returns (docs, phi_true).

    Each topic owns a contiguous vocabulary slice it emits with probability
    `purity` (uniform inside the slice); the rest of the mass is uniform over
    the whole vocabulary. phi_true rows are the exact emission distributions.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(vocab_size)]
    slice_w = vocab_size // n_topics
    phi_true = np.full((n_topics, vocab_size), (1.0 - purity) / vocab_size)
    for k in range(n_topics):
        phi_true[k, k * slice_w:(k + 1) * slice_w] += purity / slice_w
    docs = []
    for i in range(n_docs):
        k = i % n_topics
        n = int(rng.integers(doc_len[0], doc_len[1]))
        ids = rng.choice(vocab_size, size=n, p=phi_true[k])
        docs.append([words[int(w)] for w in ids])
    return docs, phi_true


def fit_checking_sweeps(check, *args):
    """topics._fit(*args), with check(s, n_k (H, sets), gamma of the models
    still sweeping) run after every sweep s, before the fit's own hook, the
    last argument its _cvb0 call passes."""
    cvb0 = topics._cvb0

    def checked(*cvb0_args):
        *head, on_sweep = cvb0_args

        def both(s, counts, gamma, ran, stops):
            check(s, counts[2], gamma)
            on_sweep(s, counts, gamma, ran, stops)

        return cvb0(*head, both)

    topics._cvb0 = checked
    try:
        return topics._fit(*args)
    finally:
        topics._cvb0 = cvb0


def greedy_match_tv(phi_est, phi_true):
    """Greedy topic alignment; returns the matched total-variation distances."""
    n = phi_true.shape[0]
    tv = np.array([[0.5 * np.abs(phi_est[a] - phi_true[b]).sum()
                    for b in range(n)] for a in range(n)])
    out = []
    free_est, free_true = set(range(n)), set(range(n))
    for _ in range(n):
        a, b = min(((a, b) for a in free_est for b in free_true),
                   key=lambda ab: tv[ab])
        out.append(tv[a, b])
        free_est.discard(a)
        free_true.discard(b)
    return out
