"""Synthetic stance corpus with planted topics and separable embeddings.

One target, three balanced stances. The vocabulary is partitioned into 3H
planted topics (H per stance); each doc draws most tokens from one dominant
topic of its stance block and the rest from the block's other topics, so the
per-stance LDA models can recover the planted structure and fold-ins of
wrong-stance texts stay flat. Embeddings are noisy copies of three
orthonormal prototypes: trivially separable by construction, which is the
point; the pipeline has to preserve that separability, not create it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import LABELS, tokenize
from .stopwords import STOPWORDS
from .training import LABEL_KEYS, EmbeddingWriter

TARGET = "Synthetic Policy"

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


def _pseudo_word(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        syllables = rng.integers(3, 5)
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in used and word not in STOPWORDS:
            used.add(word)
            return word


def make_synthetic(out_dir: str | Path, seed: int = 0, n_train: int = 600,
                   n_val: int = 150, n_test: int = 150, h: int = 3,
                   words_per_topic: int = 8, noise: float = 0.3,
                   dim: int = 768) -> dict[str, Path]:
    """Write train/val/test TSVs, an EMB1 file, and a ground-truth JSON.

    Returns the paths keyed by role. Deterministic per seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    # orthonormal prototypes via QR of a random matrix
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 3)))
    prototypes = basis.T.copy()  # (3, dim), rows orthonormal

    used: set[str] = set()
    topic_words = [
        [_pseudo_word(rng, used) for _ in range(words_per_topic)]
        for _ in range(3 * h)
    ]
    for words in topic_words:
        for word in words:
            if tokenize(word) != [word]:
                raise RuntimeError(f"generated word {word!r} not tokenizer-safe")

    counts = {"train": n_train, "val": n_val, "test": n_test}
    truth_docs = {}
    paths: dict[str, Path] = {}
    serial = 0
    # records are written as they are drawn: one per text, then the target
    # and the three labels
    emb_path = out / "synth.emb1"
    with EmbeddingWriter(emb_path, sum(counts.values()) + 4, dim=dim) as emb:
        for split, n in counts.items():
            rows = ["ID\tTarget\tTweet\tStance"]
            for i in range(n):
                stance_idx = i % 3
                stance = LABELS[stance_idx].value
                dominant = h * stance_idx + (i // 3) % h
                block = list(range(h * stance_idx, h * (stance_idx + 1)))
                length = int(rng.integers(8, 15))
                toks = []
                for _ in range(length):
                    if h == 1 or rng.random() < 0.85:
                        topic = dominant
                    else:
                        others = [t for t in block if t != dominant]
                        topic = others[rng.integers(len(others))]
                    toks.append(
                        topic_words[topic][rng.integers(words_per_topic)])
                ex_id = f"synth-{split}-{serial:04d}"
                serial += 1
                rows.append(f"{ex_id}\t{TARGET}\t{' '.join(toks)}"
                            f"\t{stance}")
                emb.write(ex_id, prototypes[stance_idx]
                          + rng.normal(0.0, noise, (length, dim)))
                truth_docs[ex_id] = {"stance": stance,
                                     "dominant_topic": int(dominant)}
            path = out / f"{split}.tsv"
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            paths[split] = path

        emb.write(f"target:{TARGET}",
                  prototypes.mean(axis=0) + rng.normal(0.0, 0.02, dim))
        for j, key in enumerate(LABEL_KEYS):
            emb.write(f"label:{key}",
                      prototypes[j] + rng.normal(0.0, 0.05, dim))
    paths["embeddings"] = emb_path

    truth = {
        "seed": seed,
        "target": TARGET,
        "h": h,
        "noise": noise,
        "topic_words": topic_words,
        "prototypes": prototypes.tolist(),
        "docs": truth_docs,
    }
    truth_path = out / "truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["truth"] = truth_path
    return paths
