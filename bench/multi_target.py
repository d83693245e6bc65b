"""Six-target corpus for the train-multi workload, from one synthetic set.

make_synthetic cycles the stance on every row and the dominant topic every
three rows, so at H=3 each aligned block of nine rows holds every
(stance, dominant topic) pair once. Handing out whole blocks round-robin
gives every target every stance and every topic in equal shares. All
targets share the generator's prototypes, so they also share its target and
label vectors.
"""

from __future__ import annotations

import shutil
from collections import Counter
from pathlib import Path

from cosd import synth, training
from cosd.corpus import Split, load_semeval

TARGETS = tuple(f"Synthetic Target {k}" for k in range(1, 7))
BLOCK = 9
# blocks per target and split: 17 x 9 = 153 train, 27 val and 27 test texts
BLOCKS = {"train": 17, "val": 3, "test": 3}


def build(out_dir: Path, seed: int) -> dict[str, Path]:
    """Write train/val/test TSVs and an EMB1 file for six targets.

    Returns the paths keyed by role, like make_synthetic. Deterministic per
    seed. Raises RuntimeError if the loader does not see six targets with
    balanced train stances.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    source = out_dir / "source"
    sizes = {split: len(TARGETS) * BLOCK * n for split, n in BLOCKS.items()}
    made = synth.make_synthetic(source, seed=seed, n_train=sizes["train"],
                                n_val=sizes["val"], n_test=sizes["test"], h=3)

    paths: dict[str, Path] = {}
    for split in BLOCKS:
        header, *rows = made[split].read_text(encoding="utf-8").splitlines()
        lines = [header]
        for i, row in enumerate(rows):
            ex_id, _, text, stance = row.split("\t")
            target = TARGETS[(i // BLOCK) % len(TARGETS)]
            lines.append("\t".join((ex_id, target, text, stance)))
        paths[split] = out_dir / f"{split}.tsv"
        paths[split].write_text("\n".join(lines) + "\n", encoding="utf-8")

    store = training.load_embeddings(made["embeddings"])
    (target_vec,) = store.targets.values()
    records = list(store.tokens.items())
    records += [(f"target:{name}", target_vec) for name in TARGETS]
    records += [(f"label:{key}", store.labels[key])
                for key in training.LABEL_KEYS]
    paths["embeddings"] = out_dir / "multi.emb1"
    training.save_embeddings(paths["embeddings"], records, dim=store.dim)
    shutil.rmtree(source)
    check_balanced(out_dir, seed)
    return paths


def check_balanced(data_dir: Path, seed: int) -> None:
    """Raise RuntimeError unless the loader sees six balanced targets."""
    dataset = load_semeval(data_dir, seed=seed)
    if dataset.targets != sorted(TARGETS):
        raise RuntimeError(f"expected targets {sorted(TARGETS)}, "
                           f"loader saw {dataset.targets}")
    for target in dataset.targets:
        train = dataset.split(Split.TRAIN, target)
        counts = Counter(ex.stance for ex in train)
        if len(counts) != 3 or len(set(counts.values())) != 1:
            raise RuntimeError(f"unbalanced train stances for {target!r}: "
                               f"{dict(counts)}")
