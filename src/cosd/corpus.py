"""Dataset loading, tokenization, and stance partitioning.

Two corpus layouts are supported: tweet-style TSV (ID, Target, Tweet, Stance;
one train file and one test file, with a validation slice carved out of train
when no val file is shipped) and the sentence-level argument layout (topic,
sentence, annotation, set; one file per topic, split column included).
"""

from __future__ import annotations

import csv
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .stopwords import STOPWORDS


class CorpusError(Exception):
    """Unreadable, malformed, or empty dataset input."""


class Stance(Enum):
    FAVOR = "Favor"
    NONE = "None"
    AGAINST = "Against"
    UNKNOWN = "Unknown"


class Split(Enum):
    TRAIN = "Train"
    VAL = "Val"
    TEST = "Test"


# Canonical label order everywhere: scores, one-hot columns, tie-breaking.
LABELS = (Stance.FAVOR, Stance.NONE, Stance.AGAINST)

_STANCE_ALIASES = {
    "favor": Stance.FAVOR,
    "none": Stance.NONE,
    "against": Stance.AGAINST,
    "unknown": Stance.UNKNOWN,
    "argument_for": Stance.FAVOR,
    "noargument": Stance.NONE,
    "argument_against": Stance.AGAINST,
}

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")
_ALL_DIGITS_RE = re.compile(r"\d+\Z")


def tokenize(text: str) -> list[str]:
    """Normalize raw text to content tokens.

    Lowercase; strip URLs and @-mentions; split on non-alphanumeric runs;
    drop stopwords, single characters, and purely numeric tokens. Hashtag
    bodies survive (only the '#' is a split point). Idempotent: running the
    output back through changes nothing.
    """
    lowered = text.lower()
    lowered = _URL_RE.sub(" ", lowered)
    lowered = _MENTION_RE.sub(" ", lowered)
    tokens = []
    for tok in _NON_ALNUM_RE.split(lowered):
        if len(tok) < 2:
            continue
        if tok in STOPWORDS:
            continue
        if _ALL_DIGITS_RE.fullmatch(tok):
            continue
        tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class Example:
    """One labeled text. tokens is the tokenized text, fixed at load time."""

    id: str
    text: str
    target: str
    stance: Stance
    split: Split
    tokens: tuple[str, ...]


@dataclass
class Vocabulary:
    """Sorted unique tokens with document frequencies."""

    tokens: list[str]
    index: dict[str, int]
    doc_freq: list[int]

    @classmethod
    def from_docs(cls, docs: list[list[str]]) -> "Vocabulary":
        freq: dict[str, int] = {}
        for doc in docs:
            for tok in set(doc):
                freq[tok] = freq.get(tok, 0) + 1
        tokens = sorted(freq)
        return cls(
            tokens=tokens,
            index={tok: i for i, tok in enumerate(tokens)},
            doc_freq=[freq[tok] for tok in tokens],
        )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Dataset:
    """Loaded corpus: examples across splits and the sorted target list.

    val_carved is True when the val split was carved out of the official train
    file (tweet-style corpora). In that case the "train pool" backing topic
    models, graph construction, and stance subsets is Train plus Val, i.e. the
    official train table; corpora that ship a real val split keep it out.
    """

    examples: list[Example]
    targets: list[str]
    val_carved: bool = False

    def split(self, split: Split, target: str | None = None) -> list[Example]:
        return [
            ex for ex in self.examples
            if ex.split is split and (target is None or ex.target == target)
        ]

    def train_pool(self, target: str | None = None) -> list[Example]:
        wanted = {Split.TRAIN, Split.VAL} if self.val_carved else {Split.TRAIN}
        return [
            ex for ex in self.examples
            if ex.split in wanted and (target is None or ex.target == target)
        ]


def stance_subsets(
    dataset: Dataset, target: str | None = None
) -> tuple[list[Example], list[Example], list[Example]]:
    """Partition the train pool into (favor, none, against) subsets.

    target=None pools all targets (joint mode). The three lists are disjoint
    and together cover the pool.
    """
    if target is not None and target not in dataset.targets:
        raise CorpusError(f"unknown target {target!r}")
    subsets: dict[Stance, list[Example]] = {label: [] for label in LABELS}
    for ex in dataset.train_pool(target):
        subsets[ex.stance].append(ex)
    return subsets[Stance.FAVOR], subsets[Stance.NONE], subsets[Stance.AGAINST]


def _parse_stance(raw: str, path: Path, line: int) -> Stance:
    key = raw.strip().lower()
    if key not in _STANCE_ALIASES:
        raise CorpusError(f"{path}:{line}: unknown stance value {raw!r}")
    return _STANCE_ALIASES[key]


def _read_tsv(path: Path, required: tuple[str, ...]) -> list[dict[str, str]]:
    if not path.is_file():
        raise CorpusError(f"missing dataset file: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        if reader.fieldnames is None:
            raise CorpusError(f"{path}: empty file")
        missing = [col for col in required if col not in reader.fieldnames]
        if missing:
            raise CorpusError(f"{path}: missing columns {missing}")
        rows = []
        for row in reader:
            # the file's line number: the reader skips blank lines
            line = reader.line_num
            if any(row.get(col) is None for col in required):
                raise CorpusError(f"{path}:{line}: malformed row (short fields)")
            row["_line"] = str(line)
            rows.append(row)
    if not rows:
        raise CorpusError(f"{path}: no data rows")
    return rows


def _finish(examples: list[Example], val_carved: bool) -> Dataset:
    if not examples:
        raise CorpusError("dataset has no examples")
    seen: set[str] = set()
    for ex in examples:
        if ex.id in seen:
            raise CorpusError(f"duplicate example id {ex.id!r}")
        seen.add(ex.id)
        if ex.split is not Split.TEST and ex.stance is Stance.UNKNOWN:
            raise CorpusError(f"example {ex.id!r}: unlabeled outside test split")
    return Dataset(examples=examples,
                   targets=sorted({ex.target for ex in examples}),
                   val_carved=val_carved)


def _tweet_rows(path: Path, split: Split) -> list[Example]:
    rows = _read_tsv(path, ("ID", "Target", "Tweet", "Stance"))
    out = []
    first_line: dict[str, str] = {}
    for row in rows:
        line = row["_line"]
        if row["ID"] in first_line:
            raise CorpusError(f"{path}:{line}: duplicate example id "
                              f"{row['ID']!r}, first on line "
                              f"{first_line[row['ID']]}")
        first_line[row["ID"]] = line
        stance = _parse_stance(row["Stance"], path, int(line))
        text = row["Tweet"]
        out.append(Example(
            id=row["ID"],
            text=text,
            target=row["Target"],
            stance=stance,
            split=split,
            tokens=tuple(tokenize(text)),
        ))
    return out


def load_semeval(path: str | Path, seed: int = 0) -> Dataset:
    """Load a tweet-style corpus from a directory.

    Expects train.tsv and test.tsv; if val.tsv is present it is used as-is,
    otherwise a sixth of each target's train rows (5:1, seeded Fisher-Yates,
    targets visited in sorted order) is relabeled as the val split.
    """
    root = Path(path)
    examples = _tweet_rows(root / "train.tsv", Split.TRAIN)
    val_file = root / "val.tsv"
    if val_file.is_file():
        examples += _tweet_rows(val_file, Split.VAL)
        carved = False
    else:
        examples = _carve_val(examples, seed)
        carved = True
    examples += _tweet_rows(root / "test.tsv", Split.TEST)
    return _finish(examples, val_carved=carved)


def _carve_val(train_examples: list[Example], seed: int) -> list[Example]:
    rng = random.Random(seed)
    by_target: dict[str, list[int]] = {}
    for i, ex in enumerate(train_examples):
        by_target.setdefault(ex.target, []).append(i)
    val_idx: set[int] = set()
    for target in sorted(by_target):
        idx = by_target[target]
        rng.shuffle(idx)
        val_idx.update(idx[: len(idx) // 6])
    out = []
    for i, ex in enumerate(train_examples):
        if i in val_idx:
            ex = Example(ex.id, ex.text, ex.target, ex.stance, Split.VAL, ex.tokens)
        out.append(ex)
    return out


def load_ukp(path: str | Path) -> Dataset:
    """Load the sentence-level argument corpus.

    path is a directory of per-topic TSV files (or a single TSV). Labels
    Argument_for / NoArgument / Argument_against map onto favor / none /
    against; the set column supplies the split.
    """
    root = Path(path)
    if root.is_dir():
        files = sorted(root.glob("*.tsv"))
        if not files:
            raise CorpusError(f"no .tsv files under {root}")
    elif root.is_file():
        files = [root]
    else:
        raise CorpusError(f"missing dataset file: {root}")

    split_map = {"train": Split.TRAIN, "val": Split.VAL, "test": Split.TEST}
    examples = []
    for file in files:
        rows = _read_tsv(file, ("topic", "sentence", "annotation", "set"))
        for row in rows:
            raw_split = row["set"].strip().lower()
            if raw_split not in split_map:
                raise CorpusError(f"{file}:{row['_line']}: unknown split {row['set']!r}")
            stance = _parse_stance(row["annotation"], file, int(row["_line"]))
            text = row["sentence"]
            ex_id = row.get("sentenceHash") or f"{file.stem}-{row['_line']}"
            examples.append(Example(
                id=ex_id,
                text=text,
                target=row["topic"],
                stance=stance,
                split=split_map[raw_split],
                tokens=tuple(tokenize(text)),
            ))
    return _finish(examples, val_carved=False)
