"""Dataset loading, tokenization, and stance partitioning.

Two corpus layouts are supported: tweet-style TSV (ID, Target, Tweet, Stance;
one train file and one test file, with a validation slice carved out of train
when no val file is shipped) and the sentence-level argument layout (topic,
sentence, annotation, set; one file per topic, split column included).
read_splits reads any set of splits of either layout from only the files
those splits need.
"""

from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

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


def read_text(path: Path, error: type[Exception] = CorpusError) -> str:
    """The UTF-8 text of a file; an undecodable byte raises `error` naming
    the file, the line and the byte offset."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: invalid UTF-8 at byte "
                    f"{exc.start}") from exc


def _read_tsv(path: Path, required: tuple[str, ...]) -> list[dict[str, str]]:
    if not path.is_file():
        raise CorpusError(f"missing dataset file: {path}")
    # newline="" as for a file opened for csv: line ends stay in the fields
    text = io.StringIO(read_text(path), newline="")
    reader = csv.DictReader(text, delimiter="\t", quoting=csv.QUOTE_NONE)
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


def read_splits(path: str | Path, splits: Iterable[Split] = tuple(Split),
                *, seed: int = 0, ukp: bool = False) -> Dataset:
    """The examples of the given splits, in file order, read from only the
    files those splits need; ids repeated among them, or unlabeled ones
    outside the test split, are errors.

    Tweet layout: path is a directory or one TSV of test texts. test reads
    test.tsv. With a val.tsv, val reads it and train reads train.tsv.
    Without one, val_carved is set and both read train.tsv, a sixth of
    each target's rows of which (5:1, Fisher-Yates seeded by seed, targets
    in sorted order) is the val split.

    Argument layout (ukp): path is a directory of per-topic TSVs, or one;
    the set column gives each row's split. Argument_for / NoArgument /
    Argument_against map onto favor / none / against.
    """
    root = Path(path)
    wanted = set(splits)
    carved = False
    if ukp:
        examples = _ukp_rows(root, wanted)
    elif root.is_file():
        examples = _tweet_rows(root, Split.TEST) if Split.TEST in wanted else []
    else:
        examples = []
        carved = not (root / "val.tsv").is_file()
        if Split.TRAIN in wanted or (carved and Split.VAL in wanted):
            train = _tweet_rows(root / "train.tsv", Split.TRAIN)
            examples += [ex for ex in (_carve_val(train, seed) if carved
                                       else train) if ex.split in wanted]
        if Split.VAL in wanted and not carved:
            examples += _tweet_rows(root / "val.tsv", Split.VAL)
        if Split.TEST in wanted:
            examples += _tweet_rows(root / "test.tsv", Split.TEST)
    if not examples:
        names = "/".join(split.value for split in Split if split in wanted)
        raise CorpusError(f"{root}: no examples in split {names}")
    return _finish(examples, val_carved=carved)


def load_semeval(path: str | Path, seed: int = 0) -> Dataset:
    """Every split of a tweet-style corpus (see read_splits)."""
    return read_splits(path, seed=seed)


def load_ukp(path: str | Path) -> Dataset:
    """Every split of the sentence-level argument corpus (see read_splits)."""
    return read_splits(path, ukp=True)


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


def _ukp_rows(root: Path, wanted: set[Split]) -> list[Example]:
    """The rows of the wanted splits; the other rows' split values are
    checked, and nothing else of them is parsed."""
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
            if split_map[raw_split] not in wanted:
                continue
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
    return examples
