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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

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
_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")


def tokenize(text: str) -> list[str]:
    """Normalize raw text to content tokens.

    Lowercase; strip URLs and @-mentions; split on non-alphanumeric runs;
    drop stopwords, single characters, and purely numeric tokens. Hashtag
    bodies survive (only the '#' is a split point). Idempotent: running the
    output back through changes nothing.
    """
    return tokenize_texts([text])[0]


def tokenize_texts(texts: Sequence[str]) -> list[list[str]]:
    """[tokenize(text) for text in texts], from one pass over the texts
    joined by newlines: one lower() and one URL and mention blanking. A
    text's own newlines become spaces first; both are uncased whitespace,
    part of no URL, mention or token, and no letter's lowercase reads
    across either (a final sigma's context stops at both), so each line's
    tokens are its text's."""
    if not texts:
        return []
    lowered = "\n".join(text.replace("\n", " ") for text in texts).lower()
    lowered = _MENTION_RE.sub(" ", _URL_RE.sub(" ", lowered))
    return [[tok for tok in _TOKEN_RE.findall(line)
             if tok not in STOPWORDS and not tok.isdigit()]
            for line in lowered.split("\n")]


@dataclass(frozen=True)
class Example:
    """One labeled text, kept as its tokens, fixed at load time."""

    id: str
    target: str
    stance: Stance
    split: Split
    tokens: tuple[str, ...]


@dataclass
class Vocabulary:
    """Sorted unique tokens and each token's position among them."""

    tokens: list[str]
    index: dict[str, int]

    @classmethod
    def from_docs(cls, docs: Iterable[Iterable[str]]) -> "Vocabulary":
        tokens = sorted({tok for doc in docs for tok in doc})
        return cls(tokens=tokens,
                   index={tok: i for i, tok in enumerate(tokens)})

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
    """The UTF-8 text of a file less one leading byte-order mark; an
    undecodable byte raises `error` naming the file, the line and the byte
    offset."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: invalid UTF-8 at byte "
                    f"{exc.start}") from exc


def _read_tsv(path: Path, required: tuple[str, ...],
              optional: tuple[str, ...] = ()) -> list[tuple]:
    """The data rows of a tab-separated file under its header line, each as
    (line number, the required columns' fields, the optional columns'),
    read as csv.DictReader reads them: the first line is the header, even
    when blank; blank lines are skipped but counted; a repeated column name
    names its last column; fields past the header's are ignored. A row
    short of a required column is an error, and one short of an optional
    column reads None there, as does a column the header lacks."""
    if not path.is_file():
        raise CorpusError(f"missing dataset file: {path}")
    # newline="" as for a file opened for csv: line ends stay in the fields
    text = io.StringIO(read_text(path), newline="")
    reader = csv.reader(text, delimiter="\t", quoting=csv.QUOTE_NONE)
    header = next(reader, None)
    if header is None:
        raise CorpusError(f"{path}: empty file")
    column = {name: i for i, name in enumerate(header)}
    missing = [col for col in required if col not in column]
    if missing:
        raise CorpusError(f"{path}: missing columns {missing}")
    pick = itemgetter(*(column[col] for col in required))
    width = 1 + max(column[col] for col in required)
    extra = [column.get(col, -1) for col in optional]
    rows = []
    for row in reader:
        if not row:
            continue
        # the file's line number: the reader counts blank lines too
        line = reader.line_num
        if len(row) < width:
            raise CorpusError(f"{path}:{line}: malformed row (short fields)")
        fields = (line, *pick(row))
        if extra:
            fields += tuple(row[i] if 0 <= i < len(row) else None
                            for i in extra)
        rows.append(fields)
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


def _tweet_rows(path: Path, split: Split,
                carve_seed: int | None = None) -> list[Example]:
    rows = _read_tsv(path, ("ID", "Target", "Tweet", "Stance"))
    first_line: dict[str, int] = {}
    stances = []
    for line, ex_id, _, _, raw in rows:
        first = first_line.setdefault(ex_id, line)
        if first != line:
            raise CorpusError(f"{path}:{line}: duplicate example id "
                              f"{ex_id!r}, first on line {first}")
        stances.append(_parse_stance(raw, path, line))
    splits = ([split] * len(rows) if carve_seed is None else
              _carved_splits([row[2] for row in rows], carve_seed))
    tokens = tokenize_texts([row[3] for row in rows])
    return [Example(id=ex_id, target=target, stance=stance, split=row_split,
                    tokens=tuple(toks))
            for (_, ex_id, target, _, _), stance, row_split, toks
            in zip(rows, stances, splits, tokens)]


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
            examples += [ex for ex in _tweet_rows(
                root / "train.tsv", Split.TRAIN, seed if carved else None)
                if ex.split in wanted]
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


def _carved_splits(targets: list[str], seed: int) -> list[Split]:
    """Each train.tsv row's split, by the rows' targets, when no val.tsv
    is shipped (see read_splits)."""
    rng = random.Random(seed)
    by_target: dict[str, list[int]] = {}
    for i, target in enumerate(targets):
        by_target.setdefault(target, []).append(i)
    splits = [Split.TRAIN] * len(targets)
    for target in sorted(by_target):
        idx = by_target[target]
        rng.shuffle(idx)
        for i in idx[: len(idx) // 6]:
            splits[i] = Split.VAL
    return splits


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
        rows = _read_tsv(file, ("topic", "sentence", "annotation", "set"),
                         ("sentenceHash",))
        kept = []
        for line, topic, sentence, annotation, raw_split, sent_hash in rows:
            split = split_map.get(raw_split.strip().lower())
            if split is None:
                raise CorpusError(f"{file}:{line}: unknown split "
                                  f"{raw_split!r}")
            if split not in wanted:
                continue
            kept.append((sent_hash or f"{file.stem}-{line}", topic,
                         _parse_stance(annotation, file, line), split,
                         sentence))
        examples += [Example(id=ex_id, target=topic, stance=stance,
                             split=split, tokens=tuple(toks))
                     for (ex_id, topic, stance, split, _), toks in zip(
                         kept, tokenize_texts([row[4] for row in kept]))]
    return examples
