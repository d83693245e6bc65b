"""Loader fidelity, tokenizer rules, stance partitioning, input errors."""

import dataclasses
import random
import re

import pytest

from conftest import SEMEVAL_TABLE, UKP_TABLE
from cosd import corpus
from cosd.corpus import (LABELS, CorpusError, Split, Stance, Vocabulary,
                         load_semeval, load_ukp, read_splits, stance_subsets,
                         tokenize, tokenize_texts)
from cosd.stopwords import STOPWORDS

# the UTF-8 byte-order mark, U+FEFF encoded
BOM = b"\xef\xbb\xbf"


def by_stance(examples):
    counts = {label: 0 for label in LABELS}
    for ex in examples:
        counts[ex.stance] += 1
    return tuple(counts[label] for label in LABELS)


def tokenize_oracle(text):
    """The tokenizer written as its rules read: lowercase, blank out URLs
    and mentions, split on every run of characters outside [a-z0-9], then
    drop single characters, stopwords and all-digit pieces."""
    lowered = text.lower()
    lowered = re.sub(r"(?:https?://|www\.)\S+", " ", lowered)
    lowered = re.sub(r"@\w+", " ", lowered)
    tokens = []
    for tok in re.split(r"[^a-z0-9]+", lowered):
        if len(tok) < 2:
            continue
        if tok in STOPWORDS:
            continue
        if re.fullmatch(r"\d+", tok):
            continue
        tokens.append(tok)
    return tokens


# strings whose pieces sit at every rule's edge: URLs and www., mentions,
# hashtags, digit runs, non-ASCII digits and letters, single characters
ORACLE_CASES = [
    "", "a", "ab", "a b c", "I", "x1", "12", "1x", "99 bottles",
    "http://x.co/a?b=1 next", "https://t.co/abc,then", "www.site.org/p ok",
    "wwwx.site nope", "see:http://a.b", "HTTP://UPPER.CASE done",
    "@user", "@Some_User123 replied", "a@b.com mail", "@@double at",
    "#Climate #2016 #go2", "##tag", "covid19 2020 2020s 007bond",
    "\u0661\u0662\u0663 \u0661\u0662\u0663ab ab\u0661\u0662\u0663",
    "x\u00b2 \u00b2\u00b2 ab\u00b2cd", "\u0130stanbul \u0130I",
    "caf\u00e9 na\u00efve r\u00e9sum\u00e9", "\u017fpring \u212aelvin",
    "the and of but",
    "don't won't it's", "ok-go ok_go ok.go", "\t\n  spaced\tout\n",
]


def random_text(rng):
    """Up to 80 characters from every rule's edge, with some whole URL
    schemes, mentions, stopwords and numbers among them."""
    alphabet = ("abcxyzABCXYZ0123456789 _-#@.:/!'\t"
                "\u0661\u00b2\u0130\u00e9\u00df\u017f\u212a")
    pieces = ["http://", "https://", "www.", "@", "the", "and", "42"]
    return "".join(rng.choice(pieces) if rng.random() < 0.1
                   else rng.choice(alphabet)
                   for _ in range(rng.randrange(0, 80)))


# texts whose ends meet their neighbours' in a joined file: line ends of
# their own, final sigmas, a dotted capital I, URLs and mentions that run
# to the end of the text, a mention and a URL that start the next one
JOINED_CASES = [
    "one\ntwo words", "crlf\r\nends", "\n",
    "\u039f\u0394\u039f\u03a3", "\u03a3", "ab\u03a3", "\u03a3ab", "\u0130",
    "I\u0130", "see http://x.co/path", "tail www.site.org",
    "ask @someone", "@next word", "http://next.co then", "plain words",
    "", "WWW.UPPER.ORG ok", "x\u2028y \u0085z",
]


class TestTokenize:
    @pytest.mark.parametrize("text", ORACLE_CASES)
    def test_equals_the_rules_oracle(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    def test_equals_the_rules_oracle_on_random_text(self):
        rng = random.Random(7)
        for _ in range(500):
            text = random_text(rng)
            assert tokenize(text) == tokenize_oracle(text), text

    def test_whole_file_equals_the_oracle_per_text(self):
        for texts in (ORACLE_CASES, JOINED_CASES, ORACLE_CASES + JOINED_CASES,
                      [], [""], ["http://a.co"] * 3, ["no ends here"] * 3):
            assert tokenize_texts(texts) == [tokenize_oracle(text)
                                             for text in texts], texts

    def test_whole_file_equals_the_oracle_on_random_batches(self):
        rng = random.Random(11)
        for _ in range(500):
            texts = [rng.choice(JOINED_CASES) if rng.random() < 0.1
                     else random_text(rng)
                     for _ in range(rng.randrange(0, 12))]
            assert tokenize_texts(texts) == [tokenize_oracle(text)
                                             for text in texts], texts

    def test_a_carriage_return_stays_on_the_joined_path(self, monkeypatch):
        # only a newline splits the joined text: a lone CR is one more
        # uncased separator inside its own line
        texts = ["carriage\rreturn here", "\r", "end\r", "@me\rhttp://x.co\r"]
        want = [tokenize_oracle(text) for text in texts]
        monkeypatch.setattr(corpus, "tokenize", None)  # no per-text fallback
        assert tokenize_texts(texts) == want

    def test_a_joined_lowering_is_each_texts_lowering(self):
        # what the whole-file tokenizer rests on: lowercase never reads
        # across a newline (a final sigma's context stops there), and no
        # lowercase letter is a newline
        rng = random.Random(5)
        batches = [[t for t in cases if "\n" not in t]
                   for cases in (ORACLE_CASES, JOINED_CASES)]
        batches += [[random_text(rng) for _ in range(8)] for _ in range(200)]
        for texts in batches:
            assert "\n".join(texts).lower().split("\n") == [
                text.lower() for text in texts]
        assert "\n".join(["\u039f\u0394\u039f\u03a3", "\u03a3ab"]).lower() == (
            "\u03bf\u03b4\u03bf\u03c2\n\u03c3ab")

    def test_a_texts_newlines_lower_as_spaces(self):
        # a text's own newlines become spaces before the join: both stop a
        # final sigma's context, so the lowering is the text's own
        rng = random.Random(6)
        texts = [t for t in ORACLE_CASES + JOINED_CASES if "\n" in t]
        texts += ["\u03a3\n\u03a3", "ab\u03a3\nx", "ab\n\u03a3x"]
        texts += [random_text(rng).replace("\t", "\n") for _ in range(200)]
        for text in texts:
            assert text.replace("\n", " ").lower() == (
                text.lower().replace("\n", " ")), text

    def test_stated_examples(self):
        assert tokenize("Gun violence, in short") == ["gun", "violence", "short"]
        assert tokenize("") == []
        assert tokenize("http://x.co @user RT") == []

    def test_urls_mentions_hashtags(self):
        assert tokenize("see www.site.org/page now") == ["see"]
        assert tokenize("@Some_User123 replied") == ["replied"]
        assert tokenize("#Climate matters") == ["climate", "matters"]

    def test_numbers_and_short_tokens(self):
        assert tokenize("a I 42 2016 ok go") == ["ok", "go"]
        assert tokenize("covid19 is real") == ["covid19", "real"]

    def test_idempotent_on_random_text(self):
        rng = random.Random(99)
        alphabet = "abcdefghij @#.!:/HTTPwww123"
        for _ in range(200):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(0, 60)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once


class TestSemeval:
    def test_total_counts(self, semeval_dataset):
        train_pool = semeval_dataset.train_pool()
        test = semeval_dataset.split(Split.TEST)
        assert len(train_pool) == 2914
        assert len(test) == 1249
        assert len(semeval_dataset.targets) == 5

    def test_table_counts_exact(self, semeval_dataset):
        for target, table in SEMEVAL_TABLE.items():
            assert by_stance(semeval_dataset.train_pool(target)) == table["train"]
            assert by_stance(semeval_dataset.split(Split.TEST, target)) == table["test"]

    def test_val_carve_is_a_sixth_per_target(self, semeval_dataset):
        assert semeval_dataset.val_carved
        for target, table in SEMEVAL_TABLE.items():
            total = sum(table["train"])
            val = semeval_dataset.split(Split.VAL, target)
            assert len(val) == total // 6
            assert all(ex.stance is not Stance.UNKNOWN for ex in val)

    def test_val_carve_deterministic_and_seed_sensitive(self, semeval_dir):
        a = load_semeval(semeval_dir, seed=7)
        b = load_semeval(semeval_dir, seed=7)
        c = load_semeval(semeval_dir, seed=8)
        ids = lambda ds: [ex.id for ex in ds.split(Split.VAL)]
        assert ids(a) == ids(b)
        assert ids(a) != ids(c)

    def test_val_carve_equals_a_carve_of_the_loaded_rows(self, semeval_dir):
        """The oracle carves the examples of train.tsv after they are
        built: per sorted target, one random.Random(seed) shuffle of its
        row indexes, whose first sixth turns val."""
        rows = read_splits(semeval_dir / "train.tsv", [Split.TEST]).examples
        for seed in (0, 7, 8):
            rng = random.Random(seed)
            by_target = {}
            for i, ex in enumerate(rows):
                by_target.setdefault(ex.target, []).append(i)
            val = set()
            for target in sorted(by_target):
                idx = by_target[target]
                rng.shuffle(idx)
                val.update(idx[: len(idx) // 6])
            want = [dataclasses.replace(
                ex, split=Split.VAL if i in val else Split.TRAIN)
                for i, ex in enumerate(rows)]
            got = read_splits(semeval_dir, [Split.TRAIN, Split.VAL],
                              seed=seed).examples
            assert got == want


class TestUkp:
    def test_total_counts(self, ukp_dataset):
        assert not ukp_dataset.val_carved
        assert len(ukp_dataset.split(Split.TRAIN)) == 18341
        assert len(ukp_dataset.split(Split.VAL)) == 2042
        assert len(ukp_dataset.split(Split.TEST)) == 5109
        assert len(ukp_dataset.targets) == 8
        # provided val split stays out of the train pool
        assert len(ukp_dataset.train_pool()) == 18341

    def test_table_counts_exact(self, ukp_dataset):
        for topic, table in UKP_TABLE.items():
            assert by_stance(ukp_dataset.split(Split.TRAIN, topic)) == table["train"]
            assert by_stance(ukp_dataset.split(Split.VAL, topic)) == table["val"]
            assert by_stance(ukp_dataset.split(Split.TEST, topic)) == table["test"]

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text(
            "topic\tsentence\tannotation\tset\n"
            "cloning\tclones everywhere\tNoArgument\ttrain\n"
            "cloning\tclones are fine\tArgument_for\ttest\n",
            encoding="utf-8")
        ds = load_ukp(path)
        assert ds.examples[0].stance is Stance.NONE
        assert ds.examples[1].stance is Stance.FAVOR


class TestStanceSubsets:
    def test_semeval_atheism_sizes(self, semeval_dataset):
        favor, none, against = stance_subsets(semeval_dataset, "Atheism")
        assert (len(favor), len(none), len(against)) == (92, 117, 304)

    def test_partition(self, semeval_dataset):
        for target in semeval_dataset.targets:
            subsets = stance_subsets(semeval_dataset, target)
            pool = semeval_dataset.train_pool(target)
            assert sum(len(s) for s in subsets) == len(pool)
            seen = set()
            for subset in subsets:
                for ex in subset:
                    assert ex.id not in seen
                    seen.add(ex.id)
            assert seen == {ex.id for ex in pool}

    def test_unknown_target(self, semeval_dataset):
        with pytest.raises(CorpusError):
            stance_subsets(semeval_dataset, "No Such Target")


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="missing"):
            load_semeval(tmp_path)

    def test_empty_file(self, tmp_path):
        (tmp_path / "train.tsv").write_text("ID\tTarget\tTweet\tStance\n",
                                            encoding="utf-8")
        (tmp_path / "test.tsv").write_text("ID\tTarget\tTweet\tStance\n",
                                           encoding="utf-8")
        with pytest.raises(CorpusError, match="no data rows"):
            load_semeval(tmp_path)

    def test_unknown_stance(self, tmp_path):
        (tmp_path / "train.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n1\tX\thello world\tMaybe\n",
            encoding="utf-8")
        (tmp_path / "test.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n2\tX\tbye\tFAVOR\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="unknown stance"):
            load_semeval(tmp_path)

    def test_malformed_row(self, tmp_path):
        (tmp_path / "train.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n1\tX\tonly three columns\n",
            encoding="utf-8")
        (tmp_path / "test.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n2\tX\tbye\tFAVOR\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="malformed"):
            load_semeval(tmp_path)

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "train.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n1\tX\thello\tFAVOR\n1\tX\tbye\tNONE\n",
            encoding="utf-8")
        (tmp_path / "test.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n2\tX\tbye\tFAVOR\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            load_semeval(tmp_path)

    def test_unlabeled_train_row(self, tmp_path):
        (tmp_path / "train.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n1\tX\thello\tUNKNOWN\n",
            encoding="utf-8")
        (tmp_path / "test.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n2\tX\tbye\tFAVOR\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="unlabeled"):
            load_semeval(tmp_path)


    @pytest.mark.parametrize("name", ["train.tsv", "test.tsv"])
    def test_invalid_utf8_names_the_file_and_line(self, tmp_path, name):
        # the offset counts from the file's first byte, a leading
        # byte-order mark included
        for mark in (b"", BOM):
            for split in ("train", "test"):
                (tmp_path / f"{split}.tsv").write_bytes(mark + (
                    f"ID\tTarget\tTweet\tStance\n{split}-1\tX\thello\tFAVOR\n"
                    f"{split}-2\tX\tbye\tNONE\n").encode("utf-8"))
            path = tmp_path / name
            raw = path.read_bytes()
            at = raw.index(b"bye")
            path.write_bytes(raw[:at] + b"\xff" + raw[at:])
            with pytest.raises(CorpusError,
                               match=f"{name}:3: invalid UTF-8 at byte {at}"):
                load_semeval(tmp_path)
            with pytest.raises(CorpusError,
                               match=f"{name}:3: invalid UTF-8 at byte {at}$"):
                read_splits(path, [Split.TEST])

    def test_one_leading_byte_order_mark_is_dropped(self, semeval_dir,
                                                    tmp_path):
        for name in ("train.tsv", "test.tsv"):
            (tmp_path / name).write_bytes(
                BOM + (semeval_dir / name).read_bytes())
        _same_examples(load_semeval(tmp_path, seed=7).examples,
                       load_semeval(semeval_dir, seed=7).examples)
        _same_examples(read_splits(tmp_path / "test.tsv").examples,
                       read_splits(semeval_dir / "test.tsv").examples)
        # a second mark is text: it renames the first column
        path = tmp_path / "test.tsv"
        path.write_bytes(BOM + path.read_bytes())
        with pytest.raises(CorpusError, match=r"missing columns \['ID'\]"):
            read_splits(path)


def _same_examples(got, want):
    assert [(ex.id, ex.split) for ex in got] == [(ex.id, ex.split)
                                                for ex in want]
    assert got == want


class TestReadSplits:
    def test_each_split_equals_the_full_load(self, semeval_dir,
                                             semeval_dataset, tmp_path):
        ukp = tmp_path / "ukp"
        ukp.mkdir()
        for topic in ("cloning", "gun control"):
            rows = ["topic\tsentence\tannotation\tset"] + [
                f"{topic}\t{topic} sentence {i}\t"
                f"{('Argument_for', 'NoArgument', 'Argument_against')[i % 3]}"
                f"\t{('train', 'test', 'val', 'train')[i % 4]}"
                for i in range(24)]
            (ukp / f"{topic}.tsv").write_text("\n".join(rows) + "\n",
                                              encoding="utf-8")
        shipped = tmp_path / "shipped"
        shipped.mkdir()
        full = load_semeval(semeval_dir, seed=7)
        for split, name in ((Split.TRAIN, "train"), (Split.VAL, "val"),
                            (Split.TEST, "test")):
            # a text written as its tokens tokenizes back to them
            lines = ["ID\tTarget\tTweet\tStance"] + [
                f"{ex.id}\t{ex.target}\t{' '.join(ex.tokens)}"
                f"\t{ex.stance.value}" for ex in full.split(split)]
            (shipped / f"{name}.tsv").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")
        cases = [(semeval_dir, {"seed": 7}, semeval_dataset, True),
                 (shipped, {"seed": 7}, load_semeval(shipped, seed=7), False),
                 (ukp, {"ukp": True}, load_ukp(ukp), False)]
        for path, kwargs, whole, carved in cases:
            assert whole.val_carved is carved
            _same_examples(read_splits(path, **kwargs).examples,
                           whole.examples)
            for split in Split:
                part = read_splits(path, [split], **kwargs)
                _same_examples(part.examples, whole.split(split))
                assert part.val_carved is carved
            # inspect rebuilds a train pool from these two splits
            pool = read_splits(path, [Split.TRAIN, Split.VAL], **kwargs)
            for target in whole.targets:
                _same_examples(pool.train_pool(target),
                               whole.train_pool(target))

    def test_a_split_reads_only_its_files(self, semeval_dir, tmp_path):
        (tmp_path / "test.tsv").write_bytes(
            (semeval_dir / "test.tsv").read_bytes())
        test = read_splits(tmp_path, [Split.TEST], seed=7).examples
        _same_examples(test, load_semeval(semeval_dir, seed=7)
                       .split(Split.TEST))
        # with no val.tsv, val and train are both carved from train.tsv
        for split in (Split.VAL, Split.TRAIN):
            with pytest.raises(CorpusError, match="train.tsv"):
                read_splits(tmp_path, [split])
        # a shipped val.tsv is read on its own
        (tmp_path / "val.tsv").write_bytes(
            (semeval_dir / "test.tsv").read_bytes())
        assert len(read_splits(tmp_path, [Split.VAL]).examples) == len(test)
        with pytest.raises(CorpusError, match="train.tsv"):
            read_splits(tmp_path, [Split.TRAIN])

    def test_one_file_holds_test_texts(self, semeval_dir):
        path = semeval_dir / "train.tsv"
        texts = read_splits(path, [Split.TEST]).examples
        assert [ex.id for ex in texts] == [
            ex.id for ex in load_semeval(semeval_dir, seed=7).train_pool()]
        assert {ex.split for ex in texts} == {Split.TEST}
        with pytest.raises(CorpusError, match="no examples in split Val"):
            read_splits(path, [Split.VAL])

    def test_a_split_with_no_texts(self, tmp_path):
        (tmp_path / "train.tsv").write_text(
            "ID\tTarget\tTweet\tStance\n1\tX\thello\tFAVOR\n",
            encoding="utf-8")
        # one text per target carves no val text
        with pytest.raises(CorpusError, match="no examples in split Val"):
            read_splits(tmp_path, [Split.VAL])
        assert len(read_splits(tmp_path, [Split.TRAIN]).examples) == 1


# The TSV reader's edge cases, in each layout: (header columns, a row's
# fields from its id, text and label index, the id an example read from
# line N of file STEM gets, and the read). The argument layout is read with
# and without its optional sentenceHash column, which here comes last.
_STANCE_WORDS = ("FAVOR", "NONE", "AGAINST")
_ARG_WORDS = ("Argument_for", "NoArgument", "Argument_against")
TSV_LAYOUTS = {
    "tweet": (["ID", "Target", "Tweet", "Stance"],
              lambda key, text, y: [key, "X", text, _STANCE_WORDS[y]],
              lambda key, stem, line: key,
              lambda path: read_splits(path, [Split.TEST])),
    "argument": (["topic", "sentence", "annotation", "set"],
                 lambda key, text, y: ["X", text, _ARG_WORDS[y], "test"],
                 lambda key, stem, line: f"{stem}-{line}",
                 lambda path: read_splits(path, [Split.TEST], ukp=True)),
    "argument-hash": (["topic", "sentence", "annotation", "set",
                       "sentenceHash"],
                      lambda key, text, y: ["X", text, _ARG_WORDS[y], "test",
                                            key],
                      lambda key, stem, line: key,
                      lambda path: read_splits(path, [Split.TEST], ukp=True)),
}
_ROWS = [("k1", "First text here", 0), ("k2", "second TEXT", 2),
         ("k3", "third words", 1)]


def _write_tsv(path, lines, end="\n"):
    path.write_text("".join(line + end for line in lines), encoding="utf-8")
    return path


def _summary(examples):
    return [(ex.id, ex.target, ex.stance, ex.split, ex.tokens)
            for ex in examples]


def _want(layout, stem, lines):
    """The examples of _ROWS read from the given physical lines."""
    key_of = TSV_LAYOUTS[layout][2]
    return [(key_of(key, stem, line), "X", LABELS[y], Split.TEST,
             tuple(tokenize(text)))
            for (key, text, y), line in zip(_ROWS, lines)]


@pytest.mark.parametrize("layout", sorted(TSV_LAYOUTS))
class TestTsvRows:
    def _lines(self, layout, rows=_ROWS):
        header, row = TSV_LAYOUTS[layout][:2]
        return ["\t".join(header)] + ["\t".join(row(*r)) for r in rows]

    def test_a_blank_first_line_is_the_header(self, layout, tmp_path):
        header, _, _, read = TSV_LAYOUTS[layout]
        path = _write_tsv(tmp_path / "a.tsv", [""] + self._lines(layout))
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}: missing columns {header[:4]}")):
            read(path)

    def test_blank_rows_are_skipped_and_counted(self, layout, tmp_path):
        read = TSV_LAYOUTS[layout][3]
        head, *rows = self._lines(layout)
        path = _write_tsv(tmp_path / "a.tsv",
                          [head, rows[0], "", "", rows[1], "", rows[2]])
        assert _summary(read(path).examples) == _want(layout, "a", [2, 5, 7])
        # the line numbers of errors count the blank rows too
        bad = rows[2].replace(_ARG_WORDS[1], "Maybe").replace("NONE",
                                                              "Maybe")
        _write_tsv(path, [head, rows[0], "", "", rows[1], "", bad])
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}:7: unknown stance value 'Maybe'")):
            read(path)

    def test_line_ends_crlf_and_lone_cr_read_as_lf(self, layout, tmp_path):
        read = TSV_LAYOUTS[layout][3]
        lines = self._lines(layout)
        want = _summary(read(_write_tsv(tmp_path / "a.tsv", lines)).examples)
        assert want == _want(layout, "a", [2, 3, 4])
        for end in ("\r\n", "\r"):
            path = _write_tsv(tmp_path / "a.tsv", lines + [""], end)
            assert _summary(read(path).examples) == want

    def test_a_repeated_header_name_takes_the_last_column(self, layout,
                                                          tmp_path):
        header, _, _, read = TSV_LAYOUTS[layout]
        text_col = header[2] if layout == "tweet" else "sentence"
        lines = self._lines(layout)
        lines = ([lines[0] + "\t" + text_col]
                 + [line + "\t" + text.swapcase() + " Extra"
                    for line, (_, text, _) in zip(lines[1:], _ROWS)])
        path = _write_tsv(tmp_path / "a.tsv", lines)
        got = _summary(read(path).examples)
        assert [ex[4] for ex in got] == [
            tuple(tokenize(text.swapcase() + " Extra")) for _, text, _ in _ROWS]
        # a row that stops short of the last column with the name is short
        _write_tsv(path, lines[:2] + self._lines(layout)[2:])
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}:3: malformed row (short fields)")):
            read(path)

    def test_a_short_row_names_its_line(self, layout, tmp_path):
        read = TSV_LAYOUTS[layout][3]
        head, *rows = self._lines(layout)
        short = "\t".join(rows[1].split("\t")[:3])
        path = _write_tsv(tmp_path / "a.tsv", [head, rows[0], "", short])
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}:4: malformed row (short fields)")):
            read(path)

    def test_extra_trailing_fields_are_ignored(self, layout, tmp_path):
        read = TSV_LAYOUTS[layout][3]
        head, *rows = self._lines(layout)
        path = _write_tsv(tmp_path / "a.tsv",
                          [head] + [row + "\textra\tfields" for row in rows])
        assert _summary(read(path).examples) == _want(layout, "a", [2, 3, 4])


def test_a_duplicate_tweet_id_names_both_physical_lines(tmp_path):
    path = _write_tsv(tmp_path / "a.tsv", [
        "ID\tTarget\tTweet\tStance", "", "1\tX\thello\tFAVOR", "",
        "2\tX\tthere\tNONE", "", "", "1\tX\tbye\tNONE"])
    with pytest.raises(CorpusError, match=re.escape(
            f"{path}:8: duplicate example id '1', first on line 3")):
        read_splits(path, [Split.TEST])


def test_an_argument_row_short_of_only_its_sentence_hash_is_named_by_line(
        tmp_path):
    header, row, _, read = TSV_LAYOUTS["argument-hash"]
    lines = ["\t".join(header)] + ["\t".join(row(*r)) for r in _ROWS]
    lines[2] = lines[2].rsplit("\t", 1)[0]
    got = _summary(read(_write_tsv(tmp_path / "a.tsv", lines)).examples)
    assert [ex[0] for ex in got] == ["k1", "a-3", "k3"]


class TestVocabulary:
    def test_from_docs(self):
        vocab = Vocabulary.from_docs([["b", "a", "b"], ["a", "c"]])
        assert vocab.tokens == ["a", "b", "c"]
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        # a vocabulary keeps no per-token statistics, such as frequencies
        assert [f.name for f in dataclasses.fields(vocab)] == ["tokens",
                                                               "index"]
        assert len(vocab) == 3
