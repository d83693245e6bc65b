"""Loader fidelity, tokenizer rules, stance partitioning, input errors."""

import random

import pytest

from conftest import SEMEVAL_TABLE, UKP_TABLE
from cosd.corpus import (LABELS, CorpusError, Split, Stance, Vocabulary,
                         load_semeval, load_ukp, read_splits, stance_subsets,
                         tokenize)


def by_stance(examples):
    counts = {label: 0 for label in LABELS}
    for ex in examples:
        counts[ex.stance] += 1
    return tuple(counts[label] for label in LABELS)


class TestTokenize:
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
        for split in ("train", "test"):
            (tmp_path / f"{split}.tsv").write_text(
                f"ID\tTarget\tTweet\tStance\n{split}-1\tX\thello\tFAVOR\n"
                f"{split}-2\tX\tbye\tNONE\n", encoding="utf-8")
        path = tmp_path / name
        raw = path.read_bytes()
        at = raw.index(b"bye")
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        with pytest.raises(CorpusError,
                           match=f"{name}:3: invalid UTF-8 at byte {at}"):
            load_semeval(tmp_path)
        with pytest.raises(CorpusError, match=f"{name}:3: invalid UTF-8"):
            read_splits(path, [Split.TEST])


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
            lines = ["ID\tTarget\tTweet\tStance"] + [
                f"{ex.id}\t{ex.target}\t{ex.text}\t{ex.stance.value}"
                for ex in full.split(split)]
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


class TestVocabulary:
    def test_from_docs(self):
        vocab = Vocabulary.from_docs([["b", "a", "b"], ["a", "c"]])
        assert vocab.tokens == ["a", "b", "c"]
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        assert vocab.doc_freq == [2, 1, 1]  # per-document, not per-token
        assert len(vocab) == 3
