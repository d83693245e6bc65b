"""Loader fidelity, tokenizer rules, stance partitioning, input errors."""

import random

import pytest

from conftest import SEMEVAL_TABLE, UKP_TABLE
from cosd.corpus import (LABELS, CorpusError, Split, Stance, Vocabulary,
                         load_semeval, load_ukp, stance_subsets, tokenize)


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


class TestVocabulary:
    def test_from_docs(self):
        vocab = Vocabulary.from_docs([["b", "a", "b"], ["a", "c"]])
        assert vocab.tokens == ["a", "b", "c"]
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        assert vocab.doc_freq == [2, 1, 1]  # per-document, not per-token
        assert len(vocab) == 3
