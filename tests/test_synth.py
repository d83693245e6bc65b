"""Synthetic-corpus generator tests.

The generator is itself a test oracle elsewhere, so these checks pin the
properties other tests lean on: loadability through the tweet-schema loader,
balanced stances, planted-topic token discipline, orthonormal prototypes,
and nearest-prototype separability of the embeddings.
"""

import json

import numpy as np
import pytest

from conftest import record_rows
from cosd.corpus import Split, Stance, load_semeval, tokenize
from cosd.synth import TARGET, make_synthetic
from cosd.training import load_embeddings


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth-default")
    paths = make_synthetic(root, seed=11, n_train=120, n_val=30, n_test=30,
                           h=3, words_per_topic=6)
    return root, paths


def test_default_split_sizes(tmp_path):
    paths = make_synthetic(tmp_path, seed=0, n_train=30, n_val=9, n_test=9,
                           h=2, words_per_topic=5)
    for key in ("train", "val", "test", "embeddings", "truth"):
        assert paths[key].is_file()
    assert len(paths["train"].read_text().splitlines()) == 31  # header + rows


def test_loads_through_tweet_loader(synth):
    root, _ = synth
    dataset = load_semeval(root)
    assert dataset.targets == [TARGET]
    assert not dataset.val_carved
    assert len(dataset.split(Split.TRAIN)) == 120
    assert len(dataset.split(Split.VAL)) == 30
    assert len(dataset.split(Split.TEST)) == 30
    assert len(dataset.train_pool()) == 120


def test_stances_balanced_round_robin(synth):
    root, _ = synth
    dataset = load_semeval(root)
    for split, n in ((Split.TRAIN, 120), (Split.VAL, 30), (Split.TEST, 30)):
        examples = dataset.split(split)
        per = {s: sum(1 for ex in examples if ex.stance is s)
               for s in (Stance.FAVOR, Stance.NONE, Stance.AGAINST)}
        assert per == {Stance.FAVOR: n // 3, Stance.NONE: n // 3,
                       Stance.AGAINST: n // 3}


def test_tokens_come_from_the_planted_stance_block(synth):
    root, paths = synth
    truth = json.loads(paths["truth"].read_text())
    topic_words = truth["topic_words"]
    h = truth["h"]
    block_of = {}
    for topic, words in enumerate(topic_words):
        for w in words:
            block_of[w] = topic // h
    dataset = load_semeval(root)
    stance_block = {Stance.FAVOR: 0, Stance.NONE: 1, Stance.AGAINST: 2}
    dominant_share = []
    for ex in dataset.examples:
        assert ex.tokens, ex.id
        blocks = {block_of[t] for t in ex.tokens}
        assert blocks == {stance_block[ex.stance]}, ex.id
        dom = truth["docs"][ex.id]["dominant_topic"]
        dom_words = set(topic_words[dom])
        dominant_share.append(
            sum(t in dom_words for t in ex.tokens) / len(ex.tokens))
    # 85% of tokens draw from the dominant topic in expectation
    assert np.mean(dominant_share) > 0.7


def test_every_dominant_topic_appears(synth):
    root, paths = synth
    truth = json.loads(paths["truth"].read_text())
    doms = {d["dominant_topic"] for d in truth["docs"].values()}
    assert doms == set(range(3 * truth["h"]))


def test_words_are_tokenizer_safe_and_unique(synth):
    _, paths = synth
    truth = json.loads(paths["truth"].read_text())
    flat = [w for words in truth["topic_words"] for w in words]
    assert len(flat) == len(set(flat))
    for w in flat:
        assert tokenize(w) == [w]


def test_prototypes_orthonormal(synth):
    _, paths = synth
    truth = json.loads(paths["truth"].read_text())
    protos = np.array(truth["prototypes"])
    assert protos.shape == (3, 768)
    assert np.allclose(protos @ protos.T, np.eye(3), atol=1e-10)


def test_nearest_prototype_separates_pooled_vectors(synth):
    root, paths = synth
    truth = json.loads(paths["truth"].read_text())
    protos = np.array(truth["prototypes"])
    store = load_embeddings(paths["embeddings"])
    dataset = load_semeval(root)
    stance_row = {Stance.FAVOR: 0, Stance.NONE: 1, Stance.AGAINST: 2}
    hits = 0
    for ex in dataset.examples:
        (rows,) = record_rows(store.tokens, ex.id)
        scores = protos @ rows.mean(axis=0, dtype=np.float64)
        hits += int(np.argmax(scores) == stance_row[ex.stance])
    assert hits / len(dataset.examples) >= 0.95


def test_embedding_records_complete(synth):
    root, paths = synth
    store = load_embeddings(paths["embeddings"])
    dataset = load_semeval(root)
    assert ({rec_id for rec_id, _ in store.tokens.items()}
            == {ex.id for ex in dataset.examples})
    assert set(store.targets) == {TARGET}
    assert set(store.labels) == {"favor", "none", "against"}
    # every synthetic word is one token, so a text has a row per token
    texts = dataset.examples[:10]
    for ex, rows in zip(texts, record_rows(store.tokens,
                                           *(ex.id for ex in texts))):
        assert rows.shape == (len(ex.tokens), 768)


def test_generator_deterministic_per_seed(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    pa = make_synthetic(a, seed=4, n_train=12, n_val=3, n_test=3, h=2,
                        words_per_topic=5)
    pb = make_synthetic(b, seed=4, n_train=12, n_val=3, n_test=3, h=2,
                        words_per_topic=5)
    pc = make_synthetic(c, seed=5, n_train=12, n_val=3, n_test=3, h=2,
                        words_per_topic=5)
    for key in ("train", "val", "test", "embeddings", "truth"):
        assert pa[key].read_bytes() == pb[key].read_bytes()
    assert pa["train"].read_bytes() != pc["train"].read_bytes()
