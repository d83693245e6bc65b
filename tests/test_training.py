"""Training-side tests: embedding file IO, attention pooling, losses,
seed derivation, and a miniature end-to-end run on the synthetic corpus.

Loss oracles are closed-form scalar evaluations of the tape's losses
(tape.py), which cpa.batch_loss is checked against; the run-level checks pin
determinism, best-checkpoint bookkeeping, and the frozen-batch descent
property at a tiny learning rate.
"""

import dataclasses
import re
import struct
import zlib

import numpy as np
import pytest

from conftest import record_rows
import cosd.training
from cosd import cpa, graph, inference, metrics
from cosd.corpus import (LABELS, Dataset, Example, Split, Stance,
                         load_semeval, stance_subsets)
from cosd.synth import make_synthetic
from cosd.topics import fit_triples, fold_in_sets, perplexity
from cosd.training import (
    AdamState,
    ConfigError,
    EmbeddingWriter,
    EncoderStore,
    RunConfig,
    TrainingError,
    adam_step,
    attention_weights,
    build_groups,
    derive_seed,
    fit_topics,
    fold_in_matrix,
    group_keys,
    load_embeddings,
    missing_ids,
    save_embeddings,
    semantic_matrix,
    train,
    train_group,
)
from tape import Tensor, backward, loss_contrastive

LN2 = float(np.log(2.0))


# --- embedding file IO --------------------------------------------------------


def _records(rng, dim=8):
    return [
        ("ex-1", rng.standard_normal((3, dim))),
        ("ex-2", rng.standard_normal((1, dim))),
        ("target:Policy", rng.standard_normal((1, dim))),
        ("label:favor", rng.standard_normal((1, dim))),
        ("label:none", rng.standard_normal((1, dim))),
        ("label:against", rng.standard_normal((2, dim))),
    ]


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = _records(rng)
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, records, dim=8)
    store = load_embeddings(path, expect_dim=8)
    assert store.dim == 8
    assert [rec_id for rec_id, _ in store.tokens.items()] == ["ex-1", "ex-2"]
    assert set(store.targets) == {"Policy"}
    assert set(store.labels) == {"favor", "none", "against"}
    # storage is float32; loaded values are the rounded ones exactly
    assert np.array_equal(*record_rows(store.tokens, "ex-1"),
                          records[0][1].astype(np.float32).astype(np.float64))
    assert np.allclose(store.labels["against"],
                       records[5][1].astype(np.float32).mean(axis=0))


def test_embeddings_writer_is_deterministic(tmp_path):
    records = _records(np.random.default_rng(1))
    a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_embeddings(a, records, dim=8)
    save_embeddings(b, records, dim=8)
    assert a.read_bytes() == b.read_bytes()


def test_embedding_writer_streams_the_save_embeddings_bytes(tmp_path):
    records = _records(np.random.default_rng(3))
    whole, streamed = tmp_path / "whole.emb1", tmp_path / "streamed.emb1"
    save_embeddings(whole, records, dim=8)
    with EmbeddingWriter(streamed, len(records), dim=8) as out:
        for rec_id, mat in records:
            out.write(rec_id, mat)
    assert streamed.read_bytes() == whole.read_bytes()


def test_embedding_writer_enforces_the_header_count(tmp_path):
    with pytest.raises(TrainingError, match="1 records written, header"):
        with EmbeddingWriter(tmp_path / "short.emb1", 2, dim=4) as out:
            out.write("a", np.ones(4))
    with EmbeddingWriter(tmp_path / "long.emb1", 1, dim=4) as out:
        out.write("a", np.ones(4))
        with pytest.raises(TrainingError, match="past the header's count"):
            out.write("b", np.ones(4))
    with pytest.raises(TrainingError, match="has dim 3"):
        with EmbeddingWriter(tmp_path / "dim.emb1", 1, dim=4) as out:
            out.write("a", np.ones(3))


def test_embeddings_single_record_store(tmp_path):
    path = tmp_path / "one.emb1"
    save_embeddings(path, [("only", np.ones((1, 8)))], dim=8)
    store = load_embeddings(path, expect_dim=8)
    assert [rec_id for rec_id, _ in store.tokens.items()] == ["only"]
    assert (store.targets, store.labels) == ({}, {})


def test_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "narrow.emb1"
    save_embeddings(path, [("x", np.ones((1, 300)))], dim=300)
    with pytest.raises(TrainingError):
        load_embeddings(path)  # default expectation is 768


def test_embeddings_corruption_errors(tmp_path):
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, _records(np.random.default_rng(2)), dim=8)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.emb1"
    bad_magic.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(TrainingError):
        load_embeddings(bad_magic, expect_dim=8)

    trailing = tmp_path / "trail.emb1"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(TrainingError):
        load_embeddings(trailing, expect_dim=8)

    # padded to the size of a one-row record, so the count is plausible
    zero_rows = tmp_path / "zero.emb1"
    zero_rows.write_bytes(b"EMB1" + struct.pack("<II", 1, 4)
                          + struct.pack("<I", 1) + b"x"
                          + struct.pack("<I", 0) + bytes(16))
    with pytest.raises(TrainingError, match="zero rows"):
        load_embeddings(zero_rows, expect_dim=4)

    # a count the file cannot hold fails before anything is allocated
    huge_count = tmp_path / "count.emb1"
    huge_count.write_bytes(b"EMB1" + struct.pack("<II", 2**32 - 1, 4)
                           + raw[12:])
    with pytest.raises(TrainingError, match="records cannot fit"):
        load_embeddings(huge_count, expect_dim=4)

    dupe = tmp_path / "dupe.emb1"
    save_embeddings(dupe, [("x", np.ones((1, 4))), ("x", np.ones((1, 4)))],
                    dim=4)
    with pytest.raises(TrainingError):
        load_embeddings(dupe, expect_dim=4)

    bad_label = tmp_path / "label.emb1"
    save_embeddings(bad_label, [("label:maybe", np.ones((1, 4)))], dim=4)
    with pytest.raises(TrainingError):
        load_embeddings(bad_label, expect_dim=4)

    with pytest.raises(TrainingError):
        load_embeddings(tmp_path / "absent.emb1", expect_dim=8)


def test_embeddings_truncated_at_every_offset_raise_training_error(tmp_path):
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, [("ex-1", np.ones((2, 4))),
                           ("label:favor", np.ones((1, 4)))], dim=4)
    raw = path.read_bytes()
    cut = tmp_path / "cut.emb1"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(TrainingError, match="cut.emb1") as err:
            load_embeddings(cut, expect_dim=4)
        # a skip past the end fails where it is made, inside the file
        at = re.search(r"at byte (\d+)$", str(err.value))
        assert at is None or int(at.group(1)) <= size
    cut.write_bytes(raw + b"\x00")
    with pytest.raises(TrainingError, match="trailing bytes"):
        load_embeddings(cut, expect_dim=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embeddings_reject_non_finite_values(tmp_path, bad):
    vecs = np.ones((2, 4))
    vecs[1, 2] = bad
    path = tmp_path / "bad.emb1"
    for rec_id in ("ex-1", "target:Policy", "label:none"):
        save_embeddings(path, [("fine", np.ones((1, 4))), (rec_id, vecs)],
                        dim=4)
        with pytest.raises(TrainingError, match=f"'{rec_id}' has non-finite"):
            # target and label records are read by the load, an example
            # record when its rows are asked for
            record_rows(load_embeddings(path, expect_dim=4).tokens, rec_id)


def _record_offsets(records, dim):
    """Byte offset of each record of save_embeddings(records, dim)."""
    offsets, at = [], 12
    for rec_id, mat in records:
        offsets.append(at)
        at += 8 + len(rec_id.encode("utf-8")) + 4 * dim * len(np.atleast_2d(mat))
    return offsets


def test_embeddings_index_ids_longer_than_the_read_ahead(tmp_path):
    rng = np.random.default_rng(8)
    long_id, target = "é" * 200, "ü" * 150  # 400 and 307 bytes of UTF-8
    records = [("ex-1", rng.standard_normal((2, 4))),
               (long_id, rng.standard_normal((3, 4))),
               (f"target:{target}", rng.standard_normal((2, 4))),
               ("ex-2", rng.standard_normal((1, 4)))]
    path = tmp_path / "long.emb1"
    save_embeddings(path, records, dim=4)
    store = load_embeddings(path, expect_dim=4)
    texts = [records[i] for i in (0, 1, 3)]
    assert [rec_id for rec_id, _ in store.tokens.items()] == [
        rec_id for rec_id, _ in texts]
    for (_, mat), rows in zip(texts, record_rows(
            store.tokens, *(rec_id for rec_id, _ in texts))):
        assert np.array_equal(rows, mat.astype(np.float32))
    assert np.array_equal(store.targets[target], records[2][1].astype(
        np.float32).mean(axis=0, dtype=np.float64))
    assert semantic_matrix(_examples((long_id, target)),
                           store).shape == (1, 4)


@pytest.mark.parametrize("raw_id", [b"ok\xff", b"\xe9" * 300])
def test_embeddings_name_an_invalid_utf8_id_at_its_first_byte(tmp_path,
                                                              raw_id):
    path = tmp_path / "utf.emb1"
    save_embeddings(path, [("ex-1", np.ones((2, 4)))], dim=4)
    at = path.stat().st_size
    path.write_bytes(b"EMB1" + struct.pack("<II", 2, 4)
                     + path.read_bytes()[12:]
                     + struct.pack("<I", len(raw_id)) + raw_id
                     + struct.pack("<I", 1) + bytes(16))
    with pytest.raises(TrainingError,
                       match=f"utf.emb1: invalid UTF-8 at byte {at + 4}$"):
        load_embeddings(path, expect_dim=4)


@pytest.mark.parametrize("cut, need, left, field", [
    (2, 4, 2, 0),    # inside the id length
    (7, 5, 3, 4),    # inside the id
    (11, 4, 2, 9),   # inside the row count
])
def test_embeddings_cut_inside_a_record_header_name_the_field(
        tmp_path, cut, need, left, field):
    records = [("ex-1", np.ones((3, 4))), ("ex-22", np.ones((1, 4)))]
    path = tmp_path / "cut.emb1"
    save_embeddings(path, records, dim=4)
    at = _record_offsets(records, 4)[1]
    path.write_bytes(path.read_bytes()[:at + cut])
    with pytest.raises(TrainingError, match=(
            f"cut.emb1: truncated, {need} bytes needed but {left} left at "
            f"byte {at + field}$")):
        load_embeddings(path, expect_dim=4)


@pytest.mark.parametrize("rec_id", ["target:Policy", "label:none", "ex-2"])
def test_embeddings_reject_a_repeated_record(tmp_path, rec_id):
    records = _records(np.random.default_rng(4))
    records.append((rec_id, np.ones((1, 8))))
    path = tmp_path / "again.emb1"
    save_embeddings(path, records, dim=8)
    at = _record_offsets(records, 8)[-1]
    with pytest.raises(TrainingError,
                       match=f"duplicate record '{rec_id}' at byte {at}$"):
        load_embeddings(path, expect_dim=8)


def test_embeddings_name_a_repeated_text_id_at_its_second_record(tmp_path):
    records = [("ex-1", np.ones((2, 4))), ("ex-2", np.ones((1, 4))),
               ("label:none", np.ones((1, 4))), ("ex-1", np.ones((3, 4)))]
    path = tmp_path / "again.emb1"
    save_embeddings(path, records, dim=4)
    at = _record_offsets(records, 4)[3]
    with pytest.raises(TrainingError, match=(
            f"again.emb1: duplicate record 'ex-1' at byte {at}$")):
        load_embeddings(path, expect_dim=4)


def test_embeddings_name_a_zero_row_text_record_at_its_start(tmp_path):
    records = [("ex-1", np.ones((2, 4))), ("ex-2", np.ones((1, 4)))]
    path = tmp_path / "zero.emb1"
    save_embeddings(path, records, dim=4)
    at = _record_offsets(records, 4)[1]
    # ex-2's row count set to 0; its row stays, so the count still fits
    raw = bytearray(path.read_bytes())
    raw[at + 4 + 4:at + 4 + 4 + 4] = struct.pack("<I", 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(TrainingError, match=(
            f"zero.emb1: record 'ex-2' has zero rows at byte {at}$")):
        load_embeddings(path, expect_dim=4)


def test_embeddings_name_text_rows_cut_short_where_the_rows_start(tmp_path):
    records = [("ex-1", np.ones((2, 4))), ("ex-22", np.ones((3, 4)))]
    path = tmp_path / "cut.emb1"
    save_embeddings(path, records, dim=4)
    rows_at = _record_offsets(records, 4)[1] + 8 + 5
    path.write_bytes(path.read_bytes()[:rows_at + 40])
    with pytest.raises(TrainingError, match=(
            f"cut.emb1: truncated, 48 bytes needed but 40 left at "
            f"byte {rows_at}$")):
        load_embeddings(path, expect_dim=4)


def test_embeddings_subset_read_checks_only_the_values_it_reads(tmp_path):
    bad = np.ones((2, 4))
    bad[1, 3] = np.nan
    records = [("fine", np.ones((1, 4))), ("ex-1", bad),
               ("label:none", np.ones((1, 4)))]
    path = tmp_path / "bad.emb1"
    save_embeddings(path, records, dim=4)
    at = _record_offsets(records, 4)[1]
    store = load_embeddings(path, expect_dim=4)
    assert np.array_equal(*record_rows(store.tokens, "fine"), np.ones((1, 4)))
    with pytest.raises(TrainingError,
                       match=f"'ex-1' has non-finite values at byte {at}$"):
        record_rows(store.tokens, "ex-1")


def _reversed(path, records):
    save_embeddings(path, records[::-1], dim=8)


def _more_rows(path, records):
    save_embeddings(path, [(rec_id, np.ones((4, 8)) if rec_id == "ex-2"
                            else mat) for rec_id, mat in records], dim=8)


def _cut(path, records):
    path.write_bytes(path.read_bytes()[:_record_offsets(records, 8)[1] + 20])


def _one_more(path, records):
    save_embeddings(path, records + [("ex-3", np.ones((1, 8)))], dim=8)


@pytest.mark.parametrize("rewrite, message", [
    (_reversed, "record 'ex-2' changed since the file was indexed at byte "
                "120$"),
    (_more_rows, "record 'ex-2' changed since the file was indexed"),
    (_cut, "truncated"),
    (_one_more, "header changed since the file was indexed at byte 4$"),
])
def test_a_file_rewritten_after_indexing_fails_the_read(tmp_path, rewrite,
                                                        message):
    records = _records(np.random.default_rng(6))
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, records, dim=8)
    store = load_embeddings(path, expect_dim=8)
    rewrite(path, records)
    with pytest.raises(TrainingError, match=f"vecs.emb1: {message}"):
        record_rows(store.tokens, "ex-2")


def semantic_rep(token_matrix, target_vec):
    """Oracle of a semantic_matrix row: one record's rows converted to
    float64 on their own and pooled by their attention weights."""
    m = np.atleast_2d(np.asarray(token_matrix, dtype=np.float64))
    return attention_weights(m, target_vec) @ m


def _more_records(rng, dim=8):
    return _records(rng, dim) + [(f"ex-{i}", rng.standard_normal((i % 3 + 1,
                                                                   dim)))
                                 for i in range(3, 9)]


def test_semantic_rows_equal_each_record_stacked(tmp_path):
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, _more_records(np.random.default_rng(7)), dim=8)
    store = load_embeddings(path, expect_dim=8)
    examples = [Example(id=rec_id, target="Policy", stance=Stance.NONE,
                        split=Split.TEST, tokens=("t",))
                for rec_id in ("ex-5", "ex-1", "ex-8", "ex-1")]
    target = store.targets["Policy"]
    assert np.array_equal(semantic_matrix(examples, store), np.stack(
        [semantic_rep(rows, target) for rows in
         record_rows(store.tokens, *(ex.id for ex in examples))]))


def _examples(*pairs):
    """Test examples of (record id, target) pairs, in the order given."""
    return [Example(id=rec_id, target=target, stance=Stance.NONE,
                    split=Split.TEST, tokens=("t",))
            for rec_id, target in pairs]


def test_semantic_rows_read_in_file_order_equal_the_per_text_oracle(
        tmp_path):
    rng = np.random.default_rng(11)
    dim = 16
    # each long record sits just before a short one in the file, and its
    # rows are large, so a short record's row that read the buffer's stale
    # rows would differ
    records = [("long-1", 1e6 * rng.standard_normal((9, dim))),
               ("short-1", rng.standard_normal((2, dim))),
               ("mid", rng.standard_normal((5, dim))),
               ("long-2", -1e6 * rng.random((12, dim))),
               ("short-2", rng.standard_normal((1, dim))),
               ("target:A", rng.standard_normal((1, dim))),
               ("target:B", rng.standard_normal((3, dim)))]
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, records, dim=dim)
    store = load_embeddings(path, expect_dim=dim)
    # out of file order, over two targets, one record scored twice
    examples = _examples(("short-2", "B"), ("mid", "A"), ("long-2", "A"),
                         ("short-1", "B"), ("long-1", "A"), ("mid", "B"),
                         ("short-1", "A"))
    want = np.stack([semantic_rep(rows, store.targets[ex.target])
                     for ex, rows in zip(examples, record_rows(
                         store.tokens, *(ex.id for ex in examples)))])
    assert np.array_equal(semantic_matrix(examples, store), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_semantic_rows_reject_a_short_records_last_value(tmp_path, bad):
    dim = 8
    short = np.ones((2, dim))
    short[-1, -1] = bad
    records = [("long", np.ones((6, dim))), ("short", short),
               ("target:A", np.ones((1, dim)))]
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, records, dim=dim)
    store = load_embeddings(path, expect_dim=dim)
    at = _record_offsets(records, dim)[1]
    # the long record is read first, and its finite rows stay in the
    # buffer past the short record's
    with pytest.raises(TrainingError, match=f"record 'short' has non-finite "
                                            f"values at byte {at}$"):
        semantic_matrix(_examples(("short", "A"), ("long", "A")), store)


# a target vector with an exact 0, so a bad value's logit may be NaN
# (inf times 0), +inf or -inf (a token weight of exactly 0)
_TARGET = np.array([0.5, -2.0, 0.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("col", [0, 1, 2, 3])
def test_semantic_rows_reject_every_non_finite_value_as_its_read_does(
        tmp_path, bad, row, col):
    rows = np.random.default_rng(row * 4 + col).standard_normal((3, 4))
    rows[row, col] = bad
    records = [("fine", np.ones((2, 4))), ("x", rows),
               ("target:T", _TARGET[None])]
    path = tmp_path / "bad.emb1"
    save_embeddings(path, records, dim=4)
    store = load_embeddings(path, expect_dim=4)
    at = _record_offsets(records, 4)[1]
    with pytest.raises(TrainingError) as read:
        record_rows(store.tokens, "x")
    assert str(read.value).endswith(
        f"bad.emb1: record 'x' has non-finite values at byte {at}")
    with pytest.raises(TrainingError) as pooled:
        semantic_matrix(_examples(("fine", "T"), ("x", "T")), store)
    assert str(pooled.value) == str(read.value)


def test_a_non_finite_token_of_weight_zero_still_fails_its_row(tmp_path):
    # -inf against a positive target entry: its logit is -inf, its weight
    # exactly 0, and 0 times -inf is NaN in the pooled row
    rows = np.ones((3, 4))
    rows[1, 3] = -np.inf
    with np.errstate(invalid="ignore"):
        weights = attention_weights(rows, _TARGET)
    assert weights[1] == 0.0 and np.isfinite(weights).all()
    path = tmp_path / "zero.emb1"
    records = [("x", rows), ("target:T", _TARGET[None])]
    save_embeddings(path, records, dim=4)
    store = load_embeddings(path, expect_dim=4)
    with pytest.raises(TrainingError,
                       match="record 'x' has non-finite values at byte 12$"):
        semantic_matrix(_examples(("x", "T")), store)


@pytest.mark.parametrize("order", [("b", "a", "ok"), ("ok", "a", "b")])
def test_semantic_rows_name_the_first_non_finite_record_in_the_file(
        tmp_path, order):
    bad = np.ones((2, 4))
    bad[0, 0] = np.nan
    records = [("ok", np.ones((1, 4))), ("a", bad), ("b", -np.inf * bad),
               ("target:T", _TARGET[None])]
    path = tmp_path / "two.emb1"
    save_embeddings(path, records, dim=4)
    store = load_embeddings(path, expect_dim=4)
    at = _record_offsets(records, 4)[1]
    with pytest.raises(TrainingError,
                       match=f"record 'a' has non-finite values at byte {at}$"):
        semantic_matrix(_examples(*((rec_id, "T") for rec_id in order)),
                        store)


@pytest.mark.parametrize("t", [1, 2, 17, 64])
def test_embeddings_pool_to_the_float64_mean(tmp_path, t):
    rng = np.random.default_rng(t)
    mats = {rec_id: rng.standard_normal((t, 768)).astype(np.float32)
            for rec_id in ("ex-1", "target:Policy", "label:favor")}
    path = tmp_path / "vecs.emb1"
    save_embeddings(path, list(mats.items()))
    store = load_embeddings(path)
    want = {rec_id: mat.astype(np.float64).mean(axis=0)
            for rec_id, mat in mats.items()}
    # example rows keep the file's float32 values; pooled rows are float64
    (rows,) = record_rows(store.tokens, "ex-1")
    assert rows.dtype == np.float32
    assert np.array_equal(rows, mats["ex-1"])
    for got, rec_id in ((rows.mean(axis=0, dtype=np.float64), "ex-1"),
                        (store.targets["Policy"], "target:Policy"),
                        (store.labels["favor"], "label:favor")):
        assert got.dtype == np.float64
        assert np.array_equal(got, want[rec_id])


def test_label_matrix_order_and_missing():
    dim = 4
    labels = {"favor": np.full(dim, 1.0), "none": np.full(dim, 2.0),
              "against": np.full(dim, 3.0)}
    store = EncoderStore(dim=dim, tokens={}, targets={}, labels=labels)
    mat = store.label_matrix()
    assert np.array_equal(mat, [[1.0] * 4, [2.0] * 4, [3.0] * 4])
    del store.labels["none"]
    with pytest.raises(TrainingError):
        store.label_matrix()


# --- attention pooling ----------------------------------------------------------


def _semantic_row(tmp_path, rows, target):
    """semantic_matrix's row of one text whose record holds rows (stored
    as float32), against the target vector target."""
    path = tmp_path / "one.emb1"
    save_embeddings(path, [("x", rows), ("target:T", target[None])],
                    dim=len(target))
    store = load_embeddings(path, expect_dim=len(target))
    (row,) = semantic_matrix(_examples(("x", "T")), store)
    return row


def test_semantic_rep_single_token_is_identity(tmp_path):
    token = np.arange(6, dtype=float).reshape(1, 6)
    target = np.ones(6)
    assert np.array_equal(_semantic_row(tmp_path, token, target), token[0])


def test_attention_weights_sum_and_orthonormal_ratio():
    dim = 768
    tokens = np.zeros((2, dim))
    tokens[0, 0] = 1.0
    tokens[1, 1] = 1.0
    target = tokens[0]
    w = attention_weights(tokens, target)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[0] / w[1] == pytest.approx(np.exp(1.0 / np.sqrt(dim)))


def test_semantic_rep_in_convex_hull(tmp_path):
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((5, 7)).astype(np.float32)
    target = rng.standard_normal(7)
    rep = _semantic_row(tmp_path, tokens, target)
    assert (rep >= tokens.min(axis=0) - 1e-12).all()
    assert (rep <= tokens.max(axis=0) + 1e-12).all()


def test_attention_errors():
    with pytest.raises(TrainingError):
        attention_weights(np.zeros((0, 4)), np.ones(4))
    with pytest.raises(TrainingError):
        attention_weights(np.ones((2, 4)), np.ones(5))


def test_semantic_matrix_requires_records():
    store = EncoderStore(dim=4, tokens={}, targets={}, labels={})
    ex = Example(id="x", target="T", stance=Stance.FAVOR,
                 split=Split.TRAIN, tokens=("t",))
    with pytest.raises(TrainingError):
        semantic_matrix([ex], store)
    assert semantic_matrix([], store).shape == (0, 4)


# --- losses ----------------------------------------------------------------------


def _loss_rows(v, pos, negs):
    v_t = Tensor(np.atleast_2d(v), requires_grad=True)
    pos_t = Tensor(np.atleast_2d(pos), requires_grad=True)
    neg_ts = [Tensor(np.atleast_2d(n), requires_grad=True) for n in negs]
    return v_t, pos_t, neg_ts


def test_contrastive_equal_scores_is_ln2():
    v, pos, negs = _loss_rows([1.0, 0.0], [0.0, 1.0],
                              [[0.0, 2.0], [0.0, -1.0]])
    # all inner products with v are 0: every pos - neg margin is 0
    loss = loss_contrastive(v, pos, negs)
    assert loss.data[0, 0] == pytest.approx(LN2, abs=1e-12)


def test_contrastive_saturates_for_large_margin():
    v, pos, negs = _loss_rows([1.0], [20.0], [[0.0]])
    assert loss_contrastive(v, pos, negs).data[0, 0] < 1e-8


def test_contrastive_unit_margin_value():
    v, pos, negs = _loss_rows([1.0], [1.0], [[0.0]])
    expect = -np.log(1.0 / (1.0 + np.exp(-1.0)))
    got = loss_contrastive(v, pos, negs).data[0, 0]
    assert got == pytest.approx(expect, abs=1e-9)
    assert got == pytest.approx(0.313262, abs=1e-6)


def test_contrastive_positive_and_monotone():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((3, 5))
    pos = rng.standard_normal((3, 5))
    negs = [rng.standard_normal((3, 5)) for _ in range(2)]
    loss = loss_contrastive(*_loss_rows(v, pos, negs))
    assert loss.data[0, 0] > 0.0
    tighter = loss_contrastive(*_loss_rows(v, pos + 0.5 * v, negs))
    assert tighter.data[0, 0] < loss.data[0, 0]


def test_contrastive_needs_negatives_and_backprop_works():
    v, pos, _ = _loss_rows([1.0], [1.0], [])
    with pytest.raises(TrainingError):
        loss_contrastive(v, pos, [])
    v, pos, negs = _loss_rows([1.0, 2.0], [0.5, 0.5], [[1.0, -1.0]])
    loss = loss_contrastive(v, pos, negs)
    backward(loss)
    assert v.grad is not None and np.isfinite(v.grad).all()


# --- seeds and config --------------------------------------------------------------


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(1, "b", 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert 0 <= derive_seed(0) < 2 ** 32


@pytest.mark.parametrize("base", [0, 17, 2**32 + 5, 2**70 + 3])
def test_derive_seeds_equal_the_seed_sequence_oracle(base):
    ids = ["", "a", "tweet-1", "tweet-2", "Ünïcode ✓", "x" * 300]
    want = [int(np.random.SeedSequence(
        [base, 101, zlib.crc32(i.encode("utf-8"))]).generate_state(1)[0])
        for i in ids]
    assert [derive_seed(base, 101, i) for i in ids] == want
    # parts of any mix and count, as training derives them
    for parts in ([base], [base, 3, "group", 7], [base, 2**64, 0, "g"]):
        words = [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p
                 for p in parts]
        assert derive_seed(*parts) == int(
            np.random.SeedSequence(words).generate_state(1)[0])


def test_train_config_validation():
    RunConfig().validate()
    RunConfig(hops=0, alpha=0.0, dropout=0.0).validate()  # 0 = the default
    for bad in (dict(epochs=0), dict(dropout=1.0), dict(lr_cpa=0.0),
                dict(trials=0), dict(hops=-4), dict(alpha=-0.5),
                dict(beta=0.0), dict(lr_embed=float("nan")),
                dict(dataset="mystery"),
                dict(epochs=3.0), dict(joint=1)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()


# --- group data and the run ---------------------------------------------------------


@pytest.fixture(scope="module")
def synth_setup(synth_small):
    root, paths = synth_small
    dataset = load_semeval(root)
    store = load_embeddings(paths["embeddings"])
    target = dataset.targets[0]
    (triple,) = fit_triples(
        [[[ex.tokens for ex in docs]
          for docs in stance_subsets(dataset, target)]],
        h=2, alpha=50.0 / 2, sweeps=30, seeds=[3])
    return dataset, store, target, triple


def _group(dataset, store, config):
    """The record of the dataset's one training group."""
    (data,), _ = build_groups(dataset, store, config)
    return data


def _assert_graph_of(data, dis_pool):
    """data.lap is, bit for bit, the Laplacian of the pool's stances and
    these fold-in rows."""
    want = graph.laplacian(graph.build_adjacency(
        [ex.stance for ex in data.pool], dis_pool))
    for got, block in ((data.lap.to_text, want.to_text),
                       (data.lap.to_side, want.to_side)):
        assert got.dtype == block.dtype and got.shape == block.shape
        assert got.tobytes() == block.tobytes()


def _config(**kw):
    base = dict(epochs=3, hops=2, h=2, seed=5, trials=2,
                lda_sweeps=30, fold_in_sweeps=10, d1=8, dropout=0.1)
    base.update(kw)
    return RunConfig(**base)


def test_missing_ids_reporting(synth_setup):
    dataset, store, target, _ = synth_setup
    assert missing_ids(store, dataset) == []
    poked = EncoderStore(dim=store.dim, tokens=dict(store.tokens.items()),
                         targets={}, labels=dict(store.labels))
    first = dataset.examples[0].id
    del poked.tokens[first]
    missing = missing_ids(poked, dataset)
    assert first in missing
    assert f"target:{target}" in missing


def test_fold_in_matrix_rows_are_distributions(synth_setup):
    dataset, _, target, triple = synth_setup
    pool = dataset.train_pool(target)[:6]
    (mat,), _ = fold_in_matrix([(triple, pool)], sweeps=10)
    assert mat.shape == (6, 6)
    assert np.allclose(mat.sum(axis=1), 1.0)
    # a row depends on its text alone: a subset reproduces the same rows,
    # alone or as one of several pairs folded in together
    (sub,), _ = fold_in_matrix([(triple, pool[:2])], sweeps=10)
    assert np.array_equal(sub, mat[:2])
    (head, empty, tail), _ = fold_in_matrix(
        [(triple, pool[:2]), (triple, []), (triple, pool[2:])], sweeps=10)
    assert np.array_equal(head, mat[:2]) and np.array_equal(tail, mat[2:])
    assert empty.shape == (0, 6)


def test_fold_in_matrix_equals_scalar_oracle_thirds(synth_setup):
    from test_topics import cvb0_posterior

    dataset, _, target, triple = synth_setup
    pool = dataset.train_pool(target)[:8]
    (mat,), _ = fold_in_matrix([(triple, pool)], sweeps=7)
    for row, ex in zip(mat, pool):
        parts = [cvb0_posterior(m, ex.tokens, sweeps=7)
                 for m in triple.models]
        assert np.array_equal(row, np.concatenate(parts) / 3.0)


def test_perplexity_theta_is_the_training_fold_in_block(synth_setup):
    # a text's posterior under model j depends only on its tokens and that
    # model, so its theta under that model alone is block j of the row
    # training folds it in with
    dataset, _, target, triple = synth_setup
    h = triple.h
    for j, examples in enumerate(stance_subsets(dataset, target)):
        docs = [ex.tokens for ex in examples]
        (rows,), _ = fold_in_matrix([(triple, examples)], sweeps=7)
        (theta,), _ = fold_in_sets([([triple.models[j]], docs)], sweeps=7)
        assert np.array_equal(theta / 3.0, rows[:, j * h:(j + 1) * h])
        phi = triple.models[j].phi()
        index = triple.models[j].vocab.index
        log_lik = [np.log(t @ phi[:, [index[w] for w in doc if w in index]])
                   for t, doc in zip(theta, docs)]
        want = np.exp(-np.concatenate(log_lik).mean())
        assert perplexity(triple.models[j], docs,
                          theta) == pytest.approx(want, rel=1e-12)


def test_fit_topics_reads_alpha_0_as_50_over_h(synth_setup):
    # the config's 0 sentinel resolves here, to the float 50/H the topic
    # fit then takes as given; any other alpha passes through
    dataset = synth_setup[0]
    for alpha, h, want in ((0.0, 4, 50.0 / 4), (0.0, 3, 50.0 / 3),
                           (0.3, 4, 0.3)):
        (triple,) = fit_topics(dataset, _config(alpha=alpha, lda_sweeps=1), h)
        assert [m.alpha for m in triple.models] == [want] * 3


def test_build_group_data_shapes(synth_setup):
    dataset, store, target, _ = synth_setup
    # at a cap of 150 sweeps the none model settles before it and the other
    # two run to it
    (data,), stages = build_groups(dataset, store, _config(lda_sweeps=150))
    # the triple is fitted on the pool's stance subsets, seeded from the
    # base seed and the group's name
    subsets = stance_subsets(dataset, target)
    (want,) = fit_triples([[[ex.tokens for ex in docs] for docs in subsets]],
                          h=2, alpha=50.0 / 2, sweeps=150,
                          seeds=[derive_seed(5, 7, target)])
    for got_model, want_model in zip(data.triple.models, want.models):
        assert np.array_equal(got_model.topic_word_counts,
                              want_model.topic_word_counts)
        assert got_model.trained_sweeps == want_model.trained_sweeps
    assert data.graph_build_s >= 0.0
    assert set(stages) == {"topic_fit_s", "topic_fit_updates",
                           "topic_fit_capped", "fold_in_s", "fold_in_capped"}
    # one update per token and sweep its model ran: the vocabulary is built
    # from these docs, so a model's tokens are its stance subset's
    stops = [m.trained_sweeps for m in data.triple.models]
    assert stops[1] < stops[0] == stops[2] == 150
    assert stages["topic_fit_updates"] == sum(
        stop * sum(len(ex.tokens) for ex in docs)
        for stop, docs in zip(stops, subsets))
    assert stages["topic_fit_capped"] == 2
    n = len(dataset.train_pool(target))
    assert len(data.pool) == n
    (dis_pool,), _ = fold_in_matrix([(want, data.pool)], sweeps=10)
    assert dis_pool.shape == (n, 6)
    _assert_graph_of(data, dis_pool)
    assert data.lap.rows == n + 6 + 3
    assert data.sem_val.shape == (len(data.val), store.dim)
    assert np.array_equal(data.sem_pool, semantic_matrix(data.pool, store))


@pytest.mark.parametrize("alpha, capped", [(0.01, True), (0.0, False)])
def test_build_groups_counts_the_fold_ins_stopped_at_the_cap(
        synth_setup, alpha, capped):
    # at a small prior and many topics the CVB0 fixed point is slow to
    # reach, and 50 sweeps stop some (text, model) pairs short of it; at
    # the default prior of 50/H none
    dataset, store, _, _ = synth_setup
    _, stages = build_groups(dataset, store, _config(
        h=20, alpha=alpha, fold_in_sweeps=50))
    assert (stages["fold_in_capped"] > 0) == capped


def test_group_data_reads_each_record_once(synth_setup, monkeypatch):
    dataset, store, target, _ = synth_setup
    reads = []
    original = cosd.training.TokenRows._fill

    def counting(self, src, rec_id, out=None):
        reads.append(rec_id)
        return original(self, src, rec_id, out)

    monkeypatch.setattr(cosd.training.TokenRows, "_fill", counting)
    data = _group(dataset, store, _config())
    assert sorted(reads) == sorted(ex.id for ex in data.pool + data.val)


def test_train_forms_pool_semantic_rows_once_per_group(synth_setup,
                                                       monkeypatch):
    dataset, store, target, _ = synth_setup
    calls = []
    original = cosd.training.semantic_matrix

    def counting(examples, store):
        calls.append([ex.id for ex in examples])
        return original(examples, store)

    monkeypatch.setattr(cosd.training, "semantic_matrix", counting)
    train(dataset, store, _config(trials=2))
    pool = [ex.id for ex in dataset.train_pool(target)]
    assert calls.count(pool) == 1  # one group, two trials


def test_train_group_logs_and_best_checkpoint(synth_setup):
    dataset, store, target, _ = synth_setup
    config = _config()
    data = _group(dataset, store, config)
    result = train_group(data, store, config, trial_seed=7)
    assert [row["epoch"] for row in result.log_rows] == [1, 2, 3]
    best_from_log = max(row["val_micf"] for row in result.log_rows)
    assert result.best_val_micf == pytest.approx(best_from_log)
    assert result.log_rows[result.best_epoch - 1]["val_micf"] == \
        pytest.approx(result.best_val_micf)
    # the checkpoint holds U, Z and the weights, the shape load_checkpoint
    # returns
    assert result.checkpoint.h == 2
    assert result.checkpoint.side.shape == (3 * 2 + 3, store.dim)
    assert result.checkpoint.hops == config.hops
    assert all(np.isfinite(row["loss"]) for row in result.log_rows)
    assert len(result.val_preds) == len(data.val)


def test_train_group_text_rows_are_the_semantic_rows(synth_setup,
                                                     monkeypatch):
    dataset, store, target, _ = synth_setup
    config = _config()
    data = _group(dataset, store, config)
    n = len(data.pool)
    adam_params = []

    class Recording(AdamState):
        def __init__(self, params, lr):
            adam_params.append([p.shape for p in params])
            super().__init__(params, lr)

    buffers = []

    class Held(cpa.Buffers):
        def __init__(self, texts, model):
            super().__init__(texts, model)
            buffers.append(self)

    seen = []
    original = cosd.training._val_metrics

    def checked(data, model, config):
        (held,) = buffers
        seen.append((held.n, held.e0[:n].copy(), model.u.copy()))
        return original(data, model, config)

    monkeypatch.setattr(cosd.training, "AdamState", Recording)
    monkeypatch.setattr(cpa, "Buffers", Held)
    monkeypatch.setattr(cosd.training, "_val_metrics", checked)
    train_group(data, store, config, trial_seed=7)
    # Adam holds the topic and label rows and the weights, no text row
    assert adam_params[0] == [(3 * 2 + 3, store.dim)]
    assert adam_params[1] == [(store.dim, 8), (8, 8)] * 2
    assert len(seen) == config.epochs
    for n_text, texts, _ in seen:
        assert n_text == n
        assert np.array_equal(texts, data.sem_pool)  # bit for bit
    # while the topic rows train
    assert not np.array_equal(seen[0][2], seen[-1][2])


def test_train_group_takes_one_full_step_per_epoch(synth_setup, monkeypatch):
    dataset, store, target, _ = synth_setup
    config = _config(epochs=4)
    data = _group(dataset, store, config)
    steps, states = [], []
    original = cpa.batch_loss

    def counting(model, buf, lap, gold, slope):
        steps.append((lap, gold.copy()))
        return original(model, buf, lap, gold, slope=slope)

    class Recording(AdamState):
        def __init__(self, params, lr):
            super().__init__(params, lr)
            states.append(self)

    monkeypatch.setattr(cpa, "batch_loss", counting)
    monkeypatch.setattr(cosd.training, "AdamState", Recording)
    train_group(data, store, config, trial_seed=7)
    # one step per epoch over every pool text, in pool order
    gold = [LABELS.index(ex.stance) for ex in data.pool]
    assert len(steps) == config.epochs
    assert all(list(g) == gold for _, g in steps)
    assert [state.step_count for state in states] == [config.epochs] * 2
    # each epoch's graph drops what the epoch's generator draws first, in
    # the order the mini-batch trainer drew them: the to_text and to_side
    # edge masks, then the node mask, whose label nodes are kept
    n, rate = len(data.pool), config.dropout
    for epoch, (lap, _) in enumerate(steps, 1):
        rng = np.random.default_rng(derive_seed(7, 3, data.group, epoch))
        edges = [rng.random(data.lap.to_text.shape) >= rate for _ in "ts"]
        alive = rng.random(data.lap.rows) >= rate
        alive[-3:] = True
        keep = np.outer(alive[:n], alive[n:])
        for got, block, kept in zip((lap.to_text, lap.to_side),
                                    (data.lap.to_text, data.lap.to_side),
                                    edges):
            want = np.where(keep & kept, block / (1.0 - rate), 0.0)
            assert got.tobytes() == want.tobytes()


def _three_call_val_metrics(data, model, config):
    """(macf, micf, preds) of _val_metrics by one score_batch call per
    mode, each given only the rows its mode reads: the oracle."""
    golds = [ex.stance for ex in data.val]
    targets = [ex.target for ex in data.val]
    micf = {}
    for mode, sem, dis in (("no_sem", None, data.dis_val),
                           ("no_dis", data.sem_val, None),
                           ("full", data.sem_val, data.dis_val)):
        sem_scores, dis_scores = inference.score_batch(
            sem, dis, model, slope=config.leaky_slope)
        preds = inference.argmax_labels(sem_scores + dis_scores)
        macf, micf[mode] = metrics.macro_micro(preds, golds, targets)
    return macf, micf, preds


def test_val_metrics_scores_each_side_once_as_three_calls_would(
        tmp_path, monkeypatch):
    # heavy noise, so the modes' val labels differ and fall short of 1.0
    paths = make_synthetic(tmp_path, seed=5, n_train=60, n_val=45, n_test=3,
                           h=2, words_per_topic=6, noise=3.0)
    dataset = load_semeval(tmp_path)
    store = load_embeddings(paths["embeddings"])
    config = _config(epochs=4)
    data = _group(dataset, store, config)
    calls = []
    for name in ("semantic_scores", "distributed_scores"):
        def counting(*args, _name=name,
                     _original=getattr(inference, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(inference, name, counting)
    original = cosd.training._val_metrics
    epochs = []

    def checked(data, model, config):
        calls.clear()
        got = original(data, model, config)
        assert sorted(calls) == ["distributed_scores", "semantic_scores"]
        epochs.append((got, _three_call_val_metrics(data, model, config)))
        return got

    monkeypatch.setattr(cosd.training, "_val_metrics", checked)
    train_group(data, store, config, trial_seed=7)
    assert len(epochs) == config.epochs
    for got, want in epochs:
        assert got == want
    # the ablations' labels are not full mode's
    assert all(micf["full"] < 1.0 and micf["no_sem"] != micf["full"]
               for (_, micf, _), _ in epochs)


def test_frozen_batch_step_decreases_loss(synth_setup):
    dataset, store, target, _ = synth_setup
    config = _config(epochs=1)
    data = _group(dataset, store, config)
    model = cpa.init_model(2, store.label_matrix(), seed=1, d1=8, hops=2,
                           weight_seed=2)
    gold = np.array([LABELS.index(ex.stance) for ex in data.pool])
    buffers = cpa.Buffers(data.sem_pool, model)

    def batch_loss():
        return cpa.batch_loss(model, buffers, data.lap, gold)

    # as in training, the text rows stay fixed
    adam_e = AdamState([model.side], lr=1e-7)
    adam_w = AdamState(model.w1 + model.w2, lr=1e-7)
    before = batch_loss()
    adam_step(adam_e, [before.g_side])
    adam_step(adam_w, before.g_w1 + before.g_w2)
    after = batch_loss().loss
    assert after < before.loss


def test_train_run_deterministic_and_trial_sensitive(synth_setup):
    dataset, store, target, _ = synth_setup
    config = _config()
    result = train(dataset, store, config)
    again = train(dataset, store, config)
    assert result.report_csv == again.report_csv
    assert result.report_text == again.report_text
    assert len(result.trials) == 2
    a = result.trials[0][target].checkpoint
    b = result.trials[1][target].checkpoint
    assert not np.array_equal(a.side, b.side)
    same = again.trials[0][target].checkpoint
    assert np.array_equal(a.side, same.side)
    # report declares one column per target plus the two aggregates
    header = result.report_csv.splitlines()[0].split(",")
    assert header == ["run", target, "MacF", "MicF"]
    assert [row.split(",")[0] for row in result.report_csv.splitlines()[1:]] \
        == ["trial-1", "trial-2", "mean"]


def test_six_target_train_equals_per_group_fits(tmp_path):
    # train fits every group's triple in one fit and folds every
    # group's texts in with one call; each group's triple and fold-in rows
    # must be those of its own one-group fit and fold-in
    paths = make_synthetic(tmp_path, seed=3, n_train=90, n_val=30, n_test=3,
                           h=2, words_per_topic=6)
    base = load_semeval(tmp_path)
    names = [f"Target {k}" for k in range(6)]
    # groups of unequal size, so their vocabularies and longest texts differ
    picks = np.random.default_rng(3).choice(
        6, size=len(base.examples), p=[0.35, 0.25, 0.15, 0.1, 0.08, 0.07])
    dataset = Dataset([dataclasses.replace(ex, target=names[k])
                       for ex, k in zip(base.examples, picks)], names,
                      base.val_carved)
    store = load_embeddings(paths["embeddings"])
    (vector,) = store.targets.values()
    store = dataclasses.replace(store,
                                targets=dict.fromkeys(names, vector))
    config = _config(trials=1, epochs=1)
    result = train(dataset, store, config)
    assert [data.group for data in result.groups] == names
    assert set(result.stages) == {"topic_fit_s", "topic_fit_updates",
                                  "topic_fit_capped", "fold_in_s",
                                  "fold_in_capped"}
    # every group's tokens, each counted once per sweep its model ran: a
    # float sum of expected counts is an integer to rounding only
    models = [m for data in result.groups for m in data.triple.models]
    assert result.stages["topic_fit_updates"] == sum(
        m.trained_sweeps * round(m.topic_totals.sum()) for m in models)
    assert result.stages["topic_fit_capped"] == sum(
        m.trained_sweeps == 30 for m in models)
    assert len({len(data.triple.favor.vocab) for data in result.groups}) > 1
    for data in result.groups:
        assert data.pool == dataset.train_pool(data.group)
        (want,) = fit_triples(
            [[[ex.tokens for ex in docs]
              for docs in stance_subsets(dataset, data.group)]],
            h=2, alpha=50.0 / 2, sweeps=30,
            seeds=[derive_seed(5, 7, data.group)])
        for got, own in zip(data.triple.models, want.models):
            assert got.vocab.tokens == own.vocab.tokens
            assert np.array_equal(got.topic_word_counts,
                                  own.topic_word_counts)
            assert got.trained_sweeps == own.trained_sweeps
            assert got.log_joint == own.log_joint
        (dis_pool, dis_val), _ = fold_in_matrix(
            [(want, data.pool), (want, data.val)], sweeps=10)
        _assert_graph_of(data, dis_pool)
        assert np.array_equal(data.dis_val, dis_val)


def test_train_rejects_missing_records(synth_setup):
    dataset, store, _, _ = synth_setup
    poked = EncoderStore(dim=store.dim, tokens=dict(store.tokens.items()),
                         targets=dict(store.targets),
                         labels=dict(store.labels))
    del poked.tokens[dataset.examples[0].id]
    with pytest.raises(TrainingError):
        train(dataset, poked, _config())


def test_group_keys_per_target_or_joint(synth_setup):
    dataset, _, target, _ = synth_setup
    assert group_keys(dataset, joint=False) == [(target, target)]
    assert group_keys(dataset, joint=True) == [("joint", None)]
