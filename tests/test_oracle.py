import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recattack import oracle
from recattack.errors import ConfigError
from recattack.oracle import (
    BlackBox,
    BudgetExhausted,
    QuerySet,
    load_queryset,
    save_queryset,
)
from recattack.recmodel import RecommenderParams, recommend_topk


def victim(v=12, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return RecommenderParams(
        emb=rng.uniform(-0.1, 0.1, size=(v, d)),
        bias=rng.uniform(-0.1, 0.1, size=v),
        gamma=0.8,
    )


def test_query_counts_and_returns_topk():
    vic = victim()
    bb = BlackBox(vic, k=5, budget=10)
    got = bb.query([1, 2])
    assert list(got) == recommend_topk(vic, [1, 2], 5)
    assert bb.used == 1
    assert len(got) == len(set(got)) == 5


def test_budget_exhausted_at_b_plus_one():
    bb = BlackBox(victim(), k=3, budget=4)
    for _ in range(4):
        bb.query([0])
    with pytest.raises(BudgetExhausted, match=r"^query budget of 4 is spent: 0 left, 1 asked$"):
        bb.query([0])
    assert bb.used == 4


def test_query_deterministic_for_frozen_victim():
    bb = BlackBox(victim(), k=6, budget=None)
    assert bb.query([3, 1, 2]) == bb.query([3, 1, 2])


def test_victim_is_frozen_against_outside_mutation():
    vic = victim()
    bb = BlackBox(vic, k=4)
    before = bb.query([1])
    vic.emb[:] = 0.0
    vic.bias[:] = np.arange(vic.num_items)[::-1]
    assert bb.query([1]) == before


def test_query_batch_charges_per_row_and_matches_query():
    vic = victim()
    bb = BlackBox(vic, k=5, budget=6, log_queries=True)
    prefixes = [[1, 2], [3], [0, 4, 5]]
    got = bb.query_batch(prefixes)
    assert got.dtype == np.int64 and got.shape == (3, 5)
    assert got.tolist() == [recommend_topk(vic, x, 5) for x in prefixes]
    assert bb.used == 3
    assert bb.drain_log().pairs == [(tuple(x), tuple(r)) for x, r in zip(prefixes, got.tolist())]
    grid = np.array([[1, 2], [7, 7]])
    assert bb.query_batch(grid).tolist() == [recommend_topk(vic, x, 5) for x in grid]
    assert bb.used == 5


def test_query_batch_past_budget_charges_nothing():
    bb = BlackBox(victim(), k=3, budget=4, log_queries=True)
    bb.query([0])
    with pytest.raises(BudgetExhausted, match=r"^query budget of 4 is spent: 3 left, 4 asked$"):
        bb.query_batch([[1], [2], [3], [4]])
    assert bb.used == 1 and len(bb.drain_log()) == 1
    assert len(bb.query_batch([[1], [2], [3]])) == 3
    assert bb.remaining == 0
    empty = bb.query_batch([])
    assert empty.dtype == np.int64 and empty.shape == (0, 3)


@settings(max_examples=40, deadline=None)
@given(
    v=st.integers(1, 12),
    seed=st.integers(0, 99),
    prefixes=st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=5), max_size=6),
    data=st.data(),
)
def test_query_batch_rows_equal_query(v, seed, prefixes, data):
    vic = victim(v=v, seed=seed)
    prefixes = [[i % v for i in x] for x in prefixes]
    k = data.draw(st.integers(1, v))
    batched, single = BlackBox(vic, k=k), BlackBox(vic, k=k)
    got = batched.query_batch(prefixes)
    assert got.dtype == np.int64 and got.shape == (len(prefixes), k)
    assert [tuple(r) for r in got.tolist()] == [single.query(x) for x in prefixes]
    assert batched.used == single.used == len(prefixes)


def test_log_drain_order_and_idempotence():
    bb = BlackBox(victim(), k=3, budget=None, log_queries=True)
    for x in ([0], [1, 2], [3]):
        bb.query(x)
    qs1 = bb.drain_log()
    qs2 = bb.drain_log()
    assert [p for p, _ in qs1.pairs] == [(0,), (1, 2), (3,)]
    assert qs1.pairs == qs2.pairs
    assert len(qs1) == bb.used == 3


def test_drain_empty_log():
    bb = BlackBox(victim(), k=3, log_queries=True)
    assert len(bb.drain_log()) == 0


def test_drain_without_logging_is_config_error():
    for bb in (BlackBox(victim(), k=3), BlackBox(victim(), k=3, log_queries=False)):
        bb.query([0])
        with pytest.raises(ConfigError):
            bb.drain_log()


def test_queryset_save_load_roundtrip(tmp_path):
    qs = QuerySet.from_pairs([((1, 2), (3, 4, 5)), ((6,), (7, 8, 9))], truncated=True)
    path = tmp_path / "q.tsv"
    save_queryset(qs, path)
    back = load_queryset(path)
    assert back.pairs == qs.pairs
    assert back.truncated


def test_save_queryset_text_matches_plain_join(tmp_path):
    pairs = [((1, 2), (3, 10**12, 0)), ((np.int64(2),), (1, np.int64(3), 2)), ((0, 4), (4, 0, 7))]
    path = tmp_path / "q.tsv"
    save_queryset(QuerySet.from_pairs(pairs, truncated=True), path)
    want = ["# truncated"] + [
        " ".join(str(int(i)) for i in p) + "\t" + " ".join(str(int(i)) for i in r)
        for p, r in pairs
    ]
    assert path.read_text() == "\n".join(want) + "\n"


def test_queryset_holds_one_read_only_ranking_array():
    qs = QuerySet.from_pairs([((1, 2), (3, 4)), ((), (5, 6)), ((7,), (8, 9))])
    assert qs.ranked.dtype == np.int64 and qs.ranked.shape == (3, 2)
    assert not qs.ranked.flags.writeable
    assert qs.prefixes == [(1, 2), (), (7,)]
    assert qs.pairs == [((1, 2), (3, 4)), ((), (5, 6)), ((7,), (8, 9))]
    assert qs.pairs is not qs.pairs  # built anew on every access
    empty = QuerySet.from_pairs([])
    assert len(empty) == 0 and empty.ranked.shape == (0, 0) and not empty.truncated


@pytest.mark.parametrize("build", [
    lambda: QuerySet.from_pairs([((1, 2), (0, 1)), ((0, -4), (4, 0))]),
    lambda: QuerySet.from_pairs([((1, 2), (0, 1)), ((3,), (-4, 0))]),
    lambda: QuerySet([(3,)], np.array([[0, -(2**40)]])),
    lambda: QuerySet.from_pairs([((1,), (0, 1)), ((2,), (0,))]),
    lambda: QuerySet.from_pairs([((1,), (0,)), ((2,), (0, 1))]),
    lambda: QuerySet([(1,), (2,)], np.zeros((1, 3), dtype=np.int64)),
    lambda: QuerySet([(1,)], np.zeros((2, 3), dtype=np.int64)),
    lambda: QuerySet([(1,)], np.zeros(3, dtype=np.int64)),
    lambda: QuerySet([(1,)], np.zeros((1, 3, 1), dtype=np.int64)),
    lambda: QuerySet.from_pairs([((1,), (2**63, 0))]),
    lambda: QuerySet.from_pairs([((1,), ())]),
    lambda: QuerySet([(1,), ()], np.zeros((2, 0), dtype=np.int64)),
], ids=["negative_prefix_id", "negative_ranked_id", "negative_id_in_array", "ragged_shorter",
        "ragged_longer", "fewer_rows", "more_rows", "one_dimensional", "three_dimensional",
        "id_past_int64", "empty_rankings", "empty_rankings_in_array"])
def test_queryset_rejects_bad_records_where_built(build):
    with pytest.raises(ValueError):
        build()


def test_id_table_is_used_only_while_no_larger_than_the_rankings():
    # 3 x 2 ranked ids: a table over range(6) fits, one over range(7) does not
    fits = np.array([[0, 1], [2, 3], [4, 5]])
    table = oracle._id_table(fits)
    assert table.dtype == object and table.tolist() == ["0", "1", "2", "3", "4", "5"]
    assert oracle._id_table(np.array([[0, 1], [2, 3], [4, 6]])) is None
    assert oracle._id_table(np.array([[10**12]])) is None
    assert oracle._id_table(np.zeros((0, 4), dtype=np.int64)).size == 0


def plain_join_writer(pairs, truncated: bool) -> str:
    """The per-pair writer save_queryset replaced: one " ".join per record."""
    head = "# truncated\n" if truncated else ("" if pairs else "\n")
    return head + "".join(
        " ".join(str(i) for i in p) + "\t" + " ".join(str(i) for i in r) + "\n" for p, r in pairs
    )


@settings(max_examples=150, deadline=None)
@given(
    digits=st.integers(1, 13),
    k=st.integers(1, 4),
    truncated=st.booleans(),
    block=st.integers(1, 4),
    data=st.data(),
)
def test_save_queryset_writes_the_plain_join_bytes(tmp_path_factory, digits, k, truncated, block,
                                                   data):
    ids = st.integers(0, 10**digits - 1)
    pairs = data.draw(st.lists(
        st.tuples(st.lists(ids, max_size=4).map(tuple),
                  st.lists(ids, min_size=k, max_size=k, unique=True).map(tuple)),
        max_size=3 * block + 1,
    ))
    qs = QuerySet.from_pairs(pairs, truncated)
    path = tmp_path_factory.mktemp("q") / "q.tsv"
    with mock.patch.object(oracle, "SAVE_BLOCK", block):
        save_queryset(qs, path)
    assert path.read_text() == plain_join_writer(pairs, truncated)
    back = load_queryset(path)
    assert back.prefixes == qs.prefixes and back.truncated == truncated
    assert back.ranked.shape == qs.ranked.shape
    assert back.ranked.tobytes() == qs.ranked.tobytes()


@pytest.mark.parametrize("text, message", [
    ("1 2\t0 1 2\n3 -1\t0 1 2\n", "negative item id on line 2"),
    ("1 2\t0 1 2\n3\t\n", "empty ranking on line 2"),
    ("1 2\t0 1 2\n3\t0 1\n", "ranking length differs from line 1 on line 2"),
    ("# truncated\n1\t0 1\n\n2\t0 1\n3\t0 1 2\n", "ranking length differs from line 2 on line 5"),
    ("1 2\t0 1 1\n3\t0 1 2\n", "ranking repeats item 1 on line 1"),
    ("1 2\t0 1 2\n3\t4 0 3 0\n", "ranking repeats item 0 on line 2"),
], ids=["negative_id", "empty_ranking", "length_differs", "length_differs_after_header",
        "repeated_id", "repeated_id_later"])
def test_load_queryset_rejects_malformed_record(tmp_path, text, message):
    path = tmp_path / "q.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_queryset(path)
