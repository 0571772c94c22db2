import re

import numpy as np
import pytest

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
    assert got == [tuple(recommend_topk(vic, x, 5)) for x in prefixes]
    assert bb.used == 3
    assert bb.drain_log().pairs == [(tuple(x), r) for x, r in zip(prefixes, got)]
    grid = np.array([[1, 2], [7, 7]])
    assert bb.query_batch(grid) == [tuple(recommend_topk(vic, x, 5)) for x in grid]
    assert bb.used == 5


def test_query_batch_past_budget_charges_nothing():
    bb = BlackBox(victim(), k=3, budget=4, log_queries=True)
    bb.query([0])
    with pytest.raises(BudgetExhausted, match=r"^query budget of 4 is spent: 3 left, 4 asked$"):
        bb.query_batch([[1], [2], [3], [4]])
    assert bb.used == 1 and len(bb.drain_log()) == 1
    assert len(bb.query_batch([[1], [2], [3]])) == 3
    assert bb.remaining == 0
    assert bb.query_batch([]) == []


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
    qs = QuerySet(pairs=[((1, 2), (3, 4, 5)), ((6,), (7, 8, 9))], truncated=True)
    path = tmp_path / "q.tsv"
    save_queryset(qs, path)
    back = load_queryset(path)
    assert back.pairs == qs.pairs
    assert back.truncated


def test_save_queryset_text_matches_plain_join(tmp_path):
    pairs = [((1, 2), (3, 10**12)), ((np.int64(2),), (1, np.int64(3), 2)), ((0, -4), (-4, 0))]
    path = tmp_path / "q.tsv"
    save_queryset(QuerySet(pairs=pairs, truncated=True), path)
    want = ["# truncated"] + [
        " ".join(str(int(i)) for i in p) + "\t" + " ".join(str(int(i)) for i in r)
        for p, r in pairs
    ]
    assert path.read_text() == "\n".join(want) + "\n"


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
