import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import recattack
from recattack.corpus import (
    COREL_KINDS,
    CoMatrix,
    CorpusFormatError,
    EmptyCorpusError,
    InteractionCorpus,
    build_comatrix,
    corel,
    corel_row,
    leave_one_out_split,
    load_corpus,
    save_corpus,
    topk_neighbors,
)
from recattack.evalkit import plausibility_score

from dense_csr import comatrix_from_dense, dense_counts


def make_corpus(seqs):
    items = sorted({i for s in seqs for i in s})
    assert items == list(range(len(items)))
    return InteractionCorpus(
        users=tuple(str(i) for i in range(len(seqs))),
        sequences=tuple(tuple(s) for s in seqs),
        num_items=len(items),
    )


def brute_force_comatrix(seqs, num_items, window):
    """Independent oracle: double loop over every position pair."""
    pair = np.zeros((num_items, num_items), dtype=np.int64)
    item = np.zeros(num_items, dtype=np.int64)
    total = 0
    for s in seqs:
        for p in range(len(s)):
            item[s[p]] += 1
            total += 1
            for q in range(p + 1, min(p + window, len(s) - 1) + 1):
                if s[p] != s[q]:
                    pair[s[p], s[q]] += 1
                    pair[s[q], s[p]] += 1
    return pair, item, total


# ---------------------------------------------------------------- load_corpus


def test_load_sequence_lines(tmp_path):
    f = tmp_path / "seqs.txt"
    f.write_text("1 2 3\n2 3 4\n1 4 2\n")
    c = load_corpus(f, "sequence_lines")
    assert c.num_items == 4
    assert len(c) == 3
    # dense re-index in numeric token order: 1->0 2->1 3->2 4->3
    assert c.sequences[0] == (0, 1, 2)
    assert c.sequences[2] == (0, 3, 1)


def test_load_triples_sorts_by_timestamp(tmp_path):
    f = tmp_path / "events.tsv"
    # user item rating timestamp, deliberately shuffled timestamps
    f.write_text(
        "u1 a 5 30\nu1 b 4 10\nu1 c 3 20\nu2 b 1 2\nu2 c 1 1\nu2 a 1 3\n"
    )
    c = load_corpus(f, "tsv_triples")
    labels = c.item_labels
    seq_u1 = [labels[i] for i in c.sequences[0]]
    seq_u2 = [labels[i] for i in c.sequences[1]]
    assert seq_u1 == ["b", "c", "a"]
    assert seq_u2 == ["c", "b", "a"]


def test_load_triples_without_timestamp_keeps_order(tmp_path):
    f = tmp_path / "events.tsv"
    f.write_text("u1 x\nu1 y\nu1 z\n")
    c = load_corpus(f, "tsv_triples")
    assert [c.item_labels[i] for i in c.sequences[0]] == ["x", "y", "z"]


def test_load_all_short_sequences_is_empty_corpus(tmp_path):
    f = tmp_path / "short.txt"
    f.write_text("1 2\n3 4\n")
    with pytest.raises(EmptyCorpusError):
        load_corpus(f, "sequence_lines")


def test_load_malformed_line_reports_lineno(tmp_path):
    f = tmp_path / "bad.tsv"
    f.write_text("u1 a 1 10\nu1 b 1 oops\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(f, "tsv_triples")


@pytest.mark.parametrize("text, lineno", [
    ("u a 100\nu b 200\nv x\nu c\nu d 300\n", 4),
    ("u a\nv x 5\nu b\nu c 7\n", 4),
])
def test_load_triples_mixing_timed_and_untimed_events_reports_lineno(tmp_path, text, lineno):
    # an untimed event has no place among timed ones: its arrival slot used
    # to sort as a timestamp, so "u c" loaded before "u a 100"
    f = tmp_path / "mixed.tsv"
    f.write_text(text)
    with pytest.raises(CorpusFormatError,
                       match=f"^line {lineno}: user u mixes events with and without a timestamp$"):
        load_corpus(f, "tsv_triples")
    # users whose events are all timed, or all untimed, load as before
    f.write_text("u a 100\nu b 200\nu c 50\nv x\nv z\nv y\n")
    c = load_corpus(f, "tsv_triples")
    assert [[c.item_labels[i] for i in s] for s in c.sequences] == [["c", "a", "b"], ["x", "z", "y"]]


def test_load_ids_do_not_depend_on_the_string_hash_seed(tmp_path):
    # 1 and 01 parse to one integer; their order must not follow the set's
    f = tmp_path / "seqs.txt"
    f.write_text("1 2 3\n01 2 3\n")
    src = str(Path(recattack.__file__).parents[1])
    code = ("import sys; from recattack.corpus import load_corpus; "
            "print(*load_corpus(sys.argv[1]).item_labels)")
    labels = {
        subprocess.run([sys.executable, "-c", code, str(f)],
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                       check=True, capture_output=True, text=True).stdout
        for seed in ("1", "5")
    }
    assert labels == {"01 1 2 3\n"}


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_load_nonfinite_timestamp_reports_lineno(tmp_path, stamp):
    # a NaN stamp sorted in place would leave this user's items in file order
    f = tmp_path / "bad.tsv"
    f.write_text(f"u1 a 5\nu1 b {stamp}\nu1 c 3\nu1 d 4\n")
    with pytest.raises(CorpusFormatError, match=f"^line 2: bad timestamp '{stamp}'$"):
        load_corpus(f, "tsv_triples")


def test_save_load_roundtrip(tmp_path):
    c = make_corpus([[0, 1, 2, 3], [2, 0, 1]])
    save_corpus(c, tmp_path / "c.txt")
    back = load_corpus(tmp_path / "c.txt", "sequence_lines")
    assert back.sequences == c.sequences


# -------------------------------------------------------- leave_one_out_split


def test_split_definition():
    c = make_corpus([[0, 1, 2, 3]])  # [a,b,c,d]
    s = leave_one_out_split(c)
    assert s.train[0] == (0, 1)
    assert s.valid[0] == ((0, 1), 2)
    assert s.test[0] == ((0, 1, 2), 3)


def test_split_minimum_length():
    c = make_corpus([[0, 1, 2]])
    s = leave_one_out_split(c)
    assert s.train[0] == (0,)
    assert s.valid[0] == ((0,), 1)
    assert s.test[0] == ((0, 1), 2)


def test_split_cardinality():
    c = make_corpus([[0, 1, 2]] * 5)
    s = leave_one_out_split(c)
    assert len(s.valid) == 5 and len(s.test) == 5


def test_split_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        seq = [int(i) for i in rng.integers(0, 5, size=n)]
        c = InteractionCorpus(users=("u",), sequences=(tuple(seq),), num_items=5)
        s = leave_one_out_split(c)
        rebuilt = list(s.train[0]) + [s.valid[0][1], s.test[0][1]]
        assert rebuilt == seq


# -------------------------------------------------------------- build_comatrix


def test_comatrix_window1():
    c = make_corpus([[0, 1, 2]])  # A B C
    pair = dense_counts(build_comatrix(c, window=1))
    assert pair[0, 1] == 1
    assert pair[1, 2] == 1
    assert pair[0, 2] == 0


def test_comatrix_window2_reaches_ac():
    c = make_corpus([[0, 1, 2]])
    assert dense_counts(build_comatrix(c, window=2))[0, 2] == 1


def test_comatrix_symmetric_empty_diagonal():
    rng = np.random.default_rng(1)
    seqs = [list(rng.integers(0, 6, size=rng.integers(3, 8))) for _ in range(5)]
    items = sorted({i for s in seqs for i in s})
    remap = {v: i for i, v in enumerate(items)}
    seqs = [[remap[i] for i in s] for s in seqs]
    c = make_corpus(seqs)
    dense = dense_counts(build_comatrix(c, window=3))
    assert (dense == dense.T).all()
    assert (np.diag(dense) == 0).all()


@settings(max_examples=200, deadline=None)
@given(
    seqs=st.lists(st.lists(st.integers(0, 5), max_size=9), max_size=6),
    window=st.integers(1, 12),
)
@example(seqs=[[0, 0, 1, 1, 0]], window=1)  # immediate self-repeats
@example(seqs=[[2, 1, 2], [0, 1]], window=10)  # window beyond every sequence
def test_comatrix_matches_brute_force(seqs, window):
    v = 6  # items that never occur have zero counts
    c = InteractionCorpus(
        users=tuple(str(i) for i in range(len(seqs))),
        sequences=tuple(tuple(s) for s in seqs),
        num_items=v,
    )
    m = build_comatrix(c, window=window)
    pair, item, total = brute_force_comatrix(seqs, v, window)
    assert (dense_counts(m) == pair).all()
    assert (m.item_counts == item).all()
    assert m.total_positions == total


# ------------------------------------------------------------------- corel


def test_corel_jaccard_toy_counts():
    # two sequences arranged so c(A)=c(B)=2 and c(A,B)=1
    c = make_corpus([[0, 1, 2], [1, 2, 0]])
    m = build_comatrix(c, window=1)
    assert m.item_counts[0] == 2 and m.item_counts[1] == 2
    assert dense_counts(m)[0, 1] == 1
    assert corel(m, 0, 1, "jaccard") == pytest.approx(1 / 3)


def test_corel_zero_cooccurrence_is_zero_both_kinds():
    c = make_corpus([[0, 1, 2]])
    m = build_comatrix(c, window=1)
    assert corel(m, 0, 2, "jaccard") == 0.0
    assert corel(m, 0, 2, "ppmi") == 0.0


def test_corel_self_relation():
    c = make_corpus([[0, 1, 2]])
    m = build_comatrix(c, window=1)
    assert corel(m, 1, 1, "jaccard") == 1.0
    assert 1 not in topk_neighbors(m, 1, 2)


def test_corel_ppmi_formula():
    c = make_corpus([[0, 1, 2], [1, 2, 0]])
    m = build_comatrix(c, window=1)
    # independent computation from the raw counts
    expected = max(0.0, np.log(dense_counts(m)[0, 1] * m.total_positions
                               / (m.item_counts[0] * m.item_counts[1])))
    assert corel(m, 0, 1, "ppmi") == pytest.approx(expected)


def test_corel_symmetry_and_ranges_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        seqs = [[int(i) for i in rng.integers(0, 5, size=6)] for _ in range(4)]
        items = sorted({i for s in seqs for i in s})
        remap = {v: i for i, v in enumerate(items)}
        c = make_corpus([[remap[i] for i in s] for s in seqs])
        m = build_comatrix(c, window=2)
        for i in range(c.num_items):
            for j in range(c.num_items):
                jac = corel(m, i, j, "jaccard")
                pp = corel(m, i, j, "ppmi")
                assert jac == pytest.approx(corel(m, j, i, "jaccard"))
                assert pp == pytest.approx(corel(m, j, i, "ppmi"))
                assert 0.0 <= jac <= 1.0
                assert pp >= 0.0


def test_corel_row_matches_scalar():
    c = make_corpus([[0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3]])
    m = build_comatrix(c, window=2)
    for kind in ("jaccard", "ppmi"):
        for t in range(4):
            row = corel_row(m, t, kind)
            for j in range(4):
                assert row[j] == pytest.approx(corel(m, j, t, kind))


# -------------------------------------------------------------- topk_neighbors


def test_topk_all_zero_gives_ascending_ids():
    c = make_corpus([[0, 1, 2]])
    m = build_comatrix(c, window=1)
    # item 0 and 2 never co-occur at window 1; 3 absent entirely isn't possible,
    # so use a fresh single-pair corpus where most scores are 0
    assert topk_neighbors(m, 0, 2) == [1, 2][:2]  # 1 scores > 0, then lowest id


def test_topk_tiebreak_lowest_id_wins():
    # {[A,B,C]} w=1: corel(A,B) == corel(C,B) -> tie broken by id
    c = make_corpus([[0, 1, 2]])
    m = build_comatrix(c, window=1)
    assert corel(m, 0, 1) == corel(m, 2, 1)
    assert topk_neighbors(m, 1, 1) == [0]


def test_topk_exhaustion_returns_all_but_self():
    c = make_corpus([[0, 1, 2, 3]])
    m = build_comatrix(c, window=1)
    got = topk_neighbors(m, 2, 99)
    assert sorted(got) == [0, 1, 3]


def test_topk_matches_enumeration():
    rng = np.random.default_rng(11)
    seqs = [[int(i) for i in rng.integers(0, 6, size=7)] for _ in range(6)]
    items = sorted({i for s in seqs for i in s})
    remap = {v: i for i, v in enumerate(items)}
    c = make_corpus([[remap[i] for i in s] for s in seqs])
    m = build_comatrix(c, window=2)
    for t in range(c.num_items):
        scored = sorted(
            ((-corel(m, j, t), j) for j in range(c.num_items) if j != t)
        )
        expected = [j for _, j in scored][:3]
        assert topk_neighbors(m, t, 3) == expected


@settings(max_examples=100, deadline=None)
@given(
    seqs=st.lists(st.lists(st.integers(0, 7), min_size=3, max_size=10), min_size=1, max_size=6),
    window=st.integers(1, 3),
)
def test_corel_row_equals_scalar_bit_for_bit(seqs, window):
    v = 8  # items that never occur have zero counts
    corpus = InteractionCorpus(
        users=tuple(str(i) for i in range(len(seqs))),
        sequences=tuple(tuple(s) for s in seqs),
        num_items=v,
    )
    m = build_comatrix(corpus, window=window)
    a, b = np.divmod(np.arange(v * v), v)
    for kind in COREL_KINDS:
        scalar = [corel(m, int(i), int(j), kind) for i, j in zip(a, b)]
        rows = [corel_row(m, t, kind)[j] for j, t in zip(a, b)]
        assert rows == scalar


def reference_corel(pair, item, total, i, j, kind):
    """The relatedness formula on dense counts."""
    if i == j:
        return 1.0
    cij = float(pair[i, j])
    ci = float(item[i])
    cj = float(item[j])
    if kind == "jaccard":
        denom = max(ci + cj - cij, cij)
        return cij / denom if denom > 0 else 0.0
    if cij <= 0 or ci <= 0 or cj <= 0:
        return 0.0
    return max(0.0, math.log(cij * total / (ci * cj)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), v=st.integers(1, 7), total=st.integers(1, 60))
def test_corel_on_dense_counts_equals_reference_bit_for_bit(data, v, total):
    # most pairs never co-occur, so rows hold gaps and empty rows
    cells = st.integers(0, 6).map(lambda n: max(n - 3, 0))
    pair = np.array(data.draw(st.lists(cells, min_size=v * v, max_size=v * v)),
                    dtype=np.int64).reshape(v, v)
    item = np.array(data.draw(st.lists(st.integers(0, 12), min_size=v, max_size=v)))
    m = comatrix_from_dense(pair, item, total, 1)
    for kind in COREL_KINDS:
        for i in range(v):
            for j in range(v):
                assert corel(m, i, j, kind) == reference_corel(pair, item, total, i, j, kind)


def test_comatrix_rejects_a_layout_that_is_not_canonical():
    # rows 0 and 2 of 4 items: 0 -> {1, 3}, 2 -> {0}
    ptr, cols, n = [0, 2, 2, 3, 3], [1, 3, 0], [4, 5, 6]
    bad = [
        (ptr, [3, 1, 0], n),  # columns unsorted within a row
        (ptr, [1, 1, 0], n),  # a repeated column
        (ptr, [1, 3, -1], n),  # a column below 0
        (ptr, [1, 4, 0], n),  # a column at V
        (ptr, [1, 9, 0], n),  # a column above V
        ([1, 2, 2, 3, 3], cols, n),  # pointers that do not start at 0
        ([0, 2, 2, 2, 2], cols, n),  # pointers that stop short of the pairs
        ([0, 2, 2, 3], cols, n),  # too few row pointers
        (ptr, cols, [4, 5]),  # too few counts
        (ptr, [1, 3], n),  # too few columns
    ]
    item = np.ones(4, dtype=np.int64)
    m = CoMatrix(*map(np.array, (ptr, cols, n)), item, 10, 1)
    assert dense_counts(m).tolist() == [[0, 4, 0, 5], [0, 0, 0, 0], [6, 0, 0, 0], [0, 0, 0, 0]]
    for arrays in bad:
        with pytest.raises(ValueError, match="not in canonical CSR form"):
            CoMatrix(*map(np.array, arrays), item, 10, 1)


def test_import_loads_no_package_but_numpy():
    src = str(Path(recattack.__file__).parents[1])
    code = ("import sys; before = set(sys.modules); import recattack; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout.split()
    assert set(out) - sys.stdlib_module_names == {"numpy", "recattack"}


def test_corel_rejects_ids_outside_catalog():
    c = make_corpus([[0, 1, 2, 3], [3, 2, 1, 0]])
    m = build_comatrix(c, window=2)
    v = m.num_items
    for i, j in ((-1, 3), (3, -1), (v, 3), (3, v), (-1, -1), (v, v), (v + 7, v + 7)):
        for kind in COREL_KINDS:
            with pytest.raises(ValueError):
                corel(m, i, j, kind)
    with pytest.raises(ValueError):
        plausibility_score([-1, 3, 2], m)
    assert corel(m, v - 1, v - 1) == 1.0


def test_comatrix_copies_after_corel():
    c = make_corpus([[0, 1, 2, 3], [3, 2, 1, 0]])
    m = build_comatrix(c, window=2)
    want = [corel(m, i, j, kind) for kind in COREL_KINDS for i in range(4) for j in range(4)]
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert [corel(twin, i, j, kind)
                for kind in COREL_KINDS for i in range(4) for j in range(4)] == want
