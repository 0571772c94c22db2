import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

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
    # dense re-index by first appearance: 1->0 2->1 3->2 4->3
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
    m = build_comatrix(c, window=1)
    assert m.pair_counts[0, 1] == 1
    assert m.pair_counts[1, 2] == 1
    assert m.pair_counts[0, 2] == 0


def test_comatrix_window2_reaches_ac():
    c = make_corpus([[0, 1, 2]])
    m = build_comatrix(c, window=2)
    assert m.pair_counts[0, 2] == 1


def test_comatrix_symmetric_empty_diagonal():
    rng = np.random.default_rng(1)
    seqs = [list(rng.integers(0, 6, size=rng.integers(3, 8))) for _ in range(5)]
    items = sorted({i for s in seqs for i in s})
    remap = {v: i for i, v in enumerate(items)}
    seqs = [[remap[i] for i in s] for s in seqs]
    c = make_corpus(seqs)
    m = build_comatrix(c, window=3)
    dense = m.pair_counts.toarray()
    assert (dense == dense.T).all()
    assert (np.diag(dense) == 0).all()


def test_comatrix_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(10):
        nseq = int(rng.integers(1, 11))
        seqs = []
        for _ in range(nseq):
            ln = int(rng.integers(3, 9))
            seqs.append([int(i) for i in rng.integers(0, 7, size=ln)])
        items = sorted({i for s in seqs for i in s})
        remap = {v: i for i, v in enumerate(items)}
        seqs = [[remap[i] for i in s] for s in seqs]
        c = make_corpus(seqs)
        w = int(rng.integers(1, 5))
        m = build_comatrix(c, window=w)
        pair, item, total = brute_force_comatrix(seqs, c.num_items, w)
        assert (m.pair_counts.toarray() == pair).all()
        assert (m.item_counts == item).all()
        assert m.total_positions == total


# ------------------------------------------------------------------- corel


def test_corel_jaccard_toy_counts():
    # two sequences arranged so c(A)=c(B)=2 and c(A,B)=1
    c = make_corpus([[0, 1, 2], [1, 2, 0]])
    m = build_comatrix(c, window=1)
    assert m.item_counts[0] == 2 and m.item_counts[1] == 2
    assert m.pair_counts[0, 1] == 1
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
    expected = max(0.0, np.log(m.pair_counts[0, 1] * m.total_positions
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


def reference_corel(m, i, j, kind):
    """The relatedness formula on scipy's own element lookup."""
    if i == j:
        return 1.0
    cij = float(m.pair_counts[i, j])
    ci = float(m.item_counts[i])
    cj = float(m.item_counts[j])
    if kind == "jaccard":
        denom = max(ci + cj - cij, cij)
        return cij / denom if denom > 0 else 0.0
    if cij <= 0 or ci <= 0 or cj <= 0:
        return 0.0
    return max(0.0, math.log(cij * m.total_positions / (ci * cj)))


@st.composite
def raw_comatrices(draw):
    """CoMatrix over a CSR built from raw arrays: column ids in drawn order
    within each row, repeated ids, explicit zeros."""
    v = draw(st.integers(1, 7))
    entries = draw(st.lists(
        st.tuples(st.integers(0, v - 1), st.integers(0, v - 1), st.integers(0, 6)),
        max_size=30,
    ))
    entries.sort(key=lambda e: e[0])  # stable: keeps the drawn column order
    indptr = np.searchsorted([r for r, _, _ in entries], np.arange(v + 1))
    pair = sparse.csr_matrix(
        (
            np.array([n for _, _, n in entries], dtype=np.int64),
            np.array([c for _, c, _ in entries], dtype=np.int32),
            indptr,
        ),
        shape=(v, v),
    )
    counts = np.array(draw(st.lists(st.integers(0, 12), min_size=v, max_size=v)), dtype=np.int64)
    return CoMatrix(pair, counts, draw(st.integers(1, 60)), 1)


@settings(max_examples=300, deadline=None)
@given(m=raw_comatrices())
def test_corel_equals_scipy_lookup_bit_for_bit(m):
    pc = m.pair_counts
    arrays = (pc.indptr, pc.indices, pc.data)
    before = [a.copy() for a in arrays]
    v = m.num_items
    got = {(i, j, kind): corel(m, i, j, kind)
           for kind in COREL_KINDS for i in range(v) for j in range(v)}
    # the caller's matrix keeps its arrays and their contents
    assert m.pair_counts is pc
    assert all(a is b for a, b in zip((pc.indptr, pc.indices, pc.data), arrays))
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    for (i, j, kind), value in got.items():
        assert value == reference_corel(m, i, j, kind), (i, j, kind)


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
