"""Interaction corpora: ingestion, leave-one-out splits, and item co-occurrence.

Items are re-indexed to dense contiguous ids 0..V-1 in order of first
appearance. Co-occurrence is counted over unordered item pairs that appear
within a positional window inside the same sequence; `corel` turns the raw
counts into Jaccard or positive-PMI relatedness scores.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .ranking import topk_ids

# Shortest history that still yields a train prefix, a validation target and
# a test target.
MIN_SEQUENCE_LEN = 3

COREL_KINDS = ("jaccard", "ppmi")
CORPUS_FORMATS = ("tsv_triples", "sequence_lines")


class CorpusFormatError(ValueError):
    """An interaction file could not be parsed."""


class EmptyCorpusError(ValueError):
    """No sequence survived ingestion and filtering."""


@dataclass(frozen=True)
class InteractionCorpus:
    """User interaction sequences over a dense item vocabulary."""

    users: tuple[str, ...]
    sequences: tuple[tuple[int, ...], ...]
    num_items: int
    item_labels: tuple[str, ...] | None = None  # dense id -> original token

    def __post_init__(self):
        if len(self.users) != len(self.sequences):
            raise ValueError("users and sequences must be parallel")

    def __len__(self) -> int:
        return len(self.sequences)


@dataclass(frozen=True)
class SplitDataset:
    """Leave-one-out split: train prefix, (prefix, target) validation/test pairs."""

    users: tuple[str, ...]
    train: tuple[tuple[int, ...], ...]
    valid: tuple[tuple[tuple[int, ...], int], ...]
    test: tuple[tuple[tuple[int, ...], int], ...]

    def __len__(self) -> int:
        return len(self.train)


@dataclass(frozen=True)
class CoMatrix:
    """Symmetric windowed co-occurrence counts plus marginals.

    The pair counts are in canonical CSR form: row i's partners j, ascending
    without repeats, are `col_ids[row_ptr[i]:row_ptr[i + 1]]`, and `co_counts`
    holds the number of position pairs at distance <= window where i != j
    co-occur in a sequence. `item_counts[i]` counts every occurrence of i;
    `total_positions` is the number of positions scanned.
    """

    row_ptr: np.ndarray
    col_ids: np.ndarray
    co_counts: np.ndarray
    item_counts: np.ndarray
    total_positions: int
    window: int

    def __post_init__(self):
        # corel bisects each row, so a layout that is not canonical would
        # read wrong counts without an error
        v, ptr, cols = self.num_items, self.row_ptr, self.col_ids
        if not (len(ptr) == v + 1 and ptr[0] == 0 and ptr[-1] == len(cols) == len(self.co_counts)
                and (np.diff(ptr) >= 0).all() and (cols >= 0).all() and (cols < v).all()
                and (np.diff(np.repeat(np.arange(v), np.diff(ptr)) * v + cols) > 0).all()):
            raise ValueError(f"pair counts not in canonical CSR form over {v} items: row_ptr "
                             "must rise from 0 to the number of pairs, col_ids ascend in rows")

    @property
    def num_items(self) -> int:
        return int(self.item_counts.shape[0])

    @cached_property
    def _lookup(self):
        """(row_ptr, item_counts) as lists and (col_ids, co_counts) as
        memoryviews for scalar `corel`, built once."""
        return (
            self.row_ptr.tolist(),
            memoryview(self.col_ids),
            memoryview(self.co_counts),
            self.item_counts.tolist(),
        )

    def __getstate__(self):
        # memoryviews do not pickle; the lookup is rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "_lookup"}


def _parse_event_line(line: str, lineno: int):
    fields = line.split()
    if len(fields) == 2:
        user, item = fields
        return user, item, None
    if len(fields) == 3:
        user, item, ts = fields
    elif len(fields) == 4:
        user, item, _rating, ts = fields
    else:
        raise CorpusFormatError(
            f"line {lineno}: expected 2-4 whitespace-separated fields, got {len(fields)}"
        )
    try:
        return user, item, float(ts)
    except ValueError:
        raise CorpusFormatError(f"line {lineno}: bad timestamp {ts!r}") from None


def load_corpus(path, fmt: str = "sequence_lines") -> InteractionCorpus:
    """Read an interaction file and return a densely re-indexed corpus.

    Formats:
      * ``tsv_triples``: one event per line, ``user item [rating] [timestamp]``
        (whitespace separated); per-user events are sorted ascending by
        timestamp when present, otherwise kept in file order.
      * ``sequence_lines``: one whitespace-separated item sequence per line;
        the line index becomes the user label.

    Sequences shorter than MIN_SEQUENCE_LEN after grouping are dropped;
    duplicate consecutive items are retained.
    """
    if fmt not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}")
    text = Path(path).read_text(encoding="utf-8")

    users: list[str] = []
    raw_seqs: list[list[str]] = []
    if fmt == "sequence_lines":
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            users.append(str(len(raw_seqs)))
            raw_seqs.append(line.split())
    else:
        events: dict[str, list] = {}
        order: list[str] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            user, item, ts = _parse_event_line(line, lineno)
            if user not in events:
                events[user] = []
                order.append(user)
            bucket = events[user]
            # stable sort key: timestamp when given, arrival slot otherwise
            bucket.append((ts if ts is not None else float(len(bucket)), len(bucket), item))
        for user in order:
            bucket = sorted(events[user])
            users.append(user)
            raw_seqs.append([item for _, _, item in bucket])

    kept = [(u, s) for u, s in zip(users, raw_seqs) if len(s) >= MIN_SEQUENCE_LEN]
    if not kept:
        raise EmptyCorpusError(
            f"no sequence of length >= {MIN_SEQUENCE_LEN} in {path}"
        )

    # dense re-index in sorted token order (numeric when every token parses);
    # a corpus saved with dense integer ids reloads with identical ids
    tokens = {tok for _, seq in kept for tok in seq}
    try:
        labels = tuple(sorted(tokens, key=int))
    except ValueError:
        labels = tuple(sorted(tokens))
    index = {tok: i for i, tok in enumerate(labels)}
    sequences = [tuple(index[tok] for tok in seq) for _, seq in kept]
    return InteractionCorpus(
        users=tuple(u for u, _ in kept),
        sequences=tuple(sequences),
        num_items=len(index),
        item_labels=labels,
    )


def save_corpus(corpus: InteractionCorpus, path) -> None:
    """Write a corpus in sequence_lines format (one sequence per line)."""
    lines = [" ".join(str(i) for i in seq) for seq in corpus.sequences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def leave_one_out_split(corpus: InteractionCorpus) -> SplitDataset:
    """Split every sequence into train prefix, validation pair and test pair.

    For x of length T: train x[:T-2]; valid (x[:T-2], x[T-2]); test
    (x[:T-1], x[T-1]). Concatenating the three parts reproduces x.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot split an empty corpus")
    train, valid, test = [], [], []
    for seq in corpus.sequences:
        t = len(seq)
        train.append(seq[: t - 2])
        valid.append((seq[: t - 2], seq[t - 2]))
        test.append((seq[: t - 1], seq[t - 1]))
    return SplitDataset(
        users=corpus.users,
        train=tuple(train),
        valid=tuple(valid),
        test=tuple(test),
    )


def build_comatrix(corpus: InteractionCorpus, window: int = 5) -> CoMatrix:
    """Count unordered item pairs co-occurring within `window` positions.

    Each position pair (p, q) with 0 < q - p <= window contributes one count
    to the unordered pair (x_p, x_q); same-item pairs are skipped so the
    diagonal stays empty. Both orientations of every pair are encoded as
    row * V + column and counted by one sort, which leaves them in CSR order.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    v = corpus.num_items
    seqs = corpus.sequences
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    items = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=lengths.sum())
    owner = np.repeat(np.arange(len(seqs)), lengths)
    keys = [np.zeros(0, dtype=np.int64)]
    for off in range(1, min(window, lengths.max(initial=0) - 1) + 1):
        a, b = items[:-off], items[off:]
        keep = (owner[:-off] == owner[off:]) & (a != b)
        a, b = a[keep], b[keep]
        keys += [a * v + b, b * v + a]
    pairs, co_counts = np.unique(np.concatenate(keys), return_counts=True)
    rows, col_ids = np.divmod(pairs, v)
    idx = np.int32 if max(v, pairs.size) < 2**31 else np.int64  # scipy's index rule
    return CoMatrix(np.searchsorted(rows, np.arange(v + 1)).astype(idx), col_ids.astype(idx),
                    co_counts, np.bincount(items, minlength=v), int(items.size), window)


def corel(m: CoMatrix, i: int, j: int, kind: str = "jaccard") -> float:
    """Collaborative relatedness of items i and j.

    jaccard = c(i,j) / (c(i) + c(j) - c(i,j)); ppmi = max(0, ln(c(i,j) * N /
    (c(i) * c(j)))). Either kind is 0 when the pair never co-occurs, and 1.0
    for i == j by convention (self items are excluded from neighbor lists).
    Position-pair counting lets c(i,j) exceed c(i)+c(j)-c(i,j) when an item
    repeats inside the window, so the jaccard denominator is floored at
    c(i,j) to keep the score in [0, 1]. c(i,j) is found by bisecting row i
    of the CSR counts; ids outside [0, V) raise ValueError.
    """
    if kind not in COREL_KINDS:
        raise ValueError(f"unknown corel kind {kind!r}")
    indptr, indices, data, counts = m._lookup
    v = len(counts)
    if not (0 <= i < v and 0 <= j < v):
        raise ValueError(f"item pair ({i}, {j}) outside [0, {v})")
    if i == j:
        return 1.0
    lo, hi = indptr[i], indptr[i + 1]
    at = bisect_left(indices, j, lo, hi)
    cij = float(data[at]) if at < hi and indices[at] == j else 0.0
    ci = float(counts[i])
    cj = float(counts[j])
    if kind == "jaccard":
        denom = max(ci + cj - cij, cij)
        return cij / denom if denom > 0 else 0.0
    if cij <= 0 or ci <= 0 or cj <= 0:
        return 0.0
    return max(0.0, math.log(cij * m.total_positions / (ci * cj)))


def corel_row(m: CoMatrix, t: int, kind: str = "jaccard") -> np.ndarray:
    """corel(m, j, t) for every item j, bit for bit; entry t is the 1.0
    self-score. Reads row t of the CSR counts directly."""
    if kind not in COREL_KINDS:
        raise ValueError(f"unknown corel kind {kind!r}")
    if not 0 <= t < m.num_items:
        raise ValueError(f"item {t} outside [0, {m.num_items})")
    lo, hi = m.row_ptr[t], m.row_ptr[t + 1]
    cpair = np.bincount(m.col_ids[lo:hi], weights=m.co_counts[lo:hi], minlength=m.num_items)
    counts = m.item_counts.astype(np.float64)
    ct = counts[t]
    out = np.zeros(m.num_items, dtype=np.float64)
    if kind == "jaccard":
        denom = np.maximum(ct + counts - cpair, cpair)
        np.divide(cpair, denom, out=out, where=denom > 0)
    else:
        ok = (cpair > 0) & (counts > 0) & (ct > 0)
        ratio = cpair[ok] * m.total_positions / (ct * counts[ok])
        # math.log as in corel: numpy's vectorised log differs from it in
        # the last bit on about one input in two thousand
        out[ok] = [max(0.0, math.log(r)) for r in ratio.tolist()]
    out[t] = 1.0
    return out


def topk_neighbors(m: CoMatrix, t: int, k: int, kind: str = "jaccard") -> list[int]:
    """The k items most related to t (t excluded), ties by ascending id.

    Items with zero relatedness still fill the list when needed, so the
    result always has min(k, V-1) entries.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return topk_ids(corel_row(m, t, kind), k, skip=t).tolist()
