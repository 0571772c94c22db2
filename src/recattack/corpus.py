"""Interaction corpora: ingestion, leave-one-out splits, and item co-occurrence.

Items are re-indexed to dense contiguous ids 0..V-1 in order of first
appearance. Co-occurrence is counted over unordered item pairs that appear
within a positional window inside the same sequence; `corel` turns the raw
counts into Jaccard or positive-PMI relatedness scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .ranking import topk_ids

# Shortest history that still yields a train prefix, a validation target and
# a test target.
MIN_SEQUENCE_LEN = 3

COREL_KINDS = ("jaccard", "ppmi")


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

    `pair_counts[i, j]` is the number of position pairs at distance <= window
    where items i != j co-occur in a sequence; `item_counts[i]` counts every
    occurrence of i; `total_positions` is the number of positions scanned.
    """

    pair_counts: sparse.csr_matrix
    item_counts: np.ndarray
    total_positions: int
    window: int

    @property
    def num_items(self) -> int:
        return int(self.item_counts.shape[0])


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
    if fmt not in ("tsv_triples", "sequence_lines"):
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
    diagonal stays empty.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    v = corpus.num_items
    item_counts = np.zeros(v, dtype=np.int64)
    total = 0
    rows, cols = [], []
    for seq in corpus.sequences:
        arr = np.asarray(seq, dtype=np.int64)
        item_counts += np.bincount(arr, minlength=v)
        total += arr.size
        for off in range(1, min(window, arr.size - 1) + 1):
            a, b = arr[:-off], arr[off:]
            keep = a != b
            if keep.any():
                lo = np.minimum(a[keep], b[keep])
                hi = np.maximum(a[keep], b[keep])
                rows.append(lo)
                cols.append(hi)
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        upper = sparse.coo_matrix(
            (np.ones(r.size, dtype=np.int64), (r, c)), shape=(v, v)
        ).tocsr()
        counts = (upper + upper.T).tocsr()
    else:
        counts = sparse.csr_matrix((v, v), dtype=np.int64)
    return CoMatrix(
        pair_counts=counts, item_counts=item_counts, total_positions=total, window=window
    )


def corel(m: CoMatrix, i: int, j: int, kind: str = "jaccard") -> float:
    """Collaborative relatedness of items i and j.

    jaccard = c(i,j) / (c(i) + c(j) - c(i,j)); ppmi = max(0, ln(c(i,j) * N /
    (c(i) * c(j)))). Either kind is 0 when the pair never co-occurs, and 1.0
    for i == j by convention (self items are excluded from neighbor lists).
    Position-pair counting lets c(i,j) exceed c(i)+c(j)-c(i,j) when an item
    repeats inside the window, so the jaccard denominator is floored at
    c(i,j) to keep the score in [0, 1].
    """
    if kind not in COREL_KINDS:
        raise ValueError(f"unknown corel kind {kind!r}")
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


def corel_row(m: CoMatrix, t: int, kind: str = "jaccard") -> np.ndarray:
    """corel(m, j, t) for every item j, bit for bit; entry t is the 1.0
    self-score. Reads row t of the CSR counts directly."""
    if kind not in COREL_KINDS:
        raise ValueError(f"unknown corel kind {kind!r}")
    if not 0 <= t < m.num_items:
        raise ValueError(f"item {t} outside [0, {m.num_items})")
    pc = m.pair_counts
    lo, hi = pc.indptr[t], pc.indptr[t + 1]
    cpair = np.bincount(pc.indices[lo:hi], weights=pc.data[lo:hi], minlength=m.num_items)
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
