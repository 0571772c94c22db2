"""Second implementations of the quantities the benchmark checks.

Nothing here imports recattack. Each function recomputes a documented
quantity from an artifact file or from plain arrays: the `seqrec-params-v1`
parameter layout, the recency-weighted top-k ranking, windowed co-occurrence
counts and their Jaccard relatedness, Agreement@k, and the properties the
method promises (synthesized items come from the previous response; polluted
sequences keep the history, reach the requested length and never append the
target). A check raises CheckFailed; it never compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PARAMS_MAGIC = b"seqrec-params-v1\n"

# Scores closer than this share of the largest score count as tied: two
# correct implementations may order such items differently.
TIE_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with its reference computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class Params:
    emb: np.ndarray
    bias: np.ndarray
    gamma: float

    @property
    def num_items(self) -> int:
        return int(self.emb.shape[0])


def read_params(path) -> Params:
    """Parse `seqrec-params-v1`: magic line, "V d gamma" line, then V*d
    little-endian float64 embeddings row-major, then V float64 biases."""
    data = Path(path).read_bytes()
    require(data.startswith(PARAMS_MAGIC), f"{path}: bad magic line")
    header, sep, payload = data[len(PARAMS_MAGIC):].partition(b"\n")
    require(sep == b"\n", f"{path}: missing header line")
    fields = header.split()
    require(len(fields) == 3, f"{path}: header is not 'V d gamma'")
    v, d, gamma = int(fields[0]), int(fields[1]), float(fields[2])
    require(len(payload) == 8 * (v * d + v), f"{path}: payload size mismatch")
    arr = np.frombuffer(payload, dtype="<f8")
    return Params(arr[: v * d].reshape(v, d), arr[v * d :], gamma)


def untrained_params(num_items: int, dim: int, gamma: float, seed: int) -> Params:
    """The documented fresh initialisation: embeddings uniform in [-0.1, 0.1]
    from numpy's default generator with `seed`, biases zero."""
    emb = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(num_items, dim))
    return Params(emb, np.zeros(num_items), float(gamma))


def scores(p: Params, seq) -> np.ndarray:
    """s_i = <sum_t w_t E[x_t], E_i> + b_i with w_t proportional to gamma^(T-t)."""
    x = np.asarray(seq, dtype=np.int64)
    require(x.size > 0 and x.min() >= 0 and x.max() < p.num_items, "sequence id out of range")
    w = p.gamma ** np.arange(x.size - 1, -1, -1, dtype=np.float64)
    w /= w.sum()
    return p.emb @ (w @ p.emb[x]) + p.bias


def topk(p: Params, seq, k: int) -> np.ndarray:
    """Item ids by score descending, ties by ascending id, first k."""
    s = scores(p, seq)
    return np.lexsort((np.arange(s.size), -s))[:k]


def _tol(s: np.ndarray) -> float:
    return TIE_TOL * max(1.0, float(np.abs(s).max()))


def check_ranking(p: Params, seq, ranked, k: int) -> None:
    """`ranked` must be the top-k of `seq` under p, up to near-tied scores."""
    s = scores(p, seq)
    got = np.asarray(ranked, dtype=np.int64)
    require(got.shape == (k,), f"ranking has {got.size} items, want {k}")
    ref = np.lexsort((np.arange(s.size), -s))[:k]
    if np.array_equal(got, ref):
        return
    require(got.min() >= 0 and got.max() < s.size, "ranked id out of range")
    require(np.unique(got).size == k, "ranking repeats an item")
    tol = _tol(s)
    require(np.all(np.diff(s[got]) <= tol), f"ranking not in score order for {list(seq)[:8]}...")
    rest = np.ones(s.size, dtype=bool)
    rest[got] = False
    require(
        not rest.any() or s[rest].max() <= s[got].min() + tol,
        f"ranking misses a higher-scored item for {list(seq)[:8]}...",
    )


def exposure(p: Params, seq, target: int, k: int) -> tuple[bool, bool]:
    """(target in the top-k of seq, whether it is near-tied with the k-th
    item, so that either answer is right)."""
    s = scores(p, seq)
    kth = s[np.lexsort((np.arange(s.size), -s))[k - 1]]
    st = s[int(target)]
    return bool(st >= kth), bool(abs(st - kth) <= _tol(s))


def check_exposure(p: Params, seq, target: int, k: int, hit: bool, rank) -> None:
    """A validate() outcome: whether the target is in the top-k of seq, and
    its 1-based rank there; items near-tied with the target may precede it
    either way."""
    ref_hit, tied = exposure(p, seq, target, k)
    if tied:
        return
    require(bool(hit) == ref_hit, f"validate hit={hit} disagrees with the reference")
    if hit:
        s = scores(p, seq)
        st, tol = s[int(target)], _tol(s)
        lo = int(np.count_nonzero(s > st + tol)) + 1
        hi = int(np.count_nonzero(s >= st - tol))
        require(rank is not None and lo <= rank <= hi, f"rank {rank} outside [{lo}, {hi}]")
    else:
        require(rank is None, "a miss reports a rank")


def check_hit_rate(got: float, p: Params, cases, k: int, what: str) -> float:
    """A reported hit rate over (sequence, target) cases; near-tied cases may
    count either way. Returns the reference rate."""
    hits = ties = 0
    for seq, target in cases:
        hit, tied = exposure(p, seq, target, k)
        hits += hit
        ties += tied
    n = max(1, len(cases))
    require(abs(got - hits / n) <= (ties + 1e-9) / n, f"{what} reported {got!r}, reference {hits / n!r}")
    return hits / n


def agreement(p_a: Params, p_b: Params, prefixes, k: int) -> tuple[float, int]:
    """Mean |top-k(a) & top-k(b)| / k over prefixes, and the number of
    prefixes whose k-th and (k+1)-th scores are near-tied in either model."""
    total = 0.0
    tied = 0
    for x in prefixes:
        sets = []
        near = False
        for p in (p_a, p_b):
            s = scores(p, x)
            order = np.lexsort((np.arange(s.size), -s))
            sets.append(set(order[:k].tolist()))
            if s.size > k and s[order[k - 1]] - s[order[k]] <= _tol(s):
                near = True
        total += len(sets[0] & sets[1]) / k
        tied += near
    return total / max(1, len(prefixes)), tied


def check_agreement(got: float, p_a: Params, p_b: Params, prefixes, k: int) -> float:
    """Compare a reported Agreement@k with the reference; returns the reference."""
    ref, tied = agreement(p_a, p_b, prefixes, k)
    slack = 1e-12 + tied / max(1, len(prefixes))
    require(abs(got - ref) <= slack, f"agr@{k} reported {got!r}, reference {ref!r}")
    return ref


class Cooccurrence:
    """Windowed co-occurrence counts and Jaccard relatedness, by plain loops.

    Every position pair (p, q) with 0 < q - p <= window and x_p != x_q adds
    one to the unordered pair; item counts count every occurrence.
    jaccard(i, j) = c_ij / max(c_i + c_j - c_ij, c_ij), 0 with no
    co-occurrence, 1 for i == j.
    """

    def __init__(self, sequences, window: int):
        self.pairs: dict[tuple[int, int], int] = {}
        self.items: dict[int, int] = {}
        for seq in sequences:
            seq = [int(i) for i in seq]
            for p, a in enumerate(seq):
                self.items[a] = self.items.get(a, 0) + 1
                for b in seq[p + 1 : p + 1 + window]:
                    if a != b:
                        key = (a, b) if a < b else (b, a)
                        self.pairs[key] = self.pairs.get(key, 0) + 1

    def jaccard(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        cij = self.pairs.get((i, j) if i < j else (j, i), 0)
        denom = max(self.items.get(i, 0) + self.items.get(j, 0) - cij, cij)
        return cij / denom if denom > 0 else 0.0

    def plausibility(self, seq) -> float:
        """Mean Jaccard relatedness of adjacent items."""
        seq = [int(i) for i in seq]
        require(len(seq) >= 2, "plausibility needs two items")
        vals = [self.jaccard(a, b) for a, b in zip(seq, seq[1:])]
        return sum(vals) / len(vals)


def check_close(got: float, want: float, what: str, tol: float = 1e-12) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want)),
        f"{what}: reported {got!r}, reference {want!r}",
    )


def read_sequences(path) -> list[tuple[int, ...]]:
    """A sequence_lines corpus file: one space-separated id sequence per line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [tuple(int(t) for t in line.split()) for line in lines if line.strip()]


def read_queries(path) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], bool]:
    """A query-set file: `prefix ids TAB ranked ids` per line; '#' comments."""
    pairs = []
    truncated = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            truncated = truncated or "truncated" in line
            continue
        if not line.strip():
            continue
        left, right = line.split("\t")
        pairs.append((tuple(int(t) for t in left.split()), tuple(int(t) for t in right.split())))
    return pairs, truncated


def read_polluted(path) -> list[tuple[str, list[int]]]:
    """A polluted-sequence file: `user TAB item ids` per line."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            user, items = line.split("\t")
            rows.append((user, [int(t) for t in items.split()]))
    return rows


def check_query_chain(pairs, num_items: int, k: int, count: int, maxlen: int) -> None:
    """Synthesis properties: `count` sequences of `maxlen` items, one pair per
    prefix; each ranking has k distinct in-range ids; each prefix extends the
    previous one by an item taken from the previous response."""
    require(len(pairs) == count * (maxlen - 1), f"{len(pairs)} pairs, want {count * (maxlen - 1)}")
    prev = None
    starts = 0
    for prefix, ranked in pairs:
        require(len(ranked) == k and len(set(ranked)) == k, "ranking is not k distinct ids")
        require(min(ranked) >= 0 and max(ranked) < num_items, "ranked id out of range")
        require(0 < len(prefix) < maxlen, "prefix length out of range")
        if len(prefix) == 1:
            starts += 1
            require(0 <= prefix[0] < num_items, "seed item out of range")
        else:
            require(prev is not None, "prefix does not extend a previous query")
            prev_prefix, prev_ranked = prev
            require(prefix[:-1] == prev_prefix, "prefix does not extend the previous query")
            require(prefix[-1] in prev_ranked, "synthesized item not in the previous response")
        prev = (prefix, ranked)
    require(starts == count, f"{starts} sequences, want {count}")


def polluted_length(history_len: int, length_factor: float) -> int:
    """The harness's requested total: max(T + 1, ceil(length_factor * T))."""
    return max(history_len + 1, math.ceil(length_factor * history_len))


def check_polluted(z, history, target: int, total: int) -> None:
    """z keeps the history as its prefix, has the requested length, and its
    appended items never include the target."""
    z = [int(i) for i in z]
    h = [int(i) for i in history]
    require(z[: len(h)] == h, "polluted sequence does not start with the history")
    require(len(z) == total, f"polluted length {len(z)}, want {total}")
    require(int(target) not in z[len(h):], "pollution appended the target")


def low_popularity_pool(sequences, num_items: int, size: int) -> list[int]:
    """The `size` least frequent items, ties by ascending id."""
    freq = [0] * num_items
    for seq in sequences:
        for i in seq:
            freq[i] += 1
    return sorted(range(num_items), key=lambda i: (freq[i], i))[:size]
