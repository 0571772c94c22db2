"""Budgeted black-box front for a frozen recommender.

Consumers see only ordered top-k item ids, never scores or parameters. Every
query is charged to the budget and, with log_queries=True, logged in
query_batch, which query calls with its one prefix; drain_log returns the log.

A QuerySet keeps its rankings as one (n, k) int64 array from the oracle to
the surrogate: query_batch returns them that way, synthesis writes them into
one, save_queryset gathers their text from it, and distill_train reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .recmodel import RecommenderParams, _ragged, recommend_topk_batch


class BudgetExhausted(RuntimeError):
    """The query budget is spent; the attacker must stop querying."""


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Ordered (sequence, ranked top-k) records collected from a black box.

    Record i is the prefix prefixes[i] (a tuple of item ids) and the ranking
    ranked[i], a row of one read-only (n, k) int64 array; prefix_layout holds
    the prefixes as PrefixPool's read-only (items, starts, lengths). Every
    record is checked here, so a saved set loads again: an id below 0 or past
    int64, k = 0 in a non-empty set, a repeat within a ranking, a row count
    other than len(prefixes) or a ranked that is not 2-D raise ValueError.
    """

    prefixes: list[tuple[int, ...]]
    ranked: np.ndarray
    truncated: bool = False
    prefix_layout: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        try:
            ranked = np.asarray(self.ranked, dtype=np.int64).view()
            layout = _ragged(self.prefixes)
        except OverflowError:
            raise ValueError("item id outside int64") from None
        if ranked.ndim != 2:
            raise ValueError("rankings must form one (n, k) array")
        if ranked.shape[0] != len(self.prefixes):
            raise ValueError(f"{ranked.shape[0]} rankings for {len(self.prefixes)} prefixes")
        if layout[0].min(initial=0) < 0 or ranked.min(initial=0) < 0:
            raise ValueError("negative item id")
        if ranked.shape[0] and not ranked.shape[1]:
            raise ValueError("empty ranking")
        for start in range(0, ranked.shape[0], 1024):  # 0.8 MB sorted at k = 100
            rows = ranked[start : start + 1024]
            block = np.sort(rows, axis=1)
            if (block[:, 1:] == block[:, :-1]).any():  # name the first repeat, in row order
                again = next(i for r in rows.tolist() for n, i in enumerate(r) if i in r[:n])
                raise ValueError(f"ranking repeats item {again}")
        for array in (ranked, *layout):
            array.flags.writeable = False
        object.__setattr__(self, "ranked", ranked)
        object.__setattr__(self, "prefix_layout", layout)

    @classmethod
    def from_pairs(cls, pairs, truncated: bool = False) -> "QuerySet":
        """The set of (prefix, ranking) pairs; rankings of different lengths
        raise ValueError."""
        prefixes = [tuple(p) for p, _ in pairs]
        rankings = [r for _, r in pairs]
        if len(set(map(len, rankings))) > 1:
            raise ValueError("all rankings in a query set must share one length")
        return cls(prefixes, rankings or np.empty((0, 0), dtype=np.int64), truncated)

    @property
    def pairs(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(prefix, ranking) tuples, as a new list built on every access:
        read it once, since indexing qs.pairs[i] in a loop is quadratic."""
        return list(zip(self.prefixes, map(tuple, self.ranked.tolist())))

    def __len__(self) -> int:
        return len(self.prefixes)


class _Labels(dict):
    """id -> decimal text, each id converted once."""

    def __missing__(self, i):
        text = self[i] = str(i)
        return text


# records whose text save_queryset builds and writes at once; at k = 100 a
# block's gathered texts stay near half a megabyte, and larger blocks were slower
SAVE_BLOCK = 256


def _id_table(ranked: np.ndarray):
    """Object array of str(i) for i in range(ranked.max() + 1), or None when
    that table would be longer than ranked itself: a few large ids must not
    size it."""
    top = int(ranked.max()) if ranked.size else -1
    if top >= ranked.size:
        return None
    return np.array([str(i) for i in range(top + 1)], dtype=object)


def save_queryset(qs: QuerySet, path) -> None:
    """Line-delimited export: prefix ids, tab, ranked ids.

    Lines are written SAVE_BLOCK records at a time, so the text of a large
    set is never held whole. A block's ranking texts are gathered from the
    id table in one indexing step when there is one. An empty untruncated
    set is one empty line.
    """
    label = _Labels().__getitem__
    table = _id_table(qs.ranked)
    with open(path, "w", encoding="utf-8") as fh:
        if qs.truncated:
            fh.write("# truncated\n")
        elif not len(qs):
            fh.write("\n")
        for start in range(0, len(qs), SAVE_BLOCK):
            block = qs.ranked[start : start + SAVE_BLOCK]
            if table is None:
                texts = [map(label, r) for r in block.tolist()]
            else:
                texts = table[block].tolist()
            fh.writelines(
                " ".join(map(label, prefix)) + "\t" + " ".join(ranking) + "\n"
                for prefix, ranking in zip(qs.prefixes[start : start + SAVE_BLOCK], texts)
            )


def load_queryset(path) -> QuerySet:
    """The set save_queryset wrote; a bad record raises ValueError naming its line."""
    pairs, linenos = [], []
    truncated = False
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() and "\t" not in line:  # a lone tab is a record with no ids
            continue
        if line.startswith("#"):
            truncated = truncated or "truncated" in line
            continue
        try:
            left, right = line.split("\t")
            pairs.append((tuple(map(int, left.split())), tuple(map(int, right.split()))))
        except ValueError:
            raise ValueError(f"{path}: malformed query record on line {lineno}") from None
        linenos.append(lineno)
    try:
        return QuerySet.from_pairs(pairs, truncated)
    except ValueError:
        raise ValueError(f"{path}: {_first_fault(pairs, linenos)}") from None


def _first_fault(pairs, linenos) -> str:
    """'{message} on line N' of the first record that a set of its own rejects
    or whose ranking length differs from the first's; a rejected file has one."""
    for pair, lineno in zip(pairs, linenos):
        try:
            QuerySet.from_pairs([pair])
        except ValueError as err:
            return f"{err} on line {lineno}"
        if len(pair[1]) != len(pairs[0][1]):
            return f"ranking length differs from line {linenos[0]} on line {lineno}"


class BlackBox:
    """Frozen victim exposed as a truncated top-k ranking API with a budget."""

    def __init__(
        self,
        victim: RecommenderParams,
        k: int = 100,
        budget: int | None = None,
        log_queries: bool = False,
        spent: int = 0,
    ):
        if not (1 <= k <= victim.num_items):
            raise ConfigError("k must be in [1, V]")
        if budget is not None and budget < 0:
            raise ConfigError("budget must be >= 0")
        self._victim = victim.freeze()
        self.k = k
        self.budget = budget
        self.log_queries = log_queries
        # charged to the same budget before this oracle was built; `used`
        # counts only this oracle's own queries
        self._spent = spent
        self._used = 0
        self._log: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    @property
    def num_items(self) -> int:
        # catalog size is public knowledge, unlike model internals
        return self._victim.num_items

    @property
    def used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int | None:
        return None if self.budget is None else self.budget - self._spent - self._used

    def query(self, x) -> tuple[int, ...]:
        """Top-k ranking for sequence x, ranked, charged and logged as query_batch([x])."""
        return tuple(self.query_batch([x])[0].tolist())

    def query_batch(self, prefixes) -> np.ndarray:
        """The top-k ranking of every prefix as the rows of one (n, k) int64
        array, one charge per row, in one ranking call.

        `prefixes` is a list of sequences or a 2-D array of equal-length ones.
        When the rows exceed the remaining budget, BudgetExhausted is raised
        and nothing is charged.
        """
        n = len(prefixes)
        if self.budget is not None and n > self.remaining:
            raise BudgetExhausted(
                f"query budget of {self.budget} is spent: {self.remaining} left, {n} asked"
            )
        top = recommend_topk_batch(self._victim, prefixes, self.k)
        self._used += n
        if self.log_queries:
            self._log.extend(
                (tuple(int(i) for i in x), r) for x, r in zip(prefixes, map(tuple, top.tolist()))
            )
        return top

    def drain_log(self) -> QuerySet:
        """All logged (sequence, ranking) pairs in issue order; log is kept."""
        if not self.log_queries:
            raise ConfigError("query logging is disabled on this black box")
        return QuerySet.from_pairs(self._log)
