"""Planted-structure synthetic corpora.

Items are partitioned into latent groups and each user walks a first-order
process that stays inside the current item's group with probability p_stay,
otherwise jumps to an item of another group. Within a group, draws favor
popular items (Zipf-like skew) and items close to the current one on the
group's ring (locality), so co-occurrence carries both a popularity
hierarchy and neighborhood structure. That structure gives collaborative
signals and stealth comparisons something real to measure at desk scale.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import InteractionCorpus
from .errors import ConfigError

_BLOCK = 4096  # uniforms drawn from the generator at a time


@dataclass(frozen=True)
class SyntheticSpec:
    num_items: int = 200
    num_users: int = 500
    num_groups: int = 10
    p_stay: float = 0.8
    min_len: int = 10
    max_len: int = 50
    continue_prob: float = 0.9
    popularity_skew: float = 0.5  # Zipf exponent of item draw weights
    locality: float = 8.0  # ring-distance scale of within-group draws; 0 = off
    seed: int = 0

    def __post_init__(self):
        if self.num_items < 10 or self.num_users < 10:
            raise ConfigError("need at least 10 items and 10 users")
        if not (1 <= self.num_groups <= self.num_items):
            raise ConfigError("num_groups must be in [1, num_items]")
        if not (0.0 <= self.p_stay <= 1.0):
            raise ConfigError("p_stay must be in [0, 1]")
        if not (3 <= self.min_len <= self.max_len):
            raise ConfigError("need 3 <= min_len <= max_len")
        if not (0.0 <= self.continue_prob < 1.0):
            raise ConfigError("continue_prob must be in [0, 1)")
        if self.popularity_skew < 0:
            raise ConfigError("popularity_skew must be >= 0")
        if self.locality < 0:
            raise ConfigError("locality must be >= 0")


def item_groups(spec: SyntheticSpec) -> np.ndarray:
    """Group id per item; contiguous blocks, remainders spread over the first groups."""
    return (np.arange(spec.num_items) * spec.num_groups) // spec.num_items


def item_weights(spec: SyntheticSpec) -> np.ndarray:
    """Unnormalized draw weight per item: 1/(1 + rank_in_group)^skew.

    Lower ids inside a group are drawn more often, giving every group the
    same popularity hierarchy (skew 0 restores uniform draws).
    """
    groups = item_groups(spec)
    rank = np.arange(spec.num_items) - np.searchsorted(groups, groups)
    with np.errstate(over="ignore"):  # an overflow gives weight 0.0, which _cdf reports
        return 1.0 / (1.0 + rank) ** spec.popularity_skew


def _cdf(weights: np.ndarray, spec: SyntheticSpec, field: str) -> np.ndarray:
    """The table Generator.choice(n, p=weights / weights.sum()) searches: a
    uniform u from rng.random() draws index cdf.searchsorted(u, side="right").

    A weight sum that is not positive and finite would leave a NaN table, so
    it is a ConfigError naming the spec field whose weights underflowed.
    """
    total = weights.sum()
    if not 0 < total < np.inf:
        raise ConfigError(f"{field} = {getattr(spec, field)}: every draw weight of a "
                          f"{weights.size}-item pool underflows to 0")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def gen_synthetic_corpus(spec: SyntheticSpec) -> InteractionCorpus:
    """Draw a corpus from the planted-group process, deterministic per seed.

    Every draw takes the next double of one uniform stream, read from the
    seeded generator in blocks. An item is drawn by inverse-CDF search in
    one of three tables: one for each user's first item, a stay table per
    current item and a jump table per group, each built on first use. The
    stream and the tables are the ones scalar rng.random() and
    rng.choice(n, p=w) calls would use, so the corpus is the one those calls
    draw.
    """
    rng = np.random.default_rng(spec.seed)
    # the stream's next double; PCG64 fills a block with the doubles that
    # as many scalar rng.random() calls return
    uniform = chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None)).__next__
    groups = item_groups(spec)
    members = [np.flatnonzero(groups == g) for g in range(spec.num_groups)]
    pop = item_weights(spec)
    group_of = groups.tolist()
    group_size = [members[g].size for g in group_of]
    stay: dict[int, tuple[list, list]] = {}
    jump: dict[int, tuple[int, int, np.ndarray]] = {}  # ~V wide: kept as arrays

    def stay_table(cur: int) -> tuple[list, list]:
        """Stay in the group, but avoid an immediate self-repeat."""
        own = members[group_of[cur]]
        pool = own[own != cur]
        w = pop[pool]
        field = "popularity_skew"
        if spec.locality > 0:
            # favor ring neighbors of the current item inside the group
            ranks = np.searchsorted(own, pool)
            cur_rank = int(np.searchsorted(own, cur))
            dist = np.abs(ranks - cur_rank)
            dist = np.minimum(dist, own.size - dist)
            field = "locality" if w.sum() > 0 else field
            w = w * np.exp(-dist / spec.locality)
        return pool.tolist(), _cdf(w, spec, field).tolist()

    def jump_table(cur: int) -> tuple[int, int, np.ndarray]:
        """Leave the group; with a single group every jump stays internal,
        weighted by popularity alone. The pool is every item but one block,
        the group or the current item, so it is kept as that block's start
        and size: pool index i is item i below the start, i + size from it."""
        own = members[group_of[cur]]
        start, size = (cur, 1) if spec.num_groups == 1 else (int(own[0]), own.size)
        pool = np.r_[0:start, start + size:spec.num_items]
        return start, size, _cdf(pop[pool], spec, "popularity_skew")

    first = _cdf(pop, spec, "popularity_skew").tolist()  # its pool is every item, in order
    sequences = []
    for _ in range(spec.num_users):
        length = spec.min_len
        while length < spec.max_len and uniform() < spec.continue_prob:
            length += 1
        cur = bisect_right(first, uniform())
        seq = [cur]
        for _ in range(length - 1):
            if uniform() < spec.p_stay and group_size[cur] > 1:
                if cur not in stay:
                    stay[cur] = stay_table(cur)
                pool, cdf = stay[cur]
                cur = pool[bisect_right(cdf, uniform())]
            else:
                key = cur if spec.num_groups == 1 else group_of[cur]
                if key not in jump:
                    jump[key] = jump_table(cur)
                start, size, cdf = jump[key]
                cur = int(cdf.searchsorted(uniform(), side="right"))
                cur += size if cur >= start else 0
            seq.append(cur)
        sequences.append(tuple(seq))
    return InteractionCorpus(
        users=tuple(f"u{i}" for i in range(spec.num_users)),
        sequences=tuple(sequences),
        num_items=spec.num_items,
    )
