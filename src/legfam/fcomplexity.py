"""Exhaustive family complexity.

The family complexity of a family F of +-1 sequences of length N is the
largest j such that for EVERY choice of j positions and EVERY +-1 sign
pattern on them, some member of F realizes that pattern. This module
computes it by direct search, which is exponential in j but exact; it is
the ground truth the closed-form bounds are tested against.

The search is partition refinement over member bitmasks: each position
holds one integer whose bit b says member b has +1 there, and choosing a
position splits every group of members (one group per sign pattern on the
positions chosen so far) into its -1 part and its +1 part. A position
tuple fails exactly when some split leaves an empty side. Work is counted
in group splits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat
from operator import and_
from typing import Sequence

from .errors import BudgetExceededError
from .legendre_seq import SequenceFamily

__all__ = [
    "ComplexityResult",
    "ComplexityBudgetError",
    "satisfies_spec",
    "family_complexity",
    "DEFAULT_CELL_BUDGET",
]

# Group splits allowed per call. At the ~4.5 M splits/s measured on a
# 2-core Xeon (Python 3.11) its worst case takes about a minute, as the
# earlier member-pattern budget did. (31,2) needs 3.2 M splits and (37,2)
# 0.6 M; (43,2) passes j = 6 with 227 M and stops before j = 7.
DEFAULT_CELL_BUDGET = 3 * 10 ** 8


@dataclass(frozen=True)
class ComplexityResult:
    """Exact family complexity plus the certificate that stops it.

    witness_failure is None when gamma hit the cap (sequence length or
    j_cap) with every level fully realized; otherwise it is the pair
    (positions, signs) of size gamma + 1 that no member satisfies, with
    the lexicographically first failing position tuple and, within it,
    the first missing sign pattern in (-1 < +1) order.

    cells_examined counts the group splits made, and levels holds one
    (splits, ns) pair per level searched, j = 1 upward: gamma + 1 levels,
    or gamma when the cap was hit.
    """

    gamma: int
    witness_failure: tuple[tuple[int, ...], tuple[int, ...]] | None
    cells_examined: int
    levels: tuple[tuple[int, int], ...]


class ComplexityBudgetError(BudgetExceededError):
    """The budget refused level refused_level after every level below it
    passed, so gamma >= gamma_lower_bound = refused_level - 1; levels holds
    the (splits, ns) of those verified levels, as in ComplexityResult."""

    def __init__(self, message: str, refused_level: int, levels: tuple[tuple[int, int], ...]):
        super().__init__(message)
        self.refused_level = refused_level
        self.gamma_lower_bound = refused_level - 1
        self.levels = levels


def satisfies_spec(
    family: SequenceFamily, positions: Sequence[int], signs: Sequence[int]
) -> bool:
    """True when some family member matches every (position, sign) constraint.

    Positions are 1-based, strictly increasing, at most the sequence length.
    The empty pattern is satisfied vacuously, even by an empty family.
    """
    if len(positions) != len(signs):
        raise ValueError("positions and signs must have equal length")
    if not positions:
        return True
    prev = 0
    for i in positions:
        if not prev < i <= family.p:
            raise ValueError(
                f"positions must be strictly increasing in [1, {family.p}], got {positions}"
            )
        prev = i
    for s in signs:
        if s not in (-1, 1):
            raise ValueError(f"signs must be +-1, got {s}")
    for member in family.members:
        if all(member.values[i - 1] == s for i, s in zip(positions, signs)):
            return True
    return False


def _level_cost(n: int, j: int) -> int:
    """Most group splits level j can make: C(n, t) prefixes of size t,
    each splitting the 2^(t-1) groups of its own prefix, for t = 1..j."""
    return sum(math.comb(n, t) << (t - 1) for t in range(1, j + 1))


def _search_level(
    plus: list[int], everyone: int, j: int
) -> tuple[tuple[tuple[int, ...], int] | None, int]:
    """Depth-first search of the j-position tuples in lex order.

    Returns ((positions, missing pattern), splits) for the first tuple
    with an unrealized pattern, or (None, splits) when every tuple is
    fully realized. Groups are kept in pattern order (MSB = first
    position), so group idx splits into patterns 2*idx (-1) and
    2*idx + 1 (+1). Every level below j passed, so no group of a shorter
    prefix is empty.
    """
    n = len(plus)
    minus = [everyone ^ m for m in plus]
    splits = 0
    chosen: list[int] = []

    def descend(groups: list[int], start: int):
        nonlocal splits
        if len(chosen) == j - 1:
            for i in range(start, n):
                on, off = repeat(plus[i]), repeat(minus[i])
                if all(map(and_, groups, off)) and all(map(and_, groups, on)):
                    splits += len(groups)
                    continue
                for idx, g in enumerate(groups):
                    if not g & minus[i]:
                        splits += idx + 1
                        return (*chosen, i + 1), 2 * idx
                    if not g & plus[i]:
                        splits += idx + 1
                        return (*chosen, i + 1), 2 * idx + 1
            return None
        for i in range(start, n - (j - 1 - len(chosen))):
            split = [0] * (2 * len(groups))
            split[0::2] = map(and_, groups, repeat(minus[i]))
            split[1::2] = map(and_, groups, repeat(plus[i]))
            splits += len(groups)
            chosen.append(i + 1)
            found = descend(split, i + 1)
            chosen.pop()
            if found is not None:
                return found
        return None

    return descend([everyone], 0), splits


def family_complexity(
    family: SequenceFamily,
    j_cap: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ComplexityResult:
    """Exact family complexity by ascending exhaustive search.

    Level j is checked only after every level below passed, and the search
    stops at the first failing position tuple, so the returned witness is
    canonical. The group splits of a full level are bounded above by
    _level_cost before starting it; if that bound would push the splits
    made past cell_budget, ComplexityBudgetError is raised naming the first
    unverified level and carrying the lower bound and levels verified so
    far.

    An empty family has gamma 0. gamma is capped at the sequence length
    (only p distinct positions exist) and at j_cap if given.
    """
    n = family.p
    if j_cap is not None and j_cap < 0:
        raise ValueError(f"j_cap must be >= 0, got {j_cap}")
    limit = n if j_cap is None else min(n, j_cap)
    # plus[i]: bit b set iff member b has +1 at position i + 1
    plus = [0] * n
    for b, member in enumerate(family.members):
        for i, v in enumerate(member.values):
            if v == 1:
                plus[i] |= 1 << b
    everyone = (1 << len(family.members)) - 1
    cells = 0
    levels: list[tuple[int, int]] = []
    for j in range(1, limit + 1):
        upcoming = _level_cost(n, j)
        if cells + upcoming > cell_budget:
            raise ComplexityBudgetError(
                f"cell budget {cell_budget} exhausted before verifying j={j} "
                f"(level needs up to {upcoming} more group splits, {cells} used); "
                f"verified gamma >= {j - 1}",
                j,
                tuple(levels),
            )
        t0 = time.perf_counter_ns()
        found, splits = _search_level(plus, everyone, j)
        levels.append((splits, time.perf_counter_ns() - t0))
        cells += splits
        if found is not None:
            pos, missing = found
            signs = tuple(1 if (missing >> (j - 1 - t)) & 1 else -1 for t in range(j))
            return ComplexityResult(j - 1, (pos, signs), cells, tuple(levels))
    return ComplexityResult(limit, None, cells, tuple(levels))
