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

The family F(k, p) needs only a sliver of the tuples. Position n is the
residue n mod p, and for k >= 2 F(k, p) is closed under two maps:
f(x) -> f(x + 1) shifts the positions cyclically, and f(cx)/c^k sends
position n to cn and multiplies every member by chi(c)^k (an irreducible
of degree >= 2 has no root in F_p, so its row has no +1 patch for the
sign flip to break). Neither map changes whether a tuple realizes every pattern, and
AGL(1, p) is 2-transitive, so level j passes iff every j-tuple that starts
(1, 2) passes: C(p - 2, j - 2) tuples instead of C(p, j). Both maps are
checked on the family's own rows before either is used; a family closed
under the shift alone (k = 1 is one: its patch breaks the sign flip) has
position 1 fixed instead, and any other family is searched in full.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat
from operator import and_

import numpy as np

from .errors import BudgetExceededError
from .gf import ExtField
from .legendre_seq import SequenceFamily

__all__ = [
    "ComplexityResult",
    "ComplexityBudgetError",
    "family_complexity",
    "DEFAULT_CELL_BUDGET",
]

# Group splits allowed per call. At the ~4.5 M splits/s measured on a
# 2-core Xeon (Python 3.11) its worst case takes about a minute. A full
# search of (43,2) would pass j = 6 with 227 M splits and stop before
# j = 7; over the tuples that start (1, 2) it needs 3.6 M splits in all.
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
    or gamma when the cap was hit. reduction names the symmetry the search
    used: "affine" (tuples start (1, 2)), "translation" (they start (1,))
    or "none".
    """

    gamma: int
    witness_failure: tuple[tuple[int, ...], tuple[int, ...]] | None
    cells_examined: int
    levels: tuple[tuple[int, int], ...]
    reduction: str


class ComplexityBudgetError(BudgetExceededError):
    """The budget refused level refused_level after every level below it
    passed, so gamma >= gamma_lower_bound = refused_level - 1; levels and
    reduction describe the verified levels, as in ComplexityResult."""

    def __init__(
        self,
        message: str,
        refused_level: int,
        levels: tuple[tuple[int, int], ...],
        reduction: str,
    ):
        super().__init__(message)
        self.refused_level = refused_level
        self.gamma_lower_bound = refused_level - 1
        self.levels = levels
        self.reduction = reduction


def _symmetry(family: SequenceFamily) -> tuple[str, int]:
    """The reduction the family's rows allow, and how many leading positions
    it fixes: ("affine", 2), ("translation", 1) or ("none", 0).

    Each map is applied to the whole array and the image compared with the
    rows as multisets, both sorted lexicographically. The scaling uses the
    least generator c of F_p^*, a non-residue, so its sign is (-1)^k.
    """
    p, rows = family.p, family.rows
    lex = _lex_sorted(rows)
    if not np.array_equal(_lex_sorted(np.roll(rows, -1, axis=1)), lex):
        return "none", 0
    c = ExtField(p, 1)._generator_id()
    # the image's value at position n is (-1)^k times the value at
    # position cn; residue 0 is position p, at index -1
    perm = c * np.arange(1, p + 1) % p - 1
    if not np.array_equal(_lex_sorted((-1) ** family.k * rows[:, perm]), lex):
        return "translation", 1
    return "affine", 2


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    # np.lexsort keys on its last key first, so the columns go in reversed
    return rows[np.lexsort(rows.T[::-1])]


def _level_cost(n: int, j: int, prefix: int = 0) -> int:
    """Most group splits level j can make over the tuples that start with
    positions 1..prefix (prefix <= j): 2^prefix - 1 along that forced
    prefix, then C(n - prefix, t - prefix) prefixes of size t, each
    splitting the 2^(t-1) groups of its own prefix, for t = prefix+1..j."""
    free = sum(math.comb(n - prefix, t - prefix) << (t - 1) for t in range(prefix + 1, j + 1))
    return (1 << prefix) - 1 + free


def _search_level(
    plus: list[int], everyone: int, j: int, prefix: int = 0
) -> tuple[tuple[tuple[int, ...], int] | None, int]:
    """Depth-first search, in lex order, of the j-position tuples that
    start with positions 1..prefix (prefix <= j).

    Returns ((positions, missing pattern), splits) for the first tuple
    with an unrealized pattern, or (None, splits) when every tuple is
    fully realized. Groups are kept in pattern order (MSB = first
    position), so group idx splits into patterns 2*idx (-1) and
    2*idx + 1 (+1). Every level below j passed, so no group of a shorter
    prefix is empty.

    The tuples that start 1..prefix come first in the lex order of all
    j-tuples, so this search takes the plain search's (prefix 0) first
    steps, split for split: a failure it finds is the plain search's
    first failure, with the same splits.
    """
    n = len(plus)
    minus = [everyone ^ m for m in plus]
    splits = 0
    chosen: list[int] = []

    def descend(groups: list[int], start: int):
        nonlocal splits
        depth = len(chosen)
        stop = start + 1 if depth < prefix else n - (j - 1 - depth)
        if depth == j - 1:
            for i in range(start, stop):
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
        for i in range(start, stop):
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

    found = descend([everyone], 0)
    # descend reaches itself through its closure; dropping the name breaks
    # that cycle, so plus and minus go with this call, not at the next
    # full collection
    del descend
    return found, splits


def family_complexity(
    family: SequenceFamily,
    j_cap: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ComplexityResult:
    """Exact family complexity by ascending exhaustive search.

    Level j is checked only after every level below passed. The family's
    rows are checked for the shift and the scaling first (_symmetry), and
    each level then searches only the tuples that start with the positions
    the symmetry fixes. Those tuples come first in lex order, and a failing
    level has a failing tuple among them, so the search stops at the
    lexicographically first failing tuple of all and the returned witness
    is canonical, with no second pass.

    The group splits of a level are bounded above by _level_cost, over the
    tuples it searches, before starting it; if that bound would push the
    splits made past cell_budget, ComplexityBudgetError is raised naming
    the first unverified level and carrying the lower bound and levels
    verified so far. No search makes more splits than cell_budget.

    An empty family has gamma 0. gamma is capped at the sequence length
    (only p distinct positions exist) and at j_cap if given.
    """
    n = family.p
    if j_cap is not None and j_cap < 0:
        raise ValueError(f"j_cap must be >= 0, got {j_cap}")
    limit = n if j_cap is None else min(n, j_cap)
    reduction, fixed = _symmetry(family)
    # plus[i]: bit b set iff member b has +1 at position i + 1, from column i
    packed = np.packbits(family.rows == 1, axis=0, bitorder="little")
    plus = [int.from_bytes(column.tobytes(), "little") for column in packed.T]
    everyone = (1 << len(family)) - 1
    cells = 0
    levels: list[tuple[int, int]] = []
    for j in range(1, limit + 1):
        prefix = min(fixed, j)
        upcoming = _level_cost(n, j, prefix)
        if cells + upcoming > cell_budget:
            raise ComplexityBudgetError(
                f"cell budget {cell_budget} exhausted before verifying j={j} "
                f"(level needs up to {upcoming} more group splits, {cells} used); "
                f"verified gamma >= {j - 1}",
                j,
                tuple(levels),
                reduction,
            )
        t0 = time.perf_counter_ns()
        found, splits = _search_level(plus, everyone, j, prefix)
        levels.append((splits, time.perf_counter_ns() - t0))
        cells += splits
        if found is not None:
            pos, missing = found
            signs = tuple(1 if (missing >> (j - 1 - t)) & 1 else -1 for t in range(j))
            return ComplexityResult(j - 1, (pos, signs), cells, tuple(levels), reduction)
    return ComplexityResult(limit, None, cells, tuple(levels), reduction)
