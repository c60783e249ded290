import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam.checks import DEFAULT_SANDWICH_CELLS
from legfam.errors import BudgetExceededError
from legfam.fcomplexity import (
    ComplexityBudgetError,
    _level_cost,
    _search_level,
    family_complexity,
)
from legfam.legendre_seq import SequenceFamily, build_family
from oracles import family_complexity_by_patterns, legendre_direct, satisfies_spec

# the cells of the benchmark's oracle workload
BENCHMARK_CELLS = ((13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (11, 3), (13, 3))


def _fake_family(p: int, rows: list[tuple[int, ...]], k: int = 1) -> SequenceFamily:
    # wrap raw +-1 rows, none at all included
    return SequenceFamily(p, k, np.array(rows, dtype=np.int8).reshape(-1, p))


def _image(row: tuple[int, ...], p: int, k: int, c: int, a: int) -> tuple[int, ...]:
    # the row of f(cx + a)/c^k: at position n, chi(c)^k times the value at
    # position cn + a (residue 0 is position p)
    sign = legendre_direct(c, p) ** k
    return tuple(sign * row[(c * n + a) % p - 1] for n in range(1, p + 1))


def _columns(fam: SequenceFamily) -> tuple[list[int], int]:
    # the search's input: one member bitmask per position, and all members
    plus = [
        sum(1 << b for b, row in enumerate(fam.rows.tolist()) if row[i] == 1)
        for i in range(fam.p)
    ]
    return plus, (1 << len(fam)) - 1


def test_empty_family_has_gamma_zero():
    fam = _fake_family(5, [])
    res = family_complexity(fam)
    assert res.gamma == 0
    assert res.witness_failure is not None


def test_single_sequence_realizes_only_its_own_signs():
    fam = _fake_family(5, [(1, 1, 1, 1, 1)])
    res = family_complexity(fam)
    assert res.gamma == 0
    positions, signs = res.witness_failure
    assert positions == (1,)
    assert signs == (-1,)


def test_full_pattern_family_reaches_length():
    # all 8 sign rows of length 3: every pattern at every level is realized
    rows = list(itertools.product((-1, 1), repeat=3))
    fam = _fake_family(3, rows)
    res = family_complexity(fam)
    assert res.gamma == 3
    assert res.witness_failure is None


def test_family_3_2_gamma_and_witness():
    res = family_complexity(build_family(3, 2))
    assert res.gamma == 1
    assert res.witness_failure == ((1, 2), (1, 1))
    assert res.cells_examined > 0


def test_known_small_gammas():
    want = {
        (3, 1): 1, (5, 1): 1, (7, 1): 2, (11, 1): 2, (13, 1): 2,
        (3, 2): 1, (5, 2): 2, (7, 2): 2, (11, 2): 3, (13, 2): 4,
    }
    for (p, k), gamma in want.items():
        assert family_complexity(build_family(p, k)).gamma == gamma, (p, k)


def test_trivial_upper_bound_respected():
    for p, k in ((3, 2), (5, 2), (7, 2), (11, 2)):
        fam = build_family(p, k)
        res = family_complexity(fam)
        assert 2 ** res.gamma <= len(fam)


def test_witness_is_lexicographically_first():
    # two rows, length 4: level 2 fails; the witness must be the first
    # position pair in lex order whose pattern set is incomplete
    fam = _fake_family(5, [(1, 1, 1, 1, 1), (-1, -1, -1, -1, -1)])
    res = family_complexity(fam)
    assert res.gamma == 1
    positions, signs = res.witness_failure
    assert positions == (1, 2)
    assert signs == (-1, 1)  # smallest missing pattern integer, MSB first


def test_satisfies_spec_basic():
    fam = build_family(3, 2)
    assert satisfies_spec(fam, (1, 2), (-1, -1))
    assert satisfies_spec(fam, (1, 2), (-1, 1))
    assert satisfies_spec(fam, (1, 2), (1, -1))
    assert not satisfies_spec(fam, (1, 2), (1, 1))
    assert satisfies_spec(fam, (), ())  # vacuous


def test_satisfies_spec_validates():
    fam = build_family(3, 2)
    with pytest.raises(ValueError):
        satisfies_spec(fam, (2, 1), (1, 1))  # not increasing
    with pytest.raises(ValueError):
        satisfies_spec(fam, (1, 4), (1, 1))  # beyond p
    with pytest.raises(ValueError):
        satisfies_spec(fam, (0, 1), (1, 1))  # positions are 1-based
    with pytest.raises(ValueError):
        satisfies_spec(fam, (1, 2), (1, 0))
    with pytest.raises(ValueError):
        satisfies_spec(fam, (1, 2), (1,))


def test_gamma_consistent_with_satisfies_spec():
    fam = build_family(5, 2)
    res = family_complexity(fam)
    j = res.gamma
    for positions in itertools.combinations(range(1, 6), j):
        for signs in itertools.product((-1, 1), repeat=j):
            assert satisfies_spec(fam, positions, signs)
    positions, signs = res.witness_failure
    assert not satisfies_spec(fam, positions, signs)


def test_j_cap_stops_early():
    rows = list(itertools.product((-1, 1), repeat=3))
    fam = _fake_family(3, rows)
    res = family_complexity(fam, j_cap=2)
    assert res.gamma == 2
    assert res.witness_failure is None


def test_budget_error_names_first_unverified_level(family_13_2_flipped):
    fam = family_13_2_flipped
    # no symmetry to reduce by, so level 1 may split the whole family once
    # per position: 13 splits
    with pytest.raises(BudgetExceededError) as exc:
        family_complexity(fam, cell_budget=12)
    assert "j=1" in str(exc.value)
    # nothing verified yet: the lower bound is the trivial gamma >= 0
    assert isinstance(exc.value, ComplexityBudgetError)
    assert exc.value.refused_level == 1
    assert exc.value.gamma_lower_bound == 0
    assert exc.value.levels == ()
    assert exc.value.reduction == "none"
    assert "gamma >= 0" in str(exc.value)


def test_budget_error_partial_progress_level(family_13_2_flipped):
    fam = family_13_2_flipped
    # level 1 makes 13 splits; level 2 may make up to 13 (first positions)
    # + C(13, 2) * 2 (both groups at the second) = 169, and 13 + 169 > 100
    with pytest.raises(BudgetExceededError) as exc:
        family_complexity(fam, cell_budget=100)
    assert "j=2" in str(exc.value)
    # level 1 passed before the refusal, and the error keeps it
    assert exc.value.refused_level == 2
    assert exc.value.gamma_lower_bound == 1
    assert "gamma >= 1" in str(exc.value)
    full = family_complexity(fam)
    assert [splits for splits, _ in exc.value.levels] == [full.levels[0][0]] == [13]


def test_budget_error_keeps_every_verified_level(family_13_2_flipped):
    fam = family_13_2_flipped
    full = family_complexity(fam)  # gamma 4: levels 1..5
    assert full.reduction == "none"
    # the gate admits level 3 (splits of levels 1, 2 plus level 3's bound)
    # and then refuses level 4, whose bound alone exceeds what is left
    before_3 = sum(splits for splits, _ in full.levels[:2])
    budget = before_3 + _level_cost(13, 3)
    assert budget < sum(s for s, _ in full.levels[:3]) + _level_cost(13, 4)
    with pytest.raises(ComplexityBudgetError) as exc:
        family_complexity(fam, cell_budget=budget)
    assert exc.value.refused_level == 4
    assert exc.value.gamma_lower_bound == 3 <= full.gamma
    assert [s for s, _ in exc.value.levels] == [s for s, _ in full.levels[:3]]


@given(st.integers(0, 2 ** 5 - 1))
@settings(max_examples=40, deadline=None)
def test_gamma_monotone_under_member_removal(mask):
    fam = build_family(5, 2)
    kept = [i for i in range(len(fam)) if not (mask >> i) & 1]
    sub = SequenceFamily(5, 2, fam.rows[kept])
    full = family_complexity(fam).gamma
    assert family_complexity(sub).gamma <= full


def test_cells_examined_counts_match_hand_computation():
    fam = build_family(3, 2)
    res = family_complexity(fam)
    assert res.reduction == "affine"
    # level 1: position 1 alone, 1 group; level 2: 1 split at position 1,
    # then at position 2 group 0 splits fine and group 1 (+1 at 1) has no
    # +1 side
    assert res.cells_examined == 1 + (1 + 2)
    assert res.levels[0][0] == 1 and res.levels[1][0] == 3


def test_reduced_level_cost():
    # (2^r - 1) + sum_{t=r+1..j} C(n-r, t-r) 2^(t-1), pinned at n = 13
    assert [_level_cost(13, j, min(2, j)) for j in (1, 2, 3, 4)] == [1, 3, 47, 487]
    assert [_level_cost(13, j, 1) for j in (1, 2, 3)] == [1, 25, 289]
    assert [_level_cost(13, j) for j in (1, 2, 3)] == [13, 169, 1313]
    # all 2^7 rows of length 7: every tuple passes and every group of it is
    # split, the most work a level can do, and the cost still bounds it
    plus, everyone = _columns(_fake_family(7, list(itertools.product((-1, 1), repeat=7))))
    for prefix in (0, 1, 2):
        for j in range(max(prefix, 1), 6):
            found, splits = _search_level(plus, everyone, j, prefix)
            assert found is None
            assert splits <= _level_cost(7, j, prefix), (prefix, j)


@pytest.mark.parametrize(
    "p,k", dict.fromkeys(DEFAULT_SANDWICH_CELLS + BENCHMARK_CELLS + ((7, 3), (3, 4), (5, 4)))
)
def test_matches_pattern_reading_reference(p, k):
    fam = build_family(p, k)
    res = family_complexity(fam)
    rows = fam.rows.tolist()
    assert (res.gamma, res.witness_failure) == family_complexity_by_patterns(rows, p)


@pytest.mark.parametrize(
    "p,k", dict.fromkeys(DEFAULT_SANDWICH_CELLS + BENCHMARK_CELLS + ((7, 3), (3, 4), (5, 4)))
)
def test_reduced_search_fails_where_the_plain_search_does(p, k):
    # the tuples that start with the fixed positions come first in lex
    # order, so at the failing level the reduced search stops at the plain
    # search's witness after the same splits, and needs no second pass
    fam = build_family(p, k)
    res = family_complexity(fam)
    assert res.reduction == ("translation" if k == 1 else "affine")
    j = res.gamma + 1
    prefix = min(j, 1 if k == 1 else 2)
    plus, everyone = _columns(fam)
    reduced = _search_level(plus, everyone, j, prefix)
    assert reduced == _search_level(plus, everyone, j)
    assert reduced[1] == res.levels[-1][0]


_ROW_SETS = st.sampled_from((3, 5, 7, 11)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.tuples(*[st.sampled_from((-1, 1))] * p), min_size=1, max_size=3),
    )
)


@given(_ROW_SETS, st.sampled_from((1, 2)), st.data())
@settings(max_examples=60, deadline=None)
def test_orbit_closed_families_match_pattern_reading_reference(p_rows, k, data):
    # random rows plus every image under AGL(1, p), with the sign chi(c)^k
    p, seeds = p_rows
    rows = [_image(row, p, k, c, a) for row in seeds for c in range(1, p) for a in range(p)]
    res = family_complexity(_fake_family(p, rows, k))
    assert res.reduction == "affine"
    assert (res.gamma, res.witness_failure) == family_complexity_by_patterns(rows, p)
    # one value flipped leaves the orbit: the search falls back to every tuple
    b = data.draw(st.integers(0, len(rows) - 1))
    i = data.draw(st.integers(0, p - 1))
    rows[b] = rows[b][:i] + (-rows[b][i],) + rows[b][i + 1 :]
    res = family_complexity(_fake_family(p, rows, k))
    assert res.reduction == "none"
    assert (res.gamma, res.witness_failure) == family_complexity_by_patterns(rows, p)


@given(_ROW_SETS)
@settings(max_examples=60, deadline=None)
def test_shift_closed_families_match_pattern_reading_reference(p_rows):
    p, seeds = p_rows
    rows = [_image(row, p, 2, 1, a) for row in seeds for a in range(p)]
    res = family_complexity(_fake_family(p, rows))
    assert res.reduction != "none"
    assert (res.gamma, res.witness_failure) == family_complexity_by_patterns(rows, p)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_degree_one_families_are_closed_under_translation_only(p):
    # f(x) = x + a: the +1 patch at the root does not flip sign with the
    # rest of the row under the scaling, so only the shift is used
    fam = build_family(p, 1)
    res = family_complexity(fam)
    assert res.reduction == "translation"
    rows = fam.rows.tolist()
    assert (res.gamma, res.witness_failure) == family_complexity_by_patterns(rows, p)


@given(
    st.sampled_from((3, 5, 7, 11)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.tuples(*[st.sampled_from((-1, 1))] * p), max_size=60),
        )
    ),
    st.sampled_from((None, 0, 1, 2, 3)),
)
@settings(max_examples=200, deadline=None)
def test_random_families_match_pattern_reading_reference(p_rows, j_cap):
    p, rows = p_rows
    res = family_complexity(_fake_family(p, rows), j_cap=j_cap)
    assert (res.gamma, res.witness_failure) == family_complexity_by_patterns(rows, p, j_cap)


@pytest.mark.parametrize(
    "fam,j_cap",
    [
        (build_family(13, 2), None),
        (build_family(13, 2), 2),
        (_fake_family(3, list(itertools.product((-1, 1), repeat=3))), None),
        (_fake_family(5, []), None),
        (_fake_family(5, []), 0),
    ],
)
def test_levels_account_for_every_split(fam, j_cap):
    res = family_complexity(fam, j_cap=j_cap)
    assert sum(splits for splits, _ in res.levels) == res.cells_examined
    assert all(ns >= 0 for _, ns in res.levels)
    searched = res.gamma if res.witness_failure is None else res.gamma + 1
    assert len(res.levels) == searched


@pytest.mark.parametrize(
    "cell", [(13, 2), (11, 3), (7, 1), "flipped"], ids=["13-2", "11-3", "7-1", "flipped"]
)
def test_shuffled_rows_leave_the_result_unchanged(cell, family_13_2_flipped):
    # family complexity depends only on the multiset of rows: gamma, the
    # witness, the splits of every level and the reduction all stay put
    fam = family_13_2_flipped if cell == "flipped" else build_family(*cell)
    order = list(range(len(fam)))
    random.Random(16).shuffle(order)
    shuffled = SequenceFamily(fam.p, fam.k, fam.rows[order])
    assert shuffled.rows.tolist() != fam.rows.tolist()
    want, got = family_complexity(fam), family_complexity(shuffled)
    assert (got.gamma, got.witness_failure) == (want.gamma, want.witness_failure)
    assert got.cells_examined == want.cells_examined
    assert [s for s, _ in got.levels] == [s for s, _ in want.levels]
    assert got.reduction == want.reduction
