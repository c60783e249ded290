import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam.errors import BudgetExceededError
from legfam import legendre_seq
from legfam.gf import PolyModP
from legfam.legendre_seq import (
    LegendreSequence,
    build_family,
    build_sequence,
    legendre_symbol,
)
from legfam.ntheory import count_irreducibles, primes_up_to
from oracles import legendre_direct


def test_legendre_symbol_matches_direct_definition():
    for p in primes_up_to(101):
        if p == 2:
            continue
        for a in range(-p, 2 * p):
            assert legendre_symbol(a, p) == legendre_direct(a, p), (a, p)


def test_legendre_symbol_euler_criterion():
    for p in (3, 5, 7, 11, 997):
        for a in range(1, min(p, 60)):
            euler = pow(a, (p - 1) // 2, p)
            want = 1 if euler == 1 else -1
            assert legendre_symbol(a, p) == want


def test_legendre_symbol_multiplicative():
    p = 43
    for a in range(1, p):
        for b in range(1, p):
            assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_legendre_symbol_balance():
    for p in (7, 31, 101):
        vals = [legendre_symbol(a, p) for a in range(1, p)]
        assert vals.count(1) == vals.count(-1) == (p - 1) // 2


def test_build_sequence_examples():
    assert build_sequence(PolyModP(5, (0, 1))).values == (1, -1, -1, 1, 1)
    assert build_sequence(PolyModP(3, (1, 0, 1))).values == (-1, -1, 1)
    assert build_sequence(PolyModP(3, (1, 1))).values == (-1, 1, 1)


def test_build_sequence_index_convention():
    # e_n uses f(n) for n = 1..p-1 and f(0) at n = p; zeros patch to +1
    f = PolyModP(7, (0, 1))  # f(x) = x
    seq = build_sequence(f)
    assert len(seq) == 7
    for n in range(1, 7):
        assert seq.values[n - 1] == legendre_symbol(n, 7)
    assert seq.values[6] == 1  # f(0) = 0 patches to +1


def test_build_sequence_rejects_constants_and_squares():
    with pytest.raises(ValueError):
        build_sequence(PolyModP(5, (3,)))
    # (x+1)^2 shares a root with its derivative
    sq = PolyModP(5, (1, 1)) * PolyModP(5, (1, 1))
    with pytest.raises(ValueError):
        build_sequence(sq)
    # x^p + c has zero derivative (it is a p-th power)
    with pytest.raises(ValueError):
        build_sequence(PolyModP(3, (1, 0, 0, 1)))


def test_build_sequence_accepts_any_squarefree():
    f = PolyModP(5, (1, 1)) * PolyModP(5, (2, 1))  # reducible but squarefree
    seq = build_sequence(f)
    assert len(seq.values) == 5
    assert all(v in (-1, 1) for v in seq.values)


def test_sequence_weil_sum_bound():
    # partial character sums of squarefree non-square polys stay within
    # (deg f) * sqrt(p) of the zero-patch correction; spot check full sums
    for p in (11, 13, 17):
        f = PolyModP(p, (1, 0, 1))
        zeros = sum(1 for n in range(p) if f.evaluate(n) == 0)
        total = sum(build_sequence(f).values)
        assert abs(total) <= 2 * math.isqrt(p) + 1 + 2 * zeros


def test_build_family_3_2():
    fam = build_family(3, 2)
    assert fam.p == 3 and fam.k == 2
    assert [m.values for m in fam.members] == [
        (-1, -1, 1),
        (1, -1, -1),
        (-1, 1, -1),
    ]


def test_build_family_sizes():
    for p, k in ((3, 1), (5, 1), (5, 2), (7, 2), (3, 3)):
        fam = build_family(p, k)
        assert len(fam.members) == count_irreducibles(p, k)
        assert all(len(m) == p for m in fam.members)


def test_build_family_members_are_distinct():
    fam = build_family(7, 2)
    assert len({m.values for m in fam.members}) == len(fam.members)


def test_build_family_budget(monkeypatch):
    # both gates refuse before any polynomial is enumerated
    monkeypatch.setattr(legendre_seq, "enumerate_irreducibles", None)
    # 1031^2 = 1,062,961 candidates > 2^20
    with pytest.raises(BudgetExceededError, match="enumeration candidates"):
        build_family(1031, 2)
    # 101^3 = 1,030,301 candidates fit, but 343,400 members x 101 cells do not
    with pytest.raises(BudgetExceededError, match="34683400 sequence cells"):
        build_family(101, 3)


def test_build_family_rejects_bad_p():
    with pytest.raises(ValueError):
        build_family(4, 2)
    with pytest.raises(ValueError):
        build_family(2, 2)


def test_sequence_dataclass_validation():
    with pytest.raises(ValueError):
        LegendreSequence(5, (1, -1, 1), PolyModP(5, (0, 1)))  # wrong length
    with pytest.raises(ValueError):
        LegendreSequence(5, (1, -1, 2, 1, 1), PolyModP(5, (0, 1)))  # bad symbol


@given(st.sampled_from([(3, 2), (5, 1), (5, 2), (7, 1)]))
@settings(max_examples=20, deadline=None)
def test_family_values_match_rebuilt_sequences(cell):
    p, k = cell
    fam = build_family(p, k)
    for member in fam.members:
        assert build_sequence(member.source).values == member.values


@pytest.mark.parametrize("p,k", [(13, 2), (29, 2), (13, 3), (3, 4)])
def test_family_values_match_direct_symbols(p, k):
    # every member, every position, from the definition of (a/p)
    fam = build_family(p, k)
    symbol = [legendre_direct(a, p) or 1 for a in range(p)]
    for member in fam.members:
        f = member.source
        assert member.values == tuple(symbol[f.evaluate(n)] for n in range(1, p + 1))
