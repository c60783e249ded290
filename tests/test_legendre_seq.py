import math

import numpy as np
import pytest

from legfam.errors import BudgetExceededError
from legfam import gf, legendre_seq
from legfam.gf import enumerate_irreducibles
from legfam.legendre_seq import SequenceFamily, build_family, legendre_symbol
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


def test_legendre_symbol_over_arrays_matches_direct_definition():
    # one call per prime over every a in [-p, 2p)
    for p in primes_up_to(1024, 3):
        got = legendre_symbol(np.arange(-p, 2 * p), p)
        assert got.dtype == np.int8, p
        assert got.tolist() == [legendre_direct(a, p) for a in range(-p, 2 * p)], p


def test_legendre_symbol_keeps_the_shape_of_its_input():
    # arrays of any dimension give int8 arrays of their shape, scalars ints
    for a in (np.array(3), np.array(7), np.arange(-7, 7), np.arange(30).reshape(5, 6)):
        got = legendre_symbol(a, 7)
        assert isinstance(got, np.ndarray) and got.shape == a.shape and got.dtype == np.int8
        assert got.tolist() == np.vectorize(lambda x: legendre_direct(int(x), 7))(a).tolist()
    for a in (3, 7, -1, 10 ** 30 + 1, np.int64(5)):
        got = legendre_symbol(a, 7)
        assert type(got) is int and got == legendre_direct(a, 7), a


@pytest.mark.parametrize("p", [1, 2, 9, 15, 2 ** 64 + 1])
def test_legendre_symbol_over_arrays_rejects_p(p):
    with pytest.raises(ValueError, match="p must be an odd prime"):
        legendre_symbol(np.arange(5), p)


def test_build_sequence_examples():
    # row b belongs to row b of the enumeration: x over F_5, x^2 + 1 and
    # x + 1 over F_3
    for (p, k), coeffs, values in (
        ((5, 1), (0, 1), (1, -1, -1, 1, 1)),
        ((3, 2), (1, 0, 1), (-1, -1, 1)),
        ((3, 1), (1, 1), (-1, 1, 1)),
    ):
        polys = enumerate_irreducibles(p, k).tolist()
        by_source = dict(zip(map(tuple, polys), map(tuple, build_family(p, k).rows.tolist())))
        assert by_source[coeffs] == values, (p, k, coeffs)


def test_build_sequence_index_convention():
    # e_n uses f(n) for n = 1..p-1 and f(0) at n = p; zeros patch to +1
    seq = build_family(7, 1).rows[0]
    assert enumerate_irreducibles(7, 1)[0].tolist() == [0, 1]  # f(x) = x
    assert len(seq) == 7
    for n in range(1, 7):
        assert seq[n - 1] == legendre_symbol(n, 7)
    assert seq[6] == 1  # f(0) = 0 patches to +1


def test_sequence_weil_sum_bound():
    # Weil: the character sum of a squarefree non-square f has size at most
    # (deg f - 1) sqrt(p); irreducibles of degree 2 have no zeros to patch
    for p in (11, 13, 17):
        for b, row in enumerate(build_family(p, 2).rows.tolist()):
            assert abs(sum(row)) <= 2 * math.isqrt(p) + 1, (p, b)


def test_build_family_3_2():
    fam = build_family(3, 2)
    assert fam.p == 3 and fam.k == 2
    assert fam.rows.tolist() == [
        [-1, -1, 1],
        [1, -1, -1],
        [-1, 1, -1],
    ]


def test_build_family_sizes():
    for p, k in ((3, 1), (5, 1), (5, 2), (7, 2), (3, 3)):
        fam = build_family(p, k)
        assert len(fam) == count_irreducibles(p, k)
        assert fam.rows.shape == (len(fam), p) and fam.rows.dtype == np.int8


def test_build_family_members_are_distinct():
    fam = build_family(7, 2)
    assert len({tuple(row) for row in fam.rows.tolist()}) == len(fam)


def test_build_family_budget(monkeypatch):
    # both gates refuse before any polynomial is sieved
    def refuse(*args):
        raise AssertionError("work started before the budget gate")

    monkeypatch.setattr(gf, "_irreducible_mask", refuse)
    # 3^13 = 1,594,323 candidates > 2^20, though 122,640 members x 3 cells
    # fit: enumerate_irreducibles' own gate refuses
    with pytest.raises(BudgetExceededError, match="1594323 candidates"):
        build_family(3, 13)
    monkeypatch.setattr(legendre_seq, "enumerate_irreducibles", None)
    # 101^3 = 1,030,301 candidates fit, but 343,400 members x 101 cells do not
    with pytest.raises(BudgetExceededError, match="34683400 sequence cells"):
        build_family(101, 3)
    # 1031^2 candidates do not fit either, and the cells gate comes first
    with pytest.raises(BudgetExceededError, match="547424915 sequence cells"):
        build_family(1031, 2)


def test_cell_bit_floor_bounds_the_cells_gate():
    # the huge-k refusal reads _min_cell_bits instead of the size: it must
    # never exceed the bit length of members x p, or a cell that fits
    # could be refused
    for p in primes_up_to(1000, 3):
        for k in range(1, 40 if p < 20 else 6):
            cells = count_irreducibles(p, k) * p
            assert legendre_seq._min_cell_bits(p, k) <= cells.bit_length(), (p, k)


def test_build_family_rejects_bad_p():
    with pytest.raises(ValueError):
        build_family(4, 2)
    with pytest.raises(ValueError):
        build_family(2, 2)


def test_sequence_dataclass_validation():
    with pytest.raises(ValueError, match="shape"):
        SequenceFamily(5, 1, [(1, -1, 1)])  # wrong length
    with pytest.raises(ValueError, match="shape"):
        SequenceFamily(5, 1, (1, -1, 1, 1, 1))  # one row, not an array of rows
    with pytest.raises(ValueError, match="entries must be"):
        SequenceFamily(5, 1, [(1, -1, 2, 1, 1)])  # bad symbol
    with pytest.raises(ValueError, match="p must be an odd prime"):
        SequenceFamily(4, 1, [(1, -1, 1, 1)])
    given = np.array([(1, -1, 1, 1, 1)])
    fam = SequenceFamily(5, 1, given)
    with pytest.raises(ValueError, match="read-only"):
        fam.rows[0, 0] = -1
    given[0, 0] = -1  # the family holds a copy
    assert fam.rows.tolist() == [[1, -1, 1, 1, 1]]


@pytest.mark.parametrize(
    "p,k", [(3, 2), (5, 1), (5, 2), (7, 1), (13, 2), (29, 2), (13, 3), (3, 4)]
)
def test_family_values_match_direct_symbols(p, k):
    # every member, every position, from the definition of (a/p): row b
    # is the sequence of the enumeration's row b, evaluated term by term
    fam = build_family(p, k)
    polys = enumerate_irreducibles(p, k).tolist()
    assert len(fam) == len(polys)
    symbol = [legendre_direct(a, p) or 1 for a in range(p)]
    for row, coeffs in zip(fam.rows.tolist(), polys):
        value = [sum(c * n ** i for i, c in enumerate(coeffs)) % p for n in range(1, p + 1)]
        assert row == [symbol[v] for v in value], coeffs
