import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam import gf
from legfam.checks import small_fields
from legfam.errors import BudgetExceededError
from legfam.gf import (
    ExtField,
    PolyModP,
    _rabin_irreducible,
    enumerate_irreducibles,
    is_irreducible,
    norm,
    pattern_count,
    quad_char,
)
from legfam.legendre_seq import legendre_symbol
from legfam.ntheory import count_irreducibles
from oracles import TinyField

# the cells of the benchmark's oracle workload
ORACLE_CELLS = ((13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (11, 3), (13, 3))


def brute_is_irreducible(f: PolyModP) -> bool:
    # trial division by every monic polynomial of degree 1..deg/2
    p, deg = f.p, f.degree
    for d_deg in range(1, deg // 2 + 1):
        for t in itertools.product(range(p), repeat=d_deg):
            d = PolyModP(p, t + (1,))
            if (f % d).is_zero:
                return False
    return True


def test_poly_basic_arithmetic():
    f = PolyModP(5, (1, 2, 3))
    g = PolyModP(5, (4, 1))
    assert (f + g).coeffs == (0, 3, 3)
    assert (f - g).coeffs == (2, 1, 3)
    assert (f * g).coeffs == (4, 4, 4, 3)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_poly_strips_trailing_zeros_and_reduces():
    f = PolyModP(7, (8, 0, 7))
    assert f.coeffs == (1,)
    assert f.degree == 0
    assert PolyModP(7, ()).is_zero


def test_poly_eval_horner():
    f = PolyModP(5, (1, 0, 1))  # x^2 + 1
    assert [f.evaluate(x) for x in range(5)] == [1, 2, 0, 0, 2]


def test_poly_derivative():
    f = PolyModP(5, (2, 3, 0, 4))  # 4x^3 + 3x + 2
    assert f.derivative().coeffs == (3, 0, 2)
    # p-th powers differentiate to zero
    assert PolyModP(3, (1, 0, 0, 1)).derivative().is_zero


def test_poly_gcd():
    p = 7
    f = PolyModP(p, (1, 1)) * PolyModP(p, (2, 1))
    g = PolyModP(p, (1, 1)) * PolyModP(p, (3, 1))
    assert f.gcd(g) == PolyModP(p, (1, 1))


def test_poly_rejects_even_or_composite_characteristic():
    with pytest.raises(ValueError):
        PolyModP(2, (1, 1))
    with pytest.raises(ValueError):
        PolyModP(9, (1, 1))


def test_enumerate_irreducibles_3_2_exact():
    got = enumerate_irreducibles(3, 2)
    assert [f.coeffs for f in got] == [(1, 0, 1), (2, 1, 1), (2, 2, 1)]
    assert [str(f) for f in got] == ["x^2 + 1", "x^2 + x + 2", "x^2 + 2*x + 2"]


def test_enumerate_counts_match_formula():
    from legfam.ntheory import count_irreducibles

    for p, k in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (5, 3), (3, 4)):
        polys = enumerate_irreducibles(p, k)
        assert len(polys) == count_irreducibles(p, k)
        assert all(f.is_monic and f.degree == k for f in polys)
        # enumeration order: sorted by reversed coefficient tuple
        keys = [tuple(reversed(f.coeffs)) for f in polys]
        assert keys == sorted(keys)


def test_is_irreducible_matches_trial_division():
    for p, k in ((3, 2), (3, 3), (5, 2), (7, 2), (3, 4)):
        for t in itertools.product(range(p), repeat=k):
            f = PolyModP(p, t + (1,))
            assert is_irreducible(f) == brute_is_irreducible(f), f


def test_is_irreducible_rejects_non_monic_and_constants():
    with pytest.raises(ValueError):
        is_irreducible(PolyModP(5, (1, 2)))
    with pytest.raises(ValueError):
        is_irreducible(PolyModP(5, (3,)))


def test_enumerate_budget(monkeypatch):
    # 1031^2 = 1,062,961 candidates, past the 2^20 enumeration budget:
    # refused before the sieve runs
    monkeypatch.setattr(gf, "_irreducible_mask", None)
    with pytest.raises(BudgetExceededError, match="1062961 candidates"):
        enumerate_irreducibles(1031, 2)


def rabin_enumeration(p: int, k: int) -> list[tuple[int, ...]]:
    # one Rabin test per candidate, in (a_{k-1}, ..., a_0) lex order
    candidates = (tuple(reversed(t)) + (1,) for t in itertools.product(range(p), repeat=k))
    return [c for c in candidates if _rabin_irreducible(p, c)]


def test_sieve_equals_rabin_enumeration_in_order():
    for p, k in small_fields(4096) + list(ORACLE_CELLS):
        got = [f.coeffs for f in enumerate_irreducibles(p, k)]
        assert got == rabin_enumeration(p, k), (p, k)


@given(
    st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3),
                     (5, 4), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2)]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_sieve_membership_matches_trial_division(cell, data):
    p, k = cell
    tail = data.draw(st.tuples(*[st.integers(0, p - 1)] * k))
    f = PolyModP(p, tail + (1,))
    found = {g.coeffs for g in enumerate_irreducibles(p, k)}
    assert (f.coeffs in found) == brute_is_irreducible(f)


def test_default_modulus_is_first_enumerated_irreducible():
    # ExtField finds its modulus lazily by Rabin; the sieve must agree
    cells = [(p, k) for p, k in small_fields(4096) if k >= 2]
    for p, k in cells + [(3, 1), (13, 1), (1021, 1), (3, 12), (7, 7)]:
        assert ExtField(p, k).modulus == enumerate_irreducibles(p, k)[0], (p, k)


@pytest.mark.parametrize("p,k", [(1021, 2), (101, 3), (3, 12)])
def test_sieve_count_on_large_tables(p, k):
    polys = enumerate_irreducibles(p, k)
    assert len(polys) == count_irreducibles(p, k)
    assert polys[0].degree == polys[-1].degree == k


def test_ext_field_construction_and_ids():
    F = ExtField(3, 2)
    assert F.size == 9
    assert F.modulus.coeffs == (1, 0, 1)
    for i in range(9):
        assert F.element_id(F.from_id(i)) == i
    assert F.zero() == F.from_id(0)
    assert F.one() == F.from_id(1)
    assert F.gen() == F.from_id(3)


def test_ext_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ExtField(3, 2, modulus=PolyModP(3, (0, 0, 1)))  # x^2 is reducible
    with pytest.raises(ValueError):
        ExtField(3, 2, modulus=PolyModP(3, (1, 1)))  # degree mismatch


def test_ext_field_element_arithmetic_small():
    F = ExtField(3, 2)
    els = list(F.elements())
    assert len(els) == 9
    for a in els:
        assert a + F.zero() == a
        assert a * F.one() == a
        assert a - a == F.zero()
    # field has no zero divisors
    for a in els:
        for b in els:
            if not (a.is_zero or b.is_zero):
                assert not (a * b).is_zero


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
def test_element_arithmetic_matches_lookup_table_field(p, k):
    # TinyField tabulates schoolbook arithmetic modulo the first irreducible
    # it finds by trial division; both number elements lowest digit first
    T = TinyField(p ** k)
    F = ExtField(p, k, modulus=PolyModP(p, T.modulus))
    els = [F.from_id(i) for i in range(F.size)]
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert a + b == els[T.add[i][j]], (p, k, i, j)
            assert a * b == els[T.mul[i][j]], (p, k, i, j)
            assert (a - b) + b == a, (p, k, i, j)


def test_ext_field_pow_and_inverse():
    F = ExtField(5, 2)
    g = F.gen()
    assert g ** (F.size - 1) == F.one()
    inv = g ** -1
    assert g * inv == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero() ** -1


def test_generator_has_full_order():
    for p, k in ((3, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        F = ExtField(p, k)
        g = F.generator()
        n = F.size
        seen = set()
        cur = F.one()
        for _ in range(n - 1):
            cur = cur * g
            seen.add(F.element_id(cur))
        assert len(seen) == n - 1


def test_norm_trace_land_in_base_field_and_are_homomorphic():
    F = ExtField(5, 2)
    els = list(F.elements())
    for a in els:
        assert 0 <= norm(a) < 5
    for a in els[:12]:
        for b in els[:12]:
            assert norm(a * b) == (norm(a) * norm(b)) % 5


def test_norm_of_base_field_element_is_power():
    # for c in F_p embedded in F_{p^k}: N(c) = c^k
    for p, k in ((5, 2), (3, 3)):
        F = ExtField(p, k)
        for c in range(p):
            a = F.element((c,))
            assert norm(a) == pow(c, k, p)


def test_quad_char_euler_criterion_prime_field():
    F = ExtField(13, 1)
    for c in range(13):
        a = F.from_id(c)
        assert quad_char(a) == legendre_symbol(c, 13)


def test_quad_char_is_legendre_of_norm():
    for p, k in ((3, 2), (5, 2), (7, 2), (3, 3)):
        F = ExtField(p, k)
        for a in F.elements():
            assert quad_char(a) == legendre_symbol(norm(a), p), (p, k, a)


def test_quad_char_balance():
    F = ExtField(7, 2)
    vals = [quad_char(a) for a in F.elements()]
    assert vals.count(0) == 1
    assert vals.count(1) == (F.size - 1) // 2
    assert vals.count(-1) == (F.size - 1) // 2


def test_char_table_matches_quad_char():
    for p, k in small_fields(243):
        F = ExtField(p, k)
        table = F.char_table()
        assert len(table) == F.size
        for a in F.elements():
            assert table[F.element_id(a)] == quad_char(a)


def test_power_ids_walk_the_generator():
    # a permutation of the nonzero ids that starts at g^0 = 1, then g = generator()
    fields = [(p, k) for p, k in small_fields(4096) if k >= 2 or p <= 200]
    for p, k in fields:
        F = ExtField(p, k)
        powers = F.power_ids()
        assert powers[0] == 1, (p, k)
        assert sorted(powers.tolist()) == list(range(1, F.size)), (p, k)
        assert F.generator() == F.from_id(int(powers[1])), (p, k)


def test_char_table_budget():
    # 1031^2 = 1,062,961 entries, past the 2^20 enumeration budget
    with pytest.raises(BudgetExceededError):
        ExtField(1031, 2).char_table()


def test_pattern_count_matches_brute_force():
    for p, k in ((3, 2), (5, 2), (7, 2)):
        F = ExtField(p, k)
        for positions, signs in (
            ((1, 2), (1, 1)),
            ((1, 2), (1, -1)),
            ((1, 3), (-1, -1)),
            ((2,), (-1,)),
            ((1, 2, 3), (1, -1, 1)),
        ):
            if max(positions) > p:
                continue
            got = pattern_count(F, positions, signs)
            want = 0
            for i in range(F.size):
                a = F.from_id(i)
                ok = True
                for pos, sign in zip(positions, signs):
                    shifted = a + F.element((pos % p,))
                    if quad_char(shifted) != sign:
                        ok = False
                        break
                if ok:
                    want += 1
            assert got == want, (p, k, positions, signs)


def test_pattern_count_validates_inputs():
    F = ExtField(5, 2)
    with pytest.raises(ValueError):
        pattern_count(F, (1, 6), (1, 1))  # 6 = 1 mod 5: repeated residue
    with pytest.raises(ValueError):
        pattern_count(F, (1, 2), (1, 0))
    with pytest.raises(ValueError):
        pattern_count(F, (1,), (1, -1))


def test_elements_budget():
    # refused before the first element: 1031^2 > 2^20
    with pytest.raises(BudgetExceededError):
        next(ExtField(1031, 2).elements())


@given(st.integers(0, 3 ** 3 - 1), st.integers(0, 3 ** 3 - 1))
@settings(max_examples=60)
def test_field_distributive_law(i, j):
    F = ExtField(3, 3)
    a, b = F.from_id(i), F.from_id(j)
    c = F.gen()
    assert (a + b) * c == a * c + b * c
