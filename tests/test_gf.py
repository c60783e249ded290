import itertools
import time
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam import gf
from legfam.checks import small_fields
from legfam.errors import BudgetExceededError
from legfam.gf import (
    ExtField,
    _mul,
    _pows,
    enumerate_irreducibles,
    norm,
    quad_char,
)
from legfam.legendre_seq import legendre_symbol
from legfam.ntheory import count_irreducibles, divisors, is_prime
from oracles import (
    TinyField,
    _fp_irreducible,
    digits_id,
    norm_by_powers,
    pattern_count,
    power_ids_by_walk,
)

# the cells of the benchmark's oracle workload
ORACLE_CELLS = ((13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (11, 3), (13, 3))


def test_enumerate_irreducibles_3_2_exact():
    got = enumerate_irreducibles(3, 2)
    assert got.dtype == np.int64
    assert got.tolist() == [[1, 0, 1], [2, 1, 1], [2, 2, 1]]


def test_enumerate_counts_match_formula():
    from legfam.ntheory import count_irreducibles, divisors, is_prime

    for p, k in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (5, 3), (3, 4)):
        polys = enumerate_irreducibles(p, k)
        assert polys.shape == (count_irreducibles(p, k), k + 1)
        assert (polys[:, -1] == 1).all() and ((0 <= polys) & (polys < p)).all()
        # enumeration order: sorted by reversed coefficient tuple
        keys = [tuple(reversed(row)) for row in polys.tolist()]
        assert keys == sorted(keys)


def test_enumerate_budget(monkeypatch):
    # 1031^2 = 1,062,961 candidates, past the 2^20 enumeration budget:
    # refused before the sieve runs
    monkeypatch.setattr(gf, "_irreducible_mask", None)
    with pytest.raises(BudgetExceededError, match="1062961 candidates"):
        enumerate_irreducibles(1031, 2)
    # ExtField picks its modulus from the same sieve, behind the same gate
    with pytest.raises(BudgetExceededError, match="1062961 candidates"):
        ExtField(1031, 2)
    # 3^10000 is refused from bit lengths before it is built: it has at
    # least (bitlen 3 - 1) * 10000 + 1 bits, so the refusal names 2^10000
    with pytest.raises(BudgetExceededError, match=r"needs at least 2\^10000 candidates"):
        enumerate_irreducibles(3, 10_000)


def trial_division_enumeration(p: int, k: int) -> Iterator[tuple[int, ...]]:
    # one trial division per candidate, in (a_{k-1}, ..., a_0) lex order
    candidates = (tuple(reversed(t)) + (1,) for t in itertools.product(range(p), repeat=k))
    return (c for c in candidates if _fp_irreducible(c, p))


def test_sieve_equals_trial_division_enumeration_in_order():
    for p, k in small_fields(4096) + list(ORACLE_CELLS):
        got = list(map(tuple, enumerate_irreducibles(p, k).tolist()))
        assert got == list(trial_division_enumeration(p, k)), (p, k)


@given(
    st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3),
                     (5, 4), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2)]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_sieve_membership_matches_trial_division(cell, data):
    p, k = cell
    tail = data.draw(st.tuples(*[st.integers(0, p - 1)] * k))
    f = tail + (1,)
    found = set(map(tuple, enumerate_irreducibles(p, k).tolist()))
    assert (f in found) == _fp_irreducible(f, p)


# every field of up to 2^12 elements, plus a larger prime field and two
# extension fields near the 2^20 budget
PINNED_FIELDS = small_fields(4096) + [(1021, 1), (3, 12), (7, 7)]


def test_default_modulus_is_first_enumerated_irreducible():
    # ExtField takes its modulus from the sieve; trial division, walking
    # the candidates in the same order, must find the same one first
    for p, k in PINNED_FIELDS:
        first = next(trial_division_enumeration(p, k))
        assert tuple(ExtField(p, k).modulus.tolist()) == first, (p, k)


def prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def least_generator_id(p: int, k: int, modulus: tuple[int, ...]) -> int:
    # the least id a with a^((n-1)/q) != 1 for every prime q | n - 1: by
    # plain pow for k = 1, and for k >= 2 by square-and-multiply in the
    # schoolbook arithmetic modulo the given modulus
    n = p ** k
    one = [1] + [0] * (k - 1)
    factors = prime_factors(n - 1)

    def power(a: list[int], e: int) -> list[int]:
        out = one
        while e:
            if e & 1:
                out = TinyField._mul_mod(out, a, modulus, p)
            a = TinyField._mul_mod(a, a, modulus, p)
            e >>= 1
        return out

    for ident in range(2, n):
        if k == 1:
            full = all(pow(ident, (n - 1) // q, p) != 1 for q in factors)
        else:
            a = [ident // p ** i % p for i in range(k)]
            full = all(power(a, (n - 1) // q) != one for q in factors)
        if full:
            return ident
    raise AssertionError(f"no generator of F_{p}^{k}")


def test_generator_id_is_the_least_of_full_order():
    for p, k in PINNED_FIELDS:
        F = ExtField(p, k)
        assert F._generator_id() == least_generator_id(p, k, F.modulus.tolist()), (p, k)


def test_huge_fields_refuse_at_construction(monkeypatch):
    # refused from bit lengths before the sieve runs or p^k is built:
    # 3^(10^7) alone takes seconds, and (2^31 - 1)^2 > 2^60
    monkeypatch.setattr(gf, "_irreducible_mask", refuse_work)
    for p, k in ((3, 10 ** 7), (3, 200), (2147483647, 2)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            ExtField(p, k)
        assert time.perf_counter() - t0 < 0.5, (p, k)


@pytest.mark.parametrize("p,k", [(1021, 2), (101, 3), (3, 12)])
def test_sieve_count_on_large_tables(p, k):
    polys = enumerate_irreducibles(p, k)
    assert polys.shape == (count_irreducibles(p, k), k + 1)
    assert polys[0, -1] == polys[-1, -1] == 1


def ids_of(F: ExtField, a: np.ndarray) -> np.ndarray:
    # row -> element id, the inverse of elements()
    return a @ F.p ** np.arange(F.k)


def test_ext_field_construction_and_ids():
    F = ExtField(3, 2)
    assert F.size == 9
    assert F.modulus.tolist() == [1, 0, 1]
    els = F.elements()
    assert els.shape == (9, 2) and els.dtype == np.int64
    for i in range(9):
        assert digits_id(3, els[i].tolist()) == i
        assert tuple(els[i].tolist()) == (i % 3, i // 3)
    assert els[0].tolist() == [0, 0]  # zero
    assert els[1].tolist() == [1, 0]  # one
    assert els[3].tolist() == [0, 1]  # x


def test_given_modulus_is_stored_as_given():
    # the sieve's first irreducible is stored low coefficient first, as a
    # read-only int64 array that callers cannot alter under the field
    for p, k, modulus in ((3, 2, [1, 0, 1]), (13, 1, [0, 1]), (3, 3, [1, 2, 0, 1])):
        F = ExtField(p, k)
        assert F.modulus.tolist() == modulus, (p, k)
        assert F.modulus.dtype == np.int64 and not F.modulus.flags.writeable
        with pytest.raises(ValueError):
            F.modulus[0] = 2
    assert repr(ExtField(3, 2)) == "ExtField(p=3, k=2, modulus=[1, 0, 1])"


def test_ext_field_element_arithmetic_small():
    F = ExtField(3, 2)
    els = F.elements()
    assert len(els) == 9
    zero, one = np.repeat(els[[0]], 9, axis=0), np.repeat(els[[1]], 9, axis=0)
    assert (_mul(F, els, one) == els).all()
    assert not _mul(F, els, zero).any()
    # field has no zero divisors
    a, b = np.repeat(els[1:], 8, axis=0), np.tile(els[1:], (8, 1))
    assert _mul(F, a, b).any(axis=1).all()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
def test_element_arithmetic_matches_lookup_table_field(p, k):
    # TinyField tabulates schoolbook arithmetic modulo the field's modulus,
    # checked irreducible by its own trial division; both number elements
    # lowest digit first
    F = ExtField(p, k)
    T = TinyField(p ** k, modulus=F.modulus)
    els = F.elements()
    n = F.size
    a, b = np.repeat(els, n, axis=0), np.tile(els, (n, 1))
    assert (ids_of(F, (a + b) % p) == np.array(T.add).reshape(-1)).all(), (p, k)
    assert (ids_of(F, _mul(F, a, b)) == np.array(T.mul).reshape(-1)).all(), (p, k)


def test_lookup_table_field_checks_a_given_modulus():
    # TinyField trial-divides a given modulus itself: x^2 = x * x over F_3
    # is refused, and x^2 + x + 2, irreducible but not its default, is kept
    with pytest.raises(ValueError, match="monic irreducible"):
        TinyField(9, modulus=(0, 0, 1))
    assert TinyField(9).modulus != TinyField(9, modulus=(2, 1, 1)).modulus == (2, 1, 1)


@pytest.mark.parametrize(
    "p,k", [(3, 5), (3, 7), (3, 9), (5, 5), (7, 4), (13, 3), (1021, 2), (1021, 1)]
)
def test_mul_matches_schoolbook_on_random_pairs(p, k):
    # every fold row x^(k+r), r <= k - 2, takes part for k >= 3, and a prime
    # field has none; the reference reduces one degree at a time modulo the
    # field's own modulus
    F = ExtField(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a, b = rng.integers(0, p, (2, 3000, k))
    modulus = F.modulus.tolist()
    want = [TinyField._mul_mod(x, y, modulus, p) for x, y in zip(a.tolist(), b.tolist())]
    assert _mul(F, a, b).tolist() == want, (p, k)
    # transposed (F-ordered) views, and a product fed back in, as chained
    # products pass them
    assert _mul(F, a.T.copy().T, b.T.copy().T).tolist() == want, (p, k)
    ab = _mul(F, a, b)
    want = [TinyField._mul_mod(x, y, modulus, p) for x, y in zip(want, b.tolist())]
    assert _mul(F, ab, b).tolist() == want, (p, k)
    assert _mul(F, b, ab).tolist() == want, (p, k)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 2), (3, 3)])
def test_pow_at_small_exponents_matches_lookup_table_field(p, k):
    # e = 0 gives one everywhere, zero included; no result shares memory
    # with its input, e = 1 included
    F = ExtField(p, k)
    T = TinyField(p ** k, modulus=F.modulus)
    els = F.elements()
    ids = np.arange(F.size)
    for e, want in ((0, np.ones_like(ids)), (1, ids), (2, np.array(T.mul)[ids, ids])):
        got = _pows(F, els, [e])[0]
        assert (ids_of(F, got) == want).all(), (p, k, e)
        assert not np.shares_memory(got, els), (p, k, e)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 3)])
def test_pows_match_pow_exponent_by_exponent(p, k):
    # one chain of squarings serves every exponent: 0, 1, a repeated one
    # and ones of different bit lengths give what each gives alone, and
    # what e products in TinyField's table give; every result is its own
    # array, apart from the input and from each other
    F = ExtField(p, k)
    T = TinyField(p ** k, modulus=F.modulus)
    els = F.elements()
    exps = [5, 0, 1, 2, 5, 13, 1, 1000, F.size - 1]
    got = _pows(F, els, exps)
    assert len(got) == len(exps)
    mul, ids = np.array(T.mul), np.arange(F.size)
    for e, g in zip(exps, got):
        assert g.shape == els.shape and g.dtype == els.dtype, (p, k, e)
        assert (g == _pows(F, els, [e])[0]).all(), (p, k, e)
        assert not np.shares_memory(g, els), (p, k, e)
        want = np.ones_like(ids)
        for _ in range(e):
            want = mul[want, ids]
        assert (ids_of(F, g) == want).all(), (p, k, e)
    for i, j in itertools.combinations(range(len(got)), 2):
        assert not np.shares_memory(got[i], got[j]), (p, k, exps[i], exps[j])


def test_ext_field_pow_and_inverse():
    for p, k in ((5, 2), (3, 3), (7, 2), (3, 4)):
        F = ExtField(p, k)
        a = F.elements()[1:]
        q = F.size
        assert (ids_of(F, _pows(F, a, [q - 1])[0]) == 1).all(), (p, k)
        assert (ids_of(F, _mul(F, a, _pows(F, a, [q - 2])[0])) == 1).all(), (p, k)


def assert_full_order(F: ExtField, ident: int) -> None:
    # x^((q-1)/r) != 1 for every prime r dividing q - 1
    x = F.elements()[[ident]]
    for r in filter(is_prime, divisors(F.size - 1)):
        assert ids_of(F, _pows(F, x, [(F.size - 1) // r])[0])[0] != 1, (F, ident, r)


def test_generator_has_full_order():
    for p, k in ((3, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        F = ExtField(p, k)
        assert_full_order(F, int(F.power_ids()[1]))


def test_norm_trace_land_in_base_field_and_are_homomorphic():
    F = ExtField(5, 2)
    els = F.elements()
    n = norm(F, els)
    assert ((0 <= n) & (n < 5)).all()
    i, j = np.divmod(np.arange(F.size ** 2), F.size)
    assert (norm(F, _mul(F, els[i], els[j])) == n[i] * n[j] % 5).all()


def test_norm_of_base_field_element_is_power():
    # for c in F_p embedded in F_{p^k}: N(c) = c^k
    for p, k in ((5, 2), (3, 3)):
        F = ExtField(p, k)
        consts = F.elements()[:p]  # ids 0..p-1 are the constants
        assert norm(F, consts).tolist() == [pow(c, k, p) for c in range(p)]


def test_norm_matches_the_conjugate_powers():
    # the Frobenius matrix gives the norm that raising each conjugate to
    # the p-th power gives, on every extension field of up to 2^12 elements
    fields = [(p, k) for p, k in small_fields(4096) if k >= 2] + [(3, 9), (5, 6)]
    for p, k in fields:
        F = ExtField(p, k)
        els = F.elements()
        assert (norm(F, els) == norm_by_powers(F, els)).all(), (p, k)


def test_quad_char_euler_criterion_prime_field():
    F = ExtField(13, 1)
    got = quad_char(F, F.elements())
    assert got.dtype == np.int8
    assert got.tolist() == [legendre_symbol(c, 13) for c in range(13)]


def test_quad_char_is_legendre_of_norm():
    for p, k in ((3, 2), (5, 2), (7, 2), (3, 3)):
        F = ExtField(p, k)
        els = F.elements()
        legendre = np.array([legendre_symbol(c, p) for c in range(p)])
        assert (quad_char(F, els) == legendre[norm(F, els)]).all(), (p, k)


def test_quad_char_balance():
    F = ExtField(7, 2)
    vals = quad_char(F, F.elements()).tolist()
    assert vals.count(0) == 1
    assert vals.count(1) == (F.size - 1) // 2
    assert vals.count(-1) == (F.size - 1) // 2


def test_char_table_matches_quad_char():
    for p, k in small_fields(243):
        F = ExtField(p, k)
        table = F.char_table()
        assert len(table) == F.size
        assert (table == quad_char(F, F.elements())).all(), (p, k)


def test_power_ids_walk_the_generator():
    # a permutation of the nonzero ids that starts at g^0 = 1, each entry
    # the array product of the one before and g, and g of full order
    fields = [(p, k) for p, k in small_fields(4096) if k >= 2 or p <= 200]
    for p, k in fields:
        F = ExtField(p, k)
        powers = F.power_ids()
        assert powers[0] == 1, (p, k)
        assert sorted(powers.tolist()) == list(range(1, F.size)), (p, k)
        els = F.elements()
        g = np.repeat(els[[powers[1]]], F.size - 2, axis=0)
        assert (ids_of(F, _mul(F, els[powers[:-1]], g)) == powers[1:]).all(), (p, k)
        assert_full_order(F, int(powers[1]))


def test_power_ids_match_the_tuple_walk():
    # the doubling builds the same table as walking g^0, g^1, ... one
    # power at a time, on every field of up to 2^12 elements
    for p, k in small_fields(4096):
        F = ExtField(p, k)
        assert F.power_ids().tolist() == power_ids_by_walk(F), (p, k)


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before the budget gate")


def refuse_prime_field_work(monkeypatch):
    monkeypatch.setattr(gf, "_irreducible_mask", refuse_work)
    monkeypatch.setattr(ExtField, "_generator_id", refuse_work)
    monkeypatch.setattr(gf, "_monic_rows", refuse_work)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ExtField(4294967311, 1), id="extfield-4294967311-modulus-x"),
    pytest.param(lambda: ExtField(2 ** 64 + 13, 1), id="extfield-2**64+13"),
    pytest.param(lambda: legendre_symbol(np.arange(5), 1048583), id="legendre-array-1048583"),
    pytest.param(lambda: legendre_symbol(2, 2 ** 61 - 1), id="legendre-int-2**61-1"),
])
def test_prime_field_objects_refuse_past_the_budget(monkeypatch, make):
    # a prime field of p > 2^20 elements is refused before any array is
    # built: an ExtField by the sieve's gate, where its modulus is picked,
    # and a Legendre table by the gate on its p entries
    refuse_prime_field_work(monkeypatch)
    with pytest.raises(BudgetExceededError):
        make()


def test_char_table_budget(monkeypatch):
    # 1048583 entries, past the 2^20 enumeration budget: the field is
    # refused at construction, before the sieve, the generator search or
    # any digit array, so no char table is ever started
    refuse_prime_field_work(monkeypatch)
    with pytest.raises(BudgetExceededError):
        ExtField(1048583, 1).char_table()


def test_elements_budget(monkeypatch):
    # refused before any digit array: 1048583 > 2^20
    refuse_prime_field_work(monkeypatch)
    with pytest.raises(BudgetExceededError):
        ExtField(1048583, 1).elements()


def test_pattern_count_matches_brute_force():
    for p, k in ((3, 2), (5, 2), (7, 2)):
        F = ExtField(p, k)
        els = F.elements()
        for positions, signs in (
            ((1, 2), (1, 1)),
            ((1, 2), (1, -1)),
            ((1, 3), (-1, -1)),
            ((2,), (-1,)),
            ((1, 2, 3), (1, -1, 1)),
        ):
            if max(positions) > p:
                continue
            hit = np.ones(F.size, dtype=bool)
            for pos, sign in zip(positions, signs):
                shifted = els.copy()
                shifted[:, 0] = (els[:, 0] + pos) % p
                hit &= quad_char(F, shifted) == sign
            got = pattern_count(F, positions, signs)
            assert got == np.count_nonzero(hit), (p, k, positions, signs)


def test_pattern_count_validates_inputs():
    F = ExtField(5, 2)
    with pytest.raises(ValueError):
        pattern_count(F, (1, 6), (1, 1))  # 6 = 1 mod 5: repeated residue
    with pytest.raises(ValueError):
        pattern_count(F, (1, 2), (1, 0))
    with pytest.raises(ValueError):
        pattern_count(F, (1,), (1, -1))


@given(st.integers(0, 3 ** 3 - 1), st.integers(0, 3 ** 3 - 1))
@settings(max_examples=60)
def test_field_distributive_law(i, j):
    # (a + b) c = a c + b c for every c in the field
    F = ExtField(3, 3)
    els = F.elements()
    a, b = np.repeat(els[[i]], F.size, axis=0), np.repeat(els[[j]], F.size, axis=0)
    assert (_mul(F, (a + b) % 3, els) == (_mul(F, a, els) + _mul(F, b, els)) % 3).all()
