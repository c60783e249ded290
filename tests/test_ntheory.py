import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam import bounds, gf, legendre_seq, ntheory
from legfam.ntheory import (
    PRIMALITY_LIMIT,
    _MR_BASES,
    _MR_PSI,
    count_irreducibles,
    count_subfield_elements,
    divisors,
    is_prime,
    is_prime_power,
    log2_of_big,
    mobius,
    primes_up_to,
)
from oracles import (
    mobius_direct,
    sieve_irreducible_counts,
    strong_probable_prime,
    subfield_count_by_recursion,
)


def test_primes_up_to_matches_known_list():
    assert primes_up_to(100) == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    ]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(100, 50) == [53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert primes_up_to(100, 97) == [97]
    assert primes_up_to(96, 90) == []
    assert primes_up_to(10, 20) == []
    every = primes_up_to(10_000)
    for lo in (0, 3, 4, 101, 7919, 9973, 10_000):
        assert primes_up_to(10_000, lo) == [q for q in every if q >= lo], lo


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(10_000))
    for n in range(10_000 + 1):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime(n)


def test_is_prime_large_values():
    assert is_prime(2128240847)
    assert is_prime(2128240823)
    assert not is_prime(2128240847 * 2128240823)
    assert is_prime(2 ** 61 - 1)


def test_is_prime_refuses_to_certify_past_the_deterministic_range():
    # psi_12, the least strong pseudoprime to all twelve bases 2..37, and
    # psi_13, the least one to the thirteen bases 2..41: both composite,
    # and Miller-Rabin to the twelve bases would call them prime
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert psi12 == PRIMALITY_LIMIT
    n = 3317044064679887385961981
    assert pow(43, n - 1, n) != 1
    for pseudo in (psi12, n):
        with pytest.raises(ValueError, match="certify"):
            is_prime(pseudo)
    with pytest.raises(ValueError, match="certify"):
        is_prime(2 ** 127 - 1)
    # a composite verdict stays exact at any size
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))
    assert not is_prime(n + 2)


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_psi_table_holds_strong_pseudoprimes_to_the_first_m_bases():
    """Each psi_m is the least strong pseudoprime to the first m prime bases
    (OEIS A014233, "Smallest odd number for which Miller-Rabin primality
    test on bases <= n-th prime does not reveal compositeness"; psi_12 from
    Sorenson and Webster, Math. Comp. 86 (2017) 985-1003). Checked here:
    every entry is composite (a strong-test witness among the first 13
    prime bases) and passes the first m bases, which a typo would break.
    """
    assert len(_MR_PSI) == len(_MR_BASES) == 12
    assert _MR_BASES == PRIME_BASES[:12]
    assert list(_MR_PSI) == sorted(_MR_PSI)
    for m, psi in enumerate(_MR_PSI, 1):
        assert all(strong_probable_prime(psi, a) for a in PRIME_BASES[:m]), m
        assert not all(strong_probable_prime(psi, a) for a in PRIME_BASES), m
    # the first entry is least, by brute force over the odd composites
    primes = set(primes_up_to(2047))
    assert [
        n for n in range(3, 2048, 2) if n not in primes and strong_probable_prime(n, 2)
    ] == [2047]


def test_is_prime_matches_sieve_around_psi_thresholds():
    # is_prime stops after base m once n < psi_m: check each side of psi_m
    for psi in _MR_PSI[:5]:
        lo, hi = psi - 500, psi + 500
        window = set(primes_up_to(hi, lo))
        for n in range(lo, hi + 1):
            assert is_prime(n) == (n in window), n


def test_mobius_known_values():
    assert mobius(1) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_matches_direct_definition():
    for n in range(1, 2000):
        assert mobius(n) == mobius_direct(n), n


def test_mobius_divisor_sum_identity():
    # sum_{d | n} mu(d) is 1 at n = 1 and 0 otherwise
    for n in range(1, 500):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0), n


@given(st.integers(2, 300), st.integers(2, 300))
def test_mobius_multiplicative_on_coprime_pairs(a, b):
    if math.gcd(a, b) == 1:
        assert mobius(a * b) == mobius(a) * mobius(b)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]
    assert divisors(64) == [1, 2, 4, 8, 16, 32, 64]
    with pytest.raises(ValueError):
        divisors(0)


@given(st.integers(1, 10_000))
def test_divisors_sorted_and_complete(n):
    ds = divisors(n)
    assert ds == sorted(set(ds))
    assert all(n % d == 0 for d in ds)
    assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_is_prime_power_examples():
    assert is_prime_power(2) == (2, 1)
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(125) == (5, 3)
    assert is_prime_power(1024) == (2, 10)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None
    assert is_prime_power(0) is None
    assert is_prime_power(2128240847) == (2128240847, 1)


def test_count_irreducibles_known_values():
    assert [count_irreducibles(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert count_irreducibles(7, 2) == 21
    assert count_irreducibles(3, 2) == 3


def test_count_irreducibles_matches_sieve():
    for q, n_max in ((2, 8), (3, 5), (4, 4), (5, 3), (9, 2)):
        assert sieve_irreducible_counts(q, n_max) == [
            count_irreducibles(q, n) for n in range(1, n_max + 1)
        ]


def test_count_irreducibles_gauss_identity():
    for q in (2, 3, 4, 5, 7, 9, 11):
        for n in range(1, 13):
            total = sum(d * count_irreducibles(q, d) for d in divisors(n))
            assert total == q ** n, (q, n)


def test_count_irreducibles_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        count_irreducibles(6, 2)
    with pytest.raises(ValueError):
        count_irreducibles(1, 2)
    with pytest.raises(ValueError):
        count_irreducibles(5, 0)


def test_count_subfield_elements_examples():
    assert count_subfield_elements(7, 2) == 7
    assert count_subfield_elements(3, 2) == 3
    # n = 1: the only subfield is the field itself, nothing proper
    assert count_subfield_elements(13, 1) == 0


def test_count_subfield_elements_matches_sieve_counts():
    for q, n in ((2, 6), (3, 4), (5, 3), (7, 2), (9, 2)):
        sieved = sieve_irreducible_counts(q, n)[n - 1]
        assert count_subfield_elements(q, n) == q ** n - n * sieved


def test_count_subfield_elements_prime_degree():
    # prime n: the only proper subfield of F_{q^n} is F_q itself
    for q in (3, 5, 7):
        for n in (2, 3, 5):
            assert count_subfield_elements(q, n) == q


def test_counts_match_the_recursive_oracle():
    small = [q for q in range(2, 51) if is_prime_power(q) is not None]
    assert len(small) == 23
    cells = [(q, n) for q in small for n in range(1, 61)]
    cells += [(p, k) for p in (2128240847, 2110510001) for k in (1, 2, 6, 210, 1024, 2000)]
    for q, n in cells:
        subfield, irreducibles = subfield_count_by_recursion(q, n)
        assert count_subfield_elements(q, n) == subfield, (q, n)
        assert count_irreducibles(q, n) == irreducibles, (q, n)


def test_log2_of_big_small_values_match_math_log2():
    for x in list(range(1, 4097)) + [2 ** 52, 2 ** 53 - 1]:
        assert log2_of_big(x) == math.log2(x), x


def test_log2_of_big_powers_of_two_exact():
    for k in (1, 10, 64, 100, 1000, 5000):
        assert log2_of_big(2 ** k) == float(k)


def test_log2_of_big_matches_mpmath():
    mpmath.mp.prec = 120
    for x in (10 ** 20, 3 ** 500, 7 ** 1234, 2 ** 1000 + 12345, 10 ** 300):
        want = float(mpmath.log(mpmath.mpf(x), 2))
        got = log2_of_big(x)
        assert abs(got - want) <= 1e-14 * abs(want), x


def test_log2_of_big_ten_to_twenty():
    assert abs(log2_of_big(10 ** 20) - 66.438561897747246957) < 1e-13


def test_log2_of_big_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2_of_big(0)
    with pytest.raises(ValueError):
        log2_of_big(-5)


# every entry point that takes p, as a call at degree 2 (or residue 1)
GATED_ENTRY_POINTS = {
    "compute_A_B": lambda p: bounds.compute_A_B(p, 2),
    "theorem1_bound": lambda p: bounds.theorem1_bound(p, 2),
    "guaranteed_j": lambda p: bounds.guaranteed_j(p, 2),
    "gyarmati_bound": lambda p: bounds.gyarmati_bound(p, 2),
    "upper_bound": lambda p: bounds.upper_bound(p, 2),
    "make_report": lambda p: bounds.make_report(p, 2),
    "enumerate_irreducibles": lambda p: gf.enumerate_irreducibles(p, 2),
    "ExtField": lambda p: gf.ExtField(p, 2),
    "build_family": lambda p: legendre_seq.build_family(p, 2),
    "legendre_symbol": lambda p: legendre_seq.legendre_symbol(1, p),
}


@pytest.mark.parametrize("name", GATED_ENTRY_POINTS)
@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_every_entry_point_rejects_p_through_one_gate(p, name):
    with pytest.raises(ValueError, match="p must be an odd prime"):
        GATED_ENTRY_POINTS[name](p)


# every entry point that takes a degree, as a call at p = 3
DEGREE_GATED_ENTRY_POINTS = {
    "compute_A_B": lambda k: bounds.compute_A_B(3, k),
    "theorem1_bound": lambda k: bounds.theorem1_bound(3, k),
    "guaranteed_j": lambda k: bounds.guaranteed_j(3, k),
    "gyarmati_bound": lambda k: bounds.gyarmati_bound(3, k),
    "upper_bound": lambda k: bounds.upper_bound(3, k),
    "make_report": lambda k: bounds.make_report(3, k),
    "crossover_prime": lambda k: bounds.crossover_prime(k),
    "count_subfield_elements": lambda k: ntheory.count_subfield_elements(3, k),
    "count_irreducibles": lambda k: ntheory.count_irreducibles(3, k),
    "enumerate_irreducibles": lambda k: gf.enumerate_irreducibles(3, k),
    "ExtField": lambda k: gf.ExtField(3, k),
    "SequenceFamily": lambda k: legendre_seq.SequenceFamily(3, k, ()),
    "build_family": lambda k: legendre_seq.build_family(3, k),
}


@pytest.mark.parametrize("name", DEGREE_GATED_ENTRY_POINTS)
@pytest.mark.parametrize("k", [0, -3])
def test_every_entry_point_rejects_k_through_one_gate(k, name):
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}$"):
        DEGREE_GATED_ENTRY_POINTS[name](k)


def test_make_report_tests_p_once_per_subfield_count(monkeypatch):
    # the gate is cached per p, so after a warm-up only the prime-power
    # checks of count_subfield_elements reach is_prime: 3 from compute_A_B
    # and 1 from upper_bound
    bounds.make_report(2128240847, 2000)
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    for module in (ntheory, bounds, gf):
        monkeypatch.setattr(module, "is_prime", counting_is_prime)
    bounds.make_report(2128240847, 2000)
    assert calls == [2128240847] * 4
