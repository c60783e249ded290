import math
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam import bounds, gf, legendre_seq, ntheory
from legfam.ntheory import (
    PRIMALITY_LIMIT,
    _MR_BASES,
    _MR_PSI,
    _prime_factors,
    count_irreducibles,
    count_subfield_elements,
    divisors,
    is_prime,
    is_prime_power,
    log2_of_big,
    primes_up_to,
)
from oracles import (
    _prime_power,
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


def test_prime_factors_are_the_prime_divisors():
    for n in range(1, 5001):
        expected = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        assert list(_prime_factors(n)) == expected, n


@pytest.mark.parametrize(
    "n, primes",
    [
        (2**31 - 2, [2, 3, 7, 11, 31, 151, 331]),
        (1021**2 - 1, [2, 3, 5, 7, 17, 73]),  # the order of F_1021^2's unit group
        (2 * 1000003, [2, 1000003]),  # the cofactor left after 2 is prime
    ],
)
def test_prime_factors_of_large_inputs(n, primes):
    assert list(_prime_factors(n)) == primes
    # every listed r is prime and n is a product of their powers alone
    assert all(is_prime(r) for r in primes)
    rest, count = n, 1
    for r in primes:
        e = 0
        while rest % r == 0:
            rest //= r
            e += 1
        count *= e + 1
    assert rest == 1
    # divisors, built from this factor pass: strictly ascending, each one
    # divides n, and there are prod(e + 1) of them over n's exponents e
    ds = divisors(n)
    assert all(a < b for a, b in zip(ds, ds[1:]))
    assert all(n % d == 0 for d in ds)
    assert len(ds) == count


def test_is_prime_power_stops_at_the_least_prime():
    # an eager factor pass would trial-divide 2^61 - 1 up to ~1.5e9
    t0 = time.perf_counter()
    assert is_prime_power(3 * (2**61 - 1)) is None
    assert time.perf_counter() - t0 < 0.5


def test_is_prime_power_matches_trial_division():
    for q in range(2, 3001):
        try:
            want = _prime_power(q)
        except ValueError:
            want = None
        assert is_prime_power(q) == want, q


@pytest.mark.parametrize("r,e", [(2**31 - 1, 2), (2**61 - 1, 3)])
def test_is_prime_power_of_large_primes(r, e):
    # integer roots, not trial division up to r
    t0 = time.perf_counter()
    assert is_prime_power(r**e) == (r, e)
    assert time.perf_counter() - t0 < 0.5


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


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25])
def test_subfield_count_matches_the_divisor_sum(q):
    # the squarefree divisors built from n's distinct primes against every
    # divisor of n with mu from the definition; 2310 and 30030 have 5 and 6
    # distinct primes, so every size of prime subset takes part
    degrees = list(range(1, 301)) + ([2310, 30030] if q in (2, 3) else [])
    for n in degrees:
        want = -sum(mobius_direct(d) * q ** (n // d) for d in divisors(n)[1:])
        assert count_subfield_elements(q, n) == want, (q, n)


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


# the cells of the figure grids and the wide-k rows: k = 1..2000 at a 31-bit
# prime, k = 1..300 at small and large primes, a few k at every odd p < 8000
SUBFIELD_GRID = (
    [(2128240847, k) for k in range(1, 2001)]
    + [(p, k) for p in (3, 5, 7, 11, 13, 2110510001) for k in range(1, 301)]
    + [(p, k) for p in primes_up_to(7999, 3) for k in (1, 2, 6, 10)]
)


def _exact_subfield_log2(q, n):
    count = count_subfield_elements(q, n)
    return -math.inf if count == 0 else log2_of_big(count)


def _bracketed(q, n):
    # the cells whose largest |G| term is past the exact-sum cutoff
    return n > 1 and ntheory._subfield_terms(n)[0][0] * q.bit_length() >= ntheory._EXACT_BELOW_BITS


def test_subfield_log2_is_log2_of_big_of_the_exact_count():
    assert len(SUBFIELD_GRID) == 7824
    assert sum(_bracketed(q, n) for q, n in SUBFIELD_GRID) > 1000
    for q, n in SUBFIELD_GRID:
        assert ntheory._count_log2(q, n, irreducible=False) == _exact_subfield_log2(q, n), (q, n)
    assert ntheory._count_log2(3, 1, irreducible=False) == -math.inf


@pytest.mark.parametrize("width", [66, 71, 72])
def test_subfield_log2_falls_back_to_the_exact_count(monkeypatch, width):
    # a bracket narrowed to a few bits past the 64 that log2_of_big reads
    # must fail its certificate, which needs its ends to agree above their
    # low width - 64 bits. After t truncating steps _power_bracket derives
    # its high end more than 2^(t+1) units above the low end, and t >= 6 on
    # these cells at every width up to 72: so at 66 and 71 bits every cell
    # falls back, and at 72, the narrowest width where any cell certifies,
    # some do. Every answer must still be the exact one
    cells = [(q, n) for q, n in SUBFIELD_GRID if _bracketed(q, n)]
    want = [_exact_subfield_log2(q, n) for q, n in cells]
    fallbacks = []
    exact_count = ntheory._subfield_count

    def recording_count(q, terms):
        fallbacks.append((q, terms))
        return exact_count(q, terms)

    monkeypatch.setattr(ntheory, "_BRACKET_BITS", width)
    monkeypatch.setattr(ntheory, "_subfield_count", recording_count)
    assert [ntheory._count_log2(q, n, irreducible=False) for q, n in cells] == want
    if width < 72:
        assert fallbacks == [(q, ntheory._subfield_terms(n)) for q, n in cells]
    else:
        assert 0 < len(fallbacks) < len(cells)  # and the bracket held on the rest


def _bracketed_irreducibles(q, n):
    # the cells whose q^n is past the exact-count cutoff
    return n * q.bit_length() >= ntheory._EXACT_BELOW_BITS


def test_upper_bound_is_log2_of_big_of_the_exact_count():
    # count_irreducibles asserts that n divides q^n - |G| on each call, so
    # this also runs that check on every cell whose row takes the bracket
    assert sum(_bracketed_irreducibles(q, n) for q, n in SUBFIELD_GRID) > 2000
    for q, n in SUBFIELD_GRID:
        want = log2_of_big(count_irreducibles(q, n))
        assert bounds.upper_bound(q, n) == want, (q, n)


@pytest.mark.parametrize("width", [66, 71, 72])
def test_irreducible_log2_falls_back_to_the_exact_count(monkeypatch, width):
    # as for |G| (t >= 6 here too): at 66 and 71 bits the bracket of
    # q^n - |G| fails its certificate on every cell, at 72 bits on some,
    # and every answer is the exact one
    cells = [(q, n) for q, n in SUBFIELD_GRID if _bracketed_irreducibles(q, n)]
    want = [log2_of_big(count_irreducibles(q, n)) for q, n in cells]
    fallbacks = []
    exact_count = ntheory.count_irreducibles

    def recording_count(q, n):
        fallbacks.append((q, n))
        return exact_count(q, n)

    monkeypatch.setattr(ntheory, "_BRACKET_BITS", width)
    monkeypatch.setattr(ntheory, "count_irreducibles", recording_count)
    assert [ntheory._count_log2(q, n, irreducible=True) for q, n in cells] == want
    if width < 72:
        assert fallbacks == cells
    else:
        assert 0 < len(fallbacks) < len(cells)  # and the bracket held on the rest


@pytest.mark.parametrize("tight_end", ["low", "high"])
def test_irreducible_log2_divides_the_bracket_outward(monkeypatch, tight_end):
    # the division by n rounds the low end down and the high end up, so the
    # divided bracket still holds the count. With 64 extra bits, rounding
    # either way moves an end by one unit, which cannot cross a multiple of
    # 2^cut while n < 2^64, so no float shows the direction; the enclosure
    # does. Here q^n's bracket is [lo, lo + 1], so q^n - |G| is bracketed
    # by [lo - 1, lo + 2] with the slack; one end of that sits within n of
    # the count, and rounding it inward after the division would pass it
    q, n = 2128240847, 2000
    shift = ntheory._power_bracket(q, n)[2]
    lo = (1 << 127) + 1
    low_end, high_end = lo - 1, lo + 2  # neither one times 2^64 is a multiple of n
    if tight_end == "low":
        total = (low_end << shift) + (-low_end << shift) % n  # least multiple of n past it
    else:
        total = (high_end << shift) - (high_end << shift) % n  # greatest one below it
    seen = []
    divisions = []

    class RecordingDivisor(int):
        # n, recording every (numerator, quotient) of a floor division by it
        def __rfloordiv__(self, numerator):
            quotient = numerator // int(self)
            divisions.append((numerator, quotient))
            return quotient

    def fake_power_bracket(q_, e):
        seen.append((q_, e))
        return lo, lo + 1, shift

    def no_exact_count(q_, n_):
        raise AssertionError("the bracket must hold")

    monkeypatch.setattr(ntheory, "_power_bracket", fake_power_bracket)
    monkeypatch.setattr(ntheory, "count_irreducibles", no_exact_count)
    got = ntheory._count_log2(q, RecordingDivisor(n), irreducible=True)
    assert got == log2_of_big(total // n)
    assert seen == [(q, n)]  # only q^n is bracketed
    # both ends are divided with 64 extra bits: x // n is floor(x / n), and
    # -(-x // n) is ceil(x / n)
    assert [abs(num) for num, _ in divisions] == [low_end << 64, high_end << 64]
    div_lo, div_hi = (quot if num > 0 else -quot for num, quot in divisions)
    div_shift = shift - 64
    assert (div_lo << div_shift) * n <= total <= (div_hi << div_shift) * n


@pytest.mark.parametrize("q", [3, 4, 8, 32, 7919, 2128240847])
def test_power_bracket_holds_the_power(q):
    # lo 2^s <= q^e <= hi 2^s at every e, with lo = hi = q^e and s = 0 until
    # the first cut, then lo of exactly _BRACKET_BITS bits. The derived high
    # end is 2^(t+1) to 2^(t+2) units above lo after t <= bit_length(e)
    # truncating steps; on powers of two lo is exact, and on the other q
    # the true power sits more than one unit above it at some e
    width = ntheory._BRACKET_BITS
    power = 1
    for e in range(2501):
        lo, hi, s = ntheory._power_bracket(q, e)
        if power.bit_length() <= width:
            assert (lo, hi, s) == (power, power, 0), e
        else:
            assert lo.bit_length() == width and 0 <= power.bit_length() - width - s <= 1, e
            assert lo << s <= power <= hi << s, e
            assert hi - lo <= 1 << (e.bit_length() + 2), e
        power *= q


# cells whose exact counts are cheap, most of them past the cutoff. A power
# of 4, 8 or 32 is a power of two, whose bracket's low end is exact; without
# the slack that end misses I_q(n) (q^n - |G| < q^n). bit_length(q)
# overstates log2 q there, so the guard refuses the real bracket of |G| at
# q = 4, and at q = 8 when r = 3. 2128240847 is the benchmark prime; at
# n = 1843 = 19 * 97 its |G|, 3,007 bits, is the largest on the figure grid
# that the guard would refuse, and it stays under the cutoff
ENCLOSURE_CELLS = [
    *((4, n) for n in (1024, 1025, 2048, 3003)),
    *((8, n) for n in (1536, 1800, 2310, 3072, 4095)),
    *((32, n) for n in (1539, 1545, 2310, 3003)),
    *((2128240847, n) for n in (100, 101, 200, 210, 256, 300, 330, 1843, 1919)),
]


def _count_times_divisor(q, n, irreducible):
    g = count_subfield_elements(q, n)
    return q ** n - g if irreducible else g


@pytest.mark.parametrize("irreducible", [False, True])
def test_count_bracket_holds_the_exact_count(irreducible):
    # lo 2^s <= count * divisor <= hi 2^s, with divisor n for I_q(n) and 1
    # for |G|, on every cell that takes the bracket; on the power-of-two
    # cells only the low end's slack of one unit makes it hold for I_q(n)
    bracketed = []
    for q, n in ENCLOSURE_CELLS:
        bracket = ntheory._count_bracket(q, n, irreducible)
        if bracket is not None:
            lo, hi, s = bracket
            assert lo << s <= _count_times_divisor(q, n, irreducible) <= hi << s, (q, n)
            bracketed.append((q, n))
    if irreducible:
        assert bracketed == ENCLOSURE_CELLS
    else:
        assert bracketed == [
            *((8, n) for n in (1536, 1800, 2310, 3072)),
            *((32, n) for n in (1539, 1545, 2310, 3003)),
            *((2128240847, n) for n in (200, 210, 256, 300, 330, 1919)),
        ]


@pytest.mark.parametrize("irreducible", [False, True])
def test_count_bracket_guard_admits_exactly_one_unit_of_slack(monkeypatch, irreducible):
    # with q^(n/r) held between its floor and ceiling at shift s (exactly,
    # on the power-of-two cells), the rest of the count is below q^(f + 1)
    # <= 2^((f + 1) bits), f = n // (r + 1): the guard must take the bracket
    # from s = (f + 1) bits on, where it holds the count, and refuse it one
    # bit below
    def tight_power_bracket(q, e):
        power = q ** e
        return power >> shift, -(-power >> shift), shift

    monkeypatch.setattr(ntheory, "_power_bracket", tight_power_bracket)
    for q, n in ENCLOSURE_CELLS:
        r = 1 if irreducible else next(ntheory._prime_factors(n))
        if n // r * q.bit_length() < ntheory._EXACT_BELOW_BITS:
            continue
        least = (n // (r + 1) + 1) * q.bit_length()
        shift = least - 1
        assert ntheory._count_bracket(q, n, irreducible) is None, (q, n)
        shift = least
        lo, hi, s = ntheory._count_bracket(q, n, irreducible)
        assert s == least
        assert lo << s <= _count_times_divisor(q, n, irreducible) <= hi << s, (q, n)


def test_upper_bound_counts_exactly_only_under_the_cutoff(monkeypatch):
    # past the cutoff upper_bound reads log2 I_p(k) off the certified
    # bracket; only the rows under it (k < 100 at a 31-bit p, and a failed
    # certificate, which none of these rows has) reach count_irreducibles
    p = 2128240847
    reached = []
    exact_count = ntheory.count_irreducibles

    def recording_count(q, n):
        reached.append(n)
        return exact_count(q, n)

    monkeypatch.setattr(ntheory, "count_irreducibles", recording_count)
    for k in range(1, 2001):
        bounds.upper_bound(p, k)
    assert reached == list(range(1, 100))


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
    # the gate is cached per p and compute_A_B counts |G| under it, so after
    # a warm-up only the prime-power check of count_subfield_elements reaches
    # is_prime: once on a row under the bracket cutoff (k = 50), through
    # upper_bound's exact count_irreducibles, and never on a row past it
    # (k = 2000), where upper_bound reads the certified bracket instead
    bounds.make_report(2128240847, 50)
    bounds.make_report(2128240847, 2000)
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    assert not hasattr(gf, "is_prime")  # gf's generator search takes _prime_factors
    for module in (ntheory, bounds):
        monkeypatch.setattr(module, "is_prime", counting_is_prime)
    bounds.make_report(2128240847, 50)
    assert calls == [2128240847]
    calls.clear()
    bounds.make_report(2128240847, 2000)
    assert calls == []
    bounds.compute_A_B(2128240847, 2000)
    assert calls == []


def test_compute_A_B_sums_g_exactly_only_under_the_cutoff(monkeypatch):
    # past the cutoff compute_A_B reads log2|G| off the certified bracket;
    # only the small cells (and a failed certificate, which none of these
    # rows has) reach the exact |G| sum
    p = 2128240847
    reached = []
    exact_count = ntheory._subfield_count

    def recording_count(q, terms):
        reached.append(terms)
        return exact_count(q, terms)

    monkeypatch.setattr(ntheory, "_subfield_count", recording_count)
    for k in range(1, 2001):
        bounds.compute_A_B(p, k)
    small = [k for k in range(2, 2001) if not _bracketed(p, k)]
    assert reached == [ntheory._subfield_terms(k) for k in small]
    assert len(small) < 700  # most of the 2,000 rows take the bracket
