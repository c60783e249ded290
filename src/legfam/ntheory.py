"""Integer-side helpers: primality and the odd-prime and degree gates of
every entry point, the package's one factor pass for distinct primes and
the divisors built from it, counts of monic irreducible polynomials over
finite fields, and base-2 logarithms of integers far too large for floats.

Everything is exact integer arithmetic except the floats that log2_of_big
and _count_log2 return. _count_log2 is the one route to log2 |G| and
log2 I_q(n), bit for bit the log2_of_big of the count: past a size cutoff
it brackets only the count's largest power, widened by one unit that an
integer guard proves covers every other term, and reads the float off that
bracket when it certifies one; otherwise it reads the exact count.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

__all__ = [
    "divisors",
    "is_prime",
    "primes_up_to",
    "is_prime_power",
    "count_irreducibles",
    "count_subfield_elements",
    "log2_of_big",
]

# Deterministic Miller-Rabin. _MR_PSI[m - 1] is psi_m, the least strong
# pseudoprime to the first m bases (OEIS A014233); psi_12 is the least one
# to all twelve (it fails base 41), so it bounds what the test certifies.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)
PRIMALITY_LIMIT = _MR_PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The bases are the primes 2..37, tried in order. After the m-th base
    passes, n is prime if n < psi_m, the least strong pseudoprime to the
    first m prime bases (OEIS A014233; psi_12 from Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017), so the
    test stops there: a 31-bit n needs four bases, not twelve.

    A False verdict is exact at every size. A True verdict is certified
    only below PRIMALITY_LIMIT = psi_12; at or above it a number that
    passes every base raises ValueError instead of being called prime.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise ValueError(
        f"cannot certify {n} as prime: the Miller-Rabin test is "
        f"deterministic only below {PRIMALITY_LIMIT}"
    )


@lru_cache(maxsize=None)
def _require_odd_prime(p: int) -> None:
    """The one odd-prime gate of every entry point: ValueError unless p is
    an odd prime. Cached per p, so a scan tests each prime once."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _require_degree(k: int) -> None:
    """The one degree gate of every entry point: ValueError unless k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _require_cell(p: int, k: int) -> None:
    """The gate of every entry point that takes a cell (p, k)."""
    _require_odd_prime(p)
    _require_degree(k)


def primes_up_to(n: int, lo: int = 2) -> list[int]:
    """All primes p with lo <= p <= n, ascending (sieve of Eratosthenes).

    Only the window [lo, n] is sieved, by the primes up to isqrt(n), so
    memory is about n - lo + isqrt(n) bytes, not n.
    """
    lo = max(lo, 2)
    if n < lo:
        return []
    window = bytearray((1,)) * (n - lo + 1)
    for q in primes_up_to(math.isqrt(n)):
        start = max(q * q, -(-lo // q) * q) - lo
        window[start::q] = bytearray(len(range(start, len(window), q)))
    return list(itertools.compress(range(lo, n + 1), window))


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n, built from the primes
    of _prime_factors(n) and their exponents, found by dividing each out."""
    if n < 1:
        raise ValueError(f"divisors needs a positive integer, got {n}")
    divs = [1]
    for r in _prime_factors(n):
        powers = divs
        while n % r == 0:
            n //= r
            powers = [d * r for d in powers]
            divs = divs + powers
    return sorted(divs)


def is_prime_power(q: int) -> tuple[int, int] | None:
    """Return (r, e) with q = r**e and r prime, or None if q is not a prime power."""
    if q < 2:
        return None
    if is_prime(q):
        return (q, 1)
    # the largest e with q a perfect e-th power leaves a root r that is no
    # perfect power, so q is a prime power iff that r is prime
    for e in range(q.bit_length() - 1, 1, -1):
        r = _iroot(q, e)
        if r ** e == q:
            return (r, e) if is_prime(r) else None
    return None


def _iroot(n: int, e: int) -> int:
    # floor(n^(1/e)) for n >= 1, e >= 2, by integer Newton from above the
    # root, 2^ceil(bits/e): the steps fall until they reach the floor
    x = 1 << -(-n.bit_length() // e)
    while (y := ((e - 1) * x + n // x ** (e - 1)) // e) < x:
        x = y
    return x


def count_irreducibles(q: int, n: int) -> int:
    """Number of monic irreducible polynomials of degree n over F_q.

    The elements of F_{q^n} outside every proper subfield are the roots of
    the degree-n monic irreducibles, n apiece, so the count is
    (q^n - count_subfield_elements(q, n)) / n. The difference is always
    divisible by n; this is asserted rather than assumed.

    This is the one exact route to the count. _count_log2, which
    bounds.upper_bound reads, brackets the count instead past its size
    cutoff, so there the assertion runs only when the bracket falls back.
    """
    subfield = count_subfield_elements(q, n)  # validates q and n first
    total = q ** n - subfield
    count, rem = divmod(total, n)
    assert rem == 0, f"q^n - |G| = {total} not divisible by n={n}"
    return count


def count_subfield_elements(q: int, n: int) -> int:
    """Number of elements of F_{q^n} that lie in some proper subfield.

    By Moebius inversion of q^n = sum_{d | n} d * I_q(d) the count is
    |G| = -sum_{d | n, d > 1} mu(d) * q^(n/d), taken over the squarefree d
    only (mu vanishes elsewhere), which one trial-division pass over n
    builds from its distinct primes. Its largest term is q^(n/r), for r
    the least prime of n, so q^n itself is never built.
    Exact for any size; the result can be thousands of bits long.
    """
    _require_degree(n)
    if is_prime_power(q) is None:
        raise ValueError(f"field order must be a prime power, got {q}")
    return _subfield_count(q, _subfield_terms(n))


def _subfield_terms(n: int) -> list[tuple[int, int]]:
    # the pairs (n/d, -mu(d)) over the squarefree d > 1 of n, largest
    # exponent first. Each distinct prime r of n adds (d r, -mu(d)) for
    # every pair so far: all squarefree d, with mu(d)
    terms = [(1, 1)]
    for r in _prime_factors(n):
        terms += [(d * r, -mu) for d, mu in terms]
    return [(n // d, -mu) for d, mu in terms[1:]]


def _subfield_count(q: int, terms: list[tuple[int, int]]) -> int:
    # count_subfield_elements past its gates, from terms = _subfield_terms(n)
    return sum(sign * q ** e for e, sign in terms)


# _count_log2 brackets the count's largest power to _BRACKET_BITS bits,
# and takes the exact count below _EXACT_BELOW_BITS bits in that power (as
# e * bit_length(q)). On the cells with q = 7919, 1048573 or 2128240847,
# n < 700 and 1,000-7,999 such bits (2-core Intel Xeon, Python 3.11.7), the
# bracket was faster for |G| on 86% of them at 1,000-1,499 bits, 97% at
# 1,500-1,999, 99% at 2,000-2,999 and 100% from 3,000 on, and for I_q(n) on
# all. Below 3,008 bits, though, the guard fails on some figure-grid cells
# (the largest: |G| at q = 2128240847, n = 1843 = 19 * 97), and a failed
# guard pays for both routes, so the cutoff stays where no grid cell fails
_BRACKET_BITS = 128
_EXACT_BELOW_BITS = 3072


def _count_log2(q: int, n: int, irreducible: bool) -> float:
    """log2_of_big of I_q(n) = (q^n - |G|) / n when irreducible, else of
    |G| (-inf at n = 1, where |G| = 0), without building a large count.

    Past the cutoff, _count_bracket's bracket of count * divisor (n, or 1
    for |G|) is divided with 64 extra bits, low end down and high end up.
    When both ends share their bit length and top 64 bits, which are all
    log2_of_big reads, every integer in it has one float, returned.
    Otherwise the exact count is taken: count_irreducibles, or |G| summed
    over _subfield_terms(n).
    """
    if n == 1 and not irreducible:
        return -math.inf
    bracket = _count_bracket(q, n, irreducible)
    if bracket is not None:
        lo, hi, shift = bracket
        divisor = n if irreducible else 1
        lo, hi = (lo << 64) // divisor, -(-(hi << 64) // divisor)
        cut = lo.bit_length() - 64
        if cut >= 0 and hi.bit_length() == lo.bit_length() and lo >> cut == hi >> cut:
            return math.log2(lo >> cut) + float(shift - 64 + cut)
    exact = count_irreducibles(q, n) if irreducible else _subfield_count(q, _subfield_terms(n))
    return log2_of_big(exact)


def _count_bracket(q: int, n: int, irreducible: bool) -> tuple[int, int, int] | None:
    # (lo, hi, s) with lo 2^s <= count * divisor <= hi 2^s, or None under the
    # cutoff or when the guard fails. count * divisor is the Moebius sum of
    # +-q^(n/d) over the squarefree d | n, led by +q^(n/r): r = 1 for I_q(n),
    # the least prime of n > 1 for |G|. Every other d is at least r + 1, so
    # |rest| < q^(f + 1), f = n // (r + 1), and the guard puts that at or
    # below 2^s: one unit of q^(n/r)'s _power_bracket, the slack at each end
    r = 1 if irreducible else next(_prime_factors(n))
    bits = q.bit_length()
    if n // r * bits < _EXACT_BELOW_BITS:
        return None
    lo, hi, shift = _power_bracket(q, n // r)
    if (n // (r + 1) + 1) * bits > shift:
        return None
    return lo - 1, hi + 1, shift


def _power_bracket(q: int, e: int) -> tuple[int, int, int]:
    # (lo, hi, s) with lo * 2^s <= q^e <= hi * 2^s and hi <= 2^_BRACKET_BITS,
    # left-to-right over the bits of e. Once a step truncates, s is
    # bit_length(q^e) - _BRACKET_BITS give or take one
    lo = hi = 1
    s = 0
    for bit in bin(e)[2:]:
        lo, hi, s = lo * lo, hi * hi, 2 * s
        if bit == "1":
            lo, hi = lo * q, hi * q
        cut = hi.bit_length() - _BRACKET_BITS
        if cut > 0:
            lo, hi, s = lo >> cut, -(-hi >> cut), s + cut
    return lo, hi, s


def _prime_factors(n: int) -> Iterator[int]:
    """The distinct primes of n >= 1, ascending, by trial division."""
    r = 2
    while n > 1:
        if r * r > n:
            r = n  # what is left of n is prime
        if n % r == 0:
            yield r
            while n % r == 0:
                n //= r
        r += 1


def log2_of_big(x: int) -> float:
    """log2 of a positive integer of arbitrary bit length.

    Floats overflow past 2^1024, so the top 64 bits serve as mantissa and the
    bit length as exponent. Relative error stays near 1 ulp regardless of size.
    """
    if x < 1:
        raise ValueError(f"log2_of_big needs a positive integer, got {x}")
    bits = x.bit_length()
    if bits <= 64:
        return math.log2(x)
    top = x >> (bits - 64)
    return math.log2(top) + float(bits - 64)
