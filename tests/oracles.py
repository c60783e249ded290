"""Independent reference implementations used only by the tests.

Everything here is deliberately dumb and slow: bisection instead of
Halley, sieves and trial division instead of divisor-sum formulas,
schoolbook arithmetic over explicit multiplication tables. The
production code is checked against these, never the other way round.
The one exception is lemma4_closed_form: the tests' entry to the Lemma 4
root the package computes, which lemma4_bisection_root checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from legfam import bounds
from legfam.gf import _mul, _pows


def w_bisect(x: float) -> float:
    """Principal-branch W(x) for x >= -1/e by pure bisection on w*e^w = x."""
    lo = -1.0
    hi = 1.0
    while hi * math.exp(min(hi, 700.0)) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-18 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def w_from_log_bisect(log_x: float) -> float:
    """Root of w + ln(w) = log_x by bisection, for log_x >= 1."""
    lo, hi = 1e-300, max(2.0, log_x)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid + math.log(mid) < log_x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def _squares_mod(p: int) -> frozenset[int]:
    return frozenset((x * x) % p for x in range(1, p))


def legendre_direct(a: int, p: int) -> int:
    """(a/p) straight from the definition: scan the squares mod p (once
    per p)."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in _squares_mod(p) else -1


def mobius_direct(n: int) -> int:
    """Mobius from the definition via full trial-division factorization."""
    if n == 1:
        return 1
    count = 0
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        d += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


# --- tiny explicit finite fields over any prime power -----------------------
#
# Elements are integers 0..q-1 read as base-r digit vectors (r = char).
# The modulus comes from trial division over F_r, so nothing here depends
# on the package's Rabin test or its enumeration order.


def _prime_power(q: int) -> tuple[int, int]:
    for r in range(2, q + 1):
        if q % r == 0:
            e = 0
            while q % r == 0:
                q //= r
                e += 1
            if q != 1:
                raise ValueError("not a prime power")
            return r, e
    raise ValueError("not a prime power")


def _fp_divides(d: tuple[int, ...], f: tuple[int, ...], r: int) -> bool:
    """Monic d divides f over F_r? Plain long division on coefficient lists."""
    rem = list(f)
    dd = len(d) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for i, c in enumerate(d):
            rem[shift + i] = (rem[shift + i] - lead * c) % r
    return not any(rem)


def _monic_tails(r: int, deg: int):
    for tail in itertools.product(range(r), repeat=deg):
        yield tail + (1,)


def _fp_irreducible(f: tuple[int, ...], r: int) -> bool:
    deg = len(f) - 1
    for d_deg in range(1, deg // 2 + 1):
        for d in _monic_tails(r, d_deg):
            if _fp_divides(d, f, r):
                return False
    return True


class TinyField:
    """Lookup-table field of order q = r^e; fine for q up to a few hundred."""

    def __init__(self, q: int, modulus: Sequence[int] | None = None):
        r, e = _prime_power(q)
        self.q, self.r, self.e = q, r, e
        if modulus is None:
            # the first monic irreducible in _monic_tails order, lowest degree first
            modulus = next(f for f in _monic_tails(r, e) if _fp_irreducible(f, r))
        else:
            # a given modulus, lowest degree first, is checked by trial division
            modulus = tuple(int(c) for c in modulus)
            if (len(modulus) != e + 1 or modulus[-1] != 1
                    or not all(0 <= c < r for c in modulus) or not _fp_irreducible(modulus, r)):
                raise ValueError(
                    f"modulus must be monic irreducible of degree {e} over F_{r}, got {modulus}"
                )
        self.modulus = modulus
        if e == 1:
            # residues mod the linear modulus are the constants, multiplied mod r
            self.add = [[(i + j) % r for j in range(r)] for i in range(r)]
            self.mul = [[(i * j) % r for j in range(r)] for i in range(r)]
            return
        vecs = [self._vec(i) for i in range(q)]
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                s = self._pack((a + b) % r for a, b in zip(vecs[i], vecs[j]))
                self.add[i][j] = self.add[j][i] = s
                m = self._pack(self._mul_mod(vecs[i], vecs[j], modulus, r))
                self.mul[i][j] = self.mul[j][i] = m

    def _vec(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(i % self.r)
            i //= self.r
        return tuple(out)

    def _pack(self, digits) -> int:
        total = 0
        for t, c in enumerate(digits):
            total += c * self.r ** t
        return total

    @staticmethod
    def _mul_mod(a, b, modulus: tuple[int, ...], r: int) -> list[int]:
        e = len(modulus) - 1
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % r
        while len(prod) > e:
            lead = prod.pop()
            if lead:
                for i in range(e):
                    prod[len(prod) - e + i] = (
                        prod[len(prod) - e + i] - lead * modulus[i]
                    ) % r
        while len(prod) < e:
            prod.append(0)
        return prod


def sieve_irreducible_counts(q: int, n_max: int) -> list[int]:
    """[I_q(1), ..., I_q(n_max)] by sieving monic polynomials over F_q.

    Polynomials are coefficient tuples of field elements (low degree
    first, monic). Every product of an irreducible with any monic of no
    smaller degree gets marked; whatever survives at each degree is
    irreducible, because a composite's smallest-degree irreducible factor
    always participates in such a product.
    """
    field = TinyField(q)
    add, mul = field.add, field.mul

    def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = mul[ai]
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add[out[i + j]][row[bj]]
        return tuple(out)

    monic: list[list[tuple[int, ...]]] = [[()]]
    for n in range(1, n_max + 1):
        monic.append([t + (1,) for t in itertools.product(range(q), repeat=n)])

    composite: set[tuple[int, ...]] = set()
    counts = []
    for n in range(1, n_max + 1):
        irr_n = [f for f in monic[n] if f not in composite]
        counts.append(len(irr_n))
        for f in irr_n:
            for m in range(n, n_max - n + 1):
                for g in monic[m]:
                    composite.add(poly_mul(f, g))
    return counts


def subfield_count_by_recursion(q: int, n: int) -> tuple[int, int]:
    """(|G|, I_q(n)) for F_{q^n} without any Moebius function.

    The exact-degree counts follow from q^e = sum_{f | e} f * I(f) by
    recursion, e * I(e) = q^e - sum_{f | e, f < e} f * I(f), over the
    divisors of n in ascending order; then |G| = sum_{d | n, d < n} d * I(d).
    """
    divs = [d for d in range(1, n + 1) if n % d == 0]
    exact: dict[int, int] = {}
    for e in divs:
        rest = q ** e - sum(f * exact[f] for f in divs if f < e and e % f == 0)
        exact[e], rem = divmod(rest, e)
        assert rem == 0, (q, e)
    return sum(d * exact[d] for d in divs if d < n), exact[n]


def strong_probable_prime(n: int, a: int) -> bool:
    """Does odd n > 2 pass the Miller-Rabin round to base a, straight from
    the definition: a^d = 1 or a^(d 2^r) = -1 (mod n) for some r < s,
    where n - 1 = d 2^s with d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))


def family_complexity_by_patterns(
    rows, n: int, j_cap: int | None = None
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """(gamma, witness) of the +-1 rows of length n by reading every
    member's sign pattern at every position tuple, level by level.

    The witness is the lexicographically first position tuple (1-based)
    with an unrealized pattern and the smallest such pattern, MSB = first
    position and -1 < +1; it is None when gamma reached min(n, j_cap).
    """
    limit = n if j_cap is None else min(n, j_cap)
    # one bitmask per row: bit (i-1) set iff the value at position i is +1
    masks = [sum(1 << (i - 1) for i, v in enumerate(row, start=1) if v == 1) for row in rows]
    for j in range(1, limit + 1):
        full = 1 << j
        for pos in itertools.combinations(range(1, n + 1), j):
            seen = set()
            for mask in masks:
                b = 0
                for i in pos:
                    b = (b << 1) | ((mask >> (i - 1)) & 1)
                seen.add(b)
                if len(seen) == full:
                    break
            if len(seen) < full:
                missing = next(b for b in range(full) if b not in seen)
                signs = tuple(1 if (missing >> (j - 1 - t)) & 1 else -1 for t in range(j))
                return j - 1, (pos, signs)
    return limit, None


def _odd_prime_fields(size_limit: int):
    # every (p, k) of odd characteristic with p^k <= size_limit, by trial division
    for p in range(3, size_limit + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            k = 1
            while p ** k <= size_limit:
                yield p, k
                k += 1


def weil_sweep_size(size_limit: int, j_max: int, certified) -> int:
    """How many checks a complete weil sweep makes: over every field of
    odd characteristic p with p^k <= size_limit, C(p, j) * 2^j pattern
    counts for each j <= min(j_max, p), plus one minimum-versus-subfield
    check for each j <= certified(p, k)."""
    total = 0
    for p, k in _odd_prime_fields(size_limit):
        swept = sum(math.comb(p, j) << j for j in range(1, min(j_max, p) + 1))
        total += swept + certified(p, k)
    return total


def weil_reduced_size(size_limit: int, j_max: int, certified) -> int:
    """How many checks check_weil makes over the orbit representatives:
    per field, one scaling-identity check, certified(p, k) minimum checks,
    and 2^j counts for each tuple of j <= min(max(j_max, certified(p, k)), p)
    positions that starts with r = min(j - 1, 2) fixed positions (none at
    j = 1, then (0,), then (0, 1)): C(p - r, j - r) of them."""
    total = 0
    for p, k in _odd_prime_fields(size_limit):
        depth = min(max(j_max, certified(p, k)), p)
        swept = sum(
            math.comb(p - min(j - 1, 2), j - min(j - 1, 2)) << j for j in range(1, depth + 1)
        )
        total += 1 + swept + certified(p, k)
    return total


def full_pattern_counts(bits, depth: int, prefix: tuple[int, ...] = (), sets=None):
    """The complete weil walk, the reference for check_weil's walk over
    orbit representatives: (prefix, counts) for the empty prefix and every
    increasing position tuple shorter than depth. bits is
    checks._sign_bitsets' array; row r of counts extends the prefix by the
    r-th position after it, column c is the sign pattern whose bits, first
    position most significant, are 1 for +1."""
    if len(prefix) >= depth:
        return
    p, _, words = bits.shape
    start = prefix[-1] + 1 if prefix else 0
    if sets is None:
        sets = np.full((1, words), ~np.uint64(0))
    ext = (sets[None, :, None] & bits[start:, None]).reshape(p - start, -1, words)
    yield prefix, np.bitwise_count(ext).sum(axis=-1, dtype=np.int64)
    if len(prefix) + 1 < depth:
        for i, child in zip(range(start, p - 1), ext):
            yield from full_pattern_counts(bits, depth, prefix + (i,), child)


def digits_id(p: int, coeffs) -> int:
    """Element id of base-p digits, lowest first: sum_i c_i p^i."""
    ident = 0
    for c in reversed(tuple(coeffs)):
        ident = ident * p + c
    return ident


def power_ids_by_walk(field) -> list[int]:
    """Ids of g^0, ..., g^(n-2) for the generator g of least id of an
    ExtField, walked one power at a time in schoolbook arithmetic modulo
    the field's modulus: the reference for ExtField.power_ids."""
    p, k = field.p, field.k
    g = [field._generator_id() // p ** i % p for i in range(k)]
    cur = [1] + [0] * (k - 1)
    ids = []
    for _ in range(field.size - 1):
        ids.append(digits_id(p, cur))
        cur = TinyField._mul_mod(cur, g, field.modulus.tolist(), p)
    assert cur == [1] + [0] * (k - 1)
    return ids


def norm_by_powers(field, a):
    """Field norm of every row of an element array of an ExtField as the
    product a * a^p * ... * a^(p^(k-1)), each conjugate raised from the
    last by square-and-multiply: the reference for gf.norm's Frobenius
    matrix."""
    out = conj = a
    for _ in range(field.k - 1):
        conj = _pows(field, conj, [field.p])[0]
        out = _mul(field, out, conj)
    assert not out[:, 1:].any()
    return out[:, 0]


def pattern_count(field, positions, signs) -> int:
    """Number of alpha in F_{p^k} with chi(alpha + i) = s for every pair
    (i, s) of a position and a sign, chi being field.char_table().

    Positions are residues mod p (distinct after reduction); signs are +-1.
    One element at a time over the whole field.
    """
    if len(positions) != len(signs):
        raise ValueError("positions and signs must have equal length")
    if not positions:
        raise ValueError("at least one (position, sign) pair is required")
    p = field.p
    pos = [int(i) % p for i in positions]
    if len(set(pos)) != len(pos):
        raise ValueError(f"positions must be distinct mod {p}, got {positions}")
    for s in signs:
        if s not in (-1, 1):
            raise ValueError(f"signs must be +-1, got {s}")
    chi = field.char_table()
    count = 0
    for ident in range(field.size):
        c0 = ident % p
        base = ident - c0
        if all(chi[base + (c0 + i) % p] == s for i, s in zip(pos, signs)):
            count += 1
    return count


def satisfies_spec(family, positions, signs) -> bool:
    """True when some row of family.rows matches every (position, sign)
    constraint.

    Positions are 1-based, strictly increasing, at most the sequence length
    family.p. The empty pattern is satisfied vacuously, even by an empty
    family.
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
    return any(
        all(row[i - 1] == s for i, s in zip(positions, signs)) for row in family.rows.tolist()
    )


def _require_lemma4_inputs(A: float, B: float) -> None:
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"A must be positive and finite, got {A}")
    if not math.isfinite(B):
        raise ValueError(f"B must be finite, got {B}")


def lemma4_closed_form(A: float, B: float) -> float:
    """The unique positive root of B*x + x*log2(x) = A, for A > 0 and
    finite B, by the package's own route: 2 ** bounds._root_log2(log2 A, B),
    the root whose log2 guaranteed_j certifies. Not independent; it is what
    lemma4_bisection_root checks.
    """
    _require_lemma4_inputs(A, B)
    return 2.0 ** bounds._root_log2(math.log2(A), B)


def lemma4_bisection_root(A: float, B: float) -> float:
    """Root of B*x + x*log2(x) = A by pure bisection; no Lambert W anywhere.

    The independent cross-check of lemma4_closed_form above, with the
    same input checks. The lower end 2^(-B-2) always starts negative
    (there B + log2 x = -2 exactly), and g is increasing past its single
    minimum, so doubling the upper end is guaranteed to bracket.
    """
    _require_lemma4_inputs(A, B)
    lo = 2.0 ** (-B - 2.0)
    if not math.isfinite(lo):
        raise ValueError(f"B = {B} puts the bracket outside float range")

    def g(x: float) -> float:
        return x * (B + math.log2(x)) - A

    hi = max(2.0 * lo, 2.0)
    while g(hi) <= 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * lo:
            break
    return 0.5 * (lo + hi)
