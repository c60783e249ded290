"""Polynomials over F_p, their irreducibility, and extension fields F_{p^k}.

Coefficient vectors are stored lowest degree first: as array rows, or as
a modulus tuple with no trailing zeros. Extension fields are F_p[x]/(m)
for a monic irreducible m; when no modulus is given, the lexicographically
first irreducible of the right degree is used so that every construction
is reproducible run to run.

Only odd prime characteristics are accepted: the quadratic character that
everything downstream consumes does not exist in characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetExceededError
from .ntheory import _require_cell, _require_odd_prime, divisors, is_prime

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "PolyModP",
    "enumerate_irreducibles",
    "ExtField",
    "norm",
    "quad_char",
]

DEFAULT_ENUM_BUDGET = 1 << 20


def _require_budget(
    what: str, size: int | Callable[[], int], unit: str, min_bits: int = 0
) -> None:
    """The one budget gate: BudgetExceededError when work of `size` units
    would pass DEFAULT_ENUM_BUDGET, raised before any of it starts.

    A size past 10^18 is shown as a power of two it reaches, since Python
    refuses to print an int of more than 4300 digits at all.

    A size that is itself costly to build (a power p^k for a huge k) comes
    as a function that builds it, with min_bits, a lower bound on its bit
    length read off p and k. A bound past 60 bits (2^60 > 10^18, so the
    size would be shown as a power of two anyway) refuses at once, and the
    size is never built."""
    if min_bits > max(60, DEFAULT_ENUM_BUDGET.bit_length()):
        raise BudgetExceededError(
            f"{what} needs at least 2^{min_bits - 1} {unit}, budget is {DEFAULT_ENUM_BUDGET}"
        )
    if callable(size):
        size = size()
    if size > DEFAULT_ENUM_BUDGET:
        shown = size if size < 10 ** 18 else f"at least 2^{size.bit_length() - 1}"
        raise BudgetExceededError(
            f"{what} needs {shown} {unit}, budget is {DEFAULT_ENUM_BUDGET}"
        )


# ---------------------------------------------------------------------------
# raw coefficient-tuple arithmetic (lowest degree first, normalized)

def _norm(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _psub(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _norm(out)


def _pmul(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _norm(out)


def _pmod(p: int, a: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...]:
    # remainder of a by a nonzero m, by long division
    dm = len(m) - 1
    if len(a) - 1 < dm:
        return a
    rem = list(a)
    lead_inv = pow(m[-1], p - 2, p)
    for i in range(len(a) - dm - 1, -1, -1):
        c = rem[i + dm]
        if c:
            c = c * lead_inv % p
            for t in range(dm + 1):
                rem[i + t] = (rem[i + t] - c * m[t]) % p
    return _norm(rem[:dm])


def _ppowmod(
    p: int, a: tuple[int, ...], e: int, m: tuple[int, ...]
) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _pmod(p, a, m)
    while e:
        if e & 1:
            result = _pmod(p, _pmul(p, result, base), m)
        base = _pmod(p, _pmul(p, base, base), m)
        e >>= 1
    return result


def _pgcd(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # a greatest common divisor, up to a constant factor
    while b:
        a, b = b, _pmod(p, a, b)
    return a


def _id_digits(p: int, ident: int) -> tuple[int, ...]:
    # base-p digits of an element id, lowest first: the coefficient tuple
    digits = []
    while ident:
        ident, c = divmod(ident, p)
        digits.append(c)
    return tuple(digits)


def _poly_str(coeffs: tuple[int, ...]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        elif d == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{d}" if c == 1 else f"{c}*x^{d}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# prime-field polynomials

@dataclass(frozen=True)
class PolyModP:
    """An ExtField's modulus: a polynomial over F_p, odd prime p, reduced
    mod p and stored lowest degree first with trailing zeros stripped."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        cs = [int(c) % self.p for c in self.coeffs]
        object.__setattr__(self, "coeffs", _norm(cs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self) -> str:
        return f"PolyModP(p={self.p}, {_poly_str(self.coeffs)})"


def _rabin_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    # Rabin's test: x^(p^k) = x mod f, and x^(p^(k/r)) - x coprime to f
    # for every prime r dividing k.
    k = len(coeffs) - 1
    if k == 1:
        return True
    x = (0, 1)
    for r in filter(is_prime, divisors(k)):
        h = _ppowmod(p, x, p ** (k // r), coeffs)
        if len(_pgcd(p, _psub(p, h, x), coeffs)) != 1:
            return False
    return _ppowmod(p, x, p ** k, coeffs) == x


def _monic_irreducibles(p: int, k: int) -> Iterator[tuple[int, ...]]:
    # coefficient tuples (lowest first) in enumerate_irreducibles' order, one
    # Rabin test each; ascending tail id is that order, and the walk is lazy
    # in p and k, so ExtField takes the first without scanning p^k
    for tail in range(p ** k):
        digits = _id_digits(p, tail)
        coeffs = digits + (0,) * (k - len(digits)) + (1,)
        if _rabin_irreducible(p, coeffs):
            yield coeffs


# most int64 entries in one temporary array of the sieve (128 KiB)
_SIEVE_BLOCK = 1 << 14


def _monic_rows(p: int, k: int, tails: np.ndarray) -> np.ndarray:
    # one row per tail id t = sum_{i<k} a_i p^i: (a_0, ..., a_{k-1}, 1)
    rows = np.ones((len(tails), k + 1), dtype=np.int64)
    rows[:, :k] = tails[:, None] // p ** np.arange(k, dtype=np.int64) % p
    return rows


def _ids(p: int, rows: np.ndarray) -> np.ndarray:
    # element id of every row of base-p digits, lowest first
    return rows @ p ** np.arange(rows.shape[1], dtype=np.int64)


def _irreducible_mask(p: int, k: int) -> np.ndarray:
    """Flags over the tail ids 0..p^k - 1: True at the monic irreducibles
    of degree k over F_p.

    A monic polynomial of degree k is reducible iff it is f*g with f monic
    irreducible of degree d in [1, k//2] and g monic of degree k - d, so
    clearing every such product leaves exactly the irreducibles flagged.
    """
    irreducible = np.ones(p ** k, dtype=bool)
    for d in range(1, k // 2 + 1):
        m = k - d
        f_rows = _monic_rows(p, d, np.flatnonzero(_irreducible_mask(p, d)))
        g_count = p ** m
        g_step = min(g_count, _SIEVE_BLOCK // (m + 1))
        f_step = max(1, _SIEVE_BLOCK // g_step)
        for g_lo in range(0, g_count, g_step):
            g = _monic_rows(p, m, np.arange(g_lo, min(g_lo + g_step, g_count))).T
            for f_lo in range(0, len(f_rows), f_step):
                f = f_rows[f_lo : f_lo + f_step].T[:, :, None]
                # ids[a, b] = tail id of f_a * g_b, one coefficient at a time
                ids = np.zeros((f.shape[1], g.shape[1]), dtype=np.int64)
                for i in range(k):
                    c = sum(f[s] * g[i - s] for s in range(max(0, i - m), min(d, i) + 1))
                    ids += c % p * p ** i
                irreducible[ids] = False
    return irreducible


def enumerate_irreducibles(p: int, k: int) -> np.ndarray:
    """All monic irreducible degree-k polynomials over F_p, as the rows
    (a_0, ..., a_{k-1}, 1) of an (m, k + 1) int64 array.

    Rows are ordered lexicographically by (a_{k-1}, ..., a_0), i.e.
    x^2 + 1 before x^2 + x + 2 before x^2 + 2x + 2 for p = 3. Refuses
    to scan more than DEFAULT_ENUM_BUDGET candidates (p^k of them).

    The candidates are sieved, not tested one by one: every product of a
    monic irreducible of degree d <= k/2 (sieved the same way) with a
    monic polynomial of degree k - d is marked reducible in a table of p^k
    flags, with numpy computing the products in blocks of 2^14. Rabin's
    test stays behind ExtField's modulus.
    """
    _require_cell(p, k)
    _require_budget(f"enumerating degree-{k} polynomials over F_{p}", p ** k, "candidates")
    return _monic_rows(p, k, np.flatnonzero(_irreducible_mask(p, k)))


# ---------------------------------------------------------------------------
# extension fields

class ExtField:
    """F_{p^k} realized as F_p[x] modulo a monic irreducible.

    Elements are indexed by id = sum_i c_i p^i over the representative's
    coefficients, so id 0 is zero, id 1 is one and id p is the generator
    image x.
    """

    def __init__(self, p: int, k: int, modulus: PolyModP | None = None):
        _require_cell(p, k)
        if modulus is None:
            modulus = PolyModP(p, next(_monic_irreducibles(p, k)))
        else:
            if modulus.p != p:
                raise ValueError(f"modulus characteristic {modulus.p} != {p}")
            if modulus.degree != k:
                raise ValueError(f"modulus degree {modulus.degree} != {k}")
            if not modulus.is_monic or not _rabin_irreducible(p, modulus.coeffs):
                raise ValueError(f"modulus must be monic irreducible, got {modulus!r}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.size = p ** k
        self._powers: np.ndarray | None = None

    def elements(self) -> np.ndarray:
        """Every element as an (n, k) int64 array of base-p digits, lowest
        degree first, row i holding id i; refused past DEFAULT_ENUM_BUDGET."""
        _require_budget(f"enumerating F_{self.p}^{self.k}", self.size, "elements")
        return _monic_rows(self.p, self.k, np.arange(self.size))[:, : self.k]

    def power_ids(self) -> np.ndarray:
        """Ids of g^0, g^1, ..., g^(n-2) for the multiplicative generator g
        of least id, n = p^k: a permutation of the nonzero ids that starts
        at 1. Built once per field by doubling (g^0..g^(L-1) times g^L
        gives g^L..g^(2L-1), then g^L is squared) and cached; refused past
        DEFAULT_ENUM_BUDGET entries.
        """
        if self._powers is None:
            n = self.size
            _require_budget("power table", n, "entries")
            block = np.eye(1, self.k, dtype=np.int64)  # g^0 = 1
            step = _monic_rows(self.p, self.k, np.array([self._generator_id()]))[:, : self.k]
            while len(block) < n - 1:
                block = np.concatenate([block, _mul(self, block[: n - 1 - len(block)], step)])
                step = _mul(self, step, step)
            powers = _ids(self.p, block)
            # distinct powers: g has order n - 1, so g^(n-1) = 1
            assert (np.bincount(powers, minlength=n)[1:] == 1).all()
            powers.flags.writeable = False  # every caller shares the cached table
            self._powers = powers
        return self._powers

    def char_table(self) -> np.ndarray:
        """Quadratic character of every element, indexed by id (int8, 0 at 0).

        Read off power_ids(): the nonzero squares are exactly the even
        powers of the generator, so chi is +1 at g^(2i) and -1 at g^(2i+1).
        """
        powers = self.power_ids()
        chi = np.zeros(self.size, dtype=np.int8)
        chi[powers[0::2]] = 1
        chi[powers[1::2]] = -1
        return chi

    def _generator_id(self) -> int:
        # scan ids upward; for k >= 2 constants cannot generate (their order
        # divides p - 1), so the scan starts at id p, the element x
        n = self.size
        factors = list(filter(is_prime, divisors(n - 1)))
        for ident in range(2 if self.k == 1 else self.p, n):
            cand = _id_digits(self.p, ident)
            if all(
                _ppowmod(self.p, cand, (n - 1) // q, self.modulus.coeffs) != (1,)
                for q in factors
            ):
                return ident
        raise AssertionError(f"no generator found for F_{self.p}^{self.k}")

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, k={self.k}, modulus={_poly_str(self.modulus.coeffs)})"


# ---------------------------------------------------------------------------
# element arrays: (n, k) int64 base-p digits, lowest degree first

def _mul(field: ExtField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # schoolbook product over the columns, then x^d for d = 2k-2 .. k
    # reduced by x^k = -(m_0 + ... + m_{k-1} x^{k-1}); entries stay below
    # 2k p^2, which int64 must hold
    p, k = field.p, field.k
    if 2 * k * p * p >= 1 << 63:
        raise ValueError(f"products in F_{p}^{k} overflow int64 element arrays")
    prod = np.zeros((len(a), 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, i : i + k] += a[:, i, None] * b
    low = np.array(field.modulus.coeffs[:k], dtype=np.int64)
    for d in range(2 * k - 2, k - 1, -1):
        prod[:, d - k : d] -= prod[:, d, None] % p * low
    return prod[:, :k] % p


def _pow(field: ExtField, a: np.ndarray, e: int) -> np.ndarray:
    # square-and-multiply, one exponent for every row
    out = np.zeros_like(a)
    out[:, 0] = 1
    while e:
        if e & 1:
            out = _mul(field, out, a)
        e >>= 1
        if e:
            a = _mul(field, a, a)
    return out


def norm(field: ExtField, a: np.ndarray) -> np.ndarray:
    """Field norm down to F_p of every row of an element array, as residues.

    The product of the k Frobenius conjugates a * a^p * ... * a^(p^(k-1));
    multiplicative, zero only at zero.
    """
    out = conj = a
    for _ in range(field.k - 1):
        conj = _pow(field, conj, field.p)
        out = _mul(field, out, conj)
    assert not out[:, 1:].any(), f"a norm in F_{field.p}^{field.k} left the prime field"
    return out[:, 0]


def quad_char(field: ExtField, a: np.ndarray) -> np.ndarray:
    """Quadratic character of every row of an element array (int8): +1 on
    nonzero squares, -1 otherwise, 0 at 0.

    Euler's criterion a^((p^k - 1)/2), by square-and-multiply.
    """
    c = _pow(field, a, (field.size - 1) // 2)
    assert not c[:, 1:].any() and np.isin(c[:, 0], (0, 1, field.p - 1)).all(), (
        f"Euler's criterion in F_{field.p}^{field.k} gave a value other than 0, 1 or -1"
    )
    return np.where(c[:, 0] == field.p - 1, -1, c[:, 0]).astype(np.int8)
