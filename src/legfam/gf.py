"""Polynomials over F_p, their irreducibility, and extension fields F_{p^k}.

Coefficient vectors are int64 array rows, lowest degree first: a monic
one of degree k is (a_0, ..., a_{k-1}, 1), for its tail id sum a_i p^i.
One sieve decides irreducibility. Extension fields are F_p[x]/(m) for
m the lexicographically first monic irreducible of its degree, so that
every construction is reproducible run to run.

Only odd prime characteristics are accepted: the quadratic character that
everything downstream consumes does not exist in characteristic 2.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .ntheory import _prime_factors, _require_cell

__all__ = [
    "DEFAULT_ENUM_BUDGET",
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


# most int64 entries in one temporary array of the sieve (128 KiB)
_SIEVE_BLOCK = 1 << 14

# candidate ids per round of the generator search: on every field up to
# 2^12 elements the least generator lies within 22 ids of the start
_GENERATOR_BLOCK = 16


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


def _sieve(p: int, k: int) -> np.ndarray:
    # _irreducible_mask behind the budget gate on its p^k candidates; a
    # huge k is refused from bit lengths, before p^k is built
    what = f"enumerating degree-{k} polynomials over F_{p}"
    _require_budget(what, lambda: p ** k, "candidates", (p.bit_length() - 1) * k + 1)
    return _irreducible_mask(p, k)


def enumerate_irreducibles(p: int, k: int) -> np.ndarray:
    """All monic irreducible degree-k polynomials over F_p, as the rows
    (a_0, ..., a_{k-1}, 1) of an (m, k + 1) int64 array.

    Rows are ordered lexicographically by (a_{k-1}, ..., a_0), i.e.
    x^2 + 1 before x^2 + x + 2 before x^2 + 2x + 2 for p = 3. Refuses
    to scan more than DEFAULT_ENUM_BUDGET candidates (p^k of them), a
    huge k from bit lengths alone.

    The candidates are sieved, not tested one by one: every product of a
    monic irreducible of degree d <= k/2 (sieved the same way) with a
    monic polynomial of degree k - d is marked reducible in a table of p^k
    flags, with numpy computing the products in blocks of 2^14. The same
    table picks an ExtField's modulus, a row of the same form; it is the
    package's only irreducibility test.
    """
    _require_cell(p, k)
    return _monic_rows(p, k, np.flatnonzero(_sieve(p, k)))


# ---------------------------------------------------------------------------
# extension fields

class ExtField:
    """F_{p^k} realized as F_p[x] modulo a monic irreducible.

    Elements are indexed by id = sum_i c_i p^i over the representative's
    coefficients, so id 0 is zero, id 1 is one and id p is the generator
    image x.

    The modulus is the first row of enumerate_irreducibles(p, k), as a
    read-only (k + 1,) int64 row. It is picked in that sieve's table, so a
    field past DEFAULT_ENUM_BUDGET elements is refused here, at any degree
    (so no element array or power table passes it); for k = 1 every monic
    linear polynomial is flagged, so the modulus is x.
    """

    def __init__(self, p: int, k: int):
        _require_cell(p, k)
        # the lowest flagged tail id (a flag is set: irreducibles exist)
        tail = np.argmax(_sieve(p, k))
        self.p = p
        self.k = k
        self.modulus = _monic_rows(p, k, np.array([tail]))[0]
        self.modulus.flags.writeable = False  # a write would change the field under it
        # row r holds x^(k+r) mod the modulus: x^k = -(m_0 + ... + m_{k-1} x^{k-1}),
        # and each next row is x times the last
        self._fold = np.empty((k - 1, k), dtype=np.int64)
        row = -self.modulus[:k] % p
        for r in range(k - 1):
            self._fold[r] = row
            row = (np.concatenate(([0], row[:-1])) + row[-1] * self._fold[0]) % p
        self._fold.flags.writeable = False
        self.size = p ** k
        self._powers: np.ndarray | None = None

    def elements(self) -> np.ndarray:
        """Every element as an (n, k) int64 array of base-p digits, lowest
        degree first, row i holding id i."""
        return _monic_rows(self.p, self.k, np.arange(self.size))[:, : self.k]

    def power_ids(self) -> np.ndarray:
        """Ids of g^0, g^1, ..., g^(n-2) for the multiplicative generator g
        of least id, n = p^k: a permutation of the nonzero ids that starts
        at 1. Built once per field by doubling (g^1..g^L times g^L gives
        g^(L+1)..g^(2L), whose last row is the next multiplier) and cached.
        """
        if self._powers is None:
            n = self.size
            block = _monic_rows(self.p, self.k, np.array([1, self._generator_id()]))[:, : self.k]
            while len(block) < n - 1:
                block = np.concatenate([block, _mul(self, block[1 : n - len(block)], block[-1:])])
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
        # the least id of full order: a^((n-1)/q) != 1 for every prime q
        # dividing n - 1, tested on a block of ids at a time by one chain of
        # squarings. For k >= 2 constants cannot generate (their order
        # divides p - 1), so the scan starts at id p, the element x
        p, k, n = self.p, self.k, self.size
        exps = [(n - 1) // q for q in _prime_factors(n - 1)]
        for lo in range(2 if k == 1 else p, n, _GENERATOR_BLOCK):
            ids = np.arange(lo, min(lo + _GENERATOR_BLOCK, n))
            cand = _monic_rows(p, k, ids)[:, :k]
            full = np.all([_ids(p, c) != 1 for c in _pows(self, cand, exps)], axis=0)
            if full.any():
                return int(ids[np.argmax(full)])
        raise AssertionError(f"no generator found for F_{self.p}^{self.k}")

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, k={self.k}, modulus={self.modulus.tolist()})"


# ---------------------------------------------------------------------------
# element arrays: (n, k) int64 base-p digits, lowest degree first

def _mul(field: ExtField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # schoolbook product into a (2k - 1, n) array, one row per degree, then
    # x^k .. x^(2k-2) folded back in one product with the field's rows of
    # x^(k+r) mod the modulus; entries stay below 2k p^2 < 2^41, since
    # construction bounds p^k at DEFAULT_ENUM_BUDGET = 2^20, so int64 holds
    # them. The result is a (k, n) array's transpose, so chains read rows
    p, k = field.p, field.k
    if k == 1:  # a prime field has no fold: residues multiply directly
        return a * b % p
    at, bt = a.T, b.T
    prod = np.zeros((2 * k - 1, len(a)), dtype=np.int64)
    for i in range(k):
        prod[i : i + k] += at[i] * bt
    prod = prod[:k] + field._fold.T @ (prod[k:] % p)
    return (prod % p).T


def _pows(field: ExtField, a: np.ndarray, exps: Sequence[int]) -> list[np.ndarray]:
    # square-and-multiply for every exponent over one chain of squarings a,
    # a^2, a^4, ..., one exponent for every row; each result starts at the
    # first power it needs and is its own array (e = 1 a copy, e = 0 ones)
    out = [None if e else np.eye(1, a.shape[1], dtype=a.dtype).repeat(len(a), axis=0)
           for e in exps]
    for bit in range(max(exps).bit_length()):
        if bit:
            a = _mul(field, a, a)
        for i, e in enumerate(exps):
            if e >> bit & 1:
                out[i] = a.copy() if out[i] is None else _mul(field, out[i], a)
    return out


def _frobenius(field: ExtField) -> np.ndarray:
    # a -> a^p is F_p-linear: the p-th powers of the basis x^i as rows
    return _pows(field, np.eye(field.k, dtype=np.int64), [field.p])[0]


def norm(field: ExtField, a: np.ndarray) -> np.ndarray:
    """Field norm down to F_p of every row of an element array, as residues.

    The product of the k Frobenius conjugates a * a^p * ... * a^(p^(k-1));
    multiplicative, zero only at zero. Each conjugate is the last one
    times the Frobenius matrix (entries below k p^2).
    """
    frob = _frobenius(field)
    out = conj = a
    for _ in range(field.k - 1):
        conj = conj @ frob % field.p
        out = _mul(field, out, conj)
    assert not out[:, 1:].any(), f"a norm in F_{field.p}^{field.k} left the prime field"
    return out[:, 0]


def quad_char(field: ExtField, a: np.ndarray) -> np.ndarray:
    """Quadratic character of every row of an element array (int8): +1 on
    nonzero squares, -1 otherwise, 0 at 0.

    Euler's criterion a^((p^k - 1)/2), by square-and-multiply.
    """
    c = _pows(field, a, [(field.size - 1) // 2])[0]
    assert not c[:, 1:].any() and ((c[:, 0] <= 1) | (c[:, 0] == field.p - 1)).all(), (
        f"Euler's criterion in F_{field.p}^{field.k} gave a value other than 0, 1 or -1"
    )
    return np.where(c[:, 0] == field.p - 1, -1, c[:, 0]).astype(np.int8)
