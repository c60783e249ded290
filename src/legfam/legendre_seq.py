"""Legendre symbol sequences attached to polynomials mod p, and the
families of such sequences generated by all monic irreducibles of a
fixed degree; a family is one read-only int8 array, one row per member."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import _require_budget, enumerate_irreducibles
from .ntheory import _require_cell, _require_odd_prime, count_irreducibles

__all__ = [
    "legendre_symbol",
    "SequenceFamily",
    "build_family",
]


def legendre_symbol(a: int | np.ndarray, p: int) -> int | np.ndarray:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p: an int for
    a scalar a, else an int8 array of the integer array a's shape.

    Read from the table of squares mod p: -1 everywhere, +1 at every
    n^2 mod p, 0 at 0. The table has p entries, so a p past
    DEFAULT_ENUM_BUDGET is refused before it is built. Each call builds
    it anew, O(p) even for one symbol (about 30 ms at p = 1048573), so
    many symbols at one p go in as one array.
    """
    _require_odd_prime(p)
    _require_budget(f"Legendre table mod {p}", p, "entries")
    table = np.full(p, -1, dtype=np.int8)
    table[np.arange(p) ** 2 % p] = 1
    table[0] = 0
    if np.isscalar(a):
        return int(table[a % p])
    return table[np.ravel(a) % p].reshape(np.shape(a))


@dataclass(frozen=True, eq=False)
class SequenceFamily:
    """The length-p +-1 sequences of one family, as one read-only int8
    array of shape (m, p): row b is member b, column n - 1 holds its e_n.
    The cell, the shape and the entries are checked once, on a copy."""

    p: int
    k: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        _require_cell(self.p, self.k)
        if np.shape(self.rows)[1:] != (self.p,):
            raise ValueError(f"rows must have shape (m, p={self.p}), got {np.shape(self.rows)}")
        if not np.isin(self.rows, (-1, 1)).all():
            raise ValueError("sequence entries must be +-1")
        rows = np.array(self.rows, dtype=np.int8)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)


def _min_cell_bits(p: int, k: int) -> int:
    # a lower bound on the bit length of I_p(k) * p, from bit lengths alone:
    # k I_p(k) = p^k - |G| with |G| <= 1.5 p^(k/2) <= p^k / 2 once p^k >= 9,
    # so I_p(k) >= p^k / (2k) for every odd p and k >= 1
    return (k + 1) * (p.bit_length() - 1) - k.bit_length()


def build_family(p: int, k: int) -> SequenceFamily:
    """The family of Legendre sequences of all monic irreducible degree-k
    polynomials over F_p: row b is e_n = (f(n)/p), n = 1..p, patched to +1
    where p divides f(n), for f in row b of enumerate_irreducibles(p, k).

    Two gates at DEFAULT_ENUM_BUDGET, both before any polynomial is
    sieved: the total number of stored sequence cells (members times p),
    which for k = 1 is the binding one since there are p linear
    polynomials of length p each, and enumerate_irreducibles' own gate on
    the p^k candidates. The cells gate refuses a huge k from bit lengths,
    before p^k is built.
    """
    _require_cell(p, k)
    _require_budget(
        f"family F({k}, {p})",
        lambda: count_irreducibles(p, k) * p,
        "sequence cells",
        _min_cell_bits(p, k),
    )
    # symbol[a] = (a/p), with the +1 patch at a = 0; e_p reads f(0)
    symbol = legendre_symbol(np.arange(p), p)
    symbol[0] = 1
    coeffs = enumerate_irreducibles(p, k)
    # one Horner pass over the coefficient columns, highest degree first
    n = np.arange(1, p + 1) % p
    values = np.zeros((len(coeffs), p), dtype=np.int64)
    for c in coeffs.T[::-1]:
        values = (values * n + c[:, None]) % p
    return SequenceFamily(p, k, symbol[values])
