"""Legendre symbol sequences attached to polynomials mod p, and the
families of such sequences generated by all monic irreducibles of a
fixed degree."""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf import PolyModP, _require_budget, enumerate_irreducibles
from .ntheory import _require_cell, _require_odd_prime, count_irreducibles

__all__ = [
    "legendre_symbol",
    "LegendreSequence",
    "SequenceFamily",
    "build_family",
]


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p.

    Iterative Jacobi reciprocity, O(log^2) bit operations; no exponentiation.
    """
    _require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    n = p
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    # n is now gcd(a, p) = 1 since p is prime and a was nonzero mod p
    return result


@dataclass(frozen=True)
class LegendreSequence:
    """The +-1 sequence e_n = (f(n)/p) for n = 1..p, with e_n = +1 patched
    in wherever p divides f(n). Index n = p wraps to the value at 0."""

    p: int
    values: tuple[int, ...]
    source: PolyModP | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        if len(self.values) != self.p:
            raise ValueError(
                f"sequence must have exactly p={self.p} entries, got {len(self.values)}"
            )
        for v in self.values:
            if v not in (-1, 1):
                raise ValueError(f"sequence entries must be +-1, got {v}")

    def __len__(self) -> int:
        return self.p


@dataclass(frozen=True)
class SequenceFamily:
    """A family of length-p Legendre sequences sharing one prime p.

    For the irreducible-polynomial family of degree k the members appear in
    the enumeration order of their source polynomials, so member order is
    reproducible.
    """

    p: int
    k: int
    members: tuple[LegendreSequence, ...]

    def __post_init__(self) -> None:
        _require_cell(self.p, self.k)
        for m in self.members:
            if m.p != self.p:
                raise ValueError(f"member prime {m.p} != family prime {self.p}")

    def __len__(self) -> int:
        return len(self.members)


def _min_cell_bits(p: int, k: int) -> int:
    # a lower bound on the bit length of I_p(k) * p, from bit lengths alone:
    # k I_p(k) = p^k - |G| with |G| <= 1.5 p^(k/2) <= p^k / 2 once p^k >= 9,
    # so I_p(k) >= p^k / (2k) for every odd p and k >= 1
    return (k + 1) * (p.bit_length() - 1) - k.bit_length()


def build_family(p: int, k: int) -> SequenceFamily:
    """The family of Legendre sequences of all monic irreducible degree-k
    polynomials over F_p.

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
    symbol = [legendre_symbol(a, p) or 1 for a in range(p)]
    members = tuple(
        LegendreSequence(p, tuple(symbol[f.evaluate(n % p)] for n in range(1, p + 1)), f)
        for f in enumerate_irreducibles(p, k)
    )
    return SequenceFamily(p, k, members)
