"""Exhaustive verification sweeps, shared by `cli verify` and the tests.

Each check walks every instance inside an explicit size limit and returns
a CheckReport instead of raising, so the CLI can print what failed and
the tests can assert on the same object.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bounds import guaranteed_j, gyarmati_bound, upper_bound
from .fcomplexity import family_complexity
from .gf import ExtField, _frobenius, _ids, _irreducible_mask, norm, quad_char
from .legendre_seq import build_family, legendre_symbol
from .ntheory import (
    count_irreducibles,
    count_subfield_elements,
    divisors,
    primes_up_to,
)

__all__ = [
    "CheckReport",
    "small_fields",
    "check_weil",
    "check_gauss",
    "check_corollary1",
    "check_sandwich",
    "SUITES",
    "run_suite",
]

# keep failure lists readable when something is systematically broken
_MAX_RECORDED = 20

_GAUSS_IDENTITY_QS = (2, 3, 4, 5, 7, 9)
_GAUSS_IDENTITY_N_MAX = 12
_GAUSS_ENUM_LIMIT = 2 ** 14
_GAUSS_SUBFIELD_LIMIT = 2 ** 10

_COROLLARY1_EXT_LIMIT = 2 ** 12
_COROLLARY1_PRIME_LIMIT = 1024


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    skipped: int = 0
    elapsed_ns: int = 0  # the suite's wall time, set by run_suite

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, msg: str) -> None:
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(msg)
        else:
            self.skipped += 1


def small_fields(size_limit: int) -> list[tuple[int, int]]:
    """All (p, k) with odd prime p and p^k <= size_limit, ascending in p."""
    cells = []
    for p in primes_up_to(size_limit, 3):
        k = 1
        while p ** k <= size_limit:
            cells.append((p, k))
            k += 1
    return cells


def _weil_limit(j: int, n: int) -> int:
    """The largest |2^j N - n| that a count N at j positions may reach.

    The slack |N - n/2^j| <= ((j-2)/2 + 2^-j) sqrt(n) + j/2, times 2^j, is
    R <= L sqrt(n) with L = (j-2) 2^(j-1) + 1 >= 0, R = |2^j N - n| - j 2^(j-1).
    R is an integer, so that holds iff R <= isqrt(L^2 n): R <= 0 or R^2 <= L^2 n.
    """
    lead = (j - 2) * 2 ** (j - 1) + 1
    return j * 2 ** (j - 1) + math.isqrt(lead * lead * n)


def _sign_bitsets(chi: np.ndarray, p: int) -> np.ndarray:
    """bits[i, s] packs {id : chi(alpha_id + i) = (-1, +1)[s]} into uint64
    words, for every shift i in [0, p); chi is a field's char_table."""
    # adding a prime-field constant only rotates the lowest base-p digit:
    # shifts[i] reads digit (c + i) mod p where chi reads digit c
    c = np.arange(p)
    shifts = chi.reshape(-1, p)[:, (c[:, None] + c) % p].swapaxes(0, 1).reshape(p, -1)
    packed = np.packbits(np.stack([shifts == -1, shifts == 1], axis=1), axis=-1)
    return np.pad(packed, ((0, 0), (0, 0), (0, -packed.shape[-1] % 8))).view(np.uint64)


def _pattern_counts(
    bits: np.ndarray, depth: int, prefix: tuple[int, ...] = (), sets: np.ndarray | None = None
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (prefix, counts) for the empty prefix, (0,) and every
    increasing position tuple shorter than depth that starts (0, 1). Row r
    of counts extends the prefix by the r-th position after it; column c is
    the sign pattern whose bits, first position most significant, are 1
    for +1. sets holds the prefix's elements as one bitset per sign
    pattern, in the same order. These tuples meet every orbit of
    x -> cx + a (check_weil says why one per orbit is enough)."""
    if len(prefix) >= depth:
        return
    p, _, words = bits.shape
    start = prefix[-1] + 1 if prefix else 0
    if sets is None:
        sets = np.full((1, words), ~np.uint64(0))
    ext = (sets[None, :, None] & bits[start:, None]).reshape(p - start, -1, words)
    yield prefix, np.bitwise_count(ext).sum(axis=-1, dtype=np.int64)
    # () and (0,) extend only by their next position, to (0,) and (0, 1);
    # from there on every child. The last position has no later one.
    stop = start + 1 if len(prefix) < 2 else p - 1
    if len(prefix) + 1 < depth:
        for i, child in zip(range(start, stop), ext):
            yield from _pattern_counts(bits, depth, prefix + (i,), child)


def _scales_by_generator(fld: ExtField, chi: np.ndarray, c: int) -> bool:
    """chi(c x) = (-1)^k chi(x) at every x, for c the least generator of
    F_p^*: c multiplies every base-p digit of an id by c."""
    p, k = fld.p, fld.k
    scaled = _ids(p, fld.elements() * c % p)
    return bool((chi[scaled] == (-1) ** k * chi).all())


def check_weil(size_limit: int = 512, j_max: int = 3) -> CheckReport:
    """Pattern-count sweep over every field with p^k <= size_limit, each to
    depth min(max(j_max, guaranteed_j(p, k)), p).

    For every j up to the depth, every tuple of j distinct shift residues,
    and every sign pattern, the number N of field elements realizing the
    pattern must satisfy |N - p^k/2^j| <= ((j-2)/2 + 2^-j) p^{k/2} + j/2
    (decided in integers by _weil_limit), and the 2^j counts of one tuple
    must sum to p^k - j (each shift position knocks out exactly one
    element, whose character value is 0). On top of that, for every j up
    to guaranteed_j(p, k), the minimum N must strictly exceed the
    subfield-element count; that strict gap is what makes the certified j
    honest.

    Only one tuple per orbit of x -> cx + a (a in F_p, c in F_p^*) is
    counted, and that is exact. Translation permutes the field, so
    N(T + a, s) = N(T, s) for any table. If chi(c x) = (-1)^k chi(x) at
    every element, for c the least generator of F_p^*, then N(cT, s) is
    N(T, +-s) with its coordinates permuted; that identity is checked on
    the table once per field, and a field that breaks it fails. Permuting
    or negating every pattern changes none of the worst |2^j N - p^k|, the
    pattern sums and the minimum N. AGL(1, p) is 2-transitive, so every
    orbit of j >= 2 positions has a sorted tuple that starts (0, 1).

    The elements with chi(x + i) = s are packed into uint64 bitsets, one
    per shift i and sign s. A tuple prefix carries one bitset per sign
    pattern; extending it by every later position is one vectorized AND
    and the counts are popcounts, so only the prefixes are walked in
    Python and any depth works.
    """
    rep = CheckReport("weil")
    for p, k in small_fields(size_limit):
        n = p ** k
        gj = guaranteed_j(p, k)
        subfield = count_subfield_elements(p, k)
        fld = ExtField(p, k)
        chi = fld.char_table()
        if k == 1:  # small_fields yields (p, 1) first; c serves every field of p
            c = int(fld.power_ids()[1])
        rep.checked += 1
        if not _scales_by_generator(fld, chi, c):
            rep.record(f"({p},{k}): chi(c x) != (-1)^k chi(x) for the least generator c of F_{p}^*")
        for prefix, cnt in _pattern_counts(_sign_bitsets(chi, p), min(max(j_max, gj), p)):
            j = len(prefix) + 1
            rep.checked += cnt.size
            worst, limit = int(np.abs((cnt << j) - n).max()), _weil_limit(j, n)
            if worst > limit:
                rep.record(f"({p},{k}) j={j} after {prefix}: |2^j N - p^k| = {worst} > {limit}")
            sums = cnt.sum(axis=-1)
            if (sums != n - j).any():
                rep.record(f"({p},{k}) j={j} after {prefix}: counts sum to {sums} != {n - j}")
            if j <= gj and cnt.min() <= subfield:
                rep.record(
                    f"({p},{k}) j={j} after {prefix}: min count {cnt.min()} <= "
                    f"subfield count {subfield}"
                )
        rep.checked += gj  # one minimum-versus-subfield check per certified j
    return rep


def check_gauss() -> CheckReport:
    """Counting identities for irreducible polynomials.

    (a) sum_{d|n} d * I_q(d) = q^n exactly (every monic polynomial factors
    uniquely into monic irreducibles); (b) the closed-form count matches the
    number of irreducibles the enumeration sieve flags over F_p, on every
    field of size <= 2^14; (c) the subfield-element count matches brute
    Frobenius fixed-point counting, alpha^(p^t) = alpha for some proper
    divisor t, over each field's whole element array, up to size 2^10:
    alpha^(p^t) is alpha times F^t, for F norm's Frobenius matrix.
    """
    rep = CheckReport("gauss")
    for q in _GAUSS_IDENTITY_QS:
        for m in range(1, _GAUSS_IDENTITY_N_MAX + 1):
            rep.checked += 1
            total = sum(d * count_irreducibles(q, d) for d in divisors(m))
            if total != q ** m:
                rep.record(f"identity failed at q={q}, n={m}: {total} != {q ** m}")
    for p, m in small_fields(_GAUSS_ENUM_LIMIT):
        rep.checked += 1
        found = np.count_nonzero(_irreducible_mask(p, m))
        expected = count_irreducibles(p, m)
        if found != expected:
            rep.record(f"sieve over F_{p} degree {m}: {found} != {expected}")
    for p, m in small_fields(_GAUSS_SUBFIELD_LIMIT):
        rep.checked += 1
        if m == 1:
            if count_subfield_elements(p, 1) != 0:
                rep.record(f"subfield count must vanish at n=1, p={p}")
            continue
        fld = ExtField(p, m)
        frob = _frobenius(fld)
        proper = [t for t in divisors(m) if t < m]
        a = fld.elements()
        conj, fixed = a, np.zeros(fld.size, dtype=bool)
        for t in range(1, proper[-1] + 1):
            conj = conj @ frob % p  # alpha^(p^t)
            if t in proper:
                fixed |= (conj == a).all(axis=1)
        brute = np.count_nonzero(fixed)
        expected = count_subfield_elements(p, m)
        if brute != expected:
            rep.record(f"subfield count over F_{p}^{m}: brute {brute} != {expected}")
    return rep


def check_corollary1() -> CheckReport:
    """Compatibility of the extension-field quadratic character with the
    Legendre symbol of the norm.

    Prime fields: the Legendre symbol, the table of squares mod p read once
    per p at every residue, must match Euler's criterion a^((p-1)/2), which
    quad_char takes over the whole residue array of F_p at once. Extension
    fields: at every element the character table (read off the generator's
    power table) must equal both quad_char (Euler's criterion in the field)
    and the Legendre symbol of norm (the product of the Frobenius
    conjugates), read from the same tables; neither of those two routes
    touches the generator or the power table.
    """
    rep = CheckReport("corollary1")
    legendre = {}
    for p in primes_up_to(_COROLLARY1_PRIME_LIMIT, 3):
        legendre[p] = legendre_symbol(np.arange(p), p)
        rep.checked += p
        euler = quad_char(ExtField(p, 1), np.arange(p)[:, None])
        for a in np.flatnonzero(legendre[p] != euler):
            rep.record(f"Legendre({a},{p}) disagrees with Euler criterion")
    for p, k in small_fields(_COROLLARY1_EXT_LIMIT):
        if k == 1:
            continue
        fld = ExtField(p, k)
        chi, a = fld.char_table(), fld.elements()
        bad = (quad_char(fld, a) != chi) | (legendre[p][norm(fld, a)] != chi)
        rep.checked += fld.size
        for ident in np.flatnonzero(bad):
            rep.record(f"({p},{k}): chi, quad_char and Legendre(norm) disagree at id {ident}")
    return rep


DEFAULT_SANDWICH_CELLS: tuple[tuple[int, int], ...] = (
    (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
    (3, 2), (5, 2), (7, 2), (11, 2), (13, 2),
)


def check_sandwich() -> CheckReport:
    """Certified j <= exact oracle gamma <= log2(family size) on every
    cell of DEFAULT_SANDWICH_CELLS.

    Also enforces the trivial bound 2^gamma <= |family| as exact integers
    and, wherever the older bound is positive, gamma >= that bound too.
    """
    rep = CheckReport("sandwich")
    for p, k in DEFAULT_SANDWICH_CELLS:
        fam = build_family(p, k)
        res = family_complexity(fam)
        gj = guaranteed_j(p, k)
        ub = upper_bound(p, k)
        gy, _ = gyarmati_bound(p, k)
        rep.checked += 1
        if not gj <= res.gamma:
            rep.record(f"({p},{k}): guaranteed_j {gj} > oracle gamma {res.gamma}")
        if not 2 ** res.gamma <= len(fam):
            rep.record(f"({p},{k}): 2^{res.gamma} exceeds family size {len(fam)}")
        if not res.gamma <= ub + 1e-12:
            rep.record(f"({p},{k}): gamma {res.gamma} above upper bound {ub}")
        if gy > 0.0 and not res.gamma >= gy:
            rep.record(f"({p},{k}): gamma {res.gamma} below positive bound {gy}")
    return rep


SUITES = {
    "weil": check_weil,
    "gauss": check_gauss,
    "corollary1": check_corollary1,
    "sandwich": check_sandwich,
}


def run_suite(name: str):
    """Run one named verification suite with default limits, and time it."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    t0 = time.perf_counter_ns()
    rep = suite()
    rep.elapsed_ns = time.perf_counter_ns() - t0
    return rep
