"""Closed-form lower bounds on the family complexity of Legendre sequence
families, and the crossover search for where the older bound turns positive.

The driving quantity A = (2 p^{k/2} - 2)/(1 + p^{-k/2}) overflows floats
already for moderate p^k, so it is carried as the plain float log2(A)
(compute_A_B, BoundReport.a_log2) and the Lambert W evaluations switch to
the log-domain solver w0_from_log once the W argument itself cannot be
materialized.

Everything here is a pure function of (p, k); only the timing fields of
BoundReport depend on the machine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import BudgetExceededError
from .lambertw import w0_from_log, w0_real
from .ntheory import (
    PRIMALITY_LIMIT,
    _irreducible_log2,
    _require_cell,
    _require_degree,
    _subfield_log2,
    is_prime,
)

__all__ = [
    "BoundReport",
    "compute_A_B",
    "theorem1_bound",
    "guaranteed_j",
    "lemma4_closed_form",
    "gyarmati_bound",
    "upper_bound",
    "crossover_prime",
    "make_report",
]

_LN2 = math.log(2.0)
_LOG2_LN2 = math.log2(_LN2)


@dataclass(frozen=True)
class BoundReport:
    """Both bounds plus everything needed to reproduce them.

    This is the one row schema of the CLI: `bound --format json` and the
    text format print every field, in this order. The CSV columns of
    `bound --format csv`, `scan` and `bench` are every field but a_log2
    (log2 A) and b (B): p, k, new_bound, guaranteed_j, gyarmati_bound,
    gyarmati_c, upper_bound, t_new_ns, t_gyarmati_ns.

    t_new_ns times the row's one (A, B) evaluation plus the W solve of
    theorem1_bound; t_gyarmati_ns times gyarmati_bound. `bench` replaces
    both with medians of repeated full theorem1_bound(p, k) and
    gyarmati_bound(p, k) calls.
    """

    p: int
    k: int
    a_log2: float
    b: float
    new_bound: float
    guaranteed_j: int
    gyarmati_bound: float
    gyarmati_c: float
    upper_bound: float
    t_new_ns: int
    t_gyarmati_ns: int


def compute_A_B(p: int, k: int) -> tuple[float, float]:
    """The pair (A, B) driving the Lambert-W bound.

    A = (2 p^{k/2} - 2)/(1 + p^{-k/2}), returned as log2(A) without ever
    materializing p^{k/2}. B = (2 |G| p^{-k/2} - 2)/(1 + p^{-k/2}) where
    |G| counts the elements of F_{p^k} lying in proper subfields. B reads
    only log2|G|, and it must be the log2_of_big of the exact |G|: for even
    k the two leading terms of B cancel to relative size p^{-k/6}, so a
    float divisor sum would lose every significant digit. ntheory's
    _subfield_log2 gives that float bit for bit. Past a few thousand bits
    it brackets |G| between two integers times one power of two and reads
    the float off the bracket only when both ends share their bit length
    and top 64 bits, so |G| itself does too; otherwise, and for smaller
    |G|, it sums |G| exactly. At k = 1, where |G| = 0, it gives -inf, and
    B reads 2^-inf = 0.0 exactly.

    |G| is counted under the cell gate passed first (p proven prime once,
    cached per p), not through count_subfield_elements' own check of q.
    """
    _require_cell(p, k)
    half_log2 = 0.5 * k * math.log2(p)
    inv = 2.0 ** (-half_log2)  # p^{-k/2}; harmless underflow to 0 for huge p^k
    log2_a = 1.0 + half_log2 + math.log1p(-inv) / _LN2 - math.log1p(inv) / _LN2
    r = 2.0 ** (_subfield_log2(p, k) - half_log2)
    b = (2.0 * r - 2.0) / (1.0 + inv)
    return log2_a, b


def _w_of_pow2(log2_arg: float) -> float:
    # W(2^log2_arg) without materializing the argument when it is huge.
    ell = _LN2 * log2_arg
    if ell >= 1.0:
        return w0_from_log(ell).value
    return w0_real(2.0 ** log2_arg).value


def theorem1_bound(p: int, k: int, *, a_b: tuple[float, float] | None = None) -> float:
    """The Lambert-W lower bound on family complexity: log2(A / W(2^B A)).

    Evaluated as log2(A) - log2(W(...)) in the log domain, so it stays
    finite and accurate for p^{k/2} far beyond float range.

    a_b, when given, must be compute_A_B(p, k): a caller that already holds
    the pair passes it so (A, B) is not evaluated again. The cell gate runs
    either way.
    """
    _require_cell(p, k)
    log2_a, b = compute_A_B(p, k) if a_b is None else a_b
    return log2_a - math.log2(_w_of_pow2(b + log2_a))


def _root_log2(log2_a: float, b: float) -> float:
    # log2 of the root of B*x + x*log2(x) = A, via
    # x = A ln2 / W(2^B A ln2); see lemma4_closed_form.
    log2_arg = b + log2_a + _LOG2_LN2
    return log2_a + _LOG2_LN2 - math.log2(_w_of_pow2(log2_arg))


def guaranteed_j(p: int, k: int, *, a_b: tuple[float, float] | None = None) -> int:
    """The integer number of positions the bound's counting argument
    actually certifies: the largest j with B*2^j + j*2^j strictly below A,
    i.e. with 2^j strictly below the root of B*x + x*log2(x) = A.

    Clamped to [0, p]: a sign pattern has at most p distinct positions.
    When the root's log2 lands exactly on an integer the strict inequality
    excludes it (a 1e-9 snap guards the float boundary).

    a_b, when given, must be compute_A_B(p, k), as for theorem1_bound; the
    cell gate runs either way.
    """
    _require_cell(p, k)
    root_log2 = _root_log2(*(compute_A_B(p, k) if a_b is None else a_b))
    nearest = round(root_log2)
    if abs(root_log2 - nearest) < 1e-9:
        j = nearest - 1
    else:
        j = math.ceil(root_log2) - 1
    return max(0, min(p, j))


def _require_lemma4_inputs(A: float, B: float) -> None:
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"A must be positive and finite, got {A}")
    if not math.isfinite(B):
        raise ValueError(f"B must be finite, got {B}")


def lemma4_closed_form(A: float, B: float) -> float:
    """The unique positive root of B*x + x*log2(x) = A, for A > 0.

    Substituting u = 2^B * x turns the equation into u*log2(u) = 2^B * A,
    i.e. (ln u) e^(ln u) = 2^B * A * ln2, so ln u = W(2^B A ln2) and
    x = A ln2 / W(2^B A ln2). The ln2 factors matter: the equation is in
    log base 2 while W inverts the natural-log form.
    """
    _require_lemma4_inputs(A, B)
    return 2.0 ** _root_log2(math.log2(A), B)


def _gyarmati(n: int, k: int) -> tuple[float, float]:
    # gyarmati_bound without the primality gate, for any integer n >= 2
    c = 0.5 if k <= n ** 0.25 / (10.0 * math.log(n)) else 2.5
    return min(float(n), 0.5 * (k - c) * math.log2(n)), c


def gyarmati_bound(p: int, k: int) -> tuple[float, float]:
    """The older lower bound, as the pair (bound, c).

    c = 1/2 when k <= p^(1/4) / (10 ln p) and 5/2 otherwise (natural log
    in the threshold); bound = min(p, ((k - c)/2) * log2(p)), which is the
    base-independent form of (k - c)/(2 log 2) * log p. Negative for every
    small p at k = 1.
    """
    _require_cell(p, k)
    return _gyarmati(p, k)


def upper_bound(p: int, k: int) -> float:
    """log2 of the family size: gamma can never exceed this since realizing
    every pattern at j positions takes at least 2^j distinct members.

    The family has I_p(k) = (p^k - |G|)/k members, and this is
    log2_of_big(count_irreducibles(p, k)) bit for bit. Past 3,072 bits in
    p^k, ntheory's _irreducible_log2 reads it off an integer bracket of
    I_p(k) whose two ends share their bit length and top 64 bits, so p^k is
    never built; it counts I_p(k) exactly below that size or when the
    bracket is too wide.
    """
    _require_cell(p, k)
    return _irreducible_log2(p, k)


def crossover_prime(k: int, p_limit: int = 2 ** 32) -> int:
    """Smallest odd prime p <= p_limit whose gyarmati_bound is positive.

    The bound is positive exactly when k > c. For k >= 3 even c = 5/2
    passes and the answer is 3. For k = 1, 2 it takes c = 1/2, i.e.
    k <= f(n) = n^(1/4) / (10 ln n). f falls on [3, e^4], where it stays
    below 0.13 < k, and rises from e^4 on, so the predicate is false on
    [3, n*) and true from some n* on. Bisection over the odd n in
    [3, p_limit] on that same float predicate finds n* (near n*, f moves
    by a relative 5e-12 or more per step of 2, far above rounding), and a
    Miller-Rabin walk up from n* finds the first prime.
    """
    _require_degree(k)

    def positive(n: int) -> bool:
        return _gyarmati(n, k)[0] > 0.0

    # no prime can be certified from PRIMALITY_LIMIT on; capping there also
    # keeps n ** 0.25 inside float range for any p_limit
    limit = min(p_limit, PRIMALITY_LIMIT - 1)
    lo, hi = 1, limit - 1 + limit % 2  # odd; hi is the largest odd n <= limit
    if hi >= 3 and positive(hi):
        # invariant: the predicate fails at every odd n in [3, lo], holds at hi
        while hi - lo > 2:
            mid = (lo + hi) // 2 | 1
            if positive(mid):
                hi = mid
            else:
                lo = mid
        for n in range(hi, limit + 1, 2):
            if is_prime(n):
                return n
    raise BudgetExceededError(
        f"no odd prime at or below {p_limit} has a positive bound for k={k}"
    )


def make_report(p: int, k: int) -> BoundReport:
    """Evaluate both bounds at (p, k) with per-bound wall times in ns.

    compute_A_B runs first and rejects a bad (p, k) with ValueError. The
    row evaluates (A, B) once and hands the pair to theorem1_bound and
    guaranteed_j; t_new_ns covers that evaluation plus the W solve.
    """
    t0 = time.perf_counter_ns()
    a_b = compute_A_B(p, k)
    new_bound = theorem1_bound(p, k, a_b=a_b)
    t_new = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    gy, c = gyarmati_bound(p, k)
    t_gy = time.perf_counter_ns() - t0
    return BoundReport(
        p=p,
        k=k,
        a_log2=a_b[0],
        b=a_b[1],
        new_bound=new_bound,
        guaranteed_j=guaranteed_j(p, k, a_b=a_b),
        gyarmati_bound=gy,
        gyarmati_c=c,
        upper_bound=upper_bound(p, k),
        t_new_ns=t_new,
        t_gyarmati_ns=t_gy,
    )
