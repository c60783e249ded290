"""Principal-branch Lambert W.

Two loops, each over the math or cmath functions passed in, serve all
three solvers: _halley solves w * exp(w) = x, and _newton_log the
equivalent w + ln(w) = L, the form the bound computations need once the
argument itself would overflow a float (arguments of size 2^(p^k/2)
appear for modest p and k). w0_real, w0_from_log and w0_complex each pick
a start, a route and a residual gate. The route thresholds live here
alone: w0_from_log hands L < 1 to w0_real(e^L), and past _HALLEY_MAX =
float_info.max / 8 in |x| both w0_real and w0_complex solve in the log
domain.

Non-convergence raises ConvergenceError rather than returning a value
with an unknown error.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

__all__ = ["WResult", "ConvergenceError", "w0_real", "w0_from_log", "w0_complex"]

_INV_E = math.exp(-1.0)
_MAX_ITER = 80
# Residual acceptance thresholds, relative to max(1, |argument|).
_REAL_RESIDUAL = 1e-12
_COMPLEX_RESIDUAL = 1e-10
_LOG_RESIDUAL = 1e-13
# past this, the first Halley step's (w + 2) f (near 6.6 x) can overflow
_HALLEY_MAX = sys.float_info.max / 8


class ConvergenceError(ArithmeticError):
    """The iteration exhausted its budget without meeting the residual bound."""


@dataclass(frozen=True)
class WResult:
    """Value of W plus the evidence it is right."""

    value: float | complex
    residual: float
    iterations: int


def _halley(x, w, exp):
    # Halley's method on f(w) = w e^w - x (real or complex, by exp); cubic
    # convergence near the root. Returns (w, steps taken)
    for it in range(1, _MAX_ITER + 1):
        ew = exp(w)
        f = w * ew - x
        if f == 0:
            return w, it
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        # keep exp(w) from raising: no root below _HALLEY_MAX lies past 709,
        # and an iterate sent there ends in inf or NaN, which the caller's
        # residual gate refuses. w - w.real is the imaginary part (0.0 if real)
        if w.real > 709.0:
            w = 709.0 + (w - w.real)
        if abs(step) <= 1e-16 * (2.0 + abs(w)):
            return w, it
    return w, _MAX_ITER


def _newton_log(log_x, w, log):
    # Newton's method on w + log(w) = log_x (real or complex, by log). Past
    # |w| = 2 the step tolerance is below one ulp; when the steps bounce
    # between two adjacent values, stop on the one step _MAX_ITER would hold
    prev = prev2 = math.nan
    for it in range(1, _MAX_ITER + 1):
        step = (w + log(w) - log_x) * w / (w + 1.0)
        prev2, prev, w = prev, w, w - step
        if abs(step) <= 1e-16 * (2.0 + abs(w)):
            return w, it
        if w == prev2:  # a 2-cycle: step _MAX_ITER would end on w or on prev
            return (prev if (_MAX_ITER - it) % 2 else w), it
    return w, _MAX_ITER


def _initial_real(x: float) -> float:
    if x < -0.25:
        # series around the branch point x = -1/e
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    if x < 0.3:
        return x * (1.0 - x + 1.5 * x * x)
    if x <= math.e:
        return math.log1p(x)
    l1 = math.log(x)
    return l1 - math.log(l1)


def w0_real(x: float) -> WResult:
    """W on the principal branch for real x >= -1/e.

    The residual |w e^w - x| is checked against 1e-12 * max(1, |x|) before
    returning; x below the branch point is a domain error. Past
    float_info.max / 8 (about 2.2e307) the root is found in the log
    domain, by w0_from_log(ln x) (which sends ln x < 1 back here), and the
    residual is its |w + ln w - ln x|.
    """
    if not math.isfinite(x):
        raise ValueError(f"w0_real needs a finite argument, got {x}")
    if x < -_INV_E:
        raise ValueError(f"w0_real domain is x >= -1/e = {-_INV_E}, got {x}")
    if x == -_INV_E:
        return WResult(-1.0, abs(-math.exp(-1.0) - x), 0)
    if x == 0.0:
        return WResult(0.0, 0.0, 0)
    if x > _HALLEY_MAX:
        return w0_from_log(math.log(x))
    w, iterations = _halley(x, _initial_real(x), math.exp)
    residual = abs(w * math.exp(w) - x)
    if not residual <= _REAL_RESIDUAL * max(1.0, abs(x)):  # a NaN fails too
        raise ConvergenceError(
            f"w0_real({x!r}) stalled at w={w!r} with residual {residual:.3e}"
        )
    return WResult(w, residual, iterations)


def w0_from_log(log_x: float) -> WResult:
    """W(x) given only ln(x) = log_x, for any finite log_x.

    Below log_x = 1 the argument e^log_x < e is a plain float, and the
    result is w0_real(math.exp(log_x)), its WResult unchanged. From 1 on
    (where the root is >= 1 and the equation is smooth) it solves
    w + ln(w) = log_x for w > 0: Newton from the asymptotic start
    converges in a handful of steps.
    """
    if not math.isfinite(log_x):
        raise ValueError(f"w0_from_log needs a finite argument, got {log_x}")
    if log_x < 1.0:
        return w0_real(math.exp(log_x))
    w = log_x - math.log(log_x)
    if w < 1.0:  # L - ln L >= 1, but its rounding may not be
        w = 1.0
    w, iterations = _newton_log(log_x, w, math.log)
    residual = abs(w + math.log(w) - log_x)
    if not residual <= _LOG_RESIDUAL * max(1.0, abs(log_x)):
        raise ConvergenceError(
            f"w0_from_log({log_x!r}) stalled at w={w!r} with residual {residual:.3e}"
        )
    return WResult(w, residual, iterations)


def _initial_complex(z: complex) -> complex:
    # z is in the closed upper half-plane here (w0_complex folds first)
    if abs(z + _INV_E) < 0.35:
        # branch-point series; principal sqrt puts real-axis arguments on the
        # upper side of the cut, matching the approach-from-above convention
        p = cmath.sqrt(2.0 * (math.e * z + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    if abs(z) < 0.65:
        w = z * (1.0 - z + 1.5 * z * z)
    elif abs(z - 1.0) < 1.3:
        # W(1) plus first-order correction, W'(1) = omega / (1 + omega);
        # 1.3 stays inside the disc of analyticity (radius 1 + 1/e)
        w = 0.5671432904097838 + 0.3618962566348892 * (z - 1.0)
    else:
        l1 = cmath.log(z)
        l2 = cmath.log(l1)
        w = l1 - l2 + l2 / l1
    # the principal value over the upper half-plane has Im in [0, pi)
    if w.imag < 0.0:
        w = w.conjugate()
    if w.imag >= math.pi:
        w = complex(w.real, math.pi - 0.05)
    return w


def _principal_range_ok(w: complex) -> bool:
    # image of the principal branch over the closed upper half-plane:
    # 0 <= Im w < pi, to the right of the curve -t*cot(t) + i*t
    t = w.imag
    if t < -1e-9 or t >= math.pi:
        return False
    if t <= 0.0:
        return w.real >= -1.0 - 1e-9
    return w.real >= -t / math.tan(t) - 1e-9


def w0_complex(z: complex) -> WResult:
    """W on the principal branch for complex z (z = -1/e excluded).

    On the cut (real z < -1/e) the value returned is the limit from the
    upper half-plane. Residual bound: 1e-10 * max(1, |z|). Past
    float_info.max / 8 in |z| (about 2.2e307) the root solves w + log w =
    log z instead, with 1e-13 * max(1, |log z|) bounding |w + log w - log z|.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"w0_complex needs finite components, got {z}")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # -0j counts as the upper side of the cut
    if z == complex(-_INV_E, 0.0):
        raise ValueError("w0_complex excludes the branch point z = -1/e")
    if z == 0:
        return WResult(0j, 0.0, 0)
    # solve in the upper half-plane only; W0(conj z) = conj(W0(z))
    flip = z.imag < 0.0
    if flip:
        z = z.conjugate()
    if math.hypot(z.real, z.imag) > _HALLEY_MAX:  # abs(z) itself may overflow
        log_z = cmath.log(z)
        w, iterations = _newton_log(log_z, log_z - cmath.log(log_z), cmath.log)
        residual = abs(w + cmath.log(w) - log_z)
        bound = _LOG_RESIDUAL * max(1.0, abs(log_z))
    else:
        w, iterations = _halley(z, _initial_complex(z), cmath.exp)
        residual = abs(w * cmath.exp(w) - z)
        bound = _COMPLEX_RESIDUAL * max(1.0, abs(z))
    # a wrong-branch root passes the residual test, so range-check too
    if not residual <= bound or not _principal_range_ok(w):
        raise ConvergenceError(
            f"w0_complex({z!r}) stalled at w={w!r} with residual {residual:.3e}"
        )
    return WResult(w.conjugate() if flip else w, residual, iterations)
