import cmath
import math
import random
import sys

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from legfam import bounds
from legfam.lambertw import ConvergenceError, w0_complex, w0_from_log, w0_real
from legfam.ntheory import primes_up_to
from oracles import w_bisect, w_from_log_bisect

_INV_E = math.exp(-1.0)


def test_w_real_fixed_points():
    assert w0_real(0.0).value == 0.0
    assert w0_real(math.e).value == 1.0
    assert w0_real(-_INV_E).value == -1.0
    assert w0_real(2.0 * math.exp(2.0)).value == pytest.approx(2.0, abs=1e-15)


def test_w_real_omega_constant():
    assert w0_real(1.0).value == 0.5671432904097838


def test_w_real_matches_bisection_oracle():
    for x in (-0.36, -0.25, -0.1, 0.01, 0.5, 1.0, 3.0, 10.5, 100.0, 1e6, 1e12):
        got = w0_real(x).value
        want = w_bisect(x)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14), x


def test_w_real_matches_mpmath():
    mpmath.mp.prec = 80
    # past ~2.2e307 the root is found in the log domain, since the Halley
    # step can overflow there (from 2.76e307 on it does)
    for x in (-0.367, -0.3, 0.2, 1.0, 7.0, 1e5, 1e50, 1e300, 2.76e307, 1e308, sys.float_info.max):
        want = float(mpmath.lambertw(x))
        assert w0_real(x).value == pytest.approx(want, rel=1e-13), x
    for x in (2.76e307, 1e308, sys.float_info.max):
        assert w0_real(x) == w0_from_log(math.log(x)), x  # the log-domain residual


def test_w_real_residual_reported_and_small():
    for x in (-0.36, 0.7, 42.0, 1e10, 1e200):
        res = w0_real(x)
        assert res.residual <= 1e-12 * max(1.0, abs(x))
        assert res.residual == abs(res.value * math.exp(res.value) - x)
        assert res.iterations <= 80


@given(st.floats(min_value=-_INV_E + 1e-9, max_value=1e300))
def test_w_real_identity_property(x):
    w = w0_real(x).value
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_w_real_domain_errors():
    with pytest.raises(ValueError):
        w0_real(-1.0)
    with pytest.raises(ValueError):
        w0_real(-_INV_E - 1e-12)
    with pytest.raises(ValueError):
        w0_real(math.inf)
    with pytest.raises(ValueError):
        w0_real(math.nan)


def test_w_from_log_unit():
    # w + ln w = 1 has the root w = 1
    assert w0_from_log(1.0).value == pytest.approx(1.0, abs=1e-15)


def test_w_from_log_thousand():
    got = w0_from_log(1000.0).value
    assert got == pytest.approx(993.0991694723891, abs=1e-9)
    assert got == pytest.approx(w_from_log_bisect(1000.0), rel=1e-13)


def test_w_from_log_agrees_with_materialized():
    for log_x in (1.0, 1.5, 2.0, 10.0, 50.0, 300.0, 700.0):
        direct = w0_real(math.exp(log_x)).value
        assert w0_from_log(log_x).value == pytest.approx(direct, rel=1e-11)


def test_w_from_log_huge_arguments():
    for log_x in (1e4, 1e8, 1e15):
        w = w0_from_log(log_x).value
        assert abs(w + math.log(w) - log_x) <= 1e-13 * log_x


def test_w_from_log_domain_errors():
    # below L = 1 the answer is W(e^L) from w0_real, WResult and all; only
    # a non-finite L is outside the domain
    for log_x in (0.99, -5.0, -1e3, 0.9999999999999999):
        res, want = w0_from_log(log_x), w0_real(math.exp(log_x))
        assert res == want and res.value.hex() == want.value.hex(), log_x
    for log_x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            w0_from_log(log_x)


def _w_from_log_old_loop(log_x):
    # w0_from_log's Newton loop as it was before it stopped on a 2-cycle:
    # (w, steps), running all 80 steps unless one meets the step tolerance
    w = log_x - math.log(log_x) if log_x > 1.0 else 1.0
    if w < 1.0:
        w = 1.0
    for it in range(1, 81):
        step = (w + math.log(w) - log_x) * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-16 * (2.0 + abs(w)):
            break
    return w, it


def test_w_from_log_stops_on_a_two_cycle_with_the_old_value(monkeypatch):
    # every W solve of make_report on the benchmark grids (k = 1..2000 at
    # the bounds-k primes, k = 1 and 10 at every odd prime below 8000), then
    # 10^5 random L: from L = 1 on the value is the old loop's bit for bit,
    # and no grid solve runs all 80 steps, though the old loop did on some.
    # The small cells' solves with L < 1 must be w0_real(e^L) exactly
    seen = []

    def recording(log_x):
        res = w0_from_log(log_x)
        seen.append((log_x, res))
        return res

    monkeypatch.setattr(bounds, "w0_from_log", recording)
    for p in (2128240847, 2110510001, 2111100881, 2082271531):
        for k in range(1, 2001):
            bounds.make_report(p, k)
    for p in primes_up_to(7999, 3):
        for k in (1, 10):
            bounds.make_report(p, k)
    old_full_runs = below_one = 0
    for log_x, res in seen:
        assert res.iterations < 80, log_x
        if log_x < 1.0:
            assert res == w0_real(math.exp(log_x)), log_x
            below_one += 1
            continue
        value, steps = _w_from_log_old_loop(log_x)
        assert res.value == value, log_x
        old_full_runs += steps == 80
    assert len(seen) > 16000 and old_full_runs > 50 and below_one == 31
    rng = random.Random(2026)
    for i in range(100_000):
        log_x = 10.0 ** rng.uniform(0.0, 308.0) if i % 2 else rng.uniform(1.0, 60.0)
        assert w0_from_log(log_x).value == _w_from_log_old_loop(log_x)[0], log_x


def test_w_complex_matches_real_axis():
    for x in (0.5, 1.0, 10.5, -0.2):
        zc = w0_complex(complex(x, 0.0)).value
        assert zc.imag == pytest.approx(0.0, abs=1e-12)
        assert zc.real == pytest.approx(w0_real(x).value, rel=1e-12)


def test_w_complex_zero():
    assert w0_complex(0j).value == 0j


def test_w_complex_known_value_below_branch_point():
    got = w0_complex(complex(-math.log(4.0) / 3.0, 0.0)).value
    want = complex(-0.847209710207865, 0.666789641075179)
    assert abs(got - want) < 1e-12


def test_w_complex_cut_is_upper_side_limit():
    on_cut = w0_complex(complex(-1.0, 0.0)).value
    above = w0_complex(complex(-1.0, 1e-14)).value
    negative_zero = w0_complex(complex(-1.0, -0.0)).value
    assert on_cut.imag > 0
    assert negative_zero == on_cut
    assert abs(on_cut - above) < 1e-9


def test_w_complex_conjugate_symmetry_off_axis():
    for z in (complex(0.3, 0.7), complex(-2.0, 0.5), complex(5.0, -3.0),
              complex(-0.4, 0.01), complex(100.0, 100.0)):
        w_plus = w0_complex(z).value
        w_minus = w0_complex(z.conjugate()).value
        assert abs(w_minus - w_plus.conjugate()) <= 1e-10 * max(1.0, abs(w_plus))


def test_w_complex_matches_mpmath_grid():
    mpmath.mp.prec = 80
    for re in (-3.0, -0.5, -0.36, 0.0, 0.4, 2.0, 25.0):
        for im in (-2.0, -0.3, 0.3, 2.0):
            z = complex(re, im)
            want = complex(mpmath.lambertw(mpmath.mpc(z)))
            got = w0_complex(z).value
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), z


def test_w_complex_residual_bound():
    for z in (complex(-0.5, 0.0), complex(0.1, -0.2), complex(-0.37, 0.001),
              complex(1e4, 1e4), complex(-0.3678, 0.0)):
        res = w0_complex(z)
        assert res.residual <= 1e-10 * max(1.0, abs(z)), z


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_w_complex_identity_property(re, im):
    z = complex(re, im)
    if abs(z + _INV_E) < 1e-9:
        return
    w = w0_complex(z).value
    assert abs(w * cmath.exp(w) - z) <= 1e-10 * max(1.0, abs(z))


def test_w_complex_domain_errors():
    with pytest.raises(ValueError):
        w0_complex(complex(-_INV_E, 0.0))
    with pytest.raises(ValueError):
        w0_complex(complex(math.inf, 0.0))
    with pytest.raises(ValueError):
        w0_complex(complex(0.0, math.nan))


def test_convergence_error_is_arithmetic_error():
    assert issubclass(ConvergenceError, ArithmeticError)
