import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfam import bounds, ntheory
from legfam.bounds import (
    compute_A_B,
    crossover_prime,
    guaranteed_j,
    gyarmati_bound,
    make_report,
    theorem1_bound,
    upper_bound,
)
from legfam.errors import BudgetExceededError
from legfam.ntheory import (
    count_irreducibles,
    count_subfield_elements,
    log2_of_big,
    primes_up_to,
)
from oracles import lemma4_bisection_root, lemma4_closed_form, w_bisect


def test_compute_A_B_known_cells():
    log2_a, b = compute_A_B(7, 2)
    assert log2_a == pytest.approx(3.3923174227787603, abs=1e-12)
    assert b == 0.0  # |G_{7,2}| = 7 = sqrt(49): exact cancellation
    log2_a, b = compute_A_B(3, 2)
    assert b == 0.0
    log2_a, b = compute_A_B(3, 1)
    assert log2_a == pytest.approx(-0.10748737659241361, abs=1e-12)
    assert b == pytest.approx(-1.2679491924311227, abs=1e-12)


def test_compute_A_B_against_direct_formula_small():
    # materialize A = (2 sqrt(p^k) - 2) / (1 + p^(-k/2)) and
    # B = (2 |G| p^(-k/2) - 2) / (1 + p^(-k/2)) directly, overflow be damned
    for p in (3, 5, 7, 11, 13):
        for k in (1, 2, 3, 4):
            log2_a, b = compute_A_B(p, k)
            root = p ** (k / 2.0)
            g = count_subfield_elements(p, k)
            want_a = math.log2((2.0 * root - 2.0) / (1.0 + 1.0 / root))
            want_b = (2.0 * g / root - 2.0) / (1.0 + 1.0 / root)
            assert log2_a == pytest.approx(want_a, abs=1e-10), (p, k)
            assert b == pytest.approx(want_b, abs=1e-10), (p, k)


def test_compute_A_B_equals_the_exact_subfield_formula():
    # (A, B) with B from log2_of_big of the exact |G|: compute_A_B must give
    # the same float bits, also on the wide-k cells where it reads log2|G|
    # off a bracket
    def exact_a_b(p, k):
        half_log2 = 0.5 * k * math.log2(p)
        inv = 2.0 ** (-half_log2)
        ln2 = math.log(2.0)
        log2_a = 1.0 + half_log2 + math.log1p(-inv) / ln2 - math.log1p(inv) / ln2
        g = count_subfield_elements(p, k)
        r = 0.0 if g == 0 else 2.0 ** (log2_of_big(g) - half_log2)
        return log2_a, (2.0 * r - 2.0) / (1.0 + inv)

    cells = [(2128240847, k) for k in (1, 2, 6, 99, 100, 210, 999, 1024, 1999, 2000)]
    cells += [(p, k) for p in (3, 13, 2110510001) for k in (1, 2, 6, 10, 210, 300)]
    cells += [(p, k) for p in (3, 7919) for k in (1, 2, 6, 10)]
    for p, k in cells:
        assert compute_A_B(p, k) == exact_a_b(p, k), (p, k)


def test_compute_A_B_no_overflow_large_cells():
    for p, k in ((2128240847, 50), (10000019, 200), (101, 2000)):
        log2_a, b = compute_A_B(p, k)
        assert math.isfinite(log2_a)
        assert math.isfinite(b)


def test_theorem1_bound_frozen_values():
    want = {
        (7, 2): 2.563160164447206,
        (3, 2): 1.514698356149832,
        (3, 1): 1.6845480854313046,
        (5, 2): 2.1568237074954835,
        (11, 2): 3.0951529038682732,
        (13, 2): 3.2891144568262855,
        (5, 1): 1.9986479932487878,
        (7, 1): 2.2009358595107974,
        (11, 1): 2.4661362794751151,
        (13, 1): 2.5622487504125714,
    }
    for (p, k), value in want.items():
        assert theorem1_bound(p, k) == pytest.approx(value, abs=1e-12), (p, k)


def test_guaranteed_j_frozen_values():
    want = {
        (3, 1): 1, (5, 1): 1, (7, 1): 2, (11, 1): 2, (13, 1): 2,
        (3, 2): 1, (5, 2): 1, (7, 2): 2, (11, 2): 2, (13, 2): 2,
    }
    for (p, k), j in want.items():
        assert guaranteed_j(p, k) == j, (p, k)


# (p, k, theorem1_bound, guaranteed_j) exactly as printed by repr, on every
# cell whose Lemma 4 W argument 2^B A ln2 is below e, so that W is solved
# from a materialized e^L rather than in the log domain: k = 1 for p = 3..73
# and (3, 2). From p = 41 on theorem1_bound's own argument is e or more
_SMALL_W_CELLS = [
    (3, 1, 1.6845480854313046, 1),
    (5, 1, 1.9986479932487877, 1),
    (7, 1, 2.200935859510797, 2),
    (11, 1, 2.4661362794751147, 2),
    (13, 1, 2.5622487504125715, 2),
    (17, 1, 2.7145260743489907, 2),
    (19, 1, 2.7769482672653174, 2),
    (23, 1, 2.883252127075575, 2),
    (29, 1, 3.010767727250161, 2),
    (31, 1, 3.047179000397855, 2),
    (37, 1, 3.143224386400361, 2),
    (41, 1, 3.198603550152436, 2),
    (43, 1, 3.224216680130454, 2),
    (47, 1, 3.2719196100702113, 3),
    (53, 1, 3.3360979081878672, 3),
    (59, 1, 3.3931553312059326, 3),
    (61, 1, 3.410849607211355, 3),
    (67, 1, 3.4605470694174736, 3),
    (71, 1, 3.4911940766613747, 3),
    (73, 1, 3.505857957434627, 3),
    (3, 2, 1.514698356149832, 1),
]


def test_small_w_argument_cells_are_pinned_exactly():
    assert [(p, k) for p, k, _, _ in _SMALL_W_CELLS] == [
        (p, 1) for p in primes_up_to(73, 3)] + [(3, 2)]
    for p, k, bound, j in _SMALL_W_CELLS:
        log2_a, b = compute_A_B(p, k)
        assert 2.0 ** (b + log2_a) * math.log(2.0) < math.e, (p, k)
        assert theorem1_bound(p, k) == bound, (p, k)
        assert guaranteed_j(p, k) == j, (p, k)
    # the next cell's root argument is past e
    log2_a, b = compute_A_B(79, 1)
    assert 2.0 ** (b + log2_a) * math.log(2.0) >= math.e


def test_guaranteed_j_is_clamped_and_integral():
    for p, k in ((3, 1), (3, 50), (101, 1), (2128240847, 3)):
        j = guaranteed_j(p, k)
        assert isinstance(j, int)
        assert 0 <= j <= p


def test_theorem1_bound_validates_inputs():
    with pytest.raises(ValueError):
        theorem1_bound(4, 2)
    with pytest.raises(ValueError):
        theorem1_bound(2, 2)
    with pytest.raises(ValueError):
        theorem1_bound(9, 2)
    with pytest.raises(ValueError):
        theorem1_bound(7, 0)


def test_lemma4_closed_form_examples():
    assert lemma4_closed_form(2.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert lemma4_closed_form(1.0, 3.0) == pytest.approx(0.5, abs=1e-12)
    assert lemma4_closed_form(10.5, 0.0) == pytest.approx(4.701766893970936, abs=1e-12)


def test_lemma4_closed_form_satisfies_equation():
    for a_val, b_val in ((2.0, 0.0), (10.5, 0.0), (1.0, 3.0), (500.0, -3.0), (7.3, 25.0)):
        x = lemma4_closed_form(a_val, b_val)
        assert b_val * x + x * math.log2(x) == pytest.approx(a_val, rel=1e-12)


def test_lemma4_bisection_matches_closed_form():
    rng = random.Random(20260814)
    for _ in range(500):
        a_val = rng.uniform(0.1, 1e6)
        b_val = rng.uniform(-5.0, 50.0)
        closed = lemma4_closed_form(a_val, b_val)
        bisected = lemma4_bisection_root(a_val, b_val)
        assert closed == pytest.approx(bisected, rel=1e-10), (a_val, b_val)


def test_lemma4_validates_A_positive():
    with pytest.raises(ValueError):
        lemma4_closed_form(0.0, 1.0)
    with pytest.raises(ValueError):
        lemma4_bisection_root(-2.0, 1.0)


def test_theorem1_matches_lambert_oracle_small_cells():
    # materialize the printed formula directly with the bisection W oracle
    for p, k in ((3, 1), (5, 1), (7, 2), (13, 2)):
        log2_a, b = compute_A_B(p, k)
        a_val = 2.0 ** log2_a
        w = w_bisect(2.0 ** b * a_val)
        want = math.log2(a_val) - math.log2(w)
        assert theorem1_bound(p, k) == pytest.approx(want, rel=1e-11), (p, k)


def test_gyarmati_bound_frozen_values():
    bound, c = gyarmati_bound(3, 1)
    assert bound == pytest.approx(-1.1887218755408671, abs=1e-12)
    assert c == 2.5
    bound, c = gyarmati_bound(7, 2)
    assert bound == pytest.approx(-0.70183873051440103, abs=1e-12)
    assert c == 2.5
    bound, c = gyarmati_bound(2128240847, 1)
    assert bound == pytest.approx(7.7467535699458548, abs=1e-12)
    assert c == 0.5
    bound, c = gyarmati_bound(10000019, 1)
    assert bound == pytest.approx(-17.440124553997133, abs=1e-12)
    assert c == 2.5


def test_gyarmati_c_threshold_uses_natural_log():
    # at p = 2128240847, k = 1: p^(1/4) = 214.8 vs 10*ln(p) = 214.6 passes,
    # while 10*log2(p) = 309.7 would fail; the frozen c = 1/2 pins ln
    _, c = gyarmati_bound(2128240847, 1)
    assert c == 0.5
    p = 2128240847
    assert p ** 0.25 >= 10 * math.log(p)
    assert p ** 0.25 < 10 * math.log2(p)


def test_gyarmati_bound_capped_at_p():
    # the bound never exceeds the sequence length
    bound, _ = gyarmati_bound(3, 1000)
    assert bound <= 3.0


def test_upper_bound_values():
    assert upper_bound(3, 2) == pytest.approx(math.log2(3), abs=1e-12)
    assert upper_bound(7, 2) == pytest.approx(math.log2(21), abs=1e-12)
    assert upper_bound(5, 2) == pytest.approx(math.log2(10), abs=1e-12)


def test_crossover_prime_small_k():
    assert crossover_prime(3) == 3
    assert crossover_prime(5) == 3
    assert crossover_prime(10) == 3
    assert crossover_prime(3, p_limit=3) == 3
    assert crossover_prime(3, p_limit=10 ** 400) == 3  # beyond float range


def test_crossover_prime_budget():
    # k = 2 crosses far beyond this limit
    with pytest.raises(BudgetExceededError):
        crossover_prime(2, p_limit=10 ** 6)
    with pytest.raises(BudgetExceededError):
        crossover_prime(2)
    with pytest.raises(BudgetExceededError):
        crossover_prime(1, p_limit=2)
    # the limit is inclusive: one below the k = 1 answer admits no prime
    assert crossover_prime(1, p_limit=2128240847) == 2128240847
    with pytest.raises(BudgetExceededError):
        crossover_prime(1, p_limit=2128240846)


def test_crossover_result_properties_k3():
    p = crossover_prime(3)
    assert gyarmati_bound(p, 3)[0] > 0.0


def test_log_domain_stability_against_naive_evaluation():
    # where A is still materializable, the log-domain route must agree
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (11, 2), (31, 2)):
        log2_a, b = compute_A_B(p, k)
        a_val = 2.0 ** log2_a
        naive = math.log2(a_val) - math.log2(w_bisect(2.0 ** b * a_val))
        assert theorem1_bound(p, k) == pytest.approx(naive, rel=1e-9)


def test_make_report_fields_consistent():
    # make_report evaluates (A, B) once and hands the pair on; every field
    # must equal the standalone function, which evaluates it for itself
    cells = [(2128240847, k) for k in range(1, 2001)]
    cells += [(p, k) for p in primes_up_to(8000)[1:] for k in (1, 2, 6, 10)]
    for p, k in cells:
        rep = make_report(p, k)
        assert (rep.p, rep.k) == (p, k)
        assert (rep.a_log2, rep.b) == compute_A_B(p, k), (p, k)
        assert rep.new_bound == theorem1_bound(p, k), (p, k)
        assert rep.guaranteed_j == guaranteed_j(p, k), (p, k)
        assert (rep.gyarmati_bound, rep.gyarmati_c) == gyarmati_bound(p, k), (p, k)
        assert rep.upper_bound == upper_bound(p, k), (p, k)
        assert rep.t_new_ns >= 0
        assert rep.t_gyarmati_ns >= 0
    # a pair handed in does not stand in for the cell gate
    a_b = compute_A_B(7, 2)
    for fn in (theorem1_bound, guaranteed_j):
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            fn(9, 2, a_b=a_b)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            fn(7, 0, a_b=a_b)


def test_make_report_evaluates_A_B_once_per_row(monkeypatch):
    # one compute_A_B per row. k is factored in full only on an exact count:
    # |G| under the cutoff (627 rows: k / r < 100, r the least prime of k,
    # and k > 1), and I_p(k) through count_irreducibles (k < 100, 99 rows).
    # A bracketed |G| finds only the least prime of k, and a bracketed
    # I_p(k) does not factor k at all
    calls = {"compute_A_B": 0, "_subfield_terms": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(bounds, "compute_A_B")
    count(ntheory, "_subfield_terms")
    for k in range(1, 2001):
        make_report(2128240847, k)
    assert calls == {"compute_A_B": 2000, "_subfield_terms": 726}


def test_guaranteed_j_never_exceeds_family_capacity():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for k in (1, 2, 3):
            assert guaranteed_j(p, k) <= upper_bound(p, k) + 1e-9, (p, k)


@given(
    st.floats(min_value=0.1, max_value=1e6),
    st.floats(min_value=-5.0, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_lemma4_root_property(a_val, b_val):
    x = lemma4_closed_form(a_val, b_val)
    assert x > 0
    assert b_val * x + x * math.log2(x) == pytest.approx(a_val, rel=1e-10, abs=1e-10)


def test_dominance_on_sample():
    for p in (101, 1009, 7919):
        for k in (1, 10):
            assert theorem1_bound(p, k) >= gyarmati_bound(p, k)[0] - 1e-9
            assert theorem1_bound(p, k) > 0.0
