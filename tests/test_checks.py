import itertools
from decimal import Decimal, localcontext

import numpy as np
import pytest

from legfam import checks
from legfam.bounds import guaranteed_j
from legfam.checks import (
    CheckReport,
    _pattern_counts,
    _sign_bitsets,
    _weil_limit,
    check_corollary1,
    check_gauss,
    check_sandwich,
    check_weil,
    run_suite,
    small_fields,
)
from legfam.gf import ExtField, pattern_count
from oracles import weil_sweep_size


def test_small_fields_enumeration():
    cells = small_fields(169)
    assert (3, 1) in cells
    assert (13, 2) in cells
    assert (2, 1) not in cells  # characteristic 2 excluded
    assert all(p ** k <= 169 for p, k in cells)
    assert (13, 1) in cells and (167, 1) in cells


def test_check_report_ok_property():
    rep = CheckReport("demo")
    assert rep.ok and rep.checked == 0
    rep.record("boom")
    assert not rep.ok
    assert rep.failures == ["boom"]


def test_check_report_caps_recorded_failures():
    rep = CheckReport("demo")
    for i in range(50):
        rep.record(f"fail {i}")
    assert len(rep.failures) == 20
    assert rep.skipped == 30


def test_check_gauss_defaults_pass():
    rep = check_gauss()
    assert rep.ok, rep.failures[:3]
    assert rep.checked > 100


def test_check_corollary1_defaults_pass():
    rep = check_corollary1()
    assert rep.ok, rep.failures[:3]
    # every residue of every odd prime <= 1024, every element of every
    # extension field of size <= 2^12
    assert rep.checked == 80_187 + 33_887 == 114_074


def test_check_sandwich_defaults_pass():
    rep = check_sandwich()
    assert rep.ok, rep.failures[:3]
    assert rep.checked == 10


def test_check_weil_small_limit_passes():
    rep = check_weil(size_limit=49, j_max=3)
    assert rep.ok, rep.failures[:3]
    # a sweep that skips tuples must not pass on a smaller count
    assert rep.checked == weil_sweep_size(49, 3, guaranteed_j) == 493_933


def test_check_weil_deep_j_passes():
    rep = check_weil(size_limit=49, j_max=4)
    assert rep.ok, rep.failures[:3]
    assert rep.checked == weil_sweep_size(49, 4, guaranteed_j) == 9_142_605


def test_weil_limit_is_the_slack_decided_exactly():
    # |N - n/2^j| <= ((j-2)/2 + 2^-j) sqrt(n) + j/2, in decimal arithmetic
    # precise enough that every tie (n a perfect square) is exact
    with localcontext() as ctx:
        ctx.prec = 60
        for n in sorted({p ** k for p, k in small_fields(169)}):
            root = Decimal(n).sqrt()
            for j in range(1, 6):
                slack = (Decimal(j - 2) / 2 + Decimal(2) ** -j) * root + Decimal(j) / 2
                for count in range(n + 1):
                    inside = abs(count - Decimal(n) / 2 ** j) <= slack
                    assert inside == (abs((count << j) - n) <= _weil_limit(j, n)), (j, n, count)
    # every j = 1 count, (n - 1)/2, sits exactly on the bound
    assert all(_weil_limit(1, n) == 1 for n in (3, 9, 27, 169))


def test_check_weil_counts_cross_checked_against_pattern_count():
    # every count the sweep makes for j <= 3 equals the direct counter
    for p, k in ((7, 2), (3, 3)):
        F = ExtField(p, k)
        seen = set()
        for prefix, counts in _pattern_counts(_sign_bitsets(F.char_table(), p), 3):
            start = prefix[-1] + 1 if prefix else 0
            for last, row in zip(range(start, p), counts):
                pos = prefix + (last,)
                j = len(pos)
                for pattern, count in enumerate(row):
                    signs = [1 if pattern >> (j - 1 - t) & 1 else -1 for t in range(j)]
                    assert count == pattern_count(F, pos, signs), (p, k, pos, signs)
                seen.add(pos)
        assert seen == {c for j in (1, 2, 3) for c in itertools.combinations(range(p), j)}


def test_check_weil_catches_one_flipped_character_value(monkeypatch):
    table = ExtField.char_table

    def flipped(self, *args, **kwargs):
        chi = table(self, *args, **kwargs).copy()
        if (self.p, self.k) == (7, 2):
            chi[1] = -chi[1]
        return chi

    monkeypatch.setattr(ExtField, "char_table", flipped)
    rep = check_weil(size_limit=49, j_max=3)
    assert not rep.ok
    assert all(f.startswith("(7,2)") for f in rep.failures)


def test_check_corollary1_catches_one_flipped_character_value(monkeypatch):
    table = ExtField.char_table

    def flipped(self):
        chi = table(self)
        if (self.p, self.k) == (3, 2):
            chi[1] = -chi[1]
        return chi

    monkeypatch.setattr(ExtField, "char_table", flipped)
    rep = check_corollary1()
    assert not rep.ok
    assert all(f.startswith("(3,2)") for f in rep.failures)


def test_check_corollary1_catches_every_element_of_a_digit_swapped_table(monkeypatch):
    # the power table with each id's k base-p digits reversed: still a
    # permutation of the nonzero ids, so only the comparison with the
    # independent routes can tell, and it must tell at every element
    walk = ExtField.power_ids

    def swap_digits(p, k, ids):
        digits = ids[:, None] // p ** np.arange(k) % p
        return digits[:, ::-1] @ p ** np.arange(k)

    def table(n, powers):
        chi = np.zeros(n, dtype=np.int8)
        chi[powers[0::2]], chi[powers[1::2]] = 1, -1
        return chi

    changed = 0
    for p, k in small_fields(checks._COROLLARY1_EXT_LIMIT):
        if k >= 2:
            powers = walk(ExtField(p, k))
            changed += np.count_nonzero(
                table(p ** k, powers) != table(p ** k, swap_digits(p, k, powers))
            )
    monkeypatch.setattr(
        ExtField, "power_ids", lambda self: swap_digits(self.p, self.k, walk(self))
    )
    rep = check_corollary1()
    assert not rep.ok
    assert changed > 0 and len(rep.failures) + rep.skipped == changed


def test_check_gauss_catches_a_wrong_subfield_count(monkeypatch):
    # only part (c) reads count_subfield_elements
    count = checks.count_subfield_elements
    monkeypatch.setattr(
        checks, "count_subfield_elements", lambda p, n: count(p, n) + ((p, n) == (3, 4))
    )
    rep = check_gauss()
    assert rep.checked == 2207
    assert len(rep.failures) == 1 and rep.skipped == 0
    assert "F_3^4" in rep.failures[0]


def test_check_gauss_catches_one_wrong_count(monkeypatch):
    # 11 is not one of the identity q's, so only the sieve count sees it
    count = checks.count_irreducibles
    monkeypatch.setattr(
        checks, "count_irreducibles", lambda q, n: count(q, n) + ((q, n) == (11, 2))
    )
    rep = check_gauss()
    assert rep.checked == 2207
    assert len(rep.failures) == 1 and rep.skipped == 0
    assert "F_11 degree 2" in rep.failures[0]


def test_run_suite_names():
    rep = run_suite("sandwich")
    assert rep.name == "sandwich"
    with pytest.raises(ValueError):
        run_suite("nope")
