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
from legfam.gf import ExtField
from legfam.ntheory import count_subfield_elements
from oracles import full_pattern_counts, pattern_count, weil_reduced_size, weil_sweep_size


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
    # a sweep that skips representatives must not pass on a smaller count
    assert rep.checked == weil_reduced_size(49, 3, guaranteed_j) == 4_507


def test_check_weil_deep_j_passes():
    rep = check_weil(size_limit=49, j_max=4)
    assert rep.ok, rep.failures[:3]
    assert rep.checked == weil_reduced_size(49, 4, guaranteed_j) == 76_043


def test_check_weil_defaults_pass():
    # every field up to 512 elements, each to its certified j: 4 from p = 353 on
    rep = run_suite("weil")
    assert rep.ok, rep.failures[:3]
    assert max(guaranteed_j(p, k) for p, k in small_fields(512)) == 4
    assert rep.checked == weil_reduced_size(512, 3, guaranteed_j) == 40_601_183
    assert rep.elapsed_ns > 0


def _per_j(walk, n: int) -> dict[int, tuple[int, int, bool, int]]:
    """{j: (worst |2^j N - n|, minimum N, every tuple sums to n - j,
    counts made)} over the (prefix, counts) of a weil walk."""
    stats: dict[int, tuple[int, int, bool, int]] = {}
    for prefix, cnt in walk:
        j = len(prefix) + 1
        worst, low, sums_ok, made = stats.get(j, (0, n, True, 0))
        stats[j] = (
            max(worst, int(np.abs((cnt << j) - n).max())),
            min(low, int(cnt.min())),
            sums_ok and bool((cnt.sum(axis=-1) == n - j).all()),
            made + cnt.size,
        )
    return stats


@pytest.mark.parametrize(
    "size_limit, j_max, full_count",
    [(49, 3, 493_933), (49, 4, 9_142_605), (169, 3, 52_636_254)],
)
def test_reduced_weil_sweep_matches_the_full_reference(size_limit, j_max, full_count):
    # the orbit representatives give every (field, j) the worst deviation,
    # the minimum and the sum verdict of every tuple, so the same verdict
    verdict, made = True, 0
    for p, k in small_fields(size_limit):
        n, gj = p ** k, guaranteed_j(p, k)
        assert gj <= j_max  # so check_weil sweeps to the same depth
        bits = _sign_bitsets(ExtField(p, k).char_table(), p)
        want = _per_j(full_pattern_counts(bits, min(j_max, p)), n)
        got = _per_j(_pattern_counts(bits, min(j_max, p)), n)
        assert {j: s[:3] for j, s in got.items()} == {j: s[:3] for j, s in want.items()}, (p, k)
        for j, (worst, low, sums_ok, _) in want.items():
            passes = worst <= _weil_limit(j, n) and sums_ok
            verdict &= passes and (j > gj or low > count_subfield_elements(p, k))
        made += sum(s[3] for s in want.values()) + gj
    assert made == weil_sweep_size(size_limit, j_max, guaranteed_j) == full_count
    assert check_weil(size_limit, j_max).ok == verdict


def test_sign_bitsets_gather_equals_one_roll_per_shift():
    # the one gather over digit (c + i) mod p gives the bitsets that p
    # separate rotations of the lowest digit gave
    for p, k in small_fields(169):
        chi = ExtField(p, k).char_table()
        mat = chi.reshape(-1, p)
        shifts = np.stack([np.roll(mat, -i, axis=1).reshape(-1) for i in range(p)])
        packed = np.packbits(np.stack([shifts == -1, shifts == 1], axis=1), axis=-1)
        rolled = np.pad(packed, ((0, 0), (0, 0), (0, -packed.shape[-1] % 8))).view(np.uint64)
        assert np.array_equal(_sign_bitsets(chi, p), rolled), (p, k)


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
    # every count the sweep makes for j <= 3 equals the direct counter, and
    # the sweep counts every single position, the pairs (0, i) and the
    # triples (0, 1, i)
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
        assert seen == (
            {(i,) for i in range(p)}
            | {(0, i) for i in range(1, p)}
            | {(0, 1, i) for i in range(2, p)}
        )


def _patched_char_table(monkeypatch, cell, mutate):
    table = ExtField.char_table

    def patched(self):
        chi = table(self).copy()
        if (self.p, self.k) == cell:
            mutate(chi)
        return chi

    monkeypatch.setattr(ExtField, "char_table", patched)


def test_check_weil_catches_one_flipped_character_value(monkeypatch):
    def flip_one(chi):
        chi[1] = -chi[1]

    _patched_char_table(monkeypatch, (7, 2), flip_one)
    rep = check_weil(size_limit=49, j_max=3)
    assert not rep.ok
    assert all(f.startswith("(7,2)") for f in rep.failures)


def test_check_weil_catches_a_table_that_breaks_only_the_scaling(monkeypatch):
    # chi negated on the ids 7..13, whose top base-7 digit is 1: a set that
    # x -> x + a maps to itself, so every translate of a tuple still counts
    # alike, but x -> 3x (3 generates F_7^*) moves it to top digit 3
    def negate_top_digit_one(chi):
        chi[7:14] = -chi[7:14]

    _patched_char_table(monkeypatch, (7, 2), negate_top_digit_one)
    rep = check_weil(size_limit=49, j_max=3)
    assert not rep.ok
    assert all(f.startswith("(7,2)") for f in rep.failures)
    assert any("least generator" in f for f in rep.failures)


def test_check_corollary1_catches_one_flipped_character_value(monkeypatch):
    # id 3000 of F_{5^5} lies past the first 1820 ids, where a blockwise
    # sweep would have to offset what it reports
    table = ExtField.char_table
    for p, k, ident in ((3, 2, 1), (5, 5, 3000)):

        def flipped(self):
            chi = table(self)
            if (self.p, self.k) == (p, k):
                chi[ident] = -chi[ident]
            return chi

        monkeypatch.setattr(ExtField, "char_table", flipped)
        rep = check_corollary1()
        assert rep.failures == [
            f"({p},{k}): chi, quad_char and Legendre(norm) disagree at id {ident}"
        ], (p, k)


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


def test_check_corollary1_catches_one_wrong_legendre_symbol(monkeypatch):
    # (2/101) negated in the table for p = 101: it disagrees with Euler's
    # criterion at that residue alone, and F_101 has no extension field
    # under the 2^12 limit, so no norm ever reads the wrong entry
    symbol = checks.legendre_symbol

    def negated(a, p):
        table = symbol(a, p)
        if p == 101:
            table[2] = -table[2]
        return table

    monkeypatch.setattr(checks, "legendre_symbol", negated)
    rep = check_corollary1()
    assert rep.failures == ["Legendre(2,101) disagrees with Euler criterion"]
    assert rep.checked == 114_074


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


def test_check_gauss_catches_one_wrong_frobenius_entry(monkeypatch):
    # part (c) reads its fixed points off the Frobenius matrix; one entry
    # off for F_3^4 alone must show as that field's subfield failure, and
    # norm, which keeps gf's own binding, is not touched
    frobenius = checks._frobenius

    def off_by_one(fld):
        frob = frobenius(fld)
        if (fld.p, fld.k) == (3, 4):
            frob[1, 2] = (frob[1, 2] + 1) % 3
        return frob

    monkeypatch.setattr(checks, "_frobenius", off_by_one)
    rep = check_gauss()
    assert rep.checked == 2207
    assert len(rep.failures) == 1 and rep.skipped == 0
    assert "subfield count over F_3^4" in rep.failures[0]


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
