"""Self-test of the benchmark's own machinery; needs neither legfam nor numpy.

    python3 perfbench/selftest.py

Checks that a corrupted row, a failed suite, a nonzero exit and a raised
call are each counted as failed; that self time is span duration minus
the union of child spans; that the tracer patches every binding of a
function and fails loudly on a target it cannot reach; that a per-layer
metric with no span behind it on its home workload is an error, not a 0;
and that BENCHMARK.json lists exactly the metrics the code emits.
"""

from __future__ import annotations

import contextlib
import io
import json
import types
import unittest
from collections import Counter

import layers
import worker
from spans import SpanStats, Tracer, public_functions, self_times

HEADER = "p,k,new_bound,guaranteed_j,gyarmati_bound,gyarmati_c,upper_bound,t_new_ns,t_gyarmati_ns"
ROWS = ["3,1,0.5,0,-1.2,2.5,1.58496250072116,900,80",
        "5,1,0.75,0,-0.9,2.5,2.32192809488736,950,70",
        "7,1,0.875,1,-0.7,2.5,2.8073549220576,990,75"]


class FakeCli:
    """Stands in for legfam.cli: prints canned output or raises."""

    def __init__(self, out: str = "", rc: int = 0, exc: Exception | None = None):
        self.out, self.rc, self.exc = out, rc, exc

    def main(self, argv):
        if self.exc is not None:
            raise self.exc
        print(self.out, end="")
        return self.rc


class FailureCounting(unittest.TestCase):
    scan = worker.Op("scan", ("scan", "--k", "1", "--p-max", "7"))
    verify = worker.Op("verify", ("verify", "all"))

    def ref(self):
        return worker.observe(self.scan, "\n".join([HEADER, *ROWS]) + "\n")

    def run_op(self, op, cli, ref, checks=None):
        with contextlib.redirect_stderr(io.StringIO()):
            rc, out, _, _ = worker.call({"cli": cli, "checks": checks}, op)
        return worker.check(op, rc, out, ref)[:2]

    def test_matching_output_has_no_failures(self):
        out = "\n".join([HEADER, *ROWS]) + "\n"
        self.assertEqual(self.run_op(self.scan, FakeCli(out), self.ref()), (3, 0))

    def test_timing_columns_are_not_compared(self):
        rows = [r.rsplit(",", 2)[0] + ",1,2" for r in ROWS]
        out = "\n".join([HEADER, *rows]) + "\n"
        self.assertEqual(self.run_op(self.scan, FakeCli(out), self.ref()), (3, 0))

    def test_one_corrupted_row_counts_once(self):
        rows = list(ROWS)
        rows[1] = rows[1].replace("0.75", "0.750000000000001")
        out = "\n".join([HEADER, *rows]) + "\n"
        self.assertEqual(self.run_op(self.scan, FakeCli(out), self.ref()), (3, 1))

    def test_missing_or_extra_row_counts(self):
        out = "\n".join([HEADER, *ROWS[:2]]) + "\n"
        self.assertEqual(self.run_op(self.scan, FakeCli(out), self.ref()), (3, 1))
        out = "\n".join([HEADER, *ROWS, ROWS[0]]) + "\n"
        self.assertEqual(self.run_op(self.scan, FakeCli(out), self.ref()), (3, 1))

    def test_raised_call_fails_every_row(self):
        cli = FakeCli(exc=RuntimeError("boom"))
        self.assertEqual(self.run_op(self.scan, cli, self.ref()), (3, 3))

    def test_nonzero_exit_fails_every_row(self):
        out = "\n".join([HEADER, *ROWS]) + "\n"
        self.assertEqual(self.run_op(self.scan, FakeCli(out, rc=3), self.ref()), (3, 3))

    def test_failed_suite_counts_once(self):
        # legfam exits EXIT_VERIFY when a suite fails and still reports each
        ref = {"weil": True, "gauss": True}
        out = "weil: ok (10 checks)\nFAIL [gauss] x\ngauss: FAILED (4 checks)\n"
        self.assertEqual(self.run_op(self.verify, FakeCli(out, rc=4), ref), (2, 1))
        out = "weil: ok (10 checks)\ngauss: ok (4 checks)\n"
        self.assertEqual(self.run_op(self.verify, FakeCli(out, rc=3), ref), (2, 2))

    def test_failed_sweep_counts(self):
        op = worker.Op("sweep", ("check_weil", "size_limit=9"))
        calls = []

        def check_weil(size_limit, ok=True):
            calls.append(size_limit)
            return types.SimpleNamespace(name="weil", ok=ok, checked=7)

        checks = types.SimpleNamespace(check_weil=check_weil)
        self.assertEqual(self.run_op(op, None, {"weil": True}, checks), (1, 0))
        checks.check_weil = lambda size_limit: check_weil(size_limit, ok=False)
        self.assertEqual(self.run_op(op, None, {"weil": True}, checks), (1, 1))
        self.assertEqual(calls, [9, 9])

    def test_wrong_oracle_witness_fails(self):
        op = worker.Op("oracle", ("oracle", "--p", "5", "--k", "2", "--format", "json"))
        ref = {"gamma": 2, "witness_positions": [1, 2, 3], "witness_signs": [1, 1, -1]}
        out = json.dumps({**ref, "witness_signs": [1, 1, 1], "cells_examined": 9, "time_ns": 1})
        self.assertEqual(self.run_op(op, FakeCli(out + "\n"), ref), (1, 1))
        out = json.dumps({**ref, "cells_examined": 5, "time_ns": 7})
        self.assertEqual(self.run_op(op, FakeCli(out + "\n"), ref), (1, 0))


class SelfTime(unittest.TestCase):
    # (id, parent, name, start, end): children B and C overlap each other,
    # D sticks out past the end of its parent, E is nested inside B.
    SPANS = [
        (0, -1, "cli.main", 0, 100),
        (1, 0, "bounds.make_report", 10, 30),
        (2, 0, "bounds.make_report", 20, 50),
        (3, 0, "ntheory.is_prime", 90, 120),
        (4, 1, "ntheory.is_prime", 12, 18),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(self_times(self.SPANS), {0: 50, 1: 14, 2: 30, 3: 30, 4: 6})

    def test_aggregates(self):
        stats = SpanStats(self.SPANS)
        self.assertEqual(stats.calls["bounds.make_report"], 2)
        self.assertEqual(stats.self_ns["ntheory.is_prime"], 36)
        self.assertEqual(stats.layer_self_ns["bounds"], 44)
        self.assertEqual(stats.total_ns["bounds.make_report"], 50)
        self.assertEqual(stats.percentile_us("bounds.make_report", 50), 0.025)


def fake_modules():
    """A defining module, a module that imported its function, a module
    holding it in a dict, and a class method, like legfam's layers."""
    base = types.ModuleType("fakepkg.base")
    exec(
        "__all__ = ['double', 'Box']\n"
        "def double(x):\n    return 2 * x\n"
        "def quad(x):\n    return double(double(x))\n"
        "class Box:\n    def get(self):\n        return double(21)\n",
        base.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.double = base.double
    user.TABLE = {"d": base.double}
    return base, user


class TracerBindings(unittest.TestCase):
    def test_every_binding_is_traced_and_restored(self):
        base, user = fake_modules()
        original = base.double
        self.assertEqual(public_functions(base), [original])
        tracer = Tracer()
        targets = {original: ("base.double", None), base.Box.get: ("base.Box.get", None)}
        tracer.install([base, user], targets)
        try:
            self.assertEqual(base.quad(1), 4)
            self.assertEqual(user.double(2), 4)
            self.assertEqual(user.TABLE["d"](3), 6)
            self.assertEqual(base.Box().get(), 42)
        finally:
            tracer.uninstall()
        self.assertIs(base.double, original)
        self.assertIs(user.double, original)
        self.assertIs(user.TABLE["d"], original)
        spans = tracer.spans()
        self.assertEqual([s[2] for s in spans].count("base.double"), 5)
        get_id = next(s[0] for s in spans if s[2] == "base.Box.get")
        self.assertEqual([s[1] for s in spans if s[2] == "base.double"][-1], get_id)

    def test_unreachable_target_fails_loudly(self):
        base, user = fake_modules()
        stray = types.FunctionType(base.double.__code__, {})
        with self.assertRaises(RuntimeError):
            Tracer().install([base, user], {stray: ("base.stray", None)})
        self.assertIs(user.TABLE["d"], base.double)


class Coverage(unittest.TestCase):
    def test_missing_spans_on_a_home_workload_raise(self):
        with self.assertRaises(layers.CoverageError) as ctx:
            layers.compute(SpanStats([]), Counter(), "verify", 1, 0, 0.0)
        self.assertIn("checks.check_weil.self_s", str(ctx.exception))


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(worker.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [(m.name, m.unit, m.better) for m in layers.PER_LAYER],
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"},
        )


if __name__ == "__main__":
    unittest.main()
