"""The benchmark's held-out references in tier-1: bounds-k's 20 `scan`
calls at each held-out prime, checked row by row against
perfbench/refs.json by the worker's own check. The figure-grid seed is
checked by tests/test_bench_coverage.py.

perfbench/ is put on sys.path and its worker module is used as it is;
nothing is written under perfbench/.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
try:
    import worker
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("prime", worker.HELD_OUT_PRIMES)
def test_bounds_k_scans_match_the_held_out_references(prime):
    modules = worker.load_legfam()
    refs = json.loads(worker.REFS_PATH.read_text())
    # the first seed whose bounds-k pass draws this prime
    seed = next(s for s in itertools.count(1) if worker.bounds_k_prime(s) == prime)
    ops = worker.make_ops("bounds-k", seed)
    assert len(ops) == 20 and all(f"--p {prime} " in op.key for op in ops)
    messages: list[str] = []
    res = worker.run_pass(modules, ops, refs, messages)
    assert (res.attempted, res.failed) == (2000, 0), messages[:5]
