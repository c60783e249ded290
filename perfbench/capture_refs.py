"""Capture the benchmark's reference outputs into perfbench/refs.json.

    python3 perfbench/capture_refs.py

Run this only at a commit whose outputs are known good (the references
in the repository were captured at the commit that added the benchmark).
A later commit is checked against them, so re-capturing there would hide
a changed number rather than catch it.

References cover every operation any seed can produce: the bounds-k scans
at the crossover prime and at each held-out prime, the bounds-p scans and
crossover, every oracle cell, and the verify suites and weil sweep. Scan
rows are kept as digests of their non-timing CSV text (15 significant
digits, as printed).
"""

from __future__ import annotations

import json
import sys

import worker


def all_ops() -> list[worker.Op]:
    seeds = [worker.DEFAULT_SEED]
    # one seed per held-out prime, so each prime's scan is captured
    for prime in worker.HELD_OUT_PRIMES:
        seeds.append(next(s for s in range(1, 1000) if worker.bounds_k_prime(s) == prime))
    ops = {}
    for workload in worker.WORKLOADS:
        for seed in seeds:
            for op in worker.make_ops(workload, seed):
                ops[op.key] = op
    return list(ops.values())


def main() -> int:
    modules = worker.load_legfam()
    refs = {}
    for op in all_ops():
        rc, out, elapsed, _ = worker.call(modules, op)
        if rc != 0:
            print(f"{op.key}: exit {rc}; nothing written", file=sys.stderr)
            return 1
        refs[op.key] = worker.observe(op, out)
        print(f"{op.key}: {worker.expected_units(op, refs[op.key])} units, {elapsed:.2f} s")
    # one line per operation, so a re-capture diffs per operation
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key])}" for key in sorted(refs)]
    worker.REFS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
