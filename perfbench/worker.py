"""One workload process of the legfam benchmark.

    python3 perfbench/worker.py --mode setup --workload W
    python3 perfbench/worker.py --mode run --workload W --seed N --seconds T --trace 0|1

Both modes import legfam from the checkout's src/ and make one warm-up
call through the CLI, then print "READY <monotonic seconds>" so the
parent can time set-up from process start. Setup mode exits there. Run
mode then repeats timed passes over the workload's operations for about
T seconds (always at least one), checks every output against the
references captured at the seed commit, and prints one JSON line with
the pass timings, the failure counts, its own peak RSS and, with
--trace 1, the per-layer metrics.

Every operation but one goes through legfam.cli.main in-process, with
stdout captured; only the call itself is timed, not the checking, and
each call is bracketed by the calibration kernel of perfbench/calib.py. The
exception is verify's weil sweep, which runs legfam.checks.check_weil
on a smaller field range than `verify weil` (see make_ops).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import layers
from spans import SpanStats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS_PATH = HERE / "refs.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("bounds-k", "bounds-p", "oracle", "verify")

# The default seed runs the figure grids; any other seed draws the
# bounds-k prime from the held-out pool and shuffles the oracle cells.
DEFAULT_SEED = 0
CROSSOVER_PRIME = 2128240847
# The first three primes among uniform draws from [2^31 - 2^26, 2^31)
# made with random.Random(2026). Their log2 is within 0.1% of the
# crossover prime's, so p^k has the same size and the scan the same cost
# whichever is drawn. References are pinned for each, so the output of
# every seed is checked.
HELD_OUT_PRIMES = (2110510001, 2111100881, 2082271531)
K_MAX = 2000
# bounds-k scans k = 1..K_MAX in calls of K_CHUNK degrees each, so that a
# run times every part of the grid several times
K_CHUNK = 100
P_MAX = 8000
# `crossover --k K` for K >= 3 stops in the first numpy chunk of
# crossover_prime's threshold scan; --k 1 needs about 1,000 chunks
# (~19 s), too long to time more than once in a run
CROSSOVER_K = 3
# `verify weil` sweeps every field up to 169 elements (~10 s); the
# benchmark sweeps those up to 81 elements (~1 s), through the same code
WEIL_SIZE_LIMIT = 81
VERIFY_SUITES = ("corollary1", "gauss", "sandwich")
ORACLE_CELLS = ((13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (11, 3), (13, 3))

WARM_UP = {
    "bounds-k": ("bound", "--p", "7", "--k", "2"),
    "bounds-p": ("bound", "--p", "7", "--k", "2"),
    "oracle": ("oracle", "--p", "5", "--k", "2", "--format", "json"),
    "verify": ("verify", "sandwich"),
}

# legfam.cli's exit code for a verify run in which a suite failed
EXIT_VERIFY = 4
_VERIFY_LINE = re.compile(r"^(\w+): (ok|FAILED) \((\d+) checks\)$")


@dataclass(frozen=True)
class Op:
    """One call of a workload. kind is scan, crossover, oracle or verify
    (CLI calls), or sweep (a call of checks.check_weil)."""

    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def bounds_k_prime(seed: int) -> int:
    if seed == DEFAULT_SEED:
        return CROSSOVER_PRIME
    return random.Random(seed).choice(HELD_OUT_PRIMES)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, made from the seed alone."""
    if workload == "bounds-k":
        p = bounds_k_prime(seed)
        return [
            Op("scan", ("scan", "--p", str(p), "--k-min", str(k), "--k-max", str(k + K_CHUNK - 1)))
            for k in range(1, K_MAX + 1, K_CHUNK)
        ]
    if workload == "bounds-p":
        return [
            Op("scan", ("scan", "--k", "1", "--p-max", str(P_MAX))),
            Op("scan", ("scan", "--k", "10", "--p-max", str(P_MAX))),
            Op("crossover", ("crossover", "--k", str(CROSSOVER_K))),
        ]
    if workload == "oracle":
        cells = list(ORACLE_CELLS)
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(cells)
        return [
            Op("oracle", ("oracle", "--p", str(p), "--k", str(k), "--format", "json"))
            for p, k in cells
        ]
    if workload == "verify":
        return [
            *(Op("verify", ("verify", suite)) for suite in VERIFY_SUITES),
            Op("sweep", ("check_weil", f"size_limit={WEIL_SIZE_LIMIT}")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def row_digest(row: str) -> str:
    """Digest of a CSV row's non-timing fields (all but the last two)."""
    fields = row.split(",")[:-2]
    return hashlib.blake2b(",".join(fields).encode(), digest_size=6).hexdigest()


def expected_units(op: Op, ref) -> int:
    """Operations one call stands for: CSV rows, suites, or 1."""
    if op.kind == "scan":
        return len(ref["rows"])
    if op.kind in ("verify", "sweep"):
        return len(ref)
    return 1


def observe(op: Op, out: str):
    """The checked part of an operation's output, in reference form."""
    if op.kind == "scan":
        header, *rows = out.splitlines()
        return {"header": header, "rows": [row_digest(r) for r in rows]}
    if op.kind == "crossover":
        return out.strip()
    if op.kind == "oracle":
        res = json.loads(out)
        return {
            "gamma": res["gamma"],
            "witness_positions": res["witness_positions"],
            "witness_signs": res["witness_signs"],
        }
    suites = {}
    for line in out.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            suites[m.group(1)] = m.group(2) == "ok"
    return suites


def check(op: Op, rc: int | None, out: str, ref) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one call against its reference.

    A call that raised (rc None) or exited nonzero fails every unit it
    stands for, except that a verify call exits EXIT_VERIFY when a suite
    failed and still reports every suite; otherwise each scan row, suite
    or answer is compared on its own.
    """
    units = expected_units(op, ref)
    suites = op.kind in ("verify", "sweep")
    if rc != 0 and not (suites and rc == EXIT_VERIFY):
        return units, units, [f"{op.key}: exit {rc}"]
    try:
        got = observe(op, out)
    except (ValueError, KeyError) as exc:
        return units, units, [f"{op.key}: unreadable output ({exc})"]
    if op.kind == "scan":
        if got["header"] != ref["header"]:
            return units, units, [f"{op.key}: header {got['header']!r}"]
        want, have = ref["rows"], got["rows"]
        bad = [i for i in range(units) if i >= len(have) or have[i] != want[i]]
        msgs = [f"{op.key}: row {i + 1} differs from the reference" for i in bad[:5]]
        extra = max(0, len(have) - units)
        if extra:
            msgs.append(f"{op.key}: {extra} rows beyond the reference")
        return units, min(units, len(bad) + extra), msgs
    if suites:
        bad = [s for s, ok in ref.items() if got.get(s) != ok]
        return units, len(bad), [f"{op.key}: suite {s} not ok" for s in bad]
    if got != ref:
        return units, units, [f"{op.key}: got {got!r}, want {ref!r}"]
    return units, 0, []


def _sweep(checks, op: Op) -> int:
    """Run a check function named by a sweep op and print its report the
    way `legfam verify` does; return the exit code the CLI would give."""
    name, *params = op.argv
    kwargs = {key: int(value) for key, value in (p.split("=") for p in params)}
    rep = getattr(checks, name)(**kwargs)
    print(f"{rep.name}: {'ok' if rep.ok else 'FAILED'} ({rep.checked} checks)")
    return 0 if rep.ok else EXIT_VERIFY


def call(modules, op: Op) -> tuple[int | None, str, float, float]:
    """Run one operation: (exit code or None if it raised, captured
    stdout, elapsed seconds, the same on the calibration kernel's scale).

    Functions are looked up on their modules at call time, so a traced
    pass goes through the tracer's wrappers.
    """
    buf = io.StringIO()

    def run() -> int | None:
        try:
            with contextlib.redirect_stdout(buf):
                if op.kind == "sweep":
                    return _sweep(modules["checks"], op)
                return modules["cli"].main(list(op.argv))
        except Exception as exc:  # counted as a failed operation, not a crash
            print(f"{op.key}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    rc, elapsed, kernel = calib.timed(run)
    return rc, buf.getvalue(), elapsed, calib.scaled(elapsed, kernel)


@dataclass
class PassResult:
    op_s: list[float]  # time of each operation, in pass order
    scaled_s: list[float]  # the same on the calibration kernel's scale
    scan_rows: int
    attempted: int
    failed: int


def run_pass(modules, ops: list[Op], refs: dict, messages: list[str]) -> PassResult:
    res = PassResult([], [], 0, 0, 0)
    for op in ops:
        rc, out, elapsed, scaled = call(modules, op)
        attempted, failed, msgs = check(op, rc, out, refs[op.key])
        res.op_s.append(elapsed)
        res.scaled_s.append(scaled)
        res.attempted += attempted
        res.failed += failed
        messages.extend(msgs)
        if op.kind == "scan":
            res.scan_rows += attempted
    return res


def load_legfam():
    """Import legfam from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "legfam" / "__init__.py").is_file():
        raise SystemExit(f"legfam sources not found under {src}")
    sys.path.insert(0, str(src))
    import legfam
    from legfam import bounds, checks, cli, fcomplexity, gf, lambertw, legendre_seq, ntheory

    if src not in Path(legfam.__file__).resolve().parents:
        raise SystemExit(f"imported legfam from {legfam.__file__}, not from {src}")
    modules = {
        "legfam": legfam, "cli": cli, "bounds": bounds, "ntheory": ntheory,
        "lambertw": lambertw, "gf": gf, "legendre_seq": legendre_seq,
        "fcomplexity": fcomplexity, "checks": checks,
    }
    return modules


def timed_loop(seconds: float, one_round) -> None:
    """Call one_round() until another round would overrun the budget,
    judged by the median round so far; always at least once."""
    t_start = time.perf_counter()
    rounds = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        one_round()
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(rounds) > seconds:
            return


def traced_passes(modules, ops, refs, seconds, workload, messages, tag):
    """Alternate untraced and traced passes; return per-layer metrics and
    the untraced and traced pass results."""
    tracer = Tracer()
    targets = layers.trace_targets(modules)
    module_list = list(modules.values())
    plain: list[PassResult] = []
    traced: list[PassResult] = []

    def one_round():
        plain.append(run_pass(modules, ops, refs, messages))
        gc.collect()
        tracer.install(module_list, targets)
        try:
            traced.append(run_pass(modules, ops, refs, messages))
        finally:
            tracer.uninstall()

    timed_loop(seconds, one_round)
    def median_pass(passes):
        return statistics.median(sum(p.scaled_s) for p in passes)

    overhead = median_pass(traced) / median_pass(plain) - 1.0
    spans = tracer.spans()
    metrics = layers.compute(
        SpanStats(spans), tracer.counts, workload, len(traced),
        sum(p.scan_rows for p in traced), overhead,
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_csv(OUT_DIR / f"spans-{tag}.csv")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    modules = load_legfam()
    cli = modules["cli"]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(WARM_UP[args.workload]))
    print(f"READY {time.monotonic():.9f}", flush=True)
    if args.mode == "setup":
        return 0

    refs = json.loads(REFS_PATH.read_text())
    ops = make_ops(args.workload, args.seed)
    missing = [op.key for op in ops if op.key not in refs]
    if missing:
        raise SystemExit(f"no reference pinned for: {'; '.join(missing)}")
    messages: list[str] = []
    tag = f"{args.workload}-seed{args.seed}"
    per_layer = None
    if args.trace:
        per_layer, passes = traced_passes(
            modules, ops, refs, args.seconds, args.workload, messages, tag
        )
    else:
        passes = []
        timed_loop(args.seconds, lambda: passes.append(run_pass(modules, ops, refs, messages)))
    for msg in messages[:20]:
        print(msg, file=sys.stderr)
    result = {
        "passes": len(passes),
        # per operation, its kind and the units (rows, suites, ...) it stands for
        "ops": [[op.kind, expected_units(op, refs[op.key])] for op in ops],
        # per operation, its raw and scaled times over the passes
        "op_s": [list(t) for t in zip(*(p.op_s for p in passes))],
        "op_scaled_s": [list(t) for t in zip(*(p.scaled_s for p in passes))],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
        "per_layer": per_layer,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
