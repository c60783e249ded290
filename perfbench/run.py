"""The legfam benchmark: one workload per call, results as one JSON line.

    python3 perfbench/run.py --workload bounds-k --seed 0 --seconds 18 --trace 0

Run it from the root of a checkout. The workload runs in its own
single-threaded worker process (perfbench/worker.py), which imports
legfam from the checkout's src/ and calls it through legfam.cli.main.
This parent imports neither legfam nor numpy, so the worker's set-up
time and peak memory belong to the workload alone.

With --trace 0 the result carries the end-to-end metrics:

  setup_s      time from spawning a set-up-only worker to its READY line
               (interpreter, import, one warm-up call), over the time a
               bare interpreter spawned right before and after it takes
               to print its own READY line, times calib.BARE_START_REF_S:
               the median over SETUP_SAMPLES workers, half before and
               half after the measuring worker
  wall_s       time of one pass over the workload's operations: the sum,
               over the operations, of each one's median time across
               the run's passes, each time scaled by the calibration
               kernel run around and during its call
  peak_rss_mb  peak resident memory of the measuring worker

Both times so read as seconds at one fixed machine speed (see
perfbench/calib.py). The raw times are kept in the stamp, with scan rows
per second on the scan workloads, the crossover call's time on bounds-p,
and fail_frac.

With --trace 1 it carries the per-layer metrics of perfbench/layers.py,
taken from a run that alternates untraced and traced passes.

Every output is checked against perfbench/refs.json; attempted and failed
count CSV rows, crossover answers, oracle cells and verify suites. An
environment stamp (git SHA, Python and numpy versions, nproc, CPU model)
is printed on the line before the result and saved with it under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("bounds-k", "bounds-p", "oracle", "verify")
SETUP_SAMPLES = 24
SETUP_TIMEOUT_S = 60
# the worker must end in time for the whole run to stay within 180 s
RUN_TIMEOUT_S = 150

# numpy and the BLAS it may load stay single-threaded
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(argv: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run a Python process to completion; return (set-up seconds, stdout
    lines).

    Set-up is the time from just before the spawn to the READY stamp the
    process prints (both read from the system-wide monotonic clock).
    """
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    what = " ".join(argv[1:] if argv[0] == str(WORKER) else argv)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout} s") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if not ready:
        raise BenchError(f"{what} never reported READY")
    return float(ready[0].split()[1]) - t0, lines


def setup_samples(workload: str, n: int) -> list[tuple[float, float]]:
    """n pairs (set-up seconds of a set-up-only worker, mean start-up
    seconds of the bare interpreters spawned right before and after it)."""
    def bare() -> float:
        return spawn(["-c", calib.BARE_START], SETUP_TIMEOUT_S)[0]

    starts = [bare()]
    samples = []
    for _ in range(n):
        setup = spawn([str(WORKER), "--mode", "setup", "--workload", workload], SETUP_TIMEOUT_S)[0]
        starts.append(bare())
        samples.append((setup, (starts[-2] + starts[-1]) / 2))
    return samples


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_sha() -> str:
    """The checkout's commit, read from .git without running git (which
    would search directories above the checkout)."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha:
        return sha
    packed = _read(ROOT / ".git" / "packed-refs") or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    # set-up samples before and after the measuring worker, so they span
    # the run rather than one moment of the machine's speed
    setups = setup_samples(workload, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    lines = spawn(
        [str(WORKER), "--mode", "run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        RUN_TIMEOUT_S,
    )[1]
    setups += setup_samples(workload, SETUP_SAMPLES // 2)
    res = json.loads(lines[-1])
    setup_s = statistics.median(t / bare for t, bare in setups) * calib.BARE_START_REF_S
    op_median_s = [statistics.median(times) for times in res["op_scaled_s"]]
    wall_s = sum(op_median_s)
    if trace:
        metrics = {name: metric(value, unit) for name, (value, unit) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    # derived figures, on the same scale as wall_s
    kinds = [kind for kind, _ in res["ops"]]
    scan_s = sum(t for t, kind in zip(op_median_s, kinds) if kind == "scan")
    scan_rows = sum(units for kind, units in res["ops"] if kind == "scan")
    detail = {
        "passes": res["passes"],
        "fail_frac": res["failed"] / res["attempted"],
        "scan_rows_per_s": scan_rows / scan_s if scan_s else None,
        "crossover_s": sum(t for t, kind in zip(op_median_s, kinds) if kind == "crossover") or None,
        "raw_wall_s": sum(statistics.median(times) for times in res["op_s"]),
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "bare_start_s": statistics.median(bare for _, bare in setups),
        "ops": res["ops"], "op_s": res["op_s"], "op_scaled_s": res["op_scaled_s"],
        "setup_samples_s": setups, "numpy": res["numpy"],
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so a worker in flight is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "legfam" / "__init__.py").is_file():
        print(f"error: no legfam sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(detail.pop("numpy")), **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
