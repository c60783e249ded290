"""The benchmark's traced run, one pass per workload: every per-layer
metric homed on a workload must have a span behind it.

perfbench/ is put on sys.path and its worker, layers and spans modules are
used as they are; nothing is written under perfbench/. Each workload makes
the worker's warm-up call and one untraced pass first, as the worker does,
so the caches a first call fills are warm when the traced pass runs.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
try:
    import layers
    import spans
    import worker
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.fixture(scope="module")
def modules():
    return worker.load_legfam()


@pytest.fixture(scope="module")
def refs():
    return json.loads(worker.REFS_PATH.read_text())


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_traced_pass_backs_every_home_metric(modules, refs, workload):
    with contextlib.redirect_stdout(io.StringIO()):
        modules["cli"].main(list(worker.WARM_UP[workload]))
    ops = worker.make_ops(workload, worker.DEFAULT_SEED)
    messages: list[str] = []
    plain = worker.run_pass(modules, ops, refs, messages)
    tracer = spans.Tracer()
    tracer.install(list(modules.values()), layers.trace_targets(modules))
    try:
        traced = worker.run_pass(modules, ops, refs, messages)
    finally:
        tracer.uninstall()
    assert plain.failed == 0 and traced.failed == 0, messages[:5]
    # raises CoverageError when a home metric has no span or count behind it
    layers.compute(
        spans.SpanStats(tracer.spans()), tracer.counts, workload, 1, traced.scan_rows, 0.0
    )
