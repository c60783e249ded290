"""The per-layer metrics of the traced run: which functions get spans,
which counts are taken from their results, and how each metric is
computed from the spans and counts of the traced passes.

Each metric names the workloads it is measured on ("home" workloads).
On a home workload the traced run requires at least one span (or, for a
count, at least one call of the function that produces it) behind the
metric and fails otherwise; elsewhere the metric may honestly read 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import LAYERS, SpanStats, public_functions

SCANS = ("bounds-k", "bounds-p")
ALL = ("bounds-k", "bounds-p", "oracle", "verify")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    kind: str  # how the value is derived, see compute()
    source: str  # span name (or layer) whose calls back the metric
    home: tuple[str, ...]
    key: str = ""  # count key, for kinds that read counts


def _self(name: str, home) -> LayerMetric:
    return LayerMetric(f"{name}.self_s", "s", "lower", "self", name, tuple(home))


def _layer(layer: str, home) -> LayerMetric:
    return LayerMetric(f"{layer}.self_s", "s", "lower", "layer_self", layer, tuple(home))


def _calls(name: str, home) -> LayerMetric:
    return LayerMetric(f"{name}.calls", "count", "lower", "calls", name, tuple(home))


def _per_row(name: str, home) -> LayerMetric:
    return LayerMetric(f"{name}.calls_per_row", "calls/row", "lower", "per_row", name, tuple(home))


def _checked(suite: str) -> LayerMetric:
    name = f"checks.{suite}"
    return LayerMetric(f"{name}.checked", "count", "higher", "count", name, ("verify",), f"{name}.checked")


PER_LAYER: tuple[LayerMetric, ...] = (
    # primality and validation -> wall_s on bounds-p
    _per_row("ntheory.is_prime", SCANS),
    _self("ntheory.is_prime", SCANS),
    # big-integer counts and compute_A_B -> wall_s on bounds-k
    _per_row("bounds.compute_A_B", SCANS),
    _per_row("ntheory.count_irreducibles", SCANS),
    _self("ntheory.count_subfield_elements", SCANS),
    _self("ntheory.count_irreducibles", SCANS),
    _self("bounds.compute_A_B", SCANS),
    # per-row bound evaluation and the CLI around it -> wall_s on both scans
    _self("bounds.theorem1_bound", SCANS),
    _self("bounds.guaranteed_j", SCANS),
    _self("bounds.gyarmati_bound", SCANS),
    _self("bounds.upper_bound", SCANS),
    _self("bounds.make_report", SCANS),
    LayerMetric("bounds.make_report.p50_us", "us", "lower", "p50", "bounds.make_report", SCANS),
    LayerMetric("bounds.make_report.p99_us", "us", "lower", "p99", "bounds.make_report", SCANS),
    _self("cli.main", ALL),
    # the W solve -> wall_s on bounds-p
    _calls("lambertw.w0_from_log", SCANS),
    _calls("lambertw.w0_real", ("bounds-p",)),
    LayerMetric("lambertw.iterations", "count", "lower", "count", "lambertw", SCANS, "lambertw.iterations"),
    _layer("lambertw", SCANS),
    # crossover search and the grid sieve -> wall_s on bounds-p
    _self("bounds.crossover_prime", ("bounds-p",)),
    _self("ntheory.primes_up_to", ("bounds-p", "verify")),
    # family construction -> wall_s on oracle (and verify, through gauss)
    _self("gf.enumerate_irreducibles", ("oracle", "verify")),
    LayerMetric(
        "gf.enumerate_irreducibles.found_per_candidate", "ratio", "higher", "ratio",
        "gf.enumerate_irreducibles", ("oracle", "verify"),
        "gf.enumerate_irreducibles.found/gf.enumerate_irreducibles.candidates",
    ),
    _self("legendre_seq.build_family", ("oracle", "verify")),
    _calls("legendre_seq.legendre_symbol", ("oracle", "verify")),
    # exhaustive oracle -> wall_s on oracle
    _self("fcomplexity.family_complexity", ("oracle", "verify")),
    LayerMetric(
        "fcomplexity.cells_examined", "count", "lower", "count",
        "fcomplexity.family_complexity", ("oracle", "verify"), "fcomplexity.cells_examined",
    ),
    LayerMetric(
        "fcomplexity.cells_per_s", "1/s", "higher", "rate",
        "fcomplexity.family_complexity", ("oracle", "verify"), "fcomplexity.cells_examined",
    ),
    # extension fields and the verify sweeps -> wall_s on verify
    _calls("gf.ExtField.char_table", ("verify",)),
    _self("gf.ExtField.char_table", ("verify",)),
    _self("gf.norm", ("verify",)),
    _self("gf.quad_char", ("verify",)),
    _self("checks.check_weil", ("verify",)),
    _self("checks.check_gauss", ("verify",)),
    _self("checks.check_corollary1", ("verify",)),
    _self("checks.check_sandwich", ("verify",)),
    _checked("check_weil"),
    _checked("check_gauss"),
    _checked("check_corollary1"),
    _checked("check_sandwich"),
    # self time of every layer, for the breakdown per workload
    *(_layer(layer, ()) for layer in LAYERS if layer not in ("cli", "lambertw")),
    # the tracing itself
    LayerMetric("trace.spans", "count", "lower", "spans", "", ()),
    LayerMetric("trace.overhead_frac", "ratio", "lower", "overhead", "", ()),
)


def _observe_w(counts, args, kwargs, result) -> None:
    counts["lambertw.iterations"] += result.iterations


def _observe_enumeration(counts, args, kwargs, result) -> None:
    p = args[0] if args else kwargs["p"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    counts["gf.enumerate_irreducibles.found"] += len(result)
    counts["gf.enumerate_irreducibles.candidates"] += p ** k


def _observe_oracle(counts, args, kwargs, result) -> None:
    counts["fcomplexity.cells_examined"] += result.cells_examined


def _observe_check(counts, args, kwargs, result) -> None:
    counts[f"checks.check_{result.name}.checked"] += result.checked


def trace_targets(legfam_modules: dict) -> dict:
    """{function: (span name, observer)} for every public function of
    every layer, plus cli.main (the CLI is traced at its entry point, so
    cli.main's self time is argument parsing, row formatting and output)
    and ExtField.char_table."""
    observers = {
        "lambertw.w0_real": _observe_w,
        "lambertw.w0_from_log": _observe_w,
        "lambertw.w0_complex": _observe_w,
        "gf.enumerate_irreducibles": _observe_enumeration,
        "fcomplexity.family_complexity": _observe_oracle,
        "checks.check_weil": _observe_check,
        "checks.check_gauss": _observe_check,
        "checks.check_corollary1": _observe_check,
        "checks.check_sandwich": _observe_check,
    }
    targets = {}
    for layer in LAYERS:
        mod = legfam_modules[layer]
        fns = [mod.main] if layer == "cli" else public_functions(mod)
        for fn in fns:
            name = f"{layer}.{fn.__name__}"
            targets[fn] = (name, observers.get(name))
    gf = legfam_modules["gf"]
    targets[gf.ExtField.char_table] = ("gf.ExtField.char_table", None)
    return targets


class CoverageError(RuntimeError):
    """A per-layer metric has no span or count behind it on its home workload."""


def compute(stats: SpanStats, counts, workload: str, passes: int, rows: int,
            overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit), per traced pass; rows is
    the number of CSV rows the traced passes produced in total.

    Raises CoverageError when a metric of this workload's home set has no
    span behind it, so a missed binding cannot pass as a zero.
    """
    missing = []
    out = {}
    for m in PER_LAYER:
        backing = stats.layer_calls[m.source] if m.source in LAYERS else stats.calls[m.source]
        if workload in m.home and backing == 0:
            missing.append(m.name)
        if m.kind == "self":
            value = stats.self_ns[m.source] / 1e9 / passes
        elif m.kind == "layer_self":
            value = stats.layer_self_ns[m.source] / 1e9 / passes
        elif m.kind == "calls":
            value = stats.calls[m.source] / passes
        elif m.kind == "per_row":
            value = stats.calls[m.source] / rows if rows else 0.0
        elif m.kind == "p50":
            value = stats.percentile_us(m.source, 50)
        elif m.kind == "p99":
            value = stats.percentile_us(m.source, 99)
        elif m.kind == "count":
            value = counts[m.key] / passes
        elif m.kind == "ratio":
            num, den = (counts[k] for k in m.key.split("/"))
            value = num / den if den else 0.0
        elif m.kind == "rate":
            busy = stats.total_ns[m.source] / 1e9
            value = counts[m.key] / busy if busy else 0.0
        elif m.kind == "spans":
            value = stats.spans / passes
        elif m.kind == "overhead":
            value = overhead_frac
        else:
            raise AssertionError(m.kind)
        out[m.name] = (value, m.unit)
    if missing:
        raise CoverageError(
            f"no spans behind per-layer metrics on {workload}: {', '.join(missing)}"
        )
    return out
