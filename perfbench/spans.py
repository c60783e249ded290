"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each legfam module and records
one span per call: name, start, end and parent. It patches every binding
of a wrapped function it can reach -- module globals (so `from .ntheory
import is_prime` in bounds.py is covered), class attributes
(ExtField.char_table) and dict values (checks.SUITES) -- because a wrapper
on the defining module alone would miss calls made through the other
bindings. Wrappers are installed only for a traced pass and removed after
it, so untraced passes run the program unmodified.

Spans live in flat arrays while the run lasts and are written out once,
when it ends.
"""

from __future__ import annotations

import inspect
import statistics
import time
import types
from array import array
from collections import Counter, defaultdict

# The layers, in the order the benchmark doc lists them.
LAYERS = ("cli", "bounds", "ntheory", "lambertw", "gf", "legendre_seq", "fcomplexity", "checks")


class Tracer:
    """Records spans for calls to wrapped functions, plus named counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    def _intern(self, qualname: str) -> int:
        if qualname not in self._name_index:
            self._name_index[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_index[qualname]

    def wrap(self, qualname: str, fn, observe=None):
        """A wrapper around fn that records one span per call.

        observe(counts, args, kwargs, result) runs after a successful call,
        outside the span, to add counts taken from the arguments or result.
        """
        idx = self._intern(qualname)
        stack = self._stack
        clock = time.perf_counter_ns
        sids, parents, names, starts, ends = self.sid, self.parent, self.name, self.start, self.end
        counts = self.counts

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                sids.append(sid)
                parents.append(parent)
                names.append(idx)
                starts.append(t0)
                ends.append(t1)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: list[types.ModuleType], targets: dict) -> None:
        """Replace every reachable binding of each target function.

        targets maps an original function to (qualname, observe). Raises
        RuntimeError when a target ends up with no binding replaced, so a
        missed layer fails loudly instead of reporting zero.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {fn: self.wrap(q, fn, obs) for fn, (q, obs) in targets.items()}
        patched: Counter = Counter()
        for owner in _binding_owners(modules):
            is_dict = isinstance(owner, dict)
            items = owner.items() if is_dict else vars(owner).items()
            for attr, value in list(items):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable value
                    continue
                if wrapper is None:
                    continue
                if is_dict:
                    owner[attr] = wrapper
                else:
                    setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, value, is_dict))
                patched[value] += 1
        missed = [q for fn, (q, _) in targets.items() if not patched[fn]]
        if missed:
            self.uninstall()
            raise RuntimeError(f"no binding found to trace for: {', '.join(missed)}")

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> list[tuple[int, int, str, int, int]]:
        """All spans as (id, parent, name, start_ns, end_ns)."""
        return [
            (s, p, self.names[n], a, b)
            for s, p, n, a, b in zip(self.sid, self.parent, self.name, self.start, self.end)
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for s, p, name, a, b in self.spans():
                fh.write(f"{s},{p},{name},{a},{b}\n")


def _binding_owners(modules: list[types.ModuleType]):
    """Modules, the classes they define, and their module-level dicts."""
    for mod in modules:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value
            elif isinstance(value, dict):
                yield value


def public_functions(mod: types.ModuleType) -> list:
    """Functions named in mod.__all__ and defined in mod itself."""
    return [
        fn
        for name in getattr(mod, "__all__", ())
        if inspect.isfunction(fn := getattr(mod, name))
        and fn.__module__ == mod.__name__
    ]


def self_times(spans) -> dict[int, int]:
    """Self time in ns per span id: its duration minus the part of its
    interval that the union of its child spans covers."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    bounds = {}
    for sid, parent, _name, start, end in spans:
        bounds[sid] = (start, end)
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


class SpanStats:
    """Per-name and per-layer aggregates over a list of spans."""

    def __init__(self, spans) -> None:
        selfs = self_times(spans)
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.layer_calls: Counter[str] = Counter()
        self.layer_self_ns: Counter[str] = Counter()
        self.durations: dict[str, list[int]] = defaultdict(list)
        for sid, _parent, name, start, end in spans:
            layer = name.split(".", 1)[0]
            self.calls[name] += 1
            self.self_ns[name] += selfs[sid]
            self.total_ns[name] += end - start
            self.layer_calls[layer] += 1
            self.layer_self_ns[layer] += selfs[sid]
            self.durations[name].append(end - start)
        self.spans = len(spans)

    def percentile_us(self, name: str, q: int) -> float:
        """The q-th percentile (1..99) of the span durations of name, in us."""
        samples = self.durations.get(name, [])
        if len(samples) < 2:
            return samples[0] / 1e3 if samples else 0.0
        return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] / 1e3
