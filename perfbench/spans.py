"""Timing wrappers installed on the public names mmrom's modules import.

While a traced cell runs, the names below are replaced by wrappers that open
a span (name, start, end, parent, cell id) around each call.  Spans stay in
memory and the worker writes them out when the run ends.  Names called
thousands of times per cell (single-point ``PolyMap`` calls, ``eval_basis``)
are counted and timed but not kept as spans; their time is still child time
of the span that called them, so every span's self time is its duration minus
that of its children, and the self times of one cell add up to its wall time.
Calls of a problem's plain-Python callables (the per-node loops over callable
dynamics) are only counted: timing each would cost more than the call.

The peak memory of assembly is measured with tracemalloc on a second,
untimed call of ``assemble_operators`` with the same arguments, once per grid
cell, because tracemalloc slows the Python-level allocations it watches.

A name that a later version of mmrom no longer has is skipped; the metrics
that depend on it are then absent, not zero.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from mmrom.problems import PolyMap

MiB = 2.0 ** 20

# span name -> layer (mmrom module, or the harness for the cell itself)
LAYERS = {
    "cell": "harness",
    "make_problem": "problems",
    "PolyMap.point": "problems",
    "PolyMap.batch": "problems",
    "callable": "problems",
    "generate_basis": "basis",
    "eval_basis": "basis",
    "assemble_operators": "assembly",
    "residual_F": "assembly",
    "jacobian_JF": "assembly",
    "newton_step": "linear",
    "solve_invariance": "newton",
    "residual_norm": "residuals",
    "default_gain": "rom",
    "build_rom": "rom",
    "simulate_fom": "simulate",
    "simulate_rom": "simulate",
    "solve_ivp": "simulate",
    "steady_state_rms": "simulate",
}


def nbytes(obj) -> int:
    """Sum of ndarray nbytes reachable through dataclass fields and lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(x) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


@dataclasses.dataclass
class CellTrace:
    wall_s: float
    stats: dict      # span name -> [calls, inclusive seconds, self seconds]
    counters: dict   # named counts recorded by the hooks


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent index, cell id]
        self.missing: set[str] = set()  # span names with nothing to wrap
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._installed: list[tuple] = []
        self.cell_id = None
        self.stats = None
        self.counters = None
        self.last: CellTrace | None = None
        self.active = False
        self._assembly_call = None
        self._assembly_peaks: dict = {}  # cell key -> peak traced bytes

    # -- frames --------------------------------------------------------------
    def _enter(self, name: str, keep: bool) -> list:
        index = None
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.cell_id])
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        stat = self.stats[frame[0]]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] is not None:
            span = self.spans[frame[3]]
            span[1], span[2] = frame[1] - self.t0, end - self.t0
        return duration

    def wrap(self, fn, name, keep=True, on_call=None, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call:
                on_call(fn, args, kwargs)
            frame = tracer._enter(name, keep)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(frame)
                if on_error:
                    on_error(exc)
                raise
            tracer._exit(frame)
            if on_result:
                on_result(out)
            return out

        return wrapper

    # -- hooks ---------------------------------------------------------------
    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def _assemble_called(self, fn, args, kwargs):
        self._assembly_call = (fn, args, kwargs)

    def _assembled(self, ops):
        self._count("assembly.operator_bytes", nbytes(ops))

    def measure_assembly_peak(self, key) -> None:
        """Replay the last traced cell's assembly under tracemalloc; call it
        outside the timed region."""
        if self._assembly_call is None:
            return
        if key not in self._assembly_peaks:
            fn, args, kwargs = self._assembly_call
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self._assembly_peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self.last.counters["assembly.peak_bytes"] = self._assembly_peaks[key]

    def _solved(self, solution):
        self._count("newton.solves")
        self._count("newton.iterations", solution.iterations)
        self._count("newton.converged", bool(solution.converged))

    def _step_called(self, fn, args, kwargs):
        self._count("linear.jacobian_bytes", nbytes(args[0]))

    def _step_failed(self, exc):
        if isinstance(exc, np.linalg.LinAlgError):
            self._count("linear.fallbacks")

    def _integrated(self, sol):
        self._count("simulate.nfev", sol.nfev)
        self._count("simulate.steps", len(sol.t) - 1)

    def _problem_built(self, problem):
        """Count every call of a problem's plain-Python callables (PolyMaps
        are counted by the class wrapper)."""
        for owner, attrs in ((problem.generator, ("s", "l", "s_jacobian", "l_jacobian")),
                             (problem.system, ("f", "h", "f_jacobian_x", "f_jacobian_u"))):
            for attr in attrs:
                fn = getattr(owner, attr, None)
                if fn is None or isinstance(fn, PolyMap) or isinstance(getattr(fn, "__self__", None), PolyMap):
                    continue
                setattr(owner, attr, self._counted(fn, "callable"))

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.stats[name][0] += 1
            return fn(*args, **kwargs)

        return counted

    def _polymap_call(self, original):
        tracer = self

        @functools.wraps(original)
        def call(polymap, z):
            if not tracer.active:
                return original(polymap, z)
            frame = tracer._enter("PolyMap.point" if np.ndim(z) == 1 else "PolyMap.batch", False)
            try:
                return original(polymap, z)
            finally:
                tracer._exit(frame)

        return call

    # -- installation ----------------------------------------------------------
    def _targets(self):
        """(module, attribute, span name, wrapper) for every wrapped name."""
        def span(name, **hooks):
            return name, lambda fn: self.wrap(fn, name, **hooks)

        def leaf(name):
            return name, lambda fn: self.wrap(fn, name, keep=False)

        problem = span("make_problem", on_result=self._problem_built)
        return [
            ("mmrom.bench", "make_benchmark_problem", *problem),
            ("mmrom.config", "build_problem", *problem),
            ("mmrom.bench", "generate_basis", *span("generate_basis")),
            ("mmrom.bench", "assemble_operators", *span(
                "assemble_operators", on_call=self._assemble_called, on_result=self._assembled)),
            ("mmrom.bench", "solve_invariance", *span("solve_invariance", on_result=self._solved)),
            ("mmrom.newton", "residual_F", *span("residual_F")),
            ("mmrom.newton", "jacobian_JF", *span("jacobian_JF")),
            ("mmrom.newton", "newton_step", *span(
                "newton_step", on_call=self._step_called, on_error=self._step_failed)),
            ("mmrom.bench", "residual_norm", *span("residual_norm")),
            ("mmrom.residuals", "residual_norm", *span("residual_norm")),
            ("mmrom.bench", "default_gain", *span("default_gain")),
            ("mmrom.bench", "build_rom", *span("build_rom")),
            ("mmrom.bench", "simulate_fom", *span("simulate_fom")),
            ("mmrom.bench", "simulate_rom", *span("simulate_rom")),
            ("mmrom.simulate", "solve_ivp", *span("solve_ivp", on_result=self._integrated)),
            ("mmrom.bench", "steady_state_rms", *span("steady_state_rms")),
            ("mmrom.assembly", "eval_basis", *leaf("eval_basis")),
            ("mmrom.residuals", "eval_basis", *leaf("eval_basis")),
            ("mmrom.rom", "eval_basis", *leaf("eval_basis")),
            ("mmrom.problems", "PolyMap.__call__", "PolyMap", self._polymap_call),
        ]

    def _install(self) -> None:
        installed = set()
        for module_name, attr, name, factory in self._targets():
            owner = importlib.import_module(module_name)
            *path, leaf_attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf_attr, None)
            if original is None:
                continue
            installed.add(name)
            setattr(owner, leaf_attr, factory(original))
            self._installed.append((owner, leaf_attr, original))
        self.missing = {name for _, _, name, _ in self._targets()} - installed

    def _uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def run_cell(self, cell_id, fn):
        """Run fn() as one traced cell; the trace is left in self.last."""
        self.cell_id = cell_id
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self._assembly_call = None
        self._install()
        self.active = True
        frame = self._enter("cell", True)
        try:
            return fn()
        finally:
            wall = self._exit(frame)
            self.active = False
            self._uninstall()
            self.last = CellTrace(wall_s=wall, stats=dict(self.stats), counters=dict(self.counters))

    def span_records(self) -> list[dict]:
        return [{"name": n, "layer": LAYERS[n], "start": s, "end": e, "parent": p, "cell": c}
                for n, s, e, p, c in self.spans]


# Per-layer metrics: name -> (unit, span names it needs, value from the totals
# over all traced cells).  Seconds and counts are per traced cell unless the
# value divides by something else.
def _per_cell(value):
    return lambda t: value(t) / t.cells


def _incl(name):
    return _per_cell(lambda t: t.stat(name)[1])


def _calls(name):
    return _per_cell(lambda t: t.stat(name)[0])


def _layer_self(layer):
    names = [n for n, lay in LAYERS.items() if lay == layer]
    return names, _per_cell(lambda t: sum(t.stat(n)[2] for n in names))


def _ratio(num, den):
    return lambda t: t.counter(num) / max(t.counter(den), 1.0)


def _per_call(key, name, scale=1.0):
    return lambda t: t.counter(key) / scale / max(t.stat(name)[0], 1)


PER_LAYER = {
    "assembly.assemble_operators_s": ("s", ["assemble_operators"], _incl("assemble_operators")),
    "assembly.operator_bytes": ("bytes", ["assemble_operators"],
                                _per_call("assembly.operator_bytes", "assemble_operators")),
    "assembly.assemble_peak_mb": ("MiB", ["assemble_operators"],
                                  _per_call("assembly.peak_bytes", "assemble_operators", MiB)),
    "assembly.residual_F_s": ("s", ["residual_F"], _incl("residual_F")),
    "assembly.residual_F_calls": ("count", ["residual_F"], _calls("residual_F")),
    "assembly.jacobian_JF_s": ("s", ["jacobian_JF"], _incl("jacobian_JF")),
    "assembly.jacobian_JF_calls": ("count", ["jacobian_JF"], _calls("jacobian_JF")),
    "linear.step_s": ("s", ["newton_step"], _incl("newton_step")),
    "linear.step_calls": ("count", ["newton_step"], _calls("newton_step")),
    "linear.fallbacks": ("count", ["newton_step"], _per_cell(lambda t: t.counter("linear.fallbacks"))),
    "linear.jacobian_bytes": ("bytes", ["newton_step"], _per_call("linear.jacobian_bytes", "newton_step")),
    "newton.solve_s": ("s", ["solve_invariance"], _incl("solve_invariance")),
    "newton.iterations": ("count", ["solve_invariance"], _ratio("newton.iterations", "newton.solves")),
    "newton.converged_ratio": ("ratio", ["solve_invariance"], _ratio("newton.converged", "newton.solves")),
    "residuals.residual_norm_s": ("s", ["residual_norm"], _incl("residual_norm")),
    "problems.polymap_point_calls": ("count", ["PolyMap"], _calls("PolyMap.point")),
    "problems.polymap_point_s": ("s", ["PolyMap"], _incl("PolyMap.point")),
    "problems.polymap_batch_calls": ("count", ["PolyMap"], _calls("PolyMap.batch")),
    "problems.polymap_batch_s": ("s", ["PolyMap"], _incl("PolyMap.batch")),
    "problems.callable_calls": ("count", ["make_problem"], _calls("callable")),
    "basis.eval_basis_calls": ("count", ["eval_basis"], _calls("eval_basis")),
    "basis.eval_basis_s": ("s", ["eval_basis"], _incl("eval_basis")),
    "simulate.simulate_fom_s": ("s", ["simulate_fom"], _incl("simulate_fom")),
    "simulate.simulate_rom_s": ("s", ["simulate_rom"], _incl("simulate_rom")),
    "simulate.nfev": ("count", ["solve_ivp"], _per_cell(lambda t: t.counter("simulate.nfev"))),
    "simulate.steps": ("count", ["solve_ivp"], _per_cell(lambda t: t.counter("simulate.steps"))),
    "rom.build_rom_s": ("s", ["build_rom"], _incl("build_rom")),
}
for _layer in ("harness", "problems", "basis", "assembly", "linear", "newton", "residuals", "rom", "simulate"):
    _names, _value = _layer_self(_layer)
    PER_LAYER[f"{_layer}.self_s"] = ("s", [n for n in _names if n != "cell"], _value)


class Totals:
    """Span statistics and counters summed over every traced cell."""

    def __init__(self, traces: list[CellTrace]):
        self.cells = max(len(traces), 1)
        self.wall_s = sum(t.wall_s for t in traces)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        for t in traces:
            for name, (calls, incl, self_s) in t.stats.items():
                acc = self.stats[name]
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_s
            for key, value in t.counters.items():
                self.counters[key] += value

    def stat(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))

    def counter(self, key):
        return self.counters.get(key, 0.0)


def layer_metrics(traces: list[CellTrace], missing: set[str]) -> dict:
    """Every per-layer metric whose wrapped names were all found, plus the
    share of traced cell wall time that the layer self times account for."""
    totals = Totals(traces)
    out = {}
    for name, (unit, needs, value) in PER_LAYER.items():
        if not missing.intersection(needs):
            out[name] = (value(totals), unit)
    accounted = sum(totals.stat(n)[2] for n in LAYERS)
    out["trace.accounted_ratio"] = (accounted / totals.wall_s if totals.wall_s else 0.0, "ratio")
    return out
