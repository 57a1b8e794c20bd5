"""Outside-in tracing of the dicke_qpt layers.

The package is measured from outside: each traced public function is
replaced, in every ``dicke_qpt`` module namespace that refers to it, by a
wrapper that records one span (name, parent span, start, end).  Spans live
in flat arrays while the pass runs; self times, call counts and percentiles
are derived from them afterwards.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function, span name).  Span names are "<layer>.<what>".
TRACED = (
    ("cli", "main", "cli.main"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "measure_point_ed", "sweep.point"),
    ("sweep", "measure_point_td", "sweep.point"),
    ("sweep", "measure_point_perturbative", "sweep.point"),
    ("sweep", "emit", "sweep.emit"),
    ("sweep", "fit_critical_exponents", "sweep.fit"),
    ("sweep", "fit_entropy_scaling", "sweep.fit"),
    ("eigensolver", "converge_cutoff", "eigensolver.converge_cutoff"),
    ("eigensolver", "ground_state", "eigensolver.ground_state"),
    ("model", "build_basis", "model.build_basis"),
    ("model", "assemble_hamiltonian", "model.assemble_hamiltonian"),
    ("entanglement", "partial_trace", "entanglement.partial_trace"),
    ("entanglement", "von_neumann_entropy", "entanglement.von_neumann_entropy"),
    ("entanglement", "linear_entropy", "entanglement.linear_entropy"),
    ("entanglement", "average_linear_entropy_Q", "entanglement.average_linear_entropy_Q"),
    ("entanglement", "single_atom_rdm", "entanglement.single_atom_rdm"),
    ("entanglement", "collective_expectations", "entanglement.collective_expectations"),
    ("entanglement", "inverse_participation_ratio",
     "entanglement.inverse_participation_ratio"),
    ("perturbative", "perturbative_entropy", "perturbative.perturbative_entropy"),
) + tuple(("thermo", fn, "thermo." + fn) for fn in (
    "normal_solution", "sr_solution", "phase_solution", "rdm_params",
    "effective_temperature", "entropy_td", "linear_entropy_td", "ipr_td",
    "q_td", "q_td_derivative", "critical_asymptote"))

PROJ_DIM_BANDS = (("lt200", 0, 199), ("200to2000", 200, 2000),
                  ("gt2000", 2001, float("inf")))


def projected_dim(basis, project_parity=True) -> int:
    """Size of the block the eigensolver diagonalizes (parity sector or full)."""
    return int(np.count_nonzero(basis.parity > 0)) if project_parity else basis.dim


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "dicke_qpt" or name.startswith("dicke_qpt."))]


class Patches:
    """Replace a function in every dicke_qpt namespace; undo restores all."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def undo(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def _args(fn_args, kwargs, pos, name, default=None):
    if len(fn_args) > pos:
        return fn_args[pos]
    return kwargs.get(name, default)


class SolveCensus:
    """Counts ground solves by projected dimension; no clock reads.

    Untraced passes install only this counter so that every result file can
    carry the traffic census; it adds one array count per solve.
    """

    def __init__(self):
        self.dims: list[int] = []

    def install(self, patches: Patches) -> None:
        import dicke_qpt.eigensolver as es
        original = es.ground_state
        dims = self.dims

        @functools.wraps(original)
        def counted(*a, **k):
            dims.append(projected_dim(_args(a, k, 1, "basis"),
                                      _args(a, k, 3, "project_parity", True)))
            return original(*a, **k)

        patches.replace(original, counted)


class Tracer:
    """Records spans for every function in TRACED plus per-layer counters."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.dims: list[int] = []           # projected dimension of each solve
        self.final_solves: list[int] = []   # span index of each accepted solve
        self.last_solve = -1
        self.errors: dict[str, int] = {}
        self.nnz = 0
        self.emit_bytes = 0
        self.sweep_failures = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span, observe=None):
        nid = self._name_id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*a, **k):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*a, **k)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if observe is not None:
                    observe(idx, a, k, result, exc)

        return traced

    def _error(self, exc) -> None:
        key = type(exc).__name__
        self.errors[key] = self.errors.get(key, 0) + 1

    def install(self, patches: Patches) -> None:
        import importlib

        from dicke_qpt.errors import CutoffConvergenceError, SolverError

        def on_solve(idx, a, k, result, exc):
            self.dims.append(projected_dim(_args(a, k, 1, "basis"),
                                           _args(a, k, 3, "project_parity", True)))
            self.last_solve = idx
            if isinstance(exc, SolverError):
                self._error(exc)

        def on_converge(idx, a, k, result, exc):
            # converge_cutoff returns right after the solve it accepts
            if exc is None:
                self.final_solves.append(self.last_solve)
            elif isinstance(exc, CutoffConvergenceError):
                self._error(exc)

        def on_assemble(idx, a, k, result, exc):
            if exc is None:
                self.nnz += int(result.nnz)

        def on_emit(idx, a, k, result, exc):
            if exc is None:
                self.emit_bytes += len(result.encode())

        def on_sweep(idx, a, k, result, exc):
            if exc is None:
                self.sweep_failures += len(result[1])

        observers = {"ground_state": on_solve, "converge_cutoff": on_converge,
                     "assemble_hamiltonian": on_assemble, "emit": on_emit,
                     "run_sweep": on_sweep}
        for module, fn_name, span in TRACED:
            mod = importlib.import_module("dicke_qpt." + module)
            original = getattr(mod, fn_name)
            patches.replace(original, self._wrap(original, span, observers.get(fn_name)))

    def spans(self) -> dict:
        """The recorded spans as arrays (for writing out and for summary)."""
        return {"names": np.array(self.span_names),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass that took wall_s seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        layer_of = np.array([s.split(".")[0] for s in self.span_names] or [""])
        layer = layer_of[name] if name.size else np.array([], dtype=str)
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")

        def mask(span):
            nid = self._name_ids.get(span)
            return name == nid if nid is not None else np.zeros(name.size, bool)

        def calls(span):
            return int(mask(span).sum())

        def self_s(span):
            return float(self_t[mask(span)].sum())

        def pct_ms(span, q):
            d = dur[mask(span)]
            return float(np.percentile(d, q) * 1e3) if d.size else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        gs, cc = "eigensolver.ground_state", "eigensolver.converge_cutoff"
        ipr = "entanglement.inverse_participation_ratio"
        dims = np.array(self.dims, dtype=np.int64)
        in_thermo = layer == "thermo"
        m: dict = {
            gs + ".calls": calls(gs), gs + ".self_s": self_s(gs),
            gs + ".p50_ms": pct_ms(gs, 50), gs + ".p90_ms": pct_ms(gs, 90),
            gs + ".wall_frac": ratio(self_s(gs), wall_s),
            cc + ".calls": calls(cc), cc + ".self_s": self_s(cc),
            "eigensolver.solves_per_point": ratio(calls(gs), calls(cc)),
            "eigensolver.final_solve_frac": ratio(
                float(self_t[np.array(self.final_solves, dtype=np.int64)].sum()), self_s(gs)),
        }
        for band, lo, hi in PROJ_DIM_BANDS:
            m[f"eigensolver.proj_dim.{band}"] = int(((dims >= lo) & (dims <= hi)).sum())
        m["eigensolver.proj_dim.max"] = int(dims.max()) if dims.size else 0
        m["eigensolver.errors"] = sum(self.errors.values())
        for span in ("model.build_basis", "model.assemble_hamiltonian", ipr):
            m[span + ".calls"] = calls(span)
            m[span + ".self_s"] = self_s(span)
        m["model.assemble_hamiltonian.nnz"] = self.nnz
        m[ipr + ".p50_ms"] = pct_ms(ipr, 50)
        for fn in ("partial_trace", "von_neumann_entropy", "linear_entropy",
                   "average_linear_entropy_Q", "single_atom_rdm", "collective_expectations"):
            m[f"entanglement.{fn}.self_s"] = self_s("entanglement." + fn)
        m["thermo.calls"] = int((in_thermo & (parent_layer != "thermo")).sum())
        m["thermo.self_s"] = float(self_t[in_thermo].sum())
        pe = "perturbative.perturbative_entropy"
        m[pe + ".calls"] = calls(pe)
        m[pe + ".self_s"] = self_s(pe)
        m["sweep.run_sweep.self_s"] = self_s("sweep.run_sweep")
        m["sweep.point.p50_ms"] = pct_ms("sweep.point", 50)
        m["sweep.point.p90_ms"] = pct_ms("sweep.point", 90)
        m["sweep.points"] = calls("sweep.point")
        m["sweep.failures"] = self.sweep_failures
        m["sweep.emit.self_s"] = self_s("sweep.emit")
        m["sweep.emit.bytes"] = self.emit_bytes
        m["sweep.fit.self_s"] = self_s("sweep.fit")
        m["cli.main.self_s"] = self_s("cli.main")
        m["trace.spans"] = int(name.size)
        m["trace.coverage_frac"] = ratio(float(self_t.sum()), wall_s)
        return m
