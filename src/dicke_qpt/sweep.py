"""Coupling/system-size sweeps, finite-size scaling fits, and dataset emission.

Sweep points are independent work items evaluated through one of three
backends: exact diagonalization at finite N ("ed"), the thermodynamic-limit
closed forms ("td"), or the weak-coupling expansion ("perturbative").
Reports are sorted canonically before emission so identical configurations
reproduce byte-identical output files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from numbers import Integral, Real
from operator import attrgetter

import numpy as np

from . import entanglement, thermo
from .eigensolver import (DEFAULT_ENERGY_TOL, DEFAULT_GROWTH, DEFAULT_TOL,
                          converge_cutoff)
from .errors import ConfigError, DickeError, FitError
from .model import DEFAULT_MAX_DIMENSION, make_params
from .perturbative import perturbative_entropy

KNOWN_MEASURES = ("s_vn", "l_lin", "q_avg", "ipr_inv", "t_eff", "kappa")
KNOWN_BACKENDS = ("ed", "td", "perturbative")
BASE_COLUMNS = ("lambda", "lambda_rel", "n_atoms", "n_max", "s_vn", "l_lin",
                "q_avg", "ipr_inv", "jz_mean", "residual", "converged")
EXTRA_COLUMNS = ("t_eff", "kappa")
# output columns named differently from their MeasureReport attribute
_ATTRIBUTES = {"lambda": "coupling", "lambda_rel": "coupling_rel"}
_PLAIN_TYPES = frozenset((type(None), bool, int, float, str))
_JSON_NONFINITE = {"Infinity": '"inf"', "-Infinity": '"-inf"', "NaN": '"nan"'}
# reports per JSON encoder pass: bounds the transient one-string-per-value list
_JSON_BLOCK = 4096
# relative half-width of the lambda_c hole punched into TD grids
CRITICAL_EXCLUSION = 1e-12
# domain failures that become per-point rows; anything else is a bug and raises
POINT_ERRORS = (DickeError, np.linalg.LinAlgError)


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean {raw!r}")


def _parse_list(raw: str) -> tuple:
    """Comma-separated tokens, stripped; empty tokens are dropped."""
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _parse_n_atoms(raw: str) -> tuple:
    """Comma list of atom numbers; inf or infinity (any case) becomes "inf"."""
    return tuple("inf" if tok.lower() in ("inf", "infinity") else int(tok)
                 for tok in _parse_list(raw))


def _option(default, parse, help: str | None = None):
    """A SweepConfig field read from text by parse; with help it is also a --flag."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class SweepConfig:
    """Sweep definition.  Coupling bounds are in units of lambda_c.

    lambda_scale "linear" spaces couplings uniformly on
    [lambda_min, lambda_max] * lambda_c; "log" spaces the relative offset
    |lambda - lambda_c| / lambda_c logarithmically on
    [lambda_min, lambda_max], at most 1, and places points on both sides
    of lambda_c.
    n_atoms entries are positive ints; the string "inf" requests
    thermodynamic-limit rows.  tol is the cutoff-convergence energy
    tolerance; solver_tol bounds each eigenpair residual relative to |E|.
    two_lobe=False reports the broken-symmetry single-lobe entropy above
    lambda_c.  Every field is a config-file key, and its metadata holds the
    "parse" function that reads it from text, for the key and the flag
    alike; each field with "help" metadata is also a --flag of the same name
    (two_lobe has none, only --single-lobe).
    """

    omega: float = _option(1.0, float, "field frequency (default 1)")
    omega0: float = _option(1.0, float, "atomic splitting (default 1)")
    lambda_min: float = _option(
        0.0, float, "grid start in units of lambda_c (log scale: relative offset)")
    lambda_max: float = _option(
        3.0, float, "grid end in units of lambda_c (log scale: relative offset)")
    lambda_steps: int = _option(16, int, "number of grid points (>= 2)")
    lambda_scale: str = _option(
        "linear", str, "linear grid, or log for log-spaced offsets straddling lambda_c")
    n_atoms: tuple = _option(
        (8,), _parse_n_atoms,
        "comma list of atom numbers; 'inf' adds thermodynamic-limit rows")
    measures: tuple = _option(("s_vn", "l_lin", "q_avg", "ipr_inv"), _parse_list,
                              "comma subset of " + ",".join(KNOWN_MEASURES))
    backend: str = _option(
        "ed", str, "ed (finite-N), td (closed forms), perturbative, or all")
    cutoff_start: int | None = _option(
        None, int, "initial boson cutoff (default: displacement estimate)")
    cutoff_growth: float = _option(
        DEFAULT_GROWTH, float,
        f"cutoff escalation factor (> 1, default {DEFAULT_GROWTH:g})")
    tol: float = _option(DEFAULT_ENERGY_TOL, float, "cutoff-convergence energy tolerance")
    solver_tol: float = _option(
        DEFAULT_TOL, float,
        f"eigenpair residual tolerance, relative to |E| (default {DEFAULT_TOL:g})")
    two_lobe: bool = _option(True, _parse_bool)
    max_dim: int = _option(DEFAULT_MAX_DIMENSION, int,
                           "basis dimension ceiling (capacity guard)")

    def validate(self) -> None:
        # a non-number in a float field would escape the comparisons below
        # as a bare TypeError, and a truthy non-bool (the string "false")
        # would pass for True
        for option in fields(self):
            value = getattr(self, option.name)
            if option.metadata["parse"] is float and not isinstance(value, Real):
                raise ConfigError(f"{option.name} must be a real number, got {value!r}")
            if option.metadata["parse"] is _parse_bool and not isinstance(value, bool):
                raise ConfigError(f"{option.name} must be a bool, got {value!r}")
        # every range check is a chained comparison, which NaN fails
        if not (0 < self.omega < math.inf and 0 < self.omega0 < math.inf):
            raise ConfigError("frequencies must be positive and finite")
        if not (isinstance(self.lambda_steps, Integral) and 2 <= self.lambda_steps):
            raise ConfigError("lambda_steps must be an integer >= 2")
        if self.lambda_scale not in ("linear", "log"):
            raise ConfigError(f"unknown lambda_scale {self.lambda_scale!r}")
        if self.lambda_scale == "linear":
            if not (0 <= self.lambda_min < self.lambda_max < math.inf):
                raise ConfigError("need 0 <= lambda_min < lambda_max < inf")
        else:
            # an offset above 1 would put grid points at negative couplings
            if not (0 < self.lambda_min < self.lambda_max <= 1):
                raise ConfigError("log scale needs 0 < lambda_min < lambda_max <= 1 "
                                  "(relative offsets from lambda_c)")
        if self.backend not in KNOWN_BACKENDS + ("all",):
            raise ConfigError(f"unknown backend {self.backend!r}")
        for meas in self.measures:
            if meas not in KNOWN_MEASURES:
                raise ConfigError(f"unknown measure {meas!r}")
        if not 1.0 < self.cutoff_growth < math.inf:
            raise ConfigError("cutoff_growth must be finite and exceed 1")
        if self.cutoff_start is not None and not (
                isinstance(self.cutoff_start, Integral) and 0 <= self.cutoff_start):
            raise ConfigError("cutoff_start must be None or an integer >= 0")
        if not (0 < self.tol < math.inf and 0 < self.solver_tol < math.inf):
            raise ConfigError("tol and solver_tol must be positive and finite")
        if not (isinstance(self.max_dim, Integral) and 1 <= self.max_dim):
            raise ConfigError("max_dim must be an integer >= 1")
        for n in self.n_atoms:
            if n != "inf" and not (isinstance(n, Real) and 1 <= n < math.inf
                                   and int(n) == n):
                raise ConfigError(f"bad n_atoms entry {n!r}")

    @property
    def lambda_c(self) -> float:
        return math.sqrt(self.omega * self.omega0) / 2.0

    def lambda_grid(self) -> np.ndarray:
        """Absolute coupling values of the sweep grid, ascending."""
        lc = self.lambda_c
        if self.lambda_scale == "linear":
            return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps) * lc
        offsets = np.logspace(math.log10(self.lambda_min),
                              math.log10(self.lambda_max), self.lambda_steps)
        grid = np.concatenate([lc * (1.0 - offsets), lc * (1.0 + offsets)])
        return np.sort(grid)

    def td_lambda_grid(self) -> np.ndarray:
        """Sweep grid with the critical point excluded (divergence hole)."""
        grid = self.lambda_grid()
        lc = self.lambda_c
        return grid[np.abs(grid - lc) > CRITICAL_EXCLUSION * lc]

    def backends(self) -> tuple:
        """The backends to run, in KNOWN_BACKENDS order; an "inf" entry adds td."""
        return tuple(b for b in KNOWN_BACKENDS if self.backend in (b, "all")
                     or (b == "td" and "inf" in self.n_atoms))

    def integer_n_atoms(self) -> tuple:
        return tuple(int(n) for n in self.n_atoms if n != "inf")


@dataclass(slots=True)
class MeasureReport:
    """One evaluated sweep point.

    Not frozen: a sweep builds one per point, and a frozen dataclass takes
    about four times as long to construct.
    """

    backend: str
    coupling: float
    coupling_rel: float
    n_atoms: object            # int, math.inf, or None (N-independent backend)
    n_max: int | None = None
    s_vn: float | None = None
    l_lin: float | None = None
    q_avg: float | None = None
    ipr_inv: float | None = None
    jz_mean: float | None = None
    residual: float | None = None
    converged: bool | None = None
    t_eff: float | None = None
    kappa: float | None = None

    def sort_key(self):
        backend_rank = KNOWN_BACKENDS.index(self.backend)
        n_key = -1.0 if self.n_atoms is None else float(self.n_atoms)
        return (backend_rank, n_key, self.coupling)


@dataclass(frozen=True)
class SweepFailure:
    """A per-point failure recorded without aborting the sweep.

    error is the exception class name and message the "Class: text" line.
    residual is a SolverError's best residual and energy_history a
    CutoffConvergenceError's ground energies; other errors leave them None
    and empty.
    """

    backend: str
    coupling: float
    n_atoms: object
    message: str
    error: str = ""
    residual: float | None = None
    energy_history: tuple = ()

    @classmethod
    def from_exception(cls, backend: str, coupling: float, n_atoms,
                       exc: Exception) -> "SweepFailure":
        return cls(backend=backend, coupling=coupling, n_atoms=n_atoms,
                   message=f"{type(exc).__name__}: {exc}", error=type(exc).__name__,
                   residual=getattr(exc, "residual", None),
                   energy_history=tuple(getattr(exc, "energy_history", ())))

    def as_dict(self) -> dict:
        return {"backend": self.backend, "lambda": self.coupling,
                "n_atoms": self.n_atoms, "message": self.message,
                "error": self.error, "residual": self.residual,
                "energy_history": list(self.energy_history)}


@dataclass(frozen=True)
class ScalingFit:
    """A fitted exponent with its uncertainty and diagnostics."""

    quantity: str
    exponent: float
    stderr: float
    window: tuple
    residual: float
    peaks: tuple = field(default=())

    def as_dict(self) -> dict:
        return {"quantity": self.quantity, "exponent": self.exponent,
                "stderr": self.stderr, "window": list(self.window),
                "residual": self.residual,
                "peaks": [list(p) for p in self.peaks]}


def measure_point_ed(config: SweepConfig, n_atoms: int, coupling: float,
                     start: np.ndarray | None = None) -> tuple[MeasureReport, np.ndarray]:
    """The point's report and ground amplitudes; start as in converge_cutoff."""
    params = make_params(config.omega, config.omega0, coupling, n_atoms)
    state = converge_cutoff(params, n_max_start=config.cutoff_start,
                            growth=config.cutoff_growth, energy_tol=config.tol,
                            tol=config.solver_tol, max_dim=config.max_dim,
                            start=start)
    basis = state.basis
    values: dict = {}
    atoms_rdm = None
    if "s_vn" in config.measures or "l_lin" in config.measures:
        atoms_rdm = entanglement.partial_trace(state, basis, keep="atoms")
    if "s_vn" in config.measures:
        values["s_vn"] = entanglement.von_neumann_entropy(atoms_rdm)
    if "l_lin" in config.measures:
        values["l_lin"] = entanglement.linear_entropy(atoms_rdm, n_atoms + 1)
    if "q_avg" in config.measures:
        values["q_avg"] = entanglement.average_linear_entropy_Q(state, basis,
                                                                _atoms_rdm=atoms_rdm)
    if "ipr_inv" in config.measures:
        values["ipr_inv"] = entanglement.inverse_participation_ratio(state, basis, params)
    jz = entanglement.collective_expectations(state, basis)["jz"]
    report = MeasureReport(backend="ed", coupling=coupling,
                           coupling_rel=coupling / params.lambda_c,
                           n_atoms=n_atoms, n_max=state.basis.n_max,
                           jz_mean=jz / n_atoms, residual=state.residual,
                           converged=state.converged, **values)
    return report, state.amplitudes


def measure_point_td(config: SweepConfig, n_atoms: None, coupling: float,
                     start: None = None) -> tuple[MeasureReport, None]:
    # the closed forms do not depend on N: n_atoms and start are unused, and
    # make_params gets any valid value
    params = make_params(config.omega, config.omega0, coupling, 2)
    forms = thermo.closed_forms(params, two_lobe=config.two_lobe)
    return MeasureReport(backend="td", coupling=coupling,
                         coupling_rel=coupling / params.lambda_c, n_atoms=math.inf,
                         jz_mean=forms.jz_mean, converged=True,
                         **{m: getattr(forms, m) for m in config.measures}), None


def measure_point_perturbative(config: SweepConfig, n_atoms: None, coupling: float,
                               start: None = None) -> tuple[MeasureReport, None]:
    params = make_params(config.omega, config.omega0, coupling, 2)
    return MeasureReport(backend="perturbative", coupling=coupling,
                         coupling_rel=coupling / params.lambda_c, n_atoms=None,
                         s_vn=perturbative_entropy(params), converged=True), None


def run_sweep(config: SweepConfig) -> tuple[list[MeasureReport], list[SweepFailure]]:
    """Evaluate every (coupling, N, backend) point; domain failures are per-point.

    Returns (reports, failures), reports sorted canonically so downstream
    output is independent of evaluation order.  Errors outside POINT_ERRORS
    propagate.  The points of one N run in ascending coupling, and each gets
    the amplitudes that the point before it returned as its start, so an ED
    point starts its first Lanczos solve from the previous point's ground
    state; the first point of each N, and a point after a failed one, start
    from the fixed vector.
    """
    config.validate()
    # backend -> (point function, atom numbers, coupling grid).  Built per
    # call, so the point functions are the module attributes of the moment.
    # The N-independent backends take n_atoms=None, which failure rows keep.
    plan = {"ed": (measure_point_ed, config.integer_n_atoms(), config.lambda_grid()),
            "td": (measure_point_td, (None,), config.td_lambda_grid()),
            "perturbative": (measure_point_perturbative, (None,), config.lambda_grid())}
    reports: list[MeasureReport] = []
    failures: list[SweepFailure] = []
    for backend in config.backends():
        measure, atom_numbers, grid = plan[backend]
        for n in atom_numbers:
            start = None
            for lam in grid.tolist():
                try:
                    report, start = measure(config, n, lam, start)
                    reports.append(report)
                except POINT_ERRORS as exc:
                    start = None
                    failures.append(SweepFailure.from_exception(backend, lam, n, exc))
    reports.sort(key=MeasureReport.sort_key)
    failures.sort(key=lambda f: (f.backend, f.coupling))
    return reports, failures


def _parabola_peak(x: np.ndarray, y: np.ndarray, k: int) -> tuple[float, float]:
    """Vertex of the parabola through points k-1, k, k+1 (refines a grid max)."""
    x0, x1, x2 = x[k - 1], x[k], x[k + 1]
    y0, y1, y2 = y[k - 1], y[k], y[k + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a >= 0:
        return float(x1), float(y1)
    xv = -b / (2 * a)
    c = y1 - a * x1**2 - b * x1
    return float(xv), float(a * xv**2 + b * xv + c)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope with standard error and RMS residual."""
    coef, cov = np.polyfit(x, y, 1, cov=True)
    resid = y - np.polyval(coef, x)
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(np.sqrt(cov[0, 0])), rms


def fit_entropy_scaling(reports: list[MeasureReport]) -> ScalingFit:
    """Fit the per-N entropy maximum against log2 N.

    Needs ED reports with s_vn for at least four system sizes, each with its
    peak resolved strictly inside the coupling grid; the grid maximum is
    refined by a local parabola.  Returns the exponent x of
    S_max ~ x * log2 N.
    """
    by_n: dict[int, list[MeasureReport]] = {}
    for rep in reports:
        if (rep.backend == "ed" and rep.s_vn is not None and rep.converged
                and rep.n_atoms not in (None, math.inf)):
            by_n.setdefault(int(rep.n_atoms), []).append(rep)
    if len(by_n) < 4:
        raise FitError(f"need >= 4 system sizes with entropy data, got {len(by_n)}")
    peaks = []
    for n in sorted(by_n):
        pts = sorted(by_n[n], key=lambda r: r.coupling)
        lam = np.array([p.coupling for p in pts])
        s = np.array([p.s_vn for p in pts])
        k = int(np.argmax(s))
        if k == 0 or k == len(s) - 1:
            raise FitError(f"entropy peak for N={n} sits on the grid boundary")
        lam_max, s_max = _parabola_peak(lam, s, k)
        peaks.append((n, lam_max, s_max))
    ns = np.array([p[0] for p in peaks], dtype=float)
    smax = np.array([p[2] for p in peaks])
    slope, stderr, rms = _line_fit(np.log2(ns), smax)
    return ScalingFit(quantity="s_vn_peak", exponent=slope, stderr=stderr,
                      window=(float(ns.min()), float(ns.max())),
                      residual=rms, peaks=tuple(peaks))


def fit_critical_exponents(reports: list[MeasureReport], omega: float,
                           omega0: float) -> dict[str, ScalingFit]:
    """Log-log slopes of the gap, length scale, and entropy below lambda_c.

    Input: TD reports on a log-spaced window approaching lambda_c from
    below, and the frequencies of the sweep that made them, which fix
    lambda_c and the exact gap values.  Every TD report must lie on that
    lambda_c (coupling = coupling_rel * lambda_c within 1e-9 lambda_c);
    invalid frequencies raise ParameterError.
    The gap eps- and length l- = eps-^-1/2 are recomputed from the
    coupling; the entropy slope is taken against log2|lambda_c - lambda|.
    Expected exponents: +1/2, -1/4, and -1/4.
    """
    pts = [r for r in reports if r.backend == "td" and r.s_vn is not None]
    if not pts:
        raise FitError("no thermodynamic-limit entropy reports to fit")
    lc = make_params(omega, omega0, 0.0, 2).lambda_c
    if not all(abs(r.coupling - r.coupling_rel * lc) <= 1e-9 * lc for r in pts):
        raise FitError("reports do not lie on the given frequencies' lambda_c")
    below = sorted((r for r in pts if r.coupling < lc), key=lambda r: r.coupling)
    if len(below) < 3:
        raise FitError("need >= 3 points below lambda_c")
    delta = np.array([lc - r.coupling for r in below])
    if delta.min() / lc < 1e-12:
        raise FitError("window reaches too close to lambda_c for stable floats")
    s_vn = np.array([r.s_vn for r in below])
    eps_minus = np.array([
        thermo.normal_solution(make_params(omega, omega0, rep.coupling, 2)).eps_minus
        for rep in below])
    window = (float(delta.min() / lc), float(delta.max() / lc))
    out = {}
    slope, err, rms = _line_fit(np.log(delta), np.log(eps_minus))
    out["eps_minus"] = ScalingFit("eps_minus", slope, err, window, rms)
    slope, err, rms = _line_fit(np.log(delta), -0.5 * np.log(eps_minus))
    out["l_minus"] = ScalingFit("l_minus", slope, err, window, rms)
    slope, err, rms = _line_fit(np.log2(delta), s_vn)
    out["s_vn"] = ScalingFit("s_vn", slope, err, window, rms)
    return out


def _plain(value):
    """The Python scalar that a report value equals.

    numpy bools, numpy integers and float subclasses such as numpy.float64
    become bool, int and float, so both formats write them as those.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _columns(reports: list[MeasureReport], columns: tuple) -> list[list]:
    """One list of plain Python scalars per output column."""
    out = []
    for column in columns:
        values = list(map(attrgetter(_ATTRIBUTES.get(column, column)), reports))
        if not _PLAIN_TYPES.issuperset(map(type, values)):
            values = list(map(_plain, values))
        out.append(values)
    return out


def _csv_text(columns: tuple, cells: list[list]) -> str:
    """Header and rows: bools as true/false, None empty, the rest as str()."""
    for k, values in enumerate(cells):
        if bool in set(map(type, values)):
            cells[k] = ["true" if v is True else "false" if v is False else v
                        for v in values]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buf.getvalue()


def _json_reports(cells: list[list], columns: tuple) -> list[str]:
    """The "reports" array as json.dumps(indent=2) lays it out at depth 1.

    Returned as pieces to concatenate.  Each block of rows is one C-encoder
    pass with one value per line (an encoded value never contains a raw
    newline), filled into a fixed row template.  Non-finite floats come out
    as the bare tokens Infinity, -Infinity and NaN, and are written as the
    strings "inf", "-inf" and "nan".
    """
    n_rows = len(cells[0])
    if n_rows == 0:
        return ["[]"]
    row = ("    {\n" + ",\n".join(f"      {json.dumps(c)}: %s" for c in columns)
           + "\n    }")
    pieces = ["[\n"]
    for start in range(0, n_rows, _JSON_BLOCK):
        block = [values[start:start + _JSON_BLOCK] for values in cells]
        flat = json.dumps(list(chain.from_iterable(zip(*block))), separators=("\n", ":"))
        encoded = tuple(_JSON_NONFINITE.get(v, v) for v in flat[1:-1].split("\n"))
        if start:
            pieces.append(",\n")
        pieces.append(",\n".join([row] * len(block[0])) % encoded)
    pieces.append("\n  ]")
    return pieces


def emit(reports: list[MeasureReport], fits: dict[str, ScalingFit] | None = None,
         path=None, fmt: str = "csv", failures: list[SweepFailure] = ()) -> str:
    """Write the dataset to path; returns the serialized text.

    Rows are sorted by MeasureReport.sort_key, so output bytes are a pure
    function of the inputs.  Columns: the base columns in order, then
    t_eff and kappa when some report carries them, then backend.  Report
    values are written as the Python scalars they equal: numpy bools,
    integers and floats as bool, int and float.

    CSV: the header line, then one line per report, each ending in "\n",
    cells joined by ",": None is empty, bools are true/false, floats are
    repr() (so inf, -inf and nan), ints and strings are str().  Only a
    string holding a comma, a quote or a newline would be quoted, and no
    report field written by this package holds one.  JSON: byte-identical to
    json.dumps(payload, indent=2, allow_nan=False) + "\n", where payload is
    {"reports": [one object per report, keys as the CSV columns], "fits":
    {name: fit.as_dict() per item of fits, sorted by name}, "errors":
    [f.as_dict() per failure]} and
    non-finite report values are the strings "inf", "-inf" and "nan".
    """
    reports = sorted(reports, key=MeasureReport.sort_key)
    extras = any(r.t_eff is not None or r.kappa is not None for r in reports)
    columns = BASE_COLUMNS + (EXTRA_COLUMNS if extras else ()) + ("backend",)
    if fmt == "csv":
        text = _csv_text(columns, _columns(reports, columns))
    elif fmt == "json":
        # the small rest of the payload goes through json.dumps as it is;
        # the reports array is spliced in where its empty "[]" was written
        rest = json.dumps({
            "reports": [],
            "fits": {name: fit.as_dict() for name, fit in sorted((fits or {}).items())},
            "errors": [f.as_dict() for f in failures],
        }, indent=2, allow_nan=False)
        head = '{\n  "reports": '
        text = "".join([head, *_json_reports(_columns(reports, columns), columns),
                        rest[len(head + "[]"):], "\n"])
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
