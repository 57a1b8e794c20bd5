"""Coupling/system-size sweeps, finite-size scaling fits, and dataset emission.

Sweep points are independent work items evaluated through one of three
backends: exact diagonalization at finite N ("ed"), the thermodynamic-limit
closed forms ("td"), or the weak-coupling expansion ("perturbative").
A sweep result is a column table: {name: list of plain Python scalars} for
every name in COLUMNS, one row per evaluated point.  run_sweep builds its
rows in canonical order and emit writes them in the order given, so
identical configurations reproduce byte-identical output files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from numbers import Integral, Real

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
# the keys of a sweep table, in output order
COLUMNS = BASE_COLUMNS + EXTRA_COLUMNS + ("backend",)
_PLAIN_TYPES = frozenset((type(None), bool, int, float, str))
_JSON_NONFINITE = {"Infinity": '"inf"', "-Infinity": '"-inf"', "NaN": '"nan"'}
# rows per JSON encoder pass: bounds the transient one-string-per-value list
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
    n_atoms is a non-empty tuple of positive ints; the string "inf" requests
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
        # as a bare TypeError, a bool in a number field would pass for 0 or
        # 1, and a truthy non-bool (the string "false") would pass for True
        for option in fields(self):
            value = getattr(self, option.name)
            parse = option.metadata["parse"]
            if parse in (int, float) and isinstance(value, bool):
                raise ConfigError(f"{option.name} must be a number, got {value!r}")
            if parse is float and not isinstance(value, Real):
                raise ConfigError(f"{option.name} must be a real number, got {value!r}")
            if parse is _parse_bool and not isinstance(value, bool):
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
        if not self.n_atoms:
            raise ConfigError("n_atoms must name at least one atom number")
        for n in self.n_atoms:
            if n != "inf" and (isinstance(n, bool) or not (
                    isinstance(n, Real) and 1 <= n < math.inf and int(n) == n)):
                raise ConfigError(f"bad n_atoms entry {n!r}")
        if len(set(self.n_atoms)) != len(self.n_atoms):
            raise ConfigError(f"repeated n_atoms entry in {self.n_atoms!r}")

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
                     start: np.ndarray | None = None) -> tuple[dict, np.ndarray]:
    """The point's row {column: value} and its ground amplitudes; start as
    in converge_cutoff."""
    params = make_params(config.omega, config.omega0, coupling, n_atoms)
    state = converge_cutoff(params, n_max_start=config.cutoff_start,
                            growth=config.cutoff_growth, energy_tol=config.tol,
                            tol=config.solver_tol, max_dim=config.max_dim,
                            start=start)
    row = dict.fromkeys(COLUMNS)
    atoms_rdm = None
    if "s_vn" in config.measures or "l_lin" in config.measures:
        atoms_rdm = entanglement.partial_trace(state, keep="atoms")
    if "s_vn" in config.measures:
        row["s_vn"] = entanglement.von_neumann_entropy(atoms_rdm)
    if "l_lin" in config.measures:
        row["l_lin"] = entanglement.linear_entropy(atoms_rdm, n_atoms + 1)
    if "q_avg" in config.measures:
        row["q_avg"] = entanglement.average_linear_entropy_Q(state, _atoms_rdm=atoms_rdm)
    if "ipr_inv" in config.measures:
        row["ipr_inv"] = entanglement.inverse_participation_ratio(
            state, state.basis, params)
    jz = entanglement.collective_expectations(state)["jz"]
    row.update({"lambda": coupling, "lambda_rel": coupling / params.lambda_c,
                "n_atoms": n_atoms, "n_max": state.basis.n_max,
                "jz_mean": jz / n_atoms, "residual": state.residual,
                "converged": state.converged, "backend": "ed"})
    return row, state.amplitudes


def _grid_columns(backend: str, params, n_atoms, values: dict) -> dict:
    """The table of one converged row per coupling of the grid params.coupling;
    values holds the measure columns, and the columns it lacks are None."""
    rows = params.coupling.size
    return {**{name: [None] * rows for name in COLUMNS},
            "lambda": params.coupling.tolist(),
            "lambda_rel": (params.coupling / params.lambda_c).tolist(),
            "n_atoms": [n_atoms] * rows, "converged": [True] * rows,
            "backend": [backend] * rows, **values}


def measure_point_td(config: SweepConfig, couplings: np.ndarray) -> dict:
    """The table of every coupling of the grid couplings from one closed_forms
    call, bit for bit one call per coupling (see thermo); n_atoms is inf."""
    params = make_params(config.omega, config.omega0, couplings, 2)
    forms = thermo.closed_forms(params, two_lobe=config.two_lobe)
    return _grid_columns("td", params, math.inf, {
        m: getattr(forms, m).tolist() for m in ("jz_mean",) + config.measures})


def measure_point_perturbative(config: SweepConfig, couplings: np.ndarray) -> dict:
    """The s_vn table of every coupling of the grid couplings from one
    perturbative_entropy call, bit for bit one per coupling; n_atoms is None."""
    params = make_params(config.omega, config.omega0, couplings, 2)
    return _grid_columns("perturbative", params, None,
                         {"s_vn": perturbative_entropy(params).tolist()})


def run_sweep(config: SweepConfig) -> tuple[dict, list[SweepFailure]]:
    """Evaluate every (coupling, N, backend) point; domain failures are per-point.

    Returns (table, failures): table maps each name in COLUMNS to a list
    of plain Python scalars, one per evaluated point.  Rows and failures
    both come in canonical order by construction: backends in
    KNOWN_BACKENDS order, then atom numbers and couplings ascending.
    Errors outside POINT_ERRORS propagate.  Each ED point gets the
    amplitudes that the point before it at the same N returned as its start
    (the first point of each N, and a point after a failed one, start from
    the fixed vector).  td and perturbative make one call each over their
    whole grid (td_lambda_grid, lambda_grid); a domain error from it becomes
    one failure row per coupling.  Point functions are looked up at every
    call.
    """
    config.validate()
    table: dict = {name: [] for name in COLUMNS}
    failures: list[SweepFailure] = []
    for backend in config.backends():
        if backend == "ed":
            grid = config.lambda_grid().tolist()
            for n in sorted(config.integer_n_atoms()):
                start = None
                for lam in grid:
                    try:
                        row, start = measure_point_ed(config, n, lam, start)
                        for name, column in table.items():
                            column.append(row[name])
                    except POINT_ERRORS as exc:
                        start = None
                        failures.append(SweepFailure.from_exception(backend, lam, n, exc))
            continue
        measure, grid = ((measure_point_td, config.td_lambda_grid()) if backend == "td"
                         else (measure_point_perturbative, config.lambda_grid()))
        try:
            columns = measure(config, grid)
            for name, column in table.items():
                column += columns[name]
        except POINT_ERRORS as exc:
            failures += (SweepFailure.from_exception(backend, lam, None, exc)
                         for lam in grid.tolist())
    return table, failures


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


def fit_entropy_scaling(table: dict) -> ScalingFit:
    """Fit the per-N entropy maximum against log2 N.

    Needs converged ED rows of table with s_vn for at least four system
    sizes, each with its peak resolved strictly inside the coupling grid;
    the grid maximum is refined by a local parabola.  Returns the exponent
    x of S_max ~ x * log2 N.
    """
    by_n: dict[int, list[tuple[float, float]]] = {}
    for backend, n_atoms, lam, s_vn, converged in zip(
            table["backend"], table["n_atoms"], table["lambda"], table["s_vn"],
            table["converged"]):
        if (backend == "ed" and s_vn is not None and converged
                and n_atoms not in (None, math.inf)):
            by_n.setdefault(int(n_atoms), []).append((lam, s_vn))
    if len(by_n) < 4:
        raise FitError(f"need >= 4 system sizes with entropy data, got {len(by_n)}")
    peaks = []
    for n in sorted(by_n):
        pts = sorted(by_n[n], key=lambda p: p[0])
        lam = np.array([p[0] for p in pts])
        s = np.array([p[1] for p in pts])
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


def fit_critical_exponents(table: dict, omega: float,
                           omega0: float) -> dict[str, ScalingFit]:
    """Log-log slopes of the gap, length scale, and entropy below lambda_c.

    Input: a table whose td rows lie on a log-spaced window approaching
    lambda_c from below, and the frequencies of the sweep that made them,
    which fix lambda_c and the exact gap values.  Every td row must lie on
    that lambda_c (lambda = lambda_rel * lambda_c within 1e-9 lambda_c);
    invalid frequencies raise ParameterError.
    The gap eps- and length l- = eps-^-1/2 are recomputed from the
    coupling; the entropy slope is taken against log2|lambda_c - lambda|.
    Expected exponents: +1/2, -1/4, and -1/4.
    """
    pts = [(lam, rel, s_vn) for backend, lam, rel, s_vn in zip(
        table["backend"], table["lambda"], table["lambda_rel"], table["s_vn"])
        if backend == "td" and s_vn is not None]
    if not pts:
        raise FitError("no thermodynamic-limit entropy rows to fit")
    lc = make_params(omega, omega0, 0.0, 2).lambda_c
    if not all(abs(lam - rel * lc) <= 1e-9 * lc for lam, rel, _ in pts):
        raise FitError("rows do not lie on the given frequencies' lambda_c")
    below = sorted((p for p in pts if p[0] < lc), key=lambda p: p[0])
    if len(below) < 3:
        raise FitError("need >= 3 points below lambda_c")
    couplings = np.array([p[0] for p in below])
    delta = lc - couplings
    if delta.min() / lc < 1e-12:
        raise FitError("window reaches too close to lambda_c for stable floats")
    s_vn = np.array([p[2] for p in below])
    eps_minus = thermo.normal_solution(make_params(omega, omega0, couplings, 2)).eps_minus
    window = (float(delta.min() / lc), float(delta.max() / lc))
    out = {}
    slope, err, rms = _line_fit(np.log(delta), np.log(eps_minus))
    out["eps_minus"] = ScalingFit("eps_minus", slope, err, window, rms)
    slope, err, rms = _line_fit(np.log(delta), -0.5 * np.log(eps_minus))
    out["l_minus"] = ScalingFit("l_minus", slope, err, window, rms)
    slope, err, rms = _line_fit(np.log2(delta), s_vn)
    out["s_vn"] = ScalingFit("s_vn", slope, err, window, rms)
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
        tokens = flat[1:-1].split("\n")
        encoded = tuple(map(_JSON_NONFINITE.get, tokens, tokens))
        if start:
            pieces.append(",\n")
        pieces.append(",\n".join([row] * len(block[0])) % encoded)
    pieces.append("\n  ]")
    return pieces


def emit(table: dict, fits: dict[str, ScalingFit] | None = None,
         path=None, fmt: str = "csv", failures: list[SweepFailure] = ()) -> str:
    """Write the dataset to path; returns the serialized text.

    table maps each name in COLUMNS to a list of plain Python scalars
    (None, bool, int, float or str), one per row, as run_sweep returns it;
    any other value raises TypeError, and columns of unequal length raise
    ValueError.  Rows are written in the order given.  Columns: the base
    columns in order, then t_eff and kappa when some row carries them, then
    backend.

    CSV: the header line, then one line per row, each ending in "\n",
    cells joined by ",": None is empty, bools are true/false, floats are
    repr() (so inf, -inf and nan), ints and strings are str().  Only a
    string holding a comma, a quote or a newline would be quoted, and no
    column written by this package holds one.  JSON: byte-identical to
    json.dumps(payload, indent=2, allow_nan=False) + "\n", where payload is
    {"reports": [one object per row, keys as the CSV columns], "fits":
    {name: fit.as_dict() per item of fits, sorted by name}, "errors":
    [f.as_dict() per failure]} and
    non-finite table values are the strings "inf", "-inf" and "nan".
    """
    extras = any(v is not None for name in EXTRA_COLUMNS for v in table[name])
    columns = BASE_COLUMNS + (EXTRA_COLUMNS if extras else ()) + ("backend",)
    cells = [table[name] for name in columns]
    for name, values in zip(columns, cells):
        if not _PLAIN_TYPES.issuperset(map(type, values)):
            raise TypeError(f"column {name!r} holds a value that is not a plain "
                            "Python scalar")
    if len(set(map(len, cells))) != 1:
        raise ValueError("table columns differ in length")
    if fmt == "csv":
        text = _csv_text(columns, cells)
    elif fmt == "json":
        # the small rest of the payload goes through json.dumps as it is;
        # the reports array is spliced in where its empty "[]" was written
        rest = json.dumps({
            "reports": [],
            "fits": {name: fit.as_dict() for name, fit in sorted((fits or {}).items())},
            "errors": [f.as_dict() for f in failures],
        }, indent=2, allow_nan=False)
        head = '{\n  "reports": '
        text = "".join([head, *_json_reports(cells, columns),
                        rest[len(head + "[]"):], "\n"])
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
