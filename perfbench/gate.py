"""Correctness gate for the benchmark's dataset outputs.

Every row is checked on invariants (certified, residual within the solver
tolerance, measures inside their ranges).  On seed 0 the rows are also
compared with the reference outputs under ``perfbench/reference``, recorded
from the package before any optimisation, at the ROADMAP tolerances:

* ED ``s_vn``, ``l_lin``, ``q_avg`` within 1e-10 absolute, ``ipr_inv``
  within 1e-10 relative;
* closed-form (td, perturbative) values within 1e-12 relative;
* fitted exponents within 1e-8 absolute.

An ED ``n_max`` that differs from the reference is counted, not failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

ED_ABS_TOL = 1e-10
IPR_REL_TOL = 1e-10
CLOSED_FORM_REL_TOL = 1e-12
EXPONENT_TOL = 1e-8
# solver tolerance of every workload (the SweepConfig default): the residual
# of an accepted ground state must stay within SOLVER_TOL * |E|
SOLVER_TOL = 1e-10
SLACK = 1e-12

NUMERIC = {"lambda", "lambda_rel", "n_atoms", "n_max", "s_vn", "l_lin", "q_avg",
           "ipr_inv", "jz_mean", "residual", "t_eff", "kappa", "dq_dlambda_td"}
ED_ENTROPIES = ("s_vn", "l_lin", "q_avg")
# physics invariants of the table1 fits on any coupling grid
EXPONENT_RANGES = {"eps_minus": (0.49, 0.51), "l_minus": (-0.26, -0.24),
                   "s_vn": (-0.26, -0.24), "s_vn_peak": (0.08, 0.2)}


def _number(value):
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        return value
    return float(value)


def _row(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key in NUMERIC:
            out[key] = _number(value)
        elif key == "converged":
            out[key] = {"true": True, "false": False, "": None}.get(value, value)
        else:
            out[key] = value
    return out


def parse_csv(text: str) -> list[dict]:
    return [_row(r) for r in csv.DictReader(io.StringIO(text))]


def parse_json(text: str) -> tuple[list[dict], dict]:
    """(rows, fits) of an emitted JSON dataset."""
    payload = json.loads(text)
    return [_row(r) for r in payload["reports"]], payload.get("fits", {})


def _key(row: dict) -> tuple:
    return (row.get("backend"), row.get("n_atoms"), row["lambda"])


def _close(a, b, rel=0.0, abs_=0.0) -> bool:
    if a is None or b is None:
        return a is b
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _in(value, lo, hi) -> bool:
    return value is not None and math.isfinite(value) and lo - SLACK <= value <= hi + SLACK


def row_problems(row: dict) -> list[str]:
    """Invariant violations of one dataset row (empty when the row is valid)."""
    bad = []
    backend = row.get("backend")
    if backend is None and "dq_dlambda_td" in row:
        if not _in(row["dq_dlambda_td"], 0.0, math.inf):
            bad.append("dq_dlambda_td")
        return bad
    if row.get("converged") is not True:
        bad.append("not certified")
    if backend == "ed":
        n = row["n_atoms"]
        j = n / 2.0
        x = row["lambda_rel"]
        # every workload has omega = omega0 = 1, where |E| <= j * (1 + (lambda/lambda_c)^2)
        if not _in(row["residual"], 0.0, SOLVER_TOL * j * (1.0 + x * x)):
            bad.append(f"residual {row['residual']}")
        checks = (("s_vn", 0.0, math.log2(n + 1.0)), ("l_lin", 0.0, 1.0),
                  ("q_avg", 0.0, 1.0), ("ipr_inv", 0.0, math.inf),
                  ("jz_mean", -0.5, 0.5))
        if row.get("n_max") is None or row["n_max"] < 1:
            bad.append("n_max")
    elif backend == "td":
        checks = (("s_vn", 0.0, math.inf), ("l_lin", 0.0, 1.0), ("q_avg", 0.0, 1.0),
                  ("ipr_inv", 0.0, math.inf), ("t_eff", 0.0, math.inf),
                  ("kappa", 0.0, math.inf), ("jz_mean", -0.5, 0.0))
    elif backend == "perturbative":
        checks = (("s_vn", 0.0, 1.0),)
    else:
        return [f"unknown backend {backend!r}"]
    for col, lo, hi in checks:
        if row.get(col) is not None and not _in(row[col], lo, hi):
            bad.append(f"{col}={row[col]}")
    if row.get("ipr_inv") is not None and not row["ipr_inv"] > 0:
        bad.append("ipr_inv not positive")
    return bad


def reference_problems(row: dict, ref: dict) -> list[str]:
    """Differences from the reference row beyond the gate tolerances."""
    bad = []
    if row.get("backend") == "ed":
        for col in ED_ENTROPIES:
            if not _close(row.get(col), ref.get(col), abs_=ED_ABS_TOL):
                bad.append(f"{col} {row.get(col)} vs {ref.get(col)}")
        if not _close(row.get("ipr_inv"), ref.get("ipr_inv"), rel=IPR_REL_TOL):
            bad.append(f"ipr_inv {row.get('ipr_inv')} vs {ref.get('ipr_inv')}")
        return bad
    for col, value in ref.items():
        if col in NUMERIC and not _close(row.get(col), value, rel=CLOSED_FORM_REL_TOL):
            bad.append(f"{col} {row.get(col)} vs {value}")
    return bad


@dataclass
class Verdict:
    """Gate outcome accumulated over every output of one pass."""

    rows: int = 0
    bad_rows: int = 0
    n_max_changed: int = 0
    backends: dict = field(default_factory=dict)   # sweep rows per backend
    ipr_rows: int = 0                              # sweep rows carrying ipr_inv
    problems: list = field(default_factory=list)   # first few, for the result file
    fatal: list = field(default_factory=list)      # output-level failures

    def note(self, where: str, what) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {what}")

    def check_rows(self, where: str, rows: list[dict], reference: list[dict] | None,
                   complete: bool = True) -> None:
        """Invariants on every row; reference values where a reference is given.

        complete=False marks a sampled reference: rows it does not hold are
        checked on invariants only.
        """
        ref_by_key = {_key(r): r for r in reference} if reference is not None else None
        for row in rows:
            self.rows += 1
            backend = row.get("backend")
            if backend is not None:
                self.backends[backend] = self.backends.get(backend, 0) + 1
                self.ipr_rows += row.get("ipr_inv") is not None
            bad = row_problems(row)
            ref = ref_by_key.get(_key(row)) if ref_by_key is not None else None
            if ref is not None:
                bad += reference_problems(row, ref)
                if backend == "ed" and row.get("n_max") != ref.get("n_max"):
                    self.n_max_changed += 1
            elif ref_by_key is not None and complete:
                bad.append("row not in reference")
            if bad:
                self.bad_rows += 1
                self.note(where, f"{_key(row)} {'; '.join(bad)}")

    def check_fits(self, where: str, fits: dict, reference: dict | None) -> None:
        for name, (lo, hi) in EXPONENT_RANGES.items():
            if name not in fits:
                continue
            exponent = fits[name]["exponent"]
            if not lo <= exponent <= hi:
                self.fatal.append(f"{where}: {name} exponent {exponent} outside [{lo}, {hi}]")
            if reference is not None and not _close(
                    exponent, reference[name]["exponent"], abs_=EXPONENT_TOL):
                self.fatal.append(f"{where}: {name} exponent {exponent} vs "
                                  f"reference {reference[name]['exponent']}")
        if reference is not None and set(fits) != set(reference):
            self.fatal.append(f"{where}: fits {sorted(fits)} vs reference {sorted(reference)}")
