"""The four dataset scripts, run in process on small grids (table1 at its
defaults): each exits 0 and writes its rows in canonical order."""

import csv
import json
import pathlib
import runpy
import sys

import pytest

from oracles import canonical_key

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [f"{name}_dataset.py", *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / f"{name}_dataset.py"), run_name="__main__")
    return stop.value.code


def order_keys(rows):
    """canonical_key of each written row, from its backend, n_atoms and lambda cells."""
    return [canonical_key({"backend": row["backend"],
                           "n_atoms": None if row["n_atoms"] in ("", None)
                           else float(row["n_atoms"]),
                           "lambda": float(row["lambda"])}) for row in rows]


@pytest.mark.parametrize("name, argv, backends", [
    ("fig1", ["--n-atoms", "2,3", "--steps", "4"], {"ed", "td"}),
    ("fig2", ["--steps", "4"], {"td"}),
    ("fig3", ["--n-atoms", "2,3", "--steps", "4"], {"ed", "td"}),
])
def test_figure_scripts_write_canonical_rows(name, argv, backends, tmp_path, monkeypatch):
    out = tmp_path / f"{name}.csv"
    extra = ["--derivative-out", str(tmp_path / "d.csv")] if name == "fig3" else []
    assert run_script(name, [*argv, "--out", str(out), *extra], monkeypatch) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = order_keys(rows)
    assert keys == sorted(keys)
    assert {row["backend"] for row in rows} == backends
    if name == "fig3":
        assert (tmp_path / "d.csv").read_text().startswith("lambda,lambda_rel,dq_dlambda_td\n")


def test_table1_writes_canonical_rows_and_fits(tmp_path, monkeypatch):
    out = tmp_path / "table1.json"
    assert run_script("table1", ["--out", str(out)], monkeypatch) == 0
    payload = json.loads(out.read_text())
    keys = order_keys(payload["reports"])
    assert keys == sorted(keys)
    assert {row["backend"] for row in payload["reports"]} == {"ed", "td"}
    assert set(payload["fits"]) == {"eps_minus", "l_minus", "s_vn", "s_vn_peak"}
