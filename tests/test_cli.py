import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

from conftest import SRC
from dicke_qpt import SweepConfig
from dicke_qpt.cli import build_config, build_parser, main, read_config_file


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMain:
    def test_td_sweep_to_stdout(self, capsys):
        code, out, _ = run_cli([
            "--backend", "td", "--lambda-min", "0", "--lambda-max", "2",
            "--lambda-steps", "5", "--measures", "s_vn,l_lin"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda,lambda_rel,n_atoms")
        # the grid point at lambda_c is excluded from closed-form rows
        assert len(lines) == 1 + 4

    def test_ed_sweep_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, out, err = run_cli([
            "--backend", "ed", "--n-atoms", "2", "--lambda-min", "0",
            "--lambda-max", "1", "--lambda-steps", "3",
            "--measures", "s_vn", "--out", str(out_file)], capsys)
        assert code == 0
        assert out == ""
        assert "wrote 3 reports" in err
        assert out_file.read_text().count("\n") == 4

    def test_json_format(self, capsys):
        code, out, _ = run_cli([
            "--backend", "perturbative", "--lambda-min", "0",
            "--lambda-max", "0.4", "--lambda-steps", "2",
            "--format", "json"], capsys)
        assert code == 0
        assert '"reports"' in out and '"errors"' in out

    @pytest.mark.parametrize("args", [
        ["--lambda-steps", "1"], ["--tol", "0"],
        ["--backend", "td", "--lambda-max", "inf", "--lambda-steps", "3"],
        ["--backend", "td", "--omega", "nan"], ["--backend", "td", "--omega", "inf"],
        ["--backend", "td", "--solver-tol", "nan"],
        ["--backend", "td", "--lambda-scale", "log", "--lambda-min", "0.5",
         "--lambda-max", "2", "--lambda-steps", "3"],
        ["--n-atoms", ""],
    ], ids=["lambda_steps", "tol", "lambda_max_inf", "omega_nan", "omega_inf",
            "solver_tol_nan", "log_offset_above_one", "n_atoms_empty"])
    def test_invalid_arguments_exit_one(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "error" in err

    def test_unparsable_argument_exits_one(self, capsys):
        code, _, err = run_cli(["--lambda-steps", "x"], capsys)
        assert code == 1
        assert "invalid int value" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "--solver-tol" in out

    @pytest.mark.parametrize("flag", ["--jobs", "--cutoff-start", "--cutoff-growth"])
    def test_removed_flag_rejected(self, flag, capsys):
        code, _, err = run_cli([flag, "2"], capsys)
        assert code == 1
        assert "unrecognized arguments" in err

    def test_partial_failures_exit_two(self, capsys):
        code, out, err = run_cli([
            "--backend", "ed", "--n-atoms", "8", "--lambda-min", "0",
            "--lambda-max", "4", "--lambda-steps", "3",
            "--measures", "s_vn", "--max-dim", "120"], capsys)
        assert code == 2
        assert "failed:" in err

    def test_out_of_range_td_grid_fails_per_coupling(self, capsys):
        # 1e40 lambda_c lies beyond the closed forms' range, so the one
        # closed_forms call over the grid fails; each coupling, evaluated
        # alone, then fails or keeps its row: lambda = 0 is in range
        code, out, err = run_cli([
            "--backend", "td", "--lambda-min", "0", "--lambda-max", "1e40",
            "--lambda-steps", "2", "--format", "json"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert err.count("failed: backend=td") == 1
        report = json.loads(out)
        assert [r["lambda"] for r in report["reports"]] == [0.0]
        assert [(e["lambda"], e["error"]) for e in report["errors"]] == [(5e39, "ParameterError")]

    def test_huge_ed_coupling_fails_its_point(self, capsys):
        # at 1e200 lambda_c the displacement estimate alpha^2 overflows a
        # float: the point is a capacity failure row and lambda = 0 keeps its
        # row, not an OverflowError traceback
        code, out, err = run_cli([
            "--backend", "ed", "--n-atoms", "4", "--lambda-steps", "2",
            "--lambda-max", "1e200", "--format", "json"], capsys)
        assert code == 2
        assert "Traceback" not in err and "OverflowError" not in err
        report = json.loads(out)
        assert [r["lambda"] for r in report["reports"]] == [0.0]
        assert [(e["lambda"], e["error"]) for e in report["errors"]] == [
            (5e199, "CutoffConvergenceError")]
        # the message names the dimension, the ceiling, n_max and N in short
        # form, not in 309 digits, on stderr as in the JSON
        message = report["errors"][0]["message"]
        for part in ("basis dimension 8.988e+308", "ceiling 4000000", "n_max=1.797e+308",
                     "N=4)"):
            assert part in message
        line, = [line for line in err.splitlines() if line.startswith("failed:")]
        assert line.endswith(message) and len(line) < 200

    @pytest.mark.parametrize("flag", ["--omega", "--omega0"])
    def test_huge_frequency_fails_per_coupling(self, capsys, flag):
        # a frequency of 1e300 overflows the closed forms' float powers: one
        # ParameterError failure row per coupling and exit 2, not a traceback
        code, out, err = run_cli(["--backend", "td", flag, "1e300", "--lambda-steps", "3",
                                  "--format", "json"], capsys)
        assert code == 2
        assert "Traceback" not in err and "OverflowError" not in err
        assert err.count("failed: backend=td") == 3
        assert err.count("n_atoms=inf:") == 3
        report = json.loads(out)
        assert report["reports"] == []
        assert [e["error"] for e in report["errors"]] == ["ParameterError"] * 3
        # each failure carries the n_atoms of the td rows it replaces
        assert [e["n_atoms"] for e in report["errors"]] == ["inf"] * 3

    def test_nan_measure_fails_its_coupling(self, capsys):
        # at omega = 1e-300 kappa comes out 0/0: each coupling becomes a
        # failure row instead of a nan cell, without a RuntimeWarning
        args = ["--backend", "td", "--omega", "1e-300", "--lambda-steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(args + ["--measures", "s_vn,kappa"], capsys)
        assert code == 2
        assert out.strip().splitlines()[1:] == []
        assert err.count("failed: backend=td") == 3
        assert err.count("ParameterError: kappa came out nan") == 3
        # without kappa no measure is nan, and every row is written
        code, out, _ = run_cli(args + ["--measures", "s_vn"], capsys)
        assert code == 0 and len(out.strip().splitlines()) == 4 and "nan" not in out

    def test_infinite_measure_fails_its_coupling(self, capsys):
        # at omega0 = 1e-300 s_vn and t_eff come out inf: each coupling
        # becomes a failure row instead of an inf cell
        args = ["--backend", "td", "--n-atoms", "inf", "--omega0", "1e-300",
                "--lambda-steps", "3", "--measures", "s_vn,t_eff"]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out.strip().splitlines()[1:] == []
        assert err.count("failed: backend=td") == 3
        assert err.count("n_atoms=inf:") == 3
        assert err.count("ParameterError: s_vn came out inf, t_eff came out inf") == 3
        # each failure carries the n_atoms of the td rows it replaces, spelled
        # "inf" as the JSON reports spell it
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["reports"] == []
        assert [e["n_atoms"] for e in report["errors"]] == ["inf"] * 3

    def test_single_lobe_flag_drops_one_bit(self, capsys):
        args = ["--backend", "td", "--lambda-min", "1.4", "--lambda-max",
                "1.8", "--lambda-steps", "2", "--measures", "s_vn"]
        _, two_lobe_out, _ = run_cli(args, capsys)
        _, single_out, _ = run_cli(args + ["--single-lobe"], capsys)

        def entropies(text):
            return [float(line.split(",")[4])
                    for line in text.strip().splitlines()[1:]]

        for s2, s1 in zip(entropies(two_lobe_out), entropies(single_out)):
            assert s2 == pytest.approx(s1 + 1.0, abs=1e-12)

    def test_inf_atoms_adds_td_rows(self, capsys):
        code, out, _ = run_cli([
            "--backend", "ed", "--n-atoms", "2,inf", "--lambda-min", "0.2",
            "--lambda-max", "0.8", "--lambda-steps", "2",
            "--measures", "s_vn"], capsys)
        assert code == 0
        backends = {line.rsplit(",", 1)[-1] for line in out.strip().splitlines()[1:]}
        assert backends == {"ed", "td"}


class TestConfigFile:
    def test_file_seeds_flags(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# comment line\n"
            "backend = td\n"
            "lambda-min = 0.2\n"
            "lambda_max = 0.8\n"
            "lambda_steps = 3\n"
            "measures = s_vn\n")
        code, out, _ = run_cli(["--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("backend = td\nlambda_min = 0.2\nlambda_max = 0.8\n"
                       "lambda_steps = 3\nmeasures = s_vn\n")
        code, out, _ = run_cli(["--config", str(cfg), "--lambda-steps", "5"],
                               capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("omega = 2.0\nlambda_steps = 7\ntwo_lobe = false\n"
                       "n_atoms = 4,inf\n")
        parsed = read_config_file(cfg)
        assert parsed == {"omega": 2.0, "lambda_steps": 7, "two_lobe": False,
                          "n_atoms": (4, "inf")}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("omega 2.0\n")
        with pytest.raises(ValueError):
            read_config_file(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("coupling_flavor = strong\n")
        with pytest.raises(ValueError):
            read_config_file(cfg)

    @pytest.mark.parametrize("key", ["jobs", "cutoff_start", "cutoff_growth"])
    def test_removed_key_rejected(self, key, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"backend = td\n{key} = 2\n")
        code, _, err = run_cli(["--config", str(cfg)], capsys)
        assert code == 1
        assert f"unknown config key {key!r}" in err

    def test_unknown_format_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("backend = td\nformat = xml\n")
        code, out, err = run_cli(["--config", str(cfg)], capsys)
        assert code == 1
        assert out == "" and "unknown output format 'xml'" in err

    def test_missing_config_exits_one(self, capsys):
        code, _, err = run_cli(["--config", "/nonexistent/sweep.cfg"], capsys)
        assert code == 1
        assert "error" in err


# one valid non-default value per SweepConfig field: (text, parsed value)
FIELD_SAMPLES = {
    "omega": ("2.0", 2.0),
    "omega0": ("0.5", 0.5),
    "lambda_min": ("0.25", 0.25),
    "lambda_max": ("2.5", 2.5),
    "lambda_steps": ("5", 5),
    "lambda_scale": ("log", "log"),
    "n_atoms": ("4,inf", (4, "inf")),
    "measures": ("s_vn,kappa", ("s_vn", "kappa")),
    "backend": ("td", "td"),
    "tol": ("1e-7", 1e-7),
    "solver_tol": ("1e-9", 1e-9),
    "two_lobe": ("false", False),
    "max_dim": ("5000", 5000),
}
# lets every sample validate, log scale included; samples override it
BASE_SETTINGS = {"lambda_min": "0.1", "lambda_max": "0.5"}


def as_flags(settings):
    argv = []
    for key, text in settings.items():
        if key == "two_lobe":
            assert text == "false"
            argv.append("--single-lobe")
        else:
            argv += ["--" + key.replace("_", "-"), text]
    return argv


@pytest.mark.parametrize("fld", dataclasses.fields(SweepConfig),
                         ids=lambda f: f.name)
def test_every_config_field_reaches_config(fld, tmp_path):
    """Each SweepConfig field is settable by flag and by config-file key."""
    text, expected = FIELD_SAMPLES[fld.name]
    assert getattr(SweepConfig(), fld.name) != expected
    settings = {**BASE_SETTINGS, fld.name: text}

    config, _, _ = build_config(build_parser().parse_args(as_flags(settings)))
    assert getattr(config, fld.name) == expected

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    config, _, _ = build_config(build_parser().parse_args(["--config", str(cfg)]))
    assert getattr(config, fld.name) == expected


def test_flags_are_the_fields_with_help():
    """The parser's options are exactly the fixed ones and a --flag per
    SweepConfig field with help metadata."""
    fixed = ["--help", "--config", "--single-lobe", "--out", "--format"]
    flags = ["--" + f.name.replace("_", "-") for f in dataclasses.fields(SweepConfig)
             if f.metadata["help"]]
    options = [s for action in build_parser()._actions for s in action.option_strings
               if s != "-h"]
    assert sorted(options) == sorted(fixed + flags)


def test_module_entry_point():
    # the fresh interpreter finds the package where this suite imports it
    # from, whether or not it is installed
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dicke_qpt.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "dicke-sweep" in proc.stdout
