"""The benchmark's workloads.

Each workload is a fixed coupling sweep.  Seed 0 runs the exact grids and is
checked against the reference outputs; any other seed shifts every coupling
grid by a seeded sub-step offset (linear grids upward, log-offset grids
toward lambda_c, so no coupling turns negative) and is checked on
invariants only.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import runpy
import sys
from dataclasses import replace

from gate import Verdict, parse_csv, parse_json

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")


def grid_offset(rng: random.Random | None) -> float:
    """Sub-step grid offset, in grid steps: 0 for seed 0, else in (0, 0.1].

    A tenth of a step moves every coupling (so values and cutoffs differ from
    the reference) while keeping the work per pass within a few percent of
    seed 0, so run-to-run spread stays a measure of the program, not the seed.
    """
    return 0.0 if rng is None else 0.1 * (1.0 - rng.random())


def shift_grid(config, offset: float):
    """The sweep config with its coupling grid moved by offset grid steps."""
    if offset == 0.0:
        return config
    steps = config.lambda_steps - 1
    if config.lambda_scale == "linear":
        delta = offset * (config.lambda_max - config.lambda_min) / steps
        return replace(config, lambda_min=config.lambda_min + delta,
                       lambda_max=config.lambda_max + delta)
    factor = (config.lambda_max / config.lambda_min) ** (-offset / steps)
    return replace(config, lambda_min=config.lambda_min * factor,
                   lambda_max=config.lambda_max * factor)


def count_points(config) -> int:
    """Sweep points run_sweep attempts for config (one task per point)."""
    total = 0
    for backend in config.backends():
        if backend == "ed":
            total += len(config.integer_n_atoms()) * len(config.lambda_grid())
        elif backend == "td":
            total += len(config.td_lambda_grid())
        else:
            total += len(config.lambda_grid())
    return total


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _reference(name: str) -> str:
    return _read(os.path.join(REFERENCE, name))


class Workload:
    """One workload: run_pass() drives the package, gate() checks its outputs.

    outputs() returns the last pass's datasets as {file name: text}.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.attempted = 0
        os.makedirs(outdir, exist_ok=True)

    def rng(self) -> random.Random | None:
        return None if self.seed == 0 else random.Random(self.seed)

    def out(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def install_inputs(self, patches) -> None:
        """Hook that feeds the seeded inputs in; most workloads pass them directly."""

    def run_pass(self) -> None:
        raise NotImplementedError

    def outputs(self) -> dict[str, str]:
        raise NotImplementedError

    def gate(self, outputs: dict[str, str]) -> Verdict:
        raise NotImplementedError


class PaperDatasets(Workload):
    name = "paper_datasets"
    why = ("the four dataset scripts at default arguments: the paper's real traffic, "
           "about 90% dense eigh, solves in every projected-dim band")
    SCRIPTS = (("fig1", ("--out", "fig1.csv")), ("fig2", ("--out", "fig2.csv")),
               ("fig3", ("--out", "fig3.csv", "--derivative-out", "fig3_derivative.csv")),
               ("table1", ("--out", "table1.json")))

    def install_inputs(self, patches) -> None:
        # the scripts build their own SweepConfig, so the seeded grid shift
        # is applied where the config enters run_sweep
        import dicke_qpt.sweep
        inner = dicke_qpt.sweep.run_sweep
        rng = self.rng()
        self.configs = []

        def seeded_run_sweep(config):
            config = shift_grid(config, grid_offset(rng))
            self.configs.append(config)
            return inner(config)

        patches.replace(inner, seeded_run_sweep)

    def run_pass(self) -> None:
        argv = sys.argv
        try:
            for script, args in self.SCRIPTS:
                sys.argv = [script] + [a if a.startswith("--") else self.out(a) for a in args]
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        runpy.run_path(os.path.join("scripts", f"{script}_dataset.py"),
                                       run_name="__main__")
                except SystemExit as stop:
                    # exit 2 means some points failed; the gate counts them
                    if stop.code not in (None, 0, 2):
                        raise RuntimeError(f"{script}_dataset.py exited {stop.code}") from stop
        finally:
            sys.argv = argv
        self.sweep_points = sum(count_points(c) for c in self.configs)

    def outputs(self) -> dict[str, str]:
        return {name: _read(self.out(name)) for name in (
            "fig1.csv", "fig2.csv", "fig3.csv", "fig3_derivative.csv", "table1.json")}

    def gate(self, outputs: dict[str, str]) -> Verdict:
        verdict = Verdict()
        exact = self.seed == 0
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig3_derivative.csv"):
            rows = parse_csv(outputs[name])
            verdict.check_rows(name, rows, parse_csv(_reference(name)) if exact else None)
        # the derivative rows (parsed last) are closed-form points the script writes itself
        self.attempted = self.sweep_points + len(rows)
        rows, fits = parse_json(outputs["table1.json"])
        ref_rows, ref_fits = parse_json(_reference("table1.json")) if exact else (None, None)
        verdict.check_rows("table1.json", rows, ref_rows)
        verdict.check_fits("table1.json", fits, ref_fits)
        return verdict


class LargeN(Workload):
    name = "large_n"
    why = ("ED with all four measures at N 128 and 256: Lanczos solves up to dim 136k with "
           "the IPR a quarter of the time; dense-path changes must not move it")

    def config(self):
        from dicke_qpt import SweepConfig
        base = SweepConfig(lambda_min=0.5, lambda_max=2.0, lambda_steps=7,
                           n_atoms=(128, 256), backend="ed")
        return shift_grid(base, grid_offset(self.rng()))

    def run_pass(self) -> None:
        import dicke_qpt.sweep as sweep
        config = self.config()
        reports, failures = sweep.run_sweep(config)
        sweep.emit(reports, path=self.out("large_n.csv"), failures=failures)
        self.attempted = count_points(config)

    def outputs(self) -> dict[str, str]:
        return {"large_n.csv": _read(self.out("large_n.csv"))}

    def gate(self, outputs: dict[str, str]) -> Verdict:
        verdict = Verdict()
        reference = parse_csv(_reference("large_n.csv")) if self.seed == 0 else None
        verdict.check_rows("large_n.csv", parse_csv(outputs["large_n.csv"]), reference)
        return verdict


class _Capture:
    """Stand-in stdout that keeps what the CLI writes, without copying it."""

    def __init__(self):
        self.text = ""

    def write(self, text: str) -> int:
        self.text += text
        return len(text)

    def flush(self) -> None:
        pass


class ClosedFormGrid(Workload):
    name = "closed_form_grid"
    why = ("two 1e5-row closed-form CLI sweeps to CSV and JSON: no ED, per-point "
           "orchestration and emission dominate; ED changes must not move it")
    MEASURES = "s_vn,l_lin,q_avg,ipr_inv,t_eff,kappa"
    STEPS = 25000
    FORMATS = ("csv", "json")

    def argv(self, fmt: str) -> list[str]:
        from dicke_qpt import SweepConfig
        config = shift_grid(SweepConfig(lambda_scale="log", lambda_min=1e-9, lambda_max=1.0,
                                        lambda_steps=self.STEPS), grid_offset(self.rng()))
        return ["--backend", "all", "--n-atoms", "inf", "--lambda-scale", "log",
                "--lambda-min", repr(config.lambda_min), "--lambda-max", repr(config.lambda_max),
                "--lambda-steps", str(self.STEPS), "--measures", self.MEASURES,
                "--format", fmt]

    def run_pass(self) -> None:
        # the CLI writes to stdout, captured in memory: 54 MB of file writes
        # per pass would add disk writeback noise to a CPU-bound measure
        import dicke_qpt.cli as cli
        self.captured = {}
        self.attempted = 0
        for fmt in self.FORMATS:
            argv = self.argv(fmt)
            capture = _Capture()
            with contextlib.redirect_stdout(capture):
                code = cli.main(argv)
            if code not in (0, 2):
                raise RuntimeError(f"dicke-sweep exited {code}")
            self.captured[f"closed_form_grid.{fmt}"] = capture.text
            self.attempted += count_points(cli.build_config(cli.build_parser().parse_args(argv))[0])

    def outputs(self) -> dict[str, str]:
        return self.captured

    def gate(self, outputs: dict[str, str]) -> Verdict:
        verdict = Verdict()
        # the reference holds every 200th row; the rest are checked on invariants
        sample = parse_csv(_reference("closed_form_grid_sample.csv")) if self.seed == 0 else None
        verdict.check_rows("closed_form_grid.csv", parse_csv(outputs["closed_form_grid.csv"]),
                           sample, complete=False)
        rows, _ = parse_json(outputs["closed_form_grid.json"])
        verdict.check_rows("closed_form_grid.json", rows, sample, complete=False)
        return verdict


WORKLOADS = {w.name: w for w in (PaperDatasets, LargeN, ClosedFormGrid)}
