import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_qpt import (ConfigError, CutoffConvergenceError, FitError,
                       IntegrityError, ParameterError, ScalingFit,
                       SolverError, SweepConfig, SweepFailure,
                       average_linear_entropy_Q, build_basis, converge_cutoff,
                       emit, fit_critical_exponents, fit_entropy_scaling,
                       make_params, partial_trace, run_sweep, von_neumann_entropy)
from dicke_qpt import eigensolver, entanglement, sweep
from dicke_qpt.eigensolver import suggest_cutoff
from oracles import canonical_key, parity_indices, rows_of, table_of

BASE_HEADER = ("lambda,lambda_rel,n_atoms,n_max,s_vn,l_lin,q_avg,ipr_inv,"
               "jz_mean,residual,converged")


def dense_reference_measures(omega, omega0, coupling, n_atoms, n_max):
    """Oracle: independent dense pipeline from operators to measures."""
    j = n_atoms / 2.0
    nf = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, nf)), k=1)
    m = np.arange(n_atoms + 1) - j
    jz = np.diag(m)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), k=-1).T
    H = (omega * np.kron(a.T @ a, np.eye(n_atoms + 1))
         + omega0 * np.kron(np.eye(nf), jz)
         + coupling / np.sqrt(2 * j) * np.kron(a + a.T, jplus + jplus.T))
    w, v = np.linalg.eigh(H)
    psi = v[:, 0].reshape(nf, n_atoms + 1)
    rho_atoms = psi.T @ psi
    ev = np.linalg.eigvalsh(rho_atoms)
    ev = ev[ev > 1e-14]
    s_vn = float(-(ev * np.log2(ev)).sum())
    eta = (n_atoms + 1) / n_atoms
    l_lin = float(eta * (1 - (rho_atoms**2).sum()))
    jz_mean = float((psi**2 * m[None, :]).sum() / n_atoms)
    l_k = 1 - 4 * (jz_mean * n_atoms) ** 2 / n_atoms**2
    rho_field = psi @ psi.T
    l_b = eta * (1 - (rho_field**2).sum())
    q_avg = (n_atoms * l_k + l_b) / (n_atoms + 1)
    return {"energy": w[0], "s_vn": s_vn, "l_lin": l_lin, "q_avg": q_avg,
            "jz_mean": jz_mean}


class TestConfig:
    def test_defaults_validate(self):
        SweepConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(lambda_steps=1), dict(lambda_scale="cubic"),
        dict(backend="dmrg"), dict(measures=("s_vn", "negativity")),
        dict(n_atoms=(0,)),
        dict(lambda_min=0.5, lambda_max=0.2),
        dict(lambda_scale="log", lambda_min=0.0, lambda_max=0.1),
        dict(omega=-1.0), dict(omega0=0.0),
        dict(tol=0.0), dict(solver_tol=-1e-10), dict(max_dim=0),
        dict(omega=math.nan), dict(omega=math.inf), dict(omega0=math.nan),
        dict(omega0=math.inf), dict(lambda_max=math.inf),
        dict(lambda_scale="log", lambda_min=0.1, lambda_max=math.inf),
        dict(tol=math.nan), dict(tol=math.inf), dict(solver_tol=math.nan),
        dict(solver_tol=math.inf),
        dict(lambda_steps=3.0), dict(lambda_steps=2.5), dict(lambda_steps=math.nan),
        dict(lambda_steps=math.inf),
        dict(n_atoms=(math.nan,)), dict(n_atoms=(math.inf,)),
        dict(n_atoms=(4, -math.inf)),
        dict(max_dim=2.5), dict(max_dim=math.inf), dict(max_dim=9.0),
        dict(max_dim="9"), dict(lambda_min="0"), dict(omega="1"),
        dict(omega0="1"), dict(lambda_max="3"), dict(tol="1e-9"),
        dict(solver_tol="1e-10"),
        dict(lambda_scale="log", lambda_min="0.1", lambda_max=1.0),
        dict(lambda_scale="log", lambda_min=0.5, lambda_max=2.0),
        dict(lambda_scale="log", lambda_min=0.1, lambda_max=1.0 + 1e-12),
        dict(two_lobe="false"), dict(two_lobe=0), dict(n_atoms=(4, 4)),
        dict(n_atoms=()),
        dict(max_dim=True),
        dict(omega=True), dict(omega0=True), dict(lambda_min=False),
        dict(lambda_max=True), dict(tol=True), dict(solver_tol=True),
        dict(n_atoms=(True,)), dict(n_atoms=(4, True)),
        dict(n_atoms=8), dict(n_atoms=None), dict(n_atoms=8.0), dict(n_atoms=math.inf),
        dict(n_atoms="8"), dict(n_atoms="inf"), dict(measures=None), dict(measures=3),
        dict(measures="s_vn"), dict(measures="s_vn,l_lin"),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            SweepConfig(**bad).validate()

    def test_list_fields_take_a_tuple_or_list(self):
        # a bare value is named as the field's error, not read entry by entry
        for name, bare in (("n_atoms", 8), ("n_atoms", None), ("measures", None),
                           ("measures", "s_vn")):
            with pytest.raises(ConfigError, match=f"{name} must be a tuple or list"):
                SweepConfig(**{name: bare}).validate()
        for kind in (tuple, list):
            SweepConfig(n_atoms=kind((8, "inf")), measures=kind(("s_vn",))).validate()

    def test_linear_grid_in_critical_units(self):
        config = SweepConfig(lambda_min=0.0, lambda_max=2.0, lambda_steps=5)
        grid = config.lambda_grid()
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_td_grid_excludes_critical_point(self):
        config = SweepConfig(lambda_min=0.0, lambda_max=2.0, lambda_steps=5)
        td = config.td_lambda_grid()
        assert len(td) == 4
        assert not np.any(np.isclose(td, config.lambda_c, rtol=1e-12))

    def test_log_grid_straddles_critical_point(self):
        config = SweepConfig(lambda_scale="log", lambda_min=1e-6,
                             lambda_max=1e-3, lambda_steps=7)
        grid = config.lambda_grid()
        lc = config.lambda_c
        assert len(grid) == 14
        assert (grid < lc).sum() == 7 and (grid > lc).sum() == 7
        offsets = np.abs(grid - lc) / lc
        assert offsets.min() == pytest.approx(1e-6, rel=1e-9)
        assert offsets.max() == pytest.approx(1e-3, rel=1e-9)

    def test_inf_entry_requests_td_rows(self):
        config = SweepConfig(n_atoms=(4, "inf"), backend="ed")
        assert config.backends() == ("ed", "td")
        assert config.integer_n_atoms() == (4,)


class TestRunSweep:
    def test_ed_point_matches_dense_reference_pipeline(self):
        config = SweepConfig(lambda_min=0.6, lambda_max=1.2, lambda_steps=2,
                             n_atoms=(2,), backend="ed")
        table, failures = run_sweep(config)
        assert not failures
        for row in rows_of(table):
            oracle = dense_reference_measures(1.0, 1.0, row["lambda"], 2,
                                              row["n_max"] + 20)
            assert row["s_vn"] == pytest.approx(oracle["s_vn"], abs=1e-6)
            assert row["l_lin"] == pytest.approx(oracle["l_lin"], abs=1e-6)
            assert row["q_avg"] == pytest.approx(oracle["q_avg"], abs=1e-6)
            assert row["jz_mean"] == pytest.approx(oracle["jz_mean"], abs=1e-6)
            assert row["converged"]

    def test_zero_coupling_point_is_exactly_disentangled(self):
        config = SweepConfig(lambda_min=0.0, lambda_max=1.0, lambda_steps=2,
                             n_atoms=(4,), backend="ed")
        table, _ = run_sweep(config)
        zero = [row for row in rows_of(table) if row["lambda"] == 0.0][0]
        assert zero["s_vn"] == 0.0
        assert zero["l_lin"] == 0.0
        assert zero["q_avg"] == 0.0
        assert zero["jz_mean"] == -0.5

    def test_ed_point_builds_the_atoms_rdm_once(self, monkeypatch):
        # Q reads the atoms RDM that s_vn and l_lin already use; here at
        # n_max > N, and test_reuses_the_callers_atoms_rdm covers n_max <= N
        built = []
        make_rdm = entanglement._make_rdm

        def recording_make_rdm(subsystem, matrix):
            built.append(subsystem)
            return make_rdm(subsystem, matrix)

        monkeypatch.setattr(entanglement, "_make_rdm", recording_make_rdm)
        config = SweepConfig(n_atoms=(4,), backend="ed")
        row, _ = sweep.measure_point_ed(config, 4, 0.75)
        assert row["n_max"] > 4
        assert built.count("atoms") == 1 and "field" not in built
        state = converge_cutoff(make_params(1.0, 1.0, 0.75, 4))
        assert row["q_avg"] == average_linear_entropy_Q(state)

    def test_td_rows_tagged_infinite_size(self):
        config = SweepConfig(lambda_min=0.2, lambda_max=1.6, lambda_steps=4,
                             backend="td",
                             measures=("s_vn", "l_lin", "q_avg", "ipr_inv",
                                       "t_eff", "kappa"))
        table, failures = run_sweep(config)
        assert not failures
        assert all(n == math.inf for n in table["n_atoms"])
        assert None not in table["t_eff"] and None not in table["kappa"]

    def test_perturbative_backend(self):
        config = SweepConfig(lambda_min=0.0, lambda_max=0.4, lambda_steps=3,
                             backend="perturbative")
        table, _ = run_sweep(config)
        assert table["backend"] == ["perturbative"] * 3
        assert table["s_vn"][0] == 0.0
        assert table["n_atoms"] == [None] * 3

    def test_all_backends_and_canonical_order(self):
        config = SweepConfig(lambda_min=0.1, lambda_max=0.5, lambda_steps=2,
                             n_atoms=(2, 4), backend="all",
                             measures=("s_vn",))
        table, _ = run_sweep(config)
        kinds = table["backend"]
        assert kinds == sorted(kinds, key=("ed", "td", "perturbative").index)
        ed = [row for row in rows_of(table) if row["backend"] == "ed"]
        assert [(row["n_atoms"], round(row["lambda_rel"], 6)) for row in ed] == [
            (2, 0.1), (2, 0.5), (4, 0.1), (4, 0.5)]

    def test_reports_come_out_in_canonical_order(self):
        # ED atom numbers run ascending whatever order they are given in,
        # so run_sweep needs no sort of its own
        config = SweepConfig(lambda_min=0.1, lambda_max=0.5, lambda_steps=2,
                             n_atoms=(8, 4), backend="all", measures=("s_vn",))
        table, _ = run_sweep(config)
        rows = rows_of(table)
        assert rows == sorted(rows, key=canonical_key)
        assert [row["n_atoms"] for row in rows if row["backend"] == "ed"] == [4, 4, 8, 8]

    def test_failures_come_out_in_the_rows_canonical_order(self, monkeypatch):
        # ED fails at both atom numbers, td and perturbative on their whole
        # grids: the failures list N-major within ED, then td, then
        # perturbative, as rows would be
        def domain_error(*args, **kwargs):
            raise ParameterError("injected")

        monkeypatch.setattr("dicke_qpt.thermo.closed_forms", domain_error)
        monkeypatch.setattr(sweep, "perturbative_entropy", domain_error)
        config = SweepConfig(lambda_min=1.5, lambda_max=3.0, lambda_steps=3,
                             n_atoms=(3, 2, "inf"), backend="all", max_dim=60)
        _, failures = run_sweep(config)
        keys = [canonical_key({"backend": f.backend, "n_atoms": f.n_atoms,
                               "lambda": f.coupling}) for f in failures]
        assert keys == sorted(keys)
        assert {f.n_atoms for f in failures if f.backend == "ed"} == {2, 3}
        assert [f.backend for f in failures if f.backend != "ed"] == (
            ["td"] * 3 + ["perturbative"] * 3)

    def test_point_functions_looked_up_per_call(self, monkeypatch):
        # run_sweep must call whatever the module attribute is when it runs,
        # so a wrapper installed after import sees every point; ED is called
        # per point, td once with its whole grid
        calls = {"ed": [], "td": []}

        def counting_ed(inner):
            def wrapper(config, n_atoms, coupling, start=None):
                calls["ed"].append((n_atoms, coupling))
                return inner(config, n_atoms, coupling, start)
            return wrapper

        def counting_td(inner):
            def wrapper(config, couplings):
                calls["td"].append(couplings)
                return inner(config, couplings)
            return wrapper

        monkeypatch.setattr(sweep, "measure_point_ed", counting_ed(sweep.measure_point_ed))
        monkeypatch.setattr(sweep, "measure_point_td", counting_td(sweep.measure_point_td))
        config = SweepConfig(lambda_min=0.2, lambda_max=1.6, lambda_steps=3,
                             n_atoms=(2, 3, "inf"), backend="ed", measures=("s_vn",))
        table, failures = run_sweep(config)
        assert not failures
        grid = config.lambda_grid().tolist()
        assert calls["ed"] == [(n, lam) for n in (2, 3) for lam in grid]
        (td_grid,) = calls["td"]
        np.testing.assert_array_equal(td_grid, config.td_lambda_grid())
        assert len(table["lambda"]) == len(calls["ed"]) + td_grid.size

    def test_grid_domain_error_fails_every_coupling(self, monkeypatch):
        # a domain error from the one td grid call becomes one failure row
        # per coupling of that grid, with the n_atoms of the td rows it
        # replaces, and the CLI exits 2
        from dicke_qpt.cli import main

        def domain_error(*args, **kwargs):
            raise ParameterError("injected")

        monkeypatch.setattr("dicke_qpt.thermo.closed_forms", domain_error)
        config = SweepConfig(lambda_min=0.2, lambda_max=1.6, lambda_steps=4,
                             n_atoms=("inf",), backend="perturbative", measures=("s_vn",))
        table, failures = run_sweep(config)
        assert table["backend"] == ["perturbative"] * 4
        assert [(f.backend, f.coupling, f.n_atoms, f.error) for f in failures] == [
            ("td", lam, math.inf, "ParameterError") for lam in config.td_lambda_grid().tolist()]
        assert all(f.message == "ParameterError: injected" for f in failures)
        assert main(["--backend", "td", "--lambda-steps", "4", "--measures", "s_vn"]) == 2
        # a perturbative failure row keeps the None of the perturbative rows
        monkeypatch.setattr("dicke_qpt.sweep.perturbative_entropy", domain_error)
        table, failures = run_sweep(config)
        assert table["lambda"] == []
        assert [(f.backend, f.n_atoms) for f in failures] == (
            [("td", math.inf)] * 4 + [("perturbative", None)] * 4)

    @pytest.mark.parametrize("backend, lambda_max, s_vn", [
        ("td", 1e39, [0.0, 1.0]), ("perturbative", 1e300, [0.0])])
    def test_grid_domain_error_fails_only_the_couplings_out_of_range(self, backend,
                                                                     lambda_max, s_vn):
        # td: lambda = 0 and 1.67e38 lie in the closed forms' range, 3.33e38
        # and 5e38 beyond it; perturbative: only lambda = 0 squares sigma to
        # a finite float.  The grid call fails, each coupling is evaluated
        # alone, and only those out of range become failure rows, in grid
        # order.  The rows kept are those of their one-coupling grids
        config = SweepConfig(lambda_max=lambda_max, lambda_steps=4, n_atoms=(2,),
                             backend=backend, measures=("s_vn",))
        measure = getattr(sweep, f"measure_point_{backend}")
        grid = config.td_lambda_grid() if backend == "td" else config.lambda_grid()
        with pytest.raises(ParameterError):
            measure(config, grid)
        table, failures = run_sweep(config)
        kept = len(s_vn)
        assert table["lambda"] == grid[:kept].tolist() and table["s_vn"] == s_vn
        for i, row in enumerate(rows_of(table)):
            alone, none_failed = measure(config, grid[i:i + 1])
            assert not none_failed and [row] == rows_of(alone)
        n_atoms = math.inf if backend == "td" else None
        assert [(f.coupling, f.n_atoms, f.error) for f in failures] == [
            (lam, n_atoms, "ParameterError") for lam in grid[kept:].tolist()]

    def test_programming_errors_propagate(self, monkeypatch):
        # only domain failures become rows under "errors"; a bug must crash
        def broken(*args, **kwargs):
            raise TypeError("bug in a measure")

        monkeypatch.setattr("dicke_qpt.thermo.closed_forms", broken)
        config = SweepConfig(lambda_min=0.2, lambda_max=0.8, lambda_steps=2,
                             backend="td", measures=("s_vn",))
        with pytest.raises(TypeError, match="bug in a measure"):
            run_sweep(config)

    def test_report_bounds(self):
        config = SweepConfig(lambda_min=0.3, lambda_max=1.7, lambda_steps=3,
                             n_atoms=(4,), backend="ed")
        table, _ = run_sweep(config)
        for row in rows_of(table):
            assert 0.0 <= row["s_vn"] <= math.log2(min(5, row["n_max"] + 1))
            assert 0.0 <= row["l_lin"] <= 1.0
            assert 0.0 <= row["q_avg"] <= 1.0

    def test_finite_size_entropy_approaches_closed_form(self, resonant_ground):
        from dicke_qpt import entropy_td, make_params, partial_trace, von_neumann_entropy
        for ratio in (0.5, 0.8):
            target = entropy_td(make_params(1, 1, 0.5 * ratio, 2))
            gaps = []
            for n_atoms in (8, 16, 32):
                gs = resonant_ground(ratio, n_atoms)
                s = von_neumann_entropy(partial_trace(gs, "atoms"))
                gaps.append(abs(s - target))
            assert gaps[0] > gaps[1] > gaps[2]

    def test_entropy_sweep_reproduces_transition_shape(self):
        # finite-N peak near the critical coupling, closed-form divergence
        # there, and a one-bit tail at strong coupling
        config = SweepConfig(lambda_min=0.0, lambda_max=3.0, lambda_steps=13,
                             n_atoms=(8, "inf"), backend="ed",
                             measures=("s_vn",))
        table, failures = run_sweep(config)
        assert not failures
        rows = rows_of(table)
        ed = sorted((row for row in rows if row["backend"] == "ed"),
                    key=lambda row: row["lambda"])
        td = sorted((row for row in rows if row["backend"] == "td"),
                    key=lambda row: row["lambda"])
        ed_s = [row["s_vn"] for row in ed]
        peak_at = ed[int(np.argmax(ed_s))]["lambda_rel"]
        assert 0.75 <= peak_at <= 1.5
        assert abs(ed_s[-1] - 1.0) < 0.1
        near_crit = max(td, key=lambda row: row["s_vn"])
        assert abs(near_crit["lambda_rel"] - 1.0) <= 0.3
        from dicke_qpt import entropy_td, make_params
        close = entropy_td(make_params(1, 1, 0.5 * (1 - 1e-3), 2))
        assert close > max(ed_s)

    def test_failures_recorded_without_aborting(self):
        config = SweepConfig(lambda_min=0.0, lambda_max=4.0, lambda_steps=3,
                             n_atoms=(8,), backend="ed", max_dim=120)
        table, failures = run_sweep(config)
        # the strong-coupling point cannot converge inside 120 states
        assert any(f.coupling > 0 for f in failures)
        assert all("CutoffConvergence" in f.message or "Capacity" in f.message
                   for f in failures)
        assert 0.0 in table["lambda"]

    def test_failures_keep_structured_fields(self, monkeypatch):
        # a SolverError keeps its residual and a CutoffConvergenceError its
        # energy history, as fields and under JSON "errors"; CSV is unchanged
        real = sweep.converge_cutoff
        injected = {0.5: SolverError("residual 1.500e-03 above tolerance",
                                     residual=1.5e-3),
                    1.0: CutoffConvergenceError("hit capacity",
                                                energy_history=[-2.0, -2.25])}

        def failing(params, **kwargs):
            if params.coupling in injected:
                raise injected[params.coupling]
            return real(params, **kwargs)

        config = SweepConfig(lambda_min=0.0, lambda_max=2.0, lambda_steps=3,
                             n_atoms=(2,), measures=("s_vn",))
        _, clean = run_sweep(config)
        monkeypatch.setattr(sweep, "converge_cutoff", failing)
        survivors, failures = run_sweep(config)
        assert not clean and survivors["lambda"] == [0.0]
        solver, cutoff = failures
        assert (solver.error, solver.residual, solver.energy_history) == (
            "SolverError", 1.5e-3, ())
        assert solver.message == "SolverError: residual 1.500e-03 above tolerance"
        assert (cutoff.error, cutoff.residual, cutoff.energy_history) == (
            "CutoffConvergenceError", None, (-2.0, -2.25))
        errors = json.loads(emit(survivors, fmt="json", failures=failures))["errors"]
        assert errors == [
            {"backend": "ed", "lambda": 0.5, "n_atoms": 2, "message": solver.message,
             "error": "SolverError", "residual": 1.5e-3, "energy_history": []},
            {"backend": "ed", "lambda": 1.0, "n_atoms": 2, "message": cutoff.message,
             "error": "CutoffConvergenceError", "residual": None,
             "energy_history": [-2.0, -2.25]}]
        assert emit(survivors, failures=failures) == emit(survivors)


def cold_point(n_atoms, coupling):
    """Oracle: a standalone certified point, started from the fixed vector."""
    state = converge_cutoff(make_params(1.0, 1.0, coupling, n_atoms))
    return state.basis.n_max, von_neumann_entropy(partial_trace(state))


class TestContinuation:
    # N = 32 and 40 from 0.5 to 2 lambda_c: every first solve is a Lanczos
    # solve (parity blocks of 198 states and more), and the continued starts
    # are padded (1 -> 1.5 lambda_c) as well as truncated (1.5 -> 2 lambda_c)
    CONFIG = SweepConfig(lambda_min=0.5, lambda_max=2.0, lambda_steps=4,
                         n_atoms=(32, 40), measures=("s_vn",))

    def test_rows_match_cold_points(self):
        table, failures = run_sweep(self.CONFIG)
        assert not failures and len(table["lambda"]) == 8
        for row in rows_of(table):
            n_max, s_vn = cold_point(row["n_atoms"], row["lambda"])
            assert row["n_max"] == n_max
            assert abs(row["s_vn"] - s_vn) <= 1e-10

    def test_first_solve_starts_from_previous_point(self, monkeypatch):
        starts, firsts, accepted = [], [], []
        lanczos = eigensolver._lanczos

        def recording_lanczos(H, v0, tol):
            starts.append(v0)
            return lanczos(H, v0, tol)

        def recording_converge_cutoff(params, **kwargs):
            firsts.append(len(starts))
            accepted.append(converge_cutoff(params, **kwargs))
            if len(accepted) == 2:
                raise IntegrityError("fails after its cutoff was accepted")
            return accepted[-1]

        monkeypatch.setattr(eigensolver, "_lanczos", recording_lanczos)
        monkeypatch.setattr(sweep, "converge_cutoff", recording_converge_cutoff)
        table, failures = run_sweep(self.CONFIG)
        assert len(table["lambda"]) == 7 and len(failures) == 1
        first_starts = [starts[k] for k in firsts]
        points = [(n, lam) for n in (32, 40) for lam in self.CONFIG.lambda_grid()]
        # point -> the point whose accepted state it starts from; the others
        # are the first point of each N and the point after the failure
        continued = {1: 0, 3: 2, 5: 4, 6: 5, 7: 6}
        resized = set()
        for k, (n_atoms, coupling) in enumerate(points):
            params = make_params(1.0, 1.0, coupling, n_atoms)
            if k in continued:
                prev = accepted[continued[k]]
                basis = build_basis(params, suggest_cutoff(params))
                expected = np.zeros(basis.dim)
                size = min(basis.dim, prev.basis.dim)
                expected[:size] = prev.amplitudes.ravel()[:size]
                np.testing.assert_array_equal(first_starts[k],
                                              expected[parity_indices(basis, +1)])
                resized.add("padded" if size < basis.dim else "truncated")
            else:
                # the fixed start of a standalone call
                mark = len(starts)
                converge_cutoff(params)
                np.testing.assert_array_equal(first_starts[k], starts[mark])
        assert resized == {"padded", "truncated"}

    def test_standalone_call_unchanged_by_a_sweep(self):
        params = make_params(1.0, 1.0, 0.75, 32)
        before = converge_cutoff(params)
        run_sweep(self.CONFIG)
        after = converge_cutoff(params)
        assert after.energy == before.energy and after.residual == before.residual
        np.testing.assert_array_equal(after.amplitudes, before.amplitudes)

    def test_repeated_sweeps_emit_identical_bytes(self):
        texts = []
        for _ in range(2):
            table, failures = run_sweep(self.CONFIG)
            texts.append(emit(table, fmt="json", failures=failures))
        assert texts[0] == texts[1]


class TestFits:
    @staticmethod
    def synthetic_peak_rows(exponent=0.14, offset=0.3):
        rows = []
        for n in (8, 16, 32, 64):
            peak = exponent * math.log2(n) + offset
            for lam in np.linspace(0.3, 0.7, 9):
                s = peak - 3.0 * (lam - 0.5) ** 2
                rows.append({"backend": "ed", "lambda": float(lam),
                             "lambda_rel": 2 * float(lam), "n_atoms": n,
                             "s_vn": float(s), "converged": True})
        return rows

    def test_recovers_planted_entropy_exponent(self):
        fit = fit_entropy_scaling(table_of(self.synthetic_peak_rows()))
        assert fit.exponent == pytest.approx(0.14, abs=1e-12)
        assert fit.residual < 1e-12
        assert [p[0] for p in fit.peaks] == [8, 16, 32, 64]

    def test_needs_four_sizes(self):
        rows = [row for row in self.synthetic_peak_rows() if row["n_atoms"] != 64]
        with pytest.raises(FitError):
            fit_entropy_scaling(table_of(rows))

    def test_boundary_peak_rejected(self):
        rows = [{"backend": "ed", "lambda": float(lam), "lambda_rel": 2 * float(lam),
                 "n_atoms": n, "s_vn": float(lam), "converged": True}
                for n in (8, 16, 32, 64) for lam in np.linspace(0.3, 0.7, 5)]
        with pytest.raises(FitError):
            fit_entropy_scaling(table_of(rows))

    @staticmethod
    def synthetic_critical_rows(slope=-0.25, lc=0.5):
        rows = []
        for offset in np.logspace(-6, -3, 15):
            lam = lc * (1 - offset)
            s = slope * math.log2(lc * offset) + 0.7
            rows.append({"backend": "td", "lambda": float(lam),
                         "lambda_rel": float(lam) / lc, "n_atoms": math.inf,
                         "s_vn": float(s)})
        return rows

    def test_recovers_planted_entropy_slope(self):
        fits = fit_critical_exponents(table_of(self.synthetic_critical_rows()),
                                      omega=1.0, omega0=1.0)
        assert fits["s_vn"].exponent == pytest.approx(-0.25, abs=1e-12)
        assert fits["eps_minus"].exponent == pytest.approx(0.5, abs=1e-3)
        assert fits["l_minus"].exponent == pytest.approx(-0.25, abs=5e-4)

    def test_rejects_mismatched_frequencies(self):
        with pytest.raises(FitError):
            fit_critical_exponents(table_of(self.synthetic_critical_rows()),
                                   omega=1.0, omega0=3.0)

    @pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_invalid_frequencies(self, omega):
        with pytest.raises(ParameterError):
            fit_critical_exponents(table_of(self.synthetic_critical_rows()),
                                   omega=omega, omega0=1.0)

    def test_needs_points_below_transition(self):
        table = table_of([{"backend": "td", "lambda": 0.6, "lambda_rel": 1.2,
                           "n_atoms": math.inf, "s_vn": 1.0}])
        with pytest.raises(FitError):
            fit_critical_exponents(table, omega=1.0, omega0=1.0)

    def test_rejects_reports_from_two_frequency_pairs(self):
        # lambda_c is 0.5 at (1, 1) and 1.0 at (4, 1); either pair leaves the
        # other sweep's rows off its lambda_c
        rows = []
        for omega in (1.0, 4.0):
            config = SweepConfig(omega=omega, lambda_scale="log", lambda_min=1e-6,
                                 lambda_max=1e-3, lambda_steps=8, backend="td",
                                 measures=("s_vn",))
            rows += rows_of(run_sweep(config)[0])
        for omega in (1.0, 4.0):
            with pytest.raises(FitError):
                fit_critical_exponents(table_of(rows), omega=omega, omega0=1.0)


def oracle_cell(value) -> str:
    """Oracle CSV cell: one isinstance chain per value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def oracle_json_value(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def oracle_emit(rows, fits=None, fmt="csv", failures=()) -> str:
    """Oracle: a CSV join of per-cell strings, and the pure-Python
    json.dumps(indent=2); both take plain Python scalars only, rows in the
    order given."""
    extras = any(row.get("t_eff") is not None or row.get("kappa") is not None
                 for row in rows)
    columns = (BASE_HEADER.split(",") + (["t_eff", "kappa"] if extras else [])
               + ["backend"])
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(oracle_cell(row.get(c)) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "reports": [{c: oracle_json_value(row.get(c)) for c in columns} for row in rows],
        "fits": {name: fit.as_dict() for name, fit in sorted((fits or {}).items())},
        "errors": [f.as_dict() for f in failures],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def as_numpy(value):
    """The numpy scalar equal to a plain bool, int or float."""
    if isinstance(value, bool):
        return np.bool_(value)
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, float):
        return np.float64(value)
    return value


NUMBERS = st.one_of(st.booleans(), st.integers(-2**62, 2**62), st.floats())
SCALARS = st.one_of(st.none(), NUMBERS)
ROW_VALUES = ("lambda", "lambda_rel", "n_atoms", "n_max", "s_vn", "l_lin", "q_avg",
              "ipr_inv", "jz_mean", "residual", "converged", "t_eff", "kappa")
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def row_twins(draw):
    """A row of plain scalars, and its twin with some values as numpy scalars."""
    backend = draw(st.sampled_from(("ed", "td", "perturbative")))
    values = {"backend": backend, **{name: draw(SCALARS) for name in ROW_VALUES}}
    numpy_names = draw(st.sets(st.sampled_from(ROW_VALUES)))
    twin = {name: as_numpy(v) if name in numpy_names else v for name, v in values.items()}
    return values, twin


SCALING_FITS = st.builds(
    ScalingFit, quantity=st.text(), exponent=FINITE, stderr=FINITE,
    window=st.tuples(FINITE, FINITE), residual=FINITE,
    peaks=st.lists(st.tuples(st.integers(1, 512), FINITE, FINITE), max_size=3).map(tuple))
FAILURES = st.builds(
    SweepFailure, backend=st.sampled_from(("ed", "td", "perturbative")), coupling=FINITE,
    n_atoms=st.one_of(st.none(), st.integers(1, 512)), message=st.text(),
    error=st.text(), residual=st.one_of(st.none(), FINITE),
    energy_history=st.lists(FINITE, max_size=3).map(tuple))


# columns of six td rows, over blocks of 2 or 3 rows: each block builds its own
# row template, so a column may be written once in one block and per cell in
# the next
BLOCK_CASES = {
    "constant_then_varying": {"s_vn": [0.5, 0.5, 0.5, 0.25, 0.5, 0.125],
                              "n_max": [7, 7, 7, 8, 9, 9],
                              "l_lin": [None, None, None, 0.5, None, 0.75]},
    "signed_zeros": {"s_vn": [0.0, -0.0, -0.0, 0.0, 0.0, 0.0], "jz_mean": [-0.0] * 6,
                     "n_max": [0, 0.0, 0, 0, 0, 0]},
    "equal_values_of_three_types": {"n_max": [1, 1.0, True, 1, 1, 1],
                                    "converged": [True, True, 1, 1.0, True, True]},
    "non_finite": {"n_atoms": [math.inf] * 6, "residual": [-math.inf] * 6,
                   "l_lin": [math.nan] * 6,
                   "s_vn": [float("nan") for _ in range(6)],
                   "q_avg": [math.inf, -math.inf, math.nan, math.inf, 1.5, -math.inf]},
    "finite_floats_whose_sum_overflows": {"s_vn": [1e308, 1e308, 1e308, 1e308, 0.5, 1e308]},
}


class TestEmit:
    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_templates_match_byte_oracle(self, case, block):
        # a float zero is never written once for a whole column (0.0 ==
        # -0.0), nor are equal values of different types (1 == 1.0 == True),
        # nor nans that are distinct objects
        rows = [{"backend": "td", "lambda": 0.5 + k,
                 **{name: values[k] for name, values in BLOCK_CASES[case].items()}}
                for k in range(6)]
        with mock.patch.object(sweep, "_BLOCK_ROWS", block):
            for fmt in ("csv", "json"):
                assert emit(table_of(rows), fmt=fmt) == oracle_emit(rows, fmt=fmt)

    @pytest.mark.parametrize("block", [2, 3])
    def test_backend_switch_inside_a_block(self, block):
        # blocks of 2 rows hold one td and one perturbative row in the middle
        # block; blocks of 3 switch at the block boundary
        table, failures = run_sweep(SweepConfig(
            backend="all", n_atoms=("inf",), lambda_steps=3,
            measures=("s_vn", "l_lin", "q_avg", "ipr_inv", "t_eff", "kappa")))
        assert not failures and table["backend"] == ["td"] * 3 + ["perturbative"] * 3
        with mock.patch.object(sweep, "_BLOCK_ROWS", block):
            for fmt in ("csv", "json"):
                assert emit(table, fmt=fmt) == oracle_emit(rows_of(table), fmt=fmt)

    def test_empty_reports_give_header_only_csv(self):
        assert emit(table_of([])) == BASE_HEADER + ",backend\n"

    def test_csv_row_content(self):
        text = emit(table_of([{"backend": "td", "lambda": 0.25, "lambda_rel": 0.5,
                               "n_atoms": math.inf, "s_vn": 0.5, "converged": True}]))
        lines = text.splitlines()
        assert lines[0] == BASE_HEADER + ",backend"
        cells = lines[1].split(",")
        assert cells[0] == "0.25"
        assert cells[2] == "inf"
        assert cells[3] == ""          # no cutoff for closed forms
        assert cells[10] == "true"
        assert cells[-1] == "td"

    def test_extra_columns_only_when_present(self):
        text = emit(table_of([{"backend": "td", "lambda": 0.2, "lambda_rel": 0.4,
                               "n_atoms": math.inf, "t_eff": 0.3, "kappa": 0.9}]))
        assert text.splitlines()[0] == BASE_HEADER + ",t_eff,kappa,backend"

    def test_json_payload_structure(self):
        table = table_of([{"backend": "td", "lambda": 0.25, "lambda_rel": 0.5,
                           "n_atoms": math.inf, "s_vn": math.inf}])
        payload = json.loads(emit(table, fmt="json"))
        assert set(payload) == {"reports", "fits", "errors"}
        assert payload["reports"][0]["s_vn"] == "inf"
        assert payload["reports"][0]["n_atoms"] == math.inf or \
            payload["reports"][0]["n_atoms"] == "inf"

    def test_json_includes_fits_and_errors(self):
        fits = fit_critical_exponents(
            table_of(TestFits.synthetic_critical_rows()), omega=1.0, omega0=1.0)
        payload = json.loads(emit(table_of([]), fits=fits, fmt="json"))
        assert payload["fits"]["s_vn"]["exponent"] == pytest.approx(-0.25)
        assert payload["errors"] == []

    def test_byte_determinism(self, tmp_path):
        config = SweepConfig(lambda_min=0.1, lambda_max=1.9, lambda_steps=6,
                             backend="td")
        first, fails1 = run_sweep(config)
        second, fails2 = run_sweep(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(first, path=p1, failures=fails1)
        emit(second, path=p2, failures=fails2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(row_twins(), max_size=12),
           fits=st.one_of(st.none(), st.dictionaries(st.text(), SCALING_FITS, max_size=3)),
           failures=st.lists(FAILURES, max_size=3),
           block=st.sampled_from((1, 2, 5, 4096)))
    @example(pairs=[], fits=None, failures=[], block=4096)
    def test_matches_byte_oracle(self, pairs, fits, failures, block):
        # the C-encoded row writer writes what the per-cell oracle writes for
        # the plain rows, in the order given, in either format and whatever
        # the block size; a table holding a numpy scalar is rejected, not
        # converted
        plain = [p for p, _ in pairs]
        twins = [t for _, t in pairs]
        has_numpy = any(isinstance(v, np.generic) for t in twins for v in t.values())
        with mock.patch.object(sweep, "_BLOCK_ROWS", block):
            for fmt in ("csv", "json"):
                assert (emit(table_of(plain), fits=fits, fmt=fmt, failures=failures)
                        == oracle_emit(plain, fits=fits, fmt=fmt, failures=failures))
                if has_numpy:
                    with pytest.raises(TypeError, match="not a plain Python scalar"):
                        emit(table_of(twins), fits=fits, fmt=fmt, failures=failures)

    def test_numpy_scalars_rejected(self):
        row = {"backend": "ed", "lambda": 0.25, "lambda_rel": 0.5, "n_atoms": 8,
               "n_max": 12, "s_vn": 0.75, "jz_mean": -0.5, "residual": math.inf,
               "converged": True}
        assert emit(table_of([row])).splitlines()[1] == "0.25,0.5,8,12,0.75,,,,-0.5,inf,true,ed"
        for name, value in row.items():
            if name != "backend":
                # a str cell would come out as a quoted JSON literal in the CSV
                for bad in (as_numpy(value), str(value)):
                    twin = table_of([{**row, name: bad}])
                    for fmt in ("csv", "json"):
                        with pytest.raises(TypeError, match=repr(name)):
                            emit(twin, fmt=fmt)
        # a backend is one of KNOWN_BACKENDS, compared by exact type str
        for backend, error in (("foo", ValueError), ("a,b", ValueError),
                               ('"td"', ValueError), (np.str_("ed"), TypeError)):
            for fmt in ("csv", "json"):
                with pytest.raises(error, match="backend"):
                    emit(table_of([row, {**row, "backend": backend}]), fmt=fmt)

    def test_csv_reads_back_as_the_json_reports(self):
        # both formats come from one row writer: a --backend all --n-atoms inf
        # table, with non-finite cells added, reads back cell for cell alike
        table, failures = run_sweep(SweepConfig(
            backend="all", n_atoms=("inf",), lambda_steps=9,
            measures=("s_vn", "l_lin", "q_avg", "ipr_inv", "t_eff", "kappa")))
        assert not failures and set(table["backend"]) == {"td", "perturbative"}
        table["residual"][:3] = [math.nan, -math.inf, math.inf]
        table["s_vn"][-1] = math.nan
        non_finite = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}

        def from_csv(name, cell):
            if name == "backend":
                return cell
            spelled = {"": None, "true": True, "false": False, **non_finite}
            # NaN or Infinity would stay strings, and not match
            return spelled[cell] if cell in spelled else json.loads(
                cell, parse_constant=str)

        csv_rows = list(csv.DictReader(io.StringIO(emit(table))))
        json_rows = json.loads(emit(table, fmt="json"))["reports"]
        assert len(json_rows) == len(table["lambda"])
        assert ([[(k, repr(from_csv(k, v))) for k, v in row.items()] for row in csv_rows]
                == [[(k, repr(non_finite.get(v, v) if isinstance(v, str) and k != "backend"
                              else v)) for k, v in row.items()] for row in json_rows])
        assert [row["residual"] for row in json_rows[:3]] == ["nan", "-inf", "inf"]

    def test_ragged_table_rejected(self):
        table = table_of([{"backend": "td", "lambda": 0.25, "lambda_rel": 0.5}])
        table["lambda"].append(0.3)
        with pytest.raises(ValueError, match="differ in length"):
            emit(table)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit(table_of([]), fmt="parquet")
