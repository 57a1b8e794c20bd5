import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from dicke_qpt import (CutoffConvergenceError, ParameterError, SolverError,
                       assemble_hamiltonian, build_basis, converge_cutoff,
                       ground_state, make_params, partial_trace,
                       von_neumann_entropy)
from dicke_qpt import eigensolver
from dicke_qpt.eigensolver import (DEFAULT_ENERGY_TOL, TOP_WEIGHT_LIMIT,
                                   suggest_cutoff)


def hamiltonian_and_basis(params, n_max):
    basis = build_basis(params, n_max)
    return assemble_hamiltonian(params, basis), basis


def cold_escalation(params, growth=1.5):
    """Oracle: converge_cutoff's acceptance rule, each solve from scratch."""
    n_max = suggest_cutoff(params)
    prev = None
    while True:
        state = ground_state(*hamiltonian_and_basis(params, n_max))
        if (prev is not None and state.top_fock_weight() < TOP_WEIGHT_LIMIT
                and abs(state.energy - prev.energy) < DEFAULT_ENERGY_TOL):
            return state
        prev = state
        n_max = max(n_max + 2, math.ceil(n_max * growth))


class TestGroundState:
    def test_decoupled_limit_is_exact(self):
        params = make_params(1, 1, 0.0, 8)
        basis = build_basis(params, 6)
        gs = ground_state(assemble_hamiltonian(params, basis), basis)
        assert gs.energy == -4.0
        assert gs.amplitudes[basis.index(0, 0)] == 1.0
        assert abs(gs.amplitudes).sum() == 1.0

    def test_matches_dense_full_diagonalization(self):
        params = make_params(1, 1, 0.3, 2)
        basis = build_basis(params, 6)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        oracle = np.linalg.eigvalsh(H.toarray())[0]
        assert gs.energy == pytest.approx(oracle, abs=1e-10)

    def test_positive_parity(self, resonant_ground):
        gs = resonant_ground(0.9, 8)
        weight_minus = float(
            (gs.amplitudes[gs.basis.parity_indices(-1)] ** 2).sum())
        assert weight_minus == 0.0

    def test_residual_certificate(self):
        params = make_params(1, 1, 0.4, 4)
        basis = build_basis(params, 10)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis, tol=1e-10)
        assert gs.residual <= 1e-10 * abs(gs.energy)
        assert np.linalg.norm(gs.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_tolerance_raises(self):
        params = make_params(1, 1, 0.4, 4)
        basis = build_basis(params, 10)
        H = assemble_hamiltonian(params, basis)
        with pytest.raises(SolverError) as err:
            ground_state(H, basis, tol=1e-30)
        assert err.value.residual is not None

    def test_sign_convention(self):
        params = make_params(1, 1, 0.6, 4)
        basis = build_basis(params, 12)
        gs = ground_state(assemble_hamiltonian(params, basis), basis)
        assert gs.amplitudes[np.argmax(np.abs(gs.amplitudes))] > 0

    def test_projected_energy_is_full_ground_energy(self):
        # above lambda_c the two parity sectors are nearly degenerate; the
        # positive-parity block must still hold the global minimum
        params = make_params(1, 1, 1.2 * 0.5, 6)
        basis = build_basis(params, 24)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        oracle = np.linalg.eigvalsh(H.toarray())[0]
        assert gs.energy == pytest.approx(oracle, abs=1e-10)

    def test_variational_monotonicity(self):
        params = make_params(1, 1, 0.4, 4)
        energies = []
        for n_max in (4, 6, 8, 12):
            basis = build_basis(params, n_max)
            energies.append(ground_state(assemble_hamiltonian(params, basis),
                                         basis).energy)
        assert all(e1 <= e0 + 1e-13 for e0, e1 in zip(energies, energies[1:]))

    def test_iterative_path_agrees_with_dense(self):
        # a 2219-state parity block, far above DENSE_LIMIT: the Lanczos branch
        params = make_params(1, 1, 0.35, 16)
        basis = build_basis(params, 260)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        idx = basis.parity_indices(+1)
        dense = np.linalg.eigvalsh(H[idx][:, idx].toarray())[0]
        assert gs.energy == pytest.approx(dense, abs=1e-9)

    def test_dense_and_lanczos_paths_agree(self, monkeypatch):
        # N = 16 at lambda_c, n_max 45: a 391-state parity block
        params = make_params(1, 1, 0.5, 16)
        basis = build_basis(params, 45)
        H = assemble_hamiltonian(params, basis)
        monkeypatch.setattr(eigensolver, "DENSE_LIMIT", 10**6)
        dense = ground_state(H, basis)
        monkeypatch.setattr(eigensolver, "DENSE_LIMIT", 0)
        lanczos = ground_state(H, basis)
        assert basis.parity_indices(+1).size == 391
        assert abs(lanczos.energy - dense.energy) <= 1e-12 * abs(dense.energy)
        np.testing.assert_allclose(lanczos.amplitudes, dense.amplitudes, rtol=0, atol=1e-10)


class TestCutoffConvergence:
    def test_zero_coupling_converges_immediately(self):
        gs = converge_cutoff(make_params(1, 1, 0.0, 4), n_max_start=10)
        assert gs.converged
        assert gs.basis.n_max == 10
        assert gs.energy == -2.0

    def test_stable_under_further_doubling(self, resonant_ground):
        gs = resonant_ground(1.0, 8)
        params = make_params(1, 1, 0.5, 8)
        basis = build_basis(params, 2 * gs.basis.n_max)
        redo = ground_state(assemble_hamiltonian(params, basis), basis)
        assert abs(redo.energy - gs.energy) < 1e-8

    def test_cutoff_grows_with_coupling(self, resonant_ground):
        weak = resonant_ground(0.5, 8)
        strong = resonant_ground(3.0, 8)
        assert strong.basis.n_max > weak.basis.n_max

    def test_top_fock_weight_certified(self, resonant_ground):
        gs = resonant_ground(1.5, 8)
        assert gs.top_fock_weight() < 1e-8

    def test_capacity_exhaustion_reports_history(self):
        with pytest.raises(CutoffConvergenceError) as err:
            converge_cutoff(make_params(1, 1, 2.0, 8), n_max_start=10,
                            max_dim=200)
        assert len(err.value.energy_history) >= 1

    @pytest.mark.parametrize("n_atoms, ratio", [(16, 1.0), (32, 1.5), (64, 1.1)])
    def test_warm_start_matches_cold_escalation(self, n_atoms, ratio):
        params = make_params(1, 1, 0.5 * ratio, n_atoms)
        warm = converge_cutoff(params)
        cold = cold_escalation(params)
        assert warm.basis.n_max == cold.basis.n_max
        assert abs(warm.energy - cold.energy) <= 1e-12 * abs(cold.energy)
        s_warm = von_neumann_entropy(partial_trace(warm, warm.basis, "atoms"))
        s_cold = von_neumann_entropy(partial_trace(cold, cold.basis, "atoms"))
        assert abs(s_warm - s_cold) <= 1e-10

    def test_escalation_starts_from_padded_previous_vector(self, monkeypatch):
        starts, states = [], []

        def recording_eigsh(H, **kwargs):
            starts.append(kwargs["v0"])
            return eigsh(H, **kwargs)

        def recording_ground_state(H, basis, tol):
            states.append(ground_state(H, basis, tol))
            return states[-1]

        monkeypatch.setattr(eigensolver.spla, "eigsh", recording_eigsh)
        monkeypatch.setattr(eigensolver, "ground_state", recording_ground_state)
        params = make_params(1, 1, 0.75, 16)
        converge_cutoff(params)                 # three Lanczos solves
        assert len(starts) == len(states) == 3
        # the first solve keeps the fixed start of a standalone solve
        ground_state(*hamiltonian_and_basis(params, states[0].basis.n_max))
        np.testing.assert_array_equal(starts[0], starts[-1])
        for prev, state, v0 in zip(states, states[1:], starts[1:]):
            padded = np.zeros(state.basis.dim)
            padded[:prev.basis.dim] = prev.amplitudes
            np.testing.assert_array_equal(v0, padded[state.basis.parity_indices(+1)])

    def test_growth_must_exceed_one(self):
        for growth in (1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                converge_cutoff(make_params(1, 1, 0.2, 2), growth=growth)

    def test_energy_per_atom_approaches_mean_field(self, ground):
        # normal phase, large N: E/N -> -omega0/2
        gs = ground(1.0, 1.0, 0.15, 32)
        assert gs.energy / 32 == pytest.approx(-0.5, abs=0.01)
