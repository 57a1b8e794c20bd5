import numpy as np
import pytest

from dicke_qpt import (CutoffConvergenceError, SolverError,
                       assemble_hamiltonian, build_basis, converge_cutoff,
                       ground_state, make_params)


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
        assert gs.parity == +1
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
        assert gs.parity == +1

    def test_variational_monotonicity(self):
        params = make_params(1, 1, 0.4, 4)
        energies = []
        for n_max in (4, 6, 8, 12):
            basis = build_basis(params, n_max)
            energies.append(ground_state(assemble_hamiltonian(params, basis),
                                         basis).energy)
        assert all(e1 <= e0 + 1e-13 for e0, e1 in zip(energies, energies[1:]))

    def test_iterative_path_agrees_with_dense(self):
        # dimension above the dense threshold exercises the Lanczos branch
        params = make_params(1, 1, 0.35, 16)
        basis = build_basis(params, 260)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        idx = basis.parity_indices(+1)
        dense = np.linalg.eigvalsh(H[idx][:, idx].toarray())[0]
        assert gs.energy == pytest.approx(dense, abs=1e-9)


class TestCutoffConvergence:
    def test_zero_coupling_converges_immediately(self):
        gs = converge_cutoff(make_params(1, 1, 0.0, 4), n_max_start=10)
        assert gs.converged
        assert gs.n_max_used == 10
        assert gs.energy == -2.0

    def test_stable_under_further_doubling(self, resonant_ground):
        gs = resonant_ground(1.0, 8)
        params = make_params(1, 1, 0.5, 8)
        basis = build_basis(params, 2 * gs.n_max_used)
        redo = ground_state(assemble_hamiltonian(params, basis), basis)
        assert abs(redo.energy - gs.energy) < 1e-8

    def test_cutoff_grows_with_coupling(self, resonant_ground):
        weak = resonant_ground(0.5, 8)
        strong = resonant_ground(3.0, 8)
        assert strong.n_max_used > weak.n_max_used

    def test_top_fock_weight_certified(self, resonant_ground):
        gs = resonant_ground(1.5, 8)
        assert gs.top_fock_weight() < 1e-8

    def test_capacity_exhaustion_reports_history(self):
        with pytest.raises(CutoffConvergenceError) as err:
            converge_cutoff(make_params(1, 1, 2.0, 8), n_max_start=10,
                            max_dim=200)
        assert len(err.value.energy_history) >= 1

    def test_growth_must_exceed_one(self):
        with pytest.raises(ValueError):
            converge_cutoff(make_params(1, 1, 0.2, 2), growth=1.0)

    def test_energy_per_atom_approaches_mean_field(self, ground):
        # normal phase, large N: E/N -> -omega0/2
        gs = ground(1.0, 1.0, 0.15, 32)
        assert gs.energy / 32 == pytest.approx(-0.5, abs=0.01)
