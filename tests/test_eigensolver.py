import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dicke_qpt import (CutoffConvergenceError, ParameterError, SolverError,
                       SweepConfig, assemble_hamiltonian, build_basis,
                       converge_cutoff, ground_state, make_params, partial_trace,
                       run_sweep, von_neumann_entropy)
from dicke_qpt import eigensolver
from dicke_qpt.eigensolver import (DEFAULT_ENERGY_TOL, TOP_WEIGHT_LIMIT,
                                   suggest_cutoff)
from oracles import full_hamiltonian, parity_block, parity_indices


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
        assert gs.amplitudes[0, 0] == 1.0
        assert abs(gs.amplitudes).sum() == 1.0

    def test_matches_dense_full_diagonalization(self):
        params = make_params(1, 1, 0.3, 2)
        basis = build_basis(params, 6)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        oracle = np.linalg.eigvalsh(full_hamiltonian(params, basis).toarray())[0]
        assert gs.energy == pytest.approx(oracle, abs=1e-10)

    def test_positive_parity(self, resonant_ground):
        gs = resonant_ground(0.9, 8)
        weight_minus = float(
            (gs.amplitudes[gs.basis.parity == -1] ** 2).sum())
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
        amps = gs.amplitudes.ravel()
        assert amps[np.argmax(np.abs(amps))] > 0

    def test_projected_energy_is_full_ground_energy(self):
        # above lambda_c the two parity sectors are nearly degenerate; the
        # positive-parity block must still hold the global minimum
        params = make_params(1, 1, 1.2 * 0.5, 6)
        basis = build_basis(params, 24)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        oracle = np.linalg.eigvalsh(full_hamiltonian(params, basis).toarray())[0]
        assert gs.energy == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("n_atoms, ratio, n_max", [
        (4, 0.8, 10), (5, 1.5, 12), (16, 1.0, 45), (33, 2.0, 40)])
    def test_residual_is_the_full_hamiltonian_residual(self, n_atoms, ratio, n_max):
        # blocks of 28 to 697 states, even and odd N: the block residual equals
        # ||Hv - Ev|| of the full Hamiltonian, whose -1 amplitudes are zero
        params = make_params(1.3, 0.7, ratio * math.sqrt(1.3 * 0.7) / 2, n_atoms)
        H, basis = hamiltonian_and_basis(params, n_max)
        gs = ground_state(H, basis)
        assert np.all(gs.amplitudes[basis.parity == -1] == 0.0)
        full = full_hamiltonian(params, basis)
        amps = gs.amplitudes.ravel()
        oracle = np.linalg.norm(full @ amps - gs.energy * amps)
        assert gs.residual == pytest.approx(oracle, rel=1e-14)

    def test_variational_monotonicity(self):
        params = make_params(1, 1, 0.4, 4)
        energies = []
        for n_max in (4, 6, 8, 12):
            basis = build_basis(params, n_max)
            energies.append(ground_state(assemble_hamiltonian(params, basis),
                                         basis).energy)
        assert all(e1 <= e0 + 1e-13 for e0, e1 in zip(energies, energies[1:]))

    def test_iterative_path_agrees_with_dense(self):
        # a 2219-state parity block
        params = make_params(1, 1, 0.35, 16)
        basis = build_basis(params, 260)
        H = assemble_hamiltonian(params, basis)
        gs = ground_state(H, basis)
        dense = np.linalg.eigvalsh(parity_block(params, basis).toarray())[0]
        assert gs.energy == pytest.approx(dense, abs=1e-9)


@pytest.fixture
def lanczos_steps(monkeypatch):
    """The beta_k of every Lanczos step taken, second passes included."""
    steps = []
    vectors = eigensolver._lanczos_vectors

    def counting_vectors(H, q):
        for item in vectors(H, q):
            steps.append(item[2])
            yield item

    monkeypatch.setattr(eigensolver, "_lanczos_vectors", counting_vectors)
    return steps


class TestLanczos:
    @pytest.mark.parametrize("omega, omega0", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("keep", [True, False])
    def test_matches_dense_eigh(self, monkeypatch, omega, omega0, ratio, keep):
        # normal phase, lambda_c and superradiant phase, on and off
        # resonance; N = 16 blocks of 400-1046 states.  Without room to keep
        # the Lanczos vectors, the second pass regenerates them
        if not keep:
            monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", 0)
        params = make_params(omega, omega0, ratio * math.sqrt(omega * omega0) / 2, 16)
        H, _ = hamiltonian_and_basis(params, max(46, suggest_cutoff(params) + 10))
        energy, vec = eigensolver._lowest_eigenpair(H, eigensolver.DEFAULT_TOL, None)
        w, v = np.linalg.eigh(H.toarray())
        assert abs(energy - w[0]) <= 1e-12 * abs(w[0])
        assert abs(vec @ v[:, 0]) / np.linalg.norm(vec) >= 1 - 1e-12

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 8])
    def test_small_blocks(self, lanczos_steps, n_atoms):
        # cutoffs from 0 up to blocks of 150 states, below, at and above
        # lambda_c.  A cutoff-0 block is one Fock layer, which the coupling
        # never connects, so it is diagonal and read off exactly; every
        # larger one is solved by Lanczos, also those of fewer states than
        # _RITZ_EVERY steps
        for n_max in (0, 1, 2, 3, 4, 5, 7, 10, 14, 20, 28, 40, 56, 80, 112, 149):
            for ratio in (0.1, 1.0, 4.0):
                params = make_params(1, 1, 0.5 * ratio, n_atoms)
                H, basis = hamiltonian_and_basis(params, n_max)
                if H.shape[0] > 150:
                    return
                steps = len(lanczos_steps)
                gs = ground_state(H, basis)
                assert (len(lanczos_steps) > steps) == (n_max > 0)
                w, v = np.linalg.eigh(parity_block(params, basis).toarray())
                assert abs(gs.energy - w[0]) <= 1e-12 * abs(w[0])
                assert abs(gs.amplitudes[basis.parity == +1] @ v[:, 0]) >= 1 - 1e-12
                assert gs.residual <= eigensolver.DEFAULT_TOL * abs(gs.energy)

    def test_repeated_calls_are_bit_identical(self):
        params = make_params(1, 1, 0.6, 16)
        H, basis = hamiltonian_and_basis(params, 60)
        first, second = ground_state(H, basis), ground_state(H, basis)
        assert first.energy == second.energy and first.residual == second.residual
        np.testing.assert_array_equal(first.amplitudes, second.amplitudes)

    def test_kept_and_regenerated_vectors_give_the_same_bits(self, monkeypatch,
                                                             lanczos_steps):
        H, _ = hamiltonian_and_basis(make_params(1, 1, 0.5, 16), 45)
        kept = eigensolver._lowest_eigenpair(H, eigensolver.DEFAULT_TOL, None)
        n_kept = len(lanczos_steps)
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", 0)
        regenerated = eigensolver._lowest_eigenpair(H, eigensolver.DEFAULT_TOL, None)
        assert len(lanczos_steps) == 3 * n_kept
        assert kept[0] == regenerated[0]
        np.testing.assert_array_equal(kept[1], regenerated[1])

    @pytest.mark.parametrize("n_max, dim", [(605, 9_999), (607, 10_032)])
    def test_kept_and_regenerated_bits_at_the_blas_limit(self, monkeypatch,
                                                         lanczos_steps, n_max, dim):
        # N = 32 blocks just below and just above _BLAS_MAX, whose vector
        # operations go through BLAS and through NumPy: both passes of a
        # solve must take the same ones.  The first solve keeps every vector
        H, _ = hamiltonian_and_basis(make_params(1, 1, 0.5, 32), n_max)
        assert H.shape[0] == dim
        assert (dim <= eigensolver._BLAS_MAX) == (n_max == 605)
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", dim * eigensolver.LANCZOS_MAX_STEPS)
        kept = eigensolver._lowest_eigenpair(H, eigensolver.DEFAULT_TOL, None)
        n_kept = len(lanczos_steps)
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", 0)
        regenerated = eigensolver._lowest_eigenpair(H, eigensolver.DEFAULT_TOL, None)
        assert len(lanczos_steps) == 3 * n_kept
        assert kept[0] == regenerated[0]
        np.testing.assert_array_equal(kept[1], regenerated[1])

    def test_exact_eigenvector_start_is_returned(self, lanczos_steps):
        # decoupled, H is diagonal: from the ground basis vector beta_1 = 0,
        # so Lanczos takes one step (k = 1) and the start comes back
        # unchanged.  ground_state takes no step there: it reads the ground
        # state off the diagonal, and gets the same exact state
        params = make_params(1, 1, 0.0, 16)
        H, basis = hamiltonian_and_basis(params, 30)
        start = np.zeros(H.shape[0])
        start[0] = 1.0
        energy, vec = eigensolver._lanczos(H, start, eigensolver.DEFAULT_TOL)
        assert lanczos_steps == [0.0]
        assert energy == -8.0
        np.testing.assert_array_equal(vec, start)
        amplitudes = np.zeros(basis.parity.shape)
        amplitudes[0, 0] = 1.0
        gs = ground_state(H, basis, start=amplitudes)
        assert lanczos_steps == [0.0]
        assert gs.energy == -8.0 and gs.residual == 0.0
        np.testing.assert_array_equal(gs.amplitudes, amplitudes)

    @pytest.mark.parametrize("kind", ["zero", "minus_one", "nan", "nan_minus_one",
                                      "flat", "other_n"])
    def test_unusable_start_rejected(self, request, kind):
        # rejected before any Lanczos step: normalizing a start without +1
        # weight divides 0 by 0, and the tridiagonal eigensolver then fails;
        # a flat vector or an N = 4 state, resized into the N = 16 block,
        # would be a scrambled start.  Steps are counted once the start is
        # built, since building the N = 4 state takes some
        params = make_params(1, 1, 0.5, 16)
        H, basis = hamiltonian_and_basis(params, 30)
        plus, minus = parity_indices(basis, +1), parity_indices(basis, -1)
        start = np.zeros(basis.dim)
        if kind == "minus_one":
            start[minus] = 1.0
        elif kind == "nan":
            start[plus] = 1.0
            start[plus[-1]] = math.nan
        elif kind == "nan_minus_one":
            start[plus] = 1.0
            start[minus[-1]] = math.nan
        elif kind == "flat":
            start[plus] = 1.0
        if kind == "other_n":
            start = converge_cutoff(make_params(1, 1, 0.5, 4)).amplitudes
        elif kind != "flat":
            start = start.reshape(basis.parity.shape)
        lanczos_steps = request.getfixturevalue("lanczos_steps")
        with pytest.raises(ParameterError):
            ground_state(H, basis, start=start)
        with pytest.raises(ParameterError):
            converge_cutoff(params, n_max_start=30, start=start)
        assert lanczos_steps == []

    def test_start_is_keyword_only(self):
        params = make_params(1, 1, 0.5, 16)
        H, basis = hamiltonian_and_basis(params, 30)
        start = ground_state(H, basis).amplitudes
        with pytest.raises(TypeError):
            ground_state(H, basis, eigensolver.DEFAULT_TOL, start)
        with pytest.raises(TypeError):
            converge_cutoff(params, None, 1.5, 1e-9, 1e-10, 10**6, start)

    def test_step_cap_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "LANCZOS_MAX_STEPS", 5)
        params = make_params(1, 1, 0.5, 16)
        with pytest.raises(SolverError) as err:
            ground_state(*hamiltonian_and_basis(params, 45))
        assert "5 steps" in str(err.value) and err.value.residual > 0

    def test_step_cap_becomes_failure_row(self, monkeypatch):
        # lambda = 0 is decoupled, and its diagonal block takes no Lanczos
        # step; lambda_c and 2 lambda_c need more than 5 steps
        monkeypatch.setattr(eigensolver, "LANCZOS_MAX_STEPS", 5)
        config = SweepConfig(lambda_min=0.0, lambda_max=2.0, lambda_steps=3,
                             n_atoms=(16,), measures=("s_vn",))
        table, failures = run_sweep(config)
        assert table["lambda"] == [0.0]
        assert len(failures) == 2
        assert all(f.message.startswith("SolverError: Lanczos") for f in failures)

    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    def test_ritz_pair_matches_eigh_tridiagonal(self, k):
        # the direct dstebz/dstein calls give eigh_tridiagonal's bits
        rng = np.random.default_rng(k)
        alphas, betas = rng.standard_normal(k).tolist(), rng.random(k).tolist()
        theta, y = eigensolver._lowest_ritz_pair(alphas, betas)
        w, v = eigh_tridiagonal(alphas, betas[:-1], select="i", select_range=(0, 0))
        assert theta == w[0]
        np.testing.assert_array_equal(y, v[:, 0])

    def test_tridiagonal_lapack_failure_raises_solver_error(self, monkeypatch):
        H, _ = hamiltonian_and_basis(make_params(1, 1, 0.5, 16), 45)
        stebz, stein = eigensolver.dstebz, eigensolver.dstein

        def failing_stebz(*args):
            m, w, iblock, isplit, info = stebz(*args)
            return m, w, iblock, isplit, 1

        def failing_stein(*args):
            return stein(*args)[0], 2

        for name, failing in (("dstebz", failing_stebz), ("dstein", failing_stein)):
            with monkeypatch.context() as patch:
                patch.setattr(eigensolver, name, failing)
                with pytest.raises(SolverError, match="info"):
                    eigensolver._lowest_eigenpair(H, eigensolver.DEFAULT_TOL, None)

    def test_loads_no_sparse_linalg(self, fresh_interpreter):
        # the Lanczos solver needs only a sparse matvec and scipy.linalg;
        # the interpreter ran converge_cutoff at N = 4, whose Lanczos solves
        # it counted
        proc = fresh_interpreter
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].split() == ["True", "False"]


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
        s_warm = von_neumann_entropy(partial_trace(warm, "atoms"))
        s_cold = von_neumann_entropy(partial_trace(cold, "atoms"))
        assert abs(s_warm - s_cold) <= 1e-10

    def test_escalation_starts_from_padded_previous_vector(self, monkeypatch):
        starts, states = [], []
        lanczos = eigensolver._lanczos

        def recording_lanczos(H, v0, tol):
            starts.append(v0)
            return lanczos(H, v0, tol)

        def recording_ground_state(H, basis, tol, *, start=None):
            states.append(ground_state(H, basis, tol, start=start))
            return states[-1]

        monkeypatch.setattr(eigensolver, "_lanczos", recording_lanczos)
        monkeypatch.setattr(eigensolver, "ground_state", recording_ground_state)
        params = make_params(1, 1, 0.75, 16)
        converge_cutoff(params)                 # three Lanczos solves
        assert len(starts) == len(states) == 3
        # the first solve keeps the fixed start of a standalone solve
        ground_state(*hamiltonian_and_basis(params, states[0].basis.n_max))
        np.testing.assert_array_equal(starts[0], starts[-1])
        for prev, state, v0 in zip(states, states[1:], starts[1:]):
            padded = np.zeros(state.basis.dim)
            padded[:prev.basis.dim] = prev.amplitudes.ravel()
            np.testing.assert_array_equal(v0, padded[parity_indices(state.basis, +1)])

    def test_growth_must_exceed_one(self):
        for growth in (1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                converge_cutoff(make_params(1, 1, 0.2, 2), growth=growth)

    def test_energy_per_atom_approaches_mean_field(self, ground):
        # normal phase, large N: E/N -> -omega0/2
        gs = ground(1.0, 1.0, 0.15, 32)
        assert gs.energy / 32 == pytest.approx(-0.5, abs=0.01)
