import math
import sys

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


def cold_escalation(params):
    """Oracle: converge_cutoff's cutoffs and acceptance rule, each solve from
    scratch."""
    n_max = suggest_cutoff(params)
    prev = None
    while True:
        state = ground_state(*hamiltonian_and_basis(params, n_max))
        if (prev is not None and state.top_fock_weight() < TOP_WEIGHT_LIMIT
                and abs(state.energy - prev.energy) < DEFAULT_ENERGY_TOL):
            return state
        prev = state
        n_max = max(n_max + 2, math.ceil(n_max * 1.5))


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


class _CountingMatvecs:
    """A block H whose every product H @ q appends H's size to steps."""

    def __init__(self, H, steps):
        self.H, self.shape, self.steps = H, H.shape, steps

    def __matmul__(self, q):
        self.steps.append(self.shape[0])
        return self.H @ q


@pytest.fixture
def lanczos_steps(monkeypatch):
    """The block size of every Lanczos matvec, second passes included.

    A step of either pass makes one matvec, so its length counts steps.
    """
    steps = []
    lanczos = eigensolver._lanczos
    monkeypatch.setattr(eigensolver, "_lanczos",
                        lambda H, v0, tol: lanczos(_CountingMatvecs(H, steps), v0, tol))
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
        H, basis = hamiltonian_and_basis(params, max(46, suggest_cutoff(params) + 10))
        gs = ground_state(H, basis)
        vec = gs.amplitudes[basis.parity == +1]
        w, v = np.linalg.eigh(H.toarray())
        assert abs(gs.energy - w[0]) <= 1e-12 * abs(w[0])
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

    @pytest.mark.parametrize("n_kept", [0, 1, 7, "all"])
    def test_second_pass_resumes_from_the_kept_vectors(self, monkeypatch,
                                                       lanczos_steps, n_kept):
        # a 1046-state block solved in k steps, once keeping every vector and
        # once keeping m: the second pass regenerates only the k - m others,
        # with the same bits.  With room for none it still keeps q_1, the
        # start vector, which it holds anyway, so m = 0 resumes as m = 1
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.5, 16), 45)
        dim = H.shape[0]
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", dim * eigensolver.LANCZOS_MAX_STEPS)
        kept = ground_state(H, basis)
        k = len(lanczos_steps)
        m = k if n_kept == "all" else max(n_kept, 1)
        assert k > 7
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", dim * m)
        resumed = ground_state(H, basis)
        assert len(lanczos_steps) == k + k + (k - m)
        assert kept.energy == resumed.energy
        np.testing.assert_array_equal(kept.amplitudes, resumed.amplitudes)

    @pytest.mark.parametrize("n_max, dim, chunks", [
        pytest.param(605, 9_999, 1, id="605-9999"),
        pytest.param(607, 10_032, 2, id="607-10032"),
        pytest.param(1215, 20_064, 3, id="1215-20064")])
    def test_kept_and_regenerated_bits_at_the_blas_limit(self, monkeypatch, lanczos_steps,
                                                         n_max, dim, chunks):
        # N = 32 blocks of one, two and three _BLAS_MAX chunks: both passes
        # of a solve must chunk their vector operations alike.  The first
        # solve keeps every vector, the second only q_1
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.5, 32), n_max)
        assert H.shape[0] == dim
        assert math.ceil(dim / eigensolver._BLAS_MAX) == chunks
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", dim * eigensolver.LANCZOS_MAX_STEPS)
        kept = ground_state(H, basis)
        k = len(lanczos_steps)
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", 0)
        regenerated = ground_state(H, basis)
        assert len(lanczos_steps) == k + k + (k - 1)
        assert kept.energy == regenerated.energy
        np.testing.assert_array_equal(kept.amplitudes, regenerated.amplitudes)

    def test_second_pass_makes_no_dot_product(self, monkeypatch, lanczos_steps):
        # keeping only q_1, a solve of k first-pass steps regenerates
        # q_2, ..., q_k by one matvec each and no dot product: two dots a
        # step of the first pass, none after it
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.5, 16), 46)
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", H.shape[0] * eigensolver.LANCZOS_MAX_STEPS)
        ground_state(H, basis)
        k = len(lanczos_steps)
        assert k == 90
        dots = []
        vector_ops = eigensolver._vector_ops

        def counting_vector_ops(size):
            dot, axpy = vector_ops(size)
            return lambda x, y: dots.append(size) or dot(x, y), axpy

        monkeypatch.setattr(eigensolver, "_vector_ops", counting_vector_ops)
        monkeypatch.setattr(eigensolver, "_KEEP_FLOATS", 0)
        ground_state(H, basis)
        assert len(dots) == 2 * k
        assert len(lanczos_steps) - k == 2 * k - 1

    def test_multi_chunk_solve_matches_eigsh(self):
        # a 20,689-state block, three _BLAS_MAX chunks, against ARPACK at
        # machine precision
        from scipy.sparse.linalg import eigsh
        params = make_params(1, 1, 0.75, 256)
        H, basis = hamiltonian_and_basis(params, 160)
        assert H.shape[0] == 20_689
        gs = ground_state(H, basis)
        w, v = eigsh(H.tocsr(), k=1, which="SA", tol=0)
        assert abs(gs.energy - w[0]) <= 1e-12 * abs(w[0])
        assert abs(gs.amplitudes[basis.parity == +1] @ v[:, 0]) >= 1 - 1e-12

    def test_exact_eigenvector_start_is_returned(self, lanczos_steps):
        # decoupled, H is diagonal: from the ground basis vector beta_1 = 0,
        # so Lanczos takes one step (k = 1), one matvec on the block, and the
        # start comes back unchanged; step 1 is no Ritz-check step, so only
        # beta_1 = 0 ends a solve there.  ground_state takes no step: it
        # reads the ground state off the diagonal, and gets the same exact
        # state
        params = make_params(1, 1, 0.0, 16)
        H, basis = hamiltonian_and_basis(params, 30)
        start = np.zeros(H.shape[0])
        start[0] = 1.0
        energy, vec = eigensolver._lanczos(H, start, eigensolver.DEFAULT_TOL)
        assert lanczos_steps == [H.shape[0]]
        assert energy == -8.0
        np.testing.assert_array_equal(vec, start)
        amplitudes = np.zeros(basis.parity.shape)
        amplitudes[0, 0] = 1.0
        gs = ground_state(H, basis, start=amplitudes)
        assert lanczos_steps == [H.shape[0]]
        assert gs.energy == -8.0 and gs.residual == 0.0
        np.testing.assert_array_equal(gs.amplitudes, amplitudes)

    @pytest.mark.parametrize("kind", ["zero", "minus_one", "nan", "nan_minus_one",
                                      "flat", "other_n"])
    def test_unusable_start_rejected(self, request, kind):
        # rejected before any Lanczos step: normalizing a start without +1
        # weight divides 0 by 0, and the tridiagonal eigensolver then fails;
        # a flat vector or an N = 4 state, resized into the N = 16 block,
        # would be a scrambled start.  Steps are counted once the start is
        # built, since building the N = 4 state takes some.  The block is
        # the one converge_cutoff solves first, at the suggested cutoff
        params = make_params(1, 1, 0.5, 16)
        H, basis = hamiltonian_and_basis(params, suggest_cutoff(params))
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
            converge_cutoff(params, start=start)
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
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.5, 16), 45)
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
                    ground_state(H, basis)

    def test_loads_no_sparse_linalg(self, fresh_interpreter):
        # the Lanczos solver needs only a sparse matvec and scipy.linalg;
        # the interpreter ran converge_cutoff at N = 4, whose Lanczos solves
        # it counted
        proc = fresh_interpreter
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].split() == ["True", "False"]


@pytest.fixture
def windows(monkeypatch):
    """The window and block rows of every windowed Lanczos solve, in order."""
    calls = []
    block = eigensolver._window_block

    def recording_block(H, basis, window):
        sub, rows = block(H, basis, window)
        calls.append((window, rows))
        return sub, rows

    monkeypatch.setattr(eigensolver, "_window_block", recording_block)
    return calls


def certified(state, H, rows=None):
    """The whole-block certificate, reported as the residual, and for a
    solve on a window of block rows, its leak: ||Hv - Ev|| outside them."""
    v = state.amplitudes[state.basis.parity == +1]
    r = H @ v - state.energy * v
    bound = eigensolver.DEFAULT_TOL * abs(state.energy)
    if rows is not None:
        r_out = r.copy()
        r_out[rows] = 0.0
        if np.linalg.norm(r_out) > 1e-3 * bound:
            return False
    residual = np.linalg.norm(r)
    return state.residual == pytest.approx(residual, rel=1e-12) and residual <= bound


class TestWindowedSolve:
    # each solve starts from the ground state a quarter of lambda_c lower, at
    # the same cutoff, as the large_n sweep continues its points; blocks of
    # 2,113 to 45,361 states, 5 diagonals for even N and 7 for odd N
    @pytest.mark.parametrize("n_atoms, ratio, n_max", [
        (64, 0.5, 64), (64, 1.0, 72), (65, 0.5, 64), (65, 1.0, 72), (128, 2.0, 240),
        (129, 2.0, 240), (256, 0.5, 40), (256, 1.0, 108), (256, 2.0, 352)])
    def test_matches_the_whole_block_solve(self, monkeypatch, windows, n_atoms, ratio, n_max):
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.5 * ratio, n_atoms), n_max)
        start = ground_state(*hamiltonian_and_basis(
            make_params(1, 1, 0.5 * (ratio - 0.25), n_atoms), n_max)).amplitudes
        windowed = ground_state(H, basis, start=start)
        assert windows and windows[-1][1].size < H.shape[0]
        assert certified(windowed, H, windows[-1][1])
        with monkeypatch.context() as patch:
            patch.setattr(eigensolver, "_WINDOW_MIN_DIM", H.shape[0] + 1)
            count = len(windows)
            whole = ground_state(H, basis, start=start)
            assert len(windows) == count
        assert certified(whole, H)
        assert abs(windowed.energy - whole.energy) <= 1e-12 * abs(whole.energy)
        s_windowed = von_neumann_entropy(partial_trace(windowed, "atoms"))
        s_whole = von_neumann_entropy(partial_trace(whole, "atoms"))
        assert abs(s_windowed - s_whole) <= 1e-11

    def test_narrow_start_grows_the_window(self, windows):
        # three Dicke columns of the ground state: their window misses most
        # of its weight, leaks, and grows around each windowed solution
        H, basis = hamiltonian_and_basis(make_params(1, 1, 1.0, 128), 160)
        whole = ground_state(H, basis)
        assert windows == []
        peak = int(np.argmax(np.abs(whole.amplitudes).max(axis=0)))
        start = np.zeros_like(whole.amplitudes)
        start[:, peak - 1:peak + 2] = whole.amplitudes[:, peak - 1:peak + 2]
        gs = ground_state(H, basis, start=start)
        assert len(windows) >= 2
        for (before, _), (after, _) in zip(windows, windows[1:]):
            assert after != before and after[0] <= before[0]
            assert after[1] <= before[1] and after[2] >= before[2]
        assert certified(gs, H)
        assert abs(gs.energy - whole.energy) <= 1e-12 * abs(whole.energy)

    def test_one_column_start_grows_until_the_window_holds(self, monkeypatch, windows):
        # from a margin of 1, each leaking solution takes the window of its own
        # support at twice the margin, until one stops leaking or the window
        # is the whole block, which a margin of max(N, n_max) reaches
        monkeypatch.setattr(eigensolver, "_WINDOW_MARGIN", 1)
        margins = []
        window = eigensolver._window

        def recording_window(amplitudes, margin):
            margins.append(margin)
            return window(amplitudes, margin)

        monkeypatch.setattr(eigensolver, "_window", recording_window)
        H, basis = hamiltonian_and_basis(make_params(1, 1, 1.0, 128), 160)
        whole = ground_state(H, basis)
        peak = int(np.argmax(np.abs(whole.amplitudes).max(axis=0)))
        start = np.zeros_like(whole.amplitudes)
        start[:, peak] = whole.amplitudes[:, peak]
        gs = ground_state(H, basis, start=start)
        assert 2 <= len(windows) <= 1 + math.ceil(math.log2(160))
        assert margins == [1 << i for i in range(len(margins))]
        assert [rows.size for _, rows in windows] == sorted({rows.size for _, rows in windows})
        # here the chain ends on a window short of the block, which holds
        # the state: zero outside it, and no leak
        v = gs.amplitudes[basis.parity == +1]
        outside = np.ones(v.size, dtype=bool)
        outside[windows[-1][1]] = False
        assert outside.any() and not v[outside].any()
        assert certified(gs, H, windows[-1][1])
        assert abs(gs.energy - whole.energy) <= 1e-12 * abs(whole.energy)

    def test_cold_and_covering_starts_solve_the_whole_block(self, windows):
        # neither a cold start nor a start whose window is the whole block
        # takes a window; the covering start's solve is one Lanczos solve on
        # the whole block from it, to the bit
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.6, 64), 72)
        plus = basis.parity == +1
        start = np.where(plus, 1.0, 0.0)
        cold = ground_state(H, basis)
        gs = ground_state(H, basis, start=start)
        assert windows == []
        energy, vec = eigensolver._lanczos(H, start[plus], eigensolver.DEFAULT_TOL * 1e-2)
        vec = eigensolver._fix_sign(vec / eigensolver._norm(vec))
        assert gs.energy == energy
        np.testing.assert_array_equal(gs.amplitudes[plus], vec)
        assert certified(cold, H) and certified(gs, H)

    def test_decoupled_block_from_a_start_is_read_off_its_diagonal(self, windows,
                                                                   lanczos_steps):
        # lambda = 0 on a 2,373-state block, started from the lambda = 0.3
        # state: no window and no Lanczos step, but the exact ground state
        # |0> x |j, -j> read off the diagonal, with residual 0
        H, basis = hamiltonian_and_basis(make_params(1, 1, 0.0, 64), 72)
        assert H.shape[0] == 2_373 >= eigensolver._WINDOW_MIN_DIM
        start = ground_state(*hamiltonian_and_basis(make_params(1, 1, 0.3, 64), 72)).amplitudes
        steps = len(lanczos_steps)
        gs = ground_state(H, basis, start=start)
        assert windows == [] and len(lanczos_steps) == steps
        assert gs.energy == -32.0 and gs.residual == 0.0
        assert gs.amplitudes[0, 0] == 1.0 and abs(gs.amplitudes).sum() == 1.0

    def test_window_reaches_the_cutoff(self, windows):
        # a start from a smaller cutoff has no weight on the new top layers,
        # which the window holds all the same: escalation reads their weight
        params = make_params(1, 1, 0.5, 128)
        prev = ground_state(*hamiltonian_and_basis(params, 40))
        H, basis = hamiltonian_and_basis(params, 60)
        gs = ground_state(H, basis, start=prev.amplitudes)
        assert windows
        for _, rows in windows:
            layers = parity_indices(basis, +1)[rows] // (basis.n_atoms + 1)
            assert layers.max() == basis.n_max
        assert gs.top_fock_weight() > 0.0
        assert certified(gs, H, windows[-1][1])

    def test_window_block_is_the_principal_sub_block(self):
        # every aligned window of small even and odd N, bit for bit the
        # slice of the dense block, with 5 diagonals for an even width
        for n_atoms, n_max in [(1, 5), (4, 6), (5, 7), (8, 9), (9, 8), (16, 9), (17, 10)]:
            H, basis = hamiltonian_and_basis(make_params(1.0, 0.7, 0.45, n_atoms), n_max)
            dense = H.toarray()
            plus = basis.parity == +1
            index = np.zeros(plus.shape, dtype=int)
            index[plus] = np.arange(H.shape[0])
            for n_lo in range(0, n_max + 1, 2):
                for b_lo in range(0, n_atoms + 1, 2):
                    for b_hi in range(b_lo, n_atoms + 1):
                        if (b_hi - b_lo) % 2 and b_hi < n_atoms:
                            continue
                        sub, rows = eigensolver._window_block(H, basis, (n_lo, b_lo, b_hi))
                        inside = np.zeros(plus.shape, dtype=bool)
                        inside[n_lo:, b_lo:b_hi + 1] = True
                        np.testing.assert_array_equal(rows, index[plus & inside])
                        np.testing.assert_array_equal(sub.toarray(), dense[np.ix_(rows, rows)])
                        assert list(sub.offsets) == sorted(sub.offsets)
                        if (b_hi - b_lo) % 2 == 0:
                            assert sub.offsets.size <= 5


class TestCutoffConvergence:
    def test_zero_coupling_converges_immediately(self):
        gs = converge_cutoff(make_params(1, 1, 0.0, 4))
        assert gs.converged
        assert gs.basis.n_max == suggest_cutoff(make_params(1, 1, 0.0, 4)) == 8
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
        # the suggested cutoff 66 gives 603 states, within the ceiling; the
        # next, 99, gives 900, beyond it
        params = make_params(1, 1, 2.0, 8)
        assert suggest_cutoff(params) == 66
        with pytest.raises(CutoffConvergenceError) as err:
            converge_cutoff(params, max_dim=700)
        assert len(err.value.energy_history) == 1

    @pytest.mark.parametrize("coupling, omega", [(1e200, 1.0), (1.0, 1e-300), (1e300, 1e-300)])
    def test_huge_coupling_hits_capacity(self, coupling, omega):
        # alpha^2 + 6 alpha past the largest float (alpha**2 overflows, or
        # alpha itself is inf) is clamped to it: the cutoff stays an integer
        # beyond any basis ceiling, and escalation hits capacity
        params = make_params(omega, 1, coupling, 4)
        assert suggest_cutoff(params) == math.ceil(sys.float_info.max)
        with pytest.raises(CutoffConvergenceError):
            converge_cutoff(params)

    def test_largest_finite_cutoff_estimate_is_kept(self):
        # alpha = 1.3e154 at N = 4: alpha^2 is still finite, and taken as it is
        params = make_params(1, 1, 0.65e154, 4)
        alpha = 1.3e154
        assert suggest_cutoff(params) == math.ceil(alpha**2 + 6.0 * alpha) < sys.float_info.max

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

    def test_escalation_starts_from_padded_previous_vector(self, monkeypatch, windows):
        # blocks below _WINDOW_MIN_DIM: every solve runs on the whole block
        self.check_escalation_starts(monkeypatch, windows, n_atoms=16, solves=3, on_windows=0)

    def test_windowed_escalation_starts_from_the_window_of_padded_vector(
            self, monkeypatch, windows):
        # the second solve runs on a window, from the padded previous vector
        # restricted to it
        self.check_escalation_starts(monkeypatch, windows, n_atoms=128, solves=2, on_windows=1)

    @staticmethod
    def check_escalation_starts(monkeypatch, windows, n_atoms, solves, on_windows):
        starts, states, firsts = [], [], []
        lanczos = eigensolver._lanczos

        def recording_lanczos(H, v0, tol):
            starts.append(v0)
            return lanczos(H, v0, tol)

        def recording_ground_state(H, basis, tol, *, start=None):
            firsts.append((len(starts), len(windows)))
            states.append(ground_state(H, basis, tol, start=start))
            return states[-1]

        monkeypatch.setattr(eigensolver, "_lanczos", recording_lanczos)
        monkeypatch.setattr(eigensolver, "ground_state", recording_ground_state)
        params = make_params(1, 1, 0.75, n_atoms)
        converge_cutoff(params)
        assert len(starts) == len(states) == solves
        # the first solve keeps the fixed start of a standalone solve
        ground_state(*hamiltonian_and_basis(params, states[0].basis.n_max))
        np.testing.assert_array_equal(starts[0], starts[-1])
        windowed = 0
        for prev, state, (k, w) in zip(states, states[1:], firsts[1:]):
            padded = np.zeros(state.basis.dim)
            padded[:prev.basis.dim] = prev.amplitudes.ravel()
            expected = padded[parity_indices(state.basis, +1)]
            if starts[k].size < expected.size:
                expected = expected[windows[w][1]]
                windowed += 1
            np.testing.assert_array_equal(starts[k], expected)
        assert windowed == on_windows

    def test_energy_per_atom_approaches_mean_field(self, ground):
        # normal phase, large N: E/N -> -omega0/2
        gs = ground(1.0, 1.0, 0.15, 32)
        assert gs.energy / 32 == pytest.approx(-0.5, abs=0.01)
