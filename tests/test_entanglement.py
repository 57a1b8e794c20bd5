import dataclasses
import math

import numpy as np
import pytest

from dicke_qpt import entanglement
from dicke_qpt import (IntegrityError, ParameterError, SweepConfig,
                       assemble_hamiltonian, average_linear_entropy_Q,
                       build_basis, ground_state, inverse_participation_ratio,
                       linear_entropy, linear_entropy_td, make_params,
                       partial_trace, run_sweep, single_atom_rdm,
                       von_neumann_entropy)
from dicke_qpt.entanglement import collective_expectations
from dicke_qpt.eigensolver import GroundState
from oracles import coherent_amplitudes, ipr_oracle, meyer_wallach_Q_generic


def embed_in_qubit_register(state, basis):
    """Oracle: expand Dicke states into the full 2^N register (N <= 6).

    |j, m> maps to the normalized symmetric superposition of all bitstrings
    with j + m set bits; the field index stays a separate tensor factor.
    """
    N = basis.n_atoms
    amps = state.amplitudes
    full = np.zeros((basis.n_max + 1, 2**N))
    for bits in range(2**N):
        ones = bin(bits).count("1")
        full[:, bits] = amps[:, ones] / math.sqrt(math.comb(N, ones))
    return full.reshape(-1)


def single_qubit_purity_oracle(state, basis, k):
    """Oracle: purity of qubit k after tracing field and the other atoms."""
    N = basis.n_atoms
    psi = embed_in_qubit_register(state, basis)
    tensor = psi.reshape([basis.n_max + 1] + [2] * N)
    mat = np.moveaxis(tensor, 1 + k, 0).reshape(2, -1)
    rho = mat @ mat.T
    return rho, float(np.sum(rho * rho))


def synthetic_state(basis, entries):
    """Unit-norm GroundState with amplitudes placed at given (n, n_b)."""
    amps = np.zeros(basis.parity.shape)
    for (n, nb), val in entries.items():
        amps[n, nb] = val
    amps /= np.linalg.norm(amps)
    return GroundState(energy=0.0, amplitudes=amps, residual=0.0, converged=True,
                       basis=basis)


class TestPartialTrace:
    def test_product_state_gives_rank_one_projector(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        rdm = partial_trace(gs, "atoms")
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rdm.matrix, expected, atol=1e-14)
        assert von_neumann_entropy(rdm) == 0.0

    def test_schmidt_symmetry(self, ground):
        gs = ground(1.0, 1.0, 0.6, 2)
        s_atoms = von_neumann_entropy(partial_trace(gs, "atoms"))
        s_field = von_neumann_entropy(partial_trace(gs, "field"))
        assert abs(s_atoms - s_field) < 1e-9

    def test_matches_dense_outer_product_oracle(self, resonant_ground):
        gs = resonant_ground(0.8, 4)
        basis = gs.basis
        rho_full = np.outer(gs.amplitudes, gs.amplitudes).reshape(
            basis.n_max + 1, basis.n_atoms + 1, basis.n_max + 1, basis.n_atoms + 1)
        oracle_atoms = np.einsum("nanb->ab", rho_full)
        np.testing.assert_allclose(partial_trace(gs, "atoms").matrix,
                                   oracle_atoms, atol=1e-12)
        oracle_field = np.einsum("nama->nm", rho_full)
        np.testing.assert_allclose(partial_trace(gs, "field").matrix,
                                   oracle_field, atol=1e-12)

    def test_unnormalized_state_rejected(self, resonant_ground):
        gs = resonant_ground(0.5, 2)
        broken = dataclasses.replace(gs, amplitudes=2.0 * gs.amplitudes)
        with pytest.raises(IntegrityError):
            partial_trace(broken, "atoms")

    def test_bad_subsystem_tag(self, resonant_ground):
        gs = resonant_ground(0.5, 2)
        with pytest.raises(ParameterError):
            partial_trace(gs, "everything")

    def test_clipping_never_removes_real_weight(self, resonant_ground):
        for ratio in (0.3, 0.9, 1.5):
            gs = resonant_ground(ratio, 6)
            assert partial_trace(gs, "atoms").clipped_weight <= 1e-9


class TestEntropies:
    def test_rank_one_projector_has_zero_entropy(self, resonant_ground):
        gs = resonant_ground(0.0, 2)
        assert von_neumann_entropy(partial_trace(gs, "atoms")) == 0.0

    def test_equal_mixture_is_one_bit(self):
        basis = build_basis(make_params(1, 1, 0.1, 1), 1)
        bell = synthetic_state(basis, {(0, 0): 1.0, (1, 1): 1.0})
        rdm = partial_trace(bell, "atoms")
        assert von_neumann_entropy(rdm) == pytest.approx(1.0, abs=1e-12)
        assert linear_entropy(rdm) == pytest.approx(1.0, abs=1e-12)

    def test_strong_coupling_entropy_near_one_bit(self, resonant_ground):
        gs = resonant_ground(3.0, 8)
        s = von_neumann_entropy(partial_trace(gs, "atoms"))
        assert abs(s - 1.0) < 0.1

    def test_linear_entropy_normalization(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        assert linear_entropy(partial_trace(gs, "atoms")) == 0.0
        with pytest.raises(ParameterError):
            linear_entropy(partial_trace(gs, "atoms"), 1)

    def test_linear_entropy_approaches_closed_form(self, resonant_ground):
        # eta -> 1 deviation and finite-size error both shrink with N
        target = linear_entropy_td(make_params(1, 1, 0.25, 4))
        devs = []
        for n_atoms in (4, 8, 16):
            gs = resonant_ground(0.5, n_atoms)
            rdm = partial_trace(gs, "atoms")
            devs.append(abs(linear_entropy(rdm, n_atoms + 1) - target))
        assert devs[0] > devs[1] > devs[2]

    def test_entropy_nondecreasing_below_transition(self, resonant_ground):
        values = []
        for ratio in np.arange(0.0, 1.0, 0.1):
            gs = resonant_ground(round(ratio, 1), 6)
            values.append(von_neumann_entropy(partial_trace(gs, "atoms")))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestSingleAtom:
    def test_decoupled_limit(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        rdm = single_atom_rdm(gs)
        np.testing.assert_allclose(rdm.matrix, np.diag([1.0, 0.0]), atol=1e-14)
        assert rdm.purity() == pytest.approx(1.0, abs=1e-12)

    def test_parity_selection_rule(self, resonant_ground):
        gs = resonant_ground(1.2, 6)
        ex = collective_expectations(gs)
        assert ex["jp"] == 0.0

    def test_matches_qubit_embedding_oracle(self, resonant_ground):
        gs = resonant_ground(1.2, 6)
        rdm = single_atom_rdm(gs)
        for k in range(6):
            rho_k, purity_k = single_qubit_purity_oracle(gs, gs.basis, k)
            np.testing.assert_allclose(rdm.matrix, rho_k, atol=1e-9)
            assert rdm.purity() == pytest.approx(purity_k, abs=1e-9)

    def test_purity_identity(self, resonant_ground):
        gs = resonant_ground(0.7, 8)
        ex = collective_expectations(gs)
        expected = 0.5 + 2 * ex["jz"] ** 2 / 64 + 2 * ex["jp"] ** 2 / 64
        assert single_atom_rdm(gs).purity() == pytest.approx(
            expected, abs=1e-12)


class TestAverageQ:
    def test_zero_coupling(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        assert average_linear_entropy_Q(gs) == 0.0

    def test_assembled_from_independent_parts(self, resonant_ground):
        gs = resonant_ground(1.0, 4)
        n = 4
        l_k = linear_entropy(single_atom_rdm(gs), 2)
        l_b = linear_entropy(partial_trace(gs, "field"), n + 1)
        expected = (n * l_k + l_b) / (n + 1)
        assert average_linear_entropy_Q(gs) == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("ratio, n_atoms, field_smaller", [
        (0.5, 32, True), (1.0, 64, True), (1.0, 4, False), (1.5, 8, False)])
    def test_matches_field_rdm_oracle(self, resonant_ground, ratio, n_atoms,
                                      field_smaller):
        # Q takes the field purity from the smaller Gram matrix of the state;
        # the oracle always builds the field RDM itself
        gs = resonant_ground(ratio, n_atoms)
        assert (gs.basis.n_max < n_atoms) == field_smaller
        l_k = linear_entropy(single_atom_rdm(gs), 2)
        l_b = linear_entropy(partial_trace(gs, "field"), n_atoms + 1)
        expected = (n_atoms * l_k + l_b) / (n_atoms + 1)
        assert abs(average_linear_entropy_Q(gs) - expected) <= 1e-14

    @pytest.mark.parametrize("ratio, n_atoms", [(1.0, 4), (1.5, 8), (0.5, 32)])
    def test_reuses_the_callers_atoms_rdm(self, monkeypatch, resonant_ground,
                                          ratio, n_atoms):
        # the atoms RDM the caller passes is used instead of a second build,
        # also where the field RDM would be the smaller one (n_max <= N), and
        # Q keeps its bits
        gs = resonant_ground(ratio, n_atoms)
        atoms = partial_trace(gs, "atoms")
        fresh = average_linear_entropy_Q(gs)
        built = []
        make_rdm = entanglement._make_rdm

        def recording_make_rdm(subsystem, matrix):
            built.append(subsystem)
            return make_rdm(subsystem, matrix)

        monkeypatch.setattr(entanglement, "_make_rdm", recording_make_rdm)
        reused = average_linear_entropy_Q(gs, _atoms_rdm=atoms)
        assert reused == fresh
        assert built == ["single-atom"]

    def test_atom_part_approaches_closed_form(self, resonant_ground):
        mu = 0.25  # coupling at twice the critical value
        target = 1.0 - mu**2
        devs = []
        for n_atoms in (8, 16):
            gs = resonant_ground(2.0, n_atoms)
            l_k = linear_entropy(single_atom_rdm(gs), 2)
            devs.append(abs(l_k - target))
        assert devs[1] < devs[0]

    def test_symmetric_selection_rule_form(self, resonant_ground):
        # with <J+-> = 0 the atom part reduces to 1 - 4 <Jz>^2 / N^2
        gs = resonant_ground(0.9, 6)
        ex = collective_expectations(gs)
        l_k = linear_entropy(single_atom_rdm(gs), 2)
        assert l_k == pytest.approx(1 - 4 * ex["jz"] ** 2 / 36, abs=1e-12)

    def test_q_within_unit_interval(self, resonant_ground):
        for ratio in (0.4, 1.0, 1.8):
            q = average_linear_entropy_Q(resonant_ground(ratio, 6))
            assert 0.0 <= q <= 1.0


class TestMeyerWallach:
    def test_ghz3(self):
        psi = np.zeros(8)
        psi[0] = psi[7] = 2**-0.5
        assert meyer_wallach_Q_generic(psi) == pytest.approx(1.0, abs=1e-12)

    def test_w3(self):
        psi = np.zeros(8)
        psi[[1, 2, 4]] = 3**-0.5
        assert meyer_wallach_Q_generic(psi) == pytest.approx(8 / 9, abs=1e-12)

    def test_product_state(self):
        psi = np.zeros(8)
        psi[0] = 1.0
        assert meyer_wallach_Q_generic(psi) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ParameterError):
            meyer_wallach_Q_generic([1.0, 1.0])

    def test_register_size_limit(self):
        psi = np.zeros(2**13)
        psi[0] = 1.0
        with pytest.raises(ParameterError):
            meyer_wallach_Q_generic(psi)

    def test_length_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            meyer_wallach_Q_generic([0.6, 0.8, 0.0])

    def test_agrees_with_collective_atom_part(self, resonant_ground):
        # embedding the whole atomic register reproduces L_k to 1e-9
        for n_atoms in (2, 4, 6):
            gs = resonant_ground(1.1, n_atoms)
            purities = [single_qubit_purity_oracle(gs, gs.basis, k)[1]
                        for k in range(n_atoms)]
            q_embedding = 2 * (1 - np.mean(purities))
            l_k = linear_entropy(single_atom_rdm(gs), 2)
            assert abs(q_embedding - l_k) < 1e-9


class TestIPR:
    def test_decoupled_resonant_value(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        params = make_params(1, 1, 0.0, 4)
        value = inverse_participation_ratio(gs, gs.basis, params)
        assert value == pytest.approx(1 / (2 * np.pi), abs=1e-9)

    @pytest.mark.parametrize("omega, omega0, alpha, n_max, n_atoms", [
        (1.0, 1.0, 0.0, 8, 4), (1.0, 1.0, 3.0, 60, 4),
        (1.0, 1.0, 16.0, 420, 4), (0.7, 1.3, 16.0, 420, 6),
        (1.0, 1.0, 27.0, 1100, 4), (1.0, 1.0, 30.0, 1300, 4),
    ])
    def test_coherent_state_exact(self, omega, omega0, alpha, n_max, n_atoms):
        # |alpha> (x) |j, -j> is a displaced ground Gaussian on both axes, so
        # its IPR is sqrt(omega omega0) / (2 pi) whatever alpha is; at alpha
        # 27 and 30 the lobe sits where exp(-xi^2/2) alone underflows
        params = make_params(omega, omega0, 0.0, n_atoms)
        basis = build_basis(params, n_max)
        amps = np.zeros((n_max + 1, n_atoms + 1))
        amps[:, 0] = coherent_amplitudes(alpha, n_max)
        state = GroundState(energy=0.0, amplitudes=amps / np.linalg.norm(amps),
                            residual=0.0, converged=True, basis=basis)
        value = inverse_participation_ratio(state, basis, params)
        assert abs(value / (math.sqrt(omega * omega0) / (2 * np.pi)) - 1) < 1e-12

    def test_basis_of_another_shape_rejected(self):
        # N = 5, n_max 17 has the 108 states of N = 3, n_max 26 but another
        # shape, so its Hermite tables do not fit the amplitude matrix
        params = make_params(1, 1, 0.3, 3)
        basis = build_basis(params, 26)
        gs = ground_state(assemble_hamiltonian(params, basis), basis)
        other = build_basis(make_params(1, 1, 0.3, 5), 17)
        assert other.dim == basis.dim
        with pytest.raises(ValueError):
            inverse_participation_ratio(gs, other, params)

    def test_rung_tables_cached_read_only(self, resonant_ground, monkeypatch):
        # a rung's tables are shared by every cutoff and N up to the rung, so
        # cached tables must be the same read-only arrays each time and must
        # leave the IPR bits exactly as freshly built tables do
        cache = entanglement._rung_table
        cache.cache_clear()
        even, odd = entanglement._oscillator_table(17)
        again = entanglement._oscillator_table(19)
        assert entanglement._rung(17) == entanglement._rung(19) == 20
        assert cache.cache_info().misses == 1
        assert even.shape == (21, 9) and odd.shape == (21, 9)
        assert again[0].shape == (21, 10) and again[1].shape == (21, 10)
        assert even.base is again[0].base and odd.base is again[1].base
        for table in (even, odd, even.base, odd.base):
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            even[0, 0] = 1.0
        fresh = cache.__wrapped__(20)
        assert np.array_equal(fresh[0][:, :9], even) and np.array_equal(fresh[1][:, :9], odd)

        gs = resonant_ground(1.2, 8)
        params = make_params(1, 1, 0.6, 8)
        cache.cache_clear()
        cold = inverse_participation_ratio(gs, gs.basis, params)
        built = cache.cache_info()
        warm = inverse_participation_ratio(gs, gs.basis, params)
        assert built.misses == built.currsize == 2
        assert cache.cache_info().misses == 2 and cache.cache_info().hits == built.hits + 2
        # with the memo bypassed every table is built afresh
        monkeypatch.setattr(entanglement, "_rung_table", cache.__wrapped__)
        uncached = inverse_participation_ratio(gs, gs.basis, params)
        assert cache.cache_info().misses == 2
        assert cold == warm == uncached

    # both sides of the rung boundaries 16, 20, 25, 32, 40, 49, 62, 77 and 96
    @pytest.mark.parametrize("k_top", [15, 16, 17, 19, 20, 21, 24, 25, 26, 31, 32,
                                       33, 39, 40, 41, 48, 49, 50, 61, 62, 63, 76,
                                       77, 78, 95, 96, 97])
    @pytest.mark.parametrize("axis", ["field", "atoms"])
    def test_rung_tables_match_the_smallest_exact_rule(self, k_top, axis):
        # a top level of k_top on either axis, on the rule of its rung,
        # against the (2 k_top + 1)-node rule built by numpy's hermgauss
        shape = (k_top + 1, 9) if axis == "field" else (13, k_top + 1)
        rng = np.random.default_rng(k_top)
        amps = rng.standard_normal(shape) * np.exp(-0.05 * np.arange(shape[0]))[:, None]
        amps /= np.linalg.norm(amps)
        params = make_params(1.3, 0.7, 0.0, shape[1] - 1)
        basis = build_basis(params, shape[0] - 1)
        state = GroundState(energy=0.0, amplitudes=amps, residual=0.0,
                            converged=True, basis=basis)
        value = inverse_participation_ratio(state, basis, params)
        assert abs(value / ipr_oracle(amps, 1.3, 0.7) - 1) < 1e-13

    def test_rung_cache_holds_the_16_newest_rungs(self):
        # cutoffs 8 to 700 pass through 18 rungs, 11 MB of tables: at most 16
        # may be held, and they must be the most recently used ones
        cache = entanglement._rung_table
        cache.cache_clear()
        for k_top in range(8, 701):
            entanglement._oscillator_table(k_top)
            assert cache.cache_info().currsize <= 16
        every_rung = sorted({entanglement._rung(n) for n in range(8, 701)})
        assert len(every_rung) == cache.cache_info().misses == 18
        assert every_rung[-1] == entanglement._rung(700) == 711
        for k in every_rung[:-17:-1]:       # newest first: each is a hit
            cache(k)
        assert cache.cache_info().misses == 18

    def test_repeated_sweep_builds_no_table(self):
        # a small fig1-like sweep touches 11 rungs; running it again must
        # find every one of them kept, and give the same table
        config = SweepConfig(lambda_min=0.0, lambda_max=3.0, lambda_steps=7,
                             n_atoms=(8, 32), measures=("s_vn", "l_lin", "ipr_inv"))
        cache = entanglement._rung_table
        cache.cache_clear()
        first, _ = run_sweep(config)
        built = cache.cache_info().misses
        second, _ = run_sweep(config)
        assert built == 11 and cache.cache_info().misses == built
        assert first == second

    def test_loads_no_scipy_special(self, fresh_interpreter):
        # scipy.special costs about 60 ms per fresh interpreter; the rule is
        # built on scipy.linalg, which the eigensolver loads anyway.  The
        # interpreter ran the IPR at N = 4
        proc = fresh_interpreter
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].strip() == "False"

    def test_approaches_closed_form(self, resonant_ground):
        from dicke_qpt import ipr_td
        target = ipr_td(make_params(1, 1, 0.25, 4))
        devs = []
        for n_atoms in (8, 16, 32):
            gs = resonant_ground(0.5, n_atoms)
            params = make_params(1, 1, 0.25, n_atoms)
            devs.append(abs(inverse_participation_ratio(gs, gs.basis, params)
                            - target))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] / target < 0.1

    def test_two_lobe_structure_above_transition(self, resonant_ground):
        # parity-even state has two lobes along x; its IPR is roughly half
        # the one-lobe value and far below the decoupled 1/(2 pi)
        gs = resonant_ground(2.0, 8)
        params = make_params(1, 1, 1.0, 8)
        value = inverse_participation_ratio(gs, gs.basis, params)
        assert 0 < value < 0.1
