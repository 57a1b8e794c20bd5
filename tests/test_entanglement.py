import dataclasses
import math

import numpy as np
import pytest

from dicke_qpt import entanglement
from dicke_qpt import (IntegrityError, ParameterError, average_linear_entropy_Q,
                       build_basis, inverse_participation_ratio, linear_entropy,
                       linear_entropy_td, make_params, meyer_wallach_Q_generic,
                       partial_trace, single_atom_rdm, von_neumann_entropy)
from dicke_qpt.entanglement import collective_expectations
from dicke_qpt.eigensolver import GroundState
from dicke_qpt.perturbative import coherent_amplitudes


def embed_in_qubit_register(state, basis):
    """Oracle: expand Dicke states into the full 2^N register (N <= 6).

    |j, m> maps to the normalized symmetric superposition of all bitstrings
    with j + m set bits; the field index stays a separate tensor factor.
    """
    N = basis.n_atoms
    amps = basis.reshape(state.amplitudes)
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
    amps = np.zeros(basis.dim)
    for (n, nb), val in entries.items():
        amps[basis.index(n, nb)] = val
    amps /= np.linalg.norm(amps)
    return GroundState(energy=0.0, amplitudes=amps, residual=0.0, converged=True,
                       basis=basis)


class TestPartialTrace:
    def test_product_state_gives_rank_one_projector(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        rdm = partial_trace(gs, gs.basis, "atoms")
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rdm.matrix, expected, atol=1e-14)
        assert von_neumann_entropy(rdm) == 0.0

    def test_schmidt_symmetry(self, ground):
        gs = ground(1.0, 1.0, 0.6, 2)
        s_atoms = von_neumann_entropy(partial_trace(gs, gs.basis, "atoms"))
        s_field = von_neumann_entropy(partial_trace(gs, gs.basis, "field"))
        assert abs(s_atoms - s_field) < 1e-9

    def test_matches_dense_outer_product_oracle(self, resonant_ground):
        gs = resonant_ground(0.8, 4)
        basis = gs.basis
        rho_full = np.outer(gs.amplitudes, gs.amplitudes).reshape(
            basis.n_max + 1, basis.n_atoms + 1, basis.n_max + 1, basis.n_atoms + 1)
        oracle_atoms = np.einsum("nanb->ab", rho_full)
        np.testing.assert_allclose(partial_trace(gs, basis, "atoms").matrix,
                                   oracle_atoms, atol=1e-12)
        oracle_field = np.einsum("nama->nm", rho_full)
        np.testing.assert_allclose(partial_trace(gs, basis, "field").matrix,
                                   oracle_field, atol=1e-12)

    def test_unnormalized_state_rejected(self, resonant_ground):
        gs = resonant_ground(0.5, 2)
        broken = dataclasses.replace(gs, amplitudes=2.0 * gs.amplitudes)
        with pytest.raises(IntegrityError):
            partial_trace(broken, gs.basis, "atoms")

    def test_bad_subsystem_tag(self, resonant_ground):
        gs = resonant_ground(0.5, 2)
        with pytest.raises(ParameterError):
            partial_trace(gs, gs.basis, "everything")

    def test_clipping_never_removes_real_weight(self, resonant_ground):
        for ratio in (0.3, 0.9, 1.5):
            gs = resonant_ground(ratio, 6)
            assert partial_trace(gs, gs.basis, "atoms").clipped_weight <= 1e-9


class TestEntropies:
    def test_rank_one_projector_has_zero_entropy(self, resonant_ground):
        gs = resonant_ground(0.0, 2)
        assert von_neumann_entropy(partial_trace(gs, gs.basis, "atoms")) == 0.0

    def test_equal_mixture_is_one_bit(self):
        basis = build_basis(make_params(1, 1, 0.1, 1), 1)
        bell = synthetic_state(basis, {(0, 0): 1.0, (1, 1): 1.0})
        rdm = partial_trace(bell, basis, "atoms")
        assert von_neumann_entropy(rdm) == pytest.approx(1.0, abs=1e-12)
        assert linear_entropy(rdm) == pytest.approx(1.0, abs=1e-12)

    def test_strong_coupling_entropy_near_one_bit(self, resonant_ground):
        gs = resonant_ground(3.0, 8)
        s = von_neumann_entropy(partial_trace(gs, gs.basis, "atoms"))
        assert abs(s - 1.0) < 0.1

    def test_linear_entropy_normalization(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        assert linear_entropy(partial_trace(gs, gs.basis, "atoms")) == 0.0
        with pytest.raises(ParameterError):
            linear_entropy(partial_trace(gs, gs.basis, "atoms"), 1)

    def test_linear_entropy_approaches_closed_form(self, resonant_ground):
        # eta -> 1 deviation and finite-size error both shrink with N
        target = linear_entropy_td(make_params(1, 1, 0.25, 4))
        devs = []
        for n_atoms in (4, 8, 16):
            gs = resonant_ground(0.5, n_atoms)
            rdm = partial_trace(gs, gs.basis, "atoms")
            devs.append(abs(linear_entropy(rdm, n_atoms + 1) - target))
        assert devs[0] > devs[1] > devs[2]

    def test_entropy_nondecreasing_below_transition(self, resonant_ground):
        values = []
        for ratio in np.arange(0.0, 1.0, 0.1):
            gs = resonant_ground(round(ratio, 1), 6)
            values.append(von_neumann_entropy(partial_trace(gs, gs.basis, "atoms")))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestSingleAtom:
    def test_decoupled_limit(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        rdm = single_atom_rdm(gs, gs.basis)
        np.testing.assert_allclose(rdm.matrix, np.diag([1.0, 0.0]), atol=1e-14)
        assert rdm.purity() == pytest.approx(1.0, abs=1e-12)

    def test_parity_selection_rule(self, resonant_ground):
        gs = resonant_ground(1.2, 6)
        ex = collective_expectations(gs, gs.basis)
        assert ex["jp"] == 0.0

    def test_matches_qubit_embedding_oracle(self, resonant_ground):
        gs = resonant_ground(1.2, 6)
        rdm = single_atom_rdm(gs, gs.basis)
        for k in range(6):
            rho_k, purity_k = single_qubit_purity_oracle(gs, gs.basis, k)
            np.testing.assert_allclose(rdm.matrix, rho_k, atol=1e-9)
            assert rdm.purity() == pytest.approx(purity_k, abs=1e-9)

    def test_purity_identity(self, resonant_ground):
        gs = resonant_ground(0.7, 8)
        ex = collective_expectations(gs, gs.basis)
        expected = 0.5 + 2 * ex["jz"] ** 2 / 64 + 2 * ex["jp"] ** 2 / 64
        assert single_atom_rdm(gs, gs.basis).purity() == pytest.approx(
            expected, abs=1e-12)


class TestAverageQ:
    def test_zero_coupling(self, resonant_ground):
        gs = resonant_ground(0.0, 4)
        assert average_linear_entropy_Q(gs, gs.basis) == 0.0

    def test_assembled_from_independent_parts(self, resonant_ground):
        gs = resonant_ground(1.0, 4)
        n = 4
        l_k = linear_entropy(single_atom_rdm(gs, gs.basis), 2)
        l_b = linear_entropy(partial_trace(gs, gs.basis, "field"), n + 1)
        expected = (n * l_k + l_b) / (n + 1)
        assert average_linear_entropy_Q(gs, gs.basis) == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("ratio, n_atoms, field_smaller", [
        (0.5, 32, True), (1.0, 64, True), (1.0, 4, False), (1.5, 8, False)])
    def test_matches_field_rdm_oracle(self, resonant_ground, ratio, n_atoms,
                                      field_smaller):
        # Q takes the field purity from the smaller Gram matrix of the state;
        # the oracle always builds the field RDM itself
        gs = resonant_ground(ratio, n_atoms)
        assert (gs.basis.n_max < n_atoms) == field_smaller
        l_k = linear_entropy(single_atom_rdm(gs, gs.basis), 2)
        l_b = linear_entropy(partial_trace(gs, gs.basis, "field"), n_atoms + 1)
        expected = (n_atoms * l_k + l_b) / (n_atoms + 1)
        assert abs(average_linear_entropy_Q(gs, gs.basis) - expected) <= 1e-14

    @pytest.mark.parametrize("ratio, n_atoms", [(1.0, 4), (1.5, 8), (0.5, 32)])
    def test_reuses_the_callers_atoms_rdm(self, monkeypatch, resonant_ground,
                                          ratio, n_atoms):
        # where A^T A is the smaller Gram matrix, the atoms RDM the caller
        # passes is used instead of a second build, and Q keeps its bits
        gs = resonant_ground(ratio, n_atoms)
        atoms = partial_trace(gs, gs.basis, "atoms")
        fresh = average_linear_entropy_Q(gs, gs.basis)
        built = []
        make_rdm = entanglement._make_rdm

        def recording_make_rdm(subsystem, matrix):
            built.append(subsystem)
            return make_rdm(subsystem, matrix)

        monkeypatch.setattr(entanglement, "_make_rdm", recording_make_rdm)
        reused = average_linear_entropy_Q(gs, gs.basis, _atoms_rdm=atoms)
        assert reused == fresh
        field_smaller = gs.basis.n_max <= n_atoms
        assert built == (["single-atom", "field"] if field_smaller else ["single-atom"])

    def test_atom_part_approaches_closed_form(self, resonant_ground):
        mu = 0.25  # coupling at twice the critical value
        target = 1.0 - mu**2
        devs = []
        for n_atoms in (8, 16):
            gs = resonant_ground(2.0, n_atoms)
            l_k = linear_entropy(single_atom_rdm(gs, gs.basis), 2)
            devs.append(abs(l_k - target))
        assert devs[1] < devs[0]

    def test_symmetric_selection_rule_form(self, resonant_ground):
        # with <J+-> = 0 the atom part reduces to 1 - 4 <Jz>^2 / N^2
        gs = resonant_ground(0.9, 6)
        ex = collective_expectations(gs, gs.basis)
        l_k = linear_entropy(single_atom_rdm(gs, gs.basis), 2)
        assert l_k == pytest.approx(1 - 4 * ex["jz"] ** 2 / 36, abs=1e-12)

    def test_q_within_unit_interval(self, resonant_ground):
        for ratio in (0.4, 1.0, 1.8):
            q = average_linear_entropy_Q(resonant_ground(ratio, 6),
                                         resonant_ground(ratio, 6).basis)
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
            l_k = linear_entropy(single_atom_rdm(gs, gs.basis), 2)
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
        state = GroundState(energy=0.0, amplitudes=amps.ravel() / np.linalg.norm(amps),
                            residual=0.0, converged=True, basis=basis)
        value = inverse_participation_ratio(state, basis, params)
        assert abs(value / (math.sqrt(omega * omega0) / (2 * np.pi)) - 1) < 1e-12

    def test_gauss_hermite_rules_cached_read_only(self, resonant_ground, monkeypatch):
        # the atom-axis rule (2N + 1 nodes) is shared by every point at that
        # N, so a cached rule must be the same read-only arrays each time
        # and must leave the IPR bits exactly as a freshly built rule does
        entanglement._gauss_hermite.cache_clear()
        t, w = entanglement._gauss_hermite(17)
        again = entanglement._gauss_hermite(17)
        assert again[0] is t and again[1] is w
        assert not t.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
        fresh_t, fresh_w = entanglement._gauss_hermite.__wrapped__(17)
        assert np.array_equal(fresh_t, t) and np.array_equal(fresh_w, w)

        gs = resonant_ground(1.2, 8)
        params = make_params(1, 1, 0.6, 8)
        entanglement._gauss_hermite.cache_clear()
        cold = inverse_participation_ratio(gs, gs.basis, params)
        warm = inverse_participation_ratio(gs, gs.basis, params)
        assert entanglement._gauss_hermite.cache_info().hits >= 2
        monkeypatch.setattr(entanglement, "_gauss_hermite",
                            entanglement._gauss_hermite.__wrapped__)
        uncached = inverse_participation_ratio(gs, gs.basis, params)
        assert cold == warm == uncached

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
