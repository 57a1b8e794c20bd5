import numpy as np
import pytest

from dicke_qpt import (make_params, partial_trace, perturbative_entropy,
                       von_neumann_entropy)
from dicke_qpt.eigensolver import suggest_cutoff
from dicke_qpt.entanglement import _make_rdm
from oracles import coherent_amplitudes, jx_extremal_amplitudes, strong_coupling_state


class TestWeakCoupling:
    def test_zero_coupling(self):
        assert perturbative_entropy(make_params(1, 1, 0.0, 8)) == 0.0

    def test_frozen_value(self):
        # resonance, coupling at 0.4 lambda_c: sigma = 0.1
        s_bits = perturbative_entropy(make_params(1, 1, 0.2, 8))
        assert s_bits == pytest.approx(0.0801360473312753, abs=1e-13)

    def test_independent_of_system_size(self):
        a = perturbative_entropy(make_params(1, 1, 0.15, 8))
        b = perturbative_entropy(make_params(1, 1, 0.15, 32))
        assert a == b

    def test_binary_entropy_form(self):
        s_bits = perturbative_entropy(make_params(1, 2, 0.3, 4))
        sigma = 0.3 / 3.0
        p = 1 / (1 + sigma**2)
        expected = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        assert s_bits == pytest.approx(expected, rel=1e-14)

    def test_tracks_exact_entropy_in_window(self, resonant_ground):
        for ratio in (0.1, 0.2, 0.3, 0.4):
            gs = resonant_ground(ratio, 8)
            s_ed = von_neumann_entropy(partial_trace(gs, "atoms"))
            s_pert = perturbative_entropy(make_params(1, 1, 0.5 * ratio, 8))
            assert abs(s_ed - s_pert) <= 0.01


class TestStrongCoupling:
    def test_overlap_with_exact_ground_state(self, ground):
        params = make_params(1, 1, 2.0, 8)  # four times critical
        gs = ground(1.0, 1.0, 2.0, 8)
        assert gs.basis.n_max == 149
        limit_state = strong_coupling_state(params, gs.basis)
        overlap = float(np.vdot(limit_state, gs.amplitudes)) ** 2
        assert overlap > 0.98

    def test_limiting_state_atom_rdm_is_balanced(self, ground):
        params = make_params(1, 1, 2.0, 8)
        gs = ground(1.0, 1.0, 2.0, 8)
        A = strong_coupling_state(params, gs.basis)
        ev = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
        assert ev[0] == pytest.approx(0.5, abs=1e-6)
        assert ev[1] == pytest.approx(0.5, abs=1e-6)
        assert abs(ev[2:]).max() < 1e-6

    def test_limiting_state_entropy_is_one_bit(self, ground):
        params = make_params(1, 1, 2.0, 8)
        gs = ground(1.0, 1.0, 2.0, 8)
        A = strong_coupling_state(params, gs.basis)
        rdm = _make_rdm("atoms", A.T @ A)
        assert von_neumann_entropy(rdm) == pytest.approx(1.0, abs=1e-6)

    def test_positive_parity(self, ground):
        params = make_params(1, 1, 2.0, 8)
        gs = ground(1.0, 1.0, 2.0, 8)
        psi = strong_coupling_state(params, gs.basis)
        assert float((gs.basis.parity * psi**2).sum()) == pytest.approx(1.0, abs=1e-12)


class TestBuildingBlocks:
    def test_coherent_state_statistics(self):
        alpha = 2.0
        c = coherent_amplitudes(alpha, 40)
        n = np.arange(41)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        assert float((c**2 * n).sum()) == pytest.approx(alpha**2, abs=1e-10)

    def test_coherent_amplitudes_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        alpha, n_max = 16.0, 420
        c = coherent_amplitudes(alpha, n_max)
        with mpmath.workdps(40):
            for n in range(n_max + 1):
                exact = (mpmath.exp(-mpmath.mpf(alpha) ** 2 / 2) * mpmath.mpf(alpha) ** n
                         / mpmath.sqrt(mpmath.factorial(n)))
                assert abs(float((mpmath.mpf(c[n]) - exact) / exact)) < 1e-13, n

    def test_coherent_vacuum(self):
        c = coherent_amplitudes(0.0, 5)
        assert c[0] == 1.0 and abs(c[1:]).max() == 0.0

    def test_jx_eigenstates(self):
        n_atoms = 5
        j = n_atoms / 2
        m = np.arange(n_atoms + 1) - j
        raising = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), k=-1).T
        jx = 0.5 * (raising + raising.T)
        for sign in (+1, -1):
            vec = jx_extremal_amplitudes(n_atoms, sign)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(jx @ vec, sign * j * vec, atol=1e-12)

    def test_suggested_cutoff_covers_displacement(self):
        params = make_params(1, 1, 2.0, 8)
        alpha = np.sqrt(8.0) * 2.0
        assert suggest_cutoff(params) >= alpha**2 + 6 * alpha - 1
