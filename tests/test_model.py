import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicke_qpt
from dicke_qpt import model
from dicke_qpt import (CapacityError, ParameterError, assemble_hamiltonian,
                       build_basis, make_params)
from oracles import full_hamiltonian, parity_block, parity_indices, parity_operator


def dense_reference_hamiltonian(params, n_max):
    """Oracle: dense Kronecker-product construction from operator matrices."""
    N = params.n_atoms
    j = N / 2.0
    nf = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, nf)), k=1)
    num = a.T @ a
    m = np.arange(N + 1) - j
    jz = np.diag(m)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), k=-1).T
    eye_f = np.eye(nf)
    eye_a = np.eye(N + 1)
    H = (params.omega * np.kron(num, eye_a)
         + params.omega0 * np.kron(eye_f, jz)
         + params.coupling / np.sqrt(2 * j)
         * np.kron(a + a.T, jplus + jplus.T))
    return H


def test_package_exports_no_submodules():
    exported = [getattr(dicke_qpt, name) for name in dicke_qpt.__all__]
    assert "make_params" in dicke_qpt.__all__
    assert not [v for v in exported if isinstance(v, types.ModuleType)]


class TestMakeParams:
    def test_resonant_critical_coupling(self):
        p = make_params(1, 1, 0.5, 8)
        assert p.lambda_c == 0.5
        assert p.coupling / p.lambda_c == 1.0
        assert p.j == 4.0

    def test_zero_coupling_is_valid(self):
        p = make_params(1, 1, 0, 2)
        assert p.coupling / p.lambda_c == 0.0

    def test_off_resonance_critical_coupling(self):
        assert make_params(4, 1, 1, 16).lambda_c == 1.0

    def test_critical_coupling_identity(self):
        p = make_params(3.7, 0.21, 0.1, 5)
        assert p.lambda_c**2 == pytest.approx(p.omega * p.omega0 / 4, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(omega=0), dict(omega=-1), dict(omega0=0), dict(omega0=-0.5),
        dict(coupling=-0.1), dict(n_atoms=0), dict(n_atoms=2.5),
        dict(omega=math.inf), dict(omega0=math.inf), dict(coupling=math.nan),
        dict(coupling=math.inf), dict(n_atoms=math.nan), dict(n_atoms=math.inf),
        dict(n_atoms=-math.inf),
    ])
    def test_domain_errors(self, bad):
        kw = dict(omega=1.0, omega0=1.0, coupling=0.3, n_atoms=4)
        kw.update(bad)
        with pytest.raises(ParameterError):
            make_params(**kw)

    def test_coupling_grid(self):
        p = make_params(1, 1, [0, 0.25, 1.5], 8)
        assert p.coupling.dtype == float and p.coupling.tolist() == [0.0, 0.25, 1.5]
        for bad in ([0.1, -0.1], [0.1, math.nan], [math.inf]):
            with pytest.raises(ParameterError):
                make_params(1, 1, np.array(bad), 8)


class TestBasis:
    def test_single_atom_enumeration(self):
        basis = build_basis(make_params(1, 1, 0.1, 1), 1)
        assert basis.dim == 4
        assert basis.parity.ravel().tolist() == [1, -1, -1, 1]

    def test_two_atoms_no_photons(self):
        basis = build_basis(make_params(1, 1, 0.1, 2), 0)
        assert basis.dim == 3
        assert basis.parity.ravel().tolist() == [1, -1, 1]

    def test_dimension(self):
        assert build_basis(make_params(1, 1, 0.1, 8), 40).dim == 369

    def test_capacity_error(self):
        with pytest.raises(CapacityError, match=r"^basis dimension 369 exceeds ceiling 100 "
                                                r"\(n_max=40, N=8\)$"):
            build_basis(make_params(1, 1, 0.1, 8), 40, max_dim=100)

    def test_capacity_error_spells_huge_sizes_short(self):
        # a cutoff at the largest float makes a 309-digit dimension, past
        # any float: the message gives four digits and the exponent of each
        # size beyond 15 digits
        with pytest.raises(CapacityError) as info:
            build_basis(make_params(1, 1, 0.1, 4), math.ceil(sys.float_info.max))
        assert str(info.value) == ("basis dimension 8.988e+308 exceeds ceiling 4000000 "
                                   "(n_max=1.797e+308, N=4)")
        assert model._short_int(10**15 - 1) == "999999999999999"
        assert model._short_int(10**15) == "1.000e+15"
        assert model._short_int(10**400 * 12345) == "1.234e+404"

    def test_n_major_layout(self):
        # state (n, n_b) sits at n * (N + 1) + n_b of the flat order, so an
        # amplitude matrix holds Fock layer n in row n, with parity
        # (-1)^(n + n_b)
        basis = build_basis(make_params(1, 1, 0.1, 3), 5)
        layout = np.arange(basis.dim).reshape(basis.parity.shape)
        n, n_b = np.arange(6)[:, None], np.arange(4)[None, :]
        assert layout.shape == (6, 4)
        assert (layout == n * 4 + n_b).all()
        assert (basis.parity == (-1) ** (n + n_b)).all()


class TestHamiltonian:
    def test_zero_coupling_is_diagonal(self):
        params = make_params(1, 1, 0.0, 4)
        basis = build_basis(params, 6)
        H = full_hamiltonian(params, basis)
        off = H - np.diag(H.diagonal()).astype(float)
        assert abs(off).max() == 0.0
        assert H.diagonal().min() == -params.j * params.omega0

    def test_single_matrix_element(self):
        # (0, +1/2) <-> (1, -1/2): boson and spin factors are both unity
        params = make_params(1, 1, 0.3, 1)
        basis = build_basis(params, 1)
        H = full_hamiltonian(params, basis).toarray()
        i = np.ravel_multi_index((0, 1), basis.parity.shape)
        k = np.ravel_multi_index((1, 0), basis.parity.shape)
        assert H[i, k] == pytest.approx(0.3, abs=1e-15)

    def test_matches_dense_kronecker_oracle(self):
        # odd N gives half-integer m; n_max 7 gives several Fock layers
        for params, n_max in ((make_params(1, 1, 0.5, 2), 2),
                              (make_params(1.3, 0.7, 0.9, 5), 7)):
            basis = build_basis(params, n_max)
            H = full_hamiltonian(params, basis).toarray()
            np.testing.assert_allclose(H, dense_reference_hamiltonian(params, n_max),
                                       atol=1e-14)

    def test_exactly_symmetric(self):
        params = make_params(1.3, 0.7, 0.9, 5)
        basis = build_basis(params, 8)
        H = full_hamiltonian(params, basis)
        assert abs(H - H.T).max() == 0.0

    def test_parity_commutes_exactly(self):
        params = make_params(1, 1, 0.7, 4)
        basis = build_basis(params, 10)
        H = full_hamiltonian(params, basis)
        P = parity_operator(basis)
        assert abs(P @ H - H @ P).max() == 0.0

    def test_parity_squares_to_identity(self):
        basis = build_basis(make_params(1, 1, 0.2, 3), 4)
        P = parity_operator(basis)
        assert abs(P @ P - np.eye(basis.dim)).max() == 0.0

    def test_parity_block_structure(self):
        params = make_params(1, 1, 0.8, 3)
        basis = build_basis(params, 5)
        H = full_hamiltonian(params, basis).toarray()
        plus = parity_indices(basis, +1)
        minus = parity_indices(basis, -1)
        assert len(plus) + len(minus) == basis.dim
        assert abs(H[np.ix_(plus, minus)]).max() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(omega=st.floats(0.2, 4.0), omega0=st.floats(0.2, 4.0),
           ratio=st.floats(0.0, 3.0), n_atoms=st.integers(1, 4),
           n_max=st.integers(1, 8))
    def test_structure_properties(self, omega, omega0, ratio, n_atoms, n_max):
        params = make_params(omega, omega0, ratio * np.sqrt(omega * omega0) / 2,
                             n_atoms)
        basis = build_basis(params, n_max)
        H = full_hamiltonian(params, basis)
        assert H.shape == (basis.dim, basis.dim)
        assert abs(H - H.T).max() == 0.0
        P = parity_operator(basis)
        assert abs(P @ H - H @ P).max() == 0.0
        assert set(np.unique(basis.parity)) <= {-1, 1}
        block = assemble_hamiltonian(params, basis).toarray()
        np.testing.assert_array_equal(block, block.T)
        np.testing.assert_array_equal(block, parity_block(params, basis).toarray())


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64)


class TestParityBlock:
    # (omega, omega0, coupling): decoupled, and coupled on and off resonance
    @pytest.mark.parametrize("omega, omega0, coupling",
                             [(1.0, 1.0, 0.0), (1.3, 0.7, 0.0), (1.0, 1.0, 0.37),
                              (1.3, 0.7, 0.9)])
    @pytest.mark.parametrize("n_max", [0, 1, 30])
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 7, 8, 33])
    def test_matches_oracle_block_bit_for_bit(self, n_atoms, n_max, omega, omega0,
                                              coupling):
        params = make_params(omega, omega0, coupling, n_atoms)
        basis = build_basis(params, n_max)
        block = assemble_hamiltonian(params, basis)
        oracle = parity_block(params, basis)
        assert block.shape == oracle.shape == (parity_indices(basis, +1).size,) * 2
        np.testing.assert_array_equal(bits(block.toarray()), bits(oracle.toarray()))
        x = np.random.default_rng(n_atoms * 100 + n_max).standard_normal(block.shape[0])
        np.testing.assert_array_equal(bits(block @ x), bits(oracle @ x))

    @pytest.mark.parametrize("n_atoms", [1, 2, 7, 8])
    def test_cached_structure_matches_a_cold_build(self, n_atoms):
        # the cutoff grows, shrinks and regrows, with two frequency pairs at
        # the same N in turn: whatever came before, each block must have the
        # bits of the oracle block, and the layer pattern is built once per
        # N, not once per frequency pair
        model._layer_pair.cache_clear()
        for n_max in (10, 30, 12, 45, 0, 3, 45, 60, 31):
            for omega, omega0, coupling in ((1.0, 1.0, 0.37), (1.3, 0.7, 0.9)):
                params = make_params(omega, omega0, coupling, n_atoms)
                basis = build_basis(params, n_max)
                block = assemble_hamiltonian(params, basis)
                np.testing.assert_array_equal(bits(block.toarray()),
                                              bits(parity_block(params, basis).toarray()))
        assert model._layer_pair.cache_info().misses == 1
        assert not any(array.flags.writeable for array in model._layer_pair(n_atoms))

    @pytest.mark.parametrize("n_atoms, offsets", [
        (1, [-1, 0, 1]), (2, [-2, -1, 0, 1, 2]), (8, [-5, -4, 0, 4, 5]),
        (7, [-5, -4, -3, 0, 3, 4, 5]), (33, [-18, -17, -16, 0, 16, 17, 18])])
    def test_stored_by_its_diagonals(self, n_atoms, offsets):
        # 0, +-N/2 and +-(N/2 + 1) for even N; 0, +-(L - 1), +-L, +-(L + 1)
        # with L = (N + 1)/2 for odd N, ascending
        params = make_params(1, 1, 0.4, n_atoms)
        block = assemble_hamiltonian(params, build_basis(params, 30))
        assert block.format == "dia"
        assert block.offsets.tolist() == offsets

