"""Reference implementations that tests compare the package against.

full_hamiltonian is the CSR assembler of the Hamiltonian over both parity
sectors that the package used before it assembled only the positive-parity
block; parity_operator is the diagonal parity operator on the same basis.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


def full_hamiltonian(params, basis) -> sp.csr_matrix:
    """Assemble the sparse real-symmetric Hamiltonian on the whole basis.

    Diagonal: omega * n + omega0 * m.  Off-diagonal: the coupling term
    connects (n, m) to (n +- 1, m +- 1) in all four sign combinations with
    element (coupling / sqrt(2j)) * sqrt(n'+1 or n') * sqrt(j(j+1) - m(m+-1)),
    which never mixes parity sectors.
    """
    N = params.n_atoms
    j = params.j
    n_max = basis.n_max
    dim = basis.dim

    n = np.arange(n_max + 1)
    n_b = np.arange(N + 1)
    m = n_b - j

    diag = (params.omega * n[:, None] + params.omega0 * m[None, :]).ravel()
    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    vals = [diag]

    raise_m = np.sqrt(j * (j + 1) - m * (m + 1))   # m -> m + 1
    lower_m = np.sqrt(j * (j + 1) - m * (m - 1))   # m -> m - 1
    nn = np.arange(n_max)[:, None]                  # lower Fock level n
    field = params.coupling / math.sqrt(2.0 * j) * np.sqrt(nn + 1.0)
    for dnb, spin in ((+1, raise_m), (-1, lower_m)):
        ok = (n_b + dnb >= 0) & (n_b + dnb <= N)
        lo = (nn * (N + 1) + n_b[ok]).ravel()
        hi = lo + (N + 1 + dnb)
        v = (field * spin[ok]).ravel()
        rows += [lo, hi]
        cols += [hi, lo]
        vals += [v, v]

    H = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    H.sum_duplicates()
    H.sort_indices()
    return H


def parity_operator(basis) -> sp.csr_matrix:
    """Diagonal parity operator, eigenvalues (-1)^(n + m + j)."""
    return sp.diags(basis.parity.astype(float), format="csr")


def parity_block(params, basis) -> sp.csr_matrix:
    """The positive-parity block of full_hamiltonian, sliced out of it."""
    idx = basis.parity_indices(+1)
    return full_hamiltonian(params, basis)[idx][:, idx]
