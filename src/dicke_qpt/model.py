"""Single-mode Dicke model: parameters, truncated product basis, sparse operators.

The Hamiltonian is

    H = omega0 * Jz + omega * a^dag a + (coupling / sqrt(2j)) (a^dag + a)(J+ + J-)

for N two-level atoms (pseudo-spin j = N/2) coupled to one bosonic mode,
represented in the product basis |n> x |j, m> with a boson cutoff n <= n_max.
All matrix elements are real, so assembled operators are real symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ParameterError

# Generous ceiling; desk-scale sweeps stay below ~30k.
DEFAULT_MAX_DIMENSION = 4_000_000


@dataclass(frozen=True)
class ModelParams:
    """Model parameters with the derived critical coupling.

    omega    : field frequency (> 0)
    omega0   : atomic level splitting (> 0)
    coupling : atom-field coupling strength lambda (>= 0)
    n_atoms  : number of two-level atoms N (>= 1); pseudo-spin j = N/2
    """

    omega: float
    omega0: float
    coupling: float
    n_atoms: int

    @property
    def j(self) -> float:
        return self.n_atoms / 2.0

    @property
    def lambda_c(self) -> float:
        """Critical coupling sqrt(omega * omega0) / 2."""
        return math.sqrt(self.omega * self.omega0) / 2.0

    @property
    def coupling_ratio(self) -> float:
        return self.coupling / self.lambda_c

    def with_coupling(self, coupling: float) -> "ModelParams":
        return make_params(self.omega, self.omega0, coupling, self.n_atoms)


def make_params(omega, omega0, coupling, n_atoms) -> ModelParams:
    """Validate and pack model parameters."""
    # chained comparisons are False for NaN, so these also reject it
    if not (0 < omega < math.inf and 0 < omega0 < math.inf):
        raise ParameterError(f"frequencies must be positive and finite, got "
                             f"omega={omega}, omega0={omega0}")
    if not 0 <= coupling < math.inf:
        raise ParameterError(f"coupling must be non-negative and finite, got {coupling}")
    if not 1 <= n_atoms < math.inf or int(n_atoms) != n_atoms:
        raise ParameterError(f"n_atoms must be a positive integer, got {n_atoms}")
    return ModelParams(float(omega), float(omega0), float(coupling), int(n_atoms))


@dataclass(frozen=True)
class BasisIndex:
    """Enumeration of |n> x |j, m> product states under a boson cutoff.

    Ordering is n-major, m-minor (m ascending from -j), so the flat index of
    (n, m) is n * (N + 1) + (m + j).  Each state carries the parity label
    (-1)^(n + m + j), the eigenvalue of exp[i pi (a^dag a + Jz + j)].
    """

    n_max: int
    n_atoms: int
    n: np.ndarray = field(repr=False)        # Fock occupation per entry
    n_b: np.ndarray = field(repr=False)      # m + j per entry (integer)
    parity: np.ndarray = field(repr=False)   # +-1 per entry

    @property
    def j(self) -> float:
        return self.n_atoms / 2.0

    @property
    def m(self) -> np.ndarray:
        return self.n_b - self.j

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.n_atoms + 1)

    def index(self, n: int, n_b: int) -> int:
        return n * (self.n_atoms + 1) + n_b

    def parity_indices(self, sector: int = +1) -> np.ndarray:
        return np.flatnonzero(self.parity == sector)

    def reshape(self, amplitudes: np.ndarray) -> np.ndarray:
        """View a flat amplitude vector as an (n_max+1, N+1) matrix."""
        return np.asarray(amplitudes).reshape(self.n_max + 1, self.n_atoms + 1)


def build_basis(params: ModelParams, n_max: int,
                max_dim: int = DEFAULT_MAX_DIMENSION) -> BasisIndex:
    """Enumerate the truncated Fock (x) Dicke basis with parity labels."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    n_states = params.n_atoms + 1
    dim = (n_max + 1) * n_states
    if dim > max_dim:
        raise CapacityError(
            f"basis dimension {dim} exceeds ceiling {max_dim} "
            f"(n_max={n_max}, N={params.n_atoms})")
    n = np.repeat(np.arange(n_max + 1), n_states)
    n_b = np.tile(np.arange(n_states), n_max + 1)
    parity = np.where((n + n_b) % 2 == 0, 1, -1).astype(np.int8)
    return BasisIndex(n_max=n_max, n_atoms=params.n_atoms, n=n, n_b=n_b, parity=parity)


def assemble_hamiltonian(params: ModelParams, basis: BasisIndex) -> sp.csr_matrix:
    """Assemble the sparse real-symmetric Hamiltonian on the given basis.

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


def parity_operator(basis: BasisIndex) -> sp.csr_matrix:
    """Diagonal parity operator, eigenvalues (-1)^(n + m + j)."""
    return sp.diags(basis.parity.astype(float), format="csr")
