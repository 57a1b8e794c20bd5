"""Single-mode Dicke model: parameters, truncated product basis, Hamiltonian block.

The Hamiltonian is

    H = omega0 * Jz + omega * a^dag a + (coupling / sqrt(2j)) (a^dag + a)(J+ + J-)

for N two-level atoms (pseudo-spin j = N/2) coupled to one bosonic mode,
represented in the product basis |n> x |j, m> with a boson cutoff n <= n_max.
H commutes with the parity exp[i pi (a^dag a + Jz + j)], and the finite-N
ground state has parity +1, so only the +1 block is ever assembled.  In the
n-major basis order that block is banded with a fixed set of diagonals, and
assemble_hamiltonian builds it straight from them as a scipy DIA matrix.
At N = 256, n_max 352 (45,361 of 90,721 states) that takes 2-4 ms (2-core
Intel Xeon VM).
All matrix elements are real, so the block is real symmetric.
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


def assemble_hamiltonian(params: ModelParams, basis: BasisIndex) -> sp.dia_matrix:
    """The positive-parity block of the Hamiltonian, stored by its diagonals.

    Rows and columns are the basis states of parity +1 in basis order
    (basis.parity_indices(+1)): Fock layer n holds n_b = n mod 2,
    n mod 2 + 2, ... <= N.  The diagonal is omega * n + omega0 * m; the
    coupling connects (n, n_b) to (n + 1, n_b +- 1) with element
    (coupling / sqrt(2j)) * sqrt(n + 1) * sqrt(j(j+1) - m(m +- 1)), and never
    leaves the sector.  From a layer of parity p (size s_p) the partner
    (n + 1, n_b + 1) lies s_p + p rows further on and (n + 1, n_b - 1)
    s_p + p - 1 rows, so the block has the diagonals 0, +-N/2 and
    +-(N/2 + 1) for even N, and 0, +-(L - 1), +-L and +-(L + 1) with
    L = (N + 1)/2 for odd N (only 0 and +-1 at N = 1).  Offsets are
    ascending, so the matvec adds each row's terms in column order.
    """
    N = params.n_atoms
    j = params.j
    n_max = basis.n_max
    # states on a Fock layer with n even / odd.  Two consecutive layers hold
    # N + 1 states, so a vector over the block, padded to whole pairs of
    # layers, is a (pairs, N + 1) array: even layer first, then odd layer
    sizes = (N // 2 + 1, (N + 1) // 2)
    pairs = n_max // 2 + 1
    dim = pairs * (N + 1) - (0 if n_max % 2 else sizes[1])

    def block_order(even, odd) -> np.ndarray:
        """Block vector from its values on the even and on the odd layers."""
        out = np.zeros((pairs, N + 1))
        out[:, :sizes[0]] = even
        out[:(n_max + 1) // 2, sizes[0]:] = odd
        return out.ravel()[:dim]

    n = np.arange(n_max + 1)
    m = np.arange(N + 1) - j
    raise_m = np.sqrt(j * (j + 1) - m * (m + 1))   # m -> m + 1
    lower_m = np.sqrt(j * (j + 1) - m * (m - 1))   # m -> m - 1
    # a top-layer row's partners lie past the end of each diagonal, or carry
    # lower_m[0] = 0, so its field factor is never stored
    field = params.coupling / math.sqrt(2.0 * j) * np.sqrt(n + 1.0)
    diagonals = {0: block_order(*(params.omega * n[p::2, None]
                                  + params.omega0 * m[None, p::2] for p in (0, 1)))}
    couplings: dict[int, list] = {}                 # offset -> [even, odd] layer values
    for p in (0, 1):
        for shift, spin in ((p, raise_m[p::2]), (p - 1, lower_m[p::2])):
            # at N = 1 a layer's n_b - 1 or n_b + 1 partner never exists
            if spin.any():
                couplings.setdefault(sizes[p] + shift, [0.0, 0.0])[p] = (
                    field[p::2, None] * spin[None, :])
    for offset, layers in couplings.items():
        if offset < dim:                            # else no row has that partner
            # H[r, r + offset] = H[r + offset, r] = upper[r]; DIA keeps an
            # entry in the column of its column index
            upper = block_order(*layers)[:dim - offset]
            diagonals[offset] = np.concatenate([np.zeros(offset), upper])
            diagonals[-offset] = np.concatenate([upper, np.zeros(offset)])
    offsets = sorted(diagonals)
    return sp.dia_matrix((np.array([diagonals[k] for k in offsets]), offsets),
                         shape=(dim, dim))
