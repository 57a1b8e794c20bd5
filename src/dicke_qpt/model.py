"""Single-mode Dicke model: parameters, truncated product basis, Hamiltonian block.

The Hamiltonian is

    H = omega0 * Jz + omega * a^dag a + (coupling / sqrt(2j)) (a^dag + a)(J+ + J-)

for N two-level atoms (pseudo-spin j = N/2) coupled to one bosonic mode,
represented in the product basis |n> x |j, m> with a boson cutoff n <= n_max.
H commutes with the parity exp[i pi (a^dag a + Jz + j)], and the finite-N
ground state has parity +1, so only the +1 block is ever assembled.  In the
n-major basis order that block is banded with a fixed set of diagonals, and
assemble_hamiltonian builds it straight from them as a scipy DIA matrix.
Two consecutive Fock layers hold N + 1 states, and their pattern (the layer
parity and m of each state, the offsets and the spin factors) is built once
per N; a call lays that pattern over the pairs of layers up to its cutoff.
All matrix elements are real, so the block is real symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    coupling : atom-field coupling strength lambda (>= 0); closed forms take a 1-d grid
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


def make_params(omega, omega0, coupling, n_atoms) -> ModelParams:
    """Validate and pack model parameters; coupling may be a 1-d array."""
    # chained comparisons are False for NaN, so these also reject it
    if not (0 < omega < math.inf and 0 < omega0 < math.inf):
        raise ParameterError(f"frequencies must be positive and finite, got "
                             f"omega={omega}, omega0={omega0}")
    couplings = np.asarray(coupling, dtype=float)
    if not np.all((couplings >= 0) & (couplings < math.inf)):
        raise ParameterError(f"coupling must be non-negative and finite, got {coupling}")
    if not 1 <= n_atoms < math.inf or int(n_atoms) != n_atoms:
        raise ParameterError(f"n_atoms must be a positive integer, got {n_atoms}")
    return ModelParams(float(omega), float(omega0),
                       couplings if couplings.ndim else float(couplings), int(n_atoms))


@dataclass(frozen=True)
class BasisIndex:
    """Enumeration of |n> x |j, m> product states under a boson cutoff.

    A state's amplitudes form an (n_max + 1, N + 1) matrix psi(n, n_b) with
    n_b = m + j; parity is the same grid of labels (-1)^(n + n_b), the
    eigenvalue of exp[i pi (a^dag a + Jz + j)].  Its +1 entries, read row by
    row, are the rows of the Hamiltonian block.
    """

    n_max: int
    n_atoms: int
    parity: np.ndarray = field(repr=False)   # +-1 per (n, n_b), int8

    @property
    def j(self) -> float:
        return self.n_atoms / 2.0

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.n_atoms + 1)


def _short_int(n: int) -> str:
    """A non-negative int in full up to 15 digits, and beyond as its leading
    four digits and exponent (8.988e+308); never through float, which a
    dimension can exceed."""
    digits = str(n)
    if len(digits) <= 15:
        return digits
    return f"{digits[0]}.{digits[1:4]}e+{len(digits) - 1}"


def build_basis(params: ModelParams, n_max: int,
                max_dim: int = DEFAULT_MAX_DIMENSION) -> BasisIndex:
    """Enumerate the truncated Fock (x) Dicke basis with parity labels."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    n_states = params.n_atoms + 1
    dim = (n_max + 1) * n_states
    if dim > max_dim:
        raise CapacityError(
            f"basis dimension {_short_int(dim)} exceeds ceiling {_short_int(max_dim)} "
            f"(n_max={_short_int(n_max)}, N={_short_int(params.n_atoms)})")
    n_plus_n_b = np.add.outer(np.arange(n_max + 1), np.arange(n_states))
    parity = np.where(n_plus_n_b % 2 == 0, 1, -1).astype(np.int8)
    return BasisIndex(n_max=n_max, n_atoms=params.n_atoms, parity=parity)


def _block_dim(n_atoms: int, n_max: int) -> int:
    """States of parity +1 up to cutoff n_max (see assemble_hamiltonian)."""
    return (n_max // 2 + 1) * (n_atoms + 1) - (0 if n_max % 2 else (n_atoms + 1) // 2)


@lru_cache(maxsize=64)
def _layer_pair(N: int) -> tuple[np.ndarray, ...]:
    """The coupling-free pattern of one pair of Fock layers of the +1 block.

    A layer with n even holds n_b = 0, 2, ... <= N and one with n odd
    n_b = 1, 3, ..., so a pair of consecutive layers holds N + 1 states, and
    the block padded to whole pairs is a (pairs, N + 1) grid with
    n = 2 * pair + p.  Returns per column of the grid the layer parity p and
    m = n_b - j, the ascending positive offsets of the coupling diagonals,
    and per offset the spin factor sqrt(j(j+1) - m(m +- 1)) of each
    column's partner (0 where it has none).  The arrays are read-only, as
    every assembly at this N shares them.
    """
    j = N / 2.0
    sizes = (N // 2 + 1, (N + 1) // 2)              # states on an even / odd layer
    columns = (slice(0, sizes[0]), slice(sizes[0], None))
    m = np.arange(N + 1) - j
    raise_m = np.sqrt(j * (j + 1) - m * (m + 1))   # m -> m + 1
    lower_m = np.sqrt(j * (j + 1) - m * (m - 1))   # m -> m - 1
    parity = np.repeat([0, 1], sizes)
    spins: dict[int, np.ndarray] = {}               # offset -> factor per column
    for p in (0, 1):
        for shift, spin in ((p, raise_m[p::2]), (p - 1, lower_m[p::2])):
            # at N = 1 a layer's n_b - 1 or n_b + 1 partner never exists
            if spin.any():
                spins.setdefault(sizes[p] + shift, np.zeros(N + 1))[columns[p]] = spin
    offsets = sorted(spins)
    pattern = (parity, np.concatenate([m[0::2], m[1::2]]), np.array(offsets),
               np.array([spins[k] for k in offsets]))
    for array in pattern:
        array.setflags(write=False)
    return pattern


def assemble_hamiltonian(params: ModelParams, basis: BasisIndex) -> sp.dia_matrix:
    """The positive-parity block of the Hamiltonian, stored by its diagonals.

    Rows and columns are the basis states of parity +1 (basis.parity == +1),
    n-major: Fock layer n holds n_b = n mod 2,
    n mod 2 + 2, ... <= N.  The diagonal is omega * n + omega0 * m; the
    coupling connects (n, n_b) to (n + 1, n_b +- 1) with element
    (coupling / sqrt(2j)) * sqrt(n + 1) * sqrt(j(j+1) - m(m +- 1)), and never
    leaves the sector.  From a layer of parity p (size s_p) the partner
    (n + 1, n_b + 1) lies s_p + p rows further on and (n + 1, n_b - 1)
    s_p + p - 1 rows, so the block has the diagonals 0, +-N/2 and
    +-(N/2 + 1) for even N, and 0, +-(L - 1), +-L and +-(L + 1) with
    L = (N + 1)/2 for odd N (only 0 and +-1 at N = 1).  Offsets are
    ascending, so the matvec adds each row's terms in column order.

    Each call lays the block out on the (pairs, N + 1) grid of _layer_pair(N),
    the pattern of one pair of layers that every cutoff and coupling at this N
    shares: it forms n there, then the diagonal omega * n + omega0 * m, the
    field factor (coupling / sqrt(2j)) * sqrt(n + 1), and per offset
    field * spin, and keeps the first dim entries of each.
    """
    N = params.n_atoms
    dim = _block_dim(N, basis.n_max)
    parity, m, upper_offsets, spins = _layer_pair(N)
    n = 2 * np.arange(basis.n_max // 2 + 1)[:, None] + parity
    offsets = upper_offsets[upper_offsets < dim]    # else no row has that partner
    # a top-layer row's partners lie past the end of each diagonal, or carry
    # a zero spin factor, so its field factor is never stored
    field = params.coupling / math.sqrt(2.0 * params.j) * np.sqrt(n + 1.0)
    centre = offsets.size
    upper = (field * spins[:centre, None, :]).reshape(centre, field.size)
    data = np.zeros((2 * centre + 1, dim))
    data[centre] = (params.omega * n + params.omega0 * m).ravel()[:dim]
    for i, offset in enumerate(offsets.tolist()):
        # H[r, r + offset] = H[r + offset, r] = upper[r]; DIA keeps an entry
        # in the column of its column index
        row = upper[i, :dim - offset]
        data[centre + 1 + i, offset:] = row
        data[centre - 1 - i, :dim - offset] = row
    return sp.dia_matrix((data, np.concatenate([-offsets[::-1], [0], offsets])),
                         shape=(dim, dim))
