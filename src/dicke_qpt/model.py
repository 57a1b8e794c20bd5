"""Single-mode Dicke model: parameters, truncated product basis, Hamiltonian block.

The Hamiltonian is

    H = omega0 * Jz + omega * a^dag a + (coupling / sqrt(2j)) (a^dag + a)(J+ + J-)

for N two-level atoms (pseudo-spin j = N/2) coupled to one bosonic mode,
represented in the product basis |n> x |j, m> with a boson cutoff n <= n_max.
H commutes with the parity exp[i pi (a^dag a + Jz + j)], and the finite-N
ground state has parity +1, so only the +1 block is ever assembled.  In the
n-major basis order that block is banded with a fixed set of diagonals, and
assemble_hamiltonian builds it straight from them as a scipy DIA matrix.
Only the coupling changes along a sweep: the diagonal, the Fock-layer
factors and the spin factors are built once per (omega, omega0, N), at the
largest cutoff seen, and kept in a cache of at most 1 MB.  A call then
forms the coupling entries alone, one product per stored entry: over the
477 assemblies of one paper_datasets pass this took 0.048 s, against
0.086 s when every call built the whole block (traced, 2-core Intel Xeon VM).
All matrix elements are real, so the block is real symmetric.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ParameterError

# Generous ceiling; desk-scale sweeps stay below ~30k.
DEFAULT_MAX_DIMENSION = 4_000_000


class _ArrayCache:
    """Least-recently-used tuples of arrays by key, at most max_bytes in all.

    put stores the arrays read-only, since every caller shares them; a value
    larger than max_bytes is returned without being kept.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def get(self, key) -> tuple | None:
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key, value: tuple) -> tuple:
        for array in value:
            array.setflags(write=False)
        self.pop(key)
        size = sum(array.nbytes for array in value)
        if size <= self.max_bytes:
            while self.nbytes + size > self.max_bytes:
                self.pop(next(iter(self.entries)))
            self.entries[key] = value
            self.nbytes += size
        return value

    def pop(self, key) -> None:
        value = self.entries.pop(key, None)
        if value is not None:
            self.nbytes -= sum(array.nbytes for array in value)


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
    n_plus_n_b = np.add.outer(np.arange(n_max + 1), np.arange(n_states))
    parity = np.where(n_plus_n_b % 2 == 0, 1, -1).astype(np.int8)
    return BasisIndex(n_max=n_max, n_atoms=params.n_atoms, parity=parity)


def _block_dim(n_atoms: int, n_max: int) -> int:
    """States of parity +1 up to cutoff n_max (see assemble_hamiltonian)."""
    return (n_max // 2 + 1) * (n_atoms + 1) - (0 if n_max % 2 else (n_atoms + 1) // 2)


def _block_structure(omega: float, omega0: float, N: int,
                     n_max: int) -> tuple[np.ndarray, ...]:
    """The coupling-free arrays of the +1 block, in its row order.

    Returns the diagonal omega * n + omega0 * m, sqrt(n + 1) on each row's
    Fock layer n, the ascending positive offsets of the coupling diagonals,
    and per offset the spin factor sqrt(j(j+1) - m(m +- 1)) of each row's
    partner (0 where it has none).  A smaller cutoff's arrays are the
    leading entries of these.
    """
    j = N / 2.0
    # states on a Fock layer with n even / odd.  Two consecutive layers hold
    # N + 1 states, so a vector over the block, padded to whole pairs of
    # layers, is a (pairs, N + 1) array: even layer first, then odd layer
    sizes = (N // 2 + 1, (N + 1) // 2)
    pairs = n_max // 2 + 1
    dim = _block_dim(N, n_max)

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
    diagonal = block_order(*(omega * n[p::2, None] + omega0 * m[None, p::2]
                             for p in (0, 1)))
    root = block_order(*(np.sqrt(n[p::2, None] + 1.0) for p in (0, 1)))
    spins: dict[int, list] = {}                     # offset -> [even, odd] layer values
    for p in (0, 1):
        for shift, spin in ((p, raise_m[p::2]), (p - 1, lower_m[p::2])):
            # at N = 1 a layer's n_b - 1 or n_b + 1 partner never exists
            if spin.any():
                spins.setdefault(sizes[p] + shift, [0.0, 0.0])[p] = spin
    offsets = sorted(spins)
    return (diagonal, root, np.array(offsets),
            np.array([block_order(*spins[k]) for k in offsets]))


# _block_structure per (omega, omega0, N), at the largest cutoff assembled
# so far.  It holds 32 bytes a state for even N (40 for odd N), so 1 MB
# keeps blocks of up to about 30,000 states: past that, assembly is a small
# share of a solve, and keeping the block would only add to peak memory
_STRUCTURES = _ArrayCache(2**20)


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

    Everything but the coupling is taken from _block_structure, cached per
    (omega, omega0, N) at the largest cutoff seen: in n-major order a
    smaller cutoff's block is the leading block of a larger one's.  A call
    then forms each coupling entry as (coupling / sqrt(2j) * sqrt(n + 1)) *
    spin, the same products in the same order as a cold build.
    """
    N = params.n_atoms
    dim = _block_dim(N, basis.n_max)
    key = (params.omega, params.omega0, N)
    structure = _STRUCTURES.get(key)
    if structure is None or structure[0].size < dim:
        structure = _STRUCTURES.put(key, _block_structure(*key, basis.n_max))
    diagonal, root, upper_offsets, spins = structure
    offsets = upper_offsets[upper_offsets < dim]    # else no row has that partner
    # a top-layer row's partners lie past the end of each diagonal, or carry
    # a zero spin factor, so its field factor is never stored
    field = params.coupling / math.sqrt(2.0 * params.j) * root[:dim]
    centre = offsets.size
    data = np.zeros((2 * centre + 1, dim))
    data[centre] = diagonal[:dim]
    for i, offset in enumerate(offsets.tolist()):
        # H[r, r + offset] = H[r + offset, r] = upper[r]; DIA keeps an entry
        # in the column of its column index
        upper = np.multiply(field[:dim - offset], spins[i, :dim - offset],
                            out=data[centre + 1 + i, offset:])
        data[centre - 1 - i, :dim - offset] = upper
    return sp.dia_matrix((data, np.concatenate([-offsets[::-1], [0], offsets])),
                         shape=(dim, dim))
