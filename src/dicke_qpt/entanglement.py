"""Finite-N entanglement measures from the exact ground state.

Covers the bipartite atom-field reduced density matrices and their von
Neumann / linear entropies, the single-atom reduced state built from
collective expectations, the subsystem-averaged linear entropy Q, a generic
qubit-register Q evaluator, and the coordinate-space inverse participation
ratio, integrated by a tensor Gauss-Hermite rule that is exact for the state.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import IntegrityError, ParameterError
from .eigensolver import GroundState
from .model import BasisIndex, ModelParams

TRACE_TOL = 1e-8
EIGVAL_FLOOR = 1e-14
NEG_EIGVAL_TOL = 1e-10


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Dense Hermitian reduced state with cached, clipped eigenvalues.

    Eigenvalues are stored descending; negatives beyond -1e-10 raise, smaller
    ones are clipped to zero (clipped_weight records the total removed).
    """

    subsystem: str
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    clipped_weight: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        val = float(np.sum(self.matrix * self.matrix))
        if not (-1e-12 <= val <= 1.0 + 1e-10):
            raise IntegrityError(f"purity {val} outside [0, 1]")
        return val


def _make_rdm(subsystem: str, matrix: np.ndarray) -> ReducedDensityMatrix:
    trace = float(np.trace(matrix))
    if abs(trace - 1.0) > TRACE_TOL:
        raise IntegrityError(f"{subsystem} RDM trace {trace} deviates from 1")
    ev = np.linalg.eigvalsh(matrix)
    if ev.min() < -NEG_EIGVAL_TOL:
        raise IntegrityError(f"{subsystem} RDM eigenvalue {ev.min()} below -{NEG_EIGVAL_TOL}")
    clipped = float(np.abs(ev[ev < 0]).sum() + (ev[ev > 1.0] - 1.0).sum())
    ev = np.clip(ev, 0.0, 1.0)[::-1].copy()
    return ReducedDensityMatrix(subsystem=subsystem, matrix=matrix,
                                eigenvalues=ev, clipped_weight=clipped)


def partial_trace(state: GroundState, basis: BasisIndex,
                  keep: str = "atoms") -> ReducedDensityMatrix:
    """Reduced density matrix of the atoms or the field from a pure state.

    For keep="atoms": rho[m, m'] = sum_n psi(n, m) psi(n, m'); analogous for
    the field.  The amplitude matrix view makes both a single product.
    """
    A = basis.reshape(state.amplitudes)
    if keep == "atoms":
        rho = A.T @ A
    elif keep == "field":
        rho = A @ A.T
    else:
        raise ParameterError(f"keep must be 'atoms' or 'field', got {keep!r}")
    return _make_rdm(keep, rho)


def von_neumann_entropy(rdm: ReducedDensityMatrix) -> float:
    """-sum p log2 p over eigenvalues above the 1e-14 floor, in bits."""
    p = rdm.eigenvalues[rdm.eigenvalues > EIGVAL_FLOOR]
    return float(-(p * np.log2(p)).sum()) + 0.0


def linear_entropy(rdm: ReducedDensityMatrix, subsystem_dim: int | None = None) -> float:
    """Normalized linear entropy eta * (1 - Tr rho^2) in [0, 1].

    eta = d / (d - 1) where d is the normalization dimension: the maximally
    mixed d-level state maps to 1.  d defaults to the RDM dimension; pass
    the Schmidt-rank bound explicitly when the RDM lives in a larger space
    (e.g. the field mode traced against N atoms uses d = N + 1).
    """
    d = rdm.dim if subsystem_dim is None else int(subsystem_dim)
    if d < 2:
        raise ParameterError(f"normalization dimension must be >= 2, got {d}")
    eta = d / (d - 1.0)
    return float(eta * (1.0 - rdm.purity()))


def collective_expectations(state: GroundState, basis: BasisIndex) -> dict:
    """<Jz> and <J+> in the collective basis; <J-> = <J+> for real amplitudes."""
    A = basis.reshape(state.amplitudes)
    j = basis.j
    m = np.arange(basis.n_atoms + 1) - j
    w = A**2
    jz = float((w * m[None, :]).sum())
    raise_m = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = float((A[:, 1:] * A[:, :-1] * raise_m[None, :]).sum())
    return {"jz": jz, "jp": jp}


def single_atom_rdm(state: GroundState, basis: BasisIndex) -> ReducedDensityMatrix:
    """2x2 reduced state of one atom from collective expectation values.

    rho_k = [[ (1 - 2<Jz>/N)/2,  <J->/N ],
             [ <J+>/N,  (1 + 2<Jz>/N)/2 ]]
    so Tr rho_k^2 = 1/2 + 2<Jz>^2/N^2 + 2<J-><J+>/N^2.  For a parity
    eigenstate <J+-> vanish identically (they flip the parity sector).
    """
    ex = collective_expectations(state, basis)
    N = basis.n_atoms
    z = 2.0 * ex["jz"] / N
    off = ex["jp"] / N
    rho = np.array([[0.5 * (1.0 - z), off], [off, 0.5 * (1.0 + z)]])
    return _make_rdm("single-atom", rho)


def average_linear_entropy_Q(state: GroundState, basis: BasisIndex, *,
                             _atoms_rdm: ReducedDensityMatrix | None = None) -> float:
    """Subsystem-averaged linear entropy Q = N/(N+1) L_k + 1/(N+1) L_b.

    L_k uses eta_2 = 2 on the single-atom purity; L_b uses eta = 1 + 1/N on
    the field purity (Schmidt bound N + 1).  The state is pure, so A A^T
    (the field RDM) and A^T A (the atoms RDM) share their trace and nonzero
    spectrum, hence the purity: the smaller of the two is built and checked.
    Where that is A^T A, an atoms RDM the caller already holds (partial_trace
    of the same state) is used as _atoms_rdm instead of a second build; it is
    the same matrix, so Q keeps its bits.
    """
    N = basis.n_atoms
    rho_k = single_atom_rdm(state, basis)
    l_k = linear_entropy(rho_k, 2)
    A = basis.reshape(state.amplitudes)
    if A.shape[0] <= A.shape[1]:
        rho_b = _make_rdm("field", A @ A.T)
    elif _atoms_rdm is None:
        rho_b = _make_rdm("atoms", A.T @ A)
    else:
        rho_b = _atoms_rdm
    l_b = linear_entropy(rho_b, N + 1)
    return float((N * l_k + l_b) / (N + 1.0))


def meyer_wallach_Q_generic(qubit_state: np.ndarray) -> float:
    """Average single-qubit linear entropy of a pure n-qubit state.

    Q = 2 [1 - (1/n) sum_k Tr rho_k^2], evaluated through per-qubit partial
    traces; supports n <= 12 qubits and requires unit normalization.
    """
    psi = np.asarray(qubit_state, dtype=complex).ravel()
    n = psi.size.bit_length() - 1
    if psi.size != 2**n or n < 1:
        raise ParameterError(f"state length {psi.size} is not a power of two")
    if n > 12:
        raise ParameterError(f"register size {n} exceeds the 12-qubit limit")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ParameterError("qubit state must be normalized")
    tensor = psi.reshape([2] * n)
    purity_sum = 0.0
    for k in range(n):
        mat = np.moveaxis(tensor, k, 0).reshape(2, -1)
        rho = mat @ mat.conj().T
        purity_sum += float(np.real(np.sum(rho * rho.conj())))
    return float(2.0 * (1.0 - purity_sum / n))


def oscillator_eigenfunctions(xs: np.ndarray, k_max: int, freq: float) -> np.ndarray:
    """Orthonormal harmonic-oscillator eigenfunctions phi_k(x), k <= k_max.

    Unit mass, frequency freq: phi_k(x) = freq^(1/4) psi_k(xi) with the
    Hermite functions psi_k of the scaled coordinate xi = sqrt(freq) * x.
    Each column is mantissa * exp(log_scale), so the Gaussian does not
    underflow far out (exp(-xi^2/2) is 0 beyond xi ~ 38.6).  Returns shape
    (len(xs), k_max + 1).
    """
    xi = np.sqrt(freq) * np.asarray(xs, dtype=float)
    out = np.empty((xi.size, k_max + 1))
    log_scale = None
    for k, (_, cur, scale) in enumerate(_hermite_functions(xi, k_max)):
        if scale is not log_scale:      # a new scale only every 16 steps
            log_scale, factor = scale, freq**0.25 * np.exp(scale)
        out[:, k] = cur * factor
    return out


def _hermite_functions(t: np.ndarray, k: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Hermite functions psi_{n-1}(t) and psi_n(t) for n = 0..k, as mantissas.

    psi_n(t) = H_n(t) exp(-t^2/2) / sqrt(2^n n! sqrt(pi)).  Yields (prev,
    cur, log_scale) with psi = mantissa * exp(log_scale); the Gaussian and
    the growth of the recurrence live in log_scale, a new array every 16
    steps, so nothing under- or overflows at the outermost nodes.
    """
    prev, cur = np.zeros_like(t), np.ones_like(t)
    log_scale = -0.5 * t**2 - 0.25 * math.log(math.pi)
    yield prev, cur, log_scale
    for n in range(k):
        prev, cur = cur, math.sqrt(2.0 / (n + 1)) * t * cur - math.sqrt(n / (n + 1.0)) * prev
        if n % 16 == 15:
            s = np.abs(prev) + np.abs(cur)
            prev, cur, log_scale = prev / s, cur / s, log_scale + np.log(s)
        yield prev, cur, log_scale


@lru_cache(maxsize=16)
def _gauss_hermite(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss-Hermite nodes t and scaled weights W = w exp(t^2).

    Nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
    Comp. 23, 221 (1969)), polished by one Newton step on psi_k; the weights
    are W = 1 / (k psi_{k-1}(t)^2).  The plain weights w underflow to zero
    beyond |t| ~ 27, where strong-coupling states still have weight.
    Cached by k, so the atom-axis rule (k = 2N + 1) is built once per N; the
    arrays are shared by every caller and therefore read-only.
    """
    t = eigh_tridiagonal(np.zeros(k), np.sqrt(np.arange(1, k) / 2.0), eigvals_only=True)
    prev, cur, _ = deque(_hermite_functions(t, k), maxlen=1).pop()
    t = t - cur / (math.sqrt(2.0 * k) * prev - t * cur)
    prev, _, log_scale = deque(_hermite_functions(t, k), maxlen=1).pop()
    weights = np.exp(-2.0 * (np.log(np.abs(prev)) + log_scale)) / k
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def inverse_participation_ratio(state: GroundState, basis: BasisIndex,
                                params: ModelParams) -> float:
    """Unnormalized coordinate-space IPR, integral of Psi^4 over the plane.

    Psi(x, y) has the field oscillator (omega) along x and the atomic-
    excitation boson n_b = m + j (omega0) along y.  Along an axis of
    frequency f with top level k, Psi^4 is a polynomial of degree 4k in
    t = sqrt(2 f) x times exp(-t^2).  A K-node Gauss-Hermite rule is exact to
    degree 2K - 1, so the tensor rule with 2 n_max + 1 (field) and 2 N + 1
    (atoms) nodes is exact up to rounding.
    """
    def axis(k_top: int, freq: float) -> np.ndarray:
        t, weights = _gauss_hermite(2 * k_top + 1)
        return weights[:, None] ** 0.25 * oscillator_eigenfunctions(
            t / math.sqrt(2.0 * freq), k_top, freq)

    psi = (axis(basis.n_max, params.omega) @ basis.reshape(state.amplitudes)
           @ axis(basis.n_atoms, params.omega0).T)
    # squared twice in place: psi**4 runs a per-element pow, and takes 48
    # against 6 ms on a 1057 x 513 grid (2-core Intel Xeon VM)
    psi *= psi
    psi *= psi
    return float(np.sum(psi) / (2.0 * math.sqrt(params.omega * params.omega0)))
