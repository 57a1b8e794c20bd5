"""Finite-N entanglement measures from the exact ground state.

Covers the bipartite atom-field reduced density matrices and their von
Neumann / linear entropies, the single-atom reduced state built from
collective expectations, the subsystem-averaged linear entropy Q, and the
coordinate-space inverse participation ratio, integrated by a tensor
Gauss-Hermite rule that is exact for the state.  Each reads the state's
amplitude matrix psi(n, n_b) and basis (state.amplitudes, state.basis).
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


def partial_trace(state: GroundState, keep: str = "atoms") -> ReducedDensityMatrix:
    """Reduced density matrix of the atoms or the field from a pure state.

    For keep="atoms": rho[m, m'] = sum_n psi(n, m) psi(n, m'); analogous for
    the field.  On the amplitude matrix both are a single product.
    """
    A = state.amplitudes
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


def collective_expectations(state: GroundState) -> dict:
    """<Jz> and <J+> in the collective basis; <J-> = <J+> for real amplitudes."""
    A = state.amplitudes
    j = state.basis.j
    m = np.arange(state.basis.n_atoms + 1) - j
    w = A**2
    jz = float((w * m[None, :]).sum())
    raise_m = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = float((A[:, 1:] * A[:, :-1] * raise_m[None, :]).sum())
    return {"jz": jz, "jp": jp}


def single_atom_rdm(state: GroundState) -> ReducedDensityMatrix:
    """2x2 reduced state of one atom from collective expectation values.

    rho_k = [[ (1 - 2<Jz>/N)/2,  <J->/N ],
             [ <J+>/N,  (1 + 2<Jz>/N)/2 ]]
    so Tr rho_k^2 = 1/2 + 2<Jz>^2/N^2 + 2<J-><J+>/N^2.  For a parity
    eigenstate <J+-> vanish identically (they flip the parity sector).
    """
    ex = collective_expectations(state)
    N = state.basis.n_atoms
    z = 2.0 * ex["jz"] / N
    off = ex["jp"] / N
    rho = np.array([[0.5 * (1.0 - z), off], [off, 0.5 * (1.0 + z)]])
    return _make_rdm("single-atom", rho)


def average_linear_entropy_Q(state: GroundState, *,
                             _atoms_rdm: ReducedDensityMatrix | None = None) -> float:
    """Subsystem-averaged linear entropy Q = N/(N+1) L_k + 1/(N+1) L_b.

    L_k uses eta_2 = 2 on the single-atom purity; L_b uses eta = 1 + 1/N on
    the field purity (Schmidt bound N + 1).  The state is pure, so the field
    RDM A A^T and the atoms RDM A^T A share their trace and nonzero
    spectrum, hence the purity: the atoms RDM is built and checked, or the
    one the caller already holds (partial_trace of the same state) is passed
    as _atoms_rdm and used instead of a second build.
    """
    N = state.basis.n_atoms
    rho_k = single_atom_rdm(state)
    l_k = linear_entropy(rho_k, 2)
    rho_b = partial_trace(state, keep="atoms") if _atoms_rdm is None else _atoms_rdm
    l_b = linear_entropy(rho_b, N + 1)
    return float((N * l_k + l_b) / (N + 1.0))


def _rung(k_top: int) -> int:
    """The smallest rung k = ceil(16 * 1.25^i) of the table ladder with k >= k_top."""
    i = 0
    while -(-16 * 5**i // 4**i) < k_top:
        i += 1
    return -(-16 * 5**i // 4**i)


# the rung tables, shared by every IPR call.  A paper_datasets pass uses 14
# rungs and a large_n pass 10, so a second pass rebuilds none; the 16
# largest rungs, up to k = 711 (cutoffs 570-711), would hold 10.8 MB
@lru_cache(maxsize=16)
def _rung_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """W^(1/4) psi_n(t / sqrt(2)) for n <= k at the nodes t >= 0 of the (2k + 1)-node rule.

    Rows are the nodes of _gauss_hermite(k) with their scaled weights W,
    centre first; the even levels n and the odd ones are returned as two
    read-only tables, in order of n.  Each psi_n is mantissa *
    exp(log_scale), so the Gaussian does not underflow far out
    (exp(-t^2/4) is 0 beyond t ~ 54.6).
    """
    t, weights = _gauss_hermite(k)
    tables = (np.empty((t.size, k // 2 + 1)), np.empty((t.size, (k + 1) // 2)))
    log_scale = None
    for n, (_, cur, scale) in enumerate(_hermite_functions(t / math.sqrt(2.0), k)):
        if scale is not log_scale:      # a new scale only every 16 steps
            log_scale, factor = scale, np.exp(scale)
        tables[n % 2][:, n // 2] = cur * factor
    for table in tables:
        table *= weights[:, None] ** 0.25
        table.setflags(write=False)
    return tables


def _oscillator_table(k_top: int) -> tuple[np.ndarray, np.ndarray]:
    """The even- and odd-level tables of psi_0 .. psi_k_top on the rule of rung k >= k_top.

    Views of the rung tables _rung_table(k); with 2k + 1 nodes they are
    exact wherever a (2 k_top + 1)-node rule is (see
    inverse_participation_ratio).
    """
    even, odd = _rung_table(_rung(k_top))
    return even[:, :k_top // 2 + 1], odd[:, :(k_top + 1) // 2]


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


def _gauss_hermite(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t >= 0 of the (2k + 1)-node Gauss-Hermite rule and scaled weights W = w exp(t^2).

    The rule is symmetric: its other k nodes are -t[1:], with the same
    weights; t[0] is the centre node.  Nodes are the eigenvalues of the
    Jacobi matrix (Golub & Welsch, Math. Comp. 23, 221 (1969)), polished by
    one Newton step on psi_{2k+1}; the weights are W = 1 / ((2k + 1)
    psi_{2k}(t)^2).  The plain weights w underflow to zero beyond
    |t| ~ 27, where strong-coupling states still have weight.
    Not cached itself: only the rung tables built on it are (_rung_table).
    """
    size = 2 * k + 1
    t = eigh_tridiagonal(np.zeros(size), np.sqrt(np.arange(1, size) / 2.0),
                         eigvals_only=True)[k:]
    prev, cur, _ = deque(_hermite_functions(t, size), maxlen=1).pop()
    t = t - cur / (math.sqrt(2.0 * size) * prev - t * cur)
    prev, _, log_scale = deque(_hermite_functions(t, size), maxlen=1).pop()
    weights = np.exp(-2.0 * (np.log(np.abs(prev)) + log_scale)) / size
    return t, weights


def inverse_participation_ratio(state: GroundState, basis: BasisIndex,
                                params: ModelParams) -> float:
    """Unnormalized coordinate-space IPR, integral of Psi^4 over the plane.

    Psi(x, y) has the field oscillator (omega) along x and the atomic-
    excitation boson n_b = m + j (omega0) along y.  The eigenfunction of
    level k at frequency f is f^(1/4) psi_k(sqrt(f) x), so the substitution
    t = sqrt(2 f) x leaves the frequencies only in the factor
    sqrt(omega omega0) / 2, and both axes use the same table of
    psi_k(t / sqrt(2)).  Along an axis with top level k, Psi^4 is a
    polynomial of degree 4k in t times exp(-t^2).  A K-node Gauss-Hermite
    rule is exact to degree 2K - 1, so any rule with at least 2 n_max + 1
    (field) and 2 N + 1 (atoms) nodes makes the tensor rule exact up to
    rounding.  Each axis takes the rule of the rung k = ceil(16 * 1.25^i)
    at or above its top level, with 2k + 1 nodes.  The rule is symmetric
    and psi_n(-t) = (-1)^n psi_n(t), so a rung's tables hold only the nodes
    t >= 0, split by the parity of n: the products with the even levels (e)
    and with the odd levels (o) give Psi = e + o at t and e - o at -t, for
    half the arithmetic of the whole table.  A rung's tables are built once
    and shared by every cutoff and N up to it; the 16 most recently used
    rungs are kept (_rung_table).  The value moves from that of the smallest
    exact rule by rounding only.  The tables are sized from basis: one of
    another shape than the state raises ValueError.
    """
    A = state.amplitudes
    even, odd = _oscillator_table(basis.n_max)
    e, o = A[0::2].T @ even.T, A[1::2].T @ odd.T
    k = even.shape[0] - 1
    rows = np.empty((A.shape[1], 2 * k + 1))        # at x = -t[1:], then t
    np.subtract(e[:, 1:], o[:, 1:], out=rows[:, :k])
    np.add(e, o, out=rows[:, k:])
    even, odd = _oscillator_table(basis.n_atoms)
    e, o = even @ rows[0::2], odd @ rows[1::2]
    # sum of (e + o)^4 at y = t and (e - o)^4 at y = -t[1:]: (e + o)^4 +
    # (e - o)^4 = 2 (e^4 + 6 e^2 o^2 + o^4), whose terms are all positive,
    # less (e - o)^4 on the centre row t[0]
    centre = float(np.sum((e[0] - o[0]) ** 4))
    e *= e
    o *= o
    e, o = e.ravel(), o.ravel()
    total = 2.0 * (e @ e + 6.0 * (e @ o) + o @ o) - centre
    return float(math.sqrt(params.omega * params.omega0) / 2.0 * total)
