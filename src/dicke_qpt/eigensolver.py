"""Ground-state extraction and boson-cutoff convergence certification.

The ground eigenpair is taken from the positive-parity sector (the finite-N
ground state has positive parity).  Blocks of up to DENSE_LIMIT states are
diagonalized densely; larger ones by implicitly restarted Lanczos (ARPACK
eigsh, Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), which
computes only the lowest eigenpair.  DENSE_LIMIT is the measured crossover:
median timings of dense eigh against eigsh on parity blocks of the Dicke
Hamiltonian (N = 4..16, lambda/lambda_c = 0.5..2; 2-core Intel Xeon VM, 2
BLAS threads) were 1.0 vs 2.1 ms at 95 states, 2.1 vs 2.2 ms at 140, 2.2
vs 1.9 ms at 145, 3.9 vs 2.2 ms at 196 and 15 vs 3.3 ms at 349.

A standalone solve starts Lanczos from a fixed vector, so repeated runs are
bit-identical.  During cutoff escalation each solve instead starts from the
previous cutoff's ground vector, zero-padded: the basis is n-major, so the
smaller basis is a prefix of the larger one and the padded vector is already
close to the new ground state.

Inside a continuation() block (run_sweep opens one per N), the first solve
of each converge_cutoff call starts from the ground state that the previous
call in the block accepted, truncated or zero-padded to the first cutoff's
basis (lambda-continuation).  On the benchmark's large_n sweep (N = 128 and
256, lambda/lambda_c = 0.5..2 in 7 steps) this cut the first Lanczos solve of
a continued point from 131-441 to 81-331 matvecs, and all Lanczos matvecs by
24 %.  A point's digits then depend on the point before it, within the
solver tolerance; the acceptance rule is unchanged, and the same sweep still
gives the same bytes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (CapacityError, CutoffConvergenceError, ParameterError,
                     SolverError)
from .model import (DEFAULT_MAX_DIMENSION, BasisIndex, ModelParams,
                    assemble_hamiltonian, build_basis)

DENSE_LIMIT = 140
DEFAULT_TOL = 1e-10
DEFAULT_ENERGY_TOL = 1e-9
DEFAULT_GROWTH = 1.5
TOP_WEIGHT_LIMIT = 1e-8


@dataclass(frozen=True)
class GroundState:
    """Ground eigenpair over a BasisIndex.

    amplitudes is the full-basis real vector (unit norm, deterministic sign:
    the largest-magnitude amplitude is positive), supported on the positive-
    parity sector.  converged marks cutoff certification by converge_cutoff,
    not the eigensolve itself; residual is ||Hv - Ev||_2.  The cutoff is
    basis.n_max.
    """

    energy: float
    amplitudes: np.ndarray
    residual: float
    converged: bool
    basis: BasisIndex

    def reshape(self) -> np.ndarray:
        return self.basis.reshape(self.amplitudes)

    def top_fock_weight(self) -> float:
        return float((self.reshape()[-1] ** 2).sum())


# Full-basis Lanczos start vector for the ground_state call that
# converge_cutoff makes inside _started_from; unset everywhere else.
_START: ContextVar[np.ndarray | None] = ContextVar("dicke_qpt_lanczos_start",
                                                   default=None)


@contextmanager
def _started_from(amplitudes: np.ndarray | None, basis: BasisIndex):
    """Start the ground_state solve made inside the block from amplitudes.

    amplitudes is a ground vector at the same N and another cutoff.  The
    basis is n-major, so the smaller basis is a prefix of the larger one:
    truncating or zero-padding at the end gives the state in basis.  With
    amplitudes None the solve keeps the fixed start vector.
    """
    start = None
    if amplitudes is not None:
        start = np.zeros(basis.dim)
        size = min(basis.dim, amplitudes.size)
        start[:size] = amplitudes[:size]
    token = _START.set(start)
    try:
        yield
    finally:
        _START.reset(token)


class Continuation:
    """The ground amplitudes last accepted inside a continuation() block."""

    __slots__ = ("amplitudes",)

    def __init__(self) -> None:
        self.amplitudes: np.ndarray | None = None

    def reset(self) -> None:
        """Start the next converge_cutoff call of the block from the fixed vector."""
        self.amplitudes = None


# The Continuation of the innermost continuation() block; None outside one.
_CARRY: ContextVar[Continuation | None] = ContextVar("dicke_qpt_continuation",
                                                     default=None)


@contextmanager
def continuation():
    """Chain the converge_cutoff calls made inside the block.

    Each call's first solve starts from the ground state that the previous
    call accepted (see _started_from), so every call in one block must be at
    the same N.  Yields the Continuation; its reset() makes the next call
    start cold.  Outside a block converge_cutoff keeps the fixed start.
    """
    carry = Continuation()
    token = _CARRY.set(carry)
    try:
        yield carry
    finally:
        _CARRY.reset(token)


def _lowest_eigenpair(H: sp.spmatrix, tol: float,
                      v0: np.ndarray | None) -> tuple[float, np.ndarray]:
    dim = H.shape[0]
    if dim <= DENSE_LIMIT:
        w, v = np.linalg.eigh(H.toarray())
        return float(w[0]), v[:, 0]
    if v0 is None:
        # deterministic start vector keeps repeated runs bit-identical
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        v0[0] += 0.5
    w, v = spla.eigsh(H, k=1, which="SA", v0=v0, tol=tol * 1e-2,
                      maxiter=max(5000, 40 * dim))
    return float(w[0]), v[:, 0]


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    if vec[np.argmax(np.abs(vec))] < 0:
        return -vec
    return vec


def ground_state(hamiltonian: sp.spmatrix, basis: BasisIndex,
                 tol: float = DEFAULT_TOL) -> GroundState:
    """Certified lowest eigenpair of the positive-parity block of the Hamiltonian.

    Raises SolverError (carrying the best residual) if the residual check
    ||Hv - Ev|| <= tol * |E| cannot be met.
    """
    idx = basis.parity_indices(+1)
    start = _START.get()
    energy, vec = _lowest_eigenpair(hamiltonian[idx][:, idx], tol,
                                    None if start is None else start[idx])
    amplitudes = np.zeros(basis.dim)
    amplitudes[idx] = vec
    amplitudes = _fix_sign(amplitudes / np.linalg.norm(amplitudes))
    residual = float(np.linalg.norm(hamiltonian @ amplitudes - energy * amplitudes))
    threshold = tol * (abs(energy) if energy != 0 else 1.0)
    if residual > threshold:
        raise SolverError(
            f"residual {residual:.3e} above tolerance {threshold:.3e} "
            f"(dim={basis.dim})", residual=residual)
    return GroundState(energy=energy, amplitudes=amplitudes, residual=residual,
                       converged=False, basis=basis)


def suggest_cutoff(params: ModelParams, floor: int = 8) -> int:
    """Starting cutoff from the coherent-displacement estimate.

    The field displacement amplitude is of order sqrt(2j) * coupling / omega;
    covering its Poisson tail needs n_max >= alpha^2 + 6 * alpha.
    """
    alpha = math.sqrt(2.0 * params.j) * params.coupling / params.omega
    return max(floor, math.ceil(alpha**2 + 6.0 * alpha))


def converge_cutoff(params: ModelParams,
                    n_max_start: int | None = None,
                    growth: float = DEFAULT_GROWTH,
                    energy_tol: float = DEFAULT_ENERGY_TOL,
                    tol: float = DEFAULT_TOL,
                    max_dim: int = DEFAULT_MAX_DIMENSION) -> GroundState:
    """Escalate n_max until the ground energy and Fock tail are certified.

    Convergence requires successive ground energies to agree within
    energy_tol and the weight on the top Fock layer to stay below 1e-8.
    Each solve after the first starts Lanczos from the previous ground
    vector, zero-padded to the new cutoff.  The first solve keeps the fixed
    start vector, except inside a continuation() block.
    Returns the final GroundState with converged=True; its basis.n_max is the
    accepted cutoff.
    Raises CutoffConvergenceError (with the observed energy sequence) if the
    dimension ceiling is hit first.
    """
    if not 1.0 < growth < math.inf:
        raise ParameterError(f"growth must be a finite number above 1, got {growth}")
    n_max = n_max_start if n_max_start is not None else suggest_cutoff(params)
    carry = _CARRY.get()
    start = None if carry is None else carry.amplitudes
    history: list[float] = []
    while True:
        try:
            basis = build_basis(params, n_max, max_dim=max_dim)
        except CapacityError as exc:
            raise CutoffConvergenceError(
                f"cutoff escalation hit capacity before convergence: {exc}",
                energy_history=history) from exc
        H = assemble_hamiltonian(params, basis)
        with _started_from(start, basis):
            state = ground_state(H, basis, tol=tol)
        history.append(state.energy)
        # decoupled limit: the ground state is exact at any cutoff
        settled = params.coupling == 0.0 or (
            len(history) > 1 and abs(history[-1] - history[-2]) < energy_tol)
        if settled and state.top_fock_weight() < TOP_WEIGHT_LIMIT:
            if carry is not None:
                carry.amplitudes = state.amplitudes
            return replace(state, converged=True)
        start = state.amplitudes
        n_max = max(n_max + 2, math.ceil(n_max * growth))

