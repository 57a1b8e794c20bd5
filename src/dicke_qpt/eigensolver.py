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
def _started_from(prev: GroundState | None, basis: BasisIndex):
    """Start the ground_state solve made inside the block from prev.

    prev's basis is a prefix of basis (n-major order), so zero-padding its
    amplitudes at the end gives the same state in the larger basis.  With
    prev None the solve keeps the fixed start vector.
    """
    start = None
    if prev is not None:
        start = np.zeros(basis.dim)
        start[:prev.basis.dim] = prev.amplitudes
    token = _START.set(start)
    try:
        yield
    finally:
        _START.reset(token)


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
    vector, zero-padded to the new cutoff.
    Returns the final GroundState with converged=True; its basis.n_max is the
    accepted cutoff.
    Raises CutoffConvergenceError (with the observed energy sequence) if the
    dimension ceiling is hit first.
    """
    if not 1.0 < growth < math.inf:
        raise ParameterError(f"growth must be a finite number above 1, got {growth}")
    n_max = n_max_start if n_max_start is not None else suggest_cutoff(params)
    history: list[float] = []
    prev: GroundState | None = None
    while True:
        try:
            basis = build_basis(params, n_max, max_dim=max_dim)
        except CapacityError as exc:
            raise CutoffConvergenceError(
                f"cutoff escalation hit capacity before convergence: {exc}",
                energy_history=history) from exc
        H = assemble_hamiltonian(params, basis)
        with _started_from(prev, basis):
            state = ground_state(H, basis, tol=tol)
        history.append(state.energy)
        tail_ok = state.top_fock_weight() < TOP_WEIGHT_LIMIT
        if params.coupling == 0.0 and tail_ok:
            # decoupled limit: the ground state is exact at any cutoff
            return replace(state, converged=True)
        if prev is not None and tail_ok and abs(state.energy - prev.energy) < energy_tol:
            return replace(state, converged=True)
        prev = state
        n_max = max(n_max + 2, math.ceil(n_max * growth))

