"""Ground-state extraction and boson-cutoff convergence certification.

The ground eigenpair is taken from the positive-parity sector (the finite-N
ground state has positive parity).  model.assemble_hamiltonian assembles
that block alone, stored by its diagonals: 5 for even N and 7 for odd N.
Every block is diagonalized by two-pass Lanczos, except a block whose
off-diagonals are all zero (coupling 0): its ground state is the basis
vector of its smallest diagonal entry, exact to the bit, with residual 0.
The first pass runs the three-term recurrence without reorthogonalization
and watches the lowest Ritz pair of the tridiagonal matrix; the second pass
regenerates the same Lanczos vectors and sums the Ritz vector, so a large
solve holds three vectors and one scratch vector, not one per step.  Where
all the vectors fit in 8 MB the first pass keeps them instead and the
second pass needs no matvec.  For an extremal eigenvalue plain Lanczos
needs neither reorthogonalization nor restarts: in floating point the
Lanczos vectors lose orthogonality only as a Ritz pair converges, and the
residual estimate of that pair stays valid (C. C. Paige, Linear Algebra
Appl. 34, 235 (1980)).  ground_state's residual check, taken on the block,
certifies the result either way.

One cold solve at N = 256, lambda = 2 lambda_c, n_max 352 (45,361 states)
takes 2 x 340 Lanczos steps: 0.29 s, or 0.43 ms a step against a
0.17-0.18 ms matvec on the diagonal block, after 3.8 ms of assembly (2-core
Intel Xeon VM).  The rest of a step is vector work on a preallocated
scratch vector, 13-25 us per pass over the 45k entries, and the LAPACK
bisection and inverse iteration of the Ritz check (dstebz and dstein, about
50 us at k = 100) every _RITZ_EVERY steps.  On the 200-5,000-state blocks
of most sweep solves a step is instead dominated by per-call overhead, so
there the vector work goes through BLAS level-1 calls, the cheapest to
call, up to the size where OpenBLAS starts threading them (_vector_ops):
replaying the 477 ground solves of one paper_datasets pass, the sum of
per-solve best times fell from 0.71 to 0.48 s.

Small blocks go to Lanczos too.  Replaying the 140 coupled solves of at
most 140 states from one paper_datasets pass (sum of per-solve best times
of 21, same VM) took 73-86 ms, against 56 ms for LAPACK's banded solver
(dsbevx), or 2-5 % of a 0.6-0.8 s pass; in alternated benchmark runs
the pass's median wall time stayed within its run-to-run spread.  So one
solver serves every block size.

A solve without a start vector starts Lanczos from a fixed vector, so
repeated runs are bit-identical.  ground_state's keyword start replaces it by
the amplitude matrix of a ground state at the same N and any cutoff, its
Fock rows truncated or zero-padded: a smaller cutoff's matrix is the top
rows of a larger one's, so the resized matrix is already close to the new
ground state.  During cutoff escalation each solve after the first starts
from the previous cutoff's ground state, and converge_cutoff's start, if
given, starts the first.

run_sweep passes each ED point the ground state that the previous point at
the same N accepted (lambda-continuation).  On the benchmark's large_n
sweep (N = 128 and 256, lambda/lambda_c = 0.5..2 in 7 steps) this cuts the
first Lanczos solve of a continued point from 120-350 to 80-260 steps, and
all Lanczos matvecs by 27 %.  A point's digits then depend on the point
before it, within the solver tolerance; the acceptance rule is unchanged,
and the same sweep still gives the same bytes.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot
from scipy.linalg.lapack import dstebz, dstein

from .errors import (CapacityError, CutoffConvergenceError, ParameterError,
                     SolverError)
from .model import (DEFAULT_MAX_DIMENSION, BasisIndex, ModelParams,
                    assemble_hamiltonian, build_basis)

DEFAULT_TOL = 1e-10
DEFAULT_ENERGY_TOL = 1e-9
DEFAULT_GROWTH = 1.5
TOP_WEIGHT_LIMIT = 1e-8
# the smallest starting cutoff suggest_cutoff returns
_CUTOFF_FLOOR = 8
# Lanczos steps between two solves of the tridiagonal eigenproblem, and the
# most steps one solve may take before it raises SolverError (benchmark and
# validation solves took at most 350)
_RITZ_EVERY = 10
LANCZOS_MAX_STEPS = 2000
# the first pass keeps its Lanczos vectors while steps x dim stays within
# this many floats (8 MB); past it the second pass regenerates them
_KEEP_FLOATS = 1_000_000
# Lanczos vector operations go through BLAS on blocks of up to this many
# states, through NumPy on larger ones (see _vector_ops)
_BLAS_MAX = 10_000


@dataclass(frozen=True)
class GroundState:
    """Ground eigenpair over a BasisIndex.

    amplitudes is the real (n_max + 1, N + 1) matrix psi(n, n_b) (unit norm,
    deterministic sign: the largest-magnitude amplitude is positive), zero
    where basis.parity is -1.  converged marks cutoff certification by
    converge_cutoff, not the eigensolve itself; residual is ||Hv - Ev||_2.
    The cutoff is basis.n_max.
    """

    energy: float
    amplitudes: np.ndarray
    residual: float
    converged: bool
    basis: BasisIndex

    def top_fock_weight(self) -> float:
        return float((self.amplitudes[-1] ** 2).sum())


def _einsum_dot(x: np.ndarray, y: np.ndarray) -> float:
    return np.einsum("i,i", x, y)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm through einsum (see _vector_ops on BLAS)."""
    return math.sqrt(_einsum_dot(x, x))


def _vector_ops(size: int) -> tuple[Callable, Callable]:
    """dot(x, y) and axpy(x, y, a=a), which adds a x to y in place, for size entries.

    Up to _BLAS_MAX entries both are BLAS level-1 calls (ddot, daxpy) from
    scipy.linalg.blas: at 200-4,600 entries ddot costs 0.3-1.3 us against
    0.7-2.1 us for np.dot and 2.2-4.3 us for einsum, and daxpy 0.4-1.7 us
    against 1.4-4.9 us for a NumPy multiply and add.  OpenBLAS threads
    level-1 calls above 10,000 entries, and in the Lanczos loop np.dot made
    solves at 19k and 45k states 20-40 % slower (waking its threads), so
    larger vectors take einsum and a product into a scratch vector.  The
    rule depends on the size alone: both passes of a solve take the same
    one and give the same bits.
    """
    if size <= _BLAS_MAX:
        return ddot, daxpy
    scratch = np.empty(size)

    def axpy(x: np.ndarray, y: np.ndarray, a: float) -> np.ndarray:
        y += np.multiply(a, x, out=scratch)
        return y

    return _einsum_dot, axpy


def _lanczos_vectors(H: sp.spmatrix,
                     q: np.ndarray) -> Iterator[tuple[np.ndarray, float, float]]:
    """Yield (q_k, alpha_k, beta_k) of the Lanczos recurrence from unit q.

    beta_k q_{k+1} = H q_k - alpha_k q_k - beta_{k-1} q_{k-1}, without
    reorthogonalization; stops after beta_k = 0 (an invariant subspace).
    Only q_{k-1}, q_k and w are held, and a second run from the same q
    yields the same vectors bit for bit.  Each matvec returns a fresh array,
    which becomes q_{k+1}; the dot products and the updates of w are
    _vector_ops calls, so a step makes no other temporary.
    """
    dot, axpy = _vector_ops(q.size)
    q_prev, beta = np.zeros_like(q), 0.0
    while True:
        w = axpy(q_prev, H @ q, a=-beta)
        alpha = float(dot(q, w))
        w = axpy(q, w, a=-alpha)
        beta = math.sqrt(dot(w, w))
        yield q, alpha, beta
        if beta == 0.0:
            return
        # a product by 1 / beta takes a third of the time of a division
        w *= 1.0 / beta
        q_prev, q = q, w


def _lowest_ritz_pair(alphas: list[float],
                      betas: list[float]) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (theta, y) of the k x k Lanczos tridiagonal T_k.

    Bisection (dstebz) for the eigenvalue and inverse iteration (dstein) for
    its vector: the LAPACK calls eigh_tridiagonal(select="i") makes, with
    the same bits, without its argument checks (51 against 83 us at
    k = 100).  A nonzero LAPACK info raises SolverError.
    """
    d = np.array(alphas)
    if d.size == 1:
        # dstebz rejects k = 1
        return float(d[0]), np.ones(1)
    e = np.array(betas[:-1])
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, "B")
    if info == 0:
        z, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise SolverError(f"LAPACK tridiagonal eigensolver failed at k={d.size} "
                          f"(info {info})")
    return float(w[0]), z[:, 0]


def _lanczos(H: sp.spmatrix, v0: np.ndarray, tol: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H by two-pass Lanczos.

    The first pass runs the recurrence and every _RITZ_EVERY steps takes the
    lowest Ritz pair (theta, y) of the tridiagonal T_k; it stops when
    beta_k |y_k| <= tol |theta|, ARPACK's test.  The Ritz vector is
    x = sum_i y_i q_i.  While the Lanczos vectors fit in _KEEP_FLOATS the
    first pass keeps them (each is a fresh array, so keeping copies
    nothing); otherwise a second pass regenerates them.  The vectors are the
    same bits either way, so x is too.
    """
    q = v0 / _norm(v0)
    alphas, betas, kept = [], [], []
    for k, (q_k, alpha, beta) in enumerate(_lanczos_vectors(H, q), 1):
        alphas.append(alpha)
        betas.append(beta)
        if kept is not None and k * q.size <= _KEEP_FLOATS:
            kept.append(q_k)
        else:
            kept = None
        if beta != 0.0 and k % _RITZ_EVERY and k < LANCZOS_MAX_STEPS:
            continue
        theta, y = _lowest_ritz_pair(alphas, betas)
        bound = beta * abs(float(y[-1]))
        if bound <= tol * abs(theta):
            break
        if k >= LANCZOS_MAX_STEPS:
            raise SolverError(f"Lanczos not converged in {k} steps, residual "
                              f"estimate {bound:.3e} (dim={H.shape[0]})",
                              residual=bound)
    if kept is None:
        kept = (q_i for q_i, _, _ in _lanczos_vectors(H, q))
    x = np.zeros_like(q)
    _, axpy = _vector_ops(q.size)
    # y first: zip then stops before the generator takes another step
    for y_i, q_i in zip(y.tolist(), kept):
        x = axpy(q_i, x, a=y_i)
    return theta, x


def _lowest_eigenpair(H: sp.dia_matrix, tol: float,
                      v0: np.ndarray | None) -> tuple[float, np.ndarray]:
    dim = H.shape[0]
    if not H.data[H.offsets != 0].any():
        # decoupled: H is diagonal, and its ground state a basis vector
        diagonal = H.diagonal()
        i = int(np.argmin(diagonal))
        vec = np.zeros(dim)
        vec[i] = 1.0
        return float(diagonal[i]), vec
    if v0 is None:
        # deterministic start vector keeps repeated runs bit-identical
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        v0[0] += 0.5
    return _lanczos(H, v0, tol * 1e-2)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    if vec[np.argmax(np.abs(vec))] < 0:
        return -vec
    return vec


def ground_state(hamiltonian: sp.dia_matrix, basis: BasisIndex,
                 tol: float = DEFAULT_TOL, *,
                 start: np.ndarray | None = None) -> GroundState:
    """Certified lowest eigenpair of the positive-parity block of the Hamiltonian.

    hamiltonian is the block on basis, as assemble_hamiltonian returns it.
    start, if given, is an amplitude matrix at the same N and any cutoff
    (GroundState.amplitudes); Lanczos starts from it, its Fock rows cut or
    zero-padded to basis, instead of the fixed vector.  A start without
    N + 1 columns, not finite, or without weight on the +1 sector raises
    ParameterError.
    The residual ||Hv - Ev|| is taken on the block.  It equals the residual
    over the whole basis: the amplitudes vanish on the -1 sector, and H
    never mixes the two sectors.
    Raises SolverError (carrying the best residual) if the residual check
    ||Hv - Ev|| <= tol * |E| cannot be met, or if Lanczos does not converge
    within LANCZOS_MAX_STEPS steps.
    """
    plus = basis.parity == +1
    v0 = None
    if start is not None:
        if start.ndim != 2 or start.shape[1] != basis.n_atoms + 1:
            raise ParameterError(f"start {start.shape} is not an N={basis.n_atoms} state")
        padded = np.zeros(plus.shape)
        padded[:start.shape[0]] = start[:basis.n_max + 1]
        v0 = padded[plus]
        if not (np.isfinite(start).all() and 0.0 < _norm(v0) < math.inf):
            raise ParameterError("start must be finite and have weight on the "
                                 "positive-parity block")
    energy, vec = _lowest_eigenpair(hamiltonian, tol, v0)
    vec = _fix_sign(vec / _norm(vec))
    residual = _norm(hamiltonian @ vec - energy * vec)
    threshold = tol * (abs(energy) if energy != 0 else 1.0)
    if residual > threshold:
        raise SolverError(
            f"residual {residual:.3e} above tolerance {threshold:.3e} "
            f"(dim={basis.dim})", residual=residual)
    amplitudes = np.zeros(plus.shape)
    amplitudes[plus] = vec
    return GroundState(energy=energy, amplitudes=amplitudes, residual=residual,
                       converged=False, basis=basis)


def suggest_cutoff(params: ModelParams) -> int:
    """Starting cutoff from the coherent-displacement estimate.

    The field displacement amplitude is of order sqrt(2j) * coupling / omega;
    covering its Poisson tail needs n_max >= alpha^2 + 6 * alpha, and the
    cutoff is never below _CUTOFF_FLOOR.
    """
    alpha = math.sqrt(2.0 * params.j) * params.coupling / params.omega
    return max(_CUTOFF_FLOOR, math.ceil(alpha**2 + 6.0 * alpha))


def converge_cutoff(params: ModelParams,
                    n_max_start: int | None = None,
                    growth: float = DEFAULT_GROWTH,
                    energy_tol: float = DEFAULT_ENERGY_TOL,
                    tol: float = DEFAULT_TOL,
                    max_dim: int = DEFAULT_MAX_DIMENSION, *,
                    start: np.ndarray | None = None) -> GroundState:
    """Escalate n_max until the ground energy and Fock tail are certified.

    Convergence requires successive ground energies to agree within
    energy_tol and the weight on the top Fock layer to stay below 1e-8.
    The first solve starts from start, an amplitude matrix at the same N
    (see ground_state), or from the fixed vector if it is None; run_sweep
    passes the previous point's.  Each later solve starts Lanczos from the
    previous cutoff's amplitudes, zero-padded to the new cutoff.
    Returns the final GroundState with converged=True; its basis.n_max is the
    accepted cutoff.
    Raises CutoffConvergenceError (with the observed energy sequence) if the
    dimension ceiling is hit first.
    """
    if not 1.0 < growth < math.inf:
        raise ParameterError(f"growth must be a finite number above 1, got {growth}")
    n_max = n_max_start if n_max_start is not None else suggest_cutoff(params)
    history: list[float] = []
    while True:
        try:
            basis = build_basis(params, n_max, max_dim=max_dim)
        except CapacityError as exc:
            raise CutoffConvergenceError(
                f"cutoff escalation hit capacity before convergence: {exc}",
                energy_history=history) from exc
        H = assemble_hamiltonian(params, basis)
        state = ground_state(H, basis, tol=tol, start=start)
        history.append(state.energy)
        # decoupled limit: the ground state is exact at any cutoff
        settled = params.coupling == 0.0 or (
            len(history) > 1 and abs(history[-1] - history[-2]) < energy_tol)
        if settled and state.top_fock_weight() < TOP_WEIGHT_LIMIT:
            return replace(state, converged=True)
        start = state.amplitudes
        n_max = max(n_max + 2, math.ceil(n_max * growth))

