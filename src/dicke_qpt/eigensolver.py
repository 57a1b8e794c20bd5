"""Ground-state extraction and boson-cutoff convergence certification.

The ground eigenpair is taken from the positive-parity sector (the finite-N
ground state has positive parity).  model.assemble_hamiltonian assembles
that block alone, stored by its diagonals: 5 for even N and 7 for odd N.
Blocks of up to DENSE_LIMIT states are diagonalized by LAPACK's banded
solver for the lowest eigenpair only (eig_banded, dsbevx); larger ones by
two-pass Lanczos.  The first pass runs the three-term recurrence without
reorthogonalization and watches the lowest Ritz pair of the tridiagonal
matrix; the second pass regenerates the same Lanczos vectors and sums the
Ritz vector, so a large solve holds three vectors and one scratch vector,
not one per step.  Where all the vectors fit in 8 MB the first pass keeps
them instead and the second pass needs no matvec.  For an extremal
eigenvalue plain Lanczos needs neither reorthogonalization nor restarts: in
floating point the Lanczos vectors lose orthogonality only as a Ritz pair
converges, and the residual estimate of that pair stays valid (C. C. Paige,
Linear Algebra Appl. 34, 235 (1980)).  ground_state's residual check,
taken on the block, certifies the result either way.

One cold solve at N = 256, lambda = 2 lambda_c, n_max 352 (45,361 states)
takes 2 x 340 Lanczos steps: 0.29 s, or 0.43 ms a step against a
0.17-0.18 ms matvec on the diagonal block, after 3.8 ms of assembly (2-core
Intel Xeon VM).  The rest of a step is vector work on a preallocated
scratch vector, 13-25 us per pass over the 45k entries, and the LAPACK
bisection and inverse iteration of the Ritz check (dstebz and dstein, about
50 us at k = 100) every _RITZ_EVERY steps.

DENSE_LIMIT is the measured crossover.  Median timings on parity blocks of
the Dicke Hamiltonian (N = 4..16, lambda/lambda_c = 0.5..2; 2-core Intel
Xeon VM, 2 BLAS threads) of the banded solve, Lanczos from the fixed start,
and Lanczos from the padded ground vector of a 1.5x smaller cutoff (as in
escalation), with dense eigh of the same block for comparison:

    states     banded   cold Lanczos   warm Lanczos   dense eigh
    81-109     0.32     1.33           0.59           1.41 ms
    118-128    0.53     1.57           0.45           1.96 ms
    137-149    0.80     1.87           0.27           2.59 ms
    150-179    1.12     1.87           0.32           3.45 ms
    188-215    1.72     2.03           0.27           4.83 ms
    221-277    2.94     2.12           0.26           7.12 ms
    280-358    5.87     2.35           0.27           14.47 ms

Cold solves cross over near 220 states and warm ones near 110.  Most
solves of the benchmark's paper_datasets pass are warm, and its
ground_state time per pass was flat within noise for limits of 80, 110,
140, 180 and 220 (medians of 8 passes: 0.77, 0.75, 0.71, 0.71 and 0.73 s),
so 140 stays.

A solve without a start vector starts Lanczos from a fixed vector, so
repeated runs are bit-identical.  ground_state's keyword start replaces it by
a ground vector at the same N and any cutoff, truncated or zero-padded at
the end: the basis is n-major, so a smaller basis is a prefix of a larger
one, and the resized vector is already close to the new ground state.
During cutoff escalation each solve after the first starts from the
previous cutoff's ground vector, and converge_cutoff's start, if given,
starts the first.

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
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eig_banded
from scipy.linalg.lapack import dstebz, dstein

from .errors import (CapacityError, CutoffConvergenceError, ParameterError,
                     SolverError)
from .model import (DEFAULT_MAX_DIMENSION, BasisIndex, ModelParams,
                    assemble_hamiltonian, build_basis)

DENSE_LIMIT = 140
DEFAULT_TOL = 1e-10
DEFAULT_ENERGY_TOL = 1e-9
DEFAULT_GROWTH = 1.5
TOP_WEIGHT_LIMIT = 1e-8
# Lanczos steps between two solves of the tridiagonal eigenproblem, and the
# most steps one solve may take before it raises SolverError (benchmark and
# validation solves took at most 350)
_RITZ_EVERY = 10
LANCZOS_MAX_STEPS = 2000
# the first pass keeps its Lanczos vectors while steps x dim stays within
# this many floats (8 MB); past it the second pass regenerates them
_KEEP_FLOATS = 1_000_000


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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm through einsum (see _lanczos_vectors on BLAS)."""
    return math.sqrt(np.einsum("i,i", x, x))


def _lanczos_vectors(H: sp.spmatrix,
                     q: np.ndarray) -> Iterator[tuple[np.ndarray, float, float]]:
    """Yield (q_k, alpha_k, beta_k) of the Lanczos recurrence from unit q.

    beta_k q_{k+1} = H q_k - alpha_k q_k - beta_{k-1} q_{k-1}, without
    reorthogonalization; stops after beta_k = 0 (an invariant subspace).
    Only q_{k-1}, q_k and w are held, and a second run from the same q
    yields the same vectors bit for bit.  Each matvec returns a fresh array,
    which becomes q_{k+1}; the updates of w go through one preallocated
    scratch vector, so a step makes no other temporary.  The dot products go
    through einsum, not BLAS: a threaded BLAS ddot on a 45k-entry vector
    took 0.3 to 1.1 ms (waking its threads) against 0.04 ms for einsum.
    """
    q_prev, beta = np.zeros_like(q), 0.0
    scratch = np.empty_like(q)
    while True:
        w = H @ q
        w -= np.multiply(beta, q_prev, out=scratch)
        alpha = float(np.einsum("i,i", q, w))
        w -= np.multiply(alpha, q, out=scratch)
        beta = math.sqrt(np.einsum("i,i", w, w))
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
    scratch = np.empty_like(q)
    # y first: zip then stops before the generator takes another step
    for y_i, q_i in zip(y.tolist(), kept):
        x += np.multiply(y_i, q_i, out=scratch)
    return theta, x


def _banded_lowest(H: sp.dia_matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a DIA block, from its upper diagonals (LAPACK dsbevx).

    In DIA storage data[k, c] holds H[c - offsets[k], c], which is where
    LAPACK's upper band storage keeps that entry, in row width - offsets[k].
    A nonzero LAPACK info raises SolverError.
    """
    upper = H.offsets >= 0
    width = int(H.offsets.max())
    band = np.zeros((width + 1, H.shape[1]))
    band[width - H.offsets[upper]] = H.data[upper]
    try:
        w, v = eig_banded(band, select="i", select_range=(0, 0))
    except LinAlgError as exc:
        raise SolverError(f"banded eigensolver failed: {exc} "
                          f"(dim={H.shape[0]})") from exc
    return float(w[0]), v[:, 0]


def _lowest_eigenpair(H: sp.dia_matrix, tol: float,
                      v0: np.ndarray | None) -> tuple[float, np.ndarray]:
    dim = H.shape[0]
    if dim <= DENSE_LIMIT:
        return _banded_lowest(H)
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
    start, if given, is a ground vector at the same N and any cutoff
    (GroundState.amplitudes); Lanczos starts from it, truncated or
    zero-padded to basis, instead of the fixed vector.  The banded path
    ignores it.  A start that is not finite, or has no weight on the +1
    sector, raises ParameterError.
    The residual ||Hv - Ev|| is taken on the block.  It equals the residual
    over the whole basis: the amplitudes vanish on the -1 sector, and H
    never mixes the two sectors.
    Raises SolverError (carrying the best residual) if the residual check
    ||Hv - Ev|| <= tol * |E| cannot be met, or if Lanczos does not converge
    within LANCZOS_MAX_STEPS steps.
    """
    idx = basis.parity_indices(+1)
    v0 = None
    if start is not None:
        padded = np.zeros(basis.dim)
        size = min(basis.dim, start.size)
        padded[:size] = start[:size]
        v0 = padded[idx]
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
    amplitudes = np.zeros(basis.dim)
    amplitudes[idx] = vec
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
                    max_dim: int = DEFAULT_MAX_DIMENSION, *,
                    start: np.ndarray | None = None) -> GroundState:
    """Escalate n_max until the ground energy and Fock tail are certified.

    Convergence requires successive ground energies to agree within
    energy_tol and the weight on the top Fock layer to stay below 1e-8.
    The first solve starts from start (see ground_state), or from the fixed
    vector if it is None; run_sweep passes the previous point's ground
    amplitudes at the same N.  Each later solve starts Lanczos from the
    previous cutoff's ground vector, zero-padded to the new cutoff.
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

