"""Ground-state extraction and boson-cutoff convergence certification.

The ground eigenpair is taken from the positive-parity sector (the finite-N
ground state has positive parity).  model.assemble_hamiltonian assembles
that block alone, stored by its diagonals: 5 for even N and 7 for odd N.
Every block is diagonalized by two-pass Lanczos, except a block whose
off-diagonals are all zero (coupling 0): its ground state is the basis
vector of its smallest diagonal entry, exact to the bit, with residual 0.
The first pass runs the three-term recurrence without reorthogonalization,
watches the lowest Ritz pair of the tridiagonal matrix, and keeps its
Lanczos vectors while they fit in 8 MB.  The second pass sums the Ritz
vector over the kept vectors, then resumes the recurrence from the last two
of them with the recorded coefficients: it regenerates the other vectors
bit for bit, one matvec and no dot product each, so a solve past the budget
holds three vectors beyond the kept ones, not one per step.  For an
extremal eigenvalue plain Lanczos needs neither reorthogonalization nor
restarts: in floating point the Lanczos vectors lose orthogonality only as
a Ritz pair converges, and the residual estimate of that pair stays valid
(C. C. Paige, Linear Algebra Appl. 34, 235 (1980)).  ground_state's
residual check, taken on the block, certifies the result either way.

One cold solve at N = 256, lambda = 2 lambda_c, n_max 352 (45,361 states)
takes 340 Lanczos steps in the first pass and, with 22 vectors kept, 318 in
the second: 0.15-0.16 s, or 0.24 ms a step against a 0.13-0.15 ms matvec on
the diagonal block, after 3 ms of assembly (2-core Intel Xeon VM).  The
vector work of a step, two dot products and two axpys over five chunks
(_vector_ops), takes 40-49 us, against 95-115 us for an einsum dot and a
NumPy axpy; the rest is the LAPACK bisection and inverse iteration of the
Ritz check (dstebz and dstein, about 50 us at k = 100) every _RITZ_EVERY
steps, and the second pass's sum of the Ritz vector.  On the 200-5,000-state
blocks of most sweep solves a step is dominated by per-call overhead, and
BLAS level-1 calls are the cheapest to make: replaying the 477 ground
solves of one paper_datasets pass, the sum of per-solve best times was
0.48 s with them against 0.71 s with NumPy.

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

A started solve runs on the start's support, and is certified on the whole
block.  The ground state sits in a part of the (n, n_b) grid: above
lambda_c a parity-projected coherent state, in about sqrt(N) Dicke columns
and alpha^2 +- O(alpha) Fock layers, below it in the low columns.  So on a
block of at least _WINDOW_MIN_DIM states, Lanczos runs on the principal
sub-block of a window: the Fock layers from the start's first layer above
_SUPPORT_LEVEL of its largest amplitude up to the cutoff, always, and the
Dicke columns where it has such weight, widened by _WINDOW_MARGIN and
aligned so that the window block has the 5 diagonals of an even-N block.
Its entries are sliced from the block's (_window_block).  The solution,
zero outside the window, then passes the whole-block residual check
||Hv - Ev|| <= tol |E| as any solve does, and the residual outside the
window, its leak, must stay within _LEAK_FRACTION tol |E|.  A solution that
leaks more doubles the margin and takes the window of its own support,
and is solved again from there, until a window stops leaking or is the
whole block.  The doubling margin covers the block within about
log2(max(N, n_max) / _WINDOW_MARGIN) growths, so the chain ends.  On the
large_n sweep 27 of 29 solves start on a window and every one of them ends
on a window; most of the 17 growths re-solve in 10-30 steps, the accepted
windows hold 11-92 % of their block, and the Lanczos work (block size x
steps) falls from 114.7 to 65.7 million row operations per pass.

So ground_state is one solve loop, in which the whole block is simply the
window None: each pass takes the block or its window, solves it by one
Lanczos call (or reads a decoupled block off its diagonal), scatters the
solution into the block, and takes the whole-block residual and the leak.
Its one exit is a leak within _LEAK_FRACTION tol |E|, which the whole block
meets by construction, since it has no rows outside.  A cold solve, a
decoupled block, a block below _WINDOW_MIN_DIM, and a start whose window is
the whole block all leave after one pass on the whole block.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot
from scipy.linalg.lapack import dstebz, dstein

from .errors import (CapacityError, CutoffConvergenceError, ParameterError,
                     SolverError)
from .model import (DEFAULT_MAX_DIMENSION, BasisIndex, ModelParams, _layer_pair,
                    assemble_hamiltonian, build_basis)

DEFAULT_TOL = 1e-10
DEFAULT_ENERGY_TOL = 1e-9
TOP_WEIGHT_LIMIT = 1e-8
# the smallest starting cutoff suggest_cutoff returns, and the factor each
# escalation step grows the cutoff by (by at least 2)
_CUTOFF_FLOOR = 8
_CUTOFF_GROWTH = 1.5
# Lanczos steps between two solves of the tridiagonal eigenproblem, and the
# most steps one solve may take before it raises SolverError (benchmark and
# validation solves took at most 350)
_RITZ_EVERY = 10
LANCZOS_MAX_STEPS = 2000
# the first pass keeps its Lanczos vectors while steps x dim stays within
# this many floats (8 MB); past it the second pass regenerates them
_KEEP_FLOATS = 1_000_000
# every Lanczos vector operation is a BLAS ddot or daxpy call per chunk of
# at most this many entries, on blocks of any size (see _vector_ops)
_BLAS_MAX = 10_000
# a solve from a start on a block of at least _WINDOW_MIN_DIM states runs on
# a window of the block around the start's support: the amplitudes above
# _SUPPORT_LEVEL times the largest (see ground_state); on smaller blocks a
# Lanczos step costs mostly per-call overhead, which a window does not cut
_WINDOW_MIN_DIM = 2000
_SUPPORT_LEVEL = 1e-12
# Fock layers below, and Dicke columns on each side of, the support that a
# window adds; each growth doubles it
_WINDOW_MARGIN = 8
# a window is accepted when the residual outside it, its leak, is at most
# this times tol |E|: a tenth of Lanczos's own stopping target
_LEAK_FRACTION = 1e-3


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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm through einsum, which never threads (see _vector_ops)."""
    return math.sqrt(np.einsum("i,i", x, x))


def _vector_ops(size: int) -> tuple[Callable, Callable]:
    """dot(x, y) and axpy(x, y, a=a), which adds a x to y in place, for size entries.

    Both are BLAS level-1 calls from scipy.linalg.blas, ddot and daxpy, one
    per chunk of at most _BLAS_MAX entries; the wrappers' n and offset
    arguments address each chunk, so no slice is copied, and dot sums the
    chunk partials from left to right.  At 200-4,600 entries ddot costs
    0.3-1.3 us against 0.7-2.1 us for np.dot and 2.2-4.3 us for einsum, and
    daxpy 0.4-1.7 us against 1.4-4.9 us for a NumPy multiply and add.
    OpenBLAS threads a level-1 call only above 10,000 entries: unchunked,
    ddot and daxpy made the large_n sweep twice as slow (waking its
    threads), and their bits depended on the BLAS thread count.  Chunked,
    the bits depend on the size alone, so both passes of a solve, and any
    thread count, give the same ones.
    """
    chunks = [(offset, min(_BLAS_MAX, size - offset))
              for offset in range(0, size, _BLAS_MAX)]
    (_, first), *rest = chunks

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        # the first partial starts the sum: one chunk gives ddot's own bits
        total = ddot(x, y, first)
        for offset, n in rest:
            total += ddot(x, y, n, offset, 1, offset, 1)
        return total

    def axpy(x: np.ndarray, y: np.ndarray, a: float) -> np.ndarray:
        for offset, n in chunks:
            daxpy(x, y, n, a, offset, 1, offset, 1)
        return y

    return dot, axpy


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

    The first pass runs the recurrence from q_1 = v0 / |v0|,
    beta_k q_{k+1} = H q_k - alpha_k q_k - beta_{k-1} q_{k-1}, without
    reorthogonalization, and at beta_k = 0 (an invariant subspace), every
    _RITZ_EVERY steps and at LANCZOS_MAX_STEPS takes the lowest Ritz pair
    (theta, y) of the tridiagonal T_k; it stops when
    beta_k |y_k| <= tol |theta|, ARPACK's test, or at beta_k = 0.  Only q_{k-1}, q_k and w are
    held: each matvec returns a fresh array, which becomes q_{k+1}, and the
    dot products and the updates of w are _vector_ops calls, so a step makes
    no other temporary.  The pass keeps q_1, ..., q_m while
    m dim <= _KEEP_FLOATS (keeping copies nothing), and q_1, the start, in
    any case.

    The Ritz vector is x = sum_i y_i q_i.  The second pass sums the kept
    vectors, then resumes the recurrence from q_{m-1} and q_m with the
    recorded alpha and beta to regenerate the k - m others: the same bits,
    one matvec and no dot product each.
    """
    dot, axpy = _vector_ops(v0.size)
    q = v0 / _norm(v0)
    q_prev, beta = np.zeros_like(q), 0.0
    keep = max(1, _KEEP_FLOATS // q.size)
    alphas, betas, kept = [], [], []
    for k in range(1, LANCZOS_MAX_STEPS + 1):
        if k <= keep:
            kept.append(q)
        w = axpy(q_prev, H @ q, a=-beta)
        alpha = dot(q, w)
        w = axpy(q, w, a=-alpha)
        beta = math.sqrt(dot(w, w))
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or k % _RITZ_EVERY == 0 or k == LANCZOS_MAX_STEPS:
            theta, y = _lowest_ritz_pair(alphas, betas)
            bound = beta * abs(float(y[-1]))
            # at beta_k = 0 the Ritz pair is exact, and no q_{k+1} exists
            if bound <= tol * abs(theta) or beta == 0.0:
                break
        # a product by 1 / beta takes a third of the time of a division
        w *= 1.0 / beta
        q_prev, q = q, w
    else:
        raise SolverError(f"Lanczos not converged in {k} steps, residual "
                          f"estimate {bound:.3e} (dim={H.shape[0]})",
                          residual=bound)
    m = len(kept)
    y = y.tolist()
    x = np.zeros_like(q)
    for y_i, q_i in zip(y, kept):
        x = axpy(q_i, x, a=y_i)
    q_prev, beta = (kept[-2], betas[m - 2]) if m > 1 else (np.zeros_like(q), 0.0)
    q = kept[-1]
    for alpha, beta_next, y_i in zip(alphas[m - 1:], betas[m - 1:], y[m:]):
        w = axpy(q, axpy(q_prev, H @ q, a=-beta), a=-alpha)
        w *= 1.0 / beta_next
        q_prev, q, beta = q, w, beta_next
        x = axpy(q, x, a=y_i)
    return theta, x


def _window(amplitudes: np.ndarray, margin: int) -> tuple[int, int, int] | None:
    """The window (n_lo, b_lo, b_hi) around the support of an amplitude matrix.

    The support is where |psi| exceeds _SUPPORT_LEVEL times its largest
    entry.  The window holds Fock layers n_lo ... n_max, always up to the
    cutoff, whose top layers escalation reads, and Dicke columns
    b_lo ... b_hi: the support's first layer, first and last column, widened
    by margin and aligned (n_lo and b_lo even, b_hi - b_lo even unless
    b_hi = N), so that the window's states in each layer pair are laid out
    as in the block at N' = b_hi - b_lo, with 5 diagonals for even N'.
    Returns None when the window is the whole block.
    """
    n_atoms = amplitudes.shape[1] - 1
    magnitude = np.abs(amplitudes)
    rows, columns = magnitude.max(axis=1), magnitude.max(axis=0)
    level = _SUPPORT_LEVEL * columns.max()
    on_columns = columns > level
    n_lo = max(0, int(np.argmax(rows > level)) - margin)
    b_lo = max(0, int(np.argmax(on_columns)) - margin)
    b_hi = min(n_atoms, n_atoms - int(np.argmax(on_columns[::-1])) + margin)
    n_lo, b_lo = n_lo - n_lo % 2, b_lo - b_lo % 2
    if (b_hi - b_lo) % 2 and b_hi < n_atoms:
        b_hi += 1
    if n_lo == b_lo == 0 and b_hi == n_atoms:
        return None
    return n_lo, b_lo, b_hi


def _window_block(H: sp.dia_matrix, basis: BasisIndex,
                  window: tuple[int, int, int]) -> tuple[sp.dia_matrix, np.ndarray]:
    """The principal sub-block of the block H on a window's states, and their rows in H.

    H is laid out in pairs of Fock layers of N + 1 states (see
    model._layer_pair): state (n, n_b) is row (n//2) (N + 1) + n_b//2 in an
    even layer, and N//2 + 1 rows further on in an odd one.  The
    window's states are laid out alike with N' = b_hi - b_lo, so its
    diagonals are those of the block at N'.  H keeps H[r + D, r] in column r
    of its diagonal -D, so entry (i + d, i) of the sub-block is read there
    wherever rows[i + d] - rows[i] is one of H's offsets D, and is zero
    elsewhere.  The entries are H's, bit for bit, and the offsets
    ascending, as in assemble_hamiltonian.
    """
    n_lo, b_lo, b_hi = window
    N = basis.n_atoms
    n, n_b = np.nonzero(basis.parity[n_lo:, b_lo:b_hi + 1] == +1)
    n, n_b = n + n_lo, n_b + b_lo
    rows = n // 2 * (N + 1) + n_b // 2 + n % 2 * (N // 2 + 1)
    dim = rows.size
    offsets = _layer_pair(b_hi - b_lo)[2]
    offsets = offsets[offsets < dim]
    lower = {-D: diagonal for D, diagonal in zip(H.offsets.tolist(), H.data) if D < 0}
    centre = offsets.size
    data = np.zeros((2 * centre + 1, dim))
    data[centre] = H.diagonal()[rows]
    for i, d in enumerate(offsets.tolist()):
        gaps = rows[d:] - rows[:-d]
        values = data[centre - 1 - i, :dim - d]
        for D, diagonal in lower.items():
            on = gaps == D
            values[on] = diagonal[rows[:-d][on]]
        data[centre + 1 + i, d:] = values
    return sp.dia_matrix((data, np.concatenate([-offsets[::-1], [0], offsets])),
                         shape=(dim, dim)), rows


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

    One loop serves every solve, with the whole block as the window None.
    A solve from a start, on a coupled block of at least _WINDOW_MIN_DIM
    states, runs Lanczos on a window of the block around the start's
    support (_window); any other solve takes the whole block.  While the
    solution leaks out of its window, the margin doubles and the solution's
    own window is solved, until a window holds or is the whole block, which
    never leaks (see the module docstring).  A decoupled block is read off
    its diagonal, without a Lanczos step.

    The residual ||Hv - Ev|| is taken on the whole block.  It equals the
    residual over the whole basis: the amplitudes vanish on the -1 sector,
    and H never mixes the two sectors.
    Raises SolverError (carrying the best residual) if the residual check
    ||Hv - Ev|| <= tol * |E| cannot be met, or if Lanczos does not converge
    within LANCZOS_MAX_STEPS steps.
    """
    dim = hamiltonian.shape[0]
    plus = basis.parity == +1
    coupled = hamiltonian.data[hamiltonian.offsets != 0].any()
    support = None
    if start is None:
        # deterministic start vector keeps repeated runs bit-identical
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        v0[0] += 0.5
    else:
        if start.ndim != 2 or start.shape[1] != basis.n_atoms + 1:
            raise ParameterError(f"start {start.shape} is not an N={basis.n_atoms} state")
        padded = np.zeros(plus.shape)
        padded[:start.shape[0]] = start[:basis.n_max + 1]
        v0 = padded[plus]
        if not (np.isfinite(start).all() and 0.0 < _norm(v0) < math.inf):
            raise ParameterError("start must be finite and have weight on the "
                                 "positive-parity block")
        if coupled and dim >= _WINDOW_MIN_DIM:
            # the start's +1 sector, whose support the first window is drawn
            # around; padded's -1 entries are not read again
            padded[~plus] = 0.0
            support = padded
    margin = _WINDOW_MARGIN
    while True:
        # window None is the whole block
        window = None if support is None else _window(support, margin)
        sub, rows = ((hamiltonian, slice(None)) if window is None
                     else _window_block(hamiltonian, basis, window))
        if coupled:
            energy, x = _lanczos(sub, v0[rows], tol * 1e-2)
        else:
            # decoupled: H is diagonal, and its ground state a basis vector
            diagonal = sub.diagonal()
            i = int(np.argmin(diagonal))
            energy, x = float(diagonal[i]), np.zeros(diagonal.size)
            x[i] = 1.0
        vec = np.zeros(dim)
        vec[rows] = x
        vec = _fix_sign(vec / _norm(vec))
        amplitudes = np.zeros(plus.shape)
        amplitudes[plus] = vec
        r = hamiltonian @ vec - energy * vec
        residual = _norm(r)
        threshold = tol * (abs(energy) if energy != 0 else 1.0)
        # the leak: the residual outside the window, zero on the whole block
        r[rows] = 0.0
        if _norm(r) <= _LEAK_FRACTION * threshold:
            break
        support, v0, margin = amplitudes, vec, 2 * margin
    if residual > threshold:
        raise SolverError(
            f"residual {residual:.3e} above tolerance {threshold:.3e} "
            f"(dim={basis.dim})", residual=residual)
    return GroundState(energy=energy, amplitudes=amplitudes, residual=residual,
                       converged=False, basis=basis)


def suggest_cutoff(params: ModelParams) -> int:
    """Starting cutoff from the coherent-displacement estimate.

    The field displacement amplitude is of order sqrt(2j) * coupling / omega;
    covering its Poisson tail needs n_max >= alpha^2 + 6 * alpha, and the
    cutoff is never below _CUTOFF_FLOOR.  An estimate past the largest float
    (alpha above about 1.3e154) is clamped to it, which stays an integer and
    exceeds any basis ceiling, so build_basis raises CapacityError.
    """
    alpha = math.sqrt(2.0 * params.j) * params.coupling / params.omega
    try:
        estimate = alpha**2 + 6.0 * alpha
    except OverflowError:
        estimate = math.inf
    return max(_CUTOFF_FLOOR, math.ceil(min(estimate, sys.float_info.max)))


def converge_cutoff(params: ModelParams,
                    energy_tol: float = DEFAULT_ENERGY_TOL,
                    tol: float = DEFAULT_TOL,
                    max_dim: int = DEFAULT_MAX_DIMENSION, *,
                    start: np.ndarray | None = None) -> GroundState:
    """Escalate n_max until the ground energy and Fock tail are certified.

    The first cutoff is suggest_cutoff(params), and each later one is
    max(n_max + 2, ceil(1.5 n_max)).  Convergence requires successive
    ground energies to agree within energy_tol and the weight on the top
    Fock layer to stay below 1e-8.
    The first solve starts from start, an amplitude matrix at the same N
    (see ground_state), or from the fixed vector if it is None; run_sweep
    passes the previous point's.  Each later solve starts Lanczos from the
    previous cutoff's amplitudes, zero-padded to the new cutoff.
    Returns the final GroundState with converged=True; its basis.n_max is the
    accepted cutoff.
    Raises CutoffConvergenceError (with the observed energy sequence) if the
    dimension ceiling is hit first.
    """
    n_max = suggest_cutoff(params)
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
        n_max = max(n_max + 2, math.ceil(n_max * _CUTOFF_GROWTH))

