"""Reference implementations that tests compare the package against.

full_hamiltonian is the CSR assembler of the Hamiltonian over both parity
sectors that the package used before it assembled only the positive-parity
block; parity_operator is the diagonal parity operator on the same basis.
closed_forms_math and perturbative_entropy_math are the scalar closed forms
the package evaluated one coupling at a time, with Python floats and the
math module only; kernel_coefficients gives the position-space kernel of a
closed-form reduced state, and strong_coupling_state (built from coherent_amplitudes and
jx_extremal_amplitudes) the limiting ground state far above lambda_c.
meyer_wallach_Q_generic evaluates Q on an explicit qubit register;
parity_indices and with_coupling are small helpers for building test inputs.
table_of and rows_of convert between row dicts and the sweep's column
table, and canonical_key is the canonical row order that run_sweep builds.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from dicke_qpt import IntegrityError, ParameterError, PhaseError, make_params
from dicke_qpt.sweep import COLUMNS, KNOWN_BACKENDS


def table_of(rows) -> dict:
    """The sweep table of row dicts keyed by column name; absent values are None."""
    return {name: [row.get(name) for row in rows] for name in COLUMNS}


def rows_of(table: dict) -> list[dict]:
    """The rows of a sweep table, as {column: value} dicts."""
    return [dict(zip(table, values)) for values in zip(*table.values())]


def canonical_key(row: dict) -> tuple:
    """Canonical row order: backends in KNOWN_BACKENDS order, then atom
    numbers (None first) and couplings ascending."""
    n_key = -1.0 if row["n_atoms"] is None else float(row["n_atoms"])
    return (KNOWN_BACKENDS.index(row["backend"]), n_key, row["lambda"])


def parity_indices(basis, sector: int = +1) -> np.ndarray:
    """Positions of one parity sector's states in the n-major flat order."""
    return np.flatnonzero(basis.parity == sector)


def with_coupling(params, coupling):
    """params at another coupling, validated by make_params."""
    return make_params(params.omega, params.omega0, coupling, params.n_atoms)


def full_hamiltonian(params, basis) -> sp.csr_matrix:
    """Assemble the sparse real-symmetric Hamiltonian on the whole basis.

    Diagonal: omega * n + omega0 * m.  Off-diagonal: the coupling term
    connects (n, m) to (n +- 1, m +- 1) in all four sign combinations with
    element (coupling / sqrt(2j)) * sqrt(n'+1 or n') * sqrt(j(j+1) - m(m+-1)),
    which never mixes parity sectors.
    """
    N = params.n_atoms
    j = params.j
    n_max = basis.n_max
    dim = basis.dim

    n = np.arange(n_max + 1)
    n_b = np.arange(N + 1)
    m = n_b - j

    diag = (params.omega * n[:, None] + params.omega0 * m[None, :]).ravel()
    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    vals = [diag]

    raise_m = np.sqrt(j * (j + 1) - m * (m + 1))   # m -> m + 1
    lower_m = np.sqrt(j * (j + 1) - m * (m - 1))   # m -> m - 1
    nn = np.arange(n_max)[:, None]                  # lower Fock level n
    field = params.coupling / math.sqrt(2.0 * j) * np.sqrt(nn + 1.0)
    for dnb, spin in ((+1, raise_m), (-1, lower_m)):
        ok = (n_b + dnb >= 0) & (n_b + dnb <= N)
        lo = (nn * (N + 1) + n_b[ok]).ravel()
        hi = lo + (N + 1 + dnb)
        v = (field * spin[ok]).ravel()
        rows += [lo, hi]
        cols += [hi, lo]
        vals += [v, v]

    H = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    H.sum_duplicates()
    H.sort_indices()
    return H


def parity_operator(basis) -> sp.csr_matrix:
    """Diagonal parity operator, eigenvalues (-1)^(n + m + j)."""
    return sp.diags(basis.parity.ravel().astype(float), format="csr")


def parity_block(params, basis) -> sp.csr_matrix:
    """The positive-parity block of full_hamiltonian, sliced out of it."""
    idx = parity_indices(basis, +1)
    return full_hamiltonian(params, basis)[idx][:, idx]


def closed_forms_math(omega, omega0, coupling, two_lobe=True) -> dict:
    """Every closed-form measure at one coupling, in Python floats by math.

    The package's formulas in its order of operations, so the package must
    match these values bit for bit, at one coupling and over a grid.
    """
    w, w0, lam = omega, omega0, coupling
    lc = math.sqrt(w * w0) / 2.0
    if lam <= lc:
        mu = 1.0
        root = math.sqrt((w0**2 - w**2) ** 2 + 16.0 * lam**2 * w * w0)
        ep = math.sqrt(0.5 * (w0**2 + w**2 + root))
        em2 = 8.0 * w * w0 * (lc - lam) * (lc + lam) / (w0**2 + w**2 + root)
        gamma = 0.5 * math.atan2(4.0 * lam * math.sqrt(w * w0), w0**2 - w**2)
    else:
        mu = (lc / lam) ** 2
        w0_eff2 = w0**2 / mu**2
        root = math.sqrt((w0_eff2 - w**2) ** 2 + 4.0 * w**2 * w0**2)
        ep = math.sqrt(0.5 * (w0_eff2 + w**2 + root))
        em2 = (2.0 * w**2 * w0**2 * (1.0 - mu) * (1.0 + mu)
               / (mu**2 * (w0_eff2 + w**2 + root)))
        gamma = 0.5 * math.atan2(2.0 * w * w0 * mu**2, w0**2 - mu**2 * w**2)
    em = math.sqrt(max(em2, 0.0))
    c, s = math.cos(gamma), math.sin(gamma)
    d = (em - ep) ** 2 * c**2 * s**2
    A = em * c**2 + ep * s**2
    B = em * s**2 + ep * c**2
    kappa = math.sqrt(math.sqrt(em * ep * B / A) / w)
    if d == 0.0:
        theta = math.inf
    elif em == 0.0:
        theta = 0.0
    else:
        theta = math.acosh(1.0 + 2.0 * em * ep / d)
    if theta <= 0.0 or lam == lc:
        s_vn = math.inf
    elif theta > 45.0:
        s_vn = 0.0
    else:
        s_vn = (theta / math.expm1(theta) - math.log(-math.expm1(-theta))) / math.log(2.0)
    purity = math.sqrt(em * ep / (em * ep + d)) if (em * ep + d) > 0 else 1.0
    if lam <= lc:
        l_lin, lobes = 1.0 - purity, 1.0
    else:
        if two_lobe:
            s_vn += 1.0
        l_lin, lobes = 1.0 - 0.5 * purity, 0.5
    return {"s_vn": s_vn, "l_lin": l_lin, "q_avg": 1.0 - mu**2,
            "ipr_inv": lobes * math.sqrt(em * ep) / (2.0 * math.pi),
            "t_eff": w / theta if theta else math.inf, "kappa": kappa,
            "jz_mean": -0.5 * mu}


def perturbative_entropy_math(omega, omega0, coupling) -> float:
    """The weak-coupling entropy at one coupling, in Python floats by math."""
    sigma = coupling / (omega + omega0)
    p = 1.0 / (1.0 + sigma**2)
    q = 1.0 - p
    return 0.0 if q == 0.0 else -p * math.log2(p) - q * math.log2(q)

def kernel_coefficients(rdmp) -> tuple[float, float, float]:
    """(norm, a, b) of the position-space kernel of rdmp (thermo.GaussianRDMParams).

    The kernel is norm * exp(-a (y^2 + y'^2) + b y y'); it is undefined at
    lambda_c.
    """
    if rdmp.eps_minus == 0.0:
        raise PhaseError("Gaussian RDM diverges at the critical point")
    A = rdmp.eps_minus * rdmp.c**2 + rdmp.eps_plus * rdmp.s**2
    k2 = rdmp.kappa**2
    norm = math.sqrt(rdmp.eps_minus * rdmp.eps_plus / (math.pi * A)) / rdmp.kappa
    a = (2.0 * rdmp.eps_minus * rdmp.eps_plus + rdmp.d_coeff) / (4.0 * k2 * A)
    b = rdmp.d_coeff / (2.0 * k2 * A)
    if 2.0 * a <= b:
        raise IntegrityError("Gaussian kernel is not normalizable")
    return norm, a, b


def coherent_amplitudes(alpha: float, n_max: int) -> np.ndarray:
    """Fock amplitudes of |alpha>.

    The largest amplitude, at n0 = floor(alpha^2) (or n_max if smaller), comes
    from lgamma; the rest follow by c_{n+1} = c_n |alpha| / sqrt(n + 1) and
    c_{n-1} = c_n sqrt(n) / |alpha|, whose factors are all at most 1, so
    nothing overflows.  Rounding grows with the distance from n0, plus one
    factor common to all amplitudes from the cancelling terms of log c_n0
    (max relative error 5e-15 at alpha = 16, 2e-13 at alpha = 27).
    """
    n = np.arange(n_max + 1)
    if alpha == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    a = abs(alpha)
    n0 = min(math.floor(a * a), n_max)
    peak = math.exp(-a * a / 2.0 + n0 * math.log(a) - 0.5 * math.lgamma(n0 + 1))
    up = np.cumprod(np.concatenate(([peak], a / np.sqrt(n[n0 + 1:]))))
    down = np.cumprod(np.concatenate(([peak], np.sqrt(n[n0:0:-1]) / a)))
    return np.concatenate((down[:0:-1], up)) * np.sign(alpha) ** n


def jx_extremal_amplitudes(n_atoms: int, sign: int) -> np.ndarray:
    """|j, m_x = sign * j> in the Jz basis: every atom polarized along +-x.

    Amplitude on |j, m> is 2^-j sqrt(C(N, j+m)), with alternating signs
    (-1)^(j - m) for the -x eigenstate.
    """
    j = n_atoms / 2.0
    n_up = np.arange(n_atoms + 1)
    log_binom = (math.lgamma(n_atoms + 1)
                 - np.array([math.lgamma(k + 1) + math.lgamma(n_atoms - k + 1) for k in n_up]))
    amps = np.exp(0.5 * log_binom - j * math.log(2.0))
    if sign < 0:
        amps = amps * (-1.0) ** (n_atoms - n_up)
    return amps


def strong_coupling_state(params: ModelParams, basis: BasisIndex) -> np.ndarray:
    """Limiting ground amplitude matrix in the truncated basis, for overlap tests.

    (|+alpha, -j_x> + |-alpha, +j_x>)/sqrt(2) with alpha = sqrt(2j)
    * coupling / omega: a coherent field paired with the opposite-sign J_x
    eigenstate of the atoms.  Normalized after truncation.
    """
    alpha = math.sqrt(2.0 * params.j) * params.coupling / params.omega
    branch_plus = np.outer(coherent_amplitudes(alpha, basis.n_max),
                           jx_extremal_amplitudes(basis.n_atoms, -1))
    branch_minus = np.outer(coherent_amplitudes(-alpha, basis.n_max),
                            jx_extremal_amplitudes(basis.n_atoms, +1))
    psi = (branch_plus + branch_minus) / math.sqrt(2.0)
    return psi / np.linalg.norm(psi)


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
