"""Weak- and strong-coupling closed-form limits for cross-validating the numerics."""

from __future__ import annotations

import math

import numpy as np

from .model import BasisIndex, ModelParams


def perturbative_entropy(params: ModelParams) -> float:
    """Second-order entropy in bits: binary entropy of 1/(1 + sigma^2).

    sigma = coupling / (omega + omega0).  N-independent by construction; it
    tracks the exact entropy up to about 0.4 times the critical coupling.
    """
    sigma = params.coupling / (params.omega + params.omega0)
    p = 1.0 / (1.0 + sigma**2)
    q = 1.0 - p
    return 0.0 if q == 0.0 else -p * math.log2(p) - q * math.log2(q)


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
    """Limiting ground state in the truncated basis, for overlap tests.

    (|+alpha, -j_x> + |-alpha, +j_x>)/sqrt(2) with alpha = sqrt(2j)
    * coupling / omega: a coherent field paired with the opposite-sign J_x
    eigenstate of the atoms.  Normalized after truncation.
    """
    alpha = math.sqrt(2.0 * params.j) * params.coupling / params.omega
    branch_plus = np.outer(coherent_amplitudes(alpha, basis.n_max),
                           jx_extremal_amplitudes(basis.n_atoms, -1))
    branch_minus = np.outer(coherent_amplitudes(-alpha, basis.n_max),
                            jx_extremal_amplitudes(basis.n_atoms, +1))
    psi = ((branch_plus + branch_minus) / math.sqrt(2.0)).ravel()
    return psi / np.linalg.norm(psi)
