"""Weak-coupling closed-form limit for cross-validating the numerics."""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .thermo import _entries, _libm, _result


def perturbative_entropy(params: ModelParams) -> float:
    """Second-order entropy in bits: binary entropy of 1/(1 + sigma^2).

    sigma = coupling / (omega + omega0).  N-independent by construction; it
    tracks the exact entropy up to about 0.4 times the critical coupling.
    A coupling grid gives an array, bit for bit as in thermo.
    """
    (lam,), scalar = _entries(params.coupling)
    sigma = lam / (params.omega + params.omega0)
    p = 1.0 / (1.0 + _libm(pow, sigma, 2))
    q = 1.0 - p
    bits = np.zeros(lam.shape)
    mixed = q != 0.0
    p, q = p[mixed], q[mixed]
    bits[mixed] = -p * _libm(math.log2, p) - q * _libm(math.log2, q)
    return _result(bits, scalar)
