"""Weak-coupling closed-form limit for cross-validating the numerics."""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .model import ModelParams
from .thermo import _entries, _libm, _result


def perturbative_entropy(params: ModelParams) -> float:
    """Second-order entropy in bits: binary entropy of 1/(1 + sigma^2).

    sigma = coupling / (omega + omega0).  N-independent by construction; it
    tracks the exact entropy up to about 0.4 times the critical coupling.
    A coupling grid gives an array, bit for bit as in thermo.  A sigma^2
    past the largest float raises ParameterError.
    """
    (lam,), scalar = _entries(params.coupling)
    sigma = lam / (params.omega + params.omega0)
    try:
        p = 1.0 / (1.0 + _libm(pow, sigma, 2))
    except OverflowError as exc:
        # sigma above about 1.3e154: outside the form's range, not a bug
        raise ParameterError(f"sigma^2 overflows at omega={params.omega}, "
                             f"omega0={params.omega0}, beyond the weak-coupling "
                             f"form's range") from exc
    q = 1.0 - p
    bits = np.zeros(lam.shape)
    mixed = q != 0.0
    p, q = p[mixed], q[mixed]
    bits[mixed] = -p * _libm(math.log2, p) - q * _libm(math.log2, q)
    return _result(bits, scalar)
