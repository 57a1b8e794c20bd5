import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dicke_qpt import converge_cutoff, make_params  # noqa: E402

_STATE_CACHE = {}


@pytest.fixture(scope="session")
def ground():
    """Memoized converged ground states keyed by model parameters."""

    def solve(omega, omega0, coupling, n_atoms, **kwargs):
        key = (omega, omega0, coupling, n_atoms, tuple(sorted(kwargs.items())))
        if key not in _STATE_CACHE:
            params = make_params(omega, omega0, coupling, n_atoms)
            _STATE_CACHE[key] = converge_cutoff(params, **kwargs)
        return _STATE_CACHE[key]

    return solve


@pytest.fixture(scope="session")
def resonant_ground(ground):
    """Converged ground state at omega = omega0 = 1 (lambda_c = 1/2)."""

    def solve(coupling_ratio, n_atoms, **kwargs):
        return ground(1.0, 1.0, 0.5 * coupling_ratio, n_atoms, **kwargs)

    return solve


# Run in a fresh interpreter by fresh_interpreter: the IPR at N = 4, then
# converge_cutoff at N = 16, lambda_c, whose parity blocks reach above
# DENSE_LIMIT, so that the Lanczos solver runs.  The first line says whether
# scipy.special got loaded; the second whether the N = 16 block was above
# DENSE_LIMIT, and whether scipy.sparse.linalg got loaded.
_FRESH_WORKLOADS = """
import sys
sys.path.insert(0, {src!r})
import dicke_qpt as dq
from dicke_qpt import eigensolver as es
p = dq.make_params(1.0, 1.0, 0.6, 4)
s = dq.converge_cutoff(p)
dq.inverse_participation_ratio(s, s.basis, p)
s = dq.converge_cutoff(dq.make_params(1.0, 1.0, 0.5, 16))
print('scipy.special' in sys.modules)
print((s.basis.parity > 0).sum() > es.DENSE_LIMIT, 'scipy.sparse.linalg' in sys.modules)
"""


@pytest.fixture(scope="session")
def fresh_interpreter():
    """The finished run of _FRESH_WORKLOADS in a new Python process.

    One interpreter serves every test that checks what a fresh import loads:
    each start pays about 0.6 s of SciPy import.
    """
    code = _FRESH_WORKLOADS.format(src=str(SRC))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
