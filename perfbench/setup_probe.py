"""Set-up probe: a fresh interpreter imports dicke_qpt and touches each engine.

One tiny certified ED solve, one IPR and one closed form, so that lazy
SciPy/ARPACK loading is paid here.  Run from the repository root; the
benchmark times the whole process.
"""

import sys

sys.path.insert(0, "src")

import dicke_qpt as dq  # noqa: E402

params = dq.make_params(omega=1.0, omega0=1.0, coupling=0.6, n_atoms=4)
state = dq.converge_cutoff(params)
ipr = dq.inverse_participation_ratio(state, state.basis, params)
entropy = dq.entropy_td(params)
if not (state.converged and ipr > 0 and entropy > 0):
    raise SystemExit("set-up probe produced an invalid result")
