"""Exact thermodynamic-limit solutions for both coupling phases.

Bosonizing the collective spin (j -> infinity) reduces the model to two
coupled oscillators; a symplectic rotation by gamma diagonalizes the
quadratic form with excitation energies eps_-, eps_+.  Integrating the
field coordinate out of the Gaussian ground state leaves a one-mode
Gaussian reduced state, equivalent to a thermal oscillator at an effective
temperature, from which every entanglement quantifier follows in closed
form.  In the superradiant phase the displaced single-lobe solution is
used; the finite-N positive-parity ground state is an equal mixture of the
two orthogonal lobes, adding exactly one bit of entropy.

Critical-point divergences are returned as explicit float infinities,
never as overflow.

A coupling grid (params.coupling a 1-d array, see make_params) is evaluated
in one call, giving arrays (or records of arrays), one entry per coupling; a
float coupling runs the same code on one entry and gives Python floats.  A
mask picks each coupling's phase, and each branch (normal, superradiant,
pure, critical, theta > 45) runs on its own entries only.  Grid values are
bit for bit those of one coupling at a time: + - * / and sqrt run in NumPy
in the formulas' order, correctly rounded like Python floats, and every
power and transcendental function is the math module's, mapped over the
entries (_libm), since NumPy's own differ from libm in the last bit for up
to a fifth of inputs; at 1e-9 from lambda_c one ulp of mu^2 moves Q by 3e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PhaseError
from .model import ModelParams

LN2 = math.log(2.0)
# omega0^2/mu^2 below this squares to a finite float, with 1e-15 to spare
_W0_EFF2_MAX = math.sqrt(np.finfo(float).max) * (1.0 - 1e-15)


def _libm(fn, *args) -> np.ndarray:
    """fn entry by entry over 1-d arrays by the math library; floats repeat."""
    size = next(a.size for a in args if isinstance(a, np.ndarray))
    values = (a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args)
    return np.fromiter(map(fn, *values), float, size)


def _entries(*values) -> tuple[list[np.ndarray], bool]:
    """values as 1-d float arrays, and whether they are single floats."""
    return [np.asarray(v, dtype=float).reshape(-1) for v in values], np.ndim(values[0]) == 0


def _result(values: np.ndarray, scalar: bool):
    """A Python float for a single coupling, else the array itself."""
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class PhaseSolution:
    """Excitation energies and rotation angle of one coupling phase.

    phase is "normal" (coupling <= lambda_c) or "superradiant" (the single
    displaced-lobe solution, coupling >= lambda_c).  mu = (lambda_c /
    lambda)^2 above lambda_c and 1 in the normal phase, so the mean-field
    displacements per unit j, alpha = (2 lambda/omega)^2 (1-mu)/2 and
    beta_disp = 1 - mu, vanish there and omega_tilde = omega0 (1 + mu) /
    (2 mu) reads omega0.  c and s are cos(gamma) and sin(gamma).  Over a
    coupling grid every field but omega and omega0 is an array, phase
    holding each coupling's phase.
    """

    phase: str
    omega: float
    omega0: float
    coupling: float
    eps_minus: float
    eps_plus: float
    gamma: float
    mu: float
    c: float
    s: float

    @property
    def alpha(self) -> float:
        (x, mu), scalar = _entries(2.0 * self.coupling / self.omega, self.mu)
        return _result(_libm(pow, x, 2) * (1.0 - mu) / 2.0, scalar)

    @property
    def beta_disp(self) -> float:
        return 1.0 - self.mu

    @property
    def omega_tilde(self) -> float:
        return self.omega0 * (1.0 + self.mu) / (2.0 * self.mu)


def _normal(w, w0, lc, lam):
    """(eps-, eps+, gamma(1), mu) at the normal-phase couplings lam."""
    root = np.sqrt((w0**2 - w**2) ** 2 + 16.0 * _libm(pow, lam, 2) * w * w0)
    ep = np.sqrt(0.5 * (w0**2 + w**2 + root))
    em2 = 8.0 * w * w0 * (lc - lam) * (lc + lam) / (w0**2 + w**2 + root)
    em = np.sqrt(np.maximum(em2, 0.0))
    gamma1 = 0.5 * _libm(math.atan2, 4.0 * lam * math.sqrt(w * w0), w0**2 - w**2)
    return em, ep, gamma1, np.ones(lam.shape)


def _superradiant(w, w0, lc, lam):
    """(eps-, eps+, gamma(2), mu) at the superradiant couplings lam."""
    mu = _libm(pow, lc / lam, 2)
    mu2 = _libm(pow, mu, 2)
    # omega0^2/mu^2 and its square are finite up to 3.4e38 lambda_c (omega = omega0 = 1)
    if not (mu2 > w0**2 / _W0_EFF2_MAX).all():
        raise ParameterError(f"(lambda_c/lambda)^4 underflows against omega0^2 at "
                             f"coupling {lam.max()}, beyond the closed forms' range")
    w0_eff2 = w0**2 / mu2
    root = np.sqrt(_libm(pow, w0_eff2 - w**2, 2) + 4.0 * w**2 * w0**2)
    ep = np.sqrt(0.5 * (w0_eff2 + w**2 + root))
    em2 = 2.0 * w**2 * w0**2 * (1.0 - mu) * (1.0 + mu) / (mu2 * (w0_eff2 + w**2 + root))
    em = np.sqrt(np.maximum(em2, 0.0))
    gamma2 = 0.5 * _libm(math.atan2, 2.0 * w * w0 * mu2, w0**2 - mu2 * w**2)
    return em, ep, gamma2, mu


def _solve(params: ModelParams, phase: str | None) -> PhaseSolution:
    """Each coupling's solution in phase, or (None) in the phase containing it."""
    (lam,), scalar = _entries(params.coupling)
    w, w0, lc = params.omega, params.omega0, params.lambda_c
    outside = {"normal": lam > lc, "superradiant": lam < lc}.get(phase)
    if outside is not None and outside.any():
        raise PhaseError(f"{phase} phase excludes coupling {lam[outside][0]} (lambda_c {lc})")
    normal = lam <= lc if phase is None else np.full(lam.shape, phase == "normal")
    columns = np.empty((4, lam.size))
    for mask, kernel in ((normal, _normal), (~normal, _superradiant)):
        try:
            columns[:, mask] = kernel(w, w0, lc, lam[mask])
        except OverflowError as exc:
            # a float power beyond the largest float (frequencies above about
            # 1e77): outside the closed forms' range, not a bug
            raise ParameterError(f"the {kernel.__name__[1:]} phase solution overflows at "
                                 f"omega={w}, omega0={w0}, beyond the closed forms' "
                                 f"range") from exc
    names = np.where(normal, "normal", "superradiant")
    columns = (*columns, _libm(math.cos, columns[2]), _libm(math.sin, columns[2]))
    return PhaseSolution(names.item() if scalar else names, w, w0, params.coupling,
                         *(_result(column, scalar) for column in columns))


def normal_solution(params: ModelParams) -> PhaseSolution:
    """Normal-phase energies eps_-+ and rotation angle gamma(1).

    eps_+-^2 = (omega0^2 + omega^2 +- sqrt((omega0^2-omega^2)^2
               + 16 lambda^2 omega omega0)) / 2,
    tan(2 gamma(1)) = 4 lambda sqrt(omega omega0) / (omega0^2 - omega^2).
    The eps_-^2 branch is evaluated cancellation-free so that it vanishes
    exactly at lambda = lambda_c and stays non-negative below it.
    """
    return _solve(params, "normal")


def sr_solution(params: ModelParams) -> PhaseSolution:
    """Superradiant-phase energies, angle gamma(2), and displacements.

    With mu = lambda_c^2/lambda^2:
    eps_+-^2 = (omega0^2/mu^2 + omega^2 +- sqrt((omega0^2/mu^2 - omega^2)^2
               + 4 omega^2 omega0^2)) / 2,
    tan(2 gamma(2)) = 2 omega omega0 mu^2 / (omega0^2 - mu^2 omega^2).
    At lambda = lambda_c everything reduces to the normal-phase values.
    """
    return _solve(params, "superradiant")


def phase_solution(params: ModelParams) -> PhaseSolution:
    """The solution of the phase containing each coupling (normal at lambda_c)."""
    return _solve(params, None)


@dataclass(frozen=True)
class GaussianRDMParams:
    """Coefficients of the one-mode Gaussian reduced state.

    In the rescaled coordinate the kernel is
        rho(y, y') = norm * exp(-a (y^2 + y'^2) + b y y'),
    with a = (2 eps- eps+ + D)/(4 kappa^2 A), b = D/(2 kappa^2 A),
    A = eps- c^2 + eps+ s^2 and D = (eps- - eps+)^2 c^2 s^2.  kappa is the
    squeezing rescale fixed by the thermal correspondence m = 1,
    Omega = omega; it vanishes at the critical point (divergent state).
    Over a coupling grid every field but omega is an array.
    """

    eps_minus: float
    eps_plus: float
    c: float
    s: float
    d_coeff: float
    kappa: float
    omega: float


def rdm_params(solution: PhaseSolution) -> GaussianRDMParams:
    """Gaussian reduced-state coefficients for a phase solution.

    The superradiant input must be the single-lobe solution; the two-lobe
    finite-N state is its equal orthogonal mixture and is handled by the
    entropy/purity rules downstream.  kappa^2 solves the thermal match
    sinh(theta) * D / (2 kappa^2 A) = omega, which reduces to the stable
    form kappa^2 = sqrt(eps- eps+ B / A) / omega (B = eps- s^2 + eps+ c^2)
    and remains finite in the pure limit D -> 0.
    """
    (em, ep, c, s), scalar = _entries(solution.eps_minus, solution.eps_plus,
                                      solution.c, solution.s)
    c2, s2 = _libm(pow, c, 2), _libm(pow, s, 2)
    d_coeff = _libm(pow, em - ep, 2) * c2 * s2
    A = em * c2 + ep * s2
    B = em * s2 + ep * c2
    # A underflows to 0 for a frequency near 1e-300, and kappa is then nan
    # (0/0), which a sweep writes as a failure row, not a cell
    with np.errstate(invalid="ignore"):
        kappa = np.sqrt(np.sqrt(em * ep * B / A) / solution.omega)
    return GaussianRDMParams(*(_result(v, scalar) for v in (em, ep, c, s, d_coeff, kappa)),
                             omega=solution.omega)


def mixing_parameter(rdmp: GaussianRDMParams) -> float:
    """theta = beta * Omega from cosh(theta) = 1 + 2 eps- eps+ / D.

    Infinite for a pure state (D = 0), zero at the critical point.
    """
    (em, ep, d), scalar = _entries(rdmp.eps_minus, rdmp.eps_plus, rdmp.d_coeff)
    theta = np.where(d == 0.0, math.inf, 0.0)
    mixed = (d != 0.0) & (em != 0.0)
    # a subnormal D overflows the ratio to inf, and theta is inf as in floats
    with np.errstate(over="ignore"):
        theta[mixed] = _libm(math.acosh, 1.0 + 2.0 * em[mixed] * ep[mixed] / d[mixed])
    return _result(theta, scalar)


def _temperature(omega: float, theta: np.ndarray) -> np.ndarray:
    """T = Omega / theta: infinite at theta = 0, zero for a pure state."""
    return np.divide(omega, theta, out=np.full(theta.shape, math.inf), where=theta != 0.0)


def effective_temperature(rdmp: GaussianRDMParams) -> float:
    """Effective temperature T = Omega / theta of the equivalent thermal
    oscillator (m = 1, Omega = omega, k_B = 1); diverges at the critical point."""
    (theta,), scalar = _entries(mixing_parameter(rdmp))
    return _result(_temperature(rdmp.omega, theta), scalar)


def thermal_entropy_bits(theta: float) -> float:
    """Oscillator entropy [theta/2 coth(theta/2) - ln(2 sinh(theta/2))]/ln 2."""
    (theta,), scalar = _entries(theta)
    bits = np.where(theta <= 0.0, math.inf, 0.0)
    # 0 beyond theta = 45 (and for a pure state, theta = inf)
    mixed = ~(theta <= 0.0) & ~(theta > 45.0)
    t = theta[mixed]
    bits[mixed] = (t / _libm(math.expm1, t)
                   - _libm(math.log, -_libm(math.expm1, -t))) / LN2
    return _result(bits, scalar)


class ClosedForms(NamedTuple):
    """Every thermodynamic-limit measure at one coupling (fields as in
    sweeps), or one array per measure over a coupling grid."""

    s_vn: float
    l_lin: float
    q_avg: float
    ipr_inv: float
    t_eff: float
    kappa: float
    jz_mean: float


def closed_forms(params: ModelParams, two_lobe: bool = True) -> ClosedForms:
    """All closed-form measures from one phase solution and one reduced state.

    s_vn is entropy_td, l_lin linear_entropy_td, q_avg q_td and ipr_inv
    ipr_td; t_eff is the effective temperature and kappa the squeezing
    rescale of the reduced state; jz_mean = <Jz>/N = -mu/2 above lambda_c
    and -1/2 below it.  The scalar functions read their field from here.
    A coupling grid gives one array per measure from one pass over the
    grid, equal bit for bit to the floats of its couplings one at a time.
    """
    sol = phase_solution(params)
    rdmp = rdm_params(sol)
    (lam, mu, em, ep, d, kappa, theta), scalar = _entries(
        params.coupling, sol.mu, rdmp.eps_minus, rdmp.eps_plus, rdmp.d_coeff,
        rdmp.kappa, mixing_parameter(rdmp))
    normal = lam <= params.lambda_c
    emep = em * ep
    # Tr rho^2 of one lobe, sqrt(eps- eps+ / (eps- eps+ + D)), 1 where that is 0/0
    purity = np.sqrt(np.divide(emep, emep + d, out=np.ones(lam.shape), where=emep + d > 0))
    s_vn = thermal_entropy_bits(theta)
    s_vn[lam == params.lambda_c] = math.inf
    if two_lobe:
        s_vn[~normal] += 1.0
    # the superradiant state is an equal mixture of two orthogonal lobes;
    # mu = 1 in the normal phase, where Q is 0 and <Jz>/N is -1/2
    lobes = np.where(normal, 1.0, 0.5)
    return ClosedForms(*(_result(v, scalar) for v in (
        s_vn, 1.0 - lobes * purity, 1.0 - _libm(pow, mu, 2),
        lobes * np.sqrt(emep) / (2.0 * math.pi), _temperature(rdmp.omega, theta),
        kappa, -0.5 * mu)))


def entropy_td(params: ModelParams, two_lobe: bool = True) -> float:
    """Thermodynamic-limit von Neumann entropy in bits.

    Normal phase: thermal entropy at the effective temperature.  Superradiant
    phase: single-lobe thermal entropy, plus one bit by default for the
    positive-parity two-lobe state of the large-but-finite-N ground state
    (two_lobe=False gives the broken-symmetry single-lobe value, which falls
    to zero at strong coupling).  Exactly at lambda_c the entropy diverges
    and float('inf') is returned.
    """
    return closed_forms(params, two_lobe).s_vn


def critical_asymptote(params: ModelParams, coupling: float,
                       two_lobe: bool = True) -> float:
    """Leading near-critical entropy, affine in log2|lambda_c - lambda|.

    S = [1 - ln Theta]/ln 2 with Theta = 2 sqrt(eps- eps+ / D) evaluated at
    the critical values eps+^2 = omega0^2 + omega^2,
    D = omega^2 omega0^2/(omega0^2 + omega^2), and the leading gap
    eps-^2 = 8 lambda_c omega omega0 |delta| / (omega0^2 + omega^2) below
    (twice that above) the transition.  Slope against log2|delta| is exactly
    -1/4.  Valid only inside |delta|/lambda_c < 0.01.
    """
    w, w0, lc = params.omega, params.omega0, params.lambda_c
    delta = lc - coupling
    if delta == 0.0:
        return math.inf
    if abs(delta) / lc >= 0.01:
        raise ParameterError(
            f"asymptote valid for |lambda - lambda_c|/lambda_c < 0.01, "
            f"got {abs(delta) / lc}")
    ssum = w0**2 + w**2
    em2 = 8.0 * lc * w * w0 * abs(delta) / ssum
    if delta < 0:
        em2 *= 2.0
    d_crit = w**2 * w0**2 / ssum
    theta = 2.0 * math.sqrt(math.sqrt(em2) * math.sqrt(ssum) / d_crit)
    s_bits = (1.0 - math.log(theta)) / LN2
    if delta < 0 and two_lobe:
        s_bits += 1.0
    return s_bits


def linear_entropy_td(params: ModelParams) -> float:
    """Thermodynamic-limit linear entropy (eta -> 1).

    Normal phase: 1 - Tr rho^2 (on resonance 1 - 2 sqrt(eps- eps+)
    / (eps- + eps+)).  Superradiant phase: the two orthogonal lobes give
    1 - Tr rho_1^2 / 2, tending to 1/2 at strong coupling.  Equals 1 at the
    critical point from both sides.
    """
    return closed_forms(params).l_lin


def ipr_td(params: ModelParams) -> float:
    """Closed-form inverse participation ratio sqrt(eps- eps+)/(2 pi).

    The superradiant two-lobe state halves the single-lobe value.  Vanishes
    at the critical point (massive delocalization) as (eps- eps+)^(1/2): eps-
    closes like |1 - lambda/lambda_c|^(1/2) while eps+ stays finite, so on the
    normal side P^-1 goes as |1 - lambda/lambda_c|^(1/4).  On resonance
    P^-1 = (delta (2 - delta))^(1/4)/(2 pi) with delta = 1 - lambda/lambda_c.
    """
    return closed_forms(params).ipr_inv


def q_td(params: ModelParams) -> float:
    """Thermodynamic-limit subsystem-averaged linear entropy.

    Zero throughout the normal phase; 1 - mu^2 with mu = lambda_c^2/lambda^2
    above it.  Continuous at lambda_c with a derivative jump to 4/lambda_c.
    """
    return closed_forms(params).q_avg


def q_td_derivative(params: ModelParams) -> float:
    """dQ/dlambda in the thermodynamic limit: 4 lambda_c^4 / lambda^5 above
    the transition, zero below."""
    (lam,), scalar = _entries(params.coupling)
    lc = params.lambda_c
    above = lam > lc
    dq = np.zeros(lam.shape)
    dq[above] = 4.0 * lc**4 / _libm(pow, lam[above], 5)
    return _result(dq, scalar)
