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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import IntegrityError, ParameterError, PhaseError
from .model import ModelParams

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PhaseSolution:
    """Excitation energies and rotation angle of one coupling phase.

    phase is "normal" (coupling <= lambda_c) or "superradiant" (the single
    displaced-lobe solution, coupling >= lambda_c).  mu = (lambda_c /
    lambda)^2 above lambda_c and 1 in the normal phase, so the mean-field
    displacements per unit j, alpha = (2 lambda/omega)^2 (1-mu)/2 and
    beta_disp = 1 - mu, vanish there and omega_tilde = omega0 (1 + mu) /
    (2 mu) reads omega0.
    """

    phase: str
    omega: float
    omega0: float
    coupling: float
    eps_minus: float
    eps_plus: float
    gamma: float
    mu: float

    @property
    def c(self) -> float:
        return math.cos(self.gamma)

    @property
    def s(self) -> float:
        return math.sin(self.gamma)

    @property
    def alpha(self) -> float:
        return (2.0 * self.coupling / self.omega) ** 2 * (1.0 - self.mu) / 2.0

    @property
    def beta_disp(self) -> float:
        return 1.0 - self.mu

    @property
    def omega_tilde(self) -> float:
        return self.omega0 * (1.0 + self.mu) / (2.0 * self.mu)


def normal_solution(params: ModelParams) -> PhaseSolution:
    """Normal-phase energies eps_-+ and rotation angle gamma(1).

    eps_+-^2 = (omega0^2 + omega^2 +- sqrt((omega0^2-omega^2)^2
               + 16 lambda^2 omega omega0)) / 2,
    tan(2 gamma(1)) = 4 lambda sqrt(omega omega0) / (omega0^2 - omega^2).
    The eps_-^2 branch is evaluated cancellation-free so that it vanishes
    exactly at lambda = lambda_c and stays non-negative below it.
    """
    w, w0, lam = params.omega, params.omega0, params.coupling
    lc = params.lambda_c
    if lam > lc:
        raise PhaseError(
            f"normal phase requires coupling <= lambda_c, got {lam} > {lc}")
    root = math.sqrt((w0**2 - w**2) ** 2 + 16.0 * lam**2 * w * w0)
    ep = math.sqrt(0.5 * (w0**2 + w**2 + root))
    em2 = 8.0 * w * w0 * (lc - lam) * (lc + lam) / (w0**2 + w**2 + root)
    em = math.sqrt(max(em2, 0.0))
    gamma1 = 0.5 * math.atan2(4.0 * lam * math.sqrt(w * w0), w0**2 - w**2)
    return PhaseSolution("normal", w, w0, lam, em, ep, gamma1, 1.0)


def sr_solution(params: ModelParams) -> PhaseSolution:
    """Superradiant-phase energies, angle gamma(2), and displacements.

    With mu = lambda_c^2/lambda^2:
    eps_+-^2 = (omega0^2/mu^2 + omega^2 +- sqrt((omega0^2/mu^2 - omega^2)^2
               + 4 omega^2 omega0^2)) / 2,
    tan(2 gamma(2)) = 2 omega omega0 mu^2 / (omega0^2 - mu^2 omega^2).
    At lambda = lambda_c everything reduces to the normal-phase values.
    """
    w, w0, lam = params.omega, params.omega0, params.coupling
    lc = params.lambda_c
    if lam < lc:
        raise PhaseError(
            f"superradiant phase requires coupling >= lambda_c, got {lam} < {lc}")
    mu = (lc / lam) ** 2
    w0_eff2 = w0**2 / mu**2
    root = math.sqrt((w0_eff2 - w**2) ** 2 + 4.0 * w**2 * w0**2)
    ep = math.sqrt(0.5 * (w0_eff2 + w**2 + root))
    em2 = 2.0 * w**2 * w0**2 * (1.0 - mu) * (1.0 + mu) / (mu**2 * (w0_eff2 + w**2 + root))
    em = math.sqrt(max(em2, 0.0))
    gamma2 = 0.5 * math.atan2(2.0 * w * w0 * mu**2, w0**2 - mu**2 * w**2)
    return PhaseSolution("superradiant", w, w0, lam, em, ep, gamma2, mu)


def phase_solution(params: ModelParams) -> PhaseSolution:
    """Dispatch to the phase containing params.coupling (normal at lambda_c)."""
    if params.coupling <= params.lambda_c:
        return normal_solution(params)
    return sr_solution(params)


@dataclass(frozen=True)
class GaussianRDMParams:
    """Coefficients of the one-mode Gaussian reduced state.

    In the rescaled coordinate the kernel is
        rho(y, y') = norm * exp(-a (y^2 + y'^2) + b y y'),
    with a = (2 eps- eps+ + D)/(4 kappa^2 A), b = D/(2 kappa^2 A),
    A = eps- c^2 + eps+ s^2 and D = (eps- - eps+)^2 c^2 s^2.  kappa is the
    squeezing rescale fixed by the thermal correspondence m = 1,
    Omega = omega; it vanishes at the critical point (divergent state).
    """

    eps_minus: float
    eps_plus: float
    c: float
    s: float
    d_coeff: float
    kappa: float
    omega: float

    @property
    def critical(self) -> bool:
        return self.eps_minus == 0.0

    @property
    def pure(self) -> bool:
        return self.d_coeff == 0.0

    def kernel_coefficients(self) -> tuple[float, float, float]:
        """(norm, a, b) of the position-space kernel; undefined at lambda_c."""
        if self.critical:
            raise PhaseError("Gaussian RDM diverges at the critical point")
        A = self.eps_minus * self.c**2 + self.eps_plus * self.s**2
        k2 = self.kappa**2
        norm = math.sqrt(self.eps_minus * self.eps_plus / (math.pi * A)) / self.kappa
        a = (2.0 * self.eps_minus * self.eps_plus + self.d_coeff) / (4.0 * k2 * A)
        b = self.d_coeff / (2.0 * k2 * A)
        if 2.0 * a <= b:
            raise IntegrityError("Gaussian kernel is not normalizable")
        return norm, a, b


def rdm_params(solution: PhaseSolution) -> GaussianRDMParams:
    """Gaussian reduced-state coefficients for a phase solution.

    The superradiant input must be the single-lobe solution; the two-lobe
    finite-N state is its equal orthogonal mixture and is handled by the
    entropy/purity rules downstream.  kappa^2 solves the thermal match
    sinh(theta) * D / (2 kappa^2 A) = omega, which reduces to the stable
    form kappa^2 = sqrt(eps- eps+ B / A) / omega (B = eps- s^2 + eps+ c^2)
    and remains finite in the pure limit D -> 0.
    """
    em, ep = solution.eps_minus, solution.eps_plus
    c, s = solution.c, solution.s
    d_coeff = (em - ep) ** 2 * c**2 * s**2
    A = em * c**2 + ep * s**2
    B = em * s**2 + ep * c**2
    kappa = math.sqrt(math.sqrt(em * ep * B / A) / solution.omega)
    return GaussianRDMParams(eps_minus=em, eps_plus=ep, c=c, s=s,
                             d_coeff=d_coeff, kappa=kappa, omega=solution.omega)


def mixing_parameter(rdmp: GaussianRDMParams) -> float:
    """theta = beta * Omega from cosh(theta) = 1 + 2 eps- eps+ / D.

    Infinite for a pure state (D = 0), zero at the critical point.
    """
    if rdmp.pure:
        return math.inf
    if rdmp.critical:
        return 0.0
    rhs = 1.0 + 2.0 * rdmp.eps_minus * rdmp.eps_plus / rdmp.d_coeff
    return math.acosh(rhs)


def _temperature(omega: float, theta: float) -> float:
    """T = Omega / theta: infinite at theta = 0, zero for a pure state."""
    return omega / theta if theta else math.inf


def effective_temperature(rdmp: GaussianRDMParams) -> float:
    """Effective temperature T = Omega / theta of the equivalent thermal
    oscillator (m = 1, Omega = omega, k_B = 1); diverges at the critical point."""
    return _temperature(rdmp.omega, mixing_parameter(rdmp))


def thermal_entropy_bits(theta: float) -> float:
    """Oscillator entropy [theta/2 coth(theta/2) - ln(2 sinh(theta/2))]/ln 2."""
    if theta <= 0.0:
        return math.inf
    if math.isinf(theta) or theta > 45.0:
        return 0.0
    return (theta / math.expm1(theta) - math.log(-math.expm1(-theta))) / LN2


class ClosedForms(NamedTuple):
    """Every thermodynamic-limit measure at one coupling (fields as in sweeps)."""

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
    """
    sol = phase_solution(params)
    rdmp = rdm_params(sol)
    theta = mixing_parameter(rdmp)
    em, ep = rdmp.eps_minus, rdmp.eps_plus
    # Tr rho^2 of one lobe, sqrt(eps- eps+ / (eps- eps+ + D))
    purity = (math.sqrt(em * ep / (em * ep + rdmp.d_coeff))
              if (em * ep + rdmp.d_coeff) > 0 else 1.0)
    if sol.phase == "normal":
        critical = params.coupling == params.lambda_c
        s_bits = math.inf if critical else thermal_entropy_bits(theta)
        l_lin, lobes = 1.0 - purity, 1.0
    else:
        s_bits = thermal_entropy_bits(theta)
        if two_lobe:
            s_bits += 1.0
        l_lin, lobes = 1.0 - 0.5 * purity, 0.5
    # mu = 1 in the normal phase, where Q is 0 and <Jz>/N is -1/2
    return ClosedForms(
        s_vn=s_bits, l_lin=l_lin, q_avg=1.0 - sol.mu**2,
        ipr_inv=lobes * math.sqrt(em * ep) / (2.0 * math.pi),
        t_eff=_temperature(rdmp.omega, theta), kappa=rdmp.kappa, jz_mean=-0.5 * sol.mu)


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
    lam, lc = params.coupling, params.lambda_c
    if lam <= lc:
        return 0.0
    return 4.0 * lc**4 / lam**5
