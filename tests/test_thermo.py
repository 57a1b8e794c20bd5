import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dicke_qpt import (ParameterError, PhaseError, closed_forms,
                       critical_asymptote, effective_temperature, entropy_td,
                       ipr_td, linear_entropy_td, make_params, normal_solution,
                       perturbative_entropy, q_td, q_td_derivative, rdm_params,
                       sr_solution)
from dicke_qpt.thermo import (mixing_parameter, phase_solution,
                              thermal_entropy_bits)
from oracles import (closed_forms_math, kernel_coefficients,
                     perturbative_entropy_math, with_coupling)

LC = 0.5  # critical coupling on resonance (omega = omega0 = 1)


def resonant(ratio):
    return make_params(1.0, 1.0, ratio * LC, 8)


def bogoliubov_oracle(omega, omega0, coupling):
    """Oracle: excitation energies from the 2x2 quadratic-form matrix."""
    V = np.array([[omega**2, 2 * coupling * np.sqrt(omega * omega0)],
                  [2 * coupling * np.sqrt(omega * omega0), omega0**2]])
    ev = np.linalg.eigvalsh(V)
    return np.sqrt(ev[0]), np.sqrt(ev[1])


def nystrom_entropy_oracle(rdmp, n=600, span=9.0):
    """Oracle: discretize the Gaussian kernel and diagonalize it."""
    norm, a, b = kernel_coefficients(rdmp)
    sigma = 1.0 / math.sqrt(2 * (2 * a - b))
    y = np.linspace(-span * sigma, span * sigma, n)
    w = y[1] - y[0]
    kernel = norm * np.exp(-a * (y[:, None] ** 2 + y[None, :] ** 2)
                           + b * y[:, None] * y[None, :])
    mat = 0.5 * (kernel + kernel.T) * w
    ev = np.linalg.eigvalsh(mat)
    return ev, float(-(ev[ev > 1e-15] * np.log2(ev[ev > 1e-15])).sum())


def purity_quadrature_oracle(solution, n=800, span=9.0):
    """Oracle: Tr rho^2 by direct 2-D quadrature of the kernel."""
    norm, a, b = kernel_coefficients(rdm_params(solution))
    sigma = 1.0 / math.sqrt(2 * (2 * a - b))
    y = np.linspace(-span * sigma, span * sigma, n)
    w = y[1] - y[0]
    kernel = norm * np.exp(-a * (y[:, None] ** 2 + y[None, :] ** 2)
                           + b * y[:, None] * y[None, :])
    return float((kernel * kernel.T).sum() * w * w)


class TestNormalSolution:
    def test_decoupled_energies(self):
        sol = normal_solution(make_params(1, 4, 0.0, 2))
        assert sol.eps_minus == pytest.approx(1.0, rel=1e-14)
        assert sol.eps_plus == pytest.approx(4.0, rel=1e-14)

    def test_resonant_closed_form(self):
        sol = normal_solution(resonant(0.6))
        assert sol.eps_minus**2 == pytest.approx(1 - 2 * 0.3, rel=1e-13)
        assert sol.eps_plus**2 == pytest.approx(1 + 2 * 0.3, rel=1e-13)

    def test_gap_closes_at_critical_coupling(self):
        assert normal_solution(resonant(1.0)).eps_minus == 0.0

    def test_matches_bogoliubov_matrix_oracle(self):
        params = make_params(1, 4, 0.4, 2)
        sol = normal_solution(params)
        em, ep = bogoliubov_oracle(1, 4, 0.4)
        assert sol.eps_minus == pytest.approx(em, rel=1e-12)
        assert sol.eps_plus == pytest.approx(ep, rel=1e-12)

    def test_resonant_angle(self):
        assert normal_solution(resonant(0.5)).gamma == pytest.approx(np.pi / 4)

    def test_angle_identity(self):
        sol = normal_solution(make_params(1, 2, 0.3, 2))
        lhs = math.tan(2 * sol.gamma)
        rhs = 4 * 0.3 * math.sqrt(2.0) / (4.0 - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wrong_phase_raises(self):
        with pytest.raises(PhaseError):
            normal_solution(resonant(1.2))

    def test_no_displacement(self):
        # mu = 1 below lambda_c: no mean-field displacement, omega_tilde = omega0
        sol = normal_solution(make_params(1, 4, 0.4, 2))
        assert (sol.phase, sol.mu, sol.alpha, sol.beta_disp, sol.omega_tilde) == (
            "normal", 1.0, 0.0, 0.0, 4.0)

    @settings(max_examples=40, deadline=None)
    @given(omega=st.floats(0.3, 3.0), omega0=st.floats(0.3, 3.0),
           ratio=st.floats(0.0, 0.999))
    def test_oracle_agreement_property(self, omega, omega0, ratio):
        coupling = ratio * math.sqrt(omega * omega0) / 2
        sol = normal_solution(make_params(omega, omega0, coupling, 2))
        em, ep = bogoliubov_oracle(omega, omega0, coupling)
        assert sol.eps_minus == pytest.approx(em, rel=1e-9, abs=1e-9)
        assert sol.eps_plus == pytest.approx(ep, rel=1e-9)
        assert sol.c**2 + sol.s**2 == pytest.approx(1.0, rel=1e-14)


class TestSRSolution:
    def test_continuity_at_critical_point(self):
        for omega, omega0 in ((1.0, 1.0), (4.0, 1.0)):
            params = make_params(omega, omega0, 0.0, 2)
            lc = params.lambda_c
            left = normal_solution(with_coupling(params, lc))
            right = sr_solution(with_coupling(params, lc))
            assert abs(left.eps_minus - right.eps_minus) <= 1e-12
            assert abs(left.eps_plus - right.eps_plus) <= 1e-12
            assert abs(math.tan(2 * left.gamma) - math.tan(2 * right.gamma)) <= 1e-12

    def test_displacements_vanish_at_critical_point(self):
        sol = sr_solution(resonant(1.0))
        assert sol.mu == 1.0
        assert sol.alpha == 0.0
        assert sol.beta_disp == 0.0

    def test_twice_critical_values(self):
        sol = sr_solution(resonant(2.0))
        assert sol.mu == 0.25
        assert sol.omega_tilde == pytest.approx(2.5, rel=1e-14)
        assert sol.alpha == pytest.approx((2 * 1.0 / 1.0) ** 2 * 0.75 / 2, rel=1e-14)
        assert sol.beta_disp == 0.75

    def test_gap_approaches_field_frequency(self):
        sol = sr_solution(resonant(100.0))
        assert abs(sol.eps_minus - 1.0) < 1e-4

    def test_matches_bogoliubov_matrix_oracle(self):
        params = make_params(1, 4, 2.2, 2)
        sol = sr_solution(params)
        mu = (params.lambda_c / 2.2) ** 2
        V = np.array([[1.0, 4.0], [4.0, 16.0 / mu**2]])
        ev = np.linalg.eigvalsh(V)
        assert sol.eps_minus == pytest.approx(math.sqrt(ev[0]), rel=1e-12)
        assert sol.eps_plus == pytest.approx(math.sqrt(ev[1]), rel=1e-12)

    def test_wrong_phase_raises(self):
        with pytest.raises(PhaseError):
            sr_solution(resonant(0.8))


class TestGaussianRDM:
    def test_pure_limit_at_zero_coupling(self):
        rdmp = rdm_params(normal_solution(resonant(0.0)))
        assert rdmp.d_coeff == 0.0

    def test_kappa_frozen_value(self):
        rdmp = rdm_params(normal_solution(resonant(0.5)))
        assert rdmp.kappa == pytest.approx(0.9646786299603094, abs=1e-12)

    def test_kappa_matches_root_finding_oracle(self):
        sol = normal_solution(resonant(0.5))
        em, ep, c, s = sol.eps_minus, sol.eps_plus, sol.c, sol.s
        A = em * c**2 + ep * s**2
        D = (em - ep) ** 2 * c**2 * s**2
        rhs = 1.0 + 2 * em * ep / D

        def mass_omega_mismatch(kappa):
            return math.sqrt(rhs**2 - 1) * D / (2 * kappa**2 * A) - 1.0

        kappa_oracle = brentq(mass_omega_mismatch, 1e-3, 10.0, xtol=1e-14)
        assert rdm_params(sol).kappa == pytest.approx(kappa_oracle, abs=1e-10)

    def test_kappa_vanishes_at_critical_point(self):
        values = [rdm_params(normal_solution(resonant(r))).kappa
                  for r in (0.9, 0.99, 0.999, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_kernel_is_normalizable_and_positive(self):
        rdmp = rdm_params(normal_solution(resonant(0.6)))
        ev, _ = nystrom_entropy_oracle(rdmp)
        assert ev.sum() == pytest.approx(1.0, abs=1e-10)
        assert ev.min() > -1e-12

    def test_kernel_undefined_at_critical_point(self):
        rdmp = rdm_params(normal_solution(resonant(1.0)))
        with pytest.raises(PhaseError):
            kernel_coefficients(rdmp)


class TestEffectiveTemperature:
    def test_zero_coupling_is_zero_temperature(self):
        assert effective_temperature(rdm_params(normal_solution(resonant(0.0)))) == 0.0

    def test_divergence_at_critical_point(self):
        assert effective_temperature(rdm_params(normal_solution(resonant(1.0)))) == math.inf

    def test_frozen_value(self):
        temperature = effective_temperature(rdm_params(normal_solution(resonant(0.9))))
        assert temperature == pytest.approx(0.4792471756390506, abs=1e-12)

    def test_matches_root_finding_oracle(self):
        sol = normal_solution(resonant(0.9))
        em, ep, c, s = sol.eps_minus, sol.eps_plus, sol.c, sol.s
        D = (em - ep) ** 2 * c**2 * s**2
        rhs = 1.0 + 2 * em * ep / D
        t_oracle = brentq(lambda t: math.cosh(1.0 / t) - rhs, 0.05, 1e3,
                          xtol=1e-14)
        assert effective_temperature(rdm_params(sol)) == pytest.approx(t_oracle, abs=1e-10)

    def test_monotone_increase_toward_transition(self):
        temps = [effective_temperature(rdm_params(normal_solution(resonant(r))))
                 for r in (0.2, 0.5, 0.8, 0.95)]
        assert all(b > a for a, b in zip(temps, temps[1:]))


class TestEntropyTD:
    def test_zero_coupling(self):
        assert entropy_td(resonant(0.0)) == 0.0

    def test_divergence_marker_at_critical_point(self):
        assert entropy_td(resonant(1.0)) == math.inf

    def test_frozen_values(self):
        assert entropy_td(resonant(0.5)) == pytest.approx(
            0.1361795425152909, abs=1e-13)
        assert entropy_td(resonant(0.9)) == pytest.approx(
            0.6177175114311814, abs=1e-13)

    def test_strong_coupling_limit_is_one_bit(self):
        assert entropy_td(resonant(50.0)) == pytest.approx(1.0, abs=1e-3)

    def test_two_lobe_convention_adds_one_bit(self):
        params = resonant(2.0)
        assert entropy_td(params) == pytest.approx(
            entropy_td(params, two_lobe=False) + 1.0, abs=1e-14)

    def test_matches_nystrom_oracle(self):
        for ratio in (0.3, 0.6, 0.9):
            rdmp = rdm_params(normal_solution(resonant(ratio)))
            _, s_oracle = nystrom_entropy_oracle(rdmp)
            assert abs(entropy_td(resonant(ratio)) - s_oracle) < 1e-4

    def test_kappa_rescale_invariance(self):
        rdmp = rdm_params(normal_solution(resonant(0.6)))
        doubled = dataclasses.replace(rdmp, kappa=2 * rdmp.kappa)
        assert mixing_parameter(doubled) == mixing_parameter(rdmp)
        _, s_ref = nystrom_entropy_oracle(rdmp)
        _, s_doubled = nystrom_entropy_oracle(doubled)
        assert abs(s_ref - s_doubled) < 1e-6

    def test_sr_entropy_uses_sr_parameters(self):
        rdmp = rdm_params(sr_solution(resonant(1.5)))
        s_lobe = thermal_entropy_bits(mixing_parameter(rdmp))
        assert entropy_td(resonant(1.5)) == pytest.approx(s_lobe + 1.0, abs=1e-13)


class TestCriticalAsymptote:
    def test_slope_is_exactly_minus_quarter(self):
        params = resonant(0.0)
        d1, d2 = 1e-4 * LC, 5e-5 * LC
        s1 = critical_asymptote(params, LC - d1)
        s2 = critical_asymptote(params, LC - d2)
        slope = (s1 - s2) / (math.log2(d1) - math.log2(d2))
        assert slope == pytest.approx(-0.25, abs=1e-12)

    def test_agrees_with_exact_entropy_near_transition(self):
        delta = 1e-6 * LC
        for coupling in (LC - delta, LC + delta):
            exact = entropy_td(make_params(1, 1, coupling, 8))
            approx = critical_asymptote(resonant(0.0), coupling)
            assert abs(exact - approx) < 0.01

    def test_off_resonance_agreement(self):
        params = make_params(1.0, 4.0, 0.0, 8)
        lc = params.lambda_c
        coupling = lc * (1 - 1e-6)
        exact = entropy_td(with_coupling(params, coupling))
        assert abs(critical_asymptote(params, coupling) - exact) < 0.01

    def test_out_of_window_rejected(self):
        with pytest.raises(ParameterError):
            critical_asymptote(resonant(0.0), LC * 0.95)

    def test_length_scale_exponent(self):
        # l- = eps-**-1/2 diverges with exponent -1/4
        deltas = np.logspace(-6, -3, 12) * LC
        lminus = np.array([normal_solution(with_coupling(resonant(0.0), LC - d)
                                           ).eps_minus ** -0.5 for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(lminus), 1)[0]
        assert slope == pytest.approx(-0.25, abs=1e-3)


class TestLinearEntropyTD:
    def test_pinned_points(self):
        assert linear_entropy_td(resonant(0.0)) == 0.0
        assert linear_entropy_td(resonant(1.0)) == 1.0

    def test_frozen_value_half_critical(self):
        expected = 1 - 2 * (0.5 * 1.5) ** 0.25 / (math.sqrt(0.5) + math.sqrt(1.5))
        value = linear_entropy_td(resonant(0.5))
        assert value == pytest.approx(expected, abs=1e-13)
        assert value == pytest.approx(0.036566955997714756, abs=1e-12)

    def test_matches_quadrature_oracle_normal(self):
        for ratio in (0.3, 0.7):
            sol = normal_solution(resonant(ratio))
            purity = purity_quadrature_oracle(sol)
            assert linear_entropy_td(resonant(ratio)) == pytest.approx(
                1.0 - purity, abs=1e-8)

    def test_matches_quadrature_oracle_sr(self):
        sol = sr_solution(resonant(1.6))
        purity = purity_quadrature_oracle(sol)
        assert linear_entropy_td(resonant(1.6)) == pytest.approx(
            1.0 - 0.5 * purity, abs=1e-8)

    def test_matches_printed_general_expression(self):
        # same closed form written with the explicit A, B, D combination
        sol = normal_solution(make_params(1, 3, 0.5, 2))
        em, ep, c, s = sol.eps_minus, sol.eps_plus, sol.c, sol.s
        A = em * c**2 + ep * s**2
        B = em * s**2 + ep * c**2
        D = (em - ep) ** 2 * c**2 * s**2
        printed = 1 - (em * ep / A) * (B**2 - B * D / A) ** -0.5
        assert linear_entropy_td(make_params(1, 3, 0.5, 2)) == pytest.approx(
            printed, rel=1e-12)

    def test_strong_coupling_constant(self):
        assert linear_entropy_td(resonant(5.0)) == pytest.approx(
            0.5000148049667841, abs=1e-12)
        assert linear_entropy_td(resonant(200.0)) == pytest.approx(0.5, abs=1e-6)


class TestIPRTD:
    def test_decoupled_resonant_value(self):
        assert ipr_td(resonant(0.0)) == 1.0 / (2 * math.pi)

    def test_vanishes_at_critical_point(self):
        assert ipr_td(resonant(1.0)) == 0.0
        assert ipr_td(resonant(0.999999)) < 0.01

    def test_sr_value_matches_two_lobe_quadrature(self):
        sol = sr_solution(resonant(2.0))
        em, ep = sol.eps_minus, sol.eps_plus
        q1 = np.linspace(-12 / math.sqrt(em), 12 / math.sqrt(em), 1500)
        q2 = np.linspace(-12 / math.sqrt(ep), 12 / math.sqrt(ep), 1500)
        lobe = ((em * ep) ** 0.25 / math.sqrt(math.pi)
                * np.exp(-0.5 * (em * q1[:, None] ** 2 + ep * q2[None, :] ** 2)))
        single = (lobe**4).sum() * (q1[1] - q1[0]) * (q2[1] - q2[0])
        assert ipr_td(resonant(2.0)) == pytest.approx(0.5 * single, rel=1e-8)

    def test_phase_consistency_at_transition(self):
        params = make_params(4.0, 1.0, 0.0, 2)
        lc = params.lambda_c
        below = ipr_td(with_coupling(params, lc))
        above = ipr_td(with_coupling(params, lc + 0.0))
        assert below == above == 0.0


class TestQTD:
    def test_zero_below_transition(self):
        for ratio in (0.0, 0.4, 1.0):
            assert q_td(resonant(ratio)) == 0.0

    def test_exact_value_twice_critical(self):
        assert q_td(resonant(2.0)) == 15.0 / 16.0

    def test_derivative_formula(self):
        for ratio in (1.2, 1.5, 2.0):
            lam = ratio * LC
            h = 1e-5 * lam
            fd = (q_td(with_coupling(resonant(0.0), lam + h))
                  - q_td(with_coupling(resonant(0.0), lam - h))) / (2 * h)
            expected = q_td_derivative(resonant(ratio))
            assert fd == pytest.approx(expected, rel=1e-8)

    def test_value_continuous_derivative_jumps(self):
        assert q_td(resonant(1.0)) == 0.0
        h = 1e-9
        right = (q_td(with_coupling(resonant(0.0), LC + h)) - 0.0) / h
        assert right == pytest.approx(4.0 / LC, rel=1e-6)
        assert q_td_derivative(resonant(1.0)) == 0.0


class TestScalingRelation:
    def test_gap_exponent_half(self):
        deltas = np.logspace(-6, -3, 20) * LC
        eps = np.array([normal_solution(with_coupling(resonant(0.0), LC - d)
                                        ).eps_minus for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(eps), 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-3)

    def test_phase_dispatch(self):
        assert phase_solution(resonant(0.5)).phase == "normal"
        assert phase_solution(resonant(1.5)).phase == "superradiant"


def per_measure_oracles(params, two_lobe):
    """Oracle: each closed form solved on its own, from its own phase solve."""
    lam, lc = params.coupling, params.lambda_c
    if lam == lc:
        s_vn = math.inf
    else:
        sol = normal_solution(params) if lam < lc else sr_solution(params)
        s_vn = thermal_entropy_bits(mixing_parameter(rdm_params(sol)))
        if lam > lc and two_lobe:
            s_vn += 1.0

    def purity(sol):
        em, ep = sol.eps_minus, sol.eps_plus
        d_coeff = (em - ep) ** 2 * sol.c**2 * sol.s**2
        return math.sqrt(em * ep / (em * ep + d_coeff)) if (em * ep + d_coeff) > 0 else 1.0

    if lam <= lc:
        sol = normal_solution(params)
        l_lin, factor, q_avg, mu = 1.0 - purity(sol), 1.0, 0.0, 1.0
    else:
        sol = sr_solution(params)
        mu = (lc / lam) ** 2
        l_lin, factor, q_avg = 1.0 - 0.5 * purity(sol), 0.5, 1.0 - mu**2
    ipr_inv = factor * math.sqrt(sol.eps_minus * sol.eps_plus) / (2.0 * math.pi)
    return {"s_vn": s_vn, "l_lin": l_lin, "q_avg": q_avg, "ipr_inv": ipr_inv,
            "jz_mean": -0.5 * mu}


class TestClosedForms:
    @pytest.mark.parametrize("two_lobe", [True, False])
    @pytest.mark.parametrize("omega, omega0", [(1.0, 1.0), (1.0, 3.0), (2.5, 0.4)])
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 10.0])
    def test_one_solve_matches_every_scalar_function(self, ratio, omega, omega0, two_lobe):
        # one phase solve must give bit for bit what each measure gives alone
        lc = math.sqrt(omega * omega0) / 2.0
        params = make_params(omega, omega0, ratio * lc, 8)
        forms = closed_forms(params, two_lobe)
        rdmp = rdm_params(phase_solution(params))
        oracle = per_measure_oracles(params, two_lobe)
        assert forms._asdict() == {**oracle, "t_eff": effective_temperature(rdmp),
                                   "kappa": rdmp.kappa}
        assert forms.s_vn == entropy_td(params, two_lobe=two_lobe)
        assert forms.l_lin == linear_entropy_td(params)
        assert forms.q_avg == q_td(params)
        assert forms.ipr_inv == ipr_td(params)


# lambda/lambda_c: the named points of both phases, and anything in [0, 10]
RATIOS = st.one_of(st.sampled_from([0.0, 1 - 1e-9, 1.0, 1 + 1e-9, 10.0]),
                   st.floats(0.0, 10.0))


def bits(values):
    """Exact bit patterns of floats (-0.0 differs from 0.0)."""
    return [float(v).hex() for v in values]


class TestCouplingGrid:
    @settings(max_examples=50, deadline=None)
    @given(omega=st.floats(0.2, 5.0), omega0=st.floats(0.2, 5.0),
           ratios=st.lists(RATIOS, min_size=1, max_size=12), two_lobe=st.booleans())
    # D is subnormal here, and 2 eps- eps+ / D overflows to inf
    @example(omega=1.0, omega0=2.0, ratios=[9.906452447176264e-156], two_lobe=True)
    def test_grid_matches_scalar_functions_bit_for_bit(self, omega, omega0, ratios,
                                                       two_lobe):
        lc = math.sqrt(omega * omega0) / 2.0
        couplings = np.array(ratios) * lc
        grid = make_params(omega, omega0, couplings, 2)
        forms = closed_forms(grid, two_lobe)
        pert = perturbative_entropy(grid)
        dq = q_td_derivative(grid)
        assert all(isinstance(column, np.ndarray) for column in (*forms, dq))
        for k, lam in enumerate(couplings.tolist()):
            params = make_params(omega, omega0, lam, 2)
            one = closed_forms(params, two_lobe)
            rdmp = rdm_params(phase_solution(params))
            assert all(type(value) is float for value in one)
            assert bits(column[k] for column in forms) == bits(one)
            assert bits(one) == bits(closed_forms_math(omega, omega0, lam, two_lobe).values())
            assert bits(one[:6]) == bits([
                entropy_td(params, two_lobe), linear_entropy_td(params), q_td(params),
                ipr_td(params), effective_temperature(rdmp), rdmp.kappa])
            assert bits([pert[k]]) == bits([perturbative_entropy(params)]) == bits(
                [perturbative_entropy_math(omega, omega0, lam)])
            assert type(q_td_derivative(params)) is float
            assert bits([dq[k]]) == bits([q_td_derivative(params)]) == bits(
                [4.0 * lc**4 / lam**5 if lam > lc else 0.0])

    @pytest.mark.parametrize("omega, omega0", [(1.0, 1.0), (1.0, 3.0), (2.5, 0.4)])
    def test_grid_with_zero_and_critical_coupling_warns_nothing(self, omega, omega0):
        lc = math.sqrt(omega * omega0) / 2.0
        grid = make_params(omega, omega0, np.array([0.0, 0.5 * lc, lc, 2.0 * lc]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forms = closed_forms(grid)
            pert = perturbative_entropy(grid)
        assert (forms.s_vn[0], forms.s_vn[2], forms.t_eff[2], pert[0]) == (
            0.0, math.inf, math.inf, 0.0)

    def test_phase_solutions_over_a_grid(self):
        lam = np.array([0.0, 0.25, LC, 0.75, 5.0])
        sol = phase_solution(make_params(1.0, 1.0, lam, 2))
        assert sol.phase.tolist() == ["normal"] * 3 + ["superradiant"] * 2
        below = normal_solution(make_params(1.0, 1.0, lam[:3], 2))
        above = sr_solution(make_params(1.0, 1.0, lam[2:], 2))
        assert bits(sol.eps_minus) == bits(below.eps_minus.tolist() + above.eps_minus[1:].tolist())
        with pytest.raises(PhaseError):
            normal_solution(make_params(1.0, 1.0, lam, 2))
        with pytest.raises(PhaseError):
            sr_solution(make_params(1.0, 1.0, lam, 2))

    def test_underflowing_mu_is_a_domain_error(self):
        # (lambda_c/lambda)^4 is 0.0 in floats beyond about 1e81 lambda_c,
        # where the superradiant solution would divide by it
        for lam in (1e100, np.array([0.3, 1e100])):
            with pytest.raises(ParameterError, match="underflows"):
                closed_forms(make_params(1.0, 1.0, lam, 2))

    @pytest.mark.parametrize("omega, omega0", [(1e300, 1.0), (1.0, 1e300), (1e78, 1.0)])
    def test_overflowing_frequency_is_a_domain_error(self, omega, omega0):
        # a frequency's square, or the square of their difference, overflows
        # a float power in either phase solution: ParameterError, not the
        # OverflowError of the power
        for lam in (0.0, 2.0 * math.sqrt(omega * omega0), np.array([0.0, 1.0])):
            with pytest.raises(ParameterError, match="overflows"):
                closed_forms(make_params(omega, omega0, lam, 2))

    @pytest.mark.parametrize("ratio", [1e39, 5e78])
    def test_overflowing_effective_frequency_is_a_domain_error(self, ratio):
        # omega0^2/mu^2 squared overflows beyond about 3.4e38 lambda_c, and
        # omega0^2/mu^2 itself beyond about 1e77 lambda_c
        for lam in (ratio * LC, np.array([0.3, ratio * LC])):
            with warnings.catch_warnings(), pytest.raises(
                    ParameterError, match=re.escape(f"coupling {ratio * LC}")):
                warnings.simplefilter("error")
                closed_forms(make_params(1.0, 1.0, lam, 2))
