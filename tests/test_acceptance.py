"""Acceptance checklist: every release-gating criterion with its tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).

Criterion 4c checks the law by which the closed-form IPR is suppressed at the
transition. On resonance (omega = omega0 = 1, lambda_c = 1/2) the normal-phase
Hamiltonian of q = (x, y) is H = (p^2 + q^2)/2 + 2 lambda x y, whose ground
state is Psi ~ exp(-q^T sqrt(V) q / 2) with V = [[1, 2 lambda], [2 lambda, 1]].
So P^-1 = int Psi^4 = sqrt(det sqrt(V))/(2 pi) = sqrt(eps- eps+)/(2 pi). With
delta = 1 - lambda/lambda_c the eigenvalues of V are eps-^2 = delta and
eps+^2 = 2 - delta, hence P^-1 = (delta (2 - delta))^(1/4)/(2 pi): a
suppression relative to the decoupled 1/(2 pi) that goes as delta^(1/4).
An earlier target, P^-1 <= 1e-3 at delta = 1e-6, was dropped: the ratio
P^-1(delta)/P^-1(0) = (delta (2 - delta))^(1/4) = 0.0376 there is invariant
under linear changes of coordinates, so no normalization that keeps
criterion 4a's exact 1/(2 pi) can meet it, and the formula reaches 1e-3 only
at delta <= 7.8e-10.
"""

import dataclasses
import math

import numpy as np
import pytest

from dicke_qpt import (SweepConfig, critical_asymptote,
                       entropy_td, fit_critical_exponents, fit_entropy_scaling,
                       inverse_participation_ratio, ipr_td, linear_entropy,
                       linear_entropy_td, make_params, normal_solution,
                       partial_trace, perturbative_entropy,
                       q_td, q_td_derivative, rdm_params, run_sweep,
                       sr_solution, von_neumann_entropy)
from dicke_qpt.entanglement import average_linear_entropy_Q
from dicke_qpt.thermo import mixing_parameter
from oracles import (full_hamiltonian, kernel_coefficients, meyer_wallach_Q_generic,
                     with_coupling)

LC = 0.5  # resonance critical coupling


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_zero_coupling_exactness(resonant_ground):
    worst_measure = 0.0
    energy_exact = True
    for n_atoms in (1, 2, 8):
        gs = resonant_ground(0.0, n_atoms)
        energy_exact &= gs.energy == -n_atoms / 2.0
        s = von_neumann_entropy(partial_trace(gs, "atoms"))
        l = linear_entropy(partial_trace(gs, "atoms"), n_atoms + 1)
        q = average_linear_entropy_Q(gs)
        worst_measure = max(worst_measure, abs(s), abs(l), abs(q))
    report("criterion 1 (zero-coupling exactness)",
           energy_exact and worst_measure <= 1e-10,
           f"energies exact={energy_exact}, max measure={worst_measure:.2e}")


def test_criterion_2_strong_coupling_entropy(resonant_ground):
    deviations = []
    for ratio in (2.0, 3.0, 4.0):
        gs = resonant_ground(ratio, 8)
        s = von_neumann_entropy(partial_trace(gs, "atoms"))
        deviations.append(abs(s - 1.0))
    converging = deviations[0] > deviations[1] > deviations[2]
    report("criterion 2 (strong-coupling entropy)",
           deviations[-1] <= 0.1 and converging,
           f"|S-1| at 2,3,4 lambda_c: {deviations[0]:.4f} > "
           f"{deviations[1]:.4f} > {deviations[2]:.4f}, final <= 0.1")


def test_criterion_3_linear_entropy_pinned_points():
    l_zero = linear_entropy_td(make_params(1, 1, 0.0, 8))
    l_crit = linear_entropy_td(make_params(1, 1, LC, 8))
    l_five = linear_entropy_td(make_params(1, 1, 5 * LC, 8))
    report("criterion 3 (closed-form linear entropy)",
           l_zero == 0.0 and l_crit == 1.0 and abs(l_five - 0.5) <= 0.02,
           f"L(0)={l_zero}, L(lambda_c)={l_crit}, |L(5 lambda_c)-1/2|="
           f"{abs(l_five - 0.5):.5f}")


def test_criterion_4a_decoupled_ipr_value():
    value = ipr_td(make_params(1, 1, 0.0, 8))
    report("criterion 4a (decoupled closed-form IPR)",
           abs(value - 1 / (2 * math.pi)) <= 1e-12,
           f"|P^-1 - 1/(2 pi)| = {abs(value - 1 / (2 * math.pi)):.2e}")


def test_criterion_4b_finite_size_ipr_agreement(resonant_ground):
    target = ipr_td(make_params(1, 1, 0.5 * LC, 8))
    deviations = []
    for n_atoms in (8, 16, 32):
        gs = resonant_ground(0.5, n_atoms)
        params = make_params(1, 1, 0.5 * LC, n_atoms)
        value = inverse_participation_ratio(gs, gs.basis, params)
        deviations.append(abs(value - target))
    shrinking = deviations[0] > deviations[1] > deviations[2]
    report("criterion 4b (finite-size IPR convergence)",
           deviations[-1] / target <= 0.10 and shrinking,
           f"relative deviation at N=32: {deviations[-1] / target:.4f}, "
           f"shrinking with N: {shrinking}")


def test_criterion_4c_critical_ipr_suppression():
    # Oracle from delta alone (module docstring), not through normal_solution.
    # The log-log slope 1/4 is half the gap exponent: eps- ~ delta^(1/2).
    def oracle_ratio(delta):
        return (delta * (2 - delta)) ** 0.25

    def ipr_at(delta):
        return ipr_td(make_params(1, 1, LC * (1 - delta), 8))

    delta = 1e-6
    value = ipr_at(delta)
    decoupled = ipr_td(make_params(1, 1, 0.0, 8))
    value_ok = value == pytest.approx(oracle_ratio(delta) / (2 * math.pi), rel=1e-9)
    ratio_ok = value / decoupled == pytest.approx(oracle_ratio(delta), rel=1e-9)

    deltas = np.logspace(-6, -3, 30)
    values = np.array([ipr_at(d) for d in deltas])
    decreasing = bool(np.all(np.diff(values) > 0))
    slope = np.polyfit(np.log(deltas), np.log(values), 1)[0]
    report("criterion 4c (IPR suppression at the transition)",
           value_ok and ratio_ok and decreasing
           and slope == pytest.approx(0.25, abs=1e-3),
           f"P^-1 at delta=1e-6 is {value:.6e} (oracle "
           f"{oracle_ratio(delta) / (2 * math.pi):.6e}), P^-1/P^-1(0) = "
           f"{value / decoupled:.4e}, decreasing as delta -> 0: {decreasing}, "
           f"log-log slope {slope:.6f} (law 1/4)")


def test_criterion_5_critical_exponents():
    config = SweepConfig(lambda_scale="log", lambda_min=1e-6, lambda_max=1e-3,
                         lambda_steps=30, backend="td", measures=("s_vn",))
    reports, failures = run_sweep(config)
    assert not failures
    fits = fit_critical_exponents(reports, omega=1.0, omega0=1.0)
    devs = {
        "eps_minus": abs(fits["eps_minus"].exponent - 0.5),
        "l_minus": abs(fits["l_minus"].exponent + 0.25),
        "s_vn": abs(fits["s_vn"].exponent + 0.25),
    }
    report("criterion 5 (critical exponents)",
           all(d <= 0.002 for d in devs.values()),
           "slope deviations " + ", ".join(f"{k}={v:.2e}" for k, v in devs.items()))


def test_criterion_6_closed_form_q():
    below = [q_td(make_params(1, 1, r * LC, 8)) for r in (0.0, 0.5, 1.0)]
    exact = q_td(make_params(1, 1, 2 * LC, 8))
    worst_rel = 0.0
    for ratio in (1.2, 1.5, 2.0):
        lam = ratio * LC
        h = 1e-5 * lam
        fd = (q_td(make_params(1, 1, lam + h, 8))
              - q_td(make_params(1, 1, lam - h, 8))) / (2 * h)
        expected = q_td_derivative(make_params(1, 1, lam, 8))
        worst_rel = max(worst_rel, abs(fd - expected) / expected)
    report("criterion 6 (closed-form Q)",
           all(v == 0.0 for v in below) and exact == 15 / 16
           and worst_rel <= 1e-6,
           f"Q below transition {below}, Q(2 lambda_c)={exact}, "
           f"derivative mismatch {worst_rel:.2e}")


def test_criterion_7_finite_size_entropy_scaling():
    config = SweepConfig(lambda_min=0.9, lambda_max=1.3, lambda_steps=17,
                         n_atoms=(8, 16, 32, 64), backend="ed",
                         measures=("s_vn",), tol=1e-8)
    reports, failures = run_sweep(config)
    assert not failures
    fit = fit_entropy_scaling(reports)
    peak_positions = [p[1] / LC for p in fit.peaks]
    monotone = all(b < a for a, b in zip(peak_positions, peak_positions[1:]))
    report("criterion 7 (finite-size entropy scaling)",
           0.10 <= fit.exponent <= 0.18 and monotone,
           f"exponent {fit.exponent:.4f} (+- {fit.stderr:.4f}), "
           f"peak positions/lambda_c {np.round(peak_positions, 4)} "
           f"approach 1 monotonically: {monotone}")


def test_criterion_8_qubit_register_q_values():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 2**-0.5
    w_state = np.zeros(8)
    w_state[[1, 2, 4]] = 3**-0.5
    dev_ghz = abs(meyer_wallach_Q_generic(ghz) - 1.0)
    dev_w = abs(meyer_wallach_Q_generic(w_state) - 8 / 9)
    report("criterion 8 (qubit-register Q anchors)",
           dev_ghz <= 1e-12 and dev_w <= 1e-12,
           f"|Q(GHZ3)-1|={dev_ghz:.2e}, |Q(W3)-8/9|={dev_w:.2e}")


def test_criterion_9_property_suite(resonant_ground):
    # Schmidt symmetry over a 20-point sweep, and the certified ground state
    # lies in the positive-parity sector: its energy is the lowest eigenvalue
    # of the whole Hamiltonian at the accepted cutoff, not only of that block
    worst_schmidt = worst_parity = 0.0
    for ratio in np.linspace(0.0, 3.0, 20):
        ratio = round(float(ratio), 10)
        gs = resonant_ground(ratio, 6)
        s_a = von_neumann_entropy(partial_trace(gs, "atoms"))
        s_f = von_neumann_entropy(partial_trace(gs, "field"))
        worst_schmidt = max(worst_schmidt, abs(s_a - s_f))
        H = full_hamiltonian(make_params(1, 1, ratio * LC, 6), gs.basis)
        worst_parity = max(worst_parity,
                           abs(gs.energy - np.linalg.eigvalsh(H.toarray())[0]))

    # entropy is invariant under rescaling the squeezing parameter
    rdmp = rdm_params(normal_solution(make_params(1, 1, 0.3, 8)))
    kappa_invariant = mixing_parameter(
        dataclasses.replace(rdmp, kappa=2 * rdmp.kappa)) == mixing_parameter(rdmp)

    # phase continuity of the excitation energies at the transition
    continuity = 0.0
    for omega, omega0 in ((1.0, 1.0), (4.0, 1.0)):
        params = make_params(omega, omega0, 0.0, 8)
        left = normal_solution(with_coupling(params, params.lambda_c))
        right = sr_solution(with_coupling(params, params.lambda_c))
        continuity = max(continuity, abs(left.eps_minus - right.eps_minus),
                         abs(left.eps_plus - right.eps_plus))

    # discretized Gaussian kernel reproduces the closed-form entropy
    worst_kernel = 0.0
    for ratio in (0.3, 0.6, 0.9):
        params = make_params(1, 1, ratio * LC, 8)
        norm, a, b = kernel_coefficients(rdm_params(normal_solution(params)))
        sigma = 1.0 / math.sqrt(2 * (2 * a - b))
        y = np.linspace(-9 * sigma, 9 * sigma, 600)
        kernel = norm * np.exp(-a * (y[:, None] ** 2 + y[None, :] ** 2)
                               + b * y[:, None] * y[None, :])
        ev = np.linalg.eigvalsh(0.5 * (kernel + kernel.T) * (y[1] - y[0]))
        ev = ev[ev > 1e-15]
        s_kernel = float(-(ev * np.log2(ev)).sum())
        worst_kernel = max(worst_kernel, abs(s_kernel - entropy_td(params)))

    report("criterion 9 (property suite)",
           worst_schmidt <= 1e-9 and worst_parity <= 1e-10 and kappa_invariant
           and continuity <= 1e-12 and worst_kernel <= 1e-4,
           f"Schmidt gap {worst_schmidt:.1e}, +1-sector vs full ground energy "
           f"{worst_parity:.1e}, "
           f"kappa invariance: {kappa_invariant}, eps continuity {continuity:.1e}, "
           f"kernel-vs-closed-form entropy gap {worst_kernel:.1e}")


def test_criterion_10_perturbative_window(resonant_ground):
    worst = 0.0
    for n_atoms in (8, 32):
        for ratio in (0.1, 0.2, 0.3, 0.4):
            gs = resonant_ground(ratio, n_atoms)
            s_ed = von_neumann_entropy(partial_trace(gs, "atoms"))
            s_pert = perturbative_entropy(make_params(1, 1, ratio * LC, n_atoms))
            worst = max(worst, abs(s_ed - s_pert))
    report("criterion 10 (perturbative window)", worst <= 0.01,
           f"max |S_pert - S_ED| = {worst:.5f} over N in {{8, 32}}, "
           "ratios <= 0.4")


def test_asymptote_tracks_exact_entropy():
    # supporting check for criterion 5: the affine asymptote matches the
    # exact closed form deep inside the window
    params = make_params(1, 1, 0.0, 8)
    gap = abs(critical_asymptote(params, LC * (1 - 1e-6))
              - entropy_td(make_params(1, 1, LC * (1 - 1e-6), 8)))
    report("asymptote consistency", gap <= 0.01, f"gap {gap:.2e} bits")


@pytest.fixture(scope="module")
def ed_and_td_values():
    """{(lambda/lambda_c, measure): ([ED at N = 32, 64, 128], td)} on resonance."""
    config = SweepConfig(lambda_min=0.5, lambda_max=2.0, lambda_steps=2,
                         n_atoms=(32, 64, 128, "inf"), backend="ed",
                         measures=("s_vn", "q_avg", "ipr_inv"))
    reports, failures = run_sweep(config)
    assert not failures
    ed, td = {}, {}
    for r in reports:     # ED rows come in ascending N
        for measure in config.measures:
            key = (round(r.coupling_rel, 9), measure)
            if r.backend == "ed":
                ed.setdefault(key, []).append(getattr(r, measure))
            else:
                td[key] = getattr(r, measure)
    return {key: (ed[key], td[key]) for key in td}


@pytest.mark.parametrize("ratio, measure", [
    (0.5, "s_vn"), (0.5, "q_avg"), (0.5, "ipr_inv"), (2.0, "s_vn"), (2.0, "q_avg"),
    pytest.param(2.0, "ipr_inv", marks=pytest.mark.xfail(strict=True, reason=(
        "above lambda_c the ED IPR tends to sqrt(2 mu/(1 + mu)) ipr_td, "
        "not to ipr_td (ROADMAP open item 1)"))),
])
def test_ed_converges_to_closed_forms_as_one_over_n(ed_and_td_values, ratio, measure):
    # log2|ED - td| must fall by 1 +- 0.1 per doubling of N
    ed, td = ed_and_td_values[ratio, measure]
    slopes = np.diff(np.log2(np.abs(np.array(ed) - td)))
    assert len(slopes) == 2 and np.all(np.abs(slopes + 1.0) <= 0.1), slopes
