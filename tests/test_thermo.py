"""Phase classification, branch continuity, observables, second derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelab import (
    Phase,
    PhaseError,
    abnormal_phase,
    analytic_second_derivative,
    classify,
    derive_couplings,
    evaluate,
    eta_critical,
    ground_density_second_derivative,
    limit_ground_density,
    normal_phase,
)
from dickelab.thermo import DEFAULT_FD_STEP

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_classification_flips_at_critical_coupling(make_params):
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    below = derive_couplings(p.with_(eta=eta_c * (1.0 - 1e-6)))
    above = derive_couplings(p.with_(eta=eta_c * (1.0 + 1e-6)))
    at = derive_couplings(p.with_(eta=eta_c))
    assert classify(below, p.omega_m) is Phase.NORMAL
    assert classify(above, p.omega_m) is Phase.ABNORMAL
    assert classify(at, p.omega_m) is Phase.CRITICAL


def test_zero_coupling_is_normal(make_params):
    p = make_params(beta=3.3, eta=0.0)
    c, point = evaluate(p)
    assert point.phase is Phase.NORMAL
    assert math.isinf(c.tau)


def test_branch_guards(make_params):
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    deep_normal = derive_couplings(p.with_(eta=0.5 * eta_c))
    deep_abnormal = derive_couplings(p.with_(eta=1.5 * eta_c))
    with pytest.raises(PhaseError):
        abnormal_phase(deep_normal, p.omega_m)
    with pytest.raises(PhaseError):
        normal_phase(deep_abnormal, p.omega_m)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_branches_meet_at_the_transition(make_params, alpha):
    """Both branch formulas are valid exactly at tau = 1 and must agree."""
    p = make_params(beta=2.4, eta=0.0, alpha=alpha)
    p = p.with_(eta=eta_critical(p))
    c = derive_couplings(p)
    lo = normal_phase(c, p.omega_m)
    hi = abnormal_phase(c, p.omega_m)
    assert abs(lo.e_plus - hi.e_plus) <= 1e-9
    assert abs(lo.e_minus - hi.e_minus) <= 1e-9
    assert lo.e_minus <= 1e-9
    # Closed form for the surviving branch at the critical point.
    expected = math.sqrt(alpha * (2.0 - alpha) * p.omega_m**2 + c.omega_alpha**2)
    assert lo.e_plus == pytest.approx(expected, rel=1e-9)


def test_soft_mode_vanishes_only_at_transition(make_params):
    p = make_params(beta=2.4, eta=0.0, alpha=0.3)
    eta_c = eta_critical(p)
    for eta in (0.7 * eta_c, 0.97 * eta_c, 1.03 * eta_c, 1.6 * eta_c):
        _, point = evaluate(p.with_(eta=eta))
        assert point.e_minus > 1e-3
        assert point.e_plus > point.e_minus


def test_normal_phase_has_no_macroscopic_fields(make_params):
    _, point = evaluate(make_params(beta=3.3, eta=0.9, alpha=0.8))
    assert point.phase is Phase.NORMAL
    assert point.pi_average == 0.0
    assert point.p_t_average == 0.0
    assert point.ground_density == 0.0


def test_abnormal_observables_closed_form(make_params):
    p0 = make_params(beta=2.4, eta=0.0)
    eta = 1.4 * eta_critical(p0)
    for alpha in ALPHAS:
        p = p0.with_(eta=eta, alpha=alpha)
        c, point = evaluate(p)
        tau = c.tau
        expected = alpha * p.rho_d2 * math.sqrt(1.0 - tau**2)
        assert point.phase is Phase.ABNORMAL
        assert point.pi_average == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert point.p_t_average == -point.pi_average
    # The Coulomb-gauge point has no transverse displacement at all.
    _, coulomb = evaluate(p0.with_(eta=eta, alpha=0.0))
    assert coulomb.pi_average == 0.0


def test_macroscopic_field_at_small_gauges(make_params):
    """d<Pi> = alpha rho d^2 sqrt(1 - tau^2) holds to rel 1e-12 at small
    gauges too: alpha is the couplings' own, not recovered from C_alpha,
    which loses every digit as alpha -> 0."""
    p0 = make_params(beta=2.4, eta=0.0)
    eta = 1.5 * eta_critical(p0)
    for alpha in (1e-9, 1e-6, 1e-4):
        p = p0.with_(eta=eta, alpha=alpha)
        c, point = evaluate(p)
        expected = alpha * p.rho_d2 * math.sqrt(1.0 - c.tau**2)
        assert point.pi_average == pytest.approx(expected, rel=1e-12, abs=0)


def test_macroscopic_field_ratio_between_gauges(make_params):
    p0 = make_params(beta=2.4, eta=0.0)
    eta = 1.3 * eta_critical(p0)
    _, half = evaluate(p0.with_(eta=eta, alpha=0.5))
    _, full = evaluate(p0.with_(eta=eta, alpha=1.0))
    assert half.pi_average == pytest.approx(0.5 * full.pi_average, rel=1e-12)


def test_ground_density_profile(make_params):
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    assert limit_ground_density(p, 0.5 * eta_c) == 0.0
    assert limit_ground_density(p, eta_c) == 0.0
    tau = 0.5  # eta = eta_c / sqrt(tau) gives exactly this tau
    eta = eta_c / math.sqrt(tau)
    expected = -(p.omega_m / (4.0 * tau)) * (1.0 - tau) ** 2
    assert limit_ground_density(p, eta) == pytest.approx(expected, rel=1e-12)
    assert limit_ground_density(p, eta) < 0.0


def test_ground_density_is_alpha_independent(make_params):
    p0 = make_params(beta=3.3, eta=0.0)
    eta = 1.5 * eta_critical(p0)
    values = {limit_ground_density(p0.with_(alpha=a), eta) for a in ALPHAS}
    assert len(values) == 1


def test_renormalized_material_frequency(make_params):
    alpha = 0.5
    p = make_params(beta=2.4, eta=0.0, alpha=alpha)
    eta_c = eta_critical(p)
    c, below = evaluate(p.with_(eta=0.8 * eta_c))
    # Normal side: omega_tilde^2 = omega_m^2 (1 - (1 - alpha^2) / tau).
    expected_below = p.omega_m * math.sqrt(1.0 - (1.0 - alpha**2) / c.tau)
    assert below.renormalized_material_frequency == pytest.approx(
        expected_below, rel=1e-12)
    c2, above = evaluate(p.with_(eta=1.25 * eta_c))
    # Abnormal side: (omega_m/tau)^2 (1 - (1 - alpha^2) tau^2).
    expected_above = (p.omega_m / c2.tau) * math.sqrt(
        1.0 - (1.0 - alpha**2) * c2.tau**2)
    assert above.renormalized_material_frequency == pytest.approx(
        expected_above, rel=1e-12)
    # The multipolar point keeps the bare transition energy on the normal side.
    _, below_m = evaluate(p.with_(eta=0.8 * eta_c, alpha=1.0))
    assert below_m.renormalized_material_frequency == pytest.approx(
        p.omega_m, rel=1e-12)


def test_finite_count_adds_polariton_zero_point(make_params):
    p = make_params(beta=2.4, eta=0.6, alpha=1.0)
    _, bulk = evaluate(p)
    _, with_count = evaluate(p, n_dipoles=4)
    assert bulk.ground_density == 0.0
    assert with_count.ground_density != 0.0
    _, with_more = evaluate(p, n_dipoles=8)
    assert abs(with_more.ground_density) < abs(with_count.ground_density)


def test_second_derivative_matches_analytic_away_from_transition(make_params):
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    grid = np.linspace(0.2, 2.0, 46) * eta_c
    pairs = ground_density_second_derivative(p, grid)
    checked = 0
    for eta, fd in pairs:
        if abs(eta - eta_c) < 0.05 * eta_c or math.isnan(fd):
            continue
        assert fd == pytest.approx(analytic_second_derivative(p, eta), abs=5e-9)
        checked += 1
    assert checked > 30


def test_second_derivative_zero_on_normal_side(make_params):
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    pairs = ground_density_second_derivative(p, np.linspace(0.1, 0.9, 9) * eta_c)
    assert all(v == 0.0 for _, v in pairs)
    assert all(analytic_second_derivative(p, e) == 0.0
               for e in np.linspace(0.1, 0.9, 9) * eta_c)


def test_second_derivative_jump_size(make_params):
    """The discontinuity at eta_c is -2 omega_m / eta_c^2 in the limit."""
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    just_above = analytic_second_derivative(p, eta_c * (1.0 + 1e-9))
    assert just_above == pytest.approx(-2.0 * p.omega_m / eta_c**2, rel=1e-6)


def test_second_derivative_tags_transition_strip(make_params):
    p = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p)
    step = DEFAULT_FD_STEP
    grid = np.array([eta_c - 5 * step, eta_c - 0.4 * step, eta_c + 0.4 * step,
                     eta_c + 5 * step])
    values = dict(ground_density_second_derivative(p, grid))
    assert math.isnan(values[grid[1]])
    assert math.isnan(values[grid[2]])
    assert not math.isnan(values[grid[0]])
    assert not math.isnan(values[grid[3]])


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.01, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_phase_point_invariants(make_params, eta, alpha):
    p = make_params(beta=2.4, eta=eta, alpha=alpha)
    c, point = evaluate(p)
    assert point.e_plus >= point.e_minus >= 0.0
    assert np.isfinite(point.e_plus)
    assert point.pi_average * point.p_t_average <= 0.0
    assert point.ground_density <= 0.0
    if c.tau > 1.0 + 1e-9:
        assert point.phase is Phase.NORMAL
    elif c.tau < 1.0 - 1e-9:
        assert point.phase is Phase.ABNORMAL
