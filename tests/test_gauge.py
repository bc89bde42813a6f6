"""Gauge-family couplings: limits, analytic derivatives, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelab import (
    RootError,
    derive_couplings,
    eta_critical,
    jc_gauge,
    mode_frequency,
    trk_bound_holds,
)
from dickelab.gauge import JC_ALPHA_TOL

# Measured via eta_critical on the frozen resonant spectra.
ETA_C_BETA_24 = 1.2251892994757823
ETA_C_BETA_33 = 2.0287940934109834


def test_multipolar_limit_kills_momentum_channel(make_params):
    c = derive_couplings(make_params(eta=0.8, alpha=1.0))
    assert c.g_prime_alpha == 0.0
    assert c.c_alpha == 0.0
    assert c.omega_alpha == pytest.approx(1.0, rel=1e-14)
    assert c.g_alpha > 0


def test_coulomb_limit_kills_position_channel(make_params):
    p = make_params(eta=0.8, alpha=0.0)
    c = derive_couplings(p)
    assert c.g_alpha == 0.0
    assert c.g_prime_alpha > 0
    assert c.omega_alpha == pytest.approx(math.sqrt(1.0 + 0.8**2), rel=1e-14)


def test_mode_frequency_bounds(make_params):
    for eta in (0.0, 0.3, 1.7):
        for alpha in (0.0, 0.4, 1.0):
            w = mode_frequency(make_params(eta=eta, alpha=alpha))
            assert w >= 1.0 - 1e-15
            if eta == 0.0 or alpha == 1.0:
                assert w == pytest.approx(1.0, abs=1e-15)
            else:
                assert w > 1.0


def test_decoupling_at_zero_eta(make_params):
    c = derive_couplings(make_params(eta=0.0, alpha=0.37))
    assert c.g_alpha == 0.0
    assert c.g_prime_alpha == 0.0
    assert c.c_alpha == 0.0
    assert c.rho_d2 == 0.0
    assert math.isinf(c.tau)


def test_tau_is_gauge_independent(make_params):
    taus = [derive_couplings(make_params(eta=0.9, alpha=a)).tau
            for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert np.ptp(taus) <= 1e-14 * taus[0]


def test_tau_reaches_one_at_critical_coupling(make_params):
    for beta, eta_c in ((2.4, ETA_C_BETA_24), (3.3, ETA_C_BETA_33)):
        p = make_params(beta=beta, eta=eta_c)
        assert derive_couplings(p).tau == pytest.approx(1.0, rel=1e-12)
        assert eta_critical(p) == pytest.approx(eta_c, rel=1e-12)


def test_critical_coupling_closed_form(make_params):
    """eta_c^2 = omega_m E / (2 omega^2 zeta01^2) for the resonant well."""
    p = make_params(beta=2.4, eta=0.0)
    expected = math.sqrt(p.energy_scale / (2.0 * p.zeta01**2))
    assert eta_critical(p) == pytest.approx(expected, rel=1e-14)


def test_reduced_identities(make_params):
    p = make_params(beta=3.3, eta=1.3, alpha=0.6, n_dipoles=5)
    assert p.rho_d2 == pytest.approx(
        1.3**2 * p.zeta01**2 / p.energy_scale, rel=1e-14)
    assert p.d_sqrt_rho**2 == pytest.approx(p.rho_d2, rel=1e-14)
    assert p.lambda_a * math.sqrt(2.0 * 5 * p.energy_scale) == pytest.approx(
        1.3, rel=1e-14)


def test_jc_gauge_weak_coupling_limit(make_params):
    """At eta -> 0 on resonance the symmetric point sits at alpha = 1/2."""
    assert jc_gauge(make_params(beta=2.4, eta=0.0)) == pytest.approx(
        0.5, abs=1e-9)


def test_jc_gauge_balances_couplings(make_params):
    for eta in (0.2, 0.8, 1.4):
        p = make_params(beta=2.4, eta=eta)
        a = jc_gauge(p)
        c = derive_couplings(p.with_(alpha=a))
        assert c.g_alpha == pytest.approx(c.g_prime_alpha, rel=1e-9)


def test_jc_gauge_monotone_toward_coulomb(make_params):
    values = [jc_gauge(make_params(beta=2.4, eta=e))
              for e in np.linspace(0.0, 2.0, 21)]
    # At eta = 0 the root is omega_m / (omega + omega_m), which is 1/2 only
    # up to the rounding of omega_m at resonance, so it is checked against
    # that closed form within bisect's xtol plus its default rtol (4 eps).
    omega_m = make_params(beta=2.4).omega_m
    root = omega_m / (1.0 + omega_m)
    assert abs(values[0] - root) <= JC_ALPHA_TOL + 4 * np.finfo(float).eps * root
    assert all(0.0 < a < 0.5 for a in values[1:])
    assert np.all(np.diff(values) <= 1e-12)


def test_coupling_derivatives_match_finite_differences(make_params):
    """Central differences of (omega_alpha, g, g') against the hand
    derivatives of the closed forms, well inside the alpha interval."""
    p0 = make_params(beta=2.4, eta=1.1, alpha=0.0)
    eta, omega = 1.1, 1.0
    step = 1e-6
    for alpha in (0.2, 0.5, 0.8):
        up = derive_couplings(p0.with_(alpha=alpha + step))
        dn = derive_couplings(p0.with_(alpha=alpha - step))
        mid = derive_couplings(p0.with_(alpha=alpha))

        u = 1.0 + eta**2 * (1.0 - alpha) ** 2
        d_omega = -omega * eta**2 * (1.0 - alpha) / math.sqrt(u)
        fd_omega = (up.omega_alpha - dn.omega_alpha) / (2.0 * step)
        assert fd_omega == pytest.approx(d_omega, abs=1e-6)

        # g = d sqrt(rho/N) sqrt(omega_alpha/2) * alpha
        root = p0.d_sqrt_rho
        d_g = root * (math.sqrt(mid.omega_alpha / 2.0)
                      + alpha * d_omega / (2.0 * math.sqrt(2.0 * mid.omega_alpha)))
        fd_g = (up.g_alpha - dn.g_alpha) / (2.0 * step)
        assert fd_g == pytest.approx(d_g, abs=1e-6)

        # g' = d sqrt(rho) (1 - alpha) omega_m / sqrt(2 omega_alpha)
        d_gp = root * p0.omega_m * (
            -1.0 / math.sqrt(2.0 * mid.omega_alpha)
            - (1.0 - alpha) * d_omega
            / (2.0 * mid.omega_alpha * math.sqrt(2.0 * mid.omega_alpha)))
        fd_gp = (up.g_prime_alpha - dn.g_prime_alpha) / (2.0 * step)
        assert fd_gp == pytest.approx(d_gp, abs=1e-6)


def test_trk_bound_holds_on_solved_spectra(make_params):
    for beta in (1.5, 2.4, 3.3):
        assert trk_bound_holds(make_params(beta=beta, eta=0.7))


def test_trk_bound_detects_inflated_moment(make_params):
    import dataclasses

    # The first transition carries about a quarter of the full sum here, so
    # tripling the dipole moment pushes the partial sum past 1.
    p = make_params(beta=3.3, eta=0.7)
    doctored = dataclasses.replace(
        p.spectrum, zeta_elements=3.0 * p.spectrum.zeta_elements)
    assert not trk_bound_holds(p.with_(spectrum=doctored))


def test_jc_gauge_requires_bracketing_sign_change(make_params):
    import dataclasses

    p = make_params(beta=2.4, eta=0.5)
    inverted = dataclasses.replace(p.spectrum, energies=p.spectrum.energies[::-1].copy())
    with pytest.raises(RootError):
        jc_gauge(p.with_(spectrum=inverted))


def test_params_validation(make_params):
    with pytest.raises(ValueError):
        make_params(eta=-0.1)
    with pytest.raises(ValueError):
        make_params(n_dipoles=0)
    p = make_params(eta=1.0)
    with pytest.raises(ValueError):
        p.with_(omega=0.0)


def test_missing_spectrum_blocks_derived_quantities(make_params):
    p = make_params(eta=1.0).with_(spectrum=None)
    with pytest.raises(AttributeError):
        _ = p.omega_m


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_coupling_set_invariants(make_params, eta, alpha):
    c = derive_couplings(make_params(beta=2.4, eta=eta, alpha=alpha))
    assert c.omega_alpha >= 1.0 - 1e-15
    assert c.g_alpha >= 0.0
    assert c.g_prime_alpha >= 0.0
    assert c.rho_d2 >= 0.0
    assert c.c_alpha >= 0.0
    if c.rho_d2 > 0.0:
        assert c.tau == pytest.approx(1.0 / (2.0 * c.rho_d2), rel=1e-12)
    else:
        assert math.isinf(c.tau)
