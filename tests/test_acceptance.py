"""Acceptance suite: one test per release gate, numbered in order.

Each test prints one pass/fail line under pytest -v. Tolerances are pinned
here and must not be loosened; module tests carry the finer-grained checks.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dickelab import (
    BilinearForm,
    CollectiveSpin,
    HilbertConfig,
    Phase,
    abnormal_phase,
    analytic_second_derivative,
    assemble,
    classify,
    derive_couplings,
    dicke_two_level,
    eta_critical,
    evaluate,
    ground_density_second_derivative,
    jc_gauge,
    lowest_eigenvalues,
    normal_phase,
    polariton_closed_form,
    second_derivative_sweep,
    transition_sweep,
    trk_sum,
    williamson_frequencies,
)
from dickelab.cli import main as cli_main


def test_criterion_01_dual_route_diagonalization_equivalence():
    """1000 random positive-definite forms: both routes within 1e-10
    relative, in under a second."""
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    for _ in range(1000):
        w, wp = rng.uniform(0.1, 10.0, size=2)
        bound = 0.5 * math.sqrt(w * wp)
        g, gp = rng.uniform(-0.95, 0.95, size=2) * bound
        form = BilinearForm(w=w, w_prime=wp, g=g, g_prime=gp)
        cf = polariton_closed_form(form)
        wf = williamson_frequencies(form)
        assert abs(cf.e_plus - wf.e_plus) <= 1e-10 * abs(cf.e_plus)
        assert abs(cf.e_minus - wf.e_minus) <= 1e-10 * max(abs(cf.e_minus), 1e-3)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_anharmonicity_reproduction(spectra):
    for beta, target in ((3.3, 36.0), (1.5, 3.2)):
        e = spectra[beta].dimensionless_energies
        ratio = (e[2] - e[0]) / (e[1] - e[0])
        assert abs(ratio - target) <= 0.05 * target


def test_criterion_03_trk_sum_rule(spectra):
    for beta in (1.5, 2.4, 3.3):
        spec = spectra[beta]
        s = trk_sum(spec)
        assert 0.99 < s <= 1.0
        e = spec.dimensionless_energies
        partial = 2.0 * (e[1] - e[0]) * spec.zeta01**2
        assert partial <= 1.0


def test_criterion_04_transition_location_and_branch_matching(make_params):
    p0 = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p0)
    expected = math.sqrt(p0.omega_m * p0.energy_scale
                         / (2.0 * p0.omega**2 * p0.zeta01**2))
    assert eta_c == pytest.approx(expected, rel=1e-12)
    below = derive_couplings(p0.with_(eta=eta_c * (1.0 - 1e-6)))
    above = derive_couplings(p0.with_(eta=eta_c * (1.0 + 1e-6)))
    assert classify(below, p0.omega_m) is Phase.NORMAL
    assert classify(above, p0.omega_m) is Phase.ABNORMAL
    for alpha in (0.0, 0.5, 1.0):
        p = p0.with_(eta=eta_c, alpha=alpha)
        c = derive_couplings(p)
        lo = normal_phase(c, p.omega_m)
        hi = abnormal_phase(c, p.omega_m)
        assert abs(lo.e_plus - hi.e_plus) <= 1e-9
        assert abs(lo.e_minus - hi.e_minus) <= 1e-9
        closed = math.sqrt(alpha * (2.0 - alpha) * p.omega_m**2
                           + c.omega_alpha**2)
        assert abs(lo.e_plus - closed) <= 1e-9


def test_criterion_05_unique_alpha_independent_transition(make_params):
    p0 = make_params(beta=2.4, eta=0.0)
    eta_c = eta_critical(p0)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):

        def soft_mode(eta, a=alpha):
            _, point = evaluate(p0.with_(eta=float(eta), alpha=a))
            return point.e_minus

        res = minimize_scalar(soft_mode, bounds=(0.8 * eta_c, 1.2 * eta_c),
                              method="bounded",
                              options={"xatol": 1e-10})
        assert abs(res.x - eta_c) <= 1e-6
        # E- ~ sqrt|eta - eta_c| near the cusp, so a 1e-8 miss in x still
        # leaves E- around 1e-4; the boundary point itself is exactly zero.
        assert soft_mode(res.x) <= 1e-3
        assert soft_mode(eta_c) == 0.0


def test_criterion_06_macroscopic_observables(make_params):
    p0 = make_params(beta=2.4, eta=0.0)
    eta = 1.5 * eta_critical(p0)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = p0.with_(eta=eta, alpha=alpha)
        c, point = evaluate(p)
        assert point.phase is Phase.ABNORMAL
        expected = alpha * p.rho_d2 * math.sqrt(1.0 - c.tau**2)
        assert point.pi_average == pytest.approx(expected, rel=1e-13, abs=1e-15)
        assert point.p_t_average == -point.pi_average
    _, coulomb = evaluate(p0.with_(eta=eta, alpha=0.0))
    assert coulomb.pi_average == 0.0


def test_criterion_07_jc_gauge_limit_and_monotonicity(make_params):
    p = make_params(beta=2.4, eta=0.0)
    assert jc_gauge(p) == pytest.approx(0.5, abs=1e-9)
    values = [jc_gauge(p.with_(eta=e)) for e in np.linspace(0.0, 2.0, 41)]
    assert np.all(np.diff(values) <= 1e-12)


def test_criterion_08_finite_count_gauge_invariance(make_params, grid):
    from dickelab import GridSpec, WellShape, solve_double_well

    spec = solve_double_well(
        WellShape(beta=3.3, energy_scale=make_params(beta=3.3).energy_scale),
        grid, levels=10)
    cfg = HilbertConfig(2, 10, 60)
    for eta in (0.3, 0.8, 1.2):
        p = make_params(beta=3.3, eta=eta, alpha=0.0, n_dipoles=2).with_(
            spectrum=spec)
        g0 = lowest_eigenvalues(assemble(cfg, p, spec), 1)[0]
        g1 = lowest_eigenvalues(assemble(cfg, p.with_(alpha=1.0), spec), 1)[0]
        assert abs(g0 - g1) <= 1e-5


def test_criterion_09_two_level_tracks_exact_transition_energy(make_params):
    etas = np.linspace(0.0, 1.5, 7)
    for n in (1, 2, 3):
        cfg = HilbertConfig(n, 8, 40)
        p = make_params(beta=3.3, eta=0.0, alpha=1.0, n_dipoles=n)
        rows = transition_sweep(cfg, p, etas)
        gaps = {}
        for r in rows:
            gaps.setdefault(r["model"], {})[r["eta"]] = r["gap_over_omega"]
        for eta in etas:
            exact = gaps["exact"][eta]
            two = gaps["two_level"][eta]
            assert abs(two - exact) <= 0.02 * abs(exact)


def test_criterion_10_second_derivative_curves_intersect_at_transition(
        make_params):
    p0 = make_params(beta=3.3, eta=0.0, alpha=1.0)
    eta_c = eta_critical(p0)
    h = 0.0125
    etas = np.linspace(1.9, 2.15, 21)
    curves = {}
    for n in (1, 2, 3, 4):
        cfg = HilbertConfig(n, 2, 100, representation=CollectiveSpin())
        pairs = second_derivative_sweep(cfg, p0.with_(n_dipoles=n), etas)
        curves[n] = np.array([v for _, v in pairs])
    interior = etas[1:-1]
    counts = list(curves)
    for i, na in enumerate(counts):
        for nb in counts[i + 1:]:
            diff = curves[na] - curves[nb]
            signs = np.sign(diff)
            crossings = [
                interior[k] + (interior[k + 1] - interior[k])
                * abs(diff[k]) / (abs(diff[k]) + abs(diff[k + 1]))
                for k in range(len(diff) - 1)
                if signs[k] != 0 and signs[k + 1] != 0 and signs[k] != signs[k + 1]
            ]
            assert crossings, f"curves N={na} and N={nb} never intersect"
            nearest = min(crossings, key=lambda x: abs(x - eta_c))
            assert abs(nearest - eta_c) <= 2.0 * h

    fd = ground_density_second_derivative(p0, etas)
    for eta, value in fd:
        if eta <= eta_c - 2.0 * 1e-3:
            assert value == 0.0
        elif math.isnan(value):
            continue
        else:
            assert value == pytest.approx(
                analytic_second_derivative(p0, eta), abs=1e-6)


def test_criterion_11_holstein_primakoff_convergence(make_params):
    p0 = make_params(beta=3.3, eta=0.0, alpha=1.0, n_dipoles=24)
    eta = 0.5 * eta_critical(p0)
    p = p0.with_(eta=eta)
    cfg = HilbertConfig(24, 2, 60, representation=CollectiveSpin())
    vals = lowest_eigenvalues(dicke_two_level(cfg, p, p.spectrum), 2)
    gap = vals[1] - vals[0]
    c = derive_couplings(p)
    point = normal_phase(c, p.omega_m)
    assert abs(gap - point.e_minus) <= 0.01 * point.e_minus


def test_criterion_12_reruns_byte_identical(tmp_path):
    args = ["--command", "fig1", "eta_grid=0,1.5,7", "grid_points=64",
            "gap_tol=1e-6"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
