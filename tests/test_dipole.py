"""Double-well solver: frozen level oracles, sum-rule checks, failure modes."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from dickelab import (
    ConvergenceError,
    DomainError,
    GridSpec,
    MainText,
    SelfEnergyInBare,
    WellShape,
    resonance_energy_scale,
    solve_double_well,
    trk_sum,
)
from dickelab.dipole import MAX_POINTS, _solve_potential

# Frozen on the default 128-point DVR grid with gap_tol 1e-8; regenerate by
# solving the plain well at unit energy scale and reading off the level
# ratios. The scales agree with Richardson-extrapolated finite differences
# (see test_gap_matches_extrapolated_finite_differences).
RATIO_BETA_33 = 35.865765
RATIO_BETA_15 = 3.2396855
SCALE_BETA_15 = 1.8782956126897816
SCALE_BETA_24 = 4.618275566250673
SCALE_BETA_33 = 21.30031351359603

COARSE = GridSpec(zeta_max=6.0, points=64)


def anharmonicity(spectrum):
    """Second level spacing over the first transition, (e2 - e0) / (e1 - e0)."""
    e = spectrum.dimensionless_energies
    return (e[2] - e[0]) / (e[1] - e[0])


def test_energies_strictly_increasing(spectra):
    for spec in spectra.values():
        assert np.all(np.diff(spec.energies) > 0)


def test_resonance_scale_values(res_scales):
    assert res_scales[1.5] == pytest.approx(SCALE_BETA_15, rel=1e-9)
    assert res_scales[2.4] == pytest.approx(SCALE_BETA_24, rel=1e-9)
    assert res_scales[3.3] == pytest.approx(SCALE_BETA_33, rel=1e-9)


def test_resonance_scale_puts_first_gap_at_omega(spectra):
    for spec in spectra.values():
        assert spec.omega_m == pytest.approx(1.0, rel=1e-12)


def test_level_ratio_oracles(spectra):
    assert anharmonicity(spectra[3.3]) == pytest.approx(RATIO_BETA_33, rel=1e-5)
    assert anharmonicity(spectra[1.5]) == pytest.approx(RATIO_BETA_15, rel=1e-5)


def test_level_ratio_grid_independent(res_scales):
    """The frozen ratios survive solving on a different (coarser) grid."""
    spec = solve_double_well(
        WellShape(beta=3.3, energy_scale=res_scales[3.3]), COARSE, levels=3,
        gap_tol=1e-6,
    )
    assert anharmonicity(spec) == pytest.approx(RATIO_BETA_33, rel=1e-5)


def test_zeta_parity_selection(spectra):
    """Double-well eigenstates alternate parity, so <m|zeta|n> vanishes
    whenever m and n share parity. The grid breaks this only at roundoff."""
    for spec in spectra.values():
        z = spec.zeta_elements
        scale = np.abs(z).max()
        for m in range(spec.level_count):
            for n in range(spec.level_count):
                if (m + n) % 2 == 0:
                    assert abs(z[m, n]) <= 1e-8 * scale


def test_zeta_matrix_symmetric(spectra):
    for spec in spectra.values():
        assert np.allclose(spec.zeta_elements, spec.zeta_elements.T,
                           rtol=0, atol=1e-12)
        assert np.allclose(spec.zeta_sq_elements, spec.zeta_sq_elements.T,
                           rtol=0, atol=1e-12)


def test_ladder_elements_positive(spectra):
    for spec in spectra.values():
        assert spec.zeta01 > 0
        for n in range(spec.level_count - 1):
            assert spec.zeta_elements[n, n + 1] > 0


def test_momentum_elements_antisymmetric(spectra):
    for spec in spectra.values():
        s = spec.p_elements
        assert np.allclose(s, -s.T, rtol=0, atol=1e-12)
        assert np.all(np.diag(s) == 0.0)


def test_momentum_elements_match_direct_derivative(res_scales):
    """S_mn from the energy identity equals -<m|d/dzeta|n> computed with the
    sinc-DVR first-derivative matrix D_ij = (-1)^(i-j) / (h (i-j))."""
    beta = 2.4
    spec = solve_double_well(
        WellShape(beta=beta, energy_scale=res_scales[beta]), COARSE, levels=5,
        gap_tol=1e-6,
    )
    z, h = COARSE.axis()
    v = 0.5 * (-beta * z**2 + 0.5 * z**4)
    vals, vecs = _solve_potential(v, h, 5)
    d = np.subtract.outer(np.arange(z.size), np.arange(z.size))
    deriv = np.divide((-1.0) ** d, h * d, out=np.zeros(d.shape), where=d != 0)
    # Eigenvectors carry discrete normalization (sum of squares 1), so inner
    # products need no extra grid-step factor.
    direct = -vecs.T @ deriv @ vecs
    # Eigenvector signs are fixed independently in the two computations, so
    # compare magnitudes element by element.
    assert np.allclose(np.abs(direct), np.abs(spec.p_elements),
                       rtol=0, atol=1e-10)


def _fd_gap(beta, points, zeta_max=6.0):
    """Independent reference: e1 - e0 of the plain well at unit scale by
    second-order central differences with Dirichlet ends, returned with the
    grid step. Shift-invert Lanczos, because tridiagonal bisection loses the
    gap's last digits on grids this fine."""
    h = 2.0 * zeta_max / (points + 1)
    z = -zeta_max + h * np.arange(1, points + 1)
    v = 0.5 * (-beta * z**2 + 0.5 * z**4)
    off = np.full(points - 1, -0.5 / h**2)
    t = sp.diags([off, 1.0 / h**2 + v, off], [-1, 0, 1], format="csc")
    vals = np.sort(eigsh(t, k=2, sigma=float(v.min()) - 1.0, which="LM",
                         v0=np.ones(points) / np.sqrt(points), tol=0,
                         return_eigenvectors=False))
    return vals[1] - vals[0], h


def test_gap_matches_extrapolated_finite_differences(grid):
    """The DVR gap against finite differences at 16k and 32k points,
    Richardson-extrapolated over their O(h^2) error."""
    for beta in (1.5, 2.4, 3.3):
        (coarse, hc), (fine, hf) = _fd_gap(beta, 16000), _fd_gap(beta, 32000)
        reference = (hc**2 * fine - hf**2 * coarse) / (hc**2 - hf**2)
        spec = solve_double_well(WellShape(beta=beta, energy_scale=1.0), grid, levels=2)
        assert spec.omega_m == pytest.approx(reference, rel=1e-10)


def test_grid_points_are_capped():
    """The DVR matrix is dense, so a grid beyond MAX_POINTS is refused
    before anything is allocated."""
    assert GridSpec(points=MAX_POINTS).points == MAX_POINTS
    with pytest.raises(ValueError, match="grid points"):
        GridSpec(points=MAX_POINTS + 1)


def test_trk_sum_near_one_at_twelve_levels(spectra):
    for spec in spectra.values():
        s = trk_sum(spec)
        assert 0.99 < s <= 1.0 + 1e-9


def test_trk_partial_sums_monotone(spectra):
    for spec in spectra.values():
        e = spec.dimensionless_energies
        z0 = spec.zeta_elements[0]
        partial = np.cumsum(2.0 * (e[1:] - e[0]) * z0[1:] ** 2)
        assert np.all(np.diff(partial) >= -1e-15)
        assert partial[-1] <= 1.0 + 1e-9
        # The first transition alone respects the bound too.
        assert partial[0] <= 1.0


def test_harmonic_solver_sanity():
    """On v = zeta^2 / 2 the solver must reproduce the oscillator exactly:
    unit gaps and a TRK sum carried entirely by the first transition."""
    grid = GridSpec(zeta_max=8.0, points=128)
    z, h = grid.axis()
    vals, vecs = _solve_potential(0.5 * z**2, h, 4)
    assert np.allclose(np.diff(vals), 1.0, atol=1e-5)
    zeta01 = abs(np.sum(vecs[:, 0] * z * vecs[:, 1]))
    assert 2.0 * (vals[1] - vals[0]) * zeta01**2 == pytest.approx(1.0, abs=1e-5)
    zeta02 = abs(np.sum(vecs[:, 0] * z * vecs[:, 2]))
    assert zeta02 <= 1e-6


def test_quartic_well_beta_zero():
    """beta = 0 degenerates to the pure quartic well; still a valid solve
    with alternating parity and a finite gap."""
    spec = solve_double_well(WellShape(beta=0.0, energy_scale=1.0), COARSE,
                             levels=4, gap_tol=1e-6)
    assert spec.omega_m > 0
    assert abs(spec.zeta_elements[0, 2]) <= 1e-8
    assert spec.zeta01 > 0


def test_self_energy_convention_matches_plain_when_shift_vanishes(grid):
    for renorm in (SelfEnergyInBare(alpha=0.0, eta=1.0, omega=1.0),
                   SelfEnergyInBare(alpha=1.0, eta=0.0, omega=1.0)):
        shape = WellShape(beta=2.4, energy_scale=SCALE_BETA_24, renorm=renorm)
        plain = WellShape(beta=2.4, energy_scale=SCALE_BETA_24)
        assert shape.quadratic_coefficient() == plain.quadratic_coefficient()
        a = solve_double_well(shape, COARSE, levels=3, gap_tol=1e-6)
        b = solve_double_well(plain, COARSE, levels=3, gap_tol=1e-6)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.zeta_elements, b.zeta_elements)


def test_self_energy_shift_raises_levels():
    plain = solve_double_well(WellShape(beta=2.4, energy_scale=1.0), COARSE,
                              levels=2, gap_tol=1e-6)
    shifted = solve_double_well(
        WellShape(beta=2.4, energy_scale=1.0,
                  renorm=SelfEnergyInBare(alpha=1.0, eta=1.0, omega=1.0)),
        COARSE, levels=2, gap_tol=1e-6)
    assert shifted.energies[0] > plain.energies[0]
    assert shifted.omega_m > plain.omega_m


def test_resonance_scale_stable_under_grid_refinement(grid, res_scales):
    fine = GridSpec(zeta_max=grid.zeta_max, points=2 * grid.points)
    refined = resonance_energy_scale(2.4, 1.0, fine)
    assert abs(refined - res_scales[2.4]) / refined <= 1e-8


def test_coarse_grid_fails_convergence_gate():
    with pytest.raises(ConvergenceError):
        solve_double_well(WellShape(beta=3.3, energy_scale=1.0),
                          GridSpec(zeta_max=6.0, points=24), levels=2,
                          gap_tol=1e-8)


def test_narrow_box_fails_domain_gate():
    with pytest.raises(DomainError):
        solve_double_well(WellShape(beta=3.3, energy_scale=1.0),
                          GridSpec(zeta_max=2.5, points=48), levels=6,
                          gap_tol=1.0)


def test_level_count_validation():
    with pytest.raises(ValueError):
        solve_double_well(WellShape(beta=2.4, energy_scale=1.0), COARSE,
                          levels=1)
    with pytest.raises(ValueError):
        solve_double_well(WellShape(beta=2.4, energy_scale=1.0),
                          GridSpec(zeta_max=6.0, points=40), levels=20,
                          gap_tol=1.0)


def test_non_positive_gap_tol_is_rejected_before_any_solve(monkeypatch):
    """gap_tol <= 0 is a bad input, not a convergence failure of the grid."""
    monkeypatch.setattr("dickelab.dipole._solve_potential",
                        lambda *args: pytest.fail("solved with a bad gap_tol"))
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="gap_tol"):
            solve_double_well(WellShape(beta=2.4, energy_scale=1.0), COARSE,
                              levels=2, gap_tol=tol)


def test_grid_and_shape_validation():
    with pytest.raises(ValueError):
        GridSpec(zeta_max=-1.0)
    with pytest.raises(ValueError):
        GridSpec(zeta_max=6.0, points=2)
    with pytest.raises(ValueError):
        WellShape(beta=2.4, energy_scale=0.0)


def test_well_shape_refuses_a_non_finite_energy_scale():
    for scale in (np.inf, np.nan):
        with pytest.raises(ValueError):
            WellShape(beta=2.4, energy_scale=scale)


def test_well_shape_refuses_a_non_finite_beta():
    """A non-finite beta is refused before any solve, by a message naming
    it, where the DVR eigensolve would fail on the infs or NaNs."""
    for beta in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="beta"):
            WellShape(beta=beta, energy_scale=1.0)


def test_main_text_is_default_convention():
    shape = WellShape(beta=1.0, energy_scale=1.0)
    assert isinstance(shape.renorm, MainText)
    assert shape.quadratic_coefficient() == -1.0
