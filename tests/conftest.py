"""Shared fixtures: cached double-well spectra at the resonance energy scale.

A well solve on the default 128-point DVR grid takes milliseconds; each
(beta, levels) combination is still solved once per session and reused
everywhere, so every test sees the same frozen spectra.
"""

import pytest

from dickelab import (
    GridSpec,
    ReducedParams,
    WellShape,
    resonance_energy_scale,
    solve_double_well,
)

BETAS = (1.5, 2.4, 3.3)


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def res_scales(grid):
    """beta -> energy scale placing the first dipole transition at omega = 1."""
    return {b: resonance_energy_scale(b, 1.0, grid) for b in BETAS}


@pytest.fixture(scope="session")
def spectra(grid, res_scales):
    """beta -> 12-level resonant spectrum of the plain double well."""
    out = {}
    for b in BETAS:
        shape = WellShape(beta=b, energy_scale=res_scales[b])
        out[b] = solve_double_well(shape, grid, levels=12)
    return out


@pytest.fixture(scope="session")
def make_params(res_scales, spectra):
    """Factory for a ReducedParams point on a cached resonant spectrum."""

    def build(beta=2.4, eta=0.0, alpha=1.0, n_dipoles=1):
        return ReducedParams(
            omega=1.0,
            beta=beta,
            energy_scale=res_scales[beta],
            eta=eta,
            n_dipoles=n_dipoles,
            alpha=alpha,
            spectrum=spectra[beta],
        )

    return build
