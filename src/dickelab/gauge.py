"""Reduced parameter point and derived gauge couplings.

All microscopic constants (charge, mass, dipole density) are eliminated in
favour of the dimensionless coupling eta, the well shape beta, and the energy
scale E. The replacement identities used throughout are

    e^2 rho / m  = eta^2 omega^2
    rho d^2      = eta^2 omega^2 zeta01^2 / E
    d sqrt(rho)  = eta omega |zeta01| / sqrt(E)

They are validated by two independent routes in the test suite: decoupling at
eta = 0 and gauge independence of the exact finite-N spectrum.
"""

import math
from dataclasses import dataclass, replace

from scipy.optimize import bisect

from .dipole import DipoleSpectrum
from .errors import RootError

JC_ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class ReducedParams:
    """One dimensionless model point; the cavity frequency omega is the unit."""

    omega: float
    beta: float
    energy_scale: float
    eta: float
    n_dipoles: int
    alpha: float
    spectrum: DipoleSpectrum | None = None

    def __post_init__(self):
        if not 0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and nonnegative")
        if not (0 < self.omega < math.inf and 0 < self.energy_scale < math.inf):
            raise ValueError("omega and energy_scale must be finite and positive")
        if self.n_dipoles < 1:
            raise ValueError("n_dipoles must be at least 1")

    def with_(self, **changes):
        return replace(self, **changes)

    @property
    def omega_m(self):
        """Material transition energy e1 - e0 (absolute units)."""
        return self.spectrum.omega_m

    @property
    def zeta01(self):
        return self.spectrum.zeta01

    @property
    def rho_d2(self):
        return self.eta**2 * self.omega**2 * self.zeta01**2 / self.energy_scale

    @property
    def d_sqrt_rho(self):
        return self.eta * self.omega * abs(self.zeta01) / math.sqrt(self.energy_scale)

    @property
    def lambda_a(self):
        """Per-dipole vector-potential amplitude e r0 / sqrt(2 omega v)."""
        return self.eta * math.sqrt(
            self.omega / (2.0 * self.n_dipoles * self.energy_scale)
        )


@dataclass(frozen=True)
class CouplingSet:
    omega_alpha: float
    c_alpha: float
    g_alpha: float
    g_prime_alpha: float
    tau: float
    rho_d2: float


def mode_frequency(params: ReducedParams, alpha: float | None = None) -> float:
    """Renormalized mode frequency omega_alpha = omega sqrt(1 + eta^2 (1-alpha)^2)."""
    a = params.alpha if alpha is None else alpha
    return params.omega * math.sqrt(1.0 + params.eta**2 * (1.0 - a) ** 2)


def derive_couplings(params: ReducedParams) -> CouplingSet:
    """All coupling constants of the alpha-gauge Dicke Hamiltonian.

    tau = omega_m / (2 rho d^2) is the distance from the transition; it is
    reported as +inf at eta = 0 where rho d^2 vanishes.
    """
    a = params.alpha
    omega_alpha = mode_frequency(params)
    # Plain floats so a subnormal rho d^2 overflows tau to inf silently
    # instead of tripping numpy's overflow warning.
    rho_d2 = float(params.rho_d2)
    c_alpha = 0.5 * rho_d2 * (1.0 - a**2)
    g_alpha = a * params.d_sqrt_rho * math.sqrt(omega_alpha / 2.0)
    g_prime = (1.0 - a) * params.omega_m * params.d_sqrt_rho / math.sqrt(2.0 * omega_alpha)
    tau = float(params.omega_m) / (2.0 * rho_d2) if rho_d2 > 0 else math.inf
    return CouplingSet(
        omega_alpha=omega_alpha,
        c_alpha=c_alpha,
        g_alpha=g_alpha,
        g_prime_alpha=g_prime,
        tau=tau,
        rho_d2=rho_d2,
    )


def jc_gauge(params: ReducedParams) -> float:
    """Gauge value at which counter-rotating bilinear couplings cancel.

    Solves alpha * omega_alpha(alpha) = (1 - alpha) * omega_m on [0, 1] by
    bisection; this is exactly g_alpha = g'_alpha. The alpha field of params
    is ignored.
    """
    omega_m = params.omega_m

    def condition(a):
        return a * mode_frequency(params, a) - (1.0 - a) * omega_m

    lo, hi = condition(0.0), condition(1.0)
    if lo * hi > 0:
        raise RootError("no sign change of the counter-rotating condition on [0, 1]")
    return float(bisect(condition, 0.0, 1.0, xtol=JC_ALPHA_TOL))


def trk_bound_holds(params: ReducedParams) -> bool:
    """Partial f-sum check: 1 >= 2 (e1 - e0) zeta01^2 in dimensionless units."""
    s = params.spectrum
    e = s.dimensionless_energies
    return 2.0 * (e[1] - e[0]) * s.zeta01**2 <= 1.0


def eta_critical(params: ReducedParams) -> float:
    """Coupling at which tau = 1, i.e. omega_m = 2 rho d^2.

    eta_c = sqrt(omega_m E / (2 omega^2 zeta01^2)); independent of alpha and
    of the eta stored in params.
    """
    return math.sqrt(
        params.omega_m * params.energy_scale / (2.0 * params.omega**2 * params.zeta01**2)
    )
