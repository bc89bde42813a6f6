"""Thermodynamic-limit phase analysis of the alpha-gauge Dicke model.

Both phase branches reduce the Holstein-Primakoff bilinear Hamiltonian to the
generic two-oscillator form and delegate to oscdiag. The normal branch
renormalizes the material frequency; the abnormal branch first displaces the
material mode, which rescales both couplings. tau = omega_m / (2 rho d^2)
separates the phases: normal for tau > 1, abnormal for tau < 1.
"""

import enum
import math
from dataclasses import dataclass

from .errors import PhaseError
from .gauge import CouplingSet, ReducedParams, derive_couplings, eta_critical
from .oscdiag import BilinearForm, polariton_closed_form

CRITICAL_TAU_TOL = 1e-9
DEFAULT_FD_STEP = 1e-3


class Phase(enum.Enum):
    NORMAL = "normal"
    CRITICAL = "critical"
    ABNORMAL = "abnormal"


@dataclass(frozen=True)
class PhasePoint:
    """Polariton energies and macroscopic observables at one parameter point.

    ground_density is the ground energy density (G_s - N eps0) / N with
    G_s = G - rho d^2 / 2; the dipole zero-point offset eps0 is excluded
    because it is grid-convention dependent and cancels in every comparison.
    When built without a dipole count only the extensive (N -> infinity) part
    is reported; with one, the O(1/N) polariton zero-point is included.
    pi_average stores the plotted combination d*<Pi> (and p_t_average the
    matching d*<P_T> = -pi_average).
    """

    phase: Phase
    e_plus: float
    e_minus: float
    ground_density: float
    pi_average: float
    p_t_average: float
    renormalized_material_frequency: float


def classify(couplings: CouplingSet, omega_m: float) -> Phase:
    """Phase label from the sign of omega_m - 2 rho d^2 at relative
    tolerance CRITICAL_TAU_TOL, which the branch guards also read."""
    margin = omega_m - 2.0 * couplings.rho_d2
    if margin > CRITICAL_TAU_TOL * omega_m:
        return Phase.NORMAL
    if margin < -CRITICAL_TAU_TOL * omega_m:
        return Phase.ABNORMAL
    return Phase.CRITICAL


def _rescaled_coupling(scale_sq_num, scale_sq_den, g):
    # sqrt(num/den) * g with the 0/0 limit resolved to 0 when g vanishes.
    if g == 0.0:
        return 0.0
    return math.sqrt(scale_sq_num / scale_sq_den) * g


def normal_phase(couplings: CouplingSet, omega_m: float,
                 n_dipoles: int | None = None) -> PhasePoint:
    """Polariton spectrum and observables on the normal side (tau >= 1).

    The material frequency is renormalized to omega_tilde with
    omega_tilde^2 = omega_m (omega_m - 4 C_alpha), the couplings are rescaled
    by sqrt(omega_m/omega_tilde) and its inverse, and the bilinear form
    (omega_tilde, omega_alpha, g_tilde, g'_tilde) is diagonalized in closed
    form. Both macroscopic averages vanish here.
    """
    tau = couplings.tau
    if tau < 1.0 - CRITICAL_TAU_TOL:
        raise PhaseError(f"normal branch evaluated at tau = {tau} < 1")
    wt_sq = omega_m * (omega_m - 4.0 * couplings.c_alpha)
    omega_tilde = math.sqrt(max(wt_sq, 0.0))
    g_tilde = _rescaled_coupling(omega_m, omega_tilde, couplings.g_alpha)
    gp_tilde = _rescaled_coupling(omega_tilde, omega_m, couplings.g_prime_alpha)
    pair = polariton_closed_form(
        BilinearForm(w=omega_tilde, w_prime=couplings.omega_alpha,
                     g=g_tilde, g_prime=gp_tilde)
    )
    density = 0.0
    if n_dipoles is not None:
        density = (0.5 * (pair.e_plus + pair.e_minus) - 0.5 * omega_m) / n_dipoles
    return PhasePoint(
        phase=classify(couplings, omega_m),
        e_plus=pair.e_plus,
        e_minus=pair.e_minus,
        ground_density=density,
        pi_average=0.0,
        p_t_average=0.0,
        renormalized_material_frequency=omega_tilde,
    )


def abnormal_phase(couplings: CouplingSet, omega_m: float,
                   n_dipoles: int | None = None) -> PhasePoint:
    """Polariton spectrum and observables on the abnormal side (tau <= 1).

    The displaced material mode has frequency undertilde-omega with
    undertilde-omega^2 = (omega_m^2/tau^2)(1 - (1-alpha^2) tau^2); couplings
    rescale with sqrt(tau). The macroscopic momentum average is
    d<Pi> = alpha rho d^2 sqrt(1 - tau^2), and d<P_T> is its negative.
    """
    tau = couplings.tau
    if tau > 1.0 + CRITICAL_TAU_TOL:
        raise PhaseError(f"abnormal branch evaluated at tau = {tau} > 1")
    if abs(tau - 1.0) <= CRITICAL_TAU_TOL:
        # Displacement formulas are singular in sqrt(1 - tau); evaluate the
        # critical strip at its tau = 1 limit so both branches coincide there.
        tau = 1.0
    one_minus_a2 = 2.0 * couplings.c_alpha / couplings.rho_d2
    wu_sq = (omega_m / tau) ** 2 * (1.0 - one_minus_a2 * tau**2)
    omega_under = math.sqrt(max(wu_sq, 0.0))
    g_under = _rescaled_coupling(tau * omega_m, omega_under, couplings.g_alpha)
    gp_under = _rescaled_coupling(tau * omega_under, omega_m, couplings.g_prime_alpha)
    pair = polariton_closed_form(
        BilinearForm(w=omega_under, w_prime=couplings.omega_alpha,
                     g=g_under, g_prime=gp_under)
    )
    pi_avg = couplings.alpha * couplings.rho_d2 * math.sqrt(max(1.0 - tau**2, 0.0))
    density = -(omega_m / (4.0 * tau)) * (1.0 - tau) ** 2
    if n_dipoles is not None:
        density += (0.5 * (pair.e_plus + pair.e_minus) - couplings.rho_d2) / n_dipoles
    return PhasePoint(
        phase=classify(couplings, omega_m),
        e_plus=pair.e_plus,
        e_minus=pair.e_minus,
        ground_density=density,
        pi_average=pi_avg,
        p_t_average=-pi_avg,
        renormalized_material_frequency=omega_under,
    )


def evaluate(params: ReducedParams, n_dipoles: int | None = None) -> tuple[CouplingSet, PhasePoint]:
    """Derive couplings at params and evaluate the branch tau selects."""
    couplings = derive_couplings(params)
    omega_m = params.omega_m
    if couplings.tau >= 1.0:
        point = normal_phase(couplings, omega_m, n_dipoles)
    else:
        point = abnormal_phase(couplings, omega_m, n_dipoles)
    return couplings, point


def limit_ground_density(params: ReducedParams, eta: float) -> float:
    """Extensive ground energy density at coupling eta (closed form).

    Zero in the normal phase; -(omega_m / 4 tau)(1 - tau)^2 in the abnormal
    phase with tau evaluated at eta.
    """
    couplings = derive_couplings(params.with_(eta=eta))
    tau = couplings.tau
    if tau >= 1.0:
        return 0.0
    return -(params.omega_m / (4.0 * tau)) * (1.0 - tau) ** 2


def analytic_second_derivative(params: ReducedParams, eta: float) -> float:
    """d^2/d eta^2 of the extensive ground density, evaluated analytically.

    With tau(eta) = (eta_c/eta)^2 the abnormal-side density is
    -(omega_m/4)(eta^2/eta_c^2 - 2 + eta_c^2/eta^2), so the second derivative
    is -omega_m (1/(2 eta_c^2) + 3 eta_c^2 / (2 eta^4)); zero on the normal side.
    """
    eta_c = eta_critical(params)
    if eta <= eta_c:
        return 0.0
    return -params.omega_m * (0.5 / eta_c**2 + 1.5 * eta_c**2 / eta**4)


def ground_density_second_derivative(params: ReducedParams, eta_grid):
    """Finite-difference (1/N) d^2 G_s / d eta^2 along eta_grid.

    Central second differences at step DEFAULT_FD_STEP with one Richardson
    refinement, applied to the closed-form extensive density. Grid points
    whose stencil straddles the transition (within one step of eta_c) are
    tagged with NaN rather than differentiated across the discontinuity.
    """
    step = DEFAULT_FD_STEP
    eta_c = eta_critical(params)
    out = []
    for eta in eta_grid:
        if eta + step < eta_c:
            out.append((eta, 0.0))
            continue
        if abs(eta - eta_c) <= step:
            out.append((eta, math.nan))
            continue

        def second(h):
            f = limit_ground_density
            return (f(params, eta + h) - 2.0 * f(params, eta) + f(params, eta - h)) / h**2

        coarse = second(step)
        fine = second(0.5 * step)
        out.append((eta, (4.0 * fine - coarse) / 3.0))
    return out
