"""Diagonalization of the generic bilinear two-oscillator Hamiltonian.

The Hamiltonian treated here is

    h = w y^dag y + w' z^dag z + i g (y^dag + y)(z^dag - z)
                              - i g' (y^dag - y)(z^dag + z) + C,

a coupled pair of bosonic modes with position-momentum couplings g and g'.
Two independent routes to its normal-mode (polariton) energies are provided:
a closed-form expression and a numeric symplectic (Williamson) computation.
They must agree; keeping both is the point, one checks the other.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError

# Relative tolerances fixed once for the whole module.
PD_TOL = 1e-12          # eigenvalues of M must exceed PD_TOL * max(w, w')
IMAG_TOL = 1e-10        # |Re| <= IMAG_TOL * |Im| counts as purely imaginary
BOUNDARY_TOL = 1e-10    # |2E^2| below BOUNDARY_TOL * scale clamps to E = 0


@dataclass(frozen=True)
class BilinearForm:
    """Coefficients (w, w', g, g', C) of the generic two-oscillator form.

    w and w_prime are the uncoupled oscillator frequencies, g couples the
    first position to the second momentum quadrature, g_prime the first
    momentum to the second position, and c is an additive constant.
    """

    w: float
    w_prime: float
    g: float = 0.0
    g_prime: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        values = (self.w, self.w_prime, self.g, self.g_prime, self.c)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("all BilinearForm fields must be finite")
        # Zero frequency is admitted deliberately: the critical point of the
        # phase analysis evaluates the closed form on the stability boundary.
        if self.w < 0 or self.w_prime < 0:
            raise ValueError("oscillator frequencies must be nonnegative")


@dataclass(frozen=True)
class PolaritonPair:
    """Normal-mode energies E+ >= E- and the ground-state energy shift.

    ground_shift = (E+ + E- - w - w') / 2 + C, the zero-point energy of the
    coupled modes relative to the uncoupled ones plus the additive constant.
    """

    e_plus: float
    e_minus: float
    ground_shift: float


def _pair(form, e_plus, e_minus):
    shift = 0.5 * (e_plus + e_minus - form.w - form.w_prime) + form.c
    return PolaritonPair(e_plus=e_plus, e_minus=e_minus, ground_shift=shift)


def polariton_closed_form(form: BilinearForm) -> PolaritonPair:
    """Polariton energies from the explicit closed-form expression.

    Evaluates

        2 E_pm^2 = 8 g g' + w^2 + w'^2
                   pm sqrt((w^2 - w'^2)^2 + 16 (w g' + w' g)(w g + w' g'))

    Raises
    ------
    InstabilityError
        If the discriminant is negative or either 2 E^2 is negative beyond
        the boundary tolerance. Exact zeros (the stability boundary) are
        reported as E = 0, not as errors.
    """
    w, wp, g, gp = form.w, form.w_prime, form.g, form.g_prime
    disc = (w**2 - wp**2) ** 2 + 16.0 * (w * gp + wp * g) * (w * g + wp * gp)
    scale = max(w**2, wp**2, 8.0 * abs(g * gp), 1.0e-300)
    if disc < -BOUNDARY_TOL * scale**2:
        raise InstabilityError(
            f"negative discriminant {disc:.3e}: form is not positive definite"
        )
    root = np.sqrt(max(disc, 0.0))
    base = 8.0 * g * gp + w**2 + wp**2
    energies = []
    for sign in (+1.0, -1.0):
        twice_sq = base + sign * root
        if twice_sq < -BOUNDARY_TOL * scale:
            raise InstabilityError(
                f"2E^2 = {twice_sq:.3e} < 0: form is not positive definite"
            )
        # Snap the stability boundary to exactly zero: rounding can leave
        # 2E^2 a few ulp on either side, and E = sqrt turns that into 1e-8.
        if abs(twice_sq) <= BOUNDARY_TOL * scale:
            twice_sq = 0.0
        energies.append(np.sqrt(max(twice_sq, 0.0) / 2.0))
    return _pair(form, energies[0], energies[1])


def _quadrature_matrix(form):
    # M acts on r = (q_y, q_z, p_y, p_z); h = r^T M r + const.
    w, wp, g, gp = form.w, form.w_prime, form.g, form.g_prime
    return 0.5 * np.array(
        [
            [w, 0.0, 0.0, 2.0 * g],
            [0.0, wp, -2.0 * gp, 0.0],
            [0.0, -2.0 * gp, w, 0.0],
            [2.0 * g, 0.0, 0.0, wp],
        ]
    )


def _symplectic_form():
    omega = np.zeros((4, 4))
    omega[:2, 2:] = np.eye(2)
    omega[2:, :2] = -np.eye(2)
    return omega


def is_positive_definite(form: BilinearForm) -> bool:
    """True iff all eigenvalues of the quadrature matrix M exceed PD_TOL*max(w, w')."""
    eigenvalues = np.linalg.eigvalsh(_quadrature_matrix(form))
    return bool(np.all(eigenvalues > PD_TOL * max(form.w, form.w_prime)))


def williamson_frequencies(form: BilinearForm) -> PolaritonPair:
    """Polariton energies via the symplectic eigenvalues of M.

    Builds the quadrature matrix M and the symplectic form Omega, takes the
    eigenvalues of Omega M (which come in pairs +-i nu for positive definite
    M), and returns E_pm = 2 nu sorted descending. This route is numeric and
    independent of the closed form; the two must agree on every positive
    definite input.

    Raises
    ------
    InstabilityError
        If M is not positive definite, or the eigenvalues of Omega M are not
        purely imaginary within tolerance.
    """
    m = _quadrature_matrix(form)
    if not is_positive_definite(form):
        raise InstabilityError("quadrature matrix M is not positive definite")
    eigenvalues = np.linalg.eigvals(_symplectic_form() @ m)
    res = np.abs(eigenvalues.real)
    ims = np.abs(eigenvalues.imag)
    if np.any(res > IMAG_TOL * np.maximum(ims, 1e-300)):
        raise InstabilityError(
            "eigenvalues of Omega M are not purely imaginary: "
            f"{np.array2string(eigenvalues, precision=6)}"
        )
    nu = np.sort(ims)  # four values, two coincident pairs
    e_minus = 2.0 * 0.5 * (nu[0] + nu[1])
    e_plus = 2.0 * 0.5 * (nu[2] + nu[3])
    return _pair(form, e_plus, e_minus)
