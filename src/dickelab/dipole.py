"""Single-dipole double-well eigenproblem in a sinc DVR.

The dimensionless Hamiltonian is

    h = (1/2)(-d^2/dzeta^2 + q zeta^2 + zeta^4 / 2)

with q = -beta for the plain double well, or q = (omega eta alpha / E)^2 - beta
when the polarisation self-energy is folded into the bare well (E is the
energy scale, so absolute energies are E * e_n). It is solved in the
Colbert-Miller sinc discrete variable representation (DVR; J. Chem. Phys. 96,
1982 (1992)) on `points` uniform interior points of (-zeta_max, zeta_max):
the potential is diagonal and the kinetic energy is the dense matrix

    T_ij = (-1)^(i-j) / (2 h^2) * (pi^2/3 if i == j else 2/(i-j)^2),

whose error falls exponentially with the point count, so about a hundred
points reach the arithmetic floor. The whole matrix is diagonalized and the
lowest levels sliced off, which makes every level independent of how many
are kept.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError

DEFAULT_ZETA_MAX = 6.0
DEFAULT_POINTS = 128
# The DVR matrix is dense: 512 points reach the arithmetic floor many times
# over, while 32000 would need 8 GB.
MAX_POINTS = 512
DEFAULT_GAP_TOL = 1e-8
EDGE_DENSITY_TOL = 1e-10


@dataclass(frozen=True)
class MainText:
    """Plain double-well convention: the bare well is untouched."""


@dataclass(frozen=True)
class SelfEnergyInBare:
    """Convention that absorbs the polarisation self-energy into the bare well.

    Adds (omega*eta*alpha/energy_scale)^2 to the quadratic coefficient, so the
    bare levels and dipole moments become coupling- and gauge-dependent.
    """

    alpha: float
    eta: float
    omega: float


@dataclass(frozen=True)
class WellShape:
    beta: float
    energy_scale: float
    renorm: object = field(default_factory=MainText)

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not 0 < self.energy_scale < np.inf:
            raise ValueError("energy_scale must be finite and positive")

    def quadratic_coefficient(self):
        """Coefficient q of zeta^2 in the dimensionless well."""
        if isinstance(self.renorm, SelfEnergyInBare):
            r = self.renorm
            shift = (r.omega * r.eta * r.alpha / self.energy_scale) ** 2
            if not np.isfinite(shift):
                raise ValueError("self-energy quadratic shift is not finite")
            return shift - self.beta
        return -self.beta


@dataclass(frozen=True)
class GridSpec:
    zeta_max: float = DEFAULT_ZETA_MAX
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.points < 3:
            raise ValueError("need at least 3 grid points")
        if self.points > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} grid points (the DVR matrix is dense)")
        if not self.zeta_max > 0:
            raise ValueError("zeta_max must be positive")

    def axis(self, points=None):
        """Interior grid points of (-zeta_max, zeta_max), symmetric about 0."""
        n = self.points if points is None else points
        h = 2.0 * self.zeta_max / (n + 1)
        return -self.zeta_max + h * np.arange(1, n + 1), h


@dataclass(frozen=True, eq=False)
class DipoleSpectrum:
    """Eigenvalues and matrix elements of one anharmonic dipole.

    energies are absolute (multiplied by the energy scale). zeta_elements
    holds <m|zeta|n>. p_elements stores the real factor S_mn of the purely
    imaginary momentum elements <m|p~|n> = i S_mn with
    S_mn = (e_m - e_n) zeta_mn in dimensionless units. zeta_sq_elements
    (<m|zeta^2|n>) is carried for the exact-diagonalization self-energy term.
    A spectrum holds arrays, so it compares and hashes by identity.
    """

    energies: np.ndarray
    zeta_elements: np.ndarray
    p_elements: np.ndarray
    zeta_sq_elements: np.ndarray
    level_count: int
    shape: WellShape
    grid: GridSpec

    @property
    def dimensionless_energies(self):
        return self.energies / self.shape.energy_scale

    @property
    def omega_m(self):
        """First transition energy, in absolute units."""
        return self.energies[1] - self.energies[0]

    @property
    def zeta01(self):
        return self.zeta_elements[0, 1]


def _dvr_matrix(v_dimless, h):
    """The sinc-DVR kinetic matrix plus diag(v); v_dimless already includes
    the 1/2 potential prefactor."""
    n = v_dimless.size
    d = np.subtract.outer(np.arange(n), np.arange(n))
    t = np.divide(2.0, d * d, out=np.full((n, n), np.pi**2 / 3.0), where=d != 0)
    t *= np.where(d % 2 == 0, 0.5, -0.5) / h**2
    t[np.diag_indices(n)] += v_dimless
    return t


def _solve_potential(v_dimless, h, levels):
    """Lowest eigenpairs of the sinc-DVR kinetic matrix plus diag(v).

    Returns eigenvalues ascending and l2-normalized eigenvectors as columns.
    """
    # A full solve, not a subset: a subset solve's lowest levels move in the
    # last digits with the subset size, and omega_m must not.
    vals, vecs = scipy.linalg.eigh(_dvr_matrix(v_dimless, h))
    return vals[:levels], vecs[:, :levels]


def _well_values(shape, z):
    q = shape.quadratic_coefficient()
    return 0.5 * (q * z**2 + 0.5 * z**4)


def solve_double_well(shape: WellShape, grid: GridSpec, levels: int,
                      gap_tol: float = DEFAULT_GAP_TOL) -> DipoleSpectrum:
    """Solve the (possibly renormalized) double well for the lowest levels.

    Parameters
    ----------
    shape : WellShape
        Well coefficients and truncation convention.
    grid : GridSpec
        The DVR points (at most MAX_POINTS); the solve is also repeated on
        twice as many points to certify convergence of the first transition
        energy.
    levels : int
        Number of eigenstates kept (must leave discretization headroom,
        levels <= points/4).
    gap_tol : float
        Maximum allowed relative change of e1 - e0 under grid doubling, > 0.

    Raises
    ------
    ConvergenceError
        If grid doubling moves the first transition energy by more than
        gap_tol relative, or the eigenvalues come out degenerate.
    DomainError
        If the ground-state density at the grid edge exceeds 1e-10 of its
        maximum (the box is too small for this well).
    """
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    if levels < 2:
        raise ValueError("need at least 2 levels")
    if levels > grid.points // 4:
        raise ValueError("levels must not exceed points/4")
    z, h = grid.axis()
    vals, vecs = _solve_potential(_well_values(shape, z), h, levels)

    gaps = np.diff(vals)
    if np.any(gaps <= 0):
        raise ConvergenceError("eigenvalues are not strictly increasing")

    density = vecs[:, 0] ** 2
    edge = 0.5 * (density[0] + density[-1])
    if edge > EDGE_DENSITY_TOL * density.max():
        raise DomainError(
            f"ground density at |zeta|={grid.zeta_max} is {edge / density.max():.2e} "
            "of its maximum; enlarge zeta_max"
        )

    # The doubled grid gives only e1 - e0 for the drift, which is not
    # printed, so its two lowest values are solved alone, without vectors.
    z2, h2 = grid.axis(points=2 * grid.points)
    fine = scipy.linalg.eigh(_dvr_matrix(_well_values(shape, z2), h2), eigvals_only=True,
                             subset_by_index=[0, 1])
    gap, fine_gap = vals[1] - vals[0], fine[1] - fine[0]
    drift = abs(fine_gap - gap) / abs(fine_gap)
    if drift > gap_tol:
        raise ConvergenceError(
            f"grid doubling moves e1-e0 by {drift:.2e} relative (> {gap_tol:.1e})"
        )

    # Phase chain: flip signs so every nearest-neighbour dipole element is
    # positive, which in particular makes zeta_01 > 0.
    for n in range(levels - 1):
        if np.dot(vecs[:, n] * z, vecs[:, n + 1]) < 0:
            vecs[:, n + 1] *= -1.0

    zeta = vecs.T @ (z[:, None] * vecs)
    zeta = 0.5 * (zeta + zeta.T)
    zeta_sq = vecs.T @ ((z**2)[:, None] * vecs)
    zeta_sq = 0.5 * (zeta_sq + zeta_sq.T)
    p_real = (vals[:, None] - vals[None, :]) * zeta

    return DipoleSpectrum(
        energies=shape.energy_scale * vals,
        zeta_elements=zeta,
        p_elements=p_real,
        zeta_sq_elements=zeta_sq,
        level_count=levels,
        shape=shape,
        grid=grid,
    )


def trk_sum(spectrum: DipoleSpectrum) -> float:
    """Dimensionless f-sum S = sum_{n>0} 2 (e_n - e_0) zeta_0n^2.

    Exactly 1 for the untruncated problem, so any truncation gives S <= 1
    and S grows toward 1 with the level count.
    """
    e = spectrum.dimensionless_energies
    z0 = spectrum.zeta_elements[0, 1:]
    return float(np.sum(2.0 * (e[1:] - e[0]) * z0**2))


def resonance_energy_scale(beta: float, omega: float, grid: GridSpec,
                           gap_tol: float = DEFAULT_GAP_TOL) -> float:
    """Energy scale E that puts the first dipole transition at omega.

    Solves the plain double well with unit energy scale and returns
    omega / (e1 - e0), so that re-solving with the returned scale gives
    omega_m = omega.
    """
    shape = WellShape(beta=beta, energy_scale=1.0)
    spectrum = solve_double_well(shape, grid, levels=2, gap_tol=gap_tol)
    return omega / (spectrum.energies[1] - spectrum.energies[0])
