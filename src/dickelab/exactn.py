"""Finite-N exact diagonalization of the non-truncated Hamiltonian.

The full light-matter Hamiltonian is assembled on N truncated dipole
eigenbases (L levels each) times one Fock-truncated mode (M states), in one
dipole basis, the `SymmetricSector`: the C(N+L-1, N) permutation-symmetric
occupation states |n_0 ... n_(L-1)>, in the order of
`itertools.combinations_with_replacement` (for N = 1 the level order, for
L = 2 the Dicke order m = -j..j). The Hamiltonian commutes with every
permutation of the dipoles and its two lowest states lie in this sector; it
is built there directly, a one-dipole operator summed over the dipoles
becoming sum_ij op_ji b_j^dag b_i. `CollectiveSpin` is its two-level case,
for the two-level model.

Projecting onto that space leaves the bare dipole term exact,
the field couplings linear in the imported matrix elements, and the square
of the vector potential exact in Fock space. A fixed phase rotation of the
mode (a -> -ia) turns every term real, so only real symmetric matrices are
ever built:

    (a^dag + a)  ->  i (a^dag - a)          (A and the gauge exponent)
    i (a^dag - a) -> -(a^dag + a)           (canonical momentum Pi)
    (a^dag + a)^2 ->  2 a^dag a + 1 - (a^dag^2 + a^2)

Every finite-N Hamiltonian has the form
D x 1 + 1 x F + X x (a^dag - a) + Y x (a^dag + a) with D, X, Y on the dipoles
and F on the mode. Its factors are dense arrays when the sector holds at
most DENSE_THRESHOLD states and CSR above. One of two builders, the only
places that form products with the mode, turns them into the point's
parity blocks: `_banded` for a point whose two parity blocks each hold at
most DENSE_THRESHOLD states, and `_panels` above that. Pair sums use
sum_{mu != nu} zeta_mu zeta_nu = Z^2 - sum_mu (zeta^2)_mu with
Z = sum_mu zeta_mu. The
two-level collective-spin Dicke Hamiltonian comes from its replacement form;
it differs from the L=2 projection in the self-energy term, which is the
point of keeping both. `assemble` reads the self-energy convention off the
spectrum (`spectrum.shape.renorm`): a well that absorbed the self-energy
gets no self-energy term.

H(eta, alpha) is a fixed linear combination of eta- and alpha-independent
operators, so those are built once and each point only combines them:

- the Fock operators and the identity, per cutoff (`_photon_ops`);
- the symmetric sector's states and one-body pattern, per (N, L)
  (`_sector_pattern`), so a sector sum is one gather and one COO -> CSR, or
  one bincount for a dense one, and its states ordered by dipole parity
  (`_class_order`);
- J^z, J_x^2, the identity, J^+ - J^- and J_x of the two-level model,
  dense, per dipole count (`_two_level_ops`); X and Y are the last two
  scaled;
- the dipole operators of `assemble` (Z, the summed momentum factor S, Z Z
  and the one-dipole blocks), per (spectrum, N, L) (`_dipole_sums`, with
  their dense copies), for the last key only; a spectrum hashes by identity;
- for banded points, the gather map of the two blocks' bands (`_BandMap`),
  per (N, L, M) and the presence of the A^2 term (`_band_map`), whatever
  spectrum the values come from.

Every Hamiltonian conserves the joint parity (-1)^(sum of the dipole
levels + photon number); a point's partition is `h.blocks.index`, each
block's states in the whole basis. A banded point gathers each Kronecker
contribution straight into the band storage of its even and odd blocks; a
larger point keeps each block as a `_PanelBlock`, which applies the block
from the dipole-class slices of the factors and stores nothing of the
block itself. No solve reads anything else. `ground_pair` is the one
reader of a point's blocks: it solves each block for its lowest level, and
E is the other block's lowest level unless the ground block's second level
lies below it; `second_derivative_sweep` reads G as `ground_pair(h)[0]`.
The entries between the blocks, which no block stores, are rounding from
the well solve. Each point reads the largest of them, and H - H^T, off the
class slices of the dipole factors (`_parity_checks`), and checks them
against PARITY_TOL and SYMMETRY_TOL. The budget and the basis order still
cover the whole matrix, both blocks together, and
`AssembledHamiltonian.matrix`, the whole matrix, is formed when it is read,
as the sparse Kronecker sum of the point's factors.

A banded block lists its states photon-major, so its couplings join photon
numbers at most 2 apart and it is held as a lower band about one sector
wide, in LAPACK's band storage, filled by one gather per point through the
`_BandMap`. One values-only dsbevx call gives the block's two lowest
levels, and one step of inverse iteration (dgbsv on the band shifted to G)
gives the ground vector when the block holds G; the vector is accepted when
its residual is at most RESIDUAL_TOL max(1, |G|). A ground block whose
vector fails that bound is solved again by one dsyevr call (`_dsyevr`) for
its two lowest levels and their vectors, so the ground block's second level
always comes from the same solve as G.

A block above DENSE_THRESHOLD states is solved by `_davidson`, Davidson's
method preconditioned by the block's diagonal, which holds the dipole and
photon energies and dominates the block; it needs only numpy and the
block's product. Each solve finds one level, deflated against the vectors
of the levels below it: `ground_pair`'s ranking solve is one such solve, deflated
against the ground vector. A solve starts from the block's diagonal alone
(the unit vectors of its lowest entries) and has no random restart, so each
point's result depends on that point only, not on the grid around it nor on
the solves before it. The banded solves start from the band alone (inverse
iteration from the all-ones vector), so the same holds for them.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .dipole import DipoleSpectrum, MainText, SelfEnergyInBare
from .errors import (
    BudgetError,
    ConventionMismatch,
    ConvergenceError,
    GridError,
    ValidationError,
)
from .gauge import ReducedParams, derive_couplings

DEFAULT_BUDGET = 200_000
# Points whose two parity blocks hold at most this many states each are built
# as banded blocks and solved densely, larger ones as panel blocks solved by
# `_davidson`; a sector of at most this many states keeps its factors dense.
# Per block, at 1 BLAS thread, beta 3.3, eta 1 and 2.8, dsbevx for two levels
# plus one inverse-iteration step against Davidson's k = 1 solve with its
# vector plus the ranking solve on a panel block (forced banded or panel
# where the size says otherwise): at N = 1, L = 8, alpha = 1 (bandwidth 7)
# banded wins at 160 states (0.45 against 0.8-1.5 ms), the two about tie at
# 300 (1.3 against 0.9-1.7), and Davidson wins from 600 on (4.5 against
# 1.1-1.8 at 600, 23 against 1.6-2.7 at 1200); at N = 2, L = 8, alpha = 1
# (bandwidth 32) banded wins at 144 (0.8 against 0.9-1.2 ms), and Davidson
# wins from 216 on (1.6 against 1.0-1.5 at 216, 12 against 1.1-2.2 at 576,
# 46 against 1.5-2.7 at 1080). The value stays 600, since moving it moves
# rows between the solvers. A dense solve is exact, so ground_pair reads a
# dense block's second level from the same call as its lowest.
DENSE_THRESHOLD = 600
# Davidson steps before an iterative solve gives up with ConvergenceError.
# The most block products any converged solve took on panel blocks was 105
# over the test suite (k = 3 at tol 0, 720 states), 68 over the default
# commands (a 2,400-state block of s-figs-gauges) and 87 over CI's replay
# lines (a 2,400-state block of the N = 3 Coulomb-gauge line). 1000 steps at
# tol 1e-20 on a 720-state block take about 0.05 s at 1 BLAS thread.
DAVIDSON_MAXITER = 1000
# Residual |H x - theta x| / max(1, |theta|) at which a tol = 0 iterative solve
# stops. An eigenvalue lies within |r| of theta, and theta lies within about
# |r|^2 / gap of it, gap being the distance to the rest of the spectrum.
RESIDUAL_TOL = 1e-10
# Largest Davidson basis; a full basis restarts from its Ritz vector.
_BASIS = 24
# Unit vectors of a block's lowest diagonal entries that seed each solve. A
# start built from the whole diagonal, without them, converged to the upper
# member of the odd block's resonant doublet at eta = 1e-6 (N = 2, 3 and 5,
# every gauge; E 4.9e-7 too high). 1 to 4 seeds all reach the dense levels
# within 1e-12 on the test suite's iterative points (within 1.1e-15 on the
# panel blocks); over ground_pair at N = 2, 3 and 5, L = 8, M = 40, alpha 0,
# 0.5 and 1, eta 1e-6, 1, 2 and 2.8, 1, 2, 3, 4 and 6 seeds took 2418, 2291,
# 2348, 2426 and 2582 products.
_SEEDS = 4
# Smallest d - theta of the diagonal correction r / (d - theta): entries with
# |d - theta| below it are set to it.
_SHIFT_FLOOR = 1e-2
FOCK_TAIL_TOL = 1e-8
SYMMETRY_TOL = 1e-12
# Relative tolerance of ground_pair's solve that ranks the ground block's
# second level against the other block's lowest. At tolerance 0 that solve
# also converged, so this only saves work: at N = 2 and 3, L = 8, M = 40,
# alpha 0 and 1, eta 1e-6, 1, 2 and 2.8, it took 5-35 products against 6-89
# at tolerance 0 (at N = 3, 0.5-4.3 against 0.6-12.5 ms at 1 BLAS thread),
# and the level cleared the other by 0.57 or more, so none was solved again.
RANKING_TOL = 1e-4
# Largest entry between the parity blocks, relative to max |H|, that
# ground_pair may drop; the well solve leaves about 1e-13.
PARITY_TOL = 1e-8


@dataclass(frozen=True)
class SymmetricSector:
    """Permutation-symmetric occupation states of N identical dipoles."""


@dataclass(frozen=True)
class CollectiveSpin(SymmetricSector):
    """The symmetric sector of two-level dipoles, the spin-N/2 Dicke basis;
    for the two-level model only."""


@dataclass(frozen=True)
class HilbertConfig:
    n_dipoles: int
    dipole_levels: int
    fock_cutoff: int
    representation: object = field(default_factory=SymmetricSector)
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.n_dipoles < 1:
            raise ValidationError("n_dipoles must be at least 1")
        if self.dipole_levels < 2 or self.fock_cutoff < 2:
            raise ValidationError("need at least 2 dipole levels and 2 Fock states")
        if not isinstance(self.representation, SymmetricSector):
            raise ValidationError("representation must be SymmetricSector or CollectiveSpin")
        if isinstance(self.representation, CollectiveSpin) and self.dipole_levels != 2:
            raise ValidationError("collective-spin representation requires 2 levels")
        if self.dimension > self.budget:
            raise BudgetError(
                f"dimension {self.dimension} exceeds budget {self.budget}"
            )

    @property
    def dimension(self):
        states = math.comb(self.n_dipoles + self.dipole_levels - 1, self.n_dipoles)
        return states * self.fock_cutoff


def default_hilbert(n_dipoles: int, budget: int = DEFAULT_BUDGET) -> HilbertConfig:
    """Symmetric-sector cutoffs that reproduce the figures at desk scale."""
    levels, fock = (8, 40) if n_dipoles <= 3 else (6, 30)
    return HilbertConfig(n_dipoles, levels, fock, budget=budget)


class AssembledHamiltonian:
    """A real symmetric Hamiltonian, of one of two kinds:

    - an assembled point, from `assemble` or `dicke_two_level`, on (sector
      states, Fock cutoff): its `blocks`, banded or panel blocks, which
      every solve reads and whose `index` is the point's joint-parity
      partition, and `whole`, which forms `matrix` on first read as the
      Kronecker sum D x 1 + 1 x F + X x t + Y x q of its factors;
    - a bare `matrix` for `lowest_eigenvalues`, e.g. one parity block
      (`axis_dims` of one entry), a CSR matrix or a `_PanelBlock`; its
      `blocks` are None.

    The matrix is never modified: each dense solve is one dsyevr call on a
    dense copy of it.
    """

    def __init__(self, matrix, axis_dims, *, blocks=None, whole=None):
        self._matrix, self._whole = matrix, whole
        self.blocks = blocks                  # the joint-parity _ParityBlocks, or None
        self.axis_dims = tuple(axis_dims)     # (sector states, Fock cutoff)

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = self._whole()
        return self._matrix

    @property
    def dimension(self):
        return math.prod(self.axis_dims)


@dataclass(frozen=True, eq=False)
class _ParityBlocks:
    """The even and odd blocks of a Hamiltonian; each block's state indices
    in the whole basis, ascending (`index`); the largest |entry| between the
    blocks, which no block stores; and max |H|.

    A point of `_panels` holds its blocks as `_PanelBlock`s in `matrices`,
    each with its states in block order, and `bands` None. A point of
    `_banded` holds per block (`bands`) its lower band in LAPACK storage,
    band[d, j] = H[j + d, j], over its states in band order, and those
    states in the whole basis; its `matrices` are None. A hand-built point
    may hold CSR `matrices` over each block's states in index order.
    """

    matrices: tuple
    index: tuple
    leak: float
    scale: float
    bands: tuple = None


@functools.lru_cache(maxsize=8)
def _photon_ops(m):
    """(a^dag a + 1/2, a^dag + a, a^dag - a, rotated (a^dag + a)^2, 1) on
    Fock(m), the first as its diagonal and also spread over the fourth one's
    pattern, the others as CSR; built once per cutoff and shared, read-only."""
    n = np.arange(m, dtype=float)
    lower = sp.diags(np.sqrt(n[1:]), 1)          # annihilation
    raise_ = lower.T
    q = (raise_ + lower).tocsr()                 # a^dag + a
    t = (raise_ - lower).tocsr()                 # a^dag - a
    pair = np.sqrt(n[1:-1]) * np.sqrt(n[2:])     # <n+2|a^dag^2|n>, empty at m = 2
    two_ph = sp.diags([pair, pair], [-2, 2], shape=(m, m))   # a^dag^2 + a^2
    w = (2.0 * sp.diags(n) + sp.identity(m) - two_ph).tocsr()   # rotated (a^dag+a)^2
    half = n + 0.5
    w_rows = np.repeat(np.arange(m), np.diff(w.indptr))
    half_on_w = np.where(w_rows == w.indices, half[w_rows], 0.0)
    identity = sp.identity(m, format="csr")
    for array in (half, half_on_w, q.data, t.data, w.data, identity.data):
        array.setflags(write=False)
    return half, half_on_w, q, t, w, identity


@functools.lru_cache(maxsize=16)
def _sector_pattern(n_sites, levels):
    """The symmetric sector of n_sites dipoles with `levels` levels each:
    (occupations, rows, columns, level pairs, factors), built once per
    (N, L) as read-only arrays.

    `occupations` holds one state per row, in the order of
    itertools.combinations_with_replacement; `_class_order` reads each
    state's dipole parity (-1)^(sum of its levels) off it, which with the
    photon parity gives the blocks' partition `h.blocks.index`. The other
    four list the entries of sum_ij op_ji b_j^dag b_i: the entry moving a
    dipole from level i to level j carries op_ji (level pair j * levels + i)
    times sqrt(n_i (n_j + 1)), or n_i on the diagonal (j = i).
    """
    occupations = np.array([
        np.bincount(state, minlength=levels)
        for state in itertools.combinations_with_replacement(range(levels), n_sites)])
    # That order is descending in (n_0, n_1, ...) read as base-(N+1) digits,
    # so negated digit values sort ascending and locate a state.
    weights = (n_sites + 1) ** np.arange(levels - 1, -1, -1)
    keys = -(occupations @ weights)
    rows, cols, pairs, factors = [], [], [], []
    for i in range(levels):
        src = np.flatnonzero(occupations[:, i])
        n_i = occupations[src, i]
        for j in range(levels):
            if j == i:
                dst, factor = src, n_i.astype(float)
            else:
                dst = np.searchsorted(keys, keys[src] + weights[i] - weights[j])
                factor = np.sqrt(n_i * (occupations[src, j] + 1.0))
            rows.append(dst)
            cols.append(src)
            pairs.append(np.full(src.size, j * levels + i))
            factors.append(factor)
    pattern = (occupations, *map(np.concatenate, (rows, cols, pairs, factors)))
    for array in pattern:
        array.setflags(write=False)   # shared by every caller
    return pattern


def _summed(op, n_sites):
    """sum_mu op_mu: the single-dipole operator op on each of n_sites dipoles,
    on their symmetric sector as canonical CSR without explicit zeros."""
    occupations, rows, cols, pairs, factors = _sector_pattern(n_sites, op.shape[0])
    total = sp.csr_matrix((op.ravel()[pairs] * factors, (rows, cols)),
                          shape=(len(occupations),) * 2)
    total.eliminate_zeros()
    return total


def _summed_dense(op, n_sites):
    """`_summed` as a dense array; an entry that sums several pattern
    entries (a diagonal one) may differ from `_summed`'s in the last bit."""
    occupations, rows, cols, pairs, factors = _sector_pattern(n_sites, op.shape[0])
    size = len(occupations)
    return np.bincount(rows * size + cols, weights=op.ravel()[pairs] * factors,
                       minlength=size * size).reshape(size, size)


def _coordinates(op):
    """Row and column of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(op.shape[0]), np.diff(op.indptr)), op.indices


@functools.lru_cache(maxsize=16)
def _class_order(n_sites, levels):
    """(order, split): the states of the symmetric sector of n_sites dipoles
    with `levels` levels ordered by dipole class, its first `split` states
    of even dipole parity (-1)^(sum of the levels), then those of odd
    parity, each class ascending; read-only. Both classes hold a state: all
    dipoles in level 0, and one of them in level 1."""
    occupations = _sector_pattern(n_sites, levels)[0]
    parity = occupations @ np.arange(levels) % 2
    order = np.argsort(parity, kind="stable")
    order.setflags(write=False)
    return order, int(np.sum(parity == 0))


def _by_class(op, order):
    """op, dense or CSR as it is, with its rows and columns in `_class_order`."""
    return op[order][:, order]


def _parity_checks(dipole, x, y, split, photon_max):
    """(largest |entry| between the parity blocks, largest |H - H^T|) of
    D x 1 + 1 x F + X x t + Y x q, read on D, X and Y `_by_class`, dense or
    CSR, whose first `split` states are the even class's: D joins the
    blocks between the classes, X and Y within one. Both are read at the
    largest photon matrix element photon_max of t and q, which holds each
    maximum up to rounding. F needs no check: it is symmetric by
    construction and keeps the photon parity."""
    # A hop entry X_u x t + Y_u x q reads (+-x + y) * photon_max on the
    # links where t = +-photon_max; its mirror's link has the other sign.
    x_max, y_max = x * photon_max, y * photon_max
    up, down = x_max + y_max, y_max - x_max
    between = (dipole[:split, split:], dipole[split:, :split], up[:split, :split],
               up[split:, split:], down[:split, :split], down[split:, split:])
    return (max(abs(op).max() for op in between),
            max(abs(dipole - dipole.T).max(), abs(up - down.T).max()))


def _kronecker_sum(m, dipole, x, y, omega_field, c_w):
    """The whole matrix D x 1 + 1 x F + X x t + Y x q as CSR, from sparse or
    dense factors. No entry has more than two terms, so each equals its
    banded point's band entry; sparse sums store no zeros."""
    half, _, q, t, w, identity = _photon_ops(m)
    mode = omega_field * sp.diags(half) + c_w * w
    total = (sp.kron(sp.csr_matrix(dipole), identity, format="csr")
             + sp.kron(sp.identity(dipole.shape[0]), mode, format="csr"))
    for op, photon in ((x, t), (y, q)):
        total = total + sp.kron(sp.csr_matrix(op), photon, format="csr")
    return total


@functools.lru_cache(maxsize=64)
def _is_banded(n_sites, levels, m):
    """Whether both joint-parity blocks of the sector of n_sites dipoles with
    `levels` levels x Fock(m) hold at most DENSE_THRESHOLD states, so that
    `assemble` and `dicke_two_level` build the point with `_banded`."""
    occupations = _sector_pattern(n_sites, levels)[0]
    odd = int(np.sum(occupations @ np.arange(levels) % 2))
    even = len(occupations) - odd
    even_photons, odd_photons = (m + 1) // 2, m // 2
    return max(even * even_photons + odd * odd_photons,
               even * odd_photons + odd * even_photons) <= DENSE_THRESHOLD


@dataclass(frozen=True, eq=False)
class _BandMap:
    """Where every entry of the lower bands of a dense point's two
    joint-parity blocks comes from, for one sector x Fock(m), with or
    without the A^2 term.

    A block's states are ordered photon-major: photon number n = 0, 1, ...,
    and within it the sector states of the dipole parity that makes the
    joint parity the block's, in sector order. Its couplings then join
    photon numbers at most 2 apart, so its band is about one sector wide.

    A point's values are its table (`_banded`): D's entries in row-major
    order, F's data on the pattern of the rotated (a^dag + a)^2, X_ji
    sqrt(n + 1) and Y_ji sqrt(n + 1) in (j, i, n) order, then a 0. Band
    entry k of both blocks, the even block's lower band then the odd one's,
    each stored column by column, is table[take[0, k]] + table[take[1, k]]:
    D_ii + F_nn on the diagonal, X t + Y q on a photon hop, one term or 0
    elsewhere. Every array is read-only.
    """

    take: np.ndarray      # (2, entries): table positions of each band entry's two terms
    shapes: tuple         # per block: (bandwidth + 1, states)
    states: tuple         # per block: its states in band order, in the whole basis
    index: tuple          # per block: its states in the whole basis, ascending
    same: np.ndarray      # (sector, sector): whether two sector states share their parity


@functools.lru_cache(maxsize=8)
def _band_map(n_sites, levels, m, a2):
    """The `_BandMap` of the sector of n_sites dipoles with `levels` levels
    x Fock(m), with the A^2 term's photon offsets +-2 when `a2`. D is taken
    as full within each dipole parity, X and Y on the pairs of sector states
    one dipole move apart, of opposite parity; the entries they put between
    the blocks are only checked (`_banded`)."""
    occupations, rows, cols, _, _ = _sector_pattern(n_sites, levels)
    size = len(occupations)
    parity = occupations @ np.arange(levels) % 2
    classes = [np.flatnonzero(parity == c) for c in (0, 1)]
    rank = np.empty(size, dtype=np.intp)
    for members in classes:
        rank[members] = np.arange(members.size)
    w = _photon_ops(m)[4]
    w_at = np.full((m, m), -1)
    w_at[_coordinates(w)] = np.arange(w.nnz)
    # Table layout: D, F, X sqrt(n + 1), Y sqrt(n + 1), 0.
    f_base = size * size
    x_base = f_base + w.nnz
    y_base = x_base + size * size * (m - 1)
    zero = y_base + size * size * (m - 1)
    hop = parity[rows] != parity[cols]
    hop_rows, hop_cols = rows[hop], cols[hop]
    photons = np.arange(m)

    takes, shapes, states = [], [], []
    for block in (0, 1):
        kind = (block + photons) % 2          # the dipole parity at each photon number
        start = np.concatenate(([0], np.cumsum([classes[c].size for c in kind])))
        entries = []                          # (row, column, first, second) arrays
        for c in (0, 1):
            # D within one photon number: the pairs of class c, row rank >= column rank.
            low, high = np.tril_indices(classes[c].size)
            j, i = classes[c][low], classes[c][high]
            n = np.flatnonzero(kind == c)[:, None]
            entries.append(np.broadcast_arrays(
                start[n] + rank[j], start[n] + rank[i], j * size + i,
                np.where(j == i, f_base + w_at[n, n], zero)))
        # X t + Y q from photon number n to n + 1, the column state in class kind[n].
        n, pick = np.nonzero(parity[hop_cols] == kind[:-1, None])
        j, i = hop_rows[pick], hop_cols[pick]
        pair = (j * size + i) * (m - 1) + n
        entries.append((start[n + 1] + rank[j], start[n] + rank[i], x_base + pair, y_base + pair))
        if a2:
            # F's a^dag^2 + a^2 from photon number n to n + 2, on one sector state.
            n = np.repeat(photons[:-2], [classes[c].size for c in kind[:-2]])
            i = np.concatenate([classes[c] for c in kind[:-2]] + [np.empty(0, dtype=np.intp)])
            entries.append((start[n + 2] + rank[i], start[n] + rank[i],
                            f_base + w_at[n + 2, n], np.full(n.size, zero)))
        row, col, first, second = (np.concatenate([np.ravel(entry[k]) for entry in entries])
                                   for k in range(4))
        width = int((row - col).max()) + 1
        take = np.full((2, start[-1] * width), zero)
        take[:, col * width + row - col] = first, second
        takes.append(take)
        shapes.append((width, int(start[-1])))
        states.append(np.concatenate([classes[c] * m + n for n, c in enumerate(kind)]))
    band_map = _BandMap(np.concatenate(takes, axis=1), tuple(shapes), tuple(states),
                        tuple(np.sort(order) for order in states),
                        parity[:, None] == parity[None, :])
    for array in (band_map.take, *band_map.states, *band_map.index, band_map.same):
        array.setflags(write=False)
    return band_map


def _banded(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
    """The Hamiltonian D x 1 + 1 x F + X x (a^dag - a) + Y x (a^dag + a) on
    the sector of n_sites dipoles with `levels` levels x Fock(m), with
    F = omega_field (a^dag a + 1/2) + c_w (rotated (a^dag + a)^2), from
    dense factors D, X and Y (each sector x sector), built as the lower
    bands of its two joint-parity blocks by one gather through the point's
    `_BandMap`.

    Raises ValidationError when H - H^T exceeds SYMMETRY_TOL max|H|.
    """
    band_map = _band_map(n_sites, levels, m, c_w != 0.0)
    half, half_on_w, _, _, w, _ = _photon_ops(m)
    root = np.sqrt(np.arange(1.0, m))           # <n+1|a^dag|n>
    table = np.concatenate((dipole.ravel(), omega_field * half_on_w + c_w * w.data,
                            np.multiply.outer(x, root).ravel(),
                            np.multiply.outer(y, root).ravel(), [0.0]))
    first, second = table[band_map.take]
    values = first + second
    bands, start = [], 0
    for (width, size), states in zip(band_map.shapes, band_map.states):
        bands.append((values[start:start + width * size].reshape(size, width).T, states))
        start += width * size

    order, split = _class_order(n_sites, levels)
    leak, asymmetry = _parity_checks(*(_by_class(op, order) for op in (dipole, x, y)),
                                     split, np.sqrt(m - 1.0))
    scale = max(leak, np.abs(values).max())
    if asymmetry > SYMMETRY_TOL * max(scale, 1.0):
        raise ValidationError(f"assembled matrix asymmetric by {asymmetry:.2e}")
    return AssembledHamiltonian(
        None, (dipole.shape[0], m),
        blocks=_ParityBlocks(None, band_map.index, leak, scale, tuple(bands)),
        whole=functools.partial(_kronecker_sum, m, dipole, x, y, omega_field, c_w))


def _band_dense(band):
    """The dense symmetric block of a lower band, band[d, j] = H[j + d, j]."""
    size = band.shape[1]
    d, j = np.indices(band.shape)
    inside = j + d < size
    dense = np.zeros((size, size))
    dense[(j + d)[inside], j[inside]] = dense[j[inside], (j + d)[inside]] = band[inside]
    return dense


def _photon_major(a, b):
    """A block's vector in its photon-major state order, from its panels: a
    over (the class of its even photon numbers, those photon numbers), b
    over (the other class, the odd photon numbers)."""
    (n_a, m_e), (n_b, m_o) = a.shape, b.shape
    cut = m_o * (n_a + n_b)
    vector = np.empty(cut + n_a * (m_e - m_o), dtype=a.dtype)
    pairs = vector[:cut].reshape(m_o, n_a + n_b)      # photon numbers 2k and 2k + 1
    pairs[:, :n_a] = a[:, :m_o].T
    pairs[:, n_a:] = b.T
    vector[cut:] = a[:, m_o:].T.ravel()               # the last photon number of an odd m
    return vector


@dataclass(frozen=True, eq=False)
class _PanelBlock:
    """One joint-parity block of D x 1 + 1 x F + X x t + Y x q, applied from
    the dipole-class slices of its factors, for `_davidson`: it has `shape`,
    `diagonal()` and `@`, and stores nothing of the block itself.

    Its states are ordered photon-major, as a `_BandMap` orders a block's:
    photon number n = 0, 1, ..., and within it the sector states of the
    dipole parity that makes the joint parity the block's, in sector order.
    A vector is two panels: A over (class a, even photon numbers) and B
    over (class b, odd photon numbers). The product is
    D_aa A + A F_ee + X_ab (B T) + Y_ab (B Q), and its mirror for B, with
    each photon matrix stored as it acts from the right (F_ee = F^T over
    the even photon numbers, T = t^T from the odd ones to the even ones).
    """

    dipole: tuple         # per panel: D over its class, dense or CSR
    mode: tuple           # per panel: F from the right over its photon numbers
    hops: tuple           # per panel: ((X or Y from the other class, t or q from the right), ...)
    states: np.ndarray    # its states in the whole basis, in block order
    diag: np.ndarray      # its diagonal, D_ii + F_nn, in block order

    @property
    def shape(self):
        return (self.states.size,) * 2

    def diagonal(self):
        return self.diag

    def __matmul__(self, vector):
        """The block times a vector in block order."""
        (n_a, n_b), m_o = (op.shape[0] for op in self.dipole), self.mode[1].shape[0]
        cut = m_o * (n_a + n_b)
        pairs = vector[:cut].reshape(m_o, n_a + n_b)
        a = pairs[:, :n_a] if cut == vector.size else np.concatenate(
            (pairs[:, :n_a], vector[cut:].reshape(1, n_a)))
        panels = (a.T.copy(), pairs[:, n_a:].T.copy())
        out = [dipole @ panel + panel @ mode
               for dipole, panel, mode in zip(self.dipole, panels, self.mode)]
        for k, hops in enumerate(self.hops):
            for op, photon in hops:
                out[k] += op @ (panels[1 - k] @ photon)
        return _photon_major(*out)

    def toarray(self):
        """The block as a dense array, one product per column; for dense
        solves of a block of at most DENSE_THRESHOLD states."""
        return np.column_stack([self @ unit for unit in np.identity(self.states.size)])


def _panels(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
    """The Hamiltonian D x 1 + 1 x F + X x (a^dag - a) + Y x (a^dag + a), as
    `_banded` builds it, from dense or CSR factors D, X and Y (each sector x
    sector), as its two joint-parity blocks, each a `_PanelBlock` on the
    factors' dipole-class slices. X or Y without a nonzero entry is left out
    of the products.

    Raises ValidationError when H - H^T exceeds SYMMETRY_TOL max|H|.
    """
    order, split = _class_order(n_sites, levels)
    d, x_c, y_c = (_by_class(op, order) for op in (dipole, x, y))
    photon_max = np.sqrt(m - 1.0)
    leak, asymmetry = _parity_checks(d, x_c, y_c, split, photon_max)
    half, _, q, t, w, _ = _photon_ops(m)
    mode = omega_field * np.diag(half) + c_w * w.toarray()
    part = (slice(None, split), slice(split, None))       # each class in the factors
    photons = (np.arange(0, m, 2), np.arange(1, m, 2))

    def right(op, k, j):
        """The photon matrix op from photon numbers photons[j] to photons[k],
        as it acts on a panel from the right."""
        return np.ascontiguousarray(op[np.ix_(photons[k], photons[j])].T)

    couplings = [(op, photon.toarray()) for op, photon in ((x_c, t), (y_c, q))
                 if abs(op).max() > 0.0]
    blocks = []
    for parity in (0, 1):
        c = (parity, 1 - parity)          # each panel's dipole class
        dipoles = tuple(d[part[c[k]], part[c[k]]] for k in (0, 1))
        modes = (right(mode, 0, 0), right(mode, 1, 1))
        hops = tuple(tuple((op[part[c[k]], part[c[1 - k]]], right(photon, k, 1 - k))
                           for op, photon in couplings) for k in (0, 1))
        diag = _photon_major(*(dipoles[k].diagonal()[:, None] + modes[k].diagonal()
                               for k in (0, 1)))
        states = _photon_major(*(order[part[c[k]], None] * m + photons[k] for k in (0, 1)))
        blocks.append(_PanelBlock(dipoles, modes, hops, states, diag))

    # max |H|: the diagonals, D off its diagonal within a class, F off its
    # diagonal, and the hops within the blocks at photon_max, which the
    # checks read the same way.
    inside = [np.abs(block.diag).max() for block in blocks]
    inside.append(np.abs(mode - np.diag(mode.diagonal())).max())
    for r, c in ((0, 1), (1, 0)):
        coo = sp.coo_array(d[part[r], part[r]])
        inside.append(np.abs(coo.data[coo.row != coo.col]).max(initial=0.0))
        hop_x, hop_y = x_c[part[r], part[c]] * photon_max, y_c[part[r], part[c]] * photon_max
        inside += [abs(hop_x + hop_y).max(), abs(hop_y - hop_x).max()]
    scale = max(leak, *inside)
    if asymmetry > SYMMETRY_TOL * max(scale, 1.0):
        raise ValidationError(f"assembled matrix asymmetric by {asymmetry:.2e}")
    return AssembledHamiltonian(
        None, (dipole.shape[0], m),
        blocks=_ParityBlocks(tuple(blocks), tuple(np.sort(block.states) for block in blocks),
                             leak, scale),
        whole=functools.partial(_kronecker_sum, m, dipole, x, y, omega_field, c_w))


@dataclass(frozen=True, eq=False)
class _DipoleSums:
    """The eta- and alpha-independent dipole operators of `assemble` for one
    spectrum's lowest levels on some dipoles, in their symmetric sector."""

    bare: np.ndarray              # one dipole's bare energies, as a diagonal matrix
    zeta_sq: np.ndarray           # one dipole's <m|zeta^2|n>
    zeta_zeta: np.ndarray         # one dipole's (zeta zeta)_mn, levels-truncated
    zeta: sp.csr_matrix           # Z = sum_mu zeta_mu
    s: sp.csr_matrix              # sum_mu S_mu, S_mn = (e_m - e_n) zeta_mn
    zz: object                    # Z Z, or None for a single dipole

    @functools.cached_property
    def dense(self):
        """(Z, S, Z Z or None) as dense arrays, for the dense factors of a
        sector of at most DENSE_THRESHOLD states, formed on first read: the
        same entries as the CSR operators."""
        return tuple(None if op is None else op.toarray() for op in (self.zeta, self.s, self.zz))


@functools.lru_cache(maxsize=1)
def _dipole_sums(spectrum, n_sites, levels):
    """_DipoleSums for (spectrum, n_sites, levels), reused while a sweep
    keeps passing the same spectrum object, which hashes by identity."""
    z_op = spectrum.zeta_elements[:levels, :levels]
    zeta = _summed(z_op, n_sites)
    return _DipoleSums(
        bare=np.diag(spectrum.energies[:levels]),
        zeta_sq=spectrum.zeta_sq_elements[:levels, :levels],
        zeta_zeta=z_op @ z_op,
        zeta=zeta,
        s=_summed(spectrum.p_elements[:levels, :levels], n_sites),
        zz=None if n_sites == 1 else zeta @ zeta)


def assemble(config: HilbertConfig, params: ReducedParams,
             spectrum: DipoleSpectrum) -> AssembledHamiltonian:
    """Projected full Hamiltonian on the symmetric sector of the dipole
    eigenbases x Fock space.

    All coefficients are the reduced ones: with lam = eta sqrt(omega/(2 N E))
    the kinetic square per dipole is (E/2)[p~ + (1-alpha) lam (a^dag+a)]^2,
    whose p~^2 part is already inside the bare energies; the momentum
    coupling is -alpha eta omega^(3/2)/sqrt(2 N E) zeta i(a^dag - a); the
    self-energy alpha^2 eta^2 omega^2/(2 N E) zeta^2; the dipole-dipole term
    -(1-alpha^2) eta^2 omega^2/(2 N E) sum_{mu != nu} zeta_mu zeta_nu.
    Everything is built in the rotated real basis.

    The convention comes from the spectrum: a well solved with the
    self-energy absorbed (`SelfEnergyInBare`) already holds it, so it is not
    added again, and that well must have been solved at this point's
    (alpha, omega, eta/sqrt(N)).

    Raises
    ------
    ConventionMismatch, ValidationError
    """
    if isinstance(config.representation, CollectiveSpin):
        raise ValidationError("assemble works in the symmetric sector, not the collective spin")
    n_sites, levels, m = config.n_dipoles, config.dipole_levels, config.fock_cutoff
    if n_sites != params.n_dipoles:
        raise ValidationError("config and params disagree on the dipole count")
    if spectrum.level_count < levels:
        raise ValidationError("spectrum holds fewer levels than requested")

    alpha, eta = params.alpha, params.eta
    omega, e_scale = params.omega, params.energy_scale
    lam = params.lambda_a

    c_cross = e_scale * (1.0 - alpha) * lam
    c_a2 = n_sites * 0.5 * e_scale * (1.0 - alpha) ** 2 * lam**2
    c_pi = alpha * eta * omega**1.5 / math.sqrt(2.0 * n_sites * e_scale)
    renorm = spectrum.shape.renorm
    if isinstance(renorm, SelfEnergyInBare):
        # The absorbed quadratic term is the per-dipole self-energy
        # coefficient, which carries a 1/N: the well is solved at
        # eta/sqrt(N). The bare energies hold it; adding it would count it twice.
        want_eta = eta / math.sqrt(n_sites)
        if (abs(renorm.alpha - alpha) > 1e-12 or abs(renorm.omega - omega) > 1e-12
                or abs(renorm.eta - want_eta) > 1e-12 * max(1.0, want_eta)):
            raise ConventionMismatch(
                "absorbed self-energy does not match (alpha, omega, eta/sqrt(N))")
        c_se = 0.0
    else:
        c_se = alpha**2 * eta**2 * omega**2 / (2.0 * n_sites * e_scale)
    c_dd = -(1.0 - alpha**2) * eta**2 * omega**2 / (2.0 * n_sites * e_scale)

    # sum_{mu != nu} zeta_mu zeta_nu = Z Z - sum_mu (zeta zeta)_mu. A single
    # dipole has no pairs, and Z Z - zeta zeta would leave rounding residue.
    # The on-site operator is summed over the dipoles per point, on the
    # dipole space only: adding cached sums instead regroups the diagonal,
    # which moved N = 4 gaps by 1.5e-12.
    sums = _dipole_sums(spectrum, n_sites, levels)
    pair = sums.zz is not None and c_dd != 0.0
    one_body = sums.bare + c_se * sums.zeta_sq
    if pair:
        one_body = one_body - c_dd * sums.zeta_zeta
    if len(_sector_pattern(n_sites, levels)[0]) <= DENSE_THRESHOLD:
        zeta, s, zz = sums.dense
        dipole = _summed_dense(one_body, n_sites)
    else:
        zeta, s, zz = sums.zeta, sums.s, sums.zz
        dipole = _summed(one_body, n_sites)
    if pair:
        dipole = dipole + c_dd * zz
    build = _banded if _is_banded(n_sites, levels, m) else _panels
    return build(n_sites, levels, m, dipole, -c_cross * s, c_pi * zeta,
                 omega_field=omega, c_w=c_a2)


@functools.lru_cache(maxsize=16)
def _two_level_ops(n_sites):
    """(J^z, J_x^2, 1, J^+ - J^-, J_x) of the two-level model on n_sites
    dipoles, with J_x = J^+ + J^-, on the collective spin (m = -j..j), as
    dense arrays, built once per count, read-only."""
    # sigma^z has eigenvalues -1/2 (ground) and +1/2; sigma^+ raises.
    jz = _summed(np.diag([-0.5, 0.5]), n_sites)
    jp = _summed(np.array([[0.0, 0.0], [1.0, 0.0]]), n_sites)
    jx = jp + jp.T
    ops = (jz.toarray(), (jx @ jx).toarray(), np.identity(n_sites + 1),
           (jp - jp.T).toarray(), jx.toarray())
    for array in ops:
        array.setflags(write=False)
    return ops


def dicke_two_level(config: HilbertConfig, params: ReducedParams,
                    spectrum: DipoleSpectrum) -> AssembledHamiltonian:
    """Two-level Dicke Hamiltonian from the replacement truncation.

    Uses the collective operators J^z, J^pm with the renormalized mode
    frequency omega_alpha and the constant N(eps0+eps1)/2 + rho d^2/2, on
    the collective spin, the symmetric sector of two-level dipoles.
    """
    if not isinstance(spectrum.shape.renorm, MainText):
        raise ConventionMismatch("two-level replacement uses the plain-well spectrum")
    if config.dipole_levels != 2:
        raise ValidationError("two-level model needs dipole_levels = 2")
    n_sites, m = config.n_dipoles, config.fock_cutoff
    if n_sites != params.n_dipoles:
        raise ValidationError("config and params disagree on the dipole count")

    couplings = derive_couplings(params)
    omega_m = spectrum.omega_m
    const = n_sites * 0.5 * (spectrum.energies[0] + spectrum.energies[1]) \
        + 0.5 * couplings.rho_d2

    jz, jx2, identity, jpm, jx = _two_level_ops(n_sites)

    # Rotated interaction: +g'(J+ - J-)(c^dag - c) - g(J+ + J-)(c^dag + c).
    # Formed densely, left to right; above DENSE_THRESHOLD sector states the
    # factors are CSR, which store only their nonzero entries.
    factors = (omega_m * jz - (couplings.c_alpha / n_sites) * jx2 + const * identity,
               couplings.g_prime_alpha / math.sqrt(n_sites) * jpm,
               -(couplings.g_alpha / math.sqrt(n_sites)) * jx)
    if n_sites + 1 > DENSE_THRESHOLD:
        factors = tuple(sp.csr_matrix(op) for op in factors)
    build = _banded if _is_banded(n_sites, 2, m) else _panels
    return build(n_sites, 2, m, *factors, omega_field=couplings.omega_alpha)


def _dsyevr(a, k, vectors):
    """The k lowest eigenvalues of the dense real symmetric array a,
    ascending, and with `vectors` their unit vectors as columns: one call of
    LAPACK's dsyevr on the lower triangle, which scales a matrix whose
    largest |entry| lies out of range, solves a 1 x 1 matrix at once and
    sorts the levels. Raises ConvergenceError when dsyevr reports a failure."""
    values, z, _, _, info = lapack.dsyevr(a, compute_v=vectors, range="I", lower=1, iu=k)
    if info:
        raise ConvergenceError(f"LAPACK's dsyevr failed (info {info}) at dimension {a.shape[0]}")
    return (values[:k], z) if vectors else values[:k]


def _davidson(matrix, tol, deflate=()):
    """(theta, x, |r|): the lowest eigenpair of the real symmetric block
    `matrix`, a CSR matrix or a `_PanelBlock` (anything with `shape`,
    `diagonal()` and `@`), on the orthogonal complement of the orthonormal vectors `deflate`, by
    Davidson's method with the diagonal as preconditioner, and the norm of
    its residual r = H x - theta x projected on that complement.

    The basis starts from the unit vectors of the _SEEDS lowest diagonal
    entries d that leave something outside `deflate`. Each step adds the
    correction r / (d - theta), each d - theta smaller than _SHIFT_FLOOR in
    magnitude set to it, or r itself where nothing of the correction is
    left, orthogonalised twice against `deflate` and the basis; a full basis
    of _BASIS vectors restarts from the Ritz vector. It stops when |r|,
    recomputed from a fresh product H x, is at most tol max(1, |theta|)
    (RESIDUAL_TOL for tol = 0), and raises ConvergenceError after
    DAVIDSON_MAXITER steps.
    """
    n = matrix.shape[0]
    diag = matrix.diagonal()
    fixed = np.reshape(deflate, (-1, n))
    size = min(_BASIS, n - len(fixed))
    basis, product = np.empty((size, n)), np.empty((size, n))
    projected = np.empty((size, size))
    used = 0

    def add(vector):
        """Append vector, orthonormalised, with its product; False when
        nothing of it is left outside `deflate` and the basis."""
        nonlocal used
        norm = np.linalg.norm(vector)
        for _ in range(2):
            for span in (fixed, basis[:used]):
                vector = vector - (span @ vector) @ span
        left = np.linalg.norm(vector)
        if not left > 1e-8 * norm:
            return False
        basis[used] = vector / left
        product[used] = matrix @ basis[used]
        projected[used, :used + 1] = projected[:used + 1, used] = basis[:used + 1] @ product[used]
        used += 1
        return True

    # A deflated unit vector (e.g. the ground vector of a diagonal block)
    # adds nothing; the next lowest entry takes its place.
    seeds = min(size, _SEEDS)
    for i in np.argsort(diag, kind="stable"):
        if used == seeds:
            break
        add(np.eye(1, n, i)[0])
    for _ in range(DAVIDSON_MAXITER):
        values, vectors = _dsyevr(projected[:used, :used], 1, True)
        theta, y = values[0], vectors[:, 0]
        bound = (tol or RESIDUAL_TOL) * max(1.0, abs(theta))
        x = y @ basis[:used]
        residual = y @ product[:used] - theta * x
        residual -= (fixed @ residual) @ fixed
        norm = np.linalg.norm(residual)
        if norm <= bound:
            residual = matrix @ x - theta * x
            residual -= (fixed @ residual) @ fixed
            norm = np.linalg.norm(residual)
            if norm <= bound:
                return theta, x, norm
        if used == size:
            used = 0
            add(x)
        shift = diag - theta
        shift[np.abs(shift) < _SHIFT_FLOOR] = _SHIFT_FLOOR
        if not add(residual / shift):
            add(residual)
    raise ConvergenceError(
        f"iterative solve not converged in {DAVIDSON_MAXITER} steps at dimension {n}; "
        "ask for fewer levels k, or use method='dense'")


def lowest_eigenvalues(h: AssembledHamiltonian, k: int, method: str | None = None,
                       return_vectors: bool = False):
    """k smallest eigenvalues (ascending), and their vectors on request.

    method forces "dense" or "sparse"; the default is dense up to
    DENSE_THRESHOLD states (or when k is at least the dimension less one)
    and sparse above. The dense path is one dsyevr call (`_dsyevr`) on the
    dense matrix, which computes only the k lowest pairs, and no vectors
    unless asked for.

    The sparse path finds the k levels one at a time, each by `_davidson`
    deflated against the vectors found before it. Each level lambda comes
    with a unit vector v, orthogonal to the vectors before it, whose
    residual H v - lambda v, off those vectors and recomputed from a fresh
    product H v, has norm at most RESIDUAL_TOL max(1, |lambda|). So for
    k = 1 an eigenvalue lies within that norm of lambda, and lambda within
    about its square over the gap to the rest of the spectrum. Like any
    iterative solve it cannot prove that the level it found is the lowest;
    it starts from the unit vectors of the lowest diagonal entries, which
    make it reach the bottom of a near-degenerate multiplet (`_SEEDS`).
    Those depend on the matrix alone, so a matrix's result depends on
    nothing else: not on the solves before it, nor on its neighbours in a
    sweep. It raises ConvergenceError after DAVIDSON_MAXITER steps, and
    ValidationError for k of at least the dimension less one, which only
    the dense path solves.
    """
    if not 1 <= k <= h.dimension:
        raise ValidationError(f"k = {k} outside 1..{h.dimension}")
    if method is None:
        method = "dense" if (h.dimension <= DENSE_THRESHOLD or k >= h.dimension - 1) else "sparse"
    if method == "dense":
        return _dsyevr(h.matrix.toarray(), k, return_vectors)
    if method != "sparse":
        raise ValidationError("method must be None, 'dense' or 'sparse'")
    if k >= h.dimension - 1:
        raise ValidationError(
            f"the iterative solve needs k below dimension - 1 = {h.dimension - 1}; "
            "use method='dense'")
    matrix = h.matrix
    vals, vecs = np.empty(k), np.empty((k, h.dimension))
    for i in range(k):
        vals[i], vecs[i], _ = _davidson(matrix, 0.0, vecs[:i])
    order = np.argsort(vals)
    if return_vectors:
        return vals[order], vecs[order].T
    return vals[order]


def fock_tail_weight(h: AssembledHamiltonian, vector) -> float:
    """Probability of the highest Fock state in a normalized eigenvector, or
    0.0 where it lies below the eigensolver's rounding."""
    top = np.asarray(vector).reshape(h.axis_dims)[..., -1]
    tail = float(np.sum(top ** 2))
    # Each component of a computed unit vector is uncertain by about eps, so
    # below eps**2 per state of the top Fock slice the weight is rounding.
    return tail if tail > np.finfo(float).eps ** 2 * top.size else 0.0


def _dsbevx(band, k):
    """The k lowest eigenvalues, ascending, of the block whose lower band is
    `band` (LAPACK storage): one values-only call of LAPACK's dsbevx. Raises
    ConvergenceError when dsbevx reports a failure."""
    values, _, _, _, info = lapack.dsbevx(band, 0.0, 0.0, 1, k, compute_v=0, range=2,
                                          lower=1, overwrite_ab=0)
    if info:
        raise ConvergenceError(f"LAPACK's dsbevx failed (info {info}) at dimension {band.shape[1]}")
    return values[:k]


def _inverse_iteration(band, level):
    """The unit vector x of one step of inverse iteration shifted to `level`,
    (H - level) x ~ 1 solved by LAPACK's dgbsv on the band; or None when the
    shifted band is singular or ||H x - level x|| exceeds
    RESIDUAL_TOL max(1, |level|)."""
    width, size = band.shape
    b = width - 1
    general = np.zeros((3 * b + 1, size), order="F")     # dgbsv's storage, kl = ku = b
    general[2 * b:] = band
    for d in range(1, width):
        general[2 * b - d, d:] = band[d, :size - d]
    general[2 * b] -= level
    _, _, x, info = lapack.dgbsv(b, b, general, np.ones((size, 1)), overwrite_ab=1, overwrite_b=1)
    if info:
        return None
    x = x[:, 0] / np.linalg.norm(x)
    residual = blas.dsbmv(b, 1.0, band, x, lower=1) - level * x
    if not np.linalg.norm(residual) <= RESIDUAL_TOL * max(1.0, abs(level)):
        return None
    return x


def ground_pair(h: AssembledHamiltonian):
    """(G, E, Fock-tail weight): the two lowest energies and the weight of
    the highest Fock state in the ground vector, with a warning when that
    weight exceeds FOCK_TAIL_TOL. It is the one reader of a point's blocks:
    every sweep and report reads G here.

    H conserves the joint parity (-1)^(sum of the dipole levels + photon
    number), so its even and odd blocks (`h.blocks`, each block's states in
    the whole basis at `h.blocks.index`) are solved apart, each for its
    lowest level. The lower of the two is G. E is the second level over both
    blocks: the other block's lowest level, unless the ground block's second
    level lies below it.

    A banded block (a point of at most DENSE_THRESHOLD states per block) is
    solved for its two lowest levels by one values-only dsbevx call. If it
    holds G, the ground vector comes from one step of inverse iteration
    shifted to G, accepted when ||H x - G x|| <= RESIDUAL_TOL max(1, |G|). A
    ground block whose inverse iteration fails, and a panel or hand-built
    CSR block of at most DENSE_THRESHOLD states, are solved by one dsyevr
    call for their two lowest levels and vectors. So the ground block's
    second level comes from the same solve as G, exactly.

    A larger block, a `_PanelBlock` of an assembled point, is solved by
    `_davidson` for its lowest level and vector. One more `_davidson`
    solve, deflated against the ground vector, ranks the second level at
    tolerance RANKING_TOL: when its Ritz value theta less its residual norm
    does not clear the other block's level, the level is solved again at
    tolerance 0. E is the lower of the
    two. The budget bounds h, whose size is the sum of the two blocks'.

    The blocks leave out the entries between them, which are rounding from
    the well solve: a ValidationError is raised when the largest exceeds
    PARITY_TOL max|H|, and a bare matrix, without blocks, raises it too.
    The Fock-tail warning points at the line that ran the sweep or report
    that called this function.
    """
    blocks = h.blocks
    if blocks is None:
        raise ValidationError("ground_pair needs a point from assemble or dicke_two_level")
    if blocks.leak > PARITY_TOL * blocks.scale:
        raise ValidationError(
            f"parity blocks coupled by {blocks.leak:.2e} (max |H| {blocks.scale:.2e})")
    # Per block: (levels, ground vector or None until it is needed, block
    # number). k = 2 fits every block: each of the 2 or more sector states
    # puts one of its photon numbers 0 and 1 in each block.
    solved = []
    for which, index in enumerate(blocks.index):
        if blocks.bands is not None:
            solved.append((_dsbevx(blocks.bands[which][0], 2), None, which))
            continue
        block = AssembledHamiltonian(blocks.matrices[which], (index.size,))
        vals, vecs = lowest_eigenvalues(block, 2 if index.size <= DENSE_THRESHOLD else 1,
                                        return_vectors=True)
        solved.append((vals, vecs[:, 0], which))
    (vals, ground_vector, which), (other, *_) = sorted(solved, key=lambda s: s[0][0])
    if blocks.bands is not None:
        band, states = blocks.bands[which]
        ground_vector = _inverse_iteration(band, vals[0])
        if ground_vector is None:
            vals, vecs = _dsyevr(_band_dense(band), 2, True)
            ground_vector = vecs[:, 0]
    else:
        block = blocks.matrices[which]
        states = block.states if isinstance(block, _PanelBlock) else blocks.index[which]
    vector = np.zeros(h.dimension)
    vector[states] = ground_vector
    tail = fock_tail_weight(h, vector)
    if tail > FOCK_TAIL_TOL:
        warnings.warn(
            f"Fock tail occupation {tail:.2e} exceeds {FOCK_TAIL_TOL:.0e}; "
            "raise fock_cutoff",
            stacklevel=3,
        )
    if vals.size > 1:
        second = vals[1]
    else:
        second, _, residual = _davidson(block, RANKING_TOL, ground_vector)
        if second - residual <= other[0]:
            second = _davidson(block, 0.0, ground_vector)[0]
    return float(vals[0]), float(min(other[0], second)), tail


def transition_sweep(config: HilbertConfig, params_template: ReducedParams,
                     eta_grid, include_two_level: bool = True):
    """Ground and first-excited energies along an eta grid.

    Emits one row per (eta, model) with model "exact" (the assembled L-level
    Hamiltonian) and, optionally, "two_level" (the collective replacement
    model at the same gauge). Rows carry (eta, alpha, model, G, E, gap/omega).
    """
    spectrum = params_template.spectrum
    if spectrum is None:
        raise ValidationError("params_template carries no dipole spectrum")
    two = HilbertConfig(config.n_dipoles, 2, config.fock_cutoff,
                        representation=CollectiveSpin(), budget=config.budget)
    models = ("exact", "two_level") if include_two_level else ("exact",)
    rows = []
    for eta in eta_grid:
        params = params_template.with_(eta=float(eta))
        for model in models:
            ground, excited, _ = ground_pair(
                assemble(config, params, spectrum) if model == "exact"
                else dicke_two_level(two, params, spectrum))
            rows.append({
                "eta": float(eta), "alpha": params.alpha, "model": model,
                "G": ground, "E": excited,
                "gap_over_omega": (excited - ground) / params.omega,
            })
    return rows


def second_derivative_sweep(config: HilbertConfig, params_template: ReducedParams,
                            eta_grid):
    """Central second differences of the shifted ground energy per dipole of
    the two-level model on `config` (dipole_levels = 2).

    G_s = G - rho d^2 / 2; returns rows (eta, (N omega)^-1 d^2 G_s / d eta^2)
    for the interior grid points. The grid must be uniform. Each point
    reads G as `ground_pair(h)[0]`, the one reader of a point's blocks.

    d^2 is the central second difference at the grid step h. Its truncation
    error, (h^2/12) d^4 G_s / d eta^4, is far larger than rounding: at
    h = 0.01 it is 1.6-1.9e-6 of the value at N = 1 and 1.3-3.6e-5 at
    N = 4, so only about 5 of the 17 digits the CLI prints hold.
    """
    grid = np.asarray(list(eta_grid), dtype=float)
    if grid.size < 3:
        raise GridError("need at least 3 grid points for a second difference")
    if not np.all(np.isfinite(grid)) or grid[1] == grid[0]:
        raise GridError("eta grid needs finite points and a nonzero step")
    steps = np.diff(grid)
    h_step = steps[0]
    if np.any(np.abs(steps - h_step) > 1e-9 * max(abs(h_step), 1e-30)):
        raise GridError("eta grid is not uniform")
    spectrum = params_template.spectrum
    if spectrum is None:
        raise ValidationError("params_template carries no dipole spectrum")
    g_s = []
    for eta in grid:
        params = params_template.with_(eta=float(eta))
        ground = ground_pair(dicke_two_level(config, params, spectrum))[0]
        g_s.append(ground - 0.5 * params.rho_d2)
    g_s = np.asarray(g_s)
    scale = 1.0 / (config.n_dipoles * params_template.omega * h_step**2)
    rows = []
    for i in range(1, grid.size - 1):
        second = (g_s[i - 1] - 2.0 * g_s[i] + g_s[i + 1]) * scale
        rows.append((float(grid[i]), float(second)))
    return rows


def convergence_report(config_ladder, params: ReducedParams, spectrum: DipoleSpectrum):
    """Ground/first-excited energies along a (L, M) cutoff ladder.

    Reports successive deltas and flags rungs whose Fock tail is heavy or
    whose deltas stop shrinking (non-Cauchy behaviour). At converged rungs
    delta_G and delta_E are differences of values that agree to about 1e-8,
    so they carry about eps |G| of rounding: their last 6-7 digits are not
    significant.
    """
    rows = []
    prev_g = prev_e = None
    prev_dg = None
    for cfg in config_ladder:
        ground, excited, tail = ground_pair(assemble(cfg, params, spectrum))
        flags = []
        if tail > FOCK_TAIL_TOL:
            flags.append("fock-tail")
        delta_g = None if prev_g is None else ground - prev_g
        delta_e = None if prev_e is None else excited - prev_e
        if delta_g is not None and prev_dg is not None:
            if abs(delta_g) > abs(prev_dg):
                flags.append("non-cauchy")
        rows.append({
            "dipole_levels": cfg.dipole_levels,
            "fock_cutoff": cfg.fock_cutoff,
            "dimension": cfg.dimension,
            "G": ground,
            "E": excited,
            "delta_G": delta_g,
            "delta_E": delta_e,
            "fock_tail": tail,
            "flags": ",".join(flags),
        })
        prev_g, prev_e = ground, excited
        if delta_g is not None:
            prev_dg = delta_g
    return rows

