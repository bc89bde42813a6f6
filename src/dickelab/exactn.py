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
and F on the mode, formed by one builder, `_with_mode`, the only place that
forms products with the mode. Pair sums use sum_{mu != nu}
zeta_mu zeta_nu = Z^2 - sum_mu (zeta^2)_mu with Z = sum_mu zeta_mu. The
two-level collective-spin Dicke Hamiltonian comes from its replacement form;
it differs from the L=2 projection in the self-energy term, which is the
point of keeping both. `assemble` reads the self-energy convention off the
spectrum (`spectrum.shape.renorm`): a well that absorbed the self-energy
gets no self-energy term.

H(eta, alpha) is a fixed linear combination of eta- and alpha-independent
operators, so those are built once and each point only combines them:

- the Fock operators and the identity, per cutoff (`_photon_ops`);
- the symmetric sector's states and one-body pattern, per (N, L)
  (`_sector_pattern`), so a sector sum is one gather and one COO -> CSR;
- J^z, J_x^2 and the identity of the two-level model, dense, which each
  point sums into its dipole factor, and J^+ - J^- and J_x, per dipole count
  (`_two_level_ops`); X and Y are their cached CSR patterns with scaled
  values (`_scaled`);
- the dipole operators of `assemble` (Z, the summed momentum factor S, Z Z
  and the one-dipole blocks), per (spectrum, N, L) (`_dipole_sums`), for
  the last key only; a spectrum hashes by identity;
- the index plan of each sparsity pattern of (D, X, Y, F) (`_ModePlan`),
  per (N, L, M) (`_scope_plans`), for the last two keys: a sweep alternates
  the exact model and the two-level one (L = 2). A plan holds integer arrays
  only, whatever spectrum the values come from; each point's values are
  gathered through it.

An X or Y term whose coefficient is zero is left out, and a sparsity pattern
without it has its own plan.

Every Hamiltonian conserves the joint parity (-1)^(sum of the dipole
levels + photon number), which `_mode_plan` forms once per plan from the
sector's occupations; a point's partition is `h.blocks.index`, each block's
states in the whole basis. The plan maps each Kronecker contribution
straight into the CSR storage of the even and odd blocks, and no solve
reads anything else. `ground_pair` is the one reader of a point's blocks:
it solves each block for its lowest level, and E is the other block's
lowest level unless the ground block's second level lies below it;
`second_derivative_sweep` reads G as `ground_pair(h)[0]`. The
entries between the blocks, which no block stores, are rounding from the
well solve. Each point reads the largest of them, and H - H^T, off the
dipole factors, and checks them against PARITY_TOL and SYMMETRY_TOL.
The budget and the basis order still cover the whole matrix, both blocks
together, and `AssembledHamiltonian.matrix`, the whole matrix, is formed
when it is read, as the sparse Kronecker sum of the point's factors.

A block of at most DENSE_THRESHOLD states is solved densely by one dsyevr
call (`_dsyevr`) for its two lowest levels and their vectors, which give G,
the ground vector and the ground block's second level. So a dense point
costs one factorisation per block.

A block above DENSE_THRESHOLD states is solved by `_davidson`, Davidson's
method preconditioned by the block's diagonal, which holds the dipole and
photon energies and dominates the block; it needs only numpy and the CSR
product. Each solve finds one level, deflated against the vectors of the
levels below it: `ground_pair`'s ranking solve is one such solve, deflated
against the ground vector. A solve starts from the block's diagonal alone
(the unit vectors of its lowest entries) and has no random restart, so each
point's result depends on that point only, not on the grid around it nor on
the solves before it.
"""

import copy
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

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
# Dense subset solve up to this many states, `_davidson` above. Per block, at
# 1 BLAS thread on both blocks of N = 2, L = 8, eta 1 and 2.8, one dsyevr
# call for the two lowest pairs against a k = 1 solve with its vector and the
# ranking solve: dense wins at 144 states (0.6 against 0.7-1.0 ms), and from
# 216 on Davidson wins (1.4-1.5 against 0.9-1.3 ms at 216, 3.3 against
# 0.8-1.5 at 288, 17-18 against 1.0-1.9 at 576, 111-122 against 1.2-2.6 at
# 1080). The value stays 600, since moving it moves rows between the solvers.
# A dense solve is exact, so ground_pair reads a dense block's second level
# from the same call as its lowest.
DENSE_THRESHOLD = 600
# Davidson steps before an iterative solve gives up with ConvergenceError.
# The most matrix-vector products any converged solve took was 105 over the
# test suite (k = 3 at tol 0, 720 states), 68 over the default commands (a
# 2,400-state block of s-figs-gauges) and 84 over CI's replay lines (720
# states). 1000 steps at tol 1e-20 on a 720-state block take about 0.05 s.
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
# within 1e-12 on the test suite's iterative points; over ground_pair at
# N = 2, 3 and 5, L = 8, M = 40, alpha 0, 0.5 and 1, eta 1e-6 to 2.8, 1, 2, 3,
# 4 and 6 seeds took 2599, 2407, 2483, 2586 and 2796 products.
_SEEDS = 4
# Smallest d - theta of the diagonal correction r / (d - theta): entries with
# |d - theta| below it are set to it.
_SHIFT_FLOOR = 1e-2
FOCK_TAIL_TOL = 1e-8
SYMMETRY_TOL = 1e-12
# Relative tolerance of ground_pair's solve that ranks the ground block's
# second level against the other block's lowest. At tolerance 0 that solve
# also converged, so this only saves work: at N = 2 and 3, L = 8, M = 40,
# alpha 0 and 1, eta 1e-6 to 2.8, it took 6-36 products against 7-89 at
# tolerance 0 (at N = 3, 0.6-7.6 against 0.7-21.6 ms), and the level cleared
# the other by 0.57 or more, so none was solved again.
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
      states, Fock cutoff): its `blocks`, built from an index plan, which
      every solve reads and whose `index` is the point's joint-parity
      partition, and `whole`, which forms `matrix` on first read as the
      Kronecker sum D x 1 + 1 x F + X x t + Y x q of its factors;
    - a bare `matrix` for `lowest_eigenvalues`, e.g. one parity block
      (`axis_dims` of one entry); its `blocks` are None.

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
    """The even and odd blocks of a Hamiltonian, each as CSR over its states
    in index order; each block's state indices in the whole basis; the
    largest |entry| between the blocks, which no block stores; and max |H|."""

    matrices: tuple
    index: tuple
    leak: float
    scale: float


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
    itertools.combinations_with_replacement; `_mode_plan` reads each state's
    dipole parity (-1)^(sum of its levels) off it, and with the photon
    parity the blocks' partition `h.blocks.index`. The other four list the
    entries of sum_ij op_ji b_j^dag b_i: the entry moving a dipole from
    level i to level j carries op_ji (level pair j * levels + i) times
    sqrt(n_i (n_j + 1)), or n_i on the diagonal (j = i).
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


def _scaled(coefficient, op):
    """coefficient * op, a shallow copy of the CSR matrix op that shares its
    index arrays, or None (an absent term) when the coefficient is 0."""
    if coefficient == 0.0:
        return None
    scaled = copy.copy(op)
    scaled.data = op.data * coefficient
    return scaled


def _coordinates(op):
    """Row and column of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(op.shape[0]), np.diff(op.indptr)), op.indices


# Photon offsets n' - n of the Kronecker terms: F on 0 and +-2, t and q on +-1.
_OFFSETS = np.arange(-2, 3)
# Candidate entries (photon rows x entries of U x offsets) a plan build
# handles at once: a whole small plan in one pass, a large one a few photon
# rows at a time, so the build needs a few MB beyond the plan itself.
_CHUNK = 1 << 16
# Plans kept per (N, L, M) scope, oldest dropped first. A command keeps at
# most three patterns of one scope in use: s-figs-gauges cycles through one
# per gauge at each eta (2 kept: 369 builds, 3 or more: 18). A
# self-energy-in-bare sweep solves a new well per point, whose pattern mostly
# repeats the one before: `exact-sweep convention=self-energy-in-bare
# n_dipoles=3 eta_grid=0,2,6` (3 gauges, 6 etas) builds 4 plans whether 3 or
# 100 are kept, and 5 with 2 kept.
_PLANS_KEPT = 3


@dataclass(frozen=True, eq=False)
class _ModePlan:
    """Where every Kronecker contribution of one sparsity pattern of
    D x 1 + 1 x F + X x t + Y x q lands in the CSR storage of the two
    joint-parity blocks.

    A point's values are its table: D's data, F's data, X_e t_k and Y_e q_k
    (`_mode_table`), then a 0. A stored entry is table[first], plus
    table[second] at `pairs`, where two contributions meet (D_ii + F_nn or
    X_e t_k + Y_e q_k); no entry has more.

    The checks read the factors on the union U of the patterns of D, X, Y
    and the identity: each entry's position in D, X and Y (a factor's nnz
    where it has none), the position of its mirror in U (U's size where
    there is none), and whether its two dipole states share their parity.
    F needs no check: it is symmetric by construction and keeps the photon
    parity. Every array is an integer array, read-only.
    """

    blocks: tuple         # per block: (indptr, indices, first, pairs, second)
    index: tuple          # per block: its states' indices in the whole basis
    on_union: tuple       # (in D, in X, in Y, mirror) per entry of U
    same: np.ndarray      # per entry of U: its dipole states share their parity

    def fill(self, table):
        """The blocks as CSR matrices for one point's table."""
        matrices = []
        for (indptr, indices, first, pairs, second), states in zip(self.blocks, self.index):
            data = table[first]
            data[pairs] += table[second]
            matrices.append(sp.csr_matrix((data, indices, indptr),
                                          shape=(states.size, states.size)))
        return matrices

    def checks(self, dipole, x, y, photon_max):
        """(largest |entry| between the blocks, largest |H - H^T|), both read
        on the factors at the largest photon matrix element photon_max of
        t and q, which holds each maximum up to rounding."""
        at_d, at_x, at_y, mirror = self.on_union
        d, x, y = (np.append(op.data, 0.0)[at] if op is not None else np.zeros(at.size)
                   for op, at in ((dipole, at_d), (x, at_x), (y, at_y)))
        # A hop entry X_u x t + Y_u x q reads (+-x + y) * photon_max on the
        # links where t = +-photon_max; its mirror's link has the other sign.
        x, y = x * photon_max, y * photon_max
        up, down = x + y, y - x
        between = np.concatenate((d[~self.same], up[self.same], down[self.same]))
        asymmetry = np.concatenate((d - np.append(d, 0.0)[mirror],
                                    up - np.append(down, 0.0)[mirror]))
        return (np.abs(between).max() if between.size else 0.0,
                np.abs(asymmetry).max() if asymmetry.size else 0.0)


def _mode_plan(occupations, m, dipole, x, y, f):
    """The `_ModePlan` of D x 1 + 1 x F + X x t + Y x q (X or Y None when
    absent) on the sector states `occupations` x Fock(m), for the blocks of
    the joint parity, which is formed here and nowhere else.

    The entries of row (i, n) are, for each entry (i, j) of U in order, the
    photon offsets n' - n its terms put there; they are laid out a chunk of
    photon rows at a time."""
    n_dip = dipole.shape[0]
    _, _, q, t, _, _ = _photon_ops(m)      # q has t's pattern

    def keys(op):
        if op is None:
            return np.empty(0, dtype=np.int64)
        rows, cols = _coordinates(op)
        return rows.astype(np.int64) * n_dip + cols

    def position(stored, wanted):
        """Where each wanted key is stored, or stored.size where it is not."""
        if stored.size == 0:
            return np.zeros(wanted.size, dtype=np.intp)
        order = np.argsort(stored, kind="stable")
        at = order[np.minimum(np.searchsorted(stored, wanted, sorter=order), stored.size - 1)]
        return np.where(stored[at] == wanted, at, stored.size)

    stored = [keys(op) for op in (dipole, x, y)]
    diagonal = np.arange(n_dip, dtype=np.int64) * (n_dip + 1)
    union = np.unique(np.concatenate(stored + [diagonal]))
    u_rows, u_cols = np.divmod(union, n_dip)
    at_d, at_x, at_y = (position(k, union) for k in stored)
    in_d, in_x, in_y = (at < k.size for at, k in zip((at_d, at_x, at_y), stored))
    mirror = position(union, u_cols * n_dip + u_rows)
    dipole_parity = (-1) ** (occupations @ np.arange(occupations.shape[1]))
    same = dipole_parity[u_rows] == dipole_parity[u_cols]
    is_diag = u_rows == u_cols

    # Which offsets (-2..2) each entry of U carries within a block: even
    # offsets join states of equal dipole parity, odd ones the others.
    carries = np.zeros((union.size, 5), dtype=bool)
    carries[:, 2] = in_d | is_diag
    carries[:, [0, 4]] = (is_diag & (f.nnz > m))[:, None]     # F beyond its diagonal
    carries[:, [1, 3]] = (in_x | in_y)[:, None]
    carries &= (same[:, None] == (_OFFSETS % 2 == 0))
    # Each block's states, the even block first, and each state's place in its block.
    parity = np.kron(dipole_parity, (-1) ** np.arange(m))
    index = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    rank = np.empty(parity.size, dtype=np.intp)
    for states in index:
        rank[states] = np.arange(states.size)

    # Photon tables: the position of F's, and of t's (= q's), entry (n, n + offset).
    photon_at = np.full((m, 5), -1)
    for op in (f, t):
        rows, cols = _coordinates(op)
        photon_at[rows, cols - rows + 2] = np.arange(op.nnz)
    inside = (np.arange(m)[:, None] + _OFFSETS >= 0) & (np.arange(m)[:, None] + _OFFSETS < m)

    # Row lengths, each block's indptr, and where each row starts in the
    # storage of all blocks, which lie one after the other.
    starts = np.searchsorted(u_rows, np.arange(n_dip))
    lengths = (np.add.reduceat(carries.astype(np.intp), starts, axis=0) @ inside.T).ravel()
    f_base = dipole.nnz
    x_base = f_base + f.nnz
    y_base = x_base + (x.nnz * t.nnz if x is not None else 0)
    zero = y_base + (y.nnz * q.nnz if y is not None else 0)
    dtype = np.int32 if max(zero, lengths.sum() + 1) < 2**31 else np.int64
    indptrs = [np.concatenate(([0], np.cumsum(lengths[states]))).astype(dtype)
               for states in index]
    bases = np.cumsum([0] + [ptr[-1] for ptr in indptrs])
    row_start = np.empty(n_dip * m, dtype=np.intp)
    for states, indptr, base in zip(index, indptrs, bases):
        row_start[states] = base + indptr[:-1]
    indices, firsts = np.empty(bases[-1], dtype=dtype), np.empty(bases[-1], dtype=dtype)
    pairs = []

    # A chunk of photon rows at a time: its entries in (n, i, j, offset) order.
    step = max(1, _CHUNK // carries.size)
    for n0 in range(0, m, step):
        photons = np.arange(n0, min(m, n0 + step))
        n, u, o = np.nonzero(carries & inside[photons][:, None, :])
        n, off = photons[n], _OFFSETS[o]
        row = u_rows[u] * m + n
        k = photon_at[n, o]
        hop = off % 2 == 1
        first = np.where(hop, np.where(in_x[u], x_base + at_x[u] * t.nnz + k,
                                       y_base + at_y[u] * q.nnz + k),
                         np.where((off == 0) & in_d[u], at_d[u], f_base + k))
        second = np.where(hop, np.where(in_x[u] & in_y[u], y_base + at_y[u] * q.nnz + k, zero),
                          np.where((off == 0) & in_d[u] & is_diag[u], f_base + k, zero))
        # A row's entries are consecutive; number them from its start.
        run = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
        dest = row_start[row] + np.arange(row.size) - np.repeat(run, np.diff(np.append(run, row.size)))
        indices[dest] = rank[u_cols[u] * m + n + off]
        firsts[dest] = first
        two = second != zero
        pairs.append((dest[two], second[two]))

    at, src = (np.concatenate(column) for column in zip(*pairs))
    blocks = []
    for indptr, lo, hi in zip(indptrs, bases[:-1], bases[1:]):
        mine = (at >= lo) & (at < hi)
        blocks.append((indptr, indices[lo:hi], firsts[lo:hi],
                       (at[mine] - lo).astype(dtype), src[mine].astype(dtype)))
    plan = _ModePlan(tuple(blocks), tuple(index),
                     tuple(a.astype(dtype) for a in (at_d, at_x, at_y, mirror)), same)
    for array in (*itertools.chain.from_iterable(blocks), *plan.index, *plan.on_union, same):
        array.setflags(write=False)
    return plan


def _mode_table(m, dipole, x, y, omega_field, c_w):
    """(F's CSR pattern, the point's table of values), with F = omega_field
    (a^dag a + 1/2) + c_w (rotated (a^dag + a)^2): diagonal when c_w = 0,
    so a zero A^2 term stores nothing."""
    half, half_on_w, q, t, w, identity = _photon_ops(m)
    if c_w == 0.0:
        f, f_data = identity, omega_field * half
    else:
        f, f_data = w, omega_field * half_on_w + c_w * w.data
    table = np.concatenate([dipole.data, f_data]
                           + [np.multiply.outer(op.data, photon.data).ravel()
                              for op, photon in ((x, t), (y, q)) if op is not None]
                           + [[0.0]])
    return f, table


@functools.lru_cache(maxsize=2)
def _scope_plans(n_sites, levels, m):
    """`_planned`'s plans on one sector x Fock(m), per pattern, oldest first."""
    return {}


def _planned(n_sites, levels, m, dipole, x, y, f):
    """The plan of this sparsity pattern on its sector x Fock(m), built on first use."""
    plans = _scope_plans(n_sites, levels, m)
    key = (f.nnz, *((op.indptr.tobytes(), op.indices.tobytes()) if op is not None else None
                    for op in (dipole, x, y)))
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _PLANS_KEPT:
            del plans[next(iter(plans))]          # the oldest
        plan = plans[key] = _mode_plan(_sector_pattern(n_sites, levels)[0], m,
                                       dipole, x, y, f)
    return plan


def _with_mode(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
    """The Hamiltonian D x 1 + 1 x F + X x (a^dag - a) + Y x (a^dag + a) on
    the sector of n_sites dipoles with `levels` levels x Fock(m), with
    F = omega_field (a^dag a + 1/2) + c_w (rotated (a^dag + a)^2), built as
    its two joint-parity blocks through the plan of its sparsity pattern.
    X or Y may be None for an absent term.

    Raises ValidationError when H - H^T exceeds SYMMETRY_TOL max|H|.
    """
    f, table = _mode_table(m, dipole, x, y, omega_field, c_w)
    plan = _planned(n_sites, levels, m, dipole, x, y, f)
    matrices = plan.fill(table)
    photon_max = np.sqrt(m - 1.0)       # the largest |entry| of t and q
    leak, asymmetry = plan.checks(dipole, x, y, photon_max)
    scale = max([leak] + [np.abs(block.data).max() for block in matrices if block.nnz])
    if asymmetry > SYMMETRY_TOL * max(scale, 1.0):
        raise ValidationError(f"assembled matrix asymmetric by {asymmetry:.2e}")

    def whole():
        # No entry has more than two terms, so each sum is the plan's sum;
        # sparse sums store no zeros.
        half, _, q, t, w, identity = _photon_ops(m)
        mode = omega_field * sp.diags(half) + c_w * w
        total = (sp.kron(dipole, identity, format="csr")
                 + sp.kron(sp.identity(dipole.shape[0]), mode, format="csr"))
        for op, photon in ((x, t), (y, q)):
            if op is not None:
                total = total + sp.kron(op, photon, format="csr")
        return total

    return AssembledHamiltonian(
        None, (dipole.shape[0], m),
        blocks=_ParityBlocks(tuple(matrices), plan.index, leak, scale), whole=whole)


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
    # which moved N = 4 gaps by 1.5e-12. The two terms are summed as one COO
    # list, which keeps the entries where they cancel: a sparse + would drop
    # them, and D's pattern, and with it its plan, would change with eta.
    sums = _dipole_sums(spectrum, n_sites, levels)
    if sums.zz is not None and c_dd != 0.0:
        terms = (_summed(sums.bare + c_se * sums.zeta_sq - c_dd * sums.zeta_zeta, n_sites),
                 c_dd * sums.zz)
        dipole = sp.csr_matrix((np.concatenate([op.data for op in terms]),
                                np.concatenate([_coordinates(op) for op in terms], axis=1)),
                               shape=sums.zz.shape)
    else:
        dipole = _summed(sums.bare + c_se * sums.zeta_sq, n_sites)
    return _with_mode(n_sites, levels, m, dipole,
                      _scaled(-c_cross, sums.s), _scaled(c_pi, sums.zeta),
                      omega_field=omega, c_w=c_a2)


@functools.lru_cache(maxsize=16)
def _two_level_ops(n_sites):
    """(J^z, J_x^2, 1, J^+ - J^-, J_x) of the two-level model on n_sites
    dipoles, with J_x = J^+ + J^-, on the collective spin (m = -j..j), built
    once per count, never modified: the first three as dense arrays, which
    the dipole factor combines, the others as CSR."""
    # sigma^z has eigenvalues -1/2 (ground) and +1/2; sigma^+ raises.
    jz = _summed(np.diag([-0.5, 0.5]), n_sites).toarray()
    jp = _summed(np.array([[0.0, 0.0], [1.0, 0.0]]), n_sites)
    jx = (jp + jp.T).tocsr()
    dense = (jz, (jx @ jx).toarray(), np.identity(n_sites + 1))
    for array in dense:
        array.setflags(write=False)
    return *dense, (jp - jp.T).tocsr(), jx


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
    # Formed densely, left to right; csr_matrix stores only its nonzero entries.
    dipole = sp.csr_matrix(omega_m * jz - (couplings.c_alpha / n_sites) * jx2
                           + const * identity)
    return _with_mode(n_sites, 2, m, dipole,
                      _scaled(couplings.g_prime_alpha / math.sqrt(n_sites), jpm),
                      _scaled(-(couplings.g_alpha / math.sqrt(n_sites)), jx),
                      omega_field=couplings.omega_alpha)


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
    """(theta, x, |r|): the lowest eigenpair of the real symmetric CSR matrix
    on the orthogonal complement of the orthonormal vectors `deflate`, by
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
    level lies below it. A block of at most DENSE_THRESHOLD states is solved
    densely for its two lowest levels, so that level comes from the same
    solve as G, exactly. On a larger block one `_davidson` solve, deflated
    against the ground vector, ranks it at tolerance RANKING_TOL: when its
    Ritz value theta less its residual norm does not clear the other block's
    level, the level is solved again at tolerance 0. E is the lower of the
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
    solved = []
    for matrix, index in zip(blocks.matrices, blocks.index):
        block = AssembledHamiltonian(matrix, (index.size,))
        # k = 2 fits every block: each of the 2 or more sector states puts
        # one of its photon numbers 0 and 1 in each block.
        k = 2 if block.dimension <= DENSE_THRESHOLD else 1
        vals, vecs = lowest_eigenvalues(block, k, return_vectors=True)
        solved.append((vals, vecs[:, 0], index, block))
    (vals, ground_vector, index, block), (other, *_) = sorted(solved, key=lambda s: s[0][0])
    vector = np.zeros(h.dimension)
    vector[index] = ground_vector
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
        second, _, residual = _davidson(block.matrix, RANKING_TOL, ground_vector)
        if second - residual <= other[0]:
            second = _davidson(block.matrix, 0.0, ground_vector)[0]
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
    whose deltas stop shrinking (non-Cauchy behaviour).
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

