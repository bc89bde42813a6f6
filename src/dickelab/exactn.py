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
point of keeping both.

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

Every Hamiltonian conserves the joint parity of `parity_diagonal`,
(-1)^(sum of the dipole levels + photon number). The plan maps each
Kronecker contribution straight into the CSR storage of the even and odd
blocks, and no solve reads anything else; `ground_pair` solves each block
for its lowest level, and E is the other block's lowest level unless the
ground block's second level lies below it; `second_derivative_sweep` reads
only G, and solves each block for its lowest level alone. The entries
between the blocks, which no block stores, are rounding from the well solve.
Each point reads the largest of them, and H - H^T, off the dipole factors,
and checks them against PARITY_TOL and SYMMETRY_TOL.
The budget and the basis order still cover the whole matrix, both blocks
together, and `AssembledHamiltonian.matrix`, the whole matrix, is formed
when it is read, as the sparse Kronecker sum of the point's factors.

A block of at most DENSE_THRESHOLD states is solved densely by the steps of
LAPACK's dsyevr, which scipy.linalg.eigh's subset solve runs, through
`scipy.linalg.lapack`: the block is reduced to tridiagonal form once
(`_Tridiagonal`, kept on the block), and its lowest level, ground vector and
second level are each read from that reduction, bit for bit eigh's. So a
dense point costs two reductions, one per block.

A block above DENSE_THRESHOLD states is solved by ARPACK's Lanczos. It starts
from a vector weighted towards the block's lowest diagonal entries
(`_start_vector`, built from the diagonal alone), so each point's result
depends on that point only, not on the grid around it, and it multiplies
through `_CsrOperator`, a lean operator over the block's CSR storage.
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
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

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
# Dense subset solve up to this many states, Lanczos above. Per block, a k = 1
# solve with its vector and the ranking solve, on both blocks of N = 2, L = 8
# at 1 BLAS thread (one reduction dense, the weighted start for Lanczos): the
# two cost the same near 360-470 states (dense 6.8-7.5 against Lanczos
# 7.2-10.0 ms at 360, 13-15 against 10-13 ms at 468, eta 1); above, Lanczos
# wins (17-19 against 7-12 ms at 576, 67-69 against 10-14 at 900 and 141-148
# against 15-24 at 1080, eta 1 and 2.8). The value stays 600, since moving it
# moves rows between the solvers. A dense solve is exact at any tol, so
# ground_pair takes a dense block's second level from its one ranking solve.
DENSE_THRESHOLD = 600
# ARPACK restarts (maxiter) before a Lanczos solve gives up. The most any
# converged solve took was 75, over the test suite and default fig3a,
# s-figs-gauges and exact-sweep (1,349 matvecs, 2,560 states, k = 2, tol 0),
# and 60 on those commands (1,027 matvecs, a 2,400-state ranking solve).
# ARPACK's default, 10 x dimension, let a tolerance-0 solve for a level in a
# near-degenerate multiplet run 15 s (720 states) or 230 s (2,400 states)
# before it failed.
LANCZOS_MAXITER = 1000
# Energy scale (in units of omega) of the Lanczos start vector's weights,
# exp(-(diagonal - its minimum) / START_SCALE) (`_start_vector`). Against the
# uniform start it cut ground_pair's matvecs at L = 8, M = 40 in the Coulomb,
# JC and multipolar gauges: over N = 2 and 3 at eta 1e-3, 1, 1.99 and 2.8,
# k = 1 solves by 28 % and ranking solves by 47 % at 0.3 (0.1: 30 / 46 %,
# 1.0: 21 / 42 %); over N = 2 at eta 0..2.6, by 33 / 62 % (0.1: 34 / 56 %,
# 1.0: 26 / 40 %); at N = 5 (15,840-state blocks), eta 1 and 2.8, by
# 20 / 37 %. At 0.3, G and E moved by at most 9.8e-15 relative.
START_SCALE = 0.3
FOCK_TAIL_TOL = 1e-8
SYMMETRY_TOL = 1e-12
# Relative Lanczos tolerance of ground_pair's solve that ranks the ground
# block's second level against the other block's lowest. Solved at
# tolerance 0, that level stalls ARPACK where it sits in a near-degenerate
# multiplet (at eta <= 1e-3 no convergence in 300 restarts at N = 2 and 3).
# At 1e-4 the ranking solve took 15-60 ms at N = 3, L = 8, M = 40 for eta
# from 1e-6 to 2.8, and the level cleared the other by 0.58 or more.
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
      every solve reads, and `whole`, which forms `matrix` on first read as
      the Kronecker sum D x 1 + 1 x F + X x t + Y x q of its factors;
    - a bare `matrix` for `lowest_eigenvalues`, e.g. one parity block
      (`axis_dims` of one entry); its `blocks` are None.

    The matrix is never modified: the first dense solve keeps its
    tridiagonal reduction (`_Tridiagonal`) for the next.
    """

    def __init__(self, matrix, axis_dims, occupations=None, *, blocks=None, whole=None):
        self._matrix, self._whole = matrix, whole
        self.blocks = blocks                  # the _ParityBlocks of parity_diagonal, or None
        self.axis_dims = tuple(axis_dims)     # (sector states, Fock cutoff)
        self.occupations = occupations        # the sector's (states, L) occupations; None on a block
        self.tridiagonal = None               # the _Tridiagonal of the first dense solve

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
    itertools.combinations_with_replacement. The other four list the
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
        array.setflags(write=False)   # shared by every caller, e.g. as h.occupations
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
# self-energy-in-bare sweep's new well per point repeats a pattern only at the
# next point: 13 builds at N = 3 over 3 gauges and 6 etas, whether 2 or 100 are kept.
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
    the joint parity.

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
    parity = _joint_parity(occupations, m)
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
        None, (dipole.shape[0], m), _sector_pattern(n_sites, levels)[0],
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


def _check_convention(config, params, spectrum, convention):
    renorm = spectrum.shape.renorm
    if convention is MainText:
        if not isinstance(renorm, MainText):
            raise ConventionMismatch("spectrum was not solved in the plain well")
        return
    if convention is SelfEnergyInBare:
        if not isinstance(renorm, SelfEnergyInBare):
            raise ConventionMismatch("spectrum lacks the absorbed self-energy")
        # The absorbed quadratic term must equal the actual per-dipole
        # self-energy coefficient, which carries a 1/N: the well has to be
        # solved at eta/sqrt(N).
        want_eta = params.eta / math.sqrt(config.n_dipoles)
        if (
            abs(renorm.alpha - params.alpha) > 1e-12
            or abs(renorm.omega - params.omega) > 1e-12
            or abs(renorm.eta - want_eta) > 1e-12 * max(1.0, want_eta)
        ):
            raise ConventionMismatch(
                "absorbed self-energy does not match (alpha, omega, eta/sqrt(N))"
            )
        return
    raise ValidationError("convention must be MainText or SelfEnergyInBare")


def assemble(config: HilbertConfig, params: ReducedParams,
             spectrum: DipoleSpectrum, convention=MainText) -> AssembledHamiltonian:
    """Projected full Hamiltonian on the symmetric sector of the dipole
    eigenbases x Fock space.

    All coefficients are the reduced ones: with lam = eta sqrt(omega/(2 N E))
    the kinetic square per dipole is (E/2)[p~ + (1-alpha) lam (a^dag+a)]^2,
    whose p~^2 part is already inside the bare energies; the momentum
    coupling is -alpha eta omega^(3/2)/sqrt(2 N E) zeta i(a^dag - a); the
    self-energy (MainText only) alpha^2 eta^2 omega^2/(2 N E) zeta^2; the
    dipole-dipole term -(1-alpha^2) eta^2 omega^2/(2 N E) sum_{mu != nu}
    zeta_mu zeta_nu. Everything is built in the rotated real basis.

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
    _check_convention(config, params, spectrum, convention)

    alpha, eta = params.alpha, params.eta
    omega, e_scale = params.omega, params.energy_scale
    lam = params.lambda_a

    c_cross = e_scale * (1.0 - alpha) * lam
    c_a2 = n_sites * 0.5 * e_scale * (1.0 - alpha) ** 2 * lam**2
    c_pi = alpha * eta * omega**1.5 / math.sqrt(2.0 * n_sites * e_scale)
    # With the self-energy absorbed into the well, the bare energies already
    # contain the alpha^2 zeta^2 piece; adding it again would double count.
    if convention is SelfEnergyInBare:
        c_se = 0.0
    else:
        c_se = alpha**2 * eta**2 * omega**2 / (2.0 * n_sites * e_scale)
    c_dd = -(1.0 - alpha**2) * eta**2 * omega**2 / (2.0 * n_sites * e_scale)

    # sum_{mu != nu} zeta_mu zeta_nu = Z Z - sum_mu (zeta zeta)_mu. A single
    # dipole has no pairs, and Z Z - zeta zeta would leave rounding residue.
    # The on-site operator is summed over the dipoles per point, on the
    # dipole space only: adding cached sums instead regroups the diagonal,
    # which moved N = 4 Lanczos gaps by 1.5e-12.
    sums = _dipole_sums(spectrum, n_sites, levels)
    if sums.zz is not None and c_dd != 0.0:
        dipole = (_summed(sums.bare + c_se * sums.zeta_sq - c_dd * sums.zeta_zeta, n_sites)
                  + c_dd * sums.zz)
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


class _CsrOperator(LinearOperator):
    """A CSR matrix as the operator ARPACK iterates with: `matvec` is
    csr @ x, the csr_matvec kernel eigsh's own wrapping of the matrix ends
    in, without the layers of shape checks and reshapes around it."""

    def __init__(self, matrix):
        super().__init__(matrix.dtype, matrix.shape)
        self.csr = matrix

    def _matvec(self, x):
        return self.csr @ x

    matvec = _matvec


def _start_vector(matrix) -> np.ndarray:
    """Lanczos start vector of a real symmetric matrix, built from its
    diagonal alone: unit-norm, proportional to exp(-(d - min d) /
    START_SCALE) with the exponent clipped at 30, so no entry is zero."""
    diag = matrix.diagonal()
    v0 = np.exp(-np.minimum((diag - diag.min()) / START_SCALE, 30.0))
    return v0 / np.linalg.norm(v0)


# The range of the largest |entry| that LAPACK's dsyevr reduces as it is,
# from its safe minimum and precision; it scales a matrix outside the range
# into it and scales the eigenvalues back.
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN = math.sqrt(_SMLNUM)
_RMAX = min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))


@dataclass(frozen=True, eq=False)
class _Tridiagonal:
    """A dense real symmetric matrix A reduced to tridiagonal form
    T = Q^T A Q as LAPACK's dsyevr reduces it: dsytrd on the lower triangle
    at dsyevr's workspace size, which sets the block size and so the bits.
    `lowest` repeats dsyevr's steps after the reduction, so every subset
    solve of A reads this one reduction and equals
    scipy.linalg.eigh(subset_by_index=[0, k - 1]) bit for bit."""

    reflectors: np.ndarray    # dsytrd's output: Q's Householder vectors below the subdiagonal
    tau: np.ndarray           # their scalar factors
    d: np.ndarray             # T's diagonal
    e: np.ndarray             # T's subdiagonal
    lwork: int                # dsyevr's workspace size
    sigma: float              # the factor A was scaled by, 1.0 within range

    @classmethod
    def of(cls, matrix):
        """The reduction of a sparse symmetric matrix, whose largest |entry|
        is dsyevr's norm of its lower triangle; dsyevr solves a 1 x 1 matrix
        before it scales."""
        n = matrix.shape[0]
        a = matrix.toarray()      # dsytrd's wrapper copies it to Fortran order
        top = np.abs(matrix.data).max(initial=0.0)
        sigma = 1.0
        if n > 1 and (0.0 < top < _RMIN or top > _RMAX):
            sigma = (_RMIN if top < _RMIN else _RMAX) / top
            a *= sigma
        lwork = int(lapack.dsyevr_lwork(n, lower=1)[0])
        reflectors, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork - 5 * n)
        return cls(reflectors, tau, d, e, lwork, sigma)

    def lowest(self, k, vectors):
        """The k lowest eigenvalues, ascending, and their vectors as columns
        when asked for. As in dsyevr: for k = n the whole spectrum by dsterf
        (values) or dstemr (vectors), else, or where those fail, bisection
        (dstebz) and inverse iteration (dstein); the vectors taken back
        through Q (dormqr on the reflectors, dormtr's work on a lower
        triangle) and put in order by dsyevr's selection sort."""
        d, e, n = self.d, self.e, self.d.size
        if n == 1:
            return (d.copy(), np.ones((1, 1))) if vectors else d.copy()
        info = 1
        if k == n:
            if vectors:
                _, w, z, info = lapack.dstemr(d, np.append(e, 0.0), 0, 0.0, 0.0, 1, n)
            else:
                w, info = lapack.dsterf(d, e)
        if info:
            m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, k, 0.0,
                                                       "B" if vectors else "E")
            w = w[:m]
            if vectors and not info:
                z, info = lapack.dstein(d, e, w, iblock, isplit)
            if info:
                raise ConvergenceError(
                    f"LAPACK's tridiagonal solve failed (info {info}) at dimension {n}")
        if self.sigma != 1.0:
            w = w * (1.0 / self.sigma)
        if not vectors:
            return w
        z[1:] = lapack.dormqr("L", "N", self.reflectors[1:, :-1], self.tau, z[1:],
                              self.lwork - 2 * n)[0]
        for j in range(w.size - 1):
            i = j + 1 + np.argmin(w[j + 1:])
            if w[i] < w[j]:
                w[[i, j]] = w[[j, i]]
                z[:, [i, j]] = z[:, [j, i]]
        return w, z


def lowest_eigenvalues(h: AssembledHamiltonian, k: int, method: str | None = None,
                       return_vectors: bool = False, tol: float = 0.0):
    """k smallest eigenvalues (ascending), and their vectors on request.

    method forces "dense" or "sparse"; the default is dense up to
    DENSE_THRESHOLD states (or when k is at least the dimension less one)
    and sparse above. The dense path runs LAPACK's dsyevr step by step: the
    first dense solve of h reduces its matrix to tridiagonal form and keeps
    the reduction on h (`_Tridiagonal`), and every dense solve of h reads
    it, computing only the k lowest pairs, and no vectors unless asked for.
    Each result equals scipy.linalg.eigh(subset_by_index=[0, k - 1]) bit
    for bit. The dense path ignores tol.

    The sparse path is ARPACK's Lanczos, stopped when each residual is
    below tol max(|eigenvalue|, eps^(2/3)); tol = 0 means machine
    precision. It starts from `_start_vector`, which is built from the
    matrix's diagonal alone, so a matrix's result depends on nothing else:
    not on the solves before it, nor on its neighbours in a sweep. ARPACK
    multiplies through `_CsrOperator`, the same kernel as eigsh on the CSR
    matrix, bit for bit. It raises ConvergenceError after LANCZOS_MAXITER
    restarts, and ValidationError for k of at least the dimension less one,
    which only the dense path solves.
    """
    if not 1 <= k <= h.dimension:
        raise ValidationError(f"k = {k} outside 1..{h.dimension}")
    if method is None:
        method = "dense" if (h.dimension <= DENSE_THRESHOLD or k >= h.dimension - 1) else "sparse"
    if method == "dense":
        if h.tridiagonal is None:
            h.tridiagonal = _Tridiagonal.of(h.matrix)
        return h.tridiagonal.lowest(k, return_vectors)
    if method != "sparse":
        raise ValidationError("method must be None, 'dense' or 'sparse'")
    if k >= h.dimension - 1:
        raise ValidationError(
            f"Lanczos needs k below dimension - 1 = {h.dimension - 1}; use method='dense'")
    matrix = h.matrix
    try:
        # ARPACK's default basis, max(2k + 1, 20) vectors. 40 took 9.0 / 10.2
        # against 8.1 / 9.9 s for default fig3a, 1.6 against 1.5 s at N = 5, and
        # won only near the eta <= 0.1 multiplets (2.5 against 2.9 s, N = 2..4).
        vals, vecs = eigsh(_CsrOperator(matrix), k=k, which="SA", v0=_start_vector(matrix),
                           tol=tol, maxiter=LANCZOS_MAXITER)
    except ArpackNoConvergence as err:
        got = len(err.eigenvalues)
        raise ConvergenceError(
            f"Lanczos converged {got}/{k} eigenvalues at dimension {h.dimension}; "
            "loosen tol, ask for fewer levels k, or use method='dense'"
        ) from err
    order = np.argsort(vals)
    if return_vectors:
        return vals[order], vecs[:, order]
    return vals[order]


def fock_tail_weight(h: AssembledHamiltonian, vector) -> float:
    """Probability of the highest Fock state in a normalized eigenvector, or
    0.0 where it lies below the eigensolver's rounding."""
    top = np.asarray(vector).reshape(h.axis_dims)[..., -1]
    tail = float(np.sum(top ** 2))
    # Each component of a computed unit vector is uncertain by about eps, so
    # below eps**2 per state of the top Fock slice the weight is rounding.
    return tail if tail > np.finfo(float).eps ** 2 * top.size else 0.0


def _block_grounds(h: AssembledHamiltonian, stacklevel=3):
    """(G, the ground block, the other block's lowest level, Fock-tail
    weight): each joint-parity block of h (`h.blocks`) solved for its lowest
    level alone, with the warning and the checks of `ground_pair`.

    The blocks leave out the entries between them, which are rounding from
    the well solve: a ValidationError is raised when the largest exceeds
    PARITY_TOL max|H|. The ground vector is put back into the full index for
    the Fock tail, and a weight above FOCK_TAIL_TOL warns at `stacklevel`
    above this function. A bare matrix, without blocks, raises
    ValidationError.
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
        vals, vecs = lowest_eigenvalues(block, 1, return_vectors=True)
        solved.append((vals[0], vecs[:, 0], index, block))
    (ground, block_vec, index, block), (other, *_) = sorted(solved, key=lambda level: level[0])
    vector = np.zeros(h.dimension)
    vector[index] = block_vec
    tail = fock_tail_weight(h, vector)
    if tail > FOCK_TAIL_TOL:
        warnings.warn(
            f"Fock tail occupation {tail:.2e} exceeds {FOCK_TAIL_TOL:.0e}; "
            "raise fock_cutoff",
            stacklevel=stacklevel,
        )
    return ground, block, other, tail


def ground_pair(h: AssembledHamiltonian):
    """(G, E, Fock-tail weight): the two lowest energies and the weight of
    the highest Fock state in the ground vector, with a warning when that
    weight exceeds FOCK_TAIL_TOL.

    H conserves the joint parity of `parity_diagonal`, so its even and odd
    blocks (`h.blocks`) are solved apart, each for its lowest level
    (`_block_grounds`, which also checks the entries the blocks leave out).
    The lower of the two is G. E is the second level over both blocks: the
    other block's lowest level, unless the ground block's second level lies
    below it. A solve at tolerance RANKING_TOL ranks that second level; on a
    block of at most DENSE_THRESHOLD states that solve is dense and exact,
    and on a Lanczos block, where its error bound does not clear the other
    block's level, the level is solved exactly. E is the lower of the two.
    The budget bounds h, whose size is the sum of the two blocks'. A bare
    matrix, without blocks, raises ValidationError.
    """
    ground, block, excited, tail = _block_grounds(h, stacklevel=4)
    second = lowest_eigenvalues(block, 2, tol=RANKING_TOL)[1]
    if block.dimension > DENSE_THRESHOLD and \
            second - RANKING_TOL * max(1.0, abs(second)) <= excited:
        second = lowest_eigenvalues(block, 2)[1]
    excited = min(excited, second)
    return float(ground), float(excited), tail


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
    solves each parity block for its lowest level only (`_block_grounds`),
    since E is not read; G is the same, bit for bit, as `ground_pair`'s.

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
        ground = _block_grounds(dicke_two_level(config, params, spectrum))[0]
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


def parity_diagonal(h: AssembledHamiltonian) -> np.ndarray:
    """Diagonal of the joint parity operator in the assembled basis.

    Dipole level n carries parity (-1)^n (even potential), so an occupation
    state carries (-1)^(sum_i i n_i), the sum of its dipoles' levels; the
    mode carries (-1)^(photon number). The product commutes with every
    assembled term.
    """
    return _joint_parity(h.occupations, h.axis_dims[-1])


def _joint_parity(occupations, m):
    diag = (-1.0) ** (occupations @ np.arange(occupations.shape[1]))
    return np.kron(diag, (-1.0) ** np.arange(m))
