"""Exact finite-N diagonalization: limits, cross-builds, gauge diagnostics."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, expm

from dickelab import (
    BudgetError,
    CollectiveSpin,
    ConventionMismatch,
    ConvergenceError,
    GridError,
    GridSpec,
    HilbertConfig,
    MainText,
    ReducedParams,
    SelfEnergyInBare,
    SymmetricSector,
    ValidationError,
    WellShape,
    assemble,
    convergence_report,
    default_hilbert,
    derive_couplings,
    dicke_two_level,
    eta_critical,
    fock_tail_weight,
    jc_gauge,
    lowest_eigenvalues,
    second_derivative_sweep,
    solve_double_well,
    transition_sweep,
)
from dickelab import exactn

SCALE_BETA_33 = 21.3003135538138


@pytest.fixture(scope="module")
def p33(make_params):
    return make_params(beta=3.3, eta=0.0, alpha=1.0)


def ground(h):
    return lowest_eigenvalues(h, 1)[0]


def test_hilbert_config_validation():
    with pytest.raises(ValidationError):
        HilbertConfig(0, 8, 40)
    with pytest.raises(ValidationError):
        HilbertConfig(1, 1, 40)
    with pytest.raises(ValidationError):
        HilbertConfig(2, 4, 40, representation=CollectiveSpin())
    with pytest.raises(ValidationError):
        HilbertConfig(1, 8, 40, representation=object())
    with pytest.raises(BudgetError):
        HilbertConfig(8, 8, 40)      # 257,400 sector states
    with pytest.raises(BudgetError):
        HilbertConfig(1, 8, 40, budget=100)


def test_default_hilbert_scales_down_with_count():
    small = default_hilbert(2)
    large = default_hilbert(4)
    assert (small.dipole_levels, small.fock_cutoff) == (8, 40)
    assert (large.dipole_levels, large.fock_cutoff) == (6, 30)
    assert large.dimension <= small.budget


def test_assembled_matrix_is_real_symmetric(p33):
    for n, alpha, eta in ((1, 0.0, 0.8), (2, 0.5, 1.2), (2, 1.0, 0.4)):
        cfg = HilbertConfig(n, 4, 12)
        h = assemble(cfg, p33.with_(eta=eta, alpha=alpha, n_dipoles=n),
                     p33.spectrum)
        m = h.matrix
        assert m.dtype == np.float64
        assert abs(m - m.T).max() <= 1e-12 * abs(m).max()


def _site_op(op, site, n_sites, levels):
    left = sp.identity(levels**site, format="csr")
    right = sp.identity(levels ** (n_sites - site - 1), format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(op)), right, format="csr")


def reference_assemble(cfg, params, spectrum, convention=MainText):
    """The full Hamiltonian on the L^N product states, built term by term:
    one kron chain per site and one per dipole pair, each with its own
    photon operator."""
    n_sites, levels, m = cfg.n_dipoles, cfg.dipole_levels, cfg.fock_cutoff
    alpha, eta = params.alpha, params.eta
    omega, e_scale, lam = params.omega, params.energy_scale, params.lambda_a
    z_op = spectrum.zeta_elements[:levels, :levels]
    s_op = spectrum.p_elements[:levels, :levels]
    z2_op = spectrum.zeta_sq_elements[:levels, :levels]
    bare = np.diag(spectrum.energies[:levels])

    n = np.arange(m, dtype=float)
    lower = sp.diags(np.sqrt(n[1:]), 1)
    number = sp.diags(n)
    q_ph = (lower.T + lower).tocsr()
    t_ph = (lower.T - lower).tocsr()
    w_ph = (2.0 * number + sp.identity(m) - (lower.T @ lower.T + lower @ lower)).tocsr()
    id_ph = sp.identity(m, format="csr")
    id_dip = sp.identity(levels**n_sites, format="csr")

    c_cross = e_scale * (1.0 - alpha) * lam
    c_a2 = n_sites * 0.5 * e_scale * (1.0 - alpha) ** 2 * lam**2
    c_pi = alpha * eta * omega**1.5 / math.sqrt(2.0 * n_sites * e_scale)
    c_se = 0.0 if convention is SelfEnergyInBare else (
        alpha**2 * eta**2 * omega**2 / (2.0 * n_sites * e_scale))
    c_dd = -(1.0 - alpha**2) * eta**2 * omega**2 / (2.0 * n_sites * e_scale)

    terms = [sp.kron(id_dip, omega * (number + 0.5 * sp.identity(m)), format="csr"),
             c_a2 * sp.kron(id_dip, w_ph, format="csr")]
    for site in range(n_sites):
        def on_site(op):
            return _site_op(op, site, n_sites, levels)
        terms.append(sp.kron(on_site(bare), id_ph, format="csr"))
        terms.append(-c_cross * sp.kron(on_site(s_op), t_ph, format="csr"))
        if c_pi != 0.0:
            terms.append(c_pi * sp.kron(on_site(z_op), q_ph, format="csr"))
        if c_se != 0.0:
            terms.append(c_se * sp.kron(on_site(z2_op), id_ph, format="csr"))
    if c_dd != 0.0:
        for site_a in range(n_sites):
            for site_b in range(site_a + 1, n_sites):
                pair = (_site_op(z_op, site_a, n_sites, levels)
                        @ _site_op(z_op, site_b, n_sites, levels))
                terms.append(2.0 * c_dd * sp.kron(pair, id_ph, format="csr"))
    return sum(terms).tocsr()


def joint_parity(occupations, m):
    """The joint parity on the states `occupations` x Fock(m), computed here
    apart from the builders: an occupation state carries (-1)^(sum_i i n_i),
    the sum of its dipoles' levels, and a photon number n carries (-1)^n."""
    dipole = (-1.0) ** (occupations @ np.arange(occupations.shape[1]))
    return np.kron(dipole, (-1.0) ** np.arange(m))


def sector_parity(cfg):
    """joint_parity on cfg's symmetric sector x Fock(M)."""
    return joint_parity(exactn._sector_pattern(cfg.n_dipoles, cfg.dipole_levels)[0],
                        cfg.fock_cutoff)


def sliced_hamiltonian(matrix, axis_dims, occupations):
    """An AssembledHamiltonian of a hand-built whole CSR matrix, with the
    parity blocks ground_pair reads cut out of it by fancy-index slices."""
    h = exactn.AssembledHamiltonian(matrix, axis_dims)
    parity = joint_parity(occupations, axis_dims[-1])
    index = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    coo = matrix.tocoo()
    between = np.abs(coo.data[parity[coo.row] != parity[coo.col]])
    h.blocks = exactn._ParityBlocks(tuple(matrix[states][:, states] for states in index), index,
                                    between.max() if between.size else 0.0,
                                    np.abs(matrix.data).max())
    return h


def product_hamiltonian(cfg, matrix):
    """An AssembledHamiltonian on cfg's L^N product states x Fock(M); each
    product state's level counts stand in for its occupations, which give
    joint_parity its dipole parity (-1)^(sum of the levels)."""
    levels, n_sites = cfg.dipole_levels, cfg.n_dipoles
    counts = np.array([np.bincount(state, minlength=levels)
                       for state in itertools.product(range(levels), repeat=n_sites)])
    return sliced_hamiltonian(matrix, (levels**n_sites, cfg.fock_cutoff), counts)


def symmetric_embedding(cfg):
    """P, the sector in the product space: one column per sector state, in
    combinations_with_replacement order, holding the normalised
    symmetrised product state, times the identity on Fock(M)."""
    n_sites, levels = cfg.n_dipoles, cfg.dipole_levels
    rows, cols, vals = [], [], []
    states = list(itertools.combinations_with_replacement(range(levels), n_sites))
    for col, state in enumerate(states):
        orderings = set(itertools.permutations(state))
        for order in orderings:
            rows.append(sum(level * levels ** (n_sites - 1 - site)
                            for site, level in enumerate(order)))
            cols.append(col)
            vals.append(1.0 / math.sqrt(len(orderings)))
    embed = sp.csr_matrix((vals, (rows, cols)), shape=(levels**n_sites, len(states)))
    return sp.kron(embed, sp.identity(cfg.fock_cutoff), format="csr")


def projected_reference(cfg, params, spectrum, convention=MainText):
    """P^T H_ref P: the term-by-term product-space build on the sector."""
    embed = symmetric_embedding(cfg)
    return (embed.T @ reference_assemble(cfg, params, spectrum, convention) @ embed).tocsr()


def test_assemble_matches_per_site_pair_reference(p33):
    """The shared builder against the term-by-term construction projected on
    the sector, entry by entry, for N = 1..3, three gauges, three couplings
    (both phases) and both self-energy conventions; it may not store more
    entries either."""
    grid = GridSpec(points=64)
    for n in (1, 2, 3):
        cfg = HilbertConfig(n, 6, 10)
        for alpha in (0.0, 0.37, 1.0):
            for eta in (0.0, 0.9, 2.8):
                p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
                absorbed = solve_double_well(
                    WellShape(beta=3.3, energy_scale=p.energy_scale,
                              renorm=SelfEnergyInBare(alpha, eta / math.sqrt(n), 1.0)),
                    grid, levels=6, gap_tol=1e-5)
                for spec, convention in ((p.spectrum, MainText),
                                         (absorbed, SelfEnergyInBare)):
                    ours = assemble(cfg, p, spec).matrix
                    ref = projected_reference(cfg, p, spec, convention)
                    assert abs(ours - ref).max() <= 1e-13 * abs(ref).max()
                    assert ours.nnz <= ref.nnz


def test_cached_operators_stay_fresh_along_a_sweep(p33, make_params):
    """The memoised dipole sums against the projected per-site reference while one
    spectrum object runs through three gauges and three couplings in a row
    (so the memo is hit), for N = 1..3 and both conventions; a different
    spectrum at the same (N, L) then gets its own matrix, not a stale one.
    Zero couplings (alpha = 1 drops the cross, A^2 and pair terms; alpha = 0
    the momentum term) leave no explicit zeros behind."""
    grid = GridSpec(points=64)
    other = make_params(beta=2.4)
    for n in (1, 2, 3):
        cfg = HilbertConfig(n, 6, 10)
        runs = [[(cfg, p33.with_(n_dipoles=n, alpha=alpha, eta=eta), p33.spectrum, MainText)
                 for alpha in (0.0, 0.37, 1.0) for eta in (0.4, 1.3, 2.8)]]
        # An absorbed well is valid at one (alpha, eta) only; two Fock
        # cutoffs share its dipole sums.
        for alpha in (0.0, 0.37, 1.0):
            p = p33.with_(n_dipoles=n, alpha=alpha, eta=1.3)
            absorbed = solve_double_well(
                WellShape(beta=3.3, energy_scale=p.energy_scale,
                          renorm=SelfEnergyInBare(alpha, 1.3 / math.sqrt(n), 1.0)),
                grid, levels=6, gap_tol=1e-5)
            runs.append([(HilbertConfig(n, 6, m), p, absorbed, SelfEnergyInBare)
                         for m in (10, 12)])
        runs.append([(cfg, other.with_(n_dipoles=n, alpha=0.37, eta=1.3),
                      other.spectrum, MainText)])
        for run in runs:
            held = None
            for cfg_i, p, spec, convention in run:
                ours = assemble(cfg_i, p, spec).matrix
                misses = exactn._dipole_sums.cache_info().misses
                sums = exactn._dipole_sums(spec, n, cfg_i.dipole_levels)
                if held is None:
                    held = sums
                assert exactn._dipole_sums.cache_info().currsize == 1 and sums is held
                assert exactn._dipole_sums.cache_info().misses == misses   # held for spec
                ref = projected_reference(cfg_i, p, spec, convention)
                assert abs(ours - ref).max() <= 1e-13 * abs(ref).max()
                assert ours.nnz <= ref.nnz
                assert np.count_nonzero(ours.data) == ours.nnz
    # One sweep alternating the exact and two-level models, two spectra, and
    # eta = 0 (no X, Y, A^2 or pair term) and eta > 0, so each point meets the
    # gather maps and dipole sums its predecessors left: its blocks and whole
    # matrix stay fresh.
    for n in (1, 2, 3):
        cfg = HilbertConfig(n, 5, 10)
        two = HilbertConfig(n, 2, 10, representation=CollectiveSpin())
        for eta in (0.0, 1.3, 0.0, 2.8):
            for params in (p33, other):
                p = params.with_(n_dipoles=n, alpha=0.37, eta=eta)
                for h, ref in ((assemble(cfg, p, p.spectrum),
                                projected_reference(cfg, p, p.spectrum).toarray()),
                               (dicke_two_level(two, p, p.spectrum),
                                collective_reference(p, n, 10))):
                    scale = np.abs(ref).max()
                    assert np.abs(h.matrix.toarray() - ref).max() <= 1e-13 * scale
                    assert np.count_nonzero(h.matrix.data) == h.matrix.nnz
                    for (block, states), index in zip(dense_blocks(h), h.blocks.index):
                        assert np.array_equal(np.sort(states), index)
                        assert np.abs(block - ref[np.ix_(states, states)]).max() \
                            <= 1e-13 * scale
                misses = exactn._dipole_sums.cache_info().misses
                exactn._dipole_sums(p.spectrum, n, cfg.dipole_levels)
                assert exactn._dipole_sums.cache_info().misses == misses


def dense_blocks(h):
    """(dense block, its states in the whole basis) per parity block of a
    point: a banded point's band formed densely over its states in band
    order; a panel point's block, which stores no entries, sliced from the
    point's whole Kronecker-sum matrix over its states in block order."""
    if h.blocks.bands is not None:
        return [(exactn._band_dense(band), states) for band, states in h.blocks.bands]
    return [(h.matrix[block.states][:, block.states].toarray(), block.states)
            for block in h.blocks.matrices]


def collective_reference(params, n_sites, m):
    """dicke_two_level's rotated real Hamiltonian, dense, from the spin-N/2
    matrices m = -j..j."""
    c = derive_couplings(params)
    j = n_sites / 2.0
    m_vals = np.arange(-j, j + 1.0)
    jp = np.diag(np.sqrt(j * (j + 1) - m_vals[:-1] * (m_vals[:-1] + 1)), -1)
    jx = jp + jp.T
    e0, e1 = params.spectrum.energies[:2]
    dipole = (params.spectrum.omega_m * np.diag(m_vals) - (c.c_alpha / n_sites) * (jx @ jx)
              + (n_sites * (e0 + e1) / 2.0 + c.rho_d2 / 2.0) * np.eye(n_sites + 1))
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    return (np.kron(dipole, np.eye(m))
            + c.omega_alpha * np.kron(np.eye(n_sites + 1), a.T @ a + 0.5 * np.eye(m))
            + (c.g_prime_alpha / math.sqrt(n_sites)) * np.kron(jp - jp.T, a.T - a)
            - (c.g_alpha / math.sqrt(n_sites)) * np.kron(jx, a.T + a))


def test_zero_coupling_ground_energy_is_exact(p33):
    """At eta = 0 the dipoles and the mode decouple, so the ground energy is
    N eps0 + omega/2 for every gauge."""
    spec = p33.spectrum
    for n in (1, 2):
        for alpha in (0.0, 0.7, 1.0):
            cfg = HilbertConfig(n, 6, 20)
            p = p33.with_(eta=0.0, alpha=alpha, n_dipoles=n)
            g = ground(assemble(cfg, p, spec))
            expected = n * spec.energies[0] + 0.5
            assert g == pytest.approx(expected, abs=1e-10)


def test_two_level_matches_independent_complex_build(make_params):
    """The rotated real Rabi/Dicke construction against a from-scratch
    complex matrix in the unrotated frame: identical spectra."""
    for n, eta, alpha in ((1, 0.9, 1.0), (2, 0.7, 0.4), (3, 1.1, 0.0)):
        m = 24
        p = make_params(beta=3.3, eta=eta, alpha=alpha, n_dipoles=n)
        cfg = HilbertConfig(n, 2, m, representation=CollectiveSpin())
        h = dicke_two_level(cfg, p, p.spectrum)

        c = derive_couplings(p)
        dim_s = n + 1
        jz = np.diag(np.arange(-n / 2.0, n / 2.0 + 1.0))
        jp = np.zeros((dim_s, dim_s))
        for k in range(dim_s - 1):
            mval = -n / 2.0 + k
            jp[k + 1, k] = math.sqrt(n / 2.0 * (n / 2.0 + 1.0) - mval * (mval + 1.0))
        jm = jp.T
        a = np.diag(np.sqrt(np.arange(1, m)), 1)
        ident_s, ident_f = np.eye(dim_s), np.eye(m)
        number = a.T @ a
        ref = (p.omega_m * np.kron(jz, ident_f)
               + c.omega_alpha * np.kron(ident_s, number + 0.5 * ident_f)
               - (c.c_alpha / n) * np.kron((jp + jm) @ (jp + jm), ident_f)
               - 1j * (c.g_prime_alpha / math.sqrt(n)) * np.kron(jp - jm, a.T + a)
               + 1j * (c.g_alpha / math.sqrt(n)) * np.kron(jp + jm, a.T - a))
        e0, e1 = p.spectrum.energies[:2]
        ref = ref + (n * (e0 + e1) / 2.0 + p.rho_d2 / 2.0) * np.eye(dim_s * m)

        ours = lowest_eigenvalues(h, 6)
        theirs = np.linalg.eigvalsh(ref)[:6]
        assert np.allclose(ours, theirs, rtol=0, atol=1e-10)


def product_two_level(params, n_sites, m):
    """dicke_two_level's rotated real Hamiltonian on the 2^N product states,
    its collective operators summed site by site."""
    def summed(op):
        return sum(_site_op(op, site, n_sites, 2) for site in range(n_sites))

    c = derive_couplings(params)
    jz = summed(np.diag([-0.5, 0.5]))
    jp = summed(np.array([[0.0, 0.0], [1.0, 0.0]]))
    jx = jp + jp.T
    e0, e1 = params.spectrum.energies[:2]
    dipole = (params.spectrum.omega_m * jz - (c.c_alpha / n_sites) * (jx @ jx)
              + (n_sites * (e0 + e1) / 2.0 + c.rho_d2 / 2.0) * sp.identity(2**n_sites))
    lower = sp.diags(np.sqrt(np.arange(1.0, m)), 1)
    matrix = (sp.kron(dipole, sp.identity(m))
              + c.omega_alpha * sp.kron(sp.identity(2**n_sites),
                                        lower.T @ lower + 0.5 * sp.identity(m))
              + (c.g_prime_alpha / math.sqrt(n_sites)) * sp.kron(jp - jp.T, lower.T - lower)
              - (c.g_alpha / math.sqrt(n_sites)) * sp.kron(jx, lower.T + lower)).tocsr()
    matrix.eliminate_zeros()
    return product_hamiltonian(HilbertConfig(n_sites, 2, m), matrix)


def test_collective_and_product_ground_states_agree(make_params):
    """The ground state lives in the maximal-spin sector, so the collective
    basis and the full product basis give the same ground energy. Excited
    levels may differ because the product space also holds lower-spin
    permutation sectors."""
    p = make_params(beta=3.3, eta=1.0, alpha=1.0, n_dipoles=3)
    coll = HilbertConfig(3, 2, 30, representation=CollectiveSpin())
    g_coll = ground(dicke_two_level(coll, p, p.spectrum))
    g_prod = ground(product_two_level(p, 3, 30))
    assert abs(g_coll - g_prod) <= 1e-10


def test_truncation_gauge_defect_shrinks_with_levels(make_params):
    """Ground energies across the gauge family agree only in the untruncated
    limit. Frozen: the (8, 40) two-dipole defect at eta = 0.5 is 1.7e-6 and
    drops below 3e-8 two levels later."""
    spec10 = solve_double_well(
        WellShape(beta=3.3, energy_scale=SCALE_BETA_33), GridSpec(), levels=10)
    p = make_params(beta=3.3, eta=0.5, alpha=0.0, n_dipoles=2).with_(
        spectrum=spec10)
    defects = {}
    for levels in (8, 10):
        cfg = HilbertConfig(2, levels, 40)
        g0 = ground(assemble(cfg, p, spec10))
        g1 = ground(assemble(cfg, p.with_(alpha=1.0), spec10))
        defects[levels] = abs(g0 - g1)
    assert defects[8] <= 2e-6
    assert defects[10] <= defects[8] / 10.0


def gauge_fixing_unitary(config, params, spectrum, alpha_from, alpha_to):
    """Truncated gauge-change unitary R with R H(alpha_from) R^T ~ H(alpha_to).

    Conjugating by exp(i theta zeta (a^dag+a)) with theta = (to - from) lam
    shifts the kinetic coupling between the gauges. In the rotated real
    basis the exponent -(to - from) lam sum_mu zeta_mu x (a^dag - a) is real
    antisymmetric, so R is real orthogonal, and it keeps the symmetric
    sector since the exponent is summed over the dipoles. Exact only in the
    untruncated limit; a diagnostic of the truncation.
    """
    zeta_sum = exactn._summed(
        spectrum.zeta_elements[:config.dipole_levels, :config.dipole_levels], config.n_dipoles)
    lower = sp.diags(np.sqrt(np.arange(1.0, config.fock_cutoff)), 1)
    exponent = sp.kron(-(alpha_to - alpha_from) * params.lambda_a * zeta_sum, lower.T - lower)
    return expm(exponent.toarray())


def test_gauge_unitary_is_orthogonal_and_fixes_the_gauge(p33):
    spec = p33.spectrum
    cfg = HilbertConfig(1, 12, 60)
    p = p33.with_(eta=0.5, alpha=0.0)
    r = gauge_fixing_unitary(cfg, p, spec, 0.0, 1.0)
    dim = cfg.dimension
    assert np.abs(r @ r.T - np.eye(dim)).max() <= 1e-12

    h0 = assemble(cfg, p, spec).matrix.toarray()
    h1 = assemble(cfg, p.with_(alpha=1.0), spec).matrix.toarray()
    conj = r @ h0 @ r.T
    g_conj = np.linalg.eigvalsh(conj)[0]
    g1 = np.linalg.eigvalsh(h1)[0]
    assert abs(g_conj - g1) <= 1e-6

    # The rotated ground vector must land on the target-gauge ground vector;
    # this pins the direction of the exponent, not just its magnitude.
    w0, v0 = np.linalg.eigh(h0)
    w1, v1 = np.linalg.eigh(h1)
    overlap = abs(np.dot(r @ v0[:, 0], v1[:, 0]))
    assert overlap >= 1.0 - 1e-6


def test_gauge_unitary_identity_at_equal_gauges(p33):
    cfg = HilbertConfig(1, 4, 8)
    r = gauge_fixing_unitary(cfg, p33.with_(eta=0.9), p33.spectrum, 0.3, 0.3)
    assert np.abs(r - np.eye(cfg.dimension)).max() <= 1e-14


def test_parity_is_conserved(p33):
    cfg = HilbertConfig(2, 4, 10)
    p = p33.with_(eta=0.8, alpha=0.6, n_dipoles=2)
    h = assemble(cfg, p, p33.spectrum)
    par = sector_parity(cfg)
    m = h.matrix.toarray()
    mixing = np.abs(m[np.not_equal.outer(par, par)]).max()
    # The well eigenstates carry ~1e-10 parity leakage from the grid, so the
    # sector mixing is bounded by that scale rather than exactly zero.
    assert mixing <= 1e-8 * np.abs(m).max()
    assert set(np.unique(par)) == {-1.0, 1.0}


def test_sectored_eigenvalues_match_unsectored(p33):
    """Diagonalizing the even and odd parity blocks separately and merging
    reproduces the unsectored spectrum."""
    cfg = HilbertConfig(2, 4, 10)
    p = p33.with_(eta=0.9, alpha=0.7, n_dipoles=2)
    h = assemble(cfg, p, p33.spectrum)
    par = sector_parity(cfg)
    m = h.matrix.toarray()
    merged = []
    for sector in (1.0, -1.0):
        idx = np.where(par == sector)[0]
        merged.extend(np.linalg.eigvalsh(m[np.ix_(idx, idx)]))
    merged = np.sort(merged)
    full = np.sort(np.linalg.eigvalsh(m))
    assert np.abs(merged - full).max() <= 1e-8


def _unsplit_pair(h):
    """(G, E, Fock tail) from one k=2 solve of the whole matrix."""
    vals, vecs = lowest_eigenvalues(h, 2, return_vectors=True)
    return vals[0], vals[1], fock_tail_weight(h, vecs[:, 0])


def test_ground_pair_blocks_match_unsplit_solve(p33):
    """ground_pair's parity-block solve gives the G and E of one solve of
    the whole matrix to 1e-12 max(1, |value|): in the sector at N = 2 (720
    states per block, iterative; 210, dense) and N = 3 and the collective
    two-level model at N = 1..4; in the Coulomb, JC and
    multipolar gauges, both conventions, and at eta 0 and 0.05, beside
    near-degenerate multiplets, within 0.04 of eta_c and at 2.8."""
    eta_c = eta_critical(p33)
    grid = GridSpec(points=64)
    exact = ((2, HilbertConfig(2, 8, 40)),
             (3, HilbertConfig(3, 5, 16)),
             (2, HilbertConfig(2, 6, 20)))
    for alpha in (0.0, jc_gauge(p33), 1.0):
        for eta in (0.0, 0.05, eta_c - 0.04, 2.8):
            hams = []
            for n, cfg in exact:
                p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
                absorbed = solve_double_well(
                    WellShape(beta=3.3, energy_scale=p.energy_scale,
                              renorm=SelfEnergyInBare(alpha, eta / math.sqrt(n), 1.0)),
                    grid, levels=cfg.dipole_levels, gap_tol=1e-5)
                hams += [assemble(cfg, p, p.spectrum),
                         assemble(cfg, p, absorbed)]
            for n in (1, 2, 3, 4):
                hams.append(dicke_two_level(
                    HilbertConfig(n, 2, 40, representation=CollectiveSpin()),
                    p33.with_(n_dipoles=n, alpha=alpha, eta=eta), p33.spectrum))
            for h in hams:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    split = exactn.ground_pair(h)[:2]
                full = _unsplit_pair(h)[:2]
                for got, want in zip(split, full):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ground_pair_converges_beside_near_degenerate_multiplets(p33):
    """At eta = 1e-3 the ground block's second level sits in a two-excitation
    multiplet split by about eta; ground_pair ranks it at RANKING_TOL, and
    still matches the whole-matrix solve at 1e-12 in the sector at N = 2
    and 3."""
    for n in (2, 3):
        for alpha in (0.0, 1.0):
            h = assemble(HilbertConfig(n, 8, 40),
                         p33.with_(n_dipoles=n, alpha=alpha, eta=1e-3), p33.spectrum)
            for got, want in zip(exactn.ground_pair(h)[:2], _unsplit_pair(h)[:2]):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ground_pair_embeds_the_ground_vector(p33):
    """The Fock tail of the ground vector, put back from its parity block
    into the full index, equals the whole-matrix solve's, at cutoffs tight
    enough that the weight is far above rounding; the last two have blocks
    of 720 and 756 states, solved iteratively."""
    for n, levels, m, alpha, eta in ((2, 4, 8, 1.0, 2.8), (3, 4, 8, 0.0, 2.8),
                                     (3, 8, 12, 1.0, 2.8), (4, 6, 12, 0.0, 2.8)):
        h = assemble(HilbertConfig(n, levels, m),
                     p33.with_(n_dipoles=n, alpha=alpha, eta=eta), p33.spectrum)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tail = exactn.ground_pair(h)[2]
        want = _unsplit_pair(h)[2]
        assert want > 1e-12
        assert tail == pytest.approx(want, rel=1e-9)


def _one_dipole(matrix):
    """An AssembledHamiltonian on one two-level dipole x Fock(4), whose joint
    parity is +-+- -+-+ in index order."""
    return sliced_hamiltonian(matrix.tocsr(), (2, 4), np.eye(2, dtype=int))


def _diagonal_hamiltonian(diagonal):
    return _one_dipole(sp.diags(np.asarray(diagonal, float)))


def test_ground_pair_merges_the_two_blocks():
    """G and E are the two lowest levels over both parity blocks, whichever
    blocks hold them: E is the other block's lowest level, or the ground
    block's second level where that lies lower."""
    par = joint_parity(np.eye(2, dtype=int), 4)
    assert np.array_equal(par, [1, -1, 1, -1, -1, 1, -1, 1])
    # Both lowest levels odd; the ground state is index 3, the top Fock
    # state, so its embedded vector carries the whole tail.
    with pytest.warns(UserWarning, match="Fock tail"):
        assert exactn.ground_pair(_diagonal_hamiltonian([5, 2, 6, 1, 7, 8, 9, 10])) \
            == (1.0, 2.0, 1.0)
    # G odd, E even.
    assert exactn.ground_pair(_diagonal_hamiltonian([2, 1, 5, 6, 7, 8, 9, 10])) \
        == (1.0, 2.0, 0.0)


def test_ground_pair_refuses_parity_leakage():
    """An entry between the parity blocks above PARITY_TOL max|H| would be
    dropped by the split, so ground_pair raises; one below it is dropped."""
    def coupled(coupling):
        leak = sp.coo_matrix(([coupling, coupling], ([0, 1], [1, 0])), shape=(8, 8))
        return _one_dipole(sp.diags(np.arange(1.0, 9.0)) + leak)

    with pytest.raises(ValidationError, match="parity blocks"):
        exactn.ground_pair(coupled(1e-7 * 8.0))
    assert exactn.ground_pair(coupled(1e-10 * 8.0))[:2] == (1.0, 2.0)


def test_ground_pair_refuses_a_bare_matrix(p33):
    """A bare matrix carries no parity blocks; ground_pair names the two
    builders that make them."""
    h = assemble(HilbertConfig(1, 4, 10), p33.with_(eta=0.5), p33.spectrum)
    bare = exactn.AssembledHamiltonian(h.matrix, h.axis_dims)
    with pytest.raises(ValidationError, match="assemble or dicke_two_level"):
        exactn.ground_pair(bare)


def _coupled_blocks_point(shift):
    """A point on one two-level dipole x Fock(700) whose parity blocks, of
    700 states each, are tridiagonal with diagonal 0, 1, 2.5, 3, 3.5, ...
    and couplings 0.05, the odd block moved so that its lowest level lies
    `shift` above the even block's second; and the even block's two lowest
    levels."""
    m = 700
    diagonal = np.concatenate(([0.0, 1.0], 2.5 + 0.5 * np.arange(m - 2)))
    even = sp.diags([np.full(m - 1, 0.05), diagonal, np.full(m - 1, 0.05)], [-1, 0, 1]).toarray()
    levels = eigh(even, eigvals_only=True, subset_by_index=[0, 1])
    odd = even + (levels[1] + shift - levels[0]) * np.eye(m)
    parity = np.kron([1.0, -1.0], (-1.0) ** np.arange(m))
    whole = np.zeros((2 * m, 2 * m))
    for block, sign in ((even, 1.0), (odd, -1.0)):
        states = np.flatnonzero(parity == sign)
        whole[np.ix_(states, states)] = block
    return sliced_hamiltonian(sp.csr_matrix(whole), (2, m), np.eye(2, dtype=int)), levels


@pytest.mark.parametrize("shift", [1e-7, -0.5])
def test_ranking_solve_is_repeated_only_where_it_does_not_clear(monkeypatch, shift):
    """On blocks above DENSE_THRESHOLD, G and E are the two lowest levels
    over both blocks to 1e-12. With the odd block's lowest level 1e-7 above
    the even block's second, the ranking solve's theta - |r| does not clear
    it, so that level is solved again at tolerance 0 and is E; with it 0.5
    below, the ranking solve clears it and E is the odd block's level."""
    h, levels = _coupled_blocks_point(shift)
    assert min(index.size for index in h.blocks.index) > exactn.DENSE_THRESHOLD
    solves = []
    davidson = exactn._davidson

    def spy(matrix, tol, deflate=()):
        solves.append((tol, np.size(deflate) > 0))
        return davidson(matrix, tol, deflate)

    monkeypatch.setattr(exactn, "_davidson", spy)
    g, e, _ = exactn.ground_pair(h)
    assert g == pytest.approx(levels[0], rel=0, abs=1e-12)
    assert e == pytest.approx(levels[1] + min(shift, 0.0), rel=0, abs=1e-12)
    ranking = [(exactn.RANKING_TOL, True)]
    assert solves == [(0.0, False)] * 2 + (ranking + [(0.0, True)] if shift > 0 else ranking)


def kron_with_mode(m, dipole, x, y, omega_field, c_w=0.0):
    """D x 1 + 1 x F + X x (a^dag - a) + Y x (a^dag + a) built the slow way:
    four sp.kron calls and sparse sums, the reference for the banded and
    panel blocks."""
    n = np.arange(m, dtype=float)
    lower = sp.diags(np.sqrt(n[1:]), 1, format="csr")   # CSR products also work at m = 2
    raise_ = lower.T
    identity = sp.identity(m, format="csr")
    half_number = (sp.diags(n) + 0.5 * identity).tocsr()
    w = (2.0 * sp.diags(n) + sp.identity(m) - (raise_ @ raise_ + lower @ lower)).tocsr()
    field = omega_field * half_number + c_w * w
    total = (sp.kron(dipole, identity, format="csr")
             + sp.kron(sp.identity(dipole.shape[0], format="csr"), field, format="csr"))
    for op, mode_op in ((x, (raise_ - lower).tocsr()), (y, (raise_ + lower).tocsr())):
        if op is not None:
            total = total + sp.kron(op, mode_op, format="csr")
    return total.tocsr()


def sliced_ground_pair(matrix, parity):
    """G and E from fancy-index slices of the whole matrix: each block's
    lowest level, and the ground block's second level."""
    lowest = []
    for index in (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)):
        block = exactn.AssembledHamiltonian(matrix[index][:, index], (index.size,))
        lowest.append((lowest_eigenvalues(block, 1)[0], block))
    (ground, block), (excited, _) = sorted(lowest, key=lambda level: level[0])
    return ground, min(excited, lowest_eigenvalues(block, 2)[1])


def spy_builders(monkeypatch):
    """Record (point, kron_with_mode of its factors, joint parity) for every
    point either builder makes: `_banded` and `_panels`."""
    points = []

    def spy(built):
        def build(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
            h = built(n_sites, levels, m, dipole, x, y, omega_field, c_w)
            points.append((h, kron_with_mode(m, sp.csr_matrix(dipole),
                                             *(None if op is None else sp.csr_matrix(op)
                                               for op in (x, y)), omega_field, c_w),
                           joint_parity(exactn._sector_pattern(n_sites, levels)[0], m)))
            return h
        return build

    for name in ("_banded", "_panels"):
        monkeypatch.setattr(exactn, name, spy(getattr(exactn, name)))
    return points


def assert_bands_match(h, ref, scale, tol):
    """Each band of a banded point holds its block's entries over the
    block's states in band order, to tol max|H|: nothing of the block lies
    outside the band, and the band's states are the block's index."""
    for (band, states), index in zip(h.blocks.bands, h.blocks.index):
        assert np.array_equal(np.sort(states), index)
        block = ref[states][:, states].toarray()
        assert np.abs(exactn._band_dense(band) - block).max() <= tol * scale


def test_plan_blocks_match_the_kronecker_build(p33, monkeypatch):
    """Fast path against slow path: every banded point's parity blocks, read
    from its bands, equal the fancy-index slices of the sp.kron build of
    the same factors entry by entry (1e-15 max|H|), and its whole matrix
    equals that build exactly, without explicit zeros; the leakage between
    the blocks and max|H| match; ground_pair's G and E match the sliced
    solve at rel 1e-12. The sector at N = 1..3 and the two-level model at
    N = 1..4, in the Coulomb (no Y), JC and multipolar (no X, no A^2)
    gauges, both conventions, and at eta 0 (no X, Y or A^2 term), 0.05,
    eta_c - 0.04 and 2.8. Panel points are checked in
    test_both_factor_forms_build_the_same_panel_point."""
    points = spy_builders(monkeypatch)
    eta_c = eta_critical(p33)
    grid = GridSpec(points=64)
    for alpha in (0.0, jc_gauge(p33), 1.0):
        for eta in (0.0, 0.05, eta_c - 0.04, 2.8):
            for n, cfg in ((1, HilbertConfig(1, 6, 12)), (2, HilbertConfig(2, 5, 12)),
                           (3, HilbertConfig(3, 4, 10))):
                p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
                absorbed = solve_double_well(
                    WellShape(beta=3.3, energy_scale=p.energy_scale,
                              renorm=SelfEnergyInBare(alpha, eta / math.sqrt(n), 1.0)),
                    grid, levels=cfg.dipole_levels, gap_tol=1e-5)
                assemble(cfg, p, p.spectrum)
                assemble(cfg, p, absorbed)
            for n in (1, 2, 3, 4):
                dicke_two_level(HilbertConfig(n, 2, 12, representation=CollectiveSpin()),
                                p33.with_(n_dipoles=n, alpha=alpha, eta=eta), p33.spectrum)
    assert len(points) == 3 * 4 * 10
    for h, ref, parity in points:
        scale = abs(ref).max()
        blocks = h.blocks
        for index, sign in zip(blocks.index, (1, -1)):
            assert np.array_equal(index, np.flatnonzero(parity == sign))
        assert_bands_match(h, ref, scale, 1e-15)
        assert np.array_equal(h.matrix.toarray(), ref.toarray())
        assert np.count_nonzero(h.matrix.data) == h.matrix.nnz
        between = ref.tocoo()
        between = np.abs(between.data[parity[between.row] != parity[between.col]])
        assert blocks.leak == pytest.approx(between.max() if between.size else 0.0, rel=1e-12)
        assert blocks.scale == scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = exactn.ground_pair(h)[:2]
        assert np.allclose(got, sliced_ground_pair(ref, parity), rtol=1e-12, atol=0)


def test_two_fock_states_match_the_kronecker_build(p33, monkeypatch):
    """At fock_cutoff = 2, where a^dag^2 + a^2 has no entry, a point builds:
    its parity blocks (read from its bands) and whole matrix equal the
    sp.kron build of the same factors exactly, and ground_pair solves it,
    for the sector (with and without the A^2 term) and the two-level model,
    at eta 0 and 1.4."""
    points = spy_builders(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # two Fock states leave a heavy tail
        for eta in (0.0, 1.4):
            for alpha in (0.0, 1.0):
                p = p33.with_(n_dipoles=2, alpha=alpha, eta=eta)
                exactn.ground_pair(assemble(HilbertConfig(2, 4, 2), p, p33.spectrum))
                exactn.ground_pair(dicke_two_level(
                    HilbertConfig(2, 2, 2, representation=CollectiveSpin()), p, p33.spectrum))
    assert len(points) == 8
    for h, ref, parity in points:
        for index, sign in zip(h.blocks.index, (1, -1)):
            assert np.array_equal(index, np.flatnonzero(parity == sign))
        assert_bands_match(h, ref, abs(ref).max(), 0.0)
        assert np.array_equal(h.matrix.toarray(), ref.toarray())


def panel_columns(block, columns):
    """The block's columns at `columns`, one product per unit vector."""
    units = np.identity(block.shape[0])[columns]
    return np.column_stack([block @ unit for unit in units])


@pytest.mark.filterwarnings("ignore:Fock tail")
def test_both_factor_forms_build_the_same_panel_point(p33, monkeypatch):
    """`_panels` builds the same point from dense and from CSR copies of the
    same factors. Each block's product, one unit vector at a time, equals
    the kron_with_mode slice over the block's states in block order to
    1e-15 max|H|, and so does its diagonal; the blocks partition the joint
    parity. Leak, asymmetry and scale are equal for both forms, and leak
    and scale match the Kronecker build; ground_pair gives the same G and
    E to rel 1e-12. The factors are those of assemble and dicke_two_level
    in the Coulomb, JC and multipolar gauges at eta 0 and 2.8: a 15-state
    sector at M = 5 (odd, so the blocks differ in size) and M = 2, the
    two-level model at M = 5, and the 792-state sector of N = 5, L = 8,
    M = 4, whose factors assemble keeps as CSR (1,584-state blocks, 48
    columns each). An entry planted between the parity classes gives both
    forms the same leak, and ground_pair refuses both points."""
    panels, factors = exactn._panels, []

    def record(built):
        def build(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
            factors.append((n_sites, levels, m, dipole, x, y, omega_field, c_w))
            return built(n_sites, levels, m, dipole, x, y, omega_field, c_w)
        return build

    for name in ("_banded", "_panels"):
        monkeypatch.setattr(exactn, name, record(getattr(exactn, name)))
    for alpha in (0.0, jc_gauge(p33), 1.0):
        for eta in (0.0, 2.8):
            p = p33.with_(n_dipoles=2, alpha=alpha, eta=eta)
            for m in (5, 2):
                assemble(HilbertConfig(2, 5, m), p, p33.spectrum)
            dicke_two_level(HilbertConfig(3, 2, 5, representation=CollectiveSpin()),
                            p.with_(n_dipoles=3), p33.spectrum)
    for alpha in (0.0, 1.0):
        assemble(HilbertConfig(5, 8, 4), p33.with_(n_dipoles=5, alpha=alpha, eta=2.8),
                 p33.spectrum)
    assert len(factors) == 3 * 2 * 3 + 2
    assert [sp.issparse(f[3]) for f in factors] == [False] * 18 + [True] * 2

    for n_sites, levels, m, *ops, omega_field, c_w in factors:
        dense = [op.toarray() if sp.issparse(op) else np.array(op) for op in ops]
        forms = (dense, [sp.csr_matrix(op) for op in dense])
        ref = kron_with_mode(m, *forms[1], omega_field, c_w)
        scale = abs(ref).max()
        parity = joint_parity(exactn._sector_pattern(n_sites, levels)[0], m)
        between = ref.tocoo()
        between = np.abs(between.data[parity[between.row] != parity[between.col]])
        order, split = exactn._class_order(n_sites, levels)
        checks = [exactn._parity_checks(*(exactn._by_class(op, order) for op in form),
                                        split, np.sqrt(m - 1.0)) for form in forms]
        assert checks[0] == checks[1]
        points = [panels(n_sites, levels, m, *form, omega_field, c_w) for form in forms]
        for h in points:
            blocks = h.blocks
            assert blocks.bands is None
            assert (blocks.leak, blocks.scale) == (checks[0][0], scale)
            assert blocks.leak == pytest.approx(between.max() if between.size else 0.0,
                                                rel=1e-12)
            for index, block, sign in zip(blocks.index, blocks.matrices, (1, -1)):
                assert np.array_equal(index, np.flatnonzero(parity == sign))
                assert np.array_equal(np.sort(block.states), index)
                want = ref[block.states][:, block.states]
                assert np.abs(block.diagonal() - want.diagonal()).max() <= 1e-15 * scale
                columns = np.linspace(0, index.size - 1, min(index.size, 48)).astype(int)
                got = panel_columns(block, columns)
                assert np.abs(got - want[:, columns].toarray()).max() <= 1e-15 * scale
        assert np.allclose(exactn.ground_pair(points[0])[:2], exactn.ground_pair(points[1])[:2],
                           rtol=1e-12, atol=0)

    # D joins the parity blocks at a pair of states of different classes (JC
    # gauge, eta 2.8, M = 5).
    n_sites, levels, m, dipole, x, y, omega_field, c_w = factors[9]
    planted = np.array(dipole)
    order, split = exactn._class_order(n_sites, levels)
    i, j = order[1], order[split]
    planted[i, j] = planted[j, i] = 1e-6 * np.abs(planted).max()
    leaky = [panels(n_sites, levels, m, *form, omega_field, c_w)
             for form in ((planted, x, y), (sp.csr_matrix(planted), sp.csr_matrix(x),
                                             sp.csr_matrix(y)))]
    assert leaky[0].blocks.leak == leaky[1].blocks.leak == planted[i, j]
    for h in leaky:
        with pytest.raises(ValidationError, match="parity blocks"):
            exactn.ground_pair(h)


def test_plans_are_read_only_and_kept_per_scope(p33):
    """A banded point's gather map holds integer and boolean arrays only,
    read-only as the sector pattern's are, one per (N, L, M) and presence
    of the A^2 term, whichever model it serves; points with panel blocks
    (N = 2, L = 8, M = 40 and the two-level model at M = 401) build none,
    and reading `matrix` builds none."""
    cfg, two = HilbertConfig(2, 8, 40), HilbertConfig(2, 2, 401, representation=CollectiveSpin())
    small = HilbertConfig(2, 4, 10)
    small_two = HilbertConfig(2, 2, 10, representation=CollectiveSpin())
    exactn._band_map.cache_clear()
    for eta in (0.0, 0.8):
        p = p33.with_(n_dipoles=2, eta=eta, alpha=0.6)
        for exact, collective in ((cfg, two), (small, small_two)):
            assemble(exact, p, p33.spectrum).matrix
            dicke_two_level(collective, p, p33.spectrum).matrix
    # eta = 0 has no A^2 term, eta = 0.8 has; the two-level model never has.
    assert exactn._band_map.cache_info().currsize == 3
    misses = exactn._band_map.cache_info().misses
    maps = [exactn._band_map(2, 4, 10, False), exactn._band_map(2, 4, 10, True),
            exactn._band_map(2, 2, 10, False)]
    assert exactn._band_map.cache_info().misses == misses
    for band_map in maps:
        for array in (band_map.take, *band_map.states, *band_map.index, band_map.same):
            assert array.dtype.kind in "ib" and not array.flags.writeable
        with pytest.raises(ValueError):
            band_map.take[0, 0] = 0


def test_a_plan_is_built_once_per_sector_cutoff_and_pattern(p33, monkeypatch):
    """A self-energy-in-bare sweep solves a new well at each point, so each
    point brings its own spectrum; a banded point's gather map is built
    once per distinct (N, L, M, A^2 term present) all the same (N = 2 and
    3, banded blocks), and points with panel blocks (N = 2, 720 states)
    build none."""
    scopes = set()
    banded = exactn._banded

    def seen_banded(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
        scopes.add((n_sites, levels, m, c_w != 0.0))
        return banded(n_sites, levels, m, dipole, x, y, omega_field, c_w)

    monkeypatch.setattr(exactn, "_banded", seen_banded)
    exactn._band_map.cache_clear()
    grid = GridSpec(points=64)
    for n, cfg in ((2, HilbertConfig(2, 8, 40)), (2, HilbertConfig(2, 5, 12)),
                   (3, HilbertConfig(3, 4, 10))):
        for alpha in (0.0, jc_gauge(p33), 1.0):
            for eta in (0.4, 1.3, 2.2, 2.8):
                p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
                absorbed = solve_double_well(
                    WellShape(beta=3.3, energy_scale=p.energy_scale,
                              renorm=SelfEnergyInBare(alpha, eta / math.sqrt(n), 1.0)),
                    grid, levels=cfg.dipole_levels, gap_tol=1e-5)
                assemble(cfg, p, absorbed)
    assert len(scopes) == 4
    assert exactn._band_map.cache_info().misses == len(scopes)


@pytest.mark.filterwarnings("ignore:Fock tail")
def test_a_coulomb_sweep_builds_one_plan(p33):
    """D sums the one-body part and the pair term on the dipole space, so a
    banded Coulomb-gauge sweep over 14 couplings builds one gather map
    (N = 3, L = 4, M = 10)."""
    exactn._band_map.cache_clear()
    etas = np.linspace(0.2, 2.8, 14)
    transition_sweep(HilbertConfig(3, 4, 10), p33.with_(n_dipoles=3, alpha=0.0), etas,
                     include_two_level=False)
    assert exactn._band_map.cache_info().misses == 1


def test_iterative_solve_gives_up_after_bounded_steps(p33):
    """A solve whose tolerance lies below rounding cannot converge; it stops
    after DAVIDSON_MAXITER steps with ConvergenceError, in bounded time."""
    h = assemble(HilbertConfig(2, 8, 40), p33.with_(n_dipoles=2, alpha=0.0, eta=1.0),
                 p33.spectrum)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=f"{exactn.DAVIDSON_MAXITER} steps") as err:
        exactn._davidson(_block(h, 0).matrix, 1e-20)
    assert time.perf_counter() - start < 8.0
    assert all(word in str(err.value) for word in ("k", "method='dense'"))


def test_self_energy_conventions_agree_on_low_levels(make_params, grid):
    """Absorbing the self-energy into the well reshuffles the basis but not
    the physics; ground energies agree to well under the truncation error."""
    eta, alpha, n = 0.6, 1.0, 1
    p = make_params(beta=3.3, eta=eta, alpha=alpha)
    renorm = SelfEnergyInBare(alpha=alpha, eta=eta / math.sqrt(n), omega=1.0)
    shape = WellShape(beta=3.3, energy_scale=SCALE_BETA_33, renorm=renorm)
    spec_abs = solve_double_well(shape, grid, levels=8)
    cfg = HilbertConfig(n, 8, 40)
    g_main = ground(assemble(cfg, p, p.spectrum))
    g_abs = ground(assemble(cfg, p, spec_abs))
    assert abs(g_main - g_abs) <= 1e-6


def test_convention_gates(make_params, grid):
    p = make_params(beta=3.3, eta=0.6, alpha=1.0)
    # Solved at the wrong absorbed coupling: eta instead of eta / sqrt(N).
    wrong = solve_double_well(
        WellShape(beta=3.3, energy_scale=SCALE_BETA_33,
                  renorm=SelfEnergyInBare(alpha=1.0, eta=0.6, omega=1.0)),
        GridSpec(points=64), levels=4, gap_tol=1e-6)
    cfg2 = HilbertConfig(2, 4, 10)
    with pytest.raises(ConventionMismatch):
        assemble(cfg2, p.with_(n_dipoles=2), wrong)
    with pytest.raises(ConventionMismatch):
        dicke_two_level(HilbertConfig(1, 2, 10), p, wrong)


def test_assemble_input_validation(p33):
    with pytest.raises(ValidationError):
        assemble(HilbertConfig(1, 2, 10, representation=CollectiveSpin()),
                 p33, p33.spectrum)
    with pytest.raises(ValidationError):
        assemble(HilbertConfig(2, 4, 10), p33, p33.spectrum)  # N mismatch
    with pytest.raises(ValidationError):
        assemble(HilbertConfig(1, 14, 10), p33, p33.spectrum)  # L > solved


def test_dense_and_iterative_solvers_agree(p33):
    """The two paths agree to rel 1e-12: on a 320-state matrix (k = 4) and
    on the even block of N = 2 at eta = 1e-6 (720 states), whose second
    level sits in a near-degenerate multiplet (k = 2)."""
    cfg = HilbertConfig(1, 8, 40)
    h = assemble(cfg, p33.with_(eta=1.0), p33.spectrum)
    pair = assemble(HilbertConfig(2, 8, 40), p33.with_(n_dipoles=2, alpha=0.0, eta=1e-6),
                    p33.spectrum)
    for matrix, k in ((h, 4), (_block(pair, 0), 2)):
        dense = lowest_eigenvalues(matrix, k, method="dense")
        sparse = lowest_eigenvalues(matrix, k, method="sparse")
        assert np.allclose(dense, sparse, rtol=1e-12, atol=0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(h, 4, method="lobpcg")
    with pytest.raises(ValidationError):
        lowest_eigenvalues(h, 0)


def test_subset_solve_matches_full_eigh(p33):
    """The dense path computes only the lowest pairs. Its eigenvalues match
    a full np.linalg.eigh at rel 1e-13, and ground_pair's Fock-tail weight
    (free of the vector's sign) matches to 1e-12, on sector matrices and
    two-level ones (collective, and a product-space build) in both phases
    and at both gauge ends, none of which store explicit zeros."""
    hams = []
    for alpha in (0.0, 1.0):
        for eta in (0.8, 2.8):
            for n, levels, m in ((1, 8, 40), (2, 4, 20)):
                hams.append(assemble(HilbertConfig(n, levels, m),
                                     p33.with_(n_dipoles=n, alpha=alpha, eta=eta),
                                     p33.spectrum))
            p = p33.with_(n_dipoles=3, alpha=alpha, eta=eta)
            hams += [dicke_two_level(HilbertConfig(3, 2, 40, representation=CollectiveSpin()),
                                     p, p33.spectrum),
                     product_two_level(p, 3, 40)]
    for h in hams:
        assert h.dimension <= exactn.DENSE_THRESHOLD
        assert np.count_nonzero(h.matrix.data) == h.matrix.nnz
        full_vals, full_vecs = np.linalg.eigh(h.matrix.toarray())
        assert np.allclose(lowest_eigenvalues(h, 2), full_vals[:2], rtol=1e-13, atol=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, e, tail = exactn.ground_pair(h)
        assert np.allclose([g, e], full_vals[:2], rtol=1e-13, atol=0)
        assert tail == pytest.approx(fock_tail_weight(h, full_vecs[:, 0]), rel=0, abs=1e-12)


def test_default_method_just_above_the_dense_threshold(p33):
    """Just above DENSE_THRESHOLD the default switches to the iterative
    solve, which must agree with the dense solve to rel 1e-12."""
    levels = 8
    cfg = HilbertConfig(1, levels, exactn.DENSE_THRESHOLD // levels + 1)
    assert exactn.DENSE_THRESHOLD < cfg.dimension <= exactn.DENSE_THRESHOLD + levels
    for alpha, eta in ((0.0, 2.8), (0.37, 1.3), (1.0, 0.8)):
        h = assemble(cfg, p33.with_(alpha=alpha, eta=eta), p33.spectrum)
        assert np.allclose(lowest_eigenvalues(h, 2), lowest_eigenvalues(h, 2, method="dense"),
                           rtol=1e-12, atol=0)


def test_iterative_failure_names_what_the_caller_can_change(p33, monkeypatch):
    """An iterative solve that hits its step cap raises ConvergenceError
    naming the arguments lowest_eigenvalues takes: k and the dense method,
    and no tolerance, which it does not take."""
    h = assemble(HilbertConfig(1, 8, 80), p33.with_(eta=0.5), p33.spectrum)
    assert h.dimension > exactn.DENSE_THRESHOLD
    monkeypatch.setattr(exactn, "DAVIDSON_MAXITER", 2)
    with pytest.raises(ConvergenceError, match="not converged in 2 steps") as err:
        lowest_eigenvalues(h, 2)
    message = str(err.value)
    assert all(word in message for word in ("k", "method='dense'"))
    assert "maxiter" not in message and "tol" not in message


def test_iterative_levels_meet_their_residual_bound(p33):
    """Each level of an iterative solve comes with a unit vector orthogonal
    to the levels before it, whose residual H v - lambda v, off those
    levels, is at most tol max(1, |lambda|) (RESIDUAL_TOL at tol = 0):
    lowest_eigenvalues at tol 0, and the same deflated `_davidson` solves
    at tol 1e-6. `_davidson` reports the norm of that residual recomputed
    from a fresh product."""
    for eta in (1e-6, 1.0, 2.8):
        h = assemble(HilbertConfig(2, 8, 40), p33.with_(n_dipoles=2, alpha=0.0, eta=eta),
                     p33.spectrum)
        block = _block(h, 0)
        for tol in (0.0, 1e-6):
            if tol:
                vals, vecs = np.empty(3), np.empty((3, block.dimension))
                for i in range(3):
                    vals[i], vecs[i], _ = exactn._davidson(block.matrix, tol, vecs[:i])
                order = np.argsort(vals)
                vals, vecs = vals[order], vecs[order].T
            else:
                vals, vecs = lowest_eigenvalues(block, 3, return_vectors=True)
            assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-12
            for i, value in enumerate(vals):
                earlier = vecs[:, :i]
                residual = block.matrix @ vecs[:, i] - value * vecs[:, i]
                residual -= earlier @ (earlier.T @ residual)
                bound = (tol or exactn.RESIDUAL_TOL) * max(1.0, abs(value))
                assert np.linalg.norm(residual) <= bound
            theta, x, norm = exactn._davidson(block.matrix, tol, vecs[:, :1].T)
            residual = block.matrix @ x - theta * x
            residual -= (vecs[:, :1].T @ residual) @ vecs[:, :1].T
            assert norm == np.linalg.norm(residual)


def test_lowest_eigenvalues_returns_vectors(p33):
    cfg = HilbertConfig(1, 4, 10)
    h = assemble(cfg, p33.with_(eta=0.5), p33.spectrum)
    vals, vecs = lowest_eigenvalues(h, 3, return_vectors=True)
    for i in range(3):
        residual = h.matrix @ vecs[:, i] - vals[i] * vecs[:, i]
        assert np.abs(residual).max() <= 1e-9


def test_sparse_solve_refuses_k_near_the_dimension(p33):
    """The iterative solve needs k below the dimension less one; at
    k = dimension - 1 and k = dimension a forced sparse solve names the
    dense method, which solves both."""
    h = assemble(HilbertConfig(1, 4, 10), p33.with_(eta=0.5), p33.spectrum)
    full = np.linalg.eigvalsh(h.matrix.toarray())
    for k in (h.dimension - 1, h.dimension):
        with pytest.raises(ValidationError, match="method='dense'"):
            lowest_eigenvalues(h, k, method="sparse")
        assert np.allclose(lowest_eigenvalues(h, k), full[:k], rtol=1e-13, atol=1e-13)


def _iterative_blocks(p33, extra_etas=()):
    """Points whose parity blocks the iterative solver solves: N = 2 (720
    states), N = 3 (840) and N = 5 (756), at both gauge ends and the JC
    gauge, from an exactly diagonal block with degenerate entries (eta = 0,
    alpha = 1) through near-degenerate multiplets (eta = 1e-3) and
    eta_c - 0.04 to 2.8, and at `extra_etas`."""
    eta_c = eta_critical(p33)
    points = []
    for n, levels, m in ((2, 8, 40), (3, 6, 30), (5, 5, 12)):
        for alpha in (0.0, jc_gauge(p33), 1.0):
            for eta in (0.0, 1e-3, eta_c - 0.04, 2.8, *extra_etas):
                points.append(assemble(HilbertConfig(n, levels, m),
                                       p33.with_(n_dipoles=n, alpha=alpha, eta=eta),
                                       p33.spectrum))
    for h in points:
        assert min(index.size for index in h.blocks.index) > exactn.DENSE_THRESHOLD
    return points


def _block(h, which):
    return exactn.AssembledHamiltonian(h.blocks.matrices[which], (h.blocks.index[which].size,))


@pytest.mark.filterwarnings("ignore:Fock tail")
def test_ground_pair_equals_a_dense_solve_of_each_block(p33):
    """G and E equal the two lowest levels of scipy.linalg.eigh over both
    parity blocks to 1e-12 relative on every point of _iterative_blocks and at
    eta = 1e-6, where the ground block's second level and the other block's
    lowest lie in near-degenerate multiplets: at N = 5, alpha = 1 a solve
    that ends on the upper member of a doublet puts E 4.9e-7 (3e-9
    relative) too high."""
    for h in _iterative_blocks(p33, extra_etas=(1e-6,)):
        want = np.sort(np.concatenate([eigh(block, eigvals_only=True,
                                            subset_by_index=[0, 1])
                                       for block, _ in dense_blocks(h)]))[:2]
        assert np.allclose(exactn.ground_pair(h)[:2], want, rtol=1e-12, atol=0)


def test_dense_solves_agree_with_eigh(p33):
    """A dense solve is one dsyevr call: its levels agree with
    scipy.linalg.eigh's subset solve to 1e-13 of the largest |level|, and its
    vectors are orthonormal to 1e-12 with residuals within 1e-13 of that
    level, for k = 1, 2, 3 and the dimension, on the parity blocks of the
    sector and the two-level model at eta = 0 and 1.8, among them blocks of
    600 states and of 2 and 3 states, on a block scaled by 1e-150 and 1e80,
    which dsyevr scales back into range, on a 1 x 1 matrix, and on a
    diagonal matrix, whose tridiagonal form splits. The eta = 0 blocks hold
    degenerate levels, so a vector is checked by what it does, not by its
    sign."""
    blocks = []
    for eta in (0.0, 1.8):
        for n, cfg, build in ((1, HilbertConfig(1, 12, 100), assemble),
                              (2, HilbertConfig(2, 4, 10), assemble),
                              (1, HilbertConfig(1, 2, 2, representation=CollectiveSpin()),
                               dicke_two_level),
                              (2, HilbertConfig(2, 2, 2, representation=CollectiveSpin()),
                               dicke_two_level),
                              (3, HilbertConfig(3, 2, 12, representation=CollectiveSpin()),
                               dicke_two_level)):
            p = p33.with_(n_dipoles=n, alpha=0.6, eta=eta)
            blocks += [sp.csr_matrix(block)
                       for block, _ in dense_blocks(build(cfg, p, p33.spectrum))]
    blocks += [blocks[-1] * 1e-150, blocks[-1] * 1e80, sp.csr_matrix([[2.5]]),
               sp.diags([2.0, 1.0, 3.0, 0.5, 4.0], format="csr")]
    assert {600, 3, 2, 1} <= {block.shape[0] for block in blocks}
    for matrix in blocks:
        n = matrix.shape[0]
        dense = matrix.toarray()
        scale = np.abs(eigh(dense, eigvals_only=True)).max()
        block = exactn.AssembledHamiltonian(matrix, (n,))
        for k in sorted({1, 2, 3, n} & set(range(1, n + 1))):
            want = eigh(dense, eigvals_only=True, subset_by_index=[0, k - 1])
            values = lowest_eigenvalues(block, k, method="dense")
            assert values.shape == (k,)
            assert np.abs(values - want).max() <= 1e-13 * scale
            values, vectors = lowest_eigenvalues(block, k, method="dense", return_vectors=True)
            assert np.abs(values - want).max() <= 1e-13 * scale
            assert vectors.shape == (n, k)
            assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-12
            assert np.abs(dense @ vectors - vectors * values).max() <= 1e-13 * scale


def test_a_dense_block_is_factorised_once(p33, monkeypatch):
    """Each banded parity block is solved by one values-only dsbevx call,
    and the ground block's vector by one dgbsv call, with no dsyevr call:
    ground_pair makes two dsbevx calls and one dgbsv call at N = 1, L = 8,
    M = 40, and second_derivative_sweep the same per point; so does a band
    half as wide as its block (N = 3, L = 4, M = 4)."""
    calls = []

    def counted(name):
        routine = getattr(exactn.lapack, name)

        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return call

    for name in ("dsyevr", "dsbevx", "dgbsv"):
        monkeypatch.setattr(exactn.lapack, name, counted(name))
    exactn.ground_pair(assemble(HilbertConfig(1, 8, 40), p33.with_(eta=1.2), p33.spectrum))
    assert calls == ["dsbevx", "dsbevx", "dgbsv"]
    del calls[:]
    second_derivative_sweep(HilbertConfig(2, 2, 40, representation=CollectiveSpin()),
                            p33.with_(n_dipoles=2), [1.6, 1.7, 1.8])
    assert calls == ["dsbevx", "dsbevx", "dgbsv"] * 3
    del calls[:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exactn.ground_pair(assemble(HilbertConfig(3, 4, 4), p33.with_(n_dipoles=3, eta=1.2),
                                    p33.spectrum))
    assert calls == ["dsbevx", "dsbevx", "dgbsv"]


def dsyevr_pair(h):
    """(G, E, Fock tail) of a banded point from one dsyevr solve of each
    block, formed densely from its band, with vectors."""
    solved = []
    for band, states in h.blocks.bands:
        vals, vecs = exactn._dsyevr(exactn._band_dense(band), 2, True)
        solved.append((vals, vecs[:, 0], states))
    (vals, vector, states), (other, _, _) = sorted(solved, key=lambda s: s[0][0])
    whole = np.zeros(h.dimension)
    whole[states] = vector
    return vals[0], min(other[0], vals[1]), fock_tail_weight(h, whole)


@pytest.mark.filterwarnings("ignore:Fock tail")
def test_banded_ground_pair_equals_the_dsyevr_solve_of_each_block(p33):
    """On banded points ground_pair's G and E equal one dsyevr solve of each
    block to 1e-12 relative and its Fock tail to 1e-12 absolute: the sector
    (N = 1 and 2) and the two-level model (N = 1..4), in the Coulomb, JC and
    multipolar gauges (below alpha = 1 the A^2 term couples photon numbers
    n +- 2), at eta = 0 (diagonal blocks with exact degeneracies), 0.05, 1.3
    and 2.8; narrow bands, and wide ones at fock_cutoff 2-4, whose bandwidth
    reaches half the block's size."""
    widest = 0.0
    for alpha in (0.0, jc_gauge(p33), 1.0):
        for eta in (0.0, 0.05, 1.3, 2.8):
            hams = [assemble(cfg, p33.with_(n_dipoles=cfg.n_dipoles, alpha=alpha, eta=eta),
                             p33.spectrum)
                    for cfg in (HilbertConfig(1, 8, 40), HilbertConfig(1, 10, 60),
                                HilbertConfig(2, 4, 24), HilbertConfig(1, 8, 2),
                                HilbertConfig(2, 4, 3), HilbertConfig(3, 4, 4))]
            hams += [dicke_two_level(HilbertConfig(n, 2, m, representation=CollectiveSpin()),
                                     p33.with_(n_dipoles=n, alpha=alpha, eta=eta), p33.spectrum)
                     for n in (1, 2, 3, 4) for m in (40, 3)]
            for h in hams:
                widest = max([widest] + [(band.shape[0] - 1) / band.shape[1]
                                         for band, _ in h.blocks.bands])
                g, e, tail = exactn.ground_pair(h)
                want_g, want_e, want_tail = dsyevr_pair(h)
                assert abs(g - want_g) <= 1e-12 * abs(want_g)
                assert abs(e - want_e) <= 1e-12 * abs(want_e)
                assert abs(tail - want_tail) <= 1e-12
    assert widest >= 0.5


def test_inverse_iteration_failure_falls_back_to_dsyevr(p33, monkeypatch):
    """A near-degenerate pair planted at the bottom of one banded block, two
    states coupled by 1e-6 and cut off from the rest, has the ground vector
    (1, -1)/sqrt(2) on them, orthogonal to the all-ones start of inverse
    iteration: its step lands on the upper member, whose residual fails the
    bound (the shifted band is not singular). ground_pair then solves that
    block by dsyevr, and its G, E and Fock tail equal the dense solve's."""
    h = assemble(HilbertConfig(1, 8, 40), p33.with_(eta=1.3), p33.spectrum)
    (band, states), other = h.blocks.bands
    assert exactn._inverse_iteration(band, exactn._dsbevx(band, 2)[0]) is not None
    planted = band.copy()
    first, second = 10, 13
    for j in (first, second):
        planted[1:, j] = 0.0
        for d in range(1, min(j, planted.shape[0] - 1) + 1):
            planted[d, j - d] = 0.0
    planted[0, [first, second]] = exactn._dsbevx(band, 1)[0] - 0.5
    planted[second - first, first] = 1e-6
    point = exactn.AssembledHamiltonian(
        None, h.axis_dims, blocks=exactn._ParityBlocks(
            None, h.blocks.index, h.blocks.leak, h.blocks.scale,
            bands=((planted, states), other)))
    infos = []
    dgbsv = exactn.lapack.dgbsv

    def spy(*args, **kwargs):
        result = dgbsv(*args, **kwargs)
        infos.append(result[-1])
        return result

    monkeypatch.setattr(exactn.lapack, "dgbsv", spy)
    levels = exactn._dsbevx(planted, 2)
    assert levels[1] - levels[0] == pytest.approx(2e-6, rel=1e-6)
    assert exactn._inverse_iteration(planted, levels[0]) is None
    assert infos == [0]
    assert exactn.ground_pair(point) == pytest.approx(dsyevr_pair(point), rel=1e-15, abs=1e-15)
    dsyevr = exactn._dsyevr(exactn._band_dense(planted), 2, True)
    assert exactn.ground_pair(point)[:2] == (dsyevr[0][0], dsyevr[0][1])


def test_a_failed_dsyevr_raises_convergence_error(p33, monkeypatch):
    """A failure dsyevr reports (info > 0) raises ConvergenceError from a
    dense solve and from an iterative one, whose Ritz step calls it; one
    dsbevx reports raises it from ground_pair on a banded point."""
    def failing(routine):
        def call(*args, **kwargs):
            *result, _ = routine(*args, **kwargs)
            return *result, 1
        return call

    monkeypatch.setattr(exactn.lapack, "dsyevr", failing(exactn.lapack.dsyevr))
    monkeypatch.setattr(exactn.lapack, "dsbevx", failing(exactn.lapack.dsbevx))
    h = assemble(HilbertConfig(1, 8, 80), p33.with_(eta=0.5), p33.spectrum)
    assert h.dimension > exactn.DENSE_THRESHOLD
    for method in ("dense", "sparse"):
        with pytest.raises(ConvergenceError, match="dsyevr failed"):
            lowest_eigenvalues(h, 1, method=method)
    with pytest.raises(ConvergenceError, match="dsbevx failed"):
        exactn.ground_pair(assemble(HilbertConfig(1, 8, 40), p33.with_(eta=0.5), p33.spectrum))


def test_iterative_solve_seeds_past_deflated_unit_vectors():
    """On a diagonal matrix each level's vector is a unit vector, so once
    _SEEDS levels are found, the next solve is deflated against the unit
    vectors of the _SEEDS lowest entries; it seeds from the next lowest
    entries instead and still finds its level."""
    block = exactn.AssembledHamiltonian(sp.diags(np.arange(700.0)[::-1], format="csr"), (700,))
    k = exactn._SEEDS + 2
    assert np.array_equal(lowest_eigenvalues(block, k, method="sparse"), np.arange(k))


@pytest.mark.filterwarnings("ignore:Fock tail")
def test_block_solve_does_not_depend_on_earlier_solves(p33):
    """An iterative solve starts from the block's diagonal alone and keeps
    nothing between calls. A block solved again after unrelated solves, the
    exactly diagonal degenerate blocks among them, gives the same levels and
    vectors bit for bit."""
    points = _iterative_blocks(p33)
    block = _block(points[2], 0)

    def solves():
        """The ground solve, and the ranking solve deflated against it."""
        vals, vecs = lowest_eigenvalues(block, 1, return_vectors=True)
        return vals, vecs, *exactn._davidson(block.matrix, exactn.RANKING_TOL, vecs[:, 0])

    first = solves()
    for h in points:
        exactn.ground_pair(h)
    for got, want in zip(solves(), first):
        assert np.array_equal(got, want)


def test_a_point_does_not_depend_on_its_grid(p33):
    """A sweep's row at one eta is the same bit for bit whatever grid holds
    it (N = 3, iterative (Davidson) blocks of 2,400 states)."""
    cfg = HilbertConfig(3, 8, 40)
    template = p33.with_(n_dipoles=3)
    alone = transition_sweep(cfg, template, [2.8])
    in_grid = [row for row in transition_sweep(cfg, template, [1.0, 2.8]) if row["eta"] == 2.8]
    assert alone == in_grid


def test_fock_tail_flags_tight_cutoff(p33):
    cfg = HilbertConfig(1, 4, 6)
    h = assemble(cfg, p33.with_(eta=1.5), p33.spectrum)
    _, vecs = lowest_eigenvalues(h, 1, return_vectors=True)
    assert fock_tail_weight(h, vecs[:, 0]) > 1e-8


def test_fock_tail_warning_points_at_the_sweeps_caller(p33):
    """Both sweeps warn of a heavy Fock tail at the line that called them,
    in the caller's file."""
    two = HilbertConfig(1, 2, 6, representation=CollectiveSpin())
    for sweep in (lambda: transition_sweep(HilbertConfig(1, 4, 6), p33, [1.5]),
                  lambda: second_derivative_sweep(two, p33, [1.4, 1.5, 1.6])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep()
        tails = [w for w in caught if "Fock tail" in str(w.message)]
        assert tails and all(w.filename == __file__ for w in tails)


def test_transition_sweep_rows(p33):
    cfg = HilbertConfig(1, 6, 20)
    rows = transition_sweep(cfg, p33.with_(eta=0.0), [0.0, 0.5, 1.0])
    assert len(rows) == 6  # exact + two_level per eta
    models = {r["model"] for r in rows}
    assert models == {"exact", "two_level"}
    first = [r for r in rows if r["eta"] == 0.0 and r["model"] == "exact"][0]
    assert first["gap_over_omega"] == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        assert r["E"] >= r["G"]
        assert r["alpha"] == 1.0


def test_transition_sweep_requires_spectrum(p33):
    cfg = HilbertConfig(1, 4, 10)
    with pytest.raises(ValidationError):
        transition_sweep(cfg, p33.with_(spectrum=None), [0.0, 0.5])


def test_second_derivative_sweep_grid_rules(make_params):
    p = make_params(beta=3.3, eta=0.0, alpha=1.0)
    cfg = HilbertConfig(1, 2, 20, representation=CollectiveSpin())
    with pytest.raises(GridError):
        second_derivative_sweep(cfg, p, [0.0, 0.1, 0.35])
    with pytest.raises(GridError):
        second_derivative_sweep(cfg, p, [0.0, 0.1])
    pairs = second_derivative_sweep(cfg, p, np.linspace(0.0, 0.5, 6))
    assert len(pairs) == 4  # interior points only
    assert all(np.isfinite(v) for _, v in pairs)


def test_second_derivative_sweep_refuses_a_zero_or_non_finite_step(make_params):
    """A grid of one repeated point, or with a non-finite point, has no step
    to divide by: GridError, not rows of inf and nan."""
    p = make_params(beta=3.3, eta=0.0, alpha=1.0)
    cfg = HilbertConfig(1, 2, 20, representation=CollectiveSpin())
    for grid in ([1.0, 1.0, 1.0], [1.0, float("nan"), 3.0], [float("inf")] * 3):
        with pytest.raises(GridError, match="nonzero step"):
            second_derivative_sweep(cfg, p, grid)


def test_second_derivative_sweep_needs_two_levels(make_params):
    """The sweep solves the two-level model on the config it is given; a
    config of more levels is refused, not replaced."""
    p = make_params(beta=3.3, eta=0.0, alpha=1.0)
    with pytest.raises(ValidationError, match="dipole_levels = 2"):
        second_derivative_sweep(HilbertConfig(1, 4, 20), p, np.linspace(0.0, 0.5, 6))


def test_convergence_report_tracks_cutoff_ladder(make_params):
    p = make_params(beta=3.3, eta=1.0, alpha=1.0, n_dipoles=2)
    ladder = [HilbertConfig(2, 6, 30), HilbertConfig(2, 8, 40),
              HilbertConfig(2, 10, 60)]
    rows = convergence_report(ladder, p, p.spectrum)
    assert [r["dipole_levels"] for r in rows] == [6, 8, 10]
    assert rows[0]["delta_G"] is None
    deltas = [abs(r["delta_G"]) for r in rows[1:]]
    assert deltas[1] < deltas[0]
    assert deltas[1] <= 1e-6
    assert all(r["fock_tail"] <= 1e-8 for r in rows)
    assert all(r["flags"] == "" for r in rows)


def test_convergence_report_flags_heavy_tail(make_params):
    p = make_params(beta=3.3, eta=1.5, alpha=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = convergence_report([HilbertConfig(1, 4, 4)], p, p.spectrum)
    assert "fock-tail" in rows[0]["flags"]


def test_collective_basis_fits_large_counts_in_budget():
    """The collective representation grows linearly in N, so 100 two-level
    dipoles fit the budget, while 8 dipoles of 8 levels (257,400 sector
    states) do not."""
    cfg = HilbertConfig(100, 2, 40, representation=CollectiveSpin())
    assert cfg.dimension == 101 * 40
    with pytest.raises(BudgetError):
        HilbertConfig(8, 8, 40)


def test_sector_dimension_and_default_hilbert():
    """The sector holds C(N+L-1, N) dipole states per Fock state; it is the
    library default and the basis of the CLI's default cutoffs."""
    assert HilbertConfig(3, 8, 40, SymmetricSector()).dimension == 120 * 40
    assert HilbertConfig(4, 6, 30, SymmetricSector()).dimension == 126 * 30
    assert HilbertConfig(1, 8, 40, SymmetricSector()).dimension == 8 * 40
    assert HilbertConfig(3, 2, 40, CollectiveSpin()).dimension == 4 * 40
    assert type(HilbertConfig(2, 8, 40).representation) is SymmetricSector
    assert default_hilbert(3).representation == SymmetricSector()
    with pytest.raises(BudgetError):
        HilbertConfig(3, 8, 40, SymmetricSector(), budget=4799)


def test_sector_states_follow_combinations_with_replacement():
    """N = 1 is the level order and L = 2 the Dicke order m = -j..j."""
    occupations = exactn._sector_pattern(1, 5)[0]
    assert np.array_equal(occupations, np.eye(5, dtype=int))
    occupations = exactn._sector_pattern(3, 2)[0]
    assert occupations.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]
    occupations = exactn._sector_pattern(2, 3)[0]
    assert occupations.tolist() == [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                                    [0, 2, 0], [0, 1, 1], [0, 0, 2]]


def test_sector_two_level_operators_are_the_dicke_matrices():
    """J^z and J^+ of the two-level sector equal the spin-N/2 matrices
    element for element, m = -j..j, and J_x^2 is the sparse product J_x J_x;
    J^z, J_x^2, the identity and J^+ +- J^- are read-only dense arrays."""
    for n in (1, 2, 3, 4, 24):
        ops = exactn._two_level_ops(n)
        jz, jx2, identity, jpm, jx = ops
        jp = (jx + jpm) / 2.0
        j = 0.5 * n
        m_vals = np.arange(-j, j + 1)
        up = np.sqrt(j * (j + 1) - m_vals[:-1] * (m_vals[:-1] + 1))
        assert np.array_equal(jz, np.diag(m_vals))
        assert np.array_equal(jp, np.diag(up, -1))
        assert np.array_equal(jx2, (sp.csr_matrix(jx) @ sp.csr_matrix(jx)).toarray())
        assert np.array_equal(identity, np.identity(n + 1))
        assert all(isinstance(op, np.ndarray) and not op.flags.writeable for op in ops)


def test_two_level_factors_match_the_sparse_sums(p33, monkeypatch):
    """dicke_two_level's factors, summed densely, hold the entries of the
    scipy.sparse sums they replace, bit for bit: the dipole factor
    omega_m J^z - (c/N) J_x^2 + const, and X and Y, the scaled J^+ - J^- and
    J_x, on banded points (M = 6) and on points with panel blocks, whose
    factors are dense as well (N = 1..4, four gauges, eta 0 to 2.8). At
    N = 600, the one count here whose sector passes DENSE_THRESHOLD, the
    factors are CSR copies of the same arrays."""
    factors = []

    def spy(name, built):
        def build(n_sites, levels, m, dipole, x, y, omega_field, c_w=0.0):
            factors.append((name, n_sites, dipole, x, y))
            return built(n_sites, levels, m, dipole, x, y, omega_field, c_w)
        return build

    for name in ("_banded", "_panels"):
        monkeypatch.setattr(exactn, name, spy(name, getattr(exactn, name)))
    points = []
    for n in (1, 2, 3, 4):
        for alpha in (0.0, jc_gauge(p33), 0.37, 1.0):
            for eta in (0.0, 0.05, 1.3, 2.8):
                p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
                for m in (6, 1202 // (n + 1) + 1):
                    dicke_two_level(HilbertConfig(n, 2, m, representation=CollectiveSpin()),
                                    p, p33.spectrum)
                    points.append(p)
    p = p33.with_(n_dipoles=600, alpha=0.37, eta=1.3)
    dicke_two_level(HilbertConfig(600, 2, 2, representation=CollectiveSpin()), p, p33.spectrum)
    points.append(p)

    for p, (name, n, dipole, x, y) in zip(points, factors, strict=True):
        jp = exactn._summed(np.array([[0.0, 0.0], [1.0, 0.0]]), n)
        jx = (jp + jp.T).tocsr()
        couplings = derive_couplings(p)
        energies = p.spectrum.energies
        const = n * 0.5 * (energies[0] + energies[1]) + 0.5 * couplings.rho_d2
        want = (p.spectrum.omega_m * exactn._summed(np.diag([-0.5, 0.5]), n)
                - (couplings.c_alpha / n) * (jx @ jx).tocsr()
                + const * sp.identity(n + 1, format="csr"))
        if n + 1 > exactn.DENSE_THRESHOLD:
            assert name == "_panels"
            assert all(sp.issparse(op) for op in (dipole, x, y))
            dipole, x, y = (op.toarray() for op in (dipole, x, y))
        assert dipole.tobytes() == want.toarray().tobytes()
        for op, coefficient, cached in ((x, couplings.g_prime_alpha / math.sqrt(n), jp - jp.T),
                                        (y, -(couplings.g_alpha / math.sqrt(n)), jx)):
            assert np.array_equal(op, (coefficient * cached).toarray())
    names = [name for name, *_ in factors[:-1]]
    assert names.count("_banded") == names.count("_panels") == len(names) // 2


def test_sector_is_the_product_basis_at_one_dipole(p33):
    """At N = 1 the sector is the level basis: its states are the levels in
    order, its axes (L, M) and its parity (-1)^(level + photon number), and
    its matrix equals the term-by-term reference without any embedding, in
    three gauges, three couplings and both conventions."""
    grid = GridSpec(points=64)
    for alpha in (0.0, 0.37, 1.0):
        for eta in (0.0, 0.9, 2.8):
            p = p33.with_(alpha=alpha, eta=eta)
            absorbed = solve_double_well(
                WellShape(beta=3.3, energy_scale=p.energy_scale,
                          renorm=SelfEnergyInBare(alpha, eta, 1.0)),
                grid, levels=6, gap_tol=1e-5)
            for spec, convention in ((p.spectrum, MainText), (absorbed, SelfEnergyInBare)):
                cfg = HilbertConfig(1, 6, 12)
                h = assemble(cfg, p, spec)
                ref = reference_assemble(cfg, p, spec, convention)
                assert abs(h.matrix - ref).max() <= 1e-13 * abs(ref).max()
                assert np.array_equal(exactn._sector_pattern(1, 6)[0], np.eye(6, dtype=int))
                assert h.axis_dims == (6, 12)
                parity = (-1.0) ** np.add.outer(np.arange(6), np.arange(12)).ravel()
                for index, sign in zip(h.blocks.index, (1, -1)):
                    assert np.array_equal(index, np.flatnonzero(parity == sign))


def test_sector_matches_product_basis(p33):
    """The two lowest states lie in the symmetric sector: its G and E equal
    the two lowest levels of the term-by-term product-space build to rel
    1e-12 for N = 2 and 3, the Coulomb, JC and
    multipolar gauges, both conventions, and eta at 0, in the normal phase,
    within 0.05 of eta_c and in the abnormal phase."""
    eta_c = eta_critical(p33)
    grid = GridSpec(points=64)
    for n, levels, m in ((2, 6, 20), (3, 5, 16)):
        for alpha in (0.0, jc_gauge(p33), 1.0):
            for eta in (0.0, 1.0, eta_c - 0.04, 2.8):
                p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
                absorbed = solve_double_well(
                    WellShape(beta=3.3, energy_scale=p.energy_scale,
                              renorm=SelfEnergyInBare(alpha, eta / math.sqrt(n), 1.0)),
                    grid, levels=levels, gap_tol=1e-5)
                cfg = HilbertConfig(n, levels, m)
                for spec, convention in ((p.spectrum, MainText), (absorbed, SelfEnergyInBare)):
                    prod = lowest_eigenvalues(product_hamiltonian(
                        cfg, reference_assemble(cfg, p, spec, convention)), 2)
                    sect = lowest_eigenvalues(assemble(cfg, p, spec), 2)
                    assert np.allclose(sect, prod, rtol=1e-12, atol=0)


def test_sector_fock_tail_matches_product_basis(p33):
    """The ground vector's Fock-tail weight is the same in the sector as in
    the term-by-term product-space build, at Fock cutoffs tight enough that
    the weight is far above rounding."""
    for n, alpha, eta in ((2, 1.0, 2.8), (2, 0.0, 1.0), (3, 0.0, 2.8)):
        p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
        cfg = HilbertConfig(n, 4, 8)
        tails = []
        for h in (product_hamiltonian(cfg, reference_assemble(cfg, p, p33.spectrum)),
                  assemble(cfg, p, p33.spectrum)):
            _, vecs = lowest_eigenvalues(h, 1, return_vectors=True)
            tails.append(fock_tail_weight(h, vecs[:, 0]))
        assert tails[0] > 1e-10
        assert tails[1] == pytest.approx(tails[0], rel=1e-9)


def test_sector_parity_is_conserved(p33):
    """An occupation state carries (-1)^(sum_i i n_i) times the photon
    parity, which the sector Hamiltonian conserves at the product basis's
    leakage bound."""
    cfg = HilbertConfig(3, 4, 10)
    p = p33.with_(eta=0.8, alpha=0.6, n_dipoles=3)
    h = assemble(cfg, p, p33.spectrum)
    occupations = exactn._sector_pattern(3, 4)[0]
    par = joint_parity(occupations, 10)
    for index, sign in zip(h.blocks.index, (1, -1)):
        assert np.array_equal(index, np.flatnonzero(par == sign))
    m = h.matrix.toarray()
    mixing = np.abs(m[np.not_equal.outer(par, par)]).max()
    assert mixing <= 1e-8 * np.abs(m).max()
    assert set(np.unique(par)) == {-1.0, 1.0}
    # The occupations are the cached pattern every later (3, 4) sector reads.
    with pytest.raises(ValueError):
        occupations[0, 0] = 1


def test_gauge_unitary_works_in_the_sector(p33):
    """The gauge unitary of two dipoles (8 levels, Fock(30), 1,080 sector
    states) is orthogonal and carries the Coulomb-gauge ground state onto
    the multipolar one. Frozen from the same check on the 1,920 product
    states: 1 - overlap 3.1e-11, ground energies 1.7e-6 apart (the
    truncation's gauge defect)."""
    cfg = HilbertConfig(2, 8, 30)
    p = p33.with_(n_dipoles=2, eta=0.5, alpha=0.0)
    r = gauge_fixing_unitary(cfg, p, p33.spectrum, 0.0, 1.0)
    assert np.abs(r @ r.T - np.eye(cfg.dimension)).max() <= 1e-12
    h0 = assemble(cfg, p, p33.spectrum).matrix.toarray()
    h1 = assemble(cfg, p.with_(alpha=1.0), p33.spectrum).matrix.toarray()
    w0, v0 = np.linalg.eigh(h0)
    w1, v1 = np.linalg.eigh(h1)
    assert abs(np.linalg.eigvalsh(r @ h0 @ r.T)[0] - w1[0]) <= 2e-6
    assert abs(np.dot(r @ v0[:, 0], v1[:, 0])) >= 1.0 - 1e-10


@pytest.mark.parametrize("n, levels, m", [(2, 8, 40), (3, 6, 24)])
def test_dark_states_lie_above_the_sector_pair(p33, n, levels, m):
    """The two lowest levels of the whole product space (2,560 states at
    N = 2 with the CLI's cutoffs, 5,184 at N = 3) are the sector's G and E,
    from the library's default config, to rel 1e-12 in
    both phases and at both gauge ends: no state of lower permutation
    symmetry falls below them."""
    cfg = HilbertConfig(n, levels, m)
    for alpha in (0.0, 1.0):
        for eta in (0.5, 2.8):
            p = p33.with_(n_dipoles=n, alpha=alpha, eta=eta)
            product = lowest_eigenvalues(product_hamiltonian(
                cfg, reference_assemble(cfg, p, p33.spectrum)), 2)
            sector = exactn.ground_pair(assemble(cfg, p, p33.spectrum))[:2]
            assert np.allclose(sector, product, rtol=1e-12, atol=0)
