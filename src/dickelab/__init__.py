"""Numerical laboratory for N dipoles coupled to a single field mode.

Closed-form polariton spectra and macroscopic observables in the
thermodynamic limit, exact diagonalization of the untruncated finite-N
Hamiltonian across the one-parameter gauge family, and CSV figure-data
commands. Units: the mode frequency omega sets the energy scale.
"""

from .dipole import (
    DipoleSpectrum,
    GridSpec,
    MainText,
    SelfEnergyInBare,
    WellShape,
    resonance_energy_scale,
    solve_double_well,
    trk_sum,
)
from .errors import (
    BudgetError,
    ConventionMismatch,
    ConvergenceError,
    DickelabError,
    DomainError,
    GridError,
    InstabilityError,
    PhaseError,
    RootError,
    ValidationError,
)
from .exactn import (
    AssembledHamiltonian,
    CollectiveSpin,
    HilbertConfig,
    SymmetricSector,
    assemble,
    convergence_report,
    default_hilbert,
    dicke_two_level,
    fock_tail_weight,
    lowest_eigenvalues,
    second_derivative_sweep,
    transition_sweep,
)
from .gauge import (
    CouplingSet,
    ReducedParams,
    derive_couplings,
    eta_critical,
    jc_gauge,
    mode_frequency,
    trk_bound_holds,
)
from .oscdiag import (
    BilinearForm,
    PolaritonPair,
    is_positive_definite,
    polariton_closed_form,
    williamson_frequencies,
)
from .thermo import (
    Phase,
    PhasePoint,
    abnormal_phase,
    analytic_second_derivative,
    classify,
    evaluate,
    ground_density_second_derivative,
    limit_ground_density,
    normal_phase,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledHamiltonian",
    "BilinearForm",
    "BudgetError",
    "CollectiveSpin",
    "ConventionMismatch",
    "ConvergenceError",
    "CouplingSet",
    "DickelabError",
    "DipoleSpectrum",
    "DomainError",
    "GridError",
    "GridSpec",
    "HilbertConfig",
    "InstabilityError",
    "MainText",
    "Phase",
    "PhaseError",
    "PhasePoint",
    "PolaritonPair",
    "ReducedParams",
    "RootError",
    "SelfEnergyInBare",
    "SymmetricSector",
    "ValidationError",
    "WellShape",
    "abnormal_phase",
    "analytic_second_derivative",
    "assemble",
    "classify",
    "convergence_report",
    "default_hilbert",
    "derive_couplings",
    "dicke_two_level",
    "eta_critical",
    "evaluate",
    "fock_tail_weight",
    "ground_density_second_derivative",
    "is_positive_definite",
    "jc_gauge",
    "limit_ground_density",
    "lowest_eigenvalues",
    "mode_frequency",
    "normal_phase",
    "polariton_closed_form",
    "resonance_energy_scale",
    "second_derivative_sweep",
    "solve_double_well",
    "transition_sweep",
    "trk_bound_holds",
    "trk_sum",
    "williamson_frequencies",
]
