"""Exception types shared across the package.

Each error names the condition it reports and carries the process exit code
the command-line layer returns for it (validation 2, convergence 3,
budget 4).
"""

EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_BUDGET = 4


class DickelabError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_VALIDATION


class ValidationError(DickelabError):
    """Configuration or argument failed validation."""


class InstabilityError(DickelabError):
    """A quadratic form is not positive definite; no stable normal modes."""

    exit_code = EXIT_CONVERGENCE


class ConvergenceError(DickelabError):
    """A numerical routine did not converge to the requested tolerance."""

    exit_code = EXIT_CONVERGENCE


class DomainError(DickelabError):
    """The computational domain is too small for the requested state."""

    exit_code = EXIT_CONVERGENCE


class PhaseError(DickelabError):
    """A phase-branch evaluator was called outside its domain."""


class RootError(DickelabError):
    """A bracketing root search found no sign change."""

    exit_code = EXIT_CONVERGENCE


class GridError(DickelabError):
    """A grid does not meet the requirements of a finite-difference stencil."""


class BudgetError(DickelabError):
    """A requested Hilbert-space dimension exceeds the configured budget."""

    exit_code = EXIT_BUDGET


class ConventionMismatch(DickelabError):
    """A dipole spectrum was produced under a different truncation convention."""
