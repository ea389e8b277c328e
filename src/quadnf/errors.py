"""Exception hierarchy for the quadnf pipeline.

Errors are grouped in three tiers that the CLI maps to exit codes:
input/validation problems (exit 1), numerical pipeline failures
(exit 2), and post-hoc verification failures (exit 3).
"""


class QuadnfError(Exception):
    """Base class for all quadnf errors.

    When ``normal_form`` gives up after its widest clustering radius, the
    error it raises carries ``attempts``: one plain-string record per
    radius tried, in order, saying why that radius failed.
    """

    attempts: tuple[str, ...] = ()


class ValidationError(QuadnfError):
    """Malformed or inconsistent input (bad dimensions, asymmetry, parse errors)."""


class InvalidDimensionError(ValidationError):
    """Matrix dimension is not a positive even number 2N."""


class StructureError(ValidationError):
    """A matrix violates its required algebraic structure beyond tolerance."""


class ParseError(ValidationError):
    """A matrix document could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PipelineError(QuadnfError):
    """Numerical failure inside the normal-form pipeline."""


class IllConditionedError(PipelineError):
    """A transformation matrix is too ill-conditioned to invert reliably."""


class SaturationError(PipelineError):
    """A matrix exponential overflowed; carries the last finite norm seen."""

    def __init__(self, message, norm=None, t=None):
        super().__init__(message)
        self.norm = norm
        self.t = t


class AmbiguousSpectrumError(PipelineError):
    """Eigenvalue clusters cannot be separated or symmetrized unambiguously."""


class SpectrumStructureError(PipelineError):
    """The eigenvalue set violates the pairing rules forced by JK + K^T J = 0."""


class ChainExtractionError(PipelineError):
    """Nullspace filtration dimensions are inconsistent with the multiplicities."""


class NondegeneracyError(PipelineError):
    """A symplectic Gram pairing that must be nondegenerate vanished numerically."""


class ContractViolationError(PipelineError):
    """An argument violates an operation's precondition (e.g. non-symplectic T)."""


class AssemblyError(PipelineError):
    """The assembled transformation failed the symplectic condition."""

    def __init__(self, message, gram_residual=None):
        super().__init__(message)
        self.gram_residual = gram_residual


class VerificationError(QuadnfError):
    """The computed normal form does not match its expected block structure."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BorderlineRankWarning(UserWarning):
    """A numerical rank decision fell within a factor 10 of its threshold."""
