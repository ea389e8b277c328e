"""Normal forms of quadratic quantum Hamiltonians.

Transforms any quadratic Hamiltonian, given as a real symmetric matrix
M acting on (x_1..x_N, p_1..p_N), into its normal form via an
explicitly constructed real canonical (symplectic) transformation,
covering all dynamical-(in)stability classes, and reports the
normal-mode decomposition together with a stability verdict.
"""

from .config import Config, DEFAULT
from .core import (
    build_eom,
    bosonic_conversion,
    propagate,
    similarity,
    stability_oracle,
    symplectic_form,
    symplectic_residual,
    to_bosonic,
    transform_hamiltonian,
    validate_eom_structure,
)
from .errors import (
    AmbiguousSpectrumError,
    AssemblyError,
    ChainExtractionError,
    ContractViolationError,
    IllConditionedError,
    InvalidDimensionError,
    NondegeneracyError,
    ParseError,
    PipelineError,
    QuadnfError,
    SaturationError,
    SpectrumStructureError,
    StructureError,
    ValidationError,
    VerificationError,
)
from .normal_form import (
    CanonicalTransform,
    HamiltonianTerm,
    NormalFormBlock,
    NormalFormReport,
    TermKind,
    Verdict,
    normal_form,
    terms_matrix,
)
from .spectrum import (
    EigenvalueClass,
    EigenvalueKind,
    JordanChain,
    SpectrumReport,
    classify_spectrum,
    cluster_eigenvalues,
    geometric_multiplicity,
    jordan_chains,
)

__version__ = "0.1.0"
