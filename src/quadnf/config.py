"""The structural tolerance shared across the pipeline.

Every structural check (the symmetry of M, the symplectic condition)
uses the combined absolute/relative tolerance
``tolerance + tolerance * scale``, where the scale is a max-norm of the
matrix at hand; a document or ``--tolerance`` sets it.  The thresholds
of the genuinely ill-posed decisions are constants of the module that
decides with them: eigenvalue clustering and numerical rank in
``spectrum``, vanishing Gram pairings in ``algebra``, the condition
limit of a similarity in ``core`` and the verification budget in
``normal_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Config:
    """The structural tolerance of the normal-form pipeline.

    Attributes
    ----------
    tolerance : float
        Absolute and relative tolerance for structural residual checks
        (symmetry, symplectic condition).  It also widens ``normal_form``'s
        verification budget once it exceeds ``normal_form.VERIFY_TOL``.  It
        must be a finite number > 0, else ``ValidationError``: a NaN or
        infinite one would switch the checks off.
    """

    tolerance: float = 1e-10

    def __post_init__(self):
        t = self.tolerance
        if isinstance(t, bool) or not isinstance(t, Real) or not 0 < t < np.inf:
            raise ValidationError(f"tolerance must be a finite number > 0, got {t!r}")

    def tol(self, scale: float = 1.0) -> float:
        """Combined tolerance for a structural check at the given scale."""
        return self.tolerance + self.tolerance * scale


DEFAULT = Config()


def maxnorm(a, axis=None):
    """Max-norm of a matrix or vector (0.0 for empty input); with ``axis``, the
    max-norms over those axes, e.g. (-2, -1) for each matrix of a stack."""
    a = np.asarray(a)
    if axis is not None:
        return np.abs(a).max(axis=axis)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())
