"""Numerical configuration shared across the pipeline.

All structural checks use a combined absolute/relative tolerance
``atol + rtol * scale`` where the scale is a max-norm of the matrix at
hand.  The remaining knobs control the genuinely ill-posed decisions:
eigenvalue clustering, numerical rank, and vanishing Gram pairings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Config:
    """Tolerances and limits for the normal-form pipeline.

    Attributes
    ----------
    atol, rtol : float
        Absolute/relative tolerance for structural residual checks
        (symmetry, JK + K^T J = 0, symplectic condition).
    clustering_tol : float
        Relative eigenvalue clustering radius; two eigenvalues within
        ``clustering_tol * (1 + max|K|)`` belong to one cluster, and a
        cluster within that distance of an axis is snapped onto it.
    rank_tol : float
        Relative singular-value threshold for nullspace/rank decisions.
    alpha_tol : float
        Relative threshold below which a symplectic Gram pairing counts
        as zero (triggers the superposition fixes).
    cond_limit : float
        Condition-number estimate above which similarity transformations
        are refused.
    verify_tol : float
        Relative tolerance for the final block-structure verification.
    oracle_samples : int
        Number of time samples used by the matrix-exponential
        boundedness oracle.
    """

    atol: float = 1e-10
    rtol: float = 1e-10
    clustering_tol: float = 1e-7
    rank_tol: float = 1e-7
    alpha_tol: float = 1e-9
    cond_limit: float = 1e12
    verify_tol: float = 1e-7
    oracle_samples: int = 40

    def tol(self, scale: float = 1.0) -> float:
        """Combined tolerance for a structural check at the given scale."""
        return self.atol + self.rtol * scale

    def with_tolerance(self, tol: float) -> "Config":
        """Copy of this config with the structural tolerances overridden.

        The verification budget is widened along with the structural
        tolerance: a matrix that is only symmetric to ``tol`` cannot
        match its ideal block structure any better than that.
        """
        return replace(
            self, atol=tol, rtol=tol, verify_tol=max(self.verify_tol, tol)
        )


DEFAULT = Config()


def maxnorm(a) -> float:
    """Max-norm of a matrix or vector (0.0 for empty input)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())
