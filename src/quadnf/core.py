"""Fundamental symplectic linear algebra for quadratic Hamiltonians.

A quadratic Hamiltonian of N bosonic modes is specified by a real
symmetric matrix M of size 2N x 2N acting on the quadrature vector
(x_1..x_N, p_1..p_N).  The linear Heisenberg dynamics is generated by
the equation-of-motion matrix K = J M, where J is the standard
symplectic form.  This module provides J, the construction of K, the
action of canonical transformations, the conversion to the bosonic
(creation/annihilation) representation, and a matrix-exponential
propagator with a boundedness oracle.
"""

from __future__ import annotations

import operator

import numpy as np

from .config import DEFAULT, Config, maxnorm
from .errors import (
    ContractViolationError,
    IllConditionedError,
    InvalidDimensionError,
    SaturationError,
    StructureError,
)

__all__ = [
    "symplectic_form",
    "form_product",
    "require_hamiltonian_matrix",
    "build_eom",
    "symplectic_residual",
    "require_symplectic",
    "transform_hamiltonian",
    "similarity",
    "bosonic_conversion",
    "to_bosonic",
    "propagate",
    "stability_oracle",
]

# Condition-number estimate above which similarity transformations are
# refused.
COND_LIMIT = 1e12

# Number of time samples used by the matrix-exponential boundedness oracle.
ORACLE_SAMPLES = 40


def _even_dim(a: np.ndarray, stack: bool = False) -> int:
    """Return N for a square 2N x 2N array, or with ``stack`` for an array of them
    over leading axes, raising on bad shapes."""
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-2] != a.shape[-1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[-1]
    if dim == 0 or dim % 2 != 0:
        raise InvalidDimensionError(f"dimension must be a positive even number, got {dim}")
    return dim // 2


def _count(value, name: str = "n_modes", error=InvalidDimensionError) -> int:
    """``value`` as an int, raising ``error`` unless it is an integer >= 1: a
    float or a bool is refused, not truncated; a NumPy integer is taken."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return n


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form J = [[0, I], [-I, 0]] for ``n_modes`` modes.

    Parameters
    ----------
    n_modes : int
        Number of modes N; the result is 2N x 2N with integer entries.
    """
    n = _count(n_modes)
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def form_product(x: np.ndarray, y: np.ndarray):
    """Bilinear symplectic product x^T J y (no conjugation): a complex for two
    vectors, a complex array over the leading axes of stacked ones.

    A stack's products are (1, n) @ (n, 1) matmuls, which NumPy runs as one
    BLAS dot per pair of vectors, as it runs a vector's, so a member of a
    stack gets its own bits.
    """
    n = x.shape[-1] // 2
    if x.ndim == y.ndim == 1:
        return complex(x[:n] @ y[n:] - x[n:] @ y[:n])
    return (x[..., None, :n] @ y[..., n:, None]
            - x[..., None, n:] @ y[..., :n, None])[..., 0, 0].astype(complex, copy=False)


def _hamiltonian_defects(m: np.ndarray, cfg: Config):
    """(non-finite, asymmetric, max |M - M^T|, its limit) of M or of each matrix
    of a stack: whether it has a NaN or infinite entry (max |M| is then not
    < inf), and whether it is not symmetric within the tolerance."""
    scale = maxnorm(m, (-2, -1))
    with np.errstate(invalid="ignore"):  # the asymmetry of a non-finite M is not used
        asym = maxnorm(m - m.swapaxes(-1, -2), (-2, -1))
    limit = cfg.tol(scale)
    return ~(scale < np.inf), asym > limit, asym, limit


def require_hamiltonian_matrix(m, cfg: Config = DEFAULT) -> np.ndarray:
    """Validate and return M as a float array (finite, symmetric, even-dimensional)."""
    m = np.asarray(m, dtype=float)
    _even_dim(m)
    non_finite, asymmetric, asym, limit = _hamiltonian_defects(m, cfg)
    if non_finite:
        raise _non_finite_error(m)
    if asymmetric:
        raise StructureError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e} > {limit:.3e}")
    return m


def _non_finite_error(m: np.ndarray) -> StructureError:
    """The error for a matrix with NaN or infinite entries, naming the first few.

    Whether there are any is free to tell: max |M| is NaN or inf exactly
    when some entry is.
    """
    bad = np.argwhere(~np.isfinite(m))
    shown = ", ".join(f"({i}, {j}) = {m[i, j]}" for i, j in bad[:4])
    more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
    return StructureError(f"matrix has non-finite entries: {shown}{more}")


def build_eom(m, cfg: Config = DEFAULT) -> np.ndarray:
    """Equation-of-motion matrix K = J M for a symmetric M.

    K's rows are M's, moved and negated, so J K + K^T J = M^T - M holds
    exactly: the symmetry check on M is the check that K preserves the
    canonical commutation relations.
    """
    return _eom(require_hamiltonian_matrix(m, cfg))


def _eom(m: np.ndarray) -> np.ndarray:
    """K = J M of each matrix of a stack, without forming J: top rows take the
    p-block, bottom rows negate the x-block."""
    n = m.shape[-1] // 2
    return np.concatenate([m[..., n:, :], -m[..., :n, :]], axis=-2)


def symplectic_residual(t: np.ndarray):
    """Max-norm of T J T^T - J, the symplectic defect, of T or of each matrix of
    a stack of them; T J is formed exactly, as a column swap."""
    t = np.asarray(t)
    n = _even_dim(t, stack=True)
    defect = np.concatenate([-t[..., n:], t[..., :n]], axis=-1) @ t.swapaxes(-1, -2)
    # Minus J in place: its entries +1 at (i, n + i) and -1 at (n + i, i), i < n,
    # lie every 2N + 1 places along each flattened product.
    flat = defect.reshape(defect.shape[:-2] + (-1,))
    flat[..., n:2 * n * n:2 * n + 1] -= 1.0
    flat[..., 2 * n * n::2 * n + 1] += 1.0
    return maxnorm(defect, (-2, -1))


def require_symplectic(t, cfg: Config = DEFAULT) -> np.ndarray:
    """Validate that T is one real symplectic 2N x 2N matrix; return it as float array.

    A T with a NaN or infinite entry, in either part, is refused: its
    residual is not finite and would compare below any bound.
    """
    t = np.asarray(t)
    _even_dim(t)
    if not maxnorm(t) < np.inf:
        raise ContractViolationError("transformation matrix has non-finite entries")
    if np.iscomplexobj(t):
        if maxnorm(t.imag) > cfg.tol(maxnorm(t)):
            raise ContractViolationError("transformation matrix must be real")
        t = t.real
    t = t.astype(float)
    res = symplectic_residual(t)
    scale = 1.0 + maxnorm(t) ** 2
    if res > cfg.tol(scale) * scale:
        raise ContractViolationError(
            f"matrix is not symplectic: max |T J T^T - J| = {res:.3e}"
        )
    return t


def transform_hamiltonian(m, t, cfg: Config = DEFAULT) -> np.ndarray:
    """New Hamiltonian matrix N = T^T M T under a canonical transformation T."""
    m = require_hamiltonian_matrix(m, cfg)
    if np.shape(t) != m.shape:
        raise InvalidDimensionError(f"expected T of shape {m.shape}, got {np.shape(t)}")
    t = require_symplectic(t, cfg)
    n = t.T @ m @ t
    return (n + n.T) / 2.0


def similarity(k, t, *, _cond=None) -> np.ndarray:
    """Similarity transformation T^{-1} K T (spectrum preserving), of one pair
    or of each pair of stacked K and T, which must have the same shape.

    Refuses matrices whose condition estimate exceeds ``COND_LIMIT``,
    beyond which the result would be numerical noise (a stack, if any of
    its T does).  ``_cond`` is that estimate, cond(T), when the caller has
    computed it already.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    _even_dim(k, stack=True)
    if t.shape != k.shape:
        raise InvalidDimensionError(f"expected T of shape {k.shape}, got {t.shape}")
    cond = np.linalg.cond(t) if _cond is None else _cond
    if np.count_nonzero(_ill_conditioned(cond)):
        raise _ill_conditioned_error(cond)
    return np.linalg.solve(t, k @ t)


def _ill_conditioned(cond):
    """Whether each condition estimate is too large, or not finite, for ``similarity``."""
    return ~np.isfinite(cond) | (cond > COND_LIMIT)


def _ill_conditioned_error(cond) -> IllConditionedError:
    """The error ``similarity`` refuses a T of condition estimate ``cond`` with (the
    largest of a stack's)."""
    return IllConditionedError(f"condition estimate {np.max(cond):.3e} exceeds {COND_LIMIT:.1e}")


def bosonic_conversion(n_modes: int) -> np.ndarray:
    """Unitary G mapping (a_1..a_N, a_1^+..a_N^+) to the quadrature ordering."""
    n = _count(n_modes)
    eye = np.eye(n)
    return np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0)


def to_bosonic(t) -> np.ndarray:
    """Canonical transformation in the bosonic representation, T_C = G^+ T G.

    For real T the result maps (b, b^+) consistently: the lower-right
    N x N block is the conjugate of the upper-left one, and the
    lower-left block the conjugate of the upper-right one.
    """
    t = np.asarray(t, dtype=float)
    n = _even_dim(t)
    g = bosonic_conversion(n)
    return g.conj().T @ t @ g


def propagate(k, t: float) -> np.ndarray:
    """Matrix exponential exp(K t), the linear Heisenberg propagator.

    Raises ``SaturationError`` when the exponential overflows (strongly
    unstable K at large t); the error carries the norm of K t.
    """
    from scipy.linalg import expm  # SciPy costs ~0.2 s to import; only expm needs it
    k = np.asarray(k, dtype=float)
    _even_dim(k)
    if not np.isfinite(t):
        raise ContractViolationError("propagation time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        result = expm(k * t)
    if not np.all(np.isfinite(result)):
        raise SaturationError(
            f"exp(K t) overflowed at t = {t:g} (|K t| = {maxnorm(k) * abs(t):.3e})",
            norm=maxnorm(k) * abs(t),
            t=t,
        )
    return result


def stability_oracle(k, t_max: float, growth_threshold: float) -> bool:
    """Empirical boundedness check of the propagator, independent of spectra.

    Samples ||exp(K t)||_2 on a uniform grid of ``ORACLE_SAMPLES`` steps
    over [0, t_max] and reports True iff the supremum stays within
    ``growth_threshold``.  Overflow counts as unbounded.  A ``t_max`` that
    is not positive, or not finite (its step goes to ``propagate``), raises
    ``ContractViolationError``, and so does a ``growth_threshold`` that is
    not a finite number > 0: no norm exceeds a NaN or infinite one, so an
    unstable K would read as bounded.  This is a cross-check for the
    spectral stability verdict, not a replacement for it.
    """
    k = np.asarray(k, dtype=float)
    _even_dim(k)
    if t_max <= 0:
        raise ContractViolationError("t_max must be positive")
    if not 0 < growth_threshold < np.inf:
        raise ContractViolationError(
            f"growth_threshold must be a finite number > 0, got {growth_threshold!r}")
    try:
        step = propagate(k, t_max / ORACLE_SAMPLES)
    except SaturationError:
        return False
    prop = np.eye(k.shape[0])
    for _ in range(ORACLE_SAMPLES):
        with np.errstate(over="ignore", invalid="ignore"):
            prop = step @ prop
        if not np.all(np.isfinite(prop)):
            return False
        if np.linalg.norm(prop, 2) > growth_threshold:
            return False
    return True
