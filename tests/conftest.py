"""Shared fixtures: the published four-mode example and structure builders."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

from quadnf import symplectic_form
from quadnf.normal_form import NormalFormBlock

# Four coupled oscillators with one real pair (rank-2 chain), a double zero
# eigenvalue, and one imaginary pair; every published intermediate value of
# its normal-form construction is used as a golden reference.
GOLDEN_M = np.array(
    [
        [-21, -11, -17, -45, 16, 7, -3, 22],
        [-11, 2, -6, -15, 3, 6, -3, 9],
        [-17, -6, -3, -29, 8, 4, 0, 16],
        [-45, -15, -29, -60, 19, 16, 0, 33],
        [16, 3, 8, 19, -5, -6, 0, -11],
        [7, 6, 4, 16, -6, -1, 0, -8],
        [-3, -3, 0, 0, 0, 0, 3, 0],
        [22, 9, 16, 33, -11, -8, 0, -17],
    ],
    dtype=float,
)

# Generating generalized eigenvectors of K = J M for the golden example.
GOLDEN_G11 = np.array([-1, 2, 0, 1, 3, -1, 1, 0], dtype=float)          # rank 2 at +2
GOLDEN_G11T = np.array([3, -6, 0, -2, -12, 8, -3, 0], dtype=float)      # rank 2 at -2
GOLDEN_G01 = np.array([2, 2, -1, 1, 1, 0, 4, 4], dtype=float)           # rank 1 at 0
GOLDEN_G02 = np.array([0, 0, 1, 1, 3, 2, 0, 0], dtype=float)            # rank 1 at 0
GOLDEN_G21 = np.array([1, 1, -1j, 1, 2 - 1j, 1 - 1j, 3, 2])             # rank 1 at 3i

# Orthonormalized vectors and transformation columns of the same example.
# Second entry is 20 (not 2): the unique value consistent with
# (K - 2I) e11 = t2, the symplectic pairings, and the assembled T below.
GOLDEN_E11 = -np.array([3, 20, 0, 23, 43, 3, 23, 26], dtype=float) / 10
GOLDEN_E11T = -np.array([14, 37, 0, 34, 74, -6, 51, 65], dtype=float) / 40
GOLDEN_T2 = np.array([-2, 0, 0, -2, -2, -2, -2, -4], dtype=float)
GOLDEN_S1 = -np.array([2, 1, 0, 2, 2, 2, 3, 5], dtype=float) / 2
GOLDEN_F01 = GOLDEN_G01.copy()
GOLDEN_H01 = np.array([0, 0, 0.5, 0.5, 1.5, 1, 0, 0])
GOLDEN_E21 = GOLDEN_G21 / np.sqrt(2)

GOLDEN_N = np.zeros((8, 8))
GOLDEN_N[0, 4] = GOLDEN_N[4, 0] = 2
GOLDEN_N[0, 5] = GOLDEN_N[5, 0] = 1
GOLDEN_N[1, 5] = GOLDEN_N[5, 1] = 2
GOLDEN_N[3, 3] = 3
GOLDEN_N[7, 7] = 3

# The full canonical transformation assembled from the vectors above,
# columns (e11, t2, f01, sqrt2 Re e21 | s1, e11~, h01, sqrt2 Im e21).
GOLDEN_T = np.column_stack(
    [
        GOLDEN_E11,
        GOLDEN_T2,
        GOLDEN_F01,
        np.sqrt(2) * np.real(GOLDEN_E21),
        GOLDEN_S1,
        GOLDEN_E11T,
        GOLDEN_H01,
        np.sqrt(2) * np.imag(GOLDEN_E21),
    ]
)


def flat_members(classes):
    """(member, algebraic) of every member of ``cluster_eigenvalues``'s
    classes, sorted by (-Re, -Im)."""
    return sorted([(mu, c.algebraic) for c in classes for mu in c.members],
                  key=lambda vm: (-vm[0].real, -vm[0].imag))


def two_mode_m(eta, lam):
    return np.array(
        [[1.0, lam, 0, 0], [lam, eta, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, eta]]
    )


def random_symplectic(n_modes, rng, scale=0.4):
    j = symplectic_form(n_modes)
    a = rng.normal(size=(2 * n_modes, 2 * n_modes), scale=scale)
    return expm(j @ ((a + a.T) / 2))


@dataclass(frozen=True)
class _Unit:
    """One planted block: case, eigenvalue, rank and sigma.  ``t_cols`` and
    ``s_cols`` are accepted and ignored (``bench/tests/test_planted.py``
    passes them)."""

    case: int
    eigenvalue: complex
    rank: int
    sigma: complex | None
    t_cols: tuple = ()
    s_cols: tuple = ()


def _block_for_unit(unit: _Unit) -> NormalFormBlock:
    """The real Jordan block of one planted unit, from this file's own copy of
    the block formulas: the planted oracle does not run the program's block
    code, so a wrong formula there cannot plant itself."""
    c, lam, d, sigma = unit.case, unit.eigenvalue, unit.rank, unit.sigma
    nu = lam.imag
    if c in (1, 4):
        i_i = lam.real * np.eye(d) + np.eye(d, k=-1)
        i_r = np.zeros((d, d))
        i_l = np.zeros((d, d))
    elif c == 2:
        size = 2 * d
        i_i = np.zeros((size, size))
        rot = np.array([[lam.real, nu], [-nu, lam.real]])
        for b in range(d):
            i_i[2 * b: 2 * b + 2, 2 * b: 2 * b + 2] = rot
            if b + 1 < d:
                i_i[2 * b + 2: 2 * b + 4, 2 * b: 2 * b + 2] = np.eye(2)
        i_r = np.zeros((size, size))
        i_l = np.zeros((size, size))
    elif c == 3:
        size = d // 2
        s = float(np.real(sigma))
        i_i = s * np.eye(size, k=-1)
        i_r = np.zeros((size, size))
        i_l = np.zeros((size, size))
        i_l[size - 1, size - 1] = s * (-1.0) ** (d // 2)
    elif c == 5:
        s = float(np.real(sigma))
        i_i = np.zeros((d, d))
        i_r = np.zeros((d, d))
        i_l = np.zeros((d, d))
        for r in range(1, d + 1):
            i_r[r - 1, d - r] = s * nu
            i_l[r - 1, d - r] = -s * nu
            if 2 <= r:
                i_r[r - 1, d + 1 - r] = s if r % 2 == 0 else -s
            if r <= d - 1:
                i_l[r - 1, d - r - 1] = s if r % 2 == 0 else -s
    else:
        s6 = float(np.real(1j * sigma))
        i_i = np.eye(d, k=-1)
        i_r = np.zeros((d, d))
        i_l = np.zeros((d, d))
        for r in range(1, d + 1):
            i_r[r - 1, d - r] = s6 * nu * (-1.0) ** (r + 1)
            i_l[r - 1, d - r] = s6 * nu * (-1.0) ** r
    return NormalFormBlock(case=c, eigenvalue=lam, rank=d, sigma=sigma,
                           i_i=i_i, i_r=i_r, i_l=i_l)


def expected_kn(blocks, n_modes):
    """K_N = [[O_I, O_R], [O_L, -O_I^T]] of consecutive blocks."""
    n = n_modes
    kn = np.zeros((2 * n, 2 * n))
    offset = 0
    for b in blocks:
        end = offset + b.size
        kn[offset:end, offset:end] = b.i_i
        kn[offset:end, n + offset:n + end] = b.i_r
        kn[n + offset:n + end, offset:end] = b.i_l
        offset = end
    kn[n:, n:] = -kn[:n, :n].T
    return kn


def seeded_matrix(specs, rng, scale=0.4):
    """Hamiltonian matrix whose K has exactly the given block structure.

    ``specs`` is a list of (case, eigenvalue, rank, sigma); the normal
    form is conjugated by a random symplectic transformation, so the
    pipeline has to rediscover the structure.  Returns (M, T) with T the
    planted canonical transformation.
    """
    units = [
        _Unit(case=c, eigenvalue=lam, rank=d, sigma=s, t_cols=[], s_cols=[])
        for c, lam, d, s in specs
    ]
    blocks = [_block_for_unit(u) for u in units]
    n_modes = sum(b.size for b in blocks)
    kn = expected_kn(blocks, n_modes)
    j = symplectic_form(n_modes)
    n0 = -j @ kn
    t0 = random_symplectic(n_modes, rng, scale)
    t0inv = np.linalg.inv(t0)
    m = t0inv.T @ n0 @ t0inv
    return (m + m.T) / 2, t0


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
