"""Benchmark workloads: seeded inputs, the timed operation and the
independent correctness check of each one.

Every workload draws its inputs from ``--seed`` alone and hands the
program nothing but matrices.  The checks never reuse the program's own
verification: they recompute the symplectic residual of T, compare
against ``numpy.linalg.eigvals(K)`` and, for planted inputs, against
the planted block list.  The planted matrices are built from this
file's own copy of the real-Jordan block formulas, so a change to the
program's block code cannot change the inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

# Relative tolerances of the checks.  SYMPLECTIC_TOL and EIGEN_TOL match
# the planted-structure tests (1e-8 on T J T^T - J, four decimals on
# eigenvalues); a defective eigenvalue is only that accurate.  Simple
# eigenvalues are accurate to round-off, hence SIMPLE_EIGEN_TOL.
# BOUNDARY_MARGIN is how close to a change of class (|Re lambda| -> 0,
# lambda -> 0, two eigenvalues colliding) a matrix may be before the
# eigenvalue-based verdict is not trusted.
SYMPLECTIC_TOL = 1e-8
EIGEN_TOL = 1e-4
SIMPLE_EIGEN_TOL = 1e-6
BOUNDARY_MARGIN = 1e-3


def symplectic_form(n_modes: int) -> np.ndarray:
    j = np.zeros((2 * n_modes, 2 * n_modes))
    j[:n_modes, n_modes:] = np.eye(n_modes)
    j[n_modes:, :n_modes] = -np.eye(n_modes)
    return j


def eom(m: np.ndarray) -> np.ndarray:
    """K = J M."""
    return symplectic_form(m.shape[0] // 2) @ m


# --- planted real Jordan structures -------------------------------------

def block_modes(case: int, rank: int) -> int:
    """Number of modes one planted block occupies."""
    if case == 2:
        return 2 * rank
    if case == 3:
        return rank // 2
    return rank


def planted_block(case: int, lam: complex, rank: int, sigma):
    """Sub-blocks (I_I, I_R, I_L) of one real Jordan block of K_N.

    K_N restricted to the block's modes is [[I_I, I_R], [I_L, -I_I^T]].
    Cases: 1 real pair, 2 complex quadruplet, 3 zero / even rank,
    4 zero / odd rank (an f/h pair of chains), 5 imaginary / even rank,
    6 imaginary / odd rank; sigma is +-1 for cases 3 and 5, +-i for 6.
    """
    d = rank
    size = block_modes(case, d)
    i_i = np.zeros((size, size))
    i_r = np.zeros((size, size))
    i_l = np.zeros((size, size))
    nu = lam.imag
    if case == 1:
        i_i += lam.real * np.eye(d) + np.eye(d, k=-1)
    elif case == 2:
        rot = np.array([[lam.real, nu], [-nu, lam.real]])
        for b in range(d):
            i_i[2 * b:2 * b + 2, 2 * b:2 * b + 2] = rot
            if b + 1 < d:
                i_i[2 * b + 2:2 * b + 4, 2 * b:2 * b + 2] = np.eye(2)
    elif case == 3:
        s = sigma.real
        i_i += s * np.eye(size, k=-1)
        i_l[size - 1, size - 1] = s * (-1.0) ** (d // 2)
    elif case == 4:
        i_i += np.eye(d, k=-1)
    elif case == 5:
        s = sigma.real
        for r in range(1, d + 1):
            i_r[r - 1, d - r] = s * nu
            i_l[r - 1, d - r] = -s * nu
            if r >= 2:
                i_r[r - 1, d + 1 - r] = s if r % 2 == 0 else -s
            if r <= d - 1:
                i_l[r - 1, d - r - 1] = s if r % 2 == 0 else -s
    elif case == 6:
        s = (1j * sigma).real
        i_i += np.eye(d, k=-1)
        for r in range(1, d + 1):
            i_r[r - 1, d - r] = s * nu * (-1.0) ** (r + 1)
            i_l[r - 1, d - r] = s * nu * (-1.0) ** r
    else:
        raise ValueError(f"unknown case {case}")
    return i_i, i_r, i_l


def planted_kn(specs) -> np.ndarray:
    """Block-diagonal K_N = [[O_I, O_R], [O_L, -O_I^T]] for (case, lam, rank, sigma) specs."""
    blocks = [planted_block(c, complex(lam), d, s) for c, lam, d, s in specs]
    n = sum(b[0].shape[0] for b in blocks)
    o_i, o_r, o_l = (np.zeros((n, n)) for _ in range(3))
    at = 0
    for i_i, i_r, i_l in blocks:
        end = at + i_i.shape[0]
        o_i[at:end, at:end] = i_i
        o_r[at:end, at:end] = i_r
        o_l[at:end, at:end] = i_l
        at = end
    return np.block([[o_i, o_r], [o_l, -o_i.T]])


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    """exp(J S) for a random symmetric S with entries of size ``scale``."""
    a = rng.normal(size=(2 * n_modes, 2 * n_modes), scale=scale)
    return expm(symplectic_form(n_modes) @ ((a + a.T) / 2))


def planted_matrix(specs, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Symmetric M whose K = J M is K_N under a random symplectic conjugation."""
    kn = planted_kn(specs)
    n_modes = kn.shape[0] // 2
    n0 = -symplectic_form(n_modes) @ kn
    t0inv = np.linalg.inv(random_symplectic(n_modes, rng, scale))
    m = t0inv.T @ n0 @ t0inv
    return (m + m.T) / 2


# Ranks each case admits, and the largest planted matrix in modes.
CASE_RANKS = {1: (1, 2, 3, 4, 5, 6), 2: (1, 2, 3, 4, 5, 6), 3: (2, 4, 6),
              4: (1, 3, 5), 5: (2, 4, 6), 6: (1, 3, 5)}
FAMILY = {1: (1,), 2: (2,), 3: (3, 4), 4: (3, 4), 5: (5, 6), 6: (5, 6)}
MAX_PLANTED_MODES = 12


def _eigenvalue(case: int, rng: np.random.Generator) -> complex:
    if case == 1:
        return complex(rng.uniform(0.5, 2.5), 0.0)
    if case == 2:
        return complex(rng.uniform(0.4, 1.5), rng.uniform(0.5, 2.0))
    if case in (5, 6):
        return complex(0.0, rng.uniform(0.5, 3.0))
    return 0j


def _sigma(case: int, rng: np.random.Generator):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if case in (3, 5):
        return complex(sign, 0.0)
    if case == 6:
        return complex(0.0, sign)
    return None


def _block(case: int, lam: complex, rng: np.random.Generator, room: int):
    ranks = [d for d in CASE_RANKS[case] if block_modes(case, d) <= room]
    if not ranks:
        return None
    return (case, lam, int(rng.choice(ranks)), _sigma(case, rng))


def planted_spec(rng: np.random.Generator):
    """One or two planted blocks over cases 1-6 at ranks 1-6.

    A second block repeats the first, shares its eigenvalue with another
    rank or sign ("mixed"), or is independent; an independent block of
    the same nonzero family sits at least 0.3 away from the first
    eigenvalue.
    """
    case = int(rng.integers(1, 7))
    first = _block(case, _eigenvalue(case, rng), rng, MAX_PLANTED_MODES)
    specs = [first]
    room = MAX_PLANTED_MODES - block_modes(case, first[2])
    if rng.random() < 0.5:
        kind = rng.integers(3)
        if kind == 0:
            second = first if block_modes(case, first[2]) <= room else None
        elif kind == 1:
            second = _block(int(rng.choice(FAMILY[case])), first[1], rng, room)
        else:
            case2 = int(rng.integers(1, 7))
            lam = _eigenvalue(case2, rng)
            if FAMILY[case2] == FAMILY[case] and case not in (3, 4):
                lam = first[1] + complex(rng.uniform(0.3, 1.0), 0.0) if case == 1 \
                    else first[1] + complex(0.0, rng.uniform(0.3, 1.0))
            second = _block(case2, lam, rng, room)
        if second is not None:
            specs.append(second)
    return specs


@dataclass(frozen=True)
class PlantedInput:
    specs: tuple
    scale: float
    m: np.ndarray


def planted_inputs(rng: np.random.Generator) -> Iterator[PlantedInput]:
    while True:
        specs = tuple(planted_spec(rng))
        scale = float(rng.uniform(0.2, 1.2))
        yield PlantedInput(specs, scale, planted_matrix(specs, rng, scale))


# --- dense random inputs -------------------------------------------------

GENERIC_MODES = 32


def generic_matrix(rng: np.random.Generator, n_modes: int = GENERIC_MODES) -> np.ndarray:
    """Random indefinite symmetric M with N(0,1) entries."""
    a = rng.normal(size=(2 * n_modes, 2 * n_modes))
    return (a + a.T) / 2


def pd_matrix(rng: np.random.Generator, n_modes: int = GENERIC_MODES) -> np.ndarray:
    """Positive-definite M = A A^T / (2N) + 0.1 I: every mode a stable oscillator."""
    a = rng.normal(size=(2 * n_modes, 2 * n_modes))
    return a @ a.T / (2 * n_modes) + 0.1 * np.eye(2 * n_modes)


# --- the independent checks ----------------------------------------------

def spectral_verdict(k: np.ndarray):
    """Verdict implied by eigvals(K), or None near a class boundary.

    Any eigenvalue off the imaginary axis means exponential growth.  On
    the axis, a zero eigenvalue or two colliding eigenvalues may or may
    not be defective, so no verdict follows from the eigenvalues alone.
    """
    ev = np.linalg.eigvals(k)
    delta = BOUNDARY_MARGIN * (1.0 + np.max(np.abs(k)))
    if np.max(np.abs(ev.real)) > delta:
        return "unstable"
    gaps = np.abs(ev[:, None] - ev[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(np.abs(ev)) <= delta or np.min(gaps) <= delta:
        return None
    return "stable"


def symplectic_defect(t: np.ndarray) -> float:
    """max|T J T^T - J| relative to 1 + max|T|^2."""
    j = symplectic_form(t.shape[0] // 2)
    return float(np.max(np.abs(t @ j @ t.T - j)) / (1.0 + np.max(np.abs(t)) ** 2))


def block_eigenvalues(blocks) -> np.ndarray:
    """Every eigenvalue of K_N, with multiplicity, from the reported blocks."""
    out = []
    for b in blocks:
        lam = complex(b.eigenvalue)
        if b.case == 1:
            members = (lam, -lam)
        elif b.case == 2:
            members = (lam, -lam, lam.conjugate(), -lam.conjugate())
        elif b.case in (5, 6):
            members = (lam, lam.conjugate())
        else:
            members = (0j, 0j)  # case 3 spans 2*(D/2) dims, case 4 an f/h pair
        reps = b.rank // 2 if b.case == 3 else b.rank
        out.extend(members * reps)
    return np.array(out)


def spectrum_mismatch(blocks, k: np.ndarray) -> float:
    """Largest distance in an optimal matching of block eigenvalues to eigvals(K)."""
    got = block_eigenvalues(blocks)
    ref = np.linalg.eigvals(k)
    if got.shape != ref.shape:
        return np.inf
    dist = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max() / (1.0 + np.max(np.abs(k))))


def check_generic(m: np.ndarray, report) -> str | None:
    """None when the report is correct, else the reason it is not."""
    k = eom(m)
    if symplectic_defect(report.transform.matrix) > SYMPLECTIC_TOL:
        return "symplectic residual of T over budget"
    if spectrum_mismatch(report.blocks, k) > SIMPLE_EIGEN_TOL:
        return "block eigenvalues differ from eigvals(K)"
    want = spectral_verdict(k)
    if want is not None and report.verdict.value != want:
        return f"verdict {report.verdict.value}, eigvals(K) imply {want}"
    return None


def check_pd(m: np.ndarray, report) -> str | None:
    if report.verdict.value != "stable":
        return f"verdict {report.verdict.value} on a positive-definite M"
    if any(b.case != 6 or b.rank != 1 for b in report.blocks):
        return "a block other than case 6 / rank 1"
    if symplectic_defect(report.transform.matrix) > SYMPLECTIC_TOL:
        return "symplectic residual of T over budget"
    n = report.n_matrix
    n_modes = n.shape[0] // 2
    scale = 1.0 + np.max(np.abs(m))
    diag = np.diag(n)
    if np.max(np.abs(n - np.diag(diag))) > SIMPLE_EIGEN_TOL * scale:
        return "N = T^T M T is not diagonal"
    ev = np.linalg.eigvals(eom(m))
    freqs = np.sort(np.abs(ev.imag))[::2]
    x, p = diag[:n_modes], diag[n_modes:]
    if (np.max(np.abs(x - p)) > SIMPLE_EIGEN_TOL * scale
            or np.max(np.abs(np.sort(x) - freqs)) > SIMPLE_EIGEN_TOL * scale):
        return "diagonal of N differs from the frequencies |Im eig(K)|"
    return None


def _nearest_sigma(sigma):
    if sigma is None:
        return None
    return min((1, -1, 1j, -1j), key=lambda s: abs(complex(sigma) - s))


def _block_key(case, lam, rank, sigma):
    lam = complex(lam)
    return (case, rank, str(_nearest_sigma(sigma)), -abs(lam), -lam.imag)


def check_planted(inp: PlantedInput, report) -> str | None:
    want = sorted((_block_key(*s), complex(s[1])) for s in inp.specs)
    got = sorted((_block_key(b.case, b.eigenvalue, b.rank, b.sigma), complex(b.eigenvalue))
                 for b in report.blocks)
    if [w[0][:3] for w in want] != [g[0][:3] for g in got]:
        return "planted (case, rank, sigma) multiset not recovered"
    for (_, lw), (_, lg) in zip(want, got):
        if abs(lw - lg) > EIGEN_TOL * (1.0 + abs(lw)):
            return f"eigenvalue {lg:.6g} recovered for planted {lw:.6g}"
    return None


# --- the two-mode scan --------------------------------------------------

SCAN_STEPS = 41
SCAN_RANGE = (-2.0, 2.0)


def two_mode(eta: float, lam: float) -> np.ndarray:
    """Oscillators of frequency 1 and eta with position coupling lam."""
    return np.array([[1.0, lam, 0.0, 0.0], [lam, eta, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, eta]])


def scan_reference():
    """Expected verdict of every default grid cell, None near a boundary."""
    axis = np.linspace(*SCAN_RANGE, SCAN_STEPS)
    return [[spectral_verdict(eom(two_mode(e, l))) for l in axis] for e in axis]


def check_scan(reference, grid) -> list[str]:
    """One reason per wrong cell; an empty list when every cell is right."""
    bad = []
    for i, j in itertools.product(range(SCAN_STEPS), repeat=2):
        got, want = grid.verdicts[i][j], reference[i][j]
        if got == "error":
            bad.append(f"cell ({i},{j}) raised {grid.signatures[i][j]}")
        elif want is not None and got != want:
            bad.append(f"cell ({i},{j}) verdict {got}, eigvals(K) imply {want}")
    return bad


def _matrices(make):
    def stream(rng):
        while True:
            yield make(rng)
    return stream


def _scan_cells(rng):
    return itertools.repeat(None)


# Inputs per run: each N = 32 pool takes ~13 s to visit once (~100 ms
# an op), the planted pool ~12 s (~6 ms an op), so a 25-s loop sees
# each input at least once; the scan grid is fixed.
GENERIC_POOL = 128
PLANTED_POOL = 2048


@dataclass(frozen=True)
class Workload:
    """Where a workload's inputs come from and how its results are checked.

    ``check(input, result)`` returns one reason per wrong matrix, and
    ``cells`` is the number of matrices one op analyses.  A run draws
    ``pool`` inputs from its seed, checks each once and times ops over
    them in turn, so the inputs, the number of matrices checked and
    the number that fail depend on the seed alone, not on how many ops
    the run has time for.  On a workload
    that ``must_succeed``, any failure makes the run incorrect.  The
    planted mix carries known failures, loud (a ``QuadnfError``) and
    silent (a wrong structure returned), at Jordan ranks 5 and 6 and for
    complex quadruplets with several chains at large conjugation scale;
    there every failure is counted and none makes the run incorrect.
    """

    name: str
    inputs: Callable[[np.random.Generator], Iterator]
    check: Callable
    pool: int
    cells: int = 1
    must_succeed: bool = True


def _one(check):
    def run(inp, result):
        reason = check(inp, result)
        return [] if reason is None else [reason]
    return run


def make_workload(name: str) -> Workload:
    if name == "generic-n32":
        return Workload(name, _matrices(generic_matrix), _one(check_generic), pool=GENERIC_POOL)
    if name == "pd-n32":
        return Workload(name, _matrices(pd_matrix), _one(check_pd), pool=GENERIC_POOL)
    if name == "planted-defective":
        return Workload(name, planted_inputs, _one(check_planted), pool=PLANTED_POOL,
                        must_succeed=False)
    if name == "scan-2mode":
        reference = scan_reference()
        return Workload(name, _scan_cells, lambda _, grid: check_scan(reference, grid),
                        pool=1, cells=SCAN_STEPS * SCAN_STEPS)
    raise KeyError(name)


WORKLOAD_NAMES = ("generic-n32", "pd-n32", "planted-defective", "scan-2mode")
