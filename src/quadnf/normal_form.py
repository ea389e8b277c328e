"""Assembly of the real canonical transformation and the normal form.

This module alone knows the six chain cases of the construction: 1 real
pair, 2 complex quadruplet, 3/4 zero eigenvalue at even/odd rank, 5/6
imaginary pair at even/odd rank.  ``_attempt_normal_form`` names each
chain's case where it picks the orthonormalization for the chain's
eigenvalue class.  Given the symplectically orthonormalized chains of
K = J M, each case prescribes real column vectors for the transformation
T = (T_+ T_-), in ``build_case_columns``.  The same data determines the
real Jordan normal form K_N = T^{-1} K T block by block.  Each block is
written down once, in ``_block_for_unit``, and blocks take consecutive
modes in report order; the transformed Hamiltonian matrix
N = T^T M T = -J K_N is then read off those blocks as a short list of
elementary quadratic terms (oscillators, free particles, squeezers,
beam splitters), and one table gives each term kind's symbol and N
entries.  This module builds the columns, assembles and verifies T,
generates the expected blocks, emits the term list and decides the
stability verdict.  A Bogoliubov diagonalization is the special case of
an all-case-6, rank-1 spectrum and takes the same construction;
``bogoliubov_transform`` only checks that precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .algebra import (
    orthonormalize_imaginary,
    orthonormalize_real_complex,
    orthonormalize_zero,
    zero_odd_pairing,
)
from .config import DEFAULT, Config, maxnorm
from .core import build_eom, similarity, symplectic_form, symplectic_residual
from .errors import (
    AmbiguousSpectrumError,
    AssemblyError,
    ConstructionError,
    PipelineError,
    SpectrumStructureError,
    VerificationError,
    WrongPathError,
)
from .spectrum import (
    EigenvalueKind,
    SpectrumReport,
    classify_spectrum,
    cluster_eigenvalues,
    extract_class_chains,
)

__all__ = [
    "NormalFormBlock",
    "TermKind",
    "HamiltonianTerm",
    "CanonicalTransform",
    "Verdict",
    "NormalFormReport",
    "build_case_columns",
    "assemble_transform",
    "expected_kn",
    "emit_terms",
    "bogoliubov_transform",
    "normal_form",
]

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class NormalFormBlock:
    """One real Jordan block of K_N: case label, eigenvalue data, and the
    three sub-blocks entering [[I_I, I_R], [I_L, -I_I^T]]."""

    case: int
    eigenvalue: complex
    rank: int
    sigma: complex | None
    i_i: np.ndarray
    i_r: np.ndarray
    i_l: np.ndarray

    @property
    def size(self) -> int:
        return self.i_i.shape[0]

    @property
    def exp_rate(self) -> float:
        return abs(self.eigenvalue.real)

    @property
    def poly_order(self) -> int:
        return self.rank - 1


class TermKind(Enum):
    HARMONIC_OSCILLATOR = "harmonic_oscillator"
    FREE_PARTICLE_X = "free_particle_x"
    FREE_PARTICLE_P = "free_particle_p"
    SINGLE_MODE_SQUEEZE = "single_mode_squeeze"
    BEAM_SPLITTER_XP = "beam_splitter_xp"
    BEAM_SPLITTER_XXPP = "beam_splitter_xxpp"
    SQUEEZE_BEAM_SPLITTER = "squeeze_beam_splitter"
    POSITION_COUPLING = "position_coupling"
    MOMENTUM_COUPLING = "momentum_coupling"


# (quadrature, slot): X or P of the term's modes[slot].
_X0, _X1, _P0, _P1 = (0, 0), (0, 1), (1, 0), (1, 1)

# Each kind's expression, with {0} and {1} its modes, and the entries
# (row, col, weight) it adds to N, as coefficient * weight.
_TERM_TABLE = {
    TermKind.HARMONIC_OSCILLATOR: ("(X{0}^2 + P{0}^2)", ((_X0, _X0, 2), (_P0, _P0, 2))),
    TermKind.FREE_PARTICLE_X: ("X{0}^2", ((_X0, _X0, 2),)),
    TermKind.FREE_PARTICLE_P: ("P{0}^2", ((_P0, _P0, 2),)),
    TermKind.SINGLE_MODE_SQUEEZE: ("X{0}*P{0}", ((_X0, _P0, 1), (_P0, _X0, 1))),
    TermKind.BEAM_SPLITTER_XP: ("(X{0}*P{1} - X{1}*P{0})",
                                ((_X0, _P1, 1), (_P1, _X0, 1), (_X1, _P0, -1), (_P0, _X1, -1))),
    TermKind.BEAM_SPLITTER_XXPP: ("(X{0}*X{1} + P{0}*P{1})",
                                  ((_X0, _X1, 1), (_X1, _X0, 1), (_P0, _P1, 1), (_P1, _P0, 1))),
    TermKind.SQUEEZE_BEAM_SPLITTER: ("X{0}*P{1}", ((_X0, _P1, 1), (_P1, _X0, 1))),
    TermKind.POSITION_COUPLING: ("X{0}*X{1}", ((_X0, _X1, 1), (_X1, _X0, 1))),
    TermKind.MOMENTUM_COUPLING: ("P{0}*P{1}", ((_P0, _P1, 1), (_P1, _P0, 1))),
}


@dataclass(frozen=True)
class HamiltonianTerm:
    """One elementary term of the normal-form Hamiltonian.

    ``modes`` are 1-based normal-mode indices; the coefficient is the
    full prefactor of the quadratic expression named by ``kind``.
    """

    kind: TermKind
    coefficient: float
    modes: tuple[int, ...]

    def symbol(self) -> str:
        c = self.coefficient
        prefix = f"{c:g}*" if c != 1 else ""
        return prefix + _TERM_TABLE[self.kind][0].format(*self.modes)


@dataclass(frozen=True)
class CanonicalTransform:
    """Real symplectic transformation T = (T_+ T_-); block i of the report
    owns the next ``blocks[i].size`` modes, i.e. columns of T_+ and T_-."""

    matrix: np.ndarray


class Verdict(Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class NormalFormReport:
    """Everything the pipeline knows about one Hamiltonian matrix."""

    n_modes: int
    spectrum: SpectrumReport
    transform: CanonicalTransform
    k_normal: np.ndarray
    n_matrix: np.ndarray
    blocks: tuple[NormalFormBlock, ...]
    terms: tuple[HamiltonianTerm, ...]
    verdict: Verdict
    reasons: tuple[str, ...]
    zero_frequency_modes: int
    residuals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Unit:
    """One chain's contribution: its columns, block, and ordering key."""

    case: int
    eigenvalue: complex
    rank: int
    sigma: complex | None
    t_cols: list
    s_cols: list


def _real_columns(cols, k, cfg: Config):
    out = []
    for c in cols:
        c = np.asarray(c)
        if np.iscomplexobj(c):
            imag = maxnorm(c.imag)
            if imag > cfg.tol(1.0 + maxnorm(k)) * (1.0 + maxnorm(c)):
                raise ConstructionError(
                    f"transformation column has imaginary residual {imag:.3e}"
                )
            c = c.real
        out.append(np.asarray(c, dtype=float))
    return out


def build_case_columns(case: int, k, data, cfg: Config = DEFAULT) -> _Unit:
    """Columns of T for one orthonormalized chain (or f/h pair).

    ``data`` is (chain, partner) for cases 1 and 2 (e and the chain e~ of
    -lam) and for case 4 (f and h), and (chain, sigma) for cases 3, 5 and
    6.  With z_k = A^(k-1) e for the chain's generator e, cases 1, 2 and
    4 pair z_k with w_k = (-1)^(D-k) e~_k, where e~_k is the partner's
    vector at chain position k; case 5 with w_k = sigma (-1)^k conj(z_(D+1-k)).
    Two rules are shared: cases 1 and 4 take (z | w) as they are, and
    cases 2 and 5 interleave sqrt2 (Re, Im) of z_k with sqrt2 (Re, -Im)
    of w_k, by the parity of k; case 2 applies that to each z_k and w_k
    twice, taking both parts of every vector.  Output columns are
    validated to be real.
    """
    k = np.asarray(k, dtype=float)
    chain, other = data
    lam, d = chain.eigenvalue, chain.rank
    z = list(reversed(chain.vectors))
    sigma = None if case in (1, 2, 4) else other
    if case in (1, 2, 4):
        w = [(-1.0) ** (d - kk) * other.vectors[kk - 1] for kk in range(1, d + 1)]
    elif case == 5:
        w = [sigma * (-1.0) ** kk * np.conj(z[d - kk]) for kk in range(1, d + 1)]
    if case in (1, 4):
        t_cols, s_cols = z, w
    elif case in (2, 5):
        if case == 2:
            z, w = [v for v in z for _ in range(2)], [v for v in w for _ in range(2)]
        t_cols = [SQRT2 * (np.imag(v) if i % 2 else np.real(v)) for i, v in enumerate(z)]
        s_cols = [-SQRT2 * np.imag(v) if i % 2 else SQRT2 * np.real(v) for i, v in enumerate(w)]
    elif case == 3:
        s = float(np.real(sigma))
        t_cols = [s ** (kk - 1) * z[kk - 1] for kk in range(1, d // 2 + 1)]
        s_cols = [(-s) ** (d - kk) * chain.vectors[kk - 1] for kk in range(1, d // 2 + 1)]
    elif case == 6:
        eps = float(np.real(-1j * sigma))
        t_cols = [SQRT2 * np.real(v) for v in z]
        s_cols = [eps * (-1.0) ** kk * SQRT2 * np.imag(z[d - kk]) for kk in range(1, d + 1)]
    else:
        raise ValueError(f"unknown case {case}")
    return _Unit(
        case=case,
        eigenvalue=complex(lam),
        rank=d,
        sigma=None if sigma is None else complex(sigma),
        t_cols=_real_columns(t_cols, k, cfg),
        s_cols=_real_columns(s_cols, k, cfg),
    )


def _unit_sort_key(unit: _Unit):
    lam = unit.eigenvalue
    sigma = unit.sigma if unit.sigma is not None else 0j
    return (unit.case, -abs(lam), -lam.imag, -unit.rank, -sigma.real, -sigma.imag)


def _block_for_unit(unit: _Unit) -> NormalFormBlock:
    c, lam, d, sigma = unit.case, unit.eigenvalue, unit.rank, unit.sigma
    nu = lam.imag
    if c in (1, 4):  # lam = 0 in case 4, and 0.0 * I + E = E to the bit
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
                col = d + 2 - r
                i_r[r - 1, col - 1] = s if r % 2 == 0 else -s
            if r <= d - 1:
                col = d - r
                i_l[r - 1, col - 1] = s if r % 2 == 0 else -s
    else:
        s6 = float(np.real(1j * sigma))
        i_i = np.eye(d, k=-1)
        i_r = np.zeros((d, d))
        i_l = np.zeros((d, d))
        for r in range(1, d + 1):
            i_r[r - 1, d - r] = s6 * nu * (-1.0) ** (r + 1)
            i_l[r - 1, d - r] = s6 * nu * (-1.0) ** r
    return NormalFormBlock(
        case=c, eigenvalue=lam, rank=d, sigma=sigma, i_i=i_i, i_r=i_r, i_l=i_l
    )


def expected_kn(blocks, n_modes: int) -> np.ndarray:
    """Assemble the full expected K_N = [[O_I, O_R], [O_L, -O_I^T]]."""
    covered = sum(b.size for b in blocks)
    if covered != n_modes:
        raise AssemblyError(f"blocks cover {covered} modes, expected {n_modes}")
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


def assemble_transform(units, n_modes: int, cfg: Config = DEFAULT, *,
                       _residuals: dict | None = None) -> CanonicalTransform:
    """Stack unit columns into T = (T_+ T_-) and check the symplectic condition.

    Units must already be in final mode order.  On failure, the raised
    ``AssemblyError`` carries the offending Gram residual matrix.  On
    success, ``_residuals["symplectic"]`` receives the residual checked.
    """
    t_cols = [c for u in units for c in u.t_cols]
    s_cols = [c for u in units for c in u.s_cols]
    if len(t_cols) != n_modes:
        raise AssemblyError(f"column groups cover {len(t_cols)} modes, expected {n_modes}")
    t = np.column_stack(t_cols + s_cols)
    res = symplectic_residual(t)
    scale = 1.0 + maxnorm(t) ** 2
    if res > cfg.tol(scale) * scale * 100:
        j = symplectic_form(n_modes)
        raise AssemblyError(
            f"assembled transformation is not symplectic: residual {res:.3e}",
            gram_residual=t @ j @ t.T - j,
        )
    if _residuals is not None:
        _residuals["symplectic"] = res
    return CanonicalTransform(matrix=t)


def _piece(entry, modes, a, b, single, pair) -> HamiltonianTerm:
    """The term of a symmetric N entry at (a, b): ``single`` at entry / 2 on
    the diagonal, ``pair`` at the full entry (counting (b, a) too) off it."""
    if a == b:
        return HamiltonianTerm(single, entry / 2, (modes[a],))
    return HamiltonianTerm(pair, entry, (modes[a], modes[b]))


def emit_terms(blocks) -> tuple[tuple[HamiltonianTerm, ...], int]:
    """Elementary Hamiltonian terms of N = -J K_N, plus the count of
    zero-frequency modes (those of blocks whose N is zero: case 4, rank 1).
    The blocks take consecutive 1-based modes, as many as each one's size.

    Each block's terms are read off its own N sub-blocks N_xx = -I_L,
    N_xp = I_I^T and N_pp = I_R, in this order, each part row-major:
    squeezers from the N_xp diagonal; XP beam splitters, (a, b) with
    a > b, from pairs N_xp[a, b] = -N_xp[b, a]; oscillators and XXPP beam
    splitters where N_xx[a, b] = N_pp[a, b], a <= b; squeeze beam
    splitters from the rest of N_xp; then, row by row, the N_pp and then
    the N_xx pieces (b >= a) where the two differ.
    """
    terms: list[HamiltonianTerm] = []
    zero_modes = 0
    offset = 0
    for block in blocks:
        modes = range(offset + 1, offset + block.size + 1)
        offset += block.size
        n_xp, n_pp, i_l = block.i_i.T.tolist(), block.i_r.tolist(), block.i_l.tolist()
        idx = range(len(modes))
        squeezes, rotations, matched, couplings, leftovers = [], [], [], [], []
        for a in idx:
            for b in idx:
                e = n_xp[a][b]
                if not e:
                    continue
                if a == b:
                    squeezes.append(HamiltonianTerm(TermKind.SINGLE_MODE_SQUEEZE, e, (modes[a],)))
                elif e != -n_xp[b][a]:
                    couplings.append(HamiltonianTerm(TermKind.SQUEEZE_BEAM_SPLITTER, e,
                                                     (modes[a], modes[b])))
                elif a > b:
                    rotations.append(HamiltonianTerm(TermKind.BEAM_SPLITTER_XP, e,
                                                     (modes[a], modes[b])))
            for b in idx[a:]:
                p = n_pp[a][b]
                if p and p == -i_l[a][b]:
                    matched.append(_piece(p, modes, a, b, TermKind.HARMONIC_OSCILLATOR,
                                          TermKind.BEAM_SPLITTER_XXPP))
                elif p:
                    leftovers.append(_piece(p, modes, a, b, TermKind.FREE_PARTICLE_P,
                                            TermKind.MOMENTUM_COUPLING))
            for b in idx[a:]:
                x = -i_l[a][b]
                if x and x != n_pp[a][b]:
                    leftovers.append(_piece(x, modes, a, b, TermKind.FREE_PARTICLE_X,
                                            TermKind.POSITION_COUPLING))
        before = len(terms)
        for part in (squeezes, rotations, matched, couplings, leftovers):
            terms += part
        if len(terms) == before:
            zero_modes += len(modes)
    return tuple(terms), zero_modes


def terms_matrix(terms, n_modes: int) -> np.ndarray:
    """Rebuild the Hamiltonian matrix (1/2) rho^T N rho from a term list.

    Inverse of ``emit_terms`` up to the zero-frequency modes (which
    contribute nothing); useful as a consistency check against -J K_N.
    """
    n = np.zeros((2 * n_modes, 2 * n_modes))
    for t in terms:
        for (qr, sr), (qc, sc), weight in _TERM_TABLE[t.kind][1]:
            row, col = qr * n_modes + t.modes[sr] - 1, qc * n_modes + t.modes[sc] - 1
            n[row, col] += weight * t.coefficient
    return n


def _format_value(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


def _format_eigenvalue(lam: complex) -> str:
    re, im = lam.real, lam.imag
    if im == 0:
        return _format_value(re)
    if re == 0:
        return f"{_format_value(im)}i"
    return f"{_format_value(re)}{'+' if im >= 0 else '-'}{_format_value(abs(im))}i"


def _verdict(blocks) -> tuple[Verdict, tuple[str, ...]]:
    reasons = []
    stable = True
    zero_modes = False
    for b in blocks:
        if b.case == 6 and b.rank == 1:
            continue
        stable = False
        if b.case == 4 and b.rank == 1:
            zero_modes = True
            continue
        lam = _format_eigenvalue(b.eigenvalue)
        if b.case in (1, 2):
            msg = f"case {b.case} block at {lam}: exponential growth rate {b.exp_rate:.6g}"
            if b.rank > 1:
                msg += f", polynomial order {b.poly_order}"
        else:
            msg = f"case {b.case} block at {lam}: polynomial growth order {b.poly_order}"
        reasons.append(msg)
    if stable:
        return Verdict.STABLE, ()
    if not reasons and zero_modes:
        return Verdict.MARGINAL, ("zero-frequency modes present (bounded, non-oscillatory)",)
    if zero_modes:
        reasons.append("zero-frequency modes present")
    return Verdict.UNSTABLE, tuple(reasons)


def _finish_report(m, k, spectrum, units, cfg: Config) -> NormalFormReport:
    n_modes = k.shape[0] // 2
    units = sorted(units, key=_unit_sort_key)
    residuals: dict = {}
    transform = assemble_transform(units, n_modes, cfg, _residuals=residuals)
    blocks = tuple(_block_for_unit(u) for u in units)
    kn_expected = expected_kn(blocks, n_modes)
    t = transform.matrix
    cond = float(np.linalg.cond(t))
    kn_actual = similarity(k, t, cfg, _cond=cond)
    block_residual = maxnorm(kn_actual - kn_expected)
    budget = cfg.verify_tol * (1.0 + maxnorm(k)) * max(1.0, cond)
    if block_residual > budget:
        raise VerificationError(
            f"normal form mismatch: |T^-1 K T - expected| = {block_residual:.3e} "
            f"exceeds {budget:.3e}",
            residual=kn_actual - kn_expected,
        )
    n_matrix = t.T @ m @ t
    n_matrix = (n_matrix + n_matrix.T) / 2.0
    terms, zero_modes = emit_terms(blocks)
    verdict, reasons = _verdict(blocks)
    n_expected = np.vstack([-kn_expected[n_modes:], kn_expected[:n_modes]])  # -J K_N, exactly
    residuals.update(
        block_match=block_residual,
        n_reconstruction=maxnorm(n_matrix - n_expected),
        condition=cond,
    )
    return NormalFormReport(
        n_modes=n_modes,
        spectrum=spectrum,
        transform=transform,
        k_normal=kn_actual,
        n_matrix=n_matrix,
        blocks=blocks,
        terms=terms,
        verdict=verdict,
        reasons=reasons,
        zero_frequency_modes=zero_modes,
        residuals=residuals,
    )


def bogoliubov_transform(m, cfg: Config = DEFAULT) -> NormalFormReport:
    """Normal form of M, required to be a Bogoliubov diagonalization.

    Under this precondition (K diagonalizable with purely imaginary
    spectrum) the Hamiltonian is a sum of independent harmonic
    oscillators: N = T^T M T is diagonal with paired entries (the K_N it
    induces is in real Jordan form, not diagonal).  Returns
    ``normal_form(m, cfg)``, checked afterwards on its own spectrum:
    ``WrongPathError`` when any other eigenvalue family is present or
    any eigenvalue is defective.
    """
    report = normal_form(m, cfg)
    if not all(c.kind is EigenvalueKind.IMAGINARY_PAIR and c.geometric == c.algebraic
               for c in report.spectrum.classes):
        raise WrongPathError(
            "spectrum is not diagonalizable-imaginary; use normal_form"
        )
    return report


def _attempt_normal_form(m, k, clusters, eigenvalues, vectors, cfg: Config) -> NormalFormReport:
    shifts: dict = {}  # representative -> eig(K) columns or the one SVD of K - lam I
    spectrum = classify_spectrum(k, clusters, cfg, _eigenvalues=eigenvalues,
                                 _eigenvectors=vectors, _shifts=shifts)
    units: list[_Unit] = []
    for cls in spectrum.classes:
        chains = extract_class_chains(k, cls, cfg, _level1=shifts[cls.representative])
        kind = cls.kind
        if kind in (EigenvalueKind.REAL_PAIR, EigenvalueKind.COMPLEX_QUADRUPLET):
            case = 1 if kind is EigenvalueKind.REAL_PAIR else 2
            pairs = orthonormalize_real_complex(
                k, cls.representative, chains.chains, chains.partners, cfg
            )
            units.extend(build_case_columns(case, k, pair, cfg) for pair in pairs)
        elif kind is EigenvalueKind.ZERO:  # even ranks are case 3, odd ranks pair up as case 4
            case3, case4 = orthonormalize_zero(k, chains.chains, cfg)
            units.extend(build_case_columns(3, k, item, cfg) for item in case3)
            units.extend(
                build_case_columns(4, k, pair, cfg)
                for pair in zero_odd_pairing(k, case4, cfg)
            )
        else:
            units.extend(
                build_case_columns(5 + chain.rank % 2, k, (chain, sigma), cfg)
                for chain, sigma in orthonormalize_imaginary(k, cls.representative, chains.chains, cfg)
            )
    return _finish_report(m, k, spectrum, units, cfg)


def normal_form(m, cfg: Config = DEFAULT) -> NormalFormReport:
    """Full pipeline: spectrum, chains, orthonormalization, T, blocks, verdict.

    Every spectrum takes the same construction; a stable one (purely
    imaginary and diagonalizable) comes out as case-6 blocks of rank 1,
    the Bogoliubov diagonalization.

    A defective eigenvalue of rank D splits under round-off like
    eps^(1/D), which no fixed clustering radius can absorb for every D,
    so this function escalates, and nothing below it retries.  With
    t_0 = ``clustering_tol`` and t_(j+1) = 10 t_j, attempt i (i = 0..4)
    takes the clusters of the first radius among t_i .. t_(i+4) at which
    ``cluster_eigenvalues`` pairs the spectrum up, and runs the rest of
    the pipeline with ``rank_tol`` raised to t_i; the first attempt that
    succeeds wins.  An attempt with no such radius is skipped.  Each
    radius is clustered at most once, so a call makes at most 9
    clustering passes, the widest at t_8 = 10^8 ``clustering_tol`` (1 +
    max|K|), i.e. 10 (1 + max|K|) at the default tolerance.  Clean
    spectra cluster once, at t_0.  After the fifth attempt the last
    error is raised.
    """
    m = np.asarray(m, dtype=float)
    k = build_eom(m, cfg)
    eigenvalues, vectors = np.linalg.eig(k)
    radii = [cfg.clustering_tol]
    for _ in range(8):
        radii.append(radii[-1] * 10.0)
    clustered: dict = {}  # level -> clusters at radii[level], None if they do not pair up
    last: Exception | None = None
    try:
        for i in range(5):
            for level in range(i, i + 5):
                if level not in clustered:
                    try:
                        clustered[level] = cluster_eigenvalues(k, cfg, tol=radii[level],
                                                               _eigenvalues=eigenvalues)
                    except (SpectrumStructureError, AmbiguousSpectrumError) as exc:
                        clustered[level], last = None, exc
                if clustered[level] is not None:
                    break
            else:
                continue  # no radius pairs up; last is the error at radii[i + 4], new this attempt
            try:
                return _attempt_normal_form(m, k, clustered[level], eigenvalues, vectors,
                                            replace(cfg, rank_tol=max(cfg.rank_tol, radii[i])))
            except (PipelineError, VerificationError) as exc:
                last = exc
        raise last
    finally:
        last = None  # its traceback holds this frame: drop the cycle on every exit
