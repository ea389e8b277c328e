"""Assembly of the real canonical transformation and the normal form.

This module alone knows the six chain cases of the construction: 1 real
pair, 2 complex quadruplet, 3/4 zero eigenvalue at even/odd rank, 5/6
imaginary pair at even/odd rank.  ``_attempt_normal_form`` takes every
eigenvalue class's chains from ``spectrum.extract_class_chains``, simple
classes included, names each chain's case where it picks the
orthonormalization for the chain's eigenvalue class, and collects the
chains of each case and rank into a group.  Given the symplectically
orthonormalized chains of K = J M, each case prescribes real column
vectors for the transformation T = (T_+ T_-); ``build_case_columns``
writes them for a whole group at once, with array operations over a
chain axis (``_case_columns``).  The same data determines the real Jordan
normal form K_N = T^{-1} K T block by block; each block is written down
once, in ``_block``.  Blocks take consecutive modes in report order, into
which ``assemble_transform`` gathers T once; the transformed Hamiltonian matrix
N = T^T M T = -J K_N is then read off those blocks as a short list of
elementary quadratic terms (oscillators, free particles, squeezers,
beam splitters), and one table gives each term kind's symbol and N
entries.  This module builds the columns, assembles and verifies T,
generates the expected blocks, emits the term list and decides the
stability verdict.  A Bogoliubov diagonalization is the special case of
an all-case-6, rank-1 spectrum, whose verdict is STABLE.

``_stack_normal_forms`` runs ``normal_form`` over a stack of same-size
matrices, as the two-mode scan does.  A member whose classes are all
simple is built at array level with every other such member: one stacked
eig(K), and the chains of cases 1, 2 and 6 normalized, written, ordered
and checked over one flat chain axis by the same functions that
``normal_form`` uses on one matrix, generalized to a leading axis.  Any
other member takes ``normal_form`` itself, so every member's report or
error is the one ``normal_form`` gives it alone.  A single matrix keeps
the per-matrix path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .algebra import (
    _simple_pair,
    _simple_pairing,
    _simple_self_dual,
    _simple_self_pairing,
    orthonormalize_imaginary,
    orthonormalize_real_complex,
    orthonormalize_zero,
    zero_odd_pairing,
)
from .config import DEFAULT, Config, maxnorm
from .core import (
    _eom,
    _hamiltonian_defects,
    _ill_conditioned,
    build_eom,
    similarity,
    symplectic_form,
    symplectic_residual,
)
from .errors import (
    AmbiguousSpectrumError,
    AssemblyError,
    PipelineError,
    QuadnfError,
    SpectrumStructureError,
    VerificationError,
)
from .spectrum import (
    CLUSTERING_TOL,
    EigenvalueKind,
    SpectrumReport,
    _stack_simple_classes,
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
    "normal_form",
]

SQRT2 = np.sqrt(2.0)

# Relative tolerance for the final block-structure verification; a
# structural tolerance above it widens the budget, as a matrix that is only
# symmetric to that tolerance cannot match its ideal block structure any
# better.
VERIFY_TOL = 1e-7


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
        return self.i_i.shape[-1]

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


class _Group(NamedTuple):
    """The orthonormalized chains of one case and rank: ``t_plus[c, j]``
    (``t_minus[c, j]``) is column j of chain c in T_+ (T_-)."""

    case: int
    rank: int
    eigenvalues: list
    sigmas: list
    t_plus: np.ndarray
    t_minus: np.ndarray


def build_case_columns(case: int, items) -> _Group:
    """Columns of T for the orthonormalized chains (or f/h pairs) of one case
    and rank.

    Each item is (chain, partner) for cases 1 and 2 (e and the chain e~ of
    -lam) and for case 4 (f and h), and (chain, sigma) for cases 3, 5 and
    6; ``_case_columns`` writes the columns of all of them at once.
    """
    chains = [chain for chain, _ in items]
    paired = case in (1, 2, 4)
    sigmas = [None] * len(items) if paired else [complex(sigma) for _, sigma in items]
    t_plus, t_minus = _case_columns(
        case, np.array([chain.vectors for chain in chains]),
        np.array([other.vectors for _, other in items]) if paired else None,
        None if paired else np.array(sigmas))
    return _Group(case, chains[0].rank, [complex(chain.eigenvalue) for chain in chains], sigmas,
                  t_plus, t_minus)


def _case_columns(case: int, v: np.ndarray, other: np.ndarray | None, sigmas: np.ndarray | None):
    """The T_+ and T_- columns, each indexed (chain, column, row), of chains of
    one case and rank over a leading chain axis.

    ``v[c, j]`` is A^(D-1-j) e = z_(D-j) for chain c's generator e, and
    ``other`` holds the partner chains' vectors alike (cases 1, 2 and 4),
    ``sigmas`` the chains' sigmas (cases 3, 5 and 6).  With z_k = A^(k-1) e,
    cases 1, 2 and 4 pair z_k with w_k = (-1)^(D-k) e~_k, where e~_k is the
    partner's vector at chain position k; case 5 with
    w_k = sigma (-1)^k conj(z_(D+1-k)).  Two rules are shared: cases 1 and
    4 take (z | w) as they are, and cases 2 and 5 interleave sqrt2 (Re, Im)
    of z_k with sqrt2 (Re, -Im) of w_k, by the parity of k; case 2 applies
    that to each z_k and w_k twice, taking both parts of every vector.
    Each rule takes the scalar products of the chain-by-chain formulas.

    Every column is real.  The one complex input is case 1's partner:
    ``orthonormalize_real_complex`` divides it by alpha, a complex with a
    zero imaginary part, and every later step multiplies and adds exact
    zeros there, so its real part is taken.
    """
    d = v.shape[1]
    z = v[:, ::-1]  # z[c, k - 1] = z_k
    sign = (-1.0) ** np.arange(1, d + 1)  # (-1)^k
    if case in (1, 2, 4):
        w = ((-1.0) ** (d - np.arange(1, d + 1)))[:, None] * other
    if case in (1, 4):
        t_plus, t_minus = z.real, w.real
    elif case == 2:  # both parts of every z_k and w_k
        t_plus = (SQRT2 * np.stack([z.real, z.imag], axis=2)).reshape(len(v), 2 * d, -1)
        t_minus = np.stack([SQRT2 * w.real, -SQRT2 * w.imag], axis=2).reshape(len(v), 2 * d, -1)
    elif case == 5:  # Re at odd k, Im at even k
        w = (sigmas[:, None] * sign)[:, :, None] * v.conj()
        odd = sign[:, None] < 0
        t_plus = SQRT2 * np.where(odd, z.real, z.imag)
        t_minus = np.where(odd, SQRT2 * w.real, -SQRT2 * w.imag)
    elif case == 3:  # the first D/2 positions k
        s = sigmas.real[:, None]
        t_plus = ((s ** np.arange(d // 2))[:, :, None] * z[:, :d // 2]).real
        t_minus = (((-s) ** (d - np.arange(1, d // 2 + 1)))[:, :, None] * v[:, :d // 2]).real
    elif case == 6:
        t_plus = SQRT2 * z.real
        t_minus = ((-1j * sigmas).real[:, None] * sign * SQRT2)[:, :, None] * v.imag
    else:
        raise ValueError(f"unknown case {case}")
    return t_plus, t_minus


def _block(c: int, lam, d: int, sigma) -> NormalFormBlock:
    """The real Jordan block of one chain of case c and rank d.

    Given arrays of eigenvalues and sigmas (None for cases 1, 2 and 4), it
    writes the blocks of chains of one case and rank stacked over those
    arrays' axes, as one ``NormalFormBlock`` whose fields are arrays;
    ``_member_block`` takes one chain's block out of it.
    """
    lead, re, nu = getattr(lam, "shape", ()), lam.real, lam.imag
    size = 2 * d if c == 2 else d // 2 if c == 3 else d
    i_r, i_l = np.zeros(lead + (size, size)), np.zeros(lead + (size, size))
    if c in (1, 4):  # lam = 0 in case 4, and 0.0 * I + E = E to the bit
        i_i = np.multiply.outer(re, np.eye(d)) + np.eye(d, k=-1)
    elif c == 2:
        i_i = np.zeros(lead + (size, size))
        for b in range(0, size, 2):  # rotation blocks [[re, nu], [-nu, re]], I below each
            i_i[..., b, b], i_i[..., b, b + 1], i_i[..., b + 1, b], i_i[..., b + 1, b + 1] = (
                re, nu, -nu, re)
            if b + 2 < size:
                i_i[..., b + 2: b + 4, b: b + 2] = np.eye(2)
    elif c == 3:
        s = sigma.real
        i_i = np.multiply.outer(s, np.eye(size, k=-1))
        i_l[..., size - 1, size - 1] = s * (-1.0) ** (d // 2)
    elif c == 5:
        s = sigma.real
        i_i = np.zeros(lead + (d, d))
        for r in range(1, d + 1):
            i_r[..., r - 1, d - r] = s * nu
            i_l[..., r - 1, d - r] = -s * nu
            if 2 <= r:
                col = d + 2 - r
                i_r[..., r - 1, col - 1] = s if r % 2 == 0 else -s
            if r <= d - 1:
                col = d - r
                i_l[..., r - 1, col - 1] = s if r % 2 == 0 else -s
    else:
        s6 = (1j * sigma).real
        i_i = i_r + np.eye(d, k=-1)
        for r in range(1, d + 1):
            i_r[..., r - 1, d - r] = s6 * nu * (-1.0) ** (r + 1)
            i_l[..., r - 1, d - r] = s6 * nu * (-1.0) ** r
    return NormalFormBlock(
        case=c, eigenvalue=lam, rank=d, sigma=sigma, i_i=i_i, i_r=i_r, i_l=i_l
    )


def _member_block(block: NormalFormBlock, g: int) -> NormalFormBlock:
    """Chain g's block of blocks ``_block`` wrote stacked over a chain axis."""
    sigma = None if block.sigma is None else complex(block.sigma[g])
    return NormalFormBlock(block.case, complex(block.eigenvalue[g]), block.rank, sigma,
                           block.i_i[g], block.i_r[g], block.i_l[g])


def expected_kn(blocks, n_modes: int) -> np.ndarray:
    """Assemble the full expected K_N = [[O_I, O_R], [O_L, -O_I^T]]; of each
    member of a stack, for blocks that ``_block`` wrote stacked over it."""
    covered = sum(b.size for b in blocks)
    if covered != n_modes:
        raise AssemblyError(f"blocks cover {covered} modes, expected {n_modes}")
    n = n_modes
    kn = np.zeros(blocks[0].i_i.shape[:-2] + (2 * n, 2 * n))
    offset = 0
    for b in blocks:
        end = offset + b.size
        kn[..., offset:end, offset:end] = b.i_i
        kn[..., offset:end, n + offset:n + end] = b.i_r
        kn[..., n + offset:n + end, offset:end] = b.i_l
        offset = end
    kn[..., n:, n:] = -kn[..., :n, :n].swapaxes(-1, -2)
    return kn


def assemble_transform(groups, order, n_modes: int,
                       cfg: Config = DEFAULT) -> tuple[CanonicalTransform, float]:
    """Gather T = (T_+ T_-) from the groups' columns and check the symplectic condition.

    ``order`` lists the chains, numbered through the groups in turn, in
    mode order.  On failure, the raised ``AssemblyError`` carries the
    offending Gram residual matrix.  On success, returns T with the
    symplectic residual checked.
    """
    plus = [cols for g in groups for cols in g.t_plus]
    minus = [cols for g in groups for cols in g.t_minus]
    t = np.concatenate([plus[c] for c in order] + [minus[c] for c in order])
    if len(t) != 2 * n_modes:
        raise AssemblyError(f"column groups cover {len(t) // 2} modes, expected {n_modes}")
    t = np.ascontiguousarray(t.T)
    res = symplectic_residual(t)
    if _not_symplectic(t, res, cfg):
        j = symplectic_form(n_modes)
        raise AssemblyError(
            f"assembled transformation is not symplectic: residual {res:.3e}",
            gram_residual=t @ j @ t.T - j,
        )
    return CanonicalTransform(matrix=t), res


def _not_symplectic(t: np.ndarray, res, cfg: Config):
    """Whether T's symplectic residual ``res`` exceeds what assembly accepts, of T
    or of each matrix of a stack."""
    scale = 1.0 + maxnorm(t, (-2, -1)) ** 2
    return res > cfg.tol(scale) * scale * 100


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


def _mode_key(case, lam, rank, sigma):
    """The sort key of a chain in mode order, of one chain or over a chain axis:
    case, then -|lam|, -Im lam, -rank, -Re sigma and -Im sigma (0 for no sigma)."""
    return (case, -np.hypot(lam.real, lam.imag), -lam.imag, -rank, -sigma.real, -sigma.imag)


def _block_match(k, kn_actual, kn_expected, cond, cfg: Config):
    """|T^-1 K T - K_N| and the budget it must not exceed, of one matrix or of
    each of a stack: max(``VERIFY_TOL``, tolerance) (1 + max|K|) max(1, cond T)."""
    residual = maxnorm(kn_actual - kn_expected, (-2, -1))
    budget = max(VERIFY_TOL, cfg.tolerance) * (1.0 + maxnorm(k, (-2, -1))) * np.maximum(1.0, cond)
    return residual, budget


def _n_matrix(m, t, kn_expected):
    """N = T^T M T, symmetrized, and its distance to -J K_N, of one matrix or of
    each of a stack."""
    n_matrix = t.swapaxes(-1, -2) @ m @ t
    n_matrix = (n_matrix + n_matrix.swapaxes(-1, -2)) / 2.0
    n_expected = -_eom(kn_expected)  # -J K_N, exactly
    return n_matrix, maxnorm(n_matrix - n_expected, (-2, -1))


def _report(spectrum, transform, kn_actual, n_matrix, blocks, residuals) -> NormalFormReport:
    """The report of checked results; ``residuals`` are symplectic, block_match,
    n_reconstruction and condition, in this order."""
    terms, zero_modes = emit_terms(blocks)
    verdict, reasons = _verdict(blocks)
    return NormalFormReport(
        n_modes=spectrum.n_modes,
        spectrum=spectrum,
        transform=transform,
        k_normal=kn_actual,
        n_matrix=n_matrix,
        blocks=blocks,
        terms=terms,
        verdict=verdict,
        reasons=reasons,
        zero_frequency_modes=zero_modes,
        residuals=dict(zip(("symplectic", "block_match", "n_reconstruction", "condition"),
                           residuals)),
    )


def _finish_report(m, k, spectrum, groups, cfg: Config) -> NormalFormReport:
    n_modes = k.shape[0] // 2
    chains = [(g.case, lam, g.rank, sigma)
              for g in groups for lam, sigma in zip(g.eigenvalues, g.sigmas)]
    keys = _mode_key(*(np.array(column) for column in zip(*(
        (c, lam, d, sigma or 0j) for c, lam, d, sigma in chains))))
    order = np.lexsort(keys[::-1]).tolist()  # mode order; ties only within a group
    transform, symplectic = assemble_transform(groups, order, n_modes, cfg)
    blocks = tuple(_block(*chains[c]) for c in order)
    kn_expected = expected_kn(blocks, n_modes)
    t = transform.matrix
    cond = float(np.linalg.cond(t))
    kn_actual = similarity(k, t, _cond=cond)
    block_residual, budget = _block_match(k, kn_actual, kn_expected, cond, cfg)
    if block_residual > budget:
        raise VerificationError(
            f"normal form mismatch: |T^-1 K T - expected| = {block_residual:.3e} "
            f"exceeds {budget:.3e}",
            residual=kn_actual - kn_expected,
        )
    n_matrix, n_residual = _n_matrix(m, t, kn_expected)
    return _report(spectrum, transform, kn_actual, n_matrix, blocks,
                   (symplectic, block_residual, n_residual, cond))


def _attempt_normal_form(m, k, classes, eigenvalues, vectors, cfg: Config) -> NormalFormReport:
    shifts: dict = {}  # representative -> what classify_spectrum found for its class's chains
    spectrum = classify_spectrum(k, classes, _eigenvalues=eigenvalues,
                                 _eigenvectors=vectors, _shifts=shifts)
    by_group: dict = {}  # (case, rank) -> the chains' column data, in the order found

    def add(case, items):
        for item in items:
            by_group.setdefault((case, item[0].rank), []).append(item)

    for cls in spectrum.classes:
        lam, kind = cls.representative, cls.kind
        chains, partners = extract_class_chains(k, cls, _level1=shifts[lam])
        if kind in (EigenvalueKind.REAL_PAIR, EigenvalueKind.COMPLEX_QUADRUPLET):
            add(1 if kind is EigenvalueKind.REAL_PAIR else 2,
                orthonormalize_real_complex(k, lam, chains, partners))
        elif kind is EigenvalueKind.ZERO:  # even ranks are case 3, odd ranks pair up as case 4
            case3, case4 = orthonormalize_zero(k, chains)
            add(3, case3)
            add(4, zero_odd_pairing(k, case4))
        else:
            for item in orthonormalize_imaginary(k, lam, chains):
                add(5 + item[0].rank % 2, [item])
    groups = [build_case_columns(case, items) for (case, _), items in by_group.items()]
    return _finish_report(m, k, spectrum, groups, cfg)


def normal_form(m, cfg: Config = DEFAULT) -> NormalFormReport:
    """Full pipeline: spectrum, chains, orthonormalization, T, blocks, verdict.

    Every spectrum takes the same construction; a stable one (purely
    imaginary and diagonalizable) comes out as case-6 blocks of rank 1,
    the Bogoliubov diagonalization.

    A defective eigenvalue of rank D splits under round-off like
    eps^(1/D), which no fixed clustering radius can absorb for every D,
    so this function escalates, and nothing below it retries.  It
    clusters at t_0 = ``spectrum.CLUSTERING_TOL`` and t_(j+1) = 10 t_j,
    up to t_8 = 10^8 t_0, a radius of 10 (1 + max|K|), and runs the rest
    of the pipeline on each clustering that pairs the spectrum up and
    does not repeat one tried before: a clustering repeats an earlier one
    when its classes' kinds and algebraic multiplicities do, class by
    class.  The first that succeeds wins, and after t_8 the last error is
    raised, its ``attempts`` set to one plain-string record per radius:
    skipped (the spectrum did not pair up, or the clustering repeats an
    earlier one) or the class and message of the error that attempt
    raised.  Clean spectra cluster once, at t_0.

    ``cfg`` carries only the structural tolerance: it checks M's symmetry
    and T's symplectic condition, and it widens the verification budget
    max(``VERIFY_TOL``, tolerance) (1 + max|K|) max(1, cond T), which
    |T^-1 K T - K_N| must not exceed.
    """
    m = np.asarray(m, dtype=float)
    k = build_eom(m, cfg)
    eigenvalues, vectors = np.linalg.eig(k)
    radii = [CLUSTERING_TOL]
    for _ in range(8):
        radii.append(radii[-1] * 10.0)
    tried: dict = {}  # (kind, algebraic) of each clustering's classes -> its radius index
    attempts: list[str] = []  # why each radius failed, as plain strings: no traceback is kept
    last: Exception | None = None
    try:
        for i, tol in enumerate(radii):
            try:
                classes = cluster_eigenvalues(k, tol=tol, _eigenvalues=eigenvalues)
            except (SpectrumStructureError, AmbiguousSpectrumError) as exc:
                last = exc
                attempts.append(f"t_{i} = {tol:.0e}: skipped, the spectrum did not pair up "
                                f"({type(exc).__name__}: {exc})")
                continue
            shape = tuple((c.kind, c.algebraic) for c in classes)
            if shape in tried:  # the same kinds and multiplicities; representatives may differ
                attempts.append(f"t_{i} = {tol:.0e}: skipped, the clustering repeats "
                                f"t_{tried[shape]}'s")
                continue
            tried[shape] = i
            try:
                return _attempt_normal_form(m, k, classes, eigenvalues, vectors, cfg)
            except (PipelineError, VerificationError) as exc:
                last = exc
                attempts.append(f"t_{i} = {tol:.0e}: {type(exc).__name__}: {exc}")
        last.attempts = tuple(attempts)
        raise last
    finally:
        last = None  # its traceback holds this frame: drop the cycle on every exit


# The case of a simple class's rank-1 chains, by its kind.
_RANK1_CASE = {EigenvalueKind.REAL_PAIR: 1, EigenvalueKind.COMPLEX_QUADRUPLET: 2,
               EigenvalueKind.IMAGINARY_PAIR: 6}


def _stack_normal_forms(ms):
    """Yield ``normal_form(m)`` of each matrix of a stack of same-size ones,
    shape (S, 2N, 2N), in order: its report, or the ``QuadnfError`` it raises.

    A member that passes ``require_hamiltonian_matrix``'s checks and whose
    classes are all simple at t_0, as ``_stack_simple_classes`` decides over
    the stack from one stacked eig(K), is built at array level by
    ``_simple_reports``.  Every other member, and any that fails a check
    there, goes to ``normal_form`` itself, so its report or error, attempt
    records included, is the per-matrix one.  An exception other than
    ``QuadnfError`` propagates.  Each report is made as it is yielded, so a
    caller that keeps only what it reads from each holds one at a time.
    """
    ms = np.asarray(ms, dtype=float)
    non_finite, asymmetric, _, _ = _hamiltonian_defects(ms, DEFAULT)
    valid = ~(non_finite | asymmetric)
    simple = _simple_reports(ms[valid])
    for m, checked in zip(ms, valid.tolist()):
        result = next(simple, None) if checked else None
        if result is None:
            try:
                result = normal_form(m)
            except QuadnfError as exc:
                result = exc
        yield result


def _simple_reports(ms: np.ndarray):
    """Yield, for each member of a stack of valid M in order, its report if its
    classes are all simple at t_0 and it passes every check, else None; the
    iteration stops early once no member is left to report.  Each report is
    made from ``_simple_members``' arrays as it is yielded."""
    built = _simple_members(ms)
    if built is None:
        return
    row, spectra, blocks, t, kn_actual, n_matrix, residuals = built
    n_modes = ms.shape[1] // 2
    for s, j in enumerate(row.tolist()):
        if j < 0:
            yield None
            continue
        stacked, g = blocks[j]
        yield _report(SpectrumReport(n_modes, spectra[s]), CanonicalTransform(matrix=t[j]),
                      kn_actual[j], n_matrix[j], tuple(_member_block(b, g) for b in stacked),
                      tuple(r[j] for r in residuals))


def _simple_members(ms: np.ndarray):
    """The checked arrays of the members of a stack of valid M whose classes are
    all simple at t_0: (row, spectra, blocks, t, kn_actual, n_matrix, residuals),
    where ``row[s]`` is member s's row in the arrays, -1 for a member left to
    ``normal_form``; None when no member is left.

    Each step is ``normal_form``'s on such a spectrum, run over a flat axis
    of every sure member's rank-1 chains or over the sure members, by the
    per-matrix path's own code: the chains of each case are normalized by
    ``_simple_pair`` or ``_simple_self_dual`` and written by
    ``_case_columns``; one lexsort of ``_mode_key`` gathers T in mode order;
    ``symplectic_residual``, ``_not_symplectic``, cond(T), ``similarity``
    and ``_block_match`` check it against ``_block``'s blocks, stacked over
    the members whose cases run alike; ``emit_terms`` and ``_verdict`` run
    per member, in ``_report``.
    """
    count, dim = ms.shape[:2]
    if not count:
        return None
    ks = _eom(ms)
    eigenvalues, vectors = np.linalg.eig(ks)
    ok, member, classes, lam_col, neg_col = _stack_simple_classes(ks, eigenvalues)
    case = np.array([_RANK1_CASE[c.kind] for c in classes], dtype=int)

    # The eig(K) columns of each case's classes (contiguous, and real for real
    # pairs, as the per-matrix chains are), and their pairings; a member with
    # a vanishing one is dropped.
    pairings = {}
    for c in (1, 2, 6):
        of = np.flatnonzero(case == c)
        if len(of):
            g, gt = vectors[member[of], :, lam_col[of]], None
            if c == 6:
                w, usable = _simple_self_pairing(g)
            else:
                gt = vectors[member[of], :, neg_col[of]]
                if c == 1:
                    g, gt = np.ascontiguousarray(g.real), np.ascontiguousarray(gt.real)
                w, usable = _simple_pairing(g, gt)
            ok[member[of[~usable]]] = False
            pairings[c] = of, g, gt, w
    taken = np.flatnonzero(ok)
    if not len(taken):
        return None
    chains, plus, minus, column_of = [], [], [], []
    sigma = np.zeros(len(classes), dtype=complex)
    for c, (of, g, gt, w) in pairings.items():
        live = ok[member[of]]
        of, g, w = of[live], g[live], w[live]
        if c == 6:
            e, sigma[of] = _simple_self_dual(g, w)
            t_plus, t_minus = _case_columns(6, e[:, None], None, sigma[of])
        else:
            e, et = _simple_pair(g, gt[live], w)
            t_plus, t_minus = _case_columns(c, e[:, None], et[:, None], None)
        chains.append(of)
        plus.append(t_plus.reshape(-1, dim))
        minus.append(t_minus.reshape(-1, dim))
        column_of.append(np.repeat(of, t_plus.shape[1]))
    chains, column_of = np.concatenate(chains), np.concatenate(column_of)

    # Each member's T, its chains' columns in mode order, and its checks.
    lam = np.array([c.representative for c in classes], dtype=complex)
    keys = _mode_key(case[chains], lam[chains], np.ones(len(chains), dtype=int), sigma[chains])
    order = chains[np.lexsort(keys[::-1] + (member[chains],))]
    rank = np.empty(len(classes), dtype=int)
    rank[order] = np.arange(len(order))
    by_mode = np.argsort(rank[column_of], kind="stable")  # a chain's columns stay in order
    t = np.concatenate([np.concatenate(plus)[by_mode].reshape(len(taken), dim // 2, dim),
                        np.concatenate(minus)[by_mode].reshape(len(taken), dim // 2, dim)], axis=1)
    t = np.ascontiguousarray(np.swapaxes(t, 1, 2))
    symplectic = symplectic_residual(t)
    cond = np.linalg.cond(t)
    fine = np.flatnonzero(~_not_symplectic(t, symplectic, DEFAULT) & ~_ill_conditioned(cond))
    if not len(fine):
        return None
    # The blocks of the members whose cases run alike in mode order, stacked.
    chains_of = np.split(order, np.cumsum(np.bincount(member[order], minlength=count))[:-1])
    layouts: dict = {}
    for j, s in enumerate(taken[fine].tolist()):
        layouts.setdefault(tuple(case[chains_of[s]].tolist()), []).append(j)
    kn_expected = np.empty((len(fine), dim, dim))
    blocks: list = [None] * len(fine)  # each row's layout blocks and its place in them
    for layout, rows in layouts.items():
        at = np.array([chains_of[s] for s in taken[fine[rows]].tolist()])
        stacked = [_block(c, lam[at[:, p]], 1, sigma[at[:, p]] if c == 6 else None)
                   for p, c in enumerate(layout)]
        kn_expected[rows] = expected_kn(stacked, dim // 2)
        for g, j in enumerate(rows):
            blocks[j] = stacked, g
    spectra: list = [[] for _ in range(count)]
    for s, cls in zip(member.tolist(), classes):
        spectra[s].append(cls)
    ks, ms, t, cond = ks[taken[fine]], ms[taken[fine]], t[fine], cond[fine]
    kn_actual = similarity(ks, t, _cond=cond)
    block_residual, budget = _block_match(ks, kn_actual, kn_expected, cond, DEFAULT)
    n_matrix, n_residual = _n_matrix(ms, t, kn_expected)
    row = np.full(count, -1)
    row[taken[fine]] = np.where(block_residual > budget, -1, np.arange(len(fine)))
    residuals = (symplectic[fine], block_residual, n_residual, cond.tolist())
    return row, [tuple(c) for c in spectra], blocks, t, kn_actual, n_matrix, residuals
