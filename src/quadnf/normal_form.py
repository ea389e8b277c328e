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
normal form K_N = T^{-1} K T block by block; ``_block`` writes a group's
blocks at once too.  Blocks take consecutive modes in report order, and
``assemble_transform`` puts a chain's T columns on its block's modes; the
transformed Hamiltonian matrix N = T^T M T = -J K_N is then read off those
blocks as a short list of elementary quadratic terms (oscillators, free
particles, squeezers, beam splitters), and one table gives each term kind's
symbol and N entries.  This module builds the columns, assembles and
verifies T, generates the expected blocks, emits the term list and decides
the stability verdict.  A Bogoliubov diagonalization is the special case of
an all-case-6, rank-1 spectrum, whose verdict is STABLE.

One finisher, ``_finish``, ends every attempt: from the groups of a stack
of matrices it orders the chains, places and checks T, and reads K_N and
N off the blocks, over a leading member axis, and yields each member's
report or the error that ends its attempt.  ``normal_form`` runs it on a
stack of one.  ``_stack_normal_forms`` runs ``normal_form`` over a stack
of same-size matrices, as the two-mode scan does: the members whose
classes are certainly all simple, their eig(K) values well apart, take
their chains of cases 1, 2 and 6 from one stacked eig(K), normalized at
array level, and ``_finish`` finishes them all at once.  Any other
member, and any that ``_finish`` ends with an error, takes
``normal_form`` itself, so every member's report or error is the one
``normal_form`` gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
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
    _ill_conditioned_error,
    build_eom,
    similarity,
    symplectic_form,
    symplectic_residual,
)
from .errors import (
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
    """The orthonormalized chains of one case and rank, of one matrix or of the
    members of a stack: chain c is member ``members[c]``'s, of eigenvalue
    ``eigenvalues[c]`` and sigma ``sigmas[c]`` (0 in cases 1, 2 and 4), and
    ``t_plus[c, j]`` (``t_minus[c, j]``) is its column j in T_+ (T_-)."""

    case: int
    rank: int
    members: np.ndarray
    eigenvalues: np.ndarray
    sigmas: np.ndarray
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
    sigmas = np.array([0j if paired else complex(sigma) for _, sigma in items])
    t_plus, t_minus = _case_columns(
        case, np.array([chain.vectors for chain in chains]),
        np.array([other.vectors for _, other in items]) if paired else None,
        None if paired else sigmas)
    return _Group(case, chains[0].rank, np.zeros(len(items), dtype=int),
                  np.array([complex(chain.eigenvalue) for chain in chains]), sigmas,
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
    """Assemble the full expected K_N = [[O_I, O_R], [O_L, -O_I^T]] of blocks
    that take consecutive modes."""
    covered = sum(b.size for b in blocks)
    if covered != n_modes:
        raise AssemblyError(f"blocks cover {covered} modes, expected {n_modes}")
    first = np.cumsum([0] + [b.size for b in blocks])
    return _stacked_kn(1, n_modes, [(b, [0], first[i] + np.arange(b.size)[None])
                                    for i, b in enumerate(blocks)])[0]


def _stacked_kn(count: int, n_modes: int, placed) -> np.ndarray:
    """The expected K_N of each of ``count`` members, from (block, rows, modes)
    triples: chain c of ``block``, blocks ``_block`` wrote stacked over a chain
    axis, lies in the K_N of member rows[c] on modes[c]."""
    n = n_modes
    kn = np.zeros((count, 2 * n, 2 * n))
    for block, rows, modes in placed:
        r, i, j = np.asarray(rows)[:, None, None], modes[:, :, None], modes[:, None, :]
        kn[r, i, j], kn[r, i, n + j], kn[r, n + i, j] = block.i_i, block.i_r, block.i_l
    kn[:, n:, n:] = -kn[:, :n, :n].swapaxes(-1, -2)
    return kn


def assemble_transform(groups, modes, n_modes: int, cfg: Config = DEFAULT):
    """Place T = (T_+ T_-) of each member of a stack from the groups' columns,
    and check the symplectic condition on each.

    Chain c of group g, member ``g.members[c]``'s, takes T's columns
    ``modes[g][c]`` (T_+) and N + ``modes[g][c]`` (T_-), its K_N block's modes;
    each member's chains cover its modes.  Returns the stacked T, each one's
    symplectic residual, and a list holding, per member, None or the
    ``AssemblyError`` that ends its attempt, with the offending Gram residual.
    """
    n = n_modes
    t = np.zeros((1 + max(g.members.max() for g in groups), 2 * n, 2 * n))
    for g, m in zip(groups, modes):
        rows = g.members[:, None]
        t[rows, :, m], t[rows, :, n + m] = g.t_plus, g.t_minus
    res = symplectic_residual(t)
    errors: list = [None] * len(t)
    for s in np.flatnonzero(_not_symplectic(t, res, cfg)).tolist():
        j = symplectic_form(n_modes)
        errors[s] = AssemblyError(
            f"assembled transformation is not symplectic: residual {res[s]:.3e}",
            gram_residual=t[s] @ j @ t[s].T - j,
        )
    return t, res, errors


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


def _finish(ms, ks, spectra, groups, cfg: Config):
    """Yield, for each member of a stack of M and K = J M in order, its report or
    the error that ends its attempt, given its ``SpectrumReport`` in ``spectra``
    and the groups of every member's orthonormalized chains.

    Each step runs over the stack.  ``_block`` writes each group's blocks at
    once, and one lexsort of ``_mode_key`` puts each member's chains in mode
    order, which gives each chain its modes: there ``assemble_transform``
    places its columns of T, then checks T (``AssemblyError``), and
    ``_stacked_kn`` its block of K_N.  Then cond(T), of the members whose T
    passed, must pass ``similarity``'s limit (``IllConditionedError``), and,
    when a member is left to transform, |T^-1 K T - K_N| must not exceed
    max(``VERIFY_TOL``, tolerance) (1 + max|K|) max(1, cond T)
    (``VerificationError``).  N = T^T M T is read off last; each report,
    with its terms and verdict, is made as it is yielded.
    """
    count, dim = ks.shape[:2]
    n_modes = dim // 2
    blocks = [_block(g.case, g.eigenvalues, g.rank, None if g.case in (1, 2, 4) else g.sigmas)
              for g in groups]
    counts = [len(g.members) for g in groups]
    case, rank, size = np.repeat(np.array([(g.case, g.rank, b.size)
                                           for g, b in zip(groups, blocks)]), counts, axis=0).T
    member, lam, sigma = (np.concatenate([getattr(g, name) for g in groups])
                          for name in ("members", "eigenvalues", "sigmas"))
    covered = np.bincount(member, weights=size)
    if np.count_nonzero(covered != n_modes):
        raise AssemblyError(f"column groups cover {covered[covered != n_modes][0]:.0f} modes, "
                            f"expected {n_modes}")
    # Member by member, then mode order (ties only within a group): each chain's
    # first mode in its member's T and K_N, then, per group, its modes.
    order = np.lexsort(_mode_key(case, lam, rank, sigma)[::-1] + (member,))
    first, ordered = np.empty_like(size), size[order]
    first[order] = np.cumsum(ordered) - ordered - n_modes * member[order]
    modes = [first[end - each:end, None] + np.arange(b.size)
             for b, each, end in zip(blocks, counts, accumulate(counts))]
    t, symplectic, errors = assemble_transform(groups, modes, n_modes, cfg)
    fine = np.flatnonzero([error is None for error in errors])
    cond = np.linalg.cond(t[fine]) if len(fine) else np.empty(0)
    ill = _ill_conditioned(cond)
    for j in np.flatnonzero(ill).tolist():
        errors[fine[j]] = _ill_conditioned_error(cond[j])
    fine, cond = fine[~ill], cond[~ill]

    kn_expected = _stacked_kn(count, n_modes, zip(blocks, (g.members for g in groups), modes))[fine]
    ks, ms, t = ks[fine], ms[fine], t[fine]
    kn_actual = similarity(ks, t, _cond=cond) if len(fine) else t  # no member left: t is empty
    block_residual = maxnorm(kn_actual - kn_expected, (-2, -1))
    budget = max(VERIFY_TOL, cfg.tolerance) * (1.0 + maxnorm(ks, (-2, -1))) * np.maximum(1.0, cond)
    for j in np.flatnonzero(block_residual > budget).tolist():
        errors[fine[j]] = VerificationError(
            f"normal form mismatch: |T^-1 K T - expected| = {block_residual[j]:.3e} "
            f"exceeds {budget[j]:.3e}",
            residual=kn_actual[j] - kn_expected[j],
        )
    n_matrix = t.swapaxes(-1, -2) @ ms @ t
    n_matrix = (n_matrix + n_matrix.swapaxes(-1, -2)) / 2.0
    n_residual = maxnorm(n_matrix - -_eom(kn_expected), (-2, -1))  # -J K_N, exactly
    residuals = [r.tolist() for r in (symplectic[fine], block_residual, n_residual, cond)]
    where = [(b, c) for b, each in zip(blocks, counts) for c in range(each)]  # chain -> its block
    rows, order, start = iter(range(len(fine))), order.tolist(), 0
    for error, spectrum, end in zip(errors, spectra, accumulate(np.bincount(member).tolist())):
        chains, start = order[start:end], end
        if error is not None:
            yield error
            continue
        j = next(rows)
        mine = tuple(_member_block(*where[c]) for c in chains)
        terms, zero_modes = emit_terms(mine)
        verdict, reasons = _verdict(mine)
        yield NormalFormReport(
            n_modes=n_modes, spectrum=spectrum, transform=CanonicalTransform(matrix=t[j]),
            k_normal=kn_actual[j], n_matrix=n_matrix[j], blocks=mine, terms=terms,
            verdict=verdict, reasons=reasons, zero_frequency_modes=zero_modes,
            residuals=dict(zip(("symplectic", "block_match", "n_reconstruction", "condition"),
                               (r[j] for r in residuals))))


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
    (outcome,) = _finish(m[None], k[None], (spectrum,), groups, cfg)
    if isinstance(outcome, QuadnfError):
        raise outcome
    return outcome


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
            except SpectrumStructureError as exc:
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
    classes ``_stack_simple_classes`` certifies all simple at t_0, from one
    stacked eig(K) (its values pairwise more than 40 clustering radii apart,
    and its folded mirror orbits whole), has its rank-1 chains normalized at
    array level by ``_simple_members`` and is finished with every other such
    member by ``_finish``, as ``normal_form`` finishes one matrix.  Every other member,
    and any that ``_finish`` ends with an error, goes to ``normal_form``
    itself, so its report or error, attempt records included, is the
    per-matrix one.  An exception other than ``QuadnfError`` propagates.
    Each report is made as it is yielded, so a caller that keeps only what
    it reads from each holds one at a time.
    """
    ms = np.asarray(ms, dtype=float)
    non_finite, asymmetric, _, _ = _hamiltonian_defects(ms, DEFAULT)
    valid = np.flatnonzero(~(non_finite | asymmetric))
    taken, ks, spectra, groups = _simple_members(ms[valid])
    sure = np.zeros(len(ms), dtype=bool)
    sure[valid[taken]] = True
    finished = _finish(ms[valid[taken]], ks, spectra, groups, DEFAULT)
    for m, built in zip(ms, sure.tolist()):
        result = next(finished) if built else None
        if not isinstance(result, NormalFormReport):
            try:
                result = normal_form(m)
            except QuadnfError as exc:
                result = exc
        yield result


def _simple_members(ms: np.ndarray):
    """The members of a stack of valid M whose classes ``_stack_simple_classes``
    certifies all simple at t_0 and whose rank-1 chains pair up, ready for
    ``_finish``: (taken, ks, spectra, groups), where ``taken`` indexes them
    in the stack, ``ks`` holds their K = J M, ``spectra`` their
    ``SpectrumReport``s, and ``groups`` one group per case whose
    ``members`` number the taken members.

    The chains are those ``normal_form`` takes on such a spectrum, over a
    flat axis of every sure member's classes: the eig(K) columns, normalized
    by ``_simple_pair`` or ``_simple_self_dual`` and written by
    ``_case_columns``.  A member with a vanishing pairing is not taken.
    """
    count, dim = ms.shape[:2]
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
    renumber = np.cumsum(ok) - 1  # a taken member's place among the taken
    lam = np.array([c.representative for c in classes], dtype=complex)
    groups = []
    for c, (of, g, gt, w) in pairings.items():
        live = ok[member[of]]
        of, g, w = of[live], g[live], w[live]
        if c == 6:
            e, sigma = _simple_self_dual(g, w)
            t_plus, t_minus = _case_columns(6, e[:, None], None, sigma)
        else:
            e, et = _simple_pair(g, gt[live], w)
            sigma = np.zeros(len(of), dtype=complex)
            t_plus, t_minus = _case_columns(c, e[:, None], et[:, None], None)
        groups.append(_Group(c, 1, renumber[member[of]], lam[of], sigma, t_plus, t_minus))
    spectra: list = [[] for _ in range(count)]
    for s, cls in zip(member.tolist(), classes):
        spectra[s].append(cls)
    spectra = [SpectrumReport(dim // 2, tuple(spectra[s])) for s in taken.tolist()]
    return taken, ks[taken], spectra, groups
