"""Spectral analysis of the equation-of-motion matrix.

The structure J K + K^T J = 0 forces the eigenvalues of K into four
families: real pairs {l, -l}, complex quadruplets {l, -l, conj(l),
-conj(l)}, the zero eigenvalue (even multiplicity), and imaginary pairs
{l, conj(l)}.  This module clusters the numerically computed spectrum,
snaps it onto the axes, symmetrizes it so the pairing rules hold
exactly, classifies the result, and extracts Jordan chains (generalized
eigenvectors with their ranks) for every eigenvalue.  A class's chain
ranks always add up to its algebraic multiplicity, so the zero class has
an even number of odd-rank chains.  Which of the normal form's six chain
cases a chain falls in is decided in ``normal_form``, not here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Config, maxnorm
from .errors import (
    AmbiguousSpectrumError,
    BorderlineRankWarning,
    ChainExtractionError,
    SpectrumStructureError,
)

__all__ = [
    "EigenvalueKind",
    "EigenvalueClass",
    "SpectrumReport",
    "JordanChain",
    "ClassChains",
    "cluster_eigenvalues",
    "classify_spectrum",
    "geometric_multiplicity",
    "jordan_chains",
    "extract_class_chains",
]


class EigenvalueKind(Enum):
    REAL_PAIR = "real_pair"
    COMPLEX_QUADRUPLET = "complex_quadruplet"
    ZERO = "zero"
    IMAGINARY_PAIR = "imaginary_pair"


@dataclass(frozen=True)
class EigenvalueClass:
    """One eigenvalue family with its representative and multiplicities.

    The representative is the member with Re > 0 (real pairs and
    quadruplets, the latter also with Im > 0), Im > 0 (imaginary
    pairs), or 0.  ``algebraic``/``geometric`` are the multiplicities of
    each individual member.
    """

    kind: EigenvalueKind
    representative: complex
    algebraic: int
    geometric: int | None = None

    @property
    def members(self) -> tuple[complex, ...]:
        lam = self.representative
        if self.kind is EigenvalueKind.ZERO:
            return (0j,)
        if self.kind is EigenvalueKind.REAL_PAIR:
            return (lam, -lam)
        if self.kind is EigenvalueKind.IMAGINARY_PAIR:
            return (lam, lam.conjugate())
        return (lam, -lam, lam.conjugate(), -lam.conjugate())

    @property
    def weight(self) -> int:
        """Contribution of this class to the total dimension 2N."""
        return len(self.members) * self.algebraic


@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of an equation-of-motion matrix."""

    n_modes: int
    classes: tuple[EigenvalueClass, ...]

    @property
    def sum_rule_residual(self) -> int:
        return 2 * self.n_modes - sum(c.weight for c in self.classes)


def _union_clusters(values, mults, eps):
    """Greedy union of (value, multiplicity) pairs within distance eps: each pass
    merges the first close pair i < j, in row-major order, into its weighted mean at i."""
    values = list(values)
    mults = list(mults)
    while len(values) > 1:
        v = np.array(values)
        close = np.abs(v[:, None] - v) <= eps
        np.fill_diagonal(close, False)  # symmetric, so the first hit has i < j
        hit = int(np.argmax(close))
        if not close.flat[hit]:
            break
        i, j = divmod(hit, len(values))
        total = mults[i] + mults[j]
        values[i] = (values[i] * mults[i] + values[j] * mults[j]) / total
        mults[i] = total
        del values[j], mults[j]
    return values, mults


def cluster_eigenvalues(k, cfg: Config = DEFAULT, tol: float | None = None, *, _eigenvalues=None):
    """Clustered, axis-snapped, symmetrized eigenvalues of K.

    Returns a list of (eigenvalue, algebraic multiplicity) covering the
    whole spectrum; mirror eigenvalues under negation/conjugation are
    exact, and the multiplicities sum to 2N.

    Jordan structure is discontinuous under perturbation, so eigenvalues
    within ``tol * (1 + max|K|)`` of each other merge into one cluster
    and clusters that close to an axis are snapped onto it.  A cluster
    whose mirror partner is missing or has a different multiplicity
    raises ``SpectrumStructureError``; a merge inconsistency raises
    ``AmbiguousSpectrumError``.
    """
    k = np.asarray(k, dtype=float)
    dim = k.shape[0]
    if tol is None:
        tol = cfg.clustering_tol
    eps = tol * (1.0 + maxnorm(k))
    raw = np.linalg.eigvals(k) if _eigenvalues is None else _eigenvalues

    values, mults = _union_clusters(list(raw), [1] * len(raw), eps)
    # Snap onto the real/imaginary axes, then re-merge anything that collided.
    snapped = []
    for v in values:
        re = 0.0 if abs(v.real) <= eps else v.real
        im = 0.0 if abs(v.imag) <= eps else v.imag
        snapped.append(complex(re, im))
    values, mults = _union_clusters(snapped, mults, eps)

    # Group into mirror orbits and enforce the pairing rules exactly.
    used = [False] * len(values)
    out: list[tuple[complex, int]] = []
    for i, v in enumerate(values):
        if used[i]:
            continue
        mirrors = {v, -v, v.conjugate(), -v.conjugate()}
        orbit = []
        for target in mirrors:
            found = None
            for j, w in enumerate(values):
                if not used[j] and abs(w - target) <= 10 * eps and j not in orbit:
                    found = j
                    break
            if found is None:
                raise SpectrumStructureError(
                    f"eigenvalue {v:.6g} has no mirror partner near {target:.6g}"
                )
            orbit.append(found)
        orbit = sorted(set(orbit))
        if len({mults[j] for j in orbit}) != 1:
            raise SpectrumStructureError(
                f"mirror eigenvalues of {v:.6g} have unequal multiplicities"
            )
        # Average the orbit onto exact mirror symmetry (left to right, as np.mean sums 1-4 values).
        re = sum([abs(values[j].real) for j in orbit]) / len(orbit)
        im = sum([abs(values[j].imag) for j in orbit]) / len(orbit)
        spread = max(
            min(abs(values[j] - s) for s in {complex(re, im), complex(re, -im),
                                             complex(-re, im), complex(-re, -im)})
            for j in orbit
        )
        if spread > 10 * eps:
            raise AmbiguousSpectrumError(
                f"cluster around {v:.6g} has diameter {spread:.3e} after snapping"
            )
        rep = complex(re, im)
        members = sorted({rep, -rep, rep.conjugate(), -rep.conjugate()},
                         key=lambda z: (-z.real, -z.imag))
        for j in orbit:
            used[j] = True
        for member in members:
            out.append((member, mults[orbit[0]]))

    total = sum(m for _, m in out)
    if total != dim:
        raise AmbiguousSpectrumError(
            f"clustered multiplicities sum to {total}, expected {dim}"
        )
    out.sort(key=lambda vm: (-vm[0].real, -vm[0].imag))
    return out


def _factor(a: np.ndarray, widest_cut):
    """One SVD of ``a`` as (s, null): all singular values, largest first, and as
    columns the right singular vectors of those <= ``widest_cut(sigma_max)``; all
    of them for a zero matrix, such as a nilpotent power whose true value is zero."""
    if maxnorm(a) == 0.0:
        return np.zeros(a.shape[1]), np.eye(a.shape[1], dtype=a.dtype)
    _, s, vh = np.linalg.svd(a)
    return s, np.conjugate(vh[len(s) - int(np.sum(s <= widest_cut(s[0]))):]).T


def _nullspace(factor, thresh: float) -> np.ndarray:
    """Orthonormal basis of the factored matrix's directions with singular value <= thresh."""
    s, null = factor
    return null[:, null.shape[1] - int(np.sum(s <= thresh)):]


def _filtration_cut(top: float, norm_a: float, prev_top: float, dim: int, cfg: Config) -> float:
    # Threshold singular values of A^k against sigma_max(A^k) itself (for
    # non-normal A, norm(A)^k overshoots it by orders of magnitude and
    # would swallow structural singular values), plus a round-off floor
    # for the case A^k = 0 where sigma_max is pure multiplication noise.
    return cfg.rank_tol * top + 1e3 * dim * np.finfo(float).eps * norm_a * prev_top


def _factor_shift(k: np.ndarray, lam: complex, cfg: Config):
    """The one SVD of K - lam I (real for real lam), for its rank cut and filtration level 1."""
    a = k - lam * np.eye(k.shape[0])
    return _factor(a.real if lam.imag == 0 else a, lambda top: max(
        cfg.rank_tol * (1.0 + top), _filtration_cut(top, top, 1.0, k.shape[0], cfg)))


def geometric_multiplicity(k, lam: complex, cfg: Config = DEFAULT, *, _shifts=None,
                           _eigenvectors=None) -> int:
    """Dimension of null(K - lam I) via a singular-value threshold.

    A singular value within a factor 10 of the threshold makes the rank
    decision fragile; a ``BorderlineRankWarning`` is emitted in that
    case (the returned value still reflects the configured threshold).
    The SVD of K - lam I it reads is left in ``_shifts[lam]`` if given.
    Given ``_eigenvectors`` (lam simple), it leaves them there instead and
    returns 1 without factoring, as 1 <= geometric <= algebraic = 1.
    """
    if _eigenvectors is not None:
        _shifts[lam] = _eigenvectors
        return 1
    factor = _factor_shift(np.asarray(k, dtype=float), lam, cfg)
    if _shifts is not None:
        _shifts[lam] = factor
    s = factor[0]
    thresh = cfg.rank_tol * (1.0 + s[0])
    borderline = [float(v) for v in s if thresh / 10 < v <= 10 * thresh]
    if borderline:
        warnings.warn(
            f"singular values {borderline} of K - ({lam:.6g}) I lie within a "
            f"factor 10 of the rank threshold {thresh:.3e}",
            BorderlineRankWarning,
            stacklevel=2,
        )
    return int(np.sum(s <= thresh))


def classify_spectrum(k, clusters=None, cfg: Config = DEFAULT, *, _eigenvalues=None,
                      _eigenvectors=None, _shifts=None) -> SpectrumReport:
    """Group the clustered spectrum into the four eigenvalue families.

    Each family is represented once; the exact sum rule
    2N = a_0 + 2*sum_R a + 4*sum_C a + 2*sum_I a holds by construction.
    Without ``clusters`` it clusters once, at ``clustering_tol``, on
    ``_eigenvalues`` if given; a failure to pair up there is raised, not
    retried (``normal_form`` widens the radius).  ``_shifts`` collects
    each class's SVD of K - lam I (see geometric_multiplicity).

    Given ``_eigenvectors`` (of eig(K), for ``_eigenvalues``), a simple
    nonzero class takes no SVD: ``_shifts`` gets the columns of lam and,
    if paired, -lam, each owned by exactly one raw eigenvalue nearest to
    it among the cluster members, else ``AmbiguousSpectrumError``.
    """
    k = np.asarray(k, dtype=float)
    n_modes = k.shape[0] // 2
    if clusters is None:
        clusters = cluster_eigenvalues(k, cfg, _eigenvalues=_eigenvalues)
    if _eigenvectors is not None:
        centers = np.array([lam for lam, _ in clusters])
        owner = np.argmin(np.abs(np.asarray(_eigenvalues)[:, None] - centers), axis=1)
        owned = np.bincount(owner, minlength=len(centers))  # raw eigenvalues per member
        raw_of = np.empty(len(centers), dtype=int)
        raw_of[owner] = np.arange(len(owner))
        index = {lam: i for i, (lam, _) in enumerate(clusters)}
    seen: set[complex] = set()
    classes = []
    for lam, mult in clusters:
        if lam in seen:
            continue
        if lam == 0:
            kind = EigenvalueKind.ZERO
            rep = 0j
        elif lam.imag == 0:
            kind = EigenvalueKind.REAL_PAIR
            rep = complex(abs(lam.real), 0.0)
        elif lam.real == 0:
            kind = EigenvalueKind.IMAGINARY_PAIR
            rep = complex(0.0, abs(lam.imag))
        else:
            kind = EigenvalueKind.COMPLEX_QUADRUPLET
            rep = complex(abs(lam.real), abs(lam.imag))
        members = EigenvalueClass(kind=kind, representative=rep, algebraic=mult).members
        if not seen.isdisjoint(members):
            continue
        seen.update(members)
        columns = None
        if _eigenvectors is not None and mult == 1 and kind is not EigenvalueKind.ZERO:
            own = [index[mu] for mu in members[:1 if kind is EigenvalueKind.IMAGINARY_PAIR else 2]]
            if any(owned[i] != 1 for i in own):
                raise AmbiguousSpectrumError(f"no single eigenvector of eig(K) for {rep:.6g}")
            columns = _eigenvectors[:, raw_of[own]]
            columns = columns.real if rep.imag == 0 else columns
        geometric = geometric_multiplicity(k, rep, cfg, _shifts=_shifts, _eigenvectors=columns)
        classes.append(EigenvalueClass(kind, rep, mult, geometric))
    report = SpectrumReport(n_modes=n_modes, classes=tuple(classes))
    if report.sum_rule_residual != 0:
        raise SpectrumStructureError(
            f"multiplicity sum rule violated by {report.sum_rule_residual}"
        )
    return report


@dataclass(frozen=True)
class JordanChain:
    """One Jordan chain: a generating GEV of rank D and its chain vectors.

    ``vectors[j] = (K - lam I)^(D-1-j) g`` so that ``vectors[-1]`` is the
    generator and ``vectors[0]`` the ordinary eigenvector.
    """

    eigenvalue: complex
    rank: int
    vectors: tuple[np.ndarray, ...]

    @property
    def generator(self) -> np.ndarray:
        return self.vectors[-1]


def make_chain(k, lam: complex, generator: np.ndarray, rank: int) -> JordanChain:
    vecs = [generator]
    if rank > 1:
        a = np.asarray(k) - lam * np.eye(np.asarray(k).shape[0])
        a = a.real if lam.imag == 0 and not np.iscomplexobj(generator) else a
        for _ in range(rank - 1):
            vecs.append(a @ vecs[-1])
    vecs.reverse()
    return JordanChain(eigenvalue=lam, rank=rank, vectors=tuple(vecs))


def jordan_chains(
    k,
    lam: complex,
    algebraic: int,
    cfg: Config = DEFAULT,
    *,
    _level1=None,
) -> list[JordanChain]:
    """Jordan chains for one eigenvalue via the nullspace filtration.

    Computes V_k = null((K - lam I)^k) for increasing k until its
    dimension saturates at the algebraic multiplicity, then picks chain
    generators top-down: rank-D generators are chosen (by largest
    residual, ties by lowest index) in V_D, orthogonally to V_{D-1} and
    to the rank-D members of chains already chosen.  Real eigenvalues
    (including zero) are processed in real arithmetic so their chains
    are exactly real.  ``_level1`` is the SVD of K - lam I if known.

    Raises ``ChainExtractionError`` when the filtration dimensions are
    inconsistent with the algebraic multiplicity.
    """
    k = np.asarray(k, dtype=float)
    dim = k.shape[0]
    real_case = lam.imag == 0
    a = (k - lam * np.eye(dim)).real if real_case else k - lam * np.eye(dim)
    level = _factor_shift(k, lam, cfg) if _level1 is None else _level1

    bases = [np.zeros((dim, 0), dtype=a.dtype)]
    dims = [0]
    power, norm_a, prev_top = a, level[0][0], 1.0
    while dims[-1] < algebraic:
        if len(dims) > 1:
            power = a @ power
            level = _factor(power, lambda top: _filtration_cut(top, norm_a, prev_top, dim, cfg))
        top = level[0][0]
        basis = _nullspace(level, _filtration_cut(top, norm_a, prev_top, dim, cfg))
        prev_top = top
        if basis.shape[1] <= dims[-1]:
            raise ChainExtractionError(
                f"nullspace filtration stalled at dimension {dims[-1]} "
                f"(algebraic multiplicity {algebraic}) for eigenvalue {lam:.6g}"
            )
        bases.append(basis)
        dims.append(basis.shape[1])
        if len(dims) > algebraic + 1:
            raise ChainExtractionError("filtration exceeded the algebraic multiplicity")
    if dims[-1] != algebraic:
        raise ChainExtractionError(
            f"filtration saturated at {dims[-1]} instead of {algebraic}"
        )

    depth = len(dims) - 1
    risen = [dims[kk] - dims[kk - 1] for kk in range(1, depth + 1)]  # chains of rank >= k
    exact = [risen[kk] - (risen[kk + 1] if kk + 1 < depth else 0) for kk in range(depth)]

    chains: list[JordanChain] = []
    for rank in range(depth, 0, -1):
        count = exact[rank - 1]
        if count == 0:
            continue
        # Subspace the new generators must be independent of: the lower
        # filtration level plus the rank-`rank` members of taller chains.
        blockers = [bases[rank - 1]]
        for chain in chains:
            blockers.append(chain.vectors[rank - 1][:, None])
        blocked = np.hstack([b.astype(complex if not real_case else float) for b in blockers])
        q, _ = np.linalg.qr(blocked) if blocked.shape[1] else (blocked, None)
        candidates = bases[rank].copy()
        if blocked.shape[1]:
            candidates = candidates - q @ (q.conj().T @ candidates)
        picked = []
        for _ in range(count):
            norms = np.linalg.norm(candidates, axis=0)
            idx = int(np.argmax(norms))
            if norms[idx] <= cfg.rank_tol:
                raise ChainExtractionError(
                    f"could not find {count} independent rank-{rank} generators "
                    f"for eigenvalue {lam:.6g}"
                )
            g = candidates[:, idx] / norms[idx]
            picked.append(g)
            candidates = candidates - np.outer(g, g.conj() @ candidates)
        for g in picked:
            if real_case:
                g = g.real / np.linalg.norm(g.real)
            chains.append(make_chain(k, lam, g, rank))
    return chains


@dataclass
class ClassChains:
    """Jordan chains of one eigenvalue class, with partners.

    For real pairs and quadruplets, ``partners`` holds the chains of the
    mirror eigenvalue -lam.  For imaginary pairs the partner chains are
    the exact complex conjugates and are not stored.
    """

    eigen_class: EigenvalueClass
    chains: list[JordanChain]
    partners: list[JordanChain] = field(default_factory=list)


def extract_class_chains(k, cls: EigenvalueClass, cfg: Config = DEFAULT, *,
                         _level1=None) -> ClassChains:
    """Chains (and partner chains where applicable) for one eigenvalue class.

    ``_level1`` is what ``classify_spectrum`` left in ``_shifts`` for the
    class.  For a simple lam these are eigenvector columns of eig(K):
    the one rank-1 chain of lam and, for real pairs and quadruplets, the
    partner of -lam.  Otherwise it is the SVD of K - lam I (computed if
    not given), and the chains come from the nullspace filtration of
    K - lam I, the partner chains from that of K + lam I.
    """
    k = np.asarray(k, dtype=float)
    lam = cls.representative
    paired = cls.kind in (EigenvalueKind.REAL_PAIR, EigenvalueKind.COMPLEX_QUADRUPLET)
    if isinstance(_level1, np.ndarray):
        chains = [make_chain(k, lam, _level1[:, 0], 1)]
        partners = [make_chain(k, -lam, _level1[:, 1], 1)] if paired else []
    else:
        chains = sorted(jordan_chains(k, lam, cls.algebraic, cfg, _level1=_level1),
                        key=lambda c: -c.rank)
        partners = sorted(jordan_chains(k, -lam, cls.algebraic, cfg),
                          key=lambda c: -c.rank) if paired else []
    if paired and [c.rank for c in chains] != [c.rank for c in partners]:
        raise ChainExtractionError(f"chain ranks for {lam:.6g} and {-lam:.6g} do not pair up")
    got_m = len(chains)
    if cls.geometric is not None and got_m != cls.geometric:
        raise ChainExtractionError(
            f"found {got_m} chains for {lam:.6g}, expected geometric multiplicity "
            f"{cls.geometric}"
        )
    if sum(c.rank for c in chains) != cls.algebraic:
        raise ChainExtractionError(
            f"chain ranks for {lam:.6g} sum to {sum(c.rank for c in chains)}, "
            f"expected {cls.algebraic}"
        )
    return ClassChains(eigen_class=cls, chains=chains, partners=partners)

