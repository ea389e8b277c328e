"""Spectral analysis of the equation-of-motion matrix.

The structure J K + K^T J = 0 forces the eigenvalues of K into four
families: real pairs {l, -l}, complex quadruplets {l, -l, conj(l),
-conj(l)}, the zero eigenvalue (even multiplicity), and imaginary pairs
{l, conj(l)}.  This module clusters the numerically computed spectrum,
snaps it onto the axes and symmetrizes it so the pairing rules hold
exactly.  Every value folds onto |Re| + i |Im|, where its four mirror
images meet, and an orbit is a set of folded values pairwise within one
clustering radius (``_folded_orbits``).  Each mirror orbit is decided
once, in ``cluster_eigenvalues``, which returns it as an
``EigenvalueClass`` of its kind;
``classify_spectrum`` adds the geometric multiplicities, and
``extract_class_chains`` the Jordan chains (generalized eigenvectors
with their ranks) of every class.  This module alone knows where a
class's chains come from: ``classify_spectrum`` records, per class, the
eig(K) columns of a simple one or K's restriction to a repeated one's
invariant subspace in a Schur form, and ``extract_class_chains`` turns
that record into the class's chains.  A class's chain ranks always add up
to its algebraic multiplicity, so the zero class has an even number of
odd-rank chains.  Which of the normal form's six chain cases a chain
falls in is decided in ``normal_form``, not here.  For a stack of K,
``_stack_simple_classes`` certifies at once the members whose classes are
all simple at t_0: their snapped eig(K) values lie pairwise more than
``_APART`` clustering radii apart, so that the same fold, taken on the
whole stack, decides their orbits as ``cluster_eigenvalues`` would, and
``classify_spectrum`` would take each class's eig(K) columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import maxnorm
from .errors import (
    AmbiguousSpectrumError,
    BorderlineRankWarning,
    ChainExtractionError,
    ContractViolationError,
    SpectrumStructureError,
)

__all__ = [
    "EigenvalueKind",
    "EigenvalueClass",
    "SpectrumReport",
    "JordanChain",
    "cluster_eigenvalues",
    "classify_spectrum",
    "geometric_multiplicity",
    "jordan_chains",
    "extract_class_chains",
]

# Relative eigenvalue clustering radius: two eigenvalues within
# CLUSTERING_TOL * (1 + max|K|) belong to one cluster, and a cluster within
# that distance of an axis is snapped onto it.  ``normal_form`` widens it.
CLUSTERING_TOL = 1e-7

# Relative singular-value threshold for nullspace/rank decisions.
RANK_TOL = 1e-7

# The certificate of ``_stack_simple_classes``: snapped eig(K) values pairwise more
# than _APART clustering radii apart.  Its proof needs gaps above 2 + 2 sqrt(2)
# radii.  A smaller spacing would move members from the per-matrix path to the
# stacked one, which gives the same reports.
_APART = 40


class EigenvalueKind(Enum):
    REAL_PAIR = "real_pair"
    COMPLEX_QUADRUPLET = "complex_quadruplet"
    ZERO = "zero"
    IMAGINARY_PAIR = "imaginary_pair"


# Number of eigenvalues in each kind's orbit under negation and conjugation.
_ORBIT_SIZE = {EigenvalueKind.ZERO: 1, EigenvalueKind.REAL_PAIR: 2,
               EigenvalueKind.IMAGINARY_PAIR: 2, EigenvalueKind.COMPLEX_QUADRUPLET: 4}


@dataclass(frozen=True)
class EigenvalueClass:
    """One eigenvalue family with its representative and multiplicities.

    The representative is the member with Re > 0 (real pairs and
    quadruplets, the latter also with Im > 0), Im > 0 (imaginary
    pairs), or 0.  ``algebraic``/``geometric`` are the multiplicities of
    each individual member; ``cluster_eigenvalues`` leaves ``geometric``
    None, and ``classify_spectrum`` fills it in.
    """

    kind: EigenvalueKind
    representative: complex
    algebraic: int
    geometric: int | None = None

    @property
    def members(self) -> tuple[complex, ...]:
        return _members(self.kind, self.representative)

    @property
    def weight(self) -> int:
        """Contribution of this class to the total dimension 2N: orbit size times algebraic."""
        return _ORBIT_SIZE[self.kind] * self.algebraic


def _members(kind: EigenvalueKind, lam: complex) -> tuple[complex, ...]:
    if kind is EigenvalueKind.ZERO:
        return (0j,)
    if kind is EigenvalueKind.REAL_PAIR:
        return (lam, -lam)
    if kind is EigenvalueKind.IMAGINARY_PAIR:
        return (lam, -lam)
    return (lam, -lam, lam.conjugate(), -lam.conjugate())


@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of an equation-of-motion matrix."""

    n_modes: int
    classes: tuple[EigenvalueClass, ...]

    @property
    def sum_rule_residual(self) -> int:
        return 2 * self.n_modes - sum(c.weight for c in self.classes)


def _radius(k, tol: float):
    """The clustering radius tol (1 + max|K|), of K or of each matrix of a stack."""
    return tol * (1.0 + maxnorm(k, (-2, -1)))


def _snap(x, eps):
    """Real or imaginary parts within eps of zero snapped onto the axis, to +0.0."""
    return np.where(np.abs(x) <= eps, 0.0, x)


def _orbit_mean(values):
    """(mean |Re|, mean |Im|) of an orbit's values, of one orbit or of arrays of
    them, each summed left to right in index order (as np.mean sums 1-4 values)."""
    re = im = 0
    for v in values:
        re = re + abs(v.real)
        im = im + abs(v.imag)
    return re / len(values), im / len(values)


def _kind(re: float, im: float) -> EigenvalueKind:
    """The kind of an orbit whose representative is re + i im, re, im >= 0."""
    return (EigenvalueKind.COMPLEX_QUADRUPLET if re and im else EigenvalueKind.REAL_PAIR
            if re else EigenvalueKind.IMAGINARY_PAIR if im else EigenvalueKind.ZERO)


def _folded_orbits(values, eps):
    """The mirror orbits of a spectrum, or of each spectrum of a stack, as
    (close, first, cliques).

    Each value folds onto re + i im = |Re| + i |Im|, so all four mirror
    images of a value fold onto one point.  ``close`` holds, per spectrum,
    which folded values lie within eps of each other, by hypot, which
    rounds as abs(complex) and ``_union_clusters`` do; ``first`` is each
    value's lowest close neighbour, itself included; and ``cliques`` says
    whether every value's row of ``close`` equals its lowest neighbour's,
    so that closeness is an equivalence.  An orbit is then the set of
    values that share a lowest neighbour.  ``eps`` broadcasts against
    ``values``: a number, or shape (S, 1) for a stack of S spectra.
    """
    re, im = np.abs(values.real), np.abs(values.imag)
    close = (np.hypot(re[..., :, None] - re[..., None, :], im[..., :, None] - im[..., None, :])
             <= np.asarray(eps)[..., None])
    first = close.argmax(axis=-1)
    cliques = (np.take_along_axis(close, first[..., None], axis=-2) == close).all(axis=(-2, -1))
    return close, first, cliques


def _union_clusters(values, mults, eps):
    """Greedy union of (value, multiplicity) pairs within distance eps: each pass
    merges the first close pair i < j, in row-major order, into its weighted mean at i.
    The values come back as Python complex, whatever type they merged in.
    Distance is hypot(Re, Im), which rounds as Python's abs(complex) does in the
    later clustering decisions; np.abs of a complex array can differ in the last bit."""
    values = list(values)
    mults = list(mults)
    while True:
        v = np.array(values, dtype=complex)
        if len(values) < 2:
            break
        d = v[:, None] - v
        close = np.hypot(d.real, d.imag) <= eps
        close.flat[::len(values) + 1] = False  # symmetric, so the first hit has i < j
        i, j = divmod(int(close.argmax()), len(values))
        if not close[i, j]:
            break
        total = mults[i] + mults[j]
        values[i] = (values[i] * mults[i] + values[j] * mults[j]) / total
        mults[i] = total
        del values[j], mults[j]
    return v.tolist(), mults


def cluster_eigenvalues(k, tol: float = CLUSTERING_TOL, *, _eigenvalues=None):
    """Clustered, axis-snapped, symmetrized eigenvalue classes of K.

    Returns one ``EigenvalueClass`` per mirror orbit, its kind and
    algebraic multiplicity decided here and ``geometric`` left None,
    sorted by (-Re, -Im) of the representative; the orbits are exactly
    mirror symmetric, and their weights sum to 2N.

    Jordan structure is discontinuous under perturbation, so eigenvalues
    within eps = ``tol * (1 + max|K|)`` of each other merge into one
    cluster and clusters that close to an axis are snapped onto it;
    ``tol`` is ``CLUSTERING_TOL`` unless given (``normal_form`` widens it).
    The clusters' mirror images pair at the same eps: folded onto
    |Re| + i |Im|, the clusters of one orbit lie pairwise within eps
    (``_folded_orbits``), and the orbit's representative is their folded
    mean, summed in index order.  ``SpectrumStructureError`` is raised when
    the folded clusters within eps of each other do not fall into such
    cliques, when an orbit holds fewer clusters than its kind's orbit
    (a mirror image is missing), or when its clusters' multiplicities
    differ.  A ``tol`` that is not finite or is negative raises
    ``ContractViolationError``; 0 merges only equal values.
    """
    if not 0 <= tol < np.inf:
        raise ContractViolationError(f"tol must be a finite number >= 0, got {tol!r}")
    k = np.asarray(k, dtype=float)
    eps = float(_radius(k, tol))
    raw = np.linalg.eigvals(k) if _eigenvalues is None else _eigenvalues

    values, mults = _union_clusters(list(raw), [1] * len(raw), eps)
    # Snap onto the real/imaginary axes, then re-merge anything that collided.
    v = np.array(values)
    snapped = [complex(re, im) for re, im in zip(_snap(v.real, eps).tolist(),
                                                 _snap(v.imag, eps).tolist())]
    values, mults = _union_clusters(snapped, mults, eps) if snapped != values else (snapped, mults)

    # Group into mirror orbits: the values whose folded images share a lowest
    # neighbour, when every value's neighbourhood is one such orbit.
    close, first, cliques = _folded_orbits(np.array(values, dtype=complex), eps)
    if not cliques:
        i = next(i for i, row in enumerate(close) if (row != close[first[i]]).any())
        raise SpectrumStructureError(
            f"folded eigenvalues near {values[i]:.6g} are not pairwise within {eps:.3e}")
    orbits: dict = {}  # lowest value -> the orbit's values, in index order
    for j, i in enumerate(first.tolist()):
        orbits.setdefault(i, []).append(j)
    out: list[EigenvalueClass] = []
    for i, orbit in orbits.items():
        re, im = _orbit_mean([values[j] for j in orbit])  # onto exact mirror symmetry
        kind = _kind(re, im)
        if len(orbit) != _ORBIT_SIZE[kind]:
            raise SpectrumStructureError(
                f"eigenvalue {values[i]:.6g} has {len(orbit)} of its {_ORBIT_SIZE[kind]} "
                f"mirror images within {eps:.3e}")
        if any(mults[j] != mults[i] for j in orbit):
            raise SpectrumStructureError(
                f"mirror eigenvalues of {values[i]:.6g} have unequal multiplicities")
        out.append(EigenvalueClass(kind, complex(re, im), mults[i]))
    out.sort(key=lambda c: (-c.representative.real, -c.representative.imag))
    return out


def _kernel(a: np.ndarray, cut):
    """One SVD of ``a`` as (s, basis, thresh): all singular values, largest first,
    the cut thresh = ``cut(sigma_max)``, and as columns the right singular vectors
    of the values <= thresh; all of them for a zero matrix, such as a nilpotent
    power whose true value is zero."""
    if maxnorm(a) == 0.0:
        return np.zeros(a.shape[1]), np.eye(a.shape[1], dtype=a.dtype), cut(0.0)
    _, s, vh = np.linalg.svd(a)
    thresh = cut(s[0])
    return s, np.conjugate(vh[len(s) - int(np.sum(s <= thresh)):]).T, thresh


def _restrict(k: np.ndarray, lam: complex, algebraic: int, schur: dict):
    """K on the invariant subspace of its ``algebraic`` eigenvalues nearest lam.

    Returns (q, a, level1, schur): q an orthonormal basis, so K q = q (a +
    lam I) for a = q^H K q - lam I (real for real lam), and level1 the
    ``_kernel`` of a cut at RANK_TOL (1 + sigma_max), the one cut
    ``geometric_multiplicity`` reads.  ``schur`` keeps K's real or complex
    Schur form (gees) for the next lam; trsen reorders a copy.  A
    LAPACK failure, or a reordering that takes one more eigenvalue to keep
    a real 2 x 2 block whole, raises ``AmbiguousSpectrumError``.
    """
    from scipy.linalg import lapack  # SciPy costs ~0.2 s to import; simple classes skip it
    form = "complex Schur" if lam.imag else "real Schur"
    if form not in schur:
        if lam.imag:
            t, _, w, z, _, info = lapack.zgees(lambda _: 0, k.astype(complex))
        else:
            t, _, wr, wi, z, _, info = lapack.dgees(lambda *_: 0, k)
            w = wr + 1j * wi
        if info:
            raise AmbiguousSpectrumError(f"Schur form of K failed (LAPACK info {info})")
        schur[form] = t, z, w
    t, z, w = schur[form]
    select = np.zeros(len(w), dtype=np.int32)
    select[np.argsort(np.abs(w - lam), kind="stable")[:algebraic]] = 1
    if lam.imag:
        t, z, _, dim, _, _, info = lapack.ztrsen(select, t, z, job="N")
    else:
        t, z, _, _, dim, _, _, info = lapack.dtrsen(select, t, z, job="N")
    if info or dim != algebraic:
        raise AmbiguousSpectrumError(
            f"invariant subspace of the {algebraic} eigenvalues nearest {lam:.6g} not "
            f"separated (dimension {dim}, LAPACK info {info})"
        )
    a = t[:algebraic, :algebraic] - lam * np.eye(algebraic)
    a = a if lam.imag else a.real
    return z[:, :algebraic], a, _kernel(a, lambda top: RANK_TOL * (1.0 + top)), schur


def geometric_multiplicity(k, lam: complex, *, _level1=None) -> int:
    """Dimension of null(K - lam I): the singular values at or below RANK_TOL
    (1 + sigma_max) of K - lam I restricted to the invariant subspace of the
    eig(K) values within ``CLUSTERING_TOL * (1 + max|K|)`` of lam.

    A singular value within a factor 10 of the cut makes the rank
    decision fragile; a ``BorderlineRankWarning`` is emitted in that case
    (the returned value still reflects that cut).  Given ``_level1`` (what
    ``classify_spectrum`` found for lam's class: that restriction, or the
    eig(K) columns of a simple lam) it reads that instead.
    """
    if _level1 is None:
        k = np.asarray(k, dtype=float)
        eps = CLUSTERING_TOL * (1.0 + maxnorm(k))
        d = np.linalg.eigvals(k) - lam
        _level1 = _restrict(k, lam, int(np.sum(np.hypot(d.real, d.imag) <= eps)), {})
    if isinstance(_level1, np.ndarray):
        return 1
    s, basis, thresh = _level1[2]
    borderline = [float(v) for v in s if thresh / 10 < v <= 10 * thresh]
    if borderline:
        warnings.warn(
            f"singular values {borderline} of K - ({lam:.6g}) I, restricted, lie within a "
            f"factor 10 of the rank threshold {thresh:.3e}",
            BorderlineRankWarning,
            stacklevel=2,
        )
    return basis.shape[1]


def classify_spectrum(k, classes=None, *, _eigenvalues=None, _eigenvectors=None,
                      _shifts=None) -> SpectrumReport:
    """The eigenvalue classes of K with their geometric multiplicities.

    ``classes`` are ``cluster_eigenvalues``'s; this fills in each one's
    ``geometric``, and the exact sum rule
    2N = a_0 + 2*sum_R a + 4*sum_C a + 2*sum_I a is checked.
    Without ``classes`` it clusters once, at ``CLUSTERING_TOL``, on
    ``_eigenvalues`` if given; a failure to pair up there is raised, not
    retried (``normal_form`` widens the radius).  ``_shifts`` receives one
    entry per class, under its representative: what ``extract_class_chains``
    takes as ``_level1``, K's restriction to lam's invariant subspace (see
    geometric_multiplicity), or for a simple class its eig(K) columns.

    Given ``_eigenvectors`` (of eig(K), for ``_eigenvalues``), a simple
    nonzero class takes no Schur form: its columns are lam's and, if
    paired, -lam's, each owned by exactly one raw eigenvalue nearest to it
    among all classes' members.  A simple class without such owners takes
    K's restriction, as a repeated class does.  The columns of every simple
    class are gathered in one indexing step, and each class's are a view of
    them.
    """
    k = np.asarray(k, dtype=float)
    if classes is None:
        classes = cluster_eigenvalues(k, _eigenvalues=_eigenvalues)
    simple, own = {}, []  # class index -> its columns' slice of the members in ``own``
    for i, cls in enumerate(classes):
        if _eigenvectors is not None and cls.algebraic == 1 and cls.kind is not EigenvalueKind.ZERO:
            taken = cls.members[:1 if cls.kind is EigenvalueKind.IMAGINARY_PAIR else 2]
            simple[i] = slice(len(own), len(own) + len(taken))
            own.extend(taken)
    # The eig(K) columns of every simple nonzero class, gathered at once: lam's
    # and, if paired, -lam's, each from the one raw eigenvalue that owns it.
    if own:
        centers = sorted((mu for cls in classes for mu in cls.members),
                         key=lambda z: (-z.real, -z.imag))
        owner = np.argmin(np.abs(np.asarray(_eigenvalues)[:, None] - np.array(centers)), axis=1)
        owned = np.bincount(owner, minlength=len(centers))  # raw eigenvalues per member
        raw_of = np.zeros(len(centers), dtype=int)  # 0 for a member no raw value owns
        raw_of[owner] = np.arange(len(owner))
        index = {mu: i for i, mu in enumerate(centers)}
        own = [index[mu] for mu in own]
        single = (owned[own] == 1).tolist()
        columns = _eigenvectors[:, raw_of[own]]
    schur: dict = {}  # K's real and complex Schur forms, shared by the restrictions
    filled = []
    for i, cls in enumerate(classes):
        rep = cls.representative
        if i in simple and all(single[simple[i]]):
            level1 = columns[:, simple[i]]
            level1 = level1.real if rep.imag == 0 else level1
        else:
            level1 = _restrict(k, rep, cls.algebraic, schur)
        if _shifts is not None:
            _shifts[rep] = level1
        geometric = geometric_multiplicity(k, rep, _level1=level1)
        filled.append(EigenvalueClass(cls.kind, rep, cls.algebraic, geometric))
    report = SpectrumReport(n_modes=k.shape[0] // 2, classes=tuple(filled))
    if report.sum_rule_residual:
        raise SpectrumStructureError(
            f"multiplicity sum rule violated by {report.sum_rule_residual}")
    return report


def _stack_simple_classes(ks: np.ndarray, eigenvalues: np.ndarray):
    """The members of a stack of K whose classes are certainly all simple, and their classes.

    ``eigenvalues`` holds each member's eig(K) values.  A member is sure
    when ``classify_spectrum(k, cluster_eigenvalues(k), ...)`` on its
    values, with its eig(K) columns, certainly gives classes of algebraic
    and geometric multiplicity 1, none at zero.  With eps the clustering
    radius, that holds when its snapped values lie pairwise more than
    ``_APART`` eps apart (the certificate) and ``_folded_orbits`` finds
    cliques whose orbits hold 2 or 4 values, their kind's orbit size.  The
    certificate proves the rest, by the triangle inequality:

    - snapping moves a value by at most sqrt(2) eps, so no raw value merges
      with another at eps, no snapped value collides with another, and
      ``cluster_eigenvalues`` hands the same snapped values, in the same
      order and with multiplicity 1, to ``_folded_orbits`` at the same eps:
      it finds the same orbits, and their means and kinds, as here;
    - two values of an orbit lie in different quadrants, since two values in
      one quadrant lie as far apart folded as unfolded, so each corner of a
      class is the own corner, the one in its quadrant, of exactly one value;
    - a raw value lies within eps + sqrt(2) eps of its own corner and more
      than _APART eps - eps - sqrt(2) eps from every other center, the own
      corner of another value, so the owner map is one to one, and lam's
      and -lam's columns are those of the values nearest lam and -lam.

    Any other member is left to the per-matrix path, which decides it.

    Returns (sure, member, classes, lam_col, neg_col): whether each member
    is sure and, for every class of a sure member, in report order, the
    member's index, its ``EigenvalueClass`` (geometric 1) and the eig(K)
    columns of lam and -lam.
    """
    dim = eigenvalues.shape[1]
    raw = eigenvalues.astype(complex)  # a stack of real spectra comes back real
    eps = _radius(ks, CLUSTERING_TOL)[:, None]
    values = np.empty_like(raw)
    values.real, values.imag = _snap(raw.real, eps), _snap(raw.imag, eps)
    gap = values[:, :, None] - values[:, None, :]
    apart = np.hypot(gap.real, gap.imag) > _APART * eps[..., None]
    sure = (apart | np.eye(dim, dtype=bool)).all(axis=(1, 2))  # the certificate
    close, first, cliques = _folded_orbits(values, eps)
    sure &= cliques

    member, opening = np.nonzero(first == np.arange(dim))  # each orbit's lowest value
    orbit = close[member, opening]
    size = orbit.sum(axis=1)
    re, im = np.zeros(len(member)), np.zeros(len(member))
    for n_values in (2, 4):
        pick = size == n_values
        at = np.nonzero(orbit[pick])[1].reshape(-1, n_values)  # in index order
        re[pick], im[pick] = _orbit_mean([values[member[pick], j] for j in at.T])
    kinds = [_kind(x, y) for x, y in zip(re.tolist(), im.tolist())]
    sure[member[[n not in (2, 4) or n != _ORBIT_SIZE[kind]
                 for kind, n in zip(kinds, size.tolist())]]] = False

    # Every class of a sure member in report order, and the columns nearest lam and -lam.
    keep = np.flatnonzero(sure[member])
    keep = keep[np.lexsort((-im[keep], -re[keep], member[keep]))]
    member = member[keep]
    lam = np.empty(len(keep), dtype=complex)
    lam.real, lam.imag = re[keep], im[keep]
    columns = []
    for center in (lam, -lam):
        gap = values[member] - center[:, None]
        columns.append(np.hypot(gap.real, gap.imag).argmin(axis=1))
    classes = [EigenvalueClass(kinds[c], rep, 1, 1) for c, rep in zip(keep.tolist(), lam.tolist())]
    return sure, member, classes, *columns


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


def jordan_chains(k, lam: complex, algebraic: int, *, _level1=None) -> list[JordanChain]:
    """Jordan chains for one eigenvalue via the nullspace filtration.

    Works on the restriction A = Q^H K Q - lam I of K to the invariant
    subspace of its ``algebraic`` eigenvalues nearest lam (Q orthonormal,
    from K's Schur form): computes V_k = null(A^k) for increasing k
    until its dimension saturates at the algebraic multiplicity, then
    picks chain generators top-down: rank-D generators are chosen (by
    largest residual, ties by lowest index) in V_D, orthogonally to
    V_{D-1} and to the rank-D members of chains already chosen.  Each
    generator w is lifted to Q w, whose chain is built on K.  Real
    eigenvalues (including zero) use the real Schur form, so their
    chains are exactly real.  ``_level1`` is the restriction if known.
    The chains come back in descending rank order, in the order chosen.

    Raises ``ChainExtractionError`` when the filtration stalls below the
    algebraic multiplicity.
    """
    k = np.asarray(k, dtype=float)
    q, a, level, _ = _restrict(k, lam, algebraic, {}) if _level1 is None else _level1

    bases = [np.zeros((algebraic, 0), dtype=a.dtype)]
    dims = [0]
    power, scale, prev_top = a, np.linalg.norm(k), 1.0
    while dims[-1] < algebraic:
        if len(dims) > 1:
            power = a @ power
            # Cut A^k against sigma_max(A^k) itself (for non-normal A,
            # norm(A)^k overshoots it by orders of magnitude and would
            # swallow structural singular values), plus a round-off floor
            # for A^k = 0, where sigma_max is pure multiplication noise:
            # A carries the round-off of K's Schur form, eps |K|_F.
            level = _kernel(power, lambda top: RANK_TOL * top + 1e3 * algebraic
                            * np.finfo(float).eps * scale * prev_top)
        prev_top, basis = level[0][0], level[1]
        if basis.shape[1] <= dims[-1]:
            raise ChainExtractionError(
                f"nullspace filtration stalled at dimension {dims[-1]} "
                f"(algebraic multiplicity {algebraic}) for eigenvalue {lam:.6g}"
            )
        bases.append(basis)
        dims.append(basis.shape[1])

    depth = len(dims) - 1
    risen = [dims[kk] - dims[kk - 1] for kk in range(1, depth + 1)]  # chains of rank >= k
    exact = [risen[kk] - (risen[kk + 1] if kk + 1 < depth else 0) for kk in range(depth)]

    chains: list[JordanChain] = []  # chains of A, in the coordinates of q
    for rank in range(depth, 0, -1):
        count = exact[rank - 1]
        if count == 0:
            continue
        # Subspace the new generators must be independent of: the lower
        # filtration level plus the rank-`rank` members of taller chains.
        blocked, _ = np.linalg.qr(np.hstack([bases[rank - 1]] + [
            chain.vectors[rank - 1][:, None] for chain in chains]))
        candidates = bases[rank] - blocked @ (blocked.conj().T @ bases[rank])
        for _ in range(count):
            norms = np.linalg.norm(candidates, axis=0)
            idx = int(np.argmax(norms))
            if norms[idx] <= RANK_TOL:
                raise ChainExtractionError(
                    f"could not find {count} independent rank-{rank} generators "
                    f"for eigenvalue {lam:.6g}"
                )
            g = candidates[:, idx] / norms[idx]
            candidates = candidates - np.outer(g, g.conj() @ candidates)
            chains.append(make_chain(a, 0.0, g, rank))
    return [make_chain(k, lam, q @ c.generator, c.rank) for c in chains]


def extract_class_chains(k, cls: EigenvalueClass, *,
                         _level1=None) -> tuple[list[JordanChain], list[JordanChain]]:
    """Chains of one eigenvalue class and their partners, as (chains, partners).

    For real pairs and quadruplets, the partners are the chains of the
    mirror eigenvalue -lam; for the zero class and imaginary pairs there
    are none (an imaginary pair's partner chains are the exact complex
    conjugates).  ``_level1`` is what ``classify_spectrum`` left in
    ``_shifts`` for the class.  A simple class's eig(K) columns are its
    rank-1 chains of lam and -lam, on strided views of those columns.
    Otherwise the chains come from the nullspace filtration of K's
    restriction to lam's invariant subspace, ``_level1`` if given, and the
    partner chains from that of -lam's restriction, read from the same
    Schur form.
    """
    lam = cls.representative
    paired = cls.kind in (EigenvalueKind.REAL_PAIR, EigenvalueKind.COMPLEX_QUADRUPLET)
    if isinstance(_level1, np.ndarray):
        return ([JordanChain(lam, 1, (_level1[:, 0],))],
                [JordanChain(-lam, 1, (_level1[:, 1],))] if paired else [])
    k = np.asarray(k, dtype=float)
    schur = {} if _level1 is None else _level1[3]
    chains = jordan_chains(k, lam, cls.algebraic, _level1=_level1)
    partners = jordan_chains(k, -lam, cls.algebraic, _level1=_restrict(
        k, -lam, cls.algebraic, schur)) if paired else []
    if paired and [c.rank for c in chains] != [c.rank for c in partners]:
        raise ChainExtractionError(f"chain ranks for {lam:.6g} and {-lam:.6g} do not pair up")
    return chains, partners
