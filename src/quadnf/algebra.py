"""Truncated polynomial algebra and generalized symplectic orthonormalization.

For an eigenvalue lam of the equation-of-motion matrix K, matrices of
the form ``Phi = sum_k phi_k (K - lam I)^(k-1)`` form a commutative
algebra under coefficient convolution (the shift ``K - lam I`` is
nilpotent on the generalized eigenspace).  The generalized symplectic
Gram form ``Omega(x, y)`` with coefficients
``omega_k = ((K - lam I)^(D-k) x)^T J y`` lives in the same algebra and
generalizes the symplectic inner product ``alpha`` (its leading
coefficient).  A polynomial is its 1-D complex coefficient array,
``p[k-1] = phi_k``.  It carries no eigenvalue: ``apply_poly`` and
``poly_star`` take lam, so an adjoint can act on partner chains at -lam.

Orthonormalizing the Jordan chains against this form is what makes the
normal-form columns symplectic.  Every routine below runs one recipe on
shared helpers: ``_pivot`` picks the pivot by a single rule (descending
rank; at the first rank with a pairing above its threshold, the largest
such pairing, the first on ties), the pivot is normalized through a
square root in the algebra (``_dual_normalize`` for a pivot pair), and
``_deflate`` removes it from the remaining chains.  Real pairs and
quadruplets pair chains at lam with partners at -lam.  Imaginary and
zero chains are their own partners up to conjugation, which does
nothing at lam = 0, so cases 3, 5 and 6 share one self-dual routine;
the odd-rank zero chains (case 4) add the f/h pairing.  A simple class
away from zero (one rank-1 chain, plus its partner for a real pair or
quadruplet) has one-coefficient polynomials only, so its routine runs the
same recipe in scalars, over a leading chain axis that a stack of matrices
shares (``_simple_pairing`` and ``_simple_pair``, ``_simple_self_pairing``
and ``_simple_self_dual``).  A Bogoliubov diagonalization is the imaginary
routine on rank-1 chains, where the square root reduces to a real scaling.
"""

from __future__ import annotations

import numpy as np

from .config import maxnorm
from .core import form_product
from .errors import ContractViolationError, NondegeneracyError
from .spectrum import JordanChain, make_chain

__all__ = [
    "poly_product",
    "poly_sqrt",
    "poly_inverse",
    "poly_star",
    "apply_poly",
    "omega",
    "alpha",
    "orthonormalize_real_complex",
    "orthonormalize_zero",
    "zero_odd_pairing",
    "orthonormalize_imaginary",
]

# Relative threshold below which a symplectic Gram pairing counts as zero
# (triggers the superposition fixes).
ALPHA_TOL = 1e-9


def poly_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product in the truncated algebra: coefficient convolution."""
    d = len(a)
    if len(b) != d:
        raise ContractViolationError(f"polynomial lengths differ: {d} vs {len(b)}")
    out = np.zeros(d, dtype=complex)
    for k in range(d):
        out[k] = np.dot(a[: k + 1], b[k::-1])
    return out


def _root(lead):
    """The principal square root of a leading coefficient, as ``poly_sqrt`` takes it
    (of each one of an array)."""
    zero = lead == 0
    if zero.any() if isinstance(zero, np.ndarray) else zero:
        raise NondegeneracyError("cannot take the square root of a nilpotent element")
    return np.sqrt(lead)


def poly_sqrt(w: np.ndarray) -> np.ndarray:
    """Square root in the algebra, solved coefficient by coefficient.

    The leading coefficient takes the principal complex square root;
    the rest follow from the convolution recursion.  Requires an
    invertible leading coefficient.
    """
    phi = np.zeros(len(w), dtype=complex)
    phi[0] = _root(w[0])
    for k in range(1, len(w)):
        conv = np.dot(phi[1:k], phi[k - 1:0:-1]) if k >= 2 else 0.0
        phi[k] = (w[k] - conv) / (2.0 * phi[0])
    return phi


def poly_inverse(p: np.ndarray) -> np.ndarray:
    """Multiplicative inverse in the algebra (leading coefficient nonzero)."""
    if p[0] == 0:
        raise NondegeneracyError("polynomial with vanishing leading coefficient is singular")
    q = np.zeros(len(p), dtype=complex)
    q[0] = 1.0 / p[0]
    for k in range(1, len(p)):
        q[k] = -np.dot(p[1: k + 1], q[k - 1:: -1]) / p[0]
    return q


def poly_star(p: np.ndarray, lam: complex) -> np.ndarray:
    """Adjoint under the symplectic pairing at eigenvalue lam: alternate
    signs, and conjugate the coefficients iff lam is purely imaginary
    and nonzero."""
    lam = complex(lam)
    coef = p.conj() if lam.real == 0 and lam != 0 else p
    return coef * np.array([(-1.0) ** k for k in range(len(p))])


def apply_poly(p: np.ndarray, k, lam: complex, x: np.ndarray) -> np.ndarray:
    """Evaluate ``p`` as a matrix polynomial in (K - lam I) acting on x.

    Powers are accumulated by repeated application, never by explicit
    matrix powers.  The arithmetic is real (and so is the result) when
    lam, x and every coefficient are.
    """
    k = np.asarray(k)
    lam = complex(lam)
    real = lam.imag == 0 and not np.iscomplexobj(x) and not np.any(p.imag)
    coefs = p.real.tolist() if real else p.tolist()
    acc = coefs[0] * x
    if len(coefs) > 1:
        shift = k - lam * np.eye(k.shape[0])
        shift = shift.real if real else shift
        vec = x
        for c in coefs[1:]:
            vec = shift @ vec
            acc = acc + c * vec
    return acc


def omega(k, lam: complex, x: np.ndarray, y: np.ndarray, rank: int) -> np.ndarray:
    """Generalized symplectic Gram form of x against y at eigenvalue lam.

    ``omega_k = ((K - lam I)^(rank-k) x)^T J y`` for k = 1..rank.  The
    rank is that of the pivot chain driving the computation; powers at
    or beyond the actual rank of x vanish, so a longer rank only pads
    leading zeros.
    """
    return np.array([form_product(v, y) for v in make_chain(k, lam, x, rank).vectors],
                    dtype=complex)


def alpha(k, lam: complex, x: np.ndarray, y: np.ndarray, rank: int) -> complex:
    """Leading Gram coefficient ((K - lam I)^(rank-1) x)^T J y."""
    return form_product(make_chain(k, lam, x, rank).vectors[0], y)


def _alpha_threshold(x: np.ndarray, y: np.ndarray | None = None):
    """Threshold for a vanishing pairing of x with y (with itself if y is None),
    over any leading axes of stacked vectors."""
    sx = 1.0 + maxnorm(x, -1)
    return ALPHA_TOL * sx * (sx if y is None else 1.0 + maxnorm(y, -1))


def _unit(v: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v


def _pivot(ranks, candidates):
    """The pivot rule every routine shares.

    ``candidates(r)`` yields ``(score, threshold, payload)`` for rank r.
    Returns ``(score, payload, r)`` for the first rank of ``ranks`` with
    a usable candidate (``|score| > threshold``): the one of largest
    ``|score|``, the first on ties.  None if no rank has one.
    """
    for r in ranks:
        best = None
        for score, threshold, payload in candidates(r):
            if abs(score) > threshold and (best is None or abs(score) > abs(best[0])):
                best = (score, payload, r)
        if best is not None:
            return best
    return None


def _pair_candidates(work, pairing):
    """``_pivot`` candidates: equal-rank pairs i < j of work, row-major,
    scored by ``pairing(g_i, g_j, r)``, with payload ``(i, j)``."""
    def candidates(r):
        idxs = [i for i, (_, rg) in enumerate(work) if rg == r]
        for ii, i in enumerate(idxs):
            for j in idxs[ii + 1:]:
                gi, gj = work[i][0], work[j][0]
                yield pairing(gi, gj, r), _alpha_threshold(gi, gj), (i, j)
    return candidates


def _dual_normalize(k, lam: complex, w: np.ndarray, x: np.ndarray, y: np.ndarray,
                    lam_y: complex):
    """``(x Phi^-1, y Phi*^-1)`` for ``Phi = sqrt(W)``: turns a Gram pairing
    ``Omega(x, y) = W`` at eigenvalue lam into the identity, y taken at
    eigenvalue lam_y."""
    phi = poly_sqrt(w)
    x_new = apply_poly(poly_inverse(phi), k, lam, x)
    y_new = apply_poly(poly_inverse(poly_star(phi, lam)), k, lam_y, y)
    return x_new, y_new


def _deflate(work, update):
    """Rewrite each remaining generator g as the unit vector along update(g)."""
    for idx, (g, r) in enumerate(work):
        work[idx] = (_unit(update(g)), r)


def _per_chain(x):
    """A chain's scalar as it is, or a stack's scalars as a column against its vectors."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _simple_pairing(g: np.ndarray, gt: np.ndarray):
    """alpha = g^T J gt of the rank-1 chain g of a simple class and its partner
    gt, or of each of a stack of them, and whether |alpha| is above its
    threshold."""
    a = form_product(g, gt)
    size = abs(a) if isinstance(a, complex) else np.hypot(a.real, a.imag)  # both hypot
    return a, size > _alpha_threshold(g, gt)


def _simple_pair(g: np.ndarray, gt: np.ndarray, a):
    """e and e~ of the rank-1 chain g and partner gt of a simple class, or of each
    of a stack of them, given the pairing ``a`` (above its threshold).

    One-coefficient polynomials make the recipe scalar: gt / alpha, then
    phi = sqrt(W) and 1 / phi.  The partner's 1 / phi* is 1 / phi to the
    bit: phi* is phi up to the sign of a zero imaginary part, which 1 / phi
    ignores.  A real chain (of a real pair) stays real unless a 1 / phi of
    the stack is not, as in ``apply_poly``'s real and complex branches.
    """
    gt = gt / _per_chain(a)
    inv = 1.0 / _root(form_product(g, gt))
    real = not np.iscomplexobj(g) and not np.count_nonzero(inv.imag)
    return _per_chain(inv.real if real else inv) * g, _per_chain(inv) * gt


def _simple_self_pairing(g: np.ndarray):
    """W = g^T J conj(g) of the rank-1 chain g of a simple imaginary class, or of
    each of a stack of them, and whether |Im W| is above its threshold."""
    w = form_product(g, g.conj())
    return w, abs(w.imag) > _alpha_threshold(g)


def _simple_self_dual(g: np.ndarray, w):
    """(e, sigma) of the rank-1 chain g of a simple imaginary class, or of each
    of a stack of them, given the self-pairing ``w`` (above its threshold):
    sigma = i sign(Im W), then e = g / sqrt(-sigma W), as the polynomial
    recipe takes (-1)^r sigma W at r = 1."""
    sigma = 1j * np.sign(w.imag)
    return _per_chain(1.0 / _root(-1 * sigma * w)) * g, sigma


def orthonormalize_real_complex(k, lam: complex, chains: list[JordanChain],
                                partners: list[JordanChain]):
    """Symplectic orthonormalization for a real pair or complex quadruplet.

    Transforms generators g (at lam) and partner generators (at -lam)
    into e, e~ with Omega(e_j, e~_j') = delta_jj' * identity.  Pivot
    pairs are chosen among equal-rank chains by ``_pivot`` on the
    pairing alpha(g, g~) (the Gram pairing between the generalized
    eigenspaces of lam and -lam is nondegenerate, so a usable pivot
    always exists in exact arithmetic).

    A simple class, one rank-1 chain and partner, takes the same steps
    in scalars, ``_simple_pairing`` and ``_simple_pair``.

    Returns a list of (chain, partner_chain) in descending rank order.
    """
    k = np.asarray(k, dtype=float)
    work = [(c.generator.copy(), c.rank) for c in chains]
    work_p = [(c.generator.copy(), c.rank) for c in partners]
    if len(chains) == len(partners) == 1 and chains[0].rank == partners[0].rank == 1:
        (g, _), (gt, _) = work[0], work_p[0]
        a, usable = _simple_pairing(g, gt)
        if usable:  # else the loop raises on it
            e_vec, et_vec = _simple_pair(g, gt, a)
            return [(make_chain(k, lam, e_vec, 1), make_chain(k, -lam, et_vec, 1))]
    done: list[tuple[JordanChain, JordanChain]] = []

    def candidates(r):
        for i, (g, rg) in enumerate(work):
            if rg != r:
                continue
            for j, (gt, rt) in enumerate(work_p):
                if rt == r:
                    yield alpha(k, lam, g, gt, r), _alpha_threshold(g, gt), (i, j)

    while work:
        pick = _pivot(sorted({r for _, r in work}, reverse=True), candidates)
        if pick is None:
            raise NondegeneracyError(
                f"no nonvanishing chain pairing left for eigenvalue {lam:.6g}"
            )
        a, (i, j), r = pick
        g, _ = work.pop(i)
        gt, _ = work_p.pop(j)
        gt = gt / a
        e_vec, et_vec = _dual_normalize(k, lam, omega(k, lam, g, gt, r), g, gt, -lam)
        done.append((make_chain(k, lam, e_vec, r), make_chain(k, -lam, et_vec, r)))

        _deflate(work, lambda g_o: g_o - apply_poly(omega(k, lam, g_o, et_vec, r), k, lam, e_vec))
        _deflate(work_p, lambda gt_o: gt_o - apply_poly(
            poly_star(omega(k, lam, e_vec, gt_o, r), lam), k, -lam, et_vec))

    done.sort(key=lambda pair: -pair[0].rank)
    return done


def _orthonormalize_self_dual(k, lam: complex, chains: list[JordanChain]):
    """Orthonormalization of chains that are their own symplectic partners.

    Each e_j gets Omega(e_j, conj(e_j')) = delta_jj' sigma_j, sigma_j = +-1
    at even rank and +-i at odd rank, the part of a pairing that can be
    nonzero.  At lam = 0 the arithmetic stays real, and odd ranks, whose
    self-pairing vanishes identically, never pivot: they are deflated
    against every pivot and left over.  When every self-pairing vanishes,
    nondegeneracy leaves a cross pairing, so one of g +- g' pairs with
    itself: the pair the pivot rule picks on it is replaced by those two
    (``NondegeneracyError`` if there is none).

    A simple class at lam != 0, one rank-1 chain, takes the same steps
    in scalars, ``_simple_self_pairing`` and ``_simple_self_dual``.

    Returns ``(done, rest)``: the (chain, sigma) pivots and the leftover
    chains, both in descending rank order.
    """
    k = np.asarray(k, dtype=float)
    real = lam == 0
    work = [(c.generator.astype(float if real else complex), c.rank) for c in chains]
    if not real and len(chains) == 1 and chains[0].rank == 1:
        g = work[0][0]
        w, usable = _simple_self_pairing(g)
        if usable:  # else the loop raises on it
            e_vec, sigma = _simple_self_dual(g, w)
            return [(make_chain(k, lam, e_vec, 1), sigma)], []
    done: list[tuple[JordanChain, complex]] = []

    def part(a: complex, r: int) -> float:
        return a.real if r % 2 == 0 else a.imag

    def candidates(r):
        for i, (g, rg) in enumerate(work):
            if rg == r:
                w = omega(k, lam, g, g.conj(), r)
                yield part(complex(w[0]), r), _alpha_threshold(g), (w, i)

    cross_pairs = _pair_candidates(work, lambda gi, gj, r: part(alpha(k, lam, gi, gj.conj(), r), r))
    while ranks := sorted({r for _, r in work if not real or r % 2 == 0}, reverse=True):
        pick = _pivot(ranks, candidates)
        if pick is None:
            stuck = _pivot(ranks, cross_pairs)
            if stuck is None:
                what = "even-rank zero chains" if real else f"imaginary chains at {lam:.6g}"
                raise NondegeneracyError(f"{what} have a fully degenerate Gram pairing")
            _, (i, j), r = stuck
            gi, gj = work[i][0], work[j][0]
            work[i], work[j] = (_unit(gi + gj), r), (_unit(gi - gj), r)
            continue
        key, (w, i), r = pick
        g, _ = work.pop(i)
        sigma = np.sign(key) if r % 2 == 0 else 1j * np.sign(key)
        # (-1)^r sigma W leads with |key| > 0 up to round-off, so phi leads with
        # a positive real: a rank-1 e is g times a positive real, with no phase.
        phi = poly_sqrt((-1) ** r * sigma * w)
        e_vec = apply_poly(poly_inverse(phi), k, lam, g)
        done.append((make_chain(k, lam, e_vec, r), sigma))
        _deflate(work, lambda g_o: g_o - sigma * apply_poly(
            poly_star(omega(k, lam, e_vec, g_o.conj(), r), lam), k, lam, e_vec))

    done.sort(key=lambda pair: -pair[0].rank)
    return done, sorted((make_chain(k, lam, g, r) for g, r in work), key=lambda c: -c.rank)


def orthonormalize_zero(k, chains: list[JordanChain]):
    """Symplectic orthonormalization of the zero-eigenvalue chains.

    The imaginary routine at lam = 0.  Even-rank chains (case 3) come out
    with Omega(e_j, e_j') = delta_jj' sigma_j, sigma_j = +-1, and
    Omega-orthogonal to the odd-rank chains (case 4, self-pairing
    identically zero), which are returned for ``zero_odd_pairing``.

    Returns ``(case3, case4)`` where case3 is a list of (chain, sigma)
    in descending rank order and case4 the list of remaining chains.
    """
    return _orthonormalize_self_dual(k, 0.0, chains)


def zero_odd_pairing(k, chains: list[JordanChain]):
    """Pair odd-rank zero chains into (f, h) with Omega(f, h) = identity.

    The 2n chains of case 4 are combined pairwise (equal ranks, largest
    pairing first) into f/h pairs with ``Omega(f, f) = Omega(h, h) = 0``
    and ``Omega(f_j, h_j') = delta_jj' * identity``.  The quadratic
    correction ``Omega(e1,e1) - 2 Psi - Psi^2 Omega(e2,e2) = 0`` is
    solved coefficient-recursively, and the final
    ``h = e2 - Omega(e2,e2) f / 2`` step zeroes the self-pairing of h.

    Returns a list of (f_chain, h_chain) in descending rank order.
    """
    k = np.asarray(k, dtype=float)
    if len(chains) % 2 != 0:
        raise NondegeneracyError(
            f"odd-rank zero chains must come in pairs, got {len(chains)}"
        )
    work = [(c.generator.astype(float), c.rank) for c in chains]
    pairs: list[tuple[JordanChain, JordanChain]] = []
    candidates = _pair_candidates(work, lambda gi, gj, r: alpha(k, 0.0, gi, gj, r).real)

    while work:
        pick = _pivot(sorted({r for _, r in work}, reverse=True), candidates)
        if pick is None:
            raise NondegeneracyError(
                "no odd-rank zero chain pair with a nonzero Gram pairing"
            )
        a, (i, j), r = pick
        e1 = work[i][0]
        e2 = work[j][0] / a
        work[:] = [w for idx, w in enumerate(work) if idx not in (i, j)]

        e1, e2 = _dual_normalize(k, 0.0, omega(k, 0.0, e1, e2, r), e1, e2, 0.0)
        e1, e2 = e1.real, e2.real

        a11 = omega(k, 0.0, e1, e1, r)
        a22 = omega(k, 0.0, e2, e2, r)
        psi = _solve_quadratic_correction(a11, a22)
        f = e1 + apply_poly(psi, k, 0.0, e2).real

        f, e2 = _dual_normalize(k, 0.0, omega(k, 0.0, f, e2, r), f, e2, 0.0)
        f, e2 = f.real, e2.real

        b22 = omega(k, 0.0, e2, e2, r)
        h = e2 - 0.5 * apply_poly(b22, k, 0.0, f).real

        def update(g_o):
            corr = apply_poly(poly_star(omega(k, 0.0, h, g_o, r), 0.0), k, 0.0, f).real
            corr = corr - apply_poly(poly_star(omega(k, 0.0, f, g_o, r), 0.0), k, 0.0, h).real
            return g_o + corr

        _deflate(work, update)
        pairs.append((make_chain(k, 0.0, f, r), make_chain(k, 0.0, h, r)))

    pairs.sort(key=lambda pair: -pair[0].rank)
    return pairs


def _solve_quadratic_correction(a11: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Solve A - 2 Psi - Psi^2 B = 0 recursively (A, B have zero leading)."""
    psi = np.zeros(len(a11), dtype=complex)
    psi[0] = a11[0] / 2.0
    for kk in range(1, len(a11)):
        sq = poly_product(poly_product(psi, psi), a22)
        psi[kk] = (a11[kk] - sq[kk]) / 2.0
    return psi


def orthonormalize_imaginary(k, lam: complex, chains: list[JordanChain]):
    """Symplectic orthonormalization for an imaginary pair.

    Conjugate partners are implicit (the chains at conj(lam) are the
    exact conjugates).  Produces e_j with Omega(e_j, conj(e_j')) =
    delta_jj' sigma_j where sigma_j = +-1 for even rank (case 5) and
    +-i for odd rank (case 6).

    Returns a list of (chain, sigma) in descending rank order.
    """
    return _orthonormalize_self_dual(k, lam, chains)[0]
