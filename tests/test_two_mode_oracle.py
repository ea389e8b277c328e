"""The two-mode model on the curves where its non-generic normal forms live.

K = J M of ``two_mode_m(eta, lam)`` has the characteristic polynomial
s^4 + (1 + eta^2) s^2 + eta^2 - eta lam^2.  On the Krein collision curve
eta = -q^2, lam = (1 - q^4) / (2q) it has one defective imaginary pair
at omega^2 = (1 + eta^2) / 2; on the zero curve eta = q^2, lam = q a
defective zero eigenvalue and a simple imaginary pair.  At dyadic q
every entry of M is exact in floating point, so the input lies exactly
on the curve.  The expected Jordan structure is checked twice: against
the (case, rank, sigma) list of the report, and against the nullities
of p(K)^j computed in exact rational arithmetic, with p(K) = K at a
zero eigenvalue and K^2 + omega^2 I at an imaginary pair +-i omega.

Beside the curves, a step in lam^2 must give the generic structure of
each side, and bisecting lam on the structure must find the curve.
"""

import math
from fractions import Fraction

import pytest

from conftest import two_mode_m
from quadnf import normal_form, symplectic_form
from quadnf.reporting import signature_string

I = 1j

# (eta, lam, the report's (case, rank, sigma) list, omega^2 of the
# defective or repeated pair, or 0 for the zero eigenvalue)
POINTS = (
    [(-q * q, (1 - q ** 4) / (2 * q), [(5, 2, 1 if q < 1 else -1)], (1 + q ** 4) / 2)
     for q in (Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(4))]
    + [(q * q, q, [(3, 2, 1), (6, 1, -I)], 0)
       for q in (Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(4))]
    + [
        (-1, 0, [(6, 1, I), (6, 1, -I)], 1),
        (0, 0, [(4, 1, None), (6, 1, -I)], 0),
        (1, 0, [(6, 1, -I), (6, 1, -I)], 1),
        (1, 1, [(3, 2, 1), (6, 1, -I)], 0),
        (0, Fraction(1, 2), [(3, 2, -1), (6, 1, -I)], 0),
    ]
)


def _rank(rows) -> int:
    """Rank of a matrix of Fractions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def exact_nullities(eta, lam, omega2):
    """dim null(p(K)^j), j = 1..4, for K = J M in exact arithmetic."""
    m = [[Fraction(x) for x in row] for row in two_mode_m(float(eta), float(lam))]
    k = _product([[Fraction(int(x)) for x in row] for row in symplectic_form(2)], m)
    p = k if omega2 == 0 else [[x + (omega2 if r == c else 0) for c, x in enumerate(row)]
                               for r, row in enumerate(_product(k, k))]
    power, out = p, []
    for _ in range(4):
        out.append(4 - _rank(power))
        power = _product(power, p)
    return out


def report_nullities(blocks, omega2):
    """dim null(p(K)^j), j = 1..4, implied by the report's blocks at the roots of p.

    A chain of rank D adds min(j, D); case 4 is an f/h pair of chains,
    and a case-5/6 chain at i nu comes with its conjugate at -i nu.
    """
    out = [0] * 4
    for b in blocks:
        if b.eigenvalue.real != 0 or abs(b.eigenvalue.imag ** 2 - float(omega2)) > 1e-6:
            continue
        for i in range(4):
            out[i] += (2 if b.case in (4, 5, 6) else 1) * min(i + 1, b.rank)
    return out


def _sigma(s):
    return None if s is None else complex(round(s.real), round(s.imag))


@pytest.mark.parametrize("eta,lam,want,omega2", POINTS,
                         ids=[f"eta={e},lam={lam}" for e, lam, _, _ in POINTS])
def test_exact_structure(eta, lam, want, omega2):
    m = two_mode_m(float(eta), float(lam))
    assert Fraction(m[0, 1]) == lam and Fraction(m[1, 1]) == eta  # float-exact input
    rep = normal_form(m)
    assert [(b.case, b.rank, _sigma(b.sigma)) for b in rep.blocks] == want
    assert report_nullities(rep.blocks, omega2) == exact_nullities(eta, lam, omega2)


def critical_lambda2(eta):
    """lam^2 on the curve through eta: the Krein curve, where the discriminant
    (1 - eta^2)^2 + 4 eta lam^2 of the characteristic polynomial in s^2
    vanishes, for eta < 0; the zero curve, where its constant term
    eta (eta - lam^2) does, for eta > 0."""
    return (1 - eta * eta) ** 2 / (-4 * eta) if eta < 0 else eta


def _structure(eta, lam) -> str:
    return signature_string(normal_form(two_mode_m(float(eta), lam)), with_eigenvalues=False)


# (eta, structure at lam^2 above the curve, structure below it): a complex
# quadruplet beyond the Krein curve and a real pair beyond the zero curve,
# two simple imaginary pairs short of either.
SIDES = [
    (Fraction(-1, 2), "C(a1,m1,D1)", "I(a1,m1,D1,s-i)|I(a1,m1,D1,s+i)"),
    (Fraction(1, 2), "I(a1,m1,D1,s-i)|R(a1,m1,D1)", "I(a1,m1,D1,s-i)|I(a1,m1,D1,s-i)"),
]


@pytest.mark.parametrize("eta,above,below", SIDES, ids=[f"eta={e}" for e, _, _ in SIDES])
def test_generic_structure_beside_the_curve(eta, above, below):
    # A step of 1e-10 in lam^2 splits the curve's double eigenvalue by about
    # sqrt(1e-10) = 1e-5, far beyond the first clustering radius.
    lam2 = float(critical_lambda2(eta))
    assert _structure(eta, math.sqrt(lam2 + 1e-10)) == above
    assert _structure(eta, math.sqrt(lam2 - 1e-10)) == below
    # Within the boundary width the split is below round-off: any structure will do.
    for delta in (1e-14, -1e-14):
        _structure(eta, math.sqrt(lam2 + delta))


@pytest.mark.parametrize("eta", [Fraction(-2), Fraction(-1, 2), Fraction(1, 2)], ids=str)
def test_bisected_boundary_lands_on_the_curve(eta):
    lam_c = math.sqrt(critical_lambda2(eta))
    lo, hi = lam_c - 0.25, lam_c + 0.25
    low_side = _structure(eta, lo)
    assert _structure(eta, hi) != low_side
    for _ in range(60):
        mid = (lo + hi) / 2
        if _structure(eta, mid) == low_side:
            lo = mid
        else:
            hi = mid
    assert abs(lo - lam_c) < 1e-8
