import sys

import numpy as np
import pytest

from conftest import (
    GOLDEN_E11,
    GOLDEN_E11T,
    GOLDEN_E21,
    GOLDEN_F01,
    GOLDEN_G01,
    GOLDEN_G02,
    GOLDEN_G11,
    GOLDEN_G11T,
    GOLDEN_G21,
    GOLDEN_H01,
    GOLDEN_M,
    seeded_matrix,
)
from quadnf import build_eom, normal_form
from quadnf.algebra import (
    alpha,
    apply_poly,
    omega,
    orthonormalize_imaginary,
    orthonormalize_real_complex,
    orthonormalize_zero,
    poly_inverse,
    poly_product,
    poly_sqrt,
    poly_star,
    zero_odd_pairing,
)
from quadnf.errors import ContractViolationError, NondegeneracyError
from quadnf.spectrum import (
    EigenvalueKind,
    classify_spectrum,
    cluster_eigenvalues,
    extract_class_chains,
    make_chain,
)


def poly(*coefs):
    """A polynomial of the Gram algebra: its complex coefficient array."""
    return np.array(coefs, dtype=complex)


def coef(p):
    return np.round(p, 12)


class TestPolyOps:
    def test_product_identity(self):
        p = poly(1, 0)
        assert np.allclose(coef(poly_product(p, p)), [1, 0])

    def test_product_golden_gram(self):
        p = poly(-10, 13)
        assert np.allclose(coef(poly_product(p, p)), [100, -260])

    def test_product_symbolic_rank_two(self):
        a, b, c, d = 1.3, -0.4, 2.1, 0.9
        p = poly_product(poly(a, b), poly(c, d))
        assert np.allclose(coef(p), [a * c, a * d + b * c])

    def test_product_requires_matching_algebra(self):
        with pytest.raises(ContractViolationError, match="polynomial lengths differ: 2 vs 3"):
            poly_product(poly(1, 0), poly(1, 0, 0))

    def test_commutative_associative(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 5))
            ps = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(3)]
            ab = poly_product(ps[0], ps[1])
            ba = poly_product(ps[1], ps[0])
            assert np.allclose(ab, ba, atol=1e-12)
            left = poly_product(ab, ps[2])
            right = poly_product(ps[0], poly_product(ps[1], ps[2]))
            assert np.allclose(left, right, atol=1e-12)

    def test_sqrt_identity(self):
        p = poly_sqrt(poly(1, 0, 0, 0))
        assert np.allclose(coef(p), [1, 0, 0, 0])

    def test_sqrt_rank_two(self):
        p = poly_sqrt(poly(4, 4))
        assert np.allclose(coef(p), [2, 1])

    def test_sqrt_golden_gram_round_trip(self):
        w = poly(-10, 13)
        p = poly_sqrt(w)
        assert abs(p[0] - 1j * np.sqrt(10)) < 1e-12
        assert np.max(np.abs(poly_product(p, p) - w)) < 1e-12

    def test_sqrt_random_round_trip(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 6))
            w = rng.normal(size=d) + 1j * rng.normal(size=d)
            p = poly_sqrt(w)
            assert np.max(np.abs(poly_product(p, p) - w)) < 1e-12

    def test_sqrt_requires_invertible(self):
        with pytest.raises(NondegeneracyError):
            poly_sqrt(poly(0, 1))

    def test_inverse_scalar(self):
        assert np.allclose(coef(poly_inverse(poly(2, 0))), [0.5, 0])

    def test_inverse_nilpotent_series(self):
        assert np.allclose(coef(poly_inverse(poly(1, 3))), [1, -3])

    def test_inverse_round_trip(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 6))
            p = rng.normal(size=d) + 1j * rng.normal(size=d)
            q = poly_inverse(p)
            res = poly_product(p, q) - np.eye(1, d)[0]
            assert np.max(np.abs(res)) < 1e-12

    def test_inverse_requires_invertible(self):
        with pytest.raises(NondegeneracyError):
            poly_inverse(poly(0, 1))

    def test_star_real_eigenvalue(self):
        p = poly_star(poly(1.5, -0.5), 2.0)
        assert np.allclose(coef(p), [1.5, 0.5])

    def test_star_imaginary_conjugates(self):
        p = poly_star(poly(1 + 2j, 3 - 1j), 3j)
        assert np.allclose(coef(p), [1 - 2j, -(3 + 1j)])

    def test_star_zero_no_conjugation(self):
        p = poly_star(poly(1 + 2j, 3 - 1j), 0.0)
        assert np.allclose(coef(p), [1 + 2j, -(3 - 1j)])

    def test_star_involution_real_coefficients(self):
        p = poly(1.0, -2.0, 0.5)
        assert np.allclose(coef(poly_star(poly_star(p, 2.0), 2.0)), coef(p))


class TestCoefficientArrays:
    """A polynomial is a plain coefficient array, so nothing freezes it: every
    operation must leave its arguments as they were and return a new array."""

    def test_arguments_left_unchanged(self, rng):
        k = build_eom(GOLDEN_M)
        for d in range(1, 5):
            p, q = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2))
            x = rng.normal(size=8) + 1j * rng.normal(size=8)
            args = (p, q, x)
            before = [a.tobytes() for a in args]
            calls = [lambda: poly_product(p, q), lambda: poly_sqrt(p), lambda: poly_inverse(p)]
            for lam in (2.0, 3j, 0.0):
                calls += [lambda lam=lam: poly_star(p, lam),
                          lambda lam=lam: apply_poly(p, k, lam, x)]
            for call in calls:
                out = call()
                assert [a.tobytes() for a in args] == before
                assert not any(np.shares_memory(out, a) for a in args)

    @pytest.mark.parametrize("lam,p,x,real", [
        (2.0, poly(-10, 13), GOLDEN_G11, True),
        (2 + 0j, poly(3), GOLDEN_G11, True),
        (0.0, poly(1, 0, -2), GOLDEN_G11, True),
        (3j, poly(-10, 13), GOLDEN_G11, False),
        (2.0, poly(-10, 13), GOLDEN_G11.astype(complex), False),
        (2.0, poly(-10, 13 + 1e-300j), GOLDEN_G11, False),
        (2.0, poly(1j), GOLDEN_G11, False),
    ])
    def test_apply_real_exactly_when_all_inputs_are(self, lam, p, x, real):
        k = build_eom(GOLDEN_M)
        out = apply_poly(p, k, lam, x)
        assert out.dtype == (np.float64 if real else np.complex128)
        assert np.allclose(out, apply_poly(p, k, complex(lam), x.astype(complex)))


class TestApplyOmega:
    def test_apply_identity(self):
        k = build_eom(GOLDEN_M)
        x = GOLDEN_G11
        assert np.allclose(apply_poly(poly(1, 0), k, 2.0, x), x)

    def test_apply_shift(self):
        k = build_eom(GOLDEN_M)
        out = apply_poly(poly(0, 1), k, 2.0, GOLDEN_G11)
        assert np.allclose(out, (k - 2 * np.eye(8)) @ GOLDEN_G11)

    def test_apply_golden_gram_combination(self):
        k = build_eom(GOLDEN_M)
        out = apply_poly(poly(-10, 13), k, 2.0, GOLDEN_G11)
        manual = -10 * GOLDEN_G11 + 13 * ((k - 2 * np.eye(8)) @ GOLDEN_G11)
        assert np.allclose(out, manual)

    def test_omega_golden_real_pair(self):
        k = build_eom(GOLDEN_M)
        w = omega(k, 2.0, GOLDEN_G11, GOLDEN_G11T, 2)
        assert np.max(np.abs(w - [-10, 13])) < 1e-10

    def test_alpha_golden_zero_pair(self):
        k = build_eom(GOLDEN_M)
        assert abs(alpha(k, 0.0, GOLDEN_G01, GOLDEN_G02, 1) - 2) < 1e-10

    def test_alpha_golden_imaginary(self):
        k = build_eom(GOLDEN_M)
        a = alpha(k, 3j, GOLDEN_G21, GOLDEN_G21.conj(), 1)
        assert abs(a - (-2j)) < 1e-10


def random_gev_pair(k, lam, chains, partners, rng, conjugate=False):
    """Random full-rank gGEV of lam plus a partner vector (rank of the first)."""
    d = max(c.rank for c in chains)
    top = next(c for c in chains if c.rank == d)
    p = rng.normal(size=d) + 1j * rng.normal(size=d)
    while abs(p[0]) < 0.1:
        p = rng.normal(size=d) + 1j * rng.normal(size=d)
    x = apply_poly(p, k, lam, top.generator.astype(complex))
    if conjugate:
        src = [c.generator.conj() for c in chains]
    else:
        src = [c.generator for c in partners]
    y = sum(rng.normal() * np.asarray(g, dtype=complex) for g in src)
    return x, y, d


class TestOmegaIdentities:
    # deep chains split eigenvalues like eps^(1/D); widen the clustering
    # radius accordingly when driving the extraction directly
    def fixtures(self, rng):
        out = []
        for specs, lam in [
            ([(1, 1.2 + 0j, 3, None)], 1.2 + 0j),
            ([(3, 0j, 2, 1 + 0j), (4, 0j, 1, None)], 0j),
            ([(6, 1.5j, 3, -1j)], 1.5j),
            ([(2, 0.6 + 0.9j, 2, None)], 0.6 + 0.9j),
        ]:
            m, _ = seeded_matrix(specs, rng)
            k = build_eom(m)
            report = classify_spectrum(k, cluster_eigenvalues(k, tol=1e-5))
            cls = max(report.classes, key=lambda c: abs(c.representative - lam) < 1e-6)
            out.append((k, cls.representative, *extract_class_chains(k, cls)))
        return out

    def test_exchange_identities(self, rng):
        for k, lam, chains, partners in self.fixtures(rng):
            imag = lam.real == 0 and lam != 0
            for _ in range(40):
                x, y, d = random_gev_pair(
                    k, lam, chains, partners, rng, conjugate=imag or lam == 0
                )
                if lam == 0:
                    y = y.real.astype(complex)
                phi = rng.normal(size=d) + 1j * rng.normal(size=d)
                # moving a polynomial action off the partner argument turns
                # it into the starred action on the first argument; for an
                # imaginary eigenvalue the partner carries conjugated
                # coefficients, matching the conjugation in the star.
                moved = phi.conj() if imag else phi
                lhs = omega(k, lam, x, apply_poly(moved, k, -lam, y), d)
                rhs = omega(k, lam, apply_poly(poly_star(phi, lam), k, lam, x), y, d)
                scale = 1 + np.max(np.abs(lhs))
                assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

                # linearity of the Gram form in a polynomial acting on the
                # first argument, provided the action is invertible
                inv = np.concatenate([[1.0], rng.normal(size=d - 1)]).astype(complex)
                lhs2 = omega(k, lam, apply_poly(inv, k, lam, x), y, d)
                rhs2 = poly_product(inv, omega(k, lam, x, y, d))
                scale2 = 1 + np.max(np.abs(rhs2))
                assert np.max(np.abs(lhs2 - rhs2)) < 1e-10 * scale2

    def test_symmetry_identities(self, rng):
        # zero eigenvalue: alpha_0(x, y) = (-1)^D alpha_0(y, x) at equal rank
        m, _ = seeded_matrix([(3, 0j, 2, 1 + 0j), (3, 0j, 2, -1 + 0j)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        gens = [c.generator for c in chains]
        for _ in range(50):
            cx = rng.normal(size=len(gens))
            cy = rng.normal(size=len(gens))
            x = sum(c * g for c, g in zip(cx, gens))
            y = sum(c * g for c, g in zip(cy, gens))
            d = 2
            a_xy = alpha(k, 0.0, x, y, d)
            a_yx = alpha(k, 0.0, y, x, d)
            assert abs(a_xy - (-1) ** d * a_yx) < 1e-10 * (1 + abs(a_xy))

        # imaginary eigenvalue: alpha(x, conj y) = (-1)^D conj(alpha(y, conj x))
        m, _ = seeded_matrix([(5, 1.3j, 2, 1 + 0j), (5, 1.3j, 2, -1 + 0j)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        gens = [c.generator.astype(complex) for c in chains]
        for _ in range(50):
            cx = rng.normal(size=len(gens)) + 1j * rng.normal(size=len(gens))
            cy = rng.normal(size=len(gens)) + 1j * rng.normal(size=len(gens))
            x = sum(c * g for c, g in zip(cx, gens))
            y = sum(c * g for c, g in zip(cy, gens))
            d = 2
            lam = cls.representative
            a_xy = alpha(k, lam, x, y.conj(), d)
            a_yx = alpha(k, lam, y, x.conj(), d)
            assert abs(a_xy - (-1) ** d * np.conj(a_yx)) < 1e-10 * (1 + abs(a_xy))


class TestRealComplexOrthonormalization:
    def test_golden_seeded(self):
        k = build_eom(GOLDEN_M)
        chains = [make_chain(k, 2.0, GOLDEN_G11, 2)]
        partners = [make_chain(k, -2.0, GOLDEN_G11T, 2)]
        ((e, et),) = orthonormalize_real_complex(k, 2.0, chains, partners)
        w = omega(k, 2.0, e.generator, et.generator, 2)
        assert np.max(np.abs(w - [1, 0])) < 1e-10
        assert not np.iscomplexobj(e.generator)

    def test_published_vectors_are_orthonormal(self):
        k = build_eom(GOLDEN_M)
        w = omega(k, 2.0, GOLDEN_E11, GOLDEN_E11T, 2)
        assert np.max(np.abs(w - [1, 0])) < 1e-10

    def test_scalar_case(self, rng):
        m, _ = seeded_matrix([(1, 1.7 + 0j, 1, None)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, partners = extract_class_chains(k, cls)
        ((e, et),) = orthonormalize_real_complex(
            k, cls.representative, chains, partners
        )
        assert abs(alpha(k, cls.representative, e.generator, et.generator, 1) - 1) < 1e-10

    def test_multi_chain_gram_is_identity(self, rng):
        m, _ = seeded_matrix(
            [(1, 1.0 + 0j, 2, None), (1, 1.0 + 0j, 2, None), (1, 1.0 + 0j, 1, None)], rng
        )
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, partners = extract_class_chains(k, cls)
        pairs = orthonormalize_real_complex(k, 1.0, chains, partners)
        for i, (e, _) in enumerate(pairs):
            for j, (_, et) in enumerate(pairs):
                w = omega(k, 1.0, e.generator, et.generator, e.rank)
                want = np.eye(1, e.rank)[0] if i == j else 0
                assert np.max(np.abs(w - want)) < 1e-9

    def test_vanishing_pairing_rejected(self):
        k = build_eom([[0.0, 1.0], [1.0, 0.0]])
        e1 = np.eye(2)[0]
        chains = [make_chain(k, 1.0, e1, 1)]
        partners = [make_chain(k, -1.0, e1, 1)]
        with pytest.raises(NondegeneracyError,
                           match=r"^no nonvanishing chain pairing left for eigenvalue 1$"):
            orthonormalize_real_complex(k, 1.0, chains, partners)


class TestZeroOrthonormalization:
    def test_boundary_sign_positive_frequency(self):
        from conftest import two_mode_m

        k = build_eom(two_mode_m(1.0, 1.0))
        cls = next(c for c in classify_spectrum(k).classes if c.representative == 0)
        chains, _ = extract_class_chains(k, cls)
        case3, case4 = orthonormalize_zero(k, chains)
        assert case4 == []
        ((e, sigma),) = case3
        assert sigma == 1
        w = omega(k, 0.0, e.generator, e.generator, 2)
        assert np.max(np.abs(w - [1, 0])) < 1e-9

    def test_boundary_sign_zero_frequency(self):
        from conftest import two_mode_m

        k = build_eom(two_mode_m(0.0, 1.0))
        cls = next(c for c in classify_spectrum(k).classes if c.representative == 0)
        chains, _ = extract_class_chains(k, cls)
        ((e, sigma),) = orthonormalize_zero(k, chains)[0]
        assert sigma == -1

    def test_single_chain_negative_pairing(self, rng):
        m, _ = seeded_matrix([(3, 0j, 2, -1 + 0j)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        ((e, sigma),), case4 = orthonormalize_zero(k, chains)
        assert sigma == -1
        w = omega(k, 0.0, e.generator, e.generator, 2)
        assert np.max(np.abs(w - [-1, 0])) < 1e-9

    def test_golden_odd_chains_forwarded(self):
        k = build_eom(GOLDEN_M)
        chains = [make_chain(k, 0.0, GOLDEN_G01, 1), make_chain(k, 0.0, GOLDEN_G02, 1)]
        case3, case4 = orthonormalize_zero(k, chains)
        assert case3 == []
        assert len(case4) == 2
        assert np.allclose(case4[0].generator, GOLDEN_G01)

    def test_superposition_fix(self, rng):
        m, t0 = seeded_matrix([(3, 0j, 2, 1 + 0j), (3, 0j, 2, -1 + 0j)], rng)
        k = build_eom(m)
        e1, e2 = t0[:, 0], t0[:, 1]  # planted canonical generators
        w1, w2 = e1 + e2, e1 - e2
        assert abs(alpha(k, 0.0, w1, w1, 2)) < 1e-10
        assert abs(alpha(k, 0.0, w2, w2, 2)) < 1e-10
        chains = [make_chain(k, 0.0, w1, 2), make_chain(k, 0.0, w2, 2)]
        case3, case4 = orthonormalize_zero(k, chains)
        assert sorted(s for _, s in case3) == [-1, 1]
        assert case4 == []
        cross = omega(k, 0.0, case3[0][0].generator, case3[1][0].generator, 2)
        assert np.max(np.abs(cross)) < 1e-9

    def test_odd_chains_deflated_against_the_even_pivot(self, rng):
        # Planted columns: t0[:, 0] = g2 (rank 2, sigma = 1), t0[:, 1] = g1 and
        # t0[:, 3] = g1' (the case-4 pair).  g1 + K g2 is still a zero
        # eigenvector, but pairs with g2 until the pivot is deflated from it.
        m, t0 = seeded_matrix([(3, 0j, 2, 1 + 0j), (4, 0j, 1, None)], rng)
        k = build_eom(m)
        g2, g1, g1p = t0[:, 0], t0[:, 1], t0[:, 3]
        odd = g1 + k @ g2
        assert abs(np.max(np.abs(omega(k, 0.0, g2, odd, 2))) - 1) < 1e-9
        chains = [make_chain(k, 0.0, g2, 2), make_chain(k, 0.0, odd, 1),
                  make_chain(k, 0.0, g1p, 1)]
        ((e, sigma),), case4 = orthonormalize_zero(k, chains)
        assert sigma == 1 and [c.rank for c in case4] == [1, 1]
        for c in case4:
            assert np.max(np.abs(omega(k, 0.0, e.generator, c.generator, 2))) < 1e-9

    def test_fully_degenerate_rejected(self):
        k = build_eom(np.diag([1.0, 0.0]))
        chains = [make_chain(k, 0.0, np.eye(2)[1], 2)]
        with pytest.raises(
            NondegeneracyError,
            match="even-rank zero chains have a fully degenerate Gram pairing",
        ):
            orthonormalize_zero(k, chains)


class TestZeroOddPairing:
    def test_golden_pair_reproduced(self):
        k = build_eom(GOLDEN_M)
        chains = [make_chain(k, 0.0, GOLDEN_G01, 1), make_chain(k, 0.0, GOLDEN_G02, 1)]
        ((f, h),) = zero_odd_pairing(k, chains)
        assert np.allclose(f.generator, GOLDEN_F01, atol=1e-12)
        assert np.allclose(h.generator, GOLDEN_H01, atol=1e-12)
        assert abs(alpha(k, 0.0, f.generator, h.generator, 1) - 1) < 1e-12
        assert abs(alpha(k, 0.0, f.generator, f.generator, 1)) < 1e-12
        assert abs(alpha(k, 0.0, h.generator, h.generator, 1)) < 1e-12

    def test_rank_one_reduction(self, rng):
        m, _ = seeded_matrix([(4, 0j, 1, None)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        ((f, h),) = zero_odd_pairing(k, chains)
        assert abs(alpha(k, 0.0, f.generator, h.generator, 1) - 1) < 1e-10

    def test_rank_three_pair(self, rng):
        m, _ = seeded_matrix([(4, 0j, 3, None)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k, cluster_eigenvalues(k, tol=1e-5)).classes[0]
        chains, _ = extract_class_chains(k, cls)
        assert [c.rank for c in chains] == [3, 3]
        ((f, h),) = zero_odd_pairing(k, chains)
        wfh = omega(k, 0.0, f.generator, h.generator, 3)
        assert np.max(np.abs(wfh - [1, 0, 0])) < 1e-8
        assert np.max(np.abs(omega(k, 0.0, f.generator, f.generator, 3))) < 1e-8
        assert np.max(np.abs(omega(k, 0.0, h.generator, h.generator, 3))) < 1e-8

    def test_two_pairs_cross_orthogonal(self, rng):
        m, _ = seeded_matrix([(4, 0j, 1, None), (4, 0j, 1, None)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        pairs = zero_odd_pairing(k, chains)
        assert len(pairs) == 2
        (f1, h1), (f2, h2) = pairs
        for x in (f2.generator, h2.generator):
            assert abs(alpha(k, 0.0, f1.generator, x, 1)) < 1e-9
            assert abs(alpha(k, 0.0, h1.generator, x, 1)) < 1e-9

    def test_odd_count_rejected(self):
        # The only guard on the odd-rank zero count: the spectrum never hands
        # over an odd one, as the chain ranks sum to an even multiplicity.
        k = build_eom(GOLDEN_M)
        for gens in ([GOLDEN_G01], [GOLDEN_G01, GOLDEN_G02, GOLDEN_G01]):
            chains = [make_chain(k, 0.0, g, 1) for g in gens]
            with pytest.raises(NondegeneracyError,
                               match=f"odd-rank zero chains must come in pairs, got {len(gens)}"):
                zero_odd_pairing(k, chains)

    def test_vanishing_pairing_rejected(self):
        k = build_eom(np.zeros((2, 2)))
        e1 = np.eye(2)[0]
        chains = [make_chain(k, 0.0, e1, 1), make_chain(k, 0.0, e1, 1)]
        with pytest.raises(
            NondegeneracyError,
            match="no odd-rank zero chain pair with a nonzero Gram pairing",
        ):
            zero_odd_pairing(k, chains)


class TestImaginaryOrthonormalization:
    def test_golden_seeded(self):
        k = build_eom(GOLDEN_M)
        chains = [make_chain(k, 3j, GOLDEN_G21, 1)]
        ((e, sigma),) = orthonormalize_imaginary(k, 3j, chains)
        assert sigma == -1j
        a = alpha(k, 3j, e.generator, e.generator.conj(), 1)
        assert abs(a - sigma) < 1e-10
        # the published normalization is g / sqrt(2); ours may differ by a
        # unit phase, which cancels in the pairing
        assert abs(np.linalg.norm(e.generator) - np.linalg.norm(GOLDEN_E21)) < 1e-10

    def test_degenerate_rank_two(self, rng):
        m, _ = seeded_matrix([(5, 1.4j, 2, 1 + 0j)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        ((e, sigma),) = orthonormalize_imaginary(k, cls.representative, chains)
        assert sigma == 1
        w = omega(k, cls.representative, e.generator, e.generator.conj(), 2)
        assert np.max(np.abs(w - [sigma, 0])) < 1e-9

    def test_mixed_parity_class(self, rng):
        m, _ = seeded_matrix([(5, 1.5j, 2, 1 + 0j), (6, 1.5j, 1, -1j)], rng)
        k = build_eom(m)
        cls = classify_spectrum(k).classes[0]
        chains, _ = extract_class_chains(k, cls)
        results = orthonormalize_imaginary(k, cls.representative, chains)
        assert sorted((r.rank, s) for r, s in results) == [(1, -1j), (2, 1 + 0j)]
        for (ci, si) in results:
            for (cj, sj) in results:
                w = omega(
                    k, cls.representative, ci.generator, cj.generator.conj(), ci.rank
                )
                want = si * np.eye(1, ci.rank)[0] if ci is cj else 0
                assert np.max(np.abs(w - want)) < 1e-9

    def test_superposition_fix(self, rng):
        m, t0 = seeded_matrix([(6, 1.0j, 1, -1j), (6, 1.0j, 1, 1j)], rng)
        k = build_eom(m)
        e1 = (t0[:, 0] + 1j * t0[:, 2]) / np.sqrt(2)    # sigma = -i mode
        e2 = (t0[:, 1] - 1j * t0[:, 3]) / np.sqrt(2)    # sigma = +i mode
        w1, w2 = e1 + e2, e1 - e2
        assert abs(alpha(k, 1j, w1, w1.conj(), 1)) < 1e-10
        chains = [make_chain(k, 1j, w1, 1), make_chain(k, 1j, w2, 1)]
        results = orthonormalize_imaginary(k, 1j, chains)
        assert sorted((s for _, s in results), key=lambda z: z.imag) == [-1j, 1j]
        for e, sigma in results:
            assert abs(alpha(k, 1j, e.generator, e.generator.conj(), 1) - sigma) < 1e-10

    def test_fully_degenerate_rejected(self):
        k = build_eom(np.eye(2))
        chains = [make_chain(k, 1j, np.eye(2)[0], 1)]
        with pytest.raises(
            NondegeneracyError,
            match=r"^imaginary chains at 0\+1j have a fully degenerate Gram pairing$",
        ):
            orthonormalize_imaginary(k, 1j, chains)


class TestBogoliubovOrthonormalization:
    """The Bogoliubov case: orthonormalize_imaginary on rank-1 chains."""

    def test_single_oscillator(self):
        k = build_eom(np.eye(2))
        g = np.array([1.0, 1j])
        ((e, sigma),) = orthonormalize_imaginary(k, 1j, [make_chain(k, 1j, g, 1)])
        assert sigma == -1j
        v = e.generator
        a = v @ np.array([v.conj()[1], -v.conj()[0]])
        assert abs(a - sigma) < 1e-12

    def test_decoupled_oscillators(self):
        m = np.diag([2.0, 3.0, 2.0, 3.0])
        k = build_eom(m)
        w, v = np.linalg.eig(k)
        for lam in (2j, 3j):
            chains = [make_chain(k, lam, v[:, i], 1) for i, val in enumerate(w)
                      if abs(val - lam) < 1e-9]
            results = orthonormalize_imaginary(k, lam, chains)
            assert [s for _, s in results] == [-1j]

    def test_random_positive_definite(self, rng):
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        k = build_eom(m)
        report = classify_spectrum(k)
        for cls in report.classes:
            lam = cls.representative
            _, _, vh = np.linalg.svd(k - lam * np.eye(4))
            for e, sigma in orthonormalize_imaginary(k, lam, [make_chain(k, lam, vh[-1].conj(), 1)]):
                a_val = alpha(k, lam, e.generator, e.generator.conj(), 1)
                assert abs(a_val - sigma) < 1e-10

    def test_generator_scaled_by_positive_real(self, rng):
        # e = g / sqrt|alpha(g, conj g)|: no phase, so M = I keeps T = I
        a = rng.normal(size=(6, 6))
        k = build_eom(a @ a.T + 0.5 * np.eye(6))
        w, v = np.linalg.eig(k)
        for i in np.flatnonzero(w.imag > 0):
            lam = 1j * w[i].imag
            g = v[:, i] * np.exp(1j * rng.uniform(0, 2 * np.pi))
            ((e, _),) = orthonormalize_imaginary(k, lam, [make_chain(k, lam, g, 1)])
            c = np.vdot(g, e.generator) / np.vdot(g, g)
            assert abs(c.imag) <= 1e-12 * abs(c) and c.real > 0
            assert np.linalg.norm(e.generator - c * g) <= 1e-12 * np.linalg.norm(e.generator)


def _general_pair(k, lam, g, gt):
    """The polynomial recipe of orthonormalize_real_complex for one rank-1 pair."""
    g, gt = g.copy(), gt.copy()
    gt = gt / alpha(k, lam, g, gt, 1)
    phi = poly_sqrt(omega(k, lam, g, gt, 1))
    e = apply_poly(poly_inverse(phi), k, lam, g)
    et = apply_poly(poly_inverse(poly_star(phi, lam)), k, -lam, gt)
    return e, et


def _general_imaginary(k, lam, g):
    """The polynomial recipe of orthonormalize_imaginary for one rank-1 chain."""
    g = g.astype(complex)
    w = omega(k, lam, g, g.conj(), 1)
    sigma = 1j * np.sign(complex(w[0]).imag)
    phi = poly_sqrt((-1) ** 1 * sigma * w)
    return apply_poly(poly_inverse(phi), k, lam, g), sigma


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _simple_classes(m, monkeypatch):
    """(K, class, chains, partners) of every simple class of M, the chains as
    normal_form hands them to the orthonormalization: rank-1 chains on strided columns of
    eig(K)."""
    nf = sys.modules["quadnf.normal_form"]
    pair, single, seen = nf.orthonormalize_real_complex, nf.orthonormalize_imaginary, {}

    def paired(k, lam, chains, partners):
        seen[lam] = k, chains, partners
        return pair(k, lam, chains, partners)

    def unpaired(k, lam, chains):
        seen[lam] = k, chains, []
        return single(k, lam, chains)

    with monkeypatch.context() as patch:
        patch.setattr(nf, "orthonormalize_real_complex", paired)
        patch.setattr(nf, "orthonormalize_imaginary", unpaired)
        classes = normal_form(m).spectrum.classes
    return [(seen[c.representative][0], c, *seen[c.representative][1:]) for c in classes]


class TestSimpleClassScalars:
    """A simple class is normalized by scalars, bit for bit as the polynomial recipe."""

    SPECS = [(1, 1.7 + 0j, 1, None), (2, 0.6 + 1.2j, 1, None), (6, 1.3j, 1, -1j),
             (6, 2.1j, 1, 1j), (1, 0.4 + 0j, 1, None)]

    def test_matches_polynomial_recipe(self, rng, monkeypatch):
        def strided(chain):
            g = chain.generator
            return make_chain(k, chain.eigenvalue, np.stack([g, g], axis=1)[:, 0], 1)

        seen = set()
        for _ in range(6):
            m, _ = seeded_matrix(self.SPECS, rng)
            for k, cls, simple, simple_partners in _simple_classes(m, monkeypatch):
                lam = cls.representative
                if cls.kind is EigenvalueKind.REAL_PAIR:  # the real part of a complex column
                    assert not simple[0].generator.flags.c_contiguous
                for chains, partners in ((simple, simple_partners),
                                         ([strided(c) for c in simple],
                                          [strided(c) for c in simple_partners])):
                    g = chains[0].generator
                    if cls.kind is EigenvalueKind.IMAGINARY_PAIR:
                        ((e, sigma),) = orthonormalize_imaginary(k, lam, chains)
                        want, want_sigma = _general_imaginary(k, lam, g)
                        assert sigma == want_sigma and type(sigma) is type(want_sigma)
                        assert _same_bits(e.generator, want)
                    else:
                        ((e, et),) = orthonormalize_real_complex(k, lam, chains, partners)
                        want, want_t = _general_pair(k, lam, g, partners[0].generator)
                        assert _same_bits(e.generator, want)
                        assert _same_bits(et.generator, want_t)
                        assert (e.eigenvalue, et.eigenvalue) == (lam, -lam)
                seen.add(cls.kind)
        assert len(seen) == 3
