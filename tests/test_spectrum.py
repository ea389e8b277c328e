import numpy as np
import pytest

from conftest import (
    GOLDEN_G01,
    GOLDEN_G02,
    GOLDEN_G11,
    GOLDEN_M,
    seeded_matrix,
    two_mode_m,
)
from quadnf import build_eom, normal_form, symplectic_form
from quadnf.errors import AmbiguousSpectrumError
from quadnf.spectrum import (
    EigenvalueKind,
    classify_spectrum,
    cluster_eigenvalues,
    extract_class_chains,
    geometric_multiplicity,
    jordan_chains,
)


def cluster_dict(clusters):
    return {complex(np.round(v, 6)): m for v, m in clusters}


class TestClustering:
    def test_golden_example(self):
        k = build_eom(GOLDEN_M)
        got = cluster_eigenvalues(k)
        assert cluster_dict(got) == {2: 2, -2: 2, 0: 2, 3j: 1, -3j: 1}
        for v, _ in got:
            exact = min(abs(v - t) for t in (2, -2, 0, 3j, -3j))
            assert exact < 1e-8

    def test_rotation_generator(self):
        got = cluster_dict(cluster_eigenvalues(symplectic_form(2)))
        assert got == {1j: 2, -1j: 2}

    def test_two_mode_zero_boundary(self):
        # quartic lambda^4 + 2 lambda^2 = lambda^2 (lambda^2 + 2)
        k = build_eom(two_mode_m(1.0, 1.0))
        got = cluster_dict(cluster_eigenvalues(k))
        root = complex(np.round(np.sqrt(2), 6))
        assert got == {0: 2, root * 1j: 1, -root * 1j: 1}

    def test_multiplicities_cover_dimension(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(2 * n, 2 * n))
            clusters = cluster_eigenvalues(build_eom((a + a.T) / 2))
            assert sum(m for _, m in clusters) == 2 * n

    def test_quadruplet_representative_is_numpy_mean(self, rng):
        # The orbit average must keep np.mean's bits: every later stage,
        # and the report, starts from the representative.
        for _ in range(20):
            lam = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            m, _ = seeded_matrix([(2, lam, 1, None)], rng)
            raw = np.linalg.eigvals(build_eom(m))
            got = cluster_eigenvalues(build_eom(m), _eigenvalues=raw)
            assert [mult for _, mult in got] == [1, 1, 1, 1]
            rep = got[0][0]  # sorted by descending real, then imaginary part
            assert rep.real == float(np.mean([abs(v.real) for v in raw]))
            assert rep.imag == float(np.mean([abs(v.imag) for v in raw]))

    def test_mirror_symmetry_exact(self, rng):
        a = rng.uniform(-3, 3, size=(8, 8))
        clusters = cluster_eigenvalues(build_eom((a + a.T) / 2))
        values = {v for v, _ in clusters}
        for v in values:
            assert -v in values
            assert v.conjugate() in values


class TestClassification:
    def test_golden_example(self):
        k = build_eom(GOLDEN_M)
        report = classify_spectrum(k)
        by_kind = {c.kind: c for c in report.classes}
        real = by_kind[EigenvalueKind.REAL_PAIR]
        assert (real.algebraic, real.geometric) == (2, 1)
        assert abs(real.representative - 2) < 1e-8
        zero = by_kind[EigenvalueKind.ZERO]
        assert (zero.algebraic, zero.geometric) == (2, 2)
        imag = by_kind[EigenvalueKind.IMAGINARY_PAIR]
        assert (imag.algebraic, imag.geometric) == (1, 1)
        assert abs(imag.representative - 3j) < 1e-8
        assert report.sum_rule_residual == 0

    def test_double_imaginary_pair(self):
        report = classify_spectrum(symplectic_form(2))
        assert len(report.classes) == 1
        cls = report.classes[0]
        assert cls.kind is EigenvalueKind.IMAGINARY_PAIR
        assert cls.algebraic == 2 and cls.geometric == 2

    def test_quadruplet(self):
        # lambda^2 = (-2 +- i)/2 by the quartic's radicals
        k = build_eom(two_mode_m(-1.0, 0.5))
        report = classify_spectrum(k)
        assert len(report.classes) == 1
        cls = report.classes[0]
        assert cls.kind is EigenvalueKind.COMPLEX_QUADRUPLET
        assert cls.algebraic == 1
        assert abs(cls.representative**2 - (-1 + 0.5j)) < 1e-8

    def test_sum_rule_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(2 * n, 2 * n))
            report = classify_spectrum(build_eom((a + a.T) / 2))
            assert report.sum_rule_residual == 0
            weight = sum(
                {"zero": 1, "real_pair": 2, "imaginary_pair": 2,
                 "complex_quadruplet": 4}[c.kind.value] * c.algebraic
                for c in report.classes
            )
            assert weight == 2 * n

    def test_multiplicities_against_high_precision_oracle(self, rng):
        import mpmath as mp

        instances = [GOLDEN_M, two_mode_m(1.0, 1.0), two_mode_m(-1.0, 0.5)]
        for _ in range(5):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(2 * n, 2 * n))
            instances.append((a + a.T) / 2)
        for m in instances:
            k = build_eom(np.asarray(m))
            report = classify_spectrum(k)
            with mp.workdps(40):
                exact = mp.eig(mp.matrix(k), left=False, right=False)
            exact = [complex(v) for v in exact]
            for cls in report.classes:
                for member in cls.members:
                    near = sum(1 for v in exact if abs(v - member) < 1e-5 * (1 + abs(member)))
                    assert near == cls.algebraic


class TestGeometricMultiplicity:
    def test_golden_defective_pair(self):
        k = build_eom(GOLDEN_M)
        assert geometric_multiplicity(k, 2.0) == 1
        assert geometric_multiplicity(k, 0.0) == 2
        assert geometric_multiplicity(k, 3j) == 1

    def test_rotation_generator(self):
        for n in (1, 2, 3):
            assert geometric_multiplicity(symplectic_form(n), 1j) == n

    def test_borderline_rank_warning(self):
        from quadnf.errors import BorderlineRankWarning

        # shifting lambda off the eigenvalue by ~the rank threshold makes
        # the smallest singular value land in the warning band
        k = symplectic_form(1)
        with pytest.warns(BorderlineRankWarning):
            geometric_multiplicity(k, 1j * (1 + 5e-8))


class TestJordanChains:
    def test_golden_rank_two_chain(self):
        k = build_eom(GOLDEN_M)
        chains = jordan_chains(k, 2.0, algebraic=2)
        assert [c.rank for c in chains] == [2]
        g = chains[0].generator
        a = k - 2 * np.eye(8)
        assert np.max(np.abs(a @ a @ g)) < 1e-8
        assert np.max(np.abs(a @ g)) > 1e-3
        # generator spans the same filtration slot as the published one
        basis = np.column_stack([a @ GOLDEN_G11, GOLDEN_G11])
        coeffs, res, *_ = np.linalg.lstsq(basis, g, rcond=None)
        assert np.max(np.abs(basis @ coeffs - g)) < 1e-8

    def test_golden_zero_eigenvectors(self):
        k = build_eom(GOLDEN_M)
        chains = jordan_chains(k, 0.0, algebraic=2)
        assert [c.rank for c in chains] == [1, 1]
        published = np.column_stack([GOLDEN_G01, GOLDEN_G02])
        for c in chains:
            coeffs, *_ = np.linalg.lstsq(published, c.generator, rcond=None)
            assert np.max(np.abs(published @ coeffs - c.generator)) < 1e-8

    def test_chain_relation(self):
        k = build_eom(GOLDEN_M)
        (chain,) = jordan_chains(k, 2.0, algebraic=2)
        a = k - 2 * np.eye(8)
        assert np.allclose(a @ chain.vectors[1], chain.vectors[0], atol=1e-10)
        assert np.allclose(a @ chain.vectors[0], 0, atol=1e-10)

    def test_diagonalizable_all_rank_one(self, rng):
        a = rng.normal(size=(8, 8))
        m = a @ a.T + 0.5 * np.eye(8)
        k = build_eom(m)
        for cls in classify_spectrum(k).classes:
            chains = jordan_chains(k, cls.representative, cls.algebraic)
            assert all(c.rank == 1 for c in chains)

    def test_real_eigenvalue_chains_are_real(self):
        k = build_eom(GOLDEN_M)
        for lam in (2.0, 0.0):
            for c in jordan_chains(k, lam, algebraic=2):
                assert not np.iscomplexobj(c.generator)

    def test_chain_vectors_form_basis(self, rng):
        m, _ = seeded_matrix([(1, 1.0 + 0j, 2, None), (6, 2.0j, 1, -1j)], rng)
        k = build_eom(m)
        report = classify_spectrum(k)
        cols = []
        for cls in report.classes:
            cc = extract_class_chains(k, cls)
            for chain in cc.chains + cc.partners:
                cols.extend(chain.vectors)
            if cls.kind is EigenvalueKind.IMAGINARY_PAIR:
                for chain in cc.chains:
                    cols.extend(v.conj() for v in chain.vectors)
        stack = np.column_stack(cols)
        assert stack.shape == (6, 6)
        assert np.linalg.cond(stack) < 1e7

    def test_simple_partner_mirrors_own_filtration(self, rng):
        # A simple lam's partner eigenvector of -lam is a column of eig(K); it
        # must be a null vector of K + lam I and span the same line as the one
        # the filtration of K + lam I finds.
        m, _ = seeded_matrix([(1, 0.9 + 0j, 1, None), (2, 0.6 + 1.2j, 1, None),
                              (6, 2.0j, 1, -1j)], rng)
        k = build_eom(m)
        eigenvalues, vectors = np.linalg.eig(k)
        shifts = {}
        paired = [c for c in classify_spectrum(k, _eigenvalues=eigenvalues, _eigenvectors=vectors,
                                               _shifts=shifts).classes
                  if c.kind in (EigenvalueKind.REAL_PAIR, EigenvalueKind.COMPLEX_QUADRUPLET)]
        assert sorted(c.kind.value for c in paired) == ["complex_quadruplet", "real_pair"]
        for cls in paired:
            lam = cls.representative
            (partner,) = extract_class_chains(k, cls, _level1=shifts[lam]).partners
            v = partner.generator
            assert partner.eigenvalue == -lam and partner.rank == 1
            assert np.iscomplexobj(v) == (cls.kind is EigenvalueKind.COMPLEX_QUADRUPLET)
            a = k + lam * np.eye(k.shape[0])
            assert np.linalg.norm(a @ v) <= 1e-12 * np.linalg.norm(a, 2)
            (own,) = jordan_chains(k, -lam, 1)
            assert 1 - abs(np.vdot(v, own.generator)) <= 1e-12

    def test_eigenvector_match_must_be_one_to_one(self, rng):
        # If -lam's own eigenvalue is replaced by lam, lam owns two eig(K)
        # columns and -lam none: that raises rather than pairing wrongly.
        m, _ = seeded_matrix([(1, 0.9 + 0j, 1, None), (6, 2.0j, 1, -1j)], rng)
        k = build_eom(m)
        eigenvalues, vectors = np.linalg.eig(k)
        clusters = cluster_eigenvalues(k, _eigenvalues=eigenvalues)
        real = np.flatnonzero(eigenvalues.imag == 0)
        lam = eigenvalues[real[np.argmax(eigenvalues[real].real)]]
        eigenvalues[real[np.argmin(eigenvalues[real].real)]] = lam
        with pytest.raises(AmbiguousSpectrumError, match="no single eigenvector"):
            classify_spectrum(k, clusters, _eigenvalues=eigenvalues, _eigenvectors=vectors,
                              _shifts={})


class TestCases:
    """The normal form's blocks carry each chain's case; spectrum labels none."""

    def test_golden_assignment(self):
        blocks = normal_form(GOLDEN_M).blocks
        assert [(b.case, b.rank) for b in blocks] == [(1, 2), (4, 1), (6, 1)]

    def test_zero_boundary_is_case3(self):
        blocks = normal_form(two_mode_m(1.0, 1.0)).blocks
        assert [(b.case, b.rank) for b in blocks if b.eigenvalue == 0] == [(3, 2)]

    def test_degenerate_imaginary_is_case5(self):
        # boundary of oscillation collapse: lambda^2 degenerate and negative
        eta = -0.5
        lam = np.sqrt((2 * eta**2 - eta**4 - 1) / (4 * eta))
        blocks = normal_form(two_mode_m(eta, lam)).blocks
        assert [(b.case, b.rank) for b in blocks] == [(5, 2)]
