import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    GOLDEN_G01,
    GOLDEN_G02,
    GOLDEN_G11,
    GOLDEN_M,
    flat_members,
    seeded_matrix,
    two_mode_m,
)
from quadnf import build_eom, normal_form, symplectic_form
from quadnf.config import maxnorm
from quadnf.errors import AmbiguousSpectrumError, ContractViolationError, SpectrumStructureError
from quadnf.spectrum import (
    CLUSTERING_TOL,
    _folded_orbits,
    _union_clusters,
    EigenvalueClass,
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
        got = flat_members(cluster_eigenvalues(k))
        assert cluster_dict(got) == {2: 2, -2: 2, 0: 2, 3j: 1, -3j: 1}
        for v, _ in got:
            exact = min(abs(v - t) for t in (2, -2, 0, 3j, -3j))
            assert exact < 1e-8

    def test_rotation_generator(self):
        got = cluster_dict(flat_members(cluster_eigenvalues(symplectic_form(2))))
        assert got == {1j: 2, -1j: 2}

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_an_invalid_radius_rejected(self, tol):
        # NaN and -1 once raised "no mirror partner", and inf merged +-i into one zero class.
        with pytest.raises(ContractViolationError, match="tol"):
            cluster_eigenvalues(symplectic_form(2), tol=tol)

    def test_a_zero_radius_merges_only_equal_values(self):
        got = cluster_dict(flat_members(cluster_eigenvalues(symplectic_form(2), tol=0.0)))
        assert got == {1j: 2, -1j: 2}

    def test_two_mode_zero_boundary(self):
        # quartic lambda^4 + 2 lambda^2 = lambda^2 (lambda^2 + 2)
        k = build_eom(two_mode_m(1.0, 1.0))
        got = cluster_dict(flat_members(cluster_eigenvalues(k)))
        root = complex(np.round(np.sqrt(2), 6))
        assert got == {0: 2, root * 1j: 1, -root * 1j: 1}

    def test_multiplicities_cover_dimension(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(2 * n, 2 * n))
            clusters = flat_members(cluster_eigenvalues(build_eom((a + a.T) / 2)))
            assert sum(m for _, m in clusters) == 2 * n

    def test_quadruplet_representative_is_numpy_mean(self, rng):
        # The orbit average must keep np.mean's bits: every later stage,
        # and the report, starts from the representative.
        for _ in range(20):
            lam = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            m, _ = seeded_matrix([(2, lam, 1, None)], rng)
            raw = np.linalg.eigvals(build_eom(m))
            got = flat_members(cluster_eigenvalues(build_eom(m), _eigenvalues=raw))
            assert [mult for _, mult in got] == [1, 1, 1, 1]
            rep = got[0][0]  # sorted by descending real, then imaginary part
            assert rep.real == float(np.mean([abs(v.real) for v in raw]))
            assert rep.imag == float(np.mean([abs(v.imag) for v in raw]))

    def test_mirror_symmetry_exact(self, rng):
        a = rng.uniform(-3, 3, size=(8, 8))
        clusters = flat_members(cluster_eigenvalues(build_eom((a + a.T) / 2)))
        values = {v for v, _ in clusters}
        for v in values:
            assert -v in values
            assert v.conjugate() in values


def _reference_union(values, mults, eps):
    values = list(values)
    mults = list(mults)
    while len(values) > 1:
        close = np.array([[abs(complex(a) - complex(b)) <= eps for b in values] for a in values])
        np.fill_diagonal(close, False)
        hit = int(np.argmax(close))
        if not close.flat[hit]:
            break
        i, j = divmod(hit, len(values))
        total = mults[i] + mults[j]
        values[i] = (values[i] * mults[i] + values[j] * mults[j]) / total
        mults[i] = total
        del values[j], mults[j]
    return values, mults


def _reference_clusters(k, tol, raw):
    """cluster_eigenvalues as plain loops: every snapped spectrum is merged again,
    and an orbit is the values whose folded images |Re| + i |Im| share their lowest
    neighbour within eps, when every value's neighbours are exactly its orbit."""
    eps = tol * (1.0 + maxnorm(k))
    values, mults = _reference_union(list(raw), [1] * len(raw), eps)
    snapped = []
    for v in values:
        re = 0.0 if abs(v.real) <= eps else v.real
        im = 0.0 if abs(v.imag) <= eps else v.imag
        snapped.append(complex(re, im))
    values, mults = _reference_union(snapped, mults, eps)
    folded = [complex(abs(v.real), abs(v.imag)) for v in values]
    close = [[abs(a - b) <= eps for b in folded] for a in folded]
    first = [row.index(True) for row in close]
    for i, row in enumerate(close):
        if row != close[first[i]]:
            raise SpectrumStructureError(
                f"folded eigenvalues near {values[i]:.6g} are not pairwise within {eps:.3e}")
    out = []
    for i, v in enumerate(values):
        if first[i] != i:
            continue
        orbit = [j for j in range(len(values)) if first[j] == i]
        re = sum([abs(values[j].real) for j in orbit]) / len(orbit)
        im = sum([abs(values[j].imag) for j in orbit]) / len(orbit)
        size = 4 if re and im else 2 if re or im else 1
        if len(orbit) != size:
            raise SpectrumStructureError(
                f"eigenvalue {v:.6g} has {len(orbit)} of its {size} mirror images within {eps:.3e}")
        if len({mults[j] for j in orbit}) != 1:
            raise SpectrumStructureError(f"mirror eigenvalues of {v:.6g} have unequal multiplicities")
        rep = complex(re, im)
        members = sorted({rep, -rep, rep.conjugate(), -rep.conjugate()},
                         key=lambda z: (-z.real, -z.imag))
        out.extend((member, mults[i]) for member in members)
    assert sum(m for _, m in out) == k.shape[0]  # implied by the orbit sizes
    out.sort(key=lambda vm: (-vm[0].real, -vm[0].imag))
    return out


def _clustering_corpus(rng):
    """(K, eig(K) values) pairs whose spectra exercise every branch of the clustering."""
    def spectra():
        for n in (1, 2, 3, 6, 16):  # generic and positive-definite
            a = rng.normal(size=(2 * n, 2 * n))
            yield build_eom((a + a.T) / 2)
            yield build_eom(a @ a.T + 0.5 * np.eye(2 * n))
        for d in range(2, 7):  # rings of eig(K) values around a defective eigenvalue
            for case, lam in ((1, 0.9 + 0j), (2, 0.7 + 1.1j), (3 + d % 2, 0j), (5 + d % 2, 1.3j)):
                sigma = {3: 1 + 0j, 5: 1 + 0j, 6: -1j}.get(case)
                m, _ = seeded_matrix([(case, lam, d, sigma), (6, 2.2j, 1, -1j)], rng)
                yield build_eom(m)
        for t in (1e-13, 1e-9, 1e-7, 1e-5, 1e-3):  # values near the axes
            for lam in (1.0 + t * 1j, t + 1.0j, t + 0j, complex(t, t)):
                m, _ = seeded_matrix([(2, lam, 1, None)], rng)
                yield build_eom(m)
        yield build_eom(two_mode_m(1.0, 1.0))

    for k in spectra():
        yield k, np.linalg.eigvals(k)
    yield _spread_quadruplet()


def _spread_quadruplet():
    """(K, eig values): a quadruplet whose members each sit 9.9 eps (at t_0) from a
    mirror image of 1 + i, one outward and two inward, so that two of its folded
    images lie 19.8 eps apart."""
    k = build_eom(np.eye(4))
    e = 9.9 * CLUSTERING_TOL * (1.0 + maxnorm(k))
    return k, np.array([1 + 1j, -(1 + e) - 1j, (1 - e) - 1j, -(1 - e) + 1j])


class TestClusteringReference:
    def test_same_as_plain_scan(self, rng):
        radii = [CLUSTERING_TOL]
        for _ in range(8):
            radii.append(radii[-1] * 10.0)
        outcomes = set()
        for k, raw in _clustering_corpus(rng):
            for tol in radii:
                try:
                    want = _reference_clusters(k, tol, raw)
                except SpectrumStructureError as exc:
                    with pytest.raises(type(exc)) as info:
                        cluster_eigenvalues(k, tol=tol, _eigenvalues=raw)
                    assert str(info.value) == str(exc)
                    outcomes.add(str(exc).split()[0])  # which check raised
                    continue
                classes = cluster_eigenvalues(k, tol=tol, _eigenvalues=raw)
                got = flat_members(classes)
                assert repr(got) == repr(want)  # repr tells -0.0 from 0.0
                reps = [c.representative for c in classes]
                assert reps == sorted(reps, key=lambda z: (-z.real, -z.imag))
                assert {c.geometric for c in classes} == {None}
                assert [type(v) for v, _ in got] == [complex] * len(got)
                outcomes.add("ok")
        # not cliques, a missing mirror image, unequal multiplicities
        assert outcomes == {"ok", "folded", "eigenvalue", "mirror"}


    def test_merges_by_the_distance_of_the_mirror_search(self):
        # np.abs rounds |z| differently from abs(complex) for some z; clusters
        # merge by abs(complex), the distance every later decision uses.
        rng = np.random.default_rng(0)
        z = next((complex(x) for x in rng.normal(size=10000) + 1j * rng.normal(size=10000)
                  if float(np.abs(x)) != abs(complex(x))), None)
        if z is None:
            pytest.skip("np.abs agrees with abs(complex) on this NumPy")
        for eps in (float(np.abs(np.complex128(z))), abs(z)):  # on both sides of one of them
            merged = ([z / 2], [2]) if abs(z) <= eps else ([0j, z], [1, 1])
            assert _union_clusters([0j, z], [1, 1], eps) == merged, eps


class TestFoldedOrbits:
    """Mirror images pair when their folded images |Re| + i |Im| lie pairwise
    within one clustering radius."""

    def test_each_value_pairs_with_its_nearest_mirror_image(self):
        # A first match within 10 radii once paired 1 with -(1 + 5e) and
        # -1 with 1 + 5e, which gave 1 + 2.5e twice.
        k = build_eom(np.eye(4))
        e = CLUSTERING_TOL * (1.0 + maxnorm(k))
        raw = np.array([1, -(1 + 5 * e), -1, 1 + 5 * e], dtype=complex)
        classes = cluster_eigenvalues(k, _eigenvalues=raw)
        assert [(c.kind, c.representative, c.algebraic) for c in classes] == [
            (EigenvalueKind.REAL_PAIR, 1 + 5 * e, 1), (EigenvalueKind.REAL_PAIR, 1, 1)]

    def test_a_spread_quadruplet_pairs_once_its_folded_images_are_within_the_radius(self):
        k, raw = _spread_quadruplet()
        with pytest.raises(SpectrumStructureError, match="has 1 of its 4 mirror images"):
            cluster_eigenvalues(k, _eigenvalues=raw)  # at t_0 only the two inward ones fold together
        with pytest.raises(SpectrumStructureError, match="not pairwise within"):
            cluster_eigenvalues(k, tol=10 * CLUSTERING_TOL, _eigenvalues=raw)  # 9.9 eps, not 19.8
        (cls,) = cluster_eigenvalues(k, tol=100 * CLUSTERING_TOL, _eigenvalues=raw)
        assert (cls.kind, cls.algebraic) == (EigenvalueKind.COMPLEX_QUADRUPLET, 1)
        assert cls.representative == complex(sum([abs(v.real) for v in raw]) / 4, 1.0)

    def test_a_chain_of_close_values_is_not_a_clique(self):
        # a ~ b ~ c with a and c apart, in the first spectrum; every mirror image
        # of one value folds onto one point, in the second.
        values = np.array([[3j, 0.8 + 3j, 1.6 + 3j], [1 + 2j, -1 - 2j, 1 - 2j]])
        close, first, cliques = _folded_orbits(values, np.array([[1.0], [1.0]]))
        assert cliques.tolist() == [False, True]
        assert first.tolist() == [[0, 0, 1], [0, 0, 0]]
        assert close[0].tolist() == [[True, True, False], [True, True, True], [False, True, True]]
        assert not _folded_orbits(values[0], 1.0)[2]


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

    def test_weight_is_orbit_size_times_algebraic(self):
        for kind, lam in [(EigenvalueKind.ZERO, 0j), (EigenvalueKind.REAL_PAIR, 2 + 0j),
                          (EigenvalueKind.IMAGINARY_PAIR, 3j),
                          (EigenvalueKind.COMPLEX_QUADRUPLET, 1 + 2j)]:
            cls = EigenvalueClass(kind, lam, 3)
            assert cls.weight == len(set(cls.members)) * 3

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

    def test_counts_by_the_distance_of_the_mirror_search(self, monkeypatch):
        # Without _level1 the algebraic multiplicity counts the eig(K) values
        # within eps of lam by hypot, as clustering does; np.abs of a complex
        # can round to the other side of eps.  K = 0, so eps = CLUSTERING_TOL.
        eps = CLUSTERING_TOL
        rng = np.random.default_rng(0)

        def near_eps(z):  # z scaled to |z| = eps, then a few ulps outward
            d = z * (eps / abs(z))
            for _ in range(8):
                yield d
                d = complex(np.nextafter(d.real, 2 * d.real), d.imag)

        d = next((d for z in rng.normal(size=10000) + 1j * rng.normal(size=10000)
                  for d in near_eps(complex(z))
                  if (float(np.abs(np.complex128(d))) <= eps) != (np.hypot(d.real, d.imag) <= eps)),
                 None)
        if d is None:
            pytest.skip("np.abs agrees with hypot about eps on this NumPy")
        monkeypatch.setattr(np.linalg, "eigvals", lambda k: np.array([0j, d, 5, -5]))
        assert geometric_multiplicity(np.zeros((4, 4)), 0.0) == 1 + (np.hypot(d.real, d.imag) <= eps)


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
            chains, partners = extract_class_chains(k, cls)
            for chain in chains + partners:
                cols.extend(chain.vectors)
            if cls.kind is EigenvalueKind.IMAGINARY_PAIR:
                for chain in chains:
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
            assert shifts[lam].shape == (k.shape[0], 2)  # the columns of lam and -lam
            v = shifts[lam][:, 1]
            assert np.iscomplexobj(v) == (cls.kind is EigenvalueKind.COMPLEX_QUADRUPLET)
            a = k + lam * np.eye(k.shape[0])
            assert np.linalg.norm(a @ v) <= 1e-12 * np.linalg.norm(a, 2)
            (own,) = jordan_chains(k, -lam, 1)
            assert 1 - abs(np.vdot(v, own.generator)) <= 1e-12

    def test_one_record_per_class_and_simple_chains_on_eig_columns(self, rng):
        # classify_spectrum leaves exactly one record per class in _shifts, and
        # extract_class_chains adds none; a simple class's chains are its
        # eig(K) columns of lam and -lam, the same bytes at the same strides.
        m, _ = seeded_matrix([(1, 0.9 + 0j, 1, None), (2, 0.6 + 1.2j, 1, None),
                              (6, 2.0j, 1, -1j), (1, 1.4 + 0j, 2, None)], rng)
        k = build_eom(m)
        eigenvalues, vectors = np.linalg.eig(k)
        shifts = {}
        classes = classify_spectrum(k, _eigenvalues=eigenvalues, _eigenvectors=vectors,
                                    _shifts=shifts).classes
        assert list(shifts) == [c.representative for c in classes]
        assert sorted(c.algebraic for c in classes) == [1, 1, 1, 2]
        for cls in classes:
            record = shifts[cls.representative]
            chains, partners = extract_class_chains(k, cls, _level1=record)
            if cls.algebraic > 1:
                assert [c.rank for c in chains] == [c.rank for c in partners] == [2]
                continue
            assert len(chains + partners) == record.shape[1]
            for j, chain in enumerate(chains + partners):
                (g,) = chain.vectors
                assert (chain.eigenvalue, chain.rank) == (cls.members[j], 1)
                column = vectors[:, np.argmin(np.abs(eigenvalues - chain.eigenvalue))]
                column = column.real if cls.representative.imag == 0 else column
                assert g.ctypes.data == record[:, j].ctypes.data
                assert g.strides == record[:, j].strides
                assert g.dtype == column.dtype and g.tobytes() == column.tobytes()
        assert list(shifts) == [c.representative for c in classes]

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_chains_come_top_down(self, rank):
        # Generators are picked rank by rank from the top, so the chains of lam
        # and -lam, and those extract_class_chains passes on unsorted, are in
        # descending rank order whatever order the blocks were planted in.
        ranks = [1, rank, 2]
        m, _ = seeded_matrix([(1, 1.3 + 0j, d, None) for d in ranks],
                             np.random.default_rng([rank, 1]), 0.3)
        k = build_eom(m)
        want = sorted(ranks, reverse=True)
        for lam in (1.3 + 0j, -1.3 + 0j):
            assert [c.rank for c in jordan_chains(k, lam, sum(ranks))] == want
        cls = EigenvalueClass(EigenvalueKind.REAL_PAIR, 1.3 + 0j, sum(ranks))
        chains, partners = extract_class_chains(k, cls)
        assert [c.rank for c in chains] == [c.rank for c in partners] == want

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


class TestSchurFailures:
    """A failed LAPACK reordering is an ambiguous spectrum, which escalation
    answers with the next radius, not a crash outside QuadnfError."""

    @pytest.mark.parametrize("name,lam", [("dtrsen", 2.0), ("ztrsen", 3j)])
    def test_reordering_failure_is_ambiguous(self, name, lam, monkeypatch):
        from scipy.linalg import lapack

        trsen = getattr(lapack, name)

        def failing(*args, **kwargs):
            *out, _ = trsen(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(lapack, name, failing)
        with pytest.raises(AmbiguousSpectrumError, match="LAPACK info 1"):
            jordan_chains(build_eom(GOLDEN_M), lam, algebraic=2 if lam == 2.0 else 1)

    def test_stable_two_mode_leaves_scipy_linalg_unloaded(self):
        # Only a repeated eigenvalue needs a Schur form, so SciPy's import
        # (~0.2 s) stays off the path of a stable two-mode analysis.
        code = ("import sys, quadnf\n"
                "quadnf.normal_form([[1.0, 0.5, 0, 0], [0.5, 1.0, 0, 0], [0, 0, 1.0, 0], "
                "[0, 0, 0, 1.0]])\n"
                "print('scipy.linalg' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"


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
