import gc
import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import (
    GOLDEN_E11,
    GOLDEN_E11T,
    GOLDEN_E21,
    GOLDEN_F01,
    GOLDEN_H01,
    GOLDEN_M,
    GOLDEN_N,
    GOLDEN_S1,
    GOLDEN_T2,
    seeded_matrix,
    two_mode_m,
)
from quadnf import (
    DEFAULT,
    Verdict,
    WrongPathError,
    bogoliubov_transform,
    build_eom,
    normal_form,
    symplectic_form,
    symplectic_residual,
    terms_matrix,
)
from quadnf.errors import ChainExtractionError
from quadnf.normal_form import (
    TermKind,
    _block_for_unit,
    _Unit,
    build_case_columns,
    emit_terms,
    expected_kn,
)
from quadnf.spectrum import EigenvalueKind, JordanChain, make_chain


def unit_spec(case, lam, rank, sigma=None):
    return _Unit(case=case, eigenvalue=lam, rank=rank, sigma=sigma, t_cols=[], s_cols=[])


def block_terms(specs):
    """emit_terms on the blocks of ``specs``; also the blocks and the mode count."""
    blocks = [_block_for_unit(unit_spec(*spec)) for spec in specs]
    terms, zero_modes = emit_terms(blocks)
    return terms, zero_modes, blocks, sum(b.size for b in blocks)


# Every case at ranks 1-6 of its parity, with each sign.
EVERY_BLOCK = (
    [(1, 1.3 + 0j, d) for d in range(1, 7)]
    + [(2, 0.7 + 1.9j, d) for d in range(1, 7)]
    + [(3, 0j, d, s) for d in (2, 4, 6) for s in (1 + 0j, -1 + 0j)]
    + [(4, 0j, d) for d in (1, 3, 5)]
    + [(5, 2.1j, d, s) for d in (2, 4, 6) for s in (1 + 0j, -1 + 0j)]
    + [(6, 1.7j, d, s) for d in (1, 3, 5) for s in (1j, -1j)]
)


class TestCaseColumns:
    def test_golden_real_pair(self):
        k = build_eom(GOLDEN_M)
        e = make_chain(k, 2.0, GOLDEN_E11, 2)
        et = make_chain(k, -2.0, GOLDEN_E11T, 2)
        unit = build_case_columns(1, k, (e, et))
        assert np.allclose(unit.t_cols[0], GOLDEN_E11, atol=1e-12)
        assert np.allclose(unit.t_cols[1], GOLDEN_T2, atol=1e-12)
        assert np.allclose(unit.s_cols[0], GOLDEN_S1, atol=1e-12)
        assert np.allclose(unit.s_cols[1], GOLDEN_E11T, atol=1e-12)

    def test_golden_zero_pair(self):
        k = build_eom(GOLDEN_M)
        f = make_chain(k, 0.0, GOLDEN_F01, 1)
        h = make_chain(k, 0.0, GOLDEN_H01, 1)
        unit = build_case_columns(4, k, (f, h))
        assert np.allclose(unit.t_cols[0], GOLDEN_F01)
        assert np.allclose(unit.s_cols[0], GOLDEN_H01)

    def test_golden_imaginary(self):
        # sigma = -i: the momentum column is +sqrt(2) Im(e), the sign that
        # makes t^T J s = +1 (and matches the assembled transformation).
        k = build_eom(GOLDEN_M)
        chain = make_chain(k, 3j, GOLDEN_E21, 1)
        unit = build_case_columns(6, k, (chain, -1j))
        t, s = unit.t_cols[0], unit.s_cols[0]
        assert np.allclose(t, np.sqrt(2) * np.real(GOLDEN_E21))
        assert np.allclose(s, np.sqrt(2) * np.imag(GOLDEN_E21))
        j = symplectic_form(4)
        assert abs(t @ j @ s - 1) < 1e-12

    def test_columns_match_the_paper_bit_for_bit(self, rng):
        # With z_k = A^(k-1) e and w_k = (-1)^(D-k) e~_k (cases 1, 2, 4) or
        # sigma (-1)^k conj(z_(D+1-k)) (case 5), the columns are
        #   cases 1, 4: T_+ = (z_1 .. z_D), T_- = (w_1 .. w_D);
        #   case 2: T_+ = sqrt2 (Re z_1, Im z_1, .., Re z_D, Im z_D),
        #           T_- = sqrt2 (Re w_1, -Im w_1, .., Re w_D, -Im w_D);
        #   case 5: T_+ = sqrt2 (Re z_1, Im z_2, Re z_3, ..),
        #           T_- = sqrt2 (Re w_1, -Im w_2, Re w_3, ..).
        r2 = np.sqrt(2.0)
        k = np.zeros((8, 8))  # only scales the realness check

        def chain(lam, d, real=False):
            vecs = [rng.normal(size=8) + (0 if real else 1j * rng.normal(size=8))
                    for _ in range(d)]
            return JordanChain(lam, d, tuple(vecs))

        def powers(c):
            return [c.vectors[c.rank - kk] for kk in range(1, c.rank + 1)]

        def partner_w(c, p):
            return [(-1.0) ** (c.rank - kk) * p.vectors[kk - 1] for kk in range(1, c.rank + 1)]

        for case, lam in ((1, 1.3 + 0j), (4, 0j)):
            e, et = chain(lam, 3, real=True), chain(-lam, 3, real=True)
            unit = build_case_columns(case, k, (e, et))
            assert all(map(np.array_equal, unit.t_cols, powers(e))), case
            assert all(map(np.array_equal, unit.s_cols, partner_w(e, et))), case

        e, et = chain(0.6 + 1.2j, 3), chain(-0.6 - 1.2j, 3)
        z, w = powers(e), partner_w(e, et)
        unit = build_case_columns(2, k, (e, et))
        t = [r2 * part(v) for v in z for part in (np.real, np.imag)]
        s = [x for v in w for x in (r2 * np.real(v), -r2 * np.imag(v))]
        assert len(unit.t_cols) == len(unit.s_cols) == 6
        assert all(map(np.array_equal, unit.t_cols, t))
        assert all(map(np.array_equal, unit.s_cols, s))

        for sigma in (1 + 0j, -1 + 0j):
            c = chain(2.1j, 4)
            z = powers(c)
            w = [sigma * (-1.0) ** kk * np.conj(z[4 - kk]) for kk in range(1, 5)]
            unit = build_case_columns(5, k, (c, sigma))
            t = [r2 * np.real(z[0]), r2 * np.imag(z[1]), r2 * np.real(z[2]), r2 * np.imag(z[3])]
            s = [r2 * np.real(w[0]), -r2 * np.imag(w[1]), r2 * np.real(w[2]), -r2 * np.imag(w[3])]
            assert all(map(np.array_equal, unit.t_cols, t)), sigma
            assert all(map(np.array_equal, unit.s_cols, s)), sigma

    def test_columns_pair_symplectically(self, rng):
        specs_list = [
            [(1, 1.4 + 0j, 3, None)],
            [(2, 0.8 + 1.3j, 2, None)],
            [(3, 0j, 4, -1 + 0j)],
            [(4, 0j, 3, None)],
            [(5, 2.1j, 4, 1 + 0j)],
            [(6, 1.9j, 3, 1j)],
        ]
        for specs in specs_list:
            m, _ = seeded_matrix(specs, rng)
            rep = normal_form(m)
            t = rep.transform.matrix
            n_modes = rep.n_modes
            j = symplectic_form(n_modes)
            assert np.max(np.abs(t @ j @ t.T - j)) < 1e-8

    def test_mode_count_conservation(self, rng):
        specs = [(1, 2.0 + 0j, 2, None), (3, 0j, 2, 1 + 0j), (6, 3.0j, 1, -1j)]
        m, _ = seeded_matrix(specs, rng)
        rep = normal_form(m)
        contrib = {1: lambda d: d, 2: lambda d: 2 * d, 3: lambda d: d // 2,
                   4: lambda d: d, 5: lambda d: d, 6: lambda d: d}
        total = sum(contrib[b.case](b.rank) for b in rep.blocks)
        assert total == rep.n_modes


class TestExpectedBlocks:
    def test_real_pair_rank_two(self):
        b = _block_for_unit(unit_spec(1, 2.0 + 0j, 2))
        assert np.array_equal(b.i_i, [[2, 0], [1, 2]])
        assert not b.i_r.any() and not b.i_l.any()

    def test_imaginary_rank_one(self):
        b = _block_for_unit(unit_spec(6, 3j, 1, -1j))
        assert np.array_equal(b.i_i, [[0]])
        assert np.array_equal(b.i_r, [[3]])
        assert np.array_equal(b.i_l, [[-3]])

    def test_zero_even_rank_two(self):
        b = _block_for_unit(unit_spec(3, 0j, 2, 1 + 0j))
        assert np.array_equal(b.i_i, [[0]])
        assert np.array_equal(b.i_r, [[0]])
        assert np.array_equal(b.i_l, [[-1]])

    def test_quadruplet_rank_one(self):
        b = _block_for_unit(unit_spec(2, 0.5 + 1.5j, 1))
        assert np.array_equal(b.i_i, [[0.5, 1.5], [-1.5, 0.5]])

    def test_block_eigenvalues_match_family(self):
        # assembled block [[I_I, I_R], [I_L, -I_I^T]] must carry the
        # eigenvalue family with the right multiplicities
        cases = [
            (unit_spec(1, 1.5 + 0j, 3), [1.5] * 3 + [-1.5] * 3),
            (unit_spec(3, 0j, 4, -1 + 0j), [0.0] * 4),
            (unit_spec(5, 2.0j, 2, 1 + 0j), [2j, 2j, -2j, -2j]),
            (unit_spec(6, 3.0j, 3, 1j), [3j] * 3 + [-3j] * 3),
            (unit_spec(2, 1.0 + 2.0j, 1), [1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j]),
        ]
        for unit, expected in cases:
            b = _block_for_unit(unit)
            full = np.block([[b.i_i, b.i_r], [b.i_l, -b.i_i.T]])
            # defective eigenvalues shift like eps^(1/D) under eigvals, so
            # compare characteristic polynomials instead
            got = np.poly(full)
            want = np.poly(np.diag(np.array(expected, complex)))
            scale = 1 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-8 * scale

    def test_expected_kn_is_hamiltonian_structured(self):
        units = [unit_spec(1, 2.0 + 0j, 2), unit_spec(4, 0j, 1), unit_spec(6, 3j, 1, -1j)]
        blocks = [_block_for_unit(u) for u in units]
        kn = expected_kn(blocks, 4)
        j = symplectic_form(4)
        assert np.max(np.abs(j @ kn + kn.T @ j)) < 1e-12


class TestEmitTerms:
    def terms_of(self, m):
        return normal_form(m).terms

    def test_golden_terms(self):
        rep = normal_form(GOLDEN_M)
        got = {(t.kind, round(t.coefficient, 8), t.modes) for t in rep.terms}
        assert got == {
            (TermKind.SINGLE_MODE_SQUEEZE, 2.0, (1,)),
            (TermKind.SINGLE_MODE_SQUEEZE, 2.0, (2,)),
            (TermKind.SQUEEZE_BEAM_SPLITTER, 1.0, (1, 2)),
            (TermKind.HARMONIC_OSCILLATOR, 1.5, (4,)),
        }
        assert rep.zero_frequency_modes == 1

    def test_gray_area_terms(self):
        rep = normal_form(two_mode_m(1.0, 2.0))
        kinds = sorted(t.kind.value for t in rep.terms)
        assert kinds == ["harmonic_oscillator", "single_mode_squeeze"]
        squeeze = next(t for t in rep.terms if t.kind is TermKind.SINGLE_MODE_SQUEEZE)
        assert abs(squeeze.coefficient - 1.0) < 1e-8  # lambda = +1
        osc = next(t for t in rep.terms if t.kind is TermKind.HARMONIC_OSCILLATOR)
        assert abs(osc.coefficient - np.sqrt(3) / 2) < 1e-8

    def test_degenerate_imaginary_terms(self):
        eta = -0.5
        lam = np.sqrt((2 * eta**2 - eta**4 - 1) / (4 * eta))
        rep = normal_form(two_mode_m(eta, lam))
        (block,) = rep.blocks
        assert block.case == 5 and block.rank == 2
        s = block.sigma.real
        nu = block.eigenvalue.imag
        got = {(t.kind, round(t.coefficient, 8), t.modes) for t in rep.terms}
        assert got == {
            (TermKind.FREE_PARTICLE_X, round(s / 2, 8), (1,)),
            (TermKind.FREE_PARTICLE_P, round(s / 2, 8), (2,)),
            (TermKind.BEAM_SPLITTER_XXPP, round(s * nu, 8), (1, 2)),
        }

    def test_quadruplet_terms(self):
        rep = normal_form(two_mode_m(-1.0, 0.5))
        (block,) = rep.blocks
        got = {(t.kind, t.modes) for t in rep.terms}
        assert got == {
            (TermKind.SINGLE_MODE_SQUEEZE, (1,)),
            (TermKind.SINGLE_MODE_SQUEEZE, (2,)),
            (TermKind.BEAM_SPLITTER_XP, (2, 1)),
        }
        xp = next(t for t in rep.terms if t.kind is TermKind.BEAM_SPLITTER_XP)
        assert abs(xp.coefficient - block.eigenvalue.imag) < 1e-10

    def test_zero_matrix_has_no_terms(self):
        rep = normal_form(np.zeros((6, 6)))
        assert rep.terms == ()
        assert rep.zero_frequency_modes == 3

    def test_terms_read_back_exactly(self):
        # Terms rebuild -J K_N bit for bit on every one- and two-block list.
        lists = [[b] for b in EVERY_BLOCK] + [list(p) for p in itertools.product(EVERY_BLOCK, repeat=2)]
        for specs in lists:
            terms, zero_modes, blocks, n_modes = block_terms(specs)
            kn = expected_kn(blocks, n_modes)
            assert np.array_equal(terms_matrix(terms, n_modes), -symplectic_form(n_modes) @ kn), specs
            assert zero_modes == sum(b.case == 4 and b.rank == 1 for b in blocks)
            assert all(type(t.coefficient) is float for t in terms)

    def test_quadruplet_rank_two_order(self):
        terms, _, _, _ = block_terms([(2, 0.5 + 1.5j, 2)])
        assert [(t.kind, t.coefficient, t.modes) for t in terms] == [
            (TermKind.SINGLE_MODE_SQUEEZE, 0.5, (1,)),
            (TermKind.SINGLE_MODE_SQUEEZE, 0.5, (2,)),
            (TermKind.SINGLE_MODE_SQUEEZE, 0.5, (3,)),
            (TermKind.SINGLE_MODE_SQUEEZE, 0.5, (4,)),
            (TermKind.BEAM_SPLITTER_XP, 1.5, (2, 1)),
            (TermKind.BEAM_SPLITTER_XP, 1.5, (4, 3)),
            (TermKind.SQUEEZE_BEAM_SPLITTER, 1.0, (1, 3)),
            (TermKind.SQUEEZE_BEAM_SPLITTER, 1.0, (2, 4)),
        ]
        assert [t.symbol() for t in terms[3:6]] == [
            "0.5*X4*P4", "1.5*(X2*P1 - X1*P2)", "1.5*(X4*P3 - X3*P4)"]

    def test_imaginary_even_rank_four_order(self):
        terms, _, _, _ = block_terms([(5, 2.5j, 4, 1 + 0j)])
        assert [(t.kind, t.coefficient, t.modes) for t in terms] == [
            (TermKind.BEAM_SPLITTER_XXPP, 2.5, (1, 4)),
            (TermKind.BEAM_SPLITTER_XXPP, 2.5, (2, 3)),
            (TermKind.POSITION_COUPLING, 1.0, (1, 3)),
            (TermKind.MOMENTUM_COUPLING, 1.0, (2, 4)),
            (TermKind.FREE_PARTICLE_X, -0.5, (2,)),
            (TermKind.FREE_PARTICLE_P, -0.5, (3,)),
        ]
        assert [t.symbol() for t in terms] == [
            "2.5*(X1*X4 + P1*P4)", "2.5*(X2*X3 + P2*P3)", "X1*X3", "P2*P4",
            "-0.5*X2^2", "-0.5*P3^2"]

    def test_terms_reconstruct_n_matrix(self, rng):
        specs_list = [
            [(1, 1.4 + 0j, 3, None)],
            [(2, 0.8 + 1.3j, 2, None)],
            [(3, 0j, 4, -1 + 0j)],
            [(3, 0j, 2, 1 + 0j), (4, 0j, 1, None)],
            [(4, 0j, 3, None)],
            [(5, 2.1j, 4, 1 + 0j)],
            [(5, 1.1j, 2, -1 + 0j), (6, 1.1j, 1, -1j)],
            [(6, 1.9j, 3, 1j)],
            [(1, 2.0 + 0j, 2, None), (3, 0j, 2, -1 + 0j), (6, 3.0j, 1, -1j)],
        ]
        j_cache = {}
        for specs in specs_list:
            m, _ = seeded_matrix(specs, rng)
            rep = normal_form(m)
            n_modes = rep.n_modes
            j = j_cache.setdefault(n_modes, symplectic_form(n_modes))
            kn = expected_kn(rep.blocks, n_modes)
            rebuilt = terms_matrix(rep.terms, n_modes)
            assert np.max(np.abs(rebuilt - (-j @ kn))) < 1e-10


class TestBogoliubov:
    def test_identity_hamiltonian(self):
        rep = bogoliubov_transform(np.eye(2))
        assert rep.verdict is Verdict.STABLE
        assert np.allclose(rep.n_matrix, np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(rep.transform.matrix), np.eye(2), atol=1e-12)

    def test_two_mode_frequencies(self):
        rep = bogoliubov_transform(two_mode_m(1.0, 0.5))
        # roots of mu^2 - 2 mu + (1 - 1/4): frequencies sqrt(3/2), sqrt(1/2)
        want = np.array([np.sqrt(1.5), np.sqrt(0.5), np.sqrt(1.5), np.sqrt(0.5)])
        assert np.allclose(np.diag(rep.n_matrix), want, atol=1e-10)
        off = rep.n_matrix - np.diag(np.diag(rep.n_matrix))
        assert np.max(np.abs(off)) < 1e-10

    def test_wrong_path_rejected(self):
        with pytest.raises(WrongPathError):
            bogoliubov_transform(GOLDEN_M)
        with pytest.raises(WrongPathError):
            bogoliubov_transform(two_mode_m(1.0, 2.0))

    def test_frequencies_match_eigenvalues(self, rng):
        for _ in range(5):
            a = rng.normal(size=(6, 6))
            m = a @ a.T + 0.3 * np.eye(6)
            rep = normal_form(m)
            assert rep.verdict is Verdict.STABLE
            scale = 1 + np.max(np.abs(rep.transform.matrix)) ** 2
            assert rep.residuals["symplectic"] <= 1e-8 * scale
            freqs = np.abs(np.linalg.eigvals(build_eom(m)).imag)
            assert np.allclose(
                np.sort(np.abs(np.diag(rep.n_matrix))), np.sort(freqs), atol=1e-8
            )

    @pytest.mark.parametrize("specs", [
        [(6, 0.8j, 3, 1j)],  # defective, odd rank
        [(5, 0.8j, 2, 1.0)],  # defective, even rank
    ])
    def test_defective_imaginary_rejected(self, specs, rng):
        m, _ = seeded_matrix(specs, rng)
        with pytest.raises(WrongPathError):
            bogoliubov_transform(m)

    def test_indefinite_oscillators(self):
        # two uncoupled oscillators of opposite energy sign share lambda = i
        m = np.diag([1.0, -1.0, 1.0, -1.0])
        rep = bogoliubov_transform(m)
        assert rep.verdict is Verdict.STABLE
        sigmas = sorted((b.sigma for b in rep.blocks), key=lambda z: z.imag)
        assert sigmas == [-1j, 1j]
        assert np.allclose(sorted(np.diag(rep.n_matrix)), [-1, -1, 1, 1], atol=1e-10)


class TestPipeline:
    def test_golden_full_report(self):
        rep = normal_form(GOLDEN_M)
        assert rep.verdict is Verdict.UNSTABLE
        assert rep.zero_frequency_modes == 1
        t = rep.transform.matrix
        assert symplectic_residual(t) <= 1e-10
        assert np.max(np.abs(rep.n_matrix - GOLDEN_N)) < 1e-8
        cases = [b.case for b in rep.blocks]
        assert cases == [1, 4, 6]
        assert any("exponential growth rate 2" in r for r in rep.reasons)

    def test_zero_matrix_marginal(self):
        rep = normal_form(np.zeros((8, 8)))
        assert rep.verdict is Verdict.MARGINAL
        assert rep.zero_frequency_modes == 4
        assert np.allclose(rep.n_matrix, 0)

    def test_single_oscillator_identity(self):
        rep = normal_form(np.eye(2))
        assert rep.verdict is Verdict.STABLE
        assert np.allclose(rep.n_matrix, np.eye(2), atol=1e-12)

    def test_verdicts_across_regions(self):
        assert normal_form(two_mode_m(1.0, 0.5)).verdict is Verdict.STABLE
        assert normal_form(two_mode_m(1.0, 2.0)).verdict is Verdict.UNSTABLE
        assert normal_form(two_mode_m(-1.0, 0.5)).verdict is Verdict.UNSTABLE
        assert normal_form(two_mode_m(1.0, 1.0)).verdict is Verdict.UNSTABLE
        assert normal_form(two_mode_m(0.0, 0.0)).verdict is Verdict.MARGINAL

    def test_growth_annotations(self):
        rep = normal_form(two_mode_m(1.0, 1.0))  # zero chain of rank 2
        zero_block = next(b for b in rep.blocks if b.case == 3)
        assert zero_block.poly_order == 1
        assert any("polynomial growth order 1" in r for r in rep.reasons)

    def test_block_match_residual_budget(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(2 * n, 2 * n))
            m = (a + a.T) / 2
            rep = normal_form(m)
            k = build_eom(m)
            budget = 1e-7 * (1 + np.max(np.abs(k))) * max(1.0, rep.residuals["condition"])
            assert rep.residuals["block_match"] <= budget

    def test_n_matrix_equals_minus_j_kn(self, rng):
        m, _ = seeded_matrix([(1, 1.0 + 0j, 2, None), (6, 2.0j, 1, -1j)], rng)
        rep = normal_form(m)
        j = symplectic_form(rep.n_modes)
        assert np.max(np.abs(rep.n_matrix - (-j @ rep.k_normal))) < 1e-8

    def test_diagonal_hamiltonian_gives_permuted_scaling(self):
        # independent oscillators H = sum (a_i x_i^2 + b_i p_i^2)/2: the
        # canonical transformation is a mode permutation combined with
        # single-mode scalings diag(s, 1/s), s = (b/a)^(1/4)
        m = np.diag([2.0, 8.0, 1.0, 2.0])
        rep = normal_form(m)
        assert rep.verdict is Verdict.STABLE
        t = rep.transform.matrix
        for col in t.T:
            assert np.sum(np.abs(col) > 1e-10) == 1
        assert symplectic_residual(t) < 1e-10
        # frequencies sqrt(a b) in descending order
        assert np.allclose(np.diag(rep.n_matrix), [4.0, np.sqrt(2), 4.0, np.sqrt(2)])
        off = rep.n_matrix - np.diag(np.diag(rep.n_matrix))
        assert np.max(np.abs(off)) < 1e-10

    def test_diagonalizable_case_term_restriction(self, rng):
        # with every chain of rank one only four term shapes can appear
        allowed = {
            TermKind.SINGLE_MODE_SQUEEZE,
            TermKind.BEAM_SPLITTER_XP,
            TermKind.HARMONIC_OSCILLATOR,
        }
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(2 * n, 2 * n))
            rep = normal_form((a + a.T) / 2)
            if any(b.rank != 1 for b in rep.blocks):
                continue
            assert all(b.case in (1, 2, 4, 6) for b in rep.blocks)
            assert {t.kind for t in rep.terms} <= allowed


class TestEscalationGarbage:
    """An escalating call leaves no reference cycle behind, whether a later
    attempt succeeds or the last error is raised."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_success_after_failure(self, collector_off):
        m, _ = seeded_matrix([(1, 1.3 + 0j, 3, None)], np.random.default_rng(0))
        normal_form(m)
        assert gc.collect() == 0

    def test_raised_error(self, collector_off, monkeypatch):
        def failing(*args):
            raise ChainExtractionError("forced")

        monkeypatch.setattr(sys.modules["quadnf.normal_form"], "_attempt_normal_form", failing)
        try:
            normal_form(np.eye(4))
        except ChainExtractionError:
            pass
        assert gc.collect() == 0


class TestFactorizationCounts:
    """K gets one eig per normal_form call, however many attempts it takes,
    and each clustering radius at most one pass; a simple class takes its
    eigenvectors from eig(K), and each matrix the filtration of a
    defective class factors gets one SVD per attempt."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        svd, norm, eig, eigvals = np.linalg.svd, np.linalg.norm, np.linalg.eig, np.linalg.eigvals

        def counted_svd(*args, **kwargs):
            counts["svd"] += 1
            return svd(*args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            counts["norm2"] += ord == 2 and np.ndim(x) == 2
            return norm(x, ord, *args, **kwargs)

        def counted_eig(*args, **kwargs):
            counts["eig"] += 1
            return eig(*args, **kwargs)

        def counted_eigvals(*args, **kwargs):
            counts["eigvals"] += 1
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        return counts

    def test_no_svd_for_simple_classes(self, calls):
        # Every eigenvector of a simple lam, and of its partner -lam, is a
        # column of eig(K).
        a = np.random.default_rng(11).normal(size=(6, 6))
        rep = normal_form((a + a.T) / 2)
        classes = rep.spectrum.classes
        assert all(c.algebraic == 1 and c.kind is not EigenvalueKind.ZERO for c in classes)
        assert any(c.kind is not EigenvalueKind.IMAGINARY_PAIR for c in classes)
        assert (calls["svd"], calls["norm2"], calls["eig"], calls["eigvals"]) == (0, 0, 1, 0)

    def test_defective_partner_keeps_its_own_svds(self, calls, rng):
        # A rank-2 real pair: K - lam I and (K - lam I)^2 for lam, and the
        # same two for -lam, whose chains get their own filtration.
        m, _ = seeded_matrix([(1, 1.3 + 0j, 2, None)], rng)
        rep = normal_form(m)
        assert [(b.case, b.rank) for b in rep.blocks] == [(1, 2)]
        assert (calls["svd"], calls["eig"]) == (4, 1)

    def test_escalation_reuses_eigvals(self, calls, rng, monkeypatch):
        # A rank-3 real pair splits beyond the first clustering radius.
        nf = sys.modules["quadnf.normal_form"]
        classify = nf.classify_spectrum

        def counted_classify(*args, **kwargs):
            calls["attempts"] += 1
            return classify(*args, **kwargs)

        monkeypatch.setattr(nf, "classify_spectrum", counted_classify)
        m, _ = seeded_matrix([(1, 1.3 + 0j, 3, None)], rng)
        rep = normal_form(m)
        assert [(b.case, b.rank) for b in rep.blocks] == [(1, 3)]
        assert calls["attempts"] >= 2
        assert (calls["eig"], calls["eigvals"]) == (1, 0)

    def test_escalation_clusters_each_radius_once(self, monkeypatch):
        # The radii run clustering_tol, 10 clustering_tol, ... by repeated
        # multiplication, and attempts that share a radius share its pass.
        nf = sys.modules["quadnf.normal_form"]
        cluster, radii = nf.cluster_eigenvalues, []

        def counted_cluster(*args, tol, **kwargs):
            radii.append(tol)
            return cluster(*args, tol=tol, **kwargs)

        monkeypatch.setattr(nf, "cluster_eigenvalues", counted_cluster)
        m, _ = seeded_matrix([(1, 1.3 + 0j, 3, None)], np.random.default_rng(0))
        rep = normal_form(m)
        assert [(b.case, b.rank) for b in rep.blocks] == [(1, 3)]
        schedule = [DEFAULT.clustering_tol]
        for _ in range(8):
            schedule.append(schedule[-1] * 10.0)
        assert len(radii) >= 2
        assert len(set(radii)) == len(radii)
        assert radii == schedule[:len(radii)]

    def test_bogoliubov_takes_one_eig(self, calls):
        # The precondition is checked on normal_form's own spectrum.
        rep = bogoliubov_transform(two_mode_m(1.0, 0.5))
        assert rep.verdict is Verdict.STABLE
        assert (calls["eig"], calls["eigvals"]) == (1, 0)

    @pytest.mark.parametrize("specs", [
        None,  # a random all-simple spectrum
        [(1, 1.3 + 0j, 2, None), (6, 0.8j, 1, -1j)],
    ])
    def test_one_symplectic_residual_per_report(self, specs, rng, monkeypatch):
        # The report carries the residual that assemble_transform checked.
        nf = sys.modules["quadnf.normal_form"]
        residual, seen = nf.symplectic_residual, []

        def counted_residual(t):
            seen.append(residual(t))
            return seen[-1]

        monkeypatch.setattr(nf, "symplectic_residual", counted_residual)
        if specs is None:
            a = rng.normal(size=(8, 8))
            m = (a + a.T) / 2
        else:
            m, _ = seeded_matrix(specs, rng)
        rep = normal_form(m)
        assert seen == [rep.residuals["symplectic"]]
        assert list(rep.residuals) == ["symplectic", "block_match", "n_reconstruction",
                                       "condition"]
