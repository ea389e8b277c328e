import gc
import itertools
import os
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import conftest
import quadnf
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
    flat_members,
    seeded_matrix,
    two_mode_m,
)
from quadnf import (
    Verdict,
    build_eom,
    normal_form,
    symplectic_form,
    symplectic_residual,
    terms_matrix,
)
from quadnf.errors import (
    AssemblyError,
    ChainExtractionError,
    NondegeneracyError,
    QuadnfError,
    SpectrumStructureError,
    VerificationError,
)
from quadnf.normal_form import (
    TermKind,
    _block,
    _stack_normal_forms,
    build_case_columns,
    emit_terms,
    expected_kn,
)
from quadnf.reporting import MatrixDocument, report_to_dict, signature_string
from quadnf.spectrum import (
    CLUSTERING_TOL,
    EigenvalueClass,
    EigenvalueKind,
    JordanChain,
    make_chain,
)


def block_of(case, lam, rank, sigma=None):
    """The program's block for one chain."""
    return _block(case, lam, rank, sigma)


def block_terms(specs):
    """emit_terms on the blocks of ``specs``; also the blocks and the mode count."""
    blocks = [block_of(*spec) for spec in specs]
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
        group = build_case_columns(1, [(e, et)])
        assert np.allclose(group.t_plus[0, 0], GOLDEN_E11, atol=1e-12)
        assert np.allclose(group.t_plus[0, 1], GOLDEN_T2, atol=1e-12)
        assert np.allclose(group.t_minus[0, 0], GOLDEN_S1, atol=1e-12)
        assert np.allclose(group.t_minus[0, 1], GOLDEN_E11T, atol=1e-12)

    def test_golden_zero_pair(self):
        k = build_eom(GOLDEN_M)
        f = make_chain(k, 0.0, GOLDEN_F01, 1)
        h = make_chain(k, 0.0, GOLDEN_H01, 1)
        group = build_case_columns(4, [(f, h)])
        assert np.allclose(group.t_plus[0, 0], GOLDEN_F01)
        assert np.allclose(group.t_minus[0, 0], GOLDEN_H01)

    def test_golden_imaginary(self):
        # sigma = -i: the momentum column is +sqrt(2) Im(e), the sign that
        # makes t^T J s = +1 (and matches the assembled transformation).
        k = build_eom(GOLDEN_M)
        chain = make_chain(k, 3j, GOLDEN_E21, 1)
        group = build_case_columns(6, [(chain, -1j)])
        t, s = group.t_plus[0, 0], group.t_minus[0, 0]
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
            group = build_case_columns(case, [(e, et)])
            assert all(map(np.array_equal, group.t_plus[0], powers(e))), case
            assert all(map(np.array_equal, group.t_minus[0], partner_w(e, et))), case

        # Case 1 as orthonormalize_real_complex hands it over: a real partner
        # divided by alpha, a complex with a zero imaginary part.
        e, et = chain(1.3 + 0j, 3, real=True), chain(-1.3 + 0j, 3, real=True)
        a = complex(rng.normal(), 0.0)
        et_c = JordanChain(et.eigenvalue, 3, tuple(v / a for v in et.vectors))
        assert all(v.dtype == complex and not v.imag.any() for v in et_c.vectors)
        et_r = JordanChain(et.eigenvalue, 3, tuple(v.real for v in et_c.vectors))
        group = build_case_columns(1, [(e, et_c)])
        assert all(c.dtype == np.float64 for c in (group.t_plus, group.t_minus))
        assert all(map(np.array_equal, group.t_plus[0], powers(e)))
        assert all(map(np.array_equal, group.t_minus[0], partner_w(e, et_r)))

        e, et = chain(0.6 + 1.2j, 3), chain(-0.6 - 1.2j, 3)
        z, w = powers(e), partner_w(e, et)
        group = build_case_columns(2, [(e, et)])
        t = [r2 * part(v) for v in z for part in (np.real, np.imag)]
        s = [x for v in w for x in (r2 * np.real(v), -r2 * np.imag(v))]
        assert group.t_plus.shape == group.t_minus.shape == (1, 6, 8)
        assert all(map(np.array_equal, group.t_plus[0], t))
        assert all(map(np.array_equal, group.t_minus[0], s))

        for sigma in (1 + 0j, -1 + 0j):
            c = chain(2.1j, 4)
            z = powers(c)
            w = [sigma * (-1.0) ** kk * np.conj(z[4 - kk]) for kk in range(1, 5)]
            group = build_case_columns(5, [(c, sigma)])
            t = [r2 * np.real(z[0]), r2 * np.imag(z[1]), r2 * np.real(z[2]), r2 * np.imag(z[3])]
            s = [r2 * np.real(w[0]), -r2 * np.imag(w[1]), r2 * np.real(w[2]), -r2 * np.imag(w[3])]
            assert all(map(np.array_equal, group.t_plus[0], t)), sigma
            assert all(map(np.array_equal, group.t_minus[0], s)), sigma

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


def same_block(a, b):
    """Equal fields, and arrays of equal dtype, shape and bytes."""
    arrays = ("i_i", "i_r", "i_l")
    return ((a.case, a.eigenvalue, a.rank, a.sigma) == (b.case, b.eigenvalue, b.rank, b.sigma)
            and (type(a.eigenvalue), type(a.sigma)) == (type(b.eigenvalue), type(b.sigma))
            and all(getattr(a, x).dtype == getattr(b, x).dtype
                    and getattr(a, x).shape == getattr(b, x).shape
                    and getattr(a, x).tobytes() == getattr(b, x).tobytes() for x in arrays))


class TestExpectedBlocks:
    def test_program_blocks_match_the_planted_copy(self):
        # tests/conftest.py plants K_N from its own copy of the block formulas.
        for spec in EVERY_BLOCK:
            spec = spec + (None,) * (4 - len(spec))
            want = conftest._block_for_unit(conftest._Unit(*spec))
            assert same_block(block_of(*spec), want), spec

    def test_real_pair_rank_two(self):
        b = block_of(1, 2.0 + 0j, 2)
        assert np.array_equal(b.i_i, [[2, 0], [1, 2]])
        assert not b.i_r.any() and not b.i_l.any()

    def test_imaginary_rank_one(self):
        b = block_of(6, 3j, 1, -1j)
        assert np.array_equal(b.i_i, [[0]])
        assert np.array_equal(b.i_r, [[3]])
        assert np.array_equal(b.i_l, [[-3]])

    def test_zero_even_rank_two(self):
        b = block_of(3, 0j, 2, 1 + 0j)
        assert np.array_equal(b.i_i, [[0]])
        assert np.array_equal(b.i_r, [[0]])
        assert np.array_equal(b.i_l, [[-1]])

    def test_quadruplet_rank_one(self):
        b = block_of(2, 0.5 + 1.5j, 1)
        assert np.array_equal(b.i_i, [[0.5, 1.5], [-1.5, 0.5]])

    def test_block_eigenvalues_match_family(self):
        # assembled block [[I_I, I_R], [I_L, -I_I^T]] must carry the
        # eigenvalue family with the right multiplicities
        cases = [
            (block_of(1, 1.5 + 0j, 3), [1.5] * 3 + [-1.5] * 3),
            (block_of(3, 0j, 4, -1 + 0j), [0.0] * 4),
            (block_of(5, 2.0j, 2, 1 + 0j), [2j, 2j, -2j, -2j]),
            (block_of(6, 3.0j, 3, 1j), [3j] * 3 + [-3j] * 3),
            (block_of(2, 1.0 + 2.0j, 1), [1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j]),
        ]
        for b, expected in cases:
            full = np.block([[b.i_i, b.i_r], [b.i_l, -b.i_i.T]])
            # defective eigenvalues shift like eps^(1/D) under eigvals, so
            # compare characteristic polynomials instead
            got = np.poly(full)
            want = np.poly(np.diag(np.array(expected, complex)))
            scale = 1 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-8 * scale

    def test_expected_kn_is_hamiltonian_structured(self):
        blocks = [block_of(1, 2.0 + 0j, 2), block_of(4, 0j, 1), block_of(6, 3j, 1, -1j)]
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


class TestAssemblyCheck:
    def test_a_broken_column_raises_with_its_gram_residual(self, rng, monkeypatch):
        # Doubling one column of a valid group breaks T J T^T = J; the error
        # names the residual checked and carries T J T^T - J of the broken T.
        nf = sys.modules["quadnf.normal_form"]
        assemble, seen = nf.assemble_transform, []

        def recorded(groups, modes, n_modes, cfg):
            seen.append((groups, modes, n_modes))
            return assemble(groups, modes, n_modes, cfg)

        monkeypatch.setattr(nf, "assemble_transform", recorded)
        m, _ = seeded_matrix([(1, 1.3 + 0j, 2, None), (6, 0.8j, 1, -1j)], rng)
        t = normal_form(m).transform.matrix
        ((groups, modes, n_modes),) = seen
        t_plus = groups[0].t_plus.copy()
        t_plus[0, 0] *= 2
        # Chain 0's first column of T_+ sits on the first mode of its block.
        column = modes[0][0, 0]
        broken = t.copy()
        broken[:, column] *= 2
        j = symplectic_form(n_modes)
        assert assemble(groups, modes, n_modes)[2] == [None]
        _, _, (error,) = assemble([groups[0]._replace(t_plus=t_plus), *groups[1:]], modes, n_modes)
        assert isinstance(error, AssemblyError) and "not symplectic" in str(error)
        assert f"residual {symplectic_residual(broken):.3e}" in str(error)
        assert np.array_equal(error.gram_residual, broken @ j @ broken.T - j)

    def test_a_failed_assembly_takes_no_condition_estimate_and_no_solve(self, monkeypatch):
        # The one member of normal_form's stack fails assembly: the finisher
        # yields assembly's error as it is and calls neither cond(T) nor similarity.
        nf = sys.modules["quadnf.normal_form"]
        finish, assemble, seen, made, called = nf._finish, nf.assemble_transform, [], [], []

        def recorded(*args):
            out = assemble(*args)
            made.append(out[2])
            return out

        monkeypatch.setattr(nf, "_finish", lambda *args: seen.append(args) or finish(*args))
        normal_form(two_mode_m(0.5, 0.3))
        monkeypatch.setattr(nf, "assemble_transform", recorded)
        monkeypatch.setattr(nf, "_not_symplectic", lambda t, res, cfg: np.ones(len(t), dtype=bool))
        monkeypatch.setattr(np.linalg, "cond", lambda *args: called.append("cond"))
        monkeypatch.setattr(nf, "similarity", lambda *args, **kw: called.append("similarity"))
        ((ms, *rest),) = seen
        (outcome,) = finish(ms, *rest)
        assert len(ms) == 1 and called == []
        assert isinstance(outcome, AssemblyError) and "not symplectic" in str(outcome)
        assert len(made) == 1 and made[0][0] is outcome


def is_bogoliubov(spectrum) -> bool:
    """K is diagonalizable with a purely imaginary spectrum."""
    return all(c.kind is EigenvalueKind.IMAGINARY_PAIR and c.geometric == c.algebraic
               for c in spectrum.classes)


def assert_not_bogoliubov(rep):
    assert rep.verdict is not Verdict.STABLE
    assert any((b.case, b.rank) != (6, 1) for b in rep.blocks)


def _equivalence_inputs(family):
    rng = np.random.default_rng(20261019)
    if family == "pd":
        for n in (1, 2, 3, 6):
            a = rng.normal(size=(2 * n, 2 * n))
            yield a @ a.T + 0.3 * np.eye(2 * n)
    elif family == "generic":
        for n in (1, 2, 3, 6):
            a = rng.normal(size=(2 * n, 2 * n))
            yield (a + a.T) / 2
    elif family == "planted":
        for specs in (
            [(6, 0.8j, 1, 1j)],
            [(6, 0.8j, 1, 1j), (6, 1.3j, 1, -1j)],
            [(6, 0.8j, 1, 1j), (6, 0.8j, 1, -1j)],  # repeated, diagonalizable
            [(6, 0.8j, 3, 1j)],  # defective, odd rank
            [(5, 0.8j, 2, 1.0)],  # defective, even rank
            [(6, 0.8j, 1, 1j), (6, 0.8j, 3, -1j)],  # geometric 2 < algebraic 4
            [(6, 0.8j, 1, 1j), (1, 1.3 + 0j, 1, None)],
            [(6, 0.8j, 1, -1j), (2, 0.7 + 1.1j, 1, None)],
            [(6, 0.8j, 1, 1j), (4, 0j, 1, None)],  # zero-frequency mode
            [(3, 0j, 2, 1.0)],
        ):
            yield seeded_matrix(specs, rng)[0]
    else:
        grid = np.linspace(-2.0, 2.0, 41)
        for eta, lam in itertools.product(grid, grid):
            yield two_mode_m(eta, lam)


class TestBogoliubov:
    """A Bogoliubov diagonalization is the STABLE verdict of ``normal_form``:
    case-6 blocks of rank 1, with N diagonal."""

    def test_identity_hamiltonian(self):
        rep = normal_form(np.eye(2))
        assert rep.verdict is Verdict.STABLE
        assert np.allclose(rep.n_matrix, np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(rep.transform.matrix), np.eye(2), atol=1e-12)

    def test_two_mode_frequencies(self):
        rep = normal_form(two_mode_m(1.0, 0.5))
        assert rep.verdict is Verdict.STABLE
        # roots of mu^2 - 2 mu + (1 - 1/4): frequencies sqrt(3/2), sqrt(1/2)
        want = np.array([np.sqrt(1.5), np.sqrt(0.5), np.sqrt(1.5), np.sqrt(0.5)])
        assert np.allclose(np.diag(rep.n_matrix), want, atol=1e-10)
        off = rep.n_matrix - np.diag(np.diag(rep.n_matrix))
        assert np.max(np.abs(off)) < 1e-10

    def test_other_families_not_stable(self):
        assert_not_bogoliubov(normal_form(GOLDEN_M))
        assert_not_bogoliubov(normal_form(two_mode_m(1.0, 2.0)))

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
        assert_not_bogoliubov(normal_form(m))

    def test_indefinite_oscillators(self):
        # two uncoupled oscillators of opposite energy sign share lambda = i
        m = np.diag([1.0, -1.0, 1.0, -1.0])
        rep = normal_form(m)
        assert rep.verdict is Verdict.STABLE
        sigmas = sorted((b.sigma for b in rep.blocks), key=lambda z: z.imag)
        assert sigmas == [-1j, 1j]
        assert np.allclose(sorted(np.diag(rep.n_matrix)), [-1, -1, 1, 1], atol=1e-10)

    @pytest.mark.parametrize("family", ["pd", "generic", "planted", "two-mode-grid"])
    def test_stable_exactly_when_spectrum_is_diagonalizable_imaginary(self, family):
        # The verdict's rule (every block case 6, rank 1) and the spectrum's
        # (every class an imaginary pair with geometric == algebraic) agree.
        seen = Counter()
        for m in _equivalence_inputs(family):
            rep = normal_form(m)
            stable = rep.verdict is Verdict.STABLE
            assert stable == is_bogoliubov(rep.spectrum)
            seen[stable] += 1
        want = {"pd": {True}, "generic": {False}}.get(family, {True, False})
        assert set(seen) == want


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

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-6])
    def test_verification_budget_widens_with_the_tolerance(self, tolerance, monkeypatch):
        # The budget is max(VERIFY_TOL, tolerance) (1 + max|K|) max(1, cond T):
        # a document tolerance above VERIFY_TOL = 1e-7 widens it.
        m = two_mode_m(1.0, 0.5)
        cfg = MatrixDocument(2, m, tolerance).config()
        cond = normal_form(m, cfg).residuals["condition"]
        nf = sys.modules["quadnf.normal_form"]
        expected, attempt, raised = nf._stacked_kn, nf._attempt_normal_form, []

        def recorded_attempt(*args):
            try:
                return attempt(*args)
            except VerificationError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(nf, "_stacked_kn", lambda *args: expected(*args) + 1.0)
        monkeypatch.setattr(nf, "_attempt_normal_form", recorded_attempt)
        with pytest.raises(QuadnfError):  # the widest radius's error, not the first
            normal_form(m, cfg)
        # The first attempt clusters at CLUSTERING_TOL, as the unpatched run did.
        budget = max(1e-7, tolerance) * (1 + np.max(np.abs(build_eom(m)))) * max(1.0, cond)
        assert raised[0].endswith(f"exceeds {budget:.3e}")

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


class TestEscalationAttempts:
    """The error normal_form raises after its widest radius carries one plain
    string per radius t_0..t_8, and its own message is unchanged."""

    def test_every_radius_is_recorded(self, monkeypatch):
        # Oscillators at 1, 1 + 3e-6 and 1 + 3e-4: the clustering merges the
        # first two at t_2, all three at t_4 and +-i into 0 at t_7, and
        # repeats in between.
        m = np.diag([1.0, 1.0 + 3e-6, 1.0 + 3e-4] * 2)
        nf = sys.modules["quadnf.normal_form"]
        cluster, raised = nf.cluster_eigenvalues, []
        kinds = [ChainExtractionError, NondegeneracyError, AssemblyError, VerificationError]

        def unpaired_at_t0(k, tol, **kwargs):
            if tol == CLUSTERING_TOL:
                raise SpectrumStructureError("no partner, forced")
            return cluster(k, tol=tol, **kwargs)

        def failing(*args):
            raised.append(kinds[len(raised)](f"attempt {len(raised)} forced"))
            raise raised[-1]

        monkeypatch.setattr(nf, "cluster_eigenvalues", unpaired_at_t0)
        monkeypatch.setattr(nf, "_attempt_normal_form", failing)
        with pytest.raises(QuadnfError) as info:
            normal_form(m)
        assert info.value is raised[-1] and str(info.value) == f"attempt {len(raised) - 1} forced"
        attempts = info.value.attempts
        assert len(attempts) == 9 and all(type(a) is str for a in attempts)
        assert attempts[0] == ("t_0 = 1e-07: skipped, the spectrum did not pair up "
                               "(SpectrumStructureError: no partner, forced)")
        tried = [a for a in attempts if "skipped" not in a]
        assert tried == [f"t_{i} = {10.0 ** (i - 7):.0e}: {type(e).__name__}: {e}"
                         for i, e in zip((1, 2, 4, 7), raised, strict=True)]
        repeats = {3: 2, 5: 4, 6: 4, 8: 7}
        assert [a for a in attempts if "repeats" in a] == [
            f"t_{i} = {10.0 ** (i - 7):.0e}: skipped, the clustering repeats t_{j}'s"
            for i, j in repeats.items()]
        raised.clear()  # their tracebacks hold this frame

    def test_a_new_orbit_structure_is_not_a_repeat(self, monkeypatch):
        # One quadruplet at t_0, two imaginary pairs from t_1 on: every member
        # has multiplicity 1 at both radii, yet the classes differ, so t_1 is
        # tried.  The clustering is forced: under the fold rule, two radii
        # that pair a real spectrum up with the same member multiplicities
        # give the same classes, since a wider radius only merges and snaps.
        nf = sys.modules["quadnf.normal_form"]
        quad, imag = EigenvalueKind.COMPLEX_QUADRUPLET, EigenvalueKind.IMAGINARY_PAIR
        by_radius = {CLUSTERING_TOL: [EigenvalueClass(quad, 1 + 1j, 1)]}
        pairs = [EigenvalueClass(imag, 2j, 1), EigenvalueClass(imag, 1j, 1)]
        assert [m for _, m in flat_members(by_radius[CLUSTERING_TOL])] == [
            m for _, m in flat_members(pairs)]

        def failing(*args):
            raise ChainExtractionError("forced")

        monkeypatch.setattr(nf, "cluster_eigenvalues", lambda k, tol, **_: by_radius.get(tol, pairs))
        monkeypatch.setattr(nf, "_attempt_normal_form", failing)
        with pytest.raises(ChainExtractionError) as info:
            normal_form(np.eye(4))
        assert info.value.attempts[:3] == ("t_0 = 1e-07: ChainExtractionError: forced",
                                           "t_1 = 1e-06: ChainExtractionError: forced",
                                           "t_2 = 1e-05: skipped, the clustering repeats t_1's")


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


class TestRetainedMemory:
    """Nothing an op allocates outlives its report.

    tracemalloc counts numpy's data too.  Only allocations made on quadnf's
    own lines count here: numpy keeps a few blocks per call of
    ``np.linalg.cond``, and SciPy's ``gees`` wrappers, which repeated
    classes call, keep about 60 bytes per call, in every version of this
    program.  So the inputs have simple spectra only.
    """

    def test_repeated_calls_hold_no_more_memory(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8))
        inputs = [(a + a.T) / 2, a @ a.T + np.eye(8),
                  seeded_matrix([(1, 1.3 + 0j, 1, None), (2, 0.5 + 1.1j, 1, None),
                                 (6, 2.6j, 1, -1j)], rng, 0.3)[0]]
        own = [tracemalloc.Filter(True, os.path.join(os.path.dirname(quadnf.__file__), "*"))]

        def held(calls):
            for _ in range(calls):
                for m in inputs:
                    report_to_dict(normal_form(m))
            gc.collect()
            return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(own).traces)

        tracemalloc.start()
        try:
            before = held(10)
            after = held(50)  # one 24-byte object kept per op would add 3.6 kB
        finally:
            tracemalloc.stop()
        assert after - before < 1024


class TestFactorizationCounts:
    """K gets one eig per normal_form call, however many attempts it takes,
    and each clustering radius at most one pass; a simple class takes its
    eigenvectors from eig(K), and each matrix the filtration of a
    defective class factors gets one SVD per attempt."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        svd, norm, eig, eigvals = np.linalg.svd, np.linalg.norm, np.linalg.eig, np.linalg.eigvals

        def counted_svd(a, *args, **kwargs):
            counts["svd"] += 1
            counts["svd", np.shape(a)] += 1
            return svd(a, *args, **kwargs)

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

    def test_simple_chains_are_eig_columns_of_lam_and_minus_lam(self, monkeypatch):
        # A simple real pair or quadruplet reaches orthonormalize_real_complex
        # as one rank-1 chain of lam and one rank-1 partner of -lam, each on
        # its own column of eig(K).
        a = np.random.default_rng(11).normal(size=(6, 6))
        k = build_eom((a + a.T) / 2)
        nf = sys.modules["quadnf.normal_form"]
        orthonormalize, seen = nf.orthonormalize_real_complex, []

        def recorded(k, lam, chains, partners):
            seen.append((lam, list(chains), list(partners)))
            return orthonormalize(k, lam, chains, partners)

        monkeypatch.setattr(nf, "orthonormalize_real_complex", recorded)
        normal_form((a + a.T) / 2)
        assert seen
        for lam, chains, partners in seen:
            assert [(c.eigenvalue, c.rank) for c in chains] == [(lam, 1)]
            assert [(p.eigenvalue, p.rank) for p in partners] == [(-lam, 1)]
            for mu, (v,) in ((lam, chains[0].vectors), (-lam, partners[0].vectors)):
                assert np.linalg.norm(k @ v - mu * v) <= 1e-12 * np.linalg.norm(k, 2)

    def test_defective_partner_keeps_its_own_svds(self, calls, rng):
        # A rank-2 real pair: K - lam I and (K - lam I)^2 for lam, and the
        # same two for -lam, whose chains get their own filtration.
        m, _ = seeded_matrix([(1, 1.3 + 0j, 2, None)], rng)
        rep = normal_form(m)
        assert [(b.case, b.rank) for b in rep.blocks] == [(1, 2)]
        assert (calls["svd"], calls["eig"]) == (4, 1)

    def test_svds_no_larger_than_the_class(self, calls, rng):
        # A repeated eigenvalue is ranked on K restricted to its invariant
        # subspace: every SVD is a x a for algebraic multiplicity a, never
        # 2N x 2N, and K still takes one eig.
        m, _ = seeded_matrix([(1, 1.3 + 0j, 2, None), (6, 0.8j, 1, -1j), (6, 1.9j, 1, 1j),
                              (2, 0.6 + 1.1j, 1, None)], rng)
        rep = normal_form(m)
        assert rep.n_modes == 6
        assert sorted((b.case, b.rank) for b in rep.blocks) == [(1, 2), (2, 1), (6, 1), (6, 1)]
        shapes = [key[1] for key in calls if isinstance(key, tuple)]
        assert shapes and max(max(shape) for shape in shapes) <= 2
        assert (calls["eig"], calls["eigvals"]) == (1, 0)

    def test_escalation_reuses_eigvals(self, calls, rng, monkeypatch):
        # A rank-4 real pair splits beyond the first clustering radius, and its
        # first full attempt fails.
        nf = sys.modules["quadnf.normal_form"]
        classify = nf.classify_spectrum

        def counted_classify(*args, **kwargs):
            calls["attempts"] += 1
            return classify(*args, **kwargs)

        monkeypatch.setattr(nf, "classify_spectrum", counted_classify)
        m, _ = seeded_matrix([(1, 1.3 + 0j, 4, None)], rng)
        rep = normal_form(m)
        assert [(b.case, b.rank) for b in rep.blocks] == [(1, 4)]
        assert calls["attempts"] >= 2
        assert (calls["eig"], calls["eigvals"]) == (1, 0)

    def test_escalation_clusters_each_radius_once(self, monkeypatch):
        # The radii run CLUSTERING_TOL, 10 CLUSTERING_TOL, ... by repeated
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
        schedule = [CLUSTERING_TOL]
        for _ in range(8):
            schedule.append(schedule[-1] * 10.0)
        assert len(radii) >= 2
        assert len(set(radii)) == len(radii)
        assert radii == schedule[:len(radii)]

    def test_bogoliubov_takes_one_eig(self, calls):
        # A stable verdict is read off normal_form's own blocks.
        rep = normal_form(two_mode_m(1.0, 0.5))
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


def _close(got, want) -> bool:
    """Agreement to 1e-12 relative to the magnitude, with a floor of 1."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (1.0 + np.max(np.abs(want), initial=0.0)))


class TestStackNormalForms:
    """Each member of a stack gets what normal_form gives it alone: the same
    discrete outcome exactly, and the same numbers to 1e-12."""

    def assert_same_outcome(self, got, m):
        try:
            want = normal_form(m)
        except QuadnfError as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            return
        assert (got.verdict, got.reasons, got.zero_frequency_modes) == (
            want.verdict, want.reasons, want.zero_frequency_modes)
        assert signature_string(got) == signature_string(want)
        assert [(c.kind, c.algebraic, c.geometric) for c in got.spectrum.classes] == [
            (c.kind, c.algebraic, c.geometric) for c in want.spectrum.classes]
        assert [(b.case, b.rank, b.sigma) for b in got.blocks] == [
            (b.case, b.rank, b.sigma) for b in want.blocks]
        assert [(t.kind, t.modes) for t in got.terms] == [(t.kind, t.modes) for t in want.terms]
        assert list(got.residuals) == list(want.residuals)
        for a, b in [([c.representative for c in got.spectrum.classes],
                      [c.representative for c in want.spectrum.classes]),
                     ([b.eigenvalue for b in got.blocks], [b.eigenvalue for b in want.blocks]),
                     ([t.coefficient for t in got.terms], [t.coefficient for t in want.terms]),
                     (got.transform.matrix, want.transform.matrix),
                     (got.k_normal, want.k_normal),
                     (got.n_matrix, want.n_matrix),
                     *zip(got.residuals.values(), want.residuals.values())]:
            assert _close(a, b)

    @staticmethod
    def stacked(ms, monkeypatch):
        """_stack_normal_forms(ms), and whether each member took the per-matrix path."""
        nf, alone = sys.modules["quadnf.normal_form"], []
        analyze = nf.normal_form

        def recorded(m):
            alone.append(m.tobytes())
            return analyze(m)

        with monkeypatch.context() as patch:
            patch.setattr(nf, "normal_form", recorded)
            results = list(_stack_normal_forms(ms))
        return results, [m.tobytes() in alone for m in ms]

    @staticmethod
    def all_simple(result) -> bool:
        return not isinstance(result, QuadnfError) and all(
            c.algebraic == 1 and c.kind is not EigenvalueKind.ZERO
            for c in result.spectrum.classes)

    @pytest.mark.parametrize("etas, lambdas, steps", [((-2.0, 2.0), (-2.0, 2.0), 41),
                                                     ((-3.0, 3.0), (-1.5, 1.5), 37)],
                             ids=["default", "offgrid"])
    def test_every_cell_of_the_two_mode_grid(self, etas, lambdas, steps, monkeypatch):
        ms = np.array([two_mode_m(eta, lam) for eta in np.linspace(*etas, steps)
                       for lam in np.linspace(*lambdas, steps)])
        results, alone = self.stacked(ms, monkeypatch)
        assert alone == [not self.all_simple(r) for r in results]  # only repeated classes
        for got, m in zip(results, ms):
            self.assert_same_outcome(got, m)

    def test_simple_classes_closer_than_the_certificate_fall_back(self, monkeypatch):
        # Imaginary pairs 5e-6 apart are simple at t_0, whose 10 radii are about
        # 2e-6, but lie within the 4 x 10 radii the stack's certificate asks of
        # them: that member alone takes normal_form.
        ms = np.array([np.diag([1, 1 + 5e-6, 1, 1 + 5e-6]), two_mode_m(0.5, 0.3)])
        results, alone = self.stacked(ms, monkeypatch)
        assert alone == [True, False]
        assert all(self.all_simple(r) for r in results)
        for got, m in zip(results, ms):
            self.assert_same_outcome(got, m)

    @pytest.mark.parametrize("check", ["_not_symplectic", "_ill_conditioned"])
    def test_a_member_failing_a_check_falls_back_alone(self, check, rng, monkeypatch):
        # The stack's finisher flags member 1 of three generic members as not
        # symplectic or ill-conditioned; that member alone reaches normal_form,
        # and every outcome is normal_form's.
        nf = sys.modules["quadnf.normal_form"]
        flags = getattr(nf, check)

        def flag_member_1(first, *args):
            flagged = flags(first, *args)
            if len(flagged) == 3:  # the stack's call, not a fallback's
                flagged = flagged.copy()
                flagged[1] = True
            return flagged

        monkeypatch.setattr(nf, check, flag_member_1)
        a = rng.normal(size=(3, 6, 6))
        ms = (a + a.swapaxes(1, 2)) / 2
        results, alone = self.stacked(ms, monkeypatch)
        assert alone == [False, True, False]
        assert all(self.all_simple(r) for r in results)
        for got, m in zip(results, ms):
            self.assert_same_outcome(got, m)

    def test_a_mixed_stack(self, rng, monkeypatch):
        a = rng.normal(size=(6, 6))
        generic = (a + a.T) / 2
        positive = a @ a.T + 0.5 * np.eye(6)
        defective, _ = seeded_matrix([(1, 1.3 + 0j, 2, None), (6, 0.8j, 1, -1j)], rng)
        asymmetric = generic.copy()
        asymmetric[0, 1] += 1.0
        non_finite = generic.copy()
        non_finite[2, 3] = np.nan
        ms = np.array([generic, positive, defective, asymmetric, non_finite])
        results, alone = self.stacked(ms, monkeypatch)
        assert alone == [False, False, True, True, True]
        assert [type(r).__name__ for r in results[3:]] == ["StructureError"] * 2
        assert not self.all_simple(results[2])
        for got, m in zip(results, ms):
            self.assert_same_outcome(got, m)
