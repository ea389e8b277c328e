"""The group assembly against the per-chain recipe it replaced, bit for bit.

``normal_form`` builds the columns of T and the blocks of K_N once per
(case, rank) group of chains, and gathers T in mode order.  The reference
below is the per-chain recipe: each chain's columns on their own, the
chains sorted stably into mode order, ``np.column_stack``, and each block
from ``tests/conftest.py``'s copy of the block formulas.  Both take the
same orthonormalized chains, so T, K_N, every block, the terms and the
verdict must agree to the bit, and an attempt that fails must fail with
the same message, at every clustering radius ``normal_form`` tries.
"""

import sys
from dataclasses import dataclass

import numpy as np
import pytest

import conftest
from conftest import seeded_matrix, two_mode_m
from test_normal_form import EVERY_BLOCK, same_block
from test_two_mode_oracle import POINTS
from quadnf import build_eom, similarity, symplectic_residual
from quadnf.config import DEFAULT, maxnorm
from quadnf.errors import QuadnfError, SpectrumStructureError
from quadnf.algebra import (
    orthonormalize_imaginary,
    orthonormalize_real_complex,
    orthonormalize_zero,
    zero_odd_pairing,
)
from quadnf.normal_form import VERIFY_TOL, emit_terms, expected_kn
from quadnf.spectrum import (
    CLUSTERING_TOL,
    EigenvalueKind,
    classify_spectrum,
    cluster_eigenvalues,
    extract_class_chains,
)

SQRT2 = np.sqrt(2.0)
NF = sys.modules["quadnf.normal_form"]


@dataclass
class Chain:
    case: int
    eigenvalue: complex
    rank: int
    sigma: complex | None
    t_cols: list
    s_cols: list


def chain_columns(case, data) -> Chain:
    """Columns of T for one orthonormalized chain (or f/h pair), chain by chain."""
    chain, other = data
    lam, d = chain.eigenvalue, chain.rank
    z = list(reversed(chain.vectors))
    sigma = None if case in (1, 2, 4) else other
    if case in (1, 2, 4):
        w = [(-1.0) ** (d - kk) * other.vectors[kk - 1] for kk in range(1, d + 1)]
    elif case == 5:
        w = [sigma * (-1.0) ** kk * np.conj(z[d - kk]) for kk in range(1, d + 1)]
    if case in (1, 4):
        t_cols, s_cols = z, w
    elif case in (2, 5):
        if case == 2:
            z, w = [v for v in z for _ in range(2)], [v for v in w for _ in range(2)]
        t_cols = [SQRT2 * (np.imag(v) if i % 2 else np.real(v)) for i, v in enumerate(z)]
        s_cols = [-SQRT2 * np.imag(v) if i % 2 else SQRT2 * np.real(v) for i, v in enumerate(w)]
    elif case == 3:
        s = float(np.real(sigma))
        t_cols = [s ** (kk - 1) * z[kk - 1] for kk in range(1, d // 2 + 1)]
        s_cols = [(-s) ** (d - kk) * chain.vectors[kk - 1] for kk in range(1, d // 2 + 1)]
    else:
        eps = float(np.real(-1j * sigma))
        t_cols = [SQRT2 * np.real(v) for v in z]
        s_cols = [eps * (-1.0) ** kk * SQRT2 * np.imag(z[d - kk]) for kk in range(1, d + 1)]
    return Chain(case, complex(lam), d, None if sigma is None else complex(sigma),
                 [np.asarray(np.real(c), dtype=float) for c in t_cols],
                 [np.asarray(np.real(c), dtype=float) for c in s_cols])


def mode_key(c: Chain):
    lam, sigma = c.eigenvalue, c.sigma if c.sigma is not None else 0j
    return (c.case, -abs(lam), -lam.imag, -c.rank, -sigma.real, -sigma.imag)


def reference_attempt(k, clusters, eigenvalues, vectors):
    """(T, blocks) of one attempt by the per-chain recipe, on the program's chains."""
    shifts = {}
    spectrum = classify_spectrum(k, clusters, _eigenvalues=eigenvalues, _eigenvectors=vectors,
                                 _shifts=shifts)
    chains = []
    for cls in spectrum.classes:
        lam = cls.representative
        found, partners = extract_class_chains(k, cls, _level1=shifts[lam])
        if cls.kind in (EigenvalueKind.REAL_PAIR, EigenvalueKind.COMPLEX_QUADRUPLET):
            case = 1 if cls.kind is EigenvalueKind.REAL_PAIR else 2
            chains += [chain_columns(case, pair) for pair in
                       orthonormalize_real_complex(k, lam, found, partners)]
        elif cls.kind is EigenvalueKind.ZERO:
            case3, case4 = orthonormalize_zero(k, found)
            chains += [chain_columns(3, item) for item in case3]
            chains += [chain_columns(4, pair) for pair in zero_odd_pairing(k, case4)]
        else:
            chains += [chain_columns(5 + chain.rank % 2, (chain, sigma))
                       for chain, sigma in orthonormalize_imaginary(k, lam, found)]
    chains.sort(key=mode_key)
    t = np.column_stack([c for ch in chains for c in ch.t_cols] +
                        [c for ch in chains for c in ch.s_cols])
    blocks = tuple(conftest._block_for_unit(conftest._Unit(c.case, c.eigenvalue, c.rank, c.sigma))
                   for c in chains)
    return t, blocks


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous == b.flags.c_contiguous
            and a.tobytes() == b.tobytes())


def check_every_radius(m):
    """Compare the program's attempt with the reference at every radius normal_form
    tries; return the (case, rank) of every block the attempts that succeeded made."""
    m = np.asarray(m, dtype=float)
    k = build_eom(m)
    eigenvalues, vectors = np.linalg.eig(k)
    assembled = set()  # (case, rank) of every block of a successful attempt
    radii = [CLUSTERING_TOL]  # t_0 .. t_8, as normal_form widens them
    for _ in range(8):
        radii.append(radii[-1] * 10.0)
    for tol in radii:
        try:
            clusters = cluster_eigenvalues(k, tol=tol, _eigenvalues=eigenvalues)
        except SpectrumStructureError:
            continue
        try:
            report = NF._attempt_normal_form(m, k, clusters, eigenvalues, vectors, DEFAULT)
        except QuadnfError as exc:
            try:
                t, blocks = reference_attempt(k, clusters, eigenvalues, vectors)
            except QuadnfError as ref:  # the chains themselves failed: the same error
                assert (type(ref), str(ref)) == (type(exc), str(exc))
                continue
            # The assembly or the verification failed: the reference fails the same check.
            cond = float(np.linalg.cond(t))
            mismatch = maxnorm(similarity(k, t, _cond=cond) - expected_kn(blocks, k.shape[0] // 2))
            budget = VERIFY_TOL * (1.0 + maxnorm(k)) * max(1.0, cond)
            assert (f"residual {symplectic_residual(t):.3e}" in str(exc)
                    or f"= {mismatch:.3e} exceeds {budget:.3e}" in str(exc)), str(exc)
            continue
        t, blocks = reference_attempt(k, clusters, eigenvalues, vectors)
        assert same_bits(report.transform.matrix, t)
        assert same_bits(report.k_normal, similarity(k, t, _cond=float(np.linalg.cond(t))))
        assert len(report.blocks) == len(blocks)
        assert all(same_block(a, b) for a, b in zip(report.blocks, blocks))
        assert repr(report.terms) == repr(emit_terms(blocks))
        assert (report.verdict, report.reasons, report.zero_frequency_modes) == NF._verdict(blocks)
        assembled.update((b.case, b.rank) for b in blocks)
    return assembled


def generic_inputs():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        a = rng.normal(size=(2 * n, 2 * n))
        yield f"generic-{n}", (a + a.T) / 2
        yield f"pd-{n}", a @ a.T + 0.5 * np.eye(2 * n)


def planted_inputs():
    rng = np.random.default_rng(12)
    specs = [spec + (None,) * (4 - len(spec)) for spec in EVERY_BLOCK]
    for spec in specs:  # alone, with a simple imaginary pair, and twice (a group of two)
        name = f"c{spec[0]}d{spec[2]}"
        yield name, seeded_matrix([spec, (6, 2.6j, 1, -1j)], rng, 0.3)[0]
        if spec[2] <= 3:
            other = (spec[0], spec[1] * 1.4 if spec[1] else spec[1], spec[2], spec[3])
            yield f"{name}x2", seeded_matrix([spec, other], rng, 0.3)[0]


def two_mode_inputs():
    for eta, lam, *_ in POINTS:
        yield f"two-mode({float(eta):g},{float(lam):g})", two_mode_m(float(eta), float(lam))


CORPUS = [*generic_inputs(), *planted_inputs(), *two_mode_inputs()]


@pytest.mark.parametrize("name,m", CORPUS, ids=[name for name, _ in CORPUS])
def test_groups_match_the_per_chain_recipe(name, m):
    assert check_every_radius(m), "no attempt succeeded"


def test_every_case_and_rank_is_compared():
    assembled = set().union(*(check_every_radius(m) for _, m in planted_inputs()))
    assert assembled >= {spec[::2] for spec in EVERY_BLOCK}
