import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import GOLDEN_M, GOLDEN_N, GOLDEN_T, random_symplectic, two_mode_m
from quadnf import (
    ContractViolationError,
    IllConditionedError,
    InvalidDimensionError,
    SaturationError,
    StructureError,
    build_eom,
    bosonic_conversion,
    normal_form,
    propagate,
    similarity,
    stability_oracle,
    symplectic_form,
    symplectic_residual,
    to_bosonic,
    transform_hamiltonian,
)
from quadnf.config import Config
from quadnf.core import ORACLE_SAMPLES, require_symplectic
from quadnf.errors import ValidationError


class TestSymplecticForm:
    def test_one_mode(self):
        assert np.array_equal(symplectic_form(1), [[0, 1], [-1, 0]])

    def test_two_modes(self):
        j = symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1
        expected[2, 0] = expected[3, 1] = -1
        assert np.array_equal(j, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_square_is_minus_identity(self, n):
        j = symplectic_form(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))
        assert np.array_equal(j.T, -j)
        assert np.array_equal(np.linalg.inv(j), j.T)

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidDimensionError):
            symplectic_form(0)

    @pytest.mark.parametrize("make", [symplectic_form, bosonic_conversion])
    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_a_mode_count_that_is_not_an_integer_rejected(self, make, n):
        # Once truncated: 2.5 gave the 2-mode matrix and True the 1-mode one.
        with pytest.raises(InvalidDimensionError, match="integer"):
            make(n)

    @pytest.mark.parametrize("make", [symplectic_form, bosonic_conversion])
    def test_a_numpy_integer_mode_count_accepted(self, make):
        assert np.array_equal(make(np.int64(2)), make(2))


class TestBuildEom:
    def test_two_mode_model(self):
        eta, lam = 0.7, -1.3
        k = build_eom(two_mode_m(eta, lam))
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, eta],
                [-1, -lam, 0, 0],
                [-lam, -eta, 0, 0],
            ]
        )
        assert np.allclose(k, expected)

    def test_identity_gives_form(self):
        assert np.array_equal(build_eom(np.eye(2)), symplectic_form(1))

    def test_zero(self):
        assert np.array_equal(build_eom(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(StructureError):
            build_eom(m)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_eom(np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidDimensionError, match="square"):
            build_eom(np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_non_finite_entry_rejected(self, bad, mirrored):
        # an inf entry with a finite mirror makes both max|M - M^T| and the
        # tolerance scale inf, so the symmetry check alone would pass it
        m = np.eye(4)
        m[1, 2] = bad
        if mirrored:
            m[2, 1] = bad
        with pytest.raises(StructureError, match=r"non-finite entries: \(1, 2\)"):
            build_eom(m)

    def test_non_finite_entry_rejected_by_normal_form(self):
        with pytest.raises(StructureError, match="non-finite"):
            normal_form(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSymplecticResidual:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitwise_equal_to_dense_product(self, n, rng):
        # T J is formed by a column swap; the dense T @ J @ T^T - J must
        # give the same bits, on symplectic T and on arbitrary T.
        j = symplectic_form(n)
        for t in (random_symplectic(n, rng, scale=0.8), rng.normal(size=(2 * n, 2 * n))):
            dense = float(np.max(np.abs(t @ j @ t.T - j)))
            assert symplectic_residual(t) == dense


class TestTransformHamiltonian:
    def test_golden_example(self):
        n = transform_hamiltonian(GOLDEN_M, GOLDEN_T)
        assert np.max(np.abs(n - GOLDEN_N)) < 1e-8

    def test_identity(self):
        assert np.allclose(transform_hamiltonian(GOLDEN_M, np.eye(8)), GOLDEN_M)

    def test_spectrum_preserved(self, rng):
        a = rng.normal(size=(6, 6))
        m = (a + a.T) / 2
        t = random_symplectic(3, rng)
        n = transform_hamiltonian(m, t)
        w1 = np.sort_complex(np.linalg.eigvals(build_eom(m)))
        w2 = np.sort_complex(np.linalg.eigvals(build_eom(n)))
        assert np.allclose(w1, w2, atol=1e-8)

    def test_non_symplectic_rejected(self):
        with pytest.raises(ContractViolationError):
            transform_hamiltonian(np.eye(2), 2 * np.eye(2))

    def test_a_complex_transform_with_zero_imaginary_part_taken_as_real(self):
        n = transform_hamiltonian(GOLDEN_M, GOLDEN_T + 0j)
        assert n.dtype == np.float64
        assert np.array_equal(n, transform_hamiltonian(GOLDEN_M, GOLDEN_T))

    def test_a_complex_transform_rejected(self):
        with pytest.raises(ContractViolationError, match="must be real"):
            transform_hamiltonian(GOLDEN_M, GOLDEN_T + 1e-3j)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                       complex(np.nan, 0.0)])
    def test_non_finite_transform_rejected(self, entry):
        # A NaN residual compares below every bound, so T's entries are checked
        # first, in both parts of a complex T.
        t = np.eye(4, dtype=type(entry))
        t[0, 0] = entry
        with pytest.raises(ContractViolationError, match="non-finite"):
            transform_hamiltonian(np.eye(4), t)

    @pytest.mark.parametrize("t", [np.eye(2), np.eye(4)[:, :2], np.eye(4)[None]])
    def test_a_transform_of_another_shape_rejected(self, t):
        # Once NumPy's ValueError from the product; a 4 x 2 T was refused, but
        # only as not square.
        with pytest.raises(InvalidDimensionError, match=r"expected T of shape \(4, 4\)"):
            transform_hamiltonian(np.eye(4), t)

    def test_an_empty_transform_rejected(self):
        with pytest.raises(InvalidDimensionError):
            require_symplectic(np.zeros((0, 0)))

    @pytest.mark.parametrize("t", [np.stack([np.eye(2)] * 2), np.eye(2)[None]])
    def test_a_stack_of_transforms_rejected(self, t):
        # Once NumPy's ValueError on a stack of two, and a stack of one passed.
        with pytest.raises(InvalidDimensionError, match=r"expected a square matrix"):
            require_symplectic(t)


class TestSimilarity:
    def test_identity(self):
        k = build_eom(GOLDEN_M)
        assert np.allclose(similarity(k, np.eye(8)), k)

    def test_spectrum_preserved_random_symplectic(self, rng):
        k = symplectic_form(2)
        t = random_symplectic(2, rng)
        kn = similarity(k, t)
        # characteristic polynomial oracle: coefficients must agree
        assert np.allclose(np.poly(kn), np.poly(k), atol=1e-10)

    def test_matches_transform_route(self, rng):
        a = rng.normal(size=(6, 6))
        m = (a + a.T) / 2
        t = random_symplectic(3, rng)
        k = build_eom(m)
        via_n = build_eom(transform_hamiltonian(m, t))
        assert np.max(np.abs(via_n - similarity(k, t))) < 1e-8 * (1 + np.max(np.abs(k)))

    def test_ill_conditioned_rejected(self):
        t = np.diag([1e13, 1e-13])
        with pytest.raises(IllConditionedError):
            similarity(symplectic_form(1), t)

    @pytest.mark.parametrize("k_shape,t", [
        ((4, 4), np.eye(2)),             # once NumPy's ValueError from the product
        ((4, 4), np.eye(4)[:, :2]),      # once a misleading IllConditionedError
        ((3, 4, 4), np.eye(4)),          # once broadcast over the stack
        ((3, 4, 4), np.eye(4)[None].repeat(2, 0)),
    ])
    def test_a_transform_of_another_shape_rejected(self, k_shape, t):
        k = np.broadcast_to(symplectic_form(2), k_shape)
        with pytest.raises(InvalidDimensionError, match="expected T of shape"):
            similarity(k, t)

    def test_golden_transform_reaches_jordan_form(self):
        # T assembled from the published component vectors brings K to the
        # exact real Jordan form: a rank-2 block at +-2, a zero block, and
        # a rotation block at +-3i with sign -i.
        k = build_eom(GOLDEN_M)
        kn = similarity(k, GOLDEN_T)
        o_i = np.zeros((4, 4))
        o_i[0, 0] = o_i[1, 1] = 2.0
        o_i[1, 0] = 1.0
        o_r = np.diag([0.0, 0.0, 0.0, 3.0])
        o_l = np.diag([0.0, 0.0, 0.0, -3.0])
        expected = np.block([[o_i, o_r], [o_l, -o_i.T]])
        assert np.max(np.abs(kn - expected)) < 1e-10


class TestBosonic:
    def test_conversion_unitary(self):
        for n in (1, 2, 3):
            g = bosonic_conversion(n)
            assert np.allclose(g.conj().T @ g, np.eye(2 * n))

    def test_identity(self):
        assert np.allclose(to_bosonic(np.eye(4)), np.eye(4))

    def test_form_matches_direct_product(self):
        j = symplectic_form(2)
        g = bosonic_conversion(2)
        assert np.allclose(to_bosonic(j), g.conj().T @ j @ g)

    def test_single_mode_squeeze(self):
        s = 1.7
        t = np.diag([s, 1.0 / s])
        tc = to_bosonic(t)
        a = (s + 1 / s) / 2
        b = (s - 1 / s) / 2
        assert np.allclose(tc, [[a, b], [b, a]])

    def test_block_structure(self, rng):
        t = random_symplectic(3, rng)
        tc = to_bosonic(t)
        assert np.allclose(tc[3:, 3:], np.conj(tc[:3, :3]))
        assert np.allclose(tc[3:, :3], np.conj(tc[:3, 3:]))


class TestPropagate:
    def test_rotation_quarter_period(self):
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(propagate(k, np.pi / 2), [[0, 1], [-1, 0]], atol=1e-12)

    def test_zero_generator(self):
        assert np.allclose(propagate(np.zeros((4, 4)), 3.7), np.eye(4))

    def test_unstable_growth_rate(self):
        # real pair at +-1: the norm grows like exp(t)
        k = build_eom(two_mode_m(1.0, 2.0))
        t = 5.0
        norm = np.linalg.norm(propagate(k, t), 2)
        # eigendecomposition oracle
        w, v = np.linalg.eig(k)
        oracle = np.linalg.norm(v @ np.diag(np.exp(w * t)) @ np.linalg.inv(v), 2)
        assert abs(norm - oracle) < 1e-6 * oracle
        assert np.exp(5.0) / 50 < norm < np.exp(5.0) * 50

    def test_overflow_saturates(self):
        k = build_eom(two_mode_m(1.0, 2.0))
        with pytest.raises(SaturationError):
            propagate(k, 1e4)

    def test_symplectic_for_moderate_times(self, rng):
        a = rng.normal(size=(4, 4))
        m = (a + a.T) / 2
        k = build_eom(m)
        t = 10.0 / (1 + np.max(np.abs(k)))
        e = propagate(k, t)
        scale = 1 + np.max(np.abs(e)) ** 2
        assert symplectic_residual(e) <= 1e-8 * scale


class TestStabilityOracle:
    def test_stable_two_mode(self):
        k = build_eom(two_mode_m(1.0, 0.5))
        assert stability_oracle(k, t_max=50.0, growth_threshold=100.0)

    def test_unstable_two_mode(self):
        k = build_eom(two_mode_m(1.0, 2.0))
        assert not stability_oracle(k, t_max=50.0, growth_threshold=100.0)

    def test_zero_generator(self):
        assert stability_oracle(np.zeros((2, 2)), t_max=10.0, growth_threshold=1.0)

    @pytest.mark.parametrize("step,threshold", [(800.0, 1e300), (100.0, 1e308)])
    def test_overflow_counts_as_unbounded(self, step, threshold):
        # exp(K t) = diag(e^t, e^-t): one step of 800 overflows in propagate;
        # steps of 100 overflow in the product at the 8th, while every norm
        # before it, up to e^700, stays within the threshold.
        k = build_eom([[0.0, 1.0], [1.0, 0.0]])
        assert not stability_oracle(k, t_max=ORACLE_SAMPLES * step, growth_threshold=threshold)

    def test_requires_positive_horizon(self):
        with pytest.raises(ContractViolationError):
            stability_oracle(np.zeros((2, 2)), t_max=0.0, growth_threshold=1.0)

    @pytest.mark.parametrize("t_max", [float("inf"), float("nan")])
    def test_requires_finite_horizon(self, t_max):
        # a bounded oscillator: such a horizon raises, it does not report unbounded
        with pytest.raises(ContractViolationError, match="finite"):
            stability_oracle(build_eom(np.eye(2)), t_max=t_max, growth_threshold=10.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0])
    def test_requires_finite_positive_threshold(self, threshold):
        # no norm exceeds a NaN or infinite threshold: this unstable K would read as bounded
        k = build_eom([[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert not stability_oracle(k, t_max=50.0, growth_threshold=100.0)
        with pytest.raises(ContractViolationError, match="growth_threshold must be a finite"):
            stability_oracle(k, t_max=50.0, growth_threshold=threshold)


class TestConfig:
    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, 0.0, 0, True, "x"])
    def test_rejects_what_is_not_a_finite_positive_number(self, tolerance):
        # a NaN or infinite tolerance would let every structural check pass
        with pytest.raises(ValidationError, match="tolerance must be a finite number > 0"):
            Config(tolerance)

    def test_accepts_positive_numbers(self):
        assert Config(1).tolerance == 1 and Config(1e-6).tol(1.0) == 2e-6


def test_import_leaves_scipy_linalg_unloaded():
    # SciPy serves only expm in propagate and stability_oracle; the package
    # and the CLI's analyze path must not pay for importing it
    code = ("import sys, quadnf, quadnf.cli\n"
            "quadnf.normal_form([[1.0, 0.2], [0.2, 1.0]])\n"
            "print('scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
