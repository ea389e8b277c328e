"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each test pins the tolerances it asserts; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import time

import numpy as np

from conftest import (
    GOLDEN_G01,
    GOLDEN_G02,
    GOLDEN_G11,
    GOLDEN_G11T,
    GOLDEN_G21,
    GOLDEN_M,
    GOLDEN_N,
    flat_members,
    seeded_matrix,
)
from quadnf import (
    Verdict,
    build_eom,
    normal_form,
    stability_oracle,
    symplectic_form,
)
from quadnf.algebra import (
    alpha,
    apply_poly,
    omega,
    poly_inverse,
    poly_product,
    poly_sqrt,
    poly_star,
)
from quadnf.normal_form import TermKind, expected_kn
from quadnf.reporting import scan_two_mode
from quadnf.spectrum import classify_spectrum, cluster_eigenvalues, extract_class_chains


def report_line(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


class TestCriterion1GoldenExample:
    def test_golden_four_mode(self):
        start = time.perf_counter()
        k = build_eom(GOLDEN_M)
        clusters = {complex(np.round(v, 6)): m for v, m in flat_members(cluster_eigenvalues(k))}
        spectrum_ok = clusters == {2: 2, -2: 2, 0: 2, 3j: 1, -3j: 1}
        exact_ok = all(
            min(abs(v - t) for t in (2, -2, 0, 3j, -3j)) < 1e-8
            for v, _ in flat_members(cluster_eigenvalues(k))
        )
        report = classify_spectrum(k)
        mults = {
            c.kind.value: (c.algebraic, c.geometric) for c in report.classes
        }
        mult_ok = mults == {
            "real_pair": (2, 1),
            "zero": (2, 2),
            "imaginary_pair": (1, 1),
        }

        rep = normal_form(GOLDEN_M)
        t = rep.transform.matrix
        j = symplectic_form(4)
        sympl = np.max(np.abs(t @ j @ t.T - j))
        n_err = np.max(np.abs(rep.n_matrix - GOLDEN_N))

        got_terms = {(t_.kind, round(t_.coefficient, 8), t_.modes) for t_ in rep.terms}
        want_terms = {
            (TermKind.SINGLE_MODE_SQUEEZE, 2.0, (1,)),
            (TermKind.SINGLE_MODE_SQUEEZE, 2.0, (2,)),
            (TermKind.SQUEEZE_BEAM_SPLITTER, 1.0, (1, 2)),
            (TermKind.HARMONIC_OSCILLATOR, 1.5, (4,)),
        }
        elapsed = time.perf_counter() - start

        ok = (
            spectrum_ok
            and exact_ok
            and mult_ok
            and sympl <= 1e-10
            and n_err <= 1e-8
            and got_terms == want_terms
            and rep.zero_frequency_modes == 1
            and elapsed < 1.0
        )
        report_line(
            1,
            "golden 4-mode example",
            ok,
            f"spectrum={spectrum_ok} |TJT^T-J|={sympl:.2e} |N-N*|={n_err:.2e} "
            f"terms={got_terms == want_terms} zero_modes={rep.zero_frequency_modes} "
            f"runtime={elapsed:.3f}s",
        )


class TestCriterion2IntermediateValues:
    def test_gram_values_from_published_generators(self):
        k = build_eom(GOLDEN_M)
        w = omega(k, 2.0, GOLDEN_G11, GOLDEN_G11T, 2)
        err_real = np.max(np.abs(w - np.array([-10.0, 13.0])))
        a_zero = alpha(k, 0.0, GOLDEN_G01, GOLDEN_G02, 1)
        err_zero = abs(a_zero - 2.0)
        a_imag = alpha(k, 3j, GOLDEN_G21, GOLDEN_G21.conj(), 1)
        err_imag = abs(a_imag - (-2j))
        ok = err_real <= 1e-10 and err_zero <= 1e-10 and err_imag <= 1e-10
        report_line(
            2,
            "published Gram values",
            ok,
            f"|Omega-( -10,13)|={err_real:.2e} |alpha0-2|={err_zero:.2e} "
            f"|alpha-(-2i)|={err_imag:.2e}",
        )


class TestCriterion3StabilityDiagram:
    def test_two_mode_scan(self):
        start = time.perf_counter()
        grid = scan_two_mode((-2, 2), (-2, 2), 41)
        elapsed = time.perf_counter() - start

        checks = []
        verdict, sig, _ = grid.at(1.0, 0.5)
        checks.append(("white(1,0.5)", verdict == "stable" and sig.count("I(") == 2))
        verdict, sig, _ = grid.at(1.0, 2.0)
        checks.append(
            ("gray(1,2)", verdict == "unstable" and "R(" in sig and "I(" in sig)
        )
        verdict, sig, _ = grid.at(-1.0, 0.5)
        checks.append(("hatched(-1,0.5)", verdict == "unstable" and sig.startswith("C(")))
        verdict, sig, _ = grid.at(1.0, 1.0)
        checks.append(("blue(1,1)", "Z(a2,m1,D2,s+1)" in sig))
        verdict, sig, _ = grid.at(0.0, 0.0)
        checks.append(("origin(0,0)", "Z(a2,m2,D1;D1)" in sig))
        verdict, sig, _ = grid.at(-1.0, 0.0)
        checks.append(
            ("special(-1,0)", "I(1i,a2,m2,D1,s+i;D1,s-i)" in sig)
        )

        # boundary-flagged cells must come within one cell of each curve
        etas, lams = grid.etas, grid.lambdas
        h = etas[1] - etas[0]

        def flagged_near(e, l):
            i = int(round((e - etas[0]) / h))
            j = int(round((l - lams[0]) / h))
            return any(
                0 <= i + di < len(etas)
                and 0 <= j + dj < len(lams)
                and grid.boundary[i + di, j + dj]
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
            )

        missed = []
        for e in etas[etas > 0.01]:
            for sgn in (1, -1):
                lam = sgn * np.sqrt(e)
                if lams[0] <= lam <= lams[-1] and not flagged_near(e, lam):
                    missed.append((e, lam))
        for lam in lams:
            if not flagged_near(0.0, lam):
                missed.append((0.0, lam))
        for e in etas[etas < -0.01]:
            val = (2 * e**2 - e**4 - 1) / (4 * e)
            if val >= 0:
                for sgn in (1, -1):
                    lam = sgn * np.sqrt(val)
                    if lams[0] <= lam <= lams[-1] and not flagged_near(e, lam):
                        missed.append((e, lam))
        checks.append(("curves traced", not missed))
        checks.append(("runtime", elapsed < 10.0))
        checks.append(("no errors", not grid.errors))

        ok = all(flag for _, flag in checks)
        report_line(
            3,
            "two-mode stability diagram",
            ok,
            " ".join(f"{name}={flag}" for name, flag in checks)
            + f" runtime={elapsed:.2f}s",
        )


class TestCriterion4RandomProperty:
    def test_random_instances(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        failures = []
        excluded = 0
        for trial in range(200):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3.0, 3.0, size=(2 * n, 2 * n))
            m = (a + a.T) / 2
            k = build_eom(m)
            rep = normal_form(m)
            t = rep.transform.matrix
            j = symplectic_form(n)
            sympl = np.max(np.abs(t @ j @ t.T - j))
            sympl_budget = 1e-8 * (1 + np.max(np.abs(t)) ** 2)
            if sympl > sympl_budget:
                failures.append((trial, "symplectic", sympl))
            kn_expected = expected_kn(rep.blocks, n)
            kn_err = np.max(np.abs(rep.k_normal - kn_expected))
            if kn_err > 1e-6:
                failures.append((trial, "block", kn_err))
            if rep.spectrum.sum_rule_residual != 0:
                failures.append((trial, "sum rule", rep.spectrum.sum_rule_residual))

            # verdict vs the matrix-exponential growth oracle, skipping
            # instances whose eigenvalues sit near a class boundary
            w = np.linalg.eigvals(k)
            dists = []
            for lam in w:
                for d in (abs(lam.real), abs(lam.imag), abs(lam)):
                    if d > 1e-9:
                        dists.append(d)
            for i in range(len(w)):
                for jj in range(i + 1, len(w)):
                    gap = abs(w[i] - w[jj]) / 2
                    if gap > 1e-9:
                        dists.append(gap)
            margin = min(dists) if dists else 0.0
            if margin <= 1e-4:
                excluded += 1
                continue
            bounded = stability_oracle(k, t_max=50.0, growth_threshold=1e4)
            expect_bounded = rep.verdict in (Verdict.STABLE, Verdict.MARGINAL)
            if bounded != expect_bounded:
                failures.append((trial, "verdict", (rep.verdict.value, bounded)))
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 60.0
        report_line(
            4,
            "200 random instances",
            ok,
            f"failures={failures[:3]} excluded={excluded} runtime={elapsed:.1f}s",
        )


class TestCriterion5BogoliubovPath:
    def test_positive_definite_instances(self):
        rng = np.random.default_rng(617)
        failures = []
        for trial in range(100):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(2 * n, 2 * n))
            m = a @ a.T + 0.1 * np.eye(2 * n)
            k = build_eom(m)
            spectrum = classify_spectrum(k)
            rep = normal_form(m)
            applicable = all(
                c.kind.value == "imaginary_pair" and c.algebraic == c.geometric
                for c in spectrum.classes
            )
            if not applicable:
                failures.append((trial, "precondition not detected"))
                continue
            if any(b.case != 6 or b.rank != 1 for b in rep.blocks):
                failures.append((trial, "wrong blocks"))
            diag = np.diag(rep.n_matrix)
            off = np.max(np.abs(rep.n_matrix - np.diag(diag)))
            if off > 1e-8 * (1 + np.max(np.abs(m))):
                failures.append((trial, "n not diagonal", off))
            freqs = sorted(abs(l.imag) for l in np.linalg.eigvals(k))
            got = sorted(np.abs(diag))
            want = sorted(freqs)
            if np.max(np.abs(np.array(got) - np.array(want))) > 1e-8:
                failures.append((trial, "frequencies mismatch"))
            scale = 1 + np.max(np.abs(rep.transform.matrix)) ** 2
            if rep.residuals["symplectic"] > 1e-8 * scale:
                failures.append((trial, "residual", rep.residuals["symplectic"]))
            if rep.verdict is not Verdict.STABLE:
                failures.append((trial, "verdict"))
        ok = not failures
        report_line(5, "Bogoliubov diagonalization", ok, f"failures={failures[:3]}")


class TestCriterion6AlgebraProperties:
    def test_round_trips_and_identities(self):
        rng = np.random.default_rng(43)
        # round trips on 1000 random polynomials in the normalized form the
        # orthonormalization feeds them in (unit leading coefficient)
        worst_round = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            coefs = rng.normal(size=d) + 1j * rng.normal(size=d)
            coefs[0] = 1.0
            sq = poly_sqrt(coefs)
            worst_round = max(
                worst_round,
                np.max(np.abs(poly_product(sq, sq) - coefs)) / (1 + np.max(np.abs(coefs))),
                np.max(np.abs(poly_product(coefs, poly_inverse(coefs)) - np.eye(1, d)[0])),
            )

        # identity checks on 1000 random gGEV pairs across structures
        fixtures = []
        for specs, lam in [
            ([(1, 1.2 + 0j, 3, None)], 1.2 + 0j),
            ([(2, 0.6 + 0.9j, 2, None)], 0.6 + 0.9j),
            ([(3, 0j, 2, 1 + 0j), (4, 0j, 1, None)], 0j),
            ([(6, 1.5j, 3, -1j)], 1.5j),
            ([(5, 1.1j, 2, 1 + 0j)], 1.1j),
        ]:
            m, _ = seeded_matrix(specs, rng)
            k = build_eom(m)
            report = classify_spectrum(k, cluster_eigenvalues(k, tol=1e-5))
            cls = max(report.classes, key=lambda c: abs(c.representative - lam) < 1e-4)
            fixtures.append((k, cls.representative, *extract_class_chains(k, cls)))

        worst_exchange = 0.0
        worst_symmetry = 0.0
        pair_count = 0
        while pair_count < 1000:
            k, lam, chains, partners = fixtures[pair_count % len(fixtures)]
            imag = lam.real == 0 and lam != 0
            d = max(c.rank for c in chains)
            top = next(c for c in chains if c.rank == d)
            coefs = rng.normal(size=d) + 1j * rng.normal(size=d)
            if abs(coefs[0]) < 0.1:
                coefs[0] += 1.0
            x = apply_poly(coefs, k, lam, top.generator.astype(complex))
            if imag or lam == 0:
                partner_gens = [c.generator.conj() for c in chains]
            else:
                partner_gens = [c.generator for c in partners]
            y = sum(rng.normal() * np.asarray(g, complex) for g in partner_gens)

            phi = rng.normal(size=d) + 1j * rng.normal(size=d)
            moved = phi.conj() if imag else phi
            lhs = omega(k, lam, x, apply_poly(moved, k, -lam, y), d)
            rhs = omega(k, lam, apply_poly(poly_star(phi, lam), k, lam, x), y, d)
            scale = 1 + np.max(np.abs(lhs))
            worst_exchange = max(worst_exchange, np.max(np.abs(lhs - rhs)) / scale)

            inv = np.concatenate([[1.0], rng.normal(size=d - 1)]).astype(complex)
            lhs2 = omega(k, lam, apply_poly(inv, k, lam, x), y, d)
            rhs2 = poly_product(inv, omega(k, lam, x, y, d))
            scale2 = 1 + np.max(np.abs(rhs2))
            worst_exchange = max(worst_exchange, np.max(np.abs(lhs2 - rhs2)) / scale2)

            # symmetry of the Gram form at equal rank: for an imaginary
            # eigenvalue Omega(x, conj y) = (-1)^D star(Omega(y, conj x))
            # with the conjugating star; for zero the identity is
            # conjugation-free and is tested on real chain combinations
            if imag:
                coefs2 = rng.normal(size=d) + 1j * rng.normal(size=d)
                if abs(coefs2[0]) < 0.1:
                    coefs2[0] += 1.0
                x2 = apply_poly(coefs2, k, lam, top.generator.astype(complex))
                w_xy = omega(k, lam, x, x2.conj(), d)
                w_yx = omega(k, lam, x2, x.conj(), d)
                diff = w_xy - (-1) ** d * poly_star(w_yx, lam)
                scale3 = 1 + np.max(np.abs(w_xy))
                worst_symmetry = max(worst_symmetry, np.max(np.abs(diff)) / scale3)
            elif lam == 0:
                coefs1 = rng.normal(size=d)
                coefs1[0] = 1.0 + abs(coefs1[0])
                coefs2 = rng.normal(size=d)
                coefs2[0] = 1.0 + abs(coefs2[0])
                xr = apply_poly(coefs1.astype(complex), k, 0.0, top.generator.astype(float))
                x2 = apply_poly(coefs2.astype(complex), k, 0.0, top.generator.astype(float))
                w_xy = omega(k, 0.0, xr, x2, d)
                w_yx = omega(k, 0.0, x2, xr, d)
                diff = w_xy - (-1) ** d * poly_star(w_yx, 0.0)
                scale3 = 1 + np.max(np.abs(w_xy))
                worst_symmetry = max(worst_symmetry, np.max(np.abs(diff)) / scale3)
            pair_count += 1

        ok = worst_round <= 1e-12 and worst_exchange <= 1e-10 and worst_symmetry <= 1e-10
        report_line(
            6,
            "algebra unit properties",
            ok,
            f"round_trip={worst_round:.2e} exchange={worst_exchange:.2e} "
            f"symmetry={worst_symmetry:.2e}",
        )
