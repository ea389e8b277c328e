import json
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import GOLDEN_M, two_mode_m
from quadnf import normal_form, reporting
from quadnf.cli import main
from quadnf.errors import (
    BorderlineRankWarning,
    ParseError,
    SpectrumStructureError,
    StructureError,
    ValidationError,
)
from quadnf.reporting import (
    MatrixDocument,
    parse_matrix,
    report_to_dict,
    report_to_json,
    report_to_text,
    scan_two_mode,
    serialize_matrix,
    serialize_scan,
    signature_string,
    two_mode_matrix,
)


def doc_text(m, n_modes):
    lines = [f"modes {n_modes}"]
    for row in np.asarray(m):
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


class TestDocumentFormat:
    def test_parse_simple(self):
        doc = parse_matrix("modes 1\n1 0\n0 1\n")
        assert doc.n_modes == 1
        assert np.array_equal(doc.matrix, np.eye(2))

    def test_parse_golden(self):
        doc = parse_matrix(doc_text(GOLDEN_M, 4))
        assert doc.n_modes == 4
        assert np.array_equal(doc.matrix, GOLDEN_M)

    def test_round_trip_bit_exact(self):
        m = two_mode_m(0.1, -1.7) * np.pi
        doc = MatrixDocument(2, (m + m.T) / 2)
        text = serialize_matrix(doc)
        again = parse_matrix(text)
        assert np.array_equal(again.matrix, doc.matrix)
        assert serialize_matrix(again) == text

    def test_json_document(self):
        obj = {"modes": 1, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        doc = parse_matrix(json.dumps(obj))
        assert doc.n_modes == 1
        assert np.array_equal(doc.matrix, np.eye(2))

    def test_json_shape_mismatch(self):
        obj = {"modes": 1, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        with pytest.raises(ParseError):
            parse_matrix(json.dumps(obj))

    @pytest.mark.parametrize("modes", [True, 0, -1, 1.5, "1"])
    def test_json_modes_must_be_positive_integer(self, modes):
        obj = {"modes": modes, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ParseError, match="modes"):
            parse_matrix(json.dumps(obj))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_matrix("size 2\n1 0\n0 1\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_matrix("modes 2\n1 0 0 0\n")

    def test_non_numeric_entry_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("modes 1\n1 x\n0 1\n")
        assert err.value.line == 2

    def test_row_width_mismatch(self):
        with pytest.raises(ParseError):
            parse_matrix("modes 1\n1 0 3\n0 1 3\n1 1 1\n")

    def test_asymmetric_rejected(self):
        with pytest.raises(StructureError):
            parse_matrix("modes 1\n1 2\n0 1\n")

    def test_comments_ignored(self):
        doc = parse_matrix("# a comment\nmodes 1\n1 0\n0 1\n")
        assert doc.n_modes == 1

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(StructureError, match=r"non-finite entries: \(1, 0\)"):
            parse_matrix(f"modes 1\n1 0\n{entry} 1\n")

    def test_json_tolerance_must_be_a_number(self):
        obj = {"modes": 1, "matrix": [[1, 0], [0, 1]], "tolerances": "x"}
        with pytest.raises(ParseError, match="tolerance"):
            parse_matrix(json.dumps(obj))

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance would turn the symmetry check off
        with pytest.raises(ParseError, match="tolerance"):
            parse_matrix("modes 1\n1 2\n0 1\n", tolerance=float("nan"))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ParseError, match="tolerance"):
            parse_matrix("modes 1\n1 0\n0 1\n", tolerance=-1.0)

    def test_json_ragged_matrix(self):
        obj = {"modes": 1, "matrix": [[1, 0], [0]]}
        with pytest.raises(ParseError):
            parse_matrix(json.dumps(obj))

    def test_json_non_numeric_matrix(self):
        obj = {"modes": 1, "matrix": [[1, "a"], [0, 1]]}
        with pytest.raises(ParseError):
            parse_matrix(json.dumps(obj))

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON document"),
        (json.dumps({"matrix": [[1, 0], [0, 1]]}), "requires 'modes' and 'matrix'"),
        (json.dumps({"modes": 1}), "requires 'modes' and 'matrix'"),
        (json.dumps([[1, 0], [0, 1]]), "requires 'modes' and 'matrix'"),  # an array, not a header
        ("\n  [[1, 0],\n", "invalid JSON document"),
        ("", "empty document"),
        ("# only a comment\n\n", "empty document"),
    ])
    def test_a_document_without_a_matrix_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_matrix(text)

    @pytest.mark.parametrize("count, message", [("x", "is not an integer"),
                                                ("0", "must be positive")])
    def test_a_header_without_a_positive_mode_count_carries_its_line(self, count, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_matrix(f"# header next\nmodes {count}\n1 0\n0 1\n")
        assert err.value.line == 2

    def test_a_row_of_the_wrong_width_carries_its_line(self):
        with pytest.raises(ParseError, match="row has 3 entries, expected 2") as err:
            parse_matrix("modes 1\n1 0\n\n0 1 3\n")
        assert err.value.line == 4


class TestSignatures:
    def test_stable_point(self):
        sig = signature_string(normal_form(two_mode_matrix(1.0, 0.5)))
        assert sig == "I(1.22474i,a1,m1,D1,s-i)|I(0.707107i,a1,m1,D1,s-i)"

    def test_zero_boundary_point(self):
        sig = signature_string(normal_form(two_mode_matrix(1.0, 1.0)))
        assert "Z(a2,m1,D2,s+1)" in sig

    def test_special_origin(self):
        sig = signature_string(normal_form(two_mode_matrix(0.0, 0.0)))
        assert "Z(a2,m2,D1;D1)" in sig

    def test_structure_only_signature(self):
        for eta, lam, structure in [
            (1.0, 0.5, "I(a1,m1,D1,s-i)|I(a1,m1,D1,s-i)"),
            (1.0, 1.0, "I(a1,m1,D1,s-i)|Z(a2,m1,D2,s+1)"),
            (-1.0, 0.4, "C(a1,m1,D1)"),
            (1.0, 1.5, "I(a1,m1,D1,s-i)|R(a1,m1,D1)"),
            (0.0, 0.0, "I(a1,m1,D1,s-i)|Z(a2,m2,D1;D1)"),
            (-1.0, 0.0, "I(a2,m2,D1,s+i;D1,s-i)"),
        ]:
            rep = normal_form(two_mode_matrix(eta, lam))
            assert signature_string(rep, with_eigenvalues=False) == structure, (eta, lam)


class TestReportSerialization:
    def test_dict_keys(self):
        rep = normal_form(GOLDEN_M)
        d = report_to_dict(rep)
        for key in ("modes", "verdict", "zero_frequency_modes", "spectrum",
                    "blocks", "terms", "transform", "k_normal", "n_matrix",
                    "residuals", "signature"):
            assert key in d
        assert d["verdict"] == "unstable"
        assert d["zero_frequency_modes"] == 1

    def test_json_round_trip_bit_exact(self):
        rep = normal_form(GOLDEN_M)
        d = json.loads(report_to_json(rep))
        assert np.array_equal(np.array(d["transform"]), rep.transform.matrix)
        assert np.array_equal(np.array(d["n_matrix"]), rep.n_matrix)

    def test_text_rendering(self):
        text = report_to_text(normal_form(GOLDEN_M))
        assert "verdict: unstable" in text
        assert "2*X1*P1" in text
        assert "1.5*(X4^2 + P4^2)" in text
        assert "zero-frequency modes: 1" in text

    def test_text_rendering_of_a_report_without_terms(self):
        # M = 0: one zero-frequency mode, case 4, and N = 0 has no terms.
        rep = normal_form(np.zeros((2, 2)))
        assert rep.terms == () and rep.zero_frequency_modes == 1
        text = report_to_text(rep)
        assert "verdict: marginal" in text
        assert "normal form: H = 0\n" in text

    @pytest.mark.parametrize("m", [GOLDEN_M, np.eye(4)])  # M = I: T and K_N hold -0.0
    def test_matrices_keep_every_bit(self, m):
        rep = normal_form(m)
        d = report_to_dict(rep)
        for key, arr in (("transform", rep.transform.matrix), ("k_normal", rep.k_normal),
                         ("n_matrix", rep.n_matrix)):
            assert all(type(v) is float for row in d[key] for v in row)
            got = np.array(d[key])
            assert np.array_equal(got, arr)
            assert np.array_equal(np.signbit(got), np.signbit(arr))

    def test_dict_embeds_residual_values(self):
        d = report_to_dict(normal_form(GOLDEN_M))
        assert d["residuals"]["symplectic"] <= 1e-10
        assert d["residuals"]["block_match"] <= 1e-7


@pytest.fixture(scope="module")
def grid():
    return scan_two_mode(steps=21)


class TestScan:

    def test_no_errors(self, grid):
        assert grid.errors == {}

    @pytest.mark.parametrize("steps", [True, 2.5, (2, 2.5), "3", 0, (2, 0), (2, 2, 2)])
    def test_a_step_count_that_is_not_an_integer_of_at_least_one_rejected(self, steps):
        # Once True ran a 1x1 grid, and 2.5, (2, 2.5) and "3" raised a bare TypeError.
        with pytest.raises(ValidationError, match="steps"):
            scan_two_mode(steps=steps)

    @pytest.mark.parametrize("steps, shape", [(np.int64(2), (2, 2)),
                                              ((np.int32(2), 3), (2, 3))])
    def test_numpy_integer_step_counts_accepted(self, steps, shape):
        grid = scan_two_mode(steps=steps)
        assert (len(grid.etas), len(grid.lambdas)) == shape
        assert [len(row) for row in grid.verdicts] == [shape[1]] * shape[0]

    def test_key_points(self, grid):
        verdict, sig, _ = grid.at(1.0, 0.4)
        assert verdict == "stable"
        verdict, sig, _ = grid.at(1.0, 1.0)
        assert verdict == "unstable" and "Z(a2,m1,D2,s+1)" in sig
        verdict, sig, _ = grid.at(-1.0, 0.4)
        assert verdict == "unstable" and sig.startswith("C(")
        verdict, sig, _ = grid.at(0.0, 0.0)
        assert verdict == "marginal"

    def test_determinism(self, grid):
        again = scan_two_mode(steps=21)
        assert serialize_scan(again) == serialize_scan(grid)

    def test_serialization_format(self, grid):
        lines = serialize_scan(grid).splitlines()
        assert lines[0] == "# eta lambda verdict signature"
        assert len(lines) == 1 + 21 * 21
        first = lines[1].split()
        assert len(first) == 4
        float(first[0]), float(first[1])

    def test_serialization_with_boundary_column(self, grid):
        lines = serialize_scan(grid, boundary=True).splitlines()
        assert lines[0] == "# eta lambda verdict signature boundary"
        assert lines[1].split()[4] in ("0", "1")

    def test_boundary_interior_unflagged(self, grid):
        # deep inside the stable region nothing changes between neighbors
        _, _, flagged = grid.at(1.6, 0.2)
        assert not flagged


def _fail_at(monkeypatch, cells, error):
    """Make the scan's stack give the ``QuadnfError`` ``error(i, j)`` at cells (i, j)
    of the default 21x21 grid; simple cells never reach ``normal_form`` itself."""
    axis = np.linspace(-2.0, 2.0, 21)
    planted = {(axis[i], axis[j]): (i, j) for i, j in cells}
    stack = reporting._stack_normal_forms

    def flaky(ms):
        for m, result in zip(ms, stack(ms)):
            cell = planted.get((m[1, 1], m[0, 1]))
            yield result if cell is None else error(*cell)

    monkeypatch.setattr(reporting, "_stack_normal_forms", flaky)


class TestScanStack:
    """The grid is analysed as one stack; each cell still gets its own outcome."""

    def test_planted_errors_are_recorded_in_row_major_order(self, monkeypatch):
        cells = [(3, 7), (1, 4), (2, 5)]
        _fail_at(monkeypatch, cells, lambda i, j: SpectrumStructureError(f"planted at {i},{j}"))
        grid = scan_two_mode(steps=21)
        assert list(grid.errors.items()) == [(c, f"planted at {c[0]},{c[1]}") for c in sorted(cells)]
        for i, j in cells:
            assert grid.verdicts[i][j] == "error"
            assert grid.signatures[i][j] == grid.structure[i][j] == "error:SpectrumStructureError"
        assert grid.boundary[3, 7] and grid.boundary[3, 6]  # an error cell is a structure too
        assert grid.verdicts[3][8] != "error"

    def test_unexpected_error_in_a_cell_propagates(self, monkeypatch):
        # M = I (eta = 1, lambda = 0) has a repeated class, so it takes the per-matrix path
        nf, analyzed = sys.modules["quadnf.normal_form"], []
        analyze = nf.normal_form

        def flaky(m):
            analyzed.append((m[1, 1], m[0, 1]))
            if (m[1, 1], m[0, 1]) == (1.0, 0.0):
                raise RuntimeError("planted in the per-matrix path")
            return analyze(m)

        monkeypatch.setattr(nf, "normal_form", flaky)
        with pytest.raises(RuntimeError, match="^planted in the per-matrix path$"):
            scan_two_mode(steps=21)
        assert (1.0, 0.0) in analyzed and len(analyzed) < 21 * 21 // 10

    def test_non_finite_cells_are_recorded_and_the_rest_classified(self):
        # a NaN matrix fails validation per cell; it must not reach the stacked eig
        grid = scan_two_mode((float("nan"), 1.0), (-1.0, 1.0), 3)
        finite = scan_two_mode((1.0, 1.0), (-1.0, 1.0), (1, 3))
        nan_rows = [i for i, eta in enumerate(grid.etas) if np.isnan(eta)]
        assert nan_rows and len(nan_rows) < len(grid.etas)
        assert list(grid.errors) == [(i, j) for i in nan_rows for j in range(3)]
        assert all(msg.startswith("matrix has non-finite entries") for msg in grid.errors.values())
        for i in range(len(grid.etas)):
            if i in nan_rows:
                assert grid.signatures[i] == ["error:StructureError"] * 3
            else:
                assert grid.verdicts[i] == finite.verdicts[0]
                assert grid.signatures[i] == finite.signatures[0]


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_analyze_text(self):
        result = self.runner.invoke(main, ["analyze", "-"], input="modes 1\n1 0\n0 1\n")
        assert result.exit_code == 0
        assert "verdict: stable" in result.output

    def test_analyze_structured(self):
        result = self.runner.invoke(
            main, ["analyze", "-", "--format", "structured"],
            input="modes 1\n2 0\n0 2\n",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "stable"

    def test_analyze_file_and_output(self, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("modes 1\n1 0\n0 1\n")
        dst = tmp_path / "report.json"
        result = self.runner.invoke(
            main, ["analyze", str(src), "--format", "structured", "--output", str(dst)]
        )
        assert result.exit_code == 0
        assert json.loads(dst.read_text())["modes"] == 1

    def test_analyze_validation_exit_code(self):
        result = self.runner.invoke(main, ["analyze", "-"], input="modes 1\n1 2\n0 1\n")
        assert result.exit_code == 1

    def test_analyze_parse_exit_code(self):
        result = self.runner.invoke(main, ["analyze", "-"], input="nonsense\n")
        assert result.exit_code == 1

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_analyze_non_finite_exit_code(self, entry):
        result = self.runner.invoke(main, ["analyze", "-"], input=f"modes 1\n{entry} 0\n0 1\n")
        assert result.exit_code == 1
        assert "StructureError" in result.output
        assert f"(0, 0) = {entry}" in result.output

    def test_analyze_nan_tolerance_exit_code(self):
        result = self.runner.invoke(main, ["analyze", "-", "--tolerance", "nan"],
                                    input="modes 1\n1 2\n0 1\n")
        assert result.exit_code == 1
        assert "tolerance" in result.output

    def test_analyze_negative_tolerance_exit_code(self):
        result = self.runner.invoke(main, ["analyze", "-", "--tolerance", "-1"],
                                    input="modes 1\n1 0\n0 1\n")
        assert result.exit_code == 1
        assert "tolerance" in result.output

    def test_analyze_bad_json_tolerance_exit_code(self):
        doc = json.dumps({"modes": 1, "matrix": [[1, 0], [0, 1]], "tolerances": "x"})
        result = self.runner.invoke(main, ["analyze", "-"], input=doc)
        assert result.exit_code == 1
        assert "ParseError" in result.output

    def test_analyze_ragged_json_exit_code(self):
        doc = json.dumps({"modes": 1, "matrix": [[1, 0], [0]]})
        result = self.runner.invoke(main, ["analyze", "-"], input=doc)
        assert result.exit_code == 1
        assert "ParseError" in result.output

    def test_scan_zero_steps_exit_code(self):
        result = self.runner.invoke(main, ["scan", "--steps", "0"])
        assert result.exit_code == 1
        assert "step" in result.output

    def test_check(self):
        result = self.runner.invoke(main, ["check", "-"], input="modes 1\n1 0\n0 1\n")
        assert result.exit_code == 0
        assert "status: ok" in result.output

    def test_analyze_document_tolerance_takes_precedence(self):
        # --tolerance applies only to a document that declares none
        doc = json.dumps({"modes": 1, "matrix": [[1, 1e-6], [0, 1]], "tolerances": 1e-4})
        result = self.runner.invoke(main, ["analyze", "-", "--tolerance", "1e-12"], input=doc)
        assert result.exit_code == 0
        assert "verdict: stable" in result.output

    def test_check_applies_document_tolerance(self):
        doc = json.dumps({"modes": 1, "matrix": [[1, 1e-6], [0, 1]], "tolerances": 1e-4})
        result = self.runner.invoke(main, ["check", "-"], input=doc)
        assert result.exit_code == 0
        assert "tolerance: 2.000e-04" in result.output
        assert "status: ok" in result.output

    @pytest.mark.parametrize("entry", [1.5e-4, 2.5e-4])
    def test_document_tolerance_scales_with_max_m(self, entry):
        # A declared tolerance t bounds |M - M^T| by t (1 + max|M|), here 2e-4,
        # in check and analyze alike, as normal_form(m, Config(t)) does.
        doc = json.dumps({"modes": 1, "matrix": [[1, entry], [0, 1]], "tolerances": 1e-4})
        check = self.runner.invoke(main, ["check", "-"], input=doc)
        analyze = self.runner.invoke(main, ["analyze", "-"], input=doc)
        if entry < 2e-4:
            assert check.exit_code == 0
            assert "tolerance: 2.000e-04" in check.output and "status: ok" in check.output
            assert analyze.exit_code == 0 and "verdict: stable" in analyze.output
        else:
            for result in (check, analyze):
                assert result.exit_code == 1
                assert "max |M - M^T| = 2.500e-04 > 2.000e-04" in result.output

    def test_scan_output(self, tmp_path):
        dst = tmp_path / "scan.dat"
        result = self.runner.invoke(
            main,
            ["scan", "--steps", "5", "--eta-min", "-1", "--eta-max", "1",
             "--lambda-min", "-1", "--lambda-max", "1", "--boundary",
             "--output", str(dst)],
        )
        assert result.exit_code == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == "# eta lambda verdict signature boundary"
        assert len(lines) == 26

    def test_scan_to_stdout_equals_the_output_file(self, tmp_path):
        dst = tmp_path / "scan.dat"
        to_file = self.runner.invoke(main, ["scan", "--steps", "3", "--output", str(dst)])
        to_stdout = self.runner.invoke(main, ["scan", "--steps", "3"])
        assert to_file.exit_code == 0 and to_stdout.exit_code == 0
        assert to_stdout.output == dst.read_text()
        assert len(dst.read_text().splitlines()) == 1 + 9

    def test_tolerance_override(self):
        # slightly asymmetric input: rejected by default, passes with a
        # generous tolerance override
        text = "modes 1\n1 1e-6\n0 1\n"
        strict = self.runner.invoke(main, ["analyze", "-"], input=text)
        assert strict.exit_code == 1
        # both eigenvalues are simple: eig(K) gives their eigenvectors, no
        # rank cut is made, so nothing is borderline
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lenient = self.runner.invoke(
                main, ["analyze", "-", "--tolerance", "1e-3"], input=text
            )
        assert sum(issubclass(w.category, BorderlineRankWarning) for w in caught) == 0
        assert lenient.exit_code == 0
        assert "verdict: stable" in lenient.output


class TestExitCodes:
    def test_mapping(self):
        from quadnf.cli import _exit_code
        from quadnf.errors import (
            ChainExtractionError,
            ParseError,
            StructureError,
            VerificationError,
        )

        assert _exit_code(ParseError("x")) == 1
        assert _exit_code(StructureError("x")) == 1
        assert _exit_code(ChainExtractionError("x")) == 2
        assert _exit_code(VerificationError("x")) == 3
