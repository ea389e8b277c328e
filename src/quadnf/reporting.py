"""File formats, report serialization, and the two-mode stability scanner.

The matrix document format is a plain-text header ``modes N`` followed
by 2N rows of 2N whitespace-separated decimals; a JSON object with
fields ``{modes, matrix, tolerances}`` is accepted interchangeably.
Reports serialize to JSON with stable key names or to a human-readable
text rendering.  The scanner sweeps the standard two-oscillator
position-coupling model over a parameter grid and classifies every
point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Config
from .core import _count, require_hamiltonian_matrix
from .errors import ParseError, QuadnfError, ValidationError
from .normal_form import NormalFormReport, _format_eigenvalue, _stack_normal_forms
from .spectrum import EigenvalueKind

__all__ = [
    "MatrixDocument",
    "parse_matrix",
    "serialize_matrix",
    "two_mode_matrix",
    "signature_string",
    "report_to_dict",
    "report_to_json",
    "report_to_text",
    "ScanGrid",
    "scan_two_mode",
    "serialize_scan",
]


@dataclass(frozen=True)
class MatrixDocument:
    """Parsed input: mode count, the matrix, and optional overrides."""

    n_modes: int
    matrix: np.ndarray
    tolerance: float | None = None

    def config(self) -> Config:
        return DEFAULT if self.tolerance is None else Config(self.tolerance)


def _parse_json_document(text: str) -> MatrixDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON document: {exc}") from exc
    if not isinstance(obj, dict) or "modes" not in obj or "matrix" not in obj:
        raise ParseError("JSON document requires 'modes' and 'matrix' fields")
    n = obj["modes"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"'modes' must be a positive integer, got {n!r}")
    try:
        matrix = np.asarray(obj["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"'matrix' must be rows of numbers: {exc}") from exc
    if matrix.shape != (2 * n, 2 * n):
        raise ParseError(
            f"matrix shape {matrix.shape} does not match modes {n} (need {2*n}x{2*n})"
        )
    tol = obj.get("tolerances", {}).get("structure") if isinstance(obj.get("tolerances"), dict) else obj.get("tolerances")
    return MatrixDocument(n, matrix, tol)


def _validated(doc: MatrixDocument) -> MatrixDocument:
    try:
        cfg = doc.config()
    except ValidationError as exc:  # the tolerance's own error, raised as a document's
        raise ParseError(str(exc)) from None
    require_hamiltonian_matrix(doc.matrix, cfg)
    return doc


def parse_matrix(text: str, tolerance: float | None = None) -> MatrixDocument:
    """Parse a matrix document (plain text or JSON).

    A document whose first character past white space is ``{`` or ``[`` is
    JSON, an object with ``modes`` and ``matrix`` fields.  Plain text: first
    line ``modes N``, then 2N lines of 2N numbers.
    Plain-text parse failures carry the offending line number.  ``tolerance``
    overrides the symmetry-validation tolerance (a tolerance declared
    inside a JSON document takes precedence).
    """
    if text.lstrip().startswith(("{", "[")):
        doc = _parse_json_document(text)
        if doc.tolerance is None and tolerance is not None:
            doc = MatrixDocument(doc.n_modes, doc.matrix, tolerance)
        return _validated(doc)
    lines = [ln for ln in text.splitlines()]
    content = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
               if ln.strip() and not ln.strip().startswith("#")]
    if not content:
        raise ParseError("empty document")
    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 2 or parts[0].lower() != "modes":
        raise ParseError("expected header 'modes N'", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"mode count {parts[1]!r} is not an integer", line=lineno)
    if n < 1:
        raise ParseError(f"mode count must be positive, got {n}", line=lineno)
    rows = content[1:]
    if len(rows) != 2 * n:
        raise ParseError(f"expected {2*n} matrix rows, found {len(rows)}")
    matrix = np.zeros((2 * n, 2 * n))
    for r, (lineno, row) in enumerate(rows):
        entries = row.split()
        if len(entries) != 2 * n:
            raise ParseError(
                f"row has {len(entries)} entries, expected {2*n}", line=lineno
            )
        for c, entry in enumerate(entries):
            try:
                matrix[r, c] = float(entry)
            except ValueError:
                raise ParseError(f"non-numeric entry {entry!r}", line=lineno)
    return _validated(MatrixDocument(n, matrix, tolerance=tolerance))


def serialize_matrix(doc: MatrixDocument) -> str:
    """Round-trip text form of a document (17 significant digits)."""
    lines = [f"modes {doc.n_modes}"]
    for row in doc.matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def two_mode_matrix(eta: float, lam: float) -> np.ndarray:
    """Two oscillators (unit and eta frequency) with position coupling lam."""
    return np.array(
        [[1.0, lam, 0.0, 0.0],
         [lam, eta, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 0.0, eta]]
    )


def _format_sigma(sigma: complex) -> str:
    if sigma.imag == 0:
        return "+1" if sigma.real > 0 else "-1"
    return "+i" if sigma.imag > 0 else "-i"


_KIND_LETTER = {
    EigenvalueKind.REAL_PAIR: "R",
    EigenvalueKind.COMPLEX_QUADRUPLET: "C",
    EigenvalueKind.ZERO: "Z",
    EigenvalueKind.IMAGINARY_PAIR: "I",
}


def signature_string(report: NormalFormReport, with_eigenvalues: bool = True) -> str:
    """Canonical classification signature of a report.

    One token per eigenvalue class:
    ``KIND(lambda,a<alg>,m<geom>,D<rank>[,s<sign>][;...])`` with chains
    sorted by descending rank then sign.  Tokens are sorted by kind
    letter and eigenvalue, so identical structures always produce
    identical strings.  With ``with_eigenvalues=False`` the numeric
    eigenvalues are omitted, leaving the discrete multiset of
    (kind, a, m, D, sigma) that is constant across each region of a
    parameter scan.
    """
    classes = {c.representative: c for c in report.spectrum.classes}
    blocks_of: dict[complex, list] = {}
    for b in report.blocks:
        blocks_of.setdefault(b.eigenvalue, []).append(b)
    tokens = []
    for lam in sorted(blocks_of,
                      key=lambda lam: (_KIND_LETTER[classes[lam].kind], -abs(lam), -lam.imag)):
        cls = classes[lam]
        chains = []
        for b in sorted(blocks_of[lam],
                        key=lambda b: (-b.rank, _format_sigma(b.sigma) if b.sigma else "")):
            token = f"D{b.rank}"
            if b.sigma is not None:
                token += f",s{_format_sigma(b.sigma)}"
            chains.append(token)
            if b.case == 4:
                chains.append(token)  # an f/h pair stands for two chains
        head = "" if cls.kind is EigenvalueKind.ZERO else f"{_format_eigenvalue(lam)},"
        tokens.append(
            f"{_KIND_LETTER[cls.kind]}({head}a{cls.algebraic},m{cls.geometric},{';'.join(chains)})"
        )
    signature = "|".join(tokens)
    return signature if with_eigenvalues else _drop_eigenvalues(signature)


def _drop_eigenvalues(signature: str) -> str:
    """The structure-only form of a full signature.

    Every token but a ``Z`` one opens with its eigenvalue and a comma,
    and a formatted eigenvalue holds no ``,`` or ``|``, so dropping
    that first field gives what ``with_eigenvalues=False`` asks for
    without grouping and sorting the blocks again.
    """
    return "|".join(token if token[0] == "Z" else token[:2] + token.split(",", 1)[1]
                    for token in signature.split("|"))


def report_to_dict(report: NormalFormReport) -> dict:
    """Structured form of a report with stable key names."""
    return {
        "modes": report.n_modes,
        "verdict": report.verdict.value,
        "reasons": list(report.reasons),
        "zero_frequency_modes": report.zero_frequency_modes,
        "signature": signature_string(report),
        "spectrum": [
            {
                "kind": c.kind.value,
                "eigenvalue": [c.representative.real, c.representative.imag],
                "algebraic": c.algebraic,
                "geometric": c.geometric,
            }
            for c in report.spectrum.classes
        ],
        "blocks": [
            {
                "case": b.case,
                "eigenvalue": [b.eigenvalue.real, b.eigenvalue.imag],
                "rank": b.rank,
                "sigma": None if b.sigma is None else [b.sigma.real, b.sigma.imag],
                "size": b.size,
                "exponential_rate": b.exp_rate,
                "polynomial_order": b.poly_order,
            }
            for b in report.blocks
        ],
        "terms": [
            {
                "kind": t.kind.value,
                "coefficient": t.coefficient,
                "modes": list(t.modes),
                "symbol": t.symbol(),
            }
            for t in report.terms
        ],
        "transform": np.asarray(report.transform.matrix, dtype=float).tolist(),
        "k_normal": np.asarray(report.k_normal, dtype=float).tolist(),
        "n_matrix": np.asarray(report.n_matrix, dtype=float).tolist(),
        "residuals": {k: float(v) for k, v in report.residuals.items()},
    }


def report_to_json(report: NormalFormReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def _render_terms(report: NormalFormReport) -> str:
    if not report.terms:
        return "0"
    parts = []
    for t in report.terms:
        sym = t.symbol()
        if parts and not sym.startswith("-"):
            parts.append("+ " + sym)
        else:
            parts.append(sym)
    return " ".join(parts)


def report_to_text(report: NormalFormReport) -> str:
    """Human-readable rendering of a report."""
    lines = [
        f"modes: {report.n_modes}",
        f"verdict: {report.verdict.value}",
    ]
    for reason in report.reasons:
        lines.append(f"  - {reason}")
    lines.append(f"zero-frequency modes: {report.zero_frequency_modes}")
    lines.append("spectrum:")
    for c in report.spectrum.classes:
        lines.append(
            f"  {c.kind.value}: lambda = {_format_eigenvalue(c.representative)}, "
            f"a = {c.algebraic}, m = {c.geometric}"
        )
    lines.append("blocks:")
    for b in report.blocks:
        sig = f", sigma = {_format_sigma(b.sigma)}" if b.sigma is not None else ""
        lines.append(
            f"  case {b.case}: lambda = {_format_eigenvalue(b.eigenvalue)}, "
            f"D = {b.rank}{sig}"
        )
    lines.append(f"normal form: H = {_render_terms(report)}")
    lines.append("residuals:")
    for key, val in report.residuals.items():
        lines.append(f"  {key}: {val:.3e}")
    lines.append("transform T (rows):")
    for row in report.transform.matrix:
        lines.append("  " + " ".join(f"{v: .10g}" for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class ScanGrid:
    """Classification of the two-mode model over a parameter grid.

    Boundary flags compare the discrete structural signatures (without
    the numeric eigenvalues, which vary continuously), so a flagged
    cell marks a genuine change of classification.
    """

    etas: np.ndarray
    lambdas: np.ndarray
    verdicts: list
    signatures: list
    structure: list
    boundary: np.ndarray
    errors: dict = field(default_factory=dict)

    def at(self, eta: float, lam: float):
        i = int(np.argmin(np.abs(self.etas - eta)))
        j = int(np.argmin(np.abs(self.lambdas - lam)))
        return self.verdicts[i][j], self.signatures[i][j], bool(self.boundary[i, j])


def _boundary_flags(signatures) -> np.ndarray:
    rows, cols = len(signatures), len(signatures[0])
    flags = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            here = signatures[i][j]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < rows and 0 <= jj < cols and signatures[ii][jj] != here:
                    flags[i, j] = True
                    break
    return flags


def scan_two_mode(
    eta_range=(-2.0, 2.0),
    lambda_range=(-2.0, 2.0),
    steps=41,
) -> ScanGrid:
    """Classify the two-mode model over a grid of (eta, lambda) values.

    Every grid point runs the full normal-form pipeline; per-point
    failures are recorded in the cell (verdict ``error``) instead of
    aborting the scan.  ``steps`` counts the points per axis, one count for
    both or an (eta, lambda) pair, each an integer >= 1 (``ValidationError``).
    Boundary cells are those whose signature differs from at least one
    4-neighbor, so the flagged set straddles every classification boundary
    to within one cell.

    The grid's matrices go to ``normal_form._stack_normal_forms`` as one
    stack: a point whose classes are all simple and well apart is built at
    array level with every other such point, and the rest (repeated or close
    classes, as on the classification boundaries, or a matrix ``normal_form``
    rejects) one by one; each report, and each error with its message, is
    the one ``normal_form`` gives that point alone.  An exception other than
    ``QuadnfError`` propagates.
    """
    steps = (steps, steps) if np.ndim(steps) == 0 else tuple(steps)
    if len(steps) != 2:
        raise ValidationError(f"steps must be one count or two, got {steps!r}")
    etas, lambdas = (np.linspace(bounds[0], bounds[1], _count(each, "steps", ValidationError))
                     for bounds, each in zip((eta_range, lambda_range), steps))
    results = _stack_normal_forms([two_mode_matrix(eta, lam) for eta in etas for lam in lambdas])
    verdicts, signatures, structure, errors = [], [], [], {}
    for i in range(len(etas)):
        vrow, srow, trow = [], [], []
        for j in range(len(lambdas)):
            rep = next(results)
            if isinstance(rep, QuadnfError):
                verdict, signature = "error", f"error:{type(rep).__name__}"
                token = signature
                errors[(i, j)] = str(rep)
            else:
                verdict, signature = rep.verdict.value, signature_string(rep)
                token = _drop_eigenvalues(signature)
            vrow.append(verdict)
            srow.append(signature)
            trow.append(token)
        verdicts.append(vrow)
        signatures.append(srow)
        structure.append(trow)
    return ScanGrid(etas=etas, lambdas=lambdas, verdicts=verdicts, signatures=signatures,
                    structure=structure, boundary=_boundary_flags(structure), errors=errors)


def serialize_scan(grid: ScanGrid, boundary: bool = False) -> str:
    """Delimited scan table: one grep-able row per grid point.

    ``boundary=True`` appends a fifth column flagging cells adjacent to
    a classification change (an extension of the base format).
    """
    header = "# eta lambda verdict signature"
    if boundary:
        header += " boundary"
    lines = [header]
    for i, eta in enumerate(grid.etas):
        for j, lam in enumerate(grid.lambdas):
            row = (
                f"{eta:.10g} {lam:.10g} {grid.verdicts[i][j]} "
                f"{grid.signatures[i][j]}"
            )
            if boundary:
                row += f" {int(grid.boundary[i, j])}"
            lines.append(row)
    return "\n".join(lines) + "\n"
