"""Command-line interface.

Exit codes: 0 success, 1 input validation error, 2 pipeline error,
3 verification error.
"""

from __future__ import annotations

import sys

import click

from .core import _hamiltonian_defects
from .errors import QuadnfError, ValidationError, VerificationError
from .normal_form import normal_form
from .reporting import (
    parse_matrix,
    report_to_json,
    report_to_text,
    scan_two_mode,
    serialize_scan,
)

EXIT_VALIDATION = 1
EXIT_PIPELINE = 2
EXIT_VERIFICATION = 3


def _exit_code(exc: QuadnfError) -> int:
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    if isinstance(exc, VerificationError):
        return EXIT_VERIFICATION
    return EXIT_PIPELINE


def _read_document(path: str, tolerance=None):
    if path == "-":
        return parse_matrix(sys.stdin.read(), tolerance=tolerance)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read(), tolerance=tolerance)


@click.group()
def main():
    """Normal forms of quadratic Hamiltonians given by a symmetric matrix M."""


@main.command()
@click.argument("input", default="-")
@click.option("--tolerance", type=float, default=None,
              help="Structural tolerance (absolute and relative) of a document that declares none.")
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
              default="text", show_default=True, help="Report rendering.")
@click.option("--output", type=click.Path(writable=True), default=None,
              help="Write the report to a file instead of stdout.")
def analyze(input, tolerance, fmt, output):
    """Analyze a matrix document (file path or '-' for stdin)."""
    try:
        doc = _read_document(input, tolerance=tolerance)
        report = normal_form(doc.matrix, doc.config())
    except QuadnfError as exc:
        click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
        sys.exit(_exit_code(exc))
    rendered = report_to_json(report) if fmt == "structured" else report_to_text(report)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        click.echo(rendered, nl=False)


@main.command()
@click.option("--eta-min", type=float, default=-2.0, show_default=True)
@click.option("--eta-max", type=float, default=2.0, show_default=True)
@click.option("--lambda-min", type=float, default=-2.0, show_default=True)
@click.option("--lambda-max", type=float, default=2.0, show_default=True)
@click.option("--steps", type=int, default=41, show_default=True,
              help="Grid points per axis.")
@click.option("--boundary/--no-boundary", default=False, show_default=True,
              help="Append a column flagging cells at classification changes.")
@click.option("--output", type=click.Path(writable=True), default=None,
              help="Write the scan table to a file instead of stdout.")
def scan(eta_min, eta_max, lambda_min, lambda_max, steps, boundary, output):
    """Scan the two-mode position-coupling model over a parameter grid."""
    try:
        grid = scan_two_mode((eta_min, eta_max), (lambda_min, lambda_max), steps)
    except QuadnfError as exc:
        click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
        sys.exit(_exit_code(exc))
    table = serialize_scan(grid, boundary=boundary)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(table)
    else:
        click.echo(table, nl=False)


@main.command()
@click.argument("input", default="-")
def check(input):
    """Validate a matrix document and report its asymmetry against the tolerance."""
    try:
        doc = _read_document(input)
    except QuadnfError as exc:
        click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
        sys.exit(_exit_code(exc))
    # Parsing accepted M as symmetric; K = J M is then Hamiltonian exactly.
    _, _, asym, limit = _hamiltonian_defects(doc.matrix, doc.config())
    click.echo(f"modes: {doc.n_modes}")
    click.echo(f"asymmetry max |M - M^T|: {asym:.3e}")
    click.echo(f"tolerance: {limit:.3e}")
    click.echo("status: ok")


if __name__ == "__main__":
    main()
