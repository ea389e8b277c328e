#!/usr/bin/env python3
"""A digest of every report the benchmark's workloads produce.

    python3 tools/report_digests.py SRC_DIR SEED

imports quadnf from SRC_DIR and prints one line per pool input of
``generic-n32``, ``pd-n32`` and ``planted-defective`` for SEED (the
inputs ``bench/run.py --seed SEED`` checks): the workload, the input's
index, its outcome (``ok``, or the class of the exception the pipeline
raised) and the SHA-1 of ``json.dumps(report_to_dict(...))`` followed
by ``report_to_text(...)`` (the CLI's default rendering), or of the
exception's class and message followed by its ``attempts`` records,
one a line, when the pipeline raises.  So a diff shows at once whether
a changed digest belongs to an input that failed.  The planted
pool then runs once more under a document's structural tolerance of
1e-6, ``MatrixDocument(...).config()``, labelled
``planted-defective@1e-06``.  The last lines give, for two scan grids,
the SHA-1 of the table ``serialize_scan(..., boundary=True)`` and then
how many of the grid's points took the per-matrix path (``normal_form``
itself) rather than the stacked one, counted by wrapping
``quadnf.normal_form.normal_form`` during the scan: ``scan-2mode`` is
the default 41x41 grid, and ``scan-offgrid`` eta in [-3, 3] by lambda
in [-1.5, 1.5] at 37 steps (``OFFGRID``), most of whose points fall
between the default grid's.  Two source trees produce
bit-identical reports when the outputs of this script on them are
identical, e.g.

    diff <(python3 tools/report_digests.py old/src 1) \\
         <(python3 tools/report_digests.py src 1)

BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import SCAN_RANGE, SCAN_STEPS, PlantedInput, make_workload  # noqa: E402

# (workload, document tolerance): None is the default Config.  A tolerance
# is the one Config value a caller sets; at 1e-6 it also widens the
# verification budget, which brings back many planted inputs.
MATRIX_PASSES = (("generic-n32", None), ("pd-n32", None), ("planted-defective", None),
                 ("planted-defective", 1e-6))

# A second scan grid, (eta range, lambda range, steps): wider in eta and finer
# in lambda than the default one, so most of its cells and boundaries fall
# between that grid's, and the stacked scan path is compared on matrices the
# default grid does not reach.
OFFGRID = ((-3.0, 3.0), (-1.5, 1.5), 37)


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _scan(*grid):
    """The SHA-1 of ``scan_two_mode(*grid)``'s table, and how many of its points
    took ``normal_form`` itself."""
    from quadnf.reporting import scan_two_mode, serialize_scan

    nf = importlib.import_module("quadnf.normal_form")
    analyze, alone = nf.normal_form, []

    def counted(m, *args):
        alone.append(m)
        return analyze(m, *args)

    nf.normal_form = counted
    try:
        table = serialize_scan(scan_two_mode(*grid), boundary=True)
    finally:
        nf.normal_form = analyze
    return _sha1(table), len(alone)


def digests(seed: int):
    """Yield (workload, index, "outcome digest") for each pool input, then for
    each scan (grid, 0, digest) and (grid, "per-matrix", its count of such points)."""
    import quadnf
    from quadnf import normal_form
    from quadnf.reporting import MatrixDocument, report_to_dict, report_to_text

    print("# quadnf from", Path(quadnf.__file__).resolve().parent, file=sys.stderr)

    for name, tolerance in MATRIX_PASSES:
        workload = make_workload(name)
        label = name if tolerance is None else f"{name}@{tolerance:g}"
        pool = itertools.islice(workload.inputs(np.random.default_rng([seed, 0])), workload.pool)
        for index, inp in enumerate(pool):
            m = inp.m if isinstance(inp, PlantedInput) else inp
            try:
                report = normal_form(m, MatrixDocument(len(m) // 2, m, tolerance).config())
                outcome, text = "ok", json.dumps(report_to_dict(report)) + report_to_text(report)
            except Exception as exc:  # a crash outside QuadnfError is an output too
                outcome = type(exc).__name__
                text = "\n".join([f"{outcome}: {exc}", *getattr(exc, "attempts", ())])
            yield label, index, f"{outcome} {_sha1(text)}"
    default = (SCAN_RANGE, SCAN_RANGE, SCAN_STEPS)
    for name, grid in (("scan-2mode", default), ("scan-offgrid", OFFGRID)):
        digest, alone = _scan(*grid)
        yield name, 0, digest
        yield name, "per-matrix", alone


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: report_digests.py SRC_DIR SEED", file=sys.stderr)
        return 2
    src, seed = Path(argv[0]).resolve(), int(argv[1])
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")
    for name, index, digest in digests(seed):
        print(name, index, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
