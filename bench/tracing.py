"""Per-layer tracing of quadnf from outside the program.

``Tracer.install`` replaces each boundary function ``quadnf.<module>.<name>``
with a wrapper that records a span, in every quadnf module that binds the
function: ``normal_form.py`` imports ``classify_spectrum`` into its own
globals, and calls inside one module, such as ``classify_spectrum`` ->
``cluster_eigenvalues``, resolve globals at call time, so both are
caught.  LAPACK calls are caught the same way on ``numpy.linalg``,
``numpy.linalg._linalg`` and ``scipy.linalg``; they are recorded only
while a quadnf span is open, and a LAPACK call made inside another one
(``cond`` -> ``svd``) belongs to the outer call.

Spans stay in memory with their parent, and ``fold`` turns the spans of
one op into totals, after which they are dropped.  A boundary the
program no longer has is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Layer -> (module, boundary functions).  The layers are the package's
# modules; LAPACK is the layer below all of them.
BOUNDARIES = {
    "core": ("quadnf.core", ("build_eom", "similarity")),
    "spectrum": ("quadnf.spectrum", ("cluster_eigenvalues", "classify_spectrum",
                                     "geometric_multiplicity", "extract_class_chains",
                                     "jordan_chains")),
    "algebra": ("quadnf.algebra", ("orthonormalize_real_complex", "orthonormalize_zero",
                                   "zero_odd_pairing", "orthonormalize_imaginary",
                                   "bogoliubov_orthonormalize")),
    "normal_form": ("quadnf.normal_form", ("normal_form", "bogoliubov_transform",
                                           "build_case_columns", "assemble_transform",
                                           "emit_terms")),
    "reporting": ("quadnf.reporting", ("report_to_dict", "signature_string",
                                       "scan_two_mode", "serialize_scan")),
}

LAPACK_MODULES = ("numpy.linalg", "numpy.linalg._linalg", "scipy.linalg")
LAPACK_KIND = {
    "svd": "svd",
    "eig": "eig", "eigvals": "eig", "eigh": "eig", "eigvalsh": "eig", "schur": "eig",
    "qr": "other", "solve": "other", "cond": "other", "inv": "other", "norm": "other",
    "lstsq": "other", "det": "other", "pinv": "other", "matrix_rank": "other",
    "cholesky": "other", "expm": "other", "solve_sylvester": "other", "lu_factor": "other",
}


def svd_flops(args, kwargs) -> float:
    """Flops of one SVD, computed from its shape (not measured).

    Golub & Van Loan, Matrix Computations, R-SVD counts for an m x n
    matrix with m >= n: 4mn^2 - 4n^3/3 for singular values only, and
    4m^2 n + 8mn^2 + 9n^3 with the full U and V (numpy's default), or
    14mn^2 + 8n^3 with the thin U.  A complex flop counts as 4 real ones.
    """
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = 1
    for extent in shape[:-2]:
        batch *= extent
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    with_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not with_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 14 * m * n * n + 8 * n ** 3
    if getattr(a, "dtype", None) is not None and a.dtype.kind == "c":
        flops *= 4
    return float(batch * flops)


def _is_matrix_2norm(args, kwargs) -> bool:
    """norm(A, 2) of a matrix is an SVD; vector and Frobenius norms are not LAPACK."""
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return getattr(x, "ndim", 0) == 2 and ord_ in (2, -2) and kwargs.get("axis") is None


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: int
    end: int = 0
    error: str | None = None
    flops: float = 0.0


class Tracer:
    """Spans at the quadnf module boundaries and under them at LAPACK."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.totals = defaultdict(float)   # "<name>.ms", "<name>.self_ms", ...
        self.counts = Counter()            # "<name>.calls", "<layer>.errors.<Exc>", ...

    # --- recording --------------------------------------------------------

    def _run(self, name, layer, fn, args, kwargs, flops=0.0):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, parent, time.perf_counter_ns(), flops=flops)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def _boundary(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, layer, fn, args, kwargs)
        return traced

    def _lapack(self, name, fn):
        kind = LAPACK_KIND[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outside = not self._stack or self.spans[self._stack[-1]].layer == "lapack"
            if outside or (name == "norm" and not _is_matrix_2norm(args, kwargs)):
                return fn(*args, **kwargs)
            flops = svd_flops(args, kwargs) if kind == "svd" else 0.0
            return self._run(f"lapack.{kind}", "lapack", fn, args, kwargs, flops)
        return traced

    # --- patching ---------------------------------------------------------

    def _rebind(self, namespaces, original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self):
        quadnf = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "quadnf" or n.startswith("quadnf."))]
        for layer, (module, names) in BOUNDARIES.items():
            mod = sys.modules.get(module)
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.absent.append(f"{module}.{name}")
                    continue
                self._rebind(quadnf, fn, self._boundary(name, layer, fn))
        linalg = [sys.modules[m] for m in LAPACK_MODULES if m in sys.modules]
        seen = set()  # numpy.linalg and numpy.linalg._linalg share function objects
        for ns in linalg:
            for name in LAPACK_KIND:
                fn = getattr(ns, name, None)
                if callable(fn) and id(fn) not in seen:
                    wrapper = self._lapack(name, fn)
                    seen.update((id(fn), id(wrapper)))
                    self._rebind(linalg + quadnf, fn, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # --- aggregation ------------------------------------------------------

    def fold(self):
        """Add the finished spans to the totals and drop them."""
        if self._stack:
            raise RuntimeError("fold() called with spans still open")
        spans = self.spans
        child_ns = [0] * len(spans)      # quadnf children
        nf_child_ns = [0] * len(spans)   # normal_form() children
        fast = [False] * len(spans)
        for s in spans:
            if s.parent >= 0 and s.layer != "lapack":
                child_ns[s.parent] += s.end - s.start
                if s.name == "normal_form":
                    nf_child_ns[s.parent] += s.end - s.start
                if s.name == "bogoliubov_transform":
                    fast[s.parent] = True
        for i, s in enumerate(spans):
            dur = (s.end - s.start) / 1e6
            parent = spans[s.parent] if s.parent >= 0 else None
            outermost = parent is None or parent.layer != s.layer
            self.counts[f"{s.name}.calls"] += 1
            self.totals[f"{s.name}.ms"] += dur
            self.totals[f"{s.name}.self_ms"] += dur - child_ns[i] / 1e6
            if s.layer == "algebra" and outermost:
                self.counts["algebra.calls"] += 1
                self.totals["algebra.ms"] += dur
            if s.layer == "lapack":
                self.totals["lapack.ms"] += dur
                self.totals["lapack.svd.flops"] += s.flops
            if s.name == "scan_two_mode":
                self.totals["scan_two_mode.scan_self_ms"] += dur - nf_child_ns[i] / 1e6
            if s.name == "normal_form":
                self.counts["normal_form.ok"] += s.error is None
                self.counts["normal_form.fast"] += fast[i]
            if s.error is not None and outermost and s.layer != "lapack":
                self.counts[f"{s.layer}.errors.{s.error}"] += 1
        spans.clear()


# Exception classes each layer can raise today; they are always reported,
# as 0 when they did not occur, and any other class that does occur is
# reported as well.
KNOWN_ERRORS = {
    "spectrum": ("AmbiguousSpectrumError", "SpectrumStructureError", "ChainExtractionError"),
    "algebra": ("NondegeneracyError", "ContractViolationError"),
}
ALGEBRA_FUNCTIONS = BOUNDARIES["algebra"][1]


def layer_metrics(t: Tracer, ops: int, op_ms: float) -> dict:
    """Per-layer metrics of a traced run of ``ops`` ops lasting ``op_ms`` in all.

    Times and call counts are per op, except ``normal_form.attempts``
    and ``normal_form.attempt_yield`` (per matrix analysed) and the
    ``*.errors.*`` counts (over the run).  A metric is absent, with the
    reason, when the program has none of its boundary functions, and a
    time is absent when this workload never reached them.
    """
    c, tot = t.counts, t.totals
    missing = {name.rsplit(".", 1)[1] for name in t.absent}
    nf_calls = c["normal_form.calls"]
    attempts = c["classify_spectrum.calls"]

    table = {
        "core.build_eom_ms": ("ms", ("build_eom",), tot["build_eom.ms"] / ops),
        "core.similarity_ms": ("ms", ("similarity",), tot["similarity.ms"] / ops),
        "spectrum.cluster_ms": ("ms", ("cluster_eigenvalues",), tot["cluster_eigenvalues.ms"] / ops),
        "spectrum.cluster_calls": ("calls/op", ("cluster_eigenvalues",),
                                   c["cluster_eigenvalues.calls"] / ops),
        "spectrum.classify_self_ms": ("ms", ("classify_spectrum",),
                                      tot["classify_spectrum.self_ms"] / ops),
        "spectrum.geometric_ms": ("ms", ("geometric_multiplicity",),
                                  tot["geometric_multiplicity.ms"] / ops),
        "spectrum.geometric_calls": ("calls/op", ("geometric_multiplicity",),
                                     c["geometric_multiplicity.calls"] / ops),
        "spectrum.chains_ms": ("ms", ("extract_class_chains",),
                               tot["extract_class_chains.ms"] / ops),
        "spectrum.jordan_chains_calls": ("calls/op", ("jordan_chains",),
                                         c["jordan_chains.calls"] / ops),
        "algebra.orthonormalize_ms": ("ms", ALGEBRA_FUNCTIONS, tot["algebra.ms"] / ops),
        "algebra.calls": ("calls/op", ALGEBRA_FUNCTIONS, c["algebra.calls"] / ops),
        "normal_form.attempts": ("calls/matrix", ("classify_spectrum", "normal_form"),
                                 attempts / nf_calls if nf_calls else 0.0),
        "normal_form.attempt_yield": ("ratio", ("classify_spectrum", "normal_form"),
                                      c["normal_form.ok"] / attempts if attempts else 0.0),
        "normal_form.fast_path_share": ("ratio", ("bogoliubov_transform", "normal_form"),
                                        c["normal_form.fast"] / nf_calls if nf_calls else 0.0),
        "normal_form.columns_ms": ("ms", ("build_case_columns",),
                                   tot["build_case_columns.ms"] / ops),
        "normal_form.assemble_ms": ("ms", ("assemble_transform",),
                                    tot["assemble_transform.ms"] / ops),
        "normal_form.emit_terms_ms": ("ms", ("emit_terms",), tot["emit_terms.ms"] / ops),
        "normal_form.self_ms": ("ms", ("normal_form",),
                                (tot["normal_form.self_ms"] + tot["bogoliubov_transform.self_ms"]) / ops),
        "reporting.report_to_dict_ms": ("ms", ("report_to_dict",), tot["report_to_dict.ms"] / ops),
        "reporting.signature_ms": ("ms", ("signature_string",), tot["signature_string.ms"] / ops),
        "reporting.serialize_ms": ("ms", ("serialize_scan",), tot["serialize_scan.ms"] / ops),
        "reporting.scan_self_ms": ("ms", ("scan_two_mode",),
                                   tot["scan_two_mode.scan_self_ms"] / ops),
        "lapack.svd_calls": ("calls/op", (), c["lapack.svd.calls"] / ops),
        "lapack.svd_ms": ("ms", (), tot["lapack.svd.ms"] / ops),
        "lapack.svd_gflop": ("GFLOP", (), tot["lapack.svd.flops"] / 1e9 / ops),
        "lapack.eig_calls": ("calls/op", (), c["lapack.eig.calls"] / ops),
        "lapack.eig_ms": ("ms", (), tot["lapack.eig.ms"] / ops),
        "lapack.other_calls": ("calls/op", (), c["lapack.other.calls"] / ops),
        "lapack.other_ms": ("ms", (), tot["lapack.other.ms"] / ops),
        "lapack.share": ("ratio", (), tot["lapack.ms"] / op_ms),
    }
    out = {}
    for metric, (unit, needs, value) in table.items():
        if needs and all(n in missing for n in needs):
            out[metric] = {"unit": unit, "absent": f"the program has no {', '.join(needs)}"}
        elif unit == "ms" and needs and not any(c[f"{n}.calls"] for n in needs):
            out[metric] = {"unit": unit, "absent": f"{', '.join(needs)} not reached here"}
        else:
            out[metric] = {"value": value, "unit": unit}
    for layer, known in KNOWN_ERRORS.items():
        seen = {key.split(".errors.", 1)[1] for key in c if key.startswith(f"{layer}.errors.")}
        for exc in sorted(set(known) | seen):
            out[f"{layer}.errors.{exc}"] = {"value": c[f"{layer}.errors.{exc}"], "unit": "count"}
    return out
