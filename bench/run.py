#!/usr/bin/env python3
"""quadnf benchmark: how long it takes to get a verified normal form, and where the time goes.

Run from the repository root:

    python3 bench/run.py --workload generic-n32 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 15         # every workload, one table
    python3 bench/run.py --workload pd-n32 --smoke --trace 1  # a few ops, every metric

Each run is one closed loop with a single caller in a single process,
with BLAS pinned to one thread.  One op is ``normal_form(M)`` followed
by ``report_to_dict(report)``, which is what ``quadnf analyze --format
structured`` computes without file I/O; on ``scan-2mode`` one op is the
CLI scan, ``scan_two_mode`` over the default 41x41 grid followed by
``serialize_scan(boundary=True)``.  Inputs come from ``--seed`` alone:
a fixed pool of them per run, which the timed ops visit in turn.
Warm-up ops run before timing, and the first result on every pool input
is checked outside the timed interval (see ``workloads.py``); a pool
input no timed op reached is run and checked after the timed loop, so
the counts of matrices checked and failed are the same for a seed
however fast the host is.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half the time and traced for the other half, and gives the
per-layer metrics (see ``tracing.py``) plus the tracing overhead.

Output: a table of every metric with its unit, one JSON line with the
whole report (environment, every metric or the reason it is absent,
failures), and, as the last line, ``{"correct", "attempted", "failed",
"metrics"}`` with the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1)
metrics named in BENCHMARK.json.  BENCHMARK.json gates only the
end-to-end metrics that stay steady between runs on a shared host whose
speed swings by up to 1.7x for seconds to minutes at a time: p90 sits in
the slow state, while p50 and throughput move with the share of fast
time (measured on 2 vCPUs of an Intel Xeon at 2.1 GHz).  The others are
printed in the table and the report.  ``attempted`` and ``failed`` count
the pool's matrices; a matrix fails when the program raises or its result fails
the check.  ``correct`` is false when the program crashed outside its
``QuadnfError`` hierarchy, or when any matrix failed on a workload where
every input must succeed (all but planted-defective, which carries
known failures and counts them).
"""

from __future__ import annotations

import os

# BLAS reads its thread count when NumPy loads: pin it before any import.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    SCAN_RANGE,
    SCAN_STEPS,
    WORKLOAD_NAMES,
    PlantedInput,
    generic_matrix,
    make_workload,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WARMUP_OPS = 3
SMOKE_OPS = 2
SETUP_REPS = 3        # set-up is timed this many times before the loop and again after
                     # it, so that two phases of a shared host's speed are sampled
CLI_REPS = 3
SCALING_MODES = (16, 32, 64)
SCALING_REPS = 3
SUBPROCESS_TIMEOUT_S = 120

# import quadnf and the first normal_form on a stable 2-mode matrix
FIRST_CALL = ("np.array([[1.0, 0.3, 0.0, 0.0], [0.3, 0.5, 0.0, 0.0],"
              " [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]])")
SETUP_CODE = f"import numpy as np, quadnf\nquadnf.normal_form({FIRST_CALL})\n"
CLI_CODE = f"""import json, time
start = time.perf_counter()
import quadnf.cli
imported = time.perf_counter()
import numpy as np
quadnf.normal_form({FIRST_CALL})
print(json.dumps({{"import_s": imported - start, "first_call_s": time.perf_counter() - imported}}))
"""


class Program:
    """The quadnf calls of one op, looked up at call time so that trace wrappers apply."""

    def __init__(self):
        import quadnf
        import quadnf.reporting  # noqa: F401  (not imported by the package itself)

        where = Path(quadnf.__file__).resolve()
        if SRC not in where.parents:
            raise SystemExit(f"error: imported quadnf from {where}, not from {SRC}")
        self.error = quadnf.QuadnfError
        self._nf = sys.modules["quadnf.normal_form"]
        self._rep = sys.modules["quadnf.reporting"]

    def analyze(self, m):
        report = self._nf.normal_form(m)
        self._rep.report_to_dict(report)
        return report

    def scan(self, steps: int = SCAN_STEPS):
        grid = self._rep.scan_two_mode(SCAN_RANGE, SCAN_RANGE, steps)
        self._rep.serialize_scan(grid, boundary=True)
        return grid


@dataclass
class Tally:
    """Outcome of the first op on each pool input: attempted and failed count matrices."""

    seen: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    crashed: int = 0
    raised: Counter = field(default_factory=Counter)
    fail_case: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)

    def correct(self, must_succeed: bool) -> bool:
        return not (self.crashed or (must_succeed and self.failed))


def account(workload, program, inp, result, exc, tally: Tally):
    tally.attempted += workload.cells
    if exc is not None:
        tally.failed += workload.cells
        tally.raised[type(exc).__name__] += 1
        tally.crashed += not isinstance(exc, program.error)
        reasons = [f"{type(exc).__name__}: {exc}"]
    else:
        reasons = workload.check(inp, result)
        tally.failed += len(reasons)
        tally.wrong += len(reasons)
    if reasons and isinstance(inp, PlantedInput):
        tally.fail_case.update({spec[0] for spec in inp.specs})
    tally.examples.extend(reasons[:max(0, 5 - len(tally.examples))])


def make_op(workload, program):
    if workload.name == "scan-2mode":
        return lambda _: program.scan()
    return lambda inp: program.analyze(inp.m if isinstance(inp, PlantedInput) else inp)


def attempt(op, inp):
    """Run one op; return (result, exception, seconds)."""
    result = exc = None
    start = time.perf_counter()
    try:
        result = op(inp)
    except Exception as err:  # every failure is counted, crashes included
        exc = err
    return result, exc, time.perf_counter() - start


def timed_loop(workload, program, pool, order, seconds, max_ops, tally, tracer=None):
    """Run ops over the pool in ``order`` until their summed time reaches ``seconds``.

    The first result on each pool input is checked and counted in
    ``tally``; later visits are only timed.  Return each op's time.
    """
    op = make_op(workload, program)
    times, total = [], 0.0
    while total < seconds and len(times) < max_ops:
        index = next(order)
        result, exc, elapsed = attempt(op, pool[index])
        if tracer is not None:
            tracer.fold()
        times.append(elapsed)
        total += elapsed
        if index not in tally.seen:
            tally.seen.add(index)
            account(workload, program, pool[index], result, exc, tally)
    return times


def check_unvisited(workload, program, pool, tally):
    """Run and check, untimed, the pool inputs no timed op reached."""
    op = make_op(workload, program)
    for index, inp in enumerate(pool):
        if index not in tally.seen:
            tally.seen.add(index)
            result, exc, _ = attempt(op, inp)
            account(workload, program, inp, result, exc, tally)


def warm_up(workload, program, seed):
    if workload.name == "scan-2mode":
        program.scan(steps=7)
        return
    op = make_op(workload, program)
    for inp in itertools.islice(workload.inputs(np.random.default_rng([seed, 1])), WARMUP_OPS):
        try:
            op(inp)
        except program.error:
            pass


# --- fresh interpreters -------------------------------------------------

def _child(code, *flags):
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)


def setup_seconds(reps):
    """Wall time of a fresh interpreter running import quadnf and a first 2-mode normal_form."""
    runs = []
    for _ in range(reps):
        start = time.perf_counter()
        _child(SETUP_CODE)
        runs.append(time.perf_counter() - start)
    return runs


def _cumulative_import_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output, 0 if not imported."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def cli_metrics(reps):
    plain = [json.loads(_child(CLI_CODE).stdout) for _ in range(reps)]
    scipy_linalg = [_cumulative_import_s(_child("import quadnf.cli", "-X", "importtime").stderr,
                                         "scipy.linalg") for _ in range(reps)]
    return {
        "cli.import_s": {"value": statistics.median(p["import_s"] for p in plain), "unit": "s"},
        "cli.scipy_linalg_import_s": {"value": statistics.median(scipy_linalg), "unit": "s"},
        "cli.first_call_s": {"value": statistics.median(p["first_call_s"] for p in plain),
                             "unit": "s"},
    }


def scaling_exponent(program, seed, reps):
    """Log-log slope of the median op time on generic inputs over SCALING_MODES."""
    rng = np.random.default_rng([seed, 2])
    medians = []
    for n_modes in SCALING_MODES:
        runs = []
        for _ in range(reps):
            m = generic_matrix(rng, n_modes)
            start = time.perf_counter()
            program.analyze(m)
            runs.append(time.perf_counter() - start)
        medians.append(statistics.median(runs))
    slope = np.polyfit(np.log(SCALING_MODES), np.log(medians), 1)[0]
    return float(slope), dict(zip(SCALING_MODES, medians))


def _blas(config):
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "pins": {k: os.environ.get(k) for k in PINS},
    }


# --- one workload -------------------------------------------------------

def _latency(times):
    ordered = sorted(times)
    rank = math.ceil(0.9 * len(ordered))
    return statistics.median(ordered), ordered[rank - 1], len(ordered) - rank


def run_workload(args):
    program = Program()
    workload = make_workload(args.workload)
    max_ops = SMOKE_OPS if args.smoke else sys.maxsize
    pool = list(itertools.islice(workload.inputs(np.random.default_rng([args.seed, 0])),
                                 min(workload.pool, max_ops)))
    order = itertools.cycle(range(len(pool)))
    tally = Tally()
    warm_up(workload, program, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              "loop": "closed, 1 caller, 1 process"}
    if args.trace == 0:
        setup_reps = 1 if args.smoke else SETUP_REPS
        setup = setup_seconds(setup_reps)
        times = timed_loop(workload, program, pool, order, args.seconds, max_ops, tally)
        check_unvisited(workload, program, pool, tally)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += setup_seconds(setup_reps)
        p50, p90, beyond = _latency(times)
        report.update(ops=len(times), pool=len(pool), p90_ops_beyond=beyond,
                      setup_runs_s=setup)
        report["end_to_end"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "throughput_per_s": {"value": len(times) * workload.cells / sum(times),
                                 "unit": "matrices/s"},
            "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        half = args.seconds / 2
        plain = timed_loop(workload, program, pool, order, half, max_ops, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, program, pool, order, half, max_ops, tally, tracer)
        finally:
            tracer.uninstall()
        check_unvisited(workload, program, pool, tally)
        layers = layer_metrics(tracer, len(traced), sum(traced) * 1e3)
        layers["trace.overhead_ratio"] = {
            "value": (len(plain) / sum(plain)) / (len(traced) / sum(traced)) - 1, "unit": "ratio"}
        layers.update(cli_metrics(1 if args.smoke else CLI_REPS))
        for case in range(1, 7):
            layers[f"planted.fail_case{case}"] = {"value": tally.fail_case[case], "unit": "count"}
        if args.workload == "generic-n32":
            slope, medians = scaling_exponent(program, args.seed, 1 if args.smoke else SCALING_REPS)
            layers["normal_form.scaling_exponent"] = {"value": slope, "unit": "slope"}
            report["scaling_median_s"] = medians
        else:
            layers["normal_form.scaling_exponent"] = {"unit": "slope",
                                                      "absent": "measured on generic-n32 only"}
        report.update(ops=len(plain) + len(traced), pool=len(pool), traced_ops=len(traced),
                      absent_boundaries=tracer.absent, per_layer=layers)
    correct = tally.correct(workload.must_succeed)
    report["failures"] = {"correct": correct, "attempted": tally.attempted,
                          "failed": tally.failed, "wrong": tally.wrong,
                          "crashed": tally.crashed,
                          "raised": dict(tally.raised), "examples": tally.examples}
    return report, correct, tally


def contract_line(report, correct, tally):
    """The last output line: the metrics BENCHMARK.json names for this trace mode.

    A per-layer metric whose boundary the program no longer has reads 0:
    the work it measured is gone.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section, measured = (("end_to_end", report["end_to_end"]) if report["trace"] == 0
                         else ("per_layer", report["per_layer"]))
    metrics = {}
    for entry in spec[section]:
        got = measured[entry["name"]]
        metrics[entry["name"]] = {"value": got.get("value", 0.0), "unit": entry["unit"]}
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def print_table(report):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"  ops {report['ops']}")
    for name, m in report.get("end_to_end", report.get("per_layer", {})).items():
        shown = f"{m['value']:.6g}" if "value" in m else f"absent ({m['absent']})"
        print(f"  {name:36s} {shown:>14s} {m['unit']}")
    print(f"  failures: {report['failures']}")


# --- every workload -----------------------------------------------------

def run_all(args):
    """Run each workload in its own process and print one table."""
    reports, lines = {}, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        reports[name], lines[name] = json.loads(out[-2]), json.loads(out[-1])
    section = "end_to_end" if args.trace == 0 else "per_layer"
    names = list(dict.fromkeys(k for r in reports.values() for k in r[section]))
    print(f"{'metric':36s}" + "".join(f"{w:>20s}" for w in reports) + "  unit")
    for metric in names:
        cells, unit = [], ""
        for r in reports.values():
            m = r[section].get(metric, {"absent": "-", "unit": ""})
            unit = unit or m["unit"]
            cells.append(f"{m['value']:.6g}" if "value" in m else "absent")
        print(f"{metric:36s}" + "".join(f"{c:>20s}" for c in cells) + f"  {unit}")
    print(f"{'correct / attempted / failed':36s}" + "".join(
        f"{str(ln['correct']) + ' ' + str(ln['attempted']) + ' ' + str(ln['failed']):>20s}"
        for ln in lines.values()))
    print(json.dumps(lines))
    return 0 if all(ln["correct"] for ln in lines.values()) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="summed op time to measure (trace 1: half untraced, half traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"stop after {SMOKE_OPS} ops per loop and time set-up once")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadnf" / "__init__.py").is_file():
        print(f"error: no quadnf sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    # Rank-decision warnings go to stderr; their I/O is not what is measured.
    # Filter by category, not module: with tracing on, the warning's
    # stacklevel points into the trace wrapper instead of quadnf.
    warnings.simplefilter("ignore", UserWarning)
    report, correct, tally = run_workload(args)
    print_table(report)
    print(json.dumps(report))
    print(json.dumps(contract_line(report, correct, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
