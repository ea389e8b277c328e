#!/usr/bin/env python3
"""Outcome of every input in the benchmark's planted-defective pool.

    python3 tools/planted_outcomes.py SRC_DIR SEED

imports quadnf from SRC_DIR and prints one line per pool input of
``bench/workloads.py`` for SEED (the same inputs ``bench/run.py
--workload planted-defective --seed SEED`` checks): its index and
``ok``, ``wrong`` (a result that fails the benchmark's check) or the
class of the exception raised.  Two source trees give identical
outcomes input by input when the outputs of this script on them are
identical, e.g.

    diff <(python3 tools/planted_outcomes.py old/src 1) \\
         <(python3 tools/planted_outcomes.py src 1)

BLAS is pinned to one thread, as in the benchmark.  Six lines then
count the outcomes by the largest planted rank (1-6), one more the
inputs not ``ok`` whose largest rank is at most 4 at a scale of at
most 0.6, and the last line counts all outcomes.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import itertools  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import make_workload  # noqa: E402


def outcomes(seed: int):
    """Yield (index, input, outcome) for each planted pool input of ``seed``."""
    import quadnf
    from quadnf import normal_form
    from quadnf.reporting import report_to_dict

    print("# quadnf from", Path(quadnf.__file__).resolve().parent, file=sys.stderr)

    workload = make_workload("planted-defective")
    pool = itertools.islice(workload.inputs(np.random.default_rng([seed, 0])), workload.pool)
    for index, inp in enumerate(pool):
        try:
            report = normal_form(inp.m)
            report_to_dict(report)
        except Exception as exc:  # a crash outside QuadnfError is an outcome too
            yield index, inp, type(exc).__name__
            continue
        yield index, inp, "wrong" if workload.check(inp, report) else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: planted_outcomes.py SRC_DIR SEED", file=sys.stderr)
        return 2
    src, seed = Path(argv[0]).resolve(), int(argv[1])
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")
    counts = Counter()
    by_rank = {rank: Counter() for rank in range(1, 7)}
    easy_misses = 0
    for index, inp, outcome in outcomes(seed):
        counts[outcome] += 1
        rank = max(spec[2] for spec in inp.specs)
        by_rank[rank][outcome] += 1
        easy_misses += outcome != "ok" and rank <= 4 and inp.scale <= 0.6
        print(index, outcome)
    for rank, tally in by_rank.items():
        print(f"rank {rank}", " ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    print("not ok at rank <= 4 and scale <= 0.6:", easy_misses)
    print("total", " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
