#!/usr/bin/env python3
"""Correctness ledger of every ``ok`` report in the benchmark's planted pool.

    python3 tools/planted_ledger.py SRC_DIR SEED

imports quadnf from SRC_DIR and takes the outcome of each pool input of
``bench/workloads.py``'s ``planted-defective`` workload for SEED from
``tools/planted_outcomes.py``.  For each input whose outcome is ``ok``
it runs ``normal_form`` once more and prints one line: the input's
index; its backward error

    beta = max|M - T^-T (-J K_N) T^-1| / (1 + max|M|),

with T^-1 a true inverse (``np.linalg.inv``) and K_N the expected blocks,
``expected_kn(report.blocks, N)``; ``T=fail`` when T fails the check
``symplectic_defect(T) <= SYMPLECTIC_TOL`` of ``bench/workloads.py``,
which ``check_planted`` does not apply, else ``T=ok``; and the report's
own four residuals.  Summary lines then count, by the largest planted
rank (1-6) and in total, the ``ok`` inputs, those whose T fails the check
and those with beta > 1e-6, and count the inputs by the decade of beta.
Two source trees give the same ledger input by input when the outputs of
this script on them are identical, e.g.

    diff <(python3 tools/planted_ledger.py old/src 1) \\
         <(python3 tools/planted_ledger.py src 1)

BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import math  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from planted_outcomes import outcomes  # noqa: E402
from workloads import SYMPLECTIC_TOL, symplectic_defect  # noqa: E402

# A report whose backward error exceeds this does not reproduce its own M
# to six digits.
BETA_LIMIT = 1e-6

RESIDUALS = ("symplectic", "block_match", "n_reconstruction", "condition")


def backward_error(m: np.ndarray, report) -> float:
    """beta: how far T^-T N T^-1, with N = -J K_N of the expected blocks, is from M."""
    from quadnf import symplectic_form
    from quadnf.normal_form import expected_kn

    n = m.shape[0] // 2
    t_inv = np.linalg.inv(report.transform.matrix)
    rebuilt = t_inv.T @ (-symplectic_form(n) @ expected_kn(report.blocks, n)) @ t_inv
    return float(np.max(np.abs(m - rebuilt)) / (1.0 + np.max(np.abs(m))))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: planted_ledger.py SRC_DIR SEED", file=sys.stderr)
        return 2
    src, seed = Path(argv[0]).resolve(), int(argv[1])
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")
    from quadnf import normal_form

    by_rank = {rank: Counter() for rank in range(1, 7)}
    decades = Counter()
    for index, inp, outcome in outcomes(seed):
        if outcome != "ok":
            continue
        report = normal_form(inp.m)
        beta = backward_error(inp.m, report)
        t_fails = symplectic_defect(report.transform.matrix) > SYMPLECTIC_TOL
        tally = by_rank[max(spec[2] for spec in inp.specs)]
        tally["ok"] += 1
        tally["T_fail"] += t_fails
        tally["beta>1e-06"] += beta > BETA_LIMIT
        decades[math.floor(math.log10(beta)) if beta > 0 else None] += 1
        residuals = " ".join(f"{name}={report.residuals[name]:.3e}" for name in RESIDUALS)
        print(index, f"beta={beta:.3e}", f"T={'fail' if t_fails else 'ok'}", residuals)
    keys = ("ok", "T_fail", "beta>1e-06")
    for rank, tally in by_rank.items():
        print(f"rank {rank}", " ".join(f"{k}={tally[k]}" for k in keys))
    if None in decades:
        print("beta = 0:", decades.pop(None))
    for decade, count in sorted(decades.items()):
        print(f"beta in [1e{decade:+03d}, 1e{decade + 1:+03d}):", count)
    total = sum(by_rank.values(), Counter())
    print("total", " ".join(f"{k}={total[k]}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
