"""A run counts the whole input pool of its seed, however many ops it times."""

import itertools

import numpy as np

import run
from workloads import make_workload


def _counts(seconds, size=12, seed=7):
    program = run.Program()
    workload = make_workload("planted-defective")
    pool = list(itertools.islice(workload.inputs(np.random.default_rng([seed, 0])), size))
    tally = run.Tally()
    times = run.timed_loop(workload, program, pool, itertools.cycle(range(size)), seconds,
                           10 * size, tally)
    run.check_unvisited(workload, program, pool, tally)
    return len(times), (tally.attempted, tally.failed, dict(tally.fail_case))


def test_counts_do_not_depend_on_the_ops_timed():
    few, short = _counts(seconds=1e-9)
    many, long = _counts(seconds=60.0)
    assert few == 1 and many == 120
    assert short == long
    assert short[0] == 12
