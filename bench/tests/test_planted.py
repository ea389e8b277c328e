"""The benchmark's own planted-structure builder agrees with the test suite's.

The benchmark keeps a frozen copy of the real-Jordan block formulas so
that a change to the program cannot change its inputs; this check ties
the copy to ``tests/conftest.py::seeded_matrix`` as it stands.
"""

import importlib.util

import numpy as np
import pytest

from conftest import ROOT
import workloads


def _suite_conftest():
    spec = importlib.util.spec_from_file_location("quadnf_suite_conftest",
                                                  ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPECS = [
    [(1, 1.5 + 0j, 3, None)],
    [(2, 0.7 + 1.1j, 2, None), (2, 0.7 + 1.1j, 1, None)],
    [(3, 0j, 6, -1 + 0j), (4, 0j, 1, None)],
    [(4, 0j, 5, None)],
    [(5, 2.3j, 4, 1 + 0j), (6, 2.3j, 3, -1j)],
    [(6, 1.7j, 5, 1j), (1, 0.9 + 0j, 2, None)],
]


@pytest.mark.parametrize("specs", SPECS, ids=lambda s: "+".join(f"c{b[0]}d{b[2]}" for b in s))
def test_planted_matrix_matches_seeded_matrix(specs):
    suite = _suite_conftest()
    units = [suite._Unit(case=c, eigenvalue=lam, rank=d, sigma=s, t_cols=[], s_cols=[])
             for c, lam, d, s in specs]
    blocks = [suite._block_for_unit(u) for u in units]
    kn = suite.expected_kn(blocks, sum(b.size for b in blocks))
    assert np.array_equal(workloads.planted_kn(specs), kn)

    m_suite, _ = suite.seeded_matrix(specs, np.random.default_rng(5), scale=0.7)
    m_bench = workloads.planted_matrix(specs, np.random.default_rng(5), 0.7)
    np.testing.assert_allclose(m_bench, m_suite, rtol=1e-12, atol=1e-12)


def test_planted_inputs_repeat_for_a_seed():
    first = next(workloads.planted_inputs(np.random.default_rng([4, 0])))
    again = next(workloads.planted_inputs(np.random.default_rng([4, 0])))
    assert first.specs == again.specs
    assert np.array_equal(first.m, again.m)


def test_planted_mix_spans_every_case_and_rank():
    inputs = workloads.planted_inputs(np.random.default_rng([0, 0]))
    seen, modes = set(), 0
    for _ in range(400):
        inp = next(inputs)
        seen.update((case, rank) for case, _, rank, _ in inp.specs)
        modes = max(modes, inp.m.shape[0] // 2)
    want = {(c, d) for c, ranks in workloads.CASE_RANKS.items() for d in ranks}
    assert seen == want
    assert modes <= workloads.MAX_PLANTED_MODES
