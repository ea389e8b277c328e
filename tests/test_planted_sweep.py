"""Every planted chain case at every rank it admits up to 6, at three
conditioning scales, plus dense inputs at N = 40.

``seeded_matrix`` hides a known real Jordan form behind a random
symplectic conjugation of the given scale; the pipeline must return the
planted (case, rank, sigma) multiset.  The dense inputs put one
defective imaginary block of rank 3 among 37 simple real and imaginary
pairs with eigenvalues in [0.5, 3], at conjugation scale
0.3 sqrt(12 / N), as in the benchmark's dense-spectrum probe: there a
cut relative to the whole of K - lam I let the neighbours into the
kernel.
"""

import numpy as np
import pytest

from conftest import seeded_matrix
from quadnf import normal_form

RANKS = {1: (1, 2, 3, 4, 5, 6), 2: (1, 2, 3, 4, 5, 6), 3: (2, 4, 6), 4: (1, 3, 5),
         5: (2, 4, 6), 6: (1, 3, 5)}
EIGENVALUE = {1: 1.3 + 0j, 2: 0.7 + 1.1j, 3: 0j, 4: 0j, 5: 1.3j, 6: 1.3j}
SCALES = (0.3, 0.6, 1.0)


def _sigma(case, index):
    sign = (-1) ** index
    return {3: complex(sign), 5: complex(sign), 6: 1j * sign}.get(case)


def _planted(case, rank, index):
    return [(case, EIGENVALUE[case], rank, _sigma(case, index))]


def _dense(seed, n_modes=40):
    rng = np.random.default_rng([seed, n_modes])
    specs = [(6, complex(0, rng.uniform(0.5, 3.0)), 3, 1j)]
    for i in range(n_modes - 3):
        nu = rng.uniform(0.5, 3.0)
        specs.append((1, complex(nu), 1, None) if i % 2 else (6, complex(0, nu), 1, -1j))
    return specs, rng, 0.3 * np.sqrt(12 / n_modes)


def _shape(blocks):
    return sorted((case, rank, None if s is None else complex(round(s.real), round(s.imag)))
                  for case, rank, s in blocks)


SWEEP = [pytest.param(case, rank, index, scale, id=f"case{case}-rank{rank}-scale{scale}")
         for case, ranks in RANKS.items() for rank in ranks
         for index, scale in enumerate(SCALES)]


@pytest.mark.parametrize("case,rank,index,scale", SWEEP)
def test_planted_block_recovered(case, rank, index, scale):
    specs = _planted(case, rank, index)
    m, _ = seeded_matrix(specs, np.random.default_rng([case, rank, index]), scale)
    rep = normal_form(m)
    want = _shape((c, d, s) for c, _, d, s in specs)
    assert _shape((b.case, b.rank, b.sigma) for b in rep.blocks) == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_spectrum_recovered(seed):
    specs, rng, scale = _dense(seed)
    m, _ = seeded_matrix(specs, rng, scale)
    rep = normal_form(m)
    assert _shape((b.case, b.rank, b.sigma) for b in rep.blocks) == \
        _shape((c, d, s) for c, _, d, s in specs)
