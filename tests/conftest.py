import tracemalloc

import numpy as np
import pytest

from phasespace import Grid, random_mixture, vacuum_state, wigner

ENSEMBLE_SEED = 101


@pytest.fixture(scope="session")
def grid():
    return Grid(2, 256, 12.0)


@pytest.fixture(scope="session")
def vacuum():
    return vacuum_state(1)


@pytest.fixture(scope="session")
def vacuum_wigner(vacuum, grid):
    return wigner(vacuum, grid)


@pytest.fixture(scope="session")
def mixtures20():
    rng = np.random.default_rng(ENSEMBLE_SEED)
    return [random_mixture(rng) for _ in range(20)]


@pytest.fixture(scope="session")
def mixture(mixtures20):
    return mixtures20[0]


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn, *args, **kw): peak bytes tracemalloc traces while
    fn(*args, **kw) runs."""

    def peak(fn, *args, **kw):
        tracemalloc.start()
        try:
            fn(*args, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
