import numpy as np
import pytest

import randtest._batch as _batch
import randtest.permlm as permlm
from randtest import Dataset


def gen(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_dataset(seed, n=40, j=3, tau=0.0, noise=1.0) -> Dataset:
    """Complete-randomization dataset with a linear signal in x."""
    rng = gen(seed)
    x = rng.normal(size=(n, j))
    z = np.zeros(n, dtype=np.int64)
    z[rng.permutation(n)[: n // 2]] = 1
    y = x @ np.arange(1, j + 1, dtype=np.float64) + tau * z + noise * rng.normal(size=n)
    return Dataset(y, z, x)


@pytest.fixture
def small_data():
    # z = (1,1,0,0), y = (0,2,1,3): tau = -1, robust se = 1 by hand
    return Dataset(
        np.array([0.0, 2.0, 1.0, 3.0]),
        np.array([1, 1, 0, 0]),
        np.array([[0.0], [1.0], [0.0], [1.0]]),
    )


@pytest.fixture
def small_blocks(monkeypatch):
    """`small_blocks(elements)` caps the assignment entries per evaluation
    block, and the permuted values per block of permlm replicates, at
    `elements`: rows of N units then run in blocks of elements // N rows."""

    def shrink(elements):
        monkeypatch.setattr(_batch, "_ROW_ELEMENTS", elements)
        monkeypatch.setattr(permlm, "_BLOCK_ELEMENTS", elements)

    return shrink
