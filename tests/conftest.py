import numpy as np
import pytest

import medrec.optimizer as optimizer
from medrec.grid import (BoundaryData, FluxField, ScalarField, StaggeredGrid)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid16():
    return StaggeredGrid(16)


@pytest.fixture
def singular_factor(monkeypatch):
    """Every state-block factorization hits a zero pivot."""
    def fail(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(optimizer, "splu", fail)


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal((grid.n, grid.n)))


def random_admissible_flux(grid, rng):
    n = grid.n
    raw = FluxField(grid, rng.standard_normal((n + 1, n)),
                    rng.standard_normal((n, n + 1)))
    return raw.projected_admissible()


def random_boundary(grid, rng):
    return BoundaryData(grid, rng.standard_normal(4 * grid.n))
