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


@pytest.fixture
def singular_coefficient_factor(monkeypatch):
    """Every coefficient-block factorization hits a zero pivot."""
    def fail(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(optimizer, "factor_spd", fail)


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal((grid.n, grid.n)))


def random_admissible_flux(grid, rng):
    n = grid.n
    return FluxField(grid, rng.standard_normal((n - 1, n)),
                     rng.standard_normal((n, n - 1)))


def random_boundary(grid, rng):
    return BoundaryData(grid, rng.standard_normal(4 * grid.n))


def draw_coefficients(n, rng, piecewise):
    """(sigma, mu) as (n, n) arrays in the box [0.5, 30].

    Uniform draws, or a piecewise constant sigma = mu (a background and
    one rectangle), where every face inside a piece has a face mean of
    sigma exactly equal to mu on both of its cells.
    """
    if not piecewise:
        return 0.5 + 29.5 * rng.random((n, n)), 0.5 + 29.5 * rng.random((n, n))
    sigma = np.full((n, n), 0.5 + 29.5 * rng.random())
    i0, j0 = rng.integers(0, n - 1, size=2)
    i1, j1 = rng.integers(i0 + 1, n + 1), rng.integers(j0 + 1, n + 1)
    sigma[i0:i1, j0:j1] = 0.5 + 29.5 * rng.random()
    return sigma, sigma.copy()


def assert_matrix_close(actual, reference, rtol=1e-13):
    """Same shape, entries within rtol of the reference's largest entry."""
    assert actual.shape == reference.shape
    assert abs(actual - reference).max() <= rtol * abs(reference).max()
