import numpy as np
import pytest

from medrec.dsm import compute_index, homogeneous_reference, scattered_data
from medrec.estimators import (DirectSamplingLocator,
                               TotalLeastSquaresReconstructor,
                               TwoStageReconstructor, check_measurements)
from medrec.forward import default_excitations, generate_measurements
from medrec.grid import StaggeredGrid
from medrec.experiments import BOX_HI, BOX_LO, make_example


@pytest.fixture(scope="module")
def ex1_measurements():
    grid = StaggeredGrid(24)
    truth = make_example("ex1").rasterize(grid)
    excitations = default_excitations(grid, 1)
    return generate_measurements(truth.sigma, truth.mu, excitations,
                                 oversample=2), truth


def test_check_measurements_validation(ex1_measurements):
    sets, _ = ex1_measurements
    assert check_measurements(sets[0]) == [sets[0]]
    with pytest.raises(ValueError):
        check_measurements([])
    with pytest.raises(TypeError):
        check_measurements([object()])
    other = StaggeredGrid(12)
    truth = make_example("ex1").rasterize(other)
    mixed = sets + generate_measurements(truth.sigma, truth.mu,
                                         default_excitations(other, 1), 1)
    with pytest.raises(ValueError):
        check_measurements(mixed)


def test_get_set_params_round_trip():
    loc = DirectSamplingLocator(theta=0.6, oversample=1)
    params = loc.get_params()
    assert params["theta"] == 0.6
    assert params["oversample"] == 1
    loc.set_params(theta=0.7)
    assert loc.theta == 0.7
    with pytest.raises(ValueError):
        loc.set_params(bogus=1)

    rec = TotalLeastSquaresReconstructor(alpha_sigma=0.123)
    assert rec.get_params()["alpha_sigma"] == 0.123


def test_locator_fit_and_transform(ex1_measurements):
    sets, _ = ex1_measurements
    loc = DirectSamplingLocator().fit(sets)
    assert loc.index_sigma_.values.shape == (24, 24)
    assert 0.0 <= loc.index_sigma_.values.min()
    assert loc.initial_sigma_.values.min() >= BOX_LO
    assert loc.initial_sigma_.values.max() <= BOX_HI
    pair = loc.transform(sets)
    assert np.array_equal(pair.sigma.values, loc.initial_sigma_.values)


def test_locator_probes_its_own_backgrounds(ex1_measurements):
    sets, _ = ex1_measurements
    grid = sets[0].grid
    loc = DirectSamplingLocator(background_sigma=2.0, background_mu=0.5).fit(sets)
    reference = homogeneous_reference(2.0, 0.5, [m.h for m in sets])
    index = compute_index(scattered_data(sets, reference), 2.0, 0.5)
    assert np.array_equal(loc.index_sigma_.values, index.phi_sigma.values)
    assert np.array_equal(loc.index_mu_.values, index.phi_mu.values)


def test_reconstructor_runs_and_predicts(ex1_measurements):
    sets, truth = ex1_measurements
    rec = TotalLeastSquaresReconstructor(max_outer=3)
    with pytest.raises(RuntimeError):
        rec.predict()
    rec.fit(sets)
    out = rec.predict()
    assert out.sigma.values.shape == (24, 24)
    j = rec.report_.j_history
    assert np.all(np.diff(j) <= 1e-10 * (1 + j[0]))


def test_two_stage_pipeline(ex1_measurements):
    sets, truth = ex1_measurements
    est = TwoStageReconstructor(
        reconstructor=TotalLeastSquaresReconstructor(max_outer=4))
    est.fit(sets)
    assert hasattr(est, "sigma_") and hasattr(est, "report_")
    pair = est.predict()
    assert pair.sigma.grid.n == 24
    assert est.report_.iterations == 4
