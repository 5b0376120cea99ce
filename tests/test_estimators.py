import math
from pathlib import Path

import numpy as np
import pytest

from medrec.dsm import compute_index, homogeneous_reference, scattered_data
from medrec.estimators import (DirectSamplingLocator,
                               TotalLeastSquaresReconstructor, check_measurements)
from medrec.forward import default_excitations, generate_measurements
from medrec.grid import StaggeredGrid
from medrec.experiments import BOX_HI, BOX_LO, compute_metrics, make_example
from medrec.optimizer import bregman_diagnostics


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


def test_readme_library_snippet_runs():
    # The README's Library section, run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    snippet = snippet.split("```", 1)[0]
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert bregman_diagnostics(namespace["report"]).certificate_holds()
    metrics = compute_metrics(namespace["recovered"], namespace["truth"])
    for coefficient in (metrics.sigma, metrics.mu):
        assert math.isfinite(coefficient.relative_l2_error)
        assert all(math.isfinite(e) for e in coefficient.center_of_mass_errors)


def test_package_exports_the_two_stage_workflow():
    import medrec
    public = {name for name in vars(medrec)
              if not name.startswith("_") and not isinstance(
                  getattr(medrec, name), type(medrec))}
    assert public == {
        "StaggeredGrid", "make_example", "default_excitations",
        "generate_measurements", "DirectSamplingLocator",
        "TotalLeastSquaresReconstructor", "CoefficientPair", "compute_metrics",
        "bregman_diagnostics", "deserialize_field", "RingInclusion"}
    assert medrec.__version__
