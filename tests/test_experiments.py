import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from medrec.cli import main
from medrec.experiments import (FieldFormatError, RingInclusion,
                                SquareInclusion, add_noise,
                                background_deviation, compute_metrics,
                                deserialize_field, example_names, make_example,
                                render_pgm, serialize_field)
from medrec.grid import BoundaryData, GridError, ScalarField, StaggeredGrid
from medrec.model import CoefficientPair


def test_example_geometries():
    ex1 = make_example("ex1")
    assert ex1.sigma_inclusions[0].center == (0.25, 0.65)
    assert ex1.sigma_inclusions[0].width == 0.05
    assert ex1.mu_inclusions[0].center == (0.35, 0.30)
    assert ex1.sigma_inclusions[0].value == 20.0
    assert ex1.excitation_count == 1
    assert ex1.reconstruct_mu

    ex22 = make_example("ex2_2")
    centers = {s.center for s in ex22.sigma_inclusions}
    assert centers == {(0.45, 0.425), (0.55, 0.575)}
    assert all(s.width == 0.1 for s in ex22.sigma_inclusions)
    assert not ex22.reconstruct_mu

    ex4 = make_example("ex4")
    ring = ex4.sigma_inclusions[0]
    assert isinstance(ring, RingInclusion)
    assert (ring.outer_width, ring.inner_width) == (0.2, 0.15)
    assert ring.center == (0.5, 0.6)
    assert ex4.excitation_count == 2

    with pytest.raises(ValueError):
        make_example("ex9")
    assert "ex1" in example_names()


def test_table_parameters_per_noise_column():
    ex1 = make_example("ex1")
    assert ex1.regularization_params(noisy=False) == (1e-2, 2e-2, 5e-4, 5e-4)
    assert ex1.regularization_params(noisy=True) == (1e-2, 2e-2, 5e-4, 1e-3)
    assert make_example("ex2_1").regularization_params(False)[:2] == (1e-3, 5e-3)
    assert make_example("ex3").regularization_params(True)[:2] == (1e-3, 2e-2)


def test_rasterization_scales_with_grid():
    spec = make_example("ex1")
    coarse = spec.rasterize(StaggeredGrid(20))
    fine = spec.rasterize(StaggeredGrid(40))
    # cell-center membership: the coarse pattern embeds in the fine one
    blown = np.repeat(np.repeat(coarse.sigma.values, 2, axis=0), 2, axis=1)
    inside_coarse = blown == 20.0
    inside_fine = fine.sigma.values == 20.0
    assert inside_fine[inside_coarse].all() or inside_coarse[inside_fine].all()
    assert fine.sigma.values.max() == 20.0
    assert fine.mu.values.max() == 20.0


def test_ring_rasterization_has_hole():
    grid = StaggeredGrid(40)
    truth = make_example("ex4").rasterize(grid)
    vals = truth.sigma.values
    # center cell of the ring stays at background
    i = int(0.5 * 40)
    j = int(0.6 * 40)
    assert vals[i, j] == 1.0
    assert vals.max() == 20.0


def test_add_noise_zero_is_identity():
    grid = StaggeredGrid(16)
    rng = np.random.default_rng(0)
    f = BoundaryData(grid, rng.standard_normal(64))
    out = add_noise(f, 0.0, seed=1)
    assert np.array_equal(out.values, f.values)
    with pytest.raises(ValueError):
        add_noise(f, -0.1, 0)


def test_add_noise_statistics_and_reproducibility():
    # one large boundary vector gives 10^5+ samples for the std check
    grid = StaggeredGrid(25000)
    f = BoundaryData(grid, np.full(4 * grid.n, 2.0))
    eps = 0.1
    noisy = add_noise(f, eps, seed=42)
    delta = noisy.values - f.values
    assert abs(delta.std() - eps * 2.0) <= 0.02 * eps * 2.0
    again = add_noise(f, eps, seed=42)
    assert np.array_equal(noisy.values, again.values)
    other = add_noise(f, eps, seed=43)
    corr = np.corrcoef(delta[:10000], (other.values - f.values)[:10000])[0, 1]
    assert abs(corr) < 0.05


def test_metrics_identity_and_background():
    grid = StaggeredGrid(40)
    truth = make_example("ex1").rasterize(grid)
    met = compute_metrics(truth, truth)
    assert met.sigma.relative_l2_error == 0.0
    assert met.sigma.support_jaccard == 1.0
    assert all(e < 1e-12 for e in met.sigma.center_of_mass_errors)

    bg = CoefficientPair(ScalarField.constant(grid, 1.0),
                         ScalarField.constant(grid, 1.0))
    met = compute_metrics(bg, truth)
    assert met.sigma.support_jaccard == 0.0
    diff = truth.sigma.values - 1.0
    expected = np.linalg.norm(diff) / np.linalg.norm(truth.sigma.values)
    assert met.sigma.relative_l2_error == pytest.approx(expected, rel=1e-12)
    assert all(math.isinf(e) for e in met.sigma.center_of_mass_errors)


def test_metrics_uniform_shift():
    grid = StaggeredGrid(30)
    truth = make_example("ex1").rasterize(grid)
    delta = 0.05
    shifted = CoefficientPair(
        ScalarField(grid, truth.sigma.values + delta),
        ScalarField(grid, truth.mu.values + delta))
    met = compute_metrics(shifted, truth)
    expected = delta * grid.n / np.linalg.norm(truth.sigma.values)
    assert met.sigma.relative_l2_error == pytest.approx(expected, rel=1e-10)
    assert met.sigma.support_jaccard == 1.0


def test_background_deviation():
    grid = StaggeredGrid(30)
    truth = make_example("ex1").rasterize(grid)
    rec = ScalarField(grid, truth.sigma.values.copy())
    assert background_deviation(rec, truth.sigma) == 0.0
    vals = truth.sigma.values.copy()
    vals[0, 0] = 1.2  # far from the inclusion
    assert background_deviation(ScalarField(grid, vals), truth.sigma) == pytest.approx(0.2)


# Signed zeros, the smallest and largest subnormals, the extremes of the
# finite range: a text or float32 round trip would change some of them.
_SPECIAL_DOUBLES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                    1.7976931348623157e308, -1.7976931348623157e308)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=4, max_value=40), scalar=st.booleans(),
       data=st.data())
def test_field_serialization_round_trip(tmp_path_factory, n, scalar, data):
    shape = (n, n) if scalar else (4 * n,)
    values = data.draw(arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    values.flat[:len(_SPECIAL_DOUBLES)] = _SPECIAL_DOUBLES
    grid = StaggeredGrid(n)
    field = ScalarField(grid, values) if scalar else BoundaryData(grid, values)
    path = tmp_path_factory.mktemp("round_trip") / "field.field"
    serialize_field(field, path)
    back = deserialize_field(path)
    assert type(back) is type(field) and back.grid == grid
    # bytes, not values: array_equal cannot see a lost sign of zero
    assert back.values.tobytes() == field.values.tobytes()


def test_field_file_layout(tmp_path):
    grid = StaggeredGrid(4)
    values = np.arange(16.0).reshape(4, 4)
    path = tmp_path / "f.field"
    serialize_field(ScalarField(grid, values), path)
    header = b"medrec-field 2\nkind scalar\nn 4\n"
    raw = path.read_bytes()
    assert raw == header + values.astype("<f8").tobytes()
    # readable without medrec: the README's Output files snippet, as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Output files", 1)[1].split("```python\n", 1)[1]
    namespace = {"path": path}
    exec(compile(snippet.split("```", 1)[0], "README.md", "exec"), namespace)
    assert namespace["values"].tobytes() == values.tobytes()


def test_noisy_round_trip_bit_exact(tmp_path):
    grid = StaggeredGrid(16)
    f = BoundaryData(grid, np.linspace(-1, 1, 64))
    noisy = add_noise(f, 0.2, seed=7)
    path = tmp_path / "noisy.field"
    serialize_field(noisy, path)
    assert np.array_equal(deserialize_field(path).values, noisy.values)


def _v2(kind, n, payload):
    return f"medrec-field 2\nkind {kind}\nn {n}\n".encode("ascii") + payload


_V1_TEXT = b"medrec-field 1\nkind scalar\nn 4\n" + b"1.0 2.0 3.0 4.0\n" * 4


def test_deserialize_errors(tmp_path):
    cases = [
        (_V1_TEXT, "line 1: expected header 'medrec-field 2'"),
        (b"not-a-field 2\nkind scalar\nn 4\n" + bytes(128),
         "line 1: expected header 'medrec-field 2'"),
        (b"", "line 1: expected header"),
        (b"medrec-field 2\nkind scalar", "line 2: truncated header"),
        (_v2("vector", 4, bytes(128)), "line 2: expected 'kind scalar'"),
        (_v2("scalar", "4.0", bytes(128)), "line 3: expected 'n <integer >= 4>'"),
        (_v2("scalar", "four", bytes(128)), "line 3: expected 'n <integer >= 4>'"),
        (_v2("scalar", 3, bytes(72)), "line 3: expected 'n <integer >= 4>'"),
        (b"medrec-field 2\nkind scalar\nn 4", "line 3: truncated header"),
        (_v2("scalar", 4, bytes(120)),
         "expected 16 float64 values (128 bytes) after the header, found 120"),
        (_v2("boundary", 4, bytes(129)),
         "expected 16 float64 values (128 bytes) after the header, found 129"),
    ]
    p = tmp_path / "bad.field"
    for raw, message in cases:
        p.write_bytes(raw)
        with pytest.raises(FieldFormatError) as err:
            deserialize_field(p)
        assert str(err.value).startswith(f"{p}: ")
        assert message in str(err.value)
    # the header is sound, so the values reach the field, which refuses them
    nan_payload = np.ones(16)
    nan_payload[5] = np.nan
    p.write_bytes(_v2("scalar", 4, nan_payload.astype("<f8").tobytes()))
    with pytest.raises(GridError, match="non-finite") as err:
        deserialize_field(p)
    assert str(err.value).startswith(f"{p}: ")
    # and the CLI reports a bad field file as a configuration error
    p.write_bytes(_V1_TEXT)
    assert main(["render", "--out", str(tmp_path)]) == 2


def test_render_pgm(tmp_path):
    grid = StaggeredGrid(8)
    path = tmp_path / "img.pgm"
    render_pgm(ScalarField.constant(grid, 3.0), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n65535\n")
    pixels = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
    assert pixels.size == 64
    assert len(set(pixels.tolist())) == 1  # constant field renders uniform

    ramp = ScalarField.from_function(grid, lambda x, y: x)
    render_pgm(ramp, path)
    pixels = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert pixels.min() == 0 and pixels.max() == 65535
