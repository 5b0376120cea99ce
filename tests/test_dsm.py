import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

import medrec.dsm as dsm
import medrec.operators as operators
import medrec.optimizer as optimizer
from medrec.cli import main
from medrec.dsm import (EmptyDataError, IndexResult, SubdomainMask,
                        argmax_location, build_initial_guess, compute_index,
                        homogeneous_reference, scattered_data,
                        threshold_subdomain)
from medrec.forward import default_excitations, generate_measurements
from medrec.grid import BoundaryData, ScalarField, StaggeredGrid
from medrec.experiments import (SquareInclusion, ExampleSpec, deserialize_field,
                                make_example)
from medrec.operators import diffusion_matrix, grid_operators


def pipeline_delta(spec, grid, oversample=2):
    truth = spec.rasterize(grid)
    excitations = default_excitations(grid, spec.excitation_count)
    sets = generate_measurements(truth.sigma, truth.mu, excitations,
                                 oversample=oversample)
    reference = homogeneous_reference(1.0, 1.0, excitations, oversample=oversample)
    return scattered_data(sets, reference)


def test_background_media_scatter_nothing():
    grid = StaggeredGrid(16)
    spec = ExampleSpec(name="bg")
    delta = pipeline_delta(spec, grid)
    scale = np.abs(default_excitations(grid, 1)[0].values).max()
    assert np.abs(delta[0].values).max() <= 1e-7 * scale


def test_inclusions_scatter_and_contrast_monotonicity():
    grid = StaggeredGrid(24)
    lo = ExampleSpec(name="lo", sigma_inclusions=(
        SquareInclusion((0.4, 0.6), 0.15, 5.0),))
    hi = ExampleSpec(name="hi", sigma_inclusions=(
        SquareInclusion((0.4, 0.6), 0.15, 10.0),))
    d_lo = pipeline_delta(lo, grid)[0]
    d_hi = pipeline_delta(hi, grid)[0]
    assert np.abs(d_lo.values).max() > 0
    assert np.linalg.norm(d_hi.values) >= np.linalg.norm(d_lo.values)


def test_nonpositive_background_rejected():
    # the background operator must be SPD: its DCT solve divides by its
    # eigenvalues
    grid = StaggeredGrid(16)
    delta = [BoundaryData(grid, np.ones(4 * 16))]
    for bg in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="positive"):
            compute_index(delta, *bg)


def test_sampling_stage_factors_nothing(monkeypatch):
    # The background is constant, so the reference traces and every probe
    # solve are DCTs: past generate, no module of the package runs a
    # sparse factorization.
    grid = StaggeredGrid(24)
    truth = make_example("ex1").rasterize(grid)
    excitations = default_excitations(grid, 1)
    sets = generate_measurements(truth.sigma, truth.mu, excitations)

    def refuse(*args, **kwargs):
        raise AssertionError("sparse factorization in the sampling stage")
    for module in (dsm, operators, optimizer):
        monkeypatch.setattr(module, "splu", refuse)
    reference = homogeneous_reference(1.0, 1.0, excitations)
    result = compute_index(scattered_data(sets, reference))
    assert result.atoms[0]
    probes = dsm._ProbeFamily(grid, 1.0, 1.0)
    assert isinstance(probes.background, operators.ConstantDiffusionSolver)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=40),
       sigma=st.floats(min_value=0.1, max_value=30.0),
       mu=st.floats(min_value=0.1, max_value=30.0))
def test_symmetric_probe_family_matches_full_solve(n, sigma, mu):
    # The family keeps no (n^2, 4n) block; check every row it hands out,
    # its norms and its pairings against the block of all 4n solves.
    probes = dsm._ProbeFamily(StaggeredGrid(n), sigma, mu)
    operator = diffusion_matrix(np.full((n, n), sigma), np.full((n, n), mu))
    green = splu(operator).solve(grid_operators(n).source.toarray())  # every face
    stacked = green.reshape(n, n, 4 * n)
    mono = green
    dip_x = np.gradient(stacked, 1.0 / n, axis=0).reshape(n * n, 4 * n)
    dip_y = np.gradient(stacked, 1.0 / n, axis=1).reshape(n * n, 4 * n)
    cells = range(n * n)
    dips = [probes.columns([("d", c)])[0] for c in cells]  # (4n, 2) bases
    rows = {
        "mono": (np.array([probes.columns([("m", c)])[0][:, 0] for c in cells]), mono),
        "dip_x": (np.array([d[:, 0] for d in dips]), dip_x),
        "dip_y": (np.array([d[:, 1] for d in dips]), dip_y),
    }
    norms = {"_mm": (mono * mono).sum(axis=1), "_xx": (dip_x * dip_x).sum(axis=1),
             "_yy": (dip_y * dip_y).sum(axis=1), "_xy": (dip_x * dip_y).sum(axis=1)}
    r = np.random.default_rng(n).standard_normal(4 * n)
    pm, px, py = mono @ r, dip_x @ r, dip_y @ r
    mm, xx, yy, xy = (norms[k] for k in ("_mm", "_xx", "_yy", "_xy"))
    r_norm = np.linalg.norm(r)
    pairings = {
        "gains": (pm ** 2 / mm,
                  (yy * px * px - 2 * xy * px * py + xx * py * py)
                  / np.maximum(xx * yy - xy ** 2, 1e-300)),
        "pairings": (np.abs(pm) / (r_norm * np.sqrt(mm)),
                     np.maximum(np.abs(px) / (r_norm * np.sqrt(xx)),
                                np.abs(py) / (r_norm * np.sqrt(yy)))),
    }
    for refs in pairings.values():
        for ref in refs:
            ref[~probes.interior] = 0.0
    # Both sides are backward-stable solves, so they agree to about
    # kappa * eps; kappa <= 1 + 8 sigma n^2 / mu bounds the operator's
    # condition number (Gershgorin).  Measured over 150 draws with
    # sigma/mu >= 3: rows at most 0.29 kappa * eps, their squared norms
    # 0.59 (squaring doubles a relative error), pairings 0.14.
    kappa = 1.0 + 8.0 * sigma * n * n / mu
    rtol = 1e-12 + kappa * np.finfo(float).eps
    checks = [(name, got, ref) for name, (got, ref) in rows.items()]
    checks += [(name, getattr(probes, name), ref) for name, ref in norms.items()]
    checks += [(f"{name} {family}", got, ref)
               for name, refs in pairings.items()
               for family, got, ref in zip(("mono", "dip"), getattr(probes, name)(r), refs)]
    for name, got, ref in checks:
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=rtol * np.abs(ref).max(), err_msg=name)


def test_compute_index_memory_stays_cubic_in_n():
    # The probe family keeps one (n, n, n) block; the former dense family
    # of three (n^2, 4n) arrays peaked at 16.7 n^3 doubles here.
    n = 64
    grid = StaggeredGrid(n)
    v = np.random.default_rng(0).standard_normal(4 * n)
    tracemalloc.start()
    try:
        compute_index([BoundaryData(grid, v)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n ** 3


def lstsq_residual(probes, v, picks):
    # the fit the window scores stand for: one lstsq over every column
    basis = probes.columns(picks)[0]
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    r = v - basis @ coef
    return float(r @ r)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=12, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_window_scores_match_per_candidate_lstsq(n, seed):
    # Every case of a window move: random picks of both kinds, a window
    # clipped by the sampling margin, and a candidate on a kept atom's own
    # cell (the rank-deficient fit, which must score as the fit without it).
    rng = np.random.default_rng(seed)
    probes = dsm._ProbeFamily(StaggeredGrid(n), 1.0, 1.0)
    inside = np.flatnonzero(probes.interior)
    kinds = ["m", "d"]
    block = [0, 1, n, n + 1]  # a 2x2 block of cells, from its first
    firsts = inside[probes.interior[np.add.outer(inside, block)].all(axis=1)]
    picks = [(kinds[rng.integers(2)], int(c))
             for c in rng.choice(firsts, size=rng.integers(1, 4), replace=False)]
    basis = probes.columns(picks)[0]
    v = basis @ rng.standard_normal(basis.shape[1])
    v += 0.1 * np.linalg.norm(v) / np.sqrt(4 * n) * rng.standard_normal(4 * n)
    corner = int(inside[0])  # the window of the first sampling cell is clipped
    moves = [(picks[1:], picks[0][0], picks[0][1]),
             (picks, kinds[rng.integers(2)], corner)]
    moves += [(picks, kind, cell) for kind, cell in picks]  # repeats
    # kept atoms that fill a 2x2 block (singular values down to 1e-4 of the
    # largest) and repeat one: the fit drops what lstsq drops, only that.
    # Next to the block, the discrete PDE puts some candidates inside its
    # span to rounding, through large weights.
    kind, cell = picks[0]
    moves.append((picks + [(kind, cell + k) for k in block],
                  kinds[rng.integers(2)], cell + n + 1))
    w = dsm.REFINE_WINDOW
    for others, kind, centre in moves:
        cells = dsm._window_cells(probes, centre)
        ci, cj = divmod(centre, n)
        loop = [(ci + di) * n + cj + dj  # the order of a per-candidate loop
                for di in range(-w, w + 1) for dj in range(-w, w + 1)
                if 0 <= ci + di < n and 0 <= cj + dj < n
                and probes.interior[(ci + di) * n + cj + dj]]
        assert list(cells) == loop and loop
        if centre == corner:
            assert len(cells) < (2 * w + 1) ** 2
        rows = probes.gather(kind, cells)
        for c, row in zip(cells, rows):  # a batched read, bit for bit
            assert np.array_equal(row, probes.gather(kind, np.array([c]))[0])
        got = probes.window_residuals(v, others, kind, cells)
        want = [lstsq_residual(probes, v, others + [(kind, int(c))])
                for c in cells]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * (v @ v))
        if (kind, centre) in others:
            k = list(cells).index(centre)
            np.testing.assert_allclose(got[k], lstsq_residual(probes, v, others),
                                       rtol=0, atol=1e-10 * (v @ v))


# Atoms of the greedy fit (kind, cell i, cell j) per excitation, as the
# per-candidate lstsq refinement picked them; the batched scorer must keep
# every pick.
FITTED_ATOMS = {
    ("ex1", 32): [[("m", 11, 10), ("d", 8, 21)]],
    ("ex1", 50): [[("m", 17, 15), ("d", 12, 32)]],
    ("ex1", 80): [[("m", 28, 25), ("d", 21, 52)]],
    ("ex2_1", 50): [[("d", 7, 24), ("d", 25, 42)]],
    ("ex2_2", 50): [[("d", 24, 24)]],
    ("ex3", 50): [[("m", 13, 25)]],
    ("ex4", 50): [[("d", 24, 29)], [("d", 25, 30)]],
}


@pytest.mark.parametrize("example,n", list(FITTED_ATOMS))
def test_fitted_atoms_are_pinned(example, n, monkeypatch):
    lstsq_calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: lstsq_calls.append(1) or lstsq(*a, **k))
    grid = StaggeredGrid(n)
    atoms = compute_index(pipeline_delta(make_example(example), grid)).atoms
    got = [[(a.kind, round(a.centre[0] / grid.h - 0.5),
             round(a.centre[1] / grid.h - 0.5)) for a in per] for per in atoms]
    assert got == FITTED_ATOMS[example, n]
    # only the greedy step, the prune and the final fit solve by lstsq
    assert len(lstsq_calls) <= 10 * len(atoms)


def test_strongest_chooses_the_family(monkeypatch):
    # the one rule that picks an atom's family: the larger maximal gain,
    # the dipole on a tie, among the families allowed
    probes = dsm._ProbeFamily(StaggeredGrid(8), 1.0, 1.0)
    r = np.ones(32)

    def strongest(mono, dip, *kinds):
        monkeypatch.setattr(probes, "gains", lambda v: (np.array(mono), np.array(dip)))
        return dsm._strongest(probes, r, *kinds)

    assert strongest([0.0, 3.0, 1.0], [3.0, 0.0, 2.0]) == ("d", 0, 3.0)
    assert strongest([0.0, 3.0, 1.0], [2.0, 0.0, 2.9]) == ("m", 1, 3.0)
    assert strongest([0.5, 1.0], [9.0, 0.0], "m") == ("m", 1, 1.0)
    assert strongest([9.0, 0.5], [0.0, 1.0], "d") == ("d", 1, 1.0)


def test_mixed_grids_rejected():
    rng = np.random.default_rng(0)
    delta = [BoundaryData(StaggeredGrid(16), rng.standard_normal(64)),
             BoundaryData(StaggeredGrid(20), rng.standard_normal(80))]
    with pytest.raises(ValueError, match="n=16 and n=20"):
        compute_index(delta)


def test_zero_scatter_rejected():
    grid = StaggeredGrid(16)
    with pytest.raises(EmptyDataError):
        compute_index([])
    with pytest.raises(EmptyDataError):
        compute_index([BoundaryData.zeros(grid)])


def test_single_inclusion_localization():
    grid = StaggeredGrid(50)
    mu_spec = ExampleSpec(name="m", mu_inclusions=(
        SquareInclusion((0.35, 0.30), 0.05, 20.0),))
    idx = compute_index(pipeline_delta(mu_spec, grid))
    ax, ay = argmax_location(idx.phi_mu)
    assert np.hypot(ax - 0.35, ay - 0.30) <= 0.15
    assert idx.phi_sigma.values.max() == 0.0  # no diffusion contrast present
    assert idx.phi_mu.values.max() == pytest.approx(1.0)

    sig_spec = ExampleSpec(name="s", sigma_inclusions=(
        SquareInclusion((0.25, 0.65), 0.05, 20.0),))
    idx = compute_index(pipeline_delta(sig_spec, grid))
    ax, ay = argmax_location(idx.phi_sigma)
    assert np.hypot(ax - 0.25, ay - 0.65) <= 0.15
    assert idx.phi_mu.values.max() == 0.0


def test_example1_argmax_localization():
    grid = StaggeredGrid(50)
    idx = compute_index(pipeline_delta(make_example("ex1"), grid))
    sx, sy = argmax_location(idx.phi_sigma)
    mx, my = argmax_location(idx.phi_mu)
    assert np.hypot(sx - 0.25, sy - 0.65) <= 0.15
    assert np.hypot(mx - 0.35, my - 0.30) <= 0.15
    assert 0.0 <= idx.phi_sigma.values.min()
    assert idx.phi_sigma.values.max() == pytest.approx(1.0)


def test_default_cutoff_sits_inside_recommended_range():
    assert dsm.DEFAULT_THETA == 0.55
    assert 0.4 < dsm.DEFAULT_THETA < 0.7


def test_threshold_monotone_and_range():
    grid = StaggeredGrid(16)
    rng = np.random.default_rng(7)
    phi = ScalarField(grid, rng.random((16, 16)))
    with pytest.raises(ValueError):
        threshold_subdomain(phi, 0.0)
    with pytest.raises(ValueError):
        threshold_subdomain(phi, 1.0)
    m1 = threshold_subdomain(phi, 0.4)
    m2 = threshold_subdomain(phi, 0.7)
    assert np.all(m1.mask[m2.mask])  # mask(0.7) subset of mask(0.4)
    full = threshold_subdomain(ScalarField.constant(grid, 1.0), 0.55)
    assert full.mask.all()


def test_empty_mask_warns(tmp_path, capsys):
    # The sampling stage warns when the mask of a coefficient that stage
    # two reconstructs comes out empty: ex1's sigma mask at n=16.
    out = tmp_path / "ex1"
    common = ["--example", "ex1", "--grid", "16", "--out", str(out)]
    assert main(["generate", *common]) == 0
    capsys.readouterr()
    assert main(["dsm", *common]) == 0
    assert re.search("subdomain is empty for sigma", capsys.readouterr().err)
    assert not deserialize_field(out / "mask_sigma.field").values.any()


def test_empty_mask_of_a_known_coefficient_is_silent(tmp_path, capsys):
    # ex4 does not reconstruct mu, so its empty mu mask is no news.
    out = tmp_path / "ex4"
    common = ["--example", "ex4", "--grid", "24", "--out", str(out)]
    assert main(["generate", *common]) == 0
    capsys.readouterr()
    assert main(["dsm", *common]) == 0
    assert "warning:" not in capsys.readouterr().err
    assert not deserialize_field(out / "mask_mu.field").values.any()


def test_build_initial_guess():
    grid = StaggeredGrid(16)
    phi = ScalarField.zeros(grid)
    phi.values[4, 5] = 1.0
    mask = SubdomainMask(grid, phi.values >= 0.5)
    guess = build_initial_guess(phi, mask, 20.0, 1.0)
    assert guess.values[4, 5] == 20.0
    other = guess.values.copy()
    other[4, 5] = 1.0
    assert np.all(other == 1.0)

    empty = SubdomainMask(grid, np.zeros((16, 16), bool))
    bg = build_initial_guess(phi, empty, 20.0, 1.0)
    assert np.all(bg.values == 1.0)
    with pytest.raises(ValueError):
        build_initial_guess(phi, mask, -1.0, 1.0)


def _reflect_scalar(values):
    return values[::-1, :]


def _reflect_boundary(bd):
    n = bd.grid.n
    bottom, right, top, left = bd.sides()
    return BoundaryData.from_sides(bd.grid, bottom[::-1], left, top[::-1], right)


def test_reflection_equivariance():
    # mirroring the medium across x = 1/2 mirrors both index fields
    grid = StaggeredGrid(32)
    spec = ExampleSpec(name="asym",
                       sigma_inclusions=(SquareInclusion((0.3, 0.6), 0.12, 20.0),),
                       mu_inclusions=(SquareInclusion((0.4, 0.3), 0.12, 20.0),))
    mirrored = ExampleSpec(name="asym_m",
                           sigma_inclusions=(SquareInclusion((0.7, 0.6), 0.12, 20.0),),
                           mu_inclusions=(SquareInclusion((0.6, 0.3), 0.12, 20.0),))

    def run(s, excitation):
        truth = s.rasterize(grid)
        sets = generate_measurements(truth.sigma, truth.mu, [excitation], oversample=2)
        ref = homogeneous_reference(1.0, 1.0, [excitation], oversample=2)
        return compute_index(scattered_data(sets, ref))

    exc = default_excitations(grid, 1)[0]
    idx = run(spec, exc)
    idx_m = run(mirrored, _reflect_boundary(exc))
    # the greedy fit breaks exact equivariance at argmax ties, so the
    # property holds at the cell scale rather than to rounding
    for a, am in ((idx.phi_sigma, idx_m.phi_sigma), (idx.phi_mu, idx_m.phi_mu)):
        ax, ay = argmax_location(a)
        bx, by = argmax_location(am)
        assert np.hypot(ax - (1.0 - bx), ay - by) <= 2.5 * grid.h
