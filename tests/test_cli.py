import argparse

import numpy as np
import pytest

import medrec.forward as forward
from medrec.cli import main, parse_geometry_file
from medrec.estimators import DirectSamplingLocator, TotalLeastSquaresReconstructor
from medrec.experiments import deserialize_field, make_example, serialize_field
from medrec.forward import default_excitations, generate_measurements
from medrec.grid import BoundaryData, StaggeredGrid
from medrec.optimizer import COEFF_TOL


def run_cli(*args):
    return main(list(args))


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1run")
    code = run_cli("generate", "--example", "ex1", "--grid", "20",
                   "--seed", "0", "--out", str(out))
    assert code == 0
    return out


def test_generate_outputs(generated_dir):
    names = {p.name for p in generated_dir.iterdir()}
    assert {"truth_sigma.field", "truth_mu.field",
            "meas_000_h.field", "meas_000_f.field", "run.cfg"} <= names
    truth = deserialize_field(generated_dir / "truth_sigma.field")
    assert truth.values.max() == 20.0


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("generate", "--example", "ex1", "--grid", "16",
                       "--noise", "0.05", "--seed", "3", "--out", str(out)) == 0
    for name in ("meas_000_f.field", "truth_mu.field"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_two_excitations(tmp_path):
    out = tmp_path / "ex4"
    assert run_cli("generate", "--example", "ex4", "--grid", "16",
                   "--out", str(out)) == 0
    assert (out / "meas_001_f.field").exists()
    assert not (out / "meas_002_f.field").exists()


def test_dsm_outputs_and_theta_validation(generated_dir):
    assert run_cli("dsm", "--example", "ex1", "--grid", "20",
                   "--out", str(generated_dir)) == 0
    for name in ("phi_sigma.field", "phi_mu.field", "mask_sigma.field",
                 "init_sigma.field", "init_mu.field"):
        assert (generated_dir / name).exists()
    init = deserialize_field(generated_dir / "init_sigma.field")
    assert init.values.min() >= 0.5 and init.values.max() <= 30.0
    assert run_cli("dsm", "--example", "ex1", "--theta", "1.5",
                   "--out", str(generated_dir)) == 2


def test_dsm_report_lists_fitted_atoms(tmp_path):
    out = tmp_path / "ex1"
    for command in ("generate", "dsm"):
        assert run_cli(command, "--example", "ex1", "--grid", "24",
                       "--out", str(out)) == 0
    report = read_kv(out / "dsm_report.txt")
    atoms = [v.split(",") for k, v in report.items() if k.startswith("atom_000_")]
    assert sorted(a[0] for a in atoms) == ["d", "m"]
    for kind, x, y, share, *coef in atoms:
        assert 0.0 < float(x) < 1.0 and 0.0 < float(y) < 1.0
        assert 0.0 < float(share) <= 1.0
        assert len(coef) == (1 if kind == "m" else 2)


def test_reconstruct_and_report(generated_dir):
    assert run_cli("reconstruct", "--example", "ex1", "--grid", "20",
                   "--max-outer", "4", "--out", str(generated_dir)) == 0
    report = read_kv(generated_dir / "report.txt")
    assert report["stop_reason"] == "max_iterations"
    assert report["iterations"] == "4"
    j = [float(x) for x in report["j_history"].split(",")]
    assert len(j) == 5
    assert all(b <= a + 1e-10 * (1 + j[0]) for a, b in zip(j, j[1:]))
    assert (generated_dir / "recon_sigma.field").exists()


def test_report_counts_state_factorizations_and_pcg(tmp_path):
    assert run_cli("generate", "--example", "ex1", "--grid", "16",
                   "--out", str(tmp_path)) == 0
    assert run_cli("reconstruct", "--example", "ex1", "--grid", "16",
                   "--max-outer", "3", "--out", str(tmp_path)) == 0
    report = read_kv(tmp_path / "report.txt")
    iterations = int(report["iterations"])
    assert 1 <= int(report["state_factorizations"]) <= iterations
    pcg = [int(k) for k in report["state_pcg_iterations"].split(",")]
    assert len(pcg) == iterations
    assert pcg[0] > 0 and min(pcg) >= 0     # the first half-step runs PCG from zero
    starts = [float(v) for v in report["state_start_residual"].split(",")]
    assert len(starts) == iterations and starts[0] == 0.0
    assert all(np.isfinite(v) and v >= 0.0 for v in starts)
    fills = [int(k) for k in report["state_lu_fill"].split(",")]
    assert len(fills) == int(report["state_factorizations"])
    assert min(fills) > 0
    steps = [int(k) for k in report["coeff_newton_steps"].split(",")]
    coeff_pcg = [int(k) for k in report["coeff_pcg_iterations"].split(",")]
    assert len(steps) == len(coeff_pcg) == iterations
    assert min(steps) >= 0 and min(coeff_pcg) >= 0


def test_alpha_sigma_zero_reconstructs_to_tolerance(tmp_path):
    # alpha = 0 leaves the sigma Hessian semidefinite (a checkerboard has
    # zero face means); the shifted Newton systems still solve the block.
    out = str(tmp_path / "o")
    for stage in ("generate", "dsm"):
        assert run_cli(stage, "--example", "ex4", "--grid", "24", "--out", out) == 0
    assert run_cli("reconstruct", "--example", "ex4", "--grid", "24",
                   "--alpha-sigma", "0", "--out", out) == 0
    report = read_kv(tmp_path / "o" / "report.txt")
    assert float(report["final_coeff_residual_sigma"]) <= COEFF_TOL
    assert max(int(k) for k in report["coeff_newton_steps"].split(",")) <= 5


def test_reconstruct_missing_measurements(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert run_cli("reconstruct", "--out", str(out)) == 2


def test_evaluate_truth_against_itself(tmp_path):
    out = tmp_path / "irun"
    assert run_cli("generate", "--example", "ex1", "--grid", "16",
                   "--out", str(out)) == 0
    for role in ("sigma", "mu"):
        data = (out / f"truth_{role}.field").read_bytes()
        (out / f"recon_{role}.field").write_bytes(data)
    assert run_cli("evaluate", "--out", str(out)) == 0
    metrics = read_kv(out / "metrics.txt")
    assert float(metrics["sigma_relative_l2_error"]) == 0.0
    assert float(metrics["sigma_support_jaccard"]) == 1.0
    assert float(metrics["mu_background_deviation"]) == 0.0


def test_evaluate_names_a_field_of_the_wrong_kind(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("generate", "--example", "ex1", "--grid", "16",
                   "--out", str(out)) == 0
    (out / "recon_sigma.field").write_bytes((out / "truth_sigma.field").read_bytes())
    (out / "recon_mu.field").write_bytes((out / "meas_000_f.field").read_bytes())
    capsys.readouterr()
    assert run_cli("evaluate", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{out / 'recon_mu.field'} holds boundary data" in err
    assert not (out / "metrics.txt").exists()


def test_render_emits_one_pgm_per_field(generated_dir):
    assert run_cli("render", "--out", str(generated_dir)) == 0
    fields = sorted(generated_dir.glob("*.field"))
    for f in fields:
        assert f.with_suffix(".pgm").exists()


def test_render_boundary_data_as_one_row(tmp_path):
    grid = StaggeredGrid(4)
    values = np.arange(16.0)[::-1] - 3.0
    serialize_field(BoundaryData(grid, values), tmp_path / "meas_000_f.field")
    assert run_cli("render", "--out", str(tmp_path)) == 0
    raw = (tmp_path / "meas_000_f.pgm").read_bytes()
    header = b"P5\n16 1\n65535\n"
    assert raw.startswith(header)
    # [min, max] -> [0, 65535] in 15 equal steps of 4369, big-endian
    assert raw[len(header):] == (4369 * np.arange(16)[::-1]).astype(">u2").tobytes()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("version=1\nexample=ex1\ngrid=16\nseed=9\n")
    out = tmp_path / "from_cfg"
    assert run_cli("generate", "--config", str(cfg), "--out", str(out)) == 0
    echo = read_kv(out / "run.cfg")
    assert echo["grid"] == "16" and echo["seed"] == "9"
    # flags override config keys
    out2 = tmp_path / "override"
    assert run_cli("generate", "--config", str(cfg), "--grid", "12",
                   "--out", str(out2)) == 0
    assert read_kv(out2 / "run.cfg")["grid"] == "12"
    # missing version key rejected
    bad = tmp_path / "bad.cfg"
    bad.write_text("example=ex1\n")
    assert run_cli("generate", "--config", str(bad), "--out", str(out)) == 2


def test_custom_geometry_file(tmp_path):
    geom = tmp_path / "geom.cfg"
    geom.write_text("\n".join([
        "version=1", "name=custom", "excitations=1",
        "sigma_square_1=0.3,0.7,0.2,15",
        "mu_ring_1=0.6,0.4,0.3,0.2,10",
    ]) + "\n")
    spec = parse_geometry_file(geom)
    assert spec.sigma_inclusions[0].center == (0.3, 0.7)
    assert spec.mu_inclusions[0].value == 10.0
    assert spec.reconstruct_mu
    out = tmp_path / "custom_run"
    assert run_cli("generate", "--geometry", str(geom), "--grid", "16",
                   "--out", str(out)) == 0
    truth = deserialize_field(out / "truth_sigma.field")
    assert truth.values.max() == 15.0


def test_unknown_example_is_config_error(tmp_path):
    # argparse catches bad choices itself; a bad geometry path maps to exit 2
    assert run_cli("generate", "--geometry", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")) == 2


def test_incompatible_pure_neumann_geometry_is_config_error(tmp_path, capsys):
    # mu == 0 on every cell leaves the forward operator singular: exit 2
    geom = tmp_path / "geom.cfg"
    geom.write_text("version=1\nname=no_absorption\nmu_bg=0.0\n")
    assert run_cli("generate", "--geometry", str(geom), "--grid", "8",
                   "--out", str(tmp_path / "o")) == 2
    assert "absorption" in capsys.readouterr().err


def test_absorbing_inclusion_alone_generates(tmp_path):
    # mu vanishes outside one inclusion: the forward operator is definite,
    # and its PCG takes the mean of mu as the preconditioner's mu_0
    geom = tmp_path / "geom.cfg"
    geom.write_text("version=1\nname=absorbing_inclusion\nmu_bg=0.0\n"
                    "mu_square_0=0.35,0.35,0.1,2.0\n")
    assert run_cli("generate", "--geometry", str(geom), "--grid", "24",
                   "--out", str(tmp_path / "o")) == 0


def test_forward_pcg_failure_is_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(forward, "FORWARD_PCG_MAX", 0)   # PCG stops at its start
    assert run_cli("generate", "--example", "ex1", "--grid", "12",
                   "--out", str(tmp_path / "o")) == 3
    assert "forward PCG missed" in capsys.readouterr().err


def test_state_factor_failure_is_numerical_failure(tmp_path, singular_factor):
    # generate factors nothing, so it runs past the patched state factor
    out = str(tmp_path / "o")
    assert run_cli("generate", "--example", "ex1", "--grid", "12", "--out", out) == 0
    assert run_cli("reconstruct", "--example", "ex1", "--grid", "12",
                   "--max-outer", "2", "--out", out) == 3


def test_coefficient_factor_failure_is_numerical_failure(tmp_path,
                                                       singular_coefficient_factor):
    out = str(tmp_path / "o")
    assert run_cli("generate", "--example", "ex1", "--grid", "12", "--out", out) == 0
    assert run_cli("reconstruct", "--example", "ex1", "--grid", "12",
                   "--max-outer", "2", "--out", out) == 3


def test_misspelt_geometry_key_is_config_error(tmp_path):
    geom = tmp_path / "geom.cfg"
    geom.write_text("version=1\nname=typo\nsigma_sqaure_0=0.25,0.65,0.05,20.0\n"
                    "noise=0.5\n")
    out = tmp_path / "o"
    assert run_cli("generate", "--geometry", str(geom), "--grid", "8",
                   "--out", str(out)) == 2
    assert not (out / "truth_sigma.field").exists()


def test_missing_init_mu_is_config_error(tmp_path):
    out = tmp_path / "o"
    assert run_cli("generate", "--example", "ex1", "--grid", "8",
                   "--out", str(out)) == 0
    (out / "init_sigma.field").write_bytes((out / "truth_sigma.field").read_bytes())
    assert run_cli("reconstruct", "--example", "ex1", "--grid", "8",
                   "--max-outer", "1", "--out", str(out)) == 2


def test_reconstruct_names_an_initial_guess_on_the_wrong_grid(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("generate", "--example", "ex1", "--grid", "16",
                   "--out", str(out)) == 0
    (out / "init_sigma.field").write_bytes((out / "truth_sigma.field").read_bytes())
    serialize_field(make_example("ex1").rasterize(StaggeredGrid(20)).mu,
                    out / "init_mu.field")
    capsys.readouterr()
    assert run_cli("reconstruct", "--example", "ex1", "--grid", "16",
                   "--max-outer", "1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{out / 'init_mu.field'} is on the 20x20 grid, not the run's 16x16" in err
    assert not (out / "report.txt").exists()


def test_config_directory_is_config_error(tmp_path):
    assert run_cli("generate", "--config", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 2


def test_repeated_geometry_key_is_config_error(tmp_path):
    geom = tmp_path / "geom.cfg"
    geom.write_text("version=1\nsigma_square_0=0.25,0.65,0.1,20.0\n"
                    "sigma_square_0=0.75,0.35,0.1,15.0\n")
    out = tmp_path / "o"
    assert run_cli("generate", "--geometry", str(geom), "--grid", "8",
                   "--out", str(out)) == 2
    assert not (out / "truth_sigma.field").exists()


def test_repeated_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    for text in ("grid=12\ngrid=20\n", "max-outer=3\nmax_outer=5\n"):
        cfg.write_text("version=1\n" + text)
        assert run_cli("generate", "--config", str(cfg), "--out", str(out)) == 2
    assert not (out / "run.cfg").exists()


@pytest.mark.filterwarnings("ignore:thresholded subdomain is empty")
def test_dsm_oversample_must_match_generate(tmp_path, capsys):
    out = tmp_path / "o"
    common = ("--example", "ex1", "--grid", "12", "--out", str(out))
    assert run_cli("generate", "--oversample", "1", *common) == 0
    capsys.readouterr()
    assert run_cli("dsm", *common) == 2
    err = capsys.readouterr().err
    assert "oversample=2" in err and "oversample=1" in err
    assert not (out / "init_sigma.field").exists()
    assert run_cli("dsm", "--oversample", "1", *common) == 0
    # without the record of generate, dsm takes its own value as before
    (out / "run.cfg").unlink()
    assert run_cli("dsm", *common) == 0


@pytest.fixture(scope="module")
def generated_n12(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1n12")
    assert run_cli("generate", "--example", "ex1", "--grid", "12",
                   "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("stage", ["dsm", "reconstruct"])
def test_grid_must_match_generate(generated_n12, stage, capsys):
    assert run_cli(stage, "--example", "ex1", "--grid", "20", "--max-outer", "1",
                   "--out", str(generated_n12)) == 2
    err = capsys.readouterr().err
    assert "grid=20" in err and "grid=12" in err


@pytest.mark.parametrize("stage", ["dsm", "reconstruct"])
def test_example_must_match_generate(generated_n12, stage, capsys):
    assert run_cli(stage, "--example", "ex4", "--grid", "12", "--max-outer", "1",
                   "--out", str(generated_n12)) == 2
    err = capsys.readouterr().err
    assert "example=ex4" in err and "example=ex1" in err


def test_geometry_must_match_generate(tmp_path, capsys):
    base = "version=1\nsigma_square_0=0.25,0.65,0.1,20.0\n"
    geom, other = tmp_path / "geom.cfg", tmp_path / "other.cfg"
    geom.write_text(base)
    other.write_text(base + "sigma_bg=2.0\n")
    out = str(tmp_path / "o")
    assert run_cli("generate", "--geometry", str(geom), "--grid", "12",
                   "--out", out) == 0
    for stage in ("dsm", "reconstruct"):
        assert run_cli(stage, "--geometry", str(other), "--grid", "12",
                       "--max-outer", "1", "--out", out) == 2
        assert "other.cfg" in capsys.readouterr().err
    # the same file under another spelling of its path is the same geometry
    same = str(tmp_path / "o" / ".." / "geom.cfg")
    assert run_cli("dsm", "--geometry", same, "--grid", "12", "--out", out) == 0


@pytest.mark.filterwarnings("ignore:thresholded subdomain is empty")
def test_reconstruct_noise_must_match_generate(tmp_path, capsys):
    # the noise level selects the example's regularization column
    out = str(tmp_path / "o")
    common = ("--example", "ex1", "--grid", "12", "--out", out)
    assert run_cli("generate", "--noise", "0.05", *common) == 0
    assert run_cli("dsm", *common) == 0
    capsys.readouterr()
    assert run_cli("reconstruct", "--max-outer", "1", *common) == 2
    err = capsys.readouterr().err
    assert "noise=0.0" in err and "noise=0.05" in err
    assert not (tmp_path / "o" / "recon_sigma.field").exists()
    assert run_cli("reconstruct", "--noise", "0.05", "--max-outer", "1", *common) == 0


@pytest.mark.filterwarnings("ignore:thresholded subdomain is empty")
def test_cli_and_library_reconstruct_identically(tmp_path):
    # n=16 leaves the sigma mask empty; the mu mask still seeds stage two
    n, max_outer = 16, 2
    out = str(tmp_path / "o")
    for stage in ("generate", "dsm", "reconstruct"):
        assert run_cli(stage, "--example", "ex1", "--grid", str(n),
                       "--max-outer", str(max_outer), "--out", out) == 0

    spec = make_example("ex1")
    grid = StaggeredGrid(n)
    truth = spec.rasterize(grid)
    sets = generate_measurements(truth.sigma, truth.mu,
                                 default_excitations(grid, spec.excitation_count))
    initial = DirectSamplingLocator(spec.sigma_background,
                                    spec.mu_background).fit(sets).transform(sets)
    a_s, b_s, a_m, b_m = spec.regularization_params(noisy=False)
    rec = TotalLeastSquaresReconstructor(
        alpha_sigma=a_s, beta_sigma=b_s, alpha_mu=a_m, beta_mu=b_m,
        max_outer=max_outer, update_mu=spec.reconstruct_mu).fit(sets, initial)
    for role, field in (("sigma", rec.sigma_), ("mu", rec.mu_)):
        cli_field = deserialize_field(tmp_path / "o" / f"recon_{role}.field")
        assert np.array_equal(cli_field.values, field.values)


def test_a_second_call_builds_no_parser(tmp_path, monkeypatch):
    # render on an empty directory parses its flags and exits 2 at once
    assert run_cli("render", "--out", str(tmp_path)) == 2
    built, real_init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("render", "--out", str(tmp_path)) == 2
    assert built == []
