"""Batch command line: generate -> dsm -> reconstruct -> evaluate -> render.

Every subcommand reads and writes files inside one output directory:
key=value text for the run record and the reports, and `.field` files
(three ASCII header lines, then raw little-endian float64; see
experiments.serialize_field) for every field.  Each subcommand takes its
parameters from an optional flat key=value config file (with a `version`
key), and lets explicit flags override config keys.  Exit codes: 0
success, 2 configuration error, 3 numerical failure.
"""

import argparse
import functools
import itertools
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .dsm import DEFAULT_THETA
from .estimators import DirectSamplingLocator, TotalLeastSquaresReconstructor
from .experiments import (BACKGROUND_MU, BACKGROUND_SIGMA, DEFAULT_C_PHI,
                          ExampleSpec, FieldFormatError, RingInclusion,
                          SquareInclusion, add_noise, background_deviation,
                          clip_to_box, compute_metrics, deserialize_field,
                          example_names, make_example, render_pgm,
                          serialize_field)
from .forward import (ForwardSolverError, MeasurementSet, default_excitations,
                      generate_measurements)
from .grid import BoundaryData, GridError, ScalarField, StaggeredGrid
from .model import CoefficientPair
from .optimizer import SubproblemFailure, adi_reconstruct

CONFIG_VERSION = "1"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Resolved parameters of one pipeline run."""

    example: str = "ex1"
    geometry: str = ""            # path to a custom geometry file, if any
    grid: int = 50
    noise: float = 0.0
    seed: int = 0
    theta: float = DEFAULT_THETA
    cphi: float = DEFAULT_C_PHI
    alpha_sigma: float = math.nan  # nan: take the example's table value
    beta_sigma: float = math.nan
    alpha_mu: float = math.nan
    beta_mu: float = math.nan
    oversample: int = 2
    max_outer: int = 50
    out: str = "."

    def validate(self):
        if self.grid < 4:
            raise ConfigError("grid must be at least 4")
        if self.noise < 0:
            raise ConfigError("noise must be nonnegative")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        if self.cphi <= 0:
            raise ConfigError("cphi must be positive")
        if self.oversample < 1:
            raise ConfigError("oversample must be >= 1")
        if self.max_outer < 1:
            raise ConfigError("max-outer must be >= 1")


def _parse_kv_file(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}: line {lineno}: repeated key {key!r}")
        out[key] = value.strip()
    if out.get("version") != CONFIG_VERSION:
        raise ConfigError(f"{path}: missing or unsupported version key")
    return out


_FIELD_TYPES = {f.name: f.type for f in dc_fields(RunConfig)}


def _coerce(name: str, raw: str):
    try:
        return _FIELD_TYPES[name](raw)     # int, float or str
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {name}") from None


def resolve_config(args) -> RunConfig:
    """defaults < config file < explicit command-line flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_values = _parse_kv_file(Path(args.config))
        seen = set()
        for key, raw in file_values.items():
            if key == "version":
                continue
            name = key.replace("-", "_")
            if name not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            if name in seen:        # max-outer and max_outer are one key
                raise ConfigError(f"repeated config key {key!r}")
            seen.add(name)
            setattr(cfg, name, _coerce(name, raw))
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def _text(value) -> str:
    """A value as a key=value file holds it: a float by its repr, so it
    reads back bit-exactly, a sequence comma-separated."""
    if isinstance(value, float):            # numpy's float64 included
        return repr(float(value))
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(_text(v) for v in value)
    return str(value)


def _write_kv_file(path: Path, entries: dict, comment: str = "") -> None:
    """Write the version line, the comment line if any, then one
    key=value line per entry; every line ends with a newline."""
    lines = [f"version={CONFIG_VERSION}", *([comment] if comment else []),
             *(f"{key}={_text(value)}" for key, value in entries.items())]
    path.write_text("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# Custom geometry files
# ---------------------------------------------------------------------------

_GEOMETRY_KEYS = {"version", "name", "sigma_bg", "mu_bg", "excitations",
                  "alpha_sigma", "beta_sigma", "alpha_mu", "beta_mu"}


def parse_geometry_file(path: Path) -> ExampleSpec:
    """Build an ExampleSpec from a flat key=value geometry description.

    Recognized keys: version, name, sigma_bg, mu_bg, excitations,
    alpha_sigma/beta_sigma/alpha_mu/beta_mu (both noise columns share
    them), and repeatable shapes
        sigma_square_<k>=cx,cy,width,value
        mu_square_<k>=cx,cy,width,value
        sigma_ring_<k>=cx,cy,outer,inner,value
        mu_ring_<k>=cx,cy,outer,inner,value
    Any other key, and any key given twice, is a ConfigError, so a
    misspelt or repeated one cannot pass unseen.
    """
    kv = _parse_kv_file(path)

    def floats(key, count):
        parts = kv[key].split(",")
        if len(parts) != count:
            raise ConfigError(f"{path}: {key} needs {count} comma-separated values")
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{path}: bad number in {key}") from None

    sigma_shapes, mu_shapes = [], []
    for key in sorted(kv):
        if key.startswith(("sigma_square_", "mu_square_")):
            cx, cy, width, value = floats(key, 4)
            shape = SquareInclusion((cx, cy), width, value)
            (sigma_shapes if key.startswith("sigma") else mu_shapes).append(shape)
        elif key.startswith(("sigma_ring_", "mu_ring_")):
            cx, cy, outer, inner, value = floats(key, 5)
            shape = RingInclusion((cx, cy), outer, inner, value)
            (sigma_shapes if key.startswith("sigma") else mu_shapes).append(shape)
        elif key not in _GEOMETRY_KEYS:
            raise ConfigError(f"{path}: unknown geometry key {key!r}")
    params = (float(kv.get("alpha_sigma", 1e-2)), float(kv.get("beta_sigma", 2e-2)),
              float(kv.get("alpha_mu", 5e-4)), float(kv.get("beta_mu", 5e-4)))
    return ExampleSpec(
        name=kv.get("name", path.stem),
        sigma_inclusions=tuple(sigma_shapes),
        mu_inclusions=tuple(mu_shapes),
        sigma_background=float(kv.get("sigma_bg", BACKGROUND_SIGMA)),
        mu_background=float(kv.get("mu_bg", BACKGROUND_MU)),
        excitation_count=int(kv.get("excitations", 1)),
        params_exact=params, params_noisy=params)


def _example_for(cfg: RunConfig) -> ExampleSpec:
    if cfg.geometry:
        return parse_geometry_file(Path(cfg.geometry))
    try:
        return make_example(cfg.example)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _reg_params(cfg: RunConfig, spec: ExampleSpec) -> tuple[float, float, float, float]:
    table = spec.regularization_params(noisy=cfg.noise > 0)
    out = []
    for flag, fallback in zip((cfg.alpha_sigma, cfg.beta_sigma,
                               cfg.alpha_mu, cfg.beta_mu), table):
        out.append(fallback if math.isnan(flag) else flag)
    return tuple(out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def cmd_generate(cfg: RunConfig) -> None:
    spec = _example_for(cfg)
    grid = StaggeredGrid(cfg.grid)
    truth = spec.rasterize(grid)
    excitations = default_excitations(grid, spec.excitation_count)
    sets = generate_measurements(truth.sigma, truth.mu, excitations,
                                 oversample=cfg.oversample)
    out = _outdir(cfg)
    serialize_field(truth.sigma, out / "truth_sigma.field")
    serialize_field(truth.mu, out / "truth_mu.field")
    for i, m in enumerate(sets):
        f_obs = add_noise(m.f, cfg.noise, cfg.seed + i)
        serialize_field(m.h, out / f"meas_{i:03d}_h.field")
        serialize_field(f_obs, out / f"meas_{i:03d}_f.field")
    _write_kv_file(out / "run.cfg", asdict(cfg))
    print(f"generate: wrote {len(sets)} measurement set(s) to {out}")


def _load_measurements(out: Path) -> list[MeasurementSet]:
    sets = []
    for i in itertools.count():
        h_path = out / f"meas_{i:03d}_h.field"
        f_path = out / f"meas_{i:03d}_f.field"
        if not h_path.exists():
            break
        if not f_path.exists():
            raise ConfigError(f"missing trace file {f_path}")
        h = deserialize_field(h_path)
        f = deserialize_field(f_path)
        if not isinstance(h, BoundaryData) or not isinstance(f, BoundaryData):
            raise ConfigError(f"measurement files in {out} are not boundary data")
        sets.append(MeasurementSet(h=h, f=f))
    if not sets:
        raise ConfigError(f"no measurement files found in {out}")
    return sets


def _read_scalar(path: Path, grid: StaggeredGrid | None) -> ScalarField:
    """Read a scalar field file; ConfigError naming the file unless it
    holds a scalar field on `grid` (None accepts any grid)."""
    fld = deserialize_field(path)
    if not isinstance(fld, ScalarField):
        raise ConfigError(f"{path} holds boundary data, not a scalar field")
    if grid is not None and fld.grid.n != grid.n:
        raise ConfigError(f"{path} is on the {fld.grid.n}x{fld.grid.n} grid, "
                          f"not the run's {grid.n}x{grid.n}")
    return fld


def _check_generated(command: str, keys: tuple[str, ...], cfg: RunConfig,
                     out: Path) -> None:
    """Exit 2 unless `keys` agree with the run.cfg that generate wrote to out.

    dsm synthesizes its reference, and reconstruct picks its weights, for
    the medium, grid, refinement and noise level they are given; these
    must be the ones the data were generated with.  Geometry files are
    compared as resolved paths.  Without a run.cfg nothing is checked.
    """
    path = out / "run.cfg"
    if not path.exists():
        return
    recorded = _parse_kv_file(path)
    for key in keys:
        mine, theirs = getattr(cfg, key), _coerce(key, recorded.get(key, ""))
        same = mine == theirs
        if key == "geometry" and mine and theirs:
            same = Path(mine).resolve() == Path(theirs).resolve()
        if not same:
            raise ConfigError(f"{command} {key}={mine} differs from the "
                              f"{key}={theirs} that generate recorded in {path}")


def cmd_dsm(cfg: RunConfig) -> None:
    spec = _example_for(cfg)
    out = _outdir(cfg)
    _check_generated("dsm", ("example", "geometry", "grid", "oversample"), cfg, out)
    sets = _load_measurements(out)
    grid = sets[0].grid
    loc = DirectSamplingLocator(spec.sigma_background, spec.mu_background,
                                theta=cfg.theta, c_phi=cfg.cphi,
                                oversample=cfg.oversample).fit(sets)
    # An empty mask matters only for a coefficient that stage two recovers.
    for name, mask, unknown in (("sigma", loc.mask_sigma_, True),
                                ("mu", loc.mask_mu_, spec.reconstruct_mu)):
        if unknown and mask.is_empty:
            warnings.warn(f"thresholded subdomain is empty for {name}; the "
                          "initial guess falls back to the background")
    serialize_field(loc.index_sigma_, out / "phi_sigma.field")
    serialize_field(loc.index_mu_, out / "phi_mu.field")
    serialize_field(ScalarField(grid, loc.mask_sigma_.mask.astype(float)),
                    out / "mask_sigma.field")
    serialize_field(ScalarField(grid, loc.mask_mu_.mask.astype(float)),
                    out / "mask_mu.field")
    serialize_field(loc.initial_sigma_, out / "init_sigma.field")
    serialize_field(loc.initial_mu_, out / "init_mu.field")
    _write_kv_file(
        out / "dsm_report.txt",
        {f"atom_{e:03d}_{k}": (atom.kind, *atom.centre, atom.share, *atom.coef)
         for e, atoms in enumerate(loc.atoms_) for k, atom in enumerate(atoms)},
        comment="# atom_<excitation>_<k>=kind,x,y,share,coefficients")
    print(f"dsm: wrote index fields, masks, initial guesses and the fitted "
          f"atoms to {out}")


def cmd_reconstruct(cfg: RunConfig) -> None:
    spec = _example_for(cfg)
    out = _outdir(cfg)
    _check_generated("reconstruct", ("example", "geometry", "grid", "noise"), cfg, out)
    sets = _load_measurements(out)
    grid = sets[0].grid

    init_sigma_path = out / "init_sigma.field"
    if init_sigma_path.exists():
        try:
            init_sigma = _read_scalar(init_sigma_path, grid)
            init_mu = _read_scalar(out / "init_mu.field", grid)
        except OSError as exc:
            raise ConfigError(f"cannot read initial guess {exc.filename}: "
                              f"{exc.strerror}") from None
    else:
        init_sigma = ScalarField.constant(grid, spec.sigma_background)
        init_mu = ScalarField.constant(grid, spec.mu_background)
    initial = CoefficientPair(clip_to_box(init_sigma), clip_to_box(init_mu))
    settings = TotalLeastSquaresReconstructor(
        *_reg_params(cfg, spec), max_outer=cfg.max_outer,
        update_mu=spec.reconstruct_mu).config()
    # adi_reconstruct is called through this module, where bench/run.py
    # captures the report.
    report = adi_reconstruct(sets, initial, settings)

    serialize_field(report.coefficients.sigma, out / "recon_sigma.field")
    serialize_field(report.coefficients.mu, out / "recon_mu.field")
    res_sigma, res_mu = report.final_coeff_residuals
    _write_kv_file(out / "report.txt", {
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "final_state_residual": report.final_state_residual,
        "final_coeff_residual_sigma": res_sigma,
        "final_coeff_residual_mu": res_mu,
        "j_history": report.j_history,
        "state_factorizations": report.state_factorizations.sum(),
        "state_lu_fill": report.state_lu_fill[report.state_lu_fill != 0],
        "state_pcg_iterations": report.state_pcg_iterations,
        "state_start_residual": report.state_start_residuals,
        "coeff_newton_steps": report.coeff_inner_iterations,
        "coeff_pcg_iterations": report.coeff_pcg_iterations})
    print(f"reconstruct: {report.iterations} iterations, "
          f"J {report.j_history[0]:.6g} -> {report.j_history[-1]:.6g}, "
          f"stop reason {report.stop_reason}")


def cmd_evaluate(cfg: RunConfig) -> None:
    out = _outdir(cfg)
    fields, grid = {}, None     # the truth's sigma sets the run's grid
    for role in ("truth_sigma", "truth_mu", "recon_sigma", "recon_mu"):
        p = out / f"{role}.field"
        if not p.exists():
            raise ConfigError(f"missing field file {p}")
        fields[role] = _read_scalar(p, grid)
        grid = fields[role].grid
    truth = CoefficientPair(fields["truth_sigma"], fields["truth_mu"])
    recon = CoefficientPair(fields["recon_sigma"], fields["recon_mu"])
    metrics = compute_metrics(recon, truth)
    entries = {}
    for label, met, rec_f, tru_f in (
            ("sigma", metrics.sigma, recon.sigma, truth.sigma),
            ("mu", metrics.mu, recon.mu, truth.mu)):
        entries[f"{label}_relative_l2_error"] = met.relative_l2_error
        entries[f"{label}_support_jaccard"] = met.support_jaccard
        entries[f"{label}_center_of_mass_errors"] = met.center_of_mass_errors
        entries[f"{label}_background_deviation"] = background_deviation(rec_f, tru_f)
    _write_kv_file(out / "metrics.txt", entries)
    print("evaluate: wrote metrics.txt")


def cmd_render(cfg: RunConfig) -> None:
    out = _outdir(cfg)
    field_paths = sorted(out.glob("*.field"))
    if not field_paths:
        raise ConfigError(f"no field files found in {out}")
    count = 0
    for path in field_paths:
        obj = deserialize_field(path)
        render_pgm(obj, path.with_suffix(".pgm"))
        count += 1
    print(f"render: wrote {count} PGM image(s) to {out}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file (flags override)")
    parser.add_argument("--example", choices=example_names(),
                        help="benchmark medium name")
    parser.add_argument("--geometry", help="custom geometry file")
    parser.add_argument("--grid", type=int, help="cells per side (default 50)")
    parser.add_argument("--noise", type=float, help="relative noise level")
    parser.add_argument("--seed", type=int, help="noise seed")
    parser.add_argument("--theta", type=float, help="index cutoff in (0,1)")
    parser.add_argument("--cphi", type=float, help="initial-guess magnitude")
    parser.add_argument("--alpha-sigma", dest="alpha_sigma", type=float)
    parser.add_argument("--beta-sigma", dest="beta_sigma", type=float)
    parser.add_argument("--alpha-mu", dest="alpha_mu", type=float)
    parser.add_argument("--beta-mu", dest="beta_mu", type=float)
    parser.add_argument("--oversample", type=int, help="data-synthesis refinement")
    parser.add_argument("--max-outer", dest="max_outer", type=int,
                        help="alternating iterations (default 50)")
    parser.add_argument("--out", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the
    process (not at import, which stays cheap)."""
    parser = argparse.ArgumentParser(
        prog="medrec",
        description="Two-stage coefficient reconstruction for diffuse "
                    "optical tomography on the unit square.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("generate", "synthesize measurement and truth files"),
            ("dsm", "index fields, masks, initial guesses and fitted atoms"),
            ("reconstruct", "run the alternating least-squares solver"),
            ("evaluate", "compare reconstruction against the truth"),
            ("render", "emit one PGM per field file")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "dsm": cmd_dsm,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "render": cmd_render,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        _COMMANDS[args.command](cfg)
    except (SubproblemFailure, ForwardSolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FieldFormatError, GridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
