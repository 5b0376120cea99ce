"""Benchmark of the medrec pipeline: generate -> dsm -> reconstruct -> evaluate.

Runs the stages in process, one after another, through `medrec.cli.main`
(the entry point of the `medrec` command), from one client in a closed
loop.  The medium is written as a `--geometry` file derived from the
workload and the seed, so the program only sees generated inputs.

    python3 bench/run.py --workload ex1-n50 --seed 3 --seconds 50 --trace 0
    python3 bench/run.py                      # every workload, seed 0

With `--trace 0` the pipeline repeats for `--seconds` seconds with no
timing wrappers installed; stage times are medians over the repeats of
the CPU seconds the (single-threaded) process spent in each stage, with
the wall-clock medians reported beside them.  With `--trace 1` the
pipeline runs twice untraced and then once with a span around every
wrapped layer call (see spans.py); the per-layer metrics come from the
traced pass and the spans are saved under bench/_work/traces.

Every output is checked.  The last line printed is one JSON object with
the keys correct, attempted, failed and metrics; the metric names and
units come from BENCHMARK.json at the repository root.  A record of each
run (environment, seed, geometry, every sample, every check) is written
to bench/_work/results.
"""

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

STAGES = ("generate", "dsm", "reconstruct", "evaluate")
TIMED_STAGES = ("generate", "dsm", "reconstruct")
STAGE_MIN_S = 1.0      # shorter timed stages run again within a repeat
SETUP_REPEATS = 3
MIN_REPEATS = 5        # repeats run even past --seconds
FIELD_FILES = ("init_sigma", "init_mu", "recon_sigma", "recon_mu")

# Gates from the acceptance suite (criterion 6) and the descent certificate.
STATE_RESIDUAL_MAX = 1e-8
COEFF_RESIDUAL_MAX = 1e-7
DESCENT_SLACK = 1e-10
CERTIFICATE_RTOL = 1e-8
E_NONNEGATIVE_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    example: str
    grid: int
    max_outer: int


WORKLOADS = {
    "ex1-n50": Workload("ex1", 50, 20),
    "ex4-n80": Workload("ex4", 80, 6),
}


def import_medrec():
    """Import medrec from this checkout's src/; exit non-zero if it is missing."""
    if not (SRC / "medrec" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'medrec'} not found; run from a medrec checkout")
    sys.path.insert(0, str(SRC))
    import medrec.cli  # noqa: F401  (loads every layer the stages use)
    import medrec
    return medrec


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def geometry_text(medrec, name: str, seed: int) -> str:
    """Geometry file of the workload's medium for one seed.

    Seed 0 is the paper's geometry.  Any other seed moves every inclusion
    centre by a whole number of cells in {-1, 0, 1} per axis, drawn
    uniformly, so the rasterized shapes keep their cell counts.  The
    example's exact-data regularization weights and excitation count are
    copied, so the CLI reconstructs exactly as for the built-in example.
    """
    w = WORKLOADS[name]
    spec = medrec.make_example(w.example)
    rng = random.Random(seed)
    h = 1.0 / w.grid
    lines = ["version=1", f"name={name}-s{seed}",
             f"sigma_bg={spec.sigma_background!r}", f"mu_bg={spec.mu_background!r}",
             f"excitations={spec.excitation_count}"]
    for key, value in zip(("alpha_sigma", "beta_sigma", "alpha_mu", "beta_mu"),
                          spec.params_exact):
        lines.append(f"{key}={float(value)!r}")
    for coef, shapes in (("sigma", spec.sigma_inclusions), ("mu", spec.mu_inclusions)):
        for k, shape in enumerate(shapes):
            di, dj = (0, 0) if seed == 0 else (rng.randint(-1, 1), rng.randint(-1, 1))
            cx = shape.center[0] + di * h
            cy = shape.center[1] + dj * h
            if isinstance(shape, medrec.RingInclusion):
                dims = (shape.outer_width, shape.inner_width)
                kind = "ring"
            else:
                dims = (shape.width,)
                kind = "square"
            values = ",".join(repr(float(v)) for v in (cx, cy, *dims, shape.value))
            lines.append(f"{coef}_{kind}_{k}={values}")
    return "\n".join(lines) + "\n"


def write_geometry(medrec, name: str, seed: int) -> Path:
    path = WORK / f"{name}-s{seed}.geometry"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(geometry_text(medrec, name, seed))
    return path


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median CPU and wall seconds of fresh processes that import medrec
    and write the geometry file."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        c0, t0 = children_cpu_s(), time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        cpu.append(children_cpu_s() - c0)
    return statistics.median(cpu), statistics.median(wall)


# ---------------------------------------------------------------------------
# One pass through the pipeline
# ---------------------------------------------------------------------------

@dataclass
class Repeat:
    cpu: dict              # stage -> CPU seconds of each run of the stage
    wall: dict             # stage -> wall seconds of each run of the stage
    codes: dict            # stage -> exit code (missing: not run)
    report: object         # ReconstructionReport captured from the CLI
    out: Path

    def pipeline_s(self) -> float:
        return sum(statistics.median(v) for v in self.cpu.values())


def run_pipeline(cli, name: str, geometry: Path, out: Path, tracer=None,
                 stage_min_s: float = 0.0) -> Repeat:
    """Run every stage through cli.main; stop at the first failing stage.

    A timed stage shorter than stage_min_s runs again, back to back, until
    its runs add up to stage_min_s; each run rewrites the same outputs.
    Garbage is collected between stages (outside the timings), as the end
    of a `medrec` process would free it.
    """
    w = WORKLOADS[name]
    shutil.rmtree(out, ignore_errors=True)
    reports = []
    original = cli.adi_reconstruct

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    cpu, wall, codes = {}, {}, {}
    cli.adi_reconstruct = capture
    try:
        for stage in STAGES:
            argv = [stage, "--geometry", str(geometry), "--grid", str(w.grid),
                    "--out", str(out)]
            if stage == "reconstruct":
                argv += ["--max-outer", str(w.max_outer)]
            cpu[stage], wall[stage] = [], []
            while True:
                gc.collect()
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    c0, t0 = time.process_time(), time.perf_counter()
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        code = tracer.call(f"cli.{stage}", cli.main, argv)
                    wall[stage].append(time.perf_counter() - t0)
                    cpu[stage].append(time.process_time() - c0)
                if (code != 0 or stage not in TIMED_STAGES
                        or sum(wall[stage]) >= stage_min_s):
                    break
            codes[stage] = code
            if code != 0:
                print(f"{name}: stage {stage} exited {code}:\n{log.getvalue()}",
                      file=sys.stderr)
                break
    finally:
        cli.adi_reconstruct = original
    return Repeat(cpu, wall, codes, reports[-1] if reports else None, out)


def digests(out: Path) -> dict:
    return {f: hashlib.sha256((out / f"{f}.field").read_bytes()).hexdigest()
            if (out / f"{f}.field").exists() else None for f in FIELD_FILES}


def read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

class Checks:
    """Named pass/fail records; failed_frac = failed / attempted."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, label: str, ok: bool) -> None:
        self.results.append((label, bool(ok)))
        if not ok:
            print(f"check failed: {label}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.results)


def check_repeat(medrec, name: str, rep: Repeat, checks: Checks, tag: str) -> None:
    for stage in STAGES:
        checks.add(f"{tag}: {stage} exits 0", rep.codes.get(stage) == 0)
    if any(rep.codes.get(stage) != 0 for stage in STAGES):
        return
    spec = medrec.make_example(WORKLOADS[name].example)
    report = read_kv(rep.out / "report.txt")
    checks.add(f"{tag}: final state residual <= {STATE_RESIDUAL_MAX:g}",
               float(report["final_state_residual"]) <= STATE_RESIDUAL_MAX)
    blocks = ("sigma", "mu") if spec.reconstruct_mu else ("sigma",)
    for block in blocks:
        checks.add(f"{tag}: final {block} coefficient residual <= {COEFF_RESIDUAL_MAX:g}",
                   float(report[f"final_coeff_residual_{block}"]) <= COEFF_RESIDUAL_MAX)
    j = [float(v) for v in report["j_history"].split(",")]
    slack = DESCENT_SLACK * (1.0 + j[0])
    checks.add(f"{tag}: j_history descends within {DESCENT_SLACK:g}(1+J0)",
               all(b <= a + slack for a, b in zip(j, j[1:])))
    checks.add(f"{tag}: Bregman certificate holds at rtol {CERTIFICATE_RTOL:g}",
               rep.report is not None and medrec.bregman_diagnostics(
                   rep.report).certificate_holds(CERTIFICATE_RTOL))
    for coef in ("sigma", "mu"):
        values = medrec.deserialize_field(rep.out / f"recon_{coef}.field").values
        checks.add(f"{tag}: recon_{coef} finite and inside "
                   f"[{medrec.experiments.BOX_LO}, {medrec.experiments.BOX_HI}]",
                   bool(math.isfinite(values.sum())
                        and values.min() >= medrec.experiments.BOX_LO
                        and values.max() <= medrec.experiments.BOX_HI))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def accuracy(medrec, out: Path) -> dict:
    """Reconstruction metrics from metrics.txt, DSM metrics from init_*."""
    m = read_kv(out / "metrics.txt")
    load = lambda role: medrec.deserialize_field(out / f"{role}.field")
    truth = medrec.CoefficientPair(load("truth_sigma"), load("truth_mu"))
    init = medrec.CoefficientPair(load("init_sigma"), load("init_mu"))
    dsm = medrec.compute_metrics(init, truth)
    return {
        "sigma_jaccard": float(m["sigma_support_jaccard"]),
        "mu_jaccard": float(m["mu_support_jaccard"]),
        "sigma_rel_l2": float(m["sigma_relative_l2_error"]),
        "mu_rel_l2": float(m["mu_relative_l2_error"]),
        "dsm_sigma_jaccard": dsm.sigma.support_jaccard,
        "dsm_mu_jaccard": dsm.mu.support_jaccard,
    }


def bregman(medrec, report) -> dict:
    """E_min of the Bregman terms, absolute and relative to 1 + J0.

    The absolute gate E >= -1e-10 fails on ex4 (E_min about -1e-6 at J0
    about 1.5e7, a relative -8e-14) while the certificate holds.  The gate
    is not counted as a check; its result and E_min are reported instead.
    """
    diag = medrec.bregman_diagnostics(report)
    e_min = float(diag.e_values.min())
    return {"optimizer.bregman_e_min": e_min,
            "optimizer.bregman_e_min_rel": e_min / (1.0 + diag.j0),
            "bregman_nonnegative_abs_1e-10": diag.nonnegative(E_NONNEGATIVE_TOL)}


def mask_cells(medrec, out: Path) -> dict:
    return {f"dsm.mask_{c}_cells": int(medrec.deserialize_field(
        out / f"mask_{c}.field").values.sum()) for c in ("sigma", "mu")}


def install_layer_spans(medrec, tracer, counts: dict) -> None:
    """Wrap the attributes through which the stages call into each layer."""
    from medrec import cli, dsm, experiments, forward, grid, optimizer

    def lu_nnz(key):
        def record(lu):
            counts[key] = max(counts.get(key, 0), int(lu.L.nnz + lu.U.nnz))
        return record

    def coeff_update(update):
        counts["coeff_inner"] = counts.get("coeff_inner", 0) + update.inner_iterations
        counts["coeff_converged"] = counts.get("coeff_converged", 0) + update.converged

    tracer.wrap(forward, "solve_forward", "forward.solve_forward")
    for module in (forward, cli, dsm):
        tracer.wrap(module, "generate_measurements", "forward.generate_measurements")
    tracer.wrap(dsm, "homogeneous_reference", "dsm.homogeneous_reference")
    tracer.wrap(dsm, "compute_index", "dsm.compute_index")
    tracer.wrap(dsm, "splu", "dsm.probe_factor", lu_nnz("probe_lu_nnz"))
    tracer.wrap(cli, "adi_reconstruct", "optimizer.adi_reconstruct")
    tracer.wrap(optimizer, "splu", "optimizer.state_factor", lu_nnz("state_lu_nnz"))
    tracer.wrap(optimizer, "solve_coefficient_subproblem",
                "optimizer.solve_coefficient_subproblem", coeff_update)
    tracer.wrap(optimizer, "eval_J", "model.eval_J")
    tracer.wrap(optimizer, "state_normal_residual", "model.state_normal_residual")
    tracer.wrap(optimizer, "prox_l1_box", "regularization.prox_l1_box")
    tracer.wrap(optimizer, "bregman_distance", "regularization.bregman_distance")
    tracer.wrap(grid.ScalarField, "__post_init__", "grid.ScalarField")
    tracer.wrap(cli, "serialize_field", "experiments.serialize_field")
    tracer.wrap(cli, "deserialize_field", "experiments.deserialize_field")
    tracer.wrap(cli, "compute_metrics", "experiments.compute_metrics")


def layer_metrics(summary: dict, counts: dict) -> dict:
    def span(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out = {}
    for name in ("forward.solve_forward", "dsm.probe_factor",
                 "optimizer.state_factor", "optimizer.solve_coefficient_subproblem",
                 "model.eval_J", "model.state_normal_residual",
                 "regularization.prox_l1_box", "experiments.serialize_field",
                 "experiments.deserialize_field"):
        out[f"{name}.calls"] = span(name)["calls"]
        out[f"{name}.s"] = span(name)["s"]
    for name in ("forward.generate_measurements", "dsm.homogeneous_reference",
                 "regularization.bregman_distance", "experiments.compute_metrics"):
        out[f"{name}.s"] = span(name)["s"]
    for name in ("dsm.compute_index", "optimizer.adi_reconstruct"):
        out[f"{name}.s"] = span(name)["s"]
        out[f"{name}.self_s"] = span(name)["self_s"]
    out["grid.ScalarField.constructions"] = span("grid.ScalarField")["calls"]
    out["grid.ScalarField.init_s"] = span("grid.ScalarField")["s"]
    out["dsm.probe_lu_nnz"] = counts.get("probe_lu_nnz", 0)
    out["optimizer.state_lu_nnz"] = counts.get("state_lu_nnz", 0)
    out["optimizer.coeff_inner_iterations"] = counts.get("coeff_inner", 0)
    attempted = span("optimizer.solve_coefficient_subproblem")["calls"]
    out["optimizer.coeff_converged_frac"] = (
        counts.get("coeff_converged", 0) / attempted if attempted else 0.0)
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def environment(medrec) -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "medrec": medrec.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "MEDREC_THREADS": os.environ.get("MEDREC_THREADS"),
           "openblas_threads": None, "commit": None}
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            env["openblas_threads"] = fn()
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        env["commit"] = result.stdout.strip() or None
    return env


def load_benchmark_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# Reported and recorded, but not in BENCHMARK.json: they are zero, absent or
# seed-dependent on some workload (see bench/README.md).
REPORTED_UNITS = {
    "setup_wall_s": "s", "generate_wall_s": "s", "dsm_wall_s": "s",
    "reconstruct_wall_s": "s", "evaluate_wall_s": "s", "pipeline_wall_s": "s",
    "evaluate_s": "s", "sigma_jaccard": "ratio", "mu_jaccard": "ratio",
    "mu_rel_l2": "ratio", "dsm_sigma_jaccard": "ratio", "dsm_mu_jaccard": "ratio",
    "tls_final_J": "1", "failed_frac": "ratio", "optimizer.bregman_e_min": "1",
    "optimizer.bregman_e_min_rel": "ratio", "bregman_nonnegative_abs_1e-10": "bool",
}


def emit(name: str, seed: int, trace: int, checks: Checks, values: dict,
         units: dict, record: dict) -> dict:
    """Print every metric by name and unit, save the run record, and
    return the result object (with only the metrics named in `units`)."""
    print(f"== {name} seed={seed} trace={trace}")
    for key in sorted(values):
        unit = units.get(key) or REPORTED_UNITS.get(key, "")
        print(f"  {key} = {values[key]!r} {unit}".rstrip())
    print(f"  checks: {checks.attempted - checks.failed}/{checks.attempted} passed")
    record.update(workload=name, seed=seed, trace=trace, metrics=values,
                  checks=checks.results)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": values[k], "unit": unit}
                        for k, unit in units.items() if k in values}}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_run(medrec, name: str, seed: int, seconds: float, spec: dict) -> dict:
    setup_s, setup_wall_s = measure_setup(name, seed)
    geometry = write_geometry(medrec, name, seed)
    checks = Checks()
    reps, first = [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run_pipeline(medrec.cli, name, geometry, WORK / name / "timed",
                           stage_min_s=STAGE_MIN_S)
        if not reps:
            # The first repeat is a fresh process's pass, as with the CLI;
            # later repeats only add allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_repeat(medrec, name, rep, checks, f"repeat {len(reps)}")
        reps.append(rep)
        d = digests(rep.out)
        if first is None:
            first = d
        else:
            checks.add(f"repeat {len(reps) - 1}: field digests equal repeat 0", d == first)
        elapsed = time.perf_counter() - start
        if (len(reps) >= MIN_REPEATS
                and elapsed + (time.perf_counter() - t0) > seconds):
            break

    values = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "peak_rss_mb": peak_rss_mb}
    for kind, suffix in (("cpu", "_s"), ("wall", "_wall_s")):
        for stage in STAGES:
            values[stage + suffix] = statistics.median(
                [t for r in reps for t in getattr(r, kind).get(stage, [math.nan])])
        values["pipeline" + suffix] = sum(values[stage + suffix] for stage in STAGES)
    last = reps[-1]
    if checks.failed == 0:
        values.update(accuracy(medrec, last.out))
        values["tls_final_J"] = float(last.report.j_history[-1])
        values.update(bregman(medrec, last.report))
    values["failed_frac"] = checks.failed / checks.attempted
    units = spec["end_to_end"]
    record = {"environment": environment(medrec), "geometry": geometry.read_text(),
              "repeats": [{"cpu": r.cpu, "wall": r.wall, "codes": r.codes}
                          for r in reps],
              "digests": first}
    return emit(name, seed, 0, checks, values, units, record)


def traced_run(medrec, name: str, seed: int, spec: dict) -> dict:
    geometry = write_geometry(medrec, name, seed)
    checks = Checks()
    # The first pass is cold; the overhead compares two warm passes.
    for tag in ("warm-up", "untraced"):
        plain = run_pipeline(medrec.cli, name, geometry, WORK / name / "untraced")
        check_repeat(medrec, name, plain, checks, tag)
    plain_digests = digests(plain.out)

    run_id = f"{name}-s{seed}"
    tracer, counts = Tracer(run_id), {}
    install_layer_spans(medrec, tracer, counts)
    try:
        traced = run_pipeline(medrec.cli, name, geometry, WORK / name / "traced",
                              tracer=tracer)
    finally:
        tracer.uninstall()
    check_repeat(medrec, name, traced, checks, "traced")
    checks.add("traced field digests equal untraced", digests(traced.out) == plain_digests)

    summary = tracer.summary()
    values = layer_metrics(summary, counts)
    values["trace.overhead_s"] = traced.pipeline_s() - plain.pipeline_s()
    if checks.failed == 0:
        values.update(mask_cells(medrec, traced.out))
        values.update(bregman(medrec, traced.report))
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{run_id}.npz")
    record = {"environment": environment(medrec), "geometry": geometry.read_text(),
              "span_summary": summary, "digests": plain_digests}
    return emit(name, seed, 1, checks, values, spec["per_layer"], record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing changes allocation patterns enough to move peak RSS
        # by 10-20% between identical runs, and a second OpenBLAS thread
        # only spins here (same wall time, twice the CPU), which adds noise
        # on a shared machine.  Pin both and start over.
        env = {"OPENBLAS_NUM_THREADS": "1", **os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)
    medrec = import_medrec()
    if args.setup_probe:
        write_geometry(medrec, args.workload, args.seed)
        return 0
    spec = load_benchmark_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if args.trace:
            result = traced_run(medrec, name, args.seed, spec)
        else:
            result = timed_run(medrec, name, args.seed, args.seconds, spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
