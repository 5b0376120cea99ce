"""The benchmark's traced layers are names the library still binds.

bench/run.py times each layer by replacing a module attribute with a
wrapper.  A renamed or removed attribute would only show in the traced
benchmark run; here the same wiring runs against a tracer that wraps
nothing and only checks that each attribute is there to wrap.
"""

import importlib.util
from pathlib import Path

import medrec

BENCH = Path(__file__).resolve().parent.parent / "bench"


class BoundNames:
    """Stands in for bench/spans.Tracer: records each wrapped name and
    checks that the attribute it would replace is callable."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, on_result=None):
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr} ({name})"
        self.wrapped.append(name)


def test_benchmark_traced_names_stay_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))      # run.py imports its spans module
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = BoundNames()
    run.install_layer_spans(medrec, tracer, {})
    assert {"model.eval_J", "model.state_normal_residual",
            "optimizer.solve_coefficient_subproblem", "optimizer.state_factor",
            "regularization.prox_l1_box",
            "regularization.bregman_distance"} <= set(tracer.wrapped)
