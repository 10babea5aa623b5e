"""Every function the benchmark's tracer wraps exists where it looks it up, and its
work counters read what the program returns."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from trackplan import (
    FleetBelief,
    OcclusionForest,
    Sensor,
    action_set,
    extend_intent,
    ncv_model,
    sense,
    sma_nbo_plan,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    """(module, attribute) of each TARGETS row, read without importing bench."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def _tracing_module(monkeypatch):
    """bench/tracing.py, loaded from its path; registered while the test runs,
    as its dataclasses need."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_counters_read_real_results(monkeypatch):
    tracing = _tracing_module(monkeypatch)
    sensors = (Sensor(), Sensor(fov_edge=40.0))
    xy = np.array([[10.0, 10.0], [20.0, 10.0]])
    targets = np.array([[12.0, 12.0], [25.0, 10.0], [90.0, 90.0], [15.0, 15.0]])
    forest = OcclusionForest(disks=((15.0, 15.0, 1.0),))
    # agent 0 sees target 0; agent 1 sees targets 0 and 1; target 3 is hidden
    observations = sense(sensors, xy, (4, 5, 6, 7), targets, forest, np.random.default_rng(0))
    assert [len(batch) for batch in observations] == [1, 2]
    assert tracing._sum_observations(observations) == 3

    belief = FleetBelief((4, 5), np.array([[12.0, 12.0, 0, 0], [25.0, 10.0, 0, 0]]),
                         np.tile(np.eye(4), (2, 1, 1)), xy, sensors)
    result = sma_nbo_plan(belief, extend_intent(None, 2, 2), action_set(5.0, 4, 1), forest,
                          ncv_model(1.0, 1.0))
    assert tracing._rollout_evals(result) == result[1].rollout_evals == 2 * 5**2
