"""Every function the benchmark's tracer wraps exists where it looks it up."""
import ast
import importlib
from pathlib import Path

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
