"""Spans around trackplan's public functions, recorded from outside the program.

Each wrapped function is replaced where its caller looks it up (for example
``trackplan.sim.sense``, the name run_trial calls), so the program itself
is unchanged. Spans are kept in memory as (name, start, end, parent, count)
and written out when the benchmark ends.
"""
from __future__ import annotations

import functools
import json
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _sum_observations(result) -> int:
    return sum(len(per_agent) for per_agent in result)


def _rollout_evals(result) -> int:
    return int(result[1].rollout_evals)


# (module, attribute, span name, count of work taken from the return value)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("trackplan.sim", "run_trial", "sim.trial", None),
    ("trackplan.cli", "run_trial", "sim.trial", None),
    ("trackplan.sim", "sense", "sensing.sense", _sum_observations),
    ("trackplan.sim", "fuse", "estimation.fuse", None),
    ("trackplan.sim", "ospa", "metrics.ospa", None),
    ("trackplan.sim", "sma_nbo_plan", "planning.plan", _rollout_evals),
    ("trackplan.sim", "mcr_plan", "planning.plan", _rollout_evals),
    ("trackplan.sim", "dec_pomdp_plan", "planning.plan", _rollout_evals),
    ("trackplan.planning", "mwtp_detailed", "planning.mwtp", None),
    ("trackplan.worldgen", "generate_forest", "worldgen.forest", len),
    ("trackplan.cli", "generate_forest", "worldgen.forest", len),
    ("trackplan.worldgen", "generate_levy_trajectory", "worldgen.levy", None),
    ("trackplan.sim", "generate_levy_trajectory", "worldgen.levy", None),
    ("trackplan.cli", "write_trial_csv", "cli.write", None),
    ("trackplan.cli", "write_epoch_csv", "cli.write", None),
    ("trackplan.cli", "write_effective_config", "cli.write", None),
    ("trackplan.cli", "save_map", "cli.map_io", None),
    ("trackplan.cli", "load_map", "cli.map_io", None),
)


@dataclass
class Tracer:
    """In-memory span recorder; spans[i] = [name, start, end, parent, count]."""

    spans: list[list] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper, and restore on exit.

        ``pathlib.Path.write_text`` is wrapped too, because run_experiment
        writes the summary, timings and ECDF files with it directly.
        """
        import importlib

        saved = []
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))
        original_write = pathlib.Path.write_text
        pathlib.Path.write_text = self.wrap("cli.write", original_write)
        try:
            yield self
        finally:
            pathlib.Path.write_text = original_write
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "count": count}) + "\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and summed counts.

    Self time is a span's duration minus that of its direct children; a span
    nested in one of the same name (a writer calling write_text) adds its
    count but not its time again.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and spans[parent][0] != name:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, count) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "count": 0})
        row["count"] += count
        if parent >= 0 and spans[parent][0] == name:
            continue
        row["calls"] += 1
        row["seconds"] += end - start
        row["self_seconds"] += end - start - child_time[i]
    return out
