"""Batch experiment driver.

Reads an INI-style config, sweeps occlusion density/radius, horizon and
planner, reuses one batch of random maps per parameter cell across all
planners, and emits CSV artifacts: per-trial logs, a deterministic
summary, wall-clock timings and per-cell OSPA ECDFs.

Exit codes: 0 success, 1 configuration error (a bad key or value, an
action set, a dec-pomdp joint search or an mcr kernel over its budget, or
a forest that cannot be placed), 2 runtime error (a failing trial or write).
"""
from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .metrics import ecdf
from .planning import BEAM_WIDTH, EXHAUSTIVE_LIMIT, BudgetExceededError, action_count
from .planning import dec_pomdp_joint_count, mcr_memory
from .sim import PLANNERS, TrialLog, run_trial
from .worldgen import (
    MAX_INT,
    Aoi,
    ForestPlacementError,
    OcclusionForest,
    ScenarioConfig,
    generate_forest,
    load_map,
    save_map,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


class TrialError(RuntimeError):
    """A trial raised; the message names its cell and file stem."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: base scenario plus sweep lists."""

    base: ScenarioConfig
    planners: tuple[str, ...] = ("sma-nbo",)
    horizons: tuple[int, ...] = (1,)
    lambdas: tuple[float, ...] = (45.0,)
    radii: tuple[float, ...] = (5.0,)
    n_maps: int = 1
    out_dir: str = "results"
    mcr_samples: int = 50
    workers: int = 1

    def __post_init__(self) -> None:
        if not (self.planners and self.horizons and self.lambdas and self.radii):
            raise ConfigError("sweep lists must be non-empty")
        for name in ("n_maps", "mcr_samples", "workers"):
            if not 1 <= getattr(self, name) <= MAX_INT:
                raise ConfigError(f"{name} must be >= 1 and <= {MAX_INT}")
        for p in self.planners:
            if p not in PLANNERS:
                raise ConfigError(f"unknown planner {p!r}; choose from {PLANNERS}")
        # Each sweep cell is checked as the scenario its trials will run.
        try:
            configs = _cell_configs(self)
        except ValueError as exc:
            raise ConfigError(f"invalid sweep: {exc}") from exc
        # A repeat would write two trials to the same files.
        for label, values in (
            ("planners", self.planners),
            ("horizons", self.horizons),
            ("lambdas and radii", [f"cell {_cell_name(*cell)}" for cell in _cells(self)]),
        ):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{label} list {repeated[0]} twice")
        n_actions = action_count(self.base.n_headings, self.base.n_speeds)
        # Every stage scores each action at its first level, and a beam level
        # holds all its children at once, so no planner is sized for more
        # actions than one exhaustive stage scores.
        if n_actions > EXHAUSTIVE_LIMIT:
            raise ConfigError(
                f"n_headings x n_speeds gives {n_actions} actions with hover, "
                f"more than the {EXHAUSTIVE_LIMIT} a planning stage scores exhaustively"
            )
        if "dec-pomdp" in self.planners:
            for config in configs.values():
                try:
                    dec_pomdp_joint_count(n_actions, config.n_agents, config.horizon)
                except BudgetExceededError as exc:
                    raise ConfigError(f"dec-pomdp at horizon {config.horizon}: {exc}") from exc
        # A sweep stage scores the |A|^h sequences while they are at most
        # EXHAUSTIVE_LIMIT, else a beam's |A| + (h - 1) x BEAM_WIDTH x |A|.
        # The beam's count is within the limit wherever |A|^h is, so bounding
        # it sizes no stage for more sequences than one exhaustive stage.
        for h in self.horizons:
            beam = n_actions * (1 + (h - 1) * BEAM_WIDTH)
            if beam > EXHAUSTIVE_LIMIT:
                raise ConfigError(
                    f"horizon {h}: a beam stage of {n_actions} actions scores {beam} "
                    f"sequences, more than the {EXHAUSTIVE_LIMIT} a planning stage scores"
                )
        if "mcr" in self.planners:
            for config in configs.values():
                try:
                    mcr_memory(self.mcr_samples, config.n_targets, config.horizon)
                except BudgetExceededError as exc:
                    raise ConfigError(f"mcr_samples: {exc}") from exc


def _keys(cls) -> dict[str, tuple[str, object]]:
    """A config dataclass's keys in field order: key -> (attribute path, type).

    An Aoi field gives one key per side, a ScenarioConfig field is the
    [scenario] section, and ``lam`` is ``lambda``, a Python keyword.
    """
    keys: dict[str, tuple[str, object]] = {}
    for name, kind in get_type_hints(cls).items():
        if kind is Aoi:
            for side, side_kind in get_type_hints(Aoi).items():
                keys[f"{name}_{side}"] = (f"{name}.{side}", side_kind)
        elif kind is not ScenarioConfig:
            keys["lambda" if name == "lam" else name] = (name, kind)
    return keys


# Config sections in the order they are checked and written: name -> (key
# table, path from an ExperimentSpec to the object holding the values).
_SECTIONS = {
    "scenario": (_keys(ScenarioConfig), "base."),
    "experiment": (_keys(ExperimentSpec), ""),
}

# Command-line flags as (flag, section, key). A flag's text is read as the
# key's value in a config file would be, and replaces the file's value.
_FLAGS = (
    ("--seed", "scenario", "seed"),
    ("--planner", "experiment", "planners"),
    ("--horizon", "experiment", "horizons"),
    ("--lambda", "experiment", "lambdas"),
    ("--radius", "experiment", "radii"),
    ("--maps", "experiment", "n_maps"),
    ("--duration", "scenario", "duration"),
    ("--out", "experiment", "out_dir"),
    ("--mcr-samples", "experiment", "mcr_samples"),
    ("--workers", "experiment", "workers"),
)


def _line_of(path: str, section: str, key: str) -> int:
    """Line of ``key`` in ``[section]``; keys compare as configparser reads them."""
    current = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1]
        elif current == section and re.match("[^=:]*", stripped)[0].strip().lower() == key:
            return lineno
    return 0


def _convert(kind, text: str):
    """Text as a value of type ``kind``; ``tuple[T, ...]`` is a comma list of T."""
    if get_origin(kind) is tuple:
        return tuple(_convert(get_args(kind)[0], p) for p in text.split(",") if p.strip())
    return kind(text.strip())


def _read_config(path: str) -> dict[str, dict]:
    """Converted values of a config file, by section; unknown keys are hard errors."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    for name, (keys, _) in _SECTIONS.items():
        if not parser.has_section(name):
            continue
        for key, raw in parser.items(name):
            if key not in keys:
                raise ConfigError(
                    f"{path}: line {_line_of(path, name, key)}: unknown {name} key {key!r}"
                )
            try:
                values[name][key] = _convert(keys[key][1], raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: line {_line_of(path, name, key)}: bad value for {key!r}: {exc}"
                ) from exc
    return values


def parse_config(path: str) -> ExperimentSpec:
    """Parse a key = value config file; unknown keys are hard errors."""
    values = _read_config(path)
    return build_spec(values["scenario"], values["experiment"])


def build_spec(scenario_kwargs: dict, exp_kwargs: dict) -> ExperimentSpec:
    """Assemble and validate an ExperimentSpec from parsed key/value maps."""
    fields: dict = {}
    aoi: dict = {}
    for key, value in scenario_kwargs.items():
        name, _, side = _SECTIONS["scenario"][0][key][0].partition(".")
        if side:
            aoi[side] = value
        else:
            fields[name] = value
    try:
        base = ScenarioConfig(aoi=replace(ScenarioConfig.aoi, **aoi), **fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    sweep = {"horizons": (base.horizon,), "lambdas": (base.lam,), "radii": (base.tree_radius,)}
    return ExperimentSpec(base=base, **{**sweep, **exp_kwargs})


def _format(kind, value) -> str:
    if get_origin(kind) is tuple:
        return ",".join(_format(get_args(kind)[0], v) for v in value)
    return repr(value) if kind is float else str(value)


def _key_text(spec: ExperimentSpec, section: str, key: str) -> str:
    """The value of ``key`` in spec, as a config file states it."""
    keys, owner = _SECTIONS[section]
    attr, kind = keys[key]
    return _format(kind, attrgetter(owner + attr)(spec))


def write_effective_config(spec: ExperimentSpec, path: str) -> None:
    """Emit every effective key so the file re-parses to an equal spec."""
    sections = [
        "\n".join([f"[{name}]", *(f"{key} = {_key_text(spec, name, key)}" for key in keys)])
        for name, (keys, _) in _SECTIONS.items()
    ]
    Path(path).write_text("\n\n".join(sections) + "\n", encoding="utf-8")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and then each row, a sequence of formatted cells, as one line."""
    lines = [header, *(",".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_trial_csv(log: TrialLog, path: Path) -> None:
    # Float cells per step and target: true x, y, estimated x, y, trace P, step OSPA.
    floats = np.concatenate(
        (
            log.truth[..., :2],
            log.est_mean[..., :2],
            log.est_trace[..., None],
            np.broadcast_to(log.ospa[:, None, None], log.est_trace.shape + (1,)),
        ),
        axis=2,
    )
    _write_csv(
        path,
        "t,target_id,true_x,true_y,est_x,est_y,trace_P,ospa",
        (
            (_fmt(t), str(tid), *map(_fmt, cells))
            for t, step in zip(log.times.tolist(), floats.tolist())
            for tid, cells in zip(log.target_ids, step)
        ),
    )


def write_epoch_csv(log: TrialLog, path: Path) -> None:
    plan_ms = (log.epoch_plan_seconds * 1000.0).tolist()
    _write_csv(
        path,
        "epoch,agent,ux,uy,plan_ms",
        (
            (str(m), str(i), _fmt(ux), _fmt(uy), _fmt(plan_ms[m]))
            for m, first_actions in enumerate(log.epoch_policies[:, :, 0].tolist())
            for i, (ux, uy) in enumerate(first_actions)
        ),
    )


def _cell_name(lam: float, radius: float) -> str:
    return f"lam{lam:g}_r{radius:g}"


def _trial_name(cells: list[tuple[float, float]], key: tuple) -> str:
    """'<cell>/<stem>' of the trial at job key (cell index, planner, horizon, map)."""
    ci, planner, h, mi = key
    return f"{_cell_name(*cells[ci])}/{planner}_H{h}_map{mi:03d}"


def _cells(spec: ExperimentSpec) -> list[tuple[float, float]]:
    return [(lam, radius) for lam in spec.lambdas for radius in spec.radii]


def _cell_configs(spec: ExperimentSpec) -> dict[tuple[int, int], ScenarioConfig]:
    """The scenario run at each (cell index, horizon) of the sweep."""
    return {
        (ci, h): replace(spec.base, lam=lam, tree_radius=radius, horizon=h)
        for ci, (lam, radius) in enumerate(_cells(spec))
        for h in spec.horizons
    }


def _trial_jobs(spec: ExperimentSpec, forests: dict) -> list[tuple]:
    # Same entropy for every planner/horizon on a map: paired trials. Jobs
    # run map by map, in the order the forests were drawn.
    configs = _cell_configs(spec)
    return [
        (
            (ci, planner, h, mi),
            configs[ci, h],
            forest,
            planner,
            np.random.SeedSequence([spec.base.seed, 1, ci, mi]),
            spec.mcr_samples,
        )
        for (ci, mi), forest in forests.items()
        for planner in spec.planners
        for h in spec.horizons
    ]


def _run_job(job: tuple) -> TrialLog:
    _, config, forest, planner, trial_ss, mcr_samples = job
    return run_trial(config, forest, planner, trial_ss, mcr_samples=mcr_samples)


def _usable_cpus() -> int:
    """CPUs this process may run on, or the machine's count where unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_outcomes(jobs: list[tuple], workers: int):
    """Yield (key, TrialLog or the exception it raised) as each trial ends."""
    # a pool starts all its processes at once
    workers = min(workers, len(jobs), _usable_cpus())
    if workers <= 1:
        for job in jobs:
            try:
                yield job[0], _run_job(job)
            except Exception as exc:
                yield job[0], exc
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_job, job): job[0] for job in jobs}
        for future in as_completed(futures):
            yield futures[future], future.exception() or future.result()


def run_experiment(spec: ExperimentSpec) -> Path:
    """Run the full sweep and write all artifacts under spec.out_dir.

    Map batches are generated once per (lambda, radius) cell and shared by
    every planner and horizon; the summary CSV is byte-stable across runs
    and worker counts (wall-clock goes to timings.csv). Every forest is
    drawn before anything is written, so a ForestPlacementError leaves no
    output behind.
    """
    cells = _cells(spec)
    forests: dict[tuple[int, int], OcclusionForest] = {}
    for ci, (lam, radius) in enumerate(cells):
        for mi in range(spec.n_maps):
            rng = np.random.default_rng(np.random.SeedSequence([spec.base.seed, 0, ci, mi]))
            try:
                forests[ci, mi] = generate_forest(lam, radius, spec.base.aoi, rng, seed=mi)
            except ForestPlacementError as exc:
                raise ForestPlacementError(
                    f"lambda {lam!r}, radius {radius!r}, map {mi}: {exc}"
                ) from exc

    out = Path(spec.out_dir)
    maps_dir = out / "maps"
    trials_dir = out / "trials"
    ecdf_dir = out / "ecdf"
    for d in (maps_dir, trials_dir, ecdf_dir):
        d.mkdir(parents=True, exist_ok=True)
    write_effective_config(spec, out / "effective_config.ini")
    for (ci, mi), forest in forests.items():
        path = maps_dir / _cell_name(*cells[ci]) / f"map{mi:03d}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        save_map(forest, str(path))
        forests[ci, mi] = load_map(str(path))

    # Each trial's CSVs are written as it finishes, so a failing trial
    # loses no finished ones; the first failure in job order is raised as
    # a TrialError.
    jobs = _trial_jobs(spec, forests)
    results: dict[tuple, TrialLog] = {}
    failures: dict[tuple, Exception] = {}
    for key, outcome in _trial_outcomes(jobs, spec.workers):
        if isinstance(outcome, Exception):
            failures[key] = outcome
            continue
        results[key] = outcome
        name = _trial_name(cells, key)
        (trials_dir / name).parent.mkdir(parents=True, exist_ok=True)
        write_trial_csv(outcome, trials_dir / f"{name}.csv")
        write_epoch_csv(outcome, trials_dir / f"{name}_epochs.csv")
    for key, *_ in jobs:
        if key in failures:
            exc = failures[key]
            message = " ".join(str(exc).splitlines())
            raise TrialError(f"{_trial_name(cells, key)}: {type(exc).__name__}: {message}") from exc

    summary_rows = []
    timing_rows = []
    series_pool: dict[tuple, list[np.ndarray]] = {}
    for key in sorted(results):
        ci, planner, h, mi = key
        lam, radius = cells[ci]
        log = results[key]
        trial = (f"{_cell_name(lam, radius)}_map{mi:03d}", planner, str(h), _fmt(lam), _fmt(radius))
        summary_rows.append(
            (
                *trial,
                _fmt(float(np.mean(log.ospa))),
                _fmt(float(np.median(log.ospa))),
                _fmt(float(np.mean(log.ospa < 1.0))),
            )
        )
        plan_s = log.epoch_plan_seconds
        timing_rows.append(
            (*trial, _fmt(float(np.mean(plan_s)) * 1000.0), _fmt(float(np.sum(plan_s))))
        )
        series_pool.setdefault((ci, planner, h), []).append(log.ospa)
    trial_header = "trial,planner,H,lambda,radius"
    _write_csv(
        out / "summary.csv", f"{trial_header},mean_ospa,median_ospa,frac_below_1m", summary_rows
    )
    _write_csv(out / "timings.csv", f"{trial_header},mean_plan_ms,total_plan_s", timing_rows)

    for (ci, planner, h), series in sorted(series_pool.items()):
        name = f"{_cell_name(*cells[ci])}_{planner}_H{h}.csv"
        pairs = ecdf(np.concatenate(series))
        _write_csv(ecdf_dir / name, "value,frequency", ((_fmt(v), _fmt(f)) for v, f in pairs))
    return out


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError, not a usage block."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="trackplan",
        description="Batch multi-sensor target-tracking experiments. "
        "Each flag sets the config key its help names, over the file's value.",
    )
    parser.add_argument("--config", help="INI config file ([scenario] / [experiment])")
    defaults = build_spec({}, {})
    for flag, section, key in _FLAGS:
        parser.add_argument(
            flag,
            dest=key,
            metavar=key.upper(),
            help=f"sets [{section}] {key} (default {_key_text(defaults, section, key)})",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        values = _read_config(args.config) if args.config else {name: {} for name in _SECTIONS}
        for flag, section, key in _FLAGS:
            text = getattr(args, key)
            if text is None:
                continue
            try:
                values[section][key] = _convert(_SECTIONS[section][0][key][1], text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {flag}: {exc}") from exc
        spec = build_spec(values["scenario"], values["experiment"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        out = run_experiment(spec)
    except ForestPlacementError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TrialError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote artifacts to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
