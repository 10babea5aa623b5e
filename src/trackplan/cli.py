"""Batch experiment driver.

Reads an INI-style config, sweeps occlusion density/radius, horizon and
planner, reuses one batch of random maps per parameter cell across all
planners, and emits CSV artifacts: per-trial logs, a deterministic
summary, wall-clock timings and per-cell OSPA ECDFs.

Exit codes: 0 success, 1 configuration error (a bad key or value, or a
dec-pomdp joint search over its budget), 2 runtime error (a forest that
cannot be placed, or a failing trial or write).
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .metrics import ecdf
from .planning import BudgetExceededError, action_set, dec_pomdp_joint_count
from .sim import PLANNERS, TrialLog, run_trial
from .worldgen import (
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
        if self.n_maps < 1:
            raise ConfigError("n_maps must be >= 1")
        if any(h < 1 for h in self.horizons):
            raise ConfigError("horizons must all be >= 1")
        if not all(math.isfinite(v) and v >= 0 for v in self.lambdas):
            raise ConfigError(f"lambdas must be finite and >= 0, got {self.lambdas}")
        if not all(math.isfinite(v) and v > 0 for v in self.radii):
            raise ConfigError(f"radii must be finite and > 0, got {self.radii}")
        for p in self.planners:
            if p not in PLANNERS:
                raise ConfigError(f"unknown planner {p!r}; choose from {PLANNERS}")
        if self.mcr_samples < 1:
            raise ConfigError("mcr_samples must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if "dec-pomdp" in self.planners:
            b = self.base
            n_actions = len(action_set(b.v_max, b.n_headings, b.n_speeds))
            for h in self.horizons:
                try:
                    dec_pomdp_joint_count(n_actions, b.n_agents, h)
                except BudgetExceededError as exc:
                    raise ConfigError(f"dec-pomdp at horizon {h}: {exc}") from exc


_SCENARIO_KEYS = {
    "seed": int,
    "aoi_width": float,
    "aoi_height": float,
    "lambda": float,
    "tree_radius": float,
    "n_agents": int,
    "fov_edges": "floats",
    "alphas": "floats",
    "v_max": float,
    "dt_sense": float,
    "dt_plan": float,
    "horizon": int,
    "sigma_a": float,
    "r0": float,
    "beta": float,
    "ospa_c": float,
    "ospa_p": float,
    "duration": float,
    "n_targets": int,
    "speed_min": float,
    "speed_max": float,
    "n_headings": int,
    "n_speeds": int,
}

_EXPERIMENT_KEYS = {
    "planners": "strs",
    "horizons": "ints",
    "lambdas": "floats",
    "radii": "floats",
    "n_maps": int,
    "out_dir": str,
    "mcr_samples": int,
    "workers": int,
}

# Config sections in the order they are checked and written, as (name, key
# table, path from an ExperimentSpec to the object holding the values).
_SECTIONS = (("scenario", _SCENARIO_KEYS, "base."), ("experiment", _EXPERIMENT_KEYS, ""))

# Config keys that are not plain attributes of their section's object.
_KEY_ATTRS = {"aoi_width": "aoi.width", "aoi_height": "aoi.height", "lambda": "lam"}


def _line_of(path: str, key: str) -> int:
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith((f"{key} ", f"{key}=", f"{key}:", f"{key}\t")) or stripped == key:
            return lineno
    return 0


def _convert(kind, text: str):
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is str:
        return text.strip()
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if kind == "floats":
        return tuple(float(p) for p in parts)
    if kind == "ints":
        return tuple(int(p) for p in parts)
    return tuple(parts)


def parse_config(path: str) -> ExperimentSpec:
    """Parse a key = value config file; unknown keys are hard errors."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in (name for name, _, _ in _SECTIONS):
            raise ConfigError(f"{path}: unknown section [{section}]")
    values: dict[str, dict] = {name: {} for name, _, _ in _SECTIONS}
    for name, keys, _ in _SECTIONS:
        if not parser.has_section(name):
            continue
        for key, raw in parser.items(name):
            if key not in keys:
                raise ConfigError(
                    f"{path}: line {_line_of(path, key)}: unknown {name} key {key!r}"
                )
            try:
                values[name][key] = _convert(keys[key], raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: line {_line_of(path, key)}: bad value for {key!r}: {exc}"
                ) from exc
    return build_spec(values["scenario"], values["experiment"])


def build_spec(scenario_kwargs: dict, exp_kwargs: dict) -> ExperimentSpec:
    """Assemble and validate an ExperimentSpec from parsed key/value maps."""
    width = scenario_kwargs.pop("aoi_width", 150.0)
    height = scenario_kwargs.pop("aoi_height", 100.0)
    if "lambda" in scenario_kwargs:
        scenario_kwargs["lam"] = scenario_kwargs.pop("lambda")
    try:
        base = ScenarioConfig(aoi=Aoi(width, height), **scenario_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    exp_kwargs.setdefault("horizons", (base.horizon,))
    exp_kwargs.setdefault("lambdas", (base.lam,))
    exp_kwargs.setdefault("radii", (base.tree_radius,))
    return ExperimentSpec(base=base, **exp_kwargs)


def _format(kind, value) -> str:
    if kind is float:
        return repr(value)
    if kind == "floats":
        return ",".join(repr(v) for v in value)
    if kind in ("ints", "strs"):
        return ",".join(str(v) for v in value)
    return str(value)


def write_effective_config(spec: ExperimentSpec, path: str) -> None:
    """Emit every effective key so the file re-parses to an equal spec."""
    sections = []
    for name, keys, owner in _SECTIONS:
        lines = [f"[{name}]"]
        for key, kind in keys.items():
            value = attrgetter(owner + _KEY_ATTRS.get(key, key))(spec)
            lines.append(f"{key} = {_format(kind, value)}")
        sections.append("\n".join(lines))
    Path(path).write_text("\n\n".join(sections) + "\n", encoding="utf-8")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_trial_csv(log: TrialLog, path: Path) -> None:
    rows = ["t,target_id,true_x,true_y,est_x,est_y,trace_P,ospa"]
    for k in range(len(log.times)):
        for j, tid in enumerate(log.target_ids):
            rows.append(
                ",".join(
                    (
                        _fmt(log.times[k]),
                        str(tid),
                        _fmt(log.truth[k, j, 0]),
                        _fmt(log.truth[k, j, 1]),
                        _fmt(log.est_mean[k, j, 0]),
                        _fmt(log.est_mean[k, j, 1]),
                        _fmt(log.est_trace[k, j]),
                        _fmt(log.ospa[k]),
                    )
                )
            )
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


def write_epoch_csv(log: TrialLog, path: Path) -> None:
    rows = ["epoch,agent,ux,uy,plan_ms"]
    for m in range(len(log.epoch_times)):
        for i in range(log.epoch_policies.shape[1]):
            rows.append(
                ",".join(
                    (
                        str(m),
                        str(i),
                        _fmt(log.epoch_policies[m, i, 0, 0]),
                        _fmt(log.epoch_policies[m, i, 0, 1]),
                        _fmt(log.epoch_plan_seconds[m] * 1000.0),
                    )
                )
            )
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


def _cell_name(lam: float, radius: float) -> str:
    return f"lam{lam:g}_r{radius:g}"


def _trial_jobs(spec: ExperimentSpec, forests: dict) -> list[tuple]:
    jobs = []
    for ci, (lam, radius) in enumerate(_cells(spec)):
        for mi in range(spec.n_maps):
            for planner in spec.planners:
                for h in spec.horizons:
                    config = replace(
                        spec.base, lam=lam, tree_radius=radius, horizon=h
                    )
                    # Same entropy for every planner/horizon on a map: paired trials.
                    trial_ss = np.random.SeedSequence([spec.base.seed, 1, ci, mi])
                    jobs.append(
                        (
                            (ci, planner, h, mi),
                            config,
                            forests[(ci, mi)],
                            planner,
                            trial_ss,
                            spec.mcr_samples,
                        )
                    )
    return jobs


def _cells(spec: ExperimentSpec) -> list[tuple[float, float]]:
    return [(lam, radius) for lam in spec.lambdas for radius in spec.radii]


def _run_job(job: tuple) -> TrialLog:
    _, config, forest, planner, trial_ss, mcr_samples = job
    return run_trial(config, forest, planner, trial_ss, mcr_samples=mcr_samples)


def _trial_outcomes(jobs: list[tuple], workers: int):
    """Yield (key, TrialLog or the exception it raised) as each trial ends."""
    if workers == 1:
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
    and worker counts (wall-clock goes to timings.csv).
    """
    out = Path(spec.out_dir)
    maps_dir = out / "maps"
    trials_dir = out / "trials"
    ecdf_dir = out / "ecdf"
    for d in (maps_dir, trials_dir, ecdf_dir):
        d.mkdir(parents=True, exist_ok=True)
    write_effective_config(spec, out / "effective_config.ini")

    forests: dict[tuple[int, int], OcclusionForest] = {}
    for ci, (lam, radius) in enumerate(_cells(spec)):
        cell_dir = maps_dir / _cell_name(lam, radius)
        cell_dir.mkdir(parents=True, exist_ok=True)
        for mi in range(spec.n_maps):
            rng = np.random.default_rng(np.random.SeedSequence([spec.base.seed, 0, ci, mi]))
            forest = generate_forest(lam, radius, spec.base.aoi, rng, seed=mi)
            save_map(forest, str(cell_dir / f"map{mi:03d}.txt"))
            forests[(ci, mi)] = load_map(str(cell_dir / f"map{mi:03d}.txt"))

    # Each trial's CSVs are written as it finishes, so a failing trial
    # loses no finished ones; the first failure in job order is re-raised.
    cells = _cells(spec)
    jobs = _trial_jobs(spec, forests)
    results: dict[tuple, TrialLog] = {}
    failures: dict[tuple, Exception] = {}
    for key, outcome in _trial_outcomes(jobs, spec.workers):
        if isinstance(outcome, Exception):
            failures[key] = outcome
            continue
        results[key] = outcome
        ci, planner, h, mi = key
        cell_dir = trials_dir / _cell_name(*cells[ci])
        cell_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{planner}_H{h}_map{mi:03d}"
        write_trial_csv(outcome, cell_dir / f"{stem}.csv")
        write_epoch_csv(outcome, cell_dir / f"{stem}_epochs.csv")
    for job in jobs:
        if job[0] in failures:
            raise failures[job[0]]

    summary_rows = ["trial,planner,H,lambda,radius,mean_ospa,median_ospa,frac_below_1m"]
    timing_rows = ["trial,planner,H,lambda,radius,mean_plan_ms,total_plan_s"]
    series_pool: dict[tuple, list[np.ndarray]] = {}
    for key in sorted(results):
        ci, planner, h, mi = key
        lam, radius = cells[ci]
        log = results[key]
        cell = _cell_name(lam, radius)
        trial_id = f"{cell}_map{mi:03d}"
        summary_rows.append(
            ",".join(
                (
                    trial_id,
                    planner,
                    str(h),
                    _fmt(lam),
                    _fmt(radius),
                    _fmt(float(np.mean(log.ospa))),
                    _fmt(float(np.median(log.ospa))),
                    _fmt(float(np.mean(log.ospa < 1.0))),
                )
            )
        )
        timing_rows.append(
            ",".join(
                (
                    trial_id,
                    planner,
                    str(h),
                    _fmt(lam),
                    _fmt(radius),
                    _fmt(log.timing().mean * 1000.0),
                    _fmt(log.timing().total),
                )
            )
        )
        series_pool.setdefault((ci, planner, h), []).append(log.ospa)
    (out / "summary.csv").write_text("\n".join(summary_rows) + "\n", encoding="ascii")
    (out / "timings.csv").write_text("\n".join(timing_rows) + "\n", encoding="ascii")

    for (ci, planner, h), series in sorted(series_pool.items()):
        lam, radius = cells[ci]
        pairs = ecdf(np.concatenate(series))
        rows = ["value,frequency"]
        rows.extend(f"{_fmt(v)},{_fmt(f)}" for v, f in pairs)
        name = f"{_cell_name(lam, radius)}_{planner}_H{h}.csv"
        (ecdf_dir / name).write_text("\n".join(rows) + "\n", encoding="ascii")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackplan",
        description="Batch multi-sensor target-tracking experiments. "
        "Flags override config-file keys.",
    )
    parser.add_argument("--config", help="INI config file ([scenario] / [experiment])")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument(
        "--planner", choices=PLANNERS, help="single planner to run (default sma-nbo)"
    )
    parser.add_argument("--horizon", type=int, help="single planning horizon (default 1)")
    parser.add_argument(
        "--lambda", dest="lam", type=float, help="expected occlusion count (default 45)"
    )
    parser.add_argument("--radius", type=float, help="occlusion radius in m (default 5)")
    parser.add_argument("--maps", type=int, help="random maps per cell (default 1)")
    parser.add_argument("--duration", type=float, help="trial length in s (default 60)")
    parser.add_argument("--out", help="output directory (default results)")
    parser.add_argument(
        "--mwtp",
        action="store_true",
        help="enable the terminal weighted-trace penalty (sma-nbo becomes sma-nbo-mwtp)",
    )
    parser.add_argument(
        "--mcr-samples", type=int, help="Monte-Carlo trajectory samples (default 50)"
    )
    parser.add_argument("--workers", type=int, help="parallel trial workers (default 1)")
    return parser


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    base = spec.base
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    if args.duration is not None:
        base = replace(base, duration=args.duration)
    updates: dict = {"base": base}
    if args.planner is not None:
        updates["planners"] = (args.planner,)
    if args.horizon is not None:
        updates["horizons"] = (args.horizon,)
    if args.lam is not None:
        updates["lambdas"] = (args.lam,)
    if args.radius is not None:
        updates["radii"] = (args.radius,)
    if args.maps is not None:
        updates["n_maps"] = args.maps
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.mcr_samples is not None:
        updates["mcr_samples"] = args.mcr_samples
    if args.workers is not None:
        updates["workers"] = args.workers
    spec = replace(spec, **updates)
    if args.mwtp:
        planners = tuple(
            "sma-nbo-mwtp" if p == "sma-nbo" else p for p in spec.planners
        )
        spec = replace(spec, planners=planners)
    return spec


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            spec = parse_config(args.config)
        else:
            spec = build_spec({}, {})
        spec = _apply_overrides(spec, args)
    except ValueError as exc:  # ConfigError, or a flag that breaks ScenarioConfig
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        out = run_experiment(spec)
    except (ForestPlacementError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote artifacts to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
