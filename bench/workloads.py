"""The benchmark's workloads: inputs made from a seed, rounds run through the public API.

A round runs every trial of a workload once. Rounds of one run repeat the
same inputs, so deterministic outputs (OSPA, counts) do not depend on how
many rounds fit into the measured time. The speed probe (speed.py) runs
before the first trial and after every trial; each trial's times are
scaled by the probes on either side of it.
"""
from __future__ import annotations

import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trackplan.cli
import trackplan.sim
import trackplan.worldgen
from trackplan import OcclusionForest, ScenarioConfig, TargetTrajectory

import checks
import speed

MCR_SAMPLES = 50  # trajectory samples per mcr rollout, the CLI default


@dataclass(frozen=True)
class Case:
    """Inputs of one trial: scenario, forest, target truth and trial seed."""

    index: int
    config: ScenarioConfig
    forest: OcclusionForest
    trajectories: list[TargetTrajectory]
    trial_entropy: tuple[int, ...]


@dataclass
class TrialResult:
    """One trial, or for the batch workload one sweep; ``scale`` is its speed.scale factor."""

    case: object
    wall: float
    log: object = None
    error: str | None = None
    scale: float = 1.0


@dataclass
class RoundResult:
    """One round: per-trial results, timings, outcomes and what the checks found."""

    trials: list[TrialResult] = field(default_factory=list)
    wall: float = 0.0  # behind realtime_factor, scaled: the passing trials, or the whole sweeps
    raw_wall: float = 0.0  # the same wall time, unscaled
    round_wall: float = 0.0  # wall seconds of the whole round, inputs included
    plan_ms: np.ndarray = field(default_factory=lambda: np.empty(0))  # scaled
    raw_plan_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    ospa: np.ndarray = field(default_factory=lambda: np.empty(0))
    simulated_s: float = 0.0
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    raised: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TrialWorkload:
    """Independent closed-loop trials of one planner on the paper scenario.

    ``optimality_checks`` is how many of the scenarios get the scalar
    epoch-0 optimality check; it rolls out every stage candidate in Python.
    With ``scaled`` false no speed probe runs and times stay raw.
    """

    planner: str
    horizon: int
    scenarios: int
    duration: float
    optimality_checks: int = 0
    scaled: bool = True

    def make_inputs(self, seed: int, out_dir: Path) -> list[Case]:
        """Forests and Levy truth for each scenario, generated by the benchmark."""
        config = ScenarioConfig(horizon=self.horizon, duration=self.duration)
        cases = []
        for j in range(self.scenarios):
            forest = trackplan.worldgen.generate_forest(
                config.lam, config.tree_radius, config.aoi, np.random.default_rng([seed, j, 0]), seed=j
            )
            rng = np.random.default_rng([seed, j, 1])
            trajectories = [
                trackplan.worldgen.generate_levy_trajectory(
                    config.duration, config.dt_sense, (config.speed_min, config.speed_max),
                    config.aoi, rng, target_id=t,
                )
                for t in range(config.n_targets)
            ]
            cases.append(Case(j, config, forest, trajectories, (seed, j, 2)))
        return cases

    def run(self, cases: list[Case]) -> RoundResult:
        out = RoundResult()
        probe = speed.probe if self.scaled else lambda: speed.REFERENCE_S
        probes = [probe()]
        for case in cases:
            t0 = time.perf_counter()
            try:
                log = trackplan.sim.run_trial(
                    case.config, case.forest, self.planner, np.random.SeedSequence(case.trial_entropy),
                    trajectories=case.trajectories, mcr_samples=MCR_SAMPLES,
                )
                out.trials.append(TrialResult(case, time.perf_counter() - t0, log=log))
            except Exception:  # a raising trial is a failed operation; keep measuring
                out.trials.append(TrialResult(case, time.perf_counter() - t0, error=traceback.format_exc()))
            probes.append(probe())
        for tr, before, after in zip(out.trials, probes, probes[1:]):
            tr.scale = speed.scale(before, after)
        return out

    def check(self, cases: list[Case], rnd: RoundResult, first: RoundResult | None) -> None:
        """Checks every trial; a trial of a repeated round must equal the first run's."""
        for i, tr in enumerate(rnd.trials):
            if tr.error is not None:
                rnd.raised.append(f"scenario {tr.case.index}:\n{tr.error}")
                continue
            earlier = first.trials[i] if first is not None else None
            try:
                if earlier is not None and earlier.error is None:
                    checks.check_same_log(tr.log, earlier.log)
                else:
                    checks.check_trial(
                        tr.log, tr.case.config, tr.case.forest, tr.case.trajectories, self.planner,
                        optimality=tr.case.index < self.optimality_checks,
                    )
            except checks.CheckError as exc:
                tr.error = str(exc)
                rnd.check_failures.append(f"scenario {tr.case.index}: {exc}")
        good = [tr for tr in rnd.trials if tr.error is None]
        rnd.attempted = len(rnd.trials)
        rnd.failed = rnd.attempted - len(good)
        if good:
            rnd.raw_plan_ms = np.concatenate([tr.log.epoch_plan_seconds * 1000.0 for tr in good])
            rnd.plan_ms = np.concatenate([tr.log.epoch_plan_seconds * 1000.0 * tr.scale for tr in good])
            rnd.ospa = np.concatenate([tr.log.ospa for tr in good])
        rnd.simulated_s = len(good) * self.duration
        rnd.wall = sum(tr.wall * tr.scale for tr in good)
        rnd.raw_wall = sum(tr.wall for tr in good)


@dataclass(frozen=True)
class BatchWorkload:
    """run_experiment sweeps with every artifact written, one worker.

    A round runs ``sweeps`` sweeps, each over every density with ``n_maps``
    maps and a base seed of its own, so that the speed probe runs between
    them. Sweep k of seed n has base seed ``SWEEP_SEEDS * n + k``.
    """

    planner: str
    horizon: int
    lambdas: tuple[float, ...]
    n_maps: int
    duration: float
    sweeps: int = 1

    SWEEP_SEEDS = 1000

    @property
    def sweep_trials(self) -> int:
        return len(self.lambdas) * self.n_maps

    @property
    def trials(self) -> int:
        return self.sweeps * self.sweep_trials

    def make_inputs(self, seed: int, out_dir: Path):
        specs = []
        for k in range(self.sweeps):
            base = ScenarioConfig(seed=self.SWEEP_SEEDS * seed + k, horizon=self.horizon, duration=self.duration)
            specs.append(trackplan.cli.ExperimentSpec(
                base=base,
                planners=(self.planner,),
                horizons=(self.horizon,),
                lambdas=self.lambdas,
                radii=(base.tree_radius,),
                n_maps=self.n_maps,
                out_dir=str(Path(out_dir) / f"sweep{k}"),
                workers=1,
            ))
        return specs

    def run(self, specs) -> RoundResult:
        out = RoundResult()
        probes = [speed.probe()]
        for spec in specs:
            shutil.rmtree(spec.out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            try:
                trackplan.cli.run_experiment(spec)
                out.trials.append(TrialResult(spec, time.perf_counter() - t0))
            except Exception:  # every trial of the sweep is lost with it
                out.trials.append(TrialResult(spec, time.perf_counter() - t0, error=traceback.format_exc()))
            probes.append(speed.probe())
        for tr, before, after in zip(out.trials, probes, probes[1:]):
            tr.scale = speed.scale(before, after)
        return out

    def check(self, specs, rnd: RoundResult, first: RoundResult | None = None) -> None:
        """Checks each sweep's artifacts trial by trial, then removes them."""
        plan_ms, raw_plan_ms, ospa = [], [], []
        rnd.attempted = self.trials
        rnd.failed = 0
        for tr in rnd.trials:
            try:
                if tr.error is not None:
                    rnd.raised.append(f"run_experiment:\n{tr.error}")
                    rnd.failed += self.sweep_trials
                else:
                    sweep = self._check_artifacts(tr.case, rnd)
                    rnd.failed += self.sweep_trials - sweep["good"]
                    raw_plan_ms.extend(sweep["plan_ms"])
                    plan_ms.extend(np.array(sweep["plan_ms"]) * tr.scale)
                    ospa.extend(sweep["ospa"])
                    rnd.simulated_s += sweep["good"] * self.duration
                    rnd.bytes_written += sweep["bytes"]
                rnd.wall += tr.wall * tr.scale
                rnd.raw_wall += tr.wall
            finally:
                shutil.rmtree(tr.case.out_dir, ignore_errors=True)
        rnd.plan_ms = np.array(plan_ms)
        rnd.raw_plan_ms = np.array(raw_plan_ms)
        rnd.ospa = np.array(ospa)

    def _check_artifacts(self, spec, rnd: RoundResult) -> dict:
        """Checks one sweep; returns its passing trials, their epoch times and OSPA, and bytes written."""
        out = Path(spec.out_dir)
        sweep = {"good": 0, "plan_ms": [], "ospa": [], "bytes": 0}
        try:
            checks.check_effective_config(out / "effective_config.ini", spec)
            rows = {row["trial"]: row for row in checks.read_csv(out / "summary.csv")}
        except (checks.CheckError, OSError, ValueError) as exc:
            rnd.check_failures.append(f"sweep artifacts: {exc}")
            return sweep
        base = spec.base
        radius = spec.radii[0]
        plan_ms, ospa = [], []
        n_good = 0
        for ci, lam in enumerate(spec.lambdas):
            cell = f"lam{lam:g}_r{radius:g}"
            config = ScenarioConfig(seed=base.seed, lam=lam, horizon=self.horizon, duration=self.duration)
            for mi in range(spec.n_maps):
                # run_experiment draws map mi of cell ci from SeedSequence([seed, 0, ci, mi])
                forest = trackplan.worldgen.generate_forest(
                    lam, radius, base.aoi,
                    np.random.default_rng(np.random.SeedSequence([base.seed, 0, ci, mi])), seed=mi,
                )
                stem = out / "trials" / cell / f"{self.planner}_H{self.horizon}_map{mi:03d}"
                trial_csv, epochs_csv = Path(f"{stem}.csv"), Path(f"{stem}_epochs.csv")
                row = rows.pop(f"{cell}_map{mi:03d}", None)
                try:
                    checks.check_map(out / "maps" / cell / f"map{mi:03d}.txt", forest, base.aoi, radius)
                    if row is None or row["planner"] != self.planner or int(row["H"]) != self.horizon:
                        raise checks.CheckError(f"no summary row for {cell} map {mi}")
                    checks.check_batch_trial(trial_csv, epochs_csv, row, config)
                except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                    rnd.check_failures.append(f"{cell} map {mi}: {exc}")
                    continue
                plan_ms.extend(float(r["plan_ms"]) for r in checks.read_csv(epochs_csv) if r["agent"] == "0")
                ospa.extend(float(r["ospa"]) for r in checks.read_csv(trial_csv) if r["target_id"] == "0")
                n_good += 1
        if rows:
            rnd.check_failures.append(f"summary.csv has rows for no trial: {sorted(rows)}")
            return sweep
        sweep.update(good=n_good, plan_ms=plan_ms, ospa=ospa)
        sweep["bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return sweep


WORKLOADS = {
    "mwtp-h3": TrialWorkload("sma-nbo-mwtp", 3, scenarios=48, duration=2.0, optimality_checks=4),
    # mcr's kernel streams arrays of about 19 MB; its time does not follow the probe
    "mcr-h3": TrialWorkload("mcr", 3, scenarios=12, duration=2.0, scaled=False),
    "dec-pomdp-h1": TrialWorkload("dec-pomdp", 1, scenarios=72, duration=20.0),
    "batch-h1": BatchWorkload("sma-nbo", 1, lambdas=(30.0, 60.0), n_maps=3, duration=60.0, sweeps=12),
}
