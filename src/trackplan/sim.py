"""Closed-loop trial: sense and fuse at the fine rate, plan at the coarse rate.

Agents execute only the first action of each freshly planned policy and
hold it (zero-order) across the fine sensing sub-steps until the next
decision epoch. Target truth is precomputed and open loop: agent motion
never influences the targets. Agent poses (px, py, psi, vx, vy) live only
in the loop's (n, 5) array and the tracks as stacks. Each agent's Sensor is
built once per trial; each epoch's FleetBelief takes a copy of the poses'
positions.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .estimation import FleetBelief, NcvModel, fuse, ncv_model
from .metrics import OspaParams, ospa
from .planning import action_set, dec_pomdp_plan, extend_intent, mcr_plan, sma_nbo_plan
from .sensing import Sensor, sense
from .worldgen import DEFAULT_P0, OcclusionForest, ScenarioConfig, TargetTrajectory
from .worldgen import generate_levy_trajectory


@dataclass(frozen=True)
class _PlanInputs:
    """Planner inputs that stay fixed for a whole trial."""

    h: int
    actions: np.ndarray
    forest: OcclusionForest
    model: NcvModel
    beta: float
    mcr_samples: int
    rng: np.random.Generator


# One epoch's planning call per planner. The planner functions are looked
# up in this module when called, so rebinding them here takes effect.
_EPOCH_CALLS = {
    "sma-nbo": lambda belief, intents, p: sma_nbo_plan(
        belief, intents, p.actions, p.forest, p.model
    ),
    "sma-nbo-mwtp": lambda belief, intents, p: sma_nbo_plan(
        belief, intents, p.actions, p.forest, p.model, beta=p.beta
    ),
    "dec-pomdp": lambda belief, intents, p: dec_pomdp_plan(
        belief, p.h, p.actions, p.forest, p.model
    ),
    "mcr": lambda belief, intents, p: mcr_plan(
        belief, intents, p.actions, p.forest, p.model, p.mcr_samples, p.rng
    ),
}
PLANNERS = tuple(_EPOCH_CALLS)


@dataclass
class TrialLog:
    """Time-indexed record of one trial.

    Sensing-rate arrays are indexed by sub-step, planning-rate arrays by
    epoch. Wall-clock entries are the only nondeterministic content, so
    reproducibility checks go through deterministic_equal.
    """

    target_ids: tuple[int, ...]
    dt_sense: float
    dt_plan: float
    times: np.ndarray = field(repr=False)  # (K,)
    truth: np.ndarray = field(repr=False)  # (K, T, 4)
    est_mean: np.ndarray = field(repr=False)  # (K, T, 4)
    est_trace: np.ndarray = field(repr=False)  # (K, T)
    ospa: np.ndarray = field(repr=False)  # (K,)
    agent_states: np.ndarray = field(repr=False)  # (K, n, 5)
    epoch_times: np.ndarray = field(repr=False)  # (M,)
    epoch_policies: np.ndarray = field(repr=False)  # (M, n, H, 2)
    epoch_plan_seconds: np.ndarray = field(repr=False)  # (M,)
    epoch_rollout_evals: np.ndarray = field(repr=False)  # (M,)

    def deterministic_equal(self, other: "TrialLog") -> bool:
        """Bit equality of every field except planner wall-clock."""
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
            if f.name != "epoch_plan_seconds"
        )


def _check_forest(forest: OcclusionForest, config: ScenarioConfig) -> None:
    for cx, cy, _ in forest.disks:
        if not config.aoi.contains(cx, cy):
            raise ValueError(f"forest disk center ({cx}, {cy}) outside the AOI")


def run_trial(
    config: ScenarioConfig,
    forest: OcclusionForest,
    planner: str,
    seed,
    trajectories: list[TargetTrajectory] | None = None,
    mcr_samples: int = 50,
) -> TrialLog:
    """Run one deterministic closed-loop trial and log everything.

    ``seed`` may be an int or a numpy SeedSequence; identical seeds yield
    bit-identical logs apart from wall-clock. ``trajectories`` overrides
    the Levy-walk target truth with scripted paths of finite (n, 4)
    samples taken every dt_sense; an empty list runs with no targets.
    """
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; choose from {PLANNERS}")
    _check_forest(forest, config)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    traj_ss, noise_ss, mcr_ss = ss.spawn(3)
    rng_noise = np.random.default_rng(noise_ss)

    n_steps = round(config.duration / config.dt_sense)
    n_epochs = round(config.duration / config.dt_plan)
    ratio = config.plan_ratio
    h = config.horizon

    if trajectories is None:
        rng_traj = np.random.default_rng(traj_ss)
        trajectories = [
            generate_levy_trajectory(
                config.duration,
                config.dt_sense,
                (config.speed_min, config.speed_max),
                config.aoi,
                rng_traj,
                target_id=t,
            )
            for t in range(config.n_targets)
        ]
    for traj in trajectories:
        samples = np.asarray(traj.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 4 or not np.isfinite(samples).all():
            problem = f"must hold finite (n, 4) samples, got shape {samples.shape}"
        elif not math.isclose(traj.dt, config.dt_sense, rel_tol=1e-9):
            problem = f"is sampled every {traj.dt} s, not every dt_sense = {config.dt_sense} s"
        elif len(traj) < n_steps + 1:
            problem = f"too short: {len(traj)} samples, need {n_steps + 1}"
        else:
            continue
        raise ValueError(f"trajectory of target {traj.target_id} {problem}")
    target_ids = tuple(traj.target_id for traj in trajectories)
    n_targets = len(trajectories)

    n = config.n_agents
    sensors = tuple(Sensor(f, a, config.r0) for f, a in zip(config.fov_edges, config.alphas))
    model_fine = ncv_model(config.dt_sense, config.sigma_a)
    params = OspaParams(c=config.ospa_c, p=config.ospa_p)
    plan_inputs = _PlanInputs(
        h=h, actions=action_set(config.v_max, config.n_headings, config.n_speeds),
        forest=forest, model=ncv_model(config.dt_plan, config.sigma_a), beta=config.beta,
        mcr_samples=mcr_samples, rng=np.random.default_rng(mcr_ss),
    )

    truth = np.empty((n_steps + 1, n_targets, 4))
    for t, traj in enumerate(trajectories):
        truth[:, t] = traj.samples[: n_steps + 1]
    # tracks start at the first truth sample with zero velocity
    xi = np.pad(truth[0, :, :2], ((0, 0), (0, 2)))
    p = np.tile(np.diag(DEFAULT_P0), (n_targets, 1, 1))
    # agents start evenly spaced along the AOI midline, at rest facing +x
    poses = np.zeros((n, 5))
    poses[:, 0] = [config.aoi.width * (i + 1) / (n + 1) for i in range(n)]
    poses[:, 1] = config.aoi.height / 2.0

    log = TrialLog(
        target_ids=target_ids,
        dt_sense=config.dt_sense,
        dt_plan=config.dt_plan,
        times=np.arange(1, n_steps + 1) * config.dt_sense,
        truth=truth[1:],
        est_mean=np.empty((n_steps, n_targets, 4)),
        est_trace=np.empty((n_steps, n_targets)),
        ospa=np.empty(n_steps),
        agent_states=np.empty((n_steps, n, 5)),
        epoch_times=np.arange(n_epochs) * config.dt_plan,
        epoch_policies=np.empty((n_epochs, n, h, 2)),
        epoch_plan_seconds=np.empty(n_epochs),
        epoch_rollout_evals=np.empty(n_epochs, dtype=np.int64),
    )

    previous = None
    for m in range(n_epochs):
        intents = extend_intent(previous, h, n)
        # a copy: the planner may keep its belief while the poses move on
        belief = FleetBelief(target_ids, xi, p, poses[:, :2].copy(), sensors)
        start = time.perf_counter()
        joint, stats = _EPOCH_CALLS[planner](belief, intents, plan_inputs)
        log.epoch_plan_seconds[m] = time.perf_counter() - start
        previous = joint
        log.epoch_rollout_evals[m] = stats.rollout_evals
        log.epoch_policies[m] = joint

        held = joint[:, 0]
        for i, (ux, uy) in enumerate(held.tolist()):
            if ux != 0.0 or uy != 0.0:  # hover keeps the previous yaw
                poses[i, 2] = math.atan2(uy, ux)
        poses[:, 3:] = held
        for k in range(m * ratio, (m + 1) * ratio):
            poses[:, :2] += held * config.dt_sense
            observations = sense(
                sensors, poses[:, :2], target_ids, log.truth[k, :, :2], forest, rng_noise
            )
            xi, p = fuse(observations, target_ids, xi, p, model_fine)
            log.est_mean[k] = xi
            log.est_trace[k] = np.trace(p, axis1=1, axis2=2)
            log.agent_states[k] = poses
    log.ospa[:] = ospa(log.est_mean[..., :2], log.truth[..., :2], params)
    return log
