"""Closed-loop trial: sense and fuse at the fine rate, plan at the coarse rate.

Agents execute only the first action of each freshly planned policy and
hold it (zero-order) across the fine sensing sub-steps until the next
decision epoch. Target truth is precomputed and open loop: agent motion
never influences the targets.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .estimation import FleetBelief, NcvModel, initialize_track, fuse, ncv_model
from .metrics import OspaParams, TimingRecord, ospa
from .planning import (
    Action,
    PolicySeq,
    action_set,
    dec_pomdp_plan,
    extend_intent,
    mcr_plan,
    propagate_agent,
    sma_nbo_plan,
)
from .sensing import AgentState, sense
from .worldgen import OcclusionForest, ScenarioConfig, TargetTrajectory, generate_levy_trajectory


@dataclass(frozen=True)
class _PlanInputs:
    """Planner inputs that stay fixed for a whole trial."""

    h: int
    actions: list[Action]
    forest: OcclusionForest
    model: NcvModel
    beta: float
    mcr_samples: int
    rng: np.random.Generator


# One epoch's planning call per planner. The planner functions are looked
# up in this module when called, so rebinding them here takes effect.
_EPOCH_CALLS = {
    "sma-nbo": lambda belief, intents, p: sma_nbo_plan(
        belief, intents, p.h, p.actions, p.forest, p.model
    ),
    "sma-nbo-mwtp": lambda belief, intents, p: sma_nbo_plan(
        belief, intents, p.h, p.actions, p.forest, p.model, hectg="mwtp", beta=p.beta
    ),
    "dec-pomdp": lambda belief, intents, p: dec_pomdp_plan(
        belief, p.h, p.actions, p.forest, p.model
    ),
    "mcr": lambda belief, intents, p: mcr_plan(
        belief, p.h, p.mcr_samples, p.rng, intents, p.actions, p.forest, p.model
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

    def timing(self) -> TimingRecord:
        return TimingRecord(epoch_seconds=self.epoch_plan_seconds)

    def deterministic_equal(self, other: "TrialLog") -> bool:
        """Bit equality of everything except planner wall-clock."""
        return (
            self.target_ids == other.target_ids
            and self.dt_sense == other.dt_sense
            and self.dt_plan == other.dt_plan
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "times",
                    "truth",
                    "est_mean",
                    "est_trace",
                    "ospa",
                    "agent_states",
                    "epoch_times",
                    "epoch_policies",
                    "epoch_rollout_evals",
                )
            )
        )


def initial_agents(config: ScenarioConfig) -> tuple[AgentState, ...]:
    """Agents start evenly spaced along the AOI midline, facing +x."""
    n = config.n_agents
    return tuple(
        AgentState(
            px=config.aoi.width * (i + 1) / (n + 1),
            py=config.aoi.height / 2.0,
            fov_edge=config.fov_edges[i],
            alpha=config.alphas[i],
            r0=config.r0,
        )
        for i in range(n)
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
    noise_scale: float = 1.0,
) -> TrialLog:
    """Run one deterministic closed-loop trial and log everything.

    ``seed`` may be an int or a numpy SeedSequence; identical seeds yield
    bit-identical logs apart from wall-clock. ``trajectories`` overrides
    the Levy-walk target truth with scripted paths; ``noise_scale=0``
    disables observation noise for convergence checks.
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
        if len(traj) < n_steps + 1:
            raise ValueError(
                f"trajectory of target {traj.target_id} too short: "
                f"{len(traj)} samples, need {n_steps + 1}"
            )
    target_ids = tuple(traj.target_id for traj in trajectories)
    n_targets = len(trajectories)

    agents = initial_agents(config)
    model_fine = ncv_model(config.dt_sense, config.sigma_a)
    params = OspaParams(c=config.ospa_c, p=config.ospa_p)
    plan_inputs = _PlanInputs(
        h=h, actions=action_set(config.v_max, config.n_headings, config.n_speeds),
        forest=forest, model=ncv_model(config.dt_plan, config.sigma_a), beta=config.beta,
        mcr_samples=mcr_samples, rng=np.random.default_rng(mcr_ss),
    )

    tracks = tuple(
        initialize_track(traj.target_id, traj.samples[0, :2]) for traj in trajectories
    )
    belief = FleetBelief(tracks=tracks, agents=agents, timestamp=0.0)

    log = TrialLog(
        target_ids=target_ids,
        dt_sense=config.dt_sense,
        dt_plan=config.dt_plan,
        times=np.empty(n_steps),
        truth=np.empty((n_steps, n_targets, 4)),
        est_mean=np.empty((n_steps, n_targets, 4)),
        est_trace=np.empty((n_steps, n_targets)),
        ospa=np.empty(n_steps),
        agent_states=np.empty((n_steps, config.n_agents, 5)),
        epoch_times=np.empty(n_epochs),
        epoch_policies=np.empty((n_epochs, config.n_agents, h, 2)),
        epoch_plan_seconds=np.empty(n_epochs),
        epoch_rollout_evals=np.empty(n_epochs, dtype=np.int64),
    )

    previous: list[PolicySeq] | None = None
    for m in range(n_epochs):
        intents = extend_intent(previous, h, config.n_agents)
        start = time.perf_counter()
        joint, stats = _EPOCH_CALLS[planner](belief, intents, plan_inputs)
        log.epoch_plan_seconds[m] = time.perf_counter() - start
        previous = joint
        log.epoch_times[m] = m * config.dt_plan
        log.epoch_rollout_evals[m] = stats.rollout_evals
        for i, policy in enumerate(joint):
            log.epoch_policies[m, i] = [[a.ux, a.uy] for a in policy.actions]

        held = [policy.actions[0] for policy in joint]
        for sub in range(ratio):
            k = m * ratio + sub
            j = k + 1  # truth sample index; sample 0 is the initial state
            agents = tuple(
                propagate_agent(a, held[i], config.dt_sense) for i, a in enumerate(agents)
            )
            truths = [(traj.target_id, traj.samples[j]) for traj in trajectories]
            observations = sense(list(agents), truths, forest, rng_noise, noise_scale)
            belief = fuse(
                observations,
                FleetBelief(tracks=belief.tracks, agents=agents, timestamp=belief.timestamp),
                model_fine,
            )
            true_pos = np.array([traj.samples[j, :2] for traj in trajectories])
            est_pos = np.array([t.xi[:2] for t in belief.tracks])
            log.times[k] = j * config.dt_sense
            log.truth[k] = [traj.samples[j] for traj in trajectories]
            log.est_mean[k] = [t.xi for t in belief.tracks]
            log.est_trace[k] = [t.trace for t in belief.tracks]
            log.ospa[k] = ospa(est_pos, true_pos, params)
            log.agent_states[k] = [[a.px, a.py, a.psi, a.vx, a.vy] for a in agents]
    return log
