"""Receding-horizon fleet planners over the shared target belief.

All planners score candidate action sequences by rolling the Kalman
covariance recursion forward along the noise-free (nominal) propagation
of the current track means: at each planning step agents move, every
track predicts, and tracks whose nominal mean is observable receive a
covariance-only measurement update. The accumulated covariance trace is
the cost; an optional terminal penalty (weighted trace of end-of-horizon
uncovered targets) rewards repositioning toward lost targets.

Three decision architectures are provided:
  * a sequential sweep where agents optimize one at a time against the
    other agents' previous-epoch intentions,
  * an exhaustive joint optimization that every agent solves identically
    (no decision exchange), and
  * a Monte-Carlo variant of the sweep that averages the rollout cost
    over target trajectories sampled from the belief.

Candidate evaluation inside one optimization stage is vectorized across
candidates; results are reduced by (cost, enumeration index) so the
outcome is identical to evaluating candidates one by one in order.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .estimation import FleetBelief, NcvModel, predict, update
from .sensing import AgentState, Observation, in_fov, is_observable, observation_covariance
from .worldgen import OcclusionForest

_EYE4 = np.eye(4)

# Candidates scored per kernel call by the exhaustive scan.
SCAN_CHUNK = 4096

# Largest joint sequence space dec_pomdp_plan will enumerate.
DEC_POMDP_BUDGET = 1_000_000

# A sweep stage enumerates all |A|^h sequences while that count is at most
# EXHAUSTIVE_LIMIT (h <= 5 with |A| = 9); beyond it, it runs a greedy
# by-step beam search that keeps the BEAM_WIDTH best prefixes per level.
EXHAUSTIVE_LIMIT = 100_000
BEAM_WIDTH = 8


class BudgetExceededError(RuntimeError):
    """A joint optimization would exceed the configured rollout budget."""


@dataclass(frozen=True)
class Action:
    """Horizontal velocity command (m/s)."""

    ux: float
    uy: float

    @property
    def speed(self) -> float:
        return math.hypot(self.ux, self.uy)


@dataclass(frozen=True)
class PolicySeq:
    """One agent's action sequence over the planning horizon."""

    agent_id: int
    actions: tuple[Action, ...]

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class RolloutResult:
    cost: float
    step_traces: tuple[float, ...]
    hectg_value: float


@dataclass(frozen=True)
class OptimizeResult:
    policy: PolicySeq
    cost: float
    incumbent_cost: float
    evaluations: int


@dataclass(frozen=True)
class PlanStats:
    """Instrumentation for one planning call."""

    rollout_evals: int
    per_agent_evals: tuple[int, ...]
    stage_incumbent_costs: tuple[float, ...] = ()
    stage_best_costs: tuple[float, ...] = ()


def action_set(v_max: float, n_headings: int = 8, n_speeds: int = 1) -> list[Action]:
    """Hover plus evenly spaced headings at evenly spaced speed fractions."""
    if n_headings < 1 or n_speeds < 1:
        raise ValueError("n_headings and n_speeds must be >= 1")
    actions = [Action(0.0, 0.0)]
    for j in range(1, n_speeds + 1):
        speed = v_max * j / n_speeds
        for k in range(n_headings):
            theta = 2.0 * math.pi * k / n_headings
            actions.append(Action(speed * math.cos(theta), speed * math.sin(theta)))
    return actions


def propagate_agent(s: AgentState, u: Action, dt: float) -> AgentState:
    """Deterministic kinematics: position integrates the command, yaw
    follows the command direction (hover keeps the previous yaw)."""
    hover = u.ux == 0.0 and u.uy == 0.0
    return replace(
        s,
        px=s.px + u.ux * dt,
        py=s.py + u.uy * dt,
        psi=s.psi if hover else math.atan2(u.uy, u.ux),
        vx=u.ux,
        vy=u.uy,
    )


def nominal_trajectory(belief: FleetBelief, model: NcvModel, h: int) -> list[np.ndarray]:
    """Noise-free propagation of every track mean over h steps.

    Returns one (h, 4) array per track, ordered like belief.tracks.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    out = []
    for track in belief.tracks:
        states = np.empty((h, 4))
        xi = track.xi
        for l in range(h):
            xi = model.F @ xi
            states[l] = xi
        out.append(states)
    return out


def rollout_cost(
    belief: FleetBelief,
    joint: list[PolicySeq],
    forest: OcclusionForest,
    model: NcvModel,
    h: int,
    hectg: str = "none",
    beta: float = 1.0,
) -> RolloutResult:
    """Accumulated covariance trace of the nominal-trajectory rollout.

    Reference (scalar) evaluator; the planners use a vectorized equivalent.
    Observability is tested at each track's nominal mean, and every agent
    that observes a track contributes a covariance-only Kalman update.
    """
    if hectg not in ("none", "mwtp"):
        raise ValueError(f"unknown cost-to-go {hectg!r}")
    if len(joint) != len(belief.agents):
        raise ValueError("joint policy must cover every agent")
    if any(len(p) != h for p in joint):
        raise ValueError("every policy must have exactly h actions")
    agents = list(belief.agents)
    tracks = list(belief.tracks)
    step_traces = []
    for l in range(h):
        agents = [propagate_agent(a, joint[i].actions[l], model.dt) for i, a in enumerate(agents)]
        tracks = [predict(t, model) for t in tracks]
        for j, track in enumerate(tracks):
            pos = (float(track.xi[0]), float(track.xi[1]))
            for agent in agents:
                if is_observable(pos, agent, forest):
                    r = observation_covariance(agent, pos)
                    obs = Observation(target_id=track.target_id, z=track.xi[:2].copy(), R=r)
                    tracks[j] = update(tracks[j], obs)
                    track = tracks[j]
        step_traces.append(sum(t.trace for t in tracks))
    hectg_value = 0.0
    if hectg == "mwtp":
        uncovered = []
        for track in tracks:
            pos = (float(track.xi[0]), float(track.xi[1]))
            if not any(in_fov(pos, agent) for agent in agents):
                uncovered.append((pos, track.trace))
        hectg_value = mwtp(agents, uncovered, beta)
    return RolloutResult(
        cost=float(sum(step_traces) + hectg_value),
        step_traces=tuple(float(v) for v in step_traces),
        hectg_value=float(hectg_value),
    )


def _clamp_toward(sensor_xy: np.ndarray, half_width: float, target_xy: np.ndarray) -> np.ndarray:
    """Minimal per-axis displacement putting the target inside the square."""
    out = sensor_xy.astype(float).copy()
    for axis in range(2):
        delta = target_xy[axis] - sensor_xy[axis]
        excess = abs(delta) - half_width
        if excess > 0:
            out[axis] += math.copysign(excess, delta)
    return out


def mdo_position(sensor: AgentState, target_mean: tuple[float, float]) -> tuple[float, float]:
    """Closest sensor center whose FoV square covers the target."""
    moved = _clamp_toward(sensor.position, sensor.half_width, np.asarray(target_mean, dtype=float))
    return float(moved[0]), float(moved[1])


@dataclass(frozen=True)
class MwtpStep:
    """One iteration of the terminal-penalty matching, for auditing."""

    target_index: int
    sensor_index: int
    distance: float
    contributed: bool
    sensor_after: tuple[float, float]


def mwtp_detailed(
    sensor_xy: np.ndarray,
    half_widths: np.ndarray,
    target_xy: np.ndarray,
    traces: np.ndarray,
    beta: float,
) -> tuple[float, list[MwtpStep]]:
    """Weighted trace penalty with the full matching trace.

    Targets are handled in decreasing order of covariance trace; each picks
    the sensor minimizing accumulated-distance-plus-distance, a sensor
    contributes a penalty term only on its first match, and the matched
    sensor is repositioned to the minimal pose covering the target before
    the next iteration.
    """
    pos = np.array(sensor_xy, dtype=float)
    d_acc = np.zeros(len(pos))
    penalty = 0.0
    steps: list[MwtpStep] = []
    for t in np.argsort(-np.asarray(traces, dtype=float), kind="stable"):
        tp = np.asarray(target_xy[t], dtype=float)
        dists = np.linalg.norm(pos - tp, axis=1)
        i = int(np.argmin(d_acc + dists))
        first = d_acc[i] == 0.0
        if first:
            penalty += beta * dists[i] * traces[t]
        d_acc[i] += dists[i]
        pos[i] = _clamp_toward(pos[i], float(half_widths[i]), tp)
        steps.append(
            MwtpStep(
                target_index=int(t),
                sensor_index=i,
                distance=float(dists[i]),
                contributed=bool(first),
                sensor_after=(float(pos[i][0]), float(pos[i][1])),
            )
        )
    return float(penalty), steps


def mwtp(
    end_sensors: list[AgentState],
    uncovered: list[tuple[tuple[float, float], float]],
    beta: float,
) -> float:
    """Terminal penalty for targets outside every end-of-horizon FoV.

    ``uncovered`` holds (position, covariance trace) of exactly those
    targets; an empty list costs nothing.
    """
    if not uncovered:
        return 0.0
    sensor_xy = np.array([[a.px, a.py] for a in end_sensors])
    half_widths = np.array([a.half_width for a in end_sensors])
    target_xy = np.array([list(pos) for pos, _ in uncovered], dtype=float)
    traces = np.array([tr for _, tr in uncovered], dtype=float)
    value, _ = mwtp_detailed(sensor_xy, half_widths, target_xy, traces, beta)
    return value


# ---------------------------------------------------------------------------
# Vectorized candidate evaluation
# ---------------------------------------------------------------------------


def _range_bearing_cov_batch(delta: np.ndarray, alpha: float, r0: float) -> np.ndarray:
    """Batched range-bearing covariance for sensor-to-target offsets (M, 2)."""
    dx, dy = delta[:, 0], delta[:, 1]
    rng_true = np.hypot(dx, dy)
    r = np.maximum(rng_true, r0)
    safe = rng_true > 0.0
    denom = np.where(safe, rng_true, 1.0)
    c = np.where(safe, dx / denom, 1.0)
    s = np.where(safe, dy / denom, 0.0)
    k = 0.1 * alpha * r
    pi = math.pi
    out = np.empty((len(delta), 2, 2))
    out[:, 0, 0] = k * (c * c + pi * s * s)
    out[:, 1, 1] = k * (s * s + pi * c * c)
    off = k * (1.0 - pi) * c * s
    out[:, 0, 1] = off
    out[:, 1, 0] = off
    return out


def _joseph_update_batch(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Joseph-form covariance update for a batch of (4,4) covariances."""
    s = p[:, :2, :2] + r
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    s_inv = np.empty_like(s)
    s_inv[:, 0, 0] = s[:, 1, 1]
    s_inv[:, 1, 1] = s[:, 0, 0]
    s_inv[:, 0, 1] = -s[:, 0, 1]
    s_inv[:, 1, 0] = -s[:, 1, 0]
    s_inv /= det[:, None, None]
    k = p[:, :, :2] @ s_inv
    a = np.broadcast_to(_EYE4, p.shape).copy()
    a[:, :, :2] -= k
    p_new = a @ p @ a.transpose(0, 2, 1) + k @ r @ k.transpose(0, 2, 1)
    return (p_new + p_new.transpose(0, 2, 1)) / 2.0


def _free_of_occlusion(target_pos: np.ndarray, forest: OcclusionForest) -> np.ndarray:
    """Boolean mask (..., ) of positions not strictly inside any disk."""
    if len(forest) == 0:
        return np.ones(target_pos.shape[:-1], dtype=bool)
    centers = forest.centers()
    radii = forest.radii()
    d2 = ((target_pos[..., None, :] - centers) ** 2).sum(axis=-1)
    return ~(d2 < radii**2).any(axis=-1)


def _nominal_paths(belief: FleetBelief, model: NcvModel, h: int) -> np.ndarray:
    """Nominal mean positions as a (1, T, h, 2) sample block."""
    if not belief.tracks:
        return np.zeros((1, 0, h, 2))
    states = nominal_trajectory(belief, model, h)
    return np.stack([s[:, :2] for s in states])[None, :, :, :]


def _sample_target_paths(
    belief: FleetBelief, model: NcvModel, h: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Target trajectories drawn from the belief with process noise, (S, T, h, 2)."""
    n_tracks = len(belief.tracks)
    if n_tracks == 0:
        return np.zeros((n_samples, 0, h, 2))
    evals_q, vecs_q = np.linalg.eigh(model.Q)
    lq = vecs_q * np.sqrt(np.clip(evals_q, 0.0, None))
    out = np.empty((n_samples, n_tracks, h, 2))
    for t, track in enumerate(belief.tracks):
        evals_p, vecs_p = np.linalg.eigh(track.P)
        lp = vecs_p * np.sqrt(np.clip(evals_p, 0.0, None))
        x = track.xi + rng.standard_normal((n_samples, 4)) @ lp.T
        for l in range(h):
            x = x @ model.F.T + rng.standard_normal((n_samples, 4)) @ lq.T
            out[:, t, l, :] = x[:, :2]
    return out


def _policy_velocities(policy: PolicySeq) -> np.ndarray:
    return np.array([[a.ux, a.uy] for a in policy.actions])


def _positions_from_velocities(start_xy: np.ndarray, vel: np.ndarray, dt: float) -> np.ndarray:
    """Step positions for velocity commands (..., h, 2) from a start point."""
    return start_xy + np.cumsum(vel * dt, axis=-2)


def _batched_rollout_costs(
    belief: FleetBelief,
    model: NcvModel,
    agent_pos: list[np.ndarray],
    target_pos: np.ndarray,
    free: np.ndarray,
    hectg: str,
    beta: float,
) -> np.ndarray:
    """Rollout costs for a block of candidates, averaged over target samples.

    agent_pos holds per-agent step positions with leading candidate axis 1
    (shared across candidates) or C; target_pos is (S, T, h, 2) with the
    matching occlusion-free mask. Agents are applied in index order so the
    result matches the scalar evaluator.
    """
    n_samples, n_tracks, h, _ = target_pos.shape
    n_cand = max(a.shape[0] for a in agent_pos)
    if n_tracks == 0:
        return np.zeros(n_cand)
    alphas = [a.alpha for a in belief.agents]
    r0s = [a.r0 for a in belief.agents]
    hws = [a.half_width for a in belief.agents]
    p = np.broadcast_to(
        np.stack([t.P for t in belief.tracks]), (n_cand, n_samples, n_tracks, 4, 4)
    ).copy()
    cost = np.zeros((n_cand, n_samples))
    for l in range(h):
        p = model.F @ p @ model.F.T + model.Q
        for t in range(n_tracks):
            tp = target_pos[:, t, l, :]
            ft = free[:, t, l]
            if not ft.any():
                continue
            for i, apos in enumerate(agent_pos):
                delta = tp[None, :, :] - apos[:, None, l, :]
                vis = (
                    (np.abs(delta[..., 0]) <= hws[i])
                    & (np.abs(delta[..., 1]) <= hws[i])
                    & ft[None, :]
                )
                vis = np.broadcast_to(vis, (n_cand, n_samples))
                if not vis.any():
                    continue
                delta_full = np.broadcast_to(delta, (n_cand, n_samples, 2))
                r = _range_bearing_cov_batch(delta_full[vis], alphas[i], r0s[i])
                pt = p[:, :, t]
                pt[vis] = _joseph_update_batch(pt[vis], r)
        cost += np.trace(p, axis1=-2, axis2=-1).sum(axis=2)
    costs = cost.mean(axis=1)
    if hectg == "mwtp":
        if n_samples != 1:
            raise ValueError("terminal penalty is only defined for the nominal rollout")
        end_targets = target_pos[0, :, h - 1, :]
        end_traces = np.trace(p[:, 0], axis1=-2, axis2=-1)
        end_agent = np.stack(
            [np.broadcast_to(a[:, h - 1, :], (n_cand, 2)) for a in agent_pos], axis=1
        )
        covered = np.zeros((n_cand, n_tracks), dtype=bool)
        for i in range(len(agent_pos)):
            d = np.abs(end_targets[None, :, :] - end_agent[:, i, None, :])
            covered |= (d[..., 0] <= hws[i]) & (d[..., 1] <= hws[i])
        half_widths = np.array(hws)
        for c in range(n_cand):
            mask = ~covered[c]
            if not mask.any():
                continue
            costs[c] += mwtp_detailed(
                end_agent[c], half_widths, end_targets[mask], end_traces[c][mask], beta
            )[0]
    return costs


def _exhaustive_scan(
    n_actions: int,
    length: int,
    score: Callable[[np.ndarray], np.ndarray],
    watch: int | None = None,
) -> tuple[tuple[int, ...] | None, float, float]:
    """First strict minimum of ``score`` over every action-index sequence.

    Sequences of ``length`` digits in ``range(n_actions)`` are visited in
    lexicographic order, SCAN_CHUNK at a time; ``score`` maps a (C, length)
    block to C costs. Returns the best sequence (None if no cost beat
    infinity), its cost, and the cost at flat index ``watch`` (NaN if
    unwatched).
    """
    shape = (n_actions,) * length
    total = n_actions**length
    best_cost = math.inf
    best_seq: tuple[int, ...] | None = None
    watched = math.nan
    for lo in range(0, total, SCAN_CHUNK):
        flat = np.arange(lo, min(lo + SCAN_CHUNK, total))
        rows = np.stack(np.unravel_index(flat, shape), axis=1)
        costs = score(rows)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_seq = tuple(int(v) for v in rows[j])
        if watch is not None and lo <= watch < lo + len(flat):
            watched = float(costs[watch - lo])
    return best_seq, best_cost, watched


class _StageEvaluator:
    """Scores one agent's candidate sequences with all others held fixed."""

    def __init__(
        self,
        belief: FleetBelief,
        model: NcvModel,
        forest: OcclusionForest,
        h: int,
        target_paths: np.ndarray,
        hectg: str,
        beta: float,
    ):
        self.belief = belief
        self.model = model
        self.h = h
        self.target_paths = target_paths
        self.free = _free_of_occlusion(target_paths, forest)
        self.hectg = hectg
        self.beta = beta

    def fixed_positions(self, joint: list[PolicySeq]) -> list[np.ndarray]:
        return [
            _positions_from_velocities(
                agent.position, _policy_velocities(joint[i])[None, :, :], self.model.dt
            )
            for i, agent in enumerate(self.belief.agents)
        ]

    def candidate_costs(
        self,
        agent_index: int,
        cand_vel: np.ndarray,
        fixed_pos: list[np.ndarray],
        prefix: int | None = None,
    ) -> np.ndarray:
        """Costs of (C, h', 2) velocity candidates for one agent's slot."""
        h_eff = cand_vel.shape[1] if prefix is None else prefix
        start = self.belief.agents[agent_index].position
        pos = [a[:, :h_eff, :] for a in fixed_pos]
        pos[agent_index] = _positions_from_velocities(
            start, cand_vel[:, :h_eff, :], self.model.dt
        )
        hectg = self.hectg if h_eff == self.h else "none"
        return _batched_rollout_costs(
            self.belief,
            self.model,
            pos,
            self.target_paths[:, :, :h_eff, :],
            self.free[:, :, :h_eff],
            hectg,
            self.beta,
        )


def _search_stage(
    ev: _StageEvaluator,
    agent_index: int,
    joint: list[PolicySeq],
    actions: list[Action],
) -> OptimizeResult:
    """Best sequence for one agent: exhaustive enumeration or beam search.

    The agent's entry in ``joint`` is its incumbent. It is always scored
    so the returned cost never exceeds it; ties go to the earliest
    candidate in enumeration order.
    """
    incumbent = joint[agent_index]
    n_actions = len(actions)
    h = ev.h
    action_xy = np.array([[a.ux, a.uy] for a in actions])
    fixed_pos = ev.fixed_positions(joint)
    index_of = {(a.ux, a.uy): i for i, a in enumerate(actions)}
    inc_idx_seq = tuple(index_of.get((a.ux, a.uy)) for a in incumbent.actions)

    if n_actions**h <= EXHAUSTIVE_LIMIT:
        inc_flat = None
        if None not in inc_idx_seq:
            inc_flat = int(np.ravel_multi_index(inc_idx_seq, (n_actions,) * h))
        best_seq, best_cost, incumbent_cost = _exhaustive_scan(
            n_actions,
            h,
            lambda rows: ev.candidate_costs(agent_index, action_xy[rows], fixed_pos),
            inc_flat,
        )
        evaluations = n_actions**h
    else:
        evaluations = 0
        incumbent_cost = math.nan
        beam: list[tuple[int, ...]] = [()]
        for level in range(1, h + 1):
            expanded = [seq + (a,) for seq in beam for a in range(n_actions)]
            cand = np.array(expanded)
            padded = np.zeros((len(cand), h, 2))
            padded[:, :level, :] = action_xy[cand]
            costs = ev.candidate_costs(agent_index, padded, fixed_pos, prefix=level)
            evaluations += len(cand)
            ranked = sorted(range(len(cand)), key=lambda i: (costs[i], i))
            if level == h:
                j = ranked[0]
                best_cost = float(costs[j])
                best_seq = tuple(expanded[j])
            else:
                beam = [expanded[i] for i in ranked[:BEAM_WIDTH]]

    if math.isnan(incumbent_cost):
        inc_vel = _policy_velocities(incumbent)[None, :, :]
        incumbent_cost = float(ev.candidate_costs(agent_index, inc_vel, fixed_pos)[0])
        evaluations += 1
        if incumbent_cost < best_cost:
            best_cost = incumbent_cost
            best_seq = None
    if best_seq is None:
        policy = replace(incumbent, agent_id=agent_index)
    else:
        policy = PolicySeq(agent_id=agent_index, actions=tuple(actions[a] for a in best_seq))
    return OptimizeResult(
        policy=policy, cost=best_cost, incumbent_cost=incumbent_cost, evaluations=evaluations
    )


def extend_intent(
    previous: list[PolicySeq] | None, h: int, n_agents: int
) -> tuple[PolicySeq, ...]:
    """Per-agent policies of intent: last epoch's policies shifted by one
    step and extended by repeating their last action.

    With no previous plan (first epoch) every intent is all-hover.
    """
    if previous is None:
        hover = Action(0.0, 0.0)
        return tuple(PolicySeq(agent_id=i, actions=(hover,) * h) for i in range(n_agents))
    if len(previous) != n_agents:
        raise ValueError("previous joint policy must cover every agent")
    if any(len(seq) != h for seq in previous):
        raise ValueError("previous policies must have length h")
    return tuple(
        PolicySeq(agent_id=i, actions=seq.actions[1:] + seq.actions[-1:])
        for i, seq in enumerate(previous)
    )


def _sweep(
    belief: FleetBelief,
    intents: tuple[PolicySeq, ...],
    h: int,
    actions: list[Action],
    forest: OcclusionForest,
    model: NcvModel,
    target_paths: np.ndarray,
    hectg: str,
    beta: float,
) -> tuple[list[PolicySeq], PlanStats]:
    n_agents = len(belief.agents)
    if len(intents) != n_agents:
        raise ValueError("intents must cover every agent")
    if any(len(p) != h for p in intents):
        raise ValueError("intent policies must have length h")
    ev = _StageEvaluator(belief, model, forest, h, target_paths, hectg, beta)
    joint = list(intents)
    stages = []
    for i in range(n_agents):
        stages.append(_search_stage(ev, i, joint, actions))
        joint[i] = stages[-1].policy
    stats = PlanStats(
        rollout_evals=sum(r.evaluations for r in stages),
        per_agent_evals=tuple(r.evaluations for r in stages),
        stage_incumbent_costs=tuple(r.incumbent_cost for r in stages),
        stage_best_costs=tuple(r.cost for r in stages),
    )
    return joint, stats


def sma_nbo_plan(
    belief: FleetBelief,
    intents: tuple[PolicySeq, ...],
    h: int,
    actions: list[Action],
    forest: OcclusionForest,
    model: NcvModel,
    hectg: str = "none",
    beta: float = 1.0,
) -> tuple[list[PolicySeq], PlanStats]:
    """Sequential sweep: agents optimize in index order, each against its
    predecessors' fresh plans and its successors' intents.

    Incumbent inclusion makes the joint objective non-increasing stage by
    stage, so the result is never worse than executing the intents.
    """
    paths = _nominal_paths(belief, model, h)
    return _sweep(belief, intents, h, actions, forest, model, paths, hectg, beta)


def mcr_plan(
    belief: FleetBelief,
    h: int,
    n_samples: int,
    rng: np.random.Generator,
    intents: tuple[PolicySeq, ...],
    actions: list[Action],
    forest: OcclusionForest,
    model: NcvModel,
) -> tuple[list[PolicySeq], PlanStats]:
    """Monte-Carlo rollout: the sequential sweep scored on sampled targets.

    One batch of target trajectories is drawn from the belief per call and
    reused for every candidate (common random numbers), with observability
    and measurement covariance evaluated per sample.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    paths = _sample_target_paths(belief, model, h, n_samples, rng)
    return _sweep(belief, intents, h, actions, forest, model, paths, "none", 1.0)


def dec_pomdp_joint_count(n_actions: int, n_agents: int, h: int) -> int:
    """Joint sequences each dec-pomdp agent enumerates, |A|^(n*h).

    Raises BudgetExceededError when the count exceeds DEC_POMDP_BUDGET.
    """
    joint_count = n_actions ** (n_agents * h)
    if joint_count > DEC_POMDP_BUDGET:
        raise BudgetExceededError(
            f"joint optimization needs {joint_count} rollouts per agent "
            f"(|A|={n_actions}, n={n_agents}, h={h}), budget is {DEC_POMDP_BUDGET}"
        )
    return joint_count


def dec_pomdp_plan(
    belief: FleetBelief,
    h: int,
    actions: list[Action],
    forest: OcclusionForest,
    model: NcvModel,
) -> tuple[list[PolicySeq], PlanStats]:
    """Joint exhaustive optimization that every agent solves on its own.

    In this architecture each agent enumerates the full joint sequence
    space on the shared belief, with no decision exchange. The beliefs
    are identical and the scan keeps the first minimum, so every agent's
    solve returns the same joint plan by construction: one solve stands
    for all of them. PlanStats still counts the modelled work, |A|^(nH)
    rollouts per agent.
    """
    n_agents = len(belief.agents)
    n_actions = len(actions)
    joint_count = dec_pomdp_joint_count(n_actions, n_agents, h)
    action_xy = np.array([[a.ux, a.uy] for a in actions])
    target_paths = _nominal_paths(belief, model, h)
    free = _free_of_occlusion(target_paths, forest)

    def score(rows: np.ndarray) -> np.ndarray:
        seqs = rows.reshape(len(rows), n_agents, h)
        pos = [
            _positions_from_velocities(agent.position, action_xy[seqs[:, i, :]], model.dt)
            for i, agent in enumerate(belief.agents)
        ]
        return _batched_rollout_costs(belief, model, pos, target_paths, free, "none", 1.0)

    best, best_cost, _ = _exhaustive_scan(n_actions, n_agents * h, score)
    assert best is not None
    joint = [
        PolicySeq(agent_id=i, actions=tuple(actions[a] for a in best[i * h : (i + 1) * h]))
        for i in range(n_agents)
    ]
    stats = PlanStats(
        rollout_evals=n_agents * joint_count,
        per_agent_evals=(joint_count,) * n_agents,
        stage_best_costs=(best_cost,),
    )
    return joint, stats
