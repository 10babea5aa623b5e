"""Correctness checks on the benchmark's trial logs and batch artifacts.

Every check recomputes its expectation apart from the program (brute-force
OSPA, textbook Kalman recursions, the greedy terminal penalty written out
here) or tests a property the method must have. None compares against a
stored copy of earlier output. Each check raises CheckError on failure.
"""
from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np

# Track prior of the scenario: 5 m position and 2 m/s velocity standard deviation.
P0_DIAG = (25.0, 25.0, 4.0, 4.0)
OSPA_ATOL = 1e-9
CSV_ATOL = 1e-5  # artifacts carry 9 significant digits


class CheckError(AssertionError):
    """A benchmark output disagrees with its independent expectation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Independent reference computations
# ---------------------------------------------------------------------------


def expected_actions(v_max: float, n_headings: int, n_speeds: int) -> np.ndarray:
    """Hover plus n_headings evenly spaced headings at each speed fraction."""
    rows = [(0.0, 0.0)]
    for j in range(1, n_speeds + 1):
        for k in range(n_headings):
            theta = 2.0 * math.pi * k / n_headings
            rows.append((v_max * j / n_speeds * math.cos(theta), v_max * j / n_speeds * math.sin(theta)))
    return np.array(rows)


def ospa_brute(est: np.ndarray, truth: np.ndarray, c: float, p: float) -> np.ndarray:
    """OSPA of equal-size point sets at every step, by enumerating assignments.

    est and truth are (K, T, 2); returns (K,).
    """
    n = truth.shape[1]
    if n == 0:
        return np.zeros(truth.shape[0])
    perms = np.array(list(itertools.permutations(range(n))))
    d = np.sqrt(((est[:, :, None, :] - truth[:, None, :, :]) ** 2).sum(axis=-1))
    cost = np.minimum(d, c) ** p  # (K, T, T)
    per_perm = cost[:, np.arange(n)[None, :], perms].sum(axis=-1)  # (K, P)
    return (per_perm.min(axis=1) / n) ** (1.0 / p)


def ncv(dt: float, sigma_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearly-constant-velocity transition and white-acceleration noise."""
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    g = np.array([[dt * dt / 2.0, 0.0], [0.0, dt * dt / 2.0], [dt, 0.0], [0.0, dt]])
    return f, sigma_a**2 * g @ g.T


def range_bearing_cov(sensor: tuple[float, float], target: tuple[float, float], alpha: float, r0: float) -> np.ndarray:
    """alpha * G diag(0.1 r, 0.1 pi r) G^T with r clamped below at r0."""
    dx, dy = target[0] - sensor[0], target[1] - sensor[1]
    r = max(math.hypot(dx, dy), r0)
    rho = math.atan2(dy, dx)
    g = np.array([[math.cos(rho), -math.sin(rho)], [math.sin(rho), math.cos(rho)]])
    return alpha * g @ np.diag([0.1 * r, 0.1 * math.pi * r]) @ g.T


def info_update(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Covariance-only position update in information form."""
    h = np.eye(2, 4)
    post = np.linalg.inv(np.linalg.inv(p) + h.T @ np.linalg.inv(r) @ h)
    return (post + post.T) / 2.0


def greedy_terminal_penalty(sensors, half_widths, targets, traces, beta: float) -> float:
    """Weighted trace penalty of targets left uncovered at the horizon end.

    Targets go in decreasing trace order (stable); each takes the sensor with
    the least distance already travelled plus distance to it. Only a sensor's
    first match adds beta * distance * trace; the matched sensor then moves
    the least it must for its square to cover the target.
    """
    pos = [list(s) for s in sensors]
    travelled = [0.0] * len(pos)
    matched = [False] * len(pos)
    penalty = 0.0
    for t in sorted(range(len(targets)), key=lambda k: -traces[k]):
        tx, ty = targets[t]
        dists = [math.hypot(px - tx, py - ty) for px, py in pos]
        i = min(range(len(pos)), key=lambda k: (travelled[k] + dists[k], k))
        if not matched[i]:
            penalty += beta * dists[i] * traces[t]
            matched[i] = True
        travelled[i] += dists[i]
        for axis, goal in enumerate((tx, ty)):
            gap = goal - pos[i][axis]
            if abs(gap) > half_widths[i]:
                pos[i][axis] += math.copysign(abs(gap) - half_widths[i], gap)
    return penalty


def _in_square(point, center, half_width: float) -> bool:
    return abs(point[0] - center[0]) <= half_width and abs(point[1] - center[1]) <= half_width


def _occluded(point, disks) -> bool:
    return any((point[0] - cx) ** 2 + (point[1] - cy) ** 2 < r * r for cx, cy, r in disks)


def stage_costs(config, disks, target_xy, start, fixed_paths, agent: int, actions: np.ndarray) -> np.ndarray:
    """Nominal-rollout cost of every action sequence of one agent, others fixed.

    Scalar textbook rollout from the epoch-0 belief: each track starts at its
    initial truth position with zero velocity and prior P0, predicts with
    the NCV model at the planning step, and takes an information-form update
    from every agent whose square covers its nominal mean outside every
    disk. The cost is the summed trace over the horizon plus the greedy
    terminal penalty. Prefixes are shared, so each node of the sequence tree
    is rolled forward once. Returns costs in lexicographic sequence order.
    """
    h = config.horizon
    dt = config.dt_plan
    f, q = ncv(dt, config.sigma_a)
    hws = [e / 2.0 for e in config.fov_edges]
    means = [np.array([x, y, 0.0, 0.0]) for x, y in target_xy]
    nominal = []  # nominal[l][t] = position after l+1 steps
    for _ in range(h):
        means = [f @ m for m in means]
        nominal.append([(float(m[0]), float(m[1])) for m in means])
    free = [[not _occluded(pt, disks) for pt in level] for level in nominal]
    n_agents = len(hws)
    costs: list[float] = []

    def expand(level: int, own_xy, covs, acc: float) -> None:
        if level == h:
            agents_end = [
                own_xy if j == agent else fixed_paths[j][h - 1] for j in range(n_agents)
            ]
            uncovered = [
                t for t, pt in enumerate(nominal[h - 1])
                if not any(_in_square(pt, agents_end[j], hws[j]) for j in range(n_agents))
            ]
            penalty = greedy_terminal_penalty(
                agents_end,
                hws,
                [nominal[h - 1][t] for t in uncovered],
                [float(np.trace(covs[t])) for t in uncovered],
                config.beta,
            )
            costs.append(acc + penalty)
            return
        for ux, uy in actions:
            xy = (own_xy[0] + ux * dt, own_xy[1] + uy * dt)
            where = [xy if j == agent else fixed_paths[j][level] for j in range(n_agents)]
            new_covs = []
            for t, p in enumerate(covs):
                p = f @ p @ f.T + q
                pt = nominal[level][t]
                if free[level][t]:
                    for j in range(n_agents):
                        if _in_square(pt, where[j], hws[j]):
                            r = range_bearing_cov(where[j], pt, config.alphas[j], config.r0)
                            p = info_update(p, r)
                new_covs.append(p)
            expand(level + 1, xy, new_covs, acc + sum(float(np.trace(p)) for p in new_covs))

    p0 = [np.diag(P0_DIAG) for _ in means]
    expand(0, start, p0, 0.0)
    return np.array(costs)


def initial_agent_xy(config) -> list[tuple[float, float]]:
    """Agents start evenly spaced along the AOI midline."""
    n = config.n_agents
    return [(config.aoi.width * (i + 1) / (n + 1), config.aoi.height / 2.0) for i in range(n)]


# ---------------------------------------------------------------------------
# Checks on one trial log
# ---------------------------------------------------------------------------


def check_ospa(truth: np.ndarray, est: np.ndarray, logged: np.ndarray, c: float, p: float, atol: float = OSPA_ATOL) -> None:
    """Logged OSPA equals the brute-force value and lies in [0, c]."""
    _require(bool(np.all(np.isfinite(logged))), "OSPA series holds a non-finite value")
    _require(bool(np.all((logged >= 0.0) & (logged <= c))), f"OSPA outside [0, {c}]")
    expected = ospa_brute(est[:, :, :2], truth[:, :, :2], c, p)
    worst = float(np.max(np.abs(expected - logged))) if len(logged) else 0.0
    _require(worst <= atol * max(1.0, c), f"OSPA differs from brute force by {worst:.3g} m")


def check_traces(est_trace: np.ndarray, est_mean: np.ndarray) -> None:
    """Covariance traces are finite and positive; means are finite."""
    _require(bool(np.all(np.isfinite(est_trace))), "non-finite covariance trace")
    _require(bool(np.all(est_trace > 0.0)), "non-positive covariance trace")
    _require(bool(np.all(np.isfinite(est_mean))), "non-finite track mean")


def check_rollout_evals(evals: np.ndarray, planner: str, n_agents: int, n_actions: int, h: int) -> None:
    """Sweeps score n |A|^H sequences per epoch; dec-pomdp n |A|^(nH)."""
    per_agent = n_actions ** (n_agents * h) if planner == "dec-pomdp" else n_actions**h
    expected = n_agents * per_agent
    bad = np.flatnonzero(np.asarray(evals) != expected)
    _require(bad.size == 0, f"epoch {bad[:1].tolist()} scored {np.asarray(evals)[bad[:1]].tolist()} rollouts, expected {expected}")


def check_actions_in_set(executed: np.ndarray, actions: np.ndarray, atol: float = 1e-12) -> None:
    """Every executed (first) action of every epoch is a member of the action set."""
    flat = np.asarray(executed).reshape(-1, 2)
    gap = np.abs(flat[:, None, :] - actions[None, :, :]).max(axis=-1).min(axis=1)
    _require(bool(np.all(gap <= atol)), f"executed action off the action set by {gap.max():.3g} m/s")


def check_kinematics(log, config) -> None:
    """Agent states follow the held first actions exactly (zero-order hold)."""
    ratio = round(config.dt_plan / config.dt_sense)
    dt = config.dt_sense
    for i, (px, py) in enumerate(initial_agent_xy(config)):
        psi = 0.0
        for m in range(len(log.epoch_times)):
            ux, uy = (float(v) for v in log.epoch_policies[m, i, 0])
            if ux != 0.0 or uy != 0.0:
                psi = math.atan2(uy, ux)
            for sub in range(ratio):
                k = m * ratio + sub
                px = px + ux * dt
                py = py + uy * dt
                logged = tuple(float(v) for v in log.agent_states[k, i])
                _require(
                    logged == (px, py, psi, ux, uy),
                    f"agent {i} at step {k} is {logged}, held action gives {(px, py, psi, ux, uy)}",
                )


def check_epoch0_optimal(log, config, forest, trajectories, rtol: float = 1e-9) -> None:
    """Epoch 0's sweep picks, at each stage, a least-cost sequence.

    Stage i scores agent i's sequences with earlier agents on their chosen
    sequences and later agents on their all-hover first-epoch intents.
    """
    h = config.horizon
    actions = expected_actions(config.v_max, config.n_headings, config.n_speeds)
    chosen = np.asarray(log.epoch_policies[0])  # (n, H, 2)
    starts = initial_agent_xy(config)
    target_xy = [tuple(float(v) for v in traj.samples[0, :2]) for traj in trajectories]

    def path(xy, seq):
        out, (x, y) = [], xy
        for ux, uy in seq:
            x, y = x + ux * config.dt_plan, y + uy * config.dt_plan
            out.append((x, y))
        return out

    for i in range(config.n_agents):
        fixed = [
            path(starts[j], chosen[j] if j < i else np.zeros((h, 2)))
            for j in range(config.n_agents)
        ]
        costs = stage_costs(config, forest.disks, target_xy, starts[i], fixed, i, actions)
        flat = 0
        for ux, uy in chosen[i]:
            gap = np.abs(actions - (ux, uy)).max(axis=1)
            _require(bool(gap.min() <= 1e-12), f"stage {i}: chosen action off the action set")
            flat = flat * len(actions) + int(np.argmin(gap))
        best = float(costs.min())
        got = float(costs[flat])
        _require(
            got <= best + rtol * max(1.0, abs(best)),
            f"stage {i}: chosen sequence costs {got:.9g}, best candidate {best:.9g}",
        )


def check_same_log(log, first) -> None:
    """A repeated trial on identical inputs reproduces every deterministic array."""
    for name in ("truth", "est_mean", "est_trace", "ospa", "agent_states", "epoch_policies", "epoch_rollout_evals"):
        _require(
            np.array_equal(getattr(log, name), getattr(first, name)),
            f"repeated trial differs from its first run in {name}",
        )


def check_trial(log, config, forest, trajectories, planner: str, optimality: bool) -> None:
    """All per-trial checks of a trial workload."""
    truth = np.stack([traj.samples[1 : len(log.times) + 1] for traj in trajectories], axis=1)
    _require(np.array_equal(log.truth, truth), "logged truth differs from the input trajectories")
    check_ospa(log.truth, log.est_mean, log.ospa, config.ospa_c, config.ospa_p)
    check_traces(log.est_trace, log.est_mean)
    actions = expected_actions(config.v_max, config.n_headings, config.n_speeds)
    check_rollout_evals(log.epoch_rollout_evals, planner, config.n_agents, len(actions), config.horizon)
    check_actions_in_set(log.epoch_policies[:, :, 0, :], actions)
    check_kinematics(log, config)
    if optimality:
        check_epoch0_optimal(log, config, forest, trajectories)


# ---------------------------------------------------------------------------
# Checks on batch artifacts
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _trial_series(rows: list[dict[str, str]]):
    """(times, truth (K,T,2), est (K,T,2), trace (K,T), ospa (K,)) of a trial CSV."""
    times = sorted({float(r["t"]) for r in rows})
    ids = sorted({int(r["target_id"]) for r in rows})
    k_of = {t: k for k, t in enumerate(times)}
    j_of = {tid: j for j, tid in enumerate(ids)}
    truth = np.full((len(times), len(ids), 2), np.nan)
    est = np.full_like(truth, np.nan)
    trace = np.full((len(times), len(ids)), np.nan)
    ospa = np.full(len(times), np.nan)
    for r in rows:
        k, j = k_of[float(r["t"])], j_of[int(r["target_id"])]
        truth[k, j] = float(r["true_x"]), float(r["true_y"])
        est[k, j] = float(r["est_x"]), float(r["est_y"])
        trace[k, j] = float(r["trace_P"])
        value = float(r["ospa"])
        _require(np.isnan(ospa[k]) or ospa[k] == value, f"rows of step t={r['t']} disagree on ospa")
        ospa[k] = value
    return np.array(times), truth, est, trace, ospa


def check_map(path: Path, forest, aoi, radius: float) -> None:
    """A saved map reloads to the generated forest, a valid non-overlapping one."""
    from trackplan.worldgen import load_map

    _require(load_map(str(path)) == forest, f"{path.name}: reloads to a different forest")
    for cx, cy, r in forest.disks:
        _require(r == radius, f"{path.name}: disk radius {r}, expected {radius}")
        _require(0.0 <= cx <= aoi.width and 0.0 <= cy <= aoi.height, f"{path.name}: disk center outside the AOI")
    for (ax, ay, _), (bx, by, _) in itertools.combinations(forest.disks, 2):
        _require((ax - bx) ** 2 + (ay - by) ** 2 > (2.0 * radius) ** 2, f"{path.name}: disks overlap")


def check_effective_config(path: Path, spec) -> None:
    """The written effective config re-parses to the spec that was run."""
    from trackplan.cli import parse_config

    _require(parse_config(str(path)) == spec, f"{path.name}: re-parses to a different spec")


def check_batch_trial(trial_csv: Path, epochs_csv: Path, summary_row: dict[str, str], config) -> None:
    """Checks one batch trial from its artifacts and its summary row."""
    times, truth, est, trace, ospa = _trial_series(read_csv(trial_csv))
    n_steps = round(config.duration / config.dt_sense)
    _require(len(times) == n_steps, f"{trial_csv.name}: {len(times)} steps, expected {n_steps}")
    _require(truth.shape[1] == config.n_targets, f"{trial_csv.name}: {truth.shape[1]} targets")
    check_ospa(truth, est, ospa, config.ospa_c, config.ospa_p, atol=CSV_ATOL)
    check_traces(trace, est)
    _require(
        math.isclose(float(summary_row["mean_ospa"]), float(np.mean(ospa)), rel_tol=1e-7, abs_tol=1e-9),
        f"{trial_csv.name}: summary mean_ospa {summary_row['mean_ospa']} != trial mean {np.mean(ospa):.9g}",
    )
    _require(
        math.isclose(float(summary_row["median_ospa"]), float(np.median(ospa)), rel_tol=1e-7, abs_tol=1e-9),
        f"{trial_csv.name}: summary median_ospa differs from the trial CSV",
    )
    _require(
        abs(float(summary_row["frac_below_1m"]) - float(np.mean(ospa < 1.0))) <= 1.0 / len(ospa),
        f"{trial_csv.name}: summary frac_below_1m differs from the trial CSV",
    )
    epochs = read_csv(epochs_csv)
    n_epochs = round(config.duration / config.dt_plan)
    _require(len(epochs) == n_epochs * config.n_agents, f"{epochs_csv.name}: {len(epochs)} rows")
    executed = np.array([(float(r["ux"]), float(r["uy"])) for r in epochs])
    actions = expected_actions(config.v_max, config.n_headings, config.n_speeds)
    check_actions_in_set(executed, actions, atol=CSV_ATOL)
    plan_ms = np.array([float(r["plan_ms"]) for r in epochs])
    _require(bool(np.all(np.isfinite(plan_ms) & (plan_ms >= 0.0))), f"{epochs_csv.name}: bad plan_ms")
