"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own code paths: brute-force
enumeration and literal textbook recursions only. Nothing here imports
trackplan (tests/test_oracles.py checks), so a fault in the package
cannot hide in the reference it is compared with.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def ospa_brute(x, y, c: float, p: float) -> float:
    """OSPA by exhaustive enumeration of assignments (sets of size <= ~7)."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    if len(x) > len(y):
        x, y = y, x
    a, b = len(x), len(y)
    if b == 0:
        return 0.0
    if a == 0:
        return c
    best = np.inf
    for perm in itertools.permutations(range(b), a):
        total = 0.0
        for i, j in enumerate(perm):
            total += min(c, float(np.linalg.norm(x[i] - y[j]))) ** p
        best = min(best, total)
    return float(((best + c**p * (b - a)) / b) ** (1.0 / p))


def kalman_predict(xi, p, f, q):
    xi = f @ xi
    p = f @ p @ f.T + q
    return xi, (p + p.T) / 2.0


def kalman_update_cov(p, r):
    """Covariance-only measurement update via the information form."""
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    info = np.linalg.inv(p) + h.T @ np.linalg.inv(r) @ h
    p_new = np.linalg.inv(info)
    return (p_new + p_new.T) / 2.0


def information_fusion(xi, p, observations):
    """Centralized fusion of position measurements (z, R) in information form.

    Every measurement adds H^T R^-1 H to the information matrix P^-1 and
    H^T R^-1 z to the information vector P^-1 xi.
    """
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    info = np.linalg.inv(p)
    vec = info @ xi
    for z, r in observations:
        r_inv = np.linalg.inv(r)
        info = info + h.T @ r_inv @ h
        vec = vec + h.T @ r_inv @ z
    p_new = np.linalg.inv(info)
    return p_new @ vec, (p_new + p_new.T) / 2.0


def scalar_filter_replay(
    truth, agent_states, start_xy, sensors, disks, noise_seed, dt, sigma_a, p0_diag
):
    """The closed loop's filter replayed one track and one observation at a time.

    ``truth`` (K, T, 4) and ``agent_states`` (K, n, 5) are a trial log's;
    ``start_xy`` (T, 2) are the targets' first positions, where tracks start
    with zero velocity and covariance diag(p0_diag). Agent i is
    ``sensors[i]`` = (fov_edge, alpha, r0). At step k every track predicts
    with the NCV model of period dt and acceleration noise sigma_a. Then,
    agent by agent and target by target, each target in the agent's square
    footprint and outside every disk is measured at its true position plus
    cholesky(R) times two standard normals from
    numpy.random.default_rng(noise_seed), R the range-bearing covariance
    alpha G diag(0.1 r, 0.1 pi r) G^T. Each measurement updates its track by
    a Kalman step: solve-based gain, Joseph-form covariance, symmetrized.
    The arithmetic is written out as the loop once ran it, so the two agree
    bit for bit. Returns the estimated means (K, T, 4) and covariance
    traces (K, T).
    """
    f = np.array(
        [[1.0, 0.0, dt, 0.0], [0.0, 1.0, 0.0, dt], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    d2, d3, d4 = dt * dt, dt**3 / 2.0, dt**4 / 4.0
    q = sigma_a**2 * np.array(
        [[d4, 0.0, d3, 0.0], [0.0, d4, 0.0, d3], [d3, 0.0, d2, 0.0], [0.0, d3, 0.0, d2]]
    )
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    rng = np.random.default_rng(noise_seed)
    tracks = [
        (np.array([x, y, 0.0, 0.0]), np.diag(p0_diag).astype(float)) for x, y in start_xy
    ]
    n_steps, n_targets = np.shape(truth)[:2]
    means = np.empty((n_steps, n_targets, 4))
    traces = np.empty((n_steps, n_targets))
    for k in range(n_steps):
        tracks = [kalman_predict(xi, p, f, q) for xi, p in tracks]
        for (ax, ay), (fov_edge, alpha, r0) in zip(agent_states[k, :, :2], sensors):
            for t in range(n_targets):
                tx, ty = truth[k, t, 0], truth[k, t, 1]
                if not in_square(tx, ty, ax, ay, fov_edge / 2.0) or in_any_disk(tx, ty, disks):
                    continue
                dx, dy = tx - ax, ty - ay
                r = max(math.hypot(dx, dy), r0)
                rho = math.atan2(dy, dx)
                c, s = math.cos(rho), math.sin(rho)
                g = np.array([[c, -s], [s, c]])
                cov = alpha * (g @ np.diag([0.1 * r, 0.1 * math.pi * r]) @ g.T)
                z = np.array([tx, ty]) + np.linalg.cholesky(cov) @ rng.standard_normal(2)
                xi, p = tracks[t]
                gain = np.linalg.solve((h @ p @ h.T + cov).T, (p @ h.T).T).T
                xi = xi + gain @ (z - h @ xi)
                a = np.eye(4) - gain @ h
                p = a @ p @ a.T + gain @ cov @ gain.T
                tracks[t] = (xi, (p + p.T) / 2.0)
        for t, (xi, p) in enumerate(tracks):
            means[k, t] = xi
            traces[k, t] = float(np.trace(p))
    return means, traces


def in_square(tx, ty, ax, ay, half_width):
    """Whether (tx, ty) lies in the closed square of the given half width
    centered at (ax, ay)."""
    return abs(tx - ax) <= half_width and abs(ty - ay) <= half_width


def in_any_disk(x, y, disks):
    """Whether (x, y) lies strictly inside any disk (cx, cy, r)."""
    return any((x - cx) * (x - cx) + (y - cy) * (y - cy) < r * r for cx, cy, r in disks)


def range_bearing_cov(sensor_xy, target_xy, alpha, r0):
    """R = G diag(0.1 alpha r, 0.1 pi alpha r) G^T, with G the rotation by
    the sensor-to-target bearing and r the range clamped below at r0."""
    dx, dy = target_xy[0] - sensor_xy[0], target_xy[1] - sensor_xy[1]
    r = max(math.sqrt(dx * dx + dy * dy), r0)
    rho = math.atan2(dy, dx)
    g = np.array([[math.cos(rho), -math.sin(rho)], [math.sin(rho), math.cos(rho)]])
    return g @ np.diag([0.1 * alpha * r, 0.1 * math.pi * alpha * r]) @ g.T


def greedy_mwtp(sensor_xy, half_widths, target_xy, traces, beta):
    """MWTP terminal penalty as a plain greedy loop.

    Targets go in decreasing trace order (ties by index). Each takes the
    sensor with the least accumulated distance plus distance to it (ties by
    index); only a sensor's first match adds beta * distance * trace. The
    sensor then moves the least per-axis distance that puts the target on
    its square footprint. Returns the penalty and one (target, sensor,
    distance, contributed, sensor position after) tuple per target.
    """
    pos = [[float(x), float(y)] for x, y in sensor_xy]
    d_acc = [0.0] * len(pos)
    penalty = 0.0
    steps = []
    for t in sorted(range(len(traces)), key=lambda t: -traces[t]):
        tx, ty = float(target_xy[t][0]), float(target_xy[t][1])
        dists = [math.sqrt((x - tx) * (x - tx) + (y - ty) * (y - ty)) for x, y in pos]
        i = min(range(len(pos)), key=lambda i: d_acc[i] + dists[i])
        first = d_acc[i] == 0.0
        if first:
            penalty += beta * dists[i] * traces[t]
        d_acc[i] += dists[i]
        for axis, target in enumerate((tx, ty)):
            delta = target - pos[i][axis]
            if abs(delta) > half_widths[i]:
                pos[i][axis] += math.copysign(abs(delta) - half_widths[i], delta)
        steps.append((t, i, dists[i], first, tuple(pos[i])))
    return penalty, steps


def rollout_cost(belief, joint, forest, model, h, beta=None):
    """Nominal-belief rollout cost of one joint plan, one scalar step at a time.

    ``joint[i][l]`` is agent i's velocity (ux, uy) at step l. Every step
    moves each agent by its action (p + u dt), predicts every track's
    mean and covariance, and gives each track one information-form
    covariance update per agent whose square footprint holds the track's
    mean, unless the mean lies strictly inside a forest disk. The cost is
    the sum over steps of the covariance traces, plus, with ``beta``, the
    greedy MWTP penalty of the tracks outside every final footprint.
    """
    agents = belief.xy.tolist()
    tracks = list(zip(belief.xi, belief.P))
    cost = 0.0
    for l in range(h):
        for i in range(len(joint)):
            ux, uy = joint[i][l]
            agents[i][0] += ux * model.dt
            agents[i][1] += uy * model.dt
        for j, (xi, p) in enumerate(tracks):
            xi, p = kalman_predict(xi, p, model.F, model.Q)
            tx, ty = float(xi[0]), float(xi[1])
            hidden = in_any_disk(tx, ty, forest.disks)
            for sensor, (ax, ay) in zip(belief.sensors, agents):
                if not hidden and in_square(tx, ty, ax, ay, sensor.fov_edge / 2.0):
                    r = range_bearing_cov((ax, ay), (tx, ty), sensor.alpha, sensor.r0)
                    p = kalman_update_cov(p, r)
            tracks[j] = (xi, p)
        cost += sum(float(np.trace(p)) for _, p in tracks)
    if beta is None:
        return cost
    half_widths = [s.fov_edge / 2.0 for s in belief.sensors]
    uncovered = [
        (xi[:2], float(np.trace(p)))
        for xi, p in tracks
        if not any(
            in_square(xi[0], xi[1], ax, ay, hw) for (ax, ay), hw in zip(agents, half_widths)
        )
    ]
    penalty, _ = greedy_mwtp(
        agents, half_widths, [xy for xy, _ in uncovered], [tr for _, tr in uncovered], beta
    )
    return cost + penalty


def joseph_update_batch(p, r):
    """Joseph-form covariance update of (M, 4, 4) covariances by (M, 2, 2)
    position-measurement covariances, written out exactly as the planner's
    kernel computes it, so the two agree bit for bit."""
    s = p[:, :2, :2] + r
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    s_inv = np.empty_like(s)
    s_inv[:, 0, 0] = s[:, 1, 1]
    s_inv[:, 1, 1] = s[:, 0, 0]
    s_inv[:, 0, 1] = -s[:, 0, 1]
    s_inv[:, 1, 0] = -s[:, 1, 0]
    s_inv /= det[:, None, None]
    k = p[:, :, :2] @ s_inv
    a = np.broadcast_to(np.eye(4), p.shape).copy()
    a[:, :, :2] -= k
    p_new = a @ p @ a.transpose(0, 2, 1) + k @ r @ k.transpose(0, 2, 1)
    return (p_new + p_new.transpose(0, 2, 1)) / 2.0


def range_bearing_cov_batch(delta, alpha, r0):
    """range_bearing_cov in closed form for sensor-to-target offsets (M, 2):
    c and s are the bearing's cosine and sine, taken as (1, 0) at range 0."""
    dx, dy = delta[:, 0], delta[:, 1]
    rng_true = np.hypot(dx, dy)
    r = np.maximum(rng_true, r0)
    safe = rng_true > 0.0
    denom = np.where(safe, rng_true, 1.0)
    c = np.where(safe, dx / denom, 1.0)
    s = np.where(safe, dy / denom, 0.0)
    k = 0.1 * alpha * r
    out = np.empty((len(delta), 2, 2))
    out[:, 0, 0] = k * (c * c + math.pi * s * s)
    out[:, 1, 1] = k * (s * s + math.pi * c * c)
    off = k * (1.0 - math.pi) * c * s
    out[:, 0, 1] = off
    out[:, 1, 0] = off
    return out


def dense_prefix_tree(p0, f, q, target_paths, free, sensors, fixed, step_xy, beta=None):
    """Every leaf cost of one prefix-tree search by the dense schedule: each
    child copies its parent's predicted covariances and every agent updates
    every (child, sample, track) block it sees.

    p0 (T, 4, 4) are the track covariances, ``target_paths`` (S, T, h, 2)
    the target positions and ``free`` (S, T, h) where they are not occluded.
    Agent i is ``sensors[i]`` = (x, y, half width, alpha, r0); it flies the
    (h, 2) step positions ``fixed[i]``, or, if that is None, it moves: at
    each step every prefix takes each row of ``step_xy`` (b, movers, 2) in
    turn, a row holding each mover's displacement. Leaves come in
    enumeration order, the first step's choice most significant; a leaf
    costs its step traces summed over tracks, averaged over samples, plus
    with ``beta`` the greedy MWTP penalty (S = 1).

    Also returns row counts of three schedules, as a dict. "dense" and
    "per_parent" are the Joseph rows this schedule updates and those a
    per-parent schedule updates: fixed agents before the first mover once
    per (parent, sample, track), a mover once per row it sees, and later
    fixed agents once per (parent, sample, track) plus once per row some
    mover sees. "shared" and "predicted" are the Joseph rows and predicted
    rows of a shared-row schedule, which holds one covariance per lineage:
    a row's lineage starts at the root, one per (sample, track), and
    changes only where a mover sees it. That schedule predicts each
    lineage of a level's parents once, a fixed agent updates each parent
    lineage it sees once, a mover each row it sees, and a later fixed
    agent also each row it sees that some mover sees.
    """
    n_samples, n_tracks, h = target_paths.shape[:3]
    movers = [i for i, fx in enumerate(fixed) if fx is None]
    first = movers[0] if movers else len(fixed)
    p = np.broadcast_to(p0, (1, n_samples, n_tracks, 4, 4)).copy()
    offset = np.full((1, len(movers), 2), -0.0)
    cost = np.zeros((1, n_samples))
    lineage = np.arange(n_samples * n_tracks).reshape(1, n_samples, n_tracks)
    n_lineages = lineage.size
    rows = dict.fromkeys(("dense", "per_parent", "shared", "predicted"), 0)
    for level in range(h):
        n_parents = len(p)
        rows["predicted"] += len(np.unique(lineage))
        parent = np.repeat(np.arange(n_parents), len(step_xy))
        choice = np.tile(np.arange(len(step_xy)), n_parents)
        offset = offset[parent] + step_xy[choice]
        p = (f @ p @ f.T + q)[parent]
        ancestry, lineage = lineage, lineage[parent]
        pos = [
            np.broadcast_to(fx[level], (len(parent), 2)) if fx is not None
            else np.array(sensors[i][:2]) + offset[:, movers.index(i)]
            for i, fx in enumerate(fixed)
        ]
        for t in range(n_tracks):
            tp = target_paths[:, t, level]
            deltas, views = [], []
            for (_, _, half_width, _, _), xy in zip(sensors, pos):
                delta = tp[None, :, :] - xy[:, None, :]
                deltas.append(delta)
                views.append(
                    (np.abs(delta[..., 0]) <= half_width)
                    & (np.abs(delta[..., 1]) <= half_width)
                    & free[None, :, t, level]
                )
            seen = np.zeros((len(parent), n_samples), dtype=bool)
            for i in movers:
                seen |= views[i]
            for i, (delta, vis) in enumerate(zip(deltas, views)):
                rows["dense"] += int(vis.sum())
                if fixed[i] is None:
                    rows["per_parent"] += int(vis.sum())
                    rows["shared"] += int(vis.sum())
                else:
                    rows["per_parent"] += n_parents * int(vis[0].sum())
                    rows["shared"] += len(np.unique(ancestry[:, vis[0], t]))
                    if i > first:
                        rows["per_parent"] += int((vis & seen).sum())
                        rows["shared"] += int((vis & seen).sum())
                if vis.any():
                    r = range_bearing_cov_batch(delta[vis], sensors[i][3], sensors[i][4])
                    pt = p[:, :, t]
                    pt[vis] = joseph_update_batch(pt[vis], r)
            renewed = int(seen.sum())
            lineage[:, :, t][seen] = np.arange(n_lineages, n_lineages + renewed)
            n_lineages += renewed
        cost = cost[parent] + np.trace(p, axis1=-2, axis2=-1).sum(axis=2)
    costs = cost.mean(axis=1)
    if beta is not None:
        half_widths = [sensor[2] for sensor in sensors]
        for leaf in range(len(costs)):
            end = [tuple(xy[leaf]) for xy in pos]
            uncovered = [
                t for t in range(n_tracks)
                if not any(
                    in_square(*target_paths[0, t, -1], ax, ay, hw)
                    for (ax, ay), hw in zip(end, half_widths)
                )
            ]
            penalty, _ = greedy_mwtp(
                end, half_widths, [target_paths[0, t, -1] for t in uncovered],
                [float(np.trace(p[leaf, 0, t])) for t in uncovered], beta,
            )
            costs[leaf] += penalty
    return costs, rows


def literal_beam(p0, f, q, target_paths, free, sensors, fixed, step_xy, keep, beta=None):
    """A beam search of the tree dense_prefix_tree scores, written out.

    The arguments are dense_prefix_tree's. At each step every surviving
    prefix is extended by every choice, in rank order of the survivors and
    choice order within each; an inner prefix scores its dense cost at its
    own length with no terminal penalty, and the ``keep`` best by (score,
    position) survive. Returns the leaves (tuples of choices) in that order,
    their costs, and the count of prefixes and leaves scored.
    """
    n_choices, h = len(step_xy), target_paths.shape[2]
    beam, scored = [()], 0
    for level in range(h):
        last = level + 1 == h
        costs, _ = dense_prefix_tree(
            p0, f, q, target_paths[:, :, : level + 1], free[:, :, : level + 1],
            sensors, fixed, step_xy, beta if last else None,
        )
        expanded = [seq + (c,) for seq in beam for c in range(n_choices)]
        scores = [costs[np.ravel_multi_index(seq, (n_choices,) * len(seq))] for seq in expanded]
        scored += len(expanded)
        ranked = sorted(range(len(expanded)), key=lambda i: (scores[i], i))
        beam = [expanded[i] for i in ranked[:keep]]
    return expanded, np.array(scores), scored


def forest_all_pairs(lam, radius, width, height, rng, retry_budget):
    """Poisson forest placed by rejection sampling, each candidate tested
    against every placed disk.

    Draws a Poisson(lam) count, then per disk up to ``retry_budget``
    candidate centres uniform on [0, width] x [0, height], rounded to 6
    decimals; a candidate is kept when its squared distance to every placed
    centre exceeds (2 radius)^2. Returns the placed (cx, cy, r) disks and
    whether all of them were placed.
    """
    count = int(rng.poisson(lam))
    placed = []
    for _ in range(count):
        for _attempt in range(retry_budget):
            cx = float(f"{rng.uniform(0.0, width):.6f}")
            cy = float(f"{rng.uniform(0.0, height):.6f}")
            if all((cx - px) ** 2 + (cy - py) ** 2 > (2.0 * radius) ** 2 for px, py, _ in placed):
                placed.append((cx, cy, float(f"{radius:.6f}")))
                break
        else:
            return placed, False
    return placed, True
