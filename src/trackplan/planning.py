"""Receding-horizon fleet planners over the shared target belief.

Plans and intents are float (n_agents, h, 2) arrays: row i holds agent i's
velocity commands (ux, uy), one per step, drawn from action_set's (|A|, 2).

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

All three search one prefix tree level by level (_PrefixTree): each
level extends the surviving prefixes by every choice through one rollout
step, so a shared prefix is rolled out once, and a covariance that no
moving agent has seen since some ancestor is held, predicted and updated
once for all the prefixes below it. A sweep stage expands one
agent's actions, exhaustively or by beam search; the joint optimization
expands all agents' joint actions. Leaves are reduced by (cost,
enumeration index), so the outcome is identical to scoring complete
sequences one by one in order.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import FleetBelief, NcvModel, _apply
from .sensing import _range_bearing_cov_batch, in_fov
from .worldgen import OcclusionForest

_EYE4 = np.eye(4)

# Most (prefix, sample) rows one search step extends and scores at once. A
# block holds max(1, SCAN_CHUNK // S) prefixes, each carrying S target
# samples, and a level's parents are predicted a block at a time. A block
# refers to its (prefix, sample, track) covariances by index into a pool
# of distinct (4, 4) covariances: a block of parents' distinct rows and
# the rows a mover sees in one block of children, so no kernel array holds
# more than 2 x max(SCAN_CHUNK, S) x T covariances. Leaves hold only
# traces, and updates run in slices of JOSEPH_ROWS rows. The block-sized
# arrays live in _WORKSPACE, whose size mcr_memory bounds.
SCAN_CHUNK = 4096

# Largest joint sequence space dec_pomdp_plan will enumerate.
DEC_POMDP_BUDGET = 1_000_000

# Most bytes mcr_plan's kernel may need for its workspace (_Workspace) plus
# its S x T x h sampled (x, y) target positions: 1 GiB, about 207,000
# samples of 4 targets at H3.
MCR_MEMORY_BUDGET = 1 << 30

# Most covariances one Joseph update takes at once: the distinct rows a
# fixed agent sees at a level, and the rows a mover sees in a block, run
# in slices of this many rows. A slice's temporaries are fresh arrays of
# at most 64 KB (512 (4, 4) covariances), under glibc's default 128 KiB
# mmap threshold, so they come from the heap without page faults and stay
# in cache.
JOSEPH_ROWS = 512

# Floats the workspace holds per covariance row of a block, max(SCAN_CHUNK,
# S) x T rows: at each search depth, of which there are at most h, the
# pool (32: a block of parents' rows and a block of children's), the
# predict's scratch (16) and the parents' and one children block's
# indices into the pool (1 each); and once, a fixed agent's R (4) and a
# mover's offsets (2).
_DEPTH_FLOATS = 50
_BLOCK_FLOATS = 6

# A sweep stage enumerates all |A|^h sequences while that count is at most
# EXHAUSTIVE_LIMIT (h <= 5 with |A| = 9); beyond it, it runs a greedy
# by-step beam search that keeps the BEAM_WIDTH best prefixes per level.
EXHAUSTIVE_LIMIT = 100_000
BEAM_WIDTH = 8


class BudgetExceededError(RuntimeError):
    """A planner would exceed its rollout or memory budget."""


@dataclass(frozen=True)
class PlanStats:
    """Instrumentation for one planning call."""

    per_agent_evals: tuple[int, ...]
    stage_incumbent_costs: tuple[float, ...] = ()
    stage_best_costs: tuple[float, ...] = ()

    @property
    def rollout_evals(self) -> int:
        """Sequences scored by all agents together."""
        return sum(self.per_agent_evals)


def action_count(n_headings: int, n_speeds: int) -> int:
    """Size of action_set(v_max, n_headings, n_speeds), without building it."""
    return 1 + n_headings * n_speeds


def action_set(v_max: float, n_headings: int = 8, n_speeds: int = 1) -> np.ndarray:
    """Hover plus evenly spaced headings at evenly spaced speed fractions:
    an (|A|, 2) array of horizontal velocity commands (ux, uy) in m/s."""
    if n_headings < 1 or n_speeds < 1:
        raise ValueError("n_headings and n_speeds must be >= 1")
    actions = [(0.0, 0.0)]
    for j in range(1, n_speeds + 1):
        speed = v_max * j / n_speeds
        for k in range(n_headings):
            theta = 2.0 * math.pi * k / n_headings
            actions.append((speed * math.cos(theta), speed * math.sin(theta)))
    return np.array(actions)


def mwtp_detailed(
    sensor_xy: np.ndarray,
    half_widths: np.ndarray,
    target_xy: np.ndarray,
    traces: np.ndarray,
    uncovered: np.ndarray,
    beta: float,
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """MWTP terminal penalty of a block of L leaves, matched all at once.

    Leaf l has sensors (n, 2) at sensor_xy[l] with the (n,) half widths and
    leaves uncovered the targets (T, 2) that uncovered[l] marks, of traces
    traces[l]. It takes those targets in decreasing trace order; each picks
    the sensor minimizing accumulated-distance-plus-distance (ties by index
    throughout), a sensor contributes beta * distance * trace only while its
    accumulated distance is 0.0, and the matched sensor moves to the minimal
    pose covering the target. Returns the (L,) penalties and, per iteration,
    the (L,) arrays (target, sensor, distance, contributed, sensor position
    after); a leaf past its last uncovered target stays as it is.
    _PrefixTree._leaf_costs calls it once per block of leaves.
    """
    rows = np.arange(len(sensor_xy))
    pos = np.array(sensor_xy, dtype=float)
    d_acc = np.zeros(pos.shape[:2])
    penalty = np.zeros(len(rows))
    steps = []
    # covered targets sort last; the uncovered keep the order of a stable
    # argsort over them alone
    order = np.argsort(np.where(uncovered, -traces, np.inf), axis=1, kind="stable")
    for t in order.T:
        active = uncovered[rows, t]
        tp = target_xy[t]
        delta = pos - tp[:, None, :]
        dists = np.sqrt(delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1])
        i = np.argmin(d_acc + dists, axis=1)
        dist = dists[rows, i]
        first = active & (d_acc[rows, i] == 0.0)
        penalty[first] += beta * dist[first] * traces[rows, t][first]
        d_acc[rows[active], i[active]] += dist[active]
        before = pos[rows, i]
        delta = tp - before
        excess = np.abs(delta) - half_widths[i][:, None]
        move = active[:, None] & (excess > 0)
        after = np.where(move, before + np.copysign(excess, delta), before)
        pos[rows, i] = after
        steps.append((t, i, dist, first, after))
    return penalty, steps


# ---------------------------------------------------------------------------
# Level-wise search over the prefix tree of candidate sequences
# ---------------------------------------------------------------------------


class _Workspace:
    """Buffers the rollout kernel reuses from plan to plan, one per key.

    It holds only the arrays that grow with a block. A buffer grows to the
    largest view asked of it and is never freed, so a warm plan allocates
    no block and takes no page fault for one, and the heap does not trim
    and regrow around every update. One process runs one plan at a time
    (run_experiment's workers are processes), and each key has one owner
    at a time: per search depth, ("pool", d) holds a level's distinct
    parent rows, predicted and updated by the fixed agents, and after them
    the rows a mover sees in the block of children being built; ("before",
    d) is the predict's scratch and then those parent rows as the first
    mover finds them; ("refs", d) holds the parents' indices into the
    pool and ("kids", d) a children block's. "r" holds a fixed agent's R
    for each row it updates and "delta" a mover's offsets to the targets
    of a block. mcr_memory bounds their bytes. Slice-sized temporaries
    (JOSEPH_ROWS) are fresh arrays.
    """

    def __init__(self) -> None:
        self._buffers: dict[object, np.ndarray] = {}

    def __call__(self, key: object, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
        """A C-contiguous view of the given shape on buffer ``key``, whose
        elements are ``dtype``, 8 bytes each."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


def _joseph_update_batch(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Joseph-form update of the (M, 4, 4) covariances p with the (M, 2, 2)
    measurement covariances r, in place; returns p.

    It computes a @ p @ a^T + k @ r @ k^T and symmetrizes it, k the gain of
    the explicitly inverted 2x2 innovation.
    """
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
    return np.divide(p_new + p_new.transpose(0, 2, 1), 2.0, out=p)


def _update_rows(p: np.ndarray, rows: np.ndarray, r: np.ndarray) -> None:
    """Joseph-update the given rows of the (K, 4, 4) covariances p in place
    with their (len(rows), 2, 2) R, JOSEPH_ROWS at a time: slices of p
    itself where the rows are all of p, else gathered copies."""
    for lo in range(0, len(rows), JOSEPH_ROWS):
        part = rows[lo : lo + JOSEPH_ROWS]
        if len(rows) == len(p):
            _joseph_update_batch(p[lo : lo + JOSEPH_ROWS], r[lo : lo + JOSEPH_ROWS])
        else:
            p[part] = _joseph_update_batch(p.take(part, axis=0), r[lo : lo + JOSEPH_ROWS])


def _nominal_paths(belief: FleetBelief, model: NcvModel, h: int) -> np.ndarray:
    """Noise-free propagation of every track mean over h steps: the mean
    positions as a (1, T, h, 2) sample block, tracks ordered like the belief's."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    out = np.zeros((1, len(belief.xi), h, 2))
    xi = belief.xi
    for l in range(h):
        xi = _apply(model.F, xi)
        out[0, :, l] = xi[:, :2]
    return out


def _sample_target_paths(
    belief: FleetBelief, model: NcvModel, h: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Target trajectories drawn from the belief with process noise, (S, T, h, 2)."""
    n_tracks = len(belief.xi)
    if n_tracks == 0:
        return np.zeros((n_samples, 0, h, 2))
    evals_q, vecs_q = np.linalg.eigh(model.Q)
    lq = vecs_q * np.sqrt(np.clip(evals_q, 0.0, None))
    out = np.empty((n_samples, n_tracks, h, 2))
    for t, (xi, p) in enumerate(zip(belief.xi, belief.P)):
        evals_p, vecs_p = np.linalg.eigh(p)
        lp = vecs_p * np.sqrt(np.clip(evals_p, 0.0, None))
        x = xi + rng.standard_normal((n_samples, 4)) @ lp.T
        for l in range(h):
            x = x @ model.F.T + rng.standard_normal((n_samples, 4)) @ lq.T
            out[:, t, l, :] = x[:, :2]
    return out


class _Nodes(NamedTuple):
    """A block of prefixes at one level of the search tree, in expansion order."""

    paths: np.ndarray  # (N, level) choice index at each step
    offset: np.ndarray  # (N, movers, 2) each moving agent's summed v*dt
    # (N, S, T) row of pool holding each covariance after the level's step,
    # and pool (K, 4, 4); None for leaves. Prefixes share every row that no
    # mover has seen since their common ancestor.
    rows: np.ndarray | None
    pool: np.ndarray | None
    traces: np.ndarray | None  # (N, S, T) their traces, None at the root
    cost: np.ndarray  # (N, S) accumulated trace per target sample


class _Level(NamedTuple):
    """What every block of one level's children shares."""

    rows: np.ndarray  # (N, S, T) each parent's row of pool
    # (size + room, 4, 4): the parents' distinct rows predicted and updated
    # by every fixed agent, what a child takes where no mover sees; after
    # them, room for the rows a mover sees in one block of children
    pool: np.ndarray
    size: int
    before: np.ndarray  # (size, 4, 4) the distinct rows as the first mover finds them
    traces: np.ndarray  # (N, S, T) traces of the parents' rows
    # The updates left for the (child, sample, track) rows a mover sees, in
    # agent order from the first mover on: a mover's index, or a later
    # fixed agent's (S, T) visibility and (S, T, 2, 2) R, zero where it
    # sees nothing. Empty where no agent moves.
    steps: list[int | tuple[np.ndarray, np.ndarray]]


class _Found(NamedTuple):
    path: np.ndarray | None  # choice index per step of the best leaf
    cost: float
    watched: float  # cost of the leaf at position ``watch``, NaN if unwatched
    scored: int  # leaves plus ranked beam prefixes


@dataclass
class _Search:
    """What one _PrefixTree.search varies: the agents that move, their
    choices, the block size, and the sequences scored so far."""

    fixed: list[np.ndarray | None]  # (1, h, 2) step positions, None for a mover
    movers: list[int]
    step_xy: np.ndarray  # (b, movers, 2) each choice's v*dt
    block: int  # most prefixes extended or scored at once
    scored: int = 0


class _PrefixTree:
    """The covariance rollouts of one planning call, expanded level by level.

    A search lets the agents whose ``fixed`` entry is None (the movers)
    pick one row of a (b, movers, 2) velocity table at every step, while
    every other agent i flies the step positions ``fixed[i]`` (1, h, 2).
    Each level predicts the surviving prefixes' covariances once, extends
    every prefix by every choice in (parent, choice) order, applies that
    step's covariance-only updates (each row by the agents in index order)
    and adds the step's trace. Prefixes hold their (sample, track)
    covariances as rows of a pool: a child takes its parent's row wherever
    no mover sees the track, so a row is shared by every prefix below the
    last step a mover saw it, and a level predicts each distinct row once.
    A fixed agent sees the same for every prefix sharing a row, so it
    updates each distinct row once; only the (child, sample, track) rows a
    mover sees become new rows, and leaves keep only their traces. Each
    agent updates all the rows it sees in a block in one batch, over every
    track at once. A mover's position is its start plus the summed v*dt of
    its prefix, the sums np.cumsum forms, so each leaf costs exactly what a
    rollout of its whole sequence costs. A leaf adds the terminal penalty
    weighted by ``beta``, or none if ``beta`` is None. The tree holds only
    what is fixed for the plan; each search keeps its own state in a
    _Search, and its covariance blocks in _WORKSPACE.
    """

    def __init__(
        self,
        belief: FleetBelief,
        model: NcvModel,
        forest: OcclusionForest,
        target_paths: np.ndarray,
        beta: float | None = None,
    ):
        if beta is not None and target_paths.shape[0] != 1:
            raise ValueError("the terminal penalty needs one nominal target path (S = 1)")
        self.belief, self.model, self.beta = belief, model, beta
        self.target_paths = target_paths
        self.h = target_paths.shape[2]
        # one call for all S x T x h positions: occludes bounds its own
        # temporaries by testing a few points at a time
        self.free = ~forest.occludes(target_paths)

    def positions(self, joint: np.ndarray) -> list[np.ndarray]:
        """Step positions (1, h, 2) of every agent flying its row of the
        (n_agents, h, 2) velocity plan ``joint``."""
        steps = np.cumsum(joint * self.model.dt, axis=1)
        return [xy + s[None] for xy, s in zip(self.belief.xy, steps)]

    def search(
        self,
        fixed: list[np.ndarray | None],
        choice_xy: np.ndarray,
        keep: int | None = None,
        watch: int | None = None,
        rank: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> _Found:
        """Lowest-cost leaf, scored in blocks of at most SCAN_CHUNK (prefix,
        sample) rows, or of one prefix if it has more samples than that.

        With ``keep`` None every prefix is expanded; otherwise a beam keeps
        the ``keep`` best prefixes per level by (mean cost, position) and
        expands them in that rank order. The first strict minimum wins:
        ties go to the earliest leaf or, given ``rank``, to the lowest
        rank(paths).
        """
        n_samples, n_tracks = self.target_paths.shape[:2]
        run = _Search(
            fixed,
            [i for i, f in enumerate(fixed) if f is None],
            choice_xy * self.model.dt,
            max(1, SCAN_CHUNK // n_samples),
        )
        cells = n_samples * n_tracks
        root = _Nodes(
            np.zeros((1, 0), dtype=int),
            np.full((1, len(run.movers), 2), -0.0),  # -0.0 + x == x, as cumsum starts
            np.arange(cells).reshape(1, n_samples, n_tracks),
            np.broadcast_to(self.belief.P, (n_samples, n_tracks, 4, 4)).reshape(cells, 4, 4),
            None,
            np.zeros((1, n_samples)),
        )
        best, best_cost, best_rank, watched, lo = None, math.inf, 0, math.nan, 0
        for paths, costs in self._expand(run, root, 0, keep, 0):
            j = int(np.argmin(costs))
            r = lo + j
            if rank is not None:
                ties = np.flatnonzero(costs == costs[j])  # empty if costs[j] is NaN
                if len(ties):
                    ranks = rank(paths[ties])
                    j, r = int(ties[np.argmin(ranks)]), int(ranks.min())
            if costs[j] < best_cost or (costs[j] == best_cost and r < best_rank):
                best, best_cost, best_rank = paths[j], float(costs[j]), r
            if watch is not None and lo <= watch < lo + len(costs):
                watched = float(costs[watch - lo])
            lo += len(costs)
        return _Found(best, best_cost, watched, run.scored)

    def _expand(self, run: _Search, nodes: _Nodes, level: int, keep: int | None, depth: int):
        """Leaf blocks (paths, costs) below ``nodes``, depth first. A beam level or
        one whose children fit one block is descended in a loop; only a level
        that splits into several blocks recurses, once per block, one
        ``depth`` further down, so each depth's workspace stays its own."""
        while level + 1 < self.h:
            blocks = self._children(run, nodes, level, depth)
            if keep is not None:
                # each block's rows and pool are workspace views: copy them
                # out, its rows shifted past the pools of the blocks before it
                kids, base = [], 0
                for b in blocks:
                    kids.append(b._replace(rows=b.rows + base, pool=b.pool.copy()))
                    base += len(b.pool)
                paths, offset, rows, pool, traces, cost = map(np.concatenate, zip(*kids))
                mean = cost.mean(axis=1)
                run.scored += len(mean)
                ranked = sorted(range(len(mean)), key=lambda i: (mean[i], i))[:keep]
                nodes = _Nodes(
                    paths[ranked], offset[ranked], rows[ranked], pool, traces[ranked], cost[ranked]
                )
            elif len(nodes.cost) * len(run.step_xy) <= run.block:
                nodes = next(blocks)
            else:
                for block in blocks:
                    yield from self._expand(run, block, level + 1, keep, depth + 1)
                return
            level += 1
        for leaves in self._children(run, nodes, level, depth):
            run.scored += len(leaves.cost)
            yield leaves.paths, self._leaf_costs(run, leaves)

    def _children(self, run: _Search, nodes: _Nodes, level: int, depth: int):
        """Children of ``nodes`` after step ``level``, ``run.block`` prefixes
        (SCAN_CHUNK (prefix, sample) rows) at a time, from one _Level per
        ``run.block`` parents: one per block of parents, and several only
        for a beam's survivors, whose pool is their own. An inner block's
        rows and pool are the workspace's ("kids", depth) and ("pool",
        depth) views, valid until the next block."""
        n_choices = len(run.step_xy)
        sights, steps = self._sightings(run, level)
        for first in range(0, len(nodes.cost), run.block):
            part = nodes.rows[first : first + run.block]
            total = len(part) * n_choices
            room = 0 if level + 1 == self.h else min(total, run.block) * part[0].size
            shared = self._level(part, nodes.pool, sights, steps, depth, room)
            for lo in range(0, total, run.block):
                local, choice = np.divmod(np.arange(lo, min(lo + run.block, total)), n_choices)
                parent = first + local
                offset = nodes.offset[parent] + run.step_xy[choice]
                rows, pool, traces = self._update(
                    shared, local, self._agent_xy(run, offset, level), level, depth
                )
                cost = nodes.cost[parent] + traces.sum(axis=2)
                yield _Nodes(
                    np.column_stack((nodes.paths[parent], choice)), offset, rows, pool, traces, cost
                )

    def _agent_xy(self, run: _Search, offset: np.ndarray, level: int) -> list[np.ndarray]:
        """Each agent's position after step ``level``: (1, 2) fixed, (N, 2) moving."""
        pos = [f if f is None else f[:, level, :] for f in run.fixed]
        for k, i in enumerate(run.movers):
            pos[i] = self.belief.xy[i] + offset[:, k, :]
        return pos

    def _sightings(self, run: _Search, level: int) -> tuple[list, list]:
        """What the fixed agents see at step ``level``, worked out once for
        every block of the level: per fixed agent that sees anything, in
        agent order, its (S, T) visibility, its (S, T, 2, 2) R, zero where
        it sees nothing, and whether it comes after the first mover; and
        the _Level steps."""
        tp = self.target_paths[:, :, level, :]
        ft = self.free[:, :, level]
        first = run.movers[0] if run.movers else len(run.fixed)
        sights, steps = [], []
        for i, (sensor, f) in enumerate(zip(self.belief.sensors, run.fixed)):
            if f is None:
                steps.append(i)
                continue
            delta = tp - f[0, level]
            vis = in_fov(delta, sensor.half_width) & ft
            if not vis.any():
                continue
            r = np.zeros(vis.shape + (2, 2))
            r[vis] = _range_bearing_cov_batch(delta[vis], sensor.alpha, sensor.r0)
            sights.append((vis, r, i > first))
            if i > first:
                steps.append((vis, r))
        return sights, steps

    def _level(
        self, rows: np.ndarray, pool: np.ndarray, sights: list, steps: list, depth: int, room: int
    ) -> _Level:
        """Predict the distinct rows of ``pool`` that the parents' ``rows``
        (N, S, T) refer to, once each, and apply every fixed agent's update
        to them once: its sight and R depend only on a row's (sample,
        track), so it sees the same for every child of every parent sharing
        the row. Each fixed agent updates all its rows in one batch, in
        agent order. ``room`` rows follow them for a block's new rows.

        A Joseph update gives each row the same bits whichever rows share
        its batch (as a slice, a gathered copy or a whole block), and so
        does the predict, so one update of a shared row gives the bits that
        one update per prefix gives.
        """
        cell = np.full(len(pool), -1)  # each row's (sample, track), -1 where unused
        cell[rows] = np.arange(rows[0].size).reshape(rows.shape[1:])
        refs = _WORKSPACE(("refs", depth), rows.shape, int)
        # A prefix's rows are distinct, so a pool as large as one prefix's
        # rows, as at the root, is all in use; a larger one is gathered into
        # scratch without its unused rows, the rest numbered in order. pool
        # may be a view of ("pool", depth), or now scratch: the predict
        # reads it whole into p, and numpy buffers an overlap.
        if len(pool) == rows[0].size:
            np.copyto(refs, rows)
            scratch = _WORKSPACE(("before", depth), pool.shape)
        else:
            kept = np.flatnonzero(cell >= 0)
            cell, index = cell[kept], cell
            index[kept] = np.arange(len(kept))
            np.take(index, rows, out=refs, mode="clip")
            scratch = _WORKSPACE(("before", depth), (len(kept), 4, 4))
            pool = np.take(pool, kept, axis=0, out=scratch, mode="clip")
        level_pool = _WORKSPACE(("pool", depth), (len(pool) + room, 4, 4))
        p = level_pool[: len(pool)]
        np.matmul(self.model.F, pool, out=p)
        np.matmul(p, self.model.F.T, out=scratch)
        np.add(scratch, self.model.Q, out=p)
        before = p
        for vis, r, later in sights:
            if later and before is p:  # keep the rows as the first mover finds them
                before = scratch
                np.copyto(before, p)
            seen = np.flatnonzero(vis.reshape(-1)[cell])
            each = _WORKSPACE("r", (len(seen), 2, 2))
            np.take(r.reshape(-1, 2, 2), cell[seen], axis=0, out=each, mode="clip")
            _update_rows(p, seen, each)
        traces = np.trace(p, axis1=1, axis2=2)[refs]
        return _Level(refs, level_pool, len(p), before, traces, steps)

    def _update(
        self, shared: _Level, parent: np.ndarray, agent_xy: list[np.ndarray], level: int, depth: int
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
        """Step ``level``'s updates of the (child, sample, track) rows a mover
        sees, for the children of ``parent``: their (C, S, T) rows and pool
        (None at the leaf level) and their (C, S, T) traces.

        A child takes its parent's rows except where a mover sees the track:
        that row starts from the parent's row as the first mover finds it,
        each later agent that sees it updates it, and it becomes a new row of
        the pool, after the parents'. The rows go JOSEPH_ROWS at a time, and
        each agent updates all it sees of them in one batch.
        """
        traces = shared.traces[parent]
        rows = pool = None
        if level + 1 < self.h:
            rows = _WORKSPACE(("kids", depth), traces.shape, int)
            np.take(shared.rows, parent, axis=0, out=rows, mode="clip")
            pool = shared.pool[: shared.size]
        tp = self.target_paths[:, :, level, :]
        ft = self.free[:, :, level]
        sights = {}  # per mover that sees anything: its (C, S, T) visibility and their R
        for i in shared.steps:
            if isinstance(i, int):
                sensor = self.belief.sensors[i]
                delta = _WORKSPACE("delta", (len(parent),) + tp.shape)
                delta[...] = tp  # then one broadcast operand: a smaller ufunc buffer
                np.subtract(delta, agent_xy[i][:, None, None, :], out=delta)
                vis = in_fov(delta, sensor.half_width) & ft
                if vis.any():
                    sights[i] = vis, _range_bearing_cov_batch(delta[vis], sensor.alpha, sensor.r0)
        if not sights:
            return rows, pool, traces
        own = np.flatnonzero(np.logical_or.reduce([vis for vis, _ in sights.values()]))
        size = traces[0].size  # (sample, track) rows per child
        child, cell = np.divmod(own, size)
        start = shared.rows.reshape(-1).take(parent[child] * size + cell)  # rows of shared.before
        updates = []  # per step: which of the rows it updates, and their R
        for step in shared.steps:
            if isinstance(step, int):
                if step in sights:
                    vis, r = sights[step]
                    updates.append((vis.reshape(-1)[own], r))
            else:
                mask = step[0].reshape(-1)[cell]
                updates.append((mask, step[1].reshape(-1, 2, 2)[cell[mask]]))
        done = [0] * len(updates)
        for lo in range(0, len(own), JOSEPH_ROWS):
            hi = min(lo + JOSEPH_ROWS, len(own))
            fresh = shared.before.take(start[lo:hi], axis=0)
            for k, (mask, r) in enumerate(updates):
                some = np.flatnonzero(mask[lo:hi])
                if len(some):
                    _update_rows(fresh, some, r[done[k] : done[k] + len(some)])
                    done[k] += len(some)
            traces.reshape(-1)[own[lo:hi]] = np.trace(fresh, axis1=1, axis2=2)
            if rows is not None:
                shared.pool[shared.size + lo : shared.size + hi] = fresh
        if rows is None:
            return None, None, traces
        rows.reshape(-1)[own] = np.arange(shared.size, shared.size + len(own))
        return rows, shared.pool[: shared.size + len(own)], traces

    def _leaf_costs(self, run: _Search, leaves: _Nodes) -> np.ndarray:
        """Mean cost over target samples plus the terminal penalty, if any."""
        costs = leaves.cost.mean(axis=1)
        if self.beta is None:
            return costs
        end_targets = self.target_paths[0, :, -1, :]
        end_traces = leaves.traces[:, 0]
        end_agent = np.stack(
            [np.broadcast_to(a, (len(costs), 2)) for a in self._agent_xy(run, leaves.offset, -1)],
            axis=1,
        )
        half_widths = np.array([s.half_width for s in self.belief.sensors])
        offset = end_targets[None, None, :, :] - end_agent[:, :, None, :]
        uncovered = ~in_fov(offset, half_widths[:, None]).any(1)
        # a leaf that covers every target adds a penalty of 0.0
        return costs + mwtp_detailed(
            end_agent, half_widths, end_targets, end_traces, uncovered, self.beta
        )[0]


def _search_stage(
    tree: _PrefixTree, agent_index: int, joint: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, float, float, int]:
    """Best sequence for one agent, every other agent flying its ``joint`` row.

    Returns the (h, 2) sequence, its cost, the incumbent's cost and the
    sequences scored. The stage expands the agent's whole tree while |A|^h
    <= EXHAUSTIVE_LIMIT and runs a beam search beyond. The agent's row of
    ``joint`` is its incumbent. It is always scored, as a leaf of the whole
    tree or else alone, so the returned cost never exceeds it.
    """
    incumbent = joint[agent_index]
    n_actions, h = len(actions), tree.h
    fixed = tree.positions(joint)
    movers = [None if i == agent_index else f for i, f in enumerate(fixed)]
    in_set = (incumbent[:, None] == actions).all(-1)  # (h, |A|)
    exhaustive = n_actions**h <= EXHAUSTIVE_LIMIT
    watch = None
    if exhaustive and in_set.any(1).all():
        watch = int(np.ravel_multi_index(in_set.argmax(1), (n_actions,) * h))
    best_seq, best_cost, incumbent_cost, evaluations = tree.search(
        movers, actions[:, None], None if exhaustive else BEAM_WIDTH, watch
    )
    if math.isnan(incumbent_cost):
        lone = tree.search(fixed, np.zeros((1, 0, 2)), watch=0)
        incumbent_cost = lone.watched
        evaluations += lone.scored
        if incumbent_cost < best_cost:
            best_cost, best_seq = incumbent_cost, None
    seq = incumbent if best_seq is None else actions[best_seq]
    return seq, best_cost, incumbent_cost, evaluations


def extend_intent(previous: np.ndarray | None, h: int, n_agents: int) -> np.ndarray:
    """Per-agent policies of intent, an (n_agents, h, 2) velocity array: last
    epoch's plan shifted by one step and extended by repeating its last action.

    With no previous plan (first epoch) every intent is all-hover.
    """
    if previous is None:
        return np.zeros((n_agents, h, 2))
    if np.shape(previous) != (n_agents, h, 2):
        raise ValueError(f"previous plan must have shape {(n_agents, h, 2)}")
    return np.concatenate((previous[:, 1:], previous[:, -1:]), axis=1)


def _sweep(
    belief: FleetBelief,
    intents: np.ndarray,
    actions: np.ndarray,
    forest: OcclusionForest,
    model: NcvModel,
    target_paths: np.ndarray,
    beta: float | None,
) -> tuple[np.ndarray, PlanStats]:
    joint = np.array(intents, dtype=float)  # the caller's intents stay as they are
    if joint.shape != (len(belief.sensors), target_paths.shape[2], 2):
        raise ValueError(f"intents must have shape (n_agents, h, 2), got {joint.shape}")
    tree = _PrefixTree(belief, model, forest, target_paths, beta)
    stages = []
    for i in range(len(joint)):
        joint[i], *result = _search_stage(tree, i, joint, actions)
        stages.append(result)
    best_costs, incumbent_costs, evals = zip(*stages)
    return joint, PlanStats(evals, incumbent_costs, best_costs)


def sma_nbo_plan(
    belief: FleetBelief,
    intents: np.ndarray,
    actions: np.ndarray,
    forest: OcclusionForest,
    model: NcvModel,
    beta: float | None = None,
) -> tuple[np.ndarray, PlanStats]:
    """Sequential sweep: agents optimize in index order, each against its
    predecessors' fresh plans and its successors' intents.

    The horizon h is the intents' length; ``beta`` weights the MWTP
    terminal penalty, None scores none.

    Incumbent inclusion makes the joint objective non-increasing stage by
    stage, so the result is never worse than executing the intents.
    """
    paths = _nominal_paths(belief, model, intents.shape[1])
    return _sweep(belief, intents, actions, forest, model, paths, beta)


def mcr_plan(
    belief: FleetBelief,
    intents: np.ndarray,
    actions: np.ndarray,
    forest: OcclusionForest,
    model: NcvModel,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, PlanStats]:
    """Monte-Carlo rollout: the sequential sweep scored on sampled targets.

    One batch of target trajectories is drawn from the belief per call and
    reused for every candidate (common random numbers), with observability
    and measurement covariance evaluated per sample.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    paths = _sample_target_paths(belief, model, intents.shape[1], n_samples, rng)
    return _sweep(belief, intents, actions, forest, model, paths, None)


def dec_pomdp_joint_count(n_actions: int, n_agents: int, h: int) -> int:
    """Joint sequences each dec-pomdp agent enumerates, |A|^(n*h).

    Raises BudgetExceededError when the count exceeds DEC_POMDP_BUDGET. The
    power is built one factor at a time and stops past the budget, so a huge
    exponent costs no more than a small one.
    """
    joint_count = 1
    for _ in range(n_agents * h):
        joint_count *= n_actions
        if joint_count > DEC_POMDP_BUDGET:
            raise BudgetExceededError(
                f"joint optimization needs {n_actions}^{n_agents * h} rollouts per agent "
                f"(|A|={n_actions}, n={n_agents}, h={h}), budget is {DEC_POMDP_BUDGET}"
            )
    return joint_count


def mcr_memory(n_samples: int, n_tracks: int, h: int) -> int:
    """Bytes that mcr_plan's kernel workspace may hold, plus its sampled paths.

    Raises BudgetExceededError when they exceed MCR_MEMORY_BUDGET.
    """
    rows = max(SCAN_CHUNK, n_samples) * n_tracks
    need = rows * (_DEPTH_FLOATS * h + _BLOCK_FLOATS) * 8 + n_samples * n_tracks * h * 16
    if need > MCR_MEMORY_BUDGET:
        raise BudgetExceededError(
            f"{n_samples} samples of {n_tracks} targets at horizon {h} need "
            f"{need / 2**30:.1f} GiB of rollout memory, budget is "
            f"{MCR_MEMORY_BUDGET / 2**30:g} GiB"
        )
    return need


def dec_pomdp_plan(
    belief: FleetBelief,
    h: int,
    actions: np.ndarray,
    forest: OcclusionForest,
    model: NcvModel,
) -> tuple[np.ndarray, PlanStats]:
    """Joint exhaustive optimization that every agent solves on its own.

    In this architecture each agent enumerates the full joint sequence
    space on the shared belief, with no decision exchange. The beliefs
    are identical and the search keeps the first minimum, so every agent's
    solve returns the same joint plan by construction: one solve stands
    for all of them. The tree extends all agents' joint actions step by
    step; ties go to the sequence that comes first read agent by agent.
    PlanStats still counts the modelled work, |A|^(nH) rollouts per agent.
    """
    n_agents = len(belief.sensors)
    n_actions = len(actions)
    joint_count = dec_pomdp_joint_count(n_actions, n_agents, h)
    # Joint choice c gives agent i action digits[c, i], agent 0 most significant.
    digits = np.indices((n_actions,) * n_agents).reshape(n_agents, -1).T
    place = n_actions ** np.arange(n_agents * h - 1, -1, -1)

    def agent_major(paths: np.ndarray) -> np.ndarray:
        """Flat index of each leaf's digits read agent by agent, step by step."""
        return digits[paths].transpose(0, 2, 1).reshape(len(paths), -1) @ place

    tree = _PrefixTree(belief, model, forest, _nominal_paths(belief, model, h))
    found = tree.search([None] * n_agents, actions[digits], rank=agent_major)
    assert found.path is not None
    stats = PlanStats((joint_count,) * n_agents, (), (found.cost,))
    return actions[digits[found.path]].transpose(1, 0, 2), stats
