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
sequences one by one in order. plan_cost bounds the sequences and the
memory of every plan before it starts.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import FleetBelief, NcvModel, _apply
from .sensing import _range_bearing_cov_batch, in_fov
from .worldgen import MEMORY_BUDGET, OcclusionForest

_EYE4 = np.eye(4)

# Most (prefix, sample) rows one search step extends and scores at once: a
# block holds max(1, SCAN_CHUNK // S) prefixes of S target samples, and a
# level's parents are predicted a block at a time. plan_cost bounds what
# the blocks and the rest of a plan hold.
SCAN_CHUNK = 4096

# Largest joint sequence space dec_pomdp_plan will enumerate.
DEC_POMDP_BUDGET = 1_000_000

# Most covariances one Joseph update takes at once: the distinct rows a
# fixed agent sees at a level, and the rows a mover sees in a block, run
# in slices of this many rows. A slice's temporaries are at most 64 KB
# (512 (4, 4) covariances), under glibc's default 128 KiB mmap threshold,
# so they come from the heap without page faults and stay in cache.
JOSEPH_ROWS = 512

# A sweep stage enumerates all |A|^h sequences while that count is at most
# EXHAUSTIVE_LIMIT (h <= 5 with |A| = 9); beyond it, it runs a greedy
# by-step beam search that keeps the BEAM_WIDTH best prefixes per level.
# No stage may score more sequences than the largest exhaustive one.
EXHAUSTIVE_LIMIT = 100_000
BEAM_WIDTH = 8
STAGE_BUDGET = EXHAUSTIVE_LIMIT


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


def _power(base: int, exp: int, cap: int) -> int:
    """base ** exp, or cap + 1 if larger: cap.bit_length() factors of 2 exceed cap."""
    return min(base ** min(exp, cap.bit_length()), cap + 1)


def _stage_size(n_actions: int, h: int) -> tuple[bool, int]:
    """Whether a sweep stage expands its agent's whole tree, and the
    sequences it scores: all |A|^h while they are at most EXHAUSTIVE_LIMIT,
    else a beam's |A| + (h - 1) x BEAM_WIDTH x |A|."""
    count = _power(n_actions, h, EXHAUSTIVE_LIMIT)
    if count <= EXHAUSTIVE_LIMIT:
        return True, count
    return False, n_actions * (1 + (h - 1) * BEAM_WIDTH)


def plan_cost(
    n_actions: int, n_agents: int, n_targets: int, h: int, n_samples: int = 1, joint: bool = False
) -> tuple[int, int]:
    """Sequences one agent scores in a sweep stage (sma_nbo_plan, mcr_plan)
    or, if ``joint``, in dec_pomdp_plan's joint search, and the most bytes
    the plan holds at once, for |A| actions, n agents, T tracks, horizon h
    and S target samples, in integer arithmetic that costs as little at a
    huge h as at a small one. Raises BudgetExceededError at the first
    budget exceeded: DEC_POMDP_BUDGET joint sequences, STAGE_BUDGET in a
    sweep stage (checked for every planner), or MEMORY_BUDGET bytes.

    The bytes bound tracemalloc's peak where every agent sees every track.
    A level has b choices (|A|, or |A|^n jointly), a block B = max(1,
    SCAN_CHUNK // S) prefixes and a prefix C = S x T rows. Per row of C:
      * 34 a step (paths, their x and y planes, occlusion mask), 136
        (root), 33 a fixed agent and depth (its sights);
      * exhaustive: depth 0 loops over the f levels whose children fit a
        block, to P = b^f parents, 128 P / b + 416 P (their pool, which
        holds their parents' rows and their own, its gathered copy, the
        predicted pool, and the parents' and the level's indices and
        traces); then it recurses once at each of the d = h - 1 - f later
        non-leaf levels, 416 d B (the same for a block of parents, whose
        predicted pool has room for a block of children);
      * a beam of W = BEAM_WIDTH: 392 a pool row each child block copies
        (its parents' rows and its own, three generations alive), 48 a
        child, 576 a parent and 144 a child of a block;
      * a block of min(B, b^h) leaves, or of min(B, W |A|) beam children:
        max(160, 96 + 24 n) each, 12 n more jointly (update transients).
    Per prefix held, 8 h + 16 n (choices, offsets); jointly, 40 n b
    (action tables) and 16 n h a leaf (tie ranks); and 4 MiB (Python
    objects, JOSEPH_ROWS slices, occludes' chunk at the MAX_DISKS cap).
    """
    if h < 1 or n_samples < 1:
        raise ValueError("horizon and n_samples must be >= 1")
    sequences = _power(n_actions, n_agents * h, DEC_POMDP_BUDGET)
    if joint and sequences > DEC_POMDP_BUDGET:
        raise BudgetExceededError(
            f"joint optimization needs {n_actions}^{n_agents * h} rollouts per agent "
            f"(|A|={n_actions}, n={n_agents}, h={h}), budget is {DEC_POMDP_BUDGET}"
        )
    exhaustive, stage = _stage_size(n_actions, h)
    if stage > STAGE_BUDGET:
        raise BudgetExceededError(
            f"a beam stage of {n_actions} actions scores {stage} sequences, "
            f"more than the {STAGE_BUDGET} a planning stage scores"
        )
    cells, block = n_samples * n_targets, max(1, SCAN_CHUNK // n_samples)
    b = n_actions**n_agents if joint else n_actions
    leaf = max(160, 96 + (24 + 12 * joint) * n_agents)
    sights = 0 if joint else 33 * (n_agents - 1)
    need = (4 << 20) + cells * (34 * h + 136 + sights)
    if exhaustive or joint:
        fit = h - 1 if b == 1 else 0  # f, in at most log2(SCAN_CHUNK) = 12 turns
        while fit < h - 1 and b ** (fit + 1) <= block:
            fit += 1
        last, deeper = b**fit, h - 1 - fit
        leaves = min(block, _power(b, h, block))
        rows = 128 * (last // b) + 416 * last + (416 * block + sights) * deeper + leaf * leaves
        held = last + deeper * block + leaves
        if joint:
            need += 40 * n_agents * b + 16 * n_agents * h * leaves
    else:
        parents, level = min(block, BEAM_WIDTH), BEAM_WIDTH * n_actions
        kids = min(block, level)
        copied = -(-BEAM_WIDTH // parents) * -(-parents * n_actions // block) * parents + level
        rows = 392 * copied + 48 * level + 576 * parents + (144 + leaf) * kids
        held = 3 * level + parents + kids
    need += cells * rows + held * (8 * h + 16 * n_agents)
    if need > MEMORY_BUDGET:
        raise BudgetExceededError(
            f"{n_samples} x {n_targets} (sample, track) rows need {need / 2**30:.1f} GiB "
            f"of rollout memory, budget is {MEMORY_BUDGET / 2**30:g} GiB"
        )
    return (sequences if joint else stage), need


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
    _PrefixTree._leaf_costs calls it once per block of leaves. It holds the
    sensors as (L, n) x and y planes, leaf l's sensor i at flat l * n + i.
    """
    xy = np.asarray(sensor_xy, dtype=float)
    px, py = xy[..., 0].copy(), xy[..., 1].copy()
    rows = np.arange(len(xy))
    d_acc = np.zeros(px.shape)
    penalty = np.zeros(len(rows))
    steps = []
    # covered targets sort last; the uncovered keep the order of a stable
    # argsort over them alone
    order = np.argsort(np.where(uncovered, -traces, np.inf), axis=1, kind="stable").T
    columns = uncovered[rows, order], traces[rows, order], target_xy[order, 0], target_xy[order, 1]
    for t, active, trace, tx, ty in zip(order, *columns):
        dx, dy = px - tx[:, None], py - ty[:, None]
        dists = np.sqrt(dx * dx + dy * dy)
        i = np.argmin(d_acc + dists, axis=1)
        flat = rows * px.shape[1] + i
        dist, acc = dists.take(flat), d_acc.take(flat)
        first = active & (acc == 0.0)
        np.add(penalty, beta * dist * trace, out=penalty, where=first)
        d_acc.put(flat, np.add(acc, dist, out=acc, where=active))
        bx, by = px.take(flat), py.take(flat)
        dx, dy = tx - bx, ty - by
        ex, ey = np.abs(dx) - half_widths[i], np.abs(dy) - half_widths[i]
        ax = np.where(active & (ex > 0), bx + np.copysign(ex, dx), bx)
        ay = np.where(active & (ey > 0), by + np.copysign(ey, dy), by)
        px.put(flat, ax)
        py.put(flat, ay)
        steps.append((t, i, dist, first, np.column_stack((ax, ay))))
    return penalty, steps


# ---------------------------------------------------------------------------
# Level-wise search over the prefix tree of candidate sequences
# ---------------------------------------------------------------------------


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
    evals_q, vecs_q = np.linalg.eigh(model.Q)
    lq = vecs_q * np.sqrt(np.clip(evals_q, 0.0, None))
    out = np.empty((n_samples, len(belief.xi), h, 2))
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
    rollout of its whole sequence costs. Sight tests and R take x and y
    planes: target positions (h, S, T) each, and offsets formed from them.
    A leaf adds the terminal penalty weighted by ``beta``, or none if
    ``beta`` is None. The tree holds only what is fixed for the plan; each
    search keeps its own state in a _Search, and every array of the kernel
    belongs to the call that makes it, so plans running at once share
    nothing.
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
        # the positions as contiguous (h, S, T) x and y planes
        self.target_x, self.target_y = np.moveaxis(target_paths, (3, 2), (0, 1)).copy()
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
        for paths, costs in self._expand(run, root, 0, keep):
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

    def _expand(self, run: _Search, nodes: _Nodes, level: int, keep: int | None):
        """Leaf blocks (paths, costs) below ``nodes``, depth first. A beam level or
        one whose children fit one block is descended in a loop; only a level
        that splits into several blocks recurses, once per block."""
        while level + 1 < self.h:
            blocks = self._children(run, nodes, level)
            if keep is not None:
                # a _Level's blocks share its pool: copy each block's out, its
                # rows shifted past the pools of the blocks before it
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
                    yield from self._expand(run, block, level + 1, keep)
                return
            level += 1
        # free the level that made the parents: their own parents, and that
        # _Level's scratch, row indices and traces
        blocks = None
        for leaves in self._children(run, nodes, level):
            run.scored += len(leaves.cost)
            yield leaves.paths, self._leaf_costs(run, leaves)

    def _children(self, run: _Search, nodes: _Nodes, level: int):
        """Children of ``nodes`` after step ``level``, ``run.block`` prefixes
        (SCAN_CHUNK (prefix, sample) rows) at a time, from one _Level per
        ``run.block`` parents: one per block of parents, and several only
        for a beam's survivors, whose pool is their own. An inner block's
        pool is a view of its _Level's pool, whose rows past the parents'
        the next block of that _Level overwrites."""
        n_choices = len(run.step_xy)
        sights, steps = self._sightings(run, level)
        for first in range(0, len(nodes.cost), run.block):
            part = nodes.rows[first : first + run.block]
            total = len(part) * n_choices
            room = 0 if level + 1 == self.h else min(total, run.block) * part[0].size
            shared = self._level(part, nodes.pool, sights, steps, room)
            for lo in range(0, total, run.block):
                local, choice = np.divmod(np.arange(lo, min(lo + run.block, total)), n_choices)
                parent = first + local
                offset = nodes.offset[parent] + run.step_xy[choice]
                rows, pool, traces = self._update(
                    shared, local, self._agent_xy(run, offset, level), level
                )
                cost = nodes.cost[parent] + traces.sum(axis=2)
                yield _Nodes(
                    np.column_stack((nodes.paths[parent], choice)), offset, rows, pool, traces, cost
                )

    def _agent_xy(self, run: _Search, offset: np.ndarray, level: int) -> list[tuple]:
        """Each agent's x and y after step ``level``: (1,) fixed, (N,) moving."""
        pos = [f if f is None else (f[:, level, 0], f[:, level, 1]) for f in run.fixed]
        for k, i in enumerate(run.movers):
            x, y = self.belief.xy[i]
            pos[i] = x + offset[:, k, 0], y + offset[:, k, 1]
        return pos

    def _sightings(self, run: _Search, level: int) -> tuple[list, list]:
        """What the fixed agents see at step ``level``, worked out once for
        every block of the level: per fixed agent that sees anything, in
        agent order, its (S, T) visibility, its (S, T, 2, 2) R, zero where
        it sees nothing, and whether it comes after the first mover; and
        the _Level steps."""
        tx, ty, ft = self.target_x[level], self.target_y[level], self.free[:, :, level]
        first = run.movers[0] if run.movers else len(run.fixed)
        sights, steps = [], []
        for i, (sensor, f) in enumerate(zip(self.belief.sensors, run.fixed)):
            if f is None:
                steps.append(i)
                continue
            dx, dy = tx - f[0, level, 0], ty - f[0, level, 1]
            vis = in_fov(dx, dy, sensor.half_width) & ft
            if not vis.any():
                continue
            r = np.zeros(vis.shape + (2, 2))
            r[vis] = _range_bearing_cov_batch(dx[vis], dy[vis], sensor.alpha, sensor.r0)
            sights.append((vis, r, i > first))
            if i > first:
                steps.append((vis, r))
        return sights, steps

    def _level(
        self, rows: np.ndarray, pool: np.ndarray, sights: list, steps: list, room: int
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
        # A prefix holds one row per (sample, track) cell, so a pool of one
        # prefix's rows is all in use, in cell order as at the root (the
        # gather below puts such rows in that order), and needs no cell. A
        # larger pool is gathered into scratch without its unused rows, the
        # rest numbered in order. The predict reads scratch whole into p
        # before it writes scratch.
        size, cell = rows[0].size, None  # cell: each row's (sample, track)
        if len(pool) == size:
            scratch = np.empty(pool.shape)
        else:
            cell = np.full(len(pool), -1)  # -1 where unused
            cell[rows] = np.arange(size).reshape(rows.shape[1:])
            kept = np.flatnonzero(cell >= 0)
            if len(kept) == size:  # every parent holds these rows: keep cell order
                kept = rows[0].reshape(-1)
            cell, index = cell[kept], cell
            index[kept] = np.arange(len(kept))
            rows, pool = index[rows], pool.take(kept, axis=0)
            scratch = pool
        level_pool = np.empty((len(pool) + room, 4, 4))
        p = level_pool[: len(pool)]
        np.matmul(self.model.F, pool, out=p)
        np.matmul(p, self.model.F.T, out=scratch)
        np.add(scratch, self.model.Q, out=p)
        before = p
        for vis, r, later in sights:
            if later and before is p:  # keep the rows as the first mover finds them
                before = scratch
                np.copyto(before, p)
            seen = np.flatnonzero(vis if cell is None else vis.reshape(-1)[cell])
            at = seen if cell is None else cell[seen]
            _update_rows(p, seen, r.reshape(-1, 2, 2).take(at, axis=0))
        traces = np.trace(p, axis1=1, axis2=2)[rows]
        return _Level(rows, level_pool, len(p), before, traces, steps)

    def _update(
        self, shared: _Level, parent: np.ndarray, agent_xy: list[np.ndarray], level: int
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
            rows = shared.rows.take(parent, axis=0)
            pool = shared.pool[: shared.size]
        tx, ty, ft = self.target_x[level], self.target_y[level], self.free[:, :, level]
        sights = {}  # per mover that sees anything: its (C, S, T) visibility and their R
        for i in shared.steps:
            if isinstance(i, int):
                sensor = self.belief.sensors[i]
                x, y = agent_xy[i]
                dx, dy = tx - x[:, None, None], ty - y[:, None, None]
                vis = in_fov(dx, dy, sensor.half_width) & ft
                if vis.any():
                    r = _range_bearing_cov_batch(dx[vis], dy[vis], sensor.alpha, sensor.r0)
                    sights[i] = vis, r
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
        tx, ty = self.target_x[-1, 0], self.target_y[-1, 0]
        half_widths = np.array([s.half_width for s in self.belief.sensors])
        end_agent = np.empty((len(costs), len(half_widths), 2))
        covered = np.zeros((len(costs), len(tx)), dtype=bool)
        # a fixed agent's (1,) position covers a (1, T) row, once for every leaf
        for i, (x, y) in enumerate(self._agent_xy(run, leaves.offset, -1)):
            end_agent[:, i, 0], end_agent[:, i, 1] = x, y
            covered |= in_fov(tx - x[:, None], ty - y[:, None], half_widths[i])
        # a leaf that covers every target adds a penalty of 0.0
        return costs + mwtp_detailed(
            end_agent, half_widths, self.target_paths[0, :, -1, :], leaves.traces[:, 0],
            ~covered, self.beta,
        )[0]


def _search_stage(
    tree: _PrefixTree, agent_index: int, joint: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, float, float, int]:
    """Best sequence for one agent, every other agent flying its ``joint`` row.

    Returns the (h, 2) sequence, its cost, the incumbent's cost and the
    sequences scored. The stage expands the agent's whole tree or runs a
    beam search, as _stage_size decides. The agent's row of ``joint`` is
    its incumbent. It is always scored, as a leaf of the whole tree or else
    alone, so the returned cost never exceeds it.
    """
    incumbent = joint[agent_index]
    n_actions, h = len(actions), tree.h
    fixed = tree.positions(joint)
    movers = [None if i == agent_index else f for i, f in enumerate(fixed)]
    in_set = (incumbent[:, None] == actions).all(-1)  # (h, |A|)
    exhaustive = _stage_size(n_actions, h)[0]
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
    beta: float | None,
    n_samples: int = 1,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, PlanStats]:
    """The sequential sweep on the nominal target paths, or on ``n_samples``
    drawn with ``rng``, checked against plan_cost before it allocates."""
    joint = np.array(intents, dtype=float)  # the caller's intents stay as they are
    n_agents, h = len(belief.sensors), intents.shape[1]
    if joint.shape != (n_agents, h, 2):
        raise ValueError(f"intents must have shape (n_agents, h, 2), got {joint.shape}")
    plan_cost(len(actions), n_agents, len(belief.xi), h, n_samples)
    if rng is None:
        paths = _nominal_paths(belief, model, h)
    else:
        paths = _sample_target_paths(belief, model, h, n_samples, rng)
    tree = _PrefixTree(belief, model, forest, paths, beta)
    stages = []
    for i in range(n_agents):
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
    return _sweep(belief, intents, actions, forest, model, beta)


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
    return _sweep(belief, intents, actions, forest, model, None, n_samples, rng)


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
    joint_count = plan_cost(n_actions, n_agents, len(belief.xi), h, joint=True)[0]
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
