import inspect
import itertools
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trackplan import (
    Aoi,
    BudgetExceededError,
    OcclusionForest,
    ScenarioConfig,
    action_set,
    dec_pomdp_plan,
    extend_intent,
    generate_forest,
    mcr_plan,
    ncv_model,
    predict,
    sma_nbo_plan,
)
import trackplan
import trackplan.sim
from trackplan import planning
from trackplan.planning import (
    EXHAUSTIVE_LIMIT,
    _nominal_paths,
    _PrefixTree,
)

from beliefs import agent_at, belief_of, start_agents
from mwtp_leaf import mwtp_leaf
from oracles import (
    dense_prefix_tree,
    kalman_update_cov,
    literal_beam,
    range_bearing_cov,
    rollout_cost,
)

EMPTY = OcclusionForest(disks=())


def track_at(tid, x, y, vx=0.0, vy=0.0, p_scale=1.0):
    return tid, np.array([x, y, vx, vy]), np.diag([25.0, 25.0, 4.0, 4.0]) * p_scale


def hover_plan(n_agents, h):
    return np.zeros((n_agents, h, 2))


def random_instance(rng, n_agents, n_targets, h, with_forest=True):
    aoi = Aoi(150.0, 100.0)
    forest = (
        generate_forest(10.0, 5.0, aoi, rng)
        if with_forest
        else EMPTY
    )
    agents = tuple(
        agent_at(
            rng.uniform(10, 140),
            rng.uniform(10, 90),
            fov_edge=rng.uniform(15, 30),
            alpha=rng.uniform(0.05, 0.2),
        )
        for _ in range(n_agents)
    )
    tracks = tuple(
        track_at(
            t,
            rng.uniform(10, 140),
            rng.uniform(10, 90),
            vx=rng.uniform(-2, 2),
            vy=rng.uniform(-2, 2),
            p_scale=rng.uniform(0.5, 3.0),
        )
        for t in range(n_targets)
    )
    belief = belief_of(tracks=tracks, agents=agents)
    actions = action_set(5.0, 4, 1)
    joint = np.array(
        [[actions[rng.integers(len(actions))] for _ in range(h)] for _ in range(n_agents)]
    )
    return belief, forest, joint


# No agent moves: the tree has one leaf, the fixed joint policy.
NO_CHOICE = np.zeros((1, 0, 2))


def engine_cost(belief, joint, forest, model, h, beta=None):
    """Cost of one joint policy scored alone through the prefix-tree search."""
    tree = _PrefixTree(belief, model, forest, _nominal_paths(belief, model, h), beta)
    return tree.search(tree.positions(joint), NO_CHOICE).cost


class TestActionSet:
    def test_cardinal_headings(self):
        acts = action_set(5.0, 4, 1)
        expected = [(0, 0), (5, 0), (0, 5), (-5, 0), (0, -5)]
        assert acts.shape == (5, 2) and acts.dtype == float
        for act, (ux, uy) in zip(acts, expected):
            assert act[0] == pytest.approx(ux, abs=1e-12)
            assert act[1] == pytest.approx(uy, abs=1e-12)

    def test_count_with_speeds(self):
        assert len(action_set(5.0, 8, 2)) == 17

    def test_speed_limit(self):
        for act in action_set(5.0, 8, 2):
            assert math.hypot(*act) <= 5.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            action_set(5.0, 0, 1)


class TestNominalTrajectory:
    def test_constant_velocity_means(self):
        belief = belief_of(tracks=(track_at(0, 0.0, 0.0, vx=1.0),), agents=(agent_at(0, 0),))
        means = _nominal_paths(belief, ncv_model(1.0, 1.0), 3)[0, 0]
        assert np.allclose(means[:, 0], [1.0, 2.0, 3.0])
        assert np.allclose(means[:, 1], 0.0)

    def test_stationary_target(self):
        belief = belief_of(tracks=(track_at(0, 5.0, 7.0),), agents=(agent_at(0, 0),))
        means = _nominal_paths(belief, ncv_model(1.0, 1.0), 4)[0, 0]
        assert np.allclose(means, [[5.0, 7.0]] * 4)

    def test_equals_noiseless_predict_means(self):
        rng = np.random.default_rng(0)
        belief, _, _ = random_instance(rng, 1, 3, 1)
        model = ncv_model(1.0, 2.0)
        noiseless = ncv_model(1.0, 0.0)
        means = _nominal_paths(belief, model, 5)[0]
        xi, p = belief.xi, belief.P
        for l in range(5):
            xi, p = predict(xi, p, noiseless)
            assert np.allclose(xi[:, :2], means[:, l], atol=1e-12)


class TestRolloutCost:
    def test_single_step_equals_direct_filter(self):
        rng = np.random.default_rng(1)
        model = ncv_model(1.0, 1.0)
        for _ in range(20):
            belief, forest, joint = random_instance(rng, 1, 1, 1)
            res = engine_cost(belief, joint, forest, model, 1)
            sensor = belief.sensors[0]
            (ux, uy), dt = joint[0, 0], model.dt
            ax, ay = belief.xy[0, 0] + ux * dt, belief.xy[0, 1] + uy * dt
            xi, p = predict(belief.xi, belief.P, model)
            pos, p = (float(xi[0, 0]), float(xi[0, 1])), p[0]
            inside = (
                abs(pos[0] - ax) <= sensor.half_width
                and abs(pos[1] - ay) <= sensor.half_width
                and not forest.occludes(pos)
            )
            if inside:
                p = kalman_update_cov(p, range_bearing_cov((ax, ay), pos, sensor.alpha, sensor.r0))
            assert res == pytest.approx(np.trace(p), abs=1e-9)

    def test_unobservable_cost_is_action_independent(self):
        belief = belief_of(tracks=(track_at(0, 1000.0, 1000.0),), agents=(agent_at(0, 0),))
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        costs = {engine_cost(belief, np.tile(a, (1, 3, 1)), EMPTY, model, 3) for a in actions}
        assert len(costs) == 1
        # pure prediction: sum of predicted traces
        xi, p = belief.xi, belief.P
        expected = 0.0
        for _ in range(3):
            xi, p = predict(xi, p, model)
            expected += np.trace(p[0])
        assert costs.pop() == pytest.approx(expected, abs=1e-9)

    def test_mwtp_noop_when_all_targets_covered(self):
        belief = belief_of(
            tracks=(track_at(0, 2.0, 1.0), track_at(1, -3.0, 2.0)),
            agents=(agent_at(0.0, 0.0, fov_edge=40.0),),
        )
        model = ncv_model(1.0, 1.0)
        joint = hover_plan(1, 2)
        plain = engine_cost(belief, joint, EMPTY, model, 2)
        with_pen = engine_cost(belief, joint, EMPTY, model, 2, beta=1.0)
        assert with_pen == plain  # no target is uncovered, so no penalty term

    def test_cost_decomposition_invariant(self):
        rng = np.random.default_rng(2)
        model = ncv_model(1.0, 1.0)
        for _ in range(10):
            belief, forest, joint = random_instance(rng, 2, 3, 2)
            # the trace sum and the terminal penalty each match the oracle's
            traces = engine_cost(belief, joint, forest, model, 2)
            penalty = engine_cost(belief, joint, forest, model, 2, beta=0.7) - traces
            ref_traces = rollout_cost(belief, joint, forest, model, 2)
            ref_penalty = rollout_cost(belief, joint, forest, model, 2, beta=0.7) - ref_traces
            assert traces == pytest.approx(ref_traces, abs=1e-9)
            assert penalty == pytest.approx(ref_penalty, abs=1e-9)

    def test_intent_shape_validated(self):
        belief = belief_of(tracks=(track_at(0, 0, 0),), agents=(agent_at(0, 0),))
        for shape in ((2, 3, 2), (1, 3, 3)):  # a row per agent, a (ux, uy) per step
            with pytest.raises(ValueError, match="intents must have shape"):
                sma_nbo_plan(
                    belief, np.zeros(shape), action_set(5.0, 4, 1), EMPTY, ncv_model(1.0, 1.0)
                )


def mdo_position(agent, target):
    """Where the terminal penalty moves one agent's sensor to cover one target."""
    _, steps = mwtp_leaf(
        np.array([agent.xy]),
        np.array([agent.sensor.half_width]),
        np.array([target], dtype=float),
        np.array([1.0]),
        beta=1.0,
    )
    return steps[0].sensor_after


class TestMdoPosition:
    def test_one_axis_clamp(self):
        sensor = agent_at(0.0, 0.0, fov_edge=20.0)
        assert mdo_position(sensor, (15.0, 3.0)) == (5.0, 0.0)

    def test_inside_fov_unmoved(self):
        sensor = agent_at(0.0, 0.0, fov_edge=20.0)
        assert mdo_position(sensor, (4.0, -9.0)) == (0.0, 0.0)

    def test_two_axis_clamp(self):
        sensor = agent_at(0.0, 0.0, fov_edge=20.0)
        assert mdo_position(sensor, (15.0, 15.0)) == (5.0, 5.0)

    def test_dominates_random_feasible_repositionings(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            s = rng.uniform(-50, 50, 2)
            hw = rng.uniform(2, 20)
            target = rng.uniform(-80, 80, 2)
            sensor = agent_at(*s, fov_edge=2 * hw)
            moved = np.array(mdo_position(sensor, tuple(target)))
            assert np.all(np.abs(target - moved) <= hw + 1e-9)
            # any feasible reposition is at least as far from the start
            candidates = target + rng.uniform(-hw, hw, (20, 2))
            d_clamp = np.linalg.norm(moved - s)
            d_rand = np.linalg.norm(candidates - s, axis=1)
            assert np.all(d_clamp <= d_rand + 1e-9)


class TestMwtp:
    def test_empty_set_costs_nothing(self):
        assert mwtp_leaf(
            np.array([[0.0, 0.0]]), np.array([10.0]), np.zeros((0, 2)), np.zeros(0), beta=1.0
        ) == (0.0, [])

    def test_single_sensor_two_targets_guard(self):
        j, steps = mwtp_leaf(
            sensor_xy=np.array([[0.0, 0.0]]),
            half_widths=np.array([5.0]),
            target_xy=np.array([[10.0, 0.0], [20.0, 0.0]]),
            traces=np.array([10.0, 5.0]),
            beta=1.0,
        )
        # first target contributes 10*10; second is blocked by the guard but
        # still accumulates distance and repositions the sensor
        assert j == pytest.approx(100.0, abs=1e-12)
        assert [s.contributed for s in steps] == [True, False]
        assert steps[0].sensor_after == (5.0, 0.0)
        assert steps[1].distance == pytest.approx(15.0)
        assert steps[1].sensor_after == (15.0, 0.0)

    def test_crossed_matching_two_sensors(self):
        # higher-trace target grabs the nearer sensor first, leaving the
        # other sensor to the remaining target: s2 -> t1, s1 -> t2
        sensors = [agent_at(20.0, 0.0, fov_edge=10.0), agent_at(0.0, 10.0, fov_edge=10.0)]
        uncovered = [((0.0, 25.0), 100.0), ((40.0, 5.0), 50.0)]
        j, steps = mwtp_leaf(
            sensor_xy=np.array([[20.0, 0.0], [0.0, 10.0]]),
            half_widths=np.array([5.0, 5.0]),
            target_xy=np.array([[0.0, 25.0], [40.0, 5.0]]),
            traces=np.array([100.0, 50.0]),
            beta=1.0,
        )
        assert [s.sensor_index for s in steps] == [1, 0]
        expected = 15.0 * 100.0 + math.sqrt(425.0) * 50.0
        assert j == pytest.approx(expected, abs=1e-9)
        j_agents, _ = mwtp_leaf(
            sensor_xy=np.array([a.xy for a in sensors]),
            half_widths=np.array([a.sensor.half_width for a in sensors]),
            target_xy=np.array([pos for pos, _ in uncovered]),
            traces=np.array([tr for _, tr in uncovered]),
            beta=1.0,
        )
        assert j_agents == pytest.approx(expected, abs=1e-9)

    def test_contributing_targets_bounded_by_sensors(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_sensors = rng.integers(1, 4)
            n_targets = rng.integers(0, 6)
            j, steps = mwtp_leaf(
                sensor_xy=rng.uniform(0, 100, (n_sensors, 2)),
                half_widths=rng.uniform(5, 15, n_sensors),
                target_xy=rng.uniform(0, 100, (n_targets, 2)),
                traces=rng.uniform(1, 100, n_targets),
                beta=1.0,
            )
            assert j >= 0.0
            assert sum(s.contributed for s in steps) <= n_sensors

    def test_sorted_by_decreasing_trace(self):
        _, steps = mwtp_leaf(
            sensor_xy=np.array([[0.0, 0.0]]),
            half_widths=np.array([5.0]),
            target_xy=np.array([[10.0, 0.0], [11.0, 0.0], [12.0, 0.0]]),
            traces=np.array([5.0, 50.0, 20.0]),
            beta=1.0,
        )
        assert [s.target_index for s in steps] == [1, 2, 0]

    def test_penalty_scores_each_leaf_block_in_one_call(self, monkeypatch):
        # the far target is uncovered at every leaf; the hover intents are
        # leaves of each stage's tree, so no incumbent is scored alone
        calls = []
        matching = planning.mwtp_detailed

        def counted(sensor_xy, *args):
            calls.append(len(sensor_xy))
            return matching(sensor_xy, *args)

        monkeypatch.setattr(planning, "mwtp_detailed", counted)
        belief = belief_of(
            tracks=(track_at(0, 500.0, 500.0), track_at(1, 5.0, 0.0)),
            agents=(agent_at(0.0, 0.0), agent_at(40.0, 0.0), agent_at(0.0, 40.0)),
        )
        sma_nbo_plan(
            belief, extend_intent(None, 3, 3), action_set(5.0, 8, 1), EMPTY,
            ncv_model(1.0, 1.0), beta=1.0,
        )
        assert calls == [9**3] * 3

    def test_penalty_needs_one_target_path(self):
        belief = belief_of(tracks=(track_at(0, 0.0, 0.0),), agents=(agent_at(0.0, 0.0),))
        paths = np.zeros((2, 1, 3, 2))
        with pytest.raises(ValueError, match="one nominal target path"):
            _PrefixTree(belief, ncv_model(1.0, 1.0), EMPTY, paths, beta=1.0)
        _PrefixTree(belief, ncv_model(1.0, 1.0), EMPTY, paths)  # sampled paths score no penalty


class TestBatchMatchesReference:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n_agents = int(rng.integers(1, 4))
            n_targets = int(rng.integers(1, 4))
            h = int(rng.integers(1, 4))
            beta = 0.8 if rng.random() < 0.5 else None
            belief, forest, joint = random_instance(rng, n_agents, n_targets, h)
            model = ncv_model(1.0, 1.0)
            ref = rollout_cost(belief, joint, forest, model, h, beta=beta)
            fast = engine_cost(belief, joint, forest, model, h, beta=beta)
            assert fast == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_sampled_paths_match_scalar_recursion(self):
        rng = np.random.default_rng(6)
        model = ncv_model(1.0, 1.0)
        for _ in range(10):
            belief, forest, joint = random_instance(rng, 2, 2, 2)
            h, n_samples = 2, 4
            paths = rng.uniform(0, 150, (n_samples, len(belief.xi), h, 2))
            tree = _PrefixTree(belief, model, forest, paths)
            pos = tree.positions(joint)
            fast = tree.search(pos, NO_CHOICE).cost
            # literal per-sample covariance recursion
            total = 0.0
            for s in range(n_samples):
                covs = list(belief.P)
                for l in range(h):
                    covs = [
                        model.F @ p @ model.F.T + model.Q for p in covs
                    ]
                    for t in range(len(covs)):
                        tp = paths[s, t, l]
                        if forest.occludes(tp):
                            continue
                        for i, sensor in enumerate(belief.sensors):
                            apos = pos[i][0, l]
                            if np.all(np.abs(tp - apos) <= sensor.half_width):
                                r = range_bearing_cov(apos, tp, sensor.alpha, sensor.r0)
                                covs[t] = kalman_update_cov(covs[t], r)
                    total += sum(np.trace(p) for p in covs)
            assert fast == pytest.approx(total / n_samples, rel=1e-9, abs=1e-9)


def test_occlusion_mask_is_built_one_step_at_a_time():
    # all points at once, the disk test held an (S, T, h, D, 2) float array:
    # 15 MB here, for a 20 kB mask
    rng = np.random.default_rng(27)
    disks = tuple((float(x), float(y), 2.0) for x, y in rng.uniform(0, 150, (48, 2)))
    forest = OcclusionForest(disks=disks)
    paths = rng.uniform(0, 150, (1, 4, 5000, 2))
    belief = belief_of(tracks=(), agents=(agent_at(0.0, 0.0),))
    forest.occludes(paths[:, :, 0])  # builds the forest's cached disk array
    tracemalloc.start()
    try:
        tree = _PrefixTree(belief, ncv_model(1.0, 1.0), forest, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert np.array_equal(tree.free, ~forest.occludes(paths))


class TestOptimizeSingle:
    """One agent's optimization stage, read from the sweep's first stage."""

    def test_exhaustive_scan_count_and_incumbent_bound(self):
        rng = np.random.default_rng(7)
        belief, forest, joint = random_instance(rng, 2, 2, 1)
        actions = action_set(5.0, 8, 1)
        _, stats = sma_nbo_plan(belief, joint, actions, forest, ncv_model(1.0, 1.0))
        assert stats.per_agent_evals[0] == 9
        assert stats.stage_best_costs[0] <= stats.stage_incumbent_costs[0] + 1e-9

    def test_moves_north_toward_only_coverable_target(self):
        belief = belief_of(
            tracks=(track_at(0, 0.0, 13.0),), agents=(agent_at(0.0, 0.0, fov_edge=20.0),)
        )
        actions = action_set(5.0, 4, 1)
        joint, _ = sma_nbo_plan(belief, hover_plan(1, 1), actions, EMPTY, ncv_model(1.0, 1.0))
        assert joint[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert joint[0, 0, 1] == pytest.approx(5.0, abs=1e-12)

    def test_all_equal_costs_return_first_action(self):
        belief = belief_of(
            tracks=(track_at(0, 1000.0, 1000.0),), agents=(agent_at(0.0, 0.0),)
        )
        actions = action_set(5.0, 8, 1)
        joint, _ = sma_nbo_plan(belief, hover_plan(1, 2), actions, EMPTY, ncv_model(1.0, 1.0))
        assert np.array_equal(joint[0], [[0.0, 0.0], [0.0, 0.0]])

    def test_beam_search_path(self, monkeypatch):
        monkeypatch.setattr("trackplan.planning.EXHAUSTIVE_LIMIT", 10)
        monkeypatch.setattr("trackplan.planning.BEAM_WIDTH", 3)
        belief = belief_of(
            tracks=(track_at(0, 0.0, 13.0),), agents=(agent_at(0.0, 0.0, fov_edge=20.0),)
        )
        actions = action_set(5.0, 4, 1)
        joint, stats = sma_nbo_plan(
            belief, hover_plan(1, 2), actions, EMPTY, ncv_model(1.0, 1.0)
        )
        assert joint[0, 0, 1] == pytest.approx(5.0, abs=1e-12)
        assert stats.stage_best_costs[0] <= stats.stage_incumbent_costs[0] + 1e-9
        # beam path: 5 prefixes, then the 3 kept x 5, plus the incumbent
        assert stats.per_agent_evals[0] == 5 + 3 * 5 + 1

    def test_beam_matches_literal_beam_on_ties(self, monkeypatch):
        monkeypatch.setattr("trackplan.planning.EXHAUSTIVE_LIMIT", 10)
        monkeypatch.setattr("trackplan.planning.BEAM_WIDTH", 3)
        searches = spy_searches(monkeypatch)
        # exact moves from an exact start, so equal sums give equal positions.
        # Track 0 is never seen; track 1 passes (7.5, 20), (14, 20), (20.5, 20)
        # and is seen only from (15, 20) at step 2 and (20, 20) at step 3.
        # Every level ties (H hover, E east): all level-1 prefixes, HE with EH
        # at level 2, and HEE with EHE at the leaves.
        actions = np.array([(0.0, 0.0), (5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0)])
        belief = belief_of(
            tracks=(track_at(0, 1000.0, 1000.0), track_at(1, 1.0, 20.0, vx=6.5)),
            agents=(agent_at(10.0, 20.0, fov_edge=4.0),),
        )
        model = ncv_model(1.0, 1.0)
        joint, stats = sma_nbo_plan(belief, hover_plan(1, 3), actions, EMPTY, model)
        tree, run, blocks = searches[0]  # the beam; then the incumbent alone
        leaves, costs, _ = beam_reference(tree, run, 3)
        best = leaves[min(range(len(leaves)), key=lambda i: (costs[i], i))]
        assert np.count_nonzero(costs == costs.min()) == 2
        assert best == (0, 1, 1)
        assert np.concatenate(blocks).tobytes() == costs.tobytes()
        assert np.array_equal(joint[0], actions[list(best)])
        assert stats.stage_best_costs[0] < stats.stage_incumbent_costs[0]

    @pytest.mark.parametrize("chunk", [4096, 7])
    def test_beam_stages_match_literal_beam_bit_for_bit(self, monkeypatch, chunk):
        # every sweep stage at H3 and H4 runs the beam: its leaves, in order,
        # cost what the literal beam over the dense schedule gives, with
        # survivors' rows shared across levels and across blocks
        monkeypatch.setattr("trackplan.planning.SCAN_CHUNK", chunk)
        monkeypatch.setattr("trackplan.planning.EXHAUSTIVE_LIMIT", 10)
        searches = spy_searches(monkeypatch)
        rng = np.random.default_rng(37)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        evals = []
        for k in range(6):
            n_agents, h = 1 + k % 3, 3 + k // 3
            belief, forest, intents = TestBlocks._crowded_instance(
                rng, n_agents, int(rng.integers(1, 5)), h
            )
            plans = [
                sma_nbo_plan(belief, intents, actions, forest, model),
                sma_nbo_plan(belief, intents, actions, forest, model, beta=0.8),
            ] + [
                mcr_plan(belief, intents, actions, forest, model, n, np.random.default_rng(k))
                for n in (1, 7)
            ]
            evals += [n for _, stats in plans for n in stats.per_agent_evals]
        beams = [(tree, run, blocks) for tree, run, blocks in searches if len(run.step_xy) > 1]
        assert len(beams) == len(evals) == 4 * 2 * (1 + 2 + 3)
        for (tree, run, blocks), n in zip(beams, evals):
            _, costs, scored = beam_reference(tree, run, planning.BEAM_WIDTH)
            assert np.concatenate(blocks).tobytes() == costs.tobytes()
            assert run.scored == scored == n - 1  # and the incumbent alone

    def test_incumbent_outside_action_set_can_win(self):
        # the diagonal intent reaches a pose strictly closer to the target
        # than any cardinal action, so it must be kept (and counted)
        belief = belief_of(
            tracks=(track_at(0, 10.0, 12.0),), agents=(agent_at(0.0, 0.0, fov_edge=20.0),)
        )
        actions = action_set(5.0, 4, 1)
        incumbent = np.array([[(3.0, 4.0)]])
        joint, stats = sma_nbo_plan(belief, incumbent, actions, EMPTY, ncv_model(1.0, 1.0))
        assert stats.per_agent_evals[0] == len(actions) + 1
        assert np.array_equal(joint, incumbent)
        assert stats.stage_best_costs[0] == stats.stage_incumbent_costs[0]

    def test_zero_track_belief_keeps_intents(self):
        belief = belief_of(tracks=(), agents=(agent_at(0.0, 0.0), agent_at(5.0, 5.0)))
        actions = action_set(5.0, 4, 1)
        intents = extend_intent(None, 2, 2)
        joint, stats = sma_nbo_plan(belief, intents, actions, EMPTY, ncv_model(1.0, 1.0))
        # nothing to track: every candidate costs zero, first one wins
        assert np.array_equal(joint, np.zeros((2, 2, 2)))
        assert stats.stage_best_costs == (0.0, 0.0)


class TestExtendIntent:
    def test_shift_and_repeat_last(self):
        a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
        intents = extend_intent(np.array([[a, b, c]]), 3, 1)
        assert np.array_equal(intents, [[b, c, c]])

    def test_first_epoch_is_hover(self):
        intents = extend_intent(None, 3, 2)
        assert np.array_equal(intents, np.zeros((2, 3, 2)))

    def test_length_always_h(self):
        rng = np.random.default_rng(8)
        actions = action_set(5.0, 8, 1)
        for h in (1, 2, 5):
            prev = np.array([[actions[rng.integers(9)] for _ in range(h)] for _ in range(2)])
            intents = extend_intent(prev, h, 2)
            assert intents.shape == (2, h, 2)
            with pytest.raises(ValueError, match="previous plan must have shape"):
                extend_intent(prev, h + 1, 2)


class TestSmaNbo:
    def test_two_agent_instance_with_unreachable_agent(self):
        belief = belief_of(
            tracks=(track_at(0, 0.0, 13.0),),
            agents=(agent_at(500.0, 500.0, fov_edge=20.0), agent_at(0.0, 0.0, fov_edge=20.0)),
        )
        actions = action_set(5.0, 4, 1)
        model = ncv_model(1.0, 1.0)
        intents = extend_intent(None, 1, 2)
        joint, _ = sma_nbo_plan(belief, intents, actions, EMPTY, model)
        # agent 1 cannot reach anything: keeps the first (hover) action
        assert np.array_equal(joint[0, 0], [0.0, 0.0])
        assert joint[1, 0, 1] == pytest.approx(5.0, abs=1e-12)
        # exhaustive joint-space oracle
        best = min(
            (
                rollout_cost(belief, np.array([[a0], [a1]]), EMPTY, model, 1)
                for a0 in actions
                for a1 in actions
            )
        )
        got = rollout_cost(belief, joint, EMPTY, model, 1)
        assert got == pytest.approx(best, abs=1e-9)

    def test_never_worse_than_intents(self):
        rng = np.random.default_rng(10)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        for _ in range(10):
            belief, forest, prev = random_instance(rng, 2, 3, 2)
            intents = extend_intent(prev, 2, 2)
            joint, stats = sma_nbo_plan(belief, intents, actions, forest, model)
            j_intents = rollout_cost(belief, intents, forest, model, 2)
            j_plan = rollout_cost(belief, joint, forest, model, 2)
            assert j_plan <= j_intents + 1e-9
            # stage chain: objective never increases within the sweep
            chain = [stats.stage_incumbent_costs[0]]
            for inc, best in zip(stats.stage_incumbent_costs, stats.stage_best_costs):
                assert best <= inc + 1e-9
                chain.append(best)
            assert all(b <= a + 1e-9 for a, b in zip(chain, chain[1:]))
            assert stats.stage_incumbent_costs[0] == pytest.approx(j_intents, rel=1e-9)

    def test_deterministic_plans(self):
        rng = np.random.default_rng(11)
        belief, forest, prev = random_instance(rng, 3, 3, 2)
        actions = action_set(5.0, 8, 1)
        model = ncv_model(1.0, 1.0)
        intents = extend_intent(prev, 2, 3)
        a, _ = sma_nbo_plan(belief, intents, actions, forest, model)
        b, _ = sma_nbo_plan(belief, intents, actions, forest, model)
        assert np.array_equal(a, b)

    def test_action_feasibility(self):
        rng = np.random.default_rng(13)
        belief, forest, prev = random_instance(rng, 2, 2, 2)
        actions = action_set(5.0, 8, 1)
        intents = extend_intent(prev, 2, 2)
        joint, _ = sma_nbo_plan(belief, intents, actions, forest, ncv_model(1.0, 1.0))
        for act in joint.reshape(-1, 2):
            assert math.hypot(*act) <= 5.0 + 1e-9

    def test_beam_fallback_at_shipped_limits(self):
        # |A| = 9: H5 is still enumerated, H6 falls back to beam search
        actions = action_set(5.0, 8, 1)
        assert len(actions) ** 5 <= EXHAUSTIVE_LIMIT < len(actions) ** 6
        rng = np.random.default_rng(25)
        belief, forest, _ = random_instance(rng, 3, 3, 6)
        _, stats = sma_nbo_plan(
            belief, extend_intent(None, 6, 3), actions, forest, ncv_model(1.0, 1.0)
        )
        # level 1 scores 9 prefixes, levels 2-6 the 8 kept x 9, plus the incumbent
        assert stats.per_agent_evals == (9 + 5 * 8 * 9 + 1,) * 3
        assert stats.rollout_evals == 1110
        for inc, best in zip(stats.stage_incumbent_costs, stats.stage_best_costs):
            assert best <= inc + 1e-9

    def test_horizon_deeper_than_the_recursion_limit(self):
        # a beam stage and the lone incumbent rollout descend level by level
        h = sys.getrecursionlimit() + 100
        belief, forest, _ = random_instance(np.random.default_rng(26), 1, 2, h)
        _, stats = sma_nbo_plan(
            belief, extend_intent(None, h, 1), action_set(5.0, 8, 1), forest,
            ncv_model(1.0, 1.0),
        )
        assert stats.per_agent_evals == (9 + (h - 1) * 8 * 9 + 1,)
        for inc, best in zip(stats.stage_incumbent_costs, stats.stage_best_costs):
            assert math.isfinite(best) and best <= inc


class TestDecPomdp:
    def test_single_agent_matches_sweep(self):
        rng = np.random.default_rng(14)
        belief, forest, _ = random_instance(rng, 1, 2, 1)
        actions = action_set(5.0, 4, 1)
        model = ncv_model(1.0, 1.0)
        joint_dec, _ = dec_pomdp_plan(belief, 1, actions, forest, model)
        joint_sma, _ = sma_nbo_plan(belief, extend_intent(None, 1, 1), actions, forest, model)
        assert np.array_equal(joint_dec, joint_sma)

    def test_matches_joint_brute_force(self):
        rng = np.random.default_rng(15)
        belief, forest, _ = random_instance(rng, 2, 2, 1)
        actions = action_set(5.0, 2, 1)  # |A| = 3
        model = ncv_model(1.0, 1.0)
        joint, stats = dec_pomdp_plan(belief, 1, actions, forest, model)
        combos = list(itertools.product(actions, repeat=2))
        costs = [
            rollout_cost(belief, np.array([[a0], [a1]]), forest, model, 1)
            for a0, a1 in combos
        ]
        best_idx = int(np.argmin(costs))
        assert stats.per_agent_evals == (9, 9)
        got = rollout_cost(belief, joint, forest, model, 1)
        assert got == pytest.approx(costs[best_idx], abs=1e-9)
        assert np.array_equal(joint[:, 0], combos[best_idx])

    def test_joint_cost_dominates_sequential(self):
        rng = np.random.default_rng(16)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        for _ in range(5):
            belief, forest, prev = random_instance(rng, 2, 2, 1)
            intents = extend_intent(prev, 1, 2)
            joint_dec, _ = dec_pomdp_plan(belief, 1, actions, forest, model)
            joint_sma, _ = sma_nbo_plan(belief, intents, actions, forest, model)
            j_dec = rollout_cost(belief, joint_dec, forest, model, 1)
            j_sma = rollout_cost(belief, joint_sma, forest, model, 1)
            assert j_dec <= j_sma + 1e-9

    def test_joint_problem_is_solved_once(self, monkeypatch):
        rng = np.random.default_rng(24)
        belief, forest, _ = random_instance(rng, 3, 2, 1)
        actions = action_set(5.0, 8, 1)
        calls = []
        search = _PrefixTree.search

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(_PrefixTree, "search", counting)
        _, stats = dec_pomdp_plan(belief, 1, actions, forest, ncv_model(1.0, 1.0))
        assert len(calls) == 1
        assert stats.per_agent_evals == (9**3,) * 3

    @pytest.mark.parametrize("chunk", [4, 50])
    def test_ties_go_to_first_agent_major_sequence(self, monkeypatch, chunk):
        # 81 leaves in blocks of 4 (smaller than one parent's 9 children) or
        # 50: the two tied leaves, 31st and 39th, in different blocks or one
        monkeypatch.setattr("trackplan.planning.SCAN_CHUNK", chunk)
        actions = np.array([(0.0, 0.0), (5.0, 0.0), (-5.0, 0.0)])
        # Track 0 is never seen. Agent 0 sees track 1 only after moving east
        # twice. Agent 1 sees track 2 only from (105, 60) at step 2, which
        # hover-east and east-hover reach alike: the minima tie exactly.
        belief = belief_of(
            tracks=(
                track_at(0, 1000.0, 1000.0),
                track_at(1, 27.0, 20.0),
                track_at(2, 46.0, 60.0, vx=30.0),
            ),
            agents=(agent_at(10.0, 20.0), agent_at(100.0, 60.0, fov_edge=4.0)),
        )
        model = ncv_model(1.0, 1.0)
        joint, stats = dec_pomdp_plan(belief, 2, actions, EMPTY, model)
        # agent-major: (agent 0 step 0, agent 0 step 1, agent 1 step 0, agent 1 step 1)
        combos = list(itertools.product(range(len(actions)), repeat=4))
        costs = [
            rollout_cost(belief, actions[list(c)].reshape(2, 2, 2), EMPTY, model, 2)
            for c in combos
        ]
        best = combos[costs.index(min(costs))]
        assert costs.count(min(costs)) == 2
        assert best == (1, 1, 0, 1)
        assert np.array_equal(joint, actions[list(best)].reshape(2, 2, 2))
        assert stats.per_agent_evals == (81, 81)

    def test_budget_guard_names_required_count(self):
        rng = np.random.default_rng(17)
        belief, forest, _ = random_instance(rng, 3, 2, 1)
        actions = action_set(5.0, 8, 1)
        with pytest.raises(BudgetExceededError, match=r"needs 9\^9 rollouts"):
            dec_pomdp_plan(belief, 3, actions, forest, ncv_model(1.0, 1.0))


class TestMcr:
    def _degenerate_belief(self, rng, n_agents=2, n_targets=2):
        agents = tuple(
            agent_at(rng.uniform(20, 130), rng.uniform(20, 80)) for _ in range(n_agents)
        )
        tracks = tuple(
            (
                t,
                np.array(
                    [rng.uniform(20, 130), rng.uniform(20, 80), rng.uniform(-2, 2), rng.uniform(-2, 2)]
                ),
                np.zeros((4, 4)),
            )
            for t in range(n_targets)
        )
        return belief_of(tracks=tracks, agents=agents)

    def test_degenerate_sampling_equals_nominal_planner(self):
        rng = np.random.default_rng(18)
        model = ncv_model(1.0, 0.0)  # no process noise
        actions = action_set(5.0, 4, 1)
        for _ in range(10):
            belief = self._degenerate_belief(rng)
            forest = generate_forest(10.0, 5.0, Aoi(150, 100), rng)
            intents = extend_intent(None, 2, 2)
            joint_mcr, _ = mcr_plan(
                belief, intents, actions, forest, model, 5, np.random.default_rng(0)
            )
            joint_sma, _ = sma_nbo_plan(belief, intents, actions, forest, model)
            assert np.array_equal(joint_mcr, joint_sma)

    def test_single_noise_free_sample_equals_nominal(self):
        rng = np.random.default_rng(19)
        model = ncv_model(1.0, 0.0)
        actions = action_set(5.0, 4, 1)
        belief = self._degenerate_belief(rng)
        intents = extend_intent(None, 1, 2)
        joint_mcr, _ = mcr_plan(
            belief, intents, actions, EMPTY, model, 1, np.random.default_rng(1)
        )
        joint_sma, _ = sma_nbo_plan(belief, intents, actions, EMPTY, model)
        assert np.array_equal(joint_mcr, joint_sma)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(20)
        belief, forest, prev = random_instance(rng, 2, 2, 2)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        intents = extend_intent(prev, 2, 2)
        a, _ = mcr_plan(belief, intents, actions, forest, model, 8, np.random.default_rng(5))
        b, _ = mcr_plan(belief, intents, actions, forest, model, 8, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_sample_count_validated(self):
        rng = np.random.default_rng(21)
        belief, forest, prev = random_instance(rng, 1, 1, 1)
        with pytest.raises(ValueError):
            mcr_plan(
                belief, extend_intent(prev, 1, 1), action_set(5.0, 4, 1), forest,
                ncv_model(1.0, 1.0), 0, np.random.default_rng(0),
            )


def test_mcr_memory_is_bounded_before_planning():
    # a sweep stage of 9 actions at H3 scores 729 sequences; the joint
    # search 9^(3 x 1) per agent
    assert planning.plan_cost(9, 3, 4, 3, 50)[0] == 729
    assert planning.plan_cost(9, 3, 4, 1, joint=True)[0] == 729
    with pytest.raises(BudgetExceededError, match="1000000000 x 4 .* budget is 1 GiB"):
        planning.plan_cost(9, 3, 4, 1, 10**9)
    with pytest.raises(BudgetExceededError, match="scores 100017 sequences"):
        planning.plan_cost(9, 3, 4, 1390)
    # a huge horizon costs no more than a small one
    with pytest.raises(BudgetExceededError, match=r"needs 9\^3000000000000 rollouts"):
        planning.plan_cost(9, 3, 4, 10**12, joint=True)


def _plan_peak(planner, belief, actions, forest, model, h, n_samples):
    """tracemalloc peak of one plan of three agents by ``planner``."""
    intents = extend_intent(None, h, 3)
    calls = {
        "mcr": lambda: mcr_plan(
            belief, intents, actions, forest, model, n_samples, np.random.default_rng(1)
        ),
        "sma-nbo": lambda: sma_nbo_plan(belief, intents, actions, forest, model),
        "sma-nbo-mwtp": lambda: sma_nbo_plan(belief, intents, actions, forest, model, 1.0),
        "dec-pomdp": lambda: dec_pomdp_plan(belief, h, actions, forest, model),
    }
    forest.occludes(np.zeros((1, 2)))  # builds the forest's cached disk array
    tracemalloc.start()
    try:
        calls[planner]()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "planner, n_samples, h",
    [
        ("mcr", 50, 3),
        ("mcr", 600, 2),
        ("mcr", 5000, 1),
        ("mcr", 50, 6),
        ("mcr", 7, 3),
        ("sma-nbo", 1, 1),
        ("sma-nbo", 1, 3),
        ("sma-nbo", 1, 5),
        ("sma-nbo", 1, 6),
        ("sma-nbo-mwtp", 1, 3),
        ("dec-pomdp", 1, 1),
    ],
)
def test_plan_stays_within_plan_cost(planner, n_samples, h):
    # the tracemalloc peak of one plan: the paths, the root and every
    # array of the kernel
    belief, _, actions, forest, model = TestBlocks._default_mcr_epoch()
    peak = _plan_peak(planner, belief, actions, forest, model, h, n_samples)
    need = planning.plan_cost(len(actions), 3, 4, h, n_samples, planner == "dec-pomdp")[1]
    assert 0 < peak <= need


@pytest.mark.parametrize(
    "planner, n_samples, n_tracks, h, n_headings",
    [
        pytest.param("sma-nbo", 1, 40, 4, 8, id="sma-nbo-1-40-4"),
        pytest.param("sma-nbo-mwtp", 1, 200, 3, 8, id="sma-nbo-mwtp-1-200-3"),
        pytest.param("mcr", 600, 10, 2, 8, id="mcr-600-10-2"),
        pytest.param("dec-pomdp", 1, 200, 1, 8, id="dec-pomdp-1-200-1"),
        # 2 actions: every non-leaf level one block, 2^10 parents of the leaves
        pytest.param("sma-nbo", 1, 30, 11, 1, id="sma-nbo-1-30-11-2-actions"),
    ],
)
def test_plan_cost_is_tight_where_every_agent_sees_every_track(
    planner, n_samples, n_tracks, h, n_headings
):
    # the case plan_cost bounds: no forest, and every agent sees every
    # track at every step. Within 25 % of the peak, it refuses no plan
    # that would fit the memory budget with room to spare.
    config = ScenarioConfig(horizon=h, n_headings=n_headings)
    agents = [agent_at(*a.xy, fov_edge=1000.0) for a in start_agents(config)]
    rng = np.random.default_rng(30)
    tracks = [
        track_at(t, *(agents[t % 3].xy + rng.uniform(-8, 8, 2)), *rng.uniform(-2, 2, 2))
        for t in range(n_tracks)
    ]
    belief = belief_of(tracks=tracks, agents=agents)
    actions = action_set(config.v_max, config.n_headings, config.n_speeds)
    model = ncv_model(config.dt_plan, config.sigma_a)
    peak = _plan_peak(planner, belief, actions, EMPTY, model, h, n_samples)
    need = planning.plan_cost(len(actions), 3, n_tracks, h, n_samples, planner == "dec-pomdp")[1]
    assert peak <= need <= 1.25 * peak


def test_public_planners_are_bounded_before_they_allocate():
    belief, _, actions, forest, model = TestBlocks._default_mcr_epoch()
    many = belief_of(
        tracks=[track_at(t, 10.0 + t % 100, 50.0) for t in range(100_000)],
        agents=start_agents(ScenarioConfig()),
    )
    calls = [
        # 59.6 GiB of sampled paths alone
        lambda: mcr_plan(
            belief, extend_intent(None, 1, 3), actions, forest, model, 10**9,
            np.random.default_rng(1),
        ),
        # a beam stage of 9 + 1389 x 8 x 9 sequences
        lambda: sma_nbo_plan(belief, extend_intent(None, 1390, 3), actions, forest, model),
        # a 1.09 GiB leaf block of the kernel
        lambda: sma_nbo_plan(many, extend_intent(None, 3, 3), actions, forest, model),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_plans_in_threads_match_plans_run_one_by_one():
    # a plan shares no state with another: four threads planning shifted
    # copies of the default epoch at once return exactly what the same
    # calls return one by one
    belief, intents, actions, forest, model = TestBlocks._default_mcr_epoch()

    def plan(k):
        xi = belief.xi.copy()
        xi[:, :2] += 3.0 * k
        return mcr_plan(
            replace(belief, xi=xi), intents, actions, forest, model, 50, np.random.default_rng(k)
        )

    alone = [plan(k) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(plan, k % 4) for k in range(12)]
            together = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, (joint, stats) in enumerate(together):
        assert np.array_equal(joint, alone[k % 4][0])
        assert stats == alone[k % 4][1]  # stage costs bit for bit


class TestBlocks:
    """SCAN_CHUNK bounds the (prefix, sample) rows one block holds; no plan
    or count depends on it."""

    @staticmethod
    def _crowded_instance(rng, n_agents, n_targets, h):
        # tracks start near the agents, so most steps update some blocks
        belief, forest, joint = random_instance(rng, n_agents, n_targets, h)
        xi = belief.xi.copy()
        for t in range(len(xi)):
            xi[t, :2] = belief.xy[t % n_agents] + rng.uniform(-12, 12, 2)
        return replace(belief, xi=xi), forest, extend_intent(joint, h, n_agents)

    def _plans(self):
        rng = np.random.default_rng(29)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        plans = []
        for k in range(9):
            n_agents, h = 1 + k % 3, 1 + k // 3
            belief, forest, intents = self._crowded_instance(
                rng, n_agents, int(rng.integers(1, 5)), h
            )
            plans.append(sma_nbo_plan(belief, intents, actions, forest, model))
            plans.append(sma_nbo_plan(belief, intents, actions, forest, model, beta=0.8))
            for n_samples in (1, 7, 50):
                plans.append(mcr_plan(
                    belief, intents, actions, forest, model, n_samples, np.random.default_rng(k)
                ))
            if n_agents * h <= 4:
                plans.append(dec_pomdp_plan(belief, h, actions, forest, model))
        return plans

    def test_plans_do_not_depend_on_the_block_size(self, monkeypatch):
        monkeypatch.setattr("trackplan.planning.SCAN_CHUNK", 4096)
        reference = self._plans()
        for chunk in (1, 7, 64):
            monkeypatch.setattr("trackplan.planning.SCAN_CHUNK", chunk)
            for (joint, stats), (want_joint, want_stats) in zip(self._plans(), reference):
                assert np.array_equal(joint, want_joint)
                assert stats == want_stats  # stage costs bit for bit

    @staticmethod
    def _default_mcr_epoch():
        """One epoch of the paper's scenario at H3: 3 agents, 9 actions and
        4 tracks, each starting near an agent."""
        config = ScenarioConfig(horizon=3)
        rng = np.random.default_rng(30)
        forest = generate_forest(config.lam, config.tree_radius, config.aoi, rng)
        agents = start_agents(config)
        tracks = tuple(
            track_at(t, *(agents[t % len(agents)].xy + rng.uniform(-8, 8, 2)),
                     *rng.uniform(-2, 2, 2))
            for t in range(config.n_targets)
        )
        actions = action_set(config.v_max, config.n_headings, config.n_speeds)
        model = ncv_model(config.dt_plan, config.sigma_a)
        belief = belief_of(tracks=tracks, agents=agents)
        return belief, extend_intent(None, 3, 3), actions, forest, model

    @pytest.mark.parametrize("planner", ["mcr", "sma-nbo"])
    def test_each_agent_updates_a_block_in_one_batch(self, monkeypatch, planner):
        # one Joseph batch per agent that updates a block, with slices as
        # large as a block: a _level call makes one per fixed agent that sees
        # anything, an _update call one per step from the first mover on;
        # never one per (track, agent)
        belief, intents, actions, forest, model = self._default_mcr_epoch()
        n_samples = 50 if planner == "mcr" else 1
        monkeypatch.setattr(planning, "JOSEPH_ROWS", max(planning.SCAN_CHUNK, n_samples) * 4)
        calls = []  # (Joseph calls, allowed batches) per _level or _update call
        joseph = planning._joseph_update_batch

        def counting(p, r):
            calls[-1][0] += 1
            return joseph(p, r)

        def spy(name, allowed):
            method = getattr(_PrefixTree, name)

            def counted(tree, *args):
                calls.append([0, allowed(*args)])
                return method(tree, *args)

            monkeypatch.setattr(_PrefixTree, name, counted)

        monkeypatch.setattr(planning, "_joseph_update_batch", counting)
        spy("_level", lambda rows, pool, sights, *_: len(sights))
        spy("_update", lambda shared, *_: len(shared.steps))
        if planner == "mcr":
            mcr_plan(belief, intents, actions, forest, model, n_samples, np.random.default_rng(1))
        else:
            sma_nbo_plan(belief, extend_intent(None, 1, 3), actions, forest, model)
        assert sum(n for n, _ in calls) > 0
        assert all(n <= allowed for n, allowed in calls)

    def test_plans_do_not_depend_on_the_joseph_slice(self, monkeypatch):
        reference = self._plans()
        batches = []
        joseph = planning._joseph_update_batch

        def counting(p, r):
            batches.append(len(p))
            return joseph(p, r)

        monkeypatch.setattr(planning, "_joseph_update_batch", counting)
        monkeypatch.setattr(planning, "JOSEPH_ROWS", 7)
        for (joint, stats), (want_joint, want_stats) in zip(self._plans(), reference):
            assert np.array_equal(joint, want_joint)
            assert stats == want_stats
        assert max(batches) == 7

    def test_plan_keeps_no_memory_after_it_returns(self):
        # every array of the kernel belongs to the plan that makes it
        belief, intents, actions, forest, model = self._default_mcr_epoch()
        forest.occludes(np.zeros((1, 2)))  # builds the forest's cached disk array
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = mcr_plan(belief, intents, actions, forest, model, 50, np.random.default_rng(1))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan[0].shape == (3, 3, 2)
        assert kept < 64 * 1024

    def test_mcr_plan_streams_its_leaf_level(self):
        # one block of all 729 leaves of 50 samples would hold 18.7 MB of
        # covariances, and its update temporaries more
        epoch = self._default_mcr_epoch()
        mcr_plan(*epoch, 50, np.random.default_rng(1))  # lazy set-up outside the count
        tracemalloc.start()
        try:
            mcr_plan(*epoch, 50, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("chunk, n_samples", [(4096, 50), (4096, 1), (7, 50), (64, 7)])
    def test_no_update_gets_more_rows_than_a_block(self, monkeypatch, chunk, n_samples):
        monkeypatch.setattr("trackplan.planning.SCAN_CHUNK", chunk)
        rows = []
        update = _PrefixTree._update

        def counting(tree, shared, parent, *args):
            rows.append(len(parent) * shared.rows.shape[1])  # (child, sample) rows
            return update(tree, shared, parent, *args)

        monkeypatch.setattr(_PrefixTree, "_update", counting)
        mcr_plan(*self._default_mcr_epoch(), n_samples, np.random.default_rng(1))
        assert max(rows) <= max(chunk, n_samples)
        # the blocks are as full as the bound and the 9^3 leaves allow: 81
        # prefixes of 50 samples at the default 4096, one when S exceeds it
        assert max(rows) == min(max(chunk // n_samples, 1), 9**3) * n_samples


def spy_searches(monkeypatch) -> list:
    """Record each search's tree, its _Search and the leaf costs of each of
    its blocks, in order."""
    searches = []
    leaf_costs = _PrefixTree._leaf_costs

    def spy(tree, run, leaves):
        costs = leaf_costs(tree, run, leaves)
        if not searches or searches[-1][1] is not run:
            searches.append((tree, run, []))
        searches[-1][2].append(costs)
        return costs

    monkeypatch.setattr(_PrefixTree, "_leaf_costs", spy)
    return searches


def search_inputs(tree, run) -> tuple:
    """One search's inputs as tests/oracles.py's prefix-tree oracles take them."""
    return (
        tree.belief.P,
        tree.model.F,
        tree.model.Q,
        tree.target_paths,
        tree.free,
        [(*xy, s.half_width, s.alpha, s.r0) for xy, s in zip(tree.belief.xy, tree.belief.sensors)],
        [None if f is None else f[0] for f in run.fixed],
        run.step_xy,
    )


def dense_reference(tree, run):
    """tests/oracles.py's dense schedule run on one search's inputs."""
    return dense_prefix_tree(*search_inputs(tree, run), tree.beta)


def beam_reference(tree, run, keep):
    """tests/oracles.py's literal beam run on one search's inputs."""
    return literal_beam(*search_inputs(tree, run), keep, tree.beta)


class TestDenseSchedule:
    """The kernel holds a covariance row once for every prefix sharing it,
    predicts and updates each such row once, and keeps only traces at the
    leaves; every leaf still costs what the dense schedule (each child a
    full copy, every agent updating every copy) gives, bit for bit."""

    @pytest.mark.parametrize("chunk", [4096, 7])
    def test_leaf_costs_match_dense_schedule_bit_for_bit(self, monkeypatch, chunk):
        monkeypatch.setattr("trackplan.planning.SCAN_CHUNK", chunk)
        searches = spy_searches(monkeypatch)
        rng = np.random.default_rng(31)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        for k in range(9):
            n_agents, h = 1 + k % 3, 1 + k // 3
            belief, forest, intents = TestBlocks._crowded_instance(
                rng, n_agents, int(rng.integers(1, 5)), h
            )
            sma_nbo_plan(belief, intents, actions, forest, model)
            sma_nbo_plan(belief, intents, actions, forest, model, beta=0.8)
            for n_samples in (1, 7):
                mcr_plan(
                    belief, intents, actions, forest, model, n_samples, np.random.default_rng(k)
                )
            if n_agents * h <= 4:
                dec_pomdp_plan(belief, h, actions, forest, model)
        # one search per sweep stage (18 stages x 4 plans) and per dec-pomdp plan (6)
        assert len(searches) >= 78
        for tree, run, blocks in searches:
            costs = np.concatenate(blocks)
            assert costs.tobytes() == dense_reference(tree, run)[0].tobytes()

    def test_targets_on_fov_edges_match_dense_schedule_bit_for_bit(self, monkeypatch):
        # Agents, moves and targets on an integer grid, so every offset is
        # exact. Agent 0 at (0, 0) has half width 2, agent 1 at (10, 0) 3,
        # agent 2 at (0, 10) 2; a mover steps 1 along an axis or hovers.
        # Each target stands on the edge or corner of a square where its
        # agent hovers or where a mover reaches, and -0.0 coordinates make
        # offsets of -0.0 from an agent at +0.0, one of them at zero range.
        searches = spy_searches(monkeypatch)
        agents = (
            agent_at(0.0, 0.0, fov_edge=4.0),
            agent_at(10.0, 0.0, fov_edge=6.0, alpha=0.2),
            agent_at(0.0, 10.0, fov_edge=4.0, r0=2.0),
        )
        nominal = [  # (T, h, 2): each track's position at steps 1 and 2
            [(2.0, 2.0), (2.0, 3.0)],  # agent 0's corner, then its corner a move up
            [(-0.0, -2.0), (-0.0, -0.0)],  # agent 0's lower edge at dx -0.0, then zero range
            [(13.0, 3.0), (12.0, -5.0)],  # agent 1's corner, then its edge two moves down
            [(7.0, -3.0), (-0.0, 12.0)],  # agent 1's corner, then agent 2's top edge
            [(2.0, 8.0), (-3.0, 10.0)],  # agent 2's corner, then its edge a move left
            [(-2.0, 0.0), (14.0, -0.0)],  # agent 0's left edge, agent 1's edge a move right
        ]
        nominal = np.array(nominal)
        # three samples: the nominal one, mirrored in x (its -0.0 turns into
        # +0.0), and shifted one step down the grid
        mirrored = nominal * np.array([-1.0, 1.0])
        paths = np.stack([nominal, mirrored, nominal - np.array([0.0, 1.0])])
        assert np.signbit(paths[paths == 0.0]).any()
        belief = belief_of(
            tracks=[track_at(t, 0.0, 0.0, p_scale=1.0 + t / 4) for t in range(len(nominal))],
            agents=agents,
        )
        monkeypatch.setattr(planning, "_nominal_paths", lambda belief, model, h: paths[:1])
        monkeypatch.setattr(
            planning, "_sample_target_paths", lambda belief, model, h, n, rng: paths[:n]
        )
        model = ncv_model(1.0, 1.0)
        actions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        intents = hover_plan(len(agents), 2)
        sma_nbo_plan(belief, intents, actions, EMPTY, model)
        sma_nbo_plan(belief, intents, actions, EMPTY, model, beta=0.8)
        mcr_plan(belief, intents, actions, EMPTY, model, 3, np.random.default_rng(0))
        dec_pomdp_plan(belief, 2, actions, EMPTY, model)
        assert len(searches) == 3 + 3 + 3 + 1
        for tree, run, blocks in searches:
            costs = np.concatenate(blocks)
            assert costs.tobytes() == dense_reference(tree, run)[0].tobytes()

    def test_fixed_agents_update_each_parent_once(self, monkeypatch):
        # every level of the default epoch's searches has one block of
        # parents, so the kernel's rows are the oracle's lineages
        searches = spy_searches(monkeypatch)
        rows, predicted = [], []
        joseph = planning._joseph_update_batch
        level = _PrefixTree._level

        def counting(p, r):
            rows.append(len(p))
            return joseph(p, r)

        def predicting(tree, *args):
            shared = level(tree, *args)
            predicted.append(shared.size)
            return shared

        monkeypatch.setattr(planning, "_joseph_update_batch", counting)
        monkeypatch.setattr(_PrefixTree, "_level", predicting)
        mcr_plan(*TestBlocks._default_mcr_epoch(), 50, np.random.default_rng(1))
        counts = [dense_reference(tree, run)[1] for tree, run, _ in searches]
        total = {key: sum(c[key] for c in counts) for key in counts[0]}
        assert sum(rows) == total["shared"] < total["per_parent"] < total["dense"]
        assert sum(predicted) == total["predicted"]


class TestComplexityCounts:
    def test_sweep_is_linear_in_agents(self):
        rng = np.random.default_rng(22)
        model = ncv_model(1.0, 1.0)
        for n, h, headings in ((1, 1, 2), (2, 2, 4), (3, 1, 4)):
            actions = action_set(5.0, headings, 1)
            belief, forest, prev = random_instance(rng, n, 2, h)
            intents = extend_intent(prev, h, n)
            _, stats = sma_nbo_plan(belief, intents, actions, forest, model)
            assert stats.rollout_evals == n * len(actions) ** h
            assert stats.per_agent_evals == (len(actions) ** h,) * n

    def test_joint_is_exponential_in_agents(self):
        rng = np.random.default_rng(23)
        model = ncv_model(1.0, 1.0)
        for n, h, headings in ((1, 2, 2), (2, 1, 4), (3, 1, 2)):
            actions = action_set(5.0, headings, 1)
            belief, forest, _ = random_instance(rng, n, 2, h)
            _, stats = dec_pomdp_plan(belief, h, actions, forest, model)
            assert stats.per_agent_evals == (len(actions) ** (n * h),) * n
            assert stats.rollout_evals == n * len(actions) ** (n * h)


class TestPlanFormat:
    """Plans are float (n_agents, h, 2) velocity arrays, in and out."""

    def _epoch(self):
        rng = np.random.default_rng(28)
        belief, forest, joint = random_instance(rng, 2, 3, 2)
        inputs = trackplan.sim._PlanInputs(
            h=2, actions=action_set(5.0, 4, 1), forest=forest, model=ncv_model(1.0, 1.0),
            beta=1.0, mcr_samples=4, rng=np.random.default_rng(0),
        )
        return belief, extend_intent(joint, 2, 2), inputs

    @pytest.mark.parametrize("planner", trackplan.sim.PLANNERS)
    def test_each_planner_returns_a_float_plan_array(self, planner):
        belief, intents, inputs = self._epoch()
        joint, _ = trackplan.sim._EPOCH_CALLS[planner](belief, intents, inputs)
        assert isinstance(joint, np.ndarray)
        assert joint.dtype == float and joint.shape == (2, 2, 2)

    @pytest.mark.parametrize("planner", ["sma-nbo", "sma-nbo-mwtp", "mcr"])
    def test_sweep_planners_leave_the_intents_unchanged(self, planner):
        belief, intents, inputs = self._epoch()
        before = intents.copy()
        joint, _ = trackplan.sim._EPOCH_CALLS[planner](belief, intents, inputs)
        assert not np.array_equal(joint, before)  # so a write into the intents would show
        assert np.array_equal(intents, before)

    def test_readme_lists_each_planner_signature(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        calls = re.findall(r"^tp\.(\w+_plan)\((.*)\)$", readme, re.M)
        assert [name for name, _ in calls] == ["sma_nbo_plan", "mcr_plan", "dec_pomdp_plan"]
        for name, args in calls:
            documented = [arg.strip().partition("=") for arg in args.split(",")]
            in_code = [
                (p.name, *(("", "") if p.default is p.empty else ("=", repr(p.default))))
                for p in inspect.signature(getattr(trackplan, name)).parameters.values()
            ]
            assert in_code == documented
