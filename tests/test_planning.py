import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from trackplan import (
    Action,
    AgentState,
    Aoi,
    BudgetExceededError,
    FleetBelief,
    OcclusionForest,
    PolicySeq,
    TargetTrack,
    action_set,
    dec_pomdp_plan,
    extend_intent,
    generate_forest,
    mcr_plan,
    mdo_position,
    mwtp,
    ncv_model,
    nominal_trajectory,
    observation_covariance,
    predict,
    propagate_agent,
    rollout_cost,
    sma_nbo_plan,
)
from trackplan.planning import (
    EXHAUSTIVE_LIMIT,
    _batched_rollout_costs,
    _free_of_occlusion,
    _nominal_paths,
    _policy_velocities,
    _positions_from_velocities,
    mwtp_detailed,
)

from oracles import kalman_update_cov

EMPTY = OcclusionForest(disks=())


def track_at(tid, x, y, vx=0.0, vy=0.0, p_scale=1.0):
    return TargetTrack(
        target_id=tid,
        xi=np.array([x, y, vx, vy]),
        P=np.diag([25.0, 25.0, 4.0, 4.0]) * p_scale,
    )


def agent_at(x, y, fov_edge=20.0, alpha=0.1):
    return AgentState(px=x, py=y, fov_edge=fov_edge, alpha=alpha)


def hover_policy(agent_id, h):
    return PolicySeq(agent_id=agent_id, actions=(Action(0.0, 0.0),) * h)


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
    belief = FleetBelief(tracks=tracks, agents=agents)
    actions = action_set(5.0, 4, 1)
    joint = [
        PolicySeq(
            agent_id=i,
            actions=tuple(actions[rng.integers(len(actions))] for _ in range(h)),
        )
        for i in range(n_agents)
    ]
    return belief, forest, joint


def engine_cost(belief, joint, forest, model, h, hectg="none", beta=1.0):
    """Cost of one joint policy through the vectorized evaluator."""
    paths = _nominal_paths(belief, model, h)
    free = _free_of_occlusion(paths, forest)
    pos = [
        _positions_from_velocities(
            agent.position, _policy_velocities(joint[i])[None, :, :], model.dt
        )
        for i, agent in enumerate(belief.agents)
    ]
    return float(_batched_rollout_costs(belief, model, pos, paths, free, hectg, beta)[0])


class TestActionSet:
    def test_cardinal_headings(self):
        acts = action_set(5.0, 4, 1)
        expected = [(0, 0), (5, 0), (0, 5), (-5, 0), (0, -5)]
        assert len(acts) == 5
        for act, (ux, uy) in zip(acts, expected):
            assert act.ux == pytest.approx(ux, abs=1e-12)
            assert act.uy == pytest.approx(uy, abs=1e-12)

    def test_count_with_speeds(self):
        assert len(action_set(5.0, 8, 2)) == 17

    def test_speed_limit(self):
        for act in action_set(5.0, 8, 2):
            assert act.speed <= 5.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            action_set(5.0, 0, 1)


class TestPropagateAgent:
    def test_straight_motion(self):
        out = propagate_agent(agent_at(0.0, 0.0), Action(5.0, 0.0), 1.0)
        assert (out.px, out.py) == (5.0, 0.0)
        assert out.psi == 0.0 and (out.vx, out.vy) == (5.0, 0.0)

    def test_hover_keeps_yaw_and_position(self):
        start = replace(agent_at(3.0, 4.0), psi=1.2)
        out = propagate_agent(start, Action(0.0, 0.0), 1.0)
        assert (out.px, out.py) == (3.0, 4.0) and out.psi == 1.2

    def test_half_step_north(self):
        out = propagate_agent(agent_at(0.0, 0.0), Action(0.0, 5.0), 0.5)
        assert (out.px, out.py) == (0.0, 2.5)
        assert out.psi == pytest.approx(math.pi / 2)

    def test_sensor_parameters_unchanged(self):
        start = agent_at(0.0, 0.0, fov_edge=22.0, alpha=0.12)
        out = propagate_agent(start, Action(1.0, 2.0), 1.0)
        assert out.fov_edge == 22.0 and out.alpha == 0.12 and out.r0 == start.r0


class TestNominalTrajectory:
    def test_constant_velocity_means(self):
        belief = FleetBelief(tracks=(track_at(0, 0.0, 0.0, vx=1.0),), agents=(agent_at(0, 0),))
        means = nominal_trajectory(belief, ncv_model(1.0, 1.0), 3)[0]
        assert np.allclose(means[:, 0], [1.0, 2.0, 3.0])
        assert np.allclose(means[:, 2], 1.0)

    def test_stationary_target(self):
        belief = FleetBelief(tracks=(track_at(0, 5.0, 7.0),), agents=(agent_at(0, 0),))
        means = nominal_trajectory(belief, ncv_model(1.0, 1.0), 4)[0]
        assert np.allclose(means[:, :2], [[5.0, 7.0]] * 4)

    def test_equals_noiseless_predict_means(self):
        rng = np.random.default_rng(0)
        belief, _, _ = random_instance(rng, 1, 3, 1)
        model = ncv_model(1.0, 2.0)
        noiseless = ncv_model(1.0, 0.0)
        means = nominal_trajectory(belief, model, 5)
        for track, mean_seq in zip(belief.tracks, means):
            cur = track
            for l in range(5):
                cur = predict(cur, noiseless)
                assert np.allclose(cur.xi, mean_seq[l], atol=1e-12)


class TestRolloutCost:
    def test_single_step_equals_direct_filter(self):
        rng = np.random.default_rng(1)
        model = ncv_model(1.0, 1.0)
        for _ in range(20):
            belief, forest, joint = random_instance(rng, 1, 1, 1)
            res = rollout_cost(belief, joint, forest, model, 1)
            agent = propagate_agent(belief.agents[0], joint[0].actions[0], model.dt)
            track = predict(belief.tracks[0], model)
            pos = (float(track.xi[0]), float(track.xi[1]))
            p = track.P
            inside = (
                abs(pos[0] - agent.px) <= agent.half_width
                and abs(pos[1] - agent.py) <= agent.half_width
                and not forest.occludes(*pos)
            )
            if inside:
                p = kalman_update_cov(p, observation_covariance(agent, pos))
            assert res.cost == pytest.approx(np.trace(p), abs=1e-9)

    def test_unobservable_cost_is_action_independent(self):
        belief = FleetBelief(tracks=(track_at(0, 1000.0, 1000.0),), agents=(agent_at(0, 0),))
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        costs = {
            rollout_cost(belief, [PolicySeq(0, (a,) * 3)], EMPTY, model, 3).cost
            for a in actions
        }
        assert len(costs) == 1
        # pure prediction: sum of predicted traces
        track = belief.tracks[0]
        expected = 0.0
        for _ in range(3):
            track = predict(track, model)
            expected += track.trace
        assert costs.pop() == pytest.approx(expected, abs=1e-9)

    def test_mwtp_noop_when_all_targets_covered(self):
        belief = FleetBelief(
            tracks=(track_at(0, 2.0, 1.0), track_at(1, -3.0, 2.0)),
            agents=(agent_at(0.0, 0.0, fov_edge=40.0),),
        )
        model = ncv_model(1.0, 1.0)
        joint = [hover_policy(0, 2)]
        plain = rollout_cost(belief, joint, EMPTY, model, 2, hectg="none")
        with_pen = rollout_cost(belief, joint, EMPTY, model, 2, hectg="mwtp")
        assert with_pen.cost == pytest.approx(plain.cost, abs=1e-12)
        assert with_pen.hectg_value == 0.0

    def test_cost_decomposition_invariant(self):
        rng = np.random.default_rng(2)
        model = ncv_model(1.0, 1.0)
        for _ in range(10):
            belief, forest, joint = random_instance(rng, 2, 3, 2)
            res = rollout_cost(belief, joint, forest, model, 2, hectg="mwtp", beta=0.7)
            assert res.cost == pytest.approx(sum(res.step_traces) + res.hectg_value, abs=1e-9)

    def test_policy_length_validated(self):
        belief = FleetBelief(tracks=(track_at(0, 0, 0),), agents=(agent_at(0, 0),))
        with pytest.raises(ValueError):
            rollout_cost(belief, [hover_policy(0, 2)], EMPTY, ncv_model(1.0, 1.0), 3)


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
        assert mwtp([agent_at(0, 0)], [], beta=1.0) == 0.0

    def test_single_sensor_two_targets_guard(self):
        j, steps = mwtp_detailed(
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
        j, steps = mwtp_detailed(
            sensor_xy=np.array([[20.0, 0.0], [0.0, 10.0]]),
            half_widths=np.array([5.0, 5.0]),
            target_xy=np.array([[0.0, 25.0], [40.0, 5.0]]),
            traces=np.array([100.0, 50.0]),
            beta=1.0,
        )
        assert [s.sensor_index for s in steps] == [1, 0]
        expected = 15.0 * 100.0 + math.sqrt(425.0) * 50.0
        assert j == pytest.approx(expected, abs=1e-9)
        assert mwtp(sensors, uncovered, beta=1.0) == pytest.approx(expected, abs=1e-9)

    def test_contributing_targets_bounded_by_sensors(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_sensors = rng.integers(1, 4)
            n_targets = rng.integers(0, 6)
            j, steps = mwtp_detailed(
                sensor_xy=rng.uniform(0, 100, (n_sensors, 2)),
                half_widths=rng.uniform(5, 15, n_sensors),
                target_xy=rng.uniform(0, 100, (n_targets, 2)),
                traces=rng.uniform(1, 100, n_targets),
                beta=1.0,
            )
            assert j >= 0.0
            assert sum(s.contributed for s in steps) <= n_sensors

    def test_sorted_by_decreasing_trace(self):
        _, steps = mwtp_detailed(
            sensor_xy=np.array([[0.0, 0.0]]),
            half_widths=np.array([5.0]),
            target_xy=np.array([[10.0, 0.0], [11.0, 0.0], [12.0, 0.0]]),
            traces=np.array([5.0, 50.0, 20.0]),
            beta=1.0,
        )
        assert [s.target_index for s in steps] == [1, 2, 0]


class TestBatchMatchesReference:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n_agents = int(rng.integers(1, 4))
            n_targets = int(rng.integers(1, 4))
            h = int(rng.integers(1, 4))
            hectg = "mwtp" if rng.random() < 0.5 else "none"
            belief, forest, joint = random_instance(rng, n_agents, n_targets, h)
            model = ncv_model(1.0, 1.0)
            ref = rollout_cost(belief, joint, forest, model, h, hectg=hectg, beta=0.8)
            fast = engine_cost(belief, joint, forest, model, h, hectg=hectg, beta=0.8)
            assert fast == pytest.approx(ref.cost, rel=1e-9, abs=1e-9)

    def test_sampled_paths_match_scalar_recursion(self):
        rng = np.random.default_rng(6)
        model = ncv_model(1.0, 1.0)
        for _ in range(10):
            belief, forest, joint = random_instance(rng, 2, 2, 2)
            h, n_samples = 2, 4
            paths = rng.uniform(0, 150, (n_samples, len(belief.tracks), h, 2))
            free = _free_of_occlusion(paths, forest)
            pos = [
                _positions_from_velocities(
                    agent.position, _policy_velocities(joint[i])[None, :, :], model.dt
                )
                for i, agent in enumerate(belief.agents)
            ]
            fast = float(_batched_rollout_costs(belief, model, pos, paths, free, "none", 1.0)[0])
            # literal per-sample covariance recursion
            total = 0.0
            for s in range(n_samples):
                covs = [t.P for t in belief.tracks]
                for l in range(h):
                    covs = [
                        model.F @ p @ model.F.T + model.Q for p in covs
                    ]
                    for t in range(len(covs)):
                        tp = paths[s, t, l]
                        if forest.occludes(tp[0], tp[1]):
                            continue
                        for i, agent in enumerate(belief.agents):
                            apos = pos[i][0, l]
                            if np.all(np.abs(tp - apos) <= agent.half_width):
                                moved = replace(agent, px=float(apos[0]), py=float(apos[1]))
                                r = observation_covariance(moved, tuple(tp))
                                covs[t] = kalman_update_cov(covs[t], r)
                    total += sum(np.trace(p) for p in covs)
            assert fast == pytest.approx(total / n_samples, rel=1e-9, abs=1e-9)


class TestOptimizeSingle:
    """One agent's optimization stage, read from the sweep's first stage."""

    def test_exhaustive_scan_count_and_incumbent_bound(self):
        rng = np.random.default_rng(7)
        belief, forest, joint = random_instance(rng, 2, 2, 1)
        actions = action_set(5.0, 8, 1)
        _, stats = sma_nbo_plan(
            belief, tuple(joint), 1, actions, forest, ncv_model(1.0, 1.0)
        )
        assert stats.per_agent_evals[0] == 9
        assert stats.stage_best_costs[0] <= stats.stage_incumbent_costs[0] + 1e-9

    def test_moves_north_toward_only_coverable_target(self):
        belief = FleetBelief(
            tracks=(track_at(0, 0.0, 13.0),), agents=(agent_at(0.0, 0.0, fov_edge=20.0),)
        )
        actions = action_set(5.0, 4, 1)
        joint, _ = sma_nbo_plan(
            belief, (hover_policy(0, 1),), 1, actions, EMPTY, ncv_model(1.0, 1.0)
        )
        assert joint[0].actions[0].ux == pytest.approx(0.0, abs=1e-12)
        assert joint[0].actions[0].uy == pytest.approx(5.0, abs=1e-12)

    def test_all_equal_costs_return_first_action(self):
        belief = FleetBelief(
            tracks=(track_at(0, 1000.0, 1000.0),), agents=(agent_at(0.0, 0.0),)
        )
        actions = action_set(5.0, 8, 1)
        joint, _ = sma_nbo_plan(
            belief, (hover_policy(0, 2),), 2, actions, EMPTY, ncv_model(1.0, 1.0)
        )
        assert joint[0].actions == (Action(0.0, 0.0), Action(0.0, 0.0))

    def test_beam_search_path(self, monkeypatch):
        monkeypatch.setattr("trackplan.planning.EXHAUSTIVE_LIMIT", 10)
        monkeypatch.setattr("trackplan.planning.BEAM_WIDTH", 3)
        belief = FleetBelief(
            tracks=(track_at(0, 0.0, 13.0),), agents=(agent_at(0.0, 0.0, fov_edge=20.0),)
        )
        actions = action_set(5.0, 4, 1)
        joint, stats = sma_nbo_plan(
            belief, (hover_policy(0, 2),), 2, actions, EMPTY, ncv_model(1.0, 1.0)
        )
        assert joint[0].actions[0].uy == pytest.approx(5.0, abs=1e-12)
        assert stats.stage_best_costs[0] <= stats.stage_incumbent_costs[0] + 1e-9
        # beam path: 5 prefixes, then the 3 kept x 5, plus the incumbent
        assert stats.per_agent_evals[0] == 5 + 3 * 5 + 1

    def test_incumbent_outside_action_set_can_win(self):
        # the diagonal intent reaches a pose strictly closer to the target
        # than any cardinal action, so it must be kept (and counted)
        belief = FleetBelief(
            tracks=(track_at(0, 10.0, 12.0),), agents=(agent_at(0.0, 0.0, fov_edge=20.0),)
        )
        actions = action_set(5.0, 4, 1)
        incumbent = PolicySeq(0, (Action(3.0, 4.0),))
        joint, stats = sma_nbo_plan(
            belief, (incumbent,), 1, actions, EMPTY, ncv_model(1.0, 1.0)
        )
        assert stats.per_agent_evals[0] == len(actions) + 1
        assert joint[0].actions == incumbent.actions
        assert stats.stage_best_costs[0] == stats.stage_incumbent_costs[0]

    def test_zero_track_belief_keeps_intents(self):
        belief = FleetBelief(tracks=(), agents=(agent_at(0.0, 0.0), agent_at(5.0, 5.0)))
        actions = action_set(5.0, 4, 1)
        intents = extend_intent(None, 2, 2)
        joint, stats = sma_nbo_plan(belief, intents, 2, actions, EMPTY, ncv_model(1.0, 1.0))
        # nothing to track: every candidate costs zero, first one wins
        assert all(seq.actions == (Action(0.0, 0.0),) * 2 for seq in joint)
        assert stats.stage_best_costs == (0.0, 0.0)


class TestExtendIntent:
    def test_shift_and_repeat_last(self):
        a, b, c = Action(1.0, 0.0), Action(0.0, 1.0), Action(-1.0, 0.0)
        previous = [PolicySeq(0, (a, b, c))]
        intents = extend_intent(previous, 3, 1)
        assert intents[0].actions == (b, c, c)

    def test_first_epoch_is_hover(self):
        intents = extend_intent(None, 3, 2)
        for seq in intents:
            assert seq.actions == (Action(0.0, 0.0),) * 3

    def test_length_always_h(self):
        rng = np.random.default_rng(8)
        actions = action_set(5.0, 8, 1)
        for h in (1, 2, 5):
            prev = [
                PolicySeq(0, tuple(actions[rng.integers(9)] for _ in range(h))),
                PolicySeq(1, tuple(actions[rng.integers(9)] for _ in range(h))),
            ]
            intents = extend_intent(prev, h, 2)
            assert all(len(p) == h for p in intents)


class TestSmaNbo:
    def test_two_agent_instance_with_unreachable_agent(self):
        belief = FleetBelief(
            tracks=(track_at(0, 0.0, 13.0),),
            agents=(agent_at(500.0, 500.0, fov_edge=20.0), agent_at(0.0, 0.0, fov_edge=20.0)),
        )
        actions = action_set(5.0, 4, 1)
        model = ncv_model(1.0, 1.0)
        intents = extend_intent(None, 1, 2)
        joint, _ = sma_nbo_plan(belief, intents, 1, actions, EMPTY, model)
        # agent 1 cannot reach anything: keeps the first (hover) action
        assert joint[0].actions[0] == Action(0.0, 0.0)
        assert joint[1].actions[0].uy == pytest.approx(5.0, abs=1e-12)
        # exhaustive joint-space oracle
        best = min(
            (
                rollout_cost(
                    belief,
                    [PolicySeq(0, (a0,)), PolicySeq(1, (a1,))],
                    EMPTY,
                    model,
                    1,
                ).cost
                for a0 in actions
                for a1 in actions
            )
        )
        got = rollout_cost(belief, joint, EMPTY, model, 1).cost
        assert got == pytest.approx(best, abs=1e-9)

    def test_never_worse_than_intents(self):
        rng = np.random.default_rng(10)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        for _ in range(10):
            belief, forest, prev = random_instance(rng, 2, 3, 2)
            intents = extend_intent(prev, 2, 2)
            joint, stats = sma_nbo_plan(belief, intents, 2, actions, forest, model)
            j_intents = rollout_cost(belief, list(intents), forest, model, 2).cost
            j_plan = rollout_cost(belief, joint, forest, model, 2).cost
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
        a, _ = sma_nbo_plan(belief, intents, 2, actions, forest, model)
        b, _ = sma_nbo_plan(belief, intents, 2, actions, forest, model)
        assert a == b

    def test_action_feasibility(self):
        rng = np.random.default_rng(13)
        belief, forest, prev = random_instance(rng, 2, 2, 2)
        actions = action_set(5.0, 8, 1)
        intents = extend_intent(prev, 2, 2)
        joint, _ = sma_nbo_plan(belief, intents, 2, actions, forest, ncv_model(1.0, 1.0))
        for seq in joint:
            for act in seq.actions:
                assert act.speed <= 5.0 + 1e-9

    def test_beam_fallback_at_shipped_limits(self):
        # |A| = 9: H5 is still enumerated, H6 falls back to beam search
        actions = action_set(5.0, 8, 1)
        assert len(actions) ** 5 <= EXHAUSTIVE_LIMIT < len(actions) ** 6
        rng = np.random.default_rng(25)
        belief, forest, _ = random_instance(rng, 3, 3, 6)
        _, stats = sma_nbo_plan(
            belief, extend_intent(None, 6, 3), 6, actions, forest, ncv_model(1.0, 1.0)
        )
        # level 1 scores 9 prefixes, levels 2-6 the 8 kept x 9, plus the incumbent
        assert stats.per_agent_evals == (9 + 5 * 8 * 9 + 1,) * 3
        assert stats.rollout_evals == 1110
        for inc, best in zip(stats.stage_incumbent_costs, stats.stage_best_costs):
            assert best <= inc + 1e-9


class TestDecPomdp:
    def test_single_agent_matches_sweep(self):
        rng = np.random.default_rng(14)
        belief, forest, _ = random_instance(rng, 1, 2, 1)
        actions = action_set(5.0, 4, 1)
        model = ncv_model(1.0, 1.0)
        joint_dec, _ = dec_pomdp_plan(belief, 1, actions, forest, model)
        joint_sma, _ = sma_nbo_plan(
            belief, extend_intent(None, 1, 1), 1, actions, forest, model
        )
        assert joint_dec == joint_sma

    def test_matches_joint_brute_force(self):
        rng = np.random.default_rng(15)
        belief, forest, _ = random_instance(rng, 2, 2, 1)
        actions = action_set(5.0, 2, 1)  # |A| = 3
        model = ncv_model(1.0, 1.0)
        joint, stats = dec_pomdp_plan(belief, 1, actions, forest, model)
        combos = list(itertools.product(actions, repeat=2))
        costs = [
            rollout_cost(
                belief, [PolicySeq(0, (a0,)), PolicySeq(1, (a1,))], forest, model, 1
            ).cost
            for a0, a1 in combos
        ]
        best_idx = int(np.argmin(costs))
        assert stats.per_agent_evals == (9, 9)
        got = rollout_cost(belief, joint, forest, model, 1).cost
        assert got == pytest.approx(costs[best_idx], abs=1e-9)
        assert (joint[0].actions[0], joint[1].actions[0]) == combos[best_idx]

    def test_joint_cost_dominates_sequential(self):
        rng = np.random.default_rng(16)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        for _ in range(5):
            belief, forest, prev = random_instance(rng, 2, 2, 1)
            intents = extend_intent(prev, 1, 2)
            joint_dec, _ = dec_pomdp_plan(belief, 1, actions, forest, model)
            joint_sma, _ = sma_nbo_plan(belief, intents, 1, actions, forest, model)
            j_dec = rollout_cost(belief, joint_dec, forest, model, 1).cost
            j_sma = rollout_cost(belief, joint_sma, forest, model, 1).cost
            assert j_dec <= j_sma + 1e-9

    def test_joint_problem_is_solved_once(self, monkeypatch):
        rng = np.random.default_rng(24)
        belief, forest, _ = random_instance(rng, 3, 2, 1)
        actions = action_set(5.0, 8, 1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _batched_rollout_costs(*args, **kwargs)

        monkeypatch.setattr("trackplan.planning._batched_rollout_costs", counting)
        _, stats = dec_pomdp_plan(belief, 1, actions, forest, ncv_model(1.0, 1.0))
        assert len(calls) == 1
        assert stats.per_agent_evals == (9**3,) * 3

    def test_budget_guard_names_required_count(self):
        rng = np.random.default_rng(17)
        belief, forest, _ = random_instance(rng, 3, 2, 1)
        actions = action_set(5.0, 8, 1)
        with pytest.raises(BudgetExceededError, match=str(9**9)):
            dec_pomdp_plan(belief, 3, actions, forest, ncv_model(1.0, 1.0))


class TestMcr:
    def _degenerate_belief(self, rng, n_agents=2, n_targets=2):
        agents = tuple(
            agent_at(rng.uniform(20, 130), rng.uniform(20, 80)) for _ in range(n_agents)
        )
        tracks = tuple(
            TargetTrack(
                target_id=t,
                xi=np.array(
                    [rng.uniform(20, 130), rng.uniform(20, 80), rng.uniform(-2, 2), rng.uniform(-2, 2)]
                ),
                P=np.zeros((4, 4)),
            )
            for t in range(n_targets)
        )
        return FleetBelief(tracks=tracks, agents=agents)

    def test_degenerate_sampling_equals_nominal_planner(self):
        rng = np.random.default_rng(18)
        model = ncv_model(1.0, 0.0)  # no process noise
        actions = action_set(5.0, 4, 1)
        for _ in range(10):
            belief = self._degenerate_belief(rng)
            forest = generate_forest(10.0, 5.0, Aoi(150, 100), rng)
            intents = extend_intent(None, 2, 2)
            joint_mcr, _ = mcr_plan(
                belief, 2, 5, np.random.default_rng(0), intents, actions, forest, model
            )
            joint_sma, _ = sma_nbo_plan(belief, intents, 2, actions, forest, model)
            assert joint_mcr == joint_sma

    def test_single_noise_free_sample_equals_nominal(self):
        rng = np.random.default_rng(19)
        model = ncv_model(1.0, 0.0)
        actions = action_set(5.0, 4, 1)
        belief = self._degenerate_belief(rng)
        intents = extend_intent(None, 1, 2)
        joint_mcr, _ = mcr_plan(
            belief, 1, 1, np.random.default_rng(1), intents, actions, EMPTY, model
        )
        joint_sma, _ = sma_nbo_plan(belief, intents, 1, actions, EMPTY, model)
        assert joint_mcr == joint_sma

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(20)
        belief, forest, prev = random_instance(rng, 2, 2, 2)
        model = ncv_model(1.0, 1.0)
        actions = action_set(5.0, 4, 1)
        intents = extend_intent(prev, 2, 2)
        a, _ = mcr_plan(belief, 2, 8, np.random.default_rng(5), intents, actions, forest, model)
        b, _ = mcr_plan(belief, 2, 8, np.random.default_rng(5), intents, actions, forest, model)
        assert a == b

    def test_sample_count_validated(self):
        rng = np.random.default_rng(21)
        belief, forest, prev = random_instance(rng, 1, 1, 1)
        with pytest.raises(ValueError):
            mcr_plan(
                belief, 1, 0, np.random.default_rng(0), extend_intent(prev, 1, 1),
                action_set(5.0, 4, 1), forest, ncv_model(1.0, 1.0),
            )


class TestComplexityCounts:
    def test_sweep_is_linear_in_agents(self):
        rng = np.random.default_rng(22)
        model = ncv_model(1.0, 1.0)
        for n, h, headings in ((1, 1, 2), (2, 2, 4), (3, 1, 4)):
            actions = action_set(5.0, headings, 1)
            belief, forest, prev = random_instance(rng, n, 2, h)
            intents = extend_intent(prev, h, n)
            _, stats = sma_nbo_plan(belief, intents, h, actions, forest, model)
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
