import math
from dataclasses import fields, replace

import numpy as np
import pytest

from trackplan import (
    PLANNERS,
    OcclusionForest,
    OspaParams,
    PlanStats,
    ScenarioConfig,
    TargetTrajectory,
    generate_forest,
    generate_levy_trajectory,
    ospa,
    run_trial,
    sense,
)
import trackplan.sim
from trackplan.sim import TrialLog
from trackplan.worldgen import DEFAULT_P0

from beliefs import start_agents
from oracles import ospa_brute, scalar_filter_replay

EMPTY = OcclusionForest(disks=())


def scripted_trajectory(target_id, start, velocity, duration, dt):
    n = round(duration / dt)
    t = np.arange(n + 1)[:, None] * dt
    pos = np.asarray(start) + t * np.asarray(velocity)
    vel = np.tile(np.asarray(velocity, dtype=float), (n + 1, 1))
    return TargetTrajectory(target_id=target_id, dt=dt, samples=np.hstack([pos, vel]))


def small_config(**kwargs):
    defaults = dict(
        duration=10.0,
        horizon=1,
        n_agents=1,
        fov_edges=(20.0,),
        alphas=(0.1,),
        n_targets=1,
        lam=0.0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestTrialStructure:
    def test_epoch_and_step_counts(self):
        log = run_trial(small_config(), EMPTY, "sma-nbo", 0)
        assert len(log.epoch_times) == 10
        assert len(log.times) == 50
        assert np.allclose(np.diff(log.times), 0.2)
        assert np.allclose(np.diff(log.epoch_times), 1.0)

    def test_same_seed_is_deterministic(self):
        cfg = small_config(n_targets=2)
        forest = generate_forest(15.0, 5.0, cfg.aoi, np.random.default_rng(2))
        a = run_trial(cfg, forest, "sma-nbo", 123)
        b = run_trial(cfg, forest, "sma-nbo", 123)
        assert a.deterministic_equal(b)
        assert not np.array_equal(a.epoch_plan_seconds, np.zeros_like(a.epoch_plan_seconds))

    def test_different_seed_differs(self):
        cfg = small_config(n_targets=2)
        a = run_trial(cfg, EMPTY, "sma-nbo", 1)
        b = run_trial(cfg, EMPTY, "sma-nbo", 2)
        assert not a.deterministic_equal(b)

    @pytest.mark.parametrize("name", [f.name for f in fields(TrialLog)])
    def test_deterministic_equal_compares_every_field_but_wall_clock(self, name):
        log = run_trial(small_config(duration=2.0), EMPTY, "sma-nbo", 0)
        value = getattr(log, name)
        changed = tuple(v + 1 for v in value) if isinstance(value, tuple) else value + 1
        other = replace(log, **{name: changed})
        assert other.deterministic_equal(log) == (name == "epoch_plan_seconds")

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            run_trial(small_config(), EMPTY, "nope", 0)

    def test_forest_must_fit_aoi(self):
        forest = OcclusionForest(disks=((500.0, 500.0, 5.0),))
        with pytest.raises(ValueError):
            run_trial(small_config(), forest, "sma-nbo", 0)

    def test_short_scripted_trajectory_rejected(self):
        traj = scripted_trajectory(0, (10.0, 10.0), (1.0, 0.0), 5.0, 0.2)
        with pytest.raises(ValueError, match="too short"):
            run_trial(small_config(), EMPTY, "sma-nbo", 0, trajectories=[traj])

    @pytest.mark.parametrize("bad", ["two columns", "nan"])
    def test_malformed_trajectory_rejected_before_the_first_step(self, monkeypatch, bad):
        traj = scripted_trajectory(0, (10.0, 10.0), (1.0, 0.0), 10.0, 0.2)
        samples = traj.samples[:, :2] if bad == "two columns" else traj.samples.copy()
        if bad == "nan":
            samples[30, 1] = np.nan
        steps = []
        monkeypatch.setattr(trackplan.sim, "sense", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=r"must hold finite \(n, 4\) samples"):
            run_trial(small_config(), EMPTY, "sma-nbo", 0, trajectories=[replace(traj, samples=samples)])
        assert steps == []

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_zero_targets(self, planner):
        log = run_trial(small_config(duration=2.0), EMPTY, planner, 0, trajectories=[], mcr_samples=3)
        assert log.truth.shape == log.est_mean.shape == (10, 0, 4)
        assert log.est_trace.shape == (10, 0)
        assert log.ospa.tolist() == [0.0] * 10

    def test_scripted_trajectory_must_be_sampled_every_dt_sense(self):
        # sampled at 0.1 s and stepped at 0.2 s, the truth would move at half
        # its logged velocity
        traj = scripted_trajectory(0, (10.0, 10.0), (1.0, 0.0), 20.0, 0.1)
        with pytest.raises(ValueError, match="sampled every 0.1 s"):
            run_trial(small_config(), EMPTY, "sma-nbo", 0, trajectories=[traj])
        # a period that differs in the last digits only is the same period
        traj = scripted_trajectory(0, (10.0, 10.0), (1.0, 0.0), 10.0, 0.2)
        run_trial(small_config(), EMPTY, "sma-nbo", 0, trajectories=[replace(traj, dt=0.2 + 1e-15)])


class TestFilterBehavior:
    def test_static_target_converges_monotonically(self, monkeypatch):
        # exact measurements of a stationary target: error shrinks to zero
        class ZeroNoise:
            def standard_normal(self, size):
                return np.zeros(size)

        def exact_sense(*args):
            return sense(*args[:-1], ZeroNoise())

        monkeypatch.setattr(trackplan.sim, "sense", exact_sense)
        cfg = small_config(sigma_a=0.0, fov_edges=(80.0,))
        traj = scripted_trajectory(0, (75.0, 50.0), (0.0, 0.0), cfg.duration, cfg.dt_sense)
        log = run_trial(cfg, EMPTY, "sma-nbo", 0, trajectories=[traj])
        series = log.ospa
        assert series[-1] < 1e-3
        settled = series[5:]
        assert np.all(np.diff(settled) <= 1e-9)

    def test_trace_grows_without_observation_and_drops_on_reacquisition(self):
        # target crosses a shadow disk inside a FoV wide enough to span it
        forest = OcclusionForest(disks=((75.0, 50.0, 12.0),))
        cfg = small_config(duration=30.0, fov_edges=(80.0,), sigma_a=1.0)
        traj = scripted_trajectory(0, (50.0, 50.0), (2.0, 0.0), cfg.duration, cfg.dt_sense)
        log = run_trial(cfg, forest, "sma-nbo", 3, trajectories=[traj])
        observed = np.array(
            [
                not forest.occludes(log.truth[k, 0, :2])
                and bool(
                    np.all(
                        np.abs(log.truth[k, 0, :2] - log.agent_states[k, 0, :2])
                        <= cfg.fov_edges[0] / 2.0
                    )
                )
                for k in range(len(log.times))
            ]
        )
        trace = log.est_trace[:, 0]
        occluded = np.array(
            [forest.occludes(log.truth[k, 0, :2]) for k in range(len(log.times))]
        )
        assert occluded.any() and not occluded.all()
        inside = np.where(occluded)[0]
        # strict growth over every unobserved step of the occluded stretch
        for k in inside[1:]:
            assert trace[k] > trace[k - 1]
        # trace drops at the first observation after the occluded interval
        after = np.where(observed & (np.arange(len(observed)) > inside[-1]))[0]
        assert len(after) > 0, "target was never re-acquired"
        reacq = after[0]
        assert trace[reacq] < trace[reacq - 1]

    def test_ospa_column_matches_metric(self):
        cfg = small_config(n_targets=2)
        log = run_trial(cfg, EMPTY, "sma-nbo", 5)
        series = [
            ospa_brute(est[:, :2], truth[:, :2], cfg.ospa_c, cfg.ospa_p)
            for est, truth in zip(log.est_mean, log.truth)
        ]
        assert np.allclose(series, log.ospa, atol=1e-12)

    def test_sense_and_fuse_called_once_per_step_through_the_module(self, monkeypatch):
        # the benchmark's tracer wraps trackplan.sim.sense and .fuse
        calls = []
        for name in ("sense", "fuse"):
            real = getattr(trackplan.sim, name)
            monkeypatch.setattr(
                trackplan.sim, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args)
            )
        run_trial(small_config(duration=2.0, n_targets=2), EMPTY, "sma-nbo", 0)
        assert calls == ["sense", "fuse"] * 10

    def test_ospa_scored_once_per_trial_as_per_step(self, monkeypatch):
        calls = []

        def recorded(x, y, params):
            calls.append(np.shape(x))
            return ospa(x, y, params)

        monkeypatch.setattr(trackplan.sim, "ospa", recorded)
        cfg = small_config(n_targets=3, duration=4.0)
        log = run_trial(cfg, EMPTY, "sma-nbo", 6)
        assert calls == [(20, 3, 2)]
        params = OspaParams(cfg.ospa_c, cfg.ospa_p)
        per_step = [ospa(e[:, :2], t[:, :2], params) for e, t in zip(log.est_mean, log.truth)]
        assert log.ospa.tolist() == per_step


class TestScalarReplay:
    @pytest.mark.parametrize("planner", PLANNERS)
    def test_filter_equals_scalar_replay(self, planner):
        # wide footprints over a forest, so targets are seen by one or both
        # agents, or hidden, at different steps
        cfg = small_config(
            duration=4.0, n_agents=2, fov_edges=(60.0, 90.0), alphas=(0.1, 0.15), n_targets=3,
            n_headings=4,
        )
        forest = generate_forest(15.0, 5.0, cfg.aoi, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        trajectories = [
            generate_levy_trajectory(
                cfg.duration, cfg.dt_sense, (cfg.speed_min, cfg.speed_max), cfg.aoi, rng, target_id=t
            )
            for t in (7, 3, 5)
        ]
        seed = 12
        log = run_trial(cfg, forest, planner, seed, trajectories=trajectories, mcr_samples=3)
        means, traces = scalar_filter_replay(
            log.truth,
            log.agent_states,
            [traj.samples[0, :2] for traj in trajectories],
            list(zip(cfg.fov_edges, cfg.alphas, (cfg.r0,) * cfg.n_agents)),
            forest.disks,
            np.random.SeedSequence(seed).spawn(3)[1],
            cfg.dt_sense,
            cfg.sigma_a,
            DEFAULT_P0,
        )
        assert np.array_equal(log.est_mean, means)
        assert np.array_equal(log.est_trace, traces)
        # the replay covers updates: traces fall where a target is seen
        assert (np.diff(traces, axis=0) < 0).any()


def scripted_first_actions(monkeypatch, actions):
    """Make sma-nbo plan actions[m] (n_agents, 2) as epoch m's first step;
    returns the beliefs it is given."""
    beliefs = []

    def plan(belief, intents, *args, **kwargs):
        joint = np.zeros_like(intents)
        joint[:, 0] = actions[len(beliefs)]
        beliefs.append(belief)
        return joint, PlanStats((0,) * len(joint))

    monkeypatch.setattr(trackplan.sim, "sma_nbo_plan", plan)
    return beliefs


class TestAgentMotion:
    def test_straight_motion(self, monkeypatch):
        scripted_first_actions(monkeypatch, [[(5.0, 0.0)]])
        cfg = small_config(duration=1.0)
        log = run_trial(cfg, EMPTY, "sma-nbo", 0)
        x0, y0 = start_agents(cfg)[0].xy
        for k, state in enumerate(log.agent_states[:, 0]):
            assert state[0] == pytest.approx(x0 + 1.0 * (k + 1)) and state[1] == y0
            assert state[2] == 0.0 and (state[3], state[4]) == (5.0, 0.0)

    def test_hover_keeps_yaw_and_position(self, monkeypatch):
        scripted_first_actions(monkeypatch, [[(-5.0, 0.0)], [(0.0, 0.0)]])
        log = run_trial(small_config(duration=2.0), EMPTY, "sma-nbo", 0)
        hover = log.agent_states[5:, 0]
        assert (hover[:, :2] == log.agent_states[4, 0, :2]).all()
        assert (hover[:, 2] == math.pi).all() and (hover[:, 3:] == 0.0).all()

    def test_heading_north_sets_yaw(self, monkeypatch):
        scripted_first_actions(monkeypatch, [[(0.0, 5.0)]])
        cfg = small_config(duration=1.0)
        log = run_trial(cfg, EMPTY, "sma-nbo", 0)
        assert log.agent_states[-1, 0, :2] == pytest.approx(start_agents(cfg)[0].xy + (0.0, 5.0))
        assert (log.agent_states[:, 0, 2] == math.atan2(5.0, 0.0)).all()

    def test_planner_agents_keep_sensor_parameters(self, monkeypatch):
        beliefs = scripted_first_actions(monkeypatch, [[(1.0, 2.0), (0.0, -3.0)]] * 2)
        cfg = small_config(duration=2.0, n_agents=2, fov_edges=(22.0, 30.0), alphas=(0.12, 0.2))
        log = run_trial(cfg, EMPTY, "sma-nbo", 0)
        first, second = beliefs
        assert [(s.fov_edge, s.alpha, s.r0) for s in second.sensors] == [
            (a.sensor.fov_edge, a.sensor.alpha, a.sensor.r0) for a in start_agents(cfg)
        ]
        assert second.sensors is first.sensors  # built once per trial
        # each epoch's agents stand where the last sensing step left them,
        # even after the loop has moved them on
        assert first.xy.tolist() == [a.xy.tolist() for a in start_agents(cfg)]
        assert second.xy.tolist() == log.agent_states[4, :, :2].tolist()

    def test_speed_limit_respected(self):
        cfg = small_config(n_targets=2, duration=20.0)
        log = run_trial(cfg, EMPTY, "sma-nbo", 7)
        speeds = np.hypot(log.agent_states[:, :, 3], log.agent_states[:, :, 4])
        assert speeds.max() <= cfg.v_max + 1e-9

    def test_held_action_integrates_exactly(self):
        cfg = small_config(n_targets=2, duration=10.0)
        log = run_trial(cfg, EMPTY, "sma-nbo", 9)
        ratio = cfg.plan_ratio
        start = np.array([a.xy for a in start_agents(cfg)])
        prev = start
        for m in range(len(log.epoch_times)):
            held = log.epoch_policies[m, :, 0, :]
            for sub in range(ratio):
                k = m * ratio + sub
                expected = prev + held * cfg.dt_sense
                assert np.allclose(log.agent_states[k, :, :2], expected, atol=1e-9)
                assert np.allclose(log.agent_states[k, :, 3:5], held, atol=1e-12)
                prev = log.agent_states[k, :, :2]

    def test_logs_exactly_the_plans_the_planner_returns(self, monkeypatch):
        returned = []
        plan = trackplan.sim.sma_nbo_plan

        def recorded(*args, **kwargs):
            joint, stats = plan(*args, **kwargs)
            returned.append(joint.copy())
            return joint, stats

        monkeypatch.setattr(trackplan.sim, "sma_nbo_plan", recorded)
        cfg = small_config(
            duration=5.0, horizon=2, n_targets=2, n_agents=2, fov_edges=(20.0, 25.0),
            alphas=(0.1, 0.15),
        )
        log = run_trial(cfg, EMPTY, "sma-nbo", 9)
        assert len(returned) == 5
        assert np.array_equal(log.epoch_policies, np.stack(returned))

    def test_all_planners_run(self):
        cfg = small_config(
            duration=2.0, n_targets=1, n_agents=2, fov_edges=(20.0, 25.0),
            alphas=(0.1, 0.15), n_headings=4,
        )
        forest = generate_forest(10.0, 5.0, cfg.aoi, np.random.default_rng(0))
        for planner in ("sma-nbo", "sma-nbo-mwtp", "dec-pomdp", "mcr"):
            log = run_trial(cfg, forest, planner, 11, mcr_samples=3)
            assert len(log.epoch_times) == 2
