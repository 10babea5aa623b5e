"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The trend-reproduction criterion runs 40 full 60-second trials and
dominates the suite's runtime.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from trackplan import (
    AgentState,
    Aoi,
    FleetBelief,
    OcclusionForest,
    OspaParams,
    PolicySeq,
    ScenarioConfig,
    TargetTrack,
    TargetTrajectory,
    action_set,
    dec_pomdp_plan,
    extend_intent,
    generate_forest,
    mcr_plan,
    ncv_model,
    observation_covariance,
    ospa,
    predict,
    rollout_cost,
    run_trial,
    sma_nbo_plan,
    update,
)
from trackplan.cli import ExperimentSpec, run_experiment, write_trial_csv
from trackplan.planning import mwtp_detailed
from trackplan.sensing import Observation

from oracles import kalman_update_cov


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {name}: {verdict}{suffix}")


def _perm_cache():
    cache = {}

    def perms(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = np.array(list(itertools.permutations(range(b), a)), dtype=int)
        return cache[(a, b)]

    return perms


def test_criterion_1_ospa_matches_brute_force():
    rng = np.random.default_rng(101)
    params = OspaParams(c=50.0, p=2.0)
    perms = _perm_cache()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        na, nb = rng.integers(0, 7, size=2)
        x = rng.uniform(0.0, 120.0, (na, 2))
        y = rng.uniform(0.0, 120.0, (nb, 2))
        got = ospa(x, y, params)
        small, big = (x, y) if na <= nb else (y, x)
        a, b = len(small), len(big)
        if b == 0:
            expected = 0.0
        elif a == 0:
            expected = 50.0
        else:
            d = np.minimum(
                np.linalg.norm(small[:, None, :] - big[None, :, :], axis=-1), 50.0
            ) ** 2
            costs = d[np.arange(a)[None, :], perms(a, b)].sum(axis=1)
            expected = float(((costs.min() + 50.0**2 * (b - a)) / b) ** 0.5)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "OSPA equals brute-force assignment", ok, f"max err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_rollout_matches_direct_filter_step():
    rng = np.random.default_rng(102)
    model = ncv_model(1.0, 1.0)
    actions = action_set(5.0, 8, 1)
    worst = 0.0
    for _ in range(100):
        agent = AgentState(
            px=rng.uniform(0, 150),
            py=rng.uniform(0, 100),
            fov_edge=rng.uniform(15, 30),
            alpha=rng.uniform(0.05, 0.2),
        )
        track = TargetTrack(
            target_id=0,
            xi=np.array(
                [rng.uniform(0, 150), rng.uniform(0, 100), rng.uniform(-3, 3), rng.uniform(-3, 3)]
            ),
            P=np.diag(rng.uniform(1, 30, 4)),
        )
        forest = generate_forest(8.0, 5.0, Aoi(150, 100), rng)
        belief = FleetBelief(tracks=(track,), agents=(agent,))
        act = actions[rng.integers(len(actions))]
        got = rollout_cost(belief, [PolicySeq(0, (act,))], forest, model, 1).cost
        # independent path: one explicit predict, then one covariance update
        moved = replace(agent, px=agent.px + act.ux * model.dt, py=agent.py + act.uy * model.dt)
        pred = predict(track, model)
        pos = (float(pred.xi[0]), float(pred.xi[1]))
        p = pred.P
        visible = (
            abs(pos[0] - moved.px) <= moved.half_width
            and abs(pos[1] - moved.py) <= moved.half_width
            and not forest.occludes(*pos)
        )
        if visible:
            p = kalman_update_cov(p, observation_covariance(moved, pos))
        worst = max(worst, abs(got - float(np.trace(p))))
    ok = worst <= 1e-9
    _report(2, "single-step rollout equals Kalman step", ok, f"max err {worst:.2e}")
    assert ok


def test_criterion_3_filter_psd_and_trace_contraction():
    rng = np.random.default_rng(103)
    model = ncv_model(0.2, 1.0)
    ok = True
    for _ in range(10_000):
        a = rng.standard_normal((4, 4))
        track = TargetTrack(
            target_id=0, xi=rng.standard_normal(4) * 10, P=a @ a.T + 0.1 * np.eye(4)
        )
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.5:
                track = predict(track, model)
            else:
                b = rng.standard_normal((2, 2))
                r = b @ b.T + 0.05 * np.eye(2)
                before = track.trace
                track = update(
                    track, Observation(target_id=0, z=rng.standard_normal(2) * 5, R=r)
                )
                ok &= track.trace <= before + 1e-9
            ok &= bool(np.allclose(track.P, track.P.T, atol=1e-9))
            ok &= float(np.linalg.eigvalsh(track.P).min()) >= -1e-9
        if not ok:
            break
    _report(3, "filter keeps covariances symmetric PSD", ok)
    assert ok


def test_criterion_4_mwtp_matches_hand_executed_algorithm():
    # crossed matching: the higher-trace target takes the nearer sensor
    # (sensor 2), leaving sensor 1 to the remaining target
    j, steps = mwtp_detailed(
        sensor_xy=np.array([[20.0, 0.0], [0.0, 10.0]]),
        half_widths=np.array([5.0, 5.0]),
        target_xy=np.array([[0.0, 25.0], [40.0, 5.0]]),
        traces=np.array([100.0, 50.0]),
        beta=1.0,
    )
    crossed_ok = (
        [s.target_index for s in steps] == [0, 1]
        and [s.sensor_index for s in steps] == [1, 0]
        and [s.contributed for s in steps] == [True, True]
        and steps[0].distance == pytest.approx(15.0, abs=1e-12)
        and steps[0].sensor_after == (0.0, 20.0)
        and steps[1].distance == pytest.approx(math.sqrt(425.0), abs=1e-12)
        and steps[1].sensor_after == (35.0, 0.0)
        and j == pytest.approx(15.0 * 100.0 + math.sqrt(425.0) * 50.0, abs=1e-9)
    )
    # single sensor, two targets: the guard blocks the second contribution
    # but distance still accumulates and the sensor is repositioned twice
    j2, steps2 = mwtp_detailed(
        sensor_xy=np.array([[0.0, 0.0]]),
        half_widths=np.array([5.0]),
        target_xy=np.array([[10.0, 0.0], [20.0, 0.0]]),
        traces=np.array([10.0, 5.0]),
        beta=1.0,
    )
    guard_ok = (
        j2 == pytest.approx(100.0, abs=1e-12)
        and [s.contributed for s in steps2] == [True, False]
        and steps2[0].sensor_after == (5.0, 0.0)
        and steps2[1].distance == pytest.approx(15.0, abs=1e-12)
        and steps2[1].sensor_after == (15.0, 0.0)
    )
    # sort order on a three-target instance
    _, steps3 = mwtp_detailed(
        sensor_xy=np.array([[0.0, 0.0]]),
        half_widths=np.array([5.0]),
        target_xy=np.array([[10.0, 0.0], [11.0, 0.0], [12.0, 0.0]]),
        traces=np.array([5.0, 50.0, 20.0]),
        beta=1.0,
    )
    sort_ok = [s.target_index for s in steps3] == [1, 2, 0]
    ok = crossed_ok and guard_ok and sort_ok
    _report(4, "terminal penalty follows the matching algorithm", ok)
    assert crossed_ok
    assert guard_ok
    assert sort_ok


def _random_epoch(rng, n_agents, n_targets, h, n_headings=8):
    aoi = Aoi(150.0, 100.0)
    forest = generate_forest(15.0, 5.0, aoi, rng)
    agents = tuple(
        AgentState(
            px=rng.uniform(10, 140),
            py=rng.uniform(10, 90),
            fov_edge=rng.uniform(15, 30),
            alpha=rng.uniform(0.05, 0.2),
        )
        for _ in range(n_agents)
    )
    tracks = tuple(
        TargetTrack(
            target_id=t,
            xi=np.array(
                [rng.uniform(10, 140), rng.uniform(10, 90), rng.uniform(-2, 2), rng.uniform(-2, 2)]
            ),
            P=np.diag(rng.uniform(1, 40, 4)),
        )
        for t in range(n_targets)
    )
    actions = action_set(5.0, n_headings, 1)
    belief = FleetBelief(tracks=tracks, agents=agents)
    prev = [
        PolicySeq(i, tuple(actions[rng.integers(len(actions))] for _ in range(h)))
        for i in range(n_agents)
    ]
    return belief, forest, extend_intent(prev, h, n_agents), actions


def test_criterion_5_sweep_objective_is_monotone():
    rng = np.random.default_rng(105)
    model = ncv_model(1.0, 1.0)
    ok = True
    for _ in range(100):
        n_agents = int(rng.integers(2, 4))
        h = int(rng.integers(1, 3))
        belief, forest, intents, actions = _random_epoch(rng, n_agents, 3, h)
        hectg = "mwtp" if rng.random() < 0.5 else "none"
        _, stats = sma_nbo_plan(belief, intents, h, actions, forest, model, hectg=hectg)
        chain = [stats.stage_incumbent_costs[0]]
        for inc, best in zip(stats.stage_incumbent_costs, stats.stage_best_costs):
            ok &= best <= inc + 1e-9
            chain.append(best)
        ok &= all(b <= a + 1e-9 for a, b in zip(chain, chain[1:]))
        if not ok:
            break
    _report(5, "sweep objective never increases stage to stage", ok)
    assert ok


def test_criterion_6_rollout_counts_exact():
    rng = np.random.default_rng(106)
    model = ncv_model(1.0, 1.0)
    ok = True
    details = []
    for n_agents in (1, 2, 3):
        for h in (1, 2):
            for n_headings in (2, 4):  # |A| = 3 and 5 with the hover action
                belief, forest, intents, actions = _random_epoch(
                    rng, n_agents, 2, h, n_headings=n_headings
                )
                n_act = len(actions)
                _, sweep_stats = sma_nbo_plan(belief, intents, h, actions, forest, model)
                sweep_ok = sweep_stats.rollout_evals == n_agents * n_act**h
                _, joint_stats = dec_pomdp_plan(belief, h, actions, forest, model)
                joint_ok = joint_stats.per_agent_evals == (n_act ** (n_agents * h),) * n_agents
                ok &= sweep_ok and joint_ok
                details.append(
                    f"n={n_agents},H={h},|A|={n_act}: sweep {sweep_stats.rollout_evals}, "
                    f"joint/agent {joint_stats.per_agent_evals[0]}"
                )
    _report(6, "rollout counters match the complexity formulas", ok)
    assert ok, details


def test_criterion_7_sampled_planner_degenerates_to_nominal():
    rng = np.random.default_rng(107)
    model = ncv_model(1.0, 0.0)  # sigma_a = 0
    actions = action_set(5.0, 4, 1)
    ok = True
    for _ in range(50):
        n_agents = int(rng.integers(1, 3))
        agents = tuple(
            AgentState(px=rng.uniform(10, 140), py=rng.uniform(10, 90))
            for _ in range(n_agents)
        )
        tracks = tuple(
            TargetTrack(
                target_id=t,
                xi=np.array(
                    [
                        rng.uniform(10, 140),
                        rng.uniform(10, 90),
                        rng.uniform(-2, 2),
                        rng.uniform(-2, 2),
                    ]
                ),
                P=np.zeros((4, 4)),  # zero initial covariance
            )
            for t in range(2)
        )
        belief = FleetBelief(tracks=tracks, agents=agents)
        forest = generate_forest(10.0, 5.0, Aoi(150, 100), rng)
        h = int(rng.integers(1, 3))
        prev = [
            PolicySeq(i, tuple(actions[rng.integers(len(actions))] for _ in range(h)))
            for i in range(n_agents)
        ]
        intents = extend_intent(prev, h, n_agents)
        joint_mcr, _ = mcr_plan(
            belief, h, 10, np.random.default_rng(rng.integers(1 << 31)), intents,
            actions, forest, model,
        )
        joint_nom, _ = sma_nbo_plan(belief, intents, h, actions, forest, model)
        ok &= joint_mcr == joint_nom
        if not ok:
            break
    _report(7, "degenerate sampling reproduces nominal decisions", ok)
    assert ok


def _paper_config(h):
    return ScenarioConfig(
        lam=45.0,
        tree_radius=5.0,
        n_agents=3,
        fov_edges=(20.0, 25.0, 22.0),
        alphas=(0.1, 0.15, 0.12),
        v_max=5.0,
        horizon=h,
        duration=60.0,
        n_targets=4,
        ospa_c=50.0,
        ospa_p=2.0,
        seed=0,
    )


@pytest.mark.slow
def test_criterion_8_desk_scale_trends():
    start = time.perf_counter()
    variants = {
        "sma_h1": ("sma-nbo", 1),
        "sma_h3": ("sma-nbo", 3),
        "mwtp_h1": ("sma-nbo-mwtp", 1),
        "mcr_h3": ("mcr", 3),
    }
    mean_ospa = {k: [] for k in variants}
    epoch_seconds = {k: [] for k in variants}
    for mi in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([0, 0, 0, mi]))
        forest = generate_forest(45.0, 5.0, _paper_config(1).aoi, rng, seed=mi)
        trial_ss = np.random.SeedSequence([0, 1, 0, mi])
        for key, (planner, h) in variants.items():
            log = run_trial(_paper_config(h), forest, planner, trial_ss, mcr_samples=50)
            mean_ospa[key].append(float(np.mean(log.ospa)))
            epoch_seconds[key].extend(log.epoch_plan_seconds.tolist())
    means = {k: float(np.mean(v)) for k, v in mean_ospa.items()}
    t_mcr = float(np.mean(epoch_seconds["mcr_h3"]))
    t_sma = float(np.mean(epoch_seconds["sma_h3"]))
    trend_a = means["sma_h3"] < means["sma_h1"]
    trend_b = means["mwtp_h1"] < means["sma_h1"]
    trend_c = t_mcr >= 2.0 * t_sma
    elapsed = time.perf_counter() - start
    _report(
        8,
        "ten-map trends (horizon, penalty, sampling cost)",
        trend_a and trend_b and trend_c,
        f"a: {means['sma_h3']:.2f}<{means['sma_h1']:.2f} {trend_a}; "
        f"b: {means['mwtp_h1']:.2f}<{means['sma_h1']:.2f} {trend_b}; "
        f"c: {t_mcr*1000:.0f}ms>=2x{t_sma*1000:.0f}ms {trend_c}; "
        f"{elapsed/60:.1f} min",
    )
    assert trend_a, means
    assert trend_b, means
    assert trend_c, (t_mcr, t_sma)


def test_criterion_9_trials_and_experiments_are_reproducible(tmp_path):
    cfg = replace(_paper_config(1), duration=10.0, n_targets=2)
    forest = generate_forest(15.0, 5.0, cfg.aoi, np.random.default_rng(9), seed=0)
    log_a = run_trial(cfg, forest, "sma-nbo", 33)
    log_b = run_trial(cfg, forest, "sma-nbo", 33)
    trial_ok = log_a.deterministic_equal(log_b)
    write_trial_csv(log_a, tmp_path / "a.csv")
    write_trial_csv(log_b, tmp_path / "b.csv")
    trial_ok &= (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    base = ScenarioConfig(duration=3.0, n_targets=2, lam=10.0, seed=5)
    outs = []
    for name, workers in (("e1", 1), ("e2", 1), ("e3", 3)):
        spec = ExperimentSpec(
            base=base,
            planners=("sma-nbo", "sma-nbo-mwtp"),
            horizons=(1,),
            lambdas=(10.0,),
            radii=(5.0,),
            n_maps=2,
            out_dir=str(tmp_path / name),
            workers=workers,
        )
        outs.append(run_experiment(spec).joinpath("summary.csv").read_bytes())
    experiment_ok = outs[0] == outs[1] == outs[2]
    ok = trial_ok and experiment_ok
    _report(9, "bit-identical replays and summaries", ok)
    assert trial_ok
    assert experiment_ok


def _scripted_crossing(duration, dt):
    n = round(duration / dt)
    t = np.arange(n + 1)[:, None] * dt
    pos = np.array([55.0, 50.0]) + t * np.array([2.0, 0.0])
    vel = np.tile(np.array([2.0, 0.0]), (n + 1, 1))
    return TargetTrajectory(target_id=0, dt=dt, samples=np.hstack([pos, vel]))


def test_criterion_10_occlusion_recovery_and_horizon_benefit():
    forest = OcclusionForest(disks=((75.0, 50.0, 10.0),))
    duration = 30.0
    traj = _scripted_crossing(duration, 0.2)

    def config(h):
        return ScenarioConfig(
            lam=0.0,
            tree_radius=5.0,
            n_agents=1,
            fov_edges=(20.0,),
            alphas=(0.1,),
            horizon=h,
            duration=duration,
            n_targets=1,
            sigma_a=1.0,
            seed=0,
        )

    logs = {
        h: run_trial(config(h), forest, "sma-nbo", 77, trajectories=[traj]) for h in (1, 5)
    }

    # trace rises strictly through the occluded stretch, for both horizons
    trace_ok = True
    for log in logs.values():
        occluded = np.array(
            [forest.occludes(*log.truth[k, 0, :2]) for k in range(len(log.times))]
        )
        inside = np.where(occluded)[0]
        trace = log.est_trace[:, 0]
        trace_ok &= len(inside) > 0
        trace_ok &= all(trace[k] > trace[k - 1] for k in inside[1:])

    def reacquired_step(log):
        occluded = np.array(
            [forest.occludes(*log.truth[k, 0, :2]) for k in range(len(log.times))]
        )
        last_occ = np.where(occluded)[0][-1]
        below = np.where((np.arange(len(log.ospa)) > last_occ) & (log.ospa < 1.0))[0]
        return int(below[0]) if len(below) else len(log.ospa) + 1

    # the deep lookahead drops the trace at its re-acquisition step
    log5 = logs[5]
    occluded5 = np.array(
        [forest.occludes(*log5.truth[k, 0, :2]) for k in range(len(log5.times))]
    )
    last_occ = np.where(occluded5)[0][-1]
    reacq5 = reacquired_step(log5)
    drop_ok = reacq5 <= len(log5.ospa) and log5.est_trace[reacq5, 0] < np.max(
        log5.est_trace[last_occ : reacq5 + 1, 0]
    )

    step5, step1 = reacquired_step(logs[5]), reacquired_step(logs[1])
    horizon_ok = step5 <= step1
    ok = trace_ok and drop_ok and horizon_ok
    _report(
        10,
        "occluded target recovery, deep lookahead first",
        ok,
        f"reacquire H5 at step {step5}, H1 at step {step1}",
    )
    assert trace_ok
    assert drop_ok
    assert horizon_ok
