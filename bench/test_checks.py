"""Each benchmark check passes on real output and fails on a corrupted copy.

Run from the root of a checkout (not part of the tier-1 suite):

    python -m pytest bench/test_checks.py -q
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mwtp_trial():
    w = workloads.TrialWorkload("sma-nbo-mwtp", 3, scenarios=1, duration=3.0, optimality_checks=1)
    (case,) = w.make_inputs(seed=7, out_dir=None)
    rnd = w.run([case])
    (trial,) = rnd.trials
    assert trial.error is None, trial.error
    return w, case, trial.log


def _corrupt(log, name: str, edit):
    arrays = {n: np.array(getattr(log, n)) for n in ("truth", "est_mean", "est_trace", "ospa",
                                                     "agent_states", "epoch_policies", "epoch_rollout_evals")}
    edit(arrays[name])
    return replace(log, **arrays)


def _check(w, case, log, optimality=False):
    checks.check_trial(log, case.config, case.forest, case.trajectories, w.planner, optimality=optimality)


def test_real_trial_passes_every_check(mwtp_trial):
    w, case, log = mwtp_trial
    _check(w, case, log, optimality=True)
    checks.check_same_log(log, log)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("ospa", lambda a: a.__setitem__(5, a[5] + 1e-3), "brute force"),
        ("ospa", lambda a: a.__setitem__(0, 51.0), "outside"),
        ("est_mean", lambda a: a.__setitem__((4, 1, 0), a[4, 1, 0] + 0.5), "brute force"),
        ("truth", lambda a: a.__setitem__((2, 0, 1), a[2, 0, 1] + 1e-6), "logged truth"),
        ("est_trace", lambda a: a.__setitem__((3, 1), np.nan), "non-finite"),
        ("est_trace", lambda a: a.__setitem__((3, 1), -1.0), "non-positive"),
        ("epoch_rollout_evals", lambda a: a.__setitem__(1, a[1] - 1), "rollouts"),
        ("epoch_policies", lambda a: a.__setitem__((1, 0, 0), (1.0, 1.0)), "action set"),
        ("agent_states", lambda a: a.__setitem__((4, 2, 0), a[4, 2, 0] + 1e-9), "held action"),
        ("agent_states", lambda a: a.__setitem__((7, 0, 3), 0.0 if a[7, 0, 3] else 5.0), "held action"),
    ],
)
def test_corrupted_trial_fails(mwtp_trial, name, edit, message):
    w, case, log = mwtp_trial
    with pytest.raises(checks.CheckError, match=message):
        _check(w, case, _corrupt(log, name, edit))


def test_repeated_trial_must_match_first(mwtp_trial):
    _, _, log = mwtp_trial
    bad = _corrupt(log, "est_trace", lambda a: a.__setitem__((0, 0), a[0, 0] * (1 + 1e-15) + 1e-12))
    with pytest.raises(checks.CheckError, match="differs from its first run"):
        checks.check_same_log(bad, log)


def test_suboptimal_first_epoch_fails(mwtp_trial):
    w, case, log = mwtp_trial
    config = case.config
    actions = checks.expected_actions(config.v_max, config.n_headings, config.n_speeds)
    starts = checks.initial_agent_xy(config)
    targets = [tuple(t.samples[0, :2]) for t in case.trajectories]
    hover = [[xy] * config.horizon for xy in starts]
    costs = checks.stage_costs(config, case.forest.disks, targets, starts[0], hover, 0, actions)
    assert costs.max() > costs.min()
    worst = np.unravel_index(int(np.argmax(costs)), (len(actions),) * config.horizon)
    bad = _corrupt(log, "epoch_policies", lambda a: a.__setitem__((0, 0), actions[list(worst)]))
    with pytest.raises(checks.CheckError, match="stage 0"):
        checks.check_epoch0_optimal(bad, config, case.forest, case.trajectories)


def test_dec_pomdp_eval_count_uses_joint_space():
    checks.check_rollout_evals(np.array([3 * 9**3]), "dec-pomdp", 3, 9, 1)
    with pytest.raises(checks.CheckError):
        checks.check_rollout_evals(np.array([3 * 9]), "dec-pomdp", 3, 9, 1)


def test_terminal_penalty_by_hand():
    # the higher-trace target takes the nearer sensor; the other sensor gets the rest
    value = checks.greedy_terminal_penalty(
        [(20.0, 0.0), (0.0, 10.0)], [5.0, 5.0], [(0.0, 25.0), (40.0, 5.0)], [100.0, 50.0], 1.0
    )
    assert value == pytest.approx(15.0 * 100.0 + 425.0**0.5 * 50.0, abs=1e-9)
    # a sensor contributes only on its first match
    assert checks.greedy_terminal_penalty([(0.0, 0.0)], [5.0], [(10.0, 0.0), (20.0, 0.0)], [10.0, 5.0], 1.0) == 100.0


# ---------------------------------------------------------------------------
# Batch artifacts
# ---------------------------------------------------------------------------


@pytest.fixture()
def batch_run(tmp_path):
    w = workloads.BatchWorkload("sma-nbo", 1, lambdas=(30.0,), n_maps=2, duration=2.0)
    (spec,) = w.make_inputs(seed=3, out_dir=tmp_path / "out")
    rnd = w.run([spec])
    assert not rnd.raised, rnd.raised
    return w, spec, rnd, Path(spec.out_dir)


def _checked(w, spec, rnd) -> int:
    """Failed trials of the sweep as the benchmark counts them (artifacts are removed)."""
    w.check([spec], rnd)
    return rnd.failed


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="ascii")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="ascii")


def _first_data_value(path: Path, column: str) -> str:
    return checks.read_csv(path)[0][column]


def test_real_batch_passes(batch_run):
    w, spec, rnd, _ = batch_run
    assert _checked(w, spec, rnd) == 0, rnd.check_failures
    assert rnd.bytes_written > 0


def test_summary_mean_must_match_trial_csv(batch_run):
    w, spec, rnd, out = batch_run
    summary = out / "summary.csv"
    _rewrite(summary, _first_data_value(summary, "mean_ospa"), "123.456")
    assert _checked(w, spec, rnd) == 1
    assert "mean_ospa" in rnd.check_failures[0]


def test_map_must_reload_to_generated_forest(batch_run):
    w, spec, rnd, out = batch_run
    map_file = out / "maps" / "lam30_r5" / "map001.txt"
    lines = map_file.read_text(encoding="ascii").splitlines()
    lines[1] = "1.000000 1.000000 5.000000"
    map_file.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert _checked(w, spec, rnd) == 1
    assert "map 1" in rnd.check_failures[0]


def test_effective_config_must_reparse_to_spec(batch_run):
    w, spec, rnd, out = batch_run
    _rewrite(out / "effective_config.ini", "beta = 1.0", "beta = 2.0")
    assert _checked(w, spec, rnd) == w.trials
    assert "re-parses" in rnd.check_failures[0]


def test_trial_csv_ospa_must_match_brute_force(batch_run):
    w, spec, rnd, out = batch_run
    trial = out / "trials" / "lam30_r5" / "sma-nbo_H1_map000.csv"
    lines = trial.read_text(encoding="ascii").splitlines()
    first_t = lines[1].split(",")[0]
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == first_t:
            fields[-1] = repr(float(fields[-1]) + 0.01)
            lines[i] = ",".join(fields)
    trial.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert _checked(w, spec, rnd) == 1
    assert "brute force" in rnd.check_failures[0]


def test_epoch_csv_action_must_be_in_set(batch_run):
    w, spec, rnd, out = batch_run
    epochs = out / "trials" / "lam30_r5" / "sma-nbo_H1_map000_epochs.csv"
    lines = epochs.read_text(encoding="ascii").splitlines()
    epoch, agent, _, _, plan_ms = lines[1].split(",")
    lines[1] = ",".join((epoch, agent, "1.5", "0", plan_ms))
    epochs.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert _checked(w, spec, rnd) == 1
    assert "action set" in rnd.check_failures[0]
