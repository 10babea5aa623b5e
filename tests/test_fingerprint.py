"""Smoke test of tests/fingerprint.py, the behaviour check run on every change."""
import importlib.util
from pathlib import Path

from trackplan.sim import PLANNERS


def _fingerprint_module():
    path = Path(__file__).with_name("fingerprint.py")
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trial_lines_do_not_depend_on_what_ran_before():
    # one H1 trial per planner on one map, then the same trials in reverse
    # order in the same process: the kernel's workspace carries nothing
    # from one plan or trial to the next
    fingerprint = _fingerprint_module()
    trials = [(planner, 1, 3) for planner in PLANNERS]
    first = list(fingerprint.trial_lines(trials, n_maps=1))
    again = list(fingerprint.trial_lines(trials[::-1], n_maps=1))
    assert len(first) == len(PLANNERS)
    assert all(line.startswith("trial map0 ") for line in first)
    assert again[::-1] == first
