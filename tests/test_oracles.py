"""The reference implementations stay independent of the code they check."""
import ast
from pathlib import Path

import numpy as np

from trackplan.planning import mwtp_detailed

from mwtp_leaf import mwtp_leaf
from oracles import greedy_mwtp


def test_oracles_import_nothing_from_trackplan():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [m for m in imported if m.split(".")[0] in ("trackplan", "")]


def _penalty_instances():
    """Random matchings, half of them on an integer grid where distances and
    traces tie exactly; target counts run from zero to twice the sensors."""
    rng = np.random.default_rng(41)
    for k in range(400):
        n_sensors = int(rng.integers(1, 4))
        n_targets = int(rng.integers(0, 2 * n_sensors + 1))
        if k % 2:
            sensors = rng.integers(0, 8, (n_sensors, 2)) * 5.0
            targets = rng.integers(0, 8, (n_targets, 2)) * 5.0
            half_widths = rng.integers(1, 4, n_sensors) * 2.5
            traces = rng.integers(1, 4, n_targets) * 10.0
        else:
            sensors = rng.uniform(0, 100, (n_sensors, 2))
            targets = rng.uniform(0, 100, (n_targets, 2))
            half_widths = rng.uniform(5, 15, n_sensors)
            traces = rng.uniform(1, 100, n_targets)
        yield sensors, half_widths, targets, traces, float(rng.uniform(0.5, 2.0))
    # two and three sensors equidistant from the first target
    yield np.array([[40.0, 50.0], [60.0, 50.0]]), np.full(2, 5.0), np.array([[50.0, 50.0]]), np.ones(1), 1.0
    yield (
        np.array([[50.0, 40.0], [40.0, 50.0], [60.0, 50.0]]),
        np.full(3, 2.5),
        np.array([[50.0, 50.0], [50.0, 30.0], [70.0, 50.0], [30.0, 50.0]]),
        np.array([7.0, 7.0, 7.0, 3.0]),
        1.0,
    )


def test_greedy_mwtp_matches_mwtp_detailed_bit_for_bit():
    counts = {"tied traces": 0, "equidistant sensors": 0, "no targets": 0, "more targets": 0}
    for sensors, half_widths, targets, traces, beta in _penalty_instances():
        penalty, steps = mwtp_leaf(sensors, half_widths, targets, traces, beta)
        ref_penalty, ref_steps = greedy_mwtp(sensors, half_widths, targets, traces, beta)
        assert penalty == ref_penalty
        assert [
            (s.target_index, s.sensor_index, s.distance, s.contributed, s.sensor_after)
            for s in steps
        ] == ref_steps
        dists = np.linalg.norm(targets[:, None, :] - sensors[None, :, :], axis=-1)
        counts["tied traces"] += len(set(traces.tolist())) < len(traces)
        counts["equidistant sensors"] += any(len(set(row)) < len(row) for row in dists.tolist())
        counts["no targets"] += len(targets) == 0
        counts["more targets"] += len(targets) > len(sensors)
    assert min(counts.values()) >= 20, counts


def _penalty_blocks():
    """Random blocks of leaves, half of them on an integer grid where traces
    and distances tie exactly and targets can sit on a sensor. Each leaf
    leaves all, none or a random subset of the targets uncovered."""
    rng = np.random.default_rng(43)
    for k in range(300):
        n_leaves = int(rng.integers(1, 7))
        n_sensors = int(rng.integers(1, 4))
        n_targets = int(rng.integers(0, 2 * n_sensors + 1))
        if k % 2:
            sensors = rng.integers(0, 6, (n_leaves, n_sensors, 2)) * 5.0
            targets = rng.integers(0, 6, (n_targets, 2)) * 5.0
            half_widths = rng.integers(1, 4, n_sensors) * 2.5
            traces = rng.integers(1, 4, (n_leaves, n_targets)) * 10.0
        else:
            sensors = rng.uniform(0, 100, (n_leaves, n_sensors, 2))
            targets = rng.uniform(0, 100, (n_targets, 2))
            half_widths = rng.uniform(5, 15, n_sensors)
            traces = rng.uniform(1, 100, (n_leaves, n_targets))
        mode = rng.integers(0, 3, (n_leaves, 1))
        uncovered = (mode == 1) | ((mode == 2) & (rng.random((n_leaves, n_targets)) < 0.5))
        yield sensors, half_widths, targets, traces, uncovered, float(rng.uniform(0.5, 2.0))
    # one sensor on the first target: its accumulated distance stays 0.0, so
    # the guard lets it contribute again on the second target
    yield (
        np.array([[[10.0, 10.0], [90.0, 90.0]], [[30.0, 10.0], [90.0, 90.0]]]),
        np.full(2, 5.0),
        np.array([[10.0, 10.0], [30.0, 10.0], [50.0, 10.0]]),
        np.array([[9.0, 8.0, 1.0], [9.0, 8.0, 1.0]]),
        np.ones((2, 3), dtype=bool),
        1.0,
    )


def test_block_matching_matches_per_leaf_greedy_mwtp_bit_for_bit():
    counts = {
        "tied traces": 0,
        "equidistant sensors": 0,
        "covered leaves": 0,
        "all-uncovered leaves": 0,
        "one sensor": 0,
        "more targets": 0,
        "target on a sensor": 0,
    }
    for sensors, half_widths, targets, traces, uncovered, beta in _penalty_blocks():
        penalty, steps = mwtp_detailed(sensors, half_widths, targets, traces, uncovered, beta)
        for leaf, mask in enumerate(uncovered):
            idx = np.flatnonzero(mask)
            ref_penalty, ref_steps = greedy_mwtp(
                sensors[leaf], half_widths, targets[idx], traces[leaf, idx], beta
            )
            assert penalty[leaf] == ref_penalty
            assert [
                (int(t[leaf]), int(i[leaf]), float(d[leaf]), bool(c[leaf]), tuple(a[leaf].tolist()))
                for t, i, d, c, a in steps[: len(idx)]
            ] == [(int(idx[t]), i, d, c, after) for t, i, d, c, after in ref_steps]
            # past its uncovered targets a leaf contributes nothing and moves no sensor
            final = [tuple(xy) for xy in sensors[leaf].tolist()]
            for _, i, _, _, after in ref_steps:
                final[i] = after
            for _, i, _, c, a in steps[len(idx) :]:
                assert not c[leaf] and tuple(a[leaf].tolist()) == final[i[leaf]]
            dists = np.linalg.norm(targets[idx, None, :] - sensors[leaf, None, :, :], axis=-1)
            counts["tied traces"] += len(set(traces[leaf, idx].tolist())) < len(idx)
            counts["equidistant sensors"] += any(len(set(r)) < len(r) for r in dists.tolist())
            counts["covered leaves"] += len(idx) == 0 < len(targets)
            counts["all-uncovered leaves"] += 0 < len(idx) == len(targets)
            counts["one sensor"] += len(idx) > 0 and len(sensors[leaf]) == 1
            counts["more targets"] += len(idx) > len(sensors[leaf])
            counts["target on a sensor"] += bool((dists == 0.0).any())
    assert min(counts.values()) >= 20, counts
