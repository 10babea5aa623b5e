import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trackplan
from trackplan import OspaParams, ecdf, ospa
from trackplan import metrics
from trackplan.metrics import _assign, ospa_bytes

from oracles import ospa_brute

P50 = OspaParams(c=50.0, p=2.0)


class TestOspa:
    def test_identical_singletons(self):
        assert ospa([(0.0, 0.0)], [(0.0, 0.0)], P50) == 0.0

    def test_empty_versus_singleton_is_cutoff(self):
        assert ospa(np.empty((0, 2)), [(0.0, 0.0)], P50) == pytest.approx(50.0)

    def test_both_empty(self):
        assert ospa(np.empty((0, 2)), np.empty((0, 2)), P50) == 0.0

    def test_permuted_sets_match_exactly(self):
        x = [(0.0, 0.0), (10.0, 0.0)]
        y = [(10.0, 0.0), (0.0, 0.0)]
        assert ospa(x, y, P50) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            nx, ny = rng.integers(0, 7, size=2)
            x = rng.uniform(0, 100, (nx, 2))
            y = rng.uniform(0, 100, (ny, 2))
            assert ospa(x, y, P50) == pytest.approx(ospa_brute(x, y, 50.0, 2.0), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(0, 100, (rng.integers(0, 5), 2))
            y = rng.uniform(0, 100, (rng.integers(0, 5), 2))
            assert ospa(x, y, P50) == pytest.approx(ospa(y, x, P50), abs=1e-12)

    def test_bounded_by_cutoff(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(0, 1000, (rng.integers(0, 5), 2))
            y = rng.uniform(0, 1000, (rng.integers(0, 5), 2))
            assert 0.0 <= ospa(x, y, P50) <= 50.0 + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        triples = {}  # the same 10,000 random triples, stacked by their three sizes
        for _ in range(10_000):
            sets = [rng.uniform(0, 120, (rng.integers(0, 5), 2)) for _ in range(3)]
            triples.setdefault(tuple(len(s) for s in sets), []).append(sets)
        for group in triples.values():
            x, y, z = (np.array(stack).reshape(len(group), -1, 2) for stack in zip(*group))
            assert np.all(ospa(x, z, P50) <= ospa(x, y, P50) + ospa(y, z, P50) + 1e-9)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OspaParams(c=0.0, p=2.0)
        with pytest.raises(ValueError):
            OspaParams(c=50.0, p=0.5)

    @pytest.mark.parametrize("field", ["c", "p"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"OspaParams\.{field}\b"):
            OspaParams(**{field: value})

    def test_nan_coordinate_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            ospa([(0.0, np.nan)], [(0.0, 1.0)], P50)
        with pytest.raises(ValueError, match="NaN"):
            ospa([(0.0, np.nan)], np.empty((0, 2)), P50)
        with pytest.raises(ValueError, match="inf - inf"):
            ospa([(np.inf, 0.0)], [(np.inf, 0.0)], P50)
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ospa(stack, np.ones((3, 2, 2)), P50)
        with pytest.raises(ValueError, match="NaN"):
            ospa(np.ones((3, 2, 2)), stack, P50)

    def test_infinite_coordinate_saturates_at_cutoff(self):
        assert ospa([(np.inf, 0.0)], [(0.0, 1.0)], P50) == 50.0
        got = ospa(np.array([[[np.inf, 0.0]], [[0.0, 1.0]]]), np.array([[[0.0, 1.0]]] * 2), P50)
        assert got.tolist() == [50.0, 0.0]


def brute_series(x, y, params=P50):
    return np.array([ospa_brute(a, b, params.c, params.p) for a, b in zip(x, y)])


class TestStackedOspa:
    """A (K, n, 2) stack against (K, m, 2) scores every pair in one call."""

    @pytest.mark.parametrize("nx, ny", [(4, 4), (2, 5), (5, 2), (1, 6), (6, 1), (3, 3)])
    def test_random_sets_match_brute_force(self, nx, ny):
        rng = np.random.default_rng(nx * 10 + ny)
        x = rng.uniform(0, 100, (40, nx, 2))
        y = rng.uniform(0, 100, (40, ny, 2))
        got = ospa(x, y, P50)
        assert got.shape == (40,)
        np.testing.assert_allclose(got, brute_series(x, y), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.0])
    def test_stack_equals_pairs_bit_for_bit(self, p):
        rng = np.random.default_rng(7)
        params = OspaParams(c=50.0, p=p)
        for nx, ny in [(4, 4), (3, 6), (6, 3), (9, 9)]:
            x = rng.uniform(0, 120, (25, nx, 2))
            y = rng.uniform(0, 120, (25, ny, 2))
            pairs = [ospa(a, b, params) for a, b in zip(x, y)]
            assert ospa(x, y, params).tolist() == pairs

    @pytest.mark.parametrize("nx, ny", [(0, 0), (0, 3), (3, 0)])
    def test_empty_sets(self, nx, ny):
        got = ospa(np.zeros((5, nx, 2)), np.zeros((5, ny, 2)), P50)
        expected = 0.0 if nx == ny == 0 else 50.0
        assert got.tolist() == [expected] * 5

    def test_empty_stack(self):
        got = ospa(np.zeros((0, 4, 2)), np.zeros((0, 4, 2)), P50)
        assert got.shape == (0,)

    def test_saturated_at_cutoff(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, (20, 4, 2))
        y = x + np.array([1000.0, 0.0]) + rng.uniform(0, 10, (20, 4, 2))
        got = ospa(x, y, P50)
        assert got.tolist() == [50.0] * 20
        np.testing.assert_allclose(got, brute_series(x, y), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nx, ny", [(4, 4), (3, 5), (5, 3)])
    def test_integer_grid_ties_match_brute_force(self, nx, ny):
        rng = np.random.default_rng(nx + 7 * ny)
        x = rng.integers(0, 3, (60, nx, 2)).astype(float)
        y = rng.integers(0, 3, (60, ny, 2)).astype(float)
        for params in (P50, OspaParams(c=1.0, p=1.0)):
            expected = brute_series(x, y, params)
            np.testing.assert_allclose(ospa(x, y, params), expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "k, nx, ny",
        [(1, 1, 1), (3000, 1, 1), (300, 2, 2), (300, 4, 3), (300, 3, 4), (1000, 6, 6),
         (2, 300, 300)],
    )
    def test_peak_stays_within_ospa_bytes(self, k, nx, ny):
        # ScenarioConfig bounds a trial's OSPA stack by ospa_bytes
        rng = np.random.default_rng(k + nx)
        x = rng.uniform(0, 100, (k, nx, 2))
        y = rng.uniform(0, 100, (k, ny, 2))
        tracemalloc.start()
        try:
            ospa(x, y, P50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= ospa_bytes(k, nx, ny)

    @pytest.mark.parametrize("k, nx, ny", [(203, 3, 4), (60, 5, 7), (40, 0, 3), (0, 2, 2)])
    def test_chunks_change_no_distance(self, monkeypatch, k, nx, ny):
        # each step's assignment is its own: scored 5 steps, 1 step or every
        # step at a time, a step's distance keeps its bits
        rng = np.random.default_rng(k + nx)
        x = rng.uniform(0, 100, (k, nx, 2))
        y = rng.uniform(0, 100, (k, ny, 2))
        whole = ospa(x, y, P50)
        monkeypatch.setattr(metrics, "OSPA_PAIRS", 64)
        tracemalloc.start()
        try:
            chunked = ospa(x, y, P50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunked.shape == (k,)
        assert np.array_equal(chunked, whole)
        assert peak <= ospa_bytes(k, nx, ny)

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(ValueError, match="stacks"):
            ospa(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)), P50)
        with pytest.raises(ValueError, match="stacks"):
            ospa(np.zeros((3, 2, 2)), np.zeros((2, 2)), P50)
        with pytest.raises(ValueError, match="stacks"):
            ospa(np.zeros((3, 2, 3)), np.zeros((3, 2, 3)), P50)


class TestAssignAgainstScipy:
    def test_same_columns_as_linear_sum_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        checked = 0
        for trial in range(600):
            nr = int(rng.integers(1, 11))
            nc = int(rng.integers(nr, 11))
            shape = (3, nr, nc)
            if trial % 3 == 0:
                cost = rng.uniform(0, 10, shape)
            elif trial % 3 == 1:  # small integers: many exact ties
                cost = rng.integers(0, 4, shape).astype(float)
            else:  # two values only, constant rows and columns included
                cost = np.where(rng.uniform(size=shape) < 0.3, 1.0, 2.0)
            cols = _assign(cost)
            for k in range(len(cost)):
                rows, expected = optimize.linear_sum_assignment(cost[k])
                assert rows.tolist() == list(range(nr))
                assert cols[k].tolist() == expected.tolist(), (trial, cost[k])
                checked += 1
        assert checked >= 1000


    @pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.0])
    def test_ospa_bit_identical_to_scipy_reference(self, p):
        optimize = pytest.importorskip("scipy.optimize")
        params = OspaParams(c=50.0, p=p)

        def reference(x, y):
            d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
            cost = np.minimum(d, params.c) ** params.p
            rows, cols = optimize.linear_sum_assignment(cost)
            total = cost[rows, cols].sum() + params.c**params.p * abs(len(x) - len(y))
            return float((total / max(len(x), len(y))) ** (1.0 / params.p))

        rng = np.random.default_rng(13)
        for nx, ny in [(4, 4), (2, 7), (7, 2), (10, 10), (10, 6), (9, 5)]:
            x = rng.uniform(0, 150, (40, nx, 2))
            y = rng.uniform(0, 150, (40, ny, 2))
            assert ospa(x, y, params).tolist() == [reference(a, b) for a, b in zip(x, y)]


def test_import_loads_no_scipy():
    src = str(Path(trackplan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, trackplan, trackplan.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def ospa_series(truth, est):
    """OSPA between estimated and true positions at every step."""
    return np.array([ospa(e[:, :2], t[:, :2], P50) for t, e in zip(truth, est)])


class TestTrialSeries:
    def test_perfect_tracks_are_zero(self):
        truth = np.random.default_rng(0).uniform(0, 100, (20, 4, 4))
        series = ospa_series(truth, truth.copy())
        assert np.allclose(series, 0.0, atol=1e-12)

    def test_one_missing_track_of_four(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0, 100, (5, 4, 4))
        est = truth[:, :3, :].copy()
        series = ospa_series(truth, est)
        # cardinality-only penalty: (c^p / 4)^(1/p) = 25
        assert np.allclose(series, 25.0, atol=1e-9)

    def test_bounded_by_cutoff(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(0, 100, (10, 3, 4))
        est = rng.uniform(0, 100, (10, 3, 4))
        series = ospa_series(truth, est)
        assert np.all(series <= 50.0 + 1e-12)


class TestEcdf:
    def test_basic(self):
        assert ecdf([1.0, 1.0, 2.0]) == [(1.0, pytest.approx(2 / 3)), (2.0, pytest.approx(1.0))]

    def test_single_value(self):
        assert ecdf([3.5]) == [(3.5, 1.0)]

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(0)
        pairs = ecdf(rng.uniform(0, 10, 500))
        freqs = [f for _, f in pairs]
        assert all(a <= b for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] == pytest.approx(1.0)
        assert all(0.0 < f <= 1.0 for f in freqs)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ecdf([])

