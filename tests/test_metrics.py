import numpy as np
import pytest

from trackplan import OspaParams, ecdf, ospa

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
        for _ in range(10_000):
            sets = [rng.uniform(0, 120, (rng.integers(0, 5), 2)) for _ in range(3)]
            dxy = ospa(sets[0], sets[1], P50)
            dyz = ospa(sets[1], sets[2], P50)
            dxz = ospa(sets[0], sets[2], P50)
            assert dxz <= dxy + dyz + 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OspaParams(c=0.0, p=2.0)
        with pytest.raises(ValueError):
            OspaParams(c=50.0, p=0.5)


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

