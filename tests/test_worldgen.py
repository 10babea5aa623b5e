import numpy as np
import pytest

from trackplan import (
    Aoi,
    ForestPlacementError,
    MapFormatError,
    OcclusionForest,
    ScenarioConfig,
    generate_forest,
    generate_levy_trajectory,
    load_map,
    save_map,
)

AOI = Aoi(150.0, 100.0)


class TestForest:
    def test_zero_lambda_is_empty(self):
        forest = generate_forest(0.0, 5.0, AOI, np.random.default_rng(0))
        assert len(forest) == 0

    def test_poisson_mean_over_seeds(self):
        counts = [
            len(generate_forest(45.0, 5.0, AOI, np.random.default_rng(seed)))
            for seed in range(1000)
        ]
        se = np.sqrt(45.0 / 1000.0)
        assert abs(np.mean(counts) - 45.0) < 3.0 * se

    def test_pairwise_distances_exceed_radius_sum(self):
        # exhaustive pairwise scan over several dense draws
        for seed in range(5):
            forest = generate_forest(75.0, 5.0, AOI, np.random.default_rng(seed))
            disks = forest.disks
            for i in range(len(disks)):
                for j in range(i + 1, len(disks)):
                    dist = np.hypot(disks[i][0] - disks[j][0], disks[i][1] - disks[j][1])
                    assert dist > disks[i][2] + disks[j][2]

    def test_centers_inside_aoi(self):
        forest = generate_forest(75.0, 5.0, AOI, np.random.default_rng(3))
        for cx, cy, _ in forest.disks:
            assert AOI.contains(cx, cy)

    def test_deterministic_given_seed(self):
        a = generate_forest(45.0, 5.0, AOI, np.random.default_rng(11))
        b = generate_forest(45.0, 5.0, AOI, np.random.default_rng(11))
        assert a == b

    def test_overdense_config_raises(self):
        tiny = Aoi(10.0, 10.0)
        with pytest.raises(ForestPlacementError):
            generate_forest(60.0, 5.0, tiny, np.random.default_rng(1))

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_forest(-1.0, 5.0, AOI, rng)
        with pytest.raises(ValueError):
            generate_forest(1.0, 0.0, AOI, rng)


class TestLevyTrajectory:
    def test_sample_count(self):
        traj = generate_levy_trajectory(10.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(0))
        assert len(traj) == 51

    def test_speed_bounds_every_sample(self):
        traj = generate_levy_trajectory(60.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(1))
        speeds = np.hypot(traj.samples[:, 2], traj.samples[:, 3])
        assert speeds.min() >= 1.0 - 1e-9
        assert speeds.max() <= 3.0 + 1e-9

    def test_displacement_scan(self):
        traj = generate_levy_trajectory(60.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(2))
        steps = np.linalg.norm(np.diff(traj.samples[:, :2], axis=0), axis=1)
        assert steps.max() <= 3.0 * 0.2 + 1e-9

    def test_velocity_matches_finite_difference(self):
        traj = generate_levy_trajectory(30.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(3))
        fd = np.diff(traj.samples[:, :2], axis=0) / 0.2
        assert np.allclose(fd, traj.samples[:-1, 2:4], atol=1e-9)

    def test_containment(self):
        for seed in range(5):
            traj = generate_levy_trajectory(60.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(seed))
            for x, y in traj.samples[:, :2]:
                assert AOI.contains(x, y)

    def test_deterministic(self):
        a = generate_levy_trajectory(20.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(9))
        b = generate_levy_trajectory(20.0, 0.2, (1.0, 3.0), AOI, np.random.default_rng(9))
        assert np.array_equal(a.samples, b.samples)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="speed_range"):
            generate_levy_trajectory(10.0, 0.2, (0.0, 0.0), AOI, np.random.default_rng(0))


class TestMapIo:
    def test_empty_forest_round_trip(self, tmp_path):
        forest = OcclusionForest(disks=(), lam=0.0, radius=5.0, seed=1)
        path = tmp_path / "empty.txt"
        save_map(forest, str(path))
        assert load_map(str(path)) == forest
        assert len(path.read_text().strip().splitlines()) == 1  # header only

    def test_round_trip_identity(self, tmp_path):
        forest = generate_forest(45.0, 5.0, AOI, np.random.default_rng(4), seed=4)
        path = tmp_path / "f.txt"
        save_map(forest, str(path))
        assert load_map(str(path)) == forest

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("45.0 5.0 0\n1.0 2.0 5.0\n1.0 oops 5.0\n")
        with pytest.raises(MapFormatError, match="line 3"):
            load_map(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("45.0 5.0\n")
        with pytest.raises(MapFormatError, match="line 1"):
            load_map(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_map(str(tmp_path / "nope.txt"))


class TestScenarioConfig:
    def test_defaults_valid(self):
        ScenarioConfig()

    def test_dt_plan_must_be_multiple(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dt_sense=0.3, dt_plan=1.0)

    def test_ospa_p_lower_bound(self):
        with pytest.raises(ValueError):
            ScenarioConfig(ospa_p=0.5)

    def test_duration_must_cover_whole_epochs(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=10.5, dt_plan=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0.4, dt_plan=1.0)

    def test_per_agent_lists_must_match(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=2, fov_edges=(20.0,), alphas=(0.1, 0.2))
