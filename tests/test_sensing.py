import math

import numpy as np

from trackplan import (
    AgentState,
    OcclusionForest,
    in_fov,
    is_observable,
    observation_covariance,
    sense,
)

EMPTY = OcclusionForest(disks=())


def agent_at(x, y, fov_edge=20.0, alpha=0.1, r0=1.0):
    return AgentState(px=x, py=y, fov_edge=fov_edge, alpha=alpha, r0=r0)


class TestFov:
    def test_square_centered_on_agent(self):
        agent = agent_at(0.0, 0.0, fov_edge=20.0)
        assert agent.half_width == 10.0
        for corner in ((10.0, 10.0), (-10.0, 10.0), (-10.0, -10.0), (10.0, -10.0)):
            assert in_fov(corner, agent)
        assert not in_fov((10.0, 10.0 + 1e-9), agent)
        assert not in_fov((-10.0 - 1e-9, 0.0), agent)

    def test_translated_square(self):
        agent = agent_at(5.0, -3.0, fov_edge=2.0)
        assert agent.half_width == 1.0
        for corner in ((6.0, -2.0), (4.0, -2.0), (4.0, -4.0), (6.0, -4.0)):
            assert in_fov(corner, agent)
        assert not in_fov((0.0, 0.0), agent)
        assert not in_fov((6.0 + 1e-9, -3.0), agent)

    def test_boundary_counts_as_inside(self):
        assert in_fov((10.0, 0.0), agent_at(0.0, 0.0, fov_edge=20.0))
        assert not in_fov((10.0 + 1e-9, 0.0), agent_at(0.0, 0.0, fov_edge=20.0))


class TestObservable:
    def test_inside_fov_empty_forest(self):
        assert is_observable((3.0, 4.0), agent_at(0.0, 0.0), EMPTY)

    def test_inside_disk_is_occluded(self):
        forest = OcclusionForest(disks=((3.0, 4.0, 2.0),))
        assert not is_observable((3.0, 4.0), agent_at(0.0, 0.0), forest)

    def test_outside_fov(self):
        assert not is_observable((100.0, 0.0), agent_at(0.0, 0.0), EMPTY)

    def test_disk_boundary_is_visible(self):
        forest = OcclusionForest(disks=((0.0, 0.0, 5.0),))
        assert is_observable((5.0, 0.0), agent_at(0.0, 0.0), forest)


class TestObservationCovariance:
    def test_zero_bearing_is_diagonal(self):
        r = observation_covariance(agent_at(0.0, 0.0, alpha=0.1), (10.0, 0.0))
        assert np.allclose(r, np.diag([0.1, 0.1 * math.pi]), atol=1e-12)

    def test_range_clamped_at_r0(self):
        near = observation_covariance(agent_at(0.0, 0.0, r0=1.0), (0.5, 0.0))
        at_r0 = observation_covariance(agent_at(0.0, 0.0, r0=1.0), (1.0, 0.0))
        assert np.allclose(near, at_r0, atol=1e-12)

    def test_eigenstructure_north_target(self):
        # rotation by pi/2 swaps the axes: large eigenvalue along x
        r = observation_covariance(agent_at(0.0, 0.0, alpha=0.1), (0.0, 10.0))
        vals, vecs = np.linalg.eigh(r)
        assert np.allclose(sorted(vals), sorted([0.1, 0.1 * math.pi]), atol=1e-9)
        big = vecs[:, int(np.argmax(vals))]
        assert abs(abs(big[0]) - 1.0) < 1e-9

    def test_eigenvalues_exact_random_geometry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            agent = agent_at(*rng.uniform(-50, 50, 2), alpha=rng.uniform(0.05, 0.3))
            target = tuple(rng.uniform(-50, 50, 2))
            r = observation_covariance(agent, target)
            assert np.allclose(r, r.T, atol=1e-9)
            dist = max(math.hypot(target[0] - agent.px, target[1] - agent.py), agent.r0)
            expected = sorted([0.1 * agent.alpha * dist, 0.1 * math.pi * agent.alpha * dist])
            assert np.allclose(sorted(np.linalg.eigvalsh(r)), expected, atol=1e-9)

    def test_trace_monotone_in_range(self):
        agent = agent_at(0.0, 0.0)
        traces = [
            np.trace(observation_covariance(agent, (d, 0.0))) for d in (2.0, 5.0, 20.0, 80.0)
        ]
        assert all(a < b for a, b in zip(traces, traces[1:]))

    def test_rotation_conjugation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            agent = agent_at(*rng.uniform(-10, 10, 2))
            offset = rng.uniform(-20, 20, 2)
            theta = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            g = np.array([[c, -s], [s, c]])
            r_base = observation_covariance(agent, tuple(agent.position + offset))
            r_rot = observation_covariance(agent, tuple(agent.position + g @ offset))
            assert np.allclose(r_rot, g @ r_base @ g.T, atol=1e-9)


class TestSense:
    def test_target_outside_all_fovs(self):
        obs = sense(
            [agent_at(0.0, 0.0)],
            [(0, np.array([100.0, 100.0, 0.0, 0.0]))],
            EMPTY,
            np.random.default_rng(0),
        )
        assert obs == [[]]

    def test_zero_noise_mode_is_exact(self):
        obs = sense(
            [agent_at(0.0, 0.0)],
            [(7, np.array([3.0, 4.0, 0.0, 0.0]))],
            EMPTY,
            np.random.default_rng(0),
            noise_scale=0.0,
        )
        assert obs[0][0].target_id == 7
        assert np.array_equal(obs[0][0].z, np.array([3.0, 4.0]))

    def test_two_covering_agents_give_two_observations(self):
        agents = [agent_at(0.0, 0.0), agent_at(2.0, 0.0)]
        obs = sense(agents, [(0, np.array([1.0, 0.0, 0.0, 0.0]))], EMPTY, np.random.default_rng(0))
        assert len(obs[0]) == 1 and len(obs[1]) == 1

    def test_occlusion_dominates_any_pose(self):
        forest = OcclusionForest(disks=((50.0, 50.0, 10.0),))
        rng = np.random.default_rng(2)
        truth = [(0, np.array([50.0, 50.0, 0.0, 0.0]))]
        for _ in range(50):
            agents = [agent_at(*rng.uniform(0, 100, 2), fov_edge=rng.uniform(5, 400))]
            assert sense(agents, truth, forest, rng) == [[]]

    def test_sample_covariance_matches_model(self):
        agent = agent_at(0.0, 0.0, alpha=0.15)
        target = (8.0, -3.0)
        r = observation_covariance(agent, target)
        rng = np.random.default_rng(3)
        draws = np.array(
            [
                sense([agent], [(0, np.array([*target, 0.0, 0.0]))], EMPTY, rng)[0][0].z
                for _ in range(100_000)
            ]
        )
        emp = np.cov(draws.T)
        rel = np.linalg.norm(emp - r) / np.linalg.norm(r)
        assert rel < 0.05
