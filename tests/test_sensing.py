import math

import numpy as np

from trackplan import OcclusionForest, Sensor, in_fov, sense
from trackplan.sensing import _covariances, _range_bearing_cov_batch

from beliefs import agent_at
from oracles import in_any_disk, in_square, range_bearing_cov_batch

EMPTY = OcclusionForest(disks=())


def sense_at(agents, truths, forest, rng):
    """sense from each agent's own position, of (target id, state) pairs."""
    xy = np.reshape([state[:2] for _, state in truths], (-1, 2))
    ids = [tid for tid, _ in truths]
    return sense([a.sensor for a in agents], [a.xy for a in agents], ids, xy, forest, rng)


def sense_cov(agent, target_pos):
    """The covariance sense gives the agent's measurement of a target at target_pos."""
    return _covariances(np.subtract([target_pos], agent.xy), [agent.sensor])[0]


def fov(point, agent):
    dx, dy = np.subtract(point, agent.xy)
    return bool(in_fov(dx, dy, agent.sensor.half_width))


def is_observable(point, agent, forest):
    """Whether sense reports the point to the agent."""
    truth = [(0, np.array([*point, 0.0, 0.0]))]
    return len(sense_at([agent], truth, forest, np.random.default_rng(0))[0]) == 1


class TestFov:
    def test_square_centered_on_agent(self):
        agent = agent_at(0.0, 0.0, fov_edge=20.0)
        assert agent.sensor.half_width == 10.0
        for corner in ((10.0, 10.0), (-10.0, 10.0), (-10.0, -10.0), (10.0, -10.0)):
            assert fov(corner, agent)
        assert not fov((10.0, 10.0 + 1e-9), agent)
        assert not fov((-10.0 - 1e-9, 0.0), agent)

    def test_translated_square(self):
        agent = agent_at(5.0, -3.0, fov_edge=2.0)
        assert agent.sensor.half_width == 1.0
        for corner in ((6.0, -2.0), (4.0, -2.0), (4.0, -4.0), (6.0, -4.0)):
            assert fov(corner, agent)
        assert not fov((0.0, 0.0), agent)
        assert not fov((6.0 + 1e-9, -3.0), agent)

    def test_boundary_counts_as_inside(self):
        assert fov((10.0, 0.0), agent_at(0.0, 0.0, fov_edge=20.0))
        assert not fov((10.0 + 1e-9, 0.0), agent_at(0.0, 0.0, fov_edge=20.0))


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
        r = sense_cov(agent_at(0.0, 0.0, alpha=0.1), (10.0, 0.0))
        assert np.allclose(r, np.diag([0.1, 0.1 * math.pi]), atol=1e-12)

    def test_range_clamped_at_r0(self):
        near = sense_cov(agent_at(0.0, 0.0, r0=1.0), (0.5, 0.0))
        at_r0 = sense_cov(agent_at(0.0, 0.0, r0=1.0), (1.0, 0.0))
        assert np.allclose(near, at_r0, atol=1e-12)

    def test_eigenstructure_north_target(self):
        # rotation by pi/2 swaps the axes: large eigenvalue along x
        r = sense_cov(agent_at(0.0, 0.0, alpha=0.1), (0.0, 10.0))
        vals, vecs = np.linalg.eigh(r)
        assert np.allclose(sorted(vals), sorted([0.1, 0.1 * math.pi]), atol=1e-9)
        big = vecs[:, int(np.argmax(vals))]
        assert abs(abs(big[0]) - 1.0) < 1e-9

    def test_eigenvalues_exact_random_geometry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            agent = agent_at(*rng.uniform(-50, 50, 2), alpha=rng.uniform(0.05, 0.3))
            target = tuple(rng.uniform(-50, 50, 2))
            r = sense_cov(agent, target)
            assert np.allclose(r, r.T, atol=1e-9)
            (ax, ay), sensor = agent
            dist = max(math.hypot(target[0] - ax, target[1] - ay), sensor.r0)
            expected = sorted([0.1 * sensor.alpha * dist, 0.1 * math.pi * sensor.alpha * dist])
            assert np.allclose(sorted(np.linalg.eigvalsh(r)), expected, atol=1e-9)

    def test_trace_monotone_in_range(self):
        agent = agent_at(0.0, 0.0)
        traces = [
            np.trace(sense_cov(agent, (d, 0.0))) for d in (2.0, 5.0, 20.0, 80.0)
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
            r_base = sense_cov(agent, tuple(agent.xy + offset))
            r_rot = sense_cov(agent, tuple(agent.xy + g @ offset))
            assert np.allclose(r_rot, g @ r_base @ g.T, atol=1e-9)


class TestSense:
    def test_target_outside_all_fovs(self):
        obs = sense_at(
            [agent_at(0.0, 0.0)],
            [(0, np.array([100.0, 100.0, 0.0, 0.0]))],
            EMPTY,
            np.random.default_rng(0),
        )
        assert [len(batch) for batch in obs] == [0]

    def test_two_covering_agents_give_two_observations(self):
        agents = [agent_at(0.0, 0.0), agent_at(2.0, 0.0)]
        obs = sense_at(agents, [(0, np.array([1.0, 0.0, 0.0, 0.0]))], EMPTY, np.random.default_rng(0))
        assert len(obs[0]) == 1 and len(obs[1]) == 1

    def test_senses_from_the_given_positions(self):
        # the sensors lend footprint and noise; xy says where they stand
        xy = np.array([[100.0, 100.0], [0.0, 0.0]])
        targets = np.array([[0.0, 0.0], [101.0, 99.0]])
        obs = sense([Sensor(), Sensor()], xy, (4, 9), targets, EMPTY, np.random.default_rng(0))
        assert [b.target_ids.tolist() for b in obs] == [[9], [4]]
        expected = sense_cov(agent_at(100.0, 100.0), (101.0, 99.0))
        assert np.array_equal(obs[0].R[0], expected)

    def test_occlusion_dominates_any_pose(self):
        forest = OcclusionForest(disks=((50.0, 50.0, 10.0),))
        rng = np.random.default_rng(2)
        truth = [(0, np.array([50.0, 50.0, 0.0, 0.0]))]
        for _ in range(50):
            agents = [agent_at(*rng.uniform(0, 100, 2), fov_edge=rng.uniform(5, 400))]
            assert [len(batch) for batch in sense_at(agents, truth, forest, rng)] == [0]

    def test_sample_covariance_matches_model(self):
        agent = agent_at(0.0, 0.0, alpha=0.15)
        target = (8.0, -3.0)
        r = sense_cov(agent, target)
        rng = np.random.default_rng(3)
        draws = np.array(
            [
                sense_at([agent], [(0, np.array([*target, 0.0, 0.0]))], EMPTY, rng)[0].z[0]
                for _ in range(100_000)
            ]
        )
        emp = np.cov(draws.T)
        rel = np.linalg.norm(emp - r) / np.linalg.norm(r)
        assert rel < 0.05

    def test_matches_scalar_loop(self):
        # visible pairs in agent-then-target order, each drawing its own noise
        rng = np.random.default_rng(4)
        forest = OcclusionForest(disks=((30.0, 30.0, 6.0), (60.0, 20.0, 4.0)))
        for _ in range(50):
            agents = [
                agent_at(*rng.uniform(0, 80, 2), fov_edge=rng.uniform(10, 60)) for _ in range(3)
            ]
            truths = [(7 + t, np.array([*rng.uniform(0, 80, 2), 0.0, 0.0])) for t in range(5)]
            seed = int(rng.integers(1 << 30))
            got = sense_at(agents, truths, forest, np.random.default_rng(seed))
            draws = np.random.default_rng(seed)
            for agent, obs in zip(agents, got):
                expected = [
                    (tid, state[:2])
                    for tid, state in truths
                    if in_square(*state[:2], *agent.xy, agent.sensor.half_width)
                    and not in_any_disk(*state[:2], forest.disks)
                ]
                assert obs.target_ids.tolist() == [tid for tid, _ in expected]
                for z_got, r_got, (_, pos) in zip(obs.z, obs.R, expected):
                    r = sense_cov(agent, tuple(pos))
                    z = pos + np.linalg.cholesky(r) @ draws.standard_normal(2)
                    assert np.array_equal(r_got, r) and np.array_equal(z_got, z)


def _near(values):
    """Each value and its two floating-point neighbours."""
    v = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


class TestSensorModelMatchesScalarRule:
    """in_fov, occludes and the batched covariance against literal scalar rules."""

    def test_in_fov_on_square_edges(self):
        rng = np.random.default_rng(5)
        for ax, ay, hw in ((0.0, 0.0, 10.0), (5.0, -3.0, 1.0), (0.3, 0.7, 11.1)):
            edges = _near([ax - hw, ax, ax + hw, ay - hw, ay, ay + hw])
            grid = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
            points = np.concatenate([grid, rng.uniform(-15, 15, (200, 2))])
            mask = in_fov(points[:, 0] - ax, points[:, 1] - ay, hw)
            assert mask.shape == (len(points),)
            assert mask.tolist() == [in_square(x, y, ax, ay, hw) for x, y in points]
            # one row per half width, broadcast as sense and the planner do
            widths = np.array([[hw], [2 * hw]])
            rows = in_fov(points[:, 0] - ax, points[:, 1] - ay, widths)
            assert rows.shape == (2, len(points))
            assert rows[0].tolist() == mask.tolist()
            assert rows[1].tolist() == [in_square(x, y, ax, ay, 2 * hw) for x, y in points]

    def test_occludes_on_disk_circles(self):
        disks = ((0.0, 0.0, 5.0), (20.0, 10.0, 2.5), (0.1, 30.3, 0.7))
        forest = OcclusionForest(disks=disks)
        rng = np.random.default_rng(6)
        points = [rng.uniform(-10, 35, (300, 2))]
        for cx, cy, r in disks:
            # points on the circle, including the exact 3-4-5 ones
            for dx, dy in ((r, 0.0), (0.0, -r), (0.6 * r, 0.8 * r), (-0.8 * r, 0.6 * r)):
                points.append(np.stack(np.meshgrid(_near([cx + dx]), _near([cy + dy])), -1))
        points = np.concatenate([p.reshape(-1, 2) for p in points])
        mask = forest.occludes(points)
        assert mask.shape == (len(points),)
        assert mask.tolist() == [in_any_disk(x, y, disks) for x, y in points]
        blocks = points[:300].reshape(5, 6, 10, 2)
        assert np.array_equal(forest.occludes(blocks), mask[:300].reshape(5, 6, 10))
        assert not EMPTY.occludes(points).any()

    def test_batched_covariance_equals_scalar_form(self):
        rng = np.random.default_rng(7)
        special = [(0.0, 0.0), (0.3, -0.4), (5.0, 0.0), (-5.0, 0.0), (0.0, 7.0), (0.0, -7.0)]
        for alpha, r0 in ((0.1, 1.0), (0.15, 2.5), (0.3, 0.5)):
            offsets = np.concatenate([special, rng.uniform(-3 * r0, 3 * r0, (100, 2)),
                                      rng.uniform(-60, 60, (100, 2))])
            agent = agent_at(*rng.uniform(-20, 20, 2), alpha=alpha, r0=r0)
            targets = agent.xy + offsets
            delta = targets - agent.xy
            batch = _range_bearing_cov_batch(delta[:, 0], delta[:, 1], alpha, r0)
            assert batch.tobytes() == range_bearing_cov_batch(delta, alpha, r0).tobytes()
            for target, r in zip(targets, batch):
                scalar = sense_cov(agent, tuple(target))
                scale = np.abs(scalar).max()
                np.testing.assert_allclose(r, scalar, rtol=1e-12, atol=1e-14 * scale)
            # zero range with each sign of zero, which targets - agent.xy cannot give
            zero = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
            at_zero = _range_bearing_cov_batch(zero[:, 0], zero[:, 1], alpha, r0)
            assert at_zero.tobytes() == range_bearing_cov_batch(zero, alpha, r0).tobytes()
            scalar = _covariances(zero, [agent.sensor] * len(zero))
            scale = np.abs(scalar).max()
            np.testing.assert_allclose(at_zero, scalar, rtol=1e-12, atol=1e-14 * scale)
