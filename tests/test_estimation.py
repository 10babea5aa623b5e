import numpy as np
import pytest

from trackplan import (
    FleetBelief,
    Observations,
    Sensor,
    TrackAssociationError,
    fuse,
    ncv_model,
    predict,
    update,
)

from oracles import information_fusion, kalman_predict

H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def random_track(rng):
    """One track as stacks of one: mean (1, 4) and covariance (1, 4, 4)."""
    a = rng.standard_normal((4, 4))
    p = a @ a.T + 0.1 * np.eye(4)
    return rng.standard_normal((1, 4)) * 10, p[None]


def obs(track_id, z, r):
    """One agent's batch holding a single observation."""
    return Observations(np.array([track_id]), np.array([z], dtype=float), np.array([r], dtype=float))


def one(xi, p):
    """The single track of stacks of one."""
    return xi[0], p[0]


class TestNcvModel:
    def test_q_closed_form_unit_step(self):
        model = ncv_model(1.0, 1.0)
        expected = np.array(
            [
                [0.25, 0.0, 0.5, 0.0],
                [0.0, 0.25, 0.0, 0.5],
                [0.5, 0.0, 1.0, 0.0],
                [0.0, 0.5, 0.0, 1.0],
            ]
        )
        assert np.allclose(model.Q, expected, atol=1e-12)

    def test_f_off_diagonal_is_dt(self):
        model = ncv_model(0.2, 1.0)
        assert model.F[0, 2] == 0.2 and model.F[1, 3] == 0.2

    def test_zero_sigma_gives_zero_q(self):
        assert np.array_equal(ncv_model(1.0, 0.0).Q, np.zeros((4, 4)))

    def test_q_is_psd(self):
        model = ncv_model(0.7, 2.3)
        assert np.linalg.eigvalsh(model.Q).min() >= -1e-12


class TestPredict:
    def test_deterministic_propagation(self):
        model = ncv_model(1.0, 0.0)
        xi, p = one(*predict(np.array([[0.0, 0.0, 1.0, 0.0]]), np.eye(4)[None], model))
        assert np.allclose(xi, [1.0, 0.0, 1.0, 0.0])
        assert np.allclose(p, model.F @ np.eye(4) @ model.F.T)

    def test_zero_prior_becomes_q(self):
        model = ncv_model(1.0, 1.0)
        _, p = one(*predict(np.zeros((1, 4)), np.zeros((1, 4, 4)), model))
        assert np.allclose(p, model.Q, atol=1e-12)

    def test_trace_never_below_propagated(self):
        rng = np.random.default_rng(0)
        model = ncv_model(0.5, 1.2)
        for _ in range(100):
            xi, p = random_track(rng)
            _, out = one(*predict(xi, p, model))
            assert np.trace(out) >= np.trace(model.F @ p[0] @ model.F.T) - 1e-9

    def test_stack_equals_each_track_alone(self):
        rng = np.random.default_rng(4)
        model = ncv_model(0.2, 1.0)
        xi, p = map(np.concatenate, zip(*(random_track(rng) for _ in range(5))))
        a = rng.standard_normal((5, 2, 2))
        z, r = rng.standard_normal((5, 2)), a @ a.transpose(0, 2, 1) + 0.05 * np.eye(2)
        stacked = update(*predict(xi, p, model), z, r)
        for t in range(5):
            alone = update(*predict(xi[t : t + 1], p[t : t + 1], model), z[t : t + 1], r[t : t + 1])
            assert np.array_equal(stacked[0][t], alone[0][0])
            assert np.array_equal(stacked[1][t], alone[1][0])


class TestUpdate:
    def test_uninformative_measurement_keeps_prior(self):
        rng = np.random.default_rng(1)
        xi, p = random_track(rng)
        out_xi, out_p = update(xi, p, xi[:, :2] + 5.0, np.eye(2)[None] * 1e12)
        assert np.allclose(out_xi, xi, rtol=1e-6, atol=1e-6)
        assert np.allclose(out_p, p, rtol=1e-6, atol=1e-6)

    def test_scalar_gain_halves_unit_variance(self):
        xi = np.array([[2.0, -1.0, 0.0, 0.0]])
        out_xi, out_p = one(*update(xi, np.eye(4)[None], np.array([[2.0, -1.0]]), np.eye(2)[None]))
        assert np.allclose(out_p[0, 0], 0.5, atol=1e-12)
        assert np.allclose(out_p[1, 1], 0.5, atol=1e-12)
        assert np.allclose(out_xi, xi[0], atol=1e-12)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xi, p = random_track(rng)
            a = rng.standard_normal((2, 2))
            r = a @ a.T + 0.01 * np.eye(2)
            _, out = one(*update(xi, p, rng.standard_normal((1, 2)), r[None]))
            assert np.trace(out) <= np.trace(p[0]) + 1e-9


def two_tracks():
    """Target ids, means and covariances of two fresh tracks."""
    xi = np.array([[1.0, 2.0, 0.0, 0.0], [8.0, -1.0, 0.0, 0.0]])
    return (0, 1), xi, np.tile(np.diag([25.0, 25.0, 4.0, 4.0]), (2, 1, 1))


class TestFuse:
    def test_no_observations_is_pure_prediction(self):
        ids, xi, p = two_tracks()
        model = ncv_model(0.2, 1.0)
        nothing = Observations(np.zeros(0, int), np.zeros((0, 2)), np.zeros((0, 2, 2)))
        _, out_p = fuse([nothing, nothing], ids, xi, p, model)
        assert np.allclose(out_p, predict(xi, p, model)[1], atol=1e-12)
        assert np.all(np.trace(out_p, axis1=1, axis2=2) > np.trace(p, axis1=1, axis2=2))

    def test_single_observation_equals_single_update(self):
        ids, xi, p = two_tracks()
        model = ncv_model(0.2, 1.0)
        o = obs(0, [1.1, 2.2], np.diag([0.5, 0.7]))
        fused = fuse([o], ids, xi, p, model)
        pred_xi, pred_p = predict(xi[:1], p[:1], model)
        direct = update(pred_xi, pred_p, o.z, o.R)
        assert np.allclose(fused[0][0], direct[0][0], atol=1e-12)
        assert np.allclose(fused[1][0], direct[1][0], atol=1e-12)

    def test_two_equal_measurements_add_information(self):
        ids, xi, p = two_tracks()
        model = ncv_model(0.2, 1.0)
        r = np.diag([0.4, 0.9])
        z = np.array([1.05, 2.1])
        _, fused_p = fuse([obs(0, z, r), obs(0, z, r)], ids, xi, p, model)
        _, predicted = one(*predict(xi[:1], p[:1], model))
        info_expected = np.linalg.inv(predicted) + 2.0 * H.T @ np.linalg.inv(r) @ H
        assert np.allclose(np.linalg.inv(fused_p[0]), info_expected, rtol=1e-8, atol=1e-8)

    def test_order_invariance(self):
        ids, xi, p = two_tracks()
        model = ncv_model(0.2, 1.0)
        o1 = obs(0, [1.2, 1.9], np.diag([0.3, 0.6]))
        o2 = obs(0, [0.9, 2.2], np.diag([1.1, 0.2]))
        a = fuse([o1, o2], ids, xi, p, model)
        b = fuse([o2, o1], ids, xi, p, model)
        assert np.allclose(a[0][0], b[0][0], atol=1e-8)
        assert np.allclose(a[1][0], b[1][0], atol=1e-8)

    def test_consensus_mode_matches_exact_fusion(self):
        xi = np.array([[1.0, 2.0, 0.0, 0.0]])
        p = np.diag([25.0, 25.0, 4.0, 4.0])[None]
        model = ncv_model(0.2, 1.0)
        per_agent = [
            obs(0, [1.0 + 0.1 * a, 2.0 - 0.05 * a], np.diag([0.5 + 0.1 * a, 0.8]))
            for a in range(3)
        ]
        exact_xi, exact_p = one(*fuse(per_agent, (0,), xi, p, model))
        oracle_xi, oracle_p = information_fusion(
            *kalman_predict(xi[0], p[0], model.F, model.Q),
            [(o.z[0], o.R[0]) for o in per_agent],
        )
        rel = abs(np.trace(exact_p) - np.trace(oracle_p)) / np.trace(exact_p)
        assert rel < 1e-6
        assert np.allclose(exact_xi, oracle_xi, atol=1e-6)

    def test_unknown_target_id_raises(self):
        ids, xi, p = two_tracks()
        model = ncv_model(0.2, 1.0)
        with pytest.raises(TrackAssociationError):
            fuse([obs(99, [0.0, 0.0], np.eye(2))], ids, xi, p, model)
        # after updates from earlier observations, too; the inputs stay as they were
        xi0, p0 = xi.copy(), p.copy()
        with pytest.raises(TrackAssociationError, match="unknown target id 99"):
            fuse([obs(0, [1.0, 2.0], np.eye(2)), obs(99, [0.0, 0.0], np.eye(2))], ids, xi, p, model)
        assert np.array_equal(xi, xi0) and np.array_equal(p, p0)

    def test_batch_naming_one_target_twice_raises(self):
        ids, xi, p = two_tracks()
        twice = Observations(np.array([1, 1]), np.array([[8.0, -1.0], [8.5, -1.2]]),
                             np.tile(np.eye(2), (2, 1, 1)))
        with pytest.raises(ValueError, match="names a target twice"):
            fuse([twice], ids, xi, p, ncv_model(0.2, 1.0))

    @pytest.mark.parametrize("n_means, n_covs, n_ids", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_mismatched_stacks_raise(self, n_means, n_covs, n_ids):
        _, xi, p = two_tracks()
        xi = np.resize(xi, (n_means, 4))
        p = np.resize(p, (n_covs, 4, 4))
        with pytest.raises(ValueError, match=r"need means \(\d, 4\) and covariances"):
            fuse([], tuple(range(n_ids)), xi, p, ncv_model(0.2, 1.0))

    def test_deterministic_replay_is_bit_identical(self):
        ids, xi, p = two_tracks()
        model = ncv_model(0.2, 1.0)
        stream = [obs(0, [1.0, 2.0], np.diag([0.5, 0.5])), obs(1, [8.2, -0.8], np.eye(2))]
        a = fuse(stream, ids, xi, p, model)
        b = fuse(stream, ids, xi, p, model)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestFleetBelief:
    def test_duplicate_target_ids_rejected(self):
        _, xi, p = two_tracks()
        with pytest.raises(ValueError, match="duplicate target ids"):
            FleetBelief(target_ids=(3, 3), xi=xi, P=p, xy=np.zeros((0, 2)), sensors=())

    @pytest.mark.parametrize(
        "xi_shape, p_shape",
        [((3, 4), (2, 4, 4)), ((2, 4), (3, 4, 4)), ((2, 2), (2, 4, 4)), ((2, 4), (2, 2, 2))],
    )
    def test_track_stacks_must_match_the_ids(self, xi_shape, p_shape):
        with pytest.raises(ValueError, match=r"2 target ids need means \(2, 4\)"):
            FleetBelief((0, 1), np.zeros(xi_shape), np.zeros(p_shape), np.zeros((0, 2)), ())

    @pytest.mark.parametrize("xy_shape", [(1, 2), (3, 2), (2,), (2, 3)])
    def test_positions_must_match_the_sensors(self, xy_shape):
        with pytest.raises(ValueError, match=r"2 sensors need positions xy \(2, 2\)"):
            FleetBelief((), np.zeros((0, 4)), np.zeros((0, 4, 4)), np.zeros(xy_shape),
                        (Sensor(), Sensor()))

    def test_sensor_parameters_must_be_positive(self):
        for bad in ({"fov_edge": 0.0}, {"alpha": -0.1}, {"r0": 0.0}):
            with pytest.raises(ValueError, match="must all be positive"):
                Sensor(**bad)


class TestPsdPreservation:
    def test_random_predict_update_sequences(self):
        rng = np.random.default_rng(3)
        model = ncv_model(0.2, 1.0)
        for _ in range(300):
            xi, p = random_track(rng)
            for _ in range(rng.integers(1, 8)):
                if rng.random() < 0.5:
                    xi, p = predict(xi, p, model)
                else:
                    a = rng.standard_normal((2, 2))
                    r = a @ a.T + 0.05 * np.eye(2)
                    xi, p = update(xi, p, rng.standard_normal((1, 2)) * 5, r[None])
                assert np.allclose(p[0], p[0].T, atol=1e-9)
                assert np.linalg.eigvalsh(p[0]).min() >= -1e-9
