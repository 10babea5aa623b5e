import numpy as np
import pytest

from trackplan import (
    AgentState,
    FleetBelief,
    Observation,
    TargetTrack,
    TrackAssociationError,
    fuse,
    initialize_track,
    ncv_model,
    predict,
    update,
)

from oracles import information_fusion, kalman_predict

H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def random_track(rng, target_id=0):
    a = rng.standard_normal((4, 4))
    p = a @ a.T + 0.1 * np.eye(4)
    return TargetTrack(target_id=target_id, xi=rng.standard_normal(4) * 10, P=p)


def obs(track_id, z, r):
    return Observation(target_id=track_id, z=np.asarray(z, dtype=float), R=np.asarray(r, dtype=float))


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
        track = TargetTrack(target_id=0, xi=np.array([0.0, 0.0, 1.0, 0.0]), P=np.eye(4))
        out = predict(track, model)
        assert np.allclose(out.xi, [1.0, 0.0, 1.0, 0.0])
        assert np.allclose(out.P, model.F @ np.eye(4) @ model.F.T)

    def test_zero_prior_becomes_q(self):
        model = ncv_model(1.0, 1.0)
        track = TargetTrack(target_id=0, xi=np.zeros(4), P=np.zeros((4, 4)))
        assert np.allclose(predict(track, model).P, model.Q, atol=1e-12)

    def test_trace_never_below_propagated(self):
        rng = np.random.default_rng(0)
        model = ncv_model(0.5, 1.2)
        for _ in range(100):
            track = random_track(rng)
            out = predict(track, model)
            assert np.trace(out.P) >= np.trace(model.F @ track.P @ model.F.T) - 1e-9


class TestUpdate:
    def test_uninformative_measurement_keeps_prior(self):
        rng = np.random.default_rng(1)
        track = random_track(rng)
        out = update(track, obs(0, track.xi[:2] + 5.0, np.eye(2) * 1e12))
        assert np.allclose(out.xi, track.xi, rtol=1e-6, atol=1e-6)
        assert np.allclose(out.P, track.P, rtol=1e-6, atol=1e-6)

    def test_scalar_gain_halves_unit_variance(self):
        track = TargetTrack(target_id=0, xi=np.array([2.0, -1.0, 0.0, 0.0]), P=np.eye(4))
        out = update(track, obs(0, [2.0, -1.0], np.eye(2)))
        assert np.allclose(out.P[0, 0], 0.5, atol=1e-12)
        assert np.allclose(out.P[1, 1], 0.5, atol=1e-12)
        assert np.allclose(out.xi, track.xi, atol=1e-12)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            track = random_track(rng)
            a = rng.standard_normal((2, 2))
            r = a @ a.T + 0.01 * np.eye(2)
            out = update(track, obs(0, rng.standard_normal(2), r))
            assert np.trace(out.P) <= np.trace(track.P) + 1e-9


def two_track_belief():
    agents = (AgentState(px=0.0, py=0.0), AgentState(px=10.0, py=0.0))
    tracks = (
        initialize_track(0, np.array([1.0, 2.0])),
        initialize_track(1, np.array([8.0, -1.0])),
    )
    return FleetBelief(tracks=tracks, agents=agents, timestamp=0.0)


class TestFuse:
    def test_no_observations_is_pure_prediction(self):
        belief = two_track_belief()
        model = ncv_model(0.2, 1.0)
        out = fuse([[], []], belief, model)
        for before, after in zip(belief.tracks, out.tracks):
            assert np.allclose(after.P, predict(before, model).P, atol=1e-12)
            assert after.trace > before.trace
        assert out.timestamp == pytest.approx(0.2)

    def test_single_observation_equals_single_update(self):
        belief = two_track_belief()
        model = ncv_model(0.2, 1.0)
        o = obs(0, [1.1, 2.2], np.diag([0.5, 0.7]))
        fused = fuse([[o], []], belief, model)
        direct = update(predict(belief.tracks[0], model), o)
        assert np.allclose(fused.tracks[0].xi, direct.xi, atol=1e-12)
        assert np.allclose(fused.tracks[0].P, direct.P, atol=1e-12)

    def test_two_equal_measurements_add_information(self):
        belief = two_track_belief()
        model = ncv_model(0.2, 1.0)
        r = np.diag([0.4, 0.9])
        z = np.array([1.05, 2.1])
        fused = fuse([[obs(0, z, r)], [obs(0, z, r)]], belief, model)
        predicted = predict(belief.tracks[0], model)
        info_expected = np.linalg.inv(predicted.P) + 2.0 * H.T @ np.linalg.inv(r) @ H
        assert np.allclose(np.linalg.inv(fused.tracks[0].P), info_expected, rtol=1e-8, atol=1e-8)

    def test_order_invariance(self):
        belief = two_track_belief()
        model = ncv_model(0.2, 1.0)
        o1 = obs(0, [1.2, 1.9], np.diag([0.3, 0.6]))
        o2 = obs(0, [0.9, 2.2], np.diag([1.1, 0.2]))
        a = fuse([[o1], [o2]], belief, model)
        b = fuse([[o2], [o1]], belief, model)
        assert np.allclose(a.tracks[0].xi, b.tracks[0].xi, atol=1e-8)
        assert np.allclose(a.tracks[0].P, b.tracks[0].P, atol=1e-8)

    def test_consensus_mode_matches_exact_fusion(self):
        agents = tuple(AgentState(px=5.0 * i, py=0.0) for i in range(3))
        tracks = (initialize_track(0, np.array([1.0, 2.0])),)
        belief = FleetBelief(tracks=tracks, agents=agents, timestamp=0.0)
        model = ncv_model(0.2, 1.0)
        per_agent = [
            [obs(0, [1.0 + 0.1 * a, 2.0 - 0.05 * a], np.diag([0.5 + 0.1 * a, 0.8]))]
            for a in range(3)
        ]
        exact = fuse(per_agent, belief, model)
        xi, p = information_fusion(
            *kalman_predict(tracks[0].xi, tracks[0].P, model.F, model.Q),
            [(o.z, o.R) for agent_obs in per_agent for o in agent_obs],
        )
        rel = abs(exact.tracks[0].trace - np.trace(p)) / exact.tracks[0].trace
        assert rel < 1e-6
        assert np.allclose(exact.tracks[0].xi, xi, atol=1e-6)

    def test_unknown_target_id_raises(self):
        belief = two_track_belief()
        model = ncv_model(0.2, 1.0)
        with pytest.raises(TrackAssociationError):
            fuse([[obs(99, [0.0, 0.0], np.eye(2))]], belief, model)
        # after updates from earlier observations, too; the belief stays as it was
        p0 = [t.P.copy() for t in belief.tracks]
        with pytest.raises(TrackAssociationError, match="unknown target id 99"):
            fuse([[obs(0, [1.0, 2.0], np.eye(2))], [obs(99, [0.0, 0.0], np.eye(2))]], belief, model)
        assert all(np.array_equal(t.P, p) for t, p in zip(belief.tracks, p0))

    def test_deterministic_replay_is_bit_identical(self):
        belief = two_track_belief()
        model = ncv_model(0.2, 1.0)
        stream = [[obs(0, [1.0, 2.0], np.diag([0.5, 0.5]))], [obs(1, [8.2, -0.8], np.eye(2))]]
        a = fuse(stream, belief, model)
        b = fuse(stream, belief, model)
        for ta, tb in zip(a.tracks, b.tracks):
            assert np.array_equal(ta.xi, tb.xi) and np.array_equal(ta.P, tb.P)


class TestPsdPreservation:
    def test_random_predict_update_sequences(self):
        rng = np.random.default_rng(3)
        model = ncv_model(0.2, 1.0)
        for _ in range(300):
            track = random_track(rng)
            for _ in range(rng.integers(1, 8)):
                if rng.random() < 0.5:
                    track = predict(track, model)
                else:
                    a = rng.standard_normal((2, 2))
                    r = a @ a.T + 0.05 * np.eye(2)
                    track = update(track, obs(0, rng.standard_normal(2) * 5, r))
                assert np.allclose(track.P, track.P.T, atol=1e-9)
                assert np.linalg.eigvalsh(track.P).min() >= -1e-9
