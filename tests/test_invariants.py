"""Invariants of the whole estimator, as metamorphic relations: a change of
the input whose effect on the output is known, checked on short runs of two
bundled scenarios, a 200-frame corridor_gap prefix and a two_lap prefix
that closes its loop. The bounds were set before the tests were written; a
change that breaks one is a defect of the change, not of the bound."""

import numpy as np
import pytest

from conftest import (blacked_out_sequence, dr_composition, moved_sequence, relabelled_sequence,
                      shifted_sequence)
from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.geometry import compose, exp_se3, inverse
from drslam.pipeline import run_pipeline
from drslam.simulator import simulate_sequence

PREFIXES = {"corridor_gap": 200, "two_lap": 430}
# a rotation of about 150 degrees and about 105 m of translation
MOTION = exp_se3(np.array([31.0, -100.0, 7.5, 0.4, -0.9, 2.5]))


@pytest.fixture(scope="module")
def base():
    """Per scenario: the prefix, its run parameters and its adaptive run."""
    runs = {}
    for name, stop in PREFIXES.items():
        config = parse_config(resolve_config_path(name))
        sequence = simulate_sequence(config.world_config(), stop=stop)
        params = config.pipeline_params()
        runs[name] = sequence, params, run_pipeline(sequence, params, "adaptive")
    assert runs["two_lap"][2].gba_events, "the two_lap prefix closes no loop"
    return runs


def poses_bytes(poses) -> list:
    return [(p.q.tobytes(), p.t.tobytes()) for p in poses]


def frame_poses(result) -> list:
    return [f.pose for f in result.frames]


def keyframe_times(result) -> list:
    return [t for t, _ in result.keyframe_trajectory()]


def loops(result) -> list:
    return [(e.frame_id, e.kf_from, e.kf_to) for e in result.gba_events]


def assert_same_run_shape(a, b):
    """The same frames tracked, keyframes, loop closures and solve counts."""
    assert [f.tracked_ok for f in a.frames] == [f.tracked_ok for f in b.frames]
    assert keyframe_times(a) == keyframe_times(b)
    assert loops(a) == loops(b) and a.counts == b.counts


@pytest.mark.parametrize("name", PREFIXES)
def test_a_rigid_motion_of_the_inputs_moves_every_frame_pose_by_it(base, name):
    sequence, params, result = base[name]
    moved = run_pipeline(moved_sequence(sequence, MOTION), params, "adaptive")
    assert_same_run_shape(moved, result)
    for pose, got in zip(frame_poses(result), frame_poses(moved)):
        want = compose(MOTION, pose)
        assert np.linalg.norm(got.t - want.t) <= 1e-7
        assert compose(inverse(want), got).rotation_angle() <= 1e-9


@pytest.mark.parametrize("name", PREFIXES)
def test_an_increasing_relabel_of_the_landmarks_keeps_the_frame_poses_bytes(base, name):
    sequence, params, result = base[name]
    relabelled = run_pipeline(relabelled_sequence(sequence, lambda ids: 3 * ids + 11), params,
                              "adaptive")
    assert_same_run_shape(relabelled, result)
    assert poses_bytes(frame_poses(relabelled)) == poses_bytes(frame_poses(result))
    assert poses_bytes(p for _, p in relabelled.keyframe_trajectory()) == \
        poses_bytes(p for _, p in result.keyframe_trajectory())


def test_a_later_time_origin_keeps_the_frame_poses_bytes(base):
    # the estimator reads no timestamp, so one scenario, without a loop, does
    sequence, params, result = base["corridor_gap"]
    shifted = run_pipeline(shifted_sequence(sequence, 1000.0), params, "adaptive")
    assert keyframe_times(shifted) == [t + 1000.0 for t in keyframe_times(result)]
    assert loops(shifted) == loops(result) and shifted.counts == result.counts
    assert poses_bytes(frame_poses(shifted)) == poses_bytes(frame_poses(result))
    assert [f.solver_iterations for f in shifted.frames] == \
        [f.solver_iterations for f in result.frames]


@pytest.mark.parametrize("name", PREFIXES)
def test_a_decreasing_relabel_of_the_landmarks_moves_no_frame_pose_beyond_1e_8_m(base, name):
    sequence, params, result = base[name]
    relabelled = run_pipeline(relabelled_sequence(sequence, lambda ids: 10 ** 6 - ids), params,
                              "adaptive")
    assert_same_run_shape(relabelled, result)
    for pose, got in zip(frame_poses(result), frame_poses(relabelled)):
        assert np.linalg.norm(got.t - pose.t) <= 1e-8


@pytest.mark.parametrize("name", PREFIXES)
def test_dr_only_frame_poses_are_the_composed_increments(base, name):
    sequence, params, _ = base[name]
    result = run_pipeline(sequence, params, "dr-only")
    assert poses_bytes(frame_poses(result)) == poses_bytes(dr_composition(sequence))


def test_a_frame_that_detects_nothing_stays_at_its_dr_prediction(base):
    # a 30-frame blackout inside the corridor_gap prefix, the length of the
    # scenario's own at frames 295-324
    sequence, params, _ = base["corridor_gap"]
    dark = blacked_out_sequence(sequence, 120, 150)
    result = run_pipeline(dark, params, "adaptive")
    assert result.track_lost_frame is None
    for prev, frame in zip(result.frames[119:149], result.frames[120:150]):
        assert frame.stats.n_det == frame.stats.n_trk == 0
        predicted = compose(prev.pose, dark.records[frame.id].dr_delta)
        assert np.linalg.norm(frame.pose.t - predicted.t) <= 1e-9
