import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drslam.errors import FormatError
from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.fileio import fmt, int_column, parse_poses, read_csv, read_tum, write_csv, write_tum
from drslam.simulator import simulate_sequence, write_sequence
from drslam.geometry import Pose

HEADER = ["frame_id", "landmark_id", "u", "v"]


def write_text(path, text):
    path.write_text(text)
    return path


def test_read_csv_returns_float_table(tmp_path):
    path = write_text(tmp_path / "t.csv", "frame_id,landmark_id,u,v\n0,3,1.5,2.25\n\n1,-1,7,8e-3\n")
    table = read_csv(path, HEADER)
    assert table.dtype == np.float64
    assert table.tolist() == [[0.0, 3.0, 1.5, 2.25], [1.0, -1.0, 7.0, 0.008]]


def test_read_csv_header_only_is_empty_without_warning(tmp_path):
    path = write_text(tmp_path / "t.csv", "frame_id,landmark_id,u,v\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_csv(path, HEADER)
    assert table.shape == (0, 4)


@pytest.mark.parametrize("body, line, message", [
    ("0,1,2.0,3.0\n1,abc,2.0,3.0\n", 3, "non-numeric"),
    ("0,1,2.0,3.0\n\n1,2,,3.0\n", 4, "non-numeric"),
    ("0,1,2.0,3.0\n1,2,3.0\n", 3, "expected 4 fields, got 3"),
    ("0,1,2.0,3.0,4.0\n1,2,3.0,4.0\n", 2, "expected 4 fields, got 5"),
    ("0,1,2.0\n1,2,3.0\n", 2, "expected 4 fields, got 3"),
    ("0,1,2.0,3.0\n  \n1,2,3.0,4.0\n", 3, "expected 4 fields, got 1"),
])
def test_read_csv_malformed_row_names_path_and_line(tmp_path, body, line, message):
    path = write_text(tmp_path / "obs.csv", "frame_id,landmark_id,u,v\n" + body)
    with pytest.raises(FormatError) as e:
        read_csv(path, HEADER)
    assert e.value.path == str(path)
    assert e.value.line == line
    assert message in str(e.value)


def test_read_csv_bad_header(tmp_path):
    path = write_text(tmp_path / "t.csv", "frame_id,landmark,u,v\n0,1,2,3\n")
    with pytest.raises(FormatError) as e:
        read_csv(path, HEADER)
    assert e.value.line == 1


@pytest.mark.parametrize("value", ["1.5", "nan", "inf", "1e300"])
def test_int_column_rejects_non_integral(tmp_path, value):
    path = write_text(tmp_path / "t.csv", f"frame_id,landmark_id,u,v\n0,1,2,3\n\n1,{value},2,3\n")
    table = read_csv(path, HEADER)
    assert int_column(table, 0, "frame_id", path).tolist() == [0, 1]
    with pytest.raises(FormatError) as e:
        int_column(table, 1, "landmark_id", path)
    assert e.value.path == str(path)
    assert e.value.line == 4
    assert "landmark_id" in str(e.value)


def test_read_tum_skips_comments_and_blank_lines(tmp_path):
    path = write_text(tmp_path / "t.tum", "# timestamp tx ty tz qx qy qz qw\n\n"
                                          "0.5 1 2 3 0 0 0 1\n# note\n1.0 4 5 6 0 0 -1 0\n")
    rows = read_tum(path)
    assert [ts for ts, _ in rows] == [0.5, 1.0]
    assert rows[0][1].q.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert rows[1][1].t.tolist() == [4.0, 5.0, 6.0]
    assert rows[1][1].q.tolist() == [0.0, 0.0, 0.0, 1.0]  # (w, x, y, z), w >= 0


def test_read_tum_empty_without_warning(tmp_path):
    path = write_text(tmp_path / "t.tum", "# no poses\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_tum(path) == []


@pytest.mark.parametrize("body, line", [
    ("0 1 2 3 0 0 0 1\n1 1 2 3 0 0 1\n", 2),
    ("# c\n0 1 2 3 0 0 0 1\n1 1 2 x 0 0 0 1\n", 3),
    ("0 1 2 3 0 0 0 1 9\n", 1),
])
def test_read_tum_malformed_row_names_path_and_line(tmp_path, body, line):
    path = write_text(tmp_path / "t.tum", body)
    with pytest.raises(FormatError) as e:
        read_tum(path)
    assert e.value.path == str(path)
    assert e.value.line == line


@pytest.mark.parametrize("pose", ["1 2 3 0 0 0 0", "1 2 3 0 nan 0 1", "1 inf 3 0 0 0 1",
                                  "1 2 3 0 0 0 1e200"],
                         ids=["zero-quaternion", "nan-quaternion", "inf-translation",
                              "overflowing-norm"])
def test_read_tum_rejects_a_pose_that_is_not_finite_or_has_a_zero_quaternion(tmp_path, pose):
    # such a quaternion once normalized to a NaN pose with only a warning
    with pytest.raises(FormatError, match="nonzero quaternion") as e:
        parse_poses(pose.split())
    assert e.value.path is None and e.value.line is None
    path = write_text(tmp_path / "t.tum", f"# c\n0 1 2 3 0 0 0 1\n\n0.5 {pose}\n")
    with pytest.raises(FormatError, match="nonzero quaternion") as e:
        read_tum(path)
    assert e.value.path == str(path)
    assert e.value.line == 4


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(finite, st.lists(finite, min_size=3, max_size=3),
                          st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)),
                min_size=1, max_size=12))
def test_tum_round_trip_bit_exact(tmp_path_factory, samples):
    rows = []
    for ts, t, q in samples:
        q = np.array(q)
        if np.linalg.norm(q) < 1e-3:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        rows.append((ts, Pose(q, np.array(t))))
    path = tmp_path_factory.mktemp("tum") / "t.tum"
    write_tum(path, rows)
    back = read_tum(path)
    assert len(back) == len(rows)
    for (ts, pose), (ts2, pose2) in zip(rows, back):
        assert type(ts2) is float and ts2 == ts
        assert pose2.q.tobytes() == pose.q.tobytes()
        assert pose2.t.tobytes() == pose.t.tobytes()



def _per_value_csv(header, rows) -> str:
    """The table text of a writer that formats one value at a time: fmt for a
    float, str for anything else."""
    lines = [",".join(header)]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_writes_the_bytes_of_a_per_value_writer(tmp_path):
    # special floats, numpy scalars (np.float64 is a float, np.float32 and
    # integers are not), strings and rows whose types change from row to row
    rows = [(0, 1, -0.0, 5e-324), (1, 2, 1e308, float("inf")), (2, -3, float("nan"), -1e-300),
            (np.int64(4), np.float64(0.1), np.float32(0.1), np.float64(-0.0)),
            ("a", 2.5, True, None), (7, 0.1 + 0.2, 1.0 / 3.0, -2.0 ** 70), (8, 1, 2, 3),
            (np.float64(np.nan), np.float64(np.inf), np.uint8(255), "x,y")]
    header = ["a", "b", "c", "d"]
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_text() == _per_value_csv(header, rows)


def test_write_csv_writes_a_simulated_sequence_as_a_per_value_writer(tmp_path):
    seq = simulate_sequence(parse_config(resolve_config_path("corridor_gap")).world_config(seed=0))
    write_sequence(seq, tmp_path)
    rows = [(r.frame_id, j, float(u), float(v)) for r in seq.records for j, u, v in r.detections]
    assert len(rows) > 10_000
    assert (tmp_path / "obs.csv").read_text() == _per_value_csv(HEADER, rows)
    world = [(int(j), float(x), float(y), float(z))
             for j, (x, y, z) in zip(seq.world.ids, seq.world.positions)]
    assert len(world) > 1_000 and [j for j, *_ in world] == sorted(j for j, *_ in world)
    assert (tmp_path / "world.csv").read_text() == _per_value_csv(
        ["landmark_id", "x", "y", "z"], world)
