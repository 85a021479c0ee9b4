import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import drslam.config
import drslam.fileio
import drslam.pipeline
import drslam.simulator
from drslam.cli import BLAS_THREAD_ENV, _sweep_pool, main
from drslam.config import SCHEMA, RunConfig, parse_config
from drslam.errors import ConfigError, Diverged, FormatError
from drslam.fileio import read_tum
from drslam.pipeline import MODES, SOLVE_COUNTS, PipelineParams
from drslam.simulator import Dropout, read_sequence


def write_world(path, extra=""):
    path.write_text(
        "[world]\n"
        "waypoints = 0,0; 5,0\n"
        "n_frames = 80\n"
        "density = 0:60\n"
        "clutter = 100\n"
        "pixel_noise = 0.5\n"
        "dr_sigma_t = 0.003\n"
        "dr_sigma_r_deg = 0.1\n"
        "depth_max = 5\n" + extra)
    return str(path)


def test_config_defaults(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    config = parse_config(str(empty))
    assert config["quality.omega1"] == 0.5
    assert config["quality.omega2"] == 0.5
    assert config["quality.n_det_ref"] == 600
    assert config["quality.n_trk_ref"] == 120
    assert config["quality.alpha_min"] == 0.1
    assert config["quality.alpha_max"] == 1000.0
    assert config["quality.sigma_t"] == 0.004
    assert config["quality.sigma_r_deg"] == 0.1
    assert config["quality.c_ref_init"] == 20.0
    assert config["run.mode"] == "adaptive"


def test_config_override_reflected_in_echo(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    config = parse_config(str(empty), overrides=["quality.alpha_max=100"])
    assert config["quality.alpha_max"] == 100.0
    assert "alpha_max = 100" in config.echo()


def test_config_unknown_key_reports_key_and_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[quality]\nomega1 = 0.5\nalpha_mx = 7\n")
    with pytest.raises(ConfigError) as e:
        parse_config(str(bad))
    assert "quality.alpha_mx" in str(e.value)
    assert "line 3" in str(e.value)


def test_config_ill_typed_value(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[quality]\nomega1 = fast\n")
    with pytest.raises(ConfigError) as e:
        parse_config(str(bad))
    assert "omega1" in str(e.value)


def _fields(params, prefix=""):
    """Dotted field name -> value over PipelineParams and its nested groups."""
    out = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_fields(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def _other_value(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        # the next float up keeps omega1 + omega2 within QualityParams' 1e-12 of 1
        return math.nextafter(value, math.inf)
    return value + 1


def test_config_defaults_are_the_pipeline_params_defaults():
    assert RunConfig().pipeline_params() == PipelineParams()
    defaults = _fields(PipelineParams())
    for key, (_, render, fields) in SCHEMA.items():
        assert bool(fields) == (key.partition(".")[0] not in ("run", "world")), key
        if not fields:
            continue
        # every field a key sets has the key's default
        assert {repr(defaults[name]) for name in fields} == {repr(RunConfig()[key])}, key
        config = RunConfig()
        config.set(key, render(_other_value(config[key])))
        changed = {name for name, value in _fields(config.pipeline_params()).items()
                   if value != defaults[name]}
        assert changed == set(fields), key


KEPT_KEYS = [
    "quality.alpha_max", "quality.alpha_min", "quality.c_ref_init", "quality.c_ref_window",
    "quality.n_det_ref", "quality.n_trk_ref", "quality.omega1", "quality.omega2",
    "quality.q_well", "quality.sigma_r_deg", "quality.sigma_t", "quality.smoothing_halfwidth",
    "run.mode", "run.seed", "solver.initial_damping", "tracking.fixed_alpha",
    "tracking.pixel_std", "world.closed", "world.clutter", "world.density", "world.depth_max",
    "world.depth_min", "world.detection_cap", "world.dr_bias_r_deg", "world.dr_bias_t",
    "world.dr_sigma_r_deg", "world.dr_sigma_t", "world.dropouts", "world.fps",
    "world.n_frames", "world.pixel_noise", "world.waypoints"]


def test_schema_holds_only_the_settings_runs_vary(tmp_path):
    # a key exists only for a value that runs vary; the estimator's fixed
    # settings are constants, and a file or echo that sets one of them is
    # rejected as an unknown key, not read in part
    assert sorted(SCHEMA) == KEPT_KEYS
    for section, name in [("tracking", "search_radius"), ("keyframes", "k_max"),
                          ("loop", "enabled"), ("solver", "max_iterations")]:
        old = tmp_path / "old.cfg"
        old.write_text(f"[tracking]\npixel_std = 1.5\n[{section}]\n{name} = 1\n")
        with pytest.raises(ConfigError, match="unknown configuration key") as e:
            parse_config(str(old))
        assert f"{section}.{name}" in str(e.value) and "line 4" in str(e.value)


def test_config_rejects_nan_in_every_float_key(tmp_path):
    float_keys = [key for key, (parse, _, _) in SCHEMA.items() if parse is float]
    assert {"solver.initial_damping", "tracking.pixel_std", "world.fps"} <= set(float_keys)
    for key in float_keys:
        section, _, name = key.partition(".")
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{name} = nan\n")
        with pytest.raises(ConfigError) as e:
            parse_config(str(bad))
        assert key in str(e.value) and "line 2" in str(e.value)
        with pytest.raises(ConfigError) as e:
            parse_config(overrides=[f"{key}=NaN"])
        assert key in str(e.value)


floats = st.floats(allow_nan=False)
float_pairs = st.lists(st.tuples(floats, floats), min_size=1)
# one strategy per SCHEMA parser, drawing the values that parser returns
PARSED_VALUES = {
    drslam.config._mode: st.sampled_from(MODES),
    int: st.integers(),
    float: floats,
    drslam.fileio.parse_bool: st.booleans(),
    drslam.simulator.WORLD_FIELDS["waypoints"][0]: float_pairs,
    drslam.simulator.WORLD_FIELDS["density"][0]: float_pairs,
    drslam.simulator._parse_vec3: st.tuples(floats, floats, floats),
    drslam.simulator._parse_dropouts: st.lists(st.builds(
        Dropout, st.integers(), st.integers(), st.integers(), st.booleans())),
}


# a failing draw is reported as drawn: shrinking some 60 values takes minutes
@settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
@given(st.fixed_dictionaries({key: PARSED_VALUES[parse] for key, (parse, _, _) in SCHEMA.items()}))
def test_config_echo_round_trip(values):
    config = RunConfig(dict(values))
    with tempfile.TemporaryDirectory() as tmp:
        echo_path = os.path.join(tmp, "echo.cfg")
        with open(echo_path, "w") as f:
            f.write(config.echo())
        back = parse_config(echo_path)
    assert back.values == config.values
    # the same types and float bits too, -0.0 included
    assert {k: repr(v) for k, v in back.values.items()} == \
        {k: repr(v) for k, v in config.values.items()}
    assert back.echo() == config.echo()


@pytest.mark.parametrize("args, keys", [
    (["--set", "world.fps=0"], ["world.fps"]),
    (["--set", "world.fps=-30"], ["world.fps"]),
    (["--set", "world.fps=inf"], ["world.fps"]),
    (["--set", "world.n_frames=0"], ["world.n_frames"]),
    (["--set", "world.depth_min=9"], ["world.depth_min", "world.depth_max"]),
    (["--set", "world.depth_min=-0.5"], ["world.depth_min", "world.depth_max"]),
    (["--set", "world.depth_max=inf"], ["world.depth_min", "world.depth_max"]),
    (["--set", "world.clutter=-1"], ["world.clutter"]),
    (["--set", "world.detection_cap=0"], ["world.detection_cap"]),
    (["--set", "world.pixel_noise=-1"], ["world.pixel_noise"]),
    (["--set", "world.waypoints=0,0;nan,0"], ["world.waypoints"]),
    (["--set", "world.waypoints=0,0;inf,0"], ["world.waypoints"]),
    (["--set", "world.dr_bias_t=nan,0,0"], ["world.dr_bias_t"]),
    (["--set", "world.dr_bias_r_deg=0,-inf,0"], ["world.dr_bias_r_deg"]),
    (["--set", "world.dropouts=5:9:-3:0"], ["world.dropouts"]),
    (["--set", "world.dropouts=9:5:0:0"], ["world.dropouts"]),
    (["--set", "world.dropouts=-2:5:0:0"], ["world.dropouts"]),
    (["--seed", "-1"], ["run.seed"]),
    (["--set", "world.density=0:80;-5:3"], ["world.density"]),
    (["--set", "world.density=0:inf"], ["world.density"]),
    (["--set", "world.density=0:80;40:3;20:5"], ["world.density"]),
    (["--set", "world.density=nan:80"], ["world.density"])])
def test_simulate_out_of_range_world_exits_two(tmp_path, capsys, args, keys):
    # a world setting the simulator cannot run is a config error that names
    # its keys, not a traceback, and makes no output directory
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    out = tmp_path / "seq"
    assert main(["simulate", "--config", cfg, "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert all(key in err for key in keys)
    assert not out.exists()


def test_simulate_and_run_dr_only_equals_odometry(tmp_path):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    assert main(["simulate", "--config", cfg, "--out", seq_dir]) == 0
    run_dir = str(tmp_path / "run")
    assert main(["run", "--seq", seq_dir, "--mode", "dr-only", "--out", run_dir]) == 0
    est = read_tum(os.path.join(run_dir, "est_frames.tum"))
    odom = read_tum(os.path.join(seq_dir, "odom.tum"))
    assert len(est) == len(odom)
    for (_, a), (_, b) in zip(est, odom):
        assert np.linalg.norm(a.t - b.t) < 1e-9
        assert a.rotation_angle() == pytest.approx(b.rotation_angle(), abs=1e-9)


def test_run_log_one_row_per_frame(tmp_path):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    run_dir = str(tmp_path / "run")
    assert main(["run", "--seq", seq_dir, "--out", run_dir]) == 0
    lines = open(os.path.join(run_dir, "run_log.csv")).read().splitlines()
    assert lines[0] == "frame_id,timestamp,n_det,n_trk,n_cand,q,alpha,iterations,tracked_ok"
    assert len(lines) == 1 + 80
    assert os.path.exists(os.path.join(run_dir, "config.cfg"))
    assert os.path.exists(os.path.join(run_dir, "map.gwmap"))


def read_metrics(out):
    rows = open(os.path.join(out, "metrics.csv")).read().splitlines()[1:]
    return dict(row.split(",", 1) for row in rows)


def test_run_counts_failed_local_ba(tmp_path, monkeypatch):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    solve_local_ba = drslam.pipeline.solve_local_ba
    calls, capped = [], []

    def first_call_diverges(problem, config=None):
        calls.append(len(problem.poses))
        if len(calls) == 1:
            raise Diverged("forced failure")
        report = solve_local_ba(problem, config)
        capped.append(report.termination == "max_iterations")
        return report

    monkeypatch.setattr("drslam.pipeline.solve_local_ba", first_call_diverges)
    out = str(tmp_path / "run")
    assert main(["run", "--seq", seq_dir, "--out", out, "--config", cfg]) == 0
    assert len(calls) > 1
    metrics = read_metrics(out)
    assert metrics["motion_failed"] == "0"
    assert metrics["lba_failed"] == "1"
    assert metrics["gba_failed"] == "0"
    # a failed solve is not a capped one
    assert metrics["lba_capped"] == str(sum(capped))
    assert metrics["gba_capped"] == "0"
    # every count of the run, in the order of SOLVE_COUNTS, after the run's summary
    assert list(metrics)[6:6 + len(SOLVE_COUNTS)] == list(SOLVE_COUNTS)
    assert int(metrics["behind_dropped"]) >= 0


def test_run_counts_motion_only_fallbacks(tmp_path, monkeypatch):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    solve_motion_only = drslam.pipeline.solve_motion_only
    calls = []

    def first_call_diverges(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise Diverged("forced failure")
        return solve_motion_only(*args, **kwargs)

    monkeypatch.setattr("drslam.pipeline.solve_motion_only", first_call_diverges)
    out = str(tmp_path / "run")
    assert main(["run", "--seq", seq_dir, "--out", out, "--config", cfg]) == 0
    assert len(calls) > 1
    assert read_metrics(out)["motion_failed"] == "1"


def test_eval_identical_files_zero_rmse(tmp_path, capsys):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    out = str(tmp_path / "eval")
    assert main(["eval", "--est", os.path.join(seq_dir, "gt.tum"),
                 "--ref", os.path.join(seq_dir, "gt.tum"), "--out", out]) == 0
    metrics = dict(line.split(",") for line in
                   open(os.path.join(out, "metrics.csv")).read().splitlines()[1:])
    assert float(metrics["ape_rmse_m"]) < 1e-12


def test_eval_non_monotone_timestamps_exits_two(tmp_path, capsys):
    # the message names the flag and the path of the file at fault, for
    # either side
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = tmp_path / "seq"
    main(["simulate", "--config", cfg, "--out", str(seq_dir)])
    lines = (seq_dir / "gt.tum").read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    swapped = tmp_path / "swapped.tum"
    swapped.write_text("\n".join(lines) + "\n")
    for side in ("--est", "--ref"):
        files = {"--est": str(seq_dir / "gt.tum"), "--ref": str(seq_dir / "gt.tum"),
                 side: str(swapped)}
        assert main(["eval", "--est", files["--est"], "--ref", files["--ref"],
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "strictly increasing" in err
        assert f"{side} {swapped}:" in err
        assert not (tmp_path / "o").exists()


def test_sweep_csv_shape(tmp_path):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--seq", seq_dir, "--alphas=-1,1", "--repeats", "2",
                 "--out", out, "--config", cfg]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines[0] == "log_alpha,repeat,rmse,median"
    assert len(lines) == 1 + 2 * 2


def test_repeat_csv_shape(tmp_path):
    cfg = write_world(tmp_path / "w.cfg", extra="closed = true\n"
                      "waypoints = 0.5,0; 2.5,0; 3,0.5; 3,1.5; 2.5,2; 0.5,2; 0,1.5; 0,0.5\n")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    out = str(tmp_path / "repeat")
    assert main(["repeat", "--seq", seq_dir, "--loops", "2", "--out", out,
                 "--config", cfg]) == 0
    lines = open(os.path.join(out, "repeat.csv")).read().splitlines()
    assert lines[0] == "loop,frame_rmse,r_f_kf"
    assert len(lines) == 3


def test_run_outputs_byte_identical_across_reruns(tmp_path):
    cfg = write_world(tmp_path / "w.cfg")
    seq_a, seq_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    main(["simulate", "--config", cfg, "--out", seq_a, "--seed", "3"])
    main(["simulate", "--config", cfg, "--out", seq_b, "--seed", "3"])
    ra, rb = str(tmp_path / "ra"), str(tmp_path / "rb")
    main(["run", "--seq", seq_a, "--out", ra, "--config", cfg])
    main(["run", "--seq", seq_b, "--out", rb, "--config", cfg])
    for name in ("est_frames.tum", "est_keyframes.tum", "run_log.csv",
                 "map.gwmap", "config.cfg", "metrics.csv"):
        a = open(os.path.join(ra, name), "rb").read()
        b = open(os.path.join(rb, name), "rb").read()
        assert a == b, name


def test_rerun_from_echo_reproduces(tmp_path):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    r1 = str(tmp_path / "r1")
    main(["run", "--seq", seq_dir, "--out", r1, "--config", cfg])
    r2 = str(tmp_path / "r2")
    main(["run", "--seq", seq_dir, "--out", r2,
          "--config", os.path.join(r1, "config.cfg")])
    for name in ("est_frames.tum", "run_log.csv", "config.cfg"):
        assert open(os.path.join(r1, name), "rb").read() == \
            open(os.path.join(r2, name), "rb").read(), name


def test_failed_verdict_exit_code(tmp_path):
    cfg = write_world(tmp_path / "w.cfg",
                      extra="n_frames = 120\ndropouts = 20:110:0:0\n")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    out = str(tmp_path / "run")
    code = main(["run", "--seq", seq_dir, "--mode", "vision-only", "--out", out,
                 "--config", cfg])
    assert code == 1


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["run"])  # missing --seq
    assert e.value.code == 2
    assert main(["run", "--seq", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o")]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[quality]\nnope = 1\n")
    assert main(["simulate", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "s")]) == 2
    capsys.readouterr()
    assert main(["repeat", "--seq", str(tmp_path / "missing"), "--loops", "1",
                 "--out", str(tmp_path / "r")]) == 2
    assert "--loops must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["tracking.pixel_std=0", "tracking.pixel_std=-1.5",
                                     "tracking.fixed_alpha=0", "tracking.fixed_alpha=-1"])
def test_run_nonpositive_pixel_std_or_huber_scale_exits_two(tmp_path, capsys, setting):
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    assert main(["run", "--seq", seq_dir, "--out", str(tmp_path / "o"), "--config", cfg,
                 "--set", setting]) == 2
    err = capsys.readouterr().err
    assert setting.partition("=")[0] in err and "must be positive" in err


@pytest.mark.parametrize("setting", [
    "solver.initial_damping=0", "solver.initial_damping=-1", "solver.initial_damping=inf",
    "solver.initial_damping=1e20",
    "quality.c_ref_window=0", "quality.c_ref_window=-3", "quality.c_ref_init=0",
    "quality.c_ref_init=-5", "quality.c_ref_init=inf", "quality.smoothing_halfwidth=-1",
    "quality.q_well=-0.1", "quality.q_well=1.5", "tracking.pixel_std=inf",
    "tracking.fixed_alpha=inf", "quality.alpha_max=inf", "quality.alpha_min=1e-320",
    "quality.sigma_r_deg=1e-300", "quality.sigma_t=inf"])
def test_run_out_of_range_estimator_setting_exits_two_before_any_output(tmp_path, capsys,
                                                                         setting):
    # values each key's parser accepts but the estimator cannot run with
    # (a damping of 0 would retry a rejected step forever); the run stops on
    # the key before it reads the sequence or writes anything
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", "--seq", seq_dir, "--out", str(out), "--config", cfg,
                 "--set", setting]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("config error: ") and "Traceback" not in captured.err
    assert setting.partition("=")[0] in captured.err


@pytest.mark.parametrize("setting, keys", [
    ("quality.omega1=0.7", ("quality.omega1", "quality.omega2")),
    ("quality.alpha_min=-1", ("quality.alpha_min", "quality.alpha_max"))],
    ids=["weights", "bounds"])
@pytest.mark.parametrize("form", ["set", "file"])
def test_run_group_rejecting_its_values_exits_two(tmp_path, capsys, setting, keys, form):
    # the nested group's own check fails; the error names the keys that set the group
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    if form == "set":
        args = ["--config", cfg, "--set", setting]
    else:
        section, _, entry = setting.partition(".")
        name, _, value = entry.partition("=")
        args = ["--config", write_world(tmp_path / "bad.cfg", f"[{section}]\n{name} = {value}\n")]
    capsys.readouterr()
    assert main(["run", "--seq", seq_dir, "--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert all(key in err for key in keys)


def test_run_malformed_sequence_field_exits_two(tmp_path, capsys):
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = tmp_path / "seq"
    main(["simulate", "--config", cfg, "--out", str(seq_dir)])
    with open(seq_dir / "obs.csv", "a") as f:
        f.write("1,abc,2.0,3.0\n")
    assert main(["run", "--seq", str(seq_dir), "--out", str(tmp_path / "o"),
                 "--config", cfg]) == 2
    assert "obs.csv" in capsys.readouterr().err


@pytest.mark.parametrize("name, edit", [
    ("obs.csv", lambda lines: lines + ["9999,1,2.0,3.0"]),
    ("stats.csv", lambda lines: lines + ["3,40"]),
    ("stats.csv", lambda lines: lines[:4] + lines[5:]),
    ("stats.csv", lambda lines: lines[:6] + ["5,0"] + lines[7:]),
])
def test_run_inconsistent_frame_rows_exit_two(tmp_path, capsys, name, edit):
    # a row outside the sequence, a repeated and a missing frame in stats.csv,
    # and a frame whose n_det is below its obs.csv row count
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = tmp_path / "seq"
    main(["simulate", "--config", cfg, "--out", str(seq_dir)])
    path = seq_dir / name
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main(["run", "--seq", str(seq_dir), "--out", str(tmp_path / "o"),
                 "--config", cfg]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("key, value, named", [
    ("fx", "abc", "fx"),                    # does not parse
    ("fps", None, "fps"),                   # missing
    ("fps", "0", "fps"),                    # WorldConfig rejects it
    ("depth_max", "0.1", "depth_min, depth_max"),
    ("dropouts", "3:4", "dropouts"),
    ("width", "100", "width"),              # CameraIntrinsics rejects it
    ("fx", "inf", "fx"),
    ("pixel_noise", "nan", "pixel_noise"),  # NaN, as in a configuration key
    ("waypoints", "0,0;nan,0", "waypoints"),
    ("dr_bias_t", "nan,0,0", "dr_bias_t"),
    ("dropouts", "9:5:0:0", "dropouts"),
    ("density", "0:80;40:3;20:5", "density"),
], ids=["unparsed", "missing", "world-range", "depth-range", "dropout", "camera-range",
        "camera-inf", "nan", "waypoint-nan", "bias-nan", "dropout-order", "density-order"])
def test_bad_sequence_meta_is_a_format_error(tmp_path, capsys, key, value, named):
    # read_sequence checks every meta entry, so run and sweep exit 2 on a bad
    # one before any frame is processed or any repeat re-simulated
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = tmp_path / "seq"
    main(["simulate", "--config", cfg, "--out", str(seq_dir)])
    meta = seq_dir / "meta"
    lines = [line for line in meta.read_text().splitlines()
             if line.partition("=")[0].strip() != key]
    meta.write_text("\n".join(lines + ([f"{key} = {value}"] if value is not None else [])) + "\n")
    with pytest.raises(FormatError) as e:
        read_sequence(str(seq_dir))
    assert str(meta) in str(e.value) and named in str(e.value)
    capsys.readouterr()
    for command in (["run"], ["sweep", "--alphas", "0", "--repeats", "2"]):
        out = tmp_path / command[0]
        assert main([*command, "--seq", str(seq_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and named in err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--ref", "--seq"])
def test_os_error_on_a_path_exits_two(tmp_path, capsys, flag):
    # a file where a directory belongs and a directory where a file belongs
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = tmp_path / "seq"
    main(["simulate", "--config", cfg, "--out", str(seq_dir)])
    gt, taken = str(seq_dir / "gt.tum"), tmp_path / "taken"
    taken.write_text("")
    args = {"--out": ["eval", "--est", gt, "--ref", gt, "--out", str(taken)],
            "--ref": ["eval", "--est", gt, "--ref", str(seq_dir), "--out", str(tmp_path / "o")],
            "--seq": ["run", "--seq", gt, "--out", str(tmp_path / "o")]}[flag]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bundled_configs_resolve(tmp_path):
    from drslam.cli import resolve_config_path
    for name in ("corridor_gap", "rectangle_loop", "two_lap"):
        path = resolve_config_path(name)
        config = parse_config(path)
        assert config["world.n_frames"] > 0
    with pytest.raises(ConfigError):
        resolve_config_path("no_such_config")


def test_output_root_env(tmp_path, monkeypatch):
    cfg = write_world(tmp_path / "w.cfg")
    monkeypatch.setenv("DRSLAM_OUT", str(tmp_path / "root"))
    assert main(["simulate", "--config", cfg, "--seed", "5"]) == 0
    assert os.path.isdir(tmp_path / "root" / "seq_5")


def test_sweep_jobs_matches_serial(tmp_path):
    cfg = write_world(tmp_path / "w.cfg")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    serial, parallel = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["sweep", "--seq", seq_dir, "--alphas=0,2", "--repeats", "2",
          "--out", serial, "--config", cfg])
    main(["sweep", "--seq", seq_dir, "--alphas=0,2", "--repeats", "2",
          "--out", parallel, "--config", cfg, "--jobs", "2"])
    a = open(os.path.join(serial, "sweep.csv"), "rb").read()
    b = open(os.path.join(parallel, "sweep.csv"), "rb").read()
    assert a == b


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_exits_two(tmp_path, capsys, jobs):
    assert main(["sweep", "--seq", str(tmp_path / "no_seq"), "--out", str(tmp_path / "o"),
                 "--jobs", jobs]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, message", [
    ("--alphas=x", "--alphas must be log10 weights"),
    ("--alphas=0,400", "--alphas must give finite positive weights 10**a, got a = 400.0"),
    ("--alphas=-400", "--alphas must give finite positive weights 10**a, got a = -400.0"),
    ("--alphas=nan", "--alphas must give finite positive weights 10**a, got a = nan"),
    ("--alphas=inf", "--alphas must give finite positive weights 10**a, got a = inf"),
    ("--segment=5", "--segment must be start:stop"),
    ("--segment=8:3", "not a frame range within 0:10"),
    ("--segment=5:11", "not a frame range within 0:10"),
    ("--segment=-1:5", "not a frame range within 0:10"),
    ("--segment=3:5", "--segment 3:5 has 2 frames; APE needs at least 3"),
    ("--repeats=0", "--repeats must be at least 1, got 0"),
])
def test_sweep_bad_alphas_or_segment_exits_two(tmp_path, capsys, flag, message):
    cfg = write_world(tmp_path / "w.cfg", extra="n_frames = 10\n")
    seq_dir = str(tmp_path / "seq")
    main(["simulate", "--config", cfg, "--out", seq_dir])
    assert main(["sweep", "--seq", seq_dir, "--out", str(tmp_path / "o"), "--config", cfg,
                 flag]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_workers_run_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    with _sweep_pool(2) as pool:
        seen = [pool.submit(os.getenv, key).result(timeout=120) for key in BLAS_THREAD_ENV]
    assert seen == ["1"] * len(BLAS_THREAD_ENV)
    # the parent's own environment is restored
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ
