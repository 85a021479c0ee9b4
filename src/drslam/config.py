"""Run configuration: plain-text key=value files with section headers.

Resolution is layered: built-in defaults, then the config file, then
command-line ``--set section.key=value`` overrides. The defaults are those of
``PipelineParams`` and ``WorldConfig``; each estimator key names the
``PipelineParams`` fields it sets. Unknown, ill-typed, NaN or out-of-range
keys are rejected with the offending key and line. The resolved config is
echoed into every output directory; re-running from the echo reproduces
outputs byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

from .errors import ConfigError
from .fileio import fmt, fmt_bool, parse_bool
from .pipeline import MODES, PipelineParams
from .simulator import WORLD_FIELDS, WorldConfig


def _positive(s: str) -> float:
    value = float(s)
    if not value > 0:
        raise ValueError("must be positive")
    return value


def _mode(s: str) -> str:
    if s not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {s!r}")
    return s


def _solvers(name: str, levels=("motion_solver", "ba_solver", "gba_solver")) -> tuple:
    return tuple(f"{level}.{name}" for level in levels)


# section.key -> (parse, format, the dotted PipelineParams fields the key sets,
# none for the run.* and world.* keys)
SCHEMA = {
    "run.mode": (_mode, str, ()),
    "run.seed": (int, str, ()),
    "quality.omega1": (float, fmt, ("quality.omega1",)),
    "quality.omega2": (float, fmt, ("quality.omega2",)),
    "quality.n_det_ref": (int, str, ("quality.n_det_ref",)),
    "quality.n_trk_ref": (int, str, ("quality.n_trk_ref",)),
    "quality.alpha_min": (float, fmt, ("bounds.alpha_min",)),
    "quality.alpha_max": (float, fmt, ("bounds.alpha_max",)),
    "quality.sigma_t": (float, fmt, ("nominal.sigma_t",)),
    "quality.sigma_r_deg": (float, fmt, ("nominal.sigma_r_deg",)),
    "quality.c_ref_init": (float, fmt, ("c_ref_init",)),
    "quality.c_ref_window": (int, str, ("c_ref_window",)),
    "quality.q_well": (float, fmt, ("q_well",)),
    "quality.smoothing_halfwidth": (int, str, ("smoothing_halfwidth",)),
    "tracking.pixel_std": (_positive, fmt, ("pixel_std",)),
    "tracking.huber_scale": (_positive, fmt, ("huber_scale",)),
    "tracking.search_radius": (float, fmt, ("search_radius",)),
    "tracking.min_inliers": (int, str, ("min_inliers",)),
    "tracking.lost_frames": (int, str, ("lost_frames",)),
    "tracking.fixed_alpha": (_positive, fmt, ("fixed_alpha",)),
    "keyframes.k_max": (int, str, ("k_max",)),
    "keyframes.overlap_ratio": (float, fmt, ("overlap_ratio",)),
    "keyframes.d_max": (float, fmt, ("d_max",)),
    "keyframes.kf_min_trk": (int, str, ("kf_min_trk",)),
    "keyframes.kf_min_det": (int, str, ("kf_min_det",)),
    "keyframes.max_local_keyframes": (int, str, ("max_local_keyframes",)),
    "keyframes.max_anchor_keyframes": (int, str, ("max_anchor_keyframes",)),
    "loop.enabled": (parse_bool, fmt_bool, ("loop_enabled",)),
    "loop.radius": (float, fmt, ("loop_radius",)),
    "loop.gap_min": (int, str, ("loop_gap_min",)),
    "loop.info_scale": (float, fmt, ("loop_info_scale",)),
    "loop.cooldown": (int, str, ("loop_cooldown",)),
    "solver.max_iterations": (int, str, ("gba_solver.max_iterations",)),
    "solver.motion_max_iterations": (int, str, ("motion_solver.max_iterations",)),
    "solver.lba_max_iterations": (int, str, ("ba_solver.max_iterations",)),
    "solver.lba_cost_tolerance": (float, fmt, ("ba_solver.cost_tolerance",)),
    "solver.initial_damping": (float, fmt, _solvers("initial_damping")),
    "solver.damping_up": (float, fmt, _solvers("damping_up")),
    "solver.damping_down": (float, fmt, _solvers("damping_down")),
    "solver.cost_tolerance": (float, fmt, _solvers("cost_tolerance", ("motion_solver", "gba_solver"))),
    "solver.step_tolerance": (float, fmt, _solvers("step_tolerance")),
    **{f"world.{name}": (parse, render, ())
       for name, (parse, render) in WORLD_FIELDS.items() if name != "seed"},
}

# A key's default is the PipelineParams() value of the fields it sets; the
# world.* keys take theirs from WorldConfig().
_PARAMS, _WORLD = PipelineParams(), WorldConfig()
DEFAULTS = {
    "run.mode": "adaptive",
    "run.seed": 0,
    **{key: reduce(getattr, fields[0].split("."), _PARAMS)
       for key, (_, _, fields) in SCHEMA.items() if fields},
    **{f"world.{name}": getattr(_WORLD, name) for name in WORLD_FIELDS if name != "seed"},
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in SCHEMA:
            self.values.setdefault(key, DEFAULTS[key])

    def __getitem__(self, key: str):
        return self.values[key]

    def set(self, key: str, raw: str, line=None):
        if key not in SCHEMA:
            raise ConfigError("unknown configuration key", key=key, line=line)
        parse = SCHEMA[key][0]
        try:
            value = parse(raw.strip())
            if isinstance(value, float) and math.isnan(value):
                raise ValueError("NaN is not accepted")
        except (ValueError, IndexError) as e:
            raise ConfigError(f"invalid value {raw.strip()!r}: {e}", key=key, line=line) from e
        self.values[key] = value

    @property
    def mode(self) -> str:
        return self.values["run.mode"]

    @property
    def seed(self) -> int:
        return self.values["run.seed"]

    def pipeline_params(self) -> PipelineParams:
        """PipelineParams() with the fields each key names set to its value;
        each nested group is rebuilt once, so it validates its fields together."""
        top, groups = {}, {}
        for key, (_, _, fields) in SCHEMA.items():
            for path in fields:
                group, _, name = path.rpartition(".")
                (groups.setdefault(group, {}) if group else top)[name] = self.values[key]
        params = PipelineParams()
        return replace(params, **top, **{group: replace(getattr(params, group), **values)
                                         for group, values in groups.items()})

    def world_config(self, seed=None) -> WorldConfig:
        fields = {name: self.values[f"world.{name}"] for name in WORLD_FIELDS if name != "seed"}
        return WorldConfig(**fields, seed=self.seed if seed is None else seed)

    def echo(self) -> str:
        lines = []
        last_section = None
        for key in sorted(SCHEMA):
            section, _, name = key.partition(".")
            if section != last_section:
                if last_section is not None:
                    lines.append("")
                lines.append(f"[{section}]")
                last_section = section
            render = SCHEMA[key][1]
            lines.append(f"{name} = {render(self.values[key])}")
        return "\n".join(lines) + "\n"


def parse_config(path=None, overrides=()) -> RunConfig:
    """Layered resolution: defaults, then the file, then overrides.

    Overrides are ``section.key=value`` strings from the command line.
    """
    config = RunConfig()
    if path is not None:
        section = None
        with open(path) as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("["):
                    if not line.endswith("]"):
                        raise ConfigError("unterminated section header", line=lineno)
                    section = line[1:-1].strip()
                    continue
                if "=" not in line:
                    raise ConfigError("expected 'key = value'", line=lineno)
                name, _, value = line.partition("=")
                key = f"{section}.{name.strip()}" if section else name.strip()
                config.set(key, value, line=lineno)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        key, _, value = item.partition("=")
        config.set(key.strip(), value)
    return config
