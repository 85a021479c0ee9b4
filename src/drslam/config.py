"""Run configuration: plain-text key=value files with section headers.

A key exists only for a value that a bundled config, the benchmark or a
production caller varies, or for a parameter of the weight model (the
``quality.*`` keys). The estimator's fixed settings are named constants: the
tracking, keyframe, local BA and loop thresholds and each solve level's LM
caps in ``pipeline``, the LM settings every solve shares in ``optimizer``.

Resolution is layered: built-in defaults, then the config file, then
command-line ``--set section.key=value`` overrides. The defaults are those of
``PipelineParams`` and ``WorldConfig``; each estimator key names the
``PipelineParams`` fields it sets. Unknown keys (a fixed setting has none)
and ill-typed, NaN or out-of-range values are rejected with the offending key
and line. The resolved config is echoed into every output directory;
re-running from the echo reproduces outputs byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

from .errors import ConfigError
from .fileio import fmt
from .pipeline import MODES, PipelineParams
from .simulator import WORLD_FIELDS, WorldConfig, WorldConfigError


def _mode(s: str) -> str:
    if s not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {s!r}")
    return s


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
    "tracking.pixel_std": (float, fmt, ("pixel_std",)),
    "tracking.fixed_alpha": (float, fmt, ("fixed_alpha",)),
    "solver.initial_damping": (float, fmt, ("initial_damping",)),
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


def _checked(obj, values: dict, keys):
    """replace(obj, **values), whose ValueError becomes a ConfigError naming keys."""
    try:
        return replace(obj, **values)
    except ValueError as e:
        raise ConfigError(f"{e}; set by {', '.join(keys)}") from None


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
        """PipelineParams() with the fields each key names set to its value.
        Each nested group is rebuilt once, so it validates its fields
        together, and each top-level field is checked on its own; a value
        rejected raises ConfigError naming the keys that set it."""
        top, groups, keys = {}, {}, {}
        for key, (_, _, fields) in SCHEMA.items():
            for path in fields:
                group, _, name = path.rpartition(".")
                (groups.setdefault(group, {}) if group else top)[name] = self.values[key]
                keys.setdefault(group or name, []).append(key)
        params = PipelineParams()
        for group, values in groups.items():
            groups[group] = _checked(getattr(params, group), values, keys[group])
        for name, value in top.items():
            _checked(params, {name: value}, keys[name])
        return replace(params, **top, **groups)

    def world_config(self, seed=None) -> WorldConfig:
        """WorldConfig of the world.* keys and the seed, run.seed unless given;
        a value it rejects raises ConfigError naming the keys that set it."""
        fields = {name: self.values[f"world.{name}"] for name in WORLD_FIELDS if name != "seed"}
        try:
            return WorldConfig(**fields, seed=self.seed if seed is None else seed)
        except WorldConfigError as e:
            keys = ("run.seed" if name == "seed" else f"world.{name}" for name in e.fields)
            raise ConfigError(f"{e}; set by {', '.join(keys)}") from None

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
