"""Run configuration: plain-text key=value files with section headers.

Resolution is layered: built-in defaults, then the config file, then
command-line ``--set section.key=value`` overrides. Unknown, ill-typed or
out-of-range keys are rejected with the offending key and line. The resolved
config is echoed into every output directory; re-running from the echo
reproduces outputs byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .factors import HUBER_PIXEL_SCALE
from .fileio import fmt, fmt_bool, parse_bool
from .optimizer import SolverConfig
from .pipeline import MODES, PipelineParams
from .simulator import WORLD_FIELDS, WorldConfig
from .weighting import NominalDrInformation, QualityParams, WeightBounds


def _positive(s: str) -> float:
    value = float(s)
    if not value > 0:
        raise ValueError("must be positive")
    return value


def _mode(s: str) -> str:
    if s not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {s!r}")
    return s


_WORLD_DEFAULTS = WorldConfig()

# section.key -> (parse, format, default)
SCHEMA = {
    "run.mode": (_mode, str, "adaptive"),
    "run.seed": (int, str, 0),
    "quality.omega1": (float, fmt, 0.5),
    "quality.omega2": (float, fmt, 0.5),
    "quality.n_det_ref": (int, str, 600),
    "quality.n_trk_ref": (int, str, 120),
    "quality.alpha_min": (float, fmt, 0.1),
    "quality.alpha_max": (float, fmt, 1000.0),
    "quality.sigma_t": (float, fmt, 0.004),
    "quality.sigma_r_deg": (float, fmt, 0.1),
    "quality.c_ref_init": (float, fmt, 20.0),
    "quality.c_ref_window": (int, str, 10),
    "quality.q_well": (float, fmt, 0.8),
    "quality.smoothing_halfwidth": (int, str, 2),
    "tracking.pixel_std": (_positive, fmt, 1.0),
    "tracking.huber_scale": (_positive, fmt, HUBER_PIXEL_SCALE),
    "tracking.search_radius": (float, fmt, 15.0),
    "tracking.min_inliers": (int, str, 10),
    "tracking.lost_frames": (int, str, 5),
    "tracking.fixed_alpha": (_positive, fmt, 1.0),
    "keyframes.k_max": (int, str, 15),
    "keyframes.overlap_ratio": (float, fmt, 0.5),
    "keyframes.d_max": (float, fmt, 0.5),
    "keyframes.kf_min_trk": (int, str, 15),
    "keyframes.kf_min_det": (int, str, 50),
    "keyframes.max_local_keyframes": (int, str, 10),
    "keyframes.max_anchor_keyframes": (int, str, 15),
    "loop.enabled": (parse_bool, fmt_bool, True),
    "loop.radius": (float, fmt, 0.5),
    "loop.gap_min": (int, str, 30),
    "loop.info_scale": (float, fmt, 100.0),
    "loop.cooldown": (int, str, 30),
    "solver.max_iterations": (int, str, 20),
    "solver.motion_max_iterations": (int, str, 10),
    "solver.lba_max_iterations": (int, str, 8),
    "solver.lba_cost_tolerance": (float, fmt, 1e-6),
    "solver.initial_damping": (float, fmt, 1e-4),
    "solver.damping_up": (float, fmt, 10.0),
    "solver.damping_down": (float, fmt, 0.5),
    "solver.cost_tolerance": (float, fmt, 1e-8),
    "solver.step_tolerance": (float, fmt, 1e-10),
    **{f"world.{name}": (parse, render, getattr(_WORLD_DEFAULTS, name))
       for name, (parse, render) in WORLD_FIELDS.items() if name != "seed"},
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, (_, _, default) in SCHEMA.items():
            self.values.setdefault(key, default)

    def __getitem__(self, key: str):
        return self.values[key]

    def set(self, key: str, raw: str, line=None):
        if key not in SCHEMA:
            raise ConfigError("unknown configuration key", key=key, line=line)
        parse = SCHEMA[key][0]
        try:
            self.values[key] = parse(raw.strip())
        except (ValueError, IndexError) as e:
            raise ConfigError(f"invalid value {raw.strip()!r}: {e}", key=key, line=line) from e

    @property
    def mode(self) -> str:
        return self.values["run.mode"]

    @property
    def seed(self) -> int:
        return self.values["run.seed"]

    def pipeline_params(self) -> PipelineParams:
        v = self.values
        return PipelineParams(
            quality=QualityParams(v["quality.omega1"], v["quality.omega2"],
                                  v["quality.n_det_ref"], v["quality.n_trk_ref"]),
            bounds=WeightBounds(v["quality.alpha_min"], v["quality.alpha_max"]),
            nominal=NominalDrInformation.from_degrees(v["quality.sigma_t"],
                                                      v["quality.sigma_r_deg"]),
            pixel_std=v["tracking.pixel_std"],
            huber_scale=v["tracking.huber_scale"],
            search_radius=v["tracking.search_radius"],
            min_inliers=v["tracking.min_inliers"],
            lost_frames=v["tracking.lost_frames"],
            fixed_alpha=v["tracking.fixed_alpha"],
            k_max=v["keyframes.k_max"],
            overlap_ratio=v["keyframes.overlap_ratio"],
            d_max=v["keyframes.d_max"],
            kf_min_trk=v["keyframes.kf_min_trk"],
            kf_min_det=v["keyframes.kf_min_det"],
            q_well=v["quality.q_well"],
            c_ref_init=v["quality.c_ref_init"],
            c_ref_window=v["quality.c_ref_window"],
            smoothing_halfwidth=v["quality.smoothing_halfwidth"],
            max_local_keyframes=v["keyframes.max_local_keyframes"],
            max_anchor_keyframes=v["keyframes.max_anchor_keyframes"],
            loop_enabled=v["loop.enabled"],
            loop_radius=v["loop.radius"],
            loop_gap_min=v["loop.gap_min"],
            loop_info_scale=v["loop.info_scale"],
            loop_cooldown=v["loop.cooldown"],
            motion_solver=SolverConfig(
                max_iterations=v["solver.motion_max_iterations"],
                initial_damping=v["solver.initial_damping"],
                damping_up=v["solver.damping_up"],
                damping_down=v["solver.damping_down"],
                cost_tolerance=v["solver.cost_tolerance"],
                step_tolerance=v["solver.step_tolerance"]),
            ba_solver=SolverConfig(
                max_iterations=v["solver.lba_max_iterations"],
                initial_damping=v["solver.initial_damping"],
                damping_up=v["solver.damping_up"],
                damping_down=v["solver.damping_down"],
                cost_tolerance=v["solver.lba_cost_tolerance"],
                step_tolerance=v["solver.step_tolerance"]),
            gba_solver=SolverConfig(
                max_iterations=v["solver.max_iterations"],
                initial_damping=v["solver.initial_damping"],
                damping_up=v["solver.damping_up"],
                damping_down=v["solver.damping_down"],
                cost_tolerance=v["solver.cost_tolerance"],
                step_tolerance=v["solver.step_tolerance"]),
        )

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
