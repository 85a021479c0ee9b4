"""Exception types shared across the package."""


class DrSlamError(Exception):
    """Base class for every package-specific error."""


class AngleNearPi(DrSlamError):
    """Rotation angle too close to pi for a well-defined logarithm."""


class BehindCamera(DrSlamError):
    """Point at or behind the projection near-plane."""


class NotPositiveDefinite(DrSlamError):
    """DR precision entry that is not finite and positive."""


class Diverged(DrSlamError):
    """Optimizer could not decrease the cost from the initial point."""


class NoConstraints(DrSlamError):
    """Free pose has neither visual nor dead-reckoning factors."""


class SingularSystem(DrSlamError):
    """Damped linear system that cannot be solved: a landmark block, or the
    pose system left after eliminating the landmarks (tracking's one-pose
    system included)."""


class DegenerateSpec(DrSlamError):
    """Trajectory specification with coincident waypoints."""


class NonMonotoneTimestamps(DrSlamError):
    """Trajectory timestamps are not strictly increasing."""


class TooFewPairs(DrSlamError):
    """Not enough time-associated samples for trajectory alignment."""


class FormatError(DrSlamError):
    """Malformed sequence, map, or trajectory file."""

    def __init__(self, message: str, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where += f" [{path}"
            where += f":{line}]" if line is not None else "]"
        elif line is not None:
            where += f" [line {line}]"
        super().__init__(message + where)


class ConfigError(DrSlamError):
    """Unknown or ill-typed configuration entry."""

    def __init__(self, message: str, key=None, line=None):
        self.key = key
        self.line = line
        where = ""
        if key is not None:
            where += f" (key '{key}'"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
