"""Exception hierarchy shared across the package, and the finiteness check
that every config dataclass runs on its float fields."""
import dataclasses
import math


class MindkitError(Exception):
    """Base class for every failure raised deliberately by mindkit."""


class GraphError(MindkitError):
    """Invalid graph structure, shape mismatch, or bad leaf binding."""


class DataError(MindkitError):
    """Malformed dataset file or inconsistent dataset contents."""


class TrainingError(MindkitError):
    """Optimization failed: non-finite loss or an impossible configuration."""


class AnalysisError(MindkitError):
    """Degenerate input to a statistical or closed-form routine."""


def require_finite(config, error: type[MindkitError]) -> None:
    """Raise `error` if a float field of dataclass `config` is NaN or
    infinite (JSON configs may hold NaN and Infinity)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
