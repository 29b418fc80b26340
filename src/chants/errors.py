"""Exception types shared across the package, and the finiteness check of
every config dataclass."""

import dataclasses
import math


class ChantsError(Exception):
    """Base class for package errors."""


class ShapeError(ChantsError, ValueError):
    """Array dimensions do not satisfy an operation's contract."""


class ConfigError(ChantsError, ValueError):
    """Invalid configuration value or unknown configuration key."""


class DataError(ChantsError, ValueError):
    """Malformed or inconsistent dataset input."""


class CheckpointError(ChantsError, ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def check_finite(config) -> None:
    """Raise ``ConfigError`` if a float field of the dataclass ``config``, or a float in a tuple, is not finite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
