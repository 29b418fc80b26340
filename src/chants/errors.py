"""Exception types shared across the package, and the one check of what a
config field may hold.

Every config dataclass (``EncoderConfig``, ``LossWeights``, ``AugmentConfig``
and ``TrainConfig``) calls :func:`check_fields` from ``__post_init__``, so a
value of the wrong type is refused at construction with a ``ConfigError``
naming the field, whether the config is built in Python, from a config file
or from a checkpoint. An ``int`` field takes only a Python ``int`` (not a
``bool``, nor a numpy integer, which the JSON writer cannot store); a
``float`` field takes an ``int`` or a finite ``float``, not a ``bool``; a
``bool``, ``str`` or nested config field takes its own type; a
``tuple[int, int]`` field takes a tuple of two such ints.
"""

import dataclasses
import functools
import math
import typing


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


@functools.cache
def field_types(cls) -> dict[str, object]:
    """``{field name: resolved annotation}`` of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _fits(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    return isinstance(value, kind)


def check_fields(config) -> None:
    """Raise ``ConfigError`` unless every field of the dataclass ``config`` holds a value of its type."""
    for name, kind in field_types(type(config)).items():
        value = getattr(config, name)
        if not _fits(value, kind):
            type_name = str(kind) if typing.get_origin(kind) else kind.__name__
            raise ConfigError(f"config field '{name}' must be {type_name}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
