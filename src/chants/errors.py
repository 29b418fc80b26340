"""Exception types shared across the package, and the one check of what a
config field may hold.

Every config dataclass (``EncoderConfig``, ``LossWeights``, ``AugmentConfig``
and ``TrainConfig``) calls :func:`check_fields` from ``__post_init__``, so a
value it may not hold is refused at construction with a ``ConfigError``
naming the field, whether the config is built in Python, from a config file
or from a checkpoint. Each field is checked for its type, then finiteness,
then its declared bound, in field order, and the first failure is raised.

- Type: an ``int`` field takes only a Python ``int`` (not a ``bool``, nor a
  numpy integer, which the JSON writer cannot store); a ``float`` field
  takes an ``int`` or a ``float``, not a ``bool``; a ``bool``, ``str`` or
  nested config field takes its own type; a ``tuple[int, int]`` field takes
  a tuple of two such ints.
- Finiteness: a ``float`` value must be finite.
- Bound: a field declared as ``field(metadata={">=": 1})`` or
  ``field(metadata={">": 0})`` refuses a value past it, as
  ``k_ntp must be >= 1, got 0``.

Rules that tie two fields together, or that bound a field on both sides,
stay in the dataclass's own ``__post_init__``, after this check.
"""

import dataclasses
import functools
import math
import operator
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


_BOUNDS = {">=": operator.ge, ">": operator.gt}


def check_fields(config) -> None:
    """Raise ``ConfigError`` unless every field of the dataclass ``config``
    holds a value of its type, finite if a float, and within the bound its
    ``metadata`` declares; fields are checked in order."""
    kinds = field_types(type(config))
    for f in dataclasses.fields(config):
        name, kind, value = f.name, kinds[f.name], getattr(config, f.name)
        if not _fits(value, kind):
            type_name = str(kind) if typing.get_origin(kind) else kind.__name__
            raise ConfigError(f"config field '{name}' must be {type_name}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        for op, holds in _BOUNDS.items():
            if op in f.metadata and not holds(value, f.metadata[op]):
                raise ConfigError(f"{name} must be {op} {f.metadata[op]}, got {value!r}")
