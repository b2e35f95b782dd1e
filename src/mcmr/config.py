"""Field-driven parsing and serialization of the JSON config classes.

A config class is a frozen dataclass deriving from :class:`Config`: each
field's type hint says which JSON value its key takes, and :func:`checked`
adds limits that ``__post_init__`` enforces, for configs built in Python too.
Every violation raises ConfigError naming the offending key's path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
import types
import typing

from .errors import ConfigError

_LIMITS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "one_of": (lambda v, c: v in c, "one of")}
_EXPECTED = {tuple: "a list", dict: "an object", bool: "true or false",
             str: "a string", int: "an integer", float: "a finite number"}


def checked(default=dataclasses.MISSING, **limits):
    """A field whose value (each element, for a tuple) obeys ``ge``/``gt``/``le``/``one_of``."""
    return dataclasses.field(default=default, metadata=limits)


@functools.cache
def _schema(cls) -> dict:
    """``{name: (type hint, required, limits)}``, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name],
                     f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING,
                     tuple((*_LIMITS[key], bound) for key, bound in f.metadata.items()))
            for f in dataclasses.fields(cls)}


@functools.cache
def _shape(hint) -> tuple:
    return typing.get_origin(hint), typing.get_args(hint)


def parse(hint, value, where: str):
    """Convert the JSON ``value`` found at ``where`` to type ``hint``."""
    origin, args = _shape(hint)
    if hint is float or hint is int:
        if isinstance(value, (int, float, str, numbers.Real)) and not isinstance(value, bool):
            try:
                x = float(value)
            except (ValueError, OverflowError):
                x = math.nan
            if hint is float and math.isfinite(x):
                return x
            if hint is int and x.is_integer():
                return value if isinstance(value, int) else int(x)
    elif hint is bool or hint is str:
        if isinstance(value, hint):
            return value
    elif origin is types.UnionType:  # X | None
        return None if value is None else parse(args[0], value, where)
    elif origin is tuple:
        if isinstance(value, list):
            return tuple([parse(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)])
    elif origin is dict:
        if isinstance(value, dict):
            return {k: parse(args[1], v, f"{where}.{k}") for k, v in value.items()}
    elif isinstance(value, dict):  # a nested config
        try:
            return hint.from_dict(value)
        except ConfigError as exc:
            raise ConfigError(f"{where}.{exc}") from None
    expected = _EXPECTED.get(origin or hint, "an object")
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


class Config:
    """Base of the config classes: limit checks, ``from_dict`` and ``to_dict``."""

    def __post_init__(self):
        for name, (_, _, limits) in _schema(type(self)).items():
            value = getattr(self, name)
            items = enumerate(value) if isinstance(value, tuple) else ((None, value),)
            for i, v in items:
                where = name if i is None else f"{name}[{i}]"
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{where} must be finite, got {v!r}")
                for test, text, bound in limits:
                    if v is not None and not test(v, bound):
                        raise ConfigError(f"{where} must be {text} {bound!r}, got {v!r}")

    @classmethod
    def from_dict(cls, data: dict):
        schema = _schema(cls)
        if not isinstance(data, dict):
            raise ConfigError(f"expected an object, got {data!r}")
        for key in data:
            if key not in schema:
                raise ConfigError(f"{key} is not a known key (expected {', '.join(schema)})")
        for name, (_, required, _) in schema.items():
            if required and name not in data:
                raise ConfigError(f"{name} is required")
        return cls(**{k: parse(schema[k][0], v, k) for k, v in data.items()})

    def to_dict(self) -> dict:
        return {name: _dump(getattr(self, name)) for name in _schema(type(self))}


def _dump(value):
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if isinstance(value, dict):
        return {k: _dump(v) for k, v in sorted(value.items())}
    return value


def load_json(path, what: str) -> dict:
    """Read a JSON config file; its root must be an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or UTF-8
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return data
