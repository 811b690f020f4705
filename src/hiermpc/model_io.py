"""One JSON codec for the package's frozen dataclasses.

`to_json` writes a dataclass as its constructor (`init`) fields: arrays and
tuples become lists (of integers for an integer array, a set's indices),
nested dataclasses become objects.  `from_json` reads the same data back by
calling the constructor, converting each value by the field's type
annotation, so every `__post_init__` check also runs on input read from
disk.  A value is converted only when nothing is lost (a list to a tuple or
a float array, a JSON integer to a float); an unknown key, a
missing key without a default, a value of the wrong type or a number that
is not finite raises ConfigInvalid naming the class and the key.  A float
array must be finite as it is decoded, before a constructor can factor it;
a float, once the constructor's own checks have run.  A field whose
metadata sets `unbounded` may also hold +inf.  A value that already is an
instance of the field's dataclass is kept as it is, so a reader can decode
the parts of a composite from separate files and assemble it.

Floats are written by `json` with Python's repr, the shortest decimal string
that round-trips to the same binary value, so save/load is bit-stable.
"""
from __future__ import annotations

import functools
import math
import reprlib
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import ConfigInvalid

# Resolved field annotations, once per class.
_field_types = functools.cache(typing.get_type_hints)


def to_json(obj):
    """JSON-ready form of a dataclass, array, tuple, dict or scalar."""
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj) if f.init}
    if isinstance(obj, np.ndarray):
        return (obj if obj.dtype.kind in "iu"
                else np.asarray(obj, dtype=float)).tolist()
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj.item() if isinstance(obj, np.generic) else obj


def from_json(cls, data):
    """Build `cls` from the output of `to_json`, checking every value."""
    return _decode(cls, data, cls.__name__)


def _refuse(value, where: str):
    raise ConfigInvalid(f"{where}: expected finite numbers, got "
                        f"{reprlib.repr(value)}")


def _finite_array(arr: np.ndarray, where: str, unbounded: bool) -> np.ndarray:
    """`arr` if every entry is finite (or +inf, where `unbounded`)."""
    ok = np.isfinite(arr)
    if unbounded:
        ok |= arr == np.inf
    if not ok.all():
        _refuse(arr, where)
    return arr


def _finite_floats(value, where: str, unbounded: bool) -> None:
    """Refuse a float, or a float in tuples and dicts, that is not finite
    (or +inf, where `unbounded`); arrays were checked as they were
    decoded."""
    if type(value) is float:
        if not (math.isfinite(value) or unbounded and value == math.inf):
            _refuse(value, where)
    elif isinstance(value, tuple):
        for item in value:
            _finite_floats(item, where, unbounded)
    elif isinstance(value, dict):
        for item in value.values():
            _finite_floats(item, where, unbounded)


def _decode(tp, value, where: str, unbounded: bool = False):
    if is_dataclass(tp):
        if isinstance(value, tp):
            return value
        if not isinstance(value, dict):
            raise ConfigInvalid(f"{where}: expected an object, got "
                                f"{reprlib.repr(value)}")
        init = {f.name: f for f in fields(tp) if f.init}
        for key in value:
            if key not in init:
                raise ConfigInvalid(f"{tp.__name__}: unknown key {key!r}")
        for name, f in init.items():
            if name not in value and f.default is MISSING \
                    and f.default_factory is MISSING:
                raise ConfigInvalid(f"{tp.__name__}: missing key {name!r}")
        hints = _field_types(tp)
        open_ended = {key: init[key].metadata.get("unbounded", False)
                      for key in value}
        args = {key: _decode(hints[key], item, f"{tp.__name__}.{key}",
                             open_ended[key])
                for key, item in value.items()}
        obj = tp(**args)
        for key, arg in args.items():
            _finite_floats(arg, f"{tp.__name__}.{key}", open_ended[key])
        return obj
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, where, unbounded)
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v, where, unbounded) for v in value)
        if len(value) == len(args):
            return tuple(_decode(a, v, where, unbounded)
                         for a, v in zip(args, value))
    elif origin is dict and isinstance(value, dict):
        return {k: _decode(args[1], v, where, unbounded)
                for k, v in value.items()}
    elif tp is np.ndarray and isinstance(value, list):
        try:
            arr = np.array(value)
        except ValueError:
            arr = None
        if arr is not None and arr.dtype.kind in "if":
            return _finite_array(arr.astype(float), where, unbounded)
    elif tp is float and type(value) in (int, float):
        return float(value)
    elif tp in (int, bool, str) and type(value) is tp:
        return value
    name = tp.__name__ if isinstance(tp, type) else str(tp)
    raise ConfigInvalid(f"{where}: expected {name}, got {reprlib.repr(value)}")
