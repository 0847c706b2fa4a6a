"""The one JSON boundary: typed records for every document read or written, atomic writes."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import typing
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, ValidationError

_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)  # a record's annotations
# JSON integers past int64 are refused: numpy cannot hold them as sizes, seeds or draws
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _decode(value, tp, where: str, path: str):
    """``value`` as JSON holds it, checked against the annotation ``tp`` of key ``path``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _decode(value, args[0], where, path)
    if isinstance(tp, type) and issubclass(tp, DictCodec):
        return tp.from_dict(value, where, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: {path}: expected a JSON array")
        kinds = args[:1] * len(value) if args[1:] == (...,) else args
        if len(value) != len(kinds):
            raise ConfigurationError(f"{where}: {path}: expected {len(kinds)} values")
        return tuple(_decode(v, k, where, f"{path}[{i}]")
                     for i, (v, k) in enumerate(zip(value, kinds)))
    kinds = (float, int) if tp is float else (tp,)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, kinds):  # bool is no int
        got = json.dumps(value)[:40]
        raise ConfigurationError(f"{where}: {path}: expected {tp.__name__}, got {got}")
    if isinstance(value, int) and not INT64_MIN <= value <= INT64_MAX:
        raise ConfigurationError(f"{where}: {path}: {str(value)[:40]} is outside the int64 range")
    return value


class DictCodec:
    """``to_dict``/``from_dict`` for a frozen dataclass, one JSON key per field.

    ``from_dict`` checks each value against its field's annotation, decodes
    nested records, ignores unknown keys and takes defaults for missing ones;
    an integer outside int64 is refused; ``list`` and ``dict`` fields are
    only type-checked. Every error, the
    record's own ``__post_init__`` checks included, is a ConfigurationError
    naming ``where`` (the file) and the key path. ``to_dict`` converts tuples
    and nested records and returns list fields without copying them.
    """

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d, where: str = "", path: str = ""):
        where = where or cls.__name__
        at = f"{where}: {path}" if path else where
        if not isinstance(d, dict):
            raise ConfigurationError(f"{at}: expected a JSON object")
        hints, kwargs = _type_hints(cls), {}
        for f in dataclasses.fields(cls):
            key = f"{path}.{f.name}" if path else f.name
            if f.name in d:
                kwargs[f.name] = _decode(d[f.name], hints[f.name], where, key)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigurationError(f"{at}: missing key {f.name!r}")
        try:
            return cls(**kwargs)
        except ValidationError as exc:  # the record's own __post_init__ checks
            raise ConfigurationError(f"{at}: {exc}") from exc


def _encode(value):
    if isinstance(value, DictCodec):
        return value.to_dict()
    return [_encode(v) for v in value] if isinstance(value, tuple) else value


def read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def binary_array(value, at: str) -> np.ndarray:
    """``value`` as a bool array; any entry but 0, 1, true or false raises ValidationError."""
    arr = np.asarray(value)
    bad = arr[~np.isin(arr, (0, 1))]
    if len(bad):
        raise ValidationError(f"{at}: {bad[0]} is not 0 or 1")
    return arr.astype(bool, copy=False)


def json_array(value: list, dtype, at: str) -> np.ndarray:
    """A ``list`` field as an array; ragged or non-numeric data raises ValidationError, and so
    do values an integer ``dtype`` would truncate (not whole, or not finite) or a bool one cast."""
    whole = dtype is bool or np.issubdtype(dtype, np.integer)
    try:
        arr = np.asarray(value, dtype=np.float64 if whole else dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{at}: {exc}") from exc
    if dtype is bool:
        return binary_array(arr, at)
    fractional = arr[~np.isfinite(arr) | (arr != np.round(arr))] if whole else []
    if len(fractional):
        raise ValidationError(f"{at}: {fractional[0]} is not a whole number")
    return arr.astype(dtype, copy=False)


@contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator:
    """Write through a temp file beside ``path`` that replaces it on success.

    If the block raises, ``path`` keeps its old content (or stays absent)
    and the temp file is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
