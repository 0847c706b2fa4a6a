"""The one JSON codec shared by the configuration dataclasses."""

from __future__ import annotations

import dataclasses

from .errors import ConfigurationError


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, (tuple, list)) else value


def _from_json(value):
    return tuple(_from_json(v) for v in value) if isinstance(value, list) else value


class DictCodec:
    """``to_dict``/``from_dict`` for a frozen dataclass, one key per field.

    ``from_dict`` turns JSON lists into tuples, ignores unknown keys and
    takes the field's default for a missing key; a missing key whose field
    has no default raises :class:`ConfigurationError`.
    """

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigurationError(f"{cls.__name__} must be a JSON object")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in d:
                kwargs[f.name] = _from_json(d[f.name])
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigurationError(f"{cls.__name__} is missing key {f.name!r}")
        return cls(**kwargs)
