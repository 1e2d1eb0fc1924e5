"""JSON codec for the values an :class:`~repro.experiment.spec.ExperimentSpec`
carries.

Specs must round-trip through JSON (the CLI's ``--spec`` path, the result-store
key, RunRecord archives), but mitigation overrides and platform
configurations are dataclasses (:class:`~repro.core.config.CoMeTConfig`,
:class:`~repro.dram.config.DRAMConfig`, ...).  The codec encodes any frozen
``repro`` dataclass as a tagged object::

    {"__dataclass__": "repro.core.config:CoMeTConfig", "fields": {...}}

and decoding imports the named class again.  Decoding is restricted to
dataclasses defined inside the ``repro`` package: a spec file is data, not a
pickle, and must not be able to instantiate arbitrary types.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any

_TAG = "__dataclass__"
_TUPLE_TAG = "__tuple__"

#: Only classes from these module prefixes may be instantiated by decoding.
_ALLOWED_MODULE_PREFIX = "repro."


class SpecCodecError(ValueError):
    """Raised when a value cannot be encoded to or decoded from spec JSON."""


def encode_value(value: Any) -> Any:
    """Encode one value into JSON-representable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        # Tuples are tagged so hashable spec fields survive the round trip.
        return {_TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        module = cls.__module__
        if not (module + ".").startswith(_ALLOWED_MODULE_PREFIX):
            raise SpecCodecError(
                f"cannot encode dataclass {cls.__qualname__} from module "
                f"{module!r}: only repro.* dataclasses are spec-serializable"
            )
        return {
            _TAG: f"{module}:{cls.__qualname__}",
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.init
            },
        }
    raise SpecCodecError(
        f"value of type {type(value).__name__} is not spec-serializable: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if _TUPLE_TAG in value and len(value) == 1:
            return tuple(decode_value(item) for item in value[_TUPLE_TAG])
        if _TAG in value:
            return _decode_dataclass(value)
        return {key: decode_value(item) for key, item in value.items()}
    raise SpecCodecError(f"cannot decode JSON value of type {type(value).__name__}")


def _decode_dataclass(payload: dict) -> Any:
    ref = payload[_TAG]
    try:
        module_name, _, qualname = ref.partition(":")
    except AttributeError:
        raise SpecCodecError(f"malformed dataclass reference: {ref!r}") from None
    if not (module_name + ".").startswith(_ALLOWED_MODULE_PREFIX):
        raise SpecCodecError(
            f"refusing to decode dataclass from module {module_name!r}: "
            "only repro.* dataclasses are allowed in spec files"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SpecCodecError(f"cannot import module {module_name!r}: {exc}") from exc
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise SpecCodecError(f"no class {qualname!r} in module {module_name!r}")
    if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        raise SpecCodecError(f"{ref!r} is not a dataclass")
    fields = {
        key: decode_value(item) for key, item in payload.get("fields", {}).items()
    }
    try:
        return obj(**fields)
    except TypeError as exc:
        raise SpecCodecError(f"cannot reconstruct {ref!r}: {exc}") from exc
