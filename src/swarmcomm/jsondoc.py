"""One decoder for the JSON documents the pipeline reads.

A dataclass's fields say what a document may hold: ``decode(cls, doc)`` takes
a parsed JSON object whose keys are the class's fields, checks every value
against its field's declared type and builds the instance. Documents are
written with ``dataclasses.asdict``, so what one stage writes the next reads
through the same field list.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from typing import Any, TypeVar

T = TypeVar("T")

_EXPECTED = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true or false",
    list: "a list",
    dict: "a JSON object",
}


class DecodeError(ValueError):
    pass


def _all_of(items: Any, tp: type) -> bool:
    """Whether every item is of the scalar type tp; float takes int but not NaN or +-Infinity."""
    if tp is float:
        # the comparison refuses NaN and never overflows on a huge int
        return all((type(v) is float or type(v) is int) and -math.inf < v < math.inf for v in items)
    return all(type(v) is tp for v in items)


def _check(value: Any, tp: Any, where: str) -> None:
    """Raise DecodeError unless value matches tp: a scalar type, dict, or list[X] / dict[str, X] of a scalar X."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    ok = isinstance(value, origin) if origin in (list, dict) else _all_of((value,), origin)
    if ok and args:
        ok = _all_of(value if origin is list else value.values(), args[-1])
    if not ok:
        items = f" whose items are each {_EXPECTED[args[-1]]}" if args else ""
        raise DecodeError(f"{where} must be {_EXPECTED[origin]}{items}, got {json.dumps(value):.60}")


def decode(cls: type[T], doc: Any, **given: Any) -> T:
    """An instance of dataclass ``cls`` from a parsed JSON object.

    Every key of ``doc`` must be a field of ``cls`` and every field without a
    default must be present; the fields passed in ``given`` come from the
    caller and may not appear in ``doc``. Each value must match its field's
    declared type: int fields refuse booleans and floats, float fields take
    integers but refuse NaN and +-Infinity, and list and dict fields check
    every item. Values are passed on as parsed, so writing the instance back
    with ``dataclasses.asdict`` reproduces them.
    """
    if not isinstance(doc, dict):
        raise DecodeError(f"expected a JSON object, got {json.dumps(doc):.60}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init and f.name not in given}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise DecodeError(f"unknown key(s): {', '.join(unknown)}")
    missing = [
        name for name, f in fields.items()
        if name not in doc and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise DecodeError(f"missing key(s): {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    for name, value in doc.items():
        _check(value, hints[name], name)
    return cls(**doc, **given)
