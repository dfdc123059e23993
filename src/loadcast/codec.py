"""loadcast's file boundary: one JSON form for its records (dataclasses),
the JSON and CSV files they go to and come from, and atomic file writes.

`from_json` checks each value against its field's annotation instead of
coercing it; an int may stand for a float, and a missing field takes its
default, also inside an object given for a field whose default is a record.
Non-string dict keys are written as their `repr` (``"1.0"``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import reprlib
import types
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _fields(cls) -> dict[str, tuple[str, object, bool, dict | None]]:
    """Field name -> (annotation text, resolved type, required, record default's JSON)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f.type, hints[f.name], f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING,
                     to_json(f.default) if dataclasses.is_dataclass(f.default) else None)
            for f in dataclasses.fields(cls)}


def to_json(value):
    """The JSON form of a record, or of any value inside one."""
    if dataclasses.is_dataclass(value):
        return {name: to_json(getattr(value, name)) for name in _fields(type(value))}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): to_json(v) for k, v in value.items()}
    return value


def from_json(cls, doc):
    """Read a `cls` record; ValueError names the record and the bad field."""
    fields = _fields(cls)
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be an object, got {reprlib.repr(doc)}")
    unknown = doc.keys() - fields.keys()
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    missing = [name for name, (_, _, req, _) in fields.items() if req and name not in doc]
    if missing:
        raise ValueError(f"{cls.__name__} needs {missing}")
    kwargs = {}
    for name, value in doc.items():
        text, tp, _, default = fields[name]
        if default is not None and isinstance(value, dict):
            value = {**default, **value}  # a partial object updates the default record
        try:
            kwargs[name] = _read(tp, value)
        except ValueError as exc:  # a nested record's message names its own field
            raise ValueError(f"{cls.__name__}.{name}: {exc}" if exc.args else
                             f"{cls.__name__}.{name} must be {text}, got {reprlib.repr(value)}"
                             ) from None
    return cls(**kwargs)


def _read(tp, value):
    """`value` as annotation `tp`. A value not of that type raises a bare
    ValueError; a nested record's ValueError carries its own message."""
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
    elif tp in (bool, int, str):
        if type(value) is tp:
            return value
    elif tp is np.ndarray:
        if isinstance(value, list) and not any(isinstance(v, list) for v in value):
            array = np.array(value)  # flat, so not ragged
            if array.ndim == 1 and array.dtype.kind in "iuf":
                return array.astype(np.float64)
    elif dataclasses.is_dataclass(tp):
        return from_json(tp, value)
    else:
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin is types.UnionType:  # X | None
            return None if value is None else _read(args[0], value)
        if origin in (tuple, list) and isinstance(value, (list, tuple)):
            kinds = args if origin is tuple and args[-1] is not ... else [args[0]] * len(value)
            if len(kinds) == len(value):
                return origin(map(_read, kinds, value))
        elif origin is dict and isinstance(value, dict):
            try:
                keys = [k if args[0] is str else float(k) for k in value]
            except ValueError:  # a key that is not a number: a mismatch like any other
                raise ValueError from None
            return {k: _read(args[1], v) for k, v in zip(keys, value.values())}
    raise ValueError


@contextmanager
def replace_atomically(path):
    """Yield a temporary path beside `path` that replaces it when the block
    ends normally; an interrupted write leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    """Replace `path` atomically with `text`; a file that already holds
    exactly these bytes is left as it is."""
    try:
        if Path(path).read_bytes() == text.encode("utf-8"):
            return
    except OSError:  # missing or unreadable: write it
        pass
    with replace_atomically(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Replace `path` atomically with a UTF-8 CSV of `header`, then `rows`.

    Fields are `str`, `int` or Python `float` (`ndarray.tolist()`), each written
    as `%s` (a float as its repr, the shortest text that parses back to it) in
    csv.writer's default dialect. Text is never quoted: no comma, quote or newline.
    """
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with replace_atomically(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write(line % tuple(header))
        fh.writelines(line % tuple(row) for row in rows)


def write_json(path, doc) -> None:
    """Write `doc` as sorted, indented JSON, replacing `path` atomically."""
    write_text(path, json.dumps(doc, sort_keys=True, indent=1))


def parse_json(text: str):
    """`json.loads`; JSON nested deeper than the recursion limit is a
    JSONDecodeError like any other malformed document."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deep", text, 0) from None


def read_json(path):
    """The JSON document in the UTF-8 file `path`."""
    return parse_json(Path(path).read_text(encoding="utf-8"))
