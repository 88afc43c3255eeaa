"""JSON report serialization with reproducible numeric formatting.

All numeric output uses 17 significant digits so reports are audit-stable
byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError


def _encode(obj):
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            raise ValidationError("non-finite value in report")
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _encode({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    return _encode(obj) + "\n"


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
