import json

import numpy as np
import pytest

from twinsurf.errors import ValidationError
from twinsurf.reports import dump, dumps


def test_floats_roundtrip_exactly():
    v = 0.1 + 0.2  # not representable prettily; .17g must preserve bits
    out = json.loads(dumps({"v": v, "w": 1e-300}))
    assert out["v"] == v and out["w"] == 1e-300


def test_complex_encoding():
    out = json.loads(dumps({"z": 1.5 - 2.5j}))
    assert out["z"] == {"re": 1.5, "im": -2.5}


def test_numpy_scalars_and_arrays():
    out = json.loads(dumps({"a": np.float64(2.0), "c": np.bool_(True)}))
    assert out["a"] == 2.0 and out["c"] is True
    # a grid field is a GFIELD, never a report value
    with pytest.raises(TypeError, match="ndarray"):
        dumps({"b": np.arange(3)})


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        dumps({"v": float("nan")})
    with pytest.raises(ValidationError):
        dumps({"v": np.inf})


def test_deterministic_output():
    payload = {"b": 1.0, "a": [1 + 1j, 2.0], "nested": {"y": 0.5, "x": -0.5}}
    assert dumps(payload) == dumps(payload)


def test_dump_writes_file(tmp_path):
    path = tmp_path / "r.json"
    dump({"ok": True}, path)
    assert json.loads(path.read_text())["ok"] is True
