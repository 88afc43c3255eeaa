import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinsurf.errors import ValidationError
from twinsurf.fields import GridDomain, HeightMap
from twinsurf.gfield import read_gfield, read_heightmap, write_gfield, write_heightmap

from conftest import same_bits

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# every float64 as its bit pattern: signed zeros, subnormals, infinities and
# NaNs with any payload and sign
_SPECIAL_BITS = [0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FF0000000000000,
                 0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]
any_bits = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1))


@given(st.lists(any_bits, min_size=25, max_size=25), finite.filter(lambda v: abs(v) < 1e100))
@settings(max_examples=50, deadline=None)
def test_roundtrip_is_bit_exact(bits, x0):
    dom = GridDomain(x0, -1.0, 0.25, 0.5, 5, 5)
    arr = np.array(bits, dtype=np.uint64).view(np.float64).reshape(5, 5)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.gf")
        write_gfield(path, dom, [arr])
        dom2, comps = read_gfield(path)
        assert dom2 == dom
        assert same_bits(comps[0], arr)


def test_layout_is_a_text_header_then_little_endian_float64(tmp_path):
    dom = GridDomain(-1.0, 0.1, 0.25, 1.0 / 3.0, 6, 5)
    comps = [np.arange(30.0).reshape(5, 6), np.arange(30.0).reshape(5, 6) / 7.0]
    path = tmp_path / "layout.gf"
    write_gfield(path, dom, [comps[0], np.asfortranarray(comps[1])])  # any memory order
    header = b"GFIELD 2\n6 5 2\n-1 0.10000000000000001 0.25 0.33333333333333331\n"
    body = b"".join(c.astype("<f8").tobytes() for c in comps)  # y ascending, x fastest
    assert path.read_bytes() == header + body
    _, read = read_gfield(path)
    for c in read:
        assert c.dtype == np.float64 and c.dtype.isnative and c.flags.writeable


def test_roundtrip_multiple_components(tmp_path):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 2.0, 7, 5)
    rng = np.random.default_rng(5)
    comps = [rng.standard_normal(dom.shape) for _ in range(3)]
    path = tmp_path / "multi.gf"
    write_gfield(path, dom, comps)
    dom2, comps2 = read_gfield(path)
    assert dom2 == dom
    for a, b in zip(comps, comps2):
        assert np.array_equal(a, b)


def test_heightmap_roundtrip(tmp_path):
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    h = HeightMap(dom, [X * Y, np.sin(X)])
    path = tmp_path / "h.gf"
    write_heightmap(path, h)
    h2 = read_heightmap(path)
    assert h2.domain == dom and h2.n == 2
    assert np.array_equal(h2.components[1], np.sin(X))


def test_non_finite_values_are_read_and_rejected_by_the_height_map(tmp_path):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 5, 5)
    arr = np.zeros(dom.shape)
    arr[2, 3] = np.nan
    path = tmp_path / "nan.gf"
    write_gfield(path, dom, [arr])
    assert same_bits(read_gfield(path)[1][0], arr)
    with pytest.raises(ValidationError, match="non-finite"):
        read_heightmap(path)


def test_write_rejects_shape_mismatch(tmp_path):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 5, 5)
    with pytest.raises(ValidationError):
        write_gfield(tmp_path / "bad.gf", dom, [np.zeros((4, 5))])


def test_write_rejects_no_components(tmp_path):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 5, 5)
    with pytest.raises(ValidationError, match="at least one component"):
        write_gfield(tmp_path / "empty.gf", dom, [])
    assert not (tmp_path / "empty.gf").exists()


def test_read_rejects_bad_magic(tmp_path):
    # a well-formed text file of the first format version
    p = tmp_path / "text.gf"
    p.write_text("GFIELD 1\n5 5 1\n0 0 1 1\n" + "0 0 0 0 0\n" * 5)
    with pytest.raises(ValidationError, match="not a GFIELD 2 file"):
        read_gfield(p)


def _header(nx, ny, ncomp, spacing="0 0 1 1"):
    return f"GFIELD 2\n{nx} {ny} {ncomp}\n{spacing}\n".encode()


def test_read_rejects_truncated_block(tmp_path):
    p = tmp_path / "短.gf"
    p.write_bytes(_header(5, 5, 1) + bytes(8 * 5 * 4))  # one row short
    with pytest.raises(ValidationError, match="expected 200 bytes .*, found 160"):
        read_gfield(p)


def test_read_rejects_malformed_header(tmp_path):
    p = tmp_path / "bad.gf"
    for counts in ["five 5 1", "5 5 0", "5 5 -1", "5 5", "5 5 1 1"]:
        p.write_bytes(f"GFIELD 2\n{counts}\n0 0 1 1\n".encode() + bytes(200))
        with pytest.raises(ValidationError, match="malformed header"):
            read_gfield(p)


def _catenoid_file(tmp_path):
    dom = GridDomain.from_bounds(1.5, -0.75, 3.0, 0.75, 17, 17)
    X, Y = dom.meshgrid()
    p = tmp_path / "cat.gf"
    write_gfield(p, dom, [np.arccosh(np.sqrt(X**2 + Y**2))])
    return p, p.read_bytes()


def test_read_rejects_short_row(tmp_path):
    # one value fewer in row 7 is a body 8 bytes short
    p, data = _catenoid_file(tmp_path)
    row = len(data) - 8 * 17 * 17 + 8 * 17 * 7
    p.write_bytes(data[: row + 8 * 16] + data[row + 8 * 17 :])
    n = 8 * 17 * 17
    with pytest.raises(ValidationError, match=f"expected {n} bytes .*, found {n - 8}"):
        read_gfield(p)


def test_read_rejects_rows_all_one_value_too_wide(tmp_path):
    p, data = _catenoid_file(tmp_path)
    n = 8 * 17 * 17
    wide = np.hstack([np.frombuffer(data[-n:], "<f8").reshape(17, 17), np.zeros((17, 1))])
    p.write_bytes(data[:-n] + wide.astype("<f8").tobytes())
    with pytest.raises(ValidationError, match=f"expected {n} bytes .*, found {n + 8 * 17}"):
        read_gfield(p)


def test_header_counts_cannot_force_an_allocation(tmp_path):
    p = tmp_path / "huge.gf"
    p.write_bytes(b"GFIELD 2\n100000 100000 100000\n0 0 1 1\n" + bytes(8))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="expected 8000000000000000 bytes .*, found 8"):
            read_gfield(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("nx, ny", [(5, 1), (1, 5)])
def test_read_rejects_a_one_row_or_one_column_grid(tmp_path, nx, ny):
    p = tmp_path / "thin.gf"
    p.write_bytes(_header(nx, ny, 1) + bytes(8 * nx * ny))
    with pytest.raises(ValidationError, match="at least 5 nodes"):
        read_gfield(p)


_MUTATIONS = ["truncate", "extend", "delete", "duplicate", "change", "drop_newline"]


@given(st.data())
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_read_returns_or_raises_validation_error_after_one_mutation(tmp_path, data):
    # a valid 5..7^2 file with one or two components, changed in one place:
    # the body cut or extended by 1..8 bytes, or one header byte deleted,
    # duplicated or changed, or one header newline dropped
    nx, ny = data.draw(st.integers(5, 7)), data.draw(st.integers(5, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    comps = [rng.standard_normal((ny, nx)) for _ in range(data.draw(st.integers(1, 2)))]
    p = tmp_path / "mutated.gf"
    write_gfield(p, GridDomain(-1.0, 0.5, 0.25, 0.125, nx, ny), comps)
    raw = p.read_bytes()
    head = len(raw) - 8 * nx * ny * len(comps)
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    k = data.draw(st.integers(1, 8))
    i = data.draw(st.integers(0, head - 1))
    if mutation == "truncate":
        raw = raw[:-k]
    elif mutation == "extend":
        raw += data.draw(st.binary(min_size=k, max_size=k))
    elif mutation == "delete":
        raw = raw[:i] + raw[i + 1 :]
    elif mutation == "duplicate":
        raw = raw[: i + 1] + raw[i:]
    elif mutation == "change":
        raw = raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1 :]
    else:
        i = [j for j in range(head) if raw[j] == ord("\n")][data.draw(st.integers(0, 2))]
        raw = raw[:i] + raw[i + 1 :]
    p.write_bytes(raw)
    try:
        read_gfield(p)
    except ValidationError:
        pass  # any other exception fails the test
    else:
        assert mutation not in ("truncate", "extend", "drop_newline")
