import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinsurf.errors import ValidationError
from twinsurf.fields import GridDomain, HeightMap
from twinsurf.gfield import read_gfield, read_heightmap, write_gfield, write_heightmap

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(finite, min_size=25, max_size=25), finite.filter(lambda v: abs(v) < 1e100))
@settings(max_examples=50, deadline=None)
def test_roundtrip_is_bit_exact(values, x0):
    dom = GridDomain(x0, -1.0, 0.25, 0.5, 5, 5)
    arr = np.array(values).reshape(5, 5)
    import io, tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.gf")
        write_gfield(path, dom, [arr])
        dom2, comps = read_gfield(path)
        assert dom2 == dom
        assert np.array_equal(comps[0], arr)  # .17g is lossless for float64


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


def test_write_rejects_shape_mismatch(tmp_path):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 5, 5)
    with pytest.raises(ValidationError):
        write_gfield(tmp_path / "bad.gf", dom, [np.zeros((4, 5))])


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.gf"
    p.write_text("GFIELD 2\n5 5 1\n0 0 1 1\n")
    with pytest.raises(ValidationError):
        read_gfield(p)


def test_read_rejects_truncated_block(tmp_path):
    p = tmp_path / "短.gf"
    lines = ["GFIELD 1", "5 5 1", "0 0 0.25 0.25"]
    lines += ["0 0 0 0 0"] * 4  # one row short
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_gfield(p)


def test_read_rejects_malformed_header(tmp_path):
    p = tmp_path / "bad.gf"
    p.write_text("GFIELD 1\nfive 5 1\n0 0 1 1\n")
    with pytest.raises(ValidationError):
        read_gfield(p)


def _catenoid_lines(tmp_path):
    dom = GridDomain.from_bounds(1.5, -0.75, 3.0, 0.75, 17, 17)
    X, Y = dom.meshgrid()
    p = tmp_path / "cat.gf"
    write_gfield(p, dom, [np.arccosh(np.sqrt(X**2 + Y**2))])
    return p, p.read_text().splitlines()


def test_read_rejects_non_numeric_token(tmp_path):
    p, lines = _catenoid_lines(tmp_path)
    tokens = lines[10].split()
    tokens[4] = "nanx"
    lines[10] = " ".join(tokens)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="nanx"):
        read_gfield(p)


def test_read_rejects_short_row(tmp_path):
    p, lines = _catenoid_lines(tmp_path)
    lines[10] = " ".join(lines[10].split()[:-1])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="every row needs 17 values"):
        read_gfield(p)


def _replace_token(lines, row, col, token):
    tokens = lines[row].split()
    tokens[col] = token
    lines[row] = " ".join(tokens)


@pytest.mark.parametrize("token", ["#", "1_0"])
def test_read_names_a_rejected_token(tmp_path, token):
    # '#' starts no comment and '1_0' is no number in a GFIELD block
    p, lines = _catenoid_lines(tmp_path)
    _replace_token(lines, 10, 4, token)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"component 1: .*'{token}'"):
        read_gfield(p)


def test_read_names_the_file_line_and_token(tmp_path):
    p, lines = _catenoid_lines(tmp_path)
    _replace_token(lines, 10, 4, "nanx")
    # a blank line before the block: the line number counts it
    p.write_text("\n".join(lines[:3] + ["  "] + lines[3:]) + "\n")
    with pytest.raises(ValidationError) as err:
        read_gfield(p)
    assert str(err.value).endswith("component 1: line 12, token 5: could not convert 'nanx' to float")


def test_read_names_the_file_line_in_a_later_block(tmp_path):
    p, _, _ = _two_component_file(tmp_path)
    lines = p.read_text().splitlines()
    lines = lines[:8] + [""] + lines[8:]  # block 2 starts on file line 10
    _replace_token(lines, 10, 2, "1,5")
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        read_gfield(p)
    assert str(err.value).endswith("component 2: line 11, token 3: could not convert '1,5' to float")


def test_read_rejects_rows_all_one_value_too_wide(tmp_path):
    p, lines = _catenoid_lines(tmp_path)
    lines[3:] = [ln + " 0" for ln in lines[3:]]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="every row needs 17 values"):
        read_gfield(p)


def test_read_rejects_a_row_split_by_a_comment(tmp_path):
    p, lines = _catenoid_lines(tmp_path)
    lines[10] += " # note"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="every row needs 17 values"):
        read_gfield(p)


def _two_component_file(tmp_path):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 2.0, 7, 5)
    comps = [np.arange(35.0).reshape(5, 7) / 7.0, -np.arange(35.0).reshape(5, 7) ** 0.5]
    p = tmp_path / "two.gf"
    write_gfield(p, dom, comps)
    return p, dom, comps


def test_read_skips_blank_lines_between_blocks(tmp_path):
    p, dom, comps = _two_component_file(tmp_path)
    lines = p.read_text().splitlines()
    lines = lines[:3] + [""] + lines[3:8] + ["", "   "] + lines[8:] + [""]
    p.write_text("\n".join(lines))
    dom2, comps2 = read_gfield(p)
    assert dom2 == dom
    assert all(np.array_equal(a, b) for a, b in zip(comps, comps2))


def test_read_crlf_equals_lf(tmp_path):
    p, dom, comps = _two_component_file(tmp_path)
    crlf = tmp_path / "crlf.gf"
    crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    dom2, comps2 = read_gfield(crlf)
    assert dom2 == dom
    assert all(np.array_equal(a, b) for a, b in zip(comps, comps2))


@pytest.mark.parametrize("nx, ny", [(5, 1), (1, 5)])
def test_read_rejects_a_one_row_or_one_column_grid(tmp_path, nx, ny):
    p = tmp_path / "thin.gf"
    p.write_text(f"GFIELD 1\n{nx} {ny} 1\n0 0 1 1\n" + (" ".join(["0"] * nx) + "\n") * ny)
    with pytest.raises(ValidationError, match="at least 5 nodes"):
        read_gfield(p)


_BAD_TOKENS = ["nan", "inf", "1e400", "x", "1_0", "0x1", "#", "\u0661", "\x00", "1.0.0"]
_MUTATIONS = ["token", "drop", "duplicate", "truncate", "extend", "blank"]


@given(st.data())
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_read_returns_or_raises_validation_error_after_one_mutation(tmp_path, data):
    # a valid 5..7^2 file with one or two components, changed in one place
    nx, ny = data.draw(st.integers(5, 7)), data.draw(st.integers(5, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    comps = [rng.standard_normal((ny, nx)) for _ in range(data.draw(st.integers(1, 2)))]
    p = tmp_path / "mutated.gf"
    write_gfield(p, GridDomain(-1.0, 0.5, 0.25, 0.125, nx, ny), comps)
    lines = p.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    if mutation == "token":
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(_BAD_TOKENS))
        lines[i] = " ".join(tokens)
    elif mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "truncate":
        lines[i] = " ".join(tokens[:-1])
    elif mutation == "extend":
        lines[i] += " 0.5"
    else:
        lines.insert(i, "")
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        read_gfield(p)
    except ValidationError:
        pass  # any other exception fails the test
