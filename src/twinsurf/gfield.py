"""GFIELD text format: the grid-field file every module and the CLI share.

Layout::

    GFIELD 1
    nx ny ncomp
    x0 y0 dx dy
    <ncomp blocks, each ny lines of nx decimals, y ascending per block>

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Blank lines are skipped.  Each block is parsed by
numpy's C reader: a value is a plain decimal (or inf/nan) token; ``#``
starts no comment and ``_`` separates no digits.  A rejected token is
named by its file line and its 1-based position on that line.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fields import GridDomain, HeightMap


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_gfield(path, domain: GridDomain, components) -> None:
    components = [np.asarray(c, dtype=float) for c in components]
    for c in components:
        if c.shape != domain.shape:
            raise ValidationError("component shape mismatch")
    with open(path, "w") as fh:
        fh.write("GFIELD 1\n")
        fh.write(f"{domain.nx} {domain.ny} {len(components)}\n")
        fh.write(
            f"{_fmt(domain.x0)} {_fmt(domain.y0)} {_fmt(domain.dx)} {_fmt(domain.dy)}\n"
        )
        for c in components:  # y ascending: row 0 is y0
            np.savetxt(fh, c, fmt="%.17g")


def _parse(lines):
    # numpy's C parser; comments=None keeps '#' a bad token
    return np.loadtxt(lines, dtype=float, ndmin=2, comments=None)


def _bad_token(numbers, block):
    """Where the first rejected token of ``block``, on file lines ``numbers``, is."""
    for number, ln in zip(numbers, block):
        try:
            _parse([ln])
        except ValueError:
            for t, tok in enumerate(ln.split(), 1):
                try:
                    _parse([tok])
                except ValueError:
                    return f"line {number}, token {t}: could not convert {tok!r} to float"


def read_gfield(path):
    """Returns (GridDomain, [arrays])."""
    # undecodable bytes become U+FFFD, which no header or number check accepts
    numbers, lines = [], []  # the file line number of each kept line
    with open(path, errors="replace") as fh:
        for number, ln in enumerate(fh, 1):
            ln = ln.strip()
            if ln:
                numbers.append(number)
                lines.append(ln)
    if not lines or lines[0].split() != ["GFIELD", "1"]:
        raise ValidationError(f"{path}: not a GFIELD 1 file")
    try:
        nx, ny, ncomp = (int(t) for t in lines[1].split())
        x0, y0, dx, dy = (float(t) for t in lines[2].split())
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed header") from exc
    domain = GridDomain(x0, y0, dx, dy, nx, ny)
    expected = 3 + ncomp * ny
    if len(lines) != expected:
        raise ValidationError(
            f"{path}: expected {expected} lines, found {len(lines)}"
        )
    comps = []
    for k in range(ncomp):
        block = lines[3 + k * ny : 3 + (k + 1) * ny]
        where = f"{path}: component {k + 1}"
        try:
            arr = _parse(block)
        except ValueError as exc:
            # rows of unequal length fail the parse; name the row length
            if any(len(ln.split()) != nx for ln in block):
                raise ValidationError(f"{where}: every row needs {nx} values") from exc
            bad = _bad_token(numbers[3 + k * ny :], block) or exc
            raise ValidationError(f"{where}: {bad}") from exc
        if arr.shape != (ny, nx):
            raise ValidationError(f"{where}: every row needs {nx} values")
        comps.append(arr)
    return domain, comps


def read_heightmap(path) -> HeightMap:
    domain, comps = read_gfield(path)
    return HeightMap(domain, comps)


def write_heightmap(path, h: HeightMap) -> None:
    write_gfield(path, h.domain, h.components)
