"""GFIELD 2: the grid-field file every module and the CLI share.

Layout: three ASCII header lines, then a binary body::

    GFIELD 2
    nx ny ncomp
    x0 y0 dx dy
    <ncomp * ny * nx little-endian IEEE float64 values ('<f8'):
     component by component, y ascending, x fastest>

The header's numbers are written with 17 significant digits and the body
holds every float64 bit for bit (signed zeros, subnormals, infinities and
NaN payloads).  The reader checks the body's size against the header
before it reads or allocates anything, so a header cannot make it
allocate more than the file holds.  Non-finite values are returned as
they are; the field types reject them.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ValidationError
from .fields import GridDomain, HeightMap

_MAGIC = b"GFIELD 2\n"
_LINE_MAX = 256  # bytes read at most per header line


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_gfield(path, domain: GridDomain, components) -> None:
    components = [np.asarray(c, dtype=float) for c in components]
    if not components:
        raise ValidationError("a GFIELD needs at least one component")
    for c in components:
        if c.shape != domain.shape:
            raise ValidationError("component shape mismatch")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(f"{domain.nx} {domain.ny} {len(components)}\n".encode())
        fh.write(
            f"{_fmt(domain.x0)} {_fmt(domain.y0)} {_fmt(domain.dx)} {_fmt(domain.dy)}\n".encode()
        )
        for c in components:  # y ascending: row 0 is y0
            fh.write(np.ascontiguousarray(c, dtype="<f8"))


def read_gfield(path):
    """Returns (GridDomain, [arrays])."""
    with open(path, "rb") as fh:
        head = [fh.readline(_LINE_MAX) for _ in range(3)]
        if head[0] != _MAGIC:
            raise ValidationError(f"{path}: not a GFIELD 2 file")
        try:
            nx, ny, ncomp = (int(t) for t in head[1].split())
            x0, y0, dx, dy = (float(t) for t in head[2].split())
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed header") from exc
        if ncomp < 1 or not (head[1].endswith(b"\n") and head[2].endswith(b"\n")):
            raise ValidationError(f"{path}: malformed header")
        domain = GridDomain(x0, y0, dx, dy, nx, ny)
        expected = 8 * ncomp * ny * nx
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise ValidationError(
                f"{path}: expected {expected} bytes of float64 values, found {found}"
            )
        comps = [np.empty(domain.shape, dtype="<f8") for _ in range(ncomp)]
        for c in comps:
            fh.readinto(c)
    return domain, [c.astype(float, copy=False) for c in comps]


def read_heightmap(path) -> HeightMap:
    domain, comps = read_gfield(path)
    return HeightMap(domain, comps)


def write_heightmap(path, h: HeightMap) -> None:
    write_gfield(path, h.domain, h.components)
