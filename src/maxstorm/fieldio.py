"""Field serialization: one CSV schema plus a JSON metadata sidecar.

A field file is UTF-8 CSV with LF line endings and one row per
(date, site) cell, date-major.  The header picks the geometry:
``t,x1,x2,value`` for planar fields and ``t,vx,vy,vz,value`` for spherical
ones.  Floats are written with ``repr``, the shortest digit string that
round-trips exactly, so parsing a written file reconstructs the in-memory
field bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FieldFormatError
from .geometry import SiteSet
from .spacetime import SpaceTimeField

__all__ = ["write_field", "read_field", "write_meta", "read_meta"]

_HEADERS = {"t,x1,x2,value": "planar", "t,vx,vy,vz,value": "sphere"}


def write_field(field: SpaceTimeField, path: str | Path) -> Path:
    """Write a field to CSV; returns the path written."""
    path = Path(path)
    kind = field.sites.kind
    header = "t,x1,x2,value" if kind == "planar" else "t,vx,vy,vz,value"
    coords = np.asarray(field.sites.coords)
    values = np.asarray(field.values)
    lines = [header]
    for i, t in enumerate(field.dates):
        for m in range(field.n_sites):
            cell = ",".join(repr(float(c)) for c in coords[m])
            lines.append(f"{int(t)},{cell},{repr(float(values[i, m]))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def read_field(path: str | Path) -> SpaceTimeField:
    """Parse a field CSV back into a :class:`SpaceTimeField`.

    The file must be date-major with every date carrying the same sites in
    the same order, with finite coordinates and finite positive values;
    violations are reported with their line number.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise FieldFormatError(f"{path}: empty file")
    header = lines[0].strip()
    if header not in _HEADERS:
        raise FieldFormatError(
            f"{path}: line 1: header must be 't,x1,x2,value' or "
            f"'t,vx,vy,vz,value', got {header!r}"
        )
    kind = _HEADERS[header]
    dim = 2 if kind == "planar" else 3

    dates: list[int] = []
    blocks: list[list[float]] = []
    site_blocks: list[list[tuple[float, ...]]] = []
    line_blocks: list[list[int]] = []  # file line of each row, blank lines counted
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != dim + 2:
            raise FieldFormatError(
                f"{path}: line {lineno}: expected {dim + 2} columns, got {len(parts)}"
            )
        try:
            t = int(parts[0])
            coord = tuple(float(p) for p in parts[1 : 1 + dim])
            value = float(parts[-1])
        except ValueError as exc:
            raise FieldFormatError(f"{path}: line {lineno}: {exc}") from None
        if not all(map(math.isfinite, coord)):
            raise FieldFormatError(
                f"{path}: line {lineno}: site coordinates must be finite, got {coord!r}"
            )
        if not 0 < value < math.inf:
            raise FieldFormatError(
                f"{path}: line {lineno}: value must be finite and positive, got {value!r}"
            )
        if not dates or t != dates[-1]:
            dates.append(t)
            blocks.append([])
            site_blocks.append([])
            line_blocks.append([])
        blocks[-1].append(value)
        site_blocks[-1].append(coord)
        line_blocks[-1].append(lineno)

    if not dates:
        raise FieldFormatError(f"{path}: no data rows")
    first_sites = site_blocks[0]
    n_sites = len(first_sites)
    for t, sites_b, lines_b in zip(dates, site_blocks, line_blocks):
        if len(sites_b) != n_sites:
            raise FieldFormatError(
                f"{path}: date {t} has {len(sites_b)} rows, expected {n_sites}"
            )
        if sites_b != first_sites:
            bad = next(i for i, (p, q) in enumerate(zip(sites_b, first_sites)) if p != q)
            raise FieldFormatError(
                f"{path}: line {lines_b[bad]}: site coordinates "
                "differ from the first date block"
            )
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise FieldFormatError(f"{path}: dates must be strictly increasing")

    coords = np.array(first_sites)
    sites = SiteSet.planar(coords) if kind == "planar" else SiteSet.sphere(coords)
    values = np.array(blocks)
    return SpaceTimeField(sites=sites, dates=np.array(dates), values=values)


def write_meta(path: str | Path, meta: dict) -> Path:
    """Write the metadata sidecar as sorted-key JSON; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return path


def read_meta(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
