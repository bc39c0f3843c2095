"""Raster grids on a regular cell-center lattice.

ESRI ASCII grid I/O, header alignment checks, nearest/bilinear resampling,
multi-band stacks, terrain derivatives from a DEM, and study-area masking.
Row 0 of every value array is the northernmost row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Header keys in canonical write order and casing.
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_HEADER_CASING = {
    "ncols": "ncols",
    "nrows": "nrows",
    "xllcorner": "xllcorner",
    "yllcorner": "yllcorner",
    "cellsize": "cellsize",
    "nodata_value": "NODATA_value",
}

# Absolute tolerance for header equality; also the snap tolerance used when a
# resampling coordinate falls within rounding error of a source cell center.
ALIGN_TOL = 1e-9

# Neighbor offsets in fixed scan order (N, NE, E, SE, S, SW, W, NW); ties in
# steepest-descent routing resolve to the first entry.
_NEIGHBORS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))

TERRAIN_BANDS = ("elevation", "slope", "aspect", "curvature", "tri", "spi", "twi")


class GridFormatError(ValueError):
    """Malformed ASCII grid file."""


class AlignmentError(ValueError):
    """Grids do not share a common header."""


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the exact float value."""
    return repr(float(x))


@dataclass
class GridHeader:
    """Geometry and nodata sentinel of a grid.

    ``xllcorner``/``yllcorner`` locate the outer corner of the south-west
    cell; cell (r, c) has its center at
    ``(xll + (c + 0.5) * cellsize, yll + (nrows - r - 0.5) * cellsize)``.
    """

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata_value: float

    def __post_init__(self) -> None:
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("grid dimensions must be positive")
        if not self.cellsize > 0:
            raise ValueError("cellsize must be positive")
        if not math.isfinite(self.nodata_value):
            raise ValueError("nodata_value must be finite")

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        x = self.xllcorner + (col + 0.5) * self.cellsize
        y = self.yllcorner + (self.nrows - row - 0.5) * self.cellsize
        return x, y

    def cell_of(self, x: float, y: float) -> tuple[int, int] | None:
        """Cell containing point (x, y), or None when outside the extent.

        Points on interior gridlines fall into the higher column / more
        southern row per floor semantics.
        """
        col = math.floor((x - self.xllcorner) / self.cellsize)
        row_from_s = math.floor((y - self.yllcorner) / self.cellsize)
        if not (0 <= col < self.ncols and 0 <= row_from_s < self.nrows):
            return None
        return self.nrows - 1 - row_from_s, col

    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the covered rectangle."""
        return (
            self.xllcorner,
            self.yllcorner,
            self.xllcorner + self.ncols * self.cellsize,
            self.yllcorner + self.nrows * self.cellsize,
        )


def misaligned_field(a: GridHeader, b: GridHeader, tol: float = ALIGN_TOL) -> str | None:
    """Name of the first differing header field, or None when aligned."""
    if a.ncols != b.ncols:
        return "ncols"
    if a.nrows != b.nrows:
        return "nrows"
    for field in ("xllcorner", "yllcorner", "cellsize", "nodata_value"):
        if abs(getattr(a, field) - getattr(b, field)) > tol:
            return field
    return None


@dataclass
class Grid:
    """Single-band raster: header plus a (nrows, ncols) float64 array."""

    header: GridHeader
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.header.nrows, self.header.ncols):
            raise ValueError(
                f"value array shape {self.values.shape} does not match header "
                f"({self.header.nrows}, {self.header.ncols})"
            )

    @property
    def valid(self) -> np.ndarray:
        """Boolean mask of cells carrying data (True = valid)."""
        return self.values != self.header.nodata_value

    def copy(self) -> "Grid":
        return Grid(replace(self.header), self.values.copy())


def read_ascii_grid(path: str) -> Grid:
    """Read an ESRI ASCII grid.

    The first six lines must be the header entries (any order, keys matched
    case-insensitively), followed by nrows * ncols whitespace-separated
    values. Malformed headers and non-numeric values are reported with their
    line number.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    if len(lines) < 6:
        raise GridFormatError(f"{path}: expected 6 header lines, found {len(lines)}")

    fields: dict[str, float] = {}
    for lineno, line in enumerate(lines[:6], start=1):
        parts = line.split()
        if len(parts) != 2:
            raise GridFormatError(f"{path}: line {lineno}: malformed header line {line.strip()!r}")
        key = parts[0].lower()
        if key not in _HEADER_KEYS:
            try:
                float(parts[0])
            except ValueError:
                raise GridFormatError(
                    f"{path}: line {lineno}: unknown header key {parts[0]!r}"
                ) from None
            # Numeric first token: the header ended early, a key is missing.
            missing = [k for k in _HEADER_KEYS if k not in fields]
            raise GridFormatError(f"{path}: missing header keys: {', '.join(missing)}")
        if key in fields:
            raise GridFormatError(f"{path}: line {lineno}: duplicate header key {parts[0]!r}")
        try:
            if key in ("ncols", "nrows"):
                fields[key] = int(parts[1])
            else:
                fields[key] = float(parts[1])
        except ValueError:
            raise GridFormatError(
                f"{path}: line {lineno}: non-numeric header value {parts[1]!r}"
            ) from None
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise GridFormatError(f"{path}: missing header keys: {', '.join(missing)}")
    try:
        header = GridHeader(**{k: fields[k] for k in _HEADER_KEYS})
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from None

    body = "".join(lines[6:])
    tokens = body.split()
    expected = header.nrows * header.ncols
    if len(tokens) != expected:
        raise GridFormatError(f"{path}: expected {expected} values, found {len(tokens)}")
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        # Slow scan only to locate the offending token for the error message.
        for lineno, line in enumerate(lines[6:], start=7):
            for tok in line.split():
                try:
                    float(tok)
                except ValueError:
                    raise GridFormatError(
                        f"{path}: line {lineno}: non-numeric value {tok!r}"
                    ) from None
        raise GridFormatError(f"{path}: non-numeric value") from None

    values = values.reshape(header.nrows, header.ncols)
    bad = ~np.isfinite(values)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise GridFormatError(f"{path}: non-finite value at row {r}, col {c}")
    return Grid(header, values)


def write_ascii_grid(grid: Grid, path: str) -> None:
    """Write an ESRI ASCII grid.

    Values are printed as shortest round-trip decimals, so a read back
    reproduces the exact float values and a rewrite is byte-identical.
    Nodata cells print exactly as the header's nodata value.
    """
    h = grid.header
    out = [
        f"{_HEADER_CASING['ncols']} {h.ncols}",
        f"{_HEADER_CASING['nrows']} {h.nrows}",
        f"{_HEADER_CASING['xllcorner']} {_fmt(h.xllcorner)}",
        f"{_HEADER_CASING['yllcorner']} {_fmt(h.yllcorner)}",
        f"{_HEADER_CASING['cellsize']} {_fmt(h.cellsize)}",
        f"{_HEADER_CASING['nodata_value']} {_fmt(h.nodata_value)}",
    ]
    nodata_str = _fmt(h.nodata_value)
    nodata = h.nodata_value
    for row in grid.values:
        out.append(" ".join(nodata_str if v == nodata else _fmt(v) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")


def _snap(g: np.ndarray) -> np.ndarray:
    """Snap near-integer fractional coordinates to exact integers."""
    r = np.round(g)
    close = np.abs(g - r) <= ALIGN_TOL * np.maximum(1.0, np.abs(g))
    return np.where(close, r, g)


def resample(src: Grid, template: GridHeader, method: str) -> Grid:
    """Resample ``src`` onto the geometry of ``template``.

    method 'nearest' copies the value of the source cell containing each
    template cell center; 'bilinear' interpolates between the four
    surrounding source cell centers and yields nodata whenever any
    contributor with positive weight is nodata or out of range. Template
    cell centers outside the source extent become nodata. Resampling a grid
    onto its own header is the identity for both methods.
    """
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resampling method {method!r}")
    sh = src.header
    ax0, ay0, ax1, ay1 = sh.extent()
    bx0, by0, bx1, by1 = template.extent()
    if bx0 >= ax1 or bx1 <= ax0 or by0 >= ay1 or by1 <= ay0:
        raise ValueError("template has zero overlap with source extent")

    rows = np.arange(template.nrows)
    cols = np.arange(template.ncols)
    x = template.xllcorner + (cols + 0.5) * template.cellsize
    y = template.yllcorner + (template.nrows - rows - 0.5) * template.cellsize
    # Fractional source indices of the template cell centers.
    gc = _snap((x - sh.xllcorner) / sh.cellsize - 0.5)[None, :]
    gr = _snap((sh.yllcorner + sh.nrows * sh.cellsize - y) / sh.cellsize - 0.5)[:, None]
    gc = np.broadcast_to(gc, (template.nrows, template.ncols))
    gr = np.broadcast_to(gr, (template.nrows, template.ncols))

    out = np.full((template.nrows, template.ncols), template.nodata_value)
    src_valid = src.valid

    if method == "nearest":
        c = np.floor(gc + 0.5).astype(np.int64)
        r = np.floor(gr + 0.5).astype(np.int64)
        inside = (c >= 0) & (c < sh.ncols) & (r >= 0) & (r < sh.nrows)
        ri, ci = r[inside], c[inside]
        vals = src.values[ri, ci]
        vals = np.where(src_valid[ri, ci], vals, template.nodata_value)
        out[inside] = vals
        return Grid(template, out)

    c0 = np.floor(gc).astype(np.int64)
    r0 = np.floor(gr).astype(np.int64)
    fc = gc - c0
    fr = gr - r0
    vals = np.zeros_like(out)
    ok = np.ones(out.shape, dtype=bool)
    any_weight = np.zeros(out.shape, dtype=bool)
    for dr, dc, w in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        r = r0 + dr
        c = c0 + dc
        contributes = w > 0
        any_weight |= contributes
        inside = (r >= 0) & (r < sh.nrows) & (c >= 0) & (c < sh.ncols)
        usable = inside & src_valid[np.clip(r, 0, sh.nrows - 1), np.clip(c, 0, sh.ncols - 1)]
        ok &= usable | ~contributes
        rv = np.where(usable, src.values[np.clip(r, 0, sh.nrows - 1), np.clip(c, 0, sh.ncols - 1)], 0.0)
        vals += np.where(contributes, w * rv, 0.0)
    ok &= any_weight
    out[ok] = vals[ok]
    return Grid(template, out)


@dataclass
class GridStack:
    """Aligned multi-band raster. ``data`` has shape (bands, nrows, ncols)."""

    header: GridHeader
    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        self.names = tuple(self.names)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (len(self.names), self.header.nrows, self.header.ncols):
            raise ValueError("stack data shape does not match names/header")

    @property
    def n_bands(self) -> int:
        return len(self.names)

    def band(self, name: str) -> np.ndarray:
        try:
            return self.data[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no band named {name!r}") from None

    def grid(self, name: str) -> Grid:
        return Grid(self.header, self.band(name).copy())

    def valid_mask(self) -> np.ndarray:
        """True where every band carries data."""
        return (self.data != self.header.nodata_value).all(axis=0)


def build_stack(bands: list[tuple[str, Grid]]) -> GridStack:
    """Stack aligned single-band grids; error names the first differing field."""
    if not bands:
        raise ValueError("cannot build an empty stack")
    names = [n for n, _ in bands]
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise ValueError(f"duplicate band name {dup!r}")
    ref_name, ref = bands[0]
    for name, g in bands[1:]:
        field = misaligned_field(ref.header, g.header)
        if field is not None:
            raise AlignmentError(
                f"band {name!r} is not aligned with {ref_name!r}: header field "
                f"{field!r} differs"
            )
    data = np.stack([g.values for _, g in bands])
    return GridStack(replace(ref.header), tuple(names), data)


def apply_mask(stack: GridStack, mask: Grid) -> GridStack:
    """Set every band to nodata where the mask is nodata or zero."""
    field = misaligned_field(stack.header, mask.header)
    if field is not None:
        raise AlignmentError(f"mask is not aligned with stack: header field {field!r} differs")
    inside = mask.valid & (mask.values != 0)
    data = np.where(inside[None, :, :], stack.data, stack.header.nodata_value)
    return GridStack(replace(stack.header), stack.names, data)


def _shifted(a: np.ndarray, dr: int, dc: int, fill: float) -> np.ndarray:
    """Array of neighbor values: out[r, c] = a[r + dr, c + dc], fill outside."""
    out = np.full_like(a, fill)
    rs = slice(max(dr, 0), a.shape[0] + min(dr, 0))
    rd = slice(max(-dr, 0), a.shape[0] + min(-dr, 0))
    cs = slice(max(dc, 0), a.shape[1] + min(dc, 0))
    cd = slice(max(-dc, 0), a.shape[1] + min(-dc, 0))
    out[rd, cd] = a[rs, cs]
    return out


def _flow_accumulation(z: np.ndarray, valid: np.ndarray, cellsize: float) -> np.ndarray:
    """Single-flow-direction accumulated cell counts.

    Each valid cell routes all its accumulation to the valid neighbor with
    the steepest positive distance-weighted drop (ties to the first neighbor
    in scan order); cells without a descending neighbor drain nowhere.
    """
    nrows, ncols = z.shape
    best_drop = np.full(z.shape, 0.0)
    receiver = np.full(z.shape, -1, dtype=np.int64)
    for k, (dr, dc) in enumerate(_NEIGHBORS):
        dist = cellsize * math.sqrt(dr * dr + dc * dc)
        zn = _shifted(z, dr, dc, np.inf)
        vn = _shifted(valid.astype(np.float64), dr, dc, 0.0) > 0
        drop = np.where(vn, (z - zn) / dist, -np.inf)
        take = valid & (drop > best_drop)
        best_drop = np.where(take, drop, best_drop)
        flat_idx = (np.arange(nrows)[:, None] + dr) * ncols + (np.arange(ncols)[None, :] + dc)
        receiver = np.where(take, flat_idx, receiver)

    acc = np.where(valid, 1.0, 0.0).ravel()
    recv = receiver.ravel()
    zf = z.ravel()
    cells = np.flatnonzero(valid.ravel())
    rows, cols = np.divmod(cells, ncols)
    order = cells[np.lexsort((cols, rows, -zf[cells]))]
    for i in order:
        r = recv[i]
        if r >= 0:
            acc[r] += acc[i]
    return acc.reshape(z.shape)


def derive_terrain(dem: Grid) -> GridStack:
    """Seven terrain bands from a DEM.

    elevation (copy), slope in degrees (3x3 weighted finite differences),
    aspect in degrees clockwise from north (flat cells nodata), profile
    curvature (3x3 quadratic fit), TRI (mean absolute elevation difference
    to the 8 neighbors), SPI and TWI from a single-flow-direction specific
    catchment area with tan(slope) floored at 1e-6. Border cells and cells
    with any nodata neighbor are nodata in every band.
    """
    h = dem.header
    if h.nrows < 3 or h.ncols < 3:
        raise ValueError("DEM must be at least 3x3")
    nodata = h.nodata_value
    cs = h.cellsize
    z = dem.values
    valid = dem.valid

    # z1..z9 in the window layout  z1 z2 z3 / z4 z5 z6 / z7 z8 z9 (z1 = NW).
    win = {}
    all_valid = valid.copy()
    for i, (dr, dc) in enumerate(
        ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)), start=1
    ):
        win[i] = _shifted(z, dr, dc, 0.0)
        all_valid &= _shifted(valid.astype(np.float64), dr, dc, 0.0) > 0
    all_valid[0, :] = all_valid[-1, :] = False
    all_valid[:, 0] = all_valid[:, -1] = False

    z1, z2, z3, z4, z5, z6, z7, z8, z9 = (win[i] for i in range(1, 10))

    # Weighted finite differences over the 3x3 window; x east, y north.
    p = ((z3 + 2 * z6 + z9) - (z1 + 2 * z4 + z7)) / (8 * cs)
    q = ((z1 + 2 * z2 + z3) - (z7 + 2 * z8 + z9)) / (8 * cs)
    slope = np.degrees(np.arctan(np.hypot(p, q)))
    flat = (p == 0) & (q == 0)
    with np.errstate(invalid="ignore"):
        aspect = np.degrees(np.arctan2(-p, -q)) % 360.0

    # Least-squares quadratic surface coefficients on the 3x3 window.
    pe = (z3 + z6 + z9 - z1 - z4 - z7) / (6 * cs)
    qe = (z1 + z2 + z3 - z7 - z8 - z9) / (6 * cs)
    r2 = (z1 + z3 + z4 + z6 + z7 + z9 - 2 * (z2 + z5 + z8)) / (3 * cs * cs)
    s2 = (z3 + z7 - z1 - z9) / (4 * cs * cs)
    t2 = (z1 + z2 + z3 + z7 + z8 + z9 - 2 * (z4 + z5 + z6)) / (3 * cs * cs)
    g2 = pe * pe + qe * qe
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = -(pe * pe * r2 + 2 * pe * qe * s2 + qe * qe * t2) / (
            g2 * np.power(1 + g2, 1.5)
        )
    curv = np.where(g2 < 1e-12, 0.0, curv)

    tri = (
        np.abs(z1 - z5) + np.abs(z2 - z5) + np.abs(z3 - z5) + np.abs(z4 - z5)
        + np.abs(z6 - z5) + np.abs(z7 - z5) + np.abs(z8 - z5) + np.abs(z9 - z5)
    ) / 8.0

    area = _flow_accumulation(z, valid, cs) * cs
    tanb = np.maximum(np.tan(np.radians(slope)), 1e-6)
    spi = area * tanb
    with np.errstate(divide="ignore"):
        twi = np.log(area / tanb)

    def banded(a: np.ndarray, extra_invalid: np.ndarray | None = None) -> np.ndarray:
        bad = ~all_valid if extra_invalid is None else (~all_valid | extra_invalid)
        return np.where(bad, nodata, a)

    data = np.stack(
        [
            banded(z),
            banded(slope),
            banded(aspect, flat),
            banded(curv),
            banded(tri),
            banded(spi),
            banded(twi),
        ]
    )
    return GridStack(replace(h), TERRAIN_BANDS, data)
