"""Problem instances: coordinates, distance metrics, and file readers.

An instance is an immutable list of task coordinates plus the rule for
measuring distance between them.  Planar instances use unrounded Euclidean
distance; geographic instances use the haversine great-circle distance on a
sphere of radius 6371 km.  Both produce a dense symmetric matrix that every
downstream component consumes.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0

# Dense n x n matrices; beyond this the quadratic memory is no longer "desk scale".
DEFAULT_DIMENSION_CAP = 4000


class ParseError(ValueError):
    """An instance file, or a report read back, is malformed."""


class UnsupportedFormatError(ParseError):
    """An instance file uses a format variant this reader does not handle."""


class Metric(enum.Enum):
    EUCLIDEAN = "euclidean2d"
    GREAT_CIRCLE = "greatcircle"


@dataclass(frozen=True)
class Instance:
    """Immutable coordinate set with distance semantics.

    ``coords`` has one row per node: ``(x, y)`` in arbitrary planar units for
    ``Metric.EUCLIDEAN``, ``(lat_deg, lon_deg)`` for ``Metric.GREAT_CIRCLE``.
    The array is copied and frozen at construction.
    """

    name: str
    coords: np.ndarray
    metric: Metric

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64, copy=True)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array")
        if coords.shape[0] < 2:
            raise ValueError("an instance needs at least 2 nodes")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        if self.metric is Metric.GREAT_CIRCLE:
            if np.any(np.abs(coords[:, 0]) > 90.0):
                raise ValueError("latitude outside [-90, 90]")
            if np.any(np.abs(coords[:, 1]) > 180.0):
                raise ValueError("longitude outside [-180, 180]")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]


def build_distance_matrix(inst: Instance) -> np.ndarray:
    """Dense symmetric distance matrix for every node pair, for at most
    ``DEFAULT_DIMENSION_CAP`` nodes.

    Symmetry and the zero diagonal hold exactly.  A Euclidean coordinate
    difference negates exactly, so the matrix is built in place without a
    mirror; the great-circle upper triangle is computed once and mirrored.
    Coordinates so large that a distance overflows are refused with a
    ``ValueError``.
    """
    n = inst.dimension
    if n > DEFAULT_DIMENSION_CAP:
        raise ValueError(
            f"instance has {n} nodes, above the dense-matrix cap of {DEFAULT_DIMENSION_CAP}"
        )
    if inst.metric is Metric.EUCLIDEAN:
        x, y = inst.coords[:, 0], inst.coords[:, 1]
        full = np.subtract.outer(x, x)
        full *= full
        dy = np.subtract.outer(y, y)
        dy *= dy
        full += dy
        del dy
        np.sqrt(full, out=full)
    else:
        rad = np.radians(inst.coords)
        lat, lon = rad[:, 0], rad[:, 1]
        dphi = lat[:, None] - lat[None, :]
        dlmb = lon[:, None] - lon[None, :]
        s = np.sin(dphi / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlmb / 2.0) ** 2
        upper = np.triu(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0))), k=1)
        full = upper + upper.T
    if not np.isfinite(full).all():
        scale = float(np.abs(inst.coords).max())
        raise ValueError(
            f"non-finite distances: the coordinate scale {scale:.3g} overflows "
            "the distance matrix; rescale the coordinates"
        )
    return full


def _collapse_duplicates(coords: np.ndarray, name: str) -> np.ndarray:
    """Drop repeated coordinate rows, keeping first occurrences in file order.

    Zero-distance pairs make the visibility term 1/d undefined, so duplicates
    cannot survive loading.
    """
    seen = {}
    keep = []
    for i, row in enumerate(coords):
        key = (float(row[0]), float(row[1]))
        if key not in seen:
            seen[key] = i
            keep.append(i)
    if len(keep) < len(coords):
        warnings.warn(
            f"{name}: collapsed {len(coords) - len(keep)} duplicate coordinate rows",
            stacklevel=3,
        )
        return coords[np.array(keep)]
    return coords


_EDGE_WEIGHT_METRICS = {"EUC_2D": Metric.EUCLIDEAN, "GEO": Metric.GREAT_CIRCLE}


def parse_tsplib(text: str) -> Instance:
    """Read the NODE_COORD_SECTION subset of the TSPLIB format.

    Recognised header keys: NAME, TYPE (ignored), COMMENT (ignored),
    DIMENSION, EDGE_WEIGHT_TYPE (EUC_2D or GEO), then NODE_COORD_SECTION with
    one ``index x y`` line per node and an optional trailing EOF.  One-based
    file indices become zero-based node ids; node order follows file order.
    GEO coordinates are decimal degrees ``lat lon``.
    """
    lines = [ln.strip() for ln in text.splitlines()]

    header: dict[str, str] = {}
    coord_lines: list[str] = []
    in_coords = False
    for ln in lines:
        if not ln:
            continue
        if not in_coords:
            if ln.upper() == "NODE_COORD_SECTION":
                in_coords = True
                continue
            if ln.upper() == "EOF":
                break
            if ":" in ln:
                key, _, value = ln.partition(":")
                header[key.strip().upper()] = value.strip()
            else:
                raise ParseError(f"malformed header line {ln!r}")
        else:
            if ln.upper() == "EOF":
                break
            coord_lines.append(ln)

    if not in_coords:
        raise ParseError("missing NODE_COORD_SECTION")
    for key in ("NAME", "DIMENSION", "EDGE_WEIGHT_TYPE"):
        if key not in header:
            raise ParseError(f"missing header key {key}")
    try:
        dim = int(header["DIMENSION"])
    except ValueError:
        raise ParseError(f"malformed header key DIMENSION: {header['DIMENSION']!r}") from None
    if dim < 1:
        raise ParseError(f"malformed header key DIMENSION: {dim}")
    ewt = header["EDGE_WEIGHT_TYPE"].upper()
    if ewt not in _EDGE_WEIGHT_METRICS:
        raise UnsupportedFormatError(f"unsupported EDGE_WEIGHT_TYPE {ewt!r}")
    metric = _EDGE_WEIGHT_METRICS[ewt]

    if len(coord_lines) != dim:
        raise ParseError(
            f"expected {dim} coordinate lines, got {len(coord_lines)}"
        )
    coords = np.empty((dim, 2), dtype=np.float64)
    for i, ln in enumerate(coord_lines):
        tokens = ln.split()
        if len(tokens) != 3:
            raise ParseError(
                f"coordinate line {i + 1}: expected 3 fields, got {len(tokens)}"
            )
        try:
            coords[i, 0] = float(tokens[1])
            coords[i, 1] = float(tokens[2])
        except ValueError:
            raise ParseError(f"coordinate line {i + 1}: non-numeric field") from None

    name = header["NAME"]
    coords = _collapse_duplicates(coords, name)
    try:
        return Instance(name, coords, metric)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_tsplib(inst: Instance) -> str:
    """Emit an instance back to TSPLIB text.

    Coordinates are written with shortest round-trip decimals, so
    ``parse_tsplib(serialize_tsplib(inst))`` reproduces them bit-exactly.
    """
    ewt = "EUC_2D" if inst.metric is Metric.EUCLIDEAN else "GEO"
    out = [
        f"NAME: {inst.name}",
        "TYPE: TSP",
        f"DIMENSION: {inst.dimension}",
        f"EDGE_WEIGHT_TYPE: {ewt}",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(inst.coords):
        out.append(f"{i + 1} {float(x)!r} {float(y)!r}")
    out.append("EOF")
    return "\n".join(out) + "\n"


def parse_geo_csv(text: str, name: str = "geo") -> Instance:
    """Read an ``id,lat,lon`` CSV into a great-circle instance."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty geo csv")
    header = [f.strip().lower() for f in lines[0].split(",")]
    if header != ["id", "lat", "lon"]:
        raise ParseError(f"geo csv header must be 'id,lat,lon', got {lines[0]!r}")
    coords = np.empty((len(lines) - 1, 2), dtype=np.float64)
    for i, ln in enumerate(lines[1:]):
        fields = [f.strip() for f in ln.split(",")]
        if len(fields) != 3:
            raise ParseError(f"geo csv row {i + 1}: expected 3 fields, got {len(fields)}")
        try:
            coords[i, 0] = float(fields[1])
            coords[i, 1] = float(fields[2])
        except ValueError:
            raise ParseError(f"geo csv row {i + 1}: non-numeric coordinate") from None
    if len(coords) < 2:
        raise ParseError("geo csv needs at least 2 nodes")
    coords = _collapse_duplicates(coords, name)
    try:
        return Instance(name, coords, Metric.GREAT_CIRCLE)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_instance(path) -> Instance:
    """Load a .tsp (TSPLIB) or .csv (id,lat,lon) instance file."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".csv":
        return parse_geo_csv(text, name=p.stem)
    return parse_tsplib(text)


def random_planar_instance(
    n: int, seed: int, clusters: int = 0, name: str | None = None
) -> Instance:
    """Seeded synthetic planar instance in the 100 x 100 box, optionally
    drawn around cluster centers."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    if clusters > 0:
        centers = rng.uniform(0.0, 100.0, size=(clusters, 2))
        which = rng.integers(0, clusters, size=n)
        coords = centers[which] + rng.normal(0.0, 6.0, size=(n, 2))
        coords = np.clip(coords, 0.0, 100.0)
    else:
        coords = rng.uniform(0.0, 100.0, size=(n, 2))
    if len(np.unique(coords, axis=0)) != n:
        # Vanishingly unlikely with float64 draws; resample rather than collapse.
        return random_planar_instance(n, seed + 993319, clusters, name)
    return Instance(name or f"rand{n}-s{seed}", coords, Metric.EUCLIDEAN)
