"""Instance parsing, serialization, and distance matrices."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    euclidean_distance,
    haversine_distance,
    law_of_cosines_km,
    reference_distance_matrix,
)
from sinepath import instances
from sinepath.instances import (
    EARTH_RADIUS_KM,
    Instance,
    Metric,
    ParseError,
    UnsupportedFormatError,
    build_distance_matrix,
    load_instance,
    parse_geo_csv,
    parse_tsplib,
    random_planar_instance,
    serialize_tsplib,
)

TRI3_TEXT = """\
NAME: tri3
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 3.0 0.0
3 0.0 4.0
EOF
"""


def test_parse_tsplib_basic():
    inst = parse_tsplib(TRI3_TEXT)
    assert inst.name == "tri3"
    assert inst.dimension == 3
    assert inst.metric is Metric.EUCLIDEAN
    assert np.array_equal(inst.coords, [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


def test_parse_tsplib_file(tri3_path):
    inst = load_instance(tri3_path)
    assert inst.name == "tri3"
    assert inst.dimension == 3


@pytest.mark.parametrize("key", ["NAME", "DIMENSION", "EDGE_WEIGHT_TYPE"])
def test_parse_tsplib_missing_header_key(key):
    lines = [ln for ln in TRI3_TEXT.splitlines() if not ln.startswith(key)]
    with pytest.raises(ParseError, match=key):
        parse_tsplib("\n".join(lines))


def test_parse_tsplib_bad_dimension():
    with pytest.raises(ParseError, match="DIMENSION"):
        parse_tsplib(TRI3_TEXT.replace("DIMENSION: 3", "DIMENSION: three"))
    with pytest.raises(ParseError, match="DIMENSION"):
        parse_tsplib(TRI3_TEXT.replace("DIMENSION: 3", "DIMENSION: 0"))


def test_parse_tsplib_unsupported_weight_type():
    text = TRI3_TEXT.replace("EUC_2D", "ATT")
    with pytest.raises(UnsupportedFormatError, match="ATT"):
        parse_tsplib(text)
    # the specialised error still reads as a parse error
    with pytest.raises(ParseError):
        parse_tsplib(text)


def test_parse_tsplib_wrong_coordinate_count():
    text = TRI3_TEXT.replace("DIMENSION: 3", "DIMENSION: 4")
    with pytest.raises(ParseError, match=r"expected 4 coordinate lines, got 3"):
        parse_tsplib(text)


def test_parse_tsplib_bad_coordinate_lines():
    with pytest.raises(ParseError, match="expected 3 fields"):
        parse_tsplib(TRI3_TEXT.replace("2 3.0 0.0", "2 3.0"))
    with pytest.raises(ParseError, match="non-numeric"):
        parse_tsplib(TRI3_TEXT.replace("2 3.0 0.0", "2 x 0.0"))


@pytest.mark.parametrize(
    "index, cause",
    [
        ("abc", r"'abc' is not in 1\.\.3"),
        ("2.0", r"'2\.0' is not in 1\.\.3"),
        ("+3", r"'\+3' is not in 1\.\.3"),
        ("0", r"'0' is not in 1\.\.3"),
        ("4", r"'4' is not in 1\.\.3"),
        ("1", "'1' repeats"),
    ],
)
def test_parse_tsplib_refuses_bad_node_indices(index, cause):
    # the third coordinate line carries the bad index; it used to be ignored
    text = TRI3_TEXT.replace("3 0.0 4.0", f"{index} 0.0 4.0")
    with pytest.raises(ParseError, match=f"coordinate line 3: node index {cause}"):
        parse_tsplib(text)


def test_parse_tsplib_node_ids_follow_indices_not_line_order():
    rng = np.random.default_rng(9)
    inst = Instance("shuffled", rng.uniform(-50, 50, size=(17, 2)), Metric.EUCLIDEAN)
    lines = serialize_tsplib(inst).splitlines()
    start = lines.index("NODE_COORD_SECTION") + 1
    coord_lines = lines[start:-1]
    rng.shuffle(coord_lines)
    assert coord_lines != lines[start:-1]
    back = parse_tsplib("\n".join(lines[:start] + coord_lines + ["EOF"]))
    assert np.array_equal(back.coords, inst.coords)


@pytest.mark.parametrize("fixture", ["tri3_path", "geo50_path"])
def test_load_instance_skips_utf8_byte_order_mark(fixture, request, tmp_path):
    # spreadsheet exports start with a BOM; it used to break the header check
    path = request.getfixturevalue(fixture)
    with_bom = tmp_path / path.name
    with_bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    plain, marked = load_instance(path), load_instance(with_bom)
    assert (marked.name, marked.metric) == (plain.name, plain.metric)
    assert np.array_equal(marked.coords, plain.coords)


def test_parse_tsplib_missing_section():
    text = "NAME: x\nDIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\n"
    with pytest.raises(ParseError, match="NODE_COORD_SECTION"):
        parse_tsplib(text)


def test_parse_tsplib_malformed_header_line():
    with pytest.raises(ParseError, match="malformed header"):
        parse_tsplib("NAME x\n" + TRI3_TEXT)


def test_duplicate_rows_collapse_with_warning():
    text = TRI3_TEXT.replace("DIMENSION: 3", "DIMENSION: 4").replace(
        "3 0.0 4.0", "3 0.0 4.0\n4 3.0 0.0"
    )
    with pytest.warns(UserWarning, match="1 duplicate") as record:
        inst = parse_tsplib(text)
    assert record[0].filename == __file__  # points at the parser's caller
    assert inst.dimension == 3
    # first occurrence survives, file order kept
    assert np.array_equal(inst.coords, [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


def test_serialize_round_trip_bit_exact():
    rng = np.random.default_rng(7)
    inst = Instance("rt", rng.uniform(-50, 50, size=(17, 2)), Metric.EUCLIDEAN)
    text = serialize_tsplib(inst)
    back = parse_tsplib(text)
    assert back.name == inst.name
    assert back.metric is inst.metric
    assert np.array_equal(back.coords, inst.coords)
    assert serialize_tsplib(back) == text


def test_serialize_round_trip_geo():
    rng = np.random.default_rng(8)
    coords = np.column_stack(
        [rng.uniform(-80, 80, size=9), rng.uniform(-170, 170, size=9)]
    )
    inst = Instance("g", coords, Metric.GREAT_CIRCLE)
    back = parse_tsplib(serialize_tsplib(inst))
    assert back.metric is Metric.GREAT_CIRCLE
    assert np.array_equal(back.coords, inst.coords)


def test_geo_csv(geo50_path):
    inst = load_instance(geo50_path)
    assert inst.name == "geo50"
    assert inst.metric is Metric.GREAT_CIRCLE
    assert inst.dimension == 50
    assert np.all(np.abs(inst.coords[:, 0]) <= 90.0)


def test_geo_csv_errors():
    with pytest.raises(ParseError, match="header"):
        parse_geo_csv("lat,lon,id\n1,2,3\n")
    with pytest.raises(ParseError, match="expected 3 fields"):
        parse_geo_csv("id,lat,lon\n1,2\n2,3,4\n")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_geo_csv("id,lat,lon\n1,a,4\n2,3,4\n")
    with pytest.raises(ParseError):
        parse_geo_csv("")
    with pytest.raises(ParseError, match="at least 2"):
        parse_geo_csv("id,lat,lon\n1,2,3\n")


def test_geo_bounds_rejected():
    with pytest.raises(ParseError, match="latitude"):
        parse_geo_csv("id,lat,lon\n1,91.0,0\n2,0,0\n")
    with pytest.raises(ValueError, match="longitude"):
        Instance("x", [[0.0, 181.0], [1.0, 1.0]], Metric.GREAT_CIRCLE)


def test_instance_validation():
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        Instance("x", np.zeros((3, 3)), Metric.EUCLIDEAN)
    with pytest.raises(ValueError, match="at least 2"):
        Instance("x", [[0.0, 0.0]], Metric.EUCLIDEAN)
    with pytest.raises(ValueError, match="finite"):
        Instance("x", [[0.0, np.nan], [1.0, 1.0]], Metric.EUCLIDEAN)


def test_instance_coords_frozen():
    inst = Instance("x", [[0.0, 0.0], [1.0, 1.0]], Metric.EUCLIDEAN)
    with pytest.raises(ValueError):
        inst.coords[0, 0] = 5.0


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_instance(tmp_path / "nope.tsp")


def test_matrix_euclidean_exact_properties():
    rng = np.random.default_rng(11)
    for trial in range(10):
        inst = random_planar_instance(12, seed=100 + trial)
        d = build_distance_matrix(inst)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(12))
        off = d[~np.eye(12, dtype=bool)]
        assert np.all(off > 0)
        i, j = rng.integers(0, 12, size=2)
        if i != j:
            ref = euclidean_distance(inst.coords[i], inst.coords[j])
            assert d[i, j] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 64, 301])
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6, 1e150])
def test_matrix_bit_identical_to_reference(n, scale):
    # coordinates of both signs
    coords = np.random.default_rng(n).uniform(-50.0, 50.0, size=(n, 2)) * scale
    inst = Instance("scaled", coords, Metric.EUCLIDEAN)
    d = build_distance_matrix(inst)
    assert np.array_equal(d, reference_distance_matrix(inst.coords))
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(n))


def test_matrix_memory_peak():
    # the result plus one n^2 scratch array; the (n, n, 2) broadcast needed 5x
    n = 1500
    inst = random_planar_instance(n, seed=5)
    tracemalloc.start()
    try:
        build_distance_matrix(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


def test_matrix_triangle_inequality():
    for trial in range(5):
        inst = random_planar_instance(15, seed=200 + trial)
        d = build_distance_matrix(inst)
        # d[i, k] <= d[i, j] + d[j, k] for every intermediate j
        via = d[:, :, None] + d[None, :, :]
        slack = 1e-9 * d.max()
        assert np.all(d[:, None, :] <= via + slack)


def test_matrix_great_circle_matches_scalar():
    rng = np.random.default_rng(12)
    coords = np.column_stack(
        [rng.uniform(-80, 80, size=10), rng.uniform(-179, 179, size=10)]
    )
    inst = Instance("g", coords, Metric.GREAT_CIRCLE)
    d = build_distance_matrix(inst)
    assert np.array_equal(d, d.T)
    for i in range(10):
        for j in range(i + 1, 10):
            ref = haversine_distance(coords[i], coords[j])
            assert d[i, j] == pytest.approx(ref, rel=1e-9)


def _great_circle(a, b) -> float:
    """The distance matrix entry between two (lat, lon) points."""
    pair = Instance("pair", np.array([a, b], dtype=float), Metric.GREAT_CIRCLE)
    return float(build_distance_matrix(pair)[0, 1])


def test_haversine_against_independent_formula():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 30:
        lat1, lat2 = rng.uniform(-80, 80, size=2)
        lon1, lon2 = rng.uniform(-179, 179, size=2)
        ref = law_of_cosines_km(lat1, lon1, lat2, lon2)
        if ref < 1.0:  # law of cosines loses precision near zero
            continue
        got = _great_circle((lat1, lon1), (lat2, lon2))
        assert got == pytest.approx(ref, rel=1e-6)
        checked += 1


def test_haversine_antipodal_and_zero():
    half_circumference = math.pi * EARTH_RADIUS_KM
    assert _great_circle((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
        half_circumference, rel=1e-12
    )
    assert _great_circle((90.0, 0.0), (-90.0, 0.0)) == pytest.approx(
        half_circumference, rel=1e-12
    )
    assert _great_circle((10.0, 20.0), (10.0, 20.0)) == 0.0


def test_haversine_longitude_shift_invariance():
    rng = np.random.default_rng(14)
    for _ in range(50):
        lat1, lat2 = rng.uniform(-85, 85, size=2)
        lon1, lon2 = rng.uniform(-180, 180, size=2)
        shift = rng.uniform(-360, 360)
        wrap = lambda lon: ((lon + shift + 180.0) % 360.0) - 180.0
        base = _great_circle((lat1, lon1), (lat2, lon2))
        moved = _great_circle((lat1, wrap(lon1)), (lat2, wrap(lon2)))
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_dimension_cap(monkeypatch):
    inst = random_planar_instance(11, seed=1)
    monkeypatch.setattr(instances, "DEFAULT_DIMENSION_CAP", 10)
    with pytest.raises(ValueError, match="cap of 10"):
        build_distance_matrix(inst)
    monkeypatch.setattr(instances, "DEFAULT_DIMENSION_CAP", 11)
    assert build_distance_matrix(inst).shape == (11, 11)


def test_matrix_refuses_non_finite_distances():
    # coordinates near 1e172 square past the float range inside the matrix
    inst = random_planar_instance(12, seed=3)
    huge = Instance("huge12", inst.coords * 1e170, Metric.EUCLIDEAN)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite distances.*coordinate scale"):
            build_distance_matrix(huge)


def test_random_planar_instance_seeded():
    a = random_planar_instance(30, seed=42, clusters=3)
    b = random_planar_instance(30, seed=42, clusters=3)
    c = random_planar_instance(30, seed=43, clusters=3)
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)
    assert a.dimension == 30
    assert len(np.unique(a.coords, axis=0)) == 30
    assert np.all((a.coords >= 0) & (a.coords <= 100))
