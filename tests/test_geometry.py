"""Exact-geometry tests: words, polygons, tables, tilings, serialization.

Derived expectations are computed by independent oracles kept inside this
file: a shoelace evaluator for areas, lattice cell counting for tiling
soundness, and a float ray-caster for containment.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhbilliards import geometry
from vhbilliards.dynamics import sides_of
from vhbilliards.errors import (
    BadAlphabet,
    ClosureViolated,
    ConfigError,
    DegenerateWord,
    EtaTooSmall,
    GeometryError,
    HolePlacement,
    NoAlternation,
    NonPositiveLength,
    OddLength,
    SelfIntersecting,
)
from vhbilliards.geometry import (
    PointLocation,
    TABLE_ANCHOR,
    TilingCertificate,
    _classify_exact,
    approximate_pq,
    build_polygon,
    build_table,
    contains_point,
    interior_cells,
    lattice_fits,
    load_table,
    lshape,
    parse_word,
    save_table,
    table_from_dict,
    table_to_dict,
    tile_anchors,
    tiling_parameters,
    unit_square,
)
from vhbilliards.lab import random_table
from vhbilliards.spectral import build_grid

from conftest import walked_loops

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def shoelace_area(vertices):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return abs(total) / 2


def count_lattice_cells(table, p, q):
    """Tiling-soundness oracle: count (1/p, 1/q) cells with interior centers."""
    (x0, y0), (x1, y1) = table.bbox
    nx = int((x1 - x0) * p)
    ny = int((y1 - y0) * q)
    count = 0
    for i in range(nx):
        for j in range(ny):
            cx = x0 + Fraction(2 * i + 1, 2 * p)
            cy = y0 + Fraction(2 * j + 1, 2 * q)
            if contains_point(table, (cx, cy)) is PointLocation.INTERIOR:
                count += 1
    return count


def ray_cast(loops, px, py):
    """Float even/odd ray-casting oracle (points assumed off the boundary)."""
    crossings = 0
    for verts in loops:
        n = len(verts)
        for i in range(n):
            x0, y0 = float(verts[i][0]), float(verts[i][1])
            x1, y1 = float(verts[(i + 1) % n][0]), float(verts[(i + 1) % n][1])
            if x0 != x1:
                continue
            lo, hi = min(y0, y1), max(y0, y1)
            if lo <= py < hi and px < x0:
                crossings += 1
    return crossings % 2 == 1


def table_loops(table):
    return [verts for verts, _, _ in walked_loops(table)]


def float_distance(loops, px, py):
    """Float distance from a point to the nearest side."""
    best = float("inf")
    for verts in loops:
        n = len(verts)
        for i in range(n):
            x0, y0 = float(verts[i][0]), float(verts[i][1])
            x1, y1 = float(verts[(i + 1) % n][0]), float(verts[(i + 1) % n][1])
            cx = min(max(px, min(x0, x1)), max(x0, x1))
            cy = min(max(py, min(y0, y1)), max(y0, y1))
            best = min(best, ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5)
    return best


def per_centre_anchors(table, p, q):
    """Raster oracle: classify every (1/p, 1/q) cell centre on its own, over
    the cover of the bounding box rounded up to whole cells."""
    (x0, y0), (x1, y1) = table.bbox
    sides = table.boundary.sides
    anchors = []
    for j in range(math.ceil((y1 - y0) * q)):
        for i in range(math.ceil((x1 - x0) * p)):
            cx = x0 + Fraction(2 * i + 1, 2 * p)
            cy = y0 + Fraction(2 * j + 1, 2 * q)
            if _classify_exact((cx, cy), sides) is PointLocation.INTERIOR:
                anchors.append((x0 + Fraction(i, p), y0 + Fraction(j, q)))
    return anchors


def balanced_trace_start(letters):
    """Canonicalization oracle: leftmost-bottom east side of the unit-balanced
    reconstruction, scanning every cyclic shift's absolute position."""
    counts = {c: letters.count(c) for c in "ENWS"}
    steps = {"E": (Fraction(1, counts["E"]), Fraction(0)),
             "W": (-Fraction(1, counts["W"]), Fraction(0)),
             "N": (Fraction(0), Fraction(1, counts["N"])),
             "S": (Fraction(0), -Fraction(1, counts["S"]))}
    x = y = Fraction(0)
    best = None
    for i, ch in enumerate(letters):
        if ch == "E" and (best is None or (y, x, i) < best):
            best = (y, x, i)
        dx, dy = steps[ch]
        x, y = x + dx, y + dy
    return best[2]


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


class TestParseWord:
    def test_square_word(self):
        assert parse_word("ENWS").render() == "ENWS"

    def test_lshape_word_canonical_as_given(self):
        assert parse_word("ENWNWS").render() == "ENWNWS"

    def test_rotations_canonicalize_to_same_word(self):
        base = "ENWNWS"
        for k in range(len(base)):
            rotated = base[k:] + base[:k]
            assert parse_word(rotated).render() == base

    def test_canonical_start_matches_balanced_trace_oracle(self):
        for text in ("ENWNWS", "ENENWNWSWS", "ENESENWNWSWS"):
            word = parse_word(text)
            assert balanced_trace_start(word.render()) == 0

    def test_too_short(self):
        with pytest.raises(DegenerateWord):
            parse_word("EN")

    def test_no_alternation(self):
        with pytest.raises(NoAlternation):
            parse_word("EENW")

    def test_bad_alphabet(self):
        with pytest.raises(BadAlphabet):
            parse_word("ENWX")

    def test_odd_length(self):
        with pytest.raises(OddLength):
            parse_word("ENWSE")

    def test_missing_letter_cannot_close(self):
        with pytest.raises(DegenerateWord):
            parse_word("ENEN")

    @given(st.sampled_from(["ENWS", "ENWNWS", "ENENWNWSWS"]),
           st.integers(min_value=0, max_value=9))
    def test_parse_render_idempotent(self, base, shift):
        rotated = base[shift % len(base):] + base[:shift % len(base)]
        word = parse_word(rotated)
        assert parse_word(word.render()) == word


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------


class TestBuildPolygon:
    def test_unit_square(self):
        poly = build_polygon("ENWS", [1, 1, 1, 1])
        assert poly.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
        assert poly.area == 1

    def test_lshape_vertices_and_area(self):
        poly = build_polygon("ENWNWS", [2, 1, 1, 1, 1, 2])
        expected = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        assert poly.vertices == expected
        assert poly.area == shoelace_area(expected) == 3

    def test_closure_violation(self):
        with pytest.raises(ClosureViolated):
            build_polygon("ENWS", [1, 1, 2, 1])

    def test_nonpositive_length(self):
        with pytest.raises(NonPositiveLength):
            build_polygon("ENWS", [1, 0, 1, 0])

    def test_self_intersection(self):
        # upper staircase collides with the lower one for these lengths
        with pytest.raises(SelfIntersecting):
            build_polygon("ENENWSWS", [3, 1, 1, 2, 1, 2, 3, 1])

    def test_length_count_mismatch(self):
        with pytest.raises(ClosureViolated):
            build_polygon("ENWS", [1, 1, 1])

    def test_rotated_word_rotates_lengths_too(self):
        # same L-shape entered with a shifted starting side
        canonical = build_polygon("ENWNWS", [2, 1, 1, 1, 1, 2])
        rotated = build_polygon("NWNWSE", [1, 1, 1, 1, 2, 2])
        assert rotated == canonical
        assert rotated.vertices == canonical.vertices

    @given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                 max_denominator=8),
                    min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_closure_sums_exact_for_rectangles(self, draws):
        e, n = draws[0], draws[1]
        poly = build_polygon("ENWS", [e, n, e, n])
        sums = {c: Fraction(0) for c in "ENWS"}
        for ch, ln in zip(poly.word.letters, poly.lengths):
            sums[ch] += ln
        assert sums["E"] == sums["W"] and sums["N"] == sums["S"]
        assert poly.area == e * n


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("value, call", [
    (_INF, lambda v: build_polygon("ENWS", [v, 1, v, 1])),
    ("x", lambda v: build_polygon("ENWS", [v, 1, v, 1])),
    ("1/0", lambda v: build_polygon("ENWS", [v, 1, v, 1])),
    (None, lambda v: build_polygon("ENWS", [v, 1, v, 1])),
    (_NAN, lambda v: build_table(lshape().outer, [(
        build_polygon("ENWS", ["1/2"] * 4), (v, "5/4"))])),
    (_INF, lambda v: approximate_pq(lshape(), 5, v)),
    (_INF, lambda v: contains_point(lshape(), (v, 1.5))),
    (_NAN, lambda v: contains_point(lshape(), (1.5, v))),
], ids=["length-inf", "length-word", "length-over-zero", "length-none",
        "anchor-nan", "eta-inf", "point-x-inf", "point-y-nan"])
def test_inexact_rational_is_a_config_error(value, call):
    # lengths, hole anchors, eta and query points are read as exact
    # rationals; a value that is none is named in a ConfigError
    with pytest.raises(ConfigError, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("lengths", [
    np.array([1, 1, 1, 1]),
    [np.int64(1), np.int32(1), np.uint8(1), 1],
    [Fraction(1), True, "1", 1.0],
], ids=["numpy-int-array", "numpy-int-scalars", "fraction-bool-str-float"])
def test_exact_rationals_are_accepted(lengths):
    # any numbers.Rational is exact, numpy integers included
    poly = build_polygon("ENWS", lengths)
    assert poly.lengths == (Fraction(1),) * 4
    assert all(type(v) is Fraction and type(v.numerator) is int
               for v in poly.lengths)


# ---------------------------------------------------------------------------
# tables and areas
# ---------------------------------------------------------------------------


class TestTableArea:
    def test_unit_square(self, square):
        assert square.area == 1

    def test_lshape(self, lshape_table):
        assert lshape_table.area == 3

    def test_square_with_centered_hole(self, square_with_hole):
        assert square_with_hole.area == Fraction(3, 4)

    def test_hole_outside_interior_rejected(self):
        hole = build_polygon("ENWS", [1, 1, 1, 1])
        with pytest.raises(HolePlacement):
            build_table(build_polygon("ENWS", [1, 1, 1, 1]), [(hole, (1, 1))])

    def test_overlapping_holes_rejected(self):
        outer = build_polygon("ENWS", [4, 4, 4, 4])
        hole = build_polygon("ENWS", [1, 1, 1, 1])
        with pytest.raises(HolePlacement):
            build_table(outer, [(hole, (2, 2)), (hole, ("5/2", "5/2"))])


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


class TestContainsPoint:
    def test_interior(self, lshape_table):
        assert contains_point(lshape_table, ("3/2", "3/2")) \
            is PointLocation.INTERIOR

    def test_notch_is_exterior(self, lshape_table):
        assert contains_point(lshape_table, ("5/2", "5/2")) \
            is PointLocation.EXTERIOR

    def test_boundary(self, lshape_table):
        assert contains_point(lshape_table, (3, "3/2")) \
            is PointLocation.BOUNDARY

    def test_float_band(self, lshape_table):
        assert contains_point(lshape_table, (3.0 - 5e-10, 1.5)) \
            is PointLocation.BOUNDARY
        assert contains_point(lshape_table, (3.0 - 1e-6, 1.5)) \
            is PointLocation.INTERIOR

    def test_hole_interior_is_exterior(self, square_with_hole):
        assert contains_point(square_with_hole, ("3/2", "3/2")) \
            is PointLocation.EXTERIOR

    def test_matches_ray_cast_oracle(self, lshape_table, rng):
        loops = table_loops(lshape_table)
        for _ in range(300):
            px = 0.5 + 3.0 * rng.random()
            py = 0.5 + 3.0 * rng.random()
            loc = contains_point(lshape_table, (px, py))
            if loc is PointLocation.BOUNDARY:
                continue
            assert (loc is PointLocation.INTERIOR) == ray_cast(loops, px, py)

    def test_floats_match_ray_cast_on_holed_and_random_tables(
            self, holed_table, rng):
        tables = [holed_table] + [random_table(rng) for _ in range(20)]
        for table in tables:
            loops = table_loops(table)
            (x0, y0), (x1, y1) = table.bbox
            for _ in range(200):
                px = float(x0) - 0.2 + (float(x1 - x0) + 0.4) * rng.random()
                py = float(y0) - 0.2 + (float(y1 - y0) + 0.4) * rng.random()
                if float_distance(loops, px, py) < 1e-6:
                    continue
                loc = contains_point(table, (px, py))
                assert loc is not PointLocation.BOUNDARY
                assert (loc is PointLocation.INTERIOR) == \
                    ray_cast(loops, px, py)

    def test_float_band_is_a_distance(self, holed_table):
        # inside the band around a vertex, outside it along the diagonal
        x, y = 1.25, 1.25  # lower-left corner of the hole
        assert contains_point(holed_table, (x - 6e-10, y - 6e-10)) \
            is PointLocation.BOUNDARY
        assert contains_point(holed_table, (x - 8e-10, y - 8e-10)) \
            is PointLocation.INTERIOR
        # a rational query gets no band
        near = (Fraction(5, 4) - Fraction(1, 10**12), Fraction(3, 2))
        assert contains_point(holed_table, near) is PointLocation.INTERIOR

    def test_points_in_line_with_vertices(self, holed_table):
        # x = 2 passes the notch's corner above (2, 1.5), and x = 1.25 and
        # 1.75 pass the hole's corners; the half-open rule must count the
        # crossings there once
        pts = [(2.0, 1.5), (1.25, 1.1), (1.75, 1.1), (3.0, 2.5), (2.0, 3.5)]
        assert [contains_point(holed_table, p) for p in pts] == \
            [PointLocation.INTERIOR] * 3 + [PointLocation.EXTERIOR] * 2


# ---------------------------------------------------------------------------
# tiling certificates
# ---------------------------------------------------------------------------


class TestTilingParameters:
    def test_lshape_unit_lattice(self, lshape_table):
        cert = tiling_parameters(lshape_table)
        assert (cert.p, cert.q, cert.tile_count) == (1, 1, 3)

    def test_three_halves_square(self):
        table = build_table(build_polygon("ENWS", ["3/2"] * 4))
        cert = tiling_parameters(table)
        assert (cert.p, cert.q) == (2, 2)
        assert cert.tile_count == 9 == cert.p * cert.q * table.area

    def test_unit_square(self, square):
        cert = tiling_parameters(square)
        assert (cert.p, cert.q, cert.tile_count) == (1, 1, 1)

    def test_tile_count_matches_cell_count_oracle(self):
        table = build_table(build_polygon("ENWNWS",
                                          ["3/2", "1/2", "1/2", 1, 1, "3/2"]))
        cert = tiling_parameters(table)
        assert cert.tile_count == count_lattice_cells(table, cert.p, cert.q)
        assert cert.tile_count == cert.p * cert.q * table.area

    def test_minimality_by_divisor_descent(self):
        table = build_table(build_polygon("ENWS", ["5/6", "3/4", "5/6", "3/4"]))
        cert = tiling_parameters(table)
        assert lattice_fits(table, cert.p, cert.q)
        for r in {d for d in range(2, cert.p + 1) if cert.p % d == 0}:
            assert not lattice_fits(table, cert.p // r, cert.q)
        for r in {d for d in range(2, cert.q + 1) if cert.q % d == 0}:
            assert not lattice_fits(table, cert.p, cert.q // r)

    def test_raster_matches_per_centre_oracle(self):
        rng = np.random.default_rng(808)
        checked = 0
        for _ in range(60):
            table = random_table(rng)
            cert = tiling_parameters(table)
            if cert.tile_count > 2000:
                continue
            oracle = per_centre_anchors(table, cert.p, cert.q)
            assert tile_anchors(table, cert) == oracle
            raster = interior_cells(table, cert.p, cert.q)
            assert int(raster.sum()) == len(oracle) == cert.tile_count
            checked += 1
        assert checked >= 40

    def test_certificate_off_the_table_lattice(self):
        # a half-unit-wide rectangle is not tiled by unit cells
        table = build_table(build_polygon("ENWS", ["1/2", 1, "1/2", 1]))
        with pytest.raises(GeometryError, match="does not fit"):
            tile_anchors(table, TilingCertificate(1, 1, 1))

    def test_anchors_cover_exactly(self, lshape_table):
        cert = tiling_parameters(lshape_table)
        anchors = tile_anchors(lshape_table, cert)
        assert len(anchors) == cert.tile_count
        assert len(set(anchors)) == cert.tile_count


def on_line_resolutions(offsets):
    """Resolutions r whose cell centres (2k + 1)/(2r) hit one of the exact
    ``offsets``: a/b in lowest terms with b even is hit at r = b/2."""
    return sorted({d.denominator // 2 for d in offsets
                   if d.denominator % 2 == 0})


class TestInteriorCells:
    """The strip raster of ``interior_cells`` against the per-centre oracle,
    on random holed tables at lattice resolutions, at resolutions
    incommensurate with the bounding box, and at resolutions that put cell
    centres exactly on vertical side lines."""

    @staticmethod
    def cases(table, rng):
        (x0, y0), (x1, y1) = table.bbox
        cert = tiling_parameters(table)
        sides = table.boundary.sides
        on_x = on_line_resolutions({s.line - x0 for s in sides if not s.axis})
        on_y = on_line_resolutions({s.line - y0 for s in sides if s.axis})
        cases = {"lattice": (cert.p, cert.q),
                 "incommensurate": tuple(int(v) for v in
                                         rng.choice((3, 7, 9, 11), size=2))}
        if on_x:
            cases["on vertical line"] = (on_x[0], on_y[0] if on_y else 3)
        return {kind: (p, q) for kind, (p, q) in cases.items()
                if (x1 - x0) * p * (y1 - y0) * q <= 600}

    def test_raster_matches_per_centre_oracle(self):
        rng = np.random.default_rng(2023)
        seen = {"lattice": 0, "incommensurate": 0, "on vertical line": 0}
        unaligned = 0
        for _ in range(60):
            table = random_table(rng, hole_probability=0.6)
            (x0, y0), (x1, y1) = table.bbox
            for kind, (p, q) in self.cases(table, rng).items():
                raster = interior_cells(table, p, q)
                assert raster.shape == (math.ceil((x1 - x0) * p),
                                        math.ceil((y1 - y0) * q))
                rows, cols = np.nonzero(raster.T)
                found = [(x0 + Fraction(i, p), y0 + Fraction(j, q))
                         for j, i in zip(rows.tolist(), cols.tolist())]
                assert found == per_centre_anchors(table, p, q), (kind, p, q)
                seen[kind] += 1
                unaligned += ((x1 - x0) * p).denominator > 1
        assert min(seen.values()) >= 25, seen
        assert unaligned >= 20

    def test_one_crossing_pass_per_strip(self, holed_table, monkeypatch):
        calls = []
        crossings = geometry._crossings

        def counted(x, sides):
            calls.append(x)
            return crossings(x, sides)

        monkeypatch.setattr(geometry, "_crossings", counted)
        build_grid(holed_table, 256)
        lines = {s.line for s in holed_table.boundary.sides if not s.axis}
        assert 0 < len(calls) <= len(lines) + 1


# ---------------------------------------------------------------------------
# lattice approximation
# ---------------------------------------------------------------------------


class TestApproximatePq:
    def test_refines_certificate_without_moving_lengths(self, lshape_table):
        out = approximate_pq(lshape_table, 5, Fraction(1, 10))
        assert out.outer.lengths == lshape_table.outer.lengths
        cert = out.certificate
        assert min(cert.p, cert.q) >= 5
        assert cert.tile_count == cert.p * cert.q * out.area

    def test_q1_is_identity(self):
        table = build_table(build_polygon("ENWS", ["3/2", "7/3", "3/2", "7/3"]))
        out = approximate_pq(table, 1, Fraction(1, 100))
        assert out.outer == table.outer
        assert out.certificate == tiling_parameters(table)

    def test_snaps_float_like_lengths(self):
        irr = Fraction("1.41421356")
        table = build_table(build_polygon("ENWS", [irr, 2, irr, 2]))
        out = approximate_pq(table, 10, Fraction(1, 10))
        for a, b in zip(out.outer.lengths, table.outer.lengths):
            assert abs(a - b) <= Fraction(1, 10)
            assert (a * 10).denominator == 1
        assert min(out.certificate.p, out.certificate.q) >= 10
        assert out.outer.word == table.outer.word

    def test_eta_too_small(self):
        irr = Fraction("1.41421356")
        table = build_table(build_polygon("ENWS", [irr, 2, irr, 2]))
        with pytest.raises(EtaTooSmall):
            approximate_pq(table, 10, Fraction(1, 100))

    def test_closure_repair_balances_sums(self):
        table = build_table(build_polygon(
            "ENWNWS",
            [Fraction("2.03"), Fraction("0.98"), Fraction("1.01"),
             Fraction("1.07"), Fraction("1.02"), Fraction("2.05")]))
        out = approximate_pq(table, 4, Fraction(1))
        poly = out.outer
        sums = {c: Fraction(0) for c in "ENWS"}
        for ch, ln in zip(poly.word.letters, poly.lengths):
            sums[ch] += ln
        assert sums["E"] == sums["W"] and sums["N"] == sums["S"]
        assert min(out.certificate.p, out.certificate.q) >= 4

    def test_certified_copy_keeps_boundary_not_side_view(self, holed_table,
                                                          monkeypatch):
        old_view = sides_of(holed_table)
        cert = tiling_parameters(holed_table)

        def no_validation(table):
            raise AssertionError("hole validation ran again")

        monkeypatch.setattr(geometry, "_validate_holes", no_validation)
        out = holed_table.with_certificate(cert)
        assert out.certificate == cert and holed_table.certificate is None
        assert out == holed_table
        assert out.boundary is holed_table.boundary
        assert sides_of(out) is old_view
        assert sides_of(holed_table) is old_view

    def test_hole_anchor_snapped(self, square_with_hole):
        out = approximate_pq(square_with_hole, 8, Fraction(1, 4))
        _, anchor = out.holes[0]
        assert (anchor[0] * 8).denominator == 1
        assert (anchor[1] * 8).denominator == 1
        assert min(out.certificate.p, out.certificate.q) >= 8


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_round_trip_identity(self, square_with_hole, tmp_path):
        path = tmp_path / "table.json"
        save_table(square_with_hole, path)
        assert load_table(path) == square_with_hole

    def test_rationals_serialized_as_strings(self, lshape_table):
        data = table_to_dict(lshape_table)
        assert data["outer"]["lengths"] == ["2/1", "1/1", "1/1", "1/1",
                                            "1/1", "2/1"]
        blob = json.dumps(data)
        assert "2/1" in blob

    def test_dict_round_trip_exact(self):
        table = build_table(build_polygon("ENWS", ["1/3", "22/7", "1/3", "22/7"]))
        assert table_from_dict(table_to_dict(table)) == table

    def test_decimal_number_semantics(self):
        table = table_from_dict(
            {"outer": {"word": "ENWS", "lengths": [0.1, 0.3, 0.1, 0.3]},
             "holes": []})
        assert table.outer.lengths[0] == Fraction(1, 10)

    def test_anchor_convention(self, square):
        assert square.bbox[0] == TABLE_ANCHOR
        assert square.boundary.vertices[0] == (1, 1)


def test_stock_tables():
    assert unit_square().area == 1
    assert lshape().area == 3
