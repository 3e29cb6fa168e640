"""Tests of the exact boundary model (``VHTable.boundary``).

Two oracles are kept here: the loop walk that built the float ``SideTable``
directly from the table's outer polygon, holes and anchors with a letter ->
inward-normal table, and the endpoint-pair segment intersection test that
hole validation and polygon simplicity used.  The model and its readers must
agree with both, and the exception messages of rejected polygons and holes
are pinned.
"""

from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhbilliards.dynamics import EPS_CORNER, prepare_sides, sides_of
from vhbilliards.errors import HolePlacement, SelfIntersecting
from vhbilliards.geometry import (
    Side,
    _touch,
    build_polygon,
    build_table,
    lshape,
)
from vhbilliards.lab import random_table

from conftest import walked_loops

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_STEP = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}
_INWARD = {
    (False, "E"): (0, 1), (False, "N"): (-1, 0),
    (False, "W"): (0, -1), (False, "S"): (1, 0),
    (True, "E"): (0, -1), (True, "N"): (1, 0),
    (True, "W"): (0, 1), (True, "S"): (-1, 0),
}


def walked_side_arrays(table):
    """SideTable arrays from a direct walk of the table's loops, with ends
    ordered on their float values and the convexity of the vertex at each
    end; its ``groups``: each side under the (axis, sign) of its inward
    normal, in side order, with its span widened by ``EPS_CORNER``; and its
    ``ends_of`` and ``convex_of`` tuples."""
    cols = {k: [] for k in ("axis", "coord", "lo", "hi", "lo_convex",
                            "hi_convex")}
    groups = {(a, sign): [] for a in (0, 1) for sign in (-1, 1)}
    ends, convex = [], []
    for verts, letters, is_hole in walked_loops(table):
        n = len(verts)
        offset = len(convex)
        for i in range(n):
            pdx, pdy = _STEP[letters[i - 1]]
            cdx, cdy = _STEP[letters[i]]
            convex.append((pdx * cdy - pdy * cdx > 0) != is_hole)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            ix, iy = _INWARD[(is_hole, letters[i])]
            axis = 0 if letters[i] in "NS" else 1
            cols["axis"].append(axis)
            cols["coord"].append(float(a[axis]))
            ea, eb = float(a[1 - axis]), float(b[1 - axis])
            ia, ib = offset + i, offset + (i + 1) % n
            if ea > eb:
                ea, eb, ia, ib = eb, ea, ib, ia
            cols["lo"].append(ea)
            cols["hi"].append(eb)
            cols["lo_convex"].append(convex[ia])
            cols["hi_convex"].append(convex[ib])
            ends.append(((ea, ia), (eb, ib)))
            groups[axis, ix + iy].append((float(a[axis]), ea - EPS_CORNER,
                                          eb + EPS_CORNER, offset + i))
    dtypes = {"axis": np.int8, "lo_convex": bool, "hi_convex": bool}
    arrays = {k: np.array(v, dtype=dtypes.get(k, np.float64))
              for k, v in cols.items()}
    return arrays, groups, tuple(ends), tuple(convex)


def segments_intersect(a, b):
    """Exact intersection test for two axis-parallel closed segments given
    by their endpoints."""
    (ax0, ay0), (ax1, ay1) = a
    (bx0, by0), (bx1, by1) = b
    a_vert = ax0 == ax1
    b_vert = bx0 == bx1
    if a_vert and b_vert:
        if ax0 != bx0:
            return False
        lo_a, hi_a = sorted((ay0, ay1))
        lo_b, hi_b = sorted((by0, by1))
        return not (hi_a < lo_b or hi_b < lo_a)
    if (not a_vert) and (not b_vert):
        if ay0 != by0:
            return False
        lo_a, hi_a = sorted((ax0, ax1))
        lo_b, hi_b = sorted((bx0, bx1))
        return not (hi_a < lo_b or hi_b < lo_a)
    if a_vert:
        vx, (vlo, vhi) = ax0, sorted((ay0, ay1))
        hy, (hlo, hhi) = by0, sorted((bx0, bx1))
    else:
        vx, (vlo, vhi) = bx0, sorted((by0, by1))
        hy, (hlo, hhi) = ay0, sorted((ax0, ax1))
    return hlo <= vx <= hhi and vlo <= hy <= vhi


# ---------------------------------------------------------------------------
# the model and its float projection
# ---------------------------------------------------------------------------


class TestBoundaryModel:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_side_table_equals_walk_oracle(self, seed):
        table = random_table(np.random.default_rng(seed),
                             hole_probability=0.6)
        sides = prepare_sides(table)
        arrays, groups, ends, convex = walked_side_arrays(table)
        for name, want in arrays.items():
            got = getattr(sides, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert sides.groups == groups
        assert sides.ends_of == ends
        assert sides.convex_of == convex
        assert sides.axis_of == tuple(arrays["axis"].tolist())
        # the walk covers every field of the view
        assert {f.name for f in fields(sides)} == set(arrays) | {
            "groups", "ends_of", "convex_of", "axis_of"}

    def test_holed_table_model(self, holed_table):
        b = holed_table.boundary
        assert len(b.vertices) == len(b.convex) == len(b.sides) == 10
        assert [s.loop for s in b.sides] == [0] * 6 + [1] * 4
        # the reflex corner of the L, and the hole's corners
        assert b.convex == (True,) * 3 + (False,) + (True,) * 2 \
            + (False,) * 4
        for g, s in enumerate(b.sides):
            assert s.lo < s.hi
            assert g in (s.lo_vertex, s.hi_vertex)  # side g starts at g
            for v, end in ((s.lo_vertex, s.lo), (s.hi_vertex, s.hi)):
                assert b.vertices[v][s.axis] == s.line
                assert b.vertices[v][1 - s.axis] == end
        assert list(b.vertices) == [v for verts, _, _ in
                                    walked_loops(holed_table) for v in verts]

    def test_model_is_built_once_per_table(self, holed_table):
        assert holed_table.boundary is holed_table.boundary
        assert sides_of(holed_table) is sides_of(holed_table)
        # equal tables built separately each keep their own
        other = build_table(holed_table.outer, holed_table.holes)
        assert other == holed_table
        assert other.boundary is not holed_table.boundary
        assert other.boundary == holed_table.boundary


# ---------------------------------------------------------------------------
# the side-touch test
# ---------------------------------------------------------------------------

coords = st.integers(min_value=0, max_value=6).map(lambda k: Fraction(k, 2))


@st.composite
def sides_and_segments(draw):
    """A Side record and the same side as a pair of endpoints, in either
    order."""
    axis = draw(st.integers(min_value=0, max_value=1))
    line = draw(coords)
    lo, hi = sorted(draw(st.lists(coords, min_size=2, max_size=2,
                                  unique=True)))
    ends = [(line, lo), (line, hi)] if axis == 0 else [(lo, line),
                                                        (hi, line)]
    if draw(st.booleans()):
        ends.reverse()
    return Side(axis, line, lo, hi, 0, 1, 1, 0), tuple(ends)


class TestTouch:
    @given(sides_and_segments(), sides_and_segments())
    @settings(max_examples=400)
    def test_agrees_with_segment_oracle(self, a, b):
        (side_a, seg_a), (side_b, seg_b) = a, b
        want = segments_intersect(seg_a, seg_b)
        assert _touch(side_a, side_b) == want
        assert _touch(side_b, side_a) == want


# ---------------------------------------------------------------------------
# pinned messages
# ---------------------------------------------------------------------------


def square(side):
    return build_polygon("ENWS", [side] * 4)


class TestMessages:
    @pytest.mark.parametrize("word, lengths, message", [
        ("ENENWSWS", [3, 1, 1, 2, 1, 2, 3, 1], "sides 1 and 5 touch or cross"),
        ("ENENWSWS", [1, 3, 2, 2, 1, 3, 2, 2], "sides 1 and 6 touch or cross"),
        ("ENWSWNWS", [3, 3, 1, 3, 1, 3, 1, 3], "sides 0 and 3 touch or cross"),
        ("ENENWNWSWS", [2, 2, 3, 1, 1, 1, 1, 2, 3, 2],
         "sides 1 and 8 touch or cross"),
    ])
    def test_self_intersecting(self, word, lengths, message):
        with pytest.raises(SelfIntersecting) as err:
            build_polygon(word, lengths)
        assert str(err.value) == message

    def test_hole_escapes(self):
        with pytest.raises(HolePlacement) as err:
            build_table(square(4), [(square(1), (0, 2))])
        assert str(err.value) == ("hole vertex (Fraction(0, 1), "
                                  "Fraction(2, 1)) not strictly inside the "
                                  "outer polygon")

    def test_hole_in_the_notch_escapes(self):
        with pytest.raises(HolePlacement) as err:
            build_table(lshape().outer, [(square("1/2"), ("9/4", "9/4"))])
        assert str(err.value) == ("hole vertex (Fraction(9, 4), "
                                  "Fraction(9, 4)) not strictly inside the "
                                  "outer polygon")

    def test_hole_touches_outer(self):
        # every vertex lies in an arm of the U, but the hole spans its gap
        u_shape = build_polygon("ENWSWNWS", [3, 2, 1, 1, 1, 1, 1, 2])
        bridge = build_polygon("ENWS", [2, "1/2", 2, "1/2"])
        with pytest.raises(HolePlacement) as err:
            build_table(u_shape, [(bridge, ("3/2", "9/4"))])
        assert str(err.value) == "hole boundary touches the outer boundary"

    @pytest.mark.parametrize("holes, message", [
        ([(1, (2, 2)), (1, (3, 2))], "holes 0 and 1 touch"),
        ([(1, (2, 2)), ("1/2", ("5/2", "5/2"))], "holes 0 and 1 touch"),
        ([(2, (2, 2)), ("1/2", ("5/2", "5/2"))], "holes 0 and 1 are nested"),
        ([("1/2", ("5/2", "5/2")), (2, (2, 2))], "holes 0 and 1 are nested"),
        ([("1/2", (2, 2)), ("1/2", (3, 3)), ("1/2", ("11/4", "5/2"))],
         "holes 1 and 2 touch"),
    ])
    def test_holes_touch_or_nest(self, holes, message):
        with pytest.raises(HolePlacement) as err:
            build_table(build_polygon("ENWS", [4] * 4),
                        [(square(s), a) for s, a in holes])
        assert str(err.value) == message
