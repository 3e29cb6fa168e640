import numpy as np
import pytest

from vhbilliards.geometry import (
    TABLE_ANCHOR,
    build_polygon,
    build_table,
    lshape,
    unit_square,
)


def walked_loops(table):
    """Boundary loops as ``(vertices, letters, is_hole)``: the outer polygon
    placed at ``TABLE_ANCHOR``, then each hole at its anchor.  Walked from
    ``outer`` and ``holes`` directly, so oracles built on it do not read
    ``VHTable.boundary``."""
    placed = [(table.outer, TABLE_ANCHOR, False)]
    placed += [(poly, anchor, True) for poly, anchor in table.holes]
    return [([(x + ax, y + ay) for x, y in poly.vertices],
             poly.word.letters, is_hole)
            for poly, (ax, ay), is_hole in placed]


@pytest.fixture
def square():
    return unit_square()


@pytest.fixture
def lshape_table():
    return lshape()


@pytest.fixture
def square_with_hole():
    hole = build_polygon("ENWS", ["1/2", "1/2", "1/2", "1/2"])
    return build_table(build_polygon("ENWS", [1, 1, 1, 1]),
                       [(hole, ("5/4", "5/4"))])


@pytest.fixture
def holed_table():
    """The README's table: the L-shape with a half-unit square hole."""
    hole = build_polygon("ENWS", ["1/2", "1/2", "1/2", "1/2"])
    return build_table(lshape().outer, [(hole, ("5/4", "5/4"))])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
