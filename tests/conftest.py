import numpy as np
import pytest

from vhbilliards.geometry import (
    build_polygon,
    build_table,
    lshape,
    unit_square,
)


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
