"""Exception hierarchy shared across the package, by kind.

Every concrete error is a ``ConfigError`` (invalid input of any kind: bad
words, tables, directions, grids, configs or options; also a ``ValueError``;
CLI exit code 1) or a ``NumericalAbort`` (valid input whose computation could
not finish: singular orbits, event budgets, too much dropped quadrature mass;
CLI exit code 2).  Callers catch a kind, ``except ConfigError`` or ``except
NumericalAbort``, so a new error of either kind needs no edit where caught.
"""

from __future__ import annotations


class BilliardError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(BilliardError, ValueError):
    """Invalid input of any kind: a configuration, option, argument or file
    field that violates an invariant.  It is also a ``ValueError``."""


class NumericalAbort(BilliardError):
    """Valid input whose computation could not finish."""


# --- word / polygon construction -------------------------------------------

class BadAlphabet(ConfigError):
    """Word contains a character outside {E, N, W, S}."""


class OddLength(ConfigError):
    """Word has odd length (sides must alternate horizontal/vertical)."""


class NoAlternation(ConfigError):
    """Two consecutive letters lie in the same horizontal/vertical class."""


class DegenerateWord(ConfigError):
    """Word is too short or cannot bound a polygon (e.g. no east-going side)."""


class GeometryError(ConfigError):
    """Base class for polygon/table construction problems."""


class NonPositiveLength(GeometryError):
    """A side length is zero or negative."""


class ClosureViolated(GeometryError):
    """East/west or north/south length sums differ."""


class SelfIntersecting(GeometryError):
    """The traced boundary touches or crosses itself."""


class OrientationViolated(GeometryError):
    """The traced boundary is clockwise (interior on the right)."""


class HolePlacement(GeometryError):
    """A hole leaves the outer interior or overlaps another hole."""


class EtaTooSmall(GeometryError):
    """Lattice snapping cannot stay within the requested perturbation."""


# --- dynamics ----------------------------------------------------------------

class DegenerateDirection(ConfigError):
    """Direction angle outside the open interval (0, pi/2)."""


class StalledState(ConfigError):
    """Velocity is tangent to the side the point sits on, or points outward."""


class SingularOrbit(NumericalAbort):
    """Orbit reaches a reflex corner; no continuous extension exists."""


class EventBudgetExceeded(NumericalAbort):
    """A flow call used more reflection events than allowed."""


# --- spectral ------------------------------------------------------------------

class GridMismatch(ConfigError):
    """Two sampled observables live on different quadrature grids."""


class UnalignedGrid(ConfigError):
    """Grid resolution is not a multiple of the tiling denominators."""


class TooManySingular(NumericalAbort):
    """Dropped quadrature mass exceeded the allowed fraction."""


# --- lab -----------------------------------------------------------------------

class CombinatoricsMismatch(ConfigError):
    """Two tables expected to share a combinatorics word do not."""
