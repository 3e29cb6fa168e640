"""Exception hierarchy shared across the package.

Validation errors (bad words, broken closure, misplaced holes, ...) map to
CLI exit code 1; numerical aborts (singular orbits, budget overruns, too much
dropped quadrature mass) map to exit code 2.
"""

from __future__ import annotations


class BilliardError(Exception):
    """Base class for every error raised by this package."""


# --- word / polygon construction -------------------------------------------

class WordError(BilliardError):
    """Base class for combinatorics-word problems."""


class BadAlphabet(WordError):
    """Word contains a character outside {E, N, W, S}."""


class OddLength(WordError):
    """Word has odd length (sides must alternate horizontal/vertical)."""


class NoAlternation(WordError):
    """Two consecutive letters lie in the same horizontal/vertical class."""


class DegenerateWord(WordError):
    """Word is too short or cannot bound a polygon (e.g. no east-going side)."""


class GeometryError(BilliardError):
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

class DynamicsError(BilliardError):
    """Base class for flow/orbit problems."""


class DegenerateDirection(DynamicsError):
    """Direction angle outside the open interval (0, pi/2)."""


class StalledState(DynamicsError):
    """Velocity is tangent to the side the point sits on, or points outward."""


class SingularOrbit(DynamicsError):
    """Orbit reaches a reflex corner; no continuous extension exists."""


class EventBudgetExceeded(DynamicsError):
    """A flow call used more reflection events than allowed."""


# --- spectral ------------------------------------------------------------------

class SpectralError(BilliardError):
    """Base class for observable/quadrature problems."""


class GridMismatch(SpectralError):
    """Two sampled observables live on different quadrature grids."""


class UnalignedGrid(SpectralError):
    """Grid resolution is not a multiple of the tiling denominators."""


class TooManySingular(SpectralError):
    """Dropped quadrature mass exceeded the allowed fraction."""


# --- lab -----------------------------------------------------------------------

class ConfigError(BilliardError, ValueError):
    """Invalid input of any kind: a configuration, option, argument or file
    field that violates an invariant.  It is also a ``ValueError``."""


class CombinatoricsMismatch(ConfigError):
    """Two tables expected to share a combinatorics word do not."""
