"""Exact geometry of axis-parallel (VH) polygons and tables.

Everything here runs on ``fractions.Fraction``: side lengths, vertices, areas
and tiling denominators are exact, so closure constraints and minimal-tiling
certificates never depend on floating-point luck.  Conventions:

* A boundary word is a string over ``E N W S`` (east/north/west/south),
  alternating between horizontal ``{E, W}`` and vertical ``{N, S}`` letters.
  The canonical rotation starts with the ``E`` letter lying on the bottom of
  the bounding box, leftmost first.
* Outer boundaries are traversed counterclockwise (interior on the left).
  Holes are stored as ordinary counterclockwise polygons plus the absolute
  position of their bounding-box lower-left corner; the table interior lies
  outside them.
* The outer bounding box of a table is pinned with its lower-left corner at
  ``(1, 1)``.
* Each table walks its boundary loops once, into the exact side list of
  :attr:`VHTable.boundary`.  Hole validation, :func:`contains_point`, the
  cell raster behind tile anchors and quadrature grids, the tiling
  certificates and the float side view of :mod:`dynamics` all read it.
* Point-in-table questions all use one exact crossing rule; float queries
  convert exactly to ``Fraction`` and only the ``EPS_GEOM`` boundary band is
  a tolerance.
"""

from __future__ import annotations

import copy
import enum
import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
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
    OrientationViolated,
    SelfIntersecting,
)

ALPHABET = "ENWS"
HORIZONTAL = frozenset("EW")

# Unit step of each letter (dx, dy).
_STEP = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}

#: Distance from a side within which a float query point counts as boundary.
EPS_GEOM = 1e-9

Point = tuple[Fraction, Fraction]


class PointLocation(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


# ---------------------------------------------------------------------------
# combinatorics words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinatoricsWord:
    """Canonical letter sequence describing one boundary component."""

    letters: tuple[str, ...]

    def __post_init__(self):
        _validate_letters(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def render(self) -> str:
        return "".join(self.letters)

    def __str__(self) -> str:
        return self.render()


def _validate_letters(letters: Sequence[str]) -> None:
    text = "".join(letters)
    bad = sorted(set(text) - set(ALPHABET))
    if bad:
        raise BadAlphabet(f"letters {bad!r} not in E/N/W/S")
    if len(text) % 2 != 0:
        raise OddLength(f"word length {len(text)} is odd")
    if len(text) < 4:
        raise DegenerateWord(f"word {text!r} has fewer than four letters")
    for i, ch in enumerate(text):
        nxt = text[(i + 1) % len(text)]
        if (ch in HORIZONTAL) == (nxt in HORIZONTAL):
            raise NoAlternation(f"letters {i} and {(i + 1) % len(text)} "
                                f"({ch!r}, {nxt!r}) are both "
                                f"{'horizontal' if ch in HORIZONTAL else 'vertical'}")
    for letter in "ENWS":
        if letter not in text:
            raise DegenerateWord(f"word {text!r} has no {letter!r} side; "
                                 "the boundary cannot close")


def _balanced_trace(letters: Sequence[str]) -> list[Point]:
    """Vertices of the word traced with class-balanced unit steps.

    Each letter class gets step 1/(class count), so the trace always closes
    exactly; this makes the start convention intrinsic to the word even
    though real side lengths are not yet known.
    """
    counts = {c: sum(1 for ch in letters if ch == c) for c in ALPHABET}
    steps = {c: Fraction(1, counts[c]) for c in ALPHABET}
    pos = (Fraction(0), Fraction(0))
    out = [pos]
    for ch in letters:
        dx, dy = _STEP[ch]
        pos = (pos[0] + dx * steps[ch], pos[1] + dy * steps[ch])
        out.append(pos)
    return out


def _canonical_shift(letters: tuple[str, ...]) -> int:
    """Index of the leftmost bottom east-going side in the balanced trace."""
    trace = _balanced_trace(letters)
    best: tuple[Fraction, Fraction, int] | None = None
    for i, ch in enumerate(letters):
        if ch != "E":
            continue
        x, y = trace[i]
        key = (y, x, i)
        if best is None or key < best:
            best = key
    assert best is not None  # _validate_letters guarantees an E
    return best[2]


def parse_word(text: str | Iterable[str]) -> CombinatoricsWord:
    """Parse and canonicalize a combinatorics word.

    The canonical rotation is determined from the word alone via the
    class-balanced trace (see :func:`_balanced_trace`); parsing an already
    canonical word returns it unchanged.
    """
    letters = tuple(text)
    _validate_letters(letters)
    shift = _canonical_shift(letters)
    return CombinatoricsWord(letters[shift:] + letters[:shift])


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def _to_fraction(value) -> Fraction:
    """``value`` as a Fraction of ints: any ``numbers.Rational`` (numpy ints
    too), a string, or a float's exact binary value; else a ConfigError."""
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, (str, float)):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ConfigError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class VHPolygon:
    """Simple axis-parallel polygon given by word + exact side lengths.

    ``vertices`` are the side start points in the polygon's own frame, with
    the bounding-box lower-left corner at the origin.
    """

    word: CombinatoricsWord
    lengths: tuple[Fraction, ...]
    vertices: tuple[Point, ...] = field(compare=False)
    width: Fraction = field(compare=False)
    height: Fraction = field(compare=False)
    area: Fraction = field(compare=False)


def build_polygon(word: CombinatoricsWord | str,
                  lengths: Sequence) -> VHPolygon:
    """Construct a polygon, verifying closure, simplicity and orientation.

    A raw letter string is canonicalized together with its lengths (both are
    rotated by the same shift, so sides keep their lengths).  Closure is
    checked exactly; simplicity by exhaustive pairwise side-touch tests
    (tables are small, quadratic cost is irrelevant).
    """
    lens = tuple(_to_fraction(v) for v in lengths)
    if not isinstance(word, CombinatoricsWord):
        letters = tuple(word)
        _validate_letters(letters)
        shift = _canonical_shift(letters)
        word = CombinatoricsWord(letters[shift:] + letters[:shift])
        if len(lens) == len(letters):
            lens = lens[shift:] + lens[:shift]
    if len(lens) != len(word):
        raise ClosureViolated(
            f"{len(lens)} lengths for a {len(word)}-letter word")
    if any(v <= 0 for v in lens):
        raise NonPositiveLength("all side lengths must be positive")

    sums = {c: Fraction(0) for c in ALPHABET}
    for ch, ln in zip(word.letters, lens):
        sums[ch] += ln
    if sums["E"] != sums["W"] or sums["N"] != sums["S"]:
        raise ClosureViolated(
            f"E sum {sums['E']} vs W sum {sums['W']}; "
            f"N sum {sums['N']} vs S sum {sums['S']}")

    pos = (Fraction(0), Fraction(0))
    verts = [pos]
    for ch, ln in zip(word.letters, lens):
        dx, dy = _STEP[ch]
        pos = (pos[0] + dx * ln, pos[1] + dy * ln)
        verts.append(pos)
    verts.pop()  # closure verified above; drop duplicate start

    sides, _ = _walk_loop(verts, word.letters)
    n = len(sides)
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):  # neighbours share one vertex
            if _touch(sides[i], sides[j]):
                raise SelfIntersecting(f"sides {i} and {j} touch or cross")

    area2 = _signed_area2(verts)
    if area2 < 0:
        raise OrientationViolated("boundary traced clockwise; "
                                  "words must put the interior on the left")

    minx = min(v[0] for v in verts)
    miny = min(v[1] for v in verts)
    shifted = tuple((v[0] - minx, v[1] - miny) for v in verts)
    width = max(v[0] for v in shifted)
    height = max(v[1] for v in shifted)
    return VHPolygon(word=word, lengths=lens, vertices=shifted,
                     width=width, height=height, area=area2 / 2)


def _signed_area2(verts: Sequence[Point]) -> Fraction:
    total = Fraction(0)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


class Side(NamedTuple):
    """One side of a boundary loop, exactly.

    ``axis`` is 0 for a vertical side, whose ``line`` is its x, and 1 for a
    horizontal one, whose ``line`` is its y; so ``point[axis]`` is the
    coordinate across the side and ``point[1 - axis]`` the one along it.
    ``lo < hi`` bound the span along the side, with ``lo_vertex`` and
    ``hi_vertex`` the indices of the vertices at those ends.  ``inward`` is
    the sign of the inward normal, and ``loop`` is 0 on the outer loop and
    k + 1 on hole k.
    """

    axis: int
    line: Fraction
    lo: Fraction
    hi: Fraction
    lo_vertex: int
    hi_vertex: int
    inward: int
    loop: int


def _walk_loop(verts: Sequence[Point], letters: Sequence[str], loop: int = 0,
               hole: bool = False, offset: int = 0
               ) -> tuple[list[Side], list[bool]]:
    """Sides and vertex convexity of one loop, in letter order: side i runs
    from vertex i to vertex i + 1, numbered from ``offset``.  On a hole the
    turns and the inward (left) normals of the loop count reversed."""
    n = len(verts)
    sign = -1 if hole else 1
    sides, convex = [], []
    for i, ch in enumerate(letters):
        dx, dy = _STEP[ch]
        pdx, pdy = _STEP[letters[i - 1]]
        convex.append((pdx * dy - pdy * dx > 0) != hole)
        axis = 0 if dx == 0 else 1
        a, b = verts[i][1 - axis], verts[(i + 1) % n][1 - axis]
        ends = [(a, offset + i), (b, offset + (i + 1) % n)]
        (lo, lo_v), (hi, hi_v) = ends if a < b else ends[::-1]
        sides.append(Side(axis, verts[i][axis], lo, hi, lo_v, hi_v,
                          sign * (dx if axis else -dy), loop))
    return sides, convex


def _touch(a: Side, b: Side) -> bool:
    """Whether two closed sides share a point."""
    if a.axis == b.axis:
        return a.line == b.line and a.lo <= b.hi and b.lo <= a.hi
    return a.lo <= b.line <= a.hi and b.lo <= a.line <= b.hi


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

#: outer bounding-box lower-left corner, by convention
TABLE_ANCHOR: Point = (Fraction(1), Fraction(1))


@dataclass(frozen=True)
class TilingCertificate:
    """Witness that every vertex sits on the (1/p, 1/q) rectangle lattice.

    ``tiling_parameters`` returns the minimal such pair; refined (non-minimal)
    certificates produced by :func:`approximate_pq` still describe a valid
    tiling, just with more, smaller tiles.
    """

    p: int
    q: int
    tile_count: int

    def refined(self, q_min: int) -> "TilingCertificate":
        """Sub-tile so both denominators reach at least ``q_min``."""
        kp = -(-q_min // self.p) if self.p < q_min else 1
        kq = -(-q_min // self.q) if self.q < q_min else 1
        return TilingCertificate(self.p * kp, self.q * kq,
                                 self.tile_count * kp * kq)


@dataclass(frozen=True)
class Boundary:
    """Exact boundary model of a table: each loop walked once, outer first.

    Vertices and sides share one numbering, loop by loop: side g starts at
    vertex g.  ``convex[v]`` tells whether the table-interior angle at
    vertex v is pi/2.
    """

    vertices: tuple[Point, ...]
    convex: tuple[bool, ...]
    sides: tuple[Side, ...]

    def loop(self, k: int) -> tuple[list[Point], list[Side]]:
        """Vertices and sides of loop k (0 outer, k + 1 hole k)."""
        idx = [g for g, s in enumerate(self.sides) if s.loop == k]
        return [self.vertices[g] for g in idx], [self.sides[g] for g in idx]


@dataclass(frozen=True)
class VHTable:
    """Axis-parallel polygon with axis-parallel holes removed.

    Holes are pairs ``(polygon, anchor)``: the polygon in its own frame plus
    the absolute position of its bounding-box lower-left corner.  A refined
    tiling certificate may be attached by :func:`approximate_pq`; it does not
    participate in equality.
    """

    outer: VHPolygon
    holes: tuple[tuple[VHPolygon, Point], ...] = ()
    certificate: TilingCertificate | None = field(default=None, compare=False)

    def __post_init__(self):
        _validate_holes(self)

    # -- derived geometry --------------------------------------------------

    @property
    def bbox(self) -> tuple[Point, Point]:
        x0, y0 = TABLE_ANCHOR
        return (TABLE_ANCHOR, (x0 + self.outer.width, y0 + self.outer.height))

    @property
    def area(self) -> Fraction:
        return self.outer.area - sum((h.area for h, _ in self.holes),
                                     Fraction(0))

    @functools.cached_property
    def boundary(self) -> Boundary:
        """The exact boundary model, built on first use and kept on the
        instance: the outer polygon placed at ``TABLE_ANCHOR``, then each
        hole at its anchor."""
        verts, convex, sides = [], [], []
        loops = ((self.outer, TABLE_ANCHOR),) + self.holes
        for loop, (poly, (ax, ay)) in enumerate(loops):
            vs = [(x + ax, y + ay) for x, y in poly.vertices]
            s, c = _walk_loop(vs, poly.word.letters, loop, loop > 0,
                              len(verts))
            verts += vs
            convex += c
            sides += s
        return Boundary(tuple(verts), tuple(convex), tuple(sides))

    def with_certificate(self, cert: TilingCertificate | None) -> "VHTable":
        """This table carrying ``cert``.  The outer polygon and holes are the
        same objects, so the copy skips hole validation and shares everything
        built from them and kept on the instance: the walked boundary, the
        float side view of :mod:`dynamics` and the tile anchors."""
        table = copy.copy(self)
        object.__setattr__(table, "certificate", cert)
        return table


def build_table(outer: VHPolygon,
                holes: Sequence[tuple[VHPolygon, tuple]] = ()) -> VHTable:
    """Assemble a table; hole anchors may be any exact-rational pairs."""
    packed = tuple((poly, (_to_fraction(a[0]), _to_fraction(a[1])))
                   for poly, a in holes)
    return VHTable(outer=outer, holes=packed)


def _validate_holes(table: VHTable) -> None:
    b = table.boundary
    _, outer = b.loop(0)
    holes = [b.loop(k + 1) for k in range(len(table.holes))]
    for verts, sides in holes:
        for v in verts:
            if _classify_exact(v, outer) is not PointLocation.INTERIOR:
                raise HolePlacement(
                    f"hole vertex {v} not strictly inside the outer polygon")
        if any(_touch(s, t) for s in sides for t in outer):
            raise HolePlacement("hole boundary touches the outer boundary")

    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            (verts_i, sides_i), (verts_j, sides_j) = holes[i], holes[j]
            if any(_touch(s, t) for s in sides_i for t in sides_j):
                raise HolePlacement(f"holes {i} and {j} touch")
            if (_classify_exact(verts_i[0], sides_j) is PointLocation.INTERIOR
                    or _classify_exact(verts_j[0], sides_i)
                    is PointLocation.INTERIOR):
                raise HolePlacement(f"holes {i} and {j} are nested")


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------
#
# One crossing rule decides every point-in-table question: the vertical line
# through x crosses the horizontal sides whose x-span [lo, hi) holds x.  The
# half-open span counts a line through a vertex once, as if shifted slightly
# to the right, so a point off the boundary is interior exactly when an odd
# number of crossings lie above it.  Every function here reads side records
# of a table's boundary model.

def _crossings(x: Fraction, sides: Sequence[Side]) -> list[Fraction]:
    """Sorted heights where the vertical line through x crosses the
    horizontal sides, each side's x-span taken half-open."""
    return sorted(s.line for s in sides if s.axis and s.lo <= x < s.hi)


def _near_side(pt: Point, sides: Sequence[Side], tol) -> bool:
    """Whether a side lies within distance ``tol`` of ``pt``, decided on
    exact squared distances; with ``tol`` 0, whether ``pt`` is on a side."""
    for s in sides:
        gap = pt[s.axis] - s.line
        along = pt[1 - s.axis]
        if gap == 0 and s.lo <= along <= s.hi:
            return True
        if tol and abs(gap) <= tol:
            past = max(s.lo - along, along - s.hi, 0)
            if gap ** 2 + past ** 2 <= tol ** 2:
                return True
    return False


def _classify_exact(pt: Point, sides: Sequence[Side],
                    tol=0) -> PointLocation:
    """Exact classification against ``sides``; points within ``tol`` of a
    side are on the boundary."""
    if _near_side(pt, sides, tol):
        return PointLocation.BOUNDARY
    x, y = pt
    above = sum(1 for h in _crossings(x, sides) if h > y)
    return PointLocation.INTERIOR if above % 2 else PointLocation.EXTERIOR


def contains_point(table: VHTable, point: tuple) -> PointLocation:
    """Classify a point exactly.

    A float coordinate converts exactly to a ``Fraction``; a query with one
    counts as on the boundary within ``EPS_GEOM`` of a side (an exact squared
    distance), while rational queries use no band at all.  One pass over
    the table's kept boundary model decides it.
    """
    px, py = point
    banded = isinstance(px, float) or isinstance(py, float)
    return _classify_exact((_to_fraction(px), _to_fraction(py)),
                           table.boundary.sides,
                           Fraction(EPS_GEOM) if banded else 0)


def interior_cells(table: VHTable, p: int, q: int) -> np.ndarray:
    """Raster of the (1/p, 1/q) cells covering the bounding box, from its
    lower-left corner, whose centres are interior: ``out[i, j]`` is cell
    column i, row j, a C-ordered bool array of ceil'd width and height.

    Under the half-open span rule the columns whose centres lie between two
    consecutive vertical side lines cross the same horizontal sides, so
    each such strip makes one :func:`_crossings` call and fills each
    interior run once.  A centre on a side is a boundary point and stays
    out; the column on a vertical side line is found by solving for it.
    """
    (x0, y0), (x1, y1) = table.bbox
    horizontal = [s for s in table.boundary.sides if s.axis]
    vertical = [s for s in table.boundary.sides if not s.axis]
    half = Fraction(1, 2)

    def rows(lo: Fraction, hi: Fraction, closed: bool) -> slice:
        # rows j whose centre y0 + (j + 1/2)/q lies in (lo, hi), or [lo, hi]
        a, b = (lo - y0) * q - half, (hi - y0) * q - half
        first = math.ceil(a) if closed else math.floor(a) + 1
        last = math.floor(b) if closed else math.ceil(b) - 1
        return slice(first, last + 1)

    out = np.zeros((math.ceil((x1 - x0) * p), math.ceil((y1 - y0) * q)),
                   dtype=bool)
    # the first centre x0 + (i + 1/2)/p at or right of a line c, in [0, width]
    cuts = [math.ceil((c - x0) * p - half)
            for c in sorted({s.line for s in vertical})]
    for a, b in zip(cuts, cuts[1:] + [out.shape[0]]):
        if a == b:
            continue
        heights = _crossings(x0 + Fraction(2 * a + 1, 2 * p), horizontal)
        for lo, hi in zip(heights[0::2], heights[1::2]):
            out[a:b, rows(lo, hi, closed=False)] = True
    for s in vertical:
        i = (s.line - x0) * p - half
        if i.denominator == 1:
            out[int(i), rows(s.lo, s.hi, closed=True)] = False
    return out


# ---------------------------------------------------------------------------
# tilings
# ---------------------------------------------------------------------------

def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def tiling_parameters(table: VHTable) -> TilingCertificate:
    """Minimal (p, q) such that all vertices sit on the (1/p, 1/q) lattice.

    All internal geometry is exact-rational, so a certificate always exists;
    minimality is immediate because p and q are least common multiples of the
    coordinate denominators.
    """
    p = 1
    q = 1
    for x, y in table.boundary.vertices:
        p = _lcm(p, x.denominator)
        q = _lcm(q, y.denominator)
    count = table.area * p * q
    assert count.denominator == 1, "lattice-aligned table must have integral tile count"
    return TilingCertificate(p=p, q=q, tile_count=int(count))


def lattice_fits(table: VHTable, p: int, q: int) -> bool:
    """Whether every vertex lies on the (1/p, 1/q) lattice."""
    return all(x.denominator <= p and p % x.denominator == 0
               and y.denominator <= q and q % y.denominator == 0
               for x, y in table.boundary.vertices)


def check_certificate(table: VHTable, cert: TilingCertificate) -> None:
    """Raise :class:`GeometryError` unless ``cert`` describes a tiling of
    ``table``: its lattice fits every vertex and it counts the table's
    ``area * p * q`` tiles.  Every reader of a certificate checks it here."""
    if not lattice_fits(table, cert.p, cert.q):
        raise GeometryError(f"certificate lattice (1/{cert.p}, 1/{cert.q}) "
                            "does not fit the table's vertices")
    found = table.area * cert.p * cert.q
    if cert.tile_count != found:
        raise GeometryError(
            f"certificate claims {cert.tile_count} tiles, found {found}; "
            "table is not tiled by this lattice")


def tile_anchors(table: VHTable, cert: TilingCertificate) -> list[Point]:
    """Lower-left corners of the tiles covering the table, row-major order."""
    check_certificate(table, cert)
    x0, y0 = table.bbox[0]
    rows, cols = np.nonzero(interior_cells(table, cert.p, cert.q).T)
    return [(x0 + Fraction(i, cert.p), y0 + Fraction(j, cert.q))
            for j, i in zip(rows.tolist(), cols.tolist())]


# ---------------------------------------------------------------------------
# lattice snapping / (p,q)-approximation
# ---------------------------------------------------------------------------

def _round_to_lattice(value: Fraction, q: int) -> Fraction:
    """Nearest positive multiple of 1/q, half rounded up."""
    units = (value * q * 2 + 1) // 2  # floor(v*q + 1/2)
    return Fraction(max(int(units), 1), q)


def _repair_class_sums(word: CombinatoricsWord,
                       lengths: list[Fraction], q: int) -> list[Fraction]:
    """Equalize E/W and N/S sums by adding 1/q steps to the deficient class.

    Units go to the longest sides first (ties: earliest word index),
    round-robin, so the repair is deterministic and spreads the perturbation.
    """
    out = list(lengths)
    for plus, minus in (("E", "W"), ("N", "S")):
        s_plus = sum((out[i] for i, c in enumerate(word.letters) if c == plus),
                     Fraction(0))
        s_minus = sum((out[i] for i, c in enumerate(word.letters) if c == minus),
                      Fraction(0))
        deficit = s_plus - s_minus
        if deficit == 0:
            continue
        target = minus if deficit > 0 else plus
        units = abs(deficit) * q
        assert units.denominator == 1
        units = int(units)
        idxs = [i for i, c in enumerate(word.letters) if c == target]
        idxs.sort(key=lambda i: (-out[i], i))
        for k in range(units):
            out[idxs[k % len(idxs)]] += Fraction(1, q)
    return out


def _snap_polygon(poly: VHPolygon, q: int) -> VHPolygon:
    rounded = [_round_to_lattice(v, q) for v in poly.lengths]
    repaired = _repair_class_sums(poly.word, rounded, q)
    return build_polygon(poly.word, repaired)


def parameter_distance(outer_a: VHPolygon, holes_a, outer_b: VHPolygon,
                       holes_b) -> Fraction:
    """Sup-norm distance between the parameters of two tables of the same
    combinatorics, given as outer polygon and ``(polygon, anchor)`` holes:
    outer lengths, hole lengths and hole anchors."""
    d = max(abs(x - y) for x, y in zip(outer_a.lengths, outer_b.lengths))
    for (pa, aa), (pb, ab) in zip(holes_a, holes_b):
        d = max(d, max(abs(x - y) for x, y in zip(pa.lengths, pb.lengths)),
                abs(aa[0] - ab[0]), abs(aa[1] - ab[1]))
    return d


def approximate_pq(table: VHTable, q_min: int, eta) -> VHTable:
    """Return a nearby table certified to tile with min(p, q) >= q_min.

    If the minimal certificate already satisfies the bound the table is
    returned unchanged (with that certificate attached).  Otherwise every
    length and hole anchor is snapped to the (1/q_min, 1/q_min) lattice,
    class sums are repaired deterministically, and the result must stay
    within ``eta`` (sup-norm over lengths and anchors) of the input.
    """
    check_int("q_min", q_min)
    if q_min < 1:
        raise ConfigError("q_min must be a positive integer")
    eta = _to_fraction(eta)
    if eta <= 0:
        raise ConfigError("eta must be positive")

    cert0 = tiling_parameters(table)
    if min(cert0.p, cert0.q) >= q_min:
        return table.with_certificate(cert0)

    new_outer = _snap_polygon(table.outer, q_min)
    new_holes = []
    for poly, (ax, ay) in table.holes:
        new_poly = _snap_polygon(poly, q_min)
        new_anchor = (_round_to_lattice(ax, q_min), _round_to_lattice(ay, q_min))
        new_holes.append((new_poly, new_anchor))

    deviation = parameter_distance(table.outer, table.holes,
                                   new_outer, new_holes)
    if deviation > eta:
        raise EtaTooSmall(
            f"snapping to the 1/{q_min} lattice moves a parameter by "
            f"{deviation} > eta = {eta}")

    snapped = VHTable(outer=new_outer, holes=tuple(new_holes))
    cert = tiling_parameters(snapped)
    refined = cert.refined(q_min)
    return snapped.with_certificate(refined)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def table_to_dict(table: VHTable) -> dict:
    return {
        "outer": {
            "word": table.outer.word.render(),
            "lengths": [_frac_str(v) for v in table.outer.lengths],
        },
        "holes": [
            {
                "word": poly.word.render(),
                "lengths": [_frac_str(v) for v in poly.lengths],
                "anchor": [_frac_str(a[0]), _frac_str(a[1])],
            }
            for poly, a in table.holes
        ],
    }


def check_config_keys(raw, required, allowed, what: str) -> None:
    """Raise ConfigError naming any missing or unknown key of a JSON config.

    A typo in an optional key would otherwise run silently with its default.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"missing {what} key(s): {', '.join(missing)}")


def check_int(name: str, value) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is a Python or
    numpy integer; a bool is an int, but in a config it is a typo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def table_from_dict(data: dict) -> VHTable:
    """The table of :func:`table_to_dict`'s JSON form.  Malformed input
    raises ConfigError naming the field, such as ``holes[0].anchor``."""
    check_config_keys(data, ("outer",), ("outer", "holes"), "table")
    holes = data.get("holes", [])
    if not isinstance(holes, list):
        raise ConfigError(f"holes must be a list, got {holes!r}")
    return build_table(_polygon_from_dict(data["outer"], "outer", ()), [
        (_polygon_from_dict(h, f"holes[{k}]", ("anchor",)),
         _parse_rationals(h["anchor"], f"holes[{k}].anchor", 2))
        for k, h in enumerate(holes)])


def _polygon_from_dict(data, what: str, extra: tuple) -> VHPolygon:
    keys = ("word", "lengths") + extra
    check_config_keys(data, keys, keys, what)
    if not isinstance(data["word"], str):
        raise ConfigError(f"{what}.word must be a string, got {data['word']!r}")
    return build_polygon(parse_word(data["word"]),
                         _parse_rationals(data["lengths"], f"{what}.lengths"))


def _parse_rationals(values, what: str, count: int | None = None) -> list:
    if not isinstance(values, list) or count not in (None, len(values)):
        n = "" if count is None else f"{count} "
        raise ConfigError(f"{what} must be a list of {n}rationals, "
                          f"got {values!r}")
    return [_parse_rational(v, f"{what}[{k}]") for k, v in enumerate(values)]


def _parse_rational(v, what: str) -> Fraction:
    # strings are authoritative; bare JSON numbers get decimal semantics so
    # that "0.1" means 1/10, not the binary double
    if not isinstance(v, bool) and isinstance(v, (str, int, float)):
        try:
            return Fraction(repr(v) if isinstance(v, float) else v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"{what} must be a finite rational, as a number or a "
                      f"string such as \"1/3\", got {v!r}")


def save_table(table: VHTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_dict(table), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_table(path) -> VHTable:
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_dict(json.load(fh))


def table_hash(table: VHTable) -> str:
    """Stable short hash of the exact table data."""
    blob = json.dumps(table_to_dict(table), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# stock tables
# ---------------------------------------------------------------------------

def unit_square() -> VHTable:
    return build_table(build_polygon("ENWS", [1, 1, 1, 1]))


def lshape() -> VHTable:
    """The 6-sided L with arm widths 1 and outer extent 2."""
    return build_table(build_polygon("ENWNWS", [2, 1, 1, 1, 1, 2]))
