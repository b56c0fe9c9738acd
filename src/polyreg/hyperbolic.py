"""Geometry in the unit-disk model of the hyperbolic plane.

A polygon with n sides is encoded by 2n boundary parameters on R/Z:
geodesic i is the circular arc (or diameter) through boundary points i
and i+n, orthogonal to the unit circle, and vertex i is the in-disk
intersection of geodesics i and i+1.  The regularizing transform acts on
the vector of boundary gaps b, averaging each gap with its same-parity
neighbour: b_j -> (b_j + b_{j+2}) / 2.  Its limit alternates between the
even and odd gap means, which makes the polygon's interior angles equal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import circulant, euclid

_TWO_PI = 2.0 * math.pi


class NoInteriorIntersectionError(ValueError):
    """The two geodesics do not cross inside the open disk."""


@dataclass(frozen=True)
class BoundaryPoints:
    """2n parameters in [0, 1) on R/Z, cyclically strictly increasing."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 6 or len(pts) % 2 != 0:
            raise ValueError("need an even number of boundary points, at least six")
        if not all(0.0 <= p < 1.0 for p in pts):
            raise ValueError("boundary parameters must lie in [0, 1)")
        gaps = euclid.cyclic_gaps(pts, 1.0)
        if gaps.min() <= 0.0:
            raise ValueError("boundary points must be pairwise distinct")
        if abs(math.fsum(gaps) - 1.0) > 1e-9:
            raise ValueError("boundary points must be cyclically increasing")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points) // 2


@dataclass(frozen=True)
class Geodesic:
    """Disk geodesic: a diameter, or a circular arc orthogonal to the
    unit circle (|center|^2 = 1 + radius^2)."""

    kind: str
    center: complex = 0j
    radius: float = 0.0
    direction: complex = 0j

    def __post_init__(self) -> None:
        if self.kind == "arc":
            if self.radius <= 0.0:
                raise ValueError("arc radius must be positive")
            # relative scaling keeps huge near-antipodal arcs representable
            mag_sq = abs(self.center) ** 2
            if abs(mag_sq - 1.0 - self.radius**2) > 1e-10 * max(1.0, mag_sq):
                raise ValueError("arc is not orthogonal to the unit circle")
        elif self.kind == "diameter":
            if abs(abs(self.direction) - 1.0) > 1e-12:
                raise ValueError("diameter direction must be a unit complex number")
        else:
            raise ValueError("kind must be 'arc' or 'diameter'")

    def boundary_angles(self) -> tuple[float, float]:
        """Angles (radians, in [0, 2*pi)) where the geodesic meets the circle."""
        if self.kind == "diameter":
            theta = cmath.phase(self.direction) % _TWO_PI
            return theta, (theta + math.pi) % _TWO_PI
        psi = cmath.phase(self.center)
        half = math.acos(min(1.0, 1.0 / abs(self.center)))
        return (psi - half) % _TWO_PI, (psi + half) % _TWO_PI

    def contains(self, z: complex, tol: float = 1e-8) -> bool:
        if self.kind == "diameter":
            return abs((z * self.direction.conjugate()).imag) <= tol
        return abs(abs(z - self.center) - self.radius) <= tol

    def tangent_at(self, z: complex) -> complex:
        """Unit tangent direction at a point of the geodesic (sign arbitrary)."""
        if self.kind == "diameter":
            return self.direction
        offset = z - self.center
        return 1j * offset / abs(offset)


def geodesic_from_boundary(t1: float, t2: float) -> Geodesic:
    """Geodesic through the boundary points at parameters t1, t2 on R/Z.

    Antipodal parameters give the diameter; otherwise the arc with center
    (u + v) / (2 cos^2(d/2)) and radius |tan(d/2)|, d the angular separation
    (2 cos^2(d/2) = 1 + cos d, which would cancel to 0 near d = pi).
    """
    u = cmath.exp(2j * math.pi * (t1 % 1.0))
    v = cmath.exp(2j * math.pi * (t2 % 1.0))
    separation = abs(cmath.phase(v / u))
    if separation <= 1e-12:
        raise ValueError("coincident boundary points define no geodesic")
    if abs(separation - math.pi) < 1e-10:
        return Geodesic(kind="diameter", direction=u)
    center = (u + v) / (2.0 * math.cos(separation / 2.0) ** 2)
    # equals |tan(separation / 2)|, but computed from the center so the
    # orthogonality identity |center|^2 = 1 + radius^2 holds to rounding
    radius = math.sqrt(abs(center) ** 2 - 1.0)
    return Geodesic(kind="arc", center=center, radius=radius)


def _strictly_inside_arc(x: float, start: float, end: float) -> bool:
    span = (end - start) % _TWO_PI
    pos = (x - start) % _TWO_PI
    return 1e-12 < pos < span - 1e-12


def _endpoints_interleave(g1: Geodesic, g2: Geodesic) -> bool:
    a1, a2 = g1.boundary_angles()
    inside = sum(_strictly_inside_arc(b, a1, a2) for b in g2.boundary_angles())
    return inside == 1


def intersect(g1: Geodesic, g2: Geodesic) -> complex:
    """The unique common point strictly inside the open disk.

    Exists exactly when the boundary endpoints of the two geodesics
    interleave on the circle; otherwise NoInteriorIntersectionError.
    Both quadratics below have root product 1, so the in-disk root is the
    one with absolute value below 1.
    """
    if not _endpoints_interleave(g1, g2):
        raise NoInteriorIntersectionError("geodesic endpoints do not interleave")
    if g1.kind == "diameter" and g2.kind == "diameter":
        return 0j
    if g1.kind == "diameter" or g2.kind == "diameter":
        diam, arc = (g1, g2) if g1.kind == "diameter" else (g2, g1)
        d = diam.direction
        p = d.real * arc.center.real + d.imag * arc.center.imag
        disc = p * p - 1.0
        if disc < 0.0:
            raise NoInteriorIntersectionError("geodesics are tangent or disjoint")
        s = p - math.sqrt(disc) if p > 0 else p + math.sqrt(disc)
        return s * d
    # Both circles are orthogonal to the unit circle, so their radical
    # line passes through the origin, perpendicular to the center offset.
    u = (g2.center - g1.center) / abs(g2.center - g1.center)
    line = 1j * u
    q = line.real * g1.center.real + line.imag * g1.center.imag
    disc = q * q - 1.0
    if disc < 0.0:
        raise NoInteriorIntersectionError("geodesics are tangent or disjoint")
    t = q - math.sqrt(disc) if q > 0 else q + math.sqrt(disc)
    return t * line


def interior_angle(g1: Geodesic, g2: Geodesic, at: complex, toward: complex | None = None) -> float:
    """Angle of the wedge between the geodesics at `at`, in (0, pi).

    The disk model is conformal, so the euclidean tangent angle equals the
    hyperbolic one.  `toward` selects the wedge containing that direction
    (pass vertex-to-centroid to measure a polygon's interior angle).
    Without a hint the wedge facing away from the arc centers is used,
    which is the polygon side for arc geodesics; if that leaves no usable
    direction (crossing diameters) the acute wedge is returned.
    """
    at = complex(at)
    if not (g1.contains(at) and g2.contains(at)):
        raise ValueError("point does not lie on both geodesics")
    t1, t2 = g1.tangent_at(at), g2.tangent_at(at)
    hint = toward
    if hint is None:
        away = 0j
        for g in (g1, g2):
            if g.kind == "arc":
                away -= (at - g.center) / abs(at - g.center)
        hint = away if abs(away) > 1e-9 else None
    if hint is None or abs(hint) <= 1e-12:
        spread = cmath.phase(t2 / t1) % math.pi
        return min(spread, math.pi - spread)
    base = sorted((cmath.phase(t1) % math.pi, cmath.phase(t2) % math.pi))
    rays = [base[0], base[1], base[0] + math.pi, base[1] + math.pi]
    h = cmath.phase(hint) % _TWO_PI
    if h < rays[0]:
        h += _TWO_PI
    rays.append(rays[0] + _TWO_PI)
    for lo, hi in zip(rays, rays[1:]):
        if lo <= h < hi:
            return hi - lo
    raise AssertionError("unreachable: hint not located in any wedge")


def geodesics_of(bp: BoundaryPoints) -> list[Geodesic]:
    """The n geodesics of the polygon: side i joins points i and i+n."""
    n = bp.n
    return [geodesic_from_boundary(bp.points[i], bp.points[i + n]) for i in range(n)]


def polygon_from_boundary(bp: BoundaryPoints) -> list[complex]:
    """Vertices: vertex i is the in-disk intersection of geodesics i and i+1."""
    geos = geodesics_of(bp)
    n = bp.n
    return [intersect(geos[i], geos[(i + 1) % n]) for i in range(n)]


def gaps_from_points(bp: BoundaryPoints) -> np.ndarray:
    """The 2n gaps between consecutive boundary parameters; they sum to 1."""
    return euclid.cyclic_gaps(bp.points, 1.0)


def points_from_gaps(gaps: np.ndarray, start: float = 0.0) -> BoundaryPoints:
    """Accumulate gaps from an anchor; inverse of gaps_from_points at start."""
    if gaps.min() <= 0.0:
        raise ValueError("gaps must be strictly positive to place boundary points")
    return BoundaryPoints(tuple(np.mod(euclid.positions_from_gaps(start, gaps), 1.0)))


def gap_step_spec(length: int) -> circulant.CirculantSpec:
    """Circulant first row (1/2, 0, 1/2, 0, ..., 0) of the gap transform.

    One step maps b_j to (b_j + b_{j+2}) / 2.  It preserves the total and
    positivity; even- and odd-indexed gaps never mix, so the two parity
    means are invariants of the iteration.
    """
    coeffs = [0.0] * length
    coeffs[0] = 0.5
    coeffs[2] = 0.5
    return circulant.CirculantSpec(tuple(coeffs))


def limit_gaps(gaps: np.ndarray) -> np.ndarray:
    """Limit of the iterated averaging: parity means in alternation."""
    out = np.empty_like(gaps)
    out[0::2] = gaps[0::2].mean()
    out[1::2] = gaps[1::2].mean()
    return out


@dataclass(frozen=True)
class HyperbolicRegularization:
    """An averaging run; boundaries and vertices are decoded on demand from
    the run's gaps and the fixed anchor, boundary point 0."""

    anchor: float
    run: circulant.Run

    @property
    def iterations(self) -> int:
        return self.run.iterations

    @property
    def converged(self) -> bool:
        return self.run.converged

    @property
    def boundaries(self) -> tuple[BoundaryPoints, ...]:
        """Every step's boundary points, replayed from the run."""
        return tuple(points_from_gaps(g, self.anchor) for g in self.run.steps())

    @property
    def final(self) -> BoundaryPoints:
        return points_from_gaps(self.run.final, self.anchor)

    def polygons(self) -> list[list[complex]]:
        """Materialized vertex lists, one per step."""
        return [polygon_from_boundary(bp) for bp in self.boundaries]


def regularize_hyperbolic(bp: BoundaryPoints, tol: float, max_iter: int) -> HyperbolicRegularization:
    """Average every boundary gap with its same-parity neighbour until
    within max-norm tol of the alternating limit.

    The first boundary point is kept as the anchor from which the run's gap
    vectors are decoded back to boundary points.
    """
    gaps = gaps_from_points(bp)
    run = circulant.iterate(gap_step_spec(2 * bp.n), gaps, limit_gaps(gaps), tol, max_iter)
    return HyperbolicRegularization(bp.points[0], run)


def _measured_angles(bp: BoundaryPoints) -> list[float]:
    geos = geodesics_of(bp)
    verts = polygon_from_boundary(bp)
    centroid = sum(verts) / len(verts)
    n = bp.n
    return [
        interior_angle(geos[i], geos[(i + 1) % n], verts[i], toward=centroid - verts[i])
        for i in range(n)
    ]


def check_regular(bp: BoundaryPoints, tol: float) -> bool:
    """Gaps alternate within tol and the measured interior angles agree.

    The angle agreement is measured, not assumed; its tolerance is scaled
    up from the gap tolerance because boundary positions move by O(n*tol)
    and the wedge angle is Lipschitz in them for nondegenerate polygons.
    """
    gaps = gaps_from_points(bp)
    if np.max(np.abs(gaps - limit_gaps(gaps))) > tol:
        return False
    angles = _measured_angles(bp)
    angle_tol = max(100.0 * tol, 1e-9)
    return max(angles) - min(angles) <= angle_tol


def is_ideal_limit(gaps: np.ndarray) -> bool:
    """Does the iteration limit collapse to the boundary?

    True exactly when the odd-parity mean (the limit's second alternating
    value) vanishes, i.e. paired geodesic endpoints merge and the limiting
    sides meet on the unit circle.
    """
    odd_mean = math.fsum(gaps[1::2]) / (len(gaps) // 2)
    return odd_mean <= 1e-12


def center_distance(r: float) -> float:
    """Hyperbolic distance from the disk center to euclidean radius r."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    return math.log((1.0 + r) / (1.0 - r))


def regular_triangle_via_polar(vertices) -> tuple[complex, complex, complex]:
    """Equalize an origin-centered disk triangle through the plane map.

    Radii and azimuths are read off as plain polar coordinates, the
    three-centers construction is applied in the plane, and the resulting
    equilateral triangle is re-centered at the origin: the output vertices
    share one radius and sit 2*pi/3 apart, so their angles are equal by
    rotational symmetry.  A construction landing at radius >= 1 is scaled
    back into the disk (factor 0.9/r; only the common radius changes).
    """
    z = tuple(complex(w) for w in vertices)
    if len(z) != 3:
        raise ValueError("expected exactly three vertices")
    radii = [abs(w) for w in z]
    if max(radii) >= 1.0:
        raise ValueError("vertices must lie strictly inside the unit disk")
    if max(radii) - min(radii) > 1e-8:
        raise ValueError("vertices must be concentric about the origin")
    _, centers = euclid.napoleon(euclid.PlaneTriangle(z))
    mean = sum(centers.vertices) / 3
    offsets = [c - mean for c in centers.vertices]
    radius = sum(abs(o) for o in offsets) / 3
    if radius <= 1e-12:
        raise ValueError("construction degenerates for this vertex orientation")
    if radius >= 1.0:
        radius = 0.9
    return tuple(radius * (o / abs(o)) for o in offsets)
