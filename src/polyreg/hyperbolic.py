"""Geometry in the unit-disk model of the hyperbolic plane.

A polygon with n sides is encoded by 2n boundary parameters t_j on R/Z,
u_j = exp(2 pi i t_j): side i is the geodesic joining boundary points i
and i+n, and vertex i is where sides i and i+1 cross.  Geodesics are
chords in the Klein model, so a vertex is one chord crossing mapped into
the disk model; an interior angle is read off after one disk automorphism
moves the vertex to the centre and straightens its sides into diameters
(Beardon, The Geometry of Discrete Groups, 1983, ch. 7).  The
regularizing transform acts on the vector of boundary gaps b, averaging
each gap with its same-parity neighbour: b_j -> (b_j + b_{j+2}) / 2.  Its
limit alternates between the even and odd gap means, which makes the
polygon's interior angles equal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import circulant, euclid


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


def polygon_from_boundary(bp: BoundaryPoints) -> list[complex]:
    """Vertices: vertex i is the crossing of sides i and i+1.

    In the Klein model side i is the chord (u_i, u_{i+n}), u_j the boundary
    point at parameter t_j.  Chords (a, b) and (c, d) of the unit circle
    cross at k = (ab(c+d) - cd(a+b)) / (ab - cd); cyclic order makes every
    pair of sides cross, and k / (1 + sqrt(1 - |k|^2)) is the same point in
    the disk model.
    """
    u = [cmath.exp(2j * math.pi * t) for t in bp.points]
    n = bp.n
    verts = []
    for i in range(n):
        a, b = u[i], u[i + n]
        c, d = u[i + 1], u[(i + 1 + n) % (2 * n)]
        ab, cd = a * b, c * d
        k = (ab * (c + d) - cd * (a + b)) / (ab - cd)
        depth = 1.0 - abs(k) ** 2
        if depth <= 0.0:
            raise ValueError("boundary points too close: a vertex rounds onto the circle")
        verts.append(k / (1.0 + math.sqrt(depth)))
    return verts


def interior_angles(bp: BoundaryPoints) -> list[float]:
    """Interior angle at each vertex, in (0, pi).

    The disk automorphism T(w) = (w - z) / (1 - conj(z) w) moves vertex z to
    the centre and straightens its two sides into diameters; T'(z) > 0, so
    it keeps directions at z.  The interior angle is the wedge facing
    boundary points i and i+1 (or its vertical opposite, which is equal),
    |arg(T(u_{i+1}) / T(u_i))|; the other two wedges are its supplement.
    """
    u = [cmath.exp(2j * math.pi * t) for t in bp.points]
    angles = []
    for i, z in enumerate(polygon_from_boundary(bp)):
        zc = z.conjugate()
        ti = (u[i] - z) / (1.0 - zc * u[i])
        tj = (u[i + 1] - z) / (1.0 - zc * u[i + 1])
        angles.append(abs(cmath.phase(tj / ti)))
    return angles


def gaps_from_points(bp: BoundaryPoints) -> np.ndarray:
    """The 2n gaps between consecutive boundary parameters; they sum to 1."""
    return euclid.cyclic_gaps(bp.points, 1.0)


def points_from_gaps(gaps: np.ndarray, start: float = 0.0) -> BoundaryPoints:
    """Accumulate gaps from an anchor; inverse of gaps_from_points at start."""
    if gaps.min() <= 0.0:
        raise ValueError("gaps must be strictly positive to place boundary points")
    if abs(math.fsum(gaps) - 1.0) > 1e-9:
        raise ValueError("gaps must sum to 1")
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


def regularize_hyperbolic(bp: BoundaryPoints, tol: float, max_iter: int) -> circulant.Regularization:
    """Average every boundary gap with its same-parity neighbour until
    within max-norm tol of the alternating limit.

    The run decodes to BoundaryPoints (polygon_from_boundary gives their
    vertices), accumulated from the first boundary point, which stays put.
    """
    gaps = gaps_from_points(bp)
    run = circulant.iterate(gap_step_spec(2 * bp.n), gaps, limit_gaps(gaps), tol, max_iter)
    anchor = bp.points[0]
    return circulant.Regularization(run, lambda gaps, m: points_from_gaps(gaps, anchor))


def check_regular(bp: BoundaryPoints, tol: float) -> bool:
    """Gaps alternate within tol and the measured interior angles agree.

    The angle agreement is measured, not assumed; its tolerance is scaled
    up from the gap tolerance because boundary positions move by O(n*tol)
    and the wedge angle is Lipschitz in them for nondegenerate polygons.
    """
    gaps = gaps_from_points(bp)
    if np.max(np.abs(gaps - limit_gaps(gaps))) > tol:
        return False
    angles = interior_angles(bp)
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
