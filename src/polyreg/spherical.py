"""Geometry on the unit sphere: circumcircles, axis rotations, cyclic
frames, the vertex-rotation regularization family, least-squares
small-circle fitting with geodesic projection, and the chordal
three-centers construction.

Points are unit 3-vectors.  A cyclic polygon is reduced to a frame
(axis, common axis-dot, ccw angle gaps, vertex 0's azimuth) and rebuilt
from it exactly; the regularizing step acts on the gaps through a
row-stochastic circulant while the circle stays fixed.  Every guard is
written so that NaN fails it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import circulant, euclid
from .euclid import step_spec  # the sphere's step, under the name callers use

UNIT_TOL = 1e-12
ADJACENT_TOL = 1e-9
CYCLIC_TOL = 1e-8
_TWO_PI = 2.0 * math.pi


class NotCyclicError(ValueError):
    """Vertices do not share a circumscribed circle within tolerance."""


class DegenerateConfigurationError(ValueError):
    """Point configuration too degenerate for the requested construction."""


# np.cross and np.linalg.norm on 3-vectors, bit for bit and with the same
# overflow errors (hence .dot: an overflowing @ names matmul), without
# numpy's per-call dispatch.  Python float arithmetic never raises, so
# _cross only takes checked unit vectors or their differences.
def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(v * v, axis=1))


def unit_vector(v) -> np.ndarray:
    """Normalize to a unit 3-vector; rejects near-zero and non-finite input."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector")
    norm = _norm(v)
    if not 1e-12 <= norm < math.inf:
        raise DegenerateConfigurationError("cannot normalize a near-zero or non-finite vector")
    return v / norm


def _unit_rows(points, name: str) -> np.ndarray:
    """points as a fresh (m, 3) float array whose rows are unit vectors."""
    v = np.array(points, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"{name} must be [x, y, z] coordinates")
    if not np.all(np.abs(_row_norms(v) - 1.0) <= UNIT_TOL):
        raise ValueError(f"{name} must have unit length")
    return v


@dataclass(frozen=True)
class SphericalPolygon:
    """Ordered unit vertices, counter-clockwise about the circumcircle axis."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = _unit_rows(self.vertices, "vertices")
        if v.shape[0] < 3:
            raise ValueError("polygon needs at least three vertices")
        nxt = np.roll(v, -1, axis=0)
        if np.min(_row_norms(nxt - v)) <= ADJACENT_TOL:
            raise ValueError("adjacent vertices must be distinct")
        if np.min(_row_norms(nxt + v)) <= ADJACENT_TOL:
            raise ValueError("adjacent vertices must not be antipodal")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def n(self) -> int:
        return int(self.vertices.shape[0])

    @functools.cached_property
    def frame(self) -> CyclicFrame:
        """to_cyclic_frame(self), extracted once per polygon; an error is
        not cached, so a non-cyclic polygon raises on every access."""
        return to_cyclic_frame(self)


@dataclass(frozen=True)
class CyclicFrame:
    """Circumcircle axis, common axis-dot value, ccw angle gaps, and the
    azimuth of vertex 0.

    The gaps are the azimuthal angles between consecutive vertices about
    the axis, each in (0, 2*pi) and summing to 2*pi; start is vertex 0's
    azimuth in the axis's _complete_frame basis.
    """

    axis: np.ndarray
    cos_radius: float
    gaps: np.ndarray
    start: float = 0.0

    def __post_init__(self) -> None:
        axis = _unit_rows([self.axis], "axis")[0]
        if not -1.0 < self.cos_radius < 1.0:
            raise ValueError("cos_radius must lie strictly inside (-1, 1)")
        gaps = np.array(self.gaps, dtype=float)
        if gaps.ndim != 1 or gaps.shape[0] < 3:
            raise ValueError("need at least three gaps")
        if not np.all((gaps > 0.0) & (gaps < _TWO_PI)):
            raise ValueError("each gap must lie in (0, 2*pi)")
        if not abs(math.fsum(gaps) - _TWO_PI) <= 1e-10:
            raise ValueError("gaps must sum to 2*pi")
        if not math.isfinite(self.start):
            raise ValueError("start must be finite")
        axis.setflags(write=False)
        gaps.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "cos_radius", float(self.cos_radius))
        object.__setattr__(self, "start", float(self.start))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Proper rotation by `angle` about the unit axis.

    Counter-clockwise when viewed from the axis tip: for axis e3 the angle
    pi/2 maps e1 to e2.
    """
    axis = _unit_rows([axis], "axis")[0]
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(axis, axis)


def circumcenter_triangle(z0, z1, z2) -> np.ndarray:
    """Unit axis with equal dot products against the three vertices.

    The sign follows the orientation of the triple, so the vertices wind
    counter-clockwise about the returned axis; the common dot product is
    negative when the triple is ordered clockwise around its near pole.
    A triple that rounds to degenerate has its rotations tried too.
    """
    return _candidate_axis(_unit_rows([z0, z1, z2], "points"))


def _complete_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed orthonormal completion (e1, e2) of the axis."""
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = seed - float(seed @ axis) * axis
    e1 /= _norm(e1)
    return e1, _cross(axis, e1)


def _azimuths(axis: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    e1, e2 = _complete_frame(axis)
    return np.arctan2(vertices @ e2, vertices @ e1)


def _candidate_axis(vertices: np.ndarray) -> np.ndarray:
    """(z1 - z0) x (z2 - z0), normalized, of the first spread triple
    (i, i + n//3, i + 2n//3) of checked unit rows that spans a plane;
    unlike adjacent triples, those keep the axis error at rounding level
    for any n."""
    n = vertices.shape[0]
    for i in range(n):
        z0, z1, z2 = vertices[i], vertices[(i + n // 3) % n], vertices[(i + 2 * n // 3) % n]
        d1, d2 = z1 - z0, z2 - z0
        cross = _cross(d1, d2)
        norm = _norm(cross)
        span = max(_norm(d1), _norm(d2), _norm(z2 - z1))
        if norm > 1e-12 * max(span * span, 1e-30):
            return cross / norm
    raise DegenerateConfigurationError(
        "vertex differences do not span a plane; no circumcircle"
    )


def to_cyclic_frame(p: SphericalPolygon) -> CyclicFrame:
    """Axis, common dot value, ccw gaps and vertex 0's azimuth of a cyclic
    polygon; from_cyclic_frame inverts it.

    The axis comes from the spread triple (0, n//3, 2n//3), or a later
    one if that does not span a plane (_candidate_axis); beyond triangles
    all vertex dots against it have to agree within 1e-8, otherwise
    NotCyclicError.  A polygon that winds once winds ccw about the axis;
    one that does not (a star) is NotCyclicError too.
    """
    v = p.vertices
    axis = _candidate_axis(v)
    dots = v @ axis
    if not float(np.max(dots) - np.min(dots)) <= CYCLIC_TOL:
        raise NotCyclicError("vertices are not equidistant from a common axis")
    cos_radius = float(np.mean(dots))
    if not -1.0 + 1e-12 < cos_radius < 1.0 - 1e-12:
        raise DegenerateConfigurationError("circumscribed circle degenerates to a point")
    azimuths = _azimuths(axis, v)
    gaps = euclid.cyclic_gaps(azimuths)
    if not abs(math.fsum(gaps) - _TWO_PI) <= 1e-6:
        raise NotCyclicError("vertices do not wind once counter-clockwise about the axis")
    return CyclicFrame(axis=axis, cos_radius=cos_radius, gaps=gaps, start=float(azimuths[0]))


def _ring(axis: np.ndarray, cos_radius: float, azimuths: np.ndarray) -> SphericalPolygon:
    """Vertices on the circle of axis-dot cos_radius at the given azimuths."""
    e1, e2 = _complete_frame(axis)
    sin_radius = math.sqrt(max(0.0, 1.0 - cos_radius * cos_radius))
    ring = np.outer(np.cos(azimuths), e1) + np.outer(np.sin(azimuths), e2)
    return SphericalPolygon(cos_radius * axis + sin_radius * ring)


def from_cyclic_frame(f: CyclicFrame) -> SphericalPolygon:
    """Rebuild the vertices on the frame's circle; inverts to_cyclic_frame."""
    return _ring(f.axis, f.cos_radius, euclid.positions_from_gaps(f.start, f.gaps))


def regularize(p: SphericalPolygon, k: int, tol: float, max_iter: int) -> circulant.Run:
    """Rotate every vertex about the axis by its own gap over k
    (euclid.rotate_on_circle) until every gap is within tol of 2*pi/n; the
    run decodes to SphericalPolygons.

    The axis and the vertex-to-axis dots of p.frame stay fixed over the
    whole run; only the gaps are iterated, through step_spec.  Raises
    NotCyclicError for inputs without a shared axis (fit and project
    those first).
    """
    frame = p.frame
    place = functools.partial(_ring, frame.axis, frame.cos_radius)
    return euclid.rotate_on_circle(frame.start, frame.gaps, k, tol, max_iter, place)


def fit_small_circle(points) -> tuple[np.ndarray, float]:
    """Least-squares axis and common dot value for points near one circle.

    Minimizes the spread of axis-dots: the axis is the normal of the
    least-squares plane (eigenvector of the smallest second-moment
    eigenvalue of the centered points), oriented so the mean dot is >= 0.
    """
    pts = _unit_rows(points, "points")
    if pts.shape[0] < 3:
        raise ValueError("need at least three points")
    centered = pts - pts.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    if evals[1] <= 1e-12 * max(float(evals[2]), 1e-30):
        raise DegenerateConfigurationError("points span fewer than two dimensions")
    axis = evecs[:, 0]
    cos_radius = float(np.mean(pts @ axis))
    if cos_radius < 0.0:
        axis, cos_radius = -axis, -cos_radius
    return axis, cos_radius


def project_to_circle(points, axis, cos_radius: float) -> SphericalPolygon:
    """Slide each point along its geodesic through the axis onto the circle.

    Azimuths about the axis are preserved; a point sitting at the axis has
    no azimuth and is rejected.
    """
    axis = _unit_rows([axis], "axis")[0]
    if not -1.0 < cos_radius < 1.0:
        raise ValueError("cos_radius must lie strictly inside (-1, 1)")
    pts = _unit_rows(points, "points")
    tangential = pts - np.outer(pts @ axis, axis)
    norms = _row_norms(tangential)
    if not np.all(norms > 1e-12):
        raise DegenerateConfigurationError("point at the axis has no azimuth")
    sin_radius = math.sqrt(1.0 - cos_radius * cos_radius)
    return SphericalPolygon(cos_radius * axis + sin_radius * tangential / norms[:, None])


def napoleon_sphere(z0, z1, z2) -> SphericalPolygon:
    """Chordal three-centers construction, renormalized to the sphere.

    Erects outward equilateral triangles over each side of the chordal
    triangle inside its own plane, takes their centers, and pushes the
    centers back to unit length.  The centers triangle is exactly
    equilateral in the chordal plane, but it is concentric with the
    chordal centroid rather than with the circumcircle axis, so for
    non-equilateral input the renormalized output is generally *not*
    regular about the original axis (nor about its own); the regression
    tests record this behaviour.
    """
    z0, z1, z2 = rows = _unit_rows([z0, z1, z2], "points")
    axis = _candidate_axis(rows)
    cos_radius = float(axis @ z0)
    if cos_radius <= 0.0:
        raise ValueError(
            "triangle must fit in an open hemisphere about its circumcenter"
        )
    e1, e2 = _complete_frame(axis)
    foot = cos_radius * axis
    plane = [complex(float((z - foot) @ e1), float((z - foot) @ e2)) for z in (z0, z1, z2)]
    _, centers = euclid.napoleon(euclid.PlaneTriangle(tuple(plane)))
    out = [
        unit_vector(foot + c.real * e1 + c.imag * e2) for c in centers.vertices
    ]
    return SphericalPolygon(np.array(out))


def is_regular(p: SphericalPolygon, tol: float) -> bool:
    """Does rotating by 2*pi/n about the polygon's own axis map each
    vertex onto the next, with max componentwise residual below tol?"""
    rot = rotation_about_axis(p.frame.axis, _TWO_PI / p.n)
    shifted = p.vertices @ rot.T
    residual = float(np.max(np.abs(shifted - np.roll(p.vertices, -1, axis=0))))
    return residual < tol
