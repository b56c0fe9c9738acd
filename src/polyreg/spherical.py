"""Geometry on the unit sphere: circumcircles, axis rotations, cyclic
frames, the vertex-rotation regularization family, least-squares
small-circle fitting with geodesic projection, and the chordal
three-centers construction.

Points are unit 3-vectors.  A cyclic polygon is reduced to a frame
(axis, common axis-dot, ccw angle gaps); the regularizing step acts on
the gaps through a row-stochastic circulant while the frame stays fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circulant, euclid

UNIT_TOL = 1e-12
ADJACENT_TOL = 1e-9
CYCLIC_TOL = 1e-8
_TWO_PI = 2.0 * math.pi


class NotCyclicError(ValueError):
    """Vertices do not share a circumscribed circle within tolerance."""


class DegenerateConfigurationError(ValueError):
    """Point configuration too degenerate for the requested construction."""


def unit_vector(v) -> np.ndarray:
    """Normalize to a unit 3-vector; rejects near-zero input."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector")
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise DegenerateConfigurationError("cannot normalize a near-zero vector")
    return v / norm


def _check_unit(v, name: str = "point") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector")
    return v


@dataclass(frozen=True)
class SphericalPolygon:
    """Ordered unit vertices, counter-clockwise about the circumcircle axis."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n, 3) array with n >= 3")
        if np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) > UNIT_TOL:
            raise ValueError("vertices must be unit vectors")
        nxt = np.roll(v, -1, axis=0)
        if np.min(np.linalg.norm(nxt - v, axis=1)) <= ADJACENT_TOL:
            raise ValueError("adjacent vertices must be distinct")
        if np.min(np.linalg.norm(nxt + v, axis=1)) <= ADJACENT_TOL:
            raise ValueError("adjacent vertices must not be antipodal")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def n(self) -> int:
        return int(self.vertices.shape[0])


@dataclass(frozen=True)
class CyclicFrame:
    """Circumcircle axis, common axis-dot value, and ccw angle gaps.

    The gaps are the azimuthal angles between consecutive vertices about
    the axis, each in (0, 2*pi) and summing to 2*pi.
    """

    axis: np.ndarray
    cos_radius: float
    gaps: np.ndarray

    def __post_init__(self) -> None:
        axis = np.array(self.axis, dtype=float)
        if axis.shape != (3,) or abs(float(np.linalg.norm(axis)) - 1.0) > UNIT_TOL:
            raise ValueError("axis must be a unit 3-vector")
        if not -1.0 < self.cos_radius < 1.0:
            raise ValueError("cos_radius must lie strictly inside (-1, 1)")
        gaps = np.array(self.gaps, dtype=float)
        if gaps.ndim != 1 or gaps.shape[0] < 3:
            raise ValueError("need at least three gaps")
        if np.min(gaps) <= 0.0 or np.max(gaps) >= _TWO_PI:
            raise ValueError("each gap must lie in (0, 2*pi)")
        if abs(math.fsum(gaps) - _TWO_PI) > 1e-10:
            raise ValueError("gaps must sum to 2*pi")
        axis.setflags(write=False)
        gaps.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "cos_radius", float(self.cos_radius))

    @property
    def n(self) -> int:
        return int(self.gaps.shape[0])


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Proper rotation by `angle` about the unit axis.

    Counter-clockwise when viewed from the axis tip: for axis e3 the angle
    pi/2 maps e1 to e2.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or abs(float(np.linalg.norm(axis)) - 1.0) > UNIT_TOL:
        raise ValueError("axis must be a unit 3-vector")
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(axis, axis)


def circumcenter_triangle(z0, z1, z2) -> np.ndarray:
    """Unit axis with equal dot products against the three vertices.

    The sign follows the orientation of the triple, so the vertices wind
    counter-clockwise about the returned axis; the common dot product is
    negative when the triple is ordered clockwise around its near pole.
    """
    z0, z1, z2 = (_check_unit(z) for z in (z0, z1, z2))
    cross = np.cross(z1 - z0, z2 - z0)
    norm = float(np.linalg.norm(cross))
    span = max(
        float(np.linalg.norm(z1 - z0)),
        float(np.linalg.norm(z2 - z0)),
        float(np.linalg.norm(z2 - z1)),
    )
    if norm <= 1e-12 * max(span * span, 1e-30):
        raise DegenerateConfigurationError(
            "vertex differences do not span a plane; no circumcircle"
        )
    return cross / norm


def _complete_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed orthonormal completion (e1, e2) of the axis."""
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = seed - float(seed @ axis) * axis
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def _azimuths(axis: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    e1, e2 = _complete_frame(axis)
    return np.arctan2(vertices @ e2, vertices @ e1)


def _candidate_axis(vertices: np.ndarray) -> np.ndarray:
    n = vertices.shape[0]
    last_error: Exception | None = None
    for i in range(n):
        try:
            return circumcenter_triangle(
                vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
            )
        except DegenerateConfigurationError as exc:
            last_error = exc
    raise DegenerateConfigurationError(
        "no vertex triple determines an axis"
    ) from last_error


def to_cyclic_frame(p: SphericalPolygon) -> CyclicFrame:
    """Axis, common dot value and ccw gaps of a cyclic polygon.

    For triangles the axis is constructed outright; for larger polygons a
    shared axis must already exist: all vertex dots against the candidate
    axis have to agree within 1e-8, otherwise NotCyclicError.  The axis
    comes from circumcenter_triangle, so a polygon that winds once winds
    ccw about it; one that does not (a star) is NotCyclicError too.
    """
    v = p.vertices
    axis = _candidate_axis(v)
    dots = v @ axis
    if float(np.max(dots) - np.min(dots)) > CYCLIC_TOL:
        raise NotCyclicError("vertices are not equidistant from a common axis")
    cos_radius = float(np.mean(dots))
    if not -1.0 + 1e-12 < cos_radius < 1.0 - 1e-12:
        raise DegenerateConfigurationError("circumscribed circle degenerates to a point")
    gaps = euclid.cyclic_gaps(_azimuths(axis, v))
    if abs(math.fsum(gaps) - _TWO_PI) > 1e-6:
        raise NotCyclicError("vertices do not wind once counter-clockwise about the axis")
    return CyclicFrame(axis=axis, cos_radius=cos_radius, gaps=gaps)


def _ring(axis: np.ndarray, cos_radius: float, start: float, gaps: np.ndarray) -> SphericalPolygon:
    """Vertices on the circle of axis-dot cos_radius, vertex 0 at azimuth
    start, the rest ccw by gaps."""
    e1, e2 = _complete_frame(axis)
    sin_radius = math.sqrt(max(0.0, 1.0 - cos_radius * cos_radius))
    az = euclid.positions_from_gaps(start, gaps)
    ring = np.outer(np.cos(az), e1) + np.outer(np.sin(az), e2)
    return SphericalPolygon(cos_radius * axis + sin_radius * ring)


def from_cyclic_frame(f: CyclicFrame, start_azimuth: float = 0.0) -> SphericalPolygon:
    """Rebuild vertices on the frame's circle, vertex 0 at start_azimuth."""
    return _ring(f.axis, f.cos_radius, start_azimuth, f.gaps)


def step_spec(n: int, k: int) -> circulant.CirculantSpec:
    """Circulant first row ((k-1)/k, 1/k, 0, ..., 0) of the rotation step.

    Rotating every vertex about the axis by its own gap over k leaves the
    axis and circle untouched and maps gap_j to ((k-1)*gap_j + gap_{j+1}) / k.
    Only integer k >= 2 contracts the gap vector toward the regular one,
    smaller k is rejected.
    """
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    coeffs = [0.0] * n
    coeffs[0] = (k - 1) / k
    coeffs[1] = 1 / k
    return circulant.CirculantSpec(tuple(coeffs))


def regularize(p: SphericalPolygon, k: int, tol: float, max_iter: int) -> circulant.Regularization:
    """Rotate every vertex by its own gap over k until every gap is within
    tol of 2*pi/n; the run decodes to SphericalPolygons, vertex 0 in
    closed form.

    The axis and the vertex-to-axis dots stay fixed over the whole run;
    only the gaps are iterated, through step_spec.  Raises NotCyclicError
    for inputs without a shared axis (fit and project those first).
    """
    spec = step_spec(p.n, k)
    frame = to_cyclic_frame(p)
    axis, cos_radius = frame.axis, frame.cos_radius
    e1, e2 = _complete_frame(axis)
    start = math.atan2(float(p.vertices[0] @ e2), float(p.vertices[0] @ e1))
    run = circulant.iterate(spec, frame.gaps, np.full(p.n, _TWO_PI / p.n), tol, max_iter)

    # Closes over the axis and dot, not the frame: its gaps would duplicate run.start.
    def decode(gaps: np.ndarray, m: int) -> SphericalPolygon:
        return _ring(axis, cos_radius, euclid.vertex0_azimuth(start, run.start, gaps, m, k), gaps)

    return circulant.Regularization(run, decode)


def fit_small_circle(points) -> tuple[np.ndarray, float]:
    """Least-squares axis and common dot value for points near one circle.

    Minimizes the spread of axis-dots: the axis is the normal of the
    least-squares plane (eigenvector of the smallest second-moment
    eigenvalue of the centered points), oriented so the mean dot is >= 0.
    """
    pts = np.array([_check_unit(p) for p in points], dtype=float)
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
    axis = _check_unit(axis, "axis")
    if not -1.0 < cos_radius < 1.0:
        raise ValueError("cos_radius must lie strictly inside (-1, 1)")
    sin_radius = math.sqrt(1.0 - cos_radius * cos_radius)
    projected = []
    for p in points:
        p = _check_unit(p)
        tangential = p - float(p @ axis) * axis
        norm = float(np.linalg.norm(tangential))
        if norm <= 1e-12:
            raise DegenerateConfigurationError("point at the axis has no azimuth")
        projected.append(cos_radius * axis + sin_radius * tangential / norm)
    return SphericalPolygon(np.array(projected))


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
    z0, z1, z2 = (_check_unit(z) for z in (z0, z1, z2))
    axis = circumcenter_triangle(z0, z1, z2)
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
    frame = to_cyclic_frame(p)
    rot = rotation_about_axis(frame.axis, _TWO_PI / p.n)
    shifted = p.vertices @ rot.T
    residual = float(np.max(np.abs(shifted - np.roll(p.vertices, -1, axis=0))))
    return residual < tol
