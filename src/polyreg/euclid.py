"""Euclidean baseline: the equilateral identity, the classical
three-centers construction, circumcircles, the positions<->gaps codec that
the plane, sphere and disk share, and the gap/k rotation run on a circle
that the plane and sphere share.

Points live in the complex plane; a triangle is an ordered triple.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import circulant

_SQRT3 = math.sqrt(3.0)
_TWO_PI = 2.0 * math.pi


class DegenerateTriangleError(ValueError):
    """Vertices too close to coincident or collinear for the operation."""


@dataclass(frozen=True)
class PlaneTriangle:
    vertices: tuple[complex, complex, complex]

    def __post_init__(self) -> None:
        vs = tuple(complex(z) for z in self.vertices)
        if len(vs) != 3:
            raise ValueError("a triangle has exactly three vertices")
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in vs):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", vs)


def _require_distinct(t: PlaneTriangle) -> None:
    z0, z1, z2 = t.vertices
    dists = (abs(z0 - z1), abs(z1 - z2), abs(z2 - z0))
    if min(dists) <= 1e-12 * max(max(dists), 1e-30):
        raise DegenerateTriangleError("triangle has (nearly) coincident vertices")


def equilateral_defect(t: PlaneTriangle) -> complex:
    """z0*z1 + z0*z2 + z1*z2 - (z0 + z1 + z2)**2 / 3.

    Vanishes exactly when the triangle is equilateral; translation
    invariant, scales with the squared diameter.
    """
    z0, z1, z2 = t.vertices
    return z0 * z1 + z0 * z2 + z1 * z2 - (z0 + z1 + z2) ** 2 / 3


_APEX_ROW = circulant.CirculantSpec(((1 + 1j * _SQRT3) / 2, (1 - 1j * _SQRT3) / 2, 0j))
_CENTER_ROW = circulant.CirculantSpec((0.5 + 0.5j / _SQRT3, 0.5 - 0.5j / _SQRT3, 0j))


def napoleon(t: PlaneTriangle) -> tuple[tuple[complex, complex, complex], PlaneTriangle]:
    """Erect an equilateral triangle over each side; return (apices, centers).

    Each is one complex circulant step z_j -> z_j + b*(z_{j+1} - z_j), with
    b = (1 - i*sqrt(3))/2 for the apex over side j and b = 1/(1 - w^2) =
    1/2 - i/(2*sqrt(3)), w = exp(2*pi*i/3), for its center.  Counter-clockwise
    input erects outward; the centers are exactly equilateral either way.
    """
    _require_distinct(t)
    apices = tuple(circulant.apply(_APEX_ROW, t.vertices).tolist())
    return apices, PlaneTriangle(tuple(circulant.apply(_CENTER_ROW, t.vertices).tolist()))


def circumcenter(t: PlaneTriangle) -> tuple[complex, float]:
    """Center and radius of the circle through the three vertices."""
    z0, z1, z2 = t.vertices
    num = (
        abs(z0) ** 2 * (z1 - z2)
        + abs(z1) ** 2 * (z2 - z0)
        + abs(z2) ** 2 * (z0 - z1)
    )
    den = (
        z0.conjugate() * (z1 - z2)
        + z1.conjugate() * (z2 - z0)
        + z2.conjugate() * (z0 - z1)
    )
    scale_sq = max(abs(z0 - z1), abs(z1 - z2), abs(z2 - z0)) ** 2
    if abs(den) <= 1e-12 * max(scale_sq, 1e-30):
        raise DegenerateTriangleError("collinear vertices have no circumcircle")
    center = num / den
    radius = (abs(center - z0) + abs(center - z1) + abs(center - z2)) / 3
    return center, radius


def cyclic_gaps(positions, period: float = _TWO_PI) -> np.ndarray:
    """Gaps from each position to the next, the last back to the first,
    each taken modulo period; positions that wind once forward give gaps
    summing to period."""
    p = np.asarray(positions, dtype=float)
    return np.mod(np.concatenate((p[1:], p[:1])) - p, period)


def positions_from_gaps(start: float, gaps) -> np.ndarray:
    """Inverse of cyclic_gaps: start, then start plus each running gap sum.

    The last gap closes the cycle and is implied by the others.
    """
    return start + np.concatenate(([0.0], np.cumsum(gaps[:-1])))


def angle_gaps(t: PlaneTriangle) -> tuple[complex, float, np.ndarray]:
    """Circumcenter, radius, and ccw gaps from z_j to z_{j+1} about the center.

    Each gap is normalized into (0, 2*pi); for a ccw-ordered triangle the
    gaps sum to 2*pi.
    """
    center, radius = circumcenter(t)
    return center, radius, cyclic_gaps([cmath.phase(z - center) for z in t.vertices])


def circle_frame(t: PlaneTriangle) -> tuple[complex, float, int, np.ndarray]:
    """angle_gaps oriented like the sphere's frame: turn = +1 (ccw) or -1 (cw)
    is the triangle's winding, and the gaps, measured that way, sum to 2*pi."""
    center, radius, gaps = angle_gaps(t)
    turn = 1 if math.fsum(gaps) < 3.0 * math.pi else -1  # clockwise: ccw gaps sum to 4*pi
    return center, radius, turn, gaps if turn == 1 else _TWO_PI - gaps


def vertex0_azimuth(start: float, gaps0: np.ndarray, gaps: np.ndarray, steps: int, k: int) -> float:
    """Azimuth of vertex 0 after `steps` rotation steps, in closed form.

    Each step turns every vertex about the fixed center by its own gap over
    k, so the azimuth sum n*a_0 + sum_i (n-1-i)*g_i grows by sum(g)/k per
    step.  Reading a_0 back off that sum needs only the first and last gap
    vectors; the mean of their two sums stands in for the invariant sum(g)
    and absorbs its rounding drift.  Its one caller is rotate_on_circle's
    decoder.
    """
    n = len(gaps)
    turned = steps * (math.fsum(gaps0) + math.fsum(gaps)) / (2 * k)
    return start + (turned - float(np.arange(n - 1, -1, -1) @ (gaps - gaps0))) / n


def step_spec(n: int, k: int) -> circulant.CirculantSpec:
    """Circulant first row ((k-1)/k, 1/k, 0, ..., 0) of the rotation step.

    Rotating every vertex about the circle's center by its own gap over k
    leaves the circle untouched and maps gap_j to
    ((k-1)*gap_j + gap_{j+1}) / k.  Only integer k >= 2 contracts the gap
    vector toward the regular one, smaller k is rejected.
    """
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    coeffs = [0.0] * n
    coeffs[0] = (k - 1) / k
    coeffs[1] = 1 / k
    return circulant.CirculantSpec(tuple(coeffs))


def rotate_on_circle(start: float, gaps: np.ndarray, k: int, tol: float, max_iter: int,
                     place: Callable[[np.ndarray], object]) -> circulant.Regularization:
    """Turn every vertex about the circle's center by its own gap over k
    until every gap is within tol of 2*pi/n.

    start is vertex 0's azimuth and gaps the ccw gaps, summing to 2*pi;
    place maps the n vertex azimuths to the geometry's polygon.  The run
    decodes vertex 0 in closed form and the rest by the gaps.
    """
    n = len(gaps)
    run = circulant.iterate(step_spec(n, k), gaps, np.full(n, _TWO_PI / n), tol, max_iter)

    def decode(gaps: np.ndarray, m: int):
        return place(positions_from_gaps(vertex0_azimuth(start, run.start, gaps, m, k), gaps))

    return circulant.Regularization(run, decode)


def regularize(t: PlaneTriangle, k: int, tol: float, max_iter: int) -> circulant.Regularization:
    """Rotate every vertex about the circumcenter by its own gap over k until
    every gap is within tol of 2*pi/3; the run decodes to PlaneTriangles.

    The circumcircle never moves, so the triangle turns equilateral on its
    own circumcircle.  A clockwise triangle runs as its ccw mirror image
    and is mirrored back.
    """
    center, radius, turn, gaps = circle_frame(t)

    def place(azimuths: np.ndarray) -> PlaneTriangle:
        return PlaneTriangle(tuple(center + radius * cmath.exp(1j * a) for a in turn * azimuths))

    return rotate_on_circle(turn * cmath.phase(t.vertices[0] - center), gaps, k, tol, max_iter, place)
