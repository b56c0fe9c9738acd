"""Input generators and reference results computed with plain numpy.

Nothing here imports polyreg: every expected output is derived from the
generated inputs by direct stepping of the gap recursions

    sphere / plane   g <- (k-1)/k * g + roll(g, -1) / k
    hyperbolic       b <- (b + roll(b, -2)) / 2

or from closed-form geometry, so a wrong answer from the package cannot
also be the reference.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Gap vectors rebuilt from vertices differ from the exact recursion in the
# last bits, so a run may legitimately stop one step earlier or later when a
# deviation lands within this distance of the tolerance.
COUNT_SLACK = 1e-12


# ---------------------------------------------------------------- inputs


def random_gaps(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    """n positive gaps summing to `total`, none below total / (3n)."""
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum() * total


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed (e1, e2) with e1 x e2 = axis."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = unit(np.cross(axis, helper))
    return e1, np.cross(axis, e1)


def ring(axis, cos_radius: float, azimuths) -> np.ndarray:
    """Unit vectors at the given azimuths on the circle of axis-dot cos_radius."""
    e1, e2 = basis(axis)
    sin_radius = math.sqrt(1.0 - cos_radius * cos_radius)
    az = np.asarray(azimuths, dtype=float)
    pts = cos_radius * axis + sin_radius * (np.outer(np.cos(az), e1) + np.outer(np.sin(az), e2))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def sphere_polygon(rng: np.random.Generator, n: int, cos_lo: float = 0.1, cos_hi: float = 0.9,
                   signed: bool = True) -> tuple[np.ndarray, float, np.ndarray]:
    """(axis, cos_radius, vertices) of a random cyclic polygon, ccw about axis."""
    axis = unit(rng.standard_normal(3))
    cos_radius = rng.uniform(cos_lo, cos_hi)
    if signed and rng.random() < 0.5:
        cos_radius = -cos_radius
    gaps = random_gaps(rng, n, TWO_PI)
    az = rng.uniform(0.0, TWO_PI) + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    return axis, float(cos_radius), ring(axis, cos_radius, az)


def boundary_points(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """2n cyclically increasing parameters in [0, 1) for an n-gon in the disk."""
    gaps = random_gaps(rng, 2 * n, 1.0)
    pts = (rng.random() + np.concatenate(([0.0], np.cumsum(gaps[:-1])))) % 1.0
    return tuple(float(p) for p in pts)


def plane_triangle(rng: np.random.Generator) -> tuple[complex, float, list[complex]]:
    """(center, radius, vertices) of a random ccw triangle."""
    center = complex(*rng.uniform(-5.0, 5.0, 2))
    radius = float(rng.uniform(0.5, 3.0))
    gaps = random_gaps(rng, 3, TWO_PI)
    az = rng.uniform(0.0, TWO_PI) + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    return center, radius, [center + radius * complex(math.cos(a), math.sin(a)) for a in az]


def stochastic_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive first row of a circulant summing to 1."""
    c = rng.uniform(0.1, 1.0, n)
    return c / c.sum()


def circulant_matrix(row) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    n = row.shape[0]
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


# ---------------------------------------------------------------- gap recursions


def sphere_step(k: int):
    return lambda g: (k - 1) / k * g + np.roll(g, -1) / k


def hyperbolic_step(b: np.ndarray) -> np.ndarray:
    return (b + np.roll(b, -2)) / 2


def hyperbolic_limit(b: np.ndarray) -> np.ndarray:
    out = np.empty_like(b)
    out[0::2] = b[0::2].mean()
    out[1::2] = b[1::2].mean()
    return out


class Run:
    """Direct stepping until max-norm deviation < tol - COUNT_SLACK or the cap.

    Keeps every deviation (one float per step) and the final vector, so
    the accepted stopping steps for `tol` are known without re-running.
    """

    def __init__(self, v0, step, target, tol: float, max_iter: int, slack: float = COUNT_SLACK):
        self.v0, self.step, self.max_iter = np.array(v0, dtype=float), step, max_iter
        self.target, self.tol, self.slack = np.asarray(target, dtype=float), tol, slack
        v = self.v0
        self.devs = [float(np.max(np.abs(v - self.target)))]
        self.lead = [0.0]  # running sum of v[0], the sphere vertex-0 advance
        while self.devs[-1] >= tol - slack and len(self.devs) <= max_iter:
            self.lead.append(self.lead[-1] + float(v[0]))
            v = step(v)
            self.devs.append(float(np.max(np.abs(v - self.target))))
        self.v = v

    def _first_below(self, threshold: float):
        return next((t for t, d in enumerate(self.devs) if d < threshold), None)

    def accepts(self, converged: bool, iterations: int) -> bool:
        """Is (converged, iterations) what a correct run at `tol` may report?"""
        early = self._first_below(self.tol + self.slack)
        late = self._first_below(self.tol - self.slack)
        if converged:
            return early is not None and early <= iterations <= (
                late if late is not None else self.max_iter)
        return iterations == self.max_iter and late is None

    def at(self, iterations: int) -> np.ndarray:
        """Vector after `iterations` steps."""
        if iterations == len(self.devs) - 1:
            return self.v
        v = self.v0
        for _ in range(iterations):
            v = self.step(v)
        return v


# ---------------------------------------------------------------- geometry


def azimuths(axis, points) -> np.ndarray:
    e1, e2 = basis(np.asarray(axis, dtype=float))
    pts = np.asarray(points, dtype=float)
    return np.arctan2(pts @ e2, pts @ e1)


def sphere_gaps(axis, points) -> np.ndarray:
    az = azimuths(axis, points)
    return np.mod(np.diff(np.append(az, az[0])), TWO_PI)


def circle_gaps(center: complex, points) -> np.ndarray:
    z = np.asarray(points, dtype=complex) - center
    return np.mod(np.angle(np.roll(z, -1) / z), TWO_PI)


def boundary_gaps(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    return np.mod(np.roll(p, -1) - p, 1.0)


def eigenvalues(row) -> np.ndarray:
    """lambda_j = sum_m c_m exp(2 pi i j m / n)."""
    row = np.asarray(row, dtype=float)
    return np.fft.ifft(row) * row.shape[0]


def napoleon_plane(z) -> tuple[list[complex], list[complex]]:
    s3 = math.sqrt(3.0)
    pairs = [(z[j], z[(j + 1) % 3]) for j in range(3)]
    apices = [(a + b) / 2 + 1j * s3 * (a - b) / 2 for a, b in pairs]
    centers = [(a + b) / 2 + 1j / s3 * (a - b) / 2 for a, b in pairs]
    return apices, centers


def napoleon_sphere(z) -> np.ndarray:
    """Chordal three-centers in the triangle's plane, pushed back to the sphere."""
    z = [np.asarray(p, dtype=float) for p in z]
    axis = unit(np.cross(z[1] - z[0], z[2] - z[0]))
    foot = float(axis @ z[0]) * axis
    d = [p - foot for p in z]
    out = []
    for j in range(3):
        a, b = d[j], d[(j + 1) % 3]
        out.append(unit(foot + (a + b) / 2 + np.cross(axis, a - b) / (2 * math.sqrt(3.0))))
    return np.array(out)


def fit_circle(points) -> tuple[np.ndarray, float]:
    """Least-squares plane normal (smallest right singular vector), mean dot >= 0."""
    pts = np.asarray(points, dtype=float)
    axis = np.linalg.svd(pts - pts.mean(axis=0))[2][-1]
    cos_radius = float(np.mean(pts @ axis))
    if cos_radius < 0.0:
        axis, cos_radius = -axis, -cos_radius
    return axis, cos_radius


# ---------------------------------------------------------------- table1


def table1_rows(seed: int, k_values, trials: int, tol: float, cap: int) -> list[tuple]:
    """(k, trials, mean_iterations, capped_fraction) by direct stepping.

    Draws each trial's triangle from the same per-trial stream the
    experiment documents: SeedSequence(seed, spawn_key=(k, trial)),
    normalized standard normals, degenerate draws redrawn.  The trials of
    one k are then stepped together, one row of a (trials, 3) array each.
    """
    rows = []
    for k in sorted(set(k_values)):
        triangles = [_triangle(np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(k, trial)))) for trial in range(trials)]
        axes = np.array([axis for axis, _ in triangles])
        pts = np.array([p for _, p in triangles])
        e1 = np.cross(axes, np.where(np.abs(axes[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]))
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(axes, e1)
        az = np.arctan2(np.einsum("tij,tj->ti", pts, e2), np.einsum("tij,tj->ti", pts, e1))
        gaps = np.mod(np.roll(az, -1, axis=1) - az, TWO_PI)
        first = np.full(trials, -1)  # first step within tol, -1 while not yet
        for step in range(cap + 1):
            first[(first < 0) & (np.max(np.abs(gaps - TWO_PI / 3), axis=1) < tol)] = step
            gaps = (k - 1) / k * gaps + np.roll(gaps, -1, axis=1) / k
        counts = np.where(first >= 0, first, cap)
        capped = int(np.sum(first < 0))
        rows.append((k, trials, math.fsum(counts.tolist()) / trials, capped / trials))
    return rows


def _triangle(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    while True:
        pts = rng.standard_normal((3, 3))
        norms = np.linalg.norm(pts, axis=1)
        if float(np.min(norms)) < 1e-12:
            continue
        pts = pts / norms[:, None]
        nxt = np.roll(pts, -1, axis=0)
        if min(np.min(np.linalg.norm(nxt - pts, axis=1)),
               np.min(np.linalg.norm(nxt + pts, axis=1))) <= 1e-9:
            continue
        cross = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        if float(np.linalg.norm(cross)) <= 1e-12 * float(np.max(np.linalg.norm(nxt - pts, axis=1))) ** 2:
            continue
        axis = unit(cross)
        if abs(float(np.mean(pts @ axis))) >= 1.0 - 1e-12:
            continue
        return axis, pts


def table1_csv(rows) -> bytes:
    """The experiment CSV as emit documents it: header, then repr floats."""
    lines = ["k,trials,mean_iterations,capped_fraction"]
    lines += [f"{k},{t},{m!r},{c!r}" for k, t, m, c in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")
