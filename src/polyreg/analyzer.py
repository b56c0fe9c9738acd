"""Classification of linear angle transforms.

An angle transform fixes the regular vector (1/n, ..., 1/n) and, in the
well-posed case, maps the sum-zero subspace to itself.  Restricted to
that subspace its real Jordan structure decides the dynamics near the
fixed point: a contracting rotation, a contracting real-diagonal part, a
defective Jordan block, or no contraction at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPECTRAL_RADIUS_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-12
_DEFECTIVE_COND = 1e8


@dataclass(frozen=True)
class LinearAngleTransform:
    """Real n-by-n matrix acting on angle (gap) vectors."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise ValueError("expected a square matrix of size >= 2")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classify(); rotation_params is set exactly for the
    complex-rotation class."""

    preserves_sum: bool
    fixes_regular: bool
    attracting: bool
    jordan_class: str
    rotation_params: tuple[float, float] | None
    structure: tuple[str, ...]


def _sum_zero_basis(n: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)]))
    return q[:, 1:n]


def _eig2(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigenvalues of a real 2x2 matrix via the discriminant, plus a
    defectiveness flag.

    A numeric eigensolver splits a defective double eigenvalue into a
    spurious conjugate pair with imaginary parts of order sqrt(machine
    epsilon); the discriminant route keeps the three cases separated.
    """
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    scale_sq = max(tr * tr, 4.0 * abs(det), 1e-300)
    if disc < -1e-12 * scale_sq:
        root = math.sqrt(-disc) / 2.0
        return np.array([tr / 2.0 + 1j * root, tr / 2.0 - 1j * root]), False
    if disc > 1e-12 * scale_sq:
        root = math.sqrt(disc) / 2.0
        return np.array([tr / 2.0 + root, tr / 2.0 - root], dtype=complex), False
    lam = tr / 2.0
    off = float(np.max(np.abs(m - lam * np.eye(2))))
    return np.array([lam, lam], dtype=complex), off > 1e-9 * max(1.0, abs(lam))


def _describe(mu: np.ndarray) -> tuple[str, ...]:
    """One block per real eigenvalue or conjugate pair, largest modulus
    first.  A real matrix's eigenvalues come in exact conjugate pairs (from
    LAPACK and from _eig2 alike), so each pair is named by its member with
    positive imaginary part and the other member is skipped."""
    parts: list[str] = []
    for m in sorted(mu, key=lambda m: (-abs(m), -m.imag)):
        if abs(m.imag) <= 1e-12 * max(1.0, abs(m)):
            parts.append(f"real({m.real:.12g})")
        elif m.imag > 0.0:
            parts.append(f"rotation(a={abs(m):.12g}, phi={abs(math.atan2(m.imag, m.real)):.12g})")
    return tuple(parts)


def classify(transform: LinearAngleTransform) -> ClassificationReport:
    """Classify the transform on the complement of the all-ones direction.

    The spectrum is taken from the compression onto the orthogonal
    complement of (1, ..., 1); that equals the true restriction whenever
    the transform preserves vector sums (column sums 1), which covers all
    the circulant gap transforms.  Any modulus at or above 1, or a
    vanishing eigenvalue, puts the transform in the non-contracting class;
    otherwise size 3 distinguishes a conjugate pair (complex-rotation,
    with modulus and rotation angle reported) from distinct or defective
    real structure, and larger sizes report the block list.
    """
    a = transform.entries
    n = transform.n
    ones = np.ones(n)
    preserves_sum = bool(np.max(np.abs(ones @ a - ones)) <= 1e-10)  # column sums 1
    regular = ones / n
    fixes_regular = bool(np.max(np.abs(a @ regular - regular)) <= 1e-10)

    q = _sum_zero_basis(n)
    compressed = q.T @ a @ q
    if n == 3:
        mu, defective = _eig2(compressed)
    else:
        mu, vecs = np.linalg.eig(compressed)
        defective = bool(np.linalg.cond(vecs) > _DEFECTIVE_COND)
    radius = float(np.max(np.abs(mu)))
    attracting = bool(radius < 1.0 - SPECTRAL_RADIUS_TOL)
    structure = _describe(mu)

    rotation_params: tuple[float, float] | None = None
    if not attracting or float(np.min(np.abs(mu))) <= ZERO_EIGENVALUE_TOL:
        jordan_class = "non-contracting"
    elif defective:
        jordan_class = "jordan-block"
    elif n == 3:
        lam = mu[int(np.argmax(mu.imag))]
        if abs(lam.imag) > 0.0:
            jordan_class = "complex-rotation"
            rotation_params = (float(abs(lam)), float(abs(np.angle(lam))))
        else:
            jordan_class = "real-diagonal"
    elif np.max(np.abs(mu.imag)) > 1e-12:
        jordan_class = "mixed"
    else:
        jordan_class = "real-diagonal"

    return ClassificationReport(
        preserves_sum=preserves_sum,
        fixes_regular=fixes_regular,
        attracting=attracting,
        jordan_class=jordan_class,
        rotation_params=rotation_params,
        structure=structure,
    )
