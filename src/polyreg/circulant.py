"""Closed-form spectral machinery for circulant matrices.

A circulant matrix is determined by its first row ``c``; row ``i`` is the
cyclic right-shift of ``c`` by ``i`` positions, so applying the matrix is

    (A v)[i] = sum_m c[m] * v[(i + m) % n].

All circulants of one size share the discrete Fourier vectors as
eigenvectors, which makes eigenvalues, iteration limits and contraction
rates available in closed form: the spectrum is the discrete Fourier
transform of the first row, computed by FFT in O(n log n).  Every polygon
transform here is a row-stochastic circulant on a gap vector, except the
plane three-centers construction: a complex circulant on the vertex vector.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

# |lambda - 1| below this counts as a unit eigenvalue; keeps specs with
# several fixed Fourier directions (even-offset averaging) on one code path.
UNIT_EIGENVALUE_TOL = 1e-12


class NonContractingError(ValueError):
    """The spec has a non-unit eigenvalue of modulus >= 1."""


@dataclass(frozen=True)
class CirculantSpec:
    """First row of an n-by-n circulant matrix: all complex if any given one is, else all float."""

    coeffs: tuple[float, ...] | tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if len(coeffs) < 1:
            raise ValueError("a circulant needs at least one coefficient")
        complex_row = any(map(isinstance, coeffs, repeat((complex, np.complexfloating))))
        coeffs = tuple(map(complex if complex_row else float, coeffs))
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def is_row_stochastic(self, tol: float = 1e-9) -> bool:
        return (
            isinstance(self.coeffs[0], float)
            and all(c >= -tol for c in self.coeffs)
            and abs(math.fsum(self.coeffs) - 1.0) <= tol
        )

    def as_matrix(self) -> np.ndarray:
        """Dense matrix with entry (i, j) equal to coeffs[(j - i) % n]."""
        n = self.n
        c = np.asarray(self.coeffs)
        return c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def _unit_split(lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Mask of the unit eigenvalues and the largest modulus off it (0.0 if none)."""
    unit = np.abs(lam - 1.0) <= UNIT_EIGENVALUE_TOL
    return unit, float(np.max(np.abs(lam[~unit]), initial=0.0))


def eigenvalues(spec: CirculantSpec) -> np.ndarray:
    """All eigenvalues as a complex array: lambda_j = sum_m c[m] w^(j*m)
    with w = exp(2*pi*i/n).

    That sum is n * ifft(c)[j], so one FFT gives the whole spectrum in
    O(n log n), never a dense eigensolver; entry 0 is the coefficient sum.
    Adding 0.0 turns -0.0 imaginary parts into +0.0 (angle pi, not -pi).
    """
    return spec.n * np.fft.ifft(spec.coeffs) + 0.0


def _vector(spec: CirculantSpec, v) -> np.ndarray:
    v = np.array(v, dtype=complex if np.asarray(v).dtype.kind == "c" else type(spec.coeffs[0]))
    if v.shape != (spec.n,):
        raise ValueError(f"vector length {v.shape} does not match size {spec.n}")
    return v


def _gather(spec: CirculantSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero coefficients c[m_t] and the (nnz, n) index (i + m_t) % n.

    One application is then coeffs @ v[index]; zero coefficients cost
    nothing, so the two-term specs of the geometries step in O(n).
    """
    shifts = np.flatnonzero(spec.coeffs)
    index = (shifts[:, None] + np.arange(spec.n)[None, :]) % spec.n
    return np.asarray(spec.coeffs)[shifts], index


def apply(spec: CirculantSpec, v) -> np.ndarray:
    """One application of the matrix: out[i] = sum_m c[m] * v[(i + m) % n]."""
    coeffs, index = _gather(spec)
    return coeffs @ _vector(spec, v)[index]


def fixed_space_limit(spec: CirculantSpec, v) -> np.ndarray:
    """Projection of v onto the eigenvalue-1 eigenspace; equals lim A^m v.

    ifft(mask * fft(v)), the mask keeping the unit-eigenvalue indices; complex
    when the row or v is.  Requires every other eigenvalue modulus to be
    strictly below 1, otherwise the power iteration has no limit there.
    """
    v = _vector(spec, v)
    unit, worst = _unit_split(eigenvalues(spec))
    if worst >= 1.0:
        raise NonContractingError(f"non-contracting: eigenvalue modulus {worst} off the fixed space")
    limit = np.fft.ifft(np.where(unit, np.fft.fft(v), 0.0))
    return limit if np.iscomplexobj(v) else limit.real


def contraction_factor(spec: CirculantSpec) -> float:
    """Largest eigenvalue modulus outside the unit-eigenvalue index set.

    Governs the geometric decay rate of deviations from the fixed space;
    0.0 when every eigenvalue equals 1 (nothing left to contract).
    """
    return _unit_split(eigenvalues(spec))[1]


def _raw(gaps: np.ndarray, m: int) -> np.ndarray:
    return gaps


@dataclass(frozen=True)
class Run:
    """Outcome of iterate(): the start and last vectors, the step count and
    the geometry's decoder; decode(gaps, m) is the polygon after m steps.

    Nothing per step is stored, so a run holds O(n) state however long it
    was, in any geometry.  gap_steps() replays the orbit with the same
    arithmetic, which makes every replayed vector bit-identical to the one
    the run stepped through; final and steps() decode on demand.
    """

    spec: CirculantSpec
    start: np.ndarray
    target: np.ndarray
    last: np.ndarray
    iterations: int
    converged: bool
    decode: Callable[[np.ndarray, int], object] = _raw

    @property
    def final(self):
        return self.decode(self.last, self.iterations)

    def gap_steps(self) -> Iterator[np.ndarray]:
        """start, A start, ..., last: the iterations + 1 vectors, lazily."""
        return islice(_orbit(self.spec, self.start), self.iterations + 1)

    def steps(self) -> Iterator:
        """decode of each of gap_steps(), input to final, lazily."""
        return (self.decode(gaps, m) for m, gaps in enumerate(self.gap_steps()))


def _orbit(spec: CirculantSpec, v: np.ndarray) -> Iterator[np.ndarray]:
    """v, A v, A^2 v, ... without end; the one stepping loop of the package."""
    coeffs, index = _gather(spec)
    while True:
        yield v
        v = coeffs @ v[index]


def iterate(spec: CirculantSpec, v0, target, tol: float, max_iter: int, decode=_raw) -> Run:
    """Apply the circulant until within max-norm `tol` of `target`.

    This is the one iteration behind every regularization; the returned run
    decodes through `decode` (by default the gap vector itself).
    Convergence is checked before each application, so a vector already at
    the target, or a run with max_iter=0, reports zero iterations.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not max_iter >= 0:
        raise ValueError("max_iter must be non-negative")
    start = _vector(spec, v0)
    start.setflags(write=False)
    target = _vector(spec, target)
    for m, v in enumerate(_orbit(spec, start)):
        converged = bool(np.max(np.abs(v - target)) < tol)
        if converged or m >= max_iter:
            return Run(spec, start, target, v, m, converged, decode)


def predict_iterations(spec: CirculantSpec, initial_deviation_norm: float, tol: float) -> int:
    """Steps needed for factor**m * initial_deviation to fall below tol.

    ceil(log(tol / initial) / log(factor)), clamped at zero; requires a
    genuinely contracting spec (0 < factor < 1).  A 1e-12 slack inside the
    ceil absorbs roundoff when the ratio lands exactly on an integer
    (tolerances that are exact powers of the factor).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    factor = contraction_factor(spec)
    if not 0.0 < factor < 1.0:
        raise NonContractingError(f"contraction factor {factor} is not in (0, 1)")
    if initial_deviation_norm <= tol:
        return 0
    ratio = math.log(tol / initial_deviation_norm) / math.log(factor)
    return max(0, math.ceil(ratio - 1e-12))
