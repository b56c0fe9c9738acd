"""Seeded convergence experiment over random spherical triangles.

For each rotation share k, random triangles are regularized until the
maximal gap deviation falls below the threshold or an iteration cap is
hit; capped trials enter the average at the cap.  Every trial draws from
its own generator keyed by (seed, k, trial index), so results are
independent of execution order and reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spherical

SAMPLERS = ("sphere", "cube")


@dataclass(frozen=True)
class ExperimentConfig:
    k_values: tuple[int, ...]
    trials: int
    tol: float
    cap: int
    seed: int

    def __post_init__(self) -> None:
        if not self.k_values or any(int(k) != k or k < 2 for k in self.k_values):
            raise ValueError("k values must be integers >= 2")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.cap < 1:
            raise ValueError("cap must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class ExperimentRow:
    k: int
    trials: int
    mean_iterations: float
    capped_fraction: float


def trial_generator(seed: int, k: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, derived from (seed, k, trial)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k, trial)))


def random_spherical_triangle(rng: np.random.Generator, sampler: str = "sphere") -> spherical.SphericalPolygon:
    """Three random sphere points; degenerate draws are redrawn.

    The default sampler normalizes standard normal vectors (uniform on the
    sphere).  The "cube" sampler normalizes uniform draws from [0, 1]^3
    instead, confining points to one octant; it exists for comparison with
    that simpler, biased scheme.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    while True:
        pts = rng.standard_normal((3, 3)) if sampler == "sphere" else rng.random((3, 3))
        norms = np.linalg.norm(pts, axis=1)
        if float(np.min(norms)) < 1e-12:
            continue
        pts = pts / norms[:, None]
        try:
            poly = spherical.SphericalPolygon(pts)
            spherical.to_cyclic_frame(poly)
        except ValueError:
            continue
        return poly


def run_table1(config: ExperimentConfig, sampler: str = "sphere") -> list[ExperimentRow]:
    """Mean iteration counts and capped fractions per k, rows sorted by k."""
    rows = []
    for k in sorted(set(config.k_values)):
        counts: list[int] = []
        capped = 0
        for trial in range(config.trials):
            rng = trial_generator(config.seed, k, trial)
            triangle = random_spherical_triangle(rng, sampler)
            result = spherical.regularize(triangle, k=k, tol=config.tol, max_iter=config.cap)
            if result.converged:
                counts.append(result.iterations)
            else:
                counts.append(config.cap)
                capped += 1
        rows.append(
            ExperimentRow(
                k=k,
                trials=config.trials,
                mean_iterations=math.fsum(counts) / config.trials,
                capped_fraction=capped / config.trials,
            )
        )
    return rows
