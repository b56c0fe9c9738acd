"""Command-line front end.

Subcommands: regularize (plane / sphere / hyperbolic, with optional
iteration trace), eigen (circulant spectrum), napoleon (one-shot
constructions), fit (small-circle fit), analyze (angle-transform
classification) and experiment table1 (seeded convergence statistics).
Inputs are JSON files.  Subcommands return their payload; main writes it
to --out and to stdout as strict JSON, and any failure exits 2 with an
`error:` line; a float overflow or invalid operation inside a subcommand
raises, so it fails the same way.  A payload that is not strict JSON fails
before --out is opened.  regularize streams its --trace file itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analyzer, circulant, emit, euclid, experiment, hyperbolic, spherical


def _load_json(path):
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _float_array(data, shape: tuple, message: str) -> np.ndarray:
    """JSON value as a finite float array of `shape` (None: any length)."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if (
        arr.ndim != len(shape)
        or any(want not in (None, got) for want, got in zip(shape, arr.shape))
        or not np.all(np.isfinite(arr))
    ):
        raise ValueError(message)
    return arr


def _plane_triangle(data) -> euclid.PlaneTriangle:
    arr = _float_array(data, (3, 2), "plane input must be a JSON array of three [re, im] pairs")
    return euclid.PlaneTriangle(tuple(complex(x, y) for x, y in arr))


def _sphere_points(data) -> np.ndarray:
    return _float_array(data, (None, 3), "sphere input must be a JSON array of [x, y, z] triples")


def _complex_pairs(zs) -> list[list[float]]:
    return [[z.real, z.imag] for z in zs]


class _Trace:
    """A run's trace records, made as they are written; len() needs no pass,
    so the benchmark's emit counters can count rows after the write."""

    def __init__(self, run):
        self.run = run

    def __iter__(self):
        return emit.trace_records(self.run.steps(), self.run.target)

    def __len__(self) -> int:
        return self.run.iterations + 1


def _cmd_regularize(args) -> dict:
    data = _load_json(args.input)
    if args.geometry == "plane":
        result = euclid.regularize(_plane_triangle(data), k=args.k, tol=args.tol, max_iter=args.max_iter)
        outcome = {"final": _complex_pairs(result.final.vertices)}
    elif args.geometry == "sphere":
        polygon = spherical.SphericalPolygon(_sphere_points(data))
        result = spherical.regularize(polygon, k=args.k, tol=args.tol, max_iter=args.max_iter)
        outcome = {"final": [list(map(float, v)) for v in result.final.vertices]}
    else:
        points = _float_array(data, (None,), "hyperbolic input must be a JSON array of numbers")
        boundary = hyperbolic.BoundaryPoints(tuple(points))
        if args.k != 2:
            raise ValueError("hyperbolic regularization has no k parameter (pair averaging)")
        result = hyperbolic.regularize_hyperbolic(boundary, tol=args.tol, max_iter=args.max_iter)
        final = result.final
        outcome = {
            "final_boundary": list(final.points),
            "final_vertices": _complex_pairs(hyperbolic.polygon_from_boundary(final)),
        }
    run = result.run
    if args.trace:
        emit.write_records(args.trace, _Trace(run), emit.trace_columns(run.spec.n), args.format)
    return {"geometry": args.geometry, "converged": run.converged, "iterations": run.iterations, **outcome}


def _cmd_eigen(args) -> list[dict]:
    coeffs = _float_array(_load_json(args.spec), (None,), "spec must be a JSON array of numbers")
    spec = circulant.CirculantSpec(tuple(coeffs))
    return [
        {
            "index": e.index,
            "real": e.eigenvalue.real,
            "imag": e.eigenvalue.imag,
            "modulus": e.modulus,
            "angle": e.angle,
        }
        for e in circulant.eigenvalues(spec)
    ]


def _cmd_napoleon(args) -> dict:
    data = _load_json(args.input)
    if args.geometry == "plane":
        apices, centers = euclid.napoleon(_plane_triangle(data))
        return {
            "geometry": "plane",
            "apices": _complex_pairs(apices),
            "centers": _complex_pairs(centers.vertices),
        }
    pts = _sphere_points(data)
    if pts.shape[0] != 3:
        raise ValueError("sphere napoleon expects exactly three points")
    result = spherical.napoleon_sphere(pts[0], pts[1], pts[2])
    return {
        "geometry": "sphere",
        "vertices": [list(map(float, v)) for v in result.vertices],
    }


def _cmd_fit(args) -> dict:
    pts = _sphere_points(_load_json(args.input))
    axis, cos_radius = spherical.fit_small_circle(pts)
    return {"axis": list(map(float, axis)), "cos_radius": cos_radius}


def _cmd_analyze(args) -> dict:
    matrix = _float_array(
        _load_json(args.matrix), (None, None), "matrix must be a JSON array of equal-length rows"
    )
    report = analyzer.classify(analyzer.LinearAngleTransform(matrix))
    return {
        "preserves_sum": report.preserves_sum,
        "fixes_regular": report.fixes_regular,
        "attracting": report.attracting,
        "jordan_class": report.jordan_class,
        "rotation_params": list(report.rotation_params) if report.rotation_params else None,
        "structure": list(report.structure),
    }


def _cmd_experiment_table1(args) -> list[dict]:
    config = experiment.ExperimentConfig(
        k_values=tuple(int(k) for k in args.k.split(",") if k.strip()),
        trials=args.trials,
        tol=args.tol,
        cap=args.cap,
        seed=args.seed,
    )
    return emit.experiment_records(experiment.run_table1(config, sampler=args.sampler))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The polyreg parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="polyreg",
        description="Regularize polygons in plane, sphere and hyperbolic-disk geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("regularize", help="iterate the rotation/averaging step on a polygon")
    reg.add_argument("--geometry", choices=("plane", "sphere", "hyperbolic"), required=True)
    reg.add_argument("--input", required=True, help="JSON input file")
    reg.add_argument("--k", type=int, default=2, help="rotation share: vertex moves by gap/k")
    reg.add_argument("--tol", type=float, default=1e-9, help="max-norm gap deviation threshold")
    reg.add_argument("--max-iter", type=int, default=200)
    reg.add_argument("--trace", help="write per-iteration trace to this file")
    reg.add_argument("--format", choices=emit.FORMATS, default="csv")
    reg.set_defaults(func=_cmd_regularize)

    eig = sub.add_parser("eigen", help="closed-form spectrum of a circulant first row")
    eig.add_argument("--spec", required=True, help="JSON array with the first row")
    eig.add_argument("--out")
    eig.add_argument("--format", choices=emit.FORMATS, default="json")
    eig.set_defaults(func=_cmd_eigen, columns=("index", "real", "imag", "modulus", "angle"))

    nap = sub.add_parser("napoleon", help="one-shot three-centers construction")
    nap.add_argument("--geometry", choices=("plane", "sphere"), required=True)
    nap.add_argument("--input", required=True)
    nap.add_argument("--out")
    nap.set_defaults(func=_cmd_napoleon)

    fit = sub.add_parser("fit", help="least-squares small circle through sphere points")
    fit.add_argument("--input", required=True)
    fit.add_argument("--out")
    fit.set_defaults(func=_cmd_fit)

    ana = sub.add_parser("analyze", help="classify a linear angle transform")
    ana.add_argument("--matrix", required=True, help="JSON n-by-n row-major matrix")
    ana.add_argument("--out")
    ana.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("experiment", help="seeded statistics experiments")
    exp_sub = exp.add_subparsers(dest="experiment_name", required=True)
    table1 = exp_sub.add_parser("table1", help="mean iterations to converge per k")
    table1.add_argument("--k", default="2,3,4,5", help="comma-separated k values")
    table1.add_argument("--trials", type=int, default=20)
    table1.add_argument("--tol", type=float, default=0.005)
    table1.add_argument("--cap", type=int, default=20)
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument("--out")
    table1.add_argument("--format", choices=emit.FORMATS, default="csv")
    table1.add_argument("--sampler", choices=experiment.SAMPLERS, default="sphere")
    table1.set_defaults(func=_cmd_experiment_table1, columns=emit.EXPERIMENT_COLUMNS)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            payload = args.func(args)
        text = json.dumps(payload, indent=2, allow_nan=False)
        out, columns = getattr(args, "out", None), getattr(args, "columns", None)
        if out and columns:
            emit.write_records(out, payload, columns, args.format)
        elif out:
            emit.write_json(out, payload)
        print(text)
    except (ValueError, OverflowError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
