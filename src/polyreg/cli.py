"""Command-line front end.

Subcommands: regularize (plane / sphere / hyperbolic, with optional
iteration trace), eigen (circulant spectrum), napoleon (one-shot
constructions), fit (small-circle fit), analyze (angle-transform
classification) and experiment table1 (seeded convergence statistics).
Inputs are JSON files.  Subcommands return their payload; main encodes it
once as strict JSON, prints it and writes the same text to a JSON --out,
and any failure exits 2 with an `error:` line; a float overflow or invalid
operation inside a subcommand raises, so it fails the same way.  A payload
that is not strict JSON fails before --out is opened.  regularize streams
its --trace file itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import analyzer, circulant, emit, euclid, experiment, hyperbolic, spherical


def _load_json(path):
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None


def _float_array(data, shape: tuple, message: str) -> np.ndarray:
    """JSON value as a finite float array of `shape` (None: any length)
    whose leaves are all JSON numbers: numpy would also take "1" and true."""
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
    leaves = data
    for _ in range(arr.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise ValueError(message)
    return arr


def _plane_triangle(data) -> euclid.PlaneTriangle:
    arr = _float_array(data, (3, 2), "plane input must be a JSON array of three [re, im] pairs")
    return euclid.PlaneTriangle(tuple(complex(x, y) for x, y in arr))


def _sphere_points(data) -> np.ndarray:
    return _float_array(data, (None, 3), "sphere input must be a JSON array of [x, y, z] triples")


def _complex_pairs(zs) -> list[list[float]]:
    return [[z.real, z.imag] for z in zs]


def _cmd_regularize(args) -> dict:
    data = _load_json(args.input)
    if args.geometry == "plane":
        result = euclid.regularize(_plane_triangle(data), k=args.k, tol=args.tol, max_iter=args.max_iter)
        outcome = {"final": _complex_pairs(result.final.vertices)}
    elif args.geometry == "sphere":
        polygon = spherical.SphericalPolygon(_sphere_points(data))
        result = spherical.regularize(polygon, k=args.k, tol=args.tol, max_iter=args.max_iter)
        outcome = {"final": result.final.vertices.tolist()}
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
    if args.trace:
        emit.write_trace(args.trace, result.gap_steps(), result.target, args.format)
    return {"geometry": args.geometry, "converged": result.converged, "iterations": result.iterations, **outcome}


def _cmd_eigen(args) -> list[dict]:
    coeffs = _float_array(_load_json(args.spec), (None,), "spec must be a JSON array of numbers")
    lam = circulant.eigenvalues(circulant.CirculantSpec(tuple(coeffs)))
    polar = zip(lam.tolist(), np.abs(lam).tolist(), np.angle(lam).tolist())
    return [
        {"index": j, "real": e.real, "imag": e.imag, "modulus": m, "angle": a}
        for j, (e, m, a) in enumerate(polar)
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
    return {"geometry": "sphere", "vertices": result.vertices.tolist()}


def _cmd_fit(args) -> dict:
    pts = _sphere_points(_load_json(args.input))
    axis, cos_radius = spherical.fit_small_circle(pts)
    return {"axis": axis.tolist(), "cos_radius": cos_radius}


def _cmd_analyze(args) -> dict:
    matrix = _float_array(
        _load_json(args.matrix), (None, None), "matrix must be a JSON array of equal-length rows"
    )
    return dataclasses.asdict(analyzer.classify(analyzer.LinearAngleTransform(matrix)))


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
        out = getattr(args, "out", None)
        if out and getattr(args, "format", "json") == "csv":
            emit.write_records(out, payload, args.columns)
        elif out:
            Path(out).write_text(text + "\n", encoding="utf-8")
        print(text)
    except (ValueError, OverflowError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
