"""Acceptance suite: one test per numbered criterion, each printing a
PASS or FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 4 (capped-fraction clause) and 8 are expected to fail; the
underlying constructions behave as implemented but the stated targets are
not attainable, see the notes on the individual tests.
"""

import dataclasses
import json
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from polyreg import analyzer, circulant, cli, euclid, experiment, hyperbolic, spherical

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(number, label):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label} ({perf_counter() - start:.2f}s)")
        raise
    print(f"PASS criterion {number}: {label} ({perf_counter() - start:.2f}s)")


def assert_runtime(start, budget):
    elapsed = perf_counter() - start
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def ngon_spec(n, k):
    return spherical.step_spec(n, k)


def random_cyclic_polygon(rng, n, min_gap=0.05):
    axis = spherical.unit_vector(rng.normal(size=3))
    cos_radius = float(rng.uniform(-0.8, 0.8))
    while True:
        gaps = rng.dirichlet(np.ones(n)) * TWO_PI
        if float(np.min(gaps)) > min_gap:
            break
    frame = spherical.CyclicFrame(axis=axis, cos_radius=cos_radius, gaps=gaps)
    return spherical.from_cyclic_frame(dataclasses.replace(frame, start=float(rng.uniform(0, TWO_PI))))


def random_hemisphere_triangle(rng):
    while True:
        pts = rng.standard_normal((3, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        try:
            axis = spherical.circumcenter_triangle(*pts)
        except spherical.DegenerateConfigurationError:
            continue
        if float(axis @ pts[0]) > 0.1:
            return pts, axis


def test_criterion_1_spectra():
    with criterion(1, "closed-form spectra match stated values and a dense eigensolver"):
        start = perf_counter()
        method1 = circulant.CirculantSpec((0.5, 0.5, 0.0))
        lams = circulant.eigenvalues(method1)
        expected = [1.0 + 0j, (1 + SQRT3 * 1j) / 4, (1 - SQRT3 * 1j) / 4]
        for lam, ref in zip(lams, expected):
            assert abs(lam - ref) <= 1e-14

        rng = np.random.default_rng(2026)
        for _ in range(50):
            n = int(rng.integers(3, 33))
            spec = circulant.CirculantSpec(tuple(rng.dirichlet(np.ones(n))))
            assert spec.is_row_stochastic()
            closed = circulant.eigenvalues(spec)
            numeric = list(np.linalg.eigvals(spec.as_matrix()))
            for lam in closed:
                match = min(range(len(numeric)), key=lambda i: abs(numeric[i] - lam))
                assert abs(numeric[match] - lam) <= 1e-10
                numeric.pop(match)
        assert_runtime(start, 1.0)


def test_criterion_2_exact_triangle_contraction():
    with criterion(2, "triangle gap deviation contracts by sqrt(k^2-3k+3)/k per step"):
        start = perf_counter()
        assert math.sqrt(2 * 2 - 3 * 2 + 3) / 2 == 0.5
        rng = np.random.default_rng(77)
        target = TWO_PI / 3
        triangles = [
            experiment.random_spherical_triangle(np.random.default_rng(seed))
            for seed in rng.integers(0, 2**32, size=100)
        ]
        for k in range(2, 7):
            factor = math.sqrt(k * k - 3 * k + 3) / k
            tol = 1e-12 if k == 2 else 1e-9
            for triangle in triangles:
                frame = spherical.to_cyclic_frame(triangle)
                gaps = np.array(frame.gaps)
                for _ in range(8):
                    before = float(np.linalg.norm(gaps - target))
                    gaps = circulant.apply(ngon_spec(3, k), gaps)
                    after = float(np.linalg.norm(gaps - target))
                    if before < 1e-4:
                        break
                    assert abs(after / before - factor) <= tol
        assert_runtime(start, 1.0)


def test_criterion_3_cyclic_ngon_convergence():
    with criterion(3, "cyclic n-gons converge within predicted iterations + 2"):
        start = perf_counter()
        rng = np.random.default_rng(404)
        tol = 1e-9
        for n in range(3, 13):
            for k in range(2, 6):
                spec = ngon_spec(n, k)
                for _ in range(20):
                    poly = random_cyclic_polygon(rng, n)
                    gaps = spherical.to_cyclic_frame(poly).gaps
                    deviation = float(np.linalg.norm(gaps - TWO_PI / n))
                    predicted = circulant.predict_iterations(spec, deviation, tol)
                    result = spherical.regularize(poly, k=k, tol=tol, max_iter=predicted + 2)
                    assert result.converged, (n, k, predicted)
                    assert spherical.is_regular(result.final, 1e-7)
        assert_runtime(start, 5.0)


def test_criterion_4_table1_trend():
    # The capped-fraction clause cannot hold under this stop rule: needing
    # more than 20 iterations at k=5 and tol=0.005 requires an initial
    # max-gap deviation around 3.4 rad, which uniform random triangles
    # essentially never produce (measured 61 capped of 10^6 k=5 trials at
    # this seed, 6.1e-5 with Wilson 95% interval [4.7e-5, 7.8e-5], nowhere
    # near > 0.2).  The clause is asserted as stated and fails honestly.
    with criterion(4, "table1 trend: k=2 mean in [6,9], monotone, k=5 capped > 0.2"):
        start = perf_counter()
        config = experiment.ExperimentConfig(
            k_values=(2, 3, 4, 5), trials=200, tol=0.005, cap=20, seed=20260811
        )
        rows = experiment.run_table1(config)
        means = [row.mean_iterations for row in rows]
        assert 6.0 <= means[0] <= 9.0
        inversions = [max(0.0, a - b) for a, b in zip(means, means[1:])]
        assert sum(1 for inv in inversions if inv > 0) <= 1
        assert all(inv <= 0.3 for inv in inversions)
        assert means[3] > 12.0
        assert_runtime(start, 5.0)
        assert rows[3].capped_fraction > 0.2, (
            f"capped_fraction at k=5 is {rows[3].capped_fraction}; random "
            "triangles essentially never need more than 20 iterations at "
            "tol=0.005, so the > 0.2 target is unattainable under this "
            "stop criterion"
        )


def test_criterion_5_hyperbolic_limit():
    with criterion(5, "gap averaging hits its limit at the engine's contraction rate"):
        start = perf_counter()
        rng = np.random.default_rng(55)
        for two_n in (6, 8):
            spec = hyperbolic.gap_step_spec(two_n)
            factor = circulant.contraction_factor(spec)
            for _ in range(100):
                values = rng.dirichlet(np.ones(two_n))
                limit = hyperbolic.limit_gaps(values)

                power = np.asarray(values)
                for _ in range(100):
                    power = circulant.apply(spec, power)
                assert float(np.max(np.abs(power - limit))) <= 1e-12

                # components on zero eigenvalues die at the first step, so
                # ratios are measured from step 1 on
                current = circulant.apply(spec, np.asarray(values))
                before = float(np.linalg.norm(current - limit))
                for _ in range(12):
                    nxt = circulant.apply(spec, current)
                    after = float(np.linalg.norm(nxt - limit))
                    if before < 1e-6:
                        break
                    assert abs(after / before - factor) <= 1e-9
                    current, before = nxt, after

        # the six-gap transform has the doubled spectrum {1, (1 +- sqrt(3) i)/4},
        # each value twice, not {(3 +- sqrt(3) i)/4}; a dense solver agrees
        spec6 = hyperbolic.gap_step_spec(6)
        closed = circulant.eigenvalues(spec6)
        expected = [
            1.0,
            (1 + SQRT3 * 1j) / 4,
            (1 - SQRT3 * 1j) / 4,
            1.0,
            (1 + SQRT3 * 1j) / 4,
            (1 - SQRT3 * 1j) / 4,
        ]
        for lam, ref in zip(closed, expected):
            assert abs(lam - ref) <= 1e-14
        numeric = list(np.linalg.eigvals(spec6.as_matrix()))
        for lam in closed:
            match = min(range(len(numeric)), key=lambda i: abs(numeric[i] - lam))
            assert abs(numeric[match] - lam) <= 1e-10
            numeric.pop(match)
        assert min(abs(lam - (3 + SQRT3 * 1j) / 4) for lam in closed) > 0.1
        assert_runtime(start, 1.0)


def test_criterion_6_regularity_from_alternating_gaps():
    with criterion(6, "alternating gaps give equal interior angles, sum below pi"):
        start = perf_counter()
        rng = np.random.default_rng(66)
        for _ in range(100):
            a = float(rng.uniform(0.02, 1 / 3 - 0.02))
            b = 1 / 3 - a
            gaps = np.array([a, b, a, b, a, b])
            bp = hyperbolic.points_from_gaps(gaps, start=float(rng.uniform(0, 1)))
            angles = hyperbolic.interior_angles(bp)
            assert max(angles) - min(angles) <= 1e-8
            assert sum(angles) < math.pi
        assert_runtime(start, 2.0)


def test_criterion_7_plane_three_centers():
    with criterion(7, "three-centers output is equilateral for random plane triangles"):
        start = perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            zs = rng.random(3) + 1j * rng.random(3)
            _, centers = euclid.napoleon(euclid.PlaneTriangle(tuple(zs)))
            assert abs(euclid.equilateral_defect(centers)) <= 1e-10
        assert_runtime(start, 1.0)


def test_criterion_8_sphere_three_centers():
    # The renormalized chordal three-centers triangle is concentric with
    # the chordal centroid, not with the circumcircle axis, so for
    # non-equilateral input it is not regular (about any axis).  This
    # criterion fails for generic triangles and is kept as an honest
    # record of that gap; see spherical.napoleon_sphere.
    with criterion(8, "sphere three-centers output regular about the input axis"):
        start = perf_counter()
        rng = np.random.default_rng(88)
        for _ in range(100):
            pts, axis = random_hemisphere_triangle(rng)
            out = spherical.napoleon_sphere(*pts)
            out_axis = spherical.to_cyclic_frame(out).axis
            assert spherical.is_regular(out, 1e-9), (
                "renormalized three-centers output is not regular: the "
                "centers triangle is concentric with the chordal centroid, "
                "not the circumcircle axis"
            )
            assert float(np.linalg.norm(out_axis - axis)) <= 1e-9
        assert_runtime(start, 1.0)


def test_criterion_9_fit_and_project():
    with criterion(9, "small-circle fit recovers the axis; projection is cyclic"):
        start = perf_counter()
        rng = np.random.default_rng(99)
        for _ in range(25):
            axis = spherical.unit_vector(rng.normal(size=3))
            polar = float(rng.uniform(0.3, 1.2))
            while True:
                azimuths = np.sort(rng.uniform(0, TWO_PI, size=8))
                if float(np.min(np.diff(azimuths))) > 5e-2:
                    break
            e1, e2 = spherical._complete_frame(axis)
            ring = lambda az: (
                math.cos(polar) * axis
                + math.sin(polar) * (np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2)
            )
            exact = ring(azimuths)

            fit_axis, fit_cos = spherical.fit_small_circle(exact)
            assert float(np.linalg.norm(fit_axis - axis)) <= 1e-9
            projected = spherical.project_to_circle(exact, fit_axis, fit_cos)
            assert float(np.max(np.abs(projected.vertices - exact))) <= 1e-9

            jitter = azimuths + rng.uniform(-1.0, 1.0, size=8) * 1e-3 / math.sin(polar)
            noisy = ring(jitter)
            fit_axis, fit_cos = spherical.fit_small_circle(noisy)
            assert float(np.linalg.norm(fit_axis - axis)) <= 1e-2
            projected = spherical.project_to_circle(noisy, fit_axis, fit_cos)
            spherical.to_cyclic_frame(projected)  # must not raise "not cyclic"
        assert_runtime(start, 1.0)


def test_criterion_10_transform_classification():
    with criterion(10, "angle-transform classification: rotation, identity, diagonal"):
        start = perf_counter()
        method1 = circulant.CirculantSpec((0.5, 0.5, 0.0)).as_matrix()
        report = analyzer.classify(analyzer.LinearAngleTransform(method1))
        assert report.jordan_class == "complex-rotation"
        a, phi = report.rotation_params
        assert abs(a - 0.5) <= 1e-12
        assert abs(phi - math.pi / 3) <= 1e-12

        identity = analyzer.classify(analyzer.LinearAngleTransform(np.eye(3)))
        assert identity.jordan_class == "non-contracting"

        basis = np.column_stack([np.ones(3), [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
        diagonal = basis @ np.diag([1.0, 0.5, 0.3]) @ np.linalg.inv(basis)
        report = analyzer.classify(analyzer.LinearAngleTransform(diagonal))
        assert report.jordan_class == "real-diagonal"
        assert_runtime(start, 1.0)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with criterion(11, "CLI runs are byte-identical for identical flags and seed"):
        sphere_input = tmp_path / "sphere.json"
        s, c = math.sin(0.7), math.cos(0.7)
        sphere_input.write_text(json.dumps([[s, 0.0, c], [-s, 0.0, c], [0.0, -s, c]]))
        hyper_input = tmp_path / "hyper.json"
        hyper_input.write_text(json.dumps([0.0, 0.3, 0.4, 0.6, 0.7, 0.9]))
        spec_input = tmp_path / "spec.json"
        spec_input.write_text(json.dumps([0.5, 0.0, 0.5, 0.0, 0.0, 0.0]))
        matrix_input = tmp_path / "matrix.json"
        matrix_input.write_text(
            json.dumps([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        )

        cases = [
            ["experiment", "table1", "--k", "2,3", "--trials", "25", "--tol", "0.005",
             "--cap", "20", "--seed", "314159", "--format", "csv", "--out"],
            ["experiment", "table1", "--k", "2", "--trials", "10", "--tol", "0.005",
             "--cap", "20", "--seed", "314159", "--format", "json", "--out"],
            ["regularize", "--geometry", "sphere", "--input", str(sphere_input),
             "--k", "3", "--tol", "1e-9", "--trace"],
            ["regularize", "--geometry", "hyperbolic", "--input", str(hyper_input),
             "--tol", "1e-9", "--trace"],
            ["eigen", "--spec", str(spec_input), "--format", "json", "--out"],
            ["analyze", "--matrix", str(matrix_input), "--out"],
        ]
        for idx, argv in enumerate(cases):
            first = tmp_path / f"out_{idx}_a"
            second = tmp_path / f"out_{idx}_b"
            assert cli.main(argv + [str(first)]) == 0
            assert cli.main(argv + [str(second)]) == 0
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes(), argv[0]
