import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg import circulant, euclid
from polyreg.euclid import DegenerateTriangleError, PlaneTriangle

OMEGA = cmath.exp(2j * math.pi / 3)
SQRT3 = math.sqrt(3.0)


def triangle_from_azimuths(azimuths, center=0j, radius=1.0):
    return PlaneTriangle(tuple(center + radius * cmath.exp(1j * a) for a in azimuths))


def rotate_step(t, k):
    """Reference: rotate each vertex about the circumcenter by its ccw gap over k.

    The geometric step the plane run's ((k-1)/k, 1/k, 0) gap circulant
    stands for; the circumcircle is untouched.
    """
    center, _, gaps = euclid.angle_gaps(t)
    z = t.vertices
    return PlaneTriangle(tuple(center + (z[j] - center) * cmath.exp(1j * gaps[j] / k) for j in range(3)))


def rotate_half_step(t):
    """rotate_step at k=2: the gap deviation halves."""
    return rotate_step(t, 2)


def mirror(t):
    return PlaneTriangle(tuple(z.conjugate() for z in t.vertices))


# Reference per-side formulas for the apex and the center of the equilateral
# triangle erected on side (za, zb); napoleon's circulant rows must match them.
def formula_apex(za, zb):
    return (za + zb) / 2 + 1j * SQRT3 * (za - zb) / 2


def formula_side_center(za, zb):
    return (za + zb) / 2 + 1j / SQRT3 * (za - zb) / 2


class TestEquilateralDefect:
    def test_roots_of_unity(self):
        t = PlaneTriangle((1, OMEGA, OMEGA**2))
        assert abs(euclid.equilateral_defect(t)) < 1e-15

    def test_right_triangle_value(self):
        assert euclid.equilateral_defect(PlaneTriangle((0, 1, 1j))) == pytest.approx(
            1j / 3, abs=1e-16
        )

    def test_constructed_equilateral(self):
        t = PlaneTriangle((0, 1, (1 + SQRT3 * 1j) / 2))
        assert abs(euclid.equilateral_defect(t)) < 1e-15

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            zs = rng.random(3) + 1j * rng.random(3)
            shift = complex(rng.normal(scale=5), rng.normal(scale=5))
            d0 = euclid.equilateral_defect(PlaneTriangle(tuple(zs)))
            d1 = euclid.equilateral_defect(PlaneTriangle(tuple(z + shift for z in zs)))
            scale_sq = max(abs(zs[0] - zs[1]), abs(zs[1] - zs[2]), abs(zs[2] - zs[0])) ** 2
            assert abs(d1 - d0) <= 1e-10 * max(scale_sq, abs(shift) ** 2, 1.0)

    def test_is_product_of_the_two_rotating_fourier_modes(self):
        # defect = -F_1 F_2 / 3 with F_k = sum_j z_j w^(jk): it vanishes
        # exactly when one rotating mode does.  Bound fixed before measuring.
        rng = np.random.default_rng(12)
        for _ in range(1000):
            zs = rng.normal(size=3) + 1j * rng.normal(size=3)
            f1, f2 = (sum(z * OMEGA ** (j * k) for j, z in enumerate(zs)) for k in (1, 2))
            defect = euclid.equilateral_defect(PlaneTriangle(tuple(zs)))
            assert abs(defect + f1 * f2 / 3) <= 1e-13 * np.sum(np.abs(zs)) ** 2


class TestNapoleon:
    def test_unit_side_formulas(self):
        apices, centers = euclid.napoleon(PlaneTriangle((0, 1, 1j)))
        assert apices[0] == pytest.approx(0.5 - SQRT3 / 2 * 1j, abs=1e-15)
        assert centers.vertices[0] == pytest.approx(0.5 - 1j / (2 * SQRT3), abs=1e-15)

    def test_equilateral_input_keeps_centroid(self):
        _, centers = euclid.napoleon(PlaneTriangle((1, OMEGA, OMEGA**2)))
        assert abs(euclid.equilateral_defect(centers)) < 1e-14
        assert abs(sum(centers.vertices) / 3) < 1e-15

    def test_right_triangle_centers_equilateral(self):
        _, centers = euclid.napoleon(PlaneTriangle((0, 1, 1j)))
        assert abs(euclid.equilateral_defect(centers)) <= 1e-12

    def test_random_triangles_centers_equilateral(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            zs = rng.random(3) + 1j * rng.random(3)
            _, centers = euclid.napoleon(PlaneTriangle(tuple(zs)))
            assert abs(euclid.equilateral_defect(centers)) <= 1e-10

    def test_apex_completes_equilateral_side(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            zs = rng.random(3) + 1j * rng.random(3)
            t = PlaneTriangle(tuple(zs))
            apices, _ = euclid.napoleon(t)
            scale_sq = max(abs(zs[0] - zs[1]), abs(zs[1] - zs[2]), abs(zs[2] - zs[0])) ** 2
            for j in range(3):
                side = PlaneTriangle((zs[j], apices[j], zs[(j + 1) % 3]))
                assert abs(euclid.equilateral_defect(side)) <= 1e-12 * max(scale_sq, 1.0)

    def test_coincident_vertices_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            euclid.napoleon(PlaneTriangle((1 + 1j, 1 + 1j, 0)))

    def test_matches_side_formulas(self):
        # the circulant rows agree with the per-side formulas to rounding,
        # relative to the vertex magnitudes, over sizes and offsets 1e-3..1e3
        rng = np.random.default_rng(14)
        for _ in range(2000):
            zs = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 10.0 ** rng.uniform(-3, 3)
            zs += complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
            apices, centers = euclid.napoleon(PlaneTriangle(tuple(zs)))
            scale = max(abs(z) for z in zs)
            for j in range(3):
                za, zb = zs[j], zs[(j + 1) % 3]
                assert abs(apices[j] - formula_apex(za, zb)) <= 1e-14 * scale
                assert abs(centers.vertices[j] - formula_side_center(za, zb)) <= 1e-14 * scale


class TestCircumcenter:
    def test_unit_circle_points(self):
        center, radius = euclid.circumcenter(PlaneTriangle((1, 1j, -1)))
        assert abs(center) < 1e-15
        assert radius == pytest.approx(1.0, abs=1e-15)

    def test_right_triangle(self):
        center, radius = euclid.circumcenter(PlaneTriangle((0, 1, 1j)))
        assert center == pytest.approx((1 + 1j) / 2, abs=1e-15)
        assert radius == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            euclid.circumcenter(PlaneTriangle((0, 1, 2)))

    def test_equidistance_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            zs = rng.normal(size=3, scale=3) + 1j * rng.normal(size=3, scale=3)
            t = PlaneTriangle(tuple(zs))
            try:
                center, radius = euclid.circumcenter(t)
            except DegenerateTriangleError:
                continue
            for z in zs:
                assert abs(abs(z - center) - radius) <= 1e-12 * max(radius, 1.0)


class TestRotateHalfStep:
    def test_equilateral_advances_by_sixth_turn(self):
        t = triangle_from_azimuths((0.2, 0.2 + 2 * math.pi / 3, 0.2 + 4 * math.pi / 3))
        rotated = rotate_half_step(t)
        for old, new in zip(t.vertices, rotated.vertices):
            assert new == pytest.approx(old * cmath.exp(1j * math.pi / 3), abs=1e-12)
        _, _, gaps = euclid.angle_gaps(rotated)
        assert np.allclose(gaps, 2 * math.pi / 3, atol=1e-12)

    def test_gap_transform_hand_example(self):
        t = triangle_from_azimuths((0.0, math.pi, 1.5 * math.pi))
        rotated = rotate_half_step(t)
        _, _, gaps = euclid.angle_gaps(rotated)
        assert np.allclose(gaps, [0.75 * math.pi, 0.5 * math.pi, 0.75 * math.pi], atol=1e-12)

    def test_matches_engine_trace_and_halves_deviation(self):
        t = PlaneTriangle((0, 1, 1j))
        _, _, gaps = euclid.angle_gaps(t)
        spec = circulant.CirculantSpec((0.5, 0.5, 0.0))
        target = np.full(3, 2 * math.pi / 3)
        for _ in range(12):
            before = np.linalg.norm(gaps - target)
            t = rotate_half_step(t)
            _, _, new_gaps = euclid.angle_gaps(t)
            assert np.allclose(new_gaps, circulant.apply(spec, gaps), atol=1e-10)
            after = np.linalg.norm(new_gaps - target)
            assert after == pytest.approx(before / 2, rel=1e-9)
            gaps = new_gaps

    def test_preserves_circumcircle_and_gap_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            zs = rng.normal(size=3) + 1j * rng.normal(size=3)
            t = PlaneTriangle(tuple(zs))
            try:
                center, radius, gaps = euclid.angle_gaps(t)
            except DegenerateTriangleError:
                continue
            rotated = rotate_half_step(t)
            for z in rotated.vertices:
                assert abs(abs(z - center) - radius) <= 1e-12 * max(radius, 1.0)
            _, _, new_gaps = euclid.angle_gaps(rotated)
            assert math.fsum(new_gaps) == pytest.approx(math.fsum(gaps), abs=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            euclid.regularize(PlaneTriangle((0, 1, 2)), k=2, tol=1e-9, max_iter=10)


class TestCodec:
    def test_hand_example(self):
        assert np.allclose(euclid.cyclic_gaps([0.9, 0.1, 0.4], 1.0), [0.2, 0.3, 0.5], atol=1e-15)
        assert np.allclose(euclid.positions_from_gaps(0.9, [0.2, 0.3, 0.5]), [0.9, 1.1, 1.4], atol=1e-15)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=64),
        start=st.floats(-10.0, 10.0),
        period=st.sampled_from([2 * math.pi, 1.0]),
    )
    def test_round_trip(self, weights, start, period):
        gaps = np.asarray(weights) / math.fsum(weights) * period
        positions = euclid.positions_from_gaps(start, gaps)
        assert np.max(np.abs(euclid.cyclic_gaps(positions, period) - gaps)) <= 1e-12


# On converging runs the closed form stays within about 3e-12 of exactly
# summed advances (n=64, k 2..5, up to 3e4 steps); the bound is fixed far
# above that.
DECODE_TOL = 1e-9


class TestPlaneRun:
    @pytest.mark.parametrize(
        "vertices, tol, max_iter, k",
        [
            pytest.param(vertices, tol, max_iter, k, id=name if k == 2 else f"{name}-k{k}")
            for vertices, tol, max_iter, name in [
                ((0, 1, 1j), 1e-9, 200, "ccw"),
                ((0, 1j, 1), 1e-9, 200, "cw"),
                ((0.3 + 0.1j, -2.0 + 0.5j, 0.7 - 1.9j), 1e-12, 200, "scalene"),
                ((5 + 5j, 5.001 + 5j, 4 + 6j), 1e-300, 3000, "thin-capped"),
                ((5 + 5j, 4 + 6j, 5.001 + 5j), 1e-300, 3000, "thin-cw-capped"),
            ]
            for k in (2, 3, 5)
        ],
    )
    def test_matches_geometric_rotation(self, vertices, tol, max_iter, k):
        # a clockwise triangle turns clockwise: it is the mirror image of
        # the run on its counter-clockwise mirror image
        t = PlaneTriangle(vertices)
        result = euclid.regularize(t, k=k, tol=tol, max_iter=max_iter)
        run, final = result, result.final
        turn = euclid.circle_frame(t)[2]
        stepped = t if turn == 1 else mirror(t)
        for _ in range(run.iterations):
            stepped = rotate_step(stepped, k)
        stepped = stepped if turn == 1 else mirror(stepped)
        assert run.converged or run.iterations == max_iter
        _, radius = euclid.circumcenter(t)
        for got, want in zip(final.vertices, stepped.vertices):
            assert abs(got - want) <= DECODE_TOL * radius

    def test_gap_run_is_the_half_step_circulant(self):
        t = PlaneTriangle((0, 1, 1j))
        run = euclid.regularize(t, k=2, tol=1e-9, max_iter=200)
        assert run.spec.coeffs == (0.5, 0.5, 0.0)
        assert np.array_equal(run.target, np.full(3, 2 * math.pi / 3))
        assert np.array_equal(run.start, euclid.angle_gaps(t)[2])


class TestVertex0Azimuth:
    def test_zero_steps_returns_start(self):
        gaps = np.array([1.0, 2.0, 2 * math.pi - 3.0])
        assert euclid.vertex0_azimuth(0.7, gaps, gaps, 0, 3) == 0.7

    def test_one_step_advances_by_gap_over_k(self):
        gaps = np.array([1.0, 2.0, 2 * math.pi - 3.0])
        stepped = circulant.apply(circulant.CirculantSpec((0.8, 0.2, 0.0)), gaps)
        assert euclid.vertex0_azimuth(0.7, gaps, stepped, 1, 5) == pytest.approx(0.7 + 0.2, abs=1e-15)

    @pytest.mark.parametrize("n, k", [(3, 2), (3, 5), (64, 2), (64, 3), (64, 5)])
    def test_matches_summed_advances(self, n, k):
        # vertex 0 turns by gap_0 / k per step; sum those advances exactly
        gaps = np.random.default_rng(n + k).dirichlet(np.ones(n)) * 2 * math.pi
        coeffs = [0.0] * n
        coeffs[0], coeffs[1] = (k - 1) / k, 1 / k
        run = circulant.iterate(circulant.CirculantSpec(tuple(coeffs)), gaps,
                                np.full(n, 2 * math.pi / n), tol=1e-12, max_iter=30000)
        assert run.iterations >= 20
        advances = []
        for m, g in enumerate(run.steps()):
            if m % 997 == 0 or m == run.iterations:
                want = 0.25 + math.fsum(advances)
                assert abs(euclid.vertex0_azimuth(0.25, gaps, g, m, k) - want) <= DECODE_TOL
            advances.append(g[0] / k)
