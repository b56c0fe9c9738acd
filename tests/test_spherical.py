import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg import circulant, euclid, spherical
from polyreg.spherical import (
    CyclicFrame,
    DegenerateConfigurationError,
    NotCyclicError,
    SphericalPolygon,
)

E1, E2, E3 = np.eye(3)
TWO_PI = 2 * math.pi


def ring_polygon(axis, polar, azimuths):
    """Vertices at the given azimuths on the circle of given polar angle."""
    axis = np.asarray(axis, dtype=float)
    e1, e2 = spherical._complete_frame(axis)
    pts = [
        math.cos(polar) * axis
        + math.sin(polar) * (math.cos(a) * e1 + math.sin(a) * e2)
        for a in azimuths
    ]
    return SphericalPolygon(np.array(pts))


def random_gaps(rng, n, floor=5e-2):
    while True:
        gaps = rng.dirichlet(np.ones(n)) * TWO_PI
        if np.min(gaps) > floor:
            return gaps


class TestRotation:
    def test_quarter_turn_about_e3(self):
        rot = spherical.rotation_about_axis(E3, math.pi / 2)
        assert np.allclose(rot @ E1, E2, atol=1e-15)

    def test_zero_angle_is_identity(self):
        axis = spherical.unit_vector([1.0, -2.0, 0.5])
        assert np.allclose(spherical.rotation_about_axis(axis, 0.0), np.eye(3), atol=1e-15)

    def test_third_turn_composes_to_identity(self):
        rot = spherical.rotation_about_axis(E3, TWO_PI / 3)
        assert np.allclose(rot @ rot @ rot, np.eye(3), atol=1e-12)

    def test_proper_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            axis = spherical.unit_vector(rng.normal(size=3))
            rot = spherical.rotation_about_axis(axis, rng.uniform(-math.pi, math.pi))
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rot @ axis, axis, atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            spherical.rotation_about_axis([1.0, 1.0, 0.0], 0.3)


class TestCircumcenterTriangle:
    def test_equatorial_points(self):
        z = [E1, E2, spherical.unit_vector([-1.0, 1.0, 0.0])]
        axis = spherical.circumcenter_triangle(*z)
        assert np.allclose(np.abs(axis), E3, atol=1e-12)
        dots = [float(axis @ p) for p in z]
        assert max(dots) - min(dots) < 1e-12

    def test_symmetric_cap(self):
        theta = 0.7
        z = [
            np.array(
                [
                    math.sin(theta) * math.cos(TWO_PI * j / 3),
                    math.sin(theta) * math.sin(TWO_PI * j / 3),
                    math.cos(theta),
                ]
            )
            for j in range(3)
        ]
        axis = spherical.circumcenter_triangle(*z)
        assert np.allclose(axis, E3, atol=1e-12)
        dots = [float(axis @ p) for p in z]
        assert max(dots) - min(dots) < 1e-10

    def test_repeated_vertex_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            spherical.circumcenter_triangle(E1, E1, E2)

    def test_winding_is_ccw(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = [spherical.unit_vector(rng.normal(size=3)) for _ in range(3)]
            try:
                axis = spherical.circumcenter_triangle(*z)
            except DegenerateConfigurationError:
                continue
            gaps = euclid.cyclic_gaps(spherical._azimuths(axis, np.array(z)))
            assert math.fsum(gaps) == pytest.approx(TWO_PI, abs=1e-9)


class TestCyclicFrame:
    def test_regular_gaps(self):
        for n in (3, 5, 8):
            poly = ring_polygon(E3, 0.9, [TWO_PI * j / n for j in range(n)])
            frame = spherical.to_cyclic_frame(poly)
            assert np.allclose(frame.gaps, TWO_PI / n, atol=1e-12)
            assert frame.cos_radius == pytest.approx(math.cos(0.9), abs=1e-12)

    def test_triangle_gap_example(self):
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        frame = spherical.to_cyclic_frame(poly)
        assert np.allclose(frame.gaps, [math.pi, math.pi / 2, math.pi / 2], atol=1e-12)

    def test_off_circle_vertex_rejected(self):
        square = ring_polygon(E3, 0.8, [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
        vertices = np.array(square.vertices)
        pulled = spherical.rotation_about_axis(E2, 0.1) @ vertices[0]
        vertices[0] = pulled
        with pytest.raises(NotCyclicError):
            spherical.to_cyclic_frame(SphericalPolygon(vertices))

    def test_round_trip_gaps(self):
        rng = np.random.default_rng(21)
        for n in (3, 4, 7):
            gaps = random_gaps(rng, n)
            frame = CyclicFrame(axis=spherical.unit_vector(rng.normal(size=3)),
                                cos_radius=rng.uniform(-0.7, 0.7),
                                gaps=gaps)
            poly = spherical.from_cyclic_frame(dataclasses.replace(frame, start=rng.uniform(0, TWO_PI)))
            back = spherical.to_cyclic_frame(poly)
            assert np.allclose(back.gaps, frame.gaps, atol=1e-10)
            assert back.cos_radius == pytest.approx(frame.cos_radius, abs=1e-12)
            assert np.allclose(back.axis, frame.axis, atol=1e-9)

    def test_clockwise_input_gets_flipped_axis(self):
        ccw = ring_polygon(E3, 0.8, [0.0, 1.0, 2.5, 4.0])
        cw = SphericalPolygon(np.array(ccw.vertices)[::-1])
        frame = spherical.to_cyclic_frame(cw)
        assert np.allclose(frame.axis, -E3, atol=1e-12)
        assert math.fsum(frame.gaps) == pytest.approx(TWO_PI, abs=1e-10)

    def test_star_polygon_rejected(self):
        # a consecutive triple winds clockwise, so the axis flips to -E3, and
        # about either axis the azimuths wind twice
        star = ring_polygon(E3, 1.0, [0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi])
        with pytest.raises(NotCyclicError):
            spherical.to_cyclic_frame(star)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            CyclicFrame(axis=E3, cos_radius=1.5, gaps=np.full(3, TWO_PI / 3))
        with pytest.raises(ValueError):
            CyclicFrame(axis=E3, cos_radius=0.5, gaps=np.array([1.0, 1.0, 1.0]))


class TestCachedFrame:
    def test_frame_is_to_cyclic_frame(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 7):
            poly = ring_polygon(spherical.unit_vector(rng.normal(size=3)), 0.8,
                                np.cumsum(random_gaps(rng, n)))
            cached, fresh = poly.frame, spherical.to_cyclic_frame(poly)
            assert cached.axis.tobytes() == fresh.axis.tobytes()
            assert cached.gaps.tobytes() == fresh.gaps.tobytes()
            assert (cached.cos_radius, cached.start) == (fresh.cos_radius, fresh.start)

    def test_one_extraction_serves_every_reader(self, monkeypatch):
        calls = []
        to_cyclic_frame = spherical.to_cyclic_frame

        def counted(p):
            calls.append(p)
            return to_cyclic_frame(p)

        monkeypatch.setattr(spherical, "to_cyclic_frame", counted)
        poly = ring_polygon(E3, 0.7, [0.0, 1.0, 2.5, 4.0])
        frame = poly.frame
        result = spherical.regularize(poly, k=2, tol=1e-9, max_iter=200)
        assert not spherical.is_regular(poly, 1e-6)
        assert poly.frame is frame
        assert calls == [poly]
        assert result.converged

    def test_non_cyclic_polygon_raises_on_every_access(self):
        square = ring_polygon(E3, 0.8, [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
        vertices = np.array(square.vertices)
        vertices[0] = spherical.rotation_about_axis(E2, 0.1) @ vertices[0]
        poly = SphericalPolygon(vertices)
        for _ in range(2):
            with pytest.raises(NotCyclicError):
                poly.frame


class TestStepK:
    def test_half_step_hand_example(self):
        stepped = circulant.apply(spherical.step_spec(3, 2), [math.pi, math.pi / 2, math.pi / 2])
        assert np.allclose(stepped, [0.75 * math.pi, 0.5 * math.pi, 0.75 * math.pi], atol=1e-15)

    def test_third_step_hand_example(self):
        stepped = circulant.apply(spherical.step_spec(3, 3), [math.pi, math.pi / 2, math.pi / 2])
        assert np.allclose(stepped, [5 * math.pi / 6, math.pi / 2, 2 * math.pi / 3], atol=1e-15)

    def test_regular_gaps_fixed(self):
        gaps = np.full(4, math.pi / 2)
        assert np.allclose(circulant.apply(spherical.step_spec(4, 5), gaps), gaps, atol=1e-15)

    def test_rejects_small_k(self):
        for k in (1, 0, 2.5):
            with pytest.raises(ValueError):
                spherical.step_spec(3, k)

    def test_preserves_sum_and_frame(self):
        rng = np.random.default_rng(17)
        frame = CyclicFrame(axis=spherical.unit_vector([1, 1, 1]),
                            cos_radius=0.3,
                            gaps=random_gaps(rng, 6))
        stepped = circulant.apply(spherical.step_spec(6, 4), frame.gaps)
        assert math.fsum(stepped) == pytest.approx(TWO_PI, abs=1e-10)
        result = spherical.regularize(spherical.from_cyclic_frame(frame), k=4, tol=1e-9, max_iter=1)
        final_frame = spherical.to_cyclic_frame(result.final)
        assert np.allclose(final_frame.axis, frame.axis, atol=1e-12)
        assert final_frame.cos_radius == pytest.approx(frame.cos_radius, abs=1e-12)
        assert np.allclose(result.final.vertices @ frame.axis, frame.cos_radius, atol=1e-12)


# The closed-form vertex 0 stays within about 5e-12 of step-by-step
# rotation on these runs (up to 2.1e4 steps); the bound is fixed far above.
DECODE_TOL = 1e-9


class TestRegularize:
    def test_regular_input_zero_iterations(self):
        poly = ring_polygon(E3, 1.0, [TWO_PI * j / 5 for j in range(5)])
        result = spherical.regularize(poly, k=2, tol=1e-6, max_iter=50)
        assert result.converged and result.iterations == 0

    def test_zero_max_iter_reports_unconverged(self):
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        result = spherical.regularize(poly, k=2, tol=1e-9, max_iter=0)
        assert not result.converged and result.iterations == 0

    def test_triangle_halving_matches_engine(self):
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        result = spherical.regularize(poly, k=2, tol=1e-6, max_iter=100)
        assert result.converged
        target = TWO_PI / 3
        steps = list(result.gap_steps())
        norms = [np.linalg.norm(g - target) for g in steps]
        for before, after in zip(norms, norms[1:]):
            assert after == pytest.approx(before / 2, rel=1e-9)
        gaps = spherical.to_cyclic_frame(poly).gaps
        for mine in steps:
            assert np.array_equal(mine, gaps)
            gaps = circulant.apply(spherical.step_spec(3, 2), gaps)
        assert np.max(np.abs(steps[-1] - target)) < 1e-6 <= np.max(np.abs(steps[-2] - target))

    @pytest.mark.parametrize("n, k", [(3, 2), (5, 3), (7, 5), (64, 2), (64, 3), (64, 5)])
    def test_matches_geometric_rotation(self, n, k):
        # rotate the input's vertices about the axis, every one by its own
        # gap over k per step: vertex 0 step by step, the others by their
        # summed angle; the run decodes to the same polygon
        az = np.sort(np.random.default_rng(n * k).uniform(0.0, TWO_PI, n))
        axis = spherical.unit_vector([0.3, -0.5, 0.8])
        poly = ring_polygon(axis, 0.9, az)
        result = spherical.regularize(poly, k=k, tol=1e-9, max_iter=10**5)
        assert result.converged
        vertex0 = poly.vertices[0]
        turned = np.zeros(n)
        steps = list(result.gap_steps())
        for gaps in steps[:-1]:
            vertex0 = spherical.rotation_about_axis(axis, gaps[0] / k) @ vertex0
            turned += gaps / k
        final = result.final.vertices
        assert np.max(np.abs(final[0] - vertex0)) <= DECODE_TOL
        for j in range(n):
            want = spherical.rotation_about_axis(axis, turned[j]) @ poly.vertices[j]
            assert np.max(np.abs(final[j] - want)) <= DECODE_TOL
        if result.iterations <= 400:
            vertex0 = poly.vertices[0]
            for gaps, polygon in zip(steps, result.steps()):
                assert np.max(np.abs(polygon.vertices[0] - vertex0)) <= DECODE_TOL
                vertex0 = spherical.rotation_about_axis(axis, gaps[0] / k) @ vertex0

    def test_square_converges_within_prediction(self):
        gaps = np.array([2.5, 1.5, 1.5, TWO_PI - 5.5])
        frame = CyclicFrame(axis=E3, cos_radius=0.4, gaps=gaps)
        poly = spherical.from_cyclic_frame(dataclasses.replace(frame, start=0.2))
        spec = spherical.step_spec(4, 2)
        predicted = circulant.predict_iterations(
            spec, float(np.linalg.norm(gaps - TWO_PI / 4)), 1e-9
        )
        result = spherical.regularize(poly, k=2, tol=1e-9, max_iter=predicted + 2)
        assert result.converged
        assert spherical.is_regular(result.final, 1e-7)

    def test_axis_dots_constant_over_trace(self):
        rng = np.random.default_rng(23)
        frame = CyclicFrame(axis=spherical.unit_vector(rng.normal(size=3)),
                            cos_radius=0.55,
                            gaps=random_gaps(rng, 5))
        poly = spherical.from_cyclic_frame(frame)
        result = spherical.regularize(poly, k=3, tol=1e-8, max_iter=200)
        assert result.converged
        for step in result.steps():
            dots = step.vertices @ frame.axis
            assert np.max(np.abs(dots - frame.cos_radius)) < 1e-9

    def test_final_sides_equal(self):
        rng = np.random.default_rng(29)
        frame = CyclicFrame(axis=spherical.unit_vector(rng.normal(size=3)),
                            cos_radius=-0.3,
                            gaps=random_gaps(rng, 6))
        poly = spherical.from_cyclic_frame(dataclasses.replace(frame, start=1.1))
        tol = 1e-8
        result = spherical.regularize(poly, k=2, tol=tol, max_iter=300)
        assert result.converged
        v = result.final.vertices
        arcs = [
            math.acos(max(-1.0, min(1.0, float(v[i] @ v[(i + 1) % 6]))))
            for i in range(6)
        ]
        assert max(arcs) - min(arcs) < 10 * tol


class TestFitAndProject:
    def test_exact_circle_recovered(self):
        poly = ring_polygon(E3, 0.7, [0.1, 1.2, 2.9, 4.4, 5.6])
        axis, cos_radius = spherical.fit_small_circle(poly.vertices)
        assert np.allclose(axis, E3, atol=1e-9)
        assert cos_radius == pytest.approx(math.cos(0.7), abs=1e-12)

    def test_tangential_perturbation_keeps_axis(self):
        rng = np.random.default_rng(31)
        base = [0.1, 1.2, 2.9, 4.4, 5.6]
        jittered = ring_polygon(E3, 0.7, [a + rng.uniform(-1e-3, 1e-3) for a in base])
        axis, _ = spherical.fit_small_circle(jittered.vertices)
        assert np.linalg.norm(axis - E3) < 1e-6 or np.linalg.norm(axis + E3) < 1e-6

    def test_rank_deficient_rejected(self):
        pts = np.array([E1, E1, E2, E2])
        with pytest.raises(DegenerateConfigurationError):
            spherical.fit_small_circle(pts)

    def test_projection_identity_on_circle(self):
        poly = ring_polygon(E3, 0.7, [0.0, 1.0, 2.2, 3.9, 5.1])
        projected = spherical.project_to_circle(poly.vertices, E3, math.cos(0.7))
        assert np.max(np.abs(projected.vertices - poly.vertices)) < 1e-12

    def test_projection_moves_polar_angle_only(self):
        poly = ring_polygon(E3, 1.2, [0.3, 1.0, 2.0])
        projected = spherical.project_to_circle(poly.vertices, E3, math.cos(0.7))
        out = projected.vertices[0]
        assert float(out @ E3) == pytest.approx(math.cos(0.7), abs=1e-12)
        assert math.atan2(out[1], out[0]) == pytest.approx(0.3, abs=1e-12)

    def test_point_at_axis_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            spherical.project_to_circle([E3, E1, E2], E3, math.cos(0.7))

    def test_fit_then_project_is_cyclic(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            axis = spherical.unit_vector(rng.normal(size=3))
            polar = rng.uniform(0.4, 1.1)
            azimuths = np.sort(rng.uniform(0, TWO_PI, size=6))
            if np.min(np.diff(azimuths)) < 1e-2:
                continue
            poly = ring_polygon(axis, polar, azimuths)
            jitter = [a + rng.uniform(-1e-3, 1e-3) for a in azimuths]
            noisy = ring_polygon(axis, polar, jitter)
            fit_axis, fit_cos = spherical.fit_small_circle(noisy.vertices)
            projected = spherical.project_to_circle(noisy.vertices, fit_axis, fit_cos)
            frame = spherical.to_cyclic_frame(projected)  # must not raise
            assert math.fsum(frame.gaps) == pytest.approx(TWO_PI, abs=1e-10)


class TestNapoleonSphere:
    def test_equilateral_input_regular_about_same_axis(self):
        poly = ring_polygon(E3, 0.7, [0.4, 0.4 + TWO_PI / 3, 0.4 + 2 * TWO_PI / 3])
        out = spherical.napoleon_sphere(*poly.vertices)
        assert spherical.is_regular(out, 1e-9)
        axis = spherical.to_cyclic_frame(out).axis
        assert np.linalg.norm(axis - E3) < 1e-9

    @pytest.mark.xfail(
        reason="the three-centers triangle is concentric with the chordal "
        "centroid, not the circumcircle axis, so renormalizing its vertices "
        "does not give a regular spherical triangle for non-equilateral input",
        strict=True,
    )
    def test_scalene_input_regular(self):
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        out = spherical.napoleon_sphere(*poly.vertices)
        assert spherical.is_regular(out, 1e-9)

    def test_output_shares_chordal_plane_height(self):
        # the unnormalized centers live in the chordal plane; after
        # normalization every output vertex has axis-dot cos_r / |center|
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        out = spherical.napoleon_sphere(*poly.vertices)
        assert out.n == 3
        assert np.all(out.vertices @ E3 > 0)

    def test_collinear_chordal_rejected(self):
        z0 = E1
        z1 = spherical.unit_vector([1.0, 1e-14, 0.0])
        with pytest.raises((DegenerateConfigurationError, ValueError)):
            spherical.napoleon_sphere(z0, z1, E2)

    def test_far_hemisphere_rejected(self):
        poly = ring_polygon(E3, 0.7, [0.0, 1.5 * math.pi, math.pi])
        with pytest.raises(ValueError):
            spherical.napoleon_sphere(*poly.vertices)


class TestIsRegular:
    def test_regular_polygons(self):
        for n in (3, 4, 9):
            poly = ring_polygon(E3, 0.8, [TWO_PI * j / n + 0.3 for j in range(n)])
            assert spherical.is_regular(poly, 1e-9)

    def test_lopsided_triangle(self):
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        assert not spherical.is_regular(poly, 1e-3)

    def test_regularized_output_passes(self):
        poly = ring_polygon(E3, 0.7, [0.0, math.pi, 1.5 * math.pi])
        result = spherical.regularize(poly, k=2, tol=1e-8, max_iter=200)
        assert spherical.is_regular(result.final, 1e-6)

    def test_rotation_by_full_gap_count_is_identity(self):
        for n in (3, 5, 12):
            rot = spherical.rotation_about_axis(E3, TWO_PI / n)
            acc = np.eye(3)
            for _ in range(n):
                acc = rot @ acc
            assert np.allclose(acc, np.eye(3), atol=1e-12)


NAN = float("nan")
NAN_POINT = [NAN, 0.0, 0.0]
GOOD_GAPS = np.full(3, TWO_PI / 3)


class TestRejections:
    @pytest.mark.parametrize(
        "vertices",
        [
            [E1, E2],
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
            [E1, E1, E2],
            [E1, -E1, E2],
        ],
        ids=["two-vertices", "2d-points", "non-unit", "repeated", "antipodal"],
    )
    def test_polygon_guards(self, vertices):
        with pytest.raises(ValueError):
            SphericalPolygon(vertices)

    @pytest.mark.parametrize(
        "axis, gaps",
        [
            ([1.0, 1.0, 0.0], GOOD_GAPS),
            (E3, np.full(2, math.pi)),
            (E3, [TWO_PI + 1.0, -0.5, -0.5]),
        ],
        ids=["non-unit-axis", "two-gaps", "gap-out-of-range"],
    )
    def test_frame_guards(self, axis, gaps):
        with pytest.raises(ValueError):
            CyclicFrame(axis=axis, cos_radius=0.5, gaps=gaps)

    def test_unit_vector_rejects_near_zero(self):
        with pytest.raises(DegenerateConfigurationError):
            spherical.unit_vector([1e-13, 0.0, 0.0])

    def test_circle_shrunk_to_a_point(self):
        # polar angle 1e-7: the vertices are distinct, but the axis dot is
        # within 1e-12 of 1
        poly = ring_polygon(E3, 1e-7, [0.0, 2.0, 4.0])
        with pytest.raises(DegenerateConfigurationError):
            spherical.to_cyclic_frame(poly)

    def test_axis_from_a_later_triple(self):
        # vertices 0 and 2 coincide, so the first triple has no circumcircle
        # and the axis comes from vertices 1, 2, 3; the polygon then winds
        # zero times about it
        b, d = spherical.unit_vector([0.0, 1.0, 0.2]), spherical.unit_vector([0.0, -1.0, 0.3])
        vertices = np.array([E1, b, E1, d])
        axis = spherical._candidate_axis(vertices)
        assert np.array_equal(axis, spherical.circumcenter_triangle(b, E1, d))
        with pytest.raises(NotCyclicError):
            spherical.to_cyclic_frame(SphericalPolygon(vertices))
        with pytest.raises(DegenerateConfigurationError):
            spherical.to_cyclic_frame(SphericalPolygon([E1, b, E1, b]))

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError):
            spherical.fit_small_circle([E1, E2])

    def test_project_onto_the_pole_rejected(self):
        with pytest.raises(ValueError):
            spherical.project_to_circle([E1, E2, -E1], E3, 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: SphericalPolygon([NAN_POINT, E2, E3]),
            lambda: CyclicFrame(axis=[NAN] * 3, cos_radius=0.3, gaps=[NAN] * 3),
            lambda: CyclicFrame(axis=E3, cos_radius=0.3, gaps=[NAN, 1.0, 1.0]),
            lambda: CyclicFrame(axis=E3, cos_radius=NAN, gaps=GOOD_GAPS),
            lambda: CyclicFrame(axis=E3, cos_radius=0.3, gaps=GOOD_GAPS, start=NAN),
            lambda: spherical.unit_vector(NAN_POINT),
            lambda: spherical.rotation_about_axis(NAN_POINT, 1.0),
            lambda: spherical.circumcenter_triangle(NAN_POINT, E2, E3),
            lambda: spherical.step_spec(3, NAN),
            lambda: spherical.regularize(SphericalPolygon([E1, E2, E3]), k=2, tol=NAN, max_iter=5),
            lambda: spherical.fit_small_circle([NAN_POINT, E1, E2, E3]),
            lambda: spherical.project_to_circle([NAN_POINT, E1, E2], E3, 0.5),
            lambda: spherical.project_to_circle([E1, E2, -E1], NAN_POINT, 0.5),
            lambda: spherical.project_to_circle([E1, E2, -E1], E3, NAN),
            lambda: spherical.napoleon_sphere(NAN_POINT, E2, E3),
        ],
        ids=["polygon", "frame", "frame-gaps", "frame-cos-radius", "frame-start",
             "unit-vector", "rotation-axis", "circumcenter", "step-spec", "regularize-tol",
             "fit", "project-points", "project-axis", "project-cos-radius", "napoleon"],
    )
    def test_nan_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestFrameRoundTrip:
    @pytest.mark.parametrize("orientation", ["ccw", "cw"])
    def test_polygon_frame_polygon(self, orientation):
        rng = np.random.default_rng(41)
        for n in range(3, 65):
            azimuths = np.cumsum(random_gaps(rng, n, floor=0.2 / n)) + rng.uniform(-math.pi, math.pi)
            poly = ring_polygon(spherical.unit_vector(rng.normal(size=3)), rng.uniform(0.3, 2.8), azimuths)
            if orientation == "cw":
                poly = SphericalPolygon(poly.vertices[::-1])
            back = spherical.from_cyclic_frame(spherical.to_cyclic_frame(poly))
            assert np.max(np.abs(back.vertices - poly.vertices)) <= 1e-12, n

    def test_frame_polygon_frame(self):
        rng = np.random.default_rng(43)
        for n in range(3, 65):
            frame = CyclicFrame(axis=spherical.unit_vector(rng.normal(size=3)),
                                cos_radius=rng.uniform(-0.9, 0.9),
                                gaps=random_gaps(rng, n, floor=0.2 / n),
                                start=rng.uniform(-10.0, 10.0))
            back = spherical.to_cyclic_frame(spherical.from_cyclic_frame(frame))
            assert np.max(np.abs(back.gaps - frame.gaps)) <= 1e-12, n
            turn = (back.start - frame.start + math.pi) % TWO_PI - math.pi
            assert abs(turn) <= 1e-12, n


# Finite coordinates up to 1e150, so no product overflows, with signed
# zeros and subnormals drawn on purpose.
COORDS = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310]),
)
VECTORS = st.lists(COORDS, min_size=3, max_size=3).map(np.array)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestVectorHelpers:
    """The private 3-vector helpers give numpy's bits, so frames do not move."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(a=VECTORS, b=VECTORS)
    def test_cross_and_norm_bit_equal(self, a, b):
        assert np.array_equal(bits(spherical._cross(a, b)), bits(np.cross(a, b)))
        assert bits(spherical._norm(a)) == bits(np.linalg.norm(a))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(rows=st.lists(VECTORS, min_size=1, max_size=8))
    def test_row_norms_bit_equal(self, rows):
        v = np.array(rows)
        assert np.array_equal(bits(spherical._row_norms(v)), bits(np.linalg.norm(v, axis=1)))
