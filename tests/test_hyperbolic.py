import cmath
import math

import numpy as np
import pytest

from polyreg import circulant, hyperbolic
from polyreg.hyperbolic import (
    BoundaryPoints,
    NoInteriorIntersectionError,
    gap_step_spec,
)

SQRT3 = math.sqrt(3.0)

HEX_EXAMPLE = BoundaryPoints((0.0, 0.3, 0.4, 0.6, 0.7, 0.9))


def alternating_boundary(a, start=0.0, n=3):
    b = 1.0 / n - a
    gaps = [a, b] * n
    return hyperbolic.points_from_gaps(np.array(gaps), start=start)


class TestBoundaryTypes:
    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            BoundaryPoints((0.0, 0.2, 0.4, 0.6, 0.8))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BoundaryPoints((0.0, 0.0, 0.4, 0.6, 0.7, 0.9))

    def test_rejects_non_cyclic_order(self):
        with pytest.raises(ValueError):
            BoundaryPoints((0.0, 0.4, 0.3, 0.6, 0.7, 0.9))

    def test_wrapped_start_is_fine(self):
        bp = BoundaryPoints((0.8, 0.9, 0.1, 0.2, 0.4, 0.6))
        assert bp.n == 3

    def test_gap_vector_bounds(self):
        with pytest.raises(ValueError):
            hyperbolic.points_from_gaps(np.array([0.5, -0.1, 0.2, 0.1, 0.2, 0.1]))
        with pytest.raises(ValueError):
            hyperbolic.points_from_gaps(np.array([0.5, 0.1, 0.2, 0.1, 0.2, 0.2]))


class TestGeodesicFromBoundary:
    def test_antipodal_gives_diameter(self):
        g = hyperbolic.geodesic_from_boundary(0.0, 0.5)
        assert g.kind == "diameter"
        assert g.direction == pytest.approx(1.0, abs=1e-15)

    def test_quarter_circle_arc(self):
        g = hyperbolic.geodesic_from_boundary(0.0, 0.25)
        assert g.kind == "arc"
        assert g.center == pytest.approx(1 + 1j, abs=1e-12)
        assert g.radius == pytest.approx(1.0, abs=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic.geodesic_from_boundary(0.3, 0.3)

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t1, t2 = rng.uniform(0, 1, size=2)
            if min((t2 - t1) % 1.0, (t1 - t2) % 1.0) < 1e-3:
                continue
            g = hyperbolic.geodesic_from_boundary(t1, t2)
            if g.kind == "arc":
                assert abs(g.center) ** 2 - g.radius**2 == pytest.approx(1.0, abs=1e-10)
            for angle in g.boundary_angles():
                assert g.contains(cmath.exp(1j * angle), tol=1e-10)

    def test_near_antipodal_gives_huge_arc(self):
        # 1 + cos d rounds to exactly 0 here; the arc through the two points
        # has |center| = 1 / cos(d/2) = 1 / sin(pi * 1e-9)
        g = hyperbolic.geodesic_from_boundary(0.1, 0.6 + 1e-9)
        assert g.kind == "arc"
        assert abs(g.center) == pytest.approx(1.0 / math.sin(math.pi * 1e-9), rel=1e-6)

    def test_endpoints_lie_on_geodesic(self):
        g = hyperbolic.geodesic_from_boundary(0.1, 0.35)
        for t in (0.1, 0.35):
            z = cmath.exp(2j * math.pi * t)
            assert abs(abs(z - g.center) - g.radius) < 1e-12


class TestIntersect:
    def test_perpendicular_diameters(self):
        g1 = hyperbolic.geodesic_from_boundary(0.0, 0.5)
        g2 = hyperbolic.geodesic_from_boundary(0.25, 0.75)
        assert hyperbolic.intersect(g1, g2) == 0j

    def test_tilted_diameters(self):
        g1 = hyperbolic.geodesic_from_boundary(0.0, 0.5)
        g2 = hyperbolic.geodesic_from_boundary(1 / 8, 5 / 8)
        assert hyperbolic.intersect(g1, g2) == pytest.approx(0j, abs=1e-15)

    def test_diameter_and_arc(self):
        diam = hyperbolic.geodesic_from_boundary(0.0, 0.5)
        arc = hyperbolic.geodesic_from_boundary(1 / 8, 3 / 4)
        z = hyperbolic.intersect(diam, arc)
        assert abs(z) < 1.0
        assert diam.contains(z, tol=1e-12) and arc.contains(z, tol=1e-10)

    def test_two_arcs(self):
        g1 = hyperbolic.geodesic_from_boundary(0.0, 0.3)
        g2 = hyperbolic.geodesic_from_boundary(0.2, 0.6)
        z = hyperbolic.intersect(g1, g2)
        assert abs(z) < 1.0
        assert g1.contains(z, tol=1e-10) and g2.contains(z, tol=1e-10)

    def test_disjoint_endpoints_rejected(self):
        g1 = hyperbolic.geodesic_from_boundary(0.0, 1 / 8)
        g2 = hyperbolic.geodesic_from_boundary(1 / 4, 3 / 8)
        with pytest.raises(NoInteriorIntersectionError):
            hyperbolic.intersect(g1, g2)


class TestInteriorAngle:
    def test_perpendicular_diameters(self):
        g1 = hyperbolic.geodesic_from_boundary(0.0, 0.5)
        g2 = hyperbolic.geodesic_from_boundary(0.25, 0.75)
        assert hyperbolic.interior_angle(g1, g2, 0j) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_uniform_configuration_angles_equal(self):
        bp = BoundaryPoints((0.0, 1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6))
        geos = hyperbolic.geodesics_of(bp)
        verts = hyperbolic.polygon_from_boundary(bp)
        angles = [
            hyperbolic.interior_angle(geos[i], geos[(i + 1) % 3], verts[i]) for i in range(3)
        ]
        assert max(angles) - min(angles) < 1e-10

    def test_point_off_curves_rejected(self):
        g1 = hyperbolic.geodesic_from_boundary(0.0, 0.3)
        g2 = hyperbolic.geodesic_from_boundary(0.2, 0.6)
        with pytest.raises(ValueError):
            hyperbolic.interior_angle(g1, g2, 0.9 + 0.05j)

    def test_triangle_angle_sum_below_pi(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gaps = rng.dirichlet(np.ones(6))
            if np.min(gaps) < 0.02:
                continue
            bp = hyperbolic.points_from_gaps(gaps, start=rng.uniform(0, 1))
            geos = hyperbolic.geodesics_of(bp)
            verts = hyperbolic.polygon_from_boundary(bp)
            centroid = sum(verts) / 3
            angles = [
                hyperbolic.interior_angle(
                    geos[i], geos[(i + 1) % 3], verts[i], toward=centroid - verts[i]
                )
                for i in range(3)
            ]
            assert sum(angles) < math.pi


class TestPolygonFromBoundary:
    def test_vertices_inside_disk(self):
        verts = hyperbolic.polygon_from_boundary(HEX_EXAMPLE)
        assert len(verts) == 3
        assert all(abs(z) < 1.0 - 1e-12 for z in verts)

    def test_alternating_gaps_give_concentric_vertices(self):
        bp = alternating_boundary(0.21, start=0.05)
        verts = hyperbolic.polygon_from_boundary(bp)
        radii = [abs(z) for z in verts]
        assert max(radii) - min(radii) < 1e-12

    def test_even_n_limit_collapses_to_center(self):
        # for even n, points i and i+n of the limit are antipodal: every side
        # tends to a diameter and every vertex to the center; the bound
        # allows sqrt(machine epsilon)-sized roundoff in intersect's quadratic
        rng = np.random.default_rng(4)
        for n in range(4, 17, 2):
            bp = BoundaryPoints(tuple(np.sort(rng.uniform(0.0, 1.0, 2 * n))))
            run = hyperbolic.regularize_hyperbolic(bp, tol=1e-9, max_iter=100_000)
            assert run.converged
            verts = hyperbolic.polygon_from_boundary(run.final)
            assert len(verts) == n
            assert max(abs(z) for z in verts) <= 1e-7

    def test_octagon_boundary(self):
        gaps = np.array([0.2, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1])
        bp = hyperbolic.points_from_gaps(gaps)
        verts = hyperbolic.polygon_from_boundary(bp)
        assert len(verts) == 4
        assert all(abs(z) < 1.0 for z in verts)


class TestGapConversions:
    def test_hand_example(self):
        gaps = hyperbolic.gaps_from_points(HEX_EXAMPLE)
        assert np.allclose(gaps, [0.3, 0.1, 0.2, 0.1, 0.2, 0.1], atol=1e-15)

    def test_round_trip(self):
        gaps = hyperbolic.gaps_from_points(HEX_EXAMPLE)
        back = hyperbolic.points_from_gaps(gaps, start=HEX_EXAMPLE.points[0])
        assert np.allclose(back.points, HEX_EXAMPLE.points, atol=1e-15)

    def test_uniform_round_trip(self):
        bp = BoundaryPoints(tuple(j / 6 for j in range(6)))
        gaps = hyperbolic.gaps_from_points(bp)
        assert np.allclose(gaps, 1 / 6, atol=1e-15)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic.points_from_gaps(np.array([0.0, 0.4, 0.2, 0.1, 0.2, 0.1]), start=0.0)


class TestGapStep:
    def test_hand_example_six(self):
        stepped = circulant.apply(gap_step_spec(6), [0.3, 0.1, 0.2, 0.1, 0.2, 0.1])
        assert np.allclose(stepped, [0.25, 0.1, 0.2, 0.1, 0.25, 0.1], atol=1e-15)

    def test_alternating_fixed(self):
        gaps = [0.25, 1 / 12, 0.25, 1 / 12, 0.25, 1 / 12]
        assert np.allclose(circulant.apply(gap_step_spec(6), gaps), gaps, atol=1e-15)

    def test_hand_example_eight(self):
        stepped = circulant.apply(gap_step_spec(8), [0.2, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1])
        assert np.allclose(
            stepped, [0.15, 0.1, 0.15, 0.1, 0.15, 0.1, 0.15, 0.1], atol=1e-15
        )

    def test_commutes_with_double_shift(self):
        rng = np.random.default_rng(7)
        vals = rng.dirichlet(np.ones(8))
        stepped = circulant.apply(gap_step_spec(8), vals)
        shifted = np.roll(vals, 2)
        stepped_shifted = circulant.apply(gap_step_spec(8), shifted)
        assert np.allclose(np.roll(stepped, 2), stepped_shifted, atol=1e-15)


class TestLimitGaps:
    def test_hand_example(self):
        limit = hyperbolic.limit_gaps(np.array([0.3, 0.1, 0.2, 0.1, 0.2, 0.1]))
        assert np.allclose(limit, [7 / 30, 0.1, 7 / 30, 0.1, 7 / 30, 0.1], atol=1e-15)

    def test_alternating_fixed_point(self):
        gaps = np.array([0.25, 1 / 12, 0.25, 1 / 12, 0.25, 1 / 12])
        assert np.allclose(hyperbolic.limit_gaps(gaps), gaps, atol=1e-15)

    def test_uniform_fixed_point(self):
        gaps = np.full(6, 1 / 6)
        assert np.allclose(hyperbolic.limit_gaps(gaps), gaps, atol=1e-15)

    def test_idempotent_and_fixed_by_step(self):
        rng = np.random.default_rng(11)
        vals = rng.dirichlet(np.ones(10))
        limit = hyperbolic.limit_gaps(vals)
        again = hyperbolic.limit_gaps(limit)
        assert np.allclose(limit, again, atol=1e-15)
        stepped = circulant.apply(gap_step_spec(10), limit)
        assert np.allclose(limit, stepped, atol=1e-15)

    def test_matches_engine_projection_and_powers(self):
        rng = np.random.default_rng(13)
        for two_n in (6, 8):
            vals = rng.dirichlet(np.ones(two_n))
            limit = hyperbolic.limit_gaps(vals)
            spec = gap_step_spec(two_n)
            assert np.allclose(limit, circulant.fixed_space_limit(spec, vals), atol=1e-13)
            power = np.asarray(vals)
            for _ in range(100):
                power = circulant.apply(spec, power)
            assert np.max(np.abs(power - limit)) < 1e-10


class TestRegularize:
    def test_alternating_input_zero_iterations(self):
        bp = alternating_boundary(0.2, start=0.3)
        result = hyperbolic.regularize_hyperbolic(bp, tol=1e-9, max_iter=50)
        assert result.converged and result.iterations == 0

    def test_contracts_by_half_each_step(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-9, max_iter=200)
        assert result.converged
        limit = hyperbolic.limit_gaps(hyperbolic.gaps_from_points(HEX_EXAMPLE))
        norms = [np.linalg.norm(g - limit) for g in result.run.steps()]
        for before, after in zip(norms, norms[1:]):
            assert after == pytest.approx(before / 2, rel=1e-9)

    def test_anchor_point_held_fixed(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-10, max_iter=200)
        for bp in result.boundaries:
            assert bp.points[0] == HEX_EXAMPLE.points[0]

    def test_zero_max_iter_reports_unconverged(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-9, max_iter=0)
        assert not result.converged and result.iterations == 0

    def test_final_passes_check_regular(self):
        tol = 1e-9
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=tol, max_iter=300)
        assert hyperbolic.check_regular(result.final, 10 * tol)

    def test_polygons_materialize_per_step(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-6, max_iter=100)
        polys = result.polygons()
        assert len(polys) == result.iterations + 1 > 1
        assert all(len(p) == 3 for p in polys)


class TestCheckRegular:
    def test_alternating_true(self):
        assert hyperbolic.check_regular(alternating_boundary(0.18, start=0.77), 1e-10)

    def test_uniform_true(self):
        bp = BoundaryPoints(tuple(j / 6 + 0.02 for j in range(6)))
        assert hyperbolic.check_regular(bp, 1e-10)

    def test_lopsided_false(self):
        assert not hyperbolic.check_regular(HEX_EXAMPLE, 1e-6)

    def test_angles_equal_for_random_alternating(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(0.02, 1 / 3 - 0.02)
            bp = alternating_boundary(a, start=rng.uniform(0, 1))
            geos = hyperbolic.geodesics_of(bp)
            verts = hyperbolic.polygon_from_boundary(bp)
            centroid = sum(verts) / 3
            angles = [
                hyperbolic.interior_angle(
                    geos[i], geos[(i + 1) % 3], verts[i], toward=centroid - verts[i]
                )
                for i in range(3)
            ]
            assert max(angles) - min(angles) < 1e-8
            assert sum(angles) < math.pi


class TestIdealLimit:
    def test_positive_gaps_never_ideal(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            vals = rng.dirichlet(np.ones(6)) + 1e-3
            vals = vals / vals.sum()
            assert not hyperbolic.is_ideal_limit(vals)

    def test_zero_odd_entries_ideal(self):
        assert hyperbolic.is_ideal_limit(np.array([1 / 3, 0.0, 1 / 3, 0.0, 1 / 3, 0.0]))

    def test_hand_example_not_ideal(self):
        assert not hyperbolic.is_ideal_limit(np.array([0.3, 0.1, 0.2, 0.1, 0.2, 0.1]))


class TestPolarConstruction:
    def test_regular_input_stays_regular(self):
        z = tuple(0.5 * cmath.exp(1j * (0.4 + 2 * math.pi * j / 3)) for j in range(3))
        out = hyperbolic.regular_triangle_via_polar(z)
        rot = cmath.exp(2j * math.pi / 3)
        residual = max(abs(out[(j + 1) % 3] - rot * out[j]) for j in range(3))
        assert residual < 1e-10

    def test_scalene_input_becomes_rotation_invariant(self):
        z = tuple(0.5 * cmath.exp(1j * a) for a in (0.0, 2.0, 4.4))
        out = hyperbolic.regular_triangle_via_polar(z)
        rot = cmath.exp(2j * math.pi / 3)
        residual = max(abs(out[(j + 1) % 3] - rot * out[j]) for j in range(3))
        assert residual < 1e-10
        radii = [abs(w) for w in out]
        assert max(radii) - min(radii) < 1e-12
        assert max(radii) < 1.0

    def test_non_concentric_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic.regular_triangle_via_polar((0.5, 0.3j, -0.5))

    def test_center_distance_monotone(self):
        rs = np.linspace(0.0, 0.95, 40)
        ds = [hyperbolic.center_distance(float(r)) for r in rs]
        assert ds[0] == 0.0
        assert all(b > a for a, b in zip(ds, ds[1:]))
        with pytest.raises(ValueError):
            hyperbolic.center_distance(1.0)
