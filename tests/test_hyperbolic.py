import cmath
import math

import numpy as np
import pytest

from polyreg import circulant, hyperbolic
from polyreg.hyperbolic import BoundaryPoints, gap_step_spec

SQRT3 = math.sqrt(3.0)

HEX_EXAMPLE = BoundaryPoints((0.0, 0.3, 0.4, 0.6, 0.7, 0.9))


def alternating_boundary(a, start=0.0, n=3):
    b = 1.0 / n - a
    gaps = [a, b] * n
    return hyperbolic.points_from_gaps(np.array(gaps), start=start)


def geodesic_residual(z, t1, t2):
    """Euclidean distance from z to the geodesic through boundary parameters
    t1, t2: the diameter, or the circle orthogonal to the unit circle with
    centre (a + b) / (1 + cos d) and radius tan(d/2), d the separation."""
    a, b = cmath.exp(2j * math.pi * t1), cmath.exp(2j * math.pi * t2)
    d = abs(cmath.phase(b / a))
    if d == math.pi:
        return abs((z * a.conjugate()).imag)
    # 1 + cos d written as 2 cos^2(d/2), which keeps near-antipodal pairs
    # finite; the radius taken from the centre keeps the circle orthogonal
    centre = (a + b) / (2.0 * math.cos(d / 2.0) ** 2)
    return abs(abs(z - centre) - math.sqrt(abs(centre) ** 2 - 1.0))


def cosh_distance(z, w):
    """cosh of the hyperbolic distance between two points of the disk."""
    return 1.0 + 2.0 * abs(z - w) ** 2 / ((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2))


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
        with pytest.raises(ValueError):
            hyperbolic.points_from_gaps(np.full(6, 1.1 / 6))


class TestGeodesicFromBoundary:
    """Side i is the geodesic through boundary points i and i+n; checked on
    the vertices it carries."""

    def test_antipodal_gives_diameter(self):
        bp = BoundaryPoints((0.0, 0.1, 0.3, 0.5, 0.65, 0.85))
        verts = hyperbolic.polygon_from_boundary(bp)
        for z in (verts[0], verts[2]):
            assert abs(z) > 0.05
            assert abs(z.imag) <= 1e-15

    def test_quarter_circle_arc(self):
        bp = BoundaryPoints((0.0, 0.05, 0.1, 0.25, 0.5, 0.75))
        verts = hyperbolic.polygon_from_boundary(bp)
        for z in (verts[0], verts[2]):
            assert abs(z - (1 + 1j)) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_rejected(self):
        # the first two points differ by one denormal step: vertex 0 rounds
        # onto the unit circle instead of landing inside the disk
        bp = BoundaryPoints((0.0, 5e-324, 0.4, 0.6, 0.7, 0.9))
        with pytest.raises(ValueError):
            hyperbolic.polygon_from_boundary(bp)

    def test_near_antipodal_gives_huge_arc(self):
        # 1 + cos d rounds to exactly 0 for side 0; its arc has
        # |centre| = 1 / sin(pi * 1e-9)
        t = (0.1, 0.2, 0.3, 0.6 + 1e-9, 0.7, 0.8)
        verts = hyperbolic.polygon_from_boundary(BoundaryPoints(t))
        for z in (verts[0], verts[2]):
            assert abs(z) < 1.0
            assert geodesic_residual(z, t[0], t[3]) <= 1e-6


class TestIntersect:
    def test_perpendicular_diameters(self):
        bp = BoundaryPoints((0.0, 0.25, 0.4, 0.5, 0.75, 0.9))
        assert abs(hyperbolic.polygon_from_boundary(bp)[0]) <= 1e-15

    def test_tilted_diameters(self):
        bp = BoundaryPoints((0.0, 1 / 8, 0.3, 0.5, 5 / 8, 0.8))
        assert abs(hyperbolic.polygon_from_boundary(bp)[0]) <= 1e-15

    def test_diameter_and_arc(self):
        t = (0.0, 1 / 8, 0.3, 0.5, 3 / 4, 0.9)
        z = hyperbolic.polygon_from_boundary(BoundaryPoints(t))[0]
        assert abs(z) < 1.0
        assert geodesic_residual(z, t[0], t[3]) <= 1e-12
        assert geodesic_residual(z, t[1], t[4]) <= 1e-12

    def test_two_arcs(self):
        t = (0.0, 0.2, 0.25, 0.3, 0.6, 0.8)
        z = hyperbolic.polygon_from_boundary(BoundaryPoints(t))[0]
        assert abs(z) < 1.0
        assert geodesic_residual(z, t[0], t[3]) <= 1e-12
        assert geodesic_residual(z, t[1], t[4]) <= 1e-12

    def test_vertices_lie_on_both_geodesics(self):
        rng = np.random.default_rng(29)
        for n in range(3, 18):
            for _ in range(20):
                gaps = rng.dirichlet(np.ones(2 * n))
                bp = hyperbolic.points_from_gaps(gaps, start=rng.uniform(0, 1))
                t = bp.points
                for i, z in enumerate(hyperbolic.polygon_from_boundary(bp)):
                    assert abs(z) < 1.0
                    assert geodesic_residual(z, t[i], t[i + n]) <= 1e-9
                    j = (i + 1) % n
                    assert geodesic_residual(z, t[j], t[j + n]) <= 1e-9


class TestInteriorAngle:
    def test_perpendicular_diameters(self):
        bp = BoundaryPoints((0.0, 0.25, 0.4, 0.5, 0.75, 0.9))
        assert hyperbolic.interior_angles(bp)[0] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_uniform_configuration_angles_equal(self):
        bp = BoundaryPoints((0.0, 1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6))
        angles = hyperbolic.interior_angles(bp)
        assert max(angles) - min(angles) < 1e-10
        assert angles == pytest.approx([math.pi / 3] * 3, abs=1e-12)

    def test_triangle_angle_sum_below_pi(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gaps = rng.dirichlet(np.ones(6))
            if np.min(gaps) < 0.02:
                continue
            bp = hyperbolic.points_from_gaps(gaps, start=rng.uniform(0, 1))
            assert sum(hyperbolic.interior_angles(bp)) < math.pi

    def test_matches_law_of_cosines(self):
        # cos C = (cosh a cosh b - cosh c) / (sinh a sinh b) at each vertex;
        # the oracle's own cancellation error is about 1e-8 at gaps >= 1e-3
        rng = np.random.default_rng(11)
        boundaries = [BoundaryPoints((0.357253, 0.379796, 0.480722, 0.884587, 0.028731, 0.051074))]
        while len(boundaries) < 2000:
            gaps = rng.dirichlet(np.ones(6))
            if np.min(gaps) >= 1e-3:
                boundaries.append(hyperbolic.points_from_gaps(gaps, start=rng.uniform(0, 1)))
        for bp in boundaries:
            verts = hyperbolic.polygon_from_boundary(bp)
            angles = hyperbolic.interior_angles(bp)
            for i, angle in enumerate(angles):
                v, nxt, prv = verts[i], verts[(i + 1) % 3], verts[(i - 1) % 3]
                ca, cb, cc = cosh_distance(v, nxt), cosh_distance(v, prv), cosh_distance(nxt, prv)
                oracle = (ca * cb - cc) / math.sqrt((ca * ca - 1.0) * (cb * cb - 1.0))
                assert math.cos(angle) == pytest.approx(oracle, abs=1e-6)
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
        # allows for the run stopping within tol 1e-9 of that limit
        rng = np.random.default_rng(4)
        for n in range(4, 17, 2):
            bp = BoundaryPoints(tuple(np.sort(rng.uniform(0.0, 1.0, 2 * n))))
            run = hyperbolic.regularize_hyperbolic(bp, tol=1e-9, max_iter=100_000)
            assert run.converged
            verts = hyperbolic.polygon_from_boundary(run.final)
            assert len(verts) == n
            assert max(abs(z) for z in verts) <= 1e-7

    @pytest.mark.parametrize("n, winding", [(3, -1), (5, -2), (7, -3), (9, -4)])
    def test_odd_n_limit_is_a_star(self, n, winding):
        # the limit's interior angles are equal, but it winds (n-1)/2 times
        # about the center (clockwise): a pentagram for n=5, convex only for n=3
        bp = alternating_boundary(0.7 / n, n=n)
        verts = hyperbolic.polygon_from_boundary(bp)
        turns = math.fsum(cmath.phase(b / a) for a, b in zip(verts, verts[1:] + verts[:1]))
        assert turns / (2 * math.pi) == pytest.approx(winding, abs=1e-9)
        angles = hyperbolic.interior_angles(bp)
        assert max(angles) - min(angles) <= 1e-12

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
        norms = [np.linalg.norm(g - limit) for g in result.gap_steps()]
        for before, after in zip(norms, norms[1:]):
            assert after == pytest.approx(before / 2, rel=1e-9)

    def test_anchor_point_held_fixed(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-10, max_iter=200)
        for bp in result.steps():
            assert bp.points[0] == HEX_EXAMPLE.points[0]

    def test_zero_max_iter_reports_unconverged(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-9, max_iter=0)
        assert not result.converged and result.iterations == 0

    def test_final_passes_check_regular(self):
        tol = 1e-9
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=tol, max_iter=300)
        assert hyperbolic.check_regular(result.final, 10 * tol)

    def test_regularized_odd_n_sides_equal(self):
        rng = np.random.default_rng(31)
        for n in range(3, 10, 2):
            for _ in range(5):
                gaps = rng.dirichlet(np.ones(2 * n))
                bp = hyperbolic.points_from_gaps(gaps, start=rng.uniform(0, 1))
                result = hyperbolic.regularize_hyperbolic(bp, tol=1e-13, max_iter=100_000)
                assert result.converged
                verts = hyperbolic.polygon_from_boundary(result.final)
                sides = [math.acosh(cosh_distance(verts[i], verts[(i + 1) % n])) for i in range(n)]
                assert max(sides) - min(sides) <= 1e-10

    def test_polygons_materialize_per_step(self):
        result = hyperbolic.regularize_hyperbolic(HEX_EXAMPLE, tol=1e-6, max_iter=100)
        polys = [hyperbolic.polygon_from_boundary(bp) for bp in result.steps()]
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
            angles = hyperbolic.interior_angles(bp)
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
