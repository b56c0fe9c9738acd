import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyreg import circulant, euclid, hyperbolic, spherical
from polyreg.circulant import CirculantSpec, NonContractingError

SQRT3 = math.sqrt(3.0)

METHOD1 = CirculantSpec((0.5, 0.5, 0.0))
SKIP6 = CirculantSpec((0.5, 0.0, 0.5, 0.0, 0.0, 0.0))
INTERIOR_ZERO = CirculantSpec((0.4, 0.0, 0.0, 0.35, 0.25))
# A complex row summing to 1 with eigenvalues 1, 1/4 - sqrt(3)/10 and
# 1/4 + sqrt(3)/10: it contracts toward the mean of the vector.
HERMITIAN3 = CirculantSpec((0.5, 0.25 + 0.1j, 0.25 - 0.1j))


def ngon_spec(n, k):
    coeffs = [0.0] * n
    coeffs[0] = (k - 1) / k
    coeffs[1] = 1 / k
    return CirculantSpec(tuple(coeffs))


# The O(n^2) root-of-unity evaluation the FFT replaced, kept as the
# reference: lambda_j = sum_m c[m] w^(j*m) with exponents reduced mod n,
# one row of the sum per j; the limit sums the Fourier terms of v at the
# unit-eigenvalue indices.
def loop_eigenvalues(coeffs):
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return np.array([roots[(j * np.arange(n)) % n] @ c for j in range(n)])


def loop_fixed_space_limit(coeffs, v):
    n = len(coeffs)
    lam = loop_eigenvalues(coeffs)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    limit = np.zeros(n, dtype=complex)
    for j in np.flatnonzero(np.abs(lam - 1.0) <= circulant.UNIT_EIGENVALUE_TOL):
        fourier = roots[(-j * np.arange(n)) % n] @ v / n
        limit += fourier * roots[(j * np.arange(n)) % n]
    return limit.real


def geometry_specs(n):
    """A random stochastic row plus the specs the geometries use at size n."""
    specs = [CirculantSpec(tuple(np.random.default_rng(n).dirichlet(np.ones(n))))]
    if n >= 2:
        specs += [spherical.step_spec(n, 2), spherical.step_spec(n, 5)]
    if n >= 6 and n % 2 == 0:
        specs.append(hyperbolic.gap_step_spec(n))
    return specs


# Fixed before measuring: a few hundred ulps of an O(1) sum of n <= 2048 terms.
LOOP_TOL = 1e-13


class TestSpecValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CirculantSpec(())

    def test_rejects_non_finite(self):
        for bad in (math.inf, complex(0, math.inf), complex(math.nan, 0)):
            with pytest.raises(ValueError):
                CirculantSpec((0.5, bad, 0.0))

    def test_row_stochastic_flag(self):
        assert METHOD1.is_row_stochastic()
        assert not CirculantSpec((0.5, 0.75)).is_row_stochastic()
        assert not CirculantSpec((1.5, -0.5)).is_row_stochastic()
        # complex coefficients summing to 1 are not a stochastic row
        assert not HERMITIAN3.is_row_stochastic()
        assert not CirculantSpec((1 + 0j, 0.0)).is_row_stochastic()

    def test_row_kind(self):
        # a real row stays floats, whatever number types it was given in
        coeffs = CirculantSpec((1, np.float64(0.5), True)).coeffs
        assert coeffs == (1.0, 0.5, 1.0)
        assert all(type(c) is float for c in coeffs)
        # one complex coefficient, Python or numpy, makes the whole row complex
        for z in (0.5j, np.complex128(0.5j), np.complex64(0.5j)):
            coeffs = CirculantSpec((0.5, z)).coeffs
            assert coeffs == (0.5, 0.5j)
            assert all(type(c) is complex for c in coeffs)

    def test_matrix_rows_are_shifts(self):
        mat = SKIP6.as_matrix()
        assert mat[0].tolist() == [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]
        assert mat[4].tolist() == [0.5, 0.0, 0.0, 0.0, 0.5, 0.0]


class TestEigenvalues:
    def test_method1_triangle(self):
        lams = circulant.eigenvalues(METHOD1)
        assert lams[0] == 1.0
        assert lams[1] == pytest.approx((1 + SQRT3 * 1j) / 4, abs=1e-15)
        assert lams[2] == pytest.approx((1 - SQRT3 * 1j) / 4, abs=1e-15)

    def test_identity_spec(self):
        lams = circulant.eigenvalues(CirculantSpec((1.0, 0.0, 0.0, 0.0, 0.0)))
        assert all(lam == 1.0 for lam in lams)

    def test_even_offset_six_doubled_pairs(self):
        # lambda_j = 1/2 + 1/2 * exp(2*pi*i*2j/6): the unit value and the
        # conjugate pair (1 +- sqrt(3) i)/4 each appear twice.
        lams = circulant.eigenvalues(SKIP6)
        expect = [
            1.0,
            (1 + SQRT3 * 1j) / 4,
            (1 - SQRT3 * 1j) / 4,
            1.0,
            (1 + SQRT3 * 1j) / 4,
            (1 - SQRT3 * 1j) / 4,
        ]
        for lam, ref in zip(lams, expect):
            assert lam == pytest.approx(ref, abs=1e-14)

    def test_even_offset_six_matches_dense_solver(self):
        closed = np.sort_complex(circulant.eigenvalues(SKIP6))
        numeric = np.sort_complex(np.linalg.eigvals(SKIP6.as_matrix()))
        assert np.max(np.abs(closed - numeric)) < 1e-12
        # ... and (3 + sqrt(3) i)/4 is nowhere in the spectrum.
        assert min(abs(lam - (3 + SQRT3 * 1j) / 4) for lam in closed) > 0.1

    def test_minus_one_has_positive_zero_imaginary_part(self):
        # the eigenvalue -1 of a swap and of the 4-cycle shift sits at +pi,
        # never at -pi from a -0.0 imaginary part
        for coeffs, j in (((0.0, 1.0), 1), ((0.0, 1.0, 0.0, 0.0), 2)):
            lam = circulant.eigenvalues(CirculantSpec(coeffs))[j]
            assert lam == -1.0
            assert np.angle(lam) == math.pi

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 2048])
    def test_matches_root_of_unity_loop(self, n):
        v = np.random.default_rng(n + 1).normal(size=n)
        for spec in geometry_specs(n):
            lam = circulant.eigenvalues(spec)
            assert lam.shape == (n,)
            assert np.max(np.abs(lam - loop_eigenvalues(spec.coeffs))) <= LOOP_TOL
            limit = circulant.fixed_space_limit(spec, v)
            assert np.max(np.abs(limit - loop_fixed_space_limit(spec.coeffs, v))) <= LOOP_TOL

    def test_fourier_vectors_are_eigenvectors(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 4, 7, 16, 64):
            coeffs = rng.dirichlet(np.ones(n))
            spec = CirculantSpec(tuple(coeffs))
            mat = spec.as_matrix()
            omega = np.exp(2j * np.pi * np.arange(n) / n)
            for j, lam in enumerate(circulant.eigenvalues(spec)):
                vec = omega[(j * np.arange(n)) % n]
                residual = mat @ vec - lam * vec
                assert np.max(np.abs(residual)) < 1e-12


class TestApply:
    def test_hand_example_triangle(self):
        out = circulant.apply(METHOD1, [0.5, 0.25, 0.25])
        assert out.tolist() == [0.375, 0.25, 0.375]

    def test_constant_vector_fixed(self):
        spec = ngon_spec(5, 3)
        v = np.full(5, 0.7)
        assert np.allclose(circulant.apply(spec, v), v, atol=1e-15)

    def test_hand_example_six(self):
        out = circulant.apply(SKIP6, [0.3, 0.1, 0.2, 0.1, 0.2, 0.1])
        assert np.allclose(out, [0.25, 0.1, 0.2, 0.1, 0.25, 0.1], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circulant.apply(METHOD1, [1.0, 2.0])

    def test_complex_vector_keeps_imaginary_part(self):
        half = CirculantSpec((0.5, 0.5))
        for v in (np.array([1j, 0]), [1j, 0], (1j, 0.0)):
            out = circulant.apply(half, v)
            assert out.dtype == complex
            assert out.tolist() == [0.5j, 0.5j]
        assert circulant.apply(half, [1, 0]).dtype == float

    def test_complex_row_matches_dense_matrix(self):
        rng = np.random.default_rng(10)
        for n in (1, 3, 5, 16):
            spec = CirculantSpec(tuple(rng.normal(size=n) + 1j * rng.normal(size=n)))
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.max(np.abs(circulant.apply(spec, z) - spec.as_matrix() @ z)) <= 1e-14 * n
            # a real vector under a complex row gives the complex product
            x = rng.normal(size=n)
            assert np.max(np.abs(circulant.apply(spec, x) - spec.as_matrix() @ x)) <= 1e-14 * n

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        for n in (3, 6, 11, 64):
            spec = CirculantSpec(tuple(rng.dirichlet(np.ones(n))))
            v = rng.normal(size=n)
            assert np.allclose(circulant.apply(spec, v), spec.as_matrix() @ v, atol=1e-14)
        v = rng.normal(size=INTERIOR_ZERO.n)
        assert np.allclose(
            circulant.apply(INTERIOR_ZERO, v), INTERIOR_ZERO.as_matrix() @ v, atol=1e-14
        )

    def test_sum_preserved(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 12):
            spec = CirculantSpec(tuple(rng.dirichlet(np.ones(n))))
            v = rng.normal(size=n)
            assert math.fsum(circulant.apply(spec, v)) == pytest.approx(
                math.fsum(v), rel=1e-12
            )

    def test_mean_coefficient_preserved(self):
        # the Fourier coefficient at index 0 is the entrywise mean
        rng = np.random.default_rng(9)
        spec = ngon_spec(6, 4)
        v = rng.normal(size=6)
        assert math.fsum(circulant.apply(spec, v)) / 6 == pytest.approx(math.fsum(v) / 6, rel=1e-12)


class TestFixedSpaceLimit:
    def test_triangle_limit_is_mean(self):
        v = [0.5, 0.3, 0.2]
        limit = circulant.fixed_space_limit(METHOD1, v)
        assert np.allclose(limit, np.full(3, np.mean(v)), atol=1e-15)

    def test_even_offset_limit_is_parity_means(self):
        v = [0.3, 0.1, 0.2, 0.1, 0.2, 0.1]
        limit = circulant.fixed_space_limit(SKIP6, v)
        assert np.allclose(limit, [7 / 30, 0.1, 7 / 30, 0.1, 7 / 30, 0.1], atol=1e-14)

    def test_idempotent_on_fixed_vectors(self):
        v = np.array([0.4, 0.1, 0.4, 0.1, 0.4, 0.1]) / 1.5
        limit = circulant.fixed_space_limit(SKIP6, v)
        assert np.allclose(limit, v, atol=1e-14)

    def test_matches_power_iteration(self):
        # specs in use all contract at 3/4 or better, so 100 applications
        # land within 1e-10 of the projection
        rng = np.random.default_rng(3)
        for spec in (METHOD1, SKIP6, ngon_spec(3, 5), ngon_spec(4, 3)):
            v = rng.normal(size=spec.n)
            w = v.copy()
            for _ in range(100):
                w = circulant.apply(spec, w)
            assert np.max(np.abs(w - circulant.fixed_space_limit(spec, v))) < 1e-10

    def test_complex_row_limit_matches_power_iteration(self):
        # the limit of a complex row, or of a complex vector, stays complex
        for spec, v in ((HERMITIAN3, [1j, 2.0, 0.0]), (METHOD1, [1j, 2.0, 0.0]),
                        (HERMITIAN3, [1.0, 2.0, 0.0])):
            w = np.array(v)
            for _ in range(200):
                w = circulant.apply(spec, w)
            limit = circulant.fixed_space_limit(spec, v)
            assert limit.dtype == complex
            assert np.max(np.abs(limit - w)) <= 1e-14
            assert np.max(np.abs(limit - np.mean(v))) <= 1e-15

    def test_non_contracting_rejected(self):
        shift = CirculantSpec((0.0, 1.0, 0.0))
        with pytest.raises(NonContractingError):
            circulant.fixed_space_limit(shift, [1.0, 2.0, 3.0])


class TestContractionFactor:
    def test_method1_is_half(self):
        assert circulant.contraction_factor(METHOD1) == pytest.approx(0.5, abs=1e-15)

    def test_ngon_triangle_formula(self):
        for k in range(2, 7):
            expect = math.sqrt(k * k - 3 * k + 3) / k
            assert circulant.contraction_factor(ngon_spec(3, k)) == pytest.approx(
                expect, abs=1e-15
            )

    def test_even_offset_is_half(self):
        # both unit eigenvalues are excluded, everything else has modulus 1/2
        assert circulant.contraction_factor(SKIP6) == pytest.approx(0.5, abs=1e-15)

    def test_general_family_formula(self):
        for n in (2, 3, 4, 7, 10, 64, 2048):
            for k in (2, 3, 5):
                expect = max(
                    math.sqrt(k * k - 2 * k + 2 + 2 * (k - 1) * math.cos(2 * math.pi * j / n)) / k
                    for j in range(1, n)
                )
                assert circulant.contraction_factor(ngon_spec(n, k)) == pytest.approx(
                    expect, abs=1e-13
                )

    def test_complex_row(self):
        assert circulant.contraction_factor(HERMITIAN3) == pytest.approx(
            0.25 + math.sqrt(3) / 10, abs=1e-15
        )

    def test_identity_has_nothing_to_contract(self):
        assert circulant.contraction_factor(CirculantSpec((1.0, 0.0, 0.0))) == 0.0


class TestIterateUntil:
    def test_zero_iterations_at_target(self):
        v = [1 / 3, 1 / 3, 1 / 3]
        run = circulant.iterate(METHOD1, v, v, tol=1e-9, max_iter=10)
        assert run.converged and run.iterations == 0
        assert len(list(run.steps())) == 1
        assert np.array_equal(run.final, v)

    def test_exact_halving(self):
        v0 = np.array([0.5, 0.25, 0.25])
        target = np.full(3, 1 / 3)
        run = circulant.iterate(METHOD1, v0, target, tol=1e-6, max_iter=100)
        assert run.converged
        steps = list(run.steps())
        mat = METHOD1.as_matrix()
        power = v0.copy()
        for step in steps[1:]:
            power = mat @ power
            assert np.allclose(step, power, atol=1e-14)
        norms = [np.linalg.norm(s - target) for s in steps]
        for before, after in zip(norms, norms[1:]):
            assert after == pytest.approx(before / 2, rel=1e-12)
        predicted = circulant.predict_iterations(METHOD1, norms[0], 1e-6)
        assert run.iterations <= predicted + 2

    def test_steps_chain_by_apply(self):
        # the replay repeats the run's arithmetic, so it equals a chain of
        # apply() bit for bit, and both agree with the dense matrix product
        dense = CirculantSpec(tuple(np.random.default_rng(17).dirichlet(np.ones(64))))
        for spec in (SKIP6, INTERIOR_ZERO, dense, spherical.step_spec(3, 2),
                     spherical.step_spec(64, 5), hyperbolic.gap_step_spec(10)):
            v0 = np.random.default_rng(spec.n).normal(size=spec.n)
            run = circulant.iterate(spec, v0, np.full(spec.n, np.mean(v0)), tol=1e-12, max_iter=40)
            steps = list(run.steps())
            assert len(steps) == run.iterations + 1 > 1
            assert np.array_equal(steps[0], v0)
            assert np.array_equal(steps[-1], run.final)
            for before, after in zip(steps, steps[1:]):
                assert np.array_equal(circulant.apply(spec, before), after)
                assert np.allclose(spec.as_matrix() @ before, after, atol=1e-14)
            assert all(np.array_equal(a, b) for a, b in zip(run.steps(), steps))

    def test_no_contraction_never_converges(self):
        shift = CirculantSpec((0.0, 1.0, 0.0))
        run = circulant.iterate(shift, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], tol=1e-9, max_iter=25)
        assert not run.converged and run.iterations == 25
        # a fractional cap stops at the first count reaching it
        run = circulant.iterate(shift, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], tol=1e-9, max_iter=2.5)
        assert not run.converged and run.iterations == 3

    def test_rejects_bad_arguments(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                circulant.iterate(METHOD1, [1, 2, 3], [1, 2, 3], tol=tol, max_iter=5)
        for max_iter in (-1, math.nan):
            with pytest.raises(ValueError):
                circulant.iterate(METHOD1, [1, 2, 3], [1, 2, 3], tol=1e-9, max_iter=max_iter)
        with pytest.raises(ValueError):
            circulant.iterate(METHOD1, [1, 2], [1, 2, 3], tol=1e-9, max_iter=5)


class TestPredictIterations:
    def test_powers_of_two(self):
        assert circulant.predict_iterations(METHOD1, 1.0, 1 / 1024) == 10

    def test_k3_triangle(self):
        assert circulant.predict_iterations(ngon_spec(3, 3), 1.0, 1e-3) == 13

    def test_already_below_tolerance(self):
        assert circulant.predict_iterations(METHOD1, 1e-9, 1e-3) == 0

    def test_non_contracting_rejected(self):
        with pytest.raises(NonContractingError):
            circulant.predict_iterations(CirculantSpec((0.0, 1.0, 0.0)), 1.0, 1e-3)

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="tol"):
                circulant.predict_iterations(METHOD1, 1.0, tol)

    def test_bound_is_sufficient(self):
        rng = np.random.default_rng(11)
        for n, k in ((3, 2), (5, 3), (8, 4), (64, 2)):
            spec = ngon_spec(n, k)
            v = rng.dirichlet(np.ones(n))
            target = np.full(n, 1 / n)
            predicted = circulant.predict_iterations(spec, float(np.linalg.norm(v - target)), 1e-9)
            run = circulant.iterate(spec, v, target, tol=1e-9, max_iter=predicted + 2)
            assert run.converged


class TestExactDecayTriangle:
    def test_two_norm_contracts_exactly(self):
        rng = np.random.default_rng(13)
        for k in (2, 3, 4):
            spec = ngon_spec(3, k)
            factor = circulant.contraction_factor(spec)
            v = rng.dirichlet(np.ones(3))
            limit = circulant.fixed_space_limit(spec, v)
            before = np.linalg.norm(v - limit)
            after = np.linalg.norm(circulant.apply(spec, v) - limit)
            assert after == pytest.approx(factor * before, abs=1e-12)


class TestLargeN:
    def test_sphere_step_at_4096(self):
        # lambda_j = (1 + w^j) / 2 has modulus |cos(pi j / n)|; no timing is
        # asserted, but an O(n^2) spectrum shows in the suite's run time
        n = 4096
        spec = spherical.step_spec(n, 2)
        lam = circulant.eigenvalues(spec)
        expect = (1 + np.exp(2j * np.pi * np.arange(n) / n)) / 2
        assert np.max(np.abs(lam - expect)) <= LOOP_TOL
        factor = circulant.contraction_factor(spec)
        assert factor == pytest.approx(math.cos(math.pi / n), abs=1e-15)
        assert circulant.predict_iterations(spec, 1.0, 1e-9) == math.ceil(
            math.log(1e-9) / math.log(factor) - 1e-12
        )


def sphere_run_64():
    az = np.sort(np.random.default_rng(0).uniform(0.0, 2 * math.pi, 64))
    gaps = np.diff(np.append(az, az[0] + 2 * math.pi))
    frame = spherical.CyclicFrame(axis=np.array([0.0, 0.0, 1.0]), cos_radius=0.3, gaps=gaps)
    return spherical.regularize(spherical.from_cyclic_frame(frame), k=2, tol=1e-9, max_iter=10**6)


def hyperbolic_run_51():
    points = np.sort(np.random.default_rng(2).random(102))
    return hyperbolic.regularize_hyperbolic(hyperbolic.BoundaryPoints(tuple(points)), tol=1e-9,
                                            max_iter=10**6)


class TestRunMemory:
    @pytest.mark.parametrize("regularize, steps", [(sphere_run_64, 13288), (hyperbolic_run_51, 7793)],
                             ids=["sphere", "hyperbolic"])
    def test_long_run_keeps_o_n_state(self, regularize, steps):
        # keeping every gap vector would take about 8 MB here
        tracemalloc.start()
        try:
            result = regularize()
            result.final
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged and result.iterations == steps
        assert peak < 1_000_000


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
rows = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64).filter(lambda r: sum(r) > 0.1)


def stochastic(row):
    return CirculantSpec(tuple(np.asarray(row) / math.fsum(row)))


class TestProperties:
    @PROPERTY
    @given(row=rows, seed=st.integers(0, 2**32 - 1))
    def test_fixed_space_limit_is_a_fixed_projection(self, row, seed):
        spec = stochastic(row)
        assume(circulant.contraction_factor(spec) < 1.0)
        v = np.random.default_rng(seed).normal(size=spec.n)
        limit = circulant.fixed_space_limit(spec, v)
        assert np.max(np.abs(circulant.fixed_space_limit(spec, limit) - limit)) <= 1e-12
        assert math.fsum(limit) == pytest.approx(math.fsum(v), abs=1e-12)
        assert np.max(np.abs(circulant.apply(spec, limit) - limit)) <= 1e-11

    @PROPERTY
    @given(row=rows, deviation=st.floats(1e-6, 1e6), tol=st.floats(1e-12, 1e-3))
    def test_predict_iterations_closed_form(self, row, deviation, tol):
        spec = stochastic(row)
        factor = circulant.contraction_factor(spec)
        assume(0.0 < factor < 1.0 - 1e-9 and deviation > tol)
        expect = math.ceil(math.log(tol / deviation) / math.log(factor))
        assert circulant.predict_iterations(spec, deviation, tol) == expect


def plane_regularization(vertices):
    t = euclid.PlaneTriangle(vertices)
    return t, euclid.regularize(t, k=2, tol=1e-9, max_iter=200)


def sphere_regularization():
    gaps = np.random.default_rng(9).dirichlet(np.ones(9)) * 2 * math.pi
    frame = spherical.CyclicFrame(axis=spherical.unit_vector([0.3, -0.5, 0.8]), cos_radius=0.4, gaps=gaps)
    p = spherical.from_cyclic_frame(dataclasses.replace(frame, start=0.4))
    return p, spherical.regularize(p, k=3, tol=1e-9, max_iter=10**4)


def disk_regularization(n):
    bp = hyperbolic.BoundaryPoints(tuple(np.sort(np.random.default_rng(n).random(2 * n))))
    return bp, hyperbolic.regularize_hyperbolic(bp, tol=1e-9, max_iter=10**4)


def coordinates(polygon) -> np.ndarray:
    """A plane triangle, sphere polygon or disk boundary as one float array."""
    if isinstance(polygon, euclid.PlaneTriangle):
        return np.array([[z.real, z.imag] for z in polygon.vertices])
    if isinstance(polygon, hyperbolic.BoundaryPoints):
        return np.array(polygon.points)
    return polygon.vertices


# Decoding the start gaps rebuilds the input from its frame: within 3.4e-16
# on these unit-scale inputs; the bound is fixed far above that.
DECODE_TOL = 1e-9


class TestRegularization:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: plane_regularization((0, 1, 1j)),
            lambda: plane_regularization((0, 1j, 1)),
            sphere_regularization,
            lambda: disk_regularization(5),
            lambda: disk_regularization(4),
        ],
        ids=["plane-ccw", "plane-cw", "sphere", "disk-odd", "disk-even"],
    )
    def test_steps_run_from_input_to_final(self, make):
        polygon, result = make()
        steps = list(result.steps())
        assert result.converged and len(steps) == result.iterations + 1 > 1
        assert np.max(np.abs(coordinates(steps[0]) - coordinates(polygon))) <= DECODE_TOL
        assert np.array_equal(coordinates(steps[-1]), coordinates(result.final))
