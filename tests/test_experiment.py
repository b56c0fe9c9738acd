import numpy as np
import pytest

from polyreg import experiment, spherical
from polyreg.experiment import ExperimentConfig, random_spherical_triangle, run_table1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(1,), trials=10, tol=0.005, cap=20, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(2.5,), trials=10, tol=0.005, cap=20, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(2,), trials=0, tol=0.005, cap=20, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(2,), trials=10, tol=-1.0, cap=20, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(2,), trials=10, tol=0.005, cap=0, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(2,), trials=10, tol=0.005, cap=20, seed=-1)

    @pytest.mark.parametrize("field", ["seed", "trials", "cap"])
    def test_non_integral_count_rejected(self, field):
        fields = dict(k_values=(2,), trials=10, tol=0.005, cap=20, seed=1)
        fields[field] += 0.5
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)


class TestRandomTriangle:
    def test_deterministic_for_fixed_seed(self):
        a = random_spherical_triangle(experiment.trial_generator(42, 2, 0))
        b = random_spherical_triangle(experiment.trial_generator(42, 2, 0))
        assert np.array_equal(a.vertices, b.vertices)
        c = random_spherical_triangle(experiment.trial_generator(43, 2, 0))
        assert not np.array_equal(a.vertices, c.vertices)

    def test_vertices_are_unit_and_nondegenerate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tri = random_spherical_triangle(rng)
            assert np.allclose(np.linalg.norm(tri.vertices, axis=1), 1.0, atol=1e-12)
            spherical.to_cyclic_frame(tri)  # must not raise

    def test_sphere_sampler_is_balanced(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate(
            [random_spherical_triangle(rng).vertices for _ in range(3334)]
        )
        assert np.linalg.norm(pts.mean(axis=0)) < 0.05

    def test_cube_sampler_is_octant_biased(self):
        rng = np.random.default_rng(2)
        pts = np.concatenate(
            [random_spherical_triangle(rng, sampler="cube").vertices for _ in range(50)]
        )
        assert np.all(pts >= 0.0)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            random_spherical_triangle(np.random.default_rng(0), sampler="torus")


class TestRunTable1:
    def test_rows_sorted_and_shaped(self):
        config = ExperimentConfig(k_values=(3, 2), trials=5, tol=0.005, cap=20, seed=9)
        rows = run_table1(config)
        assert [r.k for r in rows] == [2, 3]
        for row in rows:
            assert row.trials == 5
            assert 0.0 <= row.capped_fraction <= 1.0
            assert row.mean_iterations <= config.cap

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(k_values=(2,), trials=8, tol=0.005, cap=20, seed=123)
        assert run_table1(config) == run_table1(config)

    def test_trials_independent_of_batch(self):
        # trial i draws from its own (seed, k, i) stream, so adding trials
        # cannot change earlier outcomes
        small = ExperimentConfig(k_values=(2,), trials=4, tol=0.005, cap=20, seed=5)
        large = ExperimentConfig(k_values=(2,), trials=8, tol=0.005, cap=20, seed=5)
        mean_small = run_table1(small)[0].mean_iterations
        counts = []
        for trial in range(8):
            rng = experiment.trial_generator(5, 2, trial)
            tri = random_spherical_triangle(rng)
            res = spherical.regularize(tri, k=2, tol=0.005, max_iter=20)
            counts.append(res.iterations if res.converged else 20)
        assert mean_small == pytest.approx(sum(counts[:4]) / 4)
        assert run_table1(large)[0].mean_iterations == pytest.approx(sum(counts) / 8)

    def test_regular_inputs_need_zero_iterations(self):
        # degenerate-free hook: feed regularize directly with regular input
        theta = 0.8
        axis = np.array([0.0, 0.0, 1.0])
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        pts = [
            np.cos(theta) * axis
            + np.sin(theta) * (np.cos(a) * e1 + np.sin(a) * e2)
            for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        ]
        poly = spherical.SphericalPolygon(np.array(pts))
        result = spherical.regularize(poly, k=2, tol=0.005, max_iter=20)
        assert result.converged and result.iterations == 0

    def test_one_frame_per_draw(self, monkeypatch):
        # the draw's validating frame is the one regularize runs on
        calls = []
        to_cyclic_frame = spherical.to_cyclic_frame

        def counted(p):
            calls.append(p)
            return to_cyclic_frame(p)

        monkeypatch.setattr(spherical, "to_cyclic_frame", counted)
        config = ExperimentConfig(k_values=(2, 3), trials=5, tol=0.005, cap=20, seed=31)
        rows = run_table1(config)
        assert len(calls) == 10
        monkeypatch.undo()
        assert rows == run_table1(config)

    def test_larger_k_converges_slower(self):
        config = ExperimentConfig(k_values=(2, 5), trials=60, tol=0.005, cap=20, seed=77)
        rows = run_table1(config)
        assert rows[1].mean_iterations > rows[0].mean_iterations


class _ScriptedGenerator:
    """Stands in for a Generator: standard_normal returns the scripted draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        draw = np.array(self.draws.pop(0), dtype=float)
        assert draw.shape == shape
        return draw


def test_degenerate_draws_are_redrawn():
    near_zero = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    repeated = [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]  # adjacent equal after normalizing
    good = [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    rng = _ScriptedGenerator(near_zero, repeated, good)
    tri = random_spherical_triangle(rng)
    assert rng.draws == []
    assert np.array_equal(tri.vertices, np.eye(3))
