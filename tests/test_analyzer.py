import math

import numpy as np
import pytest

from polyreg import analyzer, circulant
from polyreg.analyzer import LinearAngleTransform, classify


def ngon_spec(n, k):
    coeffs = [0.0] * n
    coeffs[0] = (k - 1) / k
    coeffs[1] = 1 / k
    return circulant.CirculantSpec(tuple(coeffs))


def similarity_with_sum_zero_basis(eigenvalues):
    """Matrix with eigenvector (1,1,1) for eigenvalue 1 and sum-zero
    eigenvectors for the rest, so the complement restriction is exact."""
    basis = np.column_stack([np.ones(3), [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    diag = np.diag([1.0] + list(eigenvalues))
    return basis @ diag @ np.linalg.inv(basis)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LinearAngleTransform(np.ones((2, 3)))

    def test_rejects_nan(self):
        mat = np.eye(3)
        mat[0, 0] = math.nan
        with pytest.raises(ValueError):
            LinearAngleTransform(mat)


class TestClassify:
    def test_half_rotation_matrix(self):
        spec = circulant.CirculantSpec((0.5, 0.5, 0.0))
        report = classify(LinearAngleTransform(spec.as_matrix()))
        assert report.preserves_sum and report.fixes_regular and report.attracting
        assert report.jordan_class == "complex-rotation"
        a, phi = report.rotation_params
        assert a == pytest.approx(0.5, abs=1e-12)
        assert phi == pytest.approx(math.pi / 3, abs=1e-12)

    def test_identity_non_contracting(self):
        report = classify(LinearAngleTransform(np.eye(3)))
        assert report.jordan_class == "non-contracting"
        assert not report.attracting
        assert report.rotation_params is None

    def test_similarity_real_diagonal(self):
        mat = similarity_with_sum_zero_basis([0.5, 0.3])
        report = classify(LinearAngleTransform(mat))
        assert report.jordan_class == "real-diagonal"
        assert report.attracting
        assert report.fixes_regular

    def test_zero_eigenvalue_excluded(self):
        mat = similarity_with_sum_zero_basis([0.5, 0.0])
        report = classify(LinearAngleTransform(mat))
        assert report.jordan_class == "non-contracting"

    def test_jordan_block_detected(self):
        basis = np.column_stack([np.ones(3), [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
        block = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
        mat = basis @ block @ np.linalg.inv(basis)
        report = classify(LinearAngleTransform(mat))
        assert report.jordan_class == "jordan-block"

    def test_scaled_identity_complement_is_diagonal(self):
        mat = similarity_with_sum_zero_basis([0.4, 0.4])
        report = classify(LinearAngleTransform(mat))
        assert report.jordan_class == "real-diagonal"

    def test_rotation_params_only_for_rotations(self):
        cases = [
            similarity_with_sum_zero_basis([0.5, 0.3]),
            np.eye(3),
            circulant.CirculantSpec((0.5, 0.5, 0.0)).as_matrix(),
        ]
        for mat in cases:
            report = classify(LinearAngleTransform(mat))
            assert (report.rotation_params is not None) == (
                report.jordan_class == "complex-rotation"
            )

    def test_structure_lists_all_blocks(self):
        spec = ngon_spec(5, 3)
        report = classify(LinearAngleTransform(spec.as_matrix()))
        assert len(report.structure) == 2  # two conjugate pairs
        assert all(part.startswith("rotation(") for part in report.structure)
        assert report.jordan_class == "mixed"

    def test_similarity_invariance_of_class(self):
        rng = np.random.default_rng(3)
        base = similarity_with_sum_zero_basis([0.6, 0.2])
        for _ in range(10):
            # conjugate by a sum-preserving change of basis: ones stays,
            # the complement basis is re-mixed
            mix = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
            basis = np.column_stack(
                [np.ones(3), np.column_stack([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) @ mix]
            )
            diag = np.diag([1.0, 0.6, 0.2])
            mat = basis @ diag @ np.linalg.inv(basis)
            report = classify(LinearAngleTransform(mat))
            assert report.jordan_class == classify(LinearAngleTransform(base)).jordan_class


class TestAgreementWithEngine:
    def test_circulant_family(self):
        for n in (3, 4, 5, 8):
            for k in (2, 3, 5):
                spec = ngon_spec(n, k)
                report = classify(LinearAngleTransform(spec.as_matrix()))
                assert report.preserves_sum
                assert report.fixes_regular
                assert report.attracting == (circulant.contraction_factor(spec) < 1.0)

    def test_pure_shift_not_attracting(self):
        spec = circulant.CirculantSpec((0.0, 1.0, 0.0))
        report = classify(LinearAngleTransform(spec.as_matrix()))
        assert not report.attracting
        assert report.jordan_class == "non-contracting"


class TestSumPreservation:
    def test_row_stochastic_is_not_sum_preserving(self):
        # rows sum to 1, so A fixes the regular vector; the columns do not,
        # so the sum of A @ (1, 2, 3) is 4.9, not 6
        a = np.array([[0.5, 0.5, 0.0], [0.9, 0.1, 0.0], [0.2, 0.3, 0.5]])
        assert math.fsum(a @ [1.0, 2.0, 3.0]) == pytest.approx(4.9, abs=1e-12)
        report = classify(LinearAngleTransform(a))
        assert not report.preserves_sum
        assert report.fixes_regular
