import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pukf import (
    GaussianState,
    MeasurementModel,
    NonFiniteEvaluation,
    SingularNoiseSqrt,
    decorrelate,
    linearize,
    matrix_sqrt,
    nonlinearity,
    transform_model,
)

from helpers import charpoly_eigenvalues, pointwise, random_quadratic, random_spd

SQRT2 = np.sqrt(2.0)


def example_linearization():
    func = lambda x: np.array([x[0] ** 2 - 2 * x[0] - 4, -x[0] ** 2 + 1.5])
    prior = GaussianState([1.0], [[1.0]])
    return func, prior, linearize(pointwise(func), prior.mean, matrix_sqrt(prior.cov))


class TestNonlinearity:
    def test_zero_for_linear(self):
        assert nonlinearity(np.zeros((3, 3)), random_spd(np.random.default_rng(0), 3)) == 0.0

    def test_worked_example_total(self):
        _, _, lin = example_linearization()
        assert nonlinearity(lin.Xi, np.eye(2)) == pytest.approx(8.0, abs=1e-12)
        # per-element values with identity noise are the diagonal
        np.testing.assert_allclose(np.diag(lin.Xi), [4.0, 4.0], atol=1e-12)

    def test_scalar_after_partial_update(self):
        # P = 1/3, Hessian 2*sqrt2, unit noise: Xi = (tr(P H))^2 = 8/9
        p = 1.0 / 3.0
        hess = 2.0 * SQRT2
        xi_mat = np.array([[(p * hess) ** 2]])
        assert nonlinearity(xi_mat, np.eye(1)) == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_invariant_under_mixing(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            xi_mat = random_spd(rng, d)
            noise = random_spd(rng, d)
            mix = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            direct = nonlinearity(xi_mat, noise)
            mixed = nonlinearity(mix @ xi_mat @ mix.T, mix @ noise @ mix.T)
            assert mixed == pytest.approx(direct, rel=1e-8)


class TestDecorrelate:
    def test_worked_example_transform(self):
        _, _, lin = example_linearization()
        dec = decorrelate(lin.Xi, matrix_sqrt(np.eye(2)), threshold=1.0)
        r = 1.0 / SQRT2
        np.testing.assert_allclose(dec.D, [[r, r], [r, -r]], atol=1e-12)
        np.testing.assert_allclose(dec.lambdas, [0.0, 8.0], atol=1e-12)
        assert dec.split_k == 1

    def test_linear_model_splits_everything(self):
        rng = np.random.default_rng(5)
        noise = random_spd(rng, 3)
        dec = decorrelate(np.zeros((3, 3)), matrix_sqrt(noise), threshold=0.0)
        np.testing.assert_allclose(dec.lambdas, 0.0, atol=1e-12)
        assert dec.split_k == 3
        np.testing.assert_allclose(dec.D @ noise @ dec.D.T, np.eye(3), atol=1e-10)

    def test_whitens_noise_and_diagonalizes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            xi_mat = random_spd(rng, d)
            noise = random_spd(rng, d)
            dec = decorrelate(xi_mat, matrix_sqrt(noise), threshold=1.0)
            np.testing.assert_allclose(dec.D @ noise @ dec.D.T, np.eye(d), atol=1e-9)
            transformed = dec.D @ xi_mat @ dec.D.T
            np.testing.assert_allclose(
                transformed, np.diag(dec.lambdas), atol=1e-8 * (1 + dec.lambdas.max())
            )
            assert np.all(np.diff(dec.lambdas) >= 0.0)
            assert np.all(dec.lambdas >= 0.0)

    def test_spectrum_matches_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            xi_mat = random_spd(rng, 4)
            dec = decorrelate(xi_mat, None, threshold=-np.inf)
            assert dec.split_k == 1
            expected = charpoly_eigenvalues(xi_mat)
            np.testing.assert_allclose(
                dec.lambdas, expected, rtol=1e-6, atol=1e-8 * expected.max()
            )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_conservation_of_total_nonlinearity(self, d, seed):
        # tr(inv(R) Xi) is what decorrelate spreads over its eigenvalues,
        # and it does not depend on how the measurement is mixed
        rng = np.random.default_rng(seed)
        xi_mat = random_spd(rng, d)
        noise = random_spd(rng, d)
        dec = decorrelate(xi_mat, matrix_sqrt(noise), threshold=1.0)
        total = nonlinearity(xi_mat, noise)
        assert dec.lambdas.sum() == pytest.approx(total, rel=1e-8)
        mix = rng.normal(size=(d, d))
        while np.linalg.cond(mix) > 1e2:
            mix = rng.normal(size=(d, d))
        mixed = nonlinearity(mix @ xi_mat @ mix.T, mix @ noise @ mix.T)
        assert mixed == pytest.approx(total, rel=1e-8)

    def test_threshold_extremes(self):
        rng = np.random.default_rng(17)
        xi_mat = random_spd(rng, 5)
        noise = matrix_sqrt(random_spd(rng, 5))
        assert decorrelate(xi_mat, noise, -np.inf).split_k == 1
        assert decorrelate(xi_mat, noise, np.inf).split_k == 5

    def test_first_eigenvalue_minimizes_leading_nonlinearity(self):
        # For any orthonormal V, (V L V')_11 >= L_11 when L is ascending:
        # the decorrelated ordering puts the least nonlinear element first.
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            lam = np.sort(rng.uniform(0.0, 5.0, size=d))
            v, _ = np.linalg.qr(rng.normal(size=(d, d)))
            rotated = v @ np.diag(lam) @ v.T
            assert rotated[0, 0] >= lam[0] - 1e-10

    def test_singular_noise_sqrt_rejected(self):
        for diagonal in ([1.0, 0.0], [1.0, 1e-13], [np.nan, 1.0]):  # a NaN ratio too
            with pytest.raises(SingularNoiseSqrt):
                decorrelate(np.eye(2), np.diag(diagonal), 1.0)

    def test_a_non_finite_whitened_matrix_is_a_numerical_failure(self):
        # The same class with and without whitening, where whitening a finite
        # Xi by a tiny noise overflows, and where the noise factor itself is
        # not finite: the whitened matrix is where decorrelate checks it.
        for xi_mat, sqrt_noise in (
            (np.diag([np.nan, 1.0]), None),
            (np.diag([np.inf, 1.0]), np.eye(2)),
            (np.diag([1e300, 1.0]), 1e-10 * np.eye(2)),
            (np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]])),
            (np.eye(2), np.array([[1.0, 0.0], [np.nan, 1.0]])),
            (np.zeros((2, 2)), np.array([[1.0, 0.0], [np.inf, 1.0]])),  # as 0 * inf
        ):
            with pytest.raises(NonFiniteEvaluation):
                decorrelate(xi_mat, sqrt_noise, 1.0)


class TestTransformModel:
    def test_identity_transform_is_noop(self):
        func, _, _ = example_linearization()
        model = MeasurementModel(
            func=pointwise(func), value=[1.0, 2.0], noise_cov=np.eye(2)
        )
        same = transform_model(model, np.eye(2))
        xs = np.array([[0.3], [-1.2]])
        np.testing.assert_allclose(same.func(xs), model.func(xs))
        np.testing.assert_allclose(same.value, model.value)
        np.testing.assert_allclose(same.noise_cov, model.noise_cov)

    def test_worked_example_rows(self):
        # Mixing the example by its decorrelating D gives
        #   sqrt2 (-x - 5/4)        (exactly linear)
        #   sqrt2 (x^2 - x - 11/4)  (all the curvature)
        func, prior, lin = example_linearization()
        dec = decorrelate(lin.Xi, matrix_sqrt(np.eye(2)), threshold=1.0)
        model = MeasurementModel(
            func=pointwise(func), value=[1.0, -1.0], noise_cov=np.eye(2)
        )
        mixed = transform_model(model, dec.D)
        x = np.array([-1.0, 0.5, 2.0])
        want = np.stack([SQRT2 * (-x - 1.25), SQRT2 * (x**2 - x - 2.75)], axis=1)
        np.testing.assert_allclose(mixed.func(x[:, None]), want, atol=1e-10)
        np.testing.assert_allclose(mixed.noise_cov, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(mixed.value, dec.D @ [1.0, -1.0])

    def test_row_subset(self):
        rng = np.random.default_rng(23)
        func, _, _ = random_quadratic(rng, 2, 3)
        model = MeasurementModel(
            func=pointwise(func), value=rng.normal(size=3), noise_cov=random_spd(rng, 3)
        )
        rows = rng.normal(size=(2, 3))
        mixed = transform_model(model, rows)
        assert mixed.dim == 2
        np.testing.assert_allclose(mixed.value, rows @ model.value, atol=1e-12)
        np.testing.assert_allclose(
            mixed.noise_cov, rows @ model.noise_cov @ rows.T, atol=1e-12
        )
