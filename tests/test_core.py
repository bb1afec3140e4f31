import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from pukf import (
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    NonSymmetricInput,
    NotPositiveSemiDefinite,
    SingularInnovation,
    matrix_sqrt,
    sym_eig_ascending,
)
from pukf.core import _solve_spd, symmetrize

SRC = Path(__file__).resolve().parents[1] / "src" / "pukf"


def test_one_cholesky_routine():
    # Every Cholesky step in the package is LAPACK dpotrf/dpotrs; a second
    # spelling could factor the same matrix to other bits.
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for other in ("linalg.cholesky", "cho_factor", "cho_solve"):
            assert other not in text, f"{path.name} mentions {other}"


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("[!_]*.py")))
def test_every_exported_name_exists(module):
    # A deletion that forgets an __all__ entry breaks `from pukf.x import *`.
    mod = importlib.import_module(f"pukf.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"pukf.{module}.__all__ names missing {missing}"


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(matrix_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt(16.0 * np.eye(2)), 4.0 * np.eye(2))

    def test_reconstructs_random_spd(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(1, 9)
            a = rng.normal(size=(n, n))
            p = a @ a.T + 0.1 * np.eye(n)
            lower = matrix_sqrt(p)
            np.testing.assert_allclose(lower @ lower.T, p, atol=1e-12 * np.abs(p).max())
            assert np.allclose(np.triu(lower, 1), 0.0)
            assert np.all(np.diag(lower) >= 0.0)
            # LAPACK's factor, C-contiguous: dpotrf's Fortran order would
            # send later matmuls down another BLAS path.
            assert lower.flags.c_contiguous
            assert np.array_equal(lower, dpotrf(p, lower=1, clean=1)[0])

    def test_jitter_recovers_near_psd(self):
        # smallest eigenvalue a hair negative: jitter should absorb it
        u, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
        p = u @ np.diag([2.0, 1.0, 0.5, -1e-14]) @ u.T
        p = 0.5 * (p + p.T)
        lower = matrix_sqrt(p)
        np.testing.assert_allclose(lower @ lower.T, p, atol=1e-9)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveSemiDefinite):
            matrix_sqrt(np.diag([1.0, -1.0]))

    def test_asymmetric_raises(self):
        with pytest.raises(NonSymmetricInput):
            matrix_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSymEigAscending:
    def test_identity(self):
        u, w = sym_eig_ascending(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(u @ np.diag(w) @ u.T, np.eye(3), atol=1e-12)

    def test_hand_2x2(self):
        # [[4,-4],[-4,4]] has eigenpairs (0, (1,1)/sqrt2) and (8, (1,-1)/sqrt2)
        s = np.array([[4.0, -4.0], [-4.0, 4.0]])
        u, w = sym_eig_ascending(s)
        np.testing.assert_allclose(w, [0.0, 8.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(u, [[r, r], [r, -r]], atol=1e-12)

    def test_diagonal_sorts(self):
        u, w = sym_eig_ascending(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(u), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(1, 8)
            s = rng.normal(size=(n, n))
            s = 0.5 * (s + s.T)
            u, w = sym_eig_ascending(s)
            scale = 1.0 + np.abs(s).max()
            np.testing.assert_allclose(u @ np.diag(w) @ u.T, s, atol=1e-9 * scale)
            np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-12)
            assert np.all(np.diff(w) >= -1e-12 * scale)

    def test_sign_canonical(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = rng.normal(size=(5, 5))
            s = 0.5 * (s + s.T)
            u, _ = sym_eig_ascending(s)
            for j in range(5):
                i = np.argmax(np.abs(u[:, j]))
                assert u[i, j] > 0.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
    )
    def test_sign_flip_matches_per_column_loop(self, n, seed, integer):
        # Oracle: the per-column loop the one vectorized flip replaced.
        # Small integer matrices force ties in |u|; the first occurrence wins.
        rng = np.random.default_rng(seed)
        s = rng.integers(-2, 3, size=(n, n)) if integer else rng.normal(size=(n, n))
        s = symmetrize(s.astype(float))
        u, w = sym_eig_ascending(s)
        want_w, want = np.linalg.eigh(symmetrize(s))
        for j in range(want.shape[1]):
            i = int(np.argmax(np.abs(want[:, j])))
            if want[i, j] < 0.0:
                want[:, j] = -want[:, j]
        assert u.tobytes() == want.tobytes()
        assert w.tobytes() == want_w.tobytes()

    def test_asymmetric_raises(self):
        with pytest.raises(NonSymmetricInput):
            sym_eig_ascending(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGaussianState:
    def test_symmetrizes(self):
        st = GaussianState([0.0, 0.0], [[1.0, 1e-11], [0.0, 1.0]])
        np.testing.assert_array_equal(st.cov, st.cov.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemiDefinite):
            GaussianState([0.0], [[-1.0]])

    def test_tolerates_roundoff_negative(self):
        # eigenvalue -1e-12 relative to a unit-scale covariance is roundoff
        cov = np.diag([1.0, -1e-12])
        st = GaussianState([0.0, 0.0], cov)
        assert st.dim == 2

    def test_rejects_nonfinite_mean(self):
        with pytest.raises(ValueError):
            GaussianState([np.nan], [[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], [[1.0]])


class TestMeasurementModel:
    def test_noise_must_be_positive_definite(self):
        # Non-finite too: OpenBLAS potrf passes NaN through with info == 0.
        nan_off = [[1.0, np.nan], [np.nan, 1.0]]
        for noise in ([[0.0]], [[np.nan]], [[np.inf]], nan_off):
            with pytest.raises(NotPositiveSemiDefinite):
                MeasurementModel(func=lambda x: x, value=np.zeros(len(noise)), noise_cov=noise)

    def test_sqrt_noise_is_the_matrix_sqrt(self):
        rng = np.random.default_rng(5)
        for d in range(1, 7):
            a = rng.normal(size=(d, d))
            noise = a @ a.T + 0.1 * np.eye(d)
            m = MeasurementModel(func=lambda x: x, value=np.zeros(d), noise_cov=noise)
            assert np.array_equal(m.sqrt_noise, matrix_sqrt(m.noise_cov))
        with pytest.raises(TypeError):
            MeasurementModel(
                func=lambda x: x, value=[0.0], noise_cov=[[1.0]], sqrt_noise=[[1.0]]
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MeasurementModel(func=lambda x: x, value=[0.0, 1.0], noise_cov=[[1.0]])

    def test_holds_fields(self):
        m = MeasurementModel(func=lambda x: 2 * x, value=[1.0], noise_cov=[[4.0]])
        assert m.dim == 1
        np.testing.assert_array_equal(m.value, [1.0])

    def test_evaluate_rejects_a_wrong_shape(self):
        xs = np.arange(8.0).reshape(4, 2)
        fields = dict(value=[0.0, 0.0], noise_cov=np.eye(2))
        model = MeasurementModel(func=lambda xs: xs[:, ::-1], **fields)
        np.testing.assert_array_equal(model.evaluate(xs), xs[:, ::-1])
        for func in (
            lambda xs: np.zeros((4, 3)),
            lambda xs: np.zeros((4, 1)),
            lambda xs: np.zeros(4),
            # a per-point map: on (4, 2) states it returns (2, 2)
            lambda x: np.array([x[0] * x[1], x[0] - x[1]]),
        ):
            with pytest.raises(ValueError, match="shape"):
                MeasurementModel(func=func, **fields).evaluate(xs)


class TestLinearStateModel:
    def test_psd_noise_accepted(self):
        lsm = LinearStateModel(np.eye(2), np.zeros((2, 2)))
        assert lsm.dim == 2

    def test_indefinite_noise_rejected(self):
        with pytest.raises(NotPositiveSemiDefinite):
            LinearStateModel(np.eye(2), np.diag([1.0, -1.0]))


class TestSolveSpd:
    def test_solves_within_the_condition_limit(self):
        s = np.diag([1.0, 1e-11])
        np.testing.assert_allclose(_solve_spd(s, np.ones(2)), [1.0, 1e11])

    def test_non_finite_rejected(self):
        with pytest.raises(SingularInnovation, match="non-finite"):
            _solve_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
        with pytest.raises(SingularInnovation, match="non-finite"):
            _solve_spd(np.diag([np.inf, 1.0]), np.ones(2))

    def test_ill_conditioned_rejected(self):
        with pytest.raises(SingularInnovation, match="condition"):
            _solve_spd(np.diag([1.0, 1e-13]), np.ones(2))
        with pytest.raises(SingularInnovation, match="condition"):
            _solve_spd(np.ones((2, 2)), np.ones(2))  # exactly singular
