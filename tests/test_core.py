import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dsyevd, dsyevr

from pukf import (
    EigenSolverFailure,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    NonFiniteEvaluation,
    NonSymmetricInput,
    NotPositiveSemiDefinite,
    NumericalFailure,
    SingularInnovation,
    matrix_sqrt,
    nonlinearity,
    sym_eig_ascending,
)
from pukf.core import PSD_SLACK, _solve_spd, _sym_eig, symmetrize

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

    def test_near_psd_gets_the_eigen_square_root(self):
        # smallest eigenvalue a hair negative, inside the PSD slack: where
        # dpotrf fails, the root is sample_gaussian's u sqrt|w|
        u, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
        p = u @ np.diag([2.0, 1.0, 0.5, -1e-14]) @ u.T
        p = 0.5 * (p + p.T)
        root = matrix_sqrt(p)
        np.testing.assert_allclose(root @ root.T, p, atol=1e-9)
        w, v = np.linalg.eigh(p)
        assert np.array_equal(root, v * np.sqrt(abs(w)))

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
        # A numerical failure, as a non-finite covariance is: an overflowing
        # posterior mean books a divergence
        for mean in (np.nan, np.inf):
            with pytest.raises(NonFiniteEvaluation, match="mean"):
                GaussianState([mean], [[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], [[1.0]])

    def test_the_kept_factor_is_derived(self):
        # Derived from cov and never passed in, as MeasurementModel.sqrt_noise
        state = GaussianState([0.0, 0.0], [[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_array_equal(state.sqrt_cov, [[2.0, 0.0], [1.0, 2.0]])
        with pytest.raises(TypeError):
            GaussianState([0.0], [[1.0]], _cholesky=np.eye(1))
        # PSD but singular: no factor validated it, so sqrt_cov is the eigen root
        singular = GaussianState([0.0, 0.0], np.ones((2, 2)))
        assert np.array_equal(singular.sqrt_cov, matrix_sqrt(singular.cov))
        np.testing.assert_allclose(singular.sqrt_cov @ singular.sqrt_cov.T, np.ones((2, 2)))


class TestMeasurementModel:
    def test_noise_must_be_positive_definite(self):
        # Non-finite too: OpenBLAS potrf passes NaN through with info == 0.
        # nonlinearity judges its noise by the same rule.
        nan_off = [[1.0, np.nan], [np.nan, 1.0]]
        for noise in ([[0.0]], [[np.nan]], [[np.inf]], nan_off):
            with pytest.raises(NotPositiveSemiDefinite):
                MeasurementModel(func=lambda x: x, value=np.zeros(len(noise)), noise_cov=noise)
            with pytest.raises(NotPositiveSemiDefinite):
                nonlinearity(np.zeros((len(noise), len(noise))), noise)

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


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianState(np.zeros(0), np.zeros((0, 0))),
        lambda: LinearStateModel(np.zeros((0, 0)), np.zeros((0, 0))),
        lambda: matrix_sqrt(np.zeros((0, 0))),
        lambda: MeasurementModel(lambda xs: xs, np.zeros(0), np.zeros((0, 0))),
        lambda: nonlinearity(np.zeros((0, 0)), np.zeros((0, 0))),
    ],
    ids=["GaussianState", "LinearStateModel", "matrix_sqrt", "MeasurementModel",
         "nonlinearity"],
)
def test_zero_dimensional_inputs_are_value_errors(build):
    # LAPACK factors a 0 x 0 matrix with info 0, so only a shape check can
    # reject it; the message names the shape.
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        build()


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def symmetric_case(rng, d, kind, log_scale):
    """A symmetric d x d matrix of one kind, scaled by 10**log_scale."""
    if kind == "integer":  # small integers force ties in values and vectors
        a = symmetrize(rng.integers(-2, 3, size=(d, d)).astype(float))
    elif kind == "diagonal":
        a = np.diag(rng.normal(size=d))
    elif kind == "zero":
        a = np.zeros((d, d))
    elif kind == "repeated":
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        a = symmetrize(q @ np.diag(rng.choice([-1.0, 2.0], size=d)) @ q.T)
    else:
        a = symmetrize(rng.normal(size=(d, d)))
    return a * 10.0**log_scale


class TestLapackEigensolvers:
    """Kernel facts the package relies on: one direct LAPACK call gives the
    bits of the library eigensolver it replaced.  A BLAS or LAPACK change
    that breaks one fails here rather than in a report digest."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        d=st.integers(1, 6),
        kind=st.sampled_from(["random", "integer", "diagonal", "zero", "repeated"]),
        log_scale=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_the_library_calls(self, d, kind, log_scale, seed):
        a = symmetric_case(np.random.default_rng(seed), d, kind, log_scale)
        w, u = _sym_eig(dsyevd, a, True)
        want_w, want_u = np.linalg.eigh(a)
        assert bits(w).tolist() == bits(want_w).tolist()
        assert bits(u).tolist() == bits(want_u).tolist()
        assert bits(_sym_eig(dsyevd, a, False)[0]).tolist() == bits(np.linalg.eigvalsh(a)).tolist()
        w, u = _sym_eig(dsyevr, a, True)
        want_w, want_u = scipy.linalg.eigh(a, lower=True)
        assert bits(w).tolist() == bits(want_w).tolist()
        assert bits(u).tolist() == bits(want_u).tolist()
        # numpy's layout, which later matmuls depend on
        assert sym_eig_ascending(a)[0].flags.c_contiguous

    def test_a_failed_call_is_an_eigen_solver_failure(self):
        # dsyevd does not converge on NaN input; a campaign books that as a divergence
        with pytest.raises(EigenSolverFailure, match="LAPACK info") as failure:
            _sym_eig(dsyevd, np.full((3, 3), np.nan), True)
        assert isinstance(failure.value, NumericalFailure)


def eigenvalue_rule(cov):
    """The PSD check before the factor was tried first: the oracle."""
    cov = symmetrize(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise NotPositiveSemiDefinite("non-finite")
    w = np.linalg.eigvalsh(cov)
    if w[0] < -PSD_SLACK * max(w[-1], 0.0):
        raise NotPositiveSemiDefinite("below the slack")


def outcome(call, *args):
    try:
        call(*args)
    except Exception as exc:  # the class is the outcome being compared
        return type(exc)
    return None


def check_accepted_covariance(cov):
    """A covariance the rule accepts gives a finite sqrt_cov, matrix_sqrt's bits,
    with L L' within the rule's slack: u sqrt|w| moves each eigenvalue below
    zero, at least -PSD_SLACK times the largest, by twice its size."""
    state = GaussianState(np.zeros(len(cov)), cov)
    root = state.sqrt_cov
    assert np.isfinite(root).all() and root.flags.c_contiguous
    assert bits(root).tolist() == bits(matrix_sqrt(state.cov)).tolist()
    top = max(np.linalg.eigvalsh(state.cov)[-1], 0.0)
    assert np.abs(root @ root.T - state.cov).max() <= (2 * PSD_SLACK + 1e-13) * top


def test_a_covariance_inside_the_slack_has_a_square_root():
    # dpotrf fails on it and the eigenvalue rule accepts it
    cov = np.diag([1.0, 0.0, -5e-10])
    assert dpotrf(cov, lower=1)[1] != 0
    check_accepted_covariance(cov)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    d=st.integers(1, 6),
    kind=st.sampled_from(["definite", "near_singular", "singular", "indefinite", "non_finite"]),
    log_scale=st.integers(-100, 100),
    log_gap=st.floats(-18.0, -6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_factor_first_check_decides_as_the_eigenvalue_rule(
    d, kind, log_scale, log_gap, seed
):
    # Indefinite matrices have lambda_min from -1e-18 to -1e-6 times lambda_max,
    # on both sides of the 1e-9 slack; singular ones have exact zero
    # eigenvalues that roundoff leaves a hair either side of zero.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    w = rng.uniform(0.1, 1.0, size=d)
    w[0] = 1.0
    if kind == "near_singular":
        w[-1] = 10.0**log_gap
    elif kind == "singular":
        w[rng.random(d) < 0.5] = 0.0
    elif kind == "indefinite":
        w[-1] = -(10.0**log_gap)
    cov = (q * w) @ q.T * 10.0**log_scale
    if kind == "non_finite":
        cov[rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
    want = outcome(eigenvalue_rule, cov)
    assert outcome(GaussianState, np.zeros(d), cov) is want
    assert outcome(LinearStateModel, np.eye(d), cov) is want
    if want is None:
        check_accepted_covariance(cov)
