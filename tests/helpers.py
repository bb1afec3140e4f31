"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals: the
Kalman oracle is the textbook closed form, the quadratic models carry
their own coefficients, and the eigenvalue oracle goes through the
characteristic polynomial instead of a symmetric eigensolver.
"""

import numpy as np


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + 0.5 * n * np.eye(n))


def random_quadratic(rng, n, d, curvature=1.0):
    """Random model h_k(x) = a_k + B_k x + x' C_k x / 2 with its derivatives.

    Returns (func, jacobian, hessians) where jacobian(x) is (d, n) and
    hessians(x) is the constant (d, n, n) stack of the C_k.
    """
    a = rng.normal(size=d)
    b = rng.normal(size=(d, n))
    c = rng.normal(size=(d, n, n)) * curvature
    c = 0.5 * (c + np.transpose(c, (0, 2, 1)))

    def func(x):
        x = np.asarray(x, dtype=float)
        return a + b @ x + 0.5 * np.einsum("kij,i,j->k", c, x, x)

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        return b + np.einsum("kij,j->ki", c, x)

    def hessians(x):
        return c

    return func, jacobian, hessians


def same_bits(got, want):
    """Equal shapes and equal float64 bits, NaN payloads and signed zeros included."""
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


def pointwise(func):
    """The (N, n) -> (N, d) map that calls a per-point ``func`` on each row."""
    return lambda xs: np.array([np.atleast_1d(func(x)) for x in xs], dtype=float)


def kalman_update(mean, cov, h_mat, noise_cov, value):
    """Textbook linear Kalman measurement update (the exactness oracle)."""
    h_mat = np.atleast_2d(h_mat)
    s = h_mat @ cov @ h_mat.T + noise_cov
    gain = cov @ h_mat.T @ np.linalg.inv(s)
    post_mean = mean + gain @ (value - h_mat @ mean)
    post_cov = cov - gain @ s @ gain.T
    return post_mean, 0.5 * (post_cov + post_cov.T)


def charpoly_eigenvalues(sym):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots.

    Avoids the symmetric eigensolver entirely so it can serve as an
    independent reference for small matrices.
    """
    sym = np.asarray(sym, dtype=float)
    n = sym.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(sym)
    for k in range(1, n + 1):
        m = sym @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(sym @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)
