"""Release acceptance gate: eight blocking guarantees, one test each.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
guarantee plus a ``[acceptance]`` summary line with the measured numbers.
The two Monte Carlo campaign tests carry the ``campaign`` marker and take a
few minutes; deselect them with ``-m "not campaign"`` for a quick gate.

Each test also enforces its wall-clock budget, so a performance regression
fails the gate just like a numerical one.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from pukf import (
    AnalyticMeasurementModel,
    CampaignConfig,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    ParticleCloud,
    bootstrap_pf_step,
    decorrelate,
    ekf2_update_analytic,
    ekf2_update_numerical,
    linearize,
    matrix_sqrt,
    nonlinearity,
    pukf_update,
    run_campaign,
    sample_gaussian,
    sym_eig_ascending,
    transform_model,
)


def _ok(label: str, elapsed: float, detail: str) -> None:
    print(f"\n[acceptance] {label}: PASS ({elapsed:.2f}s) {detail}")


def _random_quadratic(rng: np.random.Generator, n: int, d: int):
    """A random quadratic measurement model with analytic derivatives."""
    offset = rng.normal(size=d)
    jac0 = rng.normal(size=(d, n))
    hess = rng.normal(size=(d, n, n))
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))

    def func(xs, _o=offset, _j=jac0, _h=hess):
        xs = np.asarray(xs, dtype=float)
        return _o + xs @ _j.T + 0.5 * np.einsum("rab,na,nb->nr", _h, xs, xs)

    def jacobian(x, _j=jac0, _h=hess):
        return _j + np.einsum("rab,b->ra", _h, np.asarray(x, dtype=float))

    def hessians(x, _h=hess):
        return _h

    a = rng.normal(size=(d, d))
    noise = a @ a.T + d * np.eye(d)
    g = rng.normal(size=(n, n))
    prior = GaussianState(rng.normal(size=n), g @ g.T + 0.5 * np.eye(n))
    value = func(prior.mean[None])[0] + rng.normal(size=d)
    model = AnalyticMeasurementModel(
        func=func,
        value=value,
        noise_cov=noise,
        jacobian=jacobian,
        hessians=hessians,
    )
    return prior, model


def _random_linear(rng: np.random.Generator, n: int, d: int):
    H = rng.normal(size=(d, n))
    b = rng.normal(size=d)
    a = rng.normal(size=(d, d))
    noise = a @ a.T + 0.5 * np.eye(d)
    g = rng.normal(size=(n, n))
    prior = GaussianState(rng.normal(size=n), g @ g.T + 0.5 * np.eye(n))
    value = H @ prior.mean + b + rng.normal(size=d)
    model = MeasurementModel(
        func=lambda xs, _H=H, _b=b: np.asarray(xs, dtype=float) @ _H.T + _b,
        value=value,
        noise_cov=noise,
    )
    return prior, model, H, b


def _kalman_update(prior, H, b, value, noise_cov):
    """Exact linear-Gaussian measurement update."""
    S = H @ prior.cov @ H.T + noise_cov
    K = prior.cov @ H.T @ np.linalg.inv(S)
    mean = prior.mean + K @ (value - (H @ prior.mean + b))
    cov = prior.cov - K @ S @ K.T
    return GaussianState(mean, 0.5 * (cov + cov.T))


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = 1.0 + float(np.abs(want).max())
    return float(np.abs(got - want).max()) / scale


def test_01_worked_example_goldens():
    """Scalar prior, two quadratic measurement rows: every intermediate of
    one partitioned update matches its hand-derived value to 1e-8."""
    t0 = time.perf_counter()
    prior = GaussianState(np.array([1.0]), np.array([[1.0]]))

    def func(xs):
        x = np.asarray(xs, dtype=float)[:, :1]
        return np.hstack([x**2 - 2.0 * x - 4.0, -(x**2) + 1.5])

    model = MeasurementModel(func=func, value=np.zeros(2), noise_cov=np.eye(2))

    # Per-element and total nonlinearity at the prior.
    lin = linearize(model.evaluate, prior.mean, matrix_sqrt(prior.cov))
    per_element = np.diag(np.linalg.solve(model.noise_cov, lin.Xi))
    np.testing.assert_allclose(per_element, [4.0, 4.0], atol=1e-8)
    total = nonlinearity(lin.Xi, model.noise_cov)
    np.testing.assert_allclose(total, 8.0, atol=1e-8)

    # Decorrelation: equal-weight sum/difference rows, spectrum (0, 8).
    dec = decorrelate(lin.Xi, matrix_sqrt(model.noise_cov), threshold=1.0)
    np.testing.assert_allclose(
        np.abs(dec.D), np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-8
    )
    np.testing.assert_allclose(dec.lambdas, [0.0, 8.0], atol=1e-8)
    assert dec.split_k == 1

    # Partitioned update: the linear combination is consumed first and
    # yields the exact conditional; the remaining element's nonlinearity
    # drops from 8 to 8/9.
    post, trace = pukf_update(prior, model, threshold=1.0)
    assert len(trace.rounds) == 2
    first, second = trace.rounds
    np.testing.assert_allclose(first.lambdas, [0.0, 8.0], atol=1e-8)
    assert first.split_k == 1
    np.testing.assert_allclose(first.mean, [-0.5], atol=1e-8)
    np.testing.assert_allclose(first.cov, [[1.0 / 3.0]], atol=1e-8)
    np.testing.assert_allclose(second.lambdas[-1], 8.0 / 9.0, atol=1e-8)
    np.testing.assert_allclose(post.mean, second.mean, atol=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(
        "01 worked-example goldens",
        elapsed,
        "lambdas=(0,8) split=1 intermediate=N(-1/2,1/3) residual=8/9",
    )


def test_02_second_order_posteriors_invariant_under_mixing():
    """Mixing the measurement by any invertible matrix must not change the
    posterior of either second-order update (analytic or probe-based):
    500 random quadratic models, relative tolerance 1e-7."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025_02)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        prior, model = _random_quadratic(rng, n, d)
        while True:
            D = rng.normal(size=(d, d))
            if np.linalg.cond(D) < 1e3:
                break

        mixed_noise = D @ model.noise_cov @ D.T
        mixed_noise = 0.5 * (mixed_noise + mixed_noise.T)
        func, jac, hes = model.func, model.jacobian, model.hessians
        mixed_analytic = AnalyticMeasurementModel(
            func=lambda xs, _D=D, _f=func: _f(xs) @ _D.T,
            value=D @ model.value,
            noise_cov=mixed_noise,
            jacobian=lambda x, _D=D, _j=jac: _D @ _j(x),
            hessians=lambda x, _D=D, _h=hes: np.einsum("ij,jab->iab", _D, _h(x)),
        )
        base_a = ekf2_update_analytic(prior, model)
        mixed_a = ekf2_update_analytic(prior, mixed_analytic)
        worst = max(worst, _rel_err(mixed_a.mean, base_a.mean))
        worst = max(worst, _rel_err(mixed_a.cov, base_a.cov))

        mixed_num = transform_model(model, D)
        mixed_num = MeasurementModel(
            func=mixed_num.func,
            value=mixed_num.value,
            noise_cov=0.5 * (mixed_num.noise_cov + mixed_num.noise_cov.T),
        )
        base_n = ekf2_update_numerical(prior, model)
        mixed_n = ekf2_update_numerical(prior, mixed_num)
        worst = max(worst, _rel_err(mixed_n.mean, base_n.mean))
        worst = max(worst, _rel_err(mixed_n.cov, base_n.cov))

    assert worst < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(
        "02 posterior invariance under invertible mixing",
        elapsed,
        f"500 models, worst relative deviation {worst:.2e} < 1e-7",
    )


def test_03_smallest_eigenvalue_is_floor_of_diagonal():
    """No orthonormal recombination can push a diagonal entry below the
    smallest eigenvalue: 1000 random PSD matrices."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025_03)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        Xi = a @ a.T
        _, lambdas = sym_eig_ascending(Xi)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        recombined = q @ np.diag(lambdas) @ q.T
        margin = recombined[0, 0] - lambdas[0]
        worst = min(worst, margin)
        assert margin >= -1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(
        "03 smallest-eigenvalue floor",
        elapsed,
        f"1000 matrices, smallest margin {worst:.2e} >= -1e-10",
    )


def test_04_threshold_limit_identities():
    """threshold=inf degenerates to the one-shot second-order update
    (100 random quadratic models); on linear models every threshold gives
    the exact Kalman posterior.  Tolerance 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025_04)

    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        prior, model = _random_quadratic(rng, n, d)
        one_shot = ekf2_update_numerical(prior, model)
        post, trace = pukf_update(prior, model, threshold=np.inf)
        assert len(trace.rounds) == 1
        np.testing.assert_allclose(post.mean, one_shot.mean, atol=1e-9)
        np.testing.assert_allclose(post.cov, one_shot.cov, atol=1e-9)

    thresholds = (-np.inf, 0.0, 0.1, 1.0, 10.0, np.inf)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        prior, model, H, b = _random_linear(rng, n, d)
        exact = _kalman_update(prior, H, b, model.value, model.noise_cov)
        for threshold in thresholds:
            post, _ = pukf_update(prior, model, threshold=threshold)
            np.testing.assert_allclose(post.mean, exact.mean, atol=1e-9)
            np.testing.assert_allclose(post.cov, exact.cov, atol=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(
        "04 threshold-limit identities",
        elapsed,
        "inf == one-shot on 100 models; linear == Kalman at 6 thresholds",
    )


@pytest.mark.campaign
def test_05_polynomial_campaign_accuracy_and_consistency():
    """Polynomial scenario, 200 runs x 10 steps: partitioned updates beat
    the one-shot second-order filter by >= 20% on median final-step error,
    beat EKF/IEKF/UKF outright, and stay calibrated (ellipsoid coverage
    within +/-7 points of nominal) while EKF and UKF under-cover at 95%."""
    t0 = time.perf_counter()
    cfg = CampaignConfig(
        scenario="polynomial",
        filters=("pukf@0.1", "pukf@1", "ekf2n", "ekf", "iekf@10", "ukf"),
        runs=200,
        steps=10,
        seed=0,
        ref_particles=0,
    )
    report, _ = run_campaign(cfg)
    final = str(cfg.steps - 1)
    med = {f: report.value(f, "error_q", step=final, p=0.5) for f in cfg.filters}

    for f in ("pukf@0.1", "pukf@1"):
        assert med[f] <= 0.8 * med["ekf2n"], (f, med)
        for baseline in ("ekf", "iekf@10", "ukf"):
            assert med[f] < med[baseline], (f, baseline, med)

    cover = {}
    for f in ("pukf@0.1", "pukf@1"):
        for p in (0.25, 0.5, 0.75, 0.95):
            c = report.value(f, "coverage", step="all", p=p)
            cover[(f, p)] = c
            assert abs(c - p) <= 0.07, (f, p, c)
    for f in ("ekf", "ukf"):
        c = report.value(f, "coverage", step="all", p=0.95)
        cover[(f, 0.95)] = c
        assert c < 0.95, (f, c)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    meds = " ".join(f"{f}={med[f]:.3f}" for f in cfg.filters)
    cov_s = " ".join(
        f"{f}@{p:g}={cover[(f, p)]:.3f}" for (f, p) in sorted(cover)
    )
    _ok("05 polynomial campaign", elapsed, f"medians: {meds} | coverage: {cov_s}")


@pytest.mark.campaign
def test_06_bearings_campaigns_match_reference_behavior():
    """Bearings-only tracking, 200 runs, 100k-particle reference posterior.

    Far+near sensors: the partitioned filter's KL median must beat the
    one-shot second-order filter, which in turn beats the recursive-update
    and unscented baselines; absolute medians must land in the expected
    bands.  Near+near sensors: all finite/negative thresholds must agree
    within 5%; early updates split into one element per round at thresholds
    up to 1, and later ones do so less often at 1 than at 0.1.
    """
    t0 = time.perf_counter()
    filters = (
        "pukf@-inf",
        "pukf@0.1",
        "pukf@1",
        "pukf@inf",
        "ekf2",
        "ruf@3",
        "ruf@10",
        "ukf",
    )

    far_cfg = CampaignConfig(
        scenario="bearings_far_near",
        filters=filters,
        runs=200,
        steps=10,
        seed=0,
        ref_particles=100_000,
    )
    far_report, _ = run_campaign(far_cfg)
    far = {f: far_report.value(f, "kl_median") for f in filters}

    for f in ("pukf@-inf", "pukf@0.1", "pukf@1"):
        assert far[f] < far["ekf2"], (f, far)
        assert 0.4 <= far[f] <= 1.0, (f, far)
    for baseline in ("ruf@3", "ruf@10", "ukf"):
        assert far["ekf2"] < far[baseline], (baseline, far)
    assert 0.7 <= far["pukf@inf"] <= 1.6, far

    near_cfg = CampaignConfig(
        scenario="bearings_near_near",
        filters=filters,
        runs=200,
        steps=10,
        seed=0,
        ref_particles=100_000,
    )
    near_report, _ = run_campaign(near_cfg)
    near = {f: near_report.value(f, "kl_median") for f in filters}
    trio = [near[f] for f in ("pukf@-inf", "pukf@0.1", "pukf@1")]
    spread = max(trio) / min(trio) - 1.0
    assert spread <= 0.05, (trio, spread)

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    far_s = " ".join(f"{f}={far[f]:.3f}" for f in filters)
    _ok(
        "06 bearings campaigns",
        elapsed,
        f"far+near: {far_s} | near+near threshold spread {spread * 100:.2f}%",
    )


def test_07_probe_linearization_exact_on_quadratics():
    """On 200 random quadratic models the symmetric probes recover the
    scaled Jacobian and scaled Hessians to 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025_07)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        prior, model = _random_quadratic(rng, n, d)
        sqrt_cov = matrix_sqrt(prior.cov)
        lin = linearize(model.evaluate, prior.mean, sqrt_cov)
        M_exact = model.jacobian(prior.mean) @ sqrt_cov
        Q_exact = np.einsum(
            "ai,rab,bj->rij", sqrt_cov, model.hessians(prior.mean), sqrt_cov
        )
        worst = max(worst, float(np.abs(lin.M - M_exact).max()))
        worst = max(worst, float(np.abs(lin.Q - Q_exact).max()))
        np.testing.assert_allclose(lin.M, M_exact, atol=1e-8)
        np.testing.assert_allclose(lin.Q, Q_exact, atol=1e-8)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(
        "07 probe linearization exact on quadratics",
        elapsed,
        f"200 models, worst absolute deviation {worst:.2e} < 1e-8",
    )


def test_08_particle_filter_matches_kalman_on_linear_step():
    """One bootstrap step with 100k particles on a linear-Gaussian problem
    reproduces the exact posterior mean within three standard errors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025_08)
    n_particles = 100_000

    prior = GaussianState(
        np.array([0.5, -0.3]), np.array([[1.0, 0.3], [0.3, 0.8]])
    )
    F = np.array([[1.0, 0.1], [0.0, 1.0]])
    W = 0.05 * np.eye(2)
    H = np.array([[1.0, 0.0], [0.4, 1.0]])
    R = np.diag([0.5, 0.8])
    value = np.array([0.9, -0.2])

    model = MeasurementModel(
        func=lambda xs: np.asarray(xs, dtype=float) @ H.T,
        value=value,
        noise_cov=R,
    )

    predicted = GaussianState(F @ prior.mean, F @ prior.cov @ F.T + W)
    exact = _kalman_update(predicted, H, np.zeros(2), value, R)

    particles = prior.mean + sample_gaussian(rng, prior.cov, n_particles)
    cloud = ParticleCloud.uniform(particles)
    stepped = bootstrap_pf_step(cloud, LinearStateModel(F, W), model, rng)
    assert not stepped.degenerate
    pf_mean = stepped.weights @ stepped.particles

    se = np.sqrt(np.diag(exact.cov) / n_particles)
    deviation = np.abs(pf_mean - exact.mean)
    assert np.all(deviation < 3.0 * se), (deviation, 3.0 * se)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(
        "08 particle-filter sanity",
        elapsed,
        f"|pf - kalman| = {deviation} < 3*SE = {3.0 * se}",
    )
