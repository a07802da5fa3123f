"""End-to-end acceptance checks: ten guarantees, one test each.

The slow piece is the replicated estimation study shared by the first two
tests; everything else runs in seconds to a couple of minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from maxstorm import (
    LagSpec,
    SeededStream,
    SiteSet,
    SmithParams,
    StudyConfig,
    ThetaVector,
    VmfParams,
    bivariate_density,
    empirical_madogram,
    extremal_coefficient,
    finite_dim_neg_log_cdf,
    frechet_cdf,
    madogram_to_theta,
    mahalanobis_distance,
    pairwise_loglik,
    pool_madograms,
    read_field,
    run_study,
    simulate_markov_planar,
    simulate_smith,
    simulate_vmf_field,
    smith_exponent_bivariate,
    smith_exponent_numeric,
    square_grid,
    truncated_moving_max,
)
from maxstorm.cli import main as cli_main

THETA0 = ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
ZS = np.array([0.5, 1.0, 3.0])


@pytest.fixture(scope="module")
def study():
    config = StudyConfig(
        theta0=THETA0,
        n_dates=20,
        n_sites=20,
        seed=20260401,
        replicates=20,
        scheme="both",
        low=0.0,
        high=10.0,
        max_evals=5000,
    )
    start = time.monotonic()
    result = run_study(config)
    return result, time.monotonic() - start


def _margin_dev(draws: np.ndarray) -> float:
    draws = np.asarray(draws, dtype=float)
    return max(abs(np.mean(draws <= z) - frechet_cdf(z)) for z in ZS)


def test_01_study_recovers_memory_and_displacement(study):
    # 20 replicates of 20 dates x 20 sites, scheme 1: mean a-hat in
    # [0.65, 0.75], stdev(a-hat) <= 0.12, mean tau components within
    # 0.15 of -1, all inside a 30 minute budget.
    result, elapsed = study
    a_hat = result.estimates(1, "a")
    assert len(a_hat) == 20
    assert 0.65 <= np.mean(a_hat) <= 0.75
    assert np.std(a_hat, ddof=1) <= 0.12
    assert abs(np.mean(result.estimates(1, "tau1")) - (-1.0)) <= 0.15
    assert abs(np.mean(result.estimates(1, "tau2")) - (-1.0)) <= 0.15
    assert elapsed <= 1800.0


def test_02_two_stage_scheme_estimates_spatial_scale_tighter(study):
    # Same 20 replicates fit both ways: the joint 6-parameter fit spreads
    # the spatial scale estimate more than the two-stage fit.
    result, _ = study
    s22_scheme1 = result.estimates(1, "sigma22")
    s22_scheme2 = result.estimates(2, "sigma22")
    assert np.std(s22_scheme2, ddof=1) > np.std(s22_scheme1, ddof=1)


def test_03_unit_frechet_margins_for_all_simulators():
    # Empirical CDF at z in {0.5, 1, 3} within 0.02 of exp(-1/z),
    # 5000 replicates per simulator.
    one_site = SiteSet.planar(np.array([[0.0, 0.0]]))
    stream = SeededStream(314159)
    smith_draws = np.array([
        simulate_smith(one_site, THETA0.smith, stream.child(i)).values[0]
        for i in range(5000)
    ])
    assert _margin_dev(smith_draws) <= 0.02

    stream = SeededStream(271828)
    markov_draws = np.array([
        simulate_markov_planar(one_site, 3, THETA0.smith, THETA0.markov, stream.child(i)).values[-1, 0]
        for i in range(5000)
    ])
    assert _margin_dev(markov_draws) <= 0.02

    pole = SiteSet.sphere(np.array([[0.0, 0.0, 1.0]]))
    stream = SeededStream(161803)
    vmf_draws = np.array([
        simulate_vmf_field(pole, VmfParams(2.0), stream.child(i)).values[0]
        for i in range(5000)
    ])
    assert _margin_dev(vmf_draws) <= 0.02


def test_04_closed_form_exponent_matches_quadrature():
    # 100 random (z1, z2, separation, covariance) configurations:
    # closed form vs adaptive quadrature, relative error <= 1e-4.
    rng = np.random.default_rng(20260404)
    worst = 0.0
    for _ in range(100):
        z1, z2 = rng.uniform(0.3, 3.0, size=2)
        angle = rng.uniform(0.0, np.pi)
        e1, e2 = rng.uniform(0.5, 2.5, size=2)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        sigma = rot @ np.diag([e1, e2]) @ rot.T
        params = SmithParams(sigma[0, 0], sigma[0, 1], sigma[1, 1])
        dx = rng.uniform(-3.0, 3.0, size=2)
        h = float(mahalanobis_distance(dx, params))
        if h < 0.05:
            dx = np.array([1.0, 0.5])
            h = float(mahalanobis_distance(dx, params))
        closed = smith_exponent_bivariate(z1, z2, h)
        numeric = smith_exponent_numeric(
            SiteSet.planar(np.array([[0.0, 0.0], dx])), np.array([z1, z2]), params
        )
        worst = max(worst, abs(numeric - closed) / abs(closed))
    assert worst <= 1e-4


def test_05_pair_density_normalizes_and_matches_cdf_curvature():
    # The density must integrate to 1 within 1e-3 over the transformed
    # unit square, and match the mixed second difference of the
    # two-point CDF to relative error 1e-4 at 20 interior points.
    x1 = np.array([0.0, 0.0])
    x2 = np.array([1.0, 0.0])

    def integrand(u2, u1):
        z1 = u1 / (1.0 - u1)
        z2 = u2 / (1.0 - u2)
        jac = 1.0 / ((1.0 - u1) ** 2 * (1.0 - u2) ** 2)
        return bivariate_density(z1, z2, 1.0, 2.0, x1, x2, THETA0) * jac

    total, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=1e-6, epsrel=1e-6)
    assert abs(total - 1.0) <= 1e-3

    pts = [(1, x1), (2, x2)]

    def joint_cdf(a: float, b: float) -> float:
        return math.exp(
            -finite_dim_neg_log_cdf(pts, np.array([a, b]), THETA0.smith, THETA0.markov)
        )

    rng = np.random.default_rng(5)
    step = 1e-4
    worst = 0.0
    for _ in range(20):
        z1, z2 = rng.uniform(0.5, 3.0, size=2)
        fd = (
            joint_cdf(z1 + step, z2 + step)
            - joint_cdf(z1 + step, z2 - step)
            - joint_cdf(z1 - step, z2 + step)
            + joint_cdf(z1 - step, z2 - step)
        ) / (4.0 * step * step)
        f = bivariate_density(z1, z2, 1.0, 2.0, x1, x2, THETA0)
        worst = max(worst, abs(fd - f) / abs(f))
    assert worst <= 1e-4


def test_06_recursion_matches_truncated_rolling_maximum():
    # Distribution match at one site: two-sample KS distance <= 0.03
    # over 5000 draws from each route.
    one_site = SiteSet.planar(np.array([[0.0, 0.0]]))
    dates = np.arange(5000) * 51
    trunc = truncated_moving_max(
        one_site, dates, THETA0.smith, THETA0.markov, 50, SeededStream(602214).child(0)
    )
    side_a = trunc.values[:, 0]
    stream = SeededStream(137035)
    side_b = np.array([
        simulate_markov_planar(one_site, 3, THETA0.smith, THETA0.markov, stream.child(i)).values[-1, 0]
        for i in range(5000)
    ])
    assert stats.ks_2samp(side_a, side_b).statistic <= 0.03


def test_07_pooled_madogram_tracks_analytic_dependence():
    # Pooled empirical madogram theta-hat within 0.05 of the analytic
    # value at four space-time lags; the analytic value at time lag 30
    # is already >= 1.99.
    grid = square_grid(5, spacing=1.0)
    lags = [
        LagSpec(0, (0.0, 0.0)),
        LagSpec(1, (-1.0, -1.0)),
        LagSpec(1, (0.0, 0.0)),
        LagSpec(2, (-2.0, -2.0)),
    ]
    stream = SeededStream(577215)
    fields = [
        simulate_markov_planar(grid, 6, THETA0.smith, THETA0.markov, stream.child(r))
        for r in range(300)
    ]
    for lag in lags:
        pooled = pool_madograms([empirical_madogram(f, lag) for f in fields])
        theta_hat = madogram_to_theta(pooled.nu_hat)
        theta = extremal_coefficient(lag, THETA0.smith, THETA0.markov)
        assert abs(theta_hat - theta) <= 0.05
    assert extremal_coefficient(LagSpec(30, (0.0, 0.0)), THETA0.smith, THETA0.markov) >= 1.99


def test_08_single_date_slices_match_direct_simulation():
    # Per-pair empirical V(1,1) from date slices of the recursion vs
    # direct simulation on the same five sites: differences <= 0.05.
    coords = np.array([
        [0.0, 0.0],
        [0.35, 0.0],
        [0.0, 0.35],
        [-0.35, 0.0],
        [0.0, -0.35],
    ])
    sites = SiteSet.planar(coords)
    stream = SeededStream(880002)
    slices = []
    for r in range(2000):
        field = simulate_markov_planar(sites, 3, THETA0.smith, THETA0.markov, stream.child(r))
        slices.extend(field.values)
    slices = np.array(slices)

    stream = SeededStream(990002)
    direct = np.array([
        simulate_smith(sites, THETA0.smith, stream.child(r)).values for r in range(6000)
    ])

    def pair_v(values: np.ndarray, i: int, j: int) -> float:
        return -np.log(np.mean((values[:, i] <= 1.0) & (values[:, j] <= 1.0)))

    worst = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            worst = max(worst, abs(pair_v(slices, i, j) - pair_v(direct, i, j)))
    assert worst <= 0.05


def test_09_integer_count_sampler_margins_and_independence():
    # Poisson(1) counts drawn from a seeded stream, one per integer, are
    # unit-mean Poisson within 0.02 at k in {0, 1, 2} over 10^4 draws;
    # counts on disjoint ranges drawn from sibling streams are uncorrelated
    # (|corr| < 0.05).
    draws = SeededStream(141421).generator().poisson(1.0, size=10000)
    for k in (0, 1, 2):
        pmf = math.exp(-1.0) / math.factorial(k)
        assert abs(np.mean(draws == k) - pmf) <= 0.02

    root = SeededStream(173205)
    va = root.child(0).generator().poisson(1.0, size=2000)
    vb = root.child(1).generator().poisson(1.0, size=2000)
    assert abs(np.corrcoef(va, vb)[0, 1]) < 0.05


ACCEPT_INI = """
[model]
kind = smith
sigma11 = 1.0
sigma12 = 0.0
sigma22 = 1.0

[temporal]
a = 0.7
tau = -1, -1

[sites]
layout = uniform
n_sites = 8
low = 0.0
high = 6.0

[run]
n_dates = 5
seed = 8642

[dependence]
lags = 0:0,0 ; 1:0,0

[fit]
scheme = 1
init_a = 0.5
init_tau = 0, 0
max_evals = 400

[study]
replicates = 2
n_dates = 6
n_sites = 6
seed = 31
max_evals = 250
"""


def test_10_seeded_runs_reproduce_byte_identically(tmp_path, monkeypatch):
    # Every command repeated at thread count 1 must reproduce its output
    # files byte for byte, a repeated pairwise objective its value, and the
    # study must not depend on the thread count at all.
    monkeypatch.setenv("MAXSTORM_THREADS", "1")
    cfg = tmp_path / "run.ini"
    cfg.write_text(ACCEPT_INI, encoding="utf-8")
    for tag in ("one", "two"):
        base = tmp_path / tag
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(base / "sim")]) == 0
        assert cli_main([
            "dependence", "--config", str(cfg),
            "--field", str(base / "sim" / "field.csv"), "--out", str(base / "dep.csv"),
        ]) == 0
        assert cli_main([
            "fit", "--config", str(cfg),
            "--field", str(base / "sim" / "field.csv"), "--out", str(base / "fit.json"),
        ]) == 0
        assert cli_main(["mc-study", "--config", str(cfg), "--out", str(base / "study")]) == 0
    for rel in (
        "sim/field.csv",
        "sim/field_meta.json",
        "dep.csv",
        "fit.json",
        "study/summary.csv",
        "study/replicates.csv",
        "study/study_meta.json",
    ):
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    field = read_field(tmp_path / "one" / "sim" / "field.csv")
    assert pairwise_loglik(field, THETA0) == pairwise_loglik(field, THETA0)

    monkeypatch.setenv("MAXSTORM_THREADS", "2")
    out_threads2 = tmp_path / "threads2"
    assert cli_main(["mc-study", "--config", str(cfg), "--out", str(out_threads2)]) == 0
    for rel in ("summary.csv", "replicates.csv", "study_meta.json"):
        assert (out_threads2 / rel).read_bytes() == (tmp_path / "one" / "study" / rel).read_bytes()
