"""Pair densities, composite likelihoods, transforms, and the optimizer."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from maxstorm import (
    DegeneratePairError,
    FitOptions,
    MarkovParams,
    PairWeights,
    SeededStream,
    SiteSet,
    SmithParams,
    SpaceTimeField,
    ThetaVector,
    ValidationError,
    bivariate_density,
    fit_scheme1,
    fit_scheme2,
    pairwise_loglik,
    simulate_markov_planar,
    spatial_pairwise_loglik,
    square_grid,
)
from maxstorm import inference
from maxstorm.inference import (
    _A,
    _SIGMA,
    _TAU,
    _eval_st_loglik,
    _from_free,
    _log_pair_density,
    _nelder_mead,
    _prepare_st_pairs,
    _prepared_pairs,
    _short_lag_pairs,
    _temporal_start_candidates,
    _to_free,
)

THETA0 = ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
X1 = np.array([0.0, 0.0])
X2 = np.array([1.0, 0.0])


def _sim(seed, n_dates=6, n_sites=6, low=0.0, high=6.0):
    rng = np.random.default_rng(seed)
    sites = SiteSet.planar(rng.uniform(low, high, size=(n_sites, 2)))
    return simulate_markov_planar(
        sites, n_dates, THETA0.smith, THETA0.markov, SeededStream(seed)
    )


class TestThetaVector:
    def test_array_roundtrip(self):
        arr = THETA0.as_array()
        np.testing.assert_array_equal(arr, [1.0, 0.0, 1.0, 0.7, -1.0, -1.0])
        assert ThetaVector.from_array(arr) == THETA0

    def test_invalid_components_rejected(self):
        with pytest.raises(ValidationError):
            ThetaVector(1.0, 0.0, 1.0, 1.2, -1.0, -1.0)
        with pytest.raises(ValidationError):
            ThetaVector(1.0, 2.0, 1.0, 0.5, -1.0, -1.0)

    def test_component_views(self):
        assert isinstance(THETA0.smith, SmithParams)
        assert isinstance(THETA0.markov, MarkovParams)
        assert THETA0.markov.a == 0.7


class TestBivariateDensity:
    def test_positive_and_symmetric_under_pair_swap(self):
        f = bivariate_density(1.0, 2.0, 0, 1, X1, X2, THETA0)
        g = bivariate_density(2.0, 1.0, 1, 0, X2, X1, THETA0)
        assert f > 0
        assert f == pytest.approx(g, rel=1e-14)

    def test_coincident_points_at_same_date_rejected(self):
        with pytest.raises(DegeneratePairError):
            bivariate_density(1.0, 2.0, 3, 3, X1, X1, THETA0)

    def test_complete_dependence_along_moving_frame(self):
        # Lagged pair at exactly the shifted site: the joint law is the
        # temporal chain, whose density factorizes on z2 > a*z1.
        z1, z2, a = 1.0, 1.5, 0.7
        got = bivariate_density(z1, z2, 0, 1, X1, np.array([-1.0, -1.0]), THETA0)
        f1 = np.exp(-1.0 / z1) / z1 ** 2
        resid = (1 - a) / z2 ** 2 * np.exp(-(1 - a) / z2)
        assert got == pytest.approx(f1 * resid, rel=1e-12)

    def test_complete_dependence_below_damping_is_floored(self):
        got = bivariate_density(1.0, 0.5, 0, 1, X1, np.array([-1.0, -1.0]), THETA0)
        assert got == pytest.approx(1e-300, rel=1e-6)

    def test_long_time_lag_factorizes(self):
        f = bivariate_density(1.0, 2.0, 0, 40, X1, X2, THETA0)
        product = (np.exp(-1.0 / 1.0) / 1.0) * (np.exp(-1.0 / 2.0) / 4.0)
        assert f == pytest.approx(product, rel=1e-3)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValidationError):
            bivariate_density(0.0, 1.0, 0, 1, X1, X2, THETA0)


def _kernel_log_density(z1, z2, lag, h, a):
    """The objective's kernel on one table row per term, at Sigma = I and tau = 0."""
    n = z1.size
    # Under the identity the row offset (h, 0) has length sqrt(h*h), which is h.
    assert np.array_equal(np.sqrt(h * h), h)
    dx = np.column_stack([h, np.zeros(n)])
    pairs = _prepared_pairs(z1, z2, np.ones(n), np.arange(n), lag, dx)
    identity = SmithParams(1.0, 0.0, 1.0)
    (_, logf, _), = _log_pair_density(pairs, identity, np.array([a]), np.zeros((1, 2)))
    return logf[0]


def _bracket_log_density(z1, z2, alag, h):
    """Unreduced form: exp(-V) times the A*B + C bracket of V's partials."""
    w = 0.5 * h + np.log(z2 / (alag * z1)) / h
    v = h - w
    phi_w = np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi)
    phi_v = np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)
    cdf_w, cdf_v = ndtr(w), ndtr(v)
    exponent = cdf_w / z1 + alag * cdf_v / z2 + (1.0 - alag) / z2
    a_term = cdf_w / z1**2 + phi_w / (h * z1**2) - alag * phi_v / (h * z1 * z2)
    b_term = (
        alag * cdf_v / z2**2
        + alag * phi_v / (h * z2**2)
        - phi_w / (h * z1 * z2)
        + (1.0 - alag) / z2**2
    )
    c_term = v * phi_w / (h**2 * z1**2 * z2) + alag * w * phi_v / (h**2 * z1 * z2**2)
    return -exponent + np.log(a_term * b_term + c_term)


def _kernel_grid(h_values, h_line):
    """Pair values and lags at each of ``h_values``, and near the singular line.

    The points near the line, at ``h_line``, put ``w`` at -20, -5, 0 and 5.
    There ``log f`` moves by about ``|w|/h`` per unit of ``log(z2/z1)``, so
    much below ``h = 1e-3`` the rounding of the float inputs alone nears
    the 1e-10 budget of the reference test.
    """
    a, values, lags = 0.7, (0.2, 1.0, 3.0), (0, 1, 3)
    rows = list(itertools.product(values, values, lags, h_values))
    # log(z2 / (a**lag z1)) = (w - h/2)*h puts w at each target.
    rows += [
        (z1, a**lag * z1 * math.exp((w - 0.5 * h) * h), lag, h)
        for z1, lag, h, w in itertools.product(values, lags, h_line, (-20.0, -5.0, 0.0, 5.0))
    ]
    z1, z2, lag, h = (np.array(c, dtype=float) for c in zip(*rows))
    return z1, z2, lag, h, a


class TestPairDensityKernel:
    def test_matches_bracket_form_away_from_small_h(self):
        z1, z2, lag, h, a = _kernel_grid(np.geomspace(0.1, 40.0, 9), np.geomspace(0.1, 1.0, 4))
        got = _kernel_log_density(z1, z2, lag, h, a)
        want = _bracket_log_density(z1, z2, a**lag, h)
        # Deeper in the tail the bracket's phi/h terms cancel below its own
        # rounding; the reference test covers the kernel there.
        live = want > -50.0
        assert np.count_nonzero(live) > 0.8 * live.size
        np.testing.assert_allclose(np.exp(got[live]), np.exp(want[live]), rtol=1e-12)

    def test_matches_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        z1, z2, lag, h, a = _kernel_grid(np.geomspace(1e-6, 40.0, 12), np.geomspace(1e-3, 1.0, 10))
        got = _kernel_log_density(z1, z2, lag, h, a)

        def pdf(x):
            return mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)

        want = []
        with mp.workdps(50):
            for p1, p2, el, hh in zip(z1, z2, lag, h):
                # Every float input is exact in mpmath; only the formula differs.
                p1, p2, hh = mp.mpf(p1), mp.mpf(p2), mp.mpf(hh)
                al = mp.mpf(a) ** int(el)
                w = hh / 2 + mp.log(p2 / (al * p1)) / hh
                v = hh - w
                big_w, big_v = mp.ncdf(w), mp.ncdf(v)
                exponent = big_w / p1 + al * big_v / p2 + (1 - al) / p2
                a_term = big_w / p1**2 + pdf(w) / (hh * p1**2) - al * pdf(v) / (hh * p1 * p2)
                b_term = (
                    al * big_v / p2**2 + al * pdf(v) / (hh * p2**2)
                    - pdf(w) / (hh * p1 * p2) + (1 - al) / p2**2
                )
                c_term = v * pdf(w) / (hh**2 * p1**2 * p2) + al * w * pdf(v) / (hh**2 * p1 * p2**2)
                want.append(float(-exponent + mp.log(a_term * b_term + c_term)))
        want = np.array(want)
        live = want > -600.0
        # Terms below the density floor must come back floored.
        assert np.all(got[~live] < -600.0)
        assert np.count_nonzero(live) > 0.5 * live.size
        np.testing.assert_allclose(np.exp(got[live]), np.exp(want[live]), rtol=1e-10)


    def test_chunked_evaluation_matches_one_chunk(self, monkeypatch):
        # Chunk boundaries, a partial last chunk included, must not move a bit.
        z1, z2, lag, h, a = _kernel_grid(np.geomspace(1e-3, 40.0, 12), np.geomspace(1e-3, 1.0, 10))
        monkeypatch.setattr(inference, "_TERM_CHUNK", z1.size)
        whole = _kernel_log_density(z1, z2, lag, h, a)
        monkeypatch.setattr(inference, "_TERM_CHUNK", 7)
        np.testing.assert_array_equal(_kernel_log_density(z1, z2, lag, h, a), whole)


def _pointwise(evaluate):
    """``evaluate`` as a loop of one-candidate calls."""

    def pointwise(prepared, sigma, a, tau):
        return np.array(
            [evaluate(prepared, sigma, a[i : i + 1], tau[i : i + 1])[0] for i in range(a.size)]
        )

    return pointwise


class TestCandidateStacks:
    # 3 x 3 unit grid, 4 dates: 6 date pairs x 36 site pairs = 216 terms.
    DATA = simulate_markov_planar(
        square_grid(3), 4, THETA0.smith, THETA0.markov, SeededStream(17)
    )

    @settings(max_examples=40, deadline=None)
    @given(
        chunk=st.sampled_from([8192, 3 * 216 + 5, 2 * 216, 100, 7]),
        k=st.integers(1, 12),
        frame_at=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        identity=st.booleans(),
    )
    def test_stack_equals_single_calls_bit_for_bit(self, chunk, k, frame_at, seed, identity):
        # Chunks of 37, 3 or 2 whole candidates (k need not be a multiple),
        # or one candidate in 100- or 7-term slices.  Candidate frame_at puts
        # the lag-1 rows with offset (1, 0) on the moving frame (h = 0 under
        # every Sigma): its terms below the singular line are floored.
        rng = np.random.default_rng(seed)
        sigma = SmithParams(1.0, 0.0, 1.0) if identity else SmithParams(
            rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0)
        )
        a = rng.uniform(0.01, 0.99, k)
        tau = np.where(rng.random((k, 1)) < 0.5, rng.integers(-2, 3, (k, 2)), rng.uniform(-3, 3, (k, 2)))
        frame_at = min(frame_at, k)
        a, tau = np.insert(a, frame_at, 0.9), np.insert(tau, frame_at, [1.0, 0.0], axis=0)
        pairs = _prepare_st_pairs(self.DATA, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_TERM_CHUNK", chunk)
            stacked = _eval_st_loglik(pairs, sigma, a, tau)
            single = _pointwise(_eval_st_loglik)(pairs, sigma, a, tau)
            floored = np.concatenate([n for _, _, n in _log_pair_density(pairs, sigma, a, tau)])
        assert np.array_equal(stacked, single)
        assert floored[frame_at] > 0


class TestPairwiseLoglik:
    def test_smallest_index_set_is_one_term(self, smith_identity):
        data = _sim(21, n_dates=2, n_sites=2)
        got = pairwise_loglik(data, THETA0)
        coords = np.asarray(data.sites.coords)
        expected = np.log(
            bivariate_density(
                data.values[0, 0], data.values[1, 1],
                int(data.dates[0]), int(data.dates[1]),
                coords[0], coords[1], THETA0,
            )
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_doubling_weights_doubles_value(self):
        data = _sim(22, n_dates=4, n_sites=4)
        base = pairwise_loglik(data, THETA0)
        w = PairWeights(
            temporal=2.0 * np.ones((4, 4)), spatial=2.0 * np.ones((4, 4))
        )
        # Each term carries the product of its date-pair and site-pair
        # weights, so doubling both multiplies the value by 4.
        assert pairwise_loglik(data, THETA0, w) == pytest.approx(4.0 * base, rel=1e-12)

    def test_zero_weights_rejected(self):
        data = _sim(23, n_dates=3, n_sites=3)
        with pytest.raises(ValidationError):
            pairwise_loglik(data, THETA0, PairWeights(temporal=np.zeros((3, 3))))

    def test_cutoff_weights_drop_long_pairs(self):
        data = _sim(24, n_dates=5, n_sites=4)
        full = pairwise_loglik(data, THETA0)
        windowed = pairwise_loglik(
            data,
            THETA0,
            PairWeights.cutoff(
                np.asarray(data.dates), np.asarray(data.sites.coords), max_time_lag=1, max_space_dist=None
            ),
        )
        assert windowed != full

    @pytest.mark.parametrize("case", ["sparse dates", "cutoff weights"])
    def test_equals_sum_of_pair_densities(self, case):
        # Terms that share a lag and a site pair share one table row, so the
        # gathered objective must equal the sum of independent pair densities.
        field = _sim(26, n_dates=4, n_sites=5)
        dates = np.array([1, 2, 5, 9]) if case == "sparse dates" else np.asarray(field.dates)
        data = SpaceTimeField(sites=field.sites, dates=dates, values=field.values)
        coords = np.asarray(data.sites.coords)
        theta = ThetaVector(1.2, 0.3, 0.8, 0.6, -0.7, 0.4)
        weights = None
        wt, ws = np.ones((4, 4)), np.ones((5, 5))
        if case == "cutoff weights":
            weights = PairWeights.cutoff(dates, coords, max_time_lag=2, max_space_dist=4.0)
            wt, ws = weights.temporal, weights.spatial
        expected = 0.0
        for i, j in itertools.combinations(range(4), 2):
            for k, l in itertools.combinations(range(5), 2):
                if wt[i, j] * ws[k, l] > 0:
                    f = bivariate_density(
                        data.values[i, k], data.values[j, l], int(dates[i]), int(dates[j]),
                        coords[k], coords[l], theta,
                    )
                    expected += wt[i, j] * ws[k, l] * np.log(f)
        assert pairwise_loglik(data, theta, weights) == pytest.approx(expected, rel=1e-12)

    def test_value_is_finite_at_distant_theta(self):
        data = _sim(25, n_dates=4, n_sites=4)
        off = ThetaVector(2.0, 0.3, 0.5, 0.12, 2.0, 2.0)
        assert np.isfinite(pairwise_loglik(data, off))


class TestSpatialPairwiseLoglik:
    def test_single_date_single_pair_matches_zero_lag_density(self, smith_identity):
        rng = np.random.default_rng(30)
        sites = SiteSet.planar(rng.uniform(0, 4, size=(2, 2)))
        data = simulate_markov_planar(sites, 1, smith_identity, THETA0.markov, SeededStream(30))
        got = spatial_pairwise_loglik(data, smith_identity)
        coords = np.asarray(sites.coords)
        expected = np.log(
            bivariate_density(
                data.values[0, 0], data.values[0, 1], 0, 0, coords[0], coords[1], THETA0
            )
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_sums_over_dates(self, smith_identity):
        data = _sim(31, n_dates=3, n_sites=2)
        total = spatial_pairwise_loglik(data, smith_identity)
        per_date = 0.0
        coords = np.asarray(data.sites.coords)
        for i in range(3):
            slice_field = SpaceTimeField(
                sites=data.sites, dates=np.array([1]), values=data.values[i : i + 1]
            )
            per_date += spatial_pairwise_loglik(slice_field, smith_identity)
        assert total == pytest.approx(per_date, rel=1e-12)

    def test_coincident_sites_rejected(self, smith_identity, markov_standard):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [0.0, 0.0]]))
        data = simulate_markov_planar(sites, 2, smith_identity, markov_standard, SeededStream(1))
        with pytest.raises(DegeneratePairError):
            spatial_pairwise_loglik(data, smith_identity)

    def test_coincident_sites_with_zero_weight_are_dropped(self, smith_identity, markov_standard):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.5, 0.5], [0.5, 2.0]])
        sites = SiteSet.planar(coords)
        data = simulate_markov_planar(sites, 3, smith_identity, markov_standard, SeededStream(2))
        spatial = np.ones((4, 4))
        spatial[0, 1] = 0.0
        got = spatial_pairwise_loglik(data, smith_identity, PairWeights(spatial=spatial))
        expected = 0.0
        for i in range(3):
            for k, l in itertools.combinations(range(4), 2):
                if (k, l) != (0, 1):
                    f = bivariate_density(
                        data.values[i, k], data.values[i, l], i, i, coords[k], coords[l], THETA0
                    )
                    expected += np.log(f)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_true_scale_beats_inflated_scale_on_average(self, smith_identity):
        # Composite-likelihood consistency probe: averaged over replicates,
        # the truth must score higher than a doubled first variance.
        at_truth, inflated = 0.0, 0.0
        for r in range(50):
            data = _sim(4000 + r, n_dates=6, n_sites=10)
            at_truth += spatial_pairwise_loglik(data, smith_identity)
            inflated += spatial_pairwise_loglik(data, SmithParams(2.0, 0.0, 1.0))
        assert at_truth > inflated


class TestTransforms:
    @settings(max_examples=100, deadline=None)
    @given(
        s11=st.floats(0.1, 5.0),
        s22=st.floats(0.1, 5.0),
        rho=st.floats(-0.95, 0.95),
    )
    def test_sigma_transform_roundtrip(self, s11, s22, rho):
        s12 = rho * np.sqrt(s11 * s22)
        vec = np.array([s11, s12, s22])
        theta = np.concatenate([vec, [0.5, 0.0, 0.0]])
        back = _from_free(_to_free(theta, (_SIGMA,)), theta, (_SIGMA,))[:3]
        np.testing.assert_allclose(back, vec, rtol=1e-10, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.01, 0.99), t1=st.floats(-5, 5), t2=st.floats(-5, 5))
    def test_temporal_transform_roundtrip_and_feasibility(self, a, t1, t2):
        free = (_A, _TAU)
        vec = np.array([a, t1, t2])
        theta = np.concatenate([[1.0, 0.0, 1.0], vec])
        u = _to_free(theta, free)
        back = _from_free(u, theta, free)[3:]
        np.testing.assert_allclose(back, vec, rtol=1e-9, atol=1e-12)
        # Any unconstrained point must map into the feasible region.
        wild = _from_free(np.array([37.0, -12.0, 99.0]), theta, free)[3:]
        assert 0.0 < wild[0] < 1.0

    def test_full_transform_keeps_sigma_positive_definite(self):
        base = THETA0.as_array()
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = rng.normal(scale=3.0, size=6)
            c = _from_free(u, base, (_SIGMA, _A, _TAU))
            assert c[0] > 0 and c[2] > 0
            assert c[0] * c[2] - c[1] ** 2 > 0
            assert 0.0 < c[3] < 1.0

    def test_held_blocks_are_copied_bit_for_bit(self):
        # This covariance does not survive a log-Cholesky round trip exactly,
        # so only a copy keeps it; the objective drives a onto its clamp.
        base = np.array([1.3, 0.37, 0.9, 0.6, 0.5, -0.5])
        free = (_A, _TAU)
        assert not np.array_equal(_from_free(_to_free(base, (_SIGMA,)), base, (_SIGMA,)), base)
        seen = []

        def objective(u):
            theta = _from_free(u, base, free)
            seen.append(theta)
            return (theta[3] - 2.0) ** 2 + theta[4] ** 2 + theta[5] ** 2

        _nelder_mead(objective, _to_free(base, free), FitOptions(max_evals=400))
        seen = np.array(seen)
        assert len(seen) > 100
        np.testing.assert_array_equal(seen[:, :3], np.broadcast_to(base[:3], (len(seen), 3)))
        assert np.all((seen[:, 3] > 0.0) & (seen[:, 3] < 1.0))


class TestNelderMead:
    def test_quadratic_bowl(self):
        report = _nelder_mead(
            lambda x: (x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2,
            np.array([0.0, 0.0]), FitOptions(),
        )
        np.testing.assert_allclose(report.x, [3.0, -2.0], atol=1e-5)
        assert report.success

    def test_rosenbrock(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        report = _nelder_mead(rosen, np.array([-1.2, 1.0]), FitOptions())
        np.testing.assert_allclose(report.x, [1.0, 1.0], atol=1e-3)

    def test_feasibility_under_transform(self):
        seen = []
        free = (_A, _TAU)
        base = np.array([1.0, 0.0, 1.0, 0.9, 1.0, -1.0])

        def objective(u):
            x = _from_free(u, base, free)[3:]
            seen.append(x.copy())
            return (x[0] - 0.4) ** 2 + x[1] ** 2 + x[2] ** 2

        _nelder_mead(objective, _to_free(base, free), FitOptions())
        seen = np.array(seen)
        assert np.all((seen[:, 0] > 0.0) & (seen[:, 0] < 1.0))

    def test_eval_budget_reports_non_convergence(self):
        report = _nelder_mead(
            lambda x: np.sum(x ** 2),
            np.full(6, 10.0),
            FitOptions(max_evals=20),
        )
        assert not report.success
        assert report.nfev <= 20

    def test_nan_objective_treated_as_infinite(self):
        def holey(x):
            return np.nan if x[0] > 1.0 else (x[0] - 0.5) ** 2

        report = _nelder_mead(holey, np.array([0.0]), FitOptions())
        assert abs(report.x[0] - 0.5) < 1e-4


class TestFits:
    def test_scheme1_recovers_coefficient_from_cold_start(self):
        # Twenty dates on twenty sites identify the temporal parameters well
        # enough that a start at a=0.3 climbs into the basin around 0.7.
        data = _sim(777, n_dates=20, n_sites=20, high=10.0)
        init = ThetaVector(1.0, 0.0, 1.0, 0.3, 0.0, 0.0)
        report = fit_scheme1(data, init, FitOptions(max_evals=5000))
        assert report.scheme == 1
        assert abs(report.theta_hat.a - 0.7) < 0.1

    def test_scheme2_loglik_dominates_scheme1(self):
        data = _sim(778, n_dates=8, n_sites=8, high=8.0)
        init = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        opts = FitOptions(max_evals=2500)
        r1 = fit_scheme1(data, init, opts)
        r2 = fit_scheme2(data, init, opts)
        # Scheme 2 optimizes all six parameters jointly on the same
        # objective, so its optimum cannot fall meaningfully below the
        # two-stage estimate.
        assert r2.loglik >= r1.loglik - 1e-3 * abs(r1.loglik)

    def test_coefficient_at_clamp_is_not_converged(self, smith_identity, markov_standard):
        # On this lattice record scheme 1 runs a to the logit clamp (a = 1 - 1.9e-12);
        # seed 1 gives an interior estimate (a = 0.50) that still converges.
        init = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        for seed, at_clamp in ((2, True), (1, False)):
            data = simulate_markov_planar(
                square_grid(4), 20, smith_identity, markov_standard, SeededStream(seed)
            )
            report = fit_scheme1(data, init)
            assert (report.theta_hat.a > 1.0 - 1e-9) is at_clamp
            assert report.converged is not at_clamp

    def test_scheme1_holds_covariance_estimate_in_second_stage(self, monkeypatch):
        # Every space-time evaluation, scan included, sees the covariance
        # exactly as the same-date stage found it: its best evaluated point.
        rows, spatial_seen = [], []
        st_original = inference._eval_st_loglik
        spatial_original = inference._eval_spatial_loglik

        def recording(prepared, sigma, a, tau):
            rows.extend((sigma, a_i, tuple(tau_i)) for a_i, tau_i in zip(a, tau))
            return st_original(prepared, sigma, a, tau)

        def spatial_recording(prepared, sigma):
            value = spatial_original(prepared, sigma)
            spatial_seen.append((value, sigma))
            return value

        monkeypatch.setattr(inference, "_eval_st_loglik", recording)
        monkeypatch.setattr(inference, "_eval_spatial_loglik", spatial_recording)
        data = _sim(780, n_dates=5, n_sites=5)
        init = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        report = fit_scheme1(data, init, FitOptions(max_evals=300))
        assert len(rows) > 244
        assert all(sigma == report.theta_hat.smith for sigma, _, _ in rows)
        assert report.theta_hat.smith == max(spatial_seen, key=lambda s: s[0])[1]

    def test_scan_table_is_the_two_shortest_lags(self):
        sim = _sim(782, n_dates=6, n_sites=5)
        rng = np.random.default_rng(0)
        # Consecutive dates, and gapped dates (lags 1, 2, 3, ...) under a
        # space cutoff; the second-smallest lag is 2 in both.
        cases = [(np.arange(1, 7), None), (np.array([1, 2, 4, 7, 8, 12]), 3.0)]
        for dates, max_space_dist in cases:
            data = SpaceTimeField(sim.sites, dates, sim.values)
            coords = data.sites.coords
            fit_table = _prepare_st_pairs(
                data, PairWeights.cutoff(dates, coords, None, max_space_dist)
            )
            scan_pairs = _short_lag_pairs(fit_table)
            short = PairWeights.cutoff(dates, coords, 2.0, max_space_dist)
            # The masked table is the table built under the short cutoff,
            # array for array.
            direct = _prepare_st_pairs(data, short)
            for name in direct.__dataclass_fields__:
                got, want = getattr(scan_pairs, name), getattr(direct, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            for _ in range(5):
                theta = ThetaVector(
                    rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0),
                    rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                )
                a, tau = np.array([theta.a]), np.array([[theta.tau1, theta.tau2]])
                value = _eval_st_loglik(scan_pairs, theta.smith, a, tau)[0]
                assert value == pairwise_loglik(data, theta, short)
            # A table of at most two lags is scanned as it is.
            lag_one = _prepare_st_pairs(data, PairWeights.cutoff(dates, coords, 1.0))
            assert _short_lag_pairs(lag_one) is lag_one

    @pytest.mark.parametrize("fit", [fit_scheme1, fit_scheme2])
    def test_scan_scores_short_lags_and_refinement_all_terms(self, monkeypatch, fit):
        calls = []
        original = inference._eval_st_loglik

        def recording(prepared, sigma, a, tau):
            assert tau.shape == (a.size, 2)
            calls.append((prepared.n_terms, a.size))
            return original(prepared, sigma, a, tau)

        monkeypatch.setattr(inference, "_eval_st_loglik", recording)
        data = _sim(783, n_dates=6, n_sites=5)
        report = fit(data, ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0), FitOptions(max_evals=100))
        # 6 dates x 5 sites: lags 1 and 2 hold (5 + 4) date pairs x 10 site
        # pairs.  The scan scores its 244 rows in one call.
        assert calls.count((90, 244)) == 1
        assert report.n_pairs == 150
        assert all(call == (150, 1) for call in calls if call != (90, 244))
        assert sum(k for _, k in calls) > 244

    def test_batched_scan_matches_pointwise_scan_on_moving_frame(self, monkeypatch):
        # On the unit grid at Sigma = I, 8 of the 81 lattice translations put
        # a lag-1 or lag-2 row exactly on the moving frame (h = 0), so 24 of
        # the scan's 244 candidates take the complete-dependence branch.
        data = simulate_markov_planar(
            square_grid(4), 6, THETA0.smith, THETA0.markov, SeededStream(0)
        )
        init = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        scan_pairs = _short_lag_pairs(_prepare_st_pairs(data, None))
        ticks = np.linspace(-inference._SCAN_RADIUS, inference._SCAN_RADIUS, inference._SCAN_MESH)
        on_frame = [
            (t1, t2) for t1 in ticks for t2 in ticks
            if np.any(np.all(scan_pairs.dx == scan_pairs.lag[:, None] * [t1, t2], axis=1))
        ]
        assert len(on_frame) == 8
        opts = FitOptions(max_evals=300)
        starts = _temporal_start_candidates(scan_pairs, init.as_array())
        reports = [fit(data, init, opts) for fit in (fit_scheme1, fit_scheme2)]
        monkeypatch.setattr(inference, "_eval_st_loglik", _pointwise(inference._eval_st_loglik))
        pointwise = _temporal_start_candidates(scan_pairs, init.as_array())
        assert len(pointwise) == len(starts)
        assert all(np.array_equal(p, s) for p, s in zip(pointwise, starts))
        assert [fit(data, init, opts) for fit in (fit_scheme1, fit_scheme2)] == reports

    @pytest.mark.parametrize("fit", [fit_scheme1, fit_scheme2])
    def test_estimate_invariant_under_date_shift(self, fit):
        data = _sim(784, n_dates=6, n_sites=5)
        shifted = SpaceTimeField(data.sites, data.dates + 100, data.values)
        init = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        opts = FitOptions(max_evals=200)
        assert fit(shifted, init, opts) == fit(data, init, opts)

    def test_report_counts_pairs(self):
        data = _sim(779, n_dates=5, n_sites=4)
        report = fit_scheme1(data, ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0), FitOptions(max_evals=400))
        assert report.n_pairs == 10 * 6
        assert report.iterations > 0

    @pytest.mark.parametrize("scheme, runs", [(1, 4), (2, 3)])
    def test_eval_budget_caps_every_run(self, scheme, runs):
        # The study's first replicate on 4 sites x 4 dates: scheme 1 makes one
        # covariance run and three temporal runs, scheme 2 three joint runs.
        root = SeededStream(1).child(0)
        coords = root.child(0).generator().uniform(0.0, 10.0, size=(4, 2))
        data = simulate_markov_planar(
            SiteSet.planar(coords), 4, THETA0.smith, THETA0.markov, root.child(1)
        )
        fit = fit_scheme1 if scheme == 1 else fit_scheme2
        report = fit(data, ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0), FitOptions(max_evals=100))
        assert report.iterations <= 100 * runs

    def test_too_small_data_rejected(self, smith_identity, markov_standard):
        data = simulate_markov_planar(
            SiteSet.planar(np.array([[0.0, 0.0], [1.0, 0.0]])), 1,
            smith_identity, markov_standard, SeededStream(0),
        )
        with pytest.raises(ValidationError):
            pairwise_loglik(data, THETA0)
