"""Pair densities, composite likelihoods, transforms, and the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    nelder_mead,
    pairwise_loglik,
    simulate_markov_planar,
    spatial_pairwise_loglik,
    square_grid,
)
from maxstorm.inference import (
    _sigma_transform,
    _temporal_transform,
    _theta_transform,
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
        tr = _sigma_transform()
        vec = np.array([s11, s12, s22])
        back = tr.to_constrained(tr.to_unconstrained(vec))
        np.testing.assert_allclose(back, vec, rtol=1e-10, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.01, 0.99), t1=st.floats(-5, 5), t2=st.floats(-5, 5))
    def test_temporal_transform_roundtrip_and_feasibility(self, a, t1, t2):
        tr = _temporal_transform()
        vec = np.array([a, t1, t2])
        u = tr.to_unconstrained(vec)
        back = tr.to_constrained(u)
        np.testing.assert_allclose(back, vec, rtol=1e-9, atol=1e-12)
        # Any unconstrained point must map into the feasible region.
        wild = tr.to_constrained(np.array([37.0, -12.0, 99.0]))
        assert 0.0 < wild[0] < 1.0

    def test_full_transform_keeps_sigma_positive_definite(self):
        tr = _theta_transform()
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = rng.normal(scale=3.0, size=6)
            c = tr.to_constrained(u)
            assert c[0] > 0 and c[2] > 0
            assert c[0] * c[2] - c[1] ** 2 > 0
            assert 0.0 < c[3] < 1.0


class TestNelderMead:
    def test_quadratic_bowl(self):
        report = nelder_mead(
            lambda x: (x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2, np.array([0.0, 0.0])
        )
        np.testing.assert_allclose(report.x, [3.0, -2.0], atol=1e-5)
        assert report.converged

    def test_rosenbrock(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        report = nelder_mead(rosen, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(report.x, [1.0, 1.0], atol=1e-3)

    def test_feasibility_under_transform(self):
        seen = []
        tr = _temporal_transform()

        def objective(x):
            seen.append(x.copy())
            return (x[0] - 0.4) ** 2 + x[1] ** 2 + x[2] ** 2

        nelder_mead(objective, np.array([0.9, 1.0, -1.0]), transforms=tr)
        seen = np.array(seen)
        assert np.all((seen[:, 0] > 0.0) & (seen[:, 0] < 1.0))

    def test_eval_budget_reports_non_convergence(self):
        report = nelder_mead(
            lambda x: np.sum(x ** 2),
            np.full(6, 10.0),
            options=FitOptions(max_evals=20),
        )
        assert not report.converged
        assert report.n_evals <= 20

    def test_nan_objective_treated_as_infinite(self):
        def holey(x):
            return np.nan if x[0] > 1.0 else (x[0] - 0.5) ** 2

        report = nelder_mead(holey, np.array([0.0]))
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

    def test_report_counts_pairs(self):
        data = _sim(779, n_dates=5, n_sites=4)
        report = fit_scheme1(data, ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0), FitOptions(max_evals=400))
        assert report.n_pairs == 10 * 6
        assert report.iterations > 0

    def test_too_small_data_rejected(self, smith_identity, markov_standard):
        data = simulate_markov_planar(
            SiteSet.planar(np.array([[0.0, 0.0], [1.0, 0.0]])), 1,
            smith_identity, markov_standard, SeededStream(0),
        )
        with pytest.raises(ValidationError):
            pairwise_loglik(data, THETA0)
