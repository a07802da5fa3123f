"""Max-autoregression recursion, moving-max form, and joint distributions."""

import logging

import numpy as np
import pytest

from maxstorm import (
    CapabilityError,
    MarkovParams,
    ResourceError,
    RotationSpec,
    SchlatherParams,
    SeededStream,
    SiteSet,
    SmithParams,
    SpaceTimeField,
    ValidationError,
    VmfParams,
    fibonacci_sphere,
    finite_dim_neg_log_cdf,
    frechet_cdf,
    simulate_markov_planar,
    simulate_markov_sphere,
    square_grid,
    truncated_moving_max,
)
from maxstorm.spacetime import _innovation


class TestSpaceTimeField:
    def test_integer_valued_float_dates_are_kept(self, one_site):
        field = SpaceTimeField(one_site, [1.0, 2.0], np.ones((2, 1)))
        assert field.dates.dtype.kind == "i"
        np.testing.assert_array_equal(field.dates, [1, 2])

    @pytest.mark.parametrize("dates", [[1.5, 2.7], [1.0, np.nan], [1.0, np.inf]])
    def test_non_integral_or_non_finite_dates_are_rejected(self, one_site, dates):
        # A cast would silently store [1, 2] for [1.5, 2.7].
        with pytest.raises(ValidationError, match="finite integers"):
            SpaceTimeField(one_site, dates, np.ones((2, 1)))


class TestMarkovParams:
    def test_coefficient_outside_unit_interval_rejected(self):
        for a in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValidationError):
                MarkovParams(a, tau=(-1.0, -1.0))

    def test_exactly_one_kernel_kind_required(self):
        with pytest.raises(ValidationError):
            MarkovParams(0.5)
        with pytest.raises(ValidationError):
            MarkovParams(0.5, tau=(1.0, 0.0), rotation=RotationSpec(0.1, (0.0, 0.0, 1.0)))


_SMITH = SmithParams(1.0, 0.0, 1.0)
_PLANAR = MarkovParams(0.7, tau=(-1.0, -1.0))
_ROTATING = MarkovParams(0.6, rotation=RotationSpec(0.4, (0.0, 0.0, 1.0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: square_grid(2.5),
        lambda: fibonacci_sphere(2.5),
        lambda: simulate_markov_planar(square_grid(2), 2.5, _SMITH, _PLANAR, SeededStream(1)),
        lambda: simulate_markov_sphere(
            fibonacci_sphere(4), True, VmfParams(2.0), _ROTATING, SeededStream(1)
        ),
        lambda: truncated_moving_max(
            square_grid(2), np.arange(1, 4), _SMITH, _PLANAR, 1.5, SeededStream(1)
        ),
    ],
    ids=["grid side", "sphere points", "planar dates", "sphere dates", "truncation depth"],
)
def test_counts_must_be_integers(call):
    # Unchecked, a float count is truncated into a layout or fails inside
    # range(); a bool is no count.
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


class TestPlanarRecursion:
    def test_shape_dates_and_determinism(self, smith_identity, markov_standard):
        grid = square_grid(3)
        out = simulate_markov_planar(grid, 4, smith_identity, markov_standard, SeededStream(2))
        assert out.values.shape == (4, 9)
        np.testing.assert_array_equal(out.dates, [1, 2, 3, 4])
        again = simulate_markov_planar(grid, 4, smith_identity, markov_standard, SeededStream(2))
        np.testing.assert_array_equal(out.values, again.values)
        assert out.meta["n_storms_per_date"] == again.meta["n_storms_per_date"]

    def test_update_rule_holds_exactly(self, smith_identity, markov_standard):
        # Rebuild the recursion from innovation draws on the same child
        # streams.  Entry lag * M + m is output site m shifted back lag
        # steps; the first date is one draw on every entry, and date i takes
        # max(a * previous state one block on, (1-a) * fresh draw) on the
        # (N - i) * M entries later dates still read.  Output date i is the
        # first block of its state.
        grid = square_grid(2)
        m, n_dates = 4, 5
        stream = SeededStream(3)
        field = simulate_markov_planar(grid, n_dates, smith_identity, markov_standard, stream)
        a, tau = markov_standard.a, markov_standard.tau_array()
        entries = np.concatenate([grid.coords - j * tau for j in range(n_dates)])
        state, storms, _ = _innovation(entries, smith_identity, stream.child(0))
        counts = [storms]
        np.testing.assert_array_equal(field.values[0], state[:m])
        for i in range(1, n_dates):
            active = entries[: (n_dates - i) * m]
            z, storms, _ = _innovation(active, smith_identity, stream.child(i))
            counts.append(storms)
            state = np.maximum(a * state[m:], (1 - a) * z)
            np.testing.assert_array_equal(field.values[i], state[:m])
        assert field.meta["n_storms_per_date"] == tuple(counts)

    def test_rejects_sphere_sites_and_bad_dates(self, smith_identity, markov_standard):
        with pytest.raises(ValidationError):
            simulate_markov_planar(fibonacci_sphere(4), 3, smith_identity, markov_standard, SeededStream(0))
        with pytest.raises(ValidationError):
            simulate_markov_planar(square_grid(2), 0, smith_identity, markov_standard, SeededStream(0))

    def test_lag_one_dependence_along_moving_frame(self, smith_identity, markov_standard):
        # Pairs (X(t, x), X(t+1, x+tau)) are completely dependent up to the
        # innovation: their extremal coefficient is 2 - a.
        sites = SiteSet.planar(np.array([[0.0, 0.0], [-1.0, -1.0]]))
        stream = SeededStream(848484)
        nus = []
        for r in range(600):
            f = simulate_markov_planar(sites, 4, smith_identity, markov_standard, stream.child(r))
            u = frechet_cdf(f.values)
            nus.append(np.abs(u[1:, 1] - u[:-1, 0]))
        nu = 0.5 * np.concatenate(nus).mean()
        theta = (1 + 2 * nu) / (1 - 2 * nu)
        assert abs(theta - (2.0 - 0.7)) < 0.05


    def test_schlather_recursion_warns_once_per_call(self, markov_standard, caplog):
        # Each date draws on fewer active entries, so a warning per site count
        # would fire once a date.  The count must not depend on what ran
        # before, so the call is made twice.
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="maxstorm.spatial"):
                simulate_markov_planar(
                    square_grid(3), 10, SchlatherParams(2.0, 1.0), markov_standard, SeededStream(5)
                )
            envelope = [r for r in caplog.records if "stopping envelope" in r.getMessage()]
            warnings = [r for r in envelope if r.levelno == logging.WARNING]
            assert len(warnings) == 1
            assert [r.levelno for r in envelope].count(logging.DEBUG) == 10

    def test_schlather_recursion_above_the_site_cap_raises(self, caplog):
        # 400 sites shifted to 11 dates give 4,400 distinct entries.  The
        # first date's draw runs on all of them and stops before any storm.
        mk = MarkovParams(0.7, tau=(0.37, 0.11))
        with caplog.at_level(logging.DEBUG, logger="maxstorm.spatial"):
            with pytest.raises(ResourceError, match="4400 distinct sites") as err:
                simulate_markov_planar(square_grid(20), 11, SchlatherParams(3.0, 1.0), mk, SeededStream(7))
        assert "thin the sites, shorten the record or use the Smith model" in str(err.value)
        assert caplog.records == []

    def test_storm_evaluations_are_local(self, smith_identity, markov_standard):
        # The study's first record at seed 1, lengthened to 30 dates: at date
        # 0 a dense loop would evaluate every storm at all 600 entries.
        root = SeededStream(1).child(0)
        sites = SiteSet.planar(root.child(0).generator().uniform(0.0, 10.0, size=(20, 2)))
        out = simulate_markov_planar(sites, 30, smith_identity, markov_standard, root.child(1))
        storms = out.meta["n_storms_per_date"]
        evals = out.meta["n_storm_evals_per_date"]
        assert len(evals) == 30
        assert evals[0] <= 0.25 * storms[0] * 600
        for i in range(30):
            assert 0 < evals[i] <= storms[i] * (30 - i) * 20
        # Entries no later storm can raise are retired on both paths: 250,516
        # evaluations, against 1,455,731 when every pair within r_buf (every
        # pair on a dense date) is evaluated.
        assert sum(evals) <= 700_000


class TestSphereRecursion:
    def test_shape_and_determinism(self):
        mesh = fibonacci_sphere(6)
        mk = MarkovParams(0.6, rotation=RotationSpec(0.4, (0.0, 0.0, 1.0)))
        out = simulate_markov_sphere(mesh, 3, VmfParams(2.0), mk, SeededStream(5))
        assert out.values.shape == (3, 6)
        again = simulate_markov_sphere(mesh, 3, VmfParams(2.0), mk, SeededStream(5))
        np.testing.assert_array_equal(out.values, again.values)

    def test_storm_evaluations_are_dense(self):
        # Spherical storms are evaluated at every entry of each date.
        mesh = fibonacci_sphere(6)
        mk = MarkovParams(0.6, rotation=RotationSpec(0.4, (0.0, 0.0, 1.0)))
        out = simulate_markov_sphere(mesh, 3, VmfParams(2.0), mk, SeededStream(5))
        assert out.meta["n_storm_evals_per_date"] == tuple(
            n * (3 - i) * 6 for i, n in enumerate(out.meta["n_storms_per_date"])
        )

    def test_zero_rotation_reduces_to_sitewise_recursion(self):
        # With no rotation each site runs its own chain; consecutive dates at
        # one site have extremal coefficient 2 - a.
        mesh = fibonacci_sphere(3)
        mk = MarkovParams(0.7, rotation=RotationSpec(0.0, (0.0, 0.0, 1.0)))
        stream = SeededStream(959595)
        nus = []
        for r in range(600):
            f = simulate_markov_sphere(mesh, 4, VmfParams(1.5), mk, stream.child(r))
            u = frechet_cdf(f.values)
            nus.append(np.abs(u[1:, :] - u[:-1, :]).ravel())
        nu = 0.5 * np.concatenate(nus).mean()
        theta = (1 + 2 * nu) / (1 - 2 * nu)
        assert abs(theta - 1.3) < 0.05

    def test_zero_concentration_gives_constant_columns(self):
        mesh = fibonacci_sphere(8)
        mk = MarkovParams(0.5, rotation=RotationSpec(0.3, (0.0, 0.0, 1.0)))
        out = simulate_markov_sphere(mesh, 4, VmfParams(0.0), mk, SeededStream(6))
        assert np.all(np.ptp(out.values, axis=1) == 0.0)

    def test_requires_rotation_and_vmf(self):
        mesh = fibonacci_sphere(4)
        with pytest.raises(ValidationError):
            simulate_markov_sphere(mesh, 2, VmfParams(1.0), MarkovParams(0.5, tau=(1.0, 0.0)), SeededStream(0))


class TestTruncatedMovingMax:
    def test_depth_zero_margins_have_damped_scale(self, one_site, smith_identity, markov_standard):
        stream = SeededStream(707070)
        dates = np.arange(3000)
        out = truncated_moving_max(one_site, dates, smith_identity, markov_standard, 0, stream)
        # J=0 keeps only (1-a) Z: Frechet with scale 1-a, so the median is
        # (1-a)/log 2.
        scale_hat = np.median(out.values[:, 0]) * np.log(2.0)
        assert abs(scale_hat - 0.3) < 0.03

    def test_meta_reports_truncation(self, one_site, smith_identity, markov_standard):
        out = truncated_moving_max(
            one_site, np.arange(5), smith_identity, markov_standard, 50, SeededStream(1)
        )
        assert out.meta["J"] == 50
        assert out.meta["truncation_mass"] == pytest.approx(0.7 ** 51, rel=1e-12)
        assert out.meta["n_storms_total"] > 0

    def test_dates_must_be_integral(self, one_site, smith_identity, markov_standard):
        with pytest.raises(ValidationError, match="finite integers"):
            truncated_moving_max(one_site, [0.5, 1.0], smith_identity, markov_standard, 2, SeededStream(1))
        as_floats = truncated_moving_max(
            one_site, np.array([0.0, 1.0, 2.0]), smith_identity, markov_standard, 2, SeededStream(1)
        )
        as_ints = truncated_moving_max(
            one_site, np.arange(3), smith_identity, markov_standard, 2, SeededStream(1)
        )
        np.testing.assert_array_equal(as_floats.dates, as_ints.dates)
        np.testing.assert_array_equal(as_floats.values, as_ints.values)

    def test_damping_weights_sum_to_marginal_scale(self):
        # Partial sums sum(a^j (1-a), j<=J) = 1 - a^{J+1}.
        a, J = 0.7, 9
        weights = (1 - a) * a ** np.arange(J + 1)
        assert weights.sum() == pytest.approx(1 - a ** (J + 1), rel=1e-12)


class TestFiniteDimensionalCdf:
    def test_single_point_is_frechet_exponent(self, smith_identity, markov_standard):
        val = finite_dim_neg_log_cdf([(1, np.array([0.0, 0.0]))], np.array([1.0]), smith_identity, markov_standard)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_pair_on_moving_frame_reduces_to_temporal_chain(self, smith_identity, markov_standard):
        pts = [(1, np.array([0.0, 0.0])), (2, np.array([-1.0, -1.0]))]
        val = finite_dim_neg_log_cdf(pts, np.array([1.0, 1.0]), smith_identity, markov_standard)
        assert val == pytest.approx(2.0 - 0.7, rel=1e-10)

    def test_same_date_points_commute_and_unsorted_dates_rejected(self, smith_identity, markov_standard):
        pts = [(1, np.array([0.0, 0.0])), (2, np.array([0.5, -0.5])), (2, np.array([-1.0, 0.0]))]
        z = np.array([1.0, 2.0, 1.5])
        forward = finite_dim_neg_log_cdf(pts, z, smith_identity, markov_standard)
        swapped = [pts[0], pts[2], pts[1]]
        z_swapped = z[[0, 2, 1]]
        backward = finite_dim_neg_log_cdf(swapped, z_swapped, smith_identity, markov_standard)
        assert forward == pytest.approx(backward, rel=1e-12)
        with pytest.raises(ValidationError):
            finite_dim_neg_log_cdf([pts[1], pts[0], pts[2]], z[[1, 0, 2]], smith_identity, markov_standard)

    def test_far_thresholds_leave_last_margin(self, smith_identity, markov_standard):
        pts = [(1, np.array([0.0, 0.0])), (3, np.array([1.0, 0.0]))]
        val = finite_dim_neg_log_cdf(pts, np.array([1e9, 2.0]), smith_identity, markov_standard)
        assert val == pytest.approx(0.5, abs=1e-8)

    def test_monotone_in_thresholds(self, smith_identity, markov_standard):
        pts = [(1, np.array([0.0, 0.0])), (2, np.array([0.0, 1.0]))]
        lo = finite_dim_neg_log_cdf(pts, np.array([1.0, 1.0]), smith_identity, markov_standard)
        hi = finite_dim_neg_log_cdf(pts, np.array([2.0, 2.0]), smith_identity, markov_standard)
        assert hi < lo

    def test_matches_monte_carlo_three_points(self, smith_identity, markov_standard):
        pts = [(1, np.array([0.0, 0.0])), (2, np.array([0.5, -0.5])), (2, np.array([-1.0, 0.0]))]
        z = np.array([2.0, 2.0, 2.0])
        exact = finite_dim_neg_log_cdf(pts, z, smith_identity, markov_standard)
        sites = SiteSet.planar(np.array([[0.0, 0.0], [0.5, -0.5], [-1.0, 0.0]]))
        stream = SeededStream(123321)
        hits = 0
        n = 20000
        for r in range(n):
            f = simulate_markov_planar(sites, 2, smith_identity, markov_standard, stream.child(r))
            ok = f.values[0, 0] <= z[0] and f.values[1, 1] <= z[1] and f.values[1, 2] <= z[2]
            hits += bool(ok)
        assert abs(-np.log(hits / n) - exact) <= 0.03

    @pytest.mark.parametrize("pts", [
        pytest.param([(t, np.array([float(t), 0.0])) for t in range(1, 6)], id="five_dates"),
        pytest.param(
            [(1, c) for c in np.random.default_rng(0).uniform(0, 1, (5, 2))], id="one_date"
        ),
    ])
    def test_five_points_outside_envelope(self, pts, smith_identity, markov_standard):
        with pytest.raises(CapabilityError):
            finite_dim_neg_log_cdf(pts, np.ones(5), smith_identity, markov_standard)
