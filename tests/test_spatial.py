"""Spatial innovation models: storm shapes, simulators, exponent functions."""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest

from maxstorm import (
    ResourceError,
    SchlatherParams,
    SeededStream,
    SiteSet,
    SmithParams,
    ValidationError,
    VmfParams,
    correlation_powered_exponential,
    fibonacci_sphere,
    finite_dim_neg_log_cdf,
    gaussian_density_2d,
    simulate_schlather,
    simulate_smith,
    simulate_vmf_field,
    smith_exponent_bivariate,
    smith_exponent_numeric,
    vmf_density,
)
from maxstorm.point_process import STORM_CAP
from maxstorm.spatial import _CandidateLists, _smith_values

TWO_PI = 2.0 * np.pi


class TestSmithParams:
    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValidationError):
            SmithParams(1.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            SmithParams(-1.0, 0.0, 1.0)

    def test_sigma_inverse_consistent(self):
        p = SmithParams(2.0, 0.5, 1.5)
        np.testing.assert_allclose(p.sigma @ p.sigma_inv, np.eye(2), atol=1e-12)


class TestGaussianDensity:
    def test_value_at_origin_identity_covariance(self):
        assert gaussian_density_2d((0.0, 0.0), SmithParams(1, 0, 1)) == pytest.approx(
            1.0 / TWO_PI, rel=1e-12
        )

    def test_integrates_to_one(self):
        p = SmithParams(1, 0, 1)
        val, _ = integrate.dblquad(
            lambda y, x: gaussian_density_2d(np.array([x, y]), p), -8, 8, -8, 8
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_even_symmetry(self):
        p = SmithParams(1.3, -0.4, 0.9)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            assert gaussian_density_2d(x, p) == pytest.approx(
                gaussian_density_2d(-x, p), rel=1e-14
            )


class TestSimulateSmith:
    def test_margins_are_frechet(self, one_site, smith_identity):
        stream = SeededStream(314159)
        draws = np.array([
            simulate_smith(one_site, smith_identity, stream.child(i)).values[0]
            for i in range(5000)
        ])
        for z in (0.5, 1.0, 3.0):
            assert abs(np.mean(draws <= z) - np.exp(-1.0 / z)) < 0.02

    def test_pair_exceedance_matches_bivariate_exponent(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [1.0, 0.0]]))
        stream = SeededStream(161616)
        vals = np.array([
            simulate_smith(sites, smith_identity, stream.child(i)).values
            for i in range(5000)
        ])
        emp = -np.log(np.mean(np.all(vals <= 1.0, axis=1)))
        assert abs(emp - smith_exponent_bivariate(1.0, 1.0, 1.0)) < 0.05

    def test_distant_sites_are_independent(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [50.0, 0.0]]))
        stream = SeededStream(515151)
        u = np.array([
            np.exp(-1.0 / simulate_smith(sites, smith_identity, stream.child(i)).values)
            for i in range(5000)
        ])
        nu = 0.5 * np.mean(np.abs(u[:, 0] - u[:, 1]))
        theta = (1 + 2 * nu) / (1 - 2 * nu)
        assert abs(theta - 2.0) < 0.05

    def test_deterministic_given_stream(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [1.0, 1.0]]))
        a = simulate_smith(sites, smith_identity, SeededStream(9)).values
        b = simulate_smith(sites, smith_identity, SeededStream(9)).values
        np.testing.assert_array_equal(a, b)


    def test_storm_cap_raises_resource_error(self, smith_identity):
        # 64 storms over a window this wide cannot cover both sites, so the
        # stopping rule has not fired when the cap is reached.
        sites = SiteSet.planar(np.array([[0.0, 0.0], [1000.0, 0.0]]))
        with pytest.raises(ResourceError):
            simulate_smith(sites, smith_identity, SeededStream(3), cap=64)


def _dense_smith_reference(coords, params, rng):
    """The storm loop with every storm evaluated at every entry.

    Same draws as the simulator: per doubling block the exponentials, then
    the centers; the stopping rule is checked at block ends.
    """
    r_buf = params.buffer_radius()
    lo, hi = coords.min(axis=0) - r_buf, coords.max(axis=0) + r_buf
    area = float(np.prod(hi - lo))
    si, norm = params.sigma_inv, params.density_bound
    values = np.zeros(coords.shape[0])
    p_last, used, block = 0.0, 0, 64
    while True:
        p = p_last + np.cumsum(rng.exponential(size=block))
        p_last = float(p[-1])
        u = area / p
        centers = rng.uniform(lo, hi, size=(block, 2))
        for k in range(0, block, 256):
            dx = coords[None, :, :] - centers[k : k + 256, None, :]
            q = (
                si[0, 0] * dx[..., 0] ** 2
                + 2.0 * si[0, 1] * dx[..., 0] * dx[..., 1]
                + si[1, 1] * dx[..., 1] ** 2
            )
            bumps = u[k : k + 256, None] * (norm * np.exp(-0.5 * q))
            np.maximum(values, bumps.max(axis=0), out=values)
        used += block
        if u[-1] * norm < values.min():
            return values, used
        block = min(2 * block, 65536)


class TestLocalEvaluation:
    """Local and dense storm evaluation reproduce the dense loop exactly."""

    @pytest.mark.parametrize(
        "n_sites, n_lags, local",
        [(20, 30, True), (1, 1, False)],
        ids=["20 sites x 30 lags", "one site"],
    )
    def test_matches_dense_reference_bit_for_bit(self, n_sites, n_lags, local):
        params = SmithParams(1.0, 0.3, 2.0)
        grid = np.random.default_rng(0).uniform(0, 10, size=(n_sites, 2))
        coords = np.concatenate([grid + lag * np.array([1.0, 1.0]) for lag in range(n_lags)])
        values, n_storms, n_evals = _smith_values(
            coords, params, SeededStream(1).generator(), STORM_CAP
        )
        ref_values, ref_storms = _dense_smith_reference(coords, params, SeededStream(1).generator())
        assert n_storms == ref_storms
        np.testing.assert_array_equal(values, ref_values)
        dense_evals = n_storms * coords.shape[0]
        assert (n_evals < dense_evals) if local else (n_evals == dense_evals)

    def test_candidate_lists_hold_exactly_the_entries_in_reach(self):
        # A cell's list is every entry within r_buf of the cell's rectangle,
        # so it covers the r_buf disk around any storm center in the cell.
        rng = np.random.default_rng(4)
        coords = np.concatenate([rng.uniform(0, 10, size=(20, 2)) + lag for lag in range(12)])
        r_buf = 5.5
        lo, hi = coords.min(axis=0) - r_buf, coords.max(axis=0) + r_buf
        cells = _CandidateLists(coords, lo, hi, r_buf)
        assert np.all(cells.side <= 0.5 * r_buf)
        for cell in range(cells.indptr.size - 1):
            ix, iy = divmod(cell, cells.shape[1])
            corner = lo + np.array([ix, iy]) * cells.side
            gap = np.maximum(np.maximum(corner - coords, coords - corner - cells.side), 0.0)
            in_reach = np.flatnonzero(np.hypot(gap[:, 0], gap[:, 1]) <= r_buf)
            listed = cells.indices[cells.indptr[cell] : cells.indptr[cell + 1]]
            np.testing.assert_array_equal(np.sort(listed), in_reach)
        centers = rng.uniform(lo, hi, size=(500, 2))
        start, count = cells.rows(centers)
        for c, s, n in zip(centers, start, count):
            near = np.flatnonzero(np.hypot(*(coords - c).T) <= r_buf)
            assert np.isin(near, cells.indices[s : s + n]).all()

    def test_wide_window_gets_coarser_cells_that_still_cover_reach(self, smith_identity):
        # A window thousands of buffer radii wide caps the grid instead of
        # allocating a row pointer per r_buf/2 cell.
        rng = np.random.default_rng(5)
        coords = np.concatenate([rng.uniform(0, 3, size=(30, 2)), [[1e6, 1e6]]])
        r_buf = 5.5
        lo, hi = coords.min(axis=0) - r_buf, coords.max(axis=0) + r_buf
        cells = _CandidateLists(coords, lo, hi, r_buf)
        assert np.all(cells.shape <= 1024) and np.all(cells.side > 0.5 * r_buf)
        centers = np.concatenate([rng.uniform(-6, 9, size=(300, 2)), 1e6 + rng.uniform(-6, 6, size=(50, 2))])
        start, count = cells.rows(centers)
        for c, s, n in zip(centers, start, count):
            near = np.flatnonzero(np.hypot(*(coords - c).T) <= r_buf)
            assert np.isin(near, cells.indices[s : s + n]).all()
        with pytest.raises(ResourceError):
            simulate_smith(SiteSet.planar(coords), smith_identity, SeededStream(3), cap=64)

    def test_simulate_smith_reports_evaluations(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [1.0, 1.0]]))
        meta = simulate_smith(sites, smith_identity, SeededStream(9)).meta
        assert meta["n_storm_evals"] == 2 * meta["n_storms"]


class TestSchlather:
    def test_correlation_examples(self):
        p = SchlatherParams(3.0, 1.0)
        assert correlation_powered_exponential(0.0, p) == 1.0
        assert correlation_powered_exponential(3.0, p) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_correlation_monotone_decreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = SchlatherParams(rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.0))
            assert correlation_powered_exponential(1.0, p) > correlation_powered_exponential(2.0, p)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            correlation_powered_exponential(-0.1, SchlatherParams(3.0, 1.0))

    def test_margins_near_frechet(self, one_site):
        p = SchlatherParams(3.0, 1.0)
        stream = SeededStream(626262)
        draws = np.array([
            simulate_schlather(one_site, p, stream.child(i), 1000).values[0]
            for i in range(5000)
        ])
        ks = kstest(draws, lambda z: np.exp(-1.0 / np.maximum(z, 1e-12))).statistic
        assert ks <= 0.03

    def test_storm_count_truncated_at_n_storms(self):
        grid = SiteSet.planar(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        for n_storms in (1, 3):
            out = simulate_schlather(grid, SchlatherParams(1.0, 1.0), SeededStream(8), n_storms)
            assert out.meta["n_storms"] == n_storms
            assert out.meta["stopped_early"] is False

    def test_duplicated_sites_share_values(self):
        sites = SiteSet.planar(np.array([[1.0, 1.0], [1.0, 1.0]]))
        out = simulate_schlather(sites, SchlatherParams(3.0, 1.0), SeededStream(5), 500)
        assert out.values[0] == out.values[1]


class TestVmf:
    def test_density_uniform_limit_at_zero_concentration(self):
        north = np.array([0.0, 0.0, 1.0])
        assert vmf_density(north, north, VmfParams(0.0)) == pytest.approx(
            1.0 / (4 * np.pi), rel=1e-12
        )

    def test_density_at_center(self):
        north = np.array([0.0, 0.0, 1.0])
        # kappa e^kappa / (4 pi sinh kappa) at kappa=1, evaluated exactly.
        expected = 1.0 / (TWO_PI * (1.0 - np.exp(-2.0)))
        assert vmf_density(north, north, VmfParams(1.0)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.18406549961659598, rel=1e-15)

    def test_density_integrates_to_one_on_sphere(self):
        mu = np.array([0.0, 0.0, 1.0])
        p = VmfParams(2.0)

        def polar_slice(t):
            x = np.array([np.sin(t), 0.0, np.cos(t)])
            return vmf_density(x, mu, p) * TWO_PI * np.sin(t)

        val, _ = integrate.quad(polar_slice, 0.0, np.pi, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_field_margins_are_frechet(self):
        mesh = fibonacci_sphere(1)
        stream = SeededStream(161803)
        draws = np.array([
            simulate_vmf_field(mesh, VmfParams(1.0), stream.child(i)).values[0]
            for i in range(5000)
        ])
        for z in (0.5, 1.0, 3.0):
            assert abs(np.mean(draws <= z) - np.exp(-1.0 / z)) < 0.02

    def test_zero_concentration_gives_constant_field(self):
        mesh = fibonacci_sphere(12)
        out = simulate_vmf_field(mesh, VmfParams(0.0), SeededStream(8))
        assert np.ptp(out.values) == 0.0

    def test_antipodal_sites_nearly_independent_when_concentrated(self):
        mesh = SiteSet.sphere(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        stream = SeededStream(737373)
        u = np.array([
            np.exp(-1.0 / simulate_vmf_field(mesh, VmfParams(5.0), stream.child(i)).values)
            for i in range(3000)
        ])
        nu = 0.5 * np.mean(np.abs(u[:, 0] - u[:, 1]))
        theta = (1 + 2 * nu) / (1 - 2 * nu)
        assert abs(theta - 2.0) < 0.1


    def test_storm_cap_raises_resource_error(self):
        # Antipodal sites and sharply concentrated storms: 64 storms cannot
        # lift both sites above the stopping threshold.
        sites = SiteSet.sphere(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        with pytest.raises(ResourceError):
            simulate_vmf_field(sites, VmfParams(1000.0), SeededStream(3), cap=64)


class TestSmithExponent:
    def test_equal_thresholds_reduce_to_gaussian_cdf(self):
        from scipy.special import ndtr

        out = smith_exponent_bivariate(1.0, 1.0, 2.0)
        assert out == pytest.approx(2.0 * ndtr(1.0), rel=1e-14)
        assert out == pytest.approx(1.6826894921370859, rel=1e-14)

    def test_order_minus_one_homogeneity(self):
        base = smith_exponent_bivariate(1.0, 2.0, 1.3)
        for c in (0.5, 2.0, 10.0):
            scaled = smith_exponent_bivariate(c * 1.0, c * 2.0, 1.3)
            assert scaled == pytest.approx(base / c, rel=1e-12)

    def test_limits_complete_dependence_and_independence(self):
        near = smith_exponent_bivariate(1.0, 1.0, 1e-9)
        far = smith_exponent_bivariate(1.0, 2.0, 60.0)
        assert near == pytest.approx(1.0, abs=1e-9)
        assert far == pytest.approx(1.0 + 0.5, rel=1e-12)

    def test_numeric_oracle_single_point(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0]]))
        val = smith_exponent_numeric(sites, np.array([2.0]), smith_identity)
        assert val == pytest.approx(0.5, rel=1e-7)

    def test_numeric_oracle_matches_closed_form_pair(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [1.0, 0.0]]))
        val = smith_exponent_numeric(sites, np.array([1.0, 2.0]), smith_identity)
        assert val == pytest.approx(smith_exponent_bivariate(1.0, 2.0, 1.0), rel=1e-6)

    def test_three_collinear_points_between_pair_and_independence(self, smith_identity):
        sites = SiteSet.planar(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        val = smith_exponent_numeric(sites, np.array([1.0, 1.0, 1.0]), smith_identity)
        assert smith_exponent_bivariate(1.0, 1.0, 2.0) < val <= 3.0

    def test_oracle_pair_routing_matches_closed_form(self, smith_identity, markov_standard):
        # Two same-date points: one closed-form block, plus 0.0 for the
        # zero gap after it.
        points = [(1, np.array([0.0, 0.0])), (1, np.array([0.0, 2.0]))]
        got = finite_dim_neg_log_cdf(points, np.array([1.0, 1.0]), smith_identity, markov_standard)
        v = smith_exponent_bivariate(1.0, 1.0, 2.0)
        assert got == pytest.approx(v, rel=1e-14)
        assert got == v + 0.0
