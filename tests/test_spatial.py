"""Spatial innovation models: storm shapes, simulators, exponent functions."""

import logging
import tracemalloc

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
from maxstorm.spatial import (
    _LOCAL_AREA_DISKS,
    _RETIRE_MARGIN,
    _quadratic_form,
    _smith_values,
    _storm_maxima,
)

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


def _dense_smith_reference(coords, params, rng, retire=False):
    """The storm loop with every storm evaluated at every entry.

    Same draws as the simulator: per doubling block the exponentials, then
    the centers; the stopping rule is checked at block ends.  Returns the
    values, the storms drawn and the storm-entry evaluations: every pair,
    or with ``retire`` only the pairs at entries below the block's top
    bump, which the simulator's fold evaluates.
    """
    r_buf = params.buffer_radius()
    lo, hi = coords.min(axis=0) - r_buf, coords.max(axis=0) + r_buf
    area = float(np.prod(hi - lo))
    si, norm = params.sigma_inv, params.density_bound
    values = np.zeros(coords.shape[0])
    p_last, used, evals, block = 0.0, 0, 0, 64
    while True:
        p = p_last + np.cumsum(rng.exponential(size=block))
        p_last = float(p[-1])
        u = area / p
        centers = rng.uniform(lo, hi, size=(block, 2))
        n_live = np.sum(values < u[0] * norm * _RETIRE_MARGIN) if retire else values.size
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
        evals += block * n_live
        if u[-1] * norm < values.min():
            return values, used, evals
        block = min(2 * block, 65536)


def _every_pair_local_reference(coords, params, rng, retire=False):
    """The local storm fold by brute force, driven by the storm loop.

    Every storm is evaluated at every entry within Euclidean distance
    ``r_buf`` of it, whatever the entry's running value.  With ``retire``,
    only at those of the entries below the block's top bump as well, as the
    simulator's fold does.  Returns the values, the storms drawn and the
    storm-entry evaluations.
    """
    r_buf = params.buffer_radius()
    lo, hi = coords.min(axis=0) - r_buf, coords.max(axis=0) + r_buf
    area = float(np.prod(hi - lo))
    assert area > _LOCAL_AREA_DISKS * np.pi * r_buf * r_buf, "layout is on the dense path"
    si, norm = params.sigma_inv, params.density_bound

    def fold(rng, u, values):
        centers = rng.uniform(lo, hi, size=(u.size, 2))
        live = values < u[0] * norm * _RETIRE_MARGIN if retire else True
        evals = 0
        for k in range(0, u.size, 256):
            dx = coords[None, :, :] - centers[k : k + 256, None, :]
            storm, entry = np.nonzero(((dx ** 2).sum(axis=-1) <= r_buf * r_buf) & live)
            bumps = u[k + storm] * (norm * np.exp(-0.5 * _quadratic_form(dx[storm, entry], si)))
            np.maximum.at(values, entry, bumps)
            evals += entry.size
        return evals

    values, n_storms, stopped, _, evals = _storm_maxima(
        rng, coords.shape[0], fold, area, norm, STORM_CAP
    )
    assert stopped
    return values, n_storms, evals


def _shifted_copies(n_sites, n_lags, step, seed=0):
    grid = np.random.default_rng(seed).uniform(0, 10, size=(n_sites, 2))
    return np.concatenate([grid + lag * np.asarray(step) for lag in range(n_lags)])


class _ScriptedGenerator:
    """Plays back given exponentials and storm centers, one block per draw."""

    def __init__(self, blocks):
        self._blocks = iter(blocks)
        self._centers = None

    def exponential(self, size):
        exponentials, self._centers = next(self._blocks)
        assert len(exponentials) == size
        return np.asarray(exponentials, dtype=float)

    def uniform(self, low, high, size):
        assert self._centers.shape == size
        return self._centers


# A line about 640 buffer radii long and one high: most storms reach no
# entry, and each reaches at most a few.
_LONG_LINE = np.column_stack([np.linspace(0.0, 500.0, 40), np.tile([0.0, 1.0], 20)])
_LONG_LINE_PARAMS = SmithParams(0.01, 0.0, 0.02)
# 3,000 entries in a unit square and one far away, under unit storms: most
# storms near the cluster reach every entry of it.
_CLUSTERED = np.concatenate(
    [np.random.default_rng(6).uniform(0, 1, size=(3000, 2)), [[100.0, 0.0]]]
)


class TestLocalEvaluation:
    """Local and dense storm evaluation reproduce the dense loop exactly."""

    @pytest.mark.parametrize(
        "coords, params, local",
        [
            (_shifted_copies(20, 30, (1.0, 1.0)), SmithParams(1.0, 0.3, 2.0), True),
            (_shifted_copies(1, 1, (1.0, 1.0)), SmithParams(1.0, 0.3, 2.0), False),
            (_shifted_copies(4, 4, (1.0, 1.0)), SmithParams(1.0, 0.0, 1.0), False),
            (_shifted_copies(20, 6, (1.0, -0.5)), SmithParams(4.0, 1.9, 1.0), False),
        ],
        ids=["20 sites x 30 lags", "one site", "4 sites x 4 lags", "20x6 elongated"],
    )
    def test_matches_dense_reference_bit_for_bit(self, coords, params, local):
        r_buf = params.buffer_radius()
        area = np.prod(np.ptp(coords, axis=0) + 2.0 * r_buf)
        assert (area > _LOCAL_AREA_DISKS * np.pi * r_buf * r_buf) == local
        values, n_storms, n_evals = _smith_values(
            coords, params, SeededStream(1).generator(), STORM_CAP
        )
        ref_values, ref_storms, ref_evals = _dense_smith_reference(
            coords, params, SeededStream(1).generator(), retire=True
        )
        assert n_storms == ref_storms
        np.testing.assert_array_equal(values, ref_values)
        # The local path evaluates only the live pairs within r_buf.
        assert (n_evals < ref_evals) if local else (n_evals == ref_evals)
        if coords.shape[0] > 1:
            assert ref_evals < n_storms * coords.shape[0], "no entry was retired"

    @pytest.mark.parametrize(
        "coords, params",
        [
            (_shifted_copies(20, 30, (-1.0, -1.0)), SmithParams(1.0, 0.0, 1.0)),
            (_shifted_copies(20, 30, (1.0, 1.0)), SmithParams(1.0, 0.3, 2.0)),
            (_shifted_copies(20, 30, (1.0, -0.5)), SmithParams(4.0, 1.9, 1.0)),
            (_shifted_copies(5, 40, (2.0, 0.0), seed=3), SmithParams(0.5, -0.2, 0.3)),
            (np.array([[0.0, 0.0], [60.0, 0.0], [0.0, 45.0]]), SmithParams(1.0, 0.0, 1.0)),
            (_LONG_LINE, _LONG_LINE_PARAMS),
        ],
        ids=["record 20x30", "20x30 correlated", "20x30 elongated", "5x40", "three far sites", "cell cap"],
    )
    def test_retiring_entries_matches_every_pair_fold(self, coords, params):
        # Entries no later storm can raise are skipped; every value and the
        # storm count stay bit-identical to evaluating every candidate pair.
        values, n_storms, n_evals = _smith_values(
            coords, params, SeededStream(7).generator(), STORM_CAP
        )
        ref_values, ref_storms, ref_evals = _every_pair_local_reference(
            coords, params, SeededStream(7).generator()
        )
        assert n_storms == ref_storms
        np.testing.assert_array_equal(values, ref_values)
        assert n_evals <= ref_evals

    def test_entry_just_below_the_top_bump_stays_live(self):
        # Scripted storms.  Block 1 leaves entry 0 at 0.995 of its top bump
        # and entry 1 at the top bump.  Block 2 starts a hair lower and lands
        # one storm on each entry: entry 1 is retired, entry 0 is raised.
        coords = np.array([[0.0, 0.0], [60.0, 0.0]])
        far = [30.0, 0.0]
        first = np.tile(far, (64, 1))
        first[0] = [np.sqrt(-2.0 * np.log(0.995)), 0.0]
        first[1] = coords[1]
        second = np.tile(far, (128, 1))
        second[5], second[6] = coords
        blocks = [(np.r_[1.0, np.full(63, 1e-9)], first), (np.full(128, 1e-9), second)]
        params = SmithParams(1.0, 0.0, 1.0)
        values, n_storms, n_evals = _smith_values(coords, params, _ScriptedGenerator(blocks), 192)
        ref_values, ref_storms, ref_evals = _every_pair_local_reference(
            coords, params, _ScriptedGenerator(blocks)
        )
        assert n_storms == ref_storms == 192
        np.testing.assert_array_equal(values, ref_values)
        assert values[0] > 0.999 * values[1]
        assert (n_evals, ref_evals) == (3, 4)

    def test_block_with_every_entry_retired_makes_no_evaluation(self):
        # Scripted storms.  The last two storms of block 1 land on the two
        # entries, so the running minimum is the block's last bump and the
        # loop goes on.  Block 2's top bump is a hair lower, which retires
        # both entries: its storms, all on entry 0, are never evaluated, and
        # the stopping rule fires at its end.
        coords = np.array([[0.0, 0.0], [60.0, 0.0]])
        first = np.tile([30.0, 0.0], (64, 1))
        first[62:] = coords
        second = np.tile(coords[0], (128, 1))
        blocks = [(np.r_[1.0, np.full(63, 1e-9)], first), (np.full(128, 1e-6), second)]
        params = SmithParams(1.0, 0.0, 1.0)
        values, n_storms, n_evals = _smith_values(
            coords, params, _ScriptedGenerator(blocks), STORM_CAP
        )
        assert (n_storms, n_evals) == (192, 2)
        ref_values, _, ref_evals = _every_pair_local_reference(
            coords, params, _ScriptedGenerator(blocks)
        )
        np.testing.assert_array_equal(values, ref_values)
        assert ref_evals == 130

    def test_dense_block_with_every_entry_retired_makes_no_evaluation(self):
        # The dense-path twin of the test above: two entries one unit apart.
        # Block 1 evaluates all 64 storms at both entries; block 2, its
        # storms all on entry 0, starts with both entries retired.
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        params = SmithParams(1.0, 0.0, 1.0)
        r_buf = params.buffer_radius()
        assert (1.0 + 2.0 * r_buf) * 2.0 * r_buf <= _LOCAL_AREA_DISKS * np.pi * r_buf * r_buf
        first = np.tile([30.0, 0.0], (64, 1))
        first[62:] = coords
        second = np.tile(coords[0], (128, 1))
        blocks = [(np.r_[1.0, np.full(63, 1e-9)], first), (np.full(128, 1e-6), second)]
        values, n_storms, n_evals = _smith_values(
            coords, params, _ScriptedGenerator(blocks), STORM_CAP
        )
        assert (n_storms, n_evals) == (192, 128)
        ref_values, _, ref_evals = _dense_smith_reference(
            coords, params, _ScriptedGenerator(blocks), retire=True
        )
        np.testing.assert_array_equal(values, ref_values)
        assert ref_evals == 128

    @pytest.mark.parametrize(
        "coords, params",
        [
            (_shifted_copies(20, 12, (1.0, 1.0), seed=4), SmithParams(1.0, 0.0, 1.0)),
            (_LONG_LINE, _LONG_LINE_PARAMS),
            (_CLUSTERED, SmithParams(1.0, 0.0, 1.0)),
        ],
        ids=["20x12", "long line", "clustered"],
    )
    def test_evaluations_are_the_live_pairs_within_reach(self, coords, params):
        values, n_storms, n_evals = _smith_values(
            coords, params, SeededStream(8).generator(), STORM_CAP
        )
        ref_values, ref_storms, ref_evals = _every_pair_local_reference(
            coords, params, SeededStream(8).generator(), retire=True
        )
        assert n_storms == ref_storms
        np.testing.assert_array_equal(values, ref_values)
        assert n_evals == ref_evals

    def test_clustered_layout_keeps_pair_batches_small(self):
        # Each batch of pairs is bounded by _PAIR_CHUNK, however many
        # entries one storm reaches.
        tracemalloc.start()
        try:
            _smith_values(
                _CLUSTERED, SmithParams(1.0, 0.0, 1.0), SeededStream(8).generator(), STORM_CAP
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_window_a_million_wide_exceeds_the_storm_cap(self, smith_identity):
        # Storms spread over the whole window; the cap stops the draw before
        # the far entry is reached, and the call fails cleanly.
        rng = np.random.default_rng(5)
        coords = np.concatenate([rng.uniform(0, 3, size=(30, 2)), [[1e6, 1e6]]])
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

    def test_each_direct_call_warns_once(self, one_site, caplog):
        # The warning must not depend on what ran before in the process.
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="maxstorm.spatial"):
                simulate_schlather(one_site, SchlatherParams(3.0, 1.0), SeededStream(5), 10)
            levels = [r.levelno for r in caplog.records if "stopping envelope" in r.getMessage()]
            assert sorted(levels) == [logging.DEBUG, logging.WARNING]

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
