"""Spatio-temporal dependence summaries, analytic and empirical.

For the planar Smith-innovation model the pair extremal coefficient has the
closed form ``theta(l, h) = V(1, a**-l; h1) + 1 - a**l`` with ``h1`` the
Mahalanobis length of ``h - l*tau``; the Frechet-scale madogram
``nu = 1/2 - 1/(theta + 1)`` is in bijection with it.  The empirical
estimator averages ``|e^{-1/z} - e^{-1/z'}| / 2`` over exact lag matches in
a simulated field, which is the rank-robust route back to ``theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spacetime import MarkovParams, SpaceTimeField
from .spatial import SmithParams, mahalanobis_distance, smith_exponent_bivariate

__all__ = [
    "LagSpec",
    "MadogramEstimate",
    "extremal_coefficient",
    "f_madogram",
    "madogram_to_theta",
    "theta_to_madogram",
    "empirical_madogram",
    "pool_madograms",
    "frechet_cdf",
]


@dataclass(frozen=True)
class LagSpec:
    """A space-time lag: real time lag and planar spatial offset."""

    time_lag: float
    space_lag: tuple[float, float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_lag):
            raise ValidationError(f"time_lag must be finite, got {self.time_lag!r}")
        if len(self.space_lag) != 2 or not all(math.isfinite(c) for c in self.space_lag):
            raise ValidationError(f"space_lag must be a finite 2-vector, got {self.space_lag!r}")
        object.__setattr__(
            self, "space_lag", (float(self.space_lag[0]), float(self.space_lag[1]))
        )

    def space_array(self) -> np.ndarray:
        return np.array(self.space_lag, dtype=float)


def frechet_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard Frechet CDF: ``exp(-1/z)`` for positive ``z``, else 0."""
    z = np.asarray(z, dtype=float)
    positive = z > 0
    out = np.where(positive, np.exp(-1.0 / np.where(positive, z, 1.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def extremal_coefficient(lag: LagSpec, spatial: SmithParams, markov: MarkovParams) -> float:
    """Pair extremal coefficient of the planar model at a space-time lag.

    Negative time lags are mapped through the stationarity symmetry
    ``theta(-l, -h) = theta(l, h)``.  Values run from 1 (complete
    dependence, zero lag) to 2 (independence).
    """
    l = lag.time_lag
    h = lag.space_array()
    if l < 0:
        l, h = -l, -h
    a = markov.a
    tau = markov.tau_array()
    al = a ** l
    h1 = float(mahalanobis_distance(h - l * tau, spatial))
    value = smith_exponent_bivariate(1.0, 1.0 / al, h1) + 1.0 - al
    # Clip roundoff just outside the theoretical range.
    return float(min(max(value, 1.0), 2.0))


def theta_to_madogram(theta: float) -> float:
    """Madogram value implied by an extremal coefficient."""
    if not 1.0 <= theta <= 2.0:
        raise ValidationError(f"theta must lie in [1, 2], got {theta!r}")
    return 0.5 - 1.0 / (theta + 1.0)


def f_madogram(lag: LagSpec, spatial: SmithParams, markov: MarkovParams) -> float:
    """Frechet-scale madogram ``(theta - 1) / (2 (theta + 1))`` at a lag."""
    return theta_to_madogram(extremal_coefficient(lag, spatial, markov))


def madogram_to_theta(nu: float) -> float:
    """Invert the madogram map: ``theta = (1 + 2 nu) / (1 - 2 nu)``."""
    if not (0.0 <= nu < 0.5):
        raise ValidationError(f"nu must lie in [0, 1/2), got {nu!r}")
    return (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)


@dataclass(frozen=True)
class MadogramEstimate:
    """Empirical madogram value with the pair count behind it."""

    nu_hat: float
    n_pairs: int

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValidationError("n_pairs must be positive")
        if not (0.0 <= self.nu_hat <= 0.5):
            raise ValidationError(f"nu_hat must lie in [0, 1/2], got {self.nu_hat!r}")


def empirical_madogram(
    field: SpaceTimeField,
    lag: LagSpec,
    *,
    bin_radius: float = 0.0,
) -> MadogramEstimate:
    """Average half absolute Frechet-CDF difference over lag-matched pairs.

    Pairs ``((t, x), (t + l, x + h))`` are matched exactly by default;
    ``bin_radius`` admits site offsets within that Euclidean distance of
    ``h`` for irregular data.  Ordered enumeration over the field
    (both directions counted once via the signed lag) keeps zero-lag
    estimates well defined: a duplicated site at zero lag yields 0.

    Raises
    ------
    ValidationError
        If no pair matches; the message lists the available exact lags.
    """
    if bin_radius < 0:
        raise ValidationError(f"bin_radius must be non-negative, got {bin_radius!r}")
    if field.sites.kind != "planar":
        raise ValidationError("empirical_madogram requires a planar field")
    l = lag.time_lag
    h = lag.space_array()
    dates = np.asarray(field.dates)
    coords = np.asarray(field.sites.coords)
    u = frechet_cdf(np.asarray(field.values))

    date_diff = dates[None, :] - dates[:, None]
    ti, tj = np.nonzero(date_diff == l)
    site_diff = coords[None, :, :] - coords[:, None, :]
    gap = np.linalg.norm(site_diff - h[None, None, :], axis=-1)
    sk, sl = np.nonzero(gap <= bin_radius)
    if ti.size == 0 or sk.size == 0:
        avail_t = sorted(set(np.unique(date_diff).tolist()))
        raise ValidationError(
            f"no pair matches lag (l={l}, h={tuple(h.tolist())}); "
            f"available date lags: {avail_t}"
        )
    diffs = np.abs(u[np.ix_(tj, sl)] - u[np.ix_(ti, sk)])
    return MadogramEstimate(float(0.5 * diffs.mean()), int(diffs.size))


def pool_madograms(estimates: list[MadogramEstimate]) -> MadogramEstimate:
    """Pair-count weighted pooling across independent replicates."""
    if not estimates:
        raise ValidationError("nothing to pool")
    n = sum(e.n_pairs for e in estimates)
    nu = sum(e.nu_hat * e.n_pairs for e in estimates) / n
    return MadogramEstimate(float(nu), int(n))
