"""Spatial innovation fields and the Smith exponent machinery.

Three max-stable innovation models are simulated at finite site sets:

* Smith storms on the plane: deterministic Gaussian-density bumps
  ``U_i h_Sigma(x - C_i)`` with centers from a homogeneous Poisson process;
* Schlather fields on the plane: rescaled stationary Gaussian processes
  ``sqrt(2*pi) * eps(x)`` with powered-exponential correlation (approximate
  by nature, used for figures, never for likelihood work);
* von Mises-Fisher storms on the unit sphere.

All three are one spectral construction: the pointwise maximum of
``U_i * shape_i(x)`` over the Poisson intensities ``U_i = area / P_i``, with
``P_i`` partial sums of unit exponentials.  One private kernel,
:func:`_storm_maxima`, runs that loop for every model; a model supplies a
per-block fold that draws its storms and folds them into the running
maxima, and the shape supremum that makes the stopping rule sound.  The
kernel also holds the one storm cap, ``STORM_CAP``, of every model.

Schlather and von Mises-Fisher storms are evaluated at every site.  Smith
storms skip the sites whose running maximum no later storm can raise, which
changes no value.  A Smith storm window larger in area than six disks of
the buffer radius ``r_buf`` also evaluates each storm only at the sites
within ``r_buf`` of it, which a k-d tree over the sites finds.  A storm
farther from a site reaches it only through Gaussian mass outside that
disk, at most ``EPS_TAIL / 4`` of its scale, inside the leak the window
already allows.  Both evaluations consume the same draws, and their values
differ only where a storm outside that disk would have set the maximum.

Every simulator consumes a :class:`~maxstorm.point_process.SeededStream` and
is a pure function of it; margins are standard Frechet on the exact paths
(Smith, sphere) and approximately so for Schlather.

The closed-form bivariate Smith exponent, together with an
adaptive-quadrature evaluation of the M-variate exponent, lives here as
well; dependence and the joint CDF compose it into space-time quantities.
Sites enter as coordinate arrays, wrapped in a
:class:`~maxstorm.geometry.SiteSet` where a whole set is meant.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree
from scipy.special import ndtr

from .errors import NumericalError, ResourceError, ValidationError
from .geometry import SiteSet
from .point_process import STORM_CAP, SeededStream

__all__ = [
    "SmithParams",
    "SchlatherParams",
    "VmfParams",
    "SpatialField",
    "gaussian_density_2d",
    "simulate_smith",
    "simulate_schlather",
    "correlation_powered_exponential",
    "vmf_density",
    "simulate_vmf_field",
    "smith_exponent_bivariate",
    "smith_exponent_numeric",
    "mahalanobis_distance",
]

logger = logging.getLogger(__name__)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
INV_TWO_PI = 1.0 / (2.0 * math.pi)
# Fraction of a site's Frechet scale allowed to fall outside the storm window.
EPS_TAIL = 1e-6
# Below this Mahalanobis distance the bivariate exponent switches to its
# complete-dependence limit; the generic formula hits 0/0.
H_COMPLETE_DEP = 1e-8
# Dense-site cap for the Schlather correlation Cholesky.
SCHLATHER_MAX_SITES = 4000
# Stopping envelope of the unbounded Schlather spectral functions: a storm
# whose Gaussian process exceeds it somewhere may be cut off too early.
SCHLATHER_B_MAX = 4.0
# Quadrature tolerances of smith_exponent_numeric.
_QUAD_EPSABS = 1e-9
_QUAD_EPSREL = 1e-7
_KAPPA_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class SmithParams:
    """Covariance entries of the Gaussian storm shape."""

    sigma11: float
    sigma12: float
    sigma22: float

    def __post_init__(self) -> None:
        for name, v in (
            ("sigma11", self.sigma11),
            ("sigma12", self.sigma12),
            ("sigma22", self.sigma22),
        ):
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        det = self.sigma11 * self.sigma22 - self.sigma12 ** 2
        if not (self.sigma11 > 0 and self.sigma22 > 0 and det > 0):
            raise ValidationError(
                "storm covariance must be positive definite, got "
                f"[[{self.sigma11}, {self.sigma12}], [{self.sigma12}, {self.sigma22}]]"
            )

    @property
    def sigma(self) -> np.ndarray:
        return np.array([[self.sigma11, self.sigma12], [self.sigma12, self.sigma22]])

    @property
    def det(self) -> float:
        return self.sigma11 * self.sigma22 - self.sigma12 ** 2

    @property
    def sigma_inv(self) -> np.ndarray:
        d = self.det
        return np.array(
            [[self.sigma22 / d, -self.sigma12 / d], [-self.sigma12 / d, self.sigma11 / d]]
        )

    @property
    def density_bound(self) -> float:
        """Supremum of the storm shape, attained at the center."""
        return INV_TWO_PI / math.sqrt(self.det)

    @property
    def largest_eigenvalue(self) -> float:
        tr, det = self.sigma11 + self.sigma22, self.det
        return 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))

    def buffer_radius(self) -> float:
        """Window buffer leaving at most ``EPS_TAIL`` of any site's scale outside.

        Chernoff bound on the Gaussian tail along the worst axis, with a
        factor 4 covering both axes and both signs.
        """
        return math.sqrt(2.0 * self.largest_eigenvalue * math.log(4.0 / EPS_TAIL))


@dataclass(frozen=True)
class SchlatherParams:
    """Powered-exponential correlation: range ``c1``, smoothness ``c2``."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c1) and self.c1 > 0):
            raise ValidationError(f"c1 must be positive, got {self.c1!r}")
        if not (math.isfinite(self.c2) and 0 < self.c2 < 2):
            raise ValidationError(f"c2 must lie in (0, 2), got {self.c2!r}")


@dataclass(frozen=True)
class VmfParams:
    """Concentration of the spherical storm shape; 0 means uniform storms."""

    kappa: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValidationError(f"kappa must be non-negative, got {self.kappa!r}")


@dataclass(frozen=True)
class SpatialField:
    """One simulated innovation field: a positive value per site."""

    sites: SiteSet
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.sites),):
            raise ValidationError(
                f"values shape {values.shape} does not match {len(self.sites)} sites"
            )
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError("field values must be finite and strictly positive")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _quadratic_form(dx: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    """``dx' Sigma^{-1} dx`` over the last axis of ``(..., 2)`` offsets."""
    si = sigma_inv
    return (
        si[0, 0] * dx[..., 0] ** 2
        + 2.0 * si[0, 1] * dx[..., 0] * dx[..., 1]
        + si[1, 1] * dx[..., 1] ** 2
    )


def gaussian_density_2d(x: np.ndarray, params: SmithParams) -> float | np.ndarray:
    """Centered bivariate Gaussian density, vectorized over ``(..., 2)`` input."""
    q = _quadratic_form(np.asarray(x, dtype=float), params.sigma_inv)
    out = np.exp(-0.5 * q) * params.density_bound
    return float(out) if out.ndim == 0 else out


def _mahalanobis(dx: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    """``sqrt(dx' Sigma^{-1} dx)`` over the last axis, rounding-safe at 0."""
    return np.sqrt(np.maximum(_quadratic_form(dx, sigma_inv), 0.0))


def mahalanobis_distance(dx: np.ndarray, params: SmithParams) -> float | np.ndarray:
    """``sqrt(dx' Sigma^{-1} dx)``, vectorized over ``(..., 2)`` input."""
    out = _mahalanobis(np.asarray(dx, dtype=float), params.sigma_inv)
    return float(out) if out.ndim == 0 else out


def _storm_maxima(
    rng: np.random.Generator,
    n_entries: int,
    fold: Callable[[np.random.Generator, np.ndarray, np.ndarray], int],
    area: float,
    sup: float,
    limit: int,
    max_block: int = 65536,
) -> tuple[np.ndarray, int, int]:
    """Running maximum of ``U_i * shape_i`` over a Poisson storm sequence.

    Intensities ``U_i = area / P_i`` are drawn in doubling blocks, each
    block's exponentials first; ``fold(rng, u, values)`` then draws the
    block's storms and folds ``u * shape`` into ``values`` in place,
    returning how many storm-entry evaluations it made.  The Schlather and
    sphere models evaluate every storm at every entry (:func:`_fold_dense`);
    the Smith model evaluates storms only at the entries below the block's
    top bump ``u[0] * sup``, and on a wide window only within their reach.
    Since the intensities decrease, no storm of the block or of a later one
    can raise an entry at or above that bump; once ``U_last * sup`` falls
    below the running minimum over entries, that holds for every entry and
    the loop stops.  Storms past the stopping index inside the final block
    are legitimate points of the process, so applying them is harmless.

    Every model draws under one cap, ``limit`` storms (``STORM_CAP`` unless
    a test sets it): a draw that reaches it before the stopping rule fires
    raises :class:`~maxstorm.errors.ResourceError`, since the storms it
    left out could still raise some entry.  When the rule fires, every
    value exceeds ``U_last * sup > 0``.

    Returns the values, the storms drawn and the storm-entry evaluations
    made.
    """
    values = np.zeros(n_entries)
    p_last = 0.0
    used = evals = 0
    block = 64
    while used < limit:
        b = min(block, limit - used)
        p = p_last + np.cumsum(rng.exponential(size=b))
        p_last = float(p[-1])
        u = area / p
        evals += fold(rng, u, values)
        used += b
        if u[-1] * sup < values.min():
            return values, used, evals
        block = min(block * 2, max_block)
    raise ResourceError(f"storm count reached the cap {limit} before the stopping rule fired")


def _fold_dense(values: np.ndarray, u: np.ndarray, shapes: np.ndarray) -> int:
    """Fold a ``(b, n_entries)`` block of shapes scaled by ``u`` into ``values``."""
    np.maximum(values, (u[:, None] * shapes).max(axis=0), out=values)
    return shapes.size


# Storm-entry pairs evaluated at once; bounds a block's temporaries whatever
# the record length (each pair array is 512 KiB).
_PAIR_CHUNK = 1 << 16
# Windows larger than this many disks of radius r_buf go through local
# evaluation.  With entries retired on both paths, timed on records of the
# study recipe: every window dense made 20 x 30 records 2.4x slower, and
# every window local made 4 x 4 records 1.7x slower.  3 disks made 4 x 4
# records 1.6x slower (an elongated-Sigma 20 x 30 record 0.76x), and 12
# disks made 20 x 20 records 1.1x slower, so 6 stays.
_LOCAL_AREA_DISKS = 6.0
# An entry at or above this multiple of a block's top bump ``u[0] * sup`` is
# out of reach of every later storm; the margin covers rounding in the
# quadratic form and in ``exp(-q / 2) <= 1``.
_RETIRE_MARGIN = 1.0 + 1e-9


def _smith_values(
    coords: np.ndarray,
    params: SmithParams,
    rng: np.random.Generator,
    cap: int = STORM_CAP,
) -> tuple[np.ndarray, int, int]:
    """Exact Smith sample at ``coords`` via windowed storm generation.

    Storm centers are uniform on the bounding box of ``coords`` widened by
    the buffer radius ``r_buf``, so at most ``EPS_TAIL`` of any site's scale
    leaks.  Windows up to ``_LOCAL_AREA_DISKS`` disks of radius ``r_buf``
    evaluate every storm at every entry.  Larger windows evaluate each storm
    only at the entries within Euclidean distance ``r_buf`` of it, found by
    scipy's k-d tree.  A storm farther away could raise an entry only
    through Gaussian mass outside that disk, at most
    ``exp(-r_buf**2 / (2 lambda_max)) = EPS_TAIL / 4`` of its scale, which
    lies inside the leak the window already allows.  Both paths draw the
    same storms and compute each evaluated pair identically.

    Both paths retire entries.  At the start of each storm block an entry
    whose running value is at least ``u[0] * sup * _RETIRE_MARGIN`` is left
    out of the block's evaluations.  This is exact: a bump is
    ``u * sup * exp(-q / 2)`` with ``u <= u[0]`` from here on and
    ``exp(-q / 2) <= 1``, so it cannot exceed the value, and the margin
    covers rounding.  The storms drawn and the stopping rule do not depend
    on which entries are live, so every value is bit for bit the one that
    evaluating every pair (within ``r_buf`` on the local path) gives, with
    fewer evaluations.  A block that starts with every entry retired makes
    no evaluation, and the stopping rule then fires.  Either path takes a
    block's storms ``_PAIR_CHUNK // n_live`` at a time (one at least), so a
    batch holds at most ``_PAIR_CHUNK`` storm-entry pairs.

    Returns the values, the storms drawn and the storm-entry evaluations
    made.
    """
    r_buf = params.buffer_radius()
    lo = coords.min(axis=0) - r_buf
    hi = coords.max(axis=0) + r_buf
    area = float(np.prod(hi - lo))
    si = params.sigma_inv
    norm = params.density_bound
    n = coords.shape[0]

    def bumps(u: np.ndarray, dx: np.ndarray) -> np.ndarray:
        return u * (norm * np.exp(-0.5 * _quadratic_form(dx, si)))

    local = area > _LOCAL_AREA_DISKS * math.pi * r_buf * r_buf

    def fold(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        centers = rng.uniform(lo, hi, size=(u.size, 2))
        live = np.flatnonzero(values < u[0] * norm * _RETIRE_MARGIN)
        if live.size == 0:
            return 0
        # No storm reaches more than every live entry.
        step = max(1, _PAIR_CHUNK // live.size)
        sites = coords[live]
        tree = cKDTree(sites) if local else None
        evals = 0
        for k in range(0, u.size, step):
            c = centers[k : k + step]
            if local:
                pairs = cKDTree(c).sparse_distance_matrix(tree, r_buf, output_type="ndarray")
                storm, entry = k + pairs["i"], live[pairs["j"]]
                np.maximum.at(values, entry, bumps(u[storm], coords[entry] - centers[storm]))
                evals += entry.size
            else:
                block = bumps(u[k : k + step, None], sites[None, :, :] - c[:, None, :])
                values[live] = np.maximum(values[live], block.max(axis=0))
                evals += block.size
        return evals

    return _storm_maxima(rng, n, fold, area, norm, cap)


def simulate_smith(sites: SiteSet, params: SmithParams, stream: SeededStream) -> SpatialField:
    """Exact Smith-model sample restricted to a planar site set.

    Parameters
    ----------
    sites : SiteSet
        Planar sites, at least one.
    params : SmithParams
        Storm-shape covariance.
    stream : SeededStream
        Randomness source; identical streams give identical fields.

    Returns
    -------
    SpatialField
        Field with standard Frechet margins (up to ``EPS_TAIL``); the
        ``meta`` mapping reports the storm count consumed.
    """
    if sites.kind != "planar":
        raise ValidationError("simulate_smith requires planar sites")
    values, storms, evals = _smith_values(np.asarray(sites.coords), params, stream.generator())
    return SpatialField(sites, values, {"n_storms": storms, "n_storm_evals": evals})


def correlation_powered_exponential(h: float | np.ndarray, params: SchlatherParams) -> float | np.ndarray:
    """Powered-exponential correlation ``exp(-(h / c1) ** c2)``."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise ValidationError("distance must be non-negative")
    out = np.exp(-((h / params.c1) ** params.c2))
    return float(out) if out.ndim == 0 else out


def _warn_schlather_envelope() -> None:
    # One warning per public Schlather call; each draw logs its own bound at
    # DEBUG (in _schlather_values).
    logger.warning(
        "Schlather stopping envelope b_max=%.3g: per-storm P(sup eps > b_max) "
        "<= %.3g per distinct site; margins are approximate",
        SCHLATHER_B_MAX,
        float(ndtr(-SCHLATHER_B_MAX)),
    )


def _cholesky_with_jitter(corr: np.ndarray, coords: np.ndarray) -> np.ndarray:
    for jitter in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        try:
            m = corr if jitter == 0.0 else corr + jitter * np.eye(corr.shape[0])
            return np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            continue
    off = corr - np.eye(corr.shape[0])
    i, j = np.unravel_index(np.argmax(np.abs(off)), off.shape)
    raise NumericalError(
        "correlation matrix is not positive definite even with jitter 1e-6; "
        f"most correlated site pair: {coords[i].tolist()} and {coords[j].tolist()} "
        f"(correlation {corr[i, j]:.6f})"
    )


def simulate_schlather(
    sites: SiteSet, params: SchlatherParams, stream: SeededStream
) -> SpatialField:
    """Approximate Schlather-model sample on a planar site set.

    Spectral functions are ``sqrt(2*pi) * eps`` with ``eps`` a standard
    Gaussian process; they are unbounded, so the stopping rule uses the
    envelope ``SCHLATHER_B_MAX``, and margins are approximate.  Duplicate
    sites are collapsed before the Cholesky factorization and receive
    identical values.
    """
    if sites.kind != "planar":
        raise ValidationError("simulate_schlather requires planar sites")
    values, storms, evals = _schlather_values(
        np.asarray(sites.coords), params, stream.generator()
    )
    _warn_schlather_envelope()
    return SpatialField(sites, values, {"n_storms": storms, "n_storm_evals": evals})


def _schlather_values(
    coords: np.ndarray,
    params: SchlatherParams,
    rng: np.random.Generator,
    cap: int = STORM_CAP,
) -> tuple[np.ndarray, int, int]:
    """One Schlather draw on planar ``coords``, the kernel of every Schlather simulator.

    Returns the values, the storms drawn and the storm-entry evaluations.
    """
    unique, inverse = np.unique(coords, axis=0, return_inverse=True)
    k = unique.shape[0]
    if k > SCHLATHER_MAX_SITES:
        raise ResourceError(
            f"{k} distinct sites exceed the dense-Cholesky cap {SCHLATHER_MAX_SITES}; "
            "thin the sites, shorten the record or use the Smith model"
        )
    dist = np.linalg.norm(unique[:, None, :] - unique[None, :, :], axis=-1)
    corr = correlation_powered_exponential(dist, params)
    np.fill_diagonal(corr, 1.0)
    chol = _cholesky_with_jitter(corr, unique)
    logger.debug(
        "Schlather stopping envelope b_max=%.3g on %d sites: per-storm "
        "P(sup eps > b_max) <= %.3g",
        SCHLATHER_B_MAX,
        k,
        k * float(ndtr(-SCHLATHER_B_MAX)),
    )

    def fold(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        eps = chol @ rng.standard_normal(size=(k, u.size))
        return _fold_dense(values, u, (SQRT_TWO_PI * np.clip(eps, 0.0, None)).T)

    values, storms, evals = _storm_maxima(
        rng, k, fold, 1.0, SQRT_TWO_PI * SCHLATHER_B_MAX, cap, max_block=8192
    )
    return values[inverse], storms, evals


def _kappa_over_sinh(kappa: float) -> float:
    # Series below the cutoff avoids the 0/0 cancellation of kappa/sinh(kappa).
    if kappa < _KAPPA_SERIES_CUTOFF:
        k2 = kappa * kappa
        return 1.0 - k2 / 6.0 + 7.0 * k2 * k2 / 360.0
    return 2.0 * kappa * math.exp(-kappa) / (-math.expm1(-2.0 * kappa))


def _vmf_shape(dot: np.ndarray, kappa: float) -> np.ndarray:
    """Von Mises-Fisher density at cosine ``dot`` from the mean direction."""
    if kappa < _KAPPA_SERIES_CUTOFF:
        return _kappa_over_sinh(kappa) / (4.0 * math.pi) * np.exp(kappa * dot)
    return kappa * np.exp(kappa * (dot - 1.0)) / (2.0 * math.pi * (-math.expm1(-2.0 * kappa)))


def vmf_density(x: np.ndarray, mu: np.ndarray, params: VmfParams) -> float | np.ndarray:
    """Von Mises-Fisher density on the unit sphere, vectorized over ``x``.

    Evaluated as ``kappa * exp(kappa * (mu'x - 1)) / (2*pi*(1 - e^{-2*kappa}))``
    so large concentrations never overflow; small concentrations go through
    a series for ``kappa / sinh(kappa)`` and ``kappa = 0`` returns the
    uniform density ``1 / (4*pi)`` exactly.
    """
    dot = np.asarray(x, dtype=float) @ np.asarray(mu, dtype=float)
    out = np.asarray(_vmf_shape(dot, params.kappa))
    return float(out) if out.ndim == 0 else out


def vmf_density_bound(params: VmfParams) -> float:
    """Supremum of the density, attained at the mean direction."""
    return float(_vmf_shape(1.0, params.kappa))


def _vmf_values(
    coords: np.ndarray,
    params: VmfParams,
    rng: np.random.Generator,
    cap: int = STORM_CAP,
) -> tuple[np.ndarray, int, int]:
    """Exact spherical storm sample; centers uniform, total rate 4*pi.

    Returns the values, the storms drawn and the storm-entry evaluations.
    """

    def fold(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        centers = rng.standard_normal(size=(u.size, 3))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        return _fold_dense(values, u, _vmf_shape(centers @ coords.T, params.kappa))

    return _storm_maxima(
        rng, coords.shape[0], fold, 4.0 * math.pi, vmf_density_bound(params), cap
    )


def simulate_vmf_field(sites: SiteSet, params: VmfParams, stream: SeededStream) -> SpatialField:
    """Exact spherical innovation sample with von Mises-Fisher storm shapes."""
    if sites.kind != "sphere":
        raise ValidationError("simulate_vmf_field requires sphere sites")
    values, storms, evals = _vmf_values(np.asarray(sites.coords), params, stream.generator())
    return SpatialField(sites, values, {"n_storms": storms, "n_storm_evals": evals})


def smith_exponent_bivariate(z1: float, z2: float, h: float) -> float:
    """Closed-form bivariate Smith exponent at Mahalanobis distance ``h``.

    ``V = Phi(w)/z1 + Phi(h - w)/z2`` with ``w = h/2 + log(z2/z1)/h``, the
    negative log joint CDF at unit Frechet scale.  For ``h`` below 1e-8 the
    complete-dependence limit ``V = max(1/z1, 1/z2)`` is returned.
    """
    if not (z1 > 0 and z2 > 0):
        raise ValidationError(f"z1, z2 must be positive, got {z1!r}, {z2!r}")
    if not (h >= 0 and math.isfinite(h)):
        raise ValidationError(f"h must be non-negative and finite, got {h!r}")
    if h < H_COMPLETE_DEP:
        return 1.0 / z1 if z1 <= z2 else 1.0 / z2
    w = 0.5 * h + math.log(z2 / z1) / h
    return float(ndtr(w)) / z1 + float(ndtr(h - w)) / z2


def smith_exponent_numeric(
    sites: SiteSet,
    z: np.ndarray,
    params: SmithParams,
) -> float:
    """M-variate Smith exponent by adaptive 2-d quadrature.

    Integrates ``max_m h_Sigma(x_m - c) / z_m`` over the plane after
    whitening by the storm covariance, which reduces the integrand to a
    maximum of isotropic unit Gaussian bumps.  ``M = 1`` returns ``1/z``
    exactly.

    Raises
    ------
    NumericalError
        If the quadrature reports an error estimate incompatible with the
        requested tolerances.
    """
    if sites.kind != "planar":
        raise ValidationError("smith_exponent_numeric requires planar sites")
    z = np.asarray(z, dtype=float)
    m = len(sites)
    if z.shape != (m,):
        raise ValidationError(f"z shape {z.shape} does not match {m} sites")
    if not np.all(z > 0):
        raise ValidationError("z must be strictly positive")
    if m == 1:
        return 1.0 / float(z[0])

    chol = np.linalg.cholesky(params.sigma)
    white = solve_triangular(chol, np.asarray(sites.coords).T, lower=True).T
    inv_z = INV_TWO_PI / z
    # Unit Gaussian bumps are negligible 8 standardized units out.
    pad = 8.0
    x_lo, x_hi = white[:, 0].min() - pad, white[:, 0].max() + pad
    y_lo, y_hi = white[:, 1].min() - pad, white[:, 1].max() + pad

    sx, sy = white[:, 0], white[:, 1]

    def integrand(y: float, x: float) -> float:
        q = (sx - x) ** 2 + (sy - y) ** 2
        return float(np.max(inv_z * np.exp(-0.5 * q)))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        value, abserr = integrate.dblquad(
            integrand, x_lo, x_hi, y_lo, y_hi, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL
        )
    tolerance = max(_QUAD_EPSABS, abs(value) * _QUAD_EPSREL)
    if abserr > 100.0 * tolerance:
        raise NumericalError(
            f"exponent quadrature did not converge: error estimate {abserr:.3g} "
            f"against tolerance {tolerance:.3g}"
        )
    if caught and abserr > tolerance:
        raise NumericalError(
            f"exponent quadrature warned and achieved only {abserr:.3g} "
            f"(tolerance {tolerance:.3g})"
        )
    return float(value)


def _smith_exponent(coords: np.ndarray, z: np.ndarray, params: SmithParams) -> float:
    """M-variate Smith exponent at ``z`` for the sites ``coords``.

    Two points go through the closed form, more through adaptive
    quadrature.  Coordinates may be taken relative to any common origin: the
    storm process is translation invariant.
    """
    if coords.shape[0] == 2:
        h = float(mahalanobis_distance(coords[1] - coords[0], params))
        return smith_exponent_bivariate(float(z[0]), float(z[1]), h)
    return smith_exponent_numeric(SiteSet.planar(coords), z, params)
