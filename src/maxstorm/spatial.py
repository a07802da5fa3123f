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
maxima, and the shape supremum that makes the stopping rule sound.

Schlather and von Mises-Fisher storms are evaluated at every site.  A Smith
storm window larger in area than six disks of the buffer radius ``r_buf``
is instead binned into cells of side at most ``r_buf / 2``, and each storm is
evaluated only at the sites within ``r_buf`` of its cell.  A storm farther
from a site reaches it only through Gaussian mass outside that disk, at
most ``EPS_TAIL / 4`` of its scale, inside the leak the window already
allows.  Both evaluations consume the same draws, and their values differ
only where a storm outside that disk would have set the maximum.

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


def mahalanobis_distance(dx: np.ndarray, params: SmithParams) -> float | np.ndarray:
    """``sqrt(dx' Sigma^{-1} dx)``, vectorized over ``(..., 2)`` input."""
    q = _quadratic_form(np.asarray(dx, dtype=float), params.sigma_inv)
    out = np.sqrt(np.maximum(q, 0.0))
    return float(out) if out.ndim == 0 else out


def _storm_maxima(
    rng: np.random.Generator,
    n_entries: int,
    fold: Callable[[np.random.Generator, np.ndarray, np.ndarray], int],
    area: float,
    sup: float,
    limit: int,
    max_block: int = 65536,
) -> tuple[np.ndarray, int, bool, float, int]:
    """Running maximum of ``U_i * shape_i`` over a Poisson storm sequence.

    Intensities ``U_i = area / P_i`` are drawn in doubling blocks, each
    block's exponentials first; ``fold(rng, u, values)`` then draws the
    block's storms and folds ``u * shape`` into ``values`` in place,
    returning how many storm-entry evaluations it made.  A dense model
    evaluates every storm at every entry (:func:`_fold_dense`); the Smith
    model may instead evaluate each storm only at the entries within its
    reach.  Since the intensities decrease, once ``U_last * sup`` falls
    below the running minimum over entries no later storm can change any
    value and the loop stops.  Storms past the stopping index inside the
    final block are legitimate points of the process, so applying them is
    harmless.  At most ``limit`` storms are drawn.

    Returns the values, the storms drawn, whether the stopping rule fired,
    the last intensity drawn and the storm-entry evaluations made.
    """
    values = np.zeros(n_entries)
    p_last = 0.0
    used = evals = 0
    block = 64
    stopped = False
    while used < limit:
        b = min(block, limit - used)
        p = p_last + np.cumsum(rng.exponential(size=b))
        p_last = float(p[-1])
        u = area / p
        evals += fold(rng, u, values)
        used += b
        if u[-1] * sup < values.min():
            stopped = True
            break
        block = min(block * 2, max_block)
    return values, used, stopped, area / p_last, evals


def _fold_dense(values: np.ndarray, u: np.ndarray, shapes: np.ndarray) -> int:
    """Fold a ``(b, n_entries)`` block of shapes scaled by ``u`` into ``values``."""
    np.maximum(values, (u[:, None] * shapes).max(axis=0), out=values)
    return shapes.size


# Storm-entry pairs evaluated at once; bounds a block's temporaries whatever
# the record length (each pair array is 512 KiB).
_PAIR_CHUNK = 1 << 16
# Windows larger than this many disks of radius r_buf go through local
# evaluation.  Measured crossovers: about 4 disks for the shifted site copies
# of a record with 80 or more entries, about 9 for 20 scattered entries, and
# none below 16 disks for 4 entries, where the dense loop costs little.
_LOCAL_AREA_DISKS = 6.0
# Cells per axis of the candidate grid at most; wider windows (over about
# 500 r_buf) get coarser cells, which keeps the CSR row pointers at 8 MiB.
_MAX_CELLS_PER_AXIS = 1024


class _CandidateLists:
    """Entries within reach of each cell of a grid over the storm window.

    Cells have side at most ``r_buf / 2`` (wider on windows too large for
    ``_MAX_CELLS_PER_AXIS`` such cells).  Row ``c`` of the CSR arrays
    (``indptr``, ``indices``) lists, in increasing order, every entry within
    Euclidean distance ``r_buf`` of cell ``c``'s rectangle, so the row of a
    storm's cell holds every entry within ``r_buf`` of the storm.  The lists
    are built by binning the entries into cells and testing each entry
    against the cells around its own.
    """

    def __init__(self, coords: np.ndarray, lo: np.ndarray, hi: np.ndarray, r_buf: float):
        self.lo = lo
        cells = np.minimum(np.ceil((hi - lo) / (0.5 * r_buf)), _MAX_CELLS_PER_AXIS)
        self.shape = cells.astype(np.intp)
        self.side = (hi - lo) / self.shape
        home = self.cell_xy(coords)
        gaps = []
        for ax in (0, 1):
            reach = int(math.ceil(r_buf / self.side[ax]))
            near = home[:, ax, None] + np.arange(-reach, reach + 1)
            edge = lo[ax] + near * self.side[ax]
            x = coords[:, ax, None]
            gap = np.maximum(np.maximum(edge - x, x - (edge + self.side[ax])), 0.0)
            gap[(near < 0) | (near >= self.shape[ax])] = np.inf
            gaps.append((near, gap))
        (nx, gx), (ny, gy) = gaps
        entry, ix, iy = np.nonzero(gx[:, :, None] ** 2 + gy[:, None, :] ** 2 <= r_buf * r_buf)
        cell = nx[entry, ix] * self.shape[1] + ny[entry, iy]
        self.indices = entry[np.argsort(cell, kind="stable")]
        self.indptr = np.zeros(int(self.shape.prod()) + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=self.indptr.size - 1), out=self.indptr[1:])

    def cell_xy(self, x: np.ndarray) -> np.ndarray:
        """Cell coordinates of the points ``x`` (``(n, 2)``), clipped to the grid."""
        return np.minimum(((x - self.lo) // self.side).astype(np.intp), self.shape - 1)

    def rows(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR row start and length of each center's cell."""
        xy = self.cell_xy(centers)
        cell = xy[:, 0] * self.shape[1] + xy[:, 1]
        start = self.indptr[cell]
        return start, self.indptr[cell + 1] - start


def _smith_values(
    coords: np.ndarray,
    params: SmithParams,
    rng: np.random.Generator,
    cap: int,
) -> tuple[np.ndarray, int, int]:
    """Exact Smith sample at ``coords`` via windowed storm generation.

    Storm centers are uniform on the bounding box of ``coords`` widened by
    the buffer radius ``r_buf``, so at most ``EPS_TAIL`` of any site's scale
    leaks.  Windows up to ``_LOCAL_AREA_DISKS`` disks of radius ``r_buf``
    evaluate every storm at every entry.  Larger windows evaluate each storm
    only at the entries of its cell's candidate list (:class:`_CandidateLists`),
    a superset of the entries within ``r_buf`` of it.  A storm farther away
    could raise an entry only through Gaussian mass outside that disk, at
    most ``exp(-r_buf**2 / (2 lambda_max)) = EPS_TAIL / 4`` of its scale,
    which lies inside the leak the window already allows.  Both paths draw
    the same storms and compute each evaluated pair identically.

    Returns the values, the storms drawn and the storm-entry evaluations.
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

    def fold_dense(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        centers = rng.uniform(lo, hi, size=(u.size, 2))
        step = max(1, _PAIR_CHUNK // n)
        for k in range(0, u.size, step):
            c = centers[k : k + step]
            block = bumps(u[k : k + step, None], coords[None, :, :] - c[:, None, :])
            np.maximum(values, block.max(axis=0), out=values)
        return u.size * n

    def fold_local(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        centers = rng.uniform(lo, hi, size=(u.size, 2))
        start, count = cells.rows(centers)
        end = np.cumsum(count)
        k = 0
        while k < u.size:
            # Storms k..stop-1 hold at most _PAIR_CHUNK pairs (at least one storm).
            first = end[k] - count[k]
            stop = max(int(np.searchsorted(end, first + _PAIR_CHUNK, side="right")), k + 1)
            c = count[k:stop]
            offset = np.repeat(start[k:stop] - (end[k:stop] - c - first), c)
            entry = cells.indices[np.arange(offset.size) + offset]
            # Offsets as (2, pairs) rows, so each component is contiguous.
            dx = np.empty((2, entry.size))
            for ax in (0, 1):
                np.subtract(coords_t[ax][entry], np.repeat(centers[k:stop, ax], c), out=dx[ax])
            np.maximum.at(values, entry, bumps(np.repeat(u[k:stop], c), dx.T))
            k = stop
        return int(end[-1])

    if area > _LOCAL_AREA_DISKS * math.pi * r_buf * r_buf:
        cells = _CandidateLists(coords, lo, hi, r_buf)
        coords_t = np.ascontiguousarray(coords.T)
        fold = fold_local
    else:
        fold = fold_dense
    values, n_storms, stopped, _, evals = _storm_maxima(rng, n, fold, area, norm, cap)
    if not stopped:
        raise ResourceError(
            f"storm count exceeded cap {cap} before the stopping rule fired "
            f"(window area {area:.3g})"
        )
    return values, n_storms, evals


def simulate_smith(
    sites: SiteSet,
    params: SmithParams,
    stream: SeededStream,
    *,
    cap: int = STORM_CAP,
) -> SpatialField:
    """Exact Smith-model sample restricted to a planar site set.

    Parameters
    ----------
    sites : SiteSet
        Planar sites, at least one.
    params : SmithParams
        Storm-shape covariance.
    stream : SeededStream
        Randomness source; identical streams give identical fields.
    cap : int
        Hard limit on generated storms.

    Returns
    -------
    SpatialField
        Field with standard Frechet margins (up to ``EPS_TAIL``); the
        ``meta`` mapping reports the storm count consumed.
    """
    if sites.kind != "planar":
        raise ValidationError("simulate_smith requires planar sites")
    values, n_storms, evals = _smith_values(
        np.asarray(sites.coords), params, stream.generator(), cap
    )
    return SpatialField(sites, values, {"n_storms": n_storms, "n_storm_evals": evals})


def correlation_powered_exponential(h: float | np.ndarray, params: SchlatherParams) -> float | np.ndarray:
    """Powered-exponential correlation ``exp(-(h / c1) ** c2)``."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise ValidationError("distance must be non-negative")
    out = np.exp(-((h / params.c1) ** params.c2))
    return float(out) if out.ndim == 0 else out


_envelope_warned: set[int] = set()


def _log_schlather_envelope(n_sites: int, level: int | None) -> None:
    # Direct draws (level None) warn once per site count, for readable replicate
    # loops; a recursion warns once per call and logs each date at DEBUG.
    p_exceed = float(n_sites) * float(ndtr(-SCHLATHER_B_MAX))
    if level is None:
        level = logging.WARNING if n_sites not in _envelope_warned else logging.DEBUG
        _envelope_warned.add(n_sites)
    logger.log(
        level,
        "Schlather stopping envelope b_max=%.3g on %d sites: per-storm "
        "P(sup eps > b_max) <= %.3g; margins are approximate",
        SCHLATHER_B_MAX,
        n_sites,
        p_exceed,
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
    sites: SiteSet,
    params: SchlatherParams,
    stream: SeededStream,
    n_storms: int = 1000,
) -> SpatialField:
    """Approximate Schlather-model sample on a planar site set.

    Spectral functions are ``sqrt(2*pi) * eps`` with ``eps`` a standard
    Gaussian process; they are unbounded, so the stopping rule uses the
    envelope ``SCHLATHER_B_MAX`` and the storm count is capped by ``n_storms``.
    Duplicate sites are collapsed before the Cholesky factorization and
    receive identical values.
    """
    if sites.kind != "planar":
        raise ValidationError("simulate_schlather requires planar sites")
    values, meta = _schlather_values(np.asarray(sites.coords), params, stream, n_storms, None)
    return SpatialField(sites, values, meta)


def _schlather_values(
    coords: np.ndarray, params: SchlatherParams, stream: SeededStream, n_storms: int, level: int | None
) -> tuple[np.ndarray, dict]:
    """:func:`simulate_schlather` on planar ``coords``; ``level`` as in :func:`_log_schlather_envelope`."""
    if n_storms < 1:
        raise ValidationError(f"n_storms must be >= 1, got {n_storms}")
    unique, inverse = np.unique(coords, axis=0, return_inverse=True)
    k = unique.shape[0]
    if k > SCHLATHER_MAX_SITES:
        raise ResourceError(
            f"{k} distinct sites exceed the dense-Cholesky cap "
            f"{SCHLATHER_MAX_SITES}; thin the site set or use the Smith model"
        )
    dist = np.linalg.norm(unique[:, None, :] - unique[None, :, :], axis=-1)
    corr = correlation_powered_exponential(dist, params)
    np.fill_diagonal(corr, 1.0)
    chol = _cholesky_with_jitter(corr, unique)
    _log_schlather_envelope(k, level)

    def fold(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        eps = chol @ rng.standard_normal(size=(k, u.size))
        return _fold_dense(values, u, (SQRT_TWO_PI * np.clip(eps, 0.0, None)).T)

    values, used, stopped_early, u_last, evals = _storm_maxima(
        stream.generator(), k, fold, 1.0, SQRT_TWO_PI * SCHLATHER_B_MAX, n_storms, max_block=8192
    )
    # A site every storm missed (all eps <= 0 there) would stay at zero;
    # give it the largest value consistent with the stopping rule instead of
    # emitting an invalid non-positive field.
    floor = u_last * 1e-12
    values = np.maximum(values, floor)
    meta = {"n_storms": used, "stopped_early": stopped_early, "n_storm_evals": evals}
    return values[inverse], meta


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
    cap: int,
) -> tuple[np.ndarray, int, int]:
    """Exact spherical storm sample; centers uniform, total rate 4*pi.

    Returns the values, the storms drawn and the storm-entry evaluations.
    """

    def fold(rng: np.random.Generator, u: np.ndarray, values: np.ndarray) -> int:
        centers = rng.standard_normal(size=(u.size, 3))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        return _fold_dense(values, u, _vmf_shape(centers @ coords.T, params.kappa))

    values, n_storms, stopped, _, evals = _storm_maxima(
        rng, coords.shape[0], fold, 4.0 * math.pi, vmf_density_bound(params), cap
    )
    if not stopped:
        raise ResourceError(f"storm count exceeded cap {cap} on the sphere")
    return values, n_storms, evals


def simulate_vmf_field(
    sites: SiteSet,
    params: VmfParams,
    stream: SeededStream,
    *,
    cap: int = STORM_CAP,
) -> SpatialField:
    """Exact spherical innovation sample with von Mises-Fisher storm shapes."""
    if sites.kind != "sphere":
        raise ValidationError("simulate_vmf_field requires sphere sites")
    values, n_storms, evals = _vmf_values(np.asarray(sites.coords), params, stream.generator(), cap)
    return SpatialField(sites, values, {"n_storms": n_storms, "n_storm_evals": evals})


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
