"""Markovian space-time max-stable fields and their joint distribution.

The planar field satisfies ``X(t, x) = max(a X(t-1, x - tau), (1-a) Z(t, x))``
with iid spatial innovations per date; the spherical field replaces the
translation by a rotation about a fixed axis.  Both recursions are simulated
exactly: the innovation of date ``t`` is evaluated on the enlarged site set
containing every shifted copy of the output grid that later dates will read,
so no interpolation ever happens, and the chain starts in its stationary
state (the first date is itself one innovation draw).  The simulators return
the field alone; the state is kept only on the entries later dates read.
Sites of the joint CDF are plain coordinate pairs.

Also here: the truncated moving-maximum form of the same process (an oracle
for distributional tests; the discarded tail carries Frechet mass
``a**(J+1)``) and the exact negative log joint CDF over up to four
space-time points, assembled from shifted exponent-function blocks that
telescope across consecutive dates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ResourceError, ValidationError
from .geometry import RotationSpec, SiteSet, rotation_matrix
from .point_process import STORM_CAP, SeededStream
from .spatial import (
    SCHLATHER_MAX_SITES,
    SchlatherParams,
    SmithParams,
    VmfParams,
    _log_schlather_envelope,
    _schlather_values,
    _smith_exponent,
    _smith_values,
    _vmf_values,
)

__all__ = [
    "MarkovParams",
    "SpaceTimeField",
    "simulate_markov_planar",
    "simulate_markov_sphere",
    "truncated_moving_max",
    "finite_dim_neg_log_cdf",
]


@dataclass(frozen=True)
class MarkovParams:
    """Autoregression coefficient with a planar shift or a spherical rotation.

    Exactly one of ``tau`` (translation per time step, planar models) and
    ``rotation`` (per-step rotation, spherical models) must be given.
    """

    a: float
    tau: tuple[float, float] | None = None
    rotation: RotationSpec | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and 0.0 < self.a < 1.0):
            raise ValidationError(f"a must lie strictly in (0, 1), got {self.a!r}")
        if (self.tau is None) == (self.rotation is None):
            raise ValidationError("exactly one of tau and rotation must be set")
        if self.tau is not None:
            if len(self.tau) != 2 or not all(math.isfinite(c) for c in self.tau):
                raise ValidationError(f"tau must be a finite 2-vector, got {self.tau!r}")
            object.__setattr__(self, "tau", (float(self.tau[0]), float(self.tau[1])))

    def tau_array(self) -> np.ndarray:
        if self.tau is None:
            raise ValidationError("planar translation parameters required")
        return np.array(self.tau, dtype=float)


@dataclass(frozen=True)
class SpaceTimeField:
    """Values of a space-time field: one row per date, one column per site."""

    sites: SiteSet
    dates: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if dates.ndim != 1 or dates.size == 0:
            raise ValidationError("dates must be a non-empty 1-d integer array")
        if np.any(np.diff(dates) <= 0):
            raise ValidationError("dates must be strictly increasing")
        if values.shape != (dates.size, len(self.sites)):
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"{dates.size} dates x {len(self.sites)} sites"
            )
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError("field values must be finite and strictly positive")
        dates = dates.copy()
        values = values.copy()
        dates.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    @property
    def n_dates(self) -> int:
        return int(self.dates.size)

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def _entry_coords_planar(grid: np.ndarray, n_dates: int, tau: np.ndarray) -> np.ndarray:
    m = grid.shape[0]
    coords = np.empty((n_dates * m, 2))
    for j in range(n_dates):
        coords[j * m : (j + 1) * m] = grid - j * tau
    return coords


def _entry_coords_sphere(mesh: np.ndarray, n_dates: int, rot: RotationSpec) -> np.ndarray:
    m = mesh.shape[0]
    coords = np.empty((n_dates * m, 3))
    for j in range(n_dates):
        # Rotation evaluated at the accumulated angle: exactly orthogonal for
        # every lag, no drift from repeated matrix products.
        rj = rotation_matrix(rot, steps=float(j))
        coords[j * m : (j + 1) * m] = mesh @ rj.T
    return coords


def _innovation(
    coords: np.ndarray,
    spatial: SmithParams | SchlatherParams | VmfParams,
    stream: SeededStream,
    n_storms: int,
) -> tuple[np.ndarray, int, int]:
    """One innovation draw on ``coords``.

    Returns the values, the storms used and the storm-entry evaluations.
    """
    if isinstance(spatial, SmithParams):
        return _smith_values(coords, spatial, stream.generator(), STORM_CAP)
    if isinstance(spatial, SchlatherParams):
        values, meta = _schlather_values(coords, spatial, stream, n_storms, logging.DEBUG)
        return values, int(meta["n_storms"]), int(meta["n_storm_evals"])
    if isinstance(spatial, VmfParams):
        return _vmf_values(coords, spatial, stream.generator(), STORM_CAP)
    raise ValidationError(f"unsupported innovation parameters {type(spatial).__name__}")


def _simulate_markov(
    site_set: SiteSet,
    entry_coords: np.ndarray,
    n_dates: int,
    spatial: SmithParams | SchlatherParams | VmfParams,
    markov: MarkovParams,
    stream: SeededStream,
    n_storms: int,
) -> SpaceTimeField:
    """Run the recursion on the enlarged site set ``entry_coords``.

    Entry ``k = lag * M + m`` holds the ``m``-th output site shifted back
    ``lag`` steps.  The state after date ``i`` (0-based) is needed only on
    the first ``(N - i) * M`` entries, the ones later dates still read, so
    each date draws its innovation there and the state shrinks by ``M``
    entries a date.
    """
    m = len(site_set)
    a = markov.a
    if isinstance(spatial, SchlatherParams):
        distinct = np.unique(entry_coords, axis=0).shape[0]
        if distinct > SCHLATHER_MAX_SITES:
            raise ResourceError(
                f"enlarged site set has {distinct} distinct points, above the "
                f"dense-Cholesky cap {SCHLATHER_MAX_SITES}; reduce n_dates or "
                "the grid, or switch to Smith innovations"
            )
        _log_schlather_envelope(distinct, logging.WARNING)

    out = np.empty((n_dates, m))
    # Stationary start: the first date is one innovation draw on the full
    # enlarged set, so the chain needs no burn-in.
    state, n_used, n_evals = _innovation(entry_coords, spatial, stream.child(0), n_storms)
    storm_counts = [n_used]
    eval_counts = [n_evals]
    out[0] = state[:m]
    for i in range(1, n_dates):
        n_active = (n_dates - i) * m
        z, n_used, n_evals = _innovation(
            entry_coords[:n_active], spatial, stream.child(i), n_storms
        )
        storm_counts.append(n_used)
        eval_counts.append(n_evals)
        state = np.maximum(a * state[m:], (1.0 - a) * z)
        out[i] = state[:m]

    meta = {
        "n_storms_per_date": tuple(storm_counts),
        "n_storm_evals_per_date": tuple(eval_counts),
    }
    return SpaceTimeField(site_set, np.arange(1, n_dates + 1), out, meta)


def simulate_markov_planar(
    grid: SiteSet,
    n_dates: int,
    spatial: SmithParams | SchlatherParams,
    markov: MarkovParams,
    stream: SeededStream,
    *,
    n_storms: int = 1000,
) -> SpaceTimeField:
    """Simulate the planar max-autoregression on ``grid`` for ``n_dates`` dates.

    Parameters
    ----------
    grid : SiteSet
        Planar output sites.
    n_dates : int
        Number of consecutive dates, reported as ``1..n_dates``.
    spatial : SmithParams or SchlatherParams
        Innovation model; likelihood-grade work uses Smith.
    markov : MarkovParams
        Coefficient ``a`` and translation ``tau``.
    stream : SeededStream
        Master stream; one child per date plus one for the start.
    n_storms : int
        Storm cap per innovation, Schlather only.
    """
    if grid.kind != "planar":
        raise ValidationError("simulate_markov_planar requires planar sites")
    if n_dates < 1:
        raise ValidationError(f"n_dates must be >= 1, got {n_dates}")
    if isinstance(spatial, VmfParams):
        raise ValidationError("planar innovations must be Smith or Schlather")
    tau = markov.tau_array()
    entry_coords = _entry_coords_planar(np.asarray(grid.coords), n_dates, tau)
    return _simulate_markov(grid, entry_coords, n_dates, spatial, markov, stream, n_storms)


def simulate_markov_sphere(
    mesh: SiteSet,
    n_dates: int,
    spatial: VmfParams,
    markov: MarkovParams,
    stream: SeededStream,
) -> SpaceTimeField:
    """Simulate the spherical max-autoregression on ``mesh``.

    The value at ``x`` and date ``t`` reads the previous date at the rotated
    point, so innovations are evaluated on the rotated preimages of the mesh
    (cumulative rotation angle per lag), exactly as in the planar case.
    """
    if mesh.kind != "sphere":
        raise ValidationError("simulate_markov_sphere requires sphere sites")
    if n_dates < 1:
        raise ValidationError(f"n_dates must be >= 1, got {n_dates}")
    if markov.rotation is None:
        raise ValidationError("spherical model requires rotation parameters")
    if not isinstance(spatial, VmfParams):
        raise ValidationError("spherical innovations must be von Mises-Fisher")
    entry_coords = _entry_coords_sphere(
        np.asarray(mesh.coords), n_dates, markov.rotation
    )
    return _simulate_markov(mesh, entry_coords, n_dates, spatial, markov, stream, 1000)


def truncated_moving_max(
    sites: SiteSet,
    dates: np.ndarray,
    spatial: SmithParams | SchlatherParams | VmfParams,
    markov: MarkovParams,
    J: int,
    stream: SeededStream,
    *,
    n_storms: int = 1000,
) -> SpaceTimeField:
    """Moving-maximum form of the stationary field, truncated at depth ``J``.

    ``X(t, x)`` is approximated by the maximum of ``a**j (1-a) Z(t-j, .)``
    over ``j = 0..J`` with the innovation of lag ``j`` read at the
    ``j``-step shifted site.  The discarded tail has total Frechet mass
    ``a**(J+1)`` (reported in ``meta``), making this an independent oracle
    for the recursion's law.
    """
    if J < 0:
        raise ValidationError(f"J must be >= 0, got {J}")
    dates = np.asarray(dates, dtype=int)
    if dates.ndim != 1 or dates.size == 0 or np.any(np.diff(dates) <= 0):
        raise ValidationError("dates must be a non-empty strictly increasing array")
    if sites.kind == "planar":
        if isinstance(spatial, VmfParams):
            raise ValidationError("planar innovations must be Smith or Schlather")
        entry_coords = _entry_coords_planar(
            np.asarray(sites.coords), J + 1, markov.tau_array()
        )
    else:
        if markov.rotation is None:
            raise ValidationError("spherical model requires rotation parameters")
        if not isinstance(spatial, VmfParams):
            raise ValidationError("spherical innovations must be von Mises-Fisher")
        entry_coords = _entry_coords_sphere(
            np.asarray(sites.coords), J + 1, markov.rotation
        )

    m = len(sites)
    a = markov.a
    weights = (1.0 - a) * a ** np.arange(J + 1)
    out = np.zeros((dates.size, m))
    s_min = int(dates.min()) - J
    s_max = int(dates.max())
    date_set = set(int(t) for t in dates)
    n_storms_total = 0
    for idx, s in enumerate(range(s_min, s_max + 1)):
        lags = [j for j in range(J + 1) if s + j in date_set]
        if not lags:
            continue
        rows = np.concatenate([np.arange(j * m, (j + 1) * m) for j in lags])
        z, n_used, _ = _innovation(entry_coords[rows], spatial, stream.child(idx), n_storms)
        n_storms_total += n_used
        for pos, j in enumerate(lags):
            t_row = int(np.searchsorted(dates, s + j))
            contrib = weights[j] * z[pos * m : (pos + 1) * m]
            np.maximum(out[t_row], contrib, out=out[t_row])
    meta = {
        "J": int(J),
        "truncation_mass": a ** (J + 1),
        "n_storms_total": n_storms_total,
    }
    return SpaceTimeField(sites, dates, out, meta)


# Three- and four-point blocks already take seconds of quadrature each;
# larger ones are outside the supported envelope.
_MAX_JOINT_POINTS = 4


def finite_dim_neg_log_cdf(
    points: list[tuple[int, np.ndarray]],
    z: np.ndarray,
    spatial: SmithParams,
    markov: MarkovParams,
) -> float:
    """Exact ``-log P(X(t_1, x_1) <= z_1, ..., X(t_M, x_M) <= z_M)``.

    Dates must be sorted non-decreasing (ties allowed).  The joint CDF
    factorizes over innovation epochs: one exponent block couples all points
    through the innovations up to the first date, each pair of consecutive
    dates contributes a block over the trailing points weighted by
    ``1 - a**gap``, and the innovations after the last date leave
    ``(1 - a**gap) / z_M``.  Each block is one Smith exponent: the closed
    form for two points, adaptive quadrature for three or four.  More than
    four points raise :class:`~maxstorm.errors.CapabilityError`.

    Parameters
    ----------
    points : list of (date, site)
        Site as a planar coordinate pair.
    z : array of positive reals
        Thresholds, one per point.
    spatial : SmithParams
    markov : MarkovParams
        Must carry a planar translation.
    """
    if len(points) == 0:
        raise ValidationError("at least one point is required")
    m_total = len(points)
    if m_total > _MAX_JOINT_POINTS:
        raise CapabilityError(
            f"joint CDF supports at most {_MAX_JOINT_POINTS} points, "
            f"got {m_total}"
        )
    z = np.asarray(z, dtype=float)
    if z.shape != (m_total,):
        raise ValidationError(f"z shape {z.shape} does not match {m_total} points")
    if not np.all(z > 0):
        raise ValidationError("z must be strictly positive")
    dates = np.array([float(p[0]) for p in points])
    coords = np.array([np.asarray(p[1], dtype=float) for p in points])
    if coords.shape != (m_total, 2):
        raise ValidationError("sites must be planar coordinate pairs")
    if np.any(np.diff(dates) < 0):
        raise ValidationError("dates must be sorted non-decreasing")
    tau = markov.tau_array()
    a = markov.a

    if m_total == 1:
        return 1.0 / float(z[0])

    total = 0.0
    # Innovations up to and including the first date couple every point.
    shifts = dates - dates[0]
    block_coords = coords - shifts[:, None] * tau
    block_z = z / a ** shifts
    total += _smith_exponent(block_coords, block_z, spatial)
    # Innovations strictly between consecutive dates couple the tail points.
    for m in range(1, m_total - 1):
        gap = dates[m] - dates[m - 1]
        if gap == 0.0:
            continue
        shifts = dates[m:] - dates[m]
        block_coords = coords[m:] - shifts[:, None] * tau
        block_z = z[m:] / a ** shifts
        total += (1.0 - a ** gap) * _smith_exponent(block_coords, block_z, spatial)
    # Innovations after the previous date reaching only the last point.
    last_gap = dates[-1] - dates[-2]
    total += (1.0 - a ** last_gap) / float(z[-1])
    return float(total)
