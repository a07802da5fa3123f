"""Pairwise-likelihood inference for the planar Smith-innovation model.

The exact bivariate density of a space-time pair follows from
differentiating the joint CDF ``exp(-V)``: with ``l = t2 - t1``, ``h`` the
Mahalanobis length of ``x2 - l*tau - x1``, ``w = h/2 + log(z2 / (a**l z1)) / h``
and ``v = h - w``, the pair exponent is
``V = Phi(w)/z1 + a**l Phi(v)/z2 + (1 - a**l)/z2`` and
``f = exp(-V) * (V_1 V_2 - V_12)``.  The Smith-type identity
``a**l phi(v)/z2 = phi(w)/z1`` (``v**2 - w**2 = 2 log(a**l z1/z2)``) cancels
every ``phi/h`` term of the first partials, leaving ``-V_1 = Phi(w)/z1**2``,
``-V_2 = s/z2**2`` with ``s = a**l Phi(v) + 1 - a**l``, and
``-V_12 = phi(w)/(h z1**2 z2)``, so that

``log f = -Phi(w)/z1 - s/z2 + log(Phi(w) s/z2 + phi(w)/h) - 2 log z1 - log z2``

(Padoan, Ribatet & Sisson, JASA 2010, use the same reduction for the
spatial pair, ``a**l = 1``).  Every pair takes it, with ``h`` floored at
``_H_FLOOR`` (``spatial.H_COMPLETE_DEP``); off the line ``z2 = a**l z1``, a
pair on the moving frame (``h = 0``) then gets the complete-dependence law
to rounding: an independent Frechet product on ``z2 > a**l z1`` and zero
below.

There is one objective, keyed by its pair table.  It sums ``log f``,
optionally weighted, over the pairs of observation ``(t_i, x_k)`` with
``(t_j, x_l)`` for ``k < l`` (so same-site pairs never enter) and for the
table's set of date pairs: ``i < j`` for the space-time table, ``i == j``
for the same-date one.  One builder crosses either set with the site pairs;
a same-date pair has temporal weight 1.  The parameter-free parts of every
term are prepared once per dataset, the site offsets as contiguous columns.
One flat kernel evaluates the terms of one table, with ``h`` and ``a**l``
once per distinct (lag, site pair): a single candidate ``(a, tau)`` reaches
it as floats, and a batch of ``m`` candidates as ``(m, 1)`` columns, which
numpy broadcasting lays over the same table.  Either way a term takes the
same operations, so its bits do not depend on its table or its batch.  One
function, :func:`_row_h`, maps a candidate to each row's offset and ``h``,
for the kernel, the gradient and the fit's floor check alike.  One minimum
over the terms finds a NaN or a term below the density floor; only then are
they located and counted.  The table's lags, not the caller, decide what the
parameters act on: every row of the same-date table has lag 0, so
``a**0 = 1``, the offset is ``dx`` and the objective is a function of the
covariance alone, the same bits at every ``(a, tau)``.
Both estimation schemes run through one driver, :func:`_fit`, as a list of
stages over ``theta = (sigma11, sigma12, sigma22, a, tau1, tau2)``.  A stage
is a pair table, the parameter blocks it frees and its starts.  Scheme 1
runs two: the same-date table over the covariance block from the initial
value, then the space-time table over the ``a`` and ``tau`` blocks from
the starts of a coarse scan.  Scheme 2 runs one: the space-time table over
all three blocks from the same scan's starts.  The scan only ranks lattice
points, so it scores the objective on the space-time terms of the fit's two
shortest distinct time lags, the pairs that carry most of the information
about ``tau``, and it scores all 244 of its points in one batched objective
call; the refinement and the reported log likelihood use every term.  One
blockwise map takes each free block onto all of R^k (log-Cholesky for the
covariance, logit for ``a``, identity for ``tau``); a held block is copied
as it is, so scheme 1 keeps its covariance estimate bit for bit, and a stage
maps them straight to ``(Sigma, a, tau)``, with no :class:`ThetaVector`.  Each start
is refined by scipy's Nelder-Mead, derivative-free and bounded by an
evaluation budget; a run that converges within its budget is polished by
scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 1995) on the
rest of it.  The polish uses the analytic gradient: the kernel differentiates
each term in ``h`` and ``c = l log a``, the partials are summed per table
row, and the chain rule through ``h`` and the blockwise maps carries them to
the free coordinates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.optimize import OptimizeResult, minimize
from scipy.special import ndtr

from .errors import DegeneratePairError, NumericalError, ValidationError
from .geometry import _check_count
from .spacetime import MarkovParams, SpaceTimeField
from .spatial import H_COMPLETE_DEP, SQRT_TWO_PI, SmithParams

__all__ = [
    "ThetaVector",
    "PairWeights",
    "FitReport",
    "FitOptions",
    "bivariate_density",
    "pairwise_loglik",
    "spatial_pairwise_loglik",
    "fit_scheme1",
    "fit_scheme2",
]

logger = logging.getLogger(__name__)

DENSITY_FLOOR = 1e-300
_LOG_FLOOR = math.log(DENSITY_FLOOR)
# The floor of h: the kernel scores a row below it at it, the gradient gives
# such a row no h partial, and a fit ending on one is not converged.
_H_FLOOR = H_COMPLETE_DEP
# The kernel's constant operands, as 0-d arrays: numpy 2.4 ufuncs take one in
# about 0.3 us on a 36-term array, against 0.45 us for a Python float.
_ZERO, _ONE, _HALF, _MINUS_HALF = np.array(0.0), np.array(1.0), np.array(0.5), np.array(-0.5)
_SQRT_TWO_PI = np.array(SQRT_TWO_PI)
# Terms times candidates evaluated at once: the kernel takes _TERM_CHUNK // m
# terms of m candidates per slice, on fresh temporaries, and a batch reaches
# it in groups of _TERM_CHUNK // n_terms candidates.  glibc maps an array of
# 128 KiB or more afresh, and unmaps it when freed, at its default mmap
# threshold; a slice's largest temporary, its gather of five per-row values,
# takes 5 x 3,072 x 8 bytes = 120 KiB.  At 8,192 (320 KiB) a 36,100-term
# objective call took about 225 page faults, against none here.
_TERM_CHUNK = 3072
# Edge of the first simplex in transformed space, per unit of max(1, |u_d|).
_SIMPLEX_STEP = 0.25
# The simplex converges when its coordinate spread about the best vertex, in
# transformed space, is within _XTOL and its function spread within _FTOL.
_XTOL = 1e-6
_FTOL = 1e-8


@dataclass(frozen=True)
class ThetaVector:
    """Full parameter vector: storm covariance, coefficient, translation."""

    sigma11: float
    sigma12: float
    sigma22: float
    a: float
    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        # The component records check the ranges; the covariance one is kept.
        object.__setattr__(self, "_smith", SmithParams(self.sigma11, self.sigma12, self.sigma22))
        self.markov

    @property
    def smith(self) -> SmithParams:
        return self._smith

    @property
    def markov(self) -> MarkovParams:
        return MarkovParams(self.a, tau=(self.tau1, self.tau2))

    def as_array(self) -> np.ndarray:
        return np.array(astuple(self))

    @classmethod
    def from_array(cls, x: np.ndarray) -> "ThetaVector":
        return cls(*(float(v) for v in x))


@dataclass(frozen=True)
class PairWeights:
    """Temporal and spatial pair weights; ``None`` means all ones.

    ``temporal[i, j]`` weights the date pair ``(t_i, t_j)`` and
    ``spatial[k, l]`` the site pair ``(x_k, x_l)``; only the strict upper
    triangles are read, so the same-date objective, whose date pairs are
    ``i == j``, reads ``spatial`` alone.  A quadruple's weight is the product,
    and zero-weight quadruples are dropped from the objective.
    """

    temporal: np.ndarray | None = None
    spatial: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("temporal", "spatial"):
            w = getattr(self, name)
            if w is None:
                continue
            w = np.asarray(w, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValidationError(f"{name} weights must be a square matrix")
            if not np.all(np.isfinite(w) & (w >= 0)):
                raise ValidationError(f"{name} weights must be finite and non-negative")
            object.__setattr__(self, name, w)

    @classmethod
    def cutoff(
        cls,
        dates: np.ndarray,
        coords: np.ndarray,
        max_time_lag: float | None = None,
        max_space_dist: float | None = None,
    ) -> "PairWeights":
        """Zero-one weights dropping pairs beyond the given radii."""
        temporal = None
        spatial = None
        if max_time_lag is not None:
            dates = np.asarray(dates, dtype=float)
            temporal = (
                np.abs(dates[None, :] - dates[:, None]) <= max_time_lag
            ).astype(float)
        if max_space_dist is not None:
            coords = np.asarray(coords, dtype=float)
            d = np.linalg.norm(coords[None, :, :] - coords[:, None, :], axis=-1)
            spatial = (d <= max_space_dist).astype(float)
        return cls(temporal, spatial)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one pairwise-likelihood fit.

    ``iterations`` counts the objective evaluations of every optimizer run:
    the simplex's, and the polish's value-and-gradient calls, one each.  The
    start scan, one batched call scoring 244 points on the terms of the two
    shortest time lags, is not in it.  ``converged`` is also false when the
    estimate puts a space-time row on the floor ``H_COMPLETE_DEP`` of ``h``.
    """

    theta_hat: ThetaVector
    loglik: float
    n_pairs: int
    iterations: int
    converged: bool
    scheme: int


@dataclass(frozen=True)
class FitOptions:
    """Optimizer and weighting knobs shared by both schemes.

    ``max_evals`` is a hard cap on the objective evaluations of each
    optimizer run, its polish included.  The cutoff radii are how a
    fit is weighted: pairs more than ``max_time_lag`` apart in time or
    ``max_space_dist`` apart in space are dropped.  The time cutoff acts on
    the space-time objective's date pairs ``i < j``; the same-date pairs
    ``i == j`` are lag 0 and stay.  :class:`PairWeights` serves
    :func:`pairwise_loglik` and :func:`spatial_pairwise_loglik` directly.
    ``max_evals`` must be an integer of at least 1, and any cutoff given
    finite and positive.
    """

    max_evals: int = 5000
    max_time_lag: float | None = None
    max_space_dist: float | None = None

    def __post_init__(self) -> None:
        _check_count("max_evals", self.max_evals, 1)
        for name in ("max_time_lag", "max_space_dist"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValidationError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class _PreparedPairs:
    """Static pair arrays of one objective, reused across evaluations.

    The term arrays hold the observed pair values and what depends on them
    alone: ``1/z1``, ``1/z2``, ``log_ratio = log(z2/z1)`` and
    ``log_jac = -2 log z1 - log z2``.  ``row`` maps each term to its entry in the
    table of distinct (lag, site pair) combinations among the kept terms;
    ``lag`` and the site offset ``dx`` are per table row, and they are all
    that the parameters act on; the kernel reads ``dx`` as ``dx_cols``, its
    two columns as contiguous rows.
    """

    z1: np.ndarray
    z2: np.ndarray
    inv_z1: np.ndarray
    inv_z2: np.ndarray
    log_ratio: np.ndarray
    log_jac: np.ndarray
    weight: np.ndarray
    row: np.ndarray
    lag: np.ndarray
    dx: np.ndarray
    dx_cols: np.ndarray

    @property
    def n_terms(self) -> int:
        return int(self.z1.size)


def _prepared_pairs(
    z1: np.ndarray,
    z2: np.ndarray,
    weight: np.ndarray,
    key: np.ndarray,
    lag: np.ndarray,
    dx: np.ndarray,
) -> _PreparedPairs:
    """Drop zero-weight terms and build the distinct-pair table of the rest.

    ``key`` indexes each term's (lag, site pair) into the candidate arrays
    ``lag`` and ``dx``; only candidates some kept term uses become rows.  A
    kept row of lag 0 and ``dx = (0, 0)`` raises :class:`DegeneratePairError`.
    """
    keep = weight > 0
    if not keep.any():
        raise ValidationError("all pair weights are zero; nothing to sum")
    if not keep.all():
        z1, z2, weight, key = z1[keep], z2[keep], weight[keep], key[keep]
    used = np.zeros(lag.size, dtype=bool)
    used[key] = True
    row = (np.cumsum(used) - 1)[key]
    lag, dx = lag[used], dx[used]
    coincident = (lag == 0) & ~dx.any(axis=1)
    if coincident.any():
        bad = f"same-date pair {np.flatnonzero(coincident[row])[0]} has coincident sites"
        raise DegeneratePairError(f"{bad}; remove duplicated sites before fitting")
    return _PreparedPairs(
        z1=z1,
        z2=z2,
        inv_z1=1.0 / z1,
        inv_z2=1.0 / z2,
        log_ratio=np.log(z2 / z1),
        log_jac=-2.0 * np.log(z1) - np.log(z2),
        weight=weight,
        row=row,
        lag=lag,
        dx=dx,
        dx_cols=np.ascontiguousarray(dx.T),
    )


def _row_h(
    pairs: _PreparedPairs,
    sigma: SmithParams,
    tau1: float | np.ndarray,
    tau2: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each table row's offset ``dx - lag*tau``, as two columns, and its unfloored ``h``.

    ``h`` is the offset's Mahalanobis length, as ``spatial._mahalanobis``
    forms it.  ``tau1`` and ``tau2`` are floats, or ``(m, 1)`` columns of
    ``m`` candidates for ``(m, n_rows)`` arrays.
    """
    det = sigma.det
    q11, q12, q22 = sigma.sigma22 / det, -sigma.sigma12 / det, sigma.sigma11 / det
    dx1, dx2 = pairs.dx_cols
    o1 = dx1 - pairs.lag * tau1
    o2 = dx2 - pairs.lag * tau2
    h = np.sqrt(np.maximum(q11 * o1**2 + 2.0 * q12 * o1 * o2 + q22 * o2**2, _ZERO))
    return o1, o2, h


def _log_pair_density(
    pairs: _PreparedPairs,
    sigma: SmithParams,
    a: float | np.ndarray,
    log_a: float | np.ndarray,
    tau1: float | np.ndarray,
    tau2: float | np.ndarray,
    partials: np.ndarray | None = None,
) -> np.ndarray:
    """Log density of every term of the table ``pairs``, before the density floor.

    The candidate is the coefficient ``a``, its log and the translation
    ``tau = (tau1, tau2)``: floats for one candidate, which give an
    ``(n_terms,)`` result, or ``(m, 1)`` columns of ``m`` candidates, which
    numpy broadcasting lays over the one table for an ``(m, n_terms)``
    result.  Per table row, ``h`` is the Mahalanobis length of
    ``dx - lag*tau`` (:func:`_row_h`).  With ``c = lag*log a``,
    ``w = h/2 + (log(z2/z1) - c)/h``, ``v = h - w`` and
    ``s = a**lag Phi(v) + 1 - a**lag``, the density is

    ``log f = -Phi(w)/z1 - s/z2 + log(Phi(w) s/z2 + phi(w)/h) - 2 log z1 - log z2``.

    This is ``exp(-V) (V_1 V_2 - V_12)`` after the identity
    ``a**lag phi(v)/z2 = phi(w)/z1`` has cancelled the ``phi/h`` terms of
    the first partials, so no difference of large numbers is formed at
    small ``h``.  Each term costs one ``exp``, two ``ndtr`` and one
    ``log``; everything per row is computed once on the table and
    gathered, ``h`` from the three entries of ``Sigma^{-1}``.  Every row
    takes this one formula, with ``h`` floored at ``_H_FLOOR``, which
    bounds ``phi(w)/h`` on the moving frame.  The terms are evaluated in
    slices of ``_TERM_CHUNK // m``, each on fresh temporaries.  A term takes
    the same operations in any table, any slice and any batch, so its bits
    depend on none of them; :func:`_floor_terms` applies the density floor.

    An array ``partials`` of shape ``(2,)`` plus the result's receives each
    term's ``d log f/dh`` and ``d log f/dc``; the log densities are computed
    as without it.  With ``p = phi(w)/h``, ``Q = Phi(w) s/z2 + p``,
    ``r = w/h`` and ``e = Phi(w)/z1 - s/z2``, the same identity leaves

    ``d/dh = (p h) ((s/z2 + r e - r (1 - r) - 1/h**2)/Q - 1/z1)``,
    ``d/dc = (1/z2 - s/z2) (1 - Phi(w)/Q) + p (e + r)/Q``,

    where ``1/z2 - s/z2 = a**lag (1 - Phi(v))/z2``.  :func:`_floor_terms`
    gives a term below the density floor both partials 0, and
    :func:`_theta_gradient` a row below the ``h`` floor no ``h`` partial.
    """
    lag, row = pairs.lag, pairs.row
    h = np.maximum(_row_h(pairs, sigma, tau1, tau2)[2], _H_FLOOR)
    # inv_h, w and v without their log(z2/z1)/h part, a**lag, 1 - a**lag:
    # (5, n_rows) for one candidate, (5, m, n_rows) for m.
    per_row = np.empty((5, *h.shape))
    inv_h, w0, v0, alag, residual = per_row
    np.divide(_ONE, h, inv_h)
    c_over_h = lag * log_a
    c_over_h *= inv_h
    np.multiply(h, _HALF, w0)
    np.add(w0, c_over_h, v0)
    w0 -= c_over_h
    np.power(a, lag, alag)
    np.subtract(_ONE, alag, residual)
    logf = np.empty((*h.shape[:-1], row.size))
    step = max(1, _TERM_CHUNK // len(h)) if h.ndim > 1 else _TERM_CHUNK
    # 1/Q and the partials built on it overflow only where Q is subnormal,
    # a term far below the floor whose partials are zeroed after.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, row.size, step):
            t = slice(start, start + step)
            inv_z1, inv_z2 = pairs.inv_z1[t], pairs.inv_z2[t]
            # One gather ("clip": every row index is valid); w and v still
            # lack their log(z2/z1)/h part.
            gathered = per_row.take(row[t], -1, None, "clip")
            inv_h, w, v, alag, residual = gathered
            tmp = pairs.log_ratio[t] * inv_h
            w += tmp
            v -= tmp
            # Phi(w) and Phi(v) in one call.
            cdf_w, s_over_z2 = ndtr(gathered[1:3])
            s_over_z2 *= alag
            s_over_z2 += residual
            s_over_z2 *= inv_z2
            pdf_w_over_h = w * _MINUS_HALF
            pdf_w_over_h *= w
            np.exp(pdf_w_over_h, pdf_w_over_h)
            pdf_w_over_h *= inv_h
            pdf_w_over_h /= _SQRT_TWO_PI
            q = cdf_w * s_over_z2
            q += pdf_w_over_h
            out = logf[..., t]
            np.log(q, out)
            np.multiply(cdf_w, inv_z1, tmp)
            tmp += s_over_z2
            tmp -= pairs.log_jac[t]
            out -= tmp
            if partials is None:
                continue
            # Q and the rows v and a**lag are spent; they hold 1/Q, r and e.
            d_h, d_c = partials[..., t]
            inv_q, r, e = np.reciprocal(q, q), v, alag
            np.multiply(w, inv_h, r)
            np.multiply(cdf_w, inv_z1, e)
            e -= s_over_z2
            np.add(e, r, d_c)
            d_c *= pdf_w_over_h
            d_c *= inv_q
            np.multiply(cdf_w, inv_q, tmp)
            np.subtract(_ONE, tmp, tmp)
            np.subtract(inv_z2, s_over_z2, d_h)
            d_h *= tmp
            d_c += d_h
            np.subtract(_ONE, r, tmp)
            tmp *= r
            np.multiply(r, e, d_h)
            d_h += s_over_z2
            d_h -= tmp
            np.multiply(inv_h, inv_h, tmp)
            d_h -= tmp
            d_h *= inv_q
            d_h -= inv_z1
            d_h *= pdf_w_over_h
            d_h /= inv_h
    return logf


def _floor_terms(logf: np.ndarray, first: int = 0, partials: np.ndarray | None = None) -> None:
    """Floor the log densities of candidates ``first`` onward, one row of ``logf`` each, in place.

    A NaN raises :class:`NumericalError` naming its term and candidate.
    Otherwise the terms below the density floor are counted, per candidate
    at DEBUG, their ``partials`` zeroed for a single candidate, and set to
    the floor.  The objective calls this only where one minimum over the
    terms found a NaN or a term below the floor.
    """
    nan = np.isnan(logf)
    if nan.any():
        i, bad = np.argwhere(nan)[0]
        raise NumericalError(f"log density is NaN at pair index {bad} of candidate {first + i}")
    low = logf < _LOG_FLOOR
    # A flat count_nonzero per candidate: an axis count casts every flag.
    for row_low in low:
        count = np.count_nonzero(row_low)
        if count:
            logger.debug("pairwise objective floored %d of %d terms", count, logf.shape[1])
    if partials is not None:
        partials[:, low[0]] = 0.0
    np.maximum(logf, _LOG_FLOOR, out=logf)


def _theta_gradient(
    pairs: _PreparedPairs,
    sigma: SmithParams,
    a: float,
    tau1: float,
    tau2: float,
    d_h: np.ndarray,
    d_c: np.ndarray,
) -> np.ndarray:
    """Chain per-row partials in ``h`` and ``c = lag*log a`` to ``theta``.

    ``theta = (sigma11, sigma12, sigma22, a, tau1, tau2)``.  With
    ``o = dx - lag*tau`` and ``b = Sigma^{-1} o`` per row, ``h = sqrt(o'b)``
    gives ``dh/dtau = -lag b/h`` and
    ``dh/d(sigma11, sigma12, sigma22) = -(b1**2, 2 b1 b2, b2**2)/(2h)``;
    ``dc/da = lag/a``.  A row below ``_H_FLOOR`` has no ``h`` partial.
    """
    o1, o2, h = _row_h(pairs, sigma, tau1, tau2)
    # C-ordered (n, 2) offsets, not a transposed view: BLAS may round the
    # product of another layout differently.
    b = np.column_stack((o1, o2)) @ sigma.sigma_inv
    g = np.divide(d_h, h, out=np.zeros_like(h), where=h >= _H_FLOOR)
    gb = g[:, None] * b
    return np.array([
        -0.5 * (gb[:, 0] @ b[:, 0]),
        -(gb[:, 0] @ b[:, 1]),
        -0.5 * (gb[:, 1] @ b[:, 1]),
        (d_c @ pairs.lag) / a,
        *-(pairs.lag @ gb),
    ])


def bivariate_density(
    z1: float,
    z2: float,
    t1: float,
    t2: float,
    x1: np.ndarray,
    x2: np.ndarray,
    theta: ThetaVector,
) -> float:
    """Exact density of ``(X(t1, x1), X(t2, x2))`` at ``(z1, z2)``.

    Times are canonicalized to ``t1 <= t2`` by swapping the points, which
    leaves the density unchanged.  A pair at identical date and site has no
    absolutely continuous law and raises :class:`DegeneratePairError`.
    Values must be finite and positive, dates finite, and each site a
    finite 2-vector.
    """
    for name, z in (("z1", z1), ("z2", z2)):
        if not (math.isfinite(z) and z > 0):
            raise ValidationError(f"{name} must be finite and positive, got {z!r}")
    for name, t in (("t1", t1), ("t2", t2)):
        if not math.isfinite(t):
            raise ValidationError(f"{name} must be finite, got {t!r}")
    c1 = np.asarray(x1, dtype=float)
    c2 = np.asarray(x2, dtype=float)
    for name, c in (("x1", c1), ("x2", c2)):
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise ValidationError(f"{name} must be a finite 2-vector, got {c.tolist()!r}")
    if t1 > t2:
        t1, t2, c1, c2, z1, z2 = t2, t1, c2, c1, z2, z1
    lag = t2 - t1
    shifted = c2 - lag * theta.markov.tau_array() - c1
    pairs = _prepared_pairs(
        np.array([z1], dtype=float),
        np.array([z2], dtype=float),
        np.ones(1),
        np.zeros(1, dtype=np.intp),
        np.array([lag], dtype=float),
        shifted[None, :],
    )
    # The offset is already shifted, so the kernel reads tau as 0.
    logf = _log_pair_density(pairs, theta.smith, theta.a, math.log(theta.a), 0.0, 0.0)[None]
    _floor_terms(logf)
    return float(np.exp(logf[0, 0]))


def _prepare_pairs(
    data: SpaceTimeField, weights: PairWeights | None, date_pairs: tuple[np.ndarray, np.ndarray]
) -> _PreparedPairs:
    """Pair table of the date pairs ``(ti, tj)``, ``ti <= tj``, crossed with site pairs ``k < l``.

    The space-time objective passes ``np.triu_indices(n, 1)`` and the
    same-date one the diagonal.  ``weights.temporal`` is read only where
    ``ti < tj``; a same-date pair has temporal weight 1.
    """
    n, m = data.n_dates, data.n_sites
    ti, tj = date_pairs
    if m < 2 or ti.size == 0:
        raise ValidationError(f"no pairs to sum over N={n} dates and M={m} sites")
    for name, size, unit in (("temporal", n, "dates"), ("spatial", m, "sites")):
        w = None if weights is None else getattr(weights, name)
        if w is not None and w.shape[0] != size:
            raise ValidationError(f"{name} weights are {w.shape[0]}-square for {size} {unit}")
    dates = np.asarray(data.dates, dtype=float)
    coords = np.asarray(data.sites.coords)
    sk, sl = np.triu_indices(m, k=1)
    wt = np.ones(ti.size)
    if weights is not None and weights.temporal is not None:
        wt = np.where(ti < tj, weights.temporal[ti, tj], 1.0)
    ws = np.ones(sk.size) if weights is None or weights.spatial is None else weights.spatial[sk, sl]

    # Quadruples in canonical order: date pair major, site pair minor.
    flat = np.asarray(data.values).ravel()
    z1 = flat[(ti[:, None] * m + sk[None, :]).ravel()]
    z2 = flat[(tj[:, None] * m + sl[None, :]).ravel()]
    weight = (wt[:, None] * ws[None, :]).ravel()
    # Candidate table rows: every distinct lag crossed with every site pair.
    lags, lag_index = np.unique(dates[tj] - dates[ti], return_inverse=True)
    key = (lag_index[:, None] * sk.size + np.arange(sk.size)[None, :]).ravel()
    dx = np.tile(coords[sl] - coords[sk], (lags.size, 1))
    return _prepared_pairs(z1, z2, weight, key, np.repeat(lags, sk.size), dx)


def _eval_st_loglik(
    pairs: _PreparedPairs,
    sigma: SmithParams,
    a: np.ndarray,
    tau: np.ndarray,
    gradient: bool = False,
) -> np.ndarray | tuple[float, np.ndarray]:
    """Objective of one pair table at the ``k`` candidates ``(a[i], tau[i])`` under ``sigma``.

    The weighted sum of the floored terms at each candidate.  One candidate
    is passed to the kernel as floats, and its terms are summed as one
    array.  Several reach the kernel in groups of ``_TERM_CHUNK // n_terms``
    candidates, at least one, as ``(m, 1)`` columns broadcast over the same
    table, and each candidate's terms are summed along its row of the
    result; both sums take the same pairwise order, so a candidate has the
    same bits alone and in a batch.  The table's lags decide what the
    candidates act on: a same-date table has lag 0 on every row, so any
    ``(a, tau)`` gives it the bits of ``(1, (0, 0))``.  With
    ``gradient``, for a single candidate only, the value and its gradient
    in ``theta``: the weighted term partials are summed onto table rows and
    chained by :func:`_theta_gradient`.  The value is the same bits as
    without it.
    """
    if a.size == 1:
        coef = a.item()
        tau1, tau2 = tau[0].tolist()
        partials = np.empty((2, pairs.n_terms)) if gradient else None
        logf = _log_pair_density(pairs, sigma, coef, math.log(coef), tau1, tau2, partials)
        # One pass finds a NaN (np.minimum propagates it) or a term below the floor.
        if not np.minimum.reduce(logf) >= _LOG_FLOOR:
            _floor_terms(logf[None], 0, partials)
        logf *= pairs.weight
        values = np.add.reduce(logf, keepdims=True)
        if not gradient:
            return values
        partials *= pairs.weight
        d_h, d_c = (np.bincount(pairs.row, p, minlength=pairs.lag.size) for p in partials)
        return float(values[0]), _theta_gradient(pairs, sigma, coef, tau1, tau2, d_h, d_c)
    if gradient:
        raise ValueError("the gradient is computed for a single candidate")
    per = max(1, _TERM_CHUNK // pairs.n_terms)
    # math.log, not np.log: each candidate's log a has the bits it has alone.
    candidates = np.array([a, list(map(math.log, a.tolist())), tau[:, 0], tau[:, 1]])
    values = np.empty(a.size)
    for c0 in range(0, a.size, per):
        c = slice(c0, c0 + per)
        logf = _log_pair_density(pairs, sigma, *candidates[:, c, None])
        if not np.minimum.reduce(logf, axis=None) >= _LOG_FLOOR:
            _floor_terms(logf, c0)
        logf *= pairs.weight
        values[c] = np.add.reduce(logf, axis=1)
    return values


def _loglik_at(
    pairs: _PreparedPairs, theta: ThetaVector, gradient: bool = False
) -> float | tuple[float, np.ndarray]:
    """Objective of ``pairs`` at ``theta``; with ``gradient``, also its gradient in ``theta``."""
    a, tau = np.array([theta.a]), np.array([[theta.tau1, theta.tau2]])
    out = _eval_st_loglik(pairs, theta.smith, a, tau, gradient=gradient)
    return out if gradient else float(out[0])


def pairwise_loglik(
    data: SpaceTimeField,
    theta: ThetaVector,
    weights: PairWeights | None = None,
) -> float:
    """Space-time pairwise log likelihood over the strict quadruple set.

    Exactly ``C(N,2) * C(M,2)`` terms contribute under default weights: the
    observation at ``(t_i, x_k)`` pairs with the one at ``(t_j, x_l)`` for
    ``i < j`` and ``k < l``.  The terms are summed by one pairwise reduction
    over a contiguous array, whose order depends only on the term count, so
    the value is the same bits on every run.
    """
    return _loglik_at(_prepare_pairs(data, weights, np.triu_indices(data.n_dates, 1)), theta)


def _eval_spatial_loglik(prepared: _PreparedPairs, sigma: SmithParams) -> float:
    """Objective of a same-date table under ``sigma``, at ``a = 1`` and ``tau = 0``."""
    return float(_eval_st_loglik(prepared, sigma, np.ones(1), np.zeros((1, 2)))[0])


def spatial_pairwise_loglik(
    data: SpaceTimeField,
    sigma: SmithParams,
    weights: PairWeights | None = None,
) -> float:
    """Same-date pairwise log likelihood, a function of the covariance only.

    Each of the ``N`` dates contributes its ``C(M,2)`` site pairs through
    the purely spatial pair density; temporal parameters never enter, which
    is what lets the covariance be estimated separately.
    """
    same_date = (np.arange(data.n_dates),) * 2
    return _eval_spatial_loglik(_prepare_pairs(data, weights, same_date), sigma)


def _sigma_to_chol(sigma: np.ndarray) -> np.ndarray:
    s11, s12, s22 = sigma
    l11 = math.sqrt(s11)
    l21 = s12 / l11
    l22_sq = s22 - l21 * l21
    if l22_sq <= 0:
        raise ValidationError("covariance entries are not positive definite")
    return np.array([math.log(l11), math.log(math.sqrt(l22_sq)), l21])


def _chol_to_sigma(u: np.ndarray) -> np.ndarray:
    l11 = math.exp(u[0])
    l22 = math.exp(u[1])
    l21 = u[2]
    return np.array([l11 * l11, l11 * l21, l21 * l21 + l22 * l22])


def _chol_pullback(u: np.ndarray, g: np.ndarray) -> list[float]:
    """Gradient in ``u`` of a function whose gradient in the covariance is ``g``."""
    l11 = math.exp(u[0])
    l22 = math.exp(u[1])
    l21 = u[2]
    return [
        2.0 * l11 * l11 * g[0] + l11 * l21 * g[1],
        2.0 * l22 * l22 * g[2],
        l11 * g[1] + 2.0 * l21 * g[2],
    ]


def _logit(a: float) -> float:
    return math.log(a / (1.0 - a))


# Saturated floats would escape the open interval and fail validation.
_A_CLAMP = 1e-12


def _expit(u: float) -> float:
    if u >= 0:
        out = 1.0 / (1.0 + math.exp(-u))
    else:
        e = math.exp(u)
        out = e / (1.0 + e)
    return min(max(out, _A_CLAMP), 1.0 - _A_CLAMP)


def _expit_slope(u: float) -> float:
    """``d expit/du``, which is 0 on the clamp."""
    a = _expit(u)
    return a * (1.0 - a) if _A_CLAMP < a < 1.0 - _A_CLAMP else 0.0


# The blocks of theta = (sigma11, sigma12, sigma22, a, tau1, tau2), each with
# its map onto all of R^k, the map back, and the pullback of a gradient in
# theta to one in R^k: log-Cholesky, logit, identity.
_SIGMA = (slice(0, 3), _sigma_to_chol, _chol_to_sigma, _chol_pullback)
_A = (
    slice(3, 4),
    lambda x: [_logit(float(x[0]))],
    lambda u: _expit(float(u[0])),
    lambda u, g: [_expit_slope(float(u[0])) * g[0]],
)
_TAU = (slice(4, 6), lambda x: x, lambda u: u, lambda u, g: g)


def _to_free(theta: np.ndarray, free: tuple) -> np.ndarray:
    """Unconstrained coordinates of the ``free`` blocks of ``theta``, in order."""
    return np.concatenate([np.asarray(fwd(theta[block]), dtype=float) for block, fwd, *_ in free])


def _from_free(u: np.ndarray, base: np.ndarray, free: tuple) -> np.ndarray:
    """``base`` with its ``free`` blocks replaced by the image of ``u``.

    Held blocks are copied from ``base`` as they are, never round-tripped
    through their map, so a stage leaves them bit-identical.
    """
    theta = base.copy()
    start = 0
    for block, _, inverse, _ in free:
        stop = start + block.stop - block.start
        theta[block] = inverse(u[start:stop])
        start = stop
    return theta


def _free_gradient(u: np.ndarray, grad: np.ndarray, free: tuple) -> np.ndarray:
    """Gradient in the free coordinates ``u`` from ``grad``, the gradient in theta."""
    out = []
    start = 0
    for block, _, _, pullback in free:
        stop = start + block.stop - block.start
        out.append(np.asarray(pullback(u[start:stop], grad[block]), dtype=float))
        start = stop
    return np.concatenate(out)


class _PolishStop(Exception):
    """The polish reached its run's budget, or a point it cannot evaluate."""


# The errors of a step the objective cannot evaluate.  ``math.exp`` in the
# map back to a covariance raises OverflowError above 709.78.
_REJECTED = (ValidationError, NumericalError, OverflowError)


def _nelder_mead(
    objective: Callable[..., float | tuple[float, np.ndarray]],
    init: np.ndarray,
    opts: FitOptions,
) -> OptimizeResult:
    """Minimize ``objective`` over all of R^n: a simplex run, then a polish.

    ``objective(u)`` is the value and ``objective(u, gradient=True)`` the
    value and its gradient.  scipy's Nelder-Mead explores from ``init`` until
    its simplex meets ``_XTOL`` and ``_FTOL`` or the budget is spent.
    A run that stops before its budget is polished by scipy's L-BFGS-B with
    the gradient, from the simplex's best vertex, on the rest of the budget;
    the polish stops by L-BFGS-B's default rule.  The better point is kept,
    and ``success`` is the polish's.  A run that spends its budget in the
    simplex is not polished.  Every call, value or value and gradient, counts
    once against ``opts.max_evals``.  The simplex reads a NaN value, and a
    step the objective rejects (a covariance that rounds to singular, a
    non-finite density, an overflowing map back from the free coordinates),
    as +inf; an initial point the objective rejects raises.  A polish step
    the objective rejects or scores as NaN or infinite ends the polish
    without success.
    """
    evals = 0

    def g(u: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = float(objective(u))
        return math.inf if math.isnan(value) else value

    def step(u: np.ndarray) -> float:
        try:
            return g(u)
        except _REJECTED:
            return math.inf

    u = np.asarray(init, dtype=float)
    fun = g(u)
    if math.isinf(fun):
        raise ValidationError("objective is not finite at the initial point")
    simplex = np.vstack([u, u + np.diag(_SIMPLEX_STEP * np.maximum(1.0, np.abs(u)))])
    run = minimize(step, u, method="Nelder-Mead", options={
        "initial_simplex": simplex,
        "xatol": _XTOL,
        "fatol": _FTOL,
        "maxfev": opts.max_evals - evals,
    })
    success = bool(run.success)
    if run.fun <= fun:
        u, fun = run.x, float(run.fun)
    if evals < opts.max_evals:
        best = [fun, u]

        def polish(x: np.ndarray) -> tuple[float, np.ndarray]:
            nonlocal evals
            # L-BFGS-B checks maxfun only between iterations.
            if evals >= opts.max_evals:
                raise _PolishStop
            evals += 1
            try:
                value, grad = objective(x, gradient=True)
            except _REJECTED as exc:
                raise _PolishStop from exc
            value = float(value)
            # L-BFGS-B reads +inf as a step to back off from, and may then
            # report success without moving.
            if not math.isfinite(value):
                raise _PolishStop
            if value < best[0]:
                best[:] = value, x.copy()
            return value, grad

        try:
            success = bool(minimize(polish, u, method="L-BFGS-B", jac=True, options={
                "maxfun": opts.max_evals - evals,
            }).success)
        except _PolishStop:
            success = False
        fun, u = best
    return OptimizeResult(x=u, fun=fun, nfev=evals, success=success)


_SCAN_A = (0.35, 0.6, 0.8)
_SCAN_RADIUS = 6.0
_SCAN_MESH = 9
_SCAN_STARTS = 3
_SCAN_LAGS = 2
_BASIN_SEP = 2.0


def _short_lag_pairs(pairs: _PreparedPairs) -> _PreparedPairs:
    """``pairs`` restricted to its ``_SCAN_LAGS`` smallest distinct time lags.

    The lags are those of the table, so any cutoff it was built with is
    already applied.  The terms on longer lags get weight zero and are
    dropped, with the table rows only they used.  A table with no more lags
    than that is returned as it is.
    """
    lags = np.unique(pairs.lag)
    if lags.size <= _SCAN_LAGS:
        return pairs
    short = (pairs.lag <= lags[_SCAN_LAGS - 1])[pairs.row]
    return _prepared_pairs(
        pairs.z1, pairs.z2, pairs.weight * short, pairs.row, pairs.lag, pairs.dx
    )


def _temporal_start_candidates(
    prepared: _PreparedPairs, theta: np.ndarray
) -> list[np.ndarray]:
    """Coarse objective scan proposing starting points for ``(a, tau)``.

    ``prepared`` is the table scored; a fit passes its short-lag table from
    :func:`_short_lag_pairs`, a fifth of the terms on a 20-date record.

    The simplex search has a trap: once ``a`` drifts small, lagged pairs
    look independent and the objective goes flat in ``tau``, so a neutral
    start can converge far from the maximum.  The scan evaluates the
    objective on a fixed lattice of translations (in the whitened space of
    the storm covariance, radius six Mahalanobis units: a one-step
    displacement beyond that leaves lag-1 pairs essentially independent, so
    the lattice spans the whole identifiable range) crossed with a few
    coefficient values.  The peak can be narrower than the lattice spacing,
    so instead of trusting the single best cell the top few candidates from
    mutually distant basins are all returned for refinement; the ``(a, tau)``
    of ``theta`` always competes on the scored terms, so a good explicit
    start is not discarded.  All 244 points, the start's first, share the
    covariance of ``theta`` and are scored by one :func:`_eval_st_loglik`
    call; ties keep that order.  Each start is ``theta`` with its
    ``(a, tau)`` replaced.
    """
    sigma = SmithParams(*theta[:3])
    chol = np.linalg.cholesky(np.asarray(sigma.sigma))
    chol_inv = np.linalg.inv(chol)
    ticks = np.linspace(-_SCAN_RADIUS, _SCAN_RADIUS, _SCAN_MESH)
    uu, vv = np.meshgrid(ticks, ticks)
    lattice = np.column_stack([uu.ravel(), vv.ravel()]) @ chol.T
    # The start's (a, tau), then every scan coefficient crossed with the
    # lattice, all scored in one call.
    a = np.concatenate([theta[3:4], np.repeat(_SCAN_A, len(lattice))])
    tau = np.vstack([theta[4:6], np.tile(lattice, (len(_SCAN_A), 1))])
    values = _eval_st_loglik(prepared, sigma, a, tau)

    starts: list[int] = []
    for i in np.argsort(-values, kind="stable"):
        if any(np.linalg.norm(chol_inv @ (tau[i] - tau[j])) < _BASIN_SEP for j in starts):
            continue
        starts.append(i)
        if len(starts) == _SCAN_STARTS:
            break
    return [np.concatenate([theta[:3], a[i : i + 1], tau[i]]) for i in starts]


def _stage_objective(
    pairs: _PreparedPairs, base: np.ndarray, free: tuple
) -> Callable[..., float | tuple[float, np.ndarray]]:
    """Minus the objective of ``pairs`` over the free coordinates of the ``free`` blocks.

    The held blocks keep their values in ``base``.  ``u`` maps straight to
    ``(sigma, a, tau)`` with :class:`ThetaVector`'s checks and errors.  The
    value, or with ``gradient=True`` also its gradient in the free coordinates.
    """

    def objective(u: np.ndarray, gradient: bool = False):
        theta = _from_free(u, base, free)
        s11, s12, s22, coef, tau1, tau2 = theta.tolist()
        sigma = SmithParams(s11, s12, s22)
        if not (math.isfinite(coef) and 0.0 < coef < 1.0):
            raise ValidationError(f"a must lie strictly in (0, 1), got {coef!r}")
        if not (math.isfinite(tau1) and math.isfinite(tau2)):
            raise ValidationError(f"tau must be a finite 2-vector, got {(tau1, tau2)!r}")
        a, tau = theta[3:4], theta[None, 4:]
        if not gradient:
            return -float(_eval_st_loglik(pairs, sigma, a, tau)[0])
        value, grad = _eval_st_loglik(pairs, sigma, a, tau, gradient=True)
        return -value, -_free_gradient(u, grad, free)

    return objective


# An estimate of ``a`` this close to 0 or 1 sits at the ``_expit`` clamp,
# not at an interior maximum, so the fit does not report convergence.
_A_BOUNDARY_TOL = 1e-9


def _a_is_interior(a: float) -> bool:
    return _A_BOUNDARY_TOL < a < 1.0 - _A_BOUNDARY_TOL


def _on_h_floor(pairs: _PreparedPairs, theta: ThetaVector) -> bool:
    """Whether ``theta`` puts a row of ``pairs`` below ``_H_FLOOR``, on a spike's plateau."""
    return bool(np.any(_row_h(pairs, theta.smith, theta.tau1, theta.tau2)[2] < _H_FLOOR))


def _fit(data: SpaceTimeField, init: ThetaVector, opts: FitOptions, scheme: int) -> FitReport:
    """Run the stages of ``scheme`` from ``init`` on pair tables built once.

    A stage is a pair table, the blocks it frees and a rule giving its
    starts from the current theta; the table's date pairs alone make it the
    same-date or the space-time objective.  Each start is refined by
    :func:`_nelder_mead` over the free blocks' unconstrained coordinates, a
    simplex run and its gradient polish; the best run's theta passes to the
    next stage, and the last stage's value is the reported log likelihood.
    ``iterations`` sums every run of every stage; ``converged`` needs every
    stage's best run to have converged, ``a`` to lie off its clamp and every
    space-time row to lie off the floor ``_H_FLOOR`` of ``h``.
    """
    weights = PairWeights.cutoff(
        data.dates, data.sites.coords, opts.max_time_lag, opts.max_space_dist
    )
    n = data.n_dates
    st_pairs = _prepare_pairs(data, weights, np.triu_indices(n, 1))
    scan = partial(_temporal_start_candidates, _short_lag_pairs(st_pairs))
    if scheme == 1:
        same_date = _prepare_pairs(data, weights, (np.arange(n),) * 2)
        stages = [(same_date, (_SIGMA,), lambda theta: [theta]), (st_pairs, (_A, _TAU), scan)]
    else:
        stages = [(st_pairs, (_SIGMA, _A, _TAU), scan)]

    theta = init.as_array()
    iterations, converged = 0, True
    for pairs, free, starts in stages:
        runs = []
        for start in starts(theta):
            run = _nelder_mead(_stage_objective(pairs, start, free), _to_free(start, free), opts)
            run.x = _from_free(run.x, start, free)
            runs.append(run)
        best = min(runs, key=lambda r: r.fun)
        theta = best.x
        iterations += sum(r.nfev for r in runs)
        converged = converged and best.success
    theta_hat = ThetaVector.from_array(theta)
    converged = converged and _a_is_interior(theta_hat.a) and not _on_h_floor(st_pairs, theta_hat)
    return FitReport(
        theta_hat=theta_hat,
        loglik=-best.fun,
        n_pairs=st_pairs.n_terms,
        iterations=iterations,
        converged=converged,
        scheme=scheme,
    )


def fit_scheme1(
    data: SpaceTimeField, init: ThetaVector, options: FitOptions | None = None
) -> FitReport:
    """Two-stage fit: covariance from same-date pairs, then ``(a, tau)``.

    Stage one maximizes the same-date objective over the three covariance
    entries; stage two holds the covariance fixed and maximizes the full
    space-time objective over the coefficient and translation from the
    starts of a coarse scan.  The reported log likelihood is the space-time
    objective at the combined estimate.  An estimate of ``a`` stuck at the
    clamp of 0 or 1, or one that puts a space-time row on the floor of ``h``,
    reports ``converged=False``.
    """
    return _fit(data, init, options or FitOptions(), 1)


def fit_scheme2(
    data: SpaceTimeField, init: ThetaVector, options: FitOptions | None = None
) -> FitReport:
    """Joint fit: one six-parameter maximization of the space-time objective.

    The starts come from the same scan as :func:`fit_scheme1`'s second
    stage, at the initial covariance.  As there, an estimate of ``a`` at its
    clamp, or with a space-time row on the floor of ``h``, is not converged.
    """
    return _fit(data, init, options or FitOptions(), 2)
