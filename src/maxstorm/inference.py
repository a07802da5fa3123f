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
spatial pair, ``a**l = 1``).  Pairs aligned with the moving frame
(``h = 0``) switch to the complete-dependence branch, whose absolutely
continuous part is an independent Frechet product on ``z2 > a**l z1`` and
zero below.

The composite objective sums ``log f`` over the quadruple index set pairing
observation ``(t_i, x_k)`` with ``(t_j, x_l)`` for ``i < j`` and ``k < l``
(strict on both, so same-date and same-site pairs never enter), optionally
weighted.  The parameter-free parts of every term are prepared once per
dataset, and ``h`` and ``a**l`` once per distinct (lag, site pair).
Both estimation schemes run through one driver, :func:`_fit`, as a list of
stages over ``theta = (sigma11, sigma12, sigma22, a, tau1, tau2)``.  A stage
names its objective, the parameter blocks it frees and its starts.  Scheme 1
runs two: the same-date objective over the covariance block from the initial
value, then the space-time objective over the ``a`` and ``tau`` blocks from
the starts of a coarse scan.  Scheme 2 runs one: the space-time objective
over all three blocks from the same scan's starts.  The scan only ranks
lattice points, so it scores the space-time objective on the terms of the
fit's two shortest distinct time lags, the pairs that carry most of the
information about ``tau``, and it scores all 244 of its points in one
batched kernel call; the refinement and the reported log likelihood use
every term.  One blockwise map takes each free block onto all of R^k
(log-Cholesky for the covariance, logit for ``a``, identity for ``tau``); a
held block is copied as it is, so scheme 1 keeps its covariance estimate bit
for bit.  Each start is refined by scipy's Nelder-Mead, derivative-free and
bounded by an evaluation budget.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import OptimizeResult, minimize
from scipy.special import ndtr

from .errors import DegeneratePairError, NumericalError, ValidationError
from .spacetime import MarkovParams, SpaceTimeField
from .spatial import H_COMPLETE_DEP, SQRT_TWO_PI, SmithParams, _quadratic_form, mahalanobis_distance

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
# Terms evaluated at once, every step writing into one work array per
# objective call.  Whole-array temporaries (289 KiB each at 36,100 terms) each
# cost a fresh mapping whenever glibc's mmap threshold sits at its 128 KiB
# default, as in a process that has not yet freed a large array: there the
# 36,100-term objective took 3.5 ms, against 2.5 ms once the threshold had
# risen; chunked, it takes about 2.5 ms either way.
_TERM_CHUNK = 8192
# Edge of the first simplex in transformed space, per unit of max(1, |u_d|);
# the restart uses a tenth of it.
_SIMPLEX_STEP = 0.25


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
        return np.array(
            [self.sigma11, self.sigma12, self.sigma22, self.a, self.tau1, self.tau2]
        )

    @classmethod
    def from_array(cls, x: np.ndarray) -> "ThetaVector":
        return cls(*(float(v) for v in x))


@dataclass(frozen=True)
class PairWeights:
    """Temporal and spatial pair weights; ``None`` means all ones.

    ``temporal[i, j]`` weights the date pair ``(t_i, t_j)`` and
    ``spatial[k, l]`` the site pair ``(x_k, x_l)``; only the strict upper
    triangles are read.  A quadruple's weight is the product, and zero-weight
    quadruples are dropped from the objective.
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

    ``iterations`` counts the objective evaluations of the simplex runs,
    restarts included; the start scan, one batched call scoring 244 points on
    the terms of the two shortest time lags, is not in it.
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

    ``xtol`` and ``ftol`` act in the transformed parameter space: a run
    converges when the largest coordinate spread of the simplex about its
    best vertex is within ``xtol`` and its function spread within ``ftol``.
    ``max_evals`` is a hard cap on the objective evaluations of each
    optimizer run, its single restart included.  The cutoff radii are how a
    fit is weighted: pairs more than ``max_time_lag`` apart in time or
    ``max_space_dist`` apart in space are dropped from both objectives.
    :class:`PairWeights` serves :func:`pairwise_loglik` and
    :func:`spatial_pairwise_loglik` directly.
    """

    xtol: float = 1e-6
    ftol: float = 1e-8
    max_evals: int = 5000
    max_time_lag: float | None = None
    max_space_dist: float | None = None


@dataclass(frozen=True)
class _PreparedPairs:
    """Static pair arrays of one objective, reused across evaluations.

    The term arrays hold the observed pair values and what depends on them
    alone: ``1/z1``, ``1/z2``, ``log_ratio = log(z2/z1)`` and
    ``log_jac = -2 log z1 - log z2``.  ``row`` maps each term to its entry in the
    table of distinct (lag, site pair) combinations among the kept terms;
    ``lag`` and the site offset ``dx`` are per table row, and they are all
    that the parameters act on.
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
    ``lag`` and ``dx``; only candidates some kept term uses become rows.
    """
    keep = weight > 0
    if not keep.any():
        raise ValidationError("all pair weights are zero; nothing to sum")
    if not keep.all():
        z1, z2, weight, key = z1[keep], z2[keep], weight[keep], key[keep]
    used = np.zeros(lag.size, dtype=bool)
    used[key] = True
    row = (np.cumsum(used) - 1)[key]
    return _PreparedPairs(
        z1=z1,
        z2=z2,
        inv_z1=1.0 / z1,
        inv_z2=1.0 / z2,
        log_ratio=np.log(z2 / z1),
        log_jac=-2.0 * np.log(z1) - np.log(z2),
        weight=weight,
        row=row,
        lag=lag[used],
        dx=dx[used],
    )


def _log_pair_density(
    pairs: _PreparedPairs, sigma: SmithParams, a: np.ndarray, tau: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, list[int]]]:
    """Log density of every pair term at ``k`` candidates sharing ``sigma``.

    Candidate ``i`` is the coefficient ``a[i]`` (1 for same-date pairs) and
    the translation ``tau[i]``; per table row, ``h`` is the Mahalanobis
    length of ``dx - lag*tau``.  With ``c = lag*log a``,
    ``w = h/2 + (log(z2/z1) - c)/h``, ``v = h - w`` and
    ``s = a**lag Phi(v) + 1 - a**lag``, the density is

    ``log f = -Phi(w)/z1 - s/z2 + log(Phi(w) s/z2 + phi(w)/h) - 2 log z1 - log z2``.

    This is ``exp(-V) (V_1 V_2 - V_12)`` after the identity
    ``a**lag phi(v)/z2 = phi(w)/z1`` has cancelled the ``phi/h`` terms of
    the first partials, so no difference of large numbers is formed at
    small ``h``.  Each term costs one ``exp``, two ``ndtr`` and one
    ``log``; everything per row is computed once on the table and
    gathered.  Rows with ``h`` below ``H_COMPLETE_DEP`` lie on the moving
    frame and take the complete-dependence branch; there, a same-date row
    has coincident sites and no density.  The floor applies last.

    Yields ``(c, logf, n_floored)`` per chunk of candidates ``c``: one row of
    floored terms and one count per candidate, overwritten by the next chunk.
    A chunk holds as many whole candidates as fit in ``_TERM_CHUNK`` terms, or
    one candidate in ``_TERM_CHUNK``-term slices.  No bit depends on chunks.
    """
    n_terms, n_rows, k = pairs.n_terms, pairs.lag.size, a.size
    per = max(1, min(k, _TERM_CHUNK // n_terms))
    width = min(per * n_terms, _TERM_CHUNK)
    # Candidate i of a chunk reads rows i*n_rows onward of the stacked table.
    row = (pairs.row + n_rows * np.arange(per)[:, None]).ravel() if per > 1 else pairs.row
    terms = (pairs.log_ratio, pairs.inv_z1, pairs.inv_z2, pairs.log_jac)
    log_ratio, inv_z1, inv_z2, log_jac = (np.tile(x, per) for x in terms) if per > 1 else terms
    sigma_inv = sigma.sigma_inv
    # math.log, not np.log: its bits are those of one scalar a.
    log_a = np.array(list(map(math.log, a.tolist())))
    buffer = np.empty(per * n_terms)
    work = np.empty((9, width))
    full_rows = tuple(work)
    for c0 in range(0, k, per):
        c = slice(c0, min(c0 + per, k))
        # One candidate is indexed as a scalar, so its per-row arrays stay 1-d.
        at = c0 if per == 1 else (c, None)
        offsets = pairs.dx - pairs.lag[:, None] * tau[at]
        h = np.sqrt(np.maximum(_quadratic_form(offsets, sigma_inv), 0.0))
        alag = a[at] ** pairs.lag
        degenerate = h < H_COMPLETE_DEP
        h[degenerate] = 1.0
        inv_h = 1.0 / h
        c_over_h = pairs.lag * log_a[at] * inv_h
        per_row = np.array([inv_h, 0.5 * h - c_over_h, 0.5 * h + c_over_h, alag, 1.0 - alag])
        per_row = per_row.reshape(5, -1)
        logf = buffer[: (c.stop - c0) * n_terms]
        with np.errstate(divide="ignore"):
            for start in range(0, logf.size, width):
                t = slice(start, min(start + width, logf.size))
                out = logf[t]
                chunk = work[:, : out.size]
                # One gather ("clip" writes straight into the work rows; every row
                # index is valid); w and v still lack their log(z2/z1)/h part.
                # The steps keep the operand order of the whole-array formula.
                per_row.take(row[t], 1, chunk[:5], "clip")
                rows9 = full_rows if out.size == width else tuple(chunk)
                inv_h_t, w, v, alag_t, residual_t, cdf_w, s_over_z2, pdf_w_over_h, tmp = rows9
                np.multiply(log_ratio[t], inv_h_t, tmp)
                w += tmp
                v -= tmp
                ndtr(w, cdf_w)
                ndtr(v, s_over_z2)
                s_over_z2 *= alag_t
                s_over_z2 += residual_t
                s_over_z2 *= inv_z2[t]
                np.multiply(w, -0.5, pdf_w_over_h)
                pdf_w_over_h *= w
                np.exp(pdf_w_over_h, pdf_w_over_h)
                pdf_w_over_h *= inv_h_t
                pdf_w_over_h /= SQRT_TWO_PI
                np.multiply(cdf_w, s_over_z2, out)
                out += pdf_w_over_h
                np.log(out, out)
                np.multiply(cdf_w, inv_z1[t], tmp)
                tmp += s_over_z2
                tmp -= log_jac[t]
                out -= tmp

        degenerate = degenerate.ravel()
        if degenerate.any():
            # Moving-frame pairs: X2 = max(a**l X1, (1-a**l) W) with W
            # independent Frechet, so the absolutely continuous part is a
            # product on z2 > a**l z1 and zero at or below the singular line.
            idx = np.flatnonzero(degenerate[row[: logf.size]])
            rows, term = row[idx], idx % n_terms
            if not pairs.lag[rows % n_rows].all():
                bad = f"same-date pair {term[0]} has coincident sites under this covariance"
                raise DegeneratePairError(f"{bad}; remove duplicated sites before fitting")
            z1, z2 = pairs.z1[term], pairs.z2[term]
            residual = per_row[4, rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                log_product = (
                    pairs.log_jac[term]
                    - np.log(z2)
                    - pairs.inv_z1[term]
                    + np.log(np.maximum(residual, 0.0))
                    - residual * pairs.inv_z2[term]
                )
            logf[idx] = np.where(z2 > per_row[3, rows] * z1, log_product, -np.inf)

        logf = logf.reshape(-1, n_terms)
        nan = np.isnan(logf)
        if nan.any():
            i, bad = np.argwhere(nan)[0]
            raise NumericalError(f"log density is NaN at pair index {bad} of candidate {c0 + i}")
        # A flat count_nonzero per candidate: an axis count casts every flag.
        n_floored = [np.count_nonzero(low) for low in logf < _LOG_FLOOR]
        np.maximum(logf, _LOG_FLOOR, out=logf)
        yield c, logf, n_floored


def _weighted_loglik(
    pairs: _PreparedPairs, sigma: SmithParams, a: np.ndarray, tau: np.ndarray, name: str
) -> np.ndarray:
    """Weighted sum of the floored terms at each candidate, one chunk at a time."""
    values = np.empty(a.size)
    for c, logf, n_floored in _log_pair_density(pairs, sigma, a, tau):
        for count in filter(None, n_floored):
            logger.debug("%s floored %d of %d terms", name, count, pairs.n_terms)
        logf *= pairs.weight
        values[c] = np.add.reduce(logf, axis=1)
    return values


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
    """
    if not (z1 > 0 and z2 > 0):
        raise ValidationError(f"z1, z2 must be positive, got {z1!r}, {z2!r}")
    c1 = np.asarray(x1, dtype=float)
    c2 = np.asarray(x2, dtype=float)
    if t1 > t2:
        t1, t2, c1, c2, z1, z2 = t2, t1, c2, c1, z2, z1
    lag = t2 - t1
    shifted = c2 - lag * theta.markov.tau_array() - c1
    h1 = float(mahalanobis_distance(shifted, theta.smith))
    if lag == 0 and h1 < H_COMPLETE_DEP:
        raise DegeneratePairError(
            f"pair at date {t1} with sites {c1.tolist()} and {c2.tolist()} "
            "coincides; no absolutely continuous density exists"
        )
    pairs = _prepared_pairs(
        np.array([z1], dtype=float),
        np.array([z2], dtype=float),
        np.ones(1),
        np.zeros(1, dtype=np.intp),
        np.array([lag], dtype=float),
        shifted[None, :],
    )
    # The offset is already shifted, so the kernel's h is h1 bit for bit.
    (_, logf, _), = _log_pair_density(pairs, theta.smith, np.array([theta.a]), np.zeros((1, 2)))
    return float(np.exp(logf[0, 0]))


def _prepare_st_pairs(data: SpaceTimeField, weights: PairWeights | None) -> _PreparedPairs:
    n, m = data.n_dates, data.n_sites
    if n < 2 or m < 2:
        raise ValidationError(
            f"need at least 2 dates and 2 sites, got N={n}, M={m}"
        )
    dates = np.asarray(data.dates, dtype=float)
    coords = np.asarray(data.sites.coords)
    values = np.asarray(data.values)

    if weights is not None:
        if weights.temporal is not None and weights.temporal.shape[0] != n:
            raise ValidationError(
                f"temporal weights are {weights.temporal.shape[0]}-square for {n} dates"
            )
        if weights.spatial is not None and weights.spatial.shape[0] != m:
            raise ValidationError(
                f"spatial weights are {weights.spatial.shape[0]}-square for {m} sites"
            )
    ti, tj = np.triu_indices(n, k=1)
    sk, sl = np.triu_indices(m, k=1)
    wt = np.ones(ti.size) if weights is None or weights.temporal is None else weights.temporal[ti, tj]
    ws = np.ones(sk.size) if weights is None or weights.spatial is None else weights.spatial[sk, sl]

    # Quadruples in canonical order: date pair major, site pair minor.
    flat = values.ravel()
    z1 = flat[(ti[:, None] * m + sk[None, :]).ravel()]
    z2 = flat[(tj[:, None] * m + sl[None, :]).ravel()]
    weight = (wt[:, None] * ws[None, :]).ravel()
    # Candidate table rows: every distinct lag crossed with every site pair.
    lags, lag_index = np.unique(dates[tj] - dates[ti], return_inverse=True)
    key = (lag_index[:, None] * sk.size + np.arange(sk.size)[None, :]).ravel()
    dx = np.tile(coords[sl] - coords[sk], (lags.size, 1))
    return _prepared_pairs(z1, z2, weight, key, np.repeat(lags, sk.size), dx)


def _eval_st_loglik(
    prepared: _PreparedPairs, sigma: SmithParams, a: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Space-time objective at the ``k`` candidates ``(a[i], tau[i])`` under ``sigma``."""
    return _weighted_loglik(prepared, sigma, a, tau, "pairwise objective")


def _st_loglik_at(prepared: _PreparedPairs, theta: ThetaVector) -> float:
    a, tau = np.array([theta.a]), np.array([[theta.tau1, theta.tau2]])
    return float(_eval_st_loglik(prepared, theta.smith, a, tau)[0])


def pairwise_loglik(
    data: SpaceTimeField,
    theta: ThetaVector,
    weights: PairWeights | None = None,
) -> float:
    """Space-time pairwise log likelihood over the strict quadruple set.

    Exactly ``C(N,2) * C(M,2)`` terms contribute under default weights: the
    observation at ``(t_i, x_k)`` pairs with the one at ``(t_j, x_l)`` for
    ``i < j`` and ``k < l``.  The terms are summed by one ``np.sum`` over a
    contiguous array, whose pairwise reduction order depends only on the
    term count, so the value is the same bits on every run.
    """
    return _st_loglik_at(_prepare_st_pairs(data, weights), theta)


def _prepare_spatial_pairs(
    data: SpaceTimeField, weights: PairWeights | None
) -> _PreparedPairs:
    n, m = data.n_dates, data.n_sites
    if m < 2:
        raise ValidationError(f"need at least 2 sites, got M={m}")
    if weights is not None and weights.spatial is not None and weights.spatial.shape[0] != m:
        raise ValidationError(
            f"spatial weights are {weights.spatial.shape[0]}-square for {m} sites"
        )
    coords = np.asarray(data.sites.coords)
    values = np.asarray(data.values)
    sk, sl = np.triu_indices(m, k=1)
    ws = np.ones(sk.size) if weights is None or weights.spatial is None else weights.spatial[sk, sl]
    return _prepared_pairs(
        values[:, sk].ravel(),
        values[:, sl].ravel(),
        np.tile(ws, n),
        np.tile(np.arange(sk.size), n),
        np.zeros(sk.size),
        coords[sl] - coords[sk],
    )


def _eval_spatial_loglik(prepared: _PreparedPairs, sigma: SmithParams) -> float:
    values = _weighted_loglik(prepared, sigma, np.ones(1), np.zeros((1, 2)), "spatial objective")
    return float(values[0])


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
    return _eval_spatial_loglik(_prepare_spatial_pairs(data, weights), sigma)


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


def _logit(a: float) -> float:
    return math.log(a / (1.0 - a))


def _expit(u: float) -> float:
    if u >= 0:
        out = 1.0 / (1.0 + math.exp(-u))
    else:
        e = math.exp(u)
        out = e / (1.0 + e)
    # Saturated floats would escape the open interval and fail validation.
    return min(max(out, 1e-12), 1.0 - 1e-12)


# The blocks of theta = (sigma11, sigma12, sigma22, a, tau1, tau2), each with
# its map onto all of R^k and back: log-Cholesky, logit, identity.
_SIGMA = (slice(0, 3), _sigma_to_chol, _chol_to_sigma)
_A = (slice(3, 4), lambda x: [_logit(float(x[0]))], lambda u: _expit(float(u[0])))
_TAU = (slice(4, 6), lambda x: x, lambda u: u)


def _to_free(theta: np.ndarray, free: tuple) -> np.ndarray:
    """Unconstrained coordinates of the ``free`` blocks of ``theta``, in order."""
    return np.concatenate([np.asarray(fwd(theta[block]), dtype=float) for block, fwd, _ in free])


def _from_free(u: np.ndarray, base: np.ndarray, free: tuple) -> np.ndarray:
    """``base`` with its ``free`` blocks replaced by the image of ``u``.

    Held blocks are copied from ``base`` as they are, never round-tripped
    through their map, so a stage leaves them bit-identical.
    """
    theta = base.copy()
    start = 0
    for block, _, inverse in free:
        stop = start + block.stop - block.start
        theta[block] = inverse(u[start:stop])
        start = stop
    return theta


def _nelder_mead(
    objective: Callable[[np.ndarray], float],
    init: np.ndarray,
    opts: FitOptions,
) -> OptimizeResult:
    """Minimize ``objective`` over all of R^n by scipy's Nelder-Mead.

    After the first run the simplex is rebuilt once around the best vertex,
    ten times smaller, which guards against premature collapse; ``success``
    is the last run's.  Every objective call counts against
    ``opts.max_evals``, and a NaN objective is read as +inf.
    """
    evals = 0

    def g(u: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = float(objective(u))
        return math.inf if math.isnan(value) else value

    u = np.asarray(init, dtype=float)
    fun = g(u)
    if math.isinf(fun):
        raise ValidationError("objective is not finite at the initial point")
    success = False
    for step in (_SIMPLEX_STEP, 0.1 * _SIMPLEX_STEP):
        if evals >= opts.max_evals:
            break
        simplex = np.vstack([u, u + np.diag(step * np.maximum(1.0, np.abs(u)))])
        run = minimize(g, u, method="Nelder-Mead", options={
            "initial_simplex": simplex,
            "xatol": opts.xtol,
            "fatol": opts.ftol,
            "maxfev": opts.max_evals - evals,
        })
        success = bool(run.success)
        if run.fun <= fun:
            u, fun = run.x, float(run.fun)
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


# An estimate of ``a`` this close to 0 or 1 sits at the ``_expit`` clamp,
# not at an interior maximum, so the fit does not report convergence.
_A_BOUNDARY_TOL = 1e-9


def _a_is_interior(a: float) -> bool:
    return _A_BOUNDARY_TOL < a < 1.0 - _A_BOUNDARY_TOL


def _fit(data: SpaceTimeField, init: ThetaVector, opts: FitOptions, scheme: int) -> FitReport:
    """Run the stages of ``scheme`` from ``init`` on pair tables built once.

    A stage is an objective of theta, the blocks it frees and a rule giving
    its starts from the current theta.  Each start is refined by
    :func:`_nelder_mead` over the free blocks' unconstrained coordinates, the
    best run's theta passes to the next stage, and the last stage's value is
    the reported log likelihood.  ``iterations`` sums every run of every
    stage; ``converged`` needs every stage's best run to have converged and
    ``a`` to lie off its clamp.
    """
    weights = PairWeights.cutoff(
        data.dates, data.sites.coords, opts.max_time_lag, opts.max_space_dist
    )
    spatial_pairs = _prepare_spatial_pairs(data, weights) if scheme == 1 else None
    st_pairs = _prepare_st_pairs(data, weights)
    scan_pairs = _short_lag_pairs(st_pairs)

    def neg_spatial(theta: ThetaVector) -> float:
        return -_eval_spatial_loglik(spatial_pairs, theta.smith)

    def neg_st(theta: ThetaVector) -> float:
        return -_st_loglik_at(st_pairs, theta)

    def scan(theta: np.ndarray) -> list[np.ndarray]:
        return _temporal_start_candidates(scan_pairs, theta)

    if scheme == 1:
        stages = [
            (neg_spatial, (_SIGMA,), lambda theta: [theta]),
            (neg_st, (_A, _TAU), scan),
        ]
    else:
        stages = [(neg_st, (_SIGMA, _A, _TAU), scan)]

    theta = init.as_array()
    iterations, converged = 0, True
    for objective, free, starts in stages:
        runs = []
        for start in starts(theta):
            run = _nelder_mead(
                lambda u: objective(ThetaVector.from_array(_from_free(u, start, free))),
                _to_free(start, free),
                opts,
            )
            run.x = _from_free(run.x, start, free)
            runs.append(run)
        best = min(runs, key=lambda r: r.fun)
        theta = best.x
        iterations += sum(r.nfev for r in runs)
        converged = converged and best.success
    theta_hat = ThetaVector.from_array(theta)
    return FitReport(
        theta_hat=theta_hat,
        loglik=-best.fun,
        n_pairs=st_pairs.n_terms,
        iterations=iterations,
        converged=converged and _a_is_interior(theta_hat.a),
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
    clamp of 0 or 1 reports ``converged=False``.
    """
    return _fit(data, init, options or FitOptions(), 1)


def fit_scheme2(
    data: SpaceTimeField, init: ThetaVector, options: FitOptions | None = None
) -> FitReport:
    """Joint fit: one six-parameter maximization of the space-time objective.

    The starts come from the same scan as :func:`fit_scheme1`'s second
    stage, at the initial covariance.  As there, an estimate of ``a`` stuck
    at the clamp of 0 or 1 reports ``converged=False``.
    """
    return _fit(data, init, options or FitOptions(), 2)
