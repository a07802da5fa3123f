"""Monte Carlo estimation study: simulate, fit, summarize.

Each replicate draws its own site layout uniformly on the study square,
simulates the planar Smith-innovation recursion at the true parameters,
and fits from the neutral start of a ``[fit]`` section without ``init_*``
keys (identity covariance, a=0.5, tau=0).  All randomness flows through
per-replicate child streams of one root seed, so results are identical
whatever the worker-thread count and the study is rerunnable replicate by
replicate.

Replicates whose fit raises a :class:`~maxstorm.errors.MaxstormError` are
recorded with the error text and excluded from the summary statistics; the
exclusion count stays visible in every summary row.  Any other exception is
a programming error and propagates out of :func:`run_study`.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .config import _NEUTRAL_START, StudyConfig
from .errors import MaxstormError
from .geometry import SiteSet
from .inference import FitOptions, FitReport, ThetaVector, fit_scheme1, fit_scheme2
from .point_process import SeededStream
from .spacetime import simulate_markov_planar

__all__ = [
    "ReplicateRecord",
    "StudySummaryRow",
    "StudyResult",
    "run_study",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReplicateRecord:
    """One (replicate, scheme) fit attempt; error is None on success."""

    index: int
    scheme: int
    report: FitReport | None
    error: str | None


@dataclass(frozen=True)
class StudySummaryRow:
    scheme: int
    parameter: str
    true: float
    mean_estimate: float
    mean_bias: float
    stdev: float
    n_used: int
    n_excluded: int


@dataclass(frozen=True)
class StudyResult:
    records: tuple[ReplicateRecord, ...]
    summary: tuple[StudySummaryRow, ...]

    def estimates(self, scheme: int, parameter: str) -> np.ndarray:
        """Successful estimates of one parameter under one scheme."""
        return np.array(
            [
                getattr(r.report.theta_hat, parameter)
                for r in self.records
                if r.scheme == scheme and r.report is not None
            ]
        )


def worker_count() -> int:
    """Worker threads for replicate-level parallelism.

    ``MAXSTORM_THREADS`` caps the pool; the default is the logical core
    count.  Values below 1 are clamped to 1.
    """
    raw = os.environ.get("MAXSTORM_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            logger.warning("ignoring non-integer MAXSTORM_THREADS=%r", raw)
    return os.cpu_count() or 1


def _schemes(config: StudyConfig) -> tuple[int, ...]:
    if config.scheme == "both":
        return (1, 2)
    return (int(config.scheme),)


def _one_replicate(
    config: StudyConfig, options: FitOptions, index: int
) -> list[ReplicateRecord]:
    root = SeededStream(config.seed).child(index)
    layout_rng = root.child(0).generator()
    coords = layout_rng.uniform(config.low, config.high, size=(config.n_sites, 2))
    sites = SiteSet.planar(coords)
    field = simulate_markov_planar(
        sites,
        config.n_dates,
        config.theta0.smith,
        config.theta0.markov,
        root.child(1),
    )
    records = []
    for scheme in _schemes(config):
        fit = fit_scheme1 if scheme == 1 else fit_scheme2
        try:
            report = fit(field, _NEUTRAL_START, options)
            records.append(ReplicateRecord(index, scheme, report, None))
        except MaxstormError as exc:
            logger.warning("replicate %d scheme %d failed: %s", index, scheme, exc)
            records.append(ReplicateRecord(index, scheme, None, str(exc)))
    return records


def _summarize(config: StudyConfig, records: list[ReplicateRecord]) -> list[StudySummaryRow]:
    truth = config.theta0.as_array()
    rows = []
    for scheme in _schemes(config):
        ok = [r.report for r in records if r.scheme == scheme and r.report is not None]
        n_excluded = sum(
            1 for r in records if r.scheme == scheme and r.report is None
        )
        estimates = np.array([r.theta_hat.as_array() for r in ok])
        for p, param in enumerate(fields(ThetaVector)):
            if len(ok) == 0:
                mean = bias = sd = float("nan")
            else:
                col = estimates[:, p]
                mean = float(np.mean(col))
                bias = mean - float(truth[p])
                sd = float(np.std(col, ddof=1)) if len(ok) > 1 else float("nan")
            rows.append(
                StudySummaryRow(
                    scheme=scheme,
                    parameter=param.name,
                    true=float(truth[p]),
                    mean_estimate=mean,
                    mean_bias=bias,
                    stdev=sd,
                    n_used=len(ok),
                    n_excluded=n_excluded,
                )
            )
    return rows


def run_study(config: StudyConfig) -> StudyResult:
    """Run all replicates, possibly in parallel, and summarize.

    Output order is by replicate index then scheme regardless of thread
    scheduling; with a fixed seed the whole result is deterministic.
    """
    # Built first, so an invalid budget fails before any replicate runs.
    options = FitOptions(max_evals=config.max_evals)
    workers = min(worker_count(), config.replicates)
    if workers <= 1:
        nested = [_one_replicate(config, options, i) for i in range(config.replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(
                pool.map(
                    lambda i: _one_replicate(config, options, i), range(config.replicates)
                )
            )
    records = [rec for group in nested for rec in group]
    return StudyResult(
        records=tuple(records),
        summary=tuple(_summarize(config, records)),
    )
