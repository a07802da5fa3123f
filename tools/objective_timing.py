"""Per-call cost of the pairwise objective, in microseconds.

Run from the root of a checkout, at two commits, and compare the output:

    PYTHONPATH=src python tools/objective_timing.py

The tables are those of record 0 of the study recipe (seed 1, uniform sites
on [0, 10]^2, Sigma = I, a = 0.7, tau = (-1, -1)) on 4 sites x 4 dates and on
20 sites x 20 dates: the same-date table and the space-time table.  Each
row is timed at the true theta after a warm-up, as the median over
``REPEATS`` batches of the time per call, on one thread:

- ``eval`` rows call ``inference._eval_st_loglik`` at one candidate, for the
  value and for the value with its gradient;
- ``stage`` rows call one stage objective in free coordinates: the
  covariance stage on the same-date table, and the ``(a, tau)`` stage and
  the joint stage on the space-time table;
- the ``scan`` row is the start scan's batched call, 244 candidates on the
  short-lag table, with the candidates the scan builds.

Timings of the same code drift between minutes on a shared machine, so
compare runs of the two commits made alternately, one right after the other.
"""

from __future__ import annotations

import os

# One thread, fixed before numpy loads its thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import time
from unittest import mock

import numpy as np

import maxstorm as ms
from maxstorm import inference

TRUTH = ms.ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
# (sites, dates) of the timed records.
SHAPES = ((4, 4), (20, 20))
REPEATS = 15
# Each batch of calls lasts about this long.
BATCH_S = 0.02


def study_record(n_sites: int, n_dates: int) -> ms.SpaceTimeField:
    root = ms.SeededStream(1).child(0)
    coords = root.child(0).generator().uniform(0.0, 10.0, size=(n_sites, 2))
    return ms.simulate_markov_planar(
        ms.SiteSet.planar(coords), n_dates, TRUTH.smith, TRUTH.markov, root.child(1)
    )


def per_call_us(call) -> float:
    """Median microseconds per ``call()`` over ``REPEATS`` batches, after a warm-up."""
    start = time.perf_counter()
    calls = 0
    while calls < 5 or time.perf_counter() - start < BATCH_S:
        call()
        calls += 1
    batch = max(1, round(calls * BATCH_S / (time.perf_counter() - start)))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            call()
        times.append((time.perf_counter() - start) / batch)
    return statistics.median(times) * 1e6


def scan_candidates(pairs: inference._PreparedPairs) -> tuple:
    """The ``(sigma, a, tau)`` of the start scan's batched call on ``pairs``."""
    calls = []

    def recording(pairs, sigma, a, tau, gradient=False):
        calls.append((sigma, a, tau))
        return np.zeros(a.size)

    with mock.patch.object(inference, "_eval_st_loglik", recording):
        inference._temporal_start_candidates(pairs, TRUTH.as_array())
    (candidates,) = calls
    return candidates


def rows(n_sites: int, n_dates: int):
    """``(name, terms, call)`` of every timed row on one record."""
    data = study_record(n_sites, n_dates)
    same_date = inference._prepare_pairs(data, None, (np.arange(n_dates),) * 2)
    space_time = inference._prepare_pairs(data, None, np.triu_indices(n_dates, 1))
    theta = TRUTH.as_array()
    a, tau = theta[3:4], theta[None, 4:]
    evaluate = inference._eval_st_loglik
    for name, pairs in (("same-date", same_date), ("space-time", space_time)):
        yield f"eval {name} value", pairs.n_terms, lambda p=pairs: evaluate(p, TRUTH.smith, a, tau)
        yield f"eval {name} gradient", pairs.n_terms, (
            lambda p=pairs: evaluate(p, TRUTH.smith, a, tau, gradient=True)
        )
    stages = (
        ("stage covariance", same_date, (inference._SIGMA,)),
        ("stage (a, tau)", space_time, (inference._A, inference._TAU)),
        ("stage all six", space_time, (inference._SIGMA, inference._A, inference._TAU)),
    )
    for name, pairs, free in stages:
        objective = inference._stage_objective(pairs, theta, free)
        u = inference._to_free(theta, free)
        yield name, pairs.n_terms, lambda f=objective, u=u: f(u)
    short = inference._short_lag_pairs(space_time)
    sigma, a_scan, tau_scan = scan_candidates(short)
    yield f"scan {a_scan.size}", short.n_terms, lambda: evaluate(short, sigma, a_scan, tau_scan)


if __name__ == "__main__":
    for n_sites, n_dates in SHAPES:
        for name, terms, call in rows(n_sites, n_dates):
            print(f"{n_sites}x{n_dates} {name} ({terms} terms): {per_call_us(call):.1f} us")
