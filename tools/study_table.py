"""Outcome table of the Monte Carlo study, for comparing estimator changes.

Run from the root of a checkout, at two commits, and compare the output:

    PYTHONPATH=src python tools/study_table.py [--seed 20260401] [--replicates 20]
        [--scheme both] [--sites 20] [--dates 20]

The study is that of ``tests/test_acceptance.py``: uniform sites on
[0, 10]^2, the truth Sigma = I, a = 0.7, tau = (-1, -1), and a budget of
5,000 evaluations per optimizer run.  Each scheme is one ``run_study`` call
on one thread (``MAXSTORM_THREADS=1``), so the schemes are timed apart.  Per
scheme the table gives:

- the mean and sd of each parameter over the fitted replicates;
- the evaluations, the sum of ``FitReport.iterations`` (the start scan is
  not in it);
- the replicates whose fit is not converged, and those whose fit failed;
- the replicates whose unrounded estimate puts a space-time table row at
  ``h <= SPIKE_H``, with ``h`` from ``inference._row_h``: fits on or near
  the likelihood spike;
- the wall time of the ``run_study`` call, simulation included.

Every line but the wall time is fixed by the arguments.
"""

from __future__ import annotations

import os

# One thread, fixed before numpy loads its thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MAXSTORM_THREADS"):
    os.environ[_var] = "1"

import argparse
import time
from collections.abc import Iterator
from dataclasses import fields
from unittest import mock

import numpy as np

import maxstorm as ms
from maxstorm import inference, study

TRUTH = ms.ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
SPIKE_H = 1e-3


def spike(field: ms.SpaceTimeField, theta: ms.ThetaVector) -> bool:
    """Whether ``theta`` puts a row of the space-time table of ``field`` at ``h <= SPIKE_H``."""
    pairs = inference._prepare_pairs(field, None, np.triu_indices(field.n_dates, 1))
    h = inference._row_h(pairs, theta.smith, theta.tau1, theta.tau2)[2]
    return bool(np.any(h <= SPIKE_H))


def scheme_table(config: ms.StudyConfig) -> list[str]:
    """The lines of one scheme's study."""
    fields_seen = []
    simulate = study.simulate_markov_planar

    def recording(*args, **kwargs):
        fields_seen.append(simulate(*args, **kwargs))
        return fields_seen[-1]

    start = time.perf_counter()
    with mock.patch.object(study, "simulate_markov_planar", recording):
        result = ms.run_study(config)
    wall = time.perf_counter() - start
    # One thread: one field per replicate, in replicate order.
    reports = {r.index: r.report for r in result.records if r.report is not None}
    estimates = np.array([reports[i].theta_hat.as_array() for i in sorted(reports)])
    names = [f.name for f in fields(ms.ThetaVector)]

    def row(label: str, values) -> str:
        return f"  {label:<4} " + "  ".join(f"{n} {v:.4f}" for n, v in zip(names, values))

    lines = [f"scheme {config.scheme}: {config.replicates} replicates, {len(reports)} fitted"]
    if reports:
        lines.append(row("mean", estimates.mean(axis=0)))
    if len(reports) > 1:
        lines.append(row("sd", estimates.std(axis=0, ddof=1)))
    lines += [
        f"  evaluations {sum(r.iterations for r in reports.values())}",
        f"  unconverged {[i for i, r in sorted(reports.items()) if not r.converged]}",
        f"  failed {[r.index for r in result.records if r.report is None]}",
        f"  h <= {SPIKE_H:g} at the estimate "
        f"{[i for i, r in sorted(reports.items()) if spike(fields_seen[i], r.theta_hat)]}",
        f"  wall time {wall:.1f} s",
    ]
    return lines


def table(seed: int, replicates: int, scheme: str, n_sites: int, n_dates: int) -> Iterator[str]:
    """The lines of every scheme's study, scheme 1 first, as each scheme ends."""
    for s in ("1", "2") if scheme == "both" else (scheme,):
        yield from scheme_table(ms.StudyConfig(
            theta0=TRUTH, n_dates=n_dates, n_sites=n_sites, seed=seed,
            replicates=replicates, scheme=s, low=0.0, high=10.0, max_evals=5000,
        ))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260401)
    parser.add_argument("--replicates", type=int, default=20)
    parser.add_argument("--scheme", choices=("1", "2", "both"), default="both")
    parser.add_argument("--sites", type=int, default=20)
    parser.add_argument("--dates", type=int, default=20)
    args = parser.parse_args(argv)
    for line in table(args.seed, args.replicates, args.scheme, args.sites, args.dates):
        print(line, flush=True)


if __name__ == "__main__":
    main()
