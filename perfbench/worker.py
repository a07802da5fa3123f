"""One benchmark workload in a fresh process: set up, measure, check.

``perfbench/run.py`` starts this file once per set-up probe (with
``--setup-only``) and once for the measured run.  It prints ``READY`` when
set-up is done, which is where the parent stops the set-up clock, and as
its last line one JSON object with the checks, the operation counts and
the metrics of the requested mode.
"""

from __future__ import annotations

import os

# Single-threaded timing: fixed before numpy loads its thread pools.
for _var in (
    "MAXSTORM_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

_t_import = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    from scipy import stats
    from scipy.special import ndtr

    import maxstorm
    from maxstorm import (
        FitOptions,
        PairWeights,
        SeededStream,
        SiteSet,
        SpaceTimeField,
        StudyConfig,
        ThetaVector,
        bivariate_density,
        fit_scheme1,
        fit_scheme2,
        pairwise_loglik,
        read_field,
        run_study,
        simulate_markov_planar,
        simulate_smith,
        spatial_pairwise_loglik,
        write_field,
    )
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}\n")
    sys.exit(2)
IMPORT_S = time.perf_counter() - _t_import

if Path(maxstorm.__file__).resolve().parent != (ROOT / "src" / "maxstorm").resolve():
    sys.stderr.write(f"perfbench: imported maxstorm from {maxstorm.__file__}, not this checkout\n")
    sys.exit(2)

import reference  # noqa: E402  (benchmark-local, found next to this file)
from spans import Tracer  # noqa: E402

THETA0 = ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
# The study's neutral start (identity covariance, a=0.5, tau=0).
INIT = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
LOW, HIGH = 0.0, 10.0
# The site-order operation runs on one fixed field, whatever --seed says,
# so that it fails the same way in every run.
SITE_ORDER_SEED = 20260401
# Madogram tolerances in units of 1/sqrt(pairs): about six standard
# deviations of error * sqrt(pairs) over 40 long-series seeds (0.15 and
# 0.48; pairs on one date share the storms, hence the wider second one).
MADOGRAM_C = {"lag (1, 0)": 1.0, "lag (0, h)": 3.0}
KS_MIN_P = 1e-4
REL_TOL = 1e-9
DENSITY_NODES = 64
KERNEL_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """Records of the study recipe and how each one is fitted."""

    name: str
    records: int
    n_dates: int
    n_sites: int
    schemes: tuple[int, ...]
    max_evals: int
    sim_repeats: int = 1
    max_time_lag: float | None = None

    @property
    def study_recipe(self) -> bool:
        """True when ``run_study`` performs exactly this workload's fits."""
        return self.max_time_lag is None and self.schemes == (1, 2)


# Simulate calls repeat within a pass where one round of them lasts about a
# second or less: timings that short follow the machine's noise.
WORKLOADS = {
    # The storm window grows as N**2 with the record length; a lag cutoff
    # keeps the fit linear in N.
    "long-series": Workload("long-series", 2, 30, 20, (1,), 5000, max_time_lag=1.0),
    # 20 sites x 20 dates: 36,100 pair terms per objective evaluation.  A
    # fixed evaluation budget makes every pass do the same number of them.
    "study-field": Workload("study-field", 4, 20, 20, (1, 2), 50, sim_repeats=5),
    # Tiny fields: per-call overhead of simulation and fitting dominates.
    "many-small": Workload("many-small", 24, 4, 4, (1, 2), 100, sim_repeats=25),
}


@dataclass
class Setup:
    sites: list
    weights: list
    options: FitOptions
    site_order_field: SpaceTimeField | None
    io_write_s: float
    io_read_s: float
    io_bytes: int


@dataclass
class PassResult:
    sim_times: list  # seconds per simulate call (median of its repeats), in call order
    fit_times: list  # seconds per fit call, in call order
    wall_s: float
    fields: list
    reports: list  # (record, scheme, FitReport)
    site_order_ok: bool | None
    repeatable: bool  # repeated simulate calls gave identical fields

    @property
    def sim_s(self) -> float:
        return sum(self.sim_times)

    @property
    def fit_s(self) -> float:
        return sum(self.fit_times)


def stage_time(passes: list[PassResult], attr: str) -> float:
    """One pass of a stage, each call timed by its median over the passes.

    Every pass repeats the same calls on the same inputs, so the median per
    call keeps a burst of machine noise in one call out of the stage time.
    """
    per_call = zip(*(getattr(p, attr) for p in passes))
    return sum(statistics.median(times) for times in per_call)


def record_stream(seed: int, i: int) -> SeededStream:
    """Replicate ``i`` of the study recipe (``maxstorm.study``) under ``seed``."""
    return SeededStream(seed).child(i)


def synthetic_field(sites: SiteSet, n_dates: int, stream: SeededStream) -> SpaceTimeField:
    u = stream.generator().uniform(size=(n_dates, len(sites)))
    return SpaceTimeField(sites, np.arange(1, n_dates + 1), -1.0 / np.log(u))


def reversed_sites(field: SpaceTimeField) -> SpaceTimeField:
    coords = np.asarray(field.sites.coords)[::-1]
    return SpaceTimeField(SiteSet.planar(coords), field.dates, np.asarray(field.values)[:, ::-1])


def make_setup(w: Workload, seed: int) -> Setup:
    sites, weights = [], []
    for i in range(w.records):
        rng = record_stream(seed, i).child(0).generator()
        s = SiteSet.planar(rng.uniform(LOW, HIGH, size=(w.n_sites, 2)))
        sites.append(s)
        weights.append(
            None
            if w.max_time_lag is None
            else PairWeights.cutoff(np.arange(1, w.n_dates + 1), s.coords, w.max_time_lag)
        )
    options = FitOptions(max_evals=w.max_evals, max_time_lag=w.max_time_lag)

    # Input files: each record's layout with Frechet values drawn from the
    # seed, written and read back as `maxstorm fit --field` would.
    OUT.mkdir(parents=True, exist_ok=True)
    write_s = read_s = 0.0
    n_bytes = 0
    first = None
    for i, s in enumerate(sites):
        field = synthetic_field(s, w.n_dates, record_stream(seed, i).child(2))
        path = OUT / f"input-{w.name}-{os.getpid()}-{i}.csv"
        t = time.perf_counter()
        write_field(field, path)
        write_s += time.perf_counter() - t
        n_bytes += path.stat().st_size
        t = time.perf_counter()
        back = read_field(path)
        read_s += time.perf_counter() - t
        path.unlink()
        if not (
            np.array_equal(back.values, field.values)
            and np.array_equal(back.dates, field.dates)
            and np.array_equal(back.sites.coords, field.sites.coords)
        ):
            raise SystemExit(f"perfbench: field file round trip changed record {i}")
        first = back if first is None else first

    site_order_field = None
    if w.name == "study-field":
        root = record_stream(SITE_ORDER_SEED, 0)
        s = SiteSet.planar(root.child(0).generator().uniform(LOW, HIGH, size=(20, 2)))
        site_order_field = simulate_markov_planar(s, 20, THETA0.smith, THETA0.markov, root.child(1))

    # Warm-up: one tiny simulation and one objective on the input file.
    one_site = SiteSet.planar(np.zeros((1, 2)))
    simulate_markov_planar(one_site, 3, THETA0.smith, THETA0.markov, SeededStream(seed))
    pairwise_loglik(first, THETA0, weights[0])
    return Setup(sites, weights, options, site_order_field, write_s, read_s, n_bytes)


def site_order_holds(field: SpaceTimeField) -> bool:
    """The objective at the truth must not depend on the order sites are listed in."""
    ll = pairwise_loglik(field, THETA0)
    ll_rev = pairwise_loglik(reversed_sites(field), THETA0)
    return abs(ll_rev - ll) <= REL_TOL * abs(ll)


def run_pass(w: Workload, seed: int, setup: Setup, tracer: Tracer) -> PassResult:
    sim_times, fit_times = [], []
    fields, reports = [], []
    repeatable = True
    t_pass = time.perf_counter()
    with tracer.span("pass"):
        for i in range(w.records):
            repeats = []
            for r in range(w.sim_repeats):
                with tracer.span("spacetime.simulate_markov_planar"):
                    t = time.perf_counter()
                    field = simulate_markov_planar(
                        setup.sites[i], w.n_dates, THETA0.smith, THETA0.markov,
                        record_stream(seed, i).child(1),
                    )
                    repeats.append(time.perf_counter() - t)
                if r == 0:
                    fields.append(field)
                elif not np.array_equal(field.values, fields[i].values):
                    repeatable = False
            sim_times.append(statistics.median(repeats))
            for scheme in w.schemes:
                fit = fit_scheme1 if scheme == 1 else fit_scheme2
                with tracer.span(f"inference.fit_scheme{scheme}"):
                    t = time.perf_counter()
                    report = fit(field, INIT, setup.options)
                    fit_times.append(time.perf_counter() - t)
                reports.append((i, scheme, report))
        site_order_ok = None
        if setup.site_order_field is not None:
            with tracer.span("inference.pairwise_loglik.site_order"):
                site_order_ok = site_order_holds(setup.site_order_field)
    wall = time.perf_counter() - t_pass
    return PassResult(sim_times, fit_times, wall, fields, reports, site_order_ok, repeatable)


@contextmanager
def objective_counters(tracer: Tracer):
    """Count objective evaluations per open span while a traced pass runs.

    Wraps the two objective kernels of ``maxstorm.inference`` for the
    duration of the block; the fits look them up at call time.  Counted
    evaluations minus the ones a ``FitReport`` states are the start-scan
    evaluations, which no report carries.
    """
    inf = maxstorm.inference
    saved = {name: getattr(inf, name) for name in ("_eval_st_loglik", "_eval_spatial_loglik")}

    def counting(original):
        def counted(*args, **kwargs):
            tracer.current().count("evals")
            return original(*args, **kwargs)

        return counted

    for name, original in saved.items():
        setattr(inf, name, counting(original))
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(inf, name, original)


def measure(w: Workload, seed: int, seconds: float, setup: Setup, tracer: Tracer, traced: bool):
    """Run whole passes until the next one would end past ``seconds``.

    Untraced runs measure every pass without spans.  Traced runs alternate
    an untraced and a traced pass (at least one of each), so the tracing
    overhead is the gap between their medians.
    """
    passes: list[tuple[bool, PassResult]] = []
    start = time.perf_counter()
    while True:
        with_spans = traced and len(passes) % 2 == 1
        tracer.enabled = with_spans
        if with_spans:
            with objective_counters(tracer):
                p = run_pass(w, seed, setup, tracer)
        else:
            p = run_pass(w, seed, setup, tracer)
        tracer.enabled = False
        passes.append((with_spans, p))
        sys.stderr.write(
            f"perfbench: {w.name} pass {len(passes)} traced={int(with_spans)} "
            f"simulate {p.sim_s:.3f}s fit {p.fit_s:.3f}s wall {p.wall_s:.3f}s\n"
        )
        elapsed = time.perf_counter() - start
        if traced and len(passes) < 2:
            continue
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def check_repeatable(passes: list[PassResult]) -> list[str]:
    first = passes[0]
    bad = [f"pass {k}: a repeated simulation changed" for k, p in enumerate(passes, 1) if not p.repeatable]
    for k, p in enumerate(passes[1:], start=2):
        same_fields = all(
            np.array_equal(a.values, b.values) for a, b in zip(first.fields, p.fields)
        )
        same_fits = all(
            ra.theta_hat == rb.theta_hat and ra.loglik == rb.loglik
            for (_, _, ra), (_, _, rb) in zip(first.reports, p.reports)
        )
        if not (same_fields and same_fits):
            bad.append(f"pass {k} gave other outputs than pass 1 on the same inputs")
    return bad


def check_fits(p: PassResult, setup: Setup) -> list[str]:
    """Reported log-likelihood is the objective at the estimate, and beats truth and start.

    Scheme 1 maximizes over ``(a, tau)`` with the covariance held at its
    stage-one estimate, so its truth and start carry that covariance.  A
    fit stopped by its evaluation budget reports ``converged=False`` and
    owes only the start: the scan that seeds the simplex scores the start.
    """
    bad = []
    for i, scheme, r in p.reports:
        field, wts, th = p.fields[i], setup.weights[i], r.theta_hat
        at_hat = pairwise_loglik(field, th, wts)
        if not close(r.loglik, at_hat):
            bad.append(f"record {i} scheme {scheme}: reported {r.loglik!r}, objective {at_hat!r}")
        if scheme == 1:
            sig = (th.sigma11, th.sigma12, th.sigma22)
            truth = ThetaVector(*sig, THETA0.a, THETA0.tau1, THETA0.tau2)
            start = ThetaVector(*sig, INIT.a, INIT.tau1, INIT.tau2)
        else:
            truth, start = THETA0, INIT
        refs = (("truth", truth), ("start", start)) if r.converged else (("start", start),)
        for label, ref in refs:
            ll = pairwise_loglik(field, ref, wts)
            if r.loglik < ll - REL_TOL * abs(ll):
                bad.append(f"record {i} scheme {scheme}: {r.loglik!r} below the {label} {ll!r}")
    return bad


def check_madograms(p: PassResult) -> list[str]:
    """Empirical F-madograms against the reference extremal coefficient.

    Lag (1, 0): each site against itself one date later, pooled over sites
    and records.  Lag (0, h): every site pair on the same date, h being
    the pair's offset; the mean over pairs of (estimate - reference) must
    vanish.  The tolerance shrinks as one over the root of the pair count.
    """
    sigma = np.asarray(THETA0.smith.sigma)
    tau = np.array([THETA0.tau1, THETA0.tau2])
    theta = lambda lag, h: reference.smith_theta(lag, h, sigma, THETA0.a, tau)  # noqa: E731
    now, later, gaps = [], [], []
    for f in p.fields:
        u = reference.frechet_cdf(f.values)
        now.append(u[:-1].ravel())
        later.append(u[1:].ravel())
        coords = np.asarray(f.sites.coords)
        for k, l in zip(*np.triu_indices(f.n_sites, k=1)):
            nu = reference.theta_to_madogram(theta(0, coords[l] - coords[k]))
            gaps.append(reference.madogram(u[:, k], u[:, l]) - nu)
    n_dates = p.fields[0].n_dates
    lag1 = reference.madogram(np.concatenate(now), np.concatenate(later))
    bad = []
    for label, err, n in (
        ("lag (1, 0)", lag1 - reference.theta_to_madogram(theta(1, (0.0, 0.0))), now[0].size * len(now)),
        ("lag (0, h)", float(np.mean(gaps)), len(gaps) * n_dates),
    ):
        tol = MADOGRAM_C[label] / math.sqrt(n)
        sys.stderr.write(f"perfbench: madogram {label}: error {err:+.4f}, tolerance {tol:.4f}\n")
        if abs(err) > tol:
            bad.append(f"madogram {label} off by {err:+.4f} over {n} pairs (tolerance {tol:.4f})")
    return bad


def check_margins(p: PassResult) -> list[str]:
    """Standard Frechet margins at the (last date, first site) slot across records."""
    draws = np.array([f.values[-1, 0] for f in p.fields])
    result = stats.kstest(draws, reference.frechet_cdf)
    if result.pvalue < KS_MIN_P:
        return [f"margins: KS p-value {result.pvalue:.2e} over {draws.size} records"]
    return []


def check_density(p: PassResult) -> list[str]:
    """``bivariate_density`` at the joint estimate integrates to 1 on the quadrant.

    One pair per time lag 0, 1 and 2: the site pair of record 0 whose
    Mahalanobis length under the estimate is closest to 2.5, far enough
    from the singular line for a fixed Gauss-Legendre rule on
    ``z = u / (1 - u)`` to hold the integral within 1e-4.
    """
    theta = next(r for _, scheme, r in p.reports if scheme == 2).theta_hat
    coords = np.asarray(p.fields[0].sites.coords)
    sigma_inv = np.linalg.inv(np.asarray(theta.smith.sigma))
    tau = np.array([theta.tau1, theta.tau2])
    nodes, weights = np.polynomial.legendre.leggauss(DENSITY_NODES)
    u, wu = 0.5 * (nodes + 1.0), 0.5 * weights
    z, wz = u / (1.0 - u), wu / (1.0 - u) ** 2
    bad = []
    for lag in (0, 1, 2):
        d = coords[None, :, :] - coords[:, None, :] - lag * tau
        h1 = np.sqrt(np.einsum("kli,ij,klj->kl", d, sigma_inv, d))
        if lag == 0:
            np.fill_diagonal(h1, np.inf)
        k, l = np.unravel_index(np.argmin(np.abs(h1 - 2.5)), h1.shape)
        total = sum(
            wz[i] * wz[j] * bivariate_density(z[i], z[j], 1.0, 1.0 + lag, coords[k], coords[l], theta)
            for i in range(z.size)
            for j in range(z.size)
        )
        if abs(total - 1.0) > 1e-3:
            bad.append(f"density of pair (1, site {k}), ({1 + lag}, site {l}) integrates to {float(total)!r}")
    return bad


def study_config(w: Workload, seed: int, replicates: int) -> StudyConfig:
    return StudyConfig(
        theta0=THETA0, n_dates=w.n_dates, n_sites=w.n_sites, seed=seed,
        replicates=replicates, scheme="both", low=LOW, high=HIGH, max_evals=w.max_evals,
    )


def check_study(result, p: PassResult, replicates: int) -> list[str]:
    """``run_study`` in one thread gives the directly computed estimates exactly."""
    direct = [(i, s, r) for i, s, r in p.reports if i < replicates]
    got = [(rec.index, rec.scheme, rec.report) for rec in result.records]
    if len(got) != len(direct):
        return [f"run_study returned {len(got)} fits, expected {len(direct)}"]
    bad = []
    for (i, s, r), (gi, gs, gr) in zip(direct, got):
        if (i, s) != (gi, gs) or gr is None or gr.theta_hat != r.theta_hat or gr.loglik != r.loglik:
            bad.append(f"run_study replicate {gi} scheme {gs} differs from the direct fit")
    return bad


def median_time(fn, reps: int, calls: int = 1) -> float:
    """Median over ``reps`` of the time per call of ``calls`` back-to-back calls."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t) / calls)
    return statistics.median(times)


def layer_metrics(w, seed, setup, passes, tracer, failures) -> dict:
    untraced = [p for traced, p in passes if not traced]
    traced = [p for traced, p in passes if traced]
    p = traced[0]
    wall_plain = statistics.median(q.wall_s for q in untraced)
    wall_traced = statistics.median(q.wall_s for q in traced)

    # Storm kernel replayed date by date on the entries each date reads,
    # alternating with the full simulation so both see the same machine.
    tau = np.array([THETA0.tau1, THETA0.tau2])
    storms = storm_sites = entries = 0
    sim_times, kernel_times = [], []
    with tracer.span("spatial.kernel_replay"):
        for rep in range(KERNEL_REPEATS):
            sim_row, kernel_row = [], []
            for i, f in enumerate(p.fields):
                stream = record_stream(seed, i).child(1)
                t = time.perf_counter()
                simulate_markov_planar(f.sites, w.n_dates, THETA0.smith, THETA0.markov, stream)
                sim_row.append(time.perf_counter() - t)
                grid = np.asarray(f.sites.coords)
                coords = np.concatenate([grid - j * tau for j in range(w.n_dates)])
                counts = f.meta["n_storms_per_date"]
                kernel_s = 0.0
                for d in range(w.n_dates):
                    active = SiteSet.planar(coords[: (w.n_dates - d) * w.n_sites])
                    with tracer.span("spatial.simulate_smith") as sp:
                        t = time.perf_counter()
                        z = simulate_smith(active, THETA0.smith, stream.child(d))
                        kernel_s += time.perf_counter() - t
                        sp.count("storms", z.meta["n_storms"])
                    if z.meta["n_storms"] != counts[d]:
                        failures.append(f"kernel replay of record {i} date {d} drew other storms")
                    if rep == 0:
                        storms += counts[d]
                        storm_sites += counts[d] * len(active)
                        entries += len(active)
                kernel_row.append(kernel_s)
            sim_times.append(sim_row)
            kernel_times.append(kernel_row)
    sim_s = sum(statistics.median(c) for c in zip(*sim_times))
    kernel_s = sum(statistics.median(c) for c in zip(*kernel_times))

    field0, wts0 = p.fields[0], setup.weights[0]
    with tracer.span("inference.pairwise_loglik"):
        loglik_s = median_time(lambda: pairwise_loglik(field0, THETA0, wts0), 7)
    with tracer.span("inference.spatial_pairwise_loglik"):
        spatial_s = median_time(lambda: spatial_pairwise_loglik(field0, THETA0.smith, wts0), 7)
    terms = p.reports[0][2].n_pairs
    x = SeededStream(seed).child(3).generator().standard_normal(terms)
    ndtr_s = median_time(lambda: (ndtr(x), ndtr(-x)), 7)

    evals = {1: [], 2: []}
    scan = []
    fit_spans = [s for s in first_pass_spans(tracer) if s.name.startswith("inference.fit_scheme")]
    for (_, scheme, r), s in zip(p.reports, fit_spans):
        evals[scheme].append(r.iterations)
        scan.append(s.counts.get("evals", 0) - r.iterations)
    total_evals = sum(s.counts.get("evals", 0) for s in fit_spans)
    fit_plain = stage_time(untraced, "fit_times")

    with tracer.span("point_process.stream"):
        stream_s = median_time(lambda: SeededStream(seed).child(5, 7).generator(), 5, 200)
    coords0 = np.asarray(setup.sites[0].coords)
    with tracer.span("geometry.siteset"):
        siteset_s = median_time(lambda: SiteSet.planar(coords0), 5, 200)
    one_site = SiteSet.planar(np.zeros((1, 2)))
    tiny = SeededStream(seed).child(6)
    with tracer.span("spacetime.tiny_call"):
        tiny_s = median_time(
            lambda: simulate_markov_planar(one_site, 3, THETA0.smith, THETA0.markov, tiny), 5, 20
        )

    replicate_s = 0.0
    if w.study_recipe:
        replicates = w.records if w.name == "many-small" else 1
        with tracer.span("study.run_study"):
            t = time.perf_counter()
            result = run_study(study_config(w, seed, replicates))
            replicate_s = (time.perf_counter() - t) / replicates
        failures.extend(check_study(result, p, replicates))

    def mean(v):
        return float(np.mean(v)) if v else 0.0

    return {
        "setup.import_s": (IMPORT_S, "s"),
        "fieldio.write_ms": (setup.io_write_s * 1e3, "ms"),
        "fieldio.read_ms": (setup.io_read_s * 1e3, "ms"),
        "fieldio.bytes": (setup.io_bytes, "bytes"),
        "point_process.stream_us": (stream_s * 1e6, "us"),
        "geometry.siteset_us": (siteset_s * 1e6, "us"),
        "spacetime.tiny_call_us": (tiny_s * 1e6, "us"),
        "spatial.storms": (storms, "count"),
        "spatial.storms_per_date": (storms / (w.records * w.n_dates), "count"),
        "spatial.storm_sites": (storm_sites, "count"),
        "spatial.kernel_s": (kernel_s, "s"),
        "spatial.ns_per_storm_site": (kernel_s * 1e9 / storm_sites, "ns"),
        "spacetime.entries": (entries, "count"),
        "spacetime.overhead_s": (sim_s - kernel_s, "s"),
        "inference.terms": (terms, "count"),
        "inference.loglik_ms": (loglik_s * 1e3, "ms"),
        "inference.ns_per_term": (loglik_s * 1e9 / terms, "ns"),
        "inference.ndtr_share": (ndtr_s / loglik_s, "ratio"),
        "inference.spatial_loglik_ms": (spatial_s * 1e3, "ms"),
        "inference.evals_scheme1": (mean(evals[1]), "count"),
        "inference.evals_scheme2": (mean(evals[2]), "count"),
        "inference.scan_evals": (mean(scan), "count"),
        "inference.us_per_eval": (fit_plain * 1e6 / total_evals, "us"),
        "study.replicate_s": (replicate_s, "s"),
        "trace.overhead_s": (wall_traced - wall_plain, "s"),
        "trace.overhead_share": ((wall_traced - wall_plain) / wall_plain, "ratio"),
    }


def first_pass_spans(tracer: Tracer) -> list:
    """Spans recorded inside the first traced pass."""
    first = tracer.named("pass")[0]
    return [s for s in tracer.spans if first.start <= s.start and s.end <= first.end]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    setup = make_setup(w, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(f"{w.name}-{args.seed}")
    passes = measure(w, args.seed, args.seconds, setup, tracer, bool(args.trace))
    results = [p for _, p in passes]
    first = results[0]

    failures = check_repeatable(results)
    failures += check_fits(first, setup)
    if w.name == "long-series":
        failures += check_madograms(first)
    if w.name == "study-field":
        failures += check_density(first)
    if w.name == "many-small":
        failures += check_margins(first)
        if not args.trace:
            failures += check_study(run_study(study_config(w, args.seed, w.records)), first, w.records)

    ops_per_pass = w.records * (w.sim_repeats + len(w.schemes)) + (first.site_order_ok is not None)
    attempted = ops_per_pass * len(results)
    failed = sum(p.site_order_ok is False for p in results)

    if args.trace:
        metrics = layer_metrics(w, args.seed, setup, passes, tracer, failures)
        tracer.write(OUT / f"spans-{w.name}-{args.seed}.jsonl")
    else:
        metrics = {
            "simulate_s": (stage_time(results, "sim_times"), "s"),
            "fit_s": (stage_time(results, "fit_times"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for f in failures:
        sys.stderr.write(f"perfbench: CHECK FAILED: {f}\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "passes": len(results),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
