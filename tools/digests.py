"""Digests of seeded outputs, for checking that a change keeps the bytes.

Run from the root of a checkout, at two commits, and compare the output:

    PYTHONPATH=src python tools/digests.py

Each line is a name and a sha256.  ``simulators`` covers every simulator
on small inputs, most of them on the dense storm path, plus two
log-likelihoods; ``field.csv`` is the file ``maxstorm simulate`` writes.
``dense 4x4`` covers Smith recursions on the dense storm path, the 24
records of 4 uniform sites on [0, 10]^2 over 4 dates of the study recipe,
seed 1.  The ``local`` lines cover Smith recursions on the local storm
path: 20 such sites over 20, 30 and 80 dates (records of the same recipe),
and a 30-date record under an elongated covariance.  These lines hash the
values and the storms drawn per date.  Two more ``local`` lines
hash single Smith fields on wide windows, seeds 0-49: a line of 40 sites
about 640 buffer radii long, and 3,000 sites in the unit square with one
at (100, 0).  The ``evals`` lines give the storm-entry evaluations of the
same records and fields: a faster storm fold may lower them without
changing any value.  ``fits`` hashes the ``FitReport``s
of both schemes on six 4-site, 4-date records and two 6-site, 8-date
records (study recipe, seed 1), with no cutoff, with ``max_time_lag=2``
and with ``max_space_dist=5``, plus both log-likelihoods of one record under
ten random ``PairWeights``.  ``kernel`` hashes objective values on the
same records, straight from ``inference._eval_st_loglik``: the start scan's
batched call at its 244 candidates, the full space-time table at those
candidates, and per record 50 seeded single candidates on the space-time
and the same-date table, each as a value and as a value with its gradient.
``kernel grid`` hashes the same two scan calls on the 6-date record of
``square_grid(4)`` (seed 0), where 24 of the 244 candidates put a table
row on the moving frame (h = 0): the rows the kernel scores at the floor
``H_COMPLETE_DEP`` of h, which no other line reaches.  ``kernel terms``
hashes each term of the ``kernel`` records' two tables alone, as its value
and theta-gradient at four seeded candidates per record: each term is
evaluated through ``inference._eval_st_loglik`` on its one-term table, so
a change of a few ulps in one term shows, where a sum may round it away.
``cli`` hashes the files the commands write:
``field.csv`` and ``field_meta.json`` of a Smith, a Schlather and a vMF
config, ``fit.json`` of both schemes, the ``dependence`` table, and
``replicates.csv``, ``summary.csv`` and ``study_meta.json`` of a
2-replicate study, once as it runs and once with every scheme-2 fit failing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import tempfile
from unittest import mock

import numpy as np

import maxstorm as ms
from maxstorm import inference, study
from maxstorm.cli import main

INI = """[model]\nkind = smith\nsigma11 = 1.0\nsigma12 = 0.2\nsigma22 = 1.5
[temporal]\na = 0.7\ntau = -1, -1
[sites]\nlayout = uniform\nn_sites = 10
[run]\nn_dates = 8\nseed = 424242
"""

# (path, name, storm covariance, sites, dates, records) of the recursions.
RECORDS = (
    ("dense", "4x4", ms.SmithParams(1.0, 0.0, 1.0), 4, 4, 24),
    ("local", "20x20", ms.SmithParams(1.0, 0.0, 1.0), 20, 20, 4),
    ("local", "20x30", ms.SmithParams(1.0, 0.0, 1.0), 20, 30, 2),
    ("local", "20x80", ms.SmithParams(1.0, 0.0, 1.0), 20, 80, 1),
    ("local", "20x30 elongated", ms.SmithParams(4.0, 1.9, 1.0), 20, 30, 1),
)

# (name, sites, storm covariance) of the local-path single fields.
LOCAL_FIELDS = (
    (
        "line",
        np.column_stack([np.linspace(0.0, 500.0, 40), np.tile([0.0, 1.0], 20)]),
        ms.SmithParams(0.01, 0.0, 0.02),
    ),
    (
        "clustered",
        np.concatenate([np.random.default_rng(6).uniform(0, 1, size=(3000, 2)), [[100.0, 0.0]]]),
        ms.SmithParams(1.0, 0.0, 1.0),
    ),
)


def simulators() -> str:
    h = hashlib.sha256()

    def add(f):
        h.update(np.ascontiguousarray(f.values).tobytes())

    grid, sph = ms.square_grid(3, 1.5), ms.fibonacci_sphere(12)
    smith, sch = ms.SmithParams(1.0, 0.3, 2.0), ms.SchlatherParams(2.0, 1.0)
    mk_p = ms.MarkovParams(0.6, (-1.0, 0.5))
    mk_s = ms.MarkovParams(0.6, rotation=ms.RotationSpec(0.4, (0.0, 0.0, 1.0)))
    for s in range(50):
        st = ms.SeededStream(s)
        add(ms.simulate_smith(grid, smith, st))
        for k in (0.0, 1.0, 5.0):
            add(ms.simulate_vmf_field(sph, ms.VmfParams(k), st))
        add(ms.simulate_schlather(grid, sch, st))
        add(ms.simulate_markov_planar(ms.square_grid(2), 4, smith, mk_p, st))
        add(ms.simulate_markov_planar(ms.square_grid(2), 4, sch, mk_p, st))
        add(ms.simulate_markov_sphere(ms.fibonacci_sphere(4), 4, ms.VmfParams(2.0), mk_s, st))
        add(ms.truncated_moving_max(ms.square_grid(2), np.arange(1, 5), smith, mk_p, 3, st))
    x = np.stack(np.meshgrid(*[np.linspace(-3, 3, 41)] * 2), -1)
    h.update(ms.gaussian_density_2d(x, smith).tobytes())
    h.update(ms.mahalanobis_distance(x, smith).tobytes())
    f = ms.simulate_markov_planar(ms.square_grid(3), 5, smith, mk_p, ms.SeededStream(9))
    theta = ms.ThetaVector(1.0, 0.3, 2.0, 0.6, -1.0, 0.5)
    h.update(np.float64(ms.pairwise_loglik(f, theta)).tobytes())
    h.update(np.float64(ms.spatial_pairwise_loglik(f, smith)).tobytes())
    return h.hexdigest()


def field_csv() -> str:
    with tempfile.TemporaryDirectory() as d:
        pathlib.Path(d, "run.ini").write_text(INI)
        # The CLI prints the temporary path it wrote; keep it off the output.
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", f"{d}/run.ini", "--out", f"{d}/out"]) == 0
        return hashlib.sha256(pathlib.Path(d, "out", "field.csv").read_bytes()).hexdigest()


def record(params: ms.SmithParams, n_sites: int, n_dates: int, records: int) -> tuple[str, int]:
    h = hashlib.sha256()
    evals = 0
    markov = ms.MarkovParams(0.7, (-1.0, -1.0))
    for i in range(records):
        root = ms.SeededStream(1).child(i)
        sites = ms.SiteSet.planar(root.child(0).generator().uniform(0.0, 10.0, size=(n_sites, 2)))
        f = ms.simulate_markov_planar(sites, n_dates, params, markov, root.child(1))
        h.update(np.ascontiguousarray(f.values).tobytes())
        h.update(np.asarray(f.meta["n_storms_per_date"], dtype=np.int64).tobytes())
        evals += sum(f.meta["n_storm_evals_per_date"])
    return h.hexdigest(), evals


def local_field(coords: np.ndarray, params: ms.SmithParams) -> tuple[str, int]:
    h = hashlib.sha256()
    evals = 0
    for seed in range(50):
        f = ms.simulate_smith(ms.SiteSet.planar(coords), params, ms.SeededStream(seed))
        h.update(f.values.tobytes())
        h.update(np.int64(f.meta["n_storms"]).tobytes())
        evals += f.meta["n_storm_evals"]
    return h.hexdigest(), evals


# (sites, dates, records) of the fitted records, and the cutoffs of each fit.
FIT_RECORDS = ((4, 4, 6), (6, 8, 2))
FIT_CUTOFFS = ({}, {"max_time_lag": 2.0}, {"max_space_dist": 5.0})
FIT_INIT = ms.ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)


def fit_records() -> list[ms.SpaceTimeField]:
    truth = ms.ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
    out = []
    for n_sites, n_dates, records in FIT_RECORDS:
        for i in range(records):
            root = ms.SeededStream(1).child(i)
            coords = root.child(0).generator().uniform(0.0, 10.0, size=(n_sites, 2))
            out.append(ms.simulate_markov_planar(
                ms.SiteSet.planar(coords), n_dates, truth.smith, truth.markov, root.child(1)
            ))
    return out


def fits() -> str:
    h = hashlib.sha256()
    for f in fit_records():
        for cutoff in FIT_CUTOFFS:
            opts = ms.FitOptions(max_evals=300, **cutoff)
            for fit in (ms.fit_scheme1, ms.fit_scheme2):
                h.update(repr(fit(f, FIT_INIT, opts)).encode())
    # The weighted log-likelihoods are of the last record.
    rng = np.random.default_rng(5)
    for _ in range(10):
        # Zeros drop pairs; the diagonal of temporal is random too.
        temporal, spatial = (
            rng.uniform(0.0, 2.0, (k, k)) * (rng.random((k, k)) < 0.8)
            for k in (f.n_dates, f.n_sites)
        )
        temporal[0, 1] = spatial[0, 1] = 1.0
        weights = ms.PairWeights(temporal, spatial)
        theta = ms.ThetaVector(
            rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
        )
        h.update(np.float64(ms.pairwise_loglik(f, theta, weights)).tobytes())
        h.update(np.float64(ms.spatial_pairwise_loglik(f, theta.smith, weights)).tobytes())
    return h.hexdigest()


def scan(h, f: ms.SpaceTimeField) -> inference._PreparedPairs:
    """Hash the start scan's batched call on ``f`` and the full table there.

    The scan scores its 244 candidates on the short-lag table in one call;
    the full space-time table, which is returned, is scored at the same ones.
    """
    original = inference._eval_st_loglik
    space_time = inference._prepare_pairs(f, None, np.triu_indices(f.n_dates, 1))
    calls = []

    def recording(pairs, sigma, a, tau, gradient=False):
        calls.append((sigma, a, tau))
        values = original(pairs, sigma, a, tau, gradient)
        h.update(values.tobytes())
        return values

    with mock.patch.object(inference, "_eval_st_loglik", recording):
        inference._temporal_start_candidates(
            inference._short_lag_pairs(space_time), FIT_INIT.as_array()
        )
    (sigma, a, tau), = calls
    assert a.size == 244
    h.update(original(space_time, sigma, a, tau).tobytes())
    return space_time


def kernel() -> str:
    h = hashlib.sha256()
    original = inference._eval_st_loglik
    for i, f in enumerate(fit_records()):
        space_time = scan(h, f)
        same_date = inference._prepare_pairs(f, None, (np.arange(f.n_dates),) * 2)
        rng = np.random.default_rng(100 + i)
        for _ in range(50):
            theta = ms.ThetaVector(
                rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0),
                rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
            )
            a, tau = np.array([theta.a]), np.array([[theta.tau1, theta.tau2]])
            for pairs in (space_time, same_date):
                h.update(original(pairs, theta.smith, a, tau).tobytes())
                value, grad = original(pairs, theta.smith, a, tau, gradient=True)
                h.update(np.float64(value).tobytes())
                h.update(grad.tobytes())
    return h.hexdigest()


def kernel_terms() -> str:
    h = hashlib.sha256()
    evaluate = inference._eval_st_loglik
    for i, f in enumerate(fit_records()):
        tables = (
            inference._prepare_pairs(f, None, np.triu_indices(f.n_dates, 1)),
            inference._prepare_pairs(f, None, (np.arange(f.n_dates),) * 2),
        )
        rng = np.random.default_rng(200 + i)
        thetas = [
            ms.ThetaVector(
                rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0),
                rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
            )
            for _ in range(TERM_CANDIDATES)
        ]
        for pairs in tables:
            for j in range(pairs.n_terms):
                r = pairs.row[j]
                term = inference._prepared_pairs(
                    pairs.z1[j : j + 1], pairs.z2[j : j + 1], np.ones(1),
                    np.zeros(1, dtype=np.intp), pairs.lag[r : r + 1], pairs.dx[r : r + 1],
                )
                for theta in thetas:
                    a, tau = np.array([theta.a]), np.array([[theta.tau1, theta.tau2]])
                    value, grad = evaluate(term, theta.smith, a, tau, gradient=True)
                    h.update(np.float64(value).tobytes())
                    h.update(grad.tobytes())
    return h.hexdigest()


def kernel_grid() -> str:
    h = hashlib.sha256()
    truth = ms.ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0)
    scan(h, ms.simulate_markov_planar(
        ms.square_grid(4), 6, truth.smith, truth.markov, ms.SeededStream(0)
    ))
    return h.hexdigest()


# Seeded candidates of each record's ``kernel terms``.
TERM_CANDIDATES = 4

# Configs of the ``cli`` digest: one per simulator, and a study.
CLI_INIS = {
    "smith": INI + "[fit]\nmax_evals = 300\nxtol = 1e-5\ninit_tau = -0.5, -0.5\n"
    "[dependence]\nlags = 0:0,0 ; 1:-1,-1 ; 2:3,0.5 ; 40:0,0\nbin_radius = 2.5\n",
    "schlather": """[model]\nkind = schlather\nc1 = 2.0\nc2 = 1.0
[temporal]\na = 0.6\ntau = 0.5, -1
[sites]\nlayout = grid\nn_side = 3\nspacing = 0.7
[run]\nn_dates = 3\nseed = 17
""",
    "vmf": """[model]\nkind = vmf\nkappa = 3.0
[temporal]\na = 0.5\nrotation_angle = 0.4\nrotation_axis = 0.6, 0, 0.8
[sites]\nlayout = fibonacci\nn_sites = 8
[run]\nn_dates = 3\nseed = 5
""",
    "study": INI + "[study]\nreplicates = 2\nscheme = both\nn_dates = 4\nn_sites = 4\nseed = 3\nmax_evals = 200\n",
}


def cli() -> str:
    h = hashlib.sha256()

    def run(*argv: str) -> None:
        # The CLI prints the temporary paths it wrote; keep them off the output.
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0

    def add(*paths: pathlib.Path) -> None:
        for path in paths:
            h.update(path.read_bytes())

    def failing_fit(field, init, options):
        raise ms.NumericalError("objective is not finite")

    with tempfile.TemporaryDirectory() as d:
        out = pathlib.Path(d)
        for name, ini in CLI_INIS.items():
            (out / f"{name}.ini").write_text(ini)
        for name in ("smith", "schlather", "vmf"):
            run("simulate", "--config", f"{d}/{name}.ini", "--out", f"{d}/{name}")
            add(out / name / "field.csv", out / name / "field_meta.json")
        for scheme in ("1", "2"):
            run(
                "fit", "--config", f"{d}/smith.ini", "--field", f"{d}/smith/field.csv",
                "--scheme", scheme, "--out", f"{d}/fit{scheme}.json",
            )
            add(out / f"fit{scheme}.json")
        run(
            "dependence", "--config", f"{d}/smith.ini", "--field", f"{d}/smith/field.csv",
            "--out", f"{d}/dependence.csv",
        )
        add(out / "dependence.csv")
        run("mc-study", "--config", f"{d}/study.ini", "--out", f"{d}/study")
        with mock.patch.object(study, "fit_scheme2", failing_fit):
            run("mc-study", "--config", f"{d}/study.ini", "--out", f"{d}/failed")
        for tag in ("study", "failed"):
            add(*(out / tag / f for f in ("replicates.csv", "summary.csv", "study_meta.json")))
    return h.hexdigest()


if __name__ == "__main__":
    print("simulators", simulators())
    print("field.csv", field_csv())
    for path, name, params, n_sites, n_dates, records in RECORDS:
        digest, evals = record(params, n_sites, n_dates, records)
        print(f"{path} {name}", digest)
        print(f"evals {name}", evals)
    for name, coords, params in LOCAL_FIELDS:
        digest, evals = local_field(coords, params)
        print(f"local {name}", digest)
        print(f"evals {name}", evals)
    print("fits", fits())
    print("kernel", kernel())
    print("kernel grid", kernel_grid())
    print("kernel terms", kernel_terms())
    print("cli", cli())
