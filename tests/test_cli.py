"""End-to-end command line behavior: files, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from maxstorm import NumericalError, extremal_coefficient, read_field, read_meta
from maxstorm import study as study_module
from maxstorm.cli import main
from maxstorm.config import load_config
from maxstorm.dependence import LagSpec
from maxstorm.spatial import SmithParams
from maxstorm.spacetime import MarkovParams

SIM_INI = """
[model]
kind = smith
sigma11 = 1.0
sigma12 = 0.0
sigma22 = 1.0

[temporal]
a = 0.7
tau = -1, -1

[sites]
layout = grid
n_side = 4

[run]
n_dates = 4
seed = 424242

[dependence]
lags = 0:0,0 ; 1:-1,-1 ; 30:0,0

[fit]
scheme = 1
init_a = 0.5
init_tau = 0, 0
max_evals = 1200
"""

SPHERE_INI = """
[model]
kind = vmf
kappa = 0.0

[temporal]
a = 0.5
rotation_angle = 0.4
rotation_axis = 0, 0, 1

[sites]
layout = fibonacci
n_sites = 6

[run]
n_dates = 3
seed = 5
"""


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SIM_INI, encoding="utf-8")
    return path


def test_simulate_writes_field_and_meta(tmp_path, sim_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 0
    field = read_field(out / "field.csv")
    assert field.values.shape == (4, 16)
    meta = read_meta(out / "field_meta.json")
    assert meta["command"] == "simulate"
    assert meta["config"]["run.seed"] == 424242
    assert len(meta["diagnostics"]["n_storms_per_date"]) == 4


def test_simulate_repeats_byte_identically(tmp_path, sim_config):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["simulate", "--config", str(sim_config), "--out", str(out1)])
    main(["simulate", "--config", str(sim_config), "--out", str(out2)])
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    assert (out1 / "field_meta.json").read_bytes() == (out2 / "field_meta.json").read_bytes()


SCHLATHER_TOO_LARGE_INI = """
[model]
kind = schlather
c1 = 3.0
c2 = 1.0

[temporal]
a = 0.7
tau = 0.37, 0.11

[sites]
layout = grid
n_side = 20

[run]
n_dates = 11
seed = 7
"""


def test_too_large_schlather_set_exits_with_resource_code(tmp_path, capsys):
    # 400 sites shifted to 11 dates give 4,400 distinct points, above the
    # dense-Cholesky cap; the run stops before drawing any storm.
    cfg = tmp_path / "big.ini"
    cfg.write_text(SCHLATHER_TOO_LARGE_INI, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "dense-Cholesky cap" in capsys.readouterr().err


def test_sphere_zero_concentration_constant_columns(tmp_path):
    cfg = tmp_path / "sphere.ini"
    cfg.write_text(SPHERE_INI, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    field = read_field(out / "field.csv")
    assert field.sites.kind == "sphere"
    assert np.all(np.ptp(field.values, axis=1) == 0.0)


def test_dependence_table_analytic_columns(tmp_path, sim_config):
    out = tmp_path / "dep.csv"
    assert main(["dependence", "--config", str(sim_config), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["l"] for r in rows] == ["0", "1", "30"]
    smith = SmithParams(1.0, 0.0, 1.0)
    markov = MarkovParams(0.7, tau=(-1.0, -1.0))
    assert float(rows[0]["theta_analytic"]) == 1.0
    assert float(rows[1]["theta_analytic"]) == pytest.approx(1.3, rel=1e-12)
    assert float(rows[2]["theta_analytic"]) == pytest.approx(
        extremal_coefficient(LagSpec(30, (0.0, 0.0)), smith, markov), rel=1e-12
    )
    assert float(rows[2]["theta_analytic"]) >= 1.99
    # No field supplied: empirical columns stay empty.
    assert rows[0]["theta_empirical"] == ""


def test_dependence_with_field_fills_empirical_columns(tmp_path, sim_config):
    sim_out = tmp_path / "sim"
    main(["simulate", "--config", str(sim_config), "--out", str(sim_out)])
    out = tmp_path / "dep.csv"
    code = main([
        "dependence", "--config", str(sim_config), "--out", str(out),
        "--field", str(sim_out / "field.csv"),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    lag1 = rows[1]
    assert lag1["theta_empirical"] != ""
    assert 1.0 <= float(lag1["theta_empirical"]) <= 2.0
    assert int(lag1["n_pairs"]) > 0


FIT_INI = """
[model]
kind = smith
sigma11 = 1.0
sigma12 = 0.0
sigma22 = 1.0

[temporal]
a = 0.7
tau = -1, -1

[sites]
layout = uniform
n_sites = 20
low = 0.0
high = 10.0

[run]
n_dates = 20
seed = 97531

[fit]
scheme = 1
init_a = 0.5
init_tau = 0, 0
max_evals = 5000
"""


def test_fit_reports_estimate_near_truth(tmp_path):
    # Twenty dates on twenty scattered sites: enough data that the pairwise
    # likelihood pins the temporal parameters, so a neutral start converges
    # into the basin around the generating value.
    cfg = tmp_path / "fit.ini"
    cfg.write_text(FIT_INI, encoding="utf-8")
    sim_out = tmp_path / "sim"
    main(["simulate", "--config", str(cfg), "--out", str(sim_out)])
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--config", str(cfg), "--field", str(sim_out / "field.csv"),
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["scheme"] == 1
    assert abs(report["theta_hat"]["a"] - 0.7) < 0.1
    assert report["n_pairs"] == 190 * 190
    assert report["converged"] in (True, False)


def test_fit_scheme_flag_must_be_valid(tmp_path, sim_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--config", str(sim_config), "--field", "x.csv", "--scheme", "3"])
    assert exc.value.code == 2


def test_missing_field_file_exits_with_io_code(tmp_path, sim_config):
    code = main([
        "fit", "--config", str(sim_config), "--field", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "fit.json"),
    ])
    assert code == 3


def test_fit_budget_of_zero_exits_with_validation_code(tmp_path, sim_config):
    assert main(["simulate", "--config", str(sim_config), "--out", str(tmp_path / "sim")]) == 0
    cfg = tmp_path / "zero.ini"
    cfg.write_text(SIM_INI.replace("max_evals = 1200", "max_evals = 0"), encoding="utf-8")
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--config", str(cfg), "--field", str(tmp_path / "sim" / "field.csv"),
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_mc_study_budget_of_zero_fails_before_any_replicate(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(study_module, "_one_replicate", lambda *args: ran.append(args) or [])
    ini = SIM_INI + """
[study]
replicates = 2
n_dates = 6
n_sites = 6
seed = 31
max_evals = 0
"""
    cfg = tmp_path / "study.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "study"
    assert main(["mc-study", "--config", str(cfg), "--out", str(out)]) == 2
    assert ran == []
    assert not out.exists()


def test_simulate_negative_site_count_exits_with_validation_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        SIM_INI.replace("layout = grid\nn_side = 4", "layout = uniform\nn_sites = -3"),
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "n_sites must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "ini, fragment",
    [
        (SIM_INI.replace("n_dates = 4", "n_dates = 0"), "must be >= 1"),
        (SIM_INI.replace("n_dates = 4", "n_dates = -2"), "must be >= 1"),
        (
            SCHLATHER_TOO_LARGE_INI.replace("n_side = 20", "n_side = 3") + "n_storms = 0\n",
            "must be >= 1",
        ),
        (SIM_INI.replace("seed = 424242", "seed = -5"), "[run] seed must be >= 0"),
        (
            SIM_INI.replace("seed = 424242", "seed = -5").replace(
                "layout = grid\nn_side = 4", "layout = uniform\nn_sites = 4"
            ),
            "[run] seed must be >= 0",
        ),
    ],
    ids=[
        "no dates",
        "negative dates",
        "schlather without storms",
        "negative seed",
        "negative seed with uniform sites",
    ],
)
def test_simulate_without_dates_or_storms_writes_no_directory(tmp_path, capsys, ini, fragment):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n_dates, n_sites, seed",
    [(6, -3, 31), (6, 1, 31), (1, 6, 31), (6, 6, -4)],
    ids=["negative sites", "one site", "one date", "negative seed"],
)
def test_mc_study_without_pairs_fails_before_any_replicate(
    tmp_path, monkeypatch, n_dates, n_sites, seed
):
    ran = []
    monkeypatch.setattr(study_module, "_one_replicate", lambda *args: ran.append(args) or [])
    ini = SIM_INI + f"""
[study]
replicates = 2
n_dates = {n_dates}
n_sites = {n_sites}
seed = {seed}
"""
    cfg = tmp_path / "study.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "study"
    assert main(["mc-study", "--config", str(cfg), "--out", str(out)]) == 2
    assert ran == []
    assert not out.exists()


def test_bad_config_exits_with_validation_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SIM_INI.replace("kind = smith", "kind = smith\nshape = round"), encoding="utf-8")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_mc_study_smoke_writes_tables(tmp_path):
    ini = SIM_INI + """
[study]
replicates = 2
n_dates = 6
n_sites = 6
seed = 31
max_evals = 250
"""
    cfg = tmp_path / "study.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "study"
    assert main(["mc-study", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["parameter"] for r in rows} == {"sigma11", "sigma12", "sigma22", "a", "tau1", "tau2"}
    with open(out / "replicates.csv", newline="", encoding="utf-8") as fh:
        reps = list(csv.DictReader(fh))
    assert len(reps) == 2
    assert all(r["error"] == "" for r in reps)
    meta = read_meta(out / "study_meta.json")
    assert meta["config"]["study.replicates"] == 2


def test_mc_study_writes_a_failed_fit_as_a_full_width_row(tmp_path, monkeypatch):
    # One thread, so the first scheme-2 fit to run is replicate 0's.
    monkeypatch.setenv("MAXSTORM_THREADS", "1")
    fit_scheme2 = study_module.fit_scheme2
    calls = []

    def fails_first(field, init, options):
        calls.append(None)
        if len(calls) == 1:
            raise NumericalError("objective is not finite")
        return fit_scheme2(field, init, options)

    monkeypatch.setattr(study_module, "fit_scheme2", fails_first)
    ini = SIM_INI + """
[study]
replicates = 2
scheme = both
n_dates = 4
n_sites = 4
seed = 31
max_evals = 100
"""
    cfg = tmp_path / "study.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "study"
    assert main(["mc-study", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "replicates.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert all(len(row) == len(header) for row in rows)
    failed = [row for row in rows if row[header.index("error")]]
    assert len(failed) == 1 and failed[0][:2] == ["0", "2"]
    assert failed[0][2:-1] == [""] * (len(header) - 3)
    assert failed[0][-1] == "objective is not finite"
    assert all("" not in row[:-1] for row in rows if row is not failed[0])
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 12
    for row in summary:
        assert (row["n_used"], row["n_excluded"]) == (("2", "0") if row["scheme"] == "1" else ("1", "1"))
