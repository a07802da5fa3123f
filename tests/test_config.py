"""INI config loading and command-config builders."""

import pytest

from maxstorm import FitOptions, ThetaVector, ValidationError
from maxstorm.config import (
    build_dependence_config,
    build_fit_config,
    build_simulate_config,
    build_study_config,
    load_config,
)


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


BASE = """
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
n_side = 3
spacing = 1.0

[run]
n_dates = 4
seed = 99
"""


def test_simulate_config_builds_and_echoes(tmp_path):
    cfg = load_config(_write(tmp_path, BASE))
    sim = build_simulate_config(cfg)
    assert sim.kind == "smith"
    assert sim.n_dates == 4
    assert sim.seed == 99
    assert len(sim.sites) == 9
    echo = sim.echo()
    assert echo["model.kind"] == "smith"
    assert echo["temporal.tau"] == [-1.0, -1.0]


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, BASE + "\n[mystery]\nx = 1\n"))
    assert "mystery" in str(err.value)


def test_unknown_key_lists_known_keys(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, BASE + "\n[dependence]\nlag = 1:0,0\n"))
    msg = str(err.value)
    assert "lag" in msg and "lags" in msg


@pytest.mark.parametrize("key", ["xtol", "ftol"])
def test_simplex_tolerances_are_not_fit_keys(tmp_path, key):
    # The simplex tolerances are constants of the fit, not settings.
    with pytest.raises(ValidationError, match=f"unknown key '{key}' in \\[fit\\]"):
        load_config(_write(tmp_path, BASE + f"\n[fit]\n{key} = 1e-5\n"))


def test_bad_value_names_section_and_key(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, BASE.replace("a = 0.7", "a = fast")))
    assert "[temporal] a" in str(err.value)


def test_pair_needs_two_numbers(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, BASE.replace("tau = -1, -1", "tau = -1")))
    assert "[temporal] tau" in str(err.value)


def test_choice_rejects_unlisted_value(tmp_path):
    with pytest.raises(ValidationError):
        load_config(_write(tmp_path, BASE.replace("kind = smith", "kind = gumbel")))


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "none.ini")


def test_vmf_requires_fibonacci_layout(tmp_path):
    text = """
[model]
kind = vmf
kappa = 2.0

[temporal]
a = 0.5
rotation_angle = 0.3
rotation_axis = 0, 0, 1

[sites]
layout = grid
n_side = 3

[run]
n_dates = 2
seed = 1
"""
    with pytest.raises(ValidationError):
        build_simulate_config(load_config(_write(tmp_path, text)))


def test_planar_model_requires_tau(tmp_path):
    text = BASE.replace("tau = -1, -1", "rotation_angle = 0.2\nrotation_axis = 0, 0, 1")
    with pytest.raises(ValidationError):
        build_simulate_config(load_config(_write(tmp_path, text)))


def test_dependence_lags_parse_in_order(tmp_path):
    text = BASE + """
[dependence]
lags = 0:0,0 ; 1:-1,-1 ; 30:0,0
"""
    dep = build_dependence_config(load_config(_write(tmp_path, text)))
    assert [l.time_lag for l in dep.lags] == [0, 1, 30]
    assert dep.lags[1].space_lag == (-1.0, -1.0)


def test_fit_config_cli_scheme_overrides_file(tmp_path):
    text = BASE + """
[fit]
scheme = 1
init_a = 0.4
"""
    cfg = load_config(_write(tmp_path, text))
    assert build_fit_config(cfg).scheme == 1
    assert build_fit_config(cfg, scheme=2).scheme == 2
    assert build_fit_config(cfg).init.a == 0.4


def test_fit_config_takes_unset_keys_from_the_neutral_start_and_fit_options(tmp_path):
    fc = build_fit_config(load_config(_write(tmp_path, BASE)), scheme=2)
    assert fc.init == ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)
    assert fc.options == FitOptions()
    text = BASE + "\n[fit]\nscheme = 1\ninit_sigma22 = 2.0\ninit_tau = -0.5, 0.25\nmax_evals = 300\n"
    fc = build_fit_config(load_config(_write(tmp_path, text)))
    assert fc.init == ThetaVector(1.0, 0.0, 2.0, 0.5, -0.5, 0.25)
    assert fc.options == FitOptions(max_evals=300)


def test_fit_scheme_must_be_one_or_two(tmp_path):
    text = BASE + "\n[fit]\nscheme = 3\n"
    with pytest.raises(ValidationError):
        build_fit_config(load_config(_write(tmp_path, text)))


def test_study_config_defaults_and_floor(tmp_path):
    text = BASE + """
[study]
replicates = 3
n_dates = 5
n_sites = 5
seed = 7
"""
    cfg = build_study_config(load_config(_write(tmp_path, text)))
    assert cfg.replicates == 3
    assert cfg.scheme == "1"
    assert (cfg.low, cfg.high) == (0.0, 10.0)
    with pytest.raises(ValidationError):
        build_study_config(load_config(_write(tmp_path, text)), replicates=1)


@pytest.mark.parametrize(
    "key, value", [("n_sites", 1), ("n_sites", -3), ("n_dates", 1), ("n_dates", 0)]
)
def test_study_needs_two_dates_and_two_sites(tmp_path, key, value):
    # A pairwise fit of one site or one date has no pairs to sum over.
    text = BASE + "\n[study]\nreplicates = 3\nn_dates = 5\nn_sites = 5\nseed = 7\n"
    text = text.replace(f"{key} = 5", f"{key} = {value}")
    with pytest.raises(ValidationError, match=r"n_dates and n_sites must be >= 2"):
        build_study_config(load_config(_write(tmp_path, text)))


@pytest.mark.parametrize("n_sites", [0, -3])
def test_uniform_layout_needs_a_site(tmp_path, n_sites):
    text = BASE.replace("layout = grid\nn_side = 3", f"layout = uniform\nn_sites = {n_sites}")
    with pytest.raises(ValidationError, match=r"\[sites\] n_sites must be >= 1"):
        build_simulate_config(load_config(_write(tmp_path, text)))


def test_study_requires_smith_model(tmp_path):
    text = """
[model]
kind = schlather
c1 = 3.0
c2 = 1.0

[temporal]
a = 0.5
tau = -1, -1

[study]
replicates = 2
n_dates = 4
n_sites = 4
seed = 3
"""
    with pytest.raises(ValidationError):
        build_study_config(load_config(_write(tmp_path, text)))
