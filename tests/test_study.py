"""Monte Carlo study driver: which fit failures exclude a replicate."""

import pytest

from maxstorm import NumericalError, StudyConfig, ThetaVector, run_study
from maxstorm import study as study_module


def _config() -> StudyConfig:
    return StudyConfig(
        theta0=ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0),
        n_dates=3,
        n_sites=3,
        seed=5,
        replicates=2,
        scheme="both",
        low=0.0,
        high=10.0,
        max_evals=50,
    )


def _patch_fits(monkeypatch, exc: Exception) -> None:
    def failing_fit(field, init, options):
        raise exc

    monkeypatch.setattr(study_module, "fit_scheme1", failing_fit)
    monkeypatch.setattr(study_module, "fit_scheme2", failing_fit)


def test_programming_error_propagates(monkeypatch):
    _patch_fits(monkeypatch, TypeError("bad argument"))
    with pytest.raises(TypeError, match="bad argument"):
        run_study(_config())


def test_package_error_excludes_replicate(monkeypatch):
    _patch_fits(monkeypatch, NumericalError("objective is not finite"))
    result = run_study(_config())
    assert len(result.records) == 4
    assert all(r.report is None for r in result.records)
    assert all(r.error == "objective is not finite" for r in result.records)
    assert all(row.n_used == 0 and row.n_excluded == 2 for row in result.summary)
