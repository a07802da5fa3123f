"""Smoke tests of the scripts under tools/."""

import os
import pathlib
import subprocess
import sys

from maxstorm import StudyConfig, ThetaVector, run_study

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_study_table_on_two_small_replicates():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "study_table.py"),
         "--seed", "3", "--replicates", "2", "--sites", "4", "--dates", "4"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    heads = [i for i, line in enumerate(out) if line.startswith("scheme ")]
    assert [out[i] for i in heads] == [
        "scheme 1: 2 replicates, 2 fitted", "scheme 2: 2 replicates, 2 fitted"
    ]
    for head, scheme in zip(heads, (1, 2)):
        lines = out[head + 1 : head + 8]
        assert [line.split()[0] for line in lines] == [
            "mean", "sd", "evaluations", "unconverged", "failed", "h", "wall"
        ]
        # The counts are those of the same study run here.
        result = run_study(StudyConfig(
            theta0=ThetaVector(1.0, 0.0, 1.0, 0.7, -1.0, -1.0), n_dates=4, n_sites=4, seed=3,
            replicates=2, scheme=str(scheme), low=0.0, high=10.0, max_evals=5000,
        ))
        reports = [r.report for r in result.records]
        assert lines[2] == f"  evaluations {sum(r.iterations for r in reports)}"
        assert lines[3] == f"  unconverged {[i for i, r in enumerate(reports) if not r.converged]}"
        assert lines[4] == "  failed []"
        assert lines[5].startswith("  h <= 0.001 at the estimate [")
