"""The README's examples run against the package as it is."""

import re
from pathlib import Path

from maxstorm.config import (
    build_dependence_config,
    build_fit_config,
    build_simulate_config,
    build_study_config,
    load_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(capsys):
    text = README.read_text()
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "README has no python block under '## Python API'"
    for block in blocks:
        exec(compile(block, f"{README}:Python API", "exec"), {})
    assert "(10, 3)" in capsys.readouterr().out


def test_full_ini_example_builds_every_command_config(tmp_path):
    # A key the README shows and the package dropped fails load_config.
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```ini\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "README should show one full INI example under '## Command line'"
    path = tmp_path / "run.ini"
    path.write_text(blocks[0], encoding="utf-8")
    cfg = load_config(path)
    assert set(cfg) == {"model", "temporal", "sites", "run", "dependence", "fit", "study"}
    sim = build_simulate_config(cfg)
    assert (sim.kind, sim.n_dates, len(sim.sites)) == ("smith", 20, 20)
    assert len(build_dependence_config(cfg).lags) == 3
    assert build_fit_config(cfg).scheme == 1
    assert build_study_config(cfg).replicates == 20
