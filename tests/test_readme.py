"""The README's Python API example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(capsys):
    text = README.read_text()
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "README has no python block under '## Python API'"
    for block in blocks:
        exec(compile(block, f"{README}:Python API", "exec"), {})
    assert "(10, 3)" in capsys.readouterr().out
