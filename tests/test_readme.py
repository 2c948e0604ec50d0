"""The README's Python examples and CLI command lines must run against
the current code."""

import re
import shlex
from pathlib import Path

import pytest

from randmeas.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
CLI_LINES = [line for block in SH_BLOCKS for line in block.splitlines() if line.startswith("randmeas ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    assert CLI_LINES
    monkeypatch.chdir(tmp_path)
    for line in CLI_LINES:
        assert main(shlex.split(line)[1:]) == 0, line
