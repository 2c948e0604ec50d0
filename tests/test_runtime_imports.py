"""The runtime depends on numpy only: importing the package and its CLI
loads none of the packages that only the tests and benches use.  The CLI
is a front end: it reaches no private library name but the shot
pre-checks."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TEST_ONLY = ("scipy", "hypothesis", "pytest")


def _run_fresh(code: str) -> list:
    """Run ``code`` in a new interpreter that imports ``src``; return its output lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_runtime_imports_load_no_test_only_package():
    code = (
        "import sys, randmeas, randmeas.cli\n"
        "print(randmeas.__file__)\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r}))\n"
    )
    source, loaded = _run_fresh(code)
    assert Path(source).is_relative_to(SRC)
    assert loaded == "[]"


def test_importing_the_cli_builds_no_parser():
    """The parser is built on the first ``main`` call, so an import costs none of it."""
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
        "import randmeas.cli\n"
        "print(len(built))\n"
        "randmeas.cli._build_parser()\n"
        "print(len(built) > 0)\n"
    )
    assert _run_fresh(code) == ["0", "True"]


#: Run before the shot draw, which they bound; the orders reach the library after it.
CLI_PRIVATE_IMPORTS = {"_check_order", "_check_shots_cover_order", "_check_shot_budget"}


def test_cli_imports_no_private_name_but_the_shot_prechecks():
    tree = ast.parse((SRC / "randmeas" / "cli.py").read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    private = {name for name in names if name.startswith("_") and not name.endswith("__")}
    assert private == CLI_PRIVATE_IMPORTS
