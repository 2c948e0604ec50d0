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


def test_runtime_imports_load_no_test_only_package():
    code = (
        "import sys, randmeas, randmeas.cli\n"
        "print(randmeas.__file__)\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    source, loaded = result.stdout.splitlines()
    assert Path(source).is_relative_to(SRC)
    assert loaded == "[]"


#: Run before the shot draw, which they bound; the orders reach the library after it.
CLI_PRIVATE_IMPORTS = {"_check_order", "_check_shots_cover_order", "_check_shot_table"}


def test_cli_imports_no_private_name_but_the_shot_prechecks():
    tree = ast.parse((SRC / "randmeas" / "cli.py").read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    private = {name for name in names if name.startswith("_") and not name.endswith("__")}
    assert private == CLI_PRIVATE_IMPORTS
