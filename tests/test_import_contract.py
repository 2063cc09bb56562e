"""Which zxwebs modules may import which, read from the source with ``ast``.

The tableau (``oracle``) referees the webs, so it must not share their
GF(2) code; the webs do not lean on the tableau's Pauli algebra; the
sampler reads its combinations off the reduced detector basis instead of
solving for them; and the int-row code needs no numpy: ``layout``, ``webs``,
``sample`` and ``verify`` run without it, checked in subprocesses that
cannot load it. Only ``webs.syndrome`` imports numpy, and ``pyproject.toml``
declares no runtime dependency: numpy comes from the ``test`` extra. Each
command is a fresh process that pays for its imports, so no module imports
``dataclasses`` or ``typing`` (records are ``collections.namedtuple``
subclasses); a ``python -S`` run of the CLI checks that neither they nor
``inspect`` or ``ast`` get loaded, nor OpenSSL's ``_hashlib``: the keyed
draws take ``blake2b`` from ``_blake2``, where ``hashlib`` gets it too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zxwebs"

MODULES = sorted(path.stem for path in SRC.glob("*.py"))
# heavy standard-library modules, of which the CLI needs none
SLOW_STDLIB = {"dataclasses", "typing"}
# module -> modules it must not import besides SLOW_STDLIB (zxwebs modules by
# their short name)
FORBIDDEN = {
    "oracle": {"webs", "gf2", "numpy"},
    "webs": {"pauli", "oracle"},
    "sampler": {"gf2", "numpy"},
    "gf2": {"numpy"},
    "pauli": {"numpy"},
    "diagram": {"numpy"},
    "surface": {"numpy"},
    "cli": {"numpy"},
    "verify": {"numpy"},
}


def imported_modules(module: str) -> set[str]:
    """Top-level external modules and zxwebs modules that ``module`` imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names.add(node.module.split(".")[0])
            elif node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:  # from .a import b
                names.add(node.module.split(".")[0])
    return names


def test_imported_modules_reads_every_import_form():
    assert {"webs", "oracle", "pauli", "surface"} <= imported_modules("verify")
    assert "math" in imported_modules("oracle")     # import x
    assert "numpy" in imported_modules("webs")      # import x as y, inside a function


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_keep_the_layers_apart(module):
    assert not imported_modules(module) & (FORBIDDEN.get(module, set()) | SLOW_STDLIB)


def numpy_import_sites() -> set[str]:
    """``module.function`` (or ``module`` at top level) of every numpy import."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                if any(alias.name.split(".")[0] == "numpy" for alias in child.names):
                    sites.add(scope)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                if child.module.split(".")[0] == "numpy":
                    sites.add(scope)
            visit(child, scope)

    for module in MODULES:
        visit(ast.parse((SRC / f"{module}.py").read_text()), module)
    return sites


def test_numpy_is_imported_only_by_syndrome():
    assert numpy_import_sites() == {"webs.syndrome"}


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


# -S: a site .pth file may load typing before any zxwebs code runs. Exits
# with the names of any slow module loaded, else with the CLI's exit codes.
STARTUP_RUNNER = """
import sys
sys.path.insert(0, sys.argv[1])
from zxwebs import cli
codes = [cli.main(["webs", "-d", "3"]),
         cli.main(["sample", "-d", "3", "--shots", "20", "-p", "0.05", "--format", "json"]),
         cli.main(["verify", "-d", "3", "--samples", "5", "--footnote5"])]
loaded = sorted(m for m in ("dataclasses", "typing", "inspect", "ast", "_hashlib")
                if m in sys.modules)
sys.exit(f"loaded {loaded}" if loaded else max(codes))
"""


def test_cli_start_up_loads_no_slow_stdlib_module():
    run = subprocess.run([sys.executable, "-S", "-c", STARTUP_RUNNER, str(SRC.parent)],
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.count(b"checks passed") == 1


# Runs the CLI; with "block", numpy cannot be imported at all. Exits 97 if any
# numpy module was loaded, else with the CLI's own exit code.
RUNNER = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from zxwebs import cli
code = cli.main(sys.argv[2:])
sys.stdout.flush()
loaded = [m for m, v in sys.modules.items() if m.split(".")[0] == "numpy" and v is not None]
sys.exit(97 if loaded else code)
"""

NUMPY_FREE_RUNS = [
    ["layout", "-d", "3"],
    ["webs", "-d", "3", "--rounds", "2", "--scheme", "inject-y"],
    ["verify", "-d", "3", "--rounds", "2", "--samples", "20", "--footnote5"],
    ["verify", "-d", "3", "--exhaustive-errors"],
] + [["sample", "-d", "3", "--shots", "40", "-p", "0.05", "--seed", "3",
      "--format", fmt, "--postselect", post]
     for fmt in ("json", "csv") for post in ("none", "figure-set", "all-deterministic")]


@pytest.mark.parametrize("argv", NUMPY_FREE_RUNS, ids=" ".join)
def test_cli_runs_without_numpy(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    runs = [subprocess.run([sys.executable, "-c", RUNNER, mode, *argv], env=env,
                           capture_output=True, timeout=120)
            for mode in ("free", "block")]
    free, blocked = runs
    assert free.returncode == 0, free.stderr.decode()
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert free.stdout and blocked.stdout == free.stdout
    assert blocked.stderr == free.stderr
