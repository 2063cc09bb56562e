"""The names the benchmark under ``perfbench/`` reads from zxwebs still exist.

``Tracer.install`` looks every traced function up with ``getattr`` and no
default, and the referees and the set-up process import zxwebs names
directly, so renaming or removing one of them breaks the benchmark rather
than any test under ``tests/``. A traced run must also see the calls: the
tracer wraps names, so work moved under a name it does not list reads as 0
calls. The benchmark files are read, never edited: ``tracer.py`` is loaded
by path, ``traced_cli.py`` is run, and ``referees.py`` and ``run.py`` are
parsed.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def zxwebs_attributes(source: str) -> set[tuple[str, str]]:
    """(module, name) for each zxwebs name ``source`` imports or reads.

    Covers ``from zxwebs.m import n``, ``from zxwebs import m`` followed by
    ``m.n``, and ``import zxwebs.m as a`` followed by ``a.n``.
    """
    tree = ast.parse(source)
    modules = {}  # local name -> zxwebs module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "zxwebs":
            for alias in node.names:
                if node.module == "zxwebs":
                    modules[alias.asname or alias.name] = f"zxwebs.{alias.name}"
                else:
                    found.add((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("zxwebs.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add((modules[node.value.id], node.attr))
    return found


def setup_code() -> str:
    """``run.SETUP_CODE``, the program each set-up process runs."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no SETUP_CODE")


def resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name)


def traced_names():
    names = [(f"zxwebs.{mod}", fn) for mod, fns in tracer.FUNCTIONS.items() for fn in fns]
    names += [(f"zxwebs.{mod}", cls) for mod, pairs in tracer.METHODS.items()
              for cls, _ in pairs]
    names += [("zxwebs.verify", fn) for fn in tracer.VERIFY_ITEMS.values()]
    module, _, fn = tracer.ROOT.rpartition(".")
    return names + [(f"zxwebs.{module}", fn)]


@pytest.mark.parametrize("module,name", traced_names(), ids=".".join)
def test_every_traced_function_exists(module, name):
    assert resolves(module, name)


def test_every_traced_method_exists():
    for mod, pairs in tracer.METHODS.items():
        for cls, meth in pairs:
            assert callable(getattr(getattr(importlib.import_module(f"zxwebs.{mod}"), cls),
                                    meth, None)), f"{mod}.{cls}.{meth}"


def test_every_name_the_referees_use_exists():
    names = zxwebs_attributes((PERFBENCH / "referees.py").read_text())
    assert ("zxwebs.webs", "detectors") in names   # the parser sees the uses
    missing = sorted(n for n in names if not resolves(*n))
    assert missing == []


def test_every_name_the_setup_process_uses_exists():
    names = zxwebs_attributes(setup_code())
    assert ("zxwebs.cli", "build_diagram") in names
    missing = sorted(n for n in names if not resolves(*n))
    assert missing == []


def test_the_tracer_sees_every_gf2_function_the_webs_call(tmp_path):
    spans = tmp_path / "spans.json"
    argv = ["webs", "-d", "3", "--rounds", "1", "--scheme", "inject-y"]
    run = subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), *argv],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    summary = tracer.summarize(json.loads(spans.read_text()))
    calls = {fn: summary[f"gf2.{fn}.calls"] for fn in tracer.FUNCTIONS["gf2"]}
    assert all(calls.values()), calls
