"""Which zxwebs modules may import which, read from the source with ``ast``.

The tableau (``oracle``) referees the webs, so it must not share their
GF(2) code; the webs do not lean on the tableau's Pauli algebra; the
sampler reads its combinations off the reduced detector basis instead of
solving for them; and the int-mask Pauli and tableau code needs no numpy.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zxwebs"

# module -> modules it must not import (zxwebs modules by their short name)
FORBIDDEN = {
    "oracle": {"webs", "gf2", "numpy"},
    "webs": {"pauli", "oracle"},
    "sampler": {"gf2"},
    "pauli": {"numpy"},
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
    assert {"numpy", "webs", "oracle", "pauli", "surface"} <= imported_modules("verify")


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_module_imports_keep_the_layers_apart(module):
    assert not imported_modules(module) & FORBIDDEN[module]
