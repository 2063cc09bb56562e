"""Output referees for the benchmark workloads.

Each referee takes one CLI invocation's exit code and stdout and returns
``None`` when the output is right, or a one-line description of the first
problem found. Referees run outside the timed region.
"""

from __future__ import annotations

import hashlib

from zxwebs import oracle, webs
from zxwebs.surface import (
    CircuitSpec,
    build_diagram,
    build_layout,
    correlator_boundary_condition,
    injection_pattern,
    logical_operators,
)

from tracer import VERIFY_ITEMS

# SHA-256 of `zxwebs webs -d D --rounds R --scheme inject-y` stdout at the
# seed commit. Canonical webs must stay bit-identical, so these never change.
WEBS_SHA256 = {
    (3, 1): "837758d59a52eecd156eb068c748a5e2a1649093190f5a102f38eac3018add65",
    (9, 3): "f34864721029e6421225948ed940c1e8d09902427087c845a87e8a8fd024e79e",
}

class SampleReferee:
    """Re-derives `sample --scheme inject-y --postselect figure-set` CSV rows
    from the web side alone.

    Errors are redrawn with the CLI's own ``counter_unit`` keys. A shot is
    accepted iff its errors have zero syndrome on every single-stub
    first-round detector web, and ``logical_y`` is the syndrome of the
    stub-free Y correlator web. Nothing here runs the tableau, so the check
    does not depend on the oracle's coin stream.
    """

    def __init__(self, distance: int, rounds: int, error_rate: float):
        layout = build_layout(distance)
        self.diagram = build_diagram(
            CircuitSpec(layout, injection_pattern(layout), rounds=rounds))
        self.n_qubits = layout.n
        self.error_rate = error_rate
        checks = [w for w in webs.detectors(self.diagram)
                  if len(w.stub_set()) == 1
                  and next(iter(w.stub_set())).startswith("r1.")]
        _, _, y_logical = logical_operators(layout)
        correlator = webs.solve(
            self.diagram, correlator_boundary_condition(self.diagram, y_logical))
        if isinstance(correlator, webs.Infeasible) or correlator.stub_set():
            raise ValueError("the Y correlator is not a stub-free web")
        self.webs = checks + [correlator]

    def row(self, seed: int, shot: int) -> str:
        """The CSV row the CLI must print for ``shot``."""
        items = [((f"q{q}.l0", f"q{q}.l1"), "X") for q in range(self.n_qubits)
                 if oracle.counter_unit(seed, shot, f"errx:{q}") < self.error_rate]
        if not items:  # no insertion flips any web
            return f"{shot},1,0,0"
        flips = webs.syndrome(self.webs, webs.PauliErrorSet.of(self.diagram, items))
        accepted = int(not flips[:-1].any())
        return f"{shot},{accepted},{int(flips[-1])},{len(items)}"

    def check(self, code: int, stdout: bytes, seed: int, shots: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = stdout.decode(errors="replace").splitlines()
        if lines[:1] != ["shot,accepted,logical_y,n_errors"]:
            return "missing CSV header"
        if len(lines) != shots + 1:
            return f"{len(lines) - 1} rows for {shots} shots"
        for shot, line in enumerate(lines[1:]):
            expected = self.row(seed, shot)
            if line != expected:
                return f"row {shot} is {line!r}, the webs give {expected!r}"
        return None


def check_webs(code: int, stdout: bytes, distance: int, rounds: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != WEBS_SHA256[(distance, rounds)]:
        return f"stdout SHA-256 {digest} differs from the seed commit's"
    return None


def check_verify(code: int, stdout: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = stdout.decode(errors="replace").splitlines()
    seen = []
    for line in lines[:-1]:
        status, _, rest = line.partition(" ")
        name = rest.partition(":")[0]
        if status != "PASS":
            return f"item {name} printed {status}"
        seen.append(name)
    if seen != list(VERIFY_ITEMS):
        return f"items {seen} differ from the expected {list(VERIFY_ITEMS)}"
    summary = f"{len(VERIFY_ITEMS)}/{len(VERIFY_ITEMS)} checks passed"
    if lines[-1:] != [summary]:
        return f"last line is not {summary!r}"
    return None
