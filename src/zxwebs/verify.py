"""Web/oracle cross-check suite backing the ``verify`` CLI command.

Each item confronts a web-level statement (solver output) with the
stabilizer tableau, or re-checks a structural property from two
independent directions. Items report pass/fail plus a short detail line;
they never raise on a mere disagreement.

The detector and correlator items read the error-free shots, predicted by
the sampler's :class:`sampler.OutcomeModel` from one :func:`oracle.walk`:
every outcome is its walked base XOR the coins its ``aux`` mask names, a
random check's ``aux`` being its own coin, and each coin is drawn with the
key :func:`oracle.run` gives it. With no errors the model builds no web.
The first ``REFEREE_SHOTS`` shots are re-run on the tableau. If each record
equals its prediction, forced flags included, the items read the
predictions and also require, exactly for every coin value, that each
detector's stub product and the correlator's stub product XOR the logical
are +1 on the walk. If any differs, the items read tableau records of every
shot instead, as if nothing were predicted.

The footnote-5 item draws no coin and takes no seed. It measures the
tableau once for each coin value, and those two exact branches decide it.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from functools import reduce

from . import gf2, oracle, sampler, webs
from .diagram import Diagram, validate
from .pauli import PauliOperator
from .surface import (
    InitState,
    Layout,
    correlator_boundary_condition,
    logical_operator,
    scheme_circuit,
)
from .webs import Highlight, PauliErrorSet, Web, WebSpace


# error-free shots re-run on the tableau to referee the walk's prediction
REFEREE_SHOTS = 8

# (lit checks, logical bit) of one error-free shot, as the shot items read it
Shot = tuple[frozenset[str], int | None]


class CheckResult(namedtuple("CheckResult", "name ok detail")):
    __slots__ = ()


def lit_checks(record: oracle.ShotRecord) -> frozenset[str]:
    """check_ids that read 1; a stub set's outcome product is ``len(lit & stubs) & 1``."""
    return frozenset(c for c, bit in record.outcomes.items() if bit)


def affine(result: oracle.MeasureResult) -> int:
    """A walked outcome as ``aux << 1 | base``: XOR multiplies outcomes, the
    outcome under coins c is the parity of it AND ``c << 1 | 1``, and 0
    means +1 for every coin value."""
    return result.aux << 1 | result.outcome


def walk_outcomes(walk: oracle.Walk) -> dict[str, int]:
    """Each check's :func:`affine` outcome on the walk."""
    return {step.check_id: affine(step.result) for step in walk.checks}


def error_free_shots(program: oracle.Program, walk: oracle.Walk,
                     logical: PauliOperator | None, seed: int,
                     shots: int) -> tuple[list[Shot], bool]:
    """The error-free shots and whether they are the walk's prediction.

    :class:`sampler.OutcomeModel` predicts every record from the walk. The
    first ``REFEREE_SHOTS`` also run on the tableau; if any record differs
    from its prediction, forced flags included, every shot comes from the
    tableau and the flag is False.
    """
    def tableau(shot: int) -> oracle.ShotRecord:
        return oracle.run(program, seed=seed, shot=shot, measure_logical=logical)

    records = [rec for _, rec in sampler.OutcomeModel(program, logical, walk=walk)
               .shots(seed, shots)]
    refereed = [tableau(s) for s in range(min(shots, REFEREE_SHOTS))]
    exact = refereed == records[:len(refereed)]
    if not exact:
        records = refereed + [tableau(s) for s in range(len(refereed), shots)]
    return [(lit_checks(rec), rec.logical_y) for rec in records], exact


def check_builder_valid(diag: Diagram) -> CheckResult:
    violations = validate(diag)
    return CheckResult("builder-valid", not violations,
                       f"{len(violations)} violations")


def check_web_space(diag: Diagram, space: WebSpace) -> CheckResult:
    n_vars = 2 * len(diag.edges)
    # its own elimination: web_space() derives space.rank from the basis size
    rank = gf2.rank(gf2.BitMatrix(n_vars, list(webs.spider_constraints(diag).rows)))
    ok = rank + space.dim == n_vars
    bad = sum(1 for w in space.basis if webs.validate_web(diag, w))
    ok = ok and bad == 0
    # degree-1 termination rules, asserted literally on every basis web: a
    # ±pi/2 end carries x = z, any other end leaves its own color unlit
    t = diag.spider_legs
    ends = [(2 * t.legs[t.starts[k]], t.own[k], t.half[k]) for k in range(len(t.spiders))
            if t.starts[k + 1] - t.starts[k] == 1]
    terminations_ok = not any(
        (w.mask >> x ^ w.mask >> x + 1) & 1 if half else w.mask >> x + own & 1
        for w in space.basis for x, own, half in ends)
    ok = ok and terminations_ok
    return CheckResult(
        "web-space", ok,
        f"rank {rank} + dim {space.dim} vs {n_vars} vars; "
        f"{bad} invalid basis webs; terminations {'ok' if terminations_ok else 'BROKEN'}")


def check_linearity(diag: Diagram, space: WebSpace, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    combos = 200
    bad = 0
    for _ in range(combos):
        mask = 0
        for w in space.basis:
            if rng.random() < 0.5:
                mask ^= w.mask
        if webs.validate_web(diag, Web(diag, mask)):
            bad += 1
    return CheckResult("web-linearity", bad == 0,
                       f"{combos} random XOR combinations, {bad} invalid")


def check_detectors(walk: oracle.Walk, dets: list[Web], shots: list[Shot],
                    exact: bool) -> CheckResult:
    """``exact``: the shots are the walk's prediction, so each stub product
    must also be +1 on the walk for every coin value."""
    det_checks = oracle.deterministic_checks(walk)
    stub_sets = [w.stub_set() for w in dets]
    single = {next(iter(s)) for s in stub_sets if len(s) == 1}
    flips = sum(len(lit & stub_set) & 1 for lit, _ in shots for stub_set in stub_sets)
    ok = single == det_checks and flips == 0
    detail = (f"{len(dets)} detector webs; single-stub set "
              f"{'matches' if single == det_checks else 'DIFFERS from'} oracle "
              f"deterministic checks; {flips} nontrivial products over {len(shots)} shots")
    if ok and exact:
        outcomes = walk_outcomes(walk)
        broken = next((s for s in stub_sets
                       if reduce(operator.xor, (outcomes[c] for c in s), 0)), None)
        if broken is not None:
            ok = False
            detail += f"; stub set {sorted(broken)} is not +1 for every coin"
    return CheckResult("detectors-deterministic", ok, detail)


def check_correlator(diag: Diagram, walk: oracle.Walk, layout: Layout, scheme: str,
                     op: PauliOperator, shots: list[Shot], exact: bool) -> CheckResult:
    """``exact``: as for :func:`check_detectors`, with the logical in the product."""
    result = webs.solve(diag, correlator_boundary_condition(diag, op))
    if isinstance(result, webs.Infeasible):
        return CheckResult("correlator", False, str(result))
    if webs.validate_web(diag, result):
        return CheckResult("correlator", False, "solved web fails validate_web")
    if scheme == "inject-y":
        corner = layout.qubit_index(0, layout.d - 1)
        leg = diag.edge_key(f"q{corner}.l0", f"q{corner}.l1")
        if result.highlight(leg) is not Highlight.Y:
            return CheckResult("correlator", False,
                               "injected spider's leg is not Y-highlighted")
    stub_set = result.stub_set()
    bad = sum((len(lit & stub_set) + logical_y) & 1 for lit, logical_y in shots)
    ok = bad == 0
    detail = (f"{scheme} logical correlator, stub set {sorted(stub_set)}; "
              f"{bad}/{len(shots)} shots broke the outcome product")
    if ok and exact:
        outcomes = walk_outcomes(walk)
        if reduce(operator.xor, (outcomes[c] for c in stub_set), affine(walk.logical)):
            ok = False
            detail += "; the outcome product is not +1 for every coin"
    return CheckResult("correlator", ok, detail)


def check_forbidden_termination(diag: Diagram, layout: Layout) -> CheckResult:
    """Only meaningful for inject-y: a Z_L-only web must be infeasible."""
    z_l = logical_operator(layout, "Z")
    result = webs.solve(diag, correlator_boundary_condition(diag, z_l))
    corner = layout.qubit_index(0, layout.d - 1)
    if not isinstance(result, webs.Infeasible):
        return CheckResult("forbidden-termination", False,
                           "Z-only correlator unexpectedly solvable")
    ok = f"q{corner}.l0" in result.spiders
    return CheckResult("forbidden-termination", ok,
                       f"witness spiders include injected corner: {ok}")


def _world_line_errors(structure: oracle.DiagramStructure) -> list[tuple[tuple[str, str], str]]:
    return [(edge, letter) for q in range(structure.n)
            for edge in structure.world_edges(q) for letter in ("X", "Z")]


def check_syndrome_equivalence(program: oracle.Program, dets: list[Web], seed: int,
                               exhaustive: bool, samples: int) -> CheckResult:
    diag = program.diagram
    candidates = _world_line_errors(program.structure)
    stub_sets = [w.stub_set() for w in dets]
    rng = random.Random(seed)
    if exhaustive:
        error_sets = [[c] for c in candidates]
    else:
        error_sets = []
        for _ in range(samples):
            k = rng.choice((1, 2))
            error_sets.append([rng.choice(candidates) for _ in range(k)])
    mismatches = 0
    for items in error_sets:
        err = PauliErrorSet.of(diag, items)
        predicted = webs.flip_parities(dets, err)
        lit = lit_checks(oracle.run(program, err, seed=seed))
        if predicted != [len(lit & s) & 1 for s in stub_sets]:
            mismatches += 1
    label = "exhaustive" if exhaustive else f"{samples} sampled"
    return CheckResult("syndrome-equivalence", mismatches == 0,
                       f"{label} insertions ({len(error_sets)} cases), "
                       f"{mismatches} mismatches")


def check_footnote5() -> CheckResult:
    """Measuring ZZZZ on <XaXb, XaXc, Zd>: a random outcome, and the
    post-measurement group that outcome predicts.

    The tableau is exact for each coin value, so its two branches decide the
    item: both random, with different outcomes and the right group each.
    """
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = PauliOperator.from_dict(4, {q: "Z" for q in range(4)})
    rest = [PauliOperator.from_dict(4, {0: "X", 1: "X"}),
            PauliOperator.from_dict(4, {0: "X", 2: "X"}),
            PauliOperator.from_dict(4, {3: "Z"})]
    # expected post-measurement group, indexed by the outcome bit
    expected = [oracle.canonical_group(4, [zzzz, *rest]),
                oracle.canonical_group(4, [zzzz.negated(), *rest])]
    outcomes = []
    group_ok = True
    for coin in (0, 1):
        t = oracle.prepare(pattern)
        res = t.measure(zzzz, random_bit=coin)
        if res.deterministic:
            return CheckResult("footnote5", False, "measurement came out deterministic")
        outcomes.append(res.outcome)
        group_ok = group_ok and oracle.canonical_stabilizer_group(t) == expected[res.outcome]
    ok = group_ok and outcomes[0] != outcomes[1]
    return CheckResult("footnote5", ok,
                       f"random for both coins, outcomes {outcomes}, "
                       f"post-measurement group {'ok' if group_ok else 'WRONG'}")


def run_suite(distance: int, scheme: str, rounds: int, *, seed: int = 0,
              shots: int = 200, exhaustive_errors: bool = False,
              samples: int = 0, footnote5: bool = False) -> list[CheckResult]:
    layout, diag, logical = scheme_circuit(distance, scheme, rounds)
    program = oracle.lower(diag)
    space = webs.web_space(diag)
    dets = webs.detectors(diag)
    walk = oracle.walk(program, logical)
    error_free, exact = error_free_shots(program, walk, logical, seed, shots)
    results = [
        check_builder_valid(diag),
        check_web_space(diag, space),
        check_linearity(diag, space, seed=seed),
        check_detectors(walk, dets, error_free, exact),
        check_correlator(diag, walk, layout, scheme, logical, error_free, exact),
    ]
    if scheme == "inject-y":
        results.append(check_forbidden_termination(diag, layout))
    if exhaustive_errors or samples:
        results.append(check_syndrome_equivalence(
            program, dets, seed, exhaustive=exhaustive_errors, samples=samples))
    if footnote5:
        results.append(check_footnote5())
    return results
