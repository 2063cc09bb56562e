"""The web layer against the tableau on random circuits off the surface code.

A seeded generator builds ``CIRCUITS`` circuits on the d×d grid, d in
{3, 5}, with 1–3 rounds: a random |0⟩/|+⟩/|Y⟩ init per qubit and from 2 to
(d+1)² random checks, each on 1–4 qubits anywhere on the grid, at distinct
odd positions of the doubled grid. The three schemes' regular structure
cannot hide a fault here. On every circuit:

* the detectors are as many as the walk's forced checks, and each is a
  valid web;
* each detector's stub product is coin-independent on the walk, with sign
  (−1)^(k/2) for k lit |Y⟩ init legs (each |Y⟩ is a π/2 spider and
  Y = iXZ); the rule is kept here until the web layer predicts signs;
* ``OutcomeModel.shots`` equals ``oracle.run`` shot for shot, with error
  rates, fixed insertions, a post-selected set and a random logical;
* ``webs.flip_parities`` equals the tableau's lit parities on random
  insertions anywhere on the data world lines.
"""

import random
from collections import namedtuple

import pytest

from zxwebs import oracle, sampler, webs
from zxwebs.pauli import PauliOperator
from zxwebs.surface import CircuitSpec, InitState, Layout, Plaquette, build_diagram
from zxwebs.webs import Highlight

SEED = 14
CIRCUITS = 200
SHOTS = 4
RATE = 0.2
INSERTION_SETS = 4

Case = namedtuple("Case", "program walk detectors logical postselect fixed insertions")


def random_layout(rng: random.Random, d: int) -> Layout:
    """2 to (d+1)² checks at distinct odd positions, at least one of each type."""
    n = d * d
    positions = [(2 * i + 1, 2 * j + 1) for i in range(-1, d) for j in range(-1, d)]
    checks = {"X": [], "Z": []}
    # a layer with no check would be no layer at all, so both types occur
    for k, pos in enumerate(rng.sample(positions, rng.randint(2, len(positions)))):
        ptype = "XZ"[k] if k < 2 else rng.choice("XZ")
        support = tuple(sorted(rng.sample(range(n), rng.randint(1, 4))))
        checks[ptype].append(Plaquette(f"{ptype}{len(checks[ptype])}", ptype, support, pos))
    return Layout(d, tuple(divmod(q, d) for q in range(n)),
                  tuple(checks["X"]), tuple(checks["Z"]))


def random_case(rng: random.Random) -> Case:
    d, rounds = rng.choice((3, 5)), rng.randint(1, 3)
    n = d * d
    init = {q: rng.choice(tuple(InitState)) for q in range(n)}
    program = oracle.lower(build_diagram(CircuitSpec(random_layout(rng, d), init, rounds)))
    support = sorted(rng.sample(range(n), rng.randint(1, 3)))
    logical = PauliOperator.from_dict(n, {q: rng.choice("XYZ") for q in support})
    walk = oracle.walk(program, logical)
    check_ids = [step.check_id for step in walk.checks]
    postselect = rng.sample(check_ids, rng.randint(0, len(check_ids)))
    fixed = [(rng.randrange(n), rng.choice("XYZ")) for _ in range(rng.randint(0, 2))]
    candidates = [edge for q in range(n) for edge in program.structure.world_edges(q)]
    insertions = [[(rng.choice(candidates), rng.choice("XYZ"))
                   for _ in range(rng.randint(1, 3))] for _ in range(INSERTION_SETS)]
    return Case(program, walk, webs.detectors(program.diagram), logical, postselect,
                fixed, insertions)


@pytest.fixture(scope="module")
def cases() -> list[Case]:
    rng = random.Random(SEED)
    return [random_case(rng) for _ in range(CIRCUITS)]


def lit_y_inits(case: Case, web: webs.Web) -> int:
    """k: the |Y⟩ init legs the web highlights."""
    structure = case.program.structure
    return sum(web.highlight(structure.world_edges(q)[0]) is not Highlight.NONE
               for q, state in structure.init.items() if state is InitState.Y)


def sign_bit(k: int) -> int:
    """Outcome bit of a product through k lit |Y⟩ legs: i^k = (−1)^(k/2)."""
    return k // 2 & 1


def test_detectors_are_the_forced_checks(cases):
    for case in cases:
        forced = sum(step.result.deterministic for step in case.walk.checks)
        assert len(case.detectors) == forced
        for web in case.detectors:
            assert webs.validate_web(case.program.diagram, web) == []


def test_detector_products_are_coin_free_with_the_y_sign(cases):
    lit_counts = set()
    for case in cases:
        results = {step.check_id: step.result for step in case.walk.checks}
        for web in case.detectors:
            aux = base = 0
            for check in web.stub_set():
                aux ^= results[check].aux
                base ^= results[check].outcome
            k = lit_y_inits(case, web)
            lit_counts.add(k)
            assert aux == 0
            assert k % 2 == 0 and base == sign_bit(k)
    assert 2 in lit_counts  # the sign branch is exercised


def tableau_shot(case: Case, shot: int) -> tuple[int, oracle.ShotRecord]:
    """(insertions, record) of one shot, drawn with the sampler's keys and run
    on the tableau."""
    structure = case.program.structure
    items = [(structure.world_edges(q)[0], letter) for q, letter in case.fixed]
    for q in range(structure.n):
        for letter in ("x", "z"):
            if oracle.counter_unit(SEED, shot, f"err{letter}:{q}") < RATE:
                items.append((structure.world_edges(q)[0], letter.upper()))
    errors = webs.PauliErrorSet.of(case.program.diagram, items)
    return len(items), oracle.run(case.program, errors, seed=SEED, shot=shot,
                                  postselect=case.postselect,
                                  measure_logical=case.logical)


def test_model_matches_tableau_shot_for_shot(cases):
    forced_logicals = 0
    for case in cases:
        model = sampler.OutcomeModel(case.program, case.logical, postselect=case.postselect,
                                     walk=case.walk)
        got = list(model.shots(SEED, SHOTS, error_rate=RATE, z_error_rate=RATE,
                               fixed=case.fixed))
        assert got == [tableau_shot(case, shot) for shot in range(SHOTS)]
        forced_logicals += case.walk.logical.deterministic
    # both the correlator web and the logical's own coin are exercised
    assert 0 < forced_logicals < len(cases)


def test_flip_parities_match_tableau(cases):
    for case in cases:
        stub_sets = [web.stub_set() for web in case.detectors]
        signs = [sign_bit(lit_y_inits(case, web)) for web in case.detectors]
        for items in case.insertions:
            errors = webs.PauliErrorSet.of(case.program.diagram, items)
            record = oracle.run(case.program, errors, seed=SEED)
            lit = {check for check, bit in record.outcomes.items() if bit}
            assert webs.flip_parities(case.detectors, errors) \
                == [(len(lit & stubs) & 1) ^ sign for stubs, sign in zip(stub_sets, signs)]
