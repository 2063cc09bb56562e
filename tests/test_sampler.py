"""The web-linear outcome model against the tableau, shot for shot.

``oracle.run`` is the referee: for every shot the model's record (outcomes,
forced flags, acceptance, logical) and insertion count must equal the
tableau's on the same insertions, drawn here with the sample command's keys.
"""

import pytest

from zxwebs import cli, oracle, sampler, webs
from zxwebs.diagram import Color, Diagram, Node
from zxwebs.surface import logical_operator, scheme_circuit

SHOTS = 10
SEED = 4
# (error_rate, z_error_rate, fixed insertions as a function of the distance):
# a Y with an X on the same qubit, and a duplicate X that cancels itself
ERRORS = [
    (0.1, 0.0, lambda d: ()),
    (0.0, 0.1, lambda d: ()),
    (0.05, 0.05, lambda d: ((d - 1, "Y"), (d - 1, "X"), (1, "X"), (1, "X"))),
]


def postselect_set(program, mode):
    if mode == "none":
        return None
    checks = oracle.deterministic_checks(program)
    if mode == "figure-set":
        checks = {c for c in checks if c.startswith("r1.")}
    return sorted(checks)


def tableau_shot(program, logical, postselect, seed, shot,
                 error_rate, z_error_rate, fixed):
    """(insertions, record) of one shot, drawn and run on the tableau."""
    items = [(program.structure.world_edges(q)[0], letter) for q, letter in fixed]
    for q in range(program.structure.n):
        for letter, rate in (("X", error_rate), ("Z", z_error_rate)):
            if rate and oracle.counter_unit(seed, shot, f"err{letter.lower()}:{q}") < rate:
                items.append((program.structure.world_edges(q)[0], letter))
    errors = webs.PauliErrorSet.of(program.diagram, items)
    return len(items), oracle.run(program, errors, seed=seed, shot=shot,
                                  postselect=postselect, measure_logical=logical)


@pytest.mark.parametrize("scheme", ["inject-y", "memory-z", "memory-x"])
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("rounds", [1, 2])
def test_model_matches_tableau_shot_for_shot(scheme, d, rounds):
    layout, diag, logical = scheme_circuit(d, scheme, rounds)
    program = oracle.lower(diag)
    for mode in ("none", "figure-set", "all-deterministic"):
        postselect = postselect_set(program, mode)
        model = sampler.OutcomeModel(program, logical, postselect=postselect)
        for error_rate, z_error_rate, fixed_of in ERRORS:
            fixed = fixed_of(d)
            got = list(model.shots(SEED, SHOTS, error_rate=error_rate,
                                   z_error_rate=z_error_rate, fixed=fixed))
            want = [tableau_shot(program, logical, postselect, SEED, shot,
                                 error_rate, z_error_rate, fixed)
                    for shot in range(SHOTS)]
            assert got == want, (mode, error_rate, z_error_rate, fixed)


@pytest.mark.parametrize("scheme", ["inject-y", "memory-z", "memory-x"])
def test_model_matches_tableau_where_detectors_share_their_last_stub(scheme):
    # from three rounds on, some detectors share their last stub with another,
    # so only the first stub of each picks it out of a combination
    layout, diag, logical = scheme_circuit(3, scheme, 3)
    program = oracle.lower(diag)
    model = sampler.OutcomeModel(program, logical)
    got = list(model.shots(SEED, SHOTS, error_rate=0.1, z_error_rate=0.1))
    want = [tableau_shot(program, logical, None, SEED, shot, 0.1, 0.1, ())
            for shot in range(SHOTS)]
    assert got == want


@pytest.mark.parametrize("error_rate", [0.0, 0.1])
def test_a_random_logical_reads_the_last_coin(error_rate):
    # memory-z prepares Z_L, so X_L comes out random: its coin is keyed "logical"
    layout, diag, _ = scheme_circuit(3, "memory-z", 2)
    program = oracle.lower(diag)
    x_l = logical_operator(layout, "X")
    assert not oracle.walk(program, x_l).logical.deterministic
    model = sampler.OutcomeModel(program, x_l)
    got = list(model.shots(SEED, 20, error_rate=error_rate))
    assert got == [tableau_shot(program, x_l, None, SEED, shot, error_rate, 0.0, ())
                   for shot in range(20)]
    assert {rec.logical_y for _, rec in got} == {0, 1}


def test_error_free_shots_build_no_web(monkeypatch, capsys):
    def no_web(*args):
        raise AssertionError("a web was built")

    monkeypatch.setattr(webs, "detectors", no_web)
    monkeypatch.setattr(webs, "solve", no_web)
    assert cli.main(["sample", "-d", "3", "--rounds", "2", "-p", "0", "--postselect",
                     "all-deterministic", "--format", "jsonl"]) == 0
    assert capsys.readouterr().out.count("\n") == 1000


def coin_chain_diagram():
    """A d=3 diagram, all qubits in |0>, whose last X check is forced to the
    XOR of two coins: X0X1 and X1X2 are random, Z1 is random and leaves X0X2
    in the stabilizer group only as the product of the first two. In the
    tableau that product is a row multiplication, which must XOR the rows'
    coin masks (``Tableau._rowmult``); no surface-code circuit needs it."""
    d = 3
    # (layer, check_id, support): X checks in odd layers, Z checks in even ones
    checks = [(1, "r1.X0", (0, 1)), (1, "r1.X1", (1, 2)), (2, "r1.Z0", (1,)),
              (3, "r2.X0", (0, 2)), (4, "r2.Z0", (8,))]

    def at(q, layer):
        return (2 * (q // d), 2 * (q % d), layer)

    nodes = [Node.spider(f"q{q}.l0", Color.X, 0, at(q, 0)) for q in range(d * d)]
    chains = {q: [f"q{q}.l0"] for q in range(d * d)}
    edges = []
    for layer in range(1, 5):
        data_color = Color.X if layer % 2 else Color.Z
        here = [(k, c, support) for k, (lay, c, support) in enumerate(checks) if lay == layer]
        for q in sorted({q for _, _, support in here for q in support}):
            nodes.append(Node.spider(f"q{q}.l{layer}", data_color, 0, at(q, layer)))
            chains[q].append(f"q{q}.l{layer}")
        for k, check_id, support in here:
            ancilla, stub, pos = f"a.{check_id}", f"m.{check_id}", (-1, 2 * k + 1, layer)
            nodes += [Node.spider(ancilla, data_color.opposite, 0, pos),
                      Node.measure_out(stub, check_id, pos)]
            edges += [(ancilla, stub)] + [(ancilla, f"q{q}.l{layer}") for q in support]
    for q in range(d * d):
        nodes.append(Node.boundary_out(f"out.q{q}", at(q, 5)))
        chains[q].append(f"out.q{q}")
        edges += zip(chains[q], chains[q][1:])
    return Diagram(nodes, edges)


def test_model_matches_tableau_where_a_check_needs_two_coins():
    program = oracle.lower(coin_chain_diagram())
    steps = {step.check_id: step.result for step in oracle.walk(program).checks}
    assert steps["r2.X0"] == oracle.MeasureResult(outcome=0, deterministic=True, aux=0b11)
    for postselect in (None, ["r2.X0", "r2.Z0"]):
        model = sampler.OutcomeModel(program, None, postselect=postselect)
        got = list(model.shots(SEED, 50, error_rate=0.1, z_error_rate=0.1))
        want = [tableau_shot(program, None, postselect, SEED, shot, 0.1, 0.1, ())
                for shot in range(50)]
        assert got == want
        assert {rec.outcomes["r2.X0"] for _, rec in got} == {0, 1}


def test_model_sees_flips_and_acceptance_both_ways():
    # the comparison above must not pass on records that never vary
    layout, diag, logical = scheme_circuit(5, "inject-y")
    program = oracle.lower(diag)
    model = sampler.OutcomeModel(program, logical,
                                 postselect=postselect_set(program, "figure-set"))
    records = [rec for _, rec in model.shots(SEED, 200, error_rate=0.05)]
    assert {rec.accepted for rec in records} == {True, False}
    assert {rec.logical_y for rec in records} == {0, 1}


def test_unreported_outcomes_draw_no_coins(monkeypatch):
    layout, diag, logical = scheme_circuit(5, "inject-y")
    program = oracle.lower(diag)
    postselect = postselect_set(program, "figure-set")
    calls = []  # the coin tokens drawn from any shot's prefix state

    class Spy:
        def __init__(self, state):
            self.state = state

        def copy(self):
            return Spy(self.state.copy())

        def update(self, token):
            if not token.startswith(b"err"):
                calls.append(token)
            self.state.update(token)

        def digest(self):
            return self.state.digest()

    shot_prefix = oracle.shot_prefix
    monkeypatch.setattr(oracle, "shot_prefix", lambda *args: Spy(shot_prefix(*args)))
    quiet = sampler.OutcomeModel(program, logical, postselect=postselect, report=False)
    quiet_records = list(quiet.shots(SEED, 20, error_rate=0.05))
    assert calls == []
    assert all(rec.outcomes == {} for _, rec in quiet_records)
    full = sampler.OutcomeModel(program, logical, postselect=postselect)
    full_records = list(full.shots(SEED, 20, error_rate=0.05))
    assert calls  # the random checks of a full record take their coins
    assert [(n, rec.accepted, rec.logical_y) for n, rec in quiet_records] \
        == [(n, rec.accepted, rec.logical_y) for n, rec in full_records]


def test_walk_is_shared_with_deterministic_checks():
    layout, diag, logical = scheme_circuit(3, "inject-y", 2)
    program = oracle.lower(diag)
    walk = oracle.walk(program, logical)
    assert oracle.deterministic_checks(walk) == oracle.deterministic_checks(program)
    assert [step.check_id for step in walk.checks] \
        == [c.check_id for c in program.structure.checks]
    # position 0 is Prepare; checks follow in measurement order
    assert [step.position for step in walk.checks] == list(range(1, len(walk.checks) + 1))
    assert walk.logical.deterministic and walk.logical.outcome == 0
    assert len(walk.events) == sum(not s.result.deterministic for s in walk.checks)


def test_missing_detector_combination_raises(monkeypatch):
    layout, diag, logical = scheme_circuit(3, "inject-y")
    program = oracle.lower(diag)
    monkeypatch.setattr(webs, "detectors", lambda d: [])
    model = sampler.OutcomeModel(program, logical,
                                 postselect=postselect_set(program, "figure-set"))
    with pytest.raises(sampler.ModelError, match="stub set"):
        next(model.shots(SEED, 1, error_rate=0.1))


def test_missing_correlator_raises(monkeypatch):
    layout, diag, logical = scheme_circuit(3, "inject-y")
    program = oracle.lower(diag)
    monkeypatch.setattr(webs, "solve", lambda d, bc: webs.Infeasible((), ()))
    model = sampler.OutcomeModel(program, logical)
    with pytest.raises(sampler.ModelError, match="correlator"):
        model.flips


def test_unknown_checks_and_bad_insertions_are_rejected():
    layout, diag, logical = scheme_circuit(3, "inject-y")
    program = oracle.lower(diag)
    with pytest.raises(ValueError, match="unknown check ids"):
        sampler.OutcomeModel(program, logical, postselect=["r9.X0"])
    model = sampler.OutcomeModel(program, logical)
    with pytest.raises(ValueError, match="letter"):
        next(model.shots(0, 1, fixed=[(0, "W")]))
    with pytest.raises(ValueError, match="outside"):
        next(model.shots(0, 1, fixed=[(9, "X")]))


def test_repeated_postselect_ids_are_one_condition():
    _, diag, logical = scheme_circuit(3, "inject-y")
    program = oracle.lower(diag)
    # a repeated post-selected check is the same condition twice
    twice = sampler.OutcomeModel(program, logical, postselect=["r1.Z0", "r1.Z0"])
    once = sampler.OutcomeModel(program, logical, postselect=["r1.Z0"])
    assert list(twice.shots(1, 5, error_rate=0.3)) == list(once.shots(1, 5, error_rate=0.3))
