import math

import pytest

from zxwebs.oracle import (
    ApplyPauli,
    LoweringError,
    MeasureCheck,
    Prepare,
    canonical_group,
    canonical_stabilizer_group,
    counter_bit,
    deterministic_checks,
    diagram_structure,
    lower,
    prepare,
    run,
)
from zxwebs.pauli import PauliOperator
from zxwebs.surface import InitState, injection_pattern, build_layout
from zxwebs.webs import PauliErrorSet

from conftest import make_diagram


def op(n, mapping, sign=1):
    return PauliOperator.from_dict(n, mapping, sign)


def test_prepare_single_y():
    t = prepare({0: InitState.Y})
    assert canonical_stabilizer_group(t) == canonical_group(1, [op(1, {0: "Y"})])


def test_prepare_zero_plus():
    t = prepare({0: InitState.ZERO, 1: InitState.PLUS})
    expected = canonical_group(2, [op(2, {0: "Z"}), op(2, {1: "X"})])
    assert canonical_stabilizer_group(t) == expected
    t.check_valid()


def test_prepare_validation():
    with pytest.raises(ValueError):
        prepare({})
    with pytest.raises(ValueError):
        prepare({1: InitState.ZERO})


def test_injection_pattern_stabilizes_corner_y():
    pattern = injection_pattern(build_layout(5))
    t = prepare(pattern)
    res = t.measure(op(25, {4: "Y"}))
    assert res.deterministic and res.outcome == 0 and res.aux == 0


def test_measure_deterministic_z():
    t = prepare({0: InitState.ZERO})
    res = t.measure(op(1, {0: "Z"}))
    assert (res.outcome, res.deterministic) == (0, True)


def test_measure_random_then_idempotent():
    for bit in (0, 1):
        t = prepare({0: InitState.Y})
        first = t.measure(op(1, {0: "X"}), random_bit=bit)
        assert not first.deterministic and first.outcome == bit
        second = t.measure(op(1, {0: "X"}))
        assert second.deterministic and second.outcome == bit
        t.check_valid()


def test_remeasuring_every_check_is_idempotent(inj3):
    _, diag = inj3
    tableau = None
    results = {}
    for i, instr in enumerate(lower(diag).instructions()):
        if isinstance(instr, Prepare):
            tableau = prepare(dict(instr.pattern))
        else:
            results[instr.check_id] = (instr.op,
                                       tableau.measure(instr.op, random_bit=i % 2))
    for check_id, (operator, first) in results.items():
        again = tableau.measure(operator)
        assert again.deterministic and again.outcome == first.outcome
    tableau.check_valid()


def test_measure_random_requires_bit():
    t = prepare({0: InitState.PLUS})
    with pytest.raises(ValueError, match="random bit"):
        t.measure(op(1, {0: "Z"}))


def test_measure_negative_sign_operator():
    t = prepare({0: InitState.ZERO})
    res = t.measure(op(1, {0: "Z"}, sign=-1))
    assert res.deterministic and res.outcome == 1


def test_apply_pauli_flips_outcomes():
    t = prepare({0: InitState.ZERO, 1: InitState.ZERO})
    t.apply_pauli(op(2, {0: "X"}))
    assert t.measure(op(2, {0: "Z"})).outcome == 1
    assert t.measure(op(2, {1: "Z"})).outcome == 0


def test_footnote_instance_group_and_randomness():
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = op(4, {q: "Z" for q in range(4)})
    seen = set()
    for s in range(100):
        t = prepare(pattern)
        res = t.measure(zzzz, random_bit=counter_bit(0, s, "m"))
        assert not res.deterministic
        seen.add(res.outcome)
        expected = canonical_group(4, [
            zzzz if res.outcome == 0 else zzzz.negated(),
            op(4, {0: "X", 1: "X"}),
            op(4, {0: "X", 2: "X"}),
            op(4, {3: "Z"}),
        ])
        assert canonical_stabilizer_group(t) == expected
        t.check_valid()
    assert seen == {0, 1}


def test_measurement_statistics_chi_square():
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = op(4, {q: "Z" for q in range(4)})
    ones = 0
    shots = 1000
    for s in range(shots):
        t = prepare(pattern)
        ones += t.measure(zzzz, random_bit=counter_bit(5, s, "m")).outcome
    chi2 = (ones - shots / 2) ** 2 / (shots / 2) + ((shots - ones) - shots / 2) ** 2 / (shots / 2)
    assert math.erfc(math.sqrt(chi2 / 2)) > 0.001


def test_canonical_group_invariance():
    a = op(3, {0: "X", 1: "X"})
    b = op(3, {1: "X", 2: "X"})
    c = op(3, {0: "Z"}, sign=-1)
    left = canonical_group(3, [a, b, c])
    right = canonical_group(3, [b, a * b, c])
    assert left == right
    with pytest.raises(ValueError, match="identity"):
        canonical_group(3, [a, a.negated()])


def test_lower_counts_memory_z_d3():
    _, diag = make_diagram(3, "memory-z")
    instrs = lower(diag).instructions()
    assert isinstance(instrs[0], Prepare)
    checks = [i for i in instrs if isinstance(i, MeasureCheck)]
    assert len(checks) == 8
    assert [c.check_id for c in checks[:4]] == ["r1.X0", "r1.X1", "r1.X2", "r1.X3"]
    assert all(c.check_id.startswith("r1.Z") for c in checks[4:])


def test_lower_counts_injection_d5(inj5):
    _, diag = inj5
    instrs = lower(diag).instructions()
    checks = [i for i in instrs if isinstance(i, MeasureCheck)]
    assert len(checks) == 24
    stub_ids = {x.check_id for x in diag.nodes if x.check_id}
    assert {c.check_id for c in checks} == stub_ids
    # X plaquettes measured before Z in each round
    kinds = ["X" if "X" in c.check_id else "Z" for c in checks]
    assert kinds == ["X"] * 12 + ["Z"] * 12


def test_lower_places_init_error_right_after_prepare(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("q9.l0", "q9.l1"), "X")])
    instrs = lower(diag).instructions(err)
    assert isinstance(instrs[0], Prepare)
    assert instrs[1] == ApplyPauli(qubit=9, letter="X")
    assert isinstance(instrs[2], MeasureCheck)


def test_lower_places_mid_circuit_error_between_layers(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("q9.l1", "q9.l2"), "Z")])
    instrs = lower(diag).instructions(err)
    position = instrs.index(ApplyPauli(qubit=9, letter="Z"))
    before = [i for i in instrs[:position] if isinstance(i, MeasureCheck)]
    assert len(before) == 12 and all("X" in c.check_id for c in before)


def test_lower_rejects_plaquette_edge_errors(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("a.r1.Z5", "q7.l2"), "X")])
    with pytest.raises(LoweringError, match="world line"):
        lower(diag).instructions(err)


def test_lower_rejects_foreign_diagrams():
    from zxwebs.diagram import Color, Diagram, Node
    d = Diagram(
        nodes=[Node.spider("s", Color.Z, 1, (0, 0, 0)),
               Node.boundary_out("o", (0, 0, 1))],
        edges=[("s", "o")],
    )
    with pytest.raises(LoweringError):
        lower(d)


def test_structure_world_edges(inj3):
    _, diag = inj3
    structure = diagram_structure(diag)
    assert structure.distance == 3 and structure.rounds == 1
    for q in range(9):
        chain = structure.world_edges(q)
        assert len(chain) == 3  # init->l1, l1->l2, l2->out
    assert structure.init[2] is InitState.Y


def test_run_is_reproducible(inj5):
    lay, diag = inj5
    from zxwebs.surface import logical_operators
    _, _, y_l = logical_operators(lay)
    kwargs = dict(seed=9, shot=4, postselect=["r1.Z7"], measure_logical=y_l)
    program = lower(diag)
    a = run(program, **kwargs)
    b = run(program, **kwargs)
    assert a == b
    assert a.to_json() == b.to_json()
    assert a.accepted is True and a.logical_y == 0
    c = run(program, seed=10, shot=4, postselect=["r1.Z7"], measure_logical=y_l)
    assert c.accepted is True  # deterministic checks do not depend on the seed


def test_run_flags_and_validation(inj5):
    _, diag = inj5
    program = lower(diag)
    rec = run(program, seed=0)
    assert rec.accepted is None and rec.logical_y is None
    assert set(rec.forced) == set(rec.outcomes)
    det = {c for c, f in rec.forced.items() if f}
    assert det  # first-round deterministic checks exist
    with pytest.raises(ValueError, match="unknown check"):
        run(program, seed=0, postselect=["r9.X0"])


def test_run_forced_outcomes_condition_random_checks(inj5):
    _, diag = inj5
    program = lower(diag)
    rec0 = run(program, seed=1, forced_outcomes={"r1.X2": 0})
    rec1 = run(program, seed=1, forced_outcomes={"r1.X2": 1})
    assert rec0.outcomes["r1.X2"] == 0
    assert rec1.outcomes["r1.X2"] == 1


def test_deterministic_checks_memory_z(memz5):
    _, diag = memz5
    det = deterministic_checks(lower(diag))
    assert det == {f"r1.Z{k}" for k in range(12)}


def test_deterministic_checks_injection_d5(inj5):
    _, diag = inj5
    det = deterministic_checks(lower(diag))
    assert det == {"r1.X0", "r1.X1", "r1.X3", "r1.X4", "r1.X6", "r1.X9",
                   "r1.Z7", "r1.Z9", "r1.Z10", "r1.Z11"}


def test_deterministic_checks_match_region_predicate_d3(inj3):
    lay, diag = inj3
    pattern = injection_pattern(lay)
    plus = {q for q, s in pattern.items() if s is InitState.PLUS}
    zero = {q for q, s in pattern.items() if s is InitState.ZERO}
    expected = set()
    for p in lay.x_plaquettes:
        if set(p.support) <= plus:
            expected.add(f"r1.{p.id}")
    for p in lay.z_plaquettes:
        if set(p.support) <= zero:
            expected.add(f"r1.{p.id}")
    assert deterministic_checks(lower(diag)) == expected


def test_deterministic_checks_two_rounds():
    _, diag = make_diagram(3, "memory-z", rounds=2)
    det = deterministic_checks(lower(diag))
    # round-2 X checks only echo the round-1 coin flips, so they are excluded
    assert det == {f"r{k}.Z{i}" for k in (1, 2) for i in range(4)}


def test_shot_record_json_is_stable(inj3):
    _, diag = inj3
    line = run(lower(diag), seed=3).to_json()
    assert line == run(lower(diag), seed=3).to_json()
    assert line.startswith('{"outcomes":')
