"""The web-linear outcome model against the tableau, shot for shot.

``oracle.run`` is the referee: for every shot the model's record (outcomes,
forced flags, acceptance, logical) and insertion count must equal the
tableau's on the same insertions, drawn here with the sample command's keys.
"""

import pytest

from zxwebs import oracle, sampler, webs
from zxwebs.surface import scheme_circuit

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


def tableau_shot(program, layout, logical, postselect, seed, shot,
                 error_rate, z_error_rate, fixed):
    """(insertions, record) of one shot, drawn and run on the tableau."""
    items = [((f"q{q}.l0", f"q{q}.l1"), letter) for q, letter in fixed]
    for q in range(layout.n):
        for letter, rate in (("X", error_rate), ("Z", z_error_rate)):
            if rate and oracle.counter_unit(seed, shot, f"err{letter.lower()}:{q}") < rate:
                items.append(((f"q{q}.l0", f"q{q}.l1"), letter))
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
            want = [tableau_shot(program, layout, logical, postselect, SEED, shot,
                                 error_rate, z_error_rate, fixed)
                    for shot in range(SHOTS)]
            assert got == want, (mode, error_rate, z_error_rate, fixed)


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
    calls = []
    counter_bit = oracle.counter_bit
    monkeypatch.setattr(oracle, "counter_bit",
                        lambda *args: calls.append(args) or counter_bit(*args))
    quiet = sampler.OutcomeModel(program, logical, postselect=postselect, report=())
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
    with pytest.raises(sampler.ModelError, match="stub set"):
        sampler.OutcomeModel(program, logical,
                             postselect=postselect_set(program, "figure-set"))


def test_missing_correlator_raises(monkeypatch):
    layout, diag, logical = scheme_circuit(3, "inject-y")
    program = oracle.lower(diag)
    monkeypatch.setattr(webs, "solve", lambda d, bc: webs.Infeasible((), ()))
    with pytest.raises(sampler.ModelError, match="correlator"):
        sampler.OutcomeModel(program, logical)


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
