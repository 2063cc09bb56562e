"""The verify items against the tableau, the prediction of the error-free
shots against the tableau, and the FAIL lines the items print under
mutations of the webs, tableau, shots and walk."""

import pytest

from zxwebs import cli, gf2, oracle, sampler, webs
from zxwebs.surface import SCHEMES, scheme_circuit
from zxwebs.verify import (
    REFEREE_SHOTS,
    CheckResult,
    check_correlator,
    check_footnote5,
    check_web_space,
    run_suite,
)

from conftest import assert_frozen_record


@pytest.mark.parametrize("mutation", ["group", "deterministic", "coin"])
def test_footnote5_reports_a_broken_tableau(monkeypatch, mutation):
    real = oracle.Tableau.measure
    if mutation == "group":
        # a wrong post-measurement group, whatever the coin
        monkeypatch.setattr(oracle, "canonical_stabilizer_group", lambda t: ())
        want = "random for both coins, outcomes [0, 1], post-measurement group WRONG"
    elif mutation == "deterministic":
        def forced(self, op, random_bit=None):
            res = real(self, op, random_bit)
            return oracle.MeasureResult(res.outcome, True, res.aux)

        monkeypatch.setattr(oracle.Tableau, "measure", forced)
        want = "measurement came out deterministic"
    else:
        # a random outcome that ignores its coin: both branches read 0
        monkeypatch.setattr(oracle.Tableau, "measure",
                            lambda self, op, random_bit=None: real(self, op, 0))
        want = "random for both coins, outcomes [0, 0], post-measurement group ok"
    assert check_footnote5() == CheckResult("footnote5", False, want)


def test_footnote5_line_does_not_depend_on_the_seed(capsys):
    # each of these seeds failed the 1,000-coin chi-square gate the item had
    lines = set()
    for seed in (9045, 58045, 307046, 632004, 201030, 205036):
        assert cli.main(["verify", "-d", "3", "--footnote5", "--seed", str(seed)]) == 0
        lines |= {line for line in capsys.readouterr().out.splitlines()
                  if "footnote5" in line}
    assert lines == {"PASS footnote5: random for both coins, outcomes [0, 1], "
                     "post-measurement group ok"}


def test_check_result_keeps_its_repr():
    result = CheckResult("footnote5", False, "measurement came out deterministic")
    assert repr(result) == ("CheckResult(name='footnote5', ok=False, "
                            "detail='measurement came out deterministic')")
    assert_frozen_record(result, "name ok detail")


def test_web_space_item_fails_when_the_null_space_loses_a_vector(monkeypatch):
    _, diag, _ = scheme_circuit(3, "inject-y", 2)
    good = check_web_space(diag, webs.web_space(diag))
    real = gf2.nullspace
    monkeypatch.setattr(gf2, "nullspace", lambda matrix: real(matrix)[:-1])
    space = webs.web_space(diag)
    short = check_web_space(diag, space)
    assert good.ok and not short.ok
    # the rank is the item's own elimination, not what the short basis implies
    dim = len(space.basis)
    assert short.detail == good.detail.replace(f"dim {dim + 1} ", f"dim {dim} ")


def drop_last_stub(dets):
    """The detectors with both bits of one stub edge cleared: the last stub
    edge of the first detector that has at least two."""
    for k, w in enumerate(dets):
        stubs = sorted(e for e in w.diagram.stub_index if w.mask >> 2 * e & 3)
        if len(stubs) >= 2:
            return [*dets[:k], webs.Web(w.diagram, w.mask & ~(3 << 2 * stubs[-1])),
                    *dets[k + 1:]]
    raise AssertionError("no detector has two stubs")


def mutate(monkeypatch, mutation):
    if mutation == "web":
        real_detectors = webs.detectors
        monkeypatch.setattr(webs, "detectors", lambda d: drop_last_stub(real_detectors(d)))
    elif mutation == "tableau":
        real_measure = oracle.Tableau.measure

        def measure(self, op, random_bit=None):
            # a forced outcome that depends on coins always reads 0
            res = real_measure(self, op, random_bit)
            return res._replace(outcome=0) if res.deterministic and res.aux else res

        monkeypatch.setattr(oracle.Tableau, "measure", measure)
    else:
        real_run = oracle.run

        def run(program, *args, seed=0, shot=0, **kwargs):
            rec = real_run(program, *args, seed=seed, shot=shot, **kwargs)
            if rec.logical_y is not None and oracle.counter_bit(seed, shot, "flip"):
                rec = rec._replace(logical_y=rec.logical_y ^ 1)
            return rec

        monkeypatch.setattr(oracle, "run", run)


# the one FAIL line each mutation gives, byte for byte
MUTATION_FAILURES = {
    ("inject-y", "web"):
        "FAIL detectors-deterministic: 11 detector webs; single-stub set DIFFERS from "
        "oracle deterministic checks; 26 nontrivial products over 50 shots",
    ("inject-y", "tableau"):
        "FAIL detectors-deterministic: 11 detector webs; single-stub set matches "
        "oracle deterministic checks; 129 nontrivial products over 50 shots",
    ("inject-y", "correlator"):
        "FAIL correlator: inject-y logical correlator, stub set []; "
        "28/50 shots broke the outcome product",
    ("memory-z", "web"):
        "FAIL detectors-deterministic: 12 detector webs; single-stub set DIFFERS from "
        "oracle deterministic checks; 29 nontrivial products over 50 shots",
    ("memory-z", "tableau"):
        "FAIL detectors-deterministic: 12 detector webs; single-stub set matches "
        "oracle deterministic checks; 102 nontrivial products over 50 shots",
    ("memory-z", "correlator"):
        "FAIL correlator: memory-z logical correlator, stub set []; "
        "28/50 shots broke the outcome product",
}


@pytest.mark.parametrize("scheme, mutation", list(MUTATION_FAILURES), ids="-".join)
def test_shot_items_report_a_broken_web_or_tableau(monkeypatch, scheme, mutation):
    assert all(r.ok for r in run_suite(3, scheme, 2, seed=7, shots=50))
    mutate(monkeypatch, mutation)
    failed = [f"FAIL {r.name}: {r.detail}"
              for r in run_suite(3, scheme, 2, seed=7, shots=50) if not r.ok]
    assert failed == [MUTATION_FAILURES[scheme, mutation]]


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("d, rounds", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_predicted_shots_equal_the_tableau_on_every_shot(scheme, d, rounds):
    # verify's prediction: the sampler's model at zero rates
    _, diag, logical = scheme_circuit(d, scheme, rounds)
    program = oracle.lower(diag)
    seed = 100 * d + rounds
    model = sampler.OutcomeModel(program, logical)
    for shot, (n_errors, rec) in enumerate(model.shots(seed, 50)):
        assert n_errors == 0
        assert rec == oracle.run(program, seed=seed, shot=shot, measure_logical=logical)


def count_tableau_shots(monkeypatch):
    shots = []
    real_run = oracle.run
    monkeypatch.setattr(oracle, "run", lambda *args, **kwargs: shots.append(kwargs["shot"])
                        or real_run(*args, **kwargs))
    return shots


@pytest.mark.parametrize("shots", [0, 5, REFEREE_SHOTS, 50])
def test_a_correct_suite_runs_only_the_referee_shots_on_the_tableau(monkeypatch, shots):
    ran = count_tableau_shots(monkeypatch)
    results = run_suite(3, "inject-y", 2, seed=7, shots=shots)
    assert all(r.ok for r in results)
    assert ran == list(range(min(shots, REFEREE_SHOTS)))


def test_a_prediction_with_a_wrong_forced_flag_falls_back_to_the_tableau(monkeypatch):
    # the outcomes are right, so only a referee of whole records sees it
    real_shots = sampler.OutcomeModel.shots

    def shots(self, *args, **kwargs):
        for n_errors, rec in real_shots(self, *args, **kwargs):
            flipped = {**rec.forced, "r1.Z0": not rec.forced["r1.Z0"]}
            yield n_errors, rec._replace(forced=flipped)

    monkeypatch.setattr(sampler.OutcomeModel, "shots", shots)
    ran = count_tableau_shots(monkeypatch)
    assert all(r.ok for r in run_suite(3, "inject-y", 2, seed=7, shots=20))
    assert ran == list(range(20))


# zeroing the aux mask of the first forced check that has one: the check now
# looks deterministic, and the tableau refutes the walk's prediction of it
WALK_FAILURES = {
    "inject-y":
        "FAIL detectors-deterministic: 11 detector webs; single-stub set DIFFERS from "
        "oracle deterministic checks; 0 nontrivial products over 50 shots",
    "memory-z":
        "FAIL detectors-deterministic: 12 detector webs; single-stub set DIFFERS from "
        "oracle deterministic checks; 0 nontrivial products over 50 shots",
}


@pytest.mark.parametrize("scheme", list(WALK_FAILURES))
def test_a_walk_that_loses_a_coin_fails_and_falls_back_to_the_tableau(monkeypatch, scheme):
    real_walk = oracle.walk

    def walk(program, measure_logical=None):
        w = real_walk(program, measure_logical)
        k = next(k for k, step in enumerate(w.checks)
                 if step.result.deterministic and step.result.aux)
        step = w.checks[k]
        lost = step._replace(result=step.result._replace(aux=0))
        return w._replace(checks=(*w.checks[:k], lost, *w.checks[k + 1:]))

    monkeypatch.setattr(oracle, "walk", walk)
    ran = count_tableau_shots(monkeypatch)
    failed = [f"FAIL {r.name}: {r.detail}"
              for r in run_suite(3, scheme, 2, seed=7, shots=50) if not r.ok]
    assert failed == [WALK_FAILURES[scheme]]
    assert ran == list(range(50))


def pair_last_stub(dets):
    """The first two-stub detector with its last stub edge cleared and the first
    single-stub detector's web added: it keeps two stubs, so the single-stub
    set is as it was, but its product now reads a coin."""
    single = next(w for w in dets if len(w.stub_set()) == 1)
    for k, w in enumerate(dets):
        stubs = sorted(e for e in w.diagram.stub_index if w.mask >> 2 * e & 3)
        if len(stubs) == 2:
            mask = (w.mask & ~(3 << 2 * stubs[-1])) ^ single.mask
            return [*dets[:k], webs.Web(w.diagram, mask), *dets[k + 1:]]
    raise AssertionError("no detector has two stubs")


# (scheme, seed): at 4 shots the coin the broken product reads is 0 in every
# shot, so only the walk's all-coins condition sees the break
EXACT_FAILURES = {
    ("inject-y", 3):
        "FAIL detectors-deterministic: 11 detector webs; single-stub set matches "
        "oracle deterministic checks; 0 nontrivial products over 4 shots; "
        "stub set ['r1.X2', 'r1.X3'] is not +1 for every coin",
    ("memory-z", 11):
        "FAIL detectors-deterministic: 12 detector webs; single-stub set matches "
        "oracle deterministic checks; 0 nontrivial products over 4 shots; "
        "stub set ['r1.X2', 'r1.Z0'] is not +1 for every coin",
}


@pytest.mark.parametrize("scheme, seed", list(EXACT_FAILURES))
def test_a_break_no_drawn_shot_shows_fails_on_the_walk(monkeypatch, scheme, seed):
    real_detectors = webs.detectors
    monkeypatch.setattr(webs, "detectors", lambda d: pair_last_stub(real_detectors(d)))
    failed = [f"FAIL {r.name}: {r.detail}"
              for r in run_suite(3, scheme, 2, seed=seed, shots=4) if not r.ok]
    assert failed == [EXACT_FAILURES[scheme, seed]]


def test_a_correlator_product_that_reads_a_coin_fails_on_the_walk():
    layout, diag, logical = scheme_circuit(3, "inject-y", 2)
    walk = oracle.walk(oracle.lower(diag), logical)
    shots = [(frozenset(), 0)] * 3
    good = check_correlator(diag, walk, layout, "inject-y", logical, shots, True)
    # the logical as if it were random: its own coin, the event after the checks'
    coin = oracle.MeasureResult(0, False, 1 << len(walk.events))
    bad = check_correlator(diag, walk._replace(logical=coin), layout, "inject-y",
                           logical, shots, True)
    assert good.ok and not bad.ok
    assert bad.detail == good.detail + "; the outcome product is not +1 for every coin"
