"""The verify items against test-local copies of the loops they replaced."""

import math

import pytest

from zxwebs import oracle
from zxwebs.pauli import PauliOperator
from zxwebs.surface import InitState
from zxwebs.verify import CheckResult, check_footnote5


def per_shot_footnote5(seed=0, shots=1000):
    """check_footnote5 as it was: prepare, measure and canonicalise every shot."""
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = PauliOperator.from_dict(4, {q: "Z" for q in range(4)})
    rest = [PauliOperator.from_dict(4, {0: "X", 1: "X"}),
            PauliOperator.from_dict(4, {0: "X", 2: "X"}),
            PauliOperator.from_dict(4, {3: "Z"})]
    expected = [oracle.canonical_group(4, [zzzz, *rest]),
                oracle.canonical_group(4, [zzzz.negated(), *rest])]
    counts = [0, 0]
    group_ok = True
    for s in range(shots):
        t = oracle.prepare(pattern)
        res = t.measure(zzzz, random_bit=oracle.counter_bit(seed, s, "m"))
        if res.deterministic:
            return CheckResult("footnote5", False, "measurement came out deterministic")
        counts[res.outcome] += 1
        if oracle.canonical_stabilizer_group(t) != expected[res.outcome]:
            group_ok = False
    expected_count = shots / 2
    chi2 = sum((c - expected_count) ** 2 / expected_count for c in counts)
    p_value = math.erfc(math.sqrt(chi2 / 2))
    ok = group_ok and min(counts) > 0 and p_value > 0.001
    return CheckResult("footnote5", ok,
                       f"outcome counts {counts}, chi2 p={p_value:.4f}, "
                       f"post-measurement group {'ok' if group_ok else 'WRONG'}")


# 9045, 58045 and 307046 trip the chi-square gate (p <= 0.001) in both versions
SEEDS = [*range(50), 9045, 58045, 307046]


def test_footnote5_matches_the_per_shot_loop():
    results = [check_footnote5(seed) for seed in SEEDS]
    assert results == [per_shot_footnote5(seed) for seed in SEEDS]
    failed = [seed for seed, r in zip(SEEDS, results) if not r.ok]
    assert failed == [9045, 58045, 307046]


def test_footnote5_matches_the_per_shot_loop_at_few_shots():
    for seed in range(20):
        assert check_footnote5(seed, shots=7) == per_shot_footnote5(seed, shots=7)


@pytest.mark.parametrize("mutation", ["group", "deterministic"])
def test_footnote5_reports_a_broken_tableau(monkeypatch, mutation):
    if mutation == "group":
        # a wrong post-measurement group, whatever the coin
        monkeypatch.setattr(oracle, "canonical_stabilizer_group", lambda t: ())
        want = "post-measurement group WRONG"
    else:
        real = oracle.Tableau.measure

        def forced(self, op, random_bit=None):
            res = real(self, op, random_bit)
            return oracle.MeasureResult(res.outcome, True, res.aux)

        monkeypatch.setattr(oracle.Tableau, "measure", forced)
        want = "measurement came out deterministic"
    got = check_footnote5(3)
    assert got == per_shot_footnote5(3)
    assert not got.ok and got.detail.endswith(want)
