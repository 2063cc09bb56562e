"""Acceptance suite: one test per criterion, exact tolerances, pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import random

import numpy as np
import pytest

from zxwebs import cli, oracle, webs
from zxwebs.oracle import canonical_group, canonical_stabilizer_group, counter_bit
from zxwebs.pauli import PauliOperator
from zxwebs.surface import (
    InitState,
    build_layout,
    correlator_boundary_condition,
    injection_pattern,
    logical_operators,
    web_output_pauli,
)
from zxwebs.webs import Highlight, Infeasible, PauliErrorSet, Web

from conftest import make_diagram

SCHEMES = ("memory-z", "memory-x", "inject-y")


def report(number: int, text: str) -> None:
    print(f"ACCEPT {number:2d} PASS  {text}")


def stub_product(record, stub_set) -> int:
    return sum(record.outcomes[c] for c in stub_set) % 2


def test_criterion_1_init_pattern_reproduction():
    pattern = injection_pattern(build_layout(5))
    y_set = {q for q, s in pattern.items() if s is InitState.Y}
    zero = {q for q, s in pattern.items() if s is InitState.ZERO}
    plus = {q for q, s in pattern.items() if s is InitState.PLUS}
    assert y_set == {4}
    assert zero == {9, 13, 14, 17, 18, 19, 21, 22, 23, 24}
    assert len(plus) == 14 and plus == set(range(25)) - zero - y_set
    report(1, "d=5 injection pattern: 1 Y + 10 strictly-upper-triangle |0> + 14 |+>")


@pytest.mark.parametrize("d,rounds", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_criterion_2_y_correlator_recovery(d, rounds):
    layout, diag = make_diagram(d, "inject-y", rounds)
    _, _, y_l = logical_operators(layout)
    web = webs.solve(diag, correlator_boundary_condition(diag, y_l))
    assert isinstance(web, Web)
    assert web_output_pauli(diag, web) == y_l
    corner = layout.qubit_index(0, d - 1)
    assert web.highlight((f"q{corner}.l0", f"q{corner}.l1")) is Highlight.Y
    stub_set = web.stub_set()
    program = oracle.lower(diag)
    for shot in range(200):
        rec = oracle.run(program, seed=20, shot=shot, measure_logical=y_l)
        assert (stub_product(rec, stub_set) + rec.logical_y) % 2 == 0
    report(2, f"d={d} rounds={rounds}: Y_L web recovered; stub-product x Y_L "
              f"outcome = +1 on 200/200 shots")


def test_criterion_3_forbidden_terminations():
    layout, diag = make_diagram(5, "inject-y")
    z_l, _, _ = logical_operators(layout)
    result = webs.solve(diag, correlator_boundary_condition(diag, z_l))
    assert isinstance(result, Infeasible)
    assert "q4.l0" in result.spiders
    # the wrong-color check cube: green web of plaquette Z5 over the
    # injection inits lands alone on three |+> spiders
    marks = {}
    for q in layout.plaquette("Z5").support:
        marks[(f"q{q}.l0", f"q{q}.l1")] = Highlight.Z
        marks[(f"q{q}.l1", f"q{q}.l2")] = Highlight.Z
        for p in layout.x_plaquettes:
            if q in p.support:
                marks[(f"a.r1.{p.id}", f"q{q}.l1")] = Highlight.Z
        marks[("a.r1.Z5", f"q{q}.l2")] = Highlight.Z
    marks[("a.r1.Z5", "m.r1.Z5")] = Highlight.Z
    cube = Web.from_edge_map(diag, marks)
    assert webs.validate_web(diag, cube) == ["q7.l0", "q12.l0", "q8.l0"]
    report(3, "Z-only correlator infeasible at the injected spider; orange "
              "cube flagged at its three |+> terminations")


def test_criterion_4_postselection_set():
    layout, diag = make_diagram(5, "inject-y")
    det = oracle.deterministic_checks(oracle.lower(diag))
    assert det == {"r1.X0", "r1.X1", "r1.X3", "r1.X4", "r1.X6", "r1.X9",
                   "r1.Z7", "r1.Z9", "r1.Z10", "r1.Z11"}
    supports = {tuple(layout.plaquette(c.split(".")[1]).support) for c in det}
    assert supports == {
        (0, 1, 5, 6), (2, 3, 7, 8), (5, 10), (6, 7, 11, 12),
        (10, 11, 15, 16), (15, 20),                      # 6 X-type
        (13, 14, 18, 19), (17, 18, 22, 23), (21, 22), (23, 24),  # 4 Z-type
    }
    _, diag_z = make_diagram(5, "memory-z")
    assert oracle.deterministic_checks(oracle.lower(diag_z)) == {f"r1.Z{k}" for k in range(12)}
    report(4, "post-selection sets exact: 10 plaquettes (6 X + 4 Z) for "
              "injection, all 12 first-round Z checks for memory-Z")


def test_criterion_5_footnote_algebra():
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = PauliOperator.from_dict(4, {q: "Z" for q in range(4)})
    seen = set()
    for s in range(100):
        t = oracle.prepare(pattern)
        res = t.measure(zzzz, random_bit=counter_bit(0, s, "m"))
        assert not res.deterministic
        seen.add(res.outcome)
        expected = canonical_group(4, [
            zzzz if res.outcome == 0 else zzzz.negated(),
            PauliOperator.from_dict(4, {0: "X", 1: "X"}),
            PauliOperator.from_dict(4, {0: "X", 2: "X"}),
            PauliOperator.from_dict(4, {3: "Z"}),
        ])
        assert canonical_stabilizer_group(t) == expected
    assert seen == {0, 1}
    ones = 0
    shots = 1000
    for s in range(shots):
        t = oracle.prepare(pattern)
        ones += t.measure(zzzz, random_bit=counter_bit(1, s, "m")).outcome
    chi2 = (2 * ones - shots) ** 2 / shots
    p_value = math.erfc(math.sqrt(chi2 / 2))
    assert p_value > 0.001
    report(5, f"ZZZZ on <Xa,Xb,Xc,Zd> random (both outcomes in 100 shots, "
              f"chi2 p={p_value:.3f}); post group = <(-1)^m ZZZZ, XaXb, XaXc, Zd>")


def _oracle_flip_vector(diag, dets, err):
    rec = oracle.run(oracle.lower(diag), err, seed=0)
    return np.array([stub_product(rec, w.stub_set()) for w in dets], dtype=np.uint8)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("rounds", [1, 2])
def test_criterion_6_syndrome_oracle_equivalence_d3(scheme, rounds):
    _, diag = make_diagram(3, scheme, rounds)
    dets = webs.detectors(diag)
    structure = oracle.diagram_structure(diag)
    cases = 0
    for q in range(9):
        for edge in structure.world_edges(q):
            for letter in ("X", "Z"):
                err = PauliErrorSet.of(diag, [(edge, letter)])
                predicted = webs.syndrome(dets, err)
                assert np.array_equal(predicted, _oracle_flip_vector(diag, dets, err))
                cases += 1
    report(6, f"d=3 {scheme} rounds={rounds}: exhaustive single-insertion "
              f"syndromes match the oracle ({cases} cases)")


def test_criterion_6_syndrome_oracle_equivalence_d5_sampled():
    _, diag = make_diagram(5, "inject-y")
    dets = webs.detectors(diag)
    structure = oracle.diagram_structure(diag)
    candidates = [(edge, letter)
                  for q in range(25)
                  for edge in structure.world_edges(q)
                  for letter in ("X", "Z")]
    rng = random.Random(2024)
    for _ in range(500):
        picks = [rng.choice(candidates) for _ in range(rng.choice((1, 2)))]
        err = PauliErrorSet.of(diag, picks)
        predicted = webs.syndrome(dets, err)
        assert np.array_equal(predicted, _oracle_flip_vector(diag, dets, err))
    report(6, "d=5 injection: 500 random single/double insertions, zero mismatches")


def test_criterion_7_boundary_ambiguous_error_pair():
    # top-edge neighbours share their only Z plaquette, so an init X error
    # on either flips the same single first-round Z detector
    layout, diag = make_diagram(5, "memory-z")
    dets = webs.detectors(diag)
    names = [next(iter(w.stub_set())) for w in dets]

    def flipped(qubit):
        err = PauliErrorSet.of(diag, [((f"q{qubit}.l0", f"q{qubit}.l1"), "X")])
        syn = webs.syndrome(dets, err)
        assert np.array_equal(syn, _oracle_flip_vector(diag, dets, err))
        return [names[i] for i in np.nonzero(syn)[0]]

    assert flipped(14) == ["r1.Z7"]
    assert flipped(19) == ["r1.Z7"]
    assert layout.plaquette("Z7").support == (13, 14, 18, 19)
    # the same ambiguity one plaquette over, through the injection corner
    assert flipped(4) == ["r1.Z3"]
    assert flipped(9) == ["r1.Z3"]
    assert layout.plaquette("Z3").support == (3, 4, 8, 9)
    report(7, "init X on qubit 14 or 19 flips exactly the shared detector Z7 "
              "(and 4 or 9 flips Z3): boundary-ambiguous pairs")


def test_criterion_8_postselection_behavior():
    layout, diag = make_diagram(5, "inject-y")
    _, _, y_l = logical_operators(layout)
    program = oracle.lower(diag)
    postselect = sorted(oracle.deterministic_checks(program))
    err14 = PauliErrorSet.of(diag, [(("q14.l0", "q14.l1"), "X")])
    err_corner = PauliErrorSet.of(diag, [(("q4.l0", "q4.l1"), "X")])
    for shot in range(100):
        rec = oracle.run(program, err14, seed=8, shot=shot, postselect=postselect)
        assert rec.accepted is False
        rec = oracle.run(program, err_corner, seed=8, shot=shot,
                         postselect=postselect, measure_logical=y_l)
        assert rec.accepted is True and rec.logical_y == 1
    report(8, "X on qubit 14: acceptance exactly 0; X on the injected corner: "
              "accepted with logical Y flipped on 100/100 shots")


def test_criterion_9_web_space_properties():
    _, diag5 = make_diagram(5, "inject-y")
    basis5 = webs.web_space(diag5).basis
    rng = random.Random(7)
    for _ in range(1000):
        acc = Web.zero(diag5)
        for w in basis5:
            if rng.random() < 0.5:
                acc = acc ^ w
        assert webs.validate_web(diag5, acc) == []
    combos_checked = 1000
    diagrams = 0
    for d in (3, 5):
        for scheme in SCHEMES:
            for rounds in (1, 2):
                _, diag = make_diagram(d, scheme, rounds)
                space = webs.web_space(diag)
                assert space.rank + space.dim == 2 * len(diag.edges)
                for w in space.basis:
                    for node in diag.spiders():
                        if diag.degree(node.id) != 1:
                            continue
                        leg = diag.incident_edges(node.id)[0]
                        x, z = w.x_bit(leg), w.z_bit(leg)
                        if node.phase.is_half:
                            assert x == z
                        elif node.color.value == "Z":
                            assert z == 0
                        else:
                            assert x == 0
                diagrams += 1
    report(9, f"{combos_checked} random web combinations valid; rank+nullity "
              f"= 2|edges| and degree-1 termination rules hold on "
              f"{diagrams} diagrams")


@pytest.mark.parametrize("argv", [
    ["layout", "-d", "5", "--scheme", "inject-y"],
    ["webs", "-d", "5", "--scheme", "inject-y"],
    ["verify", "-d", "3", "--scheme", "inject-y", "--shots", "20"],
    ["sample", "-d", "5", "--shots", "50", "-p", "0.02", "--seed", "5",
     "--postselect", "figure-set"],
])
def test_criterion_10_cli_reproducibility(capsys, argv):
    code1 = cli.main(argv)
    first = capsys.readouterr()
    code2 = cli.main(argv)
    second = capsys.readouterr()
    assert code1 == code2
    assert first.out.encode() == second.out.encode()
    assert first.err.encode() == second.err.encode()
    report(10, f"`zxwebs {' '.join(argv[:2])}...` byte-identical on rerun")
