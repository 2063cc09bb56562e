import pytest

from zxwebs.diagram import Kind, validate
from zxwebs.pauli import PauliOperator
from zxwebs.surface import (
    SCHEMES,
    CircuitSpec,
    InitState,
    build_layout,
    injection_pattern,
    logical_operators,
    memory_pattern,
    scheme_name,
)

from conftest import assert_frozen_record, make_diagram


@pytest.mark.parametrize("d", [3, 5, 7])
def test_layout_counts(d):
    lay = build_layout(d)
    m = (d * d - 1) // 2
    assert len(lay.data_qubits) == d * d
    assert len(lay.x_plaquettes) == m
    assert len(lay.z_plaquettes) == m
    for plist in (lay.x_plaquettes, lay.z_plaquettes):
        weight2 = [p for p in plist if p.weight == 2]
        assert len(weight2) == d - 1
        assert all(p.weight in (2, 4) for p in plist)


def test_layout_d5_figure_counts():
    lay = build_layout(5)
    assert len(lay.x_plaquettes) == 12
    assert sum(1 for p in lay.x_plaquettes if p.weight == 2) == 4
    assert len(lay.z_plaquettes) == 12
    assert sum(1 for p in lay.z_plaquettes if p.weight == 2) == 4


@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_layout_rejects_bad_distance(d):
    with pytest.raises(ValueError):
        build_layout(d)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_interior_faces_covered_once_and_checkerboarded(d):
    lay = build_layout(d)
    centers = {}
    for p in lay.plaquettes:
        centers.setdefault(p.pos, []).append(p.ptype)
    for i in range(d - 1):
        for j in range(d - 1):
            types = centers[(2 * i + 1, 2 * j + 1)]
            assert len(types) == 1
            assert types[0] == ("X" if (i + j) % 2 == 0 else "Z")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_corner_qubit_touches_one_z4_and_one_x2(d):
    lay = build_layout(d)
    corner = d - 1  # (col 0, row d-1)
    touching = [p for p in lay.plaquettes if corner in p.support]
    kinds = sorted((p.ptype, p.weight) for p in touching)
    assert kinds == [("X", 2), ("Z", 4)]


@pytest.mark.parametrize("d", [3, 5])
def test_plaquettes_commute_pairwise_and_with_logicals(d):
    lay = build_layout(d)
    ops = [lay.plaquette_operator(p) for p in lay.plaquettes]
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            assert a.commutes_with(b)
    z_l, x_l, y_l = logical_operators(lay)
    for op in ops:
        assert z_l.commutes_with(op)
        assert x_l.commutes_with(op)
        assert y_l.commutes_with(op)
    assert not z_l.commutes_with(x_l)


def test_injection_pattern_d5_matches_figure():
    lay = build_layout(5)
    pattern = injection_pattern(lay)
    assert pattern[4] is InitState.Y
    zero = {q for q, s in pattern.items() if s is InitState.ZERO}
    assert zero == {9, 13, 14, 17, 18, 19, 21, 22, 23, 24}
    plus = {q for q, s in pattern.items() if s is InitState.PLUS}
    assert len(plus) == 14
    assert pattern[12] is InitState.PLUS  # on-diagonal qubit stays |+>


def test_injection_pattern_d3():
    pattern = injection_pattern(build_layout(3))
    assert pattern[2] is InitState.Y
    assert {q for q, s in pattern.items() if s is InitState.ZERO} == {5, 7, 8}
    assert {q for q, s in pattern.items() if s is InitState.PLUS} == {0, 1, 3, 4, 6}


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_injection_pattern_counts(d):
    pattern = injection_pattern(build_layout(d))
    counts = {s: sum(1 for v in pattern.values() if v is s) for s in InitState}
    assert counts[InitState.Y] == 1
    assert counts[InitState.ZERO] == d * (d - 1) // 2
    assert counts[InitState.PLUS] == d * (d + 1) // 2 - 1


def test_memory_patterns():
    lay = build_layout(3)
    assert set(memory_pattern(lay, "Z").values()) == {InitState.ZERO}
    assert set(memory_pattern(lay, "X").values()) == {InitState.PLUS}
    with pytest.raises(ValueError):
        memory_pattern(lay, "Y")
    assert scheme_name(memory_pattern(lay, "Z")) == "memory-z"
    assert scheme_name(memory_pattern(lay, "X")) == "memory-x"
    assert scheme_name(injection_pattern(lay)) == "inject-y"


@pytest.mark.parametrize("d,rounds", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_diagram_counts_closed_form(d, rounds):
    _, diag = make_diagram(d, "inject-y", rounds)
    n = d * d
    m = n - 1  # plaquettes per round over both types
    expected_nodes = n * (2 * rounds + 2) + 2 * rounds * m
    expected_edges = n * (2 * rounds + 1) + rounds * (4 * d * (d - 1) + m)
    assert len(diag.nodes) == expected_nodes
    assert len(diag.edges) == expected_edges
    stubs = [x for x in diag.nodes if x.kind is Kind.MEASURE_OUT]
    outs = [x for x in diag.nodes if x.kind is Kind.BOUNDARY_OUT]
    assert len(stubs) == rounds * m
    assert len(outs) == n
    assert validate(diag) == []


def test_diagram_d5_injection_layer_structure(inj5):
    _, diag = inj5
    spiders_by_layer = {}
    for node in diag.nodes:
        if node.kind is Kind.SPIDER:
            spiders_by_layer.setdefault(node.pos[2], []).append(node)
    assert [len(spiders_by_layer[k]) for k in sorted(spiders_by_layer)] == [25, 37, 37]
    assert sum(1 for x in diag.nodes if x.kind is Kind.MEASURE_OUT) == 24


def test_diagram_d3_memory_z_two_rounds_stub_count():
    _, diag = make_diagram(3, "memory-z", rounds=2)
    stubs = [x for x in diag.nodes if x.kind is Kind.MEASURE_OUT]
    assert len(stubs) == 16
    per_round = {}
    for s in stubs:
        per_round.setdefault(s.check_id.split(".")[0], []).append(s)
    assert {k: len(v) for k, v in per_round.items()} == {"r1": 8, "r2": 8}


def test_check_ids_unique_and_decodable(inj5):
    lay, diag = inj5
    ids = [x.check_id for x in diag.nodes if x.kind is Kind.MEASURE_OUT]
    assert len(set(ids)) == len(ids)
    plaquette_ids = {p.id for p in lay.plaquettes}
    for cid in ids:
        round_tag, pid = cid.split(".")
        assert round_tag == "r1"
        assert pid in plaquette_ids


def test_rounds_validation():
    lay = build_layout(3)
    with pytest.raises(ValueError):
        CircuitSpec(lay, injection_pattern(lay), rounds=0)
    with pytest.raises(ValueError):
        CircuitSpec(lay, {0: InitState.PLUS}, rounds=1)


def test_logical_operator_supports():
    lay = build_layout(5)
    z_l, x_l, y_l = logical_operators(lay)
    assert z_l == PauliOperator.from_dict(25, {q: "Z" for q in (4, 9, 14, 19, 24)})
    assert x_l == PauliOperator.from_dict(25, {q: "X" for q in (0, 1, 2, 3, 4)})
    assert y_l.letter(4) == "Y" and y_l.sign == 1
    assert y_l.support == {0, 1, 2, 3, 4, 9, 14, 19, 24}

    lay3 = build_layout(3)
    _, _, y3 = logical_operators(lay3)
    assert y3 == PauliOperator.from_dict(9, {2: "Y", 0: "X", 1: "X", 5: "Z", 8: "Z"})


def test_y_l_is_the_signed_product_of_its_factors():
    lay = build_layout(5)
    _, _, y_l = logical_operators(lay)
    factors = [PauliOperator.single(25, q, y_l.letter(q)) for q in sorted(y_l.support)]
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    assert prod == y_l


def test_circuit_spec_checks_rounds_and_init():
    layout = build_layout(3)
    pattern = injection_pattern(layout)
    assert CircuitSpec(layout, pattern).rounds == 1
    assert CircuitSpec(layout=layout, init=pattern, rounds=2).rounds == 2
    with pytest.raises(ValueError, match="rounds must be >= 1"):
        CircuitSpec(layout, pattern, rounds=0)
    with pytest.raises(ValueError, match="cover every data qubit"):
        CircuitSpec(layout, {q: state for q, state in pattern.items() if q != 4})


def test_surface_records_are_frozen():
    layout = build_layout(3)
    assert_frozen_record(layout, "d data_qubits x_plaquettes z_plaquettes")
    assert_frozen_record(layout.x_plaquettes[0], "id ptype support pos")
    assert_frozen_record(CircuitSpec(layout, injection_pattern(layout), 2),
                         "layout init rounds")
    assert_frozen_record(SCHEMES["inject-y"], "pattern logical")
