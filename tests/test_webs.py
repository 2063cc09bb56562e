import random

import numpy as np
import pytest

from zxwebs import gf2
from zxwebs.diagram import Color, Diagram, Node, serialize, read_webs, validate
from zxwebs.surface import correlator_boundary_condition, logical_operators, web_output_pauli
from zxwebs.verify import CheckResult, check_web_space
from zxwebs.webs import (
    Highlight,
    Infeasible,
    PauliErrorSet,
    Web,
    WebSpace,
    detectors,
    flip_parities,
    solve,
    spider_constraints,
    syndrome,
    validate_web,
    web_space,
)
from zxwebs.webs import _stub_basis_vars, _stub_priority

from conftest import assert_frozen_record, make_diagram


def dense_web(d, bits):
    """The web of a 0/1 vector over ``d``'s 2|E| variables."""
    return Web(d, gf2.BitMatrix.from_dense(bits).rows[0])


def web_bits(w):
    """The 0/1 uint8 vector of ``w`` over its diagram's 2|E| variables."""
    return gf2.BitMatrix(2 * len(w.diagram.edges), [w.mask]).to_dense()[0]


def dense_constraints(system):
    """The rule rows of ``system`` as a (rows, 2|E|) uint8 matrix."""
    return gf2.BitMatrix(2 * len(system.diagram.edges), list(system.rows)).to_dense()


def single_spider(color, phase):
    return Diagram(
        nodes=[Node.spider("s", color, phase, (0, 0, 0)),
               Node.boundary_out("o", (0, 0, 1))],
        edges=[("s", "o")],
    )


def wire_through_z():
    return Diagram(
        nodes=[Node.boundary_in("i", (0, 0, 0)),
               Node.spider("s", Color.Z, 0, (0, 0, 1)),
               Node.boundary_out("o", (0, 0, 2))],
        edges=[("i", "s"), ("s", "o")],
    )


def star_x_spider():
    """Degree-4 phase-0 X spider with four open legs."""
    legs = [Node.boundary_out(f"o{k}", (k, 1, 1)) for k in range(4)]
    return Diagram(
        nodes=[Node.spider("s", Color.X, 0, (0, 0, 0)), *legs],
        edges=[("s", f"o{k}") for k in range(4)],
    )


def test_highlight_bits_round_trip():
    for hl in Highlight:
        assert Highlight.from_bits(*hl.bits) is hl


def test_plus_state_terminates_only_x():
    d = single_spider(Color.Z, 0)
    space = web_space(d)
    assert space.dim == 1
    (w,) = space.basis
    assert w.highlight(("s", "o")) is Highlight.X
    assert validate_web(d, Web.from_edge_map(d, {("s", "o"): Highlight.Z})) == ["s"]


def test_zero_state_terminates_only_z():
    d = single_spider(Color.X, 0)
    (w,) = web_space(d).basis
    assert w.highlight(("s", "o")) is Highlight.Z


def test_y_state_terminates_only_y():
    d = single_spider(Color.Z, 1)
    space = web_space(d)
    assert space.dim == 1
    assert space.basis[0].highlight(("s", "o")) is Highlight.Y
    for bad in (Highlight.X, Highlight.Z):
        assert validate_web(d, Web.from_edge_map(d, {("s", "o"): bad})) == ["s"]


def test_wire_web_space_has_dimension_two():
    d = wire_through_z()
    space = web_space(d)
    assert space.dim == 2
    assert space.rank + space.dim == 2 * len(d.edges)
    x_through = Web.from_edge_map(d, {("i", "s"): Highlight.X, ("s", "o"): Highlight.X})
    z_through = Web.from_edge_map(d, {("i", "s"): Highlight.Z, ("s", "o"): Highlight.Z})
    assert validate_web(d, x_through) == []
    assert validate_web(d, z_through) == []
    assert validate_web(d, x_through ^ z_through) == []
    lonely = Web.from_edge_map(d, {("i", "s"): Highlight.Z})
    assert validate_web(d, lonely) == ["s"]


def test_check_cube_pattern_on_x_spider():
    d = star_x_spider()
    all_green = Web.from_edge_map(d, {("s", f"o{k}"): Highlight.Z for k in range(4)})
    assert validate_web(d, all_green) == []
    three_green = Web.from_edge_map(d, {("s", f"o{k}"): Highlight.Z for k in range(3)})
    assert validate_web(d, three_green) == ["s"]
    odd_red = Web.from_edge_map(d, {("s", "o0"): Highlight.X})
    assert validate_web(d, odd_red) == ["s"]
    paired_red = Web.from_edge_map(d, {("s", "o0"): Highlight.X, ("s", "o1"): Highlight.X})
    assert validate_web(d, paired_red) == []


def test_constraint_counts_are_deterministic(inj3):
    _, diag = inj3
    sys1 = spider_constraints(diag)
    sys2 = spider_constraints(diag)
    assert sys1.rows == sys2.rows
    assert sys1.row_spiders == sys2.row_spiders
    # one parity row per spider plus (deg-1) equality rows
    expected = sum(diag.degree(s.id) for s in diag.spiders())
    assert len(sys1.rows) == expected


def test_web_space_basis_passes_validate_web(inj3):
    _, diag = inj3
    space = web_space(diag)
    assert space.rank + space.dim == 2 * len(diag.edges)
    for w in space.basis:
        assert validate_web(diag, w) == []
    # golden numbers, frozen after the oracle cross-checks in the verify
    # suite confirmed every basis web and the detector/determinism agreement
    assert len(diag.edges) == 59
    assert (space.rank, space.dim) == (101, 17)


def test_every_single_bit_mutation_is_caught(inj3):
    lay, diag = inj3
    _, _, y_l = logical_operators(lay)
    web = solve(diag, correlator_boundary_condition(diag, y_l))
    assert isinstance(web, Web)
    for bit in range(2 * len(diag.edges)):
        mutated = Web(diag, web.mask ^ 1 << bit)
        assert validate_web(diag, mutated) != []


def test_solve_empty_bc_gives_zero_web(inj3):
    _, diag = inj3
    web = solve(diag, {})
    assert isinstance(web, Web) and web.is_zero


def test_solve_rejects_bad_legs(inj3):
    _, diag = inj3
    with pytest.raises(KeyError):
        solve(diag, {"missing-node": Highlight.X})
    with pytest.raises(ValueError, match="degree-1"):
        solve(diag, {"q0.l1": Highlight.X})


def test_y_correlator_web(inj3):
    lay, diag = inj3
    _, _, y_l = logical_operators(lay)
    web = solve(diag, correlator_boundary_condition(diag, y_l))
    assert isinstance(web, Web)
    assert validate_web(diag, web) == []
    assert web_output_pauli(diag, web) == y_l
    assert web.highlight(("q2.l0", "q2.l1")) is Highlight.Y


def test_z_only_correlator_is_infeasible_at_the_injected_spider(inj3):
    lay, diag = inj3
    z_l, _, _ = logical_operators(lay)
    result = solve(diag, correlator_boundary_condition(diag, z_l))
    assert isinstance(result, Infeasible)
    assert "q2.l0" in result.spiders


def test_orange_cube_terminates_forbidden(inj5):
    """The Z5-shaped check web over the injection init pattern is invalid:
    it lands green on three |+> initial spiders."""
    lay, diag = inj5
    support = lay.plaquette("Z5").support
    assert support == (7, 8, 12, 13)
    marks = {}
    for q in support:
        marks[(f"q{q}.l0", f"q{q}.l1")] = Highlight.Z
        marks[(f"q{q}.l1", f"q{q}.l2")] = Highlight.Z
        for p in lay.x_plaquettes:
            if q in p.support:
                marks[(f"a.r1.{p.id}", f"q{q}.l1")] = Highlight.Z
        marks[("a.r1.Z5", f"q{q}.l2")] = Highlight.Z
    marks[("a.r1.Z5", "m.r1.Z5")] = Highlight.Z
    cube = Web.from_edge_map(diag, marks)
    assert validate_web(diag, cube) == ["q7.l0", "q12.l0", "q8.l0"]


def test_same_cube_is_valid_on_memory_z(memz5):
    lay, diag = memz5
    support = lay.plaquette("Z5").support
    marks = {}
    for q in support:
        marks[(f"q{q}.l0", f"q{q}.l1")] = Highlight.Z
        marks[(f"q{q}.l1", f"q{q}.l2")] = Highlight.Z
        for p in lay.x_plaquettes:
            if q in p.support:
                marks[(f"a.r1.{p.id}", f"q{q}.l1")] = Highlight.Z
        marks[("a.r1.Z5", f"q{q}.l2")] = Highlight.Z
    marks[("a.r1.Z5", "m.r1.Z5")] = Highlight.Z
    cube = Web.from_edge_map(diag, marks)
    assert validate_web(diag, cube) == []
    assert cube.stub_set() == {"r1.Z5"}
    assert cube.boundary_restriction() == {}


def test_detectors_memory_z_d5(memz5):
    _, diag = memz5
    dets = detectors(diag)
    assert len(dets) == 12
    assert all(len(w.stub_set()) == 1 for w in dets)
    assert {next(iter(w.stub_set())) for w in dets} == {f"r1.Z{k}" for k in range(12)}
    assert all(w.boundary_restriction() == {} for w in dets)
    assert all(validate_web(diag, w) == [] for w in dets)


def test_detectors_injection_d5_match_postselection_figure(inj5):
    _, diag = inj5
    stub_sets = {next(iter(w.stub_set())) for w in detectors(diag)}
    assert stub_sets == {"r1.X0", "r1.X1", "r1.X3", "r1.X4", "r1.X6", "r1.X9",
                         "r1.Z7", "r1.Z9", "r1.Z10", "r1.Z11"}


def test_detectors_d3_memory_z_two_rounds():
    _, diag = make_diagram(3, "memory-z", rounds=2)
    dets = detectors(diag)
    stub_sets = sorted(sorted(w.stub_set()) for w in dets)
    x_cubes = [s for s in stub_sets if len(s) == 2]
    singles = [s[0] for s in stub_sets if len(s) == 1]
    assert x_cubes == [[f"r1.X{k}", f"r2.X{k}"] for k in range(4)]
    assert sorted(singles) == sorted([f"r1.Z{k}" for k in range(4)]
                                     + [f"r2.Z{k}" for k in range(4)])


def stacked_pin_detectors(d):
    """Detectors with each pinned variable a stacked unit row, as they were built before."""
    matrix = dense_constraints(spider_constraints(d))
    pinned = [2 * leg.index + offset for leg in d.boundary_legs for offset in (0, 1)]
    pinned += _stub_basis_vars(d)[0]
    units = np.zeros((len(pinned), matrix.shape[1]), dtype=np.uint8)
    units[np.arange(len(pinned)), pinned] = 1
    basis = gf2.BitMatrix(matrix.shape[1], gf2.nullspace(
        gf2.BitMatrix.from_dense(np.vstack([matrix, units]))))
    if not basis.rows:
        return []
    gf2.rref(basis, col_order=_stub_priority(d))
    return [Web(d, v) for v in basis.rows if v and Web(d, v).stub_set()]


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("scheme", ["memory-z", "memory-x", "inject-y"])
def test_detectors_pivot_on_their_first_stub(scheme, d, rounds):
    _, diag = make_diagram(d, scheme, rounds)
    dets = detectors(diag)
    assert dets == stacked_pin_detectors(diag)
    order = {leg.outer.check_id: k for k, leg in enumerate(diag.stub_legs)}
    stub_sets = [w.stub_set() for w in dets]
    for j, stubs in enumerate(stub_sets):
        first = min(stubs, key=order.__getitem__)
        assert [k for k, other in enumerate(stub_sets) if first in other] == [j]


def test_syndrome_basics(memz5):
    lay, diag = memz5
    dets = detectors(diag)
    names = [next(iter(w.stub_set())) for w in dets]
    empty = syndrome(dets, PauliErrorSet.empty())
    assert empty.dtype == np.uint8 and empty.shape == (len(dets),) and not empty.any()
    err9 = PauliErrorSet.of(diag, [(("q9.l0", "q9.l1"), "X")])
    syn = syndrome(dets, err9)
    assert [names[i] for i in np.nonzero(syn)[0]] == ["r1.Z3"]
    assert flip_parities(dets, err9) == syn.tolist()
    assert flip_parities(dets, PauliErrorSet.empty()) == [0] * len(dets)
    # Y insertion == X then Z insertions on the same edge
    y_err = PauliErrorSet.of(diag, [(("q9.l0", "q9.l1"), "Y")])
    xz_err = PauliErrorSet.of(diag, [(("q9.l0", "q9.l1"), "X"),
                                     (("q9.l0", "q9.l1"), "Z")])
    assert np.array_equal(syndrome(dets, y_err), syndrome(dets, xz_err))


def test_error_set_validation(memz5):
    _, diag = memz5
    with pytest.raises(ValueError, match="stub"):
        PauliErrorSet.of(diag, [(("a.r1.Z5", "m.r1.Z5"), "X")])
    with pytest.raises(ValueError, match="missing"):
        PauliErrorSet.of(diag, [(("q0.l0", "q99.l9"), "X")])
    with pytest.raises(ValueError, match="letter"):
        PauliErrorSet.of(diag, [(("q9.l0", "q9.l1"), "W")])


def test_error_set_len_and_iter_are_its_insertions(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("q9.l1", "q9.l0"), "X"), (("q0.l0", "q0.l1"), "Y")])
    assert len(err) == 2 and err
    assert list(err) == list(err.insertions) == [
        (diag.edge_key("q9.l0", "q9.l1"), "X"), (diag.edge_key("q0.l0", "q0.l1"), "Y")]
    empty = PauliErrorSet.empty()
    assert len(empty) == 0 and list(empty) == [] and not empty
    assert_frozen_record(err, "insertions")


def test_webs_records_are_frozen(inj3):
    layout, diag = inj3
    assert_frozen_record(spider_constraints(diag), "diagram rows row_spiders")
    assert_frozen_record(web_space(diag), "diagram basis rank")
    z_l, _, _ = logical_operators(layout)
    witness = solve(diag, correlator_boundary_condition(diag, z_l))
    assert isinstance(witness, Infeasible)
    assert_frozen_record(witness, "spiders legs")


def test_xor_linearity_seeded(inj3):
    _, diag = inj3
    basis = web_space(diag).basis
    rng = random.Random(42)
    for _ in range(300):
        acc = Web.zero(diag)
        for w in basis:
            if rng.random() < 0.5:
                acc = acc ^ w
        assert validate_web(diag, acc) == []


def test_web_document_round_trip(inj3):
    lay, diag = inj3
    _, _, y_l = logical_operators(lay)
    web = solve(diag, correlator_boundary_condition(diag, y_l))
    text = serialize(diag, webs={"y-correlator": web.to_highlights()})
    parsed = read_webs(text, diag)
    again = Web.from_highlight_names(diag, parsed["y-correlator"])
    assert again == web


# -- loop references: the per-edge readers the array ones replaced ----------


_REFERENCE_HIGHLIGHT = {(0, 0): Highlight.NONE, (1, 0): Highlight.X,
                        (0, 1): Highlight.Z, (1, 1): Highlight.Y}


def loop_highlight_map(w):
    out = {}
    bits = web_bits(w)
    for i, edge in enumerate(w.diagram.edges):
        hl = _REFERENCE_HIGHLIGHT[(int(bits[2 * i]), int(bits[2 * i + 1]))]
        if hl is not Highlight.NONE:
            out[edge] = hl
    return out


def loop_boundary_restriction(w):
    out = {}
    bits = web_bits(w)
    for leg in w.diagram.boundary_legs:
        hl = _REFERENCE_HIGHLIGHT[(int(bits[2 * leg.index]), int(bits[2 * leg.index + 1]))]
        if hl is not Highlight.NONE:
            out[leg.outer.id] = hl
    return out


def loop_syndrome(ws, err):
    bits = np.zeros(len(ws), dtype=np.uint8)
    for i, w in enumerate(ws):
        total = 0
        for edge, letter in err.insertions:
            x, z = w.x_bit(edge), w.z_bit(edge)
            if letter == "X":
                total ^= z
            elif letter == "Z":
                total ^= x
            else:
                total ^= x ^ z
        bits[i] = total
    return bits


@pytest.fixture(scope="module", params=[3, 5], ids=["d3", "d5"])
def seeded_webs(request):
    """Basis webs, detectors and seeded random combinations of an injection circuit."""
    d = request.param
    _, diag = make_diagram(d, "inject-y")
    basis = web_space(diag).basis
    rng = np.random.default_rng(d)
    combos = []
    for _ in range(20):
        acc = Web.zero(diag)
        for k in np.flatnonzero(rng.random(len(basis)) < 0.3):
            acc = acc ^ basis[k]
        combos.append(acc)
    return diag, list(basis) + detectors(diag) + combos, rng


def test_highlight_readers_match_loop_reference(seeded_webs):
    diag, ws, _ = seeded_webs
    for w in ws:
        expected = loop_highlight_map(w)
        got = w.highlight_map()
        assert list(got.items()) == list(expected.items())
        assert w.to_highlights() == {diag.edge_name(e): hl.value for e, hl in expected.items()}
        assert list(w.boundary_restriction().items()) == \
            list(loop_boundary_restriction(w).items())
        marks = ", ".join(f"{diag.edge_name(e)}:{hl.value}" for e, hl in expected.items())
        assert repr(w) == f"Web({marks})"
    assert any(w.boundary_restriction() for w in ws)


def test_syndrome_matches_loop_reference(seeded_webs):
    diag, ws, rng = seeded_webs
    stub_edges = {leg.edge for leg in diag.stub_legs}
    edges = [e for e in diag.edges if e not in stub_edges]
    letters = ["X", "Z", "Y"]
    for trial in range(40):
        k = 1 + trial % 4
        items = [(edges[rng.integers(len(edges))], letters[rng.integers(3)])
                 for _ in range(k)]
        err = PauliErrorSet.of(diag, items)
        assert np.array_equal(syndrome(ws, err), loop_syndrome(ws, err))
        assert flip_parities(ws, err) == loop_syndrome(ws, err).tolist()
    # Y insertions flip exactly the webs whose X and Z insertions flip differently
    for edge in edges[:: max(1, len(edges) // 15)]:
        y, x, z = (syndrome(ws, PauliErrorSet.of(diag, [(edge, c)])) for c in "YXZ")
        assert np.array_equal(y, x ^ z)
        assert np.array_equal(y, loop_syndrome(ws, PauliErrorSet.of(diag, [(edge, "Y")])))
    # two X insertions on one edge cancel
    edge = edges[len(edges) // 2]
    assert syndrome(ws, PauliErrorSet.of(diag, [(edge, "X")])).any()
    twice = PauliErrorSet.of(diag, [(edge, "X"), (edge, "X")])
    assert not syndrome(ws, twice).any()
    assert np.array_equal(syndrome(ws, twice), loop_syndrome(ws, twice))


# -- loop references: the per-spider rule evaluators the leg table replaced --


def loop_spider_constraints(d):
    n_vars = 2 * len(d.edges)
    rows, labels = [], []
    for s in d.spiders():
        legs = d.incident_edges(s.id)
        own = 1 if s.color is Color.Z else 0
        opp = 1 - own
        for e1, e2 in zip(legs, legs[1:]):
            row = np.zeros(n_vars, dtype=np.uint8)
            row[2 * d.edge_index(*e1) + opp] ^= 1
            row[2 * d.edge_index(*e2) + opp] ^= 1
            rows.append(row)
            labels.append(s.id)
        row = np.zeros(n_vars, dtype=np.uint8)
        for e in legs:
            row[2 * d.edge_index(*e) + own] ^= 1
        if s.phase.is_half:
            row[2 * d.edge_index(*legs[0]) + opp] ^= 1
        rows.append(row)
        labels.append(s.id)
    matrix = np.array(rows, dtype=np.uint8) if rows else np.zeros((0, n_vars), dtype=np.uint8)
    return matrix, tuple(labels)


def dense_spider_constraints(d):
    """The dense uint8 rule matrix, built as before the int rows: their referee."""
    t = d.spider_legs
    starts = np.asarray(t.starts, dtype=np.intp)
    spider = np.repeat(np.arange(len(t.spiders)), np.diff(starts))
    own = 2 * np.asarray(t.legs, dtype=np.intp) + np.asarray(t.own, dtype=np.intp)[spider]
    opp = own ^ 1
    matrix = np.zeros((len(t.legs), 2 * len(d.edges)), dtype=np.uint8)
    parity = starts[1:] - 1
    tied = np.ones(len(t.legs), dtype=bool)
    tied[parity] = False
    tied = np.flatnonzero(tied)
    matrix[tied, opp[tied]] = 1
    matrix[tied, opp[tied + 1]] = 1
    matrix[parity[spider], own] = 1
    half = np.flatnonzero(np.asarray(t.half, dtype=bool))
    matrix[parity[half], opp[starts[half]]] = 1
    return matrix


def assert_rows_match_dense_builder(d):
    system = spider_constraints(d)
    dense = dense_spider_constraints(d)
    assert list(system.rows) == gf2.BitMatrix.from_dense(dense).rows


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("scheme", ["memory-z", "memory-x", "inject-y"])
def test_int_rows_match_the_dense_builder(scheme, d, rounds):
    assert_rows_match_dense_builder(make_diagram(d, scheme, rounds)[1])


def test_int_rows_match_the_dense_builder_on_random_graphs():
    rng = np.random.default_rng(20240601)  # the generator and seed of the residual test
    for _ in range(150):
        assert_rows_match_dense_builder(random_zx_graph(rng))


def test_web_holds_one_int_and_no_dense_view(inj3):
    _, diag = inj3
    web = web_space(diag).basis[0]
    assert isinstance(web.mask, int) and dense_web(diag, web_bits(web)) == web
    assert gf2.BitMatrix.from_dense(web_bits(web)).rows == [web.mask]
    assert not hasattr(web, "bits")
    with pytest.raises(ValueError):
        Web(diag, 1 << 2 * len(diag.edges))
    with pytest.raises(ValueError):
        Web(diag, -1)


def loop_validate_web(d, w):
    bad = []
    for s in d.spiders():
        legs = d.incident_edges(s.id)
        if s.color is Color.Z:
            own_bits = [w.z_bit(e) for e in legs]
            opp_bits = [w.x_bit(e) for e in legs]
        else:
            own_bits = [w.x_bit(e) for e in legs]
            opp_bits = [w.z_bit(e) for e in legs]
        all_or_none = len(set(opp_bits)) <= 1
        expected = opp_bits[0] if (s.phase.is_half and all_or_none) else 0
        if not all_or_none or sum(own_bits) % 2 != expected:
            bad.append(s.id)
    return bad


def mixed_phase_diagram():
    """±pi/2 spiders of degree 1 and 3, a degree-1 X end and a kpi hub."""
    return Diagram(
        nodes=[Node.spider("y", Color.Z, 1, (0, 0, 0)),
               Node.spider("x", Color.X, 0, (1, 0, 0)),
               Node.spider("h", Color.X, 3, (0, 0, 1)),
               Node.spider("g", Color.Z, 2, (1, 0, 1)),
               Node.boundary_in("i", (2, 0, 0)),
               Node.boundary_out("o", (0, 0, 2)),
               Node.measure_out("m", "c0", (1, 0, 2))],
        edges=[("y", "h"), ("x", "g"), ("h", "g"), ("h", "o"), ("i", "g"), ("g", "m")],
    )


HAND_BUILT = {
    "plus": lambda: single_spider(Color.Z, 0),
    "y-state": lambda: single_spider(Color.Z, 1),
    "minus-y-x": lambda: single_spider(Color.X, 3),
    "wire": wire_through_z,
    "star": star_x_spider,
    "mixed": mixed_phase_diagram,
}
SCHEME_GRID = [(scheme, d, rounds) for scheme in ("memory-z", "memory-x", "inject-y")
               for d in (3, 5) for rounds in (1, 2)]


@pytest.fixture(scope="module", params=[*HAND_BUILT, *SCHEME_GRID],
                ids=lambda p: p if isinstance(p, str) else "{}-d{}-r{}".format(*p))
def reference_diagram(request):
    if isinstance(request.param, str):
        return HAND_BUILT[request.param]()
    return make_diagram(request.param[1], request.param[0], request.param[2])[1]


def test_spider_constraints_matches_loop_reference(reference_diagram):
    system = spider_constraints(reference_diagram)
    matrix, labels = loop_spider_constraints(reference_diagram)
    assert np.array_equal(dense_constraints(system), matrix)
    assert system.row_spiders == labels


def test_validate_web_matches_loop_reference(reference_diagram):
    d = reference_diagram
    rng = np.random.default_rng(len(d.edges))
    n_vars = 2 * len(d.edges)
    for density in (0.02, 0.2, 0.5):
        for _ in range(8):
            w = dense_web(d, rng.random(n_vars) < density)
            assert validate_web(d, w) == loop_validate_web(d, w)
    basis = web_space(d).basis
    assert basis
    for w in basis[:12]:
        assert validate_web(d, w) == loop_validate_web(d, w) == []
        for bit in rng.choice(n_vars, size=min(n_vars, 12), replace=False).tolist():
            flipped = Web(d, w.mask ^ 1 << bit)
            bad = validate_web(d, flipped)
            assert bad == loop_validate_web(d, flipped)


# -- the numpy validate_web the per-spider int masks replaced, as their referee --


def dense_validate_web(d, w):
    t = d.spider_legs
    starts = np.asarray(t.starts, dtype=np.intp)
    spider = np.repeat(np.arange(len(t.spiders)), np.diff(starts))
    own = 2 * np.asarray(t.legs, dtype=np.intp) + np.asarray(t.own, dtype=np.intp)[spider]
    bits = web_bits(w)
    # per-spider sums of the own and the opposite bits; a legless spider sums to 0
    own_lit = np.bincount(spider, bits[own], len(t.spiders))
    opp_lit = np.bincount(spider, bits[own ^ 1], len(t.spiders))
    all_or_none = (opp_lit == 0) | (opp_lit == np.diff(starts))
    bad = ~all_or_none | (own_lit % 2 != (np.asarray(t.half, dtype=bool) & (opp_lit > 0)))
    return [t.spiders[k].id for k in np.flatnonzero(bad).tolist()]


def basis_combos_and_mutants(d, rng, n_combos):
    """The web-space basis, random combinations of it, and single-bit mutants of both."""
    basis = list(web_space(d).basis)
    combos = []
    for _ in range(n_combos):
        acc = 0
        for w in basis:
            if rng.random() < 0.5:
                acc ^= w.mask
        combos.append(Web(d, acc))
    n_vars = 2 * len(d.edges)
    mutants = [Web(d, w.mask ^ 1 << int(rng.integers(n_vars))) for w in basis + combos]
    return basis + combos, mutants


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("scheme", ["memory-z", "memory-x", "inject-y"])
def test_validate_web_matches_the_dense_version(scheme, d, rounds):
    diag = make_diagram(d, scheme, rounds)[1]
    rng = np.random.default_rng(100 * d + rounds)
    valid, mutants = basis_combos_and_mutants(diag, rng, 20)
    assert all(validate_web(diag, w) == dense_validate_web(diag, w) == [] for w in valid)
    caught = 0
    for w in mutants:
        got = validate_web(diag, w)
        assert got == dense_validate_web(diag, w)
        caught += bool(got)
    assert caught > len(mutants) // 2
    assert len(diag.spider_masks) > 1  # the webs span several runs of spiders


def test_validate_web_matches_the_dense_version_on_random_graphs():
    rng = np.random.default_rng(20240601)  # the generator and seed of the residual test
    violated = 0
    for _ in range(150):
        d = random_zx_graph(rng)
        valid, mutants = basis_combos_and_mutants(d, rng, 3)
        n_vars = 2 * len(d.edges)
        noise = [dense_web(d, rng.random(n_vars) < p) for p in (0.1, 0.3, 0.5)]
        assert all(validate_web(d, w) == dense_validate_web(d, w) == [] for w in valid)
        for w in mutants + noise:
            got = validate_web(d, w)
            assert got == dense_validate_web(d, w)
            violated += bool(got)
    assert violated > 150


def loop_check_web_space(diag, space):
    n_vars = 2 * len(diag.edges)
    ok = space.rank + space.dim == n_vars
    bad = sum(1 for w in space.basis if loop_validate_web(diag, w))
    ok = ok and bad == 0
    terminations_ok = True
    for w in space.basis:
        for node in diag.spiders():
            if diag.degree(node.id) != 1:
                continue
            leg = diag.incident_edges(node.id)[0]
            x, z = w.x_bit(leg), w.z_bit(leg)
            if node.phase.is_half:
                terminations_ok &= (x == z)
            elif node.color.value == "Z":
                terminations_ok &= (z == 0)
            else:
                terminations_ok &= (x == 0)
    ok = ok and terminations_ok
    return CheckResult(
        "web-space", ok,
        f"rank {space.rank} + dim {space.dim} vs {n_vars} vars; "
        f"{bad} invalid basis webs; terminations {'ok' if terminations_ok else 'BROKEN'}")


def test_check_web_space_matches_loop_reference(reference_diagram):
    d = reference_diagram
    space = web_space(d)
    rng = np.random.default_rng(len(d.edges) + 1)
    noise = tuple(dense_web(d, rng.random(2 * len(d.edges)) < 0.3) for _ in range(6))
    for basis in (space.basis, noise, space.basis[:1] + noise[:1], ()):
        trial = WebSpace(diagram=d, basis=basis, rank=space.rank)
        assert check_web_space(d, trial) == loop_check_web_space(d, trial)
    assert check_web_space(d, space).ok


@pytest.mark.parametrize("color, phase, good, bad", [
    (Color.Z, 1, Highlight.Y, Highlight.X),
    (Color.X, 3, Highlight.Y, Highlight.Z),
    (Color.Z, 0, Highlight.X, Highlight.Z),
    (Color.X, 2, Highlight.Z, Highlight.X),
])
def test_check_web_space_flags_each_broken_termination(color, phase, good, bad):
    d = single_spider(color, phase)
    for hl, verdict in ((good, "terminations ok"), (bad, "terminations BROKEN")):
        space = WebSpace(diagram=d, basis=(Web.from_edge_map(d, {("s", "o"): hl}),), rank=1)
        result = check_web_space(d, space)
        assert result == loop_check_web_space(d, space)
        assert result.detail.endswith(verdict) and result.ok is (hl is good)


def test_legless_half_spider_is_not_a_web_violation():
    h = Node.spider("h", Color.Z, 1, (0, 0, 0))
    k = Node.spider("k", Color.Z, 0, (1, 0, 0))
    o = Node.boundary_out("o", (1, 0, 1))
    d = Diagram([h, k, o], [("k", "o")])
    assert [v.code for v in validate(d)] == ["degree"]
    assert validate_web(d, Web.zero(d)) == []
    assert validate_web(d, Web.from_edge_map(d, {("k", "o"): Highlight.X})) == []
    assert validate_web(d, Web.from_edge_map(d, {("k", "o"): Highlight.Z})) == ["k"]


def random_zx_graph(rng):
    """A valid random ZX graph: spider-spider edges, boundary legs and stubs."""
    n = int(rng.integers(1, 9))
    nodes = [Node.spider(f"s{k}", (Color.Z, Color.X)[rng.integers(2)],
                         int(rng.integers(4)), (k, 0, int(rng.integers(3))))
             for k in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < 0.4)]
    edges = [(f"s{a}", f"s{b}") for a, b in chosen]
    degree = np.zeros(n, dtype=int)
    for a, b in chosen:
        degree[a] += 1
        degree[b] += 1
    for k in range(n):
        # every spider keeps degree >= 1; some get extra open legs or stubs
        for j in range(int(degree[k] == 0) + int(rng.integers(3) == 0)):
            leg = f"b{k}.{j}"
            if rng.integers(3) == 0:
                nodes.append(Node.measure_out(leg, f"c{k}.{j}", (k, 1, 3)))
            else:
                nodes.append(Node.boundary_out(leg, (k, 1, 3)))
            edges.append((f"s{k}", leg))
    return Diagram(nodes, edges)


def test_validate_web_agrees_with_matrix_residual_on_random_graphs():
    rng = np.random.default_rng(20240601)
    checked = violated = 0
    for _ in range(150):
        d = random_zx_graph(rng)
        assert validate(d) == []
        system = spider_constraints(d)
        matrix = dense_constraints(system)
        n_vars = matrix.shape[1]
        kernel = gf2.BitMatrix(n_vars, gf2.nullspace(
            gf2.BitMatrix(n_vars, list(system.rows)))).to_dense()
        candidates = [rng.random(n_vars) < p for p in (0.1, 0.3, 0.5)]
        for _ in range(3):
            valid = (rng.random(len(kernel)) < 0.5).astype(np.uint8) @ kernel % 2
            candidates.append(valid)
            flipped = valid.copy()
            flipped[rng.integers(n_vars)] ^= 1
            candidates.append(flipped)
        for bits in candidates:
            w = dense_web(d, bits)
            residual = np.count_nonzero(matrix & web_bits(w), axis=1) % 2
            expected = {system.row_spiders[r] for r in np.flatnonzero(residual)}
            got = validate_web(d, w)
            assert set(got) == expected
            assert len(got) == len(set(got))
            checked += 1
            violated += bool(got)
    assert 0 < violated < checked
