import json

import pytest

from zxwebs.diagram import (
    Color,
    Diagram,
    DiagramError,
    DiagramParseError,
    Kind,
    Node,
    Phase,
    Violation,
    deserialize,
    export,
    read_webs,
    serialize,
    validate,
)

from conftest import assert_frozen_record, make_diagram


def minimal_y_diagram():
    """A single pi/2 Z spider with one open output leg."""
    return Diagram(
        nodes=[Node.spider("s", Color.Z, 1, (0, 0, 0)),
               Node.boundary_out("o", (0, 0, 1))],
        edges=[("s", "o")],
    )


def test_phase_predicates():
    assert Phase(1).is_half and Phase(3).is_half
    assert Phase(0).is_pi_multiple and Phase(2).is_pi_multiple
    assert Phase(5) == Phase(1)
    assert str(Phase(2)) == "π"


def test_minimal_y_diagram_is_valid():
    assert validate(minimal_y_diagram()) == []


def test_boundary_degree_two_is_one_violation():
    d = Diagram(
        nodes=[Node.spider("a", Color.Z, 0, (0, 0, 0)),
               Node.spider("b", Color.Z, 0, (1, 0, 0)),
               Node.boundary_out("o", (0, 0, 1))],
        edges=[("a", "o"), ("b", "o")],
    )
    bad = validate(d)
    assert len(bad) == 1
    assert bad[0].subject == "o" and bad[0].code == "degree"


@pytest.mark.parametrize("case", [
    "self_loop", "parallel", "bare_spider", "bad_layer",
    "spider_fields", "boundary_fields", "measure_fields", "edge_kind",
])
def test_each_violation_type_is_detected(case):
    spider = Node.spider("s", Color.Z, 0, (0, 0, 0))
    other = Node.spider("t", Color.X, 0, (1, 0, 0))
    if case == "self_loop":
        d = Diagram([spider, other], [("s", "t"), ("s", "s")])
        codes = {"self-loop"}
    elif case == "parallel":
        d = Diagram([spider, other], [("s", "t"), ("t", "s")])
        codes = {"parallel-edge"}
    elif case == "bare_spider":
        d = Diagram([spider], [])
        codes = {"degree"}
    elif case == "bad_layer":
        d = Diagram([spider, Node.boundary_out("o", (0, 0, -1))], [("s", "o")])
        codes = {"layer"}
    elif case == "spider_fields":
        broken = Node(id="s", kind=Kind.SPIDER, pos=(0, 0, 0))
        d = Diagram([broken, Node.boundary_out("o", (0, 0, 1))], [("s", "o")])
        codes = {"fields"}
    elif case == "boundary_fields":
        broken = Node(id="o", kind=Kind.BOUNDARY_OUT, pos=(0, 0, 1), color=Color.Z)
        d = Diagram([spider, broken], [("s", "o")])
        codes = {"fields"}
    elif case == "measure_fields":
        broken = Node(id="m", kind=Kind.MEASURE_OUT, pos=(0, 0, 1))
        d = Diagram([spider, broken], [("s", "m")])
        codes = {"fields"}
    else:
        d = Diagram([spider, other], [("s", "t")], edge_kinds={("s", "t"): "hadamard"})
        codes = {"edge-kind"}
    assert codes <= {v.code for v in validate(d)}


def test_construction_rejects_structural_corruption():
    spider = Node.spider("s", Color.Z, 0, (0, 0, 0))
    with pytest.raises(DiagramError, match="duplicate"):
        Diagram([spider, spider], [])
    with pytest.raises(DiagramError, match="unknown node"):
        Diagram([spider], [("s", "ghost")])


def test_construction_rejects_edge_kinds_for_absent_edges():
    s = Node.spider("s", Color.Z, 0, (0, 0, 0))
    t = Node.spider("t", Color.X, 0, (1, 0, 0))
    with pytest.raises(DiagramError, match="absent edge"):
        Diagram([s, t], [("s", "t")], edge_kinds={("s", "ghost"): "hadamard"})
    with pytest.raises(DiagramError, match="absent edge"):
        Diagram([s, t], [], edge_kinds={("s", "t"): "plain"})
    # a kind given in the other orientation names an edge that exists
    d = Diagram([s, t], [("s", "t")], edge_kinds={("t", "s"): "hadamard"})
    assert d.edge_kind("s", "t") == "hadamard"
    assert deserialize(serialize(d)) == d


def test_spider_legs_table_matches_incident_edges():
    _, diag = make_diagram(5, "inject-y")
    assert "spider_legs" not in vars(diag)  # built on first use, not with the diagram
    t = diag.spider_legs
    assert t is diag.spider_legs
    assert t.spiders == diag.spiders()
    assert t.starts[0] == 0 and t.starts[-1] == len(t.legs)
    for k, s in enumerate(t.spiders):
        legs = t.legs[t.starts[k]:t.starts[k + 1]]
        assert [diag.edges[i] for i in legs] == list(diag.incident_edges(s.id))
        assert t.own[k] == (1 if s.color is Color.Z else 0)
        assert t.half[k] == s.phase.is_half
    for field in t[1:]:
        assert isinstance(field, tuple)
        with pytest.raises(TypeError):
            field[:1] = 0


def test_spider_legs_skip_legless_spiders_and_self_loops():
    h = Node.spider("h", Color.Z, 1, (0, 0, 0))
    k = Node.spider("k", Color.X, 0, (1, 0, 0))
    o = Node.boundary_out("o", (1, 0, 1))
    t = Diagram([h, k, o], [("k", "o"), ("h", "h")]).spider_legs
    assert [s.id for s in t.spiders] == ["h", "k"]
    assert t.starts == (0, 0, 1)
    assert t.legs == (1,)
    assert t.own == (1, 0) and t.half == (True, False)


def test_round_trip_identity_and_byte_stability():
    d = minimal_y_diagram()
    text = serialize(d)
    again = deserialize(text)
    assert again == d
    assert serialize(again) == text


def test_canonical_order_is_input_independent():
    nodes = [Node.spider("s", Color.Z, 1, (0, 0, 0)),
             Node.boundary_out("o", (0, 0, 1)),
             Node.spider("t", Color.X, 0, (1, 0, 0))]
    edges = [("s", "o"), ("s", "t")]
    d1 = Diagram(nodes, edges)
    d2 = Diagram(list(reversed(nodes)), [(b, a) for a, b in reversed(edges)])
    assert d1 == d2
    assert serialize(d1) == serialize(d2)


def test_parse_errors():
    with pytest.raises(DiagramParseError, match="line"):
        deserialize("{ not json")
    with pytest.raises(DiagramParseError, match="version"):
        deserialize(json.dumps({"version": 99, "nodes": [], "edges": []}))
    bad_kind = {"version": 1, "metadata": {},
                "nodes": [{"id": "a", "kind": "wurst", "pos": [0, 0, 0]}],
                "edges": []}
    with pytest.raises(DiagramParseError, match="unknown kind"):
        deserialize(json.dumps(bad_kind))
    dangling = {"version": 1, "metadata": {}, "nodes": [], "edges": [["a", "b"]]}
    with pytest.raises(DiagramParseError, match="unknown node id"):
        deserialize(json.dumps(dangling))


_SPIDER = {"id": "s", "kind": "spider", "color": "Z", "phase": 1, "pos": [0, 0, 0]}
_OUT = {"id": "o", "kind": "out", "pos": [0, 0, 1]}


def _doc(**fields):
    doc = {"version": 1, "metadata": {}, "nodes": [_SPIDER, _OUT],
           "edges": [["s", "o"]]}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _doc(edges=[[["s"], "o"]]),
    _doc(nodes=5),
    _doc(edges=None),
    _doc(nodes=[dict(_SPIDER, id=5), _OUT], edges=[]),
    _doc(nodes=[dict(_SPIDER, phase=True), _OUT]),
    _doc(nodes=[dict(_SPIDER, pos=[0, True, 0]), _OUT]),
    _doc(edges=[["s", "o", 3]]),
    _doc(version=True),
], ids=["unhashable-endpoint", "nodes-not-list", "edges-not-list", "int-node-id",
        "bool-phase", "bool-pos", "int-edge-kind", "bool-version"])
def test_deserialize_raises_only_parse_errors(text):
    with pytest.raises(DiagramParseError):
        deserialize(text)


@pytest.mark.parametrize("text", [
    "[]",
    _doc(webs=[]),
    _doc(webs={"w": ["s--o"]}),
], ids=["top-level-not-object", "webs-not-object", "web-not-object"])
def test_read_webs_raises_only_parse_errors(text):
    with pytest.raises(DiagramParseError):
        read_webs(text, minimal_y_diagram())


def test_edge_kind_survives_round_trip_and_is_flagged():
    spider = Node.spider("s", Color.Z, 0, (0, 0, 0))
    other = Node.spider("t", Color.X, 0, (1, 0, 0))
    doc = {"version": 1, "metadata": {},
           "nodes": [{"id": "s", "kind": "spider", "color": "Z", "phase": 0,
                      "pos": [0, 0, 0]},
                     {"id": "t", "kind": "spider", "color": "X", "phase": 0,
                      "pos": [1, 0, 0]}],
           "edges": [["s", "t", "hadamard"]]}
    d = deserialize(json.dumps(doc))
    assert d.edge_kind("s", "t") == "hadamard"
    assert any(v.code == "edge-kind" for v in validate(d))
    # serialize keeps the kind, so byte equality still implies diagram equality
    text = serialize(d)
    assert json.loads(text)["edges"] == [["s", "t", "hadamard"]]
    again = deserialize(text)
    assert again == d and serialize(again) == text
    assert any(v.code == "edge-kind" for v in validate(again))
    plain_twin = Diagram([spider, other], [("s", "t")])
    assert plain_twin != d and serialize(plain_twin) != text
    assert json.loads(serialize(plain_twin))["edges"] == [["s", "t"]]
    assert Diagram([spider, other], [("s", "t")], edge_kinds={("t", "s"): "plain"}) == plain_twin


def test_injection_document_matches_figure_one(inj5):
    _, diag = inj5
    doc = json.loads(serialize(diag))
    layer0 = [n for n in doc["nodes"] if n["pos"][2] == 0]
    assert len(layer0) == 25
    assert all(n["kind"] == "spider" for n in layer0)
    greens = [n for n in layer0 if n["color"] == "Z"]
    reds = [n for n in layer0 if n["color"] == "X"]
    assert len(greens) == 15 and len(reds) == 10
    injected = [n for n in greens if n["phase"] == 1]
    assert len(injected) == 1 and injected[0]["pos"][:2] == [0, 8]


def test_export_dot_minimal():
    d = minimal_y_diagram()
    dot = export(d, fmt="dot")
    assert "π/2" in dot and "#66cc66" in dot
    decorated = export(d, {("s", "o"): "Y"}, fmt="dot")
    assert "red:green" in decorated


def test_export_rejects_foreign_edges():
    d = minimal_y_diagram()
    with pytest.raises(DiagramError, match="absent"):
        export(d, {("s", "nope"): "Y"}, fmt="dot")
    with pytest.raises(DiagramError, match="highlight"):
        export(d, {("s", "o"): "W"}, fmt="dot")
    with pytest.raises(ValueError, match="format"):
        export(d, fmt="svg")


def test_export_tikz_smoke(inj5):
    _, diag = inj5
    tikz = export(diag, fmt="tikz")
    assert "tikzpicture" in tikz and "zxgreen" in tikz and "zxred" in tikz


def test_export_tikz_with_y_correlator_web(inj5):
    from zxwebs.surface import correlator_boundary_condition, logical_operators
    from zxwebs.webs import solve

    lay, diag = inj5
    _, _, y_l = logical_operators(lay)
    web = solve(diag, correlator_boundary_condition(diag, y_l))
    marks = {e: hl.value for e, hl in web.highlight_map().items()}
    tikz = export(diag, marks, fmt="tikz")
    # both web colors drawn as thick underlays
    assert "\\draw[green,opacity=0.8" in tikz
    assert "\\draw[red,opacity=0.6" in tikz


def test_webs_embedding_round_trip():
    d = minimal_y_diagram()
    name = d.edge_name(("s", "o"))
    text = serialize(d, webs={"y": {name: "Y"}})
    assert deserialize(text) == d
    assert read_webs(text, d) == {"y": {name: "Y"}}
    assert serialize(deserialize(text), read_webs(text, d)) == text


def test_phase_reduces_mod_4_and_sorts():
    assert Phase(5) == Phase(1) and Phase(-1) == Phase(3)
    assert hash(Phase(6)) == hash(Phase(2))
    assert sorted([Phase(3), Phase(4), Phase(6)]) == [Phase(0), Phase(2), Phase(3)]
    assert Phase(1) < Phase(2) and str(Phase(7)) == "3π/2"


def test_node_takes_its_defaults_by_keyword_and_keeps_its_repr():
    node = Node(id="o", kind=Kind.BOUNDARY_OUT, pos=(0, 0, 1))
    assert (node.color, node.phase, node.check_id) == (None, None, None)
    assert node == Node.boundary_out("o", (0, 0, 1))
    assert hash(node) == hash(Node.boundary_out("o", (0, 0, 1)))
    assert repr(Node.spider("s", Color.Z, 5, (1, 2, 3))) == (
        "Node(id='s', kind=<Kind.SPIDER: 'spider'>, pos=(1, 2, 3), "
        "color=<Color.Z: 'Z'>, phase=Phase(value=1), check_id=None)")


def test_diagram_records_are_frozen(inj3):
    _, d = inj3
    assert_frozen_record(Phase(3), "value")
    assert_frozen_record(d.nodes[0], "id kind pos color phase check_id")
    assert_frozen_record(d.stub_legs[0], "edge index outer inner")
    assert_frozen_record(d.spider_legs, "spiders legs starts own half")
    assert_frozen_record(d.spider_masks[0], "lo lit spiders")
    violation = Violation("degree", "s", "spider must have degree >= 1")
    assert_frozen_record(violation, "code subject message")
    assert str(violation) == "[degree] s: spider must have degree >= 1"
