"""Layered ZX-diagram data model: nodes, validity checks, serialization, export.

Node kinds
----------
* spiders carry a color (Z renders green, X renders red) and a phase in
  units of pi/2,
* ``in`` / ``out`` nodes are open boundary legs (degree exactly 1),
* ``measure`` nodes are measurement-outcome stubs (degree exactly 1) and
  carry the check id of the parity measurement they belong to.

Time runs bottom-to-top: layer 0 is the initialization slice.

Document format (UTF-8 JSON), field names are fixed:

    {
      "version": 1,
      "metadata": {"distance": "5", ...},
      "nodes":  [{"id", "kind", "color"?, "phase"?, "check_id"?, "pos"}, ...],
      "edges":  [["idA", "idB"], ...],
      "webs"?:  {"name": {"idA--idB": "X"|"Z"|"Y", ...}, ...}
    }

Nodes and edges are canonically sorted, so byte equality of two canonical
documents implies diagram equality. An optional third edge entry holds an
edge kind; serialize() writes it for every non-plain edge, and anything
other than "plain" is rejected by validation.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property

DOCUMENT_VERSION = 1


class Color(str, Enum):
    Z = "Z"
    X = "X"

    @property
    def opposite(self) -> "Color":
        return Color.X if self is Color.Z else Color.Z


class Kind(str, Enum):
    SPIDER = "spider"
    BOUNDARY_IN = "in"
    BOUNDARY_OUT = "out"
    MEASURE_OUT = "measure"


BOUNDARY_KINDS = (Kind.BOUNDARY_IN, Kind.BOUNDARY_OUT)
_DEGREE_ONE_KINDS = (*BOUNDARY_KINDS, Kind.MEASURE_OUT)

_PHASE_NAMES = {0: "0", 1: "π/2", 2: "π", 3: "3π/2"}


class Phase(namedtuple("Phase", "value")):
    """A Clifford spider phase, stored as an integer multiple of pi/2 mod 4."""

    __slots__ = ()

    def __new__(cls, value: int):
        return super().__new__(cls, value % 4)

    @property
    def is_half(self) -> bool:
        """True for ±pi/2 phases (odd multiples)."""
        return self.value % 2 == 1

    @property
    def is_pi_multiple(self) -> bool:
        return self.value % 2 == 0

    def __str__(self) -> str:
        return _PHASE_NAMES[self.value]


class Node(namedtuple("Node", "id kind pos color phase check_id",
                      defaults=(None, None, None))):
    """One node: its str id, Kind, pos (col, row, layer), and the Color and
    Phase of a spider or the str check_id of a measurement stub."""

    __slots__ = ()

    @classmethod
    def spider(cls, id: str, color: Color, phase: int | Phase,
               pos: tuple[int, int, int]) -> "Node":
        if not isinstance(phase, Phase):
            phase = Phase(phase)
        return cls(id=id, kind=Kind.SPIDER, pos=pos, color=color, phase=phase)

    @classmethod
    def boundary_in(cls, id: str, pos: tuple[int, int, int]) -> "Node":
        return cls(id=id, kind=Kind.BOUNDARY_IN, pos=pos)

    @classmethod
    def boundary_out(cls, id: str, pos: tuple[int, int, int]) -> "Node":
        return cls(id=id, kind=Kind.BOUNDARY_OUT, pos=pos)

    @classmethod
    def measure_out(cls, id: str, check_id: str, pos: tuple[int, int, int]) -> "Node":
        return cls(id=id, kind=Kind.MEASURE_OUT, pos=pos, check_id=check_id)

    @property
    def sort_key(self) -> tuple:
        col, row, layer = self.pos
        return (layer, row, col, self.kind.value, self.id)


class Leg(namedtuple("Leg", "edge index outer inner")):
    """An edge touching a stub or boundary node (``outer``), with its index."""

    __slots__ = ()


class SpiderLegs(namedtuple("SpiderLegs", "spiders legs starts own half")):
    """Every spider's legs as tuples of edge indices, spiders in canonical order.

    Spider k owns ``legs[starts[k]:starts[k + 1]]``, in canonical edge
    order. ``own[k]`` is the position of its own color's bit in an (x, z)
    edge pair (1 for Z, 0 for X); ``half[k]`` flags a ±pi/2 phase.
    """

    __slots__ = ()


class SpiderMasks(namedtuple("SpiderMasks", "lo lit spiders")):
    """A run of spiders' legs as bit masks over a web's 2|E| variables.

    Bit 2e + c of a web is color c (0 for X, 1 for Z) of edge e. ``spiders``
    holds (id, parity, opp) per spider, in leg-table order. ``opp`` is the
    opposite color's bit on each of its legs. ``parity`` is its own color's
    bit on each leg, plus, for a ±pi/2 phase, the opposite bit of its last
    leg: once all or none of the opposite bits are lit, that bit is their
    shared value, which such a spider's own count must match mod 2. ``lit``
    is every bit of the run. All masks are shifted down by ``lo``.
    """

    __slots__ = ()


SPIDERS_PER_RUN = 16  # one window shift per run; 8, 16 and 32 timed alike at d=5 and d=9


class DiagramError(ValueError):
    """Structural problem that prevents building a Diagram at all."""


class DiagramParseError(ValueError):
    """Raised by deserialize() on malformed documents."""


class Violation(namedtuple("Violation", "code subject message")):
    """One invariant violation; `subject` names the offending node or edge."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


class Diagram:
    """An immutable layered ZX diagram (plain edges only).

    Nodes and edges are stored in canonical order: nodes by
    (layer, row, col, kind, id) and edges as ordered node pairs sorted the
    same way. Construction rejects only what would corrupt the data
    structure (duplicate ids, dangling edge endpoints, edge kinds for
    absent edges); everything else is reported by validate().
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[str, str]],
                 metadata: Mapping[str, str] | None = None,
                 edge_kinds: Mapping[tuple[str, str], str] | None = None):
        node_list = list(nodes)
        ids = [n.id for n in node_list]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DiagramError(f"duplicate node ids: {dupes}")
        self._by_id: dict[str, Node] = {n.id: n for n in node_list}
        for a, b in edges:
            for endpoint in (a, b):
                if endpoint not in self._by_id:
                    raise DiagramError(f"edge references unknown node {endpoint!r}")
        self.nodes: tuple[Node, ...] = tuple(sorted(node_list, key=lambda n: n.sort_key))
        self.edges: tuple[tuple[str, str], ...] = tuple(
            sorted((self.edge_key(a, b) for a, b in edges),
                   key=lambda e: (self._by_id[e[0]].sort_key, self._by_id[e[1]].sort_key))
        )
        self.metadata: dict[str, str] = dict(metadata or {})
        self._adjacency: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for a, b in self.edges:
            if a in self._adjacency and b in self._adjacency and a != b:
                self._adjacency[a].append(b)
                self._adjacency[b].append(a)
        self._edge_index: dict[tuple[str, str], int] = {
            e: i for i, e in enumerate(self.edges)
        }
        self._edge_kinds: dict[tuple[str, str], str] = {}
        for (a, b), kind in (edge_kinds or {}).items():
            if not self.has_edge(a, b):
                raise DiagramError(f"edge kind {kind!r} given for absent edge {a!r}--{b!r}")
            if kind != "plain":
                self._edge_kinds[self.edge_key(a, b)] = kind

    # -- lookups ---------------------------------------------------------

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return tuple(self._adjacency[node_id])

    def degree(self, node_id: str) -> int:
        return len(self._adjacency[node_id])

    def edge_key(self, a: str, b: str) -> tuple[str, str]:
        """Canonically ordered endpoint pair for the edge {a, b}."""
        ka = self._by_id[a].sort_key if a in self._by_id else (0, 0, 0, "", a)
        kb = self._by_id[b].sort_key if b in self._by_id else (0, 0, 0, "", b)
        return (a, b) if ka <= kb else (b, a)

    def edge_index(self, a: str, b: str) -> int:
        return self._edge_index[self.edge_key(a, b)]

    def has_edge(self, a: str, b: str) -> bool:
        return self.edge_key(a, b) in self._edge_index

    def edge_kind(self, a: str, b: str) -> str:
        return self._edge_kinds.get(self.edge_key(a, b), "plain")

    def edge_name(self, edge: tuple[str, str]) -> str:
        # the index holds canonical pairs only, so a hit needs no reordering
        edge = tuple(edge)
        a, b = edge if edge in self._edge_index else self.edge_key(*edge)
        return f"{a}--{b}"

    def edge_from_name(self, name: str) -> tuple[str, str]:
        parts = name.split("--")
        if len(parts) != 2:
            raise DiagramParseError(f"malformed edge name {name!r}")
        a, b = parts
        if not self.has_edge(a, b):
            raise DiagramParseError(f"edge {name!r} not present in diagram")
        return self.edge_key(a, b)

    def spiders(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is Kind.SPIDER)

    def _legs(self, kinds: tuple[Kind, ...]) -> tuple[Leg, ...]:
        legs = []
        for i, (a, b) in enumerate(self.edges):
            na, nb = self._by_id[a], self._by_id[b]
            if na.kind in kinds:
                legs.append(Leg((a, b), i, na, nb))
            elif nb.kind in kinds:
                legs.append(Leg((a, b), i, nb, na))
        return tuple(legs)

    @cached_property
    def stub_legs(self) -> tuple[Leg, ...]:
        """Edges touching a measurement stub, in canonical edge order."""
        return self._legs((Kind.MEASURE_OUT,))

    @cached_property
    def stub_index(self) -> dict[int, str]:
        """check_id of each stub, keyed by the index of its edge."""
        return {leg.index: leg.outer.check_id for leg in self.stub_legs}

    @cached_property
    def boundary_legs(self) -> tuple[Leg, ...]:
        """Edges touching an open boundary node, in canonical edge order."""
        return self._legs(BOUNDARY_KINDS)

    @cached_property
    def spider_legs(self) -> SpiderLegs:
        """Each spider's incident edge indices as one flat index table."""
        spiders = self.spiders()
        slot = {s.id: k for k, s in enumerate(spiders)}
        # (spider, edge index) per leg; a self-loop is no leg, as in incident_edges
        ends = sorted((slot[n], i) for i, (a, b) in enumerate(self.edges) if a != b
                      for n in (a, b) if n in slot)
        owners = [k for k, _ in ends]
        starts = tuple(bisect_left(owners, k) for k in range(len(spiders) + 1))
        return SpiderLegs(spiders, tuple(i for _, i in ends), starts,
                          tuple(int(s.color is Color.Z) for s in spiders),
                          tuple(s.phase.is_half for s in spiders))

    @cached_property
    def spider_masks(self) -> tuple[SpiderMasks, ...]:
        """The spider-leg table as web-variable masks, in runs of spiders.

        Spiders without legs are left out, so they are never read.
        """
        t = self.spider_legs
        masks = []  # (id, base, parity, opp) per spider, masks shifted down by base
        for k, s in enumerate(t.spiders):
            legs = t.legs[t.starts[k]:t.starts[k + 1]]
            if legs:
                own = [2 * (e - legs[0]) + t.own[k] for e in legs]
                parity = sum(1 << v for v in own) | t.half[k] << (own[-1] ^ 1)
                masks.append((s.id, 2 * legs[0], parity, sum(1 << (v ^ 1) for v in own)))
        runs = []
        for i in range(0, len(masks), SPIDERS_PER_RUN):
            run = masks[i:i + SPIDERS_PER_RUN]
            lo = min(base for _, base, _, _ in run)
            spiders = tuple((sid, parity << base - lo, opp << base - lo)
                            for sid, base, parity, opp in run)
            lit = 0  # spiders of one run may share an edge: OR, not sum
            for _, parity, opp in spiders:
                lit |= parity | opp
            runs.append(SpiderMasks(lo, lit, spiders))
        return tuple(runs)

    def incident_edges(self, node_id: str) -> tuple[tuple[str, str], ...]:
        """Incident edges of a node, in canonical edge order."""
        pairs = [self.edge_key(node_id, other) for other in self._adjacency[node_id]]
        pairs.sort(key=lambda e: self._edge_index[e])
        return tuple(pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.nodes == other.nodes and self.edges == other.edges
                and self.metadata == other.metadata
                and self._edge_kinds == other._edge_kinds)

    def __repr__(self) -> str:
        return (f"Diagram({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"metadata={self.metadata})")


# -- validation ------------------------------------------------------------


def validate(d: Diagram) -> list[Violation]:
    """Every invariant violation, sorted by (subject, code). Empty = valid."""
    found: list[Violation] = []
    seen_pairs: set[tuple[str, str]] = set()
    for a, b in d.edges:
        name = d.edge_name((a, b))
        if a == b:
            found.append(Violation("self-loop", name, "edge joins a node to itself"))
            continue
        pair = d.edge_key(a, b)
        if pair in seen_pairs:
            found.append(Violation("parallel-edge", name, "duplicate edge"))
        seen_pairs.add(pair)
        kind = d.edge_kind(a, b)
        if kind != "plain":
            found.append(Violation("edge-kind", name,
                                   f"unsupported edge kind {kind!r}; only plain edges are valid"))
    for n in d.nodes:
        deg = d.degree(n.id)
        if n.kind in _DEGREE_ONE_KINDS and deg != 1:
            found.append(Violation("degree", n.id,
                                   f"{n.kind.value} node must have degree 1, has {deg}"))
        if n.kind is Kind.SPIDER:
            if deg < 1:
                found.append(Violation("degree", n.id, "spider must have degree >= 1"))
            if n.color is None or n.phase is None:
                found.append(Violation("fields", n.id, "spider needs color and phase"))
        else:
            if n.color is not None or n.phase is not None:
                found.append(Violation("fields", n.id,
                                       f"{n.kind.value} node must not carry color/phase"))
        if n.kind is Kind.MEASURE_OUT and not n.check_id:
            found.append(Violation("fields", n.id, "measure node needs a check_id"))
        if n.kind is not Kind.MEASURE_OUT and n.check_id is not None:
            found.append(Violation("fields", n.id,
                                   f"{n.kind.value} node must not carry check_id"))
        if n.pos[2] < 0:
            found.append(Violation("layer", n.id, f"layer must be >= 0, got {n.pos[2]}"))
    found.sort(key=lambda v: (v.subject, v.code))
    return found


# -- serialization ----------------------------------------------------------


def _node_to_json(n: Node) -> dict:
    doc: dict = {"id": n.id, "kind": n.kind.value}
    if n.color is not None:
        doc["color"] = n.color.value
    if n.phase is not None:
        doc["phase"] = n.phase.value
    if n.check_id is not None:
        doc["check_id"] = n.check_id
    doc["pos"] = list(n.pos)
    return doc


def serialize(d: Diagram, webs: Mapping[str, Mapping[str, str]] | None = None) -> str:
    """Canonical UTF-8 document for a diagram (optionally with named webs).

    Each web is a mapping from edge name ("idA--idB") to a highlight letter
    in {"X", "Z", "Y"}.
    """
    doc: dict = {
        "version": DOCUMENT_VERSION,
        "metadata": {k: d.metadata[k] for k in sorted(d.metadata)},
        "nodes": [_node_to_json(n) for n in d.nodes],
        "edges": [[a, b] if (kind := d.edge_kind(a, b)) == "plain" else [a, b, kind]
                  for a, b in d.edges],
    }
    if webs:
        doc["webs"] = {
            name: {k: hl[k] for k in sorted(hl)} for name, hl in sorted(webs.items())
        }
    return json.dumps(doc, indent=2) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_node(entry: dict, index: int) -> Node:
    def fail(msg: str):
        raise DiagramParseError(f"nodes[{index}]: {msg}")

    if not isinstance(entry, dict):
        fail("expected an object")
    for req in ("id", "kind", "pos"):
        if req not in entry:
            fail(f"missing field {req!r}")
    if not isinstance(entry["id"], str):
        fail("id must be a string")
    kind_str = entry["kind"]
    try:
        kind = Kind(kind_str)
    except ValueError:
        fail(f"unknown kind {kind_str!r}")
    pos = entry["pos"]
    if (not isinstance(pos, list) or len(pos) != 3
            or not all(_is_int(v) for v in pos)):
        fail("pos must be a list of three integers")
    color = phase = None
    if kind is Kind.SPIDER:
        if "color" not in entry or "phase" not in entry:
            fail("spider needs color and phase")
        try:
            color = Color(entry["color"])
        except ValueError:
            fail(f"unknown color {entry['color']!r}")
        if not _is_int(entry["phase"]):
            fail("phase must be an integer (units of π/2)")
        phase = Phase(entry["phase"])
    check_id = entry.get("check_id")
    if kind is Kind.MEASURE_OUT and not isinstance(check_id, str):
        fail("measure node needs a string check_id")
    return Node(id=entry["id"], kind=kind, pos=(pos[0], pos[1], pos[2]),
                color=color, phase=phase, check_id=check_id)


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DiagramParseError("top level must be an object")
    return doc


def deserialize(text: str) -> Diagram:
    """Parse a diagram document; raises DiagramParseError with field context."""
    doc = _load_document(text)
    if not _is_int(doc.get("version")) or doc["version"] != DOCUMENT_VERSION:
        raise DiagramParseError(f"unsupported document version {doc.get('version')!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()):
        raise DiagramParseError("metadata must map strings to strings")
    node_entries, edge_entries = doc.get("nodes", []), doc.get("edges", [])
    if not isinstance(node_entries, list) or not isinstance(edge_entries, list):
        raise DiagramParseError("nodes and edges must be lists")
    nodes = [_parse_node(entry, i) for i, entry in enumerate(node_entries)]
    ids = {n.id for n in nodes}
    edges: list[tuple[str, str]] = []
    edge_kinds: dict[tuple[str, str], str] = {}
    for i, entry in enumerate(edge_entries):
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise DiagramParseError(f"edges[{i}]: expected [idA, idB] or [idA, idB, kind]")
        a, b = entry[0], entry[1]
        for endpoint in (a, b):
            if not isinstance(endpoint, str) or endpoint not in ids:
                raise DiagramParseError(f"edges[{i}]: unknown node id {endpoint!r}")
        edges.append((a, b))
        if len(entry) == 3:
            if not isinstance(entry[2], str):
                raise DiagramParseError(f"edges[{i}]: edge kind must be a string")
            edge_kinds[(a, b)] = entry[2]
    try:
        return Diagram(nodes, edges, metadata, edge_kinds)
    except DiagramError as exc:
        raise DiagramParseError(str(exc)) from exc


def read_webs(text: str, d: Diagram) -> dict[str, dict[str, str]]:
    """Extract the named webs embedded in a diagram document."""
    webs = _load_document(text).get("webs", {})
    if not isinstance(webs, dict):
        raise DiagramParseError("webs must be an object")
    out: dict[str, dict[str, str]] = {}
    for name, highlight in webs.items():
        if not isinstance(highlight, dict):
            raise DiagramParseError(f"web {name!r}: expected an object")
        parsed: dict[str, str] = {}
        for edge_name, letter in highlight.items():
            d.edge_from_name(edge_name)
            if letter not in ("X", "Z", "Y"):
                raise DiagramParseError(f"web {name!r}: bad highlight {letter!r}")
            parsed[edge_name] = letter
        out[name] = parsed
    return out


# -- rendering ---------------------------------------------------------------

_DOT_FILL = {Color.Z: "#66cc66", Color.X: "#e06060"}
_DOT_EDGE = {"Z": ' [color="green", penwidth=2.5]', "X": ' [color="red", penwidth=2.5]',
             "Y": ' [color="red:green", penwidth=2.0]'}  # Y: doubled stroke in both colors
_TIKZ_COLOR = {Color.Z: "zxgreen", Color.X: "zxred"}


def _check_highlights(d: Diagram, highlights: Mapping[tuple[str, str], str]) -> dict[tuple[str, str], str]:
    checked: dict[tuple[str, str], str] = {}
    for (a, b), letter in highlights.items():
        if not d.has_edge(a, b):
            raise DiagramError(f"web references edge {a!r}--{b!r} absent from diagram")
        if letter not in ("X", "Z", "Y"):
            raise DiagramError(f"bad highlight value {letter!r}")
        checked[d.edge_key(a, b)] = letter
    return checked


def export(d: Diagram, highlights: Mapping[tuple[str, str], str] | None = None,
           fmt: str = "dot") -> str:
    """Render the diagram (optionally web-decorated) as DOT or TikZ text.

    ``highlights`` maps edges (node-id pairs) to "X", "Z" or "Y"; Z draws
    green, X red and Y both.
    """
    marks = _check_highlights(d, highlights or {})
    if fmt == "dot":
        return _export_dot(d, marks)
    if fmt == "tikz":
        return _export_tikz(d, marks)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_dot(d: Diagram, marks: dict[tuple[str, str], str]) -> str:
    lines = ["graph zx {", "  rankdir=BT;",
             '  node [fontsize=10, fixedsize=true, width=0.35, height=0.35];']
    for n in d.nodes:
        if n.kind is Kind.SPIDER:
            label = "" if n.phase.value == 0 else str(n.phase)
            lines.append(
                f'  "{n.id}" [shape=circle, style=filled, '
                f'fillcolor="{_DOT_FILL[n.color]}", label="{label}"];'
            )
        elif n.kind is Kind.MEASURE_OUT:
            lines.append(f'  "{n.id}" [shape=box, label="{n.check_id}", width=0.7];')
        else:
            lines.append(f'  "{n.id}" [shape=point, label=""];')
    for e in d.edges:
        lines.append(f'  "{e[0]}" -- "{e[1]}"{_DOT_EDGE.get(marks.get(e), "")};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tikz_coord(pos: tuple[int, int, int]) -> str:
    col, row, layer = pos
    return f"({2 * col},{2 * row},{10 * layer})"


def _export_tikz(d: Diagram, marks: dict[tuple[str, str], str]) -> str:
    lines = [
        "% layered ZX diagram; compile with tikz-3dplot",
        "% \\tdplotsetmaincoords{70}{23}",
        "\\definecolor{zxgreen}{RGB}{102,204,102}",
        "\\definecolor{zxred}{RGB}{224,96,96}",
        "\\begin{tikzpicture}[tdplot_main_coords,every node/.style={minimum size=0.7cm}]",
    ]
    def draw(style: str, a: str, b: str) -> None:
        lines.append(f"\\draw[{style}] {_tikz_coord(d.node(a).pos)} -- "
                     f"{_tikz_coord(d.node(b).pos)};")

    # highlighted edges go underneath as thick colored strokes
    for (a, b), letter in sorted(marks.items(), key=lambda kv: d.edge_index(*kv[0])):
        if letter in ("Z", "Y"):
            draw("green,opacity=0.8,line width=0.25cm", a, b)
        if letter in ("X", "Y"):
            draw("red,opacity=0.6,line width=0.15cm", a, b)
    for a, b in d.edges:
        width = "0.15cm" if Kind.MEASURE_OUT in (d.node(a).kind, d.node(b).kind) else "0.05cm"
        draw(f"black,line width={width}", a, b)
    for i, n in enumerate(d.nodes):
        label = ""
        if n.kind is Kind.SPIDER:
            style = f"fill={_TIKZ_COLOR[n.color]},shape=circle,draw=black"
            if n.phase.value:
                label = "$" + str(n.phase).replace("π", "\\pi") + "$"
        elif n.kind is Kind.MEASURE_OUT:
            style = "shape=circle,draw=black,scale=0.3"
        else:
            style = "shape=circle,draw=gray,scale=0.2"
        lines.append(f"\\node[{style}] (n{i}) at {_tikz_coord(n.pos)} {{{label}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
