"""Rotated-surface-code layouts and the layered ZX diagrams built from them.

Geometry conventions (the single source of truth for indexing):

* data qubit index = d*col + row, with col 0 at the left and row 0 at the
  bottom; the injected-state corner is (col 0, row d-1) = index d-1.
* a candidate plaquette sits at half-integer center (i+1/2, j+1/2) for
  i, j in {-1, ..., d-1} and covers the in-grid qubits among
  {(i,j), (i+1,j), (i,j+1), (i+1,j+1)}. Interior plaquettes (weight 4)
  always exist, with X type iff i+j is even. Weight-2 boundary plaquettes
  exist only where the type matches the lattice edge: X on the top/bottom
  edges, Z on the left/right edges. Corners never host plaquettes.
* node positions use a doubled grid: qubit (c, r) at (2c, 2r), the
  plaquette above at (2i+1, 2j+1), so all coordinates stay integral.

Diagram node ids: "q{q}.l{layer}" for data spiders, "a.r{k}.{pid}" for
measurement ancillas, "m.r{k}.{pid}" for outcome stubs (check id
"r{k}.{pid}"), and "out.q{q}" for the open output legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from .diagram import Color, Diagram, DiagramError, Node, validate
from .pauli import PauliOperator
from .webs import Highlight, Web


class InitState(Enum):
    ZERO = "Zero"
    PLUS = "Plus"
    Y = "YState"


InitPattern = dict[int, InitState]


@dataclass(frozen=True)
class Plaquette:
    id: str
    ptype: str  # "X" or "Z"
    support: tuple[int, ...]
    pos: tuple[int, int]  # doubled-grid center, (2i+1, 2j+1)

    @property
    def weight(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class Layout:
    d: int
    data_qubits: tuple[tuple[int, int], ...]  # index -> (col, row)
    x_plaquettes: tuple[Plaquette, ...]
    z_plaquettes: tuple[Plaquette, ...]

    @property
    def n(self) -> int:
        return self.d * self.d

    def qubit_index(self, col: int, row: int) -> int:
        return self.d * col + row

    def qubit_pos(self, index: int) -> tuple[int, int]:
        return divmod(index, self.d)

    @property
    def plaquettes(self) -> tuple[Plaquette, ...]:
        return self.x_plaquettes + self.z_plaquettes

    def plaquette(self, pid: str) -> Plaquette:
        for p in self.plaquettes:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def plaquette_operator(self, p: Plaquette) -> PauliOperator:
        return PauliOperator.from_dict(self.n, {q: p.ptype for q in p.support})


def build_layout(d: int) -> Layout:
    """Rotated surface code of odd distance d >= 3.

    The coloring is fixed so the injection corner (col 0, row d-1) touches
    exactly one weight-4 Z plaquette and one weight-2 X boundary plaquette.
    """
    if d % 2 == 0:
        raise ValueError(f"distance must be odd, got {d}")
    if d < 3:
        raise ValueError(f"distance must be >= 3, got {d}")
    data = tuple((q // d, q % d) for q in range(d * d))
    x_list: list[Plaquette] = []
    z_list: list[Plaquette] = []
    for i in range(-1, d):
        for j in range(-1, d):
            support = tuple(
                d * c + r
                for c in (i, i + 1)
                for r in (j, j + 1)
                if 0 <= c < d and 0 <= r < d
            )
            ptype = "X" if (i + j) % 2 == 0 else "Z"
            # interiors always stay; a weight-2 boundary plaquette stays where
            # its type matches the edge (X on top/bottom); corner stumps never
            boundary_ok = len(support) == 2 and (ptype == "X") == (j in (-1, d - 1))
            if len(support) != 4 and not boundary_ok:
                continue
            target = x_list if ptype == "X" else z_list
            target.append(Plaquette(
                id=f"{ptype}{len(target)}",
                ptype=ptype,
                support=tuple(sorted(support)),
                pos=(2 * i + 1, 2 * j + 1),
            ))
    return Layout(d=d, data_qubits=data,
                  x_plaquettes=tuple(x_list), z_plaquettes=tuple(z_list))


def injection_pattern(layout: Layout) -> InitPattern:
    """Initial product state of the Y-state injection scheme.

    The corner qubit (col 0, row d-1) is the injected Y state; counting
    rows from the top (i) and columns from the left (j), qubits strictly
    above the main diagonal (j > i) start in |0>, the rest in |+>.
    """
    d = layout.d
    pattern: InitPattern = {}
    for q in range(layout.n):
        col, row = layout.qubit_pos(q)
        rows_from_top = (d - 1) - row
        if col == 0 and row == d - 1:
            pattern[q] = InitState.Y
        elif col > rows_from_top:
            pattern[q] = InitState.ZERO
        else:
            pattern[q] = InitState.PLUS
    return pattern


def memory_pattern(layout: Layout, basis: str) -> InitPattern:
    """All-|0> (basis "Z") or all-|+> (basis "X") memory initialization."""
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    state = InitState.ZERO if basis == "Z" else InitState.PLUS
    return {q: state for q in range(layout.n)}


@dataclass(frozen=True)
class CircuitSpec:
    layout: Layout
    init: InitPattern
    rounds: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if set(self.init) != set(range(self.layout.n)):
            raise ValueError("init pattern must cover every data qubit exactly once")


def scheme_name(init: InitPattern) -> str:
    states = set(init.values())
    if states == {InitState.ZERO}:
        return "memory-z"
    if states == {InitState.PLUS}:
        return "memory-x"
    if sum(1 for s in init.values() if s is InitState.Y) == 1:
        return "inject-y"
    return "custom"


_INIT_SPIDER = {
    InitState.PLUS: (Color.Z, 0),
    InitState.ZERO: (Color.X, 0),
    InitState.Y: (Color.Z, 1),
}


def build_diagram(spec: CircuitSpec) -> Diagram:
    """Layered diagram: init slice, then per round an X layer and a Z layer.

    In the X layer every data qubit supported by an X plaquette carries an
    X spider and each X plaquette a Z-spider ancilla with an outcome stub;
    the Z layer is the color dual. Data world lines run from the init
    spiders to open output legs at the top.
    """
    layout, d, rounds = spec.layout, spec.layout.d, spec.rounds
    nodes: list[Node] = []
    edges: list[tuple[str, str]] = []
    # per-qubit chain of world-line node ids, grown layer by layer
    chains: dict[int, list[str]] = {}
    for q in range(layout.n):
        c, r = layout.qubit_pos(q)
        color, phase = _INIT_SPIDER[spec.init[q]]
        nodes.append(Node.spider(f"q{q}.l0", color, phase, (2 * c, 2 * r, 0)))
        chains[q] = [f"q{q}.l0"]
    for k in range(1, rounds + 1):
        layer_plan = (
            (2 * k - 1, layout.x_plaquettes, Color.X, Color.Z),
            (2 * k, layout.z_plaquettes, Color.Z, Color.X),
        )
        for layer, plaquettes, data_color, ancilla_color in layer_plan:
            covered = sorted({q for p in plaquettes for q in p.support})
            for q in covered:
                c, r = layout.qubit_pos(q)
                node_id = f"q{q}.l{layer}"
                nodes.append(Node.spider(node_id, data_color, 0, (2 * c, 2 * r, layer)))
                chains[q].append(node_id)
            for p in plaquettes:
                check_id = f"r{k}.{p.id}"
                ancilla_id = f"a.{check_id}"
                stub_id = f"m.{check_id}"
                pos = (p.pos[0], p.pos[1], layer)
                nodes.append(Node.spider(ancilla_id, ancilla_color, 0, pos))
                nodes.append(Node.measure_out(stub_id, check_id, pos))
                edges.append((ancilla_id, stub_id))
                for q in p.support:
                    edges.append((ancilla_id, f"q{q}.l{layer}"))
    top = 2 * rounds + 1
    for q in range(layout.n):
        c, r = layout.qubit_pos(q)
        out_id = f"out.q{q}"
        nodes.append(Node.boundary_out(out_id, (2 * c, 2 * r, top)))
        chains[q].append(out_id)
        for a, b in zip(chains[q], chains[q][1:]):
            edges.append((a, b))
    diagram = Diagram(nodes, edges, metadata={
        "distance": str(d),
        "rounds": str(rounds),
        "scheme": scheme_name(spec.init),
    })
    violations = validate(diagram)
    if violations:
        raise DiagramError("builder produced an invalid diagram: "
                           + "; ".join(str(v) for v in violations))
    return diagram


def logical_operators(layout: Layout) -> tuple[PauliOperator, PauliOperator, PauliOperator]:
    """(Z_L, X_L, Y_L) through the injection corner.

    With X-type boundary plaquettes on the top/bottom edges and Z-type on
    the left/right ones, the logical Z runs along the top row and the
    logical X down column 0, both through the corner; Y_L is their product
    resolved to a signed Pauli with +Y at the corner.
    """
    d, n = layout.d, layout.n
    corner = layout.qubit_index(0, d - 1)
    top_row = [layout.qubit_index(c, d - 1) for c in range(d)]
    col0 = [layout.qubit_index(0, r) for r in range(d)]
    z_l = PauliOperator.from_dict(n, {q: "Z" for q in top_row})
    x_l = PauliOperator.from_dict(n, {q: "X" for q in col0})
    y_support = {corner: "Y"}
    y_support.update({q: "Z" for q in top_row if q != corner})
    y_support.update({q: "X" for q in col0 if q != corner})
    y_l = PauliOperator.from_dict(n, y_support)
    return z_l, x_l, y_l


def logical_operator(layout: Layout, letter: str) -> PauliOperator:
    """The logical operator named by ``letter`` ("Z", "X" or "Y")."""
    return dict(zip("ZXY", logical_operators(layout)))[letter]


class Scheme(NamedTuple):
    pattern: Callable[[Layout], InitPattern]
    logical: str  # letter of the logical operator the scheme prepares


SCHEMES = {
    "memory-z": Scheme(partial(memory_pattern, basis="Z"), "Z"),
    "memory-x": Scheme(partial(memory_pattern, basis="X"), "X"),
    "inject-y": Scheme(injection_pattern, "Y"),
}


def scheme_circuit(d: int, scheme: str,
                   rounds: int = 1) -> tuple[Layout, Diagram, PauliOperator]:
    """Layout, diagram and logical operator of a named scheme's circuit."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    layout = build_layout(d)
    pattern, letter = SCHEMES[scheme]
    diagram = build_diagram(CircuitSpec(layout, pattern(layout), rounds=rounds))
    return layout, diagram, logical_operator(layout, letter)


# -- glue between builder naming and webs/Pauli land -------------------------


def output_leg_id(q: int) -> str:
    return f"out.q{q}"


def qubit_of_output_leg(d: Diagram, leg_id: str) -> int:
    node = d.node(leg_id)
    distance = int(d.metadata["distance"])
    return distance * (node.pos[0] // 2) + node.pos[1] // 2


def correlator_boundary_condition(diag: Diagram, op: PauliOperator) -> dict[str, Highlight]:
    """Boundary condition pinning every output leg to the operator's letter.

    Legs outside the operator's support are pinned to None, so any web the
    solver returns has boundary restriction exactly ``op`` (up to sign).
    """
    return {output_leg_id(q): Highlight(op.letter(q)) for q in range(op.n)}


def web_output_pauli(diag: Diagram, web: Web) -> PauliOperator:
    """The (unsigned) Pauli a web places on the open output legs."""
    distance = int(diag.metadata["distance"])
    mapping = {qubit_of_output_leg(diag, leg_id): highlight.value
               for leg_id, highlight in web.boundary_restriction().items()}
    return PauliOperator.from_dict(distance * distance, mapping)
