"""Pauli webs as GF(2) linear algebra over a diagram's edge highlights.

Every edge e carries two bits (x_e, z_e); a highlight of X means x_e = 1,
Z means z_e = 1 and Y means both. A web is an assignment satisfying, at
every spider (own color = the spider's color, opposite = the other):

* all or none of the legs carry the opposite color, and
* the number of legs carrying the own color is even for a k*pi phase, and
  equals the shared opposite-color value mod 2 for a ±pi/2 phase (odd own
  count together with all legs opposite, or the trivial even/none option).

Degree-1 non-spider legs (open boundaries and measurement stubs) are
unconstrained by the spider rules. Measurement stubs are read in a fixed
basis, so outcome-carrying webs may only highlight a stub edge with the
measured-parity color (the ancilla's opposite color); solve() and
detectors() impose that restriction.

Variables are ordered x_e, z_e per edge, edges in canonical diagram order.
Webs are unsigned supports: all sign statements are delegated to the
stabilizer oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import gf2
from .diagram import Color, Diagram, DiagramError, Kind, validate


class Highlight(Enum):
    NONE = "I"
    X = "X"
    Z = "Z"
    Y = "Y"

    @property
    def bits(self) -> tuple[int, int]:
        code = _HIGHLIGHT_OF_CODE.index(self)
        return code & 1, code >> 1

    @classmethod
    def from_bits(cls, x: int, z: int) -> "Highlight":
        return _HIGHLIGHT_OF_CODE[(x & 1) | (z & 1) << 1]


# highlight of each 2-bit edge code x + 2 z
_HIGHLIGHT_OF_CODE = (Highlight.NONE, Highlight.X, Highlight.Z, Highlight.Y)


def stub_edges(d: Diagram) -> list[tuple[str, str]]:
    """Edges attached to measurement stubs, in canonical edge order."""
    return [leg.edge for leg in d.stub_legs]


class Web:
    """One highlight assignment over a diagram's edges."""

    def __init__(self, diagram: Diagram, bits: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8) & 1
        if bits.shape != (2 * len(diagram.edges),):
            raise ValueError("bit vector length must be 2 * number of edges")
        self.diagram = diagram
        self.bits = bits

    @classmethod
    def zero(cls, diagram: Diagram) -> "Web":
        return cls(diagram, np.zeros(2 * len(diagram.edges), dtype=np.uint8))

    @classmethod
    def from_edge_map(cls, diagram: Diagram,
                      highlights: Mapping[tuple[str, str], Highlight]) -> "Web":
        web = cls.zero(diagram)
        for edge, hl in highlights.items():
            if not diagram.has_edge(*edge):
                raise DiagramError(f"web references edge {edge!r} absent from diagram")
            var = 2 * diagram.edge_index(*edge)
            web.bits[var:var + 2] = hl.bits
        return web

    @classmethod
    def from_highlight_names(cls, diagram: Diagram,
                             named: Mapping[str, str]) -> "Web":
        return cls.from_edge_map(diagram, {
            diagram.edge_from_name(name): Highlight(letter)
            for name, letter in named.items()
        })

    def x_bit(self, edge: tuple[str, str]) -> int:
        return int(self.bits[2 * self.diagram.edge_index(*edge)])

    def z_bit(self, edge: tuple[str, str]) -> int:
        return int(self.bits[2 * self.diagram.edge_index(*edge) + 1])

    def highlight(self, edge: tuple[str, str]) -> Highlight:
        return Highlight.from_bits(self.x_bit(edge), self.z_bit(edge))

    def _lit(self, index=slice(None)):
        """(position, highlight) of each highlighted edge among ``index``, in order."""
        codes = (self.bits[0::2] | self.bits[1::2] << 1)[index]
        lit = np.flatnonzero(codes)
        return zip(lit.tolist(), [_HIGHLIGHT_OF_CODE[c] for c in codes[lit].tolist()])

    def highlight_map(self) -> dict[tuple[str, str], Highlight]:
        """Nonzero highlights keyed by canonical edge pair."""
        edges = self.diagram.edges
        return {edges[i]: hl for i, hl in self._lit()}

    def to_highlights(self) -> dict[str, str]:
        """Document form: edge name -> highlight letter (nonzero only)."""
        return {self.diagram.edge_name(e): hl.value
                for e, hl in self.highlight_map().items()}

    def boundary_restriction(self) -> dict[str, Highlight]:
        """Nonzero highlights on open boundary legs, keyed by leg node id."""
        legs = self.diagram.boundary_legs
        return {legs[i].outer.id: hl for i, hl in self._lit([leg.index for leg in legs])}

    def stub_set(self) -> frozenset[str]:
        """check_ids of measurement stubs this web highlights."""
        legs = self.diagram.stub_legs
        pairs = self.bits.reshape(-1, 2)[[leg.index for leg in legs]]
        return frozenset(legs[i].outer.check_id for i in np.flatnonzero(pairs.any(axis=1)))

    @property
    def is_zero(self) -> bool:
        return not self.bits.any()

    def __xor__(self, other: "Web") -> "Web":
        if other.diagram is not self.diagram and other.diagram != self.diagram:
            raise ValueError("webs belong to different diagrams")
        return Web(self.diagram, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Web):
            return NotImplemented
        return self.diagram == other.diagram and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        marks = ", ".join(f"{self.diagram.edge_name(e)}:{hl.value}"
                          for e, hl in self.highlight_map().items())
        return f"Web({marks})"


@dataclass(frozen=True)
class SpiderConstraints:
    """The per-spider highlighting rules as a homogeneous GF(2) system."""

    diagram: Diagram
    matrix: np.ndarray               # (rows, 2|E|) uint8
    row_spiders: tuple[str, ...]     # spider id per row


def _leg_vars(d: Diagram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spider slot, own-color variable, opposite-color variable) of every spider leg."""
    t = d.spider_legs
    spider = np.repeat(np.arange(len(t.spiders)), np.diff(t.starts))
    own = 2 * t.legs + t.own[spider]
    return spider, own, own ^ 1


def spider_constraints(d: Diagram) -> SpiderConstraints:
    """Build the rule system: all-or-none rows, then one parity row per spider.

    A spider of degree k owns k consecutive rows, one per leg of the
    spider-leg table. Rows and variables come out in canonical order, so the
    system (and everything derived from it) is reproducible across runs.
    """
    violations = validate(d)
    if violations:
        raise DiagramError("diagram is invalid: " + "; ".join(map(str, violations)))
    t = d.spider_legs
    spider, own, opp = _leg_vars(d)
    matrix = np.zeros((len(t.legs), 2 * len(d.edges)), dtype=np.uint8)
    parity = t.starts[1:] - 1
    tied = np.ones(len(t.legs), dtype=bool)
    tied[parity] = False
    tied = np.flatnonzero(tied)
    matrix[tied, opp[tied]] = 1
    matrix[tied, opp[tied + 1]] = 1
    matrix[parity[spider], own] = 1
    half = np.flatnonzero(t.half)
    matrix[parity[half], opp[t.starts[half]]] = 1
    return SpiderConstraints(diagram=d, matrix=matrix,
                             row_spiders=tuple(t.spiders[k].id for k in spider.tolist()))


def validate_web(d: Diagram, w: Web) -> list[str]:
    """Re-check every spider rule directly; returns violated spider ids.

    It reads the web's bits at the diagram's spider-leg table, the same
    incidence spider_constraints() builds its rows from, but never the
    constraint matrix, so it can serve as the solver's self-test. A spider
    without legs has nothing to highlight and is never reported.
    """
    t = d.spider_legs
    spider, own, opp = _leg_vars(d)
    # per-spider sums of the own and the opposite bits; a legless spider sums to 0
    own_lit = np.bincount(spider, w.bits[own], len(t.spiders))
    opp_lit = np.bincount(spider, w.bits[opp], len(t.spiders))
    all_or_none = (opp_lit == 0) | (opp_lit == np.diff(t.starts))
    bad = ~all_or_none | (own_lit % 2 != (t.half & (opp_lit > 0)))
    return [t.spiders[k].id for k in np.flatnonzero(bad).tolist()]


@dataclass(frozen=True)
class WebSpace:
    """A GF(2) basis of all webs over one diagram."""

    diagram: Diagram
    basis: tuple[Web, ...]
    rank: int  # rank of the spider-rule system

    @property
    def dim(self) -> int:
        return len(self.basis)


def web_space(d: Diagram) -> WebSpace:
    system = spider_constraints(d)
    rank = gf2.rank(system.matrix)
    basis = gf2.nullspace(system.matrix)
    return WebSpace(diagram=d, basis=tuple(Web(d, v) for v in basis), rank=rank)


@dataclass(frozen=True)
class Infeasible:
    """Witness for an unsolvable boundary condition.

    ``spiders`` lists the spiders whose rules participate in an
    inconsistent constraint subset; ``legs`` the pinned degree-1 legs
    involved.
    """

    spiders: tuple[str, ...]
    legs: tuple[str, ...]

    def __str__(self) -> str:
        return (f"infeasible: spiders {list(self.spiders)} with pinned legs "
                f"{list(self.legs)} form an inconsistent constraint set")


BoundaryCondition = Mapping[str, Highlight]


def _leg_index(d: Diagram, leg_id: str) -> int:
    node = d.node(leg_id)
    if node.kind is Kind.SPIDER or d.degree(leg_id) != 1:
        raise ValueError(f"{leg_id!r} is not a degree-1 non-spider leg")
    return d.edge_index(leg_id, d.neighbors(leg_id)[0])


def _stub_priority(d: Diagram) -> list[int]:
    """Variable order that prefers zeroing stub bits, then everything else."""
    stub_vars = [2 * leg.index + offset for leg in d.stub_legs for offset in (0, 1)]
    stub_set = set(stub_vars)
    rest = [v for v in range(2 * len(d.edges)) if v not in stub_set]
    return stub_vars + rest


def _stub_basis_vars(d: Diagram) -> tuple[list[int], list[str]]:
    """Each stub edge's basis-mismatched bit, pinned to zero, with its stub id.

    A stub hanging off a Z-colored ancilla belongs to an X-parity
    measurement; only the X highlight reads that outcome, so the z bit is
    pinned (and dually for X-colored ancillas).
    """
    legs = [leg for leg in d.stub_legs if leg.inner.kind is Kind.SPIDER]
    # a Z ancilla's own bit is the z bit of its (x, z) pair
    return ([2 * leg.index + int(leg.inner.color is Color.Z) for leg in legs],
            [leg.outer.id for leg in legs])


def _unit_rows(n_vars: int, variables: Sequence[int]) -> np.ndarray:
    """One constraint row per entry of ``variables``, selecting that variable."""
    rows = np.zeros((len(variables), n_vars), dtype=np.uint8)
    rows[np.arange(len(variables)), variables] = 1
    return rows


def solve(d: Diagram, bc: BoundaryCondition) -> Web | Infeasible:
    """Any web matching ``bc`` on the pinned legs, canonicalized, or a witness.

    The returned web is the lexicographically minimal member of its coset,
    with stub-edge bits given top priority, so stub sets come out as small
    as the boundary condition allows. Stub edges may only carry their
    measurement-basis color.
    """
    system = spider_constraints(d)
    pinned = sorted(bc)
    pin_vars = [2 * _leg_index(d, leg_id) + offset for leg_id in pinned for offset in (0, 1)]
    pin_rhs = [bit for leg_id in pinned for bit in bc[leg_id].bits]
    stub_vars, stub_labels = _stub_basis_vars(d)
    matrix = np.vstack([system.matrix,
                        _unit_rows(system.matrix.shape[1], pin_vars + stub_vars)])
    rhs_vec = np.zeros(len(matrix), dtype=np.uint8)
    rhs_vec[len(system.matrix):len(system.matrix) + len(pin_rhs)] = pin_rhs
    labels = ([("spider", sid) for sid in system.row_spiders]
              + [("leg", leg_id) for leg_id in pinned for _ in (0, 1)]
              + [("leg", sid) for sid in stub_labels])
    solution, witness = gf2.solve_affine(matrix, rhs_vec)
    if solution is None:
        spiders = sorted({labels[i][1] for i in witness if labels[i][0] == "spider"})
        legs = sorted({labels[i][1] for i in witness if labels[i][0] == "leg"})
        return Infeasible(spiders=tuple(spiders), legs=tuple(legs))
    kernel = gf2.nullspace(matrix)
    canonical = gf2.lexmin_in_coset(solution, kernel, _stub_priority(d))
    return Web(d, canonical)


def detectors(d: Diagram) -> list[Web]:
    """A reduced basis of outcome-only webs (empty boundary, nonempty stubs).

    The space of webs with all boundary legs unhighlighted and stub edges
    restricted to their measurement basis is row-reduced with stub bits as
    leading coordinates, giving one canonical detector per pivot stub.

    Pivot contract, when every stub hangs off a spider (so one of its two
    bits is pinned): each detector's pivot is its first stub in
    ``d.stub_legs`` order, and that stub appears in no other detector. So
    the detectors whose pivots lie in a stub set S are the only combination
    that can have stub set S.
    """
    system = spider_constraints(d)
    n_vars = system.matrix.shape[1]
    boundary_vars = [2 * leg.index + offset for leg in d.boundary_legs for offset in (0, 1)]
    stub_vars, _ = _stub_basis_vars(d)
    # pinned variables are 0 in every such web: drop their columns
    keep = np.ones(n_vars, dtype=bool)
    keep[boundary_vars + stub_vars] = False
    # compress keeps the copy C-ordered, where matrix[:, keep] would not be
    kernel = gf2.nullspace(system.matrix.compress(keep, axis=1))
    if kernel.size == 0:
        return []
    basis = np.zeros((len(kernel), n_vars), dtype=np.uint8)
    basis[:, keep] = kernel
    packed = gf2.BitMatrix.from_dense(basis)
    gf2.rref(packed, col_order=_stub_priority(d))
    reduced = packed.to_dense()
    webs = []
    for vec in reduced:
        if not vec.any():
            continue
        web = Web(d, vec)
        if web.stub_set():
            webs.append(web)
    return webs


@dataclass(frozen=True)
class PauliErrorSet:
    """Pauli insertions: phase-pi spiders spliced into existing edges.

    Each entry is (edge, letter) with letter in {"X", "Z", "Y"}; a Y entry
    means both an X- and a Z-type insertion on that edge. Stub edges are
    not error locations.
    """

    insertions: tuple[tuple[tuple[str, str], str], ...]

    @classmethod
    def of(cls, d: Diagram, items: Iterable[tuple[tuple[str, str], str]]) -> "PauliErrorSet":
        normalized = []
        stub_set = {leg.edge for leg in d.stub_legs}
        for edge, letter in items:
            if letter not in ("X", "Z", "Y"):
                raise ValueError(f"invalid error letter {letter!r}")
            if not d.has_edge(*edge):
                raise ValueError(f"error references missing edge {edge!r}")
            key = d.edge_key(*edge)
            if key in stub_set:
                raise ValueError(f"errors cannot sit on stub edge {d.edge_name(key)}")
            normalized.append((key, letter))
        return cls(tuple(normalized))

    @classmethod
    def empty(cls) -> "PauliErrorSet":
        return cls(())

    def __len__(self) -> int:
        return len(self.insertions)

    def __iter__(self) -> Iterator[tuple[tuple[str, str], str]]:
        return iter(self.insertions)


def syndrome(ws: Sequence[Web], err: PauliErrorSet) -> np.ndarray:
    """Web-by-web flip parity of an error set: the symplectic overlap.

    An insertion with bits (x, z) flips a web carrying (x', z') on its edge
    iff x z' + z x' is odd: X flips webs carrying z, Z those carrying x, and
    Y (= X + Z) those carrying exactly one of the two.
    """
    flips: dict[int, np.ndarray] = {}
    bits = np.zeros(len(ws), dtype=np.uint8)
    for i, w in enumerate(ws):
        d = w.diagram
        if id(d) not in flips:
            # checked against each web's own diagram: the errors may name foreign edges
            error_bits = np.zeros((len(d.edges), 2), dtype=int)
            for edge, letter in PauliErrorSet.of(d, err.insertions).insertions:
                error_bits[d.edge_index(*edge)] ^= Highlight(letter).bits
            flips[id(d)] = error_bits[:, ::-1].ravel().astype(np.uint8)
        bits[i] = np.count_nonzero(w.bits & flips[id(d)]) & 1
    return bits
