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

Variables are ordered x_e, z_e per edge, edges in canonical diagram order;
a web or rule row is one :mod:`zxwebs.gf2` int row over them (bit 2e is
x_e), and every solve is a gf2 call on those rows. validate_web() reads a
web through the diagram's per-spider leg masks and flip_parities() through
one error mask, both ints; only syndrome(), which returns flip_parities()
as a uint8 array, imports numpy. Webs are unsigned supports: all sign
statements are delegated to the stabilizer oracle.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum

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
    """One highlight assignment over a diagram's edges, as the int ``mask``."""

    def __init__(self, diagram: Diagram, mask: int):
        if mask < 0 or mask >> 2 * len(diagram.edges):
            raise ValueError("web mask has bits beyond 2 * number of edges")
        self.diagram, self.mask = diagram, mask

    @classmethod
    def zero(cls, diagram: Diagram) -> "Web":
        return cls(diagram, 0)

    @classmethod
    def from_edge_map(cls, diagram: Diagram,
                      highlights: Mapping[tuple[str, str], Highlight]) -> "Web":
        mask = 0
        for edge, hl in highlights.items():
            if not diagram.has_edge(*edge):
                raise DiagramError(f"web references edge {edge!r} absent from diagram")
            var = 2 * diagram.edge_index(*edge)
            mask = mask & ~(3 << var) | _HIGHLIGHT_OF_CODE.index(hl) << var
        return cls(diagram, mask)

    @classmethod
    def from_highlight_names(cls, diagram: Diagram,
                             named: Mapping[str, str]) -> "Web":
        return cls.from_edge_map(diagram, {
            diagram.edge_from_name(name): Highlight(letter)
            for name, letter in named.items()
        })

    def x_bit(self, edge: tuple[str, str]) -> int:
        return self.mask >> 2 * self.diagram.edge_index(*edge) & 1

    def z_bit(self, edge: tuple[str, str]) -> int:
        return self.mask >> 2 * self.diagram.edge_index(*edge) + 1 & 1

    def highlight(self, edge: tuple[str, str]) -> Highlight:
        return Highlight.from_bits(self.x_bit(edge), self.z_bit(edge))

    def _lit(self, index: Sequence[int] | None = None) -> list[tuple[int, Highlight]]:
        """(position, highlight) of each highlighted edge among ``index`` (or all)."""
        codes: dict[int, int] = {}
        if index is None:
            for v in gf2.ones(self.mask):
                codes[v >> 1] = codes.get(v >> 1, 0) | 1 << (v & 1)
        else:
            codes = {k: self.mask >> 2 * i & 3 for k, i in enumerate(index)}
        return [(k, _HIGHLIGHT_OF_CODE[code]) for k, code in codes.items() if code]

    def highlight_map(self) -> dict[tuple[str, str], Highlight]:
        """Nonzero highlights keyed by canonical edge pair."""
        edges = self.diagram.edges
        return {edges[i]: hl for i, hl in self._lit()}

    def to_highlights(self) -> dict[str, str]:
        """Document form: edge name -> highlight letter (nonzero only)."""
        edges = self.diagram.edges  # canonical pairs: each name is "a--b" as is
        return {"--".join(edges[i]): hl.value for i, hl in self._lit()}

    def boundary_restriction(self) -> dict[str, Highlight]:
        """Nonzero highlights on open boundary legs, keyed by leg node id."""
        legs = self.diagram.boundary_legs
        return {legs[i].outer.id: hl for i, hl in self._lit([leg.index for leg in legs])}

    def stub_set(self) -> frozenset[str]:
        """check_ids of measurement stubs this web highlights."""
        stub_of = self.diagram.stub_index
        return frozenset(stub_of[v >> 1] for v in gf2.ones(self.mask) if v >> 1 in stub_of)

    @property
    def is_zero(self) -> bool:
        return not self.mask

    def __xor__(self, other: "Web") -> "Web":
        if other.diagram is not self.diagram and other.diagram != self.diagram:
            raise ValueError("webs belong to different diagrams")
        return Web(self.diagram, self.mask ^ other.mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Web):
            return NotImplemented
        return self.diagram == other.diagram and self.mask == other.mask

    def __repr__(self) -> str:
        marks = ", ".join(f"{self.diagram.edge_name(e)}:{hl.value}"
                          for e, hl in self.highlight_map().items())
        return f"Web({marks})"


class SpiderConstraints(namedtuple("SpiderConstraints", "diagram rows row_spiders")):
    """The per-spider highlighting rules as a homogeneous GF(2) system.

    ``rows`` holds one int row per rule, ``row_spiders`` the spider id of each.
    """

    __slots__ = ()


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
    rows: list[int] = []
    labels: list[str] = []
    for k, spider in enumerate(t.spiders):
        legs = t.legs[t.starts[k]:t.starts[k + 1]]
        # bits relative to the spider's first variable, shifted into place once
        base = 2 * legs[0]
        own = [2 * e - base + t.own[k] for e in legs]
        opp = [v ^ 1 for v in own]
        rows += [(1 << a | 1 << b) << base for a, b in zip(opp, opp[1:])]
        rows.append((sum(1 << v for v in own) | t.half[k] << opp[0]) << base)
        labels += [spider.id] * len(legs)
    return SpiderConstraints(diagram=d, rows=tuple(rows), row_spiders=tuple(labels))


def validate_web(d: Diagram, w: Web) -> list[str]:
    """Re-check every spider rule directly; returns violated spider ids.

    It reads the web's mask through ``d.spider_masks``, built from the same
    spider-leg table spider_constraints() builds its rows from, but never
    the constraint rows, so it can serve as the solver's self-test. Ids come
    in leg-table order. A spider without legs has nothing to highlight and
    is never reported; a run of spiders none of whose legs is lit is
    skipped whole.
    """
    mask, bad = w.mask, []
    for lo, lit, spiders in d.spider_masks:
        window = mask >> lo & lit
        if not window:
            continue
        for spider_id, parity, opp in spiders:
            opp_lit = window & opp
            # all or none of the legs opposite, then an even parity count
            if opp_lit and opp_lit != opp or (window & parity).bit_count() & 1:
                bad.append(spider_id)
    return bad


class WebSpace(namedtuple("WebSpace", "diagram basis rank")):
    """A GF(2) basis of all webs over one diagram; ``rank`` is the rank of
    the spider-rule system."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


def web_space(d: Diagram) -> WebSpace:
    n_vars = 2 * len(d.edges)
    basis = gf2.nullspace(gf2.BitMatrix(n_vars, list(spider_constraints(d).rows)))
    # one elimination: the rank is what the null space leaves of the variables
    return WebSpace(diagram=d, basis=tuple(Web(d, v) for v in basis),
                    rank=n_vars - len(basis))


class Infeasible(namedtuple("Infeasible", "spiders legs")):
    """Witness for an unsolvable boundary condition.

    ``spiders`` lists the spiders whose rules participate in an
    inconsistent constraint subset; ``legs`` the pinned degree-1 legs
    involved.
    """

    __slots__ = ()

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
    # one unit row per pinned variable, after the spider rules
    matrix = gf2.BitMatrix(2 * len(d.edges),
                           [*system.rows, *(1 << v for v in pin_vars + stub_vars)])
    n_rules = len(system.rows)
    solution, witness = gf2.solve_affine(
        matrix, [0] * n_rules + pin_rhs + [0] * len(stub_vars))
    if solution is None:
        legs = [leg_id for leg_id in pinned for _ in (0, 1)] + stub_labels
        return Infeasible(
            spiders=tuple(sorted({system.row_spiders[i] for i in witness if i < n_rules})),
            legs=tuple(sorted({legs[i - n_rules] for i in witness if i >= n_rules})))
    # solve_affine left ``matrix`` in RREF: this elimination has little left to do
    kernel = gf2.BitMatrix(matrix.n_cols, gf2.nullspace(matrix))
    return Web(d, gf2.lexmin_in_coset(solution, kernel, _stub_priority(d)))


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
    n_vars = 2 * len(d.edges)
    boundary_vars = [2 * leg.index + offset for leg in d.boundary_legs for offset in (0, 1)]
    stub_vars, _ = _stub_basis_vars(d)
    # pinned variables are 0 in every such web: clear their columns, so each
    # is free and its basis vector, its own unit vector, is dropped
    pinned = gf2.from_ones(boundary_vars + stub_vars, n_vars)
    kernel = gf2.nullspace(
        gf2.BitMatrix(n_vars, [row & ~pinned for row in spider_constraints(d).rows]))
    basis = gf2.BitMatrix(n_vars, [v for v in kernel if not v & pinned])
    if not basis.rows:
        return []
    gf2.rref(basis, col_order=_stub_priority(d))
    stubs = sum(3 << 2 * leg.index for leg in d.stub_legs)  # both bits of each stub edge
    return [Web(d, vec) for vec in basis.rows if vec & stubs]


class PauliErrorSet(namedtuple("PauliErrorSet", "insertions")):
    """Pauli insertions: phase-pi spiders spliced into existing edges.

    Each entry is (edge, letter) with letter in {"X", "Z", "Y"}; a Y entry
    means both an X- and a Z-type insertion on that edge. Stub edges are
    not error locations.
    """

    __slots__ = ()

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

    def __getnewargs__(self):  # for pickle and copy: tuple(self) is the insertions
        return (self.insertions,)


def flip_parities(ws: Sequence[Web], err: PauliErrorSet) -> list[int]:
    """Web-by-web flip parity of an error set: the symplectic overlap.

    An insertion with bits (x, z) flips a web carrying (x', z') on its edge
    iff x z' + z x' is odd: X flips webs carrying z, Z those carrying x, and
    Y (= X + Z) those carrying exactly one of the two. Returns one 0/1 int
    per web.
    """
    flips: dict[int, int] = {}  # per diagram, the web bits the errors flip
    parities = []
    for w in ws:
        d = w.diagram
        if id(d) not in flips:
            # checked against each web's own diagram: the errors may name foreign edges
            mask = 0
            for edge, letter in PauliErrorSet.of(d, err.insertions).insertions:
                x, z = Highlight(letter).bits
                mask ^= (z | x << 1) << 2 * d.edge_index(*edge)
            flips[id(d)] = mask
        parities.append((w.mask & flips[id(d)]).bit_count() & 1)
    return parities


def syndrome(ws: Sequence[Web], err: PauliErrorSet):
    """flip_parities() as a uint8 array; needs numpy, from the ``test`` extra."""
    import numpy as np
    return np.array(flip_parities(ws, err), dtype=np.uint8)
