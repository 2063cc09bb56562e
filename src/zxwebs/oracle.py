"""Independent stabilizer-tableau oracle for the surface-code diagrams.

The tableau follows the Aaronson-Gottesman CHP layout: 2n generator rows
(n destabilizers then n stabilizers), each three Python ints: an X mask and
a Z mask (bit q is qubit q) and a sign bit, in the Hermitian convention
P(x,z) = i^{xz} X^x Z^z; rows multiply by XOR and :func:`phase_exponent`.
On top of the standard machinery this tableau tracks, per row, which random
measurement outcomes its sign depends on (a bitmask of "random events"),
so forced-outcome analysis can tell apart "deterministically +1" from
"determined by earlier coin flips".

Diagrams built by :mod:`zxwebs.surface` are lowered structurally (layer 0
becomes a product-state preparation, each measurement layer a list of
whole-plaquette Pauli measurements); nothing is trusted from metadata.
A diagram is lowered once into a :class:`Program`; each shot then only
places its error insertions between the program's layers.

Randomness contract: every random bit is drawn from a counter-based
generator keyed by (seed, shot index, instruction token), so shots are
reproducible and independent of execution order. A draw is the 8-byte
blake2b digest of ``f"{seed}:{shot}:{token}"``: :func:`counter_bit` takes
the low bit of its first byte, :func:`counter_unit` reads it as a big-endian
fraction of 2**64. Many draws of one shot can share :func:`shot_prefix`,
the blake2b state of ``f"{seed}:{shot}:"``, copied and updated with each
encoded token: the same keys as :func:`run`, hence the same digests. A
digest reads below a rate exactly when it is below :func:`rate_bound`'s
bytes, so such draws need no float.
"""

from __future__ import annotations

import json
import math
# hashlib's blake2b is this one; importing hashlib would also load OpenSSL
from _blake2 import blake2b
from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import combinations

from .diagram import Color, Diagram, Kind, Node
from .pauli import PauliOperator, phase_exponent
from .surface import InitPattern, InitState

# a Pauli insertion on a diagram edge: ((node, node), "X" | "Y" | "Z")
Insertion = tuple[tuple[str, str], str]


# -- counter-based randomness -------------------------------------------------


def counter_bit(seed: int, shot: int, token: str) -> int:
    """One reproducible random bit keyed by (seed, shot, token)."""
    digest = blake2b(f"{seed}:{shot}:{token}".encode(), digest_size=8).digest()
    return digest[0] & 1


def counter_unit(seed: int, shot: int, token: str) -> float:
    """One reproducible uniform float in [0, 1)."""
    digest = blake2b(f"{seed}:{shot}:{token}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def shot_prefix(seed: int, shot: int) -> blake2b:
    """The blake2b state of the keys of one shot, before their token.

    ``h = state.copy(); h.update(token.encode())`` gives in ``h.digest()``
    the digest that :func:`counter_bit` and :func:`counter_unit` draw from.
    """
    return blake2b(f"{seed}:{shot}:".encode(), digest_size=8)


def rate_bound(rate: float) -> bytes:
    """Bytes that an 8-byte digest is below exactly when its unit is below ``rate``.

    For a digest ``x`` (big-endian), ``x / 2**64 < rate`` holds for a prefix
    of the digests, as that division rounds monotonically; the bound is the
    first digest outside it, found by bisection on the same division. If
    every digest is inside (rate > 1), nine 0xff bytes sort above them all.
    """
    lo, hi = 0, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 < rate:
            lo = mid + 1
        else:
            hi = mid
    return lo.to_bytes(8, "big") if lo < 2**64 else b"\xff" * 9


# -- tableau ------------------------------------------------------------------


class MeasureResult(namedtuple("MeasureResult", "outcome deterministic aux")):
    """An outcome bit, whether it was forced, and ``aux``: the bitmask of
    random events the outcome depends on (0 = none)."""

    __slots__ = ()


class Tableau:
    """Stabilizer/destabilizer tableau with native multi-qubit Pauli measurement.

    Row r is the masks ``x[r]``, ``z[r]``, the sign bit ``signs[r]`` and ``aux[r]``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.x = [1 << q for q in range(n)] + [0] * n   # destabilizers X_q
        self.z = [0] * n + [1 << q for q in range(n)]   # stabilizers Z_q
        self.signs = [0] * (2 * n)
        self.aux = [0] * (2 * n)
        self.random_events = 0

    # -- helpers --

    def _op_masks(self, op: PauliOperator) -> tuple[int, int, int]:
        if op.n != self.n:
            raise ValueError(f"operator acts on {op.n} qubits, tableau has {self.n}")
        return op.masks

    def _anticommuting(self, x: int, z: int) -> list[int]:
        """Rows that anticommute with P(x, z), in increasing order."""
        return [r for r, rx, rz in zip(range(2 * self.n), self.x, self.z)
                if (overlap := (rx & z) ^ (rz & x)) and overlap.bit_count() & 1]

    def _rowmult(self, h: int, i: int) -> None:
        """row_h := row_i * row_h, with exact sign tracking."""
        exponent = phase_exponent(self.x[i], self.z[i], self.x[h], self.z[h])
        total = (2 * self.signs[i] + 2 * self.signs[h] + exponent) % 4
        if total % 2:
            raise AssertionError("row product is anti-Hermitian; tableau corrupted")
        self.signs[h] = total // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]
        self.aux[h] ^= self.aux[i]

    # -- operations --

    def apply_pauli(self, op: PauliOperator) -> None:
        """Conjugate the state by a Pauli: flips signs of anticommuting rows."""
        x, z, _ = self._op_masks(op)
        for r in self._anticommuting(x, z):
            self.signs[r] ^= 1

    def measure(self, op: PauliOperator, random_bit: int | None = None) -> MeasureResult:
        """Measure a (multi-qubit) Pauli, updating the state.

        If no stabilizer anticommutes the outcome is forced and returned
        with deterministic=True. Otherwise the outcome is ``random_bit``
        (which the caller must supply, enabling both seeded sampling and
        forced-outcome post-selection) and the tableau is projected.
        """
        n = self.n
        x, z, sign_bit = self._op_masks(op)
        hits = self._anticommuting(x, z)
        if hits and hits[-1] >= n:
            p = next(h for h in hits if h >= n)
            if random_bit is None:
                raise ValueError("measurement outcome is random: a random bit is required")
            for h in hits:
                if h != p and h != p - n:  # the partner destabilizer is overwritten below
                    self._rowmult(h, p)
            for row in (self.x, self.z, self.signs, self.aux):
                row[p - n] = row[p]
            event, outcome = 1 << self.random_events, random_bit & 1
            self.random_events += 1
            self.x[p], self.z[p], self.signs[p], self.aux[p] = x, z, (outcome + sign_bit) % 2, event
            return MeasureResult(outcome=outcome, deterministic=False, aux=event)
        # deterministic: express op as a product of stabilizers via destabilizers
        sx = sz = phase = aux_mask = 0
        for s in (n + j for j in hits):
            phase = (phase + 2 * self.signs[s] + phase_exponent(sx, sz, self.x[s], self.z[s])) % 4
            sx, sz, aux_mask = sx ^ self.x[s], sz ^ self.z[s], aux_mask ^ self.aux[s]
        if sx != x or sz != z or phase % 2:
            raise AssertionError("deterministic measurement did not reproduce the operator")
        outcome = (phase // 2 + sign_bit) % 2
        return MeasureResult(outcome=outcome, deterministic=True, aux=aux_mask)

    def stabilizers(self) -> list[PauliOperator]:
        return [PauliOperator.from_masks(self.n, self.x[r], self.z[r], self.signs[r])
                for r in range(self.n, 2 * self.n)]

    def check_valid(self) -> None:
        """Commutation sanity checks (debug aid); they imply full rank, as the
        rows' symplectic Gram matrix is then [[*, I], [I, 0]], invertible."""
        n = self.n
        for i in range(n, 2 * n):
            hits = self._anticommuting(self.x[i], self.z[i])
            if hits and hits[-1] >= n:
                raise AssertionError("stabilizer rows do not pairwise commute")
            if hits != [i - n]:
                raise AssertionError("destabilizer pairing broken")


def prepare(pattern: InitPattern) -> Tableau:
    """Product-state tableau for an init pattern (qubit -> Zero/Plus/YState)."""
    if not pattern:
        raise ValueError("init pattern is empty")
    n = len(pattern)
    if set(pattern) != set(range(n)):
        raise ValueError("init pattern must use contiguous qubit indices 0..n-1")
    t = Tableau(n)
    for q in range(n):
        state, bit = pattern[q], 1 << q
        if state is InitState.ZERO:
            continue  # default rows already Z_q / X_q
        if state is InitState.PLUS:
            # stabilizer X_q, destabilizer Z_q
            t.x[n + q], t.z[n + q] = bit, 0
        elif state is InitState.Y:
            # stabilizer Y_q, destabilizer Z_q
            t.x[n + q], t.z[n + q] = bit, bit
        else:
            raise ValueError(f"unknown init state {state!r}")
        t.x[q], t.z[q] = 0, bit
    return t


def canonical_group(n: int, generators: Iterable[PauliOperator]) -> tuple[PauliOperator, ...]:
    """Canonical generating set of a stabilizer group (RREF with signs).

    Two generator lists describe the same group iff their canonical forms
    are equal. Raises if two generators anticommute or if the generators
    are inconsistent (-I in the group).
    """
    rows: list[tuple[int, int, int]] = []
    for op in generators:
        if op.n != n:
            raise ValueError("generator qubit count mismatch")
        rows.append(op.masks)
    if any(((xa & zb) ^ (za & xb)).bit_count() & 1
           for (xa, za, _), (xb, zb, _) in combinations(rows, 2)):
        raise ValueError("generators do not commute")

    def mul(a, b):  # commuting Hermitian factors: the exponent is even
        exponent = (2 * a[2] + 2 * b[2] + phase_exponent(a[0], a[1], b[0], b[1])) % 4
        return (a[0] ^ b[0], a[1] ^ b[1], exponent // 2)

    r = 0
    for col in range(2 * n):
        part, bit = (0, 1 << col) if col < n else (1, 1 << (col - n))
        pivot = next((k for k in range(r, len(rows)) if rows[k][part] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][part] & bit:
                rows[k] = mul(rows[r], rows[k])
        r += 1
    out = []
    for x, z, sign in rows:
        if not x and not z:
            if sign:
                raise ValueError("-identity generated; inconsistent generator set")
            continue
        out.append(PauliOperator.from_masks(n, x, z, sign))
    return tuple(out)


def canonical_stabilizer_group(t: Tableau) -> tuple[PauliOperator, ...]:
    return canonical_group(t.n, t.stabilizers())


# -- diagram lowering ---------------------------------------------------------


class LoweringError(ValueError):
    """The diagram does not have the recognizable builder layer structure."""


class CheckInfo(namedtuple("CheckInfo", "check_id layer round ptype support pos")):
    __slots__ = ()


class DiagramStructure(namedtuple("DiagramStructure", "distance rounds init checks "
                                  "world_nodes edge_slots")):
    """Structural reading of a builder diagram (qubits, layers, checks).

    ``init`` maps qubit -> InitState, ``checks`` are CheckInfos in
    measurement order, ``world_nodes`` maps qubit -> its world line's node
    ids, and ``edge_slots`` maps edge -> (qubit, after_layer).
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.distance * self.distance

    def world_edges(self, qubit: int) -> list[tuple[str, str]]:
        chain = self.world_nodes[qubit]
        return [(a, b) for a, b in zip(chain, chain[1:])]


_INIT_OF_SPIDER = {
    (Color.Z, 0): InitState.PLUS,
    (Color.X, 0): InitState.ZERO,
    (Color.Z, 1): InitState.Y,
}


def diagram_structure(d: Diagram) -> DiagramStructure:
    """Parse a builder diagram into qubits, world lines and plaquette checks."""
    by_layer: dict[int, list[Node]] = {}
    for node in d.nodes:
        by_layer.setdefault(node.pos[2], []).append(node)
    if 0 not in by_layer:
        raise LoweringError("no layer-0 initialization slice")
    init_nodes = [n for n in by_layer[0] if n.kind is Kind.SPIDER]
    if len(init_nodes) != len(by_layer[0]):
        raise LoweringError("layer 0 must contain only init spiders")
    n_qubits = len(init_nodes)
    distance = math.isqrt(n_qubits)
    if distance * distance != n_qubits or distance < 3:
        raise LoweringError(f"layer 0 has {n_qubits} spiders; expected an odd square >= 9")
    grid = {(2 * c, 2 * r) for c in range(distance) for r in range(distance)}
    if {(n.pos[0], n.pos[1]) for n in init_nodes} != grid:
        raise LoweringError("init spiders do not fill the doubled data-qubit grid")

    def qubit_at(node: Node) -> int:
        return distance * (node.pos[0] // 2) + node.pos[1] // 2

    init: dict[int, InitState] = {}
    for node in init_nodes:
        key = (node.color, node.phase.value)
        if key not in _INIT_OF_SPIDER:
            raise LoweringError(f"init spider {node.id} has unsupported color/phase {key}")
        init[qubit_at(node)] = _INIT_OF_SPIDER[key]

    top_layer = max(by_layer)
    meas_layers = sorted(layer for layer in by_layer if 0 < layer < top_layer)
    if meas_layers != list(range(1, top_layer)) or (top_layer - 1) % 2 != 0:
        raise LoweringError("measurement layers must be 1..2*rounds with outputs above")
    rounds = (top_layer - 1) // 2

    checks: list[CheckInfo] = []
    world_members: dict[int, list[Node]] = {}
    for node in init_nodes:
        world_members[qubit_at(node)] = [node]
    for layer in meas_layers:
        is_x_layer = layer % 2 == 1
        data_color = Color.X if is_x_layer else Color.Z
        ancilla_color = data_color.opposite
        round_no = (layer + 1) // 2
        layer_checks = []
        for node in by_layer[layer]:
            if node.kind is Kind.MEASURE_OUT:
                continue
            if node.kind is not Kind.SPIDER:
                raise LoweringError(f"unexpected {node.kind.value} node {node.id} in layer {layer}")
            if (node.pos[0], node.pos[1]) in grid:
                if node.color is not data_color or node.phase.value != 0:
                    raise LoweringError(f"data spider {node.id} has wrong color/phase for its layer")
                world_members[qubit_at(node)].append(node)
                continue
            if node.color is not ancilla_color or node.phase.value != 0:
                raise LoweringError(f"ancilla {node.id} has wrong color/phase for its layer")
            stub = [m for m in map(d.node, d.neighbors(node.id))
                    if m.kind is Kind.MEASURE_OUT]
            if len(stub) != 1:
                raise LoweringError(f"ancilla {node.id} needs exactly one outcome stub")
            support = []
            for other in map(d.node, d.neighbors(node.id)):
                if other.kind is Kind.MEASURE_OUT:
                    continue
                if other.pos[2] != layer or (other.pos[0], other.pos[1]) not in grid:
                    raise LoweringError(f"ancilla {node.id} connects outside its layer")
                support.append(qubit_at(other))
            layer_checks.append(CheckInfo(
                check_id=stub[0].check_id, layer=layer, round=round_no,
                ptype="X" if is_x_layer else "Z",
                support=tuple(sorted(support)),
                pos=(node.pos[0], node.pos[1]),
            ))
        layer_checks.sort(key=lambda c: c.pos)
        checks.extend(layer_checks)

    world_nodes: dict[int, tuple[str, ...]] = {}
    edge_slots: dict[tuple[str, str], tuple[int, int]] = {}
    outs = [n for n in by_layer[top_layer]]
    if len(outs) != n_qubits or any(n.kind is not Kind.BOUNDARY_OUT for n in outs):
        raise LoweringError("top layer must hold exactly one output leg per data qubit")
    out_of: dict[int, Node] = {qubit_at(n): n for n in outs}
    for q in range(n_qubits):
        chain = sorted(world_members[q], key=lambda m: m.pos[2])
        members = [m.id for m in chain] + [out_of[q].id]
        for a, b in zip(members, members[1:]):
            if not d.has_edge(a, b):
                raise LoweringError(f"world line of qubit {q} broken between {a} and {b}")
            low = min(d.node(a).pos[2], d.node(b).pos[2])
            edge_slots[d.edge_key(a, b)] = (q, low)
        world_nodes[q] = tuple(members)
    return DiagramStructure(distance=distance, rounds=rounds, init=init,
                            checks=tuple(checks), world_nodes=world_nodes,
                            edge_slots=edge_slots)


# -- instruction stream -------------------------------------------------------


class Prepare(namedtuple("Prepare", "pattern")):  # ((qubit, InitState), ...)
    __slots__ = ()


class ApplyPauli(namedtuple("ApplyPauli", "qubit letter")):
    __slots__ = ()


class MeasureCheck(namedtuple("MeasureCheck", "check_id op")):  # op: PauliOperator
    __slots__ = ()


Instruction = Prepare | ApplyPauli | MeasureCheck


class Program(namedtuple("Program", "diagram structure layers")):
    """A diagram lowered once: its structure and the error-free measurements.

    ``layers[k - 1]`` holds layer k's MeasureChecks, in order.
    """

    __slots__ = ()

    def instructions(self, errors: Iterable[Insertion] = ()) -> list[Instruction]:
        """Instruction stream: prepare, then whole-plaquette measurements in order.

        ``errors`` are (edge, letter) insertions, such as a
        :class:`zxwebs.webs.PauliErrorSet`. Each is placed right after the
        measurements of the layer below its edge (layer 0 inserts immediately
        after preparation). Errors on non-world-line edges are not
        representable and are rejected.
        """
        d, edge_slots = self.diagram, self.structure.edge_slots
        slots: dict[int, list[ApplyPauli]] = {}
        for edge, letter in errors:
            key = d.edge_key(*edge)
            if key not in edge_slots:
                raise LoweringError(
                    f"error on {d.edge_name(key)} is not on a data world line")
            q, after_layer = edge_slots[key]
            slots.setdefault(after_layer, []).append(ApplyPauli(qubit=q, letter=letter))
        for pending in slots.values():
            pending.sort(key=lambda a: (a.qubit, a.letter))
        instrs: list[Instruction] = [
            Prepare(pattern=tuple(sorted(self.structure.init.items())))
        ]
        instrs.extend(slots.get(0, []))
        for layer, checks in enumerate(self.layers, 1):
            instrs.extend(checks)
            instrs.extend(slots.get(layer, []))
        return instrs


def lower(d: Diagram) -> Program:
    """Read the diagram's structure and build its measurements, once."""
    structure = diagram_structure(d)
    layers: list[list[MeasureCheck]] = [[] for _ in range(2 * structure.rounds)]
    for check in structure.checks:
        op = PauliOperator.from_dict(structure.n, {q: check.ptype for q in check.support})
        layers[check.layer - 1].append(MeasureCheck(check_id=check.check_id, op=op))
    return Program(diagram=d, structure=structure,
                   layers=tuple(map(tuple, layers)))


# -- shots --------------------------------------------------------------------


class ShotRecord(namedtuple("ShotRecord", "outcomes forced accepted logical_y",
                            defaults=(None, None))):
    """Outcome record of one oracle execution.

    ``outcomes`` and ``forced`` map check_id to its bit and to whether it
    was forced; ``accepted`` and ``logical_y`` stay None unless asked for.
    """

    __slots__ = ()

    def to_json(self) -> str:
        doc = {
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "forced": {k: self.forced[k] for k in sorted(self.forced)},
            "accepted": self.accepted,
            "logical_y": self.logical_y,
        }
        return json.dumps(doc, separators=(",", ":"))


def run(program: Program, errors: Iterable[Insertion] = (), *, seed: int = 0,
        shot: int = 0, postselect: Iterable[str] | None = None,
        measure_logical: PauliOperator | None = None,
        forced_outcomes: Mapping[str, int] | None = None) -> ShotRecord:
    """Execute one shot of a lowered diagram.

    ``postselect`` names check_ids that must all return +1 (bit 0) for the
    shot to be accepted. ``forced_outcomes`` pins the named random
    measurements to given bits (conditioning, for determinism analysis);
    everything else draws from the counter-based generator.
    """
    forced_outcomes = dict(forced_outcomes or {})
    outcomes: dict[str, int] = {}
    forced: dict[str, bool] = {}
    tableau: Tableau | None = None
    for index, instr in enumerate(program.instructions(errors)):
        if isinstance(instr, Prepare):
            tableau = prepare(dict(instr.pattern))
        elif isinstance(instr, ApplyPauli):
            tableau.apply_pauli(PauliOperator.single(tableau.n, instr.qubit, instr.letter))
        else:
            bit = forced_outcomes.get(instr.check_id)
            if bit is None:
                bit = counter_bit(seed, shot, f"m{index}")
            result = tableau.measure(instr.op, random_bit=bit)
            outcomes[instr.check_id] = result.outcome
            forced[instr.check_id] = result.deterministic
    accepted: bool | None = None
    if postselect is not None:
        wanted = list(postselect)
        unknown = sorted(set(wanted) - set(outcomes))
        if unknown:
            raise ValueError(f"unknown check ids in postselect set: {unknown}")
        accepted = all(outcomes[c] == 0 for c in wanted)
    logical_y: int | None = None
    if measure_logical is not None:
        result = tableau.measure(measure_logical,
                                 random_bit=counter_bit(seed, shot, "logical"))
        logical_y = result.outcome
    return ShotRecord(outcomes=outcomes, forced=forced,
                      accepted=accepted, logical_y=logical_y)


class CheckStep(namedtuple("CheckStep", "check_id position result")):
    """One check of the error-free circuit as a walk with every coin 0 saw it.

    ``position`` is its index in the error-free instruction stream;
    ``result`` its MeasureResult with every coin 0: outcome, forced or
    random, aux.
    """

    __slots__ = ()


class Walk(namedtuple("Walk", "checks logical", defaults=(None,))):
    """The error-free circuit executed once, every random outcome set to 0.

    Which measurements are random, and which random events a forced outcome
    depends on, follow from the X/Z parts of the tableau alone. Pauli errors
    and coins only change signs, so they are the same in every shot; a
    forced outcome is ``result.outcome`` XOR the coins of the events in its
    ``aux`` mask, XOR whatever the errors flip. ``checks`` holds the
    CheckSteps in measurement order; ``logical``, if not None, is the
    MeasureResult of the logical, measured after the last check.
    """

    __slots__ = ()

    @property
    def events(self) -> tuple[str, ...]:
        """check_id of each random event: bit k of an aux mask is events[k]."""
        return tuple(step.check_id for step in self.checks
                     if not step.result.deterministic)


def walk(program: Program, measure_logical: PauliOperator | None = None) -> Walk:
    """Walk the error-free circuit once with every coin 0 (see :class:`Walk`)."""
    tableau: Tableau | None = None
    steps: list[CheckStep] = []
    for index, instr in enumerate(program.instructions()):
        if isinstance(instr, Prepare):
            tableau = prepare(dict(instr.pattern))
        else:  # an error-free stream holds only measurements after Prepare
            steps.append(CheckStep(instr.check_id, index,
                                   tableau.measure(instr.op, random_bit=0)))
    logical = None
    if measure_logical is not None:
        logical = tableau.measure(measure_logical, random_bit=0)
    return Walk(checks=tuple(steps), logical=logical)


def deterministic_checks(source: Program | Walk) -> frozenset[str]:
    """check_ids whose error-free outcome is forced to +1 regardless of coins.

    A filter over :func:`walk` (walked here if a Program is given): a check
    qualifies iff its outcome is deterministic and independent of every
    random-event bit (so repeats that merely echo an earlier coin flip do
    not qualify).
    """
    steps = (source if isinstance(source, Walk) else walk(source)).checks
    out: set[str] = set()
    for step in steps:
        if step.result.deterministic and step.result.aux == 0:
            if step.result.outcome != 0:
                raise AssertionError(
                    f"error-free deterministic check {step.check_id} returned -1")
            out.add(step.check_id)
    return frozenset(out)
