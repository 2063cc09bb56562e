"""Web-linear outcome model: sampled shots without a tableau per shot.

The sampler's errors are Pauli insertions on each data world line right
above its preparation, so they act on the prepared product state before any
measurement. A Pauli only flips tableau signs, so one walk of the error-free
circuit with every coin 0 (:func:`oracle.walk`) tells, for every check and
for the logical, whether it is random, which random checks a forced outcome
depends on (its ``aux`` mask) and its base outcome. Every outcome is then
affine in the shot's coins and error bits:

* a random check's outcome is its coin;
* a forced check's outcome is its base outcome, XOR the coins of its aux
  checks, XOR the syndrome of the detector web whose stub set is the check
  plus its aux checks;
* the logical is the same with the correlator web in place of the detector
  web, or its own coin when it is random.

The syndromes are read where the errors sit: an X error flips a web that
carries z on the edge above the qubit's preparation, a Z error one that
carries x, a Y error one that carries exactly one of them. The webs come
from :mod:`zxwebs.webs`; the tableau gives only signs and coin masks.

The detector web for a stub set is a combination of the reduced detector
basis, read off its pivots: each detector's first stub appears in no other
detector (:func:`webs.detectors`), so the detectors whose first stubs lie in
the set are the only candidates. The model raises :class:`ModelError`
unless their stub sets XOR to the wanted one; it never guesses.

The model holds each outcome as one bit of an int over the outputs, with
an int column per coin and per error bit; a shot XORs the columns of its
drawn errors and 1-coins into the base, so sampling needs no numpy.

Errors and coins are drawn with the keys :func:`oracle.run` uses, so every
record equals the tableau's for the same shot. A random check's coin is
``counter_bit(seed, shot, f"m{i}")`` with ``i`` its index in the shot's
instruction stream: its error-free index plus the shot's number of
insertions, since every insertion follows ``Prepare``. The logical's coin
is keyed ``"logical"``.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import reduce

from . import oracle, webs
from .pauli import PauliOperator
from .surface import correlator_boundary_condition

LOGICAL = "logical"  # coin key of the logical measurement


class ModelError(RuntimeError):
    """The webs lack a combination an outcome needs; the model never guesses."""


def _error_columns(n: int, qubit: int, letter: str) -> list[int]:
    """Error-bit columns of one insertion: X on q is column q, Z is n + q."""
    if letter not in ("X", "Z", "Y"):
        raise ValueError(f"invalid error letter {letter!r}")
    if not 0 <= qubit < n:
        raise ValueError(f"error qubit {qubit} outside 0..{n - 1}")
    return [col for col, part in ((qubit, "X"), (n + qubit, "Z")) if letter in (part, "Y")]


class OutcomeModel:
    """The outcomes of a lowered circuit under init-time Pauli errors.

    ``report`` names the checks whose outcomes each record carries, each
    once (default: every check); ``postselect`` the checks that must all
    read +1 for a shot to be accepted, as in :func:`oracle.run`. ``walk`` is
    the program's :func:`oracle.walk` with ``logical``, if the caller has it
    already. Only the coins a reported or post-selected check or the logical
    depends on are ever drawn.
    """

    def __init__(self, program: oracle.Program, logical: PauliOperator | None = None, *,
                 postselect: Iterable[str] | None = None,
                 report: Iterable[str] | None = None,
                 walk: oracle.Walk | None = None):
        if walk is None:
            walk = oracle.walk(program, logical)
        if (logical is None) != (walk.logical is None):
            raise ValueError("the walk and the model disagree on measuring the logical")
        steps = {step.check_id: step for step in walk.checks}
        self.report = list(steps) if report is None else list(report)
        self.postselect = None if postselect is None else list(postselect)
        unknown = sorted(set(self.report).union(self.postselect or ()) - set(steps))
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}")
        # each record zips report with one output per distinct check
        repeated = sorted(c for c, k in Counter(self.report).items() if k > 1)
        if repeated:
            raise ValueError(f"repeated check ids in report: {repeated}")
        self.n = program.structure.n
        self.forced = {c: steps[c].result.deterministic for c in self.report}
        checks = list(dict.fromkeys(self.report + (self.postselect or [])))
        self._post_cols = [checks.index(c) for c in self.postselect or ()]
        self.has_logical = logical is not None

        events = walk.events
        results = [steps[c].result for c in checks]
        coin_sets = [{c} if not r.deterministic else _aux_checks(r.aux, events)
                     for c, r in zip(checks, results)]
        targets = [coins | {c} if r.deterministic else None
                   for c, r, coins in zip(checks, results, coin_sets)]
        correlator = None
        if walk.logical is not None:
            results.append(walk.logical)
            if walk.logical.deterministic:
                coin_sets.append(_aux_checks(walk.logical.aux, events))
                d = program.diagram
                correlator = webs.solve(d, correlator_boundary_condition(d, logical))
                if isinstance(correlator, webs.Infeasible):
                    raise ModelError(
                        f"the logical is forced but has no correlator web: {correlator}")
                targets.append(correlator.stub_set() ^ coin_sets[-1])
            else:
                coin_sets.append({LOGICAL})
                targets.append(None)

        # outcomes = base ^ coins @ coin_map ^ errors @ flips  (mod 2), rows as
        # ints; a random outcome walked with coin 0 is 0, so its coin decides
        self._n_outputs = len(results)
        self.base = sum(r.outcome << j for j, r in enumerate(results))
        coins = sorted(set().union(*coin_sets),
                       key=lambda c: -1 if c == LOGICAL else steps[c].position)
        # error-free stream position of each coin's check; -1 for the logical's
        self._coin_positions = [-1 if c == LOGICAL else steps[c].position for c in coins]
        self.coin_map = [sum(1 << col for col, coin_set in enumerate(coin_sets) if c in coin_set)
                         for c in coins]
        self.flips = _flip_columns(program, targets, correlator)

    def shots(self, seed: int, n_shots: int, *, error_rate: float = 0.0,
              z_error_rate: float = 0.0, fixed: Iterable[tuple[int, str]] = ()
              ) -> Iterator[tuple[int, oracle.ShotRecord]]:
        """(number of insertions, record) of shots 0..n_shots-1.

        Each shot has the ``fixed`` (qubit, letter) insertions, then an X
        error on each qubit with probability ``error_rate`` and a Z error
        with probability ``z_error_rate``, drawn with the keys
        ``counter_unit(seed, shot, "errx:q")`` and ``"errz:q"``, qubit by
        qubit. Its record is the one :func:`oracle.run` gives for those
        insertions on that shot.
        """
        fixed = list(fixed)
        fixed_flips = 0
        for q, letter in fixed:
            for col in _error_columns(self.n, q, letter):
                fixed_flips ^= self.flips[col]
        draws = [(self.flips[col], f"err{letter}:{q}", rate) for q in range(self.n)
                 for letter, rate, col in (("x", error_rate, q),
                                           ("z", z_error_rate, self.n + q)) if rate]
        coins = list(zip(self._coin_positions, self.coin_map))
        outputs = range(self._n_outputs)
        for shot in range(n_shots):
            value, count = self.base ^ fixed_flips, len(fixed)
            for flips, token, rate in draws:
                if oracle.counter_unit(seed, shot, token) < rate:
                    value ^= flips
                    count += 1
            for pos, column in coins:
                if oracle.counter_bit(seed, shot, LOGICAL if pos < 0 else f"m{pos + count}"):
                    value ^= column
            yield count, self._record([value >> j & 1 for j in outputs])

    def _record(self, row: list[int]) -> oracle.ShotRecord:
        accepted = None
        if self.postselect is not None:
            accepted = not any(row[col] for col in self._post_cols)
        return oracle.ShotRecord(
            outcomes=dict(zip(self.report, row)), forced=dict(self.forced),
            accepted=accepted, logical_y=row[-1] if self.has_logical else None)


def _aux_checks(aux: int, events: tuple[str, ...]) -> set[str]:
    """The random checks whose coins an aux mask names."""
    return {check for k, check in enumerate(events) if aux >> k & 1}


def _flip_columns(program: oracle.Program, targets: list[set[str] | None],
                  correlator: webs.Web | None) -> list[int]:
    """Per error bit, the outputs it flips, as an int over the outputs.

    A target is the stub set of the web whose syndrome flips that output;
    None marks a random output, which no error flips. The last output
    starts from the correlator web when one is given. A target's web is the
    XOR of the detectors whose pivot stubs it holds.
    """
    d, structure = program.diagram, program.structure
    init_edges = [d.edge_index(*structure.world_edges(q)[0]) for q in range(structure.n)]
    # an X error reads the z bit of its edge, a Z error the x bit
    reader = [2 * e + 1 for e in init_edges] + [2 * e for e in init_edges]
    reader_mask = sum(1 << v for v in reader)
    # per output, the bits of its web that the errors read
    read = [0] * len(targets)
    if correlator is not None:
        read[-1] = correlator.mask & reader_mask
    if any(targets):
        detector_webs = webs.detectors(d)
        stub_sets = [web.stub_set() for web in detector_webs]
        # each detector's first stub is in no other detector (webs.detectors)
        stub_order = {leg.outer.check_id: k for k, leg in enumerate(d.stub_legs)}
        pivot_of = {min(stubs, key=stub_order.__getitem__): j
                    for j, stubs in enumerate(stub_sets)}
        for col, target in enumerate(targets):
            if not target:
                continue
            combo = [pivot_of[c] for c in target if c in pivot_of]
            if reduce(operator.xor, (stub_sets[j] for j in combo), frozenset()) != target:
                raise ModelError(f"no detector web has the stub set {sorted(target)}")
            for j in combo:
                read[col] ^= detector_webs[j].mask & reader_mask
    return [sum(1 << col for col, bits in enumerate(read) if bits >> v & 1) for v in reader]
