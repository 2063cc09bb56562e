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

Errors and coins are drawn with the keys :func:`oracle.run` uses, so every
record equals the tableau's for the same shot. A random check's coin is
``counter_bit(seed, shot, f"m{i}")`` with ``i`` its index in the shot's
instruction stream: its error-free index plus the shot's number of
insertions, since every insertion follows ``Prepare``. The logical's coin
is keyed ``"logical"``.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable, Iterator

import numpy as np

from . import oracle, webs
from .pauli import PauliOperator
from .surface import correlator_boundary_condition

CHUNK = 1024  # shots drawn and evaluated together; bounds the draw matrices
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

    ``report`` names the checks whose outcomes each record carries (default:
    every check); ``postselect`` the checks that must all read +1 for a shot
    to be accepted, as in :func:`oracle.run`. ``walk`` is the program's
    :func:`oracle.walk` with ``logical``, if the caller has it already. Only
    the coins a reported or post-selected check or the logical depends on
    are ever drawn.
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
                correlator = _correlator(program.diagram, logical)
                targets.append(correlator.stub_set() ^ coin_sets[-1])
            else:
                coin_sets.append({LOGICAL})
                targets.append(None)

        # outcomes = base ^ coins @ coin_map ^ errors @ flips  (mod 2); a random
        # outcome walked with coin 0 is 0, so its base is 0 and its coin decides
        self.base = np.array([r.outcome for r in results], dtype=np.uint8)
        coins = sorted(set().union(*coin_sets),
                       key=lambda c: -1 if c == LOGICAL else steps[c].position)
        # error-free stream position of each coin's check; -1 for the logical's
        self._coin_positions = [-1 if c == LOGICAL else steps[c].position for c in coins]
        row_of = {c: k for k, c in enumerate(coins)}
        self.coin_map = np.zeros((len(coins), len(results)), dtype=np.uint8)
        for col, coin_set in enumerate(coin_sets):
            self.coin_map[[row_of[c] for c in coin_set], col] = 1
        self.flips = _flip_matrix(program, targets, correlator)

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
        fixed_bits = np.zeros(2 * self.n, dtype=np.uint8)
        for q, letter in fixed:
            fixed_bits[_error_columns(self.n, q, letter)] ^= 1
        draws = [(col, f"err{letter}:{q}", rate) for q in range(self.n)
                 for letter, rate, col in (("x", error_rate, q),
                                           ("z", z_error_rate, self.n + q)) if rate]
        columns = [col for col, _, _ in draws]
        for start in range(0, n_shots, CHUNK):
            block = range(start, min(start + CHUNK, n_shots))
            hits = np.fromiter((oracle.counter_unit(seed, shot, token) < rate
                                for shot in block for _, token, rate in draws),
                               dtype=bool, count=len(block) * len(draws)
                               ).reshape(len(block), len(draws))
            errors = np.zeros((len(block), 2 * self.n), dtype=np.uint8)
            errors[:, columns] = hits
            errors ^= fixed_bits
            counts = (len(fixed) + hits.sum(axis=1)).tolist()
            values = self.base ^ ((errors @ self.flips) & 1)
            if self._coin_positions:
                coins = np.fromiter((oracle.counter_bit(seed, shot, LOGICAL if pos < 0
                                                        else f"m{pos + count}")
                                     for shot, count in zip(block, counts)
                                     for pos in self._coin_positions),
                                    dtype=np.uint8,
                                    count=len(block) * len(self._coin_positions)
                                    ).reshape(len(block), len(self._coin_positions))
                values ^= (coins @ self.coin_map) & 1
            yield from zip(counts, map(self._record, values.tolist()))

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


def _correlator(diagram, logical: PauliOperator) -> webs.Web:
    web = webs.solve(diagram, correlator_boundary_condition(diagram, logical))
    if isinstance(web, webs.Infeasible):
        raise ModelError(f"the logical is forced but has no correlator web: {web}")
    return web


def _flip_matrix(program: oracle.Program, targets: list[set[str] | None],
                 correlator: webs.Web | None) -> np.ndarray:
    """(2n, outputs) error-bit to outcome-flip matrix, one column per target.

    A target is the stub set of the web whose syndrome flips that output;
    None marks a random output, which no error flips. The last column
    starts from the correlator web when one is given. A target's web is the
    XOR of the detectors whose pivot stubs it holds.
    """
    d, structure = program.diagram, program.structure
    init_edges = np.array([d.edge_index(*structure.world_edges(q)[0])
                           for q in range(structure.n)])
    # an X error reads the z bit of its edge, a Z error the x bit
    reader = np.concatenate([2 * init_edges + 1, 2 * init_edges])
    flips = np.zeros((len(reader), len(targets)), dtype=np.uint8)
    if correlator is not None:
        flips[:, -1] = correlator.bits[reader]
    if not any(targets):
        return flips
    detector_webs = webs.detectors(d)
    stub_sets = [web.stub_set() for web in detector_webs]
    # each detector's first stub is in no other detector (webs.detectors)
    stub_order = {leg.outer.check_id: k for k, leg in enumerate(d.stub_legs)}
    pivot_of = {min(stubs, key=stub_order.__getitem__): j for j, stubs in enumerate(stub_sets)}
    detector_flips = np.array([web.bits[reader] for web in detector_webs],
                              dtype=np.uint8).reshape(len(detector_webs), len(reader))
    for col, target in enumerate(targets):
        if not target:
            continue
        combo = [pivot_of[c] for c in target if c in pivot_of]
        if reduce(operator.xor, (stub_sets[j] for j in combo), frozenset()) != target:
            raise ModelError(f"no detector web has the stub set {sorted(target)}")
        flips[:, col] ^= detector_flips[combo].sum(axis=0, dtype=np.uint8) & 1
    return flips
