import hashlib
import math
import random

import numpy as np
import pytest

from zxwebs import oracle
from zxwebs.oracle import (
    ApplyPauli,
    LoweringError,
    MeasureCheck,
    MeasureResult,
    Prepare,
    ShotRecord,
    Walk,
    canonical_group,
    canonical_stabilizer_group,
    counter_bit,
    counter_unit,
    deterministic_checks,
    diagram_structure,
    lower,
    prepare,
    run,
    walk,
)
from zxwebs.pauli import PauliOperator
from zxwebs.surface import SCHEMES, InitState, build_layout, injection_pattern, scheme_circuit
from zxwebs.webs import PauliErrorSet

from conftest import assert_frozen_record, make_diagram
from test_pauli import from_vectors, int16_word_product, vectors


def op(n, mapping, sign=1):
    return PauliOperator.from_dict(n, mapping, sign)


def test_prepare_single_y():
    t = prepare({0: InitState.Y})
    assert canonical_stabilizer_group(t) == canonical_group(1, [op(1, {0: "Y"})])


def test_prepare_zero_plus():
    t = prepare({0: InitState.ZERO, 1: InitState.PLUS})
    expected = canonical_group(2, [op(2, {0: "Z"}), op(2, {1: "X"})])
    assert canonical_stabilizer_group(t) == expected
    t.check_valid()


def test_prepare_validation():
    with pytest.raises(ValueError):
        prepare({})
    with pytest.raises(ValueError):
        prepare({1: InitState.ZERO})


def test_injection_pattern_stabilizes_corner_y():
    pattern = injection_pattern(build_layout(5))
    t = prepare(pattern)
    res = t.measure(op(25, {4: "Y"}))
    assert res.deterministic and res.outcome == 0 and res.aux == 0


def test_measure_deterministic_z():
    t = prepare({0: InitState.ZERO})
    res = t.measure(op(1, {0: "Z"}))
    assert (res.outcome, res.deterministic) == (0, True)


def test_measure_random_then_idempotent():
    for bit in (0, 1):
        t = prepare({0: InitState.Y})
        first = t.measure(op(1, {0: "X"}), random_bit=bit)
        assert not first.deterministic and first.outcome == bit
        second = t.measure(op(1, {0: "X"}))
        assert second.deterministic and second.outcome == bit
        t.check_valid()


@pytest.mark.parametrize("c0, c1", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_random_measurement_carries_the_coins_of_the_rows_it_multiplies(c0, c1):
    # after X0 and X1 come out random, Z0Z1 anticommutes with both: one
    # becomes X0X1, whose sign and aux then hold both coins
    t = prepare({q: InitState.ZERO for q in range(3)})
    assert t.measure(op(3, {0: "X"}), random_bit=c0).aux == 0b1
    assert t.measure(op(3, {1: "X"}), random_bit=c1).aux == 0b10
    assert not t.measure(op(3, {0: "Z", 1: "Z"}), random_bit=1).deterministic
    res = t.measure(op(3, {0: "X", 1: "X"}))
    assert res == MeasureResult(outcome=c0 ^ c1, deterministic=True, aux=0b11)
    t.check_valid()


def test_remeasuring_every_check_is_idempotent(inj3):
    _, diag = inj3
    tableau = None
    results = {}
    for i, instr in enumerate(lower(diag).instructions()):
        if isinstance(instr, Prepare):
            tableau = prepare(dict(instr.pattern))
        else:
            results[instr.check_id] = (instr.op,
                                       tableau.measure(instr.op, random_bit=i % 2))
    for check_id, (operator, first) in results.items():
        again = tableau.measure(operator)
        assert again.deterministic and again.outcome == first.outcome
    tableau.check_valid()


def test_measure_random_requires_bit():
    t = prepare({0: InitState.PLUS})
    with pytest.raises(ValueError, match="random bit"):
        t.measure(op(1, {0: "Z"}))


def test_measure_negative_sign_operator():
    t = prepare({0: InitState.ZERO})
    res = t.measure(op(1, {0: "Z"}, sign=-1))
    assert res.deterministic and res.outcome == 1


def test_apply_pauli_flips_outcomes():
    t = prepare({0: InitState.ZERO, 1: InitState.ZERO})
    t.apply_pauli(op(2, {0: "X"}))
    assert t.measure(op(2, {0: "Z"})).outcome == 1
    assert t.measure(op(2, {1: "Z"})).outcome == 0


def test_footnote_instance_group_and_randomness():
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = op(4, {q: "Z" for q in range(4)})
    seen = set()
    for s in range(100):
        t = prepare(pattern)
        res = t.measure(zzzz, random_bit=counter_bit(0, s, "m"))
        assert not res.deterministic
        seen.add(res.outcome)
        expected = canonical_group(4, [
            zzzz if res.outcome == 0 else zzzz.negated(),
            op(4, {0: "X", 1: "X"}),
            op(4, {0: "X", 2: "X"}),
            op(4, {3: "Z"}),
        ])
        assert canonical_stabilizer_group(t) == expected
        t.check_valid()
    assert seen == {0, 1}


def test_measurement_statistics_chi_square():
    pattern = {0: InitState.PLUS, 1: InitState.PLUS, 2: InitState.PLUS,
               3: InitState.ZERO}
    zzzz = op(4, {q: "Z" for q in range(4)})
    ones = 0
    shots = 1000
    for s in range(shots):
        t = prepare(pattern)
        ones += t.measure(zzzz, random_bit=counter_bit(5, s, "m")).outcome
    chi2 = (ones - shots / 2) ** 2 / (shots / 2) + ((shots - ones) - shots / 2) ** 2 / (shots / 2)
    assert math.erfc(math.sqrt(chi2 / 2)) > 0.001



def random_rates(count: int, seed: int) -> list[float]:
    """Uniform rates and rates spread over 300 decades, half and half."""
    rng = random.Random(seed)
    return [rng.random() if k % 2 else 10 ** -rng.uniform(0, 300) for k in range(count)]


EDGE_RATES = [5e-324, 1e-300, 0.01, 0.05, 0.1, 0.5, 1 - 2**-53, 1.0]


def test_rate_bound_is_the_first_digest_whose_unit_reaches_the_rate():
    for rate in EDGE_RATES + random_rates(200, 30):
        bound = oracle.rate_bound(rate)
        assert len(bound) == 8
        first = int.from_bytes(bound, "big")
        assert 0 < first < 2**64
        for x in (first - 1, first, first + 1):
            assert (x.to_bytes(8, "big") < bound) == (x / 2**64 < rate), (rate, x)


def test_rate_bound_outside_the_unit_interval():
    every, none = b"\xff" * 8, b"\x00" * 8
    for rate in (1.5, math.inf):
        assert every < oracle.rate_bound(rate)
    for rate in (0.0, -0.5, -math.inf, math.nan):
        assert not none < oracle.rate_bound(rate)


def random_keys(count: int, seed: int):
    """(seed, shot, tokens): negative and wide seeds, the sampler's tokens and others."""
    rng = random.Random(seed)
    for _ in range(count):
        cli_seed = rng.choice([rng.randrange(-1000, 1000), rng.getrandbits(80) - 2**79])
        tokens = [rng.choice([f"errx:{rng.randrange(200)}", f"errz:{rng.randrange(200)}",
                              f"m{rng.randrange(2000)}", "logical", "m",
                              "".join(rng.choices(":ab0é", k=rng.randrange(6)))])
                  for _ in range(4)]
        yield cli_seed, rng.randrange(10**6), tokens


def test_shot_prefix_gives_the_digests_of_the_keyed_draws():
    for seed, shot, tokens in random_keys(300, 31):
        prefix = oracle.shot_prefix(seed, shot)
        for token in tokens:  # one prefix serves every draw of its shot
            key = prefix.copy()
            key.update(token.encode())
            digest = key.digest()
            assert digest == hashlib.blake2b(f"{seed}:{shot}:{token}".encode(),
                                             digest_size=8).digest()
            assert digest[0] & 1 == counter_bit(seed, shot, token)
            assert int.from_bytes(digest, "big") / 2**64 == counter_unit(seed, shot, token)


def test_digest_below_the_bound_is_a_unit_below_the_rate():
    bounds = [(rate, oracle.rate_bound(rate)) for rate in EDGE_RATES + random_rates(20, 32)]
    for seed, shot, tokens in random_keys(100, 33):
        prefix = oracle.shot_prefix(seed, shot)
        for token in tokens:
            key = prefix.copy()
            key.update(token.encode())
            unit = counter_unit(seed, shot, token)
            for rate, bound in bounds:
                assert (key.digest() < bound) == (unit < rate), (seed, shot, token, rate)


def test_canonical_group_invariance():
    a = op(3, {0: "X", 1: "X"})
    b = op(3, {1: "X", 2: "X"})
    c = op(3, {0: "Z", 1: "Z", 2: "Z"}, sign=-1)
    left = canonical_group(3, [a, b, c])
    right = canonical_group(3, [b, a * b, c])
    assert left == right
    with pytest.raises(ValueError, match="identity"):
        canonical_group(3, [a, a.negated()])


@pytest.mark.parametrize("n,generators", [
    (1, [{0: "X"}, {0: "Z"}]),
    (2, [{0: "X", 1: "X"}, {0: "Z"}]),
    (1, [{0: "X"}, {0: "Y"}]),
    (3, [{0: "X", 1: "X"}, {1: "X", 2: "X"}, {0: "Z"}]),
])
def test_canonical_group_rejects_anticommuting_generators(n, generators):
    with pytest.raises(ValueError, match="do not commute"):
        canonical_group(n, [op(n, g) for g in generators])


def test_lower_counts_memory_z_d3():
    _, diag = make_diagram(3, "memory-z")
    instrs = lower(diag).instructions()
    assert isinstance(instrs[0], Prepare)
    checks = [i for i in instrs if isinstance(i, MeasureCheck)]
    assert len(checks) == 8
    assert [c.check_id for c in checks[:4]] == ["r1.X0", "r1.X1", "r1.X2", "r1.X3"]
    assert all(c.check_id.startswith("r1.Z") for c in checks[4:])


def test_lower_counts_injection_d5(inj5):
    _, diag = inj5
    instrs = lower(diag).instructions()
    checks = [i for i in instrs if isinstance(i, MeasureCheck)]
    assert len(checks) == 24
    stub_ids = {x.check_id for x in diag.nodes if x.check_id}
    assert {c.check_id for c in checks} == stub_ids
    # X plaquettes measured before Z in each round
    kinds = ["X" if "X" in c.check_id else "Z" for c in checks]
    assert kinds == ["X"] * 12 + ["Z"] * 12


def test_lower_places_init_error_right_after_prepare(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("q9.l0", "q9.l1"), "X")])
    instrs = lower(diag).instructions(err)
    assert isinstance(instrs[0], Prepare)
    assert instrs[1] == ApplyPauli(qubit=9, letter="X")
    assert isinstance(instrs[2], MeasureCheck)


def test_lower_places_mid_circuit_error_between_layers(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("q9.l1", "q9.l2"), "Z")])
    instrs = lower(diag).instructions(err)
    position = instrs.index(ApplyPauli(qubit=9, letter="Z"))
    before = [i for i in instrs[:position] if isinstance(i, MeasureCheck)]
    assert len(before) == 12 and all("X" in c.check_id for c in before)


def test_lower_rejects_plaquette_edge_errors(memz5):
    _, diag = memz5
    err = PauliErrorSet.of(diag, [(("a.r1.Z5", "q7.l2"), "X")])
    with pytest.raises(LoweringError, match="world line"):
        lower(diag).instructions(err)


def test_lower_rejects_foreign_diagrams():
    from zxwebs.diagram import Color, Diagram, Node
    d = Diagram(
        nodes=[Node.spider("s", Color.Z, 1, (0, 0, 0)),
               Node.boundary_out("o", (0, 0, 1))],
        edges=[("s", "o")],
    )
    with pytest.raises(LoweringError):
        lower(d)


def test_structure_world_edges(inj3):
    _, diag = inj3
    structure = diagram_structure(diag)
    assert structure.distance == 3 and structure.rounds == 1
    for q in range(9):
        chain = structure.world_edges(q)
        assert len(chain) == 3  # init->l1, l1->l2, l2->out
    assert structure.init[2] is InitState.Y


def test_run_is_reproducible(inj5):
    lay, diag = inj5
    from zxwebs.surface import logical_operators
    _, _, y_l = logical_operators(lay)
    kwargs = dict(seed=9, shot=4, postselect=["r1.Z7"], measure_logical=y_l)
    program = lower(diag)
    a = run(program, **kwargs)
    b = run(program, **kwargs)
    assert a == b
    assert a.to_json() == b.to_json()
    assert a.accepted is True and a.logical_y == 0
    c = run(program, seed=10, shot=4, postselect=["r1.Z7"], measure_logical=y_l)
    assert c.accepted is True  # deterministic checks do not depend on the seed


def test_run_flags_and_validation(inj5):
    _, diag = inj5
    program = lower(diag)
    rec = run(program, seed=0)
    assert rec.accepted is None and rec.logical_y is None
    assert set(rec.forced) == set(rec.outcomes)
    det = {c for c, f in rec.forced.items() if f}
    assert det  # first-round deterministic checks exist
    with pytest.raises(ValueError, match="unknown check"):
        run(program, seed=0, postselect=["r9.X0"])


def test_run_forced_outcomes_condition_random_checks(inj5):
    _, diag = inj5
    program = lower(diag)
    rec0 = run(program, seed=1, forced_outcomes={"r1.X2": 0})
    rec1 = run(program, seed=1, forced_outcomes={"r1.X2": 1})
    assert rec0.outcomes["r1.X2"] == 0
    assert rec1.outcomes["r1.X2"] == 1


def test_deterministic_checks_memory_z(memz5):
    _, diag = memz5
    det = deterministic_checks(lower(diag))
    assert det == {f"r1.Z{k}" for k in range(12)}


def test_deterministic_checks_injection_d5(inj5):
    _, diag = inj5
    det = deterministic_checks(lower(diag))
    assert det == {"r1.X0", "r1.X1", "r1.X3", "r1.X4", "r1.X6", "r1.X9",
                   "r1.Z7", "r1.Z9", "r1.Z10", "r1.Z11"}


def test_deterministic_checks_match_region_predicate_d3(inj3):
    lay, diag = inj3
    pattern = injection_pattern(lay)
    plus = {q for q, s in pattern.items() if s is InitState.PLUS}
    zero = {q for q, s in pattern.items() if s is InitState.ZERO}
    expected = set()
    for p in lay.x_plaquettes:
        if set(p.support) <= plus:
            expected.add(f"r1.{p.id}")
    for p in lay.z_plaquettes:
        if set(p.support) <= zero:
            expected.add(f"r1.{p.id}")
    assert deterministic_checks(lower(diag)) == expected


def test_deterministic_checks_two_rounds():
    _, diag = make_diagram(3, "memory-z", rounds=2)
    det = deterministic_checks(lower(diag))
    # round-2 X checks only echo the round-1 coin flips, so they are excluded
    assert det == {f"r{k}.Z{i}" for k in (1, 2) for i in range(4)}


def test_shot_record_json_is_stable(inj3):
    _, diag = inj3
    line = run(lower(diag), seed=3).to_json()
    assert line == run(lower(diag), seed=3).to_json()
    assert line.startswith('{"outcomes":')


# -- the uint8/int16 tableau the int-mask rows replaced, kept as a referee -----


class ReferenceTableau:
    """CHP tableau on uint8 row matrices with an int16 anticommutation mat-vec."""

    def __init__(self, n):
        self.n = n
        self.xs = np.zeros((2 * n, n), dtype=np.uint8)
        self.zs = np.zeros((2 * n, n), dtype=np.uint8)
        self.signs = np.zeros(2 * n, dtype=np.uint8)
        self.aux = [0] * (2 * n)
        self.random_events = 0
        for q in range(n):
            self.xs[q, q] = 1
            self.zs[n + q, q] = 1

    def _anticommute_mask(self, x, z):
        overlap = self.xs.astype(np.int16) @ z.astype(np.int16) \
            + self.zs.astype(np.int16) @ x.astype(np.int16)
        return (overlap % 2).astype(np.uint8)

    def _rowmult(self, h, i):
        exponent = int16_word_product(self.xs[i], self.zs[i], self.xs[h], self.zs[h])
        total = (2 * int(self.signs[i]) + 2 * int(self.signs[h]) + exponent) % 4
        assert total % 2 == 0
        self.signs[h] = total // 2
        self.xs[h] ^= self.xs[i]
        self.zs[h] ^= self.zs[i]
        self.aux[h] ^= self.aux[i]

    def apply_pauli(self, op):
        x, z, _ = vectors(op)
        self.signs ^= self._anticommute_mask(x, z)

    def measure(self, op, random_bit=None):
        x, z, sign_bit = vectors(op)
        anti = self._anticommute_mask(x, z)
        stab_hits = np.nonzero(anti[self.n:])[0]
        if stab_hits.size:
            p = self.n + int(stab_hits[0])
            if random_bit is None:
                raise ValueError("measurement outcome is random: a random bit is required")
            for h in np.nonzero(anti)[0]:
                h = int(h)
                if h != p and h != p - self.n:
                    self._rowmult(h, p)
            self.xs[p - self.n] = self.xs[p].copy()
            self.zs[p - self.n] = self.zs[p].copy()
            self.signs[p - self.n] = self.signs[p]
            self.aux[p - self.n] = self.aux[p]
            event = 1 << self.random_events
            self.random_events += 1
            outcome = random_bit & 1
            self.xs[p], self.zs[p] = x, z
            self.signs[p] = (outcome + sign_bit) % 2
            self.aux[p] = event
            return MeasureResult(outcome=outcome, deterministic=False, aux=event)
        sx = np.zeros(self.n, dtype=np.uint8)
        sz = np.zeros(self.n, dtype=np.uint8)
        phase = aux_mask = 0
        for j in np.nonzero(anti[:self.n])[0]:
            s = self.n + int(j)
            phase = (phase + 2 * int(self.signs[s])
                     + int16_word_product(sx, sz, self.xs[s], self.zs[s])) % 4
            sx ^= self.xs[s]
            sz ^= self.zs[s]
            aux_mask ^= self.aux[s]
        assert np.array_equal(sx, x) and np.array_equal(sz, z) and phase % 2 == 0
        return MeasureResult(outcome=(phase // 2 + sign_bit) % 2, deterministic=True,
                             aux=aux_mask)

    def canonical_group(self):
        """RREF of the stabilizer rows with signs, columns x_0..x_{n-1}, z_0..z_{n-1}."""
        n = self.n
        rows = [(self.xs[i].copy(), self.zs[i].copy(), int(self.signs[i]))
                for i in range(n, 2 * n)]
        r = 0
        for col in range(2 * n):
            bits = [row[0][col] if col < n else row[1][col - n] for row in rows]
            pivot = next((k for k in range(r, n) if bits[k]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            bits[r], bits[pivot] = bits[pivot], bits[r]
            for k in range(n):
                if k != r and bits[k]:
                    (xa, za, sa), (xb, zb, sb) = rows[r], rows[k]
                    exponent = (2 * sa + 2 * sb + int16_word_product(xa, za, xb, zb)) % 4
                    assert exponent % 2 == 0
                    rows[k] = (xa ^ xb, za ^ zb, exponent // 2)
            r += 1
        return tuple(from_vectors(x, z, sign) for x, z, sign in rows
                     if x.any() or z.any())


def reference_prepare(pattern):
    n = len(pattern)
    t = ReferenceTableau(n)
    for q, state in pattern.items():
        if state is InitState.ZERO:
            continue
        t.xs[n + q, q], t.zs[n + q, q] = 1, int(state is InitState.Y)
        t.xs[q, q], t.zs[q, q] = 0, 1
    return t


def random_word(rng, n):
    weight = rng.randint(1, n) if rng.random() < 0.3 else rng.randint(1, min(n, 4))
    support = rng.sample(range(n), weight)
    return op(n, {q: rng.choice("XYZ") for q in support}, sign=rng.choice((1, -1)))


@pytest.mark.parametrize("n", [1, 2, 5, 25, 63, 64, 65, 81])
def test_tableau_matches_uint8_reference_on_random_sequences(n):
    rng = random.Random(n)
    pattern = {q: rng.choice(list(InitState)) for q in range(n)}
    tableau, reference = prepare(pattern), reference_prepare(pattern)
    measured = []
    kinds = {"random": 0, "forced": 0, "forced-on-coins": 0}
    for _ in range(60 if n <= 25 else 25):
        roll = rng.random()
        if roll < 0.15:
            word = random_word(rng, n)
            tableau.apply_pauli(word)
            reference.apply_pauli(word)
        else:
            word = random_word(rng, n)
            if measured and roll < 0.55:
                # an earlier measurement, or a product of two: forced outcomes
                word = rng.choice(measured)
                other = rng.choice(measured)
                if word.commutes_with(other) and rng.random() < 0.5:
                    word = word * other
            bit = None if rng.random() < 0.1 else rng.randint(0, 1)
            try:
                expected = reference.measure(word, random_bit=bit)
            except ValueError:
                with pytest.raises(ValueError, match="random bit"):
                    tableau.measure(word, random_bit=bit)
                continue
            assert tableau.measure(word, random_bit=bit) == expected
            measured.append(word)
            kinds["random" if not expected.deterministic
                  else "forced-on-coins" if expected.aux else "forced"] += 1
        assert canonical_stabilizer_group(tableau) == reference.canonical_group()
    tableau.check_valid()
    assert tableau.aux[n:] == reference.aux[n:]
    assert all(kinds.values()), kinds


def random_errors(rng, diag, structure):
    edges = [edge for q in range(structure.n) for edge in structure.world_edges(q)]
    items = [(rng.choice(edges), rng.choice("XYZ")) for _ in range(rng.choice((1, 2, 3)))]
    return PauliErrorSet.of(diag, items)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_walk_and_run_match_uint8_reference(scheme, d, rounds, monkeypatch):
    _, diag, logical = scheme_circuit(d, scheme, rounds)
    program = lower(diag)
    rng = random.Random(f"{scheme}{d}{rounds}")
    shots = [dict(errors=random_errors(rng, diag, program.structure), seed=rng.randint(0, 99),
                  shot=k, postselect=sorted(deterministic_checks(program)),
                  measure_logical=logical)
             for k in range(4)]
    expected_walk = walk(program, logical)
    expected_runs = [run(program, **kwargs) for kwargs in shots]
    monkeypatch.setattr(oracle, "prepare", reference_prepare)
    assert walk(program, logical) == expected_walk
    assert [run(program, **kwargs) for kwargs in shots] == expected_runs


def test_shot_record_and_walk_take_their_defaults_by_keyword():
    rec = ShotRecord(outcomes={"r1.X0": 1}, forced={"r1.X0": False})
    assert (rec.accepted, rec.logical_y) == (None, None)
    assert rec.to_json() == ('{"outcomes":{"r1.X0":1},"forced":{"r1.X0":false},'
                             '"accepted":null,"logical_y":null}')
    empty = Walk(checks=())
    assert empty.logical is None and empty.events == ()


def test_oracle_records_are_frozen():
    _, diag, logical = scheme_circuit(3, "inject-y")
    program = lower(diag)
    walked = walk(program, logical)
    assert_frozen_record(program, "diagram structure layers")
    assert_frozen_record(program.structure,
                         "distance rounds init checks world_nodes edge_slots")
    assert_frozen_record(program.structure.checks[0], "check_id layer round ptype support pos")
    assert_frozen_record(program.layers[0][0], "check_id op")
    prepare_step, *_ = program.instructions([(("q0.l0", "q0.l1"), "X")])
    assert_frozen_record(prepare_step, "pattern")
    assert_frozen_record(ApplyPauli(0, "X"), "qubit letter")
    assert_frozen_record(walked, "checks logical")
    assert_frozen_record(walked.checks[0], "check_id position result")
    assert_frozen_record(walked.logical, "outcome deterministic aux")
    assert_frozen_record(run(program, seed=1, measure_logical=logical),
                         "outcomes forced accepted logical_y")
