"""A third oracle for d=3: a dense 512-amplitude statevector.

It shares no code with the tableau. It reads only the instruction stream
of a lowered program (preparation, Pauli insertions, Pauli measurements)
and the letters and signs of the measured operators, and projects the
state with numpy. Each outcome's probability is read off the state, so a
tableau outcome that is forced must have probability 0 or 1 and one that
is random must have probability 1/2. After each shot, every stabilizer of
a tableau stepped through the same instructions must fix the state.
"""

import math
import random

import numpy as np
import pytest

from zxwebs.oracle import ApplyPauli, Prepare, counter_bit, lower, prepare, run
from zxwebs.pauli import PauliOperator
from zxwebs.surface import SCHEMES, InitState, scheme_circuit
from zxwebs.webs import PauliErrorSet

N_QUBITS = 9
INDEX = np.arange(2 ** N_QUBITS)  # bit q of a basis index is qubit q
SINGLE_QUBIT_STATE = {
    InitState.ZERO: np.array([1, 0], dtype=complex),
    InitState.PLUS: np.array([1, 1], dtype=complex) / math.sqrt(2),
    InitState.Y: np.array([1, 1j], dtype=complex) / math.sqrt(2),
}


def product_state(pattern):
    psi = np.ones(1, dtype=complex)
    for q in range(N_QUBITS):  # qubit q is the (q+1)-th least significant index bit
        psi = np.kron(SINGLE_QUBIT_STATE[pattern[q]], psi)
    return psi


def apply_word(psi, paulis, sign=1):
    """sign * (tensor product of the letters) applied to psi."""
    for q, letter in paulis:
        bit = 1 << q
        if letter == "Z":
            psi = psi * np.where(INDEX & bit, -1, 1)
        elif letter == "X":
            psi = psi[INDEX ^ bit]
        else:  # Y = [[0, -i], [i, 0]]
            psi = psi[INDEX ^ bit] * np.where(INDEX & bit, 1j, -1j)
    return sign * psi


def measure(psi, op, coin):
    """Probability of outcome 1, the outcome (the coin if it is 1/2) and the state after."""
    image = apply_word(psi, op.paulis, op.sign)
    p1 = (1 - np.vdot(psi, image).real) / 2
    if abs(p1 - 0.5) < 1e-9:
        outcome = coin
    else:
        assert min(p1, 1 - p1) < 1e-9, f"outcome probability {p1} is neither 0, 1/2 nor 1"
        outcome = round(p1)
    projected = (psi + (1 - 2 * outcome) * image) / 2
    return p1, outcome, projected / np.linalg.norm(projected)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("rounds", [1, 2])
def test_statevector_matches_tableau_at_d3(scheme, rounds):
    _, diag, logical = scheme_circuit(3, scheme, rounds)
    program = lower(diag)
    edges = [edge for q in range(N_QUBITS) for edge in program.structure.world_edges(q)]
    rng = random.Random(f"{scheme}{rounds}")
    kinds = set()
    for shot in range(16):
        seed = rng.randint(0, 999)
        errors = PauliErrorSet.of(diag, [(rng.choice(edges), rng.choice("XYZ"))
                                         for _ in range(1 + shot % 2)])
        record = run(program, errors, seed=seed, shot=shot, measure_logical=logical)
        psi = tableau = None
        for index, instr in enumerate(program.instructions(errors)):
            if isinstance(instr, Prepare):
                psi = product_state(dict(instr.pattern))
                tableau = prepare(dict(instr.pattern))
            elif isinstance(instr, ApplyPauli):
                psi = apply_word(psi, ((instr.qubit, instr.letter),))
                tableau.apply_pauli(PauliOperator.single(N_QUBITS, instr.qubit, instr.letter))
            else:
                coin = counter_bit(seed, shot, f"m{index}")
                p1, outcome, psi = measure(psi, instr.op, coin)
                tableau.measure(instr.op, random_bit=coin)
                if record.forced[instr.check_id]:
                    assert min(p1, 1 - p1) < 1e-9, (instr.check_id, p1)
                else:
                    assert abs(p1 - 0.5) < 1e-9, (instr.check_id, p1)
                assert record.outcomes[instr.check_id] == outcome, instr.check_id
                kinds.add(record.forced[instr.check_id])
        coin = counter_bit(seed, shot, "logical")
        _, outcome, psi = measure(psi, logical, coin)
        assert record.logical_y == outcome
        tableau.measure(logical, random_bit=coin)
        for stabilizer in tableau.stabilizers():
            assert np.allclose(apply_word(psi, stabilizer.paulis, stabilizer.sign), psi)
    assert kinds == {True, False}
