import numpy as np
import pytest

from zxwebs.pauli import PauliOperator, phase_exponent

from conftest import assert_frozen_record

X = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1), "I": (0, 0)}


@pytest.mark.parametrize("a,b,expected", [
    ("X", "Y", 1), ("Y", "X", 3),
    ("Y", "Z", 1), ("Z", "Y", 3),
    ("Z", "X", 1), ("X", "Z", 3),
    ("X", "X", 0), ("Y", "Y", 0), ("Z", "Z", 0),
    ("I", "X", 0), ("Z", "I", 0),
])
def test_single_qubit_phase_exponents(a, b, expected):
    assert phase_exponent(*X[a], *X[b]) == expected


def test_product_of_commuting_factors():
    a = PauliOperator.from_dict(3, {0: "X", 1: "X"})
    b = PauliOperator.from_dict(3, {1: "X", 2: "Z"})
    prod = a * b
    assert prod == PauliOperator.from_dict(3, {0: "X", 2: "Z"})
    assert prod.sign == 1


def test_anticommuting_product_raises():
    z0 = PauliOperator.single(1, 0, "Z")
    x0 = PauliOperator.single(1, 0, "X")
    with pytest.raises(ValueError, match="anti-Hermitian"):
        _ = z0 * x0


def test_xy_product_has_minus_sign_squared_away():
    # (X*Y)*(Y*X) routes through ±iZ; squaring any Pauli gives +I
    y = PauliOperator.single(2, 0, "Y")
    assert y * y == PauliOperator(2)
    neg = PauliOperator.single(2, 1, "X", sign=-1)
    assert neg * neg == PauliOperator(2)


def test_commutes_with():
    zz = PauliOperator.from_dict(2, {0: "Z", 1: "Z"})
    xx = PauliOperator.from_dict(2, {0: "X", 1: "X"})
    zi = PauliOperator.single(2, 0, "Z")
    assert zz.commutes_with(xx)
    assert not zi.commutes_with(xx)


def test_bit_views_and_letter():
    op = PauliOperator.from_dict(4, {0: "X", 1: "Y", 3: "Z"}, sign=-1)
    assert op.x_bits() == {0, 1}
    assert op.z_bits() == {1, 3}
    assert op.letter(2) == "I"
    assert op.weight == 3
    assert str(op) == "-X0 Y1 Z3"


def test_validation():
    with pytest.raises(ValueError):
        PauliOperator.from_dict(2, {5: "X"})
    with pytest.raises(ValueError):
        PauliOperator.from_dict(2, {0: "Q"})
    with pytest.raises(ValueError):
        PauliOperator(2, ((0, "X"), (0, "Z")))
    with pytest.raises(ValueError):
        PauliOperator(2, sign=3)


def int16_word_product(xa, za, xb, zb):
    """The per-qubit int16 phase sum the row form of phase_exponent replaced."""
    a, b, c, e = (v.astype(np.int16) for v in (xa, za, xb, zb))
    return int(np.sum(a * b + c * e + 2 * b * c - (a ^ c) * (b ^ e))) % 4


# -- converters between 0/1 numpy rows and int masks (bit q is qubit q) --


def mask(row):
    """The int mask of a 0/1 row."""
    packed = np.packbits(np.asarray(row, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def row(m, n):
    """The 0/1 uint8 row of length n of an int mask."""
    packed = np.frombuffer(m.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def vectors(op):
    """Dense x and z rows of an operator, and its sign bit."""
    x, z, sign_bit = op.masks
    return row(x, op.n), row(z, op.n), sign_bit


def from_vectors(x, z, sign_bit=0):
    """The operator with dense rows x, z and sign (-1)^sign_bit."""
    return PauliOperator.from_masks(len(x), mask(x), mask(z), sign_bit)


@pytest.mark.parametrize("n", [1, 2, 9, 25, 130])
def test_row_phase_exponent_matches_int16_reference(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        rows = (rng.random((4, n)) < 0.5).astype(np.uint8)
        assert phase_exponent(*map(mask, rows)) == int16_word_product(*rows)
        # a word's exponent is the sum of its qubits' exponents mod 4
        per_qubit = sum(phase_exponent(*map(int, rows[:, q])) for q in range(n))
        assert phase_exponent(*map(mask, rows)) == per_qubit % 4


def test_masks_agree_with_vectors_and_round_trip():
    rng = np.random.default_rng(11)
    letters = ["X", "Y", "Z"]
    for n in (1, 7, 64, 130):
        ops = [PauliOperator.from_dict(
            n, {q: letters[rng.integers(3)] for q in np.flatnonzero(rng.random(n) < 0.4).tolist()},
            sign=int(rng.choice([1, -1]))) for _ in range(20)]
        for a, b in zip(ops, ops[1:]):
            x, z, sign_bit = a.masks
            assert {q for q in range(n) if x >> q & 1} == a.x_bits()
            assert {q for q in range(n) if z >> q & 1} == a.z_bits()
            assert sign_bit == (a.sign == -1)
            assert PauliOperator.from_masks(n, x, z, sign_bit) == a
            assert from_vectors(*vectors(a)) == a
            assert phase_exponent(*a.masks[:2], *b.masks[:2]) == \
                int16_word_product(*vectors(a)[:2], *vectors(b)[:2])


@pytest.mark.parametrize("args, message", [
    ((3, ((0, "X"),), 2), "sign must be"),
    ((3, ((0, "W"),)), "invalid Pauli letter"),
    ((3, ((3, "X"),)), "outside"),
    ((3, ((-1, "X"),)), "outside"),
    ((3, ((1, "X"), (1, "Z"))), "repeated"),
])
def test_pauli_operator_rejects_bad_fields(args, message):
    with pytest.raises(ValueError, match=message):
        PauliOperator(*args)


def test_pauli_operator_sorts_paulis_and_compares_by_value():
    op = PauliOperator(4, ((3, "Z"), (0, "X")), sign=-1)
    assert op.paulis == ((0, "X"), (3, "Z"))
    assert op == PauliOperator(n=4, paulis=((0, "X"), (3, "Z")), sign=-1)
    assert PauliOperator(2) == PauliOperator(2, (), 1)
    assert repr(op) == "PauliOperator(n=4, paulis=((0, 'X'), (3, 'Z')), sign=-1)"
    assert_frozen_record(op, "n paulis sign")


def test_from_masks_fills_the_cached_masks():
    op = PauliOperator(4, ((3, "Z"), (0, "X")), sign=-1)
    built = PauliOperator.from_masks(4, 0b0001, 0b1000, 1)
    assert vars(built) == {"masks": (1, 8, 1)}
    assert "masks" not in vars(op)
    assert built == op and hash(built) == hash(op) and op.masks == built.masks
