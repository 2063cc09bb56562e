"""Sparse signed Pauli operators on n qubits."""

from __future__ import annotations

from dataclasses import dataclass, field

_LETTERS = ("X", "Y", "Z")
_XZ_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def phase_exponent(xa: int, za: int, xb: int, zb: int) -> int:
    """Power of i picked up by P(xa,za) * P(xb,zb) on one qubit.

    Uses the Hermitian convention P(x,z) = i^{xz} X^x Z^z, so e.g.
    X*Y = iZ gives 1 and Y*X = -iZ gives 3.
    """
    return (xa * za + xb * zb + 2 * za * xb - (xa ^ xb) * (za ^ zb)) % 4


@dataclass(frozen=True)
class PauliOperator:
    """A signed Pauli word, stored sparsely as qubit -> letter.

    The identity has empty support and sign +1. Only Hermitian operators
    (sign strictly in {+1, -1}) are representable.
    """

    n: int
    paulis: tuple[tuple[int, str], ...] = field(default=())
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        seen = set()
        for q, letter in self.paulis:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} outside [0, {self.n})")
            if letter not in _LETTERS:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            if q in seen:
                raise ValueError(f"qubit {q} repeated")
            seen.add(q)
        object.__setattr__(self, "paulis", tuple(sorted(self.paulis)))

    @classmethod
    def from_dict(cls, n: int, mapping: dict[int, str], sign: int = 1) -> "PauliOperator":
        return cls(n, tuple(mapping.items()), sign)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, sign: int = 1) -> "PauliOperator":
        return cls(n, ((qubit, letter),), sign)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(q for q, _ in self.paulis)

    @property
    def weight(self) -> int:
        return len(self.paulis)

    def letter(self, qubit: int) -> str:
        for q, letter in self.paulis:
            if q == qubit:
                return letter
        return "I"

    def x_bits(self) -> frozenset[int]:
        return frozenset(q for q, letter in self.paulis if letter in ("X", "Y"))

    def z_bits(self) -> frozenset[int]:
        return frozenset(q for q, letter in self.paulis if letter in ("Z", "Y"))

    def commutes_with(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError("operators act on different qubit counts")
        anti = len(self.x_bits() & other.z_bits()) + len(self.z_bits() & other.x_bits())
        return anti % 2 == 0

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("operators act on different qubit counts")
        exponent = 0 if self.sign == 1 else 2
        exponent += 0 if other.sign == 1 else 2
        word: dict[int, str] = dict(self.paulis)
        for q, letter in other.paulis:
            xa, za = _XZ_BITS[word.get(q, "I")]
            xb, zb = _XZ_BITS[letter]
            exponent += phase_exponent(xa, za, xb, zb)
            combined = _FROM_BITS[(xa ^ xb, za ^ zb)]
            if combined == "I":
                word.pop(q, None)
            else:
                word[q] = combined
        exponent %= 4
        if exponent % 2:
            raise ValueError("product is anti-Hermitian (phase ±i); reorder factors")
        return PauliOperator(self.n, tuple(word.items()), 1 if exponent == 0 else -1)

    def negated(self) -> "PauliOperator":
        return PauliOperator(self.n, self.paulis, -self.sign)

    def __str__(self) -> str:
        head = "+" if self.sign == 1 else "-"
        if not self.paulis:
            return head + "I"
        return head + " ".join(f"{letter}{q}" for q, letter in self.paulis)
