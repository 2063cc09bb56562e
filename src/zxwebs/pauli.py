"""Sparse signed Pauli operators on n qubits, with int-mask views.

An operator's x and z parts are also held as Python-int masks (bit q is
qubit q), the row format of the stabilizer tableau in :mod:`zxwebs.oracle`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

_LETTERS = ("X", "Y", "Z")
# letter of each 2-bit code x + 2 z
_LETTER_OF_CODE = ("I", "X", "Z", "Y")


def phase_exponent(xa: int, za: int, xb: int, zb: int) -> int:
    """Power of i picked up by the word product P(xa,za) * P(xb,zb).

    Uses the Hermitian convention P(x,z) = i^{xz} X^x Z^z, so on one qubit
    X*Y = iZ gives 1 and Y*X = -iZ gives 3. The arguments are int masks
    (bit q is qubit q). A word's exponent is the sum of its qubits' mod 4,
    so it is a sum of popcounts (Aaronson and Gottesman,
    arXiv:quant-ph/0406196).
    """
    return ((xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
            - ((xa ^ xb) & (za ^ zb)).bit_count()) % 4


class PauliOperator(namedtuple("PauliOperator", "n paulis sign")):
    """A signed Pauli word, stored sparsely as qubit -> letter.

    ``paulis`` holds (qubit, letter) pairs, sorted by qubit. The identity
    has empty support and sign +1. Only Hermitian operators (sign strictly
    in {+1, -1}) are representable. No ``__slots__``: the cached
    :attr:`masks` lives in the instance ``__dict__``.
    """

    def __new__(cls, n: int, paulis: tuple[tuple[int, str], ...] = (), sign: int = 1):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        paulis = tuple(paulis)  # one pass may use up an iterator
        seen = set()
        for q, letter in paulis:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} outside [0, {n})")
            if letter not in _LETTERS:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            if q in seen:
                raise ValueError(f"qubit {q} repeated")
            seen.add(q)
        return super().__new__(cls, n, tuple(sorted(paulis)), sign)

    @classmethod
    def from_dict(cls, n: int, mapping: dict[int, str], sign: int = 1) -> "PauliOperator":
        return cls(n, tuple(mapping.items()), sign)

    @classmethod
    def from_masks(cls, n: int, x: int, z: int, sign_bit: int = 0) -> "PauliOperator":
        """The operator with int masks x, z (bit q is qubit q) and sign (-1)^sign_bit."""
        paulis = tuple((q, _LETTER_OF_CODE[(x >> q & 1) | (z >> q & 1) << 1])
                       for q in range((x | z).bit_length()) if (x | z) >> q & 1)
        op = cls(n, paulis, -1 if sign_bit & 1 else 1)
        op.__dict__["masks"] = (x, z, sign_bit & 1)  # fill the cached view
        return op

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

    @cached_property
    def masks(self) -> tuple[int, int, int]:
        """Int x and z masks (bit q is qubit q), and the sign bit."""
        x = sum(1 << q for q, letter in self.paulis if letter != "Z")
        z = sum(1 << q for q, letter in self.paulis if letter != "X")
        return x, z, 0 if self.sign == 1 else 1

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
        (xa, za, sa), (xb, zb, sb) = self.masks, other.masks
        exponent = (2 * (sa + sb) + phase_exponent(xa, za, xb, zb)) % 4
        if exponent % 2:
            raise ValueError("product is anti-Hermitian (phase ±i); reorder factors")
        return PauliOperator.from_masks(self.n, xa ^ xb, za ^ zb, exponent // 2)

    def negated(self) -> "PauliOperator":
        return PauliOperator(self.n, self.paulis, -self.sign)

    def __str__(self) -> str:
        head = "+" if self.sign == 1 else "-"
        if not self.paulis:
            return head + "I"
        return head + " ".join(f"{letter}{q}" for q, letter in self.paulis)
