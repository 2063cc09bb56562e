"""Dense bit-packed GF(2) linear algebra (rows packed into uint64 words)."""

from __future__ import annotations

import numpy as np

_WORD = 64
_ONE = np.uint64(1)
# Column c is bit c % 64 of word c // 64. Little-endian words viewed as bytes
# put it at bit c % 8 of byte c // 8: numpy's "little" bit order.
_WORDS = np.dtype("<u8")


class BitMatrix:
    """A dense GF(2) matrix whose rows are packed into 64-bit words.

    Row operations act on whole words; single-bit access is provided for
    pivot bookkeeping.
    """

    def __init__(self, n_rows: int, n_cols: int):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._words = max(1, (n_cols + _WORD - 1) // _WORD)
        self.data = np.zeros((n_rows, self._words), dtype=_WORDS)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8) & 1)
        m = cls(dense.shape[0], dense.shape[1])
        _pack(m.data, dense)
        return m

    def get(self, r: int, c: int) -> int:
        w, b = divmod(c, _WORD)
        return int((self.data[r, w] >> np.uint64(b)) & _ONE)

    def set(self, r: int, c: int, value: int) -> None:
        w, b = divmod(c, _WORD)
        if value & 1:
            self.data[r, w] |= _ONE << np.uint64(b)
        else:
            self.data[r, w] &= ~(_ONE << np.uint64(b))

    def column_bits(self, c: int) -> np.ndarray:
        """All bits of column c as a uint8 vector of length n_rows."""
        w, b = divmod(c, _WORD)
        return ((self.data[:, w] >> np.uint64(b)) & _ONE).astype(np.uint8)

    def swap_rows(self, i: int, j: int) -> None:
        if i != j:
            self.data[[i, j]] = self.data[[j, i]]

    def to_dense(self) -> np.ndarray:
        return _unpack(self.data, self.n_cols)


def _pack(words: np.ndarray, dense: np.ndarray) -> None:
    """Write the 0/1 columns of ``dense`` into the leading bits of ``words``."""
    packed = np.packbits(dense, axis=1, bitorder="little")
    words.view(np.uint8)[:, : packed.shape[1]] = packed


def _unpack(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Rows of packed words as a dense uint8 matrix with ``n_cols`` columns."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n_cols, bitorder="little")


def _set_bits(words: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit (rows[k], cols[k]) for every k; each row may appear once."""
    cols = np.asarray(cols)
    words[rows, cols // _WORD] |= _ONE << (cols % _WORD).astype(np.uint64)


def rref(matrix: BitMatrix, col_order: list[int] | None = None) -> list[int]:
    """Reduce ``matrix`` in place to RREF, visiting columns in ``col_order``.

    Returns the pivot columns in elimination order; pivot k lives in row k.
    """
    if col_order is None:
        col_order = list(range(matrix.n_cols))
    pivot_cols: list[int] = []
    r = 0
    for c in col_order:
        if r >= matrix.n_rows:
            break
        col = matrix.column_bits(c)
        hits = np.nonzero(col[r:])[0]
        if hits.size == 0:
            continue
        matrix.swap_rows(r, r + int(hits[0]))
        col = matrix.column_bits(c)
        col[r] = 0
        ones = np.nonzero(col)[0]
        if ones.size:
            matrix.data[ones] ^= matrix.data[r]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def rank(dense: np.ndarray) -> int:
    return len(rref(BitMatrix.from_dense(dense)))


def nullspace(dense: np.ndarray) -> np.ndarray:
    """Basis of the right null space of ``dense`` over GF(2), one vector per row.

    Deterministic: free columns are taken in ascending index order and each
    basis vector is the standard back-substituted vector for one free column.
    """
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8) & 1)
    n_cols = dense.shape[1]
    m = BitMatrix.from_dense(dense)
    pivot_cols = rref(m)
    is_free = np.ones(n_cols, dtype=bool)
    is_free[pivot_cols] = False
    free_cols = np.flatnonzero(is_free)
    basis = np.zeros((len(free_cols), n_cols), dtype=np.uint8)
    basis[np.arange(len(free_cols)), free_cols] = 1
    # pivot row k holds the free-column coefficients of pivot variable k
    basis[:, pivot_cols] = _unpack(m.data[: len(pivot_cols)], n_cols)[:, free_cols].T
    return basis


def solve_affine(
    dense: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray | None, list[int]]:
    """Solve A x = b over GF(2).

    Returns (solution, []) with the particular solution obtained by zeroing
    free variables, or (None, witness) where witness lists indices of the
    input rows whose XOR yields an inconsistent 0 = 1 equation.
    """
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8) & 1)
    rhs = np.asarray(rhs, dtype=np.uint8) & 1
    n_rows, n_cols = dense.shape
    # augmented block [A | b | I]: the identity tail records row history
    aug = BitMatrix(n_rows, n_cols + 1 + n_rows)
    _pack(aug.data, dense)
    rows = np.arange(n_rows)
    _set_bits(aug.data, np.flatnonzero(rhs), n_cols)
    _set_bits(aug.data, rows, n_cols + 1 + rows)
    pivot_cols = rref(aug, col_order=list(range(n_cols)))
    n_pivots = len(pivot_cols)
    rhs_bits = aug.column_bits(n_cols)
    inconsistent = np.flatnonzero(rhs_bits[n_pivots:])
    if inconsistent.size:
        r = n_pivots + int(inconsistent[0])
        history = _unpack(aug.data[r : r + 1], aug.n_cols)[0, n_cols + 1 :]
        return None, np.flatnonzero(history).tolist()
    x = np.zeros(n_cols, dtype=np.uint8)
    x[pivot_cols] = rhs_bits[:n_pivots]
    return x, []


def lexmin_in_coset(
    x0: np.ndarray, basis: np.ndarray, col_priority: list[int]
) -> np.ndarray:
    """The lexicographically minimal vector of x0 + span(basis).

    Minimality is with respect to ``col_priority``: earlier columns are
    zeroed first whenever the coset allows it.
    """
    x = (np.asarray(x0, dtype=np.uint8) & 1).copy()
    basis = np.atleast_2d(np.asarray(basis, dtype=np.uint8) & 1)
    if basis.size == 0:
        return x
    m = BitMatrix.from_dense(basis)
    pivot_cols = rref(m, col_order=col_priority)
    rows = m.to_dense()
    for row_idx, pc in enumerate(pivot_cols):
        if x[pc]:
            x ^= rows[row_idx]
    return x
