"""Bit-packed GF(2) linear algebra: rows packed into uint64 words, reduced as Python ints."""

from __future__ import annotations

import operator

import numpy as np

_WORD = 64
_ONE = np.uint64(1)
# Column c is bit c % 64 of word c // 64. Little-endian words viewed as bytes
# put it at bit c % 8 of byte c // 8: numpy's "little" bit order.
_WORDS = np.dtype("<u8")
# Rows packed or unpacked per numpy call, so no uint8 temporary is full-size.
_BLOCK = 512


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
        dense = np.atleast_2d(np.asarray(dense))
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
    """Write the columns of ``dense`` mod 2 into the leading bits of ``words``."""
    for start in range(0, len(dense), _BLOCK):
        block = np.asarray(dense[start : start + _BLOCK], dtype=np.uint8) & 1
        packed = np.packbits(block, axis=1, bitorder="little")
        words[start : start + _BLOCK].view(np.uint8)[:, : packed.shape[1]] = packed


def _unpack(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Rows of packed words as a dense uint8 matrix with ``n_cols`` columns."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n_cols, bitorder="little")


def _set_bits(words: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit (rows[k], cols[k]) for every k; each row may appear once."""
    cols = np.asarray(cols)
    words[rows, cols // _WORD] |= _ONE << (cols % _WORD).astype(np.uint64)


def _bits(x: int):
    """Indices of the set bits of ``x``, highest first."""
    while x:
        i = x.bit_length() - 1
        yield i
        x ^= 1 << i


def rref(matrix: BitMatrix, col_order: list[int] | None = None) -> list[int]:
    """Reduce ``matrix`` in place to RREF, visiting columns in ``col_order``.

    Returns the pivot columns in elimination order; pivot k lives in row k.
    Raises ``ValueError`` for a column outside ``[0, n_cols)``.

    The result is bit for bit that of the textbook loop: for each column in
    turn, swap the first row at or below position k with a 1 there into
    position k, XOR it into every other row with a 1 there, and move on to
    k + 1. The kernel runs that loop in two phases on rows held as Python
    ints, because the matrices are mostly zeros.

    - Forward: for each searched column, an int over row ids marks the
      non-pivot rows with a 1 there. The pivot is the marked row with the
      lowest current position, swapped in by two position lists. It is
      XORed only into the other marked rows, and the marks change only at
      the pivot row's own columns not yet visited.
    - Back-substitution, pivots in reverse: final_k = fwd_k XOR final_t for
      every later pivot column c_t set in fwd_k. Rows are written back in
      position order.

    Why the two agree. The loop XORs a pivot row into the rows below it
    exactly as the forward phase does, so the pivot choices, the swaps and
    every non-pivot row (the history tail of ``solve_affine`` included)
    replay it. Pivot row k of the loop stays in span(fwd_k, fwd_k+1, ...)
    and ends with a 1 at c_k and 0 at every other pivot column. The forward
    rows are in echelon form at the pivot columns, so that span holds just
    one such row, and back-substitution builds it.
    """
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    if col_order is None:
        col_order = range(n_cols)
    else:
        # a repeated column finds no 1 below the pivots: visit it once
        col_order = list(dict.fromkeys(operator.index(c) for c in col_order))
        for c in col_order:
            if not 0 <= c < n_cols:
                raise ValueError(f"column {c} is outside [0, {n_cols})")
    if n_rows == 0:
        return []
    row_bytes = matrix.data.shape[1] * _WORDS.itemsize
    buf = memoryview(matrix.data).cast("B")
    rows = [int.from_bytes(buf[i * row_bytes : (i + 1) * row_bytes], "little")
            for i in range(n_rows)]
    unvisited = 0  # searched columns not yet visited, as one int
    for c in col_order:
        unvisited |= 1 << c
    # marked[c]: the non-pivot rows with a 1 in column c, as an int over row ids
    marked = [0] * n_cols
    for i, v in enumerate(rows):
        for c in _bits(v & unvisited):
            marked[c] |= 1 << i
    pos = list(range(n_rows))  # row id -> position
    at = list(range(n_rows))   # position -> row id
    pivot_cols: list[int] = []
    for c in col_order:
        k = len(pivot_cols)
        if k >= n_rows:
            break
        unvisited ^= 1 << c
        hits, marked[c] = marked[c], 0
        if not hits:
            continue
        p = min(_bits(hits), key=pos.__getitem__)
        q, s = pos[p], at[k]
        at[k], at[q], pos[p], pos[s] = p, s, k, q
        pivot = rows[p]
        for i in _bits(hits ^ (1 << p)):
            rows[i] ^= pivot
        for j in _bits(pivot & unvisited):
            marked[j] ^= hits
        pivot_cols.append(c)
    del marked
    later = 0
    row_of = {}
    for c, p in zip(reversed(pivot_cols), reversed(at[: len(pivot_cols)])):
        v = rows[p]
        for j in _bits(v & later):
            v ^= rows[row_of[j]]
        rows[p] = v
        later |= 1 << c
        row_of[c] = p
    for t, i in enumerate(at):
        buf[t * row_bytes : (t + 1) * row_bytes] = rows[i].to_bytes(row_bytes, "little")
    return pivot_cols


def rank(dense: np.ndarray) -> int:
    return len(rref(BitMatrix.from_dense(dense)))


def nullspace(dense: np.ndarray) -> np.ndarray:
    """Basis of the right null space of ``dense`` over GF(2), one vector per row.

    Deterministic: free columns are taken in ascending index order and each
    basis vector is the standard back-substituted vector for one free column.
    """
    m = BitMatrix.from_dense(dense)
    n_cols = m.n_cols
    pivot_cols = rref(m)
    is_free = np.ones(n_cols, dtype=bool)
    is_free[pivot_cols] = False
    free_cols = np.flatnonzero(is_free)
    basis = np.zeros((len(free_cols), n_cols), dtype=np.uint8)
    basis[np.arange(len(free_cols)), free_cols] = 1
    # pivot row k holds the free-column coefficients of pivot variable k
    for start in range(0, len(pivot_cols), _BLOCK):
        cols = pivot_cols[start : start + _BLOCK]
        block = _unpack(m.data[start : start + len(cols)], n_cols)
        basis[:, cols] = block[:, free_cols].T
    return basis


def solve_affine(
    dense: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray | None, list[int]]:
    """Solve A x = b over GF(2).

    Returns (solution, []) with the particular solution obtained by zeroing
    free variables, or (None, witness) where witness lists indices of the
    input rows whose XOR yields an inconsistent 0 = 1 equation.
    """
    dense = np.atleast_2d(np.asarray(dense))
    rhs = np.asarray(rhs, dtype=np.uint8) & 1
    n_rows, n_cols = dense.shape
    if rhs.shape != (n_rows,):
        raise ValueError(f"rhs has shape {rhs.shape} for {n_rows} rows")
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
