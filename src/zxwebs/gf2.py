"""GF(2) linear algebra on rows held as Python ints: bit c of a row is column c.

Dense uint8 matrices are the module's interface; a :class:`BitMatrix` is the
one stored row format in between, and :func:`rref` reduces its rows in place.
"""

from __future__ import annotations

import operator

import numpy as np

# Rows packed or unpacked per numpy call, so no uint8 temporary is full-size.
_BLOCK = 512


class BitMatrix:
    """A GF(2) matrix with ``n_cols`` columns held as one Python int per row.

    Bit c of ``rows[r]`` is entry (r, c); no row has a bit at ``n_cols`` or above.
    """

    def __init__(self, n_cols: int, rows: list[int]):
        self.n_cols = n_cols
        self.rows = rows

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """The rows of a 0/1 matrix, taken mod 2."""
        dense = np.atleast_2d(np.asarray(dense))
        width = (dense.shape[1] + 7) // 8
        rows = []
        for start in range(0, len(dense), _BLOCK):
            block = np.asarray(dense[start : start + _BLOCK], dtype=np.uint8) & 1
            data = np.packbits(block, axis=1, bitorder="little").tobytes()
            rows += [int.from_bytes(data[i * width : (i + 1) * width], "little")
                     for i in range(len(block))]
        return cls(dense.shape[1], rows)

    def to_dense(self) -> np.ndarray:
        return _unpack(self.rows, self.n_cols)


def _unpack(rows: list[int], n_cols: int) -> np.ndarray:
    """Int rows as a dense uint8 matrix with ``n_cols`` columns."""
    width = (n_cols + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n_cols, bitorder="little")


def _bits(x: int):
    """Indices of the set bits of ``x``, highest first."""
    while x:
        i = x.bit_length() - 1
        yield i
        x ^= 1 << i


def rref(matrix: BitMatrix, col_order: list[int] | None = None) -> list[int]:
    """Reduce ``matrix.rows`` in place to RREF, visiting columns in ``col_order``.

    Returns the pivot columns in elimination order; pivot k lives in row k.
    Raises ``ValueError`` for a column outside ``[0, n_cols)``.

    The result is bit for bit that of the textbook loop: for each column in
    turn, swap the first row at or below position k with a 1 there into
    position k, XOR it into every other row with a 1 there, and move on to
    k + 1. The kernel runs that loop in two phases on the int rows, because
    the matrices are mostly zeros.

    - Forward: for each searched column, an int over row ids marks the
      non-pivot rows with a 1 there. The pivot is the marked row with the
      lowest current position, swapped in by two position lists. It is
      XORed only into the other marked rows, and the marks change only at
      the pivot row's own columns not yet visited.
    - Back-substitution, pivots in reverse: final_k = fwd_k XOR final_t for
      every later pivot column c_t set in fwd_k. The rows are then listed
      in position order.

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
    rows = matrix.rows
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
    rows[:] = [rows[i] for i in at]
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
        block = _unpack(m.rows[start : start + len(cols)], n_cols)
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
    # augmented rows [A | b | I]: the identity tail records row history
    aug = BitMatrix(n_cols + 1 + n_rows, [
        row | b << n_cols | 1 << (n_cols + 1 + i)
        for i, (row, b) in enumerate(zip(BitMatrix.from_dense(dense).rows, rhs.tolist()))])
    pivot_cols = rref(aug, col_order=list(range(n_cols)))
    for row in aug.rows[len(pivot_cols):]:
        if row >> n_cols & 1:
            return None, sorted(_bits(row >> (n_cols + 1)))
    x = np.zeros(n_cols, dtype=np.uint8)
    x[pivot_cols] = [row >> n_cols & 1 for row in aug.rows[: len(pivot_cols)]]
    return x, []


def lexmin_in_coset(
    x0: np.ndarray, basis: np.ndarray, col_priority: list[int]
) -> np.ndarray:
    """The lexicographically minimal vector of x0 + span(basis).

    Minimality is with respect to ``col_priority``: earlier columns are
    zeroed first whenever the coset allows it.
    """
    x = BitMatrix.from_dense(x0)
    if np.size(basis):
        m = BitMatrix.from_dense(basis)
        if m.n_cols != x.n_cols:
            raise ValueError(f"basis has {m.n_cols} columns for a vector of {x.n_cols}")
        for row, pc in zip(m.rows, rref(m, col_order=col_priority)):
            if x.rows[0] >> pc & 1:
                x.rows[0] ^= row
    return x.to_dense()[0]
