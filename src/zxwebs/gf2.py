"""GF(2) linear algebra on rows held as Python ints: bit c of a row is column c.

Every function takes a :class:`BitMatrix` and int vectors; only its dense
converters import numpy. Where only the pivot columns and rows of an RREF
are read, rows go sparsest first: those depend on the row space and column
order alone, and sparse pivots make less fill.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence


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
    def from_dense(cls, dense) -> "BitMatrix":
        """The rows of a 0/1 matrix, taken mod 2."""
        import numpy as np
        # row by row, so no masked or packed temporary is full-size
        dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
        return cls(dense.shape[1], [
            int.from_bytes(np.packbits(row & 1, bitorder="little").tobytes(), "little")
            for row in dense])

    def to_dense(self):
        """The rows as a dense uint8 matrix."""
        import numpy as np
        width = (self.n_cols + 7) // 8
        data = b"".join(row.to_bytes(width, "little") for row in self.rows)
        packed = np.frombuffer(data, dtype=np.uint8).reshape(len(self.rows), width)
        return np.unpackbits(packed, axis=1, count=self.n_cols, bitorder="little")


def ones(x: int) -> list[int]:
    """Indices of the set bits of ``x`` >= 0, lowest first.

    Shifted down to its lowest set bit, a banded wide row is a small int,
    whose bits are cleared from the top, so it shrinks as it goes.
    """
    low = (x & -x).bit_length() - 1
    x >>= max(low, 0)
    out = []
    while x:
        i = x.bit_length() - 1
        out.append(low + i)
        x ^= 1 << i
    out.reverse()
    return out


def from_ones(bits: Iterable[int], n_bits: int) -> int:
    """The int with exactly ``bits`` set, for bits below ``n_bits``."""
    buf = bytearray((n_bits + 7) // 8)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def rref(matrix: BitMatrix, col_order: list[int] | None = None) -> list[int]:
    """Reduce ``matrix.rows`` in place to RREF, visiting columns in ``col_order``.

    Returns the pivot columns in elimination order; pivot k lives in row k.
    Raises ``ValueError`` for a column outside ``[0, n_cols)``.

    The result is bit for bit that of the textbook loop: for each column in
    turn, swap the first row at or below position k with a 1 there into
    position k, XOR it into every other row with a 1 there, and move on to
    k + 1. The kernel runs that loop in two phases on the int rows, because
    the matrices are mostly zeros.

    - Forward: for each searched column, a set of row ids marks the
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
    unvisited = from_ones(col_order, n_cols)  # searched columns not yet visited
    # marked[c]: the non-pivot rows with a 1 in column c
    marked: dict[int, set[int]] = {}
    for i, v in enumerate(rows):
        for c in ones(v & unvisited):
            marked.setdefault(c, set()).add(i)
    pos = list(range(n_rows))  # row id -> position
    at = list(range(n_rows))   # position -> row id
    pivot_cols: list[int] = []
    for c in col_order:
        k = len(pivot_cols)
        if k >= n_rows:
            break
        unvisited ^= 1 << c
        hits = marked.pop(c, None)
        if not hits:
            continue
        p = min(hits, key=pos.__getitem__)
        q, s = pos[p], at[k]
        at[k], at[q], pos[p], pos[s] = p, s, k, q
        pivot = rows[p]
        for i in hits:
            if i != p:
                rows[i] ^= pivot
        # every such column marks p, so the XOR unmarks it
        for j in ones(pivot & unvisited):
            marked[j] ^= hits
        pivot_cols.append(c)
    del marked
    later = 0
    row_of = {}
    for c, p in zip(reversed(pivot_cols), reversed(at[: len(pivot_cols)])):
        v = rows[p]
        for j in ones(v & later):
            v ^= rows[row_of[j]]
        rows[p] = v
        later |= 1 << c
        row_of[c] = p
    rows[:] = [rows[i] for i in at]
    return pivot_cols


def rank(matrix: BitMatrix) -> int:
    """The rank of ``matrix``; like :func:`rref`, it reduces the rows in place."""
    matrix.rows.sort(key=int.bit_count)  # sparsest first (module docstring)
    return len(rref(matrix))


def nullspace(matrix: BitMatrix) -> list[int]:
    """Basis of the right null space of ``matrix``, one int per vector.

    Deterministic: free columns are taken in ascending index order and each
    basis vector is the standard back-substituted vector for one free column.
    Like :func:`rref`, it reduces ``matrix.rows`` in place, through :func:`rank`.
    """
    n_cols = matrix.n_cols
    # in natural column order, pivot k is the lowest set bit of RREF row k
    pivot_cols = [(row & -row).bit_length() - 1 for row in matrix.rows[:rank(matrix)]]
    free_cols = sorted(set(range(n_cols)).difference(pivot_cols))
    free = from_ones(free_cols, n_cols)
    # pivot row k holds the free-column coefficients of pivot variable k
    support = {f: [f] for f in free_cols}
    for row, c in zip(matrix.rows, pivot_cols):
        for f in ones(row & free):
            support[f].append(c)
    return [from_ones(support[f], n_cols) for f in free_cols]


def solve_affine(matrix: BitMatrix, rhs: Sequence[int]) -> tuple[int | None, list[int]]:
    """Solve A x = b over GF(2), with b given as one 0/1 entry per row.

    Returns (x, []) with the particular solution obtained by zeroing free
    variables, as an int, or (None, witness) where witness lists indices of
    the input rows whose XOR yields an inconsistent 0 = 1 equation. Only an
    inconsistent system is reduced a second time, in row order with an
    identity tail [A | b | I] that records the row history. ``matrix`` is
    left as it was.
    """
    n_cols, n_rows = matrix.n_cols, matrix.n_rows
    if len(rhs) != n_rows:
        raise ValueError(f"rhs has {len(rhs)} entries for {n_rows} rows")
    for history in (False, True):
        aug = BitMatrix(n_cols + 1 + history * n_rows, [
            row | (b & 1) << n_cols | history << (n_cols + 1 + i)
            for i, (row, b) in enumerate(zip(matrix.rows, rhs))])
        if not history:
            aug.rows.sort(key=int.bit_count)
        pivot_cols = rref(aug, col_order=range(n_cols))
        bad = next((row for row in aug.rows[len(pivot_cols):] if row >> n_cols & 1), None)
        if bad is None:
            return from_ones((c for c, row in zip(pivot_cols, aug.rows)
                              if row >> n_cols & 1), n_cols), []
        if history:
            return None, ones(bad >> (n_cols + 1))


def lexmin_in_coset(x: int, basis: BitMatrix, col_priority: Iterable[int]) -> int:
    """The lexicographically minimal vector of x + span(basis).

    Minimality is with respect to ``col_priority``: earlier columns are
    zeroed first whenever the coset allows it. Raises ``ValueError`` when
    ``x`` has a bit at or above ``basis.n_cols``. Like :func:`rref`, it
    reduces ``basis.rows`` in place.
    """
    if x >> basis.n_cols:
        raise ValueError(f"x has bits beyond the basis's {basis.n_cols} columns")
    if not basis.rows:
        return x
    for row, pc in zip(basis.rows, rref(basis, col_order=col_priority)):
        if x >> pc & 1:
            x ^= row
    return x
