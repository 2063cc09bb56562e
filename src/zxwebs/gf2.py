"""GF(2) linear algebra on rows held as Python ints: bit c of a row is column c.

Every function takes a :class:`BitMatrix` and int vectors and returns ints;
the module needs only the standard library. Every function that eliminates
reduces its matrix's rows in place, to the RREF :func:`rref` leaves. Where
only the pivot columns and rows of an RREF are read, rows go sparsest
first: those depend on the row space and column order alone, and sparse
pivots make less fill.
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

    - Buckets: a row belongs under its first searched column, the one of
      its set bits that comes first in ``col_order``. With no order, or a
      prefix ``range(m)`` of the columns as ``solve_affine`` searches, that
      is its lowest set bit, if below m. Otherwise ``col_order`` is split
      into ascending runs, one mask each, and the bucket is the lowest set
      bit of the first run mask the row meets: one AND per run until a hit.
      The rows never leave column space, so nothing is mapped back. The
      orders the pipeline makes have 1 or 2 runs; an order of many short
      runs, such as a reversed one, is still exact but slower.
    - Forward, the searched columns c in order: each non-pivot row is
      chained in its bucket. At the visit of c, the non-pivot rows with a
      1 at c are exactly bucket c: every earlier column was a pivot
      column, cleared from all non-pivot rows, or had no 1 in any of them,
      and later XORs combine only rows that were non-pivot at those visits.
      The pivot is the bucket's row with the lowest current position,
      swapped in by two position lists. It is XORed into the bucket's other
      rows, each of which then moves to its new bucket.
    - Back-substitution, pivots in reverse: final_k = fwd_k XOR final_t for
      every later pivot column c_t set in fwd_k, if any. The rows are then
      listed in position order.

    Why the two agree. The loop XORs a pivot row into the rows below it
    exactly as the forward phase does, so the pivot choices, the swaps and
    every non-pivot row (the history tail of ``solve_affine`` included)
    replay it. Pivot row k of the loop stays in span(fwd_k, fwd_k+1, ...)
    and ends with a 1 at c_k and 0 at every other pivot column. The forward
    rows are in echelon form at the pivot columns, so that span holds just
    one such row, and back-substitution builds it.
    """
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    order, runs = range(n_cols), None
    if col_order is not None:
        # a repeated column finds no 1 below the pivots: visit it once
        col_order = list(dict.fromkeys(operator.index(c) for c in col_order))
        for c in col_order:
            if not 0 <= c < n_cols:
                raise ValueError(f"column {c} is outside [0, {n_cols})")
        order = range(len(col_order))
        if col_order != list(order):
            order, runs, prev = col_order, [], n_cols
            for c in col_order:  # one mask per ascending run of the order
                if c < prev:
                    runs.append(0)
                runs[-1] |= 1 << c
                prev = c
    if n_rows == 0:
        return []
    rows = matrix.rows
    # a bucket key past the searched columns (or -1 for none) files no row
    bound = len(order) if runs is None else n_cols
    # head[c] -> nxt[i] -> ...: the non-pivot rows whose first searched 1 is at c
    head = [-1] * bound
    nxt = [-1] * n_rows
    for i, v in enumerate(rows):
        j = (v & -v).bit_length() - 1 if runs is None else _bucket(v, runs)
        if 0 <= j < bound:
            nxt[i] = head[j]
            head[j] = i
    pos = list(range(n_rows))  # row id -> position
    at = list(range(n_rows))   # position -> row id
    pivot_cols: list[int] = []
    for c in order:
        p = head[c]
        if p < 0:
            continue
        k = len(pivot_cols)
        if nxt[p] >= 0:  # a bucket of one row only swaps
            hits = [p]
            while (p := nxt[p]) >= 0:
                hits.append(p)
            p = min(hits, key=pos.__getitem__)
            pivot = rows[p]
            for i in hits:
                if i != p:
                    rows[i] = v = rows[i] ^ pivot
                    j = (v & -v).bit_length() - 1 if runs is None else _bucket(v, runs)
                    if 0 <= j < bound:
                        nxt[i] = head[j]
                        head[j] = i
        q, s = pos[p], at[k]
        at[k], at[q], pos[p], pos[s] = p, s, k, q
        pivot_cols.append(c)
    del head, nxt, pos
    later = 0
    row_of = {}
    for c, p in zip(reversed(pivot_cols), reversed(at[: len(pivot_cols)])):
        v = rows[p]
        if w := v & later:
            for j in ones(w):
                v ^= rows[row_of[j]]
            rows[p] = v
        later |= 1 << c
        row_of[c] = p
    rows[:] = [rows[i] for i in at]
    return pivot_cols


def _bucket(v: int, runs: list[int]) -> int:
    """The first column of ``v`` in the order whose ascending runs are ``runs``, or -1."""
    for m in runs:
        if w := v & m:
            return (w & -w).bit_length() - 1
    return -1


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
        if w := row & free:
            for f in ones(w):
                support[f].append(c)
    return [from_ones(support[f], n_cols) for f in free_cols]


def solve_affine(matrix: BitMatrix, rhs: Sequence[int]) -> tuple[int | None, list[int]]:
    """Solve A x = b over GF(2), with b given as one 0/1 entry per row.

    Returns (x, []) with the particular solution obtained by zeroing free
    variables, as an int, or (None, witness) where witness lists indices of
    the input rows whose XOR yields an inconsistent 0 = 1 equation. Only an
    inconsistent system is reduced a second time, in row order with an
    identity tail [A | b | I] that records the row history.

    A consistent system reduces ``matrix.rows`` in place to the RREF of A,
    as :func:`rref` leaves it, so a later elimination of A has little left
    to do; an inconsistent one leaves ``matrix`` as it was.
    """
    n_cols, n_rows = matrix.n_cols, matrix.n_rows
    if len(rhs) != n_rows:
        raise ValueError(f"rhs has {len(rhs)} entries for {n_rows} rows")
    for history in (False, True):
        # a row with nothing to append is shared with ``matrix``, not copied
        aug = BitMatrix(n_cols + 1 + history * n_rows, [
            row | (b & 1) << n_cols | history << (n_cols + 1 + i) if b & 1 or history else row
            for i, (row, b) in enumerate(zip(matrix.rows, rhs))])
        if not history:
            aug.rows.sort(key=int.bit_count)
        pivot_cols = rref(aug, col_order=range(n_cols))
        bad = next((row for row in aug.rows[len(pivot_cols):] if row >> n_cols & 1), None)
        if bad is None:
            # read x off the b bits, then clear them: the reduced [A | b] becomes A's RREF
            x, rows = 0, aug.rows
            for k, c in enumerate(pivot_cols):
                if rows[k] >> n_cols & 1:
                    x |= 1 << c
                    rows[k] ^= 1 << n_cols
            matrix.rows[:] = rows
            return x, []
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
