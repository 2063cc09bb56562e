import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from zxwebs import gf2, oracle, sampler, webs
from zxwebs.diagram import Kind
from zxwebs.surface import (
    SCHEMES,
    correlator_boundary_condition,
    logical_operator,
    logical_operators,
    scheme_circuit,
)

from conftest import from_dense, to_dense

# the kernel under test, held before any test monkeypatches gf2.rref
KERNEL = gf2.rref


def reference_rank(a):
    """Independent mod-2 rank via fraction-free numpy elimination."""
    a = (np.array(a, dtype=np.int64) % 2).copy()
    rank = 0
    for col in range(a.shape[1]):
        rows = np.nonzero(a[rank:, col])[0]
        if rows.size == 0:
            continue
        p = rank + rows[0]
        a[[rank, p]] = a[[p, rank]]
        for r in range(a.shape[0]):
            if r != rank and a[r, col]:
                a[r] = (a[r] + a[rank]) % 2
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def random_matrix(rng, rows, cols, density=0.4):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def packed(dense):
    """The int rows of a 0/1 matrix or vector."""
    return from_dense(dense)


def unpacked(rows, n_cols):
    """Int rows as a dense uint8 matrix."""
    return to_dense(gf2.BitMatrix(n_cols, list(rows)))


def test_bitmatrix_round_trip():
    rng = np.random.default_rng(0)
    for rows, cols in [(1, 1), (3, 64), (5, 65), (7, 200)]:
        dense = random_matrix(rng, rows, cols)
        packed = from_dense(dense)
        assert np.array_equal(to_dense(packed), dense)
        assert packed.rows[0] & 1 == dense[0, 0]
        assert (packed.n_rows, packed.n_cols) == (rows, cols)


def test_bitmatrix_set_get():
    m = gf2.BitMatrix(130, [0, 0])
    m.rows[1] |= 1 << 129
    assert to_dense(m)[1, 129] == 1 and to_dense(m).sum() == 1
    m.rows[1] &= ~(1 << 129)
    assert not to_dense(m).any()


@pytest.mark.parametrize("shape", [(4, 6), (10, 10), (20, 13), (13, 20), (40, 70)])
def test_rank_matches_reference(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(10):
        a = random_matrix(rng, *shape)
        assert gf2.rank(packed(a)) == reference_rank(a)


def test_nullspace_is_a_null_basis():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_matrix(rng, 12, 18)
        basis = gf2.nullspace(packed(a))
        assert len(basis) == 18 - gf2.rank(packed(a))
        for v in unpacked(basis, 18):
            assert not ((a @ v) % 2).any()
        assert gf2.rank(gf2.BitMatrix(18, basis)) == len(basis)


def test_solve_affine_consistent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_matrix(rng, 9, 14)
        x = (rng.random(14) < 0.5).astype(np.uint8)
        b = (a @ x) % 2
        sol, witness = gf2.solve_affine(packed(a), b.tolist())
        assert witness == []
        assert np.array_equal((a @ unpacked([sol], 14)[0]) % 2, b)


def test_solve_affine_witness_certifies_inconsistency():
    # x0 = 0 and x0 = 1 cannot both hold; a third row is a bystander
    a = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    b = np.array([0, 1, 0], dtype=np.uint8)
    sol, witness = gf2.solve_affine(packed(a), b.tolist())
    assert sol is None
    assert witness
    combo_lhs = np.zeros(2, dtype=np.uint8)
    combo_rhs = 0
    for i in witness:
        combo_lhs ^= a[i]
        combo_rhs ^= b[i]
    assert not combo_lhs.any() and combo_rhs == 1


def test_lexmin_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(15):
        basis = random_matrix(rng, 4, 9)
        x0 = (rng.random(9) < 0.5).astype(np.uint8)
        priority = list(rng.permutation(9))
        got = unpacked([gf2.lexmin_in_coset(packed(x0).rows[0], packed(basis), priority)], 9)[0]
        coset = []
        for picks in itertools.product((0, 1), repeat=4):
            v = x0.copy()
            for bit, row in zip(picks, basis):
                if bit:
                    v ^= row
            coset.append(tuple(v[c] for c in priority))
        assert tuple(got[c] for c in priority) == min(coset)
        # the result stays inside the coset
        assert gf2.rank(packed(np.vstack([basis, got ^ x0]))) == gf2.rank(packed(basis))


# -- loop references: the per-bit implementations the packed ones replaced --
# They work on uint64 word matrices (column c is bit c % 64 of word c // 64),
# converted to and from the kernel's int rows.


def to_words(rows, n_cols):
    """Int rows as a (len(rows), words) uint64 matrix."""
    n_bytes = 8 * max(1, (n_cols + 63) // 64)
    data = b"".join(r.to_bytes(n_bytes, "little") for r in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), n_bytes // 8).copy()


def from_words(words):
    """The int rows of a uint64 word matrix."""
    return [int.from_bytes(w.tobytes(), "little") for w in words]


def column_bits(words, c):
    w, b = divmod(c, 64)
    return ((words[:, w] >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)


def get_bit(words, r, c):
    w, b = divmod(c, 64)
    return int(words[r, w] >> np.uint64(b)) & 1


def set_bit(words, r, c):
    w, b = divmod(c, 64)
    words[r, w] |= np.uint64(1) << np.uint64(b)


def loop_from_dense(dense):
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8) & 1)
    words = np.zeros((dense.shape[0], max(1, (dense.shape[1] + 63) // 64)), dtype=np.uint64)
    for c in range(dense.shape[1]):
        w, b = divmod(c, 64)
        words[:, w] |= dense[:, c].astype(np.uint64) << np.uint64(b)
    return words


def loop_to_dense(words, n_cols):
    out = np.zeros((len(words), n_cols), dtype=np.uint8)
    for c in range(n_cols):
        out[:, c] = column_bits(words, c)
    return out


def loop_nullspace(dense):
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8) & 1)
    n_cols = dense.shape[1]
    m = gf2.BitMatrix(n_cols, from_words(loop_from_dense(dense)))
    pivot_cols = gf2.rref(m)
    free_cols = [c for c in range(n_cols) if c not in set(pivot_cols)]
    basis = np.zeros((len(free_cols), n_cols), dtype=np.uint8)
    red = loop_to_dense(to_words(m.rows, n_cols), n_cols)
    for k, fc in enumerate(free_cols):
        basis[k, fc] = 1
        for row_idx, pc in enumerate(pivot_cols):
            if red[row_idx, fc]:
                basis[k, pc] = 1
    return basis


def loop_solve_affine(dense, rhs):
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8) & 1)
    rhs = np.asarray(rhs, dtype=np.uint8) & 1
    n_rows, n_cols = dense.shape
    aug_cols = n_cols + 1 + n_rows
    aug = to_words([0] * n_rows, aug_cols)
    packed = loop_from_dense(dense)
    aug[:, : packed.shape[1]] = packed
    for r in range(n_rows):
        if rhs[r]:
            set_bit(aug, r, n_cols)
        set_bit(aug, r, n_cols + 1 + r)
    m = gf2.BitMatrix(aug_cols, from_words(aug))
    pivot_cols = gf2.rref(m, col_order=list(range(n_cols)))
    aug = to_words(m.rows, aug_cols)
    for r in range(len(pivot_cols), n_rows):
        if get_bit(aug, r, n_cols):
            return None, [i for i in range(n_rows) if get_bit(aug, r, n_cols + 1 + i)]
    x = np.zeros(n_cols, dtype=np.uint8)
    for row_idx, pc in enumerate(pivot_cols):
        x[pc] = get_bit(aug, row_idx, n_cols)
    return x, []


WIDTHS = [0, 1, 63, 64, 65, 129]


@pytest.mark.parametrize("width", WIDTHS)
def test_packing_matches_loop_reference_and_word_layout(width):
    rng = np.random.default_rng(1000 + width)
    for rows in (0, 1, 5, 70):
        dense = random_matrix(rng, rows, width)
        packed = from_dense(dense)
        assert packed.rows == from_words(loop_from_dense(dense))
        assert np.array_equal(to_dense(packed), loop_to_dense(to_words(packed.rows, width), width))
        assert np.array_equal(to_dense(packed), dense)
        # column c is bit c of the row
        for r in range(rows):
            assert packed.rows[r] >> width == 0
            for c in range(width):
                assert (packed.rows[r] >> c) & 1 == dense[r, c]


@pytest.mark.parametrize("width", WIDTHS)
def test_nullspace_matches_loop_reference(width):
    rng = np.random.default_rng(2000 + width)
    for rows in (0, 1, width // 2, width + 3):
        for density in (0.1, 0.5):
            a = random_matrix(rng, rows, width, density)
            got = gf2.nullspace(packed(a))
            assert np.array_equal(unpacked(got, width), loop_nullspace(a))


@pytest.mark.parametrize("width", WIDTHS)
def test_solve_affine_matches_loop_reference(width):
    rng = np.random.default_rng(3000 + width)
    inconsistent = 0
    for rows in (1, width // 2 + 1, width + 5):
        for _ in range(4):
            a = random_matrix(rng, rows, width, 0.3)
            if rng.random() < 0.5 and width:
                b = (a @ (rng.random(width) < 0.5)) % 2   # consistent
            else:
                b = (rng.random(rows) < 0.5).astype(np.uint8)
            got, got_witness = gf2.solve_affine(packed(a), b.tolist())
            want, want_witness = loop_solve_affine(a, b)
            assert got_witness == want_witness
            if want is None:
                assert got is None
                inconsistent += 1
            else:
                assert np.array_equal(unpacked([got], width)[0], want)
    assert inconsistent > 0


@pytest.mark.parametrize("width", WIDTHS)
def test_int_row_nullspace_and_solve_affine_match_loop_references(width):
    rng = np.random.default_rng(5000 + width)
    inconsistent = 0
    for rows in (1, width // 2 + 1, width + 5):
        for density in (0.1, 0.3, 0.5):
            a = random_matrix(rng, rows, width, density)
            a_rows = packed(a).rows
            basis = gf2.nullspace(gf2.BitMatrix(width, list(a_rows)))
            assert basis == packed(loop_nullspace(a)).rows
            # a consistent right-hand side, then a random one
            for b in ((a @ (rng.random(width) < 0.5)) % 2,
                      (rng.random(rows) < 0.5).astype(np.uint8)):
                matrix = gf2.BitMatrix(width, list(a_rows))
                got, got_witness = gf2.solve_affine(matrix, b.tolist())
                want, want_witness = loop_solve_affine(a, b)
                assert got_witness == want_witness
                if want is None:
                    assert got is None
                    assert matrix.rows == a_rows  # an inconsistent system is left as it was
                    inconsistent += 1
                else:
                    assert got == packed(want).rows[0]
                    reduced = gf2.BitMatrix(width, list(a_rows))
                    loop_rref(reduced)
                    assert matrix.rows == reduced.rows  # a consistent one is left in RREF
    assert inconsistent > 0


# -- the pivot loop the two-phase rref kernel replaced, kept as its referee --


def loop_rref(matrix, col_order=None):
    if col_order is None:
        col_order = list(range(matrix.n_cols))
    words = to_words(matrix.rows, matrix.n_cols)
    pivot_cols: list[int] = []
    r = 0
    for c in col_order:
        if r >= len(words):
            break
        col = column_bits(words, c)
        hits = np.nonzero(col[r:])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        words[[r, p]] = words[[p, r]]
        col = column_bits(words, c)
        col[r] = 0
        ones = np.nonzero(col)[0]
        if ones.size:
            words[ones] ^= words[r]
        pivot_cols.append(c)
        r += 1
    matrix.rows[:] = from_words(words)
    return pivot_cols


def copy_of(matrix):
    return gf2.BitMatrix(matrix.n_cols, list(matrix.rows))


def assert_rref_matches_loop(matrix, col_order=None):
    """Run both kernels on copies of ``matrix``; return the kernel's result."""
    want = copy_of(matrix)
    want_pivots = loop_rref(want, col_order)
    got = copy_of(matrix)
    got_pivots = KERNEL(got, col_order)
    assert got_pivots == want_pivots
    assert got.rows == want.rows
    return got, got_pivots


def col_orders(rng, width):
    """None, full and partial orders (prefix, upper half, reversed), repeats,
    and orders of a few ascending runs, the shapes the pipeline makes."""
    yield None
    perm = rng.permutation(width).tolist()
    yield perm
    yield list(range(width // 2))
    # searched columns above unsearched ones, in a shuffled order
    yield rng.permutation(range(width // 2, width)).tolist()
    yield list(reversed(range(width)))
    yield rng.integers(0, width, size=2 * width).tolist() if width else []
    # _stub_priority's shape: a subset ascending, then every other column ascending
    subset = sorted(perm[: width // 3])
    yield subset + sorted(set(range(width)).difference(subset))
    # two runs, upper columns then lower ones, over half of the columns
    half = perm[: width // 2]
    yield sorted(c for c in half if 2 * c >= width) + sorted(c for c in half if 2 * c < width)
    # three runs: the top third, the middle third, the bottom third
    yield [c for k in (2, 1, 0) for c in range(k * width // 3, (k + 1) * width // 3)]


def ascending_runs(order):
    return sum(1 for a, b in zip([None, *order], order) if a is None or b < a)


def test_col_orders_hold_the_run_shapes_rref_keys_by():
    rng = np.random.default_rng(7)
    runs = [ascending_runs(order) for order in list(col_orders(rng, 129))[-3:]]
    assert runs == [2, 2, 3]


def test_stub_priority_rref_relabels_no_rows(monkeypatch):
    _, diagram, _ = scheme_circuit(5, "inject-y", 2)
    order = webs._stub_priority(diagram)
    assert ascending_runs(order) == 2
    basis = gf2.BitMatrix(2 * len(diagram.edges),
                          [w.mask for w in webs.web_space(diagram).basis])
    built = []
    from_ones = gf2.from_ones
    monkeypatch.setattr(gf2, "from_ones", lambda *args: built.append(args) or from_ones(*args))
    assert gf2.rref(basis, col_order=order)
    assert built == []


def test_solve_and_web_space_list_the_bits_of_no_zero_vector(monkeypatch):
    _, diagram, logical = scheme_circuit(5, "inject-y", 2)
    listed = []
    ones = gf2.ones
    monkeypatch.setattr(gf2, "ones", lambda x: listed.append(x) or ones(x))
    web = webs.solve(diagram, correlator_boundary_condition(diagram, logical))
    assert isinstance(web, webs.Web)
    assert listed and listed.count(0) == 0
    listed.clear()
    assert webs.web_space(diagram).dim
    assert listed and listed.count(0) == 0


@pytest.mark.parametrize("width", [0, 63, 64, 65, 129])
def test_rref_matches_loop_on_random_matrices(width):
    rng = np.random.default_rng(4000 + width)
    for rows in (0, 1, width // 2, width + 7):
        for density in (0.01, 0.05, 0.2, 0.5):
            a = random_matrix(rng, rows, width, density)
            for order in col_orders(rng, width):
                assert_rref_matches_loop(from_dense(a), order)


def test_rref_matches_loop_on_augmented_blocks():
    # the [A | b | I] shape solve_affine eliminates on its A columns only
    rng = np.random.default_rng(41)
    for rows, cols in [(5, 3), (40, 30), (70, 129)]:
        a = random_matrix(rng, rows, cols, 0.1)
        aug = np.hstack([a, rng.integers(0, 2, (rows, 1)), np.eye(rows, dtype=np.uint8)])
        assert_rref_matches_loop(from_dense(aug), list(range(cols)))


def test_rref_matches_loop_when_rows_hold_only_unsearched_bits():
    rng = np.random.default_rng(43)
    width = 70
    for order in (list(range(30)), list(range(40, 70)), rng.permutation(width)[:30].tolist()):
        unsearched = sorted(set(range(width)).difference(order))
        for density in (0.05, 0.3):
            a = random_matrix(rng, 40, width, density)
            for r in range(0, 40, 3):
                a[r, order] = 0
                a[r, unsearched[r % len(unsearched)]] = 1
            assert_rref_matches_loop(from_dense(a), order)


@pytest.mark.parametrize("order", [[-1], [5], [0, 3]])
def test_rref_rejects_columns_outside_the_matrix(order):
    m = from_dense(np.ones((2, 3), dtype=np.uint8))
    before = list(m.rows)
    with pytest.raises(ValueError, match="outside"):
        gf2.rref(m, order)
    assert m.rows == before


def test_lexmin_rejects_a_basis_of_another_width():
    for x in (0b101, -1):
        with pytest.raises(ValueError, match="columns"):
            gf2.lexmin_in_coset(x, gf2.BitMatrix(2, [0b11]), range(2))
    # an empty basis still has a width
    with pytest.raises(ValueError, match="columns"):
        gf2.lexmin_in_coset(0b100, gf2.BitMatrix(2, []), range(2))
    assert gf2.lexmin_in_coset(0b10, gf2.BitMatrix(2, []), range(2)) == 0b10


def test_solve_affine_rejects_rhs_of_the_wrong_length():
    a = packed(np.eye(3, dtype=np.uint8))
    for rhs in ([1, 0], [0, 0, 0, 0], [0, 0, 0, 1]):
        with pytest.raises(ValueError, match="rhs"):
            gf2.solve_affine(a, rhs)


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_rref_matches_loop_on_every_pipeline_call(monkeypatch, scheme, d, rounds):
    """Every elimination solve, web_space, detectors and OutcomeModel make."""
    cells = []

    def refereed(matrix, col_order=None):
        reduced, pivots = assert_rref_matches_loop(matrix, col_order)
        matrix.rows[:] = reduced.rows
        cells.append(matrix.n_rows * matrix.n_cols)
        return pivots

    monkeypatch.setattr(gf2, "rref", refereed)
    layout, diagram, logical = scheme_circuit(d, scheme, rounds)
    webs.web_space(diagram)
    infeasible = 0
    for op in logical_operators(layout):
        bc = correlator_boundary_condition(diagram, op)
        web = webs.solve(diagram, bc)
        if isinstance(web, webs.Infeasible):
            infeasible += 1
            # the witness comes from solve_affine's history rows
            with monkeypatch.context() as loop:
                loop.setattr(gf2, "rref", loop_rref)
                assert webs.solve(diagram, bc) == web
    sampler.OutcomeModel(oracle.lower(diagram), logical).flips  # built on first use
    assert len(cells) > 8
    assert infeasible or scheme != "inject-y"   # its Z correlator is infeasible


def witness_subsystem(diagram, bc, witness):
    """The rule rows of the witness spiders and the pins of its legs, dense, with b."""
    system = webs.spider_constraints(diagram)
    rows = [row for row, s in zip(system.rows, system.row_spiders) if s in witness.spiders]
    rhs = [0] * len(rows)
    for leg_id in set(witness.legs) & set(bc):
        var = 2 * webs._leg_index(diagram, leg_id)
        rows += [1 << var, 1 << var + 1]
        rhs += bc[leg_id].bits
    for var, stub in zip(*webs._stub_basis_vars(diagram)):
        if stub in witness.legs:
            rows.append(1 << var)
            rhs.append(0)
    return unpacked(rows, 2 * len(diagram.edges)), rhs


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("d", [3, 5])
def test_infeasible_witness_is_an_inconsistent_subsystem(monkeypatch, d, rounds):
    layout, diagram, _ = scheme_circuit(d, "inject-y", rounds)
    bc = correlator_boundary_condition(diagram, logical_operator(layout, "Z"))
    witness = webs.solve(diagram, bc)
    assert isinstance(witness, webs.Infeasible) and witness.spiders and witness.legs
    a, b = witness_subsystem(diagram, bc, witness)
    monkeypatch.setattr(gf2, "rref", loop_rref)  # no production kernel in the referee
    x, rows = loop_solve_affine(a, b)
    assert x is None and rows


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_solve_on_random_pins_gives_a_web_or_an_inconsistent_witness(monkeypatch, scheme, rounds):
    _, diagram, _ = scheme_circuit(3, scheme, rounds)
    outputs = [leg.outer.id for leg in diagram.boundary_legs if leg.outer.kind is Kind.BOUNDARY_OUT]
    rng = random.Random(f"{scheme}:{rounds}")
    results = []
    for _ in range(30):
        bc = {leg: rng.choice(list(webs.Highlight))
              for leg in rng.sample(outputs, rng.randint(1, len(outputs)))}
        results.append((bc, webs.solve(diagram, bc)))
    assert {type(result) for _, result in results} == {webs.Web, webs.Infeasible}
    monkeypatch.setattr(gf2, "rref", loop_rref)  # no production kernel in the referee
    for bc, result in results:
        if isinstance(result, webs.Infeasible):
            x, rows = loop_solve_affine(*witness_subsystem(diagram, bc, result))
            assert x is None and rows
        else:
            assert webs.validate_web(diagram, result) == []
            restriction = result.boundary_restriction()
            assert all(restriction.get(leg, webs.Highlight.NONE) is pin for leg, pin in bc.items())


@pytest.fixture(scope="module")
def rules_d9r3():
    _, diagram, _ = scheme_circuit(9, "inject-y", 3)
    return gf2.BitMatrix(2 * len(diagram.edges), list(webs.spider_constraints(diagram).rows))


@pytest.fixture(scope="module")
def constraints_d9r3(rules_d9r3):
    return unpacked(rules_d9r3.rows, rules_d9r3.n_cols)


def traced_peak(fn):
    """The peak of traced allocations during ``fn()``, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_nullspace_and_solve_affine_make_no_full_size_uint8_copy(constraints_d9r3):
    a = constraints_d9r3
    assert a.dtype == np.uint8 and a.nbytes > 8_000_000
    # packed from the dense matrix, the Python-int rows and the column index
    # take about a.nbytes / 8 each, twice that for the [A | b | I] rows of
    # solve_affine: about 0.2 and 0.3 in all, results included. One
    # full-size uint8 temporary alone would take a.nbytes.
    peak, _ = traced_peak(lambda: gf2.nullspace(packed(a)))
    assert peak / a.nbytes < 0.8
    peak, _ = traced_peak(lambda: gf2.solve_affine(packed(a), [0] * len(a)))
    assert peak / a.nbytes < 0.8


def test_rref_peak_stays_near_the_rows_own_size(rules_d9r3):
    size = sum(map(sys.getsizeof, rules_d9r3.rows))
    matrix = copy_of(rules_d9r3)
    # The reduced rows are new ints of about the input's size (ratio 1); the
    # kernel's bookkeeping and temporaries bring the peak to about 1.97 with
    # flat bucket chains, and to about 2.7 with per-bucket lists kept to the end.
    peak, _ = traced_peak(lambda: gf2.rref(matrix))
    assert peak / size < 2.4
