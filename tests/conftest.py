import pickle

import numpy as np
import pytest

from zxwebs import gf2
from zxwebs.surface import scheme_circuit


def make_diagram(d: int, scheme: str, rounds: int = 1):
    layout, diagram, _ = scheme_circuit(d, scheme, rounds)
    return layout, diagram


def from_dense(dense) -> gf2.BitMatrix:
    """The rows of a 0/1 matrix, taken mod 2."""
    # row by row, so no masked or packed temporary is full-size
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
    return gf2.BitMatrix(dense.shape[1], [
        int.from_bytes(np.packbits(row & 1, bitorder="little").tobytes(), "little")
        for row in dense])


def to_dense(matrix: gf2.BitMatrix):
    """The rows of ``matrix`` as a dense uint8 matrix."""
    width = (matrix.n_cols + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in matrix.rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(matrix.rows), width)
    return np.unpackbits(packed, axis=1, count=matrix.n_cols, bitorder="little")


@pytest.fixture(scope="session")
def inj3():
    return make_diagram(3, "inject-y")


@pytest.fixture(scope="session")
def inj5():
    return make_diagram(5, "inject-y")


@pytest.fixture(scope="session")
def memz5():
    return make_diagram(5, "memory-z")


def assert_frozen_record(record, fields: str) -> None:
    """``record`` rebuilds from ``fields`` (space-separated, in order), by
    position, by keyword and through pickle, and none of them can be assigned."""
    names = fields.split()
    values = [getattr(record, name) for name in names]
    assert type(record)(*values) == record
    assert type(record)(**dict(zip(names, values))) == record
    assert pickle.loads(pickle.dumps(record)) == record
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
