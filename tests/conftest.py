import pickle

import pytest

from zxwebs.surface import scheme_circuit


def make_diagram(d: int, scheme: str, rounds: int = 1):
    layout, diagram, _ = scheme_circuit(d, scheme, rounds)
    return layout, diagram


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
