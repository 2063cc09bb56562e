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
