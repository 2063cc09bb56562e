"""Pauli webs for rotated-surface-code memory and Y-state injection circuits."""

from .diagram import (
    Color,
    Diagram,
    DiagramError,
    DiagramParseError,
    Kind,
    Node,
    Phase,
    Violation,
    deserialize,
    export,
    serialize,
    validate,
)
from .pauli import PauliOperator
from .surface import (
    CircuitSpec,
    InitState,
    Layout,
    Plaquette,
    build_diagram,
    build_layout,
    injection_pattern,
    logical_operators,
    memory_pattern,
)
from .webs import (
    Highlight,
    Infeasible,
    PauliErrorSet,
    Web,
    WebSpace,
    detectors,
    flip_parities,
    solve,
    spider_constraints,
    syndrome,
    validate_web,
    web_space,
)
from .oracle import (
    ShotRecord,
    Tableau,
    canonical_group,
    canonical_stabilizer_group,
    deterministic_checks,
    lower,
    prepare,
    run,
)

__version__ = "0.1.0"
