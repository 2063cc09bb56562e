"""Span tracer that times zxwebs from outside the package.

``Tracer.install`` wraps each listed public function at every module
attribute of the ``zxwebs`` package that holds it (modules import
``build_diagram``, ``validate`` and others by name, so patching only the
defining module would miss those calls) and wraps ``Tableau.measure`` and
``Web.stub_set`` on their classes. Each call appends one span (name,
start, end, parent) to an in-memory list; ``dump`` writes the spans and
counters when the run ends, and ``summarize`` turns a dump into per-layer
metrics. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# module -> public functions timed in that module
FUNCTIONS = {
    "oracle": ("run", "lower", "diagram_structure", "prepare",
               "deterministic_checks", "counter_bit", "counter_unit",
               "canonical_group"),
    "gf2": ("rref", "nullspace", "solve_affine", "lexmin_in_coset", "rank"),
    "webs": ("spider_constraints", "solve", "web_space", "detectors",
             "syndrome", "validate_web", "stub_edges"),
    "surface": ("build_layout", "build_diagram"),
    "diagram": ("validate",),
}
# module -> (class, method) timed on the class
METHODS = {"oracle": (("Tableau", "measure"),), "webs": (("Web", "stub_set"),)}
# item name `verify` prints -> the zxwebs.verify function that checks it,
# in the order `verify --samples N --footnote5` prints them on inject-y
VERIFY_ITEMS = {
    "builder-valid": "check_builder_valid",
    "web-space": "check_web_space",
    "web-linearity": "check_linearity",
    "detectors-deterministic": "check_detectors",
    "correlator": "check_correlator",
    "forbidden-termination": "check_forbidden_termination",
    "syndrome-equivalence": "check_syndrome_equivalence",
    "footnote5": "check_footnote5",
}
ROOT = "cli.main"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}.{meth}" for mod, pairs in METHODS.items()
              for cls, meth in pairs]
    return names


def metric_names() -> list[str]:
    """Every per-layer metric ``summarize`` reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
    out += ["oracle.measure.forced", "oracle.measure.random",
            "oracle.lowerings_per_diagram", "gf2.rref.cells",
            "gf2.eliminations_per_solve", "webs.constraint_builds_per_diagram",
            "diagram.validations_per_diagram"]
    out += [f"verify.{fn}.total_s" for fn in VERIFY_ITEMS.values()]
    out += ["cli.self_s"]
    return out


def exact_counts(summary: dict) -> dict:
    """Counts that must repeat exactly between two traced runs of one invocation."""
    return {k: v for k, v in summary.items()
            if k.endswith(".calls") or k in ("gf2.rref.cells",
                                             "oracle.measure.forced",
                                             "oracle.measure.random")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` counts."""
        self.names.append(name)
        nid = len(self.names) - 1
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_measure(self, args, result) -> None:
        self._count("oracle.measure.forced" if result.deterministic
                    else "oracle.measure.random")

    def _after_rref(self, args, result) -> None:
        matrix = args[0]
        self._count("gf2.rref.cells", matrix.n_rows * matrix.n_cols)

    def install(self) -> None:
        """Wrap every listed function wherever the zxwebs modules hold it."""
        import zxwebs.cli  # noqa: F401  (imports every zxwebs module)

        modules = [m for k, m in sys.modules.items()
                   if k == "zxwebs" or k.startswith("zxwebs.")]
        hooks = {"gf2.rref": self._after_rref}
        targets = [(f"{mod}.{fn}", getattr(sys.modules[f"zxwebs.{mod}"], fn))
                   for mod, fns in FUNCTIONS.items() for fn in fns]
        targets += [(f"verify.{fn}", getattr(sys.modules["zxwebs.verify"], fn))
                    for fn in VERIFY_ITEMS.values()]
        for name, original in targets:
            traced = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        for mod, pairs in METHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(sys.modules[f"zxwebs.{mod}"], cls_name)
                after = self._after_measure if meth == "measure" else None
                setattr(cls, meth, self.wrap(f"{mod}.{cls_name}.{meth}",
                                             getattr(cls, meth), after))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh, separators=(",", ":"))


def summarize(dump: dict) -> dict:
    """Per-layer metrics of one traced invocation.

    A span's self time is its duration minus its children's durations.
    ``verify.*.total_s`` are inclusive durations.
    """
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    solve_rrefs = 0
    for nid, _, _, parent in spans:
        if names[nid] != "gf2.rref":
            continue
        while parent >= 0 and names[spans[parent][0]] != "webs.solve":
            parent = spans[parent][3]
        solve_rrefs += parent >= 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    counters = dump["counters"]
    diagrams = calls.get("surface.build_diagram", 0)
    out["oracle.measure.forced"] = counters.get("oracle.measure.forced", 0)
    out["oracle.measure.random"] = counters.get("oracle.measure.random", 0)
    out["oracle.lowerings_per_diagram"] = ratio(
        calls.get("oracle.diagram_structure", 0), diagrams)
    out["gf2.rref.cells"] = counters.get("gf2.rref.cells", 0)
    out["gf2.eliminations_per_solve"] = ratio(solve_rrefs, calls.get("webs.solve", 0))
    out["webs.constraint_builds_per_diagram"] = ratio(
        calls.get("webs.spider_constraints", 0), diagrams)
    out["diagram.validations_per_diagram"] = ratio(
        calls.get("diagram.validate", 0), diagrams)
    for fn in VERIFY_ITEMS.values():
        out[f"verify.{fn}.total_s"] = total_s.get(f"verify.{fn}", 0.0)
    out["cli.self_s"] = self_s.get(ROOT, 0.0)
    return out


def median_summary(summaries: list[dict]) -> dict:
    """Counts and ratios from the first summary; times as medians."""
    out = dict(summaries[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(s[key] for s in summaries)
    return out
