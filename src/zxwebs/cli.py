"""Command-line front end: layout, webs, verify and sample subcommands.

All outputs are deterministic functions of the parsed configuration
(including the seed), so identical invocations produce byte-identical
documents. Exit codes: 0 success, 1 verification failure or infeasible
request, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import oracle, sampler, verify, webs
from .diagram import export
from .pauli import PauliOperator
# perfbench/run.py builds its set-up circuit through the names imported here.
from .surface import (  # noqa: F401
    SCHEMES,
    CircuitSpec,
    Layout,
    build_diagram,
    build_layout,
    correlator_boundary_condition,
    injection_pattern,
    logical_operator,
    logical_operators,
    scheme_circuit,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1


class RunConfig:
    """The parsed options of one command."""

    def __init__(self, distance: int = 5, rounds: int = 1, scheme: str = "inject-y",
                 seed: int = 0, shots: int = 1000, error_rate: float = 0.0,
                 z_error_rate: float = 0.0, errors: tuple[str, ...] = (),
                 postselect: str = "none", correlator: str = "auto", fmt: str = "json",
                 out: str | None = None):
        self.distance, self.rounds, self.scheme, self.seed = distance, rounds, scheme, seed
        self.shots, self.error_rate, self.z_error_rate = shots, error_rate, z_error_rate
        self.errors = errors  # e.g. ("X:14", "Z:3")
        self.postselect = postselect  # none | figure-set | all-deterministic
        self.correlator, self.fmt, self.out = correlator, fmt, out

    def validate(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        for rate in (self.error_rate, self.z_error_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rate {rate} outside [0, 1]")


def _pauli_doc(op: PauliOperator) -> dict:
    return {"sign": op.sign, "paulis": [[q, letter] for q, letter in op.paulis]}


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _postselect_set(source: oracle.Program | oracle.Walk,
                    config: RunConfig) -> list[str] | None:
    if config.postselect == "none":
        return None
    checks = oracle.deterministic_checks(source)
    if config.postselect == "figure-set":
        checks = {c for c in checks if c.startswith("r1.")}
    return sorted(checks)


# -- layout -------------------------------------------------------------------


def cmd_layout(config: RunConfig) -> int:
    layout, diag, _ = scheme_circuit(config.distance, config.scheme)
    pattern = SCHEMES[config.scheme].pattern(layout)
    det = sorted(oracle.deterministic_checks(oracle.lower(diag)))
    z_l, x_l, y_l = logical_operators(layout)
    doc = {
        "version": 1,
        "distance": layout.d,
        "scheme": config.scheme,
        "data_qubits": [{"index": q, "col": c, "row": r}
                        for q, (c, r) in enumerate(layout.data_qubits)],
        "x_plaquettes": [{"id": p.id, "support": list(p.support), "pos": list(p.pos)}
                         for p in layout.x_plaquettes],
        "z_plaquettes": [{"id": p.id, "support": list(p.support), "pos": list(p.pos)}
                         for p in layout.z_plaquettes],
        "logical_operators": {"Z": _pauli_doc(z_l), "X": _pauli_doc(x_l),
                              "Y": _pauli_doc(y_l)},
        "init_pattern": {str(q): pattern[q].value for q in sorted(pattern)},
        "deterministic_checks": det,
        "postselect": det,
    }
    _emit(json.dumps(doc, indent=2) + "\n", config.out)
    return 0


# -- webs ---------------------------------------------------------------------


def cmd_webs(config: RunConfig) -> int:
    layout, diag, _ = scheme_circuit(config.distance, config.scheme, config.rounds)
    which = config.correlator
    if which == "auto":
        which = SCHEMES[config.scheme].logical
    correlator_web = None
    if which != "none":
        op = logical_operator(layout, which)
        result = webs.solve(diag, correlator_boundary_condition(diag, op))
        if isinstance(result, webs.Infeasible):
            sys.stderr.write(f"{which} correlator is infeasible\n{result}\n")
            return VERIFY_ERROR
        correlator_web = result
    if config.fmt in ("dot", "tikz"):
        marks = {}
        if correlator_web is not None:
            marks = {e: hl.value for e, hl in correlator_web.highlight_map().items()}
        _emit(export(diag, marks, fmt=config.fmt), config.out)
        return 0
    space = webs.web_space(diag)
    detector_webs = webs.detectors(diag)
    doc = {
        "version": 1,
        "config": {"distance": config.distance, "rounds": config.rounds,
                   "scheme": config.scheme, "correlator": which},
        "web_space": {"edges": len(diag.edges), "rank": space.rank,
                      "dimension": space.dim},
        "detectors": [{"stub_set": sorted(w.stub_set()), "web": w.to_highlights()}
                      for w in detector_webs],
    }
    if correlator_web is not None:
        doc["correlator"] = {
            "operator": which,
            "boundary": {leg: hl.value
                         for leg, hl in sorted(correlator_web.boundary_restriction().items())},
            "stub_set": sorted(correlator_web.stub_set()),
            "web": correlator_web.to_highlights(),
        }
    _emit(json.dumps(doc, indent=2) + "\n", config.out)
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(config: RunConfig, exhaustive: bool, samples: int,
               footnote5: bool) -> int:
    if samples < 0:
        raise ValueError("samples must be >= 0")
    results = verify.run_suite(
        config.distance, config.scheme, config.rounds,
        seed=config.seed, shots=config.shots,
        exhaustive_errors=exhaustive, samples=samples, footnote5=footnote5)
    lines = [f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}" for res in results]
    failures = sum(not res.ok for res in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if failures == 0 else VERIFY_ERROR


# -- sample -------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p_hat = successes / trials
    denom = 1 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _parse_error_flags(layout: Layout, flags: tuple[str, ...]) -> list[tuple[int, str]]:
    items = []
    for flag in flags:
        try:
            letter, qubit_text = flag.split(":")
            qubit = int(qubit_text)
        except ValueError as exc:
            raise ValueError(f"bad --error {flag!r}; expected LETTER:QUBIT") from exc
        if letter not in ("X", "Z", "Y"):
            raise ValueError(f"bad --error letter {letter!r}")
        if not 0 <= qubit < layout.n:
            raise ValueError(f"--error qubit {qubit} outside the lattice")
        items.append((qubit, letter))
    return items


def cmd_sample(config: RunConfig) -> int:
    layout, diag, logical = scheme_circuit(config.distance, config.scheme,
                                           config.rounds)
    program = oracle.lower(diag)
    walk = oracle.walk(program, logical)
    postselect = _postselect_set(walk, config)
    # only jsonl prints check outcomes; the other formats need just the
    # post-selected ones, which take no coins
    model = sampler.OutcomeModel(program, logical, postselect=postselect, walk=walk,
                                 report=None if config.fmt == "jsonl" else ())
    shots = model.shots(config.seed, config.shots, error_rate=config.error_rate,
                        z_error_rate=config.z_error_rate,
                        fixed=_parse_error_flags(layout, config.errors))
    rows, record_lines = [], []
    n_accepted = n_flip_raw = n_flip_accepted = 0
    for shot, (n_errors, rec) in enumerate(shots):
        accepted = rec.accepted if rec.accepted is not None else True
        n_accepted += accepted
        n_flip_raw += rec.logical_y
        if accepted:
            n_flip_accepted += rec.logical_y
        rows.append((shot, int(accepted), rec.logical_y, n_errors))
        if config.fmt == "jsonl":
            record_lines.append(json.dumps({
                "shot": shot,
                "n_errors": n_errors,
                "outcomes": {k: rec.outcomes[k] for k in sorted(rec.outcomes)},
                "forced": {k: rec.forced[k] for k in sorted(rec.forced)},
                "accepted": rec.accepted,
                "logical_y": rec.logical_y,
            }, separators=(",", ":")))
    raw_lo, raw_hi = wilson_interval(n_flip_raw, config.shots)
    cond_lo, cond_hi = wilson_interval(n_flip_accepted, n_accepted)
    summary = {
        "shots": config.shots,
        "acceptance_rate": round(n_accepted / config.shots, 6),
        "logical_error_rate_raw": round(n_flip_raw / config.shots, 6),
        "logical_error_rate_raw_ci95": [round(raw_lo, 6), round(raw_hi, 6)],
        "accepted_shots": n_accepted,
        "logical_error_rate_accepted": (
            round(n_flip_accepted / n_accepted, 6) if n_accepted else None),
        "logical_error_rate_accepted_ci95": (
            [round(cond_lo, 6), round(cond_hi, 6)] if n_accepted else None),
    }
    if config.fmt == "csv":
        lines = ["shot,accepted,logical_y,n_errors"]
        lines.extend(f"{s},{a},{ly},{ne}" for s, a, ly, ne in rows)
        _emit("\n".join(lines) + "\n", config.out)
        sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    elif config.fmt == "jsonl":
        _emit("\n".join(record_lines) + "\n", config.out)
        sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    else:
        doc = {"version": 1, "summary": summary,
               "shots": [{"shot": s, "accepted": bool(a), "logical_y": ly,
                          "n_errors": ne} for s, a, ly, ne in rows]}
        _emit(json.dumps(doc, indent=2) + "\n", config.out)
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, rounds: bool = True) -> None:
    parser.add_argument("-d", "--distance", type=int, default=5,
                        help="code distance (odd, >= 3)")
    if rounds:
        parser.add_argument("--rounds", type=int, default=1,
                            help="full rounds of parity measurement")
    parser.add_argument("--scheme", choices=tuple(SCHEMES), default="inject-y")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zxwebs",
        description="Pauli webs and stabilizer-oracle experiments for "
                    "surface-code memory and Y-state injection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="emit the lattice layout document")
    _add_common(p_layout, rounds=False)  # the document describes round 1 only

    p_webs = sub.add_parser("webs", help="emit web space, correlator and detectors")
    _add_common(p_webs)
    p_webs.add_argument("--correlator", choices=("Y", "Z", "X", "none", "auto"),
                        default="auto")
    p_webs.add_argument("--format", dest="fmt", choices=("json", "dot", "tikz"),
                        default="json")

    p_verify = sub.add_parser("verify", help="run the web/oracle cross-check suite")
    _add_common(p_verify)
    p_verify.add_argument("--shots", type=int, default=200)
    p_verify.add_argument("--exhaustive-errors", action="store_true")
    p_verify.add_argument("--samples", type=int, default=0,
                          help="random error insertions for syndrome checks")
    p_verify.add_argument("--footnote5", action="store_true",
                          help="include the random-parity tableau reproduction "
                               "(always 1000 draws, whatever --shots says: its "
                               "chi-square gate needs that many)")

    p_sample = sub.add_parser("sample", help="Monte Carlo with init-time errors")
    _add_common(p_sample)
    p_sample.add_argument("--shots", type=int, default=1000)
    p_sample.add_argument("-p", "--error-rate", type=float, default=0.0,
                          help="i.i.d. init X error rate per qubit")
    p_sample.add_argument("--z-error-rate", type=float, default=0.0)
    p_sample.add_argument("--error", action="append", default=[],
                          metavar="LETTER:QUBIT",
                          help="deterministic init error, repeatable (e.g. X:14)")
    p_sample.add_argument("--postselect",
                          choices=("none", "figure-set", "all-deterministic"),
                          default="none")
    p_sample.add_argument("--format", dest="fmt", choices=("csv", "json", "jsonl"),
                          default="csv")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(distance=args.distance, scheme=args.scheme, seed=args.seed,
                       out=args.out)
    for name in ("rounds", "shots", "error_rate", "z_error_rate", "postselect",
                 "fmt", "correlator"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if hasattr(args, "error"):
        config.errors = tuple(args.error)
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "layout":
            return cmd_layout(config)
        if args.command == "webs":
            return cmd_webs(config)
        if args.command == "verify":
            return cmd_verify(config, args.exhaustive_errors, args.samples,
                              args.footnote5)
        if args.command == "sample":
            return cmd_sample(config)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
