"""Fresh-process benchmark of the zxwebs CLI.

Usage, from the root of a zxwebs checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one CLI command (`python -m zxwebs.cli ...`) as a fresh
child process, one at a time, in a closed loop for S seconds, so no cache
survives between invocations and import cost counts as users pay it. Every
invocation's output is checked by a referee (perfbench/referees.py) after
the timed region.

--trace 0 reports the end-to-end metrics. Both gated times are taken
relative to the fixed reference.py process, run just before and after each
timed process, which cancels most of a shared machine's speed drift:
wall_rel is the geometric mean over invocations of wall time over that of
the reference runs around it, and setup_s is the same mean for the set-up
process times REFERENCE_NOMINAL_S. The raw wall_s, setup wall times, fail_frac and, on
sample-y5, shots_per_s are printed on the line before the result.

--trace 1 alternates untraced and traced invocations of the same arguments
(perfbench/traced_cli.py), checks that their stdout is identical and that
the exact counts repeat between two traced invocations of the same
arguments, and reports the per-layer metrics.

Children import zxwebs from ./src; scratch files go to ./.bench_build.
The last stdout line is the JSON result; the line before it records the
machine. Exit code 0 means every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
BUILD = CHECKOUT / ".bench_build"
HERE = Path(__file__).resolve().parent

SAMPLE_SHOTS = 500
SAMPLE_ERROR_RATE = 0.01
VERIFY_SHOTS = 20
VERIFY_SAMPLES = 20
SETUP_REPEATS = 11
# Median wall time of reference.py on a 2-vCPU x86_64 VM (CPython 3.11.7,
# numpy 2.4.6). It turns setup_s from a ratio back into seconds; it is fixed
# so that setup_s does not follow the machine's speed drift.
REFERENCE_NOMINAL_S = 0.25
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60.0

# The workload's circuit, built in a fresh process: import plus construction.
SETUP_CODE = (
    "import sys, zxwebs.cli as c\n"
    "layout = c.build_layout(int(sys.argv[1]))\n"
    "c.build_diagram(c.CircuitSpec(layout, c.injection_pattern(layout),"
    " rounds=int(sys.argv[2])))\n"
)


@dataclass(frozen=True)
class Workload:
    """One CLI command on the inject-y circuit of one size."""

    command: str
    distance: int
    rounds: int

    def cli_args(self, seed: int) -> list[str]:
        common = ["-d", str(self.distance), "--rounds", str(self.rounds),
                  "--scheme", "inject-y"]
        if self.command == "sample":
            return ["sample", *common, "-p", str(SAMPLE_ERROR_RATE),
                    "--postselect", "figure-set", "--format", "csv",
                    "--shots", str(SAMPLE_SHOTS), "--seed", str(seed)]
        if self.command == "webs":
            return ["webs", *common]
        return ["verify", *common, "--shots", str(VERIFY_SHOTS),
                "--samples", str(VERIFY_SAMPLES), "--footnote5",
                "--seed", str(seed)]


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "sample-y5": Workload("sample", 5, 1),
    "webs-y9r3": Workload("webs", 9, 3),
    "verify-y5r2": Workload("verify", 5, 2),
}


@dataclass(frozen=True)
class Invocation:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict[str, str]) -> Invocation:
    """Run one child to completion; time it and read its own rusage."""
    out_path, err_path = BUILD / "stdout", BUILD / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return Invocation(code=code, wall_s=wall, rss_mb=usage.ru_maxrss / 1024,
                      stdout=out_path.read_bytes())


class Bench:
    def __init__(self, name: str, seed: int, seconds: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        # Children write byte code next to the sources, as an installed
        # package has it; the untimed warm-up set-up writes it.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}  # sample counts and raw timings, for the record
        self._sample_referee = None

    def invocation_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def setup(self) -> Invocation:
        w = self.workload
        inv = spawn(["-c", SETUP_CODE, str(w.distance), str(w.rounds)], self.env)
        if inv.code != 0:
            self.problems.append(f"setup exited with code {inv.code}")
        return inv

    def untraced(self, i: int) -> Invocation:
        args = self.workload.cli_args(self.invocation_seed(i))
        return spawn(["-m", "zxwebs.cli", *args], self.env)

    def traced(self, i: int) -> tuple[Invocation, dict]:
        import tracer

        spans = BUILD / "spans.json"
        args = self.workload.cli_args(self.invocation_seed(i))
        inv = spawn([str(HERE / "traced_cli.py"), str(spans), *args], self.env)
        if inv.code != 0:
            return inv, {}
        return inv, tracer.summarize(json.loads(spans.read_text()))

    def referee(self, i: int, inv: Invocation) -> str | None:
        import referees

        w = self.workload
        if w.command == "sample":
            if self._sample_referee is None:
                self._sample_referee = referees.SampleReferee(
                    w.distance, w.rounds, SAMPLE_ERROR_RATE)
            return self._sample_referee.check(
                inv.code, inv.stdout, self.invocation_seed(i), SAMPLE_SHOTS)
        if w.command == "webs":
            return referees.check_webs(inv.code, inv.stdout, w.distance, w.rounds)
        return referees.check_verify(inv.code, inv.stdout)

    def closed_loop(self, step, minimum: int) -> list:
        """Call ``step(i)`` for i = 0, 1, ... while the next call is
        expected to end within ``--seconds``, and at least ``minimum`` times."""
        results, walls = [], []
        start = time.perf_counter()
        while len(results) < minimum or (
                time.perf_counter() - start + statistics.median(walls) <= self.seconds):
            began = time.perf_counter()
            results.append(step(len(results)))
            walls.append(time.perf_counter() - began)
        return results

    def judge(self, i: int, inv: Invocation) -> bool:
        self.attempted += 1
        problem = self.referee(i, inv)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"invocation {i}: {problem}")
        return problem is None

    def reference(self) -> float:
        inv = spawn([str(HERE / "reference.py")], self.env)
        if inv.code != 0:
            self.problems.append(f"reference exited with code {inv.code}")
        return inv.wall_s

    def bracketed(self, step, n: int | None = None) -> tuple[list, float]:
        """Run ``step(i)`` ``n`` times (or for ``--seconds``), with a reference
        run before the first call and after each. Returns the step results and
        the geometric mean of each one's wall time over the mean of the
        reference runs around it: with five or so invocations a run, it
        spread less from run to run than the median did."""
        refs = [self.reference()]

        def timed(i: int):
            result = step(i)
            refs.append(self.reference())
            return result

        runs = ([timed(i) for i in range(n)] if n is not None
                else self.closed_loop(timed, MIN_INVOCATIONS))
        rel = [2 * inv.wall_s / (refs[i] + refs[i + 1]) for i, inv in enumerate(runs)]
        self.info.setdefault("reference_s_each", []).extend(refs)
        return runs, statistics.geometric_mean(rel)

    def end_to_end(self) -> dict:
        self.setup()  # writes byte code; untimed
        setups, setup_rel = self.bracketed(lambda i: self.setup(), SETUP_REPEATS)
        runs, wall_rel = self.bracketed(self.untraced)
        for i, inv in enumerate(runs):
            self.judge(i, inv)
        wall_s = statistics.median(r.wall_s for r in runs)
        fail_frac = self.failed / self.attempted
        self.info.update(
            invocations=len(runs),
            wall_s={"value": wall_s, "unit": "s"},
            fail_frac={"value": fail_frac, "unit": "fraction"},
            wall_s_each=[r.wall_s for r in runs],
            setup_wall_s_each=[r.wall_s for r in setups])
        if self.workload.command == "sample":
            self.info["shots_per_s"] = {"value": SAMPLE_SHOTS / wall_s, "unit": "1/s"}
        return {
            "wall_rel": (wall_rel, "ratio"),
            "setup_s": (setup_rel * REFERENCE_NOMINAL_S, "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
            "ok_frac": (1 - fail_frac, "fraction"),
        }

    def per_layer(self) -> dict:
        import tracer

        self.setup()  # writes byte code; untimed
        # Invocation 0 is traced twice so that its exact counts can be compared.
        first, first_summary = self.traced(0)
        pairs = self.closed_loop(lambda i: (self.untraced(i), *self.traced(i)), 2)
        self.info.update(invocation_pairs=len(pairs))
        summaries, ratios = [], []
        for i, (plain, inv, summary) in enumerate(pairs):
            if not self.judge(i, plain):
                continue
            self.attempted += 1
            if (inv.code, inv.stdout) != (plain.code, plain.stdout):
                self.failed += 1
                self.problems.append(f"invocation {i}: traced output differs")
                continue
            summaries.append(summary)
            ratios.append(inv.wall_s / plain.wall_s)
        self.attempted += 1
        plain, _, again = pairs[0]
        if (first.code, first.stdout) != (plain.code, plain.stdout):
            self.failed += 1
            self.problems.append("invocation 0: first traced output differs")
        elif tracer.exact_counts(first_summary) != tracer.exact_counts(again):
            diff = sorted(k for k, v in tracer.exact_counts(again).items()
                          if first_summary[k] != v)
            self.problems.append(f"traced counts did not repeat: {diff}")
        if not summaries:
            self.problems.append("no traced invocation succeeded")
            return {}
        merged = tracer.median_summary(summaries)
        merged["trace.overhead_frac"] = statistics.median(ratios) - 1
        return {k: (v, layer_unit(k)) for k, v in merged.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if "_per_" in name:
        return "ratio"
    return "count"


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "zxwebs" / "cli.py").is_file():
        sys.stderr.write(f"no zxwebs sources under {SRC}; run from a checkout root\n")
        return 2
    BUILD.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, args.seconds)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    for problem in bench.problems:
        sys.stderr.write(f"FAIL {problem}\n")
    correct = not bench.problems
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "seed": args.seed, **bench.info}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
