"""Self-tests of the benchmark: referees, tracer and BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import referees  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

FIXTURES = HERE / "fixtures"
SAMPLE_CSV = FIXTURES / "sample-d3r1-p0.05-seed7.csv"
WEBS_JSON = FIXTURES / "webs-d3r1.json"
VERIFY_TXT = FIXTURES / "verify-d3r1-seed7.txt"


@pytest.fixture(scope="module")
def sample_referee():
    return referees.SampleReferee(3, 1, 0.05)


def test_sample_referee_accepts_seed_output(sample_referee):
    assert sample_referee.check(0, SAMPLE_CSV.read_bytes(), 7, 200) is None


@pytest.mark.parametrize("field", [1, 2, 3])
def test_sample_referee_rejects_one_corrupted_field(sample_referee, field):
    lines = SAMPLE_CSV.read_text().splitlines()
    # first row with an error, so every field is informative
    row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[3] != "0")
    cells = lines[row].split(",")
    cells[field] = str(int(cells[field]) ^ 1)
    lines[row] = ",".join(cells)
    corrupted = ("\n".join(lines) + "\n").encode()
    assert sample_referee.check(0, corrupted, 7, 200) is not None


def test_sample_referee_rejects_wrong_seed_and_exit_code(sample_referee):
    assert sample_referee.check(0, SAMPLE_CSV.read_bytes(), 8, 200) is not None
    assert sample_referee.check(1, SAMPLE_CSV.read_bytes(), 7, 200) is not None


def test_webs_referee():
    good = WEBS_JSON.read_bytes()
    assert referees.check_webs(0, good, 3, 1) is None
    middle = len(good) // 2
    corrupted = good[:middle] + bytes([good[middle] ^ 1]) + good[middle + 1:]
    assert referees.check_webs(0, corrupted, 3, 1) is not None
    assert referees.check_webs(1, good, 3, 1) is not None


def test_verify_referee():
    good = VERIFY_TXT.read_bytes()
    assert referees.check_verify(0, good) is None
    corrupted = good.replace(b"PASS correlator", b"FAIL correlator")
    assert corrupted != good
    assert referees.check_verify(0, corrupted) is not None
    assert referees.check_verify(1, good) is not None


def _cli(argv, tmp_path, traced):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prefix = ([str(HERE / "traced_cli.py"), str(tmp_path / "spans.json")]
              if traced else ["-m", "zxwebs.cli"])
    return subprocess.run([sys.executable, *prefix, *argv], env=env,
                          capture_output=True, timeout=120)


def test_traced_cli_matches_untraced_and_sees_by_name_imports(tmp_path):
    argv = ["webs", "-d", "3", "--rounds", "1", "--scheme", "inject-y"]
    plain = _cli(argv, tmp_path, traced=False)
    traced = _cli(argv, tmp_path, traced=True)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout == WEBS_JSON.read_bytes()
    summary = tracer.summarize(json.loads((tmp_path / "spans.json").read_text()))
    assert list(summary) == tracer.metric_names()
    # cli calls build_diagram by name; surface and webs call validate by name
    assert summary["surface.build_diagram.calls"] == 1
    assert summary["diagram.validations_per_diagram"] == 4
    assert summary["webs.constraint_builds_per_diagram"] == 3
    assert summary["gf2.eliminations_per_solve"] == 3
    assert summary["webs.Web.stub_set.calls"] > 0
    assert summary["oracle.Tableau.measure.calls"] == 0


def test_traced_counts_repeat(tmp_path):
    argv = ["sample", "-d", "3", "--shots", "20", "-p", "0.05", "--seed", "7",
            "--postselect", "figure-set"]
    counts = []
    for _ in range(2):
        assert _cli(argv, tmp_path, traced=True).returncode == 0
        summary = tracer.summarize(json.loads((tmp_path / "spans.json").read_text()))
        counts.append(tracer.exact_counts(summary))
    assert counts[0] == counts[1]
    assert counts[0]["oracle.measure.forced"] + counts[0]["oracle.measure.random"] \
        == counts[0]["oracle.Tableau.measure.calls"]


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    names = tracer.metric_names() + ["trace.overhead_frac"]
    assert list(layer) == names
    assert all(layer[n] == run.layer_unit(n) for n in names)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "wall_rel", "setup_s", "peak_rss_mb", "ok_frac"}
