import json

import pytest

from zxwebs import cli, oracle

from conftest import make_diagram


def invoke(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_layout_injection_d5(capsys):
    code, out, _ = invoke(capsys, ["layout", "-d", "5", "--scheme", "inject-y"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["postselect"]) == 10
    x_like = [c for c in doc["postselect"] if ".X" in c]
    assert len(x_like) == 6
    assert doc["init_pattern"]["4"] == "YState"
    assert len(doc["x_plaquettes"]) == 12


def test_layout_memory_z_d3(capsys):
    code, out, _ = invoke(capsys, ["layout", "-d", "3", "--scheme", "memory-z"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["x_plaquettes"]) == 4 and len(doc["z_plaquettes"]) == 4
    assert doc["postselect"] == [f"r1.Z{k}" for k in range(4)]


def test_webs_injection_y_correlator(capsys):
    code, out, _ = invoke(capsys, ["webs", "-d", "5", "--scheme", "inject-y",
                                   "--correlator", "Y"])
    assert code == 0
    doc = json.loads(out)
    corner_leg = "q4.l0--q4.l1"
    assert doc["correlator"]["web"][corner_leg] == "Y"
    assert doc["web_space"]["rank"] + doc["web_space"]["dimension"] \
        == 2 * doc["web_space"]["edges"]
    assert len(doc["detectors"]) == 10


def test_webs_injection_z_correlator_is_infeasible(capsys):
    code, _, err = invoke(capsys, ["webs", "-d", "5", "--scheme", "inject-y",
                                   "--correlator", "Z"])
    assert code == 1
    assert "infeasible" in err and "q4.l0" in err


def test_webs_memory_z_correlator(capsys):
    code, out, _ = invoke(capsys, ["webs", "-d", "3", "--scheme", "memory-z",
                                   "--correlator", "Z"])
    assert code == 0
    doc = json.loads(out)
    boundary = doc["correlator"]["boundary"]
    assert boundary == {"out.q2": "Z", "out.q5": "Z", "out.q8": "Z"}


def test_webs_dot_render(capsys):
    code, out, _ = invoke(capsys, ["webs", "-d", "3", "--scheme", "inject-y",
                                   "--format", "dot"])
    assert code == 0
    assert out.startswith("graph zx {") and "red:green" in out


def test_webs_tikz_render(capsys):
    code, out, _ = invoke(capsys, ["webs", "-d", "3", "--scheme", "inject-y",
                                   "--format", "tikz"])
    assert code == 0
    assert "tikzpicture" in out


def test_verify_small(capsys):
    code, out, _ = invoke(capsys, ["verify", "-d", "3", "--scheme", "memory-z",
                                   "--shots", "20"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_sample_error_free(capsys):
    code, out, err = invoke(capsys, ["sample", "-d", "3", "--shots", "25",
                                     "--postselect", "figure-set"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shot,accepted,logical_y,n_errors"
    assert all(line.endswith(",1,0,0") for line in lines[1:])
    summary = json.loads(err)
    assert summary["acceptance_rate"] == 1.0
    assert summary["logical_error_rate_raw"] == 0.0


def test_sample_deterministic_x14_rejected(capsys):
    code, _, err = invoke(capsys, ["sample", "-d", "5", "--shots", "30",
                                   "--error", "X:14", "--postselect", "figure-set"])
    assert code == 0
    summary = json.loads(err)
    assert summary["acceptance_rate"] == 0.0


def test_sample_json_format(capsys):
    code, out, _ = invoke(capsys, ["sample", "-d", "3", "--shots", "5",
                                   "--format", "json", "-p", "0.1", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["shots"] == 5
    assert len(doc["shots"]) == 5


def test_sample_jsonl_stream(capsys):
    code, out, err = invoke(capsys, ["sample", "-d", "3", "--shots", "4",
                                     "--format", "jsonl",
                                     "--postselect", "figure-set"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["shot"] == 0 and first["accepted"] is True
    assert set(first["outcomes"]) == {f"r1.{t}{k}" for t in "XZ" for k in range(4)}
    assert json.loads(err)["acceptance_rate"] == 1.0


@pytest.mark.parametrize("argv,message", [
    (["layout", "-d", "4"], "odd"),
    (["layout", "-d", "3", "--out", ""], "cannot write --out '': No such file or directory"),
    (["webs", "-d", "3", "--rounds", "0"], "rounds must be >= 1"),
    (["verify", "-d", "3", "--samples", "-3"], "samples must be >= 0"),
    (["verify", "-d", "3", "--shots", "0"], "shots must be >= 1"),
    (["verify", "-d", "3", "--rounds", "0"], "rounds must be >= 1"),
    (["sample", "-d", "3", "-p", "1.5"], "error rate 1.5"),
    (["sample", "-d", "3", "--z-error-rate", "-0.1"], "error rate -0.1"),
    (["sample", "-d", "3", "--error", "X:99"], "lattice"),
    (["sample", "-d", "3", "--error", "bogus"], "LETTER:QUBIT"),
    (["sample", "-d", "3", "--shots", "0"], "shots must be >= 1"),
    (["sample", "-d", "3", "--rounds", "0"], "rounds must be >= 1"),
], ids=["layout-even-distance", "layout-empty-out", "webs-rounds-0", "verify-samples",
        "verify-shots-0", "verify-rounds-0", "sample-rate", "sample-z-rate", "sample-error-qubit",
        "sample-error-flag", "sample-shots-0", "sample-rounds-0"])
def test_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["layout", "-d", "5", "--scheme", "inject-y"],
    ["webs", "-d", "3", "--scheme", "inject-y"],
    ["verify", "-d", "3", "--scheme", "memory-x", "--shots", "10"],
    ["sample", "-d", "3", "--shots", "15", "-p", "0.05", "--seed", "11",
     "--postselect", "all-deterministic"],
])
def test_byte_identical_reruns(capsys, argv):
    code1, out1, err1 = invoke(capsys, argv)
    code2, out2, err2 = invoke(capsys, argv)
    assert (code1, out1, err1) == (code2, out2, err2)


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "layout.json"
    code, out, _ = invoke(capsys, ["layout", "-d", "3", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["distance"] == 3


@pytest.mark.parametrize("mode,expected", [
    ("figure-set", {f"r1.{c}" for c in ("X0", "X1", "X3", "X4", "X6", "X9",
                                        "Z7", "Z9", "Z10", "Z11")}),
    ("all-deterministic", {f"r{k}.{c}" for k in (1, 2)
                           for c in ("X0", "X1", "X3", "X4", "X6", "X9",
                                     "Z7", "Z9", "Z10", "Z11")}),
])
def test_postselect_modes_two_rounds_d5(mode, expected):
    args = cli.build_parser().parse_args(
        ["sample", "-d", "5", "--rounds", "2", "--postselect", mode])
    _, diag = make_diagram(5, "inject-y", rounds=2)
    selected = cli._postselect_set(oracle.lower(diag), args.postselect)
    assert set(selected) == expected
    assert len(selected) == (10 if mode == "figure-set" else 20)


def test_postselect_rounds_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "-d", "3", "--postselect", "figure-set",
                  "--postselect-rounds", "all"])
    assert exc.value.code == 2


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "layout.json"
    code, out, err = invoke(capsys, ["layout", "-d", "3", "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(target) in err


def test_layout_rejects_rounds(capsys):
    # the layout document describes round 1 only, so --rounds is not a flag of it
    with pytest.raises(SystemExit) as exc:
        cli.main(["layout", "-d", "3", "--rounds", "2"])
    assert exc.value.code == 2
    args = cli.build_parser().parse_args(["layout", "-d", "3"])
    assert args.distance == 3 and not hasattr(args, "rounds")
