"""Golden SHA-256 digests of CLI stdout and of seeded oracle records.

The digests pin every byte the CLI prints for a fixed set of invocations,
and the exact coin stream of the oracle (the ``jsonl`` sample records and
the mid-circuit error run below), so a refactor that changes any output
fails here.
"""

import hashlib

import pytest

from zxwebs import cli, oracle
from zxwebs.surface import logical_operators
from zxwebs.webs import PauliErrorSet

from conftest import make_diagram

GOLDEN_STDOUT = {
    ("layout", "-d", "5", "--scheme", "memory-z"):
        "ea0129438efe9ed5b264774288cd4392acfb72b725a79874648e9ad633fc634b",
    ("layout", "-d", "5", "--scheme", "memory-x"):
        "16bfa22e39a125dd2c52a33ec30bb56378deda53d8842a428fa60660f658b7ad",
    ("layout", "-d", "5", "--scheme", "inject-y"):
        "6a6225c8ff4862e6e333013ba75b07bc18c2275f9647625aa977c0718baf1392",
    ("webs", "-d", "3", "--rounds", "2", "--scheme", "memory-z"):
        "e7e4eba79d32fab33e2575487e8cc06aabfdd49b9b1ab338931ae50368627e49",
    ("webs", "-d", "3", "--rounds", "2", "--scheme", "memory-x"):
        "2a82eb13e72d433454440e5832d6763008ac7c170a37a62652638af02f4adf7c",
    ("webs", "-d", "3", "--rounds", "2", "--scheme", "inject-y"):
        "2832673b6a58853da2328fc508dd04d7faaf11d2d201e99342d8b2a2dcd27e7d",
    ("webs", "-d", "3", "--rounds", "2", "--scheme", "inject-y", "--format", "dot"):
        "6c8f3171380283976631e83c01ea9870914da422e14513bef2a7d3fcfa01905e",
    ("sample", "-d", "3", "--rounds", "2", "-p", "0.05", "--z-error-rate", "0.05",
     "--error", "X:4", "--postselect", "figure-set", "--format", "jsonl",
     "--seed", "7"):
        "862200f785e32675a79a031b9b5d09da88dee9355c40d57036ba869159dcf0bd",
    ("webs", "-d", "3", "--rounds", "2", "--format", "tikz"):
        "cb1aa77e0a2b3836a3f508503c427bae24e72b8f6784b68bb8c325c6d2a2e892",
    ("sample", "-d", "3", "--rounds", "2", "-p", "0.05", "--format", "json",
     "--seed", "3"):
        "5d2c6671dc02324e00965e391454ddba7e29482f6d4d56c652557d7974d3aa85",
    ("verify", "-d", "3", "--rounds", "2", "--samples", "20", "--footnote5"):
        "7d16870c326a75b526bcb9d0ff01ec8c4fb82f33879f6726c5c121947c055a65",
    ("verify", "-d", "3", "--rounds", "2", "--scheme", "memory-z", "--shots", "50",
     "--samples", "20"):
        "b5b720e833c4ce8a2354a45a3b9f9ff67e3e63778ffc3928242960f620dfe3fa",
    ("verify", "-d", "3", "--rounds", "3", "--scheme", "memory-x", "--exhaustive-errors"):
        "f5dafdf308309674eba563cb40a9bbca6a220a2bf67847fa6e1f1bb77d913a17",
    # the benchmark's webs-y9r3 command, with its scheme spelled out
    ("webs", "-d", "9", "--rounds", "3", "--scheme", "inject-y"):
        "f34864721029e6421225948ed940c1e8d09902427087c845a87e8a8fd024e79e",
    # past the tableau referee's 8 shots: 192 and 42 error-free shots predicted
    ("verify", "-d", "7", "--rounds", "3"):
        "a66b36b39d49601298d68f9ffa486cfe0191f742fa01eaf5a26ba205e7cc8f48",
    ("verify", "-d", "5", "--rounds", "3", "--scheme", "memory-x", "--shots", "50",
     "--samples", "20"):
        "130b6aa55173db24993eb4f11bfe897e502fbd09ba1e5dbb938216d13d4ea542",
    # the benchmark's verify-y5r2 command
    ("verify", "-d", "5", "--rounds", "2", "--shots", "20", "--samples", "20",
     "--footnote5", "--seed", "301"):
        "b3b6d9956fa59c38bf9bf0c2dbb98570d6ed53d3fa3a191eb9b69c8374626128",
}

# (stdout, stderr) digests of sample runs whose summary goes to stderr: the
# benchmark's sample-y5 command, a run with fixed Y and cancelling X
# insertions under all-deterministic post-selection, one at the edge rates,
# where every X draw fires and Z draws split at one half, and one at rate 0.
GOLDEN_STDOUT_STDERR = {
    ("sample", "-d", "5", "--rounds", "1", "--scheme", "inject-y", "-p", "0.01",
     "--postselect", "figure-set", "--format", "csv", "--shots", "500",
     "--seed", "1000"):
        ("970d6a22575b782c23a55ce2281e3b682731a1f3ede6bacf6cc5c15c37ac16c8",
         "4d57494a347262c0988f7095d2e61963fd45a230cfc5ce06d6d81a4427d302ca"),
    ("sample", "-d", "3", "--rounds", "2", "--scheme", "memory-x", "-p", "0.1",
     "--z-error-rate", "0.1", "--error", "Y:4", "--error", "X:4",
     "--postselect", "all-deterministic", "--format", "jsonl", "--seed", "5"):
        ("de941551d89d6d5c8116b432f3da4eb350f0a68a37ba75f3a88f42b4259de4b6",
         "a00c525d394e849494ec89557f1be6b3c9af412d22d095d6e186e909544e9aa0"),
    ("sample", "-d", "3", "--rounds", "2", "--scheme", "inject-y", "-p", "1",
     "--z-error-rate", "0.5", "--postselect", "all-deterministic", "--format", "jsonl",
     "--seed", "11"):
        ("a8ee079c917749f0f6ff12898b4abf27d760fcbd9e8f67dce1a7445d4b85286b",
         "39e5ff095139d1490bb700ef67586a2b7827a56f056e52addb9db3f8a760f742"),
    # error-free: no shot draws an error, so no web is built
    ("sample", "-d", "3", "--rounds", "2", "--scheme", "memory-z", "-p", "0",
     "--postselect", "all-deterministic", "--format", "jsonl", "--seed", "4"):
        ("662812ae3bdf0e9751b5d590c6c644ba73b5137b4065d1b3d97903a5f6e1c4bc",
         "1cc7209fcbbfbb0be1984ba9ba5ba7298366a22a6b610c9565708564864111be"),
}

# (exit code, stderr) digests of infeasible correlators on the default
# inject-y scheme: the stderr names the spiders and pinned legs of the
# ``solve_affine`` witness, so it pins the eliminator's row history.
GOLDEN_INFEASIBLE = {
    ("webs", "-d", "3", "--correlator", "Z"):
        (1, "cf8edcd43593db34ad79d6262c4430a65bcc39354a367aaa12c3d5774b4baf03"),
    ("webs", "-d", "5", "--rounds", "2", "--correlator", "Z"):
        (1, "ddb834725f0eb54e313792232e6873bda7c82d3168a3a876d3f303666019ec74"),
}

GOLDEN_ORACLE = "54a74f760c7b78feb0487de1a3b13e268c208618a608ad799b79842fb4ffaa67"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_cli_stdout_matches_golden_digest(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert digest(out) == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_STDERR), ids=" ".join)
def test_cli_stdout_and_stderr_match_golden_digests(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert (digest(captured.out), digest(captured.err)) == GOLDEN_STDOUT_STDERR[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_INFEASIBLE), ids=" ".join)
def test_infeasible_witness_matches_golden_digest(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (code, digest(captured.err)) == GOLDEN_INFEASIBLE[argv]


def test_oracle_records_with_mid_circuit_errors_match_golden_digest():
    layout, diag = make_diagram(3, "inject-y", rounds=2)
    _, _, y_l = logical_operators(layout)
    errors = PauliErrorSet.of(diag, [(("q1.l1", "q1.l2"), "Z"),
                                     (("q4.l2", "q4.l3"), "X"),
                                     (("q7.l0", "q7.l1"), "Y")])
    program = oracle.lower(diag)
    postselect = sorted(oracle.deterministic_checks(program))
    lines = [oracle.run(program, errors, seed=5, shot=shot, postselect=postselect,
                           measure_logical=y_l).to_json()
             for shot in range(8)]
    assert digest("\n".join(lines)) == GOLDEN_ORACLE
