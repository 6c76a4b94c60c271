import enum
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from collections import Counter, OrderedDict
from pathlib import Path
from time import perf_counter

import pytest

from mu2sod import cli, euler, groups, mutations, sod, verify
from mu2sod.cli import main
from mu2sod.euler import gram_report
from mu2sod.groups import make_spec
from mu2sod.mutations import identity_sequence
from mu2sod.presets import p2_example
from mu2sod.sod import assemble, piece_label, report_to_dict
from test_golden import PRESETS, golden_outputs
from test_oracle_sweep import random_spec

P2_DOC = {
    "space": {"kind": "projective", "dim": 2},
    "group_rank": 2,
    "action": [[1, 0, 0], [0, 1, 0]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sod_p2_example(capsys):
    code, out = run(capsys, "sod", "--preset", "p2-example", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_rank"] == 12
    assert len(doc["components"]) == 7
    assert doc["msodc"]["grouped_labels"] == [
        "P2[0,1,2]",
        "P1[1,2]",
        "pt[0]",
        "P1[0,2]",
        "pt[1]",
        "P1[0,1]",
        "pt[2]",
    ]
    # Gram was available, so every move carries a decided orthogonality flag
    assert [m["orthogonal"] for m in doc["msodc"]["moves"]] == [False, False, False]


def test_sod_round_trip(capsys):
    code, out = run(capsys, "sod", "--preset", "p2-example", "--json")
    doc = json.loads(out)
    doc.pop("msodc")
    assert doc == json.loads(json.dumps(report_to_dict(assemble(p2_example()))))


def test_verify_etale(capsys):
    code, out = run(capsys, "verify", "--preset", "etale", "--n", "4", "--k", "3")
    assert code == 0
    assert "PASS" in out
    assert "etale(n=4, k=3)" in out


def test_verify_battery(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out


def test_verify_named_check(capsys):
    code, out = run(capsys, "verify", "--check", "gram-presets", "--json")
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["status"] == "pass"


def test_verify_unknown_check(capsys):
    code, _ = run(capsys, "verify", "--check", "no-such-check")
    assert code == 2


def test_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _ = run(capsys, "sod", str(bad))
    assert code == 2


def test_missing_input(capsys):
    code, _ = run(capsys, "sod")
    assert code == 2


def test_both_inputs_rejected(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps(P2_DOC))
    code, _ = run(capsys, "sod", str(doc), "--preset", "p2-example")
    assert code == 2


def test_spec_file_input(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps(P2_DOC))
    code, out = run(capsys, "analyze", str(doc), "--json")
    assert code == 0
    assert len(json.loads(out)["components"]) == 7


def test_structured_output_deterministic(capsys):
    _, first = run(capsys, "sod", "--preset", "p2-example", "--json")
    _, second = run(capsys, "sod", "--preset", "p2-example", "--json")
    assert first == second


def test_gram_affine_rejected(capsys):
    code, err = run_err(capsys, "gram", "--preset", "etale", "--n", "3", "--k", "2")
    assert code == 2
    assert err == "error: Euler pairings need a proper ambient space\n"


def test_gram_quadric_rejected(capsys):
    code, err = run_err(capsys, "gram", "--preset", "quadric", "--q-dim", "2")
    assert code == 2
    assert err == "error: canonical generators on a quadric are not supported\n"


def test_gram_p2(capsys):
    code, out = run(capsys, "gram", "--preset", "p2-example", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [3, 2, 2, 2, 1, 1, 1]
    assert doc["triangular"] is True
    assert len(doc["matrix"]) == 12


def p2_mutate_files(tmp_path, script) -> tuple[str, str]:
    """The identity sequence on p2-example's Gram and ``script``, as files."""
    spec = p2_example()
    report = assemble(spec)
    result = gram_report(spec, report)
    seq = identity_sequence(result.matrix, tuple(c.rank for c in report.components))
    seq_path = tmp_path / "sequence.json"
    seq_path.write_text(json.dumps(seq.to_dict()))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    return str(seq_path), str(script_path)


def test_mutate_command(tmp_path, capsys):
    seq_path, script_path = p2_mutate_files(
        tmp_path,
        [
            {"block": 4, "direction": "left"},
            {"block": 3, "direction": "left"},
            {"block": 5, "direction": "left"},
        ],
    )
    code, out = run(capsys, "mutate", seq_path, "--script", script_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["semiorthogonal"] is True
    assert doc["unimodular"] is True
    assert doc["blocks"] == [3, 2, 1, 2, 1, 2, 1]


def inverse_script(script):
    """The moves that undo ``script`` on a semiorthogonal sequence."""
    undo = {"left": (-1, "right"), "right": (1, "left")}
    return [
        {"block": m["block"] + undo[m["direction"]][0], "direction": undo[m["direction"]][1]}
        for m in reversed(script)
    ]


@pytest.mark.parametrize("name", ["p2-example", "pn-full-3"])
def test_mutate_output_replays_back_to_its_input(capsys, tmp_path, name):
    # the second replay starts from vectors read back from JSON, not the identity
    mutated = golden_outputs(capsys, tmp_path, name)[f"mutate {name}"]
    start = json.loads((tmp_path / f"{name}-seq.json").read_text())
    script = json.loads((tmp_path / f"{name}-script.json").read_text())
    assert json.loads(mutated)["vectors"] != start["vectors"]
    seq_path, script_path = tmp_path / "mutated.json", tmp_path / "inverse.json"
    seq_path.write_text(mutated)
    script_path.write_text(json.dumps(inverse_script(script)))
    code, out = run(capsys, "mutate", str(seq_path), "--script", str(script_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert {key: doc[key] for key in start} == start
    assert doc["semiorthogonal"] is True and doc["unimodular"] is True


def test_mutate_bad_script(tmp_path, capsys):
    seq_path = tmp_path / "sequence.json"
    seq = identity_sequence(((1, 0), (0, 1)))
    seq_path.write_text(json.dumps(seq.to_dict()))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps([{"block": 7, "direction": "left"}]))
    code, _ = run(capsys, "mutate", str(seq_path), "--script", str(script_path))
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "sod", "--preset", "p2-example", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["total_rank"] == 12


def test_analyze_table(capsys):
    code, out = run(capsys, "analyze", "--preset", "p2-example")
    assert code == 0
    assert "P2[0,1,2]" in out
    assert "rank" in out


UNDETERMINED_DOC = {"space": {"kind": "projective", "dim": 2}, "group_rank": 1, "action": [[1, 0, 0]]}

ANALYZE_TABLES = {
    "p2-example": """\
pos   element  piece          dim  coarse           rank
  0        00  P2[0,1,2]        2  P2                  3
  1        10  P1[1,2]          1  P1                  2
  2        01  P1[0,2]          1  P1                  2
  3        11  P1[0,1]          1  P1                  2
  4        10  pt[0]            0  pt                  1
  5        01  pt[1]            0  pt                  1
  6        11  pt[2]            0  pt                  1
""",
    "etale-4-3": """\
pos   element  piece          dim  coarse           rank
  0       000  A4[0,1,2,3]      4  A4                  1
  1       100  A3[1,2,3]        3  A3                  1
  2       010  A3[0,2,3]        3  A3                  1
  3       001  A3[0,1,3]        3  A3                  1
  4       110  A2[2,3]          2  A2                  1
  5       101  A2[1,3]          2  A2                  1
  6       011  A2[0,3]          2  A2                  1
  7       111  A1[3]            1  A1                  1
""",
    "undetermined": """\
pos   element  piece          dim  coarse           rank
  0         0  P2[0,1,2]        2  undetermined(2)     3
  1         1  P1[1,2]          1  P1                  2
  2         1  pt[0]            0  pt                  1
""",
}


def undetermined_spec_file(tmp_path) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(UNDETERMINED_DOC))
    return str(path)


@pytest.mark.parametrize("name", list(ANALYZE_TABLES))
def test_analyze_table_exact(tmp_path, capsys, name):
    source = {
        "p2-example": ["--preset", "p2-example"],
        "etale-4-3": ["--preset", "etale", "--n", "4", "--k", "3"],
        "undetermined": [undetermined_spec_file(tmp_path)],
    }[name]
    assert run(capsys, "analyze", *source) == (0, ANALYZE_TABLES[name])


def test_gram_undetermined_is_an_input_error(tmp_path, capsys):
    code = main(["gram", undetermined_spec_file(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no canonical generators for coarse type undetermined(2)\n"


P0_DOC = {"space": {"kind": "projective", "dim": 0}, "group_rank": 1, "action": [[1]]}
# P^2 with one coordinate flipped and the global sign: a kernel of order 2,
# and the two components of unknown smoothness that the flip leaves
KERNEL_DOC = {"space": {"kind": "projective", "dim": 2}, "group_rank": 2, "action": [[1, 0, 0], [1, 1, 1]]}

HUMAN_OUTPUTS = {
    ("analyze", "p0"): """\
pos   element  piece          dim  coarse           rank
  0         0  pt[0]            0  pt                  1
  1         1  pt[0]            0  pt                  1
warning: nontrivial projective kernel of order 2
""",
    ("sod", "p0"): """\
decomposition (2 pieces, total rank 2):
  pt[0] > pt[0]
grouping plan (0 moves):
grouped order:
  pt[0] > pt[0]
warning: nontrivial projective kernel of order 2
""",
    ("gram", "p0"): """\
blocks: [1, 1]
character twists: [[0], [1]]
  1 0
  0 1
unipotent upper triangular: True
""",
    ("sod", "kernel"): """\
decomposition (6 pieces, total rank 12):
  P2[0,1,2] > P2[0,1,2] > P1[1,2] > P1[1,2] > pt[0] > pt[0]
grouping plan (1 moves):
  move block 4 left (unknown)
grouped order:
  P2[0,1,2] > P2[0,1,2] > P1[1,2] > pt[0] > P1[1,2] > pt[0]
warning: nontrivial projective kernel of order 2
warning: unknown smoothness at positions [0, 1]
""",
}


@pytest.mark.parametrize("command, name", sorted(HUMAN_OUTPUTS))
def test_human_output_pinned(tmp_path, capsys, command, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"p0": P0_DOC, "kernel": KERNEL_DOC}[name]))
    assert run(capsys, command, str(path)) == (0, HUMAN_OUTPUTS[command, name])


def test_mutate_human_output(tmp_path, capsys):
    seq_path, script_path = p2_mutate_files(
        tmp_path,
        [
            {"block": 5, "direction": "left"},
            {"block": 4, "direction": "left"},
            {"block": 1, "direction": "right"},
        ],
    )
    assert run(capsys, "mutate", seq_path, "--script", script_path) == (
        0,
        """\
applied 3 moves; semiorthogonal=True unimodular=True
  block 5 left (orthogonal)
  block 4 left (mutating)
  block 1 right (orthogonal)
blocks: [3, 2, 2, 1, 2, 1, 1]
""",
    )


P2_BURNSIDE = "burnside-total(projective, dim=2, k=2)"


@pytest.mark.parametrize(
    "double_sum, expected, actual, context",
    [
        (52, 13, 12, {"double_sum": 52}),  # divisible by |G| = 4, but not 4 * 12
        (49, "double sum divisible by |G|", "49 mod 4 = 1", {}),
    ],
)
def test_failed_check_exits_1(monkeypatch, capsys, double_sum, expected, actual, context):
    # p2-example's double sum is 48 = |G| * 12; an off value fails burnside-total
    monkeypatch.setattr(verify, "burnside_double_sum", lambda spec: double_sum)
    assert run(capsys, "verify", "--preset", "p2-example") == (
        1,
        f"PASS    projective-rank(n=2, k=2)\nFAIL    {P2_BURNSIDE} expected={expected!r} actual={actual!r}\n",
    )
    code, out = run(capsys, "verify", "--preset", "p2-example", "--json")
    assert code == 1
    assert json.loads(out)[1] == {
        "actual": actual,
        "context": context,
        "expected": expected,
        "name": P2_BURNSIDE,
        "status": "fail",
    }


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_mutate_rejects_non_integer_input(tmp_path, capsys):
    good = identity_sequence(((1, 0), (0, 1))).to_dict()
    script = [{"block": 1, "direction": "left"}]
    cases = [
        ({**good, "form": [[1, "0"], [0, 1]]}, script),
        ({**good, "vectors": [[1, 0], [0, True]]}, script),
        ({**good, "blocks": [1, 1.0]}, script),
        (good, [{"block": "0", "direction": "left"}]),
        (good, [{"block": False, "direction": "right"}]),
        (good, [{"block": 1, "direction": "down"}]),
    ]
    for i, (seq_doc, script_doc) in enumerate(cases):
        seq_path, script_path = tmp_path / f"seq{i}.json", tmp_path / f"script{i}.json"
        seq_path.write_text(json.dumps(seq_doc))
        script_path.write_text(json.dumps(script_doc))
        code, err = run_err(capsys, "mutate", str(seq_path), "--script", str(script_path))
        assert code == 2, (seq_doc, script_doc)
        assert err.startswith("error: bad mutate input")


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    for argv in (["analyze", "--preset", "p2-example", "--json"], ["verify", "--preset", "p2-example"]):
        code, err = run_err(capsys, *argv, "--out", str(target))
        assert code == 2, argv
        assert err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


def cli_process(*argv, stdout) -> subprocess.Popen:
    """``python -m mu2sod.cli`` in a child process, stderr piped."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "mu2sod.cli", *argv]
    return subprocess.Popen(command, stdout=stdout, stderr=subprocess.PIPE, env=env)


# 372,813 bytes of --json, written a piece at a time
GRAM_N5 = ["gram", "--json", "--preset", "pn-full", "--n", "5"]


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--preset", "pn-full", "--n", "10"], ["sod", "--json", "--preset", "pn-full", "--n", "5"], GRAM_N5],
    ids=["analyze", "sod-json", "gram-json"],
)
def test_closed_stdout_pipe_is_quiet(argv):
    # 100 kB of output or more, more than a pipe holds: the writer meets the closed end
    with cli_process(*argv, stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_is_an_input_error():
    # a table written whole, and a Gram whose first buffer of text fails
    for argv in (["analyze", "--preset", "p2-example"], GRAM_N5):
        with open("/dev/full", "w") as full, cli_process(*argv, stdout=full) as proc:
            err = proc.stderr.read().decode()
        assert proc.returncode == 2, argv
        assert err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_streamed_out_file_matches_stdout(tmp_path):
    target = tmp_path / "gram.json"
    with cli_process(*GRAM_N5, stdout=subprocess.PIPE) as proc:
        stdout, err = proc.communicate()
    with cli_process(*GRAM_N5, "--out", str(target), stdout=subprocess.PIPE) as proc:
        quiet, err_out = proc.communicate()
    assert (err, err_out, quiet) == (b"", b"", b"")
    assert len(stdout) == 372_813
    assert target.read_bytes() == stdout


class RecordingStdout(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_json_is_written_as_it_is_produced(monkeypatch):
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(GRAM_N5) == 0
    text = stdout.getvalue()
    matrix = json.loads(text)["matrix"]
    # a row's text as the document holds it, at the matrix's nesting level
    row_text = max(len(json.dumps(row, indent=2).replace("\n", "\n    ")) for row in matrix)
    assert len(text) == 372_813 and row_text < 4096
    assert max(stdout.sizes) <= row_text


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_pipe_leaks_no_descriptor(monkeypatch):
    # in one process, as the benchmark and these tests call main
    counts = [len(os.listdir("/proc/self/fd"))]
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            cli._emit("{}", None)
        counts.append(len(os.listdir("/proc/self/fd")))
    assert len(set(counts)) == 1, counts


DEEP = "[" * 200_000


def test_deeply_nested_spec_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(DEEP)
    code, err = run_err(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error: not valid JSON")


def test_deeply_nested_mutate_sequence_is_an_input_error(tmp_path, capsys):
    seq_path, script_path = tmp_path / "seq.json", tmp_path / "script.json"
    seq_path.write_text(DEEP)
    script_path.write_text("[]")
    code, err = run_err(capsys, "mutate", str(seq_path), "--script", str(script_path))
    assert code == 2
    assert err.startswith("error: bad mutate input")


def test_deeply_nested_mutate_script_is_an_input_error(tmp_path, capsys):
    seq_path, script_path = tmp_path / "seq.json", tmp_path / "script.json"
    seq_path.write_text(json.dumps(identity_sequence(((1, 0), (0, 1))).to_dict()))
    script_path.write_text(DEEP)
    code, err = run_err(capsys, "mutate", str(seq_path), "--script", str(script_path))
    assert code == 2
    assert err.startswith("error: bad mutate input: mutation script is nested too deeply")


def test_spec_booleans_rejected(tmp_path, capsys):
    for i, doc in enumerate(
        [
            {**P2_DOC, "space": {"kind": "projective", "dim": True}},
            {**P2_DOC, "group_rank": True},
            {**P2_DOC, "action": [[True, 0, 0], [0, 1, 0]]},
        ]
    ):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(doc))
        code, err = run_err(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ")


def test_verify_presets_need_their_sizes(capsys):
    for argv, message in [
        (["--preset", "etale"], "needs --n and --k"),
        (["--preset", "etale", "--n", "3"], "needs --n and --k"),
        (["--preset", "quadric"], "needs --q-dim"),
        (["--check", "quadric"], "needs --q-dim"),
    ]:
        code, err = run_err(capsys, "verify", *argv)
        assert code == 2
        assert message in err


def test_verify_refuses_a_source_its_check_does_not_read(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(P2_DOC))
    for argv, line in [
        (["--check", "etale", "--n", "2", "--k", "1", "extra"], "error: the etale check reads no input file\n"),
        (["--check", "etale", "--n", "2", "--k", "1", str(path)], "error: the etale check reads no input file\n"),
        (["--check", "gram-presets", "--preset", "pn-full", "--n", "3"], "error: the gram-presets check reads no --preset\n"),
        (["--check", "quadric", "--q-dim", "2", "--preset", "etale"], "error: the quadric check reads no --preset\n"),
        (["--check", "etale-sweep", str(path)], "error: the etale-sweep check reads no input file\n"),
        (["--preset", "etale", "--n", "2", "--k", "1", str(path)], "error: the etale check reads no input file\n"),
        (["--preset", "quadric", "--q-dim", "2", "extra"], "error: the quadric check reads no input file\n"),
    ]:
        assert main(["verify", *argv]) == 2, argv
        assert capsys.readouterr() == ("", line)
    # a check that reads a spec takes either source, and --preset etale or
    # quadric alone still names its check
    for argv in (
        ["--check", "projective-rank", str(path)],
        ["--check", "burnside-total", "--preset", "pn-full", "--n", "2"],
        ["--preset", "etale", "--n", "2", "--k", "1"],
        ["--preset", "quadric", "--q-dim", "2"],
    ):
        assert main(["verify", *argv]) == 0, argv
        assert capsys.readouterr().err == ""


def test_verify_programming_error_propagates(monkeypatch, capsys):
    # a TypeError inside a check is a bug, not bad input: no exit 2
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(verify, "check_etale_sweep", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        main(["verify", "--check", "etale-sweep"])


def test_group_rank_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(groups, "MAX_GROUP_RANK", 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "space": {"kind": "projective", "dim": 3},
        "group_rank": 3,
        "action": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    }))
    for argv in (
        ["analyze", str(path)],
        ["analyze", "--preset", "pn-full", "--n", "3"],
        ["verify", "--preset", "quadric", "--q-dim", "2"],
        ["verify", "--check", "quadric", "--q-dim", "2"],
    ):
        code, err = run_err(capsys, *argv)
        assert code == 2, argv
        assert "group_rank 3 exceeds the limit of 2" in err
    # at the limit everything still runs
    path.write_text(json.dumps(P2_DOC))
    assert main(["analyze", str(path)]) == 0
    assert main(["sod", "--preset", "pn-full", "--n", "2"]) == 0


def test_gram_size_limit(monkeypatch, capsys):
    # pn-full n = 4 has N = 80 canonical generators, n = 5 has N = 192
    monkeypatch.setattr(euler, "MAX_GRAM", 80)
    code, out = run(capsys, "gram", "--json", "--preset", "pn-full", "--n", "4")
    assert code == 0 and len(json.loads(out)["matrix"]) == 80
    argv = ["gram", "--json", "--preset", "pn-full", "--n", "5"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: Gram size 192 exceeds the limit of 80\n")
    # sod plans without a refused Gram: every flag is undecided
    code, out = run(capsys, "sod", "--json", "--preset", "pn-full", "--n", "5")
    moves = json.loads(out)["msodc"]["moves"]
    assert code == 0 and len(moves) == 720
    assert {m["orthogonal"] for m in moves} == {None}


def test_gram_size_limit_refuses_before_any_profile(capsys):
    # N = 53,248 passes the dim and rank limits; its Gram would not fit in memory
    start = perf_counter()
    assert main(["gram", "--json", "--preset", "pn-full", "--n", "12"]) == 2
    assert perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: Gram size 53248 exceeds the limit of {euler.MAX_GRAM}\n")


def test_plan_size_limit(monkeypatch, capsys):
    # pn-full n = 5 regroups in 720 moves, n = 6 in 3,080
    monkeypatch.setattr(sod, "MAX_MOVES", 720)
    code, out = run(capsys, "sod", "--json", "--preset", "pn-full", "--n", "5")
    assert code == 0 and len(json.loads(out)["msodc"]["moves"]) == 720

    def no_move(*args):
        raise AssertionError("a move was built for a refused plan")

    monkeypatch.setattr(mutations, "Move", no_move)
    for preset in ("pn-full", "quadric"):  # with a Gram and without one
        argv = ["sod", "--json", "--preset", preset, "--n", "6", "--q-dim", "6"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: regrouping plan of ")
        assert err.endswith(" moves exceeds the limit of 720\n")
    assert "3080 moves" in run_err(capsys, "sod", "--preset", "pn-full", "--n", "6")[1]


def test_plan_size_limit_refuses_before_the_gram(tmp_path, capsys):
    # P^3 with k = 12 (rows e0, e1, e2 and nine zero rows): N = 16,384 canonical
    # generators pass MAX_GRAM, but the plan has 8,387,584 moves
    path = tmp_path / "spec.json"
    rows = [[int(i == j) for j in range(4)] for i in range(3)] + [[0] * 4] * 9
    path.write_text(json.dumps({"space": {"kind": "projective", "dim": 3}, "group_rank": 12, "action": rows}))
    start = perf_counter()
    assert main(["sod", "--json", str(path)]) == 2
    assert perf_counter() - start < 2.0
    assert capsys.readouterr() == ("", "error: regrouping plan of 8387584 moves exceeds the limit of 1000000\n")


def test_space_dim_limit(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "space": {"kind": "affine", "dim": 300000},
        "group_rank": 0,
        "action": [],
    }))
    huge = str(10**9)  # refused before any k x c matrix is allocated
    for argv in (
        ["analyze", str(path)],
        ["gram", "--preset", "pn-full", "--n", huge],
        ["analyze", "--preset", "etale", "--n", huge, "--k", "1"],
        ["sod", "--preset", "quadric", "--q-dim", huge],
        ["verify", "--preset", "etale", "--n", huge, "--k", "1"],
        ["verify", "--check", "quadric", "--q-dim", huge],
    ):
        code, err = run_err(capsys, *argv)
        assert code == 2, argv
        assert "space dimension" in err and f"exceeds the limit of {groups.MAX_DIM}" in err
    # at the limit everything still runs
    path.write_text(json.dumps({
        "space": {"kind": "projective", "dim": groups.MAX_DIM},
        "group_rank": 0,
        "action": [],
    }))
    assert main(["analyze", str(path)]) == 0
    assert main(["analyze", "--preset", "etale", "--n", str(groups.MAX_DIM), "--k", "2"]) == 0


def reference_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def dump(doc) -> str:
    """The text that ``cli._emit_json`` writes for ``doc``, without its newline."""
    return "".join(cli._write(doc, "\n"))


LADDER = {
    **PRESETS,
    "pn-full-5": ["--preset", "pn-full", "--n", "5"],
    "quadric-1": ["--preset", "quadric", "--q-dim", "1"],
    "quadric-2": ["--preset", "quadric", "--q-dim", "2"],
    "quadric-3": ["--preset", "quadric", "--q-dim", "3"],
    "quadric-4": ["--preset", "quadric", "--q-dim", "4"],
    "etale-4-3": ["--preset", "etale", "--n", "4", "--k", "3"],
}


def test_dump_matches_json_dumps_on_every_command(monkeypatch, capsys, tmp_path):
    # every command writes its --json document through cli._emit_json; the
    # components slot of analyze and sod is text that cli._component_records
    # writes, whose reference is report_to_dict of the report assembled for it
    documents, reports = [], []
    emit_json, real_assemble = cli._emit_json, cli.assemble

    def recording_emit_json(doc, out_path):
        documents.append((doc, reports[-1] if reports else None))
        emit_json(doc, out_path)

    def recording_assemble(spec):
        reports.append(real_assemble(spec))
        return reports[-1]

    monkeypatch.setattr(cli, "_emit_json", recording_emit_json)
    monkeypatch.setattr(cli, "assemble", recording_assemble)
    for name, args in LADDER.items():
        for command in ("analyze", "sod", "verify"):
            assert main([command, *args, "--json"]) == 0
        if name.startswith(("p2", "pn")):
            assert main(["gram", *args, "--json"]) == 0
    assert main(["verify", "--json"]) == 0
    capsys.readouterr()
    for name in PRESETS:  # gram, sod and mutate with the golden script
        golden_outputs(capsys, tmp_path, name)
    assert len(documents) == 3 * len(LADDER) + 5 + 1 + 3 * len(PRESETS)
    streamed = 0
    for doc, report in documents:
        reference = doc
        if isinstance(doc, dict) and callable(doc.get("components")):
            reference = {**doc, **report_to_dict(report, full="order" in doc)}
            streamed += 1
        assert dump(doc) == reference_dump(reference)
    assert streamed == 2 * len(LADDER) + len(PRESETS)


def record_sweep_specs():
    """Specs for the record writer: the preset ladder; dimension 0 and rank 0
    of each kind; an affine element that negates every coordinate (an
    empty support); split point pairs; undetermined kinds; kernels that
    hold the element negating every coordinate; and 300 seeded specs of all
    three kinds, a third of the projective and quadric ones with that
    element as one more generator."""
    parser = cli.build_parser()
    specs = [cli._load_spec(parser.parse_args(["analyze", *args])) for args in LADDER.values()]
    specs += [make_spec(kind, 0, []) for kind in ("affine", "projective", "fermat_quadric")]
    specs += [
        make_spec("fermat_quadric", 0, [[1, 1]]),
        make_spec("affine", 2, [[1, 1]]),
        make_spec("affine", 3, [[1, 1, 0], [0, 1, 1], [1, 0, 0]]),
        make_spec("fermat_quadric", 2, [[1, 1, 0, 0]]),
        make_spec("projective", 2, [[1, 0, 0]]),
        make_spec("projective", 3, [[1, 1, 1, 1], [1, 0, 0, 0]]),
        make_spec("fermat_quadric", 3, [[1] * 5, [1, 1, 0, 0, 0]]),
    ]
    rng = random.Random(3005)
    for i in range(300):
        kind = ("affine", "projective", "fermat_quadric")[i % 3]
        spec = random_spec(rng, kind, max_dim=5)
        if i % 9 >= 6 and kind != "affine":  # the all-negating element as one more generator
            spec = make_spec(kind, spec.dim, [*map(list, spec.rows), [1] * spec.num_coords])
        specs.append(spec)
    return specs


def test_component_records_match_report_to_dict(tmp_path, capsys):
    # analyze --json and sod --json write their components slot straight
    # from the report; report_to_dict is the reference for every byte
    seen = Counter()
    path = tmp_path / "spec.json"
    for spec in record_sweep_specs():
        path.write_text(json.dumps(spec.to_dict()))
        report = assemble(spec)
        code, out = run(capsys, "analyze", str(path), "--json")
        assert (code, out) == (0, reference_dump(report_to_dict(report, full=False)) + "\n"), spec.to_dict()
        plan = cli._plan_with_gram(spec, report)
        doc = report_to_dict(report)
        doc["msodc"] = {**plan.to_dict(), "grouped_labels": [piece_label(report.components[i]) for i in plan.block_order]}
        code, out = run(capsys, "sod", str(path), "--json")
        assert (code, out) == (0, reference_dump(doc) + "\n"), spec.to_dict()
        seen["dim 0"] += spec.dim == 0
        seen["k = 0"] += spec.rank == 0
        seen["empty support"] += any(not c.piece.support for c in report.components)
        seen["split pair"] += any(c.split_index is not None for c in report.components)
        seen["undetermined"] += any(c.coarse == "undetermined" for c in report.components)
        seen["all-negating kernel"] += spec.kind != "affine" and any(
            all(groups.dot(chi, g) for chi in spec.characters) for g in spec.group
        )
    assert all(seen.values()) and len(seen) == 6, seen


# non-ASCII, astral, control characters, quotes and backslashes
AWKWARD_TEXT = [
    "",
    "plain",
    "é ü ß",
    "漢字",
    "\U0001f600",
    "tab\tnew\nline\x00\x1f",
    'quote " here',
    "back\\slash",
    "\u2028",
]


def random_leaf(rng):
    return rng.choice(
        [
            lambda: rng.choice(AWKWARD_TEXT) + str(rng.randint(0, 9)),
            lambda: rng.randint(-(2**70), 2**70),  # wider than 64 bits
            lambda: rng.randint(-20, 20),
            lambda: rng.choice([True, False, None]),
            lambda: rng.uniform(-1e6, 1e6),
            lambda: rng.choice([0.0, -0.0, 1e-300, 1.5e300]),
        ]
    )()


def random_column(rng, depth):
    """A maker of one record field's values, mostly of one type."""
    makers = [
        lambda: rng.randint(-300, 300),  # either side of the small-int table's edges
        lambda: rng.choice(AWKWARD_TEXT),
        lambda: rng.choice([True, False, None]),
        lambda: [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))],
        lambda: {"kind": rng.choice(AWKWARD_TEXT), "dim": rng.randint(0, 3)},
        lambda: random_tree(rng, depth),
    ]
    make = rng.choice(makers)
    return lambda: random_leaf(rng) if rng.random() < 0.1 else make()


def random_records(rng, depth, width):
    """A list of dicts with one key set, as the report documents hold."""
    columns = {rng.choice(AWKWARD_TEXT) + str(i): random_column(rng, depth) for i in range(rng.randint(0, 4))}
    records = [{key: make() for key, make in columns.items()} for _ in range(width)]
    if records and rng.random() < 0.2:  # one record whose keys differ
        rng.choice(records)["odd"] = random_leaf(rng)
    return records


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng)
    width = rng.randint(0, 5)  # 0 gives nested empty dicts and lists
    shape = rng.randrange(7)
    if shape == 6:
        return random_records(rng, depth - 1, width)
    if shape == 0:
        return {rng.choice(AWKWARD_TEXT) + str(i): random_tree(rng, depth - 1) for i in range(width)}
    if shape == 1:  # int keys, which sort as ints: 2 before 10
        keys = rng.sample([2, 10, -3, 0, 1, 33, 2**65], width)
        return {key: random_tree(rng, depth - 1) for key in keys}
    if shape == 2:  # bools and ints mixed, or all ints
        return [rng.choice([True, False, rng.randint(-5, 5)]) for _ in range(width)]
    if shape == 3:
        return [rng.randint(-(2**66), 2**66) for _ in range(width)]
    if shape == 4:
        return tuple(random_tree(rng, depth - 1) for _ in range(width))
    return [random_tree(rng, depth - 1) for _ in range(width)]


class Sign(enum.IntEnum):
    MINUS = -1
    PLUS = 1
    BIG = 2**70


def test_dump_matches_json_dumps_on_random_trees():
    rng = random.Random(83)
    for _ in range(400):
        doc = random_tree(rng, rng.randint(0, 5))
        assert dump(doc) == reference_dump(doc)
    for _ in range(300):  # record lists at the top, with deeper columns
        doc = random_records(rng, rng.randint(0, 3), rng.randint(0, 6))
        assert dump(doc) == reference_dump(doc)
    fixed = [
        {"a": {}, "b": [], "c": [{}, [[]], ({},)]},
        {10: "ten", 2: "two", -1: [True, 1, False, 0]},
        {True: 1, 2: 2, 1.5: 3, 10: [2**64, -(2**64)]},
        {'k"\\\x07é': ['v"\\\x07é', None]},
        [[True, 1], [1, True], (1, 2, 3), ()],
        # int leaves outside all-int lists: zero, negatives, beyond 64 bits,
        # an IntEnum member, and bools next to ints
        {"zero": 0, "neg": -7, "big": 2**64 + 1, "enum": Sign.PLUS, "flag": True, "n": 1},
        [0, -1, -(2**65), 2**64, Sign.MINUS, True, 1, False, 0, None],
        [Sign.MINUS, Sign.PLUS, Sign.BIG],
        {"x": [[0, True], [False, -3]], "y": {"z": Sign.BIG}},
        {Sign.PLUS: "key", 0: Sign.MINUS, -2: [True, Sign.BIG]},
    ]
    for doc in fixed:
        assert dump(doc) == reference_dump(doc)
    # mixed str and int keys fail as json.dumps does
    with pytest.raises(TypeError):
        dump({"a": 1, 2: 3})
    with pytest.raises(TypeError):
        dump({(1, 2): 3})


class Count(int):
    """An int subclass that is not an enum."""


def test_dump_int_lists_match_json_dumps():
    docs = [
        [-257, -256, 256, 257],  # either side of each edge of a small-int table
        [-256, -1, 0, 1, 256],
        [-257],
        [257],
        list(range(-260, 261)),
        [2**100, -(2**100), 0],  # very large ints
        [10**40, 5, -(10**40)],
        [True, 1, False, 0, -256, 257],  # bools next to ints
        [1, True],
        [False, -257],
        [Count(3), Count(300), 1],  # int subclasses
        (Count(-1), Count(-257)),
        [Sign.MINUS, 256, 257, Sign.BIG],
        {"rows": [[-256, 256], [-257, 257], [10**30], [0, True]]},
        [(1, 0, -257), (0, 1, 2**70), (), (Count(5), True)],  # tuple rows, a Gram's shape
        {"matrix": ((1, 2), (0, 1)), "mixed": [(0,), [1, 2], ()]},
    ]
    for doc in docs:
        assert dump(doc) == reference_dump(doc), doc


class Label(str):
    """A str subclass, which ``json.dumps`` writes as its text."""


ROW = {
    "element": [0, 1],
    "label": "P1[1,2]",
    "rank": 2,
    "split_index": None,
    "coarse_type": {"kind": "projective", "dim": 1},
}


def test_dump_record_lists_match_json_dumps():
    docs = [
        [ROW, {**ROW, "rank": 3, "label": "pt[0]"}],  # equal keys
        [ROW, {**ROW, "extra": 1}, ROW],  # one record whose keys differ
        [ROW, {key: value for key, value in ROW.items() if key != "rank"}],
        [{}, {}],  # empty-dict records
        [{}, {"a": 1}],
        [{"a": 1}, {}],
        [{2: "two", 10: "ten"}, {2: "deux", 10: "dix"}],  # int keys: 2 before 10
        [{1: "a"}, {True: "b"}],  # equal key sets, different key texts
        [{1: "a"}, {1.0: "b"}],
        [{"f": True, "n": 1}, {"f": 0, "n": False}],  # bools and ints in one column
        [{"v": None, "b": True}, {"v": None, "b": False}],  # all-None, all-bool columns
        [{"s": Sign.PLUS}, {"s": Sign.MINUS}, {"s": Sign.BIG}],  # int-subclass columns
        [{"c": Count(3)}, {"c": Count(300)}, {"c": 1}],
        [{"t": Label("x")}, {"t": "y"}, {"t": Label('q"\\')}],  # a str-subclass column
        [OrderedDict(b=1, a=2), {"a": 3, "b": 4}],  # an OrderedDict record
        [{"a": 3, "b": 4}, OrderedDict(b=1, a=2)],
        [{"t": (1, 2)}, {"t": (3,)}, {"t": ()}],  # tuple fields
        [{"x": 1.5}, {"x": -0.0}, {"x": 1e300}],  # float fields
        [{"i": 2**70}, {"i": -257}, {"i": 256}, {"i": -(2**64)}],  # ints outside the table
        [{"r": [[1, 2], [3, 257]]}, {"r": []}, {"r": [[True]]}],
        [{"k": {"x": 1}}, {"k": {}}],  # nested dicts with other key sets
        [{"k": {"x": 1}}, {"k": {"y": 1}}],
        [{"k": {"x": 1}}, {"k": 5}],
        [{"a": 1}, 2],  # records next to other values
        [{"a": 1}, [1]],
        [[{"a": 1}], [{"a": 2}]],
        ({"a": 1}, {"a": 2}),  # a tuple of records
        [{"a": "é", "b": AWKWARD_TEXT[5]}] * 3,
        # record lists nested inside records
        {"outer": [{"inner": [{"a": 1, "b": [2]}, {"a": 3, "b": []}]}, {"inner": []}]},
        [{"a": [{"x": 1, "y": None}, {"x": 2, "y": "s"}]}, {"a": [{"x": 3, "y": True}]}],
        {"components": [ROW] * 4, "flags": {"kernel": [[0, 0]], "effective": True}},
    ]
    for doc in docs:
        assert dump(doc) == reference_dump(doc), doc
    # keys that do not sort fail as json.dumps does
    with pytest.raises(TypeError):
        dump([{"a": 1, 2: 3}, {"a": 1, 2: 3}])
    with pytest.raises(TypeError):
        dump([{(1, 2): 3}, {(1, 2): 4}])


def test_dump_matches_json_dumps_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    trees = st.recursive(
        leaves,
        lambda children: st.lists(children)
        | st.lists(children).map(tuple)
        # records with one key set
        | st.lists(st.text(max_size=3), max_size=4, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries({key: children for key in keys}), max_size=4)
        )
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers(), children),
        max_leaves=10,
    )

    @hypothesis.seed(83)
    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(trees)
    def check(doc):
        assert dump(doc) == reference_dump(doc)

    check()


def readme_commands() -> list[list[str]]:
    """The ``mu2sod`` lines of README's "Command line" code block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mu2sod ")]


def test_readme_commands_run(capsys):
    commands = [argv for argv in readme_commands() if argv[0] != "mutate"]  # mutate needs files
    assert {argv[0] for argv in commands} == {"analyze", "sod", "gram", "verify"}
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


# SHA-256 of the help text per (terminal columns, subcommand); the same
# on Python 3.10 and 3.11
HELP_DIGESTS = {
    (60, ()): "1d66a159375bddb9442b7810d7377261ad310e2fb43305a7d5167142b09803b6",
    (60, ("analyze",)): "ad1333ed431452063fb41d8239706de0e5c454a3aa2d7181ffdf9e441784923c",
    (60, ("sod",)): "33eedab646ff84a2611982e990063f7f6cea92531574a8a87d3a65d106811d54",
    (60, ("gram",)): "c78d4a05610600c427801633318d47ee0ddc7c189d1cd3f162b8f9785acdc93c",
    (60, ("mutate",)): "d36156648a3e15b5a14b3a8e4172b7e66855ea7d264aa2ee9608142e27b3342f",
    (60, ("verify",)): "f7434d24181748ba30a6822ab5b2084b1265f17d99e5cf8548f15aba8bdb7654",
    (120, ()): "e3ac125cedbc3860a94377f6545896bf83e4ab445e813b1ab3f667903442cafa",
    (120, ("analyze",)): "637f16c1ece67813013a78cf34fbfec4330bc0a9409bee96ffb22ce16671741b",
    (120, ("sod",)): "7c8762762f0cec34be8f809d2a7cd840ca2dad21b96071ece2caa5b1a783a569",
    (120, ("gram",)): "439e2af75ca6898b52c8519c8d3217d84bd366913a286a9539319122ad31ba31",
    (120, ("mutate",)): "6c90acf80367bafb3b099a3f10aa5df30dde84e2d51239efbf6318b2cf8927ef",
    (120, ("verify",)): "b0c2f35d8739021ece392eec72424706f448bb7370a3b10fb01aa675ac51934a",
}


@pytest.mark.parametrize("columns, command", sorted(HELP_DIGESTS))
def test_help_text_pinned(monkeypatch, capsys, columns, command):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[columns, command], text


def test_build_parser_reads_terminal_width_once(monkeypatch):
    import shutil

    calls = []
    real = shutil.get_terminal_size

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    parser = cli.build_parser()
    assert len(calls) == 1
    parser.format_help()
    parser.parse_args(["verify", "--check", "etale"])
    assert len(calls) == 1


def parser_argvs() -> list[list[str]]:
    """Every README command and every LADDER source under each command."""
    argvs = readme_commands()
    for args in LADDER.values():
        for command in ("analyze", "sod", "gram", "verify"):
            argvs += [[command, *args], [command, *args, "--json", "--out", "x.json"]]
    argvs += [["verify", "--check", "quadric", "--q-dim", "3", "--json"], ["mutate", "s.json", "--script", "m.json"]]
    return argvs


def test_main_parses_as_the_full_parser(monkeypatch):
    seen = []
    for command in ("analyze", "sod", "gram", "mutate", "verify"):
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or 0)
    for argv in parser_argvs():
        assert main(argv) == 0
        assert seen.pop() == cli.build_parser().parse_args(argv), argv


def test_main_builds_the_called_commands_parser(monkeypatch, capsys):
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    # a well-formed command line builds its command's parser alone
    assert main(["verify", "--check", "etale", "--n", "2", "--k", "1"]) == 0
    assert built == ["verify"]
    # leftover arguments are reported by the full parser
    built.clear()
    with pytest.raises(SystemExit):
        main(["sod", "--bogus"])
    assert built == ["sod", None]
    built.clear()
    for argv in ([], ["-h"], ["so"], ["--bogus", "sod", "--json"]):  # no leading command
        with pytest.raises(SystemExit):
            main(argv)
    assert built == [None, None, None, None]
    # the command's own parser is the one the full parser hands its arguments to
    assert real("sod").format_help() == real()._subparsers._group_actions[0].choices["sod"].format_help()
    assert real("sod").parse_args([]).command == "sod"
    capsys.readouterr()


USAGE = "usage: mu2sod [-h] {analyze,sod,gram,mutate,verify} ...\n"

# exit status and stderr of arguments that argparse handles itself, at 80 columns
PARSER_EXITS = {
    (): (2, USAGE + "mu2sod: error: the following arguments are required: command\n"),
    ("-h",): (0, ""),
    ("so",): (
        2,
        USAGE + "mu2sod: error: argument command: invalid choice: 'so' "
        "(choose from 'analyze', 'sod', 'gram', 'mutate', 'verify')\n",
    ),
    ("--bogus", "sod", "--json"): (2, USAGE + "mu2sod: error: unrecognized arguments: --bogus\n"),
    ("sod", "--bogus"): (2, USAGE + "mu2sod: error: unrecognized arguments: --bogus\n"),
    ("sod", "--n", "x"): (
        2,
        "usage: mu2sod sod [-h] [--preset {etale,p2-example,pn-full,quadric}] [--n N]\n"
        "                  [--k K] [--q-dim Q_DIM] [--json] [--out OUT]\n"
        "                  [input]\n"
        "mu2sod sod: error: argument --n: invalid int value: 'x'\n",
    ),
    ("verify", "--check"): (
        2,
        "usage: mu2sod verify [-h] [--preset {etale,p2-example,pn-full,quadric}]\n"
        "                     [--n N] [--k K] [--q-dim Q_DIM] [--json] [--out OUT]\n"
        "                     [--check CHECK]\n"
        "                     [input]\n"
        "mu2sod verify: error: argument --check: expected one argument\n",
    ),
}
HELP_80 = "58fc84f9750372273588aa54bc78993c84fbb692675799cc6ed2f0ac31e915b3"


@pytest.mark.parametrize("argv", sorted(PARSER_EXITS), ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_exits_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == PARSER_EXITS[argv]
    if argv == ("-h",):
        assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP_80
    else:
        assert captured.out == ""


def test_malformed_inputs_exit_cleanly(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    values = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text(max_size=3),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=6,
    )

    @st.composite
    def broken(draw, doc):
        """``doc`` with one value replaced or one entry dropped, as JSON text
        that is sometimes cut short."""

        def corrupt(node):
            if isinstance(node, (dict, list)) and node and draw(st.booleans()):
                copy = dict(node) if isinstance(node, dict) else list(node)
                key = draw(st.sampled_from(list(copy) if isinstance(copy, dict) else range(len(copy))))
                action = draw(st.sampled_from(["descend", "replace", "drop"]))
                if action == "drop":
                    del copy[key]
                else:
                    copy[key] = corrupt(node[key]) if action == "descend" else draw(values)
                return copy
            return draw(values)

        text = json.dumps(corrupt(doc))
        return text[: draw(st.integers(0, len(text)))] if draw(st.integers(0, 4)) == 0 else text

    sequence = identity_sequence(((1, 2), (0, 1))).to_dict()
    script = [{"block": 1, "direction": "left"}, {"block": 0, "direction": "right"}]
    spec_path, seq_path, script_path = tmp_path / "spec.json", tmp_path / "seq.json", tmp_path / "script.json"
    commands = [[command, str(spec_path)] for command in ("analyze", "sod", "gram", "verify")]
    commands.append(["mutate", str(seq_path), "--script", str(script_path)])

    @hypothesis.seed(16)
    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        broken(P2_DOC), broken(sequence), broken(script), st.sampled_from(commands), st.booleans()
    )
    def check(spec_text, seq_text, script_text, argv, as_json):
        spec_path.write_text(spec_text)
        seq_path.write_text(seq_text)
        script_path.write_text(script_text)
        code = main(argv + ["--json"] * as_json)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err

    check()
