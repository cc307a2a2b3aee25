import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckeprod import IntegrityError, Multisegment, Segment, Symbol
from heckeprod import cli
from helpers import N1, N2, N3, N4


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PAIR = ["--lambda1", "1,4", "--a1", "2", "--lambda2", "1,2,3", "--a2", "4"]


def test_parse_factors_request():
    req = cli.parse_args(["factors"] + PAIR)
    assert req.command == "factors"
    assert req.e1.partition.parts == (1, 4)
    assert req.e1.exponent == 2
    assert req.e2.partition.parts == (1, 2, 3)
    assert req.fmt == "text"


def test_parse_drinfeld_is_a_tensor_request():
    req = cli.parse_args(["drinfeld"] + PAIR + ["--rank", "5"])
    assert req.command == "tensor"
    assert req.rank == 5


def test_parse_partition_any_order():
    req = cli.parse_args(["symbol", "--lambda1", "4,1", "--a1", "2",
                          "--lambda2", "3,1,2", "--a2", "4"])
    assert req.e1.partition.parts == (1, 4)
    assert req.e2.partition.parts == (1, 2, 3)


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["factors"] + PAIR + ["--bogus", "1"])
    assert exc.value.code == 2


def test_parse_rejects_malformed_partition():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["factors", "--lambda1", "1,x", "--a1", "2",
                        "--lambda2", "1", "--a2", "1"])
    assert exc.value.code == 2


def test_main_usage_error_exit_code(capsys):
    code, _, _ = run_main(capsys, ["factors", "--lambda1", "1"])
    assert code == 2


def test_main_help_exits_zero(capsys):
    code, out, _ = run_main(capsys, ["--help"])
    assert code == 0
    assert "symbol" in out


def test_low_charge_exits_three(capsys):
    code, _, err = run_main(
        capsys,
        ["factors", "--lambda1", "1,1,2", "--a1", "2", "--lambda2", "1", "--a2", "1"],
    )
    assert code == 3
    assert "error:" in err


def test_low_charge_json_error(capsys):
    code, _, err = run_main(
        capsys,
        ["factors", "--lambda1", "1,1,2", "--a1", "2", "--lambda2", "1", "--a2", "1",
         "--format", "json"],
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["code"] == 3
    assert "exponent" in payload["error"]


def test_symbol_text(capsys):
    code, out, _ = run_main(
        capsys,
        ["symbol", "--lambda1", "1,1,2", "--a1", "3", "--lambda2", "2,3", "--a2", "5"],
    )
    assert code == 0
    assert out == "1 2 3 6 8\n2 3 5\n"


def test_symbol_text_alignment():
    lines = cli._symbol_text(Symbol((1, 3, 5, 8, 9), (3, 6, 7, 10)))
    assert lines == [" 1  3  5  8  9", " 3  6  7 10"]


def test_pairs_text(capsys):
    code, out, _ = run_main(
        capsys,
        ["pairs", "--lambda1", "1,1,2", "--a1", "3", "--lambda2", "2,3", "--a2", "5"],
    )
    assert code == 0
    assert "fixed: 2 3" in out
    assert "pairs: (5,1)" in out


def test_pairs_non_standard_exits_three(capsys):
    # charges (1, 2) with these partitions give a non-standard symbol
    code, _, err = run_main(
        capsys,
        ["pairs", "--lambda1", "", "--a1", "1", "--lambda2", "2,2", "--a2", "2"],
    )
    assert code == 3
    assert "standard" in err


def test_expand_text_golden(capsys):
    code, out, _ = run_main(capsys, ["expand"] + PAIR)
    assert code == 0
    assert out == (
        "v^-1 * ( v^2 [1,2]+[2,6]+[3,4]+[4,5]"
        " + v^1 [1,2]+[2,5]+[3,4]+[4,6]"
        " + v^1 [1,1]+[2,2]+[2,6]+[3,4]+[4,5]"
        " + v^0 [1,1]+[2,2]+[2,5]+[3,4]+[4,6] )\n"
    )


def test_factors_text(capsys):
    code, out, _ = run_main(capsys, ["factors"] + PAIR)
    assert code == 0
    assert out.splitlines() == [str(m) for m in (N4, N3, N2, N1)]


def test_factors_json_round_trip(capsys):
    code, out, _ = run_main(capsys, ["factors"] + PAIR + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    rebuilt = [
        Multisegment(tuple(Segment(a, b) for a, b in spans))
        for spans in payload["factors"]
    ]
    assert rebuilt == [N4, N3, N2, N1]


def test_expand_json_round_trip(capsys):
    code, out, _ = run_main(capsys, ["expand"] + PAIR + ["--format", "json"])
    payload = json.loads(out)
    assert payload["offset"] == -1
    assert [t["n"] for t in payload["terms"]] == [2, 1, 1, 0]
    symbols = [Symbol(tuple(t["symbol"]["top"]), tuple(t["symbol"]["bottom"]))
               for t in payload["terms"]]
    from heckeprod import expansion
    from helpers import E1, E2

    assert symbols == [s for s, _ in expansion(E1, E2).terms]
    labels = [
        Multisegment(tuple(Segment(a, b) for a, b in t["multisegment"]))
        for t in payload["terms"]
    ]
    assert labels == [N1, N2, N3, N4]


def test_ancestors_json(capsys):
    code, out, _ = run_main(capsys, ["ancestors"] + PAIR + ["--format", "json"])
    payload = json.loads(out)
    assert payload["symbol"] == {"top": [1, 3, 5, 7], "bottom": [2, 6]}
    assert len(payload["terms"]) == 4


def test_tensor_json(capsys):
    code, out, _ = run_main(capsys, ["tensor"] + PAIR + ["--rank", "5", "--format", "json"])
    payload = json.loads(out)
    assert payload["N"] == 5
    assert len(payload["factors"]) == 2
    first = payload["factors"][0]
    assert first["zero"] is False
    assert first["polynomials"] == [
        {"k": 1, "root_exponents": [2, 4]},
        {"k": 2, "root_exponents": [7]},
        {"k": 3, "root_exponents": [10]},
        {"k": 4, "root_exponents": [7]},
    ]


def test_tensor_text(capsys):
    code, out, _ = run_main(capsys, ["drinfeld"] + PAIR + ["--rank", "5"])
    assert out.startswith("N = 5\n")
    assert "P_1 = (u - q^-2)(u - q^-4)" in out


def test_identical_invocations_identical_bytes(capsys):
    _, first, _ = run_main(capsys, ["expand"] + PAIR + ["--format", "json"])
    _, second, _ = run_main(capsys, ["expand"] + PAIR + ["--format", "json"])
    assert first == second


def test_batch_records(capsys):
    code, out, _ = run_main(capsys, ["batch", "--max-weight", "2", "--max-charge", "2"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    for rec in records:
        assert rec["schema_version"] == 1
        assert sum(rec["lambda1"]) + sum(rec["lambda2"]) <= 2
        assert 1 <= rec["a1"] <= rec["a2"] <= 2
        assert len(rec["factors"]) == len(rec["terms"])
    # one record per normalized pair, no repeats
    keys = [(tuple(r["lambda1"]), r["a1"], tuple(r["lambda2"]), r["a2"])
            for r in records]
    assert len(set(keys)) == len(keys)


def test_batch_rejects_bad_bounds():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["batch", "--max-weight", "-1", "--max-charge", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["batch", "--max-weight", "2", "--max-charge", "0"])
    assert exc.value.code == 2


def test_integrity_error_exits_four(capsys, monkeypatch):
    def boom(req, out):
        raise IntegrityError("fabricated breach")

    monkeypatch.setitem(cli._RUNNERS, "factors", boom)
    code, _, err = run_main(capsys, ["factors"] + PAIR)
    assert code == 4
    assert "fabricated breach" in err


def test_run_writes_to_given_stream():
    req = cli.parse_args(["factors"] + PAIR + ["--format", "json"])
    buffer = io.StringIO()
    cli.run(req, buffer)
    assert json.loads(buffer.getvalue())["schema_version"] == 1


def test_batch_into_closed_pipe_exits_quietly():
    # The output is far larger than a pipe buffer, so the command is still
    # writing when the reader goes away after the first record.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", "from heckeprod.cli import console_main; console_main()",
         "batch", "--max-weight", "6", "--max-charge", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert json.loads(proc.stdout.readline())["schema_version"] == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def _python(args, timeout):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.mark.parametrize("module", ["heckeprod", "heckeprod.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _python(["-m", module, "factors"] + PAIR, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [str(m) for m in (N4, N3, N2, N1)]


def test_huge_part_answers_promptly():
    # the pair structure's cost must not grow with the values themselves
    proc = _python(
        ["-c", "from heckeprod.cli import console_main; console_main()",
         "factors", "--lambda1", "99999999999999999999", "--a1", "1", "--a2", "1"],
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "[1,99999999999999999999]\n")
