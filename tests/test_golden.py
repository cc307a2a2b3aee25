"""Every frozen answer, byte for byte.

The frozen outputs are read in place from ``perfbench/``: ``expected.json``
holds the digest, line count and byte count of ``batch`` output, and
``cli_cases.json`` the exit code and stdout of each README call.  The
benchmark checks the same files, so there is one record of the answers.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from heckeprod import cli

FROZEN = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((FROZEN / "expected.json").read_text())["sweep"]
CASES = json.loads((FROZEN / "cli_cases.json").read_text())


@pytest.mark.parametrize("bounds", ["3,2", "8,6"])
def test_batch_bytes_frozen(bounds):
    max_weight, max_charge = bounds.split(",")
    req = cli.parse_args(
        ["batch", "--max-weight", max_weight, "--max-charge", max_charge]
    )
    out = io.StringIO()
    cli.run(req, out)
    data = out.getvalue().encode()
    expect = EXPECTED[bounds]
    assert hashlib.sha256(data).hexdigest() == expect["sha256"]
    assert data.count(b"\n") == expect["lines"]
    assert len(data) == expect["bytes"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_case_frozen(capsys, case):
    code = cli.main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


LOW_CHARGE = (
    "exponent 2 for partition (1,1,2) is below 3; "
    "inputs must satisfy a >= len(partition) and a >= 1"
)


@pytest.mark.parametrize("fmt, err", [
    ("text", f"error: {LOW_CHARGE}\n"),
    ("json", f'{{"error": "{LOW_CHARGE}", "code": 3}}\n'),
])
def test_domain_error_stderr_frozen(capsys, fmt, err):
    argv = ["factors", "--lambda1", "1,1,2", "--a1", "2", "--lambda2", "1",
            "--a2", "1", "--format", fmt]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", err)
