"""Mutation check: how many deliberate faults does the test suite catch?

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

Each mutant replaces one snippet of ``src/heckeprod`` in a temporary copy
of the repository (``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml``) and runs the suite there with ``-x``.  A mutant is
killed when the suite fails.  The unmutated copy must pass first, or every
kill would be vacuous.  Prints one line per mutant, then the number killed
out of the total, and exits 1 unless every mutant is killed.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 900

# (name, module in src/heckeprod, snippet, replacement); each snippet must
# occur exactly once in its module
MUTANTS = (
    ("batch skips the pairs with cp1 == cp2", "cli.py",
     "for cp2 in cps[i:]:", "for cp2 in cps[i + 1:]:"),
    ("JSON written with ', ' as separator", "cli.py",
     'separators=(",", ":")', 'separators=(", ", ":")'),
    ("batch writes the labels unsorted as factors", "cli.py",
     '"factors": [_mseg_json(m) for m in exp.factors()]',
     '"factors": [_mseg_json(m) for m in exp.labels]'),
    ("batch writes offset 0", "cli.py",
     '"a2": cp2.charge,\n                "offset": exp.offset,',
     '"a2": cp2.charge,\n                "offset": 0,'),
    ("global offset counts at the charge plus one", "products.py",
     "content_count(cp2, cp1.charge)", "content_count(cp2, cp1.charge + 1)"),
    ("symbol text aligned left", "cli.py", ".rjust(width)", ".ljust(width)"),
    ("Drinfeld JSON marks a factor zero", "cli.py",
     '"zero": False', '"zero": True'),
    ("batch drops pairs at the weight bound", "cli.py",
     "cp2.partition.weight > req.max_weight", "cp2.partition.weight >= req.max_weight"),
    ("decoder reads row [j, e] for [j, e - 1]", "multisegments.py",
     "Segment(j, e - 1)", "Segment(j, e)"),
    ("is_standard compares strictly", "symbols.py",
     "all(t <= b for t, b", "all(t < b for t, b"),
    ("normalisation ignores the beta-row tie-break", "products.py",
     "if (cp1.charge, beta_row(cp1).entries) > (cp2.charge, beta_row(cp2).entries):",
     "if cp1.charge > cp2.charge:"),
    ("a bottom value closes the farthest open bracket", "symbols.py",
     "open_tops.pop()", "open_tops.pop(0)"),
)


def _suite_fails(mutant) -> bool:
    """Run the suite on a fresh copy, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, copy / name)
        if mutant is not None:
            name, module, old, new = mutant
            path = copy / "src" / "heckeprod" / module
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(
                    f"mutant {name!r}: snippet occurs {text.count(old)} times "
                    f"in {module}, expected once"
                )
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True
    return proc.returncode != 0


def main() -> int:
    if _suite_fails(None):
        print("the unmutated suite fails; fix it before counting mutants")
        return 1
    killed = 0
    for mutant in MUTANTS:
        dead = _suite_fails(mutant)
        killed += dead
        print(f"{'killed  ' if dead else 'SURVIVED'}  {mutant[0]}", flush=True)
    print(f"{killed}/{len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
