"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that the
answers pass, that wrong recorded digests and golden output count as
failures, that a traced name which disappeared stops the traced run, and
that the benchmark refuses a directory without the program.  Exits 1 on
any failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "sweep": {"max_weight": 3, "max_charge": 2},
    "pairs": {"pairs": 20},
    "ladder": {"reference_top": 5, "top": 6},
    "cli": {"calls": 4},
}
SECONDS = 0.02  # one or a few repetitions each
WRONG = "0" * 64

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def metrics_emitted(spec: dict, expected: dict) -> None:
    for workload in TINY:
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            _, result = run.run(workload, run.DEFAULT_SEED, SECONDS, trace,
                                sizes=TINY, expected=expected)
            label = f"{workload} --trace {int(trace)}"
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{label}: every {kind} metric, with its unit")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{label}: every value is a number")
            if not trace:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{label}: no end-to-end metric reads 0")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: answers pass ({result['attempted']} attempted)")


def wrong_answers_fail(expected: dict) -> None:
    wrong = copy.deepcopy(expected)
    wrong["sweep"]["3,2"]["sha256"] = WRONG
    wrong["pairs"][f"{run.DEFAULT_SEED}/20"] = WRONG
    for workload in ("sweep", "pairs"):
        _, result = run.run(workload, run.DEFAULT_SEED, SECONDS, False,
                            sizes=TINY, expected=wrong)
        check(not result["correct"] and result["failed"] == result["attempted"],
              f"{workload}: a wrong recorded digest counts as failed")

    wrong["cli"][0]["stdout"] += "x"
    _, result = run.run("cli", run.DEFAULT_SEED, SECONDS, False,
                        sizes=TINY, expected=wrong)
    check(not result["correct"] and result["failed"] >= 1,
          "cli: stdout that differs from the golden output counts as failed")


def recorder_counts_lines() -> None:
    import worker

    timing = worker.Timing(None, calibrate=False)
    out = worker.Recorder(timing)
    for chunk in ('{"a1":1}\n{"a1"', ':2}\n{"a1":3}\n', "", '{"a1":4}'):
        out.write(chunk)
    check(len(timing.end()["latencies"]) == 2 + 1,
          "sweep timestamps whole records, however the writes are split")


def missing_name_is_loud() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import tracer

    tracer.TRACED["symbols"] += ("no_such_function",)
    try:
        tracer.Tracer().install()
    except tracer.TracedNameMissing as exc:
        check("no_such_function" in str(exc),
              "a traced name that disappeared stops the traced run")
    else:
        check(False, "a traced name that disappeared stops the traced run")
    finally:
        tracer.TRACED["symbols"] = tracer.TRACED["symbols"][:-1]


def refuses_bare_directory() -> None:
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/heckeprod it exits non-zero and prints no result")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = run.load_expected()
    metrics_emitted(spec, expected)
    wrong_answers_fail(expected)
    recorder_counts_lines()
    missing_name_is_loud()
    refuses_bare_directory()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
