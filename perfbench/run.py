"""heckeprod benchmark: times the checkout's own src/ and checks every answer.

    python3 perfbench/run.py --workload sweep|pairs|ladder|cli \
        [--seed N] [--seconds S] [--trace 0|1]

Load is one caller in a closed loop: one process at a time, no threads.
Every timed repetition is a fresh interpreter (worker.py), so the
package's process-global caches start empty, as for one `heckeprod` call.
Repetitions run until their timed sections add up to --seconds.  The
end-to-end times are scaled to reference host speed (hostspeed.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced repetitions of the same inputs in turn, each in its own
process, and prints the per-layer metrics.  A report line with provenance
comes first; the last line of stdout is the result object.  See
perfbench/README.md for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
clock = time.perf_counter

DEFAULT_SEED = 1
WORKER_TIMEOUT_S = 170
# An item answered later than this does not count towards max_charge, and
# ladder rungs above the reference rungs are stopped at it (the worker gets
# it in the job).
CAP_S = 1.0

# Full-size inputs.  The self-test passes tiny ones.
SIZES = {
    "sweep": {"max_weight": 8, "max_charge": 6},
    "pairs": {"pairs": 1000},
    # rungs up to reference_top always finish and give the latencies;
    # later rungs only decide max_charge, each under the cap
    "ladder": {"reference_top": 10, "top": 32},
    "cli": {"calls": None},  # None: every golden case once per repetition
}
# tail_ms is this percentile of all the run's samples.  Each leaves at least
# ten samples beyond it in a 20 s run at the seed: one repetition of sweep
# (4,985 records) or pairs (1,000), 11 ladder passes of 7 reference rungs,
# 8 CLI cycles of 14 calls.  Sweep stops at p99: beyond it the slowest
# records differ from one repetition to the next (collector pauses, host
# load), not between versions of the program.  The percentile is fixed
# rather than derived from each run's sample count, so that runs with
# different numbers of repetitions read the same point of the distribution.
TAIL_PERCENTILE = {"sweep": 99.0, "pairs": 99.0, "ladder": 80.0, "cli": 85.0}
# --trace 1 alternates this many untraced and traced workers, so that one
# worker slowed by load on the host does not set the trace overhead.
TRACE_PAIRS = 3


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(root: Path, job: dict) -> dict:
    """Run one repetition in a fresh interpreter; return its samples."""
    job = dict(job, src=str(root / "src"))
    t_spawn = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, env=worker_env(root), cwd=root,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']} worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{job['workload']} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result["t_ready"] - t_spawn) * result["setup_scale"]
    return result


def fresh_ms(root: Path, code: str) -> float:
    """Wall time of a fresh `python -c code`."""
    t = clock()
    # captured output: run() then waits on the pipes, not by polling
    subprocess.run([sys.executable, "-c", code], env=worker_env(root),
                   cwd=root, capture_output=True, check=True, timeout=60)
    return (clock() - t) * 1e3


def startup_ms(root: Path, runs: int = 9) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and the median extra time of
    one that imports heckeprod.cli.  The two run alternately and the extra
    time is taken pair by pair, so a drift in host speed falls on both."""
    bare, extra = [], []
    for _ in range(runs):
        interp = fresh_ms(root, "pass")
        bare.append(interp)
        extra.append(fresh_ms(root, "import heckeprod.cli") - interp)
    return statistics.median(bare), statistics.median(extra)


def make_job(workload: str, seed: int, rep: int, sizes: dict,
             expected: dict) -> dict:
    job = {"workload": workload, "trace": False, "calibrate": True,
           **sizes[workload]}
    if workload == "sweep":
        key = f"{job['max_weight']},{job['max_charge']}"
        job["expect"] = expected["sweep"][key]
    elif workload == "pairs":
        job.update(seed=seed, check=rep == 0,
                   expect=expected["pairs"].get(f"{seed}/{job['pairs']}"))
    elif workload == "ladder":
        job["cap_s"] = CAP_S
    elif workload == "cli":
        job.update(cases=expected["cli"][:job.pop("calls")], in_process=False)
    return job


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def reached(rep: dict, cap_s: float) -> int:
    """Largest charge such that every item up to it finished within the cap."""
    best = 0
    for charge, latency in sorted(zip(rep["charges"], rep["latencies"])):
        if latency > cap_s:
            break
        best = charge
    return best


def timed_items(workload: str, rep: dict, sizes: dict) -> list[float]:
    """Latencies that feed p50/tail/items_per_s: on the ladder only the
    reference rungs, which every version of the program runs, so a faster
    search does not add bigger rungs to them."""
    if workload != "ladder":
        return rep["latencies"]
    top = sizes["ladder"]["reference_top"]
    return [lat for a, lat in zip(rep["charges"], rep["latencies"]) if a <= top]


def end_to_end(workload, seed, seconds, root, sizes, expected):
    # untimed: writes the bytecode cache and warms the OS file cache
    for _ in range(3):
        fresh_ms(root, "import heckeprod.cli")
    reps = []
    while sum(rep["wall_s"] for rep in reps) < seconds:
        reps.append(spawn(root, make_job(workload, seed, len(reps), sizes,
                                         expected)))
    for rep in reps[1:]:
        if rep["digest"] != reps[0]["digest"]:
            rep["failed"] = rep["attempted"]
            rep["errors"].append("answers differ from the first repetition's")
    # Set-up, throughput, memory and reach are medians of per-repetition
    # values, so that one repetition run during a burst of load on the host
    # does not move them.  p50 is the median over items of each item's
    # median over the repetitions, which all run the same items in the same
    # order, so one slow sample of an item does not move it.  The tail is a
    # percentile of all the samples.
    timed = [timed_items(workload, rep, sizes) for rep in reps]
    durations = [sum(items) for items in timed]
    pooled = [lat for items in timed for lat in items]
    tail_value, beyond = tail(pooled, TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "items_per_s": statistics.median(
            len(items) / d for items, d in zip(timed, durations)),
        "p50_ms": statistics.median(statistics.median(item)
                                    for item in zip(*timed)) * 1e3,
        "tail_ms": tail_value * 1e3,
        "peak_rss_mb": statistics.median(rep["rss_kb"] for rep in reps) / 1024,
        "max_charge": statistics.median(reached(rep, CAP_S) for rep in reps),
    }
    report = {"repetitions": len(reps), "samples": len(pooled),
              "host_scale": statistics.median(rep["host_scale"] for rep in reps),
              "tail_percentile": TAIL_PERCENTILE[workload],
              "samples_beyond_tail": beyond}
    return metrics, reps, report


def per_layer(workload, seed, root, sizes, expected):
    def job(rep: int, **extra) -> dict:
        # raw times, with no calibration inside the spans
        job = dict(make_job(workload, seed, rep, sizes, expected),
                   calibrate=False)
        if workload == "cli":
            job["in_process"] = True  # spans need the front end in-process
        if workload == "ladder":
            job["top"] = job["reference_top"]  # a killed rung would lose spans
        return dict(job, **extra)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    plains, traceds = [], []
    speed = HostSpeed()
    for rep in range(TRACE_PAIRS):
        path = str(trace_file(root, workload, rep))
        for reps, extra in ((plains, {}), (traceds, dict(
                trace=True, check=False, trace_file=path))):
            reps.append(spawn(root, job(rep, **extra)))
            # the worker's wall at reference speed, from calibrations here
            # just before and just after it
            reps[-1]["ref_wall_s"] = reps[-1]["wall_s"] * speed.scale()
    for rep in plains[1:] + traceds:
        if rep["digest"] != plains[0]["digest"]:
            rep["failed"] = rep["attempted"]
            rep["errors"].append("answers differ from the first untraced "
                                 "worker's")
    # spans from one whole traced run: the one of median wall time
    chosen = sorted(range(TRACE_PAIRS),
                    key=lambda r: traceds[r]["ref_wall_s"])[TRACE_PAIRS // 2]
    summary = traceds[chosen]["trace"]
    names, layers = summary["by_name"], summary["layers"]
    wall = summary["wall_s"]
    plain_wall = statistics.median(rep["ref_wall_s"] for rep in plains)

    def stat(name, key):
        return names.get(name, {}).get(key, 0)

    interp_ms, import_ms = startup_ms(root)
    factors = summary["factors_under_tensor"]
    a10 = [lat for rep in plains
           for a, lat in zip(rep["charges"], rep["latencies"]) if a == 10]
    metrics = {
        **{f"{layer}.self_s": s for layer, s in layers.items()},
        **{f"{name}.self_s": stat(name, "self_s") for name in (
            "symbols.standard_ancestors", "symbols.symbol_of",
            "symbols.pair_structure", "products.normalize_inputs",
            "products.expansion", "products.Expansion",
            "products.Expansion.factors",
            "multisegments.multisegment_of_symbol",
            "schurweyl.tensor_factors")},
        "symbols.standard_ancestors.max_ms":
            stat("symbols.standard_ancestors", "max_ms"),
        "symbols.standard_ancestors.calls":
            stat("symbols.standard_ancestors", "calls"),
        "symbols.ancestors_found": stat("symbols.standard_ancestors", "results"),
        "symbols.row_entries_max": summary["row_entries_max"],
        "multisegments.multisegment_of_symbol.calls":
            stat("multisegments.multisegment_of_symbol", "calls"),
        "schurweyl.drinfeld.calls": stat("schurweyl.drinfeld", "calls"),
        "schurweyl.survivor_ratio":
            summary["survivors"] / factors if factors else 0.0,
        # the traced share outside the library calls, in untraced reference
        # seconds
        "cli.batch_overhead_s":
            (wall - summary["batch_library_s"]) * plain_wall / wall
            if workload == "sweep" else 0.0,
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.bytes_out": traceds[chosen].get("bytes_out", 0),
        "src.lines": src_lines(root),
        "ladder.a10_ms": statistics.median(a10) * 1e3 if a10 else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_frac": statistics.median(
            rep["ref_wall_s"] for rep in traceds) / plain_wall - 1,
        "trace.accounted_frac": sum(layers.values()) / wall,
        "trace.library_frac": sum(s for layer, s in layers.items()
                                  if layer != "cli") / wall,
    }
    path = trace_file(root, workload, chosen)
    report = {"spans": summary["spans"],
              "trace_file": str(path.relative_to(root))}
    return metrics, plains + traceds, report


def trace_file(root: Path, workload: str, rep: int) -> Path:
    return root / ".bench_out" / f"trace-{workload}-{rep}.tsv"


def load_expected() -> dict:
    """Recorded answers: batch digests, pairs digests, CLI golden output."""
    expected = json.loads((HERE / "expected.json").read_text())
    expected["cli"] = json.loads((HERE / "cli_cases.json").read_text())
    return expected


def src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((root / "src" / "heckeprod").rglob("*.py")))


def provenance(root: Path, seed: int) -> dict:
    revision = dirty = None
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if head.returncode == 0:
            revision = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "git_revision": revision, "git_dirty": dirty,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pairs_seed": seed, "ladder_cap_s": CAP_S,
        "src.lines": src_lines(root),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path = ROOT, sizes: dict = SIZES, expected: dict | None = None):
    """Return (report, result) for one benchmark run."""
    if not (root / "src" / "heckeprod" / "__init__.py").is_file():
        raise BenchError(f"no heckeprod sources under {root / 'src'}")
    if expected is None:
        expected = load_expected()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if trace:
        metrics, reps, extra = per_layer(workload, seed, root, sizes, expected)
    else:
        metrics, reps, extra = end_to_end(workload, seed, seconds, root,
                                          sizes, expected)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    emitted = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if metric["name"] not in metrics:
            raise BenchError(f"metric {metric['name']} is not computed")
        emitted[metric["name"]] = {"value": metrics[metric["name"]],
                                   "unit": metric["unit"]}
    report = {"workload": workload, **provenance(root, seed), **extra,
              "failed_frac": failed / attempted,
              "errors": [e for rep in reps for e in rep["errors"]][:10]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": emitted}
    return report, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        sys.exit(f"perfbench: {exc}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
