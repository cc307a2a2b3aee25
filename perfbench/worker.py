"""One repetition of a perfbench workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job as JSON>'

``run.py`` starts this script with the checkout's ``src`` first on
PYTHONPATH, so every repetition imports heckeprod cold: the process-global
caches inside the package start empty, as they do for one ``heckeprod``
call.  Work before the first timed call (import, input generation) is the
repetition's set-up; answer checks run after the timed section.  With
``calibrate`` set, every time is scaled to reference host speed
(``hostspeed.py``).  The last line of stdout is one JSON object with the
samples.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed, Samples, start_scale

clock = time.perf_counter

# How a `heckeprod` console script starts the program.
CLI_ENTRY = "from heckeprod.cli import console_main; console_main()"
# The ladder's first rung: 1^4 at charge 4.
FIRST_RUNG = 4


def item_charge(argv: list[str]) -> int:
    """Largest charge a CLI call asks for (``--a1``/``--a2``/``--max-charge``)."""
    return max((int(argv[i + 1]) for i, flag in enumerate(argv)
                if flag in ("--a1", "--a2", "--max-charge")), default=0)


class Timing:
    """A worker's timed section.  Set-up ends when it starts; the host is
    calibrated after that, before the first timed call, when ``calibrate``
    is set."""

    def __init__(self, tracer, calibrate: bool) -> None:
        self.t_ready = clock()
        speed = HostSpeed() if calibrate else None
        self.setup_scale = REFERENCE_S / speed.last if speed else 1.0
        self.samples = Samples(speed)
        self.tracer = tracer
        if tracer is not None:
            tracer.record(True)
        self.t_first = clock()

    def item_done(self, seconds: float) -> None:
        self.samples.add(seconds)
        if self.tracer is not None:
            self.tracer.current_item += 1

    def end(self) -> dict:
        """End the timed section; return the samples and the raw wall time
        of the section, calibrations included."""
        wall = clock() - self.t_first
        if self.tracer is not None:
            self.tracer.uninstall()
        self.samples.flush()
        speed = self.samples.speed
        return {"t_ready": self.t_ready, "setup_scale": self.setup_scale,
                "host_scale": speed.median_scale() if speed else 1.0,
                "wall_s": wall, "latencies": self.samples.latencies}


class Recorder(io.TextIOBase):
    """Stand-in stdout that times each record (a newline-terminated line):
    a record's latency runs from the previous record's write to the write
    that completes it, however the program splits or joins its writes."""

    def __init__(self, timing: Timing) -> None:
        self.chunks: list[str] = []
        self.timing = timing
        self.previous = timing.t_first

    def write(self, text: str) -> int:
        now = clock()
        self.chunks.append(text)
        completed = text.count("\n")
        for _ in range(completed):
            self.timing.item_done(now - self.previous)
            self.previous = now
        if completed:
            self.previous = clock()  # a calibration is no record's time
        return len(text)


class TimeLimit(Exception):
    """A capped ladder rung ran past its cap."""


def sweep(job, tracer):
    import heckeprod.cli as cli

    argv = ["batch", "--max-weight", str(job["max_weight"]),
            "--max-charge", str(job["max_charge"])]
    timing = Timing(tracer, job["calibrate"])
    out = Recorder(timing)
    saved, sys.stdout = sys.stdout, out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = saved
    timed = timing.end()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    text = "".join(out.chunks)
    data = text.encode()
    digest = hashlib.sha256(data).hexdigest()
    expect = job["expect"]
    errors = []
    if code != 0:
        errors.append(f"batch exited {code}")
    for key, got in (("sha256", digest), ("lines", data.count(b"\n")),
                     ("bytes", len(data))):
        if got != expect[key]:
            errors.append(f"sweep {key} {got} != expected {expect[key]}")
    # parsed only once the output is known to be the recorded records
    charges = [] if errors else [max(rec["a1"], rec["a2"]) for rec in
                                 map(json.loads, text.splitlines())]
    attempted = max(len(timed["latencies"]), expect["lines"])
    return {
        **timed, "rss_kb": rss_kb, "charges": charges,
        "attempted": attempted, "failed": attempted if errors else 0,
        "errors": errors, "digest": digest, "bytes_out": len(data),
    }


def make_pairs(seed: int, count: int):
    """``count`` seeded pairs.  Charges are stratified: pair ``i`` gets
    ``a1 = 1 + i % 8`` and ``a2 = 1 + i // 8 % 8`` before a seeded shuffle,
    so every seed has the same charge mix (cost depends on charge far more
    than on parts).  Each partition is ``a`` random parts in 0..8; the rank
    bound is the largest part + 1 + uniform{0..3}, at least 2, so both
    inputs survive."""
    from heckeprod import EvaluationModuleSpec, make_partition

    rng = random.Random(f"heckeprod-pairs/{seed}")
    pairs = []
    for i in range(count):
        specs = [EvaluationModuleSpec(
                     make_partition([rng.randint(0, 8) for _ in range(a)]), a)
                 for a in (1 + i % 8, 1 + i // 8 % 8)]
        top = max([0, *specs[0].partition, *specs[1].partition])
        pairs.append((specs[0], specs[1], max(2, top + 1 + rng.randint(0, 3))))
    rng.shuffle(pairs)
    return pairs


def pairs(job, tracer):
    """Every repetition of a run times the same seeded pairs.  The first
    also checks each answer; the others must reproduce its digest."""
    from heckeprod import composition_factors, tensor_factors

    work = make_pairs(job["seed"], job["pairs"])
    results = []
    timing = Timing(tracer, job["calibrate"])
    for e1, e2, rank in work:
        t = clock()
        results.append(tensor_factors(e1, e2, rank))
        timing.item_done(clock() - t)
    timed = timing.end()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, errors = 0, []
    for (e1, e2, rank), survivors in zip(work, results) if job["check"] else ():
        factors = composition_factors(e1, e2)
        weight = e1.partition.weight + e2.partition.weight
        labels = set(factors)
        problems = [
            msg for bad, msg in (
                (factors != composition_factors(e2, e1), "not symmetric"),
                (len(labels) != len(factors), "repeated label"),
                (any(m.size != weight for m in factors), "size != weight"),
                (any(d.source_multisegment() not in labels for d in survivors),
                 "survivor is not a factor"),
            ) if bad
        ]
        if problems:
            failed += 1
            errors.append(f"{e1} x {e2} N={rank}: {', '.join(problems)}")
    digest = hashlib.sha256("\n".join(
        f"{list(e1.partition)}@{e1.exponent} {list(e2.partition)}@"
        f"{e2.exponent} N={rank}: "
        + " ".join(f"{d.source_multisegment()}{d.roots_by_degree}"
                   for d in survivors)
        for (e1, e2, rank), survivors in zip(work, results)).encode()).hexdigest()
    if job["expect"] is not None and digest != job["expect"]:
        errors.append(f"pairs digest {digest} != recorded {job['expect']}")
        failed = len(work)
    return {
        **timed, "rss_kb": rss_kb,
        "charges": [max(e1.exponent, e2.exponent) for e1, e2, _ in work],
        "attempted": len(work), "failed": failed, "errors": errors[:5],
        "digest": digest,
    }


def ladder(job, tracer):
    """Rungs ``1^a`` at charge ``a`` times the empty partition at ``a``.

    Rungs up to ``reference_top`` always run to the end; later rungs run
    under the cap (SIGALRM, at the cap in reference seconds converted to
    the host's current speed), and the ladder stops at the first one past
    it.  A stopped rung is attempted but has no latency.
    """
    from heckeprod import EvaluationModuleSpec, Symbol, expansion, make_partition

    rungs = [(a, EvaluationModuleSpec(make_partition([1] * a), a),
              EvaluationModuleSpec(make_partition([]), a))
             for a in range(FIRST_RUNG, job["top"] + 1)]

    def on_alarm(signum, frame):
        raise TimeLimit

    signal.signal(signal.SIGALRM, on_alarm)
    done, stopped = [], 0
    timing = Timing(tracer, job["calibrate"])
    speed = timing.samples.speed
    for a, e1, e2 in rungs:
        capped = a > job["reference_top"]
        t = clock()
        try:
            if capped:
                signal.setitimer(signal.ITIMER_REAL, speed.raw_seconds(
                    job["cap_s"]) if speed else job["cap_s"])
            exp = expansion(e1, e2)
        except TimeLimit:
            stopped = 1
            break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        timing.item_done(clock() - t)
        timing.samples.flush()  # scales this rung before the cap test
        done.append((a, exp))
        if capped and timing.samples.latencies[-1] > job["cap_s"]:
            break
    timed = timing.end()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # One term: the standard symbol (1..a // 2..a+1), one pair moved.
    errors = []
    for a, exp in done:
        want = ((Symbol(tuple(range(1, a + 1)), tuple(range(2, a + 2))), 1),)
        if exp.offset != -1 or exp.terms != want:
            errors.append(f"rung a={a}: offset {exp.offset}, terms "
                          f"{[(str(s), n) for s, n in exp.terms]}")
    # over the reference rungs only: whether a capped rung finishes may
    # differ between repetitions
    digest = hashlib.sha256(repr(
        [(a, exp.offset, [(str(s), n) for s, n in exp.terms])
         for a, exp in done if a <= job["reference_top"]]).encode()).hexdigest()
    return {
        **timed, "rss_kb": rss_kb, "charges": [a for a, _ in done],
        "attempted": len(done) + stopped, "failed": len(errors),
        "errors": errors[:5], "digest": digest,
    }


def cli(job, tracer):
    """Each call is a fresh interpreter (no shell), unless ``in_process``:
    then ``heckeprod.cli.main`` is called here, which the traced run needs.
    With ``calibrate``, each call is scaled by ``start_scale()`` taken just
    before it, not by the calibration loop."""
    cases = job["cases"]
    if job["in_process"]:
        import heckeprod.cli as front
    outputs, factors = [], []
    timing = Timing(tracer, calibrate=False)
    for case in cases:
        factors.append(start_scale() if job["calibrate"] else 1.0)
        t = clock()
        if job["in_process"]:
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            try:
                code = front.main(case["argv"])
            finally:
                sys.stdout, sys.stderr = saved
            stdout = out.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *case["argv"]],
                                  capture_output=True, text=True, timeout=60)
            code, stdout = proc.returncode, proc.stdout
        timing.item_done((clock() - t) * factors[-1])
        outputs.append((code, stdout))
    # set-up is scaled by the probe that follows it, as on the other
    # workloads
    timed = dict(timing.end(), host_scale=statistics.median(factors),
                 setup_scale=factors[0])
    who = resource.RUSAGE_SELF if job["in_process"] else resource.RUSAGE_CHILDREN
    rss_kb = resource.getrusage(who).ru_maxrss

    errors = [f"{' '.join(case['argv'])}: exit {code}, stdout "
              f"{'differs' if stdout != case['stdout'] else 'matches'}"
              for case, (code, stdout) in zip(cases, outputs)
              if code != case["exit"] or stdout != case["stdout"]]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    return {
        **timed, "rss_kb": rss_kb,
        "charges": [item_charge(case["argv"]) for case in cases],
        "attempted": len(cases), "failed": len(errors), "errors": errors[:5],
        "digest": digest,
        "bytes_out": sum(len(stdout.encode()) for _, stdout in outputs),
    }


WORKLOADS = {"sweep": sweep, "pairs": pairs, "ladder": ladder, "cli": cli}


def main() -> None:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    import heckeprod

    if src not in Path(heckeprod.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {heckeprod.__file__}, not the "
                         f"checkout's {src}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = WORKLOADS[job["workload"]](job, tracer)
    if tracer is not None:
        tracer.write(job["trace_file"])
        result["trace"] = tracer.summary(result["wall_s"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
