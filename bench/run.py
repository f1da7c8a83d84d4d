"""Benchmark for bd4: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload prop-prove|fo-entails|report \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it measures the sources in ``src/bd4`` next to
this directory and exits with code 2 when they are missing.  Each run
is one fresh single-threaded process, and each workload is a closed
loop with one client calling the ``bd4`` API in process; see
``workloads.py`` for the operations and their checks.  A query workload
runs a fixed prefix of the seed's stream, whole blocks of its mix,
sized to take ``--seconds`` on the host the bounds were set on (see
``RATES``); so every run of a seed, traced or not, measures the same
operations, and a faster program finishes sooner.  ``report`` runs its
twelve criteria once, about 50 s, since a second pass in the same
process would reuse its caches.  No program cache is filled before
timing, because every CLI invocation pays for those caches.

Times are in reference seconds: wall time scaled by the host's speed,
which a calibration routine measures every 20 ms (see ``refclock.py``).
On a shared host this keeps runs minutes apart comparable.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing ``bd4`` and
  what the workload loads from it.
* ``wall_s``: for ``report`` the time of all twelve criteria; for a
  query workload the time of all its operations.
* ``peak_rss_mb``: peak resident memory of the process.
* ``ops_per_s``, ``latency_p50_ms``, ``latency_p99_ms``: operations per
  second of program time, and latency per operation.  The operations of
  ``report`` are its twelve criteria, run one after another as one
  batch; a criterion's latency runs from the start of the batch to its
  verdict.

With ``--trace 1`` the run rebinds each layer's public functions (see
``layertrace.py``) and reports the per-layer metrics of the same
operations instead, with the tracing overhead: traced time minus the
time of the same operations replayed untraced in a fresh process.  Every
per-layer metric is a number: a layer off the workload's path reads 0
(see ``layertrace.py``).  A run whose replay fails exits with code 1
and prints no result.

Every operation's output is checked; an operation that raises, runs
out of budget or fails a check counts as failed.  The line before the
result carries information that is not gated: the failure ratio, the
line count of ``src/bd4``, the share of valid queries and more.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PINNED = BENCH / "pinned.json"
PINNED_REPORT = BENCH / "report_lines_seed0.txt"
WORKLOAD_NAMES = ("prop-prove", "fo-entails", "report")
SETUP_SAMPLES = 15
# operations per reference second of each query workload, on the host the
# bounds were set on (2 vCPU, Python 3.11); they size a run to --seconds
RATES = {"prop-prove": 700, "fo-entails": 137}
# a run, the untraced replay of a traced run included, ends within this
RUN_LIMIT_S = 175
STARTED = time.monotonic()


@dataclass
class Run:
    lats: list = field(default_factory=list)     # seconds per operation
    lines: list = field(default_factory=list)    # --format lines output
    errors: dict = field(default_factory=dict)   # op index -> message
    valid: int = 0
    results: list = field(default_factory=list)  # report criteria


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # run the operations untraced and print their time
    ap.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(workload: str) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_ops(W, name, seconds) -> int:
    """Operations of a query run: whole blocks of the stream's mix, about
    ``seconds`` at ``RATES``, and at least the pinned ones."""
    block = W.BLOCKS[name]
    blocks = max(round(RATES[name] * seconds / block),
                 -(-W.PINNED_OPS // block))
    return blocks * block


def drive_queries(W, name, seed, ops, clock=None,
                  pause=contextlib.nullcontext) -> Run:
    """Run the first ``ops`` operations of the seed's stream."""
    op, check = W.OPS[name]
    stream = W.STREAMS[name](seed)
    now = time.perf_counter if clock is None else clock.now
    run = Run()
    for n in range(ops):
        with pause():
            q = next(stream)
        t0 = now()
        try:
            out = op(q)
        except Exception as exc:  # a failed operation, counted below
            run.lats.append(now() - t0)
            run.lines.append("error=%s" % type(exc).__name__)
            run.errors[n] = "%s: %s" % (type(exc).__name__, exc)
            continue
        run.lats.append(now() - t0)
        with pause():
            line, err = check(q, out)
        run.lines.append(line)
        run.valid += line.startswith(("proved=true", "entails=true"))
        if err:
            run.errors[n] = "%s [%s]" % (err, getattr(q, "text", q))
    return run


def drive_report(W, seed, clock=None) -> Run:
    now = time.perf_counter if clock is None else clock.now
    run = Run()
    for number in range(1, 13):
        t0 = now()
        try:
            result = W.report_op(number, seed)
        except Exception as exc:  # a failed criterion, counted below
            run.lats.append(now() - t0)
            run.errors[number - 1] = "%s: %s" % (type(exc).__name__, exc)
            run.results.append(None)
            continue
        run.lats.append(now() - t0)
        run.results.append(result)
    return run


def check_pins(W, name, seed, run: Run):
    """Mark operations whose output differs from the pinned one."""
    if name == "report":
        want_blocks = None
        if seed == W.DEFAULT_SEED:
            want_blocks = PINNED_REPORT.read_text().rstrip("\n").split("\n\n")
        for i, r in enumerate(run.results):
            if r is None:
                continue
            if r.status != W.REPORT_STATUSES[i]:
                run.errors.setdefault(i, "criterion %d status %s, pinned %s"
                                      % (i + 1, r.status,
                                         W.REPORT_STATUSES[i]))
            elif want_blocks and "\n".join(r.lines()) != want_blocks[i]:
                run.errors.setdefault(i, "criterion %d lines differ from "
                                      "the pinned report" % (i + 1))
        if want_blocks and not run.errors and (
                W.acceptance.render_report(run.results, "lines")
                != PINNED_REPORT.read_text()):
            run.errors[0] = "report text differs from the pinned report"
        return
    if seed != W.DEFAULT_SEED:
        return
    pins = json.loads(PINNED.read_text())[name]
    for i, (line, want) in enumerate(zip(run.lines, pins)):
        if W.digest(line) != want:
            run.errors.setdefault(i, "output differs from the pinned one")


def quantile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(name, run: Run, setup) -> dict:
    lats = run.lats
    wall = sum(lats)
    if name == "report":
        lats = list(itertools.accumulate(lats))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ops_per_s": (len(run.lats) / sum(run.lats), "1/s"),
        "latency_p50_ms": (statistics.median(lats) * 1e3, "ms"),
        "latency_p99_ms": (quantile(lats, 99) * 1e3, "ms"),
    }


def replay_untraced(name, seed, seconds):
    """Seconds the same operations take untraced, in a fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--replay"]
    timeout = RUN_LIMIT_S - (time.monotonic() - STARTED)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1), check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        print("replay failed: %s" % exc, file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])["replay_s"]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "bd4").rglob("*.py")))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bd4" / "__init__.py").is_file():
        print("error: no bd4 sources at %s" % SRC, file=sys.stderr)
        return 2
    setup = None
    if not (args.replay or args.trace):
        setup = measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    import workloads as W
    import layertrace as T
    from refclock import ReferenceClock

    if not Path(W.acceptance.__file__).resolve().is_relative_to(SRC):
        print("error: bd4 was imported from outside %s" % SRC,
              file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    clock = ReferenceClock()
    tracer = T.Tracer(now=clock.now) if args.trace else None
    pause = contextlib.nullcontext if tracer is None else tracer.paused

    def drive():
        if name == "report":
            return drive_report(W, seed, clock)
        return drive_queries(W, name, seed, run_ops(W, name, args.seconds),
                             clock, pause)

    if tracer is not None:
        tracer.install()
    clock.start()
    try:
        run = drive()
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    if args.replay:
        print(json.dumps({"replay_s": sum(run.lats)}))
        return 0
    check_pins(W, name, seed, run)

    attempted = len(run.lats)
    info = {
        "workload": name, "seed": seed, "ops": attempted,
        "fail_ratio": len(run.errors) / attempted,
        "errors": [run.errors[i] for i in sorted(run.errors)][:5],
        "src_lines": src_lines(),
    }
    if name == "report":
        info["criteria_s"] = {"c%02d" % (i + 1): round(s, 4)
                              for i, s in enumerate(run.lats)}
    else:
        info["valid_share"] = run.valid / attempted
    if clock.samples:
        info["calibration_median_s"] = statistics.median(clock.samples)
    if tracer is None:
        info["setup_samples_s"] = [round(s, 5) for s in setup]
        metrics = end_to_end(name, run, setup)
    else:
        c10 = run.results[9] if name == "report" else None
        untraced = replay_untraced(name, seed, args.seconds)
        if untraced is None:
            return 1
        criteria = ({n + 1: s for n, s in enumerate(run.lats)}
                    if name == "report" else None)
        values = tracer.metrics(
            criteria=criteria,
            c10_details=None if c10 is None else c10.details,
            overhead=sum(run.lats) - untraced)
        metrics = {m: (values[m], unit) for m, unit in T.METRICS}
        info["layers"] = tracer.layer_table()
        info["missing_hooks"] = sorted(tracer.missing)
        info["broken_hooks"] = sorted(tracer.broken)
        info["unmeasured"] = tracer.unmeasured
        info["untraced_s"] = untraced
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": attempted,
        "failed": len(run.errors),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
