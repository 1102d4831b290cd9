"""Benchmark entry point for skewlie.

    python3 bench/run.py --workload twolocal-gauss --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from
src/. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end figures, taken from fresh untraced processes; with
--trace 1 they are the per-layer figures of a traced run (see
README.md). The lines before it give the details: sample counts, the
percentile behind op_ms_tail, report fingerprints, oracle query counts
and the machine. The exit status is 0 only when every operation's
verdict matched its known answer, 1 when one did not, and 2 when the
benchmark could not run at all.
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
import threading
from time import perf_counter

from calibrate import at_reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the names of workloads.WORKLOADS; this process does not import the library
WORKLOADS = ("twolocal-gauss", "local-gauss", "twolocal-fnring", "symcheck")
# set-up is sampled in this many fresh processes besides the measured one
SETUP_PROBES = 6
# every run ends well inside the three minutes a run may take
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Start a worker; returns (messages, seconds until it was ready).

    The worker is killed if it outlives `deadline` (a perf_counter
    value), and always waited for.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    timer.start()
    messages = []
    ready_s = None
    try:
        for line in proc.stdout:
            if ready_s is None:
                ready_s = perf_counter() - t0
            try:
                messages.append(json.loads(line))
            except ValueError:
                proc.kill()
                raise BenchError("worker wrote %r" % line[:200])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not messages:
        raise BenchError("worker %s exited with status %s"
                         % (" ".join(args), code))
    return messages, ready_s


def percentile(xs, q):
    """Nearest-rank percentile of a sorted list."""
    return xs[max(1, math.ceil(q / 100.0 * len(xs))) - 1]


def tail(xs):
    """(percentile, value) of the tail figure of the sorted list xs:
    p90 when at least TAIL_BEYOND samples lie beyond it, else the sample
    with exactly TAIL_BEYOND beyond it, but never below the median.
    The percentile so moves smoothly with the sample count."""
    n = len(xs)
    rank = min(math.ceil(0.9 * n), n - TAIL_BEYOND)
    rank = max(rank, math.ceil(0.5 * n))
    return 100.0 * rank / n, xs[rank - 1]


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


def untraced(args, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(setup_seconds(*spawn(common + ["--setup-only"],
                                          deadline)))
    messages, ready_s = spawn(common + ["--seconds", repr(args.seconds),
                                        "--trace", "0"], deadline)
    setup.append(setup_seconds(messages, ready_s))
    res = messages[-1]
    times = sorted(res["times"])
    q, tail_s = tail(times)
    metrics = {
        "op_ms_p50": (1e3 * percentile(times, 50), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw = sorted(res["raw_times"])
    detail = {"samples": len(times), "tail_percentile": q,
              "setup_samples_s": setup, "ref_ms": res["ref_ms"],
              "raw_op_ms_p50": 1e3 * percentile(raw, 50)}
    return res, metrics, detail


def setup_seconds(messages, ready_s):
    """Process start to ready at reference speed. The worker calibrated
    its own set-up steps; the part before its first reference loop
    (interpreter start and imports) is calibrated against that loop, and
    the time spent in reference loops is taken out."""
    ready = messages[0]
    before = ready_s - ready["raw"] - sum(ready["refs"])
    return at_reference_speed(before, ready["refs"][0]) + ready["cal"]


def traced(args, deadline):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_out = os.path.join(out_dir, "trace-%s-%d.json"
                             % (args.workload, args.seed))
    messages, _ = spawn(["--workload", args.workload, "--seed",
                         str(args.seed), "--seconds", repr(args.seconds),
                         "--trace", "1", "--trace-out", trace_out], deadline)
    res = messages[-1]
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    detail = {"ops_traced": res["ops_traced"],
              "ops_untraced": res["ops_untraced"],
              "tracing_overhead_ratio": res["overhead"],
              "ref_ms": res["ref_ms"],
              "fingerprint_traced": res["fingerprint_traced"],
              "fingerprints_match": res["fingerprints_match"],
              "trace_file": os.path.relpath(trace_out, ROOT)}
    return res, metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    deadline = perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "skewlie", "__init__.py")):
        print("no skewlie sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        res, metrics, detail = (traced if args.trace else untraced)(
            args, deadline)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": res["fingerprint"],
                   "query_counts": res["query_counts"],
                   "bad_counts": res["bad_counts"], "gate": res["gate"],
                   "machine": machine()})
    print(json.dumps({"detail": detail}, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-40s %14.6g %s" % (name, value, unit))
    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
