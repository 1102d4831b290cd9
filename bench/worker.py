"""One benchmark process: set up, run the closed loop, check, report.

Started by run.py. It writes JSON lines to stdout: {"event": "ready"}
as soon as set-up (import, size caches, one warm-up operation) is done,
with the reference loops taken during set-up, then, unless
--setup-only, {"event": "result"} with the measurements and checks.
Closed loop, one client: the next operation starts when the previous
one has returned. Each operation is followed by one reference loop
(long ones also have one between their parts), and its time is
reported at reference speed (see calibrate.StepClock).

Untraced (--trace 0): the whole --seconds go to the timed loop.
Traced (--trace 1): set-up runs traced so that solver builds show; then
for --seconds untraced and traced operations take turns, which gives
the tracing overhead; then a counting pass over hot scalar constructors
and the layer micro-figures. The report fingerprint of the warm-up
operation is recomputed under the wrappers and must not change.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from calibrate import StepClock, at_reference_speed  # noqa: E402

COUNTING_OPS = 2


def emit(**message):
    sys.stdout.write(json.dumps(message, sort_keys=True) + "\n")
    sys.stdout.flush()


def op_seeds(seed):
    master = random.Random("ops:%d" % seed)
    while True:
        yield master.randrange(2 ** 32)


class Samples:
    """Operation times of one loop: wall seconds, seconds at reference
    speed, and every reference-loop time taken during the loop."""

    def __init__(self):
        self.raw = []
        self.cal = []
        self.refs = []
        self.failed = 0


def checked_run(workload, op_seed, step=lambda: None):
    """(report text or None, verdict matched) of one operation; an
    exception is a failure."""
    try:
        return workload.run(op_seed, step)
    except Exception:
        traceback.print_exc()
        return None, False


def timed_loop(workload, seeds, seconds, tracer=None):
    """Run operations until `seconds` have passed. With a tracer,
    untraced and traced operations take turns, so that drift in machine
    speed falls on both alike; returns (untraced, traced) Samples."""
    plain, traced_ops = Samples(), Samples()
    clock = StepClock()
    end = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(traced_ops.raw) < len(plain.raw)
        clock.start()
        if traced:
            with tracer.installed():
                _, ok = checked_run(workload, next(seeds), clock.step)
            tracer.end_op()
        else:
            _, ok = checked_run(workload, next(seeds), clock.step)
        clock.step()
        s = traced_ops if traced else plain
        s.raw.append(clock.raw)
        s.cal.append(clock.cal)
        s.refs.extend(clock.refs)
        clock.refs.clear()
        s.failed += not ok
        balanced = tracer is None or len(traced_ops.raw) == len(plain.raw)
        if balanced and perf_counter() >= end:
            return plain, traced_ops


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(t, setup, ops, scale, setup_scale, counts):
    """Per-layer figures of the traced loop, per operation. Times are
    scaled to reference speed by `scale` (set-up by `setup_scale`)."""
    def per_op(x):
        return x / ops

    def secs(x):
        return per_op(x) * scale

    rec = t.calls("twolocal.reconstruct")
    witness = t.calls("localder.witness")
    m = {
        "matrices.commutator_calls": per_op(t.calls("matrices.commutator")),
        "matrices.commutator_s": secs(t.self_s("matrices.commutator")),
        "matrices.cache_key_calls": per_op(t.calls("matrices.cache_key")),
        "matrices.cache_key_s": secs(t.self_s("matrices.cache_key")),
        "lie.apply_calls": per_op(t.calls("lie.apply")),
        "lie.apply_s": secs(t.self_s("lie.apply")),
        "lie.decompose_calls": per_op(t.calls("lie.decompose")),
        "lie.decompose_s": secs(t.self_s("lie.decompose")),
        "linsolve.rows_reduced": per_op(t.calls("linsolve.reduce")),
        "linsolve.reduce_s": secs(t.self_s("linsolve.reduce")),
        "linsolve.solve_calls": per_op(t.calls("linsolve.solve")),
        "linsolve.solve_s": secs(t.self_s("linsolve.solve")),
        "linsolve.express_calls": per_op(t.calls("linsolve.express")),
        "linsolve.express_s": secs(t.self_s("linsolve.express")),
        "twolocal.queries_per_reconstruct":
            t.edge("twolocal.reconstruct", "twolocal.query") / rec
            if rec else 0,
        "twolocal.queries_per_op": per_op(t.calls("twolocal.query")),
        "twolocal.distinct_pairs_per_op": per_op(t.distinct_pairs),
        "twolocal.reconstruct_s": secs(t.total_s("twolocal.reconstruct")),
        "twolocal.verify_s": secs(t.total_s("twolocal.verify")),
        "twolocal.brute_s": secs(t.total_s("twolocal.brute")),
        "twolocal.solver_build_s":
            setup.total_s("twolocal.solver_build") * setup_scale,
        "localder.queries_per_op": per_op(t.calls("localder.query")),
        "localder.witness_calls_per_op": per_op(witness),
        "localder.witness_memo_hit_ratio":
            1 - t.edge("localder.witness", "localder.query") / witness
            if witness else 0,
        "localder.tabulate_s": secs(t.total_s("localder.tabulate")),
        "localder.build_d_s": secs(t.total_s("localder.build_d")),
        "localder.verify_full_s": secs(t.total_s("localder.verify_full")),
        "localder.eq_5_1_s": secs(t.total_s("localder.eq_5_1")),
        "localder.brute_s": secs(t.total_s("localder.brute")),
        "symcheck.certify_lemma_self_s":
            secs(t.self_s("symcheck.certify_lemma")),
        "symcheck.certify_s": secs(t.total_s("symcheck.certify")),
        "symcheck.components": per_op(t.components),
        "symcheck.not_implied": per_op(t.not_implied),
        "reporting.records_per_op": per_op(t.calls("reporting.add")),
        "reporting.to_json_s": secs(t.total_s("reporting.to_json")),
    }
    for name in ("tabulate_queries", "build_d_queries",
                 "build_d_witness_reads"):
        m["localder." + name] = counts.get(name, (0, None))[0]
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_traced(workload, seeds, seconds, count_seed, fp_seed):
    """The traced phase. Returns (result fields, tracer, traced Samples);
    the fields include attempted and failed."""
    import micro
    from tracing import Tracer, count_constructors

    with Tracer().installed():
        text, ok = checked_run(workload, fp_seed)
    failed = int(not ok)
    tracer = Tracer()
    plain, traced = timed_loop(workload, seeds, seconds, tracer)
    failed += plain.failed + traced.failed
    overhead = statistics.median(traced.cal) / statistics.median(plain.cal)
    counting_seeds = op_seeds(count_seed)
    constructor_counts = {}
    with count_constructors(constructor_counts):
        for _ in range(COUNTING_OPS):
            failed += not checked_run(workload, next(counting_seeds))[1]
    layers = {"trace.overhead_ratio": (overhead, "ratio")}
    for name, value in constructor_counts.items():
        layers["rings." + name] = (value / COUNTING_OPS, "count")
    layers.update(micro.figures())
    fields = {"fingerprint_traced": workloads.fingerprint(text),
              "ops_traced": len(traced.raw), "ops_untraced": len(plain.raw),
              "overhead": overhead,
              "ref_ms": 1e3 * statistics.median(traced.refs),
              "layers": layers,
              "attempted": 1 + len(plain.raw) + len(traced.raw)
              + COUNTING_OPS,
              "failed": failed}
    return fields, tracer, traced


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    seeds = op_seeds(args.seed)
    fp_seed = next(seeds)
    setup_tracer = None
    clock = StepClock()
    clock.start()
    if args.trace:
        from tracing import Tracer
        setup_tracer = Tracer()
        with setup_tracer.installed():
            workload.prepare()
    else:
        workload.prepare()
    clock.step()
    text, warm_ok = checked_run(workload, fp_seed, clock.step)
    clock.step()
    # the parent times process start to this line; the clock's figures
    # let it take out the reference loops and calibrate each part
    emit(event="ready", raw=clock.raw, cal=clock.cal, refs=clock.refs)
    if args.setup_only:
        return 0

    fingerprint = workloads.fingerprint(text)
    if args.trace:
        result, tracer, traced = run_traced(workload, seeds, args.seconds,
                                            args.seed + 1, fp_seed)
        result["fingerprints_match"] = \
            result["fingerprint_traced"] == fingerprint
        result["failed"] += not result["fingerprints_match"]
    else:
        plain, _ = timed_loop(workload, seeds, args.seconds)
        result = {"times": plain.cal, "raw_times": plain.raw,
                  "ref_ms": 1e3 * statistics.median(plain.refs),
                  "peak_rss_mb": peak_rss_mb(),
                  "attempted": len(plain.raw), "failed": plain.failed}
    result["fingerprint"] = fingerprint
    result["attempted"] += 1
    result["failed"] += not warm_ok

    counts = checks.query_counts(workload, args.seed)
    result["query_counts"] = {k: v[0] for k, v in counts.items()}
    asserted = {k: v for k, v in counts.items() if v[1] is not None}
    bad_counts = [k for k, (got, want) in asserted.items() if got != want]
    if args.trace and "queries_per_reconstruct" in counts:
        # the traced count must equal the oracle wrapper's
        rec = tracer.calls("twolocal.reconstruct")
        asserted["traced queries_per_reconstruct"] = None
        if tracer.edge("twolocal.reconstruct", "twolocal.query") != \
                rec * counts["queries_per_reconstruct"][0]:
            bad_counts.append("traced queries_per_reconstruct")
    gate_attempted, gate_failed = checks.corruption_gate(args.seed)
    result["gate"] = {"attempted": gate_attempted, "failed": gate_failed}
    result["bad_counts"] = bad_counts
    result["attempted"] += gate_attempted + len(asserted)
    result["failed"] += gate_failed + len(bad_counts)

    if args.trace:
        result["layers"].update(layer_metrics(
            tracer, setup_tracer, len(traced.raw),
            at_reference_speed(1.0, statistics.median(traced.refs)),
            at_reference_speed(1.0, statistics.median(clock.refs)), counts))
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"setup": setup_tracer.dump(),
                           "ops": tracer.dump(),
                           "ops_traced": len(traced.raw)},
                          fh, indent=1, sort_keys=True)
    emit(event="result", **result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
