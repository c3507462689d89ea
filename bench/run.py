"""weilkit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload jets|cones|verify|commands \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; weilkit is imported from its ``src``
directory.  The workload is a closed loop with one caller: each op starts
when the previous one has returned and been checked.

``--trace 0`` sets up several times (a fresh interpreter loads weilkit and
the records, then this process builds the workload), then runs whole
cycles of its seeded op list for about S seconds (at least one), timing each
op and checking its output.  The last line printed holds the end-to-end
metrics, taken over each op's median latency across the cycles.  Times
are calibrated (see ``calib.py``) so that a machine that slows down under
outside load does not move them: builds and ops are scaled by the speed of
a fixed stdlib kernel sampled while they run, and each cold start by the
times of reference interpreters started just before and after it.  The details line
has the wall-clock op figures too.  ``setup_s`` is the median cold start
plus the median build.

``--trace 1`` runs each distinct op of one cycle untraced, then wraps
weilkit's public callables (see ``tracer.py``), builds the workload again
and runs the same ops traced, both in wall-clock time with no calibration sampling.  The
last line holds the per-layer metrics of the traced set-up and cycle, and
the tracing overhead.

The last line is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status is 0 when the run completed, 2 when weilkit or
the records cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from calib import Sampler, child_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RECORDS = os.path.join(HERE, "records.json")
COLD_STARTS = 7
BUILDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("jets", "cones", "verify", "commands"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load():
    """Import weilkit from this checkout and the records; None on failure."""
    sys.path[:0] = [SRC, HERE]
    try:
        import weilkit
    except ImportError as exc:
        print(f"error: cannot import weilkit from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(weilkit.__file__).startswith(SRC + os.sep):
        print(f"error: weilkit came from {weilkit.__file__}, not {SRC}", file=sys.stderr)
        return None
    try:
        with open(RECORDS) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {RECORDS}: {exc}", file=sys.stderr)
        return None


def cold_starts():
    """Calibrated seconds for each of COLD_STARTS fresh interpreters to load
    what a run loads before its first build: weilkit, the benchmark's
    modules and the records."""
    code = (
        f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import json, layers, workloads; "
        f"json.load(open({RECORDS!r}))"
    )
    return child_seconds(code, COLD_STARTS)


def handler_time(sampler):
    return sampler.spent if sampler else 0.0


def run_op(op, sampler=None):
    """(kind, seconds in the call, output correct, start, end) for one op.
    The seconds leave out the time the sampler's handler took."""
    spent = handler_time(sampler)
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raising op is a failed op, the run goes on
        end = time.perf_counter()
        print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return op.kind, end - start - (handler_time(sampler) - spent), False, start, end
    end = time.perf_counter()
    elapsed = end - start - (handler_time(sampler) - spent)
    try:
        ok = bool(op.check(out))
    except Exception as exc:  # a malformed output fails its check
        print(f"op {op.kind} output unreadable: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op.kind} gave a wrong output", file=sys.stderr)
    return op.kind, elapsed, ok, start, end


def run_cycles(ops, seconds, sampler):
    """Whole cycles of ops, one list of samples per cycle.  The first cycle
    always runs; another runs only while the previous cycle's length says
    it will end within `seconds`."""
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cycles.append([run_op(op, sampler) for op in ops])
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return cycles


def calibrated(call, sampler):
    """(result, calibrated seconds in the call)."""
    spent = sampler.spent
    start = time.perf_counter()
    result = call()
    end = time.perf_counter()
    return result, sampler.scale(end - start - (sampler.spent - spent), start, end)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def latencies(ops, cycles, sampler=None):
    """Each distinct op's latency: its median over every place it ran, in
    calibrated seconds when a sampler is given, else in wall-clock seconds."""

    def seconds(sample):
        return sampler.scale(sample[1], sample[3], sample[4]) if sampler else sample[1]

    runs = {}
    for cycle in cycles:
        for op, sample in zip(ops, cycle):
            runs.setdefault(id(op), []).append(seconds(sample))
    return [statistics.median(v) for v in runs.values()]


def timing(times):
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": percentile(times, 90) * 1000,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def by_kind(samples):
    kinds = {}
    for kind, seconds, *_ in samples:
        kinds.setdefault(kind, []).append(seconds)
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in sorted(kinds.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    records = load()
    if records is None:
        return 2
    import layers
    import workloads
    from tracer import Tracer

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        # cold starts first: no sampler may run while a child does
        starts, builds = cold_starts(), []
        with Sampler() as sampler:
            for _ in range(BUILDS):
                ops, seconds = calibrated(
                    lambda: workloads.build(args.workload, args.seed, records), sampler
                )
                builds.append(seconds)
            cycles = run_cycles(ops, args.seconds, sampler)
        setup_s = statistics.median(starts) + statistics.median(builds)
        samples = [s for c in cycles for s in c]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = dict(timing(latencies(ops, cycles, sampler)), setup_s=setup_s, peak_rss_mb=rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        info.update(
            cycles=len(cycles),
            setup_builds_s=builds,
            cold_start_s=starts,
            wall=timing(latencies(ops, cycles)),
            cal_ms=statistics.median(sampler.cals) * 1000,
        )
    else:
        # each distinct op once: the per-layer figures need no repeats
        ops = list(dict.fromkeys(workloads.build(args.workload, args.seed, records)))
        untraced = [run_op(op) for op in ops]
        tracer = Tracer().install()
        try:
            ops = list(dict.fromkeys(workloads.build(args.workload, args.seed, records)))
            traced = [run_op(op) for op in ops]
        finally:
            tracer.uninstall()
        samples = untraced + traced
        metrics, absent = layers.per_layer(tracer, traced, untraced)
        info.update(cycles=2, absent=absent, missing_callables=tracer.absent)
    failed = sum(1 for s in samples if not s[2])
    info.update(
        cycle_ops=len(ops),
        samples=len(samples),
        failed_frac=failed / len(samples),
        ops=by_kind(samples),
    )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
