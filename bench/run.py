"""egdeg benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload d3_circle --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; egdeg is imported from its ``src``
directory.  The inputs come from the seed alone.  A run imports egdeg and
sets the workload up, times the same import and set-up in SETUP_REPS - 1
fresh processes, then makes passes over all its operations, back to back
with one caller: at least MIN_PASSES, and another only while the mean pass
so far still fits in ``--seconds``.  Every operation's result is checked against
the workload's oracle, and its canonical payload is hashed; a payload that
differs between passes counts as a failure.

Other tenants of the host switch the machine between a fast and a slow
state for seconds to minutes at a time, so set-up and passes run under the
``Gauge`` of reference.py, which times a short fixed computation every
PERIOD seconds.  Times are reported in reference seconds: measured seconds,
less the gauge's own, times REF_S over the mean reference call of the same
phase.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* setup_s      median over SETUP_REPS processes of import plus set-up time
* solve_s      one pass over all operations, each taken at its median
               over passes
* op_max_s     slowest operation, each operation taken at its median over
               passes
* peak_rss_mb  peak resident memory of the process

With ``--trace 1`` the run sets up once under the tracer, makes one untraced
pass and one traced pass, and the last line carries the per-layer metrics of
tracer.py, in measured seconds, plus ``trace.overhead_s`` (traced minus
untraced pass time).

Per-operation lines (inputs, seconds, payload sha256) precede the result,
and the full run record, spans and measured times included, goes to
.bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_PASSES = 2
# one thread everywhere, so the numbers measure egdeg, not the scheduler;
# must be set before numpy is first imported
PINNED_ENV = {"EGDEG_WORKERS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}


def import_egdeg() -> float:
    """Import egdeg from the checkout's src directory; returns seconds."""
    os.environ.update(PINNED_ENV)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    start = time.perf_counter()
    import egdeg
    elapsed = time.perf_counter() - start
    if Path(egdeg.__file__).resolve().parent != src / "egdeg":
        raise ImportError(f"egdeg resolved to {egdeg.__file__}, not {src}")
    return elapsed


@dataclass
class Pass:
    wall: float
    seconds: list     # per operation
    hashes: list      # payload sha256 per operation, None if it raised
    errors: list      # failure reason per operation, None if it passed


def run_pass(workload, case, n: int, tracer=None, gauge=None) -> Pass:
    """All n operations back to back; results are checked after the clock.
    Time spent in the gauge, if one runs, is taken out of every time."""
    seconds, results, payloads, raised = [], [], [], []

    def clock():
        return time.perf_counter() - (gauge.spent if gauge else 0.0)

    start = clock()
    for i in range(n):
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            result, payload = workload.run_op(case, i)
        except Exception as exc:  # a raising operation is a failed one
            result, payload = None, None
            raised.append(f"{type(exc).__name__}: {exc}")
        else:
            raised.append(None)
        seconds.append(clock() - t)
        results.append(result)
        payloads.append(payload)
    wall = clock() - start
    hashes, errors = [], []
    for result, payload, err in zip(results, payloads, raised):
        if err is None and not workload.check(result):
            err = "oracle mismatch"
        hashes.append(None if payload is None
                      else hashlib.sha256(payload.encode()).hexdigest())
        errors.append(err)
    return Pass(wall, seconds, hashes, errors)


def count_failures(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed); a hash that differs from the first pass fails."""
    attempted = failed = 0
    first = passes[0].hashes
    for p in passes:
        for i, (h, err) in enumerate(zip(p.hashes, p.errors)):
            attempted += 1
            if err is not None:
                failed += 1
            elif h != first[i]:
                p.errors[i] = "payload differs from the first pass"
                failed += 1
    return attempted, failed


def timed_setup(workload, inputs, import_s: float):
    """This process's set-up, timed from its egdeg import on: the case,
    the measured seconds and the same in reference seconds."""
    from reference import Gauge

    gauge = Gauge()
    with gauge.running():
        start = time.perf_counter()
        case = workload.setup(inputs)
        setup = import_s + time.perf_counter() - start - gauge.spent
    gauge.top_up()
    return case, setup, setup * gauge.scale()


def setup_in_child(args) -> tuple[float, float]:
    """Measured and scaled import-plus-set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--size", str(args.size),
         "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    measured, scaled = proc.stdout.split()[-2:]
    return float(measured), float(scaled)


def timed_run(workload, inputs, args, import_s: float):
    from reference import Gauge

    case, *first = timed_setup(workload, inputs, import_s)
    setups = [tuple(first)] + [
        setup_in_child(args) for _ in range(SETUP_REPS - 1)]
    passes: list[Pass] = []
    gauge = Gauge()
    with gauge.running():
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, case, len(inputs), gauge=gauge))
            elapsed = time.perf_counter() - start
            if (len(passes) >= MIN_PASSES
                    and elapsed + elapsed / len(passes) > args.seconds):
                break
    # Per-op medians over passes, summed, rather than whole passes: a burst
    # of load on the host then slows one sample of an op, not the metric.
    op_medians = [statistics.median(p.seconds[i] for p in passes)
                  for i in range(len(inputs))]
    factor = gauge.scale()
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "solve_s": (sum(op_medians) * factor, "s"),
        "op_max_s": (max(op_medians) * factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {"measured": {"setup_s": statistics.median(m for m, _ in setups),
                          "solve_s": sum(op_medians),
                          "op_max_s": max(op_medians)},
             "setup_times": setups, "reference_calls": gauge.samples,
             "reference_mean": statistics.fmean(gauge.samples)}
    return metrics, passes, None, extra


def traced_run(workload, inputs):
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        tracer.op = -1
        case = workload.setup(inputs)
    plain = run_pass(workload, case, len(inputs))
    with tracer.installed():
        traced = run_pass(workload, case, len(inputs), tracer)
    units = {"_s": "s", "yield": "ratio", "ratio": "ratio"}
    metrics = {}
    for key, value in tracer.metrics().items():
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)),
                    "count")
        metrics[key] = (value, unit)
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    return metrics, [plain, traced], tracer, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=0,
                        help="operations per pass (default: the workload's)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print one import-plus-set-up time and exit")
    args = parser.parse_args(argv)

    try:
        import_s = import_egdeg()
    except ImportError as exc:
        print(f"cannot import egdeg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    args.size = args.size or workload.default_size
    inputs = workload.generate(args.seed, args.size)

    if args.setup_only:
        print(*timed_setup(workload, inputs, import_s)[1:])
        return 0
    if args.trace:
        metrics, passes, tracer, extra = traced_run(workload, inputs)
    else:
        metrics, passes, tracer, extra = timed_run(workload, inputs, args,
                                                   import_s)
    attempted, failed = count_failures(passes)

    labels = [{k: v for k, v in inp.items() if k != "terms"} for inp in inputs]
    for i, label in enumerate(labels):
        p = passes[0]
        print(f"op {i} {json.dumps(label)} {p.seconds[i]:.4f}s "
              f"sha256={p.hashes[i]} {p.errors[i] or 'ok'}")
    print(f"passes={len(passes)} attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.4f}")
    if "measured" in extra:
        print("measured " + " ".join(f"{k}={v:.4f}"
                                     for k, v in extra["measured"].items())
              + f" reference_mean={extra['reference_mean']:.5f}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "inputs": labels,
              "passes": [vars(p) for p in passes], "attempted": attempted,
              "failed": failed, "metrics": metrics, **extra}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
