"""One workload in one process; started by ``run.py``.

Modes:

* ``setup``: set up, print ``READY``, exit (a set-up time sample);
* ``run``: set up, ``READY``, warm up, then the untraced measured phase;
* ``traced``: as ``run``, then the same phase again with spans on;
* ``sweep``: set up with spans on, then one traced round and the probes.

The last line of stdout is one JSON object with the figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from array import array
from time import perf_counter

import workloads
from spans import Api, Tracer

#: Rounds every measured phase runs at least.
MIN_ROUNDS = 2
#: Operations the tail percentile leaves beyond it.
TAIL_BEYOND = 10
MAX_PROBLEMS = 5


def warm_up(wl, api) -> None:
    """Run the first operation of each kind once, outside the timing."""
    seen = set()
    for op in wl.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                wl.call(op, api)
            except Exception:  # a failing operation is counted in the measured phase
                pass


def measure(wl, api, seconds: float, tracer: Tracer | None = None,
            min_rounds: int = MIN_ROUNDS) -> dict:
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds``.

    Outputs are checked between rounds; the check time counts towards
    ``seconds`` but not towards the measured busy time.  ``latencies``
    holds each operation's wall times, one per round.
    """
    ops = wl.ops
    latencies = [array("d") for _ in ops]
    problems: list[str] = []
    failed = wrong = rounds = 0
    busy = 0.0
    gc.collect()
    start = perf_counter()
    while rounds < min_rounds or perf_counter() - start < seconds:
        outs = []
        round_start = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                op_start = tracer.begin_op(i)
            t0 = perf_counter()
            try:
                out, ok = wl.call(op, api), True
            except Exception as exc:  # counted as a failed operation
                out, ok = exc, False
            latencies[i].append(perf_counter() - t0)
            if tracer is not None:
                tracer.end_op(op.kind, op_start)
            outs.append((ok, out))
        busy += perf_counter() - round_start
        rounds += 1
        if rounds == min_rounds:
            # Peak RSS after a fixed amount of work, whatever the run length.
            rss = max_rss_mib(children=wl.rss_of_children)
        if tracer is not None:
            tracer.keep_raw = False  # raw spans of the first round only
        for i, (op, (ok, out)) in enumerate(zip(ops, outs)):
            found = wl.check(i, op, out) if ok else [f"{op.kind}: {type(out).__name__}: {out}"]
            if found:
                failed += 1
                wrong += ok
                problems += [p[:300] for p in found[: MAX_PROBLEMS - len(problems)]]
    return {"rounds": rounds, "attempted": rounds * len(ops), "failed": failed, "wrong": wrong,
            "busy_s": busy, "latencies": latencies, "problems": problems, "peak_rss_mib": rss}


def summarize(phase: dict) -> dict:
    """Throughput, and median and tail of the operations' latencies.

    Each operation's latency is its median over the rounds, which sets
    aside the machine's slow spells; the percentiles then run over the
    operations of one round.  The tail is the highest percentile with
    ``TAIL_BEYOND`` operations beyond it.
    """
    per_op = sorted(statistics.median(times) for times in phase.pop("latencies"))
    beyond = min(TAIL_BEYOND, len(per_op) - 1)
    phase.update(
        throughput_ops_s=(phase["attempted"] - phase["failed"]) / phase["busy_s"],
        latency_p50_ms=statistics.median(per_op) * 1e3,
        latency_tail_ms=per_op[-1 - beyond] * 1e3,
        tail_percentile=100.0 * (len(per_op) - beyond) / len(per_op),
        operations=len(per_op),
    )
    return phase


def max_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced", "sweep"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="file for the raw spans")
    args = parser.parse_args(argv)

    wl = workloads.load(args.workload)(args.seed, args.workdir)
    tracer = Tracer() if args.mode in ("traced", "sweep") else None
    plain = Api(wl.entries)
    api = Api(wl.entries, tracer) if tracer is not None else plain
    wl.setup(api)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    warm_up(wl, plain)
    result = {"workload": args.workload}
    if args.mode in ("run", "traced"):
        result["untraced"] = summarize(measure(wl, plain, args.seconds))
    if tracer is not None:
        tracer.phase = "ops"
        seconds, rounds = (args.seconds, MIN_ROUNDS) if args.mode == "traced" else (0.0, 1)
        traced = measure(wl, api, seconds, tracer, min_rounds=rounds)
        del traced["latencies"]
        traced["throughput_ops_s"] = (traced["attempted"] - traced["failed"]) / traced["busy_s"]
        result["traced"] = traced
        wl.probe()
        result["ops_per_round"] = tracer.phase_totals("ops", traced["rounds"])
        result["setup_spans"] = tracer.phase_totals("setup")
        result["extras"] = wl.extras
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
