"""Benchmark of the qfock library and command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload strings|sources|catalog|cli \\
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of the workload: set-up is
timed in three fresh processes (median), then the last of them warms
up and runs whole rounds of the workload's seeded operations for at
least ``--seconds``, checking every output against independent oracles.
``--trace 1`` prints the per-layer metrics instead: the workload runs
untraced and then traced for ``--seconds`` each (the difference is the
tracing overhead), and each other workload runs one traced round, so
every layer is covered.  Spans go to ``bench/out/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Needs only the standard
library here; the workers import numpy and ``src/qfock``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("strings", "sources", "catalog", "cli")
LAYERS = ("fock", "codes", "linalg", "qcode", "complexity", "experiments", "cli")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread and a fixed hash seed: one process, one closed-loop client.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    def __init__(self, args, workdir: str, deadline: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def __call__(self, workload: str, mode: str, spans: str | None = None):
        """Start a worker; return (seconds until READY, its result or None)."""
        self.count += 1
        workdir = os.path.join(self.workdir, str(self.count))
        os.makedirs(workdir)
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--mode", mode, "--workdir", workdir]
        if spans:
            cmd += ["--spans", spans]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
        try:
            ready = proc.stdout.readline()
            ready_s = perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} worker ({mode}) ran past the deadline") from None
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"{workload} worker ({mode}) failed with exit code {proc.returncode}")
        lines = rest.strip().splitlines()
        return ready_s, (json.loads(lines[-1]) if lines else None)


def end_to_end(args, spawn) -> tuple[dict, list, dict]:
    setups = [spawn(args.workload, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    ready_s, res = spawn(args.workload, "run")
    setups.append(ready_s)
    phase = res["untraced"]
    metrics = {
        "throughput_ops_s": phase["throughput_ops_s"],
        "latency_p50_ms": phase["latency_p50_ms"],
        "latency_tail_ms": phase["latency_tail_ms"],
        "peak_rss_mib": phase["peak_rss_mib"],
        "setup_s": statistics.median(setups),
    }
    record = {**phase, "setup_samples_s": setups}
    return metrics, [phase], record


def per_layer(args, spawn) -> tuple[dict, list, dict]:
    results = {}
    for name in (args.workload, *[w for w in WORKLOADS if w != args.workload]):
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{name}.jsonl")
        mode = "traced" if name == args.workload else "sweep"
        results[name] = spawn(name, mode, spans)[1]
    ops: dict[str, list] = {}
    setup: dict[str, list] = {}
    extras: dict[str, float] = {}
    for res in results.values():
        for target, part in ((ops, res["ops_per_round"]), (setup, res["setup_spans"])):
            for key, (calls, secs) in part.items():
                slot = target.setdefault(key, [0.0, 0.0])
                slot[0] += calls
                slot[1] += secs
        extras.update(res["extras"])
    own = results[args.workload]
    metrics = layer_metrics(ops, setup, extras)
    base = own["untraced"]["throughput_ops_s"]
    traced = own["traced"]["throughput_ops_s"]
    metrics["trace.throughput_delta_ops_s"] = base - traced
    metrics["trace.overhead_pct"] = 100.0 * (base - traced) / base
    phases = [own["untraced"]] + [r["traced"] for r in results.values()]
    record = {"ops_per_round": ops, "setup_spans": setup, "extras": extras,
              "untraced": own["untraced"],
              "traced": {name: r["traced"] for name, r in results.items()}}
    return metrics, phases, record


def layer_metrics(ops: dict, setup: dict, extras: dict) -> dict:
    """Per-layer figures from per-round span totals, set-up spans and probes."""

    def total(table, name):
        """(calls, seconds) of ``name`` and its tagged variants ``name.<tag>``."""
        rows = [v for k, v in table.items() if k == name or k.startswith(name + ".")]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    def mean(name, scale, table=ops):
        calls, secs = total(table, name)
        return secs / calls * scale if calls else math.nan

    m = {}
    for layer in LAYERS:
        calls, secs = total(ops, layer)
        m[f"{layer}.busy_s"] = secs
        m[f"{layer}.calls"] = calls
    for what, enc, dec in (("pair", "pair_encode", "pair_decode"),
                           ("sequence", "sequence_encode", "sequence_decode"),
                           ("qstr", "dump_qstring", "load_qstring")):
        m[f"fock.{what}_roundtrip_us"] = mean(f"fock.{enc}", 1e6) + mean(f"fock.{dec}", 1e6)
    m["fock.self_delimit_us"] = mean("fock.self_delimit", 1e6)
    m["codes.shannon_code_us"] = mean("codes.shannon_code", 1e6)
    m["codes.kraft_sum_exact_us"] = mean("codes.kraft_sum_exact", 1e6)
    for d in (4, 8, 16, 32):
        m[f"linalg.eig_hermitian_ms.d{d}"] = mean(f"linalg.eig_hermitian.d{d}", 1e3)
    m["linalg.density_from_ensemble_ms"] = mean("linalg.density_from_ensemble", 1e3)
    m["linalg.load_ensemble_us"] = mean("linalg.load_ensemble", 1e6)
    m["qcode.sw_report_ms"] = mean("qcode.sw_report", 1e3)
    m["qcode.encode_qstring_us"] = mean("qcode.encode_qstring", 1e6)
    lossy = sorted(k for k in ops if k.startswith("qcode.lossy_typical_projection."))
    for key in lossy:
        m[f"qcode.lossy_typical_projection_ms.{key.rsplit('.', 1)[1]}"] = mean(key, 1e3)
    m["qcode.lossy_classes_per_s"] = (
        extras["qcode.lossy_classes_per_round"] / total(ops, "qcode.lossy_typical_projection")[1])
    m["complexity.identity_machine_s"] = mean("complexity.identity_machine", 1.0, setup)
    m["complexity.self_delimit_machine_s"] = mean("complexity.self_delimit_machine", 1.0, setup)
    m["complexity.read_machine_file_ms"] = mean("complexity.read_machine_file", 1e3, setup)
    m["complexity.rss_after_build_mib"] = extras["complexity.rss_after_build_mib"]
    m["complexity.universal_complexity_us"] = mean("complexity.universal_complexity", 1e6)
    for fn in ("incompressibility_report", "nonadditivity_search", "entropy_sandwich_report"):
        m[f"experiments.{fn}_ms"] = mean(f"experiments.{fn}", 1e3)
    m.update((k, v) for k, v in extras.items() if k.startswith("cli."))
    return m


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qfock", "__init__.py")):
        print(f"bench: no program at {os.path.join(ROOT, 'src', 'qfock')}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    spawn = Spawner(args, workdir, perf_counter() + DEADLINE_S)
    try:
        metrics, phases, record = (per_layer if args.trace else end_to_end)(args, spawn)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    if set(metrics) != set(declared):
        print(f"bench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1
    missing = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing:
        print(f"bench: no measurement for {missing}", file=sys.stderr)
        return 1
    problems = [p for ph in phases for p in ph["problems"]]
    out = {
        "correct": not any(ph["wrong"] for ph in phases),
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**out, "record": record}, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
