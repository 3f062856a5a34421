"""ordbool benchmark: one workload per run, or all of them in fresh interpreters.

Usage, from the repository root:

    python3 bench/run.py --workload query-stream --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 15

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
first runs untraced for half the budget, then repeats the same rounds with
every layer's entry points wrapped, and prints per-layer self times and
counts.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The program is imported
from ``src/`` next to this directory and nowhere else; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-oneshot", "query-stream", "verify-sweep")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Layer span name -> per-layer metric; every other layer reports <name>_s.
SELF_TIME_NAMES = {
    "exprs.eval": "exprs.eval_self_s",
    "signed": "signed.s",
    "measure": "measure.s",
    "cli": "cli.self_s",
}
PER_LAYER_COUNTS = (
    "poset.build_calls", "poset.elems_built", "poset.orth_calls", "poset.refine_calls",
    "ops.calls", "ops.pairs", "ops.result_elems", "signed.calls", "measure.calls",
    "exprs.nodes", "oracle.law_cases", "oracle.diff_cases",
)


def _import_program():
    if not (SRC / "ordbool" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'ordbool'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ordbool

    if Path(ordbool.__file__).resolve().parent != SRC / "ordbool":
        print(f"error: imported ordbool from {ordbool.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _quantile(values, q: int) -> float:
    """The q-th decile (q=5 is the median) of at least two values."""
    return statistics.quantiles(values, n=10)[q - 1] if len(values) > 1 else values[0]


def _setup_seconds(workload, gauge) -> float:
    """Median set-up time, scaled to the reference CPU speed."""
    import workloads

    gauge.scale()
    times = []
    for _ in range(workloads.SETUP_REPEATS):
        times.append(workload.setup())
        gauge.tick()
    return statistics.median(times) * gauge.scale()


def _report_failures(run) -> None:
    for label, out in run.failures[:5]:
        print(f"  mismatch: {label!r} -> {out!r}", file=sys.stderr)


def end_to_end(workload, gauge, seconds: float):
    """Untraced run: (ops attempted, ops failed, end-to-end metrics)."""
    import workloads

    setup_s = _setup_seconds(workload, gauge)
    run = workloads.run_rounds(workload, gauge, seconds)
    lat = run.latencies
    metrics = {
        "setup_s": setup_s,
        "latency_ms_p50": _quantile(lat, 5) * 1e3,
        "latency_ms_p90": _quantile(lat, 9) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{workload.name}: {len(lat)} ops in {run.rounds} rounds, "
          f"{len(run.failures)} failed (failed_frac {len(run.failures) / len(lat):.4g}); "
          f"percentiles over {len(lat)} samples; "
          f"CPU at {1 / run.slowdown:.0%} of reference speed")
    _report_failures(run)
    units = dict(END_TO_END)
    return len(lat), len(run.failures), {k: (v, units[k]) for k, v in metrics.items()}


def per_layer(workload, gauge, seconds: float):
    """Untraced half-budget pass, then the same rounds traced: per-layer metrics."""
    import tracing
    import workloads

    _setup_seconds(workload, gauge)
    plain = workloads.run_rounds(workload, gauge, seconds / 2, wall_limit=50.0)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        workload.setup()
        traced = workloads.run_rounds(workload, gauge, 0, rounds=plain.rounds, tracer=tracer,
                                      wall_limit=50.0)
    finally:
        tracing.uninstall(undo)
    tracer.fold()
    metrics = {}
    for layer in sorted(set(tracing.LAYERS.values())):
        name = SELF_TIME_NAMES.get(layer, layer + "_s")
        metrics[name] = (tracer.self_s[layer] / traced.slowdown, "s")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    metrics["trace.ops"] = (len(traced.latencies), "count")
    overhead = sum(traced.latencies) / sum(plain.latencies[:len(traced.latencies)]) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    ops = len(plain.latencies) + len(traced.latencies)
    failed = len(plain.failures) + len(traced.failures)
    print(f"{workload.name}: traced {len(traced.latencies)} ops in {traced.rounds} rounds "
          f"after the same rounds untraced; {failed} of {ops} ops failed")
    _report_failures(plain)
    _report_failures(traced)
    return ops, failed, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](seed, str(SRC))
    gauge = workloads.SpeedGauge()
    attempted, failed, metrics = (per_layer if trace else end_to_end)(workload, gauge, seconds)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<22} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh interpreter, so caches and peak memory are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        lines = child.stdout.strip().splitlines()
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with status {child.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
