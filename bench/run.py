"""Benchmark of passiveqkd: one workload per process, whole rounds until time is up.

    python3 bench/run.py --workload curves|records|monitoring --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the rounds run the unmodified package and the
end-to-end metrics are reported.  With ``--trace 1`` untraced and traced
rounds alternate; the per-layer metrics come from the traced rounds and
``trace.overhead_s`` is the median traced round minus the median untraced
round.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing passiveqkd and its CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import passiveqkd, passiveqkd.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, walls, setup_s) -> dict:
    wall = statistics.median(walls)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rows_per_s": (workload.rows_per_round / wall, "rows/s"),
        "records_per_s": (workload.records_per_round / wall, "records/s"),
        "mpulses_per_s": (workload.pulses_per_round / 1e6 / wall, "Mpulses/s"),
    }


def per_layer(stats, workload, walls, traced_walls) -> dict:
    us, calls, ns = stats.us_per_call, stats.calls, stats.ns_per_unit
    single = getattr(workload, "single_thread_ns", [])
    rate_points = ("gllp_rate", "pna_rate_bb84", "decoy_rate_trusted", "decoy_rate_untagged")
    bounds = ("untagged_lower_bound_poisson", "untagged_lower_bound_gaussian")
    metrics = {
        "worstcase.maximize_ratio.calls": (calls("worstcase.maximize_ratio"), "count"),
        "worstcase.maximize_ratio.us_per_call": (us("worstcase.maximize_ratio"), "us"),
        "worstcase.maximize_ratio.busy_s": (stats.busy_s("worstcase.maximize_ratio"), "s"),
        "cli.run_scenario.calls": (calls("cli.run_scenario"), "count"),
        "cli.run_scenario.self_ms": (stats.self_ms_per_call("cli.run_scenario"), "ms"),
        "cli.load_validate.us_per_call": (
            us("cli.load_scenario") + us("cli.validate_scenario_dict"), "us"),
    }
    for f in ("pna_rate_bb84", "gllp_rate", "decoy_rate_trusted", "decoy_rate_untagged"):
        metrics[f"keyrate.{f}.us_per_call"] = (us(f"keyrate.{f}"), "us")
    metrics["keyrate.points"] = (sum(calls(f"keyrate.{f}") for f in rate_points), "count")
    metrics["keyrate.busy_s"] = (stats.layer_busy_s("keyrate"), "s")
    for f in ("poisson_bbar", *bounds):
        metrics[f"noise_bounds.{f}.us_per_call"] = (us(f"noise_bounds.{f}"), "us")
    metrics["noise_bounds.degenerate"] = (
        sum(stats.count_info(f"noise_bounds.{f}", "degenerate") for f in bounds), "count")
    metrics["noise_bounds.busy_s"] = (stats.layer_busy_s("noise_bounds"), "s")
    metrics["confidence.clopper_pearson.calls"] = (calls("confidence.clopper_pearson"), "count")
    metrics["confidence.clopper_pearson.us_per_call"] = (us("confidence.clopper_pearson"), "us")
    metrics["montecarlo.run.pulses"] = (stats.sum_info("montecarlo.run", "pulses"), "count")
    for kind in ("gaussian", "poisson", "explicit"):
        metrics[f"montecarlo.run.ns_per_pulse.{kind}"] = (
            ns("montecarlo.run", "pulses", kind=kind), "ns")
    metrics["montecarlo.run.ns_per_pulse.gaussian_1t"] = (
        statistics.median(single) if single else 0.0, "ns")
    metrics["montecarlo.run.busy_s"] = (stats.busy_s("montecarlo.run"), "s")
    for f in ("poisson_pnd", "bernoulli_transform"):
        metrics[f"photon_stats.{f}.us_per_call"] = (us(f"photon_stats.{f}"), "us")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(walls), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("curves", "records", "monitoring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "passiveqkd" / "__init__.py").is_file():
        print(f"error: no passiveqkd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import passiveqkd

    if not Path(passiveqkd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: passiveqkd imported from {passiveqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    threads = min(2, len(os.sched_getaffinity(0)))
    api = workloads.make_api()
    workload = workloads.WORKLOADS[args.workload](api, args.seed, threads)
    setup_s = setup_seconds() if args.trace == 0 else None

    tracer = spans.Tracer()
    sites = workloads.trace_sites(api)
    walls, traced_walls, ops = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        # With tracing, rounds go in pairs whose order alternates, so neither
        # side always gets the cold first round.
        order = ((False, True) if r % 4 == 0 else (True, False)) if args.trace else (False,)
        for traced in order:
            clock = workloads.Clock()
            if traced:
                tracer.round = r
                tracer.install(sites)
            try:
                ops += workload.round(r, clock)
            except Exception as exc:  # a raising call fails its round; the run goes on
                traceback.print_exc()
                ops.append(workloads.Op(f"round {r}", [f"raised {exc!r}"]))
            finally:
                tracer.uninstall()
            (traced_walls if traced else walls).append(clock.total)
            if traced and hasattr(workload, "after_traced_round"):
                workload.after_traced_round()
            r += 1
        if time.perf_counter() - start >= args.seconds:
            break

    for label, values in (("untraced", walls), ("traced", traced_walls)):
        if values:
            print(f"{args.workload}: {len(values)} {label} rounds, wall per round "
                  f"min {min(values):.4f} median {statistics.median(values):.4f} "
                  f"max {max(values):.4f} s", file=sys.stderr)
    failed = [op for op in ops if op.failed]
    seen = collections.Counter(
        f"{'known fault' if op.expected else 'FAILED'}: {op.name}: {reason}"
        for op in failed for reason in op.reasons
    )
    for line, count in seen.items():
        print(f"{line} (x{count})", file=sys.stderr)
    if args.trace:
        stats = spans.LayerStats(tracer.spans, len(traced_walls))
        metrics = per_layer(stats, workload, walls, traced_walls)
        out = ROOT / "bench" / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(workload, walls, setup_s)
    result = {
        "correct": all(op.expected for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
