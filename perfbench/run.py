"""Benchmark of gnes: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload cournot-grid --seed 0 --seconds 30 --trace 0

Run it from the root of a source tree: the program is imported from
src/ next to this directory, and nothing else is built or installed.
A run repeats whole rounds of the workload's operations until about
--seconds have passed, checks every result with the benchmark's own
arithmetic, and prints one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with nothing of the program
wrapped. --trace 1 reports the per-layer metrics: it runs every round
twice, untraced and then traced with the same inputs, and the median
difference between the two is tracing.overhead_s.

setup_s is the median of SETUP_PROBES fresh interpreters, each timed
from before `import gnes` until the workload's instance, graph,
operator and oracle exist. The probes run one after another, before
the measured rounds. The README in this directory describes workloads,
seeds and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
NAMES = ("affine-stoch-tol", "cournot-grid", "cournot-audit")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "iters_per_s": "1/s",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics read off one span: (metric, unit, span, statistic)
#   calls    calls per round
#   self_us  self time per call, in microseconds
#   us       total time per call, in microseconds
#   s        total time per call, in seconds
#   failed   calls per round that raised
SPAN_METRICS = (
    ("stochastic.sample_F_hat.calls", "count", "stochastic.sample_F_hat", "calls"),
    ("stochastic.sample_F_hat.self_us", "us", "stochastic.sample_F_hat", "self_us"),
    ("stochastic.AgentStreams.generator.calls", "count", "stochastic.AgentStreams.generator", "calls"),
    ("stochastic.AgentStreams.generator.us", "us", "stochastic.AgentStreams.generator", "us"),
    ("cournot.CournotDemandOracle.sample_mean_stack.self_us", "us",
     "cournot.CournotDemandOracle.sample_mean_stack", "self_us"),
    ("cournot.generate.s", "s", "cournot.generate", "s"),
    ("operators.v_flat.calls", "count", "operators.v_flat", "calls"),
    ("operators.v_flat.self_us", "us", "operators.v_flat", "self_us"),
    ("operators.resolvent_flat.self_us", "us", "operators.resolvent_flat", "self_us"),
    ("operators.residual_res.calls", "count", "operators.residual_res", "calls"),
    ("operators.residual_res.self_us", "us", "operators.residual_res", "self_us"),
    ("operators.proj_shared_set.self_us", "us", "operators.proj_shared_set", "self_us"),
    ("operators.proj_shared_set.failed", "count", "operators.proj_shared_set", "failed"),
    ("graph.laplacian_block.calls", "count", "graph.laplacian_block", "calls"),
    ("graph.laplacian_block.us", "us", "graph.laplacian_block", "us"),
    ("solver.risfbf_step.self_us", "us", "solver.risfbf_step", "self_us"),
    ("solver.sfb_step.self_us", "us", "solver.sfb_step", "self_us"),
    ("solver.pre_step.self_us", "us", "solver.pre_step", "self_us"),
    ("solver.solve_ground_truth.s", "s", "solver.solve_ground_truth", "s"),
    ("solver.diagnostics_check.s", "s", "solver.diagnostics_check", "s"),
    ("agentnet.Exchange.post.calls", "count", "agentnet.Exchange.post", "calls"),
    ("agentnet.Exchange.post.us", "us", "agentnet.Exchange.post", "us"),
    ("agentnet.AgentNode.forward_backward.self_us", "us", "agentnet.AgentNode.forward_backward", "self_us"),
    ("agentnet.AgentNode.correct_and_relax.self_us", "us", "agentnet.AgentNode.correct_and_relax", "self_us"),
    ("cli.cmd_verify.s", "s", "cli.cmd_verify", "s"),
    ("instances.load_document.s", "s", "instances.load_document", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gnes benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (replication and oracle seeds)")
    parser.add_argument("--seconds", type=float, default=30.0, help="approximate length of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_workloads():
    """Import gnes from src/ of this tree (never an installed copy) and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "gnes", "__init__.py")):
        raise SystemExit(f"gnes sources not found under {SRC}; run from a source tree")
    sys.path[:0] = [SRC, HERE]
    import gnes

    if os.path.dirname(os.path.abspath(gnes.__file__)) != os.path.join(SRC, "gnes"):
        raise SystemExit(f"imported gnes from {gnes.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup_probe(name: str):
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[name](0, OUT).setup()
    print(repr(time.perf_counter() - t0))


def probe_setup_times(name: str, count: int) -> list:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(workload, seconds: float, tracer=None):
    """Run whole rounds for about `seconds`; with a tracer, each round twice.

    Returns the untraced rounds, the traced rounds, and the per-round
    tracing overhead (traced minus untraced wall time).
    """
    rounds, traced, overhead, spent = [], [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(r))
        if tracer is not None:
            with tracer:
                traced.append(workload.run_round(r))
            overhead.append(traced[-1].wall - rounds[-1].wall)
        spent.append(time.perf_counter() - t0)
        r += 1
        # stop when another round would end further past the deadline
        # than stopping now falls short of it
        if time.perf_counter() - start >= seconds - 0.5 * statistics.median(spent):
            return rounds, traced, overhead


def end_to_end(rounds, setup_times) -> dict:
    wall = sum(rnd.wall for rnd in rounds)
    ops = [op for rnd in rounds for op in rnd.ops]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall / len(rounds),
        "iters_per_s": sum(op.iterations for op in ops) / wall,
        "draws_per_s": sum(op.draws for op in ops) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, overhead) -> dict:
    """Per-layer metrics with their units; spans that no longer exist are left out."""
    n = len(traced)
    ops = [op for rnd in traced for op in rnd.ops]
    metrics = {}
    for name, unit, span, stat in SPAN_METRICS:
        if span in tracer.absent:
            continue
        s = tracer.stats[span]
        calls = s.calls or 1  # an entry never called has zero totals
        value = {
            "calls": s.calls / n,
            "self_us": 1e6 * s.self_time / calls,
            "us": 1e6 * s.total / calls,
            "s": s.total / calls,
            "failed": s.failed / n,
        }[stat]
        metrics[name] = (value, unit)

    def observed(key):
        return sum(rnd.obs.get(key, 0) for rnd in traced) / n

    replay_iters = sum(rnd.obs.get("replay_iterations", 0) for rnd in traced)
    stats = tracer.stats
    metrics["stochastic.draws"] = (sum(op.draws for op in ops) / n, "count")
    metrics["solver.iterations"] = (sum(op.iterations for op in ops) / n, "count")
    metrics["solver.diag_payload_mb"] = (observed("diag_payload_mb"), "MB")
    metrics["agentnet.messages_per_iter"] = (observed("messages_per_iter"), "count")
    metrics["cli.out_bytes"] = (observed("out_bytes"), "bytes")
    if "agentnet.run_distributed" not in tracer.absent:
        total = stats["agentnet.run_distributed"].total
        metrics["agentnet.run_distributed.us_per_iter"] = (1e6 * total / replay_iters if replay_iters else 0.0, "us")
    if "cli.write_csv" not in tracer.absent and "cli.write_json" not in tracer.absent:
        metrics["cli.write_s"] = ((stats["cli.write_csv"].total + stats["cli.write_json"].total) / n, "s")
    metrics["tracing.overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            workload.setup()
    else:
        workload.setup()
        setup_times = probe_setup_times(args.workload, SETUP_PROBES)
    rounds, traced, overhead = measure(workload, args.seconds, tracer)
    errors = workload.check()
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if tracer is not None:
        if tracer.absent:
            print("absent entry points: " + ", ".join(tracer.absent))
        metrics = per_layer(tracer, traced, overhead)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(rounds, setup_times).items()}
    ops = [op for rnd in rounds + traced for op in rnd.ops]
    print(f"{args.workload}: {len(rounds)} rounds, {len(ops)} operations, {len(errors)} check failures")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
