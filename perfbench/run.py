"""Benchmark of the wishart_esf package: one workload per process.

    python3 perfbench/run.py --workload umbral_exact --seed 1 --seconds 15 --trace 0

``--trace 0`` times a pass of whole rounds of ops for ``--seconds`` seconds
and reports the end-to-end metrics; ``--trace 1`` runs a fixed number of
rounds with every layer wrapped and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own fresh process.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
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
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    rng = Random(f"{workload.name}:{args.seed}")
    cases = workload.cases(rng, OUT / f"{workload.name}-seed{args.seed}")

    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prepared = workload.setup(cases)
        setup_seconds.append(time.perf_counter() - t0)
    origin = Path(sys.modules["wishart_esf"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"wishart_esf was imported from {origin}, not from {SRC}")

    ops = workload.ops(cases, prepared, traced=bool(args.trace))
    ops[0].run()  # warm-up, neither timed nor counted
    if args.trace:
        # untraced and traced rounds alternate, so drift of the host's speed
        # falls on both alike; the ratio of their wall times is the overhead
        tracer = tracing.Tracer()
        plain, result = [], []
        for _ in range(workload.trace_rounds):
            plain.append(workloads.run_pass(ops, rounds=1))
            tracer.install()
            try:
                result.append(workloads.run_pass(ops, rounds=1))
            finally:
                tracer.uninstall()
        plain, result = workloads.PassResult.combine(plain), workloads.PassResult.combine(result)
        import_ms = tracing.cli_import_ms(workloads.child_env()) if workload.name == "cli_float" else 0.0
        metrics = tracer.metrics(result, plain, import_ms)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json")
        result.op_seconds += plain.op_seconds
        result.failed += plain.failed
    else:
        # peak memory is read after a fixed number of rounds, not at the end
        # of the pass, so that it does not grow with the number of ops that
        # fit into the run (the kernel's variable registry grows per call)
        result = workloads.run_pass(ops, rounds=workload.rss_rounds)
        who = resource.RUSAGE_CHILDREN if workload.name == "cli_float" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        if result.wall_seconds < args.seconds:
            rest = workloads.run_pass(ops, seconds=args.seconds - result.wall_seconds)
            result = workloads.PassResult.combine([result, rest])
        metrics = {
            "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
            "ops_per_s": {"value": result.attempted / result.wall_seconds, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(result.op_seconds), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return report(result, metrics)


def report(result, metrics: dict) -> dict:
    """The result line: correct only if ops ran and every one passed its check."""
    return {
        "correct": result.attempted > 0 and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        *_, line, last = proc.stdout.splitlines()
        print(line)
        results[name] = json.loads(last)
    return results


def summary(name: str, result: dict) -> str:
    shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
    return f"{name}: attempted={result['attempted']} failed={result['failed']} {shown}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wishart_esf" / "__init__.py").is_file():
        print(f"error: no wishart_esf package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    for var in workloads.THREAD_VARIABLES:
        os.environ[var] = "1"  # before numpy is imported anywhere
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args)
    text = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(summary(args.workload, result))
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
