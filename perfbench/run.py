"""The dgquot benchmark: seeded workloads through `dgquot.cli.run`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quintic-form --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

With --trace 0 it prints the end-to-end metrics: set-up time (median of
several fresh processes that import dgquot and parse the manifests), the
median wall time of a pass from the first `cli.run` to the last report
dumped, the peak memory of the measuring process and the failed-check
ratio.  With --trace 1 it prints the per-layer metrics of a traced run, the
span tree and the tracing overhead instead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every layer, metric and workload is described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MiB"}

# per-layer metrics in the machine-readable line: those that are measured on
# every workload.  Workload-specific ones (derham.*, tangent.*, ...) are
# printed above it; see README.md.
PER_LAYER_UNITS = {
    "parser.parse_s": "s",
    "resolution.build_s": "s",
    "repify.matricize_s": "s",
    "points.classical_s": "s",
    "linalg.rank_s": "s",
    "serialize.dumps_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "repify.diff_terms": "count",
    "repify.correction_term_share": "1",
    "serialize.report_bytes": "count",
    "cli.timing_fields": "count",
    "tangent.unchecked_points": "count",
}


class BenchError(Exception):
    pass


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith(("_s", "_s.total")) or ".item_s." in name:
        return "s"
    if name.endswith(("_ratio", "_share", "_per_point")) or "_ratio." in name:
        return "1"
    return "count"


def _worker(payload: str, args, timeout: float) -> list:
    """Run the measuring worker process to its end; returns its stdout lines."""
    cmd = [sys.executable, str(WORKER), "measure", "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed)]
    # an installed CLI imports from cached bytecode, so let workers write it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    # its own process group, so that a timeout also ends a set-up probe it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(payload, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out.splitlines()


def run_workload(name: str, args, deadline: float) -> dict:
    items = workloads.build(name, args.seed)
    problems = workloads.validate_inputs(items)
    if problems:
        raise BenchError("generated inputs are invalid: " + "; ".join(problems))
    payload = json.dumps({"workload": name, "items": [dataclasses.asdict(i) for i in items]})

    lines = _worker(payload, args, deadline - time.perf_counter())
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for failure in result["failures"]:
        print(failure)

    if args.trace:
        layers = dict(result["layers"])
        layers["trace.overhead_s"] = result["trace_overhead_s"]
        print(f"# {name}: span tree of the last traced pass (self time excludes child spans)")
        for line in result["span_tree"]:
            print("  " + line)
        print(f"# {name}: spans of every traced pass written to {result['spans_file']}")
        print(f"# {name}: tracing overhead {result['trace_overhead_s']:.6f} s "
              f"(traced {result['traced_verdict_s']:.6f} s over {result['traced_passes']} passes, "
              f"untraced {result['verdict_s']:.6f} s over {result['passes']} passes)")
        for key in sorted(layers):
            print(f"{name} {key} {layers[key]:.6g} {_unit(key)}")
        metrics = {k: layers.get(k, 0.0) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = {k: result[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        samples = ", ".join(f"{v:.4f}" for v in result["verdict_samples"])
        print(f"# {name}: verdict_s is the median of {result['passes']} passes: {samples}")
        print(f"# {name}: setup_s is the median of {result['setup_probes']} set-up probes")
        for key in ("setup_s", "verdict_s", "peak_rss_mb"):
            print(f"{name} {key} {metrics[key]:.6g} {units[key]}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name} fail_ratio {ratio:.6g} 1 ({result['failed']} of {result['attempted']} checks failed)")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dgquot" / "__init__.py").is_file():
        print(f"perfbench: no dgquot sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if len(names) == 1:
            out = run_workload(names[0], args, time.perf_counter() + DEADLINE_S)
        else:
            results = {n: run_workload(n, args, time.perf_counter() + DEADLINE_S) for n in names}
            out = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
