"""One workload process: parse the manifests, then run passes until time is up.

`run.py` starts this file once per measurement, so every measurement has a
fresh interpreter and its own peak memory; the measurement starts it again,
one process at a time, as set-up probes.  The
items arrive as JSON on standard input, the way a manifest file would hold
them; the program sees them only through `dgquot.serialize.parse_manifest`.

Modes:
  setup    import dgquot, parse the manifests, print "ready", exit.
  measure  repeat whole passes over the items (closed loop, one thread)
           while another pass still fits in --seconds; with --trace 0,
           each pass is followed by set-up probes, so that they sample the
           machine over the whole run as the passes do; with --trace 1,
           untraced and traced passes alternate and nothing is probed.
The last line of standard output is one JSON object for `run.py`.
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
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PROBES_PER_PASS = 3  # set-up probes after each untraced pass


# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "parser.parse_s": ("parser.parse_manifest", "parser.from_strings"),
    "resolution.build_s": ("resolution.build_resolution",),
    "resolution.d2_s": ("resolution.check_d_squared",),
    "repify.matricize_s": ("repify.matricize",),
    "repify.chart_d2_s": ("repify.check_chart_d_squared",),
    "derham.setup_s": ("derham.DeRhamAlgebra",),
    "derham.phi_s": ("derham.build_phi",),
    "derham.omega_s": ("derham.omega0",),
    "derham.closure_s": ("derham.close_check",),
    "derham.pairing_s": ("derham.pairing_at",),
    "points.classical_s": ("points.is_classical_point",),
    "points.stable_s": ("points.is_stable",),
    "tangent.linearize_s": ("tangent.tangent_complex_at",),
    "tangent.compose_check_s": ("tangent.composition_is_zero",),
    "tangent.support_s": ("tangent.detect_reduced_support",),
    "tangent.cohomology_s": ("tangent.chart_cohomology", "tangent.quot_tangent_check"),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.mat_mul_s": ("linalg.mat_mul",),
    "linalg.rational_roots_s": ("linalg.rational_roots",),
    "serialize.presentation_json_s": (
        "serialize.chart_presentation_json",
        "serialize.free_presentation_json",
    ),
    "serialize.dumps_s": ("serialize.dumps",),
    "cli.self_s": ("cli.run",),
}


def _count_chart(args, chart):
    pres = args[0]
    correction = {g.name for g in pres.corrections.values()}
    total = corr = 0
    for base, block in chart.blocks.items():
        terms = sum(len(chart.diff[g].terms) for row in block for g in row)
        total += terms
        if base in correction:
            corr += terms
    return {"n": chart.n, "diff_terms": total, "correction_terms": corr}


def _count_omega(args, omega):
    dr = args[0]
    # the eager table holds an image for every generator and its d(g)
    built = len(getattr(dr, "_dint_images", ())) or 2 * len(dr.chart.generators)
    return {"n": dr.chart.n, "omega_generators": len(omega.generators()), "images_built": built}


HOOKS = {"repify.matricize": _count_chart, "derham.omega0": _count_omega}


class Workload:
    """The items of one workload, the program entry points, and the checks."""

    def __init__(self, payload: dict):
        from dgquot import cli
        from dgquot.serialize import parse_manifest

        self.cli_run = cli.run
        self.parse_manifest = parse_manifest
        self.name = payload["workload"]
        self.items = [workloads.Item(**obj) for obj in payload["items"]]
        self.checker = workloads.Checker(self.name)
        self.goldens: dict = {}

    def parse(self, tracer=None):
        out = []
        for item in self.items:
            if tracer is None:
                out.append(self.parse_manifest(item.manifest))
            else:
                tracer.item = item.name
                with tracer.span("parser.parse_manifest"):
                    out.append(self.parse_manifest(item.manifest))
        return out

    def run_pass(self, tracer=None):
        """One closed-loop pass; returns (verdict seconds, report texts)."""
        manifests = self.parse(tracer)
        texts = []
        t0 = time.perf_counter()
        for item, manifest in zip(self.items, manifests):
            if tracer is None:
                text = self.cli_run(manifest, item.tasks).dumps()
            else:
                tracer.item = item.name
                with tracer.span("cli.run"):
                    report = self.cli_run(manifest, item.tasks)
                with tracer.span("serialize.dumps"):
                    text = report.dumps()
            texts.append(text)
        verdict = time.perf_counter() - t0
        return verdict, texts

    def check(self, texts) -> list:
        """Reference checks on one pass; returns the parsed reports."""
        reports = []
        for item, text in zip(self.items, texts):
            report = json.loads(text)
            workloads.check_report(self.checker, item, report, self.goldens)
            reports.append(report)
        return reports


def _median(values):
    """Median; for whole-number counts, the lower middle value, so it stays whole."""
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def layer_metrics(spans, texts, reports) -> dict:
    """Per-layer numbers of one traced pass."""
    selfs = tracing.self_times(spans)
    out = {name: 0.0 for name in LAYER_TIMES}
    out.update({f"{name}.total": 0.0 for name in LAYER_TIMES})
    by_span = {s: m for m, names in LAYER_TIMES.items() for s in names}
    metric_of = [by_span.get(s.name) for s in spans]
    for k, (s, st) in enumerate(zip(spans, selfs)):
        metric = metric_of[k]
        if metric is None:
            continue
        out[metric] += st
        # total time counts a span once even when it nests in its own metric
        up = s.parent
        while up is not None and metric_of[up] != metric:
            up = spans[up].parent
        if up is None:
            out[f"{metric}.total"] += s.end - s.start
    for s in spans:
        if s.name == "cli.run":
            out[f"cli.item_s.{s.item}"] = out.get(f"cli.item_s.{s.item}", 0.0) + (s.end - s.start)

    terms = defaultdict(int)
    corr = 0
    omega_ratio = {}
    for s in spans:
        c = s.counts
        if s.name == "repify.matricize":
            terms[c["n"]] += c["diff_terms"]
            corr += c["correction_terms"]
        elif s.name == "derham.omega0":
            omega_ratio[c["n"]] = c["omega_generators"] / c["images_built"]
    total_terms = sum(terms.values())
    out["repify.diff_terms"] = total_terms
    for n, t in sorted(terms.items()):
        out[f"repify.diff_terms.n{n}"] = t
    out["repify.correction_term_share"] = corr / total_terms if total_terms else 0.0
    for n, r in sorted(omega_ratio.items()):
        out[f"derham.image_use_ratio.n{n}"] = r
    for report in reports:
        for r in report["results"]:
            if r["task"] == "form-check" and "phi_monomials" in r:
                out[f"derham.phi_monomials.n{r['n']}"] = r["phi_monomials"]
                out[f"derham.omega_monomials.n{r['n']}"] = r["omega0_monomials"]

    tangent_points = sum(
        1
        for report in reports
        for r in report["results"]
        if r["task"] == "tangent"
        for row in r.get("points", ())
        if row.get("classical")
    )
    calls = sum(1 for s in spans if s.name == "tangent.chart_cohomology")
    if tangent_points:
        out["tangent.cohomology_calls_per_point"] = calls / tangent_points
    out["tangent.unchecked_points"] = sum(workloads.unchecked_points(r) for r in reports)
    out["serialize.report_bytes"] = sum(len(t.encode("utf-8")) for t in texts)
    out["cli.timing_fields"] = sum(workloads.timing_fields(r["results"]) for r in reports)
    return out


def span_tree(spans) -> list:
    """Indented lines: spans merged by call path, with calls, total and self time."""
    selfs = tracing.self_times(spans)
    paths = []
    agg: dict = {}
    for k, s in enumerate(spans):
        path = (s.name,) if s.parent is None else paths[s.parent] + (s.name,)
        if s.parent is None:
            path = (s.item,) + path
        paths.append(path)
        entry = agg.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.end - s.start
        entry[2] += selfs[k]
    lines = []
    for path in agg:  # insertion order keeps parents before children
        calls, total, own = agg[path]
        indent = "  " * (len(path) - 2)
        label = f"{path[0]}: {path[-1]}" if len(path) == 2 else path[-1]
        lines.append(f"{indent}{label:<44} calls={calls:<6} total_s={total:.6f} self_s={own:.6f}")
    return lines


def _write_spans(workload: str, seed: int, passes) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    rows = [
        {"pass": p, "id": k, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "item": s.item, "counts": s.counts}
        for p, spans in enumerate(passes)
        for k, s in enumerate(spans)
    ]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
    return path


def probe_setup(payload: str) -> float:
    """Wall time of one fresh `setup` process, from its start to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "setup"], cwd=ROOT,
                          input=payload, stdout=subprocess.PIPE, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.split() != ["ready"]:
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return elapsed


def measure(work: Workload, seconds: float, trace: bool, seed: int, payload: str) -> dict:
    work.goldens = workloads.goldens_for(work.name)
    before = tracing.snapshot()
    start = time.perf_counter()
    if not trace:
        probe_setup(payload)  # writes the bytecode caches; not counted
    plain, traced, durations, setup = [], [], [], []
    traced_spans, traced_layers = [], []
    while True:
        p0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            tracer = tracing.Tracer()
            with tracing.instrument(tracer, HOOKS):
                verdict, texts = work.run_pass(tracer)
            reports = work.check(texts)
            traced.append(verdict)
            traced_spans.append(tracer.spans)
            traced_layers.append(layer_metrics(tracer.spans, texts, reports))
            del reports
        else:
            verdict, texts = work.run_pass()
            if not plain:
                # the first pass in a fresh process is what a CLI user sees;
                # read the peak before the checks parse the reports
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            work.check(texts)
            plain.append(verdict)
            if not trace:
                setup.extend(probe_setup(payload) for _ in range(PROBES_PER_PASS))
        del texts
        durations.append(time.perf_counter() - p0)
        # a traced run needs one traced pass whatever the time
        if trace and not traced:
            continue
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break

    leftover = tracing.unrestored(before)
    work.checker.expect("-", "-", "wrapped names restored", leftover, [])
    out = {
        "attempted": work.checker.attempted,
        "failed": work.checker.failed,
        "failures": work.checker.failures[:20],
        "passes": len(plain),
        "verdict_s": _median(plain),
        "verdict_samples": plain,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": _median(setup),
        "setup_probes": len(setup),
    }
    if trace:
        names = sorted({k for layer in traced_layers for k in layer})
        out["layers"] = {k: _median([layer.get(k, 0) for layer in traced_layers]) for k in names}
        out["traced_passes"] = len(traced)
        out["traced_verdict_s"] = _median(traced)
        out["trace_overhead_s"] = _median(traced) - _median(plain)
        out["span_tree"] = span_tree(traced_spans[-1])
        out["spans_file"] = str(_write_spans(work.name, seed, traced_spans).relative_to(ROOT))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))  # run.py has checked that dgquot is there
    import dgquot.cli  # noqa: F401  (the import is part of set-up time)

    text = sys.stdin.read()
    work = Workload(json.loads(text))
    work.parse()
    if args.mode == "setup":
        print("ready", flush=True)
        os._exit(0)  # skip interpreter teardown, which no CLI user waits for either
    print(json.dumps(measure(work, args.seconds, bool(args.trace), args.seed, text)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
