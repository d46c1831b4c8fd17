"""tilebench benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload fixpoint-audit --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload's inputs are generated from
--seed; the run checks every verdict against a known answer and prints a
table of metrics, then, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, their times scaled to a reference host speed
(harness.HostSpeed); with --trace 1 the plan's passes run once untraced
and once with span wrappers installed, and the metrics are the per-layer
ones (spans are written under .perfbench_out/).  See perfbench/NOTES.md.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before tilebench loads

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = {
    "fixpoint-audit": "fixpoint_audit",
    "window-solve": "window_solve",
    "island-sweep": "island_sweep",
}
# Set-up is timed this many times per run (this process plus fresh child
# processes, half of them before the ops and half after, so the samples
# span the run) and the median reported.  fixpoint-audit's set-up takes
# about 3.5 s, the others' about 0.2 s.
SETUP_SAMPLES = {"fixpoint-audit": 3, "window-solve": 9, "island-sweep": 9}
SETUP_PROBE_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up only, print it and exit (used by the run itself)")
    return p.parse_args(argv)


def setup_probe(workload: str) -> float:
    """Set-up seconds measured in a fresh interpreter, imports included."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def emit(rows: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    for name, (value, unit) in rows.items():
        print(f"{name:40s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        before = tracing.originals()
    wl = importlib.import_module(WORKLOADS[args.workload])  # loads tilebench
    if tracer is not None:
        tracer.install()
    try:
        ctx = wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    own_setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    import harness

    anchors = wl.anchors(ctx)
    bad_anchors = [f"{k}: got {got}, want {want}" for k, (got, want) in anchors.items()
                   if got != want]
    ops = wl.plan(ctx, args.seed, args.seconds)
    passes = wl.PASSES

    lines = [f"workload {args.workload}  seed {args.seed}  ops {len(ops)} "
             f"({sum(op.once for op in ops)} once)  passes {passes}  trace {args.trace}"]
    if tracer is None:
        # Each set-up sample is scaled by the host's slowdown around it,
        # like each op (harness.HostSpeed).
        speed = harness.HostSpeed()
        setup_spans = [(T_START, T_START + own_setup_s)]
        setup_raw = [own_setup_s]

        def probe() -> None:
            speed.sample()
            t0 = time.perf_counter()
            setup_raw.append(setup_probe(args.workload))
            setup_spans.append((t0, time.perf_counter()))
            speed.sample()

        probes = SETUP_SAMPLES[args.workload] - 1
        speed.sample()
        for _ in range(probes // 2):
            probe()
        gc.collect()
        outcomes, _ = harness.run_ops(ctx, ops, wl, speed=speed, passes=passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(probes - probes // 2):
            probe()
        setup_scaled = [raw / speed.slowdown(*span) for raw, span in zip(setup_raw, setup_spans)]
        metrics = harness.end_to_end(outcomes, setup_scaled, peak_rss_mb)
        wall = harness.end_to_end(outcomes, setup_raw, peak_rss_mb, scaled=False)
        lines.append("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup_raw))
        lines.append(f"host slowdown: median {statistics.median(o.slowdown for o in outcomes):.4f}"
                     f" over the ops, {len(speed.samples)} samples; wall-clock values: "
                     + "  ".join(f"{k} {v:.6g}" for k, (v, u) in wall.items() if u in ("s", "ms")))
        consistent = True
    else:
        gc.collect()
        untraced, untraced_s = harness.run_ops(ctx, ops, wl, passes=passes)
        gc.collect()
        tracer.install()
        try:
            outcomes, verdict_s = harness.run_ops(ctx, ops, wl, tracer, passes=passes)
        finally:
            tracer.uninstall()
        restored = tracing.originals() == before
        # Tracing must change no verdict and no count.
        consistent = (restored and harness.tally(untraced) == harness.tally(outcomes)
                      and harness.exact_counts(untraced) == harness.exact_counts(outcomes))
        metrics = tracing.layer_metrics(tracer.spans, untraced_s, verdict_s)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        lines.append(f"untraced verdict_s {untraced_s:.4f}  traced {verdict_s:.4f}  "
                     f"wrappers restored {restored}  spans {len(tracer.spans)} -> {span_file}")

    failed = sum(o.verdict != harness.OK for o in outcomes)
    wrong = [o.op for o in outcomes if o.verdict == harness.WRONG]
    lines.append(f"ops attempted {len(outcomes)}  failed {failed}  wrong {len(wrong)}")
    lines.append("tally " + json.dumps(harness.tally(outcomes), sort_keys=True))
    lines.append("counts " + json.dumps(harness.exact_counts(outcomes), sort_keys=True))
    lines.append("anchors " + ("ok" if not bad_anchors else "; ".join(bad_anchors)))
    lines.append("seconds by kind " + json.dumps(harness.seconds_by_kind(outcomes)))
    for op in wrong[:5]:
        lines.append(f"wrong verdict: {op.kind} {str(op.args)[:120]}")
    emit(metrics, lines)
    correct = not wrong and not bad_anchors and consistent
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
