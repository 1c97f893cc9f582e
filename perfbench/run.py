"""qpe-lab benchmark: one workload per process, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``qpe_lab`` from
``src/`` and exits with code 2 if that is missing.  With ``--trace 0`` it
times passes of the workload for ``S`` seconds with tracing off and prints
the end-to-end metrics.  With ``--trace 1`` it runs pass 0 twice untraced
and once traced, and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object; a result file with the
environment record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# numpy links a threaded BLAS; pin it before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("adaptive-noisy-sweep", "adaptive-deep-runs", "baseline-sweep")
SETUP_REPS = 5
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qpe_lab; "
    "qpe_lab.run(qpe_lab.AlgorithmConfig(64, seed=0), 1.0)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds() -> list[float]:
    """CPU time of fresh processes that import qpe_lab and make one tiny run.

    CPU time, like the workload timings, leaves out time the host steals.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = _children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT, check=True, timeout=120)
        times.append(_children_cpu() - start)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(args, numpy) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
    }


@dataclass
class Report:
    """Everything a run prints: ``metrics`` in ``gated`` go on the JSON line."""

    metrics: dict[str, tuple[float, str]]
    gated: list[str]
    correct: bool
    attempted: int
    failed: int
    notes: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def timed_run(workloads, workload, args, out_dir) -> Report:
    setups = setup_seconds()
    run = workloads.measure(workload, args.seed, args.seconds, out_dir)
    top_seconds = run.top_seconds
    p_tail = workloads.tail_percentile(workload.min_top_cells)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cells_per_s": (run.cells_per_s, "cells/s"),
        "run_s_p50": (statistics.median(top_seconds), "s"),
        "run_s_tail": (workloads.nearest_rank(top_seconds, p_tail), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    top = f"cells at N={workload.top_budget}"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "cells_per_s": f"median of {len(run.passes)} passes, {run.cells} cells",
        "run_s_p50": f"n={len(top_seconds)} {top}",
        "run_s_tail": f"p{p_tail:g} of n={len(top_seconds)} {top}, fixed by min_top_cells="
                      f"{workload.min_top_cells}",
        "mae_median": f"{workloads.top_cell_count(run.first)} {top} in pass 0",
        "failed_frac": f"{run.failed}/{run.cells}",
    }
    gated = list(metrics)
    metrics["mae_median"] = (workloads.mae_median(run.first), "rad")
    metrics["failed_frac"] = (run.failed / run.cells, "ratio")
    correct = run.failed == 0 and workloads.accurate(workload, run.first)
    extra = {"digest": run.first.digest, "tail_percentile": p_tail, "setup_samples": setups,
             "pass_cpu_seconds": [p.cpu for p in run.passes]}
    return Report(metrics, gated, correct, run.cells, run.failed, notes, extra)


def trace_run(workloads, layers, workload, args, out_dir) -> Report:
    warm = workload.run_pass(args.seed, 0, out_dir)
    untraced = workload.run_pass(args.seed, 0, out_dir)
    counters = layers.Counters()
    tracer = layers.make_tracer(counters)
    cache_before = layers.logprob_cache_info()
    with tracer:
        traced = workload.run_pass(args.seed, 0, out_dir)
    cache_after = layers.logprob_cache_info()
    metrics = layers.per_layer_metrics(
        tracer, counters, traced.cpu, min(warm.cpu, untraced.cpu), cache_before, cache_after
    )
    metrics["mae_median"] = (workloads.mae_median(traced), "rad")
    metrics["failed_frac"] = (traced.failed / traced.cells, "ratio")
    spans_path = out_dir / "spans.jsonl"
    with open(spans_path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(asdict(span)) + "\n")
    digests_agree = warm.digest == untraced.digest == traced.digest
    correct = traced.failed == 0 and digests_agree and workloads.accurate(workload, traced)
    notes = {"trace_overhead_frac": "traced pass 0 vs the faster of two untraced",
             "mae_median": f"pass 0 at N={workload.top_budget}"}
    extra = {"digest": traced.digest, "spans": spans_path.name,
             "span_count": len(tracer.spans), "traced_cells": tracer.cells}
    return Report(metrics, list(metrics), correct, traced.cells, traced.failed, notes, extra)


def print_table(title, report: Report, trace) -> None:
    print(title)
    shown = report.metrics
    if trace:
        rows = sorted(
            (name[: -len(".share")] for name in shown if name.endswith(".share")),
            key=lambda fn: -shown[fn + ".share"][0],
        )
        print(f"  {'function':40s} {'calls':>10s} {'self_us':>10s} {'share':>7s}")
        for fn in rows:
            calls, self_us, share = (shown[f"{fn}.{k}"][0] for k in ("calls", "self_us", "share"))
            print(f"  {fn:40s} {calls:10d} {self_us:10.1f} {share:7.1%}")
        listed = {f"{fn}.{k}" for fn in rows for k in ("calls", "self_us", "share")}
    else:
        listed = set()
    for name, (value, unit) in shown.items():
        if name not in listed:
            note = f"  ({report.notes[name]})" if name in report.notes else ""
            print(f"  {name:40s} {value:.6g} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpe_lab" / "__init__.py").is_file():
        print(f"error: no qpe_lab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # The package is imported from this checkout's sources, never an installed copy.
    sys.path.insert(0, str(SRC))
    import numpy
    import qpe_lab
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    qpe_lab.run(qpe_lab.AlgorithmConfig(64, seed=0), 1.0)  # the set-up probe's warm-up run
    if args.trace:
        report = trace_run(workloads, layers, workload, args, out_dir)
    else:
        report = timed_run(workloads, workload, args, out_dir)

    print_table(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
                report, args.trace)
    print(f"  digest {report.extra['digest']}")
    print(f"  correct {report.correct}")
    summary = {"correct": report.correct, "attempted": report.attempted, "failed": report.failed}
    with open(out_dir / "result.json", "w") as handle:
        json.dump({
            "environment": environment(args, numpy),
            **summary,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report.metrics.items()},
            "notes": report.notes,
            **report.extra,
        }, handle, indent=2)
        handle.write("\n")
    gated = {name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
             for name in report.gated}
    print(json.dumps({**summary, "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
