#!/usr/bin/env python3
"""Benchmark every estimation strategy over a dyadic resource ladder.

Runs the Monte Carlo sweep, persists results.csv / aggregate.csv /
manifest.json, fits the log-log error slopes, and renders an SVG that
overlays the measured curves on the analytic limit lines.

Examples:
    python3 scripts/reproduce_error_scaling.py --out-dir results/noiseless
    python3 scripts/reproduce_error_scaling.py --beta 0.9 --reps 5 --quick
"""

import argparse
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qpe_lab import (  # noqa: E402
    DegenerateInputError,
    NoiseModel,
    ReferenceLine,
    Series,
    SweepConfig,
    __version__,
    aggregate,
    fit_loglog_slope,
    limit_curves,
    minimum_achievable_variance,
    render_loglog,
    run_sweep,
    write_aggregate_csv,
    write_manifest,
    write_results_csv,
)

FULL_LADDER = tuple(32 * 2**i for i in range(8))
QUICK_LADDER = tuple(32 * 4**i for i in range(4))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results/error_scaling")
    parser.add_argument("--alpha", type=float, default=NoiseModel.alpha)
    parser.add_argument("--beta", type=float, default=NoiseModel.beta)
    parser.add_argument("--thetas", type=int, default=SweepConfig.theta_count)
    parser.add_argument("--reps", type=int, default=SweepConfig.repetitions)
    parser.add_argument("--seed", type=int, default=SweepConfig.master_seed)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--quick", action="store_true", help="4-point ladder for a fast look")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    noise = NoiseModel(args.alpha, args.beta)
    strategies = ["adaptive", "classical", "nonadaptive-doubling"]
    if noise.noiseless:
        strategies.append("qpea")  # the textbook estimator has no noise model

    ladder = QUICK_LADDER if args.quick else FULL_LADDER
    config = SweepConfig(
        strategies=tuple(strategies),
        resource_ladder=ladder,
        theta_count=args.thetas,
        repetitions=args.reps,
        noise=noise,
        master_seed=args.seed,
    )

    start = time.perf_counter()
    cells = run_sweep(config, workers=args.workers)
    elapsed = time.perf_counter() - start
    failed = sum(1 for c in cells if c.error is not None)
    print(f"{len(cells)} cells in {elapsed:.1f}s ({failed} failed)")

    os.makedirs(args.out_dir, exist_ok=True)
    rows = aggregate(cells)
    write_results_csv(cells, os.path.join(args.out_dir, "results.csv"))
    write_aggregate_csv(rows, os.path.join(args.out_dir, "aggregate.csv"))
    write_manifest(config, os.path.join(args.out_dir, "manifest.json"), __version__)

    print(f"{'strategy':<22}{'slope':>9}   per-budget median MAE, low to high N")
    series = []
    for strategy in config.strategies:
        own = [c for c in cells if c.strategy == strategy and c.error is None]
        medians = [
            (n, float(np.median([c.abs_error for c in own if c.n_tot == n])))
            for n in ladder
            if any(c.n_tot == n for c in own)
        ]
        try:
            slope = f"{fit_loglog_slope(medians)[0]:>9.3f}"
        except DegenerateInputError:
            slope = f"{'n/a':>9}"  # e.g. exact hits on a coarse dyadic theta grid
        trail = " ".join(f"{e:.2e}" for _, e in medians)
        print(f"{strategy:<22}{slope}   {trail}")
        series.append(Series(label=strategy, points=tuple(medians)))

    references = []
    for name in ("sql", "hl") + (("noisy_floor",) if noise.beta < 1 else ()):
        pts = [(n, limit_curves(n, noise)[name]) for n in ladder]
        references.append(ReferenceLine(label=name, points=tuple(pts)))
    if noise.beta < 1:
        sigma = math.sqrt(minimum_achievable_variance(noise, ladder[-1]))
        print(f"decoherence floor at N={ladder[-1]}: sigma={sigma:.3e}")

    svg_path = os.path.join(args.out_dir, "error_scaling.svg")
    with open(svg_path, "w") as handle:
        handle.write(
            render_loglog(
                series,
                references,
                title=f"median absolute error, alpha={noise.alpha} beta={noise.beta}",
                x_label="total resources N",
                y_label="median absolute error (rad)",
            )
        )
    print(f"wrote {args.out_dir}/{{results.csv,aggregate.csv,manifest.json}} and {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
