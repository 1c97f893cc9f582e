#!/usr/bin/env python3
"""Tabulate and plot the analytic error bound in its three regimes.

The confidence schedule eps_i = eps (n_i / n_top)^p controls how the bound
scales with the total budget: a steep schedule (p = 3) keeps Heisenberg
scaling, a flat schedule (p = 0) saturates at a constant floor, and any
coherence decay (beta < 1) caps the usable depth and degrades the rate to
N^-1/2.

Example:
    python3 scripts/plot_bound_regimes.py --out results/bound_regimes.svg
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qpe_lab import (  # noqa: E402
    InfeasibleBoundError,
    LossKind,
    NoiseModel,
    ReferenceLine,
    RunSettings,
    Series,
    appendix_loss_bound,
    limit_curves,
    render_loglog,
)

REGIMES = (
    ("steep schedule, no decay", RunSettings()),
    ("flat schedule, no decay", RunSettings(epsilon_scale=0.01, epsilon_exponent=0.0)),
    ("steep schedule, beta=0.9", RunSettings(noise=NoiseModel(1.0, 0.9), epsilon_scale=1e-8)),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/bound_regimes.svg")
    parser.add_argument("--min-exp", type=int, default=8, help="smallest budget as 2**k")
    parser.add_argument("--max-exp", type=int, default=18, help="largest budget as 2**k")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    budgets = [1 << k for k in range(args.min_exp, args.max_exp + 1)]

    series = []
    print(f"{'N':>8}  " + "  ".join(f"{label:>28}" for label, _ in REGIMES))
    table = {n: [] for n in budgets}
    for label, settings in REGIMES:
        points = []
        for n in budgets:
            try:
                bound = appendix_loss_bound(n, settings, LossKind.ABSOLUTE)
            except InfeasibleBoundError:
                table[n].append(None)
                continue
            points.append((n, bound))
            table[n].append(bound)
        series.append(Series(label=label, points=tuple(points)))

    for n in budgets:
        cells = "  ".join(
            f"{b:>28.6e}" if b is not None else f"{'infeasible':>28}" for b in table[n]
        )
        print(f"{n:>8}  {cells}")

    references = [
        ReferenceLine(
            label=name, points=tuple((n, limit_curves(n, NoiseModel())[name]) for n in budgets)
        )
        for name in ("sql", "hl")
    ]

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(
            render_loglog(
                series,
                references,
                title="analytic MAE bound across schedule regimes",
                x_label="total resources N",
                y_label="MAE bound (rad)",
            )
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
