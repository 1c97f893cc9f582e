"""Command line interface.

Subcommands:

* ``run``    one adaptive estimation run, trace written as JSON
* ``sweep``  Monte Carlo benchmark over strategies and budgets, CSV output
* ``plot``   log-log SVG figure from a results or aggregate CSV
* ``bounds`` tabulate analytic error bounds for a budget ladder

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .adaptive import ESTIMATORS, AlgorithmConfig, AlgorithmTrace, RunSettings, run, validate_trace
from .baselines import InfeasibleBoundError, appendix_loss_bound, default_step_count, limit_curves
from .harness import (
    AGGREGATE_HEADER,
    RESULTS_HEADER,
    STRATEGIES,
    SweepConfig,
    aggregate,
    config_payload,
    iter_sweep,
    read_aggregate_csv,
    read_results_csv,
    write_aggregate_csv,
    write_manifest,
    write_results_csv,
)
from .model import NoiseModel
from .posterior import LossKind
from .svg import ReferenceLine, Series, render_loglog

REFERENCE_CHOICES = ("sql", "hl", "noisy_floor", "appendix_bound")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}") from exc


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _add_noise_arguments(parser: argparse.ArgumentParser) -> None:
    noise = NoiseModel()
    parser.add_argument("--alpha", type=float, default=noise.alpha, help="state preparation fidelity in (0, 1]")
    parser.add_argument("--beta", type=float, default=noise.beta, help="per-application coherence factor in (0, 1]")


def _add_schedule_arguments(parser: argparse.ArgumentParser) -> None:
    """The depth cap and confidence schedule flags, shared by ``run``, ``sweep`` and ``bounds``."""
    parser.add_argument("--depth-limit", type=int, default=RunSettings.depth_limit, help="hard cap on circuit depth")
    parser.add_argument(
        "--epsilon-scale", type=float, default=RunSettings.epsilon_scale, help="confidence schedule prefactor"
    )
    parser.add_argument(
        "--epsilon-exponent", type=float, default=RunSettings.epsilon_exponent, help="confidence schedule exponent"
    )


def _add_algorithm_arguments(parser: argparse.ArgumentParser) -> None:
    _add_schedule_arguments(parser)
    parser.add_argument(
        "--loss", choices=[k.value for k in LossKind], default=RunSettings.loss_kind.value,
        help="loss function minimised by the estimator",
    )
    parser.add_argument("--estimator", choices=ESTIMATORS, default=RunSettings.estimator)


def _run_settings(args) -> dict:
    """The ``RunSettings`` fields a subcommand's flags set; each flag is named after its field but noise and loss."""
    flags = {**vars(args), "noise": NoiseModel(alpha=args.alpha, beta=args.beta)}
    if "loss" in flags:
        flags["loss_kind"] = LossKind(flags["loss"])
    return {f.name: flags[f.name] for f in fields(RunSettings) if f.name in flags}


def trace_to_payload(trace: AlgorithmTrace, theta_true: float) -> dict:
    return {
        "config": config_payload(trace.config),
        "theta_true": float(theta_true),
        "final_estimate": float(trace.final_estimate),
        "final_expected_loss": float(trace.final_expected_loss),
        "resources_spent": trace.resources_spent,
        "max_depth_used": trace.max_depth_used,
        "steps": [
            {
                "step_index": s.step_index,
                "depth": s.circuit.depth,
                "phase": s.circuit.phase,
                "shots_used": s.shots_used,
                "successes": s.successes,
                "interval_center": s.interval.center,
                "interval_half_width": s.interval.half_width,
                "confidence_reached": s.confidence_reached,
                "predicted_loss_stay": s.predicted_loss_stay,
                "predicted_loss_deepen": s.predicted_loss_deepen,
                "decision": s.decision,
                "cap_hit": s.cap_hit,
            }
            for s in trace.steps
        ],
    }


def cmd_run(args) -> int:
    config = AlgorithmConfig(total_resources=args.n_tot, seed=args.seed, **_run_settings(args))
    trace = run(config, args.theta)
    validate_trace(trace)
    with open(args.out, "w") as handle:
        json.dump(trace_to_payload(trace, args.theta), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"final_estimate={trace.final_estimate:.17g}")
    print(f"final_expected_loss={trace.final_expected_loss:.17g}")
    print(f"resources_spent={trace.resources_spent}")
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig(
        strategies=_parse_str_list(args.strategies),
        resource_ladder=args.ladder,
        theta_count=args.thetas,
        repetitions=args.reps,
        shots_per_depth=args.shots_per_depth,
        master_seed=args.seed,
        **_run_settings(args),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    results = []
    interrupted = False
    try:
        for cell in iter_sweep(config, args.workers):
            results.append(cell)
    except KeyboardInterrupt:
        interrupted = True

    results_path = os.path.join(args.out_dir, "results.csv")
    aggregate_path = os.path.join(args.out_dir, "aggregate.csv")
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    write_results_csv(results, results_path)
    if results:
        write_aggregate_csv(aggregate(results), aggregate_path)
    write_manifest(config, manifest_path, __version__)

    failed = sum(1 for c in results if c.error is not None)
    print(f"cells={len(results)} failed={failed}")
    print(f"wrote {results_path}")
    if results:
        print(f"wrote {aggregate_path}")
    print(f"wrote {manifest_path}")
    if interrupted:
        print("sweep interrupted; partial results flushed", file=sys.stderr)
        return 1
    return 0


def _sniff_aggregate(path: str) -> bool:
    with open(path, newline="") as handle:
        header = handle.readline().strip()
    if header == AGGREGATE_HEADER:
        return True
    if header == RESULTS_HEADER:
        return False
    raise ValueError(f"{path} is neither a results nor an aggregate CSV (header {header!r})")


def _reference_lines(names: tuple[str, ...], budgets: list[int], settings: RunSettings) -> list[ReferenceLine]:
    unknown = set(names) - set(REFERENCE_CHOICES)
    if unknown:
        raise ValueError(f"unknown reference curves {sorted(unknown)}; pick from {REFERENCE_CHOICES}")
    grid = np.unique(
        np.round(np.geomspace(min(budgets), max(budgets), 48)).astype(int)
    )
    noise = settings.noise
    lines = []
    for name in names:
        points = []
        for n in grid:
            n = int(n)
            if name == "appendix_bound":
                try:
                    points.append((n, appendix_loss_bound(n, settings, LossKind.ABSOLUTE)))
                except InfeasibleBoundError:
                    continue
            else:
                curves = limit_curves(n, noise)
                if name not in curves:
                    raise ValueError(
                        f"reference {name!r} is undefined for noise "
                        f"alpha={noise.alpha} beta={noise.beta}"
                    )
                points.append((n, curves[name]))
        if len(points) < 2:
            raise ValueError(f"reference {name!r} has fewer than 2 plottable points")
        lines.append(ReferenceLine(label=name, points=tuple(points)))
    return lines


def cmd_plot(args) -> int:
    if _sniff_aggregate(args.results):
        rows = read_aggregate_csv(args.results)
    else:
        rows = aggregate(read_results_csv(args.results))
    if not rows:
        raise ValueError(f"{args.results} holds no aggregate rows to plot")

    by_strategy: dict[str, list] = {}
    for row in rows:
        by_strategy.setdefault(row.strategy, []).append(row)
    series = []
    for strategy in sorted(by_strategy):
        group = sorted(by_strategy[strategy], key=lambda r: r.n_tot)
        series.append(
            Series(
                label=strategy,
                points=tuple((r.n_tot, r.mae_mean) for r in group),
                error_bars=tuple((r.mae_min, r.mae_max) for r in group),
            )
        )

    references = []
    if args.refs:
        budgets = sorted({r.n_tot for r in rows})
        references = _reference_lines(_parse_str_list(args.refs), budgets, RunSettings(**_run_settings(args)))

    document = render_loglog(
        series,
        references,
        title=args.title,
        x_label="total resources N",
        y_label="mean absolute error (rad)",
    )
    with open(args.out, "w") as handle:
        handle.write(document)
    print(f"wrote {args.out}")
    return 0


def cmd_bounds(args) -> int:
    settings = RunSettings(**_run_settings(args))
    lines = ["n_tot,step_count,mae_bound,mse_bound"]
    for n_tot in args.ladder:
        steps = default_step_count(n_tot, settings) if args.steps is None else args.steps
        mae = appendix_loss_bound(n_tot, settings, LossKind.ABSOLUTE, steps)
        mse = appendix_loss_bound(n_tot, settings, LossKind.SQUARED, steps)
        lines.append(f"{n_tot},{steps},{mae:.17g},{mse:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpe-lab",
        description="Adaptive Bayesian phase estimation: simulator and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the adaptive estimator once and dump its trace")
    p_run.add_argument("--n-tot", type=int, required=True, help="total resource budget")
    p_run.add_argument("--theta", type=float, required=True, help="true phase in radians")
    _add_noise_arguments(p_run)
    _add_algorithm_arguments(p_run)
    p_run.add_argument("--seed", type=int, default=AlgorithmConfig.seed)
    p_run.add_argument("--out", default="trace.json", help="trace output path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo benchmark over strategies and budgets")
    p_sweep.add_argument(
        "--strategies", default=",".join(STRATEGIES),
        help="comma-separated strategy names",
    )
    p_sweep.add_argument("--ladder", type=_parse_int_list, required=True, help="comma-separated budgets")
    p_sweep.add_argument(
        "--thetas", type=int, default=SweepConfig.theta_count, help="number of evenly spaced true phases"
    )
    p_sweep.add_argument("--reps", type=int, default=SweepConfig.repetitions, help="repetitions per phase")
    _add_noise_arguments(p_sweep)
    _add_algorithm_arguments(p_sweep)
    p_sweep.add_argument(
        "--shots-per-depth", type=int, default=SweepConfig.shots_per_depth, help="doubling baseline block size"
    )
    p_sweep.add_argument(
        "--seed", type=int, default=SweepConfig.master_seed, help="master seed for the whole sweep"
    )
    p_sweep.add_argument("--workers", type=int, default=None, help="process count (default: all cores)")
    p_sweep.add_argument("--out-dir", required=True, help="directory for results.csv, aggregate.csv, manifest.json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render a log-log SVG from sweep output")
    p_plot.add_argument("--results", required=True, help="results.csv or aggregate.csv")
    p_plot.add_argument("--out", default="plot.svg")
    p_plot.add_argument("--refs", default="", help=f"comma-separated subset of {REFERENCE_CHOICES}")
    _add_noise_arguments(p_plot)
    p_plot.add_argument("--title", default="phase estimation error scaling")
    p_plot.set_defaults(func=cmd_plot)

    p_bounds = sub.add_parser("bounds", help="tabulate analytic error bounds")
    p_bounds.add_argument("--ladder", type=_parse_int_list, required=True, help="comma-separated budgets")
    p_bounds.add_argument("--steps", type=int, default=None, help="fixed step count (default: auto per budget)")
    _add_noise_arguments(p_bounds)
    _add_schedule_arguments(p_bounds)
    p_bounds.add_argument("--out", default=None, help="write the table here instead of stdout")
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:
        print(f"qpe-lab: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
