"""Command-line front end.

Subcommands: solve, sweep, preset, threshold, validate-oracle. Exit codes:
0 on success, 2 when no steady state exists (unstable drift), 3 on invalid
specifications or parameter documents. JSON output is strict: a number that
is not finite (the NaN ``max_real_part`` of a drift with a non-finite entry)
is written as null.

``main`` parses with one argument parser per process, built on its first
call, so a program that calls ``main`` many times (the presets one after
another) builds it once, and one that only imports this module builds none.
``sweep`` and ``preset`` write ``format_csv(sweep_columns(spec))``: the
evaluated columns go to text without a per-point row.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .analytic import analytic_covariance
from .errors import MagnonSteerError, NoCrossing, NonMonotone, SpecError, UnstableDrift
from .model import DIFFUSION_MODES, _json_object, derive, params_from_dict
# run_sweep is not called here any more; it stays importable from this module
# because the benchmark's tracer (perfbench/spans.py) wraps it by name here.
from .sweep import (  # noqa: F401
    PRESET_IDS,
    find_threshold,
    format_csv,
    preset,
    run_point,
    run_sweep,
    spec_from_dict,
    steady_state_covariance,
    sweep_columns,
)

EXIT_OK = 0
EXIT_UNSTABLE = 2
EXIT_SPEC = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return _json_object(handle, path)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write {path}: {exc}") from exc


def _dumps(payload: dict, **options) -> str:
    """``json.dumps`` of a flat mapping, with every non-finite float written as null."""
    return json.dumps({key: None if isinstance(value, float) and not math.isfinite(value)
                       else value for key, value in payload.items()}, **options)


def cmd_solve(args: argparse.Namespace) -> int:
    document = _load_json(args.params) if args.params else {}
    if args.diffusion:
        document["diffusion_mode"] = args.diffusion
    params = params_from_dict(document)
    result = run_point(params)
    payload = result.to_flat_dict()
    if result.status != "ok":
        payload["max_real_part"] = result.max_real_part
        payload["reason"] = result.reason
    print(_dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if result.status == "ok" else EXIT_UNSTABLE


def cmd_sweep(args: argparse.Namespace) -> int:
    # a preset is a sweep document kept in the package
    if args.command == "preset":
        spec = preset(args.id)
    else:
        spec = spec_from_dict(_load_json(args.spec))
    _write_text(args.out, format_csv(sweep_columns(spec)))
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    spec = spec_from_dict(_load_json(args.spec)) if args.spec else preset(args.preset)
    try:
        value = find_threshold(spec, args.measure, args.direction)
    except (NoCrossing, NonMonotone) as exc:
        print(json.dumps({"measure": args.measure, "error": type(exc).__name__,
                          "detail": str(exc)}))
        return EXIT_SPEC
    print(json.dumps({"measure": args.measure, "axis": spec.axis1.param,
                      "threshold": value}))
    return EXIT_OK


def cmd_validate_oracle(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise SpecError("--trials must be at least 1")
    if args.seed < 0:
        raise SpecError("--seed must be non-negative")
    if not 0.0 <= args.tolerance < math.inf:
        raise SpecError("--tolerance must be finite and non-negative")
    rng = np.random.default_rng(args.seed)
    worst = dict.fromkeys(DIFFUSION_MODES, 0.0)
    trials = dict.fromkeys(DIFFUSION_MODES, 0)
    accepted = 0
    while accepted < args.trials:
        mode = DIFFUSION_MODES[accepted % len(DIFFUSION_MODES)]
        overrides = {
            "epsilon": float(rng.uniform(0.0, 0.95)),
            "temperature": float(rng.uniform(0.0, 1.0)),
            "g_q_ratio": float(rng.uniform(0.5, 3.0)),
            "diffusion_mode": mode,
        }
        params = params_from_dict(overrides)
        try:
            numeric = steady_state_covariance(params)
        except UnstableDrift:
            continue
        closed = analytic_covariance(params, derive(params))
        mask = np.abs(closed) > 1e-12
        rel = float(np.max(np.abs(numeric - closed)[mask] / np.abs(closed)[mask]))
        worst[mode] = max(worst[mode], rel)
        trials[mode] += 1
        accepted += 1
    overall = max(worst.values())
    passed = overall <= args.tolerance
    print(json.dumps({"trials": accepted, "seed": args.seed,
                      "max_relative_deviation": overall,
                      "by_mode": {mode: {"trials": trials[mode],
                                         "max_relative_deviation": worst[mode]}
                                  for mode in DIFFUSION_MODES},
                      "tolerance": args.tolerance,
                      "passed": passed}))
    return EXIT_OK if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it.

    Parsing leaves the parser unchanged, so every call of ``main`` in a
    process shares it.
    """
    parser = argparse.ArgumentParser(
        prog="magnonsteer",
        description="Steady-state quantum correlations of a qubit-cavity-magnon "
                    "system with a coherent feedback loop.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evaluate one parameter point")
    p_solve.add_argument("--params", help="JSON parameter document (defaults if omitted)")
    p_solve.add_argument("--diffusion", choices=DIFFUSION_MODES,
                         help="override the diffusion mode")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a sweep specification")
    p_sweep.add_argument("--spec", required=True, help="JSON sweep specification")
    p_sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_preset = sub.add_parser("preset", help="run a figure-reproduction preset")
    p_preset.add_argument("--id", required=True, metavar="|".join(PRESET_IDS))
    p_preset.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_preset.set_defaults(func=cmd_sweep)

    p_thr = sub.add_parser("threshold", help="locate where a measure reaches zero")
    group = p_thr.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="JSON sweep specification")
    group.add_argument("--preset", help="preset id to scan")
    p_thr.add_argument("--measure", required=True)
    p_thr.add_argument("--direction", choices=("falling", "rising"), default="falling")
    p_thr.set_defaults(func=cmd_threshold)

    p_val = sub.add_parser("validate-oracle",
                           help="cross-check the closed-form covariance against "
                                "the steady-state solver, cycling through the "
                                "diffusion modes")
    p_val.add_argument("--trials", type=int, default=100)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--tolerance", type=float, default=1e-8)
    p_val.set_defaults(func=cmd_validate_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnstableDrift as exc:
        print(_dumps({"status": "unstable", "max_real_part": exc.max_real_part,
                      "reason": exc.reason}),
              file=sys.stderr)
        return EXIT_UNSTABLE
    except MagnonSteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
