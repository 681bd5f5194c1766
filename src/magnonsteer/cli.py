"""Command-line front end.

Subcommands: solve, sweep, preset, threshold. Exit codes: 0 on success, 2
when no steady state exists (unstable drift), 3 on invalid specifications or
parameter documents, on usage errors (an unknown command or option, a bad
option value or a missing required one; argparse's own code for them would
be 2) and when a command runs out of memory. JSON output is
strict: a number that is not finite (the NaN ``max_real_part`` of a drift
with a non-finite entry) is written as null.

``main`` parses with one argument parser per process, built on its first
call, so a program that calls ``main`` many times (the presets one after
another) builds it once, and one that only imports this module builds none.
``sweep``, ``preset`` and ``threshold`` read their sweep through ``_spec``:
the ``--spec`` document, or else the preset. ``sweep`` and ``preset`` write
``format_csv(sweep_columns(spec))``: the evaluated columns go to text
without a per-point row.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .errors import MagnonSteerError, NoCrossing, NonMonotone, SpecError, UnstableDrift
from .model import _json_object, params_from_dict
# run_sweep is not called here any more; it stays importable from this module
# because the benchmark's tracer (perfbench/spans.py) wraps it by name here.
from .sweep import (  # noqa: F401
    PRESET_IDS,
    SweepSpec,
    find_threshold,
    format_csv,
    preset,
    run_point,
    run_sweep,
    spec_from_dict,
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
    if path is None:
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


def _spec(args: argparse.Namespace) -> SweepSpec:
    """The command's sweep: its ``--spec`` document, or else its preset."""
    return preset(args.preset) if args.spec is None else spec_from_dict(_load_json(args.spec))


def cmd_solve(args: argparse.Namespace) -> int:
    params = params_from_dict({} if args.params is None else _load_json(args.params))
    result = run_point(params)
    payload = result.to_flat_dict()
    if result.status != "ok":
        payload["max_real_part"] = result.max_real_part
        payload["reason"] = result.reason
    print(_dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if result.status == "ok" else EXIT_UNSTABLE


def cmd_sweep(args: argparse.Namespace) -> int:
    _write_text(args.out, format_csv(sweep_columns(_spec(args))))
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    spec = _spec(args)
    try:
        value = find_threshold(spec, args.measure, args.direction)
    except (NoCrossing, NonMonotone) as exc:
        print(json.dumps({"measure": args.measure, "error": type(exc).__name__,
                          "detail": str(exc)}))
        return EXIT_SPEC
    print(json.dumps({"measure": args.measure, "axis": spec.axis1.param,
                      "threshold": value}))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_SPEC, not EXIT_UNSTABLE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SPEC, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it.

    Parsing leaves the parser unchanged, so every call of ``main`` in a
    process shares it.
    """
    parser = _Parser(
        prog="magnonsteer",
        description="Steady-state quantum correlations of a qubit-cavity-magnon "
                    "system with a coherent feedback loop.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evaluate one parameter point")
    p_solve.add_argument("--params", help="JSON parameter document (defaults if omitted)")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a sweep specification")
    p_sweep.add_argument("--spec", required=True, help="JSON sweep specification")
    p_sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_preset = sub.add_parser("preset", help="run a figure-reproduction preset")
    # a preset is a sweep document kept in the package
    p_preset.add_argument("--id", required=True, dest="preset", metavar="|".join(PRESET_IDS))
    p_preset.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_preset.set_defaults(func=cmd_sweep, spec=None)

    p_thr = sub.add_parser("threshold", help="locate where a measure reaches zero")
    group = p_thr.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="JSON sweep specification")
    group.add_argument("--preset", help="preset id to scan")
    p_thr.add_argument("--measure", required=True)
    p_thr.add_argument("--direction", choices=("falling", "rising"), default="falling")
    p_thr.set_defaults(func=cmd_threshold)

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
    except MemoryError:  # a sweep's peak grows with its points, about 4.6 KB each
        print(f"error: not enough memory to run {args.command}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
