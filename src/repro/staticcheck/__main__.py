"""Command-line entry point: ``python -m repro.staticcheck [paths...]``.

Exit status: 0 clean, 1 violations found, 2 usage/configuration error.
The same driver backs the ``repro-ecs lint`` subcommand
(:func:`add_lint_arguments` + :func:`run_from_args` are shared with
:mod:`repro.cli`).

Every run is one pass of :func:`repro.staticcheck.core.lint_paths`:
per-file rules, then RS203 over every file named on the command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .config import load_config
from .core import all_rule_ids, lint_paths
from .reporters import render


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint option surface to ``parser`` (shared with the CLI)."""
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", default=None, metavar="RS001,RS003",
                        help="comma-separated rule IDs to run exclusively")
    parser.add_argument("--ignore", default=None, metavar="RS005",
                        help="comma-separated rule IDs to skip")
    parser.add_argument("--prom", action="append", default=[],
                        metavar="FILE",
                        help="Prometheus exposition file to validate "
                             "(RS100); may repeat")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="explicit pyproject.toml (default: nearest "
                             "one above the current directory)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print registered rule IDs and exit")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST-based invariant linter for the ECS reproduction "
                    "(determinism, merge algebra, obs guards).")
    add_lint_arguments(parser)
    return parser


def _split_ids(raw: Optional[str]) -> Tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run from a parsed namespace; returns the exit code."""
    if args.list_rules:
        for rule_id in all_rule_ids():
            print(rule_id)
        return 0
    try:
        config = load_config(
            explicit=Path(args.config) if args.config else None)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    select = _split_ids(args.select)
    ignore = _split_ids(args.ignore)
    unknown = [rid for rid in (*select, *ignore)
               if rid not in all_rule_ids()]
    if unknown:
        print(f"error: unknown rule id(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if select or ignore:
        config = dataclasses.replace(
            config, select=select or config.select,
            ignore=tuple(sorted({*config.ignore, *ignore})))
    paths: List[str] = list(args.paths or [])
    paths.extend(args.prom)
    if not paths:
        default = Path("src/repro")
        if not default.is_dir():
            print("error: no paths given and ./src/repro does not exist",
                  file=sys.stderr)
            return 2
        paths = [str(default)]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    violations, files_checked = lint_paths(paths, config)
    print(render(violations, files_checked, args.format))
    return 1 if violations else 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    return run_from_args(parser.parse_args(argv))


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
