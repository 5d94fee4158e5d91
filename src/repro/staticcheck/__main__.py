"""Command-line entry point: ``python -m repro.staticcheck [paths...]``.

Exit status: 0 clean, 1 violations found, 2 usage error.  Every run is
one pass of :func:`repro.staticcheck.core.lint_paths`: every rule on
every file, then RS007 and RS203 over every file it names.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import all_rule_ids, lint_paths, render_text


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST-based invariant linter for the ECS reproduction "
                    "(determinism, merge algebra, obs guards).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--prom", action="append", default=[],
                        metavar="FILE",
                        help="Prometheus exposition file to validate "
                             "(RS100); may repeat")
    parser.add_argument("--list-rules", action="store_true",
                        help="print registered rule IDs and exit")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Lint what ``argv`` names; returns the exit code."""
    args = build_arg_parser().parse_args(argv)
    if args.list_rules:
        for rule_id in all_rule_ids():
            print(rule_id)
        return 0
    paths = [*args.paths, *args.prom]
    if not paths:
        if not Path("src/repro").is_dir():
            print("error: no paths given and ./src/repro does not exist",
                  file=sys.stderr)
            return 2
        paths = ["src/repro"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    violations, files_checked = lint_paths(paths)
    print(render_text(violations, files_checked))
    return 1 if violations else 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
