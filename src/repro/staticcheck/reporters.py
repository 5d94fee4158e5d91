"""Violation reporters: human text and machine-stable JSON.

The JSON schema is versioned and pinned by ``tests/test_staticcheck.py``;
bump ``SCHEMA_VERSION`` when changing any key so downstream consumers
(CI annotations, dashboards) can branch on it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .core import Violation

SCHEMA_VERSION = 1


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    """One ``path:line:col: RSnnn [name] message`` line per violation."""
    lines = [violation.render() for violation in violations]
    noun = "file" if files_checked == 1 else "files"
    if violations:
        lines.append(f"{len(violations)} violation"
                     f"{'' if len(violations) == 1 else 's'} "
                     f"in {files_checked} {noun}")
    else:
        lines.append(f"clean: 0 violations in {files_checked} {noun}")
    return "\n".join(lines)


def violations_to_dict(violations: Sequence[Violation],
                       files_checked: int) -> Dict[str, object]:
    """The JSON document as a plain dict (stable keys, sorted output)."""
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "files_checked": files_checked,
        "violation_count": len(violations),
        "counts_by_rule": {rid: counts[rid] for rid in sorted(counts)},
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule_id": v.rule_id,
                "rule_name": v.rule_name,
                "message": v.message,
            }
            for v in violations
        ],
    }


def render_json(violations: Sequence[Violation], files_checked: int) -> str:
    return json.dumps(violations_to_dict(violations, files_checked),
                      indent=2, sort_keys=True)


def render(violations: List[Violation], files_checked: int,
           fmt: str) -> str:
    if fmt == "json":
        return render_json(violations, files_checked)
    if fmt == "text":
        return render_text(violations, files_checked)
    raise ValueError(f"unknown report format {fmt!r}")
