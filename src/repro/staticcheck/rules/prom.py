"""RS100 — Prometheus exposition conformance (a non-AST file rule).

Wraps the strict parser from :func:`repro.obs.export.parse_prometheus`
as a registered rule, so ``repro-ecs lint --prom metrics.prom`` (or
naming a ``.prom`` file directly) is the one Prometheus linter — the CI
obs-smoke job calls it too.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List

from ..config import Config
from ..core import FileRule, Violation, register

_LINE_RE = re.compile(r"line (\d+):")


def lint_prom_file(path: Path) -> List[Violation]:
    """Violations (rule RS100) for one Prometheus text-format file.

    The exporter import is deferred so ``repro.staticcheck`` stays
    importable (and fast) for pure-AST runs that never touch a ``.prom``
    file.
    """
    from ...obs.export import parse_prometheus
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Violation(str(path), 1, 0, PromExpositionRule.id,
                          PromExpositionRule.name,
                          f"cannot read exposition file: {exc}")]
    try:
        parse_prometheus(text)
    except ValueError as exc:
        message = str(exc)
        match = _LINE_RE.search(message)
        line = int(match.group(1)) if match else 1
        return [Violation(str(path), line, 0, PromExpositionRule.id,
                          PromExpositionRule.name,
                          f"invalid Prometheus exposition: {message}")]
    return []


class PromExpositionRule(FileRule):
    """RS100 — ``.prom``/``.scrape`` files must parse as Prometheus text.

    ``.scrape`` is the conventional suffix for bodies saved from the
    live ``/metrics`` endpoint (``repro.obs.server``), so CI can curl a
    mid-run scrape to a file and lint it with the same rule that covers
    ``--metrics-out`` exports.
    """

    id = "RS100"
    name = "prom-exposition"

    def applies(self, path: Path) -> bool:
        return path.suffix in (".prom", ".scrape")

    def check_file(self, path: Path, config: Config) -> List[Violation]:
        return lint_prom_file(path)


register(PromExpositionRule())
