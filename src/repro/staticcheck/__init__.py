"""``repro.staticcheck`` — AST-based invariant linting (zero-dependency).

The reproduction's headline claims are *invariants*: shard-count
independence (every RNG seeded and plumbed), byte-identical output with
observability on or off (every obs call guarded), and lossless shard
merging (every field folded).  This package machine-checks them on
every change instead of relying on review discipline:

- :mod:`repro.staticcheck.core` — rule registry, per-file AST dispatch,
  ``# repro-lint: disable=RULE`` suppressions with unused-suppression
  detection, :func:`lint_source` (one string) and :func:`lint_paths`
  (files and directories: each file parsed once, cold and in process).
- :mod:`repro.staticcheck.rules` — the per-file rules RS001-RS003,
  RS005 and RS204 (obs-slot escape), the non-AST Prometheus exposition
  rule RS100, and RS203, which checks across the run's files that every
  merge method is called somewhere.
- :mod:`repro.staticcheck.reporters` — text and schema-stable JSON.
- :mod:`repro.staticcheck.config` — ``[tool.repro-staticcheck]`` in
  ``pyproject.toml``.

Run it as ``python -m repro.staticcheck src/repro`` or ``repro-ecs lint``;
see ``docs/static-analysis.md`` for the rule catalogue and how to add a
rule.
"""

from __future__ import annotations

from .config import Config, load_config
from .core import (SYNTAX_ID, UNUSED_ID, AstRule, FileRule, GraphRule,
                   LintContext, Violation, all_rule_ids, ast_rules,
                   file_rules, graph_rules, lint_paths, lint_source,
                   register)
from .reporters import (SCHEMA_VERSION, render_json, render_text,
                        violations_to_dict)

__all__ = [
    "AstRule", "Config", "FileRule", "GraphRule", "LintContext",
    "SCHEMA_VERSION", "SYNTAX_ID", "UNUSED_ID", "Violation",
    "all_rule_ids", "ast_rules", "file_rules", "graph_rules",
    "lint_paths", "lint_source", "load_config", "render_json",
    "render_text", "register", "violations_to_dict",
]
