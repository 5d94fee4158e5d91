"""``repro.staticcheck`` — AST-based invariant linting (zero-dependency).

The reproduction's headline claims are *invariants*: shard-count
independence (every RNG seeded and plumbed), byte-identical output with
observability on or off (every obs call guarded), and lossless shard
merging (every field folded).  This package machine-checks them on
every change instead of relying on review discipline:

- :mod:`repro.staticcheck.core` — rule registry, path roles read from
  whole path components, per-file AST dispatch, ``# repro-lint:
  disable=RULE`` suppressions with unused-suppression detection,
  :func:`lint_paths` (files and directories: each file parsed once,
  cold and in process) and the text report.
- :mod:`repro.staticcheck.rules` — the per-file rules RS001-RS003,
  RS005, RS006 (unused import) and RS204 (obs-slot escape), the non-AST
  Prometheus exposition rule RS100, and RS007, RS008 and RS203, which
  check across the run's files that every default is set, every public
  definition has a caller outside the tests, and every merge method is
  called somewhere.

It has no settings: every rule runs on every file.  Run it as
``python -m repro.staticcheck src/repro``; see ``docs/static-analysis.md``
for the rule catalogue and how to add a rule.
"""

from __future__ import annotations

from .core import (SYNTAX_ID, UNUSED_ID, AstRule, FileRule, GraphRule,
                   LintContext, Violation, all_rule_ids, ast_rules,
                   file_rules, graph_rules, lint_paths, register,
                   render_text)

__all__ = [
    "AstRule", "FileRule", "GraphRule", "LintContext", "SYNTAX_ID",
    "UNUSED_ID", "Violation", "all_rule_ids", "ast_rules", "file_rules",
    "graph_rules", "lint_paths", "register", "render_text",
]
