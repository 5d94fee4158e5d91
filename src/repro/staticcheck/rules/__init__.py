"""Domain rules for the invariant linter.

Importing this package registers every rule with
:mod:`repro.staticcheck.core`:

========  ====================  ==============================================
ID        name                  invariant
========  ====================  ==============================================
RS001     determinism           no wall-clock/entropy/hash-order sources
RS002     merge-completeness    merge methods fold every field
RS003     obs-guard             obs calls guarded on the ACTIVE slot
RS005     seeded-rng            every ``random.Random`` is plumbed a seed
RS100     prom-exposition       ``.prom`` files parse as strict Prometheus
RS201     worker-determinism    worker-reachable code free of ambient entropy
RS203     merge-reachability    worker-built mergeables merged somewhere
RS204     obs-escape            the obs ACTIVE slot never returned or aliased
========  ====================  ==============================================

(RS000 unused-suppression and RS999 syntax-error live in the core.
RS201 and RS203 are interprocedural: they run over the project index that
:func:`repro.staticcheck.graph.lint_paths` links from every file in the
run.  RS204 keeps its number but is a per-file rule beside RS003.)
"""

from __future__ import annotations

from . import determinism, merge, obsguard, prom, reachability  # noqa: F401

__all__ = ["determinism", "merge", "obsguard", "prom", "reachability"]
