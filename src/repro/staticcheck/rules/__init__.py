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
RS006     unused-import         every imported name is used
RS007     unset-parameter       every defaulted parameter has a caller
RS008     test-only-definition  every public definition has a non-test caller
RS100     prom-exposition       ``.prom`` files parse as strict Prometheus
RS203     merge-called          every merge method is called somewhere
RS204     obs-escape            the obs ACTIVE slot never returned or aliased
========  ====================  ==============================================

(RS000 unused-suppression and RS999 syntax-error live in the core.
RS007, RS008 and RS203 are graph rules: they run over every tree that
:func:`repro.staticcheck.core.lint_paths` parsed in the run.  RS204 keeps
its number but is a per-file rule beside RS003.)
"""

from __future__ import annotations

from . import (determinism, imports, merge, obsguard, params,  # noqa: F401
               prom)

__all__ = ["determinism", "imports", "merge", "obsguard", "params",
           "prom"]
