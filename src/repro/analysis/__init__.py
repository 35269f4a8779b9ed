"""``repro.analysis``: the AST-based invariant linter.

The reproduction's correctness rests on invariants that used to live
only in ROADMAP.md and review discipline: byte-stable iteration order
across PYTHONHASHSEED, the single-oracle invariant, the oracle
flag-threading rule, and the single owner of process pools.
PRs 3, 4, 7 and 8 each shipped a bugfix for a silent violation of one of
them.  This package turns those rules into machine-checkable lint,
enforced in CI (``python -m repro.analysis --strict src tests``).

Rule families (see each module's docstring and ``README.md`` here):

- :mod:`~repro.analysis.determinism` -- ``det-set-iter``,
  ``det-unseeded-rng``, ``det-wallclock``, ``det-ambient-sort-key``.
- :mod:`~repro.analysis.oracle` -- ``oracle-second-build``,
  ``oracle-invalidate-rebuild``.
- :mod:`~repro.analysis.flags` -- ``thread-oracle-flag``.
- :mod:`~repro.analysis.forksafety` -- ``fork-raw-pool``.
- :mod:`~repro.analysis.obsguard` -- ``obs-null-guard``.

Suppress one finding inline with ``# repro-lint: disable=<rule>`` plus a
reason; grandfather a triaged finding in ``baseline.json`` with a
one-line justification.  Everything is stdlib-``ast``; no runtime deps.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.analysis.determinism import DeterminismChecker
from repro.analysis.flags import FlagThreadingChecker
from repro.analysis.forksafety import ForkSafetyChecker
from repro.analysis.framework import (
    PARSE_ERROR,
    AnalysisResult,
    Baseline,
    Checker,
    Finding,
    ProjectChecker,
    Rule,
    SourceFile,
    run_analysis,
)
from repro.analysis.obsguard import ObsGuardChecker
from repro.analysis.oracle import OracleChecker

__all__ = [
    "AnalysisResult", "Baseline", "Checker", "Finding", "ProjectChecker",
    "Rule", "SourceFile", "all_rules", "analyze", "default_baseline_path",
    "run_analysis",
]

#: Default location of the committed grandfather baseline.
def default_baseline_path() -> str:
    return os.path.join(os.path.dirname(__file__), "baseline.json")


def default_checkers() -> List[Checker]:
    return [
        DeterminismChecker(), OracleChecker(), ForkSafetyChecker(),
        ObsGuardChecker(),
    ]


def default_project_checkers() -> List[ProjectChecker]:
    return [FlagThreadingChecker()]


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (for ``--list-rules`` and docs)."""
    rules = {PARSE_ERROR.rule_id: PARSE_ERROR}
    for checker in default_checkers() + default_project_checkers():
        for rule in checker.rules:
            rules[rule.rule_id] = rule
    return [rules[k] for k in sorted(rules)]


def analyze(
    paths: Sequence[str],
    baseline: Optional[Baseline] = None,
) -> AnalysisResult:
    """Lint ``paths`` with every registered checker."""
    return run_analysis(
        paths,
        checkers=default_checkers(),
        project_checkers=default_project_checkers(),
        baseline=baseline,
    )
