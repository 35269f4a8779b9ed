"""Fork-safety rule: one owner for process pools.

The oracle and the SOFDA pipeline run in one process.  The only process
pool in the codebase is :func:`repro.experiments.harness.run_sweep`'s
``workers=N`` cell pool, which gets the fork-inheritance ordering (sweep
state installed in a module global before the pool forks), the no-fork
serial fallback and its one-time warning right once.

- ``fork-raw-pool`` -- a ``multiprocessing`` pool created anywhere
  outside ``experiments/harness.py``.  A second pool would have to
  re-derive all of the above, and a pool inside the oracle would fork
  mid-patch state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Checker, Finding, Rule, SourceFile

RAW_POOL = Rule(
    "fork-raw-pool",
    "direct multiprocessing pool outside the sweep harness",
    origin="PR 7",
)

#: Modules allowed to create pools directly.
_POOL_OWNERS = ("experiments/harness.py",)


class ForkSafetyChecker(Checker):
    rules = (RAW_POOL,)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if "tests" in source.roles:
            return
        if source.relpath.replace("\\", "/").endswith(_POOL_OWNERS):
            return
        tree = source.tree
        assert tree is not None
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_pool_creation(node):
                yield source.finding(
                    RAW_POOL.rule_id, node,
                    "multiprocessing pool created directly; the only "
                    "process pool is run_sweep(workers=N)'s cell pool in "
                    "experiments/harness.py, which owns the fork ordering "
                    "and the no-fork fallback",
                )


def _is_pool_creation(node: ast.Call) -> bool:
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "Pool"
