"""Correctness gate: golden outputs and an independent distance check."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import networkx as nx

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
#: Oracle rows sampled per check.
SAMPLE_ROWS = 8
#: Relative tolerance where the oracle contracts degree-2 chains: a
#: contracted chain's weight is summed in another order than a path walk.
CONTRACTED_RTOL = 1e-9


def load_golden() -> Dict[str, Dict[str, List[List]]]:
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def compare_golden(
    workload: str, seed: int, log: List[Tuple[int, str]], completed: int,
    units: int,
) -> Tuple[Optional[int], List[str]]:
    """Compare a run's outputs with the committed ones for ``seed``.

    Only outputs of the first ``min(completed, units)`` requests (and
    the state changes before them) are compared.  Returns the number of
    outputs compared -- ``None`` when no golden exists for the seed --
    and one message per mismatch.
    """
    expected = load_golden().get(workload, {}).get(str(seed))
    if expected is None:
        return None, []
    limit = min(completed, units)
    want = [tuple(entry) for entry in expected if entry[0] < limit]
    got = [entry for entry in log if entry[0] < limit]
    problems = [
        f"golden mismatch at output {i} (request {w[0]}): "
        f"expected {w[1]!r}, got {g[1]!r}"
        for i, (w, g) in enumerate(zip(want, got)) if tuple(g) != w
    ]
    if len(want) != len(got):
        problems.append(f"golden mismatch: expected {len(want)} outputs "
                        f"before request {limit}, got {len(got)}")
    return len(want), problems


def _close(got: float, ref: float, rtol: float) -> bool:
    if got == ref:
        return True
    if rtol == 0.0 or math.isinf(got) or math.isinf(ref):
        return False
    return abs(got - ref) <= rtol * max(abs(ref), 1.0)


def oracle_rows_match(instance, seed: int) -> Tuple[int, List[str]]:
    """Check sampled VM rows of the instance oracle against networkx.

    The VM rows are the cached working set of every workload.  The
    reference is a plain Dijkstra over the live graph, so a repair or
    patch that left a stale label shows here.  Equality is exact unless
    the oracle contracted chains (see :data:`CONTRACTED_RTOL`).  Returns
    the number of distances compared and one message per mismatch
    (at most five).
    """
    graph = instance.graph
    oracle = instance.oracle
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes())
    reference.add_weighted_edges_from(graph.edges())
    nodes = sorted(graph.nodes(), key=repr)
    vms = sorted(instance.vms, key=repr)
    sample = random.Random(seed).sample(vms, min(SAMPLE_ROWS, len(vms)))
    rtol = CONTRACTED_RTOL if oracle.contracted is not None else 0.0
    compared = 0
    problems: List[str] = []
    for vm in sample:
        want = nx.single_source_dijkstra_path_length(reference, vm)
        for node, got in zip(nodes, oracle.distances_to(vm, nodes)):
            compared += 1
            ref = want.get(node, math.inf)
            if not _close(got, ref, rtol) and len(problems) < 5:
                problems.append(f"oracle row {vm!r} -> {node!r}: "
                                f"{got!r} != networkx {ref!r}")
    return compared, problems
