"""Graph transformations: Procedures 1 and 2 of the paper.

Procedure 1 turns the network ``G`` into a complete metric instance ``G``
(script-G in the paper) over ``M ∪ {s}`` whose edge costs fold the VM setup
costs in half onto incident edges, so that a path with ``|C|+1`` nodes in
the instance costs exactly (connection cost of the underlying shortest
paths) + (setup costs of the ``|C|`` visited VMs).  Lemma 1 shows the
instance is metric, which the k-stroll heuristics rely on.

Procedure 2 solves k-stroll on that instance (``k = |C|+1``) and expands the
resulting node sequence back into a walk in ``G`` by concatenating shortest
paths, yielding a candidate service chain from ``s`` to the designated last
VM ``u``.

The Appendix-D variant (nonzero source setup cost) is supported through the
``source_cost`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np

from repro.graph import KStrollInstance, solve_kstroll
from repro.core.forest import DeployedChain
from repro.core.problem import SOFInstance

Node = Hashable
INF = float("inf")


def build_kstroll_instance(
    instance: SOFInstance,
    source: Node,
    last_vm: Node,
    candidate_vms: Optional[Iterable[Node]] = None,
    setup_costs: Optional[Dict[Node, float]] = None,
    source_cost: float = 0.0,
) -> KStrollInstance:
    """Procedure 1: construct the metric k-stroll instance.

    Args:
        instance: the SOF instance (provides graph, VM set, setup costs).
        source: the chain's source ``s``.
        last_vm: the designated last VM ``u``.
        candidate_vms: VM pool to draw intermediate VMs from; defaults to
            ``instance.vms``.  ``last_vm`` is always included.
        setup_costs: optional override of per-VM setup costs (used by the
            dynamic-case repairs, where already-enabled VMs cost 0).
        source_cost: the source's own setup cost (Appendix D; default 0).

    Returns:
        The complete metric instance over the candidate pool plus ``s``.

    Lifetime contract: when no per-call overrides are given, the returned
    instance's cost matrix references per-source rows cached on
    ``instance`` (one copy per source instead of one per ``(source,
    last_vm)`` pair), and a later call with the same ``source`` re-stamps
    the source column in place.  Consume each instance before requesting
    the next one for that source -- every in-repo caller does.
    """
    oracle = instance.oracle
    pool = set(candidate_vms) if candidate_vms is not None else set(instance.vms)
    pool.add(last_vm)
    pool.discard(source)

    if setup_costs is None and source_cost == 0.0 and pool <= instance.vms:
        # Fast path for the |S| x |M| sweep: every edge cost that involves
        # neither the source nor an override is shared across all
        # (source, last_vm) pairs, so reference the per-source copies of
        # the instance-wide metric block and only stamp the source column
        # per call.  The arithmetic mirrors ``edge_cost`` below term for
        # term; VM-pair entries are symmetrised from one Dijkstra
        # direction (the oracle's documented symmetry contract), so a
        # reversed lazy query may disagree in the last ulp.
        sorted_vms = instance.sorted_vms()
        if len(pool) == len(sorted_vms) - (source in instance.vms):
            ordered = [v for v in sorted_vms if v != source]
        else:
            ordered = sorted(pool, key=repr)
        nodes: List[Node] = [source] + ordered
        rows = instance.procedure1_rows(source)
        base_row = instance.source_vm_distances(source)
        cu = instance.setup_cost(last_vm)
        setup_of = instance.setup_cost
        source_row: Dict[Node, float] = {}
        matrix: Dict[Node, Dict[Node, float]] = {source: source_row}
        for v in ordered:
            base = base_row[v]
            cost = INF if base == INF else base + (cu + setup_of(v)) / 2.0
            source_row[v] = cost
            row = rows[v]
            row[source] = cost
            matrix[v] = row
        return KStrollInstance(
            nodes=nodes, source=source, target=last_vm, cost=matrix
        )

    nodes = [source] + sorted(pool, key=repr)

    def setup(node: Node) -> float:
        """Effective setup cost of a VM (honouring overrides)."""
        if setup_costs is not None and node in setup_costs:
            return setup_costs[node]
        return instance.setup_cost(node)

    s, u = source, last_vm
    cu = setup(u)

    def edge_cost(v1: Node, v2: Node) -> float:
        """Lazy Procedure-1 edge cost (shortest path + shared setups)."""
        base = oracle.distance(v1, v2)
        if base == INF:
            return INF
        if source_cost == 0.0:
            # Main-body cost sharing (Section IV).
            if v1 == s:
                return base + (cu + setup(v2)) / 2.0
            if v2 == s:
                return base + (setup(v1) + cu) / 2.0
            return base + (setup(v1) + setup(v2)) / 2.0
        # Appendix-D sharing with a source setup cost.
        pair = {v1, v2}
        if pair == {s, u}:
            return base + source_cost + cu
        if s in pair:
            other = v2 if v1 == s else v1
            return base + (source_cost + cu + setup(other)) / 2.0
        if u in pair:
            other = v2 if v1 == u else v1
            return base + (setup(other) + source_cost + cu) / 2.0
        return base + (setup(v1) + setup(v2)) / 2.0

    return KStrollInstance(nodes=nodes, source=s, target=u, cost=edge_cost)


@dataclass
class ChainWalk:
    """Procedure 2 output: a candidate service chain from ``s`` to ``u``.

    Attributes:
        walk: the full walk in ``G`` (shortest-path expansion of the stroll).
        stroll: the stroll node sequence ``(s, m1, ..., m|C|)`` -- the VMs
            that will run ``f1..f|C|`` in order (``m|C|`` is the last VM).
        positions: walk index of each stroll node, aligned with ``stroll``.
        connection_cost: total edge cost of the walk (per traversal).
        setup_cost: total setup cost of the ``|C|`` VMs on the stroll.
    """

    walk: List[Node]
    stroll: List[Node]
    positions: List[int]
    connection_cost: float
    setup_cost: float

    @property
    def total_cost(self) -> float:
        """Connection + setup cost of the candidate chain."""
        return self.connection_cost + self.setup_cost

    @property
    def source(self) -> Node:
        """The chain's source node."""
        return self.stroll[0]

    @property
    def last_vm(self) -> Node:
        """The chain's last VM (runs f_|C|)."""
        return self.stroll[-1]

    def to_deployed_chain(self) -> DeployedChain:
        """Convert to a :class:`DeployedChain` (VNF ``i`` on stroll node ``i+1``)."""
        placements = {self.positions[i + 1]: i for i in range(len(self.stroll) - 1)}
        return DeployedChain(walk=list(self.walk), placements=placements)


#: Above this pool size, chain_walk keeps only the lowest-detour VMs.
POOL_CAP = 24


def chain_walk(
    instance: SOFInstance,
    source: Node,
    last_vm: Node,
    candidate_vms: Optional[Iterable[Node]] = None,
    setup_costs: Optional[Dict[Node, float]] = None,
    kstroll_method: str = "auto",
    num_vms: Optional[int] = None,
    pool_cap: int = POOL_CAP,
) -> Optional[ChainWalk]:
    """Procedure 2: find a walk from ``source`` through ``num_vms`` VMs to ``last_vm``.

    ``num_vms`` defaults to ``|C|``.  Returns ``None`` when the pool is too
    small or endpoints are unreachable (callers treat the candidate as
    unavailable rather than failing the whole embedding).

    When the VM pool exceeds ``pool_cap``, only the ``pool_cap`` candidates
    with the lowest detour ``d(s, m) + setup(m) + d(m, u)`` are kept: a
    cheap walk never strays far from the source--last-VM corridor, so the
    restriction is empirically lossless while bounding the k-stroll cost
    independently of ``|M|``.
    """
    chain_len = num_vms if num_vms is not None else len(instance.chain)
    if chain_len < 1:
        raise ValueError("chain length must be >= 1")
    if last_vm == source:
        return None
    pool = set(candidate_vms) if candidate_vms is not None else set(instance.vms)
    pool.discard(source)
    pool.discard(last_vm)
    if pool_cap and len(pool) > pool_cap:
        oracle = instance.oracle
        # Deterministic sweep order: a bare ``list(pool)`` follows the
        # set's hash-salted iteration order, which leaks PYTHONHASHSEED
        # into oracle query order (hence row-install order and equal-score
        # tie-breaks) and makes runs irreproducible across processes.
        pool_list = sorted(pool, key=repr)
        # One gather per endpoint row instead of 2|pool|
        # scalar reads.  ``detour_distances`` only answers when both rows
        # are cached and already serve every candidate (returning None --
        # side-effect free -- otherwise), so cache evolution and scores
        # are identical to the scalar loop below.
        batch = oracle.detour_distances(source, last_vm, pool_list)
        if batch is not None:
            da, db = batch
            # ``setup_cost`` is exactly ``node_costs.get(node, 0.0)``;
            # binding the dict lookup keeps the per-candidate method-call
            # overhead out of this |pool|-sized comprehension.
            ncg = instance.node_costs.get
            setups = (
                [setup_costs.get(m, ncg(m, 0.0)) for m in pool_list]
                if setup_costs is not None
                else [ncg(m, 0.0) for m in pool_list]
            )
            # Elementwise IEEE doubles in the scalar loop's association,
            # ``(d1 + setup) + d2``, so scores are bit-identical; the
            # stable argsort reproduces ``sorted``'s tie-breaks (list
            # order) exactly.
            scores = (np.asarray(da) + np.asarray(setups)) + np.asarray(db)
            keep = np.argsort(scores, kind="stable")[:pool_cap]
            pool = {pool_list[i] for i in keep}
        else:
            def detour(m: Node) -> float:
                """Corridor detour score of a candidate intermediate VM."""
                setup = (
                    setup_costs.get(m, instance.setup_cost(m))
                    if setup_costs is not None else instance.setup_cost(m)
                )
                # Query from the endpoints so only two Dijkstras are cached.
                return oracle.distance(source, m) + setup + oracle.distance(last_vm, m)

            pool = set(sorted(pool_list, key=detour)[:pool_cap])
    kinst = build_kstroll_instance(
        instance,
        source,
        last_vm,
        candidate_vms=pool,
        setup_costs=setup_costs,
        source_cost=instance.source_setup_cost(source),
    )
    k = chain_len + 1  # |C| VMs plus the source itself
    if k > len(kinst.nodes):
        return None
    if kinst.edge(source, last_vm) == INF:
        return None
    try:
        stroll, stroll_cost = solve_kstroll(kinst, k, method=kstroll_method)
    except ValueError:
        return None
    if stroll_cost == INF:
        return None

    oracle = instance.oracle
    walk: List[Node] = [source]
    positions: List[int] = [0]
    for a, b in zip(stroll, stroll[1:]):
        segment = oracle.path(a, b)
        walk.extend(segment[1:])
        positions.append(len(walk) - 1)
    connection = sum(
        instance.graph.cost(u, v) for u, v in zip(walk, walk[1:])
    )
    if setup_costs is not None:
        setup = sum(
            setup_costs.get(node, instance.setup_cost(node))
            for node in stroll[1:]
        )
    else:
        setup = sum(instance.setup_cost(node) for node in stroll[1:])
    return ChainWalk(
        walk=walk,
        stroll=list(stroll),
        positions=positions,
        connection_cost=connection,
        setup_cost=setup,
    )
