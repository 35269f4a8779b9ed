"""The contracted core's numpy row kernel against its heap-loop reference.

``_ContractedCore.dijkstra`` (frontier min-plus relaxation plus a
pop-order parent pass) must return exactly the labels of
``_ContractedCore.heap_dijkstra`` -- distances *and* parents -- for every
core source, or refuse the row (``None``) so the oracle runs the heap
loop instead.  Every comparison here is exact.
"""

import random

import numpy as np
import pytest

from repro.graph import FrozenOracle, Graph
from repro.graph.indexed import CONTRACT_MIN_INTERIOR, _ContractedCore
from repro.obs import MetricsRegistry, Recorder

INF = float("inf")


def chained_graph(rng, cost, core=60, extra=40, chains=40, components=1):
    """Random core graphs whose extra links are degree-2 relay chains.

    Each component is a random spanning tree over ``core`` nodes plus
    ``extra`` direct links and ``chains`` spliced chains of 1-4
    interiors, so the contracted core has plenty to contract.
    """
    graph = Graph()
    for comp in range(components):
        nodes = [(comp, i) for i in range(core)]
        for i in range(1, core):
            graph.add_edge(nodes[i], nodes[rng.randrange(i)], cost(rng))
        for _ in range(extra):
            u, v = rng.sample(nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, cost(rng))
        for k in range(chains):
            a, b = rng.sample(nodes, 2)
            walk = [a] + [("relay", comp, k, j)
                          for j in range(rng.randint(1, 4))] + [b]
            for x, y in zip(walk, walk[1:]):
                graph.add_edge(x, y, cost(rng))
    return graph


def continuous(rng):
    return rng.uniform(0.5, 5.0)


def dyadic(rng):
    # Exact binary fractions: path sums never round, so equal-cost
    # paths and equal labels on different nodes are common.
    return rng.randint(1, 12) / 4


def hot_nodes(graph, rng, count=12):
    core = sorted((n for n in graph.nodes() if n[0] != "relay"), key=repr)
    return set(rng.sample(core, count))


def assert_kernel_matches_heap(core):
    """Every core source: kernel labels == heap-loop labels, exactly."""
    assert len(core.interior) >= CONTRACT_MIN_INTERIOR
    for source in range(len(core)):
        labels = core.dijkstra(source)
        assert labels is not None, f"source {source} fell back"
        dist, parent = core.heap_dijkstra(source)
        assert labels[0].tolist() == dist, f"distances differ from {source}"
        assert labels[1].tolist() == parent, f"parents differ from {source}"


def assert_rows_match_csr(core):
    """The lazily built tuple rows mirror the CSR arrays slot by slot."""
    indptr = core.indptr.tolist()
    weights, indices = core.weights.tolist(), core.indices.tolist()
    assert core.rows == [
        tuple(zip(weights[lo:hi], indices[lo:hi]))
        for lo, hi in zip(indptr, indptr[1:])
    ]


def contracted_oracle(seed, **shape):
    rng = random.Random(seed)
    graph = chained_graph(rng, continuous, **shape)
    hot = hot_nodes(graph, rng)
    oracle = FrozenOracle(graph, hot=hot)
    assert oracle.contracted is not None
    oracle.warm(sorted(hot, key=repr))
    return graph, oracle, hot, rng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_matches_heap_on_continuous_costs(seed):
    _, oracle, _, _ = contracted_oracle(seed)
    assert_kernel_matches_heap(oracle.contracted)


def test_unreachable_nodes_keep_inf_and_no_parent():
    _, oracle, _, _ = contracted_oracle(3, components=2)
    core = oracle.contracted
    assert_kernel_matches_heap(core)
    dist, parent = core.dijkstra(0)
    unreached = ~np.isfinite(dist)
    assert unreached.any(), "fixture has no second component"
    assert (parent[unreached] == -1).all()
    assert parent[0] == -1


def test_poisoned_chain_after_topology_patch():
    _, oracle, _, _ = contracted_oracle(4)
    core = oracle.contracted
    # Fail the first hop of every fifth chain: the kept weight of a
    # chain-only pair goes to ``inf`` in the CSR.
    failed = [
        (core.nodes[a], interiors[0]) for a, _, interiors, _, _ in core.chains[::5]
    ]
    oracle.patch_topology(removed=failed)
    assert np.isinf(core.weights).any()
    assert_rows_match_csr(core)
    assert_kernel_matches_heap(core)


def test_cost_patch_and_rebased_clone_stay_independent():
    graph, oracle, hot, rng = contracted_oracle(5)
    core = oracle.contracted
    original = core.weights.copy()
    edges = [(u, v) for u, v, _ in graph.edges()]
    changed = {e: continuous(rng) for e in rng.sample(edges, 30)}
    clone = oracle.rebased(graph.copy(), changed)
    patched = clone.contracted
    assert patched.indptr is core.indptr and patched.indices is core.indices
    assert np.array_equal(core.weights, original)
    assert not np.array_equal(patched.weights, original)
    assert_rows_match_csr(patched)
    assert_kernel_matches_heap(patched)
    assert_kernel_matches_heap(core)
    # The patched CSR is what a fresh contraction of the patched graph
    # would build.
    fresh = FrozenOracle(clone.graph, hot=hot).contracted
    assert np.array_equal(fresh.weights, patched.weights)

    # Patching the original in place updates its CSR and tuple rows
    # together (``_set_row_weight``), and leaves the clone alone.
    clone_weights = patched.weights.copy()
    oracle.patch_edge_costs(changed)
    assert np.array_equal(core.weights, patched.weights)
    assert_rows_match_csr(core)
    oracle.patch_edge_costs({e: continuous(rng) for e in rng.sample(edges, 30)})
    assert np.array_equal(patched.weights, clone_weights)
    assert_rows_match_csr(core)
    assert_kernel_matches_heap(core)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_equal_cost_ties_from_dyadic_weights(seed):
    rng = random.Random(seed)
    graph = chained_graph(rng, dyadic, core=120, extra=100, chains=60)
    core = _ContractedCore(graph, hot_nodes(graph, rng))
    dist, _ = core.dijkstra(0)
    # The fixture really has ties: equal labels on different nodes ...
    assert len(set(dist.tolist())) < len(dist) // 2
    # ... and nodes with more than one tight predecessor.
    owner = np.repeat(np.arange(len(core)), np.diff(core.indptr))
    tight = dist[core.indices] + core.weights == dist[owner]
    assert np.bincount(owner[tight], minlength=len(core)).max() > 1
    assert_kernel_matches_heap(core)


def test_zero_gap_row_falls_back_to_heap_loop():
    graph, oracle, hot, _ = contracted_oracle(6)
    core = oracle.contracted
    # A zero-cost direct edge is always the kept candidate of its pair,
    # and makes the slot tight with equal labels at both ends.
    a, b = next(iter(core.pair_direct))
    oracle.patch_edge_costs({(core.nodes[a], core.nodes[b]): 0.0})
    assert core.dijkstra(a) is None

    recorder = Recorder(registry=MetricsRegistry())
    metered = FrozenOracle(graph, hot=hot, metrics=recorder)
    metered.prefetch_rows([core.nodes[a]])
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["oracle.rows.fallback"] == 1
    assert "oracle.row_build{kind=fallback}" in snapshot["histograms"]
    cid = metered.contracted.index[core.nodes[a]]
    dist, parent = metered.contracted.heap_dijkstra(cid)
    row = metered._rows[cid]
    assert list(row.dist) == dist and list(row.parent) == parent
