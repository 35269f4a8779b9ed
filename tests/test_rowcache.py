"""Tests for the budgeted RowCache layer and its oracle integration.

Contract under test: ``row_budget_bytes=None`` is bit-identical to the
historical unbounded dict; a budget only ever changes *residency* --
every evicted row recomputes on demand to identical labels, so a
budgeted oracle (and a budgeted online simulator) serves exactly the
same distances, forest costs and acceptance decisions as the unbounded
reference, while its accounted bytes never exceed the budget between
patches.
"""

import random

import pytest

from repro import sofda
from repro.graph import FrozenOracle, Graph, RowCache
from repro.graph.rowcache import ROW_OVERHEAD_BYTES, row_nbytes
from repro.graph.shortest_paths import DistanceOracle
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import softlayer_network
from repro.workload import (
    BackgroundChurn,
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    WorkloadEngine,
    build_schedule,
)

SOFDA = lambda inst: sofda(inst).forest  # noqa: E731


class _FakeRow:
    """Minimal stand-in carrying the _Row attributes RowCache reads."""

    def __init__(self, n, settled=True, full=True, used=False,
                 settled_count=None):
        self.dist = [0.0] * n
        self.parent = [-1] * n
        if settled:
            mask = bytearray(n)
            for i in range(settled_count if settled_count is not None else n):
                mask[i] = 1
            self.settled = mask
        else:
            self.settled = None
        self.full = full
        self.used = used
        self.stale = False
        self.cutoff = 0.0


# ----------------------------------------------------------------------
# byte accounting
# ----------------------------------------------------------------------
def test_row_nbytes_model():
    assert row_nbytes(10) == 16 * 10 + 10 + ROW_OVERHEAD_BYTES
    assert row_nbytes(10, settled=False) == 16 * 10 + ROW_OVERHEAD_BYTES


def test_accounting_tracks_mutations_exactly():
    cache = RowCache()
    cache[1] = _FakeRow(10)
    cache[2] = _FakeRow(10, settled=False)
    assert cache.total_bytes == row_nbytes(10) + row_nbytes(10, settled=False)
    assert cache.peak_bytes == cache.total_bytes
    # Replacing a row swaps its bytes, not adds them.
    cache[1] = _FakeRow(10, settled=False)
    assert cache.total_bytes == 2 * row_nbytes(10, settled=False)
    peak = cache.peak_bytes
    del cache[1]
    assert cache.total_bytes == row_nbytes(10, settled=False)
    assert cache.pop(2).settled is None
    assert cache.total_bytes == 0
    assert cache.pop(2, None) is None
    with pytest.raises(KeyError):
        cache.pop(2)
    assert cache.peak_bytes == peak  # peak is a lifetime high-water mark


def test_clear_resets_residency_not_history():
    cache = RowCache()
    cache[1] = _FakeRow(5)
    cache.evict(1, "idle")
    cache[2] = _FakeRow(5)
    cache.clear()
    assert cache.total_bytes == 0 and len(cache) == 0
    assert cache.evictions == 1 and cache.idle_evictions == 1


def test_get_counts_hits_and_misses():
    cache = RowCache()
    cache[1] = _FakeRow(5)
    assert cache.get(1) is not None
    assert cache.get(9) is None
    assert cache.get(9, "fallback") == "fallback"
    assert cache.hits == 1 and cache.misses == 2
    # Recency ticks only accrue under a budget.
    assert not cache._served
    budgeted = RowCache(budget_bytes=10 ** 6)
    budgeted[1] = _FakeRow(5)
    budgeted.get(1)
    assert budgeted._served[1] == 1


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        RowCache(budget_bytes=0)
    with pytest.raises(ValueError):
        RowCache(budget_bytes=-5)


# ----------------------------------------------------------------------
# eviction policy
# ----------------------------------------------------------------------
def test_evict_reasons_and_callback():
    cache = RowCache()
    dropped = []
    cache.on_evict = lambda sid, row: dropped.append(sid)
    for sid in (1, 2, 3):
        cache[sid] = _FakeRow(5)
    cache.evict(1, "idle")
    cache.evict(2, "repair")
    cache.evict(3, "budget")
    assert dropped == [1, 2, 3]
    assert cache.evictions == 3
    assert (cache.idle_evictions, cache.repair_evictions,
            cache.budget_evictions) == (1, 1, 1)
    assert cache.total_bytes == 0


def test_enforce_prefers_unused_then_cheap_then_lru():
    n = 100
    cache = RowCache(budget_bytes=row_nbytes(n))
    # Three rows, one slot: the unused row must go first...
    cache[1] = _FakeRow(n, used=True)
    cache[2] = _FakeRow(n, used=False)
    cache[3] = _FakeRow(n, used=True)
    assert sorted(cache) == [1, 2, 3]
    cache.enforce()
    assert 2 not in cache and cache.total_bytes <= cache.budget_bytes
    # ... then, among used rows, the cheapest recompute per byte
    # (early-stopped rows re-settle only their frontier)...
    cache.clear()
    cache[1] = _FakeRow(n, used=True, settled_count=5)   # cheap rebuild
    cache[3] = _FakeRow(n, used=True, full=False, settled_count=5)
    cache[3].full = False
    cache[1].full = False
    cache[4] = _FakeRow(n, used=True)                    # full: costly
    cache[4].full = True
    cache.enforce()
    assert 4 in cache
    # ... and least-recently-served breaks exact ties.
    cache.clear()
    cache[5] = _FakeRow(n, used=True)
    cache[6] = _FakeRow(n, used=True)
    cache.get(5)  # 6 is now the least recently served
    cache.enforce()
    assert 5 in cache and 6 not in cache


def test_enforce_respects_protection_and_counts_overshoot():
    n = 50
    cache = RowCache(budget_bytes=row_nbytes(n))
    cache[1] = _FakeRow(n)
    cache[2] = _FakeRow(n)
    assert cache.enforce(protect=(1, 2)) == 0
    assert cache.overshoots == 1 and len(cache) == 2
    assert cache.enforce() == 1
    assert cache.total_bytes <= cache.budget_bytes
    assert cache.overshoots == 1


def test_retention_order_reverses_eviction_order():
    n = 30
    cache = RowCache(budget_bytes=10 ** 9)
    cache[1] = _FakeRow(n, used=False)
    cache[2] = _FakeRow(n, used=True)
    cache[3] = _FakeRow(n, used=True)
    cache.get(3)
    order = cache.retention_order()
    assert order == [3, 2, 1]  # recently served first, unused last
    assert order == sorted(cache, key=cache._evict_key, reverse=True)


def test_would_fit():
    n = 20
    cache = RowCache(budget_bytes=2 * row_nbytes(n))
    row = _FakeRow(n)
    assert cache.would_fit(row)
    cache[1] = _FakeRow(n)
    cache[2] = _FakeRow(n)
    assert not cache.would_fit(row)
    assert RowCache().would_fit(row)  # unbounded always fits


def test_stats_shape():
    cache = RowCache(budget_bytes=12345)
    stats = cache.stats()
    for key in ("rows", "budget_bytes", "total_bytes", "peak_bytes",
                "hits", "misses", "evictions", "idle_evictions",
                "budget_evictions", "repair_evictions", "overshoots"):
        assert key in stats
    assert stats["budget_bytes"] == 12345


# ----------------------------------------------------------------------
# oracle integration: budgeted == unbounded, bytes bounded
# ----------------------------------------------------------------------
def _random_graph(rng, num_nodes=40, edge_probability=0.15):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


def _per_row_bytes(graph):
    """Accounted bytes of one cached row of ``graph`` (probe oracle)."""
    probe = FrozenOracle(graph, patchable=True)
    probe.distances_from(0)
    stats = probe.cache_snapshot()
    assert stats["rows"] >= 1
    return stats["total_bytes"] // stats["rows"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budgeted_oracle_matches_unbounded_across_patches(seed):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    nodes = sorted(graph.nodes())
    budget = 4 * _per_row_bytes(graph)
    reference = FrozenOracle(graph.copy(), patchable=True)
    budgeted = FrozenOracle(graph, patchable=True, row_budget_bytes=budget)
    assert budgeted.row_budget_bytes == budget

    for _ in range(6):
        # Query more source rows than the budget holds, forcing
        # evictions; every row (including recomputes of evicted rows)
        # must be bit-identical to the unbounded oracle's.  Cross-row
        # ``distance(u, v)`` is deliberately not compared here: the
        # undirected-symmetry contract lets residency pick the serving
        # direction, and opposite directions may differ in the last ulp
        # on either oracle.
        for s in rng.sample(nodes, 8):
            assert budgeted.distances_from(s) == reference.distances_from(s)
        stats = budgeted.cache_snapshot()
        assert stats["total_bytes"] <= budget
        # Randomized edge-cost churn, both directions.
        changed = {}
        for u, v, cost in rng.sample(list(graph.edges()), 5):
            changed[(u, v)] = cost * rng.uniform(0.3, 2.5)
        budgeted.patch_edge_costs(changed)
        reference.patch_edge_costs(changed)
        assert budgeted.cache_snapshot()["total_bytes"] <= budget

    stats = budgeted.cache_snapshot()
    assert stats["budget_evictions"] > 0
    assert stats["overshoots"] == 0
    # Evicted rows recompute to identical full rows: cross-check a
    # fresh dict oracle over the final costs.
    fresh = DistanceOracle(graph)
    for s in nodes[:6]:
        row = budgeted.distances_from(s)
        expect = fresh.distances_from(s)
        assert all(
            row.get(t, float("inf")) == expect.get(t, float("inf"))
            for t in nodes
        )


def test_unbounded_default_is_plain_dict_behavior():
    rng = random.Random(3)
    graph = _random_graph(rng)
    oracle = FrozenOracle(graph, patchable=True)
    assert oracle.row_budget_bytes is None
    for s in range(10):
        oracle.distances_from(s)
    stats = oracle.cache_snapshot()
    assert stats["budget_evictions"] == 0 and stats["overshoots"] == 0
    assert stats["rows"] == len(oracle._rows)
    assert "tree_index_bytes" in stats


def test_rebased_clone_inherits_and_respects_budget():
    rng = random.Random(4)
    graph = _random_graph(rng)
    budget = 3 * _per_row_bytes(graph)
    oracle = FrozenOracle(graph, patchable=True, row_budget_bytes=budget)
    for s in range(8):
        oracle.distances_from(s)
    changed = {}
    for u, v, cost in rng.sample(list(graph.edges()), 4):
        changed[(u, v)] = cost * 1.7
    clone = oracle.rebased(graph.copy(), changed)
    assert clone.row_budget_bytes == budget
    assert clone.cache_snapshot()["total_bytes"] <= budget
    # The clone answers over the patched costs, same as a fresh oracle.
    patched = graph.copy()
    for (u, v), cost in changed.items():
        patched.add_edge(u, v, cost)
    fresh = DistanceOracle(patched)
    for s in range(8):
        row = clone.distances_from(s)
        expect = fresh.distances_from(s)
        assert all(
            row.get(t, float("inf")) == expect.get(t, float("inf"))
            for t in sorted(graph.nodes())
        )


def test_rebased_unbounded_still_copies_every_row():
    rng = random.Random(5)
    graph = _random_graph(rng)
    oracle = FrozenOracle(graph, patchable=True)
    for s in range(6):
        oracle.distances_from(s)
    before = len(oracle._rows)
    clone = oracle.rebased(graph.copy(), {})
    assert len(clone._rows) == before


# ----------------------------------------------------------------------
# simulator integration: budgeted churn/failure streams are equivalent
# ----------------------------------------------------------------------
def _simulator_budget(network, rows):
    """A budget of ``rows`` rows of the simulator's (VM-attached) graph."""
    sim = OnlineSimulator(network, vms_per_datacenter=2)
    sim.apply_background_load((), 0.0)  # warm the VM-pool rows
    stats = sim.cache_snapshot()
    return rows * (stats["total_bytes"] // stats["rows"])


def _churn_schedule(network, seed, failures=False):
    generator = RequestGenerator(network, seed=seed,
                                 destinations_range=(3, 4),
                                 sources_range=(2, 2))
    process = PoissonArrivals(generator, rate=0.8, seed=seed + 1)
    holding = ExponentialHolding(mean=3.0, seed=seed + 2)
    links = sorted(((u, v) for u, v, _ in network.graph.edges()),
                   key=repr)
    kwargs = {}
    if failures:
        picked = random.Random(seed + 3).sample(links, 6)
        kwargs["failures"] = LinkFailureProcess(
            picked, mtbf=8.0, mttr=1.0, seed=seed + 4
        )
    else:
        kwargs["background"] = BackgroundChurn(
            period=2.0,
            link_batches=(tuple(links[:6]), tuple(links[6:12])),
            demand_mbps=2.0,
        )
    return build_schedule(process, horizon=12.0, holding=holding, **kwargs)


@pytest.mark.parametrize("failures", [False, True])
@pytest.mark.parametrize("seed", [11, 23])
def test_budgeted_simulator_stream_is_equivalent(seed, failures):
    # The budget must cover the VM pool plus the stream's per-request
    # working set: below that, evicting a row flips the serving
    # *direction* of later symmetric queries, whose last-ulp rounding
    # differences legitimately change equal-cost tie-breaks (the oracle
    # only contracts d(u,v) == d(v,u) up to symmetrisation).  These
    # margins are the smallest per-stream values that still evict.
    rows = 38 if (seed, failures) == (11, False) else 34
    budget = _simulator_budget(softlayer_network(seed=seed), rows=rows)
    results = {}
    for name, kwargs in (("unbounded", {}),
                         ("budgeted", {"row_budget_bytes": budget})):
        network = softlayer_network(seed=seed)
        schedule = _churn_schedule(network, seed, failures=failures)
        simulator = OnlineSimulator(network, vms_per_datacenter=2, **kwargs)
        engine = WorkloadEngine(simulator, SOFDA, name=name)
        results[name] = engine.run(schedule)
    unbounded, budgeted = results["unbounded"], results["budgeted"]
    # Identical embedding costs (exact ==, not approx) and decisions.
    assert budgeted.per_request_cost == unbounded.per_request_cost
    assert (budgeted.accepted, budgeted.rejected, budgeted.departures) \
        == (unbounded.accepted, unbounded.rejected, unbounded.departures)
    if failures:
        assert (budgeted.rerouted, budgeted.disrupted) \
            == (unbounded.rerouted, unbounded.disrupted)
    stats = budgeted.cache_stats
    assert stats is not None
    assert stats["budget_bytes"] == budget
    assert stats["total_bytes"] <= budget
    assert stats["overshoots"] == 0
    assert stats["budget_evictions"] > 0  # the budget actually bound
    assert unbounded.cache_stats["budget_bytes"] is None
    assert unbounded.cache_stats["budget_evictions"] == 0


# ----------------------------------------------------------------------
# distributed integration: per-domain controllers honour the budget
# ----------------------------------------------------------------------
def test_budgeted_controller_matches_unbounded():
    from repro import ServiceChain
    from repro.distributed import Controller, partition_domains

    instance = softlayer_network(seed=2).make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=5,
    )
    domains = partition_domains(instance.graph, 3, seed=1)
    domain = max(domains, key=len)
    plain = Controller.for_domain(0, domain, instance.graph)
    reference = plain.border_matrix()
    # Room for two rows: the border matrix needs one row per border
    # router, so the budget forces evictions mid-build.
    budget = 2 * row_nbytes(len(domain), settled=True)
    tight = Controller.for_domain(0, domain, instance.graph,
                                  row_budget_bytes=budget)
    assert tight.border_matrix() == reference
    stats = tight.cache_snapshot()
    assert stats["budget_bytes"] == budget
    assert stats["total_bytes"] <= budget
    assert stats["overshoots"] == 0
    assert plain.cache_snapshot()["budget_bytes"] is None
