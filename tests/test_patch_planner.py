"""Planner-vs-per-row equivalence for the patch repair engine.

The cross-row patch planner (``FrozenOracle(planner=True)``, the default)
must be *bit-identical* to the historical per-row rescan repair kept
behind ``planner=False``: same surviving row set, same distances, same
parent trees, same settle flags and demotions, same stale marks -- after
every patch of a stream, not just at the end.  These tests replay
identical randomized query+patch streams into a planner oracle and a
per-row oracle over copies of the same graph and compare full row state
after each patch.

The same contract extends to dense-patch region sharing
(``share_regions=True``, the default): with the sharing thresholds
forced to zero, every planned patch repairs through shared
:class:`_SharedRegion` groups, and the resulting row state must still be
bit-identical to both the unshared planned path and the per-row
reference.

The settle-cutoff demotion boundary is audited here too: a repaired
label landing *exactly* on ``row.cutoff`` is provably exact and must
stay settled, while one strictly above may route through never-settled
territory and must be demoted (the test includes a case where serving
the unsettled label would be wrong).
"""

import random

import pytest

from repro.core.problem import ServiceChain
from repro.graph import FrozenOracle, Graph
from repro.graph import indexed
from repro.topology import inet_network

INF = float("inf")


def random_graph(rng, num_nodes=36, edge_probability=0.15):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


def _patch_stream(rng, graph, rounds, direction, working=5, queries=10):
    """One randomized op stream (built once, replayed into both oracles).

    Patches are drawn against a simulated running cost state, so an "up"
    stream stays a strict per-edge increase even when the same edge is
    drawn twice -- the planned repair path only engages on pure-increase
    batches.
    """
    nodes = list(graph.nodes())
    cost_now = {(u, v): cost for u, v, cost in graph.edges()}
    edges = list(cost_now)
    hot_rows = rng.sample(nodes, working)
    ops = []
    for _ in range(rounds):
        for _ in range(queries):
            ops.append(("distance", rng.choice(nodes), rng.choice(nodes)))
        # A persistent working set: rows that survive many patches in a
        # row exercise repeated in-place repair (and index maintenance).
        for node in hot_rows:
            ops.append(("distance", node, rng.choice(nodes)))
        if rng.random() < 0.3:
            ops.append(("full", rng.choice(nodes)))
        changed = {}
        for key in rng.sample(edges, rng.randint(1, 6)):
            if direction == "up":
                factor = rng.uniform(1.05, 2.5)
            else:
                factor = rng.uniform(0.3, 2.5)
            cost_now[key] = cost_now[key] * factor
            changed[key] = cost_now[key]
        ops.append(("patch", changed))
    return ops


def _row_states(oracle):
    """Full observable repair state of every cached row."""
    return {
        sid: (
            row.dist,
            row.parent,
            None if row.settled is None else bytes(row.settled),
            row.full,
            row.stale,
            row.cutoff,
        )
        for sid, row in oracle._rows.items()
    }


def _replay(oracle, ops):
    """Apply one op stream; returns the row-state snapshot per patch."""
    snapshots = []
    for op in ops:
        if op[0] == "distance":
            oracle.distance(op[1], op[2])
        elif op[0] == "full":
            oracle.distances_from(op[1])
        else:
            oracle.patch_edge_costs(op[1])
            snapshots.append(_row_states(oracle))
    return snapshots


@pytest.mark.parametrize("patchable", [False, True])
@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_planner_matches_per_row_repair(direction, patchable):
    """Randomized patch streams: bit-identical row state after every patch.

    ``up`` streams run the planned repair path on every patch; ``mixed``
    streams interleave it with the decrease fallback.  ``patchable=True``
    is the online simulator's configuration (exhaustive rows, no
    demotions); ``patchable=False`` exercises early-stopped rows with
    settle-cutoff demotions and stale-row recomputes.
    """
    for trial in range(4):
        rng = random.Random(100 * trial + (direction == "up") + 2 * patchable)
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        planned = FrozenOracle(
            graph.copy(), hot=hot, patchable=patchable, planner=True
        )
        legacy = FrozenOracle(
            graph.copy(), hot=hot, patchable=patchable, planner=False
        )
        assert _replay(planned, ops) == _replay(legacy, ops)
        # Both end exact: spot-check against a cold oracle per final cost.
        fresh = FrozenOracle(planned.graph.copy(), hot=hot)
        for source in rng.sample(list(graph.nodes()), 6):
            expected = fresh.distances_from(source)
            assert planned.distances_from(source) == expected
            assert legacy.distances_from(source) == expected


@pytest.mark.parametrize("patchable", [False, True])
@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_shared_matches_unshared_and_per_row(direction, patchable, monkeypatch):
    """Forced region sharing: bit-identical across all three repair modes.

    With the sharing thresholds forced to zero every detached root of a
    pure-increase patch goes through a shared-region group, so the
    randomized streams exercise region verification, variant founding,
    union repairs (rows with several detached roots) and the walk
    fallback for rows whose regions fragment -- all of which must leave
    row state identical to the unshared planned path and the per-row
    reference after every patch.
    """
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    for trial in range(4):
        rng = random.Random(300 * trial + (direction == "up") + 2 * patchable)
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        shared = FrozenOracle(
            graph.copy(), hot=hot, patchable=patchable,
            planner=True, share_regions=True,
        )
        unshared = FrozenOracle(
            graph.copy(), hot=hot, patchable=patchable,
            planner=True, share_regions=False,
        )
        legacy = FrozenOracle(
            graph.copy(), hot=hot, patchable=patchable, planner=False
        )
        shared_snaps = _replay(shared, ops)
        assert shared_snaps == _replay(unshared, ops)
        assert shared_snaps == _replay(legacy, ops)
        fresh = FrozenOracle(shared.graph.copy(), hot=hot)
        for source in rng.sample(list(graph.nodes()), 6):
            expected = fresh.distances_from(source)
            assert shared.distances_from(source) == expected


def test_shared_regions_amortize_region_builds(monkeypatch):
    """One dense patch builds each detached region once, not once per row.

    A pod topology: every row rooted outside the pod detaches the same
    region when the pod's uplink cost grows, and the pod's own rows all
    detach the complement.  The patch must therefore build at most two
    shared regions (one per signature group) while repairing every row,
    and the repaired distances must match a cold oracle.
    """
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    builds = []
    real_region = indexed._SharedRegion

    class CountingRegion(real_region):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(indexed, "_SharedRegion", CountingRegion)
    # Star-of-trees: "hub" with three leaf spokes and a pod (chain of 3
    # with a leaf each) behind the single uplink hub-p0.  Trees have
    # unique shortest-path forests, so region signatures cannot
    # fragment across rows.
    graph = Graph.from_edges([
        ("hub", "s0", 1.0), ("hub", "s1", 1.2), ("hub", "s2", 1.4),
        ("hub", "p0", 1.0), ("p0", "p1", 1.1), ("p1", "p2", 1.2),
        ("p0", "q0", 0.5), ("p1", "q1", 0.5), ("p2", "q2", 0.5),
    ])
    oracle = FrozenOracle(graph, planner=True, share_regions=True)
    for node in ("hub", "s0", "s1", "s2", "p0", "p1", "q2"):
        oracle.distances_from(node)
    oracle.patch_edge_costs({("hub", "p0"): 3.0})
    # 4 outside rows share the pod region, 3 pod rows share the
    # complement: two groups, two builds, seven repairs.
    assert len(builds) == 2
    fresh = FrozenOracle(graph.copy())
    for node in ("hub", "s0", "s1", "s2", "p0", "p1", "q2"):
        assert oracle.distances_from(node) == fresh.distances_from(node)


def test_sparse_then_dense_patch_serves_exact_distances():
    """A patch touching one row, then one touching every row, stay exact."""
    graph = Graph.from_edges([
        ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("a", "d", 5.0),
        ("x", "y", 1.0),
    ])
    oracle = FrozenOracle(graph, planner=True)
    # Three full rows: a, b and x (x's component is isolated, so a patch
    # of x-y is a tree edge in only one of the three).
    assert oracle.distances_from("a")["c"] == 2.0
    assert oracle.distances_from("b")["d"] == 2.0
    assert oracle.distances_from("x")["y"] == 1.0
    oracle.patch_edge_costs({("x", "y"): 2.0})
    # Sparse patch (1 of 3 rows repaired).
    assert oracle.distance("x", "y") == 2.0
    assert oracle.distances_from("a")["c"] == 2.0  # untouched row, exact
    oracle.distances_from("b")
    oracle.patch_edge_costs({("b", "c"): 1.5})
    # Dense patch (b-c is a tree edge of both surviving component rows).
    assert oracle.distance("a", "c") == 2.5
    assert oracle.distance("a", "d") == 3.5
    assert oracle.distance("b", "d") == 2.5


@pytest.mark.parametrize("planner", [True, False])
def test_settle_cutoff_boundary_exact_landing(planner):
    """A repaired label exactly *on* the cutoff stays settled; one above
    is demoted -- and the demotion is load-bearing, not conservative.

    After the patch, x's repaired distance is exactly ``row.cutoff`` and
    provably exact (any path through never-settled territory costs at
    least the cutoff), so it must keep serving without a recompute.  h's
    repaired label (3.0) is only an upper bound: the true distance routes
    through the never-settled node y (2.6), so serving the label without
    demotion would be *wrong*, not merely stale.
    """
    graph = Graph.from_edges([
        ("s", "x", 1.0), ("x", "h", 1.0), ("s", "y", 2.5), ("y", "h", 0.1),
    ])
    oracle = FrozenOracle(graph, hot={"s", "h"}, planner=planner)
    assert oracle.distance("s", "h") == 2.0  # early-stops once h settles
    core = oracle.core
    sid, xid, hid = core.index["s"], core.index["x"], core.index["h"]
    row = oracle._rows[sid]
    assert not row.full  # the search stopped before exhausting y

    oracle.patch_edge_costs({("s", "x"): 2.0})
    assert row.cutoff == 2.0  # the original settle frontier (h's label)
    assert row.dist[xid] == row.cutoff  # repaired to exactly the boundary
    assert row.settled[xid] == 1  # on-the-cutoff stays settled
    assert row.settled[hid] == 0  # strictly above: demoted
    # x serves from the surviving row, no recompute.
    assert oracle.distance("s", "x") == 2.0
    assert oracle._rows[sid] is row
    # h recomputes as a cold miss and finds the y-route the repaired
    # label could not see.
    assert oracle.distance("s", "h") == pytest.approx(2.6, rel=0, abs=1e-12)
    fresh = FrozenOracle(graph.copy(), hot={"s", "h"})
    assert oracle.distance("s", "h") == fresh.distance("s", "h")


# ----------------------------------------------------------------------
# contracted mode
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def contracted_instance():
    network = inet_network(
        num_nodes=400, num_links=800, num_datacenters=120, seed=5
    )
    return network.make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=21,
    )


def test_planner_matches_per_row_contracted(contracted_instance, monkeypatch):
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    instance = contracted_instance
    hot = instance.vms | instance.sources | instance.destinations
    special = sorted(hot, key=repr)
    oracles = []
    for planner, share in ((True, True), (True, False), (False, False)):
        oracle = FrozenOracle(
            instance.graph.copy(), hot=hot, planner=planner,
            share_regions=share,
        )
        assert oracle.contracted is not None
        oracle.warm(special)
        oracles.append(oracle)
    shared, planned, legacy = oracles
    rng = random.Random(13)
    cost_now = {(u, v): c for u, v, c in planned.graph.edges()}
    edges = list(cost_now)
    for _ in range(4):
        changed = {}
        for key in rng.sample(edges, 10):
            cost_now[key] = cost_now[key] * rng.uniform(1.05, 2.5)
            changed[key] = cost_now[key]
        shared.patch_edge_costs(dict(changed))
        planned.patch_edge_costs(dict(changed))
        legacy.patch_edge_costs(dict(changed))
        assert _row_states(planned) == _row_states(legacy)
        assert _row_states(shared) == _row_states(planned)
        for source in special[:4]:
            expected = legacy.distances_from(source)
            assert planned.distances_from(source) == expected
            assert shared.distances_from(source) == expected


# ----------------------------------------------------------------------
# tenant churn: planner/share modes across decrease-carrying batches
# ----------------------------------------------------------------------
def _churn_costs(planner, share_regions, seed=23, requests=9):
    """One randomized arrive/depart stream through the online simulator.

    Lease releases make the next sync a decrease-carrying batch -- the
    case the planner routes to the per-row reference -- while arrival
    commits stay pure increases on the planned path, so one stream
    exercises the mode switch both ways.  The stream is a pure function
    of the seeds: every configuration replays the identical workload.
    """
    from repro import sofda
    from repro.online import OnlineSimulator, RequestGenerator
    from repro.topology import softlayer_network

    network = softlayer_network(seed=3)
    simulator = OnlineSimulator(network, incremental=True, planner=planner,
                                share_regions=share_regions)
    generator = RequestGenerator(network, seed=5, destinations_range=(3, 4),
                                 sources_range=(2, 2))
    rng = random.Random(seed)
    active, costs = [], []
    for _ in range(requests):
        request = generator.next_request()
        instance = simulator.current_instance(request)
        forest = sofda(instance).forest
        costs.append(forest.total_cost())
        active.append(simulator.commit(forest, request))
        while active and rng.random() < 0.45:
            simulator.release(active.pop(rng.randrange(len(active))))
    return costs


def test_churn_planner_modes_bit_identical(monkeypatch):
    """Arrive/depart streams must not depend on planner/share modes."""
    # Force region sharing to engage on the shared run even at this
    # small scale, so all three repair paths really differ.
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    shared = _churn_costs(planner=True, share_regions=True)
    planned = _churn_costs(planner=True, share_regions=False)
    per_row = _churn_costs(planner=False, share_regions=False)
    assert planned == per_row
    assert shared == planned
