"""Label rows: golden row state, offset solve and batched queries.

Every cached oracle row stores its labels in a ``float64``/``int64``
arena slot (earlier, ``array('d')``/``array('q')`` buffers).  Plain-list
rows were the historical reference representation; their full row
state was recorded as sha256 digests (the ``_row_states`` snapshot after
every patch, then the final query counters) for fixed randomized op
streams, and every later row layout must reproduce those digests bit
for bit.  Each stream also ends exact against a cold rebuild.

The single-boundary offset solve (summation-stable shared regions) and
the batched query entry points (``distances_to``, ``detour_distances``)
are audited against the per-row repair and per-query serving they stand
in for.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.graph import FrozenOracle, Graph
from repro.graph import indexed

INF = float("inf")

#: List-row reference digests (see :func:`_digest`), three trials each,
#: for ``test_vectorized_matches_list_rows[direction-patchable]``.
LIST_ROW_DIGESTS = {
    ("up", False): (
        "3b76367d46965ee19d54fbd18a16d831367a5377879c7136c68ab48ace7ae6f3",
        "d32d20b21e4d46b1a222fdb54f5d6ef4cd183a6de37d8b2910daff27f50a0826",
        "55169896304414c5e94e49525491b11ad8b866372f55065f3b6e4816ecc55678",
    ),
    ("mixed", False): (
        "2ee420285c84e97698ad5a8dffe3a245cf083b35973130fc5ae7f33ce366aaa2",
        "0815f69c96a19aec4e9fbddc67899e55e066fca7ce4cfe1579f2f794e8953a04",
        "18a6cb6bef00aa2591bfbbb66f15b4e849e4b668d04c0ff61ff8a9143a95a1ba",
    ),
    ("up", True): (
        "91657e5dfca142da56ea0821abf1ce5a4d38caac28960d540a457ccc31068cca",
        "02aed7454b465209b5a3f30c362ee7ddb1a4ffc42d04495f3b1412bdeef5caa3",
        "adae83f7bbeb455bb1cc3407d6a21ca6316248939be5eec032d3456cc8cfd662",
    ),
    ("mixed", True): (
        "dcc4bdfad96abf7c3d1b65c4a69c1bf2ca640875fa6a38f77b85228fb9004aa0",
        "55aac5228af5d4604f1406face9b0e6d94fb80f65bfc926833bce12cb5b047ce",
        "467f321c2fd0165c622c1c53c324a97b806337314a036297d6de59beed580046",
    ),
}

#: List-row reference digests of the forced-sharing streams of
#: ``test_vectorized_matches_with_shared_regions[direction]``.
SHARED_REGION_DIGESTS = {
    "up": (
        "3b76367d46965ee19d54fbd18a16d831367a5377879c7136c68ab48ace7ae6f3",
        "170956bd14b2d2b0a634cb6314da0382db42d4b7bafa1e721f8612ba2aa37385",
        "946ca9384393e0fd2faaf48be32e7a9786638860f41afaea6b0eda03a21bf1ae",
    ),
    "mixed": (
        "2ee420285c84e97698ad5a8dffe3a245cf083b35973130fc5ae7f33ce366aaa2",
        "62756d3f77b2c07c732e7d463ba1b4678676cd61858bf1f02c0a6657d32d0850",
        "a1ec2fb372c656f12e99754b517b16c36b272f99db958c6a7263efa8e3bc6866",
    ),
}


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
    """One randomized op stream (built once, replayed into both oracles)."""
    nodes = list(graph.nodes())
    cost_now = {(u, v): cost for u, v, cost in graph.edges()}
    edges = list(cost_now)
    hot_rows = rng.sample(nodes, working)
    ops = []
    for _ in range(rounds):
        for _ in range(queries):
            ops.append(("distance", rng.choice(nodes), rng.choice(nodes)))
        for node in hot_rows:
            ops.append(("distance", node, rng.choice(nodes)))
        if rng.random() < 0.3:
            ops.append(("full", rng.choice(nodes)))
        if rng.random() < 0.5:
            ops.append(("prefetch", rng.sample(nodes, rng.randint(2, 8))))
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


def _topology_stream(rng, graph, rounds):
    """Cost patches interleaved with link failures and recoveries."""
    nodes = list(graph.nodes())
    cost_now = {(u, v): cost for u, v, cost in graph.edges()}
    failed = []
    ops = []
    for _ in range(rounds):
        for _ in range(8):
            ops.append(("distance", rng.choice(nodes), rng.choice(nodes)))
        live = [e for e in cost_now if e not in failed]
        if failed and rng.random() < 0.5:
            edge = failed.pop(rng.randrange(len(failed)))
            ops.append(("insert", edge, cost_now[edge]))
        elif len(live) > 4:
            edge = live[rng.randrange(len(live))]
            failed.append(edge)
            ops.append(("remove", edge))
        changed = {}
        for key in rng.sample(live, min(3, len(live))):
            if key in failed:
                continue
            cost_now[key] = cost_now[key] * rng.uniform(1.05, 2.0)
            changed[key] = cost_now[key]
        if changed:
            ops.append(("patch", changed))
    return ops


def _row_states(oracle):
    """Full observable repair state of every cached row."""
    return {
        sid: (
            list(row.dist),
            list(row.parent),
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
        elif op[0] == "prefetch":
            oracle.prefetch_rows(op[1])
        elif op[0] == "remove":
            oracle.patch_topology(removed=[op[1]])
            snapshots.append(_row_states(oracle))
        elif op[0] == "insert":
            oracle.patch_topology(inserted={op[1]: op[2]})
            snapshots.append(_row_states(oracle))
        else:
            oracle.patch_edge_costs(op[1])
            snapshots.append(_row_states(oracle))
    return snapshots


def _digest(snapshots, queries):
    """sha256 over per-patch row states (by source id) and query counts."""
    h = hashlib.sha256()
    for snap in snapshots:
        h.update(repr(sorted(snap.items())).encode())
    h.update(repr(sorted(queries.items())).encode())
    return h.hexdigest()


def _final_check(rng, oracle, graph, hot):
    """The oracle ends exact against a cold rebuild."""
    fresh = FrozenOracle(oracle.graph.copy(), hot=hot)
    for source in rng.sample(list(graph.nodes()), 6):
        assert oracle.distances_from(source) == fresh.distances_from(source)


# ----------------------------------------------------------------------
# golden row state
# ----------------------------------------------------------------------

@pytest.mark.parametrize("patchable", [False, True])
@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_vectorized_matches_list_rows(direction, patchable):
    """Randomized streams: the row state after every patch and the final
    query counters (which drive the root-choice heuristics) match the
    recorded list-row reference bit for bit."""
    for trial in range(3):
        rng = random.Random(4100 * trial + (direction == "up") + 2 * patchable)
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        oracle = FrozenOracle(graph.copy(), hot=hot, patchable=patchable)
        snapshots = _replay(oracle, ops)
        assert _digest(snapshots, oracle._queries) == \
            LIST_ROW_DIGESTS[direction, patchable][trial]
        _final_check(rng, oracle, graph, hot)


@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_vectorized_matches_with_shared_regions(direction, monkeypatch):
    """Forced region sharing: the whole-array seed/reset/settle scans and
    the single-boundary offset solve reproduce the recorded list-row
    reference and the per-row (``planner=False``) repair."""
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    for trial in range(3):
        rng = random.Random(5200 * trial + (direction == "up"))
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        shared = FrozenOracle(graph.copy(), hot=hot, share_regions=True)
        legacy = FrozenOracle(graph.copy(), hot=hot, planner=False)
        snapshots = _replay(shared, ops)
        assert _digest(snapshots, shared._queries) == \
            SHARED_REGION_DIGESTS[direction][trial]
        assert snapshots == _replay(legacy, ops)
        _final_check(rng, shared, graph, hot)


# ----------------------------------------------------------------------
# single-boundary offset solve
# ----------------------------------------------------------------------

def test_offset_solve_single_boundary_pod(monkeypatch):
    """A bridge-detached pod region repairs through the offset solve.

    Star-of-trees behind a single uplink (the ``test_patch_planner``
    amortisation topology): every row rooted outside the pod detaches
    the same single-boundary region when the uplink cost grows, so those
    repairs must route through ``_SharedRegion.apply_offset``, count as
    ``oracle.repair.rows{path=offset}``, and still match the per-row
    reference bit for bit.
    """
    from repro.obs import Recorder

    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    applied = []
    orig = indexed._SharedRegion.apply_offset

    def counting(self, *args, **kwargs):
        result = orig(self, *args, **kwargs)
        applied.append(result)
        return result

    monkeypatch.setattr(indexed._SharedRegion, "apply_offset", counting)
    edges = [
        ("hub", "s0", 1.0), ("hub", "s1", 1.2), ("hub", "s2", 1.4),
        ("hub", "p0", 1.0), ("p0", "p1", 1.1), ("p1", "p2", 1.2),
        ("p0", "q0", 0.5), ("p1", "q1", 0.5), ("p2", "q2", 0.5),
    ]
    rows = ("hub", "s0", "s1", "s2", "p0", "p1", "q2")
    recorder = Recorder()
    shared = FrozenOracle(Graph.from_edges(edges), metrics=recorder)
    legacy = FrozenOracle(Graph.from_edges(edges), planner=False)
    for oracle in (shared, legacy):
        for node in rows:
            oracle.distances_from(node)
        oracle.patch_edge_costs({("hub", "p0"): 3.0})
    assert applied and any(applied), "offset solve never engaged"
    counters = recorder.snapshot()["counters"]
    # The uplink is a bridge: rows rooted outside the pod detach the
    # pod, rows inside it detach the hub side, and every one of them
    # repairs its single-boundary region by offset alone.
    assert counters.get("oracle.repair.rows{path=offset}") == len(rows)
    assert "oracle.repair.rows{path=shared}" not in counters
    assert _row_states(shared) == _row_states(legacy)
    fresh = FrozenOracle(shared.graph.copy())
    for node in rows:
        assert shared.distances_from(node) == fresh.distances_from(node)


def test_offset_solve_unreachable_region():
    """Offset path handles a region whose lone boundary seed is dead.

    After the uplink fails entirely the pod is unreachable from outside
    rows; a later cost patch inside the pod must keep outside rows at
    ``inf`` through the offset path's reset-only branch.
    """
    edges = [
        ("hub", "s0", 1.0),
        ("hub", "p0", 1.0), ("p0", "p1", 1.1), ("p0", "q0", 0.5),
    ]
    shared = FrozenOracle(Graph.from_edges(edges))
    legacy = FrozenOracle(Graph.from_edges(edges), planner=False)
    for oracle in (shared, legacy):
        for node in ("hub", "s0", "p0"):
            oracle.distances_from(node)
        oracle.patch_topology(removed=[("hub", "p0")])
        oracle.patch_edge_costs({("p0", "p1"): 4.0})
        assert oracle.distance("hub", "p1") == INF
    assert _row_states(shared) == _row_states(legacy)


def test_vectorized_rows_store_arrays():
    """Cached rows serve plain Python numbers from scalar reads (no numpy
    scalar boxes), and ``_f8``/``_i8`` wrap the same labels zero-copy,
    whatever buffer type holds them."""
    rng = random.Random(7)
    graph = random_graph(rng)
    oracle = FrozenOracle(graph.copy())
    oracle.distances_from(0)
    row = next(iter(oracle._rows.values()))
    assert type(row.dist[0]) is float and type(row.parent[0]) is int
    dview = indexed._f8(row.dist)
    pview = indexed._i8(row.parent)
    assert dview.dtype == np.float64 and pview.dtype == np.int64
    assert dview.tolist() == list(row.dist)
    assert pview.tolist() == list(row.parent)
    node = len(dview) - 1
    dview[node] += 1.0  # a write through the view is a write to the row
    assert row.dist[node] == dview[node]


# ----------------------------------------------------------------------
# batched query entry points
# ----------------------------------------------------------------------

@pytest.mark.parametrize("patchable", [False, True])
def test_distances_to_matches_scalar(patchable):
    """``distances_to`` returns scalar-loop values AND scalar-loop side
    effects (query counters, cached row set) in every cache state, on
    early-stopped and on exhaustive rows."""
    for trial in range(3):
        rng = random.Random(610 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        hot = rng.sample(nodes, 5)
        batched = FrozenOracle(graph.copy(), hot=hot, patchable=patchable)
        scalar = FrozenOracle(graph.copy(), hot=hot, patchable=patchable)
        for _ in range(30):
            source = rng.choice(nodes)
            targets = rng.sample(nodes, rng.randint(1, 10))
            if rng.random() < 0.3:
                targets.append(("ghost", rng.randint(0, 5)))  # not in graph
                rng.shuffle(targets)
            got = batched.distances_to(source, targets)
            want = [scalar.distance(source, t) for t in targets]
            assert got == want
            if rng.random() < 0.3:
                node = rng.choice(nodes)
                batched.prefetch_rows([node])
                scalar.warm([node])
        assert batched._queries == scalar._queries
        assert _row_states(batched) == _row_states(scalar)


def test_detour_distances_matches_scalar():
    """``detour_distances`` either answers with scalar values + scalar
    side effects, or returns ``None`` leaving the oracle untouched."""
    for trial in range(3):
        rng = random.Random(910 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        batched = FrozenOracle(graph.copy())
        scalar = FrozenOracle(graph.copy())
        answered = 0
        for round_index in range(30):
            a, b = rng.sample(nodes, 2)
            targets = rng.sample(nodes, rng.randint(1, 8))
            if rng.random() < 0.2:
                targets.append(("ghost", rng.randint(0, 5)))
                rng.shuffle(targets)
            before_queries = dict(batched._queries)
            before_rows = _row_states(batched)
            got = batched.detour_distances(a, b, targets)
            if got is None:
                # Refusal must be side-effect free.
                assert batched._queries == before_queries
                assert _row_states(batched) == before_rows
                for m in targets:  # keep both caches in lockstep
                    batched.distance(a, m)
                    batched.distance(b, m)
            else:
                answered += 1
                da, db = got
                assert da == [scalar.distance(a, m) for m in targets]
                assert db == [scalar.distance(b, m) for m in targets]
                continue  # scalar side already queried below
            for m in targets:
                scalar.distance(a, m)
                scalar.distance(b, m)
            if rng.random() < 0.4:
                pair = rng.sample(nodes, 2)
                batched.prefetch_rows(pair)
                scalar.prefetch_rows(pair)
            assert batched._queries == scalar._queries
        # Warm both endpoint rows explicitly: the fast path must engage.
        a, b = rng.sample(nodes, 2)
        batched.prefetch_rows([a, b])
        scalar.prefetch_rows([a, b])
        got = batched.detour_distances(a, b, nodes)
        assert got is not None
        da, db = got
        assert da == [scalar.distance(a, m) for m in nodes]
        assert db == [scalar.distance(b, m) for m in nodes]
        assert batched._queries == scalar._queries


# ----------------------------------------------------------------------
# cross-layer: clones and simulator churn
# ----------------------------------------------------------------------

def test_rebased_clone_copies_array_rows():
    """A rebased clone starts from copies: its rows share no memory with
    the source's, and patching the clone leaves the source untouched."""
    rng = random.Random(3)
    graph = random_graph(rng)
    oracle = FrozenOracle(graph)
    oracle.distances_from(0)
    oracle.distances_from(5)
    clone = oracle.rebased(graph.copy(), {})
    before = _row_states(oracle)
    assert _row_states(clone) == before
    for sid, row in clone._rows.items():
        source_row = oracle._rows[sid]
        assert not np.shares_memory(indexed._f8(row.dist),
                                    indexed._f8(source_row.dist))
        assert not np.shares_memory(indexed._i8(row.parent),
                                    indexed._i8(source_row.parent))
    # Re-price a tree edge of row 0: the clone repairs, the source not.
    row = oracle._rows[oracle.core.index[0]]
    nodes = oracle.core.nodes
    child = next(v for v in range(len(row.parent)) if row.parent[v] >= 0)
    u, v = nodes[row.parent[child]], nodes[child]
    clone.patch_edge_costs({(u, v): clone.graph.cost(u, v) * 3.0})
    assert _row_states(clone) != before
    assert _row_states(oracle) == before


#: Per-request SOFDA costs of the churn run below, recorded on list rows.
LIST_ROW_CHURN_COSTS = [
    0.09999999999999999, 15.089999999999998, 0.09999999999999999,
    10.129999999999999, 20.090000000000003, 15.159999999999998, 35.11,
    85.08000000000003,
]


def test_simulator_churn_matches_list_row_costs():
    """An online churn run embeds every request at the exact cost, and
    with the exact acceptance decisions, recorded on list rows."""
    from repro.core.sofda import sofda
    from repro.online import RequestGenerator, run_online_comparison
    from repro.topology import softlayer_network

    network = softlayer_network(seed=3)
    requests = RequestGenerator(
        network, seed=5, destinations_range=(3, 4), sources_range=(2, 2),
        chain_length=2,
    ).take(8)
    embedders = {"SOFDA": lambda inst: sofda(inst).forest}
    result = run_online_comparison(
        lambda: network, embedders, requests, vms_per_datacenter=2
    )["SOFDA"]
    assert result.per_request_cost == LIST_ROW_CHURN_COSTS
    assert result.rejected == 0
