"""Group offset repair against the per-row loop and the unshared planner.

A dense patch repairs each shared single-boundary region for all its
member rows in one whole-block pass (``FrozenOracle._patch_rows``).  It
must leave every cached row exactly as two references do, after every
patch of a stream:

- :class:`PerRowShared`, a test-side copy of the repair as it ran before
  group passes existed: route, match and repair one row at a time
  through ``_repair_row_shared``.  It must also count the same
  ``oracle.repair.rows{path}`` totals;
- ``share_regions=False``, the planner's per-row region walk.

The streams run on hub-and-pods graphs, where every pod hangs off the
hub by one uplink, so a re-priced uplink detaches the same region in
most rows.
"""

import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.graph import FrozenOracle, Graph
from repro.graph import indexed, rowcache
from repro.obs import Recorder


class PerRowShared(FrozenOracle):
    """Reference: the shared-region repair applied row by row."""

    def _patch_rows(self, adjacency, changes, plan=None):
        if plan is None:
            plan = indexed._PatchPlan(adjacency, changes)
        if plan.decreases or not plan.increases:
            return super()._patch_rows(adjacency, changes, plan)
        rows = self._rows
        roots_of, leafs_of = {}, {}
        for sid, row in rows.items():
            if not row.used:
                continue
            parent = row.parent
            for a, b, leaf in plan.classified:
                if parent[b] == a:
                    child, anchor = b, a
                elif parent[a] == b:
                    child, anchor = a, b
                else:
                    continue
                if child == leaf and row.full:
                    leafs_of.setdefault(sid, []).append((child, anchor))
                else:
                    roots_of.setdefault(sid, []).append(child)
        live = sum(1 for row in rows.values() if row.used)
        counts = Counter(
            c for roots in roots_of.values() for c in dict.fromkeys(roots)
        )
        threshold = max(indexed.PLANNER_SHARE_MIN_ROWS,
                        indexed.PLANNER_SHARE_DENSITY * live)
        groups = {c: [] for c, k in counts.items() if k >= threshold}
        union_cache = {}
        n = len(adjacency)
        for sid, row in list(rows.items()):
            if not row.used:
                rows.evict(sid, "idle")
                continue
            roots = roots_of.get(sid, [])
            leafs = leafs_of.get(sid, [])
            if roots or leafs:
                hits, walks = [], []
                at = np.array([row.slot])
                for c in dict.fromkeys(roots):
                    variants = groups.get(c)
                    if variants is None:
                        walks.append(c)
                        continue
                    for region in variants:
                        if region.match_rows(row.block.parent, at)[0]:
                            hits.append(region)
                            break
                    else:
                        if len(variants) < indexed._PLANNER_SHARE_MAX_VARIANTS:
                            region = indexed._SharedRegion(
                                adjacency, row.parent, c, n
                            )
                            variants.append(region)
                            hits.append(region)
                        else:
                            walks.append(c)
                if hits:
                    offset = indexed._repair_row_shared(
                        adjacency, row, hits, walks, leafs, union_cache
                    )
                    path = "offset" if offset else "shared"
                else:
                    indexed._repair_row_planned(adjacency, row, roots, leafs)
                    path = "planned"
                if self._metrics:
                    self._metrics.inc("oracle.repair.rows", path=path)
            row.stale = True
            row.used = False
        rows.enforce()


def pods_graph(rng, pods=5, dcs=14, cross=(), spread=False):
    """Hub, ``dcs`` leaf datacenters, and pods of two levels of two.

    Every pod hangs off the hub by its uplink ``(hub, (gw, i))`` and
    carries a degree-1 ``(tip, i)`` node.  ``cross`` adds links from a
    pod's deep node to a datacenter; ``spread`` draws datacenter link
    costs over nine orders of magnitude.
    """
    graph = Graph()
    for j in range(dcs):
        cost = 10.0 ** rng.uniform(0, 9) if spread else rng.uniform(0.5, 3.0)
        graph.add_edge("hub", ("dc", j), cost)
    for i in range(pods):
        graph.add_edge("hub", ("gw", i), rng.uniform(0.5, 1.5))
        previous = [("gw", i)]
        for k in range(2):
            level = [("pod", i, k, x) for x in range(2)]
            for node in level:
                for up in previous:
                    graph.add_edge(node, up, rng.uniform(0.5, 2.0))
            previous = level
        graph.add_edge(("tip", i), previous[0], rng.uniform(0.5, 2.0))
    for i, j in cross:
        graph.add_edge(("pod", i, 1, 0), ("dc", j), rng.uniform(0.3, 1.0))
    return graph


def _row_states(oracle):
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


def _repair_counts(recorder):
    return {key: value for key, value in recorder.snapshot()["counters"].items()
            if key.startswith("oracle.repair.rows")}


def _stream(rng, graph, rounds, pods, dcs, topology=False, mixed=False):
    """Patch batches: uplinks, plus leaf edges and tips in the same batch."""
    uplinks = [("hub", ("gw", i)) for i in range(pods)]
    dc_links = [("hub", ("dc", j)) for j in range(dcs)]
    cost = {canon(u, v): c for u, v, c in graph.edges()}
    failed = None
    ops = []
    for step in range(rounds):
        if topology and failed is None and step % 4 == 1:
            failed = rng.choice(uplinks)
            ops.append(("remove", failed))
            continue
        if topology and failed is not None and step % 4 == 3:
            ops.append(("insert", failed, cost[canon(*failed)]))
            failed = None
            continue
        batch = {}
        for link in rng.sample(uplinks, rng.randint(1, 3)):
            if link == failed:
                continue
            batch[link] = cost[canon(*link)] * rng.uniform(1.05, 1.6)
            if rng.random() < 0.4:
                tip = (("tip", link[1][1]), ("pod", link[1][1], 1, 0))
                batch[tip] = cost[canon(*tip)] * rng.uniform(1.05, 1.6)
        if rng.random() < 0.5:
            link = rng.choice(dc_links)
            batch[link] = cost[canon(*link)] * rng.uniform(1.05, 1.6)
        if mixed and rng.random() < 0.25:
            link = rng.choice(uplinks)
            if link != failed:
                batch[link] = cost[canon(*link)] * rng.uniform(0.5, 0.95)
        for (u, v), c in batch.items():
            cost[canon(u, v)] = c
        if batch:
            ops.append(("patch", batch))
    return ops


def canon(u, v):
    return (u, v) if repr(u) <= repr(v) else (v, u)


def _replay(oracles, ops, sources, queries, on_patch=None):
    for op in ops:
        for oracle in oracles:
            oracle.prefetch_rows(sources)
            for s, t in queries:
                oracle.distance(s, t)
        for oracle in oracles:
            if op[0] == "patch":
                oracle.patch_edge_costs(op[1])
            elif op[0] == "remove":
                oracle.patch_topology(removed=[op[1]])
            else:
                oracle.patch_topology(inserted={op[1]: op[2]})
        if on_patch is not None:
            on_patch()


def _run(monkeypatch, seed, *, patchable=True, cross=(), spread=False,
         topology=False, mixed=False, rows_per_block=None, rounds=12,
         after=None, graph=None, ops=None):
    """Replay one stream into the group oracle and both references.

    The stream runs on ``pods_graph`` unless ``graph`` and ``ops`` are
    given.  Returns the group oracle and its repair counters after every
    patch; ``after(group)`` runs after every patch's comparison.
    """
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    rng = random.Random(seed)
    pods, dcs = 5, 14
    if graph is None:
        graph = pods_graph(rng, pods=pods, dcs=dcs, cross=cross,
                           spread=spread)
    if rows_per_block is not None:
        monkeypatch.setattr(rowcache, "BLOCK_SLOTS",
                            rows_per_block * len(graph))
    nodes = sorted(graph.nodes(), key=repr)
    hot = [] if patchable else [("dc", 0), ("gw", 0)]
    sources = [node for node in nodes if node[0] == "dc"] + [("pod", 0, 0, 0)]
    queries = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(6)]
    if ops is None:
        ops = _stream(rng, graph, rounds, pods, dcs, topology=topology,
                      mixed=mixed)
    group_mx, per_row_mx = Recorder(), Recorder()
    group = FrozenOracle(graph.copy(), hot=hot, patchable=patchable,
                         metrics=group_mx)
    per_row = PerRowShared(graph.copy(), hot=hot, patchable=patchable,
                           metrics=per_row_mx)
    unshared = FrozenOracle(graph.copy(), hot=hot, patchable=patchable,
                            share_regions=False)
    seen = []

    def check():
        states = _row_states(group)
        assert states == _row_states(per_row)
        assert states == _row_states(unshared)
        assert _repair_counts(group_mx) == _repair_counts(per_row_mx)
        seen.append(_repair_counts(group_mx))
        if after is not None:
            after(group)

    _replay([group, per_row, unshared], ops, sources, queries, check)
    assert seen
    # Exact against an independent reference at the end.
    reference = nx.Graph()
    for u, v, c in group.graph.edges():
        reference.add_edge(u, v, weight=c)
    for source in sources[:4]:
        want = nx.single_source_dijkstra_path_length(reference, source)
        got = group.distances_from(source)
        assert got.keys() == want.keys()
        for node, d in want.items():
            assert got[node] == pytest.approx(d, rel=1e-12)
    return group, seen


def test_group_repair_matches_references(monkeypatch):
    group, seen = _run(monkeypatch, 1)
    assert seen[-1].get("oracle.repair.rows{path=offset}", 0) > 0


def test_several_variants_of_one_root(monkeypatch):
    """Cross links make one pod's detached region differ across rows."""
    founded = []
    original = indexed._SharedRegion.__init__

    def recording(self, adjacency, parent, root, n):
        original(self, adjacency, parent, root, n)
        founded.append(root)

    monkeypatch.setattr(indexed._SharedRegion, "__init__", recording)
    most = []

    def count_variants(oracle):
        # The group oracle and the per-row reference each found every
        # variant once per patch.
        most.append(max(Counter(founded).values(), default=0) // 2)
        founded.clear()

    _run(monkeypatch, 2, cross=((0, 0), (0, 5), (1, 3)), after=count_variants)
    assert max(most) >= 2


def test_unreachable_pod_and_recovery(monkeypatch):
    """Uplink failures leave pods unreachable, then reinsert them."""
    unreachable = []

    def note_unreachable(oracle):
        unreachable.append(any(
            np.isinf(indexed._f8(row.dist)).any()
            for row in oracle._rows.values()
        ))

    group, seen = _run(monkeypatch, 3, topology=True, rounds=16,
                       after=note_unreachable)
    assert any(unreachable) and not unreachable[-1]
    assert seen[-1].get("oracle.repair.rows{path=offset}", 0) > 0


def test_all_inf_seed_leaves_region_reset():
    """A row with no finite boundary seed keeps the region at INF/-1."""
    rng = random.Random(4)
    graph = pods_graph(rng, pods=2, dcs=4)
    oracle = FrozenOracle(graph)
    oracle.prefetch_rows([("dc", j) for j in range(4)])
    index = oracle.core.index
    row = oracle._rows[index[("dc", 0)]]
    adjacency = oracle.core._rows
    region = indexed._SharedRegion(
        adjacency, row.parent, index[("gw", 0)], len(adjacency)
    )
    assert region.solo_solve() is not None
    block = row.block
    slots = np.array(sorted({r.slot for r in oracle._rows.values()
                             if r.block is block}))
    dist = block.dist.copy()
    parent = block.parent.copy()
    dist[slots[1:], index["hub"]] = np.inf  # rows 1.. lose their seed
    best, src, ok = region.offset_seeds(dist, slots)
    assert ok.all()
    assert np.isinf(best[1:]).all() and np.isfinite(best[0])
    replayed = region.apply_offset(dist, parent, slots, best, src)
    assert replayed == 1
    columns = region.arrays()[4]
    assert np.isinf(dist[np.ix_(slots[1:], columns)]).all()
    assert (parent[np.ix_(slots[1:], columns)] == -1).all()
    # The seeded row replays to exactly its cold labels.
    assert dist[slots[0], columns].tolist() == \
        block.dist[slots[0], columns].tolist()
    assert parent[slots[0], columns].tolist() == \
        block.parent[slots[0], columns].tolist()


def test_drift_guard_refusal_falls_back_per_row(monkeypatch):
    """A huge drift allowance refuses the offset for far rows only."""
    monkeypatch.setattr(indexed, "_OFFSET_ULPS_BASE", 10 ** 12)
    group, seen = _run(monkeypatch, 5, spread=True)
    offset = "oracle.repair.rows{path=offset}"
    shared = "oracle.repair.rows{path=shared}"
    mixed = [
        after.get(offset, 0) > before.get(offset, 0)
        and after.get(shared, 0) > before.get(shared, 0)
        for before, after in zip([{}] + seen, seen)
    ]
    assert any(mixed)  # one patch grouped some rows and refused others


def test_leaf_jobs_and_decreases_in_the_stream(monkeypatch):
    """Datacenter leaf edges and pod tips ride with uplink batches, and
    some batches carry a decrease (the per-row reference repair)."""
    group, seen = _run(monkeypatch, 6, mixed=True, rounds=16)
    assert seen[-1].get("oracle.repair.rows{path=reference}", 0) > 0
    assert seen[-1].get("oracle.repair.rows{path=offset}", 0) > 0


def test_early_stopped_rows(monkeypatch):
    """Non-full rows repair row by row next to grouped full rows."""
    group, seen = _run(monkeypatch, 7, patchable=False)
    assert any(not row.full for row in group._rows.values())
    assert seen[-1].get("oracle.repair.rows{path=offset}", 0) > 0


def test_members_spread_over_blocks(monkeypatch):
    group, seen = _run(monkeypatch, 8, rows_per_block=3)
    assert len({row.block.index for row in group._rows.values()}) >= 5
    assert seen[-1].get("oracle.repair.rows{path=offset}", 0) > 0


def test_tied_seeds_keep_the_first_strict_minimum(monkeypatch):
    """Two boundary neighbours offer the same seed distance: the first in
    adjacency order wins, as in the heap path's seeding."""
    graph = Graph()
    for j in range(8):
        graph.add_edge("hub", ("dc", j), 0.25 * (j + 1))
    graph.add_edge("hub", "spine", 0.5)
    for i in range(3):
        gw = ("gw", i)
        graph.add_edge("hub", gw, 1.0)
        graph.add_edge("spine", gw, 1.0)
        graph.add_edge(gw, ("pod", i, 0, 0), 0.75)
        graph.add_edge(("pod", i, 0, 0), ("pod", i, 1, 0), 0.625)
    # Dyadic costs: hub + 1.5 and (hub + 0.5) + 1.0 tie exactly.
    ops = [("patch", {("hub", ("gw", i)): 1.5 for i in range(3)})]
    group, seen = _run(monkeypatch, 10, graph=graph, ops=ops)
    assert seen[-1].get("oracle.repair.rows{path=offset}", 0) > 0
    index = group.core.index
    row = group._rows[index[("dc", 0)]]
    assert row.parent[index[("gw", 0)]] == index["hub"]


def test_rerooted_region_then_reference_repair(monkeypatch):
    """A group repair that moves a row's tree, then a decrease batch.

    When an uplink fails, pod 0 re-roots at its cross link (its one
    boundary node is now the deep node), so the offset replay moves
    parents; the next decrease-carrying batch runs the per-row reference
    repair over the moved tree, whose increase walks start from it.
    """
    graph = Graph()
    for j in range(8):
        graph.add_edge("hub", ("dc", j), 1.0 + 0.1 * j)
    for i in range(3):
        gw, mid, deep = ("gw", i), ("pod", i, 0, 0), ("pod", i, 1, 0)
        graph.add_edge("hub", gw, 1.0 + 0.05 * i)
        graph.add_edge(gw, mid, 0.5)
        graph.add_edge(mid, deep, 0.7)
        graph.add_edge(deep, ("tip", i), 0.3)
    graph.add_edge(("pod", 0, 1, 0), ("dc", 0), 5.0)
    # A decrease that improves no label: the batch takes the reference
    # path while the tree stays as the group repair left it.
    spare = (("tip", 1), ("tip", 2))
    graph.add_edge(*spare, 50.0)
    gw, mid = ("gw", 0), ("pod", 0, 0, 0)
    ops = [
        ("patch", {spare: 45.0, (gw, mid): 0.55}),
        ("remove", ("hub", gw)),
        ("patch", {spare: 40.0, (mid, gw): 0.8}),
    ]
    group, seen = _run(monkeypatch, 11, graph=graph, ops=ops)
    counts = seen[1]
    assert counts.get("oracle.repair.rows{path=offset}", 0) > 0
    assert seen[-1].get("oracle.repair.rows{path=reference}", 0) > 0
    index = group.core.index
    row = group._rows[index[("dc", 3)]]
    assert row.parent[index[gw]] == index[mid]  # re-rooted at the deep node
