"""The uncontracted numpy row kernel against its heap-loop reference.

``IndexedGraph.batch_rows`` (frontier min-plus relaxation plus a
pop-order parent pass over tie levels) must return, for every source,
exactly what ``IndexedGraph.dijkstra`` returns for a full row --
distance bytes, parents and settled flags -- or refuse the row
(``None``) so the oracle runs the heap loop instead.  Distances are
also checked against networkx, an independent reference.
"""

import random
from array import array

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import FrozenOracle, Graph, IndexedGraph
from repro.obs import MetricsRegistry, Recorder

INF = float("inf")


def heap_labels(core, source):
    """``dijkstra``'s full row as comparable bytes / lists."""
    dist, parent, settled, exhausted = core.dijkstra(source)
    assert exhausted
    return array("d", dist).tobytes(), parent, settled


def assert_batch_matches_heap(core, sources):
    """Every kernel row equals the heap loop's, bit for bit."""
    batch = core.batch_rows(sources)
    assert len(batch) == len(sources)
    for source, labels in zip(sources, batch):
        assert labels is not None, f"source {source} was refused"
        dist, parent, settled = labels
        assert dist.dtype == "float64" and parent.dtype == "int64"
        assert isinstance(settled, bytearray)
        assert (dist.tobytes(), parent.tolist(), settled) == heap_labels(
            core, source
        ), f"row {source} differs from the heap loop"
    return batch


def to_networkx(graph):
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.nodes())
    for u, v, cost in graph.edges():
        nxg.add_edge(u, v, weight=cost)
    return nxg


def assert_distances_match_networkx(graph, core, sources, batch):
    nxg = to_networkx(graph)
    for source, (dist, _, _) in zip(sources, batch):
        reference = nx.single_source_dijkstra_path_length(
            nxg, core.node_of(source)
        )
        for i, d in enumerate(dist.tolist()):
            assert d == reference.get(core.node_of(i), INF)


def grid(width, height, cost=lambda rng: 1.0, seed=0, tag=None):
    rng = random.Random(seed)
    graph = Graph()
    for x in range(width):
        for y in range(height):
            here = (tag, x, y)
            if x:
                graph.add_edge((tag, x - 1, y), here, cost(rng))
            if y:
                graph.add_edge((tag, x, y - 1), here, cost(rng))
    return graph


def hub_and_pods(seed, pods=6, width=3, levels=3):
    """The dense-patch shape: single-uplink pods with loaded internals."""
    rng = random.Random(seed)
    graph = Graph()
    for i in range(pods):
        graph.add_edge("hub", ("dc", i), 1.0)
        prev = [("gw", i)]
        graph.add_edge("hub", ("gw", i), 1.0)
        for k in range(levels):
            level = [("pod", i, k, w) for w in range(width)]
            for node in level:
                for up in prev:
                    # Heterogeneous standing utilisation on some links,
                    # the uniform floor on the rest.
                    cost = 1.0 + rng.random() if rng.random() < 0.5 else 1.0
                    graph.add_edge(node, up, cost)
            prev = level
    return graph


def all_sources(core):
    return list(range(len(core)))


def test_uniform_grid_is_all_ties():
    graph = grid(7, 6)
    core = IndexedGraph.from_graph(graph)
    sources = all_sources(core)
    batch = assert_batch_matches_heap(core, sources)
    assert_distances_match_networkx(graph, core, sources, batch)
    # Every level of a unit grid is an equal-distance run, and interior
    # nodes have two tight in-neighbours: the whole row is tie levels.
    dist = batch[0][0]
    assert len(set(dist.tolist())) < len(dist) // 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hub_and_pods_with_heterogeneous_loads(seed):
    graph = hub_and_pods(seed)
    core = IndexedGraph.from_graph(graph)
    sources = all_sources(core)
    batch = assert_batch_matches_heap(core, sources)
    assert_distances_match_networkx(graph, core, sources, batch)


def test_tombstones_from_remove_and_restore_edges():
    graph = grid(6, 6, cost=lambda rng: float(rng.randint(1, 3)), seed=4)
    core = IndexedGraph.from_graph(graph)
    sources = all_sources(core)
    assert_batch_matches_heap(core, sources)
    rng = random.Random(5)
    edges = sorted(((u, v) for u, v, _ in graph.edges()), key=repr)
    failed = rng.sample(edges, 8)
    core.remove_edges([(core.id_of(u), core.id_of(v)) for u, v in failed])
    for u, v in failed:
        graph.remove_edge(u, v)
    batch = assert_batch_matches_heap(core, sources)
    assert_distances_match_networkx(graph, core, sources, batch)
    # Restore half of them at new costs: the kernel's cached numpy
    # weights must follow the mutation.
    restored = [(u, v, float(rng.randint(1, 3))) for u, v in failed[::2]]
    core.restore_edges(
        [(core.id_of(u), core.id_of(v), c) for u, v, c in restored]
    )
    for u, v, c in restored:
        graph.add_edge(u, v, c)
    batch = assert_batch_matches_heap(core, sources)
    assert_distances_match_networkx(graph, core, sources, batch)


def test_clone_patches_leave_the_original_kernel_alone():
    graph = hub_and_pods(3)
    core = IndexedGraph.from_graph(graph)
    before = [labels[0].tobytes() for labels in core.batch_rows([0, 5])]
    clone = core.clone()
    clone.patch_edges([(0, clone.indices[0], 9.0)])
    assert_batch_matches_heap(clone, [0, 5])
    after = [labels[0].tobytes() for labels in core.batch_rows([0, 5])]
    assert before == after
    patched = [labels[0].tobytes() for labels in clone.batch_rows([0, 5])]
    assert before != patched


def test_disconnected_components_stay_unreached():
    graph = grid(4, 4, tag="a")
    for u, v, c in grid(3, 5, cost=lambda rng: rng.uniform(1, 2),
                        tag="b").edges():
        graph.add_edge(u, v, c)
    core = IndexedGraph.from_graph(graph)
    sources = all_sources(core)
    batch = assert_batch_matches_heap(core, sources)
    assert_distances_match_networkx(graph, core, sources, batch)
    dist, parent, settled = batch[0]
    unreached = [i for i, d in enumerate(dist.tolist()) if d == INF]
    assert len(unreached) == 15
    assert all(parent[i] == -1 and not settled[i] for i in unreached)
    assert parent[0] == -1 and settled[0] == 1


def test_single_source_batch():
    graph = hub_and_pods(1)
    core = IndexedGraph.from_graph(graph)
    source = core.id_of(("pod", 2, 1, 0))
    batch = assert_batch_matches_heap(core, [source])
    assert_distances_match_networkx(graph, core, [source], batch)


def test_batch_across_the_chunk_size():
    graph = hub_and_pods(2, pods=30, width=4)
    core = IndexedGraph.from_graph(graph)
    chunk = core.kernel_chunk()
    assert 1 < chunk < len(core) // 2
    sources = list(range(len(core) - 1, len(core) - 2 * chunk - 2, -1))
    assert_batch_matches_heap(core, sources)

    # The oracle installs the rows in caller order, one span per chunk,
    # one cold count per row.
    recorder = Recorder(registry=MetricsRegistry())
    oracle = FrozenOracle(graph, hot=[("dc", 0)], patchable=True,
                          metrics=recorder)
    nodes = [core.node_of(i) for i in sources]
    oracle.prefetch_rows(nodes)
    assert list(oracle._rows) == [oracle.core.id_of(n) for n in nodes]
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["oracle.rows.cold"] == len(sources)
    assert "oracle.rows.fallback" not in snapshot["counters"]
    spans = snapshot["histograms"]["oracle.row_build{kind=cold}"]
    assert spans["count"] == -(-len(sources) // chunk)
    for node in nodes:
        sid = oracle.core.id_of(node)
        row = oracle._rows[sid]
        assert (row.dist.tobytes(), list(row.parent), row.settled) == (
            heap_labels(oracle.core, sid)
        )


def test_zero_weight_edge_falls_back_to_heap_loop():
    graph = hub_and_pods(4)
    graph.add_edge(("pod", 0, 2, 0), ("pod", 0, 2, 1), 0.0)
    core = IndexedGraph.from_graph(graph)
    sources = all_sources(core)
    # Both ends of a zero-cost edge carry equal labels in every row that
    # reaches them, so every row is refused.
    assert all(labels is None for labels in core.batch_rows(sources))

    recorder = Recorder(registry=MetricsRegistry())
    oracle = FrozenOracle(graph, hot=[("dc", 0)], patchable=True,
                          metrics=recorder)
    nodes = [core.node_of(i) for i in sources[:5]]
    oracle.prefetch_rows(nodes)
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["oracle.rows.fallback"] == 5
    assert snapshot["counters"]["oracle.rows.cold"] == 5
    assert snapshot["histograms"]["oracle.row_build{kind=fallback}"][
        "count"] == 5
    for node in nodes:
        sid = oracle.core.id_of(node)
        row = oracle._rows[sid]
        assert (row.dist.tobytes(), list(row.parent), row.settled) == (
            heap_labels(oracle.core, sid)
        )


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)
                  if pairs else st.just([]))
    graph = Graph()
    for i in range(n):
        graph.add_node(i)
    for i, j in chosen:
        graph.add_edge(i, j, float(draw(st.integers(min_value=1, max_value=3))))
    return graph


@given(small_graph())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_small_integer_graphs_match_heap_and_networkx(graph):
    core = IndexedGraph.from_graph(graph)
    sources = all_sources(core)
    batch = assert_batch_matches_heap(core, sources)
    assert_distances_match_networkx(graph, core, sources, batch)
