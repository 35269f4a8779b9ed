"""Row arena: the slot lifecycle of the oracle's row store.

Cached rows keep their labels in slots of fixed-size 2-D blocks owned by
:class:`~repro.graph.rowcache.RowCache`.  These tests follow a slot
through install, eviction, replacement, ``clear`` and reuse, and check
that the layout never shows: a dropped row cannot read labels, rows are
unchanged when their neighbours' slots are reused, empty blocks are
released, byte accounting follows the ``row_nbytes`` model, and rows
spread over many blocks still serve networkx's distances and valid
shortest paths.
"""

import random

import networkx as nx
import pytest

from repro.graph import FrozenOracle, Graph
from repro.graph import indexed, rowcache
from repro.graph.rowcache import row_nbytes

from helpers import random_connected_graph


def _graph(seed, n=30):
    return random_connected_graph(random.Random(seed), n, extra_edges=n)


def _labels(row):
    return row.dist.tobytes(), row.parent.tobytes()


def _blocks_in_use(rows):
    """How many arena blocks the row store holds."""
    return sum(1 for block in rows._blocks if block is not None)


def _shrink_blocks(monkeypatch, rows_per_block, n):
    """Make every arena block hold ``rows_per_block`` rows of width ``n``."""
    monkeypatch.setattr(rowcache, "BLOCK_SLOTS", rows_per_block * n)


def test_dropped_rows_cannot_read_labels():
    graph = _graph(1)
    oracle = FrozenOracle(graph, hot=[0, 1])
    oracle.prefetch_rows([2, 3, 4])
    rows = oracle._rows
    index = oracle.core.index

    evicted = rows[index[2]]
    rows.evict(index[2], "budget")
    # An early-stopped row replaced by its full upgrade.
    oracle.distance(5, 6)  # neither end hot: the row grows from 5
    replaced = rows[index[5]]
    assert not replaced.full
    oracle.distances_from(5)
    assert rows[index[5]] is not replaced
    survivor = rows[index[3]]
    oracle.invalidate()  # clear()
    for row in (evicted, replaced, survivor):
        assert row.block is None and row.dist is None and row.parent is None
        with pytest.raises(TypeError):
            row.dist[0]
    assert _blocks_in_use(rows) == 0


def test_slot_reuse_keeps_surviving_rows_intact(monkeypatch):
    graph = _graph(2)
    n = len(graph)
    _shrink_blocks(monkeypatch, 3, n)
    oracle = FrozenOracle(graph)
    oracle.prefetch_rows(range(9))
    rows = oracle._rows
    index = oracle.core.index
    before = {sid: _labels(row) for sid, row in rows.items()}
    freed = set()
    for node in (1, 3, 4, 7):
        row = rows[index[node]]
        freed.add((row.block.index, row.slot))
        rows.evict(index[node], "budget")
    oracle.prefetch_rows([20, 21, 22, 23])
    reused = {(rows[index[node]].block.index, rows[index[node]].slot)
              for node in (20, 21, 22, 23)}
    assert reused == freed
    for sid, labels in before.items():
        if sid in rows:
            assert _labels(rows[sid]) == labels
    cold = FrozenOracle(graph.copy())
    cold.prefetch_rows([20, 21, 22, 23])
    for node in (20, 21, 22, 23):
        sid = index[node]
        assert _labels(rows[sid]) == _labels(cold._rows[sid])


def test_fully_freed_block_is_released(monkeypatch):
    graph = _graph(3)
    n = len(graph)
    _shrink_blocks(monkeypatch, 2, n)
    oracle = FrozenOracle(graph)
    oracle.prefetch_rows(range(6))
    rows = oracle._rows
    index = oracle.core.index
    assert _blocks_in_use(rows) == 3
    middle = [sid for sid, row in rows.items() if row.block.index == 1]
    assert len(middle) == 2
    rows.evict(middle[0], "budget")
    assert _blocks_in_use(rows) == 3  # one slot still live
    rows.evict(middle[1], "budget")
    assert _blocks_in_use(rows) == 2
    assert rows._blocks[1] is None
    # Blocks 0 and 2 are full: the next row opens a block in the hole.
    oracle.prefetch_rows([10])
    assert rows[index[10]].block.index == 1
    assert _blocks_in_use(rows) == 3


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_accounting_follows_the_byte_model(monkeypatch, rows_per_block):
    graph = _graph(4)
    n = len(graph)
    if rows_per_block is not None:
        _shrink_blocks(monkeypatch, rows_per_block, n)
    oracle = FrozenOracle(graph, hot=[0, 1])
    rows = oracle._rows
    oracle.prefetch_rows(range(5, 12))  # early-stopped rows
    oracle.distances_from(2)  # one full row
    expected = sum(row_nbytes(n, settled=row.settled is not None)
                   for row in rows.values())
    assert rows.total_bytes == expected == 8 * row_nbytes(n)
    peak = rows.peak_bytes
    assert peak == expected
    for node in (5, 6, 7):
        rows.evict(oracle.core.index[node], "budget")
    assert rows.total_bytes == 5 * row_nbytes(n)
    assert rows.peak_bytes == peak


def _nx_graph(graph: Graph) -> nx.Graph:
    out = nx.Graph()
    for u, v, cost in graph.edges():
        out.add_edge(u, v, weight=cost)
    return out


def _assert_serves_networkx(oracle, sources):
    reference = _nx_graph(oracle.graph)
    for source in sources:
        want = nx.single_source_dijkstra_path_length(reference, source)
        got = oracle.distances_from(source)
        assert got.keys() == want.keys()
        for node, d in want.items():
            assert got[node] == pytest.approx(d, rel=1e-12, abs=1e-12)
            path = oracle.path(source, node)
            assert path[0] == source and path[-1] == node
            cost = sum(oracle.graph.cost(a, b) for a, b in zip(path, path[1:]))
            assert cost == pytest.approx(d, rel=1e-12, abs=1e-12)


def test_rows_across_blocks_match_networkx(monkeypatch):
    """Rows spread over many small blocks, through shared-region patches."""
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    rng = random.Random(5)
    graph = _graph(5, n=40)
    n = len(graph)
    _shrink_blocks(monkeypatch, 3, n)
    oracle = FrozenOracle(graph.copy(), patchable=True)
    sources = list(range(0, 40, 2))
    oracle.prefetch_rows(sources)
    assert _blocks_in_use(oracle._rows) >= 6
    edges = [(u, v) for u, v, _ in oracle.graph.edges()]
    for step in range(8):
        changed = {}
        for u, v in rng.sample(edges, 4):
            factor = rng.uniform(1.05, 2.0) if step % 3 else rng.uniform(0.4, 2.0)
            changed[(u, v)] = oracle.graph.cost(u, v) * factor
        oracle.prefetch_rows(sources)
        oracle.patch_edge_costs(changed)
    _assert_serves_networkx(oracle, sources)
