"""Indexed graph core: node interning, CSR adjacency and array Dijkstra.

The dict-of-dicts :class:`~repro.graph.graph.Graph` is convenient for
construction and small instances, but every Dijkstra relaxation pays a hash
of an arbitrary node key and every heap entry carries a Python object.  The
paper-scale sweeps (Table I: |V| up to 5000, |S| up to 26) run dozens of
single-source searches per SOFDA call, so this module provides a compact
core the hot paths share:

- :class:`IndexedGraph` -- interns nodes into dense int ids and stores the
  adjacency as CSR-style flat arrays (``indptr``/``indices``/``weights``)
  plus per-node ``(weight, neighbor_id)`` rows for the Dijkstra inner loop.
- :meth:`IndexedGraph.dijkstra` -- array-based Dijkstra whose ``dist`` and
  ``parent`` are flat lists indexed by int id and whose heap entries are
  ``(float, int, int)`` tuples, so no node ``repr`` tie-breaking ever runs.
  The relaxation order (including the push-counter tie-break) replicates
  :func:`repro.graph.shortest_paths.dijkstra` exactly, so the two return
  identical distances *and* identical shortest-path trees.
- :meth:`IndexedGraph.batch_rows` -- a numpy kernel that builds several
  full rows at once and returns exactly what :meth:`IndexedGraph.dijkstra`
  returns for them: the same frontier min-plus relaxation as the
  contracted core's kernel (:func:`_relax`) for the distances, and the
  heap loop's pop order -- ``(dist, pop index of the parent, parent's
  slot)`` -- rebuilt over the few tie levels for the parents.  The
  oracle builds every uncontracted full row with it; the heap loop
  stays for early-stopped rows and for the rows the kernel refuses.
- :class:`FrozenOracle` -- a drop-in replacement for
  :class:`~repro.graph.shortest_paths.DistanceOracle` over a graph that is
  not mutated while cached.  Rows are computed lazily into flat arrays; a
  ``hot`` node set names the nodes the workload queries repeatedly.

On large instances the oracle additionally *contracts* the search graph:
ISP-style topologies (Euclidean MST plus shortest extra links, Inet
preferential attachment) are dominated by degree-2 relay nodes, so every
maximal chain of non-hot degree-2 nodes is spliced into a single weighted
edge before Dijkstra runs.  On the Table-I instances this halves the node
count and removes a third of the edges while distances stay exact; paths
are re-expanded through the stored chain interiors on reconstruction.
Contraction only engages above :data:`CONTRACT_MIN_INTERIOR` interior
nodes -- small (typically integer-weighted, tie-heavy) graphs keep the
exact dict-Dijkstra relaxation order, bit for bit.

The contracted core stores its adjacency as CSR arrays and builds each
cold row with a numpy kernel (:meth:`_ContractedCore.dijkstra`): a
frontier min-plus relaxation for the distances, then one pass that
recovers the parents a ``(dist, id)`` heap loop would pick from a stable
argsort of the distances.  The rows are bit-identical to that heap loop
(:meth:`_ContractedCore.heap_dijkstra`, kept as the reference), and a
row whose parents cannot be proven identical -- a tight edge that does
not increase the distance -- is rebuilt with the heap loop instead.

One FrozenOracle per :class:`~repro.core.problem.SOFInstance` is shared by
the whole SOFDA pipeline (Procedure 1 sweeps, conflict repairs, Steiner
closures, the baselines and the online simulator) -- the single-oracle
invariant documented in ROADMAP.md.

Edge-*cost* patches (:meth:`FrozenOracle.patch_edge_costs`) repair cached
rows instead of recomputing them.  The repair engine is split into a
*planner* -- one shared :class:`_PatchPlan` per patch that classifies the
changed batch once (increase/decrease partition, degree-1 leaf edges),
after which one scan pass checks every classified pair against each live
row's parent tree -- and a *repairer*
(:func:`_repair_row_planned`) that applies the plan to one row.  The
historical per-row rescan (:func:`_repair_row`) is kept, bit-identical,
behind ``planner=False`` as the equivalence reference.

*Dense* patches -- a changed edge sitting in most rows' shortest-path
trees, the online workload's hot shared links -- additionally share the
repair bookkeeping across rows: rows detaching the same region (same
detached child, same detached-side node set; the region is the child's
subtree regardless of which changed pair detached it) are grouped
behind one :class:`_SharedRegion`, whose node list, membership mask,
boundary seed lists and region-internal adjacency are computed once per
group and reused by every member row's re-dijkstra (see
:data:`PLANNER_SHARE_MIN_ROWS` / :data:`PLANNER_SHARE_DENSITY` for the
engagement policy).  Cached rows live as slots of 2-D arena blocks
(:mod:`repro.graph.rowcache`), so a region with a single boundary node
is repaired for all its rows at once: one seed scan, one drift test and
one column operation per tree edge over each block.
``share_regions=False`` keeps the per-row region rediscovery,
bit-identically, as the equivalence reference.

Edge-*topology* patches (:meth:`FrozenOracle.patch_topology`) extend the
same repair engine to link failure and recovery.  A removed edge is a
*tombstone*: its CSR slots keep their positions (marked with an ``inf``
weight, which no live edge can carry -- costs are validated finite) and
node ids stay stable, so every cached row array stays addressable; the
removal reaches cached rows as an increase-to-infinity, whose detached
region repairs from its boundary and may legitimately end *unreachable*
(``dist=inf``, parent cleared -- the one outcome a pure cost patch can
never produce).  A reinserted edge un-tombstones its slots and reaches
rows as a decrease-from-infinity through the existing decrease
machinery.  In the contracted core a failed edge keeps its chain intact
and poisons the chain's prefix sums and total to ``inf`` instead
(infinite candidates never win a relaxation, and interior queries
expand through per-side prefix walks), so no global recontraction ever
runs.  A plain oracle driven by graph mutation plus
:meth:`FrozenOracle.invalidate` is the rebuild reference the tests hold
this path to.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.graph.graph import Graph, canonical_edge
from repro.graph.rowcache import RowBlock, RowCache
from repro.graph.shortest_paths import dijkstra as _dict_dijkstra
from repro.obs import CACHE_SNAPSHOT_SCHEMA

Node = Hashable
INF = float("inf")

#: Minimum number of contractible (non-hot, degree-2) nodes before the
#: oracle switches to the contracted search core.  Below this the exact
#: dict-Dijkstra relaxation order is replicated instead, which keeps
#: tie-breaking on small integer-weighted graphs byte-compatible.
CONTRACT_MIN_INTERIOR = 64

#: Minimum fraction of distinct edge costs for contraction to engage.
#: Continuous (randomly drawn) costs make equal-cost shortest-path ties
#: measure-zero, so the contracted core's different -- but equally valid --
#: tie choices can never change a result.  Repeated-cost graphs (e.g. the
#: online simulator's uniform floor costs) keep the replicated relaxation
#: order instead.
CONTRACT_MIN_DISTINCT_COSTS = 0.5


#: Label slots (rows x CSR slots) per :meth:`IndexedGraph.batch_rows`
#: call on the oracle's full-row path: bounds the kernel's temporaries
#: (about 2 MB) whatever the graph size.
KERNEL_CHUNK_SLOTS = 1 << 15

#: How many edges the continuity probe inspects (deterministic prefix of
#: the enumeration order) -- plenty to separate drawn-cost graphs from
#: uniform/integer-cost ones without an O(E) scan per oracle build.
_DISTINCT_COST_SAMPLE = 2048

#: Region-sharing policy for dense patches.  A changed pair whose
#: detached child is a tree-edge child in at least
#: :data:`PLANNER_SHARE_MIN_ROWS` rows *and* at least
#: :data:`PLANNER_SHARE_DENSITY` of the live rows gets a shared-region
#: group: the detached region's node set, boundary seed lists and
#: internal adjacency are computed once per (pair, region signature) and
#: reused by every member row instead of being rediscovered per row.
#: Below the thresholds the per-patch group bookkeeping would cost more
#: than the per-row walks it replaces.
PLANNER_SHARE_MIN_ROWS = 24
PLANNER_SHARE_DENSITY = 0.5

#: How many distinct region variants one dense root may accumulate per
#: patch before later non-matching rows fall back to the per-row walk
#: (equal-cost ties or mid-stream repairs can fragment the region
#: signature across rows; unbounded variants would turn the
#: verification scan into the dominant cost).
_PLANNER_SHARE_MAX_VARIANTS = 4


def _f8(buf):
    """Zero-copy ``float64`` view of a row's ``dist`` buffer.

    Writes through the view mutate the row in place.  A row's labels
    never move while it is cached (they sit in one arena slot), so a
    view stays valid for the row's lifetime.
    """
    return np.frombuffer(buf, dtype=np.float64)


def _i8(buf):
    """Zero-copy ``int64`` view of a row's ``parent`` buffer."""
    return np.frombuffer(buf, dtype=np.int64)


def _u8(buf: bytearray):
    """Zero-copy ``uint8`` view of a ``settled``/membership bytearray."""
    return np.frombuffer(buf, dtype=np.uint8)


def _relax(indptr, indices, weights, dist, frontier) -> None:
    """Run a frontier min-plus relaxation to its fixpoint, in place.

    ``dist`` is a C-contiguous ``(rows, n)`` ``float64`` array holding one
    label row per source over the CSR graph ``indptr``/``indices``/
    ``weights``; ``frontier`` holds the flat indices (``row * n + node``)
    of the labels to relax from first (the sources, at ``0.0``).  Each
    round relaxes only the out-slots of nodes whose label dropped in the
    previous round (``np.minimum.at``), so rows never mix.

    A label is the same left-fold float sum ``D[u] + w`` a heap
    Dijkstra computes, and both reach the minimum over all walks of
    those sums (rounding is monotone and weights are non-negative), so
    the labels match a heap loop's exactly.  ``inf`` weights
    (tombstones, poisoned chains) never lower a label.
    """
    rows, n = dist.shape
    flat = dist.reshape(-1)
    while frontier.size:
        node = frontier % n if rows > 1 else frontier
        # The out-slots of every frontier node, as one flat index.
        starts = indptr[node]
        counts = indptr[node + 1] - starts
        ends = np.cumsum(counts)
        slot = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
        target = indices[slot]
        if rows > 1:
            target += np.repeat(frontier - node, counts)
        before = flat.copy()
        np.minimum.at(
            flat, target, np.repeat(flat[frontier], counts) + weights[slot],
        )
        frontier = np.flatnonzero(flat < before)


def _target_ids(index: Dict, targets: Sequence) -> Optional[List[int]]:
    """Resolve ``targets`` against ``index`` in one C-speed gather.

    Returns the id list when every target is present, ``None`` when any
    target is missing -- callers then run their exact per-target slow
    path.  ``operator.itemgetter`` keeps the per-element cost out of the
    interpreter on the batched query paths, where a ~1000-candidate pool
    is resolved on every Procedure-2 call.
    """
    try:
        if len(targets) == 1:
            return [index[targets[0]]]
        return list(itemgetter(*targets)(index))
    except KeyError:
        return None

#: Relative slack (in units of one ulp) granted per tree level when the
#: single-boundary offset solve checks whether a shared region's
#: separation margin survives re-running the same float additions from a
#: per-row base distance: each accumulated label carries at most one
#: rounding per tree level, both compared labels drift, plus slack for
#: the base seed add itself.  See :meth:`_SharedRegion.apply_offset`.
_OFFSET_ULPS_PER_LEVEL = 2
_OFFSET_ULPS_BASE = 4
_EPS = 2.0 ** -52


def _costs_mostly_distinct(graph: Graph) -> bool:
    """Whether the graph's edge costs look continuously distributed."""
    seen = set()
    count = 0
    for _, _, cost in graph.edges():
        seen.add(cost)
        count += 1
        if count >= _DISTINCT_COST_SAMPLE:
            break
    return count > 0 and len(seen) >= CONTRACT_MIN_DISTINCT_COSTS * count


class IndexedGraph:
    """A frozen, int-indexed view of an undirected weighted graph.

    Attributes:
        nodes: intern table; ``nodes[i]`` is the original node of id ``i``.
        index: reverse mapping ``node -> id``.
        indptr, indices, weights: CSR adjacency -- the neighbors of node
            ``i`` are ``indices[indptr[i]:indptr[i+1]]`` with edge costs in
            the matching slice of ``weights``.

    Full rows are built by :meth:`batch_rows`, a numpy kernel over the
    same CSR; :meth:`dijkstra` is its heap-loop reference and serves the
    early-stopped rows and the rows the kernel refuses.
    """

    __slots__ = ("nodes", "index", "indptr", "indices", "weights", "_rows",
                 "_topology", "_weights")

    def __init__(
        self,
        nodes: List[Node],
        indptr: List[int],
        indices: List[int],
        weights: List[float],
    ) -> None:
        self.nodes = nodes
        self.index = {node: i for i, node in enumerate(nodes)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Per-node (weight, neighbor) tuples: the CSR slices pre-zipped for
        # the Dijkstra inner loop, where tuple unpacking beats two indexed
        # loads per edge in CPython.
        self._rows: List[Tuple[Tuple[float, int], ...]] = [
            tuple(zip(weights[indptr[i]:indptr[i + 1]],
                      indices[indptr[i]:indptr[i + 1]]))
            for i in range(len(nodes))
        ]
        #: numpy copies of the CSR for :meth:`batch_rows`, built on first
        #: use: the topology arrays are shared by clones, the weights are
        #: dropped by every weight mutation.
        self._topology: Optional[Tuple[np.ndarray, ...]] = None
        self._weights: Optional[np.ndarray] = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "IndexedGraph":
        """Intern ``graph`` preserving node and per-node neighbor order."""
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        indptr = [0]
        indices: List[int] = []
        weights: List[float] = []
        for node in nodes:
            for neighbor, cost in graph.neighbor_items(node):
                indices.append(index[neighbor])
                weights.append(cost)
            indptr.append(len(indices))
        return cls(nodes, indptr, indices, weights)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self.index

    def num_edges(self) -> int:
        """Number of *live* undirected edges (tombstones excluded)."""
        dead = sum(1 for w in self.weights if w == INF)
        return (len(self.indices) - dead) // 2

    def id_of(self, node: Node) -> int:
        """Int id of ``node``; raises ``KeyError`` if absent."""
        return self.index[node]

    def node_of(self, node_id: int) -> Node:
        """Original node of int id ``node_id``."""
        return self.nodes[node_id]

    def neighbor_items(self, node_id: int) -> Tuple[Tuple[float, int], ...]:
        """``(edge_cost, neighbor_id)`` pairs of ``node_id``."""
        return self._rows[node_id]

    def patch_edges(self, updates: Iterable[Tuple[int, int, float]]) -> None:
        """Overwrite edge *costs* in place; the topology must not change.

        ``updates`` holds ``(u_id, v_id, new_cost)`` triples for existing
        edges.  Both CSR directions and the pre-zipped Dijkstra rows of the
        touched endpoints are refreshed.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        touched = set()
        for u, v, cost in updates:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b:
                        weights[pos] = cost
                        break
                else:
                    raise KeyError(f"no edge between ids {u} and {v}")
            touched.add(u)
            touched.add(v)
        self._rebuild_live_rows(touched)

    def _rebuild_live_rows(self, touched: Iterable[int]) -> None:
        """Refresh the pre-zipped rows of ``touched``, skipping tombstones.

        Every weight mutation ends here, so this also drops the kernel's
        numpy weights.
        """
        self._weights = None
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for node in touched:
            self._rows[node] = tuple(
                (w, nb)
                for w, nb in zip(weights[indptr[node]:indptr[node + 1]],
                                 indices[indptr[node]:indptr[node + 1]])
                if w != INF
            )

    def remove_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Tombstone edges in place: weight becomes ``inf``, slots persist.

        The CSR slots keep their positions (so node ids and every cached
        row array stay stable) but the pre-zipped Dijkstra rows of the
        touched endpoints drop the dead entries entirely -- an absent edge
        must cost the search nothing.  Raises ``KeyError`` for a missing
        or already-removed edge.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        touched = set()
        for u, v in pairs:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b and weights[pos] != INF:
                        weights[pos] = INF
                        break
                else:
                    raise KeyError(f"no live edge between ids {u} and {v}")
            touched.add(u)
            touched.add(v)
        self._rebuild_live_rows(touched)

    def restore_edges(self, updates: Iterable[Tuple[int, int, float]]) -> None:
        """Un-tombstone edges: write a finite cost back into dead slots.

        The inverse of :meth:`remove_edges`; the edge must currently be
        tombstoned (both CSR directions at ``inf``).  Raises ``KeyError``
        when no tombstoned slot exists for a pair.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        touched = set()
        for u, v, cost in updates:
            for a, b in ((u, v), (v, u)):
                for pos in range(indptr[a], indptr[a + 1]):
                    if indices[pos] == b and weights[pos] == INF:
                        weights[pos] = cost
                        break
                else:
                    raise KeyError(
                        f"no tombstoned edge between ids {u} and {v}"
                    )
            touched.add(u)
            touched.add(v)
        self._rebuild_live_rows(touched)

    def clone(self) -> "IndexedGraph":
        """A patchable copy sharing the frozen topology arrays.

        The intern table and CSR structure (``nodes``/``index``/``indptr``/
        ``indices``) are shared -- they only depend on the topology -- while
        ``weights`` and the per-node rows are copied so :meth:`patch_edges`
        on the clone leaves the original untouched.
        """
        dup = object.__new__(IndexedGraph)
        dup.nodes = self.nodes
        dup.index = self.index
        dup.indptr = self.indptr
        dup.indices = self.indices
        dup.weights = list(self.weights)
        dup._rows = list(self._rows)
        dup._topology = self._topology
        dup._weights = None
        return dup

    # ------------------------------------------------------------------
    def dijkstra(
        self,
        source: int,
        targets: Optional[Iterable[int]] = None,
    ) -> Tuple[List[float], List[int], bytearray, bool]:
        """Single-source heap Dijkstra over int ids.

        The reference loop: :meth:`batch_rows` returns exactly this
        loop's full rows, and the oracle runs this loop itself only for
        early-stopped rows (``targets``) and for the rows the kernel
        refuses (its fallback).  Heap entries are ``(dist, push counter,
        id)``, so equal distances pop in push order.

        Args:
            source: start node id.
            targets: optional ids; the search stops once all are settled.

        Returns:
            ``(dist, parent, settled, exhausted)`` -- flat lists indexed by
            node id (``parent[i] == -1`` for the source and unreached
            nodes), the settled flags, and whether the search ran to
            exhaustion (i.e. the row is valid for *every* node, not just
            the settled ones).
        """
        n = len(self.nodes)
        dist = [INF] * n
        parent = [-1] * n
        settled = bytearray(n)
        dist[source] = 0.0

        is_target = None
        remaining = 0
        if targets is not None:
            is_target = bytearray(n)
            for t in targets:
                if t != source and not is_target[t]:
                    is_target[t] = 1
                    remaining += 1

        rows = self._rows
        heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
        counter = 1
        push = heapq.heappush
        pop = heapq.heappop
        exhausted = True
        while heap:
            d, _, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            if is_target is not None:
                if is_target[u]:
                    remaining -= 1
                if remaining <= 0:
                    # Stopped early: the last settled node's out-edges were
                    # never relaxed, so the row is NOT valid beyond the
                    # settled set even if the heap happens to be empty.
                    exhausted = False
                    break
            for w, v in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, counter, v))
                    counter += 1
        return dist, parent, settled, exhausted

    def _kernel_arrays(self) -> Tuple[np.ndarray, ...]:
        """``(indptr, indices, owner, rev, weights)`` numpy arrays.

        ``owner[s]`` is the node whose segment holds slot ``s`` and
        ``rev[s]`` the slot of the same edge in the other direction.
        """
        if self._topology is None:
            indptr = np.asarray(self.indptr, dtype=np.intp)
            indices = np.asarray(self.indices, dtype=np.intp)
            owner = np.repeat(
                np.arange(len(self.nodes), dtype=np.intp), np.diff(indptr)
            )
            # The k-th slot in (owner, neighbour) order and the k-th in
            # (neighbour, owner) order are the two directions of one edge.
            rev = np.empty_like(indices)
            rev[np.lexsort((owner, indices))] = np.lexsort((indices, owner))
            self._topology = (indptr, indices, owner, rev)
        if self._weights is None:
            self._weights = np.asarray(self.weights, dtype=np.float64)
        return self._topology + (self._weights,)

    def kernel_chunk(self) -> int:
        """Rows per :meth:`batch_rows` call that keep its temporaries small.

        About :data:`KERNEL_CHUNK_SLOTS` label slots per call: 7 rows on
        the 1000-node Inet, one row on 50k-node graphs.
        """
        return max(1, KERNEL_CHUNK_SLOTS // max(1, len(self.indices)))

    def batch_rows(
        self, sources: Sequence[int],
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray, bytearray]]]:
        """Full rows for ``sources`` in one numpy pass.

        Entry ``i`` is ``(dist, parent, settled)`` for ``sources[i]``,
        bit for bit what ``dijkstra(sources[i])`` returns (as
        ``float64``/``int64`` arrays and a ``bytearray``), or ``None``
        when the row is refused and the caller must run :meth:`dijkstra`.
        Temporaries grow with ``len(sources) * len(indices)``; callers
        batch :meth:`kernel_chunk` sources at a time.

        *Distances* come from :func:`_relax` over a ``(rows, n)`` array.

        *Parents* follow from the heap loop's pop order.  Node ``v``'s
        settling entry is pushed exactly once, by its first-popped tight
        in-neighbour ``p`` (``D[p] + w == D[v]``), which is also its
        parent: later tight neighbours do not strictly improve the
        label.  Entries pop in ``(dist, push counter)`` order and ``p``
        pushes during its own pop, in slot order, so the pop order is
        the lexicographic order of ``(D[v], pop index of p, p's slot
        toward v)``.  A stable argsort of ``D`` already gives that order
        wherever ``D`` is unique and the parent is the only tight
        in-neighbour.  Only *tie levels* -- an equal-``D`` run, or a node
        with two or more tight in-neighbours -- need their ranks fixed,
        and they are fixed in ascending ``D``: the ``j``-th tie level of
        every row at once, each node keyed by the smallest ``(rank of
        p, slot of p toward v)`` over its tight in-neighbours, whose
        ranks are final by then.  The loop runs once per tie level, not
        per distinct distance.

        *Settled* flags are the reached nodes: a full row settles every
        node with a finite label.

        *Guard*: a tight slot with ``D[u] == D[v]`` (a zero or sub-ulp
        weight) breaks the pop-order argument -- the parent would pop at
        the child's own level -- so that row is refused.
        """
        indptr, indices, owner, rev, weights = self._kernel_arrays()
        n = len(self.nodes)
        slots = len(indices)
        rows = len(sources)
        dist = np.full((rows, n), INF)
        frontier = np.arange(rows) * n + np.asarray(sources, dtype=np.intp)
        dist.reshape(-1)[frontier] = 0.0
        _relax(indptr, indices, weights, dist, frontier)

        # Slot ``s`` in node v's segment names neighbour u = indices[s];
        # edges are stored both ways, so it is also the edge u -> v.
        d_u = dist[:, indices]
        d_v = dist[:, owner]
        tight = d_u + weights == d_v
        tight &= d_v < INF
        refused = (tight & (d_u == d_v)).any(axis=1)
        t_row, t_slot = np.nonzero(tight)
        t_child = t_row * n + owner[t_slot]
        # Flat (row * n + node) labels from here on.  Every reached node
        # but the source has a tight in-neighbour; a node with only one
        # has its parent now, the tie levels below overwrite the rest.
        parent = np.full(rows * n, -1, dtype=np.int64)
        parent[t_child] = indices[t_slot]
        order = np.argsort(dist, axis=1, kind="stable")
        order += (np.arange(rows) * n)[:, None]
        order = order.reshape(-1)
        sorted_d = dist.reshape(-1)[order]
        tie = (np.bincount(t_child, minlength=rows * n) >= 2)[order]
        run = sorted_d[1:] == sorted_d[:-1]
        run &= sorted_d[1:] < INF
        run[n - 1::n] = False  # never across a row boundary
        tie[1:] |= run
        tie[:-1] |= run
        tie.reshape(rows, n)[refused] = False
        at = np.flatnonzero(tie)  # sorted positions of tie-level nodes
        if at.size:
            rank = np.empty(rows * n, dtype=np.int64)
            rank[order] = np.arange(rows * n)
            node = order[at]
            # Group the tie nodes into levels (one row, one distance)
            # and number each row's levels from 0 in ascending ``D``.
            level_d = sorted_d[at]
            level_row = at // n
            first = np.empty(at.size, dtype=bool)
            first[0] = True
            first[1:] = level_d[1:] != level_d[:-1]
            first[1:] |= level_row[1:] != level_row[:-1]
            level = np.cumsum(first) - 1
            level_start = at[first]
            starts_row = level_row[first]
            level_step = (np.arange(starts_row.size)
                          - np.searchsorted(starts_row, starts_row))
            step = level_step[level]
            # The tight in-slots of every tie node, ordered by step.
            tie_index = np.full(rows * n, -1, dtype=np.intp)
            tie_index[node] = np.arange(at.size)
            c_node = tie_index[t_child]
            keep = np.flatnonzero(c_node >= 0)
            by_step = np.argsort(step[c_node[keep]], kind="stable")
            keep = keep[by_step]
            c_node = c_node[keep]
            c_parent = t_row[keep] * n + indices[t_slot[keep]]
            c_rev = rev[t_slot[keep]]
            bounds = np.searchsorted(
                step[c_node], np.arange(int(level_step.max()) + 2)
            )
            best = np.full(at.size, np.iinfo(np.int64).max)
            for j in range(len(bounds) - 1):
                lo, hi = bounds[j], bounds[j + 1]
                # Flat ranks already separate rows, so one key sorts
                # every row's j-th level at once.
                np.minimum.at(best, c_node[lo:hi],
                              rank[c_parent[lo:hi]] * slots + c_rev[lo:hi])
                members = np.flatnonzero(step == j)
                members = members[np.argsort(best[members])]
                lv = level[members]
                child = node[members]
                rank[child] = (level_start[lv] + np.arange(members.size)
                               - np.searchsorted(lv, lv))
                parent[child] = owner[best[members] % slots]

        parent = parent.reshape(rows, n)
        reached = (dist < INF).view(np.uint8)
        return [
            None if refused[r] else (
                dist[r], parent[r], bytearray(reached[r].tobytes())
            )
            for r in range(rows)
        ]


class _ContractedCore:
    """The degree-2-contracted search graph behind a :class:`FrozenOracle`.

    Cold rows come from :meth:`dijkstra`, a numpy kernel over the CSR
    arrays that returns exactly the labels of the heap loop
    :meth:`heap_dijkstra` (or ``None`` when it cannot prove that, and
    the oracle runs the heap loop).  Weights change only through
    :meth:`_set_row_weight`, which keeps the CSR weights and the lazily
    built tuple :attr:`rows` in step.

    Attributes:
        nodes / index: intern table over the *core* nodes (hot nodes and
            every node of degree != 2).
        indptr / indices / weights: the core adjacency in CSR form
            (``int32`` slot offsets and neighbour ids, ``float64``
            weights); node ``a``'s slots are ``indptr[a]:indptr[a + 1]``
            and every edge is stored in both directions.  Parallel
            candidates (an original edge and/or several spliced chains
            between the same core pair) are reduced to the cheapest one.
            This is the adjacency the row kernel (:meth:`dijkstra`)
            reads.
        rows: the same adjacency as per-node ``(weight, neighbor_cid)``
            tuples in slot order -- the shape the repair engine and the
            heap reference loop iterate.  Built lazily from the CSR
            arrays on first access (read-only pipelines never pay for
            them) and kept in step by :meth:`_set_row_weight`, the single
            weight-mutation point.
        meta: ``(a_cid, b_cid) -> interior node tuple`` for every kept
            spliced edge, in a->b order (both orientations stored), used to
            re-expand reconstructed paths.
        chains: every discovered chain (kept or not, including self-loop
            chains) as ``(a_cid, b_cid, interiors, prefix, total)`` where
            ``prefix[i]`` is the along-chain distance from ``a`` to
            ``interiors[i]`` -- enough to serve ``distances_from`` for the
            contracted interiors exactly.
        chain_weights: the original per-edge weights of every chain, in
            walk order -- ``prefix``/``total`` are recomputed from these
            when an interior edge cost is patched.
        pair_direct: ``pairkey -> cost`` of the original core-core edges.
        chain_by_pair: ``pairkey -> chain indices`` connecting that pair,
            in discovery order -- together with ``pair_direct`` the full
            candidate set per pair, so the kept minimum can be re-decided
            after a cost patch.
        edge_loc: original edge (as a node frozenset) -> where it lives in
            the core: ``("d", pairkey)`` for direct core-core edges,
            ``("c", chain_index, position)`` for chain edges.  Edges on
            isolated relay cycles are absent (they never touch the core).
            Purely topological and only needed by patching, so it is built
            lazily on first use (``None`` until then).
    """

    __slots__ = (
        "nodes", "index", "indptr", "indices", "weights", "_rows", "meta",
        "chains", "interior", "chain_weights", "pair_direct",
        "chain_by_pair", "edge_loc",
    )

    def __init__(self, graph: Graph, protected: set) -> None:
        # The raw adjacency dicts: this is a sibling module of Graph inside
        # the graph package, and dropping the per-edge method dispatch
        # matters at 10k+ edges.
        adj = graph._adj
        is_core = {
            node for node, neighbors in adj.items()
            if len(neighbors) != 2 or node in protected
        }
        self.nodes: List[Node] = [n for n in adj if n in is_core]
        self.index: Dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}
        self.interior: set = set()

        # Candidate core-core connections: original edges first (in
        # enumeration order), then spliced chains -- the min per pair wins,
        # first encountered on ties, which keeps construction deterministic.
        candidates: Dict[Tuple[int, int], Tuple[float, Tuple[Node, ...]]] = {}

        def offer(a: int, b: int, weight: float, interiors: Tuple[Node, ...]) -> None:
            key = (a, b) if a <= b else (b, a)
            kept = candidates.get(key)
            if kept is None or weight < kept[0]:
                candidates[key] = (
                    weight, interiors if key == (a, b) else tuple(reversed(interiors))
                )

        self.pair_direct: Dict[Tuple[int, int], float] = {}
        self.chain_by_pair: Dict[Tuple[int, int], List[int]] = {}
        # Edge -> core-location map; pure topology, so built lazily by the
        # first patch (one-shot pipelines never pay for it).
        self.edge_loc: Optional[Dict[FrozenSet[Node], Tuple]] = None

        index = self.index
        for u in self.nodes:
            ui = index[u]
            for v, cost in adj[u].items():
                vi = index.get(v)
                if vi is not None and ui < vi:
                    offer(ui, vi, cost, ())
                    self.pair_direct[(ui, vi)] = cost

        self.chains: List[
            Tuple[int, int, Tuple[Node, ...], Tuple[float, ...], float]
        ] = []
        self.chain_weights: List[List[float]] = []
        visited: set = set()
        for a in self.nodes:
            for first, w0 in adj[a].items():
                if first in is_core or first in visited:
                    continue
                # Walk the chain of degree-2 interiors until a core node.
                interiors = [first]
                weights = [w0]
                prev, cur = a, first
                while True:
                    visited.add(cur)
                    n1, n2 = adj[cur]
                    nxt = n2 if n1 == prev else n1
                    weights.append(adj[cur][nxt])
                    if nxt in is_core:
                        b = nxt
                        break
                    interiors.append(nxt)
                    prev, cur = cur, nxt
                prefix: List[float] = []
                acc = 0.0
                for w in weights[:-1]:
                    acc += w
                    prefix.append(acc)
                total = acc + weights[-1]
                a_cid, b_cid = index[a], index[b]
                chain_index = len(self.chains)
                self.chains.append(
                    (a_cid, b_cid, tuple(interiors), tuple(prefix), total)
                )
                self.chain_weights.append(weights)
                self.interior.update(interiors)
                if a_cid != b_cid:  # self-loop chains never shorten paths
                    offer(a_cid, b_cid, total, tuple(interiors))
                    key = (a_cid, b_cid) if a_cid <= b_cid else (b_cid, a_cid)
                    self.chain_by_pair.setdefault(key, []).append(chain_index)
        # Interior cycles with no core anchor stay out of the core; slow
        # queries about them fall back to the dict Dijkstra.
        for node in adj:
            if node not in is_core and node not in visited:
                self.interior.add(node)

        self.meta: Dict[Tuple[int, int], Tuple[Node, ...]] = {}
        for (a, b), (_, interiors) in candidates.items():
            if interiors:
                self.meta[(a, b)] = interiors
                self.meta[(b, a)] = tuple(reversed(interiors))
        # CSR over both directions of every kept pair.  A stable sort by
        # owning node lists each node's slots in candidate order.
        pairs = np.array(list(candidates), dtype=np.int32).reshape(-1, 2)
        kept = np.fromiter(
            (weight for weight, _ in candidates.values()), np.float64,
            len(candidates),
        )
        owner = pairs.ravel()
        order = np.argsort(owner, kind="stable")
        self.indices = pairs[:, ::-1].ravel()[order]
        self.weights = np.repeat(kept, 2)[order]
        self.indptr = np.zeros(len(self.nodes) + 1, dtype=np.int32)
        np.cumsum(
            np.bincount(owner, minlength=len(self.nodes)),
            out=self.indptr[1:],
        )
        self._rows: Optional[List[Tuple[Tuple[float, int], ...]]] = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def rows(self) -> List[Tuple[Tuple[float, int], ...]]:
        """Per-node ``(weight, neighbor_cid)`` tuples, built on first use."""
        if self._rows is None:
            indptr = self.indptr.tolist()
            indices = self.indices.tolist()
            weights = self.weights.tolist()
            self._rows = [
                tuple(zip(weights[lo:hi], indices[lo:hi]))
                for lo, hi in zip(indptr, indptr[1:])
            ]
        return self._rows

    def dijkstra(self, source: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Full single-source row over the contracted core, in numpy.

        Returns the labels :meth:`heap_dijkstra` would return, bit for
        bit, as ``float64``/``int64`` arrays -- or ``None`` when they
        cannot be proven identical, in which case the caller runs the
        heap loop itself.

        *Distances* come from the frontier min-plus relaxation
        :func:`_relax` (shared with :meth:`IndexedGraph.batch_rows`), so
        the labels agree exactly.

        *Parents* follow from the heap loop's pop order.  It pops
        ``(dist, id)`` pairs, so as long as every tight slot (``D[u] + w
        == D[v]``) strictly increases the label, it settles nodes in
        ascending ``(D, id)`` order -- the order of a stable argsort of
        ``D`` -- and keeps, for each ``v``, the first settled tight
        neighbour.  One ``np.minimum.at`` over the tight slots picks that
        neighbour by rank.  The source and unreached nodes keep parent
        ``-1`` (a tight slot into the source would need ``D[u] == 0 ==
        D[source]``, which the guard refuses).

        *Guard*: a tight slot with ``D[u] == D[v]`` (a zero or sub-ulp
        weight) breaks the pop-order argument, so the row is refused
        (``None``).
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        n = len(self.nodes)
        dist = np.full((1, n), INF)
        dist[0, source] = 0.0
        _relax(indptr, indices, weights, dist, np.array([source]))
        dist = dist[0]

        # Slot ``s`` in node v's segment names neighbour u = indices[s];
        # edges are stored both ways, so it is also the edge u -> v.
        owner = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        d_u = dist[indices]
        d_v = dist[owner]
        tight = (d_u + weights == d_v) & (d_v < INF)
        if (tight & (d_u == d_v)).any():
            return None
        order = np.argsort(dist, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        slot = np.flatnonzero(tight)
        best = np.full(n, n, dtype=np.int64)
        np.minimum.at(best, owner[slot], rank[indices[slot]])
        parent = np.full(n, -1, dtype=np.int64)
        found = best < n
        parent[found] = order[best[found]]
        return dist, parent

    def heap_dijkstra(self, source: int) -> Tuple[List[float], List[int]]:
        """Reference single-source Dijkstra over :attr:`rows` (heap loop).

        Heap entries are plain ``(dist, id)`` pairs: the contracted core
        only engages on continuous-cost instances, where exact distance
        ties are measure-zero, so no insertion-counter tie-break is kept.
        :meth:`dijkstra` reproduces this loop's labels and falls back to
        it when it cannot.
        """
        n = len(self.nodes)
        dist = [INF] * n
        parent = [-1] * n
        dist[source] = 0.0
        rows = self.rows
        heap: List[Tuple[float, int]] = [(0.0, source)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, u = pop(heap)
            if d > dist[u]:  # stale entry: u was settled at a lower cost
                continue
            for w, v in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))
        return dist, parent

    def expand(self, core_path: List[int]) -> List[Node]:
        """Re-insert chain interiors into a path of core ids."""
        nodes = self.nodes
        meta = self.meta
        out: List[Node] = [nodes[core_path[0]]]
        for a, b in zip(core_path, core_path[1:]):
            interiors = meta.get((a, b))
            if interiors is not None:
                out.extend(interiors)
            out.append(nodes[b])
        return out

    # ------------------------------------------------------------------
    # incremental cost patching
    # ------------------------------------------------------------------
    def _ensure_edge_loc(self) -> Dict[FrozenSet[Node], Tuple]:
        """Build (once) the original-edge -> core-location map.

        ``("d", pairkey)`` for direct core-core edges, ``("c",
        chain_index, position)`` for chain edges; isolated relay-cycle
        edges stay absent.  Purely topological, so it is derived from the
        candidate bookkeeping on first use and shared by clones.
        """
        if self.edge_loc is None:
            nodes = self.nodes
            loc: Dict[FrozenSet[Node], Tuple] = {}
            for key in self.pair_direct:
                loc[frozenset((nodes[key[0]], nodes[key[1]]))] = ("d", key)
            for chain_index, (a_cid, b_cid, interiors, _, _) in enumerate(
                self.chains
            ):
                walk = [nodes[a_cid], *interiors, nodes[b_cid]]
                for pos, (x, y) in enumerate(zip(walk, walk[1:])):
                    loc[frozenset((x, y))] = ("c", chain_index, pos)
            self.edge_loc = loc
        return self.edge_loc

    def _slot(self, a: int, b: int) -> int:
        """The CSR slot of the kept core edge ``a -> b``."""
        lo = int(self.indptr[a])
        hits = np.flatnonzero(self.indices[lo:self.indptr[a + 1]] == b)
        if not hits.size:
            raise KeyError(f"core pair {(a, b)} has no kept edge")
        return lo + int(hits[0])

    def _kept_weight(self, key: Tuple[int, int]) -> float:
        """The currently kept core-edge weight of a candidate pair."""
        return float(self.weights[self._slot(*key)])

    def _recompute_kept(
        self, key: Tuple[int, int]
    ) -> Tuple[float, Tuple[Node, ...]]:
        """Re-decide the kept candidate of a pair after a cost change.

        Candidates are evaluated in construction order (the direct edge,
        then chains in discovery order) with a strict minimum, replicating
        the constructor's first-encountered-wins tie-break.
        """
        best = self.pair_direct.get(key, INF)
        best_interiors: Tuple[Node, ...] = ()
        for chain_index in self.chain_by_pair.get(key, ()):
            a_cid, _, interiors, _, total = self.chains[chain_index]
            if total < best:
                best = total
                best_interiors = (
                    interiors if a_cid == key[0] else tuple(reversed(interiors))
                )
        return best, best_interiors

    def _set_row_weight(self, a: int, b: int, weight: float) -> None:
        """Set the kept weight of ``a -> b`` in the CSR and tuple rows."""
        self.weights[self._slot(a, b)] = weight
        if self._rows is not None:
            self._rows[a] = tuple(
                (weight, nb) if nb == b else (w, nb) for w, nb in self._rows[a]
            )

    def patch_edges(
        self, changes: Iterable[Tuple[Node, Node, float]]
    ) -> List[Tuple[int, int, float, float]]:
        """Apply original-edge cost updates to the contracted structures.

        Chain prefix sums and totals are recomputed from the stored
        per-edge weights, and for every core pair one of the changed edges
        participates in, the kept candidate is re-decided in construction
        order.  Returns ``(a_cid, b_cid, old_kept, new_kept)`` per affected
        pair, for the caller's row-cache eviction.
        """
        edge_loc = self._ensure_edge_loc()
        affected: Dict[Tuple[int, int], float] = {}
        for u, v, cost in changes:
            loc = edge_loc.get(frozenset((u, v)))
            if loc is None:
                continue  # an isolated relay-cycle edge: slow path only
            if loc[0] == "d":
                key = loc[1]
                if key not in affected:
                    affected[key] = self._kept_weight(key)
                self.pair_direct[key] = cost
            else:
                chain_index, pos = loc[1], loc[2]
                weights = self.chain_weights[chain_index]
                weights[pos] = cost
                a_cid, b_cid, interiors, _, _ = self.chains[chain_index]
                prefix: List[float] = []
                acc = 0.0
                for w in weights[:-1]:
                    acc += w
                    prefix.append(acc)
                self.chains[chain_index] = (
                    a_cid, b_cid, interiors, tuple(prefix), acc + weights[-1]
                )
                if a_cid != b_cid:
                    key = (a_cid, b_cid) if a_cid <= b_cid else (b_cid, a_cid)
                    if key not in affected:
                        affected[key] = self._kept_weight(key)
        out: List[Tuple[int, int, float, float]] = []
        for key, old_weight in affected.items():
            a, b = key
            new_weight, interiors = self._recompute_kept(key)
            if new_weight != old_weight:
                self._set_row_weight(a, b, new_weight)
                self._set_row_weight(b, a, new_weight)
            # The winning candidate may switch even on equal weight (the
            # direct edge wins ties); refresh the expansion map either way.
            if interiors:
                self.meta[(a, b)] = interiors
                self.meta[(b, a)] = tuple(reversed(interiors))
            else:
                self.meta.pop((a, b), None)
                self.meta.pop((b, a), None)
            out.append((a, b, old_weight, new_weight))
        return out

    def clone(self) -> "_ContractedCore":
        """A patchable copy sharing every topology-only structure."""
        self._ensure_edge_loc()  # build once here, share with every clone
        dup = object.__new__(_ContractedCore)
        dup.nodes = self.nodes
        dup.index = self.index
        dup.interior = self.interior
        dup.indptr = self.indptr
        dup.indices = self.indices
        dup.weights = self.weights.copy()
        dup._rows = None if self._rows is None else list(self._rows)
        dup.meta = dict(self.meta)
        dup.chains = list(self.chains)
        dup.chain_weights = [list(w) for w in self.chain_weights]
        dup.pair_direct = dict(self.pair_direct)
        dup.chain_by_pair = self.chain_by_pair
        dup.edge_loc = self.edge_loc
        return dup


def _repair_row(
    adjacency: List[Tuple[Tuple[float, int], ...]],
    row: "_Row",
    increases: List[Tuple[int, int]],
    decreases: List[Tuple[int, int, float]],
) -> bool:
    """Repair one cached row in place after a batch of edge-cost changes.

    ``adjacency`` must already carry the *new* weights.  Returns ``False``
    when the row cannot be repaired (it must be evicted), ``True`` when its
    distances are exact again.

    Increases follow Ramalingam--Reps: only descendants of a detached tree
    edge can change, so exactly that region -- found by walking children
    lists built from the row's parents for this call -- is recomputed
    from its boundary of intact nodes.  On early-stopped rows, a repaired
    node whose new distance exceeds the original settle cutoff is demoted
    to unsettled (its true distance could route through never-settled
    territory, whose labels are mere upper bounds); conversely a repaired
    node back under the cutoff is provably exact, since every path through
    never-settled territory costs at least the cutoff.  Decreases
    propagate improvements outward on full rows; early-stopped rows
    survive a decrease only when it provably cannot improve any label
    (both endpoints settled, no slack).
    """
    dist = row.dist
    parent = row.parent
    settled = row.settled
    full = row.full

    if decreases:
        if full:
            heap: List[Tuple[float, int]] = []
            push = heapq.heappush
            pop = heapq.heappop
            for a, b, w in decreases:
                if dist[a] + w < dist[b]:
                    dist[b] = dist[a] + w
                    parent[b] = a
                    push(heap, (dist[b], b))
                elif dist[b] + w < dist[a]:
                    dist[a] = dist[b] + w
                    parent[a] = b
                    push(heap, (dist[a], a))
            while heap:
                d, v = pop(heap)
                if d > dist[v]:
                    continue
                for w, u in adjacency[v]:
                    nd = d + w
                    if nd < dist[u]:
                        dist[u] = nd
                        parent[u] = v
                        push(heap, (nd, u))
        else:
            for a, b, w in decreases:
                if not (settled[a] and settled[b]):
                    return False
                if dist[a] + w < dist[b] or dist[b] + w < dist[a]:
                    return False

    if increases:
        roots = []
        for a, b in increases:
            if parent[b] == a:
                roots.append(b)
            elif parent[a] == b:
                roots.append(a)
        if roots:
            n = len(dist)
            if not full and row.cutoff is None:
                # The original run's settle frontier: every never-settled
                # node's true distance is at least this (Dijkstra settles
                # in nondecreasing order), and edge costs only grew since.
                row.cutoff = max(
                    (dist[v] for v in range(n) if settled[v]), default=0.0
                )
            children: List[List[int]] = [[] for _ in range(n)]
            for v, p in enumerate(parent):
                if p >= 0:
                    children[p].append(v)
            # Every child of an affected node is affected (an intact node's
            # root path avoids detached edges, so its parent is intact
            # too), so the affected region is the forest below the roots.
            affect = bytearray(n)
            affected: List[int] = []
            stack = []
            for r in roots:
                if not affect[r]:
                    affect[r] = 1
                    children[parent[r]].remove(r)
                    stack.append(r)
            while stack:
                v = stack.pop()
                affected.append(v)
                for c in children[v]:
                    affect[c] = 1
                    stack.append(c)
            for v in affected:
                dist[v] = INF
                parent[v] = -1
            heap = []
            push = heapq.heappush
            pop = heapq.heappop
            for v in affected:
                best = INF
                best_parent = -1
                for w, u in adjacency[v]:
                    if not affect[u] and (full or settled[u]):
                        nd = dist[u] + w
                        if nd < best:
                            best = nd
                            best_parent = u
                if best_parent >= 0:
                    dist[v] = best
                    parent[v] = best_parent
                    push(heap, (best, v))
            while heap:
                d, v = pop(heap)
                if d > dist[v]:
                    continue
                for w, u in adjacency[v]:
                    if affect[u]:
                        nd = d + w
                        if nd < dist[u]:
                            dist[u] = nd
                            parent[u] = v
                            push(heap, (nd, u))
            if not full:
                cutoff = row.cutoff
                for v in affected:
                    settled[v] = 1 if dist[v] <= cutoff else 0
    return True


class _PatchPlan:
    """Row-independent classification of one edge-cost change batch.

    The online workload (pure edge-cost churn) repairs every cached row
    per patch, and most of the *classification* work -- which changed
    pairs can be tree edges, and with which endpoint as the child -- does
    not depend on the row at all.  The plan hoists it:

    - ``increases`` / ``decreases``: the direction partition of the batch
      (shared verbatim with the legacy per-row repair).
    - ``classified`` (lazy -- only the planned repair branch pays for
      it): per increased pair ``(a, b, leaf)`` where ``leaf`` is the
      degree-1 endpoint id, or ``-1`` for a general pair.  A
      degree-1 node can only ever be the *child* of its single edge (no
      shortest path routes through it), and its detached "region" is the
      node itself, so every row repairs it with one relaxation instead of
      the full region machinery.  In the online simulator the per-request
      VM attachment edges are exactly such leaf edges, and they appear in
      every cached row's tree.

    The remaining per-row facts (is the pair a tree edge *in this row*)
    are answered by a single scan pass over the live rows -- see
    :meth:`FrozenOracle._patch_rows`.
    """

    __slots__ = ("increases", "decreases", "_adjacency", "_classified")

    def __init__(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        changes: Iterable[Tuple[int, int, float, float]],
    ) -> None:
        self.increases: List[Tuple[int, int]] = []
        self.decreases: List[Tuple[int, int, float]] = []
        self._adjacency = adjacency
        self._classified: Optional[List[Tuple[int, int, int]]] = None
        for a, b, old, new in changes:
            if new > old:
                self.increases.append((a, b))
            elif new < old:
                self.decreases.append((a, b, new))

    @property
    def classified(self) -> List[Tuple[int, int, int]]:
        """Leaf-classified increases, built on first use.

        Deferred so the ``planner=False`` reference oracles and
        decrease-carrying batches -- which repair through the legacy
        per-row path and never read it -- skip the degree lookups.
        """
        if self._classified is None:
            adjacency = self._adjacency
            out = []
            for a, b in self.increases:
                if len(adjacency[b]) == 1:
                    leaf = b
                elif len(adjacency[a]) == 1:
                    leaf = a
                else:
                    leaf = -1
                out.append((a, b, leaf))
            self._classified = out
        return self._classified


class _LiveRows:
    """The live rows of one planned patch, addressed by arena slot.

    ``rows`` lists the rows in store order; ``block``/``slot`` hold each
    row's arena block index and slot, so a whole-block numpy operation
    reads or writes one column for many rows at once (see
    :mod:`repro.graph.rowcache`).  Rows are named by their position in
    ``rows`` (a *live index*).
    """

    __slots__ = ("rows", "block", "slot", "full", "_blocks")

    def __init__(self, rows: List["_Row"]) -> None:
        self.rows = rows
        self.block = np.fromiter(
            (row.block.index for row in rows), np.intp, len(rows)
        )
        self.slot = np.fromiter((row.slot for row in rows), np.intp, len(rows))
        self.full = np.fromiter((row.full for row in rows), bool, len(rows))
        self._blocks = {row.block.index: row.block for row in rows}

    def parts(self, idx: np.ndarray) -> List[Tuple[RowBlock, np.ndarray, np.ndarray]]:
        """Split live indices ``idx`` by block.

        Returns ``(block, pos, slots)`` per block: ``pos`` are positions
        into ``idx`` and ``slots`` those rows' slots in ``block``.
        """
        if len(self._blocks) == 1:
            (block,) = self._blocks.values()
            return [(block, np.arange(len(idx)), self.slot[idx])]
        of = self.block[idx]
        out = []
        for index in np.unique(of):
            pos = np.flatnonzero(of == index)
            out.append((self._blocks[int(index)], pos, self.slot[idx[pos]]))
        return out

    def route(self, classified: List[Tuple[int, int, int]], n: int):
        """The planner's scan pass: which changed pairs are tree edges where.

        A classified pair ``(a, b, leaf)`` is a tree edge of a row when
        ``parent[b] == a`` (child ``b``) or ``parent[a] == b`` (child
        ``a``), tested as one column comparison per pair per block.
        Returns ``((row, child), (row, leaf, anchor))``: the detached
        child of every general pair, each at most once per row, and a
        ``(leaf, anchor)`` job for every increased degree-1 edge of a
        full row.  Rows are live indices; both are sorted by row, and in
        classification order within a row.
        """
        k = len(classified)
        a = np.fromiter((pair[0] for pair in classified), np.intp, k)
        b = np.fromiter((pair[1] for pair in classified), np.intp, k)
        leaf = np.fromiter((pair[2] for pair in classified), np.intp, k)
        down = np.empty((len(self.rows), k), dtype=bool)
        up = np.empty((len(self.rows), k), dtype=bool)
        for block, pos, slots in self.parts(np.arange(len(self.rows))):
            at = slots[:, None]
            down[pos] = block.parent[at, b] == a
            up[pos] = block.parent[at, a] == b
        r, k = np.nonzero(down | up)
        is_down = down[r, k]
        child = np.where(is_down, b[k], a[k])
        anchor = np.where(is_down, a[k], b[k])
        is_leaf = (child == leaf[k]) & self.full[r]
        general = ~is_leaf
        root_row, root_child = r[general], child[general]
        key = root_row * n + root_child
        first = np.unique(key, return_index=True)[1]
        if first.size < key.size:
            # A pair listed twice detaches the same child twice.
            first.sort()
            root_row, root_child = root_row[first], root_child[first]
        return ((root_row, root_child),
                (r[is_leaf], child[is_leaf], anchor[is_leaf]))


def _repair_row_planned(
    adjacency: List[Tuple[Tuple[float, int], ...]],
    row: "_Row",
    roots: Iterable[int],
    leafs: Iterable[Tuple[int, int]],
) -> None:
    """Apply one plan's increase repairs to a single cached row.

    ``roots`` are the row's detached children of generally-classified
    increased pairs (already verified against ``row.parent``); ``leafs``
    holds ``(leaf, anchor)`` jobs for increased degree-1 edges of full
    rows.  Semantics are identical to the increase half of
    :func:`_repair_row`; the mechanics differ in two profiled ways:

    - The affected region is discovered by scanning ``adjacency`` for
      ``parent[u] == v`` children instead of building children lists
      for the whole row (the lists are ~40% of legacy repair time on the
      online trace, and the planner skips rows a patch cannot touch, so
      the lists would be built for nothing).
    - Leaf jobs whose anchor is outside every detached region bypass the
      region machinery entirely: the leaf's one edge is relaxed in place
      (``dist[leaf] = dist[anchor] + w``), its parent unchanged.  A leaf
      whose anchor *is* detached was already swept into that region by
      the child walk, and is repaired there.
    """
    dist = row.dist
    parent = row.parent
    settled = row.settled
    full = row.full
    n = len(dist)
    if not full and row.cutoff is None:
        row.cutoff = max(
            (dist[v] for v in range(n) if settled[v]), default=0.0
        )
    affect = bytearray(n)
    affected: List[int] = []
    if roots:
        stack = []
        for r in roots:
            if not affect[r]:
                affect[r] = 1
                stack.append(r)
        while stack:
            v = stack.pop()
            affected.append(v)
            for w, u in adjacency[v]:
                if parent[u] == v and not affect[u]:
                    affect[u] = 1
                    stack.append(u)
    if affected:
        for v in affected:
            dist[v] = INF
            parent[v] = -1
        heap: List[Tuple[float, int]] = []
        push = heapq.heappush
        pop = heapq.heappop
        if full:
            for v in affected:
                best = INF
                best_parent = -1
                for w, u in adjacency[v]:
                    if not affect[u]:
                        nd = dist[u] + w
                        if nd < best:
                            best = nd
                            best_parent = u
                if best_parent >= 0:
                    dist[v] = best
                    parent[v] = best_parent
                    push(heap, (best, v))
        else:
            for v in affected:
                best = INF
                best_parent = -1
                for w, u in adjacency[v]:
                    if not affect[u] and settled[u]:
                        nd = dist[u] + w
                        if nd < best:
                            best = nd
                            best_parent = u
                if best_parent >= 0:
                    dist[v] = best
                    parent[v] = best_parent
                    push(heap, (best, v))
        while heap:
            d, v = pop(heap)
            if d > dist[v]:
                continue
            for w, u in adjacency[v]:
                if affect[u]:
                    nd = d + w
                    if nd < dist[u]:
                        dist[u] = nd
                        parent[u] = v
                        push(heap, (nd, u))
        if not full:
            cutoff = row.cutoff
            for v in affected:
                # Demotion contract: a repaired label strictly above the
                # original settle frontier may route through never-settled
                # territory, so it is demoted; a label exactly *on* the
                # cutoff is still provably exact (any path through
                # never-settled territory costs at least the cutoff) and
                # stays settled.  Must match :func:`_repair_row` exactly.
                settled[v] = 1 if dist[v] <= cutoff else 0
    _relax_leafs(adjacency, row, leafs, affect)


def _relax_leafs(
    adjacency: List[Tuple[Tuple[float, int], ...]],
    row: "_Row",
    leafs: Iterable[Tuple[int, int]],
    affect,
) -> None:
    """Repair a row's ``(leaf, anchor)`` jobs by one relaxation each.

    Runs after the row's regions are repaired.  A leaf inside a repaired
    region (``affect[leaf]``) was swept into it and is skipped; any other
    leaf gets ``dist[anchor] + w`` over its single edge, parent
    unchanged.  An unreachable anchor leaves the leaf detached
    (INF/-1), as the region seeding would: it finds no boundary parent.
    """
    dist = row.dist
    parent = row.parent
    for leaf, anchor in leafs:
        if affect[leaf]:
            continue
        d = dist[anchor]
        if d == INF:
            dist[leaf] = INF
            parent[leaf] = -1
        else:
            dist[leaf] = d + adjacency[leaf][0][0]


class _SharedRegion:
    """One detached region -- a dense root's subtree -- shared across rows.

    Scoped to a single patch (the stored boundary/internal weights are
    only valid until the next weight change).  Built from the first
    member row's child walk; the other member rows *verify* membership in
    O(region + boundary) each -- strictly less than rediscovering the
    region from the adjacency, and one whole-block pass for all of them
    (:meth:`match_rows`) -- and then reuse:

    - ``member``: node-membership bytearray, served read-only as the
      row's ``affect`` set when the row repairs nothing else;
    - ``nodes``: the region's node list (walk order; order is
      outcome-irrelevant, every consumer is value-ordered or idempotent);
    - ``seed_items``: the boundary nodes with their ``(weight,
      neighbor)`` pairs in adjacency order -- the re-dijkstra seed scan
      touches only these instead of every region node's full adjacency
      (a node with no boundary edge can never be seeded);
    - ``inner``: per region node, its region-internal ``(weight,
      neighbor)`` pairs, so the re-dijkstra inner loop skips the
      membership test per edge.

    A row's region equals this one iff every non-root member's parent is
    a member, the root's parent is not, and no boundary edge points
    *into* the region (``parent[outside] == inside``): the first two make
    the member set a subset of the root's subtree (parent chains cannot
    leave it except through the root), the last makes it a superset
    (a subtree node outside the member set would have to enter through a
    boundary edge).
    """

    __slots__ = ("root", "member", "nodes", "seed_items", "inner",
                 "_mask", "_reach_mask", "_arrays", "_solo")

    def __init__(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        parent: List[int],
        root: int,
        n: int,
    ) -> None:
        member = bytearray(n)
        nodes: List[int] = [root]
        member[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for w, u in adjacency[v]:
                if parent[u] == v and not member[u]:
                    member[u] = 1
                    nodes.append(u)
                    stack.append(u)
        seed_items: List[Tuple[int, Tuple[Tuple[float, int], ...]]] = []
        inner: List[Optional[Tuple[Tuple[float, int], ...]]] = [None] * n
        for v in nodes:
            out_row = []
            in_row = []
            for pair in adjacency[v]:
                if member[pair[1]]:
                    in_row.append(pair)
                else:
                    out_row.append(pair)
            if out_row:
                seed_items.append((v, tuple(out_row)))
            inner[v] = tuple(in_row)
        self.root = root
        self.member = member
        self.nodes = nodes
        self.seed_items = seed_items
        self.inner = inner
        self._mask = None
        self._reach_mask = None
        self._arrays = None
        self._solo = None

    def match_rows(self, parent: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Which rows ``slots`` of a block have exactly this region below ``root``.

        ``parent`` is an arena block's ``(rows, n)`` parent array; the
        result holds one verdict per slot.  A ``-1`` parent wraps to the
        last member byte under numpy fancy indexing, but its ``>= 0``
        conjunct is already False, so the wrapped read can never flip
        the outcome.
        """
        tail_np, member_view, seed_u, seed_v_rep = self.arrays()[:4]
        p = parent[slots, self.root]
        ok = (p < 0) | (member_view[p] == 0)
        if tail_np.size:
            tp = parent[slots[:, None], tail_np]
            ok &= ((tp >= 0) & (member_view[tp] == 1)).all(axis=1)
        if seed_u.size:
            ok &= ~(parent[slots[:, None], seed_u] == seed_v_rep).any(axis=1)
        return ok

    def arrays(self):
        """Numpy companions of the region structures (lazy, per patch).

        ``(tail_np, member_view, seed_u, seed_v_rep, nodes_np, seed_v,
        seed_w, seed_starts, seed_lens)`` -- the membership/boundary data
        re-expressed as flat arrays so :meth:`match_rows` and the
        re-dijkstra's reset/seed/settle scans run as whole-array ops.
        """
        arrays = self._arrays
        if arrays is None:
            nodes_np = np.fromiter(self.nodes, np.int64, len(self.nodes))
            tail_np = nodes_np[1:]
            member_view = _u8(self.member)
            seed_v = [v for v, _ in self.seed_items]
            lens = np.fromiter(
                (len(seed) for _, seed in self.seed_items),
                np.int64, len(seed_v),
            )
            flat_u: List[int] = []
            flat_w: List[float] = []
            for _, seed in self.seed_items:
                for w, u in seed:
                    flat_u.append(u)
                    flat_w.append(w)
            seed_u = np.fromiter(flat_u, np.int64, len(flat_u))
            seed_w = np.fromiter(flat_w, np.float64, len(flat_w))
            starts = np.zeros(len(seed_v), dtype=np.int64)
            if len(seed_v) > 1:
                np.cumsum(lens[:-1], out=starts[1:])
            seed_v_rep = (
                np.repeat(np.fromiter(seed_v, np.int64, len(seed_v)), lens)
                if len(seed_v) else seed_u
            )
            arrays = self._arrays = (
                tail_np, member_view, seed_u, seed_v_rep, nodes_np,
                seed_v, seed_w, starts, lens,
            )
        return arrays

    def solo_solve(self):
        """The region solved once from its single boundary node (cached).

        Only meaningful for bridge-detached regions (exactly one boundary
        node ``v0``): a Dijkstra over :attr:`inner` from ``dist[v0] = 0``
        whose acceptance order, final tree and *separation margin* let
        :meth:`apply_offset` replay the identical float additions per
        member row from the row's own seed distance.  Returns ``(margin,
        maxd, depth, j0, steps, template)``: the separation margin, the
        largest label and the tree depth the drift bound reads, then the
        replay over the region's columns (``nodes`` order) -- ``j0`` is
        the boundary node's column, ``steps`` lists ``(child column,
        parent column, edge weight)`` in a topological order of the
        final tree, and ``template`` holds every node's final parent.
        Returns ``None`` when the region is not offset-eligible (several
        boundary nodes, or an exact tie makes the margin zero).

        The margin is the smallest nonzero gap between any two candidate
        labels the solve ever computed: every comparison the per-row
        re-dijkstra makes is between two such labels, so a margin wider
        than the accumulated-rounding drift bound guarantees no
        comparison outcome can flip when the whole solve is re-run from a
        nonzero base -- float addition is monotone, so strict orders can
        only collapse, never invert, and the margin rules collapses out.
        A zero margin (an exact tie between distinct labels) disables the
        offset: two different summation paths that tie at base zero may
        round apart at a nonzero base.
        """
        solo = self._solo
        if solo is None:
            if len(self.seed_items) != 1:
                solo = self._solo = (None,)
                return None
            v0 = self.seed_items[0][0]
            inner = self.inner
            dist: Dict[int, float] = {v0: 0.0}
            parent: Dict[int, int] = {}
            depth: Dict[int, int] = {v0: 0}
            labels: List[float] = [0.0]
            heap: List[Tuple[float, int]] = [(0.0, v0)]
            push = heapq.heappush
            pop = heapq.heappop
            order: List[Tuple[int, int, float]] = []
            while heap:
                d, v = pop(heap)
                if d > dist[v]:
                    continue
                for w, u in inner[v]:
                    nd = d + w
                    labels.append(nd)
                    known = dist.get(u)
                    if known is None or nd < known:
                        dist[u] = nd
                        parent[u] = v
                        depth[u] = depth[v] + 1
                        push(heap, (nd, u))
            labels.sort()
            margin = INF
            for a, b in zip(labels, labels[1:]):
                gap = b - a
                if gap < margin:
                    margin = gap
                    if margin == 0.0:
                        break
            if margin == 0.0:
                # An exact tie between two independently-summed labels:
                # they may round apart once re-based, so no margin bound
                # can clear the offset replay.
                solo = self._solo = (None,)
                return None
            # Topological application order: sort members by final label
            # (parents settle strictly before children -- weights with a
            # zero-weight inner edge would tie, but a tie already zeroed
            # the margin above), tie-impossible hence deterministic.
            ordered = sorted(
                ((d, u) for u, d in dist.items() if u != v0)
            )
            for d, u in ordered:
                p = parent[u]
                for w, x in inner[u]:
                    if x == p and dist[p] + w == d:
                        order.append((u, p, w))
                        break
                else:  # pragma: no cover - tree edge always present
                    solo = self._solo = (None,)
                    return None
            maxd = max(dist.values())
            max_depth = max(depth.values())
            # The replay over the region's columns (``nodes`` order):
            # per step ``(child column, parent column, weight)``, and the
            # parent every replayed row ends with (``-1`` for a node the
            # solve never reached, which stays at the reset).
            column = {v: j for j, v in enumerate(self.nodes)}
            steps = [(column[u], column[p], w) for u, p, w in order]
            template = np.full(len(self.nodes), -1, dtype=np.int64)
            for u, p, _ in order:
                template[column[u]] = p
            solo = self._solo = (margin, maxd, max_depth, column[v0],
                                 steps, template)
        return None if solo[0] is None else solo

    def offset_seeds(self, dist: np.ndarray, slots: np.ndarray, settled=None):
        """Seed the lone boundary node for rows ``slots`` of one block.

        The row-side half of the single-boundary shared solve, over
        several rows at once: scan the boundary node's seed candidates
        as the heap path would (first strict minimum of ``dist[u] + w``,
        over settled neighbours only when ``settled`` -- one row's
        settle flags -- is given), then test the drift bound at each
        row's base.  ``dist`` is an arena block's distance array.
        Returns ``(best, src, ok)`` per slot: the seed distance and its
        boundary parent, and whether :meth:`apply_offset` may repair the
        row.  A row with no finite seed is ``ok``: the heap path would
        push nothing, so its region stays at the INF/-1 reset.  A row
        whose margin does not clear the drift bound is not: the caller
        repairs this region with the heap path instead.  Only call when
        :meth:`solo_solve` is not ``None``.
        """
        margin, maxd, depth = self.solo_solve()[:3]
        arrays = self.arrays()
        seed_u, seed_w = arrays[2], arrays[6]
        vals = dist[slots[:, None], seed_u] + seed_w
        if settled is not None:
            vals = np.where(settled[seed_u] != 0, vals, INF)
        pick = vals.argmin(axis=1)
        best = vals[np.arange(len(slots)), pick]
        drift = (
            (best + maxd) * _EPS * (_OFFSET_ULPS_PER_LEVEL * (depth + 1)
                                    + _OFFSET_ULPS_BASE)
        )
        return best, seed_u[pick], (best == INF) | (margin > drift)

    def apply_offset(
        self, dist: np.ndarray, parent: np.ndarray, slots: np.ndarray,
        best: np.ndarray, src: np.ndarray,
    ) -> int:
        """Write this region into rows ``slots`` of one block by offsets.

        Every region node starts at the INF/-1 reset.  A row with a
        finite seed ``best`` (from :meth:`offset_seeds`) then gets
        ``dist[v0] = best`` with parent ``src``, and the solo tree's
        additions ``dist[child] = dist[parent] + w`` replayed in
        topological order: literally the float expression sequence the
        per-row re-dijkstra evaluates, so rows stay bit-identical.  One
        numpy column operation per tree edge serves every row.  Returns
        how many rows were replayed from a finite seed.
        """
        j0, steps, template = self.solo_solve()[3:]
        columns = self.arrays()[4]
        # Region-major work array, so each replay step is a contiguous row.
        sub_d = np.full((len(columns), len(slots)), INF)
        sub_p = np.full((len(slots), len(columns)), -1, dtype=np.int64)
        live = best < INF
        replayed = int(np.count_nonzero(live))
        if replayed:
            sub_d[j0] = best
            for ju, jp, w in steps:
                sub_d[ju] = sub_d[jp] + w
            sub_p[live] = template
            sub_p[live, j0] = src[live]
        at = slots[:, None]
        dist[at, columns] = sub_d.T
        parent[at, columns] = sub_p
        return replayed

    @property
    def mask(self) -> int:
        """The member set as a big int (one byte per node, 0/1 values)."""
        if self._mask is None:
            self._mask = int.from_bytes(self.member, "little")
        return self._mask

    @property
    def reach_mask(self) -> int:
        """``mask`` extended by the boundary targets (adjacency closure)."""
        if self._reach_mask is None:
            reach = bytearray(self.member)
            for _, seed in self.seed_items:
                for _, u in seed:
                    reach[u] = 1
            self._reach_mask = int.from_bytes(reach, "little")
        return self._reach_mask


def _combine_regions(
    regions: List[_SharedRegion], n: int
) -> Tuple[bytearray, Optional[List]]:
    """Merge several shared regions into one read-only repair context.

    Returns ``(member, inner)``: the union membership bytearray (valid
    for any region combination, including nested subtrees) and, when the
    regions are pairwise disjoint *and* non-adjacent -- so no repair path
    can cross between them directly -- the merged region-internal
    adjacency; ``inner`` is ``None`` otherwise and the caller's
    re-dijkstra falls back to membership-tested full-adjacency scans.
    The adjacency test is one-sided on purpose: an edge between two
    regions appears in both boundaries, so accumulating ``reach_mask``
    and testing each next region's ``mask`` against it sees every
    offending pair.
    """
    union = 0
    for region in regions:
        union |= region.mask
    member = bytearray(union.to_bytes(n, "little"))
    acc = 0
    mergeable = True
    for region in regions:
        if acc & region.mask:
            mergeable = False
            break
        acc |= region.reach_mask
    inner = None
    if mergeable:
        inner = [None] * n
        for region in regions:
            region_inner = region.inner
            for v in region.nodes:
                inner[v] = region_inner[v]
    return member, inner


def _region_clashes(regions: List[_SharedRegion]) -> np.ndarray:
    """Which pairs of shared regions are *not* islands of each other.

    ``clash[i, j]`` is 1 when regions ``i`` and ``j`` overlap or are
    adjacent (either one's :attr:`~_SharedRegion.reach_mask` meets the
    other's :attr:`~_SharedRegion.mask`), else 0.  A set of regions
    merges in :func:`_combine_regions` exactly when no pair of it
    clashes.
    """
    clash = np.zeros((len(regions), len(regions)), dtype=np.intp)
    for i, one in enumerate(regions):
        for j in range(i):
            other = regions[j]
            if one.reach_mask & other.mask or other.reach_mask & one.mask:
                clash[i, j] = clash[j, i] = 1
    return clash


def _repair_row_shared(
    adjacency: List[Tuple[Tuple[float, int], ...]],
    row: "_Row",
    hits: List[_SharedRegion],
    walk_roots: Iterable[int],
    leafs: Iterable[Tuple[int, int]],
    union_cache: Dict,
) -> bool:
    """Apply one plan's increase repairs using shared region structures.

    Bit-identical to :func:`_repair_row_planned` over ``hits``'s roots
    plus ``walk_roots``: the affected set is the union of the shared
    regions (verified to equal this row's subtrees) and the per-row walk
    of any unshared roots; seeding and the re-dijkstra perform the same
    value-ordered relaxations, reading boundary candidates from the
    shared seed lists instead of full adjacency scans.  Overlapping
    (nested-subtree) hits may seed a node twice -- idempotent, the
    second pass recomputes the same minimum from the same intact
    neighbors.

    Returns whether every hit region was repaired by the single-boundary
    offset solve.  Bridge-detached regions -- exactly one boundary node
    -- repair through :meth:`_SharedRegion.apply_offset`: the region is
    solved once and each row replays the solve's additions from its own
    boundary seed distance, skipping the per-row heap.  Only engaged
    when ``inner`` is shared (regions are independent islands, so
    removing one from the merged heap cannot perturb another), and only
    when the region's separation margin provably survives the re-based
    rounding -- every other case falls back to the heap path, so results
    stay bit-identical.  The reset, shared boundary-seed and settle
    scans run as whole-array numpy ops over the row's label buffers
    (same values: the scans are pure gathers/constant stores and the
    seed scan keeps the first-strict-minimum selection rule).

    This is the per-row path of a shared-region repair.  Rows whose
    every region takes the offset solve are usually repaired by their
    group in :meth:`FrozenOracle._patch_rows` instead; this function
    handles the rows that group pass leaves: early-stopped rows, rows
    with walked roots or non-island hits, and rows the drift guard
    refused.  Its offset solve is the same pair of slot-based methods
    the group pass runs, on the row's one slot.
    """
    dist = row.dist
    parent = row.parent
    settled = row.settled
    full = row.full
    n = len(dist)
    if not full and row.cutoff is None:
        row.cutoff = max(
            (dist[v] for v in range(n) if settled[v]), default=0.0
        )

    inner = None
    walked: List[int] = []
    if not walk_roots:
        if len(hits) == 1:
            region = hits[0]
            affect = region.member  # read-only
            inner = region.inner
        else:
            # Hits follow the plan's classification order, which is the
            # same for every row, so a plain tuple key hits the cache.
            key = tuple(map(id, hits))
            cached = union_cache.get(key)
            if cached is None:
                cached = _combine_regions(hits, n)
                union_cache[key] = cached
            affect, inner = cached  # read-only
    else:
        mask = 0
        for region in hits:
            mask |= region.mask
        affect = bytearray(mask.to_bytes(n, "little"))
        stack = []
        for r in walk_roots:
            if not affect[r]:
                affect[r] = 1
                stack.append(r)
        while stack:
            v = stack.pop()
            walked.append(v)
            for w, u in adjacency[v]:
                if parent[u] == v and not affect[u]:
                    affect[u] = 1
                    stack.append(u)

    dview = _f8(dist)
    pview = _i8(parent)
    for region in hits:
        nodes_np = region.arrays()[4]
        dview[nodes_np] = INF
        pview[nodes_np] = -1
    for v in walked:
        dist[v] = INF
        parent[v] = -1

    heap: List[Tuple[float, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    heap_hits = hits
    if inner is not None:
        # Bridge-detached regions solve once and replay per row; a region
        # whose margin check fails stays at the INF/-1 reset and falls
        # back to the ordinary heap seeding below.  Island independence
        # (``inner is not None`` means pairwise disjoint, non-adjacent
        # regions) makes the partition exact: the merged heap's
        # relaxations never cross regions, so removing one region's
        # entries cannot change any other's repair.
        heap_hits = []
        sview = None if full else _u8(settled)
        block = row.block
        at = np.array([row.slot])
        for region in hits:
            if region.solo_solve() is not None:
                best, src, ok = region.offset_seeds(block.dist, at, sview)
                if ok[0]:
                    region.apply_offset(
                        block.dist, block.parent, at, best, src
                    )
                    continue
            heap_hits.append(region)
        # Whole-array boundary seeding.  ``inner is not None`` guarantees
        # every seed target lies outside all regions (``not affect[u]``
        # is vacuously true), so the scan reduces to a masked gather plus
        # a first-strict-minimum per boundary segment -- exactly the
        # selection the per-node loop of the ``else`` branch makes.
        for region in heap_hits:
            arrays = region.arrays()
            seed_u, seed_v, seed_w, starts, lens = (
                arrays[2], arrays[5], arrays[6], arrays[7], arrays[8]
            )
            if not seed_v:
                continue
            vals = dview[seed_u] + seed_w
            if sview is not None:
                vals = np.where(sview[seed_u] != 0, vals, INF)
            mins = np.minimum.reduceat(vals, starts)
            size = vals.size
            firsts = np.minimum.reduceat(
                np.where(
                    vals == np.repeat(mins, lens), np.arange(size), size
                ),
                starts,
            )
            for k, v in enumerate(seed_v):
                best = mins[k]
                if best < INF:
                    best = float(best)
                    dist[v] = best
                    parent[v] = int(seed_u[firsts[k]])
                    push(heap, (best, v))
    else:
        for region in heap_hits:
            for v, seed in region.seed_items:
                best = INF
                best_parent = -1
                for w, u in seed:
                    if not affect[u] and (full or settled[u]):
                        nd = dist[u] + w
                        if nd < best:
                            best = nd
                            best_parent = u
                if best_parent >= 0:
                    dist[v] = best
                    parent[v] = best_parent
                    push(heap, (best, v))
    for v in walked:
        best = INF
        best_parent = -1
        for w, u in adjacency[v]:
            if not affect[u] and (full or settled[u]):
                nd = dist[u] + w
                if nd < best:
                    best = nd
                    best_parent = u
        if best_parent >= 0:
            dist[v] = best
            parent[v] = best_parent
            push(heap, (best, v))

    if inner is not None:
        while heap:
            d, v = pop(heap)
            if d > dist[v]:
                continue
            for w, u in inner[v]:
                nd = d + w
                if nd < dist[u]:
                    dist[u] = nd
                    parent[u] = v
                    push(heap, (nd, u))
    else:
        while heap:
            d, v = pop(heap)
            if d > dist[v]:
                continue
            for w, u in adjacency[v]:
                if affect[u]:
                    nd = d + w
                    if nd < dist[u]:
                        dist[u] = nd
                        parent[u] = v
                        push(heap, (nd, u))

    if not full:
        cutoff = row.cutoff
        sview = _u8(settled)
        for region in hits:
            nodes_np = region.arrays()[4]
            sview[nodes_np] = dview[nodes_np] <= cutoff
        for v in walked:
            settled[v] = 1 if dist[v] <= cutoff else 0

    _relax_leafs(adjacency, row, leafs, affect)
    return not heap_hits


class _Row:
    """One cached single-source result inside :class:`FrozenOracle`.

    The labels live in slot ``slot`` of arena block ``block`` (see
    :mod:`repro.graph.rowcache`); ``dist``/``parent`` are ``memoryview``
    rows of that slot, so scalar reads return plain Python floats/ints
    and :func:`_f8`/:func:`_i8` wrap the same memory zero-copy.  When
    the row store drops the row it frees the slot and sets ``block``,
    ``dist`` and ``parent`` to ``None``: a dropped row cannot read labels
    another row's install may have written since.

    ``stale`` marks a row that survived (was repaired by) an edge-cost
    patch.  Its distances are exact and its parent tree is a valid
    shortest-path tree under the *current* costs -- repair rebuilds every
    region a change can reach -- so both distance and path queries serve
    from it directly; only equal-cost tie-breaks may differ from what a
    cold rebuild would pick.  A stale row that no longer covers a queried
    target (a repair demoted it below the settle cutoff) is recomputed
    like a cold miss instead of being upgraded to a full row.
    """

    __slots__ = ("dist", "parent", "block", "slot", "settled", "full",
                 "stale", "cutoff", "used")

    def __init__(
        self,
        block: RowBlock,
        slot: int,
        settled: Optional[bytearray],
        full: bool,
    ) -> None:
        self.block = block
        self.slot = slot
        self.dist = memoryview(block.dist[slot])
        self.parent = memoryview(block.parent[slot])
        self.settled = settled
        self.full = full
        self.stale = False
        #: Original settle frontier (early-stopped rows), filled lazily by
        #: the first repair.
        self.cutoff = None
        #: Served since the last patch?  Rows idle across a whole patch
        #: interval are dropped rather than repaired -- dead rows (e.g. a
        #: past request's terminals) would otherwise be repaired forever.
        self.used = True


class FrozenOracle:
    """Caching shortest-path oracle with an interned fast core.

    API-compatible with :class:`~repro.graph.shortest_paths.DistanceOracle`
    (``graph``, ``distance``, ``path``, ``distances_from``, ``invalidate``).
    On small graphs it returns bit-identical distances *and* paths, because
    the underlying array Dijkstra replicates the dict implementation's
    relaxation order; on large graphs (>= :data:`CONTRACT_MIN_INTERIOR`
    contractible relay nodes) it switches to the degree-2-contracted core,
    which keeps distances exact but may pick a different -- equally short
    -- path when several shortest paths tie.

    The ``hot`` set names the nodes a workload will query repeatedly (for a
    SOF instance: sources, VMs and destinations).  Hot nodes are never
    contracted away, and uncontracted rows are computed with early
    termination once every hot node is settled.

    Undirected symmetry contract: ``distance(u, v) == distance(v, u)``, and
    the oracle is free to answer either direction from whichever row is
    cheapest to obtain.
    """

    def __init__(
        self,
        graph: Graph,
        hot: Optional[Iterable[Node]] = None,
        patchable: bool = False,
        planner: bool = True,
        share_regions: bool = True,
        row_budget_bytes: Optional[int] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self._graph = graph
        self._hot: set = set(hot) if hot is not None else set()
        #: Patchable oracles expect edge-cost churn: rows run to exhaustion
        #: instead of early-stopping at the hot set, so repairs never meet
        #: the settle frontier (no demotions, no cold re-misses).  Served
        #: values are bit-identical either way -- exhaustion only extends
        #: the relaxation sequence beyond the early stop point.
        self._patchable = patchable
        #: ``planner=True`` (the default) drives row repairs from a shared
        #: per-patch :class:`_PatchPlan`; ``planner=False`` keeps the
        #: historical per-row rescan repair as the equivalence reference.
        #: Served results are bit-identical either way.
        self._planner = planner
        #: ``share_regions=True`` (the default) lets dense planned patches
        #: repair rows grouped by detached region through shared
        #: :class:`_SharedRegion` structures; ``share_regions=False``
        #: keeps the per-row region rediscovery as the equivalence
        #: reference.  Served results are bit-identical either way.
        self._share_regions = share_regions
        #: Observability (PR 10): ``metrics=`` carries a
        #: :class:`~repro.obs.recorder.Recorder` that the instrumented
        #: seams (cold builds, patch repairs, cache snapshots, batch
        #: queries) report into.  ``None`` (the
        #: default) and the falsy :data:`~repro.obs.recorder.NULL_RECORDER`
        #: keep every hot path on a single truthiness check --
        #: zero-overhead and bit-identical, the same flag-gated-reference
        #: discipline as the other knobs.  Recording never feeds back
        #: into algorithm state, so served values are identical either
        #: way.
        self._metrics = metrics if metrics else None
        if self._metrics is not None and getattr(
            self._metrics, "registry", None
        ) is not None:
            # Region-share group sizes are row counts, not durations;
            # give their histogram size-flavoured buckets.
            self._metrics.registry.declare_histogram(
                "oracle.repair.share_group_rows",
                (1, 4, 16, 64, 256, 1024, 4096),
            )
        #: Canonical node pairs currently tombstoned in the built cores.
        #: A removed edge's CSR slots persist at weight ``inf``, so an
        #: edge may only be (re)inserted while its slots still exist --
        #: i.e. while its pair is recorded here.
        self._tombstones: set = set()
        self._core: Optional[IndexedGraph] = None
        self._contracted: Optional[_ContractedCore] = None
        self._built = False
        self._hot_ids: List[int] = []
        #: The row store (:class:`~repro.graph.rowcache.RowCache`): owns
        #: per-row byte accounting and every eviction policy -- the
        #: idle-at-patch drop, unbounded-repair drops and cost-aware
        #: budget eviction under ``row_budget_bytes``.  ``None`` (the
        #: default) keeps today's unbounded behavior bit-identically;
        #: with a budget, residency is enforced at the oracle's
        #: consistency boundaries (after each row install, at the end of
        #: each patch), so a budgeted oracle serves the same values and
        #: only residency/recompute work differ.
        self._rows: RowCache = RowCache(row_budget_bytes)
        self._slow_rows: Dict[Node, Tuple[Dict[Node, float], Dict[Node, Node]]] = {}
        #: Per-node query counters.  A ``Counter`` rather than a plain
        #: dict so the batched entry points can bump a whole target list
        #: with one C-speed ``update`` -- reads stay dict-compatible.
        self._queries: Counter = Counter()
        self._paths: Dict[Tuple[Node, Node], List[Node]] = {}

    @property
    def graph(self) -> Graph:
        """The underlying graph (must not be mutated while cached)."""
        return self._graph

    @property
    def row_budget_bytes(self) -> Optional[int]:
        """Row-cache residency budget in bytes (``None`` = unbounded)."""
        return self._rows.budget_bytes

    @property
    def metrics(self):
        """The attached recorder, or ``None`` when observability is off."""
        return self._metrics

    def cache_snapshot(self, scope: str = "oracle") -> Dict[str, Optional[int]]:
        """Unified cache snapshot (schema :data:`CACHE_SNAPSHOT_SCHEMA`).

        The :meth:`RowCache.stats` counters (rows resident, accounted
        bytes, peak, hits/misses, evictions by policy, budget
        overshoots), tagged with the schema version and the reporting
        ``scope``.  The documented shape every layer shares: see
        :mod:`repro.obs` for the full key table.  When a recorder is attached, the same numbers are also
        folded into the registry as ``<scope>.cache.*`` gauges.
        """
        stats = self._rows.stats()
        mx = self._metrics
        if mx:
            self._publish_cache(mx, scope)
        stats["schema"] = CACHE_SNAPSHOT_SCHEMA
        stats["scope"] = scope
        return stats

    def _publish_cache(self, mx, scope: str = "oracle") -> None:
        """Fold the cache counters into the registry as gauges."""
        self._rows.publish(mx, prefix=f"{scope}.cache")

    def _freeze_row(self, dist, parent, settled, full) -> _Row:
        """Copy freshly-computed labels into a new arena slot.

        The single chokepoint between the Dijkstra cores and the cache:
        the heap loops hand over plain lists, the numpy row kernels and
        :meth:`rebased` hand over ``float64``/``int64`` arrays, and both
        are copied value for value into a slot the row store allocates
        (see :class:`_Row`).  The row is not installed yet; the caller
        installs it through the row store, which owns the slot from then
        on.
        """
        block, slot = self._rows.alloc(len(dist))
        block.dist[slot] = dist
        block.parent[slot] = parent
        return _Row(block, slot, settled, full)

    def _build(self) -> None:
        if self._built:
            return
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        if self._hot and _costs_mostly_distinct(self._graph):
            contracted = _ContractedCore(self._graph, self._hot)
            if len(contracted.interior) >= CONTRACT_MIN_INTERIOR:
                self._contracted = contracted
        if self._contracted is None:
            self._core = IndexedGraph.from_graph(self._graph)
            index = self._core.index
            self._hot_ids = [index[n] for n in self._hot if n in index]
        self._built = True
        if mx:
            mx.span(
                "oracle.build", t0,
                kind="contracted" if self._contracted is not None else "core",
            )

    @property
    def core(self) -> IndexedGraph:
        """The uncontracted interned core (built on demand)."""
        if self._core is None:
            self._core = IndexedGraph.from_graph(self._graph)
            if self._contracted is None:
                index = self._core.index
                self._hot_ids = [index[n] for n in self._hot if n in index]
            self._built = True
        return self._core

    @property
    def contracted(self) -> Optional[_ContractedCore]:
        """The contracted core, or ``None`` when contraction is inactive."""
        self._build()
        return self._contracted

    def warm(self, nodes: Iterable[Node]) -> None:
        """Precompute rows for ``nodes`` (one Dijkstra each, cached).

        Sweeps that will query *from or to* every node of a set should
        warm it first: afterwards any ``distance`` query touching the set
        is served from an existing row by undirected symmetry.
        """
        self.prefetch_rows(nodes)

    def prefetch_rows(self, nodes: Iterable[Node]) -> None:
        """Precompute rows for ``nodes``: touch cached ones, build the rest.

        Cached rows are marked ``used``; missing rows are built and
        installed in the callers' node order, so the resulting cache
        state is deterministic.  Callers that know their working set up
        front (:meth:`~repro.core.problem.SOFInstance.metric_block`, the
        online simulator's VM-pool warms) route here so cold batches are
        discoverable.  Uncontracted full rows (patchable or hot-less
        oracles) are built in batches by the numpy row kernel
        (:meth:`_full_rows`, :meth:`IndexedGraph.batch_rows`).
        """
        self._build()
        contracted = self._contracted
        index = contracted.index if contracted is not None else self.core.index
        missing: List[int] = []
        seen: set = set()
        for node in nodes:
            source_id = index.get(node)
            if source_id is None:
                continue
            row = self._rows.get(source_id)
            if row is None:
                if source_id not in seen:
                    seen.add(source_id)
                    missing.append(source_id)
            else:
                row.used = True
        if contracted is not None:
            for source_id in missing:
                self._contracted_row(source_id)
        elif self._early_stop:
            for source_id in missing:
                self._compute(source_id, None)
        else:
            self._full_rows(missing)

    def extend_hot(self, nodes: Iterable[Node]) -> None:
        """Add nodes to the hot set (affects future row computations).

        If a newly hot node was contracted away, the core is rebuilt so
        the node becomes a first-class anchor again.
        """
        fresh = set(nodes) - self._hot
        if not fresh:
            return
        self._hot |= fresh
        if not self._built:
            return
        if self._contracted is not None:
            if any(n in self._contracted.interior for n in fresh):
                self.invalidate()
            return
        index = self._core.index
        # Sorted so the target list is hash-seed-independent; dijkstra
        # flattens targets into per-id flags, so order never reaches rows.
        self._hot_ids.extend(sorted(index[n] for n in fresh if n in index))

    def invalidate(self) -> None:
        """Drop all cached state (call after mutating the graph)."""
        self._core = None
        self._contracted = None
        self._built = False
        self._tombstones.clear()
        self._hot_ids = []
        self._rows.clear()
        self._slow_rows.clear()
        self._queries.clear()
        self._paths.clear()

    # ------------------------------------------------------------------
    # incremental edge-cost patching
    # ------------------------------------------------------------------
    def patch_edge_costs(
        self, changed: Mapping[Tuple[Node, Node], float]
    ) -> int:
        """Apply pure edge-*cost* updates without a full rebuild.

        ``changed`` maps ``(u, v)`` pairs to new costs.  Pairs are
        deduplicated by canonical edge key first: a batch naming the same
        edge twice (typically once per orientation) applies only the
        *last* mapping-order entry -- the same last-write-wins rule a
        caller looping ``graph.add_edge`` would get -- so the batch can
        never double-patch CSR weights or hand the repair plan two
        contradictory ``old`` costs for one edge.  Every pair must
        already be an edge: topology changes still require
        :meth:`invalidate`.  New costs are written into the underlying
        graph, the CSR weight arrays and contracted chain weights are
        patched in place, and cached rows are *repaired*
        (Ramalingam--Reps style: only the region below a changed tree
        edge or reachable from a decreased edge is recomputed) instead
        of recomputed from scratch; a row is evicted only when its repair
        cannot be bounded (an improving decrease against an early-stopped
        row).  With ``planner=True`` (the default) the changed batch is
        classified once per patch into a shared :class:`_PatchPlan` that
        drives every row's repair; ``planner=False`` keeps the historical
        per-row rescans, bit-identically.

        Returns the number of (deduplicated) edges whose cost actually
        changed.
        """
        graph = self._graph
        merged: Dict[Tuple[Node, Node], Tuple[Node, Node, float]] = {}
        for (u, v), cost in changed.items():
            merged[canonical_edge(u, v)] = (u, v, float(cost))
        # Validate the whole batch before writing anything: a missing edge
        # or an invalid cost must not leave the graph half-mutated with
        # the oracle unpatched.  ``not (cost >= 0.0)`` catches NaN too --
        # every comparison against NaN is False, so it would otherwise
        # slip through the ``cost != old`` gate and poison CSR weights.
        applied: List[Tuple[Node, Node, float, float]] = []
        for u, v, cost in merged.values():
            if not (cost >= 0.0) or math.isinf(cost):
                raise ValueError(
                    f"edge cost must be finite and non-negative, got "
                    f"{cost!r} for edge ({u!r}, {v!r})"
                )
            old = graph.cost(u, v)
            if cost != old:
                applied.append((u, v, old, cost))
        for u, v, _, cost in applied:
            graph.add_edge(u, v, cost)
        if not applied or not self._built:
            # Unbuilt oracles carry no interned core or rows yet: the
            # graph now holds the patched costs, and the eventual
            # ``_build`` (and its contraction/continuity probes) reads
            # them from there, exactly as if the oracle had been
            # constructed over the patched graph.
            return len(applied)
        # Exact-but-uncached side caches cannot be patched selectively, and
        # the row-root heuristic counts are reset exactly as a rebuild
        # would, so both paths grow the same row set afterwards.
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        self._slow_rows.clear()
        self._paths.clear()
        self._queries.clear()
        if self._contracted is not None:
            pair_updates = self._contracted.patch_edges(
                (u, v, cost) for u, v, _, cost in applied
            )
            self._patch_rows(self._contracted.rows, pair_updates)
            if self._core is not None:
                index = self._core.index
                self._core.patch_edges(
                    (index[u], index[v], cost) for u, v, _, cost in applied
                )
        else:
            index = self._core.index
            id_changes = [
                (index[u], index[v], old, cost) for u, v, old, cost in applied
            ]
            self._core.patch_edges(
                (a, b, cost) for a, b, _, cost in id_changes
            )
            self._patch_rows(self._core._rows, id_changes)
        if mx:
            mx.inc("oracle.patch.edges", len(applied))
            mx.span("oracle.patch.costs", t0,
                    trace_args={"edges": len(applied)})
            self._publish_cache(mx)
        return len(applied)

    # ------------------------------------------------------------------
    # incremental edge-topology patching (link failure / recovery)
    # ------------------------------------------------------------------
    def insertable(self, u: Node, v: Node) -> bool:
        """Can ``patch_topology(inserted={(u, v): ...})`` apply in place?

        True while the oracle is unbuilt (the build reads the mutated
        graph), and otherwise only when the edge holds a tombstoned CSR
        slot from an earlier removal -- the frozen core cannot grow slots
        for brand-new edges, so reviving an edge that died *before* the
        first build needs an :meth:`invalidate`.
        """
        if not self._built:
            return True
        return canonical_edge(u, v) in self._tombstones

    def patch_topology(
        self,
        removed: Iterable[Tuple[Node, Node]] = (),
        inserted: Optional[Mapping[Tuple[Node, Node], float]] = None,
    ) -> int:
        """Remove and/or (re)insert edges without a full rebuild.

        ``removed`` names existing edges to delete; ``inserted`` maps
        ``(u, v)`` pairs to the cost of edges to (re)insert.  Both are
        canonicalised and deduplicated first (last write wins for
        ``inserted``, exactly as :meth:`patch_edge_costs`); a pair in
        both collections is rejected.  The whole batch is validated
        before anything mutates -- a bad entry leaves graph and oracle
        untouched.

        The built cores are edited through a *tombstone mask*: a removed
        edge's CSR slots persist at weight ``inf`` (node ids and row
        arrays stay stable) while the search-facing adjacency drops the
        entry, so cached rows repair through the ordinary increase
        machinery -- the detached region reconnects through surviving
        edges or legitimately ends *unreachable* (``dist=inf``, parent
        cleared).  Reinsertion is a decrease-from-infinity over the same
        slots, and therefore -- on a built oracle -- requires the pair
        to be a previously removed (tombstoned) edge: the frozen CSR
        cannot grow new slots.  In the contracted core a failed chain
        edge poisons its chain's prefix sums and kept candidate to
        ``inf`` locally; no global recontraction runs.  Removal-driven
        region repairs bypass the planner's degree-1 leaf fast path (an
        endpoint's *surviving* degree says nothing about the dead edge),
        always taking the general boundary re-seeding.

        Returns the number of applied topology changes.
        """
        graph = self._graph
        # (``insertable`` answers whether an insert can apply without a
        # rebuild -- callers that may revive edges removed before the
        # first build should check it and fall back to invalidate.)
        dead: Dict[Tuple[Node, Node], Tuple[Node, Node]] = {}
        for u, v in removed:
            dead.setdefault(canonical_edge(u, v), (u, v))
        born: Dict[Tuple[Node, Node], Tuple[Node, Node, float]] = {}
        if inserted:
            for (u, v), cost in inserted.items():
                born[canonical_edge(u, v)] = (u, v, float(cost))
        overlap = dead.keys() & born.keys()
        if overlap:
            raise ValueError(
                f"edges named as both removed and inserted: {sorted(overlap, key=repr)!r}"
            )
        # Validate the whole batch before writing anything.
        removals: List[Tuple[Node, Node, float]] = []
        for key, (u, v) in dead.items():
            removals.append((u, v, graph.cost(u, v)))  # KeyError if absent
        patch_live = self._built
        for key, (u, v, cost) in born.items():
            if not (cost >= 0.0) or math.isinf(cost):
                raise ValueError(
                    f"edge cost must be finite and non-negative, got "
                    f"{cost!r} for edge ({u!r}, {v!r})"
                )
            if graph.has_edge(u, v):
                raise ValueError(
                    f"({u!r}, {v!r}) is already an edge; use "
                    f"patch_edge_costs for cost changes"
                )
            if patch_live and key not in self._tombstones:
                raise ValueError(
                    f"({u!r}, {v!r}) was never removed from this oracle: "
                    f"the frozen CSR core cannot grow new edge slots "
                    f"(invalidate() to rebuild over new topology)"
                )
        if not removals and not born:
            return 0
        for u, v, _ in removals:
            graph.remove_edge(u, v)
        for u, v, cost in born.values():
            graph.add_edge(u, v, cost)
        count = len(removals) + len(born)
        if not self._built:
            # The eventual ``_build`` reads the mutated graph directly.
            return count
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        for key in dead:
            self._tombstones.add(key)
        for key in born:
            self._tombstones.discard(key)
        self._slow_rows.clear()
        self._paths.clear()
        self._queries.clear()
        if self._contracted is not None:
            pair_updates = self._contracted.patch_edges(
                [(u, v, INF) for u, v, _ in removals]
                + [(u, v, cost) for u, v, cost in born.values()]
            )
            plan = _PatchPlan(self._contracted.rows, pair_updates)
            # Force the general region repair: the leaf classification
            # reads *surviving* degrees, which misattribute a removed
            # pair's repair to the wrong (still-live) edge.
            plan._classified = [(a, b, -1) for a, b in plan.increases]
            self._patch_rows(self._contracted.rows, pair_updates, plan=plan)
            if self._core is not None:
                index = self._core.index
                self._core.remove_edges(
                    (index[u], index[v]) for u, v, _ in removals
                )
                self._core.restore_edges(
                    (index[u], index[v], cost)
                    for u, v, cost in born.values()
                )
        else:
            index = self._core.index
            self._core.remove_edges(
                (index[u], index[v]) for u, v, _ in removals
            )
            self._core.restore_edges(
                (index[u], index[v], cost) for u, v, cost in born.values()
            )
            id_changes = [
                (index[u], index[v], old, INF) for u, v, old in removals
            ] + [
                (index[u], index[v], INF, cost)
                for u, v, cost in born.values()
            ]
            plan = _PatchPlan(self._core._rows, id_changes)
            plan._classified = [(a, b, -1) for a, b in plan.increases]
            self._patch_rows(self._core._rows, id_changes, plan=plan)
        if mx:
            mx.inc("oracle.patch.topology_changes", count)
            mx.span("oracle.patch.topology", t0, trace_args={
                "removed": len(removals), "inserted": len(born),
            })
            self._publish_cache(mx)
        return count

    def _patch_rows(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        changes: Iterable[Tuple[int, int, float, float]],
        plan: Optional[_PatchPlan] = None,
    ) -> None:
        """Repair (or evict) every cached row after a weight-change batch.

        ``changes`` holds ``(a, b, old_w, new_w)`` in the active core's id
        space; ``adjacency`` is that core's already-patched per-node rows.
        Rows whose repair cannot be bounded are dropped; every survivor is
        marked :attr:`_Row.stale`: its distances and tree are exact under
        the new costs, with tie-breaks possibly differing from a cold
        rebuild's.

        With the planner (the default), a pure-increase batch -- the
        whole online workload, where loads only grow -- is classified
        once into a shared :class:`_PatchPlan` and only rows that
        actually use a changed edge as a tree edge are repaired.  One
        scan pass finds them: every classified pair is checked against
        each live row's parent tree as one column comparison per arena
        block (:meth:`_LiveRows.route`), O(rows x changes).  Batches
        carrying a decrease fall back to the per-row reference repair: a
        decrease moves parents mid-repair, so root classification stops
        being row-independent.  ``planner=False`` always takes the
        per-row path.

        With ``share_regions=True`` (the default), detached roots dense
        enough to clear :data:`PLANNER_SHARE_MIN_ROWS` /
        :data:`PLANNER_SHARE_DENSITY` get per-patch shared-region groups
        (:meth:`_resolve_shared`): member rows verify against (instead
        of rediscovering) the detached region, bit-identically to the
        per-row planned path.  A full row whose roots are all shared
        single-boundary regions, pairwise islands, is repaired with its
        group: each region's seed scan, drift guard and offset replay
        run once over all its rows as whole-block numpy operations
        (:meth:`_SharedRegion.offset_seeds`,
        :meth:`_SharedRegion.apply_offset`).  A row the drift guard
        refuses for any of its regions, and every other row with a job,
        repairs row by row through :func:`_repair_row_shared` or
        :func:`_repair_row_planned`.  Repaired rows are counted under
        ``oracle.repair.rows{path}``, once per path with the row count:
        ``offset`` when the single-boundary offset solve repaired every
        region a row hit, ``shared`` for any other shared-region repair,
        ``planned`` or ``reference`` otherwise.
        """
        if plan is None:
            plan = _PatchPlan(adjacency, changes)
        increases = plan.increases
        decreases = plan.decreases
        if not increases and not decreases:
            return
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        rows = self._rows
        if not self._planner or decreases:
            for source_id, row in list(rows.items()):
                if not row.used:
                    # Idle for a whole patch interval: recompute on demand
                    # (exactly the rebuild path) instead of repairing
                    # forever.
                    rows.evict(source_id, "idle")
                elif _repair_row(adjacency, row, increases, decreases):
                    row.stale = True
                    row.used = False
                    if mx:
                        mx.inc("oracle.repair.rows", path="reference")
                else:
                    rows.evict(source_id, "repair")
            rows.enforce()
            if mx:
                mx.span("oracle.repair", t0, mode="reference")
            return

        # Planned pure-increase patch: classify once, then repair only the
        # rows whose parent tree uses a changed pair.
        rows_live: List[_Row] = []
        for sid, row in list(rows.items()):
            if row.used:
                rows_live.append(row)
            else:
                rows.evict(sid, "idle")
        live = _LiveRows(rows_live)
        count = len(rows_live)
        root_row = root_child = leaf_row = leaf_node = leaf_anchor = \
            np.empty(0, dtype=np.intp)
        if count and plan.classified:
            (root_row, root_child), (leaf_row, leaf_node, leaf_anchor) = \
                live.route(plan.classified, len(adjacency))
        # Each row's jobs, as ranges of the row-sorted job arrays.
        rank = np.arange(count + 1)
        root_at = np.searchsorted(root_row, rank)
        leaf_at = np.searchsorted(leaf_row, rank)
        has_leaf = np.diff(leaf_at) > 0
        has_job = (np.diff(root_at) > 0) | has_leaf
        root_at = root_at.tolist()
        leaf_at = leaf_at.tolist()

        def leafs_of(i: int) -> List[Tuple[int, int]]:
            lo, hi = leaf_at[i], leaf_at[i + 1]
            return list(zip(leaf_node[lo:hi].tolist(),
                            leaf_anchor[lo:hi].tolist()))

        # Dense-patch region sharing: a root detaching the same region in
        # many rows gets a per-patch group whose structures every member
        # row reuses.  Groups are scoped to this patch -- their cached
        # boundary/internal weights go stale at the next weight change.
        variant = np.full(root_row.size, -1, dtype=np.intp)
        regions: List[_SharedRegion] = []
        if self._share_regions and root_row.size:
            regions = self._resolve_shared(
                adjacency, live, root_row, root_child, variant
            )

        # Rows whose every root is a shared single-boundary region, the
        # regions pairwise islands, repair by offsets: one whole-block
        # pass per region over all its rows.  Every other row with a job
        # repairs row by row.
        grouped = np.zeros(count, dtype=bool)
        hits = np.zeros((count, len(regions)), dtype=bool)
        if regions:
            claimed = variant >= 0
            hits[root_row[claimed], variant[claimed]] = True
            walks = np.bincount(root_row[~claimed], minlength=count) > 0
            solo = np.array([r.solo_solve() is not None for r in regions])
            grouped = hits.any(axis=1) & ~walks & live.full
            grouped &= ~(hits & ~solo).any(axis=1)
            clash = _region_clashes(regions)
            if clash.any():
                grouped &= ~((hits @ clash) & hits).any(axis=1)
        refused = np.zeros(count, dtype=bool)
        seeded = []
        for g, region in enumerate(regions):
            idx = np.flatnonzero(hits[:, g] & grouped)
            for block, pos, slots in live.parts(idx) if idx.size else ():
                best, src, ok = region.offset_seeds(block.dist, slots)
                refused[idx[pos[~ok]]] = True
                seeded.append((region, block, idx[pos], slots, best, src))
        for region, block, idx, slots, best, src in seeded:
            keep = ~refused[idx]
            if not keep.all():
                slots, best, src = slots[keep], best[keep], src[keep]
            region.apply_offset(block.dist, block.parent, slots, best, src)
        grouped &= ~refused  # a refused row repairs row by row instead

        # Grouped rows finish with their leaf jobs; a leaf inside one of
        # the row's regions was repaired there.
        unions: Dict[Tuple[int, ...], np.ndarray] = {}
        for i in np.flatnonzero(grouped & has_leaf).tolist():
            key = tuple(np.flatnonzero(hits[i]).tolist())
            affect = unions.get(key)
            if affect is None:
                affect = unions[key] = np.logical_or.reduce(
                    [_u8(regions[g].member) for g in key]
                )
            _relax_leafs(adjacency, rows_live[i], leafs_of(i), affect)

        repaired = {"offset": int(np.count_nonzero(grouped)),
                    "shared": 0, "planned": 0}
        union_cache: Dict = {}
        for i in np.flatnonzero(has_job & ~grouped).tolist():
            row = rows_live[i]
            lo, hi = root_at[i], root_at[i + 1]
            roots = root_child[lo:hi].tolist()
            owners = variant[lo:hi].tolist()
            row_hits = [regions[g] for g in owners if g >= 0]
            if row_hits:
                walk_roots = [c for c, g in zip(roots, owners) if g < 0]
                offset = _repair_row_shared(
                    adjacency, row, row_hits, walk_roots, leafs_of(i),
                    union_cache,
                )
                repaired["offset" if offset else "shared"] += 1
            else:
                _repair_row_planned(adjacency, row, roots, leafs_of(i))
                repaired["planned"] += 1
        for row in rows_live:
            row.stale = True
            row.used = False

        # Budgeted oracles settle residency at the patch boundary: the
        # accounting invariant is "never over budget *between* patches"
        # (repairs rewrite labels in place and cannot grow a row, so
        # this is a no-op unless the idle drop was outweighed by the
        # interval's installs).
        rows.enforce()
        if mx:
            for path, amount in repaired.items():
                if amount:
                    mx.inc("oracle.repair.rows", amount, path=path)
            mx.span("oracle.repair", t0, mode="planned",
                    trace_args={"live": count,
                                "repaired": sum(repaired.values())})

    def _resolve_shared(
        self,
        adjacency: List[Tuple[Tuple[float, int], ...]],
        live: _LiveRows,
        root_row: np.ndarray,
        root_child: np.ndarray,
        variant: np.ndarray,
    ) -> List[_SharedRegion]:
        """Group the dense roots' rows by detached region.

        ``root_row``/``root_child`` are the planner's general jobs (see
        :meth:`_LiveRows.route`).  A child detached in at least
        :data:`PLANNER_SHARE_MIN_ROWS` rows and
        :data:`PLANNER_SHARE_DENSITY` of the live rows is *dense* and
        gets a group, keyed by the child alone -- a child's region is its
        subtree regardless of which changed pair detached it.  The
        group's first row in store order founds variant 0 from its own
        walk; one whole-block :meth:`_SharedRegion.match_rows` pass per
        variant then claims every member row whose subtree is that
        region, and the first unclaimed row founds the next variant, up
        to :data:`_PLANNER_SHARE_MAX_VARIANTS` (the "region signature"
        grouping: same detached child, same detached node set).  Each
        row so joins the first variant in founding order that matches
        it, and variants are founded in the same order as a row-by-row
        scan would found them.

        Returns the regions; ``variant[j]`` is set to the index of job
        ``j``'s region, and stays ``-1`` for a job that walks per row (a
        non-dense root, or a row no variant claimed).
        """
        children, first, sizes = np.unique(
            root_child, return_index=True, return_counts=True
        )
        threshold = max(
            PLANNER_SHARE_MIN_ROWS, PLANNER_SHARE_DENSITY * len(live.rows)
        )
        dense = np.flatnonzero(sizes >= threshold)
        mx = self._metrics
        n = len(adjacency)
        regions: List[_SharedRegion] = []
        for d in dense[np.argsort(first[dense])].tolist():
            c = int(children[d])
            if mx:
                # Region-share group sizes: rows per dense root.
                mx.observe("oracle.repair.share_group_rows", int(sizes[d]))
            jobs = np.flatnonzero(root_child == c)
            for _ in range(_PLANNER_SHARE_MAX_VARIANTS):
                if not jobs.size:
                    break
                members = root_row[jobs]
                region = _SharedRegion(
                    adjacency, live.rows[members[0]].parent, c, n
                )
                ok = np.empty(jobs.size, dtype=bool)
                for block, pos, slots in live.parts(members):
                    ok[pos] = region.match_rows(block.parent, slots)
                ok[0] = True  # the founding row's own subtree
                variant[jobs[ok]] = len(regions)
                regions.append(region)
                jobs = jobs[~ok]
        return regions

    def rebased(
        self, graph: Graph, changed: Mapping[Tuple[Node, Node], float]
    ) -> "FrozenOracle":
        """A new oracle over ``graph``, seeded from this oracle's caches.

        ``graph`` must be a copy of this oracle's graph -- identical nodes
        in the same enumeration order and identical edges, still carrying
        the *old* costs -- to which ``changed`` (the
        :meth:`patch_edge_costs` contract) is then applied.  The dynamic
        adjustments use this to reroute on updated costs while leaving the
        original instance and its oracle untouched.

        The clone inherits the repair modes (``planner`` and
        ``share_regions`` flags).

        A budgeted oracle's clone inherits ``row_budget_bytes`` and
        seeds through the same policy: rows are copied in retention
        order (the reverse of the eviction order) and only while they
        fit the clone's budget, so a dynamic-adjustment clone can never
        double peak residency.  Unbounded oracles copy every row in
        insertion order, exactly as before.
        """
        clone = FrozenOracle(
            graph, hot=self._hot, patchable=self._patchable,
            planner=self._planner, share_regions=self._share_regions,
            row_budget_bytes=self._rows.budget_bytes,
            metrics=self._metrics,
        )
        if self._built:
            clone._built = True
            clone._tombstones = set(self._tombstones)
            clone._hot_ids = list(self._hot_ids)
            if self._core is not None:
                clone._core = self._core.clone()
            if self._contracted is not None:
                clone._contracted = self._contracted.clone()
            if self._rows.budget_bytes is None:
                seed_ids = list(self._rows)
            else:
                seed_ids = self._rows.retention_order()
            for source_id in seed_ids:
                row = self._rows[source_id]
                if not clone._rows.would_fit(row):
                    continue  # seed only what fits the clone's budget
                # Copies into the clone's own arena: patching repairs
                # labels in place, and the original oracle must keep
                # serving its own graph (a slice of ``row.dist`` would
                # alias this oracle's block).
                dup = clone._freeze_row(
                    _f8(row.dist),
                    _i8(row.parent),
                    None if row.settled is None else bytearray(row.settled),
                    row.full,
                )
                dup.stale = row.stale
                dup.cutoff = row.cutoff
                dup.used = row.used
                clone._rows[source_id] = dup
        clone.patch_edge_costs(changed)
        return clone

    # ------------------------------------------------------------------
    # contracted-core machinery
    # ------------------------------------------------------------------
    def _slow_row(self, source: Node) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        """Exact dict-Dijkstra row on the original graph (rare queries)."""
        row = self._slow_rows.get(source)
        if row is None:
            row = _dict_dijkstra(self._graph, source)
            self._slow_rows[source] = row
        return row

    def _install_row(self, source_id: int, row: _Row) -> None:
        """Cache ``row``, replacing any previous object for the source.

        Every row-replacing recompute -- cold misses, stale-row
        recomputes, full-row upgrades -- comes through here, so a
        budgeted oracle enforces residency at each one.
        """
        self._rows[source_id] = row
        if self._rows.budget_bytes is not None:
            # Budgeted oracles enforce residency at every install (cold
            # misses, prefetch batches, stale recomputes, upgrades),
            # protecting the row the caller is about to serve from.
            self._rows.enforce(protect=(source_id,))

    def _contracted_row(self, cid: int) -> _Row:
        row = self._rows.get(cid)
        if row is None:
            mx = self._metrics
            t0 = mx.clock() if mx else 0.0
            labels = self._contracted.dijkstra(cid)
            kind = "cold"
            if labels is None:
                # The numpy kernel could not prove its parents match the
                # heap loop's (a zero-gap tight edge): run the heap loop.
                labels = self._contracted.heap_dijkstra(cid)
                kind = "fallback"
            row = self._freeze_row(*labels, None, True)
            self._install_row(cid, row)
            if mx:
                mx.inc("oracle.rows.cold")
                if kind == "fallback":
                    mx.inc("oracle.rows.fallback")
                mx.span("oracle.row_build", t0, kind=kind)
        row.used = True
        return row


    # ------------------------------------------------------------------
    # uncontracted-core machinery
    # ------------------------------------------------------------------
    @property
    def _early_stop(self) -> bool:
        """Whether cold uncontracted rows stop once the hot set settles.

        Only non-patchable oracles with a hot set early-stop; every
        other oracle builds full rows.
        """
        return bool(self._hot_ids) and not self._patchable

    def _compute(self, source_id: int, target_id: Optional[int]) -> _Row:
        """Compute and cache a row, early-stopped at the hot set if any.

        Early-stopped rows run the heap loop until the hot nodes (and
        ``target_id``) settle; full rows come from the numpy kernel
        (:meth:`_full_rows`).
        """
        core = self.core
        if not self._early_stop:
            return self._full_rows([source_id])[0]
        mx = self._metrics
        t0 = mx.clock() if mx else 0.0
        targets = (
            self._hot_ids if target_id is None
            else self._hot_ids + [target_id]
        )
        dist, parent, settled, exhausted = core.dijkstra(source_id, targets)
        row = self._freeze_row(dist, parent, settled, exhausted)
        self._install_row(source_id, row)
        if mx:
            mx.inc("oracle.rows.cold")
            mx.span("oracle.row_build", t0, kind="cold")
        return row

    def _full_rows(self, ids: Sequence[int], kind: str = "cold") -> List[_Row]:
        """Build, install and return full uncontracted rows for ``ids``.

        The uncontracted full-row path: :meth:`IndexedGraph.batch_rows`
        on :meth:`IndexedGraph.kernel_chunk` sources per call, and the
        heap loop (:meth:`IndexedGraph.dijkstra`) for each row the
        kernel refuses.  Rows are installed in ``ids`` order, so the
        cache ends exactly as if they were built one at a time.

        Metrics: one ``oracle.row_build`` span per kernel call, labelled
        ``kind`` with the row count in ``trace_args``; each refused row
        adds a ``kind=fallback`` span and counts ``oracle.rows.fallback``.
        Cold rows (not ``kind="upgrade"``) count ``oracle.rows.cold``
        one per row.
        """
        core = self.core
        mx = self._metrics
        step = core.kernel_chunk()
        built: List[_Row] = []
        for lo in range(0, len(ids), step):
            chunk = ids[lo:lo + step]
            t0 = mx.clock() if mx else 0.0
            batch = core.batch_rows(chunk)
            if mx:
                mx.span("oracle.row_build", t0, kind=kind,
                        trace_args={"rows": len(chunk)})
            for source_id, labels in zip(chunk, batch):
                if labels is None:
                    # A zero-gap tight edge: the kernel cannot prove the
                    # heap loop's parents, so run the heap loop.
                    t0 = mx.clock() if mx else 0.0
                    labels = core.dijkstra(source_id)[:3]
                    if mx:
                        mx.inc("oracle.rows.fallback")
                        mx.span("oracle.row_build", t0, kind="fallback")
                row = self._freeze_row(*labels, True)
                self._install_row(source_id, row)
                built.append(row)
                if mx and kind == "cold":
                    mx.inc("oracle.rows.cold")
        return built

    def _row_serving(self, source_id: int, target_id: int) -> _Row:
        """A row from ``source_id`` whose entry for ``target_id`` is final."""
        row = self._rows.get(source_id)
        if row is not None and (row.full or row.settled[target_id]):
            row.used = True
            return row
        if row is not None:
            if row.stale:
                # A patch demoted the target below the settle cutoff:
                # recompute exactly as a cold miss would (early-stopped at
                # the hot set), which keeps the row bit-compatible with
                # the full-rebuild path.
                return self._compute(source_id, target_id)
            # Cached but early-stopped short of the target: upgrade in full
            # so repeated cold queries never re-run the search.
            return self._full_rows([source_id], kind="upgrade")[0]
        return self._compute(source_id, target_id)

    # ------------------------------------------------------------------
    def distance(self, source: Node, target: Node) -> float:
        """Shortest-path cost; ``inf`` if unreachable.

        The graph is undirected, so ``distance(u, v) == distance(v, u)``
        and the answer may be served from a row rooted at either endpoint;
        when neither endpoint has a cached row, the row is computed from
        the endpoint more likely to be reused (hot beats cold, then the
        historically more-queried endpoint).
        """
        self._build()
        contracted = self._contracted
        if contracted is not None:
            index = contracted.index
            source_id = index.get(source)
            tid = index.get(target)
            if source_id is None or tid is None:
                if source not in self._graph:
                    raise KeyError(f"source {source!r} not in graph")
                if target not in self._graph:
                    return INF
                # An endpoint was contracted away (or sits on an isolated
                # relay cycle): exact but uncached-core slow path.
                dist, _ = self._slow_row(source)
                return dist.get(target, INF)
            row = self._rows.get(source_id)
            if row is None:
                row = self._rows.get(tid)
                if row is not None:
                    row.used = True
                    return row.dist[source_id]
                row = self._contracted_row(source_id)
            row.used = True
            return row.dist[tid]

        core = self.core
        index = core.index
        source_id = index[source]
        tid = index.get(target)
        if tid is None:
            return INF
        queries = self._queries
        queries[source_id] = queries.get(source_id, 0) + 1
        queries[tid] = queries.get(tid, 0) + 1
        rows = self._rows
        row = rows.get(source_id)
        if row is not None and (row.full or row.settled[tid]):
            row.used = True
            return row.dist[tid]
        rev = rows.get(tid)
        if rev is not None and (rev.full or rev.settled[source_id]):
            rev.used = True
            return rev.dist[source_id]
        if row is None and rev is None:
            # Pick the root more likely to serve future queries.
            hot = self._hot
            su, sv = source in hot, target in hot
            if sv and not su:
                source_id, tid = tid, source_id
            elif su == sv and queries.get(tid, 0) > queries.get(source_id, 0):
                source_id, tid = tid, source_id
            return self._compute(source_id, tid).dist[tid]
        return self._row_serving(source_id, tid).dist[tid]

    def distances_to(self, source: Node, targets: Sequence[Node]) -> List[float]:
        """Shortest-path costs from ``source`` to each of ``targets``.

        Semantically ``[self.distance(source, t) for t in targets]``.  When
        the cached ``source`` row already serves every target (full, or
        early-stopped with all targets settled) the answer is one
        zero-copy numpy gather instead of ``len(targets)`` dict/attribute
        walks,
        replicating the per-query side effects exactly: the same query
        counters, the same ``used`` mark, ``inf`` (and no counters) for
        targets absent from the graph.  Any other cache state falls back
        to the per-query loop, so no code path ever computes or serves a
        row the scalar calls would not have.
        """
        mx = self._metrics
        if not mx:
            return self._distances_to_impl(source, targets)
        t0 = mx.clock()
        out = self._distances_to_impl(source, targets)
        mx.span("oracle.query", t0, op="distances_to",
                trace_args={"targets": len(out)})
        return out

    def _distances_to_impl(
        self, source: Node, targets: Sequence[Node]
    ) -> List[float]:
        targets = list(targets)
        if not targets:
            return []
        self._build()
        contracted = self._contracted
        if contracted is not None:
            index = contracted.index
            source_id = index.get(source)
            row = self._rows.get(source_id) if source_id is not None else None
            if row is None:
                return [self.distance(source, t) for t in targets]
            tids = _target_ids(index, targets)
            if tids is None:
                # A contracted-away target takes the exact slow path;
                # keep the whole batch on per-query serving.
                return [self.distance(source, t) for t in targets]
            row.used = True
            return _f8(row.dist)[np.fromiter(tids, np.int64, len(tids))].tolist()
        core = self.core
        index = core.index
        source_id = index[source]
        row = self._rows.get(source_id)
        if row is None:
            return [self.distance(source, t) for t in targets]
        tids = _target_ids(index, targets)
        if tids is None:
            tids = [index.get(t) for t in targets]
            present = [tid for tid in tids if tid is not None]
        else:
            present = tids
        if not present:
            return [INF] * len(targets)
        tid_arr = np.fromiter(present, np.int64, len(present))
        if not row.full and not (_u8(row.settled)[tid_arr] != 0).all():
            return [self.distance(source, t) for t in targets]
        queries = self._queries
        queries[source_id] = queries.get(source_id, 0) + len(present)
        queries.update(present)
        row.used = True
        vals = _f8(row.dist)[tid_arr].tolist()
        if len(present) == len(tids):
            return vals
        out: List[float] = []
        k = 0
        for tid in tids:
            if tid is None:
                out.append(INF)
            else:
                out.append(vals[k])
                k += 1
        return out

    def detour_distances(
        self, a: Node, b: Node, targets: Sequence[Node]
    ) -> Optional[Tuple[List[float], List[float]]]:
        """Batched ``d(a, m)`` and ``d(b, m)`` for corridor-detour scans.

        The batched entry point for Procedure 2's pool-cap filter,
        which scores every candidate VM against both corridor endpoints.
        Returns ``(da, db)`` aligned with ``targets`` when the two cached
        endpoint rows can serve every target as-is, replicating exactly
        the side effects ``2 * len(targets)`` scalar ``distance`` calls
        would have (counters: +1 per endpoint per served target, +2 per
        target; ``used`` marks; ``inf`` and no counters for targets
        absent from the graph).  Returns ``None`` -- with **no** side
        effects -- whenever any scalar call would have computed, upgraded
        or rev-served a row, so callers fall back to the legacy loop and
        the oracle's cache evolves identically either way.
        """
        mx = self._metrics
        if not mx:
            return self._detour_distances_impl(a, b, targets)
        t0 = mx.clock()
        out = self._detour_distances_impl(a, b, targets)
        if out is not None:
            mx.span("oracle.query", t0, op="detour_distances",
                    trace_args={"targets": len(out[0])})
        return out

    def _detour_distances_impl(
        self, a: Node, b: Node, targets: Sequence[Node]
    ) -> Optional[Tuple[List[float], List[float]]]:
        targets = list(targets)
        if not targets:
            return [], []
        self._build()
        contracted = self._contracted
        if contracted is not None:
            index = contracted.index
            aid = index.get(a)
            bid = index.get(b)
            if aid is None or bid is None:
                return None
            arow = self._rows.get(aid)
            brow = self._rows.get(bid)
            if arow is None or brow is None:
                return None
            tids = _target_ids(index, targets)
            if tids is None:
                return None
            arow.used = True
            brow.used = True
            tid_arr = np.fromiter(tids, np.int64, len(tids))
            return (_f8(arow.dist)[tid_arr].tolist(),
                    _f8(brow.dist)[tid_arr].tolist())
        core = self.core
        index = core.index
        if a not in index or b not in index:
            return None
        aid = index[a]
        bid = index[b]
        arow = self._rows.get(aid)
        brow = self._rows.get(bid)
        if arow is None or brow is None:
            return None
        tids = _target_ids(index, targets)
        if tids is None:
            tids = [index.get(t) for t in targets]
            present = [tid for tid in tids if tid is not None]
        else:
            present = tids
        tid_arr = np.fromiter(present, np.int64, len(present))
        if present:
            for row in (arow, brow):
                if not row.full and not (_u8(row.settled)[tid_arr] != 0).all():
                    return None
        queries = self._queries
        npres = len(present)
        queries[aid] = queries.get(aid, 0) + npres
        queries[bid] = queries.get(bid, 0) + npres
        queries.update(present)
        queries.update(present)
        arow.used = True
        brow.used = True
        da = _f8(arow.dist)[tid_arr].tolist()
        db = _f8(brow.dist)[tid_arr].tolist()
        if npres != len(tids):
            fa: List[float] = []
            fb: List[float] = []
            k = 0
            for tid in tids:
                if tid is None:
                    fa.append(INF)
                    fb.append(INF)
                else:
                    fa.append(da[k])
                    fb.append(db[k])
                    k += 1
            da, db = fa, fb
        return da, db

    def path(self, source: Node, target: Node) -> List[Node]:
        """A shortest path as a node list; raises if unreachable."""
        self._build()
        contracted = self._contracted
        if contracted is not None:
            # Stroll expansions re-request the same few anchor pairs many
            # times, so reconstructed paths are memoised.  Callers receive
            # a fresh copy: walks get extended in place downstream.
            cached = self._paths.get((source, target))
            if cached is not None:
                return list(cached)
            index = contracted.index
            source_id = index.get(source)
            tid = index.get(target)
            if source_id is None or tid is None:
                return self._slow_path(source, target)
            if tid == source_id:
                return [source]
            row = self._rows.get(source_id)
            if row is not None:
                row.used = True
                if row.dist[tid] == INF:
                    raise ValueError(f"no path from {source!r} to {target!r}")
                out = contracted.expand(
                    self._core_chain(row.parent, source_id, tid)
                )
            else:
                rev = self._rows.get(tid)
                if rev is not None:
                    # Serve the reverse row's tree and flip it (symmetry).
                    rev.used = True
                    if rev.dist[source_id] == INF:
                        raise ValueError(
                            f"no path from {source!r} to {target!r}"
                        )
                    chain = self._core_chain(rev.parent, tid, source_id)
                    chain.reverse()
                    out = contracted.expand(chain)
                else:
                    row = self._contracted_row(source_id)
                    if row.dist[tid] == INF:
                        raise ValueError(
                            f"no path from {source!r} to {target!r}"
                        )
                    out = contracted.expand(
                        self._core_chain(row.parent, source_id, tid)
                    )
            self._paths[(source, target)] = out
            return list(out)

        core = self.core
        index = core.index
        source_id = index[source]
        tid = index.get(target)
        if tid is None:
            raise ValueError(f"no path from {source!r} to {target!r}")
        if tid == source_id:
            return [source]
        row = self._row_serving(source_id, tid)
        if row.dist[tid] == INF:
            raise ValueError(f"no path from {source!r} to {target!r}")
        nodes = core.nodes
        parent = row.parent
        out = [nodes[tid]]
        cursor = tid
        while cursor != source_id:
            cursor = parent[cursor]
            out.append(nodes[cursor])
        out.reverse()
        return out

    @staticmethod
    def _core_chain(parent: List[int], source_id: int, tid: int) -> List[int]:
        """Core-id path ``source_id -> tid`` from a parent array."""
        chain = [tid]
        cursor = tid
        while cursor != source_id:
            cursor = parent[cursor]
            chain.append(cursor)
        chain.reverse()
        return chain

    def _slow_path(self, source: Node, target: Node) -> List[Node]:
        if target not in self._graph:
            raise ValueError(f"no path from {source!r} to {target!r}")
        if source == target:
            return [source]
        dist, parent = self._slow_row(source)
        if target not in dist:
            raise ValueError(f"no path from {source!r} to {target!r}")
        out = [target]
        while out[-1] != source:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    def distances_from(self, source: Node) -> Dict[Node, float]:
        """All shortest-path costs from ``source`` (a full row, cached)."""
        mx = self._metrics
        if not mx:
            return self._distances_from_impl(source)
        t0 = mx.clock()
        out = self._distances_from_impl(source)
        mx.span("oracle.query", t0, op="distances_from",
                trace_args={"targets": len(out)})
        return out

    def _distances_from_impl(self, source: Node) -> Dict[Node, float]:
        self._build()
        contracted = self._contracted
        if contracted is not None:
            source_id = contracted.index.get(source)
            if source_id is None:
                if source not in self._graph:
                    raise KeyError(f"source {source!r} not in graph")
                dist, _ = self._slow_row(source)
                return dict(dist)
            row = self._contracted_row(source_id)
            dist = row.dist
            out = {
                node: d
                for node, d in zip(contracted.nodes, dist)
                if d != INF
            }
            # Expand the chain interiors: an interior is reached through
            # whichever chain endpoint is closer along the chain.
            for ci, (a, b, interiors, prefix, total) in enumerate(
                contracted.chains
            ):
                da, db = dist[a], dist[b]
                if total == INF:
                    # A tombstoned (failed) edge sits on this chain:
                    # ``total - pref`` would be ``inf - inf = nan`` for
                    # interiors beyond it, silently dropping nodes still
                    # reachable from the ``b`` side.  Walk explicit
                    # suffix sums instead; ``inf`` weights propagate so
                    # each side sees exactly its reachable stretch.
                    weights = contracted.chain_weights[ci]
                    acc = 0.0
                    suffix = [0.0] * len(interiors)
                    for i in range(len(interiors) - 1, -1, -1):
                        acc += weights[i + 1]
                        suffix[i] = acc
                    for node, pref, suf in zip(interiors, prefix, suffix):
                        d = min(da + pref, db + suf)
                        if d != INF:
                            known = out.get(node)
                            if known is None or d < known:
                                out[node] = d
                    continue
                for node, pref in zip(interiors, prefix):
                    d = min(da + pref, db + (total - pref))
                    if d != INF:
                        known = out.get(node)
                        if known is None or d < known:
                            out[node] = d
            return out

        core = self.core
        source_id = core.index[source]
        row = self._rows.get(source_id)
        if row is None or not row.full:
            row = self._full_rows(
                [source_id], kind="cold" if row is None else "upgrade"
            )[0]
        row.used = True
        nodes = core.nodes
        return {
            nodes[i]: d for i, d in enumerate(row.dist) if d != INF
        }
