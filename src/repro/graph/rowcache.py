"""Budgeted row-cache storage for :class:`~repro.graph.indexed.FrozenOracle`.

The oracle's cached single-source rows used to live in a loose ``dict``
inside :class:`FrozenOracle`, with the idle-at-patch drop heuristic as
inline special-case code.  :class:`RowCache` extracts that ownership into
one subsystem: it *is* the row store (a ``dict`` subclass, so the
oracle's lookup paths and iteration order are unchanged), and it owns

- **byte accounting** per resident row (label buffers plus a fixed
  per-row overhead -- see :func:`row_nbytes`),
- **eviction** as a single code path with one counter set (idle-at-patch
  drops, unbounded-repair drops and budget-pressure evictions all route
  through :meth:`evict`), and
- a **cost-aware budget policy** under ``budget_bytes``: when residency
  exceeds the budget, :meth:`enforce` evicts rows in ascending retention
  value -- unserved-since-last-patch rows first, then cheapest to
  recompute per resident byte, least-recently-served as the tiebreak --
  until the cache fits.

``budget_bytes=None`` (the default) preserves the historical unbounded
behavior bit-identically: lookups, insertion order and the idle-at-patch
drop are exactly the plain-dict code paths, and :meth:`enforce` is a
no-op.  The budget only ever *removes* rows between queries; every
evicted row recomputes on demand to bit-identical labels (the Dijkstra
cores are deterministic), so served distances never depend on the
budget -- only residency and recompute work do.

Byte model
----------
Sizes are **deterministic and platform-independent** (no
``sys.getsizeof``): 8 bytes per distance entry, 8 per parent entry, 1
per settled byte, plus :data:`ROW_OVERHEAD_BYTES` per row.  That is
exact for a row's arena slot (one ``float64`` and one ``int64`` per
node) -- the budget is a *residency model*, not an RSS cap, and the
model is chosen so budgeted runs behave identically across platforms.
Per-patch shared-region caches are transient and never survive a
patch, so they are not accounted.

Row arena
---------
The label buffers themselves live in the cache's *arena*: fixed-size
2-D :class:`RowBlock` pairs (``float64`` distances, ``int64`` parents)
holding one row per slot, so the repair engine can update a shared
region for many rows with whole-block numpy operations.  A block holds
about :data:`BLOCK_SLOTS` labels (:meth:`RowCache.block_rows` rows), is
allocated when no block of the row width has a free slot, and is
released once its last slot is freed; blocks never grow, so no install
ever copies another row.  Dropping a row from the store (delete,
replace, evict, :meth:`RowCache.clear`) frees its slot and detaches the
row's label views, so a dropped row can never read a recycled slot.
The byte model above is unchanged: it counts the slots in use, not the
blocks.  Block slack is not accounted but is bounded: a block is about
4 MB, new rows fill freed slots before any new block opens, and the
pages of slots never written are never touched.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["BLOCK_SLOTS", "RowBlock", "RowCache", "ROW_OVERHEAD_BYTES",
           "row_nbytes"]

#: Label slots (rows x row width) per arena block: 2 MB of distances
#: plus 2 MB of parents, whatever the graph size -- 211 rows per block
#: at 1241 nodes, 5 at 50k nodes.
BLOCK_SLOTS = 1 << 18

#: Fixed accounting overhead per resident row: the ``_Row`` object, its
#: slot pointers and the store's per-entry bookkeeping.  A deterministic
#: constant (see the module docstring's byte model).
ROW_OVERHEAD_BYTES = 96


def row_nbytes(num_nodes: int, settled: bool = True) -> int:
    """Accounted bytes of one resident row over ``num_nodes`` core nodes.

    The same arithmetic :class:`RowCache` applies to live ``_Row``
    objects, exposed so benchmarks and tests can size budgets in *rows*
    ("hold the VM pool plus one request's working set") without
    duplicating the model: 8 bytes per distance, 8 per parent, 1 per
    settled flag when the row carries a settle mask, plus the fixed
    per-row overhead.
    """
    n = int(num_nodes)
    return 16 * n + (n if settled else 0) + ROW_OVERHEAD_BYTES


class RowBlock:
    """One arena block: ``rows`` label slots of width ``width``.

    ``dist``/``parent`` are C-contiguous ``(rows, width)`` arrays; slot
    ``k`` is row ``k`` of both.  ``free`` lists the unused slots, lowest
    last, so :meth:`RowCache.alloc` fills a block from slot 0 upwards.
    Unused slots hold garbage: every install overwrites its whole slot.
    """

    __slots__ = ("index", "width", "dist", "parent", "free")

    def __init__(self, index: int, rows: int, width: int) -> None:
        self.index = index
        self.width = width
        self.dist = np.empty((rows, width), dtype=np.float64)
        self.parent = np.empty((rows, width), dtype=np.int64)
        self.free: List[int] = list(range(rows - 1, -1, -1))


class RowCache(dict):
    """The oracle's row store with byte accounting and budgeted eviction.

    A ``dict`` mapping core node id -> ``_Row``.  All mutation goes
    through ``__setitem__`` / ``__delitem__`` / :meth:`evict` /
    :meth:`clear`, which keep :attr:`total_bytes` exact; lookups go
    through :meth:`get`, which tracks hits/misses and (under a budget)
    the recency order the eviction policy tiebreaks on.

    The cache never evicts on its own: the owning oracle calls
    :meth:`enforce` at its consistency boundaries (after a row install,
    at the end of a patch) and :meth:`evict` for policy drops.  Counters
    are lifetime values -- :meth:`clear` (a full invalidate) resets
    residency, not history.

    The cache also owns the row arena (see the module docstring):
    :meth:`alloc` hands out a ``(block, slot)`` pair for a new row's
    labels, and every path that drops a row frees its slot.  Rows carry
    their slot as ``row.block``/``row.slot`` and their labels as
    ``row.dist``/``row.parent``; a row whose ``block`` is ``None`` owns
    no slot.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        super().__init__()
        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes <= 0:
                raise ValueError(
                    f"row_budget_bytes must be positive, got {budget_bytes}"
                )
        #: Residency ceiling in accounted bytes; ``None`` = unbounded.
        self.budget_bytes = budget_bytes
        self.total_bytes = 0
        self.peak_bytes = 0
        self.hits = 0
        self.misses = 0
        #: Total rows dropped through :meth:`evict`, any reason.
        self.evictions = 0
        #: ... of which: idle-at-patch policy drops.
        self.idle_evictions = 0
        #: ... of which: budget-pressure drops (:meth:`enforce`).
        self.budget_evictions = 0
        #: ... of which: unbounded-repair drops (a decrease against an
        #: early-stopped row cannot be repaired in place).
        self.repair_evictions = 0
        #: Enforcement passes that could not reach the budget because
        #: every remaining row was protected (mid-install working set
        #: larger than the budget).  Strict benches assert this is 0.
        self.overshoots = 0
        #: Per-sid ``(nbytes, recompute_cost)``, maintained on mutation.
        self._meta: Dict[int, Tuple[int, int]] = {}
        #: Monotonic serve clock and per-sid last-served tick, tracked
        #: only under a budget (the unbounded tier pays nothing for it).
        self._tick = 0
        self._served: Dict[int, int] = {}
        #: Arena blocks by index; a released block leaves a ``None``
        #: hole that the next new block reuses.
        self._blocks: List[Optional[RowBlock]] = []

    # ------------------------------------------------------------------
    # row arena
    # ------------------------------------------------------------------
    @staticmethod
    def block_rows(width: int) -> int:
        """Slots per arena block for rows of ``width`` labels."""
        return max(1, BLOCK_SLOTS // max(1, width))

    def alloc(self, width: int) -> Tuple[RowBlock, int]:
        """A free ``(block, slot)`` for one row of ``width`` labels.

        Fills the lowest-indexed block of that width with a free slot
        first, and opens a new block only when every such block is full.
        """
        for block in self._blocks:
            if block is not None and block.free and block.width == width:
                return block, block.free.pop()
        blocks = self._blocks
        try:
            index = blocks.index(None)
        except ValueError:
            index = len(blocks)
            blocks.append(None)
        block = blocks[index] = RowBlock(index, self.block_rows(width), width)
        return block, block.free.pop()

    def _release(self, row) -> None:
        """Free ``row``'s slot and detach its label views."""
        block = row.block
        if block is None:
            return
        block.free.append(row.slot)
        if len(block.free) == len(block.dist):
            self._blocks[block.index] = None
        row.block = None
        row.slot = -1
        row.dist = None
        row.parent = None

    # ------------------------------------------------------------------
    # accounting model
    # ------------------------------------------------------------------
    @staticmethod
    def _row_nbytes(row) -> int:
        """Accounted bytes of ``row`` (see :func:`row_nbytes`)."""
        n = len(row.dist)
        settled = row.settled
        return 16 * n + (len(settled) if settled is not None else 0) \
            + ROW_OVERHEAD_BYTES

    @staticmethod
    def _recompute_cost(row) -> int:
        """Estimated relaxations to rebuild ``row`` from cold.

        Full rows re-run an exhaustive Dijkstra (cost ~ n); an
        early-stopped row re-settles only its frontier (cost ~ settled
        count).  The estimate prices *retention*: an expensive-to-
        rebuild row earns more bytes of residency.
        """
        if row.full or row.settled is None:
            return len(row.dist)
        return sum(row.settled)

    # ------------------------------------------------------------------
    # store mutation (every path keeps total_bytes exact)
    # ------------------------------------------------------------------
    def __setitem__(self, source_id: int, row) -> None:
        old = self._meta.get(source_id)
        if old is not None:
            self.total_bytes -= old[0]
            previous = dict.__getitem__(self, source_id)
            if previous is not row:
                self._release(previous)
        nbytes = self._row_nbytes(row)
        self._meta[source_id] = (nbytes, self._recompute_cost(row))
        self.total_bytes += nbytes
        if self.total_bytes > self.peak_bytes:
            self.peak_bytes = self.total_bytes
        super().__setitem__(source_id, row)

    def __delitem__(self, source_id: int) -> None:
        row = dict.__getitem__(self, source_id)
        super().__delitem__(source_id)
        self.total_bytes -= self._meta.pop(source_id)[0]
        self._served.pop(source_id, None)
        self._release(row)

    def pop(self, source_id: int, *default):
        try:
            row = dict.__getitem__(self, source_id)
        except KeyError:
            if default:
                return default[0]
            raise
        del self[source_id]
        return row

    def popitem(self):  # pragma: no cover - not used by the oracle
        source_id = next(reversed(self))
        return source_id, self.pop(source_id)

    def setdefault(self, source_id: int, default=None):  # pragma: no cover
        if source_id not in self:
            self[source_id] = default
        return dict.__getitem__(self, source_id)

    def update(self, *args, **kwargs):  # pragma: no cover - not used
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def clear(self) -> None:
        """Drop every row (a full invalidate -- not counted as eviction)."""
        for row in self.values():
            self._release(row)
        super().clear()
        self._meta.clear()
        self._served.clear()
        self.total_bytes = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, source_id, default=None):
        """Dict ``get`` plus hit/miss counting and (budgeted) recency.

        Every oracle serve path looks rows up through here, so the
        hit/miss counters read as *row-store lookups* (a query served by
        undirected symmetry probes both endpoint rows and may count one
        miss and one hit).  The recency tick feeds the eviction
        tiebreak and is skipped entirely on unbounded caches.
        """
        row = dict.get(self, source_id, default)
        if row is default:
            self.misses += 1
        else:
            self.hits += 1
            if self.budget_bytes is not None:
                self._tick += 1
                self._served[source_id] = self._tick
        return row

    # ------------------------------------------------------------------
    # eviction (the one code path for every drop policy)
    # ------------------------------------------------------------------
    def evict(self, source_id: int, reason: str = "budget"):
        """Drop one row and count it under ``reason``.

        ``reason`` is one of ``"idle"`` (idle across a whole patch
        interval), ``"repair"`` (repair could not be bounded) or
        ``"budget"`` (residency pressure).  Returns the evicted row.
        """
        row = dict.__getitem__(self, source_id)
        del self[source_id]
        self.evictions += 1
        if reason == "idle":
            self.idle_evictions += 1
        elif reason == "repair":
            self.repair_evictions += 1
        else:
            self.budget_evictions += 1
        return row

    def _evict_key(self, source_id: int) -> Tuple[int, float, int, int]:
        """Ascending retention value: the eviction (min-first) sort key.

        Unserved-since-last-patch rows go first (they are the idle
        policy's candidates anyway), then the cheapest recompute per
        resident byte, then least-recently-served, then the stable id.
        """
        row = dict.__getitem__(self, source_id)
        nbytes, cost = self._meta[source_id]
        return (
            1 if row.used else 0,
            cost / nbytes,
            self._served.get(source_id, 0),
            source_id,
        )

    def enforce(self, protect: Iterable[int] = ()) -> int:
        """Evict ascending-value rows until ``total_bytes`` fits the budget.

        ``protect`` names rows that must survive this pass (the row just
        installed, mid-request working sets).  If protected rows alone
        exceed the budget the pass records an overshoot and returns with
        the cache over budget -- the caller's working set simply does
        not fit, and dropping it would only force immediate recomputes.
        Returns the number of rows evicted.
        """
        budget = self.budget_bytes
        if budget is None or self.total_bytes <= budget:
            return 0
        protected = set(protect)
        victims = sorted(
            (sid for sid in self if sid not in protected),
            key=self._evict_key,
        )
        count = 0
        for sid in victims:
            if self.total_bytes <= budget:
                break
            self.evict(sid, "budget")
            count += 1
        if self.total_bytes > budget:
            self.overshoots += 1
        return count

    def would_fit(self, row) -> bool:
        """Whether ``row`` can be added without crossing the budget."""
        if self.budget_bytes is None:
            return True
        return self.total_bytes + self._row_nbytes(row) <= self.budget_bytes

    def retention_order(self) -> List[int]:
        """Resident ids, most retention-worthy first.

        The exact reverse of the eviction order; ``rebased`` clones seed
        through this so a budgeted clone keeps the rows the policy would
        have kept.
        """
        return sorted(self, key=self._evict_key, reverse=True)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Optional[int]]:
        """A plain-dict snapshot for benches and service layers."""
        return {
            "rows": len(self),
            "budget_bytes": self.budget_bytes,
            "total_bytes": self.total_bytes,
            "peak_bytes": self.peak_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "idle_evictions": self.idle_evictions,
            "budget_evictions": self.budget_evictions,
            "repair_evictions": self.repair_evictions,
            "overshoots": self.overshoots,
        }

    def publish(self, recorder, prefix: str = "oracle.cache") -> None:
        """Fold the counters into a metrics registry as gauges.

        Called at the oracle's consistency boundaries (end of each
        patch, every cache snapshot) rather than live in :meth:`get` --
        the hottest lookup path stays untouched and the registry sees
        the same lifetime totals :meth:`stats` reports.  ``None``-valued
        entries (an unbounded budget) are skipped: gauges are numeric.
        """
        for key, value in self.stats().items():
            if value is not None:
                recorder.gauge(f"{prefix}.{key}", value)
