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
near-exact for the oracle's ``array('d')``/``array('q')`` label
buffers -- the budget is a *residency model*, not an RSS cap, and the
model is chosen so budgeted runs behave identically across platforms.
Tree-index residency is reported separately by
:meth:`FrozenOracle.cache_snapshot` (it is owned by
the oracle, sized by the workload's patch history, and dropped
wholesale under the adaptive index policy); per-patch shared-region
caches are transient and never survive a patch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["RowCache", "ROW_OVERHEAD_BYTES", "row_nbytes"]

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


class RowCache(dict):
    """The oracle's row store with byte accounting and budgeted eviction.

    A ``dict`` mapping core node id -> ``_Row``.  All mutation goes
    through ``__setitem__`` / ``__delitem__`` / :meth:`evict` /
    :meth:`clear`, which keep :attr:`total_bytes` exact; lookups go
    through :meth:`get`, which tracks hits/misses and (under a budget)
    the recency order the eviction policy tiebreaks on.

    The cache never evicts on its own: the owning oracle calls
    :meth:`enforce` at its consistency boundaries (after a row install,
    at the end of a patch) and :meth:`evict` for policy drops, passing
    an ``on_evict`` callback that de-registers the row from the
    oracle's inverted tree-edge index.  Counters are lifetime values --
    :meth:`clear` (a full invalidate) resets residency, not history.
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
        #: Callback ``(source_id, row) -> None`` run by :meth:`evict`
        #: after the row leaves the store (tree-index de-registration).
        self.on_evict = None
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
        nbytes = self._row_nbytes(row)
        self._meta[source_id] = (nbytes, self._recompute_cost(row))
        self.total_bytes += nbytes
        if self.total_bytes > self.peak_bytes:
            self.peak_bytes = self.total_bytes
        super().__setitem__(source_id, row)

    def __delitem__(self, source_id: int) -> None:
        super().__delitem__(source_id)
        self.total_bytes -= self._meta.pop(source_id)[0]
        self._served.pop(source_id, None)

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
        """Drop one row, count it under ``reason``, run ``on_evict``.

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
        if self.on_evict is not None:
            self.on_evict(source_id, row)
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
