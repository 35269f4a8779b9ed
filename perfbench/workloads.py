"""The three benchmark workloads and the replay probe that times them.

Every workload is a closed loop with one caller in one thread: the next
operation starts only after the previous one returned.  Trace time is
simulated, so there is no offered rate.  All inputs (topology, instance
parameters, schedule) are built in ``setup`` from the seed, before the
timed window; the program sees only the generated inputs and runs in
its default configuration (``sofda()`` and ``OnlineSimulator`` with no
knob set).

A *request* is the unit of user-visible work: one offline ``sofda()``
solve, or one arrival embedded by ``OnlineSimulator.embed_leased``.
Network-state changes (``apply_background_load``, ``fail_link``,
``recover_link``) happen between requests and count toward the window.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.problem import ServiceChain
from repro.core.validation import ForestInfeasible, check_forest
from repro.graph import Graph
from repro.graph.graph import edge_sort_key
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import generators
from repro.topology.network import CloudNetwork
from repro.workload import (
    BackgroundChurn,
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    WorkloadEngine,
    WorkloadEvent,
    build_schedule,
)

from calibrate import Calibrator
from layers import TOPOLOGY_LAYER, now, sofda_mod, untraced_call

#: Signature of :meth:`layers.Layers.call` (or the untraced stand-in).
Call = Callable[..., object]


#: Seconds between machine-speed calibrations during a replay.
CALIBRATE_EVERY_S = 0.2


class StopReplay(Exception):
    """Raised at the start of the first operation after the window closed."""


@dataclass
class Probe:
    """Times one replay and collects the outputs the gate checks.

    ``seconds`` closes the window once that much measured time has
    passed; ``units`` closes it after exactly that many requests, which
    makes every count in the run repeat exactly for a seed.  Checks run
    inside the replay (a forest must be checked against the graph it
    was embedded on) but their time is excluded from the window.

    The machine speed is sampled at operation boundaries every
    :data:`CALIBRATE_EVERY_S`; :attr:`scale` converts the window's
    times to reference speed (see :mod:`calibrate`).
    """

    seconds: Optional[float] = None
    units: Optional[int] = None
    #: Span wrapper (:meth:`layers.Layers.call` in traced runs).
    call: Call = untraced_call
    #: Called after every top-level operation with the request ordinal
    #: the operation belongs to (tags trace events in traced runs).
    on_op: Callable[[int], None] = lambda request: None
    calibrator: Calibrator = field(default_factory=Calibrator)
    #: Wall time of each request / state change.
    requests: List[float] = field(default_factory=list)
    updates: List[float] = field(default_factory=list)
    #: ``(request ordinal, text)`` outputs compared against the goldens.
    log: List[Tuple[int, str]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    excluded: float = 0.0
    window: float = 0.0
    #: Reference-speed factor of the window, set by :meth:`end`.
    scale: float = 1.0
    stop: bool = False
    rejected: int = 0
    accepted: int = 0
    rerouted: int = 0
    disrupted: int = 0
    failures_applied: int = 0
    total_cost: float = 0.0
    conflict: Dict[str, int] = field(
        default_factory=lambda: {"clean": 0, "resolved": 0, "repaired": 0})
    _start: float = 0.0
    _calibrated: float = 0.0
    _first_sample: int = 0

    def begin(self) -> None:
        self._first_sample = len(self.calibrator.samples)
        self._calibrate()
        self._start = now()
        self.excluded = 0.0

    def elapsed(self) -> float:
        return now() - self._start - self.excluded

    def _calibrate(self) -> None:
        self.outside("bench.calibrate", self.calibrator.calibrate)
        self._calibrated = now()

    def before_op(self) -> None:
        """Called at each operation boundary: sample the speed when due."""
        if now() - self._calibrated >= CALIBRATE_EVERY_S:
            self._calibrate()

    def end(self) -> None:
        self.window = self.elapsed()
        self._calibrate()
        self.scale = self.calibrator.scale(self._first_sample)

    def update_done(self, seconds: float) -> None:
        self.updates.append(seconds)

    def request_done(self, seconds: float, text: str,
                     cost: Optional[float]) -> None:
        ordinal = len(self.requests)
        self.requests.append(seconds)
        self.log.append((ordinal, text))
        if cost is None:
            self.rejected += 1
        else:
            self.accepted += 1
            self.total_cost += cost
        if self.units is not None:
            self.stop = len(self.requests) >= self.units
        else:
            self.stop = self.elapsed() >= self.seconds

    def outside(self, name: str, fn: Callable, *args, **kwargs):
        """Run benchmark-side work (inputs, checks) outside the window."""
        t0 = now()
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self.excluded += now() - t0

    def check_forest(self, instance, forest) -> None:
        try:
            self.outside("bench.check", check_forest, instance, forest)
        except ForestInfeasible as exc:
            self.problems.append(
                f"request {len(self.requests)}: infeasible forest: {exc}")

    def record_stats(self, result) -> None:
        stats = result.stats
        self.conflict["clean"] += stats.clean
        self.conflict["resolved"] += (
            stats.case1 + stats.case2 + stats.case3 + stats.grafts)
        self.conflict["repaired"] += stats.repairs

    @property
    def attempted(self) -> int:
        return len(self.requests) + len(self.updates)


def solve(probe: Probe, instance):
    """The embedder every workload uses: default ``sofda()``."""
    result = sofda_mod.sofda(instance)
    probe.record_stats(result)
    return result


#: The network -- topology, failure-prone links, dense-patch standing
#: loads and cache-warming tenant -- is fixed across seeds, as in the
#: paper's Table I; the seed varies the traffic (instances, requests,
#: arrival and holding times, failure timeline).  Runs with different
#: seeds measure the same network under different load.
NETWORK_SEED = 0


# ----------------------------------------------------------------------
# offline-table1
# ----------------------------------------------------------------------
class OfflineTable1:
    """Independent Table-I instances, each solved on a fresh instance."""

    name = "offline-table1"
    primary = "requests"
    golden_units = 16
    setup_repeats = 5
    #: More instance parameters than any run can solve.
    stream_length = 2000

    def setup(self, seed: int, call: Call, metrics) -> dict:
        network = call(
            TOPOLOGY_LAYER, generators.inet_network,
            num_nodes=5000, num_links=10000, num_datacenters=2000,
            seed=NETWORK_SEED,
        )
        rng = random.Random(seed)
        stream = [(rng.randint(2, 26), seed * 100003 + i)
                  for i in range(self.stream_length)]
        return {"network": network, "stream": stream}

    def replay(self, state: dict, probe: Probe) -> None:
        network: CloudNetwork = state["network"]
        chain = ServiceChain.of_length(3)
        snapshots = state["snapshots"] = []
        for ordinal, (num_sources, instance_seed) in enumerate(state["stream"]):
            if probe.stop:
                return
            probe.before_op()
            instance = probe.outside(
                "bench.input", network.make_instance,
                num_sources=num_sources, num_destinations=6, num_vms=25,
                chain=chain, seed=instance_seed,
            )
            t0 = now()
            result = solve(probe, instance)
            seconds = now() - t0
            probe.check_forest(instance, result.forest)
            snapshots.append(
                probe.outside("bench.check", instance.oracle.cache_snapshot))
            state["last_instance"] = instance
            probe.request_done(seconds, f"solve {result.cost!r}", result.cost)
            probe.on_op(ordinal)
        raise RuntimeError("offline instance stream exhausted")


# ----------------------------------------------------------------------
# online workloads, replayed through WorkloadEngine
# ----------------------------------------------------------------------
def attach_probe(simulator: OnlineSimulator, probe: Probe) -> None:
    """Time the engine-facing simulator operations of one replay.

    Wrappers go on the simulator *instance*, so only calls made by the
    engine (and the simulator's own nested calls, passed straight
    through) see them.  A top-level operation that starts after the
    window closed raises :class:`StopReplay` before doing any work, so
    the simulator is left consistent.
    """
    depth = [0]

    def wrap(name: str, after: Callable) -> None:
        inner = getattr(simulator, name)

        def wrapper(*args, **kwargs):
            if depth[0]:
                return inner(*args, **kwargs)
            if probe.stop:
                raise StopReplay
            probe.before_op()
            ordinal = len(probe.requests)
            depth[0] += 1
            t0 = now()
            try:
                result = inner(*args, **kwargs)
            finally:
                depth[0] -= 1
            after(now() - t0, args, result)
            probe.on_op(ordinal)
            return result

        setattr(simulator, name, wrapper)

    def arrival(seconds, args, result):
        cost, lease = result
        if lease is not None:
            probe.check_forest(lease.forest.instance, lease.forest)
        text = "rejected" if cost is None else repr(cost)
        probe.request_done(seconds, f"arrive {args[0].index} {text}", cost)

    def update(seconds, args, result):
        probe.update_done(seconds)

    def failure(seconds, args, result):
        probe.update_done(seconds)
        probe.failures_applied += 1
        probe.rerouted += len(result.rerouted)
        probe.disrupted += len(result.disrupted)
        probe.log.append((len(probe.requests),
                          f"fail {result.link!r} rerouted={list(result.rerouted)}"
                          f" disrupted={list(result.disrupted)}"))

    wrap("embed_leased", arrival)
    wrap("apply_background_load", update)
    wrap("fail_link", failure)
    wrap("recover_link", update)
    wrap("release", lambda seconds, args, result: None)


class OnlineWorkload:
    """Shared replay of a schedule through one default simulator."""

    primary = "requests"

    def replay(self, state: dict, probe: Probe) -> None:
        simulator = state["simulator"]
        attach_probe(simulator, probe)
        engine = WorkloadEngine(simulator, lambda inst: solve(probe, inst).forest)
        try:
            engine.run(state["schedule"])
        except StopReplay:
            return
        raise RuntimeError(f"{self.name} schedule exhausted before the window "
                           "closed; lengthen it")


class ChurnFailures(OnlineWorkload):
    """Tenant churn, background load and link failures on a 1000-node Inet."""

    name = "churn-failures"
    golden_units = 16
    setup_repeats = 5
    #: Trace-time horizon; far more arrivals than a run can embed.
    horizon = 400.0

    def setup(self, seed: int, call: Call, metrics) -> dict:
        network = call(
            TOPOLOGY_LAYER, generators.inet_network,
            num_nodes=1000, num_links=2000, num_datacenters=20,
            seed=NETWORK_SEED,
        )
        simulator = OnlineSimulator(network, vms_per_datacenter=5,
                                    metrics=metrics)
        generator = RequestGenerator(
            network, seed=seed, destinations_range=(3, 4),
            sources_range=(2, 2),
        )
        edges = sorted(((u, v) for u, v, _ in network.graph.edges()),
                       key=edge_sort_key)
        hot = edges[:24]
        background = BackgroundChurn(
            period=1.0, link_batches=tuple(tuple(hot[i::6]) for i in range(6)),
            demand_mbps=2.0,
        )
        datacenters = set(network.datacenters)
        incident = [(u, v) for u, v in edges
                    if u in datacenters or v in datacenters]
        failing = random.Random(NETWORK_SEED).sample(incident, 32)
        schedule = build_schedule(
            PoissonArrivals(generator, rate=0.9, seed=seed * 10 + 1),
            horizon=self.horizon,
            holding=ExponentialHolding(mean=3.0, seed=seed * 10 + 2),
            background=background,
            failures=LinkFailureProcess(failing, mtbf=25.0, mttr=1.0,
                                        seed=seed * 10 + 4),
        )
        simulator.apply_background_load((), 0.0)  # warm the VM-pool rows
        return {"simulator": simulator, "schedule": schedule,
                "probe_request": generator.next_request()}


#: Hub-and-pods shape: every pod hangs off the hub by one uplink, so a
#: re-priced uplink is a tree edge in every cached row.  Pod nodes keep
#: degree >= 3, which keeps degree-2 chain contraction out of the way.
DENSE_PODS = 40
DENSE_POD_WIDTH = 4
DENSE_POD_LEVELS = 3
DENSE_DCS = 120


def dense_network() -> CloudNetwork:
    """Hub-and-pods access topology with single-uplink aggregation pods."""
    graph = Graph()
    graph.add_node("hub")
    dcs = []
    for j in range(DENSE_DCS):
        dc = ("dc", j)
        graph.add_edge("hub", dc, 1.0)
        dcs.append(dc)
    for i in range(DENSE_PODS):
        prev_level = [("gw", i)]
        graph.add_edge("hub", ("gw", i), 1.0)
        for k in range(DENSE_POD_LEVELS):
            level = [("pod", i, k, w) for w in range(DENSE_POD_WIDTH)]
            for node in level:
                for prev in prev_level:
                    graph.add_edge(node, prev, 1.0)
            prev_level = level
    return CloudNetwork(name="dense-pods", graph=graph, datacenters=dcs)


class DensePatch(OnlineWorkload):
    """Long blocks of uplink re-pricing over a 600-row VM-pool cache."""

    name = "dense-patch"
    primary = "updates"
    golden_units = 1
    setup_repeats = 3
    ticks_per_request = 80
    links_per_tick = 4
    num_requests = 100

    def setup(self, seed: int, call: Call, metrics) -> dict:
        network = call(TOPOLOGY_LAYER, dense_network)
        simulator = OnlineSimulator(network, vms_per_datacenter=5,
                                    metrics=metrics)
        rng = random.Random(NETWORK_SEED)
        internals = sorted(
            ((u, v) for u, v, _ in network.graph.edges()
             if u != "hub" and v != "hub"),
            key=repr,
        )
        for u, v in internals:  # heterogeneous standing utilisation
            simulator.tracker.add_link_load(u, v, 1.0 + rng.random())

        def requests(seed: int) -> RequestGenerator:
            return RequestGenerator(
                network, seed=seed, destinations_range=(2, 3),
                sources_range=(1, 1), chain_length=1,
            )

        # The cache-warming tenant stays for the whole run, so it is part
        # of the network, not of the seeded traffic.
        warm = requests(NETWORK_SEED).next_request()
        simulator.embed(warm, lambda inst: sofda_mod.sofda(inst).forest)
        arrivals = requests(seed).take(self.num_requests + 1)
        uplinks = [("hub", ("gw", i)) for i in range(DENSE_PODS)]
        schedule = []
        tick = 0
        for request in arrivals[:-1]:
            for _ in range(self.ticks_per_request):
                batch = tuple(uplinks[(tick + j * 7) % DENSE_PODS]
                              for j in range(self.links_per_tick))
                tick += 1
                schedule.append(WorkloadEvent(
                    time=float(len(schedule) + 1), kind="background",
                    links=batch, demand_mbps=0.5))
            # The tenant leaves halfway through the next block, so state
            # stays bounded and each block carries one decrease patch.
            schedule.append(WorkloadEvent(
                time=float(len(schedule) + 1), kind="arrive", request=request,
                hold=self.ticks_per_request / 2 + 0.5))
        return {"simulator": simulator, "schedule": schedule,
                "probe_request": arrivals[-1]}


WORKLOADS = {w.name: w for w in (OfflineTable1(), ChurnFailures(), DensePatch())}


def percentile(values: List[float], q: float) -> Optional[float]:
    """The ``q`` quantile, or ``None`` with fewer than ten samples beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
