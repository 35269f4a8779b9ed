#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the SOF embedder.

Run from the repository root::

    python3 perfbench/run.py --workload churn-failures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload dense-patch --repeat 5  # spread report

``--trace 0`` prints the end-to-end metrics of one timed window (median
of several set-ups for ``setup_s``).  ``--trace 1`` replays a fixed
prefix twice, untraced and traced, writes the traced spans as a
``sof-obs-trace`` v1 JSONL file under ``perfbench/out/`` and prints the
per-layer metrics.  Both check the outputs (see :mod:`checks`).  The
last line of a single run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("offline-table1", "churn-failures", "dense-patch")
OUT_DIR = HERE / "out"
#: Bound on one single-workload child process in ``all``/``--repeat``.
CHILD_TIMEOUT_S = 180


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it.

    Exits with status 2 when the checkout has no program, rather than
    falling back to some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def git_head() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_head(),
    }


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def gate(workload, seed: int, state: dict, probe) -> list:
    """Golden outputs, feasibility (already in ``probe``) and oracle rows."""
    from checks import compare_golden, oracle_rows_match

    problems = list(probe.problems)
    compared, golden = compare_golden(
        workload.name, seed, probe.log, len(probe.requests),
        workload.golden_units)
    problems += golden
    if "simulator" in state:
        instance = state["simulator"].current_instance(state["probe_request"])
    else:
        instance = state["last_instance"]
    distances, oracle = oracle_rows_match(instance, seed)
    problems += oracle
    if compared is None:
        print(f"  gate: no golden outputs committed for seed {seed}")
    else:
        print(f"  gate: {compared} golden outputs compared")
    print(f"  gate: {len(probe.requests)} forests checked, {distances} oracle "
          f"distances compared with networkx, {len(problems)} problems")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    return problems


def result_line(probe, problems: list, metrics: dict) -> str:
    failed = probe.rejected + len(problems)
    return json.dumps({
        "correct": not problems,
        "attempted": probe.attempted,
        "failed": failed,
        "metrics": metrics,
    })


def report_end_to_end(workload, probe, setups, setup_scale) -> dict:
    """Print every end-to-end metric; return the BENCHMARK.json ones.

    The BENCHMARK.json times are at reference speed (see
    :mod:`calibrate`); the raw wall times are printed beside them.
    """
    from workloads import percentile

    primary = probe.requests if workload.primary == "requests" else probe.updates
    raw = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(probe.requests) / probe.window,
        "latency_mean_ms": 1000 * statistics.fmean(primary),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
        "requests_per_s": (raw["requests_per_s"] / probe.scale, "1/s"),
        "latency_mean_ms": (raw["latency_mean_ms"] * probe.scale, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    print(f"  {'metric':18s} {'reference speed':>16s} {'wall clock':>16s}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:18s} {value:16.6f} {raw[name]:16.6f} {unit}")
    print(f"  ({len(setups)} set-ups; {len(probe.requests)} requests and "
          f"{len(probe.updates)} state changes in a {probe.window:.3f} s "
          f"window; latency_mean_ms is per {workload.primary[:-1]}; "
          f"reference-speed factor {probe.scale:.4f} over the window, "
          f"{setup_scale:.4f} over the set-ups)")
    for label, values in (("embed", probe.requests),
                          ("update", probe.updates)):
        for q in (0.5, 0.9):
            value = percentile(values, q)
            name = f"{label}_p{round(q * 100)}_ms"
            shown = ("n/a" if value is None
                     else f"{1000 * value * probe.scale:16.6f} ms")
            print(f"  {name:18s} {shown}  (n={len(values)})")
    arrivals = probe.accepted + probe.rejected
    print(f"  reject_rate        {probe.rejected / max(arrivals, 1):.6f}"
          f"  ({probe.rejected}/{arrivals})")
    if probe.failures_applied:
        print(f"  disruption_rate    {probe.disrupted / max(probe.accepted, 1):.6f}"
              f"  ({probe.disrupted} disrupted, {probe.rerouted} rerouted, "
              f"{probe.failures_applied} link failures)")
    print(f"  total_cost         {probe.total_cost!r}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def timed_run(workload, seed: int, seconds: float) -> str:
    from calibrate import Calibrator
    from layers import now, untraced_call
    from workloads import Probe

    calibrator = Calibrator()
    setups = []
    state = None
    for _ in range(workload.setup_repeats):
        state = None
        gc.collect()
        calibrator.calibrate()
        t0 = now()
        state = workload.setup(seed, untraced_call, None)
        setups.append(now() - t0)
    calibrator.calibrate()
    setup_scale = calibrator.scale()
    gc.collect()
    probe = Probe(seconds=seconds, calibrator=calibrator)
    probe.begin()
    workload.replay(state, probe)
    probe.end()
    metrics = report_end_to_end(workload, probe, setups, setup_scale)
    problems = gate(workload, seed, state, probe)
    return result_line(probe, problems, metrics)


def traced_run(workload, seed: int) -> str:
    from layers import Layers, now, untraced_call
    from repro.obs import write_trace_events
    from workloads import Probe

    units = workload.golden_units

    def untraced_replay():
        """The same prefix untraced: the base of ``trace.overhead``."""
        state = workload.setup(seed, untraced_call, None)
        gc.collect()
        reference = Probe(units=units)
        reference.begin()
        workload.replay(state, reference)
        reference.end()
        return reference

    # One untraced replay before and one after the traced one, so the
    # first replay's warm-up is not charged to either side.
    before = untraced_replay()
    gc.collect()

    layers = Layers()
    layers.install()
    try:
        state = layers.call("bench.setup", workload.setup, seed, layers.call,
                            layers.recorder)
        tagged = layers.tag_requests(0, -1)

        def on_op(request: int) -> None:
            nonlocal tagged
            tagged = layers.tag_requests(tagged, request)

        probe = Probe(units=units, call=layers.call, on_op=on_op)
        gc.collect()
        probe.begin()
        covered = layers.covered
        wall0 = now()
        workload.replay(state, probe)
        wall = now() - wall0
        replay_covered = layers.covered - covered
        probe.end()
        layers.tag_requests(tagged, len(probe.requests))
    finally:
        layers.uninstall()

    after = untraced_replay()
    untraced_window = (before.window * before.scale
                       + after.window * after.scale) / 2

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{workload.name}-seed{seed}.trace.jsonl"
    write_trace_events(layers.tracer.events, str(trace_path))
    metrics = layer_metrics(layers, state, probe)
    metrics["trace.unattributed_share"] = (
        (wall - replay_covered) / wall, "ratio")
    metrics["trace.overhead"] = (
        probe.window * probe.scale / untraced_window, "ratio")

    print(f"  traced prefix: {len(probe.requests)} requests, "
          f"{len(probe.updates)} state changes; traced window "
          f"{probe.window:.3f} s vs untraced {before.window:.3f} s before "
          f"and {after.window:.3f} s after")
    print(f"  trace: {trace_path.relative_to(ROOT)} "
          f"({len(layers.tracer.events)} spans)")
    print(f"  {'layer (set-up + replay)':40s} {'calls':>9s} {'total_s':>10s} "
          f"{'self_s':>10s}")
    for name, calls, total, self_s in layers.self_table():
        print(f"  {name:40s} {calls:9d} {total:10.4f} {self_s:10.4f}")
    print(f"  {'unattributed (replay)':40s} {'':9s} "
          f"{wall - replay_covered:10.4f} {wall - replay_covered:10.4f}")
    print(f"  trace.overhead {metrics['trace.overhead'][0]:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value!r} {unit}")
    problems = gate(workload, seed, state, probe)
    for reference in (before, after):
        if reference.log != probe.log:
            problems.append("traced outputs differ from an untraced replay")
    return result_line(probe, problems, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()})


def layer_metrics(layers, state: dict, probe) -> dict:
    """Every per-layer metric of BENCHMARK.json as ``name -> (value, unit)``."""
    from layers import INIT_LAYER, TOPOLOGY_LAYER

    registry = layers.recorder.registry
    total, calls, self_time = layers.total, layers.calls, layers.self_time
    if "simulator" in state:
        cache = state["simulator"].cache_snapshot()
    else:
        snaps = state["snapshots"]
        cache = {key: sum(s[key] for s in snaps)
                 for key in ("hits", "misses", "evictions")}
        cache["peak_bytes"] = max(s["peak_bytes"] for s in snaps)
    repairs = {"reference": 0, "planned": 0, "shared": 0, "offset": 0}
    for key, value in registry.snapshot()["counters"].items():
        if key.startswith("oracle.repair.rows{"):
            labels = dict(part.split("=", 1)
                          for part in key[len("oracle.repair.rows{"):-1].split(","))
            repairs[labels["path"]] = repairs.get(labels["path"], 0) + int(value)
    lookups = cache["hits"] + cache["misses"]
    m = {
        "topology.generators.build_s": (total[TOPOLOGY_LAYER], "s"),
        "graph.indexed.init_s": (
            total[INIT_LAYER] + registry.histogram_sum("oracle.build"), "s"),
        "graph.indexed.init_calls": (calls[INIT_LAYER], "count"),
    }
    for layer, unit_names in (
        ("graph.indexed.prefetch_rows", ("s", "calls")),
        ("graph.indexed.distance", ("calls",)),
        ("graph.indexed.distances_to", ("calls",)),
        ("graph.indexed.detour_distances", ("calls",)),
        ("graph.indexed.patch_edge_costs", ("s", "calls")),
        ("graph.indexed.patch_topology", ("s", "calls")),
        ("core.problem.metric_block", ("s", "calls")),
        ("core.sofda.sofda", ("s",)),
        ("core.sofda.build_auxiliary_graph", ("s",)),
        ("core.transform.chain_walk", ("s", "calls")),
        ("graph.kstroll.solve_kstroll", ("s", "calls")),
        ("graph.steiner.steiner_tree", ("s",)),
        ("core.conflict.resolve_and_add_chain", ("s",)),
        ("core.validation.check_forest", ("s",)),
        ("core.dynamic.reroute_failed_link", ("s",)),
        ("workload.lifecycle.run", ("s",)),
    ):
        for suffix in unit_names:
            if suffix == "s":
                m[f"{layer}_s"] = (total[layer], "s")
            else:
                m[f"{layer}_calls"] = (calls[layer], "count")
    m["graph.indexed.patch_edges"] = (
        int(registry.counter_total("oracle.patch.edges")), "count")
    for path in ("reference", "planned", "shared", "offset"):
        m[f"graph.indexed.repair_rows.{path}"] = (repairs[path], "count")
    m["graph.rowcache.misses"] = (cache["misses"], "count")
    m["graph.rowcache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio")
    m["graph.rowcache.evictions"] = (cache["evictions"], "count")
    m["graph.rowcache.peak_bytes"] = (cache["peak_bytes"], "bytes")
    m["core.sofda.self_s"] = (self_time["core.sofda.sofda"], "s")
    for outcome in ("clean", "resolved", "repaired"):
        m[f"core.conflict.{outcome}"] = (probe.conflict[outcome], "count")
    m["core.dynamic.rerouted"] = (probe.rerouted, "count")
    m["core.dynamic.disrupted"] = (probe.disrupted, "count")
    simulator_self = 0.0
    for method in ("embed_leased", "current_instance", "commit", "release",
                   "apply_background_load", "fail_link", "recover_link"):
        layer = f"online.simulator.{method}"
        m[f"{layer}_s"] = (total[layer], "s")
        simulator_self += self_time[layer]
    m["online.simulator.self_s"] = (simulator_self, "s")
    m["workload.lifecycle.self_s"] = (self_time["workload.lifecycle.run"], "s")
    return m


def single(args) -> int:
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"({mode})")
    print("  fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    if args.trace:
        line = traced_run(workload, args.seed)
    else:
        line = timed_run(workload, args.seed, args.seconds)
    print(line)
    return 0


# ----------------------------------------------------------------------
# several runs, each in a fresh process
# ----------------------------------------------------------------------
def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; return its result object."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartile_summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    low = min(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "max_min": max(values) / low if low else float("inf")}


def several(args) -> int:
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = max(args.repeat, 1)
    summary = {}
    correct = True
    for name in names:
        results = [child(name, args.seed + i, args.seconds, args.trace)
                   for i in range(runs)]
        correct &= all(r["correct"] for r in results)
        metrics = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            metrics[key] = (quartile_summary(values) if runs >= 2
                            else {"value": values[0]})
            metrics[key]["unit"] = results[0]["metrics"][key]["unit"]
        summary[name] = {"runs": runs, "seeds": [args.seed, args.seed + runs - 1],
                         "correct": all(r["correct"] for r in results),
                         "metrics": metrics}
    print("\nsummary")
    for name, entry in summary.items():
        print(f"{name} ({entry['runs']} runs, seeds {entry['seeds'][0]}.."
              f"{entry['seeds'][1]}, correct={entry['correct']})")
        for key, stats in entry["metrics"].items():
            if "median" in stats:
                print(f"  {key:44s} median {stats['median']:.6g} {stats['unit']}"
                      f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                      f"  iqr/median {stats['iqr_share']:.4f}"
                      f"  max/min {stats['max_min']:.4f}")
            else:
                print(f"  {key:44s} {stats['value']:.6g} {stats['unit']}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload N times (seeds seed..seed+N-1) "
                             "in fresh processes and print median, quartiles "
                             "and max/min per metric")
    args = parser.parse_args(argv)
    if args.workload == "all" or args.repeat:
        return several(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
