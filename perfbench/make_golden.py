#!/usr/bin/env python3
"""Record the golden outputs the benchmark gate compares against.

Replays each workload's fixed prefix (``golden_units`` requests) for
every seed in a range and writes ``perfbench/golden.json``.  The goldens
pin the program's behaviour at the commit they were taken on; run this
only when the benchmark itself changes, never to make a changed program
pass::

    python3 perfbench/make_golden.py --seeds 0 31
"""

from __future__ import annotations

import argparse
import json
import sys

from run import import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                        required=True)
    args = parser.parse_args(argv)
    import_program()
    from layers import untraced_call
    from workloads import WORKLOADS, Probe

    golden = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            state = workload.setup(seed, untraced_call, None)
            probe = Probe(units=workload.golden_units)
            probe.begin()
            workload.replay(state, probe)
            if probe.problems or probe.rejected:
                sys.exit(f"{name} seed {seed}: {probe.rejected} rejected, "
                         f"problems {probe.problems}")
            golden[name][str(seed)] = [list(entry) for entry in probe.log]
            print(f"{name} seed {seed}: {len(probe.log)} outputs", flush=True)
    write_golden(golden)
    return 0


def write_golden(golden: dict) -> None:
    """Write ``golden.json`` with one line per (workload, seed)."""
    from checks import GOLDEN_PATH

    workloads = []
    for name in sorted(golden):
        seeds = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(log)}"
                           for seed, log in sorted(golden[name].items(),
                                                   key=lambda kv: int(kv[0])))
        workloads.append(f" {json.dumps(name)}: {{\n{seeds}\n }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(workloads) + "\n}\n",
                           encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
