"""Record the benchmark's input pools and the digests of their outputs.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It draws every pool with workloads.POOL_SEED, runs each input once (the
dense spectra with workers=1, so later runs at workers=2 are compared with
the one-worker result), checks the workload's invariants, and writes
perfbench/reference.json. Recording takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import random
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))


def record(wl) -> dict:
    pool = wl.make_pool(random.Random(f"{workloads.POOL_SEED}:{wl.name}"))
    for cls, entries in pool.items():
        for entry in entries:
            if wl.in_process:
                result = wl.prepare_reference(entry)()
            else:
                result = wl.execute(wl.prepare(entry))
            errors = wl.invariants(entry, result)
            if errors:
                raise SystemExit(f"{wl.name}/{cls}: {entry} fails its invariants: {errors}")
            entry["digest"] = workloads.digest(wl.canon(entry, result))
        print(f"{wl.name}/{cls}: {len(entries)} entries", file=sys.stderr)
    return pool


def main() -> None:
    out = {
        "pool_seed": workloads.POOL_SEED,
        "workloads": {name: record(wl) for name, wl in workloads.WORKLOADS.items()},
    }
    (workloads.ROOT / "perfbench" / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
