"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 perfbench/spread.py run --seeds 601-610 > perfbench/results/set1.txt
    python3 perfbench/spread.py compare perfbench/results/set1.txt perfbench/results/set2.txt

`run` runs every workload of BENCHMARK.json (or --workloads a,b) once per
seed, untraced, at the file's run_seconds, and prints one line per run
(`<workload> <seed> <metrics as JSON>`) followed by an indented line with the
run's host speed and its timings before scaling to nominal speed, then per
workload and metric the median, the quartile spread (distance between the
first and third quartile of statistics.quantiles(values, n=4), over the
median), the bound, whether the spread is inside it, and the spread the
same runs would have had unscaled. `compare` reads two such outputs and
prints, per workload and metric, both medians, how much worse the second is
than the first, as a share of the first, and whether that is inside the
bound. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(vals: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def run(workloads: list[str], seeds: list[int]) -> None:
    values: dict[str, dict[str, list[float]]] = {}
    unscaled: dict[str, dict[str, list[float]]] = {}
    for wl in workloads:
        for seed in seeds:
            proc = subprocess.run(
                SPEC["command"] + ["--workload", wl, "--seed", str(seed),
                                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{wl} {seed} FAILED exit={proc.returncode} {proc.stderr[-400:]!r}", flush=True)
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            for k, v in metrics.items():
                values.setdefault(wl, {}).setdefault(k, []).append(v)
            provenance = next(json.loads(line.split(" ", 1)[1]) for line in proc.stdout.splitlines()
                              if line.startswith("provenance "))
            for k, v in provenance["unscaled"].items():
                unscaled.setdefault(wl, {}).setdefault(k, []).append(v)
            print(f"{wl} {seed} {json.dumps(metrics)}", flush=True)
            print(f"  host_speed={provenance['host_speed_median']:.3f} rounds={provenance['rounds']} "
                  f"unscaled={json.dumps(provenance['unscaled'])}", flush=True)
    for wl, by_metric in values.items():
        for name, vals in by_metric.items():
            med = statistics.median(vals)
            bound = BOUNDS[name]["bound"]
            raw = unscaled[wl].get(name)
            print(f"  {wl} {name}: median={med:.4f} spread={spread(vals):.3f} bound={bound} "
                  f"{'inside' if spread(vals) <= bound else 'OUTSIDE'} min={min(vals):.4f} max={max(vals):.4f}"
                  + (f" unscaled_spread={spread(raw):.3f}" if raw else ""))


def read_set(path: str) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith(" ") or "FAILED" in line:
            continue
        wl, _, metrics = line.split(" ", 2)
        for k, v in json.loads(metrics).items():
            values.setdefault(wl, {}).setdefault(k, []).append(v)
    return values


def compare(first: str, second: str) -> None:
    a, b = read_set(first), read_set(second)
    for wl in a:
        for name, vals in a[wl].items():
            m1, m2 = statistics.median(vals), statistics.median(b[wl][name])
            spec = BOUNDS[name]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            print(f"{wl} {name}: median1={m1:.4f} median2={m2:.4f} worse_by={worse:+.3f} "
                  f"bound={spec['bound']} {'inside' if worse <= spec['bound'] else 'OUTSIDE'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", required=True, help="first-last, e.g. 601-610")
    p_run.add_argument("--workloads", help="comma-separated; default every workload")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = parser.parse_args()
    if args.mode == "run":
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
        run(names, seed_range(args.seeds))
    else:
        compare(args.first, args.second)
    return 0


if __name__ == "__main__":
    sys.exit(main())
