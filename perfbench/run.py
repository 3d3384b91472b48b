"""apn-forge benchmark: one seeded workload, end to end or layer by layer.

    python3 perfbench/run.py --workload spectrum_structured --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports apnforge from ./src and needs
nothing but the standard library and numpy. --trace 0 measures the
end-to-end metrics with no instrumentation, each timing scaled to the
host's nominal speed by the probes of calibrate.py. --trace 1 runs the workload
for half of --seconds untraced, then runs the very same queries again with
span wrappers around the public functions of every layer, and reports the
per-layer metrics and the tracing overhead. Every output is checked
against reference.json and the workload's invariants; any failure makes
the command exit with status 1. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT, SRC = workloads.ROOT, workloads.SRC
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 11
CLI_PROBES = 3  # per round
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
HARD_STOP_S = 150.0  # measured phases end by then, whatever --seconds says

PREDICTED = {
    "spectrum_structured": {"apn"},
    "spectrum_dense": {"apn"},
    "algebra_deg12": {"criteria", "tripoly", "fields"},
    "cli_cold": {"cli.interpreter+import"},
}

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

START = time.perf_counter()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Phase:
    queries: list = field(default_factory=list)
    latency_ns: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    max_child_rss_kb: int = 0
    stdout_bytes: int = 0
    probe_s: list = field(default_factory=list)  # host-speed probes: one before each query, one after the last

    @property
    def busy_s(self) -> float:
        return sum(self.latency_ns) / 1e9


def run_queries(wl, queries, execute, phase: Phase, between=None, probe=None) -> None:
    """Run queries one at a time; `between`, when given, is called with the
    phase between consecutive queries, outside their timed spans, and
    `probe`, when given, right before each query."""
    for q in queries:
        if between is not None and phase.queries:
            between(phase)
        if probe is not None:
            phase.probe_s.append(probe())
        t0 = time.perf_counter_ns()
        try:
            result = execute(q.call)
        except Exception:  # a raising query is a failed query; keep measuring
            phase.latency_ns.append(time.perf_counter_ns() - t0)
            phase.queries.append(q)
            phase.failures.append((q.cls, q.entry.get("f") or q.entry.get("argv"), traceback.format_exc(limit=3)))
            continue
        phase.latency_ns.append(time.perf_counter_ns() - t0)
        phase.queries.append(q)
        errors = wl.verify(q.entry, result)
        if errors:
            phase.failures.append((q.cls, q.entry.get("f") or q.entry.get("argv"), "; ".join(errors)))
        if not wl.in_process:
            phase.max_child_rss_kb = max(phase.max_child_rss_kb, result.maxrss_kb)
            phase.stdout_bytes += len(result.stdout)


def timed_phase(wl, rounds, seconds: float, execute, replay=None, between=None, probe=None) -> Phase:
    """Whole rounds, stopping at the round boundary nearest to `seconds` of
    summed query time (at least one round). `replay`, when given, gets each
    round's queries right after the round has run; `between` and `probe` go
    to run_queries, and `probe` runs once more after the last query."""
    phase = Phase()
    while time.perf_counter() - START < HARD_STOP_S:
        before = phase.busy_s
        queries = next(rounds)
        run_queries(wl, queries, execute, phase, between, probe)
        if replay is not None:
            replay(queries)
        if phase.busy_s + (phase.busy_s - before) / 2 >= seconds:
            break
    if probe is not None:
        phase.probe_s.append(probe())
    return phase


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return 50.0


def spawn_time(argv) -> float:
    t0 = time.perf_counter()
    if workloads.spawn(argv).returncode != 0:
        fail(f"probe {argv} failed")
    return time.perf_counter() - t0


class SetupProbes:
    """Time from a fresh interpreter to the first query being ready: import,
    make_field and the forced table build of every field used. The probes
    are taken one at a time between queries, spread evenly over the timed
    phase's `seconds` of query time, so that one slow or fast stretch of the
    host does not set the whole value. Each is scaled to the host's nominal
    speed by a "python" speed probe on either side of it; `median()`
    reports the median of the scaled times."""

    def __init__(self, wl, seconds: float):
        self.code = (
            f"import {wl.module}\n"
            "from apnforge import make_field\n"
            f"for m in {list(wl.fields)!r}:\n"
            "    make_field(m).has_tables\n"
            "print('ready', flush=True)\n"
        )
        self.every_s = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.probe()  # only warms the bytecode cache
        self.times.clear()
        self.raw_times.clear()

    def probe(self) -> None:
        speed_before = calibrate.probe("python")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", self.code], stdout=subprocess.PIPE, env=workloads.child_env(), cwd=ROOT
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            fail("set-up probe failed")
        speed = (speed_before + calibrate.probe("python")) / 2
        self.raw_times.append(elapsed)
        self.times.append(elapsed * calibrate.NOMINAL_S["python"] / speed)

    def __call__(self, phase: Phase) -> None:
        if len(self.times) < SETUP_PROBES and phase.busy_s >= len(self.times) * self.every_s:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:  # a phase shorter than `seconds`
            self.probe()
        return statistics.median(self.times)


def scaled_latency_ns(wl, phase: Phase) -> list[float]:
    """Each query's latency scaled to the host's nominal speed by the mean of
    the speed probes right before and right after it (calibrate.py)."""
    nominal = calibrate.NOMINAL_S[wl.calibration]
    p = phase.probe_s
    return [ns * nominal / ((p[i] + p[i + 1]) / 2) for i, ns in enumerate(phase.latency_ns)]


def per_entry(phase: Phase, latency_ns) -> list:
    """Sorted latencies over pool entries, each the median of its rounds."""
    by_entry: dict[int, list] = {}
    for q, ns in zip(phase.queries, latency_ns):
        by_entry.setdefault(id(q.entry), []).append(ns)
    return sorted(statistics.median(v) for v in by_entry.values())


def end_to_end(wl, phase: Phase, setup: SetupProbes) -> tuple[dict, dict]:
    import resource

    # Every timing is scaled to the host's nominal speed (scaled_latency_ns),
    # and every metric is over pool entries, each the median of its rounds.
    # A median, unlike the fastest round, does not drift lower as a faster
    # commit fits more rounds into the run, and percentiles over entries read
    # the same rank whatever the number of rounds.
    lat = per_entry(phase, scaled_latency_ns(wl, phase))
    raw = per_entry(phase, phase.latency_ns)
    tail_p = tail_percentile(len(lat))
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = phase.max_child_rss_kb
    metrics = {
        "throughput_qps": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": percentile(lat, 50.0) / 1e6,
        "latency_tail_ms": percentile(lat, tail_p) / 1e6,
        "setup_s": setup.median(),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    p = phase.probe_s
    info = {
        "samples": len(phase.queries),
        "latency_entries": len(lat),
        "rounds": len(phase.queries) // len(lat),
        "latency_tail_percentile": tail_p,
        "calibration": wl.calibration,
        "host_speed_median": statistics.median(calibrate.NOMINAL_S[wl.calibration] / t for t in p),
        "host_speed_min": min(calibrate.NOMINAL_S[wl.calibration] / t for t in p),
        "unscaled": {
            "throughput_qps": len(raw) / (sum(raw) / 1e9),
            "throughput_all_rounds_qps": len(phase.queries) / phase.busy_s,
            "latency_p50_ms": percentile(raw, 50.0) / 1e6,
            "latency_tail_ms": percentile(raw, tail_p) / 1e6,
            "setup_s": statistics.median(setup.raw_times),
        },
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def divisor_candidates(mode: str, big_degree: int) -> int:
    """Candidates cubic_divisor_search visits, computed from its mode and field
    (FULL: every tuple; CONSTRAINED: c4 = c1 trace-zero, b1 = 0, d in
    {c1^3} union the trace-zero set)."""
    from apnforge import make_field, trace_zero_elements

    big = make_field(big_degree)
    if mode == "FULL":
        return big.order**4
    tz = {e.bits for e in trace_zero_elements(big, big_degree // 3)}
    return sum(len(tz | {big.pow(c1, 3)}) for c1 in tz)


def per_layer(wl, spans, untraced: Phase, traced: Phase, cli_probe: dict) -> tuple[dict, dict]:
    own = tracer.self_times(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    attrs: dict[str, list] = {}
    for row, ns in zip(spans, own):
        name = row[tracer.NAME]
        calls[name] += 1
        self_ns[name] += ns
        if row[tracer.ATTRS] is not None:
            attrs.setdefault(name, []).append(row[tracer.ATTRS])
    layer_s = {
        layer: sum(v for n, v in self_ns.items() if n.startswith(layer + ".")) / 1e9
        for layer in tracer.LAYERS
    }

    def s(name):
        return self_ns[name] / 1e9

    pairs = sum(a["pairs"] for a in attrs.get("apn.spectrum", []))
    searches = attrs.get("criteria.cubic_divisor_search", [])
    shapes = Counter((a["mode"], a["big"]) for a in searches)
    candidates = sum(n * divisor_candidates(mode, big) for (mode, big), n in shapes.items())
    hits = sum(a["hits"] for a in searches)
    classified = calls["criteria.deg12_classify"]
    m = {
        "fields.table_build_s": (s("fields.table_build"), "s"),
        "fields.trace_zero_elements.calls": (calls["fields.trace_zero_elements"], "count"),
        "fields.trace_zero_elements.self_s": (s("fields.trace_zero_elements"), "s"),
        "fields.find_embedding.self_s": (s("fields.find_embedding"), "s"),
        "fields.self_s": (layer_s["fields"], "s"),
        "unipoly.eval_table.calls": (calls["unipoly.eval_table"], "count"),
        "unipoly.eval_table.self_s": (s("unipoly.eval_table"), "s"),
        "unipoly.self_s": (layer_s["unipoly"], "s"),
        "tripoly.divide.calls": (calls["tripoly.divide"], "count"),
        "tripoly.divide.self_s": (s("tripoly.divide"), "s"),
        "tripoly.self_s": (layer_s["tripoly"], "s"),
        "phi.build_phi.calls": (calls["phi.build_phi"], "count"),
        "phi.build_phi.self_s": (s("phi.build_phi"), "s"),
        "phi.terms_out": (sum(a["terms"] for a in attrs.get("phi.build_phi", [])), "count"),
        "phi.self_s": (layer_s["phi"], "s"),
        "apn.spectrum.calls": (calls["apn.spectrum"], "count"),
        "apn.spectrum.self_s": (s("apn.spectrum"), "s"),
        "apn.spectrum.ns_per_pair": (self_ns["apn.spectrum"] / pairs if pairs else 0.0, "ns"),
        "apn.self_s": (layer_s["apn"], "s"),
        "criteria.cubic_divisor_search.calls": (calls["criteria.cubic_divisor_search"], "count"),
        "criteria.cubic_divisor_search.self_s": (s("criteria.cubic_divisor_search"), "s"),
        "criteria.divisor.candidates": (candidates, "count"),
        "criteria.divisor.hits": (hits, "count"),
        "criteria.divisor.hit_ratio": (hits / candidates if candidates else 0.0, "ratio"),
        "criteria.deg12_classify.calls": (classified, "count"),
        "criteria.deg12_classify.self_s": (s("criteria.deg12_classify"), "s"),
        "criteria.family_phi_closed.calls": (calls["criteria.family_phi_closed"], "count"),
        "criteria.deg12.closed_per_classify": (
            calls["criteria.family_phi_closed"] / classified if classified else 0.0, "ratio"),
        "criteria.deg12.members": (
            sum(a["member"] for a in attrs.get("criteria.deg12_classify", [])), "count"),
        "criteria.self_s": (layer_s["criteria"], "s"),
        "cli.interpreter_s": (cli_probe.get("interpreter_s", 0.0), "s"),
        "cli.import_s": (cli_probe.get("import_s", 0.0), "s"),
        "cli.command_s": (cli_probe.get("command_s", 0.0), "s"),
        "cli.stdout_bytes": (cli_probe.get("stdout_bytes", 0.0), "bytes"),
        "trace.overhead_frac": (traced.busy_s / untraced.busy_s - 1.0, "ratio"),
    }
    shares = dict(layer_s)
    if cli_probe:
        n = len(untraced.queries)
        shares["cli.interpreter+import"] = (cli_probe["interpreter_s"] + cli_probe["import_s"]) * n
        shares["cli.command"] = cli_probe["command_s"] * n
    largest = max(shares, key=shares.get)
    info = {
        "self_s_by_layer": shares,
        "largest_self": largest,
        "largest_self_as_predicted": largest in PREDICTED[wl.name],
        "computed_metrics": ["criteria.divisor.candidates", "criteria.divisor.hit_ratio"],
    }
    return m, info


def traced_run(wl, rounds, seconds: float, execute) -> tuple[Phase, Phase, list, dict]:
    """Each round runs untraced and then, at once, traced, so a change in
    host speed during the run hits both sides alike."""
    recorder = tracer.Recorder()
    traced = Phase()
    if wl.in_process:
        from apnforge import FieldCtx

        def replay(queries):
            recorder.install()
            try:
                run_queries(wl, queries, execute, traced)
            finally:
                recorder.uninstall()

        recorder.install()
        try:
            for m in wl.fields:  # fresh contexts, so the set-up table builds are traced
                FieldCtx(m).has_tables
        finally:
            recorder.uninstall()
        untraced = timed_phase(wl, rounds, seconds, execute, replay)
        return untraced, traced, recorder.spans, {}

    spans_file = OUT_DIR / f"cli-spans-{os.getpid()}.json"
    traced_env = workloads.child_env(PERFBENCH_SPANS=str(spans_file))
    prefix = [sys.executable, str(HERE / "traced_cli.py")]

    def execute_traced(argv):
        result = wl.execute(argv, prefix=prefix, env=traced_env)
        rows = json.loads(spans_file.read_text())
        spans_file.unlink()
        offset = len(recorder.spans)
        for name, parent, start, end, attrs in rows:
            recorder.spans.append((name, parent + offset if parent >= 0 else -1, start, end, attrs))
        return result

    bare, imported = [], []

    def replay(queries):
        run_queries(wl, queries, execute_traced, traced)
        for _ in range(CLI_PROBES):  # start-up probes, in the same window as the round
            bare.append(spawn_time([sys.executable, "-c", "pass"]))
            imported.append(spawn_time([sys.executable, "-c", "import apnforge.cli"]))

    untraced = timed_phase(wl, rounds, seconds, execute, replay)
    interpreter = statistics.median(bare)
    commands = [row[tracer.END] - row[tracer.START] for row in recorder.spans if row[tracer.NAME] == "cli.main"]
    cli_probe = {
        "interpreter_s": interpreter,
        "import_s": statistics.median(imported) - interpreter,
        "command_s": sum(commands) / len(commands) / 1e9,
        "stdout_bytes": untraced.stdout_bytes / len(untraced.queries),
    }
    return untraced, traced, recorder.spans, cli_probe


def git_commit() -> str:
    """HEAD of the checkout; git looks no higher than the checkout itself."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    if not (SRC / "apnforge" / "__init__.py").is_file():
        fail(f"no apnforge sources under {SRC}; run from a repository checkout")
    reference_file = HERE / "reference.json"
    if not reference_file.is_file():
        fail("perfbench/reference.json is missing; record it with perfbench/make_reference.py")
    sys.path.insert(0, str(SRC))
    import numpy

    import apnforge

    if Path(apnforge.__file__).resolve().parent != (SRC / "apnforge").resolve():
        fail(f"imported apnforge from {apnforge.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads(reference_file.read_text())
    pool = reference["workloads"][wl.name]
    OUT_DIR.mkdir(exist_ok=True)

    if wl.in_process:
        execute = _call
        for m in wl.fields:
            apnforge.make_field(m).has_tables
    else:
        execute = wl.execute
    rounds = wl.rounds(pool, args.seed)

    if args.trace == 0:
        setup = SetupProbes(wl, args.seconds)
        probe = functools.partial(calibrate.probe, wl.calibration)
        probe()  # warm-up, not counted
        phase = timed_phase(wl, rounds, args.seconds, execute, between=setup, probe=probe)
        metrics, info = end_to_end(wl, phase, setup)
        phases = [phase]
        extra_checks = dense_worker_check(wl, phase)
    else:
        untraced, traced, spans, cli_probe = traced_run(wl, rounds, args.seconds / 2, execute)
        metrics, info = per_layer(wl, spans, untraced, traced, cli_probe)
        info["samples"] = len(untraced.queries)
        phases = [untraced, traced]
        extra_checks = []
        (OUT_DIR / f"{wl.name}-spans.json").write_text(json.dumps(spans))

    attempted = sum(len(p.queries) for p in phases)
    failures = [f for p in phases for f in p.failures] + extra_checks
    failed = min(attempted, len(failures))
    provenance = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "pool_seed": reference["pool_seed"],
        "queries_per_class": dict(Counter(q.cls for q in phases[0].queries)),
        "busy_s_per_class": busy_per_class(phases[0]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "wall_s": time.perf_counter() - START,
        **info,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(f"{'failed_frac':40s} {provenance['failed_frac']:>16.6f} fraction ({failed} of {attempted})")
    for cls, what, message in failures[:10]:
        print(f"FAILED {cls}: {what}: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1, sort_keys=True)
    )
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if not failures else 1


def busy_per_class(phase: Phase) -> dict:
    busy: Counter = Counter()
    for q, ns in zip(phase.queries, phase.latency_ns):
        busy[q.cls] += ns / 1e9
    return dict(busy)


def _call(prepared):
    return prepared()


def dense_worker_check(wl, phase: Phase) -> list:
    """spectrum_dense runs at workers=2; recompute the first 2^10 and 2^12
    queries of the run at workers=1 and require identical histograms. (The
    reference digests were recorded at workers=1, so every query is also
    compared with the one-worker result of the recording commit.)"""
    if wl.name != "spectrum_dense":
        return []
    failures = []
    for cls in ("m10", "m12"):
        q = next(q for q in phase.queries if q.cls == cls)
        one_worker = wl.prepare_reference(q.entry)()
        if workloads.digest(wl.canon(q.entry, one_worker)) != q.entry["digest"]:
            failures.append((cls, q.entry["f"], "workers=1 histogram differs from the recorded workers=1 "
                             "reference, against which the workers=2 output was checked"))
    return failures


if __name__ == "__main__":
    sys.exit(main())
