"""Re-measure three baseline rows of ROADMAP.md and compare them with it.

    python3 perfbench/baseline.py > baseline.json

Rows (ROADMAP figures, single wall-clock runs stated as +-20 %):
spectrum of x^5 over GF(2^14) at workers=1 (2.0 s), deg12_classify of a
non-member over GF(2^5) (0.55 s), and `apn-forge exponent 13` as a fresh
process (0.20 s). Each row is the median of REPEATS runs after set-up
(imports and field tables), except the CLI row, which is a whole process.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import workloads

REPEATS = 5
TOLERANCE = 0.20


def median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    sys.path.insert(0, str(workloads.SRC))
    import numpy

    import apnforge as af

    g2, g32, g2_14 = af.make_field(1), af.make_field(5), af.make_field(14)
    g2_14.has_tables
    af.make_field(15).has_tables
    x5 = af.parse_poly("x^5", g2)
    non_member = af.parse_poly("x^12 + x^5 + x^3", g32)
    if af.deg12_classify(non_member).kind != af.NOT_IN_FAMILY:
        raise SystemExit("x^12+x^5+x^3 over GF(2^5) is expected to be a non-member")
    cli = [sys.executable, "-m", "apnforge.cli", "exponent", "13"]
    workloads.spawn(cli)  # warms the bytecode cache
    rows = [
        ("spectrum x^5 over GF(2^14), workers=1", 2.0,
         median_time(lambda: af.spectrum(x5, g2_14, workers=1), 3)),
        ("deg12_classify non-member x^12+x^5+x^3 over GF(2^5)", 0.55,
         median_time(lambda: af.deg12_classify(non_member))),
        ("CLI `exponent 13` as a fresh process", 0.20,
         median_time(lambda: workloads.spawn(cli))),
    ]
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "tolerance": TOLERANCE,
        "rows": [
            {
                "row": name,
                "roadmap_s": expected,
                "measured_s": measured,
                "ratio": measured / expected,
                "within_tolerance": abs(measured / expected - 1) <= TOLERANCE,
            }
            for name, expected, measured in rows
        ],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
