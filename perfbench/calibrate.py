"""Host-speed probes: fixed kernels that call no apnforge code.

The benchmark's host changes speed, per vCPU, in stretches of seconds to
minutes (see README.md, "Noise and bounds"). A probe runs one kernel of
fixed work and returns its wall time; the benchmark runs one right before
every timed query and one after the last, and scales each query's latency
by NOMINAL_S / (mean of the probes on either side of it). A slow stretch
slows the query and its probes alike, so the scaled latency stays put; a
change to apnforge changes the query and not the kernel, so it shows in
full.

Two kernels, picked per workload to match the kind of work the queries do:
"python" is a carry-less multiply-and-reduce loop on Python ints (the
scalar field arithmetic of the algebra and of interpreter start-up),
"numpy" is the gather / xor / bincount pattern of a differential-spectrum
scan on a fixed random table.
"""

from __future__ import annotations

import time

import numpy as np

PY_STEPS = 3000
NP_ORDER = 1 << 12
NP_DIRECTIONS = 160

_rng = np.random.default_rng(20160202)
_TABLE = _rng.integers(0, NP_ORDER, NP_ORDER, dtype=np.int64)
_IDX = np.arange(NP_ORDER, dtype=np.int64)


def python_kernel() -> int:
    acc, x = 0, 0x1D3
    for i in range(1, PY_STEPS):
        a, b, r = x, i, 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        while r.bit_length() > 16:
            r ^= 0x1100B << (r.bit_length() - 17)
        x = r | 1
        acc ^= r
    return acc


def numpy_kernel() -> int:
    acc = np.zeros(NP_ORDER + 1, dtype=np.int64)
    for a in range(1, NP_DIRECTIONS + 1):
        counts = np.bincount(_TABLE[_IDX ^ a] ^ _TABLE, minlength=NP_ORDER)
        hist = np.bincount(counts)
        acc[: len(hist)] += hist
    return int(acc[2])


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}

# Each kernel's time in a quiet stretch of the reference host (2 vCPUs,
# Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6). It only sets the
# scale: scaled times read as wall times on that host at that speed.
NOMINAL_S = {"python": 0.0040, "numpy": 0.0037}


def probe(kind: str) -> float:
    kernel = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
