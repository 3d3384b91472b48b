"""The four benchmark workloads: input pools, rounds, calls and checks.

Every input comes from a pool drawn once with POOL_SEED and stored, with the
digest of its output at the recording commit, in reference.json
(make_reference.py writes it). A workload's `mix` gives the number of pool
entries of each class; that is the workload's stated input mix.

A run is a sequence of rounds, and a round visits every pool entry exactly
once, in an order drawn from the run's seed. Every run therefore does the
same work whatever the seed: input costs vary by up to 40x inside a class
(one FULL divisor search takes 1.3 s, most take 0.1 s), and sampling them
per seed would move the throughput by more than any bound worth setting.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POOL_SEED = 160200837

GOLD_D = {3: 1, 5: 2, 9: 3, 17: 4, 33: 5}
KASAMI_D = (13, 57)
X12 = "x^12 + x^6 + x^3"
X12_DIVISORS = [(0, 0, 0, 0x2), (0, 0, 0, 0x4), (0, 0, 0, 0x6)]


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def poly_text(pairs: dict[int, int]) -> str:
    """Text for parse_poly, highest exponent first; zero coefficients dropped."""
    terms = []
    for e in sorted(pairs, reverse=True):
        c = pairs[e]
        if not c:
            continue
        x = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        if not x:
            terms.append(f"0x{c:x}")
        elif c == 1:
            terms.append(x)
        else:
            terms.append(f"0x{c:x}*{x}")
    return " + ".join(terms) if terms else "0x0"


def random_gf2_poly(rng: random.Random, lo: int, hi: int, density: float = 0.3) -> str:
    deg = rng.randint(lo, hi)
    pairs = {deg: 1}
    pairs.update({e: 1 for e in range(deg) if rng.random() < density})
    return poly_text(pairs)


def random_poly(rng: random.Random, order: int, deg: int, density: float) -> str:
    pairs = {deg: rng.randrange(1, order)}
    pairs.update({e: rng.randrange(1, order) for e in range(deg) if rng.random() < density})
    return poly_text(pairs)


def random_q_affine(rng: random.Random, order: int) -> str | None:
    pairs = {e: rng.randrange(1, order) for e in (0, 1, 2, 4, 8) if rng.random() < 0.5}
    return poly_text(pairs) if pairs else None


def trace_zero_params(k: int) -> list[int]:
    from apnforge import make_field, trace_zero_elements

    return sorted(e.bits for e in trace_zero_elements(make_field(3 * k), k) if e.bits)


@dataclass
class Query:
    cls: str
    entry: dict
    call: object  # prepared argument: a closure for in-process work, argv for the CLI


class Workload:
    name = ""
    why = ""
    module = "apnforge"  # what set-up imports
    fields: tuple[int, ...] = ()  # field degrees whose tables set-up builds
    mix: dict[str, int] = {}  # pool entries per class, all visited once per round
    in_process = True
    calibration = "python"  # the speed-probe kernel of calibrate.py that matches the queries' work

    def make_pool(self, rng: random.Random) -> dict[str, list[dict]]:
        raise NotImplementedError

    def prepare(self, entry: dict):
        raise NotImplementedError

    def prepare_reference(self, entry: dict):
        """The call whose output make_reference.py records."""
        return self.prepare(entry)

    def canon(self, entry: dict, result) -> str | bytes:
        raise NotImplementedError

    def invariants(self, entry: dict, result) -> list[str]:
        return []

    def verify(self, entry: dict, result) -> list[str]:
        errors = []
        if digest(self.canon(entry, result)) != entry["digest"]:
            errors.append("output differs from the recorded reference")
        return errors + self.invariants(entry, result)

    def rounds(self, pool: dict[str, list[dict]], seed: int):
        """Endless rounds of prepared queries, each a seeded permutation of
        the whole pool."""
        rng = random.Random(f"{seed}:{self.name}")
        entries = [(cls, entry) for cls in self.mix for entry in pool[cls]]
        while True:
            rng.shuffle(entries)
            yield [Query(cls, entry, self.prepare(entry)) for cls, entry in entries]


# spectrum workloads ---------------------------------------------------------

# p50 falls among the GF(2^10) entries and p75 among the GF(2^12) ones
SPECTRUM_MIX = {"m10": 24, "m12": 12, "m14": 4}


def _spectrum_canon(result) -> str:
    if isinstance(result, bool):
        return f"apn {result}"
    return "spectrum " + ",".join(f"{c}:{n}" for c, n in sorted(result.histogram.items()))


def _spectrum_mass(entry: dict, result) -> list[str]:
    if isinstance(result, bool):
        return []
    q = 1 << entry["m"]
    hist = result.histogram
    errors = []
    if sum(hist.values()) != q * (q - 1):
        errors.append("histogram values do not sum to q(q-1)")
    if sum(c * n for c, n in hist.items()) != q * (q - 1):
        errors.append("key-weighted histogram does not sum to q(q-1)")
    return errors


class SpectrumStructured(Workload):
    name = "spectrum_structured"
    why = (
        "the apn --n sweep: monomials and GF(2)-coefficient polynomials over "
        "2^10..2^14, where power-map and Frobenius-orbit symmetries apply"
    )
    fields = (1, 10, 12, 14)
    mix = SPECTRUM_MIX
    calibration = "numpy"
    shapes = ("x12", "gold", "kasami", "odd", "gf2poly")

    def make_pool(self, rng):
        odd = [d for d in range(7, 64, 2) if d not in GOLD_D and d not in KASAMI_D]
        pool = {}
        for cls, size in self.mix.items():
            m = int(cls[1:])
            entries = []
            for i in range(size):
                shape = self.shapes[i % len(self.shapes)]
                entry = {"op": "is_apn_over_extension" if i % 2 else "spectrum", "m": m, "shape": shape}
                if shape == "x12":
                    entry["f"] = X12
                elif shape == "gold":
                    d = rng.choice(sorted(GOLD_D))
                    entry["f"], entry["gold_k"] = f"x^{d}", GOLD_D[d]
                elif shape == "kasami":
                    entry["f"] = f"x^{rng.choice(KASAMI_D)}"
                elif shape == "odd":
                    entry["f"] = f"x^{rng.choice(odd)}"
                else:
                    entry["f"] = random_gf2_poly(rng, 3, 64)
                entries.append(entry)
            pool[cls] = entries
        return pool

    def prepare(self, entry):
        import apnforge as af  # names resolve at call time, so traced runs see the wrappers

        f = af.parse_poly(entry["f"], af.make_field(1))
        if entry["op"] == "spectrum":
            field = af.make_field(entry["m"])
            return lambda: af.spectrum(f, field, workers=1)
        return lambda: af.is_apn_over_extension(f, entry["m"])

    def canon(self, entry, result):
        return _spectrum_canon(result)

    def invariants(self, entry, result):
        errors = _spectrum_mass(entry, result)
        if "gold_k" in entry:
            apn = result if isinstance(result, bool) else result.uniformity == 2
            if apn != (math.gcd(entry["gold_k"], entry["m"]) == 1):
                errors.append("Gold exponent APN verdict disagrees with gcd(k, m) = 1")
        return errors


class SpectrumDense(Workload):
    name = "spectrum_dense"
    why = (
        "degree-64 polynomials with random full-field coefficients, workers=2: "
        "no symmetry applies, and it is the only run of the thread-pool path"
    )
    fields = (10, 12, 14)
    mix = SPECTRUM_MIX
    calibration = "numpy"
    workers = 2

    def make_pool(self, rng):
        pool = {}
        for cls, size in self.mix.items():
            m = int(cls[1:])
            pool[cls] = [
                {"op": "spectrum", "m": m, "f": random_poly(rng, 1 << m, 64, 1.0)}
                for _ in range(size)
            ]
        return pool

    def prepare(self, entry, workers=None):
        import apnforge as af

        field = af.make_field(entry["m"])
        f = af.parse_poly(entry["f"], field)
        w = self.workers if workers is None else workers
        return lambda: af.spectrum(f, field, workers=w)

    def prepare_reference(self, entry):
        return self.prepare(entry, workers=1)

    def canon(self, entry, result):
        return _spectrum_canon(result)

    def invariants(self, entry, result):
        return _spectrum_mass(entry, result)


# algebra workload ------------------------------------------------------------


def _witness_canon(w) -> str:
    def hx(e):
        return None if e is None else e.hex()

    return json.dumps(
        {
            "kind": w.kind,
            "param": hx(w.param),
            "beta": hx(w.beta),
            "gamma": hx(w.gamma),
            "L": None if w.L is None else w.L.to_text(),
            "L1": w.L1.to_text(),
            "orbit": None if w.orbit is None else [hx(e) for e in w.orbit],
        },
        sort_keys=True,
    )


class AlgebraDeg12(Workload):
    name = "algebra_deg12"
    why = (
        "scalar field arithmetic, trivariate division and the degree-12 "
        "classifier scan: build_phi, divisor search, deg12_classify k=1..5"
    )
    fields = (1, 2, 3, 4, 5, 6, 9, 12, 15)
    mix = {
        "phi_sparse": 9, "phi_dense": 3, "div_full": 3, "div_q4": 3, "div_q8": 3,
        **{f"member_k{k}": 3 for k in range(1, 6)},
        **{f"other_k{k}": 3 for k in range(1, 6)},
        "theorem": 12,
    }

    def make_pool(self, rng):
        from apnforge import NOT_IN_FAMILY, deg12_classify, make_field, parse_poly

        sizes = self.mix
        pool: dict[str, list[dict]] = {}
        pool["phi_sparse"] = [
            {"op": "build_phi", "k": k, "f": random_poly(rng, 1 << k, rng.randint(3, 64), 0.05)}
            for k in (rng.randint(1, 4) for _ in range(sizes["phi_sparse"]))
        ]
        pool["phi_dense"] = [
            {"op": "build_phi", "k": k, "f": random_poly(rng, 1 << k, 64, 1.0)}
            for k in (4 - i % 4 for i in range(sizes["phi_dense"]))
        ]
        # degrees 4e with e = 3 mod 4, from the cheapest to the ROADMAP's x^60 row
        div_degrees = (12, 28, 60)
        pool["div_full"] = [{"op": "divisors", "k": 1, "f": X12}] + [
            {"op": "divisors", "k": 1, "f": random_poly(rng, 2, div_degrees[1 + i % 2], 0.1)}
            for i in range(sizes["div_full"] - 1)
        ]
        for cls, k in (("div_q4", 2), ("div_q8", 3)):
            pool[cls] = [
                {"op": "divisors", "k": k, "f": random_poly(rng, 1 << k, div_degrees[i % 3], 0.1)}
                for i in range(sizes[cls])
            ]
        kinds = ("CUBE_OF_L", "L_OF_CUBE")
        for k in range(1, 6):
            params = trace_zero_params(k)
            pool[f"member_k{k}"] = [
                {
                    "op": "classify", "k": k, "member": True, "kind": kinds[i % 2],
                    "param": f"0x{rng.choice(params):x}", "l1": random_q_affine(rng, 1 << k),
                }
                for i in range(sizes[f"member_k{k}"])
            ]
            for entry in pool[f"member_k{k}"]:
                entry["f"] = self._generate(entry).to_text()
            others = []
            base = make_field(k)
            while len(others) < sizes[f"other_k{k}"]:
                text = random_poly(rng, 1 << k, 12, 0.5)
                if deg12_classify(parse_poly(text, base)).kind == NOT_IN_FAMILY:
                    others.append({"op": "classify", "k": k, "member": False, "f": text})
            pool[f"other_k{k}"] = others
        pool["theorem"] = [
            {"op": "theorem", "k": k, "f": random_poly(rng, 1 << k, rng.randint(3, 64), 0.2)}
            for k in (rng.randint(1, 4) for _ in range(sizes["theorem"]))
        ]
        return pool

    @staticmethod
    def _generate(entry):
        from apnforge import family_generate, make_field, parse_poly

        base = make_field(entry["k"])
        big = make_field(3 * entry["k"])
        l1 = parse_poly(entry["l1"], base) if entry.get("l1") else None
        return family_generate(entry["kind"], big.from_hex(entry["param"]), l1, base=base)

    def prepare(self, entry):
        import apnforge as af

        f = af.parse_poly(entry["f"], af.make_field(entry["k"]))
        op = entry["op"]
        if op == "build_phi":
            return lambda: af.build_phi(f)
        if op == "divisors":
            return lambda: af.cubic_divisor_search(f)
        if op == "classify":
            return lambda: af.deg12_classify(f)
        return lambda: af.applicable_theorem(f)

    def canon(self, entry, result):
        op = entry["op"]
        if op == "build_phi":
            return ";".join(f"{i},{j},{k}:{c}" for (i, j, k), c in sorted(result.poly.terms.items()))
        if op == "divisors":
            return f"{result.mode} {result.field.spec()} " + ";".join(
                ",".join(map(str, p.as_bits())) for p in result.divisors
            )
        if op == "classify":
            return _witness_canon(result)
        return json.dumps([result.applicable, result.detail], sort_keys=True)

    def invariants(self, entry, result):
        op = entry["op"]
        if op == "divisors" and entry["k"] == 1 and entry["f"] == X12:
            if [p.as_bits() for p in result.divisors] != X12_DIVISORS:
                return ["x^12+x^6+x^3 divisor triple (0,0,0,0x2/0x4/0x6) not found"]
        if op == "classify":
            return self._classify_invariants(entry, result)
        return []

    @staticmethod
    def _classify_invariants(entry, w):
        import apnforge as af

        if not entry["member"]:
            return [] if w.kind == af.NOT_IN_FAMILY else ["non-member not reported NOT_IN_FAMILY"]
        if w.kind == af.NOT_IN_FAMILY:
            return ["family member reported NOT_IN_FAMILY"]
        base = af.make_field(entry["k"])
        l1 = w.L1
        if w.kind == af.CUBE_OF_L:
            # the cube form folds its quartic tail beta^2 x^8 + beta gamma^2 x^4
            # into the reported affine part; add it back to rebuild f
            l1 = l1 + af.UniPoly.from_pairs(
                base, {8: (w.beta * w.beta).bits, 4: (w.beta * w.gamma * w.gamma).bits}
            )
        rebuilt = af.family_generate(w.kind, w.param, l1, base=base)
        if rebuilt != af.parse_poly(entry["f"], base):
            return ["family_generate from the witness does not rebuild f"]
        return []


# CLI workload ----------------------------------------------------------------


@dataclass
class CliResult:
    stdout: bytes
    returncode: int
    maxrss_kb: int


def child_env(**extra: str) -> dict:
    """Environment for child interpreters: apnforge comes from ROOT/src."""
    return dict(os.environ, PYTHONPATH=str(SRC), **extra)


def spawn(argv: list[str], env: dict | None = None) -> CliResult:
    """Run argv in ROOT to completion; wait4 gives this child's own peak RSS."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env or child_env(), cwd=ROOT
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(out, proc.returncode, usage.ru_maxrss)


class CliCold(Workload):
    name = "cli_cold"
    why = (
        "each query is a fresh python -m apnforge.cli process over all ten "
        "subcommands at small sizes, so start-up and imports dominate"
    )
    module = "apnforge.cli"
    fields = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16)
    mix = dict.fromkeys(
        ("exponent", "theorems", "field", "phi", "gen12", "classify12",
         "divisors", "spectrum", "points", "apn"),
        4,
    )
    in_process = False

    def make_pool(self, rng):
        from apnforge.fields import is_irreducible

        n = 4  # entries per subcommand, as in self.mix
        pool: dict[str, list[dict]] = {}
        exps = [13] + [
            rng.choice([(1 << k) + 1 for k in range(1, 12)] + [(1 << 2 * k) - (1 << k) + 1 for k in range(2, 8)])
            if i % 2 else rng.randint(1, 10**6)
            for i in range(n - 1)
        ]
        pool["exponent"] = [{"argv": ["exponent", str(t)]} for t in exps]
        pool["theorems"] = [
            {"argv": ["theorems", "--field", "gf(2^1)", "--f", random_gf2_poly(rng, 3, 64)]}
            for _ in range(n)
        ]
        moduli = []
        while len(moduli) < n - 1:
            cand = (1 << 16) | rng.getrandbits(16) | 1
            if is_irreducible(cand) and cand not in moduli:
                moduli.append(cand)
        pool["field"] = [{"argv": ["field", "--field", "gf(2^16)"]}] + [
            {"argv": ["field", "--field", f"gf(2^16)/0x{mod:x}"]} for mod in moduli
        ]
        pool["phi"] = []
        for _ in range(n):
            k = rng.randint(1, 4)
            text = random_poly(rng, 1 << k, rng.randint(3, 32), 0.1)
            pool["phi"].append({"argv": ["phi", "--field", f"gf(2^{k})", "--f", text]})
        pool["gen12"] = []
        kinds = ("CUBE_OF_L", "L_OF_CUBE")
        for i in range(n):
            k = 1 + i % 2
            argv = ["gen12", "--field", f"gf(2^{k})", "--kind", kinds[i // 2 % 2],
                    "--param", f"0x{rng.choice(trace_zero_params(k)):x}"]
            l1 = random_q_affine(rng, 1 << k)
            if l1:
                argv += ["--l1", l1]
            pool["gen12"].append({"argv": argv})
        members = [
            AlgebraDeg12._generate(
                {"k": 1, "kind": kinds[i % 2], "param": f"0x{rng.choice(trace_zero_params(1)):x}",
                 "l1": random_q_affine(rng, 2)}
            ).to_text()
            for i in range(n // 2)
        ]
        others = [random_gf2_poly(rng, 12, 12, 0.5) for _ in range(n - n // 2)]
        pool["classify12"] = [
            {"argv": ["classify12", "--field", "gf(2^1)", "--f", f]} for f in members + others
        ]
        pool["divisors"] = [{"argv": ["divisors", "--field", "gf(2^1)", "--f", X12]}] + [
            {"argv": ["divisors", "--field", "gf(2^1)", "--f", random_gf2_poly(rng, d, d, 0.2)]}
            for d in (rng.choice((12, 28)) for _ in range(n - 1))
        ]
        pool["spectrum"] = [
            {"argv": ["spectrum", "--field", "gf(2^8)", "--f", random_poly(rng, 256, rng.randint(3, 64), 0.3),
                      "--output", "csv"]}
            for _ in range(n)
        ]
        pool["points"] = [
            {"argv": ["points", "--field", "gf(2^6)", "--f", random_poly(rng, 64, rng.randint(3, 16), 0.3)]}
            for _ in range(n)
        ]
        pool["apn"] = [{"argv": ["apn", "--field", "gf(2^1)", "--f", X12, "--n", "2..10"]}] + [
            {"argv": ["apn", "--field", "gf(2^1)", "--f", random_gf2_poly(rng, 3, 64), "--n", "2..10"]}
            for _ in range(n - 1)
        ]
        return pool

    def prepare(self, entry):
        return list(entry["argv"])

    def execute(self, argv: list[str], prefix: list[str] | None = None, env: dict | None = None) -> CliResult:
        return spawn((prefix or [sys.executable, "-m", "apnforge.cli"]) + argv, env)

    def canon(self, entry, result):
        return result.stdout

    def invariants(self, entry, result):
        return [] if result.returncode == 0 else [f"exit code {result.returncode}"]


WORKLOADS = {w.name: w for w in (SpectrumStructured(), SpectrumDense(), AlgebraDeg12(), CliCold())}
