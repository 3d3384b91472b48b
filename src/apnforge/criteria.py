"""Exceptionality criteria for polynomials over GF(2^m).

Three layers: a syntactic verdict on which non-exceptionality criterion
applies to f (degree shape and support), an exhaustive search for cubic
divisors A + P of phi over the cubic extension (the obstruction the
quadruple-odd criterion needs to be empty), and a complete classifier and
generator for the degree-12 family whose members are CCZ-equivalent to the
cube map through an explicit bijective linearized quartic witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .apn import classify_exponent, spectrum, GOLD, KASAMI, NOT_EXCEPTIONAL
from .errors import (
    ContextMismatch,
    DegreeNot12,
    DegreeNotMultipleOfThree,
    DegreeOutOfRange,
    DegreeShapeMismatch,
    DegreeTooSmall,
    InvariantViolation,
    NotQAffine,
    SearchSpaceTooLarge,
    TraceNotZero,
    UnknownFamilyKind,
    UnknownSearchMode,
)
from .fields import (
    Embedding,
    Felt,
    FieldCtx,
    find_embedding,
    frobenius,
    linear_kernel,
    make_field,
    rel_trace,
    span,
    trace_zero_elements,
)
from .phi import build_phi
from .tripoly import TriPoly, divides_exactly, plane_product, symmetric_quadratic
from .unipoly import UniPoly, compose, is_bijective_on, linearized_quartic, split_q_affine

# verdict tokens
ODD_NOT_EXCEPTIONAL = "ODD_NOT_EXCEPTIONAL"
TWICE_ODD_TERM = "TWICE_ODD_TERM"
GOLD_SMALL_TAIL = "GOLD_SMALL_TAIL"
QUADRUPLE_ODD = "QUADRUPLE_ODD"
DEGREE_12 = "DEGREE_12"
NONE = "NONE"

# degree-12 family kinds
CUBE_OF_L = "CUBE_OF_L"
L_OF_CUBE = "L_OF_CUBE"
NOT_IN_FAMILY = "NOT_IN_FAMILY"

# divisor search modes
FULL = "FULL"
CONSTRAINED = "CONSTRAINED"


@dataclass(frozen=True)
class TheoremVerdict:
    applicable: str
    detail: dict


@dataclass(frozen=True)
class DivisorParams:
    c1: Felt
    c4: Felt
    b1: Felt
    d: Felt

    def as_bits(self) -> tuple[int, int, int, int]:
        return (self.c1.bits, self.c4.bits, self.b1.bits, self.d.bits)


@dataclass(frozen=True)
class SearchResult:
    mode: str
    field: FieldCtx
    divisors: tuple[DivisorParams, ...]


@dataclass(frozen=True)
class Deg12Witness:
    kind: str
    param: Felt | None
    beta: Felt | None
    gamma: Felt | None
    L: UniPoly | None
    L1: UniPoly
    orbit: tuple[Felt, ...] | None


def applicable_theorem(f: UniPoly) -> TheoremVerdict:
    """Syntactic criterion dispatch on deg f and the support of f."""
    d = f.degree
    if not f or d < 3:
        raise DegreeTooSmall("need degree at least 3")
    e, j = d, 0
    while e % 2 == 0:
        e //= 2
        j += 1
    detail: dict = {"degree": d, "odd_part": e, "two_power": j}
    if j == 0:
        cls = classify_exponent(d)
        detail["exponent_class"] = cls.kind
        if cls.kind == NOT_EXCEPTIONAL:
            return TheoremVerdict(ODD_NOT_EXCEPTIONAL, detail)
        detail["exponent_k"] = cls.k
        if cls.kind == GOLD:
            tail = f + UniPoly.monomial(f.ctx, d, f.coeffs[d])
            bound = (1 << (cls.k - 1)) + 1
            detail["tail_bound"] = bound
            detail["tail_degree"] = None if not tail else tail.degree
            if not tail or tail.degree <= bound:
                detail["tail_terms"] = [
                    t for t in tail.support() if t >= 3 and t & (t - 1)
                ]
                return TheoremVerdict(GOLD_SMALL_TAIL, detail)
        return TheoremVerdict(NONE, detail)
    if j == 1:
        detail["has_odd_term"] = any(t % 2 for t in f.support())
        if detail["has_odd_term"]:
            return TheoremVerdict(TWICE_ODD_TERM, detail)
        return TheoremVerdict(NONE, detail)
    if j == 2 and e % 4 == 3:
        return TheoremVerdict(DEGREE_12 if d == 12 else QUADRUPLE_ODD, detail)
    return TheoremVerdict(NONE, detail)


# cubic divisor search ------------------------------------------------------


def _divisor_poly(ctx: FieldCtx, c1: int, c4: int, b1: int, d: int) -> TriPoly:
    """A + c1(x^2+y^2+z^2) + c4(xy+xz+yz) + b1(x+y+z) + d; the degree-3 part
    is always the full plane product, so the polynomial is monic at x^2*y."""
    terms = dict(plane_product(ctx).terms)
    for mono, c in (
        ((2, 0, 0), c1), ((0, 2, 0), c1), ((0, 0, 2), c1),
        ((1, 1, 0), c4), ((1, 0, 1), c4), ((0, 1, 1), c4),
        ((1, 0, 0), b1), ((0, 1, 0), b1), ((0, 0, 1), b1),
        ((0, 0, 0), d),
    ):
        if c:
            terms[mono] = c
    return TriPoly(ctx, terms)


class _SpecFilter:
    """Sound pre-filter: a trivariate divisor of phi must divide phi's
    specialization at any fixed (y0, z0). Degenerate specializations pass."""

    def __init__(self, phi: TriPoly, ctx: FieldCtx):
        self.ctx = ctx
        self.points = []
        for y0, z0 in ((2, 1), (4, 2)):
            mul = ctx.mul
            deg_x = max((i for i, _, _ in phi.terms), default=0)
            coeffs = [0] * (deg_x + 1)
            for (i, j, k), c in phi.terms.items():
                coeffs[i] ^= mul(c, mul(ctx.pow(y0, j), ctx.pow(z0, k)))
            s = y0 ^ z0
            self.points.append(
                {
                    "coeffs": coeffs,
                    "s": s,
                    "s2": ctx.sqr(s),
                    "p": mul(y0, z0),
                    "ps": mul(mul(y0, z0), s),
                }
            )

    def passes(self, cand: tuple[int, int, int, int]) -> bool:
        c1, c4, b1, d = cand
        ctx = self.ctx
        mul = ctx.mul
        for pt in self.points:
            s, s2 = pt["s"], pt["s2"]
            a2 = s ^ c1
            a1 = s2 ^ mul(c4, s) ^ b1
            a0 = pt["ps"] ^ mul(c1, s2) ^ mul(c4, pt["p"]) ^ mul(b1, s) ^ d
            if not _uni_divides(pt["coeffs"], (a0, a1, a2), ctx):
                return False
        return True


def _uni_divides(num: list[int], div: tuple[int, int, int], ctx: FieldCtx) -> bool:
    dd = 2 if div[2] else (1 if div[1] else 0)
    if dd == 0:
        return True  # constant or zero specialization carries no information
    rem = list(num)
    dinv = ctx.inv(div[dd])
    mul = ctx.mul
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        t = mul(c, dinv)
        base = i - dd
        for k in range(dd + 1):
            rem[base + k] ^= mul(t, div[k])
    return not any(rem[:dd])


def _search_chunk(ctx_key, phi_terms, cands):
    big = make_field(*ctx_key)
    phi = TriPoly(big, phi_terms)
    filt = _SpecFilter(phi, big)
    out = []
    for cand in cands:
        if filt.passes(cand) and divides_exactly(phi, _divisor_poly(big, *cand)):
            out.append(cand)
    return out


def cubic_divisor_search(
    f: UniPoly, mode: str | None = None, workers: int = 1
) -> SearchResult:
    """Every (c1, c4, b1, d) over F_(q^3) whose cubic A + P divides phi(f).

    FULL scans the whole parameter space and is exhaustible only at q = 2;
    CONSTRAINED (q <= 8) restricts to c4 = c1, b1 = 0, c1 trace-zero and
    d in {c1^3} union the trace-zero set. Results are sorted by bit pattern
    and independent of the worker count."""
    d = f.degree
    if not f or d % 4 != 0 or (d // 4) % 4 != 3:
        raise DegreeShapeMismatch(
            "divisor search needs deg f = 4e with e odd, e = 3 mod 4"
        )
    k = f.ctx.degree
    if mode is None:
        mode = FULL if k == 1 else CONSTRAINED
    if mode == FULL and k != 1:
        raise SearchSpaceTooLarge("FULL scan is exhaustible only over gf(2^1)")
    if mode == CONSTRAINED and k > 3:
        raise SearchSpaceTooLarge("CONSTRAINED scan supports q up to 2^3")
    if mode not in (FULL, CONSTRAINED):
        raise UnknownSearchMode(f"unknown mode {mode!r}")
    big = make_field(3 * k)
    emb = find_embedding(f.ctx, big)
    phi = build_phi(f).poly.embed(emb)
    if mode == FULL:
        cands = list(itertools.product(range(big.order), repeat=4))
    else:
        tz = sorted(e.bits for e in trace_zero_elements(big, k))
        cands = []
        for c1 in tz:
            dset = sorted({big.pow(c1, 3)} | set(tz))
            cands.extend((c1, c1, 0, dd) for dd in dset)
    ctx_key = (big.degree, big.modulus)
    phi_terms = dict(phi.terms)
    if workers > 1 and len(cands) > workers:
        step = (len(cands) + workers - 1) // workers
        chunks = [cands[i : i + step] for i in range(0, len(cands), step)]
        # imported here: the process-pool modules cost ~1 MB and import time
        # in every process that never searches with workers > 1
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_search_chunk, *zip(*[(ctx_key, phi_terms, ch) for ch in chunks]))
            )
        hits = [c for part in parts for c in part]
    else:
        hits = _search_chunk(ctx_key, phi_terms, cands)
    divisors = tuple(
        DivisorParams(*(Felt(b, big) for b in cand)) for cand in sorted(hits)
    )
    return SearchResult(mode, big, divisors)


def divisor_divides(params: DivisorParams, phi: TriPoly, embedding: Embedding) -> bool:
    """True iff the cubic named by params divides phi lifted along embedding."""
    big = embedding.target
    for felt in (params.c1, params.c4, params.b1, params.d):
        if felt.ctx != big:
            raise ContextMismatch("divisor parameters must live in the extension field")
    lifted = phi.embed(embedding)
    return divides_exactly(lifted, _divisor_poly(big, *params.as_bits()))


# degree-12 family ----------------------------------------------------------


def _orbit_sym(c: Felt, k: int) -> tuple[Felt, Felt]:
    """(e2, e3) of the Frobenius orbit {c, c^q, c^(q^2)}, q = 2^k, as
    elements of the big field (both are fixed by the q-power Frobenius)."""
    cq = frobenius(c, k)
    cq2 = frobenius(c, 2 * k)
    return c * cq + c * cq2 + cq * cq2, c * cq * cq2


def family_phi_closed(beta: Felt, gamma: Felt, kind: str, ctx: FieldCtx) -> TriPoly:
    """Closed form of phi for the degree-12 family, in terms of the witness
    coefficients. CUBE_OF_L:
    A^3 + beta*A*M^2 + gamma*(A^2 + M^3) + (gamma^2 + beta^3)*A
        + beta^2*gamma*M + gamma^3,
    L_OF_CUBE: A^3 + beta*A + gamma, with A the plane product and M the
    symmetric quadratic."""
    if beta.ctx != ctx or gamma.ctx != ctx:
        raise ContextMismatch("witness coefficients must live in ctx")
    a = plane_product(ctx)
    b, g = beta, gamma

    def scale(p: TriPoly, s: Felt) -> TriPoly:
        return p * TriPoly.constant(ctx, s.bits) if s.bits else TriPoly.zero(ctx)

    if kind == L_OF_CUBE:
        out = a ** 3 + scale(a, b)
        if g.bits:
            out = out + TriPoly.constant(ctx, g.bits)
        return out
    if kind != CUBE_OF_L:
        raise UnknownFamilyKind(f"unknown family kind {kind!r}")
    m = symmetric_quadratic(ctx)
    out = a ** 3
    out = out + scale(a * m ** 2, b)
    out = out + scale(a ** 2 + m ** 3, g)
    out = out + scale(a, g * g + b ** 3)
    out = out + scale(m, b * b * g)
    g3 = g ** 3
    if g3.bits:
        out = out + TriPoly.constant(ctx, g3.bits)
    return out


def family_phi_product(param: Felt, kind: str) -> TriPoly:
    """phi of the family member as an explicit product over the orbit of the
    trace-zero parameter u: factors A + u*M + u^3 for CUBE_OF_L and A + u
    for L_OF_CUBE. Checked equal to the closed form before returning."""
    ctx3 = param.ctx
    if ctx3.degree % 3 != 0:
        raise DegreeNotMultipleOfThree(f"{ctx3.spec()} is not a cubic extension")
    k = ctx3.degree // 3
    if rel_trace(param, k).bits != 0:
        raise TraceNotZero(f"{param.hex()} has nonzero relative trace")
    a = plane_product(ctx3)
    m = symmetric_quadratic(ctx3)
    acc = TriPoly.one(ctx3)
    for i in (0, 1, 2):
        u = frobenius(param, i * k)
        factor = a
        if kind == CUBE_OF_L:
            if u.bits:
                factor = factor + m * TriPoly.constant(ctx3, u.bits)
            u3 = u ** 3
            if u3.bits:
                factor = factor + TriPoly.constant(ctx3, u3.bits)
        elif kind == L_OF_CUBE:
            if u.bits:
                factor = factor + TriPoly.constant(ctx3, u.bits)
        else:
            raise UnknownFamilyKind(f"unknown family kind {kind!r}")
        acc = acc * factor
    beta, gamma = _orbit_sym(param, k)
    if acc != family_phi_closed(beta, gamma, kind, ctx3):
        raise InvariantViolation("product/closed-form mismatch")
    return acc


def _build_witness(
    kind: str, param: Felt, base: FieldCtx, emb: Embedding, f: UniPoly, l1: UniPoly
) -> Deg12Witness:
    k = base.degree
    beta3, gamma3 = _orbit_sym(param, k)
    beta = emb.pull_back(beta3)
    gamma = emb.pull_back(gamma3)
    quartic = linearized_quartic(param, base)
    if not is_bijective_on(quartic, base):
        raise InvariantViolation("witness quartic is not a permutation of F_q")
    cube = UniPoly.monomial(base, 3)
    if kind == CUBE_OF_L:
        tail = UniPoly.from_pairs(
            base, {8: (beta * beta).bits, 4: (beta * gamma * gamma).bits}
        )
        rebuilt = compose(cube, quartic) + tail + l1
    else:
        rebuilt = compose(quartic, cube) + l1
    if f != rebuilt:
        raise InvariantViolation(f"{kind} witness does not reconstruct f")
    orbit = tuple(sorted({frobenius(param, i * k) for i in (0, 1, 2)}))
    return Deg12Witness(kind, param, beta, gamma, quartic, l1, orbit)


# phi's coefficients that carry the family parameters: (kind, beta monomial,
# gamma monomial). In the CUBE_OF_L closed form only beta*A*M^2 reaches
# x^6*y and only gamma*M^3 reaches x^6; in L_OF_CUBE, A^3 + beta*A + gamma,
# beta is the x^2*y coefficient and gamma the constant term.
_FAMILY_COEFFS = (
    (CUBE_OF_L, (6, 1, 0), (6, 0, 0)),
    (L_OF_CUBE, (2, 1, 0), (0, 0, 0)),
)


def _lowest_param(beta: Felt, gamma: Felt, emb: Embedding) -> Felt | None:
    """Lowest nonzero trace-zero root in F_(q^3) of x^4 + beta*x^2 + gamma*x.

    The roots form the F_2-linear kernel of that map, at most 4 elements; a
    trace-zero parameter u with orbit symmetric functions (beta, gamma) makes
    the kernel {0, u, u^q, u^(q^2)}. None when no nonzero root has zero
    relative trace."""
    big = emb.target
    k = emb.source.degree
    b = emb.apply(beta).bits
    g = emb.apply(gamma).bits
    mul = big.mul

    def quartic(x: int) -> int:
        x2 = mul(x, x)
        return mul(x2, x2) ^ mul(b, x2) ^ mul(g, x)

    for bits in span(linear_kernel(big, quartic)):
        if bits and rel_trace(Felt(bits, big), k).bits == 0:
            return Felt(bits, big)
    return None


def deg12_classify(f: UniPoly) -> Deg12Witness:
    """Decide whether a degree-12 polynomial belongs to the family.

    Solves rather than scans: for CUBE_OF_L, then L_OF_CUBE, reads beta and
    gamma off phi's coefficients, compares the one closed form with phi, and
    recovers the parameter as the lowest nonzero trace-zero root in F_(q^3)
    of x^4 + beta*x^2 + gamma*x, the lowest member of its Frobenius orbit.
    L_OF_CUBE with beta = gamma = 0 (phi = A^3) takes parameter 0. Witness
    invariants (reconstruction and bijectivity of the quartic on F_q) are
    verified before returning."""
    if f.degree != 12:
        raise DegreeNot12(f"classifier needs degree 12, got {f.degree}")
    base = f.ctx
    k = base.degree
    big = make_field(3 * k)
    emb = find_embedding(base, big)
    l1 = split_q_affine(f).affine
    phi = build_phi(f).poly
    for kind, beta_mono, gamma_mono in _FAMILY_COEFFS:
        beta = phi.coefficient(beta_mono)
        gamma = phi.coefficient(gamma_mono)
        if family_phi_closed(beta, gamma, kind, base) != phi:
            continue
        if kind == L_OF_CUBE and not beta and not gamma:
            return _build_witness(kind, big.zero, base, emb, f, l1)
        param = _lowest_param(beta, gamma, emb)
        if param is not None:
            return _build_witness(kind, param, base, emb, f, l1)
    return Deg12Witness(NOT_IN_FAMILY, None, None, None, None, l1, None)


def family_generate(
    kind: str, param: Felt, l1: UniPoly | None = None, base: FieldCtx | None = None
) -> UniPoly:
    """Member of the degree-12 family: (L(x))^3 + L1 for CUBE_OF_L or
    L(x^3) + L1 for L_OF_CUBE, L the linearized quartic of the trace-zero
    parameter. All coefficients lie in F_q by construction."""
    if kind not in (CUBE_OF_L, L_OF_CUBE):
        raise UnknownFamilyKind(f"unknown family kind {kind!r}")
    quartic = linearized_quartic(param, base)
    base = quartic.ctx
    if l1 is not None:
        if l1.ctx != base:
            raise ContextMismatch("L1 must live over the base field")
        if not l1.is_q_affine():
            raise NotQAffine(f"{l1.to_text()} is not q-affine")
        if l1 and l1.degree > 8:
            raise DegreeOutOfRange("q-affine tail degree exceeds 8")
    cube = UniPoly.monomial(base, 3)
    f = compose(cube, quartic) if kind == CUBE_OF_L else compose(quartic, cube)
    if l1 is not None:
        f = f + l1
    return f


# aggregate report ----------------------------------------------------------

NOT_APN_LARGE_N = "not APN for large n"


def exceptionality_report(f: UniPoly, n_range=None, workers: int = 1) -> dict:
    """Aggregate verdict: which criterion applies, its consequence, and
    optional empirical spectra over extensions as supporting evidence. Makes
    no claim beyond the checked hypotheses."""
    verdict = applicable_theorem(f)
    report: dict = {"applicable": verdict.applicable, "detail": dict(verdict.detail)}
    if verdict.applicable in (ODD_NOT_EXCEPTIONAL, TWICE_ODD_TERM):
        report["conclusion"] = NOT_APN_LARGE_N
    elif verdict.applicable == GOLD_SMALL_TAIL:
        report["conclusion"] = (
            f"{NOT_APN_LARGE_N} provided phi of some listed tail term is absolutely irreducible"
        )
    elif verdict.applicable == QUADRUPLE_ODD:
        result = cubic_divisor_search(f, workers=workers)
        report["divisor_search"] = {
            "mode": result.mode,
            "divisors": [divisor_json(p) for p in result.divisors],
        }
        if result.divisors:
            report["conclusion"] = "inconclusive: phi admits a cubic divisor"
        else:
            report["conclusion"] = NOT_APN_LARGE_N
    elif verdict.applicable == DEGREE_12:
        witness = deg12_classify(f)
        report["family"] = witness_json(witness)
        if witness.kind == NOT_IN_FAMILY:
            report["conclusion"] = NOT_APN_LARGE_N
        else:
            report["conclusion"] = "CCZ-equivalent to x^3"
    else:
        report["conclusion"] = "no criterion applies"
    if n_range is not None:
        rows = []
        for n in n_range:
            sp = spectrum(f, make_field(f.ctx.degree * n), workers=workers)
            rows.append({"n": n, "apn": sp.uniformity == 2, "uniformity": sp.uniformity})
        report["spectra"] = rows
    return report


def witness_json(w: Deg12Witness) -> dict:
    return {
        "kind": w.kind,
        "param": w.param.hex() if w.param is not None else None,
        "beta": w.beta.hex() if w.beta is not None else None,
        "gamma": w.gamma.hex() if w.gamma is not None else None,
        "L": w.L.to_text() if w.L is not None else None,
        "L1": w.L1.to_text(),
        "orbit": [p.hex() for p in w.orbit] if w.orbit is not None else None,
    }


def divisor_json(p: DivisorParams) -> dict:
    return {"c1": p.c1.hex(), "c4": p.c4.hex(), "b1": p.b1.hex(), "d": p.d.hex()}
