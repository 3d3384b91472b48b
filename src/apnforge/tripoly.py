"""Sparse trivariate polynomials over GF(2^m) in x, y, z.

Terms are a dict from exponent triples (i, j, k) to nonzero coefficient bit
patterns. The term order everywhere is graded lexicographic with x > y > z:
compare total degree first, then the exponent triple componentwise. Division
is exact multivariate division under that order; the remainder is computed
but exact_divide only exposes whether it vanished.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    NotPositive,
    UnknownCoefficient,
    UnknownSubstitution,
)
from .fields import Embedding, Felt, FieldCtx
from .unipoly import NEG_INF, UniPoly, parse_terms, _coeff_bits, _felt_bits

MAX_VAR_DEGREE = 64

_VARS = "xyz"


def _grlex(mono):
    i, j, k = mono
    return (i + j + k, i, j, k)


class TriPoly:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                bits = _felt_bits(c, ctx) if isinstance(c, Felt) else int(c)
                if not bits:
                    continue
                if not 0 < bits < ctx.order:
                    raise UnknownCoefficient(f"0x{bits:x} outside {ctx.spec()}")
                if any(e < 0 or e > MAX_VAR_DEGREE for e in mono):
                    raise DegreeOutOfRange(
                        f"exponent triple {mono} outside 0..{MAX_VAR_DEGREE} per variable"
                    )
                clean[(int(mono[0]), int(mono[1]), int(mono[2]))] = bits
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "TriPoly":
        return cls(ctx)

    @classmethod
    def constant(cls, ctx: FieldCtx, bits: int) -> "TriPoly":
        return cls(ctx, {(0, 0, 0): bits})

    @classmethod
    def one(cls, ctx: FieldCtx) -> "TriPoly":
        return cls.constant(ctx, 1)

    @property
    def total_degree(self):
        return max((i + j + k for i, j, k in self.terms), default=NEG_INF)

    def leading_term(self) -> tuple[tuple[int, int, int], int]:
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]

    def _same(self, other: "TriPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx.spec()} vs {other.ctx.spec()}")

    def __add__(self, other: "TriPoly") -> "TriPoly":
        self._same(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            v = out.get(mono, 0) ^ c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        r = TriPoly.__new__(TriPoly)
        r.ctx = self.ctx
        r.terms = out
        return r

    __sub__ = __add__

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        self._same(other)
        mul = self.ctx.mul
        out: dict = {}
        for (a, b, c), u in self.terms.items():
            for (d, e, f), v in other.terms.items():
                mono = (a + d, b + e, c + f)
                w = out.get(mono, 0) ^ mul(u, v)
                if w:
                    out[mono] = w
                else:
                    del out[mono]
        return TriPoly(self.ctx, out)

    def _sqr(self) -> "TriPoly":
        # char 2: squaring is termwise
        sqr = self.ctx.sqr
        return TriPoly(
            self.ctx,
            {(2 * i, 2 * j, 2 * k): sqr(c) for (i, j, k), c in self.terms.items()},
        )

    def __pow__(self, e: int) -> "TriPoly":
        if e < 0:
            raise NotPositive("negative polynomial power")
        r = TriPoly.one(self.ctx)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b._sqr()
        return r

    def __eq__(self, other):
        return (
            isinstance(other, TriPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, mono) -> Felt:
        return Felt(self.terms.get(tuple(mono), 0), self.ctx)

    def evaluate(self, x: Felt, y: Felt, z: Felt) -> Felt:
        for p in (x, y, z):
            if p.ctx != self.ctx:
                raise ContextMismatch("evaluation point in a different field")
        ctx = self.ctx
        pows = ({0: 1}, {0: 1}, {0: 1})
        bits = (x.bits, y.bits, z.bits)

        def pw(v, e):
            cache = pows[v]
            if e not in cache:
                cache[e] = ctx.pow(bits[v], e)
            return cache[e]

        acc = 0
        for (i, j, k), c in self.terms.items():
            acc ^= ctx.mul(ctx.mul(c, pw(0, i)), ctx.mul(pw(1, j), pw(2, k)))
        return Felt(acc, ctx)

    def embed(self, embedding: Embedding) -> "TriPoly":
        if embedding.source != self.ctx:
            raise ContextMismatch("polynomial is not over the embedding's source")
        return TriPoly(
            embedding.target,
            {
                mono: embedding.apply(Felt(c, self.ctx)).bits
                for mono, c in self.terms.items()
            },
        )

    def divmod(self, divisor: "TriPoly") -> tuple["TriPoly", "TriPoly"]:
        """Full division: (quotient, remainder) with
        quotient*divisor + remainder = self and no remainder monomial
        divisible by the divisor's leading monomial."""
        self._same(divisor)
        q, r = _divmod_terms(self.terms, divisor, abort_on_remainder=False)
        return TriPoly(self.ctx, q), TriPoly(self.ctx, r)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[mono]
            vs = []
            for name, e in zip(_VARS, mono):
                if e == 1:
                    vs.append(name)
                elif e > 1:
                    vs.append(f"{name}^{e}")
            if not vs:
                parts.append(f"0x{c:x}")
            elif c == 1:
                parts.append("*".join(vs))
            else:
                parts.append("*".join([f"0x{c:x}"] + vs))
        return " + ".join(parts)

    def __repr__(self):
        return f"TriPoly({self.to_text()} over {self.ctx.spec()})"


def _divmod_terms(num_terms: dict, divisor: TriPoly, abort_on_remainder: bool):
    """Worker for division. Pops leading monomials through a lazy max-heap;
    each reduction step strictly lowers the leading monomial in graded-lex
    order, so the loop terminates. Returns (quotient, remainder) dicts, or
    (None, None) as soon as a remainder term appears when aborting early."""
    if not divisor.terms:
        raise DivisionByZero("division by the zero polynomial")
    ctx = divisor.ctx
    mul = ctx.mul
    dmono, dlc = divisor.leading_term()
    dinv = ctx.inv(dlc)
    di, dj, dk = dmono
    dterms = list(divisor.terms.items())

    p = dict(num_terms)
    heap = [(-(i + j + k), -i, -j, -k) for i, j, k in p]
    heapq.heapify(heap)
    q: dict = {}
    r: dict = {}
    while heap:
        _, ni, nj, nk = heapq.heappop(heap)
        mono = (-ni, -nj, -nk)
        lc = p.get(mono, 0)
        if not lc:
            continue
        i, j, k = mono
        if i >= di and j >= dj and k >= dk:
            t = (i - di, j - dj, k - dk)
            tc = mul(lc, dinv)
            q[t] = q.get(t, 0) ^ tc
            for (a, b, c), dc in dterms:
                key = (t[0] + a, t[1] + b, t[2] + c)
                v = p.get(key, 0) ^ mul(tc, dc)
                if v:
                    if key not in p:
                        heapq.heappush(heap, (-(key[0] + key[1] + key[2]), -key[0], -key[1], -key[2]))
                    p[key] = v
                else:
                    p.pop(key, None)
        else:
            if abort_on_remainder:
                return None, None
            r[mono] = lc
            del p[mono]
    return q, r


def exact_divide(numerator: TriPoly, divisor: TriPoly) -> tuple[TriPoly, bool]:
    """(quotient, exact). The quotient is meaningful only when exact; the
    remainder is computed but only its zero-ness is exposed here."""
    q, r = numerator.divmod(divisor)
    return q, not r


def divides_exactly(numerator: TriPoly, divisor: TriPoly) -> bool:
    """Early-aborting exactness test: stops at the first remainder term."""
    numerator._same(divisor)
    q, _ = _divmod_terms(numerator.terms, divisor, abort_on_remainder=True)
    return q is not None


def plane_product(ctx: FieldCtx) -> TriPoly:
    """(x+y)(y+z)(z+x) expanded: the six monomials x^2*y, x^2*z, x*y^2,
    y^2*z, x*z^2, y*z^2 (the x*y*z terms cancel in char 2)."""
    return TriPoly(
        ctx,
        {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1},
    )


def symmetric_quadratic(ctx: FieldCtx) -> TriPoly:
    """x^2 + y^2 + z^2 + xy + xz + yz."""
    return TriPoly(
        ctx,
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1},
    )


@dataclass(frozen=True)
class HomogDecomp:
    """Homogeneous components, highest degree first."""

    parts: tuple[tuple[int, TriPoly], ...]

    def re_sum(self, ctx: FieldCtx) -> TriPoly:
        acc = TriPoly.zero(ctx)
        for _, part in self.parts:
            acc = acc + part
        return acc


def homog_decompose(p: TriPoly) -> HomogDecomp:
    buckets: dict[int, dict] = {}
    for mono, c in p.terms.items():
        buckets.setdefault(sum(mono), {})[mono] = c
    parts = tuple(
        (d, TriPoly(p.ctx, buckets[d])) for d in sorted(buckets, reverse=True)
    )
    return HomogDecomp(parts)


def is_symmetric(p: TriPoly) -> bool:
    """Invariance under every permutation of x, y, z (checked on the two
    generators: a transposition and the 3-cycle)."""
    swap = {(j, i, k): c for (i, j, k), c in p.terms.items()}
    cycle = {(k, i, j): c for (i, j, k), c in p.terms.items()}
    return swap == p.terms and cycle == p.terms


def substitute_linear(p: UniPoly, which: str) -> TriPoly:
    """p evaluated at x, y, z or x+y+z as a trivariate polynomial."""
    ctx = p.ctx
    if which in ("x", "y", "z"):
        axis = _VARS.index(which)
        terms = {}
        for e in p.support():
            mono = [0, 0, 0]
            mono[axis] = e
            terms[tuple(mono)] = p.coeffs[e]
        return TriPoly(ctx, terms)
    if which != "x+y+z":
        raise UnknownSubstitution(f"unsupported substitution {which!r}")
    s = TriPoly(ctx, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    cache: dict[int, TriPoly] = {0: TriPoly.one(ctx)}

    def s_pow(e: int) -> TriPoly:
        if e not in cache:
            if e % 2 == 0:
                cache[e] = s_pow(e // 2)._sqr()
            else:
                cache[e] = s_pow(e - 1) * s
        return cache[e]

    acc = TriPoly.zero(ctx)
    for e in p.support():
        acc = acc + s_pow(e) * TriPoly.constant(ctx, p.coeffs[e])
    return acc


def parse_tri(text: str, ctx: FieldCtx) -> TriPoly:
    """Parse the trivariate text grammar over ctx."""
    out: dict = {}
    for coeff_toks, powers, _pos in parse_terms(text, _VARS):
        mono = tuple(powers.get(v, 0) for v in _VARS)
        if any(e > MAX_VAR_DEGREE for e in mono):
            raise DegreeOutOfRange(f"exponents {mono} exceed {MAX_VAR_DEGREE}")
        v = out.get(mono, 0) ^ _coeff_bits(ctx, coeff_toks)
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return TriPoly(ctx, out)
