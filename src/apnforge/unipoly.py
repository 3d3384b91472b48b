"""Univariate polynomials over GF(2^m), dense storage up to degree 64.

Coefficients are stored as raw bit patterns next to their FieldCtx. The text
grammar used by the CLI lives here too: terms like `0x3*x^12`, `x^6`, `x`,
`0x2`, joined by `+`, coefficients in hex (bare or 0x-prefixed, 1 omitted),
exponents in decimal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DegreeNotMultipleOfThree,
    DegreeOutOfRange,
    FieldTooLarge,
    InvariantViolation,
    NotPositive,
    PolySyntaxError,
    TraceNotZero,
    UnknownCoefficient,
)
from .fields import Embedding, Felt, FieldCtx, find_embedding, frobenius, make_field, rel_trace

MAX_POLY_DEGREE = 64

NEG_INF = float("-inf")


def _felt_bits(c: Felt, ctx: FieldCtx) -> int:
    """Bit pattern of a Felt coefficient, which must belong to ctx."""
    if c.ctx != ctx:
        raise ContextMismatch(f"coefficient from {c.ctx.spec()} in a {ctx.spec()} polynomial")
    return c.bits


class UniPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = []
        for c in coeffs:
            bits = _felt_bits(c, ctx) if isinstance(c, Felt) else int(c)
            if not 0 <= bits < ctx.order:
                raise UnknownCoefficient(f"0x{bits:x} outside {ctx.spec()}")
            cs.append(bits)
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > MAX_POLY_DEGREE:
            raise DegreeOutOfRange(f"degree {len(cs) - 1} exceeds {MAX_POLY_DEGREE}")
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, (1,))

    @classmethod
    def monomial(cls, ctx: FieldCtx, e: int, coeff: int = 1) -> "UniPoly":
        if e < 0 or e > MAX_POLY_DEGREE:
            raise DegreeOutOfRange(f"exponent {e} outside 0..{MAX_POLY_DEGREE}")
        return cls(ctx, (0,) * e + (coeff,))

    @classmethod
    def from_pairs(cls, ctx: FieldCtx, pairs: dict[int, int]) -> "UniPoly":
        top = max(pairs, default=0)
        if top > MAX_POLY_DEGREE:
            raise DegreeOutOfRange(f"degree {top} exceeds {MAX_POLY_DEGREE}")
        cs = [0] * (top + 1)
        for e, c in pairs.items():
            cs[e] ^= _felt_bits(c, ctx) if isinstance(c, Felt) else int(c)
        return cls(ctx, cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, c in enumerate(self.coeffs) if c)

    def coefficient(self, e: int) -> Felt:
        bits = self.coeffs[e] if 0 <= e < len(self.coeffs) else 0
        return Felt(bits, self.ctx)

    def _same(self, other: "UniPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx.spec()} vs {other.ctx.spec()}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] ^= c
        return UniPoly(self.ctx, cs)

    __sub__ = __add__

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._same(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly(self.ctx)
        da, db = len(self.coeffs) - 1, len(other.coeffs) - 1
        if da + db > MAX_POLY_DEGREE:
            raise DegreeOutOfRange(f"product degree {da + db} exceeds {MAX_POLY_DEGREE}")
        mul = self.ctx.mul
        cs = [0] * (da + db + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        cs[i + j] ^= mul(a, b)
        return UniPoly(self.ctx, cs)

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise NotPositive("negative polynomial power")
        r = UniPoly.one(self.ctx)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.ctx.degree, self.ctx.modulus))

    def __bool__(self):
        return bool(self.coeffs)

    def eval(self, x: Felt, embedding: Embedding | None = None) -> Felt:
        """Horner evaluation; a supplied embedding maps the coefficients into
        x's field first."""
        if embedding is not None:
            if embedding.source != self.ctx or x.ctx != embedding.target:
                raise ContextMismatch("embedding does not connect the two contexts")
            return self.embed(embedding).eval(x)
        if x.ctx != self.ctx:
            raise ContextMismatch("evaluation point is in a different field")
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.mul(acc, x.bits) ^ c
        return Felt(acc, ctx)

    def embed(self, embedding: Embedding) -> "UniPoly":
        if embedding.source != self.ctx:
            raise ContextMismatch("polynomial is not over the embedding's source")
        tgt = embedding.target
        return UniPoly(
            tgt, [embedding.apply(Felt(c, self.ctx)).bits for c in self.coeffs]
        )

    def is_q_affine(self) -> bool:
        """True iff every exponent in the support is 0 or a power of 2."""
        return all(e == 0 or (e & (e - 1)) == 0 for e in self.support())

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                parts.append(f"0x{c:x}")
            else:
                v = "x" if e == 1 else f"x^{e}"
                parts.append(v if c == 1 else f"0x{c:x}*{v}")
        return " + ".join(parts)

    def __repr__(self):
        return f"UniPoly({self.to_text()} over {self.ctx.spec()})"


@dataclass(frozen=True)
class QAffineSplit:
    core: UniPoly
    affine: UniPoly


def split_q_affine(p: UniPoly) -> QAffineSplit:
    """Split off the q-affine part (exponents 0 and powers of 2); the two
    parts re-sum to p and have disjoint support."""
    core, affine = {}, {}
    for e in p.support():
        if e == 0 or (e & (e - 1)) == 0:
            affine[e] = p.coeffs[e]
        else:
            core[e] = p.coeffs[e]
    return QAffineSplit(
        UniPoly.from_pairs(p.ctx, core), UniPoly.from_pairs(p.ctx, affine)
    )


def compose(outer: UniPoly, inner: UniPoly) -> UniPoly:
    """outer(inner(x))."""
    if outer.ctx != inner.ctx:
        raise ContextMismatch("compose needs both polynomials over one field")
    do, di = outer.degree, inner.degree
    if do != NEG_INF and di != NEG_INF and do * di > MAX_POLY_DEGREE:
        raise DegreeOutOfRange(f"composition degree {do * di} exceeds {MAX_POLY_DEGREE}")
    acc = UniPoly.zero(outer.ctx)
    power = UniPoly.one(outer.ctx)
    for e, c in enumerate(outer.coeffs):
        if e:
            power = power * inner
        if c:
            acc = acc + power * UniPoly(outer.ctx, (c,))
    return acc


def linearized_quartic(c: Felt, base: FieldCtx | None = None) -> UniPoly:
    """x^4 + beta*x^2 + gamma*x over F_q from a trace-zero parameter c in
    F_(q^3): beta = c^(1+q) + c^(1+q^2) + c^(q+q^2), gamma = c^(1+q+q^2).
    Splits as x(x+c)(x+c^q)(x+c^(q^2)) over F_(q^3), checked by root
    evaluation, so its only root in F_q is 0 and it is bijective there."""
    ctx3 = c.ctx
    if ctx3.degree % 3 != 0:
        raise DegreeNotMultipleOfThree(f"{ctx3.spec()} is not a cubic extension")
    k = ctx3.degree // 3
    if rel_trace(c, k).bits != 0:
        raise TraceNotZero(f"{c.hex()} has nonzero relative trace")
    if base is None:
        base = make_field(k)
    elif base.degree != k:
        raise DegreeMismatch(f"base field must have degree {k}")
    cq = frobenius(c, k)
    cq2 = frobenius(c, 2 * k)
    beta3 = c * cq + c * cq2 + cq * cq2
    gamma3 = c * cq * cq2
    emb = find_embedding(base, ctx3)
    beta = emb.pull_back(beta3)
    gamma = emb.pull_back(gamma3)
    quartic = UniPoly.from_pairs(base, {4: 1, 2: beta.bits, 1: gamma.bits})
    lifted = quartic.embed(emb)
    for root in (ctx3.zero, c, cq, cq2):
        if lifted.eval(root).bits != 0:
            raise InvariantViolation("parameter orbit is not the root set")
    return quartic


def eval_table(p: UniPoly, field: FieldCtx) -> np.ndarray:
    """p evaluated at every element of field (auto-embedding p if needed),
    as an int64 array indexed by element bit pattern."""
    if p.ctx == field:
        coeffs = p.coeffs
    else:
        coeffs = tuple(p.embed(find_embedding(p.ctx, field)).coeffs)
    if field.has_tables:
        xs = np.arange(field.order, dtype=np.int64)
        acc = np.zeros(field.order, dtype=np.int64)
        for c in reversed(coeffs):
            acc = field.vec_mul(acc, xs) ^ c
        return acc
    mul = field.mul
    out = np.empty(field.order, dtype=np.int64)
    for x in range(field.order):
        acc = 0
        for c in reversed(coeffs):
            acc = mul(acc, x) ^ c
        out[x] = acc
    return out


def is_bijective_on(p: UniPoly, field: FieldCtx) -> bool:
    """True iff p permutes field; enumeration, capped at 2^20 elements."""
    if field.order > 1 << 20:
        raise FieldTooLarge(f"bijectivity enumeration capped at 2^20, got {field.spec()}")
    table = eval_table(p, field)
    return len(np.unique(table)) == field.order


# text grammar ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<hex>0x[0-9a-fA-F]+)|(?P<var>[xyz])|(?P<num>[0-9a-fA-F]+)|(?P<op>[\^*+])"
)


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return toks


def parse_terms(text: str, variables: str) -> list[tuple[list[tuple[str, int]], dict[str, int], int]]:
    """Shared term-level parser: returns (coefficient tokens, {var: exp},
    term position) triples. Raises PolySyntaxError with the bad position."""
    toks = _tokenize(text)
    if not toks:
        raise PolySyntaxError("empty polynomial text", 0)
    terms = []
    i, n = 0, len(toks)
    while True:
        if i >= n:
            raise PolySyntaxError("expected a term", toks[-1][2] + len(toks[-1][1]))
        term_pos = toks[i][2]
        coeff_toks: list[tuple[str, int]] = []
        powers: dict[str, int] = {}
        while True:
            kind, val, pos = toks[i]
            if kind in ("hex", "num"):
                coeff_toks.append((val, pos))
                i += 1
            elif kind == "var":
                if val not in variables:
                    raise PolySyntaxError(f"variable {val!r} not allowed", pos)
                i += 1
                e = 1
                if i < n and toks[i][0] == "op" and toks[i][1] == "^":
                    i += 1
                    if i >= n or toks[i][0] != "num" or not toks[i][1].isdigit():
                        where = toks[i][2] if i < n else pos + 1
                        raise PolySyntaxError("expected a decimal exponent after '^'", where)
                    e = int(toks[i][1], 10)
                    i += 1
                powers[val] = powers.get(val, 0) + e
            else:
                raise PolySyntaxError(f"unexpected {val!r}", pos)
            if i < n and toks[i][0] == "op" and toks[i][1] == "*":
                i += 1
                continue
            break
        terms.append((coeff_toks, powers, term_pos))
        if i >= n:
            return terms
        kind, val, pos = toks[i]
        if kind == "op" and val == "+":
            i += 1
            continue
        raise PolySyntaxError(f"expected '+' between terms, got {val!r}", pos)


def _coeff_bits(ctx: FieldCtx, coeff_toks) -> int:
    bits = 1
    for val, pos in coeff_toks:
        v = int(val, 16)
        if v >= ctx.order:
            raise UnknownCoefficient(
                f"0x{v:x} (at position {pos}) is not an element of {ctx.spec()}"
            )
        bits = ctx.mul(bits, v)
    return bits


def parse_poly(text: str, ctx: FieldCtx) -> UniPoly:
    """Parse the univariate text grammar over ctx."""
    pairs: dict[int, int] = {}
    for coeff_toks, powers, pos in parse_terms(text, "x"):
        e = powers.get("x", 0)
        if e > MAX_POLY_DEGREE:
            raise DegreeOutOfRange(f"exponent {e} exceeds {MAX_POLY_DEGREE}")
        pairs[e] = pairs.get(e, 0) ^ _coeff_bits(ctx, coeff_toks)
    return UniPoly.from_pairs(ctx, pairs)
