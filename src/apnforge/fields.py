"""Arithmetic in GF(2^m) with elements stored as packed bit-pattern ints.

A FieldCtx carries the degree and the irreducible modulus (also a bit-pattern,
bit i = coefficient of t^i). Elements are Felt wrappers around ints; addition
is XOR, multiplication is carryless multiply followed by reduction. Contexts
of degree <= 16 build exp/log tables on first use; table and shift-xor
multiplication are bit-identical.

Element order everywhere is unsigned integer order of the bit pattern.
Subfield towers are realized through explicit Embeddings whose generator
image is the lowest root of the source modulus in the target field.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import xor

import numpy as np

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DegreeNotMultipleOfThree,
    DegreeOutOfRange,
    DivisionByZero,
    InvariantViolation,
    NoRoot,
    PolySyntaxError,
    ReducibleModulus,
    UnknownCoefficient,
)

MAX_FIELD_DEGREE = 24
_TABLE_DEGREE = 16


def _pdeg(a: int) -> int:
    """Degree of a GF(2)[t] bit pattern, -1 for zero."""
    return a.bit_length() - 1


def _pmul(a: int, b: int) -> int:
    """Carryless product in GF(2)[t]."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def _pmod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[t]."""
    dm = _pdeg(m)
    da = _pdeg(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = _pdeg(a)
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division by every pattern of degree 1..deg//2."""
    d = _pdeg(poly)
    if d <= 0:
        return False
    for dd in range(1, d // 2 + 1):
        for div in range(1 << dd, 1 << (dd + 1)):
            if _pmod(poly, div) == 0:
                return False
    return True


_LOWEST_IRREDUCIBLE: dict[int, int] = {}


def lowest_irreducible(m: int) -> int:
    """Lowest bit-pattern monic irreducible of degree m (the default modulus)."""
    mod = _LOWEST_IRREDUCIBLE.get(m)
    if mod is None:
        for cand in range(1 << m, 1 << (m + 1)):
            if is_irreducible(cand):
                mod = cand
                break
        assert mod is not None
        _LOWEST_IRREDUCIBLE[m] = mod
    return mod


class FieldCtx:
    """Immutable GF(2^m) context; safe to share across threads and processes."""

    __slots__ = ("degree", "modulus", "order", "_exp", "_log", "_log_np", "_exp_ext")

    def __init__(self, degree: int, modulus: int | None = None):
        if not 1 <= degree <= MAX_FIELD_DEGREE:
            raise DegreeOutOfRange(f"field degree must be 1..{MAX_FIELD_DEGREE}, got {degree}")
        if modulus is None:
            modulus = lowest_irreducible(degree)
        else:
            if _pdeg(modulus) != degree:
                raise DegreeOutOfRange(f"modulus 0x{modulus:x} is not monic of degree {degree}")
            if not is_irreducible(modulus):
                raise ReducibleModulus(f"0x{modulus:x} factors over GF(2)")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "order", 1 << degree)
        object.__setattr__(self, "_exp", None)
        object.__setattr__(self, "_log", None)
        object.__setattr__(self, "_log_np", None)
        object.__setattr__(self, "_exp_ext", None)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return f"FieldCtx({self.spec()})"

    def spec(self) -> str:
        return f"gf(2^{self.degree})/0x{self.modulus:x}"

    # raw arithmetic on bit patterns ------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        mod = self.modulus
        top = 1 << self.degree
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def _build_tables(self) -> None:
        q = self.order
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        # exp and log hold the same values 0..q-1, so they share one int
        # object per value instead of holding two copies of each
        ints = list(range(q))
        if self.degree == 1:
            exp[0] = 1
        else:
            for g in range(2, q):
                e = 1
                ok = True
                seen = [False] * q
                for k in range(q - 1):
                    if seen[e]:
                        ok = False
                        break
                    seen[e] = True
                    exp[k] = ints[e]
                    log[e] = ints[k]
                    e = self._mul_raw(e, g)
                if ok and e == 1:
                    break
            else:  # pragma: no cover - a primitive element always exists
                raise AssertionError("no primitive element found")
        for k in range(q - 1):
            exp[k + q - 1] = exp[k]
        # numpy mirrors for whole-field vector work: log of zero becomes a
        # sentinel big enough that a sum of two logs involving it lands in
        # the zero-filled tail of the extended exp table
        sentinel = 2 * (q - 1)
        log_np = np.array(log, dtype=np.int64)
        log_np[0] = sentinel
        exp_ext = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        exp_ext[:sentinel] = exp
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_log_np", log_np)
        object.__setattr__(self, "_exp_ext", exp_ext)

    @property
    def has_tables(self) -> bool:
        if self.degree > _TABLE_DEGREE:
            return False
        if self._exp is None:
            self._build_tables()
        return True

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.degree <= _TABLE_DEGREE:
            if self._exp is None:
                self._build_tables()
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        if self.degree <= _TABLE_DEGREE:
            if self._exp is None:
                self._build_tables()
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self.degree <= _TABLE_DEGREE:
            if self._exp is None:
                self._build_tables()
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def frob(self, a: int, i: int) -> int:
        """a^(2^i), reduced through x^(2^m) = x."""
        for _ in range(i % self.degree):
            a = self.mul(a, a)
        return a

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of bit-pattern arrays (table fields only)."""
        if not self.has_tables:
            raise InvariantViolation(f"vec_mul needs exp/log tables, {self.spec()} has none")
        return self._exp_ext[self._log_np[a] + self._log_np[b]]

    # element plumbing ---------------------------------------------------

    def element(self, bits: int) -> "Felt":
        if not 0 <= bits < self.order:
            raise UnknownCoefficient(f"0x{bits:x} is not an element of {self.spec()}")
        return Felt(bits, self)

    def from_hex(self, text: str) -> "Felt":
        try:
            bits = int(text, 16)
        except ValueError:
            raise UnknownCoefficient(f"bad element text {text!r}") from None
        return self.element(bits)

    @property
    def zero(self) -> "Felt":
        return Felt(0, self)

    @property
    def one(self) -> "Felt":
        return Felt(1, self)

    def elements(self):
        """All field elements in deterministic (unsigned integer) order."""
        for bits in range(self.order):
            yield Felt(bits, self)


class Felt:
    """One element of a FieldCtx. Comparable and sortable by bit pattern."""

    __slots__ = ("bits", "ctx")

    def __init__(self, bits: int, ctx: FieldCtx):
        self.bits = bits
        self.ctx = ctx

    def _same(self, other: "Felt") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx.spec()} vs {other.ctx.spec()}")

    def __add__(self, other):
        self._same(other)
        return Felt(self.bits ^ other.bits, self.ctx)

    __sub__ = __add__

    def __mul__(self, other):
        self._same(other)
        return Felt(self.ctx.mul(self.bits, other.bits), self.ctx)

    def __truediv__(self, other):
        self._same(other)
        return Felt(self.ctx.mul(self.bits, self.ctx.inv(other.bits)), self.ctx)

    def __pow__(self, e: int):
        return Felt(self.ctx.pow(self.bits, e), self.ctx)

    def inverse(self):
        return Felt(self.ctx.inv(self.bits), self.ctx)

    def __eq__(self, other):
        return isinstance(other, Felt) and self.bits == other.bits and self.ctx == other.ctx

    def __lt__(self, other):
        self._same(other)
        return self.bits < other.bits

    def __hash__(self):
        return hash((self.bits, self.ctx.degree, self.ctx.modulus))

    def __bool__(self):
        return self.bits != 0

    def hex(self) -> str:
        return f"0x{self.bits:x}"

    def __repr__(self):
        return f"Felt({self.hex()} in {self.ctx.spec()})"


_CTX_CACHE: dict[tuple[int, int], FieldCtx] = {}


def make_field(m: int, modulus: int | None = None) -> FieldCtx:
    """GF(2^m) with the given modulus, or the lowest irreducible by default."""
    ctx = FieldCtx(m, modulus)
    return _CTX_CACHE.setdefault((ctx.degree, ctx.modulus), ctx)


def frobenius(x: Felt, i: int) -> Felt:
    """x^(2^i)."""
    return Felt(x.ctx.frob(x.bits, i), x.ctx)


def rel_trace(x: Felt, q_degree: int) -> Felt:
    """Trace from F_(q^3) down to F_q, q = 2^q_degree: x + x^q + x^(q^2)."""
    if x.ctx.degree != 3 * q_degree:
        raise DegreeNotMultipleOfThree(
            f"element lives in gf(2^{x.ctx.degree}), need degree {3 * q_degree}"
        )
    b = x.bits
    return Felt(b ^ x.ctx.frob(b, q_degree) ^ x.ctx.frob(b, 2 * q_degree), x.ctx)


def linear_kernel(ctx: FieldCtx, fn) -> list[int]:
    """Basis of the kernel of an F_2-linear map fn on the bit patterns of
    ctx, found by Gaussian elimination on the images of the basis vectors
    2^i. The basis is in reduced echelon form (ascending top bits, each top
    bit set in no other vector), so span() lists the kernel in ascending
    order: a kernel vector is 2^i plus the combinations of pivot rows, which
    never include another kernel vector's bit."""
    pivots: dict[int, tuple[int, int]] = {}
    basis: list[int] = []
    for i in range(ctx.degree):
        image, combo = fn(1 << i), 1 << i
        while image:
            top = image.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (image, combo)
                break
            image ^= pivot[0]
            combo ^= pivot[1]
        else:
            basis.append(combo)
    return basis


def span(basis: list[int]):
    """Every XOR combination of basis, in binary counting order: ascending
    for a basis from linear_kernel. Yields lazily, one XOR per element."""
    prefix = list(accumulate(basis, xor))
    x = 0
    yield x
    for j in range(1, 1 << len(basis)):
        # counting j-1 -> j flips bits 0..t, t the lowest set bit of j
        x ^= prefix[(j & -j).bit_length() - 1]
        yield x


def trace_zero_elements(ctx3: FieldCtx, q_degree: int) -> set[Felt]:
    """Kernel of the relative trace x + x^q + x^(q^2) in F_(q^3); always of
    size q^2."""
    if ctx3.degree != 3 * q_degree:
        raise DegreeNotMultipleOfThree(
            f"gf(2^{ctx3.degree}) is not a cubic extension of gf(2^{q_degree})"
        )
    frob = ctx3.frob
    basis = linear_kernel(ctx3, lambda b: b ^ frob(b, q_degree) ^ frob(b, 2 * q_degree))
    return {Felt(bits, ctx3) for bits in span(basis)}


class Embedding:
    """Field homomorphism F_(2^k) -> F_(2^n), k | n, determined by the image
    of the source generator (a root of the source modulus in the target)."""

    __slots__ = ("source", "target", "generator_image", "_powers", "_inverse")

    def __init__(self, source: FieldCtx, target: FieldCtx, generator_image: Felt):
        self.source = source
        self.target = target
        self.generator_image = generator_image
        g = generator_image.bits
        powers = [1]
        for _ in range(source.degree - 1):
            powers.append(target.mul(powers[-1], g))
        self._powers = powers
        self._inverse = None

    def apply(self, x: Felt) -> Felt:
        if x.ctx != self.source:
            raise ContextMismatch("element is not in the embedding's source field")
        bits = x.bits
        out = 0
        i = 0
        while bits:
            if bits & 1:
                out ^= self._powers[i]
            bits >>= 1
            i += 1
        return Felt(out, self.target)

    def pull_back(self, y: Felt) -> Felt:
        """Preimage of y; raises if y is outside the embedded subfield."""
        if y.ctx != self.target:
            raise ContextMismatch("element is not in the embedding's target field")
        if self._inverse is None:
            table = {}
            for bits in range(self.source.order):
                table[self.apply(Felt(bits, self.source)).bits] = bits
            self._inverse = table
        try:
            return Felt(self._inverse[y.bits], self.source)
        except KeyError:
            raise UnknownCoefficient(
                f"{y.hex()} is not in the embedded copy of {self.source.spec()}"
            ) from None


_EMBEDDING_CACHE: dict[tuple[FieldCtx, FieldCtx], Embedding] = {}


def find_embedding(source: FieldCtx, target: FieldCtx) -> Embedding:
    """Embedding sending the source generator to the lowest root of the
    source modulus in the target field. Every root lies in the subfield
    F_(2^k) of the target, k = source degree, which is the kernel of
    x -> x^(2^k) + x; only its 2^k elements are tried, in ascending order.
    Memoised per (source, target), like make_field."""
    if target.degree % source.degree != 0:
        raise DegreeMismatch(
            f"gf(2^{source.degree}) does not embed in gf(2^{target.degree})"
        )
    key = (source, target)
    emb = _EMBEDDING_CACHE.get(key)
    if emb is not None:
        return emb
    k = source.degree
    mod = source.modulus
    exps = [i for i in range(mod.bit_length()) if (mod >> i) & 1]
    for cand in span(linear_kernel(target, lambda b: target.frob(b, k) ^ b)):
        acc = 0
        for e in exps:
            acc ^= target.pow(cand, e)
        if acc == 0:
            return _EMBEDDING_CACHE.setdefault(key, Embedding(source, target, Felt(cand, target)))
    raise NoRoot(
        f"no root of 0x{mod:x} in gf(2^{target.degree})"
    )  # pragma: no cover - impossible when degrees divide


_FIELD_SPEC_RE = re.compile(r"gf\(2\^(\d+)\)(?:/0x([0-9a-fA-F]+))?\Z")


def parse_field_spec(text: str) -> FieldCtx:
    """Parse 'gf(2^m)' or 'gf(2^m)/0x<hex>'."""
    m = _FIELD_SPEC_RE.match(text.strip())
    if not m:
        raise PolySyntaxError(f"bad field spec {text!r}", 0)
    degree = int(m.group(1))
    modulus = int(m.group(2), 16) if m.group(2) else None
    return make_field(degree, modulus)
