"""The phi surface of a univariate polynomial f over GF(2^m).

phi(x, y, z) is the exact quotient of f(x)+f(y)+f(z)+f(x+y+z) by
(x+y)(y+z)(z+x). The numerator vanishes on the three planes x=y, y=z, z=x,
so the division is always exact; a nonzero remainder is an internal failure.
phi is zero exactly when f is q-affine, and phi is additive in f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DegreeShapeMismatch,
    DegreeTooSmall,
    InternalNonExactDivision,
)
from .fields import FieldCtx, make_field
from .tripoly import (
    HomogDecomp,
    TriPoly,
    exact_divide,
    homog_decompose,
    plane_product,
    substitute_linear,
)
from .unipoly import MAX_POLY_DEGREE, UniPoly


@dataclass(frozen=True)
class PhiSurface:
    f: UniPoly
    poly: TriPoly
    decomp: HomogDecomp


def build_phi(f: UniPoly) -> PhiSurface:
    """Construct phi for f, asserting the division comes out exact."""
    ctx = f.ctx
    numerator = (
        substitute_linear(f, "x")
        + substitute_linear(f, "y")
        + substitute_linear(f, "z")
        + substitute_linear(f, "x+y+z")
    )
    quotient, exact = exact_divide(numerator, plane_product(ctx))
    if not exact:
        raise InternalNonExactDivision(
            f"numerator of {f.to_text()} not divisible by the plane product"
        )
    return PhiSurface(f, quotient, homog_decompose(quotient))


def phi_monomial(d: int, ctx: FieldCtx | None = None) -> TriPoly:
    """phi of x^d. For d in {0, 1, 2} the numerator vanishes identically and
    the result is the zero polynomial rather than an error."""
    if d < 0:
        raise DegreeTooSmall(f"monomial degree {d} is negative")
    if d > MAX_POLY_DEGREE:
        raise DegreeOutOfRange(f"monomial degree {d} exceeds {MAX_POLY_DEGREE}")
    if ctx is None:
        ctx = make_field(1)
    if d < 3:
        return TriPoly.zero(ctx)
    return build_phi(UniPoly.monomial(ctx, d)).poly


def check_even_split(d: int, ctx: FieldCtx | None = None) -> bool:
    """For even d = 2^j * e with e odd: phi_d = phi_e^(2^j) * A^(2^j - 1),
    A the plane product. Compares an independent division against the
    power-and-multiply route."""
    if d % 2 != 0 or d < 4:
        raise DegreeShapeMismatch(f"need even d >= 4, got {d}")
    if d > MAX_POLY_DEGREE:
        raise DegreeOutOfRange(f"{d} exceeds {MAX_POLY_DEGREE}")
    if ctx is None:
        ctx = make_field(1)
    e, j = d, 0
    while e % 2 == 0:
        e //= 2
        j += 1
    lhs = phi_monomial(d, ctx)
    if e < 3:
        # x^d is q-affine, so both sides vanish; skip forming A^(2^j - 1)
        return not lhs
    rhs = phi_monomial(e, ctx) ** (1 << j) * plane_product(ctx) ** ((1 << j) - 1)
    return lhs == rhs


def check_odd_plane_free(r: int, ctx: FieldCtx | None = None) -> bool:
    """For odd r >= 3: true iff x+y does NOT divide phi_r (it never does)."""
    if r % 2 != 1 or r < 3:
        raise DegreeShapeMismatch(f"need odd r >= 3, got {r}")
    if r > MAX_POLY_DEGREE:
        raise DegreeOutOfRange(f"{r} exceeds {MAX_POLY_DEGREE}")
    if ctx is None:
        ctx = make_field(1)
    xy = TriPoly(ctx, {(1, 0, 0): 1, (0, 1, 0): 1})
    _, rem = phi_monomial(r, ctx).divmod(xy)
    return bool(rem)


def phi_linearity_check(f: UniPoly, g: UniPoly) -> bool:
    """phi(f+g) = phi(f) + phi(g); and when g is q-affine, phi(f+g) = phi(f)."""
    if f.ctx != g.ctx:
        raise ContextMismatch("operands over different fields")
    pf = build_phi(f).poly
    pg = build_phi(g).poly
    ps = build_phi(f + g).poly
    ok = ps == pf + pg
    if g.is_q_affine():
        ok = ok and ps == pf
    return ok
