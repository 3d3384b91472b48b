"""The phi surface of a univariate polynomial f over GF(2^m).

phi(x, y, z) is the exact quotient of f(x)+f(y)+f(z)+f(x+y+z) by
(x+y)(y+z)(z+x). The numerator vanishes on the three planes x=y, y=z, z=x,
so the quotient is a polynomial. phi is linear in f, so it is assembled from
the surfaces of the monomials x^d, which a recurrence gives without any
division. phi is zero exactly when f is q-affine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DegreeOutOfRange, DegreeShapeMismatch, DegreeTooSmall
from .fields import FieldCtx, make_field
from .tripoly import (
    HomogDecomp,
    TriPoly,
    homog_decompose,
    plane_product,
    symmetric_quadratic,
)
from .unipoly import MAX_POLY_DEGREE, UniPoly


@dataclass(frozen=True)
class PhiSurface:
    f: UniPoly
    poly: TriPoly
    decomp: HomogDecomp


def build_phi(f: UniPoly) -> PhiSurface:
    """Construct phi for f from the monomial surfaces of its support."""
    terms: dict = {}
    for d in f.support():
        terms.update(dict.fromkeys(_phi_monomials(d), f.coeffs[d]))
    poly = TriPoly(f.ctx, terms)
    return PhiSurface(f, poly, homog_decompose(poly))


def phi_monomial(d: int, ctx: FieldCtx | None = None) -> TriPoly:
    """phi of x^d. For d in {0, 1, 2} the numerator vanishes identically and
    the result is the zero polynomial rather than an error."""
    if d < 0:
        raise DegreeTooSmall(f"monomial degree {d} is negative")
    if d > MAX_POLY_DEGREE:
        raise DegreeOutOfRange(f"monomial degree {d} exceeds {MAX_POLY_DEGREE}")
    if ctx is None:
        ctx = make_field(1)
    return TriPoly(ctx, dict.fromkeys(_phi_monomials(d), 1))


# x, y, z and x+y+z sum to 0, so they are the roots of T^4 + M*T^2 + A*T + E
# (M the symmetric quadratic, A the plane product, E = xyz(x+y+z)), and
# Newton's identities give phi_d = phi(x^d) = M*phi_(d-2) + A*phi_(d-3) +
# E*phi_(d-4) for d >= 4, from phi_0 = phi_1 = phi_2 = 0 and phi_3 = 1.
# Every phi_d has GF(2) coefficients, so it is kept as its set of monomials
# (addition is symmetric difference), and it is homogeneous of degree d-3:
# no two d share a monomial, which lets build_phi join them without adding.
_XYZ_SUM = ((2, 1, 1), (1, 2, 1), (1, 1, 2))


@functools.cache
def _phi_monomials(d: int) -> frozenset:
    """The monomials of phi(x^d), 0 <= d <= MAX_POLY_DEGREE."""
    if d < 4:
        return frozenset([(0, 0, 0)] if d == 3 else [])
    g2 = make_field(1)
    acc: set = set()
    for factor, prev in (
        (symmetric_quadratic(g2).terms, d - 2),
        (plane_product(g2).terms, d - 3),
        (_XYZ_SUM, d - 4),
    ):
        for a, b, c in factor:
            acc ^= {(i + a, j + b, k + c) for i, j, k in _phi_monomials(prev)}
    return frozenset(acc)


def check_even_split(d: int, ctx: FieldCtx | None = None) -> bool:
    """For even d = 2^j * e with e odd: phi_d = phi_e^(2^j) * A^(2^j - 1),
    A the plane product. Compares the recurrence's phi_d against the
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
