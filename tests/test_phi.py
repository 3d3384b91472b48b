"""The quotient surface phi = (f(x)+f(y)+f(z)+f(x+y+z)) / A and its
divisibility laws."""

import random

import pytest

from apnforge import (
    TriPoly,
    UniPoly,
    build_phi,
    check_even_split,
    check_odd_plane_free,
    exact_divide,
    make_field,
    parse_poly,
    phi_monomial,
    plane_product,
    split_q_affine,
    symmetric_quadratic,
)
from apnforge.errors import DegreeShapeMismatch, DegreeTooSmall
from apnforge.tripoly import homog_decompose, substitute_linear
from conftest import random_poly, random_q_affine


def test_phi_of_cube_is_one(g2):
    assert build_phi(parse_poly("x^3", g2)).poly == TriPoly.one(g2)


def test_phi_of_q_affine_is_zero(g2):
    assert not build_phi(parse_poly("x^4 + x^2 + 0x1", g2)).poly


def test_phi_of_x12(g2):
    assert build_phi(parse_poly("x^12", g2)).poly == plane_product(g2) ** 3


def test_phi_of_degree12_trinomial(g2):
    a = plane_product(g2)
    expected = a ** 3 + a + TriPoly.one(g2)
    surf = build_phi(parse_poly("x^12 + x^6 + x^3", g2))
    assert surf.poly == expected
    assert [d for d, _ in surf.decomp.parts] == [9, 3, 0]


def test_phi_of_x5_is_symmetric_quadratic(g2):
    assert build_phi(parse_poly("x^5", g2)).poly == symmetric_quadratic(g2)


def test_decomposition_re_sums(g16):
    rng = random.Random(3)
    f = random_poly(rng, g16, 12)
    surf = build_phi(f)
    assert surf.decomp.re_sum(g16) == surf.poly


def test_phi_monomial_degenerate(g2):
    assert not phi_monomial(0)
    assert not phi_monomial(2)
    with pytest.raises(DegreeTooSmall):
        phi_monomial(-1)


def test_even_split_full_range():
    for d in range(4, 65, 2):
        assert check_even_split(d)


def test_even_split_rejects_odd():
    with pytest.raises(ValueError):
        check_even_split(9)


def test_even_split_shape_errors():
    for d in (2, 9):
        with pytest.raises(DegreeShapeMismatch) as exc:
            check_even_split(d)
        assert isinstance(exc.value, ValueError)


def test_odd_plane_free_full_range():
    for r in range(3, 34, 2):
        assert check_odd_plane_free(r)


def test_odd_plane_free_rejects_even():
    with pytest.raises(ValueError):
        check_odd_plane_free(8)


def test_odd_plane_free_shape_errors():
    for r in (1, 8):
        with pytest.raises(DegreeShapeMismatch) as exc:
            check_odd_plane_free(r)
        assert isinstance(exc.value, ValueError)


def test_phi9_remainder_mod_plane(g2):
    # dividing by x+y, the surface of x^9 leaves the same remainder as (x+z)^6
    xy = TriPoly(g2, {(1, 0, 0): 1, (0, 1, 0): 1})
    xz6 = TriPoly(g2, {(1, 0, 0): 1, (0, 0, 1): 1}) ** 6
    _, r1 = phi_monomial(9).divmod(xy)
    _, r2 = xz6.divmod(xy)
    assert r1 == r2
    assert r1


def test_q_affine_kernel(g8):
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(rng, g8, 10)
        g = random_q_affine(rng, g8)
        assert build_phi(f + g).poly == build_phi(f).poly


def test_phi_zero_iff_core_zero(g16):
    rng = random.Random(6)
    for _ in range(40):
        f = random_poly(rng, g16, 12, min_deg=1)
        phi = build_phi(f).poly
        assert (not phi) == (not split_q_affine(f).core)


def test_surface_of_sum_with_scaled_core(g16):
    # additivity over an explicit pair
    f = parse_poly("x^6 + 0x5*x^3", g16)
    g = parse_poly("0x5*x^3 + x", g16)
    assert build_phi(f + g).poly == build_phi(f).poly + build_phi(g).poly


def _numerator(f):
    return (
        substitute_linear(f, "x")
        + substitute_linear(f, "y")
        + substitute_linear(f, "z")
        + substitute_linear(f, "x+y+z")
    )


def test_quotient_times_plane_product_is_numerator(g2, g4):
    # build_phi sums monomial surfaces from a recurrence; the product with
    # the plane product and exact division are its oracles
    rng = random.Random(7)
    cases = [(ctx, random_poly(rng, ctx, 16, min_deg=1)) for ctx in (g2, g4) for _ in range(250)]
    for m in (1, 2, 3, 4):
        ctx = make_field(m)
        dense = {e: rng.randrange(1, ctx.order) for e in range(65)}
        cases.append((ctx, UniPoly.from_pairs(ctx, dense)))
    g2_17 = make_field(17)  # no log tables at this size
    cases.append((g2_17, parse_poly("0x1abcd*x^64 + 0x3*x^37 + x^12 + 0x1ffff*x^5 + x", g2_17)))
    for ctx, f in cases:
        phi = build_phi(f).poly
        assert phi * plane_product(ctx) == _numerator(f)
        assert (not phi) == (not split_q_affine(f).core)
    for d in range(65):
        quotient, exact = exact_divide(_numerator(UniPoly.monomial(g2, d)), plane_product(g2))
        assert exact
        assert phi_monomial(d) == quotient


def test_monomial_surfaces_are_homogeneous(g2):
    for d in range(3, 21):
        phi = phi_monomial(d, g2)
        if not phi:
            continue
        parts = homog_decompose(phi).parts
        assert len(parts) == 1
        assert parts[0][0] == d - 3
