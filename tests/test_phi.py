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
    parse_poly,
    phi_linearity_check,
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


def test_linearity(g8):
    rng = random.Random(4)
    for _ in range(40):
        f = random_poly(rng, g8, 10)
        g = random_poly(rng, g8, 10)
        assert phi_linearity_check(f, g)


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


def test_quotient_times_plane_product_is_numerator(g2, g4):
    rng = random.Random(7)
    for ctx in (g2, g4):
        a = plane_product(ctx)
        for _ in range(250):
            f = random_poly(rng, ctx, 16, min_deg=1)
            num = (
                substitute_linear(f, "x")
                + substitute_linear(f, "y")
                + substitute_linear(f, "z")
                + substitute_linear(f, "x+y+z")
            )
            phi = build_phi(f).poly
            assert phi * a == num
            assert (not phi) == (not split_q_affine(f).core)


def test_monomial_surfaces_are_homogeneous(g2):
    for d in range(3, 21):
        phi = phi_monomial(d, g2)
        if not phi:
            continue
        parts = homog_decompose(phi).parts
        assert len(parts) == 1
        assert parts[0][0] == d - 3
