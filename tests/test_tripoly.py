"""Sparse trivariate polynomials: graded-lex division, homogeneous split,
symmetry, linear substitutions."""

import random

import pytest

from apnforge import (
    TriPoly,
    divides_exactly,
    exact_divide,
    homog_decompose,
    is_symmetric,
    parse_tri,
    plane_product,
    symmetric_quadratic,
)
from apnforge.errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    NotPositive,
    UnknownSubstitution,
)
from apnforge.tripoly import substitute_linear
from apnforge.unipoly import UniPoly


def _rand_tri(rng: random.Random, ctx, n_terms: int, max_e: int) -> TriPoly:
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randrange(max_e + 1) for _ in range(3))
        terms[mono] = rng.randrange(1, ctx.order)
    return TriPoly(ctx, terms)


def test_plane_product_terms(g2):
    a = plane_product(g2)
    assert a.terms == {
        (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1,
        (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1,
    }


def test_plane_product_is_product_of_planes(g2):
    x_y = TriPoly(g2, {(1, 0, 0): 1, (0, 1, 0): 1})
    y_z = TriPoly(g2, {(0, 1, 0): 1, (0, 0, 1): 1})
    z_x = TriPoly(g2, {(0, 0, 1): 1, (1, 0, 0): 1})
    assert x_y * y_z * z_x == plane_product(g2)


def test_symmetric_quadratic_terms(g2):
    m = symmetric_quadratic(g2)
    assert m.terms == {
        (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
        (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1,
    }


def test_grlex_leading_term(g2):
    assert plane_product(g2).leading_term() == ((2, 1, 0), 1)


def test_pow_square_chain(g16):
    a = plane_product(g16)
    assert a ** 2 == a * a
    assert a ** 5 == a * a * a * a * a
    assert a ** 0 == TriPoly.one(g16)


def test_exponent_cap(g2):
    with pytest.raises(DegreeOutOfRange):
        TriPoly(g2, {(65, 0, 0): 1})


def test_division_property(g16):
    rng = random.Random(5)
    for _ in range(60):
        num = _rand_tri(rng, g16, 8, 6)
        div = _rand_tri(rng, g16, 3, 3)
        if not div:
            continue
        q, r = num.divmod(div)
        assert q * div + r == num
        # no remainder term reducible by the leading monomial of div
        (di, dj, dk), _ = div.leading_term()
        for (i, j, k) in r.terms:
            assert not (i >= di and j >= dj and k >= dk)


def test_exact_divide_round_trip(g16):
    rng = random.Random(6)
    hits = 0
    for _ in range(200):
        q = _rand_tri(rng, g16, 5, 5)
        d = _rand_tri(rng, g16, 4, 4)
        if not q or not d:
            continue
        got, exact = exact_divide(q * d, d)
        assert exact
        assert got == q
        hits += 1
    assert hits > 150


def test_divides_exactly(g2):
    a = plane_product(g2)
    assert divides_exactly(a ** 3, a)
    assert not divides_exactly(a ** 3 + TriPoly.one(g2), a)


def test_division_by_zero(g2):
    with pytest.raises(DivisionByZero):
        plane_product(g2).divmod(TriPoly.zero(g2))


def test_homog_decompose(g16):
    rng = random.Random(7)
    p = _rand_tri(rng, g16, 12, 5)
    dec = homog_decompose(p)
    assert dec.re_sum(g16) == p
    degs = [d for d, _ in dec.parts]
    assert degs == sorted(degs, reverse=True)
    for d, part in dec.parts:
        assert all(sum(m) == d for m in part.terms)


def test_is_symmetric(g2):
    assert is_symmetric(plane_product(g2))
    assert is_symmetric(symmetric_quadratic(g2))
    assert not is_symmetric(TriPoly(g2, {(2, 1, 0): 1}))


def test_substitute_linear_sum(g2):
    # (x+y+z)^3 expanded through the substitution path
    cube = UniPoly.monomial(g2, 3)
    s = TriPoly(g2, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert substitute_linear(cube, "x+y+z") == s * s * s


def test_substitute_linear_single_variable(g16):
    f = UniPoly.from_pairs(g16, {4: 0x3, 1: 0x9})
    assert substitute_linear(f, "y").terms == {(0, 4, 0): 0x3, (0, 1, 0): 0x9}


def test_evaluate(g16):
    rng = random.Random(8)
    a = plane_product(g16)
    for _ in range(20):
        x, y, z = (g16.element(rng.randrange(16)) for _ in range(3))
        assert a.evaluate(x, y, z) == (x + y) * (y + z) * (z + x)


def test_text_round_trip(g16):
    rng = random.Random(9)
    for _ in range(20):
        p = _rand_tri(rng, g16, 6, 4)
        assert parse_tri(p.to_text(), g16) == p


def test_embed(g2, g8):
    from apnforge import find_embedding

    emb = find_embedding(g2, g8)
    lifted = plane_product(g2).embed(emb)
    assert lifted.ctx is g8
    assert lifted.terms == plane_product(g8).terms


def test_exact_divide_round_trip_small_fields(g2, g4):
    rng = random.Random(10)
    hits = 0
    for ctx in (g2, g4):
        for _ in range(250):
            q = _rand_tri(rng, ctx, 5, 5)
            d = _rand_tri(rng, ctx, 4, 4)
            if not q or not d:
                continue
            got, exact = exact_divide(q * d, d)
            assert exact
            assert got == q
            hits += 1
    assert hits > 400


def test_homog_decompose_random_suite(g2, g4, g16):
    rng = random.Random(11)
    for ctx in (g2, g4, g16):
        for _ in range(170):
            p = _rand_tri(rng, ctx, 10, 7)
            dec = homog_decompose(p)
            assert dec.re_sum(ctx) == p
            for d, part in dec.parts:
                assert part
                assert {i + j + k for i, j, k in part.terms} == {d}


def test_plane_product_vanishes_on_planes(g16):
    rng = random.Random(12)
    a = plane_product(g16)
    assert a.evaluate(g16.one, g16.zero, g16.zero) == g16.zero
    for _ in range(20):
        u, v = (g16.element(rng.randrange(16)) for _ in range(2))
        assert a.evaluate(u, u, v) == g16.zero  # x = y plane
        assert a.evaluate(u, v, u) == g16.zero
        assert a.evaluate(v, u, u) == g16.zero


def test_symmetric_quadratic_vanishes_on_diagonal(g16):
    m = symmetric_quadratic(g16)
    assert m.evaluate(g16.one, g16.one, g16.one) == g16.zero
    for bits in range(16):
        t = g16.element(bits)
        assert m.evaluate(t, t, t) == g16.zero


def test_exact_divide_examples(g2):
    a = plane_product(g2)
    m = symmetric_quadratic(g2)
    got, exact = exact_divide(a * m, a)
    assert exact and got == m

    _, exact = exact_divide(a + TriPoly.one(g2), a)
    assert not exact

    cubes = TriPoly(g2, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    s = TriPoly(g2, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    got, exact = exact_divide(cubes + s * s * s, a)
    assert exact and got == TriPoly.one(g2)


def test_substitute_linear_square_and_constant(g2):
    sq = substitute_linear(UniPoly.monomial(g2, 2), "x+y+z")
    assert sq.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    const = substitute_linear(UniPoly.one(g2), "x+y+z")
    assert const == TriPoly.one(g2)


def test_foreign_context_felt_rejected(g4, g8):
    # a Felt of another field is refused even when its bits fit in ctx
    alien = g8.element(3)
    with pytest.raises(ContextMismatch):
        UniPoly(g4, [alien])
    with pytest.raises(ContextMismatch):
        UniPoly.from_pairs(g4, {2: alien})
    with pytest.raises(ContextMismatch):
        TriPoly(g4, {(1, 0, 0): alien})
    # a Felt of the polynomial's own field is accepted
    own = g4.element(3)
    assert UniPoly(g4, [own]) == UniPoly(g4, [3])
    assert UniPoly.from_pairs(g4, {2: own}) == UniPoly.from_pairs(g4, {2: 3})
    assert TriPoly(g4, {(1, 0, 0): own}) == TriPoly(g4, {(1, 0, 0): 3})


def test_negative_tripoly_power(g2):
    with pytest.raises(NotPositive) as exc:
        plane_product(g2) ** -1
    assert isinstance(exc.value, ValueError)


def test_unknown_substitution(g2):
    with pytest.raises(UnknownSubstitution) as exc:
        substitute_linear(UniPoly(g2, [0, 1]), "x+y")
    assert isinstance(exc.value, ValueError)
