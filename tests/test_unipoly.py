"""Univariate polynomials: parsing, evaluation, q-affine split, composition,
linearized quartics."""

import random

import pytest
from hypothesis import given, strategies as st

from apnforge import (
    ContextMismatch,
    PolySyntaxError,
    TraceNotZero,
    UniPoly,
    UnknownCoefficient,
    compose,
    eval_table,
    find_embedding,
    is_bijective_on,
    linearized_quartic,
    make_field,
    parse_poly,
    split_q_affine,
    trace_zero_elements,
)
from apnforge.errors import DegreeOutOfRange, FieldTooLarge, NotPositive
from conftest import random_poly


def test_parse_basics(g2):
    f = parse_poly("x^12 + x^6 + x^3", g2)
    assert f.degree == 12
    assert f.support() == (3, 6, 12)
    assert parse_poly("x^3 + x^3", g2) == UniPoly.zero(g2)
    assert parse_poly("0", g2) == UniPoly.zero(g2)


def test_parse_coefficients(g16):
    f = parse_poly("0xb*x^2 + x + 0x3", g16)
    assert f.coefficient(2).bits == 0xB
    assert f.coefficient(1).bits == 1
    assert f.coefficient(0).bits == 0x3


def test_parse_syntax_error_carries_position(g2):
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x^^3", g2)
    assert exc.value.position == 2


def test_parse_rejects_foreign_coefficient(g4):
    with pytest.raises(UnknownCoefficient):
        parse_poly("0x5*x", g4)


def test_parse_rejects_wrong_variable(g2):
    with pytest.raises(PolySyntaxError):
        parse_poly("y^3", g2)


@given(data=st.data())
def test_text_round_trip(data):
    ctx = make_field(4)
    pairs = data.draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=15),
            max_size=8,
        )
    )
    f = UniPoly.from_pairs(ctx, pairs)
    assert parse_poly(f.to_text(), ctx) == f


def test_eval(g8):
    L = parse_poly("x^4 + x^2 + x", g8)
    alpha = g8.element(0x2)
    assert L.eval(alpha).bits == 0
    assert L.eval(g8.one).bits == 1  # 1 + 1 + 1


def test_eval_with_embedding(g2, g8):
    f = parse_poly("x^3 + x + 0x1", g2)
    emb = find_embedding(g2, g8)
    a = g8.element(0x5)
    assert f.eval(a, embedding=emb) == a ** 3 + a + g8.one


def test_addition_cancels(g16):
    f = parse_poly("x^5 + 0x7*x^2", g16)
    assert f + f == UniPoly.zero(g16)
    assert not (f + f)


def test_degree_of_zero(g2):
    assert UniPoly.zero(g2).degree == float("-inf")


def test_split_q_affine(g2):
    f = parse_poly("x^12 + x^9 + x^8 + x^4 + x + 0x1", g2)
    s = split_q_affine(f)
    assert s.core.support() == (9, 12)
    assert s.affine.support() == (0, 1, 4, 8)
    assert s.affine.is_q_affine()
    assert s.core + s.affine == f


def test_is_q_affine(g2):
    assert parse_poly("x^8 + x^2 + 0x1", g2).is_q_affine()
    assert not parse_poly("x^8 + x^3", g2).is_q_affine()
    assert UniPoly.zero(g2).is_q_affine()


def test_linearized_quartic_example(g2, g8):
    alpha = g8.element(0x2)
    L = linearized_quartic(alpha, g2)
    assert L.to_text() == "x^4 + x^2 + x"
    # roots are 0 and the Frobenius orbit of alpha
    emb = find_embedding(g2, g8)
    for root_bits in (0, 0x2, 0x4, 0x6):
        assert L.eval(g8.element(root_bits), embedding=emb).bits == 0


def test_linearized_quartic_rejects_nonzero_trace(g2, g8):
    with pytest.raises(TraceNotZero):
        linearized_quartic(g8.one, g2)


def test_linearized_quartic_at_zero(g2, g8):
    assert linearized_quartic(g8.zero, g2).to_text() == "x^4"


def test_bijectivity(g4, g8):
    L = parse_poly("x^4 + x^2 + x", g4)
    assert is_bijective_on(L, g4)
    L8 = parse_poly("x^4 + x^2 + x", g8)
    assert not is_bijective_on(L8, g8)  # 4 roots in GF(8)


def test_bijectivity_iff_degree_not_multiple_of_three(g2):
    # kernel of x^4+x^2+x is {0} + orbit(alpha) inside GF(8)
    L = parse_poly("x^4 + x^2 + x", g2)
    for n in range(1, 7):
        ext = make_field(n)
        assert is_bijective_on(L, ext) == (n % 3 != 0)


def test_bijectivity_cap(g2):
    with pytest.raises(FieldTooLarge):
        is_bijective_on(parse_poly("x^3", g2), make_field(21))


def test_compose_examples(g2, g8):
    cube = UniPoly.monomial(g2, 3)
    L = parse_poly("x^4 + x^2 + x", g2)
    assert compose(cube, L).to_text() == "x^12 + x^10 + x^9 + x^8 + x^5 + x^4 + x^3"
    assert compose(L, cube).to_text() == "x^12 + x^6 + x^3"


def test_compose_matches_pointwise_eval():
    ctx = make_field(7)
    rng = random.Random(11)
    for _ in range(10):
        f = UniPoly.from_pairs(ctx, {rng.randrange(6): rng.randrange(1, 128) for _ in range(3)})
        g = UniPoly.from_pairs(ctx, {rng.randrange(1, 6): rng.randrange(1, 128) for _ in range(3)})
        h = compose(f, g)
        for bits in (0, 1, 0x2B, 0x7F):
            x = ctx.element(bits)
            assert h.eval(x) == f.eval(g.eval(x))


def test_compose_degree_cap(g2):
    with pytest.raises(DegreeOutOfRange):
        compose(UniPoly.monomial(g2, 9), UniPoly.monomial(g2, 9))


def test_eval_table_matches_eval(g16):
    f = parse_poly("0x9*x^5 + x^2 + 0x3", g16)
    table = eval_table(f, g16)
    for bits in range(16):
        assert table[bits] == f.eval(g16.element(bits)).bits


def test_eval_table_auto_embeds(g2, g8):
    f = parse_poly("x^3 + x", g2)
    table = eval_table(f, g8)
    for bits in range(8):
        a = g8.element(bits)
        assert table[bits] == (a ** 3 + a).bits


def test_context_mismatch_on_add(g2, g4):
    with pytest.raises(ContextMismatch):
        parse_poly("x", g2) + parse_poly("x", g4)


def test_negative_unipoly_power(g2):
    with pytest.raises(NotPositive) as exc:
        parse_poly("x + 1", g2) ** -1
    assert isinstance(exc.value, ValueError)


def test_split_resum_random_suite(g2, g4):
    rng = random.Random(41)
    for ctx in (g2, g4):
        for _ in range(500):
            f = random_poly(rng, ctx, 16)
            s = split_q_affine(f)
            assert s.core + s.affine == f
            assert s.affine.is_q_affine()
            for e in s.core.support():
                # nothing q-affine may survive in the core
                assert e >= 3 and e & (e - 1)


def test_linearized_quartic_exact_root_sets():
    for base_m in (1, 2):
        base = make_field(base_m)
        big = make_field(3 * base_m)
        emb = find_embedding(base, big)
        for c in sorted(trace_zero_elements(big, base_m)):
            L = linearized_quartic(c, base)
            roots = {
                x
                for bits in range(big.order)
                if not L.eval(x := big.element(bits), embedding=emb)
            }
            if c.bits:
                q = base.order
                assert roots == {big.zero, c, c ** q, c ** (q * q)}
            else:
                assert roots == {big.zero}


def test_bijective_iff_extension_avoids_parameter_q4():
    g4 = make_field(2)
    big = make_field(6)
    c = next(c for c in sorted(trace_zero_elements(big, 2)) if c.bits)
    L = linearized_quartic(c, g4)
    # the kernel lives in the cubic extension, so bijectivity fails iff 3 | n
    for n in range(1, 7):
        assert is_bijective_on(L, make_field(2 * n)) == (n % 3 != 0)


def test_compose_with_two_power_monomial_is_frobenius(g4, g8):
    rng = random.Random(42)
    for ctx in (g4, g8):
        for _ in range(40):
            p = random_poly(rng, ctx, 8)
            for i in (1, 2, 3):
                got = compose(UniPoly.monomial(ctx, 2 ** i), p)
                want = UniPoly.from_pairs(
                    ctx,
                    {e * 2 ** i: ctx.frob(p.coeffs[e], i) for e in p.support()},
                )
                assert got == want
