"""Field construction, arithmetic, Frobenius, trace and embeddings."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apnforge import (
    ContextMismatch,
    Felt,
    ReducibleModulus,
    ValidationError,
    find_embedding,
    frobenius,
    lowest_irreducible,
    make_field,
    parse_field_spec,
    rel_trace,
    trace_zero_elements,
)
from apnforge.errors import DegreeMismatch, DegreeOutOfRange, DivisionByZero
from apnforge.fields import linear_kernel, span


def test_default_moduli():
    assert [lowest_irreducible(m) for m in (1, 2, 3, 4, 6)] == [
        0x2, 0x7, 0xB, 0x13, 0x43,
    ]


def test_reducible_modulus_rejected():
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2
    with pytest.raises(ReducibleModulus):
        make_field(4, 0x15)


def test_field_degree_cap():
    with pytest.raises(DegreeOutOfRange):
        make_field(25)


def test_spec_string(g8):
    assert g8.spec() == "gf(2^3)/0xb"
    assert parse_field_spec("gf(2^3)") is g8
    assert parse_field_spec("gf(2^3)/0xb") is g8


def test_parse_field_spec_rejects_garbage():
    for bad in ("gf(2^0)", "gf(3^2)", "gf2^4", "gf(2^4)/xyz", ""):
        with pytest.raises(ValidationError):
            parse_field_spec(bad)


def test_basic_arithmetic(g8):
    a = g8.element(0x2)
    assert (a + a).bits == 0
    assert (a * a).bits == 0x4
    assert (a ** 3).bits == 0x3  # t^3 = t + 1 mod t^3+t+1
    assert (a / a).bits == 1
    assert a.inverse() * a == g8.one


def test_division_by_zero(g8):
    with pytest.raises(DivisionByZero):
        g8.one / g8.zero
    with pytest.raises(ZeroDivisionError):
        g8.zero.inverse()


def test_context_mismatch(g8, g16):
    with pytest.raises(ContextMismatch):
        g8.element(1) + g16.element(1)


def test_element_order(g16):
    one = g16.one
    for bits in range(1, 16):
        a = g16.element(bits)
        assert a ** 15 == one


@given(bits=st.integers(min_value=0, max_value=15), i=st.integers(min_value=0, max_value=8))
def test_frobenius_is_field_automorphism(bits, i):
    ctx = make_field(4)
    a = ctx.element(bits)
    b = ctx.element((bits * 7 + 3) % 16)
    assert frobenius(a + b, i) == frobenius(a, i) + frobenius(b, i)
    assert frobenius(a * b, i) == frobenius(a, i) * frobenius(b, i)
    assert frobenius(a, 4) == a  # x^(2^m) = x


def test_trace_zero_set(g8):
    assert {e.bits for e in trace_zero_elements(g8, 1)} == {0, 0x2, 0x4, 0x6}


def test_trace_values(g8):
    alpha = g8.element(0x2)
    assert rel_trace(alpha, 1).bits == 0
    assert rel_trace(alpha + g8.one, 1).bits == 1


def test_trace_zero_kernel_size():
    for m, k in ((3, 1), (6, 2), (9, 3)):
        ctx = make_field(m)
        assert len(trace_zero_elements(ctx, k)) == 1 << (2 * k)


def test_trace_zero_matches_enumeration():
    for k in (1, 2, 3):
        ctx = make_field(3 * k)
        brute = {b for b in range(ctx.order) if rel_trace(ctx.element(b), k).bits == 0}
        assert {e.bits for e in trace_zero_elements(ctx, k)} == brute


def test_linear_kernel_matches_enumeration():
    rng = random.Random(41)
    ctx = make_field(8)
    dims = set()
    for r in range(9):
        # images of the basis vectors 2^i drawn from a span of r random
        # vectors, so the kernel has dimension at least 8 - r
        space = list(span([rng.getrandbits(8) for _ in range(r)]))
        images = [rng.choice(space) for _ in range(8)]

        def fn(x):
            out = 0
            for i in range(8):
                if x >> i & 1:
                    out ^= images[i]
            return out

        kernel = list(span(linear_kernel(ctx, fn)))
        assert kernel == [x for x in range(ctx.order) if fn(x) == 0]
        dims.add(len(kernel).bit_length() - 1)
    assert len(dims) > 4


def _brute_generator_image(source, target):
    """Lowest element of target that is a root of the source modulus."""
    mod = source.modulus
    for cand in range(target.order):
        acc = 0
        for i in range(mod.bit_length()):
            if mod >> i & 1:
                acc ^= target.pow(cand, i)
        if acc == 0:
            return cand
    raise AssertionError("no root")


def test_embedding_matches_enumeration():
    for n in range(1, 13):
        for k in range(1, n + 1):
            if n % k == 0:
                emb = find_embedding(make_field(k), make_field(n))
                assert emb.generator_image.bits == _brute_generator_image(
                    make_field(k), make_field(n)
                ), (k, n)


def test_embedding_is_memoised(g4, g16):
    assert find_embedding(g4, g16) is find_embedding(g4, g16)
    assert find_embedding(g4, g16) is not find_embedding(g4, make_field(4, 0x19))


def test_rel_trace_lands_in_subfield(g64):
    # fixed points of the q-power Frobenius
    for bits in range(64):
        t = rel_trace(g64.element(bits), 2)
        assert frobenius(t, 2) == t


def test_embedding_is_homomorphism(g4, g16):
    emb = find_embedding(g4, g16)
    for abits in range(4):
        for bbits in range(4):
            a, b = g4.element(abits), g4.element(bbits)
            assert emb.apply(a + b) == emb.apply(a) + emb.apply(b)
            assert emb.apply(a * b) == emb.apply(a) * emb.apply(b)
    assert emb.apply(g4.one) == g16.one


def test_embedding_round_trip(g8, g64):
    emb = find_embedding(g8, g64)
    for bits in range(8):
        a = g8.element(bits)
        assert emb.pull_back(emb.apply(a)) == a


def test_pull_back_outside_subfield(g4, g16):
    from apnforge import UnknownCoefficient

    emb = find_embedding(g4, g16)
    image = {emb.apply(g4.element(b)) for b in range(4)}
    outside = next(e for e in g16.elements() if e not in image)
    with pytest.raises(UnknownCoefficient):
        emb.pull_back(outside)


def test_embedding_needs_divisible_degree(g8, g16):
    with pytest.raises(DegreeMismatch):
        find_embedding(g8, g16)


def test_field_cache():
    assert make_field(5) is make_field(5)
    assert make_field(5) is not make_field(5, 0x3B)  # alternate modulus


def test_felt_hex_round_trip(g16):
    a = g16.element(0xB)
    assert a.hex() == "0xb"
    assert g16.from_hex("0xb") == a


def test_exp_log_tables_match_raw():
    ctx = make_field(8)
    assert ctx.has_tables
    raw = make_field(8).modulus
    for a in (0x03, 0x53, 0xCA):
        for b in (0x01, 0x8F, 0xF0):
            assert ctx.mul(a, b) == ctx._mul_raw(a, b)


def test_vec_mul_matches_scalar_mul_all_pairs():
    # zeros included: the zero-log sentinel must land in the zero tail
    for m in range(1, 9):
        ctx = make_field(m)
        a, b = (arr.ravel() for arr in np.meshgrid(np.arange(ctx.order), np.arange(ctx.order)))
        got = ctx.vec_mul(a, b).tolist()
        assert got == [ctx.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]


def test_large_field_skips_tables():
    ctx = make_field(18)
    assert not ctx.has_tables
    a = ctx.element(0x2)
    assert (a ** (ctx.order - 1)).bits == 1


def test_multiplicative_order_exhaustive_small_fields():
    for m in (2, 3, 5, 8):
        ctx = make_field(m)
        one = ctx.one
        for bits in range(1, ctx.order):
            assert ctx.element(bits) ** (ctx.order - 1) == one


def test_multiplicative_order_sampled_larger_fields():
    rng = random.Random(31)
    for m in (9, 10):
        ctx = make_field(m)
        for _ in range(200):
            a = ctx.element(rng.randrange(1, ctx.order))
            assert a ** (ctx.order - 1) == ctx.one


def test_frobenius_respects_sums_and_products():
    # ~1000 random pairs spread over several fields
    rng = random.Random(32)
    for m in (3, 4, 6, 8):
        ctx = make_field(m)
        for _ in range(250):
            a = ctx.element(rng.randrange(ctx.order))
            b = ctx.element(rng.randrange(ctx.order))
            i = rng.randrange(1, 2 * m)
            assert frobenius(a + b, i) == frobenius(a, i) + frobenius(b, i)
            assert frobenius(a * b, i) == frobenius(a, i) * frobenius(b, i)


def test_rel_trace_subfield_linear():
    rng = random.Random(33)
    for m, k in ((3, 1), (6, 2), (9, 3)):
        big = make_field(m)
        sub = make_field(k)
        emb = find_embedding(sub, big)
        scalars = [emb.apply(sub.element(b)) for b in range(sub.order)]
        for _ in range(120):
            a = big.element(rng.randrange(big.order))
            b = big.element(rng.randrange(big.order))
            s = rng.choice(scalars)
            assert rel_trace(s * a + b, k) == s * rel_trace(a, k) + rel_trace(b, k)


def test_rel_trace_onto_embedded_subfield():
    for m, k in ((3, 1), (6, 2), (9, 3)):
        big = make_field(m)
        sub = make_field(k)
        emb = find_embedding(sub, big)
        image = {rel_trace(big.element(b), k) for b in range(big.order)}
        assert image == {emb.apply(sub.element(v)) for v in range(sub.order)}


def test_embedding_homomorphism_exhaustive_8_to_64():
    g8, g64 = make_field(3), make_field(6)
    emb = find_embedding(g8, g64)
    img = [emb.apply(g8.element(b)) for b in range(8)]
    assert len(set(img)) == 8
    for i in range(8):
        for j in range(8):
            a, b = g8.element(i), g8.element(j)
            assert emb.apply(a + b) == img[i] + img[j]
            assert emb.apply(a * b) == img[i] * img[j]
