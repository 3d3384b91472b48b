"""Differential spectra, APN detection, exponent classification and the
brute-force surface check."""

import math
import random
from collections import Counter

import pytest

from apnforge import (
    GOLD,
    KASAMI,
    NOT_EXCEPTIONAL,
    UniPoly,
    classify_exponent,
    compose,
    eval_table,
    find_embedding,
    is_apn,
    is_apn_over_extension,
    make_field,
    parse_poly,
    spectrum,
    surface_point_check,
)
from apnforge.apn import _directions
from apnforge.errors import FieldTooLarge
from conftest import random_poly, random_q_affine


def naive_spectrum(f, field):
    """O(q^2) reference: count solutions of f(x+a)+f(x)=b per (a, b)."""
    if f.ctx != field:
        f = f.embed(find_embedding(f.ctx, field))
    table = [f.eval(x) for x in field.elements()]
    counts = Counter()
    q = field.order
    for abits in range(1, q):
        per_b = Counter()
        for xbits in range(q):
            per_b[(table[xbits ^ abits] + table[xbits]).bits] += 1
        row = Counter(per_b.values())
        row[0] += q - len(per_b)
        counts.update(row)
    return dict(counts)


def test_spectrum_x3_gf16(g16):
    sp = spectrum(parse_poly("x^3", g16), g16)
    assert sp.histogram == {0: 120, 2: 120}
    assert sp.uniformity == 2


def test_spectrum_x5_matches_naive(g16):
    f = parse_poly("x^5", g16)
    sp = spectrum(f, g16)
    assert sp.histogram == naive_spectrum(f, g16)
    assert sp.histogram == {0: 180, 4: 60}
    assert sp.uniformity == 4


def test_spectrum_random_matches_naive(g8):
    rng = random.Random(12)
    for _ in range(5):
        f = random_poly(rng, g8, 7)
        assert spectrum(f, g8).histogram == naive_spectrum(f, g8)


def test_linear_map_uniformity():
    # x^2+x has kernel {0,1}: every derivative is 2-to-... q-to-one onto one value
    for m in (3, 4, 5):
        ctx = make_field(m)
        sp = spectrum(parse_poly("x^2 + x", ctx), ctx)
        assert sp.uniformity == ctx.order


def test_spectrum_mass_and_parity(g16):
    rng = random.Random(13)
    q = 16
    for _ in range(10):
        f = random_poly(rng, g16, 12)
        sp = spectrum(f, g16)
        assert all(c % 2 == 0 for c in sp.histogram)
        assert sum(c * mult for c, mult in sp.histogram.items()) == q * (q - 1)
        assert sum(sp.histogram.values()) == q * (q - 1)


def test_gold_gcd_table():
    for m in range(2, 11):
        ctx = make_field(m)
        for k in (1, 2, 3):
            f = UniPoly.monomial(ctx, (1 << k) + 1)
            assert is_apn(f, ctx) == (math.gcd(k, m) == 1)


def test_gold_uniformity_is_gcd_power(g16):
    # x^5 = x^(2^2+1) over GF(2^4): uniformity 2^gcd(2,4)
    assert spectrum(parse_poly("x^5", g16), g16).uniformity == 4


def test_q_affine_invariance(g8, g16):
    rng = random.Random(14)
    for ctx in (g8, g16):
        for _ in range(100):
            f = random_poly(rng, ctx, 12, min_deg=1)
            g = random_q_affine(rng, ctx)
            assert spectrum(f + g, ctx).histogram == spectrum(f, ctx).histogram


def test_frobenius_precomposition_invariance(g16):
    rng = random.Random(15)
    sq = parse_poly("x^2", g16)
    for _ in range(5):
        f = random_poly(rng, g16, 7)
        assert spectrum(compose(f, sq), g16).histogram == spectrum(f, g16).histogram


def test_spectrum_worker_determinism(g16):
    f = parse_poly("x^6 + 0x3*x^5 + x^3", g16)
    base = spectrum(f, g16, workers=1).histogram
    for w in (2, 3, 8):
        assert spectrum(f, g16, workers=w).histogram == base


def _subfield_elements(ctx, s):
    return [c for c in range(ctx.order) if ctx.frob(c, s) == c]


def _symmetry_cases(g2, g4, g16):
    """(name, f, field) covering every direction choice of _directions."""
    g64, g256 = make_field(6), make_field(8)
    f4 = _subfield_elements(g16, 2)
    assert len(f4) == 4
    w = max(f4)  # a generator of F_4 inside GF(16)
    return [
        ("c*x^d, c != 1", UniPoly.monomial(g256, 7, 0x53), g256),
        ("c*x^d, c != 1, d even", UniPoly.monomial(g256, 12, 0xCA), g256),
        ("gf2 coeffs over 2^6", parse_poly("x^12 + x^6 + x^3 + x", g2), g64),
        ("gf2 coeffs over 2^8", parse_poly("x^9 + x^5 + x^3 + 1", g2), g256),
        ("gf4 coeffs over 2^6", parse_poly("0x2*x^6 + x^5 + 0x3*x^3", g4), g64),
        ("F_4 coeffs in gf16", UniPoly.from_pairs(g16, {7: w, 5: 1, 3: w ^ 1, 0: w}), g16),
        ("dense", UniPoly.from_pairs(g64, {9: 0x2B, 6: 0x11, 5: 1, 3: 0x3E}), g64),
        ("zero", UniPoly.zero(g16), g16),
        ("constant", UniPoly.from_pairs(g256, {0: 0x9D}), g256),
    ]


def test_symmetry_directions_match_naive(g2, g4, g16):
    for name, f, field in _symmetry_cases(g2, g4, g16):
        expected = naive_spectrum(f, field)
        for workers in (1, 2, 3):
            sp = spectrum(f, field, workers=workers)
            assert sp.histogram == expected, (name, workers)
            assert is_apn(f, field, workers=workers) == (sp.uniformity == 2), (name, workers)


def test_directions_use_the_symmetry(g2, g16):
    def pick(f, field):
        coeffs = f.coeffs if f.ctx == field else f.embed(find_embedding(f.ctx, field)).coeffs
        directions, weights = _directions(coeffs, field)
        assert int(weights.sum()) == field.order - 1
        assert len(set(directions.tolist())) == len(directions)
        return directions.tolist()

    g256 = make_field(8)
    assert pick(UniPoly.monomial(g256, 7, 0x53), g256) == [1]
    # GF(2) coefficients: one direction per orbit of squaring
    assert len(pick(parse_poly("x^12 + x^6 + x^3", g2), make_field(14))) == 1181
    # F_4 coefficients in GF(16): 3 fixed points of a -> a^4, 6 orbits of two
    w = max(_subfield_elements(g16, 2))
    assert len(pick(UniPoly.from_pairs(g16, {7: w, 5: 1}), g16)) == 9
    # a coefficient outside every proper subfield: all q-1 directions
    assert pick(UniPoly.from_pairs(g16, {5: 0x2, 3: 1}), g16) == list(range(1, 16))


def test_is_apn_early_exit_agrees_with_uniformity(g2):
    rng = random.Random(17)
    g64 = make_field(6)
    verdicts = set()
    for i in range(60):
        f = random_poly(rng, g64 if i % 2 else g2, 12)
        verdict = is_apn(f, g64)
        assert verdict == (spectrum(f, g64).uniformity == 2)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_spectrum_field_cap(g2):
    with pytest.raises(FieldTooLarge):
        spectrum(parse_poly("x^3", g2), make_field(15))


def test_is_apn_over_extension(g2):
    f = parse_poly("x^3", g2)
    assert all(is_apn_over_extension(f, n) for n in range(2, 11))
    with pytest.raises(FieldTooLarge):
        is_apn_over_extension(f, 15)


def test_classify_exponent_table():
    golds = {3: 1, 5: 2, 9: 3, 17: 4}
    kasamis = {13: 2, 57: 3}
    for t, k in golds.items():
        cls = classify_exponent(t)
        assert (cls.kind, cls.k) == (GOLD, k)
    for t, k in kasamis.items():
        cls = classify_exponent(t)
        assert (cls.kind, cls.k) == (KASAMI, k)
    for t in (1, 2, 7, 11, 12, 15):
        assert classify_exponent(t).kind == NOT_EXCEPTIONAL


def test_surface_check_consistency(g8, g16):
    rng = random.Random(16)
    for ctx in (g8, g16):
        for _ in range(10):
            f = random_poly(rng, ctx, 10)
            consistent, witness = surface_point_check(f, ctx)
            assert consistent
            if witness is not None:
                x, y, z = witness
                assert len({x, y, z}) == 3  # off the three planes
                w = x + y + z
                assert f.eval(x) + f.eval(y) + f.eval(z) + f.eval(w) == ctx.zero


def brute_force_witness(f, field):
    """Lex-least (x, y, z), pairwise distinct, with f(x)+f(y)+f(z)+f(x+y+z)
    = 0, by scanning every ordered triple; None when there is none."""
    vals = [f.eval(x).bits for x in field.elements()]
    q = field.order
    for x in range(q):
        for y in range(q):
            for z in range(q):
                if len({x, y, z}) == 3 and not vals[x] ^ vals[y] ^ vals[z] ^ vals[x ^ y ^ z]:
                    return (x, y, z)
    return None


def test_surface_witness_is_lex_min():
    rng = random.Random(27)
    cases = []
    for m in (2, 3, 4):
        field = make_field(m)
        cases.append((parse_poly("x^3", field), field))  # APN: no witness
        cases.append((parse_poly("x^5 + x^3", field), field))
        cases += [(random_poly(rng, field, 12), field) for _ in range(4)]
    found = 0
    for f, field in cases:
        consistent, witness = surface_point_check(f, field)
        assert consistent
        expected = brute_force_witness(f, field)
        got = None if witness is None else tuple(w.bits for w in witness)
        assert got == expected, (f.to_text(), field.spec())
        found += expected is not None
    assert 0 < found < len(cases)


def test_surface_check_cap(g2):
    with pytest.raises(FieldTooLarge):
        surface_point_check(parse_poly("x^3", g2), make_field(9))


def test_eval_table_dtype(g16):
    table = eval_table(parse_poly("x^3", g16), g16)
    assert len(table) == 16
    assert int(table[0]) == 0


def test_surface_verdict_agrees_with_spectrum(g2):
    rng = random.Random(16)
    fields = [make_field(n) for n in range(3, 7)]
    for _ in range(50):
        f = random_poly(rng, g2, 12)
        for big in fields:
            consistent, _ = surface_point_check(f, big)
            assert consistent
