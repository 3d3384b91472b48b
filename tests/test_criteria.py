"""Exceptionality verdicts, the cubic divisor search, and the degree-12
family classifier/generator."""

import os
import random
import subprocess
import sys

import pytest

import apnforge
from apnforge import (
    CONSTRAINED,
    CUBE_OF_L,
    DEGREE_12,
    FULL,
    GOLD_SMALL_TAIL,
    L_OF_CUBE,
    NONE,
    NOT_IN_FAMILY,
    ODD_NOT_EXCEPTIONAL,
    QUADRUPLE_ODD,
    TWICE_ODD_TERM,
    TraceNotZero,
    TriPoly,
    UniPoly,
    applicable_theorem,
    build_phi,
    classify_exponent,
    compose,
    cubic_divisor_search,
    deg12_classify,
    divisor_divides,
    exceptionality_report,
    family_generate,
    family_phi_closed,
    family_phi_product,
    find_embedding,
    frobenius,
    is_apn_over_extension,
    is_bijective_on,
    make_field,
    parse_poly,
    plane_product,
    rel_trace,
    split_q_affine,
    trace_zero_elements,
)
from apnforge.criteria import (
    Deg12Witness,
    DivisorParams,
    _build_witness,
    _orbit_sym,
    witness_json,
)
from apnforge.errors import (
    ContextMismatch,
    DegreeNot12,
    DegreeOutOfRange,
    DegreeShapeMismatch,
    DegreeTooSmall,
    NotQAffine,
    SearchSpaceTooLarge,
    UnknownFamilyKind,
    UnknownSearchMode,
    ValidationError,
)
from conftest import random_poly, random_q_affine


# verdict dispatch -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x^7 + x", ODD_NOT_EXCEPTIONAL),
        ("x^11", ODD_NOT_EXCEPTIONAL),
        ("x^6 + x^3", TWICE_ODD_TERM),
        ("x^14 + x^7", TWICE_ODD_TERM),
        ("x^6 + x^4", NONE),
        ("x^5 + x^3", GOLD_SMALL_TAIL),
        ("x^9", GOLD_SMALL_TAIL),
        ("x^5 + x^4 + x^3", NONE),
        ("x^13 + x", NONE),
        ("x^28 + x^5", QUADRUPLE_ODD),
        ("x^20 + x^3", NONE),
        ("x^12 + x^5", DEGREE_12),
        ("x^16 + x^8", NONE),
    ],
)
def test_applicable_theorem(g2, text, expected):
    assert applicable_theorem(parse_poly(text, g2)).applicable == expected


def test_verdict_details(g2):
    v = applicable_theorem(parse_poly("x^5 + x^3", g2))
    assert v.detail["exponent_k"] == 2
    assert v.detail["tail_terms"] == [3]
    v = applicable_theorem(parse_poly("x^28 + x^5", g2))
    assert (v.detail["odd_part"], v.detail["two_power"]) == (7, 2)


def test_verdict_rejects_tiny(g2):
    with pytest.raises(DegreeTooSmall):
        applicable_theorem(parse_poly("x^2 + x", g2))
    with pytest.raises(DegreeTooSmall):
        applicable_theorem(UniPoly.zero(g2))


# divisor search -------------------------------------------------------------


def test_search_finds_galois_orbit(g2):
    res = cubic_divisor_search(parse_poly("x^12 + x^6 + x^3", g2))
    assert res.mode == FULL
    assert [p.as_bits() for p in res.divisors] == [
        (0, 0, 0, 0x2), (0, 0, 0, 0x4), (0, 0, 0, 0x6),
    ]


def test_search_empty(g2):
    assert cubic_divisor_search(parse_poly("x^12 + x^5", g2)).divisors == ()


def test_search_x12(g2):
    res = cubic_divisor_search(parse_poly("x^12", g2))
    hits = [p.as_bits() for p in res.divisors]
    assert (0, 0, 0, 0) in hits
    assert hits == [(0, 0, 0, 0)]


def test_search_soundness(g2, g8):
    f = parse_poly("x^12 + x^6 + x^3", g2)
    phi = build_phi(f).poly
    emb = find_embedding(g2, g8)
    for params in cubic_divisor_search(f).divisors:
        assert divisor_divides(params, phi, emb)


def test_divisor_divides_examples(g2, g8):
    emb = find_embedding(g2, g8)
    zero, one, alpha = g8.zero, g8.one, g8.element(0x2)
    a3 = build_phi(parse_poly("x^12", g2)).poly
    assert divisor_divides(DivisorParams(zero, zero, zero, zero), a3, emb)
    assert not divisor_divides(DivisorParams(one, zero, zero, zero), a3, emb)
    fam_phi = build_phi(parse_poly("x^12 + x^6 + x^3", g2)).poly
    assert divisor_divides(DivisorParams(zero, zero, zero, alpha), fam_phi, emb)


def test_constrained_mode_agrees_at_q2(g2):
    f = parse_poly("x^12 + x^6 + x^3", g2)
    full = cubic_divisor_search(f, mode=FULL)
    constrained = cubic_divisor_search(f, mode=CONSTRAINED)
    assert constrained.mode == CONSTRAINED
    assert [p.as_bits() for p in constrained.divisors] == [
        p.as_bits() for p in full.divisors
    ]


def test_search_worker_determinism(g2):
    f = parse_poly("x^12 + x^6 + x^3", g2)
    seq = [p.as_bits() for p in cubic_divisor_search(f).divisors]
    assert [p.as_bits() for p in cubic_divisor_search(f, workers=4).divisors] == seq


def test_search_shape_and_size_errors(g2, g16):
    with pytest.raises(DegreeShapeMismatch):
        cubic_divisor_search(parse_poly("x^8", g2))
    with pytest.raises(DegreeShapeMismatch):
        cubic_divisor_search(parse_poly("x^20 + x^3", g2))  # e = 5
    with pytest.raises(SearchSpaceTooLarge):
        cubic_divisor_search(parse_poly("x^12 + x^6", g16), mode=FULL)
    with pytest.raises(SearchSpaceTooLarge):
        cubic_divisor_search(parse_poly("x^12 + x^6", make_field(4)))


def test_constrained_search_q4(g64):
    param = next(c for c in sorted(trace_zero_elements(g64, 2)) if c.bits)
    f = family_generate(L_OF_CUBE, param)
    res = cubic_divisor_search(f)
    assert res.mode == CONSTRAINED
    param_orbit = {frobenius(param, 2 * i).bits for i in range(3)}
    assert {p.as_bits()[3] for p in res.divisors} >= param_orbit


# degree-12 family -----------------------------------------------------------


def test_classify_trinomial(g2):
    w = deg12_classify(parse_poly("x^12 + x^6 + x^3", g2))
    assert w.kind == L_OF_CUBE
    assert w.param.bits == 0x2
    assert {p.bits for p in w.orbit} == {0x2, 0x4, 0x6}
    assert not w.L1
    assert w.L.to_text() == "x^4 + x^2 + x"


def test_classify_cube_of_quartic(g2, g8):
    alpha = g8.element(0x2)
    L = parse_poly("x^4 + x^2 + x", g2)
    w = deg12_classify(compose(UniPoly.monomial(g2, 3), L))
    assert w.kind == CUBE_OF_L
    assert w.param.bits == 0x2
    assert w.L1.to_text() == "x^8 + x^4"
    assert w.beta.bits == 1 and w.gamma.bits == 1


def test_classify_outside_family(g2):
    w = deg12_classify(parse_poly("x^12 + x^5", g2))
    assert w.kind == NOT_IN_FAMILY
    assert w.param is None and w.L is None


def test_classify_x12(g2):
    w = deg12_classify(parse_poly("x^12", g2))
    assert w.kind == L_OF_CUBE
    assert w.param.bits == 0


def test_classify_requires_degree_12(g2):
    with pytest.raises(DegreeNot12):
        deg12_classify(parse_poly("x^9", g2))


def test_generate_examples(g2, g8):
    alpha = g8.element(0x2)
    assert family_generate(L_OF_CUBE, alpha).to_text() == "x^12 + x^6 + x^3"
    assert (
        family_generate(CUBE_OF_L, alpha).to_text()
        == "x^12 + x^10 + x^9 + x^8 + x^5 + x^4 + x^3"
    )
    assert family_generate(CUBE_OF_L, g8.zero).to_text() == "x^12"


def test_generate_validation(g2, g8, g16):
    alpha = g8.element(0x2)
    with pytest.raises(TraceNotZero):
        family_generate(L_OF_CUBE, g8.one)
    with pytest.raises(NotQAffine):
        family_generate(L_OF_CUBE, alpha, parse_poly("x^3", g2))
    with pytest.raises(DegreeOutOfRange):
        family_generate(L_OF_CUBE, alpha, parse_poly("x^16", g2))
    with pytest.raises(ContextMismatch):
        family_generate(L_OF_CUBE, alpha, parse_poly("x^2", g16))
    with pytest.raises(ValueError):
        family_generate("OTHER", alpha)


def test_unknown_names_are_validation_errors(g2, g8):
    alpha = g8.element(0x2)
    with pytest.raises(UnknownFamilyKind):
        family_generate("OTHER", alpha)
    with pytest.raises(UnknownFamilyKind):
        family_phi_product(alpha, "OTHER")
    with pytest.raises(UnknownFamilyKind):
        family_phi_closed(g8.one, g8.one, "OTHER", g8)
    with pytest.raises(UnknownSearchMode):
        cubic_divisor_search(parse_poly("x^12 + x^6 + x^3", g2), mode="OTHER")
    with pytest.raises(ValidationError):
        is_apn_over_extension(parse_poly("x^3", g2), 0)
    with pytest.raises(ValidationError):
        classify_exponent(0)


def test_witness_check_survives_optimize():
    """A witness that does not rebuild f raises InvariantViolation even under
    python -O, where assert statements are stripped."""
    script = (
        "import sys\n"
        "from apnforge import UniPoly, criteria, make_field, parse_poly\n"
        "from apnforge.errors import InvariantViolation\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "g2 = make_field(1)\n"
        "# a permutation of F_q, but not the quartic of the parameter\n"
        "criteria.linearized_quartic = lambda c, base: UniPoly.monomial(base, 1)\n"
        "try:\n"
        "    criteria.deg12_classify(parse_poly('x^12 + x^6 + x^3', g2))\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit('no InvariantViolation')\n"
    )
    src = os.path.dirname(os.path.dirname(apnforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not reconstruct f" in proc.stdout


def test_roundtrip_every_trace_zero_param(g2, g64):
    rng = random.Random(21)
    g4 = make_field(2)
    for base, big in ((g2, make_field(3)), (g4, g64)):
        for c in sorted(trace_zero_elements(big, base.degree)):
            if not c.bits:
                continue
            for kind in (CUBE_OF_L, L_OF_CUBE):
                l1 = random_q_affine(rng, base)
                f = family_generate(kind, c, l1)
                w = deg12_classify(f)
                assert w.kind == kind
                assert c in w.orbit
                assert is_bijective_on(w.L, base)
                assert w.L1.is_q_affine()
                if kind == L_OF_CUBE:
                    assert w.L1 == l1
                else:
                    # cube form folds its quartic tail into the affine part
                    tail = UniPoly.from_pairs(
                        base, {8: (w.beta * w.beta).bits, 4: (w.beta * w.gamma * w.gamma).bits}
                    )
                    assert w.L1 == l1 + tail


# scan oracle for the classifier ---------------------------------------------


def _brute_trace_zero(big, k):
    """Bit patterns of F_(q^3) with zero relative trace, by enumeration."""
    return [b for b in range(big.order) if rel_trace(big.element(b), k).bits == 0]


def scan_classify(f, tz):
    """The classifier as a scan over the trace-zero parameters tz, ascending:
    CUBE_OF_L over the nonzero ones first, then L_OF_CUBE including 0, each
    compared with phi through the closed form. Reference for deg12_classify."""
    base = f.ctx
    k = base.degree
    big = make_field(3 * k)
    emb = find_embedding(base, big)
    phi = build_phi(f).poly
    l1 = split_q_affine(f).affine
    for kind in (CUBE_OF_L, L_OF_CUBE):
        for bits in tz:
            if kind == CUBE_OF_L and not bits:
                continue
            c = big.element(bits)
            beta, gamma = (emb.pull_back(s) for s in _orbit_sym(c, k))
            if family_phi_closed(beta, gamma, kind, base) == phi:
                return _build_witness(kind, c, base, emb, f, l1)
    return Deg12Witness(NOT_IN_FAMILY, None, None, None, None, l1, None)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_classify_matches_scan_oracle(k):
    rng = random.Random(300 + k)
    base = make_field(k)
    big = make_field(3 * k)
    tz = _brute_trace_zero(big, k)
    inputs = [
        family_generate(kind, big.element(bits), random_q_affine(rng, base))
        for bits in tz
        for kind in (CUBE_OF_L, L_OF_CUBE)
    ]
    inputs += [random_poly(rng, base, 12, 12) for _ in range(20)]
    kinds = set()
    for f in inputs:
        w = deg12_classify(f)
        assert witness_json(w) == witness_json(scan_classify(f, tz)), f.to_text()
        kinds.add(w.kind)
    assert kinds == {CUBE_OF_L, L_OF_CUBE, NOT_IN_FAMILY}


def test_roundtrip_param_zero_is_kind_agnostic(g2, g8):
    f = family_generate(CUBE_OF_L, g8.zero, parse_poly("x^2 + x", g2))
    w = deg12_classify(f)
    assert w.param.bits == 0
    assert w.kind in (CUBE_OF_L, L_OF_CUBE)


# product versus closed form -------------------------------------------------


def test_product_form_examples(g2, g8):
    a = plane_product(g8)
    one = TriPoly.one(g8)
    alpha = g8.element(0x2)
    assert family_phi_product(g8.zero, L_OF_CUBE) == a ** 3
    assert family_phi_product(alpha, L_OF_CUBE) == a ** 3 + a + one


def test_product_form_first_kind(g8):
    from apnforge import symmetric_quadratic

    a, m, one = plane_product(g8), symmetric_quadratic(g8), TriPoly.one(g8)
    alpha = g8.element(0x2)
    # beta = gamma = 1 for the orbit of alpha
    expected = a ** 3 + a * m ** 2 + a ** 2 + m ** 3 + m + one
    assert family_phi_product(alpha, CUBE_OF_L) == expected


def test_product_matches_closed_everywhere(g8, g64):
    for big, k in ((g8, 1), (g64, 2)):
        for c in sorted(trace_zero_elements(big, k)):
            for kind in (CUBE_OF_L, L_OF_CUBE):
                prod = family_phi_product(c, kind)
                beta, gamma = _orbit_sym(c, k)
                assert prod == family_phi_closed(beta, gamma, kind, big)


def test_product_rejects_nonzero_trace(g8):
    with pytest.raises(TraceNotZero):
        family_phi_product(g8.one, L_OF_CUBE)


# determinant identities -----------------------------------------------------


def test_six_term_determinant_identity(g8, g64):
    for big, k in ((g8, 1), (g64, 2)):
        for c1 in sorted(trace_zero_elements(big, k)):
            if not c1.bits:
                continue
            r1 = frobenius(c1, k)
            r2 = frobenius(c1, 2 * k)
            six = (
                c1 * c1 * r1
                + c1 * r1 * r1
                + c1 * c1 * r2
                + r1 * r1 * r2
                + c1 * r2 * r2
                + r1 * r2 * r2
            )
            assert six == c1 * r1 * r2


def test_cube_solves_linear_system(g8, g64):
    for big, k in ((g8, 1), (g64, 2)):
        for c1 in sorted(trace_zero_elements(big, k)):
            if not c1.bits:
                continue
            d = c1 ** 3
            r1c, r2c = frobenius(c1, k), frobenius(c1, 2 * k)
            r1d, r2d = frobenius(d, k), frobenius(d, 2 * k)
            zero = big.zero
            assert c1 * r1c * r2d + r1c * r2c * d + r2c * c1 * r1d == zero
            assert (r1c + c1) * r2d + (r2c + r1c) * d + (c1 + r2c) * r1d == zero
            assert d + r1d + r2d + c1 * r1c * r2c == zero


# aggregate report -----------------------------------------------------------


def test_report_odd(g2):
    rep = exceptionality_report(parse_poly("x^7 + x", g2))
    assert rep["applicable"] == ODD_NOT_EXCEPTIONAL
    assert rep["conclusion"] == "not APN for large n"


def test_report_family_member(g2):
    rep = exceptionality_report(parse_poly("x^12 + x^6 + x^3", g2), n_range=range(2, 6))
    assert rep["applicable"] == DEGREE_12
    assert rep["family"]["kind"] == L_OF_CUBE
    assert rep["conclusion"] == "CCZ-equivalent to x^3"
    assert [(row["n"], row["apn"]) for row in rep["spectra"]] == [
        (2, True), (3, False), (4, True), (5, True),
    ]


def test_report_non_member(g2):
    rep = exceptionality_report(parse_poly("x^12 + x^5", g2))
    assert rep["family"]["kind"] == NOT_IN_FAMILY
    assert rep["conclusion"] == "not APN for large n"


def test_report_quadruple_odd_with_empty_search(g2):
    rep = exceptionality_report(parse_poly("x^28 + x^5", g2))
    assert rep["applicable"] == QUADRUPLE_ODD
    assert rep["divisor_search"]["divisors"] == []
    assert rep["conclusion"] == "not APN for large n"


# brute-force semantics of the degree-12 witnesses ----------------------------


def test_family_members_apn_where_quartic_is_bijective(g2, g8):
    for c in sorted(trace_zero_elements(g8, 1)):
        if not c.bits:
            continue
        for kind in (CUBE_OF_L, L_OF_CUBE):
            f = family_generate(kind, c)
            w = deg12_classify(f)
            for n in (2, 4, 5):
                assert is_apn_over_extension(f, n)
            # the parameter lies in the cubic extension, so the quartic
            # collapses there and APN-ness goes with it
            assert not is_bijective_on(w.L, g8)
            assert not is_apn_over_extension(f, 3)
