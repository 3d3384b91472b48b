"""sympy as an independent oracle over GF(2): irreducibility of modulus
patterns and the phi surfaces of monomials. sympy is not a dependency, so
the module is skipped where it is absent."""

import pytest

from apnforge import phi_monomial
from apnforge.fields import is_irreducible, lowest_irreducible

sympy = pytest.importorskip("sympy")

X, Y, Z = sympy.symbols("x y z")


def _sympy_irreducible(pattern):
    bits = [int(b) for b in bin(pattern)[2:]]
    return sympy.Poly(bits, X, modulus=2).is_irreducible


def test_is_irreducible_matches_sympy():
    for pattern in range(2, 2**10 + 1):
        assert is_irreducible(pattern) == _sympy_irreducible(pattern), bin(pattern)


def test_lowest_irreducible_matches_sympy():
    for m in range(1, 17):
        lowest = next(p for p in range(1 << m, 1 << (m + 1)) if _sympy_irreducible(p))
        assert lowest_irreducible(m) == lowest, m


def test_phi_monomial_matches_sympy_quotient():
    plane = sympy.Poly((X + Y) * (Y + Z) * (Z + X), X, Y, Z, modulus=2)
    for d in (3, 5, 7, 12, 21, 28, 33):
        num = sympy.Poly(X**d + Y**d + Z**d + (X + Y + Z) ** d, X, Y, Z, modulus=2)
        quotient = num.exquo(plane)
        expected = {mono for mono, c in quotient.terms() if int(c) % 2}
        got = phi_monomial(d)
        assert set(got.terms) == expected, d
