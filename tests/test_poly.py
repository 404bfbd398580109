import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg import (BothZeroError, GaussRat, Matrix, Poly,
                      PolyDivisionByZeroError, ZeroPolynomialError,
                      find_intertwiner, parse_stem, poly_gcd, poly_gcd_many,
                      vanishing_order)

from support import rand_fraction, rand_poly

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Poly, st.lists(fractions, max_size=9))

Z = Poly.monomial(1)
IOTA = GaussRat(0, 1)


def test_product_of_conjugate_linear_factors():
    assert (Z + 1) * (Z - 1) == Z ** 2 - 1


def test_divmod_values():
    q, r = divmod(Z ** 3, Z ** 2)
    assert q == Z and r.is_zero
    q, r = divmod(Z ** 2 + 1, Z + 1)
    assert q == Z - 1 and r == Poly.constant(Fraction(2))
    with pytest.raises(PolyDivisionByZeroError):
        divmod(Z, Poly())


@given(polys, polys)
def test_divmod_contract(a, b):
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.degree < b.degree


def test_gcd_values():
    a = Z ** 2 * (Z - 1)
    b = Z ** 3 * (Z - 1) ** 2
    assert poly_gcd(a, b) == Z ** 3 - Z ** 2
    assert poly_gcd(Z, Z + 1) == Poly.constant(Fraction(1))
    assert poly_gcd(Poly(), 2 * Z + 2) == Z + 1
    with pytest.raises(BothZeroError):
        poly_gcd(Poly(), Poly())
    with pytest.raises(BothZeroError):
        poly_gcd_many([Poly(), Poly()])


def test_gcd_properties_on_random_pairs():
    rng = random.Random(411)
    for _ in range(60):
        a = rand_poly(rng, 8)
        b = rand_poly(rng, 8)
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g == poly_gcd(b, a)
        assert g.is_zero or g.leading() == 1
        assert (a % g).is_zero if not a.is_zero else True
        assert (b % g).is_zero if not b.is_zero else True
        if not b.is_zero:
            assert g == poly_gcd(b, a % b)


def test_eval_values():
    p = Z ** 2 + 1
    assert p(IOTA) == GaussRat(0)
    assert p(Fraction(2)) == 5
    assert (Z ** 3 - Z ** 2)(Fraction(1)) == 0


@given(polys, polys, fractions)
def test_eval_is_a_ring_homomorphism(p, q, z0):
    assert (p * q)(z0) == p(z0) * q(z0)
    assert (p + q)(z0) == p(z0) + q(z0)


def test_vanishing_order_values():
    p = Z ** 3 - Z ** 2
    assert vanishing_order(p, Fraction(0)) == 2
    assert vanishing_order(p, Fraction(1)) == 1
    assert vanishing_order(p, Fraction(5)) == 0
    with pytest.raises(ZeroPolynomialError):
        vanishing_order(Poly(), Fraction(0))


def test_vanishing_order_at_complex_points():
    p = Z ** 2 + 2  # vanishes at +- sqrt(2) E, not at E
    assert vanishing_order(p, IOTA) == 0
    assert vanishing_order((Z ** 2 + 1) ** 3, IOTA) == 3


def test_vanishing_order_additive_over_products():
    rng = random.Random(902)
    for _ in range(40):
        p = rand_poly(rng, 5)
        q = rand_poly(rng, 5)
        if p.is_zero or q.is_zero:
            continue
        z0 = rand_fraction(rng, 3, 3)
        assert (vanishing_order(p * q, z0)
                == vanishing_order(p, z0) + vanishing_order(q, z0))


def test_nullspace_values():
    eye = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.nullspace() == []
    zero = Matrix([[0, 0], [0, 0]])
    assert len(zero.nullspace()) == 2
    m = Matrix([[1, 1], [2, 2]])
    basis = m.nullspace()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * Fraction(-1) == v[1]


def test_nullspace_contract_on_random_matrices():
    rng = random.Random(5280)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix([[rand_fraction(rng, 4, 4) for _ in range(cols)]
                    for _ in range(rows)])
        basis = m.nullspace()
        assert m.rank() + len(basis) == cols
        for v in basis:
            assert all(entry == 0 for entry in m.mul_vector(v))


# -- the integer kernels against sympy and against the field routes ------------

P61 = (1 << 61) - 1


def _to_sympy(sp, p: Poly):
    """Ascending rational coefficients -> sympy Poly over QQ."""
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in p.coeffs]
    return sp.Poly(list(reversed(coeffs)), sp.Symbol("z"), domain=sp.QQ)


def _from_sympy(q) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def _diff_poly(rng, degree: int, density: float = 1.0) -> Poly:
    """Degree exactly `degree`; zero, negative, integer and rational
    coefficients, and with density < 1 mostly zero (sparse)."""
    coeffs = [rand_fraction(rng, 99, 12) if rng.random() < density else Fraction(0)
              for _ in range(degree)]
    lead = Fraction(0)
    while not lead:
        lead = rand_fraction(rng, 99, 12)
    return Poly(coeffs + [lead])


def _schoolbook(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for m, x in enumerate(a.coeffs):
        for n, y in enumerate(b.coeffs):
            out[m + n] += x * y
    return Poly(out)


def _euclid(a: Poly, b: Poly) -> Poly:
    """Monic Euclid over the coefficient field, with no certificate."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def test_products_match_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(2009)
    for _ in range(80):
        a = _diff_poly(rng, rng.choice((0, 1, 2, 5, 17, 40)), rng.choice((1, 0.3)))
        b = _diff_poly(rng, rng.choice((0, 1, 3, 8, 33)), rng.choice((1, 0.2)))
        a = -a if rng.random() < 0.3 else a
        want = _from_sympy(_to_sympy(sp, a) * _to_sympy(sp, b))
        assert a * b == want
        assert b * a == want
    assert Poly([Fraction(5)]) * Poly([Fraction(-3, 7)]) == Poly([Fraction(-15, 7)])
    assert Poly([0, 1]) * Poly([0, 0, 2]) == Poly([0, 0, 0, 2])
    assert (Z - 1) * Poly() == Poly() and Poly() * Z == Poly()


def test_products_of_large_coefficients_match_the_schoolbook():
    rng = random.Random(1982)
    for bits in (1, 60, 61, 64, 200):
        a = Poly([Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
                  for _ in range(rng.randint(1, 12))] + [Fraction(-2 ** bits)])
        b = Poly([Fraction(rng.randint(-2 ** bits, 2 ** bits))
                  for _ in range(rng.randint(0, 12))] + [Fraction(2 ** bits - 1)])
        assert a * b == _schoolbook(a, b)
        assert a * a == _schoolbook(a, a)


def test_products_of_int_and_fraction_coefficients_are_fractions():
    product = Poly([1, 2]) * Poly([Fraction(1, 2), 3])
    assert product == Poly([Fraction(1, 2), 4, 6])
    assert all(type(c) is Fraction for c in product.coeffs)


def test_gcd_matches_sympy_on_coprime_and_planted_inputs():
    sp = pytest.importorskip("sympy")
    rng = random.Random(1971)
    for _ in range(40):
        a = _diff_poly(rng, rng.randint(0, 12), rng.choice((1, 0.4)))
        b = _diff_poly(rng, rng.randint(0, 12), rng.choice((1, 0.4)))
        g = _diff_poly(rng, rng.randint(1, 4))
        for x, y in ((a, b), (a * g, b * g), (a * g * g, b * g)):
            want = _from_sympy(sp.gcd(_to_sympy(sp, x), _to_sympy(sp, y)).monic())
            assert poly_gcd(x, y) == want
            assert poly_gcd(y, x) == want


def test_gcd_many_matches_sympy_on_coprime_and_planted_inputs():
    sp = pytest.importorskip("sympy")
    rng = random.Random(68)
    for _ in range(30):
        family = [_diff_poly(rng, rng.randint(0, 10), rng.choice((1, 0.5)))
                  for _ in range(3)]
        planted = _diff_poly(rng, rng.randint(1, 3))
        for polys in (family, [p * planted for p in family],
                      [family[0] * planted, Poly(), family[1] * planted]):
            want = _from_sympy(reduce(sp.Poly.gcd, [_to_sympy(sp, p) for p in polys
                                                     if not p.is_zero]).monic())
            assert poly_gcd_many(polys) == want


def test_certificate_fallback_when_coprime_over_q_but_not_mod_p():
    from slicereg.poly import _coprime_mod_p
    # z and z + p are coprime over Q, but equal mod p.
    a, b = Z, Z + P61
    assert not _coprime_mod_p(a, b)
    assert poly_gcd(a, b) == _euclid(a, b) == Poly([1])
    a, b = (Z - 1) * (Z + 3), (Z - 1 + P61) * (Z + 3) * (Z + 5)
    assert not _coprime_mod_p(a, b)
    assert poly_gcd(a, b) == _euclid(a, b) == Z + 3
    # Rational inputs scale to the same integer pair.
    a, b = Z * Fraction(1, 3), (Z + P61) * Fraction(2, 7)
    assert not _coprime_mod_p(a, b)
    assert poly_gcd(a, b) == Poly([1])


def test_certificate_fallback_when_p_divides_a_leading_coefficient():
    from slicereg.poly import _coprime_mod_p
    for a, b in ((P61 * Z ** 2 + 1, Z ** 2 + 2),
                 (Z + 1, Fraction(P61, 5) * Z ** 3 + Z - 7),
                 (P61 * (Z - 2) * (Z + 1), (Z - 2) * (Z + 4))):
        assert not _coprime_mod_p(a, b)
        assert poly_gcd(a, b) == _euclid(a, b)
        assert poly_gcd(b, a) == _euclid(a, b)
    assert poly_gcd(P61 * (Z - 2) * (Z + 1), (Z - 2) * (Z + 4)) == Z - 2


def test_gaussrat_products_and_gcds_keep_the_field_routes():
    rng = random.Random(61)
    for _ in range(30):
        a = Poly([GaussRat(rand_fraction(rng), rand_fraction(rng))
                  for _ in range(rng.randint(1, 6))])
        b = Poly([GaussRat(rand_fraction(rng), rand_fraction(rng))
                  for _ in range(rng.randint(1, 6))])
        c = rand_poly(rng, 5)
        assert a * b == _schoolbook(a, b)
        assert a * c == _schoolbook(a, c) == c * a
        if not a.is_zero and not b.is_zero:
            assert poly_gcd(a, b) == _euclid(a, b)
    root = Poly([-IOTA, GaussRat(1)])           # z - E
    assert poly_gcd(Z ** 2 + 1, root * (Z + 2)) == root
    assert poly_gcd(root * root, root * (Z - 1)) == root
    assert poly_gcd(root, Poly([IOTA, GaussRat(1)])) == Poly([GaussRat(1)])


# -- integer elimination against sympy -------------------------------------------

entries = st.one_of(
    st.just(Fraction(0)), st.integers(-3, 3), fractions,
    st.fractions(min_value=-10 ** 15, max_value=10 ** 15,
                 max_denominator=10 ** 15))


@st.composite
def matrices(draw):
    """Random rational matrices, with rows that are combinations of
    earlier rows (rank deficiency) and zero rows mixed in."""
    cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                           st.integers(0, len(rows) - 1),
                                           fractions), max_size=3)):
        rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return Matrix(rows)


def _check_against_sympy(sp, m: Matrix):
    def rat(x):
        return sp.Rational(x.numerator, x.denominator)

    oracle = sp.Matrix([[rat(e) for e in row] for row in m.entries])
    want, want_pivots = oracle.rref()
    reduced, pivots = m.rref()
    assert tuple(pivots) == want_pivots
    assert [[rat(e) for e in row] for row in reduced] == want.tolist()
    assert all(type(e) is Fraction for row in reduced for e in row)
    assert m.rank() == oracle.rank()
    basis = m.nullspace()
    assert [[rat(e) for e in v] for v in basis] == [list(v) for v in oracle.nullspace()]
    assert all(type(e) is Fraction for v in basis for e in v)


@given(matrices())
def test_rref_rank_and_nullspace_match_sympy(m):
    sp = pytest.importorskip("sympy")
    _check_against_sympy(sp, m)


def test_rref_rank_and_nullspace_edge_cases_match_sympy():
    sp = pytest.importorskip("sympy")
    big = Fraction(10 ** 40 + 1, 3 ** 50)
    for rows in ([[0, 0, 0]], [[0], [0]], [[Fraction(1, 7)]], [[5, 10, 15]],
                 [[big, 1], [2 * big, 2], [0, 0]],
                 [[Fraction(1, 10 ** 20), Fraction(-1, 3)],
                  [Fraction(1, 7), Fraction(10 ** 20, 9)]],
                 [[1, 2, 3], [2, 4, 6], [1, 0, -1], [0, 2, 4]]):
        _check_against_sympy(sp, Matrix(rows))


def _intertwiner_system(monkeypatch, first, second, dmax):
    """The matrix that find_intertwiner hands to nullspace."""
    import slicereg.equiv
    seen = []

    class Recording(Matrix):
        __slots__ = ()

        def nullspace(self):
            seen.append(self)
            return super().nullspace()

    monkeypatch.setattr(slicereg.equiv, "Matrix", Recording)
    find_intertwiner(first, second, dmax)
    return seen[0]


def test_intertwiner_systems_match_sympy(monkeypatch):
    sp = pytest.importorskip("sympy")
    first = parse_stem("i + z*j + (1/2)*z^2*k")
    second = parse_stem("(1 + (1/2)*z^2)*i")
    planted = parse_stem("1/3*i - 2/5*z*j + z^2*(1/7 + k)")
    conjugated = parse_stem("1/3*j - 2/5*z*i + z^2*(1/7 - k)")    # by i + j
    for f, h, dmax in ((first, second, 2), (first, second, 8),
                       (first, second, 12), (planted, conjugated, 4)):
        m = _intertwiner_system(monkeypatch, f, h, dmax)
        assert m.cols == 4 * (dmax + 1)
        _check_against_sympy(sp, m)


def test_matrix_entries_must_be_rational():
    with pytest.raises(TypeError):
        Matrix([[GaussRat(0, 1)]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])
