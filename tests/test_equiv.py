import random
import time
from fractions import Fraction

import pytest

from slicereg import (SLICE_PRESERVING, CQuat, Divisor, GaussRat,
                      LimitExceededError, Poly, Quaternion, R3StemPoly,
                      StemPoly, ZeroAlphaError, ZeroInputError,
                      classify_orbit, conj_by_unit, equivalent,
                      find_intertwiner, invariants,
                      normalize_intertwiner, orbit_equivalent, parse_stem,
                      pointwise_orbit_scan, r3_equivalent, verify_conjugator)
from slicereg.algebra import QI, QJ, QK
from slicereg.equiv import (BRANCH_NOT_SLICE_PRESERVING,
                            BRANCH_SLICE_PRESERVING, ISOTROPY_ADDITIVE,
                            ISOTROPY_FULL_GROUP, ISOTROPY_TORUS,
                            KIND_CENTER_FIXED, KIND_GENERIC, KIND_NULL_CONE)

from support import (conjugate_stem, convolve_stems,
                     rand_pure_imaginary_quaternion, rand_stem,
                     rand_stem_nonslice)

IOTA = GaussRat(0, 1)
F_PAIR = parse_stem("i + z*j + (1/2)*z^2*k")
G_PAIR = parse_stem("(1 + (1/2)*z^2)*i")
ALPHA_PAIR = parse_stem("(2 + (1/2)*z^2)*i + z*j + (1/2)*z^2*k")
QUARTIC = Poly([1, 0, 1, 0, Fraction(1, 4)])
ZP = Poly.monomial(1)


def test_invariants_values():
    bundle = invariants(F_PAIR)
    assert bundle.trace.is_zero
    assert bundle.norm == QUARTIC
    assert bundle.central_divisor == Divisor.empty()

    sp = invariants(StemPoly([1, 0, 1]))  # 1 + z^2, slice preserving: norm = square
    assert sp.trace == Poly([2, 0, 2])
    assert sp.norm == Poly([1, 0, 2, 0, 1])
    assert sp.central_divisor is SLICE_PRESERVING
    assert sp.is_slice_preserving

    const = invariants(StemPoly.constant(QI))
    assert const.trace.is_zero and const.norm == Poly([1])
    assert const.central_divisor == Divisor.empty()


def test_equivalent_worked_pair():
    verdict = equivalent(F_PAIR, G_PAIR)
    assert not verdict.equivalent
    assert verdict.branch == BRANCH_NOT_SLICE_PRESERVING
    assert verdict.reason == "cdiv"


def test_equivalent_under_constant_conjugation():
    conjugated = conjugate_stem(1 + QK, F_PAIR)
    verdict = equivalent(F_PAIR, conjugated)
    assert verdict.equivalent and verdict.reason is None


def test_equivalent_slice_preserving_branch():
    p = StemPoly([1, 0, 1])
    verdict = equivalent(p, StemPoly([1, 0, 1]))
    assert verdict.equivalent and verdict.branch == BRANCH_SLICE_PRESERVING

    other = StemPoly([1, 0, 2])
    verdict = equivalent(p, other)
    assert not verdict.equivalent and verdict.reason == "identity"

    # One slice preserving, one not: never equivalent.
    verdict = equivalent(p, StemPoly.constant(QI))
    assert not verdict.equivalent
    assert verdict.branch == BRANCH_SLICE_PRESERVING


def test_reason_ordering_trace_then_norm_then_cdiv():
    base = StemPoly.constant(QI)
    assert equivalent(base, StemPoly([Quaternion(1, 1)])).reason == "trace"
    assert equivalent(base, StemPoly.constant(2 * QI)).reason == "norm"
    assert equivalent(F_PAIR, G_PAIR).reason == "cdiv"


def test_r3_equivalent():
    pair = R3StemPoly(F_PAIR, StemPoly.constant(QJ))
    assert r3_equivalent(pair, pair).equivalent

    swapped = pair.swap()
    direct = r3_equivalent(pair, swapped)
    assert not direct.equivalent and direct.pairing is None
    with_swap = r3_equivalent(pair, swapped, allow_swap=True)
    assert with_swap.equivalent and with_swap.pairing == "swapped"

    # Components equivalent without being equal: i and j share all invariants.
    near = R3StemPoly(StemPoly.constant(QI), StemPoly.constant(QJ))
    far = R3StemPoly(StemPoly.constant(QI), StemPoly.constant(QI))
    assert r3_equivalent(near, far).equivalent


def test_orbit_equivalent_values():
    assert orbit_equivalent(QI, Quaternion(0, Fraction(3, 5), Fraction(4, 5)))
    rotated = CQuat(GaussRat(0), GaussRat(Fraction(5, 4)),
                    GaussRat(0, Fraction(3, 4)), GaussRat(0))
    assert orbit_equivalent(QI, rotated)  # B = 25/16 - 9/16 = 1
    assert not orbit_equivalent(Quaternion(1), CQuat(1, 1, IOTA, 0))
    assert not orbit_equivalent(QI, QI + 1)
    with pytest.raises(ZeroInputError):
        orbit_equivalent(CQuat(), QI)


def test_orbit_equivalence_relation_within_orbits():
    sphere = [QI.complexify(), QJ.complexify(),
              CQuat(GaussRat(0), GaussRat(Fraction(3, 5)),
                    GaussRat(Fraction(4, 5)), GaussRat(0)),
              CQuat(GaussRat(0), GaussRat(Fraction(5, 4)),
                    GaussRat(0, Fraction(3, 4)), GaussRat(0))]
    for a in sphere:
        assert orbit_equivalent(a, a)
        for b in sphere:
            assert orbit_equivalent(a, b) == orbit_equivalent(b, a)
            for c in sphere:
                if orbit_equivalent(a, b) and orbit_equivalent(b, c):
                    assert orbit_equivalent(a, c)


def test_classify_orbit_values():
    cls = classify_orbit(Quaternion(7))
    assert (cls.kind, cls.isotropy) == (KIND_CENTER_FIXED, ISOTROPY_FULL_GROUP)

    cls = classify_orbit(CQuat(0, 1, IOTA, 0))
    assert (cls.kind, cls.isotropy) == (KIND_NULL_CONE, ISOTROPY_ADDITIVE)
    assert cls.lam == GaussRat(0)

    cls = classify_orbit(Quaternion(2, 3))
    assert (cls.kind, cls.isotropy) == (KIND_GENERIC, ISOTROPY_TORUS)
    assert cls.lam == GaussRat(9)


def test_classification_invariant_under_conjugation():
    rng = random.Random(88)
    from support import rand_cquat, rand_invertible_cquat
    for _ in range(30):
        v = rand_cquat(rng)
        alpha = rand_invertible_cquat(rng)
        before = classify_orbit(v)
        after = classify_orbit(conj_by_unit(alpha, v))
        assert (before.kind, before.isotropy, before.lam) == \
            (after.kind, after.isotropy, after.lam)


def test_find_intertwiner_worked_pair():
    basis = find_intertwiner(F_PAIR, G_PAIR, 2)
    assert len(basis) == 1
    assert basis[0] == normalize_intertwiner(ALPHA_PAIR)


def test_find_intertwiner_identity_and_constants():
    assert StemPoly.constant(1) in find_intertwiner(F_PAIR, F_PAIR, 0)
    basis = find_intertwiner(StemPoly.constant(QI), StemPoly.constant(QJ), 0)
    assert basis == [normalize_intertwiner(StemPoly.constant(QI + QJ))]
    # i(i+j) = -1+k and (i+j)j = k-1: the constant really intertwines.
    ipj = QI + QJ
    assert QI * ipj == ipj * QJ


def test_find_intertwiner_none_for_distinct_norms():
    assert find_intertwiner(StemPoly.constant(QI),
                            StemPoly.constant(2 * QI), 1) == []


def test_verify_conjugator_worked_pair():
    report = verify_conjugator(F_PAIR, G_PAIR, ALPHA_PAIR)
    assert report.intertwines
    assert report.norm_alpha == Poly([4, 0, 3, 0, Fraction(1, 2)])
    assert not report.invertible_on_C
    assert report.conjugation_identity is None


def test_verify_conjugator_trivial_and_failing():
    report = verify_conjugator(StemPoly.constant(QI), StemPoly.constant(QI),
                               StemPoly.constant(1))
    assert report.intertwines and report.invertible_on_C
    assert report.conjugation_identity is True

    report = verify_conjugator(StemPoly.constant(QJ), StemPoly.constant(QI),
                               StemPoly.constant(1))
    assert not report.intertwines

    with pytest.raises(ZeroAlphaError):
        verify_conjugator(F_PAIR, G_PAIR, StemPoly())


def test_pointwise_scan_passes_despite_global_inequivalence():
    z = GaussRat(0, Fraction(3, 2))
    report = pointwise_orbit_scan(F_PAIR, G_PAIR, [z])
    assert report.all_pass  # cdiv is what separates them, not any one point
    assert G_PAIR.eval_stem(z) == CQuat(GaussRat(0), GaussRat(Fraction(-1, 8)))


def test_pointwise_scan_self_and_failure():
    samples = [GaussRat(k) for k in range(-3, 4)]
    assert pointwise_orbit_scan(F_PAIR, F_PAIR, samples).all_pass
    report = pointwise_orbit_scan(StemPoly.constant(QI),
                                  StemPoly([Quaternion(1, 1)]), [GaussRat(0)])
    assert not report.all_pass
    assert report.failures[0].reason == "trace"


def test_pointwise_scan_zero_mismatch():
    report = pointwise_orbit_scan(StemPoly([0, QI]), StemPoly.constant(QI),
                                  [GaussRat(0)])
    assert not report.all_pass
    assert report.failures[0].reason == "zero-mismatch"


def test_soundness_link_on_randomized_conjugates():
    # A pure imaginary constant conjugator satisfies both intertwining
    # orders (its square is central), so the search must recover one.
    rng = random.Random(2024)
    for _ in range(20):
        stem = rand_stem_nonslice(rng)
        alpha = rand_pure_imaginary_quaternion(rng)
        conjugated = conjugate_stem(alpha, stem)
        basis = find_intertwiner(conjugated, stem, 0)
        assert basis, "expected a constant intertwiner"
        invertible = [b for b in basis
                      if verify_conjugator(conjugated, stem, b).invertible_on_C]
        assert invertible
        assert equivalent(conjugated, stem).equivalent


def test_necessity_link_trace_or_norm_mismatch_fails_a_sample():
    rng = random.Random(515)
    grid = [GaussRat(k) for k in range(-6, 7)]
    found = 0
    for _ in range(200):
        first = rand_stem_nonslice(rng)
        second = rand_stem_nonslice(rng)
        verdict = equivalent(first, second)
        if verdict.reason not in ("trace", "norm"):
            continue
        found += 1
        assert not pointwise_orbit_scan(first, second, grid).all_pass
    assert found >= 20


def test_verdict_invariance_under_constant_conjugation():
    rng = random.Random(606)
    from support import rand_nonzero_quaternion
    for _ in range(30):
        first = rand_stem(rng)
        second = rand_stem(rng)
        alpha = rand_nonzero_quaternion(rng)
        direct = equivalent(first, second)
        moved = equivalent(conjugate_stem(alpha, first), second)
        assert direct.equivalent == moved.equivalent


# -- intertwiners against a system assembled independently, in sympy ------------

def _sympy_intertwiners(sp, first, second, dmax):
    """Basis of the solutions of both relations, from sympy's nullspace of
    a system whose columns are the relations applied to z^p * e_t,
    multiplied out by the reference convolution; each vector scaled so its
    first nonzero entry is 1 (the documented normalization)."""
    top = dmax + max(first.degree, second.degree, 0)
    columns = []
    for p in range(dmax + 1):
        for t in range(4):
            unit = [0] * 4
            unit[t] = 1
            alpha = StemPoly([0] * p + [Quaternion(*unit)])
            column = []
            for diff in (convolve_stems(first, alpha) - convolve_stems(alpha, second),
                         convolve_stems(alpha, first) - convolve_stems(second, alpha)):
                for n in range(top + 1):
                    column += [sp.Rational(x.numerator, x.denominator)
                               for x in diff.coeff(n).components()]
            columns.append(column)
    basis = []
    for v in sp.Matrix(columns).T.nullspace():
        v = [Fraction(int(x.p), int(x.q)) for x in v]
        lead = next(x for x in v if x)
        v = [x / lead for x in v]
        basis.append(StemPoly([Quaternion(*v[4 * p:4 * p + 4])
                               for p in range(dmax + 1)]))
    return basis


def test_find_intertwiner_matches_sympy_bases():
    sp = pytest.importorskip("sympy")
    rng = random.Random(1968)
    cases = [(F_PAIR, G_PAIR, 2), (F_PAIR, G_PAIR, 8), (F_PAIR, G_PAIR, 12),
             (F_PAIR, F_PAIR, 3), (G_PAIR, F_PAIR, 5),
             (StemPoly.constant(QI), StemPoly.constant(QJ), 0),
             (StemPoly.constant(QI), StemPoly.constant(2 * QI), 1)]
    for degree, dmax in ((0, 2), (2, 4), (3, 3)):
        f = rand_stem(rng, degree)
        u = rand_pure_imaginary_quaternion(rng)
        cases.append((f, conjugate_stem(u, f), dmax))          # solvable
        cases.append((f, rand_stem(rng, degree), dmax))        # usually not
    for f, h, dmax in cases:
        assert find_intertwiner(f, h, dmax) == _sympy_intertwiners(sp, f, h, dmax)


def test_find_intertwiner_refuses_huge_searches_at_once():
    from slicereg.equiv import MAX_INTERTWINER_UNKNOWNS
    cap = MAX_INTERTWINER_UNKNOWNS // 4 - 1
    # alpha * z^k for k <= dmax - 2 all intertwine the worked pair.
    assert len(find_intertwiner(F_PAIR, G_PAIR, cap)) == cap - 1
    start = time.perf_counter()
    for dmax in (cap + 1, 10 ** 12):
        with pytest.raises(LimitExceededError,
                           match=str(MAX_INTERTWINER_UNKNOWNS)):
            find_intertwiner(F_PAIR, G_PAIR, dmax)
    assert time.perf_counter() - start < 1.0
