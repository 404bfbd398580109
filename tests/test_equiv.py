import copy
import itertools
import pickle
import random
import time
from fractions import Fraction
from functools import reduce

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
                            KIND_CENTER_FIXED, KIND_GENERIC, KIND_NULL_CONE,
                            _generator, _intertwiner_kernel,
                            _scaled_to_lcm)
import slicereg.equiv

from support import (conjugate_stem, convolve_stems, rand_fraction,
                     rand_nonzero_quaternion, rand_poly,
                     rand_pure_imaginary_quaternion, rand_quaternion,
                     rand_stem, rand_stem_nonslice,
                     reference_find_intertwiner, reference_verify_conjugator,
                     stacked_relations_hold, stem_from_parts)

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
    for twin in (copy.copy(sp), copy.deepcopy(sp), pickle.loads(pickle.dumps(sp))):
        assert twin == sp and twin.central_divisor is SLICE_PRESERVING

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

    # Neither pairing holds: both are tried and reported.
    neither = r3_equivalent(pair, R3StemPoly(G_PAIR, QI), allow_swap=True)
    assert not neither.equivalent and neither.pairing is None
    assert [v.reason for v in neither.direct] == ["cdiv", None]
    assert [v.reason for v in neither.swapped] == ["norm", "norm"]


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


def test_normalize_intertwiner_divides_exactly():
    # Integer coefficients: 1 / 2 must stay the rational 1/2, not a float.
    alpha = stem_from_parts((Poly([2, 1]), Poly(), Poly(), Poly()))
    assert normalize_intertwiner(alpha) == StemPoly([1, Fraction(1, 2)])
    beta = stem_from_parts((Poly(), Poly([0, 3]), Poly([0, -1]), Poly()))
    normalized = normalize_intertwiner(beta)
    assert normalized == StemPoly([0, Quaternion(0, 1, Fraction(-1, 3))])
    assert all(type(x) is Fraction for p in normalized.parts for x in p.coeffs)
    assert normalize_intertwiner(StemPoly()) == StemPoly()
    # A negative lead over a denominator, and a lead past zero coefficients.
    gamma = StemPoly([Quaternion(0, 0, Fraction(-2, 3), 1),
                      Quaternion(5, 0, 0, Fraction(1, 7))])
    assert normalize_intertwiner(gamma) == gamma * Fraction(-3, 2)
    delta = StemPoly([0, 0, Quaternion(0, 0, 0, -4), Quaternion(1, 2)])
    assert normalize_intertwiner(delta) == delta * Fraction(-1, 4)


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


@pytest.mark.parametrize("first, second, dmax, index, dim", [
    (F_PAIR, G_PAIR, 12, 0, 11), (F_PAIR, G_PAIR, 12, 5, 11),
    (F_PAIR, G_PAIR, 12, 10, 11),
    (StemPoly.constant(QI), StemPoly.constant(QJ), 0, 0, 1)])
@pytest.mark.parametrize("entry", [0, -1])
def test_find_intertwiner_re_verifies_every_kernel_vector(
        monkeypatch, first, second, dmax, index, dim, entry):
    """One entry of one integer kernel vector, the lowest or the highest
    in the order (1, i, j, k) of z^0, ..., z^dmax (the central part at z^0,
    or the k part at z^dmax), of the first, a middle or the last vector, is
    off by one: the check must refuse it, the central entry by the
    central-part condition (here V != W), the other by multiplication."""
    assert len(find_intertwiner(first, second, dmax)) == dim

    def perturbed(*system):
        basis = _intertwiner_kernel(*system)
        basis[index][entry % 4][entry // 4] += 1
        return basis

    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel", perturbed)
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(first, second, dmax)


def test_find_intertwiner_re_verification_keeps_the_blocks_apart(monkeypatch):
    """Two integer kernel vectors that intertwine nothing, 4*i*z^dmax and
    2*j + (i + k)*z, stacked only dmax + 1 apart, would add up to
    z^dmax * 4*beta with beta an intertwiner: the products of the blocks
    must not meet."""
    beta = StemPoly([QI, QJ * Fraction(1, 2), (QI + QK) * Fraction(1, 4)])
    assert F_PAIR.star(beta) == beta.star(G_PAIR)
    assert beta.star(F_PAIR) == G_PAIR.star(beta)
    dmax = 12
    low = [0] * (4 * dmax + 4)
    low[4 * dmax + 1] = 4
    high = [0] * (4 * dmax + 4)
    high[2], high[5], high[7] = 2, 1, 1
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel",
                        lambda *system: [_components(low), _components(high)])
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(F_PAIR, G_PAIR, dmax)


def _components(vec):
    """The component lists (1, i, j, k) of a vector written flat, with the
    components of z^p at entries 4p..4p+3: the form in which
    `_intertwiner_kernel` hands its vectors over."""
    return [vec[r::4] for r in range(4)]


# -- the integer kernel against the search on the rational Matrix -------------

def _no_kernel(*system):
    raise AssertionError("the kernel ran")


def _same_as_reference(first, second, dmax):
    got = find_intertwiner(first, second, dmax)
    want = reference_find_intertwiner(first, second, dmax)
    assert got == want
    assert [(a.nums, a.den) for a in got] == [(a.nums, a.den) for a in want]
    return got


def test_find_intertwiner_matches_the_matrix_reference_on_planted_pairs():
    """A pure imaginary u conjugating F is an intertwiner at every degree
    bound; a u with a real part may leave none, though F and u F u^-1
    still share trace and norm."""
    rng = random.Random(2411)
    for degree in range(1, 9):
        f = rand_stem_nonslice(rng, degree)
        u = rand_pure_imaginary_quaternion(rng)
        dmax = rng.randint(0, 5)
        assert len(_same_as_reference(f, conjugate_stem(u, f), dmax)) >= dmax + 1
        _same_as_reference(f, conjugate_stem(rand_nonzero_quaternion(rng), f),
                           rng.randint(0, 5))


def test_find_intertwiner_matches_the_matrix_reference_on_rotated_generators():
    """F = c + N(a)*K and H = c + a*K*a^c, with a stem a of degree 1-2 and a
    pure K, share trace and norm; the generator N(a)*K + a*K*a^c has
    positive degree and nonzero lower entries, so the normal form is not
    the shifts z^k * g of one vector, and a wrong reduction shows.  A
    common factor p of degree 1-2, F = c + p*N(a)*K and H = c + p*a*K*a^c,
    cancels in g = (V + W) / gcd and leaves the basis as it is; a degree
    bound below deg g finds none."""
    rng = random.Random(2127)
    factors = random.Random(2128)
    z = StemPoly([0, 1])
    unshifted = 0
    for _ in range(60):
        a = StemPoly([rand_quaternion(rng) for _ in range(rng.randint(1, 2))]
                     + [rand_nonzero_quaternion(rng)])
        k = StemPoly.constant(rand_pure_imaginary_quaternion(rng))
        c = StemPoly(rand_poly(rng, 2).coeffs)
        first = c + StemPoly(a.norm().coeffs).star(k)
        second = c + a.star(k).star(a.conj())
        dmax = rng.randint(0, 6)
        basis = _same_as_reference(first, second, dmax)
        unshifted += any(high != low.star(z)
                         for low, high in zip(basis, basis[1:]))
        p = StemPoly([rand_fraction(factors)
                      for _ in range(factors.randint(1, 2))]
                     + [factors.choice((-2, -1, Fraction(1, 3), 1, 5))])
        assert _same_as_reference(c + p.star(first - c),
                                  c + p.star(second - c), dmax) == basis
        if basis and basis[0].degree > 0:
            assert not _same_as_reference(first, second, basis[0].degree - 1)
    assert unshifted >= 10


def test_find_intertwiner_matches_the_matrix_reference_on_the_worked_pair():
    """Every degree bound up to the unknowns cap; the pair's central
    divisors differ (1 against 1 + z^2/2), and it still has intertwiners
    from dmax 2 on."""
    assert equivalent(F_PAIR, G_PAIR).reason == "cdiv"
    for dmax in range(64):
        assert len(_same_as_reference(F_PAIR, G_PAIR, dmax)) == max(dmax - 1, 0)


@pytest.mark.parametrize("first, second", [
    ("1 + z*i + z^2*j", "1 + z*i + z^2*j"),                  # F = H
    ("i + z*j + (1/2)*z^2*k", "i + z*j + (1/2)*z^2*k"),
    ("1 + z*i + z^2*j", "1 - z*i - z^2*j"),                  # W_H = -W_F
    ("z*i + (2/3)*j - z^2*k", "-z*i - (2/3)*j + z^2*k"),
    ("(z^2 + 1)*(i + z*j)", "-(z^2 + 1)*(i + z*j)"),
    ("1 + z^2", "1 + z^2"),                                  # slice preserving
    ("(1/2)*z", "(1/2)*z"),
    ("0", "0"),
])
def test_find_intertwiner_matches_the_matrix_reference_on_degenerate_pairs(
        first, second):
    first, second = parse_stem(first), parse_stem(second)
    assert [_same_as_reference(first, second, dmax) for dmax in range(5)][-1]


@pytest.mark.parametrize("first, second, short", [
    # g's top component 1 + 4z + 3z^2: not a monomial, lead 3.
    ("i + z*j + (1+3*z+3*z^2)*k", "j + z*k + (1+3*z+3*z^2)*i", 2),
    ("i + z*j - (2-5*z+2*z^2)*k", "j + z*k - (2-5*z+2*z^2)*i", 2),
    # W = V, b = 2 + z + 3z^2: the units z^p sit between the rows.
    ("1 + i + z*j + (2 + z + 3*z^2)*k", "1 + i + z*j + (2 + z + 3*z^2)*k", 0),
    ("1 + z^2", "1 + z^2", 0),                               # central F = H
    ("i + z*j", "j + z*i", 0),              # V + W = (1 + z)(i + j), no k
    ("2*i + 4*z*j + 6*z^2*k", "2*j + 4*z*k + 6*z^2*i", 2),  # V not primitive
    ("(1/2)*i + (2/3)*z*j + (3/4)*z^2*k",
     "(1/2)*j + (2/3)*z*k + (3/4)*z^2*i", 2),               # rational entries
])
def test_find_intertwiner_closed_form_kernel_matches_the_matrix_reference(
        first, second, short):
    """The rows written down from g, against the search on the rational
    `Matrix`, at every degree bound up to 20 and at the unknowns cap; below
    deg g (short) there is no intertwiner, save the units when F = H."""
    first, second = parse_stem(first), parse_stem(second)
    for dmax in [*range(21), 63]:
        basis = _same_as_reference(first, second, dmax)
        assert bool(basis) == (dmax >= short)


@pytest.mark.parametrize("first, second", [
    ("i", "2*i"), ("i + z*j", "i + 2*z*j"),                  # norms differ
    ("1 + z*i", "2 + z*i"), ("z*i", "1 + z*i"),              # traces differ
    ("1 + z^2", "1 + z^2 + z*i"), ("1 + z^2", "2 + z^2"),    # slice preserving
    ("0", "i"), ("i", "0"),
])
def test_find_intertwiner_exits_on_trace_or_norm_before_the_kernel(
        monkeypatch, first, second):
    first, second = parse_stem(first), parse_stem(second)
    for dmax in (0, 3, 63):
        assert reference_find_intertwiner(first, second, dmax) == []
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel", _no_kernel)
    for dmax in (0, 3, 63):
        assert find_intertwiner(first, second, dmax) == []
    # The refusals come first, as before.
    with pytest.raises(ValueError):
        find_intertwiner(first, second, -1)
    with pytest.raises(LimitExceededError):
        find_intertwiner(first, second, 64)


@pytest.mark.parametrize("vec", [[1, 0, 0, -1], [1, 0, 0, 1]])
def test_find_intertwiner_re_verification_checks_both_relations(
        monkeypatch, vec):
    """1 - k satisfies i * alpha = alpha * j alone, and 1 + k satisfies
    alpha * i = j * alpha alone: each must be refused (its central part 1
    times V - W = i - j is not 0)."""
    alpha = StemPoly([Quaternion(*vec)])
    one_sided = (QI * alpha == alpha * QJ, alpha * QI == QJ * alpha)
    assert sorted(one_sided) == [False, True]
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel",
                        lambda *system: [_components(vec)])
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(StemPoly.constant(QI), StemPoly.constant(QJ), 0)


def test_find_intertwiner_re_verification_checks_the_central_part(
        monkeypatch):
    """1 + i + j for F = i, H = j: its pure part A = i + j satisfies
    V A = A W, but a (V - W) = i - j is not 0, and it satisfies neither
    relation, so the central-part condition alone must refuse it."""
    alpha = StemPoly([Quaternion(1, 1, 1)])
    pure = StemPoly([Quaternion(0, 1, 1)])
    assert QI * pure == pure * QJ
    assert QI * alpha != alpha * QJ and alpha * QI != QJ * alpha
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel",
                        lambda *system: [[[1], [1], [1], [0]]])
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(StemPoly.constant(QI), StemPoly.constant(QJ), 0)


def _accepts(monkeypatch, first, second, dmax, kernel) -> bool:
    """Whether the search's check accepts kernel handed over as its own: a
    copy, since the search trims the lists of the vectors it normalizes."""
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel", lambda *system:
                        [[list(xs) for xs in vec] for vec in kernel])
    try:
        find_intertwiner(first, second, dmax)
    except AssertionError as exc:
        assert "re-verification" in str(exc)
        return False
    return True


def _pairs_with_equal_traces_and_norms(rng):
    """(kind, F, H, extra vectors) for each kind of pair: conjugates by a
    pure u; F and u^-1 F u for a u with a real part, with u itself, which
    satisfies F u = u H alone; F = H with a central part; W = -V; and
    central F = H."""
    f = rand_stem_nonslice(rng, rng.randint(0, 4))
    u = rand_pure_imaginary_quaternion(rng)
    yield "conjugates", f, conjugate_stem(u, f), []
    u = rand_nonzero_quaternion(rng) + (rand_fraction(rng) or 1)
    yield ("one relation", f, conjugate_stem(u.inverse(), f),
           [StemPoly.constant(u * rand_fraction(rng, 9, 1) or u)])
    c, v = StemPoly(rand_poly(rng, 3).coeffs) + 1, f.hat()
    yield "F = H", c + v, c + v, []
    yield "W = -V", c + v, c - v, []
    yield "central F = H", c, c, []


def test_find_intertwiner_check_matches_the_two_relation_reference(
        monkeypatch):
    """On random kernels handed to the search, the check of the trace-free
    parts (a (V - W) = 0 and V A = A W) accepts exactly when both
    relations hold for every vector (`support.stacked_relations_hold`):
    the true kernel, integer combinations of its vectors, chains of shifts
    z^k X cut to the degree bound, the lowest true vector followed by z^-1
    times it, the true kernel, its combinations or a chain with one entry
    off by one, random vectors, random central vectors, and for F and
    u^-1 F u the vector u."""
    rng = random.Random(2929)
    seen = set()
    for _ in range(40):
        for kind, first, second, extra in _pairs_with_equal_traces_and_norms(
                rng):
            dmax = rng.randint(0, 4)
            f, h = _scaled_to_lcm(first, second)
            top = dmax + max(first.degree, second.degree, 0)
            # Central F = H never reaches the kernel: K is its units z^p.
            true = ([[[int(q == p and c == r) for q in range(dmax + 1)]
                      for c in range(4)]
                     for p in range(dmax + 1) for r in range(4)]
                    if kind == "central F = H"
                    else _intertwiner_kernel(f, h, dmax, top,
                                             _generator(f, h)))
            combos = [[[sum(rng.randint(-2, 2) * vec[r][p] for vec in true)
                        for p in range(dmax + 1)] for r in range(4)]
                      for _ in range(2)] if true else []
            rand = [[[rng.randint(-3, 3) for _ in range(dmax + 1)]
                     for _ in range(4)] for _ in range(2)]
            central = [[[rng.randint(-3, 3) for _ in range(dmax + 1)]]
                       + [[0] * (dmax + 1)] * 3]
            extra = [[xs + [0] * (dmax + 1 - len(xs)) for xs in alpha.nums]
                     for alpha in extra]
            kernels = [true, combos, rand, central, extra, true + extra]
            # Chains of shifts z^k X, cut to dmax + 1: of the top vector of
            # the true kernel, whose top entry is not 0, of a combination
            # and of a random vector; and the lowest true vector followed
            # by z^-1 times it, cut.
            for vec in true[-1:] + combos[:1] + rand[:1]:
                chain = [vec]
                for _ in range(rng.randint(1, 3)):
                    chain.append(_shift(chain[-1]))
                kernels += [chain, true[:1] + chain]
            kernels += [[vec, [xs[1:] + [0] for xs in vec]]
                        for vec in true[:1]]
            for vectors in (true, combos, chain):
                if vectors:
                    moved = [[list(xs) for xs in vec] for vec in vectors]
                    rng.choice(rng.choice(moved))[rng.randint(0, dmax)] += (
                        rng.choice((-1, 1)))
                    kernels.append(moved)
            for kernel in kernels:
                # A zero vector has no lead to normalize by.
                kernel = [vec for vec in kernel if any(map(any, vec))]
                want = stacked_relations_hold(f, h, kernel, top)
                assert _accepts(monkeypatch, first, second, dmax,
                                kernel) == want
                seen.add((kind, want))
    assert seen == {(kind, verdict) for kind in (
        "conjugates", "one relation", "F = H", "W = -V")
        for verdict in (True, False)} | {("central F = H", True)}


def _shift(vec):
    """z times a vector of component lists, cut to their length."""
    return [[0] + xs[:-1] for xs in vec]


def test_find_intertwiner_check_refuses_a_shift_cut_at_the_degree_bound(
        monkeypatch):
    """[A, zA cut to dmax + 1] for the worked pair's one vector A at dmax 2,
    whose top entry is not 0: the cut zA intertwines nothing, so it is not
    z times a checked vector and must be multiplied."""
    dmax = 2
    f, h = _scaled_to_lcm(F_PAIR, G_PAIR)
    (vec,) = _intertwiner_kernel(f, h, dmax, dmax + 2, _generator(f, h))
    assert any(xs[-1] for xs in vec)
    kernel = [vec, _shift(vec)]
    assert stacked_relations_hold(f, h, kernel[:1], dmax + 2)
    assert not stacked_relations_hold(f, h, kernel[1:], dmax + 2)
    assert _accepts(monkeypatch, F_PAIR, G_PAIR, dmax, kernel[:1])
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel",
                        lambda *system: kernel)
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(F_PAIR, G_PAIR, dmax)


@pytest.mark.parametrize("index", [1, 5, 10])
@pytest.mark.parametrize("place", [(2, 0), (3, 0), (2, -1), (3, -1),
                                   (3, 6)])
def test_find_intertwiner_check_refuses_a_broken_shift_chain(
        monkeypatch, index, place):
    """The worked pair's basis at dmax 12 is a chain of shifts z^k g; one
    entry of a later vector off by one, at its lowest or top degree or in
    between, breaks the chain there, and that vector must be multiplied."""
    dmax = 12
    f, h = _scaled_to_lcm(F_PAIR, G_PAIR)
    true = _intertwiner_kernel(f, h, dmax, dmax + 2, _generator(f, h))
    assert all(vec == _shift(prev) for prev, vec in zip(true, true[1:]))
    comp, degree = place
    true[index][comp][degree] += 1
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel",
                        lambda *system: true)
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(F_PAIR, G_PAIR, dmax)


def test_find_intertwiner_check_refuses_a_shift_chain_of_a_non_intertwiner(
        monkeypatch):
    """X, zX, z^2 X with X = i + z*j, top entries 0: every vector after the
    first is z times the one before, so the first must be multiplied."""
    dmax = 4
    low = [[0] * 5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0] * 5]
    kernel = [low, _shift(low), _shift(_shift(low))]
    f, h = _scaled_to_lcm(F_PAIR, G_PAIR)
    assert not stacked_relations_hold(f, h, kernel[:1], dmax + 2)
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel",
                        lambda *system: kernel)
    with pytest.raises(AssertionError, match="re-verification"):
        find_intertwiner(F_PAIR, G_PAIR, dmax)


def test_find_intertwiner_re_verification_checks_the_degree_bound(
        monkeypatch):
    """The worked pair's basis at degree bound 2 handed to a search at 1:
    its one vector has degree 2, and its block of the stacked stem would
    reach into the next block's place, so it must be refused."""
    def one_degree_up(f, h, dmax, top, g):
        return _intertwiner_kernel(f, h, dmax + 1, top + 1, g)

    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel", one_degree_up)
    with pytest.raises(AssertionError, match="degree bound"):
        find_intertwiner(F_PAIR, G_PAIR, 1)


@pytest.mark.parametrize("first, second, normalized, products", [
    # g_r = z^2, a monomial: g, then z times the one before.
    ("i + z*j + (1/2)*z^2*k", "(1 + (1/2)*z^2)*i", 1, 2),
    # g_r = 1 + 3z + z^2: row operations, every vector multiplied.
    ("i + z*j + (1+3*z+z^2)*k", "j + z*k + (1+3*z+z^2)*i", None, 4),
    # W = V, g = i + z*j: the units z^p at component 0 sit between the
    # shifts of g, so each of both chains is z times the vector two back.
    ("1 + z*i + z^2*j", "1 + z*i + z^2*j", 2, 2),
    ("1 + z*i + z^2*j", "1 - z*i - z^2*j", None, 2),      # W = -V
    ("1 + z^2", "1 + z^2", 0, 0),                          # central F = H
])
def test_find_intertwiner_stems_are_in_normal_form(
        monkeypatch, first, second, normalized, products):
    """Each stem returned, those written as z times the one two or one
    before included, is `normalize_intertwiner` of itself rebuilt through
    `StemPoly` at another scale, in nums and den.  g passes by its own
    check (two products), and neither the shifts nor a zero pure part is
    stacked: `_over_lead` runs only on the chains' first vectors
    (normalized; None where not counted), and the stacked product (two
    more) only where a vector is left to multiply."""
    first, second = parse_stem(first), parse_stem(second)
    over_lead, mul = slicereg.equiv._over_lead, slicereg.equiv._mul_components
    calls = {"lead": 0, "mul": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(slicereg.equiv, "_over_lead",
                        counted("lead", over_lead))
    monkeypatch.setattr(slicereg.equiv, "_mul_components",
                        counted("mul", mul))
    for dmax in [*range(13), 63]:
        calls.update(lead=0, mul=0)
        basis = find_intertwiner(first, second, dmax)
        if len(basis) > 1:
            assert normalized in (None, calls["lead"])
            assert calls["mul"] == products
        for alpha in basis:
            rebuilt = StemPoly(alpha.coeffs) * Fraction(-7, 3)
            assert rebuilt != alpha
            again = normalize_intertwiner(rebuilt)
            assert (again.nums, again.den) == (alpha.nums, alpha.den)
    assert len(basis) > 60


@pytest.mark.parametrize("first, second", [
    ("1", "1 + z*i"), ("1 + z*i", "1"), ("0", "i"),
    ("1 + z^2", "1 + z^2 - z*j"),
])
def test_find_intertwiner_norm_mismatch_of_a_central_stem(
        monkeypatch, first, second):
    """A central stem against one that is not, with equal traces: V + W
    is not 0, and g's check alone exits, before the kernel; with V = 0 no
    stacked product could refuse the shifts z^k g of the kernel."""
    first, second = parse_stem(first), parse_stem(second)
    for dmax in (0, 3):
        assert reference_find_intertwiner(first, second, dmax) == []
    monkeypatch.setattr(slicereg.equiv, "_intertwiner_kernel", _no_kernel)
    for dmax in (0, 3, 12, 63):
        assert find_intertwiner(first, second, dmax) == []


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


def _same_report(first, second, alpha):
    got = verify_conjugator(first, second, alpha)
    want = reference_verify_conjugator(first, second, alpha)
    assert (got.intertwines, got.norm_alpha, got.invertible_on_C,
            got.conjugation_identity) == (
        want.intertwines, want.norm_alpha, want.invertible_on_C,
        want.conjugation_identity)
    return got


def test_verify_conjugator_matches_the_product_stem_reference():
    """Packed checks against `StemPoly.star` products, on 1,250 triples: a
    constant conjugator, as a `Quaternion` and as a stem, with F and H
    scaled by one rational (mixed denominators); a polynomial alpha with
    alpha * (N(alpha) F) = (alpha F alpha^c) * alpha, whose norm is not
    constant; the same alpha scaled by a rational; and invertible and
    polynomial candidates that do not intertwine."""
    rng = random.Random(2431)
    seen = set()
    for _ in range(250):
        f = rand_stem(rng, rng.randint(0, 6))
        u = rand_nonzero_quaternion(rng)
        t = rand_fraction(rng) or Fraction(1, 7)
        h = conjugate_stem(u, f)
        a = StemPoly([rand_quaternion(rng) for _ in range(rng.randint(0, 2))]
                     + [rand_nonzero_quaternion(rng)])
        nf = f.star(StemPoly(a.norm().coeffs))
        triples = [(f * t, h * t, u), (f, h, StemPoly.constant(u * t)),
                   (nf, a.star(f).star(a.conj()), a * t),
                   (f, conjugate_stem(rand_nonzero_quaternion(rng), f), u),
                   (f, rand_stem(rng, 6), a)]
        for first, second, alpha in triples:
            report = _same_report(first, second, alpha)
            seen.add((report.intertwines, report.conjugation_identity))
    assert seen == {(True, True), (True, None), (False, False),
                    (False, None)}


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 16, 31, 64])
def test_verify_conjugator_at_the_worst_case_width(bits):
    """Entries +-(2**bits - 1) of one sign, so that the convolutions reach
    their bounds, and near misses whose difference has a root at a
    packing point.  For alpha = m*z (m = 2**bits - 1, norm not constant),
    F = f0 = 2**b - 1 and H = (h0 + z)/d with h0 = f0*d - xi and
    xi = 2**(8*w), the integer stems compared over the one denominator d,
    m*z*(f0*d) and (h0 + z)*m*z, differ by m*z*(xi - z), which vanishes at
    xi alone: a check that packed at exactly w bytes would call them
    equal.  The bits of d enter the width through the scaled entry
    f0*d >= xi, which carries it past w; a width read off the unscaled
    entries is too narrow for that entry for one of these triples, and
    packing it raises.  The pair is also checked the other way round,
    F = (h0 + z)/d and H = f0, and with alpha = m (constant norm), whose
    identity has no width of its own: it is read off the same check."""
    m = 2 ** bits - 1
    one = Quaternion(1, 1, 1, 1)
    for sign, terms in itertools.product((1, -1), (1, 3, 8)):
        f = StemPoly([one * (sign * m)] * terms)
        for alpha in (StemPoly([one * m] * terms), StemPoly.constant(one * m),
                      StemPoly.constant(Quaternion(m, m)),
                      StemPoly([0, m] * terms)):
            _same_report(f, f, alpha)
            _same_report(f, f * Fraction(1, m + 2), alpha)
    for b, w in itertools.product(range(1, 30), range(1, 9)):
        f0, xi = 2 ** b - 1, 2 ** (8 * w)
        d = -(-xi // f0)
        near = StemPoly([Fraction(f0 * d - xi, d), Fraction(1, d)])
        for alpha in (StemPoly([0, m]), StemPoly.constant(m)):
            for first, second in ((StemPoly.constant(f0), near),
                                  (near, StemPoly.constant(f0))):
                report = _same_report(first, second, alpha)
                assert not report.intertwines
                assert report.conjugation_identity is (
                    None if alpha.degree else False)


@pytest.mark.parametrize("first, second", [
    (F_PAIR, G_PAIR),
    ("1 + z*i + z^2*j", "1 + z*i + z^2*j"),                  # W = V
    ("1 + z*i + z^2*j", "1 - z*i - z^2*j"),                  # W = -V
    ("1 + z^2", "1 + z^2"),                                  # central F = H
])
def test_intertwiners_are_checked_without_product_stems_or_quotients(
        monkeypatch, first, second):
    """The search, its re-verification and the conjugator check run on the
    stored integer lists: no `StemPoly.star` and no `Poly` division."""
    first, second = (parse_stem(x) if isinstance(x, str) else x
                     for x in (first, second))
    basis = find_intertwiner(first, second, 6)
    report = verify_conjugator(first, second, basis[0])

    def refused(*args):
        raise AssertionError("product stem or Poly quotient built")

    monkeypatch.setattr(StemPoly, "star", refused)
    monkeypatch.setattr(Poly, "__divmod__", refused)
    with pytest.raises(AssertionError, match="built"):
        divmod(Poly([1, 1]), Poly([1]))
    with pytest.raises(AssertionError, match="built"):
        first.star(second)
    assert find_intertwiner(first, second, 6) == basis
    assert verify_conjugator(first, second, basis[0]) == report
    assert report.intertwines


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
    assert [c.reason for c in report.checks if not c.passed] == ["trace"]


def test_pointwise_scan_zero_mismatch():
    report = pointwise_orbit_scan(StemPoly([0, QI]), StemPoly.constant(QI),
                                  [GaussRat(0)])
    assert not report.all_pass
    assert [c.reason for c in report.checks if not c.passed] == [
        "zero-mismatch"]
    # Where both stems vanish the sample passes.
    both = pointwise_orbit_scan(StemPoly([0, QI]), StemPoly([0, QJ]), [0, 1])
    assert [(c.passed, c.reason) for c in both.checks] == [(True, None)] * 2


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
    for _ in range(30):
        first = rand_stem(rng)
        second = rand_stem(rng)
        alpha = rand_nonzero_quaternion(rng)
        direct = equivalent(first, second)
        moved = equivalent(conjugate_stem(alpha, first), second)
        assert direct.equivalent == moved.equivalent


# -- the integer decision against invariants computed in sympy ----------------

def _sympy_verdict(sp, first, second):
    """(equivalent, reason) from the definition: literal equality when
    either stem is slice preserving, else trace, then the norm as a sum of
    squares, then the monic gcd of c1..c3, all computed in sympy."""
    z = sp.Symbol("z")

    def parts(stem):
        return [sp.Poly(sum((sp.Rational(c.numerator, c.denominator) * z ** k
                             for k, c in enumerate(p.coeffs)), sp.Integer(0)),
                        z, domain="QQ") for p in stem.parts]

    f, h = parts(first), parts(second)
    if all(p.is_zero for p in f[1:]) or all(p.is_zero for p in h[1:]):
        return (True, None) if f == h else (False, "identity")
    if f[0] != h[0]:
        return False, "trace"
    if sum(p ** 2 for p in f) != sum(p ** 2 for p in h):
        return False, "norm"

    def cdiv(ps):
        return reduce(sp.gcd, [p for p in ps[1:] if not p.is_zero]).monic()

    if cdiv(f) != cdiv(h):
        return False, "cdiv"
    return True, None


def _stem_of_degree(rng, degree):
    while True:
        stem = StemPoly([rand_quaternion(rng) for _ in range(degree)]
                        + [rand_nonzero_quaternion(rng)])
        if not stem.is_slice_preserving():
            return stem


def _planted_pairs(rng, degree):
    """The three planted pairs of one degree: conjugates (equivalent), a
    trace-preserving change of the top coefficient (norm), and q v q^c
    against N(q) v (same trace and norm, divisor N(q))."""
    f = _stem_of_degree(rng, degree)
    h = conjugate_stem(rand_nonzero_quaternion(rng), f)
    top = h.coeffs[-1]
    bumped = StemPoly(h.coeffs[:-1] + (top + (top.imag() or QI),))
    q = _stem_of_degree(rng, degree // 2)
    v = StemPoly([rand_pure_imaginary_quaternion(rng)])
    planted = StemPoly([v.coeffs[0] * c for c in q.norm().coeffs])
    return [(f, h, (True, None)), (f, bumped, (False, "norm")),
            (q.star(v).star(q.conj()), planted, (False, "cdiv"))]


def test_equivalent_matches_sympy_invariants():
    sp = pytest.importorskip("sympy")
    rng = random.Random(4376)
    u = Quaternion(1, 2)                 # norm 5: conjugates gain denominators
    pairs = [
        # Denominator 1 on both sides.
        (parse_stem("i + z*j"), parse_stem("i + 2*z*j"), None),
        (parse_stem("(1+z*i)*j*(1-z*i)"), parse_stem("(1+z^2)*j"), None),
        (parse_stem("3*i + z*j - 2*z^2*k"),
         conjugate_stem(QJ, parse_stem("3*i + z*j - 2*z^2*k")), None),
        # Norms equal only after cross-multiplying the denominators 1 and
        # 25, and integer sums of squares equal over denominators 1 and 2.
        (parse_stem("i + z*j + z^2*k"),
         conjugate_stem(u, parse_stem("i + z*j + z^2*k")), None),
        (parse_stem("i + z*j"), parse_stem("(1/2)*i + (1/2)*z*j"), None),
        (parse_stem("(3/5)*i + (4/5)*j"), parse_stem("k"), None),
        # Traces equal only after cross-multiplying the denominators 10 and
        # 2, then unequal ones; equal c0 numerators over the denominators 2
        # and 3; and 65-bit c0 numerators that differ by 1, over 7 and 7
        # and over 7 and 14 (2 * (2**64 + 3) against 2**65 + 7).
        (parse_stem("(1/2)*z + (3/5)*i + (4/5)*j"), parse_stem("(1/2)*z + k"),
         None),
        (parse_stem("(1/2)*z + (3/5)*i + (4/5)*j"), parse_stem("(1/3)*z + k"),
         None),
        (parse_stem("(1/2)*z + i"), parse_stem("(1/3)*z + j"), None),
        (parse_stem(f"({2 ** 64 + 3}/7)*z + i"),
         parse_stem(f"({2 ** 64 + 4}/7)*z + j"), None),
        (parse_stem(f"({2 ** 64 + 3}/7)*z + i"),
         parse_stem(f"({2 ** 65 + 7}/14)*z + j"), None),
        # Primitive gcds with negative leading coefficients, and zero
        # components among c1..c3.
        (parse_stem("-(1 + z)*i"), parse_stem("(1 + z)*j"), None),
        (parse_stem("(1 - 2*z)*i"), parse_stem("(2*z - 1)*k"), None),
        (parse_stem("-(1 + z)*i - (1 + z)*z*k"),
         parse_stem("(1 + z)*j + (1 + z)*z*k"), None),
        (parse_stem("(1 + z)*(2 - z)*i"), parse_stem("(1 + z)*(z - 2)*k"), None),
        # Degree 0.
        (StemPoly.constant(QI), StemPoly.constant(QJ), None),
        (StemPoly.constant(QI), StemPoly.constant(2 * QI), None),
        (StemPoly.constant(1 + QI), StemPoly.constant(1 + QK), None),
        (StemPoly.constant(QI), StemPoly.constant(Quaternion(0, 1, 1)), None),
        (StemPoly.constant(2), StemPoly.constant(QI), None),
    ]
    for _ in range(40):
        f = rand_stem_nonslice(rng, 4)
        pairs.append((f, conjugate_stem(rand_nonzero_quaternion(rng), f), None))
        pairs.append((f, f + StemPoly([rand_pure_imaginary_quaternion(rng)]),
                      None))
        pairs.append((f, rand_stem(rng, 4), None))
    for degree in (2, 8, 64):
        pairs += _planted_pairs(rng, degree)
    for first, second, planted in pairs:
        want = _sympy_verdict(sp, first, second)
        assert planted is None or planted == want
        for f, h in ((first, second), (second, first)):
            verdict = equivalent(f, h)
            assert (verdict.equivalent, verdict.reason) == want


def _schoolbook_norm(stem):
    """The sum of the squares of the stored lists, entry by entry, over
    den**2."""
    out = [0] * (2 * stem.degree + 1)
    for xs in stem.nums:
        for m, x in enumerate(xs):
            for n, y in enumerate(xs):
                out[m + n] += x * y
    return Poly(out) * Fraction(1, stem.den ** 2)


# Trace-free stems f / 22 and h / 26 of degree 1.  Over the lcm 286 their
# lists are 13 f and 11 h, and 169 |f''|**2 - 121 |h''|**2 = 2z - 2**17,
# which is not zero but vanishes at z = 2**16.
CARRY = (StemPoly._from_rows([[], [-6, -15], [9, -4], [-4, -1]], 22),
         StemPoly._from_rows([[], [-16, -16], [22, -9], [-23, -1]], 26))


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64])
def test_norm_comparison_is_exact_at_the_digit_width(bits):
    """Integer stems of coefficients +-(2**bits - 1), of unequal lengths,
    all with trace 2*(2**bits - 1).  With equal signs and full-length
    parts a norm coefficient reaches nearly 4*n*(2**bits - 1)**2 for
    length n, the most the digit width of `StemPoly.norm` (the
    `_product_width` of the lists with themselves) and of the norm
    comparison allows; length 1 (odd bit sizes) and lengths 64-127 (even
    ones) put that bound right at a byte boundary, where a width two bits
    short overflows a digit.
    The same parts, trace-free, also come over denominators 4, 22, 26 and
    44 in turn, which share factors and are prime to 2**bits - 1, so they
    stay in lowest terms.  The comparison scales two stems to the lcm of
    their denominators, which multiplies the lists by up to 13, so its
    width must come from the scaled lists.  `CARRY` adds a pair over 22
    and 26 whose norms differ although the sums of squares agree at
    z = 2**16, the point of a width sized from the stored lists (2 bytes
    instead of 3).  Conjugating by 1 + 2k multiplies a denominator by 5 and
    must keep a stem equivalent.  Every norm must match the schoolbook sum
    of squares, and two stems of one trace must compare equal in norm
    exactly when their norms are equal."""
    rng = random.Random(bits)
    top = 2 ** bits - 1
    stems, rational, dens = [], list(CARRY), itertools.cycle((4, 22, 26, 44))
    for n in (1, 2, 3, 70, 100, 127):
        for equal_signs in (True, False):
            lengths = [n] * 3 if equal_signs else [rng.randint(1, n)
                                                   for _ in range(3)]
            lengths[rng.randrange(3)] = n
            parts = [[top]] + [[top if equal_signs else rng.choice((-top, top))
                                for _ in range(m)] for m in lengths]
            flipped = [list(p) for p in parts]
            flipped[2][len(flipped[2]) // 2] *= -1
            for ps in (parts, flipped):
                stems.append(stem_from_parts(Poly(p) for p in ps))
                rational.append(StemPoly._from_rows(
                    [[]] + [list(p) for p in ps[1:]], next(dens)))
    for family in (stems, rational):
        norms = [_schoolbook_norm(s) for s in family]
        for stem, norm in zip(family, norms):
            assert stem.norm() == norm
            for alpha in (QJ, 1 + 2 * QK):
                assert equivalent(stem, conjugate_stem(alpha, stem)).equivalent
        for (f, nf), (h, nh) in itertools.product(zip(family, norms),
                                                  repeat=2):
            assert (equivalent(f, h).reason == "norm") == (nf != nh)

def test_norm_is_decided_on_the_trace_free_parts():
    """Equal traces leave only |F''|**2 to compare, and the packing width
    must cover c1..c3 whatever the width of c0: c0 of 200 bits against
    single-digit c1..c3, the other way round, and c3 alone of 200 bits,
    so the width must come from the widest of the three.  H rotates F''
    in the (i, j) plane, by a quarter turn (same denominator) or by
    (3/5, 4/5) (denominator 5): same trace, norm and divisor.  Adding 1 to
    one c3 coefficient of H keeps its trace and changes its norm."""
    rng = random.Random(200)
    wide, narrow = (lambda: rng.randint(2 ** 199, 2 ** 200)), (
        lambda: rng.randint(-9, 9))
    for entries in ((wide, narrow, narrow, narrow), (narrow, wide, wide, wide),
                    (narrow, narrow, narrow, wide)):
        for _ in range(4):
            n = rng.randint(1, 8)
            c0, c1, c2, c3 = [[entries[0]() for _ in range(n)]] + [
                [entry() for _ in range(n)] + [1] for entry in entries[1:]]
            f = stem_from_parts(Poly(p) for p in (c0, c1, c2, c3))
            turn = [Poly(c0), -Poly(c2), Poly(c1), Poly(c3)]
            tilt = [Poly(c0), Poly(c1) * Fraction(3, 5) - Poly(c2) * Fraction(4, 5),
                    Poly(c1) * Fraction(4, 5) + Poly(c2) * Fraction(3, 5), Poly(c3)]
            for parts in (turn, tilt):
                h = stem_from_parts(parts)
                k = rng.randrange(n + 1)
                off = stem_from_parts(parts[:3] + [parts[3] + ZP ** k])
                assert f.den == 1 and h.den == (1 if parts is turn else 5)
                for a, b in ((f, h), (h, f)):
                    assert equivalent(a, b).equivalent
                for a, b in ((f, off), (off, f), (h, off), (off, h)):
                    assert a.norm() != b.norm() and a.trace() == b.trace()
                    assert equivalent(a, b).reason == "norm"


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
