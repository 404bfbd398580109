"""Equivalence decisions, orbit classification, and intertwiners.

Two stem polynomials F, H are equivalent when one is carried to the other
by a pointwise-varying algebra automorphism.  The decision is exact:

* If neither is slice preserving, equivalence holds iff trace, norm and
  central divisor all agree.
* If either is slice preserving, automorphisms fix its values pointwise,
  so equivalence degenerates to literal equality F = H.

The automorphism group fixes the center and acts on the trace-free part W
as the special orthogonal group of the bilinear form B.  Its orbits on
the complexified W are: the single points of the center, the null cone
B(v, v) = 0 minus the origin (isotropy the additive group), and the level
sets B(v, v) = lambda != 0 (isotropy a one-dimensional torus).  A center
value and a null-cone value share trace and norm without being conjugate,
which is why `orbit_equivalent` carries an explicit nonzero-W guard on
top of the trace/norm comparison.

Intertwiners make equivalence effective.  `find_intertwiner` returns the
stems alpha satisfying the intertwining relation in both orders,

    F * alpha = alpha * H   and   alpha * F = H * alpha,

which is linear in alpha's coefficients, so all candidates up to a degree
bound come out of one exact nullspace (none when trace or norm differ: a
nonzero alpha is invertible over Q(z)).  The system is assembled on
integers: F and H are scaled by one common denominator, each pair of
coefficients (F_q, H_q) gives the 4x4 integer blocks of a -> F_q a - a H_q
and a -> H_q a - a F_q once, each column the image of a unit under the
quaternion product `algebra._mul_components`, and the rows are
block-Toeplitz strips of those blocks, which the integer kernel
`poly._integer_nullspace` eliminates fraction-free.  Its integer null
vectors are then checked by multiplication, independently of the rows:
they are stacked into one integer stem A, vector i at z^(i*step), with
step one more than the highest degree a product of F or H with one vector
can reach.  Each relation is then two products of stems packed at one
width (F A against A H, and A F against H A, each `_mul_components` of
the packed components), equal iff their balanced digits are.  Since z is
central and the blocks of a product never meet, A satisfies a relation
exactly when every kernel vector does.  When trace(F) = trace(H)
the two relations are exchanged by alpha -> alpha^c, so the solution
space is the conjugation-stable part of either one-sided kernel; the
one-sided kernels alone are strictly larger (they admit mixed-symmetry
solutions) and would not be pinned down by a canonical generator.
`verify_conjugator` checks a candidate against alpha * F = H * alpha,
the form in which an invertible alpha exhibits F = alpha**-1 * H * alpha.
When norm(alpha) is a nonzero constant, alpha is invertible with
polynomial inverse on all of C; a nonconstant norm(alpha) means the
inverse exists only away from the norm's zero set.
"""

from __future__ import annotations

import operator
from itertools import chain, zip_longest
from math import lcm

from .algebra import CQuat, _mul_components, bform
from .errors import LimitExceededError, ZeroAlphaError, ZeroInputError
from .poly import (Poly, _gcd_ints, _integer_nullspace, _max_bits, _pack,
                   _product_width)
from .scalars import GaussRat, Record
from .stem import SLICE_PRESERVING, R3StemPoly, StemPoly, _packed

BRANCH_NOT_SLICE_PRESERVING = "NotSlicePreserving"
BRANCH_SLICE_PRESERVING = "SlicePreservingIdentical"

KIND_CENTER_FIXED = "CenterFixed"
KIND_NULL_CONE = "NullCone"
KIND_GENERIC = "Generic"

ISOTROPY_FULL_GROUP = "FullGroup"
ISOTROPY_ADDITIVE = "AdditiveC"
ISOTROPY_TORUS = "TorusCstar"


class InvariantBundle(Record):
    """The complete invariant triple of a stem polynomial."""

    trace: Poly
    norm: Poly
    central_divisor: object  # Divisor, or SLICE_PRESERVING

    @property
    def is_slice_preserving(self) -> bool:
        return self.central_divisor is SLICE_PRESERVING


def invariants(stem: StemPoly) -> InvariantBundle:
    cdiv = (SLICE_PRESERVING if stem.is_slice_preserving()
            else stem.central_divisor())
    return InvariantBundle(stem.trace(), stem.norm(), cdiv)


class EquivVerdict(Record):
    equivalent: bool
    branch: str
    reason: str | None = None  # first failing invariant when not equivalent


def equivalent(first: StemPoly, second: StemPoly) -> EquivVerdict:
    """Decide equivalence under pointwise automorphism conjugation, on the
    stored integer lists f, h over the denominators d_F, d_H: the traces
    agree iff f0 * d_H = h0 * d_F; then the norms agree iff the trace-free
    parts f'' = (f1, f2, f3) and h'' do, |f''|**2 * d_H**2 = |h''|**2 * d_F**2,
    three squares a side read at the point of `_packed` for the lists times
    the other d; and the central divisors iff f'' and h'' share `_gcd_ints`,
    which reuses those packs: c0 is never packed."""
    if first.is_slice_preserving() or second.is_slice_preserving():
        same = first == second
        return EquivVerdict(same, BRANCH_SLICE_PRESERVING,
                            None if same else "identity")
    reason, packs = _trace_norm_mismatch(first, second)
    if reason is None and _gcd_ints(*packs[0]) != _gcd_ints(*packs[1]):
        reason = "cdiv"
    return EquivVerdict(reason is None, BRANCH_NOT_SLICE_PRESERVING, reason)


def _trace_norm_mismatch(first: StemPoly, second: StemPoly):
    """("trace" or "norm", None) for the first of them that differs, read as
    in `equivalent`; else (None, the `_gcd_ints` arguments of each W part)."""
    (f0, *f), f_den = first.nums, first.den
    (h0, *h), h_den = second.nums, second.den
    # The trace is 2*c0, so comparing c0 compares traces.
    if (f0 != h0 if f_den == h_den
            else [x * h_den for x in f0] != [x * f_den for x in h0]):
        return "trace", None
    bits = max(_max_bits(chain.from_iterable(f)) + h_den.bit_length(),
               _max_bits(chain.from_iterable(h)) + f_den.bit_length())
    n = max(map(len, f + h))
    (f_at, width), (h_at, _) = _packed(f, bits, n), _packed(h, bits, n)
    if (sum(x * x for x in f_at) * h_den ** 2
            != sum(x * x for x in h_at) * f_den ** 2):
        return "norm", None
    return None, ((f, f_at, width), (h, h_at, width))


class R3EquivVerdict(Record):
    """Componentwise verdicts for a pair, with the optional swapped pairing.

    `pairing` names the pairing that succeeded ("direct" or "swapped"),
    or is None when the pair is not equivalent.
    """

    equivalent: bool
    pairing: str | None
    direct: tuple
    swapped: tuple | None = None


def r3_equivalent(first: R3StemPoly, second: R3StemPoly,
                  allow_swap: bool = False) -> R3EquivVerdict:
    """Decision over H + H.

    Componentwise verdicts decide equivalence under the connected
    automorphism group; with allow_swap the component-exchanging
    automorphism is admitted as well and the swapped pairing is tried.
    """
    d1 = equivalent(first.first, second.first)
    d2 = equivalent(first.second, second.second)
    if d1.equivalent and d2.equivalent:
        return R3EquivVerdict(True, "direct", (d1, d2))
    if not allow_swap:
        return R3EquivVerdict(False, None, (d1, d2))
    s1 = equivalent(first.first, second.second)
    s2 = equivalent(first.second, second.first)
    if s1.equivalent and s2.equivalent:
        return R3EquivVerdict(True, "swapped", (d1, d2), (s1, s2))
    return R3EquivVerdict(False, None, (d1, d2), (s1, s2))


def _orbit_obstruction(p: CQuat, q: CQuat) -> str | None:
    """Why p and q are not in one automorphism orbit; None when they are."""
    pc, pw = p.split()
    qc, qw = q.split()
    if pc != qc:
        return "trace"
    if bform(pw, pw) != bform(qw, qw):
        return "norm"
    if bool(pw) != bool(qw):
        # Trace and norm cannot separate the center from the null cone,
        # but no automorphism moves a central value off the center.
        return "null-cone-vs-center"
    return None


def orbit_equivalent(p, q) -> bool:
    """Whether an automorphism of the complexified algebra maps p to q."""
    p = CQuat.coerce(p)
    q = CQuat.coerce(q)
    if not p or not q:
        raise ZeroInputError("orbit comparison needs nonzero elements")
    return _orbit_obstruction(p, q) is None


class OrbitClass(Record):
    kind: str
    lam: GaussRat  # B(v'', v''); the orbit level for the generic stratum
    isotropy: str


def classify_orbit(v) -> OrbitClass:
    """Place the trace-free part of v in the orbit stratification."""
    v = CQuat.coerce(v)
    w = v.w_part()
    lam = bform(w, w)
    if not w:
        return OrbitClass(KIND_CENTER_FIXED, lam, ISOTROPY_FULL_GROUP)
    if not lam:
        return OrbitClass(KIND_NULL_CONE, lam, ISOTROPY_ADDITIVE)
    return OrbitClass(KIND_GENERIC, lam, ISOTROPY_TORUS)


class SampleCheck(Record):
    sample: GaussRat
    passed: bool
    reason: str | None


class OrbitScanReport(Record):
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def pointwise_orbit_scan(first: StemPoly, second: StemPoly,
                         samples) -> OrbitScanReport:
    """Check pointwise orbit equivalence of two stems on sample points.

    A failing sample certifies non-equivalence outright.  All samples
    passing is necessary but not sufficient: the central divisor can still
    separate the functions.
    """
    checks = []
    for z in samples:
        z = GaussRat.coerce(z)
        fv = first.eval_stem(z)
        hv = second.eval_stem(z)
        if not fv and not hv:
            checks.append(SampleCheck(z, True, None))
        elif not fv or not hv:
            checks.append(SampleCheck(z, False, "zero-mismatch"))
        else:
            reason = _orbit_obstruction(fv, hv)
            checks.append(SampleCheck(z, reason is None, reason))
    return OrbitScanReport(tuple(checks))


# The largest intertwiner search accepted: 4 * (dmax + 1) unknowns, so
# dmax <= 63.  The README's worked pair at dmax 12 has 52.
MAX_INTERTWINER_UNKNOWNS = 256


def _relation_block(c, d):
    """The integer 4x4 matrix of a -> c * a - a * d on the components
    (1, i, j, k) of a, for c and d given by their components: column t is
    the image c * e_t - e_t * d of the unit e_t."""
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return list(zip(*[map(operator.sub, _mul_components(*c, *e),
                          _mul_components(*e, *d)) for e in units]))


def find_intertwiner(first: StemPoly, second: StemPoly,
                     dmax: int) -> list[StemPoly]:
    """All alpha with deg alpha <= dmax intertwining first and second:
    first * alpha = alpha * second and alpha * first = second * alpha.

    Returns an exact basis of the solution space (empty when there is no
    solution at this degree bound).  Basis vectors are normalized so the
    lowest-degree nonzero coefficient has its first nonzero component
    (component order 1, i, j, k) equal to 1, and are re-verified by
    multiplication before being returned, all at once in the stacked
    integer products of the module docstring.  More than
    MAX_INTERTWINER_UNKNOWNS unknowns raise LimitExceededError.
    """
    if dmax < 0:
        raise ValueError("degree bound must be nonnegative")
    unknowns = 4 * (dmax + 1)
    if unknowns > MAX_INTERTWINER_UNKNOWNS:
        raise LimitExceededError(
            f"degree bound {dmax} gives {unknowns} unknowns, above the limit "
            f"of {MAX_INTERTWINER_UNKNOWNS} (degree bound "
            f"{MAX_INTERTWINER_UNKNOWNS // 4 - 1})")
    # Over Q(z) a nonzero alpha is invertible, and conjugation keeps trace
    # and norm: with either different, only alpha = 0 intertwines.
    if _trace_norm_mismatch(first, second)[0]:
        return []
    # Both relations are linear in (F, H) jointly, so scaling both stems
    # by one common denominator leaves the solution space unchanged.
    size = max(first.degree, second.degree) + 1
    den = lcm(first.den, second.den)
    f, h = ([[x * (den // stem.den) for x in xs] + [0] * (size - len(xs))
             for xs in stem.nums] for stem in (first, second))
    # blocks[q] maps alpha's coefficient of z^p to the coefficient of
    # z^(p+q) in first * alpha - alpha * second, and in
    # second * alpha - alpha * first (the second relation, negated).
    relations = ([_relation_block(c, d) for c, d in zip(zip(*f), zip(*h))],
                 [_relation_block(d, c) for c, d in zip(zip(*f), zip(*h))])
    zero = [0] * 4
    top = dmax + max(first.degree, second.degree, 0)
    rows = []
    for blocks in relations:
        for n in range(top + 1):
            for r in range(4):
                row = []
                for p in range(dmax + 1):
                    q = n - p
                    row += blocks[q][r] if 0 <= q < len(blocks) else zero
                rows.append(row)
    kernel = _integer_nullspace(rows, unknowns)
    # The stacked check of the module docstring, with step = top + 1: a
    # product of first or second with one vector has degree at most top.
    stacked = [[], [], [], []]
    for vec in kernel:
        for r, comp in enumerate(stacked):
            comp += vec[r::4] + [0] * (top - dmax)
    width = max(_product_width(f, stacked), _product_width(h, stacked))
    f, h, stacked = ([_pack(xs, width) for xs in stem]
                     for stem in (f, h, stacked))
    if (_mul_components(*f, *stacked) != _mul_components(*stacked, *h)
            or _mul_components(*stacked, *f) != _mul_components(*h, *stacked)):
        raise AssertionError("kernel vector failed re-verification")
    return [_over_lead(vec) for vec in kernel]


def normalize_intertwiner(alpha: StemPoly) -> StemPoly:
    """Scale so the lowest-degree nonzero coefficient has its first nonzero
    component (order 1, i, j, k) equal to 1: the canonical representative
    of the line spanned by alpha."""
    if alpha.is_zero:
        return alpha
    return _over_lead(list(chain.from_iterable(
        zip_longest(*alpha.nums, fillvalue=0))))


def _over_lead(vec) -> StemPoly:
    """The stem with the components (1, i, j, k) of z^p at vec[4p:4p + 4],
    divided by its first nonzero entry (see `normalize_intertwiner`)."""
    lead = next(filter(None, vec))
    if lead < 0:
        vec, lead = [-x for x in vec], -lead
    return StemPoly._from_rows([vec[r::4] for r in range(4)], lead)


class ConjugatorReport(Record):
    """Outcome of checking a conjugator candidate alpha against (F, H)."""

    intertwines: bool                 # alpha * F = H * alpha, exactly
    norm_alpha: Poly
    invertible_on_C: bool             # norm(alpha) is a nonzero constant
    conjugation_identity: bool | None  # F = alpha**-1 * H * alpha; None if
                                       # alpha is not invertible on all of C


def verify_conjugator(first: StemPoly, second: StemPoly,
                      alpha: StemPoly) -> ConjugatorReport:
    """Exact verification of an intertwiner candidate.

    A polynomial nonvanishing on all of C is constant, so alpha and its
    inverse are both polynomial stems exactly when norm(alpha) is a
    nonzero constant; the norm polynomial is returned so callers can
    reason about smaller domains themselves.
    """
    if not isinstance(alpha, StemPoly):
        alpha = StemPoly((alpha,))
    if alpha.is_zero:
        raise ZeroAlphaError("conjugator candidate must be nonzero")
    intertwines = alpha.star(first) == second.star(alpha)
    norm_alpha = alpha.norm()
    invertible = norm_alpha.degree == 0 and not norm_alpha.is_zero
    identity = None
    if invertible:
        c = norm_alpha.coeff(0)
        identity = alpha.conj().star(second).star(alpha) == first * c
    return ConjugatorReport(intertwines, norm_alpha, invertible, identity)
