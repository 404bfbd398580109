"""Equivalence decisions, orbit classification, and intertwiners.

Two stem polynomials F, H are equivalent when one is carried to the other
by a pointwise-varying algebra automorphism.  The decision is exact:

* If neither is slice preserving, equivalence holds iff trace, norm and
  central divisor all agree, compared (as the intertwiners below are) on
  the lists f, h of F and H over one denominator (`_scaled_to_lcm`).
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

which is linear in alpha's coefficients: its solutions of degree at most
dmax form a space K, zero when trace or norm differ (a nonzero alpha is
invertible over Q(z)).  With equal traces write F = c + V, H = c + W and
alpha = a + A (c, a central; V, W, A trace-free): VA - AW and AV - WA
share their central part and have opposite trace-free parts, so alpha
solves both relations iff a(V - W) = 0 and VA = AW.  Equal norms give
V**2 = -B(V, V) = W**2, so V(V + W) = (V + W)W.  If V + W != 0, the
solutions of VA = AW over Q(z) are (V + W)(x + yW) (Skolem-Noether), of
central part -y B(V + W, W) = -y B(V + W, V + W) / 2, so A = x(V + W): the
pure solutions are Q[z] g, g = (V + W) over the gcd of its components
(Gauss's lemma), spanned in K by the shifts z^k g.  V + W = 0 is central
F = H, solved by every alpha, or W = -V, where VA + AV = -2 B(A, V) leaves
B(A, V) = 0: one integer row per degree up to top = dmax + deg, on
3(dmax + 1) unknowns.  K comes in the normal form of an exact nullspace
(one vector per pivot, the place (degree, then component) of its highest
nonzero entry, zero at the other pivots, in pivot order): for W = -V,
`poly._integer_nullspace` of the system; else written down from g (from
the lists of V + W, `_gcd_ints` and `_pseudo_divmod`).  With n = deg g
and r the highest component of degree n, z^k g has its pivot at (n + k, r)
and the vectors are T_0 = g and T_k = quo(z^(n + k), g_r) g up to a factor,
(lead z T_(k-1) - t g) / gcd(lead, t), lead = g_r[n], t the entry of
z T_(k-1) at (n, r) (its other pivots are 0 and above g): z T_(k-1) if
t = 0, as always when g_r is a monomial.  F = H adds the units z^p at
component 0 (all four if V = 0), by pivot.  The vectors, handed on as
four component lists, are checked on the criterion above, however found:
each list must have dmax + 1 entries, a central part must be 0 unless
V = W, and the pure parts, stacked into one integer stem S (vector i at
z^(i*step), step one more than the highest degree of V or W times one
vector), must give V S = S W: two `_mul_components` of the components
packed at the `_product_width` of (V + W, S), equal iff their balanced
digits are.  As z is central and the blocks of a product never meet, S
passes exactly when every vector does; zA, for A one of the last two
pure parts checked and its top entries 0, passes unstacked (list for
list): V zA = zA W.  Central F = H (V = W = 0) checks the shape only.
`verify_conjugator` checks alpha = a / d_a against alpha * F = H * alpha,
the form in which an invertible alpha exhibits F = alpha**-1 * H * alpha,
on f and h: a f against h a, packed at the `_product_width` of (f + h, a),
so equal values mean equal stems.  If norm(alpha) is a nonzero constant
c, alpha is invertible with polynomial inverse alpha^c / c on all of C,
and as alpha alpha^c = c the identity holds exactly when it intertwines:
multiply alpha^c H alpha = c F on the left by alpha.  A nonconstant
norm(alpha) means the inverse exists only off its zero set.
"""

from __future__ import annotations

from itertools import chain, zip_longest
from math import gcd, lcm

from .algebra import CQuat, _mul_components, bform
from .errors import LimitExceededError, ZeroAlphaError, ZeroInputError
from .poly import (Poly, _gcd_ints, _integer_nullspace, _lowest_terms,
                   _pack, _product_width, _pseudo_divmod)
from .scalars import GaussRat, Record
from .stem import SLICE_PRESERVING, R3StemPoly, StemPoly

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
    lists f, h of F and H over one denominator (`_scaled_to_lcm`): the
    traces agree iff f0 = h0; then the norms agree iff the trace-free parts
    f'' = (f1, f2, f3) and h'' do, three squares a side packed at the
    `_product_width` of (f'' + h'') with itself; and the central divisors
    iff f'' and h'' share `_gcd_ints`, which reuses those packs."""
    if first.is_slice_preserving() or second.is_slice_preserving():
        same = first == second
        return EquivVerdict(same, BRANCH_SLICE_PRESERVING,
                            None if same else "identity")
    reason, packs = _trace_norm_mismatch(*_scaled_to_lcm(first, second))
    if reason is None and _gcd_ints(*packs[0]) != _gcd_ints(*packs[1]):
        reason = "cdiv"
    return EquivVerdict(reason is None, BRANCH_NOT_SLICE_PRESERVING, reason)


def _trace_norm_mismatch(f, h):
    """("trace" or "norm", None) for the first of them that differs, read as
    in `equivalent`; else (None, the `_gcd_ints` arguments of each W part)."""
    # The trace is 2*c0, so comparing c0 compares traces.
    if f[0] != h[0]:
        return "trace", None
    f, h, both = f[1:], h[1:], f[1:] + h[1:]
    width = _product_width(both, both)
    f_at, h_at = ([_pack(xs, width) for xs in lists] for lists in (f, h))
    if sum(x * x for x in f_at) != sum(x * x for x in h_at):
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


# The largest intertwiner search accepted, 4 * (dmax + 1) unknowns: dmax <= 63.
MAX_INTERTWINER_UNKNOWNS = 256


def _intertwiner_kernel(f, h, dmax: int, top: int) -> list:
    """K of the module docstring, in its normal form, for integer lists f, h
    with equal traces and norms: each vector as its lists (1, i, j, k)."""
    pure, _ = _lowest_terms(
        [[x + y for x, y in zip_longest(xs, ys, fillvalue=0)]
         for xs, ys in zip(f[1:], h[1:])], 1)
    if not any(pure) and f != h:
        # W = -V: row n is B(A, V) at z^n, a slice of one padded strip.
        v = [x for c in [*zip_longest(*f[1:], fillvalue=0)][::-1] for x in c]
        strip = [0] * (3 * (top + 1) - len(v)) + v + [0] * (3 * dmax)
        rows = [strip[3 * s:3 * (s + dmax + 1)] for s in range(top, -1, -1)]
        return [[[0] * (dmax + 1), vec[::3], vec[1::3], vec[2::3]]
                for vec in _integer_nullspace(rows, 3 * (dmax + 1))]
    zero, kernel = [0] * (dmax + 1), []
    if not any(pure):
        return [[[0] * p + [1] + [0] * (dmax - p) if c == r else zero
                 for c in range(4)] for p in range(dmax + 1) for r in range(4)]
    # The T_k of the module docstring, each after the unit z^(n + k) if F = H.
    d = _gcd_ints([p for p in pure if p])
    g = [_pseudo_divmod(p, d)[0] for p in pure]
    n, r = max((len(xs) - 1, c) for c, xs in enumerate(g, 1))
    g = [zero] + [xs + [0] * (dmax + 1 - len(xs)) for xs in g]
    row, lead = g, g[r][n]
    for p in range(dmax + 1):
        if f == h:
            kernel.append([[0] * p + [1] + [0] * (dmax - p), zero, zero, zero])
        if p > n:
            row = [[0] + xs[:-1] for xs in row]
            if t := row[r][n]:
                e = gcd(lead, t)
                row = [[lead // e * x - t // e * y for x, y in zip(xs, ys)]
                       for xs, ys in zip(row, g)]
        if p >= n:
            kernel.append(row)
    return kernel


def _scaled_to_lcm(first: StemPoly, second: StemPoly):
    """The integer lists f, h of first and second over the lcm of their
    denominators (a stem over it gives its own `nums`), unpadded.  The
    invariants and the intertwining relations compare on them as on F, H."""
    den = lcm(first.den, second.den)
    return [stem.nums if stem.den == den
            else tuple([x * (den // stem.den) for x in xs] for xs in stem.nums)
            for stem in (first, second)]


def find_intertwiner(first: StemPoly, second: StemPoly,
                     dmax: int) -> list[StemPoly]:
    """All alpha with deg alpha <= dmax intertwining first and second:
    first * alpha = alpha * second and alpha * first = second * alpha.

    Returns an exact basis of the solution space (empty when there is no
    solution at this degree bound), each vector normalized so the
    lowest-degree nonzero coefficient has its first nonzero component
    (order 1, i, j, k) equal to 1 and re-verified, all at once, by the
    check of the trace-free parts in the module docstring, which multiplies
    only the vectors whose pure part is not z times a recent one checked.
    More than MAX_INTERTWINER_UNKNOWNS unknowns raise LimitExceededError.
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
    f, h = _scaled_to_lcm(first, second)
    if _trace_norm_mismatch(f, h)[0]:
        return []
    top = dmax + max(first.degree, second.degree, 0)
    kernel = _intertwiner_kernel(f, h, dmax, top)
    # The check of the module docstring, with step = top + 1: a product of
    # V or W with one vector has degree at most top.
    v, w, pad, stacked = f[1:], h[1:], [0] * (top - dmax), [[], [], []]
    shifts = []  # z times the last two pure parts checked, if their tops are 0
    for vec in kernel:
        if any(len(xs) != dmax + 1 for xs in vec):
            raise AssertionError("kernel vector above the degree bound")
        if v != w and any(vec[0]):
            raise AssertionError("kernel vector failed re-verification")
        pure = vec[1:]
        if pure not in shifts:
            for comp, xs in zip(stacked, pure):
                comp += xs + pad
        if not any(xs[-1] for xs in pure):
            shifts = [*shifts[-1:], [[0] + xs[:-1] for xs in pure]]
    if any(v):
        width = _product_width(v + w, stacked)
        v, w, stacked = ([_pack(xs, width) for xs in lists]
                         for lists in (v, w, stacked))
        if _mul_components(0, *v, 0, *stacked) != _mul_components(
                0, *stacked, 0, *w):
            raise AssertionError("kernel vector failed re-verification")
    return [_over_lead(vec) for vec in kernel]


def normalize_intertwiner(alpha: StemPoly) -> StemPoly:
    """Scale so the lowest-degree nonzero coefficient has its first nonzero
    component (order 1, i, j, k) equal to 1: the canonical representative
    of the line spanned by alpha."""
    if alpha.is_zero:
        return alpha
    return _over_lead(alpha.nums)


def _over_lead(rows) -> StemPoly:
    """The stem with the component lists rows (1, i, j, k), divided by its
    first nonzero entry in the order of `normalize_intertwiner`; `_from_rows`
    trims the lists, an all-zero one handed over as [] at once."""
    lead = next(filter(None, chain.from_iterable(
        zip_longest(*rows, fillvalue=0))))
    rows = [xs if any(xs) else [] for xs in rows]
    if lead < 0:
        rows, lead = [[-x for x in xs] for xs in rows], -lead
    return StemPoly._from_rows(rows, lead)


class ConjugatorReport(Record):
    """Outcome of checking a conjugator candidate alpha against (F, H)."""

    intertwines: bool                 # alpha * F = H * alpha, exactly
    norm_alpha: Poly
    invertible_on_C: bool             # norm(alpha) is a nonzero constant
    conjugation_identity: bool | None  # F = alpha**-1 * H * alpha, read off
                                       # intertwines; None if alpha is not
                                       # invertible on all of C


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
    norm_alpha = alpha.norm()
    invertible = norm_alpha.degree == 0 and not norm_alpha.is_zero
    # The relation is linear in alpha, so its denominator drops out.
    a, (f, h) = alpha.nums, _scaled_to_lcm(first, second)
    width = _product_width(f + h, a)
    a, f, h = ([_pack(xs, width) for xs in nums] for nums in (a, f, h))
    intertwines = _mul_components(*a, *f) == _mul_components(*h, *a)
    # alpha * alpha^c = norm(alpha) = c != 0, so alpha^c * H * alpha = c * F
    # holds iff alpha * F = H * alpha (multiply on the left by alpha).
    return ConjugatorReport(intertwines, norm_alpha, invertible,
                            intertwines if invertible else None)
