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
solves both relations iff a(V - W) = 0 and VA = AW.  As V**2 = -N(V),
V(V + W) - (V + W)W = N(W) - N(V) is central: for V + W != 0 and
g = (V + W) / d, d the gcd of its components, V g - g W = (N(W) - N(V)) / d,
so g's own check compares the norms (V + W = 0 has N(W) = N(V)).  If they
agree, the solutions of VA = AW over Q(z) are (V + W)(x + yW)
(Skolem-Noether), of central part -y B(V + W, W) = -y B(V + W, V + W) / 2,
so A = x(V + W): the pure solutions are Q[z] g (Gauss's lemma), spanned in
K by the shifts z^k g.  V + W = 0 is central F = H, solved by every alpha,
or W = -V, where VA + AV = -2 B(A, V) leaves B(A, V) = 0: one integer row
per degree up to top = dmax + deg, on 3(dmax + 1) unknowns.  K comes in the
normal form of an exact nullspace (one vector per pivot, the place (degree,
then component) of its highest nonzero entry, zero at the other pivots, in
pivot order): for W = -V, `poly._integer_nullspace` of the system; else
written down from g (`_generator`).  With n = deg g and r the highest
component of degree n, z^k g has its pivot at (n + k, r) and the vectors
are T_0 = g and T_k = quo(z^(n + k), g_r) g up to a factor,
(lead z T_(k-1) - t g) / gcd(lead, t), lead = g_r[n], t the entry of
z T_(k-1) at (n, r) (its other pivots are 0 and above g): z T_(k-1) if
t = 0, as always when g_r is a monomial.  F = H adds the units z^p at
component 0, by pivot; with V = 0 too, K is all the units z^p, which
`find_intertwiner` writes down itself.  The vectors, handed on as four
component lists, are checked on the criterion above, however found: each
list must have dmax + 1 entries, a central part must be 0 unless V = W,
and the pure parts, stacked into one integer stem S (vector i at
z^(i*step), step one more than the degree of V or W times a vector), must
give V S = S W (`_pure_intertwines`): as z is central and the blocks of a
product never meet, S passes iff every vector does.  Left out of S are 0,
g and zX, X one of the last two vectors seen with top entries 0
(V zX = zX W), whose normal form is z times X's: only X meets `_over_lead`.
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
    f, h = _scaled_to_lcm(first, second)
    reason = "trace" if f[0] != h[0] else None  # the trace is 2*c0
    if reason is None:
        v, w, both = f[1:], h[1:], f[1:] + h[1:]
        width = _product_width(both, both)
        at_v, at_w = ([_pack(xs, width) for xs in lists] for lists in (v, w))
        if sum(x * x for x in at_v) != sum(x * x for x in at_w):
            reason = "norm"
        elif _gcd_ints(v, at_v, width) != _gcd_ints(w, at_w, width):
            reason = "cdiv"
    return EquivVerdict(reason is None, BRANCH_NOT_SLICE_PRESERVING, reason)


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


def _generator(f, h) -> list:
    """The three lists of g = (V + W) / gcd for integer lists f, h, trimmed:
    all empty when V + W = 0."""
    pure, _ = _lowest_terms(
        [[x + y for x, y in zip_longest(xs, ys, fillvalue=0)]
         for xs, ys in zip(f[1:], h[1:])], 1)
    if any(pure) and (d := _gcd_ints(pure)) != [1]:
        return [_pseudo_divmod(p, d)[0] for p in pure]
    return pure


def _intertwiner_kernel(f, h, dmax: int, top: int, *g) -> list:
    """K of the module docstring, in its normal form, for integer lists f, h
    with equal traces and norms, V, W not both 0: each vector as its lists
    (1, i, j, k).  g, `_generator(f, h)`, is computed here if not given."""
    g = g or _generator(f, h)
    if not any(g) and f != h:
        # W = -V: row n is B(A, V) at z^n, a slice of one padded strip.
        v = [x for c in [*zip_longest(*f[1:], fillvalue=0)][::-1] for x in c]
        strip = [0] * (3 * (top + 1) - len(v)) + v + [0] * (3 * dmax)
        rows = [strip[3 * s:3 * (s + dmax + 1)] for s in range(top, -1, -1)]
        return [[[0] * (dmax + 1), vec[::3], vec[1::3], vec[2::3]]
                for vec in _integer_nullspace(rows, 3 * (dmax + 1))]
    zero, kernel = [0] * (dmax + 1), []
    # The T_k of the module docstring, each after the unit z^(n + k) if F = H.
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
    (order 1, i, j, k) equal to 1 and re-verified by the check of the
    trace-free parts in the module docstring, which multiplies g alone and
    then, all at once, the vectors that are not g or z times a recent one.
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
    # Only alpha = 0 intertwines F and H of different trace 2*c0 or norm (a
    # nonzero alpha is invertible over Q(z)); g's own check compares norms.
    f, h = _scaled_to_lcm(first, second)
    if f[0] != h[0]:
        return []
    v, w, g = f[1:], h[1:], _generator(f, h)
    if any(g) and not _pure_intertwines(v, w, g):
        return []
    if not any(v + w):  # central F = H: the units z^p are K's normal form
        return [StemPoly._reduced([[0] * p + [1] if c == r else []
                                   for c in range(4)], 1)
                for p in range(dmax + 1) for r in range(4)]
    top = dmax + max(first.degree, second.degree, 0)
    kernel = _intertwiner_kernel(f, h, dmax, top, *g)
    # The check of the module docstring, with step = top + 1: a product of
    # V or W with one vector has degree at most top.  shifts holds z X and
    # the place in basis of the last two vectors X seen with top entries 0.
    pad, stacked, basis, shifts = [0] * (top - dmax), [[], [], []], [], []
    g = [xs + [0] * (dmax + 1 - len(xs)) for xs in g]
    for vec in kernel:
        if any(len(xs) != dmax + 1 for xs in vec):
            raise AssertionError("kernel vector above the degree bound")
        if v != w and any(vec[0]):
            raise AssertionError("kernel vector failed re-verification")
        low = next((basis[i] for zx, i in shifts if zx == vec), None)
        if not any(xs[-1] for xs in vec):
            shifts = [*shifts[-1:], ([[0] + xs[:-1] for xs in vec],
                                     len(basis))]
        if low is None and any(map(any, vec[1:])) and vec[1:] != g:
            for comp, xs in zip(stacked, vec[1:]):
                comp += xs + pad
        basis.append(_over_lead(vec) if low is None else StemPoly._reduced(
            [[0, *xs] if xs else xs for xs in low.nums], low.den))
    if stacked[0] and not _pure_intertwines(v, w, stacked):
        raise AssertionError("kernel vector failed re-verification")
    return basis


def _pure_intertwines(v, w, a) -> bool:
    """Whether V A = A W for trace-free lists v, w, a: packed at the
    `_product_width` of (v + w, a), equal products mean equal stems."""
    width = _product_width(v + w, a)
    at = [_pack(xs, width) if xs else 0 for xs in (*v, *w, *a)]
    return (_mul_components(0, *at[:3], 0, *at[6:])
            == _mul_components(0, *at[6:], 0, *at[3:6]))


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
