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
bound come out of one exact rational nullspace.  The system is assembled
on integers: F and H are scaled by one common denominator, each pair of
coefficients (F_q, H_q) gives the 4x4 integer blocks of a -> F_q a - a H_q
and a -> H_q a - a F_q once, from the sign pattern of the quaternion unit
products, and the rows are block-Toeplitz strips of those blocks, which
`Matrix.nullspace` eliminates fraction-free.  When trace(F) = trace(H)
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

from dataclasses import dataclass

from .algebra import UNIT_PRODUCTS, CQuat, Quaternion, bform
from .errors import LimitExceededError, ZeroAlphaError, ZeroInputError
from .poly import Matrix, Poly, _integer_scaled
from .scalars import GaussRat
from .stem import SLICE_PRESERVING, R3StemPoly, StemPoly

BRANCH_NOT_SLICE_PRESERVING = "NotSlicePreserving"
BRANCH_SLICE_PRESERVING = "SlicePreservingIdentical"

KIND_CENTER_FIXED = "CenterFixed"
KIND_NULL_CONE = "NullCone"
KIND_GENERIC = "Generic"

ISOTROPY_FULL_GROUP = "FullGroup"
ISOTROPY_ADDITIVE = "AdditiveC"
ISOTROPY_TORUS = "TorusCstar"


@dataclass(frozen=True)
class InvariantBundle:
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


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    branch: str
    reason: str | None = None  # first failing invariant when not equivalent


def equivalent(first: StemPoly, second: StemPoly) -> EquivVerdict:
    """Decide equivalence under pointwise automorphism conjugation."""
    if first.is_slice_preserving() or second.is_slice_preserving():
        same = first == second
        return EquivVerdict(same, BRANCH_SLICE_PRESERVING,
                            None if same else "identity")
    if first.trace() != second.trace():
        return EquivVerdict(False, BRANCH_NOT_SLICE_PRESERVING, "trace")
    if first.norm() != second.norm():
        return EquivVerdict(False, BRANCH_NOT_SLICE_PRESERVING, "norm")
    if first.central_divisor() != second.central_divisor():
        return EquivVerdict(False, BRANCH_NOT_SLICE_PRESERVING, "cdiv")
    return EquivVerdict(True, BRANCH_NOT_SLICE_PRESERVING)


@dataclass(frozen=True)
class R3EquivVerdict:
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


@dataclass(frozen=True)
class OrbitClass:
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


@dataclass(frozen=True)
class SampleCheck:
    sample: GaussRat
    passed: bool
    reason: str | None


@dataclass(frozen=True)
class OrbitScanReport:
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


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
    (1, i, j, k) of a, for c and d given by their components."""
    block = [[0] * 4 for _ in range(4)]
    for s in range(4):
        for t in range(4):
            r, sign = UNIT_PRODUCTS[s][t]     # c_s e_s * e_t
            block[r][t] += sign * c[s]
            r, sign = UNIT_PRODUCTS[t][s]     # e_t * d_s e_s
            block[r][t] -= sign * d[s]
    return block


def find_intertwiner(first: StemPoly, second: StemPoly,
                     dmax: int) -> list[StemPoly]:
    """All alpha with deg alpha <= dmax intertwining first and second:
    first * alpha = alpha * second and alpha * first = second * alpha.

    Returns an exact basis of the solution space (empty when there is no
    solution at this degree bound).  Basis vectors are normalized so the
    lowest-degree nonzero coefficient has its first nonzero component
    (component order 1, i, j, k) equal to 1, and are re-verified by
    multiplication before being returned.  More than
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
    # Both relations are linear in (F, H) jointly, so scaling both stems
    # by one common denominator leaves the solution space unchanged.
    nums, _ = _integer_scaled([c for stem in (first, second)
                               for q in stem.coeffs for c in q.components()])
    split = 4 * len(first.coeffs)
    width = 4 * max(len(first.coeffs), len(second.coeffs))
    f = nums[:split] + [0] * (width - split)
    h = nums[split:] + [0] * (width - len(nums) + split)
    # blocks[q] maps alpha's coefficient of z^p to the coefficient of
    # z^(p+q) in first * alpha - alpha * second, and in
    # second * alpha - alpha * first (the second relation, negated).
    offsets = range(0, width, 4)
    relations = ([_relation_block(f[k:k + 4], h[k:k + 4]) for k in offsets],
                 [_relation_block(h[k:k + 4], f[k:k + 4]) for k in offsets])
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
    kernel = Matrix(rows).nullspace()
    out = []
    for vec in kernel:
        coeffs = [Quaternion(*vec[4 * p: 4 * p + 4]) for p in range(dmax + 1)]
        alpha = StemPoly(coeffs)
        if (first.star(alpha) != alpha.star(second)
                or alpha.star(first) != second.star(alpha)):
            raise AssertionError("kernel vector failed re-verification")
        out.append(normalize_intertwiner(alpha))
    return out


def normalize_intertwiner(alpha: StemPoly) -> StemPoly:
    """Scale so the lowest-degree nonzero coefficient has its first nonzero
    component (order 1, i, j, k) equal to 1: the canonical representative
    of the line spanned by alpha."""
    for c in alpha.coeffs:
        if c:
            for comp in c.components():
                if comp:
                    return alpha * (1 / comp)
    return alpha


@dataclass(frozen=True)
class ConjugatorReport:
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
    alpha = StemPoly(alpha.coeffs) if isinstance(alpha, StemPoly) else StemPoly((alpha,))
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
