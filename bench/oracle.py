"""Independent answer checks with sympy, run outside every timed region.

The norm is recomputed as c0^2 + c1^2 + c2^2 + c3^2 over the component
polynomials and the central divisor as the monic sympy gcd of the three
W-components; neither goes through slicereg's star product or gcd.
"""

from __future__ import annotations

from math import comb

import sympy

Z = sympy.Symbol("z")


def _poly(coeffs) -> sympy.Poly:
    """Ascending rational coefficients -> sympy Poly over QQ."""
    return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                     for c in coeffs])) or [0], Z,
                      domain=sympy.QQ)


def _components(stem):
    return [_poly([c.components()[t] for c in stem.coeffs]) for t in range(4)]


def _parse(text: str) -> sympy.Poly:
    """A polynomial as slicereg prints it (`^` for powers)."""
    return sympy.Poly(sympy.sympify(text.replace("^", "**"), locals={"z": Z}),
                      Z, domain=sympy.QQ)


def _monic_gcd(polys) -> sympy.Poly:
    nonzero = [p for p in polys if not p.is_zero]
    acc = nonzero[0]
    for p in nonzero[1:]:
        acc = sympy.gcd(acc, p)
    return acc.monic()


def check_stems(stems) -> list[str]:
    """Compare slicereg's norm and central divisor with sympy's."""
    problems = []
    for n, stem in enumerate(stems):
        parts = _components(stem)
        norm = sum((p * p for p in parts), _poly([]))
        if _poly(stem.norm().coeffs) != norm:
            problems.append(f"stem {n}: norm differs from sympy")
        if not stem.is_slice_preserving():
            got = _poly(stem.central_divisor().gcd_poly.coeffs)
            if got != _monic_gcd(parts[1:]):
                problems.append(f"stem {n}: central divisor differs from sympy")
    return problems


def check_in_span(basis, alpha) -> bool:
    """Whether alpha lies in the rational span of the basis stems."""
    width = 4 * max(len(a.coeffs) for a in (*basis, alpha))

    def row(stem):
        flat = [x for c in stem.coeffs for x in c.components()]
        return [sympy.Rational(x.numerator, x.denominator)
                for x in flat] + [0] * (width - len(flat))

    m = sympy.Matrix([row(a) for a in basis])
    return m.rank() == m.col_join(sympy.Matrix([row(alpha)])).rank()


def _line(stdout: str, label: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(label + ": "):
            return line[len(label) + 2:]
    raise ValueError(f"no {label!r} line")


# With v = z*i + z^2*j, v^2 = -s for s = z^2 + z^4, so (1 + v)^n has
# center sum_{k even} C(n,k) (-s)^(k/2) and W-part v * P(s) with
# P = sum_{k odd} C(n,k) (-s)^((k-1)/2).  The W-components are z*P,
# z^2*P and 0, whose monic gcd is z*P; the norm is (1 + s)^n.
_S = Z**2 + Z**4


def _power_trace(n: int) -> sympy.Poly:
    center = sum(comb(n, k) * (-_S) ** (k // 2) for k in range(0, n + 1, 2))
    return sympy.Poly(2 * center, Z, domain=sympy.QQ)


def check_power_invariants(stdout: str) -> str | None:
    """`invariants (1+z*i+z^2*j)^12`."""
    odd = sum(comb(12, k) * (-_S) ** ((k - 1) // 2) for k in range(1, 13, 2))
    want = {
        "trace": _power_trace(12),
        "norm": sympy.Poly((1 + _S) ** 12, Z, domain=sympy.QQ),
        "cdiv": sympy.Poly(Z * odd, Z, domain=sympy.QQ).monic(),
    }
    try:
        for label, poly in want.items():
            if _parse(_line(stdout, label)) != poly:
                return f"{label} differs from sympy"
    except (ValueError, sympy.SympifyError) as exc:
        return f"unreadable output: {exc}"
    return None


def check_cdiv_line(stdout: str) -> str | None:
    """`cdiv sum_{k=1}^{30} k/(k+1) z^k (i+j)`: w1 = w2, w3 = 0, so the
    divisor is w1 made monic."""
    w1 = sympy.Poly(sum(sympy.Rational(k, k + 1) * Z**k for k in range(1, 31)),
                    Z, domain=sympy.QQ)
    try:
        got = _parse(_line(stdout, "cdiv"))
    except (ValueError, sympy.SympifyError) as exc:
        return f"unreadable output: {exc}"
    return None if got == w1.monic() else "cdiv differs from sympy"


def check_trace_mismatch(stdout: str) -> str | None:
    """`equiv <trace-free sum> (1+z*i+z^2*j)^6`: not equivalent by trace."""
    head = "equivalent: false\nbranch: NotSlicePreserving\nreason: trace mismatch: 0 vs "
    if not stdout.startswith(head) or stdout.count("\n") != 3:
        return "expected a trace mismatch against 0"
    try:
        got = _parse(stdout[len(head):].strip())
    except sympy.SympifyError as exc:
        return f"unreadable output: {exc}"
    return None if got == _power_trace(6) else "trace differs from sympy"
