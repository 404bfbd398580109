"""Command line surface.

Every operation of the package is reachable from one subcommand.  Exit
codes: 0 for success (and for positive verdicts), 1 for negative verdicts
(not equivalent, does not intertwine, failed checks), 2 for usage, parse
or domain errors.  Machine-readable output is available behind --json and
validates against RESULT_SCHEMA.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from fractions import Fraction

from .algebra import QI, QJ, QK
from .equiv import (EquivVerdict, classify_orbit, equivalent,
                    find_intertwiner, invariants, normalize_intertwiner,
                    orbit_equivalent, r3_equivalent, verify_conjugator)
from .errors import LimitExceededError, SliceRegError
from .parsing import (parse_point, parse_r3_stem, parse_stem, render_cquat,
                      render_poly, render_quat, render_stem)
from .poly import Poly
from .scalars import Record
from .series import (DEFAULT_ORDER, DEFAULT_SAMPLES, DEFAULT_TOL, CQuatF,
                     TruncSeries, check_conjugation_identity, numeric_roots,
                     parse_samples, taylor_series)
from .stem import SLICE_PRESERVING, Divisor

# The largest series-check order: 0.6 s at 320, 1.2 s at 400 (2 vCPUs).
MAX_SERIES_ORDER = 320
RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "array", "items": {"type": "string"}},
        "trace": {"type": "string"},
        "norm": {"type": "string"},
        "cdiv": {"type": "string"},
        "equivalent": {"type": "boolean"},
        "branch": {"type": "string"},
        "reason": {"type": ["string", "null"]},
        "intertwiners": {"type": "array", "items": {"type": "string"}},
        "norm_alpha": {"type": "string"},
        "invertible_on_C": {"type": "boolean"},
        "conjugation_identity": {"type": ["boolean", "null"]},
        "orbit": {
            "type": "object",
            "properties": {
                "kind": {"type": "string"},
                "lambda": {"type": "string"},
                "isotropy": {"type": "string"},
            },
            "required": ["kind", "lambda", "isotropy"],
            "additionalProperties": False,
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
                "required": ["name", "pass", "detail"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["command", "inputs"],
    "additionalProperties": False,
}


def _render_cdiv(value) -> str:
    if value is SLICE_PRESERVING:
        return "slice-preserving"
    return render_poly(value.gcd_poly)


def _emit(args, document: dict, text_lines) -> None:
    if getattr(args, "json", False):
        # Imported here: text-mode commands never pay for loading json.
        import json
        print(json.dumps(document, indent=2))
    else:
        for line in text_lines:
            print(line)


def _reason_message(verdict: EquivVerdict, first, second) -> str | None:
    if verdict.reason is None:
        return None
    views = {"trace": lambda stem: render_poly(stem.trace()),
             "norm": lambda stem: render_poly(stem.norm()),
             "cdiv": lambda stem: _render_cdiv(stem.central_divisor())}
    if verdict.reason in views:
        view = views[verdict.reason]
        return f"{verdict.reason} mismatch: {view(first)} vs {view(second)}"
    return "slice preserving branch requires literal equality"


# -- subcommand handlers ----------------------------------------------------------


def _cmd_invariants(args) -> int:
    if args.algebra == "r3":
        pair = parse_r3_stem(args.stem)
        bundles = (invariants(pair.first), invariants(pair.second))
        trace = f"({render_poly(bundles[0].trace)} ; {render_poly(bundles[1].trace)})"
        norm = f"({render_poly(bundles[0].norm)} ; {render_poly(bundles[1].norm)})"
        cdiv = (f"({_render_cdiv(bundles[0].central_divisor)}"
                f" ; {_render_cdiv(bundles[1].central_divisor)})")
    else:
        bundle = invariants(parse_stem(args.stem))
        trace = render_poly(bundle.trace)
        norm = render_poly(bundle.norm)
        cdiv = _render_cdiv(bundle.central_divisor)
    document = {"command": "invariants", "inputs": [args.stem],
                "trace": trace, "norm": norm, "cdiv": cdiv}
    _emit(args, document, [f"trace: {trace}", f"norm: {norm}", f"cdiv: {cdiv}"])
    return 0


def _cmd_cdiv(args) -> int:
    stem = parse_stem(args.stem)
    divisor = stem.central_divisor()
    lines = [f"cdiv: {render_poly(divisor.gcd_poly)}"]
    if args.roots:
        roots = numeric_roots(divisor.gcd_poly)
        if roots:
            lines.append("approximate roots (display only):")
            lines.extend(f"  {r.real:+.6f}{r.imag:+.6f}i" for r in roots)
        else:
            lines.append("approximate roots (display only): none")
    _emit(args, None, lines)
    return 0


def _cmd_equiv(args) -> int:
    if args.algebra == "r3":
        return _run_r3_equiv(args)
    first = parse_stem(args.first)
    second = parse_stem(args.second)
    verdict = equivalent(first, second)
    return _emit_verdict(args, verdict.equivalent, "branch", verdict.branch,
                         _reason_message(verdict, first, second))


def _run_r3_equiv(args) -> int:
    first = parse_r3_stem(args.first)
    second = parse_r3_stem(args.second)
    verdict = r3_equivalent(first, second, allow_swap=args.allow_swap)
    if verdict.equivalent:
        reason = None
    else:
        parts = [v.reason for v in verdict.direct if v.reason]
        reason = "componentwise: " + ", ".join(parts) if parts else None
    return _emit_verdict(args, verdict.equivalent, "pairing",
                         verdict.pairing or "none", reason)


def _emit_verdict(args, equivalent: bool, label: str, branch: str,
                  reason: str | None) -> int:
    """Print an equivalence verdict, the branch (or pairing) it took,
    under `label` in text, and its reason if any."""
    document = {"command": "equiv", "inputs": [args.first, args.second],
                "equivalent": equivalent, "branch": branch, "reason": reason}
    lines = [f"equivalent: {str(equivalent).lower()}", f"{label}: {branch}"]
    if reason:
        lines.append(f"reason: {reason}")
    _emit(args, document, lines)
    return 0 if equivalent else 1


def _cmd_orbit(args) -> int:
    p = parse_point(args.p)
    q = parse_point(args.q)
    result = orbit_equivalent(p, q)
    document = {"command": "orbit", "inputs": [args.p, args.q],
                "equivalent": result}
    _emit(args, document, [f"orbit-equivalent: {str(result).lower()}"])
    return 0 if result else 1


def _cmd_classify(args) -> int:
    cls = classify_orbit(parse_point(args.p))
    orbit = {"kind": cls.kind, "lambda": str(cls.lam), "isotropy": cls.isotropy}
    document = {"command": "classify", "inputs": [args.p], "orbit": orbit}
    _emit(args, document, [f"kind: {cls.kind}", f"lambda: {cls.lam}",
                           f"isotropy: {cls.isotropy}"])
    return 0


def _cmd_intertwine(args) -> int:
    first = parse_stem(args.first)
    second = parse_stem(args.second)
    basis = find_intertwiner(first, second, args.degree_max)
    document = {"command": "intertwine", "inputs": [args.first, args.second],
                "intertwiners": [render_stem(a) for a in basis]}
    lines = [f"found {len(basis)} intertwiner(s) with degree <= {args.degree_max}"]
    if basis:
        lines += [f"alpha: {render_stem(alpha)}" for alpha in basis]
        lines += _norm_lines(verify_conjugator(first, second, basis[0]),
                             document)
    _emit(args, document, lines)
    return 0 if basis else 1


def _cmd_verify(args) -> int:
    first = parse_stem(args.first)
    second = parse_stem(args.second)
    alpha = parse_stem(args.alpha)
    report = verify_conjugator(first, second, alpha)
    document = {"command": "verify", "inputs": [args.first, args.second, args.alpha],
                "equivalent": report.intertwines}
    lines = [f"intertwines (alpha*F = H*alpha): {str(report.intertwines).lower()}",
             *_norm_lines(report, document)]
    document["conjugation_identity"] = report.conjugation_identity
    if report.conjugation_identity is not None:
        state = "verified" if report.conjugation_identity else "FAILED"
        lines.append(f"conjugation identity F = alpha^-1 * H * alpha: {state}")
    _emit(args, document, lines)
    return 0 if report.intertwines else 1


def _norm_lines(report, document: dict) -> list:
    """A conjugator's norm and invertibility: into the document, as lines."""
    document["norm_alpha"] = render_poly(report.norm_alpha)
    document["invertible_on_C"] = report.invertible_on_C
    return [f"norm_alpha: {document['norm_alpha']}",
            f"invertible_on_C: {str(report.invertible_on_C).lower()}"]


def _cmd_eval(args) -> int:
    stem = parse_stem(args.stem)
    point = parse_point(args.at)
    if args.stem_mode:
        if not point.is_central:
            raise SliceRegError("--stem evaluation needs a central point")
        value = render_cquat(stem.eval_stem(point.center_part()))
    else:
        if not point.is_real_quaternion:
            raise SliceRegError("--slice evaluation needs a real quaternion point")
        value = render_quat(stem.eval_slice(point.to_quaternion()))
    _emit(args, None, [f"value: {value}"])
    return 0


def _cmd_series_check(args) -> int:
    if args.order > MAX_SERIES_ORDER:
        raise LimitExceededError(
            f"order {args.order} is above the limit of {MAX_SERIES_ORDER}")
    checks = trig_example_checks(order=args.order, tol=args.tol,
                                 samples=args.samples)
    _emit(args, None, map(_check_line, checks))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_examples(args) -> int:
    checks = builtin_example_checks()
    document = {"command": "paper-examples", "inputs": [],
                "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                           for c in checks]}
    ok = all(c.passed for c in checks)
    lines = [_check_line(c) for c in checks]
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    _emit(args, document, lines)
    return 0 if ok else 1


# -- embedded worked-example checks -----------------------------------------------

PAIR_F = "i + z*j + (1/2)*z^2*k"
PAIR_G = "(1 + (1/2)*z^2)*i"
PAIR_ALPHA = "(2 + (1/2)*z^2)*i + z*j + (1/2)*z^2*k"
VECTOR_DIVISOR_STEM = "z + i*z^2*(z - 1) + j*z^3*(z - 1)^2"
CAVEAT_F = "1 + i*z"
CAVEAT_G = "1 + j*(1 + z)"


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


def _check_line(check: CheckResult) -> str:
    tag = "PASS" if check.passed else "FAIL"
    return f"{tag} {check.name}: {check.detail}"


def _quartic_norm() -> Poly:
    return Poly((Fraction(1), Fraction(0), Fraction(1), Fraction(0),
                 Fraction(1, 4)))


def pair_example_checks() -> list[CheckResult]:
    first = parse_stem(PAIR_F)
    second = parse_stem(PAIR_G)
    expected_norm = _quartic_norm()

    inv_first = invariants(first)
    inv_second = invariants(second)
    ok = (inv_first.trace.is_zero and inv_second.trace.is_zero
          and inv_first.norm == expected_norm
          and inv_second.norm == expected_norm
          and inv_first.central_divisor == Divisor.empty()
          and inv_second.central_divisor
          == Divisor(Poly((Fraction(2), Fraction(0), Fraction(1)))))
    detail = (f"traces 0/0, norms {render_poly(inv_first.norm)}, cdivs "
              f"{_render_cdiv(inv_first.central_divisor)} and "
              f"{_render_cdiv(inv_second.central_divisor)}")
    results = [CheckResult("pair-invariants", ok, detail)]

    verdict = equivalent(first, second)
    ok = not verdict.equivalent and verdict.reason == "cdiv"
    results.append(CheckResult(
        "pair-inequivalent", ok,
        f"equivalent={str(verdict.equivalent).lower()}, reason={verdict.reason}"))

    alpha_expected = parse_stem(PAIR_ALPHA)
    basis = find_intertwiner(first, second, 2)
    span_ok = (len(basis) == 1
               and basis[0] == normalize_intertwiner(alpha_expected))
    report = verify_conjugator(first, second, alpha_expected)
    expected_norm_alpha = Poly((Fraction(4), Fraction(0), Fraction(3),
                                Fraction(0), Fraction(1, 2)))
    ok = (span_ok and report.intertwines
          and report.norm_alpha == expected_norm_alpha
          and not report.invertible_on_C)
    results.append(CheckResult(
        "pair-intertwiner", ok,
        f"solution space dim {len(basis)}, intertwines="
        f"{str(report.intertwines).lower()}, "
        f"norm_alpha={render_poly(report.norm_alpha)}, "
        f"invertible_on_C={str(report.invertible_on_C).lower()}"))
    return results


def divisor_example_checks() -> list[CheckResult]:
    stem = parse_stem(VECTOR_DIVISOR_STEM)
    divisor = stem.central_divisor()
    expected = Divisor(Poly((Fraction(0), Fraction(0), Fraction(-1), Fraction(1))))
    ok = (divisor == expected and divisor.multiplicity(0) == 2
          and divisor.multiplicity(1) == 1)
    results = [CheckResult(
        "vector-divisor", ok,
        f"cdiv={render_poly(divisor.gcd_poly)}, multiplicities "
        f"{divisor.multiplicity(0)} at 0 and {divisor.multiplicity(1)} at 1")]

    f6 = parse_stem(CAVEAT_F)
    g6 = parse_stem(CAVEAT_G)
    df = f6.central_divisor()
    dg = g6.central_divisor()
    dprod = f6.star(g6).central_divisor()
    ok = (df == Divisor(Poly((Fraction(0), Fraction(1))))
          and dg == Divisor(Poly((Fraction(1), Fraction(1))))
          and dprod.is_empty and dprod != df + dg)
    results.append(CheckResult(
        "divisor-not-additive", ok,
        f"cdiv(F)={render_poly(df.gcd_poly)}, cdiv(G)={render_poly(dg.gcd_poly)},"
        f" cdiv(F*G)={render_poly(dprod.gcd_poly)}"))
    return results


def _trig_series(order: int):
    cos_series = taylor_series("cos", order)
    sin_series = taylor_series("sin", order)
    rotating = cos_series * QI + sin_series * QJ
    conjugator = (taylor_series("cos_half", order)
                  - taylor_series("sin_half", order) * QK)
    constant = TruncSeries.constant(QI, order)
    return constant, rotating, conjugator


def trig_example_checks(order: int = DEFAULT_ORDER, tol: float = DEFAULT_TOL,
                        samples=DEFAULT_SAMPLES) -> list[CheckResult]:
    constant, rotating, conjugator = _trig_series(order)

    norm_ok = rotating.norm() == TruncSeries.constant(1, order)
    trace_ok = rotating.trace() == TruncSeries.constant(0, order)
    conj_ok = rotating.conj() == -rotating
    ok = norm_ok and trace_ok and conj_ok
    results = [CheckResult(
        "trig-norm-trace", ok,
        f"norm-1=0, trace=0, conj=-(cos*i + sin*j), all mod z^{order}")]

    errors = []
    for t in (0.5, 1.0):
        value, _ = rotating.eval_numeric(CQuatF(0, 0, t, 0))
        expected = CQuatF(-math.sinh(t), math.cosh(t), 0, 0)
        errors.append(value.distance(expected))
    ok = all(err <= 1e-10 for err in errors)
    results.append(CheckResult(
        "trig-hyperbolic-values", ok,
        "max error {:.2e} at order {} (tolerance 1e-10)".format(max(errors), order)))

    report = check_conjugation_identity(constant, rotating, conjugator,
                                        samples=samples, tol=tol)
    worst = max(c.value_error for c in report.checks)
    results.append(CheckResult(
        "trig-conjugation", report.all_pass,
        f"max pointwise error {worst:.2e} over {len(report.checks)} samples"
        f" (tol {tol:g})"))
    return results


def builtin_example_checks() -> list[CheckResult]:
    return (pair_example_checks() + divisor_example_checks()
            + trig_example_checks())


# -- parser wiring ------------------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type: an int no smaller than minimum."""
    def parse(text: str) -> int:
        try:
            # As bytes, only ASCII is read: int("١") would be 1.
            value = int(text.encode("ascii"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a finite float greater than zero."""
    try:
        # As bytes, only ASCII is read: float("١") would be 1.0.
        value = float(text.encode("ascii"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text!r}")
    return value


def _samples(text: str) -> tuple:
    """An argparse type: a sample list for `parse_samples`, every sample
    finite."""
    try:
        samples = parse_samples(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    for z in samples:
        if not cmath.isfinite(z):
            raise argparse.ArgumentTypeError(f"sample {z} is not finite")
    return samples


class _ArgumentParser(argparse.ArgumentParser):
    """Every option here but -h starts with "--", so an argument with one
    leading "-" that names no option is a value, such as "-z*i" or "-i"."""

    def _parse_optional(self, arg_string):
        if (arg_string[:2] != "--"
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="slicereg",
        description="Exact invariants and equivalence for slice regular "
                    "polynomial functions over the quaternions and over H+H.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="trace, norm and central divisor")
    p.add_argument("stem")
    p.add_argument("--algebra", choices=("h", "r3"), default="h")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("cdiv", help="central divisor as a monic polynomial")
    p.add_argument("stem")
    p.add_argument("--roots", action="store_true",
                   help="also list numeric roots (display only)")
    p.set_defaults(func=_cmd_cdiv)

    p = sub.add_parser("equiv", help="decide equivalence of two stems")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--algebra", choices=("h", "r3"), default="h")
    p.add_argument("--allow-swap", action="store_true",
                   help="admit the component swap (pairs only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("r3-equiv", help="decide equivalence of two pairs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--allow-swap", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_run_r3_equiv)

    p = sub.add_parser("orbit", help="are two points in one automorphism orbit")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("classify", help="orbit stratum and isotropy of a point")
    p.add_argument("p")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("intertwine", help="solve alpha*F = H*alpha exactly")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--degree-max", type=_int_at_least(0), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_intertwine)

    p = sub.add_parser("verify", help="check a conjugator candidate")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("alpha")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate a stem polynomial")
    p.add_argument("stem")
    p.add_argument("--at", required=True, metavar="POINT")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--slice", dest="stem_mode", action="store_false",
                      help="evaluate as a slice function at a quaternion (default)")
    mode.add_argument("--stem", dest="stem_mode", action="store_true",
                      help="evaluate the stem function at a central point")
    p.set_defaults(func=_cmd_eval, stem_mode=False)

    p = sub.add_parser("series-check",
                       help="truncated-series checks of the rotation identity")
    p.add_argument("--order", type=_int_at_least(1), default=DEFAULT_ORDER)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--samples", type=_samples, default=DEFAULT_SAMPLES,
                   help='complex sample list, e.g. "0.3, 1, 0.5+0.5i"')
    p.set_defaults(func=_cmd_series_check)

    p = sub.add_parser("paper-examples",
                       help="recompute the built-in worked examples and "
                            "check them against their expected values")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    # Exact values are read and printed in full: lift CPython's default
    # cap of 4300 digits on int <-> str (3.11, 3.10.7) for this call.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        try:
            code = args.func(args)
            sys.stdout.flush()
            return code
        except SliceRegError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # The reader closed stdout: an error, not a verdict.  What is
            # still buffered goes to devnull, so the interpreter's flush at
            # exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
