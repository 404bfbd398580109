"""Spans and counters around slicereg's public functions, from outside.

`Tracer.install()` swaps wrappers into the classes and modules of the
package and `uninstall()` puts every original back, so untraced runs call
the unmodified code.  Spans are kept in memory as
[name, start, end, parent index, op index] and written out by the caller.
A span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from slicereg.algebra import CQuat, Quaternion
from slicereg.poly import Matrix, Poly
from slicereg.scalars import GaussRat
from slicereg.series import TruncSeries
from slicereg.stem import StemPoly

import slicereg.cli
import slicereg.equiv
import slicereg.parsing
import slicereg.poly
import slicereg.series

# Counted only: these run millions of times and a span each would dominate.
COUNTED = (
    (Quaternion, "__mul__", "algebra.quat_mul"),
    (CQuat, "__mul__", "algebra.quat_mul"),
    (GaussRat, "__mul__", "scalars.gauss_mul"),
    (GaussRat, "__rmul__", "scalars.gauss_mul"),
)

METHODS = (
    (Poly, "__mul__", "poly.mul"),
    (Poly, "__rmul__", "poly.mul"),
    (Poly, "__divmod__", "poly.divmod"),
    (Matrix, "nullspace", "poly.nullspace"),
    (StemPoly, "star", "stem.star"),
    (StemPoly, "norm", "stem.norm"),
    (StemPoly, "central_divisor", "stem.central_divisor"),
    (TruncSeries, "star", "series.star"),
    (TruncSeries, "eval_numeric", "series.eval_numeric"),
)

FUNCTIONS = (
    (slicereg.poly, "poly_gcd_many", "poly.gcd_many"),
    (slicereg.equiv, "equivalent", "equiv.equivalent"),
    (slicereg.equiv, "r3_equivalent", "equiv.r3_equivalent"),
    (slicereg.equiv, "find_intertwiner", "equiv.find_intertwiner"),
    (slicereg.equiv, "verify_conjugator", "equiv.verify_conjugator"),
    (slicereg.series, "taylor_series", "series.taylor_series"),
    (slicereg.series, "check_conjugation_identity",
     "series.check_conjugation_identity"),
    (slicereg.parsing, "parse_expr", "parsing.parse"),
    (slicereg.parsing, "render_poly", "parsing.render"),
    (slicereg.parsing, "render_stem", "parsing.render"),
    (slicereg.parsing, "render_quat", "parsing.render"),
    (slicereg.parsing, "render_cquat", "parsing.render"),
    (slicereg.cli, "main", "cli.main"),
)


def _bits(poly) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


def _record_gcd(stats, args, result):
    stats["poly.gcd_many.max_input_bits"] = max(
        stats["poly.gcd_many.max_input_bits"],
        max((_bits(p) for p in args[0]), default=0))
    if result.degree > 0:
        stats["poly.gcd_many.nontrivial"] += 1


def _record_nullspace(stats, args, result):
    m = args[0]
    if m.rows * m.cols >= stats["poly.nullspace.rows"] * stats["poly.nullspace.cols"]:
        stats["poly.nullspace.rows"] = m.rows
        stats["poly.nullspace.cols"] = m.cols
        stats["poly.nullspace.rank"] = m.cols - len(result)


def _record_star(stats, args, result):
    stats["stem.star.max_degree"] = max(
        stats["stem.star.max_degree"], args[0].degree,
        getattr(args[1], "degree", 0))


def _record_verdict(stats, args, result):
    # Decided before any gcd: the slice-preserving branch, or a trace or
    # norm mismatch.
    if (result.branch != slicereg.equiv.BRANCH_NOT_SLICE_PRESERVING
            or result.reason in ("trace", "norm")):
        stats["equiv.early_exit"] += 1


def _record_parse(stats, args, result):
    stats["parsing.parse.chars"] += len(args[0])


HOOKS = {
    "poly.gcd_many": _record_gcd,
    "poly.nullspace": _record_nullspace,
    "stem.star": _record_star,
    "equiv.equivalent": _record_verdict,
    "parsing.parse": _record_parse,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.stats: defaultdict = defaultdict(int)
        self.op = -1
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts, stats = self.spans, self.stack, self.counts, self.stats
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "poly.gcd_many":
                args = (tuple(args[0]),) + args[1:]
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name] += 1
            if hook:
                hook(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for cls, attr, name in COUNTED:
            self._swap(cls, attr, self._count(name, cls.__dict__[attr]))
        for cls, attr, name in METHODS:
            self._swap(cls, attr, self._span(name, cls.__dict__[attr]))
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._span(name, original)
            # Rebind every `from .x import f` copy inside the package too.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "slicereg" or mod_name.startswith("slicereg."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, key, wrapper)

    def _swap(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: defaultdict = defaultdict(float)
        for rec, covered in zip(self.spans, child):
            out[rec[0]] += (rec[2] - rec[1] - covered) * 1000.0
        return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    c, s, self_ms = tracer.counts, tracer.stats, tracer.self_ms()

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "algebra.quat_mul.calls": (c["algebra.quat_mul"], "count"),
        "scalars.gauss_mul.calls": (c["scalars.gauss_mul"], "count"),
    }
    for name in ("poly.mul", "poly.divmod", "poly.gcd_many", "poly.nullspace",
                 "stem.star", "series.star", "series.eval_numeric",
                 "parsing.parse"):
        m[f"{name}.calls"] = (c[name], "count")
        m[f"{name}.self_ms"] = (self_ms[name], "ms")
    for name in ("stem.norm", "stem.central_divisor", "equiv.equivalent",
                 "equiv.r3_equivalent", "equiv.find_intertwiner",
                 "equiv.verify_conjugator", "series.taylor_series",
                 "series.check_conjugation_identity", "parsing.render",
                 "cli.main"):
        m[f"{name}.self_ms"] = (self_ms[name], "ms")
    m["poly.gcd_many.max_input_bits"] = (s["poly.gcd_many.max_input_bits"], "bits")
    m["poly.gcd_many.nontrivial_ratio"] = (
        ratio(s["poly.gcd_many.nontrivial"], c["poly.gcd_many"]), "ratio")
    for key in ("rows", "cols", "rank"):
        m[f"poly.nullspace.{key}"] = (s[f"poly.nullspace.{key}"], "count")
    m["stem.star.max_degree"] = (s["stem.star.max_degree"], "degree")
    m["equiv.early_exit_ratio"] = (
        ratio(s["equiv.early_exit"], c["equiv.equivalent"]), "ratio")
    m["parsing.parse.chars"] = (s["parsing.parse.chars"], "chars")
    return m
