"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s` to see them inline).  Every expected value is
exact unless a tolerance is stated explicitly.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import jsonschema

from slicereg import (CQuatF, Divisor, GaussRat, Poly, R3Elem, R3StemPoly,
                      TruncSeries, check_conjugation_identity, classify_orbit,
                      equivalent, find_intertwiner, normalize_intertwiner,
                      orbit_equivalent, parse_point, parse_stem,
                      r3_equivalent, taylor_series, verify_conjugator)
from slicereg.algebra import QI, QJ, QK
from slicereg.cli import RESULT_SCHEMA, main

from support import (conjugate_stem, eval_slice_split,
                     rand_nonzero_quaternion, rand_quaternion, rand_stem,
                     rand_stem_nonslice)

F_TEXT = "i + z*j + (1/2)*z^2*k"
G_TEXT = "(1 + (1/2)*z^2)*i"
ALPHA_TEXT = "(2 + (1/2)*z^2)*i + z*j + (1/2)*z^2*k"
QUARTIC = Poly([1, 0, 1, 0, Fraction(1, 4)])
ZP = Poly.monomial(1)
IOTA = GaussRat(0, 1)


@contextmanager
def criterion(name: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < time_limit, f"{name}: {elapsed:.2f}s >= {time_limit}s"
    print(f"PASS {name} [{elapsed:.3f}s]")


def test_criterion_1_worked_pair_invariants():
    with criterion("criterion 1: worked pair invariants, exact", 1.0):
        first = parse_stem(F_TEXT)
        second = parse_stem(G_TEXT)
        for stem in (first, second):
            assert stem.trace().is_zero
            assert stem.norm() == QUARTIC
        assert first.central_divisor() == Divisor.empty()
        assert second.central_divisor() == Divisor(ZP ** 2 + 2)
        verdict = equivalent(first, second)
        assert not verdict.equivalent
        assert verdict.reason == "cdiv"


def test_criterion_2_worked_pair_intertwiner():
    with criterion("criterion 2: worked pair intertwiner, exact", 1.0):
        first = parse_stem(F_TEXT)
        second = parse_stem(G_TEXT)
        alpha = parse_stem(ALPHA_TEXT)

        basis = find_intertwiner(first, second, 2)
        assert len(basis) == 1
        assert basis[0] == normalize_intertwiner(alpha)

        report = verify_conjugator(first, second, alpha)
        assert report.intertwines
        assert report.norm_alpha == Poly([4, 0, 3, 0, Fraction(1, 2)])
        assert not report.invertible_on_C


def test_criterion_3_divisor_examples():
    with criterion("criterion 3: divisor examples, exact", 1.0):
        stem = parse_stem("z + i*z^2*(z - 1) + j*z^3*(z - 1)^2")
        divisor = stem.central_divisor()
        assert divisor.gcd_poly == ZP ** 3 - ZP ** 2
        assert divisor.multiplicity(Fraction(0)) == 2
        assert divisor.multiplicity(Fraction(1)) == 1

        left = parse_stem("1 + i*z")
        right = parse_stem("1 + j*(1 + z)")
        d_left = left.central_divisor()
        d_right = right.central_divisor()
        d_product = left.star(right).central_divisor()
        assert d_left == Divisor(ZP)
        assert d_right == Divisor(ZP + 1)
        assert d_product == Divisor.empty()
        assert d_product != d_left + d_right  # divisors are not functorial


def test_criterion_4_transcendental_example_numeric():
    with criterion("criterion 4: truncated trig example, order 40", 2.0):
        order = 40
        rotating = (taylor_series("cos", order) * QI
                    + taylor_series("sin", order) * QJ)
        conjugator = (taylor_series("cos_half", order)
                      - taylor_series("sin_half", order) * QK)
        constant = TruncSeries.constant(QI, order)

        residual = rotating.norm() - TruncSeries.constant(1, order)
        assert all(not c for c in residual.coeffs)  # exact rational zeros

        for t in (0.5, 1.0):
            value, _ = rotating.eval_numeric(CQuatF(0, 0, t, 0))
            expected = CQuatF(-math.sinh(t), math.cosh(t), 0, 0)
            assert value.distance(expected) <= 1e-10

        report = check_conjugation_identity(constant, rotating, conjugator,
                                            tol=1e-9)
        assert report.all_pass
        assert len(report.checks) == 5


def test_criterion_5_property_suite():
    with criterion("criterion 5: 200-case exact property suite", 30.0):
        rng = random.Random(97531)
        cases = 0
        for _ in range(200):
            f = rand_stem(rng, 5)
            g = rand_stem(rng, 5)

            # Norm multiplicativity and the conjugation anti-homomorphism.
            assert f.star(g).norm() == f.norm() * g.norm()
            assert f.star(g).conj() == g.conj().star(f.conj())

            # Centrality of trace and norm.
            assert (f + f.conj()).hat().is_zero
            assert f.star(f.conj()).hat().is_zero

            # Trace-free reduction identity.
            quarter = f.trace() * f.trace() * Fraction(1, 4)
            assert f.norm() == quarter + f.hat().norm()

            # Representation-formula consistency of slice evaluation.
            q = rand_quaternion(rng)
            assert f.eval_slice(q) == eval_slice_split(f, q)

            # Divisor invariance under constant invertible conjugation.
            ns = rand_stem_nonslice(rng, 5)
            alpha = rand_nonzero_quaternion(rng)
            assert (conjugate_stem(alpha, ns).central_divisor()
                    == ns.central_divisor())

            # Verdict invariance under constant invertible conjugation.
            direct = equivalent(f, g).equivalent
            moved = equivalent(conjugate_stem(alpha, f), g).equivalent
            assert direct == moved

            cases += 1
        assert cases >= 200


ORBIT_POINTS = [
    # (point text, kind, isotropy)
    ("0", "CenterFixed", "FullGroup"),
    ("7", "CenterFixed", "FullGroup"),
    ("-3/2 + E", "CenterFixed", "FullGroup"),
    ("2 + 5*E", "CenterFixed", "FullGroup"),
    ("i + E*j", "NullCone", "AdditiveC"),
    ("j + E*k", "NullCone", "AdditiveC"),
    ("3/5*i + 4/5*j + E*k", "NullCone", "AdditiveC"),
    ("i - E*j", "NullCone", "AdditiveC"),
    ("i", "Generic", "TorusCstar"),
    ("2 + 3*i", "Generic", "TorusCstar"),
    ("i + j", "Generic", "TorusCstar"),
    ("E*i", "Generic", "TorusCstar"),
]


def test_criterion_6_orbit_suite():
    with criterion("criterion 6: orbit stratification, exact", 1.0):
        assert len(ORBIT_POINTS) == 12
        for text, kind, isotropy in ORBIT_POINTS:
            cls = classify_orbit(parse_point(text))
            assert (cls.kind, cls.isotropy) == (kind, isotropy), text
            if kind == "Generic":
                assert cls.lam != GaussRat(0)
            else:
                assert cls.lam == GaussRat(0)

        # Equal trace and norm do not connect the center to the null cone:
        # the guarded predicate refuses this pair.
        p = parse_point("1")
        q = parse_point("1 + i + E*j")
        assert p.trace() == q.trace() and p.norm() == q.norm()
        assert not orbit_equivalent(p, q)


def test_criterion_7_r3_suite():
    with criterion("criterion 7: split-algebra suite, exact", 5.0):
        rng = random.Random(24680)

        # Componentwise invariants, including the swap caveat.
        for _ in range(50):
            x = R3Elem(rand_quaternion(rng), rand_quaternion(rng))
            y = R3Elem(rand_quaternion(rng), rand_quaternion(rng))
            assert x.norm() == (x.first.norm(), x.second.norm())
            assert x.trace() == (x.first.trace(), x.second.trace())
            prod = x * y
            assert prod.norm() == (x.first.norm() * y.first.norm(),
                                   x.second.norm() * y.second.norm())
            assert x.swap().norm() == (x.second.norm(), x.first.norm())

        # The pair decision agrees with the componentwise decisions.
        agree = 0
        equivalent_cases = 0
        for n in range(50):
            f1, f2 = rand_stem(rng, 3), rand_stem(rng, 3)
            if n % 2 == 0:
                h1 = conjugate_stem(rand_nonzero_quaternion(rng), f1)
                h2 = conjugate_stem(rand_nonzero_quaternion(rng), f2)
            else:
                h1, h2 = rand_stem(rng, 3), rand_stem(rng, 3)
            pair_verdict = r3_equivalent(R3StemPoly(f1, f2), R3StemPoly(h1, h2))
            component = (equivalent(f1, h1).equivalent
                         and equivalent(f2, h2).equivalent)
            assert pair_verdict.equivalent == component
            agree += 1
            equivalent_cases += pair_verdict.equivalent
        assert agree == 50 and equivalent_cases >= 20

        # The swap pairing is detected.
        for _ in range(10):
            a = rand_stem_nonslice(rng, 3)
            b = rand_stem_nonslice(rng, 3)
            if equivalent(a, b).equivalent:
                continue
            pair = R3StemPoly(a, b)
            swapped = pair.swap()
            assert not r3_equivalent(pair, swapped).equivalent
            verdict = r3_equivalent(pair, swapped, allow_swap=True)
            assert verdict.equivalent and verdict.pairing == "swapped"

        # Quadratic cone membership is the trace/norm reality criterion.
        checked = 0
        inside = 0
        for n in range(50):
            q1 = rand_quaternion(rng)
            if n % 2 == 0:
                alpha = rand_nonzero_quaternion(rng)
                q2 = alpha * q1 * alpha.inverse()
            else:
                q2 = rand_quaternion(rng)
            point = R3Elem(q1, q2)
            criterion_value = (q1.trace() == q2.trace()
                               and q1.norm() == q2.norm())
            assert point.in_quadratic_cone() == criterion_value
            checked += 1
            inside += criterion_value
        assert checked == 50 and inside >= 25


def test_criterion_8_cli_surface(capsys):
    with criterion("criterion 8: CLI, JSON schema, round-trip", 10.0):
        code = main(["paper-examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out and out.count("PASS") == 8

        json_invocations = [
            ["invariants", F_TEXT],
            ["invariants", G_TEXT],
            ["equiv", F_TEXT, G_TEXT],
            ["intertwine", F_TEXT, G_TEXT, "--degree-max", "2"],
            ["verify", F_TEXT, G_TEXT, ALPHA_TEXT],
            ["invariants", "z + i*z^2*(z - 1) + j*z^3*(z - 1)^2"],
        ]
        for argv in json_invocations:
            main(argv + ["--json"])
            document = json.loads(capsys.readouterr().out)
            jsonschema.validate(document, RESULT_SCHEMA)

        from test_parsing import GOLDEN, GOLDEN_POINTS
        from slicereg import render_cquat, render_stem
        for text in GOLDEN:
            value = parse_stem(text)
            assert parse_stem(render_stem(value)) == value
        for text in GOLDEN_POINTS:
            value = parse_point(text)
            assert parse_point(render_cquat(value)) == value
