"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import re

import pytest

import slicereg.cli
import slicereg.equiv
import slicereg.stem
from slicereg.poly import Poly
from slicereg.stem import StemPoly

import run
import tracing
import workloads
from conftest import BENCH

ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(ops):
    return [(op.kind, op.size, op.args, op.key or op.expected) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name]
    for rnd in (0, 3):
        first = _inputs(make(5, ROOT).make_round(rnd))
        assert first == _inputs(make(5, ROOT).make_round(rnd))


def test_other_seed_gives_other_inputs():
    decide = workloads.Decide
    assert _inputs(decide(5, ROOT).make_round(0)) != _inputs(decide(6, ROOT).make_round(0))


def test_round_composition_does_not_depend_on_seed():
    counts = [sorted((op.kind, op.size["degree"])
                     for op in workloads.Decide(seed, ROOT).make_round(0))
              for seed in (1, 2)]
    assert counts[0] == counts[1] == sorted(workloads.DECIDE_ROUND)


def test_planted_decide_pairs():
    for op in workloads.Decide(3, ROOT).make_round(0):
        f, h = op.args
        if op.kind == "cdiv":
            assert f.trace() == h.trace() == Poly()
            assert f.norm() == h.norm()
            assert h.central_divisor().degree == op.size["degree"]
        elif op.kind == "eq":
            assert f.trace() == h.trace() and f.norm() == h.norm()
        elif op.kind == "norm":
            assert f.trace() == h.trace() and f.norm() != h.norm()
        elif op.kind == "r3":
            assert f.first.trace() != f.second.trace()
        elif op.kind == "sp":
            assert f.is_slice_preserving() and h.is_slice_preserving()


def test_planted_intertwiners_satisfy_both_relations():
    for op in workloads.Intertwine(3, ROOT).make_round(0):
        f, h, _ = op.args
        alpha = op.extra["alpha"]
        assert f.star(alpha) == alpha.star(h)
        assert alpha.star(f) == h.star(alpha)


def test_cli_expectations_cover_the_readme_examples():
    examples = workloads.readme_examples(ROOT)
    assert [argv[0] for argv, _ in examples] == ["equiv", "intertwine"]
    assert all(text.endswith("\n") for _, text in examples)
    keys = [c["key"] for c in workloads.cli_commands(ROOT)]
    assert len(keys) == len(set(keys)) == 20
    assert workloads.KNOWN_CRASH <= set(keys)


def test_only_known_crashes_keep_a_run_correct():
    known = next(c for c in workloads.cli_commands(ROOT)
                 if c["key"] in workloads.KNOWN_CRASH)
    known_op = workloads.Op("cli", {}, (), known, key=known["key"])
    tally = run.Tally()
    tally.add(workloads.CRASH, "ValueError", known_op)
    assert tally.correct and tally.failed == 1
    tally.add(workloads.CRASH, "ValueError", workloads.Op("eq", {}, ()))
    assert not tally.correct and tally.failed == 2


def test_tracer_records_spans_and_removes_its_wrappers():
    originals = (StemPoly.star, slicereg.stem.poly_gcd_many,
                 slicereg.equiv.equivalent, slicereg.cli.find_intertwiner)
    op = next(op for op in workloads.Decide(1, ROOT).make_round(0)
              if op.kind == "eq" and op.size["degree"] == 4)
    tracer = tracing.Tracer()
    with tracer:
        assert StemPoly.star is not originals[0]
        verdict = workloads.Decide.run(op)
    assert verdict.equivalent
    assert (StemPoly.star, slicereg.stem.poly_gcd_many,
            slicereg.equiv.equivalent, slicereg.cli.find_intertwiner) == originals
    names = {rec[0] for rec in tracer.spans}
    assert {"equiv.equivalent", "stem.norm", "stem.star", "poly.gcd_many"} <= names
    metrics = tracing.layer_metrics(tracer)
    assert metrics["poly.gcd_many.calls"][0] == 2
    assert metrics["algebra.quat_mul.calls"][0] > 0
    # Self times partition the top-level span's duration.
    top = next(rec for rec in tracer.spans if rec[3] == -1)
    total = sum(tracer.self_ms().values())
    assert total == pytest.approx((top[2] - top[1]) * 1000.0)


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    traced = set(tracing.layer_metrics(tracing.Tracer())) | {
        "startup.interpreter_ms", "startup.import_ms",
        "trace.overhead_ms", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90


def test_clock_scales_each_time_by_the_calibrations_around_it():
    # The second op started fast and ended slow, the third ran slow.
    ref = run.CALIBRATION_S
    raw, probes = [1.0, 2.0, 3.0], [ref, ref, 2 * ref, 2 * ref]
    assert run.correct(raw, probes) == pytest.approx([1.0, 4.0 / 3.0, 1.5])
    clock = run.Clock()
    for dt in raw:
        clock.lap(dt)
    assert clock.raw == raw and len(clock.probes) == len(raw) + 1
