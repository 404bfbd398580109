"""The three benchmark workloads: inputs, the timed call, and answer checks.

Every workload is a sequence of rounds.  Round ``r`` of seed ``s`` is built
from ``random.Random(f"{name}:{s}:{r}")`` alone, so the same seed gives the
same inputs and a traced run replays exactly the rounds an untraced run
measured.  A round has a fixed composition (kinds and sizes); the seed only
draws coefficients and, for ``cli``, the order.  Fixed composition keeps
each percentile inside one class of operations (see README.md).

Each operation's expected answer comes from how it was built; the checks
here never ask the program under test what the answer should be.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import slicereg.cli as cli
import slicereg.equiv as equiv
from slicereg.algebra import Quaternion
from slicereg.stem import R3StemPoly, StemPoly

OK, CRASH, WRONG = "ok", "crash", "wrong"

# cli inputs that exit 1 with a traceback at the commit that added this
# benchmark (ROADMAP item 4).  They count as failed; a crash on any other
# operation makes the run incorrect.
KNOWN_CRASH = frozenset({"series-check --order 0",
                         "intertwine i j --degree-max -1"})


@dataclass
class Op:
    kind: str
    size: dict
    args: tuple
    expected: object = None
    key: str = ""
    extra: dict = field(default_factory=dict)


def _rng(name: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{rnd}")


# -- desk-scale random inputs ---------------------------------------------------

def rand_coeff(rng: random.Random) -> Fraction:
    """Half small integers, half rationals with |num|, den <= 9."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_quat(rng, nonzero=False) -> Quaternion:
    while True:
        q = Quaternion(*(rand_coeff(rng) for _ in range(4)))
        if q or not nonzero:
            return q


def rand_pure(rng) -> Quaternion:
    while True:
        q = Quaternion(0, rand_coeff(rng), rand_coeff(rng), rand_coeff(rng))
        if q:
            return q


def rand_stem(rng, degree: int) -> StemPoly:
    """Degree exactly ``degree`` and not slice preserving."""
    while True:
        coeffs = [rand_quat(rng) for _ in range(degree)]
        coeffs.append(rand_quat(rng, nonzero=True))
        stem = StemPoly(coeffs)
        if not stem.is_slice_preserving():
            return stem


def conjugate(u: Quaternion, stem: StemPoly) -> StemPoly:
    """u * F * u^-1, coefficientwise (u a constant)."""
    inv = u.inverse()
    return StemPoly([u * c * inv for c in stem.coeffs])


def coeff_bits(*stems) -> int:
    bits = 0
    for stem in stems:
        for c in stem.coeffs:
            for x in c.components():
                bits = max(bits, x.numerator.bit_length(),
                           x.denominator.bit_length())
    return bits


# -- decide ---------------------------------------------------------------------

# (kind, stem degree).  Costs rank roughly sp << deg 4 < deg 8 < deg 16
# << deg 32; with this mix p50 falls among the degree-8 and cheap r3
# decisions and p90 inside the degree-32 block (4 of 20 ops: cdiv plus eq).
DECIDE_ROUND = (
    ("sp", 4), ("sp", 8),
    ("norm", 4), ("cdiv", 4), ("eq", 4), ("eq", 4), ("r3", 4), ("r3", 4),
    ("norm", 8), ("cdiv", 8), ("cdiv", 8), ("eq", 8), ("eq", 8),
    ("norm", 16), ("cdiv", 16), ("eq", 16),
    ("cdiv", 32), ("eq", 32), ("eq", 32), ("eq", 32),
)


def _decide_op(rng, kind: str, degree: int) -> Op:
    if kind == "eq":
        f = rand_stem(rng, degree)
        h = conjugate(rand_quat(rng, nonzero=True), f)
        expected = (True, None)
    elif kind == "norm":
        f = rand_stem(rng, degree)
        h = conjugate(rand_quat(rng, nonzero=True), f)
        # Add a pure-imaginary delta parallel to the top coefficient's
        # imaginary part: the trace is unchanged, the top norm coefficient
        # grows strictly, so the decision stops at the norm.
        top = h.coeffs[-1]
        delta = top.imag() if top.imag() else Quaternion(0, 1)
        h = StemPoly(h.coeffs[:-1] + (top + delta,))
        expected = (False, "norm")
    elif kind == "cdiv":
        # q*v*q^c against N(q)*v: both trace-free with norm N(q)^2 N(v),
        # but the second has the planted divisor N(q) of degree 2 deg q.
        q = rand_stem(rng, degree // 2)
        v = StemPoly([rand_pure(rng)])
        f = q.star(v).star(q.conj())
        h = StemPoly([v.coeffs[0] * c for c in q.norm().coeffs])
        expected = (False, "cdiv")
    elif kind == "sp":
        f = StemPoly([Quaternion(rand_coeff(rng)) for _ in range(degree)]
                     + [Quaternion(rng.choice((-2, -1, 1, 2)))])
        if degree == 4:
            h = StemPoly(f.coeffs)
            expected = (True, None)
        else:
            h = f + 1
            expected = (False, "identity")
    elif kind == "r3":
        a = rand_stem(rng, degree)
        while True:
            b = rand_stem(rng, degree)
            if a.trace() != b.trace():
                break
        f = R3StemPoly(a, b)
        h = R3StemPoly(conjugate(rand_quat(rng, nonzero=True), b),
                       conjugate(rand_quat(rng, nonzero=True), a))
        expected = (True, "swapped")
        return Op(kind, {"degree": degree,
                         "coeff_bits": coeff_bits(a, b, h.first, h.second)},
                  (f, h), expected)
    else:
        raise ValueError(kind)
    return Op(kind, {"degree": degree, "coeff_bits": coeff_bits(f, h)},
              (f, h), expected)


class Decide:
    name = "decide"
    in_process = True

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def make_round(self, rnd: int) -> list[Op]:
        rng = _rng(self.name, self.seed, rnd)
        ops = [_decide_op(rng, kind, deg) for kind, deg in DECIDE_ROUND]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op: Op):
        f, h = op.args
        if op.kind == "r3":
            return equiv.r3_equivalent(f, h, allow_swap=True)
        return equiv.equivalent(f, h)

    run_in_process = run

    @staticmethod
    def status(op: Op, verdict) -> tuple[str, str | None]:
        if op.kind == "r3":
            got = (verdict.equivalent, verdict.pairing)
        else:
            got = (verdict.equivalent, verdict.reason)
        if got == op.expected:
            return OK, None
        return WRONG, f"expected {op.expected}, got {got}"

    def cross_check(self) -> list[str]:
        """sympy check of one pair per kind and degree of round 0."""
        import oracle
        seen, stems = set(), []
        for op in self.make_round(0):
            if op.kind in ("sp", "r3") or (op.kind, op.size["degree"]) in seen:
                continue
            seen.add((op.kind, op.size["degree"]))
            stems.extend(op.args)
        return oracle.check_stems(stems)


# -- intertwine -----------------------------------------------------------------

# (kind, stem degree, dmax).  The worked pair is the README example.  Its
# two dmax-12 searches are the slowest class, so p90 sits in the middle of
# a block whose input never changes; p50 falls among the dmax 4-6 systems
# of degree 2-6, which cost alike.
INTERTWINE_ROUND = (
    ("pair", 2, 2), ("pair", 2, 8), ("pair", 2, 12), ("pair", 2, 12),
    ("plant", 2, 2), ("plant", 2, 6), ("plant", 2, 10), ("plant", 4, 4),
    ("plant", 4, 6), ("plant", 6, 4),
)


class Intertwine:
    name = "intertwine"
    in_process = True

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.pair = (cli.parse_stem(cli.PAIR_F), cli.parse_stem(cli.PAIR_G))
        self.pair_alpha = cli.parse_stem(cli.PAIR_ALPHA)

    def make_round(self, rnd: int) -> list[Op]:
        rng = _rng(self.name, self.seed, rnd)
        ops = []
        for kind, degree, dmax in INTERTWINE_ROUND:
            if kind == "pair":
                f, h = self.pair
                alpha = self.pair_alpha
                # alpha * z^k for k <= dmax - 2 all intertwine.
                min_dim = dmax - 1
            else:
                f = rand_stem(rng, degree)
                # A pure-imaginary constant u satisfies both relations for
                # (F, u^-1 F u), and so does u * z^k for every k <= dmax.
                alpha = rand_pure(rng)
                h = conjugate(alpha.inverse(), f)
                alpha = StemPoly([alpha])
                min_dim = dmax + 1
            size = {"degree": max(f.degree, h.degree), "dmax": dmax,
                    "unknowns": 4 * (dmax + 1), "coeff_bits": coeff_bits(f, h)}
            ops.append(Op(kind, size, (f, h, dmax), min_dim,
                          extra={"alpha": alpha}))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op: Op):
        f, h, dmax = op.args
        basis = equiv.find_intertwiner(f, h, dmax)
        report = equiv.verify_conjugator(f, h, basis[0]) if basis else None
        return basis, report

    run_in_process = run

    @staticmethod
    def status(op: Op, result) -> tuple[str, str | None]:
        basis, report = result
        if len(basis) < op.expected:
            return WRONG, f"solution space dim {len(basis)} < {op.expected}"
        if not report.intertwines:
            return WRONG, "first basis vector does not intertwine"
        return OK, None

    def cross_check(self) -> list[str]:
        """sympy check of round 0: every stem's norm and divisor, and that
        the planted intertwiner lies in the returned span at dmax 2."""
        import oracle
        ops = self.make_round(0)
        problems = oracle.check_stems([s for op in ops for s in op.args[:2]])
        for op in ops:
            f, h, dmax = op.args
            if dmax == 2 and not oracle.check_in_span(
                    equiv.find_intertwiner(f, h, dmax), op.extra["alpha"]):
                problems.append(f"{op.kind} dmax 2: planted alpha not in span")
        return problems


# -- cli ------------------------------------------------------------------------

def readme_examples(root: Path) -> list[tuple[list[str], str]]:
    """(argv, stdout) of every ``$ slicereg ...`` example in README.md."""
    lines = (root / "README.md").read_text().splitlines()
    out = []
    for n, line in enumerate(lines):
        if not line.startswith("$ slicereg "):
            continue
        argv = shlex.split(line[2:])[1:]
        text = []
        for follow in lines[n + 1:]:
            if not follow.strip() or follow.startswith("```"):
                break
            text.append(follow + "\n")
        out.append((argv, "".join(text)))
    return out


# The three slowest commands (this sum twice, series-check at order 80) are
# 3 of 20 per round, so p90 sits a third of the way into their block.  The
# 12 commands that cost little more than start-up put p50 two ranks below
# the top of their block, not at its edge (the next command costs 20% more).
_HEAVY_SUM = " + ".join(f"{k}/{k + 1}*z^{k}*(i+j)" for k in range(1, 31))
_POWER = "(1+z*i+z^2*j)^12"
# Rotating i -> j -> k -> i is an automorphism, so these two are equivalent
# and the decision runs its full path (norms and both gcds).
_POWER6 = "(1+z*i+z^2*j)^6"
_POWER6_ROT = "(1+z*j+z^2*k)^6"


def _check_lines(prefix_all: str, last=None):
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        body = lines[:-1] if last else lines
        if not body or not all(x.startswith(prefix_all) for x in body):
            return "not every check line passed"
        if last and not last(lines[-1], len(body)):
            return f"bad summary line {lines[-1]!r}"
        return None
    return check


def _check_series(order: int):
    base = _check_lines("PASS ")

    def check(stdout: str) -> str | None:
        problem = base(stdout)
        if problem:
            return problem
        if len(stdout.splitlines()) != 3 or f"mod z^{order}" not in stdout:
            return "expected three checks at the requested order"
        return None
    return check


def cli_commands(root: Path) -> list[dict]:
    """The cli workload: argv, expected exit code and a stdout check.

    ``stdout`` is either the exact expected text or a function returning
    an error message (None when the output is right).  Checks that need
    sympy live in `oracle`.
    """
    from oracle import (check_cdiv_line, check_power_invariants,
                        check_trace_mismatch)

    readme = readme_examples(root)
    if len(readme) != 2:
        raise RuntimeError(f"expected 2 README examples, found {len(readme)}")
    (eq_argv, eq_out), (int_argv, int_out) = readme
    cmds = [
        {"argv": eq_argv, "exit": 1, "stdout": eq_out},
        {"argv": int_argv, "exit": 0, "stdout": int_out},
        {"argv": ["paper-examples"], "exit": 0,
         "stdout": _check_lines("PASS ", lambda line, n:
                                line == f"{n}/{n} checks passed")},
        {"argv": ["series-check"], "exit": 0, "stdout": _check_series(40)},
        {"argv": ["series-check", "--order", "80"], "exit": 0,
         "stdout": _check_series(80)},
        {"argv": ["invariants", _POWER], "exit": 0,
         "stdout": check_power_invariants},
        {"argv": ["cdiv", _HEAVY_SUM], "exit": 0, "stdout": check_cdiv_line},
        {"argv": ["equiv", _POWER6, _POWER6_ROT], "exit": 0,
         "stdout": "equivalent: true\nbranch: NotSlicePreserving\n"},
        # The sum is trace-free, the power is not: decided at the trace.
        {"argv": ["equiv", _HEAVY_SUM, _POWER6], "exit": 1,
         "stdout": check_trace_mismatch},
        {"argv": ["r3-equiv", "(i + z*j ; 1 + z*k)", "(1 + z*k ; i + z*j)",
                  "--allow-swap"], "exit": 0,
         "stdout": "equivalent: true\npairing: swapped\n"},
        # w = E*i + j has B(w, w) = E^2 + 1 = 0: the null cone.
        {"argv": ["classify", "1 + E*i + j"], "exit": 0,
         "stdout": "kind: NullCone\nlambda: 0\nisotropy: AdditiveC\n"},
        {"argv": ["orbit", "i", "j"], "exit": 0,
         "stdout": "orbit-equivalent: true\n"},
        # Automorphisms fix the real part.
        {"argv": ["orbit", "i", "1"], "exit": 1,
         "stdout": "orbit-equivalent: false\n"},
        {"argv": ["equiv", "i + z*j", "j + z*k"], "exit": 0,
         "stdout": "equivalent: true\nbranch: NotSlicePreserving\n"},
        # 1 + q*i + q^2*j at q = 1/2 + i and at q = 2, and q^2 at q = i,
        # by hand.
        {"argv": ["eval", "1 + z*i + z^2*j", "--at", "1/2 + i"], "exit": 0,
         "stdout": "value: 1/2*i - 3/4*j + k\n"},
        {"argv": ["eval", "1 + z*i + z^2*j", "--at", "2"], "exit": 0,
         "stdout": "value: 1 + 2*i + 4*j\n"},
        {"argv": ["eval", "z^2", "--at", "i"], "exit": 0,
         "stdout": "value: -1\n"},
        # Malformed inputs: the contract says exit 2 and no traceback.
        {"argv": ["invariants", "1 + * z"], "exit": 2, "stdout": ""},
        {"argv": ["series-check", "--order", "0"], "exit": 2, "stdout": ""},
        {"argv": ["intertwine", "i", "j", "--degree-max", "-1"], "exit": 2,
         "stdout": ""},
    ]
    for cmd in cmds:
        cmd["key"] = shlex.join(cmd["argv"])
    return cmds


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


class Cli:
    name = "cli"
    in_process = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.commands = cli_commands(root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.verified: dict[str, str] = {}

    def make_round(self, rnd: int) -> list[Op]:
        rng = _rng(self.name, self.seed, rnd)
        ops = [Op(c["argv"][0], {"chars": sum(len(a) for a in c["argv"])},
                  tuple(c["argv"]), c, key=c["key"]) for c in self.commands]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op) -> CliOutcome:
        proc = subprocess.run([sys.executable, "-m", "slicereg", *op.args],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        return CliOutcome(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def run_in_process(op: Op) -> CliOutcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.args))
        return CliOutcome(code, out.getvalue(), err.getvalue())

    @staticmethod
    def cross_check() -> list[str]:
        """The sympy checks of this workload run on each command's first
        output, in `status`."""
        return []

    def status(self, op: Op, outcome: CliOutcome) -> tuple[str, str | None]:
        if "Traceback" in outcome.stderr:
            return CRASH, outcome.stderr.strip().splitlines()[-1]
        want = op.expected
        if outcome.code != want["exit"]:
            return WRONG, f"exit {outcome.code}, expected {want['exit']}"
        if isinstance(want["stdout"], str):
            ok = outcome.stdout == want["stdout"]
            return (OK, None) if ok else (WRONG, "stdout differs")
        # Checked once per command; later runs must repeat it byte for byte.
        if op.key in self.verified:
            same = self.verified[op.key] == outcome.stdout
            return (OK, None) if same else (WRONG, "stdout changed between runs")
        problem = want["stdout"](outcome.stdout)
        if problem:
            return WRONG, problem
        self.verified[op.key] = outcome.stdout
        return OK, None


WORKLOADS = {w.name: w for w in (Decide, Intertwine, Cli)}
