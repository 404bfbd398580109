import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg.cli import (PAIR_ALPHA, PAIR_F, PAIR_G, RESULT_SCHEMA,
                          builtin_example_checks, main)

F = PAIR_F
G = PAIR_G


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    document = json.loads(out)
    jsonschema.validate(document, RESULT_SCHEMA)
    return code, document


def test_invariants_command(capsys):
    code, doc = run_json(capsys, "invariants", F)
    assert code == 0
    assert doc["trace"] == "0"
    assert doc["norm"] == "1 + z^2 + 1/4*z^4"
    assert doc["cdiv"] == "1"

    code, doc = run_json(capsys, "invariants", G)
    assert doc["cdiv"] == "2 + z^2"

    code, doc = run_json(capsys, "invariants", "1 + z^2")
    assert doc["cdiv"] == "slice-preserving"


def test_invariants_r3(capsys):
    code, doc = run_json(capsys, "invariants", f"( i ; {G} )", "--algebra", "r3")
    assert code == 0
    assert doc["cdiv"] == "(1 ; 2 + z^2)"


def test_equiv_command_exit_codes(capsys):
    code, doc = run_json(capsys, "equiv", F, G)
    assert code == 1
    assert doc["equivalent"] is False
    assert doc["reason"] == "cdiv mismatch: 1 vs 2 + z^2"

    code, doc = run_json(capsys, "equiv", F, F)
    assert code == 0 and doc["equivalent"] is True and doc["reason"] is None

    code, out = run_cli(capsys, "equiv", "1", "2")
    assert code == 1
    assert "reason: slice preserving branch requires literal equality" in out


def test_equiv_r3_and_alias(capsys):
    pair_a = f"( i ; {G} )"
    pair_b = f"( {G} ; i )"
    code, _ = run_json(capsys, "equiv", pair_a, pair_b, "--algebra", "r3")
    assert code == 1
    code, doc = run_json(capsys, "equiv", pair_a, pair_b, "--algebra", "r3",
                         "--allow-swap")
    assert code == 0 and doc["branch"] == "swapped"
    code, doc = run_json(capsys, "r3-equiv", pair_a, pair_b, "--allow-swap")
    assert code == 0


def test_orbit_and_classify(capsys):
    code, doc = run_json(capsys, "orbit", "i", "3/5*i + 4/5*j")
    assert code == 0 and doc["equivalent"] is True

    code, doc = run_json(capsys, "orbit", "1", "1 + i + E*j")
    assert code == 1 and doc["equivalent"] is False

    code, doc = run_json(capsys, "classify", "2 + 3*i")
    assert code == 0
    assert doc["orbit"] == {"kind": "Generic", "lambda": "9",
                            "isotropy": "TorusCstar"}


def test_intertwine_command(capsys):
    code, doc = run_json(capsys, "intertwine", F, G, "--degree-max", "2")
    assert code == 0
    assert len(doc["intertwiners"]) == 1
    assert doc["invertible_on_C"] is False

    code, doc = run_json(capsys, "intertwine", "i", "2*i", "--degree-max", "1")
    assert code == 1 and doc["intertwiners"] == []


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", F, G, PAIR_ALPHA)
    assert code == 0
    assert "intertwines (alpha*F = H*alpha): true" in out
    assert "norm_alpha: 4 + 3*z^2 + 1/2*z^4" in out
    assert "invertible_on_C: false" in out

    code, _ = run_cli(capsys, "verify", "j", "i", "1")
    assert code == 1


def test_verify_json_carries_the_conjugation_identity(capsys):
    """True for a constant alpha that conjugates, false for one that does
    not, null when norm(alpha) is not constant (the worked pair)."""
    for argv, code, identity in (
            (("i + z*j", "j + z*k", "1 + i + j + k"), 0, True),
            (("i", "j", "1"), 1, False),
            ((F, G, PAIR_ALPHA), 0, None)):
        got, doc = run_json(capsys, "verify", *argv)
        assert got == code
        assert doc["conjugation_identity"] is identity
        assert doc["equivalent"] is (code == 0)


def test_eval_command(capsys):
    code, out = run_cli(capsys, "eval", "z^2", "--at", "j")
    assert code == 0 and out.strip() == "value: -1"
    code, out = run_cli(capsys, "eval", F, "--at", "E", "--stem")
    assert code == 0 and "E" in out
    code, _ = run_cli(capsys, "eval", F, "--at", "1 + E", "--slice")
    assert code == 2
    code, _ = run_cli(capsys, "eval", F, "--at", "i", "--stem")
    assert code == 2


def test_cdiv_command(capsys):
    code, out = run_cli(capsys, "cdiv", G, "--roots")
    assert code == 0
    assert "cdiv: 2 + z^2" in out
    assert "1.414214" in out
    code, _ = run_cli(capsys, "cdiv", "1 + z^2")
    assert code == 2  # undefined for slice preserving input
    code, out = run_cli(capsys, "cdiv", "i + z*j", "--roots")
    assert code == 0
    assert "approximate roots (display only): none" in out


def test_cdiv_roots_without_numpy_is_an_error(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    code = main(["cdiv", G, "--roots"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "numpy" in captured.err


def test_parse_and_usage_errors(capsys):
    code, _ = run_cli(capsys, "equiv", "i + +", "j")
    assert code == 2
    code, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _ = run_cli(capsys, "--help")
    assert code == 0
    for argv in (("series-check", "--order", "0"),
                 ("series-check", "--order", "-3"),
                 ("series-check", "--tol", "nan"),
                 ("series-check", "--tol", "inf"),
                 ("series-check", "--tol", "0"),
                 ("series-check", "--tol", "-1e-9"),
                 ("intertwine", "i", "j", "--degree-max", "-1"),
                 ("series-check", "--samples", "abc"),
                 ("series-check", "--samples", ","),
                 ("series-check", "--samples", ""),
                 ("series-check", "--samples", "inf"),
                 ("series-check", "--samples", "nan"),
                 ("series-check", "--samples", "1e400"),
                 # int(), float() and complex() read any Unicode digit;
                 # the flags take ASCII only, as the expression parser does.
                 ("intertwine", "i", "i", "--degree-max", "\u0661"),
                 ("series-check", "--order", "\u0661"),
                 ("series-check", "--tol", "\u0661"),
                 ("series-check", "--samples", "\u0660.\u0665")):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if ": error: " in line]
        assert len(errors) == 1 and argv[-2] in errors[0]
    assert main(["series-check", "--samples", "0.5, abc"]) == 2
    assert "--samples: bad sample 'abc'" in capsys.readouterr().err


def test_numbers_above_4300_digits_are_read_and_printed_in_full(capsys):
    """CPython refuses int <-> str conversions above 4300 digits by
    default; the command line lifts that cap for the length of a call."""
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    big = "1" + "0" * 5000
    code, out = run_cli(capsys, "invariants", "(10^500)^5*z + i")
    assert code == 0
    assert f"norm: 1 + {big}*z^2" in out.splitlines()
    code, doc = run_json(capsys, "invariants", "(10^500)^5*z + i")
    assert code == 0 and doc["norm"] == f"1 + {big}*z^2"
    assert run_cli(capsys, "eval", "z^17", "--at", "10^300") == (
        0, f"value: 1{'0' * 5100}\n")
    # A literal that long is read by the tokenizer.
    code, out = run_cli(capsys, "cdiv", f"{big}*z*i + z^2*j")
    assert (code, out) == (0, "cdiv: z\n")
    assert get_limit() == limit


def test_an_expression_may_start_with_a_minus(capsys):
    """An argument with one leading "-" that names no option is a value,
    as it is after "--"; the registered flags keep their meaning."""
    assert run_cli(capsys, "orbit", "i", "-i") == (
        0, "orbit-equivalent: true\n")
    assert run_cli(capsys, "equiv", "i", "-j")[0] == 0
    assert run_cli(capsys, "invariants", "-z*i") == run_cli(
        capsys, "invariants", "--", "-z*i") == (
        0, "trace: 0\nnorm: z^2\ncdiv: z\n")
    code, doc = run_json(capsys, "invariants", "-z*i")
    assert doc["inputs"] == ["-z*i"]
    assert run_cli(capsys, "eval", "-z", "--at", "-i") == (0, "value: i\n")
    code, out = run_cli(capsys, "invariants", "-h")
    assert code == 0 and out.startswith("usage: slicereg invariants")
    # A negative number still goes to the option that takes it.
    assert main(["intertwine", "i", "j", "--degree-max", "-1"]) == 2
    assert "--degree-max: must be >= 0, got -1" in capsys.readouterr().err


def test_series_check_command(capsys):
    code, out = run_cli(capsys, "series-check", "--order", "24")
    assert code == 0
    assert out.count("PASS") == 3
    code, out = run_cli(capsys, "series-check", "--order", "24",
                        "--samples", "0.1, 0.5+0.5i")
    assert code == 0
    # Far samples overflow the double-precision evaluation: a failed
    # check, not a crash.
    for far in ("1e10", "1e200"):
        code, out = run_cli(capsys, "series-check", "--samples", far)
        assert code == 1
        assert "FAIL trig-conjugation: max pointwise error inf" in out


def test_series_check_passes_at_a_loose_tolerance(capsys):
    """The conjugator's norm is 1 at every default sample, so a tolerance
    of 1 or 2 must keep the verdict: the near-singular guard reads the
    conjugator's own size, not the tolerance."""
    for tol in ("1", "2"):
        code, out = run_cli(capsys, "series-check", "--tol", tol)
        assert code == 0 and out.count("PASS") == 3
        assert f"(tol {tol})" in out


def test_series_check_order_is_capped_at_320(capsys):
    code, out = run_cli(capsys, "series-check", "--order", "320")
    assert code == 0 and out.count("PASS") == 3 and "mod z^320" in out
    for order in ("321", str(10 ** 12)):
        code = main(["series-check", "--order", order])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: order {order} is above the limit "
                                "of 320\n")


def test_paper_examples_command(capsys):
    code, out = run_cli(capsys, "paper-examples")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 8

    code, doc = run_json(capsys, "paper-examples")
    assert code == 0
    assert all(check["pass"] for check in doc["checks"])


def test_builtin_checks_all_pass():
    assert all(c.passed for c in builtin_example_checks())


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "slicereg", "equiv", F, G],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "cdiv mismatch" in proc.stdout


def test_closed_stdout_exits_2_without_a_traceback():
    # 117 kB of invariants, more than a pipe holds: the reader takes 10
    # bytes and closes, so a later write meets a closed pipe, whatever
    # the buffering.
    proc = subprocess.Popen(
        [sys.executable, "-m", "slicereg", "invariants", "(1+z*i+z^2*j)^300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_import_pulls_in_no_heavy_standard_modules():
    # Start-up sets the wait for every CLI command, so importing the
    # package and its CLI must not load `dataclasses` (with `inspect`
    # behind it) or `json` (loaded only when --json prints).  `-S` keeps
    # site customizations, which may import these themselves, out.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import slicereg, slicereg.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_inputs_beyond_the_limits_exit_2_with_one_error_line(capsys):
    for argv, message in (
            (("invariants", "(" * 3000 + "z" + ")" * 3000), "deeper than"),
            (("invariants", "--", "-" * 3000 + "z"), "deeper than"),
            (("invariants", "z^99999999999999999999"), "limit of"),
            (("intertwine", "i", "j", "--degree-max", str(10 ** 12)), "limit of")):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]


def readme_examples():
    """(argv, stdout) of every `$ slicereg ...` block in README.md: the
    command line, then the output lines up to a blank line or a fence."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples = []
    for n, line in enumerate(lines):
        if line.startswith("$ slicereg "):
            output = []
            for follow in lines[n + 1:]:
                if not follow.strip() or follow.startswith("```"):
                    break
                output.append(follow + "\n")
            examples.append((shlex.split(line)[2:], "".join(output)))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) >= 2
    for argv, expected in examples:
        code, out = run_cli(capsys, *argv)
        assert out == expected, argv
        # Exit 1 is a negative verdict, which the first line announces.
        verdict = expected.splitlines()[0]
        assert code == (1 if verdict.endswith(": false") else 0), argv


# -- argv fuzzing -----------------------------------------------------------------

_EXPR_TOKENS = ("z", "q", "i", "j", "k", "E", "0", "1", "2", "3", "10", "/",
                "+", "-", "*", "^", "(", ")", ";", " ", "²", "١")
_SAMPLE_TOKENS = ("0", "1", "2", ".", "5", "e", "1e10", "1e200", "1e400",
                  "+", "-", "i", "j", ",", " ", "inf", "nan")
_expressions = st.lists(st.sampled_from(_EXPR_TOKENS), max_size=10).map("".join)
_flag_values = {
    "--algebra": st.sampled_from(("h", "r3", "x")),
    # Small degree bounds, plus ones refused by the validator and the cap.
    "--degree-max": st.sampled_from(("0", "1", "2", "-1", "64", "x")),
    "--at": _expressions,
    "--order": st.sampled_from(("1", "3", "17", "0", "-2", "x")),
    "--tol": st.sampled_from(("1e-9", "1e-3", "0", "nan", "inf", "x")),
    "--samples": st.lists(st.sampled_from(_SAMPLE_TOKENS), max_size=8)
                   .map("".join),
}
_COMMANDS = {
    "invariants": (1, ("--algebra", "--json")),
    "cdiv": (1, ("--roots",)),
    "equiv": (2, ("--algebra", "--allow-swap", "--json")),
    "r3-equiv": (2, ("--allow-swap", "--json")),
    "orbit": (2, ("--json",)),
    "classify": (1, ("--json",)),
    "intertwine": (2, ("--degree-max", "--json")),
    "verify": (3, ("--json",)),
    "eval": (1, ("--at", "--slice", "--stem")),
    "series-check": (0, ("--order", "--tol", "--samples")),
    "paper-examples": (0, ("--json",)),
}


@st.composite
def _argv(draw):
    """A subcommand, its positional expressions (sometimes one too many or
    too few) and a subset of its flags, in drawn order."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    arity, flags = _COMMANDS[command]
    arity = max(0, arity + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))
    argv = [command] + [draw(_expressions) for _ in range(arity)]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        argv.append(flag)
        if flag in _flag_values:
            argv.append(draw(_flag_values[flag]))
    return argv


@settings(deadline=None, max_examples=200, derandomize=True)
@given(_argv())
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
