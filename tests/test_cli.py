import json
import subprocess
import sys

import jsonschema

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
                 ("intertwine", "i", "j", "--degree-max", "-1")):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if ": error: " in line]
        assert len(errors) == 1 and argv[-2] in errors[0]


def test_series_check_command(capsys):
    code, out = run_cli(capsys, "series-check", "--order", "24")
    assert code == 0
    assert out.count("PASS") == 3
    code, out = run_cli(capsys, "series-check", "--order", "24",
                        "--samples", "0.1, 0.5+0.5i")
    assert code == 0


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
