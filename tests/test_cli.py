"""CLI front end: parsing, dispatch, exit codes, byte-stable output."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from nambu.cli import run
from nambu.exterior import formal_map_from_json, graded_from_json
from nambu.linclass import normal_form_generator
from nambu.polyalg import RatMatrix, parse_poly
from nambu.verify import is_nambu
from reference import pushforward


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys, monkeypatch):
    payload = json.dumps({"nvars": 5, "grade": 3, "components": {"1,2,3": "1"}})
    code, out, _ = invoke(capsys, ["verify", "-"], payload, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"passed": True, "witness": None}


def test_verify_fail_witness(capsys, monkeypatch):
    payload = json.dumps({"nvars": 5, "grade": 2,
                          "components": {"1,2": "1", "3,4": "1"}})
    code, out, _ = invoke(capsys, ["verify", "-", "--form"], payload, monkeypatch)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["witness"]["A"] == [1]
    assert data["witness"]["equation"] == 3


def test_verify_malformed_json(capsys, monkeypatch):
    code, _, err = invoke(capsys, ["verify", "-"], "not json", monkeypatch)
    assert code == 2 and "malformed" in err


def test_verify_bad_component_key(capsys, monkeypatch):
    payload = json.dumps({"nvars": 5, "grade": 3, "components": {"2,1,3": "1"}})
    code, _, err = invoke(capsys, ["verify", "-"], payload, monkeypatch)
    assert code == 2 and "strictly increasing" in err


def test_verify_bad_polynomial_position(capsys, monkeypatch):
    payload = json.dumps({"nvars": 2, "grade": 1, "components": {"1": "x1^"}})
    code, _, err = invoke(capsys, ["verify", "-", "--form"], payload, monkeypatch)
    assert code == 2 and "position" in err


def test_verify_zero_denominator_position(capsys, monkeypatch):
    payload = json.dumps({"nvars": 4, "grade": 1, "components": {"1": "1/0*x1"}})
    code, out, err = invoke(capsys, ["verify", "-"], payload, monkeypatch)
    assert code == 2 and out == ""
    assert "zero denominator (at position 2)" in err


def _verify_form_cli(text):
    """Exit code and stderr of `nambu verify - --form` on one component text."""
    payload = json.dumps({"nvars": 2, "grade": 1, "components": {"1": text}})
    stdin, sys.stdin = sys.stdin, io.StringIO(payload)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["verify", "-", "--form"])
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@pytest.mark.parametrize("text, at", [("x²", 1), ("²", 0), ("1/²", 2), ("x1^²", 3),
                                      ("٣*x1", 0), ("x١", 1),
                                      pytest.param("9" * 5000, 0, id="5000-digits")])
def test_polynomial_text_takes_ascii_digits_only(text, at):
    # str.isdigit() holds for superscripts and Arabic-Indic digits, which
    # int() then rejects or reads as ASCII ones; a number longer than int()
    # converts is an input error too
    code, err = _verify_form_cli(text)
    assert code == 2 and f"(at position {at})" in err


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="+-*^/ x0123456789٣١²³¹⁰", max_size=12))
def test_polynomial_text_never_crashes_the_cli(text):
    code, err = _verify_form_cli(text)
    assert code != 5 and "internal error" not in err


def test_verify_q2_precondition(capsys, monkeypatch):
    payload = json.dumps({"nvars": 4, "grade": 2, "components": {"1,2": "1"}})
    code, _, err = invoke(capsys, ["verify", "-"], payload, monkeypatch)
    assert code == 3 and "q = 2" in err.replace("q=2", "q = 2")


# a huge exponent is one term: products keep one bucket per degree that occurs
_HUGE_EXPONENT = json.dumps({"kind": "vector", "nvars": 4, "grade": 3,
                             "components": {"1,2,3": "x3^1000000000"}})


def test_verify_huge_exponent(capsys, monkeypatch):
    code, out, _ = invoke(capsys, ["verify", "-"], _HUGE_EXPONENT, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"passed": True, "witness": None}


def test_classify_huge_exponent_exit3(capsys, monkeypatch):
    code, out, err = invoke(capsys, ["classify", "-"], _HUGE_EXPONENT, monkeypatch)
    assert code == 3 and out == ""
    assert "needs a homogeneous linear form" in err


def test_classify_zero_form(capsys, monkeypatch):
    payload = json.dumps({"nvars": 5, "grade": 2, "components": {}})
    code, out, _ = invoke(capsys, ["classify", "-", "--form"], payload, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "1" and data["r"] == -1


def test_classify_tensor(capsys, monkeypatch):
    code, out, _ = invoke(capsys, ["generate", "type2", "--n", "5", "--q", "3",
                                   "--matrix", "1,0,0;0,2,0;0,0,3"])
    assert code == 0
    code, out2, _ = invoke(capsys, ["classify", "-"], out, monkeypatch)
    assert code == 0
    data = json.loads(out2)
    assert data["type"] == "2"
    assert data["nondegenerate"] is True
    assert data["zero_set_dim"] == 2


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_volume_option_is_gone(capsys, command):
    # the dual form is taken against the standard volume form only: a scaled
    # volume is a scaled tensor, and the verdict never depends on it
    with pytest.raises(SystemExit) as exc:
        run([command, "-", "--volume", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --volume 2" in capsys.readouterr().err


def test_generate_roundtrip_verify(capsys, monkeypatch):
    code, out, _ = invoke(capsys, ["generate", "type1", "--n", "4", "--q", "3",
                                   "--r", "3", "--s", "0", "--signs", "++++"])
    assert code == 0
    obj = graded_from_json(json.loads(out))
    assert is_nambu(obj).passed
    code, out2, _ = invoke(capsys, ["verify", "-"], out, monkeypatch)
    assert code == 0


def test_generate_range_error(capsys):
    code, _, err = invoke(capsys, ["generate", "type1", "--n", "5", "--q", "3",
                                   "--r", "9", "--s", "0",
                                   "--signs", "++++++++++"])
    assert code == 2 and "outside" in err


def test_generate_byte_stable(capsys):
    argv = ["generate", "type2", "--n", "5", "--q", "4", "--matrix", "2,0;0,3"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2


def test_resonance_exit_codes(capsys, monkeypatch):
    payload = json.dumps({"matrix": [["1", "0"], ["0", "2"]]})
    code, out, _ = invoke(capsys, ["resonance", "-", "--max-order", "5"],
                          payload, monkeypatch)
    assert code == 1
    data = json.loads(out)
    assert data["resonances"] == [{"i": 2, "m": [2, 0]}]
    payload = json.dumps({"matrix": [["2", "0"], ["0", "3"]]})
    code, out, _ = invoke(capsys, ["resonance", "-", "--max-order", "10"],
                          payload, monkeypatch)
    assert code == 0
    assert json.loads(out)["resonances"] == []


@pytest.mark.parametrize("payload", ['{"matrix": [["1/0", 1], [0, 1]]}'])
def test_resonance_bad_number_exit2(capsys, monkeypatch, payload):
    code, out, err = invoke(capsys, ["resonance", "-"], payload, monkeypatch)
    assert code == 2 and out == ""
    assert "bad matrix entries" in err


@pytest.mark.parametrize("entries, exact, resonance", [
    ([["0.1", 0], [0, "0.3"]], True, {"i": 2, "m": [3, 0]}),
    ([["1e-400", 1], [1, 0]], False, {"i": 1, "m": [2, 1]}),
])
def test_resonance_reads_json_numbers_as_decimals(capsys, monkeypatch, entries, exact, resonance):
    # a JSON number is the exact decimal it spells, as the same entry written
    # as a string is: 0.3 is 3 * 0.1, and 1e-400 is not 0
    strings = json.dumps(entries)
    argv = ["resonance", "-", "--max-order", "3"]
    got = [invoke(capsys, argv, f'{{"matrix": {text}}}', monkeypatch)
           for text in (strings.replace('"', ""), strings)]
    assert got[0] == got[1]
    code, out, _ = got[0]
    data = json.loads(out)
    assert code == 1 and data["exact"] == exact and resonance in data["resonances"]


def test_resonance_bryuno_flag(capsys, monkeypatch):
    payload = json.dumps({"matrix": [["2", "0"], ["0", "3"]]})
    code, out, _ = invoke(capsys, ["resonance", "-", "--max-order", "6",
                                   "--bryuno", "1.0,0.5"], payload, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["bryuno"]["C"] == 1.0
    assert all(data["bryuno"]["orders"].values())


def test_nambu_tol_env(capsys, monkeypatch):
    monkeypatch.setenv("NAMBU_TOL", "0.5")
    # eigenvalues 2 and 2.4: within 0.5 of a resonance 2*2 - 2.4 = 1.6? order 2
    # relations: |m.lam - lam_i|: smallest is |2.4+2.4-2... use a pair whose
    # divisor is below the loose tolerance: lam=(1, 2.04): 2*1 - 2.04 = -0.04
    payload = json.dumps({"matrix": [["1", "0"], ["0", "51/25"]]})
    code, out, _ = invoke(capsys, ["resonance", "-", "--max-order", "2"],
                          payload, monkeypatch)
    # exact rational path ignores tol; 2*1 != 51/25 exactly -> no resonance
    assert code == 0
    monkeypatch.setenv("NAMBU_TOL", "not-a-number")
    code, _, err = invoke(capsys, ["resonance", "-", "--max-order", "2"],
                          payload, monkeypatch)
    assert code == 2 and "NAMBU_TOL" in err


# a matrix with the irrational pair (1 +- sqrt 5) / 2: the numeric path reads tol
IRRATIONAL_PAYLOAD = json.dumps({"matrix": [["0", "1"], ["1", "1"]]})


def _assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_resonance_nonfinite_or_nonpositive_tol_exit2(capsys, monkeypatch, tol):
    _assert_input_error(*invoke(capsys, ["resonance", "-", f"--tol={tol}"],
                                IRRATIONAL_PAYLOAD, monkeypatch))


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_nambu_tol_env_nonfinite_exit2(capsys, monkeypatch, tol):
    monkeypatch.setenv("NAMBU_TOL", tol)
    code, out, err = invoke(capsys, ["resonance", "-"], IRRATIONAL_PAYLOAD, monkeypatch)
    _assert_input_error(code, out, err)
    assert "NAMBU_TOL" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_linearize_nonfinite_tol_exit2(capsys, monkeypatch, tol):
    _, fixture, _ = invoke(capsys, ["generate", "type2", "--n", "5", "--q", "4",
                                    "--matrix", "2,0;0,3"])
    _assert_input_error(*invoke(capsys, ["linearize", "-", "--type2", "--order", "3",
                                         "--tol", tol], fixture, monkeypatch))


@pytest.mark.parametrize("flags, env", [(["--tol", "-1"], None), (["--tol", "nan"], None),
                                        ([], "garbage"), ([], "0")])
def test_linearize_type1_checks_tol(capsys, monkeypatch, flags, env):
    # the tolerance is read once for both types, so --type1 rejects what --type2 does
    _, fixture, _ = invoke(capsys, ["generate", "type1", "--n", "5", "--q", "3",
                                    "--r", "3", "--s", "0", "--signs", "+-++", "--form"])
    if env is not None:
        monkeypatch.setenv("NAMBU_TOL", env)
    _assert_input_error(*invoke(capsys, ["linearize", "-", "--form", "--type1", "--order", "3",
                                         *flags], fixture, monkeypatch))


def _run_python(argv, stdin):
    """Run `python argv` on stdin against this checkout's src/, with a timeout."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          text=True, env=env, timeout=20)


@pytest.mark.parametrize("matrix, code, value", [
    ([[1000000007, 1], [0, 998244353]], 0, None),
    ([[1000000007, 1], [1, 998244353]], 0, None),
    ([[1e308]], 3, "2E+308"),
    ([["1e400"]], 3, "1E+400"),
    # an irrational pair whose larger root is about 1e400
    ([["1e400", "1"], ["1", "1"]], 3, "eigenvalue 1E+400"),
    # 1e308 +- i: every order-2 sum is about 2e308
    ([["1e308", "1"], ["-1", "1e308"]], 3, "the order-2 small divisor"),
    # JSON text: a JSON number is the decimal it spells, so 1e400 is no
    # float overflow but an eigenvalue beyond float range
    ("[[1e400, 1], [0, 1]]", 3, "eigenvalue 1E+400"),
])
def test_resonance_answers_large_entries(matrix, code, value):
    # rational roots of linear and quadratic factors in closed form; a value
    # that no float holds is a precondition, named on one line. Run in a
    # subprocess with a timeout, so that a trial division fails the test
    # instead of hanging it.
    text = matrix if isinstance(matrix, str) else json.dumps(matrix)
    proc = _run_python(["-m", "nambu.cli", "resonance", "-"], f'{{"matrix": {text}}}')
    assert proc.returncode == code
    if value is None:
        assert proc.stderr == "" and json.loads(proc.stdout)["resonances"] == []
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("precondition unmet:") and proc.stderr.count("\n") == 1
        assert f"{value} is beyond float range" in proc.stderr


_RESONANCE_THEN_MODULES = ("import sys; from nambu.cli import run; code = run(['resonance', '-']); "
                           "sys.stderr.write(str('mpmath' in sys.modules)); sys.exit(code)")


_PHI, _CBRT2 = (1 + 5 ** 0.5) / 2, 2 ** (1 / 3)


@pytest.mark.parametrize("matrix, code, loaded, eigenvalues", [
    # t^2 - t - 1: the golden pair from integer square roots
    ([[1, 1], [1, 0]], 0, False, [1 - _PHI, _PHI]),
    # t^3 - 2, irreducible over Q: its roots come from mpmath.polyroots
    ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], 1, True,
     [_CBRT2 * complex(-0.5, -3 ** 0.5 / 2), _CBRT2 * complex(-0.5, 3 ** 0.5 / 2), _CBRT2]),
])
def test_resonance_imports_mpmath_only_for_a_factor_of_degree_3(matrix, code, loaded,
                                                                eigenvalues):
    proc = _run_python(["-c", _RESONANCE_THEN_MODULES], json.dumps({"matrix": matrix}))
    assert proc.returncode == code and proc.stderr == str(loaded)
    got = [complex(*z) for z in json.loads(proc.stdout)["eigenvalues"]]
    assert got == pytest.approx(eigenvalues)


@pytest.mark.parametrize("bryuno", ["nan,0.5", "1.0,nan", "inf,0.5"])
def test_resonance_nonfinite_bryuno_exit2(capsys, monkeypatch, bryuno):
    _assert_input_error(*invoke(capsys, ["resonance", "-", "--bryuno", bryuno],
                                IRRATIONAL_PAYLOAD, monkeypatch))


def test_resonance_empty_matrix_exit3(capsys, monkeypatch):
    code, out, err = invoke(capsys, ["resonance", "-"], '{"matrix": []}', monkeypatch)
    assert code == 3 and out == ""
    assert "nonempty" in err


def test_resonance_repeated_irrational_pair(capsys, monkeypatch):
    # the golden pair twice: roots found on the square-free factor, each repeated
    payload = json.dumps({"matrix": [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]})
    code, out, err = invoke(capsys, ["resonance", "-"], payload, monkeypatch)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["exact"] is False and data["resonances"] == []
    phi = (1 + 5 ** 0.5) / 2
    assert [z for z, _ in data["eigenvalues"]] == pytest.approx([1 - phi, 1 - phi, phi, phi])


def test_resonance_root_finder_failure_exit3(capsys, monkeypatch):
    import mpmath

    def fail(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(mpmath, "polyroots", fail)
    # t^3 - 2 is irreducible over Q, so its roots come from the root finder
    cubic = json.dumps({"matrix": [["0", "0", "2"], ["1", "0", "0"], ["0", "1", "0"]]})
    code, out, err = invoke(capsys, ["resonance", "-"], cubic, monkeypatch)
    assert code == 3 and out == ""
    assert "precondition unmet" in err and "NoConvergence" not in err
    # a quadratic factor is solved in closed form and never reaches it
    code, out, _ = invoke(capsys, ["resonance", "-"], IRRATIONAL_PAYLOAD, monkeypatch)
    assert code == 0 and out


@pytest.mark.parametrize("payload", ['{"matrix": [[true]]}', '{"matrix": [[1, false], [0, 1]]}',
                                     '{"matrix": ["12", "34"]}', '{"matrix": 3}',
                                     '{"matrix": [[null]]}'])
def test_resonance_non_numeric_matrix_exit2(capsys, monkeypatch, payload):
    _assert_input_error(*invoke(capsys, ["resonance", "-"], payload, monkeypatch))


def test_linearize_type2_zero_trace_exit3(capsys, monkeypatch):
    _, fixture, _ = invoke(capsys, ["generate", "type2", "--n", "5", "--q", "4",
                                    "--matrix", "0,1;-1,0"])
    code, _, err = invoke(capsys, ["linearize", "-", "--type2", "--order", "3"],
                          fixture, monkeypatch)
    assert code == 3


def test_linearize_type2_resonant_exit1(capsys, monkeypatch):
    _, fixture, _ = invoke(capsys, ["generate", "type2", "--n", "5", "--q", "4",
                                    "--matrix", "1,0;0,2"])
    code, out, _ = invoke(capsys, ["linearize", "-", "--type2", "--order", "3"],
                          fixture, monkeypatch)
    assert code == 1
    assert json.loads(out)["resonant"] is True


def test_linearize_type2_success(capsys, monkeypatch):
    _, fixture, _ = invoke(capsys, ["generate", "type2", "--n", "5", "--q", "4",
                                    "--matrix", "2,0;0,3"])
    code, out, _ = invoke(capsys, ["linearize", "-", "--type2", "--order", "3"],
                          fixture, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert "map" in data and "field_matrix" in data
    # the reported map, multiplier and field matrix satisfy the contract
    # Phi_* P == multiplier * Lambda(field_matrix) through the order
    P = graded_from_json(json.loads(fixture))
    phi = formal_map_from_json(data["map"])
    f = parse_poly(data["multiplier"], 5)
    B = RatMatrix([[Fraction(v) for v in row] for row in data["field_matrix"]])
    linear, _ = normal_form_generator("type2", 5, 4, matrix=B)
    lhs = pushforward(P, phi, 3).truncate(3)
    assert lhs == linear.poly_scale(f, 3).truncate(3)


@pytest.mark.parametrize("matrix", ["1,2;3", "1,x;3,4"])
def test_generate_malformed_matrix_exit2(capsys, matrix):
    code, out, err = invoke(capsys, ["generate", "type2", "--n", "5", "--q", "4",
                                     "--matrix", matrix])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_linearize_type1_success(capsys, monkeypatch):
    _, fixture, _ = invoke(capsys, ["generate", "type1", "--n", "5", "--q", "3",
                                    "--r", "3", "--s", "0", "--signs", "+-++",
                                    "--form"])
    code, out, _ = invoke(capsys, ["linearize", "-", "--form", "--type1",
                                   "--order", "3"], fixture, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["multiplier"] == "1"


def test_linearize_type1_degenerate_exit3(capsys, monkeypatch):
    _, fixture, _ = invoke(capsys, ["generate", "type1", "--n", "5", "--q", "3",
                                    "--r", "2", "--s", "0", "--signs", "+++",
                                    "--form"])
    code, _, err = invoke(capsys, ["linearize", "-", "--form", "--type1",
                                   "--order", "3"], fixture, monkeypatch)
    assert code == 3


def test_linearize_internal_inconsistency_exit4(capsys, monkeypatch):
    # good nondegenerate Type-1 linear part, but the quadratic tail breaks
    # the co-Nambu conditions: the graded machinery must abort with code 4
    payload = json.dumps({
        "nvars": 5, "grade": 2,
        "components": {"1,2": "x2 + x3^2", "1,3": "x3", "1,4": "x4",
                       "1,5": "x5", "2,3": "x4^2"}})
    code, _, err = invoke(capsys, ["linearize", "-", "--form", "--type1",
                                   "--order", "3"], payload, monkeypatch)
    assert code == 4
    assert "(degree 1; residual (x4^2) dx2^dx3)" in err


def test_text_format(capsys, monkeypatch):
    payload = json.dumps({"nvars": 5, "grade": 3, "components": {"1,2,3": "1"}})
    code, out, _ = invoke(capsys, ["verify", "-", "--format", "text"],
                          payload, monkeypatch)
    assert code == 0
    assert "passed: True" in out


def test_internal_error_exit5_without_traceback(capsys, monkeypatch):
    import nambu.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_verify", boom)
    code, out, err = invoke(capsys, ["verify", "-"], "{}", monkeypatch)
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_parser_built_once_and_dispatch_late_bound(capsys, monkeypatch):
    import nambu.cli as cli

    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: 7)
    code, _, _ = invoke(capsys, ["verify", "-"], "{}", monkeypatch)
    assert code == 7
    assert cli.build_parser() is parser
