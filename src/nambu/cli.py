"""Command-line front end: verify / classify / linearize / resonance / generate.

Input is JSON; a JSON number with a fraction or an exponent is read as the
exact decimal it spells (so 0.1 is 1/10), never as a binary float.

Exit codes: 0 success or verified-pass, 1 verified-fail or resonance found,
2 malformed input or flag value (a --tol, NAMBU_TOL or --bryuno value that
is not finite, a --tol that is not positive), 3 precondition unmet (q < 3,
not co-Nambu, degenerate linear part, zero trace, empty resonance matrix,
an eigenvalue or small divisor beyond float range), 4 internal solve
inconsistency, 5 any other
internal error, printed as one line (`internal error: <Type>: <message>`)
without a traceback. Exit 1 never reports a crash.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .polyalg import (
    InputError,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
)
from .exterior import (
    DiffForm,
    Multivector,
    extend_map,
    form_to_tensor,
    formal_map_to_json,
    graded_from_json,
    pullback_form,
    pushforward_tensor,
    restrict,
    tensor_to_form,
)
from .verify import is_conambu, is_nambu
from .linclass import classify_linear, classify_linear_tensor, normal_form_generator
from .formal import (
    formal_linearize_type1,
    poincare_linearize,
    prelinearize_type2,
    resonance_report,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4
EXIT_INTERNAL = 5


def _read_payload(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}")
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")


def parse_input(data: dict, as_form: bool = False):
    """Validated Multivector/DiffForm from the shared JSON schema."""
    return graded_from_json(data, "form" if as_form else "vector")


def _default_tol(args) -> float:
    """--tol, else NAMBU_TOL, else 1e-9; either must be positive and finite."""
    value, source = args.tol, "--tol"
    if value is None:
        env = os.environ.get("NAMBU_TOL")
        if not env:
            return 1e-9
        try:
            value = float(env)
        except ValueError:
            raise InputError(f"bad NAMBU_TOL value {env!r}")
        source = "NAMBU_TOL"
    if not 0 < value < math.inf:
        raise InputError(f"{source} must be positive and finite, not {value}")
    return value


def _read_matrix(data) -> RatMatrix:
    """The matrix of {"matrix": [[...], ...]}: rows of JSON numbers, each the
    exact decimal it spells (`_read_payload` reads them as Fractions), or
    rational strings."""
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError('resonance input needs {"matrix": [[...], ...]}')
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("matrix must be a list of rows")
    for row in rows:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction, str)):
                raise InputError(f"bad matrix entries: {v!r} is not a number")
    try:
        return RatMatrix([[Fraction(v) for v in row] for row in rows])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad matrix entries: {exc}")


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "json":
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
    else:
        sys.stdout.write(_render_text(payload) + "\n")


def _render_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------

def _cmd_verify(args) -> int:
    data = _read_payload(args.input)
    obj = parse_input(data, as_form=args.form)
    if isinstance(obj, DiffForm):
        verdict = is_conambu(obj)
    else:
        verdict = is_nambu(obj)
    _emit(verdict.to_json_obj(), args)
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _cmd_classify(args) -> int:
    data = _read_payload(args.input)
    obj = parse_input(data, as_form=args.form)
    if isinstance(obj, DiffForm):
        report = classify_linear(obj)
    else:
        report = classify_linear_tensor(obj)
    _emit(report.to_json_obj(), args)
    return EXIT_OK


def _cmd_generate(args) -> int:
    n, q = args.n, args.q
    if args.tag == "type1":
        if args.signs is None or args.r is None or args.s is None:
            raise InputError("type1 needs --r, --s and --signs")
        signs = []
        for ch in args.signs:
            if ch == "+":
                signs.append(1)
            elif ch == "-":
                signs.append(-1)
            else:
                raise InputError(f"bad sign character {ch!r}")
        P, w = normal_form_generator("type1", n, q, r=args.r, s=args.s,
                                     signs=signs)
    else:
        if args.matrix is None:
            raise InputError("type2 needs --matrix")
        try:
            matrix = RatMatrix([[Fraction(v.strip()) for v in row.split(",")]
                                for row in args.matrix.split(";")])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad --matrix {args.matrix!r}: {exc}")
        P, w = normal_form_generator("type2", n, q, matrix=matrix)
    obj = w if args.form else P
    _emit(obj.to_json_obj(), args)
    return EXIT_OK


def _cmd_resonance(args) -> int:
    tol = _default_tol(args)
    C = eps = None
    if args.bryuno:
        try:
            c_text, eps_text = args.bryuno.split(",")
            C, eps = float(c_text), float(eps_text)
        except ValueError:
            raise InputError("--bryuno expects C,EPS")
        if not (math.isfinite(C) and math.isfinite(eps)):
            raise InputError(f"--bryuno expects finite C,EPS, not {args.bryuno}")
    B = _read_matrix(_read_payload(args.input))
    rep = resonance_report(B, args.max_order, tol, C, eps)
    _emit(rep.to_json_obj(), args)
    return EXIT_FAIL if rep.resonant else EXIT_OK


def _cmd_linearize(args) -> int:
    data = _read_payload(args.input)
    obj = parse_input(data, as_form=args.form)
    N = args.order
    tol = _default_tol(args)
    if args.type2:
        return _linearize_type2(obj, N, tol, args)
    return _linearize_type1(obj, N, args)


def _linearize_type1(obj, N, args) -> int:
    if isinstance(obj, Multivector):
        omega = tensor_to_form(obj)
    else:
        omega = obj
    lin = omega.homogeneous_component(1)
    report = classify_linear(lin)
    if report.normal_form.tag != "type1" or not report.nondegenerate:
        raise PreconditionError(
            "linear part is not a nondegenerate Type 1 form")
    to_normal = report.change.inverse()
    omega_n = pullback_form(omega, to_normal, N)
    res = formal_linearize_type1(omega_n, N)
    total = to_normal.compose(res.change, N)
    payload = {
        "map": formal_map_to_json(total),
        "multiplier": res.multiplier.to_str(),
        "linear_form": res.linear_form.to_json_obj(),
        "report": res.report.to_json_obj(),
    }
    _emit(payload, args)
    return EXIT_OK


def _linearize_type2(obj, N, tol, args) -> int:
    if isinstance(obj, DiffForm):
        P = form_to_tensor(obj)
    else:
        P = obj
    q = P.grade
    lin = P.homogeneous_component(1)
    report = classify_linear_tensor(lin)
    if report.normal_form.tag != "type2" or not report.nondegenerate:
        raise PreconditionError(
            "linear part is not a nondegenerate Type 2 tensor")
    det = report.change.linear_matrix().det()
    P_n = pushforward_tensor(P, report.change).scale(Fraction(1) / det)
    pre = prelinearize_type2(P_n, N)
    n = P.nvars
    yidx = list(range(q - 1, n))
    Xy = restrict(pre.field, yidx)
    try:
        pres = poincare_linearize(Xy, N, tol)
    except PreconditionError as exc:
        if "resonance" in str(exc):
            _emit({"resonant": True, "detail": str(exc)}, args)
            return EXIT_FAIL
        raise
    T = extend_map(pres.change, yidx, n).compose(pre.change, N)
    total = T.compose(report.change, N)
    # P_n is the normalized tensor divided by det, so Phi_* P = det * f * Lambda
    # with f = F o T^-1, F read in P_n's coordinates: the one nonlinear inverse
    multiplier = pre.multiplier.substitute(T.inverse(N).comps, N).scale(det)
    payload = {
        "map": formal_map_to_json(total),
        "multiplier": multiplier.to_str(),
        "field_matrix": pre.field_matrix.to_str_rows(),
        "prelinearization_report": pre.report.to_json_obj(),
        "poincare_report": pres.report.to_json_obj(),
        "resonance": pres.resonance.to_json_obj(),
    }
    _emit(payload, args)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `run` picks the
    subcommand's handler by name at each call."""
    parser = argparse.ArgumentParser(
        prog="nambu",
        description="Exact verification, classification and formal "
                    "linearization of Nambu tensors and co-Nambu forms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input JSON path, or - for stdin")
        p.add_argument("--form", action="store_true",
                       help="interpret the input as a differential form")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="check the Nambu / co-Nambu conditions")
    common(p)

    p = sub.add_parser("classify", help="linear normal-form classification")
    common(p)

    p = sub.add_parser("linearize", help="finite-order formal linearization")
    common(p)
    p.add_argument("--order", type=int, default=4, metavar="N")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--type1", action="store_true")
    group.add_argument("--type2", action="store_true")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("resonance", help="eigenvalue resonance diagnostics")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--max-order", type=int, default=12, metavar="M")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--bryuno", metavar="C,EPS",
                   help="also evaluate the finite-order Bryuno proxy")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("generate", help="emit a normal-form fixture")
    p.add_argument("tag", choices=("type1", "type2"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--signs", help="sign pattern such as ++-+")
    p.add_argument("--matrix", help="rows like 1,0;0,2")
    p.add_argument("--form", action="store_true",
                   help="emit the dual form instead of the tensor")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "order", None) is not None and args.command == "linearize":
        if args.order < 2:
            print("error: --order must be >= 2", file=sys.stderr)
            return EXIT_INPUT
    if getattr(args, "max_order", None) is not None and args.command == "resonance":
        if args.max_order < 2:
            print("error: --max-order must be >= 2", file=sys.stderr)
            return EXIT_INPUT
    handler = {"verify": _cmd_verify, "classify": _cmd_classify, "linearize": _cmd_linearize,
               "resonance": _cmd_resonance, "generate": _cmd_generate}[args.command]
    try:
        return handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition unmet: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SolveInconsistencyError as exc:
        notes = [f"degree {exc.degree}"] if exc.degree is not None else []
        if exc.residual is not None:
            notes.append(f"residual {exc.residual}")
        detail = f" ({'; '.join(notes)})" if notes else ""
        print(f"solve inconsistency: {exc}{detail}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except Exception as exc:  # the one boundary: a fault never ends in a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
