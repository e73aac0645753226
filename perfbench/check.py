"""Checks every job output of a run against the benchmark's own computation.

    python3 perfbench/check.py --jobs JOBS.json --results RESULTS.json

Prints one JSON object: how many outputs were checked, the jobs that failed
(an exception out of the program, or an error exit 2-5 on an input built to be
valid) and the checked outputs that are wrong, each with its reason. Nothing here compares
against a stored copy of the program's output: every check recomputes the
claim with `algebra` (exact) or `numpy` (eigenvalue roots), from what the
generator knows about how the input was built. It does not import nambu.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
from fractions import Fraction

import numpy

import algebra as A

EIGEN_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def input_form(job):
    """(form, nvars, kind): the input, dualized to a form when it is a tensor."""
    payload = json.loads(job["stdin"])
    n = payload["nvars"]
    obj = A.graded_from_json(payload)
    if payload.get("kind", "vector") == "vector":
        return A.tensor_to_form(obj, n), n, "vector"
    return obj, n, "form"


def parse_map(data, n):
    require(data["nvars"] == n and len(data["components"]) == n, "map has the wrong size")
    comps = [A.parse_poly(text, n) for text in data["components"]]
    require(all(not A.pconst_term(c, n) for c in comps), "map does not fix the origin")
    require(A.mat_det([A.plinear(c, n) for c in comps]) != 0, "map has a singular linear part")
    return comps


def parse_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


# -- eigenvalues a + b*sqrt(d), exact -------------------------------------------------------


def known_eigenvalues(expect):
    return [(Fraction(a), Fraction(b)) for a, b in expect["eigen"]], expect["d"]


def eigen_complex(lam, d):
    a, b = lam
    return complex(float(a)) + float(b) * cmath.sqrt(d)


def exact_resonances(eig, max_order):
    """All (i, m) with lambda_i = <m, lambda>, 2 <= |m| <= max_order, i 0-based."""
    size = len(eig)
    found = set()
    for order in range(2, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(size), order):
            m = tuple(combo.count(j) for j in range(size))
            total = (sum(m[j] * eig[j][0] for j in range(size)),
                     sum(m[j] * eig[j][1] for j in range(size)))
            found.update((i, m) for i in range(size) if eig[i] == total)
    return found


def charpoly_up_to_scale(got, want):
    """got(t) == c^-m want(c t) for some rational c != 0 (monic, ascending lists)."""
    m = len(want) - 1
    if len(got) != len(want) or got[m] != 1:
        return False
    candidates = None
    for k in range(1, m + 1):
        g, w = got[m - k], want[m - k]
        if (g == 0) != (w == 0):
            return False
        if w:
            roots = rational_roots_of(g / w, k)
            candidates = roots if candidates is None else candidates & roots
    if candidates is None:
        return True
    return any(all(got[m - k] == c ** k * want[m - k] for k in range(1, m + 1))
               for c in candidates)


def rational_roots_of(x, k):
    """Rational c with c^k == x."""
    def int_root(v):
        r = round(v ** (1.0 / k))
        return next((t for t in (r - 1, r, r + 1) if t >= 0 and t ** k == v), None)
    num, den = int_root(abs(x.numerator)), int_root(x.denominator)
    if num is None or den is None:
        return set()
    c = Fraction(num, den)
    if x < 0:
        return {-c} if k % 2 else set()
    return {c, -c} if k % 2 == 0 else {c}


def parse_charpoly(text, m):
    p = A.parse_poly(text, 1, var="t")
    return [p.get((k,), Fraction(0)) for k in range(m + 1)]


# -- per-subcommand checks ---------------------------------------------------------------------


def check_verify(job, code, out):
    expect = job["expect"]
    res = json.loads(out)
    built = "pass" if expect["passed"] else "fail"
    require(res["passed"] is expect["passed"], f"verdict {res['passed']} on an input built to {built}")
    require(code == (0 if expect["passed"] else 1), f"exit code {code} on an input built to {built}")
    if expect["passed"]:
        require(res["witness"] is None, "a passing verdict carries a witness")
        return
    omega, n, _ = input_form(job)
    p = len(next(iter(omega)))
    w = res["witness"]
    key = tuple(i - 1 for i in w["A"])
    require(len(key) == p - 1 and list(key) == sorted(set(key))
            and all(0 <= i < n for i in key), f"witness A={w['A']} is not a basis (p-1)-vector")
    require(w["equation"] in (3, 4), f"unknown equation {w['equation']}")
    ia = A.interior(A.basis(n, key), omega)
    residual = A.wedge(ia, omega if w["equation"] == 3 else A.dform(omega, n))
    require(residual, "the recomputed residual is zero")
    require(residual == A.graded_from_json(w["residual"]), "the reported residual differs")


def check_classify(job, code, out):
    expect = job["expect"]
    res = json.loads(out)
    require(code == 0, f"exit code {code}")
    require(res["type"] == expect["type"], f"type {res['type']}, built as type {expect['type']}")
    q, p = expect["q"], expect["p"]
    omega, n, kind = input_form(job)
    if expect["type"] == "1":
        r, s = expect["r"], expect["s"]
        require(res["r"] == r, f"r={res['r']}, built with r={r}")
        require(res["s"] == s, f"s={res['s']}, built with s={s}")
        plus, minus = res["signs"].count(1), res["signs"].count(-1)
        require(plus + minus == len(res["signs"]) == r + 1, "sign pattern has the wrong length")
        want = (expect["n_plus"], expect["n_minus"])
        # a prefix coordinate z -> -z flips the whole pattern when p > 1
        require((plus, minus) == want or (p > 1 and (minus, plus) == want),
                f"signs {res['signs']} do not match {want[0]} plus and {want[1]} minus")
        nondeg = r == q and s == 0
        require(res["nondegenerate"] is nondeg, f"nondegenerate={res['nondegenerate']}")
        require(res["signature"] == abs(plus - minus), "wrong signature")
        require(res["index"] == (sorted([minus, q + 1 - minus]) if nondeg else None), "wrong index")
        require(res["elliptic"] is (nondeg and (plus == 0 or minus == 0)), "wrong ellipticity")
        require(res["zero_set_dim"] == (n - q - 1 if nondeg else None), "wrong zero-set dimension")
        require([Fraction(v) > 0 for v in res["diag"]] == [v > 0 for v in res["signs"]],
                "diag and signs disagree")
    else:
        B = parse_matrix(res["matrix"])
        reported = parse_charpoly(res["char_poly"], p + 1)
        require(A.char_poly(B) == reported, "char_poly is not that of the reported matrix")
        want = [Fraction(c) for c in expect["char_poly"]]
        require(charpoly_up_to_scale(reported, want),
                f"char_poly {res['char_poly']} is not the built one up to scale")
        require(res["nondegenerate"] is True, "a built nondegenerate form reported degenerate")
        require(res["zero_set_dim"] == q - 1, "wrong zero-set dimension")
    change = parse_map(res["change"], n)
    require(all(A.pdegree(c) == 1 for c in change), "the change is not linear")
    det = A.mat_det([A.plinear(c, n) for c in change])
    achieved = A.graded_from_json(res["achieved"])
    require(achieved == normal_form(res, n, q, kind, det),
            "the achieved form is not the normal form of the reported invariants")
    if kind == "vector":
        # pushforward(P, change) == achieved  <=>  change^* i_achieved = det * i_P
        lhs = A.pullback(A.tensor_to_form(achieved, n), change, n)
        rhs = A.ascale(omega, A.pconst(n, det))
    else:
        lhs = A.pullback(achieved, change, n)
        rhs = omega
    require(lhs == rhs, "pulling the achieved form back along the change does not give the input")


def normal_form(res, n, q, kind, det):
    """The normal form that the reported type, r, s, diag or matrix describe.

    Forms use parameters first: dz_1 ^ ... ^ dz_{p-1} ^ alpha for Type 1, the
    (p+1)-block first and the frame last for Type 2. Tensors use the dual
    convention (active block first) and carry the factor det(change)."""
    p = n - q
    if res["type"] == "2":
        B = parse_matrix(res["matrix"])
        if kind == "vector":
            return A.type2_tensor(n, q, B)
        field = {}
        for i, row in enumerate(B):
            for j, c in enumerate(row):
                if c:
                    field = A.acombine(field, {(j,): A.pvar(n, i, c)})
        return A.tensor_to_form(A.wedge(field, A.basis(n, tuple(range(p + 1, n)))), n)
    form = A.type1_form(n, q, res["r"], res["s"], [Fraction(v) for v in res["diag"]])
    if kind == "form":
        return form
    # new coordinate i is the old coordinate order[i]
    order = list(range(p - 1, n)) + list(range(p - 1))
    relabel = [A.pvar(n, order.index(k)) for k in range(n)]
    return A.ascale(A.form_to_tensor(A.pullback(form, relabel, n), n), A.pconst(n, det))


def check_resonance(job, code, out):
    expect = job["expect"]
    res = json.loads(out)
    eig, d = known_eigenvalues(expect)
    size = len(eig)
    require(res["max_order"] == expect["max_order"], "max_order not echoed")
    require(res["exact"] is all(b == 0 for _, b in eig), f"exact={res['exact']}")
    reported = [complex(re, im) for re, im in res["eigenvalues"]]
    require(len(reported) == size, "wrong number of eigenvalues")
    known = [eigen_complex(lam, d) for lam in eig]
    # reported index -> known index, by nearest value
    perm, unused = [], list(range(size))
    for z in reported:
        j = min(unused, key=lambda t: abs(known[t] - z))
        require(abs(known[j] - z) <= EIGEN_TOL * max(1.0, abs(z)), f"eigenvalue {z} is not a known one")
        unused.remove(j)
        perm.append(j)
    matrix = parse_matrix(json.loads(job["stdin"])["matrix"])
    roots = numpy.roots([float(c) for c in reversed(A.char_poly(matrix))])
    for lam, z in zip(eig, known):
        if lam[1]:
            require(min(abs(r - z) for r in roots) <= 1e-6,
                    f"irrational eigenvalue {z} is not a root of the characteristic polynomial")
    got = set()
    for rel in res["resonances"]:
        m = [0] * size
        for j, count in enumerate(rel["m"]):
            m[perm[j]] += count
        got.add((perm[rel["i"] - 1], tuple(m)))
    require(len(got) == len(res["resonances"]), "a resonance is listed twice")
    want = exact_resonances(eig, expect["max_order"])
    require(got == want, f"resonances differ: {len(want - got)} missing, {len(got - want)} extra")
    require(code == (1 if want else 0), f"exit code {code}")


def check_type1(job, code, out):
    N = job["expect"]["N"]
    require(code == 0, f"exit code {code}")
    res = json.loads(out)
    omega, n, _ = input_form(job)
    phi = parse_map(res["map"], n)
    f = A.parse_poly(res["multiplier"], n)
    require(A.pconst_term(f, n) != 0, "the multiplier vanishes at the origin")
    lin = A.graded_from_json(res["linear_form"])
    require(lin and all(sum(e) == 1 for p in lin.values() for e in p), "linear_form is not linear")
    lhs = A.atrunc(A.pullback(A.atrunc(omega, N), phi, n, N), N)
    rhs = A.atrunc(A.ascale(lin, f, N), N)
    require(lhs == rhs, f"Phi^* omega != f * omega_lin through degree {N}")


def check_pushforward(omega_P, omega_Q, phi, n, N, what):
    """Phi_* P = Q through degree N, as Phi^*(i_Q Omega) = det DPhi * i_P Omega."""
    lhs = A.atrunc(A.pullback(A.atrunc(omega_Q, N), phi, n, N), N)
    rhs = A.atrunc(A.ascale(A.atrunc(omega_P, N), A.det_jacobian(phi, n, N), N), N)
    require(lhs == rhs, f"{what} through degree {N}")


def check_type2(job, code, out):
    expect = job["expect"]
    N, q = expect["N"], expect["q"]
    eig, _ = known_eigenvalues(expect)
    if expect["resonant"]:
        require(code == 1, f"exit code {code} on a resonant linear part")
        require(json.loads(out).get("resonant") is True, "resonant input not reported resonant")
        require(exact_resonances(eig, N), "no resonance of order <= N exists")
        return
    require(code == 0, f"exit code {code}")
    res = json.loads(out)
    omega_P, n, _ = input_form(job)
    phi = parse_map(res["map"], n)
    f = A.parse_poly(res["multiplier"], n)
    require(A.pconst_term(f, n) != 0, "the multiplier vanishes at the origin")
    B = parse_matrix(res["field_matrix"])
    require(A.mat_det(B) != 0, "field_matrix is singular")
    want = A.char_poly([[lam[0] if i == j else Fraction(0) for j, lam in enumerate(eig)]
                        for i in range(len(eig))])
    require(charpoly_up_to_scale(A.char_poly(B), want),
            "field_matrix eigenvalues are not the built ones up to scale")
    Q = A.ascale(A.type2_tensor(n, q, B), f, N)
    check_pushforward(omega_P, A.tensor_to_form(Q, n), phi, n, N, "Phi_* P != f * Lambda")


def check_remove_multiplier(job, code, out):
    require(code == 0, f"exit code {code}")
    res = json.loads(out)
    n, N, signs = job["nvars"], job["N"], job["signs"]
    require(res["obstruction"] is None, "unexpected obstruction for f(0) = 1")
    f = A.parse_poly(job["f"], n)
    omega1 = A.type1_tensor_convention_form(n, len(signs) - 1, signs)
    phi = parse_map(res["map"], n)
    check_pushforward(A.ascale(omega1, f), omega1, phi, n, N, "Phi_* (f Pi_1) != Pi_1")


CHECKS = {"verify": check_verify, "classify": check_classify, "resonance": check_resonance,
          "type1": check_type1, "type2": check_type2, "remove_multiplier": check_remove_multiplier}


def job_failed(code):
    """An exception out of the program, or an error exit, on an input built to be valid."""
    return code not in (0, 1)


def check_job(job, code, out):
    """None when the output passes, else the reason it does not."""
    try:
        CHECKS[job["expect"]["check"]](job, code, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def main():
    ap = argparse.ArgumentParser(description="check one run's outputs")
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--results", required=True)
    args = ap.parse_args()
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    with open(args.results, encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    errors, failures, checked = [], [], 0
    for job, (code, out) in zip(jobs, outputs):
        if job_failed(code):
            failures.append({"id": job["id"], "error": f"exit code {code}: {out[-300:]}"})
            continue
        checked += 1
        reason = check_job(job, code, out)
        if reason:
            errors.append({"id": job["id"], "error": reason})
    print(json.dumps({"checked": checked, "failures": failures, "errors": errors}))


if __name__ == "__main__":
    main()
