"""Exact polynomial and exterior algebra for the benchmark's generator and checker.

This module is the benchmark's own reference arithmetic and imports nothing
from `nambu`. A polynomial in n variables is a dict {exponent tuple: Fraction}
with no zero coefficients. An alternating object (a differential form or a
multivector) is a dict {strictly increasing 0-based index tuple: polynomial}.

Sign conventions follow the ones `nambu` documents for its JSON output: the
interior product by e_{i1} ^ ... ^ e_{im} (i1 < ... < im) contracts e_{i1}
first, into the leading slot, and the volume form is dx1 ^ ... ^ dxn.
"""

from __future__ import annotations

import re
from fractions import Fraction

# -- polynomials ------------------------------------------------------------------


def pconst(n, c):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def pvar(n, i, c=1):
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(c)}


def pmono(n, exps, c=1):
    return {tuple(exps): Fraction(c)} if c else {}


def padd(a, b, sign=1):
    return padd_into(dict(a), b, sign)


def padd_into(out, b, sign=1):
    """out += sign * b, in place; returns out."""
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(a, b, trunc=None):
    out = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if trunc is not None and d1 + sum(e2) > trunc:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ptrunc(a, N):
    return {e: c for e, c in a.items() if sum(e) <= N}


def pdiff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            f = list(e)
            f[i] -= 1
            out[tuple(f)] = c * e[i]
    return out


def pconst_term(a, n):
    return a.get((0,) * n, Fraction(0))


def psubst(a, args, n, trunc=None):
    """a(args[0], ..., args[k-1]) with each args[i] a polynomial in n variables."""
    powers = [{0: pconst(n, 1)} for _ in args]

    def power(i, k):
        if k not in powers[i]:
            powers[i][k] = pmul(power(i, k - 1), args[i], trunc)
        return powers[i][k]

    out = {}
    for e, c in a.items():
        term = pconst(n, c)
        for i, k in enumerate(e):
            if k:
                term = pmul(term, power(i, k), trunc)
        padd_into(out, term)
    return out


def plinear(a, n):
    """Coefficient vector of the degree-1 part."""
    row = [Fraction(0)] * n
    for e, c in a.items():
        if sum(e) == 1:
            row[e.index(1)] = c
    return row


def pdegree(a):
    return max((sum(e) for e in a), default=-1)


# -- text form of polynomials ("3/2*x1^2*x3 - x2 + 1") -------------------------------

_TERM = re.compile(r"([+-]?)\s*([^+\-\s]+)")


def parse_poly(text, n, var="x"):
    """Parse the polynomial grammar that nambu reads and prints."""
    out = {}
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    pos = 0
    for m in _TERM.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"cannot parse polynomial {text!r}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        exps = [0] * n
        for factor in m.group(2).split("*"):
            if factor.startswith(var):
                name, _, power = factor.partition("^")
                i = int(name[len(var):]) - 1 if n > 1 or name != var else 0
                if not 0 <= i < n:
                    raise ValueError(f"variable {name} out of range in {text!r}")
                exps[i] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        padd_into(out, {tuple(exps): coeff})
    if text[pos:].strip():
        raise ValueError(f"cannot parse polynomial {text!r}")
    return out


def poly_text(a, n):
    """Text accepted by nambu's parser, terms in a fixed order."""
    if not a:
        return "0"
    pieces = []
    for e, c in sorted(a.items(), key=lambda t: (sum(t[0]), t[0])):
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                   for i, k in enumerate(e) if k]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- alternating objects ---------------------------------------------------------------


def merge(I, J):
    """(sorted I+J, sign of the shuffle), or None when I and J share an index."""
    if set(I) & set(J):
        return None
    inversions = sum(1 for a in I for b in J if a > b)
    return tuple(sorted(I + J)), (-1 if inversions % 2 else 1)


def acombine(a, b, sign=1):
    out = dict(a)
    for k, p in b.items():
        add_into(out, k, p, sign)
    return out


def add_into(out, key, poly, sign=1):
    """out[key] += sign * poly, in place, dropping a component that cancels."""
    s = padd(out.get(key, {}), poly, sign)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def ascale(a, poly, trunc=None):
    """Multiply every component of a by the polynomial poly."""
    out = {}
    for k, p in a.items():
        s = pmul(p, poly, trunc)
        if s:
            out[k] = s
    return out


def atrunc(a, N):
    out = {}
    for k, p in a.items():
        s = ptrunc(p, N)
        if s:
            out[k] = s
    return out


def wedge(a, b, trunc=None):
    out = {}
    for I, p in a.items():
        for J, r in b.items():
            m = merge(I, J)
            if m is None:
                continue
            key, sg = m
            add_into(out, key, pmul(p, r, trunc), sg)
    return out


def contract(a, j):
    """Interior product of the coordinate vector e_j into the leading slot."""
    out = {}
    for K, p in a.items():
        if j not in K:
            continue
        t = K.index(j)
        add_into(out, K[:t] + K[t + 1:], p, -1 if t % 2 else 1)
    return out


def interior(P, omega, trunc=None):
    """i_P omega for a multivector P and a form omega."""
    out = {}
    for I, p in P.items():
        part = omega
        for j in I:
            part = contract(part, j)
        for key, c in part.items():
            add_into(out, key, pmul(c, p, trunc))
    return out


def dform(omega, n):
    out = {}
    for K, p in omega.items():
        for j in range(n):
            dp = pdiff(p, j)
            if not dp:
                continue
            m = merge((j,), K)
            if m is None:
                continue
            key, sg = m
            add_into(out, key, dp, sg)
    return out


def volume_sign(n, I):
    """s with i_{e_I}(dx1 ^ ... ^ dxn) = s * dx_(complement of I)."""
    part = {tuple(range(n)): pconst(n, 1)}
    for j in I:
        part = contract(part, j)
    (_, p), = part.items()
    return 1 if pconst_term(p, n) > 0 else -1


def tensor_to_form(P, n):
    """i_P (dx1 ^ ... ^ dxn)."""
    out = {}
    for I, p in P.items():
        K = tuple(i for i in range(n) if i not in I)
        add_into(out, K, p, volume_sign(n, I))
    return out


def form_to_tensor(omega, n):
    out = {}
    for K, p in omega.items():
        I = tuple(i for i in range(n) if i not in K)
        add_into(out, I, p, volume_sign(n, I))
    return out


def basis(n, key):
    return {tuple(key): pconst(n, 1)}


def differential(f, n):
    return {(j,): pdiff(f, j) for j in range(n) if pdiff(f, j)}


def pullback(omega, comps, n, trunc=None):
    """phi^* omega for the polynomial map x -> (comps[0](x), ..., comps[n-1](x))."""
    dphi = [differential(c, n) for c in comps]
    out = {}
    for K, p in omega.items():
        coeff = psubst(p, comps, n, trunc)
        if not coeff:
            continue
        block = {(): pconst(n, 1)}
        for i in K:
            block = wedge(block, dphi[i], trunc)
        for key, c in block.items():
            add_into(out, key, pmul(c, coeff, trunc))
    return out


def det_jacobian(comps, n, trunc=None):
    jac = [[pdiff(c, j) for j in range(n)] for c in comps]
    return det_poly(jac, n, trunc)


def det_poly(rows, n, trunc=None):
    """Determinant of a square matrix of polynomials by Laplace expansion over minors."""
    size = len(rows)
    minors = {(): pconst(n, 1)}
    for r in range(size):
        new = {}
        for cols, val in minors.items():
            for j in range(size):
                if j in cols or not rows[r][j]:
                    continue
                key = tuple(sorted(cols + (j,)))
                sign = -1 if sum(1 for c in cols if c > j) % 2 else 1
                s = padd(new.get(key, {}), pmul(val, rows[r][j], trunc), sign)
                if s:
                    new[key] = s
                else:
                    new.pop(key, None)
        minors = new
    return minors.get(tuple(range(size)), {})


# -- normal forms -----------------------------------------------------------------------------


def type1_form(n, q, r, s, signs):
    """dx_1 ^ ... ^ dx_{p-1} ^ alpha with r+1 quadratic slots and s pairings."""
    p = n - q
    alpha = {}
    for k in range(r + 1):
        j = p - 1 + k
        alpha = acombine(alpha, {(j,): pvar(n, j, signs[k])})
    for i in range(s):
        alpha = acombine(alpha, {(p + r + i,): pvar(n, i)})
    form = alpha
    for i in reversed(range(p - 1)):
        form = wedge(basis(n, (i,)), form)
    return form


def type1_tensor_convention_form(n, q, signs):
    """Nondegenerate Type 1: alpha = sum eps_j x_j dx_j on the first q+1 slots,
    wedged with the trailing parameter differentials."""
    form = {(j,): pvar(n, j, signs[j]) for j in range(q + 1)}
    for k in range(q + 1, n):
        form = wedge(form, basis(n, (k,)))
    return form


def type2_tensor(n, q, B):
    """d_1 ^ ... ^ d_{q-1} ^ sum_ij B[i][j] x_{q-1+i} d_{q-1+j}."""
    field = {}
    for i, row in enumerate(B):
        for j, c in enumerate(row):
            if c:
                field = acombine(field, {(q - 1 + j,): pvar(n, q - 1 + i, c)})
    return wedge(basis(n, tuple(range(q - 1))), field)


# -- rational matrices ------------------------------------------------------------------


def mat_mul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def mat_det(A):
    M = [list(map(Fraction, row)) for row in A]
    size = len(M)
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, size):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def char_poly(A):
    """Coefficients of det(t I - A), ascending, by expanding with polynomial entries."""
    size = len(A)
    rows = [[padd(pvar(1, 0) if i == j else {}, pconst(1, A[i][j]), -1)
             for j in range(size)] for i in range(size)]
    det = det_poly(rows, 1)
    return [det.get((k,), Fraction(0)) for k in range(size + 1)]


def linear_map(G, n):
    """Components of x -> G x."""
    return [{tuple(int(t == j) for t in range(n)): Fraction(G[i][j])
             for j in range(n) if G[i][j]} for i in range(n)]


def graded_json(obj, n, grade, kind):
    return {"kind": kind, "nvars": n, "grade": grade,
            "components": {",".join(str(i + 1) for i in key): poly_text(p, n)
                           for key, p in sorted(obj.items())}}


def graded_from_json(data):
    n = data["nvars"]
    out = {}
    for key, text in data["components"].items():
        idx = tuple(int(s) - 1 for s in key.split(",")) if key.strip() else ()
        p = parse_poly(text, n)
        if p:
            out[idx] = p
    return out
