"""Exact scalar arithmetic: multivariate polynomials over Q and rational matrices.

Everything in this module is exact. Polynomials are kept in a sparse
exponent-vector representation with `fractions.Fraction` coefficients and a
graded-lexicographic canonical ordering, so printing and JSON output are
byte-stable. Matrices carry Fraction entries and support exact rank, kernel,
solving (with a Farkas inconsistency certificate), congruence diagonalization
of symmetric forms, and exact characteristic polynomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

Rational = Fraction

NEG_INF = float("-inf")


class NambuError(Exception):
    """Base class for all library errors."""


class InputError(NambuError):
    """Malformed user input (bad JSON, bad polynomial text, schema violation)."""


class PreconditionError(NambuError):
    """A documented precondition of an operation is not met."""


class SolveInconsistencyError(NambuError):
    """An internal graded linear solve turned out inconsistent."""

    def __init__(self, message: str, degree: Optional[int] = None, residual=None):
        super().__init__(message)
        self.degree = degree
        self.residual = residual


class PolyParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def _grlex_key(exps: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent vectors (tuples of length ``nvars``) to nonzero
    Fractions. Instances are immutable; arithmetic returns new objects.
    The degree of the zero polynomial is ``float('-inf')``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, nvars: int, terms: dict) -> "Poly":
        """Internal constructor for already-normalized term dicts."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._make(nvars, {})

    @staticmethod
    def const(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: _as_fraction(value)})

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly.const(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for nvars={nvars}")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {exps: Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff=1) -> "Poly":
        return Poly(nvars, {tuple(exps): _as_fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self):
        """Terms in graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly._make(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) - c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly._make(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, scalar) -> "Poly":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            return Poly.zero(self.nvars)
        return Poly._make(self.nvars, {e: c * scalar for e, c in self.terms.items()})

    def mul(self, other: "Poly", trunc: Optional[int] = None) -> "Poly":
        """Exact product; terms of total degree > trunc are dropped if given."""
        self._check(other)
        D1, b1 = _integer_form(self.terms)
        D2, b2 = _integer_form(other.terms)
        return _from_integer_form(self.nvars, D1 * D2, _mul_buckets(b1, b2, trunc))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def pow(self, k: int, trunc: Optional[int] = None) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result.mul(base, trunc)
            k >>= 1
            if k:
                base = base.mul(base, trunc)
        return result

    # -- calculus and grading ---------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Exact partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            out[tuple(new)] = c * e
        return Poly._make(self.nvars, out)

    def homogeneous_component(self, d: int) -> "Poly":
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return Poly._make(self.nvars,
                          {e: c for e, c in self.terms.items() if sum(e) == d})

    def truncate(self, max_degree: int) -> "Poly":
        return Poly._make(self.nvars,
                          {e: c for e, c in self.terms.items() if sum(e) <= max_degree})

    def min_degree(self):
        if not self.terms:
            return NEG_INF
        return min(sum(e) for e in self.terms)

    def substitute(self, args: Sequence["Poly"], trunc: Optional[int] = None) -> "Poly":
        """Substitute args[i] for variable i; all args share one variable count.

        With ``trunc`` every product is cut at that degree, so the result is
        the truncation of the exact substitution (the constant term of self
        is kept even for a negative ``trunc``).
        """
        if len(args) != self.nvars:
            raise ValueError("substitution needs one polynomial per variable")
        if not args:
            # constant polynomial in zero variables
            return self
        m = args[0].nvars
        for a in args:
            if a.nvars != m:
                raise ValueError("substitution arguments disagree on nvars")
        # powers[i][k] = (d_i^k, integer buckets of d_i^k * args[i]^k), where
        # d_i is the denominator of the integer form of args[i]
        forms = [_integer_form(a.terms) for a in args]
        one = (1, [{(0,) * m: 1}])
        powers = [[one] for _ in args]

        def power(i, k):
            cache = powers[i]
            while len(cache) <= k:
                D, b = cache[-1]
                cache.append((D * forms[i][0], _mul_buckets(b, forms[i][1], trunc)))
            return cache[k]

        # self = (1/D0) sum n_e x^e. The terms are visited in lexicographic
        # order, so terms with a common exponent prefix are adjacent and
        # path[j] holds the product of the powers named by the first j
        # exponents of the current term. The term of e adds n_e * (L / D_e)
        # times its product over the common denominator D0 * L.
        D0, buckets = _integer_form(self.terms)
        terms = sorted((e, n) for bucket in buckets for e, n in bucket.items())
        L = math.lcm(*[math.prod(forms[i][0] ** k for i, k in enumerate(e) if k)
                       for e, _ in terms])
        path = [one] * (self.nvars + 1)
        prev = None
        acc = {}
        get = acc.get
        for e, n in terms:
            j = 0
            if prev is not None:
                while e[j] == prev[j]:
                    j += 1
            for i in range(j, self.nvars):
                if not e[i]:
                    path[i + 1] = path[i]
                elif path[i] is one:
                    path[i + 1] = power(i, e[i])
                else:
                    D, b = path[i]
                    Dk, bk = power(i, e[i])
                    path[i + 1] = (D * Dk, _mul_buckets(b, bk, trunc))
            prev = e
            De, product = path[-1]
            scale = n * (L // De)
            for bucket in product:
                for exps, v in bucket.items():
                    acc[exps] = get(exps, 0) + scale * v
        return _from_integer_form(m, D0 * L, [acc])

    def linear_coefficients(self) -> List[Fraction]:
        """Coefficient vector of the degree-1 part."""
        out = [Fraction(0)] * self.nvars
        for exps, c in self.terms.items():
            if sum(exps) == 1:
                out[exps.index(1)] = c
        return out

    # -- printing ----------------------------------------------------------

    def to_str(self, varname: str = "x") -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                v = f"{varname}{i + 1}"
                factors.append(v if e == 1 else f"{v}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Poly({self.nvars}, {self.to_str()!r})"


# -- integer product kernel ------------------------------------------------
#
# An integer form (D, buckets) stands for (1/D) * sum_d sum_e buckets[d][e] x^e:
# buckets[d] maps the exponent vectors of total degree d to integers. Products
# then cost one integer multiply-add per term pair, and a degree cut never
# visits the pairs it drops.

def _integer_form(terms: dict):
    """(D, buckets) of a term dict, D the least common denominator."""
    D = math.lcm(*[c.denominator for c in terms.values()])
    buckets = []
    for e, c in terms.items():
        d = sum(e)
        while len(buckets) <= d:
            buckets.append({})
        buckets[d][e] = c.numerator * (D // c.denominator)
    return D, buckets


def _mul_buckets(b1, b2, trunc: Optional[int]) -> list:
    """Buckets of the product of two integer forms, cut above degree trunc."""
    if not b1 or not b2:
        return []
    top = len(b1) + len(b2) - 2
    if trunc is not None:
        top = min(top, trunc)
    out = [{} for _ in range(top + 1)]
    for d1 in range(min(len(b1) - 1, top) + 1):
        t1 = b1[d1]
        if not t1:
            continue
        for d2 in range(min(len(b2) - 1, top - d1) + 1):
            t2 = b2[d2]
            if not t2:
                continue
            acc = out[d1 + d2]
            get = acc.get
            for e1, n1 in t1.items():
                for e2, n2 in t2.items():
                    e = tuple(map(add, e1, e2))
                    acc[e] = get(e, 0) + n1 * n2
    return out


def _from_integer_form(nvars: int, D: int, buckets) -> Poly:
    """The Poly (1/D) * buckets, one Fraction per nonzero term."""
    return Poly._make(nvars, {e: Fraction(v, D) for b in buckets for e, v in b.items() if v})


# ---------------------------------------------------------------------------
# polynomial text grammar: "3/2*x1^2*x3 - x2 + 1"
# ---------------------------------------------------------------------------

def parse_poly(text: str, nvars: int, varname: str = "x") -> Poly:
    """Parse the polynomial mini-grammar.

    Terms are sums/differences of products of rational numbers and powers of
    x1..xn; "*" between factors is optional; whitespace is insignificant.
    Errors carry the offending position.
    """
    tokens = _tokenize(text, varname)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    pos = 0
    terms = {}
    first = True
    while pos < len(tokens):
        kind, _, at = tokens[pos]
        sign = 1
        if kind in ("+", "-"):
            sign = 1 if kind == "+" else -1
            pos += 1
            if pos >= len(tokens):
                raise PolyParseError("expected a term after sign", at + 1)
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", at)
        exps, coeff, pos = _parse_term(tokens, pos, nvars, varname, text)
        first = False
        if coeff:
            # a sum that cancels leaves the dict, as in Poly.__add__
            s = terms.get(exps, 0) + sign * coeff
            if s:
                terms[exps] = s
            else:
                del terms[exps]
    return Poly._make(nvars, {e: Fraction(c) for e, c in terms.items()})


def _tokenize(text: str, varname: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or not text[k].isdigit():
                    raise PolyParseError("expected denominator digits", j + 1)
                m = k
                while m < n and text[m].isdigit():
                    m += 1
                den = int(text[k:m])
                if den == 0:
                    raise PolyParseError("zero denominator", k)
                tokens.append(("num", Fraction(num, den), i))
                i = m
            else:
                tokens.append(("num", num, i))
                i = j
            continue
        if text.startswith(varname, i):
            j = i + len(varname)
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise PolyParseError(f"expected variable index after '{varname}'", j)
            tokens.append(("var", int(text[j:k]), i))
            i = k
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_term(tokens, pos, nvars, varname, text):
    """(exponent tuple, coefficient, next position) of the term at pos."""
    coeff = 1
    exps = [0] * nvars
    saw_factor = False
    star_at = None
    while pos < len(tokens):
        kind, value, at = tokens[pos]
        if kind == "num":
            coeff *= value
            pos += 1
            saw_factor = True
            star_at = None
        elif kind == "var":
            if not 1 <= value <= nvars:
                raise PolyParseError(
                    f"variable {varname}{value} out of range 1..{nvars}", at)
            power = 1
            pos += 1
            if pos < len(tokens) and tokens[pos][0] == "^":
                caret_at = tokens[pos][2]
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] != "num" or \
                        tokens[pos][1].denominator != 1:
                    raise PolyParseError("expected integer exponent after '^'",
                                         caret_at + 1)
                power = int(tokens[pos][1])
                pos += 1
            exps[value - 1] += power
            saw_factor = True
            star_at = None
        elif kind == "*":
            if not saw_factor or star_at is not None:
                raise PolyParseError("unexpected '*'", at)
            star_at = at
            pos += 1
        elif kind == "^":
            raise PolyParseError("unexpected '^'", at)
        else:  # sign token ends the term
            break
    if star_at is not None:
        raise PolyParseError("expected a factor after '*'", star_at + 1)
    if not saw_factor:
        at = tokens[pos][2] if pos < len(tokens) else len(text)
        raise PolyParseError("expected a term", at)
    return tuple(exps), coeff, pos


# ---------------------------------------------------------------------------
# exact rational matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """Dense matrix with Fraction entries and exact linear algebra."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = [[_as_fraction(v) for v in row] for row in data]
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("ragged matrix")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable (copy data to mutate)")

    @classmethod
    def _make(cls, data) -> "RatMatrix":
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "data", data)
        return self

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "RatMatrix":
        return RatMatrix([[Fraction(0)] * c for _ in range(r)])

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.data == other.data

    __hash__ = None

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def copy_data(self):
        return [row[:] for row in self.data]

    def transpose(self) -> "RatMatrix":
        return RatMatrix._make([[self.data[i][j] for i in range(self.rows)]
                                for j in range(self.cols)])

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [[sum((self.data[i][k] * other.data[k][j] for k in range(self.cols)),
                    Fraction(0)) for j in range(other.cols)]
               for i in range(self.rows)]
        return RatMatrix._make(out)

    def matvec(self, vec: Sequence) -> List[Fraction]:
        v = [_as_fraction(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum((row[k] * v[k] for k in range(self.cols)), Fraction(0))
                for row in self.data]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == self.data[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def rref(self):
        """Reduced row echelon form.

        Returns (R, T, pivots) with T.matmul(self) == R exactly. [R | T] is the RREF
        of [self | I], so T is the canonical transform: its rows past the rank
        span the left kernel.
        """
        reduced = _eliminate([row + unit for row, unit in
                              zip(self.data, RatMatrix.identity(self.rows).data)],
                             self.cols + self.rows)
        R = [row[:self.cols] for row in reduced.reduced_rows]
        T = [row[self.cols:] for row in reduced.reduced_rows]
        pivots = [c for c in reduced.pivots if c < self.cols]
        return RatMatrix._make(R), RatMatrix._make(T), pivots

    def rank(self) -> int:
        return len(_eliminate(self.data, self.cols).pivots)

    def nullspace(self) -> List[List[Fraction]]:
        """Basis of the right kernel, free variables set to canonical units."""
        return _eliminate(self.data, self.cols).kernel

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = self.copy_data()
        n = self.rows
        det = Fraction(1)
        for c in range(n):
            pivot = None
            for i in range(c, n):
                if m[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            inv = Fraction(1) / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        _, T, pivots = self.rref()
        if len(pivots) != self.cols:
            raise ValueError("matrix is singular")
        return T

    def to_str_rows(self) -> List[List[str]]:
        return [[str(v) for v in row] for row in self.data]

    def __repr__(self):
        return f"RatMatrix({self.to_str_rows()})"


@dataclass
class LinearSolveResult:
    """Outcome of an exact linear solve M x = b.

    `pivots` are the pivot columns of the RREF of M. `echelon` holds one row
    per pivot, as (pivot column, row scaled to 1 there, its right-hand side),
    with every entry at or right of the pivot; the kernel basis is read off
    these rows, the reduced rows off the kernel, and the inconsistency witness
    off the system, each when first asked for; the solution has b's type.
    """

    solution: Optional[list]
    pivots: List[int]
    echelon: list = field(repr=False)
    rows: Sequence[dict] = field(repr=False)
    rhs: list = field(repr=False)

    @property
    def consistent(self) -> bool:
        return self.solution is not None

    @functools.cached_property
    def kernel(self) -> List[List[Fraction]]:
        """Basis of the right kernel of M, one vector per free column f with
        x_f = 1 and the other free variables zero (empty when inconsistent)."""
        if self.solution is None:
            return []
        pivot_set = set(self.pivots)
        ncols = len(self.solution)
        return [_back_substitute(self.echelon, ncols, Fraction(0), f)
                for f in range(ncols) if f not in pivot_set]

    @functools.cached_property
    def reduced_rows(self) -> List[List[Fraction]]:
        """The RREF rows of M, one per pivot c: 1 at c, 0 at the other pivots
        and -k[c] at each free column f, where k is the kernel vector of f."""
        if self.solution is None:
            raise ValueError("reduced rows of an inconsistent system")
        pivot_set = set(self.pivots)
        ncols = len(self.solution)
        free = [f for f in range(ncols) if f not in pivot_set]
        rows = []
        for c in self.pivots:
            row = [Fraction(0)] * ncols
            row[c] = Fraction(1)
            for f, k in zip(free, self.kernel):
                row[f] = -k[c]
            rows.append(row)
        return rows

    @functools.cached_property
    def witness(self) -> Optional[List[Fraction]]:
        """The Farkas witness y (y.M = 0, y.b = 1) of an inconsistent system
        with a scalar b, or None, by one more solve of [M^T; b^T] y = [0; 1]
        on the caller's rows, which must stay unchanged until it is read."""
        if self.solution is not None:
            return None
        if any(isinstance(v, Poly) for v in self.rhs):
            raise ValueError("the witness needs a scalar right-hand side")
        transposed = {}  # the columns of M that hold an entry, as rows
        for i, row in enumerate(self.rows):
            for c, v in row.items():
                transposed.setdefault(c, {})[i] = v
        rows = list(transposed.values()) + [dict(enumerate(self.rhs))]
        return solve_sparse(rows, len(self.rows), [0] * len(transposed) + [1]).solution


def _back_substitute(echelon, ncols: int, zero, free: Optional[int] = None) -> list:
    """Solve the echelon rows from the last pivot up, free variables `zero`.

    With `free` given, solves the homogeneous system with x_free = 1.
    """
    x = [zero] * ncols
    if free is not None:
        x[free] = Fraction(1)
    for c, row, rhs in reversed(echelon):
        acc = zero if free is not None else rhs
        for k, v in row.items():
            if k != c and x[k]:
                acc -= v * x[k]
        x[c] = acc
    return x


def solve_sparse(rows: Sequence[dict], ncols: int, rhs: Sequence) -> LinearSolveResult:
    """Solve M x = b exactly, M given as sparse rows ``{column: value}``.

    Columns are eliminated left to right. At each column the pivot is the
    remaining row with the fewest nonzeros, which keeps fill-in low
    (Markowitz 1957); no transform matrix is built. Column c is a pivot
    exactly when it is not in the span of columns 0..c-1, whichever row is
    chosen, so the pivots are the RREF's leftmost pivots and the particular
    solution (free variables zero) is the RREF's, byte for byte. An entry of
    b is a scalar or a `Poly` (then scalars read as constants), and one
    elimination serves every monomial of b: the solution's coefficient at a
    monomial solves the scalar system of b's coefficients there, and the
    system is inconsistent exactly when one of those is.
    """
    polys = [v for v in rhs if isinstance(v, Poly)]
    zero = Poly.zero(polys[0].nvars) if polys else Fraction(0)
    given = [v if isinstance(v, Poly) else Poly.const(zero.nvars, v) if polys
             else _as_fraction(v) for v in rhs]
    if len(given) != len(rows):
        raise ValueError("right-hand side has wrong length")
    b = list(given)
    work = [{c: v for c, v in row.items() if v} for row in rows]
    unpivoted = set(range(len(work)))
    echelon = []
    for c in range(ncols):
        holders = [i for i in unpivoted if c in work[i]]
        if not holders:
            continue
        p = min(holders, key=lambda i: (len(work[i]), i))
        unpivoted.discard(p)
        prow = work[p]
        inv = Fraction(1) / prow[c]
        if inv != 1:
            prow = {k: v * inv for k, v in prow.items()}
            b[p] *= inv
        for i in holders:
            if i == p:
                continue
            row = work[i]
            f = row[c]
            for k, v in prow.items():
                s = row.get(k, 0) - f * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            if b[p]:
                b[i] -= f * b[p]
        echelon.append((c, prow, b[p]))
    pivots = [c for c, _, _ in echelon]
    solution = None
    if not any(b[i] for i in unpivoted):
        solution = _back_substitute(echelon, ncols, zero)
    return LinearSolveResult(solution, pivots, echelon, rows, given)


def _eliminate(rows: Sequence[Sequence], ncols: int) -> LinearSolveResult:
    """One `solve_sparse` of the dense rows against a zero right-hand side:
    their pivots, kernel and reduced rows."""
    return solve_sparse([{c: v for c, v in enumerate(row) if v} for row in rows],
                        ncols, [0] * len(rows))


def solve_linear(M: RatMatrix, b: Sequence) -> LinearSolveResult:
    """Solve M x = b exactly by one sparse elimination (`solve_sparse`).

    The pivots are the leftmost ones, those of the RREF of M, so the
    particular solution with free variables zero is the RREF's. Returns it
    plus a kernel basis, or an inconsistency witness row y (y.M = 0 and
    y.b != 0).
    """
    return solve_sparse([{c: v for c, v in enumerate(row) if v} for row in M.data],
                        M.cols, b)


class GradedSystem:
    """One sparse exact system M x = b, assembled entry by entry with labelled rows.

    A row label is any hashable key (a monomial with a component index, say);
    rows keep the order of first use, columns run over 0..ncols-1, and
    entries added twice at one place accumulate. A right-hand side entry is a
    scalar or a `Poly`, whose monomials one solve answers at once.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = {}  # label -> {column: value}
        self.b = {}     # label -> right-hand side

    def add(self, row, col: int, v) -> None:
        entries = self.rows.setdefault(row, {})
        entries[col] = entries.get(col, 0) + v

    def rhs(self, row, v) -> None:
        self.rows.setdefault(row, {})
        self.b[row] = v

    def solve(self) -> LinearSolveResult:
        return solve_sparse(list(self.rows.values()), self.ncols,
                            [self.b.get(key, 0) for key in self.rows])


# ---------------------------------------------------------------------------
# congruence diagonalization (Sylvester inertia)
# ---------------------------------------------------------------------------

@dataclass
class InertiaResult:
    n_plus: int
    n_zero: int
    n_minus: int
    congruence: RatMatrix          # C with C^T S C diagonal
    diagonal: List[Fraction]

    def counts(self) -> Tuple[int, int, int]:
        return (self.n_plus, self.n_zero, self.n_minus)


def inertia(S: RatMatrix) -> InertiaResult:
    """Symmetric Gaussian elimination with the rank-2 fallback.

    Produces C with C^T S C diagonal; diagonal entries stay rational (no
    square roots), so they are +-positive rationals rather than +-1.
    """
    if not S.is_symmetric():
        raise PreconditionError("inertia requires a symmetric matrix")
    n = S.rows
    a = S.copy_data()
    cmat = RatMatrix.identity(n).copy_data()

    def col_op(dst, src, factor):
        # column dst += factor * column src, and symmetric row op on a
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for j in range(n):
            a[dst][j] += factor * a[src][j]
        for i in range(n):
            cmat[i][dst] += factor * cmat[i][src]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            cmat[r][i], cmat[r][j] = cmat[r][j], cmat[r][i]

    k = 0
    while k < n:
        pivot = None
        for i in range(k, n):
            if a[i][i] != 0:
                pivot = i
                break
        if pivot is None:
            pair = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            if i != k:
                col_swap(i, k)
            if j != k + 1:
                col_swap(j, k + 1)
            # x_k = u + v, x_{k+1} = u - v turns the off-diagonal pair into
            # a +- pair on the diagonal
            col_op(k, k + 1, Fraction(1))
            col_op(k + 1, k, Fraction(-1, 2))
            if a[k][k] == 0:
                raise SolveInconsistencyError("rank-2 inertia fallback failed")
            pivot = k
        if pivot != k:
            col_swap(pivot, k)
        d = a[k][k]
        for j in range(k + 1, n):
            if a[k][j] != 0:
                col_op(j, k, -a[k][j] / d)
        k += 1

    diag = [a[i][i] for i in range(n)]
    n_plus = sum(1 for v in diag if v > 0)
    n_minus = sum(1 for v in diag if v < 0)
    n_zero = n - n_plus - n_minus
    C = RatMatrix(cmat)
    check = C.transpose().matmul(S).matmul(C)
    for i in range(n):
        for j in range(n):
            if i != j and check.data[i][j] != 0:
                raise SolveInconsistencyError("congruence failed to diagonalize")
    return InertiaResult(n_plus, n_zero, n_minus, C, diag)


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalues
# ---------------------------------------------------------------------------

def char_poly(M: RatMatrix) -> List[Fraction]:
    """Monic characteristic polynomial det(tI - M), coefficients ascending.

    Faddeev-LeVerrier on the integer matrix A = d*M, d the lcm of M's
    denominators: A's coefficients c_k are ints (each division by k is exact),
    and M's coefficient of t^(n-k) is c_k / d^k.
    """
    if M.rows != M.cols:
        raise PreconditionError("characteristic polynomial of a non-square matrix")
    n = M.rows
    d = math.lcm(*(v.denominator for row in M.data for v in row))
    A = [[v.numerator * (d // v.denominator) for v in row] for row in M.data]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    # after step k, W = A^k + c_1 A^(k-1) + ... + c_k I
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*W))
        W = [[sum(map(mul, row, col)) for col in cols] for row in A]
        c = -sum(W[i][i] for i in range(n)) // k
        coeffs[n - k] = Fraction(c, d ** k)
        for i in range(n):
            W[i][i] += c
    return coeffs


def rational_roots(coeffs: Sequence[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    """All rational roots (with multiplicity) plus the remaining factor.

    Uses the rational-root theorem on the integer-cleared polynomial, tests
    each candidate p/q by integer Horner on q^deg * f(p/q), and deflates each
    found root by synthetic division.
    """
    work = [Fraction(v) for v in coeffs]
    while work and work[-1] == 0:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    roots = []
    # strip powers of t
    zero_mult = 0
    while work[0] == 0:
        zero_mult += 1
        work.pop(0)
    roots.extend([Fraction(0)] * zero_mult)

    def divisors(k: int):
        k = abs(k)
        out = set()
        for d in range(1, int(math.isqrt(k)) + 1):
            if k % d == 0:
                out.add(d)
                out.add(k // d)
        return sorted(out)

    changed = True
    while len(work) > 1 and changed:
        changed = False
        denom = math.lcm(*(c.denominator for c in work))
        ints = [c.numerator * (denom // c.denominator) for c in work]
        lead, const = ints[-1], ints[0]
        if const == 0:
            roots.append(Fraction(0))
            work = work[1:]
            changed = True
            continue
        candidates = sorted(
            {Fraction(s * p, q) for p in divisors(const) for q in divisors(lead)
             for s in (1, -1)},
            key=lambda f: (abs(f), f < 0))
        for cand in candidates:
            # p/q is a root iff q^deg * f(p/q) = sum_i ints[i] p^i q^(deg-i) is 0
            p, q = cand.numerator, cand.denominator
            acc, qk = 0, 1
            for c in reversed(ints):
                acc = acc * p + c * qk
                qk *= q
            if acc == 0:
                roots.append(cand)
                new = [Fraction(0)] * (len(work) - 1)
                carry = Fraction(0)
                for i in range(len(work) - 1, 0, -1):
                    carry = work[i] + carry * cand
                    new[i - 1] = carry
                work = new
                changed = True
                break
    return roots, work


@dataclass
class EigenData:
    char_coeffs: List[Fraction]          # ascending, monic
    rational_eigenvalues: List[Fraction]  # with multiplicity, ascending
    numeric_eigenvalues: List[complex]    # all eigenvalues, to tol

    @property
    def all_rational(self) -> bool:
        return len(self.rational_eigenvalues) == len(self.char_coeffs) - 1


def eigen_data(M: RatMatrix, tol: float = 1e-9) -> EigenData:
    """Exact characteristic polynomial, exact rational roots, numeric rest."""
    if M.rows != M.cols:
        raise PreconditionError("eigen_data requires a square matrix")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    coeffs = char_poly(M)
    rats, residual = rational_roots(coeffs)
    rats.sort()
    numeric = [complex(Fraction(r)) for r in rats]
    if len(residual) > 1:
        import mpmath

        digits = max(30, int(-math.log10(tol)) + 15)
        with mpmath.workdps(digits):
            rest = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                 for c in reversed(residual)], maxsteps=200, extraprec=80)
            extra = [complex(float(mpmath.re(r)), float(mpmath.im(r)))
                     for r in rest]
        extra.sort(key=lambda z: (z.real, z.imag))
        numeric.extend(extra)
    return EigenData(coeffs, rats, numeric)
