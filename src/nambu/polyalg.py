"""Exact scalar arithmetic: multivariate polynomials over Q and rational matrices.

Everything in this module is exact. Polynomials are kept in a sparse
exponent-vector representation, as integer numerators over one denominator in
lowest terms, and print in graded-lexicographic order, so printing and JSON
output are byte-stable. Matrices carry Fraction entries and support exact
rank, kernel, solving (with a Farkas inconsistency certificate), congruence
diagonalization of symmetric forms, and exact characteristic polynomials.
"""

from __future__ import annotations

import functools
import itertools
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


def _over_one_denominator(coeffs: dict):
    """(num, den) of a dict of nonzero ints and Fractions: over the lcm of
    the reduced denominators the numerators have no common factor with it."""
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    return {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}, den


def _grlex_key(exps: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    Stored as integer numerators over one denominator: ``num`` maps exponent
    vectors (tuples of length ``nvars``) to nonzero ints, ``den`` is a
    positive int, and gcd(den, *num) = 1, so the zero polynomial has den 1.
    ``terms`` is the view ``{exps: Fraction(n, den)}``, built when read.
    Instances are immutable; arithmetic returns new objects, each reduced
    once. The degree of the zero polynomial is ``float('-inf')``.
    """

    __slots__ = ("nvars", "num", "den", "_buckets")

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
        self._set(nvars, *_over_one_denominator(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def _set(self, nvars: int, num: dict, den: int) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, nvars: int, num: dict, den: int) -> "Poly":
        """Internal constructor: the Poly num / den, num's values nonzero
        ints, brought to canonical form by one gcd."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {e: n // g for e, n in num.items()}
                den //= g
        self = object.__new__(cls)
        self._set(nvars, num, den)
        return self

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._make(nvars, {}, 1)

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

    @property
    def terms(self) -> dict:
        """{exps: Fraction coefficient}, in the order of ``num``."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.num.items()}

    def _degree_buckets(self) -> list:
        """num by total degree: a pair (d, {exps: numerator}) per degree d
        that occurs, ascending, each bucket in the order of ``num``; kept
        once built."""
        buckets = getattr(self, "_buckets", None)
        if buckets is None:
            by_degree = {}
            for e, n in self.num.items():
                by_degree.setdefault(sum(e), {})[e] = n
            buckets = sorted(by_degree.items())
            object.__setattr__(self, "_buckets", buckets)
        return buckets

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def degree(self):
        if not self.num:
            return NEG_INF
        return max(sum(e) for e in self.num)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.num.get(tuple(exps), 0), self.den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

    def sorted_terms(self):
        """Terms in graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.num == other.num)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def _add(self, other: "Poly", t: int, s: int = 1, g: int = 1) -> "Poly":
        """(s * self + t * other) / g for ints s, t and g > 0, over the lcm
        of the two denominators."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        f1, f2 = s * (den // self.den), t * (den // other.den)
        out = dict(self.num) if f1 == 1 else {e: n * f1 for e, n in self.num.items()}
        get = out.get
        for e, n in other.num.items():
            s = get(e, 0) + f2 * n
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly._make(self.nvars, out, den * g)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {e: -n for e, n in self.num.items()}, self.den)

    def scale(self, scalar) -> "Poly":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            return Poly.zero(self.nvars)
        p = scalar.numerator
        return Poly._make(self.nvars, {e: n * p for e, n in self.num.items()},
                          self.den * scalar.denominator)

    def mul(self, other: "Poly", trunc: Optional[int] = None) -> "Poly":
        """Exact product; terms of total degree > trunc are dropped if given."""
        self._check(other)
        buckets = _mul_buckets(self._degree_buckets(), other._degree_buckets(), trunc)
        return Poly._make(self.nvars, {e: v for _, b in buckets for e, v in b.items() if v},
                          self.den * other.den)

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
        for exps, n in self.num.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            out[tuple(new)] = n * e
        return Poly._make(self.nvars, out, self.den)

    def homogeneous_component(self, d: int) -> "Poly":
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return Poly._make(self.nvars,
                          {e: n for e, n in self.num.items() if sum(e) == d}, self.den)

    def truncate(self, max_degree: int) -> "Poly":
        return Poly._make(self.nvars,
                          {e: n for e, n in self.num.items() if sum(e) <= max_degree},
                          self.den)

    def min_degree(self):
        if not self.num:
            return NEG_INF
        return min(sum(e) for e in self.num)

    def substitute(self, args: Sequence["Poly"], trunc: Optional[int] = None) -> "Poly":
        """Substitute args[i] for variable i: the one-polynomial case of
        `substitute_many`."""
        return substitute_many([self], args, trunc)[0]

    def linear_coefficients(self) -> List[Fraction]:
        """Coefficient vector of the degree-1 part."""
        out = [Fraction(0)] * self.nvars
        for exps, n in self.num.items():
            if sum(exps) == 1:
                out[exps.index(1)] = Fraction(n, self.den)
        return out

    # -- printing ----------------------------------------------------------

    def to_str(self, varname: str = "x") -> str:
        if not self.num:
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


def _mul_buckets(b1, b2, trunc: Optional[int]) -> list:
    """Degree buckets of the product of two numerator bucket lists, cut above
    degree trunc: one integer multiply-add per term pair, and the pairs a cut
    drops are never visited. Only the degrees that occur get a bucket, so
    the work does not grow with the size of an exponent."""
    out = {}
    for d1, t1 in b1:
        for d2, t2 in b2:
            d = d1 + d2
            if trunc is not None and d > trunc:
                break
            acc = out.setdefault(d, {})
            get = acc.get
            for e1, n1 in t1.items():
                for e2, n2 in t2.items():
                    e = tuple(map(add, e1, e2))
                    acc[e] = get(e, 0) + n1 * n2
    return sorted(out.items())


def substitute_many(polys: Sequence[Poly], args: Sequence[Poly],
                    trunc: Optional[int] = None) -> List[Poly]:
    """Substitute args[i] for variable i in each of polys; all args share
    one variable count.

    One table of the powers args[i]^k, cut at ``trunc``, serves every
    polynomial substituted along the map, so each power is built once, and
    so is each product of powers that several of the polynomials need. With
    ``trunc`` every product is cut at that degree, so each result is the
    truncation of the exact substitution (a constant term is kept even for a
    negative ``trunc``).
    """
    nvars = len(args)
    for p in polys:
        if p.nvars != nvars:
            raise ValueError("substitution needs one polynomial per variable")
    if not args:
        # constant polynomials in zero variables
        return list(polys)
    m = args[0].nvars
    for a in args:
        if a.nvars != m:
            raise ValueError("substitution arguments disagree on nvars")
    # powers[i][k] = (D_i^k, degree buckets of D_i^k * args[i]^k), where
    # D_i is the denominator of args[i]
    one = (1, [(0, {(0,) * m: 1})])
    powers = [[one] for _ in args]

    def power(i, k):
        cache = powers[i]
        while len(cache) <= k:
            D, b = cache[-1]
            cache.append((D * args[i].den, _mul_buckets(b, args[i]._degree_buckets(), trunc)))
        return cache[k]

    # Polynomial t is (1/den_t) sum n_e x^e. The terms of all the polynomials
    # are visited together in lexicographic order of their exponents, so
    # terms with a common exponent prefix are adjacent, within a polynomial
    # and across them, and path[j] holds the product of the powers named by
    # the first j exponents of the current term: a product that several
    # polynomials need is built once. The term of e adds n_e * (L_t / D_e)
    # times its product to polynomial t over the common denominator den_t * L_t.
    Ls = [math.lcm(*[math.prod(args[i].den ** k for i, k in enumerate(e) if k) for e in p.num])
          for p in polys]
    accs = [{} for _ in Ls]
    path = [one] * (nvars + 1)
    prev = None
    for e, t, n in sorted((e, t, n) for t, p in enumerate(polys) for e, n in p.num.items()):
        if e != prev:
            j = 0
            if prev is not None:
                while e[j] == prev[j]:
                    j += 1
            for i in range(j, nvars):
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
        scale = n * (Ls[t] // De)
        acc = accs[t]
        get = acc.get
        for _, bucket in product:
            for exps, v in bucket.items():
                acc[exps] = get(exps, 0) + scale * v
    return [Poly._make(m, {e: v for e, v in acc.items() if v}, p.den * L)
            for p, acc, L in zip(polys, accs, Ls)]


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
    return Poly._make(nvars, *_over_one_denominator(terms))


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

def _integer_rows(data) -> Tuple[List[List[int]], int]:
    """(A, d) with data = A / d: d the lcm of the denominators of the rational
    (or int) entries, A their integer numerators over it."""
    d = math.lcm(*(v.denominator for row in data for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in data], d


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
        """The product, on the integer numerators of both factors."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        (A, da), (B, db) = _integer_rows(self.data), _integer_rows(other.data)
        cols = list(zip(*B))
        return RatMatrix._make([[Fraction(sum(map(mul, row, col)), da * db) for col in cols]
                                for row in A])

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
        """det(A) / d^n for the integer numerators A over the lcm d of the
        denominators, det(A) by Bareiss: each division by a pivot is exact."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m, d = _integer_rows(self.data)
        n = self.rows
        sign, prev = 1, 1
        for c in range(n):
            pivot = next((i for i in range(c, n) if m[i][c]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                sign = -sign
            a, top = m[c][c], m[c]
            for i in range(c + 1, n):
                f, row = m[i][c], m[i]
                m[i] = [(a * x - f * y) // prev for x, y in zip(row, top)]
            prev = a
        return Fraction(sign * prev, d ** n)

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
    per pivot, as (pivot column, row, its right-hand side): the row is a
    primitive integer row {column: int} (its pivot entry need not be 1), the
    right-hand side is b's row scaled alike, and every entry of the row lies
    at or right of the pivot. The kernel basis is read off
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


def _lincomb(s: int, x, t: int, y, g: int = 1):
    """(s * x - t * y) / g for ints s, t, g > 0 and two Fractions or Polys."""
    if isinstance(x, Poly):
        return x._add(y, -t, s, g)
    xd, yd = x.denominator, y.denominator
    return Fraction(s * x.numerator * yd - t * y.numerator * xd, xd * yd * g)


def _back_substitute(echelon, ncols: int, zero, free: Optional[int] = None) -> list:
    """Solve the echelon rows from the last pivot up, free variables `zero`;
    the division by each pivot entry is where rationals first appear.

    With `free` given, solves the homogeneous system with x_free = 1.
    """
    x = [zero] * ncols
    if free is not None:
        x[free] = Fraction(1)
    for c, row, rhs in reversed(echelon):
        acc = zero if free is not None else rhs
        for k, v in row.items():
            if k != c and x[k]:
                acc = _lincomb(1, acc, v, x[k])
        a = row[c]
        x[c] = acc if a == 1 else acc * Fraction(1, a)
    return x


def solve_sparse(rows: Sequence[dict], ncols: int, rhs: Sequence) -> LinearSolveResult:
    """Solve M x = b exactly, M given as sparse rows ``{column: value}``.

    Columns are eliminated left to right. At each column the pivot is the
    remaining row with the fewest nonzeros, which keeps fill-in low
    (Markowitz 1957); no transform matrix is built. When column c comes up,
    every unpivoted row is clear of the columns left of c, so the rows that
    hold c are those whose leftmost column is c: an index from leading
    column to rows, updated as rows change, finds them without a scan of
    the unpivoted rows. Column c is a pivot
    exactly when it is not in the span of columns 0..c-1, whichever row is
    chosen, so the pivots are the RREF's leftmost pivots and the particular
    solution (free variables zero) is the RREF's, byte for byte. An entry of
    b is a scalar or a `Poly` (then scalars read as constants), and one
    elimination serves every monomial of b: the solution's coefficient at a
    monomial solves the scalar system of b's coefficients there, and the
    system is inconsistent exactly when one of those is.

    The elimination is fraction-free (Bareiss 1968): rows are primitive
    integer rows, and a step with pivot entry a, f = row_i[c], g = gcd(a, f)
    takes row_i to (a/g) row_i - (f/g) prow over its content, the nonzero
    pattern of the rational step; b_i follows by the same numbers.
    """
    polys = [v for v in rhs if isinstance(v, Poly)]
    zero = Poly.zero(polys[0].nvars) if polys else Fraction(0)
    given = [v if isinstance(v, Poly) else zero if not v
             else Poly.const(zero.nvars, v) if polys else _as_fraction(v) for v in rhs]
    if len(given) != len(rows):
        raise ValueError("right-hand side has wrong length")
    b = list(given)
    work = []
    for i, row in enumerate(rows):
        d = math.lcm(*[v.denominator for v in row.values()])
        ints = {c: v.numerator * (d // v.denominator) for c, v in row.items() if v}
        g = math.gcd(*ints.values()) or 1
        if g != 1:
            ints = {c: v // g for c, v in ints.items()}
        if d != g and b[i]:
            b[i] *= Fraction(d, g)
        work.append(ints)
    unpivoted = set(range(len(work)))
    # leading column -> the unpivoted rows that start there
    leading = {}
    for i, row in enumerate(work):
        if row:
            leading.setdefault(min(row), []).append(i)
    echelon = []
    for c in range(ncols):
        holders = leading.pop(c, None)
        if holders is None:
            continue
        p = min(holders, key=lambda i: (len(work[i]), i))
        unpivoted.discard(p)
        prow, bp = work[p], b[p]
        a = prow[c]
        for i in holders:
            if i == p:
                continue
            row = work[i]
            g = math.gcd(a, row[c])
            s, t = a // g, row[c] // g
            if s != 1:
                row = {k: v * s for k, v in row.items()}
            for k, v in prow.items():
                x = row.get(k, 0) - t * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            h = math.gcd(*row.values()) or 1
            work[i] = row if h == 1 else {k: v // h for k, v in row.items()}
            if row:
                leading.setdefault(min(row), []).append(i)
            if bp or b[i]:
                b[i] = _lincomb(s, b[i], t, bp, h)
        echelon.append((c, prow, bp))
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

    def add(self, row, col: int, v, den: int = 1) -> None:
        """Add v / den at (row, col); int entries stay ints."""
        entries = self.rows.setdefault(row, {})
        entries[col] = entries.get(col, 0) + (v if den == 1 else Fraction(v, den))

    def rhs(self, row, v, den: int = 1) -> None:
        self.rows.setdefault(row, {})
        self.b[row] = v if den == 1 else Fraction(v, den)

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
    A, d = _integer_rows(M.data)
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


def _square_free_factors(f: List[Fraction]) -> List[Tuple[List[Fraction], int]]:
    """Yun's square-free decomposition over Q of f (coefficients ascending,
    degree >= 1): pairs (g, k) with f = lc(f) * prod g^k, the g square-free
    and pairwise coprime. A square-free f comes back as [(f, 1)] unchanged."""
    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def deriv(p):
        return [k * c for k, c in enumerate(p)][1:]

    def sub(p, q):
        return trim([a - b for a, b in itertools.zip_longest(p, q, fillvalue=0)])

    def divmod_(p, q):
        p, quot = list(p), [Fraction(0)] * (len(p) - len(q) + 1)
        for i in reversed(range(len(quot))):
            c = quot[i] = p[i + len(q) - 1] / q[-1]
            for j, v in enumerate(q):
                p[i + j] -= c * v
        return quot, trim(p[:len(q) - 1])

    def gcd(p, q):
        while q:
            p, q = q, divmod_(p, q)[1]
        return [c / p[-1] for c in p]

    df = deriv(f)
    a = gcd(f, df)
    if len(a) == 1:
        return [(f, 1)]
    b = divmod_(f, a)[0]
    d = sub(divmod_(df, a)[0], deriv(b))
    out, k = [], 1
    while len(b) > 1:
        a = gcd(b, d)
        b = divmod_(b, a)[0]
        d = sub(divmod_(d, a)[0], deriv(b))
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def eigen_data(M: RatMatrix, tol: float = 1e-9) -> EigenData:
    """Exact characteristic polynomial, exact rational roots, numeric rest.

    The rest is found by `mpmath.polyroots` on each exact square-free factor
    of the residual, each root repeated by its multiplicity; a residual that
    is square-free goes to `polyroots` whole.
    """
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
        extra = []
        with mpmath.workdps(digits):
            for g, k in _square_free_factors(residual):
                try:
                    rest = mpmath.polyroots(
                        [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                         for c in reversed(g)], maxsteps=200, extraprec=80)
                except mpmath.libmp.NoConvergence as exc:
                    raise PreconditionError(
                        f"irrational eigenvalues not found to tolerance: {exc}")
                extra += [complex(float(mpmath.re(r)), float(mpmath.im(r)))
                          for r in rest] * k
        extra.sort(key=lambda z: (z.real, z.imag))
        numeric.extend(extra)
    return EigenData(coeffs, rats, numeric)
