"""Exact scalar arithmetic: multivariate polynomials over Q and rational matrices.

Everything in this module is exact. Polynomials are kept in a sparse
exponent-vector representation, as integer numerators over one denominator in
lowest terms, and print in graded-lexicographic order, so printing and JSON
output are byte-stable. Matrices are kept as integer rows over one
denominator and support exact rank, kernel, solving (with a Farkas
inconsistency certificate), congruence diagonalization of symmetric forms,
and exact characteristic polynomials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from decimal import Context
from fractions import Fraction
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

NEG_INF = float("-inf")

_ZERO = Fraction(0)  # shared: Fractions are immutable


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
        return Poly.monomial(nvars, (0,) * nvars, value)

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly._make(nvars, {(0,) * nvars: 1}, 1)

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for nvars={nvars}")
        return Poly._make(nvars, {tuple(int(j == i) for j in range(nvars)): 1}, 1)

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff=1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError(f"exponent vector {exps} is not a monomial in {nvars} variables")
        c = coeff if isinstance(coeff, int) else _as_fraction(coeff)
        if not c:
            return Poly.zero(nvars)
        return Poly._make(nvars, {exps: c.numerator}, c.denominator)

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

    # -- printing ----------------------------------------------------------

    def to_str(self, varname: str = "x") -> str:
        if not self.num:
            return "0"
        pieces = []
        den = self.den
        # graded-lexicographic order (deterministic)
        for exps, c in sorted(self.num.items(), key=lambda kv: _grlex_key(kv[0])):
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                v = f"{varname}{i + 1}"
                factors.append(v if e == 1 else f"{v}^{e}")
            # |c| / den in lowest terms, printed as Fraction prints it
            g = math.gcd(c, den)
            top, bottom = abs(c) // g, den // g
            mag = str(top) if bottom == 1 else f"{top}/{bottom}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = mag + "*" + "*".join(factors)
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


def _monomials_of_degree(nvars, d, slots=None):
    """Exponent tuples of total degree d supported on slots (default: all),
    in descending lexicographic order."""
    out = []
    for combo in itertools.combinations_with_replacement(
            range(nvars) if slots is None else sorted(slots), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


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

def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the polynomial mini-grammar.

    Terms are sums/differences of products of rational numbers and powers of
    x1..xn; "*" between factors is optional; whitespace is insignificant.
    Numbers and indices are ASCII digits. Errors carry the offending position.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    pos = 0
    terms = {}
    # _parse_term stops only at a sign token or at the end of the input, so
    # every term after the first starts with a sign
    while pos < len(tokens):
        kind, _, at = tokens[pos]
        sign = 1
        if kind in ("+", "-"):
            sign = 1 if kind == "+" else -1
            pos += 1
            if pos >= len(tokens):
                raise PolyParseError("expected a term after sign", at + 1)
        exps, coeff, pos = _parse_term(tokens, pos, nvars, text)
        if coeff:
            # a sum that cancels leaves the dict, as in Poly.__add__
            s = terms.get(exps, 0) + sign * coeff
            if s:
                terms[exps] = s
            else:
                del terms[exps]
    return Poly._make(nvars, *_over_one_denominator(terms))


def _digits(text: str, i: int) -> Tuple[Optional[int], int]:
    """(value, end) of the run of ASCII digits at i; value is None when
    there is none."""
    j = i
    while j < len(text) and text[j] in "0123456789":
        j += 1
    if j == i:
        return None, i
    try:
        return int(text[i:j]), j
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise PolyParseError("number too long", i) from None


def _tokenize(text: str):
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
        if ch == "x":
            index, j = _digits(text, i + 1)
            if index is None:
                raise PolyParseError("expected variable index after 'x'", i + 1)
            tokens.append(("var", index, i))
            i = j
            continue
        num, j = _digits(text, i)
        if num is None:
            raise PolyParseError(f"unexpected character {ch!r}", i)
        if j < n and text[j] == "/":
            den, m = _digits(text, j + 1)
            if den is None:
                raise PolyParseError("expected denominator digits", j + 1)
            if den == 0:
                raise PolyParseError("zero denominator", j + 1)
            tokens.append(("num", Fraction(num, den), i))
            i = m
        else:
            tokens.append(("num", num, i))
            i = j
    return tokens


def _parse_term(tokens, pos, nvars, text):
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
                    f"variable x{value} out of range 1..{nvars}", at)
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
    """Dense rational matrix with exact linear algebra.

    Stored as integer rows over one denominator: ``num`` is a list of integer
    rows and ``den`` a positive int with gcd(den, every entry) = 1, so the
    zero matrix has den 1. ``data`` is the view of Fraction rows, built when
    read, as ``Poly.terms`` is. Instances are immutable.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Sequence[Sequence]):
        rows = [[_as_fraction(v) for v in row] for row in data]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        self._set(*_integer_rows(rows))

    def _set(self, num: List[List[int]], den: int) -> None:
        object.__setattr__(self, "rows", len(num))
        object.__setattr__(self, "cols", len(num[0]) if num else 0)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def _make(cls, num: List[List[int]], den: int = 1) -> "RatMatrix":
        """Internal constructor: the matrix num / den, num integer rows and
        den a positive int, brought to lowest terms by one gcd."""
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(num))
            if g != 1:
                num = [[v // g for v in row] for row in num]
                den //= g
        self = object.__new__(cls)
        self._set(num, den)
        return self

    @property
    def data(self) -> List[List[Fraction]]:
        """The Fraction rows, built when read."""
        den = self.den
        return [[Fraction(v, den) for v in row] for row in self.num]

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._make([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "RatMatrix":
        return RatMatrix._make([[0] * c for _ in range(r)])

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.den == other.den and self.num == other.num

    __hash__ = None

    def __getitem__(self, key):
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._make([list(col) for col in zip(*self.num)], self.den)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        """The product, on the integer numerators of both factors."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.num))
        return RatMatrix._make([[sum(map(mul, row, col)) for col in cols] for row in self.num],
                               self.den * other.den)

    def matvec(self, vec: Sequence) -> List[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        (v,), d = _integer_rows([[_as_fraction(x) for x in vec]])
        return [Fraction(sum(map(mul, row, v)), self.den * d) for row in self.num]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        a = self.num
        return all(a[i][j] == a[j][i] for i in range(self.rows) for j in range(i + 1, self.cols))

    def rref(self):
        """Reduced row echelon form: (R, T, pivots) with T.matmul(self) == R
        exactly. [R | T] is the RREF of [self | I], so T is the canonical
        transform: its rows past the rank span the left kernel.

        A thin wrapper over `_rref_with_transform`, which `inverse` and the
        classifier call; nothing in the library calls this name, and it stays
        because perfbench/tracing.py wraps it by name.
        """
        return _rref_with_transform(self)

    def rank(self) -> int:
        return len(_eliminate(self.num, self.cols).pivots)

    def nullspace(self) -> List[List[Fraction]]:
        """Basis of the right kernel, free variables set to canonical units."""
        return _eliminate(self.num, self.cols).kernel

    def det(self) -> Fraction:
        """det(num) / den^n, det(num) by Bareiss: each division by a pivot is
        exact."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = [row[:] for row in self.num]
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
        return Fraction(sign * prev, self.den ** n)

    def inverse(self) -> "RatMatrix":
        """The inverse, read off one integer elimination of [A | I]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        _, T, pivots = _rref_with_transform(self)
        if len(pivots) != self.cols:
            raise ValueError("matrix is singular")
        return T

    def to_str_rows(self) -> List[List[str]]:
        return [[str(v) for v in row] for row in self.data]

    def __repr__(self):
        return f"RatMatrix({self.to_str_rows()})"


def _rref_with_transform(M: RatMatrix):
    """(R, T, pivots) with [R | T] the RREF of [M | I], from one integer
    elimination of [num | den I], whose RREF it is too."""
    n, den = M.cols, M.den
    res = _eliminate([row + [den * (i == j) for j in range(M.rows)]
                      for i, row in enumerate(M.num)], n + M.rows)
    rows, d = res.reduced_ints
    return (RatMatrix._make([row[:n] for row in rows], d),
            RatMatrix._make([row[n:] for row in rows], d),
            [c for c in res.pivots if c < n])


@dataclass
class LinearSolveResult:
    """Outcome of an exact linear solve M x = b.

    `pivots` are the pivot columns of the RREF of M. `echelon` holds one row
    per pivot, as (pivot column, row, its right-hand side): the row is a
    primitive integer row {column: int} (its pivot entry need not be 1), the
    right-hand side is b's row scaled alike, and every entry of the row lies
    at or right of the pivot. The reduced rows come from one integer
    Gauss-Jordan pass over these rows, the kernel basis is read off them,
    and the inconsistency witness off the system, each when first asked for;
    the solution has b's type.
    """

    solution: Optional[list]
    pivots: List[int]
    echelon: list = field(repr=False)
    rows: Sequence[dict] = field(repr=False)
    rhs: list = field(repr=False)
    ncols: int = field(repr=False)

    @property
    def consistent(self) -> bool:
        return self.solution is not None

    @functools.cached_property
    def reduced_ints(self) -> Tuple[List[List[int]], int]:
        """(R, d): the RREF rows of M, one per pivot, as dense integer rows
        over one denominator d, the lcm of the Gauss-Jordan pivot entries."""
        if self.solution is None:
            raise ValueError("reduced rows of an inconsistent system")
        rows = _gauss_jordan(self.echelon)
        d = math.lcm(*[row[c] for c, row in rows])
        out = []
        for c, row in rows:
            f = d // row[c]
            dense = [0] * self.ncols
            for k, v in row.items():
                dense[k] = v * f
            out.append(dense)
        return out, d

    @functools.cached_property
    def reduced_rows(self) -> List[List[Fraction]]:
        """The RREF rows of M, one per pivot: 1 at the pivot, 0 at the other
        pivots."""
        rows, d = self.reduced_ints
        return [[Fraction(v, d) for v in row] for row in rows]

    @functools.cached_property
    def kernel_ints(self) -> Tuple[List[List[int]], int]:
        """(K, d): the kernel basis as integer vectors over one denominator d,
        read off the reduced rows (empty when inconsistent)."""
        if self.solution is None:
            return [], 1
        rows, d = self.reduced_ints
        return _rref_kernel(rows, self.pivots, d, self.ncols), d

    @functools.cached_property
    def kernel(self) -> List[List[Fraction]]:
        """Basis of the right kernel of M, one vector per free column f with
        x_f = 1 and the other free variables zero (empty when inconsistent)."""
        K, d = self.kernel_ints
        return [[Fraction(v, d) for v in k] for k in K]

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


def _rref_kernel(rows: List[List[int]], pivots: List[int], d: int, ncols: int) -> List[List[int]]:
    """The kernel basis of the RREF rows R / d with these pivots, over d: one
    integer vector per free column f, d at f and -R[c][f] at each pivot c."""
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f not in pivot_set:
            k = [0] * ncols
            k[f] = d
            for c, row in zip(pivots, rows):
                k[c] = -row[f]
            out.append(k)
    return out


def _lincomb(s: int, x, t: int, y, g: int = 1):
    """(s * x - t * y) / g for ints s, t, g > 0 and two Fractions or Polys."""
    if isinstance(x, Poly):
        return x._add(y, -t, s, g)
    xd, yd = x.denominator, y.denominator
    return Fraction(s * x.numerator * yd - t * y.numerator * xd, xd * yd * g)


def _reduce_row(row: dict, prow: dict, c: int):
    """(row', s, t, h): row's entry at c cleared by the pivot row prow,
    fraction-free. With a = prow[c], f = row[c] and g = gcd(a, f), s = a/g
    and t = f/g, row' = (s row - t prow) / h, h its content (1 for a zero
    row); row itself is reused when s = 1."""
    a, f = prow[c], row[c]
    g = math.gcd(a, f)
    s, t = a // g, f // g
    if s != 1:
        row = {k: v * s for k, v in row.items()}
    for k, v in prow.items():
        x = row.get(k, 0) - t * v
        if x:
            row[k] = x
        else:
            del row[k]
    h = math.gcd(*row.values()) or 1
    return (row if h == 1 else {k: v // h for k, v in row.items()}), s, t, h


def _gauss_jordan(echelon) -> List[Tuple[int, dict]]:
    """The echelon rows reduced fraction-free from the last pivot up: each
    row keeps its pivot c and is cleared at every other pivot column, a
    primitive integer row whose quotient by its entry at c is the RREF row."""
    pivots = [c for c, _, _ in echelon]
    rows = [dict(row) for _, row, _ in echelon]
    for j in range(len(rows) - 1, 0, -1):
        c, prow = pivots[j], rows[j]
        for i in range(j):
            if c in rows[i]:
                rows[i] = _reduce_row(rows[i], prow, c)[0]
    return list(zip(pivots, rows))


def _back_substitute(echelon, ncols: int, zero) -> list:
    """Solve the echelon rows from the last pivot up, free variables zero.

    A `Poly` right-hand side is solved polynomial by polynomial. A scalar one
    is solved on integers, x_k = val[k] / at[k]: the running denominator D
    starts at the lcm of the right-hand sides' denominators and grows, at a
    pivot entry a, by a / gcd(acc, a) for the numerator acc over D, so it
    stays the lcm of the denominators so far, up to sign. at[k] is the D
    that x_k was last brought over; it divides the current D, and x_k is
    brought over D when it is next read, so no step rescales the whole
    vector. One Fraction per nonzero entry is built at the end.
    """
    if isinstance(zero, Poly):
        x = [zero] * ncols
        for c, row, rhs in reversed(echelon):
            acc = rhs
            for k, v in row.items():
                if k != c and x[k]:
                    acc = acc._add(x[k], -v)
            a = row[c]
            x[c] = acc if a == 1 else acc.scale(Fraction(1, a))
        return x
    D = math.lcm(*[rhs.denominator for _, _, rhs in echelon])
    val, at = [0] * ncols, [1] * ncols
    for c, row, rhs in reversed(echelon):
        acc = rhs.numerator * (D // rhs.denominator)
        for k, v in row.items():
            if val[k]:  # x_c itself is still 0
                if at[k] != D:
                    val[k] *= D // at[k]
                    at[k] = D
                acc -= v * val[k]
        if acc:
            # x_c = acc / (a D) = (acc / g) / (m D), m = a / g
            a = row[c]
            g = math.gcd(acc, a)
            val[c] = acc // g
            D *= a // g
            at[c] = D
    return [Fraction(v, d) if v else _ZERO for v, d in zip(val, at)]


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
    zero = Poly.zero(polys[0].nvars) if polys else 0
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
        for i in holders:
            if i == p:
                continue
            row, s, t, h = _reduce_row(work[i], prow, c)
            work[i] = row
            if row:
                leading.setdefault(min(row), []).append(i)
            if bp or b[i]:
                b[i] = _lincomb(s, b[i], t, bp, h)
        echelon.append((c, prow, bp))
    pivots = [c for c, _, _ in echelon]
    solution = None
    if not any(b[i] for i in unpivoted):
        solution = _back_substitute(echelon, ncols, zero)
    return LinearSolveResult(solution, pivots, echelon, rows, given, ncols)


def _eliminate(rows: Sequence[Sequence], ncols: int) -> LinearSolveResult:
    """One `solve_sparse` of the dense rows (ints or rationals) against a
    zero right-hand side: their pivots, kernel and reduced rows."""
    return solve_sparse([{c: v for c, v in enumerate(row) if v} for row in rows],
                        ncols, [0] * len(rows))


def solve_linear(M: RatMatrix, b: Sequence) -> LinearSolveResult:
    """Solve M x = b exactly by one sparse elimination (`solve_sparse`).

    The pivots are the leftmost ones, those of the RREF of M, so the
    particular solution with free variables zero is the RREF's. Returns it
    plus a kernel basis, or an inconsistency witness row y (y.M = 0 and
    y.b != 0). A thin wrapper that nothing in the library calls; it stays
    because perfbench/tracing.py wraps it by name.
    """
    return solve_sparse([{c: v for c, v in enumerate(row) if v} for row in M.data],
                        M.cols, b)


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
    """Symmetric Gaussian elimination with the rank-2 fallback, in integer
    steps.

    Produces C with C^T S C diagonal; diagonal entries stay rational (no
    square roots), so they are +-positive rationals rather than +-1. Column j
    of C is an integer column c_j over a positive denominator e_j, and
    a = c^T num(S) c is an integer matrix, so C^T S C is a[i][j] / (den e_i e_j).
    A step C_dst += (u / v) C_src takes c_dst to alpha c_dst + beta c_src over
    v e_dst e_src (alpha = v e_src, beta = u e_dst), row and column dst of a
    alike; the content of c_dst and its denominator is then divided out.
    """
    if not S.is_symmetric():
        raise PreconditionError("inertia requires a symmetric matrix")
    n = S.rows
    a = [row[:] for row in S.num]
    cmat = [[int(i == j) for j in range(n)] for i in range(n)]
    e = [1] * n

    def col_op(dst, src, u, v):
        # C_dst += (u / v) C_src, and the symmetric row op on a
        alpha, beta, den = v * e[src], u * e[dst], v * e[dst] * e[src]
        if den < 0:
            alpha, beta, den = -alpha, -beta, -den
        for i in range(n):
            a[i][dst] = alpha * a[i][dst] + beta * a[i][src]
        for j in range(n):
            a[dst][j] = alpha * a[dst][j] + beta * a[src][j]
        for i in range(n):
            cmat[i][dst] = alpha * cmat[i][dst] + beta * cmat[i][src]
        h = math.gcd(den, *(row[dst] for row in cmat))
        if h != 1:
            # a[dst][dst] is divided twice, by h^2
            for i in range(n):
                cmat[i][dst] //= h
                a[i][dst] //= h
            for j in range(n):
                a[dst][j] //= h
        e[dst] = den // h

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            cmat[r][i], cmat[r][j] = cmat[r][j], cmat[r][i]
        a[i], a[j] = a[j], a[i]
        e[i], e[j] = e[j], e[i]

    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            if i != k:
                col_swap(i, k)
            if j != k + 1:
                col_swap(j, k + 1)
            # x_k = u + v, x_{k+1} = u - v turns the off-diagonal pair into
            # a +- pair on the diagonal
            col_op(k, k + 1, 1, 1)
            col_op(k + 1, k, -1, 2)
            if a[k][k] == 0:
                raise SolveInconsistencyError("rank-2 inertia fallback failed")
            pivot = k
        if pivot != k:
            col_swap(pivot, k)
        # C_j -= (a_kj / a_kk) C_k in the true entries
        d = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                col_op(j, k, -a[k][j] * e[k], d * e[j])
        k += 1

    diag = [Fraction(a[i][i], S.den * e[i] ** 2) for i in range(n)]
    n_plus = sum(1 for v in diag if v > 0)
    n_minus = sum(1 for v in diag if v < 0)
    n_zero = n - n_plus - n_minus
    L = math.lcm(*e)
    C = RatMatrix._make([[v * (L // ej) for v, ej in zip(row, e)] for row in cmat], L)
    check = C.transpose().matmul(S).matmul(C).num
    for i in range(n):
        for j in range(n):
            if i != j and check[i][j] != 0:
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
    A, d = M.num, M.den
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

    Works on the integer-cleared polynomial P = d f, its powers of t
    stripped. A linear P has the root -P0 / P1, and a quadratic one the
    roots (-P1 +- s) / (2 P2) when its exact discriminant is a square s^2,
    else none. Of higher degree, a candidate p/q of the rational-root
    theorem (p | P(0) and q | lead(P), in lowest terms) is tested by integer
    Horner on q^deg P(p/q), and a root is divided out of P as the primitive
    factor q t - p, on integers, as often as it divides.
    The roots come back ordered by (|r|, sign), positive first; the
    remaining factor f / prod (t - r) is the quotient left times prod q / d.
    """
    work = [Fraction(v) for v in coeffs]
    while work and work[-1] == 0:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    # strip powers of t
    zero_mult = next(i for i, c in enumerate(work) if c)
    (P,), d = _integer_rows([work[zero_mult:]])
    roots = [Fraction(0)] * zero_mult

    def divisors(k: int):
        k = abs(k)
        return sorted({e for j in range(1, math.isqrt(k) + 1) if k % j == 0 for e in (j, k // j)})

    scale = 1
    if len(P) == 2:
        roots.append(Fraction(-P[0], P[1]))
        P = P[1:]
    elif len(P) == 3:
        disc = P[1] * P[1] - 4 * P[0] * P[2]
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            roots += [Fraction(-P[1] + s, 2 * P[2]), Fraction(-P[1] - s, 2 * P[2])]
            P = P[2:]
    elif len(P) > 3:
        for q in divisors(P[-1]):
            for p in divisors(P[0]):
                if math.gcd(p, q) != 1:
                    continue
                for r in (p, -p):
                    while len(P) > 1 and P[0] % r == 0 and P[-1] % q == 0:
                        # r/q is a root iff q^deg P(r/q) = sum_i P[i] r^i q^(deg-i) is 0
                        acc, qk = 0, 1
                        for c in reversed(P):
                            acc = acc * r + c * qk
                            qk *= q
                        if acc:
                            break
                        # P = (q t - r) Q, Q's coefficients from the top down
                        Q, carry = [0] * (len(P) - 1), 0
                        for k in range(len(P) - 1, 0, -1):
                            carry = Q[k - 1] = (P[k] + r * carry) // q
                        P = Q
                        roots.append(Fraction(r, q))
                        scale *= q
    roots.sort(key=lambda f: (abs(f), f < 0))
    return roots, [Fraction(c * scale, d) for c in P]


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


def _mpf(c: Fraction):
    import mpmath

    return mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)


def _quadratic_roots(g: List[Fraction]) -> list:
    """The two roots of the quadratic g (coefficients ascending, no rational
    root), at mpmath's working precision.

    The discriminant is exact. A complex pair is -c1 / (2 c2) exactly plus or
    minus i sqrt(-disc) / (2 |c2|); a real pair is t / c2 and c0 / t with
    t = -(c1 + sign(c1) sqrt(disc)) / 2, which subtracts no close numbers.
    Small parts are then cleaned up as `mpmath.polyroots` cleans them: a root
    below eps becomes 0, an imaginary part below eps is dropped, and a real
    part below eps too.
    """
    import mpmath

    c0, c1, c2 = g
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        re = _mpf(-c1 / (2 * c2))
        im = mpmath.sqrt(_mpf(-disc)) / _mpf(2 * abs(c2))
        roots = [mpmath.mpc(re, im), mpmath.mpc(re, -im)]
    else:
        s = mpmath.sqrt(_mpf(disc))
        t = -(_mpf(c1) + s) / 2 if c1 >= 0 else -(_mpf(c1) - s) / 2
        roots = [t / _mpf(c2), _mpf(c0) / t]
    tol = mpmath.eps
    for i, r in enumerate(roots):
        if abs(r) < tol:
            roots[i] = mpmath.mpf(0)
        elif abs(mpmath.im(r)) < tol:
            roots[i] = mpmath.re(r)
        elif abs(mpmath.re(r)) < tol:
            roots[i] = mpmath.im(r) * 1j
    return roots


def as_float(num, den: int, what: str) -> float:
    """num / den, or a PreconditionError naming what and the value when no float holds it."""
    try:
        return num / den
    except OverflowError:
        shown = Context(prec=6).divide(num, den).normalize()
        raise PreconditionError(f"{what} {shown} is beyond float range") from None


def eigen_data(M: RatMatrix, tol: float = 1e-9) -> EigenData:
    """Exact characteristic polynomial, exact rational roots, numeric rest.

    The rest is found on each exact square-free factor of the residual, each
    root repeated by its multiplicity: a quadratic factor by the quadratic
    formula (`_quadratic_roots`), a factor of higher degree by
    `mpmath.polyroots`; a residual that is square-free is one factor.
    """
    if M.rows != M.cols:
        raise PreconditionError("eigen_data requires a square matrix")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    coeffs = char_poly(M)
    rats, residual = rational_roots(coeffs)
    rats.sort()
    numeric = [complex(as_float(r.numerator, r.denominator, "eigenvalue")) for r in rats]
    if len(residual) > 1:
        import mpmath

        digits = max(30, int(-math.log10(tol)) + 15)
        extra = []
        with mpmath.workdps(digits):
            for g, k in _square_free_factors(residual):
                try:
                    rest = _quadratic_roots(g) if len(g) == 3 else mpmath.polyroots(
                        [_mpf(c) for c in reversed(g)], maxsteps=200, extraprec=80)
                except mpmath.libmp.NoConvergence as exc:
                    raise PreconditionError(
                        f"irrational eigenvalues not found to tolerance: {exc}")
                extra += [complex(float(mpmath.re(r)), float(mpmath.im(r)))
                          for r in rest] * k
        extra.sort(key=lambda z: (z.real, z.imag))
        numeric.extend(extra)
    return EigenData(coeffs, rats, numeric)
