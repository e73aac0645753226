"""Antisymmetric multivector fields and differential forms over Poly coefficients.

Components are keyed by strictly increasing index tuples (0-based). The one
interior-product convention used everywhere: for an increasing tuple
(i1 < ... < im),  i_{e_{i1} ^ ... ^ e_{im}} = i_{e_{im}} o ... o i_{e_{i1}},
i.e. the lowest index is contracted first into the leading slot. All signs in
the library derive from this single choice.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, Optional, Sequence, Tuple

from .polyalg import (
    InputError,
    Poly,
    PreconditionError,
    RatMatrix,
    parse_poly,
    substitute_many,
)

IndexTuple = Tuple[int, ...]


@functools.cache
def merge_sign(I: IndexTuple, J: IndexTuple) -> Optional[Tuple[IndexTuple, int]]:
    """Sorted concatenation of two increasing disjoint tuples with parity.

    Returns None when the tuples share an index. Memoized: the index tuples
    in play are tiny and recur constantly in wedge loops.
    """
    if not I:
        return J, 1
    if not J:
        return I, 1
    inversions = 0
    merged = []
    a, b = 0, 0
    while a < len(I) and b < len(J):
        if I[a] == J[b]:
            return None
        if I[a] < J[b]:
            merged.append(I[a])
            a += 1
        else:
            merged.append(J[b])
            inversions += len(I) - a
            b += 1
    merged.extend(I[a:])
    merged.extend(J[b:])
    return tuple(merged), (-1 if inversions % 2 else 1)


def sort_sign(seq: Sequence[int]) -> Optional[Tuple[IndexTuple, int]]:
    """Sort an index list, returning parity; None on duplicates."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return None
    return tuple(lst), sign


class _Alternating:
    """Shared machinery of Multivector and DiffForm."""

    __slots__ = ("nvars", "grade", "comps")
    kind = "?"

    def __init__(self, nvars: int, grade: int, comps=None):
        if not 0 <= grade <= nvars:
            raise ValueError(f"grade {grade} out of range for nvars={nvars}")
        clean: Dict[IndexTuple, Poly] = {}
        if comps:
            for key, poly in comps.items():
                key = tuple(key)
                if len(key) != grade:
                    raise ValueError(f"index tuple {key} has wrong length for grade {grade}")
                if any(not 0 <= i < nvars for i in key):
                    raise ValueError(f"index out of range in {key}")
                if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
                    raise ValueError(f"index tuple {key} not strictly increasing")
                if not isinstance(poly, Poly):
                    poly = Poly.const(nvars, poly)
                if poly.nvars != nvars:
                    raise ValueError("component polynomial has wrong nvars")
                if not poly.is_zero():
                    clean[key] = poly
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, nvars: int, grade: int, comps: dict):
        """Internal constructor for already-normalized component dicts."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "comps", comps)
        return self

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, key: Sequence[int]) -> Poly:
        return self.comps.get(tuple(key), Poly.zero(self.nvars))

    def sorted_comps(self):
        return sorted(self.comps.items())

    def _same_shape(self, other):
        if type(self) is not type(other):
            raise ValueError(f"kind mismatch: {self.kind} vs {getattr(other, 'kind', '?')}")
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (self.nvars, self.grade, self.comps) == \
            (other.nvars, other.grade, other.comps)

    __hash__ = None

    def __add__(self, other):
        self._same_shape(other)
        if self.grade != other.grade:
            raise ValueError("grade mismatch in addition")
        out = dict(self.comps)
        for k, p in other.comps.items():
            _accumulate(out, k, p)
        return type(self)._make(self.nvars, self.grade, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)._make(self.nvars, self.grade,
                                {k: -p for k, p in self.comps.items()})

    def scale(self, scalar):
        return self.map_coeffs(lambda p: p.scale(scalar))

    def poly_scale(self, poly: Poly, trunc: Optional[int] = None):
        return self.map_coeffs(lambda p: p.mul(poly, trunc))

    def map_coeffs(self, fn):
        out = {}
        for k, p in self.comps.items():
            v = fn(p)
            if not v.is_zero():
                out[k] = v
        return type(self)._make(self.nvars, self.grade, out)

    def homogeneous_component(self, d: int):
        return self.map_coeffs(lambda p: p.homogeneous_component(d))

    def truncate(self, max_degree: int):
        return self.map_coeffs(lambda p: p.truncate(max_degree))

    def min_coeff_degree(self):
        degs = [p.min_degree() for p in self.comps.values()]
        return min(degs) if degs else float("inf")

    def as_poly(self) -> Poly:
        """Grade-0 objects are bare scalars."""
        if self.grade != 0:
            raise ValueError("not a grade-0 object")
        return self.comps.get((), Poly.zero(self.nvars))

    def _basis_symbol(self, i: int) -> str:
        raise NotImplementedError

    def __str__(self):
        if not self.comps:
            return "0"
        pieces = []
        for key, poly in self.sorted_comps():
            basis = "^".join(self._basis_symbol(i) for i in key)
            text = poly.to_str()
            if basis:
                text = f"({text}) {basis}"
            pieces.append(text)
        return " + ".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self.nvars}, {self.grade}, {self})"

    def to_json_obj(self) -> dict:
        comps = {}
        for key, poly in self.sorted_comps():
            comps[",".join(str(i + 1) for i in key)] = poly.to_str()
        return {"kind": self.kind, "nvars": self.nvars, "grade": self.grade,
                "components": comps}


class Multivector(_Alternating):
    kind = "vector"

    def _basis_symbol(self, i: int) -> str:
        return f"d/dx{i + 1}"


class DiffForm(_Alternating):
    kind = "form"

    def _basis_symbol(self, i: int) -> str:
        return f"dx{i + 1}"


def graded_from_json(data: dict, kind: Optional[str] = None):
    """Validate and build a Multivector/DiffForm from the JSON schema."""
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    for field in ("nvars", "grade", "components"):
        if field not in data:
            raise InputError(f"missing field {field!r}")
    kind = data.get("kind", kind or "vector")
    if kind not in ("vector", "form"):
        raise InputError(f"unknown kind {kind!r}")
    cls = Multivector if kind == "vector" else DiffForm
    nvars, grade = data["nvars"], data["grade"]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (nvars, grade)):
        raise InputError("nvars and grade must be integers")
    if not 0 <= grade <= nvars:
        raise InputError(f"grade {grade} out of range for nvars={nvars}")
    comps = {}
    raw = data["components"]
    if not isinstance(raw, dict):
        raise InputError("components must be an object")
    for key, text in raw.items():
        parts = [s.strip() for s in key.split(",")] if key.strip() else []
        try:
            indices = tuple(int(s) for s in parts)
        except ValueError:
            raise InputError(f"bad component key {key!r}")
        if len(indices) != grade:
            raise InputError(f"component key {key!r} has wrong length for grade {grade}")
        if any(not 1 <= i <= nvars for i in indices):
            raise InputError(f"component key {key!r} has an index out of range")
        tup = tuple(i - 1 for i in indices)
        if any(tup[t] >= tup[t + 1] for t in range(len(tup) - 1)):
            raise InputError(f"indices not strictly increasing in key {key!r}")
        if not isinstance(text, str):
            raise InputError(f"component {key!r} must be a polynomial string")
        comps[tup] = parse_poly(text, nvars)
    return cls(nvars, grade, comps)


# -- convenience constructors -------------------------------------------------

def coordinate_field(nvars: int, i: int) -> Multivector:
    return Multivector(nvars, 1, {(i,): Poly.one(nvars)})


def coordinate_form(nvars: int, i: int) -> DiffForm:
    return DiffForm(nvars, 1, {(i,): Poly.one(nvars)})


def scalar_form(poly: Poly) -> DiffForm:
    return DiffForm(poly.nvars, 0, {(): poly})


def basis_multivector(nvars: int, key: Sequence[int]) -> Multivector:
    return Multivector(nvars, len(key), {tuple(key): Poly.one(nvars)})


def standard_volume(nvars: int) -> DiffForm:
    return DiffForm(nvars, nvars, {tuple(range(nvars)): Poly.one(nvars)})


# -- exterior algebra ----------------------------------------------------------
#
# The kernel below works on raw component dicts {index tuple: coefficient}
# whose coefficients are Polys or plain ints (a zero coefficient is falsy in
# both), so every sign of the library is decided here.

def _accumulate(out: dict, key, val) -> None:
    """out[key] += val, keeping out free of zero coefficients."""
    s = out.get(key)
    if s is not None:
        val = s + val
    if val:
        out[key] = val
    else:
        out.pop(key, None)


def _wedge_into(out: dict, a: dict, b: dict, trunc: Optional[int] = None) -> dict:
    """Add the wedge product of raw components a and b into out."""
    for I, x in a.items():
        for J, y in b.items():
            ms = merge_sign(I, J)
            if ms is None:
                continue
            key, sign = ms
            prod = x * y if trunc is None else x.mul(y, trunc)
            _accumulate(out, key, prod if sign > 0 else -prod)
    return out


def _prefix_minors(vectors, keys, one, trunc: Optional[int] = None) -> Dict[IndexTuple, dict]:
    """Raw wedge vectors[K[0]] ^ ... ^ vectors[K[-1]] for each key K.

    vectors[i] holds raw grade-1 components and `one` is the unit
    coefficient. Each product extends the one of its longest prefix, so a
    shared index prefix is wedged once; the table also holds the prefixes.
    """
    minors: Dict[IndexTuple, dict] = {(): {(): one}}
    for K in keys:
        for t in range(1, len(K) + 1):
            if K[:t] not in minors:
                minors[K[:t]] = _wedge_into({}, minors[K[:t - 1]], vectors[K[t - 1]], trunc)
    return minors


def _contract_single(comps: dict, j: int) -> dict:
    """Leading-slot single contraction along direction j on raw components.

    Distinct tuples containing j stay distinct once j is removed, so nothing
    needs accumulating.
    """
    out = {}
    for K, c in comps.items():
        if j in K:
            t = K.index(j)
            out[K[:t] + K[t + 1:]] = c if t % 2 == 0 else -c
    return out


def _contract(comps: dict, I: IndexTuple) -> dict:
    """i_{e_I} on raw components, lowest index of I first."""
    for j in I:
        comps = _contract_single(comps, j)
        if not comps:
            break
    return comps


@functools.cache
def _index_table(n: int, p: int):
    """(contract, lifts): the index maps of constant p-forms in n variables.

    contract[A], for each (p-1)-tuple A in lexicographic order, maps each
    p-tuple K containing A to (i, sign) with i_A dx_K = sign dx_i. lifts[0]
    (grade p) and lifts[1] (grade p + 1) map each tuple K of that grade to
    ((i, slot, sign), ...), one entry per i outside K, with dx_i ^ dx_K =
    sign dx_S and slot the index of S among the increasing tuples of the next
    grade in lexicographic order. Both are read off `_contract` and
    `merge_sign`, once per (n, p); callers must not change them.
    """
    keys = list(itertools.combinations(range(n), p - 1))
    forms = list(itertools.combinations(range(n), p))
    contract = {A: {K: (i, s) for K in forms for (i,), s in _contract({K: 1}, A).items()}
                for A in keys}
    lifts = []
    for g in (p, p + 1):
        slot = {S: t for t, S in enumerate(itertools.combinations(range(n), g + 1))}
        lifts.append({K: tuple((i, slot[S], s) for i in range(n)
                               if (ms := merge_sign((i,), K)) for S, s in (ms,))
                      for K in itertools.combinations(range(n), g)})
    return contract, lifts


def _integer_parts(obj) -> Dict[Tuple[int, ...], dict]:
    """Split obj = (1/D) sum_m x^m w_m into integer constant components w_m.

    Keys are exponent tuples m and D is the lcm of the components'
    denominators, so w_m is D times the constant form that x^m multiplies.
    """
    D = math.lcm(*[c.den for c in obj.comps.values()])
    parts: Dict[Tuple[int, ...], dict] = {}
    for K, c in obj.comps.items():
        f = D // c.den
        for m, n in c.num.items():
            parts.setdefault(m, {})[K] = n * f
    return parts


def wedge(a, b, trunc: Optional[int] = None):
    """Wedge product of two objects of the same kind.

    When the grades sum above nvars the product is identically zero and is
    returned as the zero object of top grade.
    """
    a._same_shape(b)
    grade = a.grade + b.grade
    if grade > a.nvars:
        return type(a)(a.nvars, a.nvars, {})
    return type(a)._make(a.nvars, grade, _wedge_into({}, a.comps, b.comps, trunc))


def wedge_all(objs, trunc: Optional[int] = None):
    result = objs[0]
    for o in objs[1:]:
        result = wedge(result, o, trunc)
    return result


def interior(A: Multivector, omega: DiffForm, trunc: Optional[int] = None) -> DiffForm:
    """Interior product i_A omega, contracting the lowest index of A first."""
    if A.nvars != omega.nvars:
        raise ValueError("nvars mismatch")
    if A.grade > omega.grade:
        raise ValueError(
            f"cannot contract a grade-{A.grade} multivector into a grade-{omega.grade} form")
    total: Dict[IndexTuple, Poly] = {}
    for I, a in A.comps.items():
        for K, c in _contract(omega.comps, I).items():
            _accumulate(total, K, a.mul(c, trunc))
    return DiffForm._make(A.nvars, omega.grade - A.grade, total)


def contract_oneform(beta: DiffForm, T: Multivector, trunc: Optional[int] = None) -> Multivector:
    """Contraction i_beta T of a 1-form into a multivector (leading slot)."""
    if beta.grade != 1:
        raise ValueError("contract_oneform needs a 1-form")
    if beta.nvars != T.nvars:
        raise ValueError("nvars mismatch")
    if T.grade < 1:
        raise ValueError("cannot contract into a grade-0 multivector")
    out: Dict[IndexTuple, Poly] = {}
    for (j,), b in beta.comps.items():
        for K, c in _contract_single(T.comps, j).items():
            _accumulate(out, K, b.mul(c, trunc))
    return Multivector._make(T.nvars, T.grade - 1, out)


def dform(omega: DiffForm, var_indices: Optional[Sequence[int]] = None) -> DiffForm:
    """Exterior derivative; with var_indices, the partial derivative d' in
    those variables only (the others ride along as parameters)."""
    n = omega.nvars
    if omega.grade >= n:
        raise PreconditionError("exterior derivative of a top-grade form")
    idx = range(n) if var_indices is None else var_indices
    out: Dict[IndexTuple, Poly] = {}
    for K, c in omega.comps.items():
        for j in idx:
            dc = c.partial(j)
            if dc.is_zero():
                continue
            ms = merge_sign((j,), K)
            if ms is not None:
                key, sign = ms
                _accumulate(out, key, dc if sign > 0 else -dc)
    return DiffForm._make(n, omega.grade + 1, out)


def lie_bracket(X: Multivector, Y: Multivector, trunc: Optional[int] = None) -> Multivector:
    """[X, Y]_k = X(Y_k) - Y(X_k), cut at trunc inside the products."""
    if X.grade != 1 or Y.grade != 1:
        raise ValueError("lie_bracket needs two grade-1 fields")
    if X.nvars != Y.nvars:
        raise ValueError("nvars mismatch")
    return Multivector(X.nvars, 1, {(k,): apply_vector(X, Y.component((k,)), trunc)
                                    - apply_vector(Y, X.component((k,)), trunc)
                                    for k in range(X.nvars)})


def apply_vector(X: Multivector, f: Poly, trunc: Optional[int] = None) -> Poly:
    """Derivation X(f), cut at trunc inside the products."""
    if X.grade != 1:
        raise ValueError("apply_vector needs a grade-1 field")
    acc = Poly.zero(X.nvars)
    for (i,), xi in X.comps.items():
        acc = acc + xi.mul(f.partial(i), trunc)
    return acc


def lie_derivative(X: Multivector, T: Multivector) -> Multivector:
    """Lie derivative L_X T of a multivector field along a vector field."""
    if X.grade != 1:
        raise ValueError("lie_derivative needs a grade-1 direction field")
    if X.nvars != T.nvars:
        raise ValueError("nvars mismatch")
    out: Dict[IndexTuple, Poly] = {}
    for I, c in T.comps.items():
        _accumulate(out, I, apply_vector(X, c))
        # L_X d/dx_j = -sum_k (dX^k/dx_j) d/dx_k
        for t, j in enumerate(I):
            for (k,), xk in X.comps.items():
                coeff = xk.partial(j)
                if coeff.is_zero():
                    continue
                replaced = list(I)
                replaced[t] = k
                ss = sort_sign(replaced)
                if ss is None:
                    continue
                key, sign = ss
                term = c.mul(coeff)
                _accumulate(out, key, -term if sign > 0 else term)
    return Multivector._make(X.nvars, T.grade, out)


# -- volume duality -------------------------------------------------------------
#
# A Nambu tensor P and its co-Nambu form are dual through the standard volume
# form: omega = i_P (dx1^...^dxn). Whether omega is co-Nambu does not depend
# on the volume form, and i_P (c * vol) = i_{c P} vol for a constant c, so
# the standard one is the only one the library uses.

@functools.cache
def duality_sign(nvars: int, I: IndexTuple) -> int:
    """Sign s with i_{e_I}(dx_1^...^dx_n) = s * dx_complement(I)."""
    (sign,) = _contract({tuple(range(nvars)): 1}, I).values()
    return sign


def tensor_to_form(P: Multivector) -> DiffForm:
    """omega = i_P (dx1^...^dxn), the co-Nambu form dual to P: the component
    at I moves to the complement of I, times duality_sign(n, I)."""
    n = P.nvars
    out: Dict[IndexTuple, Poly] = {}
    for I, c in P.comps.items():
        out[tuple(i for i in range(n) if i not in I)] = c if duality_sign(n, I) > 0 else -c
    return DiffForm._make(n, n - P.grade, out)


def form_to_tensor(omega: DiffForm) -> Multivector:
    """Inverse of tensor_to_form."""
    n = omega.nvars
    out: Dict[IndexTuple, Poly] = {}
    for K, c in omega.comps.items():
        I = tuple(i for i in range(n) if i not in K)
        out[I] = c if duality_sign(n, I) > 0 else -c
    return Multivector._make(n, n - omega.grade, out)


def linear_rows(comps: dict, n: int) -> Tuple[dict, int]:
    """The linear parts of the polynomials comps[key] as integer rows over one
    denominator: ({key: row}, den), row[i] / den the coefficient of x_i.

    den is the lcm of the polynomials' denominators, so the rows are in
    lowest terms when every polynomial is linear.
    """
    den = math.lcm(*[c.den for c in comps.values()])
    rows = {}
    for key, c in comps.items():
        row = rows[key] = [0] * n
        f = den // c.den
        for exps, v in c.num.items():
            if sum(exps) == 1:
                row[exps.index(1)] = v * f
    return rows, den


def field_matrix(X: Multivector, idx: Sequence[int]) -> RatMatrix:
    """The linear matrix b of the vector field X on the variables idx.

    b[a][c] is the coefficient of x_{idx[a]} in the d/dx_{idx[c]} component,
    so X^(1) = sum b^i_j x_i d_j. Components and linear terms off idx are
    not read, and callers check them.
    """
    rows, den = linear_rows(X.comps, X.nvars)
    cols = [rows.get((j,)) for j in idx]
    return RatMatrix._make([[col[i] if col else 0 for col in cols] for i in idx], den)


# -- formal coordinate changes ----------------------------------------------------

class FormalMap:
    """Polynomial coordinate change fixing the origin, truncated at trunc.

    Components express the target coordinates in terms of the source ones;
    trunc records the degree through which they are trusted (None: exact).
    Precision is passed, not carried: compose and inverse take it as an
    argument, and compose without one is exact.
    """

    __slots__ = ("nvars", "comps", "trunc")

    def __init__(self, comps: Sequence[Poly], trunc: Optional[int] = None):
        comps = tuple(comps)
        if not comps:
            raise ValueError("empty map")
        nvars = comps[0].nvars
        if len(comps) != nvars:
            raise ValueError("a coordinate change needs one component per variable")
        for c in comps:
            if c.nvars != nvars:
                raise ValueError("component nvars mismatch")
            if c.constant_term() != 0:
                raise PreconditionError("coordinate changes must fix the origin")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "trunc", trunc)
        if self.linear_matrix().det() == 0:
            raise PreconditionError("linear part of the coordinate change is singular")

    def __setattr__(self, name, value):
        raise AttributeError("FormalMap is immutable")

    @staticmethod
    def identity(nvars: int) -> "FormalMap":
        return FormalMap([Poly.variable(nvars, i) for i in range(nvars)])

    @staticmethod
    def from_matrix(M: RatMatrix) -> "FormalMap":
        n = M.rows
        if M.cols != n:
            raise ValueError("matrix must be square")
        units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
        return FormalMap([Poly._make(n, {units[j]: v for j, v in enumerate(row) if v}, M.den)
                          for row in M.num])

    def linear_matrix(self) -> RatMatrix:
        """The matrix of the linear part, read off the numerators."""
        rows, den = linear_rows(dict(enumerate(self.comps)), self.nvars)
        return RatMatrix._make(list(rows.values()), den)

    def is_linear(self) -> bool:
        return all(c.degree <= 1 for c in self.comps)

    def is_identity(self) -> bool:
        return all(c == Poly.variable(self.nvars, i) for i, c in enumerate(self.comps))

    def compose(self, inner: "FormalMap", trunc: Optional[int] = None) -> "FormalMap":
        """self after inner, self(inner(x)), cut at trunc (exact when None)."""
        if self.nvars != inner.nvars:
            raise ValueError("nvars mismatch")
        return FormalMap(substitute_many(self.comps, inner.comps, trunc), trunc)

    def inverse(self, trunc: Optional[int] = None) -> "FormalMap":
        """Formal inverse through the given degree (exact for linear maps).

        A graded fixed point from psi = L^-1 x, L the linear part: with psi
        right below degree k, the degree-k part of self o psi is that of
        self o psi_{<k} plus L psi_k, so step k substitutes cut at k and
        corrects only psi's degree-k part, by L^-1 times that residual. Each
        substitution of a step shares one power table (`substitute_many`).
        """
        Linv = self.linear_matrix().inverse()
        if self.is_linear():
            return FormalMap.from_matrix(Linv)
        if trunc is None:
            raise PreconditionError("nonlinear inverse needs a truncation degree")
        lin = psi = FormalMap.from_matrix(Linv).comps
        for k in range(2, trunc + 1):
            err = [c.homogeneous_component(k) for c in substitute_many(self.comps, psi, k)]
            psi = [p - v for p, v in zip(psi, substitute_many(lin, err))]
        return FormalMap(psi, trunc)


def formal_map_to_json(phi: FormalMap) -> dict:
    return {"nvars": phi.nvars,
            "components": [c.to_str() for c in phi.comps],
            "trunc": phi.trunc}


def formal_map_from_json(data: dict) -> FormalMap:
    if not isinstance(data, dict) or "nvars" not in data or "components" not in data:
        raise InputError("formal map JSON needs nvars and components")
    n = data["nvars"]
    comps = data["components"]
    if not isinstance(comps, list) or len(comps) != n:
        raise InputError("formal map needs one component per variable")
    return FormalMap([parse_poly(c, n) for c in comps], data.get("trunc"))


# -- transport of forms and tensors ------------------------------------------------

def _read_at(obj, args: Sequence[Poly], N: Optional[int] = None):
    """obj with each coefficient c read at args, c o args cut at N (one power table)."""
    return type(obj)._make(obj.nvars, obj.grade, {
        K: v for K, v in zip(obj.comps, substitute_many(obj.comps.values(), args, N)) if v})


def _minor_trunc(obj, N: Optional[int]) -> Optional[int]:
    """The degree through which minors are read when each is multiplied by a
    coefficient of obj and cut at N: every coefficient has degree at least
    low, so N - low is exact."""
    if N is None or obj.is_zero():
        return N
    return N - obj.min_coeff_degree()


def pullback_form(omega: DiffForm, phi: FormalMap, N: Optional[int] = None) -> DiffForm:
    """Substitute x -> phi(x) in coefficients and dx_i -> d(phi_i).

    With N the coefficients are truncated at that degree; N=None computes the
    exact polynomial pullback (always finite, since polynomials compose).
    """
    if omega.nvars != phi.nvars:
        raise ValueError("nvars mismatch")
    n = omega.nvars
    dphi = [{(j,): d for j in range(n) if (d := c.partial(j))} for c in phi.comps]
    read = _read_at(omega, phi.comps, N)
    coeffs = read.comps
    minors = _prefix_minors(dphi, coeffs, Poly.one(n), _minor_trunc(read, N))
    out: Dict[IndexTuple, Poly] = {}
    for K, coeff in coeffs.items():
        for L, v in minors[K].items():
            _accumulate(out, L, v.mul(coeff, N))
    return DiffForm._make(n, omega.grade, out)


def pushforward_tensor(P: Multivector, phi: FormalMap) -> Multivector:
    """Transport P contravariantly along a linear map phi, exactly:
    phi_* P = (Lambda Dphi . P) o phi^-1, and Dphi is constant, so only P's
    coefficients are read at phi^-1 before `_jacobian_push`."""
    if P.nvars != phi.nvars:
        raise ValueError("nvars mismatch")
    if not phi.is_linear():
        raise PreconditionError("pushforward_tensor needs a linear map")
    return _jacobian_push(_read_at(P, phi.inverse().comps), phi)


def _jacobian_push(P: Multivector, phi: FormalMap, N: Optional[int] = None) -> Multivector:
    """Lambda(Dphi) . P, read at x: each d_i becomes the Jacobian column
    sum_k (d_i phi_k) d_k, and wedges of columns (shared along index
    prefixes) and products are cut at N."""
    n = P.nvars
    columns = [{(k,): d for k, c in enumerate(phi.comps) if (d := c.partial(i))}
               for i in range(n)]
    minors = _prefix_minors(columns, P.comps, Poly.one(n), _minor_trunc(P, N))
    out: Dict[IndexTuple, Poly] = {}
    for I, coeff in P.comps.items():
        for K, v in minors[I].items():
            _accumulate(out, K, coeff.mul(v, N))
    return Multivector._make(n, P.grade, out)


# -- block decomposition and subspace plumbing --------------------------------------

def prefix_blocks(obj, k: int):
    """Split by intersection with the first k indices.

    Since {0..k-1} are the smallest indices, every component tuple is
    T ++ rest with T a prefix, so no signs appear. Returns a dict mapping
    each T (tuple) to an object of grade grade-|T| holding the rest.
    """
    pieces: Dict[IndexTuple, Dict[IndexTuple, Poly]] = {}
    for K, c in obj.comps.items():
        T = tuple(i for i in K if i < k)
        rest = tuple(i for i in K if i >= k)
        pieces.setdefault(T, {})[rest] = c
    return {T: type(obj)(obj.nvars, obj.grade - len(T), comps)
            for T, comps in pieces.items()}


def restrict(obj, indices: Sequence[int]):
    """Re-index onto a variable subset; components and coefficients must live there."""
    indices = list(indices)
    pos = {v: i for i, v in enumerate(indices)}
    m = len(indices)
    keep = set(indices)
    comps = {}
    for K, c in obj.comps.items():
        if not set(K) <= keep:
            raise ValueError(f"component {K} leaves the subspace")
        comps[tuple(pos[i] for i in K)] = _project_poly(c, indices)
    return type(obj)(m, obj.grade, comps)


def _project_poly(p: Poly, indices: Sequence[int]) -> Poly:
    terms = {}
    for exps, c in p.num.items():
        for j, e in enumerate(exps):
            if e and j not in indices:
                raise ValueError("coefficient depends on a variable outside the subspace")
        terms[tuple(exps[i] for i in indices)] = c
    return Poly._make(len(indices), terms, p.den)


def embed_poly(p: Poly, indices: Sequence[int], nvars: int) -> Poly:
    terms = {}
    for exps, c in p.num.items():
        full = [0] * nvars
        for k, e in zip(indices, exps):
            full[k] = e
        terms[tuple(full)] = c
    return Poly._make(nvars, terms, p.den)


def embed(obj, indices: Sequence[int], nvars: int):
    comps = {}
    for K, c in obj.comps.items():
        key = tuple(sorted(indices[i] for i in K))
        comps[key] = embed_poly(c, indices, nvars)
    return type(obj)(nvars, obj.grade, comps)


def extend_map(phi: FormalMap, indices: Sequence[int], nvars: int) -> FormalMap:
    """Extend a map on a variable subset by the identity elsewhere."""
    comps = [Poly.variable(nvars, i) for i in range(nvars)]
    for slot, i in enumerate(indices):
        comps[i] = embed_poly(phi.comps[slot], indices, nvars)
    return FormalMap(comps, phi.trunc)
