"""Nambu/co-Nambu verification and the fundamental-identity oracle.

A p-form omega of co-order q = n - p >= 3 is co-Nambu when, for every
constant basis (p-1)-vector A,

    i_A omega ^ omega  = 0      (decomposability)
    i_A omega ^ domega = 0      (integrability)

Constant basis multivectors suffice: both equations are linear over the
polynomial coefficients of A, so they hold for all (p-1)-vector fields as
soon as they hold on the basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .polyalg import Poly, PreconditionError
from .exterior import (
    DiffForm,
    Multivector,
    basis_multivector,
    contract_oneform,
    dform,
    interior,
    tensor_to_form,
    wedge,
)


@dataclass
class Witness:
    A: Tuple[int, ...]          # 0-based index tuple of the failing basis multivector
    equation: int               # 3 (decomposability) or 4 (integrability)
    residual: DiffForm

    def to_json_obj(self):
        return {"A": [i + 1 for i in self.A],
                "equation": self.equation,
                "residual": self.residual.to_json_obj()}


@dataclass
class ConambuVerdict:
    passed: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        assert self.passed == (self.witness is None)

    def to_json_obj(self):
        return {"passed": self.passed,
                "witness": self.witness.to_json_obj() if self.witness else None}


def _require_order(q: int):
    if q < 3:
        raise PreconditionError(
            f"order q={q} is out of scope: the decomposability/integrability "
            "characterization holds for q >= 3 (the Poisson case q = 2 is excluded)")


def is_conambu(omega: DiffForm) -> ConambuVerdict:
    """Check the two co-Nambu equations over all constant basis (p-1)-vectors.

    Returns the first failure in canonical (lexicographic) tuple order.
    For p = 1 the only A is the scalar 1 and the check degenerates to the
    classical integrability condition omega ^ domega = 0. Homogeneous linear
    forms take an integer fast path (coefficients cleared of denominators).
    """
    n, p = omega.nvars, omega.grade
    if p < 1:
        raise PreconditionError("a co-Nambu form must have grade >= 1")
    _require_order(n - p)
    if _is_homogeneous_linear(omega):
        fail = _first_failure_linear(omega)
    else:
        fail = _first_failure_generic(omega)
    if fail is None:
        return ConambuVerdict(True)
    key, eq = fail
    A = basis_multivector(n, key)
    ia = interior(A, omega)
    residual = wedge(ia, omega) if eq == 3 else wedge(ia, dform(omega))
    return ConambuVerdict(False, Witness(key, eq, residual))


def _first_failure_generic(omega: DiffForm):
    n, p = omega.nvars, omega.grade
    dom = dform(omega)
    for key in itertools.combinations(range(n), p - 1):
        A = basis_multivector(n, key)
        ia = interior(A, omega)
        if not wedge(ia, omega).is_zero():
            return key, 3
        if not wedge(ia, dom).is_zero():
            return key, 4
    return None


def _is_homogeneous_linear(omega: DiffForm) -> bool:
    return all(sum(exps) == 1 for c in omega.comps.values() for exps in c.terms)


def _wedge_int(a: dict, b: dict) -> dict:
    from .exterior import merge_sign
    out: dict = {}
    get = out.get
    for I, x in a.items():
        for J, y in b.items():
            ms = merge_sign(I, J)
            if ms is None:
                continue
            key, sg = ms
            out[key] = get(key, 0) + sg * x * y
    return out


def _contract_int(comps: dict, j: int) -> dict:
    out: dict = {}
    for K, c in comps.items():
        if j not in K:
            continue
        t = K.index(j)
        key = K[:t] + K[t + 1:]
        out[key] = out.get(key, 0) + (c if t % 2 == 0 else -c)
    return {k: v for k, v in out.items() if v}


def linear_constant_parts(omega: DiffForm):
    """Integer constant forms w_j with omega = sum_j x_j w_j (up to one lcm factor)."""
    import math

    n = omega.nvars
    denom = 1
    for c in omega.comps.values():
        for v in c.terms.values():
            denom = math.lcm(denom, v.denominator)
    parts = [dict() for _ in range(n)]
    for K, c in omega.comps.items():
        for exps, v in c.terms.items():
            j = exps.index(1)
            parts[j][K] = int(v * denom)
    return parts, denom


def _first_failure_linear(omega: DiffForm):
    n, p = omega.nvars, omega.grade
    parts, _ = linear_constant_parts(omega)
    from .exterior import merge_sign
    dom: dict = {}
    for j, wj in enumerate(parts):
        for K, v in wj.items():
            ms = merge_sign((j,), K)
            if ms is None:
                continue
            key, sg = ms
            dom[key] = dom.get(key, 0) + sg * v
    dom = {k: v for k, v in dom.items() if v}
    nonzero = [j for j in range(n) if parts[j]]
    for akey in itertools.combinations(range(n), p - 1):
        ia = {}
        for j in nonzero:
            cur = parts[j]
            for a in akey:
                cur = _contract_int(cur, a)
                if not cur:
                    break
            if cur:
                ia[j] = cur
        # equation 3: the x_j x_k coefficient is ia[j]^w_k (+ ia[k]^w_j for j<k)
        for j in sorted(ia):
            for k in nonzero:
                if k < j:
                    continue
                acc = _wedge_int(ia[j], parts[k])
                if k != j and k in ia:
                    for key, v in _wedge_int(ia[k], parts[j]).items():
                        acc[key] = acc.get(key, 0) + v
                if any(acc.values()):
                    return akey, 3
        # equation 4: the x_j coefficient is ia[j]^domega
        if dom:
            for j in sorted(ia):
                if any(_wedge_int(ia[j], dom).values()):
                    return akey, 4
    return None


def is_nambu(P: Multivector, Omega: Optional[DiffForm] = None) -> ConambuVerdict:
    """Nambu check through the volume duality omega = i_P Omega."""
    _require_order(P.grade)
    return is_conambu(tensor_to_form(P, Omega))


# ---------------------------------------------------------------------------
# Hamiltonian vector fields and the bracket
# ---------------------------------------------------------------------------

def _differential(f: Poly) -> DiffForm:
    n = f.nvars
    return DiffForm(n, 1, {(j,): f.partial(j) for j in range(n)
                           if not f.partial(j).is_zero()})


def hamiltonian_vf(P: Multivector, fs: Sequence[Poly]) -> Multivector:
    """The derivation g -> P(df_1, ..., df_{q-1}, dg) as a vector field."""
    if len(fs) != P.grade - 1:
        raise ValueError(
            f"need {P.grade - 1} functions for a grade-{P.grade} tensor, got {len(fs)}")
    current = P
    for f in fs:
        current = contract_oneform(_differential(f), current)
    return current


def nambu_bracket(P: Multivector, gs: Sequence[Poly]) -> Poly:
    """Full bracket {g_1, ..., g_q} = P(dg_1, ..., dg_q)."""
    if len(gs) != P.grade:
        raise ValueError(f"bracket of a grade-{P.grade} tensor takes {P.grade} arguments")
    current = P
    for g in gs:
        current = contract_oneform(_differential(g), current)
    return current.as_poly()


def fundamental_identity_residual(P: Multivector, fs: Sequence[Poly],
                                  gs: Sequence[Poly]) -> Poly:
    """Left minus right side of the Jacobi (fundamental) identity.

    X_f({g_1,...,g_q}) - sum_i {g_1,...,X_f(g_i),...,g_q}, evaluated
    symbolically; the zero polynomial iff the identity holds for these
    arguments. Serves as the independent oracle for is_nambu.
    """
    q = P.grade
    if len(fs) != q - 1 or len(gs) != q:
        raise ValueError("arity mismatch in fundamental identity")
    X = hamiltonian_vf(P, fs)

    def xf(h: Poly) -> Poly:
        acc = Poly.zero(P.nvars)
        for (i,), xi in X.comps.items():
            acc = acc + xi.mul(h.partial(i))
        return acc

    lhs = xf(nambu_bracket(P, gs))
    rhs = Poly.zero(P.nvars)
    for i in range(q):
        args = list(gs)
        args[i] = xf(gs[i])
        rhs = rhs + nambu_bracket(P, args)
    return lhs - rhs


# ---------------------------------------------------------------------------
# bounded refutation search (the artifact's own oracle device)
# ---------------------------------------------------------------------------

def monomials_up_to(nvars: int, max_degree: int) -> List[Poly]:
    """All monomials of total degree 0..max_degree in lexicographic order."""
    out = []
    for d in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            out.append(Poly.monomial(nvars, exps))
    return out


def search_identity_violation(P: Multivector, max_degree: int = 2,
                              limit: Optional[int] = None):
    """Search monomial argument tuples for a nonzero fundamental-identity residual.

    Arguments run over strictly increasing combinations of nonconstant
    monomials in graded-lexicographic order (the residual is antisymmetric in
    fs and in gs separately and vanishes identically when any argument is
    constant, so nothing is lost). The Hamiltonian field of each fs is hoisted
    out of the inner loop and fs with a vanishing field are pruned, since the
    residual is then identically zero. Returns (fs, gs, residual) for the
    first violation, or None if the bounded search is exhausted.
    """
    q = P.grade
    n = P.nvars
    mons = [m for m in monomials_up_to(n, max_degree) if m.degree >= 1]
    count = 0
    for fs in itertools.combinations(mons, q - 1):
        X = hamiltonian_vf(P, fs)
        if X.is_zero():
            continue

        def xf(h: Poly) -> Poly:
            acc = Poly.zero(n)
            for (i,), xi in X.comps.items():
                acc = acc + xi.mul(h.partial(i))
            return acc

        images = [xf(m) for m in mons]
        for gs_idx in itertools.combinations(range(len(mons)), q):
            gs = [mons[i] for i in gs_idx]
            lhs = xf(nambu_bracket(P, gs))
            residual = lhs
            for slot, i in enumerate(gs_idx):
                if images[i].is_zero():
                    continue
                args = list(gs)
                args[slot] = images[i]
                residual = residual - nambu_bracket(P, args)
            if not residual.is_zero():
                return tuple(fs), tuple(gs), residual
            count += 1
            if limit is not None and count >= limit:
                return None
    return None
