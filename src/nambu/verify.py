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

from .polyalg import Poly, PreconditionError, _monomials_of_degree
from .exterior import (
    DiffForm,
    Multivector,
    _index_table,
    _integer_parts,
    _wedge_into,
    apply_vector,
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

    Returns the first failure in canonical (lexicographic) tuple order,
    equation 3 before equation 4 for each A. For p = 1 the only A is the
    scalar 1 and the check degenerates to the classical integrability
    condition omega ^ domega = 0.
    """
    n, p = omega.nvars, omega.grade
    if p < 1:
        raise PreconditionError("a co-Nambu form must have grade >= 1")
    _require_order(n - p)
    fail = _first_failure(omega)
    if fail is None:
        return ConambuVerdict(True)
    key, eq = fail
    A = basis_multivector(n, key)
    ia = interior(A, omega)
    residual = wedge(ia, omega) if eq == 3 else wedge(ia, dform(omega))
    return ConambuVerdict(False, Witness(key, eq, residual))


def _first_failure(omega: DiffForm):
    """(A, equation) of the first failure, or None.

    With omega = (1/D) sum_m x^m w_m split into integer constant forms, the
    x^M coefficient of i_A omega ^ omega is D^-2 times the sum of
    i_A w_m ^ w_m' over m + m' = M, and likewise against domega = sum_m
    x^m v_m. As i_A w_m = sum_i c_i dx_i, that is sum_i c_i (dx_i ^ w_m').

    Each lifted form dx_i ^ w_m' is packed into one integer, its component
    at slot s (`_index_table`) times 2^(B s), so a key A costs one integer
    multiply-add per (m, m', i), and the packed x^M coefficient is
    sum_s C_s 2^(B s) with C_s the true component at slot s. Each C_s is a
    sum of at most |parts| * n products c_i * u (m fixes m' = M - m, and i
    fixes the other index tuple), with c and u components of the w_m and
    v_m, so |C_s| <= b = |parts| * n * max|c| * max|u|. B is the least
    width with 2^B > b. Then the packed sum is 0 exactly when every C_s is:
    if s0 is the lowest slot with C_s0 != 0, the sum is 2^(B s0) (C_s0 +
    2^B R) for an integer R, and 0 < |C_s0| < 2^B, so C_s0 is no multiple
    of 2^B and cannot cancel. Monomials are coded the same way, m as
    sum_j m_j base^j with base above every exponent of m + m', so the code
    of M is the sum of the codes of m and m'.
    """
    n, p = omega.nvars, omega.grade
    parts = _integer_parts(omega)
    if not parts:
        return None
    dparts: dict = {}
    for m, w in parts.items():
        for j, e in enumerate(m):
            if e:
                lower = m[:j] + (e - 1,) + m[j + 1:]
                _wedge_into(dparts.setdefault(lower, {}), {(j,): e}, w)
    contract, lifts = _index_table(n, p)
    maxc = max(abs(v) for w in parts.values() for v in w.values())
    maxu = max([maxc] + [abs(v) for w in dparts.values() for v in w.values()])
    B = (len(parts) * n * maxc * maxu).bit_length()
    base = 2 * max(map(max, parts)) + 1

    def code(m):
        return sum(e * base ** j for j, e in enumerate(m))

    # per equation: (code of m', [packed dx_i ^ w_m' for each i]) for each m'
    lifted = []
    for rhs, lift in zip((parts, dparts), lifts):
        packed = []
        for m2, w in rhs.items():
            acc = [0] * n
            for K, v in w.items():
                for i, slot, s in lift[K]:
                    acc[i] += (v if s > 0 else -v) << (B * slot)
            packed.append((code(m2), acc))
        lifted.append(packed)
    coded = [(code(m), w) for m, w in parts.items()]
    for key, cmap in contract.items():
        contracted = []
        for cm, w in coded:
            c = [(i, v if s > 0 else -v) for K, v in w.items()
                 if (hit := cmap.get(K)) for i, s in (hit,)]
            if c:
                contracted.append((cm, c))
        for eq, packed in zip((3, 4), lifted):
            coeffs: dict = {}
            for cm, c in contracted:
                for c2, acc in packed:
                    total = coeffs.get(cm + c2, 0)
                    for i, ci in c:
                        total += ci * acc[i]
                    coeffs[cm + c2] = total
            if any(coeffs.values()):
                return key, eq
    return None


def is_nambu(P: Multivector) -> ConambuVerdict:
    """Nambu check through the volume duality omega = i_P (dx1^...^dxn); the
    verdict does not depend on the volume form."""
    _require_order(P.grade)
    return is_conambu(tensor_to_form(P))


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
    lhs = apply_vector(X, nambu_bracket(P, gs))
    rhs = Poly.zero(P.nvars)
    for i in range(q):
        args = list(gs)
        args[i] = apply_vector(X, gs[i])
        rhs = rhs + nambu_bracket(P, args)
    return lhs - rhs


# ---------------------------------------------------------------------------
# bounded refutation search (the artifact's own oracle device)
# ---------------------------------------------------------------------------

def monomials_up_to(nvars: int, max_degree: int) -> List[Poly]:
    """All monomials of total degree 0..max_degree, degree by degree."""
    return [Poly.monomial(nvars, exps) for d in range(max_degree + 1)
            for exps in _monomials_of_degree(nvars, d)]


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
        images = [apply_vector(X, m) for m in mons]
        for gs_idx in itertools.combinations(range(len(mons)), q):
            gs = [mons[i] for i in gs_idx]
            lhs = apply_vector(X, nambu_bracket(P, gs))
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
