"""Finite-order formal normalization of Nambu structures.

Everything here is graded: each operation works degree by degree on exact
polynomial data, with one rational linear solve per homogeneous degree and
all free variables pinned to zero (deterministic output). Solves that turn
out inconsistent raise SolveInconsistencyError with the failing degree; no
result is ever patched numerically.

Inert variables ride in the right-hand side: the divisions treat the
variables off the active block as parameters (Saito's de Rham lemma with
parameters), so each degree is one solve per active degree, with columns over
active monomials and a Poly in the inert variables per row.

Transport: the passes move objects by derivations and invert no map, and
their contracts are checked along the map: Phi fixes 0 with an invertible
linear part, so Phi_* P = Q through N exactly when Lambda(DPhi) . P = Q o Phi
through N (_check_push). Type 2 prelinearization moves fields that commute
with V_i by slice transport, Poincare solves the conjugacy equation
X(Phi) = L o Phi, and the Type 1 multiplier step never moves a tensor:
L_X Pi_1 = f_r Pi_1 keeps every pushed tensor a multiple g * Pi_1, so each
time-1 flow acts on g alone by the Lie series exp(-(X + f_r)) (Deprit 1969).

Degree bookkeeping: a coefficient-degree-d vector field moves degree-d
structure. Each object carries the degree through which it is trusted, and
every operation is truncated there: a bracket loses one degree, a division by
a field with a linear leading part one more, and a transport solve along
d_i + (higher terms) gains one back. Type 2 prelinearization has S = q - 1
frame slots and one rule: slot i (i = 0..S-1) works at D = N + S - 1 - i.
The frame decomposition runs once, at N + S, so X is trusted through N + S
and each frame field V_j, a quotient by X, through N + S - 1. In slot i,
[V_i, X] is trusted through D, as it loses a degree of X but none of V_i
(X vanishes at 0); so g, gX, f / g and the flow-box coordinates u are cut
at D, and so is the pushed X: X(u_k) stays exact through D, as X vanishes
at 0. [V_i, V_j] loses a degree of both, so the later frame fields are
corrected at D - 1, and pushed at D - 1 too: V_j(u_k) is exact through
D - 1, as d_j u_k is. That is the next slot's D, and the last slot works at
N: one pass is trusted through N, and an inconsistency inside a trusted
window is an obstruction of the input. Contracts are checked at the user's
N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .polyalg import (
    GradedSystem,
    Poly,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
    eigen_data,
    substitute_many,
)
from .exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    _accumulate,
    _contract_single,
    _jacobian_push,
    apply_vector,
    coordinate_field,
    coordinate_form,
    dform,
    field_matrix,
    lie_bracket,
    lie_derivative,
    merge_sign,
    prefix_blocks,
    pullback_form,
    scalar_form,
    wedge,
    wedge_all,
)
from .linclass import normal_form_generator


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass
class GradedSolveRecord:
    degree: int
    rows: int
    cols: int
    solved: bool
    note: str = ""


@dataclass
class GradedSolveReport:
    records: List[GradedSolveRecord] = field(default_factory=list)

    def solve(self, system, degree: int, note: str, message: str, residual=None) -> list:
        """Solve and record system; raise SolveInconsistencyError(message)
        with degree and residual when it is inconsistent."""
        res = system.solve()
        self.records.append(GradedSolveRecord(degree, len(system.rows), system.ncols,
                                              res.consistent, note))
        if not res.consistent:
            raise SolveInconsistencyError(message, degree=degree, residual=residual)
        return res.solution

    def to_json_obj(self):
        return [{"degree": r.degree, "rows": r.rows, "cols": r.cols,
                 "solved": r.solved, "note": r.note} for r in self.records]


@dataclass
class ResonanceReport:
    eigenvalues: List[complex]
    max_order: int
    exact: bool                                   # all eigenvalues rational
    resonances: List[Tuple[int, Tuple[int, ...]]]  # (i, m), i 1-based
    small_divisors: Dict[int, float]               # order -> min |<m,lam>-lam_i|
    bryuno: Optional[Dict[int, bool]] = None       # order -> bound holds
    bryuno_params: Optional[Tuple[float, float]] = None

    @property
    def resonant(self) -> bool:
        return bool(self.resonances)

    def to_json_obj(self):
        out = {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "max_order": self.max_order,
            "exact": self.exact,
            "resonances": [{"i": i, "m": list(m)} for i, m in self.resonances],
            "small_divisors": {str(k): v for k, v in sorted(self.small_divisors.items())},
        }
        if self.bryuno is not None:
            C, eps = self.bryuno_params
            out["bryuno"] = {"C": C, "eps": eps,
                             "orders": {str(k): v for k, v in sorted(self.bryuno.items())}}
        return out


def _check_gap(gap, message: str) -> None:
    """Raise SolveInconsistencyError when gap is nonzero, with the lowest
    nonzero degree of gap and its residual at that degree."""
    if not gap.is_zero():
        bad = int(gap.min_coeff_degree())
        raise SolveInconsistencyError(message, degree=bad,
                                      residual=gap.homogeneous_component(bad))


def _check_push(P: Multivector, phi: FormalMap, Q: Multivector, F: Poly, N: int,
                message: str) -> None:
    """Check phi_* P = (F o phi^-1) Q through N as Lambda(Dphi) . P =
    F (Q o phi) (module docstring, "Transport"). P vanishes at 0, so Dphi is
    needed through N - 1, which phi cut at N gives."""
    Q_phi = Multivector._make(Q.nvars, Q.grade, {
        K: v for K, v in zip(Q.comps, substitute_many(Q.comps.values(), phi.comps, N)) if v})
    _check_gap((_jacobian_push(P, phi, N) - Q_phi.poly_scale(F, N)).truncate(N), message)


# ---------------------------------------------------------------------------
# graded division by a grade-1 object (DeRham division at finite order)
# ---------------------------------------------------------------------------

def _homogeneous_split(obj, max_degree):
    parts = {}
    for d in range(max_degree + 1):
        h = obj.homogeneous_component(d)
        if not h.is_zero():
            parts[d] = h
    return parts


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


def _rhs_by_active_degree(obj, active) -> Dict[int, Dict[tuple, Poly]]:
    """obj's terms as right-hand sides: active degree -> row (active part of
    the monomial, component key) -> the Poly of its inert parts."""
    n = obj.nvars
    active_set = set(active)
    out: Dict[int, Dict[tuple, tuple]] = {}
    for key, poly in obj.comps.items():
        for exps, v in poly.num.items():
            act = tuple(e if i in active_set else 0 for i, e in enumerate(exps))
            inert = tuple(e - a for e, a in zip(exps, act))
            out.setdefault(sum(act), {}).setdefault((act, key), ({}, poly.den))[0][inert] = v
    return {a: {row: Poly._make(n, num, den) for row, (num, den) in rows.items()}
            for a, rows in out.items()}


def graded_divide(divisor, target, active: Sequence[int], N: int,
                  report: Optional[GradedSolveReport] = None, label: str = "",
                  require_nondegenerate: bool = True):
    """Solve target = divisor ^ result through coefficient degree N.

    divisor is grade 1 with components and linear part on the active block;
    the inert variables ride in the right-hand side (module docstring). With
    require_nondegenerate the linear part must have full rank on the active
    block, which guarantees solvability whenever divisor ^ target = 0;
    without it the per-degree solves simply decide solvability. Kernel
    freedom is resolved to zero in lexicographic order on active monomials;
    a target term free of active variables is left to the final check.
    """
    kind = type(divisor)
    if type(target) is not kind:
        raise ValueError("divisor/target kind mismatch")
    if report is None:
        report = GradedSolveReport()
    n = divisor.nvars
    active = list(active)
    active_set = set(active)
    for key in divisor.comps:
        if key[0] not in active_set:
            raise PreconditionError("divisor must live on the active block")
    for key in target.comps:
        if not set(key) <= active_set:
            raise PreconditionError("division target must live on the active block")
    lin = divisor.homogeneous_component(1)
    lin_rows = []
    for i in active:
        c = lin.component((i,))
        row = c.linear_coefficients()
        if any(row[t] != 0 for t in range(n) if t not in active_set):
            raise PreconditionError("divisor linear part mixes inert variables")
        lin_rows.append([row[t] for t in active])
    if require_nondegenerate and RatMatrix(lin_rows).det() == 0:
        raise PreconditionError("divisor linear part is degenerate on the active block")

    k = target.grade
    res_grade = k - 1
    div_parts = _homogeneous_split(divisor, N + 1)
    tgt_parts = _homogeneous_split(target, N + 1)
    res_tuples = list(itertools.combinations(active, res_grade))
    result = kind(n, res_grade, {})
    result_parts: Dict[int, object] = {}

    for d in range(0, N):
        rhs = tgt_parts.get(d + 1, kind(n, k, {}))
        for m, piece in div_parts.items():
            if m >= 2 and (d + 1 - m) in result_parts:
                rhs = rhs - wedge(piece, result_parts[d + 1 - m])
        if rhs.is_zero():
            continue
        sol_part = _solve_wedge_degree(div_parts.get(1), rhs, active, d,
                                       res_tuples, n, kind, report, label)
        result_parts[d] = sol_part
        result = result + sol_part
    _check_gap(wedge(divisor, result, N).truncate(N) - target.truncate(N),
               f"division failed{': ' + label if label else ''}")
    return result


def _shifted_sum(n: int, pieces) -> Poly:
    """sum of x^mon * v over the pairs (mon, v), whose terms must be
    disjoint, built from the numerators over the lcm of the denominators,
    in the order of the pairs and of each v's terms."""
    D = math.lcm(*[v.den for _, v in pieces])
    return Poly._make(n, {tuple(map(add, mon, e)): c * (D // v.den)
                          for mon, v in pieces for e, c in v.num.items()}, D)


def _solve_wedge_degree(lin_divisor, rhs, active, d, res_tuples,
                        n, kind, report, label):
    """One homogeneous degree of the wedge-multiplication solve: one system
    per active degree, with the inert variables in the right-hand side."""
    if lin_divisor is None:
        raise SolveInconsistencyError(
            f"divisor has no linear part{': ' + label if label else ''}", degree=d)
    lin_coeffs = {key[0]: ({exps.index(1): v for exps, v in poly.num.items() if sum(exps) == 1},
                           poly.den)
                  for key, poly in lin_divisor.comps.items()}

    pieces: Dict[tuple, list] = {}
    for a, rows in sorted(_rhs_by_active_degree(rhs, active).items()):
        if a == 0:
            continue
        cols = [(mon, J) for mon in _monomials_of_degree(n, a - 1, active)
                for J in res_tuples]
        system = GradedSystem(len(cols))
        for col, (mon, J) in enumerate(cols):
            for j, (coeffs, den) in lin_coeffs.items():
                ms = merge_sign((j,), J)
                if ms is None:
                    continue
                key, sign = ms
                for t, v in coeffs.items():
                    new = list(mon)
                    new[t] += 1
                    system.add((tuple(new), key), col, sign * v, den)
        for row, v in rows.items():
            system.rhs(row, v)
        solution = report.solve(system, d, label,
                                f"inconsistent wedge division at degree {d}"
                                f"{': ' + label if label else ''}", rhs)
        for (mon, J), v in zip(cols, solution):
            pieces.setdefault(J, []).append((mon, v))
    return kind(n, len(res_tuples[0]) if res_tuples else 0,
                {J: _shifted_sum(n, parts) for J, parts in pieces.items()})


def derham_divide(alpha: DiffForm, beta: DiffForm, active: Sequence[int], N: int,
                  report: Optional[GradedSolveReport] = None) -> DiffForm:
    """theta with beta = alpha ^ theta through degree N (free components zero).

    The linear part of alpha must have full rank on the active block; a
    divisibility failure at some degree raises SolveInconsistencyError
    carrying the degree and residual.
    """
    return graded_divide(alpha, beta, active, N, report, label="derham")


# ---------------------------------------------------------------------------
# Euler homotopy on the active block (Poincare lemma antiderivative)
# ---------------------------------------------------------------------------

def homotopy_antiderivative(eta, active: Sequence[int]):
    """phi with d_y phi = eta for a d_y-closed form on the active block.

    Euler homotopy: on a piece with active coefficient degree a and form
    grade k, K = i_{E_y} / (a + k); every piece of a grade >= 1 form has
    a + k >= 1, so K is always defined here.
    """
    n = eta.nvars
    k = eta.grade
    out: Dict[tuple, Poly] = {}
    for j in active:
        for sub, poly in _contract_single(eta.comps, j).items():
            for exps, c in poly.num.items():
                weight = sum(exps[i] for i in active) + k
                new = list(exps)
                new[j] += 1
                _accumulate(out, sub, Poly._make(n, {tuple(new): c}, poly.den * weight))
    return type(eta)._make(n, k - 1, out)


# ---------------------------------------------------------------------------
# Type 1: decomposition into a product of 1-forms
# ---------------------------------------------------------------------------

def _type1_linear_data(omega: DiffForm, require_full_rank: bool = True):
    """Validate a diagonal Type-1 linear part in form convention.

    Expects omega^(1) = dx_1^...^dx_{p-1} ^ sum_j d_j x_j dx_j over the
    trailing block. With require_full_rank every trailing slot must carry a
    nonzero d_j (the nondegenerate case). Returns (p, y, diag, alpha1).
    """
    n, p = omega.nvars, omega.grade
    lin = omega.homogeneous_component(1)
    blocks = prefix_blocks(lin, p - 1)
    prefix = tuple(range(p - 1))
    for T, part in blocks.items():
        if T != prefix and not part.is_zero():
            raise PreconditionError("linear part is not prefix-divisible")
    alpha1 = blocks.get(prefix)
    if alpha1 is None:
        raise PreconditionError("linear part vanishes")
    y = list(range(p - 1, n))
    diag = {}
    for (j,), c in alpha1.comps.items():
        coeffs = c.linear_coefficients()
        if any(coeffs[t] != 0 for t in range(n) if t != j):
            raise PreconditionError("quadratic part of the linear form is not diagonal")
        diag[j] = coeffs[j]
    if require_full_rank and (sorted(diag) != y or any(diag[j] == 0 for j in y)):
        raise PreconditionError(
            "linear part is a degenerate Type 1 form (full-rank diagonal needed)")
    if not diag:
        raise PreconditionError("quadratic part of the linear form vanishes")
    return p, y, diag, alpha1


def formal_decompose_type1(omega: DiffForm, N: int
                           ) -> Tuple[List[DiffForm], DiffForm, GradedSolveReport]:
    """Factor omega = gamma_1 ^ ... ^ gamma_{p-1} ^ alpha through degree N.

    gamma_j = dx_j + (-1)^{p-j} theta_j with theta_j from the DeRham division
    beta_j = alpha ^ theta_j; alpha is the full-prefix block of omega.
    """
    if N < 2:
        raise PreconditionError("N must be >= 2")
    n, p = omega.nvars, omega.grade
    y = _type1_linear_data(omega, require_full_rank=False)[1]
    report = GradedSolveReport()
    omega = omega.truncate(N)
    blocks = prefix_blocks(omega, p - 1)
    prefix = tuple(range(p - 1))
    alpha = blocks.get(prefix, DiffForm(n, 1, {}))
    gammas = []
    for j in range(p - 1):
        key = tuple(t for t in prefix if t != j)
        beta_j = blocks.get(key, DiffForm(n, 2, {}))
        theta_j = graded_divide(alpha, beta_j, y, N, report, label="derham",
                                require_nondegenerate=False)
        sign = (-1) ** (p - 1 - j)  # (-1)^{p-j} with 1-based j
        gamma = coordinate_form(n, j) + (theta_j if sign > 0 else -theta_j)
        gammas.append(gamma)
    candidate = wedge_all(gammas + [alpha], N) if gammas else alpha
    _check_gap(candidate.truncate(N) - omega, "decomposition does not reproduce the form")
    return gammas, alpha, report


# ---------------------------------------------------------------------------
# Type 1: formal linearization up to a multiplier
# ---------------------------------------------------------------------------

@dataclass
class Type1LinearizationResult:
    change: FormalMap
    multiplier: Poly
    report: GradedSolveReport
    linear_form: DiffForm


def _resolve_beta_chain(alpha1, omega_k, y, N, report):
    """Resolve omega_k = alpha1 ^ d_y(phi) through the paper's descent/ascent.

    Descend dividing d_y(xi) by alpha1 until a d_y-closed form appears, then
    ascend with Euler antiderivatives. Returns the potential phi (a Poly).
    """
    xi = derham_divide(alpha1, omega_k, y, N, report)
    chain = [xi]
    while True:
        der = dform(chain[-1], y)
        if der.is_zero():
            break
        chain.append(derham_divide(alpha1, der, y, N, report))
    # bottom is d_y-closed: xi_H = d_y phi_H
    phi = homotopy_antiderivative(chain[-1], y).as_poly()
    for h in range(len(chain) - 2, -1, -1):
        # xi_h + phi_{h+1} alpha1 is d_y-closed
        closed = chain[h] + alpha1.poly_scale(phi)
        if not dform(closed, y).is_zero():
            raise SolveInconsistencyError(
                "beta chain ascent lost closedness", degree=None)
        phi = homotopy_antiderivative(closed, y).as_poly()
    check = wedge(alpha1, dform(scalar_form(phi), y)) - omega_k
    if not check.is_zero():
        raise SolveInconsistencyError("beta chain did not resolve the block")
    return phi


def formal_linearize_type1(omega: DiffForm, N: int) -> Type1LinearizationResult:
    """Linearize a nondegenerate Type-1 co-Nambu form up to a multiplier.

    Returns (Phi, f, report) with
        pullback_form(omega, Phi, N) == f * omega_linear   through degree N,
    omega_linear being the input's own linear part. Per degree r: first the
    coordinate shifts x_k -> x_k +- phi_k kill the non-prefix blocks (the
    beta-chain), then one linear solve splits the prefix residual into a
    multiplier increment and an exact y-differential absorbed by a y-shift.
    """
    if N < 2:
        raise PreconditionError("N must be >= 2")
    n = omega.nvars
    p, y, diag, alpha1 = _type1_linear_data(omega)
    report = GradedSolveReport()
    omega = omega.truncate(N)
    omega_lin = omega.homogeneous_component(1)
    prefix = tuple(range(p - 1))

    cur = omega
    phi_total = FormalMap.identity(n)
    f_total = Poly.one(n)

    for r in range(2, N + 1):
        hom = cur.homogeneous_component(r)
        blocks = prefix_blocks(hom, p - 1)
        for T, part in blocks.items():
            if len(T) < p - 2 and not part.is_zero():
                raise SolveInconsistencyError(
                    "deep block obstruction (input not co-Nambu?)", degree=r,
                    residual=part)
        # (A) kill the blocks missing one prefix differential
        shift_comps = None
        for k in range(p - 1):
            key = tuple(t for t in prefix if t != k)
            omega_k = blocks.get(key)
            if omega_k is None or omega_k.is_zero():
                continue
            phi_k = _resolve_beta_chain(alpha1, omega_k, y, N, report)
            if shift_comps is None:
                shift_comps = [Poly.variable(n, i) for i in range(n)]
            # x_k -> x_k + s phi_k adds s (-1)^(p-1-k) omega_k (d_y phi_k moves
            # past p - 2 - k dx's and alpha1), so s = (-1)^(p-k) cancels it
            sign = (-1) ** (p - k)
            shift_comps[k] = shift_comps[k] + (phi_k if sign > 0 else -phi_k)
        if shift_comps is not None:
            step = FormalMap(shift_comps, trunc=N)
            cur = pullback_form(cur, step, N)
            phi_total = phi_total.compose(step, N)
            check = prefix_blocks(cur.homogeneous_component(r), p - 1)
            for T, part in check.items():
                if T != prefix and not part.is_zero():
                    raise SolveInconsistencyError(
                        "prefix reduction failed", degree=r, residual=part)
        # (B) absorb the prefix residual into multiplier + y-shift
        hom = cur.homogeneous_component(r)
        blocks = prefix_blocks(hom, p - 1)
        rho = blocks.get(prefix, DiffForm(n, 1, {}))
        for key in rho.comps:
            if key[0] < p - 1:
                raise SolveInconsistencyError(
                    "prefix residual has parameter components", degree=r)
        f_r, h_pot = _split_multiplier(alpha1, rho, y, r, n, report)
        f_total = f_total + f_r
        if not h_pot.is_zero():
            comps = [Poly.variable(n, i) for i in range(n)]
            for exps, c in h_pot.num.items():
                j = next(i for i in y if exps[i])
                new = list(exps)
                new[j] -= 1
                comps[j] = comps[j] - Poly.monomial(
                    n, new, Fraction(c * diag[j].denominator, h_pot.den * diag[j].numerator))
            step = FormalMap(comps, trunc=N)
            cur = pullback_form(cur, step, N)
            phi_total = phi_total.compose(step, N)
        gap = (cur - omega_lin.poly_scale(f_total, N)).truncate(r)
        if not gap.is_zero():
            raise SolveInconsistencyError(
                "multiplier absorption failed", degree=r, residual=gap)

    _check_gap((pullback_form(omega, phi_total, N) - omega_lin.poly_scale(f_total, N)).truncate(N),
               "final linearization identity failed")
    return Type1LinearizationResult(phi_total, f_total, report, omega_lin)


def _split_multiplier(alpha1, rho, y, r, n, report):
    """Solve rho = f * alpha1 + d_y(h) for homogeneous degree r.

    Unknowns: f over degree r-1 monomials, h over degree r+1 monomials with
    at least one active variable; rho's terms of active degree a make one
    exact solve, with f over active degree a-1 and h over a+1.
    """
    diag = {key[0]: poly.linear_coefficients()[key[0]]
            for key, poly in alpha1.comps.items()}
    pieces = {"f": [], "h": []}
    for a, rows in sorted(_rhs_by_active_degree(rho, y).items()):
        cols = ([("f", mon) for mon in (_monomials_of_degree(n, a - 1, y) if a else [])]
                + [("h", mon) for mon in _monomials_of_degree(n, a + 1, y)])
        system = GradedSystem(len(cols))
        for col, (kind_, mon) in enumerate(cols):
            if kind_ == "f":
                for j, dj in diag.items():
                    new = list(mon)
                    new[j] += 1
                    system.add((tuple(new), (j,)), col, dj)
                continue
            for j in y:
                if mon[j] == 0:
                    continue
                new = list(mon)
                new[j] -= 1
                system.add((tuple(new), (j,)), col, mon[j])
        for row, v in rows.items():
            system.rhs(row, v)
        solution = report.solve(system, r, "multiplier split",
                                "multiplier split inconsistent", rho)
        for (kind_, mon), v in zip(cols, solution):
            pieces[kind_].append((mon, v))
    return _shifted_sum(n, pieces["f"]), _shifted_sum(n, pieces["h"])


# ---------------------------------------------------------------------------
# Type 1: removing the multiplier (degree-by-degree Lie solves)
# ---------------------------------------------------------------------------

@dataclass
class MultiplierRemovalResult:
    change: FormalMap
    per_degree: List[Tuple[int, Multivector, Poly]]  # (degree, X, f_r)
    normal_tensor: Multivector
    scaling: Optional[Fraction] = None               # exact constant scale used
    obstruction: Optional[dict] = None               # irrational constant root
    numeric_scale: Optional[float] = None
    report: GradedSolveReport = field(default_factory=GradedSolveReport)


def _int_kth_root(a: int, k: int) -> Optional[int]:
    if a < 0:
        if k % 2 == 0:
            return None
        r = _int_kth_root(-a, k)
        return None if r is None else -r
    if a in (0, 1):
        return a
    lo, hi = 1, 1 << ((a.bit_length() + k - 1) // k + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid ** k
        if v == a:
            return mid
        if v < a:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _rational_kth_root(c: Fraction, k: int) -> Optional[Fraction]:
    num = _int_kth_root(c.numerator, k)
    den = _int_kth_root(c.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _exp_series(op, p: Poly, N: int) -> Poly:
    """sum_k op^k(p) / k!, cut at N; op raises the degree, so the sum ends."""
    total = term = p
    k = 0
    while term:
        k += 1
        term = op(term).truncate(N).scale(Fraction(1, k))
        total = total + term
    return total


def _flow_map(W: Multivector, N: int) -> FormalMap:
    """Time-1 flow of a vector field vanishing to order >= 2, as a map.

    Components are x_i + sum_k W^k(x_i)/k! truncated at N; exact because the
    iterated derivations terminate above degree N.
    """
    n = W.nvars
    return FormalMap([_exp_series(lambda p: apply_vector(W, p, N), Poly.variable(n, i), N)
                      for i in range(n)], trunc=N)


def remove_multiplier(f: Poly, signs: Sequence[int], N: int,
                      nvars: Optional[int] = None) -> MultiplierRemovalResult:
    """Absorb the multiplier of f * Pi_1 into a formal coordinate change.

    Pi_1 is the nondegenerate Type-1 normal tensor with quadratic signs
    `signs` on the leading block (trailing variables are inert parameters).
    Every step keeps the pushed tensor a multiple g * Pi_1, so only the
    multiplier g (cut at N) is tracked:
      - the reflection x_1 -> -x_1 sends g to -g o R;
      - the scaling x -> x / a of the active block sends g to
        a^(1-q) g(a x_active);
      - per degree r the field X with L_X Pi_1 = g^(r) Pi_1 is found on the
        Q-preserving frame Y_ij plus an Euler part and verified exactly; its
        time-1 flow pushes g * Pi_1 forward by exp(-L_X), which acts on g as
        the Lie series sum_k (-1)^k L^k g / k! with L g = X(g) + g^(r) g.
    The returned change is checked once: Phi_*(f Pi_1) = c Pi_1 through N,
    with c = 1, or the reported constant when there is an obstruction.
    """
    if N < 2:
        raise PreconditionError("N must be >= 2")
    n = nvars if nvars is not None else f.nvars
    if f.nvars != n:
        raise ValueError("f has wrong nvars")
    m = len(signs)
    q = m - 1
    if q < 3:
        raise PreconditionError("need q >= 3")
    if any(s not in (1, -1) for s in signs):
        raise PreconditionError("signs must be +-1")
    if n < m:
        raise PreconditionError("not enough variables for the active block")
    active = list(range(m))
    P1, _ = normal_form_generator("type1", n, q, r=q, s=0, signs=list(signs))
    c = f.constant_term()
    if c == 0:
        raise PreconditionError("multiplier must not vanish at the origin")

    result = MultiplierRemovalResult(FormalMap.identity(n), [], P1)
    g = f.truncate(N)
    x = [Poly.variable(n, i) for i in range(n)]
    phi_total = FormalMap.identity(n)
    # constant part: a reflection when the parity demands it (R_* Pi_1 =
    # -Pi_1), then a scaling x -> x / a of the active block
    if c < 0 and (q - 1) % 2 == 0:
        phi_total = FormalMap([-x[0]] + x[1:])
        g, c = -g.substitute(phi_total.comps), -c
    if c != 1:
        a = _rational_kth_root(c, q - 1)
        if a is None:
            result.obstruction = {"constant": str(c), "exponent": q - 1}
            result.numeric_scale = float(c) ** (1.0 / (q - 1))
            g = g.scale(Fraction(1) / c)  # the Lie steps act on g / c
        else:
            scale_map = FormalMap([v.scale(Fraction(1) / a) if i < m else v
                                   for i, v in enumerate(x)])
            phi_total = scale_map.compose(phi_total)
            g = g.substitute([v.scale(a) if i < m else v for i, v in enumerate(x)])
            g = g.scale(a ** (1 - q))
            result.scaling, c = a, 1

    for r in range(1, N):
        f_r = g.homogeneous_component(r)
        if f_r.is_zero():
            continue
        X = _solve_lie_multiplier(P1, signs, f_r, active, n, result.report)
        if lie_derivative(X, P1) != P1.poly_scale(f_r):
            raise SolveInconsistencyError(
                "Lie-derivative identity failed", degree=r)
        # the flow pushes g Pi_1 forward by exp(-L_X), and
        # L_X(g Pi_1) = (X(g) + f_r g) Pi_1
        g = _exp_series(lambda p: -(apply_vector(X, p, N) + f_r.mul(p, N)), g, N)
        phi_total = _flow_map(X, N).compose(phi_total, N)
        result.per_degree.append((r, X, f_r))
        if any(g.homogeneous_component(e) for e in range(1, r + 1)):
            raise SolveInconsistencyError(
                "multiplier degree did not advance", degree=r)

    change = FormalMap([p.truncate(N) for p in phi_total.comps], trunc=N)
    _check_push(P1.poly_scale(f, N), change, P1, Poly.const(n, c), N,
                "multiplier removal contract failed")
    result.change = change
    return result


def _solve_lie_multiplier(P1: Multivector, diag: Sequence[int], f_r: Poly,
                          active: Sequence[int], n: int,
                          report: GradedSolveReport) -> Multivector:
    """One exact solve for L_X Pi_1 = f_r Pi_1 on the structured basis of
    `_lie_multiplier_basis`, its columns L_{hY} Pi_1 in closed form from
    `_lie_columns`: L_{Y_ij} Pi_1 = 0, so a rotation column is a sum of
    exponent shifts of the parts Y_ij ^ i_{dx_k} Pi_1."""
    r = int(f_r.degree)
    bases, fields = _lie_multiplier_basis(diag, r, active, n)
    system = GradedSystem(len(fields))
    for col, (entries, den) in enumerate(_lie_columns(P1, bases, fields)):
        for label, v in entries.items():
            system.add(label, col, v, den)
    for key, poly in P1.poly_scale(f_r).comps.items():
        for exps, v in poly.num.items():
            system.rhs((key, exps), v, poly.den)
    solution = report.solve(system, r, "Lie multiplier",
                            "multiplier Lie solve inconsistent")
    X = Multivector(n, 1, {})
    for (b, h), v in zip(fields, solution):
        if v:
            X = X + bases[b].poly_scale(h).scale(v)
    return X


def _lie_multiplier_basis(diag: Sequence[int], r: int, active: Sequence[int], n: int):
    """(bases, fields) of the degree-r Lie solve, a field (b, h) being
    h * bases[b]. diag holds the quadratic signs eps_i of Pi_1. The fields:
    the Q-preserving rotations Y_ij = eps_i x_j d_i - eps_j x_i d_j against
    all degree-r monomials, plus Euler multiples h * E with h drawn from
    powers of Q times inert-parameter monomials."""
    bases = [Multivector(n, 1, {(i,): Poly.variable(n, j).scale(diag[i]),
                                (j,): Poly.variable(n, i).scale(-diag[j])})
             for i, j in itertools.combinations(active, 2)]
    mons = [Poly.monomial(n, mon) for mon in _monomials_of_degree(n, r)]
    fields = [(b, h) for b in range(len(bases)) for h in mons]  # the field h * bases[b]
    bases.append(Multivector(n, 1, {(i,): Poly.variable(n, i) for i in active}))  # Euler field
    # Euler parts: h * E with h = (param monomial) * Q^s, 2s + |param| = r
    Q = Poly.zero(n)
    for jj in active:
        exps = [0] * n
        exps[jj] = 2
        Q = Q + Poly.monomial(n, exps, Fraction(diag[jj], 2))
    param_slots = [i for i in range(n) if i not in set(active)]
    for s in range(0, r // 2 + 1):
        rem = r - 2 * s
        if rem == 0 and s == 0:
            continue
        for pmon in _monomials_of_degree(n, rem, param_slots):
            h = Q.pow(s).mul(Poly.monomial(n, pmon))
            if h.is_zero():
                continue
            fields.append((len(bases) - 1, h))
    return bases, fields


def _lie_columns(T: Multivector, bases: Sequence[Multivector], fields) -> list:
    """The columns L_{h Y} T of the fields (b, h), Y = bases[b], as pairs
    ({(key, exps): numerator}, denominator) of L_{hY} T's nonzero terms.

    By L_{hY} T = h L_Y T - sum_k (d_k h) (Y ^ i_{dx_k} T), with i the
    leading-slot contraction (`_contract_single`), a column is a sum of
    exponent shifts of L_Y T and of the Y ^ i_{dx_k} T, each built once per
    base field Y, so no field takes a Lie derivative of its own.
    """
    n = T.nvars
    contracted = {k: Multivector._make(n, T.grade - 1, c)
                  for k in range(n) if (c := _contract_single(T.comps, k))}
    tables = []
    for Y in bases:
        parts = [(None, lie_derivative(Y, T))] + [(k, wedge(Y, c)) for k, c in contracted.items()]
        D = math.lcm(*[p.den for _, part in parts for p in part.comps.values()])
        tables.append((D, [(k, [(key, exps, v * (D // p.den)) for key, p in part.comps.items()
                                 for exps, v in p.num.items()]) for k, part in parts]))
    columns = []
    for b, h in fields:
        D, parts = tables[b]
        acc = {}
        get = acc.get
        for m, c in h.num.items():
            for k, entries in parts:
                if k is None:  # h L_Y T
                    f, shift = c, m
                elif m[k]:     # -(d_k h) (Y ^ i_{dx_k} T)
                    f, shift = -c * m[k], m[:k] + (m[k] - 1,) + m[k + 1:]
                else:
                    continue
                for key, exps, v in entries:
                    label = (key, tuple(map(add, exps, shift)))
                    acc[label] = get(label, 0) + f * v
        columns.append(({label: v for label, v in acc.items() if v}, D * h.den))
    return columns


# ---------------------------------------------------------------------------
# Type 2: prelinearization (factor out a commuting frame)
# ---------------------------------------------------------------------------

@dataclass
class Type2PrelinResult:
    """change_* P = f * frame ^ field through N; `multiplier` is F = f o
    change, the multiplier read in the input's coordinates."""
    multiplier: Poly
    frame: List[Multivector]
    field: Multivector
    change: FormalMap
    report: GradedSolveReport
    field_matrix: RatMatrix


def _type2_linear_data(P: Multivector):
    """Validate the exact Type-2 linear part; return (q, y, b-matrix)."""
    n, q = P.nvars, P.grade
    lin = P.homogeneous_component(1)
    S = q - 1
    blocks = prefix_blocks(lin, S)
    frame_key = tuple(range(S))
    y = list(range(S, n))
    for T, part in blocks.items():
        if T != frame_key and not part.is_zero():
            raise PreconditionError("linear part is not in Type 2 normal shape")
    W = blocks.get(frame_key)
    if W is None:
        raise PreconditionError("linear part vanishes")
    if any(c.linear_coefficients()[t] for c in W.comps.values() for t in range(S)):
        raise PreconditionError("linear field involves frame variables")
    Bm = field_matrix(W, y)
    if Bm.det() == 0:
        raise PreconditionError("Type 2 linear part is degenerate")
    if q == n - 1:
        trace = sum((Bm[i, i] for i in range(len(y))), Fraction(0))
        if trace == 0:
            raise PreconditionError(
                "q = n-1 needs a nonzero trace for the prelinearization")
    return q, y, Bm


def prelinearize_type2(P: Multivector, N: int) -> Type2PrelinResult:
    """Factor P as f * d1 ^ ... ^ d_{q-1} ^ X through degree N.

    Decompose with one graded division per frame slot, make the frame commute
    with everything by transport solves along V_i, and straighten each V_i
    by flow-box coordinates u_k = x_k + w_k, with V_i(w_k) = -(V_i - d_i)_k
    and w_k = 0 on x_i = 0: one more transport solve per coordinate. X and
    the later frame fields commute with V_i and move by slice transport. In
    the returned coordinates X has no frame components and no frame-variable
    dependence through N, and, F the returned multiplier, read in the
    input's coordinates, and f = F o change^-1, the contract
        pushforward_tensor(P, change, N) == f * frame ^ X   (truncated at N)
    is checked along change, inverting nothing, as Lambda(Dchange) . P ==
    F * frame ^ (X o change).

    One pass on one precision schedule (module docstring, "Degree
    bookkeeping"): the frame decomposition runs at N + q - 1, and slot i
    (i = 0..q-2) works at D = N + q - 2 - i, so the last works at N. An
    inconsistency inside the window is an obstruction of the input and
    raises; the contract check at N is a check, not a retry condition.
    """
    if N < 2:
        raise PreconditionError("N must be >= 2")
    return _prelinearize_attempt(P, N)


def _prelinearize_attempt(P: Multivector, N: int) -> Type2PrelinResult:
    n = P.nvars
    q, y, B = _type2_linear_data(P)
    S = q - 1
    frame_key = tuple(range(S))
    report = GradedSolveReport()
    T = P.truncate(N + S)

    # decomposition: the full-frame block is X itself; one division per slot
    blocks = prefix_blocks(T, S)
    X = blocks.get(frame_key)
    Vs = []
    for j in range(S):
        key = tuple(t for t in range(S) if t != j)
        Bj = blocks.get(key, Multivector(n, 2, {}))
        sign = (-1) ** (S - 1 - j)
        # B_j = sign * v_j ^ X  =>  X ^ v_j = -sign * B_j
        vj = graded_divide(X, Bj.scale(-sign), y, N + S, report, label=f"frame {j + 1}")
        Vs.append(coordinate_field(n, j) + vj)
    cand = wedge_all(Vs + [X], N + S)
    _check_gap((cand - T).truncate(N + S),
               "frame decomposition does not reproduce the tensor (input not Nambu?)")

    F = Poly.one(n)  # the multiplier, read in the input's coordinates
    phi_total = FormalMap.identity(n)
    zero = Poly.zero(n)
    for i in range(S):
        # slot i's one precision (module docstring); the later frame fields
        # leave it at D - 1, the next slot's D
        D = N + S - 1 - i
        Vi = Vs[i]
        # (a) make X commute with V_i: X <- gX with V_i(g) + f_i g = 0; 1/g
        # solves V_i(1/g) = f_i / g with the same slice value 1, and F takes
        # it on through the map so far
        f_i = _bracket_quotient(X, lie_bracket(Vi, X, D), y, D, report,
                                f"bracket ratio {i + 1}")
        X = X.poly_scale(_transport_solve(Vi, i, D, f_i, zero, 1), D)
        F = F.mul(_transport_solve(Vi, i, D, -f_i, zero, 1).substitute(phi_total.comps, D), D)
        # (b) correct the later frame fields: V_j <- V_j + gamma_j X
        for j in range(i + 1, S):
            g_ij = _bracket_quotient(X, lie_bracket(Vi, Vs[j], D - 1), y, D - 1, report,
                                     f"frame bracket {i + 1},{j + 1}")
            gamma = _transport_solve(Vi, i, D - 1, zero, -g_ij, 0)
            Vs[j] = (Vs[j] + X.poly_scale(gamma, D - 1)).truncate(D - 1)
        # (c) straighten V_i to the coordinate field: flow-box coordinates
        # u_k = x_k + w_k with V_i(u_k) = delta_ik and u = x on x_i = 0
        tail = Vi - coordinate_field(n, i)
        step = FormalMap([Poly.variable(n, k)
                          + _transport_solve(Vi, i, D, zero, -tail.component((k,)), 0)
                          for k in range(n)], trunc=D)
        X = _slice_push(X, step, i, D)
        for j in range(i + 1, S):
            Vs[j] = _slice_push(Vs[j], step, i, D - 1)
        phi_total = step.compose(phi_total, D)
        Vs[i] = coordinate_field(n, i)

    # drop any frame components X may carry (they do not change the product)
    X = Multivector(n, 1, {k: v for k, v in X.comps.items() if k[0] >= S})
    frame = [coordinate_field(n, i) for i in range(S)]
    X_out = X.truncate(N)
    for key, c in X_out.comps.items():
        for exps in c.num:
            if any(exps[t] for t in range(S)):
                raise SolveInconsistencyError(
                    "field keeps frame-variable dependence", degree=sum(exps))
    change = FormalMap([c.truncate(N) for c in phi_total.comps], trunc=N)
    F = F.truncate(N)
    _check_push(P, change, wedge_all(frame + [X_out], N), F, N,
                "prelinearization contract failed")
    return Type2PrelinResult(F, frame, X_out, change, report, B)


def _bracket_quotient(X, bracket, y, D, report, label) -> Poly:
    """h with bracket = h * X through degree D - 1, from a bracket trusted
    through D.

    Inside the trusted window nothing is truncation junk: a component off the
    active block, or a division that fails, is an obstruction of the input.
    """
    t = bracket.truncate(D)
    yset = set(y)
    stray = [int(v.min_degree()) for k, v in t.comps.items() if not set(k) <= yset]
    if stray:
        bad = min(stray)
        raise SolveInconsistencyError(
            f"bracket leaves the active block: {label}", degree=bad,
            residual=t.homogeneous_component(bad))
    return graded_divide(X.truncate(D), t, y, D, report, label).as_poly()


def _slice_push(Y: Multivector, step: FormalMap, i: int, D: int) -> Multivector:
    """step_* Y through D for Y commuting with V_i, step's components being
    V_i's flow-box coordinates u (V_i(u_k) = delta_ik, u = x on x_i = 0):
    V_i(Y(u_k)) = [V_i, Y](u_k) = 0, so Y(u_k) o step^-1 is Y(u_k) on x_i = 0.
    """
    n = Y.nvars
    out = {}
    for k, u in enumerate(step.comps):
        v = apply_vector(Y, u, D)
        out[(k,)] = Poly._make(n, {e: c for e, c in v.num.items() if not e[i]}, v.den)
    return Multivector(n, 1, out)


def _transport_solve(V: Multivector, i: int, N: int, f: Poly, rhs: Poly,
                     start: int) -> Poly:
    """Solve V(g) + f g = rhs through degree N, with g = start on x_i = 0.

    V = d_i + a tail vanishing at 0, so the degree-d part of g is the exact
    x_i-antiderivative of the degree-(d - 1) part of rhs - tail(g) - f g,
    which only the parts of g below degree d reach: each pass cuts its
    products at d - 1.
    """
    n = V.nvars
    tail = V - coordinate_field(n, i)
    g = Poly.const(n, start)
    for d in range(1, N + 1):
        r = rhs - f.mul(g, d - 1)
        for (k,), t in tail.comps.items():
            r = r - t.mul(g.partial(k), d - 1)
        inc, h = {}, r.homogeneous_component(d - 1)
        for exps, c in h.num.items():
            new = list(exps)
            new[i] += 1
            inc[tuple(new)] = Fraction(c, h.den * new[i])
        g = g + Poly(n, inc)
    return g


# ---------------------------------------------------------------------------
# Poincare linearization of the residual vector field
# ---------------------------------------------------------------------------

@dataclass
class PoincareResult:
    change: FormalMap
    report: GradedSolveReport
    resonance: "ResonanceReport"


def poincare_linearize(X: Multivector, N: int, tol: float = 1e-9) -> PoincareResult:
    """Linearize X at finite order by exact homological solves.

    The resonance gate runs first (orders 2..N at tolerance tol); the
    homological operator is a rational matrix, so each degree is solved
    exactly over Q whether or not the eigenvalues are rational. The change
    solves X(Phi_j) = L_j o Phi degree by degree, phi_d = -U for [L, U] = R,
    R the degree-d part of X(Phi); it is unique through N (Murdock 2003).
    """
    if X.grade != 1:
        raise PreconditionError("poincare_linearize needs a vector field")
    n = X.nvars
    lin = X.homogeneous_component(1)
    if lin.is_zero():
        raise PreconditionError("zero linear part")
    if not X.homogeneous_component(0).is_zero():
        raise PreconditionError("field must vanish at the origin")
    B = field_matrix(lin, range(n))
    reson = resonance_report(B, max(N, 2), tol)
    offending = [rel for rel in reson.resonances if sum(rel[1]) <= N]
    if offending:
        raise PreconditionError(
            f"resonances of order <= {N} at tol={tol}: {offending}")

    report = GradedSolveReport()
    comps = [Poly.variable(n, i) for i in range(n)]
    for d in range(2, N + 1):
        # Phi stops below degree d, so L o Phi has no part of degree d
        R = Multivector(n, 1, {(j,): apply_vector(X, c, d).homogeneous_component(d)
                               for j, c in enumerate(comps)})
        if R.is_zero():
            continue
        U = _homological_solve(lin, R, d, report)
        comps = [c - U.component((j,)) for j, c in enumerate(comps)]
    L_phi = substitute_many([lin.component((j,)) for j in range(n)], comps)
    gap = {(j,): apply_vector(X, c, N) - L_phi[j]
           for j, c in enumerate(comps)}  # X(Phi_j) - L_j o Phi
    _check_gap(Multivector(n, 1, gap), "linearization incomplete")
    return PoincareResult(FormalMap(comps, trunc=N), report, reson)


def _homological_solve(L: Multivector, R: Multivector, d: int,
                       report: GradedSolveReport) -> Multivector:
    """Solve [L, U] = R on the degree-d monomial-vector basis, exactly, as
    L_U L = -R: the column of x^m d_i is L_{x^m d_i} L = -[L, x^m d_i] =
    x^m sum_j d_i(L_j) d_j - L(x^m) d_i, from `_lie_columns` on the
    coordinate fields."""
    n = L.nvars
    mons = _monomials_of_degree(n, d)
    basis = [(mon, i) for mon in mons for i in range(n)]
    system = GradedSystem(len(basis))
    units = [coordinate_field(n, i) for i in range(n)]
    fields = [(i, Poly.monomial(n, mon)) for mon, i in basis]
    for col, (entries, den) in enumerate(_lie_columns(L, units, fields)):
        for label, v in entries.items():
            system.add(label, col, v, den)
    for key, poly in R.comps.items():
        for exps, v in poly.num.items():
            system.rhs((key, exps), -v, poly.den)
    solution = report.solve(system, d, "homological", "homological equation inconsistent")
    terms: Dict[tuple, dict] = {}
    for (mon, i), v in zip(basis, solution):
        if v:
            terms.setdefault((i,), {})[mon] = v
    return Multivector(n, 1, {k: Poly(n, t) for k, t in terms.items()})


# ---------------------------------------------------------------------------
# resonance and small-divisor diagnostics
# ---------------------------------------------------------------------------

def _weighted_multi_indices(values: Sequence, order: int):
    """Yield (m, <m, values>) for every multi-index m with |m| = order, in the
    order of itertools.combinations_with_replacement(range(len(values)),
    order), so m_1 falls first. The sums are nested prefix sums: each is
    0 + m_1 v_1 + m_2 v_2 + ..., added left to right from int 0 as sum() adds.
    Nothing is stored, so memory stays flat at any order."""
    last = len(values) - 1

    def extend(j, left, prefix, m):
        if j == last:
            yield m + (left,), prefix + left * values[j]
            return
        v = values[j]
        for c in range(left, -1, -1):
            yield from extend(j + 1, left - c, prefix + c * v, m + (c,))

    return extend(0, order, 0, ())


def resonance_report(B: RatMatrix, M: int, tol: float = 1e-9,
                     C: Optional[float] = None,
                     eps: Optional[float] = None) -> ResonanceReport:
    """Enumerate eigenvalue relations lambda_i = <m, lambda> for 2 <= |m| <= M.

    Exact arithmetic when every eigenvalue is rational (then the result is
    tolerance-independent): the eigenvalues are written a_j / D over the lcm D
    of their denominators, so every sum <m, a> and gap <m, a> - a_i is an int,
    and the smallest |gap| of each order is divided by D once (int / int
    division is correctly rounded). Numeric at tol otherwise. With (C, eps)
    the finite-order Bryuno proxy records, per order, whether
    min |<m,lambda> - lambda_k| > C exp(-|m|^(1-eps)).
    """
    if B.rows != B.cols:
        raise PreconditionError("resonance_report needs a square matrix")
    if B.rows == 0:
        raise PreconditionError("resonance_report needs a nonempty matrix")
    if M < 2:
        raise PreconditionError("max order must be >= 2")
    if not 0 < tol < math.inf:
        raise PreconditionError("tol must be positive and finite")
    ed = eigen_data(B, tol)
    exact = ed.all_rational
    lams = ed.numeric_eigenvalues
    if exact:
        rats = ed.rational_eigenvalues
        D = math.lcm(*(lam.denominator for lam in rats))
        values = [lam.numerator * (D // lam.denominator) for lam in rats]
        reach = 0  # an int gap is a resonance only when it is 0
    else:
        D, values, reach = 1, lams, tol
    resonances = []
    small: Dict[int, float] = {}
    for order in range(2, M + 1):
        best = math.inf
        for m, total in _weighted_multi_indices(values, order):
            for i, v in enumerate(values, 1):
                gap = abs(total - v)
                if gap <= reach:
                    resonances.append((i, m))
                if gap < best:
                    best = gap
        small[order] = best / D
    bry = None
    params = None
    if C is not None:
        eps = 0.5 if eps is None else eps
        if not 0 < eps < 1:
            raise PreconditionError("eps must lie in (0, 1)")
        bry = {k: small[k] > C * math.exp(-k ** (1.0 - eps))
               for k in small}
        params = (C, eps)
    return ResonanceReport(lams, M, exact, resonances, small, bry, params)
