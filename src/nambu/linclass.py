"""Classification of linear co-Nambu forms and Nambu tensors.

Implements the constructive normal-form proof: build the span table E_j of
the constant forms omega_j, split on dim(intersection E_j) >= p-1 into the
wedge-times-exact-differential family (Type 1) and the linear-vector-field
family (Type 2), and return the exact linear coordinate change together with
the achieved normal form.

Coordinate conventions. Form reports use parameters first: z_1..z_{p-1} are
the wedge prefix, the quadratic block sits on z_p..z_n. Tensor reports use
the dual convention (active block first, parameters last); the two differ by
the block-swap permutation folded into the reported change.

Over Q the quadratic part diagonalizes to entries sign_j * c_j with c_j > 0
rational; scaling them to +-1 needs square roots and is provided only as a
floating-point companion. Every exact assertion in the report is made
against the achieved form, which is reachable without radicals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .polyalg import (
    EigenData,
    InputError,
    Poly,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
    _eliminate,
    eigen_data,
    inertia,
)
from .exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    _contract,
    _integer_parts,
    basis_multivector,
    coordinate_form,
    form_to_tensor,
    interior,
    pullback_form,
    prefix_blocks,
    tensor_to_form,
    wedge,
)
from .verify import is_conambu


# ---------------------------------------------------------------------------
# exact subspace utilities (row spaces over Q)
# ---------------------------------------------------------------------------

def rowspace_basis(rows: Sequence[Sequence[Fraction]], n: int) -> RatMatrix:
    """The canonical basis of the row space: its reduced row echelon rows."""
    return RatMatrix(_eliminate(rows, n).reduced_rows)


def intersect_rowspaces(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """rowspace(A) ^ rowspace(B), the annihilator of ann(A) + ann(B)."""
    n = A.cols
    if A.rows == 0 or B.rows == 0:
        return RatMatrix.zeros(0, n)
    return rowspace_basis(_eliminate(A.nullspace() + B.nullspace(), n).kernel, n)


def sum_rowspaces(spaces: Sequence[RatMatrix], n: int) -> RatMatrix:
    rows = []
    for S in spaces:
        rows.extend(S.data)
    return rowspace_basis(rows, n)


def complete_basis(rows: Sequence[Sequence[Fraction]], n: int) -> RatMatrix:
    """Extend independent rows to an invertible n x n matrix with unit vectors.

    e_i is taken exactly when it is not in the span of the rows and e_0..e_{i-1},
    that is, when i is a pivot column of the rows' annihilator.
    """
    annihilator = _eliminate(rows, n).kernel
    chosen = [list(r) for r in rows]
    chosen += [[Fraction(int(j == i)) for j in range(n)]
               for i in _eliminate(annihilator, n).pivots]
    if len(chosen) != n:
        raise SolveInconsistencyError("could not complete a basis")
    return RatMatrix(chosen)


# ---------------------------------------------------------------------------
# span table
# ---------------------------------------------------------------------------

@dataclass
class SpanTable:
    """Per variable j, the span E_j of the constant form omega_j."""

    nvars: int
    p: int
    entries: List[Optional[RatMatrix]]  # None when omega_j = 0

    def dim(self, j: int) -> int:
        E = self.entries[j]
        return 0 if E is None else E.rows

    def nonzero_indices(self) -> List[int]:
        return [j for j, E in enumerate(self.entries) if E is not None]

    def common_intersection(self) -> RatMatrix:
        idx = self.nonzero_indices()
        if not idx:
            return RatMatrix.zeros(0, self.nvars)
        E = self.entries[idx[0]]
        for j in idx[1:]:
            E = intersect_rowspaces(E, self.entries[j])
        return E

    def validate(self):
        """Decomposability dimensions and the pairwise intersection bound."""
        for j in self.nonzero_indices():
            if self.dim(j) != self.p:
                raise SolveInconsistencyError(
                    f"E_{j + 1} has dimension {self.dim(j)}, expected {self.p}: "
                    "input is not co-Nambu")
        idx = self.nonzero_indices()
        for a, b in itertools.combinations(idx, 2):
            inter = intersect_rowspaces(self.entries[a], self.entries[b])
            if inter.rows < self.p - 1:
                raise SolveInconsistencyError(
                    f"dim(E_{a + 1} ^ E_{b + 1}) = {inter.rows} < p-1: "
                    "input is not co-Nambu")


def _require_linear(omega: DiffForm):
    for c in omega.comps.values():
        for exps in c.terms:
            if sum(exps) != 1:
                raise PreconditionError(
                    "classification needs a homogeneous linear form")


def span_table(omega: DiffForm) -> SpanTable:
    """E_j = span{ i_A omega_j : A a constant (p-1)-vector } for omega = sum x_j omega_j."""
    _require_linear(omega)
    n, p = omega.nvars, omega.grade
    parts = _integer_parts(omega)
    entries: List[Optional[RatMatrix]] = []
    for j in range(n):
        wj = parts.get(tuple(int(i == j) for i in range(n)), {})
        rows = []
        for akey in itertools.combinations(range(n), p - 1):
            cur = _contract(wj, akey)
            if cur:
                rows.append([Fraction(cur.get((i,), 0)) for i in range(n)])
        entries.append(rowspace_basis(rows, n) if rows else None)
    return SpanTable(n, p, entries)


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------

@dataclass
class NormalForm:
    tag: str                                   # "type1" | "type2"
    r: Optional[int] = None
    s: Optional[int] = None
    signs: Optional[List[int]] = None          # quadratic sign pattern
    diag: Optional[List[Fraction]] = None      # achieved signed diagonal entries
    matrix: Optional[RatMatrix] = None         # type 2
    char_coeffs: Optional[List[Fraction]] = None


@dataclass
class ClassificationReport:
    normal_form: NormalForm
    change: FormalMap              # pullback_form(achieved_form, change) == input
    achieved_form: DiffForm
    nvars: int
    p: int
    q: int
    nondegenerate: bool = False
    elliptic: Optional[bool] = None
    signature: Optional[int] = None
    index_pair: Optional[Tuple[int, int]] = None
    zero_set_dim: Optional[int] = None
    span: Optional[SpanTable] = None
    numeric_companion: Optional[List[float]] = None  # per-variable scale to +-1
    achieved_tensor: Optional[Multivector] = None
    tensor_matrix: Optional[RatMatrix] = None
    rational_jordan: Optional[RatMatrix] = None
    eigen: Optional[EigenData] = None

    def to_json_obj(self) -> dict:
        from .exterior import formal_map_to_json
        nf = self.normal_form
        out = {"type": "1" if nf.tag == "type1" else "2"}
        if nf.tag == "type1":
            out["r"] = nf.r
            out["s"] = nf.s
            out["signs"] = nf.signs
            out["diag"] = [str(v) for v in nf.diag]
        else:
            matrix = self.tensor_matrix if self.tensor_matrix is not None else nf.matrix
            out["matrix"] = matrix.to_str_rows()
            out["char_poly"] = self.eigen.char_poly_str() if self.eigen else None
        out["nondegenerate"] = self.nondegenerate
        out["elliptic"] = self.elliptic
        out["signature"] = self.signature
        out["index"] = list(self.index_pair) if self.index_pair else None
        out["zero_set_dim"] = self.zero_set_dim
        out["change"] = formal_map_to_json(self.change)
        if self.achieved_tensor is not None:
            out["achieved"] = self.achieved_tensor.to_json_obj()
        else:
            out["achieved"] = self.achieved_form.to_json_obj()
        if self.numeric_companion is not None:
            out["numeric_companion_scales"] = self.numeric_companion
        return out


# ---------------------------------------------------------------------------
# classification state: exact linear coordinate moves
# ---------------------------------------------------------------------------

class _State:
    def __init__(self, omega: DiffForm):
        self.n = omega.nvars
        self.cur = omega
        self.acc = RatMatrix.identity(self.n)  # z_current = acc . x_input

    def apply(self, T: RatMatrix):
        """Switch to coordinates z_new = T . z_current."""
        inv_map = FormalMap.from_matrix(T.inverse())
        self.cur = pullback_form(self.cur, inv_map)
        self.acc = T.matmul(self.acc)

    def change_map(self) -> FormalMap:
        return FormalMap.from_matrix(self.acc)


def _block_diag(n: int, blocks: Dict[Tuple[int, int], RatMatrix]) -> RatMatrix:
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for (lo, hi), B in blocks.items():
        if B.rows != hi - lo or B.cols != hi - lo:
            raise ValueError("block size mismatch")
        for i in range(lo, hi):
            for j in range(lo, hi):
                out[i][j] = B[i - lo, j - lo]
    return RatMatrix(out)


def _extract_alpha(cur: DiffForm, p: int) -> DiffForm:
    """alpha with cur == dz_1^...^dz_{p-1} ^ alpha; alpha has no prefix slots."""
    n = cur.nvars
    blocks = prefix_blocks(cur, p - 1)
    prefix = tuple(range(p - 1))
    for T, part in blocks.items():
        if T != prefix and not part.is_zero():
            raise SolveInconsistencyError(
                "form is not divisible by the parameter prefix")
    return blocks.get(prefix, DiffForm(n, 1, {}))


def _linear_matrix_of_oneform(alpha: DiffForm) -> List[List[Fraction]]:
    """M[j][k] = coefficient of z_k in alpha_j (n x n, zero rows off support)."""
    n = alpha.nvars
    M = [[Fraction(0)] * n for _ in range(n)]
    for (j,), c in alpha.comps.items():
        M[j] = c.linear_coefficients()
    return M


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def classify_linear(omega: DiffForm, keep_span: bool = True) -> ClassificationReport:
    """Classify a linear co-Nambu p-form into its Type 1 / Type 2 normal form.

    Returns the report with an exact linear change satisfying
    pullback_form(achieved_form, change) == omega.
    """
    n, p = omega.nvars, omega.grade
    q = n - p
    _require_linear(omega)
    verdict = is_conambu(omega)
    if not verdict.passed:
        raise PreconditionError(
            f"input is not co-Nambu: equation {verdict.witness.equation} fails "
            f"for A = {tuple(i + 1 for i in verdict.witness.A)}")

    if omega.is_zero():
        nf = NormalForm("type1", r=-1, s=0, signs=[], diag=[])
        report = ClassificationReport(nf, FormalMap.identity(n),
                                      DiffForm(n, p, {}), n, p, q,
                                      span=span_table(omega) if keep_span else None)
        return nondegeneracy(report)

    table = span_table(omega)
    table.validate()
    E = table.common_intersection()
    state = _State(omega)

    if E.rows >= p - 1:
        result = _case1(state, E, p, q)
    else:
        result = _case2(state, table, p, q)
    result.span = table if keep_span else None
    return nondegeneracy(result)


def _case1(state: _State, E: RatMatrix, p: int, q: int) -> ClassificationReport:
    n = state.n
    # coordinates: p-1 covectors from E, completed arbitrarily
    prefix_rows = [E.data[i] for i in range(p - 1)]
    T = complete_basis(prefix_rows, n)
    state.apply(T)

    alpha = _extract_alpha(state.cur, p)
    y = list(range(p - 1, n))
    M = _linear_matrix_of_oneform(alpha)
    # curl of alpha in the y-variables
    D = [[M[j][k] - M[k][j] for k in y] for j in y]
    if all(v == 0 for row in D for v in row):
        return _case1_closed(state, p, q)
    return _case1_curl(state, D, p, q)


def _case1_closed(state: _State, p: int, q: int) -> ClassificationReport:
    """Subcase d'alpha = 0: diagonalize the quadratic, normalize the pairings."""
    n = state.n
    y = list(range(p - 1, n))
    alpha = _extract_alpha(state.cur, p)
    M = _linear_matrix_of_oneform(alpha)
    S = RatMatrix([[M[j][k] for k in y] for j in y])
    if not S.is_symmetric():
        raise SolveInconsistencyError("closed alpha has a non-symmetric gradient")

    inr = inertia(S)
    # order the diagonal: positive entries, then negative, then zeros
    order = sorted(range(len(y)),
                   key=lambda i: (0 if inr.diagonal[i] > 0 else
                                  1 if inr.diagonal[i] < 0 else 2, i))
    perm = RatMatrix([[Fraction(int(j == order[i])) for j in range(len(y))]
                      for i in range(len(y))])
    # z_new = perm . C^{-1} . z_old on the y block
    Ty = perm.matmul(inr.congruence.inverse())
    state.apply(_block_diag(n, {(p - 1, n): Ty}))

    rank = inr.n_plus + inr.n_minus
    r = rank - 1
    quad = y[:rank]
    free = y[rank:]

    # absorb parameter-linear parts on the quadratic slots: u_j = z_j + A_j / d_j
    alpha = _extract_alpha(state.cur, p)
    M = _linear_matrix_of_oneform(alpha)
    diag = [M[j][j] for j in quad]
    if any(d == 0 for d in diag):
        raise SolveInconsistencyError("quadratic block lost rank")
    if p > 1:
        T = RatMatrix.identity(n).copy_data()
        for idx, j in enumerate(quad):
            for i in range(p - 1):
                T[j][i] = M[j][i] / diag[idx]
        state.apply(RatMatrix(T))

    # pairing block: parameter coefficients on the free y slots
    s = 0
    if p > 1 and free:
        alpha = _extract_alpha(state.cur, p)
        M = _linear_matrix_of_oneform(alpha)
        pairing = RatMatrix([[M[j][i] for j in free] for i in range(p - 1)])
        s = pairing.rank()
        if s:
            U, W = _rank_normalize(pairing)
            # params transform by (U^T)^{-1}, free slots by W^{-1}
            Tp = U.transpose().inverse()
            Tf = W.inverse()
            T = RatMatrix.identity(n).copy_data()
            for i in range(p - 1):
                for j in range(p - 1):
                    T[i][j] = Tp[i, j]
            base = free[0]
            for i in range(len(free)):
                for j in range(len(free)):
                    T[base + i][base + j] = Tf[i, j]
            state.apply(RatMatrix(T))
            # exact cleanup: rescale each paired free slot so the coefficient is 1
            alpha = _extract_alpha(state.cur, p)
            M = _linear_matrix_of_oneform(alpha)
            T = RatMatrix.identity(n).copy_data()
            for i in range(s):
                mu = M[free[i]][i]
                if mu == 0:
                    raise SolveInconsistencyError("pairing normalization failed")
                T[free[i]][free[i]] = mu
            state.apply(RatMatrix(T))

    # final shape verification and achieved data
    alpha = _extract_alpha(state.cur, p)
    M = _linear_matrix_of_oneform(alpha)
    diag = [M[j][j] for j in quad]
    want = DiffForm(n, 1, {})
    for idx, j in enumerate(quad):
        want = want + coordinate_form(n, j).poly_scale(Poly.variable(n, j).scale(diag[idx]))
    for i in range(s):
        want = want + coordinate_form(n, free[i]).poly_scale(Poly.variable(n, i))
    achieved = want
    for i in reversed(range(p - 1)):
        achieved = wedge(coordinate_form(n, i), achieved)
    if achieved != state.cur:
        raise SolveInconsistencyError("Type 1 normalization did not reach the normal shape")

    signs = [1 if d > 0 else -1 for d in diag]
    scales = [1.0] * n
    for idx, j in enumerate(quad):
        scales[j] = 1.0 / math.sqrt(abs(float(diag[idx])))
    nf = NormalForm("type1", r=r, s=s, signs=signs, diag=diag)
    return ClassificationReport(nf, state.change_map(), achieved,
                                n, p, q, numeric_companion=scales)


def _rank_normalize(M: RatMatrix) -> Tuple[RatMatrix, RatMatrix]:
    """Invertible U, W with U M W = [[I_s, 0], [0, 0]]."""
    R, U, pivots = M.rref()
    # move pivot columns to the front
    order = list(pivots) + [c for c in range(M.cols) if c not in pivots]
    Pcol = RatMatrix([[Fraction(int(order[j] == i)) for j in range(M.cols)]
                      for i in range(M.cols)])
    # clear the non-pivot entries of each pivot row by column operations
    W1 = RatMatrix.identity(M.cols).copy_data()
    for k, c in enumerate(pivots):
        for d in range(M.cols):
            if d not in pivots and R[k, d] != 0:
                W1[c][d] = -R[k, d]
    W = RatMatrix(W1).matmul(Pcol)
    check = U.matmul(M).matmul(W)
    for i in range(M.rows):
        for j in range(M.cols):
            want = Fraction(int(i == j and i < len(pivots)))
            if check[i, j] != want:
                raise SolveInconsistencyError("rank normalization failed")
    return U, W


def _case1_curl(state: _State, D: List[List[Fraction]], p: int, q: int) -> ClassificationReport:
    """Subcase d'alpha != 0: the curl is forced to have rank 2; land in Type 2."""
    n = state.n
    y = list(range(p - 1, n))
    f = len(y)
    Dm = RatMatrix(D)
    if Dm.rank() != 2:
        raise SolveInconsistencyError(
            "curl of alpha has rank > 2: input is not co-Nambu")
    a = b = None
    for i in range(f):
        for j in range(i + 1, f):
            if Dm[i, j] != 0:
                a, b = i, j
                break
        if a is not None:
            break
    # columns: e_a, e_b / D[a][b], then the kernel of rows a and b
    c0 = [Fraction(int(i == a)) for i in range(f)]
    c1 = [Fraction(int(i == b)) / Dm[a, b] for i in range(f)]
    rows_ab = RatMatrix([list(Dm.data[a]), list(Dm.data[b])])
    kern = rows_ab.nullspace()
    columns = [c0, c1] + kern
    C = RatMatrix(columns).transpose()
    if C.rank() != f:
        raise SolveInconsistencyError("curl normalization produced a singular basis")
    Ty = C.inverse()
    state.apply(_block_diag(n, {(p - 1, n): Ty}))

    # now d'alpha = dz_p ^ dz_{p+1}; alpha must involve only the first two y slots
    alpha = _extract_alpha(state.cur, p)
    for (j,), _ in alpha.comps.items():
        if j >= p + 1:
            raise SolveInconsistencyError(
                "alpha keeps slots beyond dz_p, dz_{p+1}: input is not co-Nambu")
    M = _linear_matrix_of_oneform(alpha)
    for j in (p - 1, p):
        for k in range(p + 1, n):
            if M[j][k] != 0:
                raise SolveInconsistencyError(
                    "alpha depends on variables beyond the rank-2 block")
    return _type2_finisher(state, p, q)


def _case2(state: _State, table: SpanTable, p: int, q: int) -> ClassificationReport:
    n = state.n
    U = sum_rowspaces([table.entries[j] for j in table.nonzero_indices()], n)
    if U.rows != p + 1:
        raise SolveInconsistencyError(
            f"sum of spans has dimension {U.rows}, expected p+1: input is not co-Nambu")
    T = complete_basis([U.data[i] for i in range(p + 1)], n)
    state.apply(T)
    return _type2_finisher(state, p, q)


def _type2_finisher(state: _State, p: int, q: int) -> ClassificationReport:
    """Components live inside the first p+1 coordinates; read or reduce the a_i."""
    n = state.n
    block = tuple(range(p + 1))
    for key in state.cur.comps:
        if any(i > p for i in key):
            raise SolveInconsistencyError(
                "form has components outside the (p+1)-block")
    a = {}
    for i in block:
        hat = tuple(j for j in block if j != i)
        a[i] = state.cur.component(hat)

    outside = [i for i in block
               if any(a[i].linear_coefficients()[k] != 0 for k in range(p + 1, n))]
    if outside:
        _reduce_outside_dependence(state, p, a, outside)
        for key in state.cur.comps:
            if any(i > p for i in key):
                raise SolveInconsistencyError("outside reduction failed")
        a = {}
        for i in block:
            hat = tuple(j for j in block if j != i)
            a[i] = state.cur.component(hat)
        if any(any(a[i].linear_coefficients()[k] != 0 for k in range(p + 1, n))
               for i in block):
            raise SolveInconsistencyError("outside reduction failed")

    achieved = state.cur
    # The raw a_i coefficients transform with a transpose twist under block
    # changes (they pair with the cofactor representation on dz-hat), so the
    # matrix whose Jordan data is the actual invariant is the one of the dual
    # tensor's vector-field factor. Read it through the duality.
    dual = form_to_tensor(achieved)
    tail = tuple(range(p + 1, n))
    B = [[Fraction(0)] * (p + 1) for _ in range(p + 1)]
    for key, coeff in dual.comps.items():
        if key[1:] != tail or key[0] > p:
            raise SolveInconsistencyError("type 2 dual tensor has a bad shape")
        j = key[0]
        lin = coeff.linear_coefficients()
        for i in block:
            B[i][j] = lin[i]
        if any(lin[k] != 0 for k in range(p + 1, n)):
            raise SolveInconsistencyError("type 2 field involves outside variables")
    A = RatMatrix(B)
    eigen = eigen_data(A)
    jordan = _rational_jordan(A) if eigen.all_rational else None
    nf = NormalForm("type2", matrix=A, char_coeffs=eigen.char_coeffs)
    return ClassificationReport(nf, state.change_map(), achieved,
                                n, p, q, rational_jordan=jordan, eigen=eigen)


def _reduce_outside_dependence(state: _State, p: int, a: Dict[int, Poly],
                               outside: List[int]):
    """Paper Subcase b of the Type-2 normalization: omega = a * (constant form)."""
    n = state.n
    j0 = outside[0]
    base = a[j0].linear_coefficients()
    # all a_i must be rational multiples of a_{j0}
    c = {}
    for i in range(p + 1):
        coeffs = a[i].linear_coefficients()
        if all(v == 0 for v in coeffs):
            c[i] = Fraction(0)
            continue
        ratio = None
        for x, y in zip(coeffs, base):
            if y == 0:
                if x != 0:
                    raise SolveInconsistencyError(
                        "a_i are not proportional: input is not co-Nambu")
            elif ratio is None:
                ratio = x / y
        if ratio is None:
            raise SolveInconsistencyError("proportionality reduction failed")
        for x, y in zip(coeffs, base):
            if x != ratio * y:
                raise SolveInconsistencyError(
                    "a_i are not proportional: input is not co-Nambu")
        c[i] = ratio
    # constant form omega_c = sum_i c_i dz-hat_i on the block; solve i_w omega_c = 0
    wc = DiffForm(n, p, {})
    for i in range(p + 1):
        hat = tuple(j for j in range(p + 1) if j != i)
        if c[i]:
            wc = wc + DiffForm(n, p, {hat: Poly.const(n, c[i])})
    contractions = [interior(basis_multivector(n, (v,)), wc) for v in range(p + 1)]
    system = []
    for row_key in itertools.combinations(range(p + 1), p - 1):
        system.append([contractions[v].component(row_key).constant_term()
                       for v in range(p + 1)])
    sol = RatMatrix(system).nullspace()
    if len(sol) != 1:
        raise SolveInconsistencyError("constant factor form has no unique kernel")
    w = sol[0]
    # eta rows: annihilator of w inside the block
    ann = RatMatrix([w]).nullspace()
    eta = []
    for v in ann:
        row = [Fraction(0)] * n
        for i in range(p + 1):
            row[i] = v[i]
        eta.append(row)
    arow = a[j0].linear_coefficients()
    T = complete_basis(eta + [arow], n)
    state.apply(T)
    # now omega = lambda * z_{p+1} dz_1^...^dz_p; normalize lambda into z_{p+1}
    hat = tuple(range(p))
    lam_poly = state.cur.component(hat)
    lam = lam_poly.linear_coefficients()[p]
    if lam == 0:
        raise SolveInconsistencyError("proportional reduction lost the factor")
    Tscale = RatMatrix.identity(n).copy_data()
    Tscale[p][p] = lam
    state.apply(RatMatrix(Tscale))


# ---------------------------------------------------------------------------
# invariants (Definition of nondegeneracy, ellipticity, signature, index)
# ---------------------------------------------------------------------------

def nondegeneracy(report: ClassificationReport) -> ClassificationReport:
    """Fill the invariants derived from the achieved normal form."""
    nf = report.normal_form
    q = report.q
    if nf.tag == "type1":
        n_plus = sum(1 for v in nf.signs if v > 0)
        n_minus = len(nf.signs) - n_plus
        report.nondegenerate = (nf.r == q and nf.s == 0)
        report.signature = abs(n_plus - n_minus)
        if report.nondegenerate:
            report.elliptic = (n_plus == 0 or n_minus == 0)
            report.index_pair = tuple(sorted((n_minus, q + 1 - n_minus)))
            report.zero_set_dim = report.nvars - q - 1
        else:
            report.elliptic = False
            report.index_pair = None
            report.zero_set_dim = None
    else:
        report.nondegenerate = nf.matrix.det() != 0
        report.elliptic = None
        report.signature = None
        report.index_pair = None
        report.zero_set_dim = q - 1 if report.nondegenerate else None
    return report


# ---------------------------------------------------------------------------
# rational Jordan form (metadata when all eigenvalues are rational)
# ---------------------------------------------------------------------------

def _rational_jordan(A: RatMatrix) -> Optional[RatMatrix]:
    ed = eigen_data(A)
    if not ed.all_rational:
        return None
    n = A.rows
    blocks: List[Tuple[Fraction, int]] = []
    for lam in sorted(set(ed.rational_eigenvalues)):
        mult = ed.rational_eigenvalues.count(lam)
        N = RatMatrix([[A[i, j] - (lam if i == j else 0) for j in range(n)]
                       for i in range(n)])
        dims = [0]
        power = RatMatrix.identity(n)
        while dims[-1] < mult:
            power = power.matmul(N)
            dims.append(n - power.rank())
        # number of blocks of size >= k is dims[k] - dims[k-1]
        for k in range(1, len(dims)):
            count_ge_k = dims[k] - dims[k - 1]
            count_ge_k1 = (dims[k + 1] - dims[k]) if k + 1 < len(dims) else 0
            for _ in range(count_ge_k - count_ge_k1):
                blocks.append((lam, k))
    blocks.sort(key=lambda t: (t[0], -t[1]))
    out = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            out[pos + i][pos + i] = lam
            if i + 1 < size:
                out[pos + i][pos + i + 1] = Fraction(1)
        pos += size
    return RatMatrix(out)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def classify_linear_tensor(P: Multivector,
                           Omega: Optional[DiffForm] = None) -> ClassificationReport:
    """Classify a linear Nambu tensor; report rendered in tensor conventions.

    The permutation to the tensor convention (active block first) is folded
    into the change, and the achieved tensor absorbs the determinant factor so
    pushforward_tensor(P, report.change) == report.achieved_tensor exactly.
    """
    q = P.grade
    n = P.nvars
    omega = tensor_to_form(P, Omega)
    report = classify_linear(omega)
    p = n - q

    # permutation to the tensor convention: active block first, parameters last
    if report.normal_form.tag == "type1":
        order = list(range(p - 1, n)) + list(range(p - 1))
    else:
        order = list(range(p + 1, n)) + list(range(p + 1))
    # new coordinate i is the old coordinate order[i]
    perm = RatMatrix([[Fraction(int(j == order[i])) for j in range(n)]
                      for i in range(n)])
    acc = perm.matmul(report.change.linear_matrix())
    change = FormalMap.from_matrix(acc)
    achieved_form = pullback_form(report.achieved_form,
                                  FormalMap.from_matrix(perm.inverse()))
    det = acc.det()
    achieved_tensor = form_to_tensor(achieved_form).scale(det)

    report.change = change
    report.achieved_form = achieved_form
    report.achieved_tensor = achieved_tensor

    if report.normal_form.tag == "type2":
        report.tensor_matrix = _extract_type2_field_matrix(achieved_tensor, q)
        report.eigen = eigen_data(report.tensor_matrix)
        report.rational_jordan = (_rational_jordan(report.tensor_matrix)
                                  if report.eigen.all_rational else None)
    return report


def _extract_type2_field_matrix(P: Multivector, q: int) -> RatMatrix:
    """Read b with P = d1^...^d_{q-1}^(sum b^i_j x_i d_j) over the last block."""
    n = P.nvars
    frame = tuple(range(q - 1))
    yidx = list(range(q - 1, n))
    m = len(yidx)
    B = [[Fraction(0)] * m for _ in range(m)]
    for key, c in P.comps.items():
        if key[:q - 1] != frame or len(key) != q:
            raise SolveInconsistencyError("achieved tensor is not in Type 2 shape")
        j = key[q - 1]
        coeffs = c.linear_coefficients()
        for ii, i in enumerate(yidx):
            B[ii][yidx.index(j)] = coeffs[i]
        for k in range(n):
            if coeffs[k] != 0 and k not in yidx:
                raise SolveInconsistencyError("Type 2 field involves frame variables")
    return RatMatrix(B)


# ---------------------------------------------------------------------------
# normal-form fixture factory
# ---------------------------------------------------------------------------

def normal_form_generator(tag: str, n: int, q: int,
                          r: Optional[int] = None, s: Optional[int] = None,
                          signs: Optional[Sequence[int]] = None,
                          matrix: Optional[RatMatrix] = None
                          ) -> Tuple[Multivector, DiffForm]:
    """Emit the exact normal-form tensor and its dual form (tensor convention).

    Type 1 takes the quadratic sign pattern (the Definition-3.4 invariant);
    the Corollary-shaped tensor is produced by dualizing, so its raw
    coefficient signs carry the alternating duality twist.
    """
    p = n - q
    if q < 3 or p < 1:
        raise PreconditionError(f"need q >= 3 and p >= 1, got q={q}, n={n}")
    if tag == "type1":
        if r is None or s is None or signs is None:
            raise InputError("type1 needs r, s and a sign pattern")
        if not -1 <= r <= q:
            raise InputError(f"r={r} outside -1..q={q}")
        if not 0 <= s <= min(p - 1, q - r):
            raise InputError(f"s={s} outside 0..min(p-1, q-r)={min(p - 1, q - r)}")
        if len(signs) != r + 1 or any(v not in (1, -1) for v in signs):
            raise InputError("sign pattern must be +-1 of length r+1")
        alpha = DiffForm(n, 1, {})
        for j, eps in enumerate(signs):
            alpha = alpha + coordinate_form(n, j).poly_scale(
                Poly.variable(n, j).scale(eps))
        for i in range(1, s + 1):
            alpha = alpha + coordinate_form(n, r + i).poly_scale(
                Poly.variable(n, q + i))
        omega = alpha
        for k in range(q + 1, n):
            omega = wedge(omega, coordinate_form(n, k))
        P = form_to_tensor(omega)
        return P, omega
    if tag == "type2":
        if matrix is None:
            raise InputError("type2 needs the (p+1) x (p+1) matrix")
        if matrix.rows != p + 1 or matrix.cols != p + 1:
            raise InputError(
                f"matrix must be {p + 1} x {p + 1}, got {matrix.rows} x {matrix.cols}")
        field = Multivector(n, 1, {})
        for bi in range(p + 1):
            for bj in range(p + 1):
                cval = matrix[bi, bj]
                if cval:
                    field = field + Multivector(
                        n, 1, {(q - 1 + bj,): Poly.variable(n, q - 1 + bi).scale(cval)})
        P = wedge(basis_multivector(n, tuple(range(q - 1))), field)
        omega = tensor_to_form(P)
        return P, omega
    raise InputError(f"unknown tag {tag!r}")
