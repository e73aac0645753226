"""Classification of linear co-Nambu forms and Nambu tensors.

Implements the constructive normal-form proof: build the span table E_j of
the constant forms omega_j, split on dim(intersection E_j) >= p-1 into the
wedge-times-exact-differential family (Type 1) and the linear-vector-field
family (Type 2), and return the exact linear coordinate change together with
the achieved normal form.

Coordinate conventions. Form reports use parameters first: z_1..z_{p-1} are
the wedge prefix, the quadratic block sits on z_p..z_n. Tensor reports use
the dual convention (active block first, parameters last): the block swap is
the classifier's last move, so a tensor report comes from the final state,
every per-variable field in its own coordinates, and is certified as printed.

Over Q the quadratic part diagonalizes to entries sign_j * c_j with c_j > 0
rational; scaling them to +-1 needs square roots and is provided only as a
floating-point companion. Every exact assertion in the report is made
against the achieved form, which is reachable without radicals.

A classification certifies its own result: it succeeds only when the achieved
form has its normal shape and pulls back exactly to the input along the
reported change. Every normal shape is co-Nambu and pullback along an
invertible linear map keeps that property, so a certified result proves the
input co-Nambu, and the co-Nambu check (verify.is_conambu) runs only after a
step has failed, to tell a non-co-Nambu input (exit 3) from an internal
failure (exit 4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .polyalg import (
    InputError,
    NambuError,
    Poly,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
    _eliminate,
    _integer_rows,
    _rref_kernel,
    _rref_with_transform,
    char_poly,
    inertia,
    solve_sparse,
)
from .exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    _contract,
    _index_table,
    _integer_parts,
    _prefix_minors,
    basis_multivector,
    coordinate_form,
    field_matrix,
    form_to_tensor,
    formal_map_to_json,
    linear_rows,
    prefix_blocks,
    tensor_to_form,
    wedge,
)
from .verify import _require_order, is_conambu


# ---------------------------------------------------------------------------
# exact subspace utilities (row spaces over Q)
# ---------------------------------------------------------------------------

def rowspace_basis(rows: Sequence[Sequence], n: int) -> RatMatrix:
    """The canonical basis of the row space (rows of ints or rationals): its
    reduced row echelon rows, from one integer elimination."""
    return RatMatrix._make(*_eliminate(rows, n).reduced_ints)


def _annihilator(S: RatMatrix) -> List[List[int]]:
    """Integer rows spanning the annihilator of the row space of S, a
    canonical basis: read off its reduced rows, whose pivot entries are 1."""
    pivots = [next(k for k, v in enumerate(row) if v) for row in S.num]
    return _rref_kernel(S.num, pivots, S.den, S.cols)


def intersect_rowspaces(*spaces: RatMatrix) -> RatMatrix:
    """The intersection of the row spaces, each given by its canonical basis
    (`rowspace_basis`): the annihilator of the sum of their annihilators,
    found by one elimination."""
    n = spaces[0].cols
    if any(S.rows == 0 for S in spaces):
        return RatMatrix.zeros(0, n)
    return rowspace_basis(_eliminate([v for S in spaces for v in _annihilator(S)], n)
                          .kernel_ints[0], n)


def sum_rowspaces(spaces: Sequence[RatMatrix], n: int) -> RatMatrix:
    # a row space is the span of its integer rows, whatever the denominator
    return rowspace_basis([row for S in spaces for row in S.num], n)


def complete_basis(rows: Sequence[Sequence], n: int, den: int = 1) -> RatMatrix:
    """Extend independent rows to an invertible n x n matrix with unit vectors.

    The rows are rational rows, or integer rows over the denominator den.
    e_i is taken exactly when it is not in the span of the rows and e_0..e_{i-1},
    that is, when i is a pivot column of the rows' annihilator.
    """
    annihilator = _eliminate(rows, n).kernel_ints[0]
    chosen = [list(r) for r in rows]
    chosen += [[den * (j == i) for j in range(n)] for i in _eliminate(annihilator, n).pivots]
    if len(chosen) != n:
        raise SolveInconsistencyError("could not complete a basis")
    num, d = _integer_rows(chosen)
    return RatMatrix._make(num, d * den)


def _rows_over(pairs) -> RatMatrix:
    """The matrix with rows row / d, for pairs (integer row, nonzero int d)."""
    L = math.lcm(*[d for _, d in pairs])
    return RatMatrix._make([[v * (L // d) for v in row] for row, d in pairs], L)


def _unit_rows(n: int) -> list:
    """The identity as pairs for `_rows_over`, one row to be replaced at a time."""
    return [([int(i == j) for j in range(n)], 1) for i in range(n)]


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
        return intersect_rowspaces(*(self.entries[j] for j in idx))


def _require_linear(omega: DiffForm):
    for c in omega.comps.values():
        if c and (c.min_degree() != 1 or c.degree != 1):
            raise PreconditionError("classification needs a homogeneous linear form")


def span_table(omega: DiffForm) -> SpanTable:
    """E_j = span{ i_A omega_j : A a constant (p-1)-vector } for omega = sum x_j omega_j."""
    _require_linear(omega)
    n, p = omega.nvars, omega.grade
    parts = _integer_parts(omega)
    contract, _ = _index_table(n, p)
    entries: List[Optional[RatMatrix]] = []
    for j in range(n):
        wj = parts.get(tuple(int(i == j) for i in range(n)), {})
        rows = []
        for cmap in contract.values():
            row = [0] * n
            for K, v in wj.items():
                if (hit := cmap.get(K)):
                    i, s = hit
                    row[i] = v if s > 0 else -v
            if any(row):
                rows.append(row)
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
    matrix: Optional[RatMatrix] = None         # type 2, in the report's convention


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
    numeric_companion: Optional[List[float]] = None  # per-variable scale to +-1
    achieved_tensor: Optional[Multivector] = None

    def to_json_obj(self) -> dict:
        nf = self.normal_form
        out = {"type": "1" if nf.tag == "type1" else "2"}
        if nf.tag == "type1":
            out["r"] = nf.r
            out["s"] = nf.s
            out["signs"] = nf.signs
            out["diag"] = [str(v) for v in nf.diag]
        else:
            out["matrix"] = nf.matrix.to_str_rows()
            coeffs = char_poly(nf.matrix)
            text = Poly(1, {(k,): c for k, c in enumerate(coeffs)}).to_str("t")
            out["char_poly"] = text.replace("t1", "t")
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
    """A linear p-form in the current coordinates, as a constant array.

    The form is sum_K (sum_k num[K][k] z_k / den) dz_K, with integer rows
    num[K] (none zero) over den > 0 in lowest terms; x_input =
    (back / back_den) . z_current is kept the same way, and `coeffs` is the
    Fraction view of the array, built when read.
    """

    def __init__(self, omega: DiffForm):
        self.n, self.p = omega.nvars, omega.grade
        self.num, self.den = linear_rows(omega.comps, self.n)
        self.back = {i: [int(i == j) for j in range(self.n)] for i in range(self.n)}
        self.back_den = 1

    def apply(self, A: RatMatrix):
        """Switch to coordinates z_new with z_current = A . z_new, on A's
        integer rows over its denominator."""
        a, d = A.num, A.den
        self.num, self.den = _pull_back(self.num, self.den, a, d)
        self.back, self.back_den = _lowest_terms(
            {i: _row_times(row, a) for i, row in self.back.items()}, self.back_den * d)

    @property
    def coeffs(self) -> Dict[Tuple[int, ...], List[Fraction]]:
        """{K: Fraction coefficients of component K}, built when read."""
        return {K: [Fraction(v, self.den) for v in row] for K, row in self.num.items()}

    def row(self, K: Tuple[int, ...]) -> List[int]:
        """The numerators of component K over den."""
        return self.num.get(K) or [0] * self.n

    def form(self) -> DiffForm:
        n, den = self.n, self.den
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        return DiffForm(n, self.p, {
            K: Poly._make(n, {units[k]: v for k, v in enumerate(row) if v}, den)
            for K, row in self.num.items()})

    def change_map(self) -> FormalMap:
        """The change z_current = back^-1 . x_input."""
        back = RatMatrix._make(list(self.back.values()), self.back_den)
        return FormalMap.from_matrix(back.inverse())


def _lowest_terms(rows: dict, den: int):
    """(rows, den) divided by the gcd of den and every entry of the rows."""
    g = math.gcd(den, *itertools.chain.from_iterable(rows.values()))
    if g == 1:
        return rows, den
    return {k: [v // g for v in row] for k, row in rows.items()}, den // g


def _pull_back(num: dict, den: int, a: List[List[int]], d: int) -> Tuple[dict, int]:
    """The constant array num / den pulled back along x = (a / d) z, with a
    an integer matrix, in lowest terms.

    dx_i becomes (1/d) sum_l a_il dz_l, so component K (of grade p) sends
    det(a[K, L]) times its row c_K . a to component L, all over den * d^(p+1).
    Zero rows are dropped.
    """
    n = len(a)
    rows = [{(l,): v for l, v in enumerate(row) if v} for row in a]
    minors = _prefix_minors(rows, num, 1)  # wedge of the rows a_i, i in K
    out: Dict[Tuple[int, ...], List[int]] = {}
    for K, c in num.items():
        cA = _row_times(c, a)
        for L, m in minors[K].items():
            row = out.setdefault(L, [0] * n)
            for k, v in enumerate(cA):
                if v:
                    row[k] += m * v
    out = {L: row for L, row in out.items() if any(row)}
    return _lowest_terms(out, den * d ** (len(next(iter(out), ())) + 1))


def _row_times(row: Sequence[int], M: Sequence[Sequence[int]]) -> List[int]:
    """The row vector row . M, visiting only the nonzero entries."""
    out = [0] * len(M[0])
    for k, v in enumerate(row):
        if v:
            for j, x in enumerate(M[k]):
                if x:
                    out[j] += v * x
    return out


def _block_diag(n: int, blocks: Dict[Tuple[int, int], RatMatrix]) -> RatMatrix:
    L = math.lcm(*[B.den for B in blocks.values()])
    out = [[L * (i == j) for j in range(n)] for i in range(n)]
    for (lo, hi), B in blocks.items():
        if B.rows != hi - lo or B.cols != hi - lo:
            raise ValueError("block size mismatch")
        f = L // B.den
        for i, row in enumerate(B.num, lo):
            out[i][lo:hi] = [v * f for v in row]
    return RatMatrix._make(out, L)


def _alpha_matrix(state: _State, p: int) -> List[List[int]]:
    """M[j][k] = coefficient of z_k in alpha_j, as a numerator over state.den,
    where the form is dz_1^...^dz_{p-1} ^ alpha."""
    n = state.n
    prefix = tuple(range(p - 1))
    M = [[0] * n for _ in range(n)]
    for K, row in state.num.items():
        if K[:-1] != prefix:
            raise SolveInconsistencyError(
                "form is not divisible by the parameter prefix")
        M[K[-1]] = list(row)
    return M


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def classify_linear(omega: DiffForm) -> ClassificationReport:
    """Classify a linear co-Nambu p-form into its Type 1 / Type 2 normal form.

    Returns the report with an exact linear change satisfying
    pullback_form(achieved_form, change) == omega.

    The result certifies itself. It is returned only when the achieved form
    has its normal shape (Type 1: dz_1^...^dz_{p-1} ^ dF with F quadratic;
    Type 2: components on the (p+1)-block whose coefficients involve no
    outside variable) and pulls back exactly to omega along the change. Both
    shapes are co-Nambu: Type 1 is a wedge of exact 1-forms (criterion 1), and
    the Type 2 dual is d_tail ^ X, a wedge of commuting vector fields. Pullback
    along an invertible linear map keeps the co-Nambu property, so a certified
    result proves omega co-Nambu. The co-Nambu check therefore runs only after
    a step fails: if omega fails it, its witness is raised as a
    PreconditionError; otherwise the step's own error is re-raised.
    """
    return _certified_report(omega, tensor=False)


def _certified_report(omega: DiffForm, tensor: bool) -> ClassificationReport:
    """The certified classification of omega, reported in tensor conventions
    when tensor is set, or the reason it has none."""
    _require_linear(omega)
    if omega.grade < 1:
        raise PreconditionError("a co-Nambu form must have grade >= 1")
    _require_order(omega.nvars - omega.grade)
    try:
        return _classify(omega, tensor)
    except (NambuError, ValueError, ZeroDivisionError) as exc:
        verdict = is_conambu(omega)
        if not verdict.passed:
            raise PreconditionError(
                f"input is not co-Nambu: equation {verdict.witness.equation} fails "
                f"for A = {tuple(i + 1 for i in verdict.witness.A)}") from exc
        raise


def _classify(omega: DiffForm, tensor: bool) -> ClassificationReport:
    """The cases move the state to normal coordinates; with tensor, the last
    move is the block swap to the tensor convention. One report is built
    from the final state and certified as it is returned."""
    n, p = omega.nvars, omega.grade
    q = n - p
    state = _State(omega)
    nf, scales = NormalForm("type1", r=-1, s=0, signs=[], diag=[]), None
    if not omega.is_zero():
        table = span_table(omega)
        E = table.common_intersection()
        if E.rows >= p - 1:
            nf, scales = _case1(state, E, p)
        else:
            nf, scales = _case2(state, table, p)
    if tensor:
        # active block first, parameters last: new coordinate k is the old
        # coordinate order[k], so z_old = A . z_new with A[i][k] = [i == order[k]]
        cut = p - 1 if nf.tag == "type1" else p + 1
        order = list(range(cut, n)) + list(range(cut))
        state.apply(RatMatrix._make([[int(i == order[k]) for k in range(n)] for i in range(n)]))
        if scales:
            scales = [scales[k] for k in order]
    change, achieved = state.change_map(), state.form()
    L = change.linear_matrix()
    achieved_tensor = form_to_tensor(achieved).scale(L.det()) if tensor else None
    if nf.tag == "type2":
        if tensor:
            nf.matrix = _type2_field(achieved_tensor, SolveInconsistencyError)
        else:
            # the a_i transform with a transpose twist under block changes (they
            # pair with the cofactor representation on dz-hat), so the invariant
            # matrix is the one of the dual tensor's vector-field factor: each
            # dual component is (j,) + the outside variables, j in the block
            dual = form_to_tensor(achieved)
            nf.matrix = field_matrix(
                Multivector(n, 1, {key[:1]: c for key, c in dual.comps.items()}), range(p + 1))
    report = nondegeneracy(ClassificationReport(
        nf, change, achieved, n, p, q, numeric_companion=scales,
        achieved_tensor=achieved_tensor))
    # the certificate: the reported change (L, read off its polynomials) pulls
    # the reported achieved form back to the input
    if _pull_back(*linear_rows(achieved.comps, n), L.num, L.den) != linear_rows(omega.comps, n):
        raise SolveInconsistencyError(
            "classification certificate failed: the change does not pull "
            "the normal form back to the input")
    return report


def _case1(state: _State, E: RatMatrix, p: int) -> Tuple[NormalForm, Optional[List[float]]]:
    n = state.n
    # coordinates: p-1 covectors from E, completed arbitrarily
    prefix_rows = E.num[:p - 1]
    if 1 < p <= E.rows:
        # omega = l vol_E, and every component's coefficients are proportional
        # to l. With l in E, a prefix that contains l gives r = -1, s = 1 and
        # one that does not gives r = 0, s = 0 for the same form; drop the last
        # row of E that l involves, so the report reads r = 0 in all coordinates.
        # E^T x = l is solved on the integer rows, which scales x by a
        # positive constant and keeps its zero pattern.
        l = next(iter(state.num.values()))
        inside = solve_sparse([{i: v for i, v in enumerate(col) if v} for col in zip(*E.num)],
                              E.rows, l)
        if inside.consistent:
            t = max(i for i, a in enumerate(inside.solution) if a)
            prefix_rows = [row for i, row in enumerate(E.num) if i != t][:p - 1]
    state.apply(complete_basis(prefix_rows, n, E.den).inverse())

    y = list(range(p - 1, n))
    M = _alpha_matrix(state, p)
    # curl of alpha in the y-variables
    D = [[M[j][k] - M[k][j] for k in y] for j in y]
    if not any(map(any, D)):
        return _case1_closed(state, M, p)
    return _case1_curl(state, RatMatrix._make(D, state.den), p), None


def _case1_closed(state: _State, M: List[List[int]], p: int
                  ) -> Tuple[NormalForm, List[float]]:
    """Subcase d'alpha = 0: diagonalize the quadratic, normalize the pairings.

    M is the alpha matrix of the current form (_alpha_matrix). Returns the
    normal form and the per-variable scales to +-1."""
    n = state.n
    y = list(range(p - 1, n))
    inr = inertia(RatMatrix._make([[M[j][k] for k in y] for j in y], state.den))
    # order the diagonal: positive entries, then negative, then zeros
    order = sorted(range(len(y)),
                   key=lambda i: (0 if inr.diagonal[i] > 0 else
                                  1 if inr.diagonal[i] < 0 else 2, i))
    # z_old = C . P^T . z_new on the y block, P the permutation to that order:
    # column k of C P^T is column order[k] of C
    C = inr.congruence
    state.apply(_block_diag(n, {(p - 1, n): RatMatrix._make(
        [[row[i] for i in order] for row in C.num], C.den)}))

    rank = inr.n_plus + inr.n_minus
    r = rank - 1
    quad = y[:rank]
    free = y[rank:]

    # absorb parameter-linear parts on the quadratic slots: u_j = z_j + A_j / d_j,
    # row j of the move being e_j - sum_i (M[j][i] / M[j][j]) e_i over the parameters
    M = _alpha_matrix(state, p)
    if any(M[j][j] == 0 for j in quad):
        raise SolveInconsistencyError("quadratic block lost rank")
    if p > 1:
        rows = _unit_rows(n)
        for j in quad:
            row = [-v for v in M[j][:p - 1]] + [M[j][j] * (k == j) for k in range(p - 1, n)]
            rows[j] = (row, M[j][j])
        state.apply(_rows_over(rows))

    # pairing block: parameter coefficients on the free y slots
    s = 0
    if p > 1 and free:
        M = _alpha_matrix(state, p)
        pairing = RatMatrix._make([[M[j][i] for j in free] for i in range(p - 1)], state.den)
        s = pairing.rank()
        if s:
            U, W = _rank_normalize(pairing)
            # z_old = U^T . z_new on the parameters and W . z_new on the free slots
            state.apply(_block_diag(n, {(0, p - 1): U.transpose(), (free[0], n): W}))
            # exact cleanup: rescale each paired free slot so the coefficient is 1
            M = _alpha_matrix(state, p)
            rows = _unit_rows(n)
            for i in range(s):
                mu = M[free[i]][i]
                if mu == 0:
                    raise SolveInconsistencyError("pairing normalization failed")
                rows[free[i]] = ([state.den * (k == free[i]) for k in range(n)], mu)
            state.apply(_rows_over(rows))

    # final shape verification: d_j z_j dz_j on the quadratic slots and
    # z_i dz_{free_i} on the paired ones, behind the parameter prefix
    M = _alpha_matrix(state, p)
    diag = [M[j][j] for j in quad]
    prefix = tuple(range(p - 1))
    shape = {prefix + (j,): [d * (k == j) for k in range(n)] for j, d in zip(quad, diag)}
    for i in range(s):
        shape[prefix + (free[i],)] = [state.den * (k == i) for k in range(n)]
    if shape != state.num:
        raise SolveInconsistencyError("Type 1 normalization did not reach the normal shape")

    diag = [Fraction(d, state.den) for d in diag]
    signs = [1 if d > 0 else -1 for d in diag]
    scales = [1.0] * n
    for idx, j in enumerate(quad):
        scales[j] = 1.0 / math.sqrt(abs(float(diag[idx])))
    return NormalForm("type1", r=r, s=s, signs=signs, diag=diag), scales


def _rank_normalize(M: RatMatrix) -> Tuple[RatMatrix, RatMatrix]:
    """Invertible U, W with U M W = [[I_s, 0], [0, 0]]."""
    R, U, pivots = _rref_with_transform(M)
    # W = W1 . P: W1 clears the non-pivot entries of each pivot row by column
    # operations, and P moves the pivot columns to the front, so column j of
    # W is column order[j] of W1
    order = list(pivots) + [c for c in range(M.cols) if c not in pivots]
    W1 = [[R.den * (i == j) for j in range(M.cols)] for i in range(M.cols)]
    for k, c in enumerate(pivots):
        for d in range(M.cols):
            if d not in pivots and R.num[k][d]:
                W1[c][d] = -R.num[k][d]
    return U, RatMatrix._make([[row[j] for j in order] for row in W1], R.den)


def _case1_curl(state: _State, Dm: RatMatrix, p: int) -> NormalForm:
    """Subcase d'alpha != 0: on a co-Nambu form the curl has rank 2 and alpha
    lives on its two slots after the move below; land in Type 2."""
    n = state.n
    f = n - p + 1
    D = Dm.num
    a, b = next((i, j) for i in range(f) for j in range(i + 1, f) if D[i][j])
    # columns: e_a, e_b / D[a][b], then the kernel of rows a and b; rows a and
    # b are independent (D is antisymmetric), so these columns are a basis
    kern, d = _eliminate([D[a], D[b]], f).kernel_ints
    columns = _rows_over([([int(i == a) for i in range(f)], 1),
                          ([Dm.den * (i == b) for i in range(f)], D[a][b])]
                         + [(k, d) for k in kern])
    # now d'alpha = dz_p ^ dz_{p+1}
    state.apply(_block_diag(n, {(p - 1, n): columns.transpose()}))
    return _type2_finisher(state, p)


def _case2(state: _State, table: SpanTable, p: int) -> Tuple[NormalForm, None]:
    n = state.n
    U = sum_rowspaces([table.entries[j] for j in table.nonzero_indices()], n)
    if U.rows != p + 1:
        raise SolveInconsistencyError(
            f"sum of spans has dimension {U.rows}, expected p+1: input is not co-Nambu")
    state.apply(complete_basis(U.num, n, U.den).inverse())
    return _type2_finisher(state, p), None


def _type2_finisher(state: _State, p: int) -> NormalForm:
    """Components live inside the first p+1 coordinates; read or reduce the a_i.

    a_i is the coefficient of dz-hat_i. When some a_i involves the outside
    variables, the reduction moves their common factor into z_{p+1}.
    """
    block = tuple(range(p + 1))
    hats = [tuple(j for j in block if j != i) for i in block]
    outside = [i for i, hat in enumerate(hats) if any(state.row(hat)[p + 1:])]
    if outside:
        _reduce_outside_dependence(state, p, [state.row(hat) for hat in hats], outside[0])
    # the Type 2 shape: components on the block, coefficients free of outside variables
    if any(key[-1] > p for key in state.num) or \
            any(any(state.row(hat)[p + 1:]) for hat in hats):
        raise SolveInconsistencyError("form does not reach the Type 2 shape on the (p+1)-block")
    return NormalForm("type2")


def _reduce_outside_dependence(state: _State, p: int, a: List[List[int]], j0: int):
    """Paper Subcase b of the Type-2 normalization: omega = a * (constant form).

    a[i] holds the linear coefficients of the dz-hat_i component, as
    numerators over state.den, and a[j0] involves an outside variable.
    """
    n = state.n
    base = a[j0]
    # on a co-Nambu form every a_i is c_i a_{j0}, with c_i = a[i][k] / base[k];
    # the shape check and the certificate catch any other input
    k = next(k for k, v in enumerate(base) if v)
    # constant form omega_c = sum_i c_i dz-hat_i on the block, up to the
    # factor 1 / base[k], which no kernel below sees; solve i_w omega_c = 0
    wc = {tuple(j for j in range(p + 1) if j != i): row[k] for i, row in enumerate(a) if row[k]}
    contractions = [_contract(wc, (v,)) for v in range(p + 1)]
    sol = _eliminate([[contractions[v].get(key, 0) for v in range(p + 1)]
                      for key in itertools.combinations(range(p + 1), p - 1)],
                     p + 1).kernel_ints[0]
    if len(sol) != 1:
        raise SolveInconsistencyError("constant factor form has no unique kernel")
    # eta rows: annihilator of w = sol[0] inside the block
    eta, d = _eliminate(sol, p + 1).kernel_ints
    rows = _rows_over([(v + [0] * (n - p - 1), d) for v in eta] + [(base, state.den)])
    state.apply(complete_basis(rows.num, n, rows.den).inverse())
    # now omega = lambda * z_{p+1} dz_1^...^dz_p; normalize lambda into z_{p+1}
    lam = state.row(tuple(range(p)))[p]
    if lam == 0:
        raise SolveInconsistencyError("proportional reduction lost the factor")
    rows = _unit_rows(n)
    rows[p] = ([state.den * (k == p) for k in range(n)], lam)
    state.apply(_rows_over(rows))


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
# tensors
# ---------------------------------------------------------------------------

def classify_linear_tensor(P: Multivector) -> ClassificationReport:
    """Classify a linear Nambu tensor; report rendered in tensor conventions.

    The tensor is classified through its dual form i_P (dx1^...^dxn), which
    is co-Nambu exactly when P is Nambu, whatever the volume form.

    The classifier's last move is the permutation to the tensor convention
    (active block first), and the achieved tensor absorbs the determinant
    factor so pushforward_tensor(P, report.change) == report.achieved_tensor
    exactly. The certificate is the one of classify_linear, run on the report
    as returned; the reported matrix, normal_form.matrix, is the
    tensor-convention one (`_type2_field`).
    """
    return _certified_report(tensor_to_form(P), tensor=True)


def _type2_field(P: Multivector, error: type) -> RatMatrix:
    """The matrix b of P's linear part d_1^...^d_{q-1} ^ sum b^i_j x_i d_j, the
    field on the last n - q + 1 variables and free of the frame variables.

    Raises `error` when the linear part has another shape.
    """
    S = P.grade - 1
    frame = tuple(range(S))
    blocks = prefix_blocks(P.homogeneous_component(1), S)
    if any(T != frame and not part.is_zero() for T, part in blocks.items()):
        raise error("linear part is not in Type 2 normal shape")
    if frame not in blocks:
        raise error("linear part vanishes")
    X = blocks[frame]
    if any(any(row[:S]) for row in linear_rows(X.comps, P.nvars)[0].values()):
        raise error("linear field involves frame variables")
    return field_matrix(X, range(S, P.nvars))


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
