"""Exact polynomial and matrix layer: spec examples plus algebraic properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu.polyalg import (
    GradedSystem,
    Poly,
    PolyParseError,
    PreconditionError,
    RatMatrix,
    char_poly,
    eigen_data,
    inertia,
    parse_poly,
    rational_roots,
    solve_linear,
    solve_sparse,
)


def P(text, nvars):
    return parse_poly(text, nvars)


def random_poly(rng, nvars, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(nvars, terms)


def random_invertible(rng, n, spread=3):
    """Product of unimodular triangular matrices: invertible, small entries."""
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-spread, spread))
            upper[j][i] = Fraction(rng.randint(-spread, spread))
    return RatMatrix(lower).matmul(RatMatrix(upper))


# -- arithmetic (spec examples) ---------------------------------------------

def test_mul_difference_of_squares():
    assert P("x1+x2", 2).mul(P("x1-x2", 2)) == P("x1^2-x2^2", 2)


def test_add_zero_identity():
    p = P("3/2*x1^2*x3 - x2 + 1", 3)
    assert p + Poly.zero(3) == p


def test_scale_cancels():
    assert P("1/2*x1^2", 2).scale(2) == P("x1^2", 2)


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        P("x1", 1) + P("x1", 2)


def test_partial_examples():
    assert P("x1^2*x3", 3).partial(0) == P("2*x1*x3", 3)
    assert P("x1^3", 3).partial(1) == Poly.zero(3)
    assert P("x1*x2 + x1", 2).partial(0) == P("x2 + 1", 2)
    with pytest.raises(IndexError):
        P("x1", 2).partial(2)


def test_homogeneous_component_examples():
    assert P("1 + x1 + x1*x2", 2).homogeneous_component(1) == P("x1", 2)
    p = P("x1^2 + x2^2", 2)
    assert p.homogeneous_component(2) == p
    assert P("x1^2", 2).homogeneous_component(1) == Poly.zero(2)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert a + b == b + a
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b + c) == a.mul(b) + a.mul(c)
        assert (a + b) - b == a


def test_partials_commute_randomized():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        p = random_poly(rng, n, max_degree=4)
        i, j = rng.randrange(n), rng.randrange(n)
        assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_homogeneous_components_sum_to_poly():
    rng = random.Random(13)
    for _ in range(30):
        p = random_poly(rng, 3, max_degree=5)
        total = Poly.zero(3)
        d = 0
        while d <= (p.degree if p.terms else 0):
            total = total + p.homogeneous_component(d)
            d += 1
        assert total == p


# -- product kernel against a schoolbook reference ---------------------------

def _schoolbook_mul(a, b, trunc=None):
    """Every term pair, Fraction arithmetic, cut afterwards: the reference."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if trunc is None or sum(e) <= trunc:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _schoolbook_substitute(p, args, trunc=None):
    m = args[0].nvars
    out = {}
    for exps, c in p.terms.items():
        term = Poly.const(m, c)
        for a, k in zip(args, exps):
            for _ in range(k):
                term = Poly(m, _schoolbook_mul(term, a))
        for e, v in term.terms.items():
            out[e] = out.get(e, Fraction(0)) + v
    full = {e: c for e, c in out.items() if c}
    return {e: c for e, c in full.items() if trunc is None or sum(e) <= trunc}


def _assert_stored_clean(p):
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values())


# mixed denominators, and zeros that the constructor must drop
_coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def kernel_polys(draw, nvars, max_degree=None):
    """A random polynomial of total degree <= max_degree (if given); sometimes
    zero, sometimes a (p + r)(p - r) factor whose cross terms cancel."""
    def raw(cap):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nvars), _coeff, max_size=5))
        return Poly(nvars, {e: c for e, c in terms.items() if cap is None or sum(e) <= cap})
    shape = draw(st.sampled_from(["plain", "plain", "zero", "cancel"]))
    if shape == "zero":
        p = raw(max_degree)
        return p - p
    if shape == "cancel":
        half = None if max_degree is None else max_degree // 2
        p, r = raw(half), raw(half)
        return Poly(nvars, _schoolbook_mul(p + r, p - r))
    return raw(max_degree)


def _truncations(draw, low, high):
    """None, a cut below the lowest degree, or one between lowest and highest."""
    return draw(st.sampled_from([None, low - 1, draw(st.integers(low, max(low, high)))]))


def _degree_range(p):
    if not p.terms:
        return 0, 0
    return int(p.min_degree()), int(p.degree)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_matches_schoolbook(data):
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(kernel_polys(n)), data.draw(kernel_polys(n))
    (la, ha), (lb, hb) = _degree_range(a), _degree_range(b)
    trunc = _truncations(data.draw, la + lb, ha + hb)
    prod = a.mul(b, trunc)
    assert prod.terms == _schoolbook_mul(a, b, trunc)
    _assert_stored_clean(prod)
    if trunc is not None:
        assert prod == a.mul(b).truncate(trunc)
    # the cross terms of (a + b)(a - b) cancel
    square = (a + b).mul(a - b, trunc)
    assert square.terms == _schoolbook_mul(a + b, a - b, trunc)
    _assert_stored_clean(square)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pow_matches_schoolbook(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(kernel_polys(n))
    k = data.draw(st.integers(0, 4))
    low, high = _degree_range(a)
    trunc = _truncations(data.draw, k * low, k * high)
    expected = Poly.one(n).terms
    for _ in range(k):
        expected = _schoolbook_mul(Poly(n, expected), a, trunc)
    power = a.pow(k, trunc)
    assert power.terms == expected
    _assert_stored_clean(power)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_matches_schoolbook(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    p = data.draw(kernel_polys(n))
    # deg p * max deg args <= 24 keeps the schoolbook reference small
    cap = 24 // max(_degree_range(p)[1], 1)
    args = [data.draw(kernel_polys(m, cap)) for _ in range(n)]
    full = p.substitute(args)
    assert full.terms == _schoolbook_substitute(p, args)
    _assert_stored_clean(full)
    low, high = _degree_range(full)
    trunc = data.draw(st.sampled_from([max(low - 1, 0), data.draw(st.integers(low, high))]))
    cut = p.substitute(args, trunc)
    assert cut == full.truncate(trunc)
    assert cut.terms == _schoolbook_substitute(p, args, trunc)
    _assert_stored_clean(cut)


# -- parser ------------------------------------------------------------------

def test_parse_roundtrip_canonical():
    p = P("3/2*x1^2*x3 - x2 + 1", 3)
    assert parse_poly(p.to_str(), 3) == p


def test_parse_errors_have_positions():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x1^", 2)
    assert e.value.position == 3
    with pytest.raises(PolyParseError):
        parse_poly("x1 + ", 2)
    with pytest.raises(PolyParseError):
        parse_poly("x9", 2)
    with pytest.raises(PolyParseError):
        parse_poly("x1 * * x2", 2)
    with pytest.raises(PolyParseError):
        parse_poly("", 2)


def test_parse_implicit_multiplication():
    assert parse_poly("2x1x2", 2) == P("2*x1*x2", 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_print_roundtrip(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(kernel_polys(n))
    back = parse_poly(p.to_str(), n)
    assert back == p
    _assert_stored_clean(back)


def test_parse_cancelled_terms_leave_no_zero():
    p = parse_poly("x1 - x1 + 2", 1)
    assert p == Poly.const(1, 2)
    assert list(p.terms) == [(0,)]
    assert parse_poly("x1 - x1", 1).is_zero()
    assert parse_poly("0*x1 + 0", 1).is_zero()


_term_texts = st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["", "2*", "3/2*", "0*", "2 3/4 "]),
                        st.sampled_from(["1", "x1", "x2^2", "x1*x2", "x2 x1", "x1^0"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_term_texts, min_size=1, max_size=8))
def test_parse_term_order_is_the_fold_of_poly_add(terms):
    # downstream dict order (pivot ties, bucket order) follows the parsed
    # term order, so it must be the order of adding the terms one by one
    text = " ".join(sign + coeff + mon for sign, coeff, mon in terms)
    fold = Poly.zero(2)
    for sign, coeff, mon in terms:
        fold = fold + parse_poly(sign + coeff + mon, 2)
    assert list(parse_poly(text, 2).terms.items()) == list(fold.terms.items())


# -- linear solving -----------------------------------------------------------

def test_solve_identity():
    res = solve_linear(RatMatrix.identity(3), [1, 2, 3])
    assert res.solution == [Fraction(1), Fraction(2), Fraction(3)]
    assert res.kernel == []


def test_solve_rank1_consistent():
    res = solve_linear(RatMatrix([[1, 1], [2, 2]]), [1, 2])
    assert res.solution == [Fraction(1), Fraction(0)]
    assert len(res.kernel) == 1
    k = res.kernel[0]
    assert k[0] * 1 + k[1] * 1 == 0  # spans (1, -1)


def test_solve_rank1_inconsistent_witness():
    M = RatMatrix([[1, 1], [2, 2]])
    res = solve_linear(M, [1, 3])
    assert not res.consistent
    y = res.witness
    # Farkas certificate: y.M = 0 but y.b != 0
    for j in range(2):
        assert sum(y[i] * M[i, j] for i in range(2)) == 0
    assert y[0] * 1 + y[1] * 3 != 0
    with pytest.raises(ValueError):
        res.reduced_rows


def test_solve_randomized_exactness():
    rng = random.Random(17)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = RatMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(c)]
                       for _ in range(r)])
        b = [Fraction(rng.randint(-4, 4)) for _ in range(r)]
        res = solve_linear(M, b)
        if res.consistent:
            assert M.matvec(res.solution) == b
        for k in res.kernel:
            assert M.matvec(k) == [Fraction(0)] * r


# -- the sparse solver against the dense RREF reference ------------------------

# mostly zeros, small numerators and denominators: sparse, rank-deficient systems
_entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                   st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def sparse_systems(draw):
    r = draw(st.integers(1, 7))
    c = draw(st.integers(1, 7))
    M = [[draw(_entry) for _ in range(c)] for _ in range(r)]
    if draw(st.booleans()):  # consistent: b = M x0
        x0 = [draw(_entry) for _ in range(c)]
        b = [sum((m * x for m, x in zip(row, x0)), Fraction(0)) for row in M]
    else:  # often inconsistent
        b = [draw(_entry) for _ in range(r)]
    return RatMatrix(M), b


def _gauss_jordan(rows):
    """Textbook Gauss-Jordan: (nonzero RREF rows, pivot columns) of a dense
    matrix, taking the first row with a nonzero entry as pivot."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _rref_reference(M, b):
    """(pivots, solution or None) read off the Gauss-Jordan RREF of [M | b]."""
    R, pivots = _gauss_jordan([row + [bi] for row, bi in zip(M.data, b)])
    if pivots and pivots[-1] == M.cols:
        return pivots[:-1], None
    x = [Fraction(0)] * M.cols
    for row, col in zip(R, pivots):
        x[col] = row[-1]
    return pivots, x


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_solve_sparse_matches_rref(system):
    M, b = system
    pivots, x = _rref_reference(M, b)
    rows = [{j: v for j, v in enumerate(row) if v} for row in M.data]
    for res in (solve_linear(M, b), solve_sparse(rows, M.cols, b)):
        assert res.pivots == pivots
        assert res.consistent == (x is not None)
        assert res.solution == x
        if x is None:
            y = res.witness
            assert [sum((y[i] * M[i, j] for i in range(M.rows)), Fraction(0))
                    for j in range(M.cols)] == [0] * M.cols
            assert sum((yi * bi for yi, bi in zip(y, b)), Fraction(0)) != 0
        else:
            assert res.witness is None
            assert len(res.kernel) == M.cols - len(pivots)
            for k in res.kernel:
                assert M.matvec(k) == [0] * M.rows
            if res.kernel:
                assert RatMatrix(res.kernel).rank() == len(res.kernel)
            assert res.kernel == M.nullspace()


@st.composite
def rank_deficient_matrices(draw):
    """A product of r x k and k x c matrices: rank at most k <= min(r, c)."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(r, c)))
    A = [[draw(_entry) for _ in range(k)] for _ in range(r)]
    B = [[draw(_entry) for _ in range(c)] for _ in range(k)]
    return RatMatrix(A).matmul(RatMatrix(B)) if k else RatMatrix.zeros(r, c)


@settings(max_examples=300, deadline=None)
@given(rank_deficient_matrices())
def test_rank_kernel_rref_match_gauss_jordan(M):
    R_ref, pivots = _gauss_jordan(M.data)
    assert M.rank() == len(pivots)
    kernel = []
    for f in range(M.cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * M.cols
        vec[f] = Fraction(1)
        for row, c in zip(R_ref, pivots):
            vec[c] = -row[f]
        kernel.append(vec)
    assert M.nullspace() == kernel
    R, T, rref_pivots = M.rref()
    assert rref_pivots == pivots
    assert T.matmul(M) == R
    assert T.det() != 0
    # [R | T] is the RREF of [M | I], whatever order the rows were eliminated in
    augmented = [row + unit for row, unit in zip(M.data, RatMatrix.identity(M.rows).data)]
    assert [r + t for r, t in zip(R.data, T.data)] == _gauss_jordan(augmented)[0]
    if M.rows == M.cols == len(pivots):
        assert M.matmul(M.inverse()) == RatMatrix.identity(M.rows)


@st.composite
def poly_rhs_systems(draw):
    """(rows, ncols, rhs, columns): a sparse system whose right-hand side
    entries are Polys in 1-3 parameters; columns[m] is the scalar right-hand
    side that the coefficients of monomial m form, consistent half the time.
    Zero entries past the first are sometimes the scalar 0."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    M = [[draw(_entry) for _ in range(c)] for _ in range(r)]
    nvars = draw(st.integers(1, 3))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 2)] * nvars),
                              min_size=1, max_size=4, unique=True))
    columns = {}
    for mono in monomials:
        if draw(st.booleans()):
            x0 = [draw(_entry) for _ in range(c)]
            columns[mono] = [sum((m * v for m, v in zip(row, x0)), Fraction(0)) for row in M]
        else:
            columns[mono] = [draw(_entry) for _ in range(r)]
    rhs = [Poly(nvars, {mono: col[i] for mono, col in columns.items()}) for i in range(r)]
    if draw(st.booleans()):
        rhs = rhs[:1] + [v if v else 0 for v in rhs[1:]]
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    return rows, c, rhs, columns


@settings(max_examples=300, deadline=None)
@given(poly_rhs_systems())
def test_solve_sparse_poly_rhs_is_one_solve_per_monomial(system):
    rows, ncols, rhs, columns = system
    res = solve_sparse(rows, ncols, rhs)
    scalar = {mono: solve_sparse(rows, ncols, col) for mono, col in columns.items()}
    for one in scalar.values():
        assert one.pivots == res.pivots
    assert res.consistent == all(one.consistent for one in scalar.values())
    if res.consistent:
        assert all(isinstance(v, Poly) for v in res.solution)
        assert all(set(v.terms) <= set(columns) for v in res.solution)
        for mono, one in scalar.items():
            assert [v.coefficient(mono) for v in res.solution] == one.solution
        assert res.witness is None
    else:
        with pytest.raises(ValueError):
            res.witness


def test_graded_system_labels_and_accumulation():
    # x0 + x1 = 3 (entered in two pieces), x1 = 1, and a row seen only on the rhs
    system = GradedSystem(3)
    system.add("a", 0, Fraction(1))
    system.add("b", 1, Fraction(1))
    system.add("a", 1, Fraction(1, 2))
    system.add("a", 1, Fraction(1, 2))
    system.rhs("a", Fraction(3))
    system.rhs("b", Fraction(1))
    assert (len(system.rows), system.ncols) == (2, 3)
    res = system.solve()
    assert res.solution == [2, 1, 0] and res.pivots == [0, 1]
    system.rhs("c", Fraction(1))
    res = system.solve()
    assert len(system.rows) == 3 and not res.consistent
    assert res.witness == [0, 0, 1]


# -- inertia -------------------------------------------------------------------

def test_inertia_diagonal():
    res = inertia(RatMatrix([[2, 0, 0], [0, -3, 0], [0, 0, 0]]))
    assert res.counts() == (1, 1, 1)


def test_inertia_offdiagonal_pair():
    # symmetric Gaussian elimination by hand: x = u+v, y = u-v gives 2u^2 - v^2/2
    res = inertia(RatMatrix([[0, 1], [1, 0]]))
    assert res.counts() == (1, 0, 1)


def test_inertia_zero_matrix():
    assert inertia(RatMatrix.zeros(3, 3)).counts() == (0, 3, 0)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(PreconditionError):
        inertia(RatMatrix([[0, 1], [2, 0]]))


def test_inertia_congruence_output():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 4)
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        S = RatMatrix([[A[i][j] + A[j][i] for j in range(n)] for i in range(n)])
        res = inertia(S)
        D = res.congruence.transpose().matmul(S).matmul(res.congruence)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        assert [v for v in res.diagonal] == [D[i, i] for i in range(n)]


def test_inertia_invariant_under_congruence():
    rng = random.Random(29)
    bases = [
        RatMatrix([[2, 0, 0], [0, -3, 0], [0, 0, 0]]),
        RatMatrix([[0, 1], [1, 0]]),
        RatMatrix([[1, 2, 0], [2, 1, 1], [0, 1, -5]]),
    ]
    for S in bases:
        want = inertia(S).counts()
        for _ in range(50):
            C = random_invertible(rng, S.rows)
            S2 = C.transpose().matmul(S).matmul(C)
            assert inertia(S2).counts() == want


# -- eigen data ------------------------------------------------------------------

def test_eigen_diagonal():
    ed = eigen_data(RatMatrix([[1, 0], [0, 2]]))
    # (t-1)(t-2) = 2 - 3t + t^2
    assert ed.char_coeffs == [Fraction(2), Fraction(-3), Fraction(1)]
    assert ed.rational_eigenvalues == [Fraction(1), Fraction(2)]


def test_eigen_rotation_matrix():
    ed = eigen_data(RatMatrix([[0, -1], [1, 0]]))
    assert ed.char_coeffs == [Fraction(1), Fraction(0), Fraction(1)]
    assert ed.rational_eigenvalues == []
    vals = sorted(ed.numeric_eigenvalues, key=lambda z: z.imag)
    assert abs(vals[0] + 1j) < 1e-12 and abs(vals[1] - 1j) < 1e-12


def newton_sqrt2(iterations=8):
    """Independent oracle: Newton refinement on t^2 - 2 from 3/2, exact."""
    t = Fraction(3, 2)
    for _ in range(iterations):
        t = t - (t * t - 2) / (2 * t)
    return t


def test_eigen_irrational_against_newton_oracle():
    ed = eigen_data(RatMatrix([[0, 2], [1, 0]]), tol=1e-9)
    assert ed.char_coeffs == [Fraction(-2), Fraction(0), Fraction(1)]
    root = float(newton_sqrt2())
    vals = sorted(z.real for z in ed.numeric_eigenvalues)
    assert abs(vals[1] - root) < 1e-9
    assert abs(vals[0] + root) < 1e-9
    assert all(abs(z.imag) < 1e-12 for z in ed.numeric_eigenvalues)


def test_eigen_rejects_nonsquare():
    with pytest.raises(PreconditionError):
        eigen_data(RatMatrix([[1, 0, 0], [0, 1, 0]]))


def test_char_poly_companion():
    # companion matrix of t^3 - 6t^2 + 11t - 6 = (t-1)(t-2)(t-3)
    M = RatMatrix([[0, 0, 6], [1, 0, -11], [0, 1, 6]])
    assert char_poly(M) == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    ed = eigen_data(M)
    assert ed.rational_eigenvalues == [Fraction(1), Fraction(2), Fraction(3)]


def _fraction_char_poly(M):
    """Reference: Faddeev-LeVerrier over Q, as char_poly ran before its integer form."""
    n = M.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    A = RatMatrix.identity(n)
    for k in range(1, n + 1):
        A = M.matmul(A)
        c = -sum((A.data[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        A = RatMatrix([[A.data[i][j] + (c if i == j else 0) for j in range(n)]
                       for i in range(n)])
    return coeffs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_char_poly_matches_fraction_faddeev_leverrier(data):
    n = data.draw(st.integers(0, 5))
    M = RatMatrix([[data.draw(_coeff) for _ in range(n)] for _ in range(n)])
    got = char_poly(M)
    assert got == _fraction_char_poly(M)
    assert all(isinstance(c, Fraction) for c in got)


def _fraction_rational_roots(coeffs):
    """Reference: rational_roots with the Fraction synthetic-division test."""
    import math

    work = [Fraction(v) for v in coeffs]
    while work and work[-1] == 0:
        work.pop()
    roots = []
    while work[0] == 0:
        roots.append(Fraction(0))
        work.pop(0)

    def divisors(k):
        k = abs(k)
        return sorted({e for d in range(1, math.isqrt(k) + 1) if k % d == 0 for e in (d, k // d)})

    changed = True
    while len(work) > 1 and changed:
        changed = False
        denom = math.lcm(*(c.denominator for c in work))
        ints = [int(c * denom) for c in work]
        candidates = sorted({Fraction(s * p, q) for p in divisors(ints[0])
                             for q in divisors(ints[-1]) for s in (1, -1)},
                            key=lambda f: (abs(f), f < 0))
        for cand in candidates:
            acc = Fraction(0)
            for c in reversed(work):
                acc = acc * cand + c
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


def _poly_times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# t^2 - a t - b irreducible over Q
_QUADRATICS = [(1, 1), (0, 2), (2, 1), (1, -1), (0, -1), (-1, Fraction(5, 4)), (Fraction(1, 3), 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6])), max_size=4),
       st.sampled_from(_QUADRATICS), _coeff.filter(bool))
def test_rational_roots_match_the_fraction_test(roots, quadratic, lead):
    a, b = quadratic
    coeffs = [-Fraction(b) * lead, -Fraction(a) * lead, lead]
    for r in roots:
        coeffs = _poly_times(coeffs, [-r, Fraction(1)])
    got = rational_roots(coeffs)
    assert got == _fraction_rational_roots(coeffs)
    assert sorted(got[0]) == sorted(roots) and len(got[1]) == 3
