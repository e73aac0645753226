"""Exact polynomial and matrix layer: spec examples plus algebraic properties."""

import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nambu.polyalg import (
    _back_substitute,
    _eliminate,
    _nearest_float,
    _quadratic_roots,
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
    substitute_many,
)
from reference import fractions


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
        assert _clean(a + b) == _clean(b + a)
        assert _clean(a.mul(b)) == _clean(b.mul(a))
        assert _clean(a.mul(_clean(b.mul(c)))) == _clean(_clean(a.mul(b)).mul(c))
        assert _clean(a.mul(_clean(b + c))) == _clean(a.mul(b) + a.mul(c))
        assert _clean(_clean(a + b) - b) == a


def test_cancellation_raises_the_gcd():
    half = P("1/2*x1", 1)
    assert half.num == {(1,): 1} and half.den == 2
    total = _clean(half + half)
    assert total == P("x1", 1) and total.num == {(1,): 1} and total.den == 1
    assert _clean(P("1/2*x1 + 1/2", 1) - P("1/2", 1)) == half
    zero = _clean(half - half)
    assert zero.is_zero() and zero.den == 1
    assert _clean(P("1/2*x1^2", 1).partial(0)) == P("x1", 1)
    assert _clean(P("1/2*x1 + 1/3", 1).homogeneous_component(1)) == half
    assert _clean(P("2/3*x1", 1).scale(Fraction(3, 2))).den == 1


def test_constructors_match_the_general_constructor():
    for coeff in (1, -4, 0, Fraction(6, -4), "3/9", Fraction(0)):
        mono = Poly.monomial(3, (1, 0, 2), coeff)
        ref = Poly(3, {(1, 0, 2): coeff})
        assert (mono.nvars, mono.num, mono.den) == (ref.nvars, ref.num, ref.den)
        const = Poly.const(3, coeff)
        ref = Poly(3, {(0, 0, 0): coeff})
        assert (const.num, const.den) == (ref.num, ref.den)
    assert (Poly.one(2).num, Poly.one(2).den) == ({(0, 0): 1}, 1)
    assert (Poly.variable(3, 1).num, Poly.variable(3, 1).den) == ({(0, 1, 0): 1}, 1)
    for exps in ((1, 0), (1, -1, 0)):
        with pytest.raises(ValueError):
            Poly.monomial(3, exps)


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
    """The canonical storage: nonzero int numerators over a positive int
    denominator in lowest terms, and ``terms`` their Fractions, in order."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(n, int) and n != 0 for n in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert list(p.terms.items()) == [(e, Fraction(n, p.den)) for e, n in p.num.items()]


def _clean(p):
    _assert_stored_clean(p)
    return p


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
    _assert_stored_clean(a)
    prod = a.mul(b, trunc)
    assert prod.terms == _schoolbook_mul(a, b, trunc)
    _assert_stored_clean(prod)
    if trunc is not None:
        assert prod == _clean(_clean(a.mul(b)).truncate(trunc))
    # the cross terms of (a + b)(a - b) cancel
    square = _clean(a + b).mul(_clean(a - b), trunc)
    assert square.terms == _schoolbook_mul(a + b, a - b, trunc)
    _assert_stored_clean(square)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pow_matches_schoolbook(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(kernel_polys(n))
    k = data.draw(st.integers(0, 4))
    expected = Poly.one(n).terms
    for _ in range(k):
        expected = _schoolbook_mul(Poly(n, expected), a)
    power = a.pow(k)
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
    assert cut == _clean(full.truncate(trunc))
    assert cut.terms == _schoolbook_substitute(p, args, trunc)
    _assert_stored_clean(cut)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_substitute_many_is_each_polynomial_substituted(data):
    # one power table serves every polynomial, in any order: each result is
    # the polynomial's own substitution, and the schoolbook one
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    polys = data.draw(st.lists(kernel_polys(n, 4), min_size=1, max_size=4))
    polys += [Poly.const(n, data.draw(_coeff)), Poly.zero(n)]
    polys = data.draw(st.permutations(polys))
    args = [data.draw(kernel_polys(m, 3)) for _ in range(n)]
    trunc = data.draw(st.sampled_from([None, 0, -1, -3, data.draw(st.integers(1, 6))]))
    shared = substitute_many(polys, args, trunc)
    assert shared == [p.substitute(args, trunc) for p in polys]
    for p, v in zip(polys, shared):
        _assert_stored_clean(v)
        if trunc is not None and trunc < 0:
            # a negative cut keeps the constant term
            assert v == Poly.const(m, p.constant_term())
        else:
            assert v.terms == _schoolbook_substitute(p, args, trunc)


def test_substitute_many_checks_variable_counts():
    with pytest.raises(ValueError):
        substitute_many([Poly.one(2), Poly.one(3)], [Poly.variable(1, 0)] * 2)
    with pytest.raises(ValueError):
        substitute_many([Poly.one(2)], [Poly.variable(1, 0), Poly.variable(2, 0)])
    assert substitute_many([Poly.const(0, 5)], []) == [Poly.const(0, 5)]
    assert substitute_many([], [Poly.variable(1, 0)]) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unary_operations_match_the_fraction_terms(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(kernel_polys(n))
    c = data.draw(_coeff)
    i = data.draw(st.integers(0, n - 1))
    d = data.draw(st.integers(0, 6))
    terms = p.terms
    assert _clean(-p).terms == {e: -v for e, v in terms.items()}
    assert _clean(p.scale(c)).terms == {e: v * c for e, v in terms.items() if v * c}
    assert _clean(p.partial(i)).terms == {
        e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i] for e, v in terms.items() if e[i]}
    assert _clean(p.homogeneous_component(d)).terms == {
        e: v for e, v in terms.items() if sum(e) == d}
    assert _clean(p.truncate(d)).terms == {e: v for e, v in terms.items() if sum(e) <= d}


# -- parser ------------------------------------------------------------------

def test_parse_roundtrip_canonical():
    p = P("3/2*x1^2*x3 - x2 + 1", 3)
    assert _clean(parse_poly(p.to_str(), 3)) == p


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
    assert list(_clean(parse_poly(text, 2)).terms.items()) == list(fold.terms.items())


# -- linear solving -----------------------------------------------------------

def _times(M, v):
    """den * M v, on M's integer rows."""
    return [sum(map(mul, row, v)) for row in M.num]


def test_solve_identity():
    res = solve_linear(RatMatrix.identity(3), [1, 2, 3])
    assert res.solution == [Fraction(1), Fraction(2), Fraction(3)]
    assert res.kernel_ints[0] == []


def test_solve_rank1_consistent():
    res = solve_linear(RatMatrix([[1, 1], [2, 2]]), [1, 2])
    assert res.solution == [Fraction(1), Fraction(0)]
    (k,), _ = res.kernel_ints
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
        res.reduced_ints


def test_solve_randomized_exactness():
    rng = random.Random(17)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = RatMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(c)]
                       for _ in range(r)])
        b = [Fraction(rng.randint(-4, 4)) for _ in range(r)]
        res = solve_linear(M, b)
        if res.consistent:
            assert _times(M, res.solution) == [M.den * v for v in b]
        for k in res.kernel_ints[0]:
            assert _times(M, k) == [0] * r


# -- the sparse solver against the dense RREF reference ------------------------

# mostly zeros, small numerators and denominators: sparse, rank-deficient systems
_entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                   st.fractions(min_value=-5, max_value=5, max_denominator=4))
# big numerators and denominators, for the fraction-free elimination's growth
_big_entry = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))


@st.composite
def sparse_systems(draw):
    entry = draw(st.sampled_from([_entry, _big_entry]))
    r = draw(st.integers(1, 7))
    c = draw(st.integers(1, 7))
    M = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if draw(st.booleans()):  # consistent: b = M x0
        x0 = [draw(entry) for _ in range(c)]
        b = [sum((m * x for m, x in zip(row, x0)), Fraction(0)) for row in M]
    else:  # often inconsistent
        b = [draw(entry) for _ in range(r)]
    return RatMatrix(M), b


def _gauss_jordan(rows, leads=None):
    """Textbook Gauss-Jordan: (nonzero RREF rows, pivot columns) of a dense
    matrix, taking the first row with a nonzero entry as pivot. A given list
    `leads` receives each pivot's value, negated when its row was swapped in."""
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
        if leads is not None:
            leads.append(lead if pivot == r else -lead)
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
            K, _ = res.kernel_ints
            assert len(K) == M.cols - len(pivots)
            for k in K:
                assert _times(M, k) == [0] * M.rows
            if K:
                assert RatMatrix(K).rank() == len(K)
            assert fractions(res.kernel_ints) == fractions(_eliminate(M.num, M.cols).kernel_ints)


def large_sparse_system(rng):
    """(M, b) of about 40 x 60: sparse rows with small rational entries, plus
    empty rows, duplicate rows and combinations of earlier rows, which
    cancel to zero partway through the elimination; b is M x0 or random."""
    r, c = rng.randint(34, 42), rng.randint(52, 62)
    rows = []
    while len(rows) < r:
        kind = rng.random()
        if kind < 0.1 or not rows:
            rows.append([Fraction(0)] * c)
        elif kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-3, 3))
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            row = [Fraction(0)] * c
            for j in rng.sample(range(c), rng.randint(1, 6)):
                row[j] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
            rows.append(row)
    rng.shuffle(rows)
    if rng.random() < 0.5:
        x0 = [Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0) for _ in range(c)]
        b = [sum((m * v for m, v in zip(row, x0)), Fraction(0)) for row in rows]
    else:
        b = [Fraction(rng.randint(-2, 2)) if rng.random() < 0.2 else Fraction(0) for _ in rows]
    return RatMatrix(rows), b


@pytest.mark.parametrize("seed", range(12))
def test_solve_sparse_matches_gauss_jordan_on_large_sparse_systems(seed):
    M, b = large_sparse_system(random.Random(seed))
    pivots, x = _rref_reference(M, b)
    res = solve_sparse([{j: v for j, v in enumerate(row) if v} for row in M.data], M.cols, b)
    assert res.pivots == pivots
    assert res.solution == x
    if x is None:
        # the witness is the particular solution of [M^T; b^T] y = [0; 1]
        assert res.witness == _rref_reference(RatMatrix(M.transpose().data + [b]),
                                              [0] * M.cols + [1])[1]
        return
    R, _ = _gauss_jordan(M.data)
    kernel = []
    for f in range(M.cols):
        if f not in pivots:
            vec = [Fraction(0)] * M.cols
            vec[f] = Fraction(1)
            for row, c in zip(R, pivots):
                vec[c] = -row[f]
            kernel.append(vec)
    assert fractions(res.kernel_ints) == kernel
    assert res.witness is None


@st.composite
def rank_deficient_matrices(draw, square=False):
    """A product of r x k and k x c matrices: rank at most k <= min(r, c)."""
    entry = draw(st.sampled_from([_entry, _big_entry]))
    r = draw(st.integers(1, 6))
    c = r if square else draw(st.integers(1, 6))
    k = draw(st.integers(0, min(r, c)))
    A = [[draw(entry) for _ in range(k)] for _ in range(r)]
    B = [[draw(entry) for _ in range(c)] for _ in range(k)]
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
    assert fractions(_eliminate(M.num, M.cols).kernel_ints) == kernel
    # integer rows over one denominator
    res = solve_sparse([{j: v for j, v in enumerate(row) if v} for row in M.data],
                       M.cols, [0] * M.rows)
    rows, d = res.reduced_ints
    assert fractions(res.reduced_ints) == R_ref
    K, e = res.kernel_ints
    assert fractions(res.kernel_ints) == kernel
    assert d > 0 and e > 0 and all(type(v) is int for row in rows + K for v in row)
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
def square_matrices(draw):
    """Square matrices of either entry kind, singular ones included."""
    entry = draw(st.sampled_from([_entry, _big_entry]))
    n = draw(st.integers(0, 6))
    return RatMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_is_the_product_of_gauss_jordan_pivots(M):
    leads = []
    _, pivots = _gauss_jordan(M.data, leads)
    assert M.det() == (math.prod(leads, start=Fraction(1)) if len(pivots) == M.rows else 0)


@settings(max_examples=200, deadline=None)
@given(square_matrices(), square_matrices())
def test_matmul_matches_the_fraction_product(A, B):
    n = min(A.rows, B.rows)
    A = RatMatrix([row[:n] for row in A.data[:n]])
    B = RatMatrix([row[:n] for row in B.data[:n]])
    want = [[sum((A[i, k] * B[k, j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    assert A.matmul(B).data == want
    assert all(type(v) is Fraction for row in A.matmul(B).data for v in row)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_echelon_rows_are_primitive_integer_rows(system):
    M, b = system
    res = solve_linear(M, b)
    for c, row, _ in res.echelon:
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == c and math.gcd(*row.values()) == 1


# -- the integer kernels against test-local Fraction references -----------------

def _fraction_inverse(M):
    """The right half of the Gauss-Jordan RREF of [M | I], or None if singular."""
    n = M.rows
    R, pivots = _gauss_jordan([row + [Fraction(int(i == j)) for j in range(n)]
                               for i, row in enumerate(M.data)])
    if [c for c in pivots if c < n] != list(range(n)):
        return None
    return [row[n:] for row in R]


@settings(max_examples=300, deadline=None)
@given(st.one_of(square_matrices(), rank_deficient_matrices(square=True)))
def test_inverse_matches_the_fraction_gauss_jordan(M):
    want = _fraction_inverse(M)
    if want is None:
        with pytest.raises(ValueError):
            M.inverse()
        return
    inv = M.inverse()
    assert inv.data == want
    assert M.matmul(inv) == inv.matmul(M) == RatMatrix.identity(M.rows)
    assert math.gcd(inv.den, *[v for row in inv.num for v in row]) == 1


def _fraction_back_substitute(echelon, ncols):
    x = [Fraction(0)] * ncols
    for c, row, rhs in reversed(echelon):
        acc = Fraction(rhs)
        for k, v in row.items():
            if k != c:
                acc -= v * x[k]
        x[c] = acc / row[c]
    return x


@st.composite
def echelon_systems(draw):
    """Echelon rows with pivots anywhere, pivot entries of either sign and
    other than 1, zero and rational right-hand sides with large denominators."""
    ncols = draw(st.integers(1, 9))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
    big = draw(st.booleans())
    ints = st.integers(-10**9, 10**9) if big else st.integers(-6, 6)
    echelon = []
    for c in pivots:
        row = {c: draw(ints.filter(bool))}
        for k in range(c + 1, ncols):
            v = draw(ints) if draw(st.booleans()) else 0
            if v:
                row[k] = v
        rhs = draw(st.one_of(st.just(Fraction(0)), st.builds(
            Fraction, ints, st.integers(1, 10**8 if big else 12))))
        echelon.append((c, row, rhs))
    return echelon, ncols


@settings(max_examples=300, deadline=None)
@given(echelon_systems())
def test_back_substitute_matches_the_fraction_reference(system):
    echelon, ncols = system
    got = _back_substitute(echelon, ncols, Fraction(0))
    assert got == _fraction_back_substitute(echelon, ncols)
    assert all(type(v) is Fraction for v in got)


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


# -- inertia -------------------------------------------------------------------

def _counts(res):
    return res.n_plus, res.n_zero, res.n_minus


def test_inertia_diagonal():
    res = inertia(RatMatrix([[2, 0, 0], [0, -3, 0], [0, 0, 0]]))
    assert _counts(res) == (1, 1, 1)


def test_inertia_offdiagonal_pair():
    # symmetric Gaussian elimination by hand: x = u+v, y = u-v gives 2u^2 - v^2/2
    res = inertia(RatMatrix([[0, 1], [1, 0]]))
    assert _counts(res) == (1, 0, 1)


def test_inertia_zero_matrix():
    assert _counts(inertia(RatMatrix.zeros(3, 3))) == (0, 3, 0)


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
        want = _counts(inertia(S))
        for _ in range(50):
            C = random_invertible(rng, S.rows)
            S2 = C.transpose().matmul(S).matmul(C)
            assert _counts(inertia(S2)) == want


def _fraction_inertia(S):
    """Reference: the symmetric elimination with the rank-2 fallback on
    Fraction entries, (C, diagonal)."""
    n = S.rows
    a = S.data
    cmat = RatMatrix.identity(n).data

    def col_op(dst, src, factor):
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for j in range(n):
            a[dst][j] += factor * a[src][j]
        for i in range(n):
            cmat[i][dst] += factor * cmat[i][src]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            cmat[r][i], cmat[r][j] = cmat[r][j], cmat[r][i]
        a[i], a[j] = a[j], a[i]

    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            if i != k:
                col_swap(i, k)
            if j != k + 1:
                col_swap(j, k + 1)
            col_op(k, k + 1, Fraction(1))
            col_op(k + 1, k, Fraction(-1, 2))
            pivot = k
        if pivot != k:
            col_swap(pivot, k)
        for j in range(k + 1, n):
            if a[k][j]:
                col_op(j, k, -a[k][j] / a[k][k])
        k += 1
    return cmat, [a[i][i] for i in range(n)]


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices: rank-deficient ones (B^T D B), zero rows, zero
    diagonals that need the rank-2 fallback, large denominators."""
    entry = draw(st.sampled_from([_entry, _big_entry]))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "product", "hollow"]))
    if kind == "product":
        k = draw(st.integers(0, n))
        B = RatMatrix([[draw(entry) for _ in range(n)] for _ in range(k)])
        D = RatMatrix([[draw(entry) if i == j else 0 for j in range(k)] for i in range(k)])
        return B.transpose().matmul(D).matmul(B) if k else RatMatrix.zeros(n, n)
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        A[i][i] = A[i][i] if kind == "dense" else Fraction(0)
        for j in range(i):
            A[i][j] = A[j][i]
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else set()
    for i in zero_rows:
        for j in range(n):
            A[i][j] = A[j][i] = Fraction(0)
    return RatMatrix(A)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_inertia_matches_the_fraction_elimination(S):
    C_ref, diag_ref = _fraction_inertia(S)
    res = inertia(S)
    assert res.congruence.data == C_ref
    assert res.diagonal == diag_ref
    D = res.congruence.transpose().matmul(S).matmul(res.congruence)
    assert D == RatMatrix([[diag_ref[i] if i == j else 0 for j in range(S.rows)]
                           for i in range(S.rows)])
    assert _counts(res) == (sum(v > 0 for v in diag_ref), sum(v == 0 for v in diag_ref),
                            sum(v < 0 for v in diag_ref))


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


def test_eigen_repeated_irrational_roots_keep_their_multiplicity():
    # [[C, I], [0, C]], C the companion of t^2 - 2, beside the 1x1 block 3:
    # det(tI - M) = (t^2 - 2)^2 (t - 3), each root of t^2 - 2 twice
    M = RatMatrix([[0, 2, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 0, 2, 0],
                   [0, 0, 1, 0, 0], [0, 0, 0, 0, 3]])
    ed = eigen_data(M)
    assert ed.rational_eigenvalues == [Fraction(3)]
    root = float(newton_sqrt2())
    assert [z.real for z in ed.numeric_eigenvalues] == pytest.approx([3, -root, -root, root, root])
    assert all(abs(z.imag) < 1e-12 for z in ed.numeric_eigenvalues)


def test_eigen_rejects_nonsquare():
    with pytest.raises(PreconditionError):
        eigen_data(RatMatrix([[1, 0, 0], [0, 1, 0]]))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_eigen_rejects_a_tol_outside_the_positive_reals(tol):
    with pytest.raises(PreconditionError, match="tol must be positive and finite"):
        eigen_data(RatMatrix([[1, 1], [1, 0]]), tol)


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


def _is_rational_square(x):
    return x >= 0 and all(math.isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


_rational = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@st.composite
def irreducible_quadratics(draw, complex_pair, entry=_rational):
    """[c0, c1, c2] with no rational root: a complex pair or a real
    irrational one."""
    c2 = draw(entry.filter(bool))
    c1 = draw(st.one_of(st.just(Fraction(0)), entry))
    c0 = draw(entry.filter(bool))
    disc = c1 * c1 - 4 * c0 * c2
    if complex_pair:
        assume(disc < 0)
    else:
        assume(disc > 0 and not _is_rational_square(disc))
    return [c0, c1, c2]


def _root_order(roots):
    return sorted(roots, key=lambda f: (abs(f), f < 0))


_big = st.integers(-10**12, 10**12)


@settings(max_examples=300, deadline=None)
@given(_coeff.filter(bool), st.integers(0, 3), _big, st.integers(1, 10**12), _big,
       st.integers(1, 10**12))
def test_rational_roots_of_split_quadratics(c, k, p1, q1, p2, q2):
    # c t^k (q1 t - p1)(q2 t - p2): the roots in closed form, at any size,
    # and as the trial division finds them where it finishes
    coeffs = _poly_times(_poly_times([Fraction(0)] * k + [c], [-p1, q1]), [-p2, q2])
    got = rational_roots(coeffs)
    assert got == (_root_order([Fraction(0)] * k + [Fraction(p1, q1), Fraction(p2, q2)]),
                   [c * q1 * q2])
    if max(abs(p1), q1, abs(p2), q2) <= 1000:
        assert got == _fraction_rational_roots(coeffs)


@settings(max_examples=300, deadline=None)
@given(_coeff.filter(bool), st.integers(0, 3),
       st.one_of(irreducible_quadratics(True), irreducible_quadratics(False)))
def test_rational_roots_of_irreducible_quadratics(c, k, g):
    # c t^k g with g irreducible: only the k zero roots, and c g is left
    coeffs = [Fraction(0)] * k + [c * v for v in g]
    assert rational_roots(coeffs) == ([Fraction(0)] * k, [c * v for v in g])


def _polyroots_floats(g, digits=30):
    """The roots of g by `mpmath.polyroots`, cleaned up at mpmath's eps at
    `digits` as polyroots cleans them, as floats.

    polyroots stops when every step is below its eps in absolute terms, so a
    root of 2^-e needs e bits beyond that eps to be read to float precision.
    Every root lies between 2^-2h and 2^2h, h the largest bit size of a
    coefficient, so the roots are found 2h bits beyond `digits` and cleaned
    up at eps here."""
    import mpmath

    h = max(c.numerator.bit_length() + c.denominator.bit_length() for c in g)
    with mpmath.workdps(digits):
        eps = mpmath.eps
        with mpmath.extraprec(2 * h):
            found = mpmath.polyroots([mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                                      for c in reversed(g)], maxsteps=200, extraprec=80 + 2 * h)
        rest = []
        for r in found:
            if abs(r) < eps:
                r = mpmath.mpf(0)
            elif abs(mpmath.im(r)) < eps:
                r = mpmath.re(r)
            elif abs(mpmath.re(r)) < eps:
                r = mpmath.im(r) * 1j
            rest.append(complex(float(mpmath.re(r)), float(mpmath.im(r))))
    return sorted(rest, key=lambda z: (z.real, z.imag))


# eigen_data's working digits at tol, and mpmath's eps there, 2^(1 - prec)
_TOLS = [(1e-9, 30, 102), (1e-20, 35, 119)]

# small fractions, or ratios up to 10^12 / 10^6 scaled by 10^-40 .. 10^40
_wide = st.one_of(_rational, st.builds(lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
                                       st.integers(-10**12, 10**12), st.integers(1, 10**6),
                                       st.integers(-40, 40)))
_wide_quadratics = st.one_of(irreducible_quadratics(True, _wide),
                             irreducible_quadratics(False, _wide))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_TOLS), _wide_quadratics)
# roots near -10^10 and -10^-10: (-c1 + sqrt(disc)) / (2 c2) cancels 20 digits
@example(_TOLS[0], [Fraction(1, 10**4), Fraction(10**6), Fraction(1, 10**4)])
# a complex pair whose imaginary part is rational: exactly +-i
@example(_TOLS[0], [Fraction(1), Fraction(0), Fraction(1)])
def test_quadratic_roots_match_polyroots(at, g):
    import mpmath

    _, digits, eps_bits = at
    with mpmath.workdps(digits):
        assert mpmath.eps == mpmath.mpf(2) ** -eps_bits
    got = sorted(_quadratic_roots(g, Fraction(1, 2 ** eps_bits)), key=lambda z: (z.real, z.imag))
    assert got == _polyroots_floats(g, digits)


def _rounding_interval(f):
    """The midpoints between the float f and its neighbours, as Fractions."""
    return [(Fraction(f) + Fraction(math.nextafter(f, to))) / 2 for to in (-math.inf, math.inf)]


def _sign_change(p, f):
    lo, hi = (p(x) for x in _rounding_interval(f))
    return lo * hi < 0


@settings(max_examples=300, deadline=None)
@given(_wide_quadratics)
def test_quadratic_roots_are_correctly_rounded(g):
    # exact oracle: the exact root lies between the midpoints around each
    # float returned, so that float is the nearest one
    c0, c1, c2 = g
    eps = Fraction(1, 2 ** 102)
    roots = _quadratic_roots(g, eps)
    disc = c1 * c1 - 4 * c0 * c2
    if disc > 0:
        for z in roots:
            assert z.imag == 0
            if z.real:
                assert _sign_change(lambda x: c0 + c1 * x + c2 * x * x, z.real)
        return
    im2 = -disc / (4 * c2 * c2)
    for z in roots:
        if z.real:
            assert z.real == float(-c1 / (2 * c2))
        if z.imag:
            assert _sign_change(lambda x: x * x - im2, abs(z.imag))
    assert roots[0] == roots[1].conjugate()


def test_quadratic_roots_decide_the_eps_rule_exactly():
    # t^2 + t - x has the root x - x^2 + 2 x^3 - ...: just below eps at
    # x = eps, just above it at x = eps + 2 eps^2, and both round to the float eps
    eps = Fraction(1, 2 ** 102)
    assert _quadratic_roots([-eps, Fraction(1), Fraction(1)], eps)[0] == 0j
    kept = _quadratic_roots([-eps - 2 * eps * eps, Fraction(1), Fraction(1)], eps)[0]
    assert kept == complex(float(eps))


def test_nearest_float_at_the_overflow_boundary():
    # a + b sqrt(2) within 2^870 of 2^1024 - 2^970, the least value that
    # rounds beyond float range: the first bracket straddles it, so the one
    # end that overflows is refined away below the boundary, and raised above
    limit = 2 ** 1024 - 2 ** 970
    c = Fraction(math.isqrt(2 << 200), 2 ** 100)  # sqrt 2 cut to 100 bits
    for up, want in ((0, sys.float_info.max), (Fraction(1, 2 ** 99), None)):
        a = limit + 2 ** 970 * (c + up)
        if want is None:
            with pytest.raises(PreconditionError, match="beyond float range"):
                _nearest_float(a, Fraction(-2 ** 970), Fraction(2))
        else:
            assert _nearest_float(a, Fraction(-2 ** 970), Fraction(2)) == want


# small entries: rational_roots finds divisors by trial division up to the
# square root of the characteristic polynomial's constant term
_small_rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_TOLS), st.one_of(irreducible_quadratics(True, _small_rational),
                                         irreducible_quadratics(False, _small_rational)),
       st.integers(1, 2))
def test_eigen_data_on_a_quadratic_factor_matches_polyroots(at, g, k):
    tol, digits, _ = at
    # k companion blocks of g: the residual is g^k, one square-free factor g
    c0, c1, c2 = g
    n = 2 * k
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(0, n, 2):
        M[i][i + 1] = -c0 / c2
        M[i + 1][i] = Fraction(1)
        M[i + 1][i + 1] = -c1 / c2
    ed = eigen_data(RatMatrix(M), tol)
    want = sorted(_polyroots_floats(g, digits) * k, key=lambda z: (z.real, z.imag))
    assert ed.rational_eigenvalues == [] and ed.numeric_eigenvalues == want
