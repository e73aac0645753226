"""Exterior algebra layer: spec examples, graded identities, transport laws."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu.polyalg import Poly, PreconditionError, RatMatrix, parse_poly
from nambu.exterior import (
    DiffForm,
    _contract,
    _index_table,
    FormalMap,
    Multivector,
    apply_vector,
    basis_multivector,
    coordinate_field,
    coordinate_form,
    dform,
    form_to_tensor,
    formal_map_from_json,
    formal_map_to_json,
    graded_from_json,
    interior,
    lie_bracket,
    merge_sign,
    prefix_blocks,
    pullback_form,
    pushforward_tensor,
    restrict,
    tensor_to_form,
    wedge,
    wedge_all,
)
from reference import embed, pushforward


def x(n, i):
    return Poly.variable(n, i)


def random_form(rng, n, grade, max_degree=3):
    comps = {}
    for key in itertools.combinations(range(n), grade):
        if rng.random() < 0.5:
            continue
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        comps[key] = Poly(n, terms)
    return DiffForm(n, grade, comps)


def random_tensor(rng, n, grade, max_degree=3):
    f = random_form(rng, n, grade, max_degree)
    return Multivector(n, grade, f.comps)


def random_linear_map(rng, n):
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
            upper[j][i] = Fraction(rng.randint(-2, 2))
    return FormalMap.from_matrix(RatMatrix(lower).matmul(RatMatrix(upper)))


# -- wedge ---------------------------------------------------------------------

def test_wedge_examples():
    n = 5
    dx1, dx2 = coordinate_form(n, 0), coordinate_form(n, 1)
    assert wedge(dx1, dx1).is_zero()
    assert wedge(dx2, dx1) == -wedge(dx1, dx2)
    dx3 = coordinate_form(n, 2)
    lhs = wedge(dx1.poly_scale(x(n, 0)), wedge(dx2, dx3))
    assert lhs == wedge_all([dx1, dx2, dx3]).poly_scale(x(n, 0))


def test_wedge_kind_mismatch():
    with pytest.raises(ValueError):
        wedge(coordinate_form(3, 0), coordinate_field(3, 1))


def test_wedge_graded_commutativity_randomized():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        ka, kb = rng.randint(0, n), rng.randint(0, n)
        a, b = random_form(rng, n, ka), random_form(rng, n, kb)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (ka * kb) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associativity_randomized():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 5)
        grades = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (random_form(rng, n, g) for g in grades)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- interior product -------------------------------------------------------------

def test_interior_examples():
    n = 3
    w12 = wedge(coordinate_form(n, 0), coordinate_form(n, 1))
    assert interior(coordinate_field(n, 0), w12) == coordinate_form(n, 1)
    assert interior(coordinate_field(n, 1), w12) == -coordinate_form(n, 0)
    w123 = wedge_all([coordinate_form(n, i) for i in range(3)])
    assert interior(basis_multivector(n, (0, 1)), w123) == coordinate_form(n, 2)


def test_interior_grade_error():
    with pytest.raises(ValueError):
        interior(basis_multivector(3, (0, 1)), coordinate_form(3, 0))


def test_interior_graded_derivation_randomized():
    # i_{dj}(w ^ e) = (i_{dj} w) ^ e + (-1)^{|w|} w ^ (i_{dj} e)
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 5)
        kw = rng.randint(1, n - 1)
        ke = rng.randint(0, n - kw)
        w, e = random_form(rng, n, kw), random_form(rng, n, ke)
        j = coordinate_field(n, rng.randrange(n))
        lhs = interior(j, wedge(w, e)) if kw + ke >= 1 else None
        rhs = wedge(interior(j, w), e)
        if ke >= 1:
            term = wedge(w, interior(j, e))
            rhs = rhs + (-term if kw % 2 else term)
        assert lhs == rhs


# -- exterior derivative ------------------------------------------------------------

def test_dform_examples():
    n = 5
    d1 = dform(coordinate_form(n, 1).poly_scale(x(n, 0)))
    assert d1 == wedge(coordinate_form(n, 0), coordinate_form(n, 1))
    d2 = dform(coordinate_form(n, 0).poly_scale(x(n, 1)))
    assert d2 == -wedge(coordinate_form(n, 0), coordinate_form(n, 1))
    closed = DiffForm(n, 1, {(i,): x(n, i).scale((-1) ** i) for i in range(n)})
    assert dform(closed).is_zero()


def test_dd_zero_randomized():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 6)
        k = rng.randint(0, n - 2)
        w = random_form(rng, n, k, max_degree=4)
        assert dform(dform(w)).is_zero()


def test_d_leibniz_randomized():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(3, 5)
        kw = rng.randint(0, min(2, n - 2))
        ke = rng.randint(0, n - kw - 2)
        w, e = random_form(rng, n, kw), random_form(rng, n, ke)
        lhs = dform(wedge(w, e))
        rhs = wedge(dform(w), e)
        term = wedge(w, dform(e))
        rhs = rhs + (-term if kw % 2 else term)
        assert lhs == rhs


# -- Lie bracket --------------------------------------------------------------------

def test_lie_bracket_examples():
    n = 2
    d1, d2 = coordinate_field(n, 0), coordinate_field(n, 1)
    assert lie_bracket(d1, d2).is_zero()
    assert lie_bracket(d1, d2.poly_scale(x(n, 0))) == d2
    lhs = lie_bracket(d1.poly_scale(x(n, 0)), d2.poly_scale(x(n, 0)))
    assert lhs == d2.poly_scale(x(n, 0))


def test_lie_bracket_jacobi_randomized():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 4)
        X, Y, Z = (random_tensor(rng, n, 1, max_degree=2) for _ in range(3))
        jac = lie_bracket(X, lie_bracket(Y, Z)) + \
            lie_bracket(Y, lie_bracket(Z, X)) + \
            lie_bracket(Z, lie_bracket(X, Y))
        assert jac.is_zero()


@st.composite
def field_pairs(draw):
    """Two vector fields on 2..4 variables with coefficients of degree <= 3,
    and a cut degree."""
    n = draw(st.integers(2, 4))
    X, Y = (Multivector(n, 1, {(k,): draw(small_polys(n, 3)) for k in range(n)})
            for _ in range(2))
    return X, Y, draw(st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(field_pairs())
def test_cut_derivations_equal_the_truncated_uncut_ones(case):
    X, Y, trunc = case
    f = Y.component((0,))
    assert apply_vector(X, f, trunc) == apply_vector(X, f).truncate(trunc)
    assert lie_bracket(X, Y, trunc) == lie_bracket(X, Y).truncate(trunc)


# -- duality -----------------------------------------------------------------------

def test_tensor_to_form_golden_sign():
    # golden: under the lowest-first contraction convention the sign is +
    P = basis_multivector(5, (0, 1, 2))
    assert tensor_to_form(P) == wedge(coordinate_form(5, 3), coordinate_form(5, 4))


def test_tensor_to_form_zero_and_scaled():
    assert tensor_to_form(Multivector(5, 3, {})).is_zero()
    P = basis_multivector(4, (0, 1, 2))
    # i_P (2 vol) = i_{2P} vol
    assert tensor_to_form(P.scale(2)) == coordinate_form(4, 3).scale(2)


def test_form_to_tensor_examples():
    w45 = wedge(coordinate_form(5, 3), coordinate_form(5, 4))
    assert form_to_tensor(w45) == basis_multivector(5, (0, 1, 2))
    assert form_to_tensor(DiffForm(5, 2, {})).is_zero()


def test_tensor_to_form_matches_interior_of_the_volume():
    # the duality as first defined, omega = i_P (dx1^...^dxn), kept here as
    # the reference: same components, inserted in the same order
    rng = random.Random(23)
    for n in range(3, 8):
        for k in range(n + 1):
            for _ in range(3):
                P = random_tensor(rng, n, k)
                form, ref = tensor_to_form(P), interior(P, DiffForm(n, n, {tuple(range(n)): Poly.one(n)}))
                assert form == ref
                assert list(form.comps) == list(ref.comps)


def test_index_table_matches_contract_and_merge_sign():
    for n in range(1, 8):
        for p in range(1, n + 1):
            contract, lifts = _index_table(n, p)
            keys = list(itertools.combinations(range(n), p - 1))
            assert list(contract) == keys
            for A in keys:
                expected = {}
                for K in itertools.combinations(range(n), p):
                    for (i,), s in _contract({K: 1}, A).items():
                        expected[K] = (i, s)
                assert contract[A] == expected
            for g, lift in zip((p, p + 1), lifts):
                slots = list(itertools.combinations(range(n), g + 1))
                grade_g = list(itertools.combinations(range(n), g))
                assert list(lift) == grade_g
                for K in grade_g:
                    expected = []
                    for i in range(n):
                        ms = merge_sign((i,), K)
                        if ms is not None:
                            expected.append((i, slots.index(ms[0]), ms[1]))
                    assert list(lift[K]) == expected


def test_duality_round_trip_randomized():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(3, 6)
        k = rng.randint(0, n)
        P = random_tensor(rng, n, k, max_degree=3)
        assert form_to_tensor(tensor_to_form(P)) == P


# -- formal maps ---------------------------------------------------------------------

def test_formal_inverse_examples():
    ident = FormalMap.identity(3)
    assert ident.inverse().comps == ident.comps
    # single variable x' = x + x^2: inverse x = x' - x'^2 + 2x'^3 (Lagrange reversion)
    phi = FormalMap([parse_poly("x1 + x1^2", 1)], trunc=3)
    inv = phi.inverse(3)
    assert inv.comps[0] == parse_poly("x1 - x1^2 + 2*x1^3", 1)
    L = RatMatrix([[2, 1], [1, 1]])
    lin = FormalMap.from_matrix(L)
    assert lin.inverse().linear_matrix() == L.inverse()


def test_formal_inverse_two_sided_randomized():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 3)
        N = 4
        base = random_linear_map(rng, n)
        comps = []
        for i in range(n):
            extra = {}
            for _ in range(2):
                exps = [0] * n
                for _ in range(rng.randint(2, 3)):
                    exps[rng.randrange(n)] += 1
                extra[tuple(exps)] = Fraction(rng.randint(-2, 2))
            comps.append(base.comps[i] + Poly(n, extra))
        phi = FormalMap(comps, trunc=N)
        psi = phi.inverse(N)
        ident = FormalMap.identity(n)
        fwd = phi.compose(psi, N)
        bwd = psi.compose(phi, N)
        for i in range(n):
            assert fwd.comps[i].truncate(N) == ident.comps[i]
            assert bwd.comps[i].truncate(N) == ident.comps[i]


def _inverse_one_at_a_time(phi, N):
    """FormalMap.inverse's graded fixed point, each polynomial substituted
    on its own."""
    lin = psi = FormalMap.from_matrix(phi.linear_matrix().inverse()).comps
    for k in range(2, N + 1):
        err = [c.substitute(psi, k).homogeneous_component(k) for c in phi.comps]
        psi = [p - l.substitute(err) for p, l in zip(psi, lin)]
    return tuple(psi)


def _pullback_one_at_a_time(w, phi):
    """The exact pullback: each coefficient substituted on its own, times
    the wedge of the d(phi_k)."""
    n = w.nvars
    out = DiffForm(n, w.grade, {})
    for K, c in w.comps.items():
        term = DiffForm(n, 0, {(): c.substitute(phi.comps)})
        for k in K:
            term = wedge(term, dform(DiffForm(n, 0, {(): phi.comps[k]})))
        out = out + term
    return out


@st.composite
def maps_and_forms(draw):
    """(phi, psi, w, N): two maps x + (terms of degree 2 and 3 with rational
    coefficients) on 2..4 variables, a form of any grade, and N in 2..4."""
    n = draw(st.integers(2, 4))
    tails = [draw(small_polys(n, 3)) for _ in range(2 * n)]
    phi = FormalMap([x(n, i) + p - p.truncate(1) for i, p in enumerate(tails[:n])])
    psi = FormalMap([x(n, i) + p - p.truncate(1) for i, p in enumerate(tails[n:])])
    grade = draw(st.integers(0, n))
    keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), grade))),
                         min_size=1, max_size=3, unique=True))
    w = DiffForm(n, grade, {key: draw(small_polys(n, 2)) for key in keys})
    return phi, psi, w, draw(st.integers(2, 4))


@settings(max_examples=60, deadline=None)
@given(maps_and_forms())
def test_shared_substitution_matches_one_polynomial_at_a_time(case):
    # compose, inverse and pullback substitute all their polynomials along
    # one map with one power table; each polynomial on its own gives the same
    phi, psi, w, N = case
    assert phi.compose(psi, N).comps == tuple(c.substitute(psi.comps, N) for c in phi.comps)
    assert phi.inverse(N).comps == _inverse_one_at_a_time(phi, N)
    assert pullback_form(w, phi, N) == _pullback_one_at_a_time(w, phi).truncate(N)
    assert pullback_form(w, psi) == _pullback_one_at_a_time(w, psi)


def test_singular_linear_part_rejected():
    with pytest.raises(PreconditionError):
        FormalMap([Poly.variable(2, 0), Poly.variable(2, 0)])
    with pytest.raises(PreconditionError):
        FormalMap([Poly.one(2), Poly.variable(2, 1)])


# -- pullback / pushforward ------------------------------------------------------------

def test_pullback_examples():
    n = 2
    phi = FormalMap([parse_poly("x1 + x2^2", 2), parse_poly("x2", 2)], trunc=4)
    pulled = pullback_form(coordinate_form(n, 0), phi, 4)
    want = coordinate_form(n, 0) + coordinate_form(n, 1).poly_scale(
        parse_poly("2*x2", 2))
    assert pulled == want
    w = random_form(random.Random(1), 3, 2)
    assert pullback_form(w, FormalMap.identity(3), 5) == w.truncate(5)


def test_pullback_linear_two_form_matches_cofactors():
    # derived oracle: for linear maps a 2-form pulls back through the 2x2 minors
    rng = random.Random(29)
    n = 3
    for _ in range(10):
        phi = random_linear_map(rng, n)
        L = phi.linear_matrix()
        w = random_form(rng, n, 2, max_degree=0)
        pulled = pullback_form(w, phi)
        comps = {}
        for (a, b), c in w.comps.items():
            val = c.constant_term()
            for i, j in itertools.combinations(range(n), 2):
                minor = L[a, i] * L[b, j] - L[a, j] * L[b, i]
                if minor:
                    key = (i, j)
                    comps[key] = comps.get(key, Fraction(0)) + val * minor
        want = DiffForm(n, 2, {k: Poly.const(n, v) for k, v in comps.items() if v})
        assert pulled == want


def test_pullback_functoriality():
    rng = random.Random(31)
    # exact linear case
    for _ in range(10):
        n = rng.randint(2, 4)
        w = random_form(rng, n, rng.randint(1, n))
        phi, psi = random_linear_map(rng, n), random_linear_map(rng, n)
        lhs = pullback_form(pullback_form(w, psi), phi)
        rhs = pullback_form(w, psi.compose(phi))
        assert lhs == rhs
    # truncated polynomial case
    N = 4
    for _ in range(8):
        n = rng.randint(2, 3)
        w = random_form(rng, n, 1, max_degree=2)
        base1 = random_linear_map(rng, n)
        comps = []
        for i in range(n):
            exps = [0] * n
            exps[rng.randrange(n)] += 2
            comps.append(base1.comps[i] + Poly(n, {tuple(exps): Fraction(rng.randint(-2, 2))}))
        phi = FormalMap(comps, trunc=N)
        psi = random_linear_map(rng, n)
        lhs = pullback_form(pullback_form(w, psi, N), phi, N)
        rhs = pullback_form(w, psi.compose(phi, N), N)
        assert lhs.truncate(N) == rhs.truncate(N)


def test_pushforward_examples():
    assert pushforward_tensor(
        basis_multivector(2, (0, 1)), FormalMap.identity(2)) == basis_multivector(2, (0, 1))
    phi = FormalMap.from_matrix(RatMatrix([[2, 0], [0, 1]]))
    assert pushforward_tensor(coordinate_field(2, 0), phi) == \
        coordinate_field(2, 0).scale(2)


def test_pushforward_linear_matches_exterior_power():
    rng = random.Random(37)
    n = 4
    for _ in range(10):
        phi = random_linear_map(rng, n)
        L = phi.linear_matrix()
        P = random_tensor(rng, n, 2, max_degree=0)
        pushed = pushforward_tensor(P, phi)
        comps = {}
        for (a, b), c in P.comps.items():
            val = c.constant_term()
            for i, j in itertools.combinations(range(n), 2):
                minor = L[i, a] * L[j, b] - L[i, b] * L[j, a]
                if minor:
                    comps[(i, j)] = comps.get((i, j), Fraction(0)) + val * minor
        want = Multivector(n, 2, {k: Poly.const(n, v) for k, v in comps.items() if v})
        assert pushed == want


def test_pushforward_pullback_consistency_randomized():
    # duality transport: i_{phi_* P} Omega = (det Dphi o phi^{-1}) (phi^{-1})^* i_P Omega
    rng = random.Random(41)
    N = 4
    for _ in range(8):
        n = rng.randint(2, 3)
        P = random_tensor(rng, n, 1, max_degree=2)
        base = random_linear_map(rng, n)
        comps = []
        for i in range(n):
            exps = [0] * n
            exps[rng.randrange(n)] += 2
            comps.append(base.comps[i] + Poly(n, {tuple(exps): Fraction(rng.randint(-1, 1))}))
        phi = FormalMap(comps, trunc=N)
        pushed = pushforward(P, phi, N)
        back = pushforward(pushed, phi.inverse(N), N)
        assert back.truncate(N - 1) == P.truncate(N - 1)


def _pushforward_by_duality(P, phi, N):
    """The volume-duality route: dualize, pull back along the inverse, multiply
    by the transported Jacobian determinant, dualize back."""
    n = P.nvars
    inv = phi.inverse(N)
    detj = pullback_form(DiffForm(n, n, {tuple(range(n)): Poly.one(n)}), phi).component(range(n))
    pulled = pullback_form(tensor_to_form(P), inv, N)
    jac = detj if N is None else detj.substitute(inv.comps, N)
    return form_to_tensor(pulled.poly_scale(jac, N))


@st.composite
def small_polys(draw, n, max_degree):
    """Up to three terms of degree <= max_degree with small coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=max_degree)):
            e[i] += 1
        terms[tuple(e)] = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
    return Poly(n, terms)


@st.composite
def pushforward_cases(draw):
    """A tensor of any grade on 2..5 variables, a map x + (quadratic terms)
    and an invertible linear map."""
    n = draw(st.integers(2, 5))
    grade = draw(st.integers(0, n))
    keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), grade))),
                         min_size=1, max_size=3, unique=True))
    P = Multivector(n, grade, {key: draw(small_polys(n, 2)) for key in keys})
    comps = []
    for i in range(n):
        comp = x(n, i)
        for _ in range(draw(st.integers(0, 2))):
            j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            comp = comp + x(n, j).mul(x(n, k)).scale(draw(st.integers(-2, 2)))
        comps.append(comp)
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    diag = draw(st.lists(st.sampled_from([Fraction(-2), Fraction(1, 2), Fraction(1), Fraction(3)]),
                         min_size=n, max_size=n))
    lower = RatMatrix([[entries[i * n + j] if j < i else int(i == j) for j in range(n)]
                       for i in range(n)])
    upper = RatMatrix([[entries[i * n + j] if j > i else diag[i] * (i == j) for j in range(n)]
                       for i in range(n)])
    linear = FormalMap.from_matrix(lower.matmul(upper))
    return P, FormalMap(comps), linear, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(pushforward_cases())
def test_pushforward_definition_properties(case):
    P, phi, linear, N = case
    n = P.nvars
    pushed = pushforward(P, phi, N)
    # the duality route is exact through N once the coefficients vanish at 0
    P0 = P.map_coeffs(lambda c: c - Poly.const(n, c.constant_term()))
    assert pushforward(P0, phi, N) == _pushforward_by_duality(P0, phi, N).truncate(N)
    # every tensor is exact through N: three more orders change nothing there
    assert pushforward(P, phi, N + 3).truncate(N) == pushed
    # linear maps are transported exactly, with no truncation, and only they
    moved = pushforward_tensor(P, linear)
    assert moved == _pushforward_by_duality(P, linear, None)
    assert moved == pushforward(P, linear, None)
    assert pushforward_tensor(moved, linear.inverse()) == P
    if not phi.is_linear():
        with pytest.raises(PreconditionError, match="linear map"):
            pushforward_tensor(P, phi)


# -- blocks, embedding, serialization ---------------------------------------------------

def test_prefix_blocks_roundtrip():
    rng = random.Random(43)
    n, k = 5, 2
    w = random_form(rng, n, 3)
    blocks = prefix_blocks(w, k)
    rebuilt = DiffForm(n, 3, {})
    for T, part in blocks.items():
        prefix = DiffForm(n, len(T), {T: Poly.one(n)})
        rebuilt = rebuilt + wedge(prefix, part)
    assert rebuilt == w


def test_restrict_embed_roundtrip():
    n = 5
    idx = [1, 3, 4]
    w = DiffForm(n, 2, {(1, 3): Poly.variable(n, 4), (3, 4): Poly.one(n)})
    r = restrict(w, idx)
    assert embed(r, idx, n) == w
    with pytest.raises(ValueError):
        restrict(DiffForm(n, 1, {(0,): Poly.one(n)}), idx)


def test_graded_json_roundtrip():
    data = {"nvars": 5, "grade": 3, "components": {"1,2,3": "1"}}
    P = graded_from_json(data, "vector")
    assert P == basis_multivector(5, (0, 1, 2))
    again = graded_from_json(P.to_json_obj())
    assert again == P


def test_graded_json_validation():
    from nambu.polyalg import InputError
    with pytest.raises(InputError):
        graded_from_json({"nvars": 5, "grade": 3, "components": {"2,1,3": "1"}})
    with pytest.raises(InputError):
        graded_from_json({"nvars": 5, "grade": 3, "components": {"1,2": "1"}})
    with pytest.raises(InputError):
        graded_from_json({"nvars": 5, "grade": 3})
    with pytest.raises(InputError):
        graded_from_json({"nvars": 2, "grade": 1, "components": {"1": "x1^"}})
    # booleans are ints in Python, but not sizes
    with pytest.raises(InputError):
        graded_from_json({"nvars": True, "grade": 1, "components": {"1": "x1"}})
    with pytest.raises(InputError):
        graded_from_json({"nvars": 2, "grade": True, "components": {"1": "x1"}})


def test_formal_map_json_roundtrip():
    phi = FormalMap([parse_poly("x1 + x2^2", 2), parse_poly("x2", 2)], trunc=4)
    again = formal_map_from_json(formal_map_to_json(phi))
    assert again.comps == phi.comps and again.trunc == 4
