"""Nambu verification layer: duality checks, Hamiltonian fields, the FI oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu.polyalg import Poly, PreconditionError, RatMatrix
from nambu.exterior import (
    DiffForm,
    _contract,
    _integer_parts,
    _wedge_into,
    FormalMap,
    Multivector,
    basis_multivector,
    coordinate_form,
    dform,
    interior,
    pullback_form,
    scalar_form,
    tensor_to_form,
    wedge,
)
from nambu.verify import (
    _first_failure,
    fundamental_identity_residual,
    hamiltonian_vf,
    is_conambu,
    is_nambu,
    nambu_bracket,
    search_identity_violation,
)


def x(n, i):
    return Poly.variable(n, i)


def type1_linear_form(n, p, signs):
    """dx1^...^dx_{p-1} ^ sum_j eps_j x_j dx_j over the trailing block."""
    alpha = DiffForm(n, 1, {(j,): x(n, j).scale(s)
                            for j, s in zip(range(p - 1, n), signs)})
    form = alpha
    for i in reversed(range(p - 1)):
        form = wedge(coordinate_form(n, i), form)
    return form


def random_unimodular_map(rng, n, spread=2):
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-spread, spread))
            upper[j][i] = Fraction(rng.randint(-spread, spread))
    return FormalMap.from_matrix(RatMatrix(lower).matmul(RatMatrix(upper)))


def random_linear_tensor(rng, n, q):
    comps = {}
    for key in itertools.combinations(range(n), q):
        if rng.random() < 0.5:
            continue
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = [0] * n
            e[rng.randrange(n)] = 1
            terms[tuple(e)] = Fraction(rng.randint(-3, 3))
        comps[key] = Poly(n, terms)
    return Multivector(n, q, comps)


def random_poly(rng, n, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(n, terms)


# -- is_conambu examples ---------------------------------------------------------

def test_constant_decomposable_passes():
    n = 5
    w = wedge(coordinate_form(n, 0), coordinate_form(n, 1))
    assert is_conambu(w).passed


def test_type1_linear_form_passes():
    w = type1_linear_form(5, 2, [1, 1, 1, 1])
    assert is_conambu(w).passed


def test_sum_of_decomposables_fails_with_witness():
    n = 5
    w = wedge(coordinate_form(n, 0), coordinate_form(n, 1)) + \
        wedge(coordinate_form(n, 2), coordinate_form(n, 3))
    v = is_conambu(w)
    assert not v.passed
    assert v.witness.A == (0,)
    assert v.witness.equation == 3
    want = wedge(coordinate_form(n, 1),
                 wedge(coordinate_form(n, 2), coordinate_form(n, 3)))
    assert v.witness.residual == want


def test_witness_residual_recomputes_nonzero():
    rng = random.Random(3)
    from nambu.exterior import basis_multivector as bm, interior
    for _ in range(20):
        P = random_linear_tensor(rng, 5, 3)
        if P.is_zero():
            continue
        v = is_nambu(P)
        if v.passed:
            continue
        w = tensor_to_form(P)
        A = bm(5, v.witness.A)
        target = w if v.witness.equation == 3 else dform(w)
        recomputed = wedge(interior(A, w), target)
        assert recomputed == v.witness.residual
        assert not recomputed.is_zero()


def test_witness_is_first_failure_across_linear_parts():
    # with w_j the constant form multiplying x_j, the x3*x4 coefficient of
    # i_{e1} w ^ w is i_{e1} w_4 ^ w_3 = dx2^dx3^dx4, because i_{e1} w_3 = 0;
    # missing that term would put the first failure at A = (2,)
    n = 5
    w = DiffForm(n, 2, {(0, 1): x(n, 3), (2, 3): x(n, 2)})
    v = is_conambu(w)
    assert (v.witness.A, v.witness.equation) == ((0,), 3)
    assert v.witness.residual == wedge(interior(basis_multivector(n, (0,)), w), w)


def _first_failure_reference(w):
    dw = dform(w)
    for key in itertools.combinations(range(w.nvars), w.grade - 1):
        ia = interior(basis_multivector(w.nvars, key), w)
        if not wedge(ia, w).is_zero():
            return key, 3
        if not wedge(ia, dw).is_zero():
            return key, 4
    return None


SMALL = st.fractions(-3, 3, max_denominator=3)
# coefficients far above any machine word, for the packed co-Nambu check
BIG = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**12))


@st.composite
def polynomial_forms(draw, coeffs=SMALL):
    n = draw(st.integers(4, 6))
    p = draw(st.integers(1, n - 3))
    linear = draw(st.booleans())
    comps = {}
    for key in itertools.combinations(range(n), p):
        if draw(st.booleans()):
            continue
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            e = [0] * n
            if linear:
                e[draw(st.integers(0, n - 1))] = 1
            else:
                for _ in range(draw(st.integers(0, 2))):
                    e[draw(st.integers(0, n - 1))] += 1
            terms[tuple(e)] = draw(coeffs)
        comps[key] = Poly(n, terms)
    return DiffForm(n, p, comps)


@settings(max_examples=300, deadline=None)
@given(polynomial_forms())
def test_witness_matches_basis_reference(w):
    v = is_conambu(w)
    assert (None if v.passed else (v.witness.A, v.witness.equation)) \
        == _first_failure_reference(w)


def _per_key_wedge_failure(omega):
    """The per-key loop that _first_failure replaced: every key wedges each
    contraction i_A w_m against every part w_m' again."""
    n, p = omega.nvars, omega.grade
    parts = _integer_parts(omega)
    dparts = {}
    for m, w in parts.items():
        for j, e in enumerate(m):
            if e:
                lower = m[:j] + (e - 1,) + m[j + 1:]
                _wedge_into(dparts.setdefault(lower, {}), {(j,): e}, w)
    for key in itertools.combinations(range(n), p - 1):
        contracted = {m: c for m, w in parts.items() if (c := _contract(w, key))}
        for eq, rhs in ((3, parts), (4, dparts)):
            coeffs = {}
            for m, c in contracted.items():
                for m2, w in rhs.items():
                    M = tuple(a + b for a, b in zip(m, m2))
                    _wedge_into(coeffs.setdefault(M, {}), c, w)
            if any(coeffs.values()):
                return key, eq
    return None


@st.composite
def passing_forms(draw, coeffs=SMALL):
    """f dg_1 ^ ... ^ dg_p for polynomials f and g_j: co-Nambu by construction."""
    n = draw(st.integers(4, 6))
    p = draw(st.integers(1, n - 3))
    mono = st.lists(st.integers(0, n - 1), min_size=0, max_size=2)

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * n
            for i in draw(mono):
                e[i] += 1
            terms[tuple(e)] = draw(coeffs)
        return Poly(n, terms)

    omega = scalar_form(poly())
    for _ in range(p):
        omega = wedge(omega, dform(scalar_form(poly())))
    return omega


@settings(max_examples=300, deadline=None)
@given(st.one_of(polynomial_forms(), passing_forms()))
def test_first_failure_matches_the_per_key_wedge_loop(w):
    assert _first_failure(w) == _per_key_wedge_failure(w)


@settings(max_examples=150, deadline=None)
@given(st.one_of(polynomial_forms(BIG), passing_forms(BIG)))
def test_first_failure_with_huge_coefficients(w):
    assert _first_failure(w) == _per_key_wedge_failure(w)


def test_packed_width_is_sharp():
    # a constant 4-form in 7 variables with unit components: |parts| = 1,
    # so the packed width is B = bit_length(1 * 7 * 1 * 1) = 3. At the first
    # key A = (0, 1, 2), i_A w ^ w has components 4 and -1 at the last two
    # slots of the grade-5 tuples, 4 * 2^(2 * 19) - 2^(2 * 20) = 0, so two-bit
    # fields would cancel them and miss the failure; three bits keep it
    n = 7
    w = {(0, 1, 2, i): 1 for i in (3, 4, 5, 6)}
    w.update({(1, 3, 4, 5): 1, (1, 3, 4, 6): -1, (1, 3, 5, 6): 1, (1, 4, 5, 6): -1,
              (2, 3, 4, 5): -1})
    key = (0, 1, 2)
    slots = list(itertools.combinations(range(n), 5))
    lifted = _wedge_into({}, _contract(w, key), w)
    assert [lifted.get(S, 0) for S in slots] == [0] * 19 + [4, -1]
    omega = DiffForm(n, 4, {K: Poly.const(n, v) for K, v in w.items()})
    assert _first_failure(omega) == _per_key_wedge_failure(omega) == (key, 3)


def test_passing_forms_pass():
    n = 5
    f = Poly(n, {(1, 0, 0, 0, 0): Fraction(1), (0, 2, 0, 1, 0): Fraction(-2, 3)})
    g = Poly(n, {(0, 0, 1, 0, 0): Fraction(1), (1, 1, 0, 0, 0): Fraction(1)})
    omega = wedge(scalar_form(f), dform(scalar_form(g)))
    assert _first_failure(omega) is None and _per_key_wedge_failure(omega) is None


def test_q2_rejected():
    w = wedge(coordinate_form(4, 0), coordinate_form(4, 1))  # p=2, q=2
    with pytest.raises(PreconditionError):
        is_conambu(w)
    with pytest.raises(PreconditionError):
        is_nambu(basis_multivector(4, (0, 1)))


def test_p1_integrable_one_form():
    # for p = 1 the check degenerates to omega ^ domega = 0
    n = 4
    closed = DiffForm(n, 1, {(j,): x(n, j) for j in range(n)})
    assert is_conambu(closed).passed
    spiral = DiffForm(n, 1, {(0,): x(n, 1), (1,): x(n, 0).scale(-1), (2,): x(n, 2)})
    assert not is_conambu(spiral).passed


# -- is_nambu examples ------------------------------------------------------------

def test_darboux_tensor_passes():
    assert is_nambu(basis_multivector(5, (0, 1, 2))).passed


def test_type1_corollary_tensor_passes():
    # dual of the definite quadratic: elliptic normal form at n=4, q=3
    w = type1_linear_form(4, 1, [1, 1, 1, 1])
    from nambu.exterior import form_to_tensor
    P = form_to_tensor(w)
    assert is_nambu(P).passed


def test_nondecomposable_tensor_fails():
    P = basis_multivector(5, (0, 1, 2)) + basis_multivector(5, (0, 3, 4))
    assert not is_nambu(P).passed


def test_verdict_independent_of_volume_scaling():
    rng = random.Random(5)
    for _ in range(10):
        P = random_linear_tensor(rng, 5, 3)
        if P.is_zero():
            continue
        # i_P (c vol) = i_{cP} vol for a constant c: scaling the volume form
        # is scaling the tensor
        base = is_nambu(P).passed
        scaled = is_nambu(P.scale(Fraction(3, 2))).passed
        assert base == scaled


# -- Hamiltonian fields and brackets ------------------------------------------------

def test_hamiltonian_examples():
    n = 5
    P = basis_multivector(n, (0, 1, 2))
    from nambu.exterior import coordinate_field
    assert hamiltonian_vf(P, [x(n, 0), x(n, 1)]) == coordinate_field(n, 2)
    assert hamiltonian_vf(P, [x(n, 1), x(n, 0)]) == -coordinate_field(n, 2)
    assert hamiltonian_vf(P, [x(n, 0), x(n, 0)]).is_zero()
    with pytest.raises(ValueError):
        hamiltonian_vf(P, [x(n, 0)])


def test_fundamental_identity_examples():
    n = 5
    P = basis_multivector(n, (0, 1, 2))
    r = fundamental_identity_residual(P, [x(n, 0), x(n, 1)],
                                      [x(n, 0), x(n, 1), x(n, 2)])
    assert r.is_zero()
    r2 = fundamental_identity_residual(P, [x(n, 0).mul(x(n, 1)), x(n, 2)],
                                       [x(n, 0), x(n, 0), x(n, 2)])
    assert r2.is_zero()
    bad = P + basis_multivector(n, (0, 3, 4))
    hit = search_identity_violation(bad, 2)
    assert hit is not None
    fs, gs, res = hit
    assert not res.is_zero()
    assert fundamental_identity_residual(bad, fs, gs) == res


def test_bracket_antisymmetry():
    rng = random.Random(7)
    n = 4
    P = random_linear_tensor(rng, n, 3)
    a, b, c = (random_poly(rng, n) for _ in range(3))
    assert nambu_bracket(P, [a, b, c]) == -nambu_bracket(P, [b, a, c])
    assert nambu_bracket(P, [a, a, c]).is_zero()


# -- module invariants ---------------------------------------------------------------

def test_oracle_agreement_sample():
    # smaller copy of the acceptance criterion: verdicts match the identity oracle
    rng = random.Random(11)
    checked = 0
    tensors = 0
    while tensors < 15:
        n = rng.choice([4, 5])
        P = random_linear_tensor(rng, n, 3)
        if P.is_zero():
            continue
        tensors += 1
        if is_nambu(P).passed:
            for _ in range(60):
                fs = [random_poly(rng, n) for _ in range(2)]
                gs = [random_poly(rng, n) for _ in range(3)]
                assert fundamental_identity_residual(P, fs, gs).is_zero()
            checked += 1
        else:
            assert search_identity_violation(P, 2) is not None
    assert tensors == 15


def test_multiplier_closure():
    rng = random.Random(13)
    base = type1_linear_form(5, 2, [1, -1, 1, 1])
    from nambu.exterior import form_to_tensor
    P = form_to_tensor(base)
    assert is_nambu(P).passed
    for _ in range(20):
        f = random_poly(rng, 5)
        assert is_nambu(P.poly_scale(f)).passed


def test_contraction_closure_r3():
    # contracting a passing order-4 tensor with one linear function leaves order 3
    rng = random.Random(17)
    n = 5
    P = basis_multivector(n, (0, 1, 2, 3))  # Darboux order 4
    assert is_nambu(P).passed
    from nambu.verify import _differential
    from nambu.exterior import contract_oneform
    for _ in range(10):
        f = Poly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(rng.randint(-3, 3))
                     for i in rng.sample(range(n), 2)})
        contracted = contract_oneform(_differential(f), P)
        if contracted.is_zero():
            continue
        assert is_nambu(contracted).passed


def type2_linear_tensor(n, q, entries):
    """d1^...^d_{q-1} ^ (linear field on the trailing p+1 variables)."""
    field = Multivector(n, 1, {})
    for (i, j), c in entries.items():
        field = field + Multivector(n, 1, {(j,): x(n, i).scale(c)})
    frame = basis_multivector(n, tuple(range(q - 1)))
    return wedge(frame, field)


def test_d_closure():
    # d of a co-Nambu form is co-Nambu when the co-order allows; Type-1 normal
    # forms are exact, so the nontrivial instances come from Type 2 (q >= 4)
    rng = random.Random(19)
    cases = 0
    while cases < 12:
        n, q = rng.choice([(5, 4), (6, 4), (6, 5)])
        y = range(q - 1, n)
        entries = {(i, j): Fraction(rng.randint(-3, 3))
                   for i in y for j in y}
        P = type2_linear_tensor(n, q, entries)
        if P.is_zero():
            continue
        w = tensor_to_form(P)
        phi = random_unimodular_map(rng, n)
        moved = pullback_form(w, phi)
        assert is_conambu(moved).passed
        dw = dform(moved)
        if dw.is_zero():
            continue
        assert is_conambu(dw).passed
        cases += 1
