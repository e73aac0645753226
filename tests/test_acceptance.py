"""Acceptance criteria: one test per criterion, exact tolerances, one line each.

Every check is exact (Fraction arithmetic, zero tolerance) except where the
criterion itself names a numeric tolerance. Fixture sampling is seeded, so
this module is deterministic. Expected wall times are printed per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from nambu.polyalg import Poly, RatMatrix, char_poly
from nambu.exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    coordinate_form,
    dform,
    embed,
    extend_map,
    form_to_tensor,
    interior,
    pullback_form,
    restrict,
    tensor_to_form,
    wedge,
    wedge_all,
)
from nambu.verify import (
    fundamental_identity_residual,
    is_conambu,
    is_nambu,
    monomials_up_to,
    search_identity_violation,
)
from nambu.linclass import classify_linear, normal_form_generator
from nambu.formal import (
    formal_linearize_type1,
    lie_derivative,
    poincare_linearize,
    prelinearize_type2,
    remove_multiplier,
    resonance_report,
)
from reference import pushforward


def report(num, name, t0):
    print(f"ACCEPTANCE {num} ({name}): PASS ({time.time() - t0:.1f} s)")


def rand_inv(rng, n, spread=1):
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-spread, spread))
            upper[j][i] = Fraction(rng.randint(-spread, spread))
    return RatMatrix(lower).matmul(RatMatrix(upper))


def sign_patterns(rng, length, count=8):
    if length == 0:
        return [[]]
    total = 2 ** length
    if total <= count:
        return [[1 if (mask >> t) & 1 == 0 else -1 for t in range(length)]
                for mask in range(total)]
    seen = set()
    out = []
    while len(out) < count:
        pat = tuple(rng.choice([1, -1]) for _ in range(length))
        if pat not in seen:
            seen.add(pat)
            out.append(list(pat))
    return out


def criterion1_fixtures():
    """All (n, q, params) fixture descriptors for criteria 1 and 2."""
    rng = random.Random(20260811)
    fixtures = []
    for n in (4, 5, 6):
        for q in range(3, n):
            p = n - q
            for r in range(-1, q + 1):
                smax = min(p - 1, q - r)
                for s in range(0, smax + 1):
                    for signs in sign_patterns(rng, r + 1):
                        fixtures.append(("type1", n, q,
                                         dict(r=r, s=s, signs=signs)))
            for _ in range(10):
                while True:
                    B = RatMatrix([[Fraction(rng.randint(-3, 3))
                                    for _ in range(p + 1)]
                                   for _ in range(p + 1)])
                    if any(v != 0 for row in B.data for v in row):
                        break
                fixtures.append(("type2", n, q, dict(matrix=B)))
    return fixtures


FIXTURES = criterion1_fixtures()


def test_criterion_1_normal_form_validity():
    t0 = time.time()
    checked = 0
    for tag, n, q, params in FIXTURES:
        P, w = normal_form_generator(tag, n, q, **params)
        if P.is_zero():
            continue
        verdict = is_nambu(P)
        assert verdict.passed, (tag, n, q, params)
        checked += 1
    assert checked >= 250
    report(1, f"normal-form validity, {checked} fixtures", t0)


def test_criterion_2_classification_round_trip():
    t0 = time.time()
    rng = random.Random(7041997)
    trips = 0
    for tag, n, q, params in FIXTURES:
        P, w = normal_form_generator(tag, n, q, **params)
        if w.is_zero():
            continue
        base = classify_linear(w)
        for _ in range(20):
            M = rand_inv(rng, n)
            moved = pullback_form(w, FormalMap.from_matrix(M))
            rep = classify_linear(moved)
            assert rep.normal_form.tag == base.normal_form.tag, (tag, n, q, params)
            if base.normal_form.tag == "type1" and base.nondegenerate:
                assert rep.signature == base.signature
                assert rep.index_pair == base.index_pair
            if base.normal_form.tag == "type2":
                assert proportional_chars(char_poly(rep.normal_form.matrix),
                                          char_poly(base.normal_form.matrix)), (n, q, params)
            trips += 1
    report(2, f"classification round trip, {trips} classifications", t0)


def proportional_chars(a, b):
    """Eigenvalue multisets agree up to one common nonzero rational scalar."""
    deg = len(a) - 1
    if len(b) - 1 != deg:
        return False
    for i in range(deg + 1):
        if (a[i] == 0) != (b[i] == 0):
            return False
    # a_k = c^{deg-k} b_k: verify pairwise cross powers exactly
    for i in range(deg + 1):
        for j in range(i + 1, deg + 1):
            if a[i] == 0 or a[j] == 0:
                continue
            if (a[i] / b[i]) ** (deg - j) != (a[j] / b[j]) ** (deg - i):
                return False
    return True


def test_criterion_3_duality_and_algebra_suite():
    t0 = time.time()
    rng = random.Random(31)

    def random_graded(cls, n, k, max_degree=3):
        comps = {}
        for key in itertools.combinations(range(n), k):
            if rng.random() < 0.5:
                continue
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * n
                for _ in range(rng.randint(0, max_degree)):
                    e[rng.randrange(n)] += 1
                terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            comps[key] = Poly(n, terms)
        return cls(n, k, comps)

    for _ in range(100):
        n = rng.randint(3, 6)
        k = rng.randint(0, n)
        P = random_graded(Multivector, n, k)
        assert form_to_tensor(tensor_to_form(P)) == P
    count = 0
    while count < 500:
        n = rng.randint(3, 6)
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        a = random_graded(DiffForm, n, ka)
        b = random_graded(DiffForm, n, kb)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        assert lhs == (-rhs if (ka * kb) % 2 else rhs)
        if 1 <= ka + kb <= n:
            from nambu.exterior import coordinate_field
            v = coordinate_field(n, rng.randrange(n))
            left = interior(v, wedge(a, b))
            right = DiffForm(n, ka + kb - 1, {})
            if ka >= 1:
                right = right + wedge(interior(v, a), b)
            if kb >= 1:
                term = wedge(a, interior(v, b))
                right = right + (-term if ka % 2 else term)
            assert left == right
        if ka <= n - 2:
            assert dform(dform(a)).is_zero()
        count += 1
    report(3, "duality round trips and graded identities", t0)


def test_criterion_4_oracle_agreement():
    t0 = time.time()
    rng = random.Random(55)

    def random_linear_tensor(n, q):
        comps = {}
        for key in itertools.combinations(range(n), q):
            if rng.random() < 0.5:
                continue
            terms = {}
            for _ in range(rng.randint(1, 2)):
                e = [0] * n
                e[rng.randrange(n)] = 1
                terms[tuple(e)] = Fraction(rng.randint(-3, 3))
            if terms:
                comps[key] = Poly(n, terms)
        return Multivector(n, q, comps)

    tensors = 0
    incidents = []
    while tensors < 50:
        n = rng.choice([4, 5])
        P = random_linear_tensor(n, 3)
        if P.is_zero():
            continue
        tensors += 1
        pool = [m for m in monomials_up_to(n, 2) if m.degree >= 1]
        if is_nambu(P).passed:
            for _ in range(200):
                fs = [rng.choice(pool) for _ in range(2)]
                gs = [rng.choice(pool) for _ in range(3)]
                assert fundamental_identity_residual(P, fs, gs).is_zero(), \
                    (P, fs, gs)
        else:
            hit = search_identity_violation(P, 2)
            if hit is None:
                incidents.append(P)  # flagged, never converted into a pass
            else:
                fs, gs, res = hit
                assert fundamental_identity_residual(P, fs, gs) == res
                assert not res.is_zero()
    assert not incidents, f"bounded oracle search found no witness for {len(incidents)} tensors"
    report(4, "oracle agreement on 50 linear tensors", t0)


def quad_perturbation(rng, n, terms=2):
    comps = []
    for i in range(n):
        poly = Poly.variable(n, i)
        for _ in range(terms):
            e = [0] * n
            e[rng.randrange(n)] += 1
            e[rng.randrange(n)] += 1
            poly = poly + Poly.monomial(n, e, rng.randint(-2, 2))
        comps.append(poly)
    return FormalMap(comps, trunc=None)


def test_criterion_5_formal_linearization_type1():
    t0 = time.time()
    rng = random.Random(77)
    n, p, N = 5, 2, 4
    for signs in ([1, 1, 1, 1], [1, 1, 1, -1]):  # elliptic and signature 2
        alpha = DiffForm(n, 1, {(j,): Poly.variable(n, j).scale(s)
                                for j, s in zip(range(1, n), signs)})
        w_lin = wedge(coordinate_form(n, 0), alpha)
        for _ in range(20):
            phi0 = quad_perturbation(rng, n)
            w = pullback_form(w_lin, phi0, N)
            res = formal_linearize_type1(w, N)
            residual = pullback_form(w, res.change, N) - \
                res.linear_form.poly_scale(res.multiplier, N)
            assert residual.truncate(N).is_zero()
    report(5, "Type 1 formal linearization, 40 perturbed fixtures", t0)


def test_criterion_6_multiplier_removal():
    t0 = time.time()
    n, N = 4, 4
    signs = [1, 1, 1, 1]
    P1, _ = normal_form_generator("type1", n, 3, r=3, s=0, signs=signs)
    from nambu.polyalg import parse_poly
    for text in ("1 + x1", "1 + x1*x2"):
        f = parse_poly(text, n)
        res = remove_multiplier(f, signs, N)
        for r, X, f_r in res.per_degree:
            assert lie_derivative(X, P1) == P1.poly_scale(f_r)
        pushed = pushforward(P1.poly_scale(f, N + 1), res.change, N)
        assert (pushed - P1).truncate(N).is_zero()
    report(6, "multiplier removal with exact Lie identities", t0)


def test_criterion_7_type2_pipeline():
    t0 = time.time()
    rng = random.Random(99)
    n, q, N = 5, 4, 3
    B = RatMatrix([[2, 0], [0, 3]])
    P0, w0 = normal_form_generator("type2", n, q, matrix=B)
    yidx = [3, 4]
    for _ in range(20):
        psi = quad_perturbation(rng, n)
        w_fix = pullback_form(w0, psi)  # exact pullback: exactly co-Nambu
        P = form_to_tensor(w_fix)
        pre = prelinearize_type2(P, N)
        Xy = restrict(pre.field, yidx)
        pres = poincare_linearize(Xy, N)
        full = extend_map(pres.change, yidx, n)
        total = full.compose(pre.change, N)
        final = pushforward(P, total, N)
        # the multiplier is read in P's coordinates: f = multiplier o change^-1
        f = pre.multiplier.substitute(pre.change.inverse(N).comps, N)
        multiplier = f.substitute(full.inverse(N).comps, N)
        lin_field = embed(Xy.homogeneous_component(1), yidx, n)
        target = wedge_all(pre.frame + [lin_field], N).poly_scale(multiplier, N)
        assert (final - target).truncate(N).is_zero()
    rep12 = resonance_report(RatMatrix([[1, 0], [0, 2]]), 10)
    assert rep12.resonances == [(2, (2, 0))]
    rep23 = resonance_report(RatMatrix([[2, 0], [0, 3]]), 10)
    assert rep23.resonances == []
    report(7, "Type 2 pipeline, 20 fixtures + resonance checks", t0)


def test_criterion_8_d_closure():
    t0 = time.time()
    rng = random.Random(111)
    cases = 0
    while cases < 50:
        n, q = rng.choice([(5, 4), (6, 4), (6, 5)])
        p = n - q
        B = RatMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(p + 1)]
                       for _ in range(p + 1)])
        P, w = normal_form_generator("type2", n, q, matrix=B)
        if w.is_zero():
            continue
        moved = pullback_form(w, FormalMap.from_matrix(rand_inv(rng, n)))
        assert is_conambu(moved).passed
        dw = dform(moved)
        assert is_conambu(dw).passed  # co-order n - (p+1) = q - 1 >= 3
        cases += 1
    report(8, "d-closure on 50 coordinate-changed fixtures", t0)
