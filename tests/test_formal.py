"""Formal normalization: divisions, Type-1/Type-2 inductions, resonances."""

import functools
import hashlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from nambu import formal
from nambu.cli import run

from nambu.polyalg import (
    Poly,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
    _monomials_of_degree,
    eigen_data,
    parse_poly,
    solve_sparse,
)
from nambu.exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    apply_vector,
    coordinate_field,
    coordinate_form,
    dform,
    form_to_tensor,
    formal_map_from_json,
    lie_bracket,
    lie_derivative,
    linear_rows,
    merge_sign,
    pullback_form,
    scalar_form,
    wedge,
    wedge_all,
)
from nambu.formal import (
    GradedSolveReport,
    contract_residual,
    derham_divide,
    formal_decompose_type1,
    formal_linearize_type1,
    homotopy_antiderivative,
    poincare_linearize,
    prelinearize_type2,
    ResonanceReport,
    remove_multiplier,
    resonance_report,
)
from nambu.linclass import normal_form_generator
from reference import pushforward


def x(n, i):
    return Poly.variable(n, i)


def dx(n, i):
    return coordinate_form(n, i)


def type1_form(n, p, signs):
    alpha = DiffForm(n, 1, {(j,): x(n, j).scale(s)
                            for j, s in zip(range(p - 1, n), signs)})
    form = alpha
    for i in reversed(range(p - 1)):
        form = wedge(coordinate_form(n, i), form)
    return form


def quad_perturbation(rng, n, terms=2, denom=True):
    comps = []
    for i in range(n):
        poly = Poly.variable(n, i)
        for _ in range(terms):
            e = [0] * n
            e[rng.randrange(n)] += 1
            e[rng.randrange(n)] += 1
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2) if denom else 1)
            poly = poly + Poly.monomial(n, e, c)
        comps.append(poly)
    return FormalMap(comps, trunc=None)


# -- DeRham division -----------------------------------------------------------

def test_derham_examples():
    n = 2
    alpha = DiffForm(n, 1, {(0,): x(n, 0), (1,): x(n, 1)})
    beta = DiffForm(n, 2, {(0, 1): x(n, 0)})
    theta = derham_divide(alpha, beta, [0, 1], 4)
    assert theta == coordinate_form(n, 1)
    assert derham_divide(alpha, DiffForm(n, 2, {}), [0, 1], 4).is_zero()
    with pytest.raises(SolveInconsistencyError) as err:
        derham_divide(alpha, DiffForm(n, 2, {(0, 1): Poly.one(n)}), [0, 1], 4)
    assert err.value.degree == 0


def test_derham_randomized_consistent_instances():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 4)
        active = list(range(n))
        alpha = DiffForm(n, 1, {(j,): x(n, j).scale(rng.choice([1, -1]))
                                for j in active})
        theta_true = DiffForm(n, 1, {})
        for j in active:
            if rng.random() < 0.6:
                e = [0] * n
                for _ in range(rng.randint(0, 2)):
                    e[rng.randrange(n)] += 1
                theta_true = theta_true + DiffForm(
                    n, 1, {(j,): Poly.monomial(n, e, rng.randint(-3, 3))})
        beta = wedge(alpha, theta_true)
        theta = derham_divide(alpha, beta, active, 6)
        assert wedge(alpha, theta).truncate(6) == beta.truncate(6)


def test_derham_inert_parameters():
    # the x1 slot rides along as a parameter of the active block (x2, x3)
    n = 3
    alpha = DiffForm(n, 1, {(1,): x(n, 1), (2,): x(n, 2)})
    theta_true = DiffForm(n, 1, {(2,): x(n, 0).mul(x(n, 1))})
    beta = wedge(alpha, theta_true)
    theta = derham_divide(alpha, beta, [1, 2], 5)
    assert wedge(alpha, theta) == beta


# -- the division against one solve per inert monomial pattern ---------------------------
#
# The reference is the earlier algorithm: unknowns over all variables, grouped by
# their inert exponents, one scalar solve per group.

def _all_monomials(n, d):
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _inert_pattern(exps, active_set):
    return tuple(0 if i in active_set else e for i, e in enumerate(exps))


def _by_pattern(mons, active_set):
    groups = {}
    for mon in mons:
        groups.setdefault(_inert_pattern(mon, active_set), []).append(mon)
    return groups


def scalar_solve(columns, rhs):
    """The solution of sum_c x_c columns[c] = rhs as one scalar system, the
    columns and rhs as {row label: Fraction}; None when it is inconsistent."""
    rows = {}
    for c, column in enumerate(columns):
        for label, v in column.items():
            rows.setdefault(label, {})[c] = v
    for label in rhs:
        rows.setdefault(label, {})
    res = solve_sparse(list(rows.values()), len(columns), [rhs.get(label, 0) for label in rows])
    return res.solution if res.consistent else None


def _unit(n, t):
    return tuple(int(i == t) for i in range(n))


def per_pattern_wedge_solve(divisor, rhs, active, columns, degree, note, report, message):
    """A stand-in for `formal._graded_solve` inside `graded_divide`: it
    ignores the given columns and solves one scalar system per inert
    pattern, over all degree-d monomials, with columns read off the Fraction
    coefficients of divisor's linear part."""
    n = rhs.nvars
    active_set = set(active)
    lin = {key[0]: {t: c for t in range(n) if (c := poly.coefficient(_unit(n, t)))}
           for key, poly in divisor.comps.items()}
    res_tuples = list(itertools.combinations(active, rhs.grade - 1))
    rhs_entries = {}
    for key, poly in rhs.comps.items():
        for exps, c in poly.terms.items():
            rhs_entries.setdefault(_inert_pattern(exps, active_set), {})[(exps, key)] = c
    out = {}
    for pat, mons in sorted(_by_pattern(_all_monomials(n, degree), active_set).items()):
        cols = [(mon, J) for mon in mons for J in res_tuples]
        columns = []
        for mon, J in cols:
            column = {}
            for j, coeffs in lin.items():
                ms = merge_sign((j,), J)
                if ms is None:
                    continue
                key, sign = ms
                for t, c in coeffs.items():
                    new = list(mon)
                    new[t] += 1
                    column[(tuple(new), key)] = sign * c
            columns.append(column)
        solution = scalar_solve(columns, rhs_entries.get(pat, {}))
        if solution is None:
            raise SolveInconsistencyError(message, degree=degree, residual=rhs)
        for (mon, J), v in zip(cols, solution):
            if v:
                act = tuple(e if i in active_set else 0 for i, e in enumerate(mon))
                out.setdefault((act, J), {})[pat] = v
    return [(label, Poly(n, terms)) for label, terms in out.items()]


def per_pattern_split_multiplier(alpha1, rho, y, r, n):
    active_set = set(y)
    diag = {key[0]: poly.coefficient(_unit(n, key[0])) for key, poly in alpha1.comps.items()}
    groups_f = _by_pattern(_all_monomials(n, r - 1), active_set)
    groups_h = _by_pattern([m for m in _all_monomials(n, r + 1) if any(m[i] for i in y)],
                           active_set)
    rho_entries = {}
    for (j,), poly in rho.comps.items():
        for exps, c in poly.terms.items():
            rho_entries.setdefault(_inert_pattern(exps, active_set), {})[(exps, j)] = c
    terms = {"f": {}, "h": {}}
    for pat in sorted(set(groups_f) | set(groups_h) | set(rho_entries)):
        cols = ([("f", mon) for mon in groups_f.get(pat, [])]
                + [("h", mon) for mon in groups_h.get(pat, [])])
        columns = []
        for kind_, mon in cols:
            if kind_ == "f":  # f * alpha1
                column = {(tuple(e + (i == j) for i, e in enumerate(mon)), j): dj
                          for j, dj in diag.items()}
            else:             # d_y(x^mon)
                column = {(tuple(e - (i == j) for i, e in enumerate(mon)), j): Fraction(mon[j])
                          for j in y if mon[j]}
            columns.append(column)
        solution = scalar_solve(columns, rho_entries.get(pat, {}))
        if solution is None:
            raise SolveInconsistencyError("multiplier split inconsistent", degree=r, residual=rho)
        for (kind_, mon), v in zip(cols, solution):
            terms[kind_][mon] = v
    return Poly(n, terms["f"]), Poly(n, terms["h"])


def _outcome(compute):
    try:
        return ("ok", compute())
    except SolveInconsistencyError as exc:
        return ("inconsistent", str(exc), exc.degree)
    except PreconditionError as exc:
        return ("precondition", str(exc))


def _draw_poly(draw, n, degrees, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * n
        for _ in range(draw(st.sampled_from(degrees))):
            exps[draw(st.integers(0, n - 1))] += 1
        terms[tuple(exps)] = draw(st.integers(-3, 3))
    return Poly(n, terms)


def _draw_block(draw):
    """(n, active): 2-3 active variables among 1-3 inert ones, in any places."""
    n_active, n_inert = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n = n_active + n_inert
    return n, sorted(draw(st.permutations(range(n)))[:n_active])


@st.composite
def division_inputs(draw):
    """(divisor, target, active, N): a 1-form on the active block whose linear
    part involves active variables only (degenerate at times) and whose higher
    terms involve every variable; the target is divisor ^ theta half the time,
    otherwise a random form on the active block."""
    n, active = _draw_block(draw)
    divisor = DiffForm(n, 1, {
        (j,): Poly(n, {tuple(int(i == t) for i in range(n)): draw(st.integers(-2, 2))
                       for t in active}) + _draw_poly(draw, n, [2, 3], 2)
        for j in active})
    k = draw(st.integers(2, len(active)))
    if draw(st.booleans()):
        theta = DiffForm(n, k - 1, {J: _draw_poly(draw, n, [0, 1, 2])
                                    for J in itertools.combinations(active, k - 1)})
        target = wedge(divisor, theta)
    else:
        target = DiffForm(n, k, {K: _draw_poly(draw, n, [1, 2, 3])
                                 for K in itertools.combinations(active, k)})
    return divisor, target, active, draw(st.integers(2, 3))


@settings(max_examples=150, deadline=None)
@given(division_inputs(), st.booleans())
def test_division_matches_per_pattern_solves(case, nondegenerate):
    divisor, target, active, N = case

    def divide():
        return formal.graded_divide(divisor, target, active, N,
                                    require_nondegenerate=nondegenerate)

    with mock.patch.object(formal, "_graded_solve",
                           functools.partial(per_pattern_wedge_solve, divisor)):
        expected = _outcome(divide)
    assert _outcome(divide) == expected


@st.composite
def unit_multiple_divisions(draw):
    """(divisor, u, s, active, N): the divisor is X = u L, with L a
    nondegenerate linear field on the active block and u = 1 + terms of
    degree 2 and 3, so X has terms of degree >= 3; s is homogeneous of degree
    k and N = k + 4. The target s L = h X with h = s / u is zero above degree
    k + 1, yet h goes on to every degree."""
    n, active = _draw_block(draw)
    m = len(active)
    b = [[draw(st.integers(-2, 2)) for _ in range(m)] for _ in range(m)]
    assume(RatMatrix(b).det() != 0)
    kind = draw(st.sampled_from([Multivector, DiffForm]))
    L = kind(n, 1, {(j,): Poly(n, {tuple(int(v == i) for v in range(n)): b[a][c]
                                   for a, i in enumerate(active)})
                    for c, j in enumerate(active)})
    u = Poly.one(n) + _draw_poly(draw, n, [2, 3])
    k = draw(st.integers(0, 2))
    s = _draw_poly(draw, n, [k])
    assume(u.degree >= 2 and not s.is_zero())
    return L.poly_scale(u), u, L.poly_scale(s), s, active, k + 4


@settings(max_examples=200, deadline=None)
@given(unit_multiple_divisions())
def test_division_by_a_unit_multiple_runs_to_N(case):
    # the quotient h = s / u must be solved through degree N - 1 although the
    # target stops at degree k + 1: h_e meets the divisor's degree-m part at
    # degree m + e, and the division may not stop before N
    X, u, target, s, active, N = case
    h = formal.graded_divide(X, target, active, N).as_poly()
    assert h.degree <= N - 1
    assert (h.mul(u) - s).truncate(N - 1).is_zero()


@st.composite
def split_inputs(draw):
    """(alpha1, rho, y, r, n): alpha1 = sum d_j x_j dx_j on the active block y
    and a degree-r 1-form rho on it, f * alpha1 + d_y(h) half the time."""
    n, y = _draw_block(draw)
    r = draw(st.integers(2, 3))
    alpha1 = DiffForm(n, 1, {(j,): x(n, j).scale(draw(st.sampled_from([-2, -1, 1, 3])))
                             for j in y})
    if draw(st.booleans()):
        f = _draw_poly(draw, n, [r - 1], 4)
        h = _draw_poly(draw, n, [r + 1], 4)
        rho = alpha1.poly_scale(f) + dform(scalar_form(h), y)
    else:
        rho = DiffForm(n, 1, {(j,): _draw_poly(draw, n, [r]) for j in y})
    return alpha1, rho, y, r, n


@settings(max_examples=150, deadline=None)
@given(split_inputs())
def test_multiplier_split_matches_per_pattern_solves(case):
    alpha1, rho, y, r, n = case
    columns = formal._split_columns(*linear_rows(alpha1.comps, n), y, n)
    got = _outcome(lambda: formal._split_multiplier(columns, rho, y, r, n, GradedSolveReport()))
    assert got == _outcome(lambda: per_pattern_split_multiplier(alpha1, rho, y, r, n))


def test_homotopy_inverts_d_active():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 4)
        active = list(range(n))
        pot = Poly.zero(n)
        for _ in range(3):
            e = [0] * n
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(n)] += 1
            pot = pot + Poly.monomial(n, e, rng.randint(-3, 3))
        from nambu.exterior import scalar_form
        eta = dform(scalar_form(pot), active)
        phi = homotopy_antiderivative(eta, active).as_poly()
        assert dform(scalar_form(phi), active) == eta


# -- Type 1 decomposition --------------------------------------------------------

def test_decompose_trivial_linear():
    w = type1_form(5, 2, [1, 1, 1, 1])
    gammas, alpha, _ = formal_decompose_type1(w, 3)
    assert gammas == [coordinate_form(5, 0)]
    assert alpha == DiffForm(5, 1, {(i,): x(5, i) for i in range(1, 5)})


def test_decompose_expanded_product():
    n = 5
    alpha_in = DiffForm(n, 1, {(2,): x(n, 2), (3,): x(n, 3), (4,): x(n, 4)})
    gamma_in = dx(n, 0) + dx(n, 2).poly_scale(x(n, 1))
    w = wedge(gamma_in, alpha_in)
    gammas, alpha, _ = formal_decompose_type1(w, 4)
    assert len(gammas) == 1
    assert wedge_all(gammas + [alpha], 4) == w.truncate(4)
    assert alpha.homogeneous_component(0).is_zero()
    assert not gammas[0].homogeneous_component(0).is_zero()


def test_decompose_p1_boundary():
    w = DiffForm(4, 1, {(i,): x(4, i) for i in range(4)})
    gammas, alpha, _ = formal_decompose_type1(w, 3)
    assert gammas == [] and alpha == w


def test_decompose_perturbed_nondegenerate():
    rng = random.Random(7)
    n, p = 5, 2
    w_lin = type1_form(n, p, [1, -1, 1, 1])
    for _ in range(5):
        phi0 = quad_perturbation(rng, n)
        w = pullback_form(w_lin, phi0)
        gammas, alpha, _ = formal_decompose_type1(w, 4)
        assert wedge_all(gammas + [alpha], 4) == w.truncate(4)


# -- Type 1 linearization up to multiplier ------------------------------------------

def test_linearize_type1_fixed_point():
    w = type1_form(5, 2, [1, 1, 1, 1])
    res = formal_linearize_type1(w, 4)
    assert res.change.is_identity()
    assert res.multiplier == Poly.one(5)


def test_linearize_type1_round_trips():
    rng = random.Random(11)
    n, p, N = 5, 2, 4
    for signs in ([1, 1, 1, 1], [1, 1, 1, -1]):
        w_lin = type1_form(n, p, signs)
        for _ in range(3):
            phi0 = quad_perturbation(rng, n)
            w = pullback_form(w_lin, phi0, N)
            res = formal_linearize_type1(w, N)
            resid = pullback_form(w, res.change, N) - \
                res.linear_form.poly_scale(res.multiplier, N)
            assert resid.truncate(N).is_zero()
            assert res.multiplier.constant_term() == 1


@pytest.mark.parametrize("p", [2, 3, 4])
def test_linearize_type1_shift_sign(p):
    # omega = omega_lin + dx_{prefix without k} ^ alpha1 ^ d_y phi: the shift
    # x_k -> x_k + (-1)^(p-k) phi cancels that block, and linearization finds it
    n = p + 2
    w_lin = type1_form(n, p, [1, -1, 1])
    alpha1 = DiffForm(n, 1, {(j,): x(n, j).scale(s) for j, s in zip(range(p - 1, n), [1, -1, 1])})
    a, b, c = range(p - 1, n)
    phi = x(n, a).mul(x(n, b)) + x(n, c).mul(x(n, c)).scale(2) - x(n, a).mul(x(n, c))
    d_phi = DiffForm(n, 1, {(j,): phi.partial(j) for j in (a, b, c)})
    for k in range(p - 1):
        block = wedge_all([dx(n, t) for t in range(p - 1) if t != k] + [alpha1, d_phi])
        w = w_lin + block
        shift = FormalMap([x(n, i) + (phi.scale((-1) ** (p - k)) if i == k else Poly.zero(n))
                           for i in range(n)])
        assert pullback_form(w, shift, 2).truncate(2) == w_lin
        res = formal_linearize_type1(w, 3)
        resid = pullback_form(w, res.change, 3) - w_lin.poly_scale(res.multiplier, 3)
        assert resid.truncate(3).is_zero()


def test_linearize_type1_rejects_degenerate():
    n = 5
    w = wedge(dx(n, 0), DiffForm(n, 1, {(i,): x(n, i) for i in range(1, 4)}))
    with pytest.raises(PreconditionError):
        formal_linearize_type1(w, 3)


def test_linearize_type1_p1():
    # pure integrable 1-form: no prefix machinery at all
    rng = random.Random(13)
    n, N = 4, 4
    w_lin = DiffForm(n, 1, {(i,): x(n, i) for i in range(n)})
    phi0 = quad_perturbation(rng, n)
    w = pullback_form(w_lin, phi0, N)
    res = formal_linearize_type1(w, N)
    resid = pullback_form(w, res.change, N) - \
        res.linear_form.poly_scale(res.multiplier, N)
    assert resid.truncate(N).is_zero()


# -- multiplier removal ----------------------------------------------------------------

def test_remove_multiplier_trivial():
    res = remove_multiplier(Poly.one(4), [1, 1, 1, 1], 4)
    assert res.change.is_identity()
    assert res.per_degree == []


def test_remove_multiplier_linear_and_quadratic():
    n, N = 4, 4
    P1, _ = normal_form_generator("type1", n, 3, r=3, s=0, signs=[1, 1, 1, 1])
    for text in ("1 + x1", "1 + x1*x2"):
        f = parse_poly(text, n)
        res = remove_multiplier(f, [1, 1, 1, 1], N)
        for r, X, f_r in res.per_degree:
            assert lie_derivative(X, P1) == P1.poly_scale(f_r)
        pushed = pushforward(P1.poly_scale(f, N + 1), res.change, N)
        assert (pushed - P1).truncate(N).is_zero()


def test_remove_multiplier_constant_scaling():
    n, N = 4, 3
    P1, _ = normal_form_generator("type1", n, 3, r=3, s=0, signs=[1, 1, 1, 1])
    res = remove_multiplier(Poly.const(n, 4), [1, 1, 1, 1], N)
    assert res.scaling == 2
    pushed = pushforward(P1.scale(4), res.change, N)
    assert (pushed - P1).truncate(N).is_zero()


def test_remove_multiplier_irrational_obstruction():
    res = remove_multiplier(Poly.const(4, 2), [1, 1, 1, 1], 3)
    assert res.obstruction == {"constant": "2", "exponent": 2}
    assert abs(res.numeric_scale - 2 ** 0.5) < 1e-12


def test_remove_multiplier_nonelliptic_and_parametric():
    # signature-2 pattern, one inert parameter variable
    n, N = 5, 3
    signs = [1, 1, 1, -1]
    P1, _ = normal_form_generator("type1", n, 3, r=3, s=0, signs=signs)
    f = parse_poly("1 + x5 + x1*x5", n)  # parameter-dependent multiplier
    res = remove_multiplier(f, signs, N, nvars=n)
    pushed = pushforward(P1.poly_scale(f, N + 1), res.change, N)
    assert (pushed - P1).truncate(N).is_zero()


# f, signs, N, and what the constant part does: (scaling, obstruction)
MULTIPLIER_PATHS = {
    "reflection and scaling": ("-4 + x1 + x2*x3", [1, 1, 1, 1], 4, (2, None)),
    "reflection and obstruction": ("-2 + x1*x2 + x4", [1, -1, 1, 1], 4,
                                   (None, {"constant": "2", "exponent": 2})),
    "obstruction with a nonconstant f": ("3 + x1", [1, 1, 1, 1], 4,
                                         (None, {"constant": "3", "exponent": 2})),
}


@pytest.mark.parametrize("case", sorted(MULTIPLIER_PATHS))
def test_remove_multiplier_constant_paths(case):
    text, signs, N, (scaling, obstruction) = MULTIPLIER_PATHS[case]
    n = len(signs)
    P1, _ = normal_form_generator("type1", n, n - 1, r=n - 1, s=0, signs=signs)
    f = parse_poly(text, n)
    res = remove_multiplier(f, signs, N)
    assert (res.scaling, res.obstruction) == (scaling, obstruction)
    assert res.per_degree
    c = 1 if obstruction is None else Fraction(obstruction["constant"])
    pushed = pushforward(P1.poly_scale(f, N), res.change, N)
    assert (pushed - P1.scale(c)).truncate(N).is_zero()


def test_remove_multiplier_contract_catches_a_wrong_flow(monkeypatch):
    real = formal._flow_map

    def perturbed(W, N):
        phi = real(W, N)
        comps = list(phi.comps)
        comps[0] = comps[0] + x(W.nvars, 2).mul(x(W.nvars, 3))
        return FormalMap(comps, phi.trunc)

    monkeypatch.setattr(formal, "_flow_map", perturbed)
    with pytest.raises(SolveInconsistencyError, match="contract"):
        remove_multiplier(parse_poly("1 + x1", 4), [1, 1, 1, 1], 3)


def bump(p: Poly, exps) -> Poly:
    """p with its coefficient at exps raised by 1."""
    return p + Poly.monomial(p.nvars, exps, 1)


def power(n, j, d):
    """The exponents of x_j^d."""
    return tuple(d if t == j else 0 for t in range(n))


def contract_verdicts(P, phi, Q, F, N):
    """(the lowest degree at which the inverse-free check phi_* P ==
    (F o phi^-1) Q fails, or None; whether the pushforward reference form
    holds)."""
    low = contract_residual(P, phi, Q, F, N)
    f = F.substitute(phi.inverse(N).comps, N)
    return (None if low is None else low[0],
            (pushforward(P, phi, N) - Q.poly_scale(f, N)).truncate(N).is_zero())


def test_remove_multiplier_contract_mutations():
    # the inverse-free check and the pushforward reference reject every
    # single-coefficient change of the map at degree N and of the removed
    # multiplier at degree N - 1 (Pi_1 vanishes at 0, so the contract reads
    # f through N - 1)
    n, N, signs = 4, 3, [1, 1, 1, 1]
    P1, _ = normal_form_generator("type1", n, 3, r=3, s=0, signs=signs)
    f = parse_poly("1 + x1 + x2*x3", n)
    res = remove_multiplier(f, signs, N)

    def verdicts(phi, g):
        return contract_verdicts(P1.poly_scale(g, N), phi, P1, Poly.one(n), N)

    assert verdicts(res.change, f) == (None, True)
    for k in range(n):
        for j in range(n):
            comps = list(res.change.comps)
            comps[k] = bump(comps[k], power(n, j, N))
            assert verdicts(FormalMap(comps, N), f) == (N, False)
        assert verdicts(res.change, bump(f, power(n, k, N - 1))) == (N, False)


def inverse_calls(monkeypatch):
    """Record, for each FormalMap.inverse call, whether its map is linear."""
    calls = []
    real = FormalMap.inverse

    def counted(self, trunc=None):
        calls.append(self.is_linear())
        return real(self, trunc)

    monkeypatch.setattr(FormalMap, "inverse", counted)
    return calls


def test_remove_multiplier_and_prelinearization_invert_no_map(monkeypatch):
    calls = inverse_calls(monkeypatch)
    remove_multiplier(parse_poly("-4 + x1 + x2*x3", 4), [1, 1, 1, 1], 4)
    P, N = moving_multiplier_input()
    prelinearize_type2(P, N)
    assert calls == []


def column_terms(_, entries, den):
    """A `_lie_columns` column as {(exps, key): Fraction}."""
    return {label: Fraction(v, den) for label, v in entries.items()}


def lie_terms(T: Multivector):
    """T's nonzero terms, labelled as the graded systems label them."""
    return {(exps, key): c for key, p in T.comps.items() for exps, c in p.terms.items()}


def scalar_lie_solve(T, bases, fields, rhs):
    """L_U T = rhs on the columns of `_lie_columns` as one system with a
    scalar right-hand side, U = sum c h bases[b]; None when inconsistent."""
    solution = scalar_solve([column_terms(*column)
                             for column in formal._lie_columns(T, bases, fields)],
                            lie_terms(rhs))
    if solution is None:
        return None
    U = Multivector(T.nvars, 1, {})
    for (b, h), c in zip(fields, solution):
        U = U + bases[b].poly_scale(h).scale(c)
    return U


@st.composite
def lie_equations(draw):
    """(T, bases, fields, rhs, degree): the multiplier equation L_X Pi_1 =
    f_r Pi_1 on `_lie_multiplier_basis`, or the homological equation on
    the unit fields times degree-d monomials for a rational linear field;
    the right-hand side is solvable half the time, random otherwise."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 5))
        q = draw(st.integers(3, n - 1))
        r = draw(st.integers(1, 2))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=q + 1, max_size=q + 1))
        T, _ = normal_form_generator("type1", n, q, r=q, s=0, signs=signs)
        bases, fields = formal._lie_multiplier_basis(signs, r, range(q + 1), n)
        if draw(st.booleans()):
            rhs = T.poly_scale(_draw_poly(draw, n, [r], 4))
        else:
            keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), q))),
                                 min_size=1, max_size=2, unique=True))
            rhs = Multivector(n, q, {K: _draw_poly(draw, n, [r + 1]) for K in keys})
        return T, bases, fields, rhs, r
    n = draw(st.integers(2, 3))
    d = draw(st.integers(2, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    T = Multivector(n, 1, {(j,): Poly(n, {_unit(n, i): draw(entry) for i in range(n)})
                           for j in range(n)})
    bases = [coordinate_field(n, i) for i in range(n)]
    fields = [(i, Poly.monomial(n, mon)) for mon in _monomials_of_degree(n, d) for i in range(n)]
    rhs = Multivector(n, 1, {(j,): _draw_poly(draw, n, [d]) for j in range(n)})
    return T, bases, fields, rhs, d


@settings(max_examples=60, deadline=None)
@given(lie_equations())
def test_lie_solve_matches_one_scalar_solve(case):
    # the graded solve, every variable active, answers the equation as the
    # one scalar system on the same columns does, and reports its residual
    T, bases, fields, rhs, degree = case
    expected = scalar_lie_solve(T, bases, fields, rhs)
    report = GradedSolveReport()
    try:
        got = formal._lie_solve(T, bases, fields, rhs, degree, "note", "inconsistent", report)
    except SolveInconsistencyError as exc:
        assert expected is None
        assert (exc.degree, exc.residual) == (degree, rhs)
    else:
        assert got == expected
    assert [(r.degree, r.cols, r.solved) for r in report.records] == (
        [] if rhs.is_zero() else [(degree, len(fields), expected is not None)])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lie_multiplier_columns_are_the_lie_derivatives(r):
    # every closed-form column equals the generic L_{hY} Pi_1
    rng = random.Random(100 + r)
    for n in (4, 5, 6):
        q = rng.randint(3, n - 1)
        signs = [rng.choice([1, -1]) for _ in range(q + 1)]
        P1, _ = normal_form_generator("type1", n, q, r=q, s=0, signs=signs)
        bases, fields = formal._lie_multiplier_basis(signs, r, range(q + 1), n)
        for column in formal._lie_columns(P1, bases, fields):
            b, h = column[0]
            assert column_terms(*column) == lie_terms(lie_derivative(bases[b].poly_scale(h), P1))


def test_remove_multiplier_takes_one_lie_derivative_per_base_field(monkeypatch):
    calls = []
    real = formal.lie_derivative

    def counted(X, T):
        calls.append(X)
        return real(X, T)

    monkeypatch.setattr(formal, "lie_derivative", counted)
    signs, N = [1, 1, -1, 1], 4
    res = remove_multiplier(parse_poly("1 + x1 + x2*x3 + x4^2", 4), signs, N)
    # per solved degree: one per rotation Y_ij, one for the Euler field and
    # the check of the solved X
    assert len(calls) == len(res.per_degree) * (math.comb(4, 2) + 2)


def test_remove_multiplier_zero_constant_rejected():
    with pytest.raises(PreconditionError):
        remove_multiplier(Poly.variable(4, 0), [1, 1, 1, 1], 3)


# -- Type 2 prelinearization --------------------------------------------------------------

def test_prelinearize_fixed_point():
    B = RatMatrix([[1, 0], [0, 2]])
    P, _ = normal_form_generator("type2", 5, 4, matrix=B)
    res = prelinearize_type2(P, 3)
    assert res.change.is_identity()
    assert res.multiplier == Poly.one(5)
    assert res.field == Multivector(
        5, 1, {(3,): x(5, 3), (4,): x(5, 4).scale(2)})


def multiplier_at_target(res, N):
    """f = multiplier o change^-1: the prelinearization multiplier read in
    the coordinates of the result."""
    return res.multiplier.substitute(res.change.inverse(N).comps, N)


def prelinearization_gap(P, res, N, f=None):
    """The reference form of the contract, change_* P - f * frame ^ field
    through N, with f = multiplier_at_target(res, N) unless given."""
    if f is None:
        f = multiplier_at_target(res, N)
    lhs = pushforward(P, res.change, N)
    return (lhs - wedge_all(res.frame + [res.field], N).poly_scale(f, N)).truncate(N)


def test_prelinearize_round_trips():
    rng = random.Random(17)
    n, q, N = 5, 4, 3
    B = RatMatrix([[2, 0], [0, 3]])
    P0, w0 = normal_form_generator("type2", n, q, matrix=B)
    for _ in range(4):
        psi = quad_perturbation(rng, n, denom=False)
        P = form_to_tensor(pullback_form(w0, psi))
        res = prelinearize_type2(P, N)
        assert prelinearization_gap(P, res, N).is_zero()
        for key, c in res.field.comps.items():
            assert key[0] >= q - 1
            for exps in c.terms:
                assert not any(exps[t] for t in range(q - 1))


def test_prelinearize_q_lt_nminus1():
    # q = 4, n = 6: the y block has three variables, the generic DeRham regime
    rng = random.Random(19)
    n, q, N = 6, 4, 3
    B = RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 5]])
    P0, w0 = normal_form_generator("type2", n, q, matrix=B)
    psi = quad_perturbation(rng, n, denom=False)
    P = form_to_tensor(pullback_form(w0, psi))
    res = prelinearize_type2(P, N)
    assert prelinearization_gap(P, res, N).is_zero()


def moving_multiplier_input():
    """(P, N) at (4,3,4), diag(2,3), whose multiplier changes with the
    coordinates inside the window the contract reads: F = f o change and f
    differ at degree N - 1. (The draws at N = 3 differ at degree N at most,
    where frame ^ field, vanishing at 0, hides the multiplier.)"""
    _, w0 = normal_form_generator("type2", 4, 3, matrix=diagonal([2, 3]))
    psi = quad_perturbation(random.Random(0), 4, terms=3, denom=False)
    return form_to_tensor(pullback_form(w0, psi)), 4


def test_prelinearize_multiplier_is_read_in_the_input_coordinates():
    P, N = moving_multiplier_input()
    res = prelinearize_type2(P, N)
    f = multiplier_at_target(res, N)
    # the input keeps its power only while F and f differ below N
    assert (f - res.multiplier).truncate(N - 1)
    assert prelinearization_gap(P, res, N, f).is_zero()
    assert not prelinearization_gap(P, res, N, res.multiplier).is_zero()


def test_prelinearize_contract_mutations():
    # the inverse-free check and the pushforward reference reject the same
    # single-coefficient changes: the map's components at degree N, and the
    # multiplier at degree N - 1, the last degree the contract reads (the
    # frame ^ field factor vanishes at 0)
    P, N = moving_multiplier_input()
    res = prelinearize_type2(P, N)
    n, S = P.nvars, P.grade - 1
    Q = wedge_all(res.frame + [res.field], N)

    def verdicts(phi, F):
        return contract_verdicts(P, phi, Q, F, N)

    assert verdicts(res.change, res.multiplier) == (None, True)
    for k in range(n):
        for j in range(n):
            comps = list(res.change.comps)
            comps[k] = bump(comps[k], power(n, j, N))
            new, held = verdicts(FormalMap(comps, N), res.multiplier)
            assert (new is None) == held
            # moving a field coordinate always shows; a frame coordinate
            # x_k -> x_k + x_j^N with j != k is a symmetry of the frame
            if k >= S or j == k:
                assert new == N
        assert verdicts(res.change, bump(res.multiplier, power(n, k, N - 1))) == (N, False)


def linearization_contract(kind):
    """(obj, change, target, F, N) of a Type 1 linearization (a form
    contract) or of a Type 2 prelinearization (a tensor contract)."""
    if kind == "type1":
        n, N = 5, 4
        w = pullback_form(type1_form(n, 2, [1, 1, 1, -1]),
                          quad_perturbation(random.Random(11), n), N)
        res = formal_linearize_type1(w, N)
        return w, res.change, res.linear_form, res.multiplier, N
    P, N = moving_multiplier_input()
    res = prelinearize_type2(P, N)
    return P, res.change, wedge_all(res.frame + [res.field], N), res.multiplier, N


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_contract_residual_reports_a_planted_degree(kind):
    # x_j -> x_j + x_j^k changes the contract first at degree k <= N
    obj, change, target, F, N = linearization_contract(kind)
    n = obj.nvars
    assert contract_residual(obj, change, target, F, N) is None
    for k in range(2, N + 1):
        for j in range(n):
            comps = list(change.comps)
            comps[j] = bump(comps[j], power(n, j, k))
            degree, residual = contract_residual(obj, FormalMap(comps, N), target, F, N)
            assert degree == k and not residual.is_zero()
            assert residual == residual.homogeneous_component(k)


def test_prelinearize_zero_trace_rejected():
    B = RatMatrix([[0, 1], [-1, 0]])
    P, _ = normal_form_generator("type2", 5, 4, matrix=B)
    with pytest.raises(PreconditionError):
        prelinearize_type2(P, 3)


def test_prelinearize_degenerate_rejected():
    B = RatMatrix([[1, 0], [0, 0]])
    P, _ = normal_form_generator("type2", 5, 4, matrix=B)
    with pytest.raises(PreconditionError):
        prelinearize_type2(P, 3)


def diagonal(values):
    return RatMatrix([[v if i == j else 0 for j in range(len(values))]
                      for i, v in enumerate(values)])


def shifted_support_map(n, a, b):
    """x_i -> x_i + a x_{i+1}^2 + b x_i x_{i+2}, indices mod n."""
    comps = []
    for i in range(n):
        sq = [0] * n
        sq[(i + 1) % n] += 2
        mixed = [0] * n
        mixed[i] += 1
        mixed[(i + 2) % n] += 1
        comps.append(x(n, i) + Poly.monomial(n, sq, a) + Poly.monomial(n, mixed, b))
    return FormalMap(comps)


# A Type 2 tensor of shape (n, q), linear part diag(values), pulled back along
# a quadratic map. Truncated blindly, their brackets carry wrong top-degree
# terms whose divisions fail; a division window that retreats on each failure
# falls to degree 0 here and leaves a singular step map. The (6,4,3) map is
# the one test_acceptance.quad_perturbation draws under Random(1).
TOP_DEGREE_CASES = {
    "5-4-3-diag(2,3)": (4, (2, 3), lambda: shifted_support_map(5, 1, 2)),
    "5-4-3-diag(-3,2)": (4, (-3, 2), lambda: shifted_support_map(5, -2, 1)),
    "6-4-3-diag(3,4,5)": (4, (3, 4, 5),
                          lambda: quad_perturbation(random.Random(1), 6, denom=False)),
}


def linearize_type2_cli(P, N, capsys, monkeypatch):
    """The exit code of `linearize --type2` on P. Exit 0 must come with the
    CLI's contract Phi_* P == multiplier * Lambda(field_matrix) through N,
    read back from the printed map and multiplier; exit 1 with the resonant
    flag."""
    n, q = P.nvars, P.grade
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(P.to_json_obj())))
    code = run(["linearize", "-", "--type2", "--order", str(N)])
    out = capsys.readouterr().out
    if code == 1:
        assert json.loads(out)["resonant"] is True
    if code != 0:
        return code
    data = json.loads(out)
    phi = formal_map_from_json(data["map"])
    f = parse_poly(data["multiplier"], n)
    B = RatMatrix([[Fraction(v) for v in row] for row in data["field_matrix"]])
    linear, _ = normal_form_generator("type2", n, q, matrix=B)
    lhs = pushforward(P, phi, N).truncate(N)
    assert lhs == linear.poly_scale(f, N).truncate(N)
    return code


def assert_type2_contracts(P, N, capsys, monkeypatch):
    """The library's prelinearization contract and the CLI's
    Phi_* P == multiplier * Lambda(field_matrix), both through N."""
    res = prelinearize_type2(P, N)
    assert prelinearization_gap(P, res, N).is_zero()
    assert linearize_type2_cli(P, N, capsys, monkeypatch) == 0


@pytest.mark.parametrize("case", sorted(TOP_DEGREE_CASES))
def test_prelinearize_tracks_trusted_degrees(case, capsys, monkeypatch):
    q, values, make_map = TOP_DEGREE_CASES[case]
    psi = make_map()
    _, w0 = normal_form_generator("type2", psi.nvars, q, matrix=diagonal(values))
    assert_type2_contracts(form_to_tensor(pullback_form(w0, psi)), 3, capsys, monkeypatch)


# The (6,5) normal form with a scalar linear part cI, pulled back along a
# quadratic map. The bracket quotient at slot 3 is an infinite series, while
# the bracket itself, cut at the trusted degree, stops at degree 2; a division
# that stopped once the target ran out missed the quotient's degree-3 term.
SCALAR_SUPPORT = ["x1 - 2*x3*x4 + 2*x1*x4", "x2 + 2*x4*x6 - 2*x2*x6", "x3 + x6^2 - 2*x3*x6",
                  "x4 - x3*x5 + 2*x1*x3", "x5 + x4*x6 - x2^2", "x6 + x3*x5"]


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("N", [2, 3])
def test_prelinearize_scalar_linear_part(c, N, capsys, monkeypatch):
    psi = FormalMap([parse_poly(t, 6) for t in SCALAR_SUPPORT])
    _, w0 = normal_form_generator("type2", 6, 5, matrix=diagonal([c, c]))
    assert_type2_contracts(form_to_tensor(pullback_form(w0, psi)), N, capsys, monkeypatch)


def sweep_matrix(kind, m):
    """The linear part B of a sweep case, m = 2 or 3."""
    if kind == "scalar":
        return diagonal([2] * m)
    if kind == "diagonal":
        return diagonal([2, 3] if m == 2 else [3, 4, 5])
    if kind == "jordan":
        return RatMatrix([[2 if i == j else int(j == i + 1) for j in range(m)] for i in range(m)])
    # companion matrices of x^2 - x - 1 and x^3 - 9x^2 + 26x - 23
    return RatMatrix([[0, 1], [1, 1]] if m == 2 else [[0, 1, 0], [0, 0, 1], [23, -26, 9]])


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("kind", ["scalar", "diagonal", "jordan", "companion"])
@pytest.mark.parametrize("shape", [(4, 3), (5, 4), (6, 4), (6, 5)], ids="{0[0]},{0[1]}".format)
def test_linearize_type2_sweep(shape, kind, N, capsys, monkeypatch):
    # each input is linearizable by construction: it exits 0 with its
    # contract, or 1 as resonant, and never 4 (inconsistency) or 5 (crash)
    n, q = shape
    _, w0 = normal_form_generator("type2", n, q, matrix=sweep_matrix(kind, n - q + 1))
    psi = quad_perturbation(random.Random(100 * n + q), n, denom=False)
    P = form_to_tensor(pullback_form(w0, psi))
    assert linearize_type2_cli(P, N, capsys, monkeypatch) in (0, 1)


def test_prelinearize_degree_schedule():
    # the module docstring's bookkeeping: slot i works at D = N + q - 2 - i,
    # asking for its bracket with X at D and for its brackets between frame
    # fields at D - 1, so the last slot works at N
    q, values, make_map = TOP_DEGREE_CASES["5-4-3-diag(2,3)"]
    N = 3
    _, w0 = normal_form_generator("type2", 5, q, matrix=diagonal(values))
    P = form_to_tensor(pullback_form(w0, make_map()))
    _, quotients = prelinearize_once(P, N)
    want = {}
    for i in range(q - 1):
        want[f"bracket ratio {i + 1}"] = N + q - 2 - i
        for j in range(i + 1, q - 1):
            want[f"frame bracket {i + 1},{j + 1}"] = N + q - 3 - i
    assert {label: D for label, (D, _) in quotients.items()} == want


@st.composite
def perturbed_type2(draw):
    """A Type 2 normal form at (4,3), (5,4), (5,3), (6,4) or (6,5), pulled
    back along x_i -> x_i + two quadratic terms."""
    n, q = draw(st.sampled_from([(4, 3), (5, 4), (5, 3), (6, 4), (6, 5)]))
    m = n - q + 1
    values = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                           min_size=m, max_size=m))
    assume(q < n - 1 or sum(values) != 0)
    B = diagonal(values)
    if draw(st.booleans()):
        B = RatMatrix([[B[i, j] + (1 if (i, j) == (0, 1) else 0) for j in range(m)]
                       for i in range(m)])
    _, w0 = normal_form_generator("type2", n, q, matrix=B)
    comps = []
    for i in range(n):
        comp = x(n, i)
        for _ in range(2):
            e = [0] * n
            e[draw(st.integers(0, n - 1))] += 1
            e[draw(st.integers(0, n - 1))] += 1
            comp = comp + Poly.monomial(n, e, draw(st.integers(-2, 2)))
        comps.append(comp)
    return form_to_tensor(pullback_form(w0, FormalMap(comps)))


def prelinearize_once(P, N):
    """One attempt at order N, with each bracket quotient by its label and
    the degree D it was asked for."""
    quotients = {}
    real = formal._bracket_quotient

    def record(X, bracket, y, D, report, label):
        h = real(X, bracket, y, D, report, label)
        quotients[label] = (D, h)
        return h

    with mock.patch.object(formal, "_prelinearize_attempt",
                           wraps=formal._prelinearize_attempt) as attempt, \
            mock.patch.object(formal, "_bracket_quotient", record):
        res = prelinearize_type2(P, N)
    assert attempt.call_count == 1
    return res, quotients


@settings(max_examples=25, deadline=None)
@given(perturbed_type2(), st.sampled_from([2, 3]))
def test_prelinearize_order_consistency(P, N):
    # one more order changes nothing inside the old window: no term below N
    # depends on where the working degree was cut
    lo, lo_quotients = prelinearize_once(P, N)
    hi, hi_quotients = prelinearize_once(P, N + 1)
    assert [c.truncate(N) for c in hi.change.comps] == list(lo.change.comps)
    assert hi.multiplier.truncate(N) == lo.multiplier
    assert hi.field.truncate(N) == lo.field
    # each quotient is trusted through D - 1, so the deeper pass agrees there
    for label, (D, h) in lo_quotients.items():
        assert hi_quotients[label][1].truncate(D - 1) == h.truncate(D - 1), label


def test_linearize_type2_deep_order(capsys, monkeypatch):
    # slot i straightens V_i through D = N + q - 2 - i, here degree 9
    _, w0 = normal_form_generator("type2", 4, 3, matrix=sweep_matrix("companion", 2))
    P = form_to_tensor(pullback_form(w0, shifted_support_map(4, 1, -1)))
    assert linearize_type2_cli(P, 8, capsys, monkeypatch) == 0


# sha256 of the `linearize --type2` output, reports included, pinned from
# passes that moved every object by a Jacobian pushforward: moving them by
# derivations instead must change no byte
GOLDEN_TYPE2 = {
    (4, 3, 8): "e10a4af4b40e7b1823bc321a9b2311545750ebbbe71765780a3e2ce1475ea7fa",
    (6, 4, 5): "1ef9551f3d6721b9d53e26c040b6e98856ccdd99bad957228975f094554d5658",
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_TYPE2), ids="{0[0]},{0[1]},{0[2]}".format)
def test_linearize_type2_golden_output(shape, capsys, monkeypatch):
    n, q, N = shape
    _, w0 = normal_form_generator("type2", n, q, matrix=sweep_matrix("companion", n - q + 1))
    P = form_to_tensor(pullback_form(w0, shifted_support_map(n, 1, -1)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(P.to_json_obj())))
    assert run(["linearize", "-", "--type2", "--order", str(N)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_TYPE2[shape]


def test_linearize_type2_makes_one_nonlinear_inverse(capsys, monkeypatch):
    # the golden (4,3) input: only the printed multiplier, F o T^-1, takes
    # a nonlinear inverse
    _, w0 = normal_form_generator("type2", 4, 3, matrix=sweep_matrix("companion", 2))
    P = form_to_tensor(pullback_form(w0, shifted_support_map(4, 1, -1)))
    calls = inverse_calls(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(P.to_json_obj())))
    assert run(["linearize", "-", "--type2", "--order", "8"]) == 0
    capsys.readouterr()
    assert calls.count(False) == 1


@st.composite
def transport_inputs(draw):
    """(V, i, N, f, rhs, start): V = d_i + a tail whose coefficients have
    degree >= 1, in any direction, including d_i."""
    n = draw(st.integers(2, 4))
    i = draw(st.integers(0, n - 1))
    tail = Multivector(n, 1, {(k,): _draw_poly(draw, n, [1, 2, 3]) for k in range(n)})
    return (coordinate_field(n, i) + tail, i, draw(st.integers(2, 5)),
            _draw_poly(draw, n, [0, 1, 2]), _draw_poly(draw, n, [0, 1, 2]),
            draw(st.sampled_from([0, 1])))


@settings(max_examples=100, deadline=None)
@given(transport_inputs())
def test_transport_solve(case):
    V, i, N, f, rhs, start = case
    n = V.nvars
    g = formal._transport_solve(V, i, N, f, rhs, start)
    assert (apply_vector(V, g) + f.mul(g) - rhs).truncate(N - 1).is_zero()
    assert {e: c for e, c in g.terms.items() if e[i] == 0} == Poly.const(n, start).terms
    # V(1/g) = f / g when V(g) = -f g, and both are 1 on x_i = 0
    zero = Poly.zero(n)
    g_plus = formal._transport_solve(V, i, N, f, zero, 1)
    g_minus = formal._transport_solve(V, i, N, -f, zero, 1)
    assert g_plus.mul(g_minus, N) == Poly.one(n)


@st.composite
def commuting_fields(draw):
    """(V, Y, i, D, exact): V = chi_* d_i and Y = chi_* Z for a map chi =
    x + (quadratic terms) and a field Z whose coefficients do not involve x_i,
    so [V, Y] = chi_* [d_i, Z] = 0; both are pushed through D + 2. Z vanishes
    at 0 or not, and the pushed Y is exact through `exact`, D or D - 1."""
    n = draw(st.integers(2, 4))
    i = draw(st.integers(0, n - 1))
    D = draw(st.integers(2, 4))
    vanishing = draw(st.booleans())
    chi = FormalMap([x(n, k) + _draw_poly(draw, n, [2]) for k in range(n)])
    Z = Multivector(n, 1, {
        (k,): Poly(n, {e: c for e, c in _draw_poly(draw, n, [1, 2] if vanishing else [0, 1, 2])
                       .terms.items() if not e[i]})
        for k in range(n)})
    V = pushforward(coordinate_field(n, i), chi, D + 2)
    return V, pushforward(Z, chi, D + 2), i, D, D if vanishing else D - 1


@settings(max_examples=60, deadline=None)
@given(commuting_fields())
def test_slice_push_is_the_pushforward(case):
    V, Y, i, D, exact = case
    n = V.nvars
    tail = V - coordinate_field(n, i)
    step = FormalMap([x(n, k) + formal._transport_solve(V, i, D, Poly.zero(n),
                                                        -tail.component((k,)), 0)
                      for k in range(n)], trunc=D)
    assert (formal._slice_push(Y, step, i, D).truncate(exact)
            == pushforward(Y, step, D).truncate(exact))


# -- Poincare linearization ------------------------------------------------------------------

def test_poincare_linear_fixed_point():
    n = 2
    X = Multivector(n, 1, {(0,): x(n, 0).scale(2), (1,): x(n, 1).scale(3)})
    res = poincare_linearize(X, 4)
    assert res.change.is_identity()


def test_poincare_resonant_rejected():
    n = 2
    X = Multivector(n, 1, {(0,): x(n, 0), (1,): x(n, 1).scale(2)}) + \
        Multivector(n, 1, {(1,): x(n, 0).mul(x(n, 0))})
    with pytest.raises(PreconditionError) as err:
        poincare_linearize(X, 3)
    assert "resonance" in str(err.value)


def test_poincare_nonresonant_linearizes():
    rng = random.Random(23)
    n, N = 2, 3
    lin = Multivector(n, 1, {(0,): x(n, 0).scale(2), (1,): x(n, 1).scale(3)})
    for _ in range(5):
        pert = Multivector(n, 1, {})
        for i in range(n):
            for _ in range(2):
                e = [0] * n
                d = rng.randint(2, 3)
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                pert = pert + Multivector(n, 1, {(i,): Poly.monomial(n, e, rng.randint(-2, 2))})
        X = lin + pert
        res = poincare_linearize(X, N)
        pushed = pushforward(X, res.change, N)
        assert (pushed - lin).truncate(N).is_zero()
        # divisors never vanish: min over orders 2..3 of |2a+3b - lam| >= 1
        assert all(v >= 1 for v in res.resonance.small_divisors.values())


def poincare_by_pushforward(X, N):
    """Poincare linearization by a per-degree pushforward loop, an
    independent reference: solve [L, U] = R, as L_U L = -R, for the lowest
    nonlinear part R of the current field, push the field along x -> x - U
    and compose."""
    n = X.nvars
    L = X.homogeneous_component(1)
    units = [coordinate_field(n, i) for i in range(n)]
    cur = X.truncate(N)
    phi = FormalMap.identity(n)
    for d in range(2, N + 1):
        R = cur.homogeneous_component(d)
        if R.is_zero():
            continue
        fields = [(i, Poly.monomial(n, mon)) for mon in _monomials_of_degree(n, d)
                  for i in range(n)]
        U = formal._lie_solve(L, units, fields, -R, d, "homological", "inconsistent",
                              GradedSolveReport())
        step = FormalMap([x(n, i) - U.component((i,)) for i in range(n)], trunc=N)
        cur = pushforward(cur, step, N)
        assert cur.homogeneous_component(d).is_zero()
        phi = step.compose(phi, N)
    assert (cur - L).truncate(N).is_zero()
    return phi


@st.composite
def poincare_inputs(draw):
    """(X, N): a diagonal or companion linear part on 2 or 3 variables, with
    no resonance of order <= N, plus terms of degree 2 and 3."""
    n = draw(st.integers(2, 3))
    N = draw(st.integers(2, 5))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([-3, -2, 2, 3, 5, 7]),
                               min_size=n, max_size=n, unique=True))
        B = diagonal(values)
    else:
        # companion matrix of x^n - c_{n-1} x^{n-1} - ... - c_0
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        B = RatMatrix([[int(j == i + 1) for j in range(n)] for i in range(n - 1)] + [coeffs])
    assume(B.det() != 0)
    assume(not [r for r in resonance_report(B, N).resonances if sum(r[1]) <= N])
    lin = Multivector(n, 1, {(j,): sum((x(n, i).scale(B[i, j]) for i in range(n)), Poly.zero(n))
                             for j in range(n)})
    pert = Multivector(n, 1, {(j,): _draw_poly(draw, n, [2, 3]) for j in range(n)})
    return lin + pert, N


@settings(max_examples=40, deadline=None)
@given(poincare_inputs())
def test_poincare_solves_what_the_pushforward_loop_solves(case):
    # without resonances of order <= N the change tangent to the identity is
    # unique through N, so the conjugacy equation finds the loop's map
    X, N = case
    assert poincare_linearize(X, N).change.comps == poincare_by_pushforward(X, N).comps


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 3), st.data())
def test_homological_columns_are_the_brackets(n, d, data):
    # the column of x^m d_i is L_{x^m d_i} L = -[L, x^m d_i], for rational
    # linear parts, diagonal or not
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    B = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    L = Multivector(n, 1, {(j,): sum((x(n, i).scale(B[i][j]) for i in range(n)), Poly.zero(n))
                           for j in range(n)})
    units = [coordinate_field(n, i) for i in range(n)]
    fields = [(i, Poly.monomial(n, mon))
              for mon in _monomials_of_degree(n, d) for i in range(n)]
    for column in formal._lie_columns(L, units, fields):
        i, h = column[0]
        bracket = lie_bracket(L, units[i].poly_scale(h))
        assert column_terms(*column) == lie_terms(-bracket)


def test_poincare_zero_linear_part_rejected():
    n = 2
    X = Multivector(n, 1, {(0,): x(n, 0).mul(x(n, 0))})
    with pytest.raises(PreconditionError):
        poincare_linearize(X, 3)


# -- resonance reports --------------------------------------------------------------------------

def test_resonance_diag12():
    rep = resonance_report(RatMatrix([[1, 0], [0, 2]]), 5)
    assert rep.exact
    assert rep.resonances == [(2, (2, 0))]


def test_resonance_diag1_minus1():
    rep = resonance_report(RatMatrix([[1, 0], [0, -1]]), 3)
    # eigenvalues sorted ascending: (-1, 1); the relation 2*1 + 1*(-1) = 1
    # appears with the labels of that ordering
    assert (2, (1, 2)) in rep.resonances


def test_resonance_diag23_clean():
    rep = resonance_report(RatMatrix([[2, 0], [0, 3]]), 10)
    assert rep.resonances == []
    assert all(v >= 1 for v in rep.small_divisors.values())


def test_resonance_exact_path_tol_independent():
    A = RatMatrix([[1, 1], [0, 2]])
    r1 = resonance_report(A, 6, tol=1e-9)
    r2 = resonance_report(A, 6, tol=1e-3)
    assert r1.exact and r2.exact
    assert r1.resonances == r2.resonances
    assert r1.small_divisors == r2.small_divisors


def test_resonance_numeric_path():
    # eigenvalues +-sqrt(2): m=(1,1) gives sum 0... no eigenvalue 0; but
    # (2,1) gives sqrt(2) = lam_2 exactly: a genuine irrational resonance
    A = RatMatrix([[0, 2], [1, 0]])
    rep = resonance_report(A, 4)
    assert not rep.exact
    assert (2, (1, 2)) in rep.resonances or (1, (2, 1)) in rep.resonances


def test_bryuno_proxy():
    rep = resonance_report(RatMatrix([[2, 0], [0, 3]]), 8, C=1.0, eps=0.5)
    assert rep.bryuno_params == (1.0, 0.5)
    # min divisor 1 at each order; bound 1*exp(-k^0.5) < 1 for k >= 1
    assert all(rep.bryuno.values())
    rep2 = resonance_report(RatMatrix([[2, 0], [0, 3]]), 8, C=50.0, eps=0.5)
    assert not all(rep2.bryuno.values())


def _fraction_resonance_report(B, M, tol=1e-9, C=None, eps=None):
    """Reference: the Fraction enumeration that resonance_report replaced, one
    Fraction sum and one float per multi-index and eigenvalue."""
    ed = eigen_data(B, tol)
    P = B.rows
    exact = ed.all_rational
    lams_exact = ed.rational_eigenvalues if exact else None
    lams = ed.numeric_eigenvalues
    resonances = []
    small = {}
    for order in range(2, M + 1):
        best = None
        for m in itertools.combinations_with_replacement(range(P), order):
            counts = [0] * P
            for i in m:
                counts[i] += 1
            if exact:
                total = sum((counts[j] * lams_exact[j] for j in range(P)), Fraction(0))
            else:
                total = sum(counts[j] * lams[j] for j in range(P))
            for i in range(P):
                if exact:
                    delta = total - lams_exact[i]
                    mag = abs(float(delta))
                    hit = delta == 0
                else:
                    delta = total - lams[i]
                    mag = abs(delta)
                    hit = mag <= tol
                if hit:
                    resonances.append((i + 1, tuple(counts)))
                if best is None or mag < best:
                    best = mag
        small[order] = best
    bry = params = None
    if C is not None:
        bry = {k: small[k] > C * math.exp(-k ** (1.0 - eps)) for k in small}
        params = (C, eps)
    return ResonanceReport(lams, M, exact, resonances, small, bry, params)


# rational eigenvalues with zero, negatives, fractions and (by repeated draws) repeats
_RESONANCE_RATIONALS = [Fraction(v) for v in (0, 1, -1, 2, -2, 3)] + [
    Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 4), Fraction(-7, 6)]
# (a, b) with t^2 - a t - b irreducible over Q: real and complex irrational pairs
_IRRATIONAL_PAIRS = [(1, 1), (0, 2), (0, 3), (2, 1), (1, -1), (0, -1), (-1, Fraction(5, 4))]


@st.composite
def resonance_inputs(draw):
    """(B, M, tol, C, eps): B conjugate to a block upper triangular matrix whose
    diagonal blocks are the drawn rational eigenvalues and at most two
    irrational 2x2 companion blocks."""
    size = draw(st.integers(1, 4))
    blocks = draw(st.lists(st.sampled_from(_IRRATIONAL_PAIRS), max_size=size // 2))
    T = [[Fraction(0)] * size for _ in range(size)]
    k = 0
    for a, b in blocks:
        T[k][k + 1], T[k + 1][k], T[k + 1][k + 1] = Fraction(b), Fraction(1), Fraction(a)
        k += 2
    for j in range(k, size):
        T[j][j] = draw(st.sampled_from(_RESONANCE_RATIONALS))
    for i in range(size):
        for j in range(i + 1, size):
            if T[i][j] == 0:  # above the blocks; a block's own corner holds b != 0
                T[i][j] = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]))
    G = [[Fraction(int(i == j)) if j >= i else draw(st.sampled_from([0, 1, -1, 2]))
          for j in range(size)] for i in range(size)]
    G = RatMatrix(G)
    B = G.matmul(RatMatrix(T)).matmul(G.inverse())
    M = draw(st.integers(2, 8))
    tol = draw(st.sampled_from([1e-9, 1e-3]))
    C = eps = None
    if draw(st.booleans()):
        C, eps = draw(st.sampled_from([0.5, 1.0, 3.0])), draw(st.sampled_from([0.25, 0.5]))
    return B, M, tol, C, eps


@settings(max_examples=200, deadline=None)
@given(resonance_inputs())
def test_resonance_report_matches_the_fraction_enumeration(case):
    # json text compares every float by its repr: resonance order, exactness and
    # bit-identical small divisors and Bryuno verdicts
    got = resonance_report(*case).to_json_obj()
    want = _fraction_resonance_report(*case).to_json_obj()
    assert json.dumps(got) == json.dumps(want)


def test_resonance_report_rejects_empty_and_nonfinite_tol():
    with pytest.raises(PreconditionError, match="nonempty"):
        resonance_report(RatMatrix([]), 4)
    for tol in (float("nan"), float("inf"), 0.0):
        with pytest.raises(PreconditionError, match="tol"):
            resonance_report(RatMatrix([[1, 0], [0, 2]]), 4, tol)
