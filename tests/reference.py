"""Test-local reference forms of operations the library no longer offers."""

import itertools
from fractions import Fraction

from nambu.polyalg import Poly, _monomials_of_degree
from nambu.exterior import Multivector, _jacobian_push, apply_vector, embed_poly
from nambu.verify import hamiltonian_vf, nambu_bracket


def pushforward(P, phi, N):
    """phi_* P through N along a map fixing 0, through its inverse: the
    Jacobian push Lambda(Dphi) . P read at phi.inverse(N)."""
    inv = phi.inverse(N).comps
    return Multivector(P.nvars, P.grade, {K: c.substitute(inv, N)
                                          for K, c in _jacobian_push(P, phi, N).comps.items()})


def fractions(ints):
    """The Fraction rows of (integer rows, denominator), the form in which
    `LinearSolveResult.reduced_ints` and `.kernel_ints` give them."""
    rows, d = ints
    return [[Fraction(v, d) for v in row] for row in rows]


def embed(obj, indices, nvars):
    """A form or tensor on the variables `indices` (increasing) as one on all
    nvars variables."""
    return type(obj)(nvars, obj.grade, {tuple(indices[i] for i in K): embed_poly(c, indices, nvars)
                                        for K, c in obj.comps.items()})


def monomials_up_to(nvars, max_degree):
    """All monomials of total degree 0..max_degree, degree by degree."""
    return [Poly.monomial(nvars, exps) for d in range(max_degree + 1)
            for exps in _monomials_of_degree(nvars, d)]


def search_identity_violation(P, max_degree=2):
    """Search monomial argument tuples for a nonzero fundamental-identity
    residual: the bounded refutation oracle for `is_nambu`.

    Arguments run over strictly increasing combinations of nonconstant
    monomials in graded-lexicographic order (the residual is antisymmetric in
    fs and in gs separately and vanishes identically when any argument is
    constant, so nothing is lost). The Hamiltonian field of each fs is hoisted
    out of the inner loop and fs with a vanishing field are pruned, since the
    residual is then identically zero. Returns (fs, gs, residual) for the
    first violation, or None if the bounded search is exhausted.
    """
    mons = [m for m in monomials_up_to(P.nvars, max_degree) if m.degree >= 1]
    for fs in itertools.combinations(mons, P.grade - 1):
        X = hamiltonian_vf(P, fs)
        if X.is_zero():
            continue
        images = [apply_vector(X, m) for m in mons]
        for gs_idx in itertools.combinations(range(len(mons)), P.grade):
            gs = [mons[i] for i in gs_idx]
            residual = apply_vector(X, nambu_bracket(P, gs))
            for slot, i in enumerate(gs_idx):
                if images[i].is_zero():
                    continue
                args = list(gs)
                args[slot] = images[i]
                residual = residual - nambu_bracket(P, args)
            if not residual.is_zero():
                return tuple(fs), tuple(gs), residual
    return None
