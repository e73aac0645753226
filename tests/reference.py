"""Test-local reference forms of operations the library no longer offers."""

from nambu.exterior import Multivector, _jacobian_push


def pushforward(P, phi, N):
    """phi_* P through N along a map fixing 0, through its inverse: the
    Jacobian push Lambda(Dphi) . P read at phi.inverse(N)."""
    inv = phi.inverse(N).comps
    return Multivector(P.nvars, P.grade, {K: c.substitute(inv, N)
                                          for K, c in _jacobian_push(P, phi, N).comps.items()})
