"""Membership tests for united, AE, and tolerable solution sets and their
kernels, with machine-checkable certificates.

There is one membership routine, for AE solution sets; the united set is the
AE set with no universal parameters, and the tolerable set is the AE set of
the combined system.

A positive answer carries a witness parameter vector that re-substitutes to an
exact equality.  A negative answer carries a separating vector w for which the
characterization inequality

    w.(A(mid p) x - b(mid p))
        <= sum_{k existential} rad(p_k) |w.(A^(k) x - b^(k))|
         - sum_{k universal}   rad(p_k) |w.(A^(k) x - b^(k))|

fails strictly; validate_certificate re-checks that violation exactly.

An AE query asks one LP per universal vertex; a later vertex first re-checks
the last feasible basis and is solved cold only when that fails (see
member_ae), so every certificate is that of a cold LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .exact import (FarkasCertificate, Feasible, Infeasible, Polyhedron, Q,
                    Vector, basis_holds, dot, lp_feasible, lp_maximize,
                    vec_add, vec_scale, zeros)
from .model import (FIRST_CLASS, ParametricSystem, QuantifierAssignment,
                    TolerableSystem, classify, residual_vectors)


# Both AE routines enumerate the 2^|forall| universal vertices; above this
# many universal parameters they refuse before any LP.
MAX_FORALL = 20


class CertKind(Enum):
    WITNESS = "WITNESS"
    SEPARATOR = "SEPARATOR"


@dataclass(frozen=True)
class Certificate:
    """A verdict's certificate; build one with ``Certificate.witness(p)`` or
    ``Certificate.separator(fc)``."""

    kind: CertKind
    witness_p: Optional[Vector] = None
    separator: Optional[FarkasCertificate] = None


def _witness(p: Vector) -> Certificate:
    return Certificate(CertKind.WITNESS, witness_p=p)


def _separator(fc: FarkasCertificate) -> Certificate:
    return Certificate(CertKind.SEPARATOR, separator=fc)


# The constructors share their names with the fields they fill.  Attached
# after the class is built, they cannot become the fields' defaults.
Certificate.witness = staticmethod(_witness)
Certificate.separator = staticmethod(_separator)


def _separator_from_farkas(res: Infeasible) -> FarkasCertificate:
    """Canonical complementary certificate (w, u, v) from a refuted vertex LP.

    w is the equality multipliers, and t_k = w.v^(k) splits into
    u_k = max(-t_k, 0) and v_k = max(t_k, 0).  The column of existential
    parameter k in the LP is v^(k), so the Farkas identity w.E + t = 0 gives
    t_k = -bound_mult_k exactly, and no residual is read again.
    """
    zero = Q(0)
    return FarkasCertificate(res.eq_mult[:],
                             [t if t > 0 else zero for t in res.bound_mult],
                             [-t if t < 0 else zero for t in res.bound_mult])


def _split(sys: ParametricSystem,
           quant: QuantifierAssignment) -> tuple[list[int], list[int]]:
    """The sorted universal and existential indices, within the vertex cap."""
    quant.validate_for(sys.K)
    if len(quant.forall_set) > MAX_FORALL:
        raise ValueError(f"more than {MAX_FORALL} universal parameters")
    return sorted(quant.forall_set), sorted(quant.exists_set)


def member_united(sys: ParametricSystem, x: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is x in the united solution set?"""
    return member_ae(sys, QuantifierAssignment.all_exists(sys.K), x)


def member_kernel(sys: ParametricSystem, y: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is y in the united kernel, i.e. A(p) y = 0 for some admissible p?"""
    return member_ae_kernel(sys, QuantifierAssignment.all_exists(sys.K), y)


def member_ae(sys: ParametricSystem, quant: QuantifierAssignment,
              x: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is x in the AE solution set for the given quantifier assignment?

    The admissible universal parameters form a convex set (projection of a
    polyhedron), so containment of the whole universal box is decided at its
    vertices.  The vertex enumeration is capped at MAX_FORALL universal
    parameters.

    The first vertex is solved cold and gives the witness.  A later vertex
    changes only the right-hand side, so the last feasible basis is
    re-checked there first (``basis_holds``); only when a basic value leaves
    its bounds is that vertex solved cold, and only a cold LP gives a
    separator.  So the verdict and certificate are those of one cold LP per
    vertex.
    """
    forall, exists = _split(sys, quant)
    residuals = residual_vectors(sys, x)

    # Each vertex asks for p_E in box_E with sum_{k in E} p_k v^(k) = rhs:
    # the box is the bounds, the m equality rows are shared, and only
    # rhs_i = -(v^(0)_i + sum_{k universal} p_k v^(k)_i) changes.
    E = [[residuals[k + 1][i] for k in exists] for i in range(sys.m)]
    lo = [sys.params[k].interval.lo for k in exists]
    hi = [sys.params[k].interval.hi for k in exists]
    cols = [[residuals[k][i] for k in (0, *(k + 1 for k in forall))]
            for i in range(sys.m)]
    witness: Optional[Vector] = None
    last: Optional[Feasible] = None
    for vertex in sys.vertices(forall):
        coef = [Q(1), *vertex]
        rhs = [-dot(coef, col) for col in cols]
        if last is not None and basis_holds(last, rhs):
            continue
        res = lp_feasible(Polyhedron([], [], E, rhs, len(exists), lo, hi))
        if isinstance(res, Infeasible):
            fc = _separator_from_farkas(res)
            return False, Certificate.separator(fc)
        last = res
        if witness is None:
            p_full = zeros(sys.K)
            for k, pk in zip(forall, vertex):
                p_full[k] = pk
            for k, pk in zip(exists, res.point):
                p_full[k] = pk
            witness = p_full
    assert witness is not None
    return True, Certificate.witness(witness)


def member_ae_kernel(sys: ParametricSystem, quant: QuantifierAssignment,
                     y: Sequence[Q]) -> tuple[bool, Certificate]:
    """AE membership of the homogenized system."""
    return member_ae(sys.homogenized(), quant, y)


def member_tolerable(tsys: TolerableSystem,
                     x: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is x in the tolerable solution set?"""
    combined, quant = tsys.combined()
    return member_ae(combined, quant, x)


def kernel_tolerable(tsys: TolerableSystem, y: Sequence[Q]) -> bool:
    """A(p) y = 0 for *all* p in the box: an exact finite test.

    The condition is affine in p, so it holds on the box iff it holds at the
    midpoint and every generator direction vanishes.
    """
    sys = tsys.base
    if len(y) != sys.n:
        raise ValueError(f"direction has length {len(y)}, expected {sys.n}")
    mid = sys.A_at(sys.midpoint())
    if any(dot(row, y) != 0 for row in mid):
        return False
    for par in sys.params:
        if par.interval.rad != 0:
            if any(dot(row, y) != 0 for row in par.A):
                return False
    return True


def strict_kernel_member(sys: ParametricSystem,
                         y: Sequence[Q]) -> tuple[bool, Q]:
    """Does 0 lie in the interior of the zonotope Z(y) = {A(p) y : p in box}?"""
    return strict_kernel_member_ae(sys, QuantifierAssignment.all_exists(sys.K), y)


def strict_kernel_member_ae(sys: ParametricSystem, quant: QuantifierAssignment,
                            y: Sequence[Q]) -> tuple[bool, Q]:
    """Strict form of AE kernel membership.

    The characterization inequality must hold strictly for every nonzero w,
    which is equivalent to containment of the universally-shifted center in
    the interior of the existential generator zonotope; that containment is
    decided at the vertices of the universal box, capped like ``member_ae``.
    Each containment takes 2m exact LPs: for each coordinate direction
    +-e_i, maximize eps with eps*(+-e_i) in the zonotope.  The minimum of
    the maxima is returned; it is positive exactly when the center is
    interior.
    """
    forall, exists = _split(sys, quant)
    if len(y) != sys.n:
        raise ValueError(f"direction has length {len(y)}, expected {sys.n}")
    m = sys.m
    center = sys.A_at(sys.midpoint())
    c = [dot(row, y) for row in center]
    gens_all = [[dot(row, y) for row in par.A] for par in sys.params]
    e_gens = [gens_all[k] for k in exists]
    e_rads = [sys.params[k].interval.rad for k in exists]

    best: Optional[Q] = None
    for vertex in sys.vertices(forall):
        q = c[:]
        for k, pk in zip(forall, vertex):
            t = pk - sys.params[k].interval.mid
            q = [a + t * g for a, g in zip(q, gens_all[k])]
        for i in range(m):
            for sign in (Q(1), Q(-1)):
                val = _zonotope_reach(q, e_gens, e_rads, i, sign, m)
                if val is None or val <= 0:
                    return False, val if val is not None else Q(0)
                if best is None or val < best:
                    best = val
    if best is None:  # m == 0
        best = Q(1)
    return best > 0, best


def _zonotope_reach(c: Vector, gens: list[Vector], rads: list[Q],
                    coord: int, sign: Q, m: int) -> Optional[Q]:
    """max eps with c + sum t_k g^(k) = eps*sign*e_coord, |t_k| <= rad_k."""
    K = len(gens)
    dim = K + 1  # t_1..t_K, eps
    E, f = [], []
    for i in range(m):
        row = [gens[k][i] for k in range(K)]
        row.append(-sign if i == coord else Q(0))
        E.append(row)
        f.append(-c[i])
    P = Polyhedron([], [], E, f, dim, [-r for r in rads] + [None], rads + [None])
    obj = zeros(dim)
    obj[K] = Q(1)
    status, value, _ = lp_maximize(P, obj)
    if status != "optimal":
        return None  # infeasible cannot reach the axis; unbounded cannot occur
    return value


def member_first_class(sys: ParametricSystem, x: Sequence[Q]) -> bool:
    """First-class characterization: |A(mid)x - b(mid)| <= sum rad |A^(k)x - b^(k)|."""
    if FIRST_CLASS not in classify(sys):
        raise ValueError("system is not of the first class")
    residuals = residual_vectors(sys, x)
    mid = residuals[0][:]
    for par, v in zip(sys.params, residuals[1:]):
        mid = vec_add(mid, vec_scale(par.interval.mid, v))
    for i in range(sys.m):
        rhs_i = sum((par.interval.rad * abs(residuals[k + 1][i])
                     for k, par in enumerate(sys.params)), Q(0))
        if abs(mid[i]) > rhs_i:
            return False
    return True


def validate_certificate(sys: ParametricSystem,
                         quant: Optional[QuantifierAssignment],
                         x: Sequence[Q], cert: Certificate) -> bool:
    """Check a SEPARATOR exactly: the characterization inequality must fail."""
    if cert.kind is not CertKind.SEPARATOR:
        raise ValueError("only SEPARATOR certificates can be validated")
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    quant.validate_for(sys.K)
    w = cert.separator.w
    residuals = residual_vectors(sys, x)
    if len(w) != sys.m:
        return False
    mid = residuals[0][:]
    for par, v in zip(sys.params, residuals[1:]):
        mid = vec_add(mid, vec_scale(par.interval.mid, v))
    lhs = dot(w, mid)
    rhs = Q(0)
    for k, par in enumerate(sys.params):
        term = par.interval.rad * abs(dot(w, residuals[k + 1]))
        rhs += term if k in quant.exists_set else -term
    return lhs > rhs


def witness_resubstitutes(sys: ParametricSystem, x: Sequence[Q],
                          cert: Certificate) -> bool:
    """Check a WITNESS exactly: A(p) x = b(p) and p inside the box."""
    if cert.kind is not CertKind.WITNESS:
        raise ValueError("not a WITNESS certificate")
    if len(x) != sys.n:
        raise ValueError(f"point has length {len(x)}, expected {sys.n}")
    p = cert.witness_p
    if len(p) != sys.K:
        return False
    if not all(par.interval.contains(pk) for pk, par in zip(p, sys.params)):
        return False
    A = sys.A_at(p)
    b = sys.b_at(p)
    return all(dot(row, x) == bi for row, bi in zip(A, b))
