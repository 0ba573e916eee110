"""Metamorphic properties: a transform that leaves an AE solution set as it
is must leave every membership verdict as it is, each certificate must
check on its own system, and a certified unboundedness verdict must never
turn into its opposite.

The transforms:

- rows M A(p) and M b(p), for a nonsingular integer matrix M;
- the reparametrization p_k = c_k + s_k q_k, where s_k < 0 flips the
  interval, so the box is scaled anew and its vertices come in another order;
- a permutation of the parameters, with their quantifiers;
- one more thin parameter, universal or existential.
"""

import random
from collections import Counter

from conftest import (gen_first_class, gen_general, gen_quantified,
                      gen_tolerable_nonempty, qrand, random_point)
from pilsys.exact import (AffineSolutionSet, Q, UniqueSolution, lin_solve,
                          zeros)
from pilsys.membership import (CertKind, member_ae, validate_certificate,
                               witness_resubstitutes)
from pilsys.model import (Interval, Parameter, ParametricSystem,
                          QuantifierAssignment)
from pilsys.unbounded import Status, decide_unbounded


def _matmul(M, A):
    return [[sum((a * row[j] for a, row in zip(Mi, A)), Q(0))
             for j in range(len(A[0]))] for Mi in M]


def _matvec(M, b):
    return [sum((a * bi for a, bi in zip(Mi, b)), Q(0)) for Mi in M]


def rows_mixed(rng, sys, quant):
    """Every equation replaced by an integer combination of all of them."""
    while True:
        M = [[Q(rng.randint(-2, 2)) for _ in range(sys.m)] for _ in range(sys.m)]
        if isinstance(lin_solve(M, zeros(sys.m)), UniqueSolution):
            break
    return ParametricSystem(sys.m, sys.n, _matmul(M, sys.A0), _matvec(M, sys.b0), [
        Parameter(par.name, par.interval, _matmul(M, par.A), _matvec(M, par.b))
        for par in sys.params]), quant


def reparametrized(rng, sys, quant):
    """p_k = c_k + s_k q_k: c_k A^(k) moves into the constant term, q_k's
    generators are s_k A^(k), and its interval is (I_k - c_k) / s_k."""
    A0 = [row[:] for row in sys.A0]
    b0 = sys.b0[:]
    params = []
    for par in sys.params:
        c = qrand(rng, -2, 2)
        s = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
        for i in range(sys.m):
            for j in range(sys.n):
                A0[i][j] += c * par.A[i][j]
            b0[i] += c * par.b[i]
        lo, hi = sorted(((par.interval.lo - c) / s, (par.interval.hi - c) / s))
        params.append(Parameter(par.name, Interval(lo, hi),
                                [[s * a for a in row] for row in par.A],
                                [s * v for v in par.b]))
    return ParametricSystem(sys.m, sys.n, A0, b0, params), quant


def permuted(rng, sys, quant):
    order = list(range(sys.K))
    rng.shuffle(order)
    pos = {k: i for i, k in enumerate(order)}
    return (ParametricSystem(sys.m, sys.n, sys.A0, sys.b0,
                             [sys.params[k] for k in order]),
            QuantifierAssignment(frozenset(pos[k] for k in quant.forall_set),
                                 frozenset(pos[k] for k in quant.exists_set)))


def with_thin(rng, sys, quant):
    """A last parameter t in [c, c] with generators A_t and b_t, and
    c A_t and c b_t taken out of the constant term."""
    c = qrand(rng, -2, 2)
    A = [[qrand(rng, -2, 2) for _ in range(sys.n)] for _ in range(sys.m)]
    b = [qrand(rng, -2, 2) for _ in range(sys.m)]
    A0 = [[a0 - c * a for a0, a in zip(r0, r)] for r0, r in zip(sys.A0, A)]
    b0 = [v0 - c * v for v0, v in zip(sys.b0, b)]
    t = frozenset({sys.K})
    quant = QuantifierAssignment(quant.forall_set | t, quant.exists_set) \
        if rng.random() < 0.5 else \
        QuantifierAssignment(quant.forall_set, quant.exists_set | t)
    return ParametricSystem(sys.m, sys.n, A0, b0,
                            [*sys.params, Parameter("t", Interval(c, c), A, b)]), quant


TRANSFORMS = (rows_mixed, reparametrized, permuted, with_thin)


def _solved_point(rng, sys):
    """A solution of A(p) x = b(p) at a random box point p, or None."""
    p = [par.interval.lo + Q(rng.randint(0, 4), 4) * (par.interval.hi - par.interval.lo)
         for par in sys.params]
    res = lin_solve(sys.A_at(p), sys.b_at(p))
    return res.point if isinstance(res, (UniqueSolution, AffineSolutionSet)) else None


def _null_direction(rng, sys):
    """A y with A(p) y = 0 at the first box vertex, or None."""
    res = lin_solve(sys.A_at(next(sys.vertices(range(sys.K)))), zeros(sys.m))
    if not isinstance(res, AffineSolutionSet):
        return None
    coef = [rng.randint(-2, 2) for _ in res.basis]
    y = [sum((c * v[j] for c, v in zip(coef, res.basis)), Q(0))
         for j in range(sys.n)]
    return y if any(y) else None


def cases(rng, count):
    """(family, system, quantifiers, points, directions)."""
    for trial in range(count):
        kind = trial % 4
        if kind == 0:
            sys = gen_general(rng, rng.randint(1, 3), rng.randint(1, 3))
            quant = QuantifierAssignment.all_exists(sys.K)
            family = "general"
        elif kind == 1:
            sys, quant = gen_quantified(rng, 2, 2, n_forall=rng.randint(1, 2))
            family = "quantified"
        elif kind == 2:
            sys = gen_first_class(rng, rng.randint(1, 3), rng.randint(1, 3))
            forall = frozenset(k for k in range(sys.K) if rng.random() < 0.3)
            quant = QuantifierAssignment(forall, frozenset(range(sys.K)) - forall)
            family = "first class"
        else:
            tsys, x0 = gen_tolerable_nonempty(rng, 2, 2, K=rng.randint(1, 2))
            sys, quant = tsys.combined()
            family = "tolerable"
        points = [random_point(rng, sys.n, -2, 2)]
        member = x0 if kind == 3 else _solved_point(rng, sys)
        if member is not None:
            points.append(member)
        dirs = [y for y in (_null_direction(rng, sys),
                            random_point(rng, sys.n, -2, 2)) if y and any(y)]
        yield family, sys, quant, points, dirs


def _certificate_checks(sys, quant, x, ok, cert):
    if cert.kind is CertKind.WITNESS:
        return ok and witness_resubstitutes(sys, x, cert)
    return not ok and validate_certificate(sys, quant, x, cert)


def test_transforms_keep_membership_and_unboundedness():
    rng = random.Random(2222)
    seen = Counter()
    one_sided = Counter()
    for family, sys, quant, points, dirs in cases(rng, 120):
        for transform in TRANSFORMS:
            tsys, tquant = transform(rng, sys, quant)
            for x in points:
                ok, cert = member_ae(sys, quant, x)
                tok, tcert = member_ae(tsys, tquant, x)
                assert ok == tok, (family, transform.__name__, x)
                assert _certificate_checks(sys, quant, x, ok, cert)
                assert _certificate_checks(tsys, tquant, x, tok, tcert)
                seen[family, ok] += 1
            for y in dirs:
                a = decide_unbounded(sys, quant, y, budget=4).status
                b = decide_unbounded(tsys, tquant, y, budget=4).status
                assert {a, b} != {Status.CERTIFIED_YES, Status.CERTIFIED_NO}, \
                    (family, transform.__name__, y)
                if (a is Status.UNKNOWN) != (b is Status.UNKNOWN):
                    one_sided[transform.__name__] += 1
                seen["decided", a is not Status.UNKNOWN] += 1
    # a one-sided UNKNOWN is no conflict: the cascade's rules depend on
    # the system's class, which some transforms change
    print("one-sided UNKNOWN verdicts per transform:", dict(one_sided))
    assert all(seen[family, ok] >= 5 for family in
               ("general", "quantified", "first class", "tolerable")
               for ok in (True, False)), seen
    assert seen["decided", True] >= 50, seen
