import json
from fractions import Fraction as Q

import pytest

from pilsys import membership
from pilsys.exact import IntRhs, IntRowPolyhedron, scaled_box
from pilsys.model import (Interval, Parameter, ParametricSystem,
                          QuantifierAssignment, RhsParameter, TolerableSystem,
                          parse_system)

E1_DOC = {
    "m": 2, "n": 2,
    "constant": {"A": [["1", "0"], ["1", "0"]], "b": ["1", "0"]},
    "parameters": [{"name": "p1", "interval": ["0", "1"],
                    "A": [["0", "0"], ["0", "1"]], "b": ["0", "1"],
                    "quantifier": "exists"}],
}

# [2,4] x = [-2,2] as a two-parameter ordinary system
E2_DOC = {
    "m": 1, "n": 1,
    "constant": {"A": [["3"]], "b": ["0"]},
    "parameters": [
        {"name": "a", "interval": ["-1", "1"], "A": [["1"]]},
        {"name": "b", "interval": ["-2", "2"], "b": ["1"]},
    ],
}

# [-1,1] x = 1
E3_DOC = {
    "m": 1, "n": 1,
    "constant": {"b": ["1"]},
    "parameters": [{"name": "a", "interval": ["-1", "1"], "A": [["1"]]}],
}


def load(doc):
    return parse_system(json.dumps(doc))


@pytest.fixture
def e1():
    return load(E1_DOC)


@pytest.fixture
def e2():
    return load(E2_DOC)


@pytest.fixture
def e3():
    return load(E3_DOC)


def int_row_polyhedron(E, dens, f, lo, hi):
    """An ``IntRowPolyhedron`` from rational right-hand sides f and bounds
    lo, hi: f over the row denominators (``IntRhs.of``) and the box scaled
    once (``scaled_box``), as a membership vertex LP gives them."""
    return IntRowPolyhedron(E, dens, IntRhs.of(f, dens), scaled_box(lo, hi))


def query(sys, quant=None):
    """The membership query (``membership._Query``) of sys under quant, the
    united set when it is None, on a reading of its own."""
    return membership._Query(membership.Reading(sys),
                             quant or QuantifierAssignment.all_exists(sys.K))


def tableau_state(res):
    """The final tableau an ``lp_feasible`` result keeps, as plain values:
    its integer rows and denominators, basis, nonbasic values, bounds,
    scale, width, equality-row artificials and equality right-hand side,
    the last as rationals: ``erhs`` over the row denominators ``edens``."""
    lp = res.basis
    f = [Q(n, lp.erhs.den * den) for n, den in zip(lp.erhs.nums, lp.edens)]
    return (lp.rows, lp.dens, lp.basis, lp.val, lp.lo, lp.hi, lp.scale,
            lp.width, lp.arts, f)


def qrand(rng, lo=-3, hi=3, dens=(1, 2)):
    return Q(rng.randint(lo, hi), rng.choice(dens))


def random_point(rng, n, lo=-6, hi=6):
    return [Q(rng.randint(lo, hi), rng.choice((1, 2, 3))) for _ in range(n)]


def gen_ordinary(rng, m=2, n=2):
    """Ordinary interval system: one parameter per uncertain coefficient.

    Integer midpoints in [-3,3] go into the constant term; radii are drawn
    from {0, 1/2, 1} and a radius-zero coefficient contributes no parameter.
    """
    A0 = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    b0 = [Q(rng.randint(-3, 3)) for _ in range(m)]
    params = []
    radii = (Q(0), Q(1, 2), Q(1))
    for i in range(m):
        for j in range(n):
            r = rng.choice(radii)
            if r != 0:
                A = [[Q(0)] * n for _ in range(m)]
                A[i][j] = Q(1)
                params.append(Parameter(f"a{i}{j}", Interval(-r, r), A, [Q(0)] * m))
        r = rng.choice(radii)
        if r != 0:
            b = [Q(0)] * m
            b[i] = Q(1)
            params.append(Parameter(f"b{i}", Interval(-r, r),
                                    [[Q(0)] * n for _ in range(m)], b))
    return ParametricSystem(m, n, A0, b0, params)


def gen_wide_ordinary(rng, m=2, n=2):
    """Ordinary system whose matrix radii dominate the midpoints, so the
    kernel has interior and strict membership actually occurs."""
    A0 = [[Q(0)] * n for _ in range(m)]
    b0 = [Q(rng.randint(-2, 2)) for _ in range(m)]
    params = []
    for i in range(m):
        for j in range(n):
            A = [[Q(0)] * n for _ in range(m)]
            A[i][j] = Q(1)
            params.append(Parameter(f"a{i}{j}", Interval(Q(-1), Q(1)),
                                    A, [Q(0)] * m))
    return ParametricSystem(m, n, A0, b0, params)


def gen_first_class(rng, m=2, n=2, K=None):
    """First-class system: each generator touches a single row."""
    if K is None:
        K = rng.randint(1, 3)
    A0 = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    b0 = [Q(rng.randint(-2, 2)) for _ in range(m)]
    params = []
    for k in range(K):
        row = rng.randrange(m)
        A = [[Q(0)] * n for _ in range(m)]
        b = [Q(0)] * m
        for j in range(n):
            A[row][j] = Q(rng.randint(-2, 2))
        b[row] = Q(rng.randint(-2, 2))
        lo = qrand(rng, -2, 2)
        hi = lo + Q(rng.randint(0, 3), rng.choice((1, 2)))
        params.append(Parameter(f"p{k}", Interval(lo, hi), A, b))
    return ParametricSystem(m, n, A0, b0, params)


def gen_general(rng, m=2, n=2, K=None):
    """General parametric system with dense random generators."""
    if K is None:
        K = rng.randint(1, 3)
    A0 = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    b0 = [Q(rng.randint(-2, 2)) for _ in range(m)]
    params = []
    for k in range(K):
        A = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        b = [Q(rng.randint(-2, 2)) for _ in range(m)]
        lo = qrand(rng, -2, 2)
        hi = lo + Q(rng.randint(0, 3), rng.choice((1, 2)))
        params.append(Parameter(f"p{k}", Interval(lo, hi), A, b))
    return ParametricSystem(m, n, A0, b0, params)


def gen_class_c(rng, m=2, n=2, K=2, L=1):
    """Class-C system: matrix parameters with one nonzero generator row,
    rhs parameters with one nonzero generator entry."""
    A0 = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    b0 = [Q(rng.randint(-2, 2)) for _ in range(m)]
    params = []
    for k in range(K):
        row = rng.randrange(m)
        A = [[Q(0)] * n for _ in range(m)]
        for j in range(n):
            A[row][j] = Q(rng.randint(-2, 2))
        lo = qrand(rng, -2, 2)
        hi = lo + Q(rng.randint(0, 2))
        params.append(Parameter(f"p{k}", Interval(lo, hi), A, [Q(0)] * m))
    for ell in range(L):
        i = rng.randrange(m)
        b = [Q(0)] * m
        b[i] = Q(rng.randint(1, 2))
        lo = qrand(rng, -2, 2)
        hi = lo + Q(rng.randint(0, 2))
        params.append(Parameter(f"q{ell}", Interval(lo, hi),
                                [[Q(0)] * n for _ in range(m)], b))
    return ParametricSystem(m, n, A0, b0, params)


def gen_quantified(rng, m=2, n=2, n_forall=1, n_exists=2):
    sys = gen_general(rng, m, n, K=n_forall + n_exists)
    ks = list(range(sys.K))
    rng.shuffle(ks)
    quant = QuantifierAssignment(frozenset(ks[:n_forall]),
                                 frozenset(ks[n_forall:]))
    return sys, quant


def gen_decoupled_ae(rng, m, n_forall, n_exists):
    """A system whose existential parameters each meet one row (first-class
    generators) and whose universal ones are dense, listed in a random
    order, with its quantifier assignment."""
    ex = gen_first_class(rng, m, 2, K=n_exists)
    params = [Parameter(f"e{k}", par.interval, par.A, par.b)
              for k, par in enumerate(ex.params)] + \
        [Parameter(f"u{k}", par.interval, par.A, par.b)
         for k, par in enumerate(gen_general(rng, m, 2, K=n_forall).params)]
    rng.shuffle(params)
    forall = frozenset(k for k, par in enumerate(params)
                       if par.name.startswith("u"))
    return (ParametricSystem(m, 2, ex.A0, ex.b0, params),
            QuantifierAssignment(forall, frozenset(range(len(params))) - forall))


def gen_tolerable_nonempty(rng, m=2, n=2, K=2, common_kernel_col=None):
    """Tolerable system guaranteed nonempty: rhs intervals are widened until
    they absorb the base residual range at a chosen anchor point."""
    A0 = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    b0 = [Q(rng.randint(-2, 2)) for _ in range(m)]
    params = []
    for k in range(K):
        A = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        if common_kernel_col is not None:
            for i in range(m):
                A[i][common_kernel_col] = Q(0)
        b = [Q(rng.randint(-1, 1)) for _ in range(m)]
        lo = qrand(rng, -1, 1)
        hi = lo + Q(rng.randint(0, 2), 2)
        params.append(Parameter(f"p{k}", Interval(lo, hi), A, b))
    if common_kernel_col is not None:
        for i in range(m):
            A0[i][common_kernel_col] = Q(0)
    base = ParametricSystem(m, n, A0, b0, params)

    x0 = random_point(rng, n, -2, 2)
    if common_kernel_col is not None:
        x0[common_kernel_col] = Q(0)
    # residual range of A(p)x0 - b(p) over the box, componentwise
    from pilsys.model import residual_vectors
    res = residual_vectors(base, x0)
    center = res[0][:]
    spread = [Q(0)] * m
    for par, v in zip(base.params, res[1:]):
        for i in range(m):
            center[i] += par.interval.mid * v[i]
            spread[i] += par.interval.rad * abs(v[i])
    rhs = []
    for i in range(m):
        d = [Q(0)] * m
        d[i] = Q(1)
        rhs.append(RhsParameter(
            f"q{i}", Interval(center[i] - spread[i] - 1, center[i] + spread[i] + 1), d))
    return TolerableSystem(base, rhs), x0


def fold_thin_params(sys):
    """Reference: the same system with each radius-0 parameter folded into
    the constant term, the copy the package once built to classify."""
    A0 = [row[:] for row in sys.A0]
    b0 = sys.b0[:]
    kept = []
    for par in sys.params:
        if par.interval.is_thin():
            c = par.interval.lo
            for i in range(sys.m):
                for j in range(sys.n):
                    A0[i][j] += c * par.A[i][j]
                b0[i] += c * par.b[i]
        else:
            kept.append(par)
    return ParametricSystem(sys.m, sys.n, A0, b0, kept)


def with_thin_params(rng, sys, count=2):
    """sys with count thin parameters put in at random places; each touches
    one to m rows of A, and every other one b as well."""
    params = list(sys.params)
    for t in range(count):
        A = [[Q(0)] * sys.n for _ in range(sys.m)]
        b = [Q(0)] * sys.m
        for i in rng.sample(range(sys.m), rng.randint(1, sys.m)):
            A[i][rng.randrange(sys.n)] = qrand(rng, -2, 2)
            if t % 2:
                b[i] = qrand(rng, -2, 2)
        c = qrand(rng, -2, 2)
        params.insert(rng.randint(0, len(params)),
                      Parameter(f"t{t}", Interval(c, c), A, b))
    return ParametricSystem(sys.m, sys.n, [row[:] for row in sys.A0],
                            sys.b0[:], params)


def residual_rows_reference(sys, x):
    """Reference: ``residual_rows`` term by term, one ``as_integer_ratio``
    per coefficient of every term, with no product skipped."""
    from math import lcm

    from pilsys.exact import scaled

    xn, xd = scaled(x)
    xn.append(-xd)
    mats = [(sys.A0, sys.b0), *((par.A, par.b) for par in sys.params)]
    out = []
    for i in range(sys.m):
        nums, dens = [], []
        for A, b in mats:
            num, den = 0, 1
            for a, xj in zip((*A[i], b[i]), xn):
                an, ad = a.as_integer_ratio()
                if an and xj:
                    if den % ad:
                        m = lcm(den, ad)
                        num *= m // den
                        den = m
                    num += an * xj * (den // ad)
            nums.append(num)
            dens.append(den)
        D = lcm(*dens)
        if D > 1:
            nums = [num * (D // den) for num, den in zip(nums, dens)]
        out.append((nums, D * xd))
    return out


def sign_pieces_reference(sys):
    """Reference: the sign pieces as the decompositions once built them, in
    Fractions from ``interval_data`` (A_c -+ sum_k s_k G_k, the orthant as
    bounds or the sign cone as rows): (s, solution piece, kernel piece) per
    sign vector s, in ``decompose`` order, for an ordinary or class-C
    system."""
    import itertools

    from pilsys.exact import Polyhedron
    from pilsys.model import ORDINARY, classify, interval_data

    n = sys.n
    Ac, dA, bc, db = interval_data(sys)
    if ORDINARY in classify(sys):
        gens = [[(i, j, row[j]) for i, row in enumerate(dA) if row[j] != 0]
                for j in range(n)]

        def region(s):
            return ([], [Q(0) if sj > 0 else None for sj in s],
                    [None if sj > 0 else Q(0) for sj in s])
    else:
        mats = [par for par in sys.params
                if not par.interval.is_thin() and all(v == 0 for v in par.b)]
        gens = [[(i, j, par.interval.rad * a) for i, row in enumerate(par.A)
                 for j, a in enumerate(row) if a != 0] for par in mats]
        cone = [(k, row) for k, par in enumerate(mats) for row in par.A
                if any(a != 0 for a in row)]

        def region(s):
            return ([[-s[k] * a for a in row] for k, row in cone],
                    [None] * n, [None] * n)
    rhs = [c + r for c, r in zip(bc, db)] + [r - c for c, r in zip(bc, db)]
    for s in itertools.product((1, -1), repeat=len(gens)):
        lower = [row[:] for row in Ac]
        upper = [row[:] for row in Ac]
        for sk, G in zip(s, gens):
            for i, j, g in G:
                lower[i][j] -= sk * g
                upper[i][j] += sk * g
        rows, lo, hi = region(s)
        C = lower + [[-a for a in r] for r in upper] + rows
        yield (s, Polyhedron(C, rhs + [Q(0)] * len(rows), [], [], n, lo, hi),
               Polyhedron([r[:] for r in C], [Q(0)] * len(C), [], [], n,
                          lo[:], hi[:]))


# large primes, so that scaled rows and boxes meet coprime denominators
BIG_PRIMES = (1_000_000_007, 998_244_353, 2 ** 61 - 1, 1_000_000_009,
              2 ** 31 - 1)


def with_big_denominators(rng, sys):
    """The same solution set written over large coprime denominators: each
    parameter p_k = c_k q_k with q_k's interval the old one over c_k and its
    generator times c_k, and each equation times its own factor r_i; every
    c_k and r_i is a ratio of two of BIG_PRIMES, and nonzero positions, so
    the class flags, stay as they are."""
    def big():
        p, q = rng.sample(BIG_PRIMES, 2)
        return Q(p, q)

    r = [big() for _ in range(sys.m)]

    def rows(A, c=1):
        return [[a * c * ri for a in row] for row, ri in zip(A, r)]

    def col(b, c=1):
        return [v * c * ri for v, ri in zip(b, r)]

    params = []
    for par in sys.params:
        c = big()
        iv = par.interval
        params.append(Parameter(par.name, Interval(iv.lo / c, iv.hi / c),
                                rows(par.A, c), col(par.b, c)))
    return ParametricSystem(sys.m, sys.n, rows(sys.A0), col(sys.b0), params)


def with_scaled_rows(rng, sys):
    """The same system with each equation times its own small rational
    factor p/q, q in (3, 5, 7) and p prime to it: A0, b0 and every
    generator's row i, so that row i of the integer table has a
    denominator D_i > 1 unless q divides all of its entries, and the
    nonzero positions, and with them the class flags, stay as they are."""
    r = []
    for _ in range(sys.m):
        q = rng.choice((3, 5, 7))
        p = rng.choice([v for v in range(-8, 9) if v and v % q])
        r.append(Q(p, q))

    def rows(A):
        return [[a * ri for a in row] for row, ri in zip(A, r)]

    def col(b):
        return [v * ri for v, ri in zip(b, r)]

    return ParametricSystem(
        sys.m, sys.n, rows(sys.A0), col(sys.b0),
        [Parameter(par.name, par.interval, rows(par.A), col(par.b))
         for par in sys.params])


def with_zero_generator(rng, sys):
    """sys with one parameter on a proper interval whose generator is all
    zeros, put in at a random place."""
    params = list(sys.params)
    lo = qrand(rng, -2, 2)
    params.insert(rng.randint(0, len(params)), Parameter(
        "z", Interval(lo, lo + 1), [[Q(0)] * sys.n for _ in range(sys.m)],
        [Q(0)] * sys.m))
    return ParametricSystem(sys.m, sys.n, [row[:] for row in sys.A0],
                            sys.b0[:], params)
