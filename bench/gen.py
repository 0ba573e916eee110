"""Seeded input generators for the pilsys benchmark.

Nothing here imports the package under test or ``tests/conftest.py``: an edit
to either cannot change a workload, and the same seed always gives the same
systems, points and directions.  Systems are plain data that serialize to the
CLI's JSON document format (rationals as strings); ``corpus_digest`` hashes
that form so two runs can show they used the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Optional


@dataclass
class GenParam:
    name: str
    lo: Q
    hi: Q
    A: list[list[Q]]
    b: list[Q]


@dataclass
class GenSystem:
    m: int
    n: int
    A0: list[list[Q]]
    b0: list[Q]
    params: list[GenParam]
    forall: frozenset = field(default_factory=frozenset)
    explicit_quantifiers: bool = False

    def A_at(self, p):
        A = [row[:] for row in self.A0]
        for pk, par in zip(p, self.params):
            for i in range(self.m):
                for j in range(self.n):
                    A[i][j] += pk * par.A[i][j]
        return A

    def b_at(self, p):
        b = self.b0[:]
        for pk, par in zip(p, self.params):
            b = [x + pk * y for x, y in zip(b, par.b)]
        return b

    def doc(self) -> dict:
        """The system in the CLI's JSON format."""
        s = str
        params = []
        for k, par in enumerate(self.params):
            pdoc = {"name": par.name, "interval": [s(par.lo), s(par.hi)],
                    "A": [[s(x) for x in row] for row in par.A],
                    "b": [s(x) for x in par.b]}
            if self.explicit_quantifiers:
                pdoc["quantifier"] = "forall" if k in self.forall else "exists"
            params.append(pdoc)
        return {"m": self.m, "n": self.n,
                "constant": {"A": [[s(x) for x in row] for row in self.A0],
                             "b": [s(x) for x in self.b0]},
                "parameters": params}


def vec_text(v) -> str:
    return ",".join(str(x) for x in v)


def corpus_digest(items) -> str:
    """sha256 over a canonical JSON form of (label, system doc, vector) items."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Exact linear algebra (independent of pilsys.exact)
# ---------------------------------------------------------------------------

def _rref(M: list[list[Q]], ncols: int):
    """Reduced row echelon form of M over its first ncols columns."""
    rows = [row[:] for row in M]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_unique(A, b) -> Optional[list[Q]]:
    n = len(A[0])
    rows, pivots = _rref([row + [bi] for row, bi in zip(A, b)], n)
    if len(pivots) != n or any(row[n] != 0 for row in rows[n:]):
        return None
    return [rows[i][n] for i in range(n)]


def null_space(A) -> list[list[Q]]:
    n = len(A[0])
    rows, pivots = _rref(A, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[fc] = Q(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        basis.append(v)
    return basis


def det(A) -> Q:
    rows = [row[:] for row in A]
    n = len(rows)
    d = Q(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Q(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def integral(v: list[Q]) -> list[Q]:
    """Scale a rational vector to coprime integers (direction kept)."""
    lcm = math.lcm(*(x.denominator for x in v))
    ints = [int(x * lcm) for x in v]
    g = math.gcd(*ints)
    return [Q(x // g) for x in ints] if g else [Q(0)] * len(v)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def _zero(m, n):
    return [[Q(0)] * n for _ in range(m)]


def _ints(rng, k, lo=-2, hi=2):
    return [Q(rng.randint(lo, hi)) for _ in range(k)]


def general(rng, m, n, K, min_width=0) -> GenSystem:
    """Dense random generators on every parameter."""
    params = []
    for k in range(K):
        lo = Q(rng.randint(-2, 2), rng.choice((1, 2)))
        hi = lo + Q(rng.randint(min_width, 3), rng.choice((1, 2)))
        params.append(GenParam(f"p{k}", lo, hi,
                               [_ints(rng, n) for _ in range(m)], _ints(rng, m)))
    return GenSystem(m, n, [_ints(rng, n) for _ in range(m)], _ints(rng, m), params)


def strictly_general(rng, m, n, K) -> GenSystem:
    """A general system that is neither ordinary nor class C: every parameter
    is non-thin and its matrix generator touches at least two rows."""
    while True:
        s = general(rng, m, n, K, min_width=1)
        if all(sum(any(x != 0 for x in row) for row in par.A) >= 2
               for par in s.params):
            return s


def ordinary(rng, m, n) -> GenSystem:
    """One parameter per coefficient and right-hand side entry; radii from
    {1/2, 1}."""
    params = []
    radii = (Q(1, 2), Q(1))
    for i in range(m):
        for j in range(n):
            r = rng.choice(radii)
            A = _zero(m, n)
            A[i][j] = Q(1)
            params.append(GenParam(f"a{i}{j}", -r, r, A, [Q(0)] * m))
        r = rng.choice(radii)
        b = [Q(0)] * m
        b[i] = Q(1)
        params.append(GenParam(f"b{i}", -r, r, _zero(m, n), b))
    return GenSystem(m, n, [_ints(rng, n, -3, 3) for _ in range(m)],
                     _ints(rng, m, -3, 3), params)


def wide_ordinary(rng, m, n) -> GenSystem:
    """Zero midpoint matrix with unit radii, so the kernel has interior."""
    params = []
    for i in range(m):
        for j in range(n):
            A = _zero(m, n)
            A[i][j] = Q(1)
            params.append(GenParam(f"a{i}{j}", Q(-1), Q(1), A, [Q(0)] * m))
    return GenSystem(m, n, _zero(m, n), _ints(rng, m), params)


def class_c(rng, m, n, K=2, L=1) -> GenSystem:
    """Matrix parameters touching one row; rhs parameters touching one entry."""
    params = []
    for k in range(K):
        row = rng.randrange(m)
        A = _zero(m, n)
        A[row] = _ints(rng, n)
        lo = Q(rng.randint(-2, 2), rng.choice((1, 2)))
        params.append(GenParam(f"p{k}", lo, lo + rng.randint(0, 2), A, [Q(0)] * m))
    for ell in range(L):
        b = [Q(0)] * m
        b[rng.randrange(m)] = Q(rng.randint(1, 2))
        lo = Q(rng.randint(-2, 2), rng.choice((1, 2)))
        params.append(GenParam(f"q{ell}", lo, lo + rng.randint(0, 2), _zero(m, n), b))
    return GenSystem(m, n, [_ints(rng, n) for _ in range(m)], _ints(rng, m), params)


def anchored(rng, base: GenSystem, n_forall: int):
    """Add one existential rhs parameter per row, wide enough that a random
    anchor point x0 solves the system for every value of every other
    parameter.  The first ``n_forall`` base parameters become universal, so
    x0 is a member of the AE (and, with all base parameters universal, the
    tolerable) solution set by construction."""
    m, n = base.m, base.n
    x0 = [Q(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)]
    center = [sum((a * x for a, x in zip(row, x0)), Q(0)) - bi
              for row, bi in zip(base.A0, base.b0)]
    spread = [Q(0)] * m
    for par in base.params:
        mid, rad = (par.lo + par.hi) / 2, (par.hi - par.lo) / 2
        for i in range(m):
            v = sum((a * x for a, x in zip(par.A[i], x0)), Q(0)) - par.b[i]
            center[i] += mid * v
            spread[i] += rad * abs(v)
    params = list(base.params)
    for i in range(m):
        d = [Q(0)] * m
        d[i] = Q(1)
        params.append(GenParam(f"r{i}", center[i] - spread[i] - 1,
                               center[i] + spread[i] + 1, _zero(m, n), d))
    s = GenSystem(m, n, base.A0, base.b0, params, frozenset(range(n_forall)), True)
    return s, x0


def readme_example() -> GenSystem:
    """The example system of the package README (one parameter, 2 x 2)."""
    A = _zero(2, 2)
    A[1][1] = Q(1)
    return GenSystem(2, 2, [[Q(1), Q(0)], [Q(1), Q(0)]], [Q(1), Q(0)],
                     [GenParam("p1", Q(0), Q(1), A, [Q(0), Q(1)])])


def box_point(rng, s: GenSystem) -> list[Q]:
    return [par.lo + Q(rng.randint(0, 8), 8) * (par.hi - par.lo) for par in s.params]


def random_point(rng, n, lo=-6, hi=6) -> list[Q]:
    return [Q(rng.randint(lo, hi), rng.choice((1, 2, 3))) for _ in range(n)]


def solved_point(rng, s: GenSystem, tries=8) -> Optional[list[Q]]:
    """Unique solution of A(p) x = b(p) at a random box point: a united member."""
    for _ in range(tries):
        p = box_point(rng, s)
        x = solve_unique(s.A_at(p), s.b_at(p))
        if x is not None:
            return x
    return None


def kernel_direction(rng, s: GenSystem, tries=4) -> Optional[list[Q]]:
    """A nonzero y with A(p*) y = 0 at some box point p*, so y is in the kernel.

    For a non-square matrix the null space at a random box point is used.
    When it is trivial, one parameter that enters the determinant affinely
    (one matrix row only) is moved inside its interval to where A(p*) turns
    singular, if such a value exists.
    """
    for _ in range(tries):
        p = box_point(rng, s)
        basis = null_space(s.A_at(p))
        if not basis and s.m == s.n:
            for k in rng.sample(range(len(s.params)), len(s.params)):
                par = s.params[k]
                if sum(any(x != 0 for x in row) for row in par.A) != 1:
                    continue
                p0, p1 = p[:], p[:]
                p0[k], p1[k] = Q(0), Q(1)
                d0, d1 = det(s.A_at(p0)), det(s.A_at(p1))
                if d1 == d0:
                    continue
                t = -d0 / (d1 - d0)
                if par.lo <= t <= par.hi:
                    p[k] = t
                    basis = null_space(s.A_at(p))
                    break
        if basis:
            y = [Q(0)] * s.n
            for v in basis:
                c = Q(rng.choice((-2, -1, 1, 2)))
                y = [a + c * b for a, b in zip(y, v)]
            if any(y):
                return integral(y)
    return None


def random_direction(rng, n) -> list[Q]:
    while True:
        y = [Q(rng.randint(-3, 3)) for _ in range(n)]
        if any(y):
            return y
