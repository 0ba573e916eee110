"""Exact rational linear algebra, LP feasibility with Farkas certificates,
and Fourier-Motzkin elimination.

All arithmetic uses :class:`fractions.Fraction`; there is no floating point
anywhere in a decision path.  The LP solver is a phase-1/phase-2 simplex with
Bland's rule, so it always terminates and an infeasible outcome carries exact
Farkas multipliers that a validator can re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Q = Fraction

Vector = list[Q]
Matrix = list[list[Q]]


def qvec(items: Sequence) -> Vector:
    return [Q(x) for x in items]


def qmat(rows: Sequence[Sequence]) -> Matrix:
    return [[Q(x) for x in row] for row in rows]


def zeros(n: int) -> Vector:
    return [Q(0)] * n


def dot(u: Sequence[Q], v: Sequence[Q]) -> Q:
    return sum((a * b for a, b in zip(u, v)), Q(0))


def mat_vec(A: Sequence[Sequence[Q]], x: Sequence[Q]) -> Vector:
    return [dot(row, x) for row in A]


def vec_add(u: Sequence[Q], v: Sequence[Q]) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Q], v: Sequence[Q]) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Q, u: Sequence[Q]) -> Vector:
    return [c * a for a in u]


# ---------------------------------------------------------------------------
# Linear equation systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniqueSolution:
    point: Vector


@dataclass(frozen=True)
class AffineSolutionSet:
    point: Vector
    basis: list[Vector]  # spans the null space exactly


@dataclass(frozen=True)
class NoSolution:
    pass


LinSolveResult = Union[UniqueSolution, AffineSolutionSet, NoSolution]


def lin_solve(A: Sequence[Sequence[Q]], b: Sequence[Q]) -> LinSolveResult:
    """Solve A x = b by exact Gauss-Jordan elimination."""
    m = len(A)
    if len(b) != m:
        raise ValueError(f"dimension mismatch: {m} rows, {len(b)} rhs entries")
    n = len(A[0]) if m > 0 else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged matrix")

    aug = [[Q(x) for x in row] + [Q(b[i])] for i, row in enumerate(A)]
    pivots: list[int] = []  # pivot column per reduced row
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if aug[i][n] != 0:
            return NoSolution()

    point = zeros(n)
    for i, c in enumerate(pivots):
        point[c] = aug[i][n]
    if len(pivots) == n:
        return UniqueSolution(point)

    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = zeros(n)
        v[fc] = Q(1)
        for i, c in enumerate(pivots):
            v[c] = -aug[i][fc]
        basis.append(v)
    return AffineSolutionSet(point, basis)


# ---------------------------------------------------------------------------
# Polyhedra
# ---------------------------------------------------------------------------

@dataclass
class Polyhedron:
    """{x : C x <= d, E x = f} in dimension ``dim``."""

    C: Matrix
    d: Vector
    E: Matrix
    f: Vector
    dim: int

    def __post_init__(self) -> None:
        if len(self.C) != len(self.d) or len(self.E) != len(self.f):
            raise ValueError("row counts do not match right-hand sides")
        for row in self.C:
            if len(row) != self.dim:
                raise ValueError("inequality row has wrong width")
        for row in self.E:
            if len(row) != self.dim:
                raise ValueError("equality row has wrong width")

    @staticmethod
    def from_inequalities(C: Sequence[Sequence], d: Sequence, dim: int) -> "Polyhedron":
        return Polyhedron(qmat(C), qvec(d), [], [], dim)

    def contains(self, x: Sequence[Q]) -> bool:
        if len(x) != self.dim:
            raise ValueError("point has wrong dimension")
        return all(dot(row, x) <= di for row, di in zip(self.C, self.d)) and \
            all(dot(row, x) == fi for row, fi in zip(self.E, self.f))


def recession_cone(P: Polyhedron) -> Polyhedron:
    """{y : C y <= 0, E y = 0}; the rhs of P is simply zeroed."""
    return Polyhedron([row[:] for row in P.C], zeros(len(P.C)),
                      [row[:] for row in P.E], zeros(len(P.E)), P.dim)


# ---------------------------------------------------------------------------
# LP feasibility / optimization (phase-1/2 simplex, Bland's rule)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Feasible:
    point: Vector


@dataclass(frozen=True)
class Infeasible:
    """Farkas refutation: ineq_mult >= 0 and the combination

        sum_i ineq_mult[i] * C_i + sum_j eq_mult[j] * E_j = 0,
        sum_i ineq_mult[i] * d_i + sum_j eq_mult[j] * f_j < 0
    """

    ineq_mult: Vector
    eq_mult: Vector


LPResult = Union[Feasible, Infeasible]


class _Tableau:
    """Simplex tableau in Gauss-Jordan reduced form over exact rationals.

    min c.z  s.t.  M z = q, z >= 0, starting from an identity basis.
    Bland's rule on entering and leaving variables guarantees termination.
    """

    def __init__(self, M: Matrix, q: Vector, c: Vector, basis: list[int]):
        self.rows = [row[:] + [q[i]] for i, row in enumerate(M)]
        self.ncols = len(M[0]) if M else 0
        self.basis = basis[:]
        # reduced cost row and objective value
        self.cost = c[:] + [Q(0)]
        for i, bi in enumerate(self.basis):
            if self.cost[bi] != 0:
                f = self.cost[bi]
                self.cost = [x - f * y for x, y in zip(self.cost, self.rows[i])]

    def pivot(self, r: int, c: int) -> None:
        pv = self.rows[r][c]
        self.rows[r] = [x / pv for x in self.rows[r]]
        for i in range(len(self.rows)):
            if i != r and self.rows[i][c] != 0:
                f = self.rows[i][c]
                self.rows[i] = [x - f * y for x, y in zip(self.rows[i], self.rows[r])]
        if self.cost[c] != 0:
            f = self.cost[c]
            self.cost = [x - f * y for x, y in zip(self.cost, self.rows[r])]
        self.basis[r] = c

    def solve(self, allowed: Optional[set[int]] = None) -> str:
        """Run simplex to optimality.  Returns 'optimal' or 'unbounded'."""
        while True:
            entering = None
            for j in range(self.ncols):
                if allowed is not None and j not in allowed:
                    continue
                if self.cost[j] < 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)

    def objective(self) -> Q:
        return -self.cost[-1]

    def values(self) -> Vector:
        z = zeros(self.ncols)
        for i, bi in enumerate(self.basis):
            z[bi] = self.rows[i][-1]
        return z


class _StandardLP:
    """Inequality system G x <= h over free x, in phase-1 simplex form.

    Free variables are split x = u - v; each row gets a slack, and rows with
    negative rhs are negated and given an artificial variable.
    """

    def __init__(self, G: Matrix, h: Vector, n: int):
        self.n = n
        self.nrows = len(G)
        ncols = 2 * n + self.nrows  # u, v, slacks; artificials appended
        M: Matrix = []
        q: Vector = []
        self.flip: list[bool] = []
        basis: list[int] = []
        art_cols: list[int] = []
        for i, (row, hi) in enumerate(zip(G, h)):
            flip = hi < 0
            sgn = Q(-1) if flip else Q(1)
            mrow = [sgn * a for a in row] + [-sgn * a for a in row] + \
                [Q(0)] * self.nrows
            mrow[2 * n + i] = sgn
            self.flip.append(flip)
            M.append(mrow)
            q.append(sgn * hi)
            if flip:
                art_cols.append(len(M) - 1)
                basis.append(-1)  # patched below
            else:
                basis.append(2 * n + i)
        self.nart = len(art_cols)
        total = ncols + self.nart
        for j, i in enumerate(art_cols):
            for r in range(self.nrows):
                M[r].append(Q(1) if r == i else Q(0))
            basis[i] = ncols + j
        self.ncols_real = ncols
        c = zeros(total)
        for j in range(ncols, total):
            c[j] = Q(1)
        self.tab = _Tableau(M, q, c, basis)
        self.tab.solve()

    @property
    def feasible(self) -> bool:
        return self.tab.objective() == 0

    def point(self) -> Vector:
        z = self.tab.values()
        return [z[j] - z[self.n + j] for j in range(self.n)]

    def farkas(self) -> Vector:
        """Multipliers lam >= 0 with lam.G = 0 and lam.h < 0."""
        # Dual values from the reduced costs of the initial identity columns.
        lam = []
        for i in range(self.nrows):
            if self.flip[i]:
                # identity column was an artificial (cost 1), row was negated
                col = self._art_col(i)
                y_i = Q(1) - self.tab.cost[col]
                lam.append(y_i)
            else:
                col = self.ncols_real - self.nrows + i  # slack i
                y_i = -self.tab.cost[col]
                lam.append(-y_i)
        return lam

    def _art_col(self, row: int) -> int:
        j = self.ncols_real
        for i in range(self.nrows):
            if self.flip[i]:
                if i == row:
                    return j
                j += 1
        raise AssertionError("row has no artificial column")

    def drop_artificials(self) -> None:
        """After a feasible phase 1, pivot artificials out of the basis."""
        for r in range(self.nrows):
            if self.tab.basis[r] >= self.ncols_real:
                c = next((j for j in range(self.ncols_real)
                          if self.tab.rows[r][j] != 0), None)
                if c is not None:
                    self.tab.pivot(r, c)
                # else: redundant zero row; the artificial stays basic at 0

    def maximize(self, obj: Vector) -> tuple[str, Optional[Q], Optional[Vector]]:
        """Maximize obj.x over the feasible region (phase 2)."""
        self.drop_artificials()
        c = zeros(len(self.tab.cost) - 1)
        for j in range(self.n):
            c[j] = -obj[j]
            c[self.n + j] = obj[j]
        self.tab.cost = c + [Q(0)]
        for i, bi in enumerate(self.tab.basis):
            if self.tab.cost[bi] != 0:
                f = self.tab.cost[bi]
                self.tab.cost = [x - f * y
                                 for x, y in zip(self.tab.cost, self.tab.rows[i])]
        allowed = set(range(self.ncols_real))
        status = self.tab.solve(allowed)
        if status == "unbounded":
            return "unbounded", None, None
        # phase 2 minimizes -obj, so the maximum is the negated optimum
        return "optimal", -self.tab.objective(), self.point()


def _as_inequalities(P: Polyhedron) -> tuple[Matrix, Vector, int]:
    """Equalities expanded into inequality pairs (E<=f first, then -E<=-f)."""
    G = [row[:] for row in P.C]
    h = P.d[:]
    for row, fi in zip(P.E, P.f):
        G.append(row[:])
        h.append(fi)
    for row, fi in zip(P.E, P.f):
        G.append([-a for a in row])
        h.append(-fi)
    return G, h, len(P.C)


def lp_feasible(P: Polyhedron) -> LPResult:
    """Exact feasibility of P, with a Farkas certificate on failure."""
    if not P.C and not P.E:
        return Feasible(zeros(P.dim))
    G, h, n_ineq = _as_inequalities(P)
    lp = _StandardLP(G, h, P.dim)
    if lp.feasible:
        return Feasible(lp.point())
    lam = lp.farkas()
    ineq_mult = lam[:n_ineq]
    n_eq = len(P.E)
    eq_mult = [lam[n_ineq + j] - lam[n_ineq + n_eq + j] for j in range(n_eq)]
    return Infeasible(ineq_mult, eq_mult)


def lp_maximize(P: Polyhedron, obj: Sequence[Q]):
    """Maximize obj.x over P.

    Returns ('infeasible', None, None), ('unbounded', None, None), or
    ('optimal', value, argmax).
    """
    if len(obj) != P.dim:
        raise ValueError("objective has wrong dimension")
    if not P.C and not P.E:
        if all(c == 0 for c in obj):
            return "optimal", Q(0), zeros(P.dim)
        return "unbounded", None, None
    G, h, _ = _as_inequalities(P)
    lp = _StandardLP(G, h, P.dim)
    if not lp.feasible:
        return "infeasible", None, None
    return lp.maximize(list(obj))


def check_infeasibility_certificate(P: Polyhedron, cert: Infeasible) -> bool:
    """Re-derive the exact contradiction 0 <= c with c < 0 from multipliers."""
    if len(cert.ineq_mult) != len(P.C) or len(cert.eq_mult) != len(P.E):
        return False
    if any(l < 0 for l in cert.ineq_mult):
        return False
    combo = zeros(P.dim)
    rhs = Q(0)
    for l, row, di in zip(cert.ineq_mult, P.C, P.d):
        combo = vec_add(combo, vec_scale(l, row))
        rhs += l * di
    for mu, row, fi in zip(cert.eq_mult, P.E, P.f):
        combo = vec_add(combo, vec_scale(mu, row))
        rhs += mu * fi
    return all(c == 0 for c in combo) and rhs < 0


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def _normalize_row(row: Vector, rhs: Q) -> tuple[tuple[Q, ...], Q]:
    lead = next((a for a in row if a != 0), None)
    if lead is None:
        return tuple(row), rhs
    s = abs(lead)
    return tuple(a / s for a in row), rhs / s


def _dedup(C: Matrix, d: Vector) -> tuple[Matrix, Vector]:
    seen = set()
    C2, d2 = [], []
    for row, rhs in zip(C, d):
        key = _normalize_row(row, rhs)
        if key not in seen:
            seen.add(key)
            C2.append(row)
            d2.append(rhs)
    return C2, d2


def fm_eliminate(P: Polyhedron, var: int) -> Polyhedron:
    """Project P onto the coordinates other than ``var`` (exact)."""
    if not 0 <= var < P.dim:
        raise ValueError(f"variable index {var} out of range for dim {P.dim}")

    def drop(row: Sequence[Q]) -> Vector:
        return [a for j, a in enumerate(row) if j != var]

    # substitute out via an equality when possible
    pivot = next((i for i, row in enumerate(P.E) if row[var] != 0), None)
    if pivot is not None:
        prow, pf = P.E[pivot], P.f[pivot]
        pc = prow[var]
        C2, d2, E2, f2 = [], [], [], []
        for row, di in zip(P.C, P.d):
            if row[var] != 0:
                f = row[var] / pc
                row = vec_sub(row, vec_scale(f, prow))
                di = di - f * pf
            C2.append(drop(row))
            d2.append(di)
        for i, (row, fi) in enumerate(zip(P.E, P.f)):
            if i == pivot:
                continue
            if row[var] != 0:
                f = row[var] / pc
                row = vec_sub(row, vec_scale(f, prow))
                fi = fi - f * pf
            E2.append(drop(row))
            f2.append(fi)
        C2, d2 = _dedup(C2, d2)
        return Polyhedron(C2, d2, E2, f2, P.dim - 1)

    pos, neg, zero = [], [], []
    for row, di in zip(P.C, P.d):
        a = row[var]
        if a > 0:
            pos.append((row, di))
        elif a < 0:
            neg.append((row, di))
        else:
            zero.append((row, di))
    C2 = [drop(row) for row, _ in zero]
    d2 = [di for _, di in zero]
    for prow, pd in pos:
        for nrow, nd in neg:
            a, b = prow[var], -nrow[var]
            comb = vec_add(vec_scale(b, prow), vec_scale(a, nrow))
            C2.append(drop(comb))
            d2.append(b * pd + a * nd)
    C2, d2 = _dedup(C2, d2)
    E2 = [drop(row) for row in P.E]
    return Polyhedron(C2, d2, E2, P.f[:], P.dim - 1)


def fm_feasible(P: Polyhedron) -> bool:
    """Decide feasibility by eliminating every variable (independent of simplex)."""
    while P.dim > 0:
        P = fm_eliminate(P, P.dim - 1)
    # ground system: rows are 0 <= d_i and 0 = f_j
    return all(di >= 0 for di in P.d) and all(fi == 0 for fi in P.f)


# ---------------------------------------------------------------------------
# Farkas certificate for the membership characterizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FarkasCertificate:
    """Separating vector w plus complementary box multipliers u, v.

    u and v are indexed by the existential parameters; u_k * v_k = 0.
    """

    w: Vector
    u: Vector
    v: Vector

    def __post_init__(self) -> None:
        if any(a < 0 for a in self.u) or any(a < 0 for a in self.v):
            raise ValueError("box multipliers must be nonnegative")
        if any(a * b != 0 for a, b in zip(self.u, self.v)):
            raise ValueError("u and v must be complementary")
        if all(a == 0 for a in self.w):
            raise ValueError("separating vector must be nonzero")
