"""Exact rational linear algebra, LP feasibility with Farkas certificates,
and Fourier-Motzkin elimination.

Every input and output is a :class:`fractions.Fraction`, and the arithmetic
is exact throughout; there is no floating point anywhere in a decision path.
Inside, the hot loops are fraction-free: ``dot`` sums integer products over
one common denominator, and the simplex holds only integers.  Each tableau
row is a list of integers over one positive integer denominator, with the
basic value carried as one more column, and the bounds, nonbasic values and
step lengths are integers times the lcm of the bound denominators.

A :class:`Polyhedron` is {x : lo <= x <= hi, C x <= d, E x = f}: explicit
per-variable bounds (None is no bound) plus inequality and equality rows.
The LP solver is a phase-1/phase-2 primal simplex over bounded variables:
lo and hi are variable bounds rather than tableau rows, every row of C gets
one slack, and equalities stay equalities, so a membership LP ("a parameter
box plus equalities") has one tableau row per equation.  A bound on one
variable is always stated as lo/hi; a row of C with one nonzero entry is an
ordinary row.  Bland's rule makes it terminate, and an infeasible outcome
carries exact Farkas multipliers, read from the reduced costs, that a
validator can re-check.  The simplex starts from one form, the
:class:`IntRowPolyhedron`: the same set with every row of C and of E already
integers over a positive denominator, which is the form a tableau row keeps,
its right-hand sides as :class:`IntRhs` and its bounds as integers over one
scale; its result is the one the rational rows give.  A ``Polyhedron`` is
scaled to that form by one function, ``IntRowPolyhedron.of``, so the simplex
has one input path.  The phase-1 reduced costs are summed in one pass over a
common denominator and made primitive once.  Every outcome of
``lp_feasible`` keeps the simplex that solved it, at its final phase-1
tableau.  ``basis_holds`` re-checks a feasible one under a new equality
right-hand side with one integer dot per tableau row and no pivot, reading
B^-1 off the artificial columns.  ``max_row_shift`` resumes a copy of it:
an equality row's artificial column is B^-1 times that row's unit vector,
so freeing it turns the row into E_e x = f_e + t with t free, and phase 1
(usually a no-op) and then phase 2 maximize t on the same tableau.
Fourier-Motzkin elimination writes the bounds out as rows first and never
calls the simplex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Optional, Sequence, Union

Q = Fraction

Vector = list[Q]
Matrix = list[list[Q]]


def _check_entries(x: Sequence[Q], n: int, what: str) -> None:
    """Refuse x (a point, direction, window, witness or multipliers, as
    ``what`` names it) unless it has length n and every entry is an int or
    a Fraction, naming either: no float is read as its binary fraction."""
    if len(x) != n:
        raise ValueError(f"{what} has length {len(x)}, expected {n}")
    for v in x:
        if not isinstance(v, (int, Q)):
            raise ValueError(f"{what} entry {v!r} is not an int or a Fraction")


class _Record:
    """Base of the package's plain value classes: repr and equality over the
    fields named in ``_fields``, written as a dataclass writes them.  A
    subclass stores its fields in ``__slots__`` (a field that shares its
    name with a method lives in the instance dict instead) and checks them
    in its own ``__init__``; ``_fields`` leaves out what is not part of the
    value."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(getattr(self, name) for name in self._fields) == \
            tuple(getattr(other, name) for name in self._fields)


def zeros(n: int) -> Vector:
    return [Q(0)] * n


def dot(u: Sequence[Q], v: Sequence[Q]) -> Q:
    """Exact u.v: the nonzero products are summed as one integer numerator
    over the lcm of their denominators, and one Fraction is built at the end."""
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            an, ad = a.as_integer_ratio()
            bn, bd = b.as_integer_ratio()
            pd = ad * bd
            if den % pd:
                m = lcm(den, pd)
                num *= m // den
                den = m
            num += an * bn * (den // pd)
    return Q(num, den)


def vec_add(u: Sequence[Q], v: Sequence[Q]) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Q], v: Sequence[Q]) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Q, u: Sequence[Q]) -> Vector:
    return [c * a for a in u]


# ---------------------------------------------------------------------------
# Linear equation systems
# ---------------------------------------------------------------------------

class UniqueSolution(_Record):
    __slots__ = _fields = ("point",)

    def __init__(self, point: Vector):
        self.point = point


class AffineSolutionSet(_Record):
    __slots__ = _fields = ("point", "basis")

    def __init__(self, point: Vector, basis: list[Vector]):
        self.point = point
        self.basis = basis  # spans the null space exactly


class NoSolution(_Record):
    __slots__ = ()


LinSolveResult = Union[UniqueSolution, AffineSolutionSet, NoSolution]


def lin_solve(A: Sequence[Sequence[Q]], b: Sequence[Q]) -> LinSolveResult:
    """Solve A x = b by exact Gauss-Jordan elimination.

    Each row of [A | b] is kept as primitive integers (gcd 1), as a simplex
    tableau row is: a nonzero factor does not change an equation, so the
    elimination row_i <- pv * row_i - f * row_r needs no division, and only
    the read-out builds Fractions.  Integer entries
    (``membership._Query.system_at``) are taken as they are, with no
    Fraction built.  A pivot is the first row at or below r with a nonzero
    entry in column c; a factor keeps an entry nonzero, so the pivot
    columns, and the reduced echelon form read out at the end, are those of
    the rational elimination.
    """
    m = len(A)
    if len(b) != m:
        raise ValueError(f"dimension mismatch: {m} rows, {len(b)} rhs entries")
    n = len(A[0]) if m > 0 else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged matrix")

    aug = [_primitive_ints(scaled([*row, bi])[0]) for row, bi in zip(A, b)]
    pivots: list[int] = []  # pivot column per reduced row
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        prow = aug[r]
        pv = prow[c]
        for i, row in enumerate(aug):
            f = row[c]
            if i != r and f:
                aug[i] = _primitive_ints([x * pv - f * y if y else x * pv
                                          for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if aug[i][n] != 0:
            return NoSolution()

    # row i reads aug[i][c] x_c + sum over free columns = aug[i][n]
    point = zeros(n)
    for row, c in zip(aug, pivots):
        point[c] = Q(row[n], row[c])
    if len(pivots) == n:
        return UniqueSolution(point)

    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = zeros(n)
        v[fc] = Q(1)
        for row, c in zip(aug, pivots):
            v[c] = Q(-row[fc], row[c])
        basis.append(v)
    return AffineSolutionSet(point, basis)


def _primitive_ints(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries (a zero row stays)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


# ---------------------------------------------------------------------------
# Polyhedra
# ---------------------------------------------------------------------------

class Polyhedron(_Record):
    """{x : lo <= x <= hi, C x <= d, E x = f} in dimension ``dim``.

    ``lo`` and ``hi`` hold one entry per variable, and None means no bound
    on that side; left out, they default to no bounds at all.  Finite bounds
    on one variable must not cross (lo_j <= hi_j), as for an interval.
    """

    __slots__ = _fields = ("C", "d", "E", "f", "dim", "lo", "hi")

    def __init__(self, C: Matrix, d: Vector, E: Matrix, f: Vector, dim: int,
                 lo: Optional[list[Optional[Q]]] = None,
                 hi: Optional[list[Optional[Q]]] = None):
        if len(C) != len(d) or len(E) != len(f):
            raise ValueError("row counts do not match right-hand sides")
        for row in C:
            if len(row) != dim:
                raise ValueError("inequality row has wrong width")
        for row in E:
            if len(row) != dim:
                raise ValueError("equality row has wrong width")
        if lo is None:
            lo = [None] * dim
        if hi is None:
            hi = [None] * dim
        if len(lo) != dim or len(hi) != dim:
            raise ValueError("bounds have wrong length")
        if any(l is not None and h is not None and l > h
               for l, h in zip(lo, hi)):
            raise ValueError("a lower bound exceeds its upper bound")
        self.C, self.d, self.E, self.f, self.dim = C, d, E, f, dim
        self.lo, self.hi = lo, hi

    def contains(self, x: Sequence[Q]) -> bool:
        if len(x) != self.dim:
            raise ValueError("point has wrong dimension")
        return all((l is None or l <= xj) and (h is None or xj <= h)
                   for l, xj, h in zip(self.lo, x, self.hi)) and \
            all(dot(row, x) <= di for row, di in zip(self.C, self.d)) and \
            all(dot(row, x) == fi for row, fi in zip(self.E, self.f))


class IntRhs(_Record):
    """Right-hand sides of equations given as integer rows: equation i,
    (E[i] / dens[i]) x = f_i in rational form, reads E[i] x = nums[i] / den,
    so f_i = nums[i] / (den * dens[i]).  ``of`` builds it from rationals."""

    __slots__ = _fields = ("nums", "den")

    def __init__(self, nums: list[int], den: int):
        self.nums, self.den = nums, den

    @staticmethod
    def of(f: Sequence[Q], dens: Sequence[int]) -> "IntRhs":
        ratios = [fi.as_integer_ratio() for fi in f]
        den = lcm(*[d for _, d in ratios])
        return IntRhs([n * dr * (den // d) for (n, d), dr in zip(ratios, dens)],
                      den)


# lo and hi times a common scale, and that scale (see scaled_box)
IntBox = tuple[list[Optional[int]], list[Optional[int]], int]


def scaled_box(lo: Sequence[Optional[Q]], hi: Sequence[Optional[Q]]) -> IntBox:
    """Bounds (None is none) as integers over the lcm of their denominators:
    (lo times it, hi times it, the lcm)."""
    L = lcm(*[b.denominator for b in (*lo, *hi) if b is not None])
    return ([None if b is None else b.numerator * (L // b.denominator) for b in lo],
            [None if b is None else b.numerator * (L // b.denominator) for b in hi],
            L)


class IntRowPolyhedron(_Record):
    """{x : lo <= x <= hi, C x <= d, E x = f} with every row given as
    integers over its own positive denominator: inequality row i is C[i]
    over cdens[i], equality row i is E[i] over dens[i].

    This is the form a simplex tableau starts from, and the one form
    ``_BoundedSimplex`` reads: the right-hand sides are ``IntRhs``es over
    those rows (crhs for C, rhs for E), and the box is the bounds as
    integers over one scale, as ``scaled_box`` returns them.  So a caller
    that computes its rows, right-hand sides and box as integers hands them
    to ``lp_feasible`` with no Fraction in between; the result is the one
    ``lp_feasible`` gives for the ``Polyhedron`` of the same rational rows,
    and ``of`` is the one function that scales such a ``Polyhedron`` to this
    form.  The inequality rows are optional, as a membership vertex LP
    (bounds plus equations) has none.  ``d`` and ``f`` are the rational
    right-hand sides, and ``polyhedron()`` the whole Fraction view;
    ``contains`` decides a point with integer sums.  The shapes and bounds
    are checked as a ``Polyhedron`` checks them, the bounds on the scaled
    integers.
    """

    __slots__ = _fields = ("C", "cdens", "crhs", "E", "dens", "rhs", "box")

    def __init__(self, E: list[list[int]], dens: list[int], rhs: IntRhs,
                 box: IntBox, C: Optional[list[list[int]]] = None,
                 cdens: Optional[list[int]] = None,
                 crhs: Optional[IntRhs] = None):
        if C is None:
            C, cdens, crhs = [], [], _NO_ROWS
        lo, hi, _ = box
        if not (len(E) == len(dens) == len(rhs.nums)
                and len(C) == len(cdens) == len(crhs.nums)):
            raise ValueError("row counts do not match right-hand sides")
        if len(lo) != len(hi):
            raise ValueError("bounds have wrong length")
        if any(len(row) != len(lo) for row in E):
            raise ValueError("equality row has wrong width")
        if any(len(row) != len(lo) for row in C):
            raise ValueError("inequality row has wrong width")
        if rhs.den <= 0 or crhs.den <= 0 or \
                any(den <= 0 for den in (*dens, *cdens)):
            raise ValueError("a row denominator is not positive")
        if any(l is not None and h is not None and l > h
               for l, h in zip(lo, hi)):
            raise ValueError("a lower bound exceeds its upper bound")
        self.C, self.cdens, self.crhs = C, cdens, crhs
        self.E, self.dens, self.rhs, self.box = E, dens, rhs, box

    @staticmethod
    def of(P: Polyhedron) -> "IntRowPolyhedron":
        """P with each row as ``scaled`` gives it, its right-hand sides over
        those rows and its bounds over one scale."""
        C, cdens = _int_rows(P.C)
        E, dens = _int_rows(P.E)
        return IntRowPolyhedron(E, dens, IntRhs.of(P.f, dens),
                                scaled_box(P.lo, P.hi), C, cdens,
                                IntRhs.of(P.d, cdens))

    @property
    def d(self) -> Vector:
        return [Q(n, self.crhs.den * den)
                for n, den in zip(self.crhs.nums, self.cdens)]

    @property
    def f(self) -> Vector:
        return [Q(n, self.rhs.den * den) for n, den in zip(self.rhs.nums, self.dens)]

    @property
    def dim(self) -> int:
        return len(self.box[0])

    def polyhedron(self) -> Polyhedron:
        """The same set as a Fraction ``Polyhedron``."""
        lo, hi, L = self.box
        return Polyhedron(
            [[Q(a, den) for a in row] for row, den in zip(self.C, self.cdens)],
            self.d,
            [[Q(a, den) for a in row] for row, den in zip(self.E, self.dens)],
            self.f, self.dim, [None if b is None else Q(b, L) for b in lo],
            [None if b is None else Q(b, L) for b in hi])

    def contains(self, x: Sequence[Q]) -> bool:
        """x in P, with x scaled once to integers xn over xd: a row holds
        when the den of its ``IntRhs`` times row . xn compares with its
        num times xd, and a bound when bound * xd compares with xn_j times
        the box scale."""
        if len(x) != self.dim:
            raise ValueError("point has wrong dimension")
        xn, xd = scaled(x)
        lo, hi, L = self.box
        return all((l is None or l * xd <= v * L) and (h is None or v * L <= h * xd)
                   for l, v, h in zip(lo, xn, hi)) and \
            all(self.crhs.den * sum(map(mul, row, xn)) <= n * xd
                for row, n in zip(self.C, self.crhs.nums)) and \
            all(self.rhs.den * sum(map(mul, row, xn)) == n * xd
                for row, n in zip(self.E, self.rhs.nums))


# the right-hand side of no rows
_NO_ROWS = IntRhs([], 1)


def recession_cone(P: Union[Polyhedron, IntRowPolyhedron]
                   ) -> Union[Polyhedron, IntRowPolyhedron]:
    """{y : C y <= 0, E y = 0} with every finite bound of P made 0, in the
    form P is given in (an ``IntRowPolyhedron``'s right-hand sides and box
    over 1)."""
    if isinstance(P, IntRowPolyhedron):
        lo, hi, _ = P.box
        return IntRowPolyhedron(
            P.E, P.dens, IntRhs([0] * len(P.E), 1),
            ([None if l is None else 0 for l in lo],
             [None if h is None else 0 for h in hi], 1),
            P.C, P.cdens, IntRhs([0] * len(P.C), 1))
    return Polyhedron([row[:] for row in P.C], zeros(len(P.C)),
                      [row[:] for row in P.E], zeros(len(P.E)), P.dim,
                      [None if l is None else Q(0) for l in P.lo],
                      [None if h is None else Q(0) for h in P.hi])


# ---------------------------------------------------------------------------
# LP feasibility / optimization (bounded-variable simplex, Bland's rule)
# ---------------------------------------------------------------------------

class Feasible(_Record):
    """A feasible point.  ``basis`` is the simplex that found it, at its final
    tableau, kept for ``basis_holds`` and ``max_row_shift``; it is not part
    of the result's value."""

    __slots__ = ("point", "basis")
    _fields = ("point",)

    def __init__(self, point: Vector,
                 basis: Optional[_BoundedSimplex] = None):
        self.point = point
        self.basis = basis


class Infeasible(_Record):
    """Farkas refutation: ineq_mult >= 0, one signed bound_mult entry t_j per
    variable (t_j > 0 multiplies x_j <= hi_j, t_j < 0 multiplies x_j >= lo_j,
    and only a finite bound may carry one), and the combination

        sum_i ineq_mult[i] * C_i + sum_j eq_mult[j] * E_j + t = 0,
        sum_i ineq_mult[i] * d_i + sum_j eq_mult[j] * f_j
            + sum_{t_j > 0} t_j hi_j + sum_{t_j < 0} t_j lo_j < 0
    """

    __slots__ = ("ineq_mult", "eq_mult", "bound_mult", "basis")
    _fields = ("ineq_mult", "eq_mult", "bound_mult")

    def __init__(self, ineq_mult: Vector, eq_mult: Vector, bound_mult: Vector,
                 basis: Optional[_BoundedSimplex] = None):
        self.ineq_mult = ineq_mult
        self.eq_mult = eq_mult
        self.bound_mult = bound_mult
        self.basis = basis


LPResult = Union[Feasible, Infeasible]


def scaled(row: Sequence[Q]) -> tuple[list[int], int]:
    """A rational row as integer numerators over the lcm of its denominators
    (a primitive row: no prime divides that lcm and every numerator)."""
    den = lcm(*[a.denominator for a in row])
    return [a.numerator * (den // a.denominator) for a in row], den


def _int_rows(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """Each row of M as ``scaled`` gives it: (the integer rows, their
    denominators)."""
    pairs = [scaled(row) for row in M]
    return [row for row, _ in pairs], [den for _, den in pairs]


def _primitive(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide an integer row and its positive denominator by their gcd."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


class _BoundedSimplex:
    """Primal simplex over bounded variables, in Gauss-Jordan tableau form.

    It reads P as an ``IntRowPolyhedron``; a ``Polyhedron`` is scaled to one
    first (``IntRowPolyhedron.of``).  The bounds lo_j <= x_j <= hi_j
    (Dantzig's upper-bounding technique) are exactly P's box, and are not
    rows of the tableau.  Every row of C
    gets one slack s_i >= 0, and the rows of E stay equalities.  The columns
    are x, then the slacks, then one artificial per row that the start point
    violates and per equality row.  A nonbasic variable sits at a finite
    bound, or at 0 if it has none.

    Every quantity is an integer.  ``scale`` is the scale of P's box;
    ``lo``/``hi`` hold each bound times ``scale`` (None
    is infinite), and ``val`` each nonbasic value times ``scale`` (a basic
    variable's entry is stale).  The tableau is fraction-free: row r is the
    list of integers ``rows[r]`` over the positive integer ``dens[r]``, and
    its trailing entry u_r is the right-hand-side column plus the sum of
    column_k * val[k] over the nonbasic k, so the basic value of row r is
    -u_r / (dens[r] * scale).  The reduced costs are ``d`` over ``dden``.
    Each row, u_r included, is kept primitive (gcd 1) after every row
    operation.  A step length is an integer ratio in units of 1 / scale;
    only the readers of the result build Fractions.

    ``arts`` holds (artificial column, row of E, sign of the column) for
    each equality row.  In phase 1 an artificial carries a cost exactly when
    it has no upper bound.

    Bland's rule picks the entering variable and, among tied ratios, the
    leaving one, so the method terminates.  A variable with lo = hi never
    enters.  After a feasible phase 1 the artificials are fixed at 0 and
    phase 2 runs on the same tableau.
    """

    def __init__(self, P: Union[Polyhedron, IntRowPolyhedron]):
        if isinstance(P, Polyhedron):
            P = IntRowPolyhedron.of(P)
        n = self.n = P.dim
        C, cdens, crhs = P.C, P.cdens, P.crhs
        E, self.edens, self.erhs = P.E, P.dens, P.rhs
        lo, hi, L = P.box
        self.scale = L
        x = [l if l is not None else h if h is not None else 0
             for l, h in zip(lo, hi)]
        g = len(C)
        self.width = width = n + g

        def start_rows(rows: list[list[int]], dens: list[int], rhs: IntRhs,
                       slacks: bool) -> list[tuple[list[int], int, int]]:
            """(row / den) x (+ the row's slack) = num / (rd * den), which is
            row.x = num / rd, over x and the slacks, scaled by rd, and its
            u at the start point x: rd * row.x - num * scale."""
            rd = rhs.den
            out = []
            for r, (row, den, num) in enumerate(zip(rows, dens, rhs.nums)):
                cells = [a * rd for a in row] + [0] * g
                if slacks:
                    cells[n + r] = den * rd
                out.append((cells, den * rd, rd * sum(map(mul, row, x)) - num * L))
            return out

        start = start_rows(C, cdens, crhs, True) + \
            start_rows(E, self.edens, self.erhs, False)
        # a slack whose start value -u / (den * scale) is >= 0 starts basic;
        # every other row of C, and every equality row, gets an artificial
        narts = len(E) + sum(u > 0 for _, _, u in start[:g])
        self.basis: list[int] = list(range(n, width)) + [0] * len(E)
        self.val = x + [0] * (g + narts)
        self.lo = lo + [0] * (g + narts)
        self.hi = hi + [None] * g
        self.arts: list[tuple[int, int, int]] = []
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        for r, (row, den, u) in enumerate(start):
            row += [0] * narts + [u]
            if r >= g or u > 0:
                sign = 1 if u <= 0 else -1
                self.basis[r] = a = len(self.hi)
                row[a] = sign * den
                if sign < 0:
                    row = [-v for v in row]
                # an artificial whose row holds at the start stays at 0
                self.hi.append(None if u else 0)
                if r >= g:
                    self.arts.append((a, r - g, sign))
            row, den = _primitive(row, den)
            self.rows.append(row)
            self.dens.append(den)
        self._set_cost([0] * width + [int(h is None) for h in self.hi[width:]])
        self._solve()
        # a nonbasic artificial sits at its lower bound 0 (its upper bound is
        # 0 or none), so only a basic one can be nonzero
        self.feasible = not any(row[-1] for row, b in zip(self.rows, self.basis)
                                if b >= width)

    def copy(self) -> "_BoundedSimplex":
        """A copy to resume: a pivot or bound flip changes the tableau and
        the values in place, so those are copied and the rest is shared."""
        lp = object.__new__(_BoundedSimplex)
        lp.__dict__.update(self.__dict__)
        lp.rows = [row[:] for row in self.rows]
        lp.dens, lp.basis, lp.val = self.dens[:], self.basis[:], self.val[:]
        lp.lo, lp.hi = self.lo[:], self.hi[:]
        return lp

    def _set_cost(self, cost: list[int], cden: int = 1) -> None:
        """Reduced costs d = cost - cost_B T for the current basis, the cost
        given as integers over cden: one pass over the lcm D of the
        denominators of the rows with a basic cost, then made primitive."""
        basic = [(cost[b], r) for r, b in enumerate(self.basis) if cost[b]]
        D = lcm(*[self.dens[r] for _, r in basic])
        d = [c * D for c in cost]
        for c, r in basic:
            f = c * (D // self.dens[r])
            d = [x - f * y if y else x for x, y in zip(d, self.rows[r])]
        self.d, self.dden = _primitive(d, D * cden)

    def _pivot(self, r: int, j: int, limit: int) -> None:
        """Variable j enters the basis in row r, whose basic variable leaves
        at ``limit``.  First j leaves the nonbasic sum of every u and the
        leaving variable joins the one of row r, then the row operations
        carry u along with the other columns.  The rows are changed in
        place or replaced; a kept tableau is copied before it resumes."""
        rows, dens, xj = self.rows, self.dens, self.val[j]
        prow = rows[r]
        pden = prow[j]  # row r divided by its entry in column j
        prow[-1] += dens[r] * limit - pden * xj
        if pden < 0:
            prow, pden = [-x for x in prow], -pden
        prow, pden = _primitive(prow, pden)
        rows[r], dens[r] = prow, pden
        # row_i <- (row_i * pden - f * prow) / (den_i * pden), where f is the
        # numerator in column j and row_i's u first drops f * xj; most
        # pivot-row entries are 0, so skip them
        pxj = pden * xj
        for i, row in enumerate(rows):
            f = row[j]
            if i != r and f:
                new = [x * pden - f * y if y else x * pden
                       for x, y in zip(row, prow)]
                new[-1] -= f * pxj
                rows[i], dens[i] = _primitive(new, dens[i] * pden)
        f = self.d[j]
        if f:
            self.d, self.dden = _primitive(
                [x * pden - f * y if y else x * pden for x, y in zip(self.d, prow)],
                self.dden * pden)
        self.val[self.basis[r]] = limit
        self.basis[r] = j

    def _entering(self) -> Optional[tuple[int, int]]:
        """Bland: the lowest-index variable whose move lowers the cost."""
        lo, hi, val = self.lo, self.hi, self.val
        for j, dj in enumerate(self.d):
            if dj < 0 and (hi[j] is None or val[j] < hi[j]):
                return j, 1
            if dj > 0 and (lo[j] is None or val[j] > lo[j]):
                return j, -1
        return None

    def _solve(self) -> bool:
        """Minimize the cost; False when it is unbounded below."""
        lo, hi, val, basis = self.lo, self.hi, self.val, self.basis
        rows, dens = self.rows, self.dens
        while True:
            move = self._entering()
            if move is None:
                return True
            j, step = move
            # the entering variable's own bound flip, then each basic
            # variable; the step length so far is tn / td times 1 / scale,
            # with td > 0
            bound = hi[j] if step > 0 else lo[j]
            tn = td = leave = limit = None
            if bound is not None:
                tn, td = abs(bound - val[j]), 1
            for r, row in enumerate(rows):
                a = row[j]
                if not a:
                    continue
                rate = -step * a  # change of basic r per unit of t, times dens[r]
                b = basis[r]
                lim = hi[b] if rate > 0 else lo[b]
                if lim is None:
                    continue
                # basic r is -u / (dens[r] * scale) and reaches lim at
                # t = (lim * dens[r] + u) / rate
                rn, rd = lim * dens[r] + row[-1], rate
                if rd < 0:
                    rn, rd = -rn, -rd
                if tn is None or rn * td < tn * rd or \
                        (rn * td == tn * rd and leave is not None and b < basis[leave]):
                    tn, td, leave, limit = rn, rd, r, lim
            if tn is None:
                return False
            if leave is not None:
                self._pivot(leave, j, limit)
            elif tn:
                # a bound flip: u_r moves by row[j] times the change of x_j
                dx = step * tn
                val[j] += dx
                for row in rows:
                    if row[j]:
                        row[-1] += row[j] * dx

    def _value(self, k: int) -> tuple[int, int]:
        """x_k as an integer over a positive one."""
        if k in self.basis:
            r = self.basis.index(k)
            return -self.rows[r][-1], self.dens[r] * self.scale
        return self.val[k], self.scale

    def point(self) -> Vector:
        return [Q(*self._value(k)) for k in range(self.n)]

    def farkas(self) -> Infeasible:
        """Multipliers read from the phase-1 reduced costs, with this simplex
        kept as the result's ``basis``.

        Row i of the tableau has dual y_i = -d(slack i), or sign * (cost - d)
        from its artificial; the multiplier of the original row is -y_i.  A
        structural reduced cost d_j is cancelled by the bound x_j sits on,
        whose multiplier is -d_j.  Each multiplier is one Fraction built from
        the integer reduced costs over ``dden``.
        """
        n, d, dden = self.n, self.d, self.dden
        mu = [Q(sign * (d[a] - (self.hi[a] is None) * dden), dden)
              for a, _, sign in self.arts]
        return Infeasible([Q(x, dden) for x in d[n:self.width]], mu,
                          [Q(-x, dden) for x in d[:n]], self)

    def maximize(self, obj: Sequence[Q]) -> tuple[str, Optional[Q], Optional[Vector]]:
        """Phase 2: maximize obj.x with the artificials fixed at 0."""
        for a in range(self.width, len(self.val)):
            self.hi[a] = 0
        on, od = scaled(obj)
        self._set_cost([-c for c in on] + [0] * (len(self.val) - self.n), od)
        if not self._solve():
            return "unbounded", None, None
        x = self.point()
        return "optimal", dot(obj, x), x


def lp_feasible(P: Union[Polyhedron, IntRowPolyhedron]) -> LPResult:
    """Exact feasibility of P, with a Farkas certificate on failure.  Either
    result keeps the simplex that solved it as its ``basis``."""
    lp = _BoundedSimplex(P)
    return Feasible(lp.point(), lp) if lp.feasible else lp.farkas()


def basis_holds(res: Feasible, f: IntRhs) -> bool:
    """Re-check, with no pivot, the final basis of the LP that gave ``res``
    when the right-hand side of its equality rows becomes f, an ``IntRhs``
    over the LP's own row denominators (``edens``), as an
    ``IntRowPolyhedron`` gives it.

    The nonbasic variables keep their values and the basic ones move by
    B^-1 S (f - f0), where f0 is the old right-hand side and S holds the
    sign each equality row was scaled by at the start; B^-1 is read off the
    artificial columns, since every equality row has one.  With f - f0 as
    integers over dd, the step of row r is num / (den * dd) for one integer
    dot num, so the new basic value is (num * scale - u * dd) over
    den * dd * scale, compared with the integer bounds times den * dd; a
    basic artificial must stay at 0.  True means that the basis solution
    for f satisfies every bound, so the LP with right-hand side f is
    feasible too; False means only that this basis does not show it, and
    the caller solves that LP cold.
    """
    lp = res.basis
    if len(f.nums) != len(lp.edens):
        raise ValueError("right-hand side has wrong length")
    old = lp.erhs
    # f_e - f0_e = (n_e / a - o_e / b) / (g * dens_e) with a, b coprime
    g = gcd(f.den, old.den)
    a, b = f.den // g, old.den // g
    L = lcm(*lp.edens)
    dn = [(x * b - y * a) * (L // den)
          for x, y, den in zip(f.nums, old.nums, lp.edens)]
    dd = a * b * g * L
    cols = [(c, sign * dn[e]) for c, e, sign in lp.arts if dn[e]]
    for row, den, b in zip(lp.rows, lp.dens, lp.basis):
        num = sum(row[c] * s for c, s in cols)
        if not num:
            continue
        if b >= lp.width:
            return False
        v, e = num * lp.scale - row[-1] * dd, den * dd
        l, h = lp.lo[b], lp.hi[b]
        if (l is not None and v < l * e) or (h is not None and v > h * e):
            return False
    return True


def max_row_shift(res: LPResult, e: int, sign: int
                  ) -> tuple[str, Optional[Q]]:
    """Maximize t over the LP that gave ``res`` with its equality row e
    relaxed to E_e x = f_e + sign * t (sign is 1 or -1), t free.

    Row e of the start tableau reads S_e E_e x + a_e = S_e f_e, S_e the sign
    the row was scaled by, so the relaxed row is that row with
    a_e = -S_e * sign * t.  A copy of the kept tableau frees a_e: if another
    artificial is still positive, phase 1 resumes without a_e's cost; then
    the other artificials are fixed at 0 and phase 2 minimizes
    S_e * sign * a_e.  The optimum is that of the cold LP with a free column
    -sign * e_e, so t is the same exact value.  Returns ('infeasible', None),
    ('unbounded', None) or ('optimal', t); an e that is not an equality row
    of the LP, or a sign other than 1 and -1, is a ValueError.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, not {sign!r}")
    col, s = next(((c, sg * sign) for c, r, sg in res.basis.arts if r == e),
                  (None, None))
    if col is None:
        raise ValueError(f"{e!r} is not an equality row of the LP")
    lp = res.basis.copy()
    arts = range(lp.width, len(lp.val))
    lp.lo[col] = lp.hi[col] = None
    if any(lp._value(a)[0] for a in arts if a != col):
        # phase 1 again: each other artificial with no upper bound costs 1
        lp._set_cost([0] * lp.width + [int(a != col and lp.hi[a] is None)
                                       for a in arts])
        lp._solve()
        if any(lp._value(a)[0] for a in arts if a != col):
            return "infeasible", None
    for a in arts:
        if a != col:
            lp.hi[a] = 0
    cost = [0] * len(lp.val)
    cost[col] = s
    lp._set_cost(cost)
    if not lp._solve():
        return "unbounded", None
    num, den = lp._value(col)
    return "optimal", Q(-s * num, den)


def lp_maximize(P: Union[Polyhedron, IntRowPolyhedron], obj: Sequence[Q]):
    """Maximize obj.x over P.

    Returns ('infeasible', None, None), ('unbounded', None, None), or
    ('optimal', value, argmax).
    """
    if len(obj) != P.dim:
        raise ValueError("objective has wrong dimension")
    lp = _BoundedSimplex(P)
    if not lp.feasible:
        return "infeasible", None, None
    return lp.maximize(obj)


def check_infeasibility_certificate(P: Polyhedron, cert: Infeasible) -> bool:
    """Re-derive the exact contradiction 0 <= c with c < 0 from multipliers:
    wrong lengths are no refutation, and a float entry is refused."""
    t = cert.bound_mult
    if len(cert.ineq_mult) != len(P.C) or len(cert.eq_mult) != len(P.E) \
            or len(t) != P.dim:
        return False
    _check_entries((*cert.ineq_mult, *cert.eq_mult, *t),
                   len(P.C) + len(P.E) + P.dim, "multiplier")
    if any(l < 0 for l in cert.ineq_mult):
        return False
    ends = [h if tj > 0 else l if tj < 0 else Q(0)
            for tj, l, h in zip(t, P.lo, P.hi)]
    if None in ends:  # a multiplier on an infinite bound
        return False
    mult = list(cert.ineq_mult) + list(cert.eq_mult)
    rows = P.C + P.E
    return all(dot(mult, [row[j] for row in rows]) + t[j] == 0
               for j in range(P.dim)) \
        and dot(mult + list(t), P.d + P.f + ends) < 0


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

# The most candidate rows one FM projection may build, so that FM growth
# fails instead of exhausting time and memory: 8 rows in 4 variables reach it
FM_MAX_ROWS = 2 ** 18


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


def _bounds_as_rows(P: Polyhedron) -> Polyhedron:
    """P with every finite bound written as a row of C and no bounds left."""
    if all(b is None for b in P.lo + P.hi):
        return P
    C, d = [row[:] for row in P.C], P.d[:]
    for j, (l, h) in enumerate(zip(P.lo, P.hi)):
        for sign, end in ((1, h), (-1, l)):
            if end is not None:
                row = zeros(P.dim)
                row[j] = Q(sign)
                C.append(row)
                d.append(sign * end)
    return Polyhedron(C, d, P.E, P.f, P.dim)


def fm_eliminate(P: Polyhedron, var: int) -> Polyhedron:
    """Project P onto the coordinates other than ``var`` (exact); P's
    bounds become rows first.  Over FM_MAX_ROWS rows it raises ValueError."""
    if not 0 <= var < P.dim:
        raise ValueError(f"variable index {var} out of range for dim {P.dim}")
    P = _bounds_as_rows(P)

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
    if len(zero) + len(pos) * len(neg) > FM_MAX_ROWS:
        raise ValueError(f"Fourier-Motzkin projection exceeds {FM_MAX_ROWS} rows")
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

class FarkasCertificate(_Record):
    """Separating vector w plus complementary box multipliers u, v.

    u and v are indexed by the existential parameters; u_k * v_k = 0.  An
    entry with no numerator (a float) is refused.
    """

    __slots__ = _fields = ("w", "u", "v")

    def __init__(self, w: Vector, u: Vector, v: Vector):
        num = attrgetter("numerator")
        try:
            wn, un, vn = [*map(num, w)], [*map(num, u)], [*map(num, v)]
        except AttributeError:
            bad = next(e for e in (*w, *u, *v) if not hasattr(e, "numerator"))
            raise ValueError(f"certificate entry {bad!r} is not an int or a "
                             f"Fraction") from None
        if min(un + vn, default=0) < 0:
            raise ValueError("box multipliers must be nonnegative")
        if any(map(mul, un, vn)):
            raise ValueError("u and v must be complementary")
        if not any(wn):
            raise ValueError("separating vector must be nonzero")
        self.w, self.u, self.v = w, u, v
