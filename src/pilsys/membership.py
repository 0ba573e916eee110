"""Membership tests for united, AE, and tolerable solution sets and their
kernels, with machine-checkable certificates.

There is one membership routine, for AE solution sets; the united set is the
AE set with no universal parameters, and the tolerable set is the AE set of
the combined system.  Kernels are the same routine on the homogenized system
(``member_ae_kernel``); for a tolerable set that is the test A(p) y = 0 at
every universal vertex.

A positive answer carries a witness parameter vector that re-substitutes to an
exact equality.  A negative answer carries a separating vector w for which the
characterization inequality

    w.(A(mid p) x - b(mid p))
        <= sum_{k existential} rad(p_k) |w.(A^(k) x - b^(k))|
         - sum_{k universal}   rad(p_k) |w.(A^(k) x - b^(k))|

fails strictly; validate_certificate re-checks that violation exactly.

Every question is asked of one query object (``_Query``), built from one
reading of the system (``Reading``: the whole parameter box scaled to
integers once, and the coefficients read once when first needed) and one
quantifier assignment, which it refuses first when it is bad.  The query
asks a point in one of four ways.  ``member`` (``member_ae``) first tries
each equation alone: with w = +-e_i the inequality needs no LP, only
integer sums, and the first equation that fails is the separator; what
it leaves goes to the vertex LPs.  ``refute`` is that test alone, and
``lp`` the vertex LP alone, which is what kernel and strict kernel queries
ask.  ``holds`` is for callers that ask many bool questions of one system
(the ray walks of a decision, the cells of a raster): the row test, and
every separator an earlier LP of the query returned, settle the points
they refute with no LP.

The row test decides a point both ways on decoupled rows
(``_Query.decoupled``: no existential parameter that is not thin meets two
of them, as on ordinary, class-C and first-class systems), and every
shortcut past an LP asks that one rule.

The vertex LPs are built from integer residual rows (``residual_rows``):
equation i is the numerators of v^(0)_i, ..., v^(K)_i over one positive
denominator, and that denominator goes with its row into the simplex
tableau (``IntRowPolyhedron``).  Each vertex's right-hand side is one
integer dot of its scaled ends with the rows (``IntRhs``), so no residual,
bound or right-hand side is built as a Fraction on the way; only returned
points and certificates are.  A kernel query reads its rows as the same
sums with the rhs column weighted 0 (``kernel_rows``), with no homogenized
copy of the system.  A one-shot query reads its rows straight from the
system; a caller that asks many points builds them from the reading's
table (``Reading.rows_at``), the same rational rows.

An AE query asks one LP per universal vertex, in ``box_vertices`` order
over the scaled ends; a later vertex first re-checks the last feasible
basis and is solved cold only when that fails (see member_ae), so every
certificate is that of a cold LP.  A witness takes its universal entries
from the first vertex, the lower ends, and its existential ones from that
vertex's LP point.  The strict kernel test asks the same vertex LP over
the existential box once per vertex and maximizes each axis reach eps on a
copy of its final tableau, with one equation relaxed by eps (see
strict_kernel_member_ae); ``decide_unbounded`` builds the homogenized
vertex LP once and starts the strict kernel from the kernel query's first
vertex LP.  On decoupled rows each row reaches one integer interval over
the box, and the axis reaches are read off those intervals with no LP.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .exact import (FarkasCertificate, Infeasible, IntRhs, IntRowPolyhedron,
                    LPResult, Q, Vector, _Record, basis_holds, dot, lp_feasible,
                    max_row_shift, scaled, scaled_box, vec_add, vec_scale)
from .model import (ParametricSystem, QuantifierAssignment, SystemClass,
                    TolerableSystem, box_vertices, classify, kernel_rows,
                    residual_rows, residual_vectors)


# Both AE routines enumerate the 2^|forall| universal vertices; above this
# many universal parameters they refuse before any LP.
MAX_FORALL = 20


class CertKind(Enum):
    WITNESS = "WITNESS"
    SEPARATOR = "SEPARATOR"


class Certificate(_Record):
    """A verdict's certificate; build one with ``Certificate.witness(p)`` or
    ``Certificate.separator(fc)``.  The fields live in the instance dict,
    where ``separator`` shadows the constructor of the same name."""

    _fields = ("kind", "witness_p", "separator")

    def __init__(self, kind: CertKind, witness_p: Optional[Vector] = None,
                 separator: Optional[FarkasCertificate] = None):
        self.kind = kind
        self.witness_p = witness_p
        self.separator = separator

    @staticmethod
    def witness(p: Vector) -> "Certificate":
        return Certificate(CertKind.WITNESS, witness_p=p)

    @staticmethod
    def separator(fc: FarkasCertificate) -> "Certificate":
        return Certificate(CertKind.SEPARATOR, separator=fc)


def _separator_from_farkas(res: Infeasible) -> FarkasCertificate:
    """Canonical complementary certificate (w, u, v) from a refuted vertex LP.

    w is the equality multipliers, and t_k = w.v^(k) splits into
    u_k = max(-t_k, 0) and v_k = max(t_k, 0).  The column of existential
    parameter k in the LP is v^(k), so the Farkas identity w.E + t = 0 gives
    t_k = -bound_mult_k exactly, and no residual is read again.  The sign
    of bound_mult_k is the sign of its numerator, an integer.
    """
    zero = Q(0)
    t = res.bound_mult
    return FarkasCertificate(res.eq_mult[:],
                             [tk if tk.numerator > 0 else zero for tk in t],
                             [-tk if tk.numerator < 0 else zero for tk in t])


class Reading:
    """A system read once in integers, for every question of one query,
    decision, raster or decomposition.

    The box is scaled once (``scaled_box``): ``lo`` and ``hi`` over ``L``,
    and ``mids`` and ``rads`` are 2 L mid_k = lo_k + hi_k and
    2 L rad_k = hi_k - lo_k, led by the constant term's 2 L and 0.
    ``table`` is the system's ``int_coefficients``, read when first asked
    for: term k of row i at k w onwards, w = n + 1, over D_i.  Residual
    rows at a point and the system at a box point are then integer sums
    over that table, with no coefficient read again and no Fraction built.
    """

    def __init__(self, sys: ParametricSystem):
        self.sys, self.n, self.w = sys, sys.n, sys.n + 1
        self.lo, self.hi, self.L = scaled_box(
            [par.interval.lo for par in sys.params],
            [par.interval.hi for par in sys.params])
        self.mids = [2 * self.L, *map(add, self.lo, self.hi)]
        self.rads = [0, *map(sub, self.hi, self.lo)]
        self._table: Optional[list[tuple[list[int], int]]] = None

    @property
    def table(self) -> list[tuple[list[int], int]]:
        if self._table is None:
            self._table = self.sys.int_coefficients()
        return self._table

    def rows_at(self, x: Sequence[Q],
                rhs_sign: int = -1) -> list[tuple[list[int], int]]:
        """``residual_rows`` at x (rhs_sign -1), or ``kernel_rows`` (0),
        from the table: the same rational rows, row i over xd D_i for x
        scaled to integers xn over xd."""
        xn, xd = scaled(x)
        xn.append(rhs_sign * xd)
        w = self.w
        return [([sum(map(mul, xn, ints[k:k + w]))
                  for k in range(0, len(ints), w)], D * xd)
                for ints, D in self.table]

    def system_at(self, coef: list[int]) -> tuple[list[list[int]], list[int]]:
        """A(p) and b(p) as integers for p = coef[1:] / coef[0], coef[0] > 0:
        row i of [A(p) | b(p)] times D_i and coef[0], the same equations
        as A(p) x = b(p), with no Fraction built."""
        w = self.w
        rows = [[sum(map(mul, coef, ints[j::w])) for j in range(w)]
                for ints, _ in self.table]
        return [row[:-1] for row in rows], [row[-1] for row in rows]

    def spread(self, ints: list[int], j: int) -> int:
        """Column j of a table row summed with the radii: 2 L D_i times
        sum_k rad_k |coefficient|."""
        return sum(map(mul, self.rads, map(abs, ints[j::self.w])))


def _failing_row(mids: list[int], rads: list[int],
                 rows: Iterable[tuple[list[int], int]]
                 ) -> Optional[tuple[int, int]]:
    """The first row t for which the characterization inequality fails,
    with w or -w, as (its index, the sign of mids.t), or None.  A row holds
    t_k = w.v^(k) for k = 0..K as integers over one positive denominator,
    so both sides times 2 L and that denominator are integer dots:
    |mids.t| > rads.|t|, rads those of ``_Query``.  With w = e_i, t is row
    i of the residual rows."""
    for i, (t, _) in enumerate(rows):
        c = sum(map(mul, mids, t))
        if abs(c) > sum(map(mul, rads, map(abs, t))):
            return i, -1 if c < 0 else 1
    return None


class _Query:
    """One system under one quantifier assignment, read from one
    ``Reading``: everything a membership question asks of that pair and
    not of its point.

    The assignment is refused here, once, when it is no partition of the
    parameters or has more than MAX_FORALL universal ones, before any row
    test or LP.  The query keeps the universal and existential indices in
    order, the reading's ``mids`` and its ``rads`` with the universal
    entries negated (the weights of |w.v^(k)| on the right of the
    characterization inequality), the existential box, the universal ends
    and the separators its LPs returned (``ws``).  The system's class
    (``classify`` under the assignment) is read when a decision first asks
    for it; no membership question reads it, since ``decoupled`` reads the
    point's rows.  A point comes as its rows, in the form of
    ``residual_rows`` (a kernel question's as ``kernel_rows``).
    """

    def __init__(self, reading: Reading, quant: QuantifierAssignment):
        quant.validate_for(reading.sys.K)
        if len(quant.forall_set) > MAX_FORALL:
            raise ValueError(f"more than {MAX_FORALL} universal parameters")
        self.reading, self.quant = reading, quant
        self.forall = sorted(quant.forall_set)
        self.exists = exists = sorted(quant.exists_set)
        self.mids = reading.mids
        self.rads = rads = reading.rads[:]
        for k in self.forall:
            rads[k + 1] = -rads[k + 1]
        lo, hi, L = reading.lo, reading.hi, reading.L
        # the existential bounds over the lcm of their own denominators,
        # L / g, which is the scale scaled_box gives them alone
        elo, ehi = [lo[k] for k in exists], [hi[k] for k in exists]
        g = gcd(L, *elo, *ehi)
        self.box = ([b // g for b in elo], [b // g for b in ehi], L // g)
        self.ends = [(lo[k], hi[k]) for k in self.forall]
        # the kept separators as integers (``scaled``)
        self.ws: list[list[int]] = []
        self._flags: Optional[SystemClass] = None

    @property
    def flags(self) -> SystemClass:
        if self._flags is None:
            self._flags = classify(self.reading.sys, self.quant)
        return self._flags

    def refute(self, rows: list[tuple[list[int], int]]
               ) -> Optional[FarkasCertificate]:
        """The first equation i that cannot hold alone, as the separator
        w = sign(c_i) e_i (+1 when c_i = 0), or None when every one can.

        With w = +-e_i the characterization inequality reads, for equation
        i, |c_i| <= sum_{k existential} rad_k |v^(k)_i| - sum_{k universal}
        rad_k |v^(k)_i|, c the residual at the box midpoint.  Row i is
        v^(0)_i, ..., v^(K)_i over D_i, and 2 L mid_k = lo_k + hi_k and
        2 L rad_k = hi_k - lo_k, so both sides times 2 L D_i are integer
        dots.  u and v split t_k = w.v^(k) over the existential k as
        ``_separator_from_farkas`` does; only they and w are Fractions.
        """
        failing = _failing_row(self.mids, self.rads, rows)
        if failing is None:
            return None
        i, sign = failing
        nums, den = rows[i]
        zero = Q(0)
        w = [zero] * len(rows)
        w[i] = Q(sign)
        u, v = [], []
        for k in self.exists:
            t = sign * nums[k + 1]
            u.append(Q(-t, den) if t < 0 else zero)
            v.append(Q(t, den) if t > 0 else zero)
        return FarkasCertificate(w, u, v)

    def lp(self, rows: list[tuple[list[int], int]]) -> _VertexLP:
        """The vertex LP over rows."""
        return _VertexLP(self, rows)

    def decoupled(self, rows: list[tuple[list[int], int]]) -> bool:
        """Does every existential parameter that is not thin meet at most
        one of the rows?  Then the row test decides the point both ways: at
        each universal vertex the rows are independent (a thin parameter is
        a constant), and the largest |c_i| over the universal box is
        |c_i(mid)| + sum_{k universal} rad_k |v^(k)_i|, which is
        ``_failing_row`` with the universal radii negated."""
        return all(sum(1 for nums, _ in rows if nums[k + 1]) < 2
                   for k in self.exists if self.rads[k + 1])

    def member(self, rows: list[tuple[list[int], int]]
               ) -> tuple[bool, Certificate]:
        """Is the point of these rows a member?  See ``member_ae``."""
        sep = self.refute(rows)
        if sep is not None:
            return False, Certificate.separator(sep)
        lp = self.lp(rows)
        if self.forall and self.decoupled(rows):
            return True, Certificate.witness(lp.witness())
        return lp.member()

    def holds(self, rows: list[tuple[list[int], int]]) -> bool:
        """Is the point of these rows a member?  Only the bool comes out,
        so the point is tested first in integers: each row alone, as
        ``refute`` tries it, which on decoupled rows (``decoupled``)
        decides both ways, then each kept separator w, with both signs, in
        the characterization inequality.  A w that violates it refutes the
        point whatever the LP would say, so a refuted point asks no LP.
        The vertex LPs decide what is left, and the w of each one that
        refutes its point is kept for the points after it.  A separator w
        combines the rows over their lcm D: t_k is the sum of w_i times
        row i's k-th entry times D / D_i."""
        mids, rads = self.mids, self.rads
        if _failing_row(mids, rads, rows) is not None:
            return False
        if self.decoupled(rows):
            return True
        if self.ws:
            D = lcm(*[den for _, den in rows])
            cols = list(zip(*[[a * (D // den) for a in nums]
                              for nums, den in rows]))
            if _failing_row(mids, rads, (
                    ([sum(map(mul, w, col)) for col in cols], D)
                    for w in self.ws)) is not None:
                return False
        ok, cert = self.lp(rows).member()
        if not ok:
            # w refutes this point, which no kept separator does, so w is
            # none of them
            self.ws.append(scaled(cert.separator.w)[0])
        return ok


class _VertexLP:
    """The AE vertex LP of a query over the rows of one point (the form of
    ``residual_rows``): the query owns the box and the quantifiers, and
    this keeps only what depends on the rows.

    Each vertex of the universal box asks for p_E in box_E with
    sum_{k in E} p_k v^(k) = rhs: the box is the bounds, the m rows E are
    shared, and only rhs_i = -(v^(0)_i + sum_{k universal} p_k v^(k)_i)
    changes.  Everything stays integers, as an ``IntRowPolyhedron`` takes
    them: row i over its denominator dens[i], and the existential bounds
    read off the query's box.  The universal vertices are ``box_vertices``
    of the query's integer ends over L, so each rhs entry is one integer
    dot, handed on as an ``IntRhs`` over L, which ``basis_holds`` reads
    too; no vertex is built as Fractions.  The first vertex is the lower
    ends, which is all a witness reads of it.  Its cold LP is solved once
    (``first``), so ``member``, ``strict`` and ``witness`` share it, in
    whatever order they are asked.
    """

    def __init__(self, query: _Query, rows: list[tuple[list[int], int]]):
        self.query, self.rows = query, rows
        self.E = [[nums[k + 1] for k in query.exists] for nums, _ in rows]
        self.dens = [den for _, den in rows]
        self.cols = [[nums[k] for k in (0, *(k + 1 for k in query.forall))]
                     for nums, _ in rows]

    def vertices(self) -> Iterator[IntRhs]:
        """The rhs at each universal vertex, in ``box_vertices`` order over
        the scaled ends; rhs_i is rhs.nums[i] / (rhs.den * dens[i])."""
        L = self.query.reading.L
        for ints in box_vertices(self.query.ends):
            coef = [L, *ints]
            yield IntRhs([-sum(map(mul, coef, col)) for col in self.cols], L)

    @cached_property
    def first(self) -> LPResult:
        """The cold LP at the first vertex, solved once for ``member``,
        ``strict`` and ``witness``, whichever asks first."""
        return self._lp(next(self.vertices()))

    def _lp(self, rhs: IntRhs) -> LPResult:
        """The cold LP at a vertex with right-hand side rhs."""
        return lp_feasible(IntRowPolyhedron(self.E, self.dens, rhs,
                                            self.query.box))

    def member(self) -> tuple[bool, Certificate]:
        """Is the rhs reached at every vertex?  See ``member_ae``."""
        for i, rhs in enumerate(self.vertices()):
            if i and basis_holds(res, rhs):
                continue
            res = self._lp(rhs) if i else self.first
            if isinstance(res, Infeasible):
                return False, Certificate.separator(_separator_from_farkas(res))
        return True, Certificate.witness(self.witness())

    def separator(self) -> Optional[Certificate]:
        """The separator that refutes the rows' point, or None for a
        member.  On decoupled rows (``_Query.decoupled``) the row test is
        exact, so a point it passes is a member with no LP (``witness``
        solves the first vertex if it is asked for); any other point asks
        ``member``, so a refuted point gets the LP's separator."""
        if self.query.decoupled(self.rows) and _failing_row(
                self.query.mids, self.query.rads, self.rows) is None:
            return None
        ok, cert = self.member()
        return None if ok else cert

    def witness(self) -> Vector:
        """The witness of a member: the universal lower ends, which are the
        first vertex, and the existential values of that vertex's cold LP
        (``first``)."""
        witness = [par.interval.lo for par in self.query.reading.sys.params]
        for k, pk in zip(self.query.exists, self.first.point):
            witness[k] = pk
        return witness

    def strict(self) -> tuple[bool, Q]:
        """Is the rhs interior to the reach at every vertex?  See
        ``strict_kernel_member_ae``."""
        if not self.E:  # m == 0: no axis
            return True, Q(1)
        if self.query.decoupled(self.rows):
            return self._strict_decoupled()
        best: Optional[Q] = None
        for i, rhs in enumerate(self.vertices()):
            res = self._lp(rhs) if i else self.first
            for e in range(len(self.E)):
                for sign in (1, -1):
                    status, val = max_row_shift(res, e, sign)
                    # infeasible: the axis is out of reach; unbounded cannot occur
                    if status != "optimal" or val <= 0:
                        return False, val if status == "optimal" else Q(0)
                    if best is None or val < best:
                        best = val
        return True, best

    def _strict_decoupled(self) -> tuple[bool, Q]:
        """``strict`` on decoupled rows, in integers and with no LP.

        Row i reaches [zlo_i, zhi_i] over box_E, as integers over L D_i like
        the rhs (the box is over L / g, so each end is times g).  With row e
        relaxed, the other rows hold or not on their own, so axis (e, +1)
        is infeasible when another row misses its rhs, and otherwise its
        optimum is zhi_e - rhs_e; axis (e, -1) is rhs_e - zlo_e.  These are
        the optima ``max_row_shift`` finds, taken in the same order, with
        the same failure values."""
        lo, hi, Lb = self.query.box
        L = self.query.reading.L
        g = L // Lb
        reach = []
        for row in self.E:
            ends = [(a * l, a * h) for a, l, h in zip(row, lo, hi)]
            reach.append((g * sum(map(min, ends)), g * sum(map(max, ends))))
        best = None  # (num, den)
        for rhs in self.vertices():
            shifts = [(zhi - f, f - zlo)
                      for (zlo, zhi), f in zip(reach, rhs.nums)]
            missed = [i for i, (up, down) in enumerate(shifts)
                      if up < 0 or down < 0]
            for e, den in enumerate(self.dens):
                if len(missed) > 1 or (missed and missed[0] != e):
                    return False, Q(0)
                den *= L
                for val in shifts[e]:
                    if val <= 0:
                        return False, Q(val, den)
                    if best is None or val * best[1] < best[0] * den:
                        best = (val, den)
        return True, Q(*best)


def _mid_residual(sys: ParametricSystem, residuals: list[Vector]) -> Vector:
    """v^(0) + sum_k mid(p_k) v^(k): the residual at the box midpoint."""
    mid = residuals[0]
    for par, v in zip(sys.params, residuals[1:]):
        mid = vec_add(mid, vec_scale(par.interval.mid, v))
    return mid


def member_united(sys: ParametricSystem, x: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is x in the united solution set?"""
    return member_ae(sys, QuantifierAssignment.all_exists(sys.K), x)


def member_kernel(sys: ParametricSystem, y: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is y in the united kernel, i.e. A(p) y = 0 for some admissible p?"""
    return member_ae_kernel(sys, QuantifierAssignment.all_exists(sys.K), y)


def member_ae(sys: ParametricSystem, quant: QuantifierAssignment,
              x: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is x in the AE solution set for the given quantifier assignment?

    One query reads the box and refuses bad quantifiers (``_Query``), and
    each equation is tried alone first (``_Query.refute``): an equation
    whose residual at the box midpoint exceeds its existential spread less
    its universal one cannot hold, and refutes x with w = +-e_i and no LP.
    On decoupled rows (``_Query.decoupled``: no existential parameter that
    is not thin meets two of x's rows) that test is exact, and a member
    takes the witness of the first universal vertex alone, one LP;
    otherwise the vertex LPs decide what it leaves.

    The admissible universal parameters form a convex set (projection of a
    polyhedron), so containment of the whole universal box is decided at its
    vertices.  The vertex enumeration is capped at MAX_FORALL universal
    parameters, and that refusal comes before the row test.

    The first vertex is solved cold and gives the witness.  A later vertex
    changes only the right-hand side, so the last feasible basis is
    re-checked there first (``basis_holds``); only when a basic value leaves
    its bounds is that vertex solved cold, and only a cold LP gives a
    separator.  So a verdict the row test leaves, and its certificate, are
    those of one cold LP per vertex.
    """
    return _Query(Reading(sys), quant).member(residual_rows(sys, x))


def member_ae_kernel(sys: ParametricSystem, quant: QuantifierAssignment,
                     y: Sequence[Q]) -> tuple[bool, Certificate]:
    """AE membership of the homogenized system, decided by the vertex LPs
    alone."""
    return _Query(Reading(sys), quant).lp(kernel_rows(sys, y)).member()


def member_tolerable(tsys: TolerableSystem,
                     x: Sequence[Q]) -> tuple[bool, Certificate]:
    """Is x in the tolerable solution set?"""
    combined, quant = tsys.combined()
    return member_ae(combined, quant, x)


def strict_kernel_member(sys: ParametricSystem,
                         y: Sequence[Q]) -> tuple[bool, Q]:
    """Does 0 lie in the interior of the zonotope Z(y) = {A(p) y : p in box}?"""
    return strict_kernel_member_ae(sys, QuantifierAssignment.all_exists(sys.K), y)


def strict_kernel_member_ae(sys: ParametricSystem, quant: QuantifierAssignment,
                            y: Sequence[Q]) -> tuple[bool, Q]:
    """Strict form of AE kernel membership.

    The characterization inequality must hold strictly for every nonzero w,
    which is equivalent to 0 lying at every universal vertex in the interior
    of {sum_{k in E} p_k v^(k) - rhs : p_E in box_E}, v^(k) = A^(k) y; the
    rows, box and rhs are those of ``member_ae`` on the homogenized system,
    capped alike.  Each vertex takes one phase 1 on those rows, and then
    2m continuations of its final tableau: for each coordinate direction
    +-e_i, equation i becomes E_i p = rhs_i +- eps with eps free, and eps is
    maximized (``max_row_shift``), which is the cold LP with one more free
    column -+e_i.  The minimum of the maxima is returned; it is positive
    exactly when 0 is interior.  When every existential parameter meets at
    most one row, each row's reach is one interval over the box, and the
    same maxima and failure values are read off those intervals in
    integers with no LP.
    """
    return _Query(Reading(sys), quant).lp(kernel_rows(sys, y)).strict()


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
    lhs = dot(w, _mid_residual(sys, residuals))
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
