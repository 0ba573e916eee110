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

Every query builds one vertex LP (``_VertexLP``), which refuses bad
quantifiers and scales the whole parameter box to integers once; every
test reads those integers.  A point query (``member_ae``) first tries each
equation alone: with w = +-e_i the inequality needs no LP, only integer
sums, and the first equation that fails is the separator.  On a
first-class system that test decides the query; what it leaves goes to the
vertex LPs.  Kernel and strict kernel queries go to the vertex LPs directly.

The vertex LPs are built from integer residual rows (``residual_rows``):
equation i is the numerators of v^(0)_i, ..., v^(K)_i over one positive
denominator, and that denominator goes with its row into the simplex
tableau (``IntRowPolyhedron``).  Each vertex's right-hand side is one
integer dot of its scaled ends with the rows (``IntRhs``), so no residual,
bound or right-hand side is built as a Fraction on the way; only returned
points and certificates are.  A kernel query reads its rows as the same
sums with the rhs column weighted 0 (``kernel_rows``), with no homogenized
copy of the system.

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
vertex LP.

A caller that asks many bool questions of one system (the ray walks of a
decision, the cells of a raster) reads the system once (``Reading``) and
asks through one ``SeparatorPool``: the row test, and every separator an
earlier LP returned, settle the points they refute with no LP.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .exact import (FarkasCertificate, Infeasible, IntBox, IntRhs,
                    IntRowPolyhedron, LPResult, Q, Vector, _Record, basis_holds,
                    dot, doubled_mid_rad, lp_feasible, max_row_shift, scaled,
                    scaled_box, vec_add, vec_scale)
from .model import (ParametricSystem, QuantifierAssignment, TolerableSystem,
                    _system_at, box_vertices, kernel_rows, residual_rows,
                    residual_vectors)


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
    """A system read once in integers, for the many questions of one
    decision, raster or decomposition.

    The box is scaled once (``scaled_box``, or ``box`` when the caller has
    it): ``lo`` and ``hi`` over ``L``, and ``mids`` and ``rads`` are
    2 L mid_k and 2 L rad_k led by the constant term's 2 L and 0
    (``doubled_mid_rad``).  ``table`` is the system's ``int_coefficients``,
    read when first asked for: term k of row i at k w onwards, w = n + 1,
    over D_i.  Residual rows at a point and the system at a box point are
    then integer sums over that table, with no coefficient read again and
    no Fraction built.
    """

    def __init__(self, sys: ParametricSystem, box: Optional[IntBox] = None):
        self.sys, self.n, self.w = sys, sys.n, sys.n + 1
        self.box = box or _scaled_box(sys)
        self.lo, self.hi, self.L = self.box
        self.mids, self.rads = doubled_mid_rad(self.lo, self.hi, self.L)
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
        """[A(p) | b(p)] as integers (``int_system_at``) for
        p = coef[1:] / coef[0], coef[0] > 0."""
        return _system_at(self.table, coef, self.w)

    def spread(self, ints: list[int], j: int) -> int:
        """Column j of a table row summed with the radii: 2 L D_i times
        sum_k rad_k |coefficient|."""
        return sum(map(mul, self.rads, map(abs, ints[j::self.w])))


def _scaled_box(sys: ParametricSystem) -> IntBox:
    """The whole parameter box as integers over one scale L."""
    return scaled_box([par.interval.lo for par in sys.params],
                      [par.interval.hi for par in sys.params])


def _check_quantifiers(sys: ParametricSystem,
                       quant: QuantifierAssignment) -> None:
    """Refuse an assignment that is no partition of the parameters, or that
    has more than MAX_FORALL universal ones, before any row test or LP."""
    quant.validate_for(sys.K)
    if len(quant.forall_set) > MAX_FORALL:
        raise ValueError(f"more than {MAX_FORALL} universal parameters")


def _signed_rads(rads: list[int], forall: Iterable[int]) -> list[int]:
    """2 L rad_k (``doubled_mid_rad``) with the universal entries negated:
    the weights of |w.v^(k)| on the right of the characterization
    inequality."""
    rads = rads[:]
    for k in forall:
        rads[k + 1] = -rads[k + 1]
    return rads


def _failing_row(mids: list[int], rads: list[int],
                 rows: Iterable[tuple[list[int], int]]
                 ) -> Optional[tuple[int, int]]:
    """The first row t for which the characterization inequality fails,
    with w or -w, as (its index, the sign of mids.t), or None.  A row holds
    t_k = w.v^(k) for k = 0..K as integers over one positive denominator,
    so both sides times 2 L and that denominator are integer dots:
    |mids.t| > rads.|t|, rads signed by ``_signed_rads``.  With w = e_i,
    t is row i of the residual rows."""
    for i, (t, _) in enumerate(rows):
        c = sum(map(mul, mids, t))
        if abs(c) > sum(map(mul, rads, map(abs, t))):
            return i, -1 if c < 0 else 1
    return None


class _VertexLP:
    """The AE vertex LP over the residual rows of ``rows`` (``residual_rows``).
    It refuses bad quantifiers and more than MAX_FORALL universal parameters
    first, then scales the whole box to integers once (``scaled_box``):
    lo_k and hi_k over one scale L.  A caller that has that box (a
    ``Reading``'s) hands it on as ``box`` instead.

    Each vertex of the universal box asks for p_E in box_E with
    sum_{k in E} p_k v^(k) = rhs: the box is the bounds, the m rows E are
    shared, and only rhs_i = -(v^(0)_i + sum_{k universal} p_k v^(k)_i)
    changes.  Everything stays integers, as an ``IntRowPolyhedron`` takes
    them: row i over its denominator dens[i], and the existential bounds
    read off the scaled box.  The universal vertices are ``box_vertices``
    of the scaled ends, integers over L, so each rhs entry is one integer
    dot, handed on as an ``IntRhs`` over L, which ``basis_holds`` reads
    too; no vertex is built as Fractions.  The first vertex is the lower
    ends, which is all a witness reads of it.  Its cold LP is kept, so that
    ``strict`` after ``member`` starts from the LP that ``member`` solved
    there.
    """

    def __init__(self, sys: ParametricSystem, quant: QuantifierAssignment,
                 rows: list[tuple[list[int], int]],
                 box: Optional[IntBox] = None):
        _check_quantifiers(sys, quant)
        self.sys, self.rows = sys, rows
        self.forall = sorted(quant.forall_set)
        self.exists = exists = sorted(quant.exists_set)
        self.E = [[nums[k + 1] for k in exists] for nums, _ in rows]
        self.dens = [den for _, den in rows]
        self.lo, self.hi, self.L = box or _scaled_box(sys)
        # the existential bounds over the lcm of their own denominators,
        # L / g, which is the scale scaled_box gives them alone
        lo, hi = [self.lo[k] for k in exists], [self.hi[k] for k in exists]
        g = gcd(self.L, *lo, *hi)
        self.box = ([b // g for b in lo], [b // g for b in hi], self.L // g)
        self.cols = [[nums[k] for k in (0, *(k + 1 for k in self.forall))]
                     for nums, _ in rows]
        self.first: Optional[LPResult] = None

    def refute(self) -> Optional[FarkasCertificate]:
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
        mids, rads = doubled_mid_rad(self.lo, self.hi, self.L)
        failing = _failing_row(mids, _signed_rads(rads, self.forall),
                               self.rows)
        if failing is None:
            return None
        i, sign = failing
        nums, den = self.rows[i]
        zero = Q(0)
        w = [zero] * self.sys.m
        w[i] = Q(sign)
        u, v = [], []
        for k in self.exists:
            t = sign * nums[k + 1]
            u.append(Q(-t, den) if t < 0 else zero)
            v.append(Q(t, den) if t > 0 else zero)
        return FarkasCertificate(w, u, v)

    def vertices(self) -> Iterator[IntRhs]:
        """The rhs at each universal vertex, in ``box_vertices`` order over
        the scaled ends; rhs_i is rhs.nums[i] / (rhs.den * dens[i])."""
        for ints in box_vertices([(self.lo[k], self.hi[k]) for k in self.forall]):
            coef = [self.L, *ints]
            yield IntRhs([-sum(map(mul, coef, col)) for col in self.cols],
                         self.L)

    def _first(self, rhs: IntRhs) -> LPResult:
        """The cold LP at the first vertex, whose rhs is rhs: solved once
        and kept, so that ``strict`` after ``member`` starts from it."""
        if self.first is None:
            self.first = self._lp(rhs)
        return self.first

    def _lp(self, rhs: IntRhs) -> LPResult:
        """The cold LP at a vertex with right-hand side rhs."""
        return lp_feasible(IntRowPolyhedron(self.E, self.dens, rhs, self.box))

    def member(self) -> tuple[bool, Certificate]:
        """Is the rhs reached at every vertex?  See ``member_ae``."""
        for i, rhs in enumerate(self.vertices()):
            if i and basis_holds(res, rhs):
                continue
            res = self._lp(rhs) if i else self._first(rhs)
            if isinstance(res, Infeasible):
                return False, Certificate.separator(_separator_from_farkas(res))
        # the first vertex is the lower ends of the universal parameters
        witness = [par.interval.lo for par in self.sys.params]
        for k, pk in zip(self.exists, self.first.point):
            witness[k] = pk
        return True, Certificate.witness(witness)

    def strict(self) -> tuple[bool, Q]:
        """Is the rhs interior to the reach at every vertex?  See
        ``strict_kernel_member_ae``."""
        if not self.E:  # m == 0: no axis
            return True, Q(1)
        best: Optional[Q] = None
        for i, rhs in enumerate(self.vertices()):
            res = self._lp(rhs) if i else self._first(rhs)
            for e in range(len(self.E)):
                for sign in (1, -1):
                    status, val = max_row_shift(res, e, sign)
                    # infeasible: the axis is out of reach; unbounded cannot occur
                    if status != "optimal" or val <= 0:
                        return False, val if status == "optimal" else Q(0)
                    if best is None or val < best:
                        best = val
        return True, best


class SeparatorPool:
    """Bool membership of many points of one system under one quantifier
    assignment, from one ``Reading``, with the separators found so far.

    A point comes as its residual rows (``Reading.rows_at``, or any rows of
    that form) and is tested first in integers: each row alone, as
    ``_VertexLP.refute`` tries it (w = +-e_i), then each kept separator w,
    with both signs, in the characterization inequality.  A w that violates
    it refutes the point whatever the LP would say, so a refuted point asks
    no LP.  On a first-class system (``exact``), whose equations share no
    parameter, the row test decides both ways and no LP is asked at all;
    otherwise the vertex LPs decide what the pool leaves, and the w of each
    one that refutes its point is kept for the points after it.  Only bools
    come out, so no certificate is built for a refuted point.
    """

    def __init__(self, sys: ParametricSystem, quant: QuantifierAssignment,
                 reading: Reading, exact: bool):
        _check_quantifiers(sys, quant)
        self.sys, self.quant, self.reading, self.exact = \
            sys, quant, reading, exact
        self.mids = reading.mids
        self.rads = _signed_rads(reading.rads, quant.forall_set)
        # the kept separators as integers (``scaled``)
        self.ws: list[list[int]] = []

    def lp(self, rows: list[tuple[list[int], int]]) -> _VertexLP:
        """The vertex LP over rows, on the pool's reading of the box."""
        return _VertexLP(self.sys, self.quant, rows, self.reading.box)

    def refutes(self, rows: list[tuple[list[int], int]]) -> bool:
        """Does one row alone, or one kept separator, refute these rows?
        A separator w combines the rows over their lcm D: t_k is the sum
        of w_i times row i's k-th entry times D / D_i."""
        mids, rads = self.mids, self.rads
        if _failing_row(mids, rads, rows) is not None:
            return True
        if not self.ws:
            return False
        D = lcm(*[den for _, den in rows])
        cols = list(zip(*[[a * (D // den) for a in nums] for nums, den in rows]))
        return _failing_row(mids, rads, (
            ([sum(map(mul, w, col)) for col in cols], D)
            for w in self.ws)) is not None

    def holds(self, rows: list[tuple[list[int], int]]) -> bool:
        """Is the point of these residual rows a member?"""
        if self.refutes(rows):
            return False
        if self.exact:
            return True
        ok, cert = self.lp(rows).member()
        if not ok:
            # w refutes this point, which no kept separator does, so w is
            # none of them
            self.ws.append(scaled(cert.separator.w)[0])
        return ok


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
              x: Sequence[Q],
              reading: Optional[Reading] = None) -> tuple[bool, Certificate]:
    """Is x in the AE solution set for the given quantifier assignment?

    One vertex LP reads the box (``_VertexLP``), and each equation is
    tried alone first (``_VertexLP.refute``): an equation whose residual at
    the box midpoint exceeds its existential spread less its universal one
    cannot hold, and refutes x with w = +-e_i and no LP.  On a first-class
    system, whose equations share no parameter, that test is exact;
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

    A caller that has read the system (``Reading``) passes that reading,
    and x's rows are built from it: the same rational rows, so the same
    verdict and certificate.
    """
    if reading is None:
        lp = _VertexLP(sys, quant, residual_rows(sys, x))
    else:
        lp = _VertexLP(sys, quant, reading.rows_at(x), reading.box)
    sep = lp.refute()
    if sep is not None:
        return False, Certificate.separator(sep)
    return lp.member()


def member_ae_kernel(sys: ParametricSystem, quant: QuantifierAssignment,
                     y: Sequence[Q]) -> tuple[bool, Certificate]:
    """AE membership of the homogenized system."""
    return _VertexLP(sys, quant, kernel_rows(sys, y)).member()


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
    exactly when 0 is interior.
    """
    return _VertexLP(sys, quant, kernel_rows(sys, y)).strict()


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
