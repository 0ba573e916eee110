"""Decision cascade for unbounded directions of an AE solution set.

The stages of ``decide_unbounded``, in order:

(i)   kernel (THM2): AE kernel membership is necessary; a separator of the
      homogenized system certifies NO.  On decoupled kernel rows (every
      existential parameter that is not thin meets at most one of them,
      ``_Query.decoupled``) the row test is exact, and a direction that
      passes it is in the kernel with no LP; the witness LP then runs only
      when (v) reads the kernel witness.
(ii)  tolerable form (THM7): with universal parameters and existential ones
      that touch only b, the set is a polyhedron whose recession cone is the
      AE kernel, so a member base point certifies YES.
(iii) strict kernel (THM3): sufficient, with an explicit threshold point;
      on such decoupled rows the axis reaches are integer intervals, so the
      strict kernel asks no LP either, and THM3's bound R is one integer
      sum.
(iv)  ordinary and class-C united systems (PROP1/PROP2): the kernel pieces
      of nonempty solution pieces characterize unboundedness.
(v)   probing: everything else is probed along the ray and reported honestly
      as UNKNOWN with the probe trace as evidence.  The first base point
      solves A(p) x = b(p) at the kernel witness p of (i), where A(p) y = 0,
      so when that system is consistent the whole ray solves it at p; with
      no universal parameters every point of the ray is then a member, and
      its exhausted report is returned with no walk and no LP.  With
      universal ones p holds the first universal vertex only, so that ray
      is walked.  Grid points follow only if that walk exits or there is
      no such point.  A base point is a member when it is drawn (solved at
      a box point, and asked of the query with universal parameters), so
      the walk does not ask alpha = 0 again.

Every stage asks one query object (``membership._Query``), built from one
reading of the system (``Reading``) and the decision's quantifier
assignment: the box is scaled once, the system is classified when a stage
first reads its class, and the ``int_coefficients`` table is read when a
stage first needs it, the sign pieces of (iv), THM7's base point or the
probes of (v).  Base points are solved from that table and every ray's
rows are built from it.  Base points and ray points are asked as bools
through the query (``_Query.holds``): a point that a row alone, or the
separator of an earlier LP of the decision, refutes is settled in integers
with no LP, and a point whose rows are decoupled asks no LP either way.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .exact import (AffineSolutionSet, Q, UniqueSolution, Vector, _Record,
                    lin_solve, scaled, vec_scale, zeros)
from .membership import Reading, _Query
from .membership import member_kernel  # noqa: F401 -- re-exported
from .model import (CLASS_C, ORDINARY, TOLERABLE_FORM, ParametricSystem,
                    QuantifierAssignment, box_vertices, kernel_rows)


# The probing fallback of decide_unbounded tests alpha up to 2^PROBE_DOUBLINGS.
PROBE_DOUBLINGS = 20
# alpha = 0, 1, 2, 4, ..., 2^PROBE_DOUBLINGS, built once: every report's
# alphas_tested holds these same Fractions
_ALPHAS = [Q(0)] + [Q(2) ** i for i in range(PROBE_DOUBLINGS + 1)]


class Status(Enum):
    CERTIFIED_YES = "CERTIFIED_YES"
    CERTIFIED_NO = "CERTIFIED_NO"
    UNKNOWN = "UNKNOWN"


class Rule(Enum):
    THM2 = "THM2"
    THM3 = "THM3"
    PROP1 = "PROP1"
    PROP2 = "PROP2"
    THM7 = "THM7"
    PROBE = "PROBE"


class ProbeReport(_Record):
    __slots__ = _fields = ("base_point", "direction", "alphas_tested",
                           "first_exit", "exhausted")

    def __init__(self, base_point: Vector, direction: Vector,
                 alphas_tested: list[Q], first_exit: Optional[Q],
                 exhausted: bool):
        self.base_point = base_point
        self.direction = direction
        self.alphas_tested = alphas_tested
        self.first_exit = first_exit
        self.exhausted = exhausted


class UnboundedVerdict(_Record):
    __slots__ = _fields = ("status", "rule", "evidence", "detail")

    def __init__(self, status: Status, rule: Rule, evidence: object,
                 detail: str = ""):
        self.status = status
        self.rule = rule
        # Certificate | ProbeReport | list[ProbeReport] | piece ref
        self.evidence = evidence
        self.detail = detail


def find_base_points(sys: ParametricSystem,
                     quant: Optional[QuantifierAssignment] = None,
                     budget: int = 16, seed: int = 0) -> list[Vector]:
    """Member points found by solving the system at sampled parameter values.

    Candidates come from the box midpoint, box vertices, and seeded random
    box points; each is kept only if it passes the exact membership test.
    At most budget points are returned.  Deterministic for a fixed seed.
    No assignment means the united set.  These are the grid points only:
    the kernel witness that ``decide_unbounded`` probes first is not one of
    them.
    Vertices and draws take the universal parameters first, so the samples
    do not depend on how a file interleaves the two quantifier blocks.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    return list(_base_points(_Query(Reading(sys), quant), budget, seed))


def _base_points(query: _Query, budget: int, seed: int) -> Iterator[Vector]:
    """The points of ``find_base_points`` for the query's system and
    assignment, in order, each found only when the caller asks for it: a
    candidate is drawn and solved on demand.

    Every candidate lies on the grid lo + i/8 (hi - lo), i = 0..8, of each
    parameter (one point on a thin one), and is drawn as its grid indices
    i, with 0 on a thin parameter: the midpoint is i = 4, a vertex takes
    0 or 8, and a random draw takes each i from the seeded generator.  A
    tuple of indices already tried is skipped, and the search ends once
    every grid point has been tried.  With the query's reading of the box
    as lo and hi over L, p_k = (8 lo_k + i_k (hi_k - lo_k)) / 8 L, so a
    candidate is solved from the integer rows of [A(p) | b(p)] over the
    reading's table (``Reading.system_at``), with no Fraction p built."""
    reading = query.reading
    order = query.forall + query.exists
    lo, hi, L = reading.lo, reading.hi, reading.L
    top = [0 if l == h else 8 for l, h in zip(lo, hi)]

    def placed(indices: Sequence[int]) -> tuple[int, ...]:
        key = [0] * len(order)
        for k, i in zip(order, indices):
            key[k] = min(i, top[k])
        return tuple(key)

    def draws() -> Iterator[tuple[int, ...]]:
        import random
        rng = random.Random(seed)
        for _ in range(budget):
            yield placed([rng.randint(0, 8) for _ in order])

    samples = itertools.chain(
        [placed([4] * len(order))],
        map(placed, itertools.islice(
            box_vertices([(0, top[k]) for k in order]), budget)),
        draws())
    grid = prod(t + 1 for t in top)
    tried, seen = set(), set()
    for key in samples:
        if len(seen) >= budget or len(tried) == grid:
            return
        if key in tried:
            continue
        tried.add(key)
        x = _member_at(query, [8 * L, *(8 * l + i * (h - l)
                                        for l, h, i in zip(lo, hi, key))],
                       seen)
        if x is not None:
            yield x


def _member_at(query: _Query, coef: list[int],
               seen: set[tuple[Q, ...]]) -> Optional[Vector]:
    """A solution x of A(p) x = b(p) at the box point p = coef[1:] / coef[0]
    (``Reading.system_at``), when there is one, x is not in seen, and x is
    a member; x is then added to seen.  x solves the system at a box
    point, so with no universal parameters it is a member by construction;
    with universal ones it is asked of the query (``_Query.holds``)."""
    A, b = query.reading.system_at(coef)
    if A:
        res = lin_solve(A, b)
        if not isinstance(res, (UniqueSolution, AffineSolutionSet)):
            return None
        x = res.point
    else:
        # with no equation every x solves the system, and lin_solve, which
        # reads the width from a row, would return a point of length 0
        x = zeros(query.reading.n)
    point = tuple(x)
    if point in seen or (query.forall
                         and not query.holds(query.reading.rows_at(x))):
        return None
    seen.add(point)
    return x


def probe_ray(sys: ParametricSystem, quant: Optional[QuantifierAssignment],
              x0: Sequence[Q], y: Sequence[Q]) -> ProbeReport:
    """Test membership of x0 + alpha*y at alpha = 0, 1, 2, 4, ...,
    2^PROBE_DOUBLINGS, the depth the cascade's probes walk.

    alpha = 0 is one membership query, and a base point that is not a member
    raises ValueError; the rest is ``_walk_ray`` on the same query.  The
    report is the same as from one cold membership query per alpha, up to
    the first exit.
    """
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    for name, v in (("base point", x0), ("direction", y)):
        if len(v) != sys.n:
            raise ValueError(f"{name} has length {len(v)}, expected {sys.n}")
    x0, y = list(x0), list(y)
    query = _Query(Reading(sys), quant)
    if not query.holds(query.reading.rows_at(x0)):
        raise ValueError("probe base point is not a member")
    return _walk_ray(query, x0, y, kernel_rows(sys, y))


def _walk_ray(query: _Query, x0: Vector, y: Vector,
              ky: list[tuple[list[int], int]]) -> ProbeReport:
    """The probe from a base point x0 that is a member, along y with kernel
    rows ky (``kernel_rows``), through alpha = 2^PROBE_DOUBLINGS: alpha = 0
    is reported as tested and not asked.

    The residuals are affine in the point, so the rows at x0 + alpha*y are
    r0 + alpha ky, with r0 the integer residual rows at x0, built from the
    query's reading (``Reading.rows_at``); each alpha's rows are their
    integer combination, which the query asks as a bool (``_Query.holds``):
    a row alone or a separator kept from an earlier LP settles a point that
    it refutes, and on decoupled rows the row test settles the point.
    Once alpha = 1 holds on rows that are not decoupled, one vertex LP over
    the rows at alpha = 0 stacked on those at alpha = 1 asks for a common
    witness, a p in the box (one per universal vertex) with A(p) x0 = b(p)
    and A(p) y = 0.  That p solves every combination, so if it exists every
    alpha is a member and no other LP is asked; the report is the same
    whether that LP is asked or not.  The alphas reported are a prefix of
    ``_ALPHAS``.
    """
    # row i at alpha is (u + alpha*w) / den, with u / den = r0_i and
    # w / den = ky_i over the product den of their denominators
    rays = [([a * dk for a in n0], [b * d0 for b in nk], d0 * dk)
            for (n0, d0), (nk, dk) in zip(query.reading.rows_at(x0), ky)]

    def rows(alpha: int) -> list[tuple[list[int], int]]:
        return [([a + alpha * b for a, b in zip(u, w)], den)
                for u, w, den in rays]

    tested = len(_ALPHAS)
    first_exit: Optional[Q] = None
    for i in range(PROBE_DOUBLINGS + 1):
        at = rows(2 ** i)
        if not query.holds(at):
            tested, first_exit = i + 2, _ALPHAS[i + 1]
            break
        if i == 0 and not query.decoupled(at) \
                and query.lp(rows(0) + at).member()[0]:
            break
    return ProbeReport(x0, y, _ALPHAS[:tested], first_exit,
                       exhausted=first_exit is None)


def _rhs_bound(reading: Reading) -> Q:
    """R = ||b(mid)||_1 + sum_k rad_k ||b^(k)||_1 from the reading's box
    (2 L mid_k and 2 L rad_k) and the b column in integers: every entry
    b^(k)_i as an integer over the lcm D of their denominators (``scaled``),
    so each row adds one integer over D, and the one Fraction is their sum
    over 2 L D."""
    sys, mids, rads = reading.sys, reading.mids, reading.rads
    w = len(mids)
    ints, D = scaled([v for row in zip(sys.b0, *(par.b for par in sys.params))
                      for v in row])
    rows = (ints[i:i + w] for i in range(0, len(ints), w))
    total = sum(abs(sum(map(mul, mids, row)))
                + sum(map(mul, rads, map(abs, row))) for row in rows)
    return Q(total, 2 * reading.L * D)


def decide_unbounded(sys: ParametricSystem,
                     quant: Optional[QuantifierAssignment],
                     y: Sequence[Q], budget: int = 8,
                     seed: int = 0) -> UnboundedVerdict:
    """Decision cascade for 'is y an unbounded direction of the solution set'.
    y must be nonzero.

    budget bounds the sampled base points (``find_base_points``) that THM7
    and the probes may use.  The probes start from a solution of
    A(p) x = b(p) at the kernel witness p, which the budget does not count,
    so a budget of 0 still probes once where that system is consistent."""
    y = list(y)
    if not any(y):
        raise ValueError("the zero vector is not a direction")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)

    # every stage asks one query: one reading of the system, under quant
    query = _Query(Reading(sys), quant)

    # (i) kernel membership is necessary; its vertex LP, built once, serves
    # the strict kernel of (iii) too, and its rows every ray walk of (v).
    # (``separator``: on decoupled rows, a direction the row test passes
    # asks no LP)
    ky = kernel_rows(sys, y)
    kernel = query.lp(ky)
    sep = kernel.separator()
    if sep is not None:
        return UnboundedVerdict(Status.CERTIFIED_NO, Rule.THM2, sep,
                                "direction is not in the kernel")

    # (ii) existential parameters that touch only b: at each universal vertex
    # v the set is {x : A(v) x - b(v) in Z}, Z the zonotope of those b^(k),
    # so the set is a polyhedron with recession cone {y : A(v) y = 0 for
    # every v}, the kernel of (i).  Any member then starts a ray that stays.
    # Z(y) is one point here, so the strict kernel of (iii) cannot hold.
    # United systems keep the stages below: the benchmark's gate accepts no
    # THM7 verdict yet (ROADMAP item 1).
    if quant.forall_set and TOLERABLE_FORM in query.flags:
        x0 = next(_base_points(query, budget, seed), None)
        if x0 is None:
            return UnboundedVerdict(Status.UNKNOWN, Rule.THM7, None,
                                    "no base point of the tolerable set found")
        return UnboundedVerdict(
            Status.CERTIFIED_YES, Rule.THM7, x0,
            f"tolerable kernel holds; base {','.join(str(v) for v in x0)}")

    # (iii) strict kernel membership is sufficient.  At every universal vertex
    # Z(y) = {A(p) y} holds +-eps*e_i, hence the l1 ball of radius eps, and
    # R bounds ||b(p)||_1 over the box.  For each w the minimum over p of
    # w.(alpha A(p) y - b(p)) is then at most |w|_inf (R - alpha*eps), never
    # positive once alpha >= R/eps, so alpha*y is in the set for all those
    # alpha: no sampled base point is needed, and the ray from
    # (R/eps + 1) y stays in the set.
    strict, eps = kernel.strict()
    if strict:
        R = _rhs_bound(query.reading)
        return UnboundedVerdict(
            Status.CERTIFIED_YES, Rule.THM3, vec_scale(R / eps + 1, y),
            f"strict kernel membership (eps = {eps})")

    # (iv) special classes of united systems: kernel pieces characterize
    # unboundedness; a decomposition over its 2^n or 2^K cap leaves the
    # question to (v)
    if not quant.forall_set and (ORDINARY in query.flags
                                 or CLASS_C in query.flags):
        from .cones import (ORTHANT, DecompositionTooLarge,
                            first_unbounded_piece)
        try:
            mode, piece = first_unbounded_piece(query, y)
        except DecompositionTooLarge:
            piece = None
        if piece is not None:
            rule = Rule.PROP1 if mode == ORTHANT else Rule.PROP2
            return UnboundedVerdict(
                Status.CERTIFIED_YES, rule, piece,
                f"kernel piece {piece.sign} with nonempty solution piece")

    # (v) probing fallback.  The first base point x0 is solved at the kernel
    # witness p of (i): A(p) y = 0 there, so the whole ray x0 + alpha y
    # solves the system at p.  With no universal parameters every point of
    # the ray is then a member, a walk could only end exhausted, and the
    # report is settled with no walk.  With universal ones p covers only
    # the first universal vertex, so x0's ray is walked, and the grid's
    # points follow, each found only when the probes before it have all
    # exited, and each a member already; the walks share the query, and
    # with it the separators its LPs returned
    xw = _member_at(query, scaled([Q(1), *kernel.witness()])[0], set())
    if xw is not None and not query.forall:
        walks = [ProbeReport(xw, y, _ALPHAS[:], None, exhausted=True)]
    else:
        walks = (_walk_ray(query, x0, y, ky) for x0 in itertools.chain(
            [] if xw is None else [xw],
            (x for x in _base_points(query, budget, seed) if x != xw)))
    reports = []
    for rep in walks:
        reports.append(rep)
        if rep.exhausted:
            return UnboundedVerdict(
                Status.UNKNOWN, Rule.PROBE, rep,
                f"no exit through alpha = 2^{PROBE_DOUBLINGS} from base "
                f"{','.join(str(v) for v in rep.base_point)}; kernel: yes; "
                "strict: no")
    detail = "no base point found" if not reports else \
        "every probe exits; kernel: yes; strict: no"
    return UnboundedVerdict(Status.UNKNOWN, Rule.PROBE, reports, detail)
