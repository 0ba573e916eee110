"""Decision cascade for unbounded directions of an AE solution set.

The stages of ``decide_unbounded``, in order:

(i)   kernel (THM2): AE kernel membership is necessary; a separator of the
      homogenized system certifies NO.
(ii)  tolerable form (THM7): with universal parameters and existential ones
      that touch only b, the set is a polyhedron whose recession cone is the
      AE kernel, so a member base point certifies YES.
(iii) strict kernel (THM3): sufficient, with an explicit threshold point.
(iv)  ordinary and class-C united systems (PROP1/PROP2): the kernel pieces
      of nonempty solution pieces characterize unboundedness.
(v)   probing: everything else is probed along the ray and reported honestly
      as UNKNOWN with the probe trace as evidence.  A base point is a member
      when it is drawn (solved at a box point, or passed ``member_ae`` with
      universal parameters), so the walk does not ask alpha = 0 again.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .exact import (AffineSolutionSet, Q, UniqueSolution, Vector, _Record,
                    doubled_mid_rad, lin_solve, scaled, vec_scale, zeros)
from .membership import (_VertexLP, member_ae,
                         member_kernel)  # noqa: F401 -- re-exported
from .model import (CLASS_C, ORDINARY, TOLERABLE_FORM, ParametricSystem,
                    QuantifierAssignment, classify, kernel_rows, residual_rows)


# The probing fallback of decide_unbounded tests alpha up to 2^PROBE_DOUBLINGS.
PROBE_DOUBLINGS = 20


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
    Deterministic for a fixed seed.  No assignment means the united set.
    Vertices and draws take the universal parameters first, so the samples
    do not depend on how a file interleaves the two quantifier blocks.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    return list(_base_points(sys, quant, budget, seed))


def _base_points(sys: ParametricSystem, quant: Optional[QuantifierAssignment],
                 budget: int, seed: int) -> Iterator[Vector]:
    """The points of ``find_base_points``, in order, each found only when
    the caller asks for it: a candidate is drawn and solved on demand.

    Every candidate lies on the grid lo + i/8 (hi - lo), i = 0..8, of each
    parameter (one point on a thin one), so a p already tried is skipped,
    and the search ends once every grid point has been tried.  A candidate
    is solved from the integer rows of [A(p) | b(p)] (``int_system_at``)."""
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    order = sorted(quant.forall_set) + sorted(quant.exists_set)

    def placed(values: Vector) -> Vector:
        p = zeros(sys.K)
        for k, v in zip(order, values):
            p[k] = v
        return p

    def draws() -> Iterator[Vector]:
        import random
        rng = random.Random(seed)
        for _ in range(budget):
            yield placed([iv.lo + Q(rng.randint(0, 8), 8) * (iv.hi - iv.lo)
                          for iv in (sys.params[k].interval for k in order)])

    samples = itertools.chain(
        [sys.midpoint()],
        map(placed, itertools.islice(sys.vertices(order), budget)), draws())
    grid = prod(1 if iv.is_thin() else 9 for iv in sys.box)
    tried, seen = set(), set()
    for p in samples:
        if len(seen) >= budget or len(tried) == grid:
            return
        if tuple(p) in tried:
            continue
        tried.add(tuple(p))
        res = lin_solve(*sys.int_system_at(p))
        if isinstance(res, (UniqueSolution, AffineSolutionSet)):
            x = res.point
            key = tuple(x)
            # x solves A(p) x = b(p) at a box point p, so with no universal
            # parameters it is a member by construction
            if key not in seen and (not quant.forall_set
                                    or member_ae(sys, quant, x)[0]):
                seen.add(key)
                yield x


def probe_ray(sys: ParametricSystem, quant: Optional[QuantifierAssignment],
              x0: Sequence[Q], y: Sequence[Q],
              max_doublings: int = PROBE_DOUBLINGS) -> ProbeReport:
    """Test membership of x0 + alpha*y at alpha = 0, 1, 2, 4, ..., 2^max_doublings.

    alpha = 0 is one membership query, and a base point that is not a member
    raises ValueError; the rest is ``_walk_ray``.  The report is the same as
    from one cold membership query per alpha, up to the first exit.
    """
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    if max_doublings < 0:
        raise ValueError("max_doublings must be nonnegative")
    for name, v in (("base point", x0), ("direction", y)):
        if len(v) != sys.n:
            raise ValueError(f"{name} has length {len(v)}, expected {sys.n}")
    x0, y = list(x0), list(y)
    if not member_ae(sys, quant, x0)[0]:
        raise ValueError("probe base point is not a member")
    return _walk_ray(sys, quant, x0, y, kernel_rows(sys, y), max_doublings)


def _walk_ray(sys: ParametricSystem, quant: QuantifierAssignment,
              x0: Vector, y: Vector, ky: list[tuple[list[int], int]],
              max_doublings: int) -> ProbeReport:
    """The probe from a base point x0 that is a member, along y with kernel
    rows ky (``kernel_rows``): alpha = 0 is reported as tested and not asked.

    The residuals are affine in the point, so the rows at x0 + alpha*y are
    r0 + alpha ky, with r0 the integer residual rows at x0
    (``residual_rows``): one call per ray, and each alpha's vertex LP is
    built from their integer combination.  Once alpha = 1 holds, one vertex
    LP over the rows at alpha = 0 stacked on those at alpha = 1 asks for a
    common witness, a p in the box (one per universal vertex) with
    A(p) x0 = b(p) and A(p) y = 0.  That p solves every combination, so if
    it exists every alpha is a member and no other LP is asked.
    """
    # row i at alpha is (u + alpha*w) / den, with u / den = r0_i and
    # w / den = ky_i over the product den of their denominators
    rays = [([a * dk for a in n0], [b * d0 for b in nk], d0 * dk)
            for (n0, d0), (nk, dk) in zip(residual_rows(sys, x0), ky)]

    def holds(*alphas: int) -> bool:
        """Do the rows at every alpha given, stacked, have a solution?"""
        return _VertexLP(sys, quant, [
            ([a + alpha * b for a, b in zip(u, w)], den)
            for alpha in alphas for u, w, den in rays]).member()[0]

    tested = [Q(0)]
    first_exit: Optional[Q] = None
    for i in range(max_doublings + 1):
        tested.append(Q(2) ** i)
        if not holds(2 ** i):
            first_exit = tested[-1]
            break
        if i == 0 and max_doublings > 0 and holds(0, 1):
            tested += [Q(2) ** j for j in range(1, max_doublings + 1)]
            break
    return ProbeReport(x0, y, tested, first_exit, exhausted=first_exit is None)


def _rhs_bound(sys: ParametricSystem, lo: list[int], hi: list[int],
               L: int) -> Q:
    """R = ||b(mid)||_1 + sum_k rad_k ||b^(k)||_1 from the box scaled once
    (lo and hi over L, as ``_VertexLP`` holds it) and the b column in
    integers: with row i's entries b^(k)_i as integers over D_i (``scaled``),
    2 L mid_k = lo_k + hi_k and 2 L rad_k = hi_k - lo_k, row i adds one
    integer over D_i, and the sum is divided by 2 L once."""
    mids, rads = doubled_mid_rad(lo, hi, L)
    total = Q(0)
    for entries in zip(sys.b0, *(par.b for par in sys.params)):
        ints, D = scaled(entries)
        total += Q(abs(sum(map(mul, mids, ints)))
                   + sum(map(mul, rads, map(abs, ints))), D)
    return total / (2 * L)


def decide_unbounded(sys: ParametricSystem,
                     quant: Optional[QuantifierAssignment],
                     y: Sequence[Q], budget: int = 8,
                     seed: int = 0) -> UnboundedVerdict:
    """Decision cascade for 'is y an unbounded direction of the solution set'.
    y must be nonzero."""
    y = list(y)
    if not any(y):
        raise ValueError("the zero vector is not a direction")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)

    # (i) kernel membership is necessary; its vertex LP, built once, serves
    # the strict kernel of (iii) too, and its rows every ray walk of (v)
    kernel = _VertexLP(sys, quant, kernel_rows(sys, y))
    in_kernel, cert = kernel.member()
    if not in_kernel:
        return UnboundedVerdict(Status.CERTIFIED_NO, Rule.THM2, cert,
                                "direction is not in the kernel")

    # (ii) existential parameters that touch only b: at each universal vertex
    # v the set is {x : A(v) x - b(v) in Z}, Z the zonotope of those b^(k),
    # so the set is a polyhedron with recession cone {y : A(v) y = 0 for
    # every v}, the kernel of (i).  Any member then starts a ray that stays.
    # Z(y) is one point here, so the strict kernel of (iii) cannot hold.
    # United systems keep the stages below: the benchmark's gate accepts no
    # THM7 verdict yet (ROADMAP item 1).
    if quant.forall_set and TOLERABLE_FORM in classify(sys, quant):
        x0 = next(_base_points(sys, quant, budget, seed), None)
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
        R = _rhs_bound(sys, kernel.lo, kernel.hi, kernel.L)
        return UnboundedVerdict(
            Status.CERTIFIED_YES, Rule.THM3, vec_scale(R / eps + 1, y),
            f"strict kernel membership (eps = {eps})")

    # (iv) special classes: kernel pieces characterize unboundedness; a
    # decomposition over its 2^n or 2^K cap leaves the question to (v)
    if not quant.forall_set:
        flags = classify(sys)
        if ORDINARY in flags or CLASS_C in flags:
            from .cones import (ORTHANT, DecompositionTooLarge,
                                first_unbounded_piece)
            try:
                mode, piece = first_unbounded_piece(sys, y, flags)
            except DecompositionTooLarge:
                piece = None
            if piece is not None:
                rule = Rule.PROP1 if mode == ORTHANT else Rule.PROP2
                return UnboundedVerdict(
                    Status.CERTIFIED_YES, rule, piece,
                    f"kernel piece {piece.sign} with nonempty solution piece")

    # (v) probing fallback; each base point is found only when the probes
    # before it have all exited, and is a member already
    reports = []
    for x0 in _base_points(sys, quant, budget, seed):
        rep = _walk_ray(sys, quant, x0, y, kernel.rows, PROBE_DOUBLINGS)
        reports.append(rep)
        if rep.exhausted:
            return UnboundedVerdict(
                Status.UNKNOWN, Rule.PROBE, rep,
                f"no exit through alpha = 2^{PROBE_DOUBLINGS} from base "
                f"{','.join(str(v) for v in x0)}; kernel: yes; strict: no")
    detail = "no base point found" if not reports else \
        "every probe exits; kernel: yes; strict: no"
    return UnboundedVerdict(Status.UNKNOWN, Rule.PROBE, reports, detail)

