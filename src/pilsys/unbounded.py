"""Three-tier decision of unbounded directions.

The kernel is necessary for unboundedness; strict kernel membership plus a
base point is sufficient; for ordinary and class-C systems the kernel pieces
characterize unboundedness exactly.  Everything else is probed along the ray
and reported honestly as UNKNOWN with the probe trace as evidence.

The evidence of a strict-kernel YES is a base point x0 whose ray x0 + alpha*y
stays in the solution set.  It is found first by a common witness: one AE
membership query in the ray system, which asks for an admissible p with both
A(p) x0 = b(p) and A(p) y = 0, and such a p keeps the whole ray.  Only when
no base point has one are shifted base points walked by probing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .exact import (AffineSolutionSet, Matrix, Q, UniqueSolution, Vector,
                    lin_solve, vec_add, vec_scale, zeros)
from .membership import (kernel_tolerable, member_ae, member_ae_kernel,
                         member_kernel,  # noqa: F401 -- re-exported
                         strict_kernel_member_ae)
from .model import (CLASS_C, ORDINARY, Parameter, ParametricSystem,
                    QuantifierAssignment, TolerableSystem, classify)


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


@dataclass
class ProbeReport:
    base_point: Vector
    direction: Vector
    alphas_tested: list[Q]
    first_exit: Optional[Q]
    exhausted: bool


@dataclass
class UnboundedVerdict:
    status: Status
    rule: Rule
    evidence: object  # Certificate | ProbeReport | list[ProbeReport] | piece ref
    detail: str = ""


def find_base_points(sys: ParametricSystem,
                     quant: Optional[QuantifierAssignment] = None,
                     budget: int = 16, seed: int = 0) -> list[Vector]:
    """Member points found by solving the system at sampled parameter values.

    Candidates come from the box midpoint, box vertices, and seeded random
    box points; each is kept only if it passes the exact membership test.
    Deterministic for a fixed seed.  No assignment means the united set.
    """
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    rng = random.Random(seed)
    samples: list[Vector] = [sys.midpoint()]
    samples.extend(itertools.islice(sys.vertices(range(sys.K)), budget))
    for _ in range(budget):
        p = []
        for par in sys.params:
            lo, hi = par.interval.lo, par.interval.hi
            t = Q(rng.randint(0, 8), 8)
            p.append(lo + t * (hi - lo))
        samples.append(p)

    points: list[Vector] = []
    seen = set()
    for p in samples[: 2 * budget + 1]:
        if len(points) >= budget:
            break
        res = lin_solve(sys.A_at(p), sys.b_at(p))
        if isinstance(res, (UniqueSolution, AffineSolutionSet)):
            x = res.point
            key = tuple(x)
            # x solves A(p) x = b(p) at a box point p, so with no universal
            # parameters it is a member by construction
            if key not in seen and (not quant.forall_set
                                    or member_ae(sys, quant, x)[0]):
                seen.add(key)
                points.append(x)
    return points


def probe_ray(sys: ParametricSystem, quant: Optional[QuantifierAssignment],
              x0: Sequence[Q], y: Sequence[Q],
              max_doublings: int = 20) -> ProbeReport:
    """Test membership of x0 + alpha*y at alpha = 0, 1, 2, 4, ..., 2^max_doublings."""
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    rep = _walk_ray(sys, quant, x0, y, max_doublings)
    if rep.first_exit == 0:
        raise ValueError("probe base point is not a member")
    return rep


def _walk_ray(sys: ParametricSystem, quant: QuantifierAssignment,
              x0: Sequence[Q], y: Sequence[Q], max_doublings: int) -> ProbeReport:
    """The probe of ``probe_ray``; first_exit is 0 when x0 is not a member."""
    alphas = [Q(0)] + [Q(2) ** i for i in range(max_doublings + 1)]
    tested: list[Q] = []
    first_exit: Optional[Q] = None
    for a in alphas:
        tested.append(a)
        pt = vec_add(list(x0), vec_scale(a, list(y)))
        if not member_ae(sys, quant, pt)[0]:
            first_exit = a
            break
    return ProbeReport(list(x0), list(y), tested, first_exit,
                       exhausted=first_exit is None)


def decide_unbounded(sys: ParametricSystem,
                     quant: Optional[QuantifierAssignment],
                     y: Sequence[Q], budget: int = 8, seed: int = 0,
                     max_doublings: int = 20) -> UnboundedVerdict:
    """Decision cascade for 'is y an unbounded direction of the solution set'."""
    y = list(y)
    if quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)

    # (i) kernel membership is necessary
    in_kernel, cert = member_ae_kernel(sys, quant, y)
    if not in_kernel:
        return UnboundedVerdict(Status.CERTIFIED_NO, Rule.THM2, cert,
                                "direction is not in the kernel")

    base_points = find_base_points(sys, quant, budget=budget, seed=seed)

    # (ii) strict kernel membership plus a base point is sufficient
    strict, eps = strict_kernel_member_ae(sys, quant, y)
    if strict and base_points:
        base = _ray_base_point(sys, quant, base_points, y, max_doublings)
        return UnboundedVerdict(
            Status.CERTIFIED_YES, Rule.THM3, base,
            f"strict kernel membership (eps = {eps}) with a base point")

    # (iii) special classes: kernel pieces characterize unboundedness; a
    # decomposition over its 2^n or 2^K cap leaves the question to (iv)
    if not quant.forall_set:
        flags = classify(sys)
        if ORDINARY in flags or CLASS_C in flags:
            from .cones import DecompositionTooLarge, decompose
            try:
                dec = decompose(sys)
            except DecompositionTooLarge:
                dec = None
            for piece in dec.pieces if dec is not None else ():
                if piece.nonempty and piece.kernel_piece.contains(y):
                    rule = Rule.PROP1 if dec.mode == "ORTHANT" else Rule.PROP2
                    return UnboundedVerdict(
                        Status.CERTIFIED_YES, rule, piece,
                        f"kernel piece {piece.sign} with nonempty solution piece")

    # (iv) probing fallback
    reports = []
    for x0 in base_points:
        rep = probe_ray(sys, quant, x0, y, max_doublings)
        reports.append(rep)
        if rep.exhausted:
            return UnboundedVerdict(
                Status.UNKNOWN, Rule.PROBE, rep,
                f"no exit through alpha = 2^{max_doublings} from base "
                f"{','.join(str(v) for v in x0)}; kernel: yes; strict: no")
    detail = "no base point found" if not reports else \
        "every probe exits; kernel: yes; strict: no"
    return UnboundedVerdict(Status.UNKNOWN, Rule.PROBE, reports, detail)


def ray_system(sys: ParametricSystem) -> ParametricSystem:
    """The system (A(p) x - b(p); A(p) y) = 0 in the unknowns (x, y).

    Same parameters and box; each matrix is [[A^(k), 0], [0, A^(k)]] and each
    right-hand side [b^(k); 0].  (x0, y) is in its AE set exactly when every
    universal vertex has an existential p, a common witness, that solves
    both A(p) x0 = b(p) and A(p) y = 0; that p then solves
    A(p) (x0 + alpha*y) = b(p) for every alpha, so the whole ray is in the
    AE set of the system.
    """
    n = sys.n

    def block(M: Matrix) -> Matrix:
        return [row + zeros(n) for row in M] + [zeros(n) + row for row in M]

    return ParametricSystem(
        2 * sys.m, 2 * n, block(sys.A0), sys.b0 + zeros(sys.m),
        [Parameter(par.name, par.interval, block(par.A), par.b + zeros(sys.m))
         for par in sys.params])


def _ray_base_point(sys: ParametricSystem, quant: QuantifierAssignment,
                    base_points: list[Vector], y: Vector,
                    max_doublings: int) -> Vector:
    """The THM3 evidence: a member point whose ray along y stays in the set.

    The first base point x0 with a common witness (one membership query of
    (x0, y) in the ray system) is returned: its ray is inside the set for
    every alpha, so its probe never exits.  Only when no base point has one
    are the shifted points x0 + s*y walked, for doubling shifts s, since the
    ray may then enter the set only beyond a threshold shift; the first
    with a clean probe is returned, or the first base point if none is.
    """
    ray = ray_system(sys)
    for x0 in base_points:
        if member_ae(ray, quant, [*x0, *y])[0]:
            return x0
    # no shift gains a common witness (A(p) y = 0 makes A(p)(x0 + s*y) equal
    # A(p) x0), so the walk tests no more of them
    shifts = [Q(0)] + [Q(2) ** i for i in range(max_doublings + 1)]
    for x0 in base_points:
        for s in shifts:
            x1 = vec_add(x0, vec_scale(s, y))
            # a probe from a non-member exits at alpha = 0, not exhausted
            if _walk_ray(sys, quant, x1, y, max_doublings).exhausted:
                return x1
    return base_points[0]


def decide_unbounded_tolerable(tsys: TolerableSystem, y: Sequence[Q],
                               budget: int = 8,
                               seed: int = 0) -> UnboundedVerdict:
    """For tolerable systems with a base point, the kernel decides exactly."""
    y = list(y)
    combined, quant = tsys.combined()
    base_points = find_base_points(combined, quant, budget=budget, seed=seed)
    if not base_points:
        return UnboundedVerdict(Status.UNKNOWN, Rule.THM7, None,
                                "no base point of the tolerable set found")
    if kernel_tolerable(tsys, y):
        return UnboundedVerdict(Status.CERTIFIED_YES, Rule.THM7,
                                base_points[0], "tolerable kernel holds")
    return UnboundedVerdict(Status.CERTIFIED_NO, Rule.THM7, base_points[0],
                            "tolerable kernel fails")
