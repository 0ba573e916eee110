"""Command-line interface.

Exit status: 0 = completed, 1 = usage or input error, 2 = an oracle
cross-check disagreed.  Every refusal, of a command or of the package, is
a ``ValueError``, which ``main`` prints as ``error: ...``.  All output has
a stable line format and identical invocations (including seeds) produce
byte-identical output.

Each process runs one subcommand, so start-up is most of its cost: a
command imports ``unbounded``, ``oracle`` and ``cones`` only when it runs
them, and ``check`` and ``kernel`` load no more than ``exact``, ``model``
and ``membership``.
"""

from __future__ import annotations

import argparse
import sys as _sys
from typing import Optional

from . import membership, model
from .exact import IntRowPolyhedron, Q, Vector
from .model import (TOLERABLE_FORM, ParsedSystem, QuantifierAssignment,
                    SystemFormatError, parse_rational, parse_system)


def _load(path: str) -> ParsedSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_system(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (SystemFormatError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _vector(text: str, n: int, what: str) -> Vector:
    try:
        v = [parse_rational(t) for t in text.split(",")]
    except SystemFormatError as exc:
        raise ValueError(f"bad {what} vector: {exc}") from None
    if len(v) != n:
        raise ValueError(f"{what} vector must have {n} entries, got {len(v)}")
    return v


def _fmt(v) -> str:
    return ",".join(str(x) for x in v)


def _require_tolerable(parsed: ParsedSystem) -> None:
    """The tolerable set of a file is its AE set, when the file writes its
    quantifiers and its existential parameters touch only b."""
    if not parsed.explicit_quantifiers or \
            TOLERABLE_FORM not in model.classify(parsed.system, parsed.quant):
        raise ValueError("system has no tolerable form "
                         "(existential parameters touch the matrix)")


def cmd_check(args) -> int:
    parsed = _load(args.file)
    sys = parsed.system
    x = _vector(args.point, sys.n, "point")
    if args.set == "tolerable":
        _require_tolerable(parsed)
    quant = QuantifierAssignment.all_exists(sys.K) if args.set == "united" \
        else parsed.quant
    ok, cert = membership.member_ae(sys, quant, x)
    if ok:
        pairs = " ".join(f"{par.name} = {pv}"
                         for par, pv in zip(sys.params, cert.witness_p))
        print(f"MEMBER (witness {pairs})" if pairs else "MEMBER (no parameters)")
    else:
        print(f"NOT A MEMBER (separator w = {_fmt(cert.separator.w)})")
    return 0


def cmd_kernel(args) -> int:
    parsed = _load(args.file)
    sys = parsed.system
    y = _vector(args.dir, sys.n, "direction")
    ok, cert = membership.member_ae_kernel(sys, parsed.quant, y)
    if ok:
        print(f"IN KERNEL (witness p = {_fmt(cert.witness_p)})")
    else:
        print(f"NOT IN KERNEL (separator w = {_fmt(cert.separator.w)})")
    if args.strict:
        strict, eps = membership.strict_kernel_member_ae(sys, parsed.quant, y)
        print(f"STRICT: {'yes' if strict else 'no'} (eps = {eps})")
    return 0


def cmd_unbounded(args) -> int:
    from . import unbounded
    parsed = _load(args.file)
    sys = parsed.system
    y = _vector(args.dir, sys.n, "direction")
    if args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")
    verdict = unbounded.decide_unbounded(sys, parsed.quant, y,
                                         budget=args.budget, seed=args.seed)
    print(f"{verdict.status.value} by {verdict.rule.value}: {verdict.detail}")
    ev = verdict.evidence
    if isinstance(ev, unbounded.ProbeReport):
        exit_str = "none" if ev.first_exit is None else str(ev.first_exit)
        print(f"probe: base = {_fmt(ev.base_point)}, alphas tested = "
              f"{len(ev.alphas_tested)}, first exit = {exit_str}")
    elif isinstance(ev, list) and ev and isinstance(ev[0], unbounded.ProbeReport):
        for rep in ev:
            exit_str = "none" if rep.first_exit is None else str(rep.first_exit)
            print(f"probe: base = {_fmt(rep.base_point)}, first exit = {exit_str}")
    return 0


def _constraints(P: IntRowPolyhedron) -> int:
    """Rows of C plus finite bounds: the inequalities that state P."""
    lo, hi, _ = P.box
    return len(P.C) + sum(b is not None for b in lo + hi)


def cmd_classify(args) -> int:
    parsed = _load(args.file)
    flags = model.classify(parsed.system, parsed.quant)
    print(str(flags))
    if args.decompose:
        from . import cones
        dec = cones.decompose(parsed.system)
        print(f"decomposition: {dec.mode}, {len(dec.pieces)} pieces")
        for piece in dec.pieces:
            print(f"piece {piece.sign}: "
                  f"{'nonempty' if piece.nonempty else 'empty'}, "
                  f"{_constraints(piece.solution)} solution rows, "
                  f"{_constraints(piece.kernel)} kernel rows")
    return 0


def cmd_raster(args) -> int:
    from . import oracle
    parsed = _load(args.file)
    sys = parsed.system
    parts = args.window.split(",")
    if len(parts) != 4:
        raise ValueError("--window must be x_lo,x_hi,y_lo,y_hi")
    window = tuple(parse_rational(t) for t in parts)
    which = args.set
    if which == "TOLERABLE":
        _require_tolerable(parsed)
        which = oracle.AE
    csv = oracle.raster_csv(sys, parsed.quant, window, args.res, which)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.res}x{args.res} raster to {args.out}")
    return 0


def cmd_verify(args) -> int:
    import itertools
    import random

    from . import oracle
    parsed = _load(args.file)
    sys = parsed.system
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    if args.samples:
        # every point goes to the FM oracle; refuse a system over its cap
        # before the cloud, which may scan all 3^K grid points
        oracle.check_fm_cap(sys)
    rng = random.Random(args.seed)
    # the class and the interval data are read once, not once per point
    characterizations = oracle.characterization_checks(
        sys, model.classify(sys, parsed.quant))

    points: list[Vector] = []
    if sys.m == sys.n:
        points.extend(itertools.islice(
            oracle.solution_cloud(sys, grid_per_param=3), args.samples))
    while len(points) < args.samples:
        points.append([Q(rng.randint(-6, 6), rng.randint(1, 3))
                       for _ in range(sys.n)])

    disagreements = 0
    lines = []
    for x in points:
        got = membership.member_united(sys, x)[0]
        want = oracle.fm_member_oracle(sys, x)
        checks = [("fm", want)] + [(name, check(x))
                                   for name, check in characterizations]
        bad = [name for name, val in checks if val != got]
        if parsed.quant.forall_set:
            ae = membership.member_ae(sys, parsed.quant, x)[0]
            if ae != oracle.ae_vertex_oracle(sys, parsed.quant, x):
                bad.append("ae-vertex-vs-ae")
        if bad:
            disagreements += 1
            lines.append(f"point {_fmt(x)}: member_united = {got}, "
                         f"disagree: {', '.join(bad)}")
        else:
            lines.append(f"point {_fmt(x)}: member_united = {got}, all oracles agree")
    for line in lines:
        print(line)
    print(f"verify: {len(points)} points, {disagreements} disagreements")
    return 2 if disagreements else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pilsys",
        description="Exact analyzer for linear interval parametric systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership of a point")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.add_argument("--set", default="auto",
                   choices=["auto", "united", "ae", "tolerable"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("kernel", help="kernel membership of a direction")
    p.add_argument("file")
    p.add_argument("--dir", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("unbounded", help="unbounded-direction verdict")
    p.add_argument("file")
    p.add_argument("--dir", required=True)
    p.add_argument("--budget", type=int, default=8,
                   help="most sampled base points to probe from (default "
                        "8); the point solved at the kernel witness is "
                        "probed first and not counted")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_unbounded)

    p = sub.add_parser("classify", help="structural class flags")
    p.add_argument("file")
    p.add_argument("--decompose", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("raster", help="rasterize a 2-D solution set to CSV")
    p.add_argument("file")
    p.add_argument("--window", required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--set", default="UNITED",
                   choices=["UNITED", "AE", "TOLERABLE", "KERNEL"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_raster)

    p = sub.add_parser("verify", help="oracle cross-check report")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
