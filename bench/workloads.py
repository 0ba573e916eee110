"""The benchmark's workloads: seeded corpus, operations and correctness gate.

Every workload is one closed-loop caller: the next operation starts only
after the previous one returned.  Operations call the package through module
attributes (``membership.member_united``), so a tracer that rebinds those
attributes sees every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Optional

import gen
from pilsys import cli, cones, exact, membership, model, oracle, unbounded

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    kind: str
    target: object  # what the program is asked about
    query: object   # point, direction or argv
    expect: object = None  # what is known by construction, if anything


@dataclass
class Corpus:
    ops: list[Op]
    digest: str  # of the generated inputs
    mix: dict    # operation kind -> count


def to_system(g: gen.GenSystem) -> model.ParametricSystem:
    return model.ParametricSystem(
        g.m, g.n, g.A0, g.b0,
        [model.Parameter(p.name, model.Interval(p.lo, p.hi), p.A, p.b)
         for p in g.params])


def _quant(g: gen.GenSystem) -> model.QuantifierAssignment:
    K = len(g.params)
    return model.QuantifierAssignment(frozenset(g.forall),
                                      frozenset(range(K)) - g.forall)


def _tolerable(g: gen.GenSystem) -> model.TolerableSystem:
    """Universal base parameters first, existential rhs parameters after."""
    k = len(g.forall)
    base = to_system(gen.GenSystem(g.m, g.n, g.A0, g.b0, g.params[:k]))
    rhs = [model.RhsParameter(p.name, model.Interval(p.lo, p.hi), p.b)
           for p in g.params[k:]]
    return model.TolerableSystem(base, rhs)


class Workload:
    """A seeded corpus built in rounds, each holding the whole operation
    mix, so any prefix a run gets through has the mix of the whole."""

    ROUNDS: int

    def rounds(self, seed: int, workdir: Path):
        """Yield ROUNDS lists of (op, digest item) pairs."""
        raise NotImplementedError

    def build(self, seed: int, workdir: Path) -> Corpus:
        return corpus(list(self.rounds(seed, workdir)))


def corpus(rounds) -> Corpus:
    labelled = [pair for rnd in rounds for pair in rnd]
    ops = [op for op, _ in labelled]
    return Corpus(ops, gen.corpus_digest(item for _, item in labelled),
                  dict(sorted(Counter(op.kind for op in ops).items())))


class Membership(Workload):
    name = "membership"
    why = ("point queries for united, AE and tolerable sets; the L1 LP core "
           "(lp_feasible phase 1) does almost all the work")
    ROUNDS = 64
    # One query per cell and round: united on m = n with K parameters, AE
    # and tolerable with 1-3 universal parameters.  Half of each round's
    # points are members by construction, the others random.
    CELLS = [("united", m, K) for m in (3, 4, 5) for K in (2, 4, 6, 8)] + \
        [(kind, m, nf) for kind in ("ae", "tolerable") for nf in (1, 2, 3)
         for m in (2, 3)]

    def rounds(self, seed: int, workdir: Path):
        rng = random.Random(f"membership:{seed}")
        for r in range(self.ROUNDS):
            labelled = []
            for c, (kind, m, k) in enumerate(self.CELLS):
                member = (r + c) % 2 == 0
                if kind == "united":
                    g = gen.general(rng, m, m, k)
                    x = gen.solved_point(rng, g) if member else None
                    expect = True if x is not None else None
                    if x is None:
                        x = gen.random_point(rng, m)
                    target = to_system(g)
                else:
                    K = k + (1 if kind == "ae" else 0)
                    g, x0 = gen.anchored(rng, gen.general(rng, m, m, K), k)
                    x, expect = (x0, True) if member else (gen.random_point(rng, m), None)
                    target = (to_system(g), _quant(g)) if kind == "ae" else _tolerable(g)
                labelled.append((Op(kind, target, x, expect),
                                 (kind, g.doc(), gen.vec_text(x))))
            yield labelled

    def run(self, op: Op):
        if op.kind == "united":
            return membership.member_united(op.target, op.query)
        if op.kind == "ae":
            return membership.member_ae(op.target[0], op.target[1], op.query)
        return membership.member_tolerable(op.target, op.query)

    def verdict(self, op: Op, res) -> str:
        return repr(res)

    def definite(self, op: Op, res) -> Optional[bool]:
        return True

    def check(self, op: Op, res) -> Optional[str]:
        ok, cert = res
        x = op.query
        if op.kind == "united":
            sys_, quant = op.target, None
        elif op.kind == "ae":
            sys_, quant = op.target
        else:
            sys_, quant = op.target.combined()
        if op.expect and not ok:
            return "a member by construction was reported as a non-member"
        if ok and not membership.witness_resubstitutes(sys_, x, cert):
            return "witness does not resubstitute"
        if not ok and not membership.validate_certificate(sys_, quant, x, cert):
            return "separator does not validate"
        # A witness proves only one universal vertex; the FM vertex oracle
        # decides the whole AE claim independently of the simplex.  (United
        # verdicts are fully proved by their certificates, and FM on K = 8
        # united systems grows too large to run.)
        if quant is not None and oracle.ae_vertex_oracle(sys_, quant, x) != ok:
            return "verdict disagrees with the Fourier-Motzkin vertex oracle"
        return None


class Unbounded(Workload):
    name = "unbounded"
    why = ("unbounded-direction decisions; the L3 cascade (base points, "
           "strict kernel, decompositions, probes to 2^20) drives LP phase 2 "
           "and big numbers")
    ROUNDS = 12
    # Two systems per maker and round (the wide-ordinary shape alternates).
    # Each gets one random and two kernel directions, and ordinary and
    # class-C systems one recession-cone equality report.  Sizes are fixed
    # so that seeds differ in entries, not in dimensions.
    MAKERS = (
        ("ordinary", lambda r, i: gen.ordinary(r, 2, 2)),
        ("ordinary", lambda r, i: gen.ordinary(r, 2, 3)),
        ("class_c", lambda r, i: gen.class_c(r, 2, 2)),
        ("class_c", lambda r, i: gen.class_c(r, 2, 3)),
        ("general", lambda r, i: gen.general(r, 3, 4, 3)),
        ("wide_ordinary", lambda r, i: gen.wide_ordinary(r, 2, 2 + i % 2)),
    )

    def rounds(self, seed: int, workdir: Path):
        rng = random.Random(f"unbounded:{seed}")
        for i in range(self.ROUNDS):
            labelled = []
            for label, make in self.MAKERS * 2:
                while True:  # keep systems that have two kernel directions
                    g = make(rng, i)
                    kernel = [gen.kernel_direction(rng, g)]
                    if kernel[0]:
                        kernel.append(gen.kernel_direction(rng, g))
                        if kernel[1]:
                            break
                s = to_system(g)
                dirs = [(gen.random_direction(rng, g.n), None)] + \
                    [(y, True) for y in kernel]
                for y, in_kernel in dirs:
                    labelled.append((Op("decide", s, y, in_kernel),
                                     ("decide", g.doc(), gen.vec_text(y))))
                if label in ("ordinary", "class_c"):
                    labelled.append((Op("equality", s, None),
                                     ("equality", g.doc(), "")))
            yield labelled

    def run(self, op: Op):
        if op.kind == "decide":
            return unbounded.decide_unbounded(op.target, None, op.query)
        return cones.special_class_unbounded_equality(op.target)

    def verdict(self, op: Op, res) -> str:
        if op.kind == "decide":
            return f"{res.status.value} {res.rule.value} {res.detail} {res.evidence!r}"
        return repr(res)

    def definite(self, op: Op, res) -> Optional[bool]:
        if op.kind == "decide":
            return res.status is not unbounded.Status.UNKNOWN
        return None

    def check(self, op: Op, res) -> Optional[str]:
        if op.kind == "equality":
            if any(p.recession_equals_kernel is False for p in res.pieces):
                return "a nonempty piece's recession cone differs from its kernel piece"
            return None
        s, y, Status, Rule = op.target, op.query, unbounded.Status, unbounded.Rule
        if res.rule is Rule.THM2:
            if res.status is not Status.CERTIFIED_NO:
                return "THM2 verdict is not CERTIFIED_NO"
            if op.expect:
                return "a kernel direction by construction was refuted"
            if not membership.validate_certificate(s.homogenized(), None, y, res.evidence):
                return "THM2 separator does not validate on the homogenized system"
        elif res.status is Status.CERTIFIED_YES:
            if res.rule is Rule.THM3:
                if not oracle.fm_member_oracle(s, res.evidence):
                    return "THM3 base point is not a member (FM oracle)"
            elif res.rule in (Rule.PROP1, Rule.PROP2):
                piece = res.evidence
                if not exact.fm_feasible(piece.solution_piece):
                    return "certifying piece is empty (FM)"
                if not piece.kernel_piece.contains(y):
                    return "certifying kernel piece does not contain the direction"
            else:
                return f"unexpected rule {res.rule.value} for CERTIFIED_YES"
        elif res.rule is not Rule.PROBE:
            return f"unexpected rule {res.rule.value} for {res.status.value}"
        return None


_HEAD = re.compile(r"^(CERTIFIED_YES|CERTIFIED_NO|UNKNOWN) by "
                   r"(THM2|THM3|PROP1|PROP2|THM7|PROBE): ")


def _vector(text: str) -> list[Q]:
    return [Q(t) for t in text.split(",")]


def _witness(text: str) -> list[Q]:
    """Values of 'name = value name = value ...'."""
    tokens = text.split()
    return [Q(tokens[i + 2]) for i in range(0, len(tokens), 3)]


class Cli(Workload):
    name = "cli"
    why = ("fresh `python -m pilsys.cli` processes, one at a time; start-up, "
           "import, parsing and formatting dominate, and `verify` is the only "
           "path through the FM oracle")
    RASTER = 33
    SAMPLES = 50

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH="src")

    ROUNDS = 8

    def rounds(self, seed: int, workdir: Path):
        rng = random.Random(f"cli:{seed}")
        for r in range(self.ROUNDS):
            yield self._round(rng, seed, workdir, r)

    def _round(self, rng, seed: int, workdir: Path, r: int) -> list:
        """Six system files and twenty invocations on them.

        Per-invocation costs form clusters: start-up plus a little work
        (check, kernel, unbounded, classify: 16 of 20), `verify` (3, on the
        README example with seeded samples, so all three cost the same) and
        `raster` (1, several times the others).  p50 falls in the middle of
        the start-up cluster and p90 inside the verify cluster, not on the
        edge between two clusters.
        """
        # Non-square class-C systems always have kernel directions, so set-up
        # draws no system twice except for a singular ordinary one.
        while True:
            ordinary = gen.ordinary(rng, 2, 2)
            x_ord = gen.solved_point(rng, ordinary)
            if x_ord:
                break
        class_c = gen.class_c(rng, 2, 3, K=1, L=1)
        y_cc = gen.kernel_direction(rng, class_c)
        general = gen.strictly_general(rng, 2, 3, 2)
        tolerable, x_tol = gen.anchored(rng, gen.general(rng, 2, 2, 2), 2)
        # a one-parameter system: a raster costs one small LP per cell
        small = gen.general(rng, 2, 2, 1, min_width=1)
        systems = {"ordinary": ordinary, "class_c": class_c, "general": general,
                   "tolerable": tolerable, "small": small,
                   "example": gen.readme_example()}
        files = {}
        for label, g in systems.items():
            path = workdir / f"{label}{r}.json"
            path.write_text(json.dumps(g.doc(), indent=1), encoding="utf-8")
            files[label] = str(path)

        vec = gen.vec_text
        invocations = [
            ("check", "tolerable", [f"--point={vec(x_tol)}"], True),
            ("check", "general", [f"--point={vec(gen.random_point(rng, 3))}"], None),
            ("check", "ordinary", [f"--point={vec(x_ord)}"], True),
            ("check", "class_c", [f"--point={vec(gen.random_point(rng, 3))}"], None),
            ("check", "small", [f"--point={vec(gen.random_point(rng, 2))}"], None),
            ("kernel", "ordinary", [f"--dir={vec(gen.random_direction(rng, 2))}",
                                    "--strict"], None),
            ("kernel", "class_c", [f"--dir={vec(y_cc)}", "--strict"], True),
            ("kernel", "general", [f"--dir={vec(gen.random_direction(rng, 3))}",
                                   "--strict"], None),
            ("kernel", "tolerable", [f"--dir={vec(gen.random_direction(rng, 2))}",
                                     "--strict"], None),
            ("unbounded", "class_c", [f"--dir={vec(y_cc)}"], True),
            ("unbounded", "general", [f"--dir={vec(gen.random_direction(rng, 3))}"], None),
            ("unbounded", "ordinary", [f"--dir={vec(gen.random_direction(rng, 2))}"], None),
            ("unbounded", "small", [f"--dir={vec(gen.random_direction(rng, 2))}"], None),
            ("classify", "class_c", ["--decompose"], 0),
            ("classify", "general", ["--decompose"], 1),
            ("classify", "ordinary", ["--decompose"], 0),
        ] + [("verify", "example", ["--samples", str(self.SAMPLES), "--seed",
                                    str(rng.randrange(2 ** 31))], 0) for _ in range(3)] + [
            ("raster", "small", ["--window=-4,4,-4,4", "--res", str(self.RASTER),
                                 "--out", f"{{work}}/small{r}.csv"], 0),
        ]
        out = []
        for command, label, extra, expect in invocations:
            g = systems[label]
            argv = [command, files[label]] + [a.format(work=workdir) for a in extra]
            out.append((Op(command, g, argv, expect), (command, g.doc(), extra)))
        return out

    def run(self, op: Op):
        """One fresh interpreter: (exit code, stdout, stderr)."""
        proc = subprocess.run([sys.executable, "-m", "pilsys.cli", *op.query],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_inprocess(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.query))
        return code, out.getvalue(), err.getvalue()

    def verdict(self, op: Op, res) -> str:
        return f"{res[0]}\n{res[1]}"

    def definite(self, op: Op, res) -> Optional[bool]:
        if op.kind in ("check", "kernel"):
            return True
        if op.kind == "unbounded":
            return not res[1].startswith("UNKNOWN")
        return None

    def check(self, op: Op, res) -> Optional[str]:
        code, out, err = res
        lines = out.splitlines()
        want_code = op.expect if op.kind in ("classify", "verify", "raster") else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}: {err.strip()[:200]}"
        s = to_system(op.target)
        arg = op.query[2].split("=", 1)[1] if op.kind in ("check", "kernel", "unbounded") else None
        try:
            if op.kind == "check":
                return self._check_membership(op, s, _vector(arg), lines)
            if op.kind == "kernel":
                return self._check_kernel(op, s, _vector(arg), lines)
            if op.kind == "unbounded":
                head = _HEAD.match(lines[0]) if lines else None
                if not head:
                    return "unbounded: unexpected output"
                if op.expect and head.group(2) == "THM2":
                    return "a kernel direction by construction was refuted"
                return None
            if op.kind == "classify":
                if code == 1:
                    ok = "neither ordinary nor of class C" in err
                else:
                    flags = lines[0].split(",")
                    mode = "ORTHANT" if "ORDINARY" in flags else "SIGNCONE"
                    ok = bool({"ORDINARY", "CLASS_C"} & set(flags)) and \
                        lines[1].startswith(f"decomposition: {mode}")
                return None if ok else "classify: unexpected output"
            if op.kind == "verify":
                ok = lines[-1] == f"verify: {self.SAMPLES} points, 0 disagreements"
                return None if ok else "verify: " + lines[-1]
            return self._check_raster(op, s, lines)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            return f"{op.kind}: unparsable output ({exc})"

    def _check_membership(self, op, s, x, lines) -> Optional[str]:
        g = op.target
        if g.explicit_quantifiers:  # tolerable view: witness over the combined system
            s, quant = _tolerable(g).combined()
        else:
            quant = None
        line = lines[0]
        if line.startswith("MEMBER (witness "):
            cert = membership.Certificate.witness(_witness(line[len("MEMBER (witness "):-1]))
            return None if membership.witness_resubstitutes(s, x, cert) else \
                "check: witness does not resubstitute"
        if op.expect:
            return "check: a member by construction was reported as a non-member"
        w = _vector(line.split("separator w = ")[1].rstrip(")"))
        cert = membership.Certificate.separator(exact.FarkasCertificate(w, [], []))
        return None if membership.validate_certificate(s, quant, x, cert) else \
            "check: separator does not validate"

    def _check_kernel(self, op, s, y, lines) -> Optional[str]:
        h = s.homogenized()
        # with universal parameters the CLI decides the AE kernel
        quant = _quant(op.target) if op.target.explicit_quantifiers else None
        first, strict = lines
        if first.startswith("IN KERNEL (witness p = "):
            cert = membership.Certificate.witness(_vector(first.split("= ")[1].rstrip(")")))
            if not membership.witness_resubstitutes(h, y, cert):
                return "kernel: witness does not resubstitute"
        elif op.expect:
            return "kernel: a kernel direction by construction was refuted"
        else:
            w = _vector(first.split("separator w = ")[1].rstrip(")"))
            cert = membership.Certificate.separator(exact.FarkasCertificate(w, [], []))
            if not membership.validate_certificate(h, quant, y, cert):
                return "kernel: separator does not validate"
        m = re.fullmatch(r"STRICT: (yes|no) \(eps = (\S+)\)", strict)
        if not m or (m.group(1) == "yes") != (Q(m.group(2)) > 0):
            return "kernel: inconsistent strict line"
        return None

    def _check_raster(self, op, s, lines) -> Optional[str]:
        res = self.RASTER
        path = op.query[op.query.index("--out") + 1]
        if lines != [f"wrote {res}x{res} raster to {path}"]:
            return "raster: unexpected output"
        rows = Path(path).read_text(encoding="utf-8").splitlines()
        if rows[0] != "x1,x2,member" or len(rows) != 1 + res * res:
            return "raster: malformed CSV"
        for i in (1, len(rows) // 3, len(rows) // 2, len(rows) - 1):
            x1, x2, flag = rows[i].split(",")
            if oracle.fm_member_oracle(s, [Q(x1), Q(x2)]) != (flag == "1"):
                return f"raster: cell {i} disagrees with the FM oracle"
        return None


WORKLOADS = {w.name: w for w in (Membership(), Unbounded(), Cli())}
