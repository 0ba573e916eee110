"""pilsys benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload membership --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # one table

Run from anywhere; it works on the checkout that contains this file and
imports the package from ``src/`` (nothing needs to be installed).  Times are
reported at a reference speed (see ``calibration_unit``); raw wall times are
in the ``info`` line.

Set-up builds the workload's corpus from the seed (and, for ``cli``, writes
the system files); it is repeated SETUP_REPEATS times and its median is
reported.  The timed region is a closed loop with one caller that cycles
through the corpus for ``--seconds`` and at least MIN_OPS operations.  The
correctness gate then checks every distinct result exactly, outside the
timed region; repeated operations must give identical results.

With ``--trace 1`` the same operations run twice, untraced and then traced,
and the per-layer metrics come from the traced pass (spans are written to
``bench/results/``).  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
MIN_OPS = 100  # so that p90 has ten samples beyond it
IMPORT_REPEATS = 5
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import pilsys.cli; "
                  "print((time.perf_counter() - t) * 1e3)")


# The reference unit: a fixed exact-rational pivot sequence, independent of
# the package under test.  On shared machines the speed a process gets swings
# by up to 2x within seconds, so each measured time is multiplied by
# REFERENCE_S over the median time of the UNIT_WINDOW units around it.  A
# reported "ms" is a millisecond at the speed where one unit takes
# REFERENCE_S seconds.
_UNIT_ROWS = [[Fraction((3 * i + 5 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(10)]
              for i in range(6)]
REFERENCE_S = 1e-3
UNIT_WINDOW = 9


def calibration_unit() -> float:
    """Seconds the reference unit takes now."""
    t0 = time.perf_counter()
    rows = [r[:] for r in _UNIT_ROWS]
    for r in range(4):
        pv = rows[r][r] or Fraction(1)
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][r]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
    return time.perf_counter() - t0


def unit_scales(units: list[float], n: int) -> list[float]:
    """Scale factor to reference speed for each of n operations, where
    units[i] was timed just before operation i and units[n] after the last:
    REFERENCE_S over the median of the units in a window centred on it."""
    w = UNIT_WINDOW // 2
    return [REFERENCE_S / statistics.median(units[max(0, i - w):i + w + 1])
            for i in range(n)]


class Pass:
    """One closed-loop pass: per-operation latency and result, in order.

    A reference unit is timed before every operation and after the last
    (outside the operations' latencies); ``scaled`` holds the latencies at
    reference speed.
    """

    def __init__(self, run, ops, seconds: float, min_ops: int, max_ops=None):
        self.ops = ops
        self.latencies: list[float] = []
        self.results: list = []
        self.errors: dict[int, str] = {}
        units = []
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        i = 0
        while (i < max_ops) if max_ops is not None else \
                (i < min_ops or clock() < deadline):
            k = i % len(ops)
            units.append(calibration_unit())
            t0 = clock()
            try:
                res = run(ops[k])
            except Exception:  # a failed operation is counted, not fatal
                res = None
                self.errors.setdefault(k, traceback.format_exc(limit=3))
            self.latencies.append(clock() - t0)
            self.results.append(res)
            i += 1
        units.append(calibration_unit())
        self.wall = clock() - start
        self.units = units
        self.scales = unit_scales(units, len(self.latencies))
        self.scaled = [dt * f for dt, f in zip(self.latencies, self.scales)]

    def first_results(self) -> dict:
        return {k: self.results[k] for k in range(min(len(self.ops), len(self.results)))}

    def verdict_digest(self, wl) -> str:
        h = hashlib.sha256()
        for k, res in self.first_results().items():
            h.update(wl.verdict(self.ops[k], res).encode() if res is not None else b"!")
            h.update(b"\n")
        return h.hexdigest()


def setup(wl, seed: int, workdir: Path):
    """Build the corpus SETUP_REPEATS times, timing each round like an
    operation: (corpus, median seconds at reference speed, whether every
    build gave the same inputs)."""
    from workloads import corpus
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        p = Pass(next, [wl.rounds(seed, workdir)], 0, 0, max_ops=wl.ROUNDS)
        if p.errors:
            raise RuntimeError(f"building the corpus failed:\n{p.errors[0]}")
        times.append(sum(p.scaled))
        built = corpus(p.results)
        digests.add(built.digest)
    return built, statistics.median(times), len(digests) == 1


def gate(wl, p: Pass) -> dict[int, str]:
    """Index of each failing distinct operation -> reason."""
    failures = dict(p.errors)
    first = p.first_results()
    for k, res in first.items():
        if k in failures:
            continue
        try:
            why = wl.check(p.ops[k], res)
        except Exception as exc:  # a checker crash is a failed check
            why = f"check raised {exc!r}"
        if why:
            failures[k] = why
    n = len(p.ops)
    for i in range(n, len(p.results)):
        k = i % n
        if k not in failures and p.results[i] is not None and \
                wl.verdict(p.ops[k], p.results[i]) != wl.verdict(p.ops[k], first[k]):
            failures[k] = "a repeated operation gave a different result"
    return failures


def end_to_end(wl, p: Pass, failures, setup_s: float, rusage_who):
    """(metrics, failed operations) of a measured pass."""
    n = len(p.ops)
    attempted = len(p.results)
    failed = sum(1 for i in range(attempted) if i % n in failures)
    decisions = definite = 0
    for i, res in enumerate(p.results):
        if i % n in failures:
            continue
        d = wl.definite(p.ops[i % n], res)
        if d is not None:
            decisions += 1
            definite += d
    lat = p.scaled
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(rusage_who).ru_maxrss / 1024, "MB"),
        "success_share": (1 - failed / attempted, "ratio"),
        "certified_share": (definite / decisions if decisions else 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, failed


def cli_process_costs(wl, ops, inproc: Pass) -> dict:
    """Fresh-interpreter costs that the in-process traced pass cannot see,
    in ms at reference speed."""
    env = dict(os.environ, PYTHONPATH="src")

    def import_ms(_):
        return float(subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                                    env=env, capture_output=True, text=True,
                                    timeout=60, check=True).stdout)

    imports = Pass(import_ms, [None], 0, 0, max_ops=IMPORT_REPEATS)
    if imports.errors:
        raise RuntimeError(f"cannot import pilsys.cli: {imports.errors[0]}")
    sub = Pass(wl.run, ops, 0, 0, max_ops=len(ops))
    by_kind = defaultdict(lambda: ([], []))
    for p, side in ((sub, 0), (inproc, 1)):
        for i, dt in enumerate(p.scaled):
            by_kind[ops[i % len(ops)].kind][side].append(dt)
    extra = {"cli.import_ms": statistics.median(
        ms * f for ms, f in zip(imports.results, imports.scales))}
    for kind, (fresh, warm) in by_kind.items():
        extra[f"cli.{kind}.process_overhead_ms"] = \
            (statistics.median(fresh) - statistics.median(warm)) * 1e3
    extra["cli.process_overhead_ms"] = statistics.median(
        extra[f"cli.{kind}.process_overhead_ms"] for kind in by_kind)
    return extra


def run_all(args, names) -> int:
    """Every workload in its own process, and one table of their metrics."""
    results = {}
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True).stdout.splitlines()
        results[name] = json.loads(out[-1])
        results[name]["failed_share"] = json.loads(out[-2][len("info "):])["failed_share"]
    print(f"{'metric':44s} {'unit':6s}" + "".join(f"{n:>14s}" for n in names))
    first = results[names[0]]["metrics"]
    for metric, m in first.items():
        print(f"{metric:44s} {m['unit']:6s}" + "".join(
            f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in names))
    print(f"{'failed_share':44s} {'ratio':6s}" + "".join(
        f"{results[n]['failed_share']:>14.6g}" for n in names))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="membership, unbounded, cli, or all (one table)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pilsys" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'pilsys'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One CPU for this process and its children, so that the reference units
    # time the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads
    from tracer import Tracer

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    in_process = getattr(wl, "run_inprocess", wl.run)
    workdir = (BENCH / ".work" / f"{wl.name}-{args.seed}").relative_to(ROOT)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    tag = f"{wl.name}-{args.seed}-trace{args.trace}"
    try:
        corpus, setup_s, same_inputs = setup(wl, args.seed, workdir)
        ops = corpus.ops
        if not args.trace:
            measured = checked = Pass(wl.run, ops, args.seconds, MIN_OPS)
            who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
            failures = gate(wl, checked)
            metrics, failed = end_to_end(wl, measured, failures, setup_s, who)
            same_verdicts = True
        else:
            # untraced, then the same operations traced; each traced
            # operation is one root span, so reference units stay outside
            checked = Pass(in_process, ops, args.seconds / 2, MIN_OPS)
            tracer, counts = Tracer(), layers.LayerCounts()

            def traced(op):
                with tracer.span("bench"):
                    return in_process(op)

            layers.install(tracer, counts)
            try:
                measured = Pass(traced, ops, 0, 0, max_ops=len(checked.results))
            finally:
                tracer.uninstall()
            tracer.write(results_dir / f"spans-{tag}.jsonl")
            failures = gate(wl, checked)
            same_verdicts = measured.verdict_digest(wl) == checked.verdict_digest(wl)
            extra = {"trace.overhead_share": sum(measured.scaled) / sum(checked.scaled) - 1}
            if wl.name == "cli":
                extra.update(cli_process_costs(wl, ops, checked))
            metrics = layers.metrics(tracer, counts, extra)
            failed = sum(1 for i in range(len(measured.results))
                         if i % len(ops) in failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "why": wl.why, "mix": corpus.mix, "input_digest": corpus.digest,
        "verdict_digest": checked.verdict_digest(wl),
        "traced_verdicts_match": same_verdicts, "setup_repeats_agree": same_inputs,
        "ops": len(measured.results), "distinct_ops": len(ops),
        "wall_s": measured.wall,
        "unit_ms_median": statistics.median(checked.units) * 1e3,
        "raw_ops_per_s": len(checked.latencies) / sum(checked.latencies),
        "raw_latency_p50_ms": statistics.median(checked.latencies) * 1e3,
        "failed_share": failed / len(measured.results),
        "failures": {str(k): v for k, v in sorted(failures.items())[:5]},
    }
    result = {"correct": same_inputs and same_verdicts and failed == 0,
              "attempted": len(measured.results), "failed": failed,
              "metrics": metrics}
    (results_dir / f"{tag}.json").write_text(
        json.dumps({"info": info, **result}, indent=1), encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_share':44s} {info['failed_share']:>14.6g} ratio")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
