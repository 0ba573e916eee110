"""The package's layers as seen by the tracer, and the per-layer metrics.

Each traced boundary is a public function of one module; its span is named
``<module>.<function>`` (CLI subcommands as ``cli.<command>``).  Counts that
need to look at arguments or results (LP shapes and bit lengths, cascade
rules, nonempty pieces) are taken by observers at the same boundaries.
"""

from __future__ import annotations

import importlib
from collections import Counter

from tracer import Tracer

RULES = ("THM2", "THM3", "PROP1", "PROP2", "THM7", "PROBE")
COMMANDS = ("check", "kernel", "unbounded", "classify", "verify", "raster")
LP_SPANS = ("exact.lp_feasible", "exact.lp_maximize")

TIMED = {
    "exact": ("lin_solve", "lp_feasible", "lp_maximize", "fm_eliminate"),
    "model": ("residual_vectors", "classify", "parse_system"),
    "membership": ("member_united", "member_ae", "member_tolerable",
                   "member_kernel", "strict_kernel_member",
                   "strict_kernel_member_ae"),
    "unbounded": ("decide_unbounded", "find_base_points", "probe_ray"),
    "cones": ("decompose", "special_class_unbounded_equality"),
    "oracle": ("fm_member_oracle", "rasterize", "sample_solution_cloud"),
}


def _spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, funcs in TIMED.items():
        for f in funcs:
            out.append((f"{module}.{f}.calls", "count", "lower"))
            out.append((f"{module}.{f}.self_s", "s", "lower"))
    out += [
        ("exact.lp_feasible.infeasible_share", "ratio", "lower"),
        ("exact.lp.rows_mean", "rows", "lower"),
        ("exact.lp.dim_mean", "vars", "lower"),
        ("exact.lp.input_bits_max", "bits", "lower"),
        ("exact.lp.output_bits_max", "bits", "lower"),
        ("membership.lps_per_query", "count", "lower"),
        ("unbounded.lps_per_decision", "count", "lower"),
        ("unbounded.probe_lp_share", "ratio", "lower"),
    ]
    out += [(f"unbounded.rule.{r}.count", "count",
             "lower" if r == "PROBE" else "higher") for r in RULES]
    out.append(("cones.nonempty_share", "ratio", "higher"))
    out.append(("cli.main.self_s", "s", "lower"))
    for c in COMMANDS:
        out.append((f"cli.{c}.self_s", "s", "lower"))
        out.append((f"cli.{c}.process_overhead_ms", "ms", "lower"))
    out += [
        ("cli.import_ms", "ms", "lower"),
        ("cli.process_overhead_ms", "ms", "lower"),
        ("bench.self_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


PER_LAYER = _spec()


def _bits(values) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in values), default=0)


def _polyhedron_entries(P):
    for row in P.C:
        yield from row
    yield from P.d
    for row in P.E:
        yield from row
    yield from P.f


class LayerCounts:
    """Counts taken at the traced boundaries."""

    def __init__(self) -> None:
        self.lps = 0
        self.lp_rows = 0
        self.lp_dim = 0
        self.in_bits = 0
        self.out_bits = 0
        self.infeasible = 0
        self.rules: Counter = Counter()
        self.pieces = 0
        self.nonempty = 0

    def _lp(self, P, extra_in, out) -> None:
        self.lps += 1
        self.lp_rows += len(P.C) + len(P.E)
        self.lp_dim += P.dim
        self.in_bits = max(self.in_bits, _bits(_polyhedron_entries(P)), _bits(extra_in))
        self.out_bits = max(self.out_bits, _bits(out))

    def lp_feasible(self, args, res) -> None:
        if hasattr(res, "point"):
            out = res.point
        else:
            self.infeasible += 1
            out = list(res.ineq_mult) + list(res.eq_mult)
        self._lp(args[0], (), out)

    def lp_maximize(self, args, res) -> None:
        status, value, argmax = res
        out = [value] + list(argmax) if status == "optimal" else []
        self._lp(args[0], args[1], out)

    def decide_unbounded(self, args, res) -> None:
        self.rules[res.rule.value] += 1

    def decompose(self, args, res) -> None:
        self.pieces += len(res.pieces)
        self.nonempty += sum(1 for p in res.pieces if p.nonempty)


def install(tracer: Tracer, counts: LayerCounts) -> None:
    """Wrap every traced boundary of the package."""
    modules = {name: importlib.import_module(f"pilsys.{name}") for name in TIMED}
    cli = importlib.import_module("pilsys.cli")
    observers = {"lp_feasible": counts.lp_feasible,
                 "lp_maximize": counts.lp_maximize,
                 "decide_unbounded": counts.decide_unbounded,
                 "decompose": counts.decompose}
    targets = [(modules[mod], f, f"{mod}.{f}", observers.get(f))
               for mod, funcs in TIMED.items() for f in funcs]
    targets.append((cli, "main", "cli.main", None))
    targets += [(cli, f"cmd_{c}", f"cli.{c}", None) for c in COMMANDS]
    tracer.install("pilsys", targets)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def metrics(tracer: Tracer, counts: LayerCounts, extra: dict) -> dict:
    """Every per-layer metric; ``extra`` holds the values measured outside
    the traced pass (CLI process costs, tracing overhead)."""
    times = tracer.layer_times()
    values = {}
    for module, funcs in TIMED.items():
        for f in funcs:
            calls, _, self_s = times.get(f"{module}.{f}", (0, 0.0, 0.0))
            values[f"{module}.{f}.calls"] = calls
            values[f"{module}.{f}.self_s"] = self_s

    is_lp = [s[0] in LP_SPANS for s in tracer.spans]
    in_member = tracer.flags_under(lambda n: n.startswith("membership."))
    in_decide = tracer.flags_under(lambda n: n == "unbounded.decide_unbounded")
    in_probe = tracer.flags_under(lambda n: n == "unbounded.probe_ray")
    outer_member = sum(1 for s, flag in zip(tracer.spans, in_member)
                       if flag and (s[3] < 0 or not in_member[s[3]]))
    decide_lps = sum(1 for lp, d in zip(is_lp, in_decide) if lp and d)

    values.update({
        "exact.lp_feasible.infeasible_share":
            _ratio(counts.infeasible, values["exact.lp_feasible.calls"]),
        "exact.lp.rows_mean": _ratio(counts.lp_rows, counts.lps),
        "exact.lp.dim_mean": _ratio(counts.lp_dim, counts.lps),
        "exact.lp.input_bits_max": counts.in_bits,
        "exact.lp.output_bits_max": counts.out_bits,
        "membership.lps_per_query": _ratio(
            sum(1 for lp, m in zip(is_lp, in_member) if lp and m), outer_member),
        "unbounded.lps_per_decision": _ratio(
            decide_lps, values["unbounded.decide_unbounded.calls"]),
        "unbounded.probe_lp_share": _ratio(
            sum(1 for lp, d, p in zip(is_lp, in_decide, in_probe) if lp and d and p),
            decide_lps),
        "cones.nonempty_share": _ratio(counts.nonempty, counts.pieces),
    })
    for r in RULES:
        values[f"unbounded.rule.{r}.count"] = counts.rules[r]
    values["cli.main.self_s"] = times.get("cli.main", (0, 0.0, 0.0))[2]
    for c in COMMANDS:
        values[f"cli.{c}.self_s"] = times.get(f"cli.{c}", (0, 0.0, 0.0))[2]
        values[f"cli.{c}.process_overhead_ms"] = extra.get(f"cli.{c}.process_overhead_ms", 0.0)
    values["cli.import_ms"] = extra.get("cli.import_ms", 0.0)
    values["cli.process_overhead_ms"] = extra.get("cli.process_overhead_ms", 0.0)
    values["bench.self_s"] = times.get("bench", (0, 0.0, 0.0))[2]
    values["trace.overhead_share"] = extra["trace.overhead_share"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
