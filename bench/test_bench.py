"""Checks of the benchmark itself: tracer accounting, tracing transparency,
seeded inputs and the metric names promised in BENCHMARK.json.

    python -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OPS = 24  # a prefix of each corpus keeps the tests short


def _corpus(name, seed, tmp_path):
    return workloads.WORKLOADS[name].build(seed, tmp_path)


def _traced(wl, ops, run_op):
    """Trace ``ops`` the way run.py does: one root span per operation."""
    tracer, counts = Tracer(), layers.LayerCounts()

    def traced(op):
        with tracer.span("bench"):
            return run_op(op)

    layers.install(tracer, counts)
    try:
        p = run.Pass(traced, ops, 0, 0, max_ops=len(ops))
    finally:
        tracer.uninstall()
    return tracer, counts, p


@pytest.mark.parametrize("name", ["membership", "unbounded", "cli"])
def test_traced_run_gives_the_same_verdicts(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    ops = _corpus(name, 3, tmp_path).ops[:OPS]
    run_op = getattr(wl, "run_inprocess", wl.run)
    plain = run.Pass(run_op, ops, 0, 0, max_ops=len(ops))
    _, _, traced = _traced(wl, ops, run_op)
    assert not plain.errors and not traced.errors
    assert traced.verdict_digest(wl) == plain.verdict_digest(wl)


@pytest.mark.parametrize("name", ["membership", "unbounded", "cli"])
def test_self_times_add_up_to_traced_wall_time(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    ops = _corpus(name, 4, tmp_path).ops[:OPS]
    tracer, counts, p = _traced(wl, ops, getattr(wl, "run_inprocess", wl.run))
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == len(ops) and all(s[0] == "bench" for s in roots)
    wall = sum(end - start for _, start, end, _ in roots)
    assert 0.99 * sum(p.latencies) <= wall <= sum(p.latencies)
    total_self = sum(self_s for _, _, self_s in tracer.layer_times().values())
    assert math.isclose(total_self, wall, rel_tol=1e-9)
    m = layers.metrics(tracer, counts, {"trace.overhead_share": 0.0})
    layer_self = sum(v["value"] for k, v in m.items()
                     if k.endswith(".self_s") and k != "bench.self_s")
    assert math.isclose(layer_self + m["bench.self_s"]["value"], wall, rel_tol=1e-9)


def test_every_binding_is_wrapped_and_restored():
    import pilsys
    from pilsys import cones, exact, membership, oracle, unbounded
    orig = exact.lp_feasible
    tracer = Tracer()
    layers.install(tracer, layers.LayerCounts())
    try:
        for mod in (pilsys, exact, membership, cones):
            assert mod.lp_feasible is not orig
            assert mod.lp_feasible.__wrapped__ is orig
        assert unbounded.member_kernel is membership.member_kernel
        assert oracle.member_united is membership.member_united
    finally:
        tracer.uninstall()
    for mod in (pilsys, exact, membership, cones):
        assert mod.lp_feasible is orig


def test_nested_spans_and_observers(tmp_path):
    wl = workloads.WORKLOADS["unbounded"]
    ops = [op for op in _corpus("unbounded", 5, tmp_path).ops if op.kind == "decide"][:6]
    tracer, counts, p = _traced(wl, ops, wl.run)
    names = [s[0] for s in tracer.spans]
    assert names.count("unbounded.decide_unbounded") == len(ops)
    assert sum(counts.rules.values()) == len(ops)
    lp_spans = sum(n in layers.LP_SPANS for n in names)
    assert lp_spans == counts.lps > 0
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for s in tracer.spans:
        if s[0] in layers.LP_SPANS:
            parent = by_index[s[3]]
            assert parent[1] <= s[1] <= s[2] <= parent[2]


@pytest.mark.parametrize("name", ["membership", "unbounded", "cli"])
def test_seed_fixes_the_inputs(name, tmp_path):
    corpora = []
    for sub, seed in (("a", 11), ("b", 11), ("c", 12)):
        (tmp_path / sub).mkdir()
        corpora.append(_corpus(name, seed, tmp_path / sub))
    a, b, c = corpora
    assert a.digest == b.digest != c.digest
    assert a.mix == c.mix


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(u, b) for _, u, b in layers.PER_LAYER]
    wl = workloads.WORKLOADS["membership"]
    p = run.Pass(wl.run, _corpus("membership", 1, tmp_path).ops[:OPS], 0, 0, max_ops=OPS)
    metrics, failed = run.end_to_end(wl, p, {}, 0.1, run.resource.RUSAGE_SELF)
    assert failed == 0
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v["unit"]) for k, v in metrics.items()]
