"""Acceptance suite: every criterion is exercised at its stated tolerance
(exact equality throughout; there are no approximate comparisons) and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they pass.
"""

import json
import random
import time
from fractions import Fraction as Q

import pytest

from conftest import (E1_DOC, gen_class_c, gen_first_class, gen_general,
                      gen_ordinary, gen_quantified, gen_tolerable_nonempty,
                      gen_wide_ordinary, random_point)
from pilsys.cones import special_class_unbounded_equality
from pilsys.exact import recession_cone
from pilsys.membership import (member_ae, member_ae_kernel, member_kernel,
                               member_tolerable, member_united,
                               strict_kernel_member, validate_certificate,
                               witness_resubstitutes)
from pilsys.oracle import (ae_vertex_oracle, fm_member_oracle,
                           member_first_class, rasterize)
from pilsys.unbounded import (Rule, Status, decide_unbounded, find_base_points,
                              probe_ray)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_example_geometry(e1):
    start = time.monotonic()
    sys = e1.system
    for x in ([1, 0], [1, -1], [1, -5]):
        assert member_united(sys, [Q(a) for a in x])[0]
    for x in ([1, 1], [1, Q(1, 2)], [0, 0]):
        assert not member_united(sys, [Q(a) for a in x])[0]
    for a in (Q(1), Q(-3), Q(7, 2), Q(0)):
        assert member_kernel(sys, [Q(0), a])[0]
    assert not member_kernel(sys, [Q(1), Q(-1)])[0]
    assert not member_kernel(sys, [Q(1), Q(0)])[0]
    grid = rasterize(sys, None, (Q(-2), Q(2), Q(-6), Q(1)), 33)
    xs = [Q(-2) + Q(i, 32) * 4 for i in range(33)]
    ys = [Q(-6) + Q(j, 32) * 7 for j in range(33)]
    for i in range(33):
        for j in range(33):
            assert grid[i][j] == (xs[i] == 1 and ys[j] <= 0)
    elapsed = time.monotonic() - start
    assert elapsed < 5
    ok(1, f"Example-1 geometry exact, raster 33x33, {elapsed:.2f}s")


def test_criterion_2_oettli_prager_equivalence():
    start = time.monotonic()
    rng = random.Random(102)
    systems = [gen_ordinary(rng) for _ in range(50)]
    for sys in systems:
        for _ in range(50):
            x = random_point(rng, sys.n)
            a = oettli(sys, x)
            b = member_united(sys, x)[0]
            c = fm_member_oracle(sys, x)
            assert a == b == c
    elapsed = time.monotonic() - start
    assert elapsed < 60
    ok(2, f"50 ordinary systems x 50 points, 3-way agreement, {elapsed:.1f}s")


def oettli(sys, x):
    from pilsys.oracle import oettli_prager_member
    return oettli_prager_member(sys, x)


def test_criterion_3_first_class_equivalence():
    rng = random.Random(103)
    for _ in range(30):
        sys = gen_first_class(rng)
        for _ in range(50):
            x = random_point(rng, sys.n)
            assert member_first_class(sys, x) == member_united(sys, x)[0]
    ok(3, "30 first-class systems x 50 points, 100% agreement")


def test_criterion_4_theorem2_probes_exit():
    rng = random.Random(104)
    probed = 0
    for _ in range(100):
        sys = gen_general(rng, K=rng.randint(1, 3))
        base_points = find_base_points(sys, budget=4)
        if not base_points:
            continue
        directions = []
        attempts = 0
        while len(directions) < 10 and attempts < 40:
            attempts += 1
            y = random_point(rng, sys.n)
            if any(v != 0 for v in y) and not member_kernel(sys, y)[0]:
                directions.append(y)
        for y in directions:
            for x0 in base_points:
                rep = probe_ray(sys, None, x0, y)
                assert rep.first_exit is not None, \
                    "kernel-false direction survived a probe"
                assert rep.first_exit <= 2 ** 16
                probed += 1
    assert probed > 500
    ok(4, f"{probed} probes from base points, all exited by alpha <= 2^16")


def test_criterion_5_theorem3_probes_pass():
    rng = random.Random(105)
    certified = 0
    for _ in range(12):
        sys = gen_wide_ordinary(rng) if rng.random() < 0.7 else gen_ordinary(rng)
        for _ in range(3):
            y = random_point(rng, sys.n)
            if not strict_kernel_member(sys, y)[0]:
                continue
            v = decide_unbounded(sys, None, y)
            if v.status is Status.CERTIFIED_YES and v.rule is Rule.THM3:
                rep = probe_ray(sys, None, v.evidence, y)
                assert rep.exhausted, "THM3-certified ray exited"
                certified += 1
    assert certified > 5
    ok(5, f"{certified} strict-kernel certifications, probes clean through 2^20")


def test_criterion_6_ae_equivalence():
    rng = random.Random(106)
    falses = 0
    for _ in range(20):
        nf, ne = rng.randint(1, 2), rng.randint(1, 2)
        sys, quant = gen_quantified(rng, n_forall=nf, n_exists=ne)
        for _ in range(25):
            x = random_point(rng, sys.n)
            got, cert = member_ae(sys, quant, x)
            assert got == ae_vertex_oracle(sys, quant, x)
            if not got:
                falses += 1
                assert validate_certificate(sys, quant, x, cert)
    assert falses > 50
    ok(6, f"20 AE systems x 25 points agree with vertex oracle; "
          f"{falses} separators validated")


def test_criterion_7_theorem7_property():
    rng = random.Random(107)
    kernel_true_checked = 0
    kernel_false_checked = 0
    for trial in range(20):
        col = 0 if trial % 2 == 0 else None
        tsys, x0 = gen_tolerable_nonempty(rng, common_kernel_col=col)
        assert member_tolerable(tsys, x0)[0]
        combined, quant = tsys.combined()
        directions = [[Q(0), Q(0)]]
        if col is not None:
            directions.append([Q(1) if j == col else Q(0) for j in range(2)])
        while len(directions) < 10:
            directions.append(random_point(rng, tsys.base.n, -2, 2))
        for y in directions[:10]:
            if not any(y):
                with pytest.raises(ValueError, match="not a direction"):
                    decide_unbounded(combined, quant, y)
                continue
            v = decide_unbounded(combined, quant, y)
            if member_ae_kernel(combined, quant, y)[0]:
                rep = probe_ray(combined, quant, x0, y)
                assert rep.exhausted, "tolerable-kernel ray exited"
                assert v.rule is Rule.THM7 and v.status is not Status.CERTIFIED_NO
                kernel_true_checked += 1
            else:
                assert v.status is Status.CERTIFIED_NO and v.rule is Rule.THM2
                rep = probe_ray(combined, quant, x0, y)
                assert rep.first_exit is not None, \
                    "non-kernel tolerable direction survived a probe"
                assert rep.first_exit <= 2 ** 16
                kernel_false_checked += 1
    assert kernel_true_checked >= 20 and kernel_false_checked >= 20
    ok(7, f"20 tolerable systems: {kernel_true_checked} kernel rays clean, "
          f"{kernel_false_checked} non-kernel rays exit and CERTIFIED_NO")


def test_criterion_8_propositions_piece_identity():
    rng = random.Random(108)
    pieces_checked = 0
    systems = [gen_ordinary(rng) for _ in range(10)] + \
        [gen_class_c(rng) for _ in range(5)]
    for sys in systems:
        rep = special_class_unbounded_equality(sys)
        if rep.sigma_empty:
            continue
        assert rep.verified
        from pilsys.cones import decompose
        dec = decompose(sys)
        for piece in dec.pieces:
            if not piece.nonempty:
                continue
            rc = recession_cone(piece.solution_piece)
            for _ in range(100):
                y = random_point(rng, sys.n)
                assert rc.contains(y) == piece.kernel_piece.contains(y)
            pieces_checked += 1
    assert pieces_checked > 10
    ok(8, f"recession/kernel piece identity on {pieces_checked} nonempty pieces, "
          f"100 directions each")


def test_criterion_9_certificate_validity():
    rng = random.Random(109)
    infeasible = 0
    witnesses = 0
    while infeasible < 200:
        mode = rng.randrange(3)
        if mode == 0:
            sys = gen_general(rng)
            x = random_point(rng, sys.n)
            got, cert = member_united(sys, x)
            quant = None
        elif mode == 1:
            sys, quant = gen_quantified(rng, n_forall=1, n_exists=1)
            x = random_point(rng, sys.n)
            got, cert = member_ae(sys, quant, x)
        else:
            tsys, _ = gen_tolerable_nonempty(rng)
            sys, quant = tsys.combined()
            x = random_point(rng, tsys.base.n)
            got, cert = member_tolerable(tsys, x)
        if got:
            assert witness_resubstitutes(sys, x, cert)
            witnesses += 1
        else:
            assert validate_certificate(sys, quant, x, cert)
            infeasible += 1
    ok(9, f"200 separators validated exactly; {witnesses} witnesses resubstituted")


def test_criterion_10_determinism(tmp_path, capsys):
    from pilsys.cli import main
    path = tmp_path / "E1.json"
    path.write_text(json.dumps(E1_DOC))
    outs = []
    for _ in range(2):
        code = main(["verify", str(path), "--samples", "15", "--seed", "5"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    with capsys.disabled():
        ok(10, "repeated verify runs with identical seeds are byte-identical")
