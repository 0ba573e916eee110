import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from conftest import E1_DOC, E2_DOC, E3_DOC, gen_quantified, load
from pilsys import membership, model, oracle
from pilsys.cli import main
from pilsys.membership import Certificate, witness_resubstitutes

# (1 + p) x1 = q with p in [0, 1] universal and q in [-1, 1] existential:
# the set is |x1| <= 1/2, and x2 is free
TOL_RAY_DOC = {
    "m": 1, "n": 2, "constant": {"A": [["1", "0"]]},
    "parameters": [
        {"name": "p", "interval": ["0", "1"], "A": [["1", "0"]],
         "quantifier": "forall"},
        {"name": "q", "interval": ["-1", "1"], "b": ["1"],
         "quantifier": "exists"}],
}


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "E1.json"
    path.write_text(json.dumps(E1_DOC))
    return str(path)


@pytest.fixture
def e3_file(tmp_path):
    path = tmp_path / "E3.json"
    path.write_text(json.dumps(E3_DOC))
    return str(path)


@pytest.fixture
def tol_file(tmp_path):
    path = tmp_path / "TOL.json"
    path.write_text(json.dumps(TOL_RAY_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_member(self, capsys, e1_file):
        code, out, _ = run(capsys, "check", e1_file, "--point", "1,0")
        assert code == 0
        assert out.strip() == "MEMBER (witness p1 = 1)"

    def test_member_fraction(self, capsys, e1_file):
        code, out, _ = run(capsys, "check", e1_file, "--point", "1,-5")
        assert code == 0 and "p1 = 1/6" in out

    def test_nonmember_with_separator(self, capsys, e1_file):
        code, out, _ = run(capsys, "check", e1_file, "--point", "1,1")
        assert code == 0 and out.startswith("NOT A MEMBER (separator w =")

    def test_bad_vector(self, capsys, e1_file):
        code, _, err = run(capsys, "check", e1_file, "--point", "1")
        assert code == 1 and "error" in err

    def test_bad_point_entry(self, capsys, e1_file):
        code, out, err = run(capsys, "check", e1_file, "--point", "1,x")
        assert code == 1 and out == ""
        assert err.startswith("error: bad point vector")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.json", "--point", "1")
        assert code == 1

    def test_grouped_exponent_is_an_error(self, capsys, tmp_path):
        # "1e1_0000" would be a 33,220-bit integer, beyond the exponent cap
        path = tmp_path / "grouped.json"
        path.write_text(json.dumps({"m": 1, "n": 1,
                                    "constant": {"A": [["1"]], "b": ["1e1_0000"]}}))
        code, out, err = run(capsys, "check", str(path), "--point", "1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "underscore" in err

    def test_malformed_system(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "constant": 5}))
        code, _, err = run(capsys, "check", str(path), "--point", "1")
        assert code == 1 and err.startswith("error:")

    def test_undecodable_file_names_its_path(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "check", str(path), "--point", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and "utf-8" in err


class TestKernel:
    def test_in_kernel(self, capsys, e1_file):
        code, out, _ = run(capsys, "kernel", e1_file, "--dir", "0,-1")
        assert code == 0 and out.startswith("IN KERNEL")

    def test_strict_flag(self, capsys, e3_file):
        code, out, _ = run(capsys, "kernel", e3_file, "--dir", "1", "--strict")
        assert code == 0
        assert "STRICT: yes (eps = 1)" in out

    def test_not_in_kernel(self, capsys, e1_file):
        code, out, _ = run(capsys, "kernel", e1_file, "--dir", "1,0")
        assert code == 0 and out.startswith("NOT IN KERNEL")


class TestUnbounded:
    def test_e1_down(self, capsys, e1_file):
        code, out, _ = run(capsys, "unbounded", e1_file, "--dir", "0,-1")
        assert code == 0
        assert out.startswith("UNKNOWN by PROBE")
        assert "first exit = none" in out

    def test_e3_yes(self, capsys, e3_file):
        code, out, _ = run(capsys, "unbounded", e3_file, "--dir", "1")
        assert code == 0 and out.startswith("CERTIFIED_YES by THM3")

    def test_e1_no(self, capsys, e1_file):
        code, out, _ = run(capsys, "unbounded", e1_file, "--dir", "1,0")
        assert code == 0 and out.startswith("CERTIFIED_NO by THM2")

    def test_zero_direction_is_an_error(self, capsys, e1_file):
        code, out, err = run(capsys, "unbounded", e1_file, "--dir", "0,0")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not a direction" in err

    def test_zero_budget_finds_no_base_point(self, capsys, e1_file):
        code, out, _ = run(capsys, "unbounded", e1_file, "--dir", "0,-1",
                           "--budget", "0")
        assert code == 0
        assert out == "UNKNOWN by PROBE: no base point found\n"

    def test_decomposition_over_cap_probes(self, capsys, tmp_path):
        # x1 + a*x17 = 1, a in [0, 1]: ordinary with 2^17 orthants
        doc = {"m": 1, "n": 17,
               "constant": {"A": [["1"] + ["0"] * 16], "b": ["1"]},
               "parameters": [{"name": "a", "interval": ["0", "1"],
                               "A": [["0"] * 16 + ["1"]]}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "unbounded", str(path),
                             "--dir", ",".join(["0"] * 16 + ["1"]))
        assert code == 0 and err == ""
        assert out.startswith("UNKNOWN by PROBE: no exit through")


PINNED = [
    (("check", "E1", "--point", "1,0"), "MEMBER (witness p1 = 1)\n"),
    (("check", "E1", "--point", "1,-5"), "MEMBER (witness p1 = 1/6)\n"),
    (("check", "E1", "--point", "1,1"), "NOT A MEMBER (separator w = 0,1)\n"),
    (("kernel", "E1", "--dir", "0,-1", "--strict"),
     "IN KERNEL (witness p = 0)\nSTRICT: no (eps = 0)\n"),
    (("kernel", "E1", "--dir", "1,0", "--strict"),
     "NOT IN KERNEL (separator w = 1,0)\nSTRICT: no (eps = 0)\n"),
    (("kernel", "E3", "--dir", "1", "--strict"),
     "IN KERNEL (witness p = 0)\nSTRICT: yes (eps = 1)\n"),
    (("unbounded", "E1", "--dir", "0,-1"),
     "UNKNOWN by PROBE: no exit through alpha = 2^20 from base 1,-1; "
     "kernel: yes; strict: no\n"
     "probe: base = 1,-1, alphas tested = 22, first exit = none\n"),
    (("unbounded", "E1", "--dir", "0,1"),
     "UNKNOWN by PROBE: every probe exits; kernel: yes; strict: no\n"
     "probe: base = 1,-1, first exit = 2\n"
     "probe: base = 1,0, first exit = 1\n"
     "probe: base = 1,-1/3, first exit = 1\n"
     "probe: base = 1,-1/7, first exit = 1\n"),
    (("unbounded", "E1", "--dir", "1,0"),
     "CERTIFIED_NO by THM2: direction is not in the kernel\n"),
    (("unbounded", "E3", "--dir", "1"),
     "CERTIFIED_YES by THM3: strict kernel membership (eps = 1)\n"),
    # strictness alone proves the set nonempty: no sampled base point needed
    (("unbounded", "E3", "--dir", "1", "--budget", "0"),
     "CERTIFIED_YES by THM3: strict kernel membership (eps = 1)\n"),
    # the existential parameter touches only b: THM7 from a member base point
    (("unbounded", "TOL", "--dir", "0,1"),
     "CERTIFIED_YES by THM7: tolerable kernel holds; base 0,0\n"),
    # the orthant sign is a bound, counted with the rows: 2m + n each
    (("classify", "E3", "--decompose"),
     "ORDINARY,FIRST_CLASS,CLASS_C\ndecomposition: ORTHANT, 2 pieces\n"
     "piece +: nonempty, 3 solution rows, 3 kernel rows\n"
     "piece -: nonempty, 3 solution rows, 3 kernel rows\n"),
]


@pytest.mark.parametrize("argv,expected", PINNED,
                         ids=[" ".join(a) for a, _ in PINNED])
def test_pinned_stdout(capsys, e1_file, e3_file, tol_file, argv, expected):
    command, system, *rest = argv
    path = {"E1": e1_file, "E3": e3_file, "TOL": tol_file}[system]
    code, out, _ = run(capsys, command, path, *rest)
    assert code == 0
    assert out == expected
    assert "Fraction(" not in out


class TestClassify:
    def test_e1(self, capsys, e1_file):
        code, out, _ = run(capsys, "classify", e1_file)
        assert code == 0 and out.strip() == "FIRST_CLASS"

    def test_e3_decompose(self, capsys, e3_file):
        code, out, _ = run(capsys, "classify", e3_file, "--decompose")
        assert code == 0
        assert "ORDINARY" in out and "decomposition: ORTHANT, 2 pieces" in out


class TestRaster:
    def test_writes_csv(self, capsys, e1_file, tmp_path):
        out_path = str(tmp_path / "r.csv")
        code, out, _ = run(capsys, "raster", e1_file, "--window=-2,2,-6,1",
                           "--res", "9", "--set", "UNITED", "--out", out_path)
        assert code == 0
        lines = open(out_path).read().strip().split("\n")
        assert lines[0] == "x1,x2,member"
        assert len(lines) == 1 + 81

    def test_kernel_raster_keeps_the_file_quantifiers(self, capsys, tmp_path):
        # x1 + p x2 = 0 for every p in [0, 1]: the AE kernel is y = 0 alone,
        # though p = 1 would put (-1, 1) in the united kernel
        path = write(tmp_path, "forall.json", {
            "m": 1, "n": 2, "constant": {"A": [["1", "0"]], "b": ["0"]},
            "parameters": [{"name": "p", "interval": ["0", "1"],
                            "A": [["0", "1"]], "quantifier": "forall"}]})
        code, out, _ = run(capsys, "kernel", path, "--dir=-1,1")
        assert (code, out) == (0, "NOT IN KERNEL (separator w = -1)\n")
        out_path = tmp_path / "r.csv"
        code, _, _ = run(capsys, "raster", path, "--window=-1,1,-1,1",
                         "--res", "3", "--set", "KERNEL", "--out", str(out_path))
        assert code == 0
        cells = out_path.read_text().splitlines()[1:]
        assert "-1/1,1/1,0" in cells
        for cell in cells:
            x1, x2, flag = cell.split(",")
            code, out, _ = run(capsys, "kernel", path, f"--dir={x1},{x2}")
            assert out.startswith("IN KERNEL") == (flag == "1")
        assert [c for c in cells if c.endswith(",1")] == ["0/1,0/1,1"]

    def test_bad_window(self, capsys, e1_file, tmp_path):
        code, _, err = run(capsys, "raster", e1_file, "--window", "0,1",
                           "--res", "9", "--out", str(tmp_path / "r.csv"))
        assert code == 1

    @pytest.mark.parametrize("res", ["1", "513"])
    def test_bad_resolution(self, capsys, e1_file, tmp_path, res):
        out_path = tmp_path / "r.csv"
        code, out, err = run(capsys, "raster", e1_file, "--window=-2,2,-6,1",
                             "--res", res, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: resolution must be between 2 and 512\n"
        assert not out_path.exists()


# Two universal parameters listed first, then one existential parameter per
# row that touches only b: the layout of the benchmark's tolerable files.
TOL_DOC = {
    "m": 2, "n": 2,
    "constant": {"A": [["2", "1"], ["0", "3"]], "b": ["1", "2"]},
    "parameters": [
        {"name": "p0", "interval": ["0", "1"], "A": [["1", "0"], ["0", "0"]],
         "b": ["0", "1"], "quantifier": "forall"},
        {"name": "p1", "interval": ["-1", "1"], "A": [["0", "0"], ["1", "1"]],
         "b": ["1", "0"], "quantifier": "forall"},
        {"name": "r0", "interval": ["-4", "4"], "b": ["1", "0"],
         "quantifier": "exists"},
        {"name": "r1", "interval": ["-5", "5"], "b": ["0", "1"],
         "quantifier": "exists"}],
}
TOL_INTERLEAVED_DOC = dict(
    TOL_DOC, parameters=[TOL_DOC["parameters"][k] for k in (2, 0, 3, 1)])
# the existential rhs parameters alone, with no quantifier written
RHS_ONLY_DOC = dict(TOL_DOC, parameters=[
    {k: v for k, v in par.items() if k != "quantifier"}
    for par in TOL_DOC["parameters"][2:]])
NO_TOLERABLE_FORM = ("error: system has no tolerable form "
                     "(existential parameters touch the matrix)\n")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestTolerableFiles:
    @pytest.mark.parametrize("which", ["auto", "tolerable"])
    @pytest.mark.parametrize("point,expected", [
        ("0,0", "MEMBER (witness p0 = 0 p1 = -1 r0 = 0 r1 = -2)\n"),
        ("1/2,-1/3", "MEMBER (witness p0 = 0 p1 = -1 r0 = 2/3 r1 = -19/6)\n"),
        ("5,5", "NOT A MEMBER (separator w = 1,0)\n"),
    ])
    def test_universal_first_output_unchanged(self, capsys, tmp_path, which,
                                              point, expected):
        path = write(tmp_path, "tol.json", TOL_DOC)
        code, out, _ = run(capsys, "check", path, "--point", point,
                           "--set", which)
        assert code == 0 and out == expected

    @pytest.mark.parametrize("which", ["auto", "tolerable"])
    def test_interleaved_witness_in_file_order(self, capsys, tmp_path, which):
        path = write(tmp_path, "tol.json", TOL_INTERLEAVED_DOC)
        code, out, _ = run(capsys, "check", path, "--point", "1/2,-1/3",
                           "--set", which)
        assert code == 0
        assert out == "MEMBER (witness r0 = 2/3 p0 = 0 r1 = -19/6 p1 = -1)\n"
        tokens = out[len("MEMBER (witness "):-2].split()
        assert tokens[::3] == [par["name"] for par in TOL_INTERLEAVED_DOC["parameters"]]
        cert = Certificate.witness([Q(v) for v in tokens[2::3]])
        sys = load(TOL_INTERLEAVED_DOC).system
        assert witness_resubstitutes(sys, [Q(1, 2), Q(-1, 3)], cert)

    @pytest.mark.parametrize("doc", [E1_DOC, RHS_ONLY_DOC],
                             ids=["matrix", "no-quantifiers"])
    def test_tolerable_refused(self, capsys, tmp_path, doc):
        path = write(tmp_path, "sys.json", doc)
        code, out, err = run(capsys, "check", path, "--point", "1,0",
                             "--set", "tolerable")
        assert code == 1 and out == "" and err == NO_TOLERABLE_FORM

    @pytest.mark.parametrize("doc", [TOL_DOC, TOL_INTERLEAVED_DOC],
                             ids=["universal-first", "interleaved"])
    def test_raster_tolerable_is_ae(self, capsys, tmp_path, doc):
        path = write(tmp_path, "tol.json", doc)
        csvs = []
        for which in ("TOLERABLE", "AE"):
            out_path = tmp_path / f"{which}.csv"
            code, _, _ = run(capsys, "raster", path, "--window=-3,3,-3,3",
                             "--res", "7", "--set", which, "--out", str(out_path))
            assert code == 0
            csvs.append(out_path.read_text())
        assert csvs[0] == csvs[1] and ",1\n" in csvs[0]

    @pytest.mark.parametrize("doc", [E1_DOC, RHS_ONLY_DOC],
                             ids=["matrix", "no-quantifiers"])
    def test_raster_tolerable_refused(self, capsys, tmp_path, doc):
        path = write(tmp_path, "sys.json", doc)
        out_path = tmp_path / "r.csv"
        code, out, err = run(capsys, "raster", path, "--window=-3,3,-3,3",
                             "--res", "3", "--set", "TOLERABLE",
                             "--out", str(out_path))
        assert code == 1 and out == "" and err == NO_TOLERABLE_FORM
        assert not out_path.exists()


class TestVerify:
    def test_reports_agreement(self, capsys, e1_file):
        code, out, _ = run(capsys, "verify", e1_file, "--samples", "10")
        assert code == 0
        assert "0 disagreements" in out

    @pytest.mark.parametrize("oracle_name,file,label", [
        ("fm_member_oracle", "e1_file", "fm"),
        ("ae_vertex_oracle", "tol_file", "ae-vertex-vs-ae"),
    ])
    def test_disagreement_exits_2(self, capsys, monkeypatch, request,
                                  oracle_name, file, label):
        real = getattr(oracle, oracle_name)
        monkeypatch.setattr(oracle, oracle_name,
                            lambda *args: not real(*args))
        code, out, _ = run(capsys, "verify", request.getfixturevalue(file),
                           "--samples", "4")
        lines = out.splitlines()
        assert code == 2
        assert len(lines) == 5 and lines[-1] == "verify: 4 points, 4 disagreements"
        assert all(line.endswith(f"disagree: {label}") for line in lines[:-1])

    def test_byte_identical_given_seed(self, capsys, e1_file):
        _, out1, _ = run(capsys, "verify", e1_file, "--samples", "10", "--seed", "7")
        _, out2, _ = run(capsys, "verify", e1_file, "--samples", "10", "--seed", "7")
        assert out1 == out2

    def test_different_seed_changes_points(self, capsys, e1_file):
        _, out1, _ = run(capsys, "verify", e1_file, "--samples", "10", "--seed", "1")
        _, out2, _ = run(capsys, "verify", e1_file, "--samples", "10", "--seed", "2")
        assert out1 != out2

    def test_over_fm_cap_fails_before_sampling(self, capsys, tmp_path,
                                               monkeypatch):
        # x = p1 + ... + p13: square, so verify would sample 3^13 points
        doc = {"m": 1, "n": 1, "constant": {"A": [["1"]]},
               "parameters": [{"interval": ["0", "1"], "b": ["1"]}] * 13}
        path = tmp_path / "k13.json"
        path.write_text(json.dumps(doc))

        def never(*args, **kwargs):
            raise AssertionError("sampled a system no FM oracle accepts")

        monkeypatch.setattr(oracle, "solution_cloud", never)
        code, out, err = run(capsys, "verify", str(path), "--samples", "5")
        assert code == 1 and out == ""
        assert err == "error: K = 13 exceeds the FM oracle cap of 12\n"

    def test_no_samples_over_fm_cap_is_an_empty_report(self, capsys, tmp_path):
        doc = {"m": 1, "n": 1, "constant": {"A": [["1"]]},
               "parameters": [{"interval": ["0", "1"], "b": ["1"]}] * 13}
        path = tmp_path / "k13.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path), "--samples", "0")
        assert code == 0 and out == "verify: 0 points, 0 disagreements\n"

    def test_fm_growth_ends_in_an_error(self, capsys, tmp_path):
        # a dense 2x2 system with K = 8: the FM oracle's last projection
        # would pair millions of rows, far over its budget
        rng = random.Random(1)

        def mat():
            return [[str(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]

        def vec():
            return [str(rng.randint(-3, 3)) for _ in range(2)]

        doc = {"m": 2, "n": 2, "constant": {"A": mat(), "b": vec()},
               "parameters": [{"interval": ["0", "1"], "A": mat(), "b": vec()}
                              for _ in range(8)]}
        path = tmp_path / "dense8.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "--samples", "2")
        assert code == 1 and out == ""
        assert err == "error: Fourier-Motzkin projection exceeds 262144 rows\n"

    def test_cloud_tries_a_bounded_number_of_grid_points(self, capsys,
                                                          tmp_path,
                                                          monkeypatch):
        # A(p) has two equal rows at every p, so no grid point of the 3^12
        # gives a solution; the cloud gives up after oracle._CLOUD_CAP of
        # them, and the points are the seeded random ones they always were
        doc = {"m": 2, "n": 2,
               "constant": {"A": [["1", "2"], ["1", "2"]], "b": ["1", "2"]},
               "parameters": [{"interval": ["0", "1"],
                               "A": [["1", "0"], ["1", "0"]],
                               "b": ["1", "0"]}] * 12}
        path = tmp_path / "singular12.json"
        path.write_text(json.dumps(doc))
        solves = []
        real = oracle.lin_solve

        def counting(A, b):
            solves.append(1)
            return real(A, b)

        monkeypatch.setattr(oracle, "lin_solve", counting)
        code, out, _ = run(capsys, "verify", str(path), "--samples", "3")
        assert code == 0 and out == (
            "point 0,-3: member_united = False, all oracles agree\n"
            "point 1,0: member_united = True, all oracles agree\n"
            "point 1/2,3: member_united = False, all oracles agree\n"
            "verify: 3 points, 0 disagreements\n")
        assert len(solves) == oracle._CLOUD_CAP < 3 ** 12

    def test_cloud_stops_at_the_sample_count(self, capsys, tmp_path,
                                             monkeypatch):
        # x = p1 + ... + p9: its whole cloud is 3^9 grid points
        doc = {"m": 1, "n": 1, "constant": {"A": [["1"]]},
               "parameters": [{"interval": ["0", "1"], "b": ["1"]}] * 9}
        path = tmp_path / "k9.json"
        path.write_text(json.dumps(doc))
        solves = []
        real = oracle.lin_solve

        def counting(A, b):
            solves.append(1)
            if len(solves) > 100:
                raise AssertionError("sampled far more points than asked for")
            return real(A, b)

        monkeypatch.setattr(oracle, "lin_solve", counting)
        code, out, _ = run(capsys, "verify", str(path), "--samples", "3")
        assert code == 0 and out.endswith("verify: 3 points, 0 disagreements\n")
        assert len(solves) == 3


    def test_row_refuted_points_agree_with_fm(self, capsys, tmp_path,
                                              monkeypatch):
        # a seeded 2x3 system with one universal parameter: verify samples
        # random points, several of which one equation refutes alone, with
        # no LP, and the FM oracles agree with every verdict, united and AE
        sys, quant = gen_quantified(random.Random(31), 2, 3)
        path = tmp_path / "Q.json"
        path.write_text(model.serialize_system(
            model.ParsedSystem(sys, quant, True)))
        refuted = Counter()
        real = membership._Query.refute

        def spy(query, rows, *kept):
            failing = real(query, rows, *kept)
            refuted[failing is not None] += 1
            return failing

        monkeypatch.setattr(membership._Query, "refute", spy)
        code, out, _ = run(capsys, "verify", str(path), "--samples", "12",
                           "--seed", "3")
        assert code == 0 and out.endswith("verify: 12 points, 0 disagreements\n")
        assert refuted[True] >= 3 and refuted[False] >= 3, refuted

    # sha256 of the stdout of `verify E2.json --samples 20`, from before the
    # class and the interval data were read once per command
    E2_VERIFY = "b8e79fc8773a43023484fa4135ec55d4f22a91ced17155f50317f5e978f21238"

    def test_class_read_once_per_command(self, capsys, tmp_path, monkeypatch):
        # E2 is ordinary and first class, so every point takes both
        # characterization checks; each used to classify the system again
        path = tmp_path / "E2.json"
        path.write_text(json.dumps(E2_DOC))
        calls = Counter()

        def counted(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        for name in ("classify", "interval_data"):
            wrapped = counted(name, getattr(model, name))
            for module in (model, oracle):
                monkeypatch.setattr(module, name, wrapped)
        code, out, _ = run(capsys, "verify", str(path), "--samples", "20")
        assert code == 0 and out.endswith("verify: 20 points, 0 disagreements\n")
        assert hashlib.sha256(out.encode()).hexdigest() == self.E2_VERIFY
        assert calls["classify"] <= 2 and calls["interval_data"] <= 1, calls

    def test_oracles_still_refuse_the_wrong_class(self, e1):
        with pytest.raises(ValueError, match="not ordinary"):
            oracle.oettli_prager_member(e1.system, [Q(1), Q(0)])
        general = load({"m": 1, "n": 1, "parameters": [
            {"interval": ["0", "1"], "A": [["1"]]},
            {"interval": ["0", "1"], "A": [["1"]]}]}).system
        with pytest.raises(ValueError, match="not ordinary"):
            oracle.oettli_prager_member(general, [Q(1)])
        two_rows = load({"m": 2, "n": 1, "parameters": [
            {"interval": ["0", "1"], "A": [["1"], ["1"]]}]}).system
        with pytest.raises(ValueError, match="not of the first class"):
            oracle.member_first_class(two_rows, [Q(1)])


class TestUsage:
    def test_unknown_flag(self, capsys, e1_file):
        code, _, _ = run(capsys, "check", e1_file, "--point", "1,0", "--bogus")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_raster_unwritable_out(self, capsys, e1_file, tmp_path):
        out_path = str(tmp_path / "missing" / "r.csv")
        code, out, err = run(capsys, "raster", e1_file, "--window=-2,2,-6,1",
                             "--res", "3", "--out", out_path)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err

    @pytest.mark.parametrize("window", ["1,-1,-1,1", "-1,1,1,-1", "0,0,-1,1"])
    def test_raster_window_not_increasing(self, capsys, e1_file, tmp_path, window):
        out_path = tmp_path / "r.csv"
        code, out, err = run(capsys, "raster", e1_file, f"--window={window}",
                             "--res", "3", "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error: window must have x_lo < x_hi")

    def test_negative_budget(self, capsys, e1_file):
        code, out, err = run(capsys, "unbounded", e1_file, "--dir", "0,-1",
                             "--budget", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: --budget") and "islice" not in err

    def test_negative_samples(self, capsys, e1_file):
        code, out, err = run(capsys, "verify", e1_file, "--samples", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: --samples")


class TestEntryPoint:
    """``python -m pilsys.cli`` in a fresh interpreter, as a user runs it."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def fresh(self, *args):
        """A fresh interpreter that lists every import on stderr."""
        path = os.pathsep.join(filter(None, [str(self.SRC),
                                             os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True, timeout=120)

    @staticmethod
    def imported(stderr):
        return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
                if line.startswith("import time:")}

    def test_verify_builds_no_pieces(self, e3_file):
        # E3 is ordinary, and its Oettli-Prager check lives in oracle
        proc = self.fresh("-m", "pilsys.cli", "verify", e3_file,
                          "--samples", "4")
        assert proc.returncode == 0
        assert "all oracles agree" in proc.stdout
        loaded = self.imported(proc.stderr)
        assert "pilsys.oracle" in loaded
        assert not loaded & {"pilsys.cones", "pilsys.unbounded"}

    def test_fresh_process_matches_main(self, capsys, tmp_path, e1_file,
                                        e3_file):
        # what the interpreter loads before any of the package is not ours
        startup = self.imported(self.fresh("-c", "pass").stderr)
        csv = str(tmp_path / "e1.csv")
        for argv in (["check", e1_file, "--point", "1,-5"],
                     ["check", e1_file, "--point", "1,1", "--set", "united"],
                     ["kernel", e3_file, "--dir", "1", "--strict"],
                     ["kernel", e1_file, "--dir", "1,0"],
                     ["unbounded", e1_file, "--dir", "0,-1"],
                     ["unbounded", e3_file, "--dir", "0"],
                     ["classify", e1_file, "--decompose"],
                     ["raster", e1_file, "--window=-2,2,-2,2", "--res", "3",
                      "--out", csv],
                     ["verify", e3_file, "--samples", "4", "--seed", "2"]):
            proc = self.fresh("-m", "pilsys.cli", *argv)
            code, out, err = run(capsys, *argv)
            assert (proc.returncode, proc.stdout) == (code, out), argv
            assert [line for line in proc.stderr.splitlines()
                    if not line.startswith("import time:")] == \
                err.splitlines(), argv
            loaded = self.imported(proc.stderr) - startup
            assert "pilsys.exact" in loaded
            if argv[0] in ("check", "kernel"):
                assert {"pilsys.model", "pilsys.membership"} <= loaded
                assert not loaded & {"pilsys.cones", "pilsys.unbounded",
                                     "pilsys.oracle", "dataclasses"}, argv
