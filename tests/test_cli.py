import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyface
from polyface import CoordLayout, LinearForm, Report, VertexSet, bqp_vertices, lop_vertices
from polyface.cli import build_parser, main
from polyface.generators import Graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def lop3_file(tmp_path):
    path = tmp_path / "lop3.vs"
    path.write_text(lop_vertices(3).to_text())
    return str(path)


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.graph"
    path.write_text(Graph.from_edges(2, [(1, 2)]).render())
    return str(path)


def test_flags_and_defaults():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {
            ", ".join(a.option_strings) or a.dest: a.default
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, p in sub.choices.items()
    }
    outputs = {"--out": None, "--format": "text"}
    assert got == {
        "generate": {
            "family": None, "--n": None, "--m": None, "--graph": None, "--matrix": None,
            **outputs, "--max-perms": 40320, "--max-cols": 40,
        },
        "face": {"--set": None, "--system": None, "--face-out": None, **outputs},
        "verify": {
            "construction": None, "--n": None, "--graph": None, "--m": None,
            **outputs, "--max-perms": 40320, "--max-cols": 40,
        },
        "geometry": {
            "check": None, "--set": None, "--u": None, "--v": None, "--subset": None,
            "--k": None, **outputs,
        },
        "report": {"--in": None, "--format": "text"},
    }


def test_python_dash_m_runs_main(capsys):
    argv = ["verify", "theorem1", "--n", "3", "--format", "json"]
    src = str(Path(polyface.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "polyface", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    code, stdout, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout) == (code, stdout.encode()) and code == 0


class TestGenerate:
    def test_lop_m3(self, capsys, tmp_path):
        out = tmp_path / "lop3.vs"
        code, stdout, _ = run(
            capsys, "generate", "lop", "--m", "3", "--out", str(out)
        )
        assert code == 0
        assert "dim=3 count=6" in stdout
        assert VertexSet.from_text(out.read_text()) == lop_vertices(3)

    def test_bqp_n4(self, capsys):
        code, stdout, _ = run(capsys, "generate", "bqp", "--n", "4")
        assert code == 0
        assert "count=16" in stdout

    def test_lop_m1_warns_empty_dimension(self, capsys):
        code, stdout, stderr = run(capsys, "generate", "lop", "--m", "1")
        assert code == 0
        assert "count=1" in stdout
        assert "dimension 0" in stderr

    def test_json_output(self, capsys, tmp_path):
        out = tmp_path / "lop3.json"
        code, _, _ = run(
            capsys, "generate", "lop", "--m", "3",
            "--out", str(out), "--format", "json",
        )
        assert code == 0
        assert VertexSet.from_json(out.read_text()) == lop_vertices(3)

    def test_stable_from_graph_file(self, capsys, k2_file):
        code, stdout, _ = run(capsys, "generate", "stable", "--graph", k2_file)
        assert code == 0
        assert "dim=2 count=3" in stdout

    def test_dcp_from_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "b.m"
        path.write_text("cols 4\n1 2 3 4\n")
        code, stdout, _ = run(capsys, "generate", "dcp", "--matrix", str(path))
        assert code == 0
        assert "dim=4 count=6" in stdout

    def test_missing_param_fails(self, capsys):
        code, _, stderr = run(capsys, "generate", "bqp")
        assert code == 1
        assert "--n" in stderr

    def test_cap_exceeded_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "generate", "lop", "--m", "9")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("generate", "lop", "--m", "2000"),
        ("verify", "theorem1", "--n", "1000"),
    ])
    def test_huge_order_count_is_exit_2(self, capsys, argv):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1

    def test_huge_graph_is_exit_2(self, capsys, tmp_path):
        graph = tmp_path / "big.graph"
        # lemma1 refuses before the graph's system over lop(2n) is built
        for command, n in ((("generate", "stable"), 40), (("verify", "lemma1"), 1000)):
            graph.write_text(f"n {n}\n")
            code, _, stderr = run(capsys, *command, "--graph", str(graph))
            assert code == 2, command
            assert stderr.startswith("error:") and len(stderr.splitlines()) == 1

    def test_max_perms_flag(self, capsys):
        code, _, _ = run(capsys, "generate", "lop", "--m", "4", "--max-perms", "6")
        assert code == 2


class TestFaceCommand:
    def test_extracts_face(self, capsys, tmp_path, lop3_file):
        system = tmp_path / "sys.fs"
        system.write_text("layout lop 3\n1 0 0 = 0\n")
        face_out = tmp_path / "face.vs"
        code, stdout, _ = run(
            capsys, "face", "--set", lop3_file, "--system", str(system),
            "--face-out", str(face_out),
        )
        assert code == 0
        assert "face_size: 3" in stdout
        face = VertexSet.from_text(face_out.read_text())
        assert {v.to_string() for v in face} == {"000", "001", "011"}

    def test_face_out_follows_format(self, capsys, tmp_path, lop3_file):
        system = tmp_path / "sys.fs"
        system.write_text("layout lop 3\n1 0 0 = 0\n")
        face_out = tmp_path / "face.json"
        code, _, _ = run(
            capsys, "face", "--set", lop3_file, "--system", str(system),
            "--format", "json", "--face-out", str(face_out),
        )
        assert code == 0
        face = VertexSet.from_json(face_out.read_text())
        assert [v.to_string() for v in face] == ["000", "001", "011"]
        code, stdout, _ = run(
            capsys, "geometry", "adjacent", "--set", str(face_out), "--u", "0", "--v", "1"
        )
        assert code == 0
        assert "PASS adjacent" in stdout

    def test_unattained_equality_fails(self, capsys, tmp_path, lop3_file):
        system = tmp_path / "sys.fs"
        system.write_text("layout lop 3\n1 1 1 = 4\n")
        code, stdout, _ = run(
            capsys, "face", "--set", lop3_file, "--system", str(system)
        )
        assert code == 1
        assert (
            "FAIL supporting[0] y(1,2) + y(1,3) + y(2,3) = 4"
            "  [witness: valid as <= but attained by no vertex]"
        ) in stdout
        assert "face_size: 0" in stdout

    def test_not_supporting_fails(self, capsys, tmp_path, lop3_file):
        system = tmp_path / "sys.fs"
        system.write_text("layout lop 3\n2 0 0 = 1\n")
        code, _, stderr = run(
            capsys, "face", "--set", lop3_file, "--system", str(system)
        )
        assert code == 1
        assert "not supporting" in stderr.replace("-", " ")

    @pytest.mark.parametrize("header", ["layout bqp 2", "layout stable 3"])
    def test_system_over_another_layout_is_refused(self, capsys, tmp_path, lop3_file, header):
        # both layouts have lop(3)'s dimension 3
        system = tmp_path / "sys.fs"
        system.write_text(f"{header}\n1 0 0 = 0\n")
        code, stdout, stderr = run(
            capsys, "face", "--set", lop3_file, "--system", str(system)
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: vertex set over lop(3) against system over")
        assert stderr.count("\n") == 1

    def test_non_utf8_vertex_set_is_an_error(self, capsys, tmp_path):
        vs_path = tmp_path / "bad.vs"
        vs_path.write_bytes(lop_vertices(3).to_text().encode() + b"\xff\n")
        system = tmp_path / "sys.fs"
        system.write_text("layout lop 3\n1 0 0 = 0\n")
        code, stdout, stderr = run(
            capsys, "face", "--set", str(vs_path), "--system", str(system)
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ")


class TestVerify:
    def test_theorem1_passes(self, capsys):
        code, stdout, _ = run(capsys, "verify", "theorem1", "--n", "2")
        assert code == 0
        assert "PASS face_cardinality" in stdout
        assert "result: PASS" in stdout

    def test_theorem1_n3_lists_sequences(self, capsys):
        code, stdout, _ = run(capsys, "verify", "theorem1", "--n", "3")
        assert code == 0
        for seq in ("654321", "165432", "365214", "543216",
                    "316542", "514362", "532164", "531642"):
            assert seq in stdout

    def test_json_report_is_deterministic(self, capsys):
        code1, out1, _ = run(
            capsys, "verify", "theorem1", "--n", "2", "--format", "json"
        )
        code2, out2, _ = run(
            capsys, "verify", "theorem1", "--n", "2", "--format", "json"
        )
        assert code1 == code2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["construction"] == "theorem1"
        assert all(entry["pass"] for entry in obj["assertions"])

    def test_lemma1_with_graph_file(self, capsys, k2_file):
        code, stdout, _ = run(capsys, "verify", "lemma1", "--graph", k2_file)
        assert code == 0
        assert "result: PASS" in stdout
        assert "fibers" in stdout

    def test_dcp(self, capsys):
        code, stdout, _ = run(capsys, "verify", "dcp", "--m", "3")
        assert code == 0
        assert "dcp_size: 12" in stdout
        assert "face_size: 6" in stdout
        assert "rows: 4" in stdout

    def test_dcp_cap(self, capsys):
        # the m = 5 embedding has 32 columns and m = 6 has 52; the default cap is 40
        code, _, _ = run(capsys, "verify", "dcp", "--m", "5")
        assert code == 0
        code, _, _ = run(capsys, "verify", "dcp", "--m", "6")
        assert code == 2
        code, stdout, _ = run(
            capsys, "verify", "dcp", "--m", "6", "--max-cols", "52"
        )
        assert code == 0

    def test_cap_exceeded(self, capsys):
        # the face of n = 16 has 2^16 orders, over the default budget of 40320
        code, _, stderr = run(capsys, "verify", "theorem1", "--n", "16")
        assert code == 2
        assert "budget" in stderr


class TestGeometryCommand:
    def test_adjacent_false(self, capsys, lop3_file):
        code, stdout, _ = run(
            capsys, "geometry", "adjacent", "--set", lop3_file,
            "--u", "111", "--v", "000",
        )
        assert code == 1
        assert "FAIL adjacent" in stdout

    def test_adjacent_true(self, capsys, lop3_file):
        code, stdout, _ = run(
            capsys, "geometry", "adjacent", "--set", lop3_file,
            "--u", "111", "--v", "011",
        )
        assert code == 0
        assert "PASS adjacent" in stdout

    def test_index_selectors(self, capsys, lop3_file):
        code, _, _ = run(
            capsys, "geometry", "adjacent", "--set", lop3_file,
            "--u", "0", "--v", "1",
        )
        assert code in (0, 1)

    def test_selector_not_found(self, capsys, lop3_file):
        code, _, stderr = run(
            capsys, "geometry", "adjacent", "--set", lop3_file,
            "--u", "101", "--v", "000",
        )
        assert code == 1
        assert "not found" in stderr

    @pytest.mark.parametrize(
        "text, u, message",
        [
            # a one-vertex dim-1 set: bit string 0 is no vertex, index 0 is 1
            ("layout lop 2\n1\n", "0",
             "bit string 0 is not in the set, index 0 is vertex 1"),
            # a dim-2 subset: bit string 01 is no vertex, index 1 is 10
            ("layout stable 2\n00\n10\n11\n", "01",
             "bit string 01 is not in the set, index 1 is vertex 10"),
            # both readings name vertices, different ones
            ("layout stable 2\n01\n10\n11\n", "01",
             "bit string 01 is a vertex, index 1 is vertex 10"),
        ],
    )
    def test_ambiguous_selector(self, capsys, tmp_path, text, u, message):
        path = tmp_path / "set.vs"
        path.write_text(text)
        code, _, stderr = run(
            capsys, "geometry", "adjacent", "--set", str(path), "--u", u, "--v", "00",
        )
        assert code == 1
        assert f"ambiguous vertex selector '{u}'" in stderr
        assert message in stderr

    @pytest.mark.parametrize("family, argv, message", [
        ("lop", ["adjacent", "--u", "abc", "--v", "0"], "bad vertex selector: 'abc'"),
        ("lop", ["adjacent", "--u", "9", "--v", "0"], "vertex index 9 out of range [0, 6)"),
        ("lop", ["face", "--subset", "theorem1-face"],
         "needs a lop set on an even element count"),
        ("bqp", ["face", "--subset", "theorem1-face"],
         "needs a lop set on an even element count"),
        ("lop", ["face", "--subset", "theorem1-face", "0"],
         "cannot be mixed with other selectors"),
        ("lop", ["face"], "this check requires --subset"),
        ("lop", ["neighborly", "--k", "0"], "--k must be in [1, 6]"),
        ("lop", ["neighborly", "--k", "7"], "--k must be in [1, 6]"),
    ], ids=["bad_selector", "index_out_of_range", "theorem1_face_on_odd_lop",
            "theorem1_face_on_bqp", "theorem1_face_mixed", "no_subset", "k_zero", "k_too_big"])
    def test_refused_selector(self, capsys, tmp_path, family, argv, message):
        path = tmp_path / "set.vs"
        path.write_text((lop_vertices(3) if family == "lop" else bqp_vertices(2)).to_text())
        code, stdout, stderr = run(capsys, "geometry", argv[0], "--set", str(path), *argv[1:])
        assert code == 1 and stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]

    def test_selector_readings_that_agree(self, capsys, tmp_path):
        path = tmp_path / "lop2.vs"
        path.write_text(lop_vertices(2).to_text())
        code, stdout, _ = run(
            capsys, "geometry", "adjacent", "--set", str(path), "--u", "0", "--v", "1",
        )
        assert code == 0
        assert "PASS adjacent" in stdout

    def test_face_check_with_certificate(self, capsys, lop3_file):
        code, stdout, _ = run(
            capsys, "geometry", "face", "--set", lop3_file,
            "--subset", "111", "--format", "json",
        )
        assert code == 0
        obj = json.loads(stdout)
        assert obj["details"]["certificate"]

    def test_theorem1_face_certificate_holds_on_lop6(self, capsys, tmp_path, lop6):
        path = tmp_path / "lop6.vs"
        path.write_text(lop6.to_text())
        code, stdout, _ = run(
            capsys, "geometry", "face", "--set", str(path),
            "--subset", "theorem1-face", "--format", "json",
        )
        assert code == 0
        obj = json.loads(stdout)
        certificate = LinearForm.parse(obj["details"]["certificate"])
        face = set(obj["params"]["subset"])
        assert len(face) == 8 and len(lop6) == 720
        for v in lop6:
            value = certificate.evaluate(v)
            if v.to_string() in face:
                assert value == certificate.rhs
            else:
                assert value <= certificate.rhs - 1

    def test_named_subset_clique(self, capsys, tmp_path):
        path = tmp_path / "lop4.vs"
        path.write_text(lop_vertices(4).to_text())
        code, stdout, _ = run(
            capsys, "geometry", "clique", "--set", str(path),
            "--subset", "theorem1-face",
        )
        assert code == 0
        assert "PASS pairwise_adjacent" in stdout

    def test_named_subset_on_a_labelled_lop_set(self, capsys, tmp_path):
        lop4 = lop_vertices(4)
        labelled = VertexSet.from_words(CoordLayout("lop", 4, tuple("abcdef")), lop4.words)
        path = tmp_path / "lop4.vs"
        path.write_text(labelled.to_text())
        assert "labels a b c d e f" in path.read_text()
        code, stdout, _ = run(
            capsys, "geometry", "clique", "--set", str(path),
            "--subset", "theorem1-face", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(stdout)["params"]["subset"]) == 4

    def test_neighborly_sweep(self, capsys, tmp_path):
        path = tmp_path / "bqp2.vs"
        from polyface import bqp_vertices

        path.write_text(bqp_vertices(2).to_text())
        code, stdout, _ = run(
            capsys, "geometry", "neighborly", "--set", str(path), "--k", "2"
        )
        assert code == 0
        assert "subsets_checked: 6" in stdout

    def test_neighborly_all_triples(self, capsys, tmp_path):
        path = tmp_path / "bqp3.vs"
        from polyface import bqp_vertices

        path.write_text(bqp_vertices(3).to_text())
        code, stdout, _ = run(
            capsys, "geometry", "neighborly", "--set", str(path), "--k", "3"
        )
        assert code == 0
        assert "subsets_checked: 56" in stdout

    def test_neighborly_failure_names_first_subset(self, capsys, tmp_path):
        path = tmp_path / "lop4.vs"
        path.write_text(lop_vertices(4).to_text())
        code, stdout, _ = run(capsys, "geometry", "neighborly", "--set", str(path),
                              "--k", "2", "--format", "json")
        assert code == 1
        report = json.loads(stdout)
        assert report["assertions"] == [{
            "name": "all_2_subsets_are_faces", "pass": False,
            "witness": '["000000", "000111"]',
        }]
        assert report["details"] == {"subsets_checked": 5}


class TestReportCommand:
    def test_renders_stored_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "theorem1", "--n", "2", "--out", str(report_path)
        )
        assert code == 0
        code, stdout, _ = run(capsys, "report", "--in", str(report_path))
        assert code == 0
        assert "construction: theorem1" in stdout
        assert "result: PASS" in stdout

    def test_failing_report_exits_1(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({
            "construction": "demo",
            "params": {},
            "assertions": [{"name": "broken", "pass": False}],
            "details": {},
        }))
        code, stdout, _ = run(capsys, "report", "--in", str(report_path))
        assert code == 1
        assert "FAIL broken" in stdout

    def test_failing_report_round_trips(self, capsys, tmp_path):
        report = Report("demo", {"k": 2})
        report.check("broken", False, witness='["000000", "000111"]')
        text = report.to_json()
        assert Report.from_json_obj(json.loads(text)).to_json() == text
        report_path = tmp_path / "report.json"
        report_path.write_text(text)
        code, stdout, _ = run(capsys, "report", "--in", str(report_path))
        assert code == 1
        assert '  FAIL broken  [witness: ["000000", "000111"]]\n' in stdout

    def test_non_json_report_is_an_error(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_text("not json\n")
        code, stdout, stderr = run(capsys, "report", "--in", str(report_path))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: bad report JSON")
        assert len(stderr.splitlines()) == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "report", "--in", str(tmp_path / "absent.json")
        )
        assert code == 1
        assert "error" in stderr

    @pytest.mark.parametrize("obj", [
        [],
        {"construction": "demo", "params": "ab"},
        {"construction": "demo", "details": "x"},
        {"construction": "demo", "assertions": ["broken"]},
        {"construction": "demo", "assertions": [{"pass": False}]},
        {"construction": "demo", "assertions": [{"name": "x", "pass": "false"}]},
        {"construction": "demo", "assertions": [{"name": 7, "pass": True}]},
        {"construction": "demo", "assertions": [{"name": "x", "pass": False, "witness": 3}]},
        {"construction": "demo", "assertions": [{"name": "x", "pass": True, "witness": "w"}]},
        {"construction": 7, "assertions": []},
        {"construction": ["demo"], "assertions": []},
    ])
    def test_malformed_report_is_an_error(self, capsys, tmp_path, obj):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(obj))
        code, stdout, stderr = run(capsys, "report", "--in", str(report_path))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: bad report object")
        assert "Traceback" not in stderr

    def test_non_utf8_report_is_an_error(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_bytes(b"\xff\xfe{")
        code, stdout, stderr = run(capsys, "report", "--in", str(report_path))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ")
