import json

import pytest

from polyface import VertexSet, lop_vertices
from polyface.cli import main
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

    def test_oracle(self, capsys):
        code, stdout, _ = run(capsys, "generate", "lop-oracle", "--m", "4")
        assert code == 0
        assert "count=24" in stdout

    def test_missing_param_fails(self, capsys):
        code, _, stderr = run(capsys, "generate", "bqp")
        assert code == 1
        assert "--n" in stderr

    def test_cap_exceeded_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "generate", "lop", "--m", "9")
        assert code == 2
        code, _, _ = run(capsys, "generate", "lop-oracle", "--m", "7")
        assert code == 2

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
        code, _, _ = run(capsys, "verify", "dcp", "--m", "5")
        assert code == 2
        code, stdout, _ = run(
            capsys, "verify", "dcp", "--m", "5", "--max-cols", "32"
        )
        assert code == 0

    def test_cap_exceeded(self, capsys):
        code, _, stderr = run(capsys, "verify", "theorem1", "--n", "5")
        assert code == 2
        assert "budget" in stderr

    def test_env_var_overrides_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYFACE_MAX_PERMS", "10")
        code, _, _ = run(capsys, "verify", "theorem1", "--n", "2")
        assert code == 2

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYFACE_MAX_PERMS", "10")
        code, _, _ = run(
            capsys, "verify", "theorem1", "--n", "2", "--max-perms", "40320"
        )
        assert code == 0


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

    def test_face_check_with_certificate(self, capsys, lop3_file):
        code, stdout, _ = run(
            capsys, "geometry", "face", "--set", lop3_file,
            "--subset", "111", "--format", "json",
        )
        assert code == 0
        obj = json.loads(stdout)
        assert obj["details"]["certificate"]

    def test_named_subset_clique(self, capsys, tmp_path):
        path = tmp_path / "lop4.vs"
        path.write_text(lop_vertices(4).to_text())
        code, stdout, _ = run(
            capsys, "geometry", "clique", "--set", str(path),
            "--subset", "theorem1-face",
        )
        assert code == 0
        assert "PASS pairwise_adjacent" in stdout

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

    def test_missing_file(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "report", "--in", str(tmp_path / "absent.json")
        )
        assert code == 1
        assert "error" in stderr
