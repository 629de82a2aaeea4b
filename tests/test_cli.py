"""Tests for the command line interface: commands, exit codes, output
determinism."""

import json

import pytest

from singmap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_lens_5_2(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--lens", "5,2")
        assert code == 0
        data = json.loads(out)
        assert data["group"] == {
            "family": "cyclic",
            "label": "Z/5",
            "m": 1,
            "order": 5,
            "p": 5,
            "q": 2,
        }
        assert data["report"]["multiplicity"] == 3
        assert data["report"]["embedding_dimension"] == 4
        assert data["report"]["rational"] is True
        assert data["is_image_of_finite_map"] is True

    def test_e8_seifert(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--seifert", "2;(2,1)(3,2)(5,4)")
        assert code == 0
        data = json.loads(out)
        assert data["group"]["family"] == "I*"
        assert data["report"]["multiplicity"] == 2
        assert data["report"]["embedding_dimension"] == 3

    def test_not_negative_definite(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--seifert", "1;(2,1)(2,1)(2,1)")
        assert code == 3
        assert "negative definite" in err

    def test_infinite_fundamental_group(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--seifert", "2;(2,1)(3,1)(7,1)")
        assert code == 4
        assert "infinite" in err
        verdict = json.loads(out)
        assert verdict["family"] == "not-finite"
        assert verdict["is_image_of_finite_map"] is False
        assert verdict["euler"]["chi"] == "-1/42"

    def test_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--lens", "5;2")
        assert code == 2

    def test_missing_input(self, capsys):
        code, _, _ = run_cli(capsys, "classify")
        assert code == 2

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "e8.json"
        path.write_text(
            json.dumps(
                {
                    "graph": {
                        "weights": [-2] * 8,
                        "edges": [[0, 1], [0, 2], [0, 4], [2, 3], [4, 5], [5, 6], [6, 7]],
                    }
                }
            )
        )
        code, out, _ = run_cli(capsys, "classify", "--graph", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "icosahedral"
        assert data["group"]["family"] == "I*"

    def test_graph_rejects_non_star(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"graph": {"weights": [-2] * 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4]]}}
            )
        )
        code, _, err = run_cli(capsys, "classify", "--graph", str(path))
        assert code == 2
        assert "star" in err or "valence" in err

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"seifert": {"fibers": [[2, 1], [3, 2], [5, 4]]}},
            {"graph": {"weights": None}},
            {"lens": [5, 2.7]},
            {"lens": [True, 0]},
        ],
    )
    def test_malformed_descriptor(self, capsys, tmp_path, descriptor):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(descriptor))
        code, out, err = run_cli(capsys, "classify", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "classify", "--seifert", "3;(2,1)(3,1)(5,1)")
        _, second, _ = run_cli(capsys, "classify", "--seifert", "3;(2,1)(3,1)(5,1)")
        assert first == second


class TestMap:
    def test_lens_3_2(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--lens", "3,2")
        assert code == 0
        data = json.loads(out)
        assert data["map"] == ["u^3", "u*v", "v^3"]
        assert data["relations"]["relations"] == ["x2^3 - x1*x3"]

    def test_e8_map(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--seifert", "2;(2,1)(3,2)(5,4)")
        assert code == 0
        data = json.loads(out)
        assert len(data["map"]) == 3
        assert data["map_degrees"] == [12, 20, 30]
        assert data["relations"]["relations"] == ["27*x1^5 + 25*s5*x2^3 + 4*x3^2"]

    def test_smooth_identity(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--lens", "1,0")
        assert code == 0
        data = json.loads(out)
        assert data["map"] == ["u", "v"]
        assert data["relations"]["relations"] == []

    def test_unsupported_family(self, capsys):
        code, _, err = run_cli(capsys, "map", "--seifert", "2;(2,1)(2,1)(3,1)")
        assert code == 5
        assert "D'" in err

    def test_max_degree_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--lens", "5,2", "--max-degree", "12"
        )
        assert code == 0
        data = json.loads(out)
        assert data["relations"]["degree_bound"] == 12

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--lens", "2,1", "--text")
        assert code == 0
        assert "map components:" in out
        assert "u^2" in out
        assert "o weight -2" in out
        assert "complete: True, stop reason: wahl-count" in out

    def test_degree_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGMAP_DEGREE_CAP", "10")
        code, out, _ = run_cli(capsys, "map", "--lens", "5,2")
        assert code == 0
        data = json.loads(out)
        assert data["relations"]["degree_bound"] == 10
        # the three relations of L(5,2) have weighted degrees 8, 9 and 10
        assert data["relations"]["complete"] is True
        assert "warnings" not in data


    def test_degree_cap_short_of_wahl_count_warns(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGMAP_DEGREE_CAP", "9")
        code, out, _ = run_cli(capsys, "map", "--lens", "5,2")
        assert code == 0
        data = json.loads(out)
        body = data["relations"]
        assert len(body["relations"]) == 2
        assert body["complete"] is False
        assert body["expected_relation_count"] == 3
        assert body["stop_reason"] == "degree-bound"
        assert body["degree_bound"] == 9
        assert any("incomplete" in w for w in data["warnings"])

    def test_lens_19_1_stops_at_wahl_count(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--lens", "19,1")
        assert code == 0
        body = json.loads(out)["relations"]
        assert len(body["relations"]) == 171
        assert body["degree_bound"] == 722
        assert body["complete"] is True
        assert body["expected_relation_count"] == 171
        assert body["stop_reason"] == "wahl-count"

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("lens", ["5,2", "1,0"])
    def test_degree_cap_env_below_one(self, capsys, monkeypatch, cap, lens):
        monkeypatch.setenv("SINGMAP_DEGREE_CAP", cap)
        code, out, err = run_cli(capsys, "map", "--lens", lens)
        assert code == 2
        assert out == ""
        assert "SINGMAP_DEGREE_CAP" in err and err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_max_degree_below_one(self, capsys, bound):
        code, out, err = run_cli(capsys, "map", "--lens", "5,2", "--max-degree", bound)
        assert code == 2
        assert out == ""
        assert "--max-degree" in err and err.count("\n") == 1


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["cyclic-table", "ade-equations", "group-orders"]
    )
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])
