"""Tests for the command line interface: commands, exit codes, output
determinism."""

import json
import time

import pytest

from singmap import pipeline
from singmap.cli import main
from singmap.relations import MAX_CYCLIC_RELATIONS


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

    # classify checks the plumbing before it recognizes the family: the
    # last two links would read as non-normal-form (exit 2) the other way
    @pytest.mark.parametrize("text, e", [
        ("1;(2,1)(2,1)(2,1)", "1/2"),
        ("0;(2,1)", "1/2"),
        ("0;(3,1)(3,2)", "1"),
    ])
    def test_not_negative_definite(self, capsys, text, e):
        code, out, err = run_cli(capsys, "classify", "--seifert", text)
        assert code == 3 and out == ""
        assert err == (
            f"error: plumbing is not negative definite (e(L) = {e}); not a singularity link\n"
        )

    def test_non_normal_form_after_plumbing(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--seifert", "1;(2,1)")
        assert code == 2 and out == ""
        assert err == "error: central weight -b with b = 1 is not in normal form\n"

    def test_infinite_fundamental_group(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--seifert", "2;(2,1)(3,1)(7,1)")
        assert code == 4
        assert err == "error: fundamental group is infinite (chi = -1/42, e = -43/42)\n"
        verdict = json.loads(out)
        assert verdict["family"] == "not-finite"
        assert verdict["is_image_of_finite_map"] is False
        assert verdict["euler"]["chi"] == "-1/42"

    def test_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--lens", "5;2")
        assert code == 2

    @pytest.mark.parametrize("command", ["classify", "map"])
    @pytest.mark.parametrize("flag, text", [
        ("--lens", "1_1,2"),                        # int() reads 1_1 as 11
        ("--lens", "5,+2"),
        ("--lens", "\u0665,2"),                     # Arabic-Indic five
        ("--lens", "5,2.0"),
        ("--lens", "5,-2"),
        ("--lens", "5,\u00a02"),                    # no-break space
        ("--seifert", "\u0662;(2,1)(3,2)(5,4)"),    # Arabic-Indic two
        ("--seifert", "2;(2,1)(3,\u0662)(5,4)"),
        ("--seifert", "2;(2,1)(3,2)(5,+4)"),
    ])
    def test_malformed_number_in_shorthand(self, capsys, command, flag, text):
        code, out, err = run_cli(capsys, command, flag, text)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cannot parse" in err and "shorthand" in err

    @pytest.mark.parametrize("flag, text, same_as", [
        ("--lens", " 5 , 2 ", "5,2"),
        ("--lens", "05,2", "5,2"),
        ("--seifert", " 2 ; ( 2 , 1 )(3,2)(5,4) ", "2;(2,1)(3,2)(5,4)"),
    ])
    def test_spaces_and_leading_zeros_in_shorthand(self, capsys, flag, text, same_as):
        code, out, _ = run_cli(capsys, "classify", flag, text)
        assert code == 0
        assert json.loads(out) == json.loads(run_cli(capsys, "classify", flag, same_as)[1])

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
            {"lens": [5, 2], "seifert": {}},
            {"seifert": {"b": 2, "fibers": [[2, 1], [3, 1], [5, 1]]}, "graph": {"weights": [-2]}},
            {"unknown": 1},
            # E8 with fibers misspelled, and keys that no descriptor has
            {"seifert": {"b": 2, "fiber": [[2, 1], [3, 2], [5, 4]]}},
            {"lens": [5, 2], "extra": 1},
            {"graph": {"weights": [-2], "edge": []}},
        ],
    )
    def test_malformed_descriptor(self, capsys, tmp_path, descriptor):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(descriptor))
        code, out, err = run_cli(capsys, "classify", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, key", [
        ('{"lens": [5, 2], "lens": [7, 2]}', "lens"),
        ('{"seifert": {"b": 2, "b": 3, "fibers": [[2, 1], [3, 2], [5, 4]]}}', "b"),
    ])
    def test_repeated_key_rejected(self, capsys, tmp_path, text, key):
        # json.load alone would keep the last value without a word
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "classify", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: descriptor repeats the key {key!r}\n"

    @pytest.mark.parametrize("fiber", [(1, 3), (1, 1)])
    def test_nontrivial_p1_fiber_rejected(self, capsys, tmp_path, fiber):
        p, q = fiber
        path = tmp_path / "p1.json"
        path.write_text(
            json.dumps({"seifert": {"b": 2, "fibers": [[2, 1], [2, 1], [3, 1], [p, q]]}})
        )
        for argv in (
            ("--seifert", f"2;(2,1)(2,1)(3,1)({p},{q})"),
            ("--graph", str(path)),
        ):
            code, out, err = run_cli(capsys, "classify", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: fiber ({p}, {q}) is not in normal form\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "classify", "--seifert", "3;(2,1)(3,1)(5,1)")
        _, second, _ = run_cli(capsys, "classify", "--seifert", "3;(2,1)(3,1)(5,1)")
        assert first == second


    def test_long_chain_is_fast(self, capsys):
        # L(400, 399): a chain of 399 (-2)-vertices; the lens closed form
        # sum a_i - 2(k - 1) gives multiplicity 2
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", "--lens", "400,399")
        elapsed = time.perf_counter() - start
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["multiplicity"] == 2 * 399 - 2 * (399 - 1) == 2
        assert report["embedding_dimension"] == 3
        assert report["fundamental_cycle"] == [1] * 399
        assert elapsed < 0.5, f"classify --lens 400,399 took {elapsed:.2f} s"

    def test_long_dihedral_leg_is_fast(self, capsys):
        # D_20003: Laufer's sequence adds about 20,000 vertices, each found
        # on the worklist rather than by a scan from vertex 0
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", "--seifert", "2;(2,1)(2,1)(20001,20000)")
        elapsed = time.perf_counter() - start
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["multiplicity"] == 2
        assert report["embedding_dimension"] == 3
        assert sum(report["fundamental_cycle"]) == 40003
        assert elapsed < 2.0, f"classify of D_20003 took {elapsed:.2f} s"

    def test_longer_dihedral_leg_needs_no_step_cap(self, capsys):
        # D_100005 takes more than 100,000 Laufer steps
        code, out, err = run_cli(capsys, "classify", "--seifert", "2;(2,1)(2,1)(100003,100002)")
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["multiplicity"] == 2

    @pytest.mark.parametrize("command", ["classify", "map"])
    def test_text_draws_a_long_chain(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--lens", "1500,1499", "--text")
        assert code == 0 and err == ""
        drawn = [line for line in out.splitlines() if line.lstrip() == "o weight -2"]
        assert len(drawn) == 1499
        assert drawn[-1] == "  " * 1498 + "o weight -2"


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

    def test_max_degree_at_the_last_relation_is_complete(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--lens", "5,2", "--max-degree", "10")
        assert code == 0
        data = json.loads(out)
        assert data["relations"]["degree_bound"] == 10
        # the three relations of L(5,2) have weighted degrees 8, 9 and 10
        assert data["relations"]["complete"] is True
        assert "warnings" not in data

    def test_max_degree_short_of_wahl_count_warns(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--lens", "5,2", "--max-degree", "9")
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

    def test_long_chain_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "map", "--lens", "400,399")
        elapsed = time.perf_counter() - start
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["map"] == ["u^400", "u*v", "v^400"]
        assert data["relations"]["relations"] == ["x2^400 - x1*x3"]
        assert data["relations"]["complete"] is True
        assert elapsed < 1.0, f"map --lens 400,399 took {elapsed:.2f} s"

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_max_degree_below_one(self, capsys, bound):
        code, out, err = run_cli(capsys, "map", "--lens", "5,2", "--max-degree", bound)
        assert code == 2
        assert out == ""
        assert "--max-degree" in err and err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_max_degree_below_one_without_a_relation_scan(self, capsys, bound):
        # the smooth point L(1,0) has no relation to scan for; the bound is
        # still read before any work
        code, out, err = run_cli(capsys, "map", "--lens", "1,0", "--max-degree", bound)
        assert (code, out) == (2, "")
        assert "--max-degree" in err and err.count("\n") == 1

    # int() reads the first three (underscores, signs, Arabic-Indic digits)
    NOT_ASCII_NUMBERS = ["1_2", "+3", "\u0661\u0662", "1 2"]

    @pytest.mark.parametrize("bound", NOT_ASCII_NUMBERS)
    def test_max_degree_takes_ascii_digits_only(self, capsys, bound):
        code, out, err = run_cli(capsys, "map", "--lens", "5,2", "--max-degree", bound)
        assert (code, out) == (2, "")
        assert err == f"error: --max-degree must be an integer in ASCII digits, got {bound!r}\n"

    @pytest.mark.parametrize("bound", [" 12 ", " 12\t", "\n12"])
    def test_max_degree_allows_ascii_whitespace(self, capsys, bound):
        code, out, err = run_cli(capsys, "map", "--lens", "5,2", "--max-degree", bound)
        assert (code, err) == (0, "")
        assert json.loads(out)["relations"]["degree_bound"] == 12

    def test_large_lens_map_is_refused(self, capsys):
        # L(1001, 1) has 1002 generators and Wahl's count 500,500, which is
        # refused from (p, q) before any listing
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "map", "--lens", "1001,1")
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert elapsed < 1.0, f"map --lens 1001,1 took {elapsed:.2f} s"

    def test_large_lens_map_is_refused_before_any_polynomial(self, capsys, monkeypatch):
        def no_polynomials(exponents):
            raise AssertionError(f"{len(exponents)} monomials built before the refusal")

        monkeypatch.setattr(pipeline, "monomials_from_exponents", no_polynomials)
        code, out, err = run_cli(capsys, "map", "--lens", "1001,1")
        assert (code, out) == (2, "")
        assert err == ("error: L(1001,1) has 500500 minimal relations, more than the "
                       f"{MAX_CYCLIC_RELATIONS} a map is built with\n")


class TestVerify:
    @pytest.mark.parametrize(
        "suite",
        ["cyclic-table", "ade-equations", "multiplicity-crosscheck", "group-orders", "invariance"],
    )
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestRepeatedCalls:
    # one process, one mixed sequence of calls run twice: no call may leave
    # state (argparse defaults, a degree bound, an error) for a later one
    SEQUENCE = [
        ["classify", "--lens", "5,2"],
        ["map", "--lens", "7,3", "--max-degree", "20"],
        ["map", "--seifert", "2;(2,1)(3,2)(5,4)"],
        ["classify", "--seifert", "2;(2,1)(3,1)(5,1)", "--text"],
        ["verify", "--suite", "cyclic-table"],
        ["map", "--lens", "5,2", "--max-degree", "0"],
        ["map", "--lens", "5,2"],
        ["classify", "--lens", "5,2", "--max-degree", "3"],
        ["classify", "--seifert", "2;(2,1)(3,1)(7,1)"],
    ]

    def run_sequence(self, capsys):
        results = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_same_answers_the_second_time(self, capsys):
        first = self.run_sequence(capsys)
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 2, 0, 2, 4]
        # the bound of the earlier map call is not kept by this one
        assert json.loads(first[6][1])["relations"]["degree_bound"] != 20
        assert "unrecognized arguments: --max-degree 3" in first[7][2]
        assert self.run_sequence(capsys) == first
