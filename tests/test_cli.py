import json

import pytest

from nmsflow.cli import main


def test_classify_human_output(capsys):
    assert main(["classify", "0", "1", "5", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "case 1: L(5,2) # RP3\nh1: Z/10\nprime: false\n"


def test_classify_human_output_with_intermediate(capsys):
    assert main(["classify", "2", "1", "3", "2"]) == 0
    out = capsys.readouterr().out
    assert out == ("case 7: SFS(S2; (2,1),(2,1),(3,2))\n"
                   "h1: Z/20\n"
                   "prime: true\n"
                   "intermediate seifert: (2,1),(2,1),(3,2)\n")


def test_classify_accepts_negative_arguments(capsys):
    assert main(["classify", "-1", "0", "7", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("case 4: L(3,1)\n")


def test_classify_json_case_one(capsys):
    assert main(["classify", "0", "1", "5", "2", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ('{"canonical": "L(5,2) # RP3", "case": 1, '
                   '"h1": {"free_rank": 0, "torsion": [10]}, '
                   '"input": [0, 1, 5, 2], "intermediate_seifert": null, '
                   '"kind": "essential", "prime": false}')
    payload = json.loads(out)
    assert payload["case"] == 1


def test_classify_json_case_seven(capsys):
    assert main(["classify", "2", "1", "3", "2", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ('{"canonical": "SFS(S2; (2,1),(2,1),(3,2))", "case": 7, '
                   '"h1": {"free_rank": 0, "torsion": [20]}, '
                   '"input": [2, 1, 3, 2], '
                   '"intermediate_seifert": [[2, 1], [2, 1], [3, 2]], '
                   '"kind": "essential", "prime": true}')


def test_classify_json_inessential_kind(capsys):
    assert main(["classify", "0", "2", "5", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "inessential"
    assert payload["canonical"] == "L(5,2) # RP3"


def test_classify_invalid_quadruple_exits_two(capsys):
    assert main(["classify", "2", "4", "1", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-coprime-pair")


def test_homeo(capsys):
    assert main(["homeo", "L(7,5)", "L(7,2)"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["homeo", "L(5,1)", "L(5,2)"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["homeo", "SFS(S2; (2,1),(3,1))", "S3"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["homeo", "SFS(S2; (2,1),(3,-1))", "S3"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_homeo_parse_error_exits_one(capsys):
    assert main(["homeo", "L(4,2)", "S3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "invalid-lens-parameters" in captured.err


def test_h1_command(capsys):
    assert main(["h1", "L(12,5) # RP3"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/12\n"
    assert main(["h1", "S3"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["h1", "not a manifold"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_enumerate_bound_one(capsys):
    assert main(["enumerate", "--bound", "1"]) == 0
    out = capsys.readouterr().out
    assert out == ("S3  h1=0  count=36  e.g. (-1, -1, -1, -1)\n"
                   "RP3  h1=Z/2  count=24  e.g. (-1, -1, 0, -1)\n"
                   "S2xS1 # RP3  h1=Z + Z/2  count=4  e.g. (0, -1, 0, -1)\n")


def test_negative_bound_is_a_usage_error(capsys):
    for argv in (["enumerate", "--bound", "-3"],
                 ["selfcheck", "--bound", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid bound" in captured.err


def test_selfcheck_command(capsys):
    assert main(["selfcheck", "--bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    passed = [line.split()[1] for line in out.splitlines()
              if line.startswith("PASS ")]
    assert passed == ["case-partition", "h1-case-formulas",
                      "h1-on-homeo-classes", "case7-obstructions",
                      "framing-involution", "snf-vs-cofactors",
                      "seifert-normal-forms", "key-preserves-h1",
                      "render-parse-roundtrip"]
    assert out.splitlines()[-1] == "selfcheck: all 9 hard checks passed"
