import json

import pytest

from thetacalc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbol_info_text(capsys):
    code, out, _ = run_cli(capsys, "symbol-info", "|2,1,0")
    assert code == 0
    assert "rank=2" in out and "defect=-3" in out and "delta=0" in out
    assert "cuspidal=True" in out and "series=sp" in out


def test_symbol_info_trivial(capsys):
    code, out, _ = run_cli(capsys, "symbol-info", "|")
    assert code == 0
    assert "rank=0" in out and "defect=0" in out and "delta=0" in out


def test_symbol_info_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "symbol-info", "1,0|2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records == json.loads(json.dumps(records))
    record = records[0]
    assert record["rank"] == 2 and record["defect"] == 1 and record["delta"] == 2
    assert record["upsilon_top"] == "" and record["upsilon_bottom"] == "2"


def test_symbol_info_parse_failure(capsys):
    code, _, err = run_cli(capsys, "symbol-info", "not-a-symbol")
    assert code == 2
    assert "error" in err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "sp", "--rank", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 1

    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "o+", "--rank", "1", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)) == 2

    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "u", "--rank", "3", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert {r["partition"] for r in records} == {"3", "2,1", "1,1,1"}


def test_enumerate_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "sp", "--rank", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "symbol,rank,defect,delta,upsilon_top,upsilon_bottom,cuspidal,series,partition"
    assert len(lines) == 1 + 6


def test_enumerate_deterministic(capsys):
    first = run_cli(capsys, "enumerate", "--group", "o-", "--rank", "3", "--format", "json")
    second = run_cli(capsys, "enumerate", "--group", "o-", "--rank", "3", "--format", "json")
    assert first == second


def test_theta_first_symbol(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "first", "--group", "sp", "--symbol", "|2,1,0",
        "--target", "o-", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["closed_dim"] == 2 and record["oracle_dim"] == 2
    assert record["agree"] is True

    code, out, _ = run_cli(
        capsys, "theta", "first", "--group", "sp", "--symbol", "|2,1,0",
        "--target", "o+", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["closed_dim"] == 8


def test_theta_first_unitary(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "first", "--group", "u", "--symbol", "2,1",
        "--target", "u-odd", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["closed_dim"] == 1 and record["partner"] == "1"


def test_theta_first_character_json(capsys):
    literal = json.dumps(
        {
            "family": "sp",
            "n": 3,
            "d0_blocks": [2],
            "lambda1": "1|0",
            "lambda2": "1,0|1",
            "sign": None,
        }
    )
    code, out, _ = run_cli(
        capsys, "theta", "first", "--char", literal, "--target", "o+",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["closed_dim"] == 6 and record["agree"] is True


def test_theta_partners(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "partners", "--pair", "sp:o+", "--rank", "0",
        "--corank", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"kind": "pair-list", "left": "0|", "right": "|"}]

    code, out, _ = run_cli(
        capsys, "theta", "partners", "--pair", "u:u", "--rank", "0",
        "--corank", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"kind": "pair-list", "left": "", "right": "1"}]


def test_theta_first_bad_input(capsys):
    code, _, err = run_cli(
        capsys, "theta", "first", "--group", "sp", "--symbol", "xx", "--target", "o+"
    )
    assert code == 2 and "error" in err
    # target not valid for a plain orthogonal-series symbol
    code, _, err = run_cli(
        capsys, "theta", "first", "--group", "o+", "--symbol", "1|0", "--target", "o-"
    )
    assert code == 2
    # unitary group takes only the unitary parity towers
    code, _, err = run_cli(
        capsys, "theta", "first", "--group", "u", "--symbol", "2,1", "--target", "o+"
    )
    assert code == 2 and "invalid for group u" in err
    # "1,0|" has defect 2, so it lies in the o- series, not in o+
    code, out, err = run_cli(
        capsys, "theta", "first", "--group", "o+", "--symbol", "1,0|", "--target", "sp"
    )
    assert code == 2 and out == "" and "not in the o+ series" in err


@pytest.mark.parametrize("literal", ["[]", "null", "3", '"sp"'])
def test_theta_first_char_not_an_object(capsys, literal):
    code, out, err = run_cli(
        capsys, "theta", "first", "--target", "o+", "--char", literal
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "symbol-lemmas", "--max-rank", "5"
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_unknown_suite_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "unknown-suite"])
    capsys.readouterr()
    assert info.value.code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "symbol-lemmas", "--max-rank", "3",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    for record in records:
        assert set(record) == {"kind", "check", "parameters", "expected", "actual", "pass"}
        assert record["pass"] is True


def test_verify_deterministic_with_seed(capsys):
    args = ("verify", "--suite", "preservation-u", "--seed", "42", "--format", "json")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "sp", "--rank", "1",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0 and out == ""
    content = target.read_text(encoding="utf-8")
    assert content.splitlines()[0].startswith("symbol,rank")
