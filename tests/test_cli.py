import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import thetacalc
from thetacalc.cli import MAX_QUERY_SIZE, build_parser, main


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


@pytest.mark.parametrize("pair", ["sp:o+", "sp:o-", "u:u"])
@pytest.mark.parametrize("rank, corank", [("-1", "2"), ("2", "-1"), ("-3", "-3")])
def test_theta_partners_negative_rank_is_bad_input(capsys, pair, rank, corank):
    code, out, err = run_cli(
        capsys, "theta", "partners", "--pair", pair, "--rank", rank, "--corank", corank
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "negative" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "literal, message",
    [
        ('{"family":[]}', "unknown family"),
        ('{"family":"sp","n":null,"lambda1":"|","lambda2":"0|"}', "n must be an integer"),
        ('{"family":"sp","n":2.7,"lambda1":"|","lambda2":"0|"}', "n must be an integer"),
        ('{"family":"sp","n":0,"lambda1":null,"lambda2":"0|"}', "lambda1 must be a string"),
        ('{"family":"sp","n":1,"d0_blocks":5,"lambda1":"|","lambda2":"0|"}', "d0_blocks"),
        ('{"family":"o-odd","n":0,"lambda1":"0|","lambda2":"0|","sign":"x"}', "sign must be"),
        ('{"family":"sp","lambda1":"|","lambda2":"0|"}', "missing key 'n'"),
        ('{"family":"u","n":1,"lambda1":"1","lambda2":null,"bogus":1}', "unknown key 'bogus'"),
        ('{"family":"u","n":1,"lambda1":"1","lambda2":"7|3"}', "lambda2 must be null"),
    ],
)
def test_theta_first_char_bad_field(capsys, literal, message):
    code, out, err = run_cli(
        capsys, "theta", "first", "--target", "sp", "--char", literal
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_theta_first_cap_exceeded_is_a_failed_check(capsys, monkeypatch):
    from thetacalc import characters

    monkeypatch.setattr(characters, "corresponds", lambda rho, rho_prime: False)
    literal = '{"family":"sp","n":0,"lambda1":"|","lambda2":"0|"}'
    code, out, err = run_cli(
        capsys, "theta", "first", "--target", "o+", "--char", literal
    )
    assert code == 1 and out == ""
    assert err.startswith("error: cap-exceeded")


def test_out_unwritable(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "symbol-info", "1,0|", "--out", str(tmp_path / "missing" / "x")
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out")


def test_verify_negative_max_rank_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "all", "--max-rank", "-3"])
    _, err = capsys.readouterr()
    assert info.value.code == 2 and "error:" in err and "--max-rank" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "first", "--group", "sp", "--symbol", "40,30|20", "--target", "o+"],
        ["theta", "partners", "--pair", "sp:o+", "--rank", "30", "--corank", "30"],
        ["theta", "first", "--target", "u-even", "--char", '{"family":"u","n":100,"lambda1":"100"}'],
        ["theta", "first", "--group", "u", "--symbol", str(MAX_QUERY_SIZE + 1), "--target", "u-odd"],
        ["theta", "partners", "--pair", "u:u", "--rank", "0", "--corank", str(MAX_QUERY_SIZE + 1)],
    ],
)
def test_oversized_query_is_bad_input(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "query size limit" in err
    assert "Traceback" not in err


def test_query_at_the_size_limit_answers(capsys):
    code, out, err = run_cli(
        capsys, "theta", "first", "--group", "u", "--symbol", str(MAX_QUERY_SIZE),
        "--target", "u-odd", "--format", "json",
    )
    assert code == 0 and err == ""
    assert json.loads(out)[0]["agree"] is True


def _fresh_process(argv):
    """(exit, stdout, stderr) of `python -m thetacalc.cli argv` in a new
    interpreter, with help wrapped at 80 columns."""
    src = str(Path(thetacalc.__file__).resolve().parent.parent)
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "thetacalc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_repeated_calls_share_one_parser_and_leak_nothing(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["verify", "--suite", "symbol-lemmas", "--max-rank", "1", "--format", "json", "--seed", "7"],
        ["verify", "--suite", "symbol-lemmas"],
        ["verify", "--max-rank", "x"],
        ["--help"],
    ]
    built = build_parser.cache_info().misses
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv
    assert build_parser.cache_info().misses - built <= 1
