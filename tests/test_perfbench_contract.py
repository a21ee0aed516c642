"""The benchmark's contract with the package, as a fast test.

A traced pass over a sample of each perfbench workload must run without
a failed operation, leave no layer that the workload is meant to load at
zero, and reproduce the recorded seed-0 digest of every checked
operation.  The sample takes the first operation of every stratum of the
workload, so it reaches the largest inputs (rank-9 symbols, size-12
partitions) and not only the cheap start of a pass.  The pass runs
`perfbench/child.py` in a fresh interpreter, exactly as
`perfbench/run.py` does; nothing under `perfbench/` is changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
MAX_CHECK_M = 1


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and workloads modules, imported as run.py imports them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import run
        import workloads

        yield run, workloads


def _rows(literal: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in row.split(",") if x) for row in literal.split("|")]


def _stratum(op: dict, workloads) -> tuple | None:
    """What sets an operation's cost and kind, or None for the cuspidal
    checks with m > MAX_CHECK_M, which are left out for time."""
    if "source" in op:
        top, bottom = _rows(op["source"])
        return "symbol", (len(top) - len(bottom)) % 4, op["target"], workloads._rank(top, bottom)
    if "partition" in op:
        return "partition", op["parity"], sum(sum(row) for row in _rows(op["partition"]))
    if "check" in op:
        return ("check", op["check"], op["m"]) if op["m"] <= MAX_CHECK_M else None
    if "char" in op:
        char = json.loads(op["char"])
        # Block labels are positional and sort as strings, so from ten
        # blocks on the literal lists d0_blocks in label order, not by dim.
        return "char", char["family"], op["target"], char["n"], len(char["d0_blocks"]) >= 10
    return "cli", op["kind"], op.get("corruption"), op["argv"][-1]


def _sampled(ops: list[dict], workloads) -> list[int]:
    """Indices of the first operation of every stratum, in workload order."""
    first = {}
    for i, op in enumerate(ops):
        key = _stratum(op, workloads)
        if key is not None:
            first.setdefault(key, i)
    return sorted(first.values())


@pytest.mark.parametrize("workload", ["unipotent-oracle", "character-oracle", "cli-queries"])
def test_traced_pass_keeps_the_benchmark_contract(bench, workload, tmp_path):
    run, workloads = bench
    ops = workloads.generate(workload, 0)
    indices = _sampled(ops, workloads)
    if workload == "unipotent-oracle":
        strata = [_stratum(ops[i], workloads) for i in indices]
        assert max(s[-1] for s in strata if s[0] == "symbol") == workloads.UNIPOTENT_MAX_RANK
        assert max(s[-1] for s in strata if s[0] == "partition") == workloads.UNITARY_MAX_SIZE
    ops_file = tmp_path / "ops.json"
    ops_file.write_text(json.dumps([ops[i] for i in indices]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), workload, "trace", str(ops_file)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])

    assert result["failures"] == []
    idle = [name for name in run.LOADED[workload] if not result["layers"][name]]
    assert idle == []
    reference = json.loads(run.REFERENCE.read_text())[workload]["0"]["outputs"].split()
    assert len(reference) == len(ops)
    for index, got in zip(indices, result["digests"]):
        if reference[index] != "-":
            assert got == reference[index], f"op {index}: {ops[index]}"
