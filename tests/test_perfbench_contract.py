"""The benchmark's contract with the package, as a fast test.

A trimmed traced pass of each perfbench workload must run without a
failed operation, leave no layer that the workload is meant to load at
zero, and reproduce the recorded seed-0 digest of every checked
operation.  The pass runs `perfbench/child.py` in a fresh interpreter,
exactly as `perfbench/run.py` does; nothing under `perfbench/` is
changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
FIRST_OPS = 60
MAX_CHECK_M = 1


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and workloads modules, imported as run.py imports them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import run
        import workloads

        yield run, workloads


def _trimmed(ops: list[dict]) -> list[int]:
    """Indices of the first FIRST_OPS non-check operations and of the
    cuspidal checks with m <= MAX_CHECK_M, in workload order."""
    plain = [i for i, op in enumerate(ops) if "check" not in op][:FIRST_OPS]
    checks = [i for i, op in enumerate(ops) if "check" in op and op["m"] <= MAX_CHECK_M]
    return sorted(plain + checks)


@pytest.mark.parametrize("workload", ["unipotent-oracle", "character-oracle", "cli-queries"])
def test_traced_pass_keeps_the_benchmark_contract(bench, workload, tmp_path):
    run, workloads = bench
    ops = workloads.generate(workload, 0)
    indices = _trimmed(ops)
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
