"""thetacalc benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of stdout is the JSON
result; the line before it names every metric with its unit.  The design
(workloads, metric definitions, correctness rules, baseline) is recorded
in design.json.

--record-reference runs one pass and stores its digests in
reference.json for the given seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import SAMPLE_EVERY_S, Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK_DIR = ROOT / ".perfbench"

SETUP_PROBES = 30
CHILD_TIMEOUT_S = 170

# Per-layer metrics that must not read zero on a workload: the layers
# each workload is chosen to load (see design.json).
LOADED = {
    "unipotent-oracle": (
        "partitions.self_s",
        "partitions.partition_of_beta.calls",
        "partitions.interleaves.calls",
        "partitions.interleaves.hit_ratio",
        "theta.self_s",
        "theta.in_b_relation.calls",
        "theta.in_b_relation.hit_ratio",
        "theta.oracle.calls",
        "theta.oracle.ranks_scanned",
        "symbols.self_s",
        "symbols.Symbol.built",
        "symbols.normalize.calls",
        "symbols.enumerate_series.misses",
    ),
    "character-oracle": (
        "characters.self_s",
        "characters.GeneralCharacter.built",
        "characters.corresponds.calls",
        "characters.corresponds.hit_ratio",
        "characters.oracle.sizes_scanned",
        "symbols.self_s",
        "symbols.Symbol.built",
        "symbols.normalize.calls",
        "symbols.enumerate_series.misses",
        "cuspidal.self_s",
    ),
    "cli-queries": (
        "symbols.self_s",
        "symbols.Symbol.built",
        "symbols.normalize.calls",
        "symbols.enumerate_series.misses",
        "symbols.enumerate_series.hit_ratio",
        "theta.self_s",
        "characters.self_s",
        "verify.self_s",
        "cli.self_s",
        "cli.main.calls",
    ),
}

UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def now() -> float:
    return time.monotonic()


def spawn(workload: str, mode: str, speed: Speed, ops_file: Path | None = None) -> dict:
    """Run child.py once, sampling the machine's speed before, during and
    after, and return its result with the time it was started at added."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), workload, mode]
    cmd += [str(ops_file)] if ops_file else []
    speed.sample()
    started = now()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        while True:
            try:
                out, err = proc.communicate(timeout=SAMPLE_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if now() - started > CHILD_TIMEOUT_S:
                    raise BenchError(f"{mode} pass ran over {CHILD_TIMEOUT_S} s") from None
                speed.sample(proc.pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    speed.sample()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    if not Path(result["thetacalc"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"thetacalc was imported from {result['thetacalc']}, not {SRC}")
    result["started"] = started
    return result


def scale(results: list[dict], speed: Speed) -> None:
    """Add each result's times, less sampling pauses, as timed (raw_) and
    at reference speed: set-up (from just before the interpreter was
    started to its first operation), import and each operation."""
    for r in results:
        r["raw_setup_s"] = speed.busy(r["started"], r["ready"])
        r["setup_s"] = speed.scale(r["started"], r["ready"])
        r["raw_import_s"] = speed.busy(r["import_start"], r["ready"])
        r["import_s"] = speed.scale(r["import_start"], r["ready"])
        if "starts" in r:
            spans = [(t, t + d) for t, d in zip(r["starts"], r["latencies"])]
            r["raw_op_s"] = [speed.busy(*span) for span in spans]
            r["op_s"] = [speed.scale(*span) for span in spans]


def digest_inputs(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def checked(ops: list[dict]) -> list[bool]:
    """Which operations have an output that must be reproduced exactly:
    all but the malformed CLI queries, whose error text may change."""
    return [op.get("valid", True) for op in ops]


def judge(ops, passes, reference) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct and notes over all passes of a run."""
    mask = checked(ops)
    expected = reference["outputs"].split() if reference else passes[0]["digests"]
    attempted = failed = 0
    correct = True
    notes = []
    for result in passes:
        failures = dict(result["failures"])
        for index, (want, got) in enumerate(zip(expected, result["digests"])):
            if mask[index] and index not in failures and got != want:
                failures[index] = "output differs from " + ("reference" if reference else "first pass")
        attempted += len(result["digests"])
        failed += len(failures)
        for index, why in sorted(failures.items()):
            if mask[index]:
                correct = False
            notes.append(f"op {index} ({ops[index].get('corruption', 'valid')}): {why}")
    return attempted, failed, correct, notes


def percentile_ms(values: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_operation(passes: list[dict], key: str = "op_s") -> list[float]:
    """Each operation's median time over the passes, so that a burst of load
    on the machine during one pass moves neither sums nor percentiles."""
    return [statistics.median(times) for times in zip(*(r[key] for r in passes))]


def end_to_end(passes, probes, attempted: int, failed: int, raw: bool = False) -> dict:
    """The end-to-end metrics; raw=True gives the times as timed instead of
    at reference speed."""
    prefix = "raw_" if raw else ""
    op = prefix + "op_s"
    latencies = per_operation(passes, op)
    return {
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in probes + passes),
        "import_s": statistics.median(r[prefix + "import_s"] for r in probes + passes),
        "wall_s": sum(latencies),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in passes) / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict], speed: Speed) -> tuple[dict, list[str]]:
    def scaled(result, name):
        value = result["layers"][name]
        if name.endswith("_s"):
            # Pauses fall on the layers in proportion to their time.
            span = result["starts"][0], result["starts"][-1] + result["latencies"][-1]
            value *= speed.scale(*span) / (span[1] - span[0])
        return value

    values = {k: statistics.fmean(scaled(r, k) for r in traced) for k in traced[0]["layers"]}
    untraced = sum(per_operation(plain))
    traced_wall = sum(per_operation(traced))
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced - 1
    idle = [k for k in LOADED[workload] if not values[k]]
    return values, idle


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )


def record_reference(workload: str, seed: int, ops: list[dict], ops_file: Path) -> None:
    result = spawn(workload, "run", Speed(), ops_file)
    mask = checked(ops)
    bad = [f for f in result["failures"] if mask[f[0]]]
    if bad:
        raise BenchError(f"not recording a reference with failing operations: {bad[:5]}")
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table.setdefault(workload, {})[str(seed)] = {
        "inputs": digest_inputs(ops),
        "outputs": " ".join(d if keep else "-" for d, keep in zip(result["digests"], mask)),
    }
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} seed {seed}: {len(ops)} operations", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "thetacalc" / "__init__.py").is_file():
        print(f"error: no thetacalc sources under {SRC}", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    ops_file = WORK_DIR / f"ops-{args.workload}-seed{args.seed}.json"
    ops_file.write_text(json.dumps(ops))
    try:
        return measure(args, ops, ops_file)
    finally:
        ops_file.unlink()


def measure(args, ops: list[dict], ops_file: Path) -> int:
    if args.record_reference:
        record_reference(args.workload, args.seed, ops, ops_file)
        return 0
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = table.get(args.workload, {}).get(str(args.seed))
    inputs_differ = bool(reference) and reference["inputs"] != digest_inputs(ops)
    notes = ["generated inputs differ from the recorded ones for this seed"] if inputs_differ else []

    speed = Speed()
    probes = [] if args.trace else [spawn(args.workload, "probe", speed) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    deadline = now() + args.seconds
    while True:
        plain.append(spawn(args.workload, "run", speed, ops_file))
        if args.trace:
            traced.append(spawn(args.workload, "trace", speed, ops_file))
        if now() >= deadline:
            break
    scale(probes + plain + traced, speed)

    attempted, failed, correct, more = judge(ops, plain + traced, reference)
    notes += more
    correct = correct and not inputs_differ
    if args.trace:
        metrics, idle = per_layer(args.workload, plain, traced, speed)
        if idle:
            correct = False
            notes.append("layer coverage: zero on a loaded layer: " + ", ".join(idle))
        trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "passes": [r["spans"] for r in traced]})
        )
        summary = f"trace: overhead {metrics['trace.overhead_frac']:.1%} over {len(traced)} traced passes; spans in {trace_file.relative_to(ROOT)}"
    else:
        metrics = end_to_end(plain, probes, attempted, failed)
        raw = end_to_end(plain, probes, attempted, failed, raw=True)
        samples = len(ops)
        summary = (
            "  ".join(f"{k}={v:.6g} {UNITS[k]}" for k, v in metrics.items())
            + "  as timed: "
            + " ".join(f"{k}={raw[k]:.6g}" for k in ("setup_s", "import_s", "wall_s", "op_p50_ms", "op_p90_ms"))
            + f"  fail_frac={failed / attempted:.6g} ({failed}/{attempted})"
            + f"  op samples={samples} per-operation medians over {len(plain)} passes ({samples // 10} beyond p90)"
        )
    for note in notes[:20]:
        print(f"note: {note}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {summary}")
    emit(bool(correct), attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
