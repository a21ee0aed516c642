"""One measured pass: a fresh interpreter that imports thetacalc and runs
every operation of a workload once, in order.

Usage: python3 child.py SRC WORKLOAD MODE [OPS_FILE], with MODE one of
  probe  import thetacalc, report the time, exit;
  run    read the operations (a JSON list) from OPS_FILE and time each one;
  trace  as run, with the per-layer wrappers of layers.py installed.
The result is one JSON object on stdout.  All times are read from
time.monotonic, which is CLOCK_MONOTONIC and so shared with run.py and
speed.py.
"""

import sys
import time

SRC, WORKLOAD, MODE = sys.argv[1:4]
sys.path.insert(0, SRC)

IMPORT_START = time.monotonic()

import thetacalc  # noqa: E402

if WORKLOAD == "cli-queries":
    import thetacalc.cli  # noqa: E402,F401

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from thetacalc import characters as C  # noqa: E402
from thetacalc import cuspidal as CU  # noqa: E402
from thetacalc import partitions as P  # noqa: E402
from thetacalc import symbols as S  # noqa: E402
from thetacalc import theta as T  # noqa: E402

# Operations call thetacalc through module attributes, so that the
# wrappers installed by a traced pass are the ones called.


def unipotent_op(op):
    """Closed form, then oracle; they must agree on dimension and the
    closed-form partner must be among the oracle's witnesses."""
    if "partition" in op:
        lam = P.parse_partition(op["partition"])
        size, partner = T.first_occurrence_unitary_closed(lam, op["parity"])
        oracle = T.first_occurrence_unitary(lam, op["parity"])
        ok = size == oracle.space_dimension and partner in oracle.witnesses
        return ok, ("u", size, partner, oracle.witnesses)
    sym = S.parse_symbol(op["source"])
    if op["target"] == "sp":
        closed = T.theta_zero_orth(sym)
    else:
        closed = T.theta_zero_sp(sym, 1 if op["target"] == "o+" else -1)
    oracle = T.first_occurrence_bruteforce(sym, op["target"])
    ok = oracle.space_dimension == 2 * S.rank(closed) and closed in oracle.witnesses
    return ok, ("s", oracle.space_dimension, closed, oracle.witnesses)


def character_op(op):
    """A model character against one target (closed form, then oracle), or
    one fixed cuspidal check, which passes when all its reports pass."""
    if "check" in op:
        reports = getattr(CU, op["check"])(op["m"])
        return all(r.passed for r in reports), ("c", reports)
    rho = C.character_from_json(json.loads(op["char"]))
    dim, partner = C.first_occurrence_partner(rho, op["target"])
    oracle_dim, hits = C.first_occurrence_general_brute(rho, op["target"])
    return dim == oracle_dim and partner in hits, ("g", dim, partner, hits)


def cli_op(op):
    """One in-process `thetacalc` call with stdout and stderr captured.
    A valid query must exit 0 quietly; a malformed one must exit 2 with an
    `error:` line.  An exception escaping main fails the query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = thetacalc.cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
    stdout, stderr = out.getvalue(), err.getvalue()
    if op["valid"]:
        ok = code == 0 and stderr == ""
    else:
        lines = stderr.splitlines()
        ok = code == 2 and stdout == "" and any("error:" in line for line in lines)
    if not ok:
        return False, f"exit {code}: {(stderr.strip().splitlines() or [stdout[:80]])[-1]}"
    return ok, (code, stdout, stderr)


def _public(value):
    """A value in the program's own literal formats, for digests that stay
    put when internal representations change."""
    if isinstance(value, S.Symbol):
        return S.format_symbol(value)
    if isinstance(value, C.GeneralCharacter):
        return C.character_to_json(value)
    if isinstance(value, CU.CheckReport):
        return value.as_dict()
    if isinstance(value, (tuple, list)):
        return [_public(v) for v in value]
    return value


def digest(output) -> str:
    text = json.dumps(_public(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


OPS = {
    "unipotent-oracle": unipotent_op,
    "character-oracle": character_op,
    "cli-queries": cli_op,
}


def main() -> None:
    result = {"import_start": IMPORT_START, "ready": READY, "thetacalc": thetacalc.__file__}
    if MODE == "probe":
        print(json.dumps(result))
        return
    with open(sys.argv[4]) as f:
        ops = json.load(f)
    run_op = OPS[WORKLOAD]
    tracer = None
    if MODE == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.monotonic
    starts, latencies, digests, failures, spans = [], [], [], [], []
    for index, op in enumerate(ops):
        if tracer:
            before, root = tracer.snapshot(), tracer.stack[0]
        t0 = clock()
        try:
            ok, output = run_op(op)
        except Exception as exc:  # a raising operation is a failed one
            ok, output = False, f"raised {type(exc).__name__}: {exc}"
        latency = clock() - t0
        starts.append(t0)
        latencies.append(latency)
        digests.append(digest(output) if ok else None)
        if not ok:
            failures.append([index, output if isinstance(output, str) else "disagrees"])
        if tracer:
            after = tracer.snapshot()
            self_s = {k: after[k] - before[k] for k in after if after[k] != before[k]}
            self_s["bench"] = latency - (tracer.stack[0] - root)
            spans.append({"op": index, "start_s": t0 - starts[0], "dur_s": latency, "self_s": self_s})
    result.update(
        starts=starts,
        latencies=latencies,
        digests=digests,
        failures=failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        result["layers"] = tracer.metrics(sum(latencies))
        result["spans"] = spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
