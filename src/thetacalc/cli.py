"""Command-line interface.

Subcommands: symbol-info (statistics of one symbol), enumerate (series
listings), theta partners / theta first (correspondence queries with
closed-form and oracle columns), and verify (the named identity
suites).  Exit codes: 0 success; 1 a failed check: a verification
failure, a closed-form/oracle disagreement, an oracle scan past its cap,
or a verify check that raised (reported as its FAIL line); 2 only bad
input: usage or parse errors, an unwritable --out among them, and a
theta query over MAX_QUERY_SIZE (a symbol rank, partition size, --char
n, --rank or --corank above 10), rejected before any scan starts.

main(argv) may be called any number of times in one process; it builds
its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .characters import (
    OEVEN_FAMILY,
    SP_FAMILY,
    TARGET_NAMES,
    TARGETS,
    U_FAMILY,
    character_from_json,
    character_to_json,
    first_occurrence_general_brute,
    first_occurrence_partner,
)
from .partitions import format_partition, parse_partition, partitions_of
from .symbols import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesError,
    SeriesTag,
    Symbol,
    defect,
    delta_symbol,
    enumerate_series,
    format_symbol,
    is_cuspidal,
    is_unitary_symbol,
    normalize,
    parse_symbol,
    partition_from_symbol,
    rank,
    series_of,
    symbol_from_partition,
    upsilon,
)
from .theta import (
    CapExceededError,
    first_occurrence_bruteforce,
    first_occurrence_unitary,
    first_occurrence_unitary_closed,
    theta_zero_orth,
    theta_zero_sp,
    weil_pairs,
    weil_pairs_unitary,
)
from .verify import (
    MAX_SAMPLED_DIM,
    ORACLE_SAMPLES,
    SAMPLES_PER_FAMILY,
    SUITES,
    run_suite,
)

# Largest symbol rank, --group u partition size, --char n, --rank and
# --corank that `theta first` and `theta partners` accept.  The oracle
# scans and pair enumerations behind them grow exponentially with it.
MAX_QUERY_SIZE = 10

# --group -> the source kind of its symbols, whose targets it takes;
# symplectic symbols meet the even orthogonal towers.
_GROUP_KIND = {
    UNITARY: (U_FAMILY, None),
    SP: (SP_FAMILY, "even"),
    O_PLUS: (OEVEN_FAMILY, None),
    O_MINUS: (OEVEN_FAMILY, None),
}


def symbol_info_record(sym: Symbol) -> dict:
    sym = normalize(sym)
    upper, lower = upsilon(sym)
    return {
        "kind": "symbol-info",
        "symbol": format_symbol(sym),
        "rank": rank(sym),
        "defect": defect(sym),
        "delta": delta_symbol(sym),
        "upsilon_top": format_partition(upper),
        "upsilon_bottom": format_partition(lower),
        "cuspidal": is_cuspidal(sym),
        "series": series_of(sym),
        "partition": format_partition(partition_from_symbol(sym))
        if is_unitary_symbol(sym)
        else None,
    }


_CSV_FIELDS = {
    "symbol-info": [
        "symbol",
        "rank",
        "defect",
        "delta",
        "upsilon_top",
        "upsilon_bottom",
        "cuspidal",
        "series",
        "partition",
    ],
    "pair-list": ["left", "right"],
    "first-occurrence": [
        "source",
        "target",
        "closed_dim",
        "oracle_dim",
        "agree",
        "partner",
        "witnesses",
    ],
    "verify-report": ["check", "parameters", "expected", "actual", "pass"],
}


def render(records: list[dict], kind: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=_CSV_FIELDS[kind], lineterminator="\n", extrasaction="ignore"
        )
        writer.writeheader()
        for record in records:
            writer.writerow(
                {
                    key: json.dumps(value)
                    if isinstance(value, (dict, list))
                    else value
                    for key, value in record.items()
                }
            )
        return buf.getvalue()
    lines = []
    for record in records:
        shown = {k: v for k, v in record.items() if k != "kind"}
        lines.append("  ".join(f"{key}={value}" for key, value in shown.items()))
    return "\n".join(lines) + "\n" if lines else ""


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc


def cmd_symbol_info(args) -> int:
    sym = parse_symbol(args.literal)
    _emit(render([symbol_info_record(sym)], "symbol-info", args.format), args.out)
    return 0


def cmd_enumerate(args) -> int:
    if args.group == UNITARY:
        syms, shown = map(symbol_from_partition, partitions_of(args.rank)), {"series": UNITARY}
    else:
        syms, shown = enumerate_series(SeriesTag(args.group, args.rank)), {}
    records = [{**symbol_info_record(sym), **shown} for sym in syms]
    _emit(render(records, "symbol-info", args.format), args.out)
    return 0


def _check_size(what: str, size: int) -> None:
    """Reject a negative query size, or one larger than MAX_QUERY_SIZE, as
    bad input (exit 2)."""
    if size < 0:
        raise ValueError(f"{what} {size} is negative")
    if size > MAX_QUERY_SIZE:
        raise ValueError(f"{what} {size} is over the query size limit {MAX_QUERY_SIZE}")


def cmd_theta_partners(args) -> int:
    _check_size("--rank", args.rank)
    _check_size("--corank", args.corank)
    if args.pair.count(":") != 1:
        raise ValueError(f"bad --pair {args.pair!r}")
    left_group, right_group = args.pair.split(":")
    if left_group == SP and right_group in (O_PLUS, O_MINUS):
        sign = 1 if right_group == O_PLUS else -1
        pairs, literal = weil_pairs(args.rank, sign, args.corank), format_symbol
    elif left_group == UNITARY and right_group == UNITARY:
        pairs, literal = weil_pairs_unitary(args.rank, args.corank), format_partition
    else:
        raise ValueError(f"unsupported pair {args.pair!r}")
    records = [{"kind": "pair-list", "left": literal(a), "right": literal(b)} for a, b in pairs]
    _emit(render(records, "pair-list", args.format), args.out)
    return 0


def _character_literal(rho) -> str:
    return json.dumps(character_to_json(rho))


def _first_occurrence(args) -> tuple:
    """(source, closed dim, partner, oracle result, literal formatter) of
    a `theta first` query; the closed form runs first."""
    if args.char:
        rho = character_from_json(json.loads(args.char))
        _check_size("--char n", rho.n)
        closed_dim, partner = first_occurrence_partner(rho, args.target)
        oracle = first_occurrence_general_brute(rho, args.target)
        return rho, closed_dim, partner, oracle, _character_literal
    if not args.group or args.symbol is None:
        raise ValueError("need --group/--symbol or --char")
    towers = TARGETS[_GROUP_KIND[args.group]]
    if args.target not in towers:
        raise SeriesError(f"target {args.target!r} invalid for group {args.group}")
    _, sign, parity = towers[args.target]
    if args.group == UNITARY:
        lam = parse_partition(args.symbol)
        _check_size("partition size", sum(lam))
        closed_dim, partner = first_occurrence_unitary_closed(lam, parity)
        source, oracle, literal = lam, first_occurrence_unitary(lam, parity), format_partition
    else:
        sym = parse_symbol(args.symbol)
        _check_size("symbol rank", rank(sym))
        if series_of(sym) != args.group:
            raise SeriesError(f"symbol {args.symbol!r} is not in the {args.group} series")
        partner = theta_zero_sp(sym, sign) if args.group == SP else theta_zero_orth(sym)
        closed_dim = 2 * rank(partner)
        oracle = first_occurrence_bruteforce(sym, args.target)
        source, literal = normalize(sym), format_symbol
    return source, closed_dim, partner, oracle, literal


def cmd_theta_first(args) -> int:
    source, closed_dim, partner, oracle, literal = _first_occurrence(args)
    record = {
        "kind": "first-occurrence",
        "source": literal(source),
        "target": args.target,
        "closed_dim": closed_dim,
        "oracle_dim": oracle.space_dimension,
        "agree": oracle.confirms(closed_dim, partner),
        "partner": literal(partner),
        "witnesses": [literal(w) for w in oracle.witnesses],
    }
    _emit(render([record], "first-occurrence", args.format), args.out)
    return 0 if record["agree"] else 1


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.max_rank, args.seed)
    records = [{"kind": "verify-report", **r.as_dict()} for r in reports]
    passed = sum(1 for r in reports if r.passed)
    if args.format == "text":
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} {r.check} {json.dumps(r.parameters)}")
            if not r.passed:
                lines.append(f"     expected {r.expected!r}")
                lines.append(f"     actual   {r.actual!r}")
        lines.append(f"{passed}/{len(reports)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(render(records, "verify-report", args.format), args.out)
    return 0 if passed == len(reports) else 1


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and reused after.

    Reuse leaks nothing between calls: parse_args makes a new Namespace
    each time, and usage errors and help look up sys.stderr, sys.stdout
    and the terminal width when they print, so redirect_stderr and capsys
    still capture them.  The handlers bound by set_defaults(func=cmd_*)
    are fixed when the parser is built; patch what a handler calls, not
    the handler.
    """
    parser = argparse.ArgumentParser(
        prog="thetacalc",
        description="Exact symbol calculus and theta-correspondence queries "
        "for finite classical groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("symbol-info", help="statistics of one symbol")
    p_info.add_argument("literal", help='symbol literal like "1,0|2" (empty side ok)')
    p_info.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(func=cmd_symbol_info)

    p_enum = sub.add_parser("enumerate", help="list a symbol series")
    p_enum.add_argument("--group", choices=(SP, O_PLUS, O_MINUS, UNITARY), required=True)
    p_enum.add_argument("--rank", type=int, required=True)
    p_enum.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_theta = sub.add_parser("theta", help="correspondence queries")
    theta_sub = p_theta.add_subparsers(dest="theta_command", required=True)

    p_partners = theta_sub.add_parser("partners", help="all pairs for a dual pair")
    p_partners.add_argument("--pair", required=True, help="sp:o+, sp:o- or u:u")
    p_partners.add_argument("--rank", type=int, required=True)
    p_partners.add_argument("--corank", type=int, required=True)
    p_partners.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_partners.add_argument("--out", default=None)
    p_partners.set_defaults(func=cmd_theta_partners)

    p_first = theta_sub.add_parser(
        "first", help="first occurrence, closed form vs oracle"
    )
    p_first.add_argument("--group", choices=(SP, O_PLUS, O_MINUS, UNITARY))
    p_first.add_argument(
        "--symbol", help="symbol literal; for --group u, a partition literal"
    )
    p_first.add_argument("--char", help="general character as a JSON object")
    p_first.add_argument("--target", required=True, choices=TARGET_NAMES)
    p_first.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_first.add_argument("--out", default=None)
    p_first.set_defaults(func=cmd_theta_first)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument(
        "--suite", required=True, choices=tuple(SUITES) + ("all",)
    )
    p_verify.add_argument(
        "--max-rank",
        type=_non_negative_int,
        default=6,
        help="bound of symbol-lemmas and unipotent-theta (whose pair-set checks stop "
        "at rank 4), and of the cuspidal-catalog "
        "catalogs (its first-occurrence checks stay at m <= 2); the preservation "
        f"suites ignore it and draw {SAMPLES_PER_FAMILY} closed-form and "
        f"{ORACLE_SAMPLES} oracle samples of dim <= {MAX_SAMPLED_DIM}",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        # An oracle scan ran past its proven cap: a failed check.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
