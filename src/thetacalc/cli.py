"""Command-line interface.

Subcommands: symbol-info (statistics of one symbol), enumerate (series
listings), theta partners / theta first (correspondence queries with
closed-form and oracle columns), and verify (the named identity
suites).  Exit codes: 0 success, 1 verification failure or
closed-form/oracle disagreement, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
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
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_symbol_info(args) -> int:
    try:
        sym = parse_symbol(args.literal)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(render([symbol_info_record(sym)], "symbol-info", args.format), args.out)
    return 0


def cmd_enumerate(args) -> int:
    records = []
    if args.group == UNITARY:
        for lam in partitions_of(args.rank):
            record = symbol_info_record(symbol_from_partition(lam))
            record["partition"] = format_partition(lam)
            record["series"] = UNITARY
            records.append(record)
    else:
        for sym in enumerate_series(SeriesTag(args.group, args.rank)):
            records.append(symbol_info_record(sym))
    _emit(render(records, "symbol-info", args.format), args.out)
    return 0


def cmd_theta_partners(args) -> int:
    try:
        left_group, right_group = args.pair.split(":")
    except ValueError:
        print(f"error: bad --pair {args.pair!r}", file=sys.stderr)
        return 2
    if left_group == SP and right_group in (O_PLUS, O_MINUS):
        sign = 1 if right_group == O_PLUS else -1
        pairs = weil_pairs(args.rank, sign, args.corank)
        records = [
            {"kind": "pair-list", "left": format_symbol(a), "right": format_symbol(b)}
            for a, b in pairs
        ]
    elif left_group == UNITARY and right_group == UNITARY:
        records = [
            {
                "kind": "pair-list",
                "left": format_partition(a),
                "right": format_partition(b),
            }
            for a, b in weil_pairs_unitary(args.rank, args.corank)
        ]
    else:
        print(f"error: unsupported pair {args.pair!r}", file=sys.stderr)
        return 2
    _emit(render(records, "pair-list", args.format), args.out)
    return 0


def _first_occurrence_symbol(args) -> dict:
    """Closed-form and oracle first occurrence for a series symbol."""
    towers = TARGETS[_GROUP_KIND[args.group]]
    if args.target not in towers:
        raise SeriesError(f"target {args.target!r} invalid for group {args.group}")
    _, sign, parity = towers[args.target]
    if args.group == UNITARY:
        lam = parse_partition(args.symbol)
        size, partner = first_occurrence_unitary_closed(lam, parity)
        oracle = first_occurrence_unitary(lam, parity)
        return {
            "kind": "first-occurrence",
            "source": format_partition(lam),
            "target": args.target,
            "closed_dim": size,
            "oracle_dim": oracle.space_dimension,
            "agree": size == oracle.space_dimension
            and partner in oracle.witnesses,
            "partner": format_partition(partner),
            "witnesses": [format_partition(w) for w in oracle.witnesses],
        }
    sym = parse_symbol(args.symbol)
    if series_of(sym) != args.group:
        raise SeriesError(f"symbol {args.symbol!r} is not in the {args.group} series")
    closed = theta_zero_sp(sym, sign) if args.group == SP else theta_zero_orth(sym)
    oracle = first_occurrence_bruteforce(sym, args.target)
    return {
        "kind": "first-occurrence",
        "source": format_symbol(normalize(sym)),
        "target": args.target,
        "closed_dim": 2 * rank(closed),
        "oracle_dim": oracle.space_dimension,
        "agree": oracle.space_dimension == 2 * rank(closed)
        and closed in oracle.witnesses,
        "partner": format_symbol(closed),
        "witnesses": [format_symbol(w) for w in oracle.witnesses],
    }


def cmd_theta_first(args) -> int:
    try:
        if args.char:
            rho = character_from_json(json.loads(args.char))
            dim, partner = first_occurrence_partner(rho, args.target)
            oracle_dim, hits = first_occurrence_general_brute(rho, args.target)
            record = {
                "kind": "first-occurrence",
                "source": json.dumps(character_to_json(rho)),
                "target": args.target,
                "closed_dim": dim,
                "oracle_dim": oracle_dim,
                "agree": dim == oracle_dim and partner in hits,
                "partner": json.dumps(character_to_json(partner)),
                "witnesses": [json.dumps(character_to_json(h)) for h in hits],
            }
        elif args.group and args.symbol is not None:
            record = _first_occurrence_symbol(args)
        else:
            print("error: need --group/--symbol or --char", file=sys.stderr)
            return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def build_parser() -> argparse.ArgumentParser:
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
        type=int,
        default=6,
        help="bound of symbol-lemmas and unipotent-theta, and of the cuspidal-catalog "
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
