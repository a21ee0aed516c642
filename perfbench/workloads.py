"""Seeded input generators for the three benchmark workloads.

Inputs are built here, in the parent process, before anything is timed,
and reach thetacalc only as literals: symbol and partition strings,
character JSON and argv lists.  The generators do not import thetacalc,
so a change to one of its enumerators cannot change a workload; the
symbol combinatorics needed to produce valid literals is re-derived
below from the definitions (rank, defect, beta-sets up to shift).

Samples are stratified by what sets an operation's cost, so that a seed
changes which inputs run and in what order while the cost of a pass
stays nearly the same: unipotent-oracle takes every SAMPLE_STEP-th
symbol of each (family, rank, target) stratum sorted by delta, from a
seeded offset; character-oracle places characters at fixed quantiles of
their oracle's scan size; cli-queries spreads each kind of query evenly
over the arguments that set its cost.
"""

from __future__ import annotations

import json
from functools import lru_cache
from random import Random

UNIPOTENT_MAX_RANK = 9
UNITARY_MAX_SIZE = 12
SAMPLE_STEP = 2

CHAR_MAX_DIM = 12
CHAR_PER_STRATUM = 3
CUSPIDAL_MAX_M = 3

# The same number of queries of every kind; see CLI_SHAPES for the kinds.
CLI_PER_KIND = 80
CORRUPTIONS_PER_KIND = 8

_RESIDUE = {"sp": 1, "o+": 0, "o-": 2}
_CHAR_TARGETS = {
    "u": ("u-even", "u-odd"),
    "sp": ("o+", "o-", "o-odd", "o-odd-c"),
    "oeven": ("sp",),
    "oodd": ("sp",),
}
_FORMATS = ("text", "json", "csv")


# --- symbol combinatorics, re-derived independently of thetacalc -------------


@lru_cache(maxsize=None)
def partitions_of(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts <= cap, in decreasing lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple(
        (part,) + rest
        for part in range(min(n, cap), 0, -1)
        for rest in partitions_of(n - part, part)
    )


def _beta_set(lam: tuple[int, ...], slots: int) -> tuple[int, ...]:
    padded = lam + (0,) * (slots - len(lam))
    return tuple(padded[i] + slots - 1 - i for i in range(slots))


def _symbol(upper, lower, defect: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reduced symbol with bipartition (upper, lower) and the given defect."""
    m2 = max(len(lower), len(upper) - defect, -defect, 0)
    top, bottom = _beta_set(upper, m2 + defect), _beta_set(lower, m2)
    while top and bottom and top[-1] == 0 and bottom[-1] == 0:
        top = tuple(x - 1 for x in top[:-1])
        bottom = tuple(x - 1 for x in bottom[:-1])
    return top, bottom


def _rank(top, bottom) -> int:
    total = len(top) + len(bottom)
    return sum(top) + sum(bottom) - (total - 1) ** 2 // 4 if total else 0


def _row_delta(row) -> int:
    return row[0] - len(row) + 1 if row else 0


def _join(row) -> str:
    return ",".join(str(x) for x in row)


def symbol_literal(top, bottom) -> str:
    return f"{_join(top)}|{_join(bottom)}"


@lru_cache(maxsize=None)
def series(family: str, rank: int) -> tuple[tuple[tuple, tuple, int], ...]:
    """(top, bottom, delta) for every symbol class of the sp/o+/o- series."""
    out = []
    bound = 2 * int(rank**0.5) + 2
    for d in range(-bound, bound + 1):
        budget = rank - d * d // 4
        if budget < 0 or d % 4 != _RESIDUE[family]:
            continue
        for k in range(budget + 1):
            for upper in partitions_of(budget - k):
                for lower in partitions_of(k):
                    top, bottom = _symbol(upper, lower, d)
                    out.append((top, bottom, _row_delta(top) + _row_delta(bottom)))
    return tuple(out)


def _orth_sign(top, bottom) -> int:
    return 1 if (len(top) - len(bottom)) % 4 == 0 else -1


def _systematic(pool, rng: Random, key=None) -> list:
    """Every SAMPLE_STEP-th entry of the pool sorted by key, seeded offset."""
    ordered = sorted(pool, key=key) if key else list(pool)
    return ordered[rng.randrange(SAMPLE_STEP) :: SAMPLE_STEP] or ordered[:1]


# --- unipotent-oracle --------------------------------------------------------


def unipotent_oracle(rng: Random) -> list[dict]:
    """Sampled series symbols (rank <= 9) and partitions (size <= 12), one
    target tower each; ascending rank as in the unipotent-theta suite,
    shuffled within a rank."""
    by_rank: dict[int, list[dict]] = {}
    for rank in range(UNIPOTENT_MAX_RANK + 1):
        for family, targets in (("sp", ("o+", "o-")), ("o+", ("sp",)), ("o-", ("sp",))):
            for target in targets:
                for top, bottom, _ in _systematic(series(family, rank), rng, key=lambda s: s[2]):
                    by_rank.setdefault(rank, []).append(
                        {"source": symbol_literal(top, bottom), "target": target}
                    )
    for size in range(UNITARY_MAX_SIZE + 1):
        for parity in (0, 1):
            for lam in _systematic(partitions_of(size), rng):
                by_rank.setdefault(size, []).append({"partition": _join(lam), "parity": parity})
    ops = []
    for rank in sorted(by_rank):
        group = by_rank[rank]
        rng.shuffle(group)
        ops.extend(group)
    return ops


# --- character-oracle --------------------------------------------------------


def _pick(family: str, rank: int, rng: Random):
    top, bottom, _ = rng.choice(series(family, rank))
    return top, bottom


def _orth(rank: int):
    return series("o+", rank) + series("o-", rank)


# family -> (series of lambda1, series of lambda2) by rank
_COMPONENTS = {
    "sp": (_orth, lambda r: series("sp", r)),
    "oeven": (_orth, _orth),
    "oodd": (lambda r: series("sp", r), lambda r: series("sp", r)),
}


@lru_cache(maxsize=None)
def unipotent_data(family: str, size: int) -> tuple:
    """Every choice of unipotent data of total size `size`: the partitions
    for u, else (lambda1, lambda2, sign) with lambda = (top, bottom, delta)."""
    if family == "u":
        return partitions_of(size)
    first, second = _COMPONENTS[family]
    return tuple(
        (a, b, sign)
        for r1 in range(size + 1)
        for a in first(r1)
        for b in second(size - r1)
        for sign in (("+", "-") if family == "oodd" else (None,))
    )


def _partner_rank(top, bottom, sign: int) -> int:
    """Rank of the theta-map image of a symbol for the given sign."""
    if sign > 0:
        image = (bottom, top[1:]) if top else (tuple(x + 1 for x in bottom) + (0,), ())
    else:
        image = (bottom[1:], top) if bottom else ((), tuple(x + 1 for x in top) + (0,))
    return _rank(*image)


def scan_size(family: str, target: str, data) -> int:
    """Unipotent size of the first-occurrence partner, which sets how many
    candidates the general oracle enumerates.  The theta maps are
    re-derived here only to order the inputs by this cost."""
    if family == "u":
        return sum(data)
    (top1, bottom1, _), (top2, bottom2, _), sign = data
    if family == "sp" and target in ("o+", "o-"):
        tower = (1 if target == "o+" else -1) * _orth_sign(top1, bottom1)
        return _rank(top1, bottom1) + _partner_rank(top2, bottom2, tower)
    if family == "sp":
        if target == "o-odd-c":
            top1, bottom1 = bottom1, top1
        return _rank(top2, bottom2) + _partner_rank(top1, bottom1, _orth_sign(top1, bottom1))
    if family == "oeven":
        return _rank(top1, bottom1) + _partner_rank(top2, bottom2, _orth_sign(top2, bottom2))
    return _rank(top1, bottom1) + _partner_rank(top2, bottom2, 1 if sign == "+" else -1)


@lru_cache(maxsize=None)
def _by_scan_size(family: str, target: str, size: int) -> tuple[tuple, dict]:
    """The unipotent data sorted by scan size, and grouped by it."""
    pool = sorted(unipotent_data(family, size), key=lambda d: scan_size(family, target, d))
    groups: dict[int, list] = {}
    for data in pool:
        groups.setdefault(scan_size(family, target, data), []).append(data)
    return tuple(pool), groups


def character(family: str, n: int, data, rng: Random) -> dict:
    """The model character literal of rank n with the given unipotent data;
    the rest of the dimension is a random block multiset."""
    if family == "u":
        return {
            "family": "u",
            "n": n,
            "d0_blocks": list(rng.choice(partitions_of(n - sum(data)))),
            "lambda1": _join(data),
            "lambda2": None,
            "sign": None,
        }
    (top1, bottom1, _), (top2, bottom2, _), sign = data
    unipotent = _rank(top1, bottom1) + _rank(top2, bottom2)
    label = {"sp": "sp", "oodd": "o-odd"}.get(family)
    if family == "oeven":
        label = "o+" if _orth_sign(top1, bottom1) * _orth_sign(top2, bottom2) > 0 else "o-"
    return {
        "family": label,
        "n": n,
        "d0_blocks": [2 * p for p in rng.choice(partitions_of(n - unipotent))],
        "lambda1": symbol_literal(top1, bottom1),
        "lambda2": symbol_literal(top2, bottom2),
        "sign": sign,
    }


def _max_rank(family: str, max_dim: int) -> int:
    return {"u": max_dim, "sp": max_dim // 2, "oeven": max_dim // 2}.get(
        family, (max_dim - 1) // 2
    )


def _characters(rng: Random) -> list[tuple[dict, str]]:
    """CHAR_PER_STRATUM characters per (family, target, rank, unipotent
    size).  The j-th sits at quantile (j + 1/2) / CHAR_PER_STRATUM of the
    stratum's unipotent data sorted by scan size; the seed picks it among
    the data of that same scan size, and picks the blocks.  So a pass
    costs nearly the same for every seed."""
    out = []
    for family, targets in _CHAR_TARGETS.items():
        for target in targets:
            for n in range(_max_rank(family, CHAR_MAX_DIM) + 1):
                for size in range(n + 1):
                    pool, groups = _by_scan_size(family, target, size)
                    for j in range(CHAR_PER_STRATUM):
                        anchor = pool[int((j + 0.5) * len(pool) / CHAR_PER_STRATUM)]
                        data = rng.choice(groups[scan_size(family, target, anchor)])
                        out.append((character(family, n, data, rng), target))
    return out


CUSPIDAL_CHECKS = (
    "check_unipotent_cuspidal_odd_partner",
    "check_cuspidal_preservation_sums",
    "check_pseudo_cuspidal_even_partners",
    "check_pseudo_cuspidal_odd_partners",
)


def character_oracle(rng: Random) -> list[dict]:
    """Stratified model characters of all four families (dim <= 12) against
    each legal target, by ascending rank and shuffled within a rank, with
    the fixed m <= 3 cuspidal checks spread evenly between them in a fixed
    order.  Spreading the characters over the whole pass makes their
    latencies sample the machine over the whole pass, not over its first
    seconds only."""
    by_rank: dict[int, list[dict]] = {}
    for rho, target in _characters(rng):
        by_rank.setdefault(rho["n"], []).append({"char": json.dumps(rho), "target": target})
    chars = []
    for rank in sorted(by_rank):
        rng.shuffle(by_rank[rank])
        chars.extend(by_rank[rank])
    checks = [
        {"check": check, "m": m}
        for i, check in enumerate(CUSPIDAL_CHECKS)
        for m in range(0 if i < 2 else 1, CUSPIDAL_MAX_M + 1)
    ]
    step = len(chars) / len(checks)
    ops = []
    for k, check in enumerate(checks):
        ops.extend(chars[int(k * step) : int((k + 1) * step)])
        ops.append(check)
    return ops


# --- cli-queries -------------------------------------------------------------


_SYMBOL_TARGETS = {"sp": ("o+", "o-"), "o+": ("sp",), "o-": ("sp",)}

# kind -> every combination of the arguments that set a query's cost
CLI_SHAPES = {
    "symbol-info": [(f, r) for f in _SYMBOL_TARGETS for r in range(7) if series(f, r)],
    "enumerate": [(g, r) for g in ("sp", "o+", "o-", "u") for r in range(6)],
    "theta-partners": [(p, r, c) for p in ("sp:o+", "sp:o-", "u:u") for r in range(4) for c in range(4)],
    "theta-first-symbol": [
        (f, r, t) for f, ts in _SYMBOL_TARGETS.items() for t in ts for r in range(6) if series(f, r)
    ],
    "theta-first-partition": [(k, t) for k in range(9) for t in ("u-even", "u-odd")],
    "theta-first-char": [
        (f, t, n, k)
        for f, ts in _CHAR_TARGETS.items()
        for t in ts
        for n in range(_max_rank(f, 8) + 1)
        for k in range(n + 1)
    ],
    # The suites whose cost --max-rank bounds; the preservation and
    # cuspidal-catalog suites take 0.1-0.9 s at any bound.
    "verify": [(suite, r) for suite in ("symbol-lemmas", "unipotent-theta") for r in range(4)],
}


def _spread(pool: list, count: int, rng: Random) -> list:
    """count entries evenly spaced over the pool from a seeded offset."""
    step = len(pool) / count
    start = rng.random() * step
    return [pool[int(start + j * step)] for j in range(count)]


def _cli_query(kind: str, shape: tuple, rng: Random) -> list[str]:
    fmt = ["--format", rng.choice(_FORMATS)]
    if kind == "symbol-info":
        top, bottom = _pick(*shape, rng)
        if rng.random() < 0.25:
            top, bottom = tuple(x + 1 for x in top) + (0,), tuple(x + 1 for x in bottom) + (0,)
        return ["symbol-info", symbol_literal(top, bottom)] + fmt
    if kind == "enumerate":
        group, rank = shape
        return ["enumerate", "--group", group, "--rank", str(rank)] + fmt
    if kind == "theta-partners":
        pair, rank, corank = shape
        return ["theta", "partners", "--pair", pair, "--rank", str(rank), "--corank", str(corank)] + fmt
    if kind == "theta-first-symbol":
        family, rank, target = shape
        literal = symbol_literal(*_pick(family, rank, rng))
        return ["theta", "first", "--group", family, "--symbol", literal, "--target", target] + fmt
    if kind == "theta-first-partition":
        size, target = shape
        lam = rng.choice(partitions_of(size))
        return ["theta", "first", "--group", "u", "--symbol", _join(lam), "--target", target] + fmt
    if kind == "theta-first-char":
        family, target, n, size = shape
        rho = character(family, n, rng.choice(unipotent_data(family, size)), rng)
        return ["theta", "first", "--target", target, "--char", json.dumps(rho)] + fmt
    if kind == "verify":
        suite, max_rank = shape
        return ["verify", "--suite", suite, "--max-rank", str(max_rank), "--seed", str(rng.randrange(100))] + fmt
    raise ValueError(kind)


def _corrupt_row(literal: str, rng: Random, how: str) -> str:
    """Syntactically break one row of a symbol or partition literal."""
    rows = literal.split("|")
    i = rng.randrange(len(rows))
    entries = [e for e in rows[i].split(",") if e]
    if how == "non-integer":
        entries.insert(rng.randint(0, len(entries)), rng.choice(("x", "1.5", "two")))
    else:
        entries.append(str(int(entries[-1]) + 1) if entries else "0,1")
    rows[i] = ",".join(entries)
    return "|".join(rows)


def _corrupt(argv: list[str], kind: str, rng: Random) -> list[str]:
    argv = list(argv)
    if kind in ("json-not-object", "missing-key"):
        at = argv.index("--char") + 1
        data = json.loads(argv[at])
        if kind == "json-not-object":
            argv[at] = rng.choice(("[]", "null", "3", '"sp"', json.dumps([data])))
        else:
            required = ["family", "n", "lambda1"] + ([] if data["family"] == "u" else ["lambda2"])
            del data[rng.choice(required)]
            argv[at] = json.dumps(data)
        return argv
    at = 1 if argv[0] == "symbol-info" else argv.index("--symbol") + 1
    if kind == "bar":
        literal = argv[at]
        argv[at] = literal.replace("|", ",", 1) if rng.random() < 0.5 else literal + "|0"
    else:
        argv[at] = _corrupt_row(argv[at], rng, kind)
    return argv


_CORRUPTION_HOSTS = {
    "non-integer": ("symbol-info", "theta-first-symbol", "theta-first-partition"),
    "bar": ("symbol-info", "theta-first-symbol"),
    "non-decreasing": ("symbol-info", "theta-first-symbol", "theta-first-partition"),
    "json-not-object": ("theta-first-char",),
    "missing-key": ("theta-first-char",),
}


def cli_queries(rng: Random) -> list[dict]:
    """CLI_PER_KIND queries of each kind, spread evenly over its shapes,
    of which CORRUPTIONS_PER_KIND per corruption kind are made malformed
    (expected: exit 2 with an error line), in CLI_PER_KIND rounds."""
    queries = [
        {"kind": kind, "argv": _cli_query(kind, shape, rng), "valid": True}
        for kind, shapes in CLI_SHAPES.items()
        for shape in _spread(shapes, CLI_PER_KIND, rng)
    ]
    for corruption, hosts in _CORRUPTION_HOSTS.items():
        pool = [q for q in queries if q["valid"] and q["kind"] in hosts]
        for query in rng.sample(pool, CORRUPTIONS_PER_KIND):
            query["argv"] = _corrupt(query["argv"], corruption, rng)
            query["valid"] = False
            query["corruption"] = corruption
    # Round j holds the j-th query of every kind, in a seeded order, so that
    # under every seed each kind meets caches about as warm.
    rounds = [queries[j::CLI_PER_KIND] for j in range(CLI_PER_KIND)]
    for round_ in rounds:
        rng.shuffle(round_)
    return [query for round_ in rounds for query in round_]


GENERATORS = {
    "unipotent-oracle": unipotent_oracle,
    "character-oracle": character_oracle,
    "cli-queries": cli_queries,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](Random(f"{workload}:{seed}"))
