"""Symbols: pairs of beta-sets modulo shift, with their statistics.

A symbol is an ordered pair of beta-sets (top row, bottom row) taken up
to the equivalence generated by adding 1 to every entry of both rows
and appending a 0 to each.  The integer statistics rank, defect and
delta, the map to bipartitions (upsilon), cuspidality, membership and
enumeration of the classical-group series, and the partition-to-symbol
map for unitary groups all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .partitions import (
    BetaSet,
    Partition,
    beta_set_of,
    bipartitions_of,
    partition_of_beta,
)

SP = "sp"
O_PLUS = "o+"
O_MINUS = "o-"
UNITARY = "u"

# family -> required defect residue mod 4
_DEFECT_RESIDUE = {SP: 1, O_PLUS: 0, O_MINUS: 2}


class SeriesError(ValueError):
    """A symbol does not lie in (or determine) the required series."""


def _check_beta(row) -> BetaSet:
    row = tuple(int(x) for x in row)
    if any(x < 0 for x in row):
        raise ValueError(f"beta-set entries must be non-negative: {row}")
    if any(a <= b for a, b in zip(row, row[1:])):
        raise ValueError(f"beta-set entries must be strictly decreasing: {row}")
    return row


@dataclass(frozen=True)
class Symbol:
    """Ordered pair of beta-sets; equality is structural (use normalize)."""

    top: BetaSet
    bottom: BetaSet

    def __post_init__(self):
        object.__setattr__(self, "top", _check_beta(self.top))
        object.__setattr__(self, "bottom", _check_beta(self.bottom))


@dataclass(frozen=True)
class SeriesTag:
    """A symbol series: family in {sp, o+, o-, u} plus the group rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in (SP, O_PLUS, O_MINUS, UNITARY):
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 0:
            raise ValueError("rank must be non-negative")


def parse_symbol(text: str) -> Symbol:
    """Parse "a1,a2,...|b1,b2,..."; either side may be empty ("|")."""
    if text.count("|") != 1:
        raise ValueError(f"symbol literal needs exactly one '|': {text!r}")
    top_text, bottom_text = text.split("|")

    def row(part: str) -> tuple[int, ...]:
        part = part.strip()
        if not part:
            return ()
        return tuple(int(x) for x in part.split(","))

    return Symbol(row(top_text), row(bottom_text))


def format_symbol(sym: Symbol) -> str:
    return "{}|{}".format(
        ",".join(str(x) for x in sym.top), ",".join(str(x) for x in sym.bottom)
    )


def shift(sym: Symbol, steps: int = 1) -> Symbol:
    """Apply the forward shift `steps` times (an equivalent symbol)."""
    top, bottom = sym.top, sym.bottom
    for _ in range(steps):
        top = tuple(x + 1 for x in top) + (0,)
        bottom = tuple(x + 1 for x in bottom) + (0,)
    return Symbol(top, bottom)


def normalize(sym: Symbol) -> Symbol:
    """The minimal representative: undo shifts while both rows contain 0."""
    top, bottom = sym.top, sym.bottom
    while top and bottom and top[-1] == 0 and bottom[-1] == 0:
        top = tuple(x - 1 for x in top[:-1])
        bottom = tuple(x - 1 for x in bottom[:-1])
    return Symbol(top, bottom)


def equivalent(a: Symbol, b: Symbol) -> bool:
    return normalize(a) == normalize(b)


def transpose(sym: Symbol) -> Symbol:
    return Symbol(sym.bottom, sym.top)


def rank(sym: Symbol) -> int:
    total = len(sym.top) + len(sym.bottom)
    if total == 0:
        return 0
    return sum(sym.top) + sum(sym.bottom) - ((total - 1) ** 2) // 4


def defect(sym: Symbol) -> int:
    return len(sym.top) - len(sym.bottom)


def delta_beta(row: BetaSet) -> int:
    return row[0] - len(row) + 1 if row else 0


def delta_symbol(sym: Symbol) -> int:
    return delta_beta(sym.top) + delta_beta(sym.bottom)


def upsilon(sym: Symbol) -> tuple[Partition, Partition]:
    """Subtract the staircase from each row; constant on equivalence classes."""
    return (partition_of_beta(sym.top), partition_of_beta(sym.bottom))


def upsilon_size(sym: Symbol) -> int:
    upper, lower = upsilon(sym)
    return sum(upper) + sum(lower)


def defect_floor(d: int) -> int:
    """floor((d/2)^2), the rank of the cuspidal symbol of defect d."""
    return (d * d) // 4


def is_cuspidal(sym: Symbol) -> bool:
    return rank(sym) == defect_floor(defect(sym))


def orth_sign(sym: Symbol) -> int:
    """+1 / -1 for an even-orthogonal-series symbol, read off the defect."""
    residue = defect(sym) % 4
    if residue == 0:
        return 1
    if residue == 2:
        return -1
    raise SeriesError(f"defect {defect(sym)} is not in an even-orthogonal class")


def series_of(sym: Symbol) -> str | None:
    """The series (sp, o+ or o-) whose defect residue sym has, if any."""
    residue = defect(sym) % 4
    return next((fam for fam, r in _DEFECT_RESIDUE.items() if r == residue), None)


def series_contains(tag: SeriesTag, sym: Symbol) -> bool:
    """Membership in S_{Sp_2n} / S_{O^eps_2n}; unitary series go via partitions."""
    if tag.family == UNITARY:
        raise SeriesError("unsupported-family: unitary membership is by partition")
    return rank(sym) == tag.rank and defect(sym) % 4 == _DEFECT_RESIDUE[tag.family]


def symbol_with(
    upper: Partition, lower: Partition, target_defect: int
) -> Symbol:
    """The unique normalized symbol with the given upsilon pair and defect."""
    m2 = max(len(lower), len(upper) - target_defect, -target_defect, 0)
    m1 = m2 + target_defect
    return normalize(Symbol(beta_set_of(upper, m1), beta_set_of(lower, m2)))


def admissible_defects(n: int, residue: int | None = None) -> list[int]:
    """Defects d with floor((d/2)^2) <= n, optionally filtered mod 4."""
    bound = 2 * math.isqrt(n) + 2
    out = [
        d
        for d in range(-bound, bound + 1)
        if defect_floor(d) <= n and (residue is None or d % 4 == residue)
    ]
    return sorted(out)


def enumerate_symbols(n: int, defects=None) -> list[Symbol]:
    """All symbol classes of rank n whose defect lies in `defects` (default all).

    Generated by inverting the rank identity: for each defect d, the
    classes of rank n and defect d correspond to bipartitions of
    n - floor((d/2)^2).  Sorted by (defect, rows).
    """
    if defects is None:
        defects = admissible_defects(n)
    out = []
    for d in defects:
        budget = n - defect_floor(d)
        if budget < 0:
            continue
        for upper, lower in bipartitions_of(budget):
            out.append(symbol_with(upper, lower, d))
    return sorted(out, key=lambda s: (defect(s), s.top, s.bottom))


@lru_cache(maxsize=None)
def enumerate_series(tag: SeriesTag) -> tuple[Symbol, ...]:
    """All normalized symbols of the series, each class exactly once."""
    if tag.family == UNITARY:
        raise SeriesError("unsupported-family: enumerate unitary groups by partition")
    residue = _DEFECT_RESIDUE[tag.family]
    return tuple(enumerate_symbols(tag.rank, admissible_defects(tag.rank, residue)))


@lru_cache(maxsize=None)
def series_by_defect(tag: SeriesTag) -> dict[int, tuple[Symbol, ...]]:
    """The series split by defect, for defect-first filtering in scans."""
    grouped: dict[int, list[Symbol]] = {}
    for sym in enumerate_series(tag):
        grouped.setdefault(defect(sym), []).append(sym)
    return {d: tuple(symbols) for d, symbols in grouped.items()}


@lru_cache(maxsize=None)
def symbol_from_partition(lam: Partition) -> Symbol:
    """The unitary-series symbol of a partition.

    Split a beta-set of lam on an even number of slots by parity: odd
    entries (halved down) form the top row, even entries (halved) the
    bottom row.  The slot count being even pins the defect convention;
    the defect then depends only on the 2-core of lam.
    """
    slots = len(lam) + (len(lam) % 2)
    beta = beta_set_of(lam, slots)
    top = tuple((x - 1) // 2 for x in beta if x % 2 == 1)
    bottom = tuple(x // 2 for x in beta if x % 2 == 0)
    return normalize(Symbol(top, bottom))


def is_unitary_symbol(sym: Symbol) -> bool:
    return defect(sym) % 2 == 0


def staircase_index(target_defect: int) -> int:
    """The number of rows d of the 2-core whose symbol has this defect."""
    if target_defect % 2 != 0:
        raise SeriesError(f"defect {target_defect} is not in the unitary series")
    return target_defect if target_defect >= 0 else -target_defect - 1


def unitary_size(sym: Symbol) -> int:
    """|lam| for the partition lam whose unitary symbol this is."""
    d = staircase_index(defect(sym))
    return d * (d + 1) // 2 + 2 * upsilon_size(sym)


def partition_from_symbol(sym: Symbol) -> Partition:
    """Inverse of symbol_from_partition on even-defect symbols."""
    if not is_unitary_symbol(sym):
        raise SeriesError(f"defect {defect(sym)} is odd; not a unitary symbol")
    sym = normalize(sym)
    beta = sorted(
        [2 * t + 1 for t in sym.top] + [2 * b for b in sym.bottom], reverse=True
    )
    return partition_of_beta(tuple(beta))


def staircase(rows: int) -> Partition:
    return tuple(range(rows, 0, -1))


def extremal_delta_symbols(n: int, defect_class: int) -> list[Symbol]:
    """The classified delta-maximizers of rank n.

    defect_class 0 selects the defect {0, +-1} band (maximum delta = n);
    defect_class 2 selects defect +-2 (maximum delta = n - 1, needs n >= 1).
    """
    out: list[Symbol] = []
    if defect_class == 0:
        for k in range(n + 1):
            out.append(symbol_from_rows((k,), (n - k + 1, 0)))
            out.append(symbol_from_rows((n - k,), (k,)))
            out.append(symbol_from_rows((n - k + 1, 0), (k,)))
    elif defect_class == 2:
        if n < 1:
            raise ValueError("invalid-class: defect +-2 maximizers need n >= 1")
        for k in range(n):
            out.append(symbol_from_rows((k,), (n - k + 1, 1, 0)))
            out.append(symbol_from_rows((n - k + 1, 1, 0), (k,)))
    else:
        raise ValueError(f"invalid-class: {defect_class} (use 0 or 2)")
    unique = sorted(set(out), key=lambda s: (defect(s), s.top, s.bottom))
    return unique


def symbol_from_rows(top, bottom) -> Symbol:
    """Normalized symbol from raw rows given largest-first."""
    return normalize(Symbol(tuple(top), tuple(bottom)))


def cuspidal_symbol(target_defect: int) -> Symbol:
    """The unique cuspidal symbol class of the given defect."""
    d = target_defect
    if d >= 0:
        return Symbol(tuple(range(d - 1, -1, -1)), ())
    return Symbol((), tuple(range(-d - 1, -1, -1)))


def unitary_cuspidal_partition(n: int) -> Partition | None:
    """The unique partition of n with cuspidal symbol, if n is triangular."""
    rows = 0
    while rows * (rows + 1) // 2 < n:
        rows += 1
    if rows * (rows + 1) // 2 != n:
        return None
    return staircase(rows)
