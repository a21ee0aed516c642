"""Correspondence relations on symbols and first occurrences.

The interleaving relations pairing symbols across a dual pair, the
defect bookkeeping that selects the orthogonal tower, the closed-form
minimal-partner (theta) maps, brute-force first-occurrence scans that
serve as independent oracles for them, and the rank-sum identities
behind the preservation principle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, interleaves, partitions_of
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
    normalize,
    partition_from_symbol,
    partition_of_beta,
    rank,
    series_by_defect,
    symbol_from_partition,
    symbol_with,
    transpose,
    unitary_size,
    upsilon,
)
from functools import lru_cache


class CapExceededError(RuntimeError):
    """A first-occurrence scan ran past its bound; signals a bug."""


@dataclass(frozen=True)
class FirstOccurrence:
    """Minimal partner of a character in a target tower.

    space_dimension is the dimension of the target space: twice the
    rank for symplectic / even-orthogonal series, the partition size
    for unitary series.  witnesses lists every partner found at the
    minimal rank (symbols, or partitions for unitary targets).
    """

    partner: Symbol
    partner_series: SeriesTag
    space_dimension: int
    witnesses: tuple


def in_b_relation(lhs: Symbol, rhs: Symbol, sign: int) -> bool:
    """The interleaving half of the correspondence relation.

    sign +1: Y(lhs.bottom) <= Y(rhs.top) and Y(rhs.bottom) <= Y(lhs.top);
    sign -1: the row-swapped mirror.  Well defined on equivalence classes.
    """
    if sign > 0:
        return interleaves(
            partition_of_beta(lhs.bottom), partition_of_beta(rhs.top)
        ) and interleaves(partition_of_beta(rhs.bottom), partition_of_beta(lhs.top))
    return interleaves(
        partition_of_beta(lhs.top), partition_of_beta(rhs.bottom)
    ) and interleaves(partition_of_beta(rhs.top), partition_of_beta(lhs.bottom))


def in_b_sp_oeven(sp_symbol: Symbol, orth_symbol: Symbol, sign: int) -> bool:
    """Correspondence relation between a symplectic and an even-orthogonal symbol.

    Requires the interleaving relation of the given sign together with
    the defect equation def(orth) = -def(sp) + sign; a true result puts
    orth_symbol in the O^sign series automatically.
    """
    if defect(sp_symbol) % 4 != 1:
        raise SeriesError(
            f"bad-defect-class: {defect(sp_symbol)} is not a symplectic defect"
        )
    if defect(orth_symbol) != -defect(sp_symbol) + sign:
        return False
    return in_b_relation(sp_symbol, orth_symbol, sign)


def _b_uu_targets(sign: int, d: int) -> tuple[int, int]:
    """Allowed partner defects for the unitary relation, per branch."""
    if sign > 0:
        return (-d, -d + 1) if d % 2 == 0 else (-d + 1, -d + 2)
    return (-d - 2, -d - 1) if d % 2 == 0 else (-d - 1, -d)


def b_uu_branch(l1: Symbol, l2: Symbol) -> int | None:
    """Which branch (+1 / -1) relates the two unitary symbols, or None.

    The defect tables of the two branches are disjoint, so at most one
    branch can match.
    """
    d1, d2 = defect(l1), defect(l2)
    for sign in (1, -1):
        if d2 in _b_uu_targets(sign, d1) and in_b_relation(l1, l2, sign):
            return sign
    return None


def in_b_uu(l1: Symbol, l2: Symbol) -> bool:
    return b_uu_branch(l1, l2) is not None


def weil_pairs(n: int, sign: int, n_prime: int) -> list[tuple[Symbol, Symbol]]:
    """All correspondence pairs between the rank-n symplectic series and
    the rank-n_prime even-orthogonal series of the given sign."""
    family = O_PLUS if sign > 0 else O_MINUS
    pairs = [
        (a, b)
        for a in enumerate_series(SeriesTag(SP, n))
        for b in enumerate_series(SeriesTag(family, n_prime))
        if in_b_sp_oeven(a, b, sign)
    ]
    return sorted(
        pairs, key=lambda p: (defect(p[0]), p[0].top, p[0].bottom, defect(p[1]), p[1].top, p[1].bottom)
    )


def weil_pairs_unitary(n: int, n_prime: int) -> list[tuple[Partition, Partition]]:
    """All partition pairs (|lam| = n, |lam'| = n_prime) whose unitary
    symbols are related; asserts the branch matches the parity of n + n'."""
    expected_branch = 1 if (n + n_prime) % 2 == 0 else -1
    out = []
    for lam in partitions_of(n):
        s1 = symbol_from_partition(lam)
        for mu in partitions_of(n_prime):
            branch = b_uu_branch(s1, symbol_from_partition(mu))
            if branch is None:
                continue
            if branch != expected_branch:
                raise AssertionError(
                    f"unitary branch {branch} violates the parity rule for {lam}, {mu}"
                )
            out.append((lam, mu))
    return sorted(out)


def theta_zero_plus(sym: Symbol) -> Symbol:
    """Minimal partner map for the sign +1 relation (any symbol)."""
    top, bottom = sym.top, sym.bottom
    if top:
        return normalize(Symbol(bottom, top[1:]))
    return normalize(Symbol(tuple(x + 1 for x in bottom) + (0,), ()))


def theta_zero_minus(sym: Symbol) -> Symbol:
    """Minimal partner map for the sign -1 relation (any symbol)."""
    top, bottom = sym.top, sym.bottom
    if bottom:
        return normalize(Symbol(bottom[1:], top))
    return normalize(Symbol((), tuple(x + 1 for x in top) + (0,)))


def theta_zero_sp(sym: Symbol, sign: int) -> Symbol:
    """First-occurrence partner of a symplectic-series symbol in the
    even-orthogonal tower of the given sign."""
    if defect(sym) % 4 != 1:
        raise SeriesError(
            f"bad-defect-class: {defect(sym)} is not a symplectic defect"
        )
    return theta_zero_plus(sym) if sign > 0 else theta_zero_minus(sym)


def theta_zero_orth(sym: Symbol) -> Symbol:
    """First-occurrence partner of an even-orthogonal symbol in the
    symplectic tower; the sign is read off the defect class."""
    residue = defect(sym) % 4
    if residue == 0:
        return theta_zero_plus(sym)
    if residue == 2:
        return theta_zero_minus(sym)
    raise SeriesError(f"bad-defect-class: {defect(sym)} is not even-orthogonal")


def theta_zero_unitary(sym: Symbol, branch: int) -> Symbol:
    """Minimal unitary-series partner of an even-defect symbol on a branch.

    Same upsilon minimization as the theta maps, landing on the even
    entry of the branch's defect table (partner defect -d on the +1
    branch, -d - 2 on the -1 branch) so the image is again a partition
    symbol under the even-slot convention.
    """
    upper, lower = upsilon(sym)
    d = defect(sym)
    if d % 2 != 0:
        raise SeriesError(f"defect {d} is odd; not a unitary symbol")
    if branch > 0:
        return symbol_with(lower, upper[1:], -d)
    return symbol_with(lower[1:], upper, -d - 2)


_SCAN_MARGIN = 2


def first_occurrence_bruteforce(sym: Symbol, target_family: str) -> FirstOccurrence:
    """Scan target ranks upward until a correspondence partner appears.

    Independent of the closed-form theta maps: enumerates each target
    series and tests the relation directly.  The rank cap 2*rank +
    delta + margin is safe because the two towers' partner ranks sum to
    2*rank - delta plus a constant.
    """
    if target_family in (O_PLUS, O_MINUS):
        if defect(sym) % 4 != 1:
            raise SeriesError("bad-defect-class: source must be symplectic-series")
        sign = 1 if target_family == O_PLUS else -1
        need_defect = -defect(sym) + sign

        def hits_at(r: int) -> list[Symbol]:
            pool = series_by_defect(SeriesTag(target_family, r)).get(need_defect, ())
            return [cand for cand in pool if in_b_relation(sym, cand, sign)]

    elif target_family == SP:
        sign = 1 if defect(sym) % 4 == 0 else -1
        if defect(sym) % 2 != 0:
            raise SeriesError("bad-defect-class: source must be even-orthogonal")
        need_defect = sign - defect(sym)

        def hits_at(r: int) -> list[Symbol]:
            pool = series_by_defect(SeriesTag(SP, r)).get(need_defect, ())
            return [cand for cand in pool if in_b_relation(cand, sym, sign)]

    else:
        raise SeriesError(f"unsupported target family {target_family!r}")

    cap = 2 * rank(sym) + delta_symbol(sym) + _SCAN_MARGIN
    for r in range(cap + 1):
        hits = hits_at(r)
        if hits:
            return FirstOccurrence(
                hits[0], SeriesTag(target_family, r), 2 * r, tuple(hits)
            )
    raise CapExceededError(
        f"cap-exceeded: no partner of {sym} in {target_family} up to rank {cap}"
    )


@lru_cache(maxsize=None)
def _partitions_by_symbol_defect(n: int) -> dict[int, tuple[Partition, ...]]:
    grouped: dict[int, list[Partition]] = {}
    for lam in partitions_of(n):
        grouped.setdefault(defect(symbol_from_partition(lam)), []).append(lam)
    return {d: tuple(lams) for d, lams in grouped.items()}


def first_occurrence_unitary(lam: Partition, parity: int) -> FirstOccurrence:
    """Brute-force first occurrence of a unitary unipotent character in
    the tower of the given dimension parity (0 = even, 1 = odd)."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    sym = symbol_from_partition(lam)
    allowed = set(_b_uu_targets(1, defect(sym)) + _b_uu_targets(-1, defect(sym)))
    cap = 2 * sum(lam) + 1 + _SCAN_MARGIN
    for size in range(parity, cap + 1, 2):
        witnesses = [
            mu
            for d, pool in sorted(_partitions_by_symbol_defect(size).items())
            if d in allowed
            for mu in pool
            if in_b_uu(sym, symbol_from_partition(mu))
        ]
        if witnesses:
            witnesses.sort()
            return FirstOccurrence(
                symbol_from_partition(witnesses[0]),
                SeriesTag(UNITARY, size),
                size,
                tuple(witnesses),
            )
    raise CapExceededError(f"cap-exceeded: no unitary partner for {lam}")


def first_occurrence_unitary_closed(
    lam: Partition, parity: int
) -> tuple[int, Partition]:
    """Closed form of the unitary first occurrence via the theta map.

    The branch is +1 exactly when |lam| + parity is even; the partner
    size and partition are read back off the partner symbol.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    branch = 1 if (sum(lam) + parity) % 2 == 0 else -1
    partner = theta_zero_unitary(symbol_from_partition(lam), branch)
    size = unitary_size(partner)
    return size, partition_from_symbol(partner)


def preservation_sum_unipotent(sym: Symbol) -> tuple[int, int]:
    """Both sides of the preservation identity for a series symbol.

    Symplectic series: dims over the two even-orthogonal towers vs
    4n - 2*delta + 2.  Even-orthogonal series: dims for the symbol and
    its transpose vs 4n - 2*delta.
    """
    residue = defect(sym) % 4
    n, d = rank(sym), delta_symbol(sym)
    if residue == 1:
        lhs = 2 * rank(theta_zero_sp(sym, 1)) + 2 * rank(theta_zero_sp(sym, -1))
        return lhs, 4 * n - 2 * d + 2
    if residue in (0, 2):
        lhs = 2 * rank(theta_zero_orth(sym)) + 2 * rank(theta_zero_orth(transpose(sym)))
        return lhs, 4 * n - 2 * d
    raise SeriesError(f"series-undetermined: defect {defect(sym)} lies in no series")


def preservation_sum_unitary(lam: Partition) -> tuple[int, int]:
    """Both sides of the unitary preservation identity for a partition."""
    lhs = (
        first_occurrence_unitary(lam, 0).space_dimension
        + first_occurrence_unitary(lam, 1).space_dimension
    )
    rhs = 2 * sum(lam) - 2 * delta_symbol(symbol_from_partition(lam)) + 1
    return lhs, rhs
