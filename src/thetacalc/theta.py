"""Correspondence relations on symbols and first occurrences.

The interleaving relations pairing symbols across a dual pair, the
defect bookkeeping that selects the orthogonal tower, the closed-form
minimal-partner (theta) maps, brute-force first-occurrence scans that
serve as independent oracles for them, and the rank-sum identities
behind the preservation principle.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .partitions import (
    Partition,
    interleaves,
    partitions_above,
    partitions_below,
    partitions_of,
)
from .symbols import (
    SP,
    O_MINUS,
    O_PLUS,
    SeriesError,
    SeriesTag,
    Symbol,
    _valid_symbol,
    defect,
    defect_floor,
    delta_symbol,
    enumerate_series,
    normalize,
    partition_from_symbol,
    partition_of_beta,
    rank,
    series_by_defect,
    staircase_index,
    symbol_from_partition,
    symbol_with,
    transpose,
    unitary_size,
    upsilon,
)
from functools import lru_cache


class CapExceededError(RuntimeError):
    """A first-occurrence scan ran past its bound; signals a bug."""


class FirstOccurrence(NamedTuple):
    """What every first-occurrence oracle returns: the dimension of the
    minimal target space (twice the rank for a symbol series), and every
    partner found there (symbols, partitions or model characters)."""

    space_dimension: int
    witnesses: tuple

    def confirms(self, dim: int, partner) -> bool:
        return dim == self.space_dimension and partner in self.witnesses


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


def _b_uu_defect(sign: int, d: int) -> int:
    """The partner defect of the unitary relation on a branch."""
    return -d if sign > 0 else -d - 2


def b_uu_branch(l1: Symbol, l2: Symbol) -> int | None:
    """Which branch (+1 / -1) relates the two unitary symbols, or None.

    The partner of an even-defect d symbol has defect -d on +1 and -d - 2
    on -1, so at most one branch matches; an odd defect raises SeriesError.
    """
    d1, d2 = defect(l1), defect(l2)
    if d1 % 2 or d2 % 2:
        raise SeriesError(f"defect {d1 if d1 % 2 else d2} is odd; not a unitary symbol")
    for sign in (1, -1):
        if d2 == _b_uu_defect(sign, d1) and in_b_relation(l1, l2, sign):
            return sign
    return None


def in_b_uu(l1: Symbol, l2: Symbol) -> bool:
    return b_uu_branch(l1, l2) is not None


def _strip_lifts(sym: Symbol, sign: int, size: int) -> Iterator[tuple[Partition, Partition]]:
    """Every upsilon pair (upper, lower) of total size `size` whose
    symbols b, of any defect, satisfy in_b_relation(sym, b, sign).

    Two partitions interleave exactly when one is the other plus a
    horizontal strip (Pieri rule; Macdonald, *Symmetric Functions and
    Hall Polynomials*, I.5).  Sign +1 adds a strip to Y(sym.bottom) for
    the upper row and removes one from Y(sym.top) for the lower row;
    sign -1 is the row-swapped mirror.  No relation is tested.
    """
    upper, lower = upsilon(sym)
    grow, shrink = (lower, upper) if sign > 0 else (upper, lower)
    for kept in range(min(sum(shrink), size - sum(grow)) + 1):
        for small in partitions_below(shrink, kept):
            for big in partitions_above(grow, size - kept):
                yield (big, small) if sign > 0 else (small, big)


def weil_pairs(n: int, sign: int, n_prime: int) -> list[tuple[Symbol, Symbol]]:
    """All correspondence pairs between the rank-n symplectic series and
    the rank-n_prime even-orthogonal series of the given sign.

    Generated, not scanned: each symplectic a has partner defect
    -def(a) + sign, which with n_prime fixes the size of the partner's
    upsilon pair, and its partners are the horizontal strips of
    _strip_lifts (Pieri rule; Macdonald, I.5).  Neither in_b_sp_oeven
    nor in_b_relation is called.
    """
    if min(n, n_prime) < 0:
        raise ValueError("ranks must be non-negative")
    pairs = []
    for a in enumerate_series(SeriesTag(SP, n)):
        d = -defect(a) + sign
        lifts = _strip_lifts(a, sign, n_prime - defect_floor(d))
        pairs += [(a, symbol_with(upper, lower, d)) for upper, lower in lifts]
    return sorted(
        pairs, key=lambda p: (defect(p[0]), p[0].top, p[0].bottom, defect(p[1]), p[1].top, p[1].bottom)
    )


def weil_pairs_unitary(n: int, n_prime: int) -> list[tuple[Partition, Partition]]:
    """All partition pairs (|lam| = n, |lam'| = n_prime) whose unitary
    symbols are related; asserts the branch matches the parity of n + n'.

    Generated like weil_pairs: on each branch the partner symbol has
    the even defect of the branch's table (-d on +1, -d - 2 on -1),
    which with n_prime fixes the size of its upsilon pair, and its
    partners are the horizontal strips of _strip_lifts.  Neither
    b_uu_branch nor in_b_relation is called.
    """
    if min(n, n_prime) < 0:
        raise ValueError("ranks must be non-negative")
    expected_branch = 1 if (n + n_prime) % 2 == 0 else -1
    out = []
    for lam in partitions_of(n):
        s1 = symbol_from_partition(lam)
        d = defect(s1)
        for branch, partner_defect in ((1, -d), (-1, -d - 2)):
            # n_prime is the 2-core's size plus twice the upsilon size.
            rows = staircase_index(partner_defect)
            cells = n_prime - rows * (rows + 1) // 2
            if cells < 0 or cells % 2:
                continue
            for upper, lower in _strip_lifts(s1, branch, cells // 2):
                mu = partition_from_symbol(symbol_with(upper, lower, partner_defect))
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
        return normalize(_valid_symbol(bottom, top[1:]))
    return normalize(_valid_symbol(tuple(x + 1 for x in bottom) + (0,), ()))


def theta_zero_minus(sym: Symbol) -> Symbol:
    """Minimal partner map for the sign -1 relation (any symbol): the +1
    map mirrored, as the -1 relation is the +1 relation on transposed
    symbols (Aubert-Michel-Rouquier, Duke Math. J. 83, 1996)."""
    return transpose(theta_zero_plus(transpose(sym)))


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
            return FirstOccurrence(2 * r, tuple(hits))
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
    allowed = {_b_uu_defect(1, defect(sym)), _b_uu_defect(-1, defect(sym))}
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
            return FirstOccurrence(size, tuple(witnesses))
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
