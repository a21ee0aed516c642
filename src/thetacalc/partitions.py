"""Partitions, beta-sets, and 2-cores.

The ground layer of the symbol calculus: weakly decreasing integer
sequences (partitions), strictly decreasing finite sets of non-negative
integers (beta-sets), the interleaving order used by the correspondence
relations, and 2-core extraction.

Partitions and beta-sets are plain tuples of ints; every function here
is pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]
BetaSet = tuple[int, ...]


def partition(parts) -> Partition:
    """Canonical partition: weakly decreasing tuple, trailing zeros stripped."""
    out = tuple(int(p) for p in parts)
    if any(a < b for a, b in zip(out, out[1:])):
        raise ValueError(f"parts not weakly decreasing: {out}")
    if out and out[-1] < 0:
        raise ValueError(f"negative part in {out}")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition literal; "" is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    return partition(int(piece) for piece in text.split(","))


def format_partition(parts: Partition) -> str:
    return ",".join(str(p) for p in parts)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def grow(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            grow(remaining - part, part, prefix)
            prefix.pop()

    grow(n, n, [])
    return tuple(out)


@lru_cache(maxsize=None)
def bipartitions_of(n: int) -> tuple[tuple[Partition, Partition], ...]:
    """All ordered pairs (upper, lower) with |upper| + |lower| = n."""
    return tuple(
        (upper, lower)
        for k in range(n + 1)
        for upper in partitions_of(n - k)
        for lower in partitions_of(k)
    )


def interleaves(lam: Partition, mu: Partition) -> bool:
    """Whether mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... with zero padding.

    That is, whether mu is lam plus a horizontal strip (Macdonald,
    *Symmetric Functions and Hall Polynomials*, I.1 and I.5).  Rows
    past a partition's length are zeros, so mu has len(lam) or
    len(lam) + 1 rows unless trailing zeros make up the difference;
    row counts reject most pairs before any part is compared.
    """
    rows = len(lam)
    if len(mu) > rows + 1:
        if any(mu[rows + 1 :]):
            return False
        mu = mu[: rows + 1]
    elif len(mu) < rows:
        if any(lam[len(mu) :]):
            return False
        rows = len(mu)
    upper = mu[0] if mu else 0
    for i in range(rows):
        lower = mu[i + 1] if i + 1 < len(mu) else 0
        if not upper >= lam[i] >= lower:
            return False
        upper = lower
    return upper >= 0


def partitions_above(lam: Partition, size: int) -> Iterator[Partition]:
    """Every partition mu of `size` with interleaves(lam, mu): lam plus a
    horizontal strip of size - |lam| cells, which may open one new row."""
    extra = size - sum(lam)
    top = (lam[0] if lam else 0) + extra
    return _between(lam + (0,), (top,) + lam, extra)


def partitions_below(mu: Partition, size: int) -> Iterator[Partition]:
    """Every partition lam of `size` with interleaves(lam, mu): mu less a
    horizontal strip of |mu| - size cells."""
    lows = mu[1:] + (0,) if mu else ()
    return _between(lows, mu, size - sum(lows))


def _between(lows: Partition, highs: Partition, extra: int) -> Iterator[Partition]:
    """The partitions lows + x with 0 <= x_i <= highs_i - lows_i and
    |x| = extra, trailing zeros stripped.

    Each row takes at least what the rows after it cannot hold, so
    every branch of the search ends in an output.
    """
    rows = len(lows)
    reach = [0] * (rows + 1)
    for i in reversed(range(rows)):
        reach[i] = reach[i + 1] + highs[i] - lows[i]

    def fill(i: int, left: int) -> Iterator[Partition]:
        if i == rows:
            yield ()
            return
        for take in range(max(0, left - reach[i + 1]), min(left, highs[i] - lows[i]) + 1):
            for rest in fill(i + 1, left - take):
                yield (lows[i] + take,) + rest

    if 0 <= extra <= reach[0]:
        for parts in fill(0, extra):
            while parts and parts[-1] == 0:
                parts = parts[:-1]
            yield parts


def beta_set_of(lam: Partition, n_slots: int) -> BetaSet:
    """Beta-set {lam_i + n_slots - i : 1 <= i <= n_slots}, lam padded by zeros."""
    if n_slots < len(lam):
        raise ValueError(
            f"slots-too-few: need at least {len(lam)} slots for {lam}, got {n_slots}"
        )
    padded = lam + (0,) * (n_slots - len(lam))
    return tuple(padded[i] + n_slots - (i + 1) for i in range(n_slots))


def partition_of_beta(beta: BetaSet) -> Partition:
    """Inverse of beta_set_of: subtract the staircase and strip zeros.

    The parts go through partition(), so a row that is not a beta-set
    raises its ValueError.
    """
    m = len(beta)
    return partition(beta[i] - (m - (i + 1)) for i in range(m))


def two_core(lam: Partition) -> Partition:
    """The 2-core: the staircase left after removing all dominoes.

    Computed by parity-splitting a beta-set of lam and packing each
    parity class down to its minimal configuration; the result does not
    depend on the number of slots used.
    """
    beta = beta_set_of(lam, len(lam))
    n_even = sum(1 for b in beta if b % 2 == 0)
    n_odd = len(beta) - n_even
    packed = [2 * i for i in range(n_even)] + [2 * i + 1 for i in range(n_odd)]
    return partition_of_beta(tuple(sorted(packed, reverse=True)))
