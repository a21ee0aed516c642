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
    """Whether mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... with zero padding."""
    span = max(len(lam), len(mu))

    def lam_at(i: int) -> int:
        return lam[i] if i < len(lam) else 0

    def mu_at(i: int) -> int:
        return mu[i] if i < len(mu) else 0

    return all(mu_at(i) >= lam_at(i) >= mu_at(i + 1) for i in range(span))


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
