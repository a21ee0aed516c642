import pytest
from hypothesis import given, strategies as st

from thetacalc import (
    beta_set_of,
    interleaves,
    parse_partition,
    format_partition,
    partition,
    partition_of_beta,
    partitions_of,
    two_core,
)
from thetacalc.partitions import partitions_above, partitions_below
from oracles import all_two_cores_by_removal, two_core_by_removal


partitions_st = st.lists(st.integers(1, 9), max_size=6).map(
    lambda parts: partition(sorted(parts, reverse=True))
)


def test_partition_canonical_form():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_partition_literals():
    assert parse_partition("") == ()
    assert parse_partition("3,1") == (3, 1)
    assert format_partition((3, 1)) == "3,1"
    assert parse_partition(format_partition((5, 2, 2))) == (5, 2, 2)


def test_partitions_of_counts():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_interleaves_examples():
    assert interleaves((), ())
    assert interleaves((2,), (2,))
    assert not interleaves((3, 1), (2, 2))
    # padding: the empty partition interleaves exactly one-row partitions
    assert interleaves((), (4,))
    assert not interleaves((), (1, 1))
    assert interleaves((2, 1), (3, 1))
    assert not interleaves((3,), (2,))


def _interleaves_by_definition(lam, mu):
    """mu_i >= lam_i >= mu_{i+1} for every row of either, zero-padded."""
    span = max(len(lam), len(mu))

    def at(parts, i):
        return parts[i] if i < len(parts) else 0

    return all(at(mu, i) >= at(lam, i) >= at(mu, i + 1) for i in range(span))


def test_interleaves_matches_its_padded_definition():
    small = [lam for n in range(11) for lam in partitions_of(n)]
    pairs = [(lam, mu) for lam in small for mu in small]
    assert len(pairs) == 19_321
    # Trailing zeros and empty inputs on either side.
    tiny = small[:30]
    zeros = ((), (0,), (0, 0), (0, 0, 0))
    pairs += [(lam + a, mu + b) for lam in tiny for mu in tiny for a in zeros for b in zeros]
    for lam, mu in pairs:
        assert interleaves(lam, mu) == _interleaves_by_definition(lam, mu), (lam, mu)


def test_horizontal_strips_are_the_interleaving_partitions():
    for lam in (lam for n in range(8) for lam in partitions_of(n)):
        for size in range(-1, 10):
            pool = partitions_of(size) if size >= 0 else ()
            above = list(partitions_above(lam, size))
            below = list(partitions_below(lam, size))
            assert sorted(above) == sorted(mu for mu in pool if interleaves(lam, mu))
            assert sorted(below) == sorted(mu for mu in pool if interleaves(mu, lam))
            assert len(set(above)) == len(above) and len(set(below)) == len(below)


def test_interleaves_reflexive_and_size_monotone():
    for n in range(13):
        for lam in partitions_of(n):
            assert interleaves(lam, lam)
    for n in range(13):
        for m in range(13):
            for lam in partitions_of(n):
                for mu in partitions_of(m):
                    if interleaves(lam, mu):
                        assert sum(lam) <= sum(mu)


def test_beta_set_examples():
    assert beta_set_of((), 3) == (2, 1, 0)
    assert beta_set_of((2, 1), 2) == (3, 1)
    assert beta_set_of((2, 1), 3) == (4, 2, 0)
    with pytest.raises(ValueError, match="slots-too-few"):
        beta_set_of((2, 1), 1)


def test_partition_of_beta_examples():
    assert partition_of_beta((2, 1, 0)) == ()
    assert partition_of_beta((3, 1)) == (2, 1)
    assert partition_of_beta((2,)) == (2,)


@pytest.mark.parametrize(
    "beta, message",
    [
        ((1, 2), "parts not weakly decreasing: (0, 2)"),
        ((0, 0), "parts not weakly decreasing: (-1, 0)"),
        ((3, 3, 0), "parts not weakly decreasing: (1, 2, 0)"),
        ((2, -1), "negative part in (1, -1)"),
    ],
)
def test_partition_of_beta_rejects_non_beta_sets(beta, message):
    with pytest.raises(ValueError) as info:
        partition_of_beta(beta)
    assert str(info.value) == message


@given(partitions_st, st.integers(0, 4))
def test_beta_round_trip(lam, extra):
    slots = len(lam) + extra
    beta = beta_set_of(lam, slots)
    assert len(beta) == slots
    assert len(set(beta)) == slots
    assert partition_of_beta(beta) == lam


def test_beta_round_trip_other_direction():
    for n in range(9):
        for lam in partitions_of(n):
            beta = beta_set_of(lam, len(lam) + 1)
            assert beta_set_of(partition_of_beta(beta), len(beta)) == beta


def test_two_core_examples():
    assert two_core(()) == ()
    assert two_core((2,)) == ()
    assert two_core((2, 1)) == (2, 1)
    assert two_core((3,)) == (1,)
    assert two_core((3, 1)) == ()
    assert two_core((4, 2, 1)) == (1,)


def test_two_core_matches_domino_removal():
    for n in range(15):
        for lam in partitions_of(n):
            assert two_core(lam) == two_core_by_removal(lam)


def test_two_core_order_independence():
    for n in range(11):
        for lam in partitions_of(n):
            assert all_two_cores_by_removal(lam) == {two_core(lam)}


def test_two_core_is_staircase_and_parity():
    for n in range(21):
        for lam in partitions_of(n):
            core = two_core(lam)
            d = len(core)
            assert core == tuple(range(d, 0, -1))
            assert (sum(lam) - sum(core)) % 2 == 0
