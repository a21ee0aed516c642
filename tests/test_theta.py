import pytest

from thetacalc import (
    SP,
    O_MINUS,
    O_PLUS,
    SeriesError,
    SeriesTag,
    Symbol,
    b_uu_branch,
    defect,
    delta_symbol,
    enumerate_series,
    equivalent,
    first_occurrence_bruteforce,
    first_occurrence_unitary,
    first_occurrence_unitary_closed,
    format_symbol,
    in_b_relation,
    in_b_sp_oeven,
    in_b_uu,
    parse_symbol,
    partitions_of,
    preservation_sum_unipotent,
    preservation_sum_unitary,
    rank,
    series_contains,
    symbol_from_partition,
    theta_zero_orth,
    theta_zero_sp,
    theta_zero_unitary,
    transpose,
    unitary_size,
    weil_pairs,
    weil_pairs_unitary,
)
from thetacalc.verify import pair_scan, unitary_pair_scan

S = parse_symbol


def test_in_b_relation_examples():
    assert in_b_relation(S("|"), S("|"), 1)
    assert in_b_relation(S("1,0|2"), S("2|0"), 1)
    assert not in_b_relation(S("2|"), S("|"), -1)
    assert in_b_relation(S("|2,1,0"), S("|"), -1)


def test_in_b_relation_class_invariance():
    from thetacalc import shift

    cases = [
        (S("1,0|2"), S("2|0"), 1),
        (S("2|"), S("|"), -1),
        (S("|2,1,0"), S("1,0|"), -1),
        (S("3,1|2"), S("2,1|3,0"), 1),
    ]
    for lhs, rhs, sign in cases:
        expected = in_b_relation(lhs, rhs, sign)
        for i in range(3):
            for j in range(3):
                assert in_b_relation(shift(lhs, i), shift(rhs, j), sign) == expected


def test_in_b_sp_oeven_examples():
    assert in_b_sp_oeven(S("0|"), S("|"), 1)
    assert in_b_sp_oeven(S("|2,1,0"), S("1,0|"), -1)
    assert not in_b_sp_oeven(S("0|"), S("|"), -1)
    with pytest.raises(SeriesError, match="bad-defect-class"):
        in_b_sp_oeven(S("|"), S("|"), 1)


def test_in_b_sp_oeven_lands_in_series():
    for n in range(5):
        for sym in enumerate_series(SeriesTag(SP, n)):
            for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                for n_prime in range(6):
                    for cand in enumerate_series(SeriesTag(fam, n_prime)):
                        if in_b_sp_oeven(sym, cand, sign):
                            assert series_contains(SeriesTag(fam, n_prime), cand)


def test_in_b_uu_examples():
    # computed with the scan oracle before freezing
    assert in_b_uu(S("|"), S("|"))
    assert b_uu_branch(symbol_from_partition((2, 1)), symbol_from_partition((1,))) == 1
    assert b_uu_branch(symbol_from_partition(()), symbol_from_partition((1,))) == -1
    assert b_uu_branch(symbol_from_partition((2,)), symbol_from_partition((1,))) is None
    # Unitary symbols have even defect; "0|" has defect 1.
    with pytest.raises(SeriesError):
        in_b_uu(S("|"), S("0|"))
    with pytest.raises(SeriesError):
        in_b_uu(S("0|"), S("|1,0"))
    with pytest.raises(SeriesError):
        b_uu_branch(S("0|"), S("|1,0"))


def test_weil_pairs_examples():
    assert weil_pairs(0, 1, 0) == [(S("0|"), S("|"))]
    assert weil_pairs(0, -1, 0) == []
    pairs = weil_pairs(2, -1, 1)
    assert (S("|2,1,0"), S("1,0|")) in pairs


def test_weil_pairs_against_double_loop():
    for n in range(7):
        for n_prime in range(7):
            for sign in (1, -1):
                pairs = weil_pairs(n, sign, n_prime)
                assert len(pairs) == len(set(pairs))
                assert set(pairs) == pair_scan(n, sign, n_prime), (n, sign, n_prime)


def test_weil_pairs_unitary_examples():
    assert weil_pairs_unitary(0, 0) == [((), ())]
    assert weil_pairs_unitary(0, 1) == [((), (1,))]
    assert weil_pairs_unitary(1, 0) == [((1,), ())]


def test_weil_pairs_unitary_parity_rule():
    # weil_pairs_unitary raises if a branch violates parity.
    for n in range(9):
        for n_prime in range(9):
            pairs = weil_pairs_unitary(n, n_prime)
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == unitary_pair_scan(n, n_prime), (n, n_prime)


@pytest.mark.parametrize("n, n_prime", [(-1, 0), (0, -1), (2, -3)])
def test_weil_pairs_reject_negative_ranks(n, n_prime):
    for sign in (1, -1):
        with pytest.raises(ValueError):
            weil_pairs(n, sign, n_prime)
    with pytest.raises(ValueError):
        weil_pairs_unitary(n, n_prime)


def test_theta_zero_sp_examples():
    assert format_symbol(theta_zero_sp(S("|2,1,0"), -1)) == "1,0|"
    assert rank(theta_zero_sp(S("|2,1,0"), -1)) == 1
    for n in range(1, 7):
        for k in range(n + 1):
            lam_k = Symbol((n - k + 1, 0), (k,))
            plus = theta_zero_sp(lam_k, 1)
            minus = theta_zero_sp(lam_k, -1)
            assert equivalent(plus, Symbol((k,), (0,)))
            assert rank(plus) == k
            # the minus partner of (n-k+1,0|k) is (|n-k+1,0): defect -2,
            # forced by the defect equation of the relation
            assert equivalent(minus, Symbol((), (n - k + 1, 0)))
            assert rank(minus) == n - k + 1
            assert in_b_sp_oeven(lam_k, minus, -1)
    with pytest.raises(SeriesError, match="bad-defect-class"):
        theta_zero_sp(S("|"), 1)


def test_theta_zero_orth_examples():
    assert format_symbol(theta_zero_orth(S("|"))) == "0|"
    assert format_symbol(theta_zero_orth(S("1,0|"))) == "|2,1,0"
    assert format_symbol(theta_zero_orth(S("1|0"))) == "0|"
    with pytest.raises(SeriesError, match="bad-defect-class"):
        theta_zero_orth(S("0|"))


def test_first_occurrence_bruteforce_examples():
    assert first_occurrence_bruteforce(S("0|"), O_PLUS) == (0, (S("|"),))
    assert first_occurrence_bruteforce(S("|2,1,0"), O_MINUS).space_dimension == 2
    assert first_occurrence_bruteforce(S("|2,1,0"), O_PLUS).space_dimension == 8


def test_first_occurrence_matches_theta_maps():
    for n in range(6):
        for sym in enumerate_series(SeriesTag(SP, n)):
            for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                fo = first_occurrence_bruteforce(sym, fam)
                tz = theta_zero_sp(sym, sign)
                assert fo == (2 * rank(tz), (tz,))
        for fam in (O_PLUS, O_MINUS):
            for sym in enumerate_series(SeriesTag(fam, n)):
                fo = first_occurrence_bruteforce(sym, SP)
                tz = theta_zero_orth(sym)
                assert fo == (2 * rank(tz), (tz,))


def test_theta_rank_sums():
    for n in range(9):
        for sym in enumerate_series(SeriesTag(SP, n)):
            lhs = rank(theta_zero_sp(sym, 1)) + rank(theta_zero_sp(sym, -1))
            assert lhs == 2 * n - delta_symbol(sym) + 1
        for fam in (O_PLUS, O_MINUS):
            for sym in enumerate_series(SeriesTag(fam, n)):
                lhs = rank(theta_zero_orth(sym)) + rank(theta_zero_orth(transpose(sym)))
                assert lhs == 2 * n - delta_symbol(sym)


def test_unitary_theta_rank_sum():
    # rank sums of the raw case maps on partition symbols (even defect)
    from thetacalc.theta import theta_zero_minus, theta_zero_plus

    for n in range(15):
        for lam in partitions_of(n):
            sym = symbol_from_partition(lam)
            lhs = rank(theta_zero_plus(sym)) + rank(theta_zero_minus(sym))
            bonus = 1 if defect(sym) % 2 else 0
            assert lhs == 2 * rank(sym) - delta_symbol(sym) + bonus
    # the odd-defect branch of the same identity, on generic symbols
    from thetacalc import enumerate_symbols

    for n in range(7):
        for sym in enumerate_symbols(n):
            lhs = rank(theta_zero_plus(sym)) + rank(theta_zero_minus(sym))
            bonus = 1 if defect(sym) % 2 else 0
            assert lhs == 2 * rank(sym) - delta_symbol(sym) + bonus


def test_defect_residue_bookkeeping():
    # the defect equation forces the partner into the right residue class
    for d in range(-31, 32, 2):
        if d % 4 == 1:
            assert (-d + 1) % 4 == 0
            assert (-d - 1) % 4 == 2
    for n in range(6):
        for sym in enumerate_series(SeriesTag(SP, n)):
            for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                partner = theta_zero_sp(sym, sign)
                assert series_contains(SeriesTag(fam, rank(partner)), partner)


def test_theta_zero_unitary_closed_form():
    for n in range(9):
        for lam in partitions_of(n):
            sym = symbol_from_partition(lam)
            for branch in (1, -1):
                partner = theta_zero_unitary(sym, branch)
                assert b_uu_branch(sym, partner) == branch
                assert unitary_size(partner) >= 0


def test_first_occurrence_unitary_examples():
    assert first_occurrence_unitary((), 0).space_dimension == 0
    even = first_occurrence_unitary((2, 1), 0)
    odd = first_occurrence_unitary((2, 1), 1)
    assert (even.space_dimension, odd.space_dimension) == (6, 1)
    assert even.witnesses == ((3, 2, 1),)
    assert odd.witnesses == ((1,),)
    towers = [
        first_occurrence_unitary((1,), p).space_dimension for p in (0, 1)
    ]
    assert sum(towers) == 3


def test_first_occurrence_unitary_closed_matches_bruteforce():
    for n in range(9):
        for lam in partitions_of(n):
            for parity in (0, 1):
                fo = first_occurrence_unitary(lam, parity)
                size, partner = first_occurrence_unitary_closed(lam, parity)
                assert size == fo.space_dimension
                assert partner in fo.witnesses


def test_preservation_sum_unipotent_examples():
    assert preservation_sum_unipotent(S("0|")) == (2, 2)
    assert preservation_sum_unipotent(S("|")) == (0, 0)
    assert preservation_sum_unipotent(S("1,0|2")) == (6, 6)
    with pytest.raises(SeriesError, match="series-undetermined"):
        preservation_sum_unipotent(S("2,1,0|"))


def test_preservation_sum_unitary_small():
    for n in range(10):
        for lam in partitions_of(n):
            lhs, rhs = preservation_sum_unitary(lam)
            assert lhs == rhs
