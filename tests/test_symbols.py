import pytest
from hypothesis import given, strategies as st

from thetacalc import (
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
    enumerate_symbols,
    equivalent,
    extremal_delta_symbols,
    format_symbol,
    is_cuspidal,
    normalize,
    parse_symbol,
    partition_from_symbol,
    partitions_of,
    rank,
    series_contains,
    shift,
    staircase,
    symbol_from_partition,
    transpose,
    two_core,
    unitary_size,
    upsilon,
    upsilon_size,
)
from oracles import exhaustive_symbol_classes
from strategies import symbols_st

S = parse_symbol


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol((1, 1), ())
    with pytest.raises(ValueError):
        Symbol((-1,), ())
    with pytest.raises(ValueError):
        Symbol((0, 1), ())


def test_literal_round_trip():
    for text in ("|", "2,1,0|", "|2,1,0", "1,0|2", "5,3|4,1,0"):
        assert format_symbol(S(text)) == text
    with pytest.raises(ValueError):
        parse_symbol("1,2")
    with pytest.raises(ValueError):
        parse_symbol("1|2|3")


def test_normalize_examples():
    assert normalize(S("|")) == S("|")
    assert normalize(S("2,1,0|2,1,0")) == S("|")
    assert normalize(S("1,0|0")) == S("0|")
    sym = S("4,2|3,1,0")
    assert normalize(normalize(sym)) == normalize(sym)


def test_equivalence_examples():
    assert equivalent(S("0|"), S("1,0|0"))
    assert not equivalent(S("0|"), S("|0"))
    assert equivalent(S("2,1,0|2,1,0"), S("|"))


def test_rank_defect_delta_examples():
    assert rank(S("|")) == 0 and defect(S("|")) == 0 and delta_symbol(S("|")) == 0
    assert rank(S("1,0|2")) == 2
    assert defect(S("2,1,0|")) == 3
    assert defect(S("|2,1,0")) == -3
    assert delta_symbol(S("1,0|2")) == 2
    for n in range(1, 7):
        for k in range(n + 1):
            sym = Symbol((n - k + 1, 0), (k,))
            assert rank(sym) == n
            assert delta_symbol(sym) == n


def test_upsilon_examples():
    assert upsilon(S("|2,1,0")) == ((), ())
    assert upsilon(S("1,0|2")) == ((), (2,))
    for n in range(1, 6):
        for k in range(n + 1):
            expected = ((n - k,) if n - k else (), (k,) if k else ())
            assert upsilon(Symbol((n - k + 1, 0), (k,))) == expected


def test_transpose():
    assert transpose(S("|")) == S("|")
    assert transpose(S("1,0|")) == S("|1,0")
    sym = S("3,1|2,0")
    assert transpose(transpose(sym)) == sym
    assert defect(transpose(sym)) == -defect(sym)
    assert rank(transpose(sym)) == rank(sym)
    assert delta_symbol(transpose(sym)) == delta_symbol(sym)


@given(symbols_st, st.integers(1, 4))
def test_statistics_are_shift_invariant(sym, steps):
    moved = shift(sym, steps)
    assert rank(moved) == rank(sym)
    assert defect(moved) == defect(sym)
    assert delta_symbol(moved) == delta_symbol(sym)
    assert upsilon(moved) == upsilon(sym)
    assert normalize(moved) == normalize(sym)


def test_statistics_shift_invariant_exhaustive():
    for n in range(11):
        for sym in enumerate_symbols(n):
            moved = shift(sym)
            assert rank(moved) == rank(sym) == n
            assert defect(moved) == defect(sym)
            assert delta_symbol(moved) == delta_symbol(sym)
            assert upsilon(moved) == upsilon(sym)


def test_normalize_leaves_zero_out_of_one_row():
    for n in range(7):
        for sym in enumerate_symbols(n):
            assert not (
                sym.top and sym.bottom and sym.top[-1] == 0 and sym.bottom[-1] == 0
            )


@given(symbols_st)
def test_rank_identity(sym):
    assert rank(sym) == upsilon_size(sym) + (defect(sym) ** 2) // 4


@given(symbols_st)
def test_rank_lower_bound(sym):
    assert rank(sym) >= (defect(sym) ** 2) // 4


@given(symbols_st, symbols_st)
def test_equivalence_characterization(a, b):
    same_data = upsilon(a) == upsilon(b) and defect(a) == defect(b)
    assert equivalent(a, b) == same_data


def test_cuspidal_examples():
    assert is_cuspidal(S("|"))
    assert is_cuspidal(S("|2,1,0"))
    assert not is_cuspidal(S("1,0|2"))


def test_cuspidality_equivalence_small():
    for n in range(7):
        for sym in enumerate_symbols(n):
            flags = (is_cuspidal(sym), delta_symbol(sym) == 0, upsilon_size(sym) == 0)
            assert len(set(flags)) == 1, format_symbol(sym)


def test_series_contains_examples():
    assert series_contains(SeriesTag(SP, 2), S("|2,1,0"))
    assert series_contains(SeriesTag(O_MINUS, 1), S("1,0|"))
    assert not series_contains(SeriesTag(O_PLUS, 1), S("1,0|"))
    with pytest.raises(SeriesError, match="unsupported-family"):
        series_contains(SeriesTag(UNITARY, 1), S("|"))


def test_enumerate_series_counts():
    # Frozen from the exhaustive beta-pair oracle (and cross-checked below).
    assert [format_symbol(s) for s in enumerate_series(SeriesTag(SP, 0))] == ["0|"]
    assert [format_symbol(s) for s in enumerate_series(SeriesTag(O_PLUS, 0))] == ["|"]
    assert len(enumerate_series(SeriesTag(SP, 2))) == 6
    assert len(enumerate_series(SeriesTag(SP, 3))) == 12
    assert len(enumerate_series(SeriesTag(O_PLUS, 1))) == 2
    assert len(enumerate_series(SeriesTag(O_MINUS, 1))) == 2
    with pytest.raises(SeriesError, match="unsupported-family"):
        enumerate_series(SeriesTag(UNITARY, 2))


def test_enumerate_series_well_formed():
    for fam in (SP, O_PLUS, O_MINUS):
        for n in range(7):
            tag = SeriesTag(fam, n)
            series = enumerate_series(tag)
            assert len(set(series)) == len(series)
            for sym in series:
                assert sym == normalize(sym)
                assert series_contains(tag, sym)


def test_enumeration_matches_exhaustive_search():
    found = exhaustive_symbol_classes(3)
    for n in range(4):
        assert found.get(n, set()) == set(enumerate_symbols(n)), n


def test_symbol_from_partition_examples():
    assert symbol_from_partition(()) == S("|")
    assert upsilon_size(symbol_from_partition((2, 1))) == 0
    assert upsilon_size(symbol_from_partition((2,))) == 1


def test_symbol_from_partition_contract():
    seen = {}
    for n in range(17):
        for lam in partitions_of(n):
            sym = symbol_from_partition(lam)
            assert sym == normalize(sym)
            assert sum(lam) == sum(two_core(lam)) + 2 * upsilon_size(sym)
            assert unitary_size(sym) == n
            assert partition_from_symbol(sym) == lam
            assert sym not in seen, (lam, seen[sym]) if sym in seen else None
            seen[sym] = lam


def test_unitary_cuspidal_partitions():
    triangular = {0, 1, 3, 6, 10, 15}
    for n in range(16):
        cuspidal = [
            lam for lam in partitions_of(n) if is_cuspidal(symbol_from_partition(lam))
        ]
        if n in triangular:
            assert len(cuspidal) == 1
            assert cuspidal[0] == staircase(len(cuspidal[0]))
        else:
            assert cuspidal == []


def test_extremal_delta_small_defects():
    for n in range(6):
        listed = set(extremal_delta_symbols(n, 0))
        pool = enumerate_symbols(n)
        assert max(delta_symbol(s) for s in pool) == n
        assert listed == {s for s in pool if delta_symbol(s) == n}


def test_extremal_delta_defect_two():
    for n in range(1, 6):
        listed = set(extremal_delta_symbols(n, 2))
        pool = enumerate_symbols(n, (-2, 2))
        assert max(delta_symbol(s) for s in pool) == n - 1
        assert listed == {s for s in pool if delta_symbol(s) == n - 1}
    assert set(extremal_delta_symbols(1, 2)) == {S("|1,0"), S("1,0|")}


def test_extremal_delta_bad_class():
    with pytest.raises(ValueError, match="invalid-class"):
        extremal_delta_symbols(3, 1)
    with pytest.raises(ValueError, match="invalid-class"):
        extremal_delta_symbols(0, 2)
