"""Derived symbols are built without re-validation; these tests check that
the trust is earned.

normalize, shift, transpose and the theta maps build their results from
rows that are valid whenever the input symbol is, skipping the checks of
Symbol.__post_init__.  Each result must equal the symbol the validating
constructor builds from the same rows, down to the type of every entry.
The mirror identities tie the two signs of the relation and of the
theta maps together, so a slip in one sign's rows shows up here.
"""

from hypothesis import given

from thetacalc import (
    O_MINUS,
    O_PLUS,
    SP,
    SeriesTag,
    Symbol,
    defect,
    enumerate_series,
    enumerate_symbols,
    in_b_relation,
    normalize,
    shift,
    theta_zero_orth,
    theta_zero_sp,
    transpose,
)
from thetacalc.theta import theta_zero_minus, theta_zero_plus
from strategies import symbols_st

SMALL_SYMBOLS = [sym for n in range(6) for sym in enumerate_symbols(n)]
SMALL_SERIES = [
    sym
    for family in (SP, O_PLUS, O_MINUS)
    for n in range(6)
    for sym in enumerate_series(SeriesTag(family, n))
]


def derived(sym):
    """Every derived symbol of sym, by the name of the map that built it."""
    out = {
        "normalize": normalize(sym),
        "shift": shift(sym),
        "shift-3": shift(sym, 3),
        "transpose": transpose(sym),
        "theta_zero_plus": theta_zero_plus(sym),
        "theta_zero_minus": theta_zero_minus(sym),
    }
    residue = defect(sym) % 4
    if residue == 1:
        out["theta_zero_sp+"] = theta_zero_sp(sym, 1)
        out["theta_zero_sp-"] = theta_zero_sp(sym, -1)
    elif residue in (0, 2):
        out["theta_zero_orth"] = theta_zero_orth(sym)
    return out


def assert_trust_earned(sym):
    for name, out in derived(sym).items():
        assert type(out) is Symbol, (sym, name)
        assert Symbol(out.top, out.bottom) == out, (sym, name)
        for row in (out.top, out.bottom):
            assert type(row) is tuple, (sym, name)
            assert all(type(x) is int for x in row), (sym, name)


@given(symbols_st)
def test_derived_symbols_pass_validation(sym):
    assert_trust_earned(sym)


def test_derived_symbols_pass_validation_series():
    for sym in SMALL_SERIES:
        assert_trust_earned(sym)


def theta_zero_minus_rows(sym):
    """The sign -1 map by its explicit rows, built with the validating
    constructor: (bottom[1:], top), or ((), top + 1 with 0 appended) when
    the bottom row is empty, normalized."""
    top, bottom = sym.top, sym.bottom
    if bottom:
        return normalize(Symbol(bottom[1:], top))
    return normalize(Symbol((), tuple(x + 1 for x in top) + (0,)))


def assert_theta_mirror(sym):
    assert theta_zero_minus(sym) == theta_zero_minus_rows(sym), sym


@given(symbols_st, symbols_st)
def test_mirror_identities(a, b):
    assert in_b_relation(a, b, -1) == in_b_relation(transpose(a), transpose(b), 1)
    assert_theta_mirror(a)


def test_mirror_identities_exhaustive():
    assert len(SMALL_SYMBOLS) == 340
    transposed = [transpose(sym) for sym in SMALL_SYMBOLS]
    for a, a_t in zip(SMALL_SYMBOLS, transposed):
        assert_theta_mirror(a)
        for b, b_t in zip(SMALL_SYMBOLS, transposed):
            assert in_b_relation(a, b, -1) == in_b_relation(a_t, b_t, 1), (a, b)
