"""Hypothesis strategies shared by the tests."""

from hypothesis import strategies as st

from thetacalc import Symbol

beta_rows = st.lists(st.integers(0, 12), max_size=5).map(
    lambda xs: tuple(sorted(set(xs), reverse=True))
)
symbols_st = st.builds(Symbol, beta_rows, beta_rows)
