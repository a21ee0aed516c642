"""Exact symbol calculus for the theta correspondence of finite classical groups.

Symbols (pairs of beta-sets up to shift) parametrize unipotent
characters of finite symplectic, even-orthogonal and unitary groups;
interleaving relations between symbols describe which characters pair
under the theta (Howe) correspondence.  This package computes the
symbol statistics, enumerates the series, evaluates the closed-form
first-occurrence maps with independent brute-force oracles, models
arbitrary irreducible characters by their block decomposition, and
verifies the preservation identities that tie the two first occurrences
of a character to its dimension and delta statistic.
"""

from .partitions import (
    BetaSet,
    Partition,
    beta_set_of,
    bipartitions_of,
    format_partition,
    interleaves,
    parse_partition,
    partition,
    partition_of_beta,
    partitions_of,
    two_core,
)
from .symbols import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesError,
    SeriesTag,
    Symbol,
    cuspidal_symbol,
    defect,
    delta_beta,
    delta_symbol,
    enumerate_series,
    enumerate_symbols,
    equivalent,
    extremal_delta_symbols,
    format_symbol,
    is_cuspidal,
    is_unitary_symbol,
    normalize,
    orth_sign,
    parse_symbol,
    partition_from_symbol,
    rank,
    series_contains,
    shift,
    staircase,
    symbol_from_partition,
    symbol_with,
    transpose,
    unitary_size,
    upsilon,
    upsilon_size,
)
from .theta import (
    CapExceededError,
    FirstOccurrence,
    b_uu_branch,
    first_occurrence_bruteforce,
    first_occurrence_unitary,
    first_occurrence_unitary_closed,
    in_b_relation,
    in_b_sp_oeven,
    in_b_uu,
    preservation_sum_unipotent,
    preservation_sum_unitary,
    theta_zero_orth,
    theta_zero_sp,
    theta_zero_unitary,
    weil_pairs,
    weil_pairs_unitary,
)
from .characters import (
    CharacterError,
    GeneralCharacter,
    c_twist,
    char_dim,
    character_from_json,
    character_to_json,
    corresponds,
    delta_char,
    enumerate_characters,
    enumerate_characters_all_blocks,
    first_occurrence_general,
    first_occurrence_general_brute,
    first_occurrence_partner,
    is_cuspidal_character,
    make_character,
    odd_witt_split,
    preservation_sum_general,
    random_character,
    sgn_twist,
)
from .cuspidal import (
    CheckReport,
    CuspidalRecord,
    check_cuspidal_preservation_sums,
    check_pseudo_cuspidal_even_partners,
    check_pseudo_cuspidal_odd_partners,
    check_unipotent_cuspidal_odd_partner,
    pseudo_unipotent_cuspidal_sp,
    unipotent_cuspidal,
)
from .verify import SUITES, run_suite
