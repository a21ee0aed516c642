"""The brute-force oracles never call the closed forms they check, and
the enumerators build the same characters as the validating constructor.

The oracles are run once as they are, then again with every closed form
replaced, under each name a module binds it to, by a function that
raises.  Both runs must give the same results.  The pair-set generators
and verify's pair-set scans are checked the same way in both
directions: the generators never test the relation, and the scans never
call the generators.
"""

import dataclasses

import pytest

import thetacalc
from thetacalc import characters, cli, cuspidal, partitions, theta, verify
from thetacalc.characters import (
    TARGETS,
    enumerate_characters_all_blocks,
    first_occurrence_general_brute,
)
from thetacalc.partitions import partitions_of
from thetacalc.symbols import O_MINUS, O_PLUS, SP, SeriesTag, enumerate_series
from thetacalc.theta import (
    first_occurrence_bruteforce,
    first_occurrence_unitary,
    weil_pairs,
    weil_pairs_unitary,
)
from thetacalc.verify import pair_scan, unitary_pair_scan

CLOSED_FORMS = (
    "theta_zero_plus",
    "theta_zero_minus",
    "theta_zero_sp",
    "theta_zero_orth",
    "theta_zero_unitary",
    "first_occurrence_unitary_closed",
    "first_occurrence_partner",
    "first_occurrence_general",
)
MODULES = (thetacalc, partitions, theta, characters, cuspidal, verify, cli)
RELATIONS = ("in_b_relation", "interleaves", "in_b_sp_oeven", "b_uu_branch", "in_b_uu")
PAIR_GENERATORS = ("weil_pairs", "weil_pairs_unitary")


def _oracle_results():
    symbols = [
        first_occurrence_bruteforce(sym, target)
        for r in range(5)
        for source, targets in ((SP, (O_PLUS, O_MINUS)), (O_PLUS, (SP,)), (O_MINUS, (SP,)))
        for sym in enumerate_series(SeriesTag(source, r))
        for target in targets
    ]
    unitary = [
        first_occurrence_unitary(lam, parity)
        for size in range(6)
        for lam in partitions_of(size)
        for parity in (0, 1)
    ]
    general = [
        first_occurrence_general_brute(rho, target)
        for (family, _), towers in TARGETS.items()
        for n in range(4)
        for rho in enumerate_characters_all_blocks(family, n)
        for target in towers
    ]
    return symbols, unitary, general


def _raiser(name):
    def closed_form(*args, **kwargs):
        raise AssertionError(f"an oracle called the closed form {name}")

    return closed_form


def _replace_by_raisers(monkeypatch, names) -> dict[str, set[str]]:
    """Replace each name in every module that binds it; return what was
    replaced, per module."""
    patched = {}
    for module in MODULES:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _raiser(name))
                patched.setdefault(module.__name__, set()).add(name)
    return patched


def _pair_sets(weil, weil_unitary, bound):
    ranks = [(n, n_prime) for n in range(bound + 1) for n_prime in range(bound + 1)]
    symbols = [weil(n, sign, n_prime) for n, n_prime in ranks for sign in (1, -1)]
    return symbols, [weil_unitary(n, n_prime) for n, n_prime in ranks]


def test_pair_generators_do_not_test_the_relation(monkeypatch):
    expected = _pair_sets(weil_pairs, weil_pairs_unitary, 5)
    patched = _replace_by_raisers(monkeypatch, RELATIONS)
    assert patched["thetacalc.theta"] == set(RELATIONS)
    assert _pair_sets(theta.weil_pairs, theta.weil_pairs_unitary, 5) == expected


def test_pair_scans_do_not_call_the_generators(monkeypatch):
    expected = _pair_sets(pair_scan, unitary_pair_scan, 4)
    patched = _replace_by_raisers(monkeypatch, PAIR_GENERATORS)
    assert patched["thetacalc.verify"] == set(PAIR_GENERATORS)
    assert _pair_sets(verify.pair_scan, verify.unitary_pair_scan, 4) == expected


def test_oracles_do_not_call_closed_forms(monkeypatch):
    expected = _oracle_results()
    assert {"o-odd-c"} <= {t for towers in TARGETS.values() for t in towers}
    # Each scan finds exactly one partner, so a closed form that is among
    # the witnesses (FirstOccurrence.confirms) is the partner.
    for results in expected:
        assert all(len(result.witnesses) == 1 for result in results)

    patched = _replace_by_raisers(monkeypatch, CLOSED_FORMS)
    assert patched["thetacalc.theta"] == set(CLOSED_FORMS[:6])
    assert patched["thetacalc.characters"] == {
        "theta_zero_sp",
        "theta_zero_orth",
        "first_occurrence_unitary_closed",
        "first_occurrence_partner",
        "first_occurrence_general",
    }

    assert _oracle_results() == expected


@pytest.mark.parametrize(
    "family, epsilon",
    [("u", None), ("sp", None), ("oeven", None), ("oeven", 1), ("oeven", -1), ("oodd", None)],
)
def test_enumerated_characters_equal_their_validated_copies(family, epsilon):
    count = 0
    for n in range(5):
        for rho in enumerate_characters_all_blocks(family, n, epsilon):
            copy = dataclasses.replace(rho)
            for field in dataclasses.fields(rho):
                built, checked = getattr(rho, field.name), getattr(copy, field.name)
                assert type(built) is type(checked) and built == checked, (rho, field.name)
            assert hash(rho) == hash(copy)
            count += 1
    assert count > 0
