"""Every `verify` check named here catches the bug planted for it.

A mutant replaces one library function, under every name a module binds
it to, by a faulty version of it.  Only the suite that should catch it
then runs, at a small bound, and each check expected to catch it must
print a FAIL line: the run exits 1 with nothing on stderr.  A refactor
of the suites must not stop a check from catching a planted bug, and
every check a passing `verify --suite all` prints is expected to catch
at least one of them.

Some mutants make a check raise rather than disagree (a dimension
mismatch, an empty catalog indexed, an oracle scan past its cap): a
raising check must be reported as a failed one.  The caches of the
library are cleared around each case, so a mutant neither reads results
computed without it nor leaves its own behind.
"""

import pytest

import thetacalc
from thetacalc import characters, cli, cuspidal, partitions, symbols, theta, verify
from thetacalc.characters import make_character
from thetacalc.cli import main
from thetacalc.cuspidal import CuspidalRecord
from thetacalc.symbols import SP, SeriesTag, Symbol, cuspidal_symbol, transpose

MODULES = (thetacalc, partitions, symbols, theta, characters, cuspidal, verify, cli)


def _size_plus_two(original):
    # A (size, partner) closed form with the right partner, two too high.
    def mutant(*args):
        size, partner = original(*args)
        return size + 2, partner

    return mutant


def _oracle_dimension_plus_two(original):
    # The right witnesses, at a space dimension two too high.
    def mutant(*args):
        found = original(*args)
        return found._replace(space_dimension=found.space_dimension + 2)

    return mutant


def _side_moved(index, amount):
    # One side of an (lhs, rhs) identity moved by `amount`.
    def fault(original):
        def mutant(*args):
            sides = list(original(*args))
            sides[index] += amount
            return tuple(sides)

        return mutant

    return fault


def _wrong_entry_dropped(original):
    # theta_zero_plus drops the first entry of the top row; keep it and
    # drop the last one instead.
    def mutant(sym):
        if sym.top:
            return symbols.normalize(Symbol(sym.bottom, sym.top[:-1]))
        return original(sym)

    return mutant


def _non_cuspidal_pseudo_pair(original):
    # The two characters at n = m^2 > 0 built from the non-cuspidal pair
    # (n | 0), (0 | n) of the same rank instead of the cuspidal symbols.
    def mutant(n):
        record = original(n)
        if n == 0 or not record.characters:
            return record
        lam1 = Symbol((n,), (0,))
        chars = tuple(
            make_character("sp", n, [], sym, cuspidal_symbol(1))
            for sym in (lam1, transpose(lam1))
        )
        return CuspidalRecord(SeriesTag(SP, n), chars)

    return mutant


def _any_strip_removed(original):
    # Every partition of the size inside mu, whether or not mu less it
    # is a horizontal strip.
    def mutant(mu, size):
        return (
            lam
            for lam in partitions.partitions_of(size)
            if len(lam) <= len(mu) and all(a <= b for a, b in zip(lam, mu))
        )

    return mutant


def _unitary_plus_branch_misplaced(original):
    # The +1 branch of theta_zero_unitary with its rows in the wrong
    # places: the partner has the right size, but for some partitions it
    # is the wrong partition.
    def mutant(sym, branch):
        if branch > 0:
            upper, lower = symbols.upsilon(sym)
            return symbols.symbol_with(upper[1:], lower, -symbols.defect(sym))
        return original(sym, branch)

    return mutant


def _dimension_three_halves(original):
    # The right partners, at a space dimension of 3r instead of 2r.
    def mutant(sym, target_family):
        found = original(sym, target_family)
        return found._replace(space_dimension=found.space_dimension * 3 // 2)

    return mutant


def _cap_one_level_low(original):
    # The tower scan stops one level below the preservation right side,
    # which some first occurrences reach exactly.
    def mutant(parity, cap, hits_at, source):
        return original(parity, cap - 2, hits_at, source)

    return mutant


# mutant id -> (function, fault, suite, bound, checks expected to FAIL)
MUTANTS = {
    "unitary-closed-size-plus-two": (
        "first_occurrence_unitary_closed",
        _size_plus_two,
        "unipotent-theta",
        2,
        {"unitary-preservation"},
    ),
    "unitary-plus-branch-misplaced": (
        "theta_zero_unitary",
        _unitary_plus_branch_misplaced,
        "unipotent-theta",
        2,
        {"unitary-preservation"},
    ),
    "unitary-closed-size-plus-two-raises": (
        "first_occurrence_unitary_closed",
        _size_plus_two,
        "preservation-u",
        0,
        {"preservation-closed-u", "preservation-oracle-u"},
    ),
    "empty-unipotent-cuspidal-catalog": (
        "unipotent_cuspidal",
        lambda original: lambda tag: CuspidalRecord(tag, ()),
        "cuspidal-catalog",
        2,
        {
            "cuspidal-catalog-closed-form",
            "check_unipotent_cuspidal_odd_partner",
            "check_cuspidal_preservation_sums",
        },
    ),
    "orth-sign-negated": (
        "orth_sign",
        lambda original: lambda sym: -original(sym),
        "preservation-o",
        0,
        {"preservation-oracle-oeven"},
    ),
    "theta-zero-plus-wrong-entry": (
        "theta_zero_plus",
        _wrong_entry_dropped,
        "unipotent-theta",
        3,
        {"first-occurrence-symplectic", "first-occurrence-orthogonal"},
    ),
    "in-b-relation-sign-swapped": (
        "in_b_relation",
        lambda original: lambda lhs, rhs, sign: original(lhs, rhs, -sign),
        "unipotent-theta",
        2,
        {
            "first-occurrence-symplectic",
            "first-occurrence-orthogonal",
            "weil-pair-sets",
            "unitary-pair-parity",
        },
    ),
    "interleaves-always-true": (
        "interleaves",
        lambda original: lambda lam, mu: True,
        "unipotent-theta",
        2,
        {
            "first-occurrence-symplectic",
            "first-occurrence-orthogonal",
            "weil-pair-sets",
            "unitary-pair-parity",
        },
    ),
    "weil-pairs-drops-a-pair": (
        "weil_pairs",
        lambda original: lambda n, sign, n_prime: original(n, sign, n_prime)[:-1],
        "unipotent-theta",
        2,
        {"weil-pair-sets"},
    ),
    "strip-added-one-cell-too-long": (
        "partitions_above",
        lambda original: lambda lam, size: original(lam, size + 1),
        "unipotent-theta",
        2,
        {"weil-pair-sets", "unitary-pair-parity"},
    ),
    "strip-removed-not-horizontal": (
        "partitions_below",
        _any_strip_removed,
        "unipotent-theta",
        4,
        {"weil-pair-sets", "unitary-pair-parity"},
    ),
    "extremal-delta-drops-a-symbol": (
        "extremal_delta_symbols",
        lambda original: lambda n, defect_class: original(n, defect_class)[1:],
        "symbol-lemmas",
        2,
        {"extremal-delta-all-defects", "extremal-delta-defect-two"},
    ),
    "pseudo-cuspidal-not-cuspidal": (
        "pseudo_unipotent_cuspidal_sp",
        _non_cuspidal_pseudo_pair,
        "cuspidal-catalog",
        4,
        {"pseudo-cuspidal-count"},
    ),
    "bruteforce-dimension-three-halves": (
        "first_occurrence_bruteforce",
        _dimension_three_halves,
        "unipotent-theta",
        2,
        {"first-occurrence-symplectic", "first-occurrence-orthogonal"},
    ),
    "weil-pairs-unitary-drops-last-pair": (
        "weil_pairs_unitary",
        lambda original: lambda n, n_prime: original(n, n_prime)[:-1],
        "unipotent-theta",
        3,
        {"unitary-pair-parity"},
    ),
    "unitary-sum-lhs-plus-two": (
        "preservation_sum_unitary",
        _side_moved(0, 2),
        "cuspidal-catalog",
        2,
        {"cuspidal-sum-unitary"},
    ),
    "unipotent-sum-rhs-plus-two-cuspidal": (
        "preservation_sum_unipotent",
        _side_moved(1, 2),
        "cuspidal-catalog",
        2,
        {"cuspidal-sum-orthogonal", "cuspidal-sum-symplectic"},
    ),
    "unipotent-sum-rhs-plus-two-lemmas": (
        "preservation_sum_unipotent",
        _side_moved(1, 2),
        "symbol-lemmas",
        2,
        {"theta-rank-sum-symplectic", "theta-rank-sum-orthogonal"},
    ),
    "general-sum-lhs-plus-one-cuspidal": (
        "preservation_sum_general",
        _side_moved(0, 1),
        "cuspidal-catalog",
        2,
        {"cuspidal-sum-specialization"},
    ),
    "general-sum-lhs-plus-one-o": (
        "preservation_sum_general",
        _side_moved(0, 1),
        "preservation-o",
        0,
        {"preservation-closed-oeven", "preservation-closed-oodd"},
    ),
    "general-sum-lhs-plus-one-sp-even": (
        "preservation_sum_general",
        _side_moved(0, 1),
        "preservation-sp-even",
        0,
        {"preservation-closed-sp-even"},
    ),
    "general-sum-lhs-plus-one-sp-odd": (
        "preservation_sum_general",
        _side_moved(0, 1),
        "preservation-sp-odd",
        0,
        {"preservation-closed-sp-odd"},
    ),
    "general-oracle-dimension-plus-two-cuspidal": (
        "first_occurrence_general_brute",
        _oracle_dimension_plus_two,
        "cuspidal-catalog",
        2,
        {
            "pseudo-cuspidal-even-partner",
            "pseudo-cuspidal-odd-partner",
            "unipotent-cuspidal-odd-dim",
        },
    ),
    "general-oracle-dimension-plus-two-o": (
        "first_occurrence_general_brute",
        _oracle_dimension_plus_two,
        "preservation-o",
        0,
        {"preservation-oracle-oodd"},
    ),
    "general-oracle-dimension-plus-two-sp-even": (
        "first_occurrence_general_brute",
        _oracle_dimension_plus_two,
        "preservation-sp-even",
        0,
        {"preservation-oracle-sp-even"},
    ),
    "general-oracle-dimension-plus-two-sp-odd": (
        "first_occurrence_general_brute",
        _oracle_dimension_plus_two,
        "preservation-sp-odd",
        0,
        {"preservation-oracle-sp-odd"},
    ),
    "general-closed-dimension-plus-two": (
        "first_occurrence_partner",
        _size_plus_two,
        "cuspidal-catalog",
        2,
        {"pseudo-cuspidal-even-dims", "pseudo-cuspidal-odd-dims"},
    ),
    "no-character-cuspidal": (
        "is_cuspidal_character",
        lambda original: lambda rho: False,
        "cuspidal-catalog",
        2,
        {
            "unipotent-cuspidal-odd-partner-type",
            "pseudo-cuspidal-even-partner-type",
            "pseudo-cuspidal-odd-partner-type",
        },
    ),
    "upsilon-size-plus-one": (
        "upsilon_size",
        lambda original: lambda sym: original(sym) + 1,
        "symbol-lemmas",
        2,
        {"cuspidality-equivalence"},
    ),
    "scan-cap-one-level-low-unipotent": (
        "_scan_tower",
        _cap_one_level_low,
        "unipotent-theta",
        2,
        {"first-occurrence-symplectic", "first-occurrence-orthogonal", "unitary-preservation"},
    ),
    "scan-cap-one-level-low-o": (
        "_scan_tower",
        _cap_one_level_low,
        "preservation-o",
        0,
        {"preservation-oracle-oeven", "preservation-oracle-oodd"},
    ),
}


def _clear_caches():
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def _plant(monkeypatch, name, fault):
    original = next(getattr(m, name) for m in MODULES if hasattr(m, name))
    mutant = fault(original)
    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)


def _failed_checks(out: str) -> set[str]:
    return {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")}


@pytest.mark.parametrize(
    "name, fault, suite, bound, killers",
    list(MUTANTS.values()),
    ids=list(MUTANTS),
)
def test_planted_bug_fails_its_checks(
    capsys, monkeypatch, fresh_caches, name, fault, suite, bound, killers
):
    _plant(monkeypatch, name, fault)
    code = main(["verify", "--suite", suite, "--max-rank", str(bound)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "Traceback" not in captured.out
    assert killers <= _failed_checks(captured.out)
    assert code == 1


def test_every_printed_check_has_a_mutant_it_kills():
    # The names a passing run prints do not depend on the bound.
    printed = {report.check for report in verify.run_suite("all", 0, 0)}
    killers = set().union(*(row[-1] for row in MUTANTS.values()))
    assert sorted(printed - killers) == []
