"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with its runtime.  Run with `pytest -s` to see the lines.

All identities are exact integer statements (tolerance 0); the runtime
bounds are part of the criteria and asserted.
"""

import time

from thetacalc import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesTag,
    Symbol,
    c_twist,
    check_cuspidal_preservation_sums,
    check_pseudo_cuspidal_even_partners,
    check_pseudo_cuspidal_odd_partners,
    check_unipotent_cuspidal_odd_partner,
    delta_symbol,
    enumerate_characters_all_blocks,
    enumerate_series,
    first_occurrence_general,
    format_symbol,
    is_cuspidal,
    make_character,
    partitions_of,
    preservation_sum_unitary,
    pseudo_unipotent_cuspidal_sp,
    run_suite,
    sgn_twist,
    symbol_from_partition,
    unipotent_cuspidal,
)
from thetacalc.verify import suite_symbol_lemmas, suite_unipotent_theta


def _finish(number: int, name: str, started: float, limit: float, ok: bool):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion-{number:02d} {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def _suite_ok(reports, instances: dict) -> bool:
    """The named suite checks pass and each covers exactly the given
    number of instances."""
    by_check = {r.check: r for r in reports}
    return all(
        by_check[check].passed and by_check[check].parameters["instances"] == count
        for check, count in instances.items()
    )


def test_criterion_01_cuspidality_equivalence():
    started = time.perf_counter()
    ok = _suite_ok(suite_symbol_lemmas(8, 0), {"cuspidality-equivalence": 4654})
    _finish(1, "cuspidality-equivalence", started, 5.0, ok)


def test_criterion_02_extremal_delta_classification():
    started = time.perf_counter()
    ok = _suite_ok(
        suite_symbol_lemmas(8, 0),
        {"extremal-delta-all-defects": 2170, "extremal-delta-defect-two": 498},
    )
    _finish(2, "extremal-delta-classification", started, 10.0, ok)


def test_criterion_03_first_occurrence_minimality():
    started = time.perf_counter()
    ok = _suite_ok(
        suite_unipotent_theta(8, 0),
        {"first-occurrence-symplectic": 1162, "first-occurrence-orthogonal": 1008},
    )
    _finish(3, "first-occurrence-minimality", started, 30.0, ok)


def test_criterion_04_theta_rank_sums():
    started = time.perf_counter()
    ok = _suite_ok(
        suite_symbol_lemmas(8, 0),
        {"theta-rank-sum-symplectic": 1687, "theta-rank-sum-orthogonal": 2967},
    )
    _finish(4, "theta-rank-sums", started, 5.0, ok)


def test_criterion_05_unitary_preservation():
    started = time.perf_counter()
    ok = True
    for n in range(15):
        for lam in partitions_of(n):
            lhs, rhs = preservation_sum_unitary(lam)
            ok = ok and lhs == rhs
            ok = ok and rhs == 2 * n - 2 * delta_symbol(symbol_from_partition(lam)) + 1
    _finish(5, "unitary-preservation-bruteforce", started, 60.0, ok)


def test_criterion_06_cuspidal_classification():
    started = time.perf_counter()
    ok = True
    for family in (SP, O_PLUS, O_MINUS):
        for n in range(13):
            tag = SeriesTag(family, n)
            record = unipotent_cuspidal(tag)
            enumerated = sorted(
                format_symbol(s) for s in enumerate_series(tag) if is_cuspidal(s)
            )
            ok = ok and sorted(map(format_symbol, record.characters)) == enumerated

    hits = lambda fam: [
        (n, len(unipotent_cuspidal(SeriesTag(fam, n)).characters))
        for n in range(13)
        if unipotent_cuspidal(SeriesTag(fam, n)).characters
    ]
    ok = ok and hits(SP) == [(0, 1), (2, 1), (6, 1), (12, 1)]
    ok = ok and hits(O_PLUS) == [(0, 1), (4, 2)]
    ok = ok and hits(O_MINUS) == [(1, 2), (9, 2)]
    ok = ok and hits(UNITARY) == [(0, 1), (1, 1), (3, 1), (6, 1), (10, 1)]
    for n in range(13):
        brute = sum(
            1 for lam in partitions_of(n) if is_cuspidal(symbol_from_partition(lam))
        )
        ok = ok and len(unipotent_cuspidal(SeriesTag(UNITARY, n)).characters) == brute
    _finish(6, "cuspidal-classification", started, 30.0, ok)


def test_criterion_07_cuspidal_preservation_sums():
    started = time.perf_counter()
    ok = True
    for m in range(4):
        reports = check_cuspidal_preservation_sums(m)
        ok = ok and all(r.passed for r in reports)
        # the closed forms of the three sums
        by_check = {}
        for r in reports:
            by_check.setdefault(r.check, []).append(r)
        ok = ok and by_check["cuspidal-sum-unitary"][0].actual["lhs"] == m * (m + 1) + 1
        if m >= 1:
            ok = ok and by_check["cuspidal-sum-orthogonal"][0].actual["lhs"] == 4 * m * m
        ok = (
            ok
            and by_check["cuspidal-sum-symplectic"][0].actual["lhs"]
            == 4 * m * (m + 1) + 2
        )
    _finish(7, "cuspidal-preservation-sums", started, 60.0, ok)


def test_criterion_08_generalized_preservation():
    started = time.perf_counter()
    ok = True
    for suite in (
        "preservation-u",
        "preservation-o",
        "preservation-sp-even",
        "preservation-sp-odd",
    ):
        reports = run_suite(suite, 10, 42)
        ok = ok and all(r.passed for r in reports)
        closed = [r for r in reports if r.check.startswith("preservation-closed")]
        oracle = [r for r in reports if r.check.startswith("preservation-oracle")]
        ok = ok and all(r.parameters["instances"] >= 500 for r in closed)
        ok = ok and all(r.parameters["instances"] >= 100 for r in oracle)
    _finish(8, "generalized-preservation", started, 120.0, ok)


def test_criterion_09_cuspidal_first_occurrences():
    started = time.perf_counter()
    ok = True
    for n in range(10):
        record = pseudo_unipotent_cuspidal_sp(n)
        root = int(n**0.5)
        expected = 1 if n == 0 else (2 if root * root == n else 0)
        ok = ok and len(record.characters) == expected
        if len(record.characters) == 2:
            first, second = record.characters
            ok = ok and c_twist(first) == second and c_twist(second) == first
    for m in (1, 2):
        ok = ok and all(r.passed for r in check_pseudo_cuspidal_even_partners(m))
        ok = ok and all(r.passed for r in check_pseudo_cuspidal_odd_partners(m))
    for m in (0, 1, 2):
        ok = ok and all(r.passed for r in check_unipotent_cuspidal_odd_partner(m))
    _finish(9, "cuspidal-first-occurrences", started, 30.0, ok)


def test_criterion_09b_cuspidal_first_occurrences_m3():
    started = time.perf_counter()
    ok = all(r.passed for r in check_pseudo_cuspidal_even_partners(3))
    ok = ok and all(r.passed for r in check_pseudo_cuspidal_odd_partners(3))
    ok = ok and all(r.passed for r in check_unipotent_cuspidal_odd_partner(3))
    _finish(9, "cuspidal-first-occurrences-m3", started, 60.0, ok)


def _occurs_at(rho, target, bound):
    return first_occurrence_general(rho, target) <= bound


def test_criterion_10_uniqueness_remarks():
    started = time.perf_counter()
    ok = True

    # symplectic group, even orthogonal towers
    for n in range(6):
        chars = list(enumerate_characters_all_blocks("sp", n))
        for k in range(n + 1):
            achievers = [
                rho
                for rho in chars
                if _occurs_at(rho, "o+", 2 * k) and _occurs_at(rho, "o-", 2 * (n - k) + 2)
            ]
            expected = make_character(
                "sp", n, [], Symbol((), ()), Symbol((n - k + 1, 0), (k,))
            )
            ok = ok and achievers == [expected]

    # split even orthogonal group, symplectic towers
    for n in range(6):
        chars = list(enumerate_characters_all_blocks("oeven", n, epsilon=1))
        for k in range(n + 1):
            achievers = [
                rho
                for rho in chars
                if _occurs_at(rho, "sp", 2 * k)
                and _occurs_at(sgn_twist(rho), "sp", 2 * (n - k))
            ]
            expected = make_character(
                "oeven", n, [], Symbol((), ()), Symbol((n - k,), (k,))
            )
            ok = ok and achievers == [expected]

    # symplectic group, odd orthogonal towers
    for n in range(6):
        chars = list(enumerate_characters_all_blocks("sp", n))
        for k in range(n + 1):
            achievers = [
                rho
                for rho in chars
                if _occurs_at(rho, "o-odd", 2 * k + 1)
                and _occurs_at(c_twist(rho), "o-odd", 2 * (n - k) + 1)
            ]
            expected = make_character(
                "sp", n, [], Symbol((n - k,), (k,)), Symbol((0,), ())
            )
            ok = ok and achievers == [expected]

    _finish(10, "uniqueness-remarks", started, 60.0, ok)


def test_criterion_10_nonsplit_even_orthogonal_uniqueness_as_stated():
    """The non-split even orthogonal uniqueness claim, taken literally.

    Claim under test: for each 0 <= k <= n-1 the unipotent character
    with symbol (k | n-k+1,1,0) is the ONLY character of the rank-n
    non-split even orthogonal group occurring against the rank-k
    symplectic group whose sign twist occurs against the rank-(n-k+1)
    symplectic group.

    This fails for 0 < k < n: a character whose eigenvalue-(-1) block
    carries a rank-1 cuspidal and whose eigenvalue-1 block carries a
    delta-maximal defect-0 symbol of rank n-1 achieves the same pair of
    occurrences (its rank-k symplectic partner is forced by the same
    machinery that the cuspidal first-occurrence criteria pin down).
    """
    started = time.perf_counter()
    ok = True
    counterexamples = []
    for n in range(1, 6):
        chars = list(enumerate_characters_all_blocks("oeven", n, epsilon=-1))
        for k in range(n):
            achievers = [
                rho
                for rho in chars
                if _occurs_at(rho, "sp", 2 * k)
                and _occurs_at(sgn_twist(rho), "sp", 2 * (n - k) + 2)
            ]
            expected = make_character(
                "oeven", n, [], Symbol((), ()), Symbol((k,), (n - k + 1, 1, 0))
            )
            if achievers != [expected]:
                ok = False
                extras = [rho for rho in achievers if rho != expected]
                counterexamples.append((n, k, expected in achievers, extras[:1]))
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(
        f"criterion-10 nonsplit-even-uniqueness-as-stated: {status} "
        f"({elapsed:.2f}s, limit 60s)"
    )
    assert ok, (
        "the stated uniqueness fails for interior k; the predicted character "
        "always occurs but is not unique: " + repr(counterexamples[:3])
    )
