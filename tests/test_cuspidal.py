import pytest

from thetacalc import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesTag,
    c_twist,
    check_cuspidal_preservation_sums,
    check_pseudo_cuspidal_even_partners,
    check_pseudo_cuspidal_odd_partners,
    check_unipotent_cuspidal_odd_partner,
    enumerate_series,
    format_symbol,
    is_cuspidal,
    is_cuspidal_character,
    partitions_of,
    pseudo_unipotent_cuspidal_sp,
    symbol_from_partition,
    unipotent_cuspidal,
)


def test_unipotent_cuspidal_examples():
    rec = unipotent_cuspidal(SeriesTag(SP, 2))
    assert len(rec.characters) == 1
    assert format_symbol(rec.characters[0]) == "|2,1,0"
    rec = unipotent_cuspidal(SeriesTag(O_MINUS, 1))
    assert len(rec.characters) == 2
    assert sorted(map(format_symbol, rec.characters)) == ["1,0|", "|1,0"]
    assert len(unipotent_cuspidal(SeriesTag(O_PLUS, 2)).characters) == 0


def test_unipotent_cuspidal_matches_enumeration():
    for fam in (SP, O_PLUS, O_MINUS):
        for n in range(13):
            tag = SeriesTag(fam, n)
            rec = unipotent_cuspidal(tag)
            enumerated = sorted(
                format_symbol(s) for s in enumerate_series(tag) if is_cuspidal(s)
            )
            assert sorted(map(format_symbol, rec.characters)) == enumerated


def test_unipotent_cuspidal_ranks():
    hits = lambda fam: [
        (n, len(unipotent_cuspidal(SeriesTag(fam, n)).characters))
        for n in range(13)
        if unipotent_cuspidal(SeriesTag(fam, n)).characters
    ]
    assert hits(SP) == [(0, 1), (2, 1), (6, 1), (12, 1)]
    assert hits(O_PLUS) == [(0, 1), (4, 2)]
    assert hits(O_MINUS) == [(1, 2), (9, 2)]
    assert hits(UNITARY) == [(0, 1), (1, 1), (3, 1), (6, 1), (10, 1)]


def test_unitary_cuspidal_matches_partition_scan():
    for n in range(13):
        brute = [
            lam for lam in partitions_of(n) if is_cuspidal(symbol_from_partition(lam))
        ]
        rec = unipotent_cuspidal(SeriesTag(UNITARY, n))
        assert list(rec.characters) == brute


def test_pseudo_unipotent_cuspidal_sp():
    rec = pseudo_unipotent_cuspidal_sp(1)
    assert len(rec.characters) == 2
    assert sorted(format_symbol(r.lambda1) for r in rec.characters) == ["1,0|", "|1,0"]
    assert all(is_cuspidal_character(r) for r in rec.characters)
    assert len(pseudo_unipotent_cuspidal_sp(2).characters) == 0
    rec4 = pseudo_unipotent_cuspidal_sp(4)
    assert len(rec4.characters) == 2
    assert "3,2,1,0|" in [format_symbol(r.lambda1) for r in rec4.characters]
    assert len(pseudo_unipotent_cuspidal_sp(0).characters) == 1


def test_pseudo_pair_swapped_by_c_twist():
    for n in (1, 4, 9):
        a, b = pseudo_unipotent_cuspidal_sp(n).characters
        assert c_twist(a) == b
        assert c_twist(b) == a


@pytest.mark.parametrize("m", [1, 2])
def test_pseudo_cuspidal_even_partners(m):
    reports = check_pseudo_cuspidal_even_partners(m)
    assert reports and all(r.passed for r in reports)
    dims = [
        r
        for r in reports
        if r.check == "pseudo-cuspidal-even-dims"
    ]
    assert all(r.actual == sorted({2 * m * m, 2 * m * m + 2}) for r in dims)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_unipotent_cuspidal_odd_partner(m):
    reports = check_unipotent_cuspidal_odd_partner(m)
    assert reports and all(r.passed for r in reports)
    assert reports[0].actual["dim"] == 2 * m * (m + 1) + 1


@pytest.mark.parametrize("m", [1, 2])
def test_pseudo_cuspidal_odd_partners(m):
    reports = check_pseudo_cuspidal_odd_partners(m)
    assert reports and all(r.passed for r in reports)
    dims = [r for r in reports if r.check == "pseudo-cuspidal-odd-dims"]
    assert dims[0].actual == sorted({2 * m * (m - 1) + 1, 2 * m * (m + 1) + 1})


@pytest.mark.parametrize("m", [0, 1, 2])
def test_cuspidal_preservation_sums(m):
    reports = check_cuspidal_preservation_sums(m)
    assert reports and all(r.passed for r in reports)
    by_name = {r.check for r in reports}
    assert "cuspidal-sum-unitary" in by_name
    assert "cuspidal-sum-symplectic" in by_name
    assert "cuspidal-sum-specialization" in by_name
