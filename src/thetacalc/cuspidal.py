"""Cuspidal classifications and their first-occurrence checks.

Closed-form catalogs of the unipotent cuspidal symbols per series, the
pseudo-unipotent cuspidal characters of symplectic groups, and
executable reports pitting the closed-form first occurrences of all
these characters against the correspondence machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .characters import (
    char_dim,
    first_occurrence_general_brute,
    first_occurrence_partner,
    is_cuspidal_character,
    make_character,
    preservation_sum_general,
)
from .symbols import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesTag,
    Symbol,
    cuspidal_symbol,
    staircase,
    transpose,
    unitary_cuspidal_partition,
)
from .theta import preservation_sum_unipotent, preservation_sum_unitary


@dataclass(frozen=True)
class CuspidalRecord:
    group: SeriesTag
    characters: tuple


@dataclass
class CheckReport:
    """One verified identity instance, serializable for the CLI."""

    check: str
    parameters: dict
    expected: object
    actual: object
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.expected == self.actual

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


def _is_square(n: int) -> int | None:
    root = math.isqrt(n)
    return root if root * root == n else None


def _is_pronic(n: int) -> int | None:
    """m with n = m(m+1), if any."""
    m = (math.isqrt(4 * n + 1) - 1) // 2
    return m if m * (m + 1) == n else None


def unipotent_cuspidal(tag: SeriesTag) -> CuspidalRecord:
    """Closed-form unipotent cuspidal classification for one series.

    Symplectic: one cuspidal exactly at rank m(m+1); even orthogonal:
    two (swapped by transpose) exactly at rank m^2 with the sign
    (-1)^m, except the trivial group which has one; unitary: one
    exactly at triangular rank (as a partition record).
    """
    n = tag.rank
    if tag.family == SP:
        m = _is_pronic(n)
        if m is None:
            return CuspidalRecord(tag, ())
        d = 2 * m + 1 if m % 2 == 0 else -(2 * m + 1)
        return CuspidalRecord(tag, (cuspidal_symbol(d),))
    if tag.family in (O_PLUS, O_MINUS):
        sign = 1 if tag.family == O_PLUS else -1
        if n == 0:
            if sign == 1:
                return CuspidalRecord(tag, (Symbol((), ()),))
            return CuspidalRecord(tag, ())
        m = _is_square(n)
        if m is None or (-1) ** m != sign:
            return CuspidalRecord(tag, ())
        sym = cuspidal_symbol(2 * m)
        return CuspidalRecord(tag, (sym, transpose(sym)))
    if tag.family == UNITARY:
        lam = unitary_cuspidal_partition(n)
        if lam is None:
            return CuspidalRecord(tag, ())
        return CuspidalRecord(tag, (lam,))
    raise ValueError(f"unknown family {tag.family!r}")


def pseudo_unipotent_cuspidal_sp(n: int) -> CuspidalRecord:
    """The pseudo-unipotent cuspidal characters of the rank-n symplectic group.

    Empty unless n is a square; for n = m^2 > 0 there are exactly two,
    built from the two cuspidal symbols of the sign-(-1)^m even
    orthogonal group of rank m^2; the rank-0 case is the trivial
    character, which counts as both unipotent and pseudo-unipotent.
    """
    tag = SeriesTag(SP, n)
    trivial_sp = cuspidal_symbol(1)
    if n == 0:
        rho = make_character("sp", 0, [], Symbol((), ()), trivial_sp)
        return CuspidalRecord(tag, (rho,))
    m = _is_square(n)
    if m is None:
        return CuspidalRecord(tag, ())
    sym = cuspidal_symbol(2 * m)
    chars = tuple(
        make_character("sp", n, [], lam1, trivial_sp)
        for lam1 in (sym, transpose(sym))
    )
    return CuspidalRecord(tag, chars)


def _sp_cuspidal(m: int):
    """The blockless symplectic character of rank m(m+1) whose lambda2 is
    the unipotent cuspidal symbol of that rank."""
    n = m * (m + 1)
    sym = unipotent_cuspidal(SeriesTag(SP, n)).characters[0]
    return make_character("sp", n, [], Symbol((), ()), sym)


def _orth_cuspidal_pair(m: int) -> tuple[Symbol, ...]:
    """The two cuspidal symbols of the sign-(-1)^m even orthogonal group of
    rank m^2, swapped by transpose; none at m = 0."""
    if m == 0:
        return ()
    return unipotent_cuspidal(SeriesTag(O_PLUS if m % 2 == 0 else O_MINUS, m * m)).characters


def _closed_and_oracle(rho, target: str):
    """The closed-form first occurrence of rho in the target, then the
    oracle's: (dim, partner, oracle dim, whether the oracle found partner)."""
    dim, partner = first_occurrence_partner(rho, target)
    found = first_occurrence_general_brute(rho, target)
    return dim, partner, found.space_dimension, partner in found.witnesses


def _both_report(
    check: str, parameters: dict, expected, actual, keys=("lhs", "rhs")
) -> CheckReport:
    """A report of two values, under the two keys, that should both equal
    `expected`: the two sides of a sum, or a closed form and its oracle."""
    return CheckReport(check, parameters, dict.fromkeys(keys, expected), dict(zip(keys, actual)))


def check_pseudo_cuspidal_even_partners(m: int) -> list[CheckReport]:
    """Pseudo-unipotent cuspidals of the rank-m^2 symplectic group against
    the two even orthogonal towers: dims {2m^2, 2m^2 + 2}, and the
    partner at 2m^2 is again pseudo-unipotent."""
    reports = []
    for idx, rho in enumerate(pseudo_unipotent_cuspidal_sp(m * m).characters):
        dims = []
        for target in ("o+", "o-"):
            dim, partner, oracle_dim, found = _closed_and_oracle(rho, target)
            dims.append(dim)
            parameters = {"m": m, "character": idx, "target": target}
            expected = {"dim": dim, "oracle_agrees": True}
            actual = {"dim": oracle_dim, "oracle_agrees": found}
            reports.append(
                CheckReport("pseudo-cuspidal-even-partner", parameters, expected, actual)
            )
            if dim == 2 * m * m:
                pseudo = partner.lambda2 == Symbol((), ()) and is_cuspidal_character(partner)
                reports.append(
                    CheckReport("pseudo-cuspidal-even-partner-type", parameters, True, pseudo)
                )
        expected = [2 * m * m, 2 * m * m + 2]
        parameters = {"m": m, "character": idx}
        reports.append(CheckReport("pseudo-cuspidal-even-dims", parameters, expected, sorted(dims)))
    return reports


def check_unipotent_cuspidal_odd_partner(m: int) -> list[CheckReport]:
    """The unipotent cuspidal of the rank-m(m+1) symplectic group first
    occurs against the odd orthogonal tower at dimension 2m(m+1) + 1,
    with a pseudo-unipotent cuspidal partner."""
    rho = _sp_cuspidal(m)
    dim, partner, oracle_dim, found = _closed_and_oracle(rho, "o-odd")
    pseudo = (
        found and partner.lambda2 == cuspidal_symbol(1) and is_cuspidal_character(partner)
    )
    return [
        _both_report(
            "unipotent-cuspidal-odd-dim",
            {"m": m},
            2 * rho.n + 1,
            (dim, oracle_dim),
            ("dim", "oracle"),
        ),
        CheckReport("unipotent-cuspidal-odd-partner-type", {"m": m}, True, pseudo),
    ]


def check_pseudo_cuspidal_odd_partners(m: int) -> list[CheckReport]:
    """The two pseudo-unipotent cuspidals of the rank-m^2 symplectic group
    meet the odd orthogonal tower at dims {2m(m-1)+1, 2m(m+1)+1} with
    unipotent cuspidal partners."""
    reports = []
    dims = set()
    for idx, rho in enumerate(pseudo_unipotent_cuspidal_sp(m * m).characters):
        dim, partner, oracle_dim, found = _closed_and_oracle(rho, "o-odd")
        dims.add(dim)
        parameters = {"m": m, "character": idx}
        expected = {"oracle_dim": dim, "partner_found": True}
        actual = {"oracle_dim": oracle_dim, "partner_found": found}
        reports.append(CheckReport("pseudo-cuspidal-odd-partner", parameters, expected, actual))
        unipotent = partner.lambda1 == cuspidal_symbol(1) and is_cuspidal_character(partner)
        reports.append(CheckReport("pseudo-cuspidal-odd-partner-type", parameters, True, unipotent))
    expected = sorted({2 * m * (m - 1) + 1, 2 * m * (m + 1) + 1})
    reports.append(CheckReport("pseudo-cuspidal-odd-dims", {"m": m}, expected, sorted(dims)))
    return reports


def check_cuspidal_preservation_sums(m: int) -> list[CheckReport]:
    """The three classical cuspidal preservation sums at index m, plus the
    delta = 0 specialization on the cuspidal model characters.

    Unitary: m(m+1) + 1.  Even orthogonal (the pair of cuspidals at
    rank m^2): 4m^2.  Symplectic (the cuspidal at rank m(m+1)):
    4m(m+1) + 2.  Each model character's paired first occurrences must
    sum to 2 dim + constant, the constant depending only on the family.
    """
    lam = staircase(m)
    rho_sp = _sp_cuspidal(m)
    orth_pair = _orth_cuspidal_pair(m)
    parameters = {"m": m, "partition": list(lam)}
    sides = preservation_sum_unitary(lam)
    reports = [_both_report("cuspidal-sum-unitary", parameters, m * (m + 1) + 1, sides)]
    if orth_pair:
        # One of the pair: its transpose has the same sum.
        sides = preservation_sum_unipotent(orth_pair[0])
        reports.append(_both_report("cuspidal-sum-orthogonal", {"m": m}, 4 * m * m, sides))
    sides = preservation_sum_unipotent(rho_sp.lambda2)
    reports.append(_both_report("cuspidal-sum-symplectic", {"m": m}, 4 * rho_sp.n + 2, sides))

    pseudo = pseudo_unipotent_cuspidal_sp(m * m).characters
    models = [
        (make_character("u", sum(lam), [], lam), None),
        *((rho, kind) for rho in (rho_sp, *pseudo) for kind in ("even", "odd")),
        *((make_character("oeven", m * m, [], sym, Symbol((), ())), None) for sym in orth_pair),
    ]
    constants = {"u": 1, "sp": 2, "oeven": 0, "oodd": 0}
    for rho, kind in models:
        parameters = {"m": m, "family": rho.family, "targets": kind}
        expected = 2 * char_dim(rho) + constants[rho.family]
        sides = preservation_sum_general(rho, kind)
        reports.append(_both_report("cuspidal-sum-specialization", parameters, expected, sides))
    return reports
