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


def check_pseudo_cuspidal_even_partners(m: int) -> list[CheckReport]:
    """Pseudo-unipotent cuspidals of the rank-m^2 symplectic group against
    the two even orthogonal towers: dims {2m^2, 2m^2 + 2}, and the
    partner at 2m^2 is again pseudo-unipotent."""
    reports = []
    record = pseudo_unipotent_cuspidal_sp(m * m)
    for idx, rho in enumerate(record.characters):
        dims = {}
        for target in ("o+", "o-"):
            dim, partner = first_occurrence_partner(rho, target)
            brute_dim, hits = first_occurrence_general_brute(rho, target)
            dims[target] = dim
            reports.append(
                CheckReport(
                    "pseudo-cuspidal-even-partner",
                    {"m": m, "character": idx, "target": target},
                    {"dim": dim, "oracle_agrees": True},
                    {"dim": brute_dim, "oracle_agrees": partner in hits},
                )
            )
            if dim == 2 * m * m:
                reports.append(
                    CheckReport(
                        "pseudo-cuspidal-even-partner-type",
                        {"m": m, "character": idx, "target": target},
                        True,
                        partner.lambda2 == Symbol((), ())
                        and is_cuspidal_character(partner),
                    )
                )
        reports.append(
            CheckReport(
                "pseudo-cuspidal-even-dims",
                {"m": m, "character": idx},
                [2 * m * m, 2 * m * m + 2],
                sorted(dims.values()),
            )
        )
    return reports


def check_unipotent_cuspidal_odd_partner(m: int) -> list[CheckReport]:
    """The unipotent cuspidal of the rank-m(m+1) symplectic group first
    occurs against the odd orthogonal tower at dimension 2m(m+1) + 1,
    with a pseudo-unipotent cuspidal partner."""
    n = m * (m + 1)
    record = unipotent_cuspidal(SeriesTag(SP, n))
    rho = make_character("sp", n, [], Symbol((), ()), record.characters[0])
    dim, partner = first_occurrence_partner(rho, "o-odd")
    brute_dim, hits = first_occurrence_general_brute(rho, "o-odd")
    return [
        CheckReport(
            "unipotent-cuspidal-odd-dim",
            {"m": m},
            {"dim": 2 * n + 1, "oracle": 2 * n + 1},
            {"dim": dim, "oracle": brute_dim},
        ),
        CheckReport(
            "unipotent-cuspidal-odd-partner-type",
            {"m": m},
            True,
            partner in hits
            and partner.lambda2 == cuspidal_symbol(1)
            and is_cuspidal_character(partner),
        ),
    ]


def check_pseudo_cuspidal_odd_partners(m: int) -> list[CheckReport]:
    """The two pseudo-unipotent cuspidals of the rank-m^2 symplectic group
    meet the odd orthogonal tower at dims {2m(m-1)+1, 2m(m+1)+1} with
    unipotent cuspidal partners."""
    reports = []
    record = pseudo_unipotent_cuspidal_sp(m * m)
    dims = set()
    for idx, rho in enumerate(record.characters):
        dim, partner = first_occurrence_partner(rho, "o-odd")
        brute_dim, hits = first_occurrence_general_brute(rho, "o-odd")
        dims.add(dim)
        reports.append(
            CheckReport(
                "pseudo-cuspidal-odd-partner",
                {"m": m, "character": idx},
                {"oracle_dim": dim, "partner_found": True},
                {"oracle_dim": brute_dim, "partner_found": partner in hits},
            )
        )
        reports.append(
            CheckReport(
                "pseudo-cuspidal-odd-partner-type",
                {"m": m, "character": idx},
                True,
                partner.lambda1 == cuspidal_symbol(1)
                and is_cuspidal_character(partner),
            )
        )
    reports.append(
        CheckReport(
            "pseudo-cuspidal-odd-dims",
            {"m": m},
            sorted({2 * m * (m - 1) + 1, 2 * m * (m + 1) + 1}),
            sorted(dims),
        )
    )
    return reports


def check_cuspidal_preservation_sums(m: int) -> list[CheckReport]:
    """The three classical cuspidal preservation sums at index m, plus the
    delta = 0 specialization on the cuspidal model characters.

    Unitary: m(m+1) + 1.  Even orthogonal (the pair of cuspidals at
    rank m^2): 4m^2.  Symplectic (the cuspidal at rank m(m+1)):
    4m(m+1) + 2.  Each model character's paired first occurrences must
    sum to 2 dim + constant, the constant depending only on the family.
    """
    reports = []

    lam = staircase(m)
    lhs, rhs = preservation_sum_unitary(lam)
    reports.append(
        CheckReport(
            "cuspidal-sum-unitary",
            {"m": m, "partition": list(lam)},
            {"lhs": m * (m + 1) + 1, "rhs": m * (m + 1) + 1},
            {"lhs": lhs, "rhs": rhs},
        )
    )

    if m >= 1:
        tag = SeriesTag(O_PLUS if m % 2 == 0 else O_MINUS, m * m)
        sym = unipotent_cuspidal(tag).characters[0]
        lhs_o, rhs_o = preservation_sum_unipotent(sym)
        reports.append(
            CheckReport(
                "cuspidal-sum-orthogonal",
                {"m": m},
                {"lhs": 4 * m * m, "rhs": 4 * m * m},
                {"lhs": lhs_o, "rhs": rhs_o},
            )
        )

    n = m * (m + 1)
    sym = unipotent_cuspidal(SeriesTag(SP, n)).characters[0]
    lhs_sp, rhs_sp = preservation_sum_unipotent(sym)
    reports.append(
        CheckReport(
            "cuspidal-sum-symplectic",
            {"m": m},
            {"lhs": 4 * n + 2, "rhs": 4 * n + 2},
            {"lhs": lhs_sp, "rhs": rhs_sp},
        )
    )

    constants = {"u": 1, "sp": 2, "oeven": 0, "oodd": 0}
    for rho, kind in _cuspidal_model_characters(m):
        expected = 2 * char_dim(rho) + constants[rho.family]
        lhs_c, rhs_c = preservation_sum_general(rho, kind)
        reports.append(
            CheckReport(
                "cuspidal-sum-specialization",
                {"m": m, "family": rho.family, "targets": kind},
                {"lhs": expected, "rhs": expected},
                {"lhs": lhs_c, "rhs": rhs_c},
            )
        )
    return reports


def _cuspidal_model_characters(m: int):
    """Cuspidal model characters for the delta = 0 specialization checks."""
    out = []
    lam = staircase(m)
    out.append((make_character("u", sum(lam), [], lam), None))
    n_sp = m * (m + 1)
    sym = unipotent_cuspidal(SeriesTag(SP, n_sp)).characters[0]
    rho_sp = make_character("sp", n_sp, [], Symbol((), ()), sym)
    out.append((rho_sp, "even"))
    out.append((rho_sp, "odd"))
    for rho in pseudo_unipotent_cuspidal_sp(m * m).characters:
        out.append((rho, "even"))
        out.append((rho, "odd"))
    if m >= 1:
        tag = SeriesTag(O_PLUS if m % 2 == 0 else O_MINUS, m * m)
        for sym1 in unipotent_cuspidal(tag).characters:
            rho = make_character("oeven", m * m, [], sym1, Symbol((), ()))
            out.append((rho, None))
    return out
