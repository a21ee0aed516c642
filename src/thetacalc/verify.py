"""Named verification suites behind the command-line `verify`.

Each suite re-derives a family of identities at a configurable bound
and reports one line per identity with the number of instances
checked.  A check that raises is reported as failed, with the exception
as its failure.  Random sampling derives one generator per case from
the root seed by hashing, so runs are reproducible case by case.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import partial
from random import Random
from typing import Callable, Iterable

from .characters import (
    OEVEN_FAMILY,
    OODD_FAMILY,
    SP_FAMILY,
    TARGETS,
    U_FAMILY,
    c_twist,
    enumerate_characters,
    first_occurrence_general_brute,
    first_occurrence_partner,
    is_cuspidal_character,
    preservation_sum_general,
    random_character,
)
from .cuspidal import (
    CheckReport,
    check_cuspidal_preservation_sums,
    check_pseudo_cuspidal_even_partners,
    check_pseudo_cuspidal_odd_partners,
    check_unipotent_cuspidal_odd_partner,
    pseudo_unipotent_cuspidal_sp,
    unipotent_cuspidal,
)
from .partitions import partitions_of
from .symbols import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesTag,
    delta_symbol,
    enumerate_series,
    enumerate_symbols,
    extremal_delta_symbols,
    format_symbol,
    is_cuspidal,
    rank,
    series_contains,
    symbol_from_partition,
    upsilon_size,
)
from .theta import (
    first_occurrence_bruteforce,
    first_occurrence_unitary,
    first_occurrence_unitary_closed,
    in_b_sp_oeven,
    in_b_uu,
    preservation_sum_unipotent,
    preservation_sum_unitary,
    theta_zero_orth,
    theta_zero_sp,
    weil_pairs,
    weil_pairs_unitary,
)

SAMPLES_PER_FAMILY = 500
ORACLE_SAMPLES = 100
MAX_SAMPLED_DIM = 12


def case_rng(seed: int, suite: str, index: int) -> Random:
    digest = hashlib.sha256(f"{seed}:{suite}:{index}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


def _guarded(instances: Iterable[list], on_raise: Callable[[dict], object] = lambda r: r):
    """The lists `instances` yields, one per instance.

    An instance that raises ends them with one last list, holding
    on_raise({"raised": "<Type>: <message>"}): a check that raises is a
    failed check, not a crashed run.  This is the one place that catches.
    """
    try:
        yield from instances
    except Exception as exc:
        yield [on_raise({"raised": f"{type(exc).__name__}: {exc}"})]


def _bulk(check: str, parameters: dict, instances: Iterable[list]) -> CheckReport:
    """One report of a bulk identity; `instances` yields the list of
    failures of each instance.  The report counts the instances and keeps
    the first five failures."""
    found = list(_guarded(instances))
    failures = [failure for instance in found for failure in instance]
    return CheckReport(
        check, {**parameters, "instances": len(found)}, {"failures": []}, {"failures": failures[:5]}
    )


def _series_symbols(max_rank: int, families: tuple[str, ...]):
    for n in range(max_rank + 1):
        for fam in families:
            yield from enumerate_series(SeriesTag(fam, n))


def _extremal_delta(max_rank: int, defect_class: int):
    """Per rank, the delta maximizers among all symbols (class 0) or those
    of defect +-2 (class 2) against extremal_delta_symbols; the instances
    are the symbols, not the ranks."""
    defects = (-2, 2) if defect_class else None
    for n in range(defect_class // 2, max_rank + 1):
        pool = enumerate_symbols(n, defects)
        best = max(delta_symbol(s) for s in pool)
        maximizers = sorted(format_symbol(s) for s in pool if delta_symbol(s) == best)
        expected = sorted(format_symbol(s) for s in extremal_delta_symbols(n, defect_class))
        failed = best != n - defect_class // 2 or maximizers != expected
        yield [{"n": n, "max": best, "got": maximizers}] if failed else []
        yield from [[]] * (len(pool) - 1)


def suite_symbol_lemmas(max_rank: int, seed: int) -> list[CheckReport]:
    """Extremal delta classification and the theta rank-sum identities."""

    def rank_sums(families):
        for sym in _series_symbols(max_rank + 2, families):
            lhs, rhs = preservation_sum_unipotent(sym)
            yield [] if lhs == rhs else [format_symbol(sym)]

    def cuspidality():
        for sym in _series_symbols(max_rank + 2, (SP, O_PLUS, O_MINUS)):
            flags = {is_cuspidal(sym), delta_symbol(sym) == 0, upsilon_size(sym) == 0}
            yield [] if len(flags) == 1 else [format_symbol(sym)]

    bound, series_bound = {"max_rank": max_rank}, {"max_rank": max_rank + 2}
    return [
        _bulk("extremal-delta-all-defects", bound, _extremal_delta(max_rank, 0)),
        _bulk("extremal-delta-defect-two", bound, _extremal_delta(max_rank, 2)),
        _bulk("theta-rank-sum-symplectic", series_bound, rank_sums((SP,))),
        _bulk("theta-rank-sum-orthogonal", series_bound, rank_sums((O_PLUS, O_MINUS))),
        _bulk("cuspidality-equivalence", series_bound, cuspidality()),
    ]


def pair_scan(n: int, sign: int, n_prime: int) -> set:
    """The oracle of weil_pairs: every pair of the two series, tested
    with in_b_sp_oeven."""
    family = O_PLUS if sign > 0 else O_MINUS
    return {
        (a, b)
        for a in enumerate_series(SeriesTag(SP, n))
        for b in enumerate_series(SeriesTag(family, n_prime))
        if in_b_sp_oeven(a, b, sign)
    }


def unitary_pair_scan(n: int, n_prime: int) -> set:
    """The oracle of weil_pairs_unitary: every pair of partitions, tested
    with in_b_uu."""
    return {
        (lam, mu)
        for lam in partitions_of(n)
        for mu in partitions_of(n_prime)
        if in_b_uu(symbol_from_partition(lam), symbol_from_partition(mu))
    }


def suite_unipotent_theta(max_rank: int, seed: int) -> list[CheckReport]:
    """Brute-force first occurrences against the theta maps, the pair-set
    decompositions, and the unitary preservation sums."""
    bound = min(max_rank, 4)

    def same_partner(fo, closed) -> bool:
        return fo.confirms(2 * rank(closed), closed)

    def first_occurrence_sp():
        # One instance per (symbol, sign) pair.
        for sym in _series_symbols(max_rank, (SP,)):
            for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                fo = first_occurrence_bruteforce(sym, fam)
                agree = same_partner(fo, theta_zero_sp(sym, sign))
                yield [] if agree else [{"symbol": format_symbol(sym), "sign": sign}]

    def first_occurrence_orth():
        for sym in _series_symbols(max_rank, (O_PLUS, O_MINUS)):
            fo = first_occurrence_bruteforce(sym, SP)
            yield [] if same_partner(fo, theta_zero_orth(sym)) else [format_symbol(sym)]

    def pair_sets():
        for n in range(bound + 1):
            for n_prime in range(bound + 1):
                for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                    pairs = weil_pairs(n, sign, n_prime)
                    outside = [
                        {"pair": (format_symbol(a), format_symbol(b))}
                        for a, b in pairs
                        if not series_contains(SeriesTag(fam, n_prime), b)
                    ]
                    if len(pairs) != len(set(pairs)) or set(pairs) != pair_scan(n, sign, n_prime):
                        outside.insert(0, {"n": n, "n_prime": n_prime, "sign": sign})
                    yield outside

    def pair_parity():
        for n in range(bound + 1):
            for n_prime in range(bound + 1):
                try:
                    pairs = weil_pairs_unitary(n, n_prime)
                except AssertionError:
                    yield [{"n": n, "n_prime": n_prime}]
                    continue
                oracle = unitary_pair_scan(n, n_prime)
                if len(pairs) == len(set(pairs)) and set(pairs) == oracle:
                    yield []
                else:
                    yield [{"n": n, "n_prime": n_prime, "pairs": len(pairs), "oracle": len(oracle)}]

    def unitary_preservation():
        for n in range(max_rank + 1):
            for lam in partitions_of(n):
                lhs, rhs = preservation_sum_unitary(lam)
                failed = [] if lhs == rhs else [list(lam)]
                for parity in (0, 1):
                    size, partner = first_occurrence_unitary_closed(lam, parity)
                    if not first_occurrence_unitary(lam, parity).confirms(size, partner):
                        failed.append({"partition": list(lam), "parity": parity})
                yield failed

    return [
        _bulk("first-occurrence-symplectic", {"max_rank": max_rank}, first_occurrence_sp()),
        _bulk("first-occurrence-orthogonal", {"max_rank": max_rank}, first_occurrence_orth()),
        _bulk("weil-pair-sets", {"max_rank": bound}, pair_sets()),
        _bulk("unitary-pair-parity", {"max_rank": bound}, pair_parity()),
        _bulk("unitary-preservation", {"max_size": max_rank}, unitary_preservation()),
    ]


def _sampled_preservation(
    family: str, suite: str, sp_targets: str | None, seed: int
) -> list[CheckReport]:
    def samples(count: int):
        for i in range(count):
            yield i, random_character(family, case_rng(seed, suite, i), MAX_SAMPLED_DIM)

    def closed():
        for i, rho in samples(SAMPLES_PER_FAMILY):
            lhs, rhs = preservation_sum_general(rho, sp_targets)
            yield [] if lhs == rhs else [{"index": i, "lhs": lhs, "rhs": rhs}]

    def oracle_agrees(rho, target: str) -> bool:
        dim, partner = first_occurrence_partner(rho, target)
        return first_occurrence_general_brute(rho, target).confirms(dim, partner)

    def oracle():
        for i, rho in samples(ORACLE_SAMPLES):
            towers = TARGETS[family, sp_targets]
            yield [{"index": i, "target": t} for t in towers if not oracle_agrees(rho, t)]

    label = family if sp_targets is None else f"{family}-{sp_targets}"
    return [
        _bulk(f"preservation-closed-{label}", {"samples": SAMPLES_PER_FAMILY}, closed()),
        _bulk(f"preservation-oracle-{label}", {"samples": ORACLE_SAMPLES}, oracle()),
    ]


def _preservation(*cases):
    """A suite of the sampled preservation checks of each (family, case,
    sp_targets) row; the case name seeds case_rng."""

    def suite(max_rank: int, seed: int) -> list[CheckReport]:
        return [report for case in cases for report in _sampled_preservation(*case, seed)]

    return suite


def suite_cuspidal_catalog(max_rank: int, seed: int) -> list[CheckReport]:
    def catalog():
        for fam in (SP, O_PLUS, O_MINUS, UNITARY):
            for n in range(max_rank + 1):
                tag = SeriesTag(fam, n)
                if fam == UNITARY:
                    pool = (p for p in partitions_of(n) if is_cuspidal(symbol_from_partition(p)))
                else:
                    pool = (s for s in enumerate_series(tag) if is_cuspidal(s))
                agree = Counter(unipotent_cuspidal(tag).characters) == Counter(pool)
                yield [] if agree else [{"family": fam, "n": n}]

    def pseudo_cuspidal():
        # The record against the blockless cuspidal characters whose
        # lambda2 has rank 0, found by enumeration.
        for n in range(max_rank + 1):
            listed = pseudo_unipotent_cuspidal_sp(n).characters
            brute = [
                rho
                for rho in enumerate_characters(SP_FAMILY, n)
                if rank(rho.lambda2) == 0 and is_cuspidal_character(rho)
            ]
            agree = Counter(listed) == Counter(brute)
            failed = [] if agree else [{"n": n, "count": len(listed)}]
            if len(listed) == 2 and c_twist(listed[0]) != listed[1]:
                failed.append({"n": n, "twist": False})
            yield failed

    reports = [
        _bulk("cuspidal-catalog-closed-form", {"max_rank": max_rank}, catalog()),
        _bulk("pseudo-cuspidal-count", {"max_rank": max_rank}, pseudo_cuspidal()),
    ]
    for m in range(0, 3):
        checks = [check_unipotent_cuspidal_odd_partner, check_cuspidal_preservation_sums]
        if m >= 1:
            checks += [check_pseudo_cuspidal_even_partners, check_pseudo_cuspidal_odd_partners]
        for check in checks:
            # A check that raises gives one failed report in its name.
            failed = partial(CheckReport, check.__name__, {"m": m}, {"raised": None})
            for found in _guarded(map(check, [m]), failed):
                reports.extend(found)
    return reports


SUITES = {
    "symbol-lemmas": suite_symbol_lemmas,
    "unipotent-theta": suite_unipotent_theta,
    "preservation-u": _preservation((U_FAMILY, "preservation-u", None)),
    "preservation-o": _preservation(
        (OEVEN_FAMILY, "preservation-o-even", None), (OODD_FAMILY, "preservation-o-odd", None)
    ),
    "preservation-sp-even": _preservation((SP_FAMILY, "preservation-sp-even", "even")),
    "preservation-sp-odd": _preservation((SP_FAMILY, "preservation-sp-odd", "odd")),
    "cuspidal-catalog": suite_cuspidal_catalog,
}


def run_suite(name: str, max_rank: int, seed: int) -> list[CheckReport]:
    if name == "all":
        return [report for suite in SUITES.values() for report in suite(max_rank, seed)]
    return SUITES[name](max_rank, seed)
