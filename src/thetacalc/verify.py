"""Named verification suites behind the command-line `verify`.

Each suite re-derives a family of identities at a configurable bound
and reports one line per identity with the number of instances
checked.  Random sampling derives one generator per case from the root
seed by hashing, so runs are reproducible case by case.
"""

from __future__ import annotations

import hashlib
from random import Random

from .characters import (
    OEVEN_FAMILY,
    OODD_FAMILY,
    SP_FAMILY,
    TARGETS,
    U_FAMILY,
    c_twist,
    first_occurrence_general_brute,
    first_occurrence_partner,
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
    equivalent,
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


def _bulk(check: str, parameters: dict, instances: int, failures: list) -> CheckReport:
    return CheckReport(
        check,
        {**parameters, "instances": instances},
        {"failures": []},
        {"failures": failures[:5]},
    )


def suite_symbol_lemmas(max_rank: int, seed: int) -> list[CheckReport]:
    """Extremal delta classification and the theta rank-sum identities."""
    reports = []

    failures = []
    instances = 0
    for n in range(max_rank + 1):
        pool = enumerate_symbols(n)
        instances += len(pool)
        best = max(delta_symbol(s) for s in pool)
        maximizers = sorted(
            (format_symbol(s) for s in pool if delta_symbol(s) == best)
        )
        expected = sorted(format_symbol(s) for s in extremal_delta_symbols(n, 0))
        if best != n or maximizers != expected:
            failures.append({"n": n, "max": best, "got": maximizers})
    reports.append(_bulk("extremal-delta-all-defects", {"max_rank": max_rank}, instances, failures))

    failures = []
    instances = 0
    for n in range(1, max_rank + 1):
        pool = [s for s in enumerate_symbols(n, (-2, 2))]
        instances += len(pool)
        best = max(delta_symbol(s) for s in pool)
        maximizers = sorted(
            format_symbol(s) for s in pool if delta_symbol(s) == best
        )
        expected = sorted(format_symbol(s) for s in extremal_delta_symbols(n, 2))
        if best != n - 1 or maximizers != expected:
            failures.append({"n": n, "max": best, "got": maximizers})
    reports.append(_bulk("extremal-delta-defect-two", {"max_rank": max_rank}, instances, failures))

    for check, families in (
        ("theta-rank-sum-symplectic", (SP,)),
        ("theta-rank-sum-orthogonal", (O_PLUS, O_MINUS)),
    ):
        failures = []
        instances = 0
        for n in range(max_rank + 3):
            for fam in families:
                for sym in enumerate_series(SeriesTag(fam, n)):
                    instances += 1
                    lhs, rhs = preservation_sum_unipotent(sym)
                    if lhs != rhs:
                        failures.append(format_symbol(sym))
        reports.append(_bulk(check, {"max_rank": max_rank + 2}, instances, failures))

    failures = []
    instances = 0
    for n in range(max_rank + 3):
        for fam in (SP, O_PLUS, O_MINUS):
            for sym in enumerate_series(SeriesTag(fam, n)):
                instances += 1
                flags = (is_cuspidal(sym), delta_symbol(sym) == 0, upsilon_size(sym) == 0)
                if len(set(flags)) != 1:
                    failures.append(format_symbol(sym))
    reports.append(_bulk("cuspidality-equivalence", {"max_rank": max_rank + 2}, instances, failures))
    return reports


def suite_unipotent_theta(max_rank: int, seed: int) -> list[CheckReport]:
    """Brute-force first occurrences against the theta maps, the pair-set
    decompositions, and the unitary preservation sums."""
    reports = []

    failures = []
    instances = 0
    for n in range(max_rank + 1):
        for sym in enumerate_series(SeriesTag(SP, n)):
            for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                instances += 1
                fo = first_occurrence_bruteforce(sym, fam)
                tz = theta_zero_sp(sym, sign)
                if fo.partner_series.rank != rank(tz) or not equivalent(fo.partner, tz):
                    failures.append({"symbol": format_symbol(sym), "sign": sign})
    reports.append(_bulk("first-occurrence-symplectic", {"max_rank": max_rank}, instances, failures))

    failures = []
    instances = 0
    for n in range(max_rank + 1):
        for fam in (O_PLUS, O_MINUS):
            for sym in enumerate_series(SeriesTag(fam, n)):
                instances += 1
                fo = first_occurrence_bruteforce(sym, SP)
                tz = theta_zero_orth(sym)
                if fo.partner_series.rank != rank(tz) or not equivalent(fo.partner, tz):
                    failures.append(format_symbol(sym))
    reports.append(_bulk("first-occurrence-orthogonal", {"max_rank": max_rank}, instances, failures))

    failures = []
    instances = 0
    bound = min(max_rank, 4)
    for n in range(bound + 1):
        for n_prime in range(bound + 1):
            for sign, fam in ((1, O_PLUS), (-1, O_MINUS)):
                pairs = weil_pairs(n, sign, n_prime)
                oracle = set()
                for a in enumerate_series(SeriesTag(SP, n)):
                    for b in enumerate_series(SeriesTag(fam, n_prime)):
                        if in_b_sp_oeven(a, b, sign):
                            oracle.add((a, b))
                instances += 1
                if len(pairs) != len(set(pairs)) or set(pairs) != oracle:
                    failures.append({"n": n, "n_prime": n_prime, "sign": sign})
                for a, b in pairs:
                    if not series_contains(SeriesTag(fam, n_prime), b):
                        failures.append({"pair": (format_symbol(a), format_symbol(b))})
    reports.append(_bulk("weil-pair-sets", {"max_rank": bound}, instances, failures))

    failures = []
    instances = 0
    for n in range(bound + 1):
        for n_prime in range(bound + 1):
            instances += 1
            try:
                weil_pairs_unitary(n, n_prime)
            except AssertionError:
                failures.append({"n": n, "n_prime": n_prime})
    reports.append(_bulk("unitary-pair-parity", {"max_rank": bound}, instances, failures))

    failures = []
    instances = 0
    for n in range(max_rank + 1):
        for lam in partitions_of(n):
            instances += 1
            lhs, rhs = preservation_sum_unitary(lam)
            if lhs != rhs:
                failures.append(list(lam))
            for parity in (0, 1):
                size, _ = first_occurrence_unitary_closed(lam, parity)
                if size != first_occurrence_unitary(lam, parity).space_dimension:
                    failures.append({"partition": list(lam), "parity": parity})
    reports.append(_bulk("unitary-preservation", {"max_size": max_rank}, instances, failures))
    return reports


def _sampled_preservation(
    family: str, suite: str, seed: int, sp_targets: str | None
) -> list[CheckReport]:
    failures = []
    oracle_failures = []
    for i in range(SAMPLES_PER_FAMILY):
        rho = random_character(family, case_rng(seed, suite, i), MAX_SAMPLED_DIM)
        lhs, rhs = preservation_sum_general(rho, sp_targets)
        if lhs != rhs:
            failures.append({"index": i, "lhs": lhs, "rhs": rhs})
        if i < ORACLE_SAMPLES:
            for target in TARGETS[family, sp_targets]:
                dim, partner = first_occurrence_partner(rho, target)
                brute_dim, hits = first_occurrence_general_brute(rho, target)
                if dim != brute_dim or partner not in hits:
                    oracle_failures.append({"index": i, "target": target})
    label = family if sp_targets is None else f"{family}-{sp_targets}"
    return [
        _bulk(f"preservation-closed-{label}", {"samples": SAMPLES_PER_FAMILY}, SAMPLES_PER_FAMILY, failures),
        _bulk(f"preservation-oracle-{label}", {"samples": ORACLE_SAMPLES}, ORACLE_SAMPLES, oracle_failures),
    ]


def suite_preservation_u(max_rank: int, seed: int) -> list[CheckReport]:
    return _sampled_preservation(U_FAMILY, "preservation-u", seed, None)


def suite_preservation_o(max_rank: int, seed: int) -> list[CheckReport]:
    return _sampled_preservation(
        OEVEN_FAMILY, "preservation-o-even", seed, None
    ) + _sampled_preservation(OODD_FAMILY, "preservation-o-odd", seed, None)


def suite_preservation_sp_even(max_rank: int, seed: int) -> list[CheckReport]:
    return _sampled_preservation(SP_FAMILY, "preservation-sp-even", seed, "even")


def suite_preservation_sp_odd(max_rank: int, seed: int) -> list[CheckReport]:
    return _sampled_preservation(SP_FAMILY, "preservation-sp-odd", seed, "odd")


def suite_cuspidal_catalog(max_rank: int, seed: int) -> list[CheckReport]:
    reports = []

    failures = []
    instances = 0
    for fam in (SP, O_PLUS, O_MINUS):
        for n in range(max_rank + 1):
            tag = SeriesTag(fam, n)
            instances += 1
            listed = sorted(format_symbol(s) for s in unipotent_cuspidal(tag).characters)
            enumerated = sorted(
                format_symbol(s) for s in enumerate_series(tag) if is_cuspidal(s)
            )
            if listed != enumerated:
                failures.append({"family": fam, "n": n})
    for n in range(max_rank + 1):
        instances += 1
        count = len(unipotent_cuspidal(SeriesTag(UNITARY, n)).characters)
        brute = sum(
            1 for lam in partitions_of(n) if is_cuspidal(symbol_from_partition(lam))
        )
        if count != brute:
            failures.append({"family": UNITARY, "n": n})
    reports.append(_bulk("cuspidal-catalog-closed-form", {"max_rank": max_rank}, instances, failures))

    failures = []
    instances = 0
    for n in range(max_rank + 1):
        rec = pseudo_unipotent_cuspidal_sp(n)
        instances += 1
        root = int(n**0.5)
        expected = 1 if n == 0 else (2 if root * root == n else 0)
        count = len(rec.characters)
        if count != expected:
            failures.append({"n": n, "count": count})
        if count == 2:
            a, b = rec.characters
            if c_twist(a) != b:
                failures.append({"n": n, "twist": False})
    reports.append(_bulk("pseudo-cuspidal-count", {"max_rank": max_rank}, instances, failures))

    for m in range(0, 3):
        reports.extend(check_unipotent_cuspidal_odd_partner(m))
        reports.extend(check_cuspidal_preservation_sums(m))
        if m >= 1:
            reports.extend(check_pseudo_cuspidal_even_partners(m))
            reports.extend(check_pseudo_cuspidal_odd_partners(m))
    return reports


SUITES = {
    "symbol-lemmas": suite_symbol_lemmas,
    "unipotent-theta": suite_unipotent_theta,
    "preservation-u": suite_preservation_u,
    "preservation-o": suite_preservation_o,
    "preservation-sp-even": suite_preservation_sp_even,
    "preservation-sp-odd": suite_preservation_sp_odd,
    "cuspidal-catalog": suite_cuspidal_catalog,
}


def run_suite(name: str, max_rank: int, seed: int) -> list[CheckReport]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](max_rank, seed))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](max_rank, seed)
