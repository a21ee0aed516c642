"""Block-decomposed model of irreducible characters.

An irreducible character of a finite classical group is modeled by the
data its parametrization attaches to it: a multiset of abstract blocks
(label plus dimension) for the part of the underlying semisimple
element with eigenvalues other than +-1, and one or two unipotent
symbols (a partition for unitary groups).  Everything the first
occurrence and preservation identities need is a function of this data,
so eigenvalues and field size never enter.

Correspondence between two characters reduces to block equality plus
the unipotent relations of :mod:`thetacalc.theta`, which makes the
general first occurrences computable both in closed form (theta maps)
and by a brute-force scan over model characters.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, replace
from random import Random

from .partitions import (
    Partition,
    format_partition,
    parse_partition,
    partition,
    partitions_of,
)
from .symbols import (
    SP,
    O_MINUS,
    O_PLUS,
    SeriesTag,
    Symbol,
    delta_symbol,
    enumerate_series,
    format_symbol,
    is_cuspidal,
    normalize,
    orth_sign,
    parse_symbol,
    rank,
    series_of,
    symbol_from_partition,
    transpose,
)
from .theta import (
    CapExceededError,
    FirstOccurrence,
    first_occurrence_unitary_closed,
    in_b_sp_oeven,
    in_b_uu,
    theta_zero_orth,
    theta_zero_sp,
)

U_FAMILY = "u"
SP_FAMILY = "sp"
OEVEN_FAMILY = "oeven"
OODD_FAMILY = "oodd"

# Family names of the character literal: name -> (family, implied epsilon).
FAMILY_NAMES = {
    "u": (U_FAMILY, None),
    "sp": (SP_FAMILY, None),
    "o+": (OEVEN_FAMILY, 1),
    "o-": (OEVEN_FAMILY, -1),
    "o-odd": (OODD_FAMILY, None),
}
_FAMILY_NAME = {value: name for name, value in FAMILY_NAMES.items()}

# One row per family.  dim is (a, b): a rank-n character acts on a space
# of dimension a*n + b.  pools are the series lambda1 and lambda2 are
# drawn from, each with the defect rule of its members (the
# even-orthogonal pool lists o+ before o-; a unitary lambda1 is a
# partition).  spurious lists the fields the family does not carry,
# each group rejected in one message; name is the family in messages.
_Family = namedtuple("_Family", "dim pools spurious name")
_ORTH_POOL = ((O_PLUS, O_MINUS), "even defect")
_SP_POOL = ((SP,), "defect 1 mod 4")
_FAMILIES = {
    U_FAMILY: _Family((1, 0), None, (("lambda2",), ("epsilon",), ("sign",)), "a unitary"),
    SP_FAMILY: _Family((2, 0), (_ORTH_POOL, _SP_POOL), (("epsilon", "sign"),), "a symplectic"),
    OEVEN_FAMILY: _Family((2, 0), (_ORTH_POOL, _ORTH_POOL), (("sign",),), "an even-orthogonal"),
    OODD_FAMILY: _Family((2, 1), (_SP_POOL, _SP_POOL), (("epsilon",),), "an odd-orthogonal"),
}

# Source kind -> legal targets, each with the tower scanned for it: the
# partner family, its epsilon and the parity of the target dimension.  A
# kind is a family plus, for symplectic characters, the Witt series
# ("even" or "odd") of its targets.  "o-odd-c" is the second odd tower,
# the "o-odd" tower of the c-twisted character.  Kinds are listed in the
# order the CLI lists their targets.
TARGETS = {
    (SP_FAMILY, "even"): {"o+": (OEVEN_FAMILY, 1, 0), "o-": (OEVEN_FAMILY, -1, 0)},
    (OEVEN_FAMILY, None): {"sp": (SP_FAMILY, None, 0)},
    (OODD_FAMILY, None): {"sp": (SP_FAMILY, None, 0)},
    (U_FAMILY, None): {"u-even": (U_FAMILY, None, 0), "u-odd": (U_FAMILY, None, 1)},
    (SP_FAMILY, "odd"): {"o-odd": (OODD_FAMILY, None, 1), "o-odd-c": (OODD_FAMILY, None, 1)},
}
TARGET_NAMES = tuple(dict.fromkeys(name for towers in TARGETS.values() for name in towers))


class CharacterError(ValueError):
    """A character or a request on one is invalid.

    The message starts with a tag where the rule has a name:
    dimension-mismatch, wrong-series, missing-sign-bit, spurious-field,
    wrong-family, unsupported-pair or unsupported-target.
    """


Block = tuple[str, int]


def canonical_blocks(entries) -> tuple[Block, ...]:
    """Blocks from dims or (label, dim) pairs, in canonical order.

    Bare dimensions get positional labels so that equal dimension
    multisets compare equal.
    """
    items = list(entries)
    if items and not isinstance(items[0], tuple):
        dims = sorted((int(d) for d in items), reverse=True)
        items = [(f"x{i + 1}", d) for i, d in enumerate(dims)]
    blocks = tuple(sorted((str(label), int(dim)) for label, dim in items))
    labels = [label for label, _ in blocks]
    if len(set(labels)) != len(labels):
        raise CharacterError(f"duplicate block labels in {blocks}")
    return blocks


def _check_blocks(family: str, blocks: tuple[Block, ...]) -> None:
    """Block dimensions are positive, and even outside the unitary family."""
    if any(dim < 1 for _, dim in blocks):
        raise CharacterError("block dimensions must be positive")
    if family != U_FAMILY and any(dim % 2 for _, dim in blocks):
        raise CharacterError("dimension-mismatch: blocks must have even dims")


def _family_row(family: str):
    if family not in _FAMILIES:
        raise CharacterError(f"unknown family {family!r}")
    return _FAMILIES[family]


@dataclass(frozen=True)
class GeneralCharacter:
    """family 'u', 'sp', 'oeven' or 'oodd' with the block data described above.

    lambda1 is a partition for 'u' and a symbol otherwise; symbols are
    stored normalized so equality is structural.
    """

    family: str
    n: int
    blocks: tuple[Block, ...] = ()
    lambda1: Symbol | Partition = ()
    lambda2: Symbol | None = None
    epsilon: int | None = None
    sign: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise CharacterError("n must be non-negative")
        row = _family_row(self.family)
        object.__setattr__(self, "blocks", canonical_blocks(self.blocks))
        _check_blocks(self.family, self.blocks)
        d0 = self.d0
        if row.pools and not all(isinstance(sym, Symbol) for sym in (self.lambda1, self.lambda2)):
            raise CharacterError("lambda1 and lambda2 must be symbols")
        for fields in row.spurious:
            if any(getattr(self, field) is not None for field in fields):
                raise CharacterError(f"spurious-field: {'/'.join(fields)} on {row.name} character")

        if self.family == U_FAMILY:
            object.__setattr__(self, "lambda1", partition(self.lambda1))
            if self.n != d0 + sum(self.lambda1):
                raise CharacterError(f"dimension-mismatch: n={self.n} != {d0} + |{self.lambda1}|")
            return

        if self.family == OODD_FAMILY and self.sign not in (1, -1):
            raise CharacterError("missing-sign-bit: odd-orthogonal characters need sign")
        for field, (series, rule) in zip(("lambda1", "lambda2"), row.pools):
            sym = normalize(getattr(self, field))
            object.__setattr__(self, field, sym)
            if series_of(sym) not in series:
                raise CharacterError(f"wrong-series: {field} must have {rule}")
        if self.family == OEVEN_FAMILY:
            derived = orth_sign(self.lambda1) * orth_sign(self.lambda2)
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", derived)
            elif self.epsilon != derived:
                raise CharacterError(
                    f"wrong-series: epsilon {self.epsilon} != lambda series product {derived}"
                )

        if 2 * self.n != d0 + 2 * rank(self.lambda1) + 2 * rank(self.lambda2):
            raise CharacterError("dimension-mismatch: 2n != d0 + 2 rk(lambda1) + 2 rk(lambda2)")

    @property
    def d0(self) -> int:
        return sum(dim for _, dim in self.blocks)


def _from_valid_parts(
    family: str,
    n: int,
    blocks: tuple[Block, ...],
    lambda1: Symbol | Partition,
    lambda2: Symbol | None = None,
    epsilon: int | None = None,
    sign: int | None = None,
) -> GeneralCharacter:
    """A character from parts that are valid together by construction,
    built without the checks of __post_init__.

    The caller guarantees what __post_init__ would check or derive:
    canonical blocks that suit the family, a canonical partition or
    normalized symbols of the family's series, the dimension equation,
    epsilon of an even-orthogonal character as the product of its
    symbols' signs, and sign +-1 exactly on the odd-orthogonal family.
    """
    rho = object.__new__(GeneralCharacter)
    rho.__dict__.update(
        family=family,
        n=n,
        blocks=blocks,
        lambda1=lambda1,
        lambda2=lambda2,
        epsilon=epsilon,
        sign=sign,
    )
    return rho


def make_character(
    family: str,
    n: int,
    d0_blocks=(),
    lambda1=(),
    lambda2=None,
    sign=None,
    epsilon=None,
) -> GeneralCharacter:
    """Validated character; raises CharacterError with the rule's tag.

    family accepts the literal names of FAMILY_NAMES, among them the
    aliases "o+"/"o-" (even orthogonal with the sign baked in) and
    "o-odd", alongside the canonical names; GeneralCharacter checks the
    rest, blocks included.
    """
    family, implied_epsilon = FAMILY_NAMES.get(family, (family, None))
    if implied_epsilon is not None:
        if epsilon is not None and epsilon != implied_epsilon:
            raise CharacterError("wrong-series: epsilon contradicts the family alias")
        epsilon = implied_epsilon
    return GeneralCharacter(
        family=family,
        n=n,
        blocks=d0_blocks,
        lambda1=lambda1,
        lambda2=lambda2,
        epsilon=epsilon,
        sign=sign,
    )


def _space_dim(family: str, n: int) -> int:
    a, b = _FAMILIES[family].dim
    return a * n + b


def char_dim(rho: GeneralCharacter) -> int:
    """dim of the underlying space: n, 2n, 2n, or 2n + 1 by family."""
    return _space_dim(rho.family, rho.n)


def delta_char(rho: GeneralCharacter, sp_targets: str | None = None) -> int:
    """The delta statistic steering the preservation identities.

    For symplectic characters it depends on which Witt series of targets
    is in play: 'even' reads delta off lambda2, 'odd' off lambda1.
    """
    if rho.family == U_FAMILY:
        return delta_symbol(symbol_from_partition(rho.lambda1))
    if rho.family == SP_FAMILY:
        if sp_targets == "even":
            return delta_symbol(rho.lambda2)
        if sp_targets == "odd":
            return delta_symbol(rho.lambda1)
        raise ValueError("sp characters need sp_targets 'even' or 'odd'")
    return delta_symbol(rho.lambda2)


def sgn_twist(rho: GeneralCharacter) -> GeneralCharacter:
    """Tensor with the sign character (orthogonal families only)."""
    if rho.family == OEVEN_FAMILY:
        return replace(
            rho, lambda1=transpose(rho.lambda1), lambda2=transpose(rho.lambda2)
        )
    if rho.family == OODD_FAMILY:
        return replace(rho, sign=-rho.sign)
    raise CharacterError("wrong-family: sgn twist applies to orthogonal characters")


def c_twist(rho: GeneralCharacter) -> GeneralCharacter:
    """The similitude-conjugation twist (symplectic family only)."""
    if rho.family != SP_FAMILY:
        raise CharacterError("wrong-family: c twist applies to symplectic characters")
    return replace(rho, lambda1=transpose(rho.lambda1))


def is_cuspidal_character(rho: GeneralCharacter) -> bool:
    """Modeling rule: no blocks and every unipotent component cuspidal."""
    if rho.blocks:
        return False
    if rho.family == U_FAMILY:
        return is_cuspidal(symbol_from_partition(rho.lambda1))
    return is_cuspidal(rho.lambda1) and is_cuspidal(rho.lambda2)


def corresponds(rho: GeneralCharacter, rho_prime: GeneralCharacter) -> bool:
    """Whether the two characters pair under the correspondence.

    Supported family pairs: (u, u), (sp, oeven), (sp, oodd) in either
    order.  Block data must agree exactly; the unipotent components are
    compared through the symbol relations.
    """
    pair = (rho.family, rho_prime.family)
    if pair == (U_FAMILY, U_FAMILY):
        return rho.blocks == rho_prime.blocks and in_b_uu(
            symbol_from_partition(rho.lambda1),
            symbol_from_partition(rho_prime.lambda1),
        )
    if pair == (OEVEN_FAMILY, SP_FAMILY) or pair == (OODD_FAMILY, SP_FAMILY):
        rho, rho_prime = rho_prime, rho
        pair = (rho.family, rho_prime.family)
    if pair == (SP_FAMILY, OEVEN_FAMILY):
        return (
            rho.blocks == rho_prime.blocks
            and rho.lambda1 == rho_prime.lambda1
            and in_b_sp_oeven(rho.lambda2, rho_prime.lambda2, orth_sign(rho_prime.lambda2))
        )
    if pair == (SP_FAMILY, OODD_FAMILY):
        eps1 = orth_sign(rho.lambda1)
        return (
            rho.blocks == rho_prime.blocks
            and rho.lambda2 == rho_prime.lambda1
            and in_b_sp_oeven(rho_prime.lambda2, rho.lambda1, eps1)
            and rho_prime.sign == eps1
        )
    raise CharacterError(f"unsupported-pair: {pair}")


def _tower(rho: GeneralCharacter, target: str) -> tuple[str, int | None, int]:
    """The tower of a legal target of rho: partner family, epsilon and
    dimension parity."""
    if target not in TARGET_NAMES:
        raise CharacterError(f"unsupported-target: {target!r}")
    for (family, _), towers in TARGETS.items():
        if family == rho.family and target in towers:
            return towers[target]
    raise CharacterError(f"unsupported-target: {target!r} for family {rho.family!r}")


def first_occurrence_partner(
    rho: GeneralCharacter, target: str
) -> tuple[int, GeneralCharacter]:
    """Closed-form first occurrence: minimal target dimension and a partner.

    Block data passes through unchanged; the free unipotent component of
    the partner is the theta image of the matching component of rho.
    """
    family, epsilon, parity = _tower(rho, target)
    if target == "o-odd-c":
        return first_occurrence_partner(c_twist(rho), "o-odd")
    blocks = rho.blocks
    d0 = rho.d0

    if rho.family == U_FAMILY:
        sub_parity = (parity - d0) % 2
        size, partner_partition = first_occurrence_unitary_closed(
            rho.lambda1, sub_parity
        )
        dim = d0 + size
        return dim, GeneralCharacter(U_FAMILY, dim, blocks, partner_partition)

    if rho.family == SP_FAMILY:
        if family == OEVEN_FAMILY:
            tower = epsilon * orth_sign(rho.lambda1)
            partner2 = theta_zero_sp(rho.lambda2, tower)
            dim = d0 + 2 * rank(rho.lambda1) + 2 * rank(partner2)
            partner = GeneralCharacter(
                OEVEN_FAMILY, dim // 2, blocks, rho.lambda1, partner2
            )
            return dim, partner
        partner2 = theta_zero_orth(rho.lambda1)
        dim = d0 + 2 * rank(rho.lambda2) + 2 * rank(partner2) + 1
        partner = GeneralCharacter(
            OODD_FAMILY,
            (dim - 1) // 2,
            blocks,
            rho.lambda2,
            partner2,
            sign=orth_sign(rho.lambda1),
        )
        return dim, partner

    if rho.family == OEVEN_FAMILY:
        partner2 = theta_zero_orth(rho.lambda2)
        dim = d0 + 2 * rank(rho.lambda1) + 2 * rank(partner2)
        return dim, GeneralCharacter(SP_FAMILY, dim // 2, blocks, rho.lambda1, partner2)

    partner1 = theta_zero_sp(rho.lambda2, rho.sign)
    dim = d0 + 2 * rank(rho.lambda1) + 2 * rank(partner1)
    return dim, GeneralCharacter(SP_FAMILY, dim // 2, blocks, partner1, rho.lambda1)


def first_occurrence_general(rho: GeneralCharacter, target: str) -> int:
    return first_occurrence_partner(rho, target)[0]


def _symbol_pools(family: str, r1: int, r2: int) -> tuple[tuple[Symbol, ...], ...]:
    """The symbols lambda1 of rank r1 and lambda2 of rank r2 range over."""
    return tuple(
        tuple(itertools.chain.from_iterable(enumerate_series(SeriesTag(s, r)) for s in series))
        for (series, _), r in zip(_family_row(family).pools, (r1, r2))
    )


def _max_delta(rho: GeneralCharacter) -> int:
    if rho.family == U_FAMILY:
        return delta_symbol(symbol_from_partition(rho.lambda1))
    return max(delta_symbol(rho.lambda1), delta_symbol(rho.lambda2))


def enumerate_characters(
    family: str, n: int, blocks: tuple[Block, ...] = (), epsilon: int | None = None
):
    """All model characters of the family with the given rank and blocks.

    The blocks are checked once here; every character is then built from
    parts that are valid by construction (partitions_of and the series
    pools of _symbol_pools, under the rank budget).
    """
    blocks = canonical_blocks(blocks)
    _check_blocks(family, blocks)
    d0 = sum(dim for _, dim in blocks)
    if family == U_FAMILY:
        if n >= d0:
            for lam in partitions_of(n - d0):
                yield _from_valid_parts(U_FAMILY, n, blocks, lam)
        return
    if d0 % 2 or 2 * n < d0:
        return
    budget = n - d0 // 2
    for r1 in range(budget + 1):
        pool1, pool2 = _symbol_pools(family, r1, budget - r1)
        if family == SP_FAMILY:
            for sym1 in pool1:
                for sym2 in pool2:
                    yield _from_valid_parts(SP_FAMILY, n, blocks, sym1, sym2)
        elif family == OEVEN_FAMILY:
            signs2 = [orth_sign(sym2) for sym2 in pool2]
            for sym1 in pool1:
                sign1 = orth_sign(sym1)
                for sym2, sign2 in zip(pool2, signs2):
                    derived = sign1 * sign2
                    if epsilon is None or derived == epsilon:
                        yield _from_valid_parts(
                            OEVEN_FAMILY, n, blocks, sym1, sym2, epsilon=derived
                        )
        else:
            for sym1 in pool1:
                for sym2 in pool2:
                    for sign in (1, -1):
                        yield _from_valid_parts(OODD_FAMILY, n, blocks, sym1, sym2, sign=sign)


def block_dim_choices(d0: int, even: bool) -> list[tuple[int, ...]]:
    """All block-dimension multisets summing to d0 (even parts if even)."""
    if even:
        if d0 % 2:
            return []
        return [tuple(2 * p for p in lam) for lam in partitions_of(d0 // 2)]
    return [lam for lam in partitions_of(d0)]


def enumerate_characters_all_blocks(family: str, n: int, epsilon: int | None = None):
    """Model characters of every block configuration at the given rank."""
    even = family != U_FAMILY
    top = n if family == U_FAMILY else 2 * n
    for d0 in range(0, top + 1, 2 if even else 1):
        for dims in block_dim_choices(d0, even):
            yield from enumerate_characters(family, n, canonical_blocks(dims), epsilon)


def first_occurrence_general_brute(rho: GeneralCharacter, target: str) -> FirstOccurrence:
    """Oracle: scan target characters by increasing dimension until one
    corresponds.  Partner blocks must equal the source blocks, so the
    scan fixes them and enumerates the unipotent data.  The result is
    the FirstOccurrence of the symbol and unitary oracles: the space
    dimension and the corresponding characters found at it."""
    family, epsilon, parity = _tower(rho, target)
    if target == "o-odd-c":
        return first_occurrence_general_brute(c_twist(rho), "o-odd")
    cap_dim = 2 * char_dim(rho) + 2 * _max_delta(rho) + 4
    for size in range(cap_dim + 1):
        dim = _space_dim(family, size)
        if dim > cap_dim:
            break
        if dim % 2 != parity:
            continue
        candidates = enumerate_characters(family, size, rho.blocks, epsilon)
        hits = tuple(cand for cand in candidates if corresponds(rho, cand))
        if hits:
            return FirstOccurrence(dim, hits)
    raise CapExceededError(f"cap-exceeded: no partner for {rho} in {target}")


def preservation_sum_general(
    rho: GeneralCharacter, sp_targets: str | None = None
) -> tuple[int, int]:
    """Both sides of the preservation identity for a model character.

    The left side adds the first occurrences in the targets of the source
    kind; an orthogonal character has one target, so its second
    occurrence is that of its sign twist.
    """
    kind = (rho.family, sp_targets if rho.family == SP_FAMILY else None)
    if kind not in TARGETS:
        raise ValueError("sp characters need sp_targets 'even' or 'odd'")
    sources = (rho, sgn_twist(rho)) if rho.family in (OEVEN_FAMILY, OODD_FAMILY) else (rho,)
    lhs = sum(first_occurrence_general(src, target) for src in sources for target in TARGETS[kind])
    shift = {U_FAMILY: 1, SP_FAMILY: 2}.get(rho.family, 0)
    return lhs, 2 * char_dim(rho) - 2 * delta_char(rho, sp_targets) + shift


def odd_witt_split(rho: GeneralCharacter) -> tuple[int, int]:
    """First occurrences of a symplectic character in the two odd
    orthogonal towers; the second tower is the first tower of the twist."""
    if rho.family != SP_FAMILY:
        raise CharacterError("wrong-family: odd towers attach to symplectic characters")
    return tuple(first_occurrence_general(rho, t) for t in TARGETS[(SP_FAMILY, "odd")])


def random_character(family: str, rng: Random, max_dim: int = 12) -> GeneralCharacter:
    """A uniformly-shaped random valid character with dim <= max_dim."""
    a, b = _family_row(family).dim
    n = rng.randint(0, (max_dim - b) // a)
    if family == U_FAMILY:
        d0 = rng.randint(0, n)
        dims = rng.choice(partitions_of(d0))
        lam = rng.choice(partitions_of(n - d0))
        return GeneralCharacter(U_FAMILY, n, canonical_blocks(dims), lam)

    half = rng.randint(0, n)
    dims = tuple(2 * p for p in rng.choice(partitions_of(half)))
    blocks = canonical_blocks(dims)
    r1 = rng.randint(0, n - half)
    r2 = n - half - r1

    pool1, pool2 = _symbol_pools(family, r1, r2)
    sym1, sym2 = rng.choice(pool1), rng.choice(pool2)
    if family == OODD_FAMILY:
        return GeneralCharacter(family, n, blocks, sym1, sym2, sign=rng.choice((1, -1)))
    return GeneralCharacter(family, n, blocks, sym1, sym2)


def character_to_json(rho: GeneralCharacter) -> dict:
    """The character literal consumed and produced by the CLI."""
    if rho.family == U_FAMILY:
        lambda1 = format_partition(rho.lambda1)
        lambda2 = None
    else:
        lambda1 = format_symbol(rho.lambda1)
        lambda2 = format_symbol(rho.lambda2)
    sign = None if rho.sign is None else ("+" if rho.sign > 0 else "-")
    return {
        "family": _FAMILY_NAME[rho.family, rho.epsilon],
        "n": rho.n,
        "d0_blocks": [dim for _, dim in rho.blocks],
        "lambda1": lambda1,
        "lambda2": lambda2,
        "sign": sign,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_LITERAL_KEYS = {"family", "n", "d0_blocks", "lambda1", "lambda2", "sign"}


def character_from_json(data: dict) -> GeneralCharacter:
    """The character of a literal as character_to_json writes it.

    Every field is type-checked first; a key character_to_json does not
    write, or a lambda2 on a unitary literal, is rejected too.  Each
    rejection raises CharacterError.
    """
    if not isinstance(data, dict):
        raise CharacterError(f"character literal must be a JSON object, not {data!r}")
    unknown = sorted(set(data) - _LITERAL_KEYS)
    if unknown:
        raise CharacterError(f"unknown key {unknown[0]!r}")

    def need(key: str):
        if key not in data:
            raise CharacterError(f"missing key {key!r}")
        return data[key]

    def text(key: str) -> str:
        value = need(key)
        if not isinstance(value, str):
            raise CharacterError(f"{key} must be a string, not {value!r}")
        return value

    name = need("family")
    if not isinstance(name, str) or name not in FAMILY_NAMES:
        raise CharacterError(f"unknown family {name!r}")
    family, epsilon = FAMILY_NAMES[name]
    n = need("n")
    if not _is_int(n):
        raise CharacterError(f"n must be an integer, not {n!r}")
    dims = data.get("d0_blocks", [])
    if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
        raise CharacterError(f"d0_blocks must be a list of integers, not {dims!r}")
    sign_text = data.get("sign")
    if sign_text not in ("+", "-", "", None):
        raise CharacterError(f"sign must be \"+\", \"-\", \"\" or null, not {sign_text!r}")
    sign = {"+": 1, "-": -1}.get(sign_text)
    unitary = family == U_FAMILY
    if unitary and data.get("lambda2") is not None:
        raise CharacterError(f"lambda2 must be null for family 'u', not {data['lambda2']!r}")
    first, second = text("lambda1"), None if unitary else text("lambda2")
    try:
        lambda1 = parse_partition(first) if unitary else parse_symbol(first)
        lambda2 = None if unitary else parse_symbol(second)
    except ValueError as exc:
        raise CharacterError(str(exc)) from exc
    return make_character(
        family, n, tuple(dims), lambda1, lambda2, sign=sign, epsilon=epsilon
    )
