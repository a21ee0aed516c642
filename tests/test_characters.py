import random

import pytest

from thetacalc import (
    CharacterError,
    c_twist,
    char_dim,
    character_from_json,
    character_to_json,
    corresponds,
    delta_char,
    first_occurrence_general,
    first_occurrence_general_brute,
    first_occurrence_partner,
    is_cuspidal_character,
    make_character,
    odd_witt_split,
    parse_symbol,
    preservation_sum_general,
    random_character,
    sgn_twist,
)
from thetacalc.cli import main

S = parse_symbol

TARGETS = {
    "u": ("u-even", "u-odd"),
    "sp": ("o+", "o-", "o-odd", "o-odd-c"),
    "oeven": ("sp",),
    "oodd": ("sp",),
}


def sp4_cuspidal():
    return make_character("sp", 2, [], S("|"), S("|2,1,0"))


def sp2_pseudo():
    return make_character("sp", 1, [], S("1,0|"), S("0|"))


def test_make_character_examples():
    rho = sp4_cuspidal()
    assert is_cuspidal_character(rho)
    assert char_dim(rho) == 4
    rho1 = sp2_pseudo()
    assert is_cuspidal_character(rho1)
    # d0 4 + 2 rk + 0 = 6 is consistent; d0 6 is not
    make_character("sp", 3, [4], S("1|0"), S("0|"))
    with pytest.raises(CharacterError, match="dimension-mismatch"):
        make_character("sp", 3, [6], S("1|0"), S("0|"))


def test_make_character_validation():
    with pytest.raises(CharacterError, match="wrong-series"):
        make_character("sp", 2, [], S("0|"), S("0|"))  # lambda1 odd defect
    with pytest.raises(CharacterError, match="wrong-series"):
        make_character("sp", 1, [], S("|"), S("1,0|"))  # lambda2 not symplectic
    with pytest.raises(CharacterError, match="missing-sign-bit"):
        make_character("oodd", 1, [], S("0|"), S("1,0|1"))
    with pytest.raises(CharacterError, match="spurious-field"):
        make_character("sp", 1, [], S("1,0|"), S("0|"), sign=1)
    with pytest.raises(CharacterError, match="spurious-field"):
        make_character("u", 2, [], (2,), sign=1)
    with pytest.raises(CharacterError, match="wrong-series"):
        make_character("oeven", 1, [], S("1,0|"), S("|"), epsilon=1)
    with pytest.raises(CharacterError, match="dimension-mismatch"):
        make_character("u", 4, [2], (3,))
    with pytest.raises(CharacterError, match="dimension-mismatch: blocks must have even"):
        make_character("sp", 2, [1, 1], S("|"), S("1,0|1"))


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("u", 1, [], (1,), S("|")), {}, "spurious-field: lambda2 on a unitary character"),
        (("u", 1, [], (1,)), {"epsilon": 1}, "spurious-field: epsilon on a unitary character"),
        (("u", 1, [], (1,)), {"sign": 1}, "spurious-field: sign on a unitary character"),
        (
            ("sp", 0, [], S("|"), S("0|")),
            {"epsilon": 1},
            "spurious-field: epsilon/sign on a symplectic character",
        ),
        (
            ("sp", 0, [], S("|"), S("0|")),
            {"sign": -1},
            "spurious-field: epsilon/sign on a symplectic character",
        ),
        (
            ("oeven", 0, [], S("|"), S("|")),
            {"sign": 1},
            "spurious-field: sign on an even-orthogonal character",
        ),
        (
            ("oodd", 0, [], S("0|"), S("0|")),
            {"epsilon": 1, "sign": 1},
            "spurious-field: epsilon on an odd-orthogonal character",
        ),
        (
            ("oodd", 0, [], S("0|"), S("0|")),
            {},
            "missing-sign-bit: odd-orthogonal characters need sign",
        ),
        # lambda1 is in the wrong series too; the sign is checked first.
        (
            ("oodd", 0, [], S("|"), S("0|")),
            {},
            "missing-sign-bit: odd-orthogonal characters need sign",
        ),
        (("sp", 0, [], S("0|"), S("0|")), {}, "wrong-series: lambda1 must have even defect"),
        (("sp", 0, [], S("|"), S("|")), {}, "wrong-series: lambda2 must have defect 1 mod 4"),
        (("oeven", 0, [], S("0|"), S("|")), {}, "wrong-series: lambda1 must have even defect"),
        (("oeven", 0, [], S("|"), S("0|")), {}, "wrong-series: lambda2 must have even defect"),
        (
            ("oodd", 0, [], S("|"), S("0|")),
            {"sign": 1},
            "wrong-series: lambda1 must have defect 1 mod 4",
        ),
        (
            ("oodd", 0, [], S("0|"), S("|")),
            {"sign": -1},
            "wrong-series: lambda2 must have defect 1 mod 4",
        ),
        (
            ("oeven", 1, [], S("1,0|"), S("|")),
            {"epsilon": 1},
            "wrong-series: epsilon 1 != lambda series product -1",
        ),
        (
            ("o+", 0, [], S("|"), S("|")),
            {"epsilon": -1},
            "wrong-series: epsilon contradicts the family alias",
        ),
    ],
)
def test_make_character_messages(args, kwargs, message):
    with pytest.raises(CharacterError) as info:
        make_character(*args, **kwargs)
    assert str(info.value) == message


def test_character_error_message_through_cli(capsys):
    literal = '{"family":"u","n":1,"lambda1":"1","lambda2":null,"sign":"+"}'
    code = main(["theta", "first", "--target", "u-odd", "--char", literal])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: spurious-field: sign on a unitary character\n"


def test_char_dim():
    assert char_dim(make_character("u", 3, [2], (1,))) == 3
    assert char_dim(sp4_cuspidal()) == 4
    assert char_dim(make_character("oodd", 2, [], S("|2,1,0"), S("0|"), sign=1)) == 5


def test_delta_char():
    assert delta_char(sp4_cuspidal(), "even") == 0
    sp6 = make_character("sp", 3, [2], S("1|0"), S("1,0|1"))
    assert delta_char(sp6, "even") == 1
    assert delta_char(sp2_pseudo(), "odd") == 0
    with pytest.raises(ValueError):
        delta_char(sp6)
    u_char = make_character("u", 3, [], (2, 1))
    assert delta_char(u_char) == 0


def test_twists():
    oe = make_character("oeven", 1, [], S("1|0"), S("|"))
    twisted = sgn_twist(oe)
    assert twisted.lambda1 == S("0|1") and twisted.lambda2 == S("|")
    assert sgn_twist(twisted) == oe
    assert twisted.epsilon == oe.epsilon

    oo = make_character("oodd", 2, [], S("|2,1,0"), S("0|"), sign=1)
    assert sgn_twist(oo).sign == -1
    assert sgn_twist(sgn_twist(oo)) == oo

    rho1 = sp2_pseudo()
    assert c_twist(rho1).lambda1 == S("|1,0")
    assert c_twist(c_twist(rho1)) == rho1
    assert delta_char(c_twist(rho1), "odd") == delta_char(rho1, "odd")
    assert delta_char(c_twist(rho1), "even") == delta_char(rho1, "even")

    with pytest.raises(CharacterError, match="wrong-family"):
        sgn_twist(rho1)
    with pytest.raises(CharacterError, match="wrong-family"):
        c_twist(oe)


def test_delta_invariant_under_twists_sampled():
    rng = random.Random(3)
    for _ in range(100):
        rho = random_character("oeven", rng, 10)
        assert delta_char(sgn_twist(rho)) == delta_char(rho)
        rho = random_character("oodd", rng, 11)
        assert delta_char(sgn_twist(rho)) == delta_char(rho)
        rho = random_character("sp", rng, 10)
        for kind in ("even", "odd"):
            assert delta_char(c_twist(rho), kind) == delta_char(rho, kind)


def test_corresponds_examples():
    sp0 = make_character("sp", 0, [], S("|"), S("0|"))
    o0 = make_character("oeven", 0, [], S("|"), S("|"))
    assert corresponds(sp0, o0)
    assert corresponds(o0, sp0)

    partner = make_character("oodd", 2, [], S("|2,1,0"), S("0|"), sign=1)
    assert corresponds(sp4_cuspidal(), partner)

    oe = make_character("oeven", 1, [], S("1,0|"), S("|"))
    assert oe.epsilon == -1
    assert corresponds(sp2_pseudo(), oe)

    with pytest.raises(CharacterError, match="unsupported-pair"):
        corresponds(o0, o0)


def test_first_occurrence_general_examples():
    rho1 = sp2_pseudo()
    assert first_occurrence_general(rho1, "o-odd") == 5
    assert first_occurrence_general(c_twist(rho1), "o-odd") == 1
    assert odd_witt_split(rho1) == (5, 1)
    assert odd_witt_split(sp4_cuspidal()) == (5, 5)
    sp0 = make_character("sp", 0, [], S("|"), S("0|"))
    assert odd_witt_split(sp0) == (1, 1)
    sp6 = make_character("sp", 3, [2], S("1|0"), S("1,0|1"))
    assert first_occurrence_general(sp6, "o+") == 6
    assert first_occurrence_general(sp6, "o-") == 6
    with pytest.raises(CharacterError, match="unsupported-target"):
        first_occurrence_general(sp6, "u-even")
    with pytest.raises(CharacterError, match="unsupported-target"):
        first_occurrence_general(sp6, "nowhere")


def test_preservation_sum_examples():
    rho1 = sp2_pseudo()
    assert preservation_sum_general(rho1, "odd") == (6, 6)
    sp6 = make_character("sp", 3, [2], S("1|0"), S("1,0|1"))
    assert preservation_sum_general(sp6, "even") == (12, 12)
    o_trivial = make_character("oeven", 0, [], S("|"), S("|"))
    assert preservation_sum_general(o_trivial) == (0, 0)


def test_closed_form_matches_brute_force_sampled():
    rng = random.Random(20)
    for family in ("u", "sp", "oeven", "oodd"):
        for _ in range(30):
            rho = random_character(family, rng, 9)
            for target in TARGETS[family]:
                dim, partner = first_occurrence_partner(rho, target)
                brute_dim, hits = first_occurrence_general_brute(rho, target)
                assert dim == brute_dim
                assert partner in hits
                source = c_twist(rho) if target == "o-odd-c" else rho
                assert corresponds(source, partner) or corresponds(partner, source)


def test_preservation_sums_sampled():
    rng = random.Random(21)
    for family in ("u", "sp", "oeven", "oodd"):
        for _ in range(80):
            rho = random_character(family, rng, 11)
            if family == "sp":
                for kind in ("even", "odd"):
                    lhs, rhs = preservation_sum_general(rho, kind)
                    assert lhs == rhs
            else:
                lhs, rhs = preservation_sum_general(rho)
                assert lhs == rhs


def test_twist_compatibility_of_correspondence():
    # if rho <-> rho' for (sp, oodd), the twisted pair also corresponds
    rng = random.Random(22)
    for _ in range(50):
        rho = random_character("sp", rng, 10)
        dim, partner = first_occurrence_partner(rho, "o-odd")
        assert corresponds(rho, partner)
        twisted = c_twist(rho)
        dim_c, partner_c = first_occurrence_partner(twisted, "o-odd")
        assert corresponds(twisted, partner_c)
        assert dim + dim_c == 2 * char_dim(rho) - 2 * delta_char(rho, "odd") + 2


def test_json_round_trip():
    for family in ("u", "sp", "oeven", "oodd"):
        for i in range(25):
            rho = random_character(family, random.Random(1000 + i), 9)
            data = character_to_json(rho)
            assert character_from_json(data) == rho
    rho = character_from_json(
        {
            "family": "sp",
            "n": 3,
            "d0_blocks": [2],
            "lambda1": "1|0",
            "lambda2": "1,0|1",
            "sign": None,
        }
    )
    assert char_dim(rho) == 6 and rho.d0 == 2
