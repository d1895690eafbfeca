import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquot import GenSym, GradedPoly, ParseError, StructureError, parse_poly
from dgquot.parser import variable_gens

VARS = ["w", "x", "y", "z"]
GENS = variable_gens(VARS)


def test_fermat_relation():
    f = parse_poly("w^5 + x^5 + y^5 + z^5 + 1", VARS)
    assert str(f) == "w^5 + x^5 + y^5 + z^5 + 1"
    g = GradedPoly.gen
    assert f == g(GENS[0]) ** 5 + g(GENS[1]) ** 5 + g(GENS[2]) ** 5 + g(GENS[3]) ** 5 + 1


def test_cancellation():
    assert parse_poly("x - x", VARS).is_zero()
    assert parse_poly("2/3*x*y^2 - y^2*x*2/3", VARS).is_zero()


def test_parens_and_power():
    p = parse_poly("(x + y)^2", VARS)
    q = parse_poly("x^2 + 2*x*y + y^2", VARS)
    assert p == q
    assert parse_poly("(x)", VARS) == parse_poly("x", VARS)


def test_unary_minus():
    assert parse_poly("-x + x", VARS).is_zero()
    assert parse_poly("-2*x", VARS) == parse_poly("0 - 2*x", VARS)


def test_rational_literals():
    assert parse_poly("3/4", VARS).constant() == Fraction(3, 4)
    assert parse_poly("7", VARS).constant() == 7


@pytest.mark.parametrize(
    "text",
    ["x + q", "x y", "x^0", "x^-2", "2/0", "", "x +", "(x", "x^", "* x", "x ^ 1.5"],
)
def test_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        parse_poly(text, VARS)
    assert err.value.position >= 0
    assert "position" in str(err.value)


def random_poly_text(rng):
    terms = []
    for _ in range(rng.randint(1, 5)):
        factors = []
        if rng.random() < 0.6:
            factors.append(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}")
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(VARS)
            e = rng.randint(1, 4)
            factors.append(v if e == 1 else f"{v}^{e}")
        if not factors:
            factors.append(str(rng.randint(0, 9)))
        terms.append("*".join(factors))
    text = terms[0]
    for t in terms[1:]:
        text += (" + " if rng.random() < 0.5 else " - ") + t
    return text


def test_parse_print_roundtrip_randomized():
    rng = random.Random(1234)
    for _ in range(1000):
        p = parse_poly(random_poly_text(rng), VARS)
        assert parse_poly(str(p), VARS) == p


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7)
monomials = st.dictionaries(st.sampled_from(GENS), st.integers(1, 4), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(coefficients, monomials), max_size=5))
def test_parse_print_roundtrip_structured(termlist):
    p = GradedPoly.zero()
    for c, mono in termlist:
        p = p + GradedPoly.monomial(list(mono.items()), c)
    assert parse_poly(str(p), VARS) == p


def test_whitespace_insignificant():
    assert parse_poly("x+ y *  z", VARS) == parse_poly("x+y*z", VARS)


CHART = [
    GenSym("x[1,1]", 0, "matrix-entry"),
    GenSym("y[1]", 0, "framing"),
    GenSym("a[w,x][1,2]", -1, "matrix-entry"),
    GenSym("s[1][2,2]", -1, "matrix-entry"),
]


def test_indexed_names_are_looked_up_whole():
    x, y, a, s = (GradedPoly.gen(g) for g in CHART)
    assert parse_poly("-5*x[1,1]^4*a[w,x][1,2]", CHART) == -5 * x**4 * a
    assert parse_poly("y[1]*s[1][2,2] - 1/3", CHART) == y * s - Fraction(1, 3)
    assert parse_poly("(x[1,1] + y[1])^2", CHART) == (x + y) ** 2
    for text in ("-5*x[1,1]^4*a[w,x][1,2]", "y[1]*s[1][2,2]", "x[1,1]", "1"):
        assert str(parse_poly(text, CHART)) == text


def test_unknown_indexed_name_fails_at_its_identifier():
    with pytest.raises(ParseError, match=r"'w\[9,9\]'") as err:
        parse_poly("x[1,1] + w[9,9]", CHART)
    assert err.value.position == len("x[1,1] + ")
    # an indexed name is never a prefix lookup
    with pytest.raises(ParseError) as err:
        parse_poly("2*x[1,1][1]", CHART)
    assert err.value.position == 2


@pytest.mark.parametrize("text", ["w[1,1", "x[1,1", "x[1,1]*y[", "x[]", "x[1,,1]", "x [1,1]", "x[1, 1]"])
def test_malformed_index_groups_raise(text):
    with pytest.raises(ParseError) as err:
        parse_poly(text, CHART + [GenSym("w[1,1]", 0, "matrix-entry"), GenSym("x", 0, "variable")])
    assert err.value.position >= 0


def test_manifest_variables_stay_plain_identifiers():
    for bad in (["x[1]"], ["x", "a[w,x]"], ["y[1][2]"]):
        with pytest.raises(StructureError):
            variable_gens(bad)
    with pytest.raises(ParseError) as err:
        parse_poly("x[1] - 1", ["x"])
    assert err.value.position == 0
