import pytest

from stairpow.ideals import MonomialIdeal
from stairpow.oracle import RandomIdealSpec, random_ideal
from stairpow.textio import ParseError, format_term, parse_ideal, serialize, serialize_terms


def test_parse_terms_plus():
    assert parse_ideal("y^2 + x^2*y + x^3").gens == ((0, 2), (2, 1), (3, 0))


def test_parse_terms_semicolon_newline_space():
    assert parse_ideal("x^3; x^2 y\ny^2").gens == ((0, 2), (2, 1), (3, 0))


def test_parse_bare_variables_and_one():
    assert parse_ideal("x").gens == ((1, 0),)
    assert parse_ideal("y").gens == ((0, 1),)
    assert parse_ideal("x*y").gens == ((1, 1),)
    assert parse_ideal("1 + x^2").gens == ((0, 0),)


def test_parse_pair_list():
    assert parse_ideal("[(0,2),(2,1),(3,0)]").gens == ((0, 2), (2, 1), (3, 0))
    assert parse_ideal("[(3, 0), (0, 2), (2, 2)]").gens == ((0, 2), (3, 0))


def test_parse_errors_positioned():
    with pytest.raises(ParseError) as err:
        parse_ideal("x^2 + z^3")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_ideal("")
    with pytest.raises(ParseError):
        parse_ideal("[(1,2), (3,)]")
    with pytest.raises(ParseError):
        parse_ideal("[]")
    with pytest.raises(ParseError):
        parse_ideal("[(1, -2)]")
    with pytest.raises(ParseError, match=r"^malformed pair list \(at position 0\)$"):
        parse_ideal("[(1, 2),")
    with pytest.raises(ParseError, match=r"^no monomials found \(at position 0\)$"):
        parse_ideal("+ ;")


@pytest.mark.parametrize("text", ["[(True, 2), (0, 5), (3, False)]", "[(0, 1), (2, True)]"])
def test_parse_pair_list_rejects_bools(text):
    # bool is a subclass of int, but True is no exponent.
    with pytest.raises(ParseError, match="invalid exponent pair"):
        parse_ideal(text)


def test_serialize_round_trip_random():
    for seed in range(100):
        I = random_ideal(RandomIdealSpec(8, 25, seed=seed))
        assert parse_ideal(serialize(I)).gens == I.gens
        assert serialize(I) == str(I)


def test_format_term():
    assert format_term((0, 0)) == "1"
    assert format_term((1, 0)) == "x"
    assert format_term((0, 3)) == "y^3"
    assert format_term((2, 1)) == "x^2*y"


def test_serialize_terms_round_trip():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    assert serialize_terms(I) == "y^2 + x^2*y + x^3"
    assert parse_ideal(serialize_terms(I)).gens == I.gens
