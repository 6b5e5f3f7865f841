"""Polynomial arithmetic, monomial orders, parser and printer."""

import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from eqidx.errors import DimensionMismatchError, ParseError
from eqidx.poly import (
    MonomialOrder,
    Polynomial,
    format_polynomial,
    mon_degree,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
    monomial_weight,
    parse_polynomial,
)
from eqidx.standard_basis import _layout

ALL_KINDS = ("degrevlex", "deglex", "negdegrevlex", "negdeglex")


def random_polynomial(rng, nvars, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mon = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[mon] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def test_monomial_helpers():
    assert mon_mul((1, 2), (3, 0)) == (4, 2)
    assert mon_divides((1, 0), (1, 2))
    assert not mon_divides((2, 0), (1, 2))
    assert mon_div((4, 2), (1, 2)) == (3, 0)
    assert mon_lcm((1, 2), (3, 0)) == (3, 2)
    assert mon_degree((3, 4)) == 7


def test_construction_and_normalization():
    p = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert p.terms == {(1, 0): Fraction(1)}
    assert Polynomial.zero(2).is_zero()
    assert not Polynomial.zero(2)
    assert Polynomial.constant(2, Fraction(1, 2)).constant_term() == Fraction(1, 2)
    assert Polynomial.variable(3, 1).terms == {(0, 1, 0): Fraction(1)}
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial.variable(2, 2)


def test_immutability():
    p = Polynomial.variable(1, 0)
    with pytest.raises(AttributeError):
        p.nvars = 2


def test_arithmetic_examples():
    z1 = Polynomial.variable(2, 0)
    z2 = Polynomial.variable(2, 1)
    assert (z1 + z2) * (z1 - z2) == z1**2 - z2**2
    assert (z1**3).partial_derivative(0) == 3 * z1**2
    assert (z1 * z2).compose([z1, z1 + z2]) == z1**2 + z1 * z2
    assert z1**0 == Polynomial.constant(2, 1)
    assert (2 - z1) + (z1 - 2) == Polynomial.zero(2)
    assert (z1 * Fraction(1, 2)).terms == {(1, 0): Fraction(1, 2)}
    with pytest.raises(DimensionMismatchError):
        z1 + Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        z1 ** (-1)


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        p, q, r = (random_polynomial(rng, n) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p - q) + q == p
        assert (p - p).is_zero()


def test_evaluate_shift_embed_restrict():
    p = parse_polynomial("z1^2 - z2", 2)
    assert p.evaluate([2, 1]) == 3
    shifted = p.shift([1, 0])
    assert shifted == parse_polynomial("z1^2 + 2*z1 + 1 - z2", 2)
    embedded = p.embed(3, (0, 2))
    assert embedded == parse_polynomial("z1^2 - z3", 3)
    assert p.restrict_to((0,)) == parse_polynomial("z1^2", 1)
    assert p.restrict_to((1,)) == parse_polynomial("-z1", 1)
    with pytest.raises(DimensionMismatchError):
        p.evaluate([1])


def test_derivative_leibniz_random():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        p, q = random_polynomial(rng, n), random_polynomial(rng, n)
        i = rng.randrange(n)
        lhs = (p * q).partial_derivative(i)
        rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
        assert lhs == rhs


def test_compose_evaluates_as_substitution_random():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        p = random_polynomial(rng, n, max_degree=3)
        subs = [random_polynomial(rng, m, max_degree=2, max_terms=3) for _ in range(n)]
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        composed = p.compose(subs)
        assert composed.nvars == m
        assert composed.evaluate(x) == p.evaluate([s.evaluate(x) for s in subs])
    # shift is compose with z + point, expanded by the binomial theorem.
    rng = random.Random(12)
    zeros = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        zeros += point.count(0)
        translation = [Polynomial.variable(n, i) + point[i] for i in range(n)]
        assert p.shift(point) == p.compose(translation)
    assert zeros


def test_shift_at_the_point_limit():
    # The worst point the conservation limits accept (cli._bounded_shifts),
    # z1^997 - z1 at -32767/32766: expanded by the binomial theorem it takes
    # a fraction of a second, where a table of the powers of z1 + a as
    # Fraction polynomials took 50 s and 801 MB.
    a = Fraction(-32767, 32766)
    expected = {(k,): comb(997, k) * a ** (997 - k) for k in range(998)}
    expected[(1,)] -= 1
    expected[(0,)] -= a
    assert parse_polynomial("z1^997 - z1", 1).shift([a]).terms == expected


def test_monomial_weight():
    assert monomial_weight((0, 0), (1, 2), 3) == 0
    assert monomial_weight((1, 1), (1, 2), 3) == 0
    assert monomial_weight((2,), (1,), 2) == 0
    rng = random.Random(17)
    for _ in range(20):
        m = rng.randint(1, 8)
        n = rng.randint(1, 3)
        ks = tuple(rng.randrange(m) for _ in range(n))
        a = tuple(rng.randint(0, 4) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        assert (
            monomial_weight(mon_mul(a, b), ks, m)
            == (monomial_weight(a, ks, m) + monomial_weight(b, ks, m)) % m
        )


def test_order_validation_and_locality():
    assert MonomialOrder.global_order(2).kind == "degrevlex"
    assert MonomialOrder.local_order(2).is_local
    with pytest.raises(ValueError):
        MonomialOrder("lex", 2)
    # The homogenizing lift's order is built from a local order inside the
    # basis engine (standard_basis._Layout); it is not a kind of its own.
    with pytest.raises(ValueError):
        MonomialOrder("homogenized", 3)
    with pytest.raises(ValueError):
        MonomialOrder("degrevlex", -1)


def test_orders_total_and_multiplicative():
    rng = random.Random(29)
    for kind in ALL_KINDS:
        order = MonomialOrder(kind, 3)
        one = (0, 0, 0)
        for _ in range(60):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            t = tuple(rng.randint(0, 4) for _ in range(3))
            assert (order.key(a) > order.key(b)) + (order.key(b) > order.key(a)) + (a == b) == 1
            if order.greater(a, b):
                assert order.greater(mon_mul(a, t), mon_mul(b, t))
            if a != one:
                # global orders put 1 at the bottom, local orders at the top
                assert order.is_local == order.greater(one, a)


def test_degrevlex_classic_tie():
    order = MonomialOrder("degrevlex", 3)
    # same degree: the monomial with the smaller trailing exponent wins
    assert order.greater((1, 1, 0), (0, 0, 2))
    assert order.max([(1, 1, 0), (0, 0, 2), (2, 0, 0)]) == (2, 0, 0)
    local = MonomialOrder("negdegrevlex", 3)
    assert local.max([(1, 1, 0), (0, 0, 1)]) == (0, 0, 1)


def test_homogenized_order_mirrors_local_order():
    # The lift's key, built from each local order: on homogeneous monomials,
    # comparing with the trailing variable as the degree slack reproduces
    # the local order on the dehomogenizations; on all monomials it is a
    # total, multiplicative order with the constant monomial smallest.
    # Three variables, where the two local kinds differ.
    rng = random.Random(41)
    degree = 9
    for kind in ("negdegrevlex", "negdeglex"):
        local = MonomialOrder(kind, 3)
        lift = _layout(kind, 3, True)
        key = lambda mon: lift.key(lift.pack(mon))
        one = (0, 0, 0, 0)
        for _ in range(80):
            a = tuple(rng.randint(0, 3) for _ in range(3))
            b = tuple(rng.randint(0, 3) for _ in range(3))
            ah = a + (degree - sum(a),)
            bh = b + (degree - sum(b),)
            assert local.greater(a, b) == (key(ah) > key(bh))
        for _ in range(80):
            a, b, t = (tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(3))
            assert (key(a) > key(b)) + (key(b) > key(a)) + (a == b) == 1
            if key(a) > key(b):
                assert key(mon_mul(a, t)) > key(mon_mul(b, t))
            if a != one:
                assert key(a) > key(one)


def test_parser_examples():
    p = parse_polynomial("z1^3 - z2^2", 2)
    assert p.terms == {(3, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert parse_polynomial("1/2*z1*z2 + z1*z2", 2).terms == {(1, 1): Fraction(3, 2)}
    assert parse_polynomial("z^7", 1).terms == {(7,): Fraction(1)}
    assert parse_polynomial("-(z1 - 1)^2", 1).terms == {
        (2,): Fraction(-1),
        (1,): Fraction(2),
        (0,): Fraction(-1),
    }
    assert parse_polynomial("0", 2).is_zero()
    assert parse_polynomial("2^3", 1).constant_term() == 8
    assert parse_polynomial(" z1 * ( z2 + 3 ) ", 2) == parse_polynomial("z1*z2 + 3*z1", 2)


def test_parser_errors():
    with pytest.raises(ParseError) as e:
        parse_polynomial("z3", 2)
    assert e.value.position == 0
    with pytest.raises(ParseError):
        parse_polynomial("z", 2)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", 1)
    with pytest.raises(ParseError):
        parse_polynomial("z1 +", 1)
    with pytest.raises(ParseError):
        parse_polynomial("(z1", 1)
    with pytest.raises(ParseError):
        parse_polynomial("z1 z1", 1)
    with pytest.raises(ParseError):
        parse_polynomial("z1^-2", 1)
    with pytest.raises(ParseError):
        parse_polynomial("", 1)
    # Only ASCII digits are digits: a superscript or Arabic-Indic digit is
    # an unexpected character at its own position.
    for text, position in [("z1^\u00b2", 3), ("\u0663*z1", 0), ("z\u0661", 1), ("1/\u0662", 2)]:
        with pytest.raises(ParseError) as e:
            parse_polynomial(text, 1)
        assert e.value.position == position, text
    # Parentheses nest at most 100 levels: the deepest text is accepted, and
    # one level more is refused at its innermost '(', also from a caller
    # that is itself deep in the stack.
    assert parse_polynomial("(" * 100 + "z1" + ")" * 100, 1) == parse_polynomial("z1", 1)
    deeper = "(" * 101 + "z1" + ")" * 101

    def parse_from(frames):
        return parse_from(frames - 1) if frames else parse_polynomial(deeper, 1)

    for frames in (0, 200):
        with pytest.raises(ParseError, match="nested more than 100 levels") as e:
            parse_from(frames)
        assert e.value.position == 100


def test_parser_digit_limit():
    # A number has at most 4,300 digits on every Python version (CPython
    # 3.11 would refuse to convert a longer one with a ValueError).  So does
    # every numerator and denominator the text evaluates to, so each accepted
    # polynomial prints and parses back.  A one-term power sure to be too
    # long is refused at its exponent before it is computed (3^1000000 would
    # take a noticeable time); any other too long coefficient is found at
    # the end of the text.
    assert parse_polynomial("1" * 4300 + "*z1", 1).terms == {(1,): Fraction(int("1" * 4300))}
    p = parse_polynomial("10^4299*z1", 1)
    assert parse_polynomial(format_polynomial(p), 1) == p
    for text, position in [
        ("1" * 4301 + "*z1", 0),
        ("z1 + 3/" + "7" * 4301, 7),
        ("z1^" + "2" * 4301, 3),
        ("2*z" + "0" * 4300 + "1", 2),
        ("10^4300*z1", 10),
        ("3^1000000", 2),
        ("z1 + (10^4000)^2", 15),
        ("10^4000*10^4000", 15),
        ("(1/3)^10000", 11),
        ("9" * 4300 + " + 1", 4304),
    ]:
        with pytest.raises(ParseError) as e:
            parse_polynomial(text, 1)
        assert e.value.position == position, text[:20]
        assert "longer than 4300 digits" in str(e.value)


def test_parser_power_term_limit():
    # A power of a base of t > 1 terms to the e-th may have C(e + t - 1, t - 1)
    # terms; above 1,000 it is refused at its exponent before it is
    # expanded, however large the exponent.  One-term powers are bounded by
    # their coefficient alone.  A product is refused at the factor that
    # takes the product of the term counts above 1,000, before multiplying.
    assert len(parse_polynomial("(z1 + z2)^999", 2).terms) == 1000
    assert len(parse_polynomial("(z1 + z2 + z3)^43", 3).terms) == 990
    # 44 terms squared: at most C(45, 2) = 990 terms (87 here).
    assert len(parse_polynomial("(" + " + ".join(f"z1^{k}" for k in range(44)) + ")^2", 3).terms) == 87
    assert parse_polynomial("(z1 + z2)^0", 2) == parse_polynomial("1", 2)
    assert parse_polynomial("z1^1000000", 1).total_degree() == 1_000_000
    assert len(parse_polynomial("(z1 + z2)^24*(z1 + z3)^39", 3).terms) == 1000
    assert len(parse_polynomial("2*z1*(z1 + z2)^24*z3*(z1 + z3)^39*3", 3).terms) == 1000
    for text, position in [
        ("(z1 + z2)^24*(z1 + z3)^40", 13),
        ("(1+z1)^60*(1+z2)^60*(1+z3)^60", 10),
        ("z1 - 2*(z1 + z2)^999*(z1 + z2)", 21),
        ("(z1 + z2)^1000", 10),
        ("z1 + (z1 + z2 + z3)^44", 20),
        ("(1 + z1)^" + "9" * 4300, 9),
        ("(" + " + ".join(f"z1^{k}" for k in range(45)) + ")^2", 350),
    ]:
        tracemalloc.start()
        with pytest.raises(ParseError) as e:
            parse_polynomial(text, 3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert e.value.position == position, text[:20]
        assert "more than 1000 terms" in str(e.value)
        assert peak < 2_000_000


# The canonical text of each valid input, and the message and position of
# each invalid one, recorded before the parser read whole tokens.
PINNED_PARSES = [
    ('z1^3 - z2^2', 2, 'z1^3 - z2^2'),
    ('1/2*z1*z2 + z1*z2', 2, '3/2*z1*z2'),
    ('z^7', 1, 'z1^7'),
    ('-(z1+1)^2', 1, '-z1^2 - 2*z1 - 1'),
    ('-(z1 - 1)^2', 1, '-z1^2 + 2*z1 - 1'),
    ('0', 2, '0'),
    ('0/5', 1, '0'),
    ('2^3', 1, '8'),
    ('2^0', 1, '1'),
    ('0^0', 1, '1'),
    ('(z1 + z2)^0', 2, '1'),
    (' z1 * ( z2 + 3 ) ', 2, 'z1*z2 + 3*z1'),
    ('\tz1\n+ 1 ', 1, 'z1 + 1'),
    ('((z1 + 1)*(z2 - 1))^2', 2, 'z1^2*z2^2 - 2*z1^2*z2 + 2*z1*z2^2 + z1^2 - 4*z1*z2 + z2^2 + 2*z1 - 2*z2 + 1'),
    ('(((z1)))', 1, 'z1'),
    ('((z1 - (z2 - (z3 - 1)))*2)^2', 3, '4*z1^2 - 8*z1*z2 + 4*z2^2 + 8*z1*z3 - 8*z2*z3 + 4*z3^2 - 8*z1 + 8*z2 - 8*z3 + 4'),
    ('(z1 + z2)^3', 2, 'z1^3 + 3*z1^2*z2 + 3*z1*z2^2 + z2^3'),
    ('(z1 - 2*z2 + 1/3)^4', 2, 'z1^4 - 8*z1^3*z2 + 24*z1^2*z2^2 - 32*z1*z2^3 + 16*z2^4 + 4/3*z1^3 - 8*z1^2*z2 + 16*z1*z2^2 - 32/3*z2^3 + 2/3*z1^2 - 8/3*z1*z2 + 8/3*z2^2 + 4/27*z1 - 8/27*z2 + 1/81'),
    ('2*(z1 - z2)^2*(z1 + z2)', 2, '2*z1^3 - 2*z1^2*z2 - 2*z1*z2^2 + 2*z2^3'),
    ('(z1 + 1/2)^3 - z1^3', 1, '3/2*z1^2 + 3/4*z1 + 1/8'),
    ('-3/4*z1^2*z2 + 5*z3 - 7', 3, '-3/4*z1^2*z2 + 5*z3 - 7'),
    ('+z1 - z1', 1, '0'),
    ('1 - 1', 1, '0'),
    ('10/4*z2', 2, '5/2*z2'),
    ('007*z1^02', 1, '7*z1^2'),
    ('z01*z002', 2, 'z1*z2'),
    ('\u3000z1\u00a0+\u20031', 1, 'z1 + 1'),
    ('z10*z2^3 - z9', 10, 'z2^3*z10 - z9'),
    ('z1^ 2 + z1 ^3 + 1 /2 + 1/ 3', 1, 'z1^3 + z1^2 + 5/6'),
    ('z1*z1*z1 - z1^3 + z2^2*z2', 2, 'z2^3'),
    ('(z1*z2)^3*(z1 - z2)^2', 2, 'z1^5*z2^3 - 2*z1^4*z2^4 + z1^3*z2^5'),
    ('-z1^5 + 3/2*z1^2*z2*z3^2 - (z2 + z3)^2*z1', 3, '-z1^5 + 3/2*z1^2*z2*z3^2 - z1*z2^2 - 2*z1*z2*z3 - z1*z3^2'),
    ('(2*z1)^3 - 8*z1^3 + (1/2)^2', 1, '1/4'),
    ('(z1^2 + z2^2)^2', 2, 'z1^4 + 2*z1^2*z2^2 + z2^4'),
    ('-(z1 - (z1 + 1))', 1, '1'),
    ('123456789012345678901234567890*z1 - 1/123456789012345678901', 1, '123456789012345678901234567890*z1 - 1/123456789012345678901'),
]
PINNED_PARSE_ERRORS = [
    ('', 1, 'unexpected end of input (at position 0)', 0),
    ('  ', 1, 'unexpected end of input (at position 2)', 2),
    ('z3', 2, 'variable z3 out of range for 2 variables (at position 0)', 0),
    ('z0', 2, 'variable z0 out of range for 2 variables (at position 0)', 0),
    ('z', 2, 'bare variable z is only valid in one variable (at position 0)', 0),
    ('1/0', 1, 'zero denominator (at position 2)', 2),
    ('1/ 0', 1, 'zero denominator (at position 2)', 2),
    ('z1 +', 1, 'unexpected end of input (at position 4)', 4),
    ('(z1', 1, "expected ')' (at position 3)", 3),
    ('(z1 + 1', 1, "expected ')' (at position 7)", 7),
    ('z1 z1', 1, "unexpected 'z' (at position 3)", 3),
    ('z1^-2', 1, 'expected an integer (at position 3)', 3),
    ('z1^', 1, 'expected an integer (at position 3)', 3),
    ('1/', 1, 'expected an integer (at position 2)', 2),
    ('1/z1', 1, 'expected an integer (at position 2)', 2),
    ('()', 1, "unexpected ')' (at position 1)", 1),
    ('z1)', 1, "unexpected ')' (at position 2)", 2),
    ('z1 + * z2', 2, "unexpected '*' (at position 5)", 5),
    ('3.5', 1, "unexpected '.' (at position 1)", 1),
    ('x1', 1, "unexpected 'x' (at position 0)", 0),
    ('z 1', 1, "unexpected '1' (at position 2)", 2),
    ('z 1', 2, 'bare variable z is only valid in one variable (at position 0)', 0),
    ('-', 1, 'unexpected end of input (at position 1)', 1),
    ('--z1', 1, "unexpected '-' (at position 1)", 1),
    ('2^3^2', 1, "unexpected '^' (at position 3)", 3),
    ('z1^2^', 1, "unexpected '^' (at position 4)", 4),
    ('2*-z1', 1, "unexpected '-' (at position 2)", 2),
    ('z1 2', 1, "unexpected '2' (at position 3)", 3),
    ('12z1', 1, "unexpected 'z' (at position 2)", 2),
    ('z1a', 1, "unexpected 'a' (at position 2)", 2),
    ('(z1))', 1, "unexpected ')' (at position 4)", 4),
    ('z1 - (z2', 2, "expected ')' (at position 8)", 8),
    ('1/2/3', 1, "unexpected '/' (at position 3)", 3),
    ('z1^(2)', 1, 'expected an integer (at position 3)', 3),
    ('z1**2', 1, "unexpected '*' (at position 3)", 3),
    ('z12', 3, 'variable z12 out of range for 3 variables (at position 0)', 0),
]


def test_parser_outputs_are_pinned():
    for text, nvars, expected in PINNED_PARSES:
        assert format_polynomial(parse_polynomial(text, nvars)) == expected, text
    for text, nvars, message, position in PINNED_PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse_polynomial(text, nvars)
        assert (str(e.value), e.value.position) == (message, position), text


def _random_atom(rng, nvars, depth):
    kind = rng.randrange(4 if depth else 3)
    if kind == 0:
        n = rng.randint(0, 12)
        return str(n), Polynomial.constant(nvars, n)
    if kind == 1:
        num, den = rng.randint(0, 9), rng.randint(1, 9)
        return f"{num}/{den}", Polynomial.constant(nvars, Fraction(num, den))
    if kind == 2:
        i = rng.randrange(nvars)
        name = "z" if nvars == 1 and rng.random() < 0.5 else f"z{i + 1}"
        return name, Polynomial.variable(nvars, i)
    text, value = _random_expression(rng, nvars, depth - 1)
    return f"({text})", value


def _random_term(rng, nvars, depth):
    texts, value = [], Polynomial.constant(nvars, 1)
    for _ in range(rng.randint(1, 3)):
        text, factor = _random_atom(rng, nvars, depth)
        if rng.random() < 0.3:
            e = rng.randint(0, 3)
            text, factor = f"{text}{rng.choice(['^', ' ^ '])}{e}", factor**e
        texts.append(text)
        value = value * factor
    return rng.choice(["*", " * "]).join(texts), value


def _random_expression(rng, nvars, depth):
    """Random text of the input grammar, with its value by Polynomial arithmetic."""
    text, value = "", Polynomial.zero(nvars)
    for i in range(rng.randint(1, 3)):
        term_text, term = _random_term(rng, nvars, depth)
        sign = rng.choice("+-") if i else rng.choice(["", "+", "-"])
        text += (f" {sign} " if i else sign) + term_text
        value = value - term if sign == "-" else value + term
    return text, value


def test_parser_matches_polynomial_arithmetic_random():
    rng = random.Random(2017)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        text, value = _random_expression(rng, nvars, 2)
        assert parse_polynomial(text, nvars) == value, text


def test_print_parse_round_trip():
    rng = random.Random(53)
    assert format_polynomial(Polynomial.zero(2)) == "0"
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n)
        assert parse_polynomial(format_polynomial(p), n) == p


def test_leading_data_and_monic():
    order = MonomialOrder.local_order(2)
    p = parse_polynomial("2*z1^3 + 4*z2", 2)
    assert p.leading_monomial(order) == (0, 1)
    assert p.leading_coefficient(order) == 4
    assert p.monic(order).terms[(0, 1)] == 1
    assert p.monic(order).terms[(3, 0)] == Fraction(1, 2)
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading_monomial(order)
    assert p.total_degree() == 3
    assert Polynomial.zero(2).total_degree() == -1
