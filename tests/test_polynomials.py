from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod.polynomials import (
    ModPolynomial,
    NonDivisibleTermError,
    Polynomial,
    VariableMismatchError,
    divide_exact_monomial,
    is_prime,
    power_mod,
    reduce_mod_p,
    render_monomial,
    render_terms,
    substitute,
)
from conftest import parse_polynomial, power_by_multiplication

XY = ("x", "y")
ST = ("s", "t")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


# -- construction and arithmetic -------------------------------------------


def test_product_difference_of_squares():
    assert P("x + y") * P("x - y") == P("x^2 - y^2")


def test_additive_identity():
    a = P("3*x^2 + y")
    assert a + Polynomial.zero(XY) == a
    assert a + 0 == a


def test_square_of_binomial():
    s1 = parse_polynomial("s + 1", ST)
    assert s1 * s1 == parse_polynomial("s^2 + 2*s + 1", ST)


def test_variable_mismatch_rejected():
    with pytest.raises(VariableMismatchError):
        P("x") + parse_polynomial("s", ST)


def test_zero_terms_pruned():
    assert not (P("x") - P("x")).terms
    assert P("x") - P("x") == 0


# -- reduction mod p ---------------------------------------------------------


def test_reduce_basic():
    a = parse_polynomial("5*s + 7*t", ST)
    assert reduce_mod_p(a, 5).polynomial == parse_polynomial("2*t", ST)


def test_reduce_freshmans_dream():
    # oracle: binomial coefficients computed independently
    fifth = P("x + y") ** 5
    expected = {(5 - k, k): math.comb(5, k) for k in range(6)}
    assert fifth.terms == expected
    assert reduce_mod_p(fifth, 5).polynomial == P("x^5 + y^5")


def test_reduce_identity_when_p_large():
    a = P("3*x^2 + 2*y")
    assert reduce_mod_p(a, 101).polynomial == a


def test_reduce_requires_prime():
    with pytest.raises(ValueError):
        reduce_mod_p(P("x"), 6)
    with pytest.raises(ValueError):
        reduce_mod_p(P("x"), 1)


def test_mod_polynomial_requires_prime():
    with pytest.raises(ValueError):
        ModPolynomial(P("x"), 4)
    with pytest.raises(ValueError):
        reduce_mod_p(P("x"), 4)


@pytest.mark.parametrize("n", [3.0, "3", 2.5])
def test_is_prime_refuses_non_integers(n):
    with pytest.raises(ValueError, match="is not an integer"):
        is_prime(n)


@pytest.mark.parametrize(
    "terms",
    [{(1,): 2.7}, {(1,): "3"}, {(1.5,): 1}],
    ids=["float-coefficient", "string-coefficient", "float-exponent"],
)
def test_constructor_refuses_non_integer_terms(terms):
    # int() would read these as 2*x and 3*x, and store the exponent 1.5
    with pytest.raises(ValueError, match="must be integers"):
        Polynomial(("x",), terms)


def test_modulus_is_tested_once(monkeypatch):
    from graphperiod import polynomials

    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(polynomials, "is_prime", counted)
    p = 10**18 + 3
    a = reduce_mod_p(P("3*x^2 + 2*y"), p)
    assert calls == [p]
    b = (a + a) * a - P("x") + 1
    b.fold(XY).fold_variable("x")
    power_mod(b, p, XY)
    assert calls == [p]


def test_is_prime_small_values():
    primes = [n for n in range(30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division():
    for n in range(100_000):
        by_division = n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == by_division, n


def test_is_prime_large_values():
    assert is_prime(10**18 + 3)
    assert not is_prime(999999937 * 999999929)
    # strong pseudoprimes to every prime base up to 23, and up to 37
    assert not is_prime(149491 * 747451 * 34233211)
    assert not is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(ValueError):
        is_prime(3_317_044_064_679_887_385_961_981)


# -- folding -----------------------------------------------------------------


def test_fold_u5_mod3():
    a = reduce_mod_p(parse_polynomial("u^5", ("u",)), 3)
    assert a.fold_variable("u").polynomial == parse_polynomial("u", ("u",))


def test_fold_defining_relation():
    a = reduce_mod_p(parse_polynomial("u^3", ("u",)), 3)
    assert a.fold_variable("u").polynomial == parse_polynomial("u", ("u",))


def test_fold_leaves_constants():
    a = reduce_mod_p(parse_polynomial("2", ("u",)), 3)
    assert a.fold_variable("u").polynomial == parse_polynomial("2", ("u",))


def test_fold_merges_terms():
    # u^3 + u == 2u mod (3, u^3 - u)
    a = reduce_mod_p(parse_polynomial("u^3 + u", ("u",)), 3)
    assert a.fold_variable("u").polynomial == parse_polynomial("2*u", ("u",))


# -- substitution ------------------------------------------------------------


def test_substitute_negami_to_tutte_vars():
    n = parse_polynomial("u^2*x + u*y", ("u", "x", "y"))
    st_poly = substitute(
        n,
        {"u": parse_polynomial("s*t", ST), "x": 1, "y": parse_polynomial("t", ST)},
        ST,
    )
    assert st_poly == parse_polynomial("s^2*t^2 + s*t^2", ST)


def test_substitute_constant():
    assert substitute(P("x^3"), {"x": 1}) == Polynomial.constant(XY, 1)


def test_substitute_cancellation():
    assert substitute(P("x^2 + x"), {"x": -1}) == 0


def test_substitute_self_is_identity():
    a = P("3*x^2*y + x - 7")
    assert substitute(a, {"x": Polynomial.variable(XY, "x")}) == a


@pytest.mark.parametrize("value", [2.5, "2"])
def test_substitute_refuses_values_that_are_not_integers(value):
    with pytest.raises(ValueError, match="must be integers"):
        substitute(P("3*x^2"), {"x": value})


# -- exact monomial division --------------------------------------------------


def test_divide_exact():
    a = parse_polynomial("s^2*t^2 + s*t^2", ST)
    assert divide_exact_monomial(a, {"s": 1, "t": 1}) == parse_polynomial(
        "s*t + t", ST
    )


def test_divide_non_divisible():
    a = parse_polynomial("s^2*t^2 + s*t^2", ST)
    with pytest.raises(NonDivisibleTermError):
        divide_exact_monomial(a, {"s": 2, "t": 3})


def test_divide_by_one():
    a = parse_polynomial("s^2*t^2 + s*t^2", ST)
    assert divide_exact_monomial(a, {}) == a


def test_divide_refuses_exponents_that_are_not_integers():
    # int() would truncate 1.5 to 1 and return 3*x
    with pytest.raises(ValueError, match="exponents must be integers"):
        divide_exact_monomial(P("3*x^2"), {"x": 1.5})


# -- power with folding --------------------------------------------------------


def test_power_mod_cube_fold_u():
    uxy = ("u", "x", "y")
    a = reduce_mod_p(parse_polynomial("u*x + u*y", uxy), 3)
    cubed = power_mod(a, 3, ("u",))
    assert cubed.polynomial == parse_polynomial("u*x^3 + u*y^3", uxy)


def test_power_mod_first_power_folds():
    a = reduce_mod_p(parse_polynomial("u^4", ("u",)), 3)
    assert power_mod(a, 1, ("u",)) == a.fold_variable("u")


def test_power_mod_square_mod2():
    a = reduce_mod_p(parse_polynomial("s + t", ST), 2)
    assert power_mod(a, 2, ST).polynomial == parse_polynomial("s + t", ST)


def test_power_mod_refuses_exponent_not_a_power_of_p():
    a = reduce_mod_p(parse_polynomial("s + t", ST), 5)
    with pytest.raises(ValueError):
        power_mod(a, 4, ST)


# -- property tests -------------------------------------------------------------


@st.composite
def polynomials(draw, variables=XY, max_terms=6, max_exp=5, max_coeff=9):
    table = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_exp)) for _ in variables
        )
        table[exps] = draw(st.integers(-max_coeff, max_coeff))
    return Polynomial(variables, table)


@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(polynomials(), polynomials(), st.sampled_from([2, 3, 5]))
def test_fold_is_ring_morphism(a, b, p):
    am = reduce_mod_p(a, p)
    bm = reduce_mod_p(b, p)
    lhs = (am * bm).fold(XY)
    rhs = (am.fold(XY) * bm.fold(XY)).fold(XY)
    assert lhs == rhs


@settings(max_examples=100)
@given(polynomials(), st.sampled_from([2, 3, 5, 7]))
def test_fold_idempotent(a, p):
    am = reduce_mod_p(a, p)
    folded = am.fold(XY)
    assert folded.fold(XY) == folded


@settings(max_examples=200, deadline=None)
@given(
    polynomials(("u", "x", "y"), max_exp=4),
    st.sampled_from([2, 3, 5, 7]),
    st.booleans(),
    st.sets(st.sampled_from(("u", "x", "y"))),
)
def test_power_mod_matches_repeated_multiplication(a, p, frobenius, names):
    # power_mod raises to k = p (or k = 1) by the Frobenius map
    k = p if frobenius else 1
    am = reduce_mod_p(a, p)
    folded = sorted(names)
    assert power_mod(am, k, folded) == power_by_multiplication(am, k, folded)


@given(polynomials(), polynomials(), st.sampled_from([2, 3, 5]))
def test_reduce_is_additive(a, b, p):
    assert reduce_mod_p(a + b, p) == reduce_mod_p(a, p) + reduce_mod_p(b, p)


# -- rendering, read back by the fixture reader in conftest -----------------------


def test_render_matches_display_convention():
    poly = parse_polynomial("t^6 + 2*t + s^4 + s^9 + 2*s^5*t + s*t^2", ST)
    assert str(poly) == "s^4 + s^9 + 2*t + 2*s^5*t + s*t^2 + t^6"


def test_render_zero_and_negative():
    assert str(Polynomial.zero(ST)) == "0"
    assert str(P("x^2 - x")) == "-x + x^2"


def test_parse_render_roundtrip():
    for text in ("0", "1", "-3", "x^2 - x", "2*x*y + y^7 - 4"):
        poly = P(text)
        assert parse_polynomial(str(poly), XY) == poly


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.permutations(("x", "y", "λ")).map(lambda names: names[:n]),
            st.tuples(*[st.integers(0, 12)] * n),
        )
    )
)
def test_render_monomial_is_the_unit_term(case):
    variables, exps = case
    text = render_monomial(variables, exps)
    assert text == render_terms(variables, {exps: 1})
    assert parse_polynomial(text, variables) == Polynomial.monomial(variables, exps)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x + ", XY)
    with pytest.raises(ValueError):
        parse_polynomial("z^2", XY)
    with pytest.raises(ValueError):
        parse_polynomial("x ? y", XY)


def test_modpolynomial_renders_like_polynomial():
    a = reduce_mod_p(parse_polynomial("5*s + 7*t", ST), 5)
    assert str(a) == "2*t"
