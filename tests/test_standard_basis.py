"""Global Groebner bases, local standard bases, and quotient extraction."""

import hashlib
import importlib
import random
import sys
import tracemalloc
from fractions import Fraction
from heapq import heappop
from math import gcd
from pathlib import Path

import pytest

from eqidx import standard_basis
from eqidx.equiv_index import (
    DiagonalAction,
    OneForm,
    _character_of_quotient,
    _dimension,
    _global_quotient,
    _origin_quotient,
    conservation_check,
    equivariant_pullback,
    global_index_character,
    hom_index,
    index_report,
    radial_index,
)
from eqidx.errors import (
    GloballyNonZeroDimensionalError,
    InputError,
    NonIsolatedError,
    NonZeroDimensionalError,
)
from eqidx.generator import random_case, random_shear
from eqidx.poly import (
    MonomialOrder,
    Polynomial,
    format_polynomial,
    mon_divides,
    mon_mul,
    parse_polynomial,
)
from eqidx.rep_rings import CyclicGroup
from eqidx.standard_basis import (
    GeneratorSet,
    ReducedBasis,
    _finish,
    _homogenize,
    _homogenized_local,
    _integer_terms,
    _lift_run,
    _local_basis,
    _staircase,
    buchberger_global,
    global_normal_form,
    mora_local,
    mora_normal_form,
    normal_form,
    quotient_basis,
    s_polynomial,
)
from oracles import (
    box_standard_monomials,
    fraction_full_remainder,
    local_quotient_dimension,
    milnor_product,
    quadratic_update_pairs,
    sympy_normal_form,
    sympy_reduced_groebner,
    truncated_quotient_dimension,
)


def P(text, n):
    return parse_polynomial(text, n)


def _tuple_terms(p):
    """_integer_terms of p, its packed monomials read back as exponent tuples."""
    layout = standard_basis._layout("degrevlex", p.nvars)
    terms = _integer_terms(p, layout)
    return dict(zip(map(layout.unpack, terms), terms.values()))


def local_gens(texts, n):
    return GeneratorSet(tuple(P(t, n) for t in texts), MonomialOrder.local_order(n))


def global_gens(texts, n):
    return GeneratorSet(tuple(P(t, n) for t in texts), MonomialOrder.global_order(n))


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet((), MonomialOrder.global_order(1))
    with pytest.raises(ValueError):
        GeneratorSet((P("z1", 1), P("z1 + z2", 2)), MonomialOrder.global_order(1))


def test_s_polynomial_cancels_leading_terms():
    order = MonomialOrder.global_order(2)
    f = P("z1^2 + z2", 2)
    g = P("3*z1*z2 - 1", 2)
    s = s_polynomial(f, g, order)
    assert (1, 1) not in s.terms and (2, 1) not in s.terms
    assert s == P("z2^2 + 1/3*z1", 2)


def test_buchberger_examples():
    basis = buchberger_global(global_gens(("z1", "z2"), 2))
    assert set(basis.leading_monomials()) == {(1, 0), (0, 1)}
    principal = buchberger_global(global_gens(("z^3 - z",), 1))
    assert principal.elements == (P("z^3 - z", 1),)
    mixed = buchberger_global(global_gens(("z1^2 - z2", "z2^2"), 2))
    assert quotient_basis(mixed).dimension == 4


def test_buchberger_reducedness():
    basis = buchberger_global(global_gens(("z1^2 - z2", "z2^2", "z1*z2 + z1^2"), 2))
    lms = basis.leading_monomials()
    for i, g in enumerate(basis.elements):
        assert g.leading_coefficient(basis.order) == 1
        for mon in g.terms:
            # no term of a reduced basis element is reducible by the others
            assert not any(
                mon_divides(lm, mon) for j, lm in enumerate(lms) if j != i
            )


def _deformed_pure_power_form(rng, n):
    """Components c*z_v^d plus degree-d terms in later variables plus lower terms.

    The shape of the deformations a global conservation check reduces: the
    top-degree part has only the origin as a zero, so the ideal is
    zero-dimensional with multiplicity the product of the degrees.
    """
    order = list(range(n))
    rng.shuffle(order)
    comps = []
    for pos, v in enumerate(order):
        later = order[pos + 1 :]
        d = rng.randint(2, 4)
        terms = {tuple(d if j == v else 0 for j in range(n)): Fraction(rng.choice((1, -2, 3)))}
        for _ in range(rng.randint(0, 2)) if later else ():
            w = rng.choice(later)
            k = rng.randint(1, d)
            terms[tuple(d - k if j == v else k if j == w else 0 for j in range(n))] = Fraction(
                rng.randint(-3, 3) or 1, rng.randint(1, 2)
            )
        for _ in range(rng.randint(1, 2)):
            low = tuple(rng.randint(0, d - 1) for _ in range(n))
            if sum(low) < d:
                terms[low] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        comps.append(Polynomial(n, terms))
    return comps


def _random_polys(rng, n, count, max_exponent):
    polys = []
    for _ in range(count):
        terms = {
            tuple(rng.randint(0, max_exponent) for _ in range(n)): Fraction(
                rng.randint(-4, 4) or 1, rng.randint(1, 3)
            )
            for _ in range(rng.randint(1, 4))
        }
        polys.append(Polynomial(n, terms))
    return polys


# The global order kinds with sympy's names for them.
SYMPY_ORDERS = (("degrevlex", "grevlex"), ("deglex", "grlex"))


def test_buchberger_against_sympy():
    # Every element, not only the leading monomials: the pair criteria may
    # drop only pairs that reduce to zero, and the reduced basis is unique.
    # Homogenized generators, as the lift builds them, give the many lcm
    # ties that exercise the criteria hardest.  Both global orders, each
    # with its own packed layout.
    rng = random.Random(71)
    cases = []
    for _ in range(12):
        n = rng.randint(1, 3)
        cases.append(_random_polys(rng, n, rng.randint(1, 3), 3))
    rng = random.Random(131)
    for _ in range(12):
        n = rng.randint(2, 3)
        cases.append([_homogenize(p) for p in _random_polys(rng, n, rng.randint(2, 4), 2)])
    cases += [_deformed_pure_power_form(rng, rng.randint(2, 3)) for _ in range(8)]
    for polys in cases:
        n = polys[0].nvars
        for kind, name in SYMPY_ORDERS:
            ours = buchberger_global(GeneratorSet(tuple(polys), MonomialOrder(kind, n)))
            assert len(set(ours.elements)) == len(ours.elements)
            assert set(ours.elements) == sympy_reduced_groebner(polys, name)


def test_global_normal_form_is_canonical():
    basis = buchberger_global(global_gens(("z^3 - z",), 1))
    assert normal_form(P("z^3", 1), basis) == P("z", 1)
    assert normal_form(P("z^6", 1), basis) == P("z^2", 1)
    assert normal_form(Polynomial.zero(1), basis).is_zero()
    # members reduce to zero, and the remainder is stable under re-reduction
    member = P("(z^3 - z) * (z^2 + 5)", 1)
    assert normal_form(member, basis).is_zero()
    r = normal_form(P("z^5 + z^2 + 1", 1), basis)
    assert normal_form(r, basis) == r
    with pytest.raises(ValueError):
        global_normal_form(P("z", 1), [P("z", 1)], MonomialOrder.local_order(1))
    # A zero element divides nothing and is skipped, as in mora_normal_form.
    glob = MonomialOrder.global_order(1)
    assert global_normal_form(P("z+z^2", 1), [Polynomial.zero(1), P("z", 1)], glob).is_zero()
    assert global_normal_form(P("z+3", 1), [Polynomial.zero(1)], glob) == P("z+3", 1)


def test_global_normal_form_against_sympy():
    # Against a reduced Groebner basis the remainder of full division is
    # canonical, so sympy's division must find the same one.  The dividends
    # have many terms, some to reduce and some to emit between steps, and
    # the fractional basis coefficients make steps that rescale the terms
    # already emitted.  Plain generators (fewer than the variables, so the
    # ideal is not the whole ring), homogenized ones as the lift builds them,
    # and zero-dimensional deformations as a conservation check reduces.
    # Each dividend is also reduced under deglex, against the deglex basis.
    rng = random.Random(557)
    cases = []
    for _ in range(6):
        n = rng.randint(2, 3)
        cases.append(_random_polys(rng, n, rng.randint(1, n - 1), 3))
    for _ in range(6):
        n = rng.randint(2, 3)
        cases.append([_homogenize(p) for p in _random_polys(rng, n, rng.randint(2, 3), 2)])
    cases += [_deformed_pure_power_form(rng, rng.randint(2, 3)) for _ in range(4)]
    nonzero = 0
    for gens in cases:
        n = gens[0].nvars
        order = MonomialOrder.global_order(n)
        basis = buchberger_global(GeneratorSet(tuple(gens), order)).elements
        lex = MonomialOrder("deglex", n)
        lex_basis = buchberger_global(GeneratorSet(tuple(gens), lex)).elements
        for _ in range(3):
            factor, rest = _random_polys(rng, n, 2, 4)
            p = rng.choice(gens) * factor + rest * rest
            ours = global_normal_form(p, basis, order)
            assert ours == sympy_normal_form(p, basis, "grevlex")
            nonzero += not ours.is_zero()
            assert global_normal_form(p, lex_basis, lex) == sympy_normal_form(p, lex_basis, "grlex")
    # 39 of the 48 remainders are nonzero.
    assert nonzero == 39


def _content(terms):
    return gcd(*terms.values())


def _monic_homogeneous_polys(rng, n, count, order):
    """Random homogeneous polynomials, integer coefficients, leading coefficient 1."""
    polys = []
    for _ in range(count):
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mon = [0] * n
            for _ in range(degree):
                mon[rng.randrange(n)] += 1
            terms[tuple(mon)] = Fraction(rng.randint(-4, 4) or 1)
        terms[max(terms, key=order.key)] = Fraction(1)
        polys.append(Polynomial(n, terms))
    return polys


def _even_remainder_dividend(rng, n, reducer, order):
    """z^s * reducer + 2*r, every term of r below the leading term.

    When ``reducer`` is the first of monic integer reducers that a division
    tries on the leading term, the first step takes away z^s * reducer
    exactly, and every later step keeps the content 2: the remainder has
    content above 1 before it is made primitive.
    """
    shift = tuple(rng.randint(0, 2) for _ in range(n))
    lead = order.key(mon_mul(reducer.leading_monomial(order), shift))
    wanted, terms = rng.randint(1, 5), {}
    for _ in range(40):
        mon = tuple(rng.randint(0, 6) for _ in range(n))
        if order.key(mon) < lead and len(terms) < wanted:
            terms[mon] = Fraction(2 * (rng.randint(-5, 5) or 1))
    return reducer * Polynomial(n, {shift: Fraction(1)}) + Polynomial(n, terms)


def test_full_remainder_is_primitive_against_fraction_oracle(monkeypatch):
    # Full division steps its remainder in place and takes the content out
    # only after a step that scales (a > 1) and once at the end.  Against
    # plain division in Fractions: the remainder is primitive, it is
    # ``scale`` times the exact remainder, and the steps are the same.
    # Random bases with fractional coefficients give scaling steps; monic
    # integer bases and dividends built by _even_remainder_dividend give
    # remainders of content above 1 that only the final division removes.
    multipliers = []
    step = standard_basis._step

    def recording_step(*args):
        multipliers.append(step(*args))
        return multipliers[-1]

    monkeypatch.setattr(standard_basis, "_step", recording_step)
    rng = random.Random(1601)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 3)
        order = MonomialOrder.global_order(n)
        basis = _random_polys(rng, n, rng.randint(1, 3), 3)
        factor, rest = _random_polys(rng, n, 2, 3)
        cases.append((rng.choice(basis) * factor + rest * rest, basis, order))
    for _ in range(30):
        n = rng.randint(1, 3)
        order = MonomialOrder.global_order(n)
        basis = _monic_homogeneous_polys(rng, n, rng.randint(1, 3), order)
        # Full division tries the reducers in list order.
        cases.append((_even_remainder_dividend(rng, n, basis[0], order), basis, order))
    contents = []
    for p, basis, order in cases:
        layout = standard_basis._layout(order.kind, order.nvars)
        terms = standard_basis._integer_terms(p, layout)
        reducers = [
            standard_basis._entry(standard_basis._integer_terms(g, layout), layout) for g in basis
        ]
        remainder, num, den, steps = standard_basis._full_remainder(terms, reducers, layout)
        scale = Fraction(num, den)
        remainder = dict(zip(map(layout.unpack, remainder), remainder.values()))
        exact, exact_steps = fraction_full_remainder(
            Polynomial(p.nvars, {layout.unpack(mon): Fraction(c) for mon, c in terms.items()}),
            basis,
            order,
        )
        assert steps == exact_steps
        assert remainder == {mon: scale * c for mon, c in exact.terms.items()}
        assert not remainder or _content(remainder) == 1
        if exact.terms and all(c.denominator == 1 for c in exact.terms.values()):
            contents.append(_content({mon: c.numerator for mon, c in exact.terms.items()}))
    # Both kinds of case occur: 33 steps scale, and 37 exact remainders are
    # integral with content above 1.
    assert sum(a != 1 for a in multipliers) == 33
    assert sum(c > 1 for c in contents) == 37
    # Divisions that share one memo while the reducer set grows, as in the
    # pair loop: each case's reducers enter one at a time, one leaves when a
    # newer leading monomial divides its own, and after each entry the
    # dividend is divided again.  Each division must still be the oracle's.
    kept = stepped = 0
    for p, basis, order in cases:
        layout = standard_basis._layout(order.kind, order.nvars)
        terms = standard_basis._integer_terms(p, layout)
        entries = [
            standard_basis._entry(standard_basis._integer_terms(g, layout), layout) for g in basis
        ]
        lms = [e[0] for e in entries]
        memo = _RecordingMemo()
        for t in range(1, len(entries) + 1):
            live = [
                i
                for i in range(t)
                if all((lms[j] - lms[i]) & layout.guard for j in range(i + 1, t))
            ]
            memo.found.clear()
            remainder, num, den, steps = standard_basis._full_remainder(
                terms, [entries[i] for i in live], layout, lms[:t], memo
            )
            exact, exact_steps = fraction_full_remainder(
                Polynomial(p.nvars, {layout.unpack(mon): Fraction(c) for mon, c in terms.items()}),
                [basis[i] for i in live],
                order,
            )
            assert steps == exact_steps
            remainder = dict(zip(map(layout.unpack, remainder), remainder.values()))
            assert remainder == {mon: Fraction(num, den) * c for mon, c in exact.terms.items()}
            counts = _memo_counts(memo, lms[:t])
            kept += counts[0]
            stepped += counts[1]
    # Monomials the memo spared a scan of every reducer, and monomials a
    # newer leading monomial made reducible.
    assert (kept, stepped) == (122, 89)


def test_weak_normal_form_result_is_primitive():
    # Mora's weak normal form takes the content out of its remainder after
    # a step that scales, where it cuts at the corner, and once at the end;
    # without a step it returns its input object.  Against homogeneous
    # monic reducers (ecart zero) dividends built by _even_remainder_dividend
    # keep the content 2 until the end.  Random reducers of positive ecart run
    # under a fixed corner, which keeps the division in a finite space (with
    # no corner one can creep for a long time).
    rng = random.Random(1602)
    stepped = 0
    for case in range(60):
        n = rng.randint(1, 3)
        order = MonomialOrder.local_order(n)
        if case % 2:
            basis = _random_polys(rng, n, rng.randint(1, 3), 3)
            p = rng.choice(basis) * _random_polys(rng, n, 1, 2)[0] + _random_polys(rng, n, 1, 4)[0]
            corner = lambda fresh: 7
        else:
            basis = _monic_homogeneous_polys(rng, n, rng.randint(1, 3), order)
            # The weak normal form tries reducers of least ecart first (all
            # zero here), then of least leading monomial, then the oldest.
            first = min(basis, key=lambda g: order.key(g.leading_monomial(order)))
            p = _even_remainder_dividend(rng, n, first, order)
            corner = lambda fresh: None
        layout = standard_basis._layout(order.kind, order.nvars)
        terms = standard_basis._integer_terms(p, layout)
        reducers = [
            standard_basis._entry(standard_basis._integer_terms(g, layout), layout) for g in basis
        ]
        h = standard_basis._finish(
            standard_basis._mora_weak_nf(layout, terms, reducers, corner)
        )
        assert not h or _content(h) == 1
        stepped += h is not terms
    # 53 of the 60 reductions take a step.
    assert stepped == 53


def test_mora_examples():
    for e in (3, 5, 7):
        basis = mora_local(local_gens((f"z^{e}",), 1))
        assert quotient_basis(basis).dimension == e
    unit_factor = mora_local(local_gens(("z^3 + z",), 1))
    assert set(unit_factor.leading_monomials()) == {(1,)}
    assert quotient_basis(unit_factor).dimension == 1
    brieskorn = mora_local(local_gens(("3*z1^2", "3*z2^2"), 2))
    assert set(brieskorn.leading_monomials()) == {(2, 0), (0, 2)}
    assert quotient_basis(brieskorn).dimension == 4
    with pytest.raises(ValueError):
        mora_local(global_gens(("z1",), 1))


def test_mora_weak_normal_form_properties():
    order = MonomialOrder.local_order(2)
    basis = mora_local(local_gens(("z1^2", "z2^2"), 2)).elements
    assert mora_normal_form(P("z1^2*z2", 2), basis, order).is_zero()
    lms = [g.leading_monomial(order) for g in basis]
    r = mora_normal_form(P("z1 + z1^3 + z2^4", 2), basis, order)
    assert not any(mon_divides(lm, r.leading_monomial(order)) for lm in lms)
    with pytest.raises(ValueError):
        mora_normal_form(P("z1", 2), basis, MonomialOrder.global_order(2))


def test_mora_normal_form_stops_at_the_reducers_corner(monkeypatch):
    # The reducers' leading monomials z1^3, z2 and z1*z2 hold a pure power of
    # each variable, so m^3 lies in their ideal and the division drops the
    # terms above degree 3.  Without that cut the remainder crept: a
    # unit-multiple reducer, -2*z2 + ..., kept adding terms, and the call ran
    # for minutes.  Now it takes four steps to zero, and the truncation
    # oracle agrees that the dividend lies in the ideal.
    order = MonomialOrder.local_order(2)
    p = P(
        "z1^5*z2^3 + z1^5*z2^2 + 1/3*z1^2*z2^5 + 2*z1^5*z2 - 1/2*z1^4*z2^2"
        " + 2*z1^3*z2^3 + 2/3*z1^2*z2^4 - z1^2*z2^3 - 1/6*z1*z2^4 - 4/3*z1^2*z2^2"
        " - 1/6*z1*z2^3 + 2*z1^3 - 4*z1^2*z2 + z1*z2^2 + 1/3*z1*z2",
        2,
    )
    basis = [
        P("1/3*z1^2*z2^3 - 2*z1^3", 2),
        P("z1^3*z2 + 1/3*z2^3 + 1/3*z2^2 - 2*z2", 2),
        P("1/2*z1^3*z2^3 - 2*z1*z2", 2),
    ]
    steps = []
    step = standard_basis._step
    monkeypatch.setattr(standard_basis, "_step", lambda *args: steps.append(1) or step(*args))
    assert mora_normal_form(p, basis, order).is_zero()
    assert len(steps) == 4
    for bound in (5, 6, 7):
        assert truncated_quotient_dimension(basis, bound) == 3
        assert truncated_quotient_dimension(basis + [p], bound) == 3
    # In no variables there is no corner to seek.
    one, constant = Polynomial(0, {(): Fraction(1)}), Polynomial(0, {(): Fraction(3)})
    assert mora_normal_form(constant, [], MonomialOrder.local_order(0)) is constant
    assert mora_normal_form(constant, [one], MonomialOrder.local_order(0)).is_zero()


def test_local_dimension_against_truncation_oracle():
    fixtures = [
        (("z^4",), 1),
        (("z^3 + z^5",), 1),
        (("z1^2 - z2^3", "z1*z2"), 2),
        (("z1^3 + z2^2", "z2^3 - z1*z2"), 2),
        (("2*z1^2 + z2^2 + z3^2", "z2^2 - z3^2", "z3^3"), 3),
        # Direct Mora gets these wrong if the pair loop prunes unsoundly:
        # the first if it keeps none of a group of new pairs sharing an lcm,
        # the other two if the chain criterion drops a pair whose lcm equals
        # the lcm of one of its elements with the new leading monomial.
        (("-3/2*z1^3", "1/2*z1^4*z2 + z2^3 - 3/2*z1^2", "1/2*z3^3 - z1*z3"), 3),
        (
            (
                "1/2*z1^2*z2^3*z3^3 + 1/3*z1^2",
                "-4*z1^3*z2^2 + 3*z1*z2*z3 - z1*z3^2 + z3^3",
                "-z1*z2*z3^3",
                "-z1^2*z3",
                "z2^3",
            ),
            3,
        ),
        (
            (
                "1/3*z1*z2^2 + z1 + 1/3*z2",
                "z1^2*z2*z3 - 4*z1*z2^2*z3 + 1/2*z1^2*z3^2",
                "4*z1^2*z2^2*z3 + 3/2*z1^2*z2",
                "z3^3",
            ),
            3,
        ),
    ]
    for texts, n in fixtures:
        engine = quotient_basis(mora_local(local_gens(texts, n))).dimension
        oracle = local_quotient_dimension([P(t, n) for t in texts])
        assert engine == oracle


def test_local_dimension_oracle_on_random_cases():
    rng = random.Random(83)
    done = 0
    while done < 8:
        form, _action = random_case(rng, max_order=4, max_vars=2, max_degree=4)
        components = list(form.components)
        engine = quotient_basis(
            mora_local(GeneratorSet(tuple(components), MonomialOrder.local_order(form.nvars)))
        ).dimension
        assert engine == local_quotient_dimension(components)
        done += 1


def test_unit_multiplier_invariance():
    rng = random.Random(97)
    base = [P("z1^3 - z2^2", 2), P("z1*z2 + z2^3", 2)]
    reference = quotient_basis(
        mora_local(GeneratorSet(tuple(base), MonomialOrder.local_order(2)))
    ).dimension
    for _ in range(6):
        unit = Polynomial.constant(2, rng.choice((1, 2, -3, Fraction(1, 2))))
        for _ in range(rng.randint(0, 2)):
            mon = (rng.randint(0, 2), rng.randint(0, 2))
            if sum(mon):
                unit = unit + Polynomial.monomial(2, mon, rng.randint(-2, 2))
        scaled = [base[0] * unit, base[1]]
        got = quotient_basis(
            mora_local(GeneratorSet(tuple(scaled), MonomialOrder.local_order(2)))
        ).dimension
        assert got == reference


def test_milnor_numbers_of_pure_power_sums():
    rng = random.Random(101)
    for _ in range(10):
        n = rng.randint(1, 3)
        exps = [rng.randint(2, 5) for _ in range(n)]
        partials = [
            Polynomial.monomial(
                n, tuple(exps[i] - 1 if j == i else 0 for j in range(n)), exps[i]
            )
            for i in range(n)
        ]
        basis = mora_local(GeneratorSet(tuple(partials), MonomialOrder.local_order(n)))
        assert quotient_basis(basis).dimension == milnor_product(exps)


def test_quotient_basis_shape():
    qb = quotient_basis(mora_local(local_gens(("z1^2", "z2^2"), 2)))
    assert set(qb.monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert qb.dimension == 4
    # order ideal: every divisor of a standard monomial is standard
    std = set(qb.monomials)
    for mon in std:
        for i in range(2):
            if mon[i]:
                lower = tuple(e - 1 if j == i else e for j, e in enumerate(mon))
                assert lower in std
    degrees = [sum(mon) for mon in qb.monomials]
    assert degrees == sorted(degrees)


def _monomial_basis(leading, nvars):
    """A ReducedBasis whose elements are the given monomials, under degrevlex."""
    order = MonomialOrder.global_order(nvars)
    return ReducedBasis(
        tuple(Polynomial.monomial(nvars, lm) for lm in leading), order, "global"
    )


def test_quotient_basis_against_box_oracle_random():
    rng = random.Random(4111)
    for _ in range(150):
        n = rng.randint(1, 4)
        leading = [
            tuple(rng.randint(1, 7) if j == i else 0 for j in range(n)) for i in range(n)
        ]
        for _ in range(rng.randint(0, 6)):
            leading.append(tuple(rng.randint(0, 4) for _ in range(n)))
        rng.shuffle(leading)
        got = quotient_basis(_monomial_basis(leading, n)).monomials
        assert list(got) == box_standard_monomials(leading, n), leading


def test_quotient_basis_stays_inside_the_staircase():
    # The pure powers bound a box of 160,000 monomials, of which 799 are
    # standard; materializing the box would take more than 10 MB.
    leading = [(400, 0), (0, 400), (1, 1)]
    basis = _monomial_basis(leading, 2)
    tracemalloc.start()
    try:
        monomials = quotient_basis(basis).monomials
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(monomials) == 799
    assert list(monomials) == box_standard_monomials(leading, 2)
    assert peak < 2 * 2**20


def test_quotient_basis_rejects_positive_dimension():
    with pytest.raises(NonZeroDimensionalError) as e:
        quotient_basis(mora_local(local_gens(("z1",), 2)))
    assert e.value.variable == 1
    with pytest.raises(NonZeroDimensionalError):
        quotient_basis(buchberger_global(global_gens(("z1*z2 - 1",), 2)))


def test_standard_basis_minimality_and_order():
    basis = mora_local(local_gens(("z1^2 + z2^3", "z2^2 - z1^3"), 2))
    order = basis.order
    lms = basis.leading_monomials()
    for i, a in enumerate(lms):
        for j, b in enumerate(lms):
            if i != j:
                assert not mon_divides(a, b)
    keys = [order.key(lm) for lm in lms]
    assert keys == sorted(keys, reverse=True)
    for g in basis.elements:
        assert g.leading_coefficient(order) == 1


def test_truncate_primitive_homogenize_helpers():
    q = P("2/3*z1^2 - 4*z2", 2)
    prim = _tuple_terms(q)
    assert prim == {(2, 0): 1, (0, 1): -6}
    assert all(type(c) is int for c in prim.values())
    assert _tuple_terms(P("z1^2 - 6*z2", 2)) == prim
    assert _tuple_terms(Polynomial.zero(2)) == {}
    h = _homogenize(P("z1^2 + z2 + 1", 2))
    assert h.terms.keys() == {(2, 0, 0), (0, 1, 1), (0, 0, 2)}
    # Setting the trailing variable to one, as the lift does, undoes it.
    assert {mon[:-1]: c for mon, c in h.terms.items()} == P("z1^2 + z2 + 1", 2).terms


def _counted_lifts(monkeypatch):
    """Record every ideal on which mora_local returns the lift's basis.

    Every mora_local call starts one direct run, and calls do not nest: the
    ideal is recorded when its run starts and dropped again when the run
    finishes first, so what stays are the ideals the lift won.
    """
    lifts = []
    direct_run = standard_basis._direct_run

    def counted(gens, *args):
        lifts.append(gens)
        basis = yield from direct_run(gens, *args)
        lifts.pop()
        return basis

    monkeypatch.setattr(standard_basis, "_direct_run", counted)
    return lifts


def test_scaling_generators_leaves_basis_unchanged(monkeypatch):
    # Scales of both signs: every reduction step rescales by a positive
    # number, so a generator's sign must not reach the basis either.
    lifts = _counted_lifts(monkeypatch)
    rng = random.Random(113)
    for texts, engine, gens in (
        (("z1^2 - z2^3", "z1*z2 + z2^4"), mora_local, local_gens),
        (("z1^2 - z2", "z2^2", "z1*z2 + z1^2"), buchberger_global, global_gens),
    ):
        reference = engine(gens(texts, 2))
        for _ in range(8):
            scales = [
                Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
                for _ in texts
            ]
            scales[0] = -abs(scales[0])
            scaled = tuple(P(t, 2) * s for t, s in zip(texts, scales))
            got = engine(GeneratorSet(scaled, reference.order))
            assert got.elements == reference.elements
    assert lifts == []


def _entries_lead_themselves(layout, entries):
    """Whether each run entry's leading monomial is the largest key among its own terms."""
    return all(e[0] == max(e[-1], key=layout.key) for e in entries)


def test_all_local_engines_agree(monkeypatch):
    # Under both local orders, mora_local, the lift and the direct run
    # alone find one leading ideal, each run's entries led by their own
    # leading monomials, and its dimension is the truncation oracle's.
    # mora_local returns the lift's basis only when the lift finishes first;
    # count those, so that mora_local stays the direct route here.
    lifts = _counted_lifts(monkeypatch)
    rng = random.Random(977)
    for _ in range(15):
        form, _action = random_case(rng, max_order=4, max_vars=3, max_degree=5)
        oracle = local_quotient_dimension(list(form.components))
        for kind in ("negdegrevlex", "negdeglex"):
            gens = GeneratorSet(tuple(form.components), MonomialOrder(kind, form.nvars))
            runs = [_finish(run(gens)) for run in (standard_basis._direct_run, _lift_run)]
            for layout, entries in runs:
                assert _entries_lead_themselves(layout, entries)
            bases = (mora_local(gens), *(_local_basis(gens.order, *run) for run in runs))
            assert len({frozenset(b.leading_monomials()) for b in bases}) == 1
            for basis in bases:
                assert quotient_basis(basis).dimension == oracle
    assert lifts == []


def test_lift_under_negdeglex():
    # random_case at seed 339: under negdeglex, a lift that sorted by
    # negdegrevlex would win this race with entries led by monomials that
    # are not their own under negdeglex.  Every run's entries must be led by
    # their own leading monomials under both local orders, and the dimension
    # read from them is the one recomputed from the elements.
    form, _action = random_case(random.Random(339))
    for kind in ("negdeglex", "negdegrevlex"):
        gens = GeneratorSet(tuple(form.components), MonomialOrder(kind, form.nvars))
        for run in (standard_basis._direct_run, _lift_run):
            assert _entries_lead_themselves(*_finish(run(gens)))
    gens = GeneratorSet(tuple(form.components), MonomialOrder("negdeglex", form.nvars))
    for basis in (mora_local(gens), _homogenized_local(gens)):
        assert quotient_basis(basis).dimension == 99


def test_unit_tail_generator_collapses():
    # the first generator is a unit times z1, so the leading ideal is far
    # smaller than any single generator suggests
    gens = local_gens(
        ("3*z1^4*z3 + 3*z1", "-2*z1^2*z3^2 + z2^2", "2*z1*z2 - 2*z1*z3 - z3^2"), 3
    )
    basis = mora_local(gens)
    assert set(basis.leading_monomials()) == {(1, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert quotient_basis(basis).dimension == 4


def test_low_order_term_dominates_high_degree_generators():
    gens = local_gens(
        ("-3/2*z1^4 - 2*z2", "-2*z2^4 - 3/2*z1^2*z2 + z1*z2"), 2
    )
    basis = mora_local(gens)
    assert set(basis.leading_monomials()) == {(0, 1), (5, 0)}
    assert quotient_basis(basis).dimension == 5


def test_deep_corner_leading_ideal():
    # the leading ideal has corners past degree 12, so the computation must
    # push well beyond the generator degrees before the basis closes
    gens = local_gens(
        (
            "-3/2*z1^5 + 2*z1^2*z2*z3^2",
            "3*z2^5 - 3/2*z1^2*z2",
            "3*z1^3*z2*z3 - 2*z3^5 + z2^2*z3",
        ),
        3,
    )
    basis = mora_local(gens)
    assert quotient_basis(basis).dimension == 93
    assert (0, 13, 0) in basis.leading_monomials()
    assert (0, 0, 15) in basis.leading_monomials()


def test_mu96_ideal_from_coincidence_seed_149():
    # eqidx verify --suite coincidence --seed 149: random case, draw index 10
    # (0-based).  The lift finishes before direct Mora and computes it.
    gens = local_gens(
        ("3*z1^4 + z1^3*z2 + 3*z2^3*z3", "-z2^4", "-3/2*z3^6 + 1/2*z2*z3^3 + 2*z1^3"), 3
    )
    assert quotient_basis(mora_local(gens)).dimension == 96


def test_mu89_ideal_from_coincidence_seed_149():
    # eqidx verify --suite coincidence --seed 149: a candidate form that
    # random_invariant_form tests in draw index 38 (0-based).  Its standard
    # monomials reach degree 80, past the reach of the truncation oracle.
    action = DiagonalAction(CyclicGroup(3), (2, 2, 1))
    form = OneForm(
        (
            P("1/2*z1^5 + 2*z1^3*z2^2", 3),
            P("-z2^5 - 2*z1*z3^2", 3),
            P("-3/2*z3^5 - 2*z2^4 - 2*z2", 3),
        )
    )
    report = index_report(form, action)
    assert report.strata[1].milnor_number == 89
    assert report.hom == report.reduced_radial
    assert report.hom.coefficients == (29, 30, 30)


def test_pullback_of_verify_mix_case_101():
    # The pullback case of the benchmark's verify-mix workload whose
    # pulled-back form (local multiplicity 55) direct Mora could not finish
    # under step and size budgets, nor the homogenized lift in minutes; the
    # highest corner lets direct Mora finish in well under a second.
    rng = random.Random("verify-mix:101")
    form, action = random_case(rng, max_order=6, max_vars=3, max_degree=5)
    substitution = random_shear(rng, action, max_degree=3)
    pulled = equivariant_pullback(form, substitution, action)
    before = index_report(form, action)
    assert before.strata[1].milnor_number == 55
    assert index_report(pulled, action) == before
    # Every element, tails included (5 elements of 15, 14, 112, 492 and 150
    # terms): the reduction steps that build them are pinned, not only the
    # leading ideal.
    basis = mora_local(GeneratorSet(pulled.components, MonomialOrder.local_order(3)))
    assert (
        _basis_digest([basis])
        == "e90a7bd61592e00ee76c286eaadd4c83fda36e0e3c52ff670c238a5d39da04c0"
    )


def test_homogenized_lift_alone():
    gens = local_gens(("z1^2 + z1^5", "z2^3 - z1^4"), 2)
    lifted = _homogenized_local(gens)
    assert set(lifted.leading_monomials()) == {(2, 0), (0, 3)}
    assert quotient_basis(lifted).dimension == 6


def test_normal_form_dispatch():
    g = buchberger_global(global_gens(("z^2 - 1",), 1))
    l = mora_local(local_gens(("z^2",), 1))
    assert isinstance(g, ReducedBasis) and g.kind == "global"
    assert l.kind == "local"
    assert normal_form(P("z^2", 1), g) == P("1", 1)
    assert normal_form(P("z^3", 1), l).is_zero()


HARD_IDEALS = (
    ("-3/2*z1^5 + 2*z1^2*z2*z3^2", "3*z2^5 - 3/2*z1^2*z2", "3*z1^3*z2*z3 - 2*z3^5 + z2^2*z3"),
    ("3*z1^4 + z1^3*z2 + 3*z2^3*z3", "-z2^4", "-3/2*z3^6 + 1/2*z2*z3^3 + 2*z1^3"),
    ("1/2*z1^5 + 2*z1^3*z2^2", "-z2^5 - 2*z1*z3^2", "-3/2*z3^5 - 2*z2^4 - 2*z2"),
)


def test_race_schedule_is_pinned(monkeypatch):
    # _turn resumes a run for up to the given number of yields, one per
    # reduction step, and returns its result once it returns.  A run whose
    # last step uses up its turn returns in its next turn, taking no step.
    taken = []

    def toy(k):
        for i in range(k):
            taken.append(i)
            yield
        return k

    run = toy(5)
    assert standard_basis._turn(run, 3) is None and len(taken) == 3
    assert standard_basis._turn(run, 2) is None and len(taken) == 5
    assert standard_basis._turn(run, 1) == 5 and len(taken) == 5
    assert standard_basis._turn(toy(0), 1) == 0
    assert standard_basis._finish(toy(7)) == 7

    # Which run of the race finishes, and in which of its turns (256 steps,
    # doubling each round, the direct run first).  The bases pin only the
    # winner; this also pins a winner that would finish a round later.
    turns = []
    turn = standard_basis._turn

    def recorded(run, steps):
        result = turn(run, steps)
        turns.append((run.__name__, steps, result is not None))
        return result

    monkeypatch.setattr(standard_basis, "_turn", recorded)
    rng = random.Random("verify-mix:101")
    form, action = random_case(rng, max_order=6, max_vars=3, max_degree=5)
    pulled = equivariant_pullback(form, random_shear(rng, action, max_degree=3), action)
    fuzz_11 = random_case(random.Random("fuzz:11"), max_order=4, max_vars=3, max_degree=5)[0]
    d, lift = "_direct_run", "_lift_run"
    for components, schedule in (
        (HARD_IDEALS[0], [(d, 256, True)]),  # mu=93
        (HARD_IDEALS[1], [(d, 256, False), (lift, 256, True)]),  # mu=96
        (  # mu=89
            HARD_IDEALS[2],
            [(d, 256, False), (lift, 256, False), (d, 512, False), (lift, 512, True)],
        ),
        (fuzz_11.components, [(d, 256, False), (lift, 256, True)]),
        (
            pulled.components,
            [(d, 256, False), (lift, 256, False), (d, 512, False), (lift, 512, False),
             (d, 1024, True)],
        ),
    ):
        gens = tuple(P(c, 3) if isinstance(c, str) else c for c in components)
        turns.clear()
        mora_local(GeneratorSet(gens, MonomialOrder.local_order(3)))
        assert turns == schedule, components


def _basis_digest(bases):
    digest = hashlib.sha256()
    for basis in bases:
        for g in basis.elements:
            digest.update(format_polynomial(g).encode() + b"\n")
        digest.update(b";\n")
    return digest.hexdigest()


def _leading_digest(bases):
    digest = hashlib.sha256()
    for basis in bases:
        digest.update(repr(sorted(basis.leading_monomials())).encode() + b"\n")
    return digest.hexdigest()


def _pinned_corpus():
    """The local and the global generator lists whose bases test_engine_bases_are_pinned pins."""
    local = [
        random_case(random.Random(s), max_order=6, max_vars=3, max_degree=6)[0].components
        for s in range(40)
    ]
    local += [tuple(P(t, 3) for t in texts) for texts in HARD_IDEALS]
    polys = []
    for s in range(12):
        rng = random.Random(s)
        n = rng.randint(2, 3)
        polys.append(_random_polys(rng, n, rng.randint(2, 3), 3))
        polys.append([_homogenize(p) for p in _random_polys(rng, n, rng.randint(2, 4), 2)])
    polys += [_deformed_pure_power_form(random.Random(100 + s), 3) for s in range(8)]
    return local, polys


def test_engine_bases_are_pinned(monkeypatch):
    # Both engines' bases on a fixed corpus.  A reduced Groebner basis is
    # canonical, so every global element is pinned, as recorded when every
    # reduction step ran in exact rational arithmetic.  A minimal standard
    # basis is canonical only in its leading ideal: its tails depend on the
    # route that won and on where the highest corner cut them.  So the local
    # bases pin their leading monomials (recorded before the corner and the
    # race), the number of ideals the lift wins, and, on the ideals small
    # enough for the truncation oracle, that every element lies in its ideal.
    # Their elements, and those of the lift run alone, are pinned as well
    # (recorded with the race and the corner in place): a change that only
    # makes reduction steps cheaper keeps every step, and so every tail.
    local, polys = _pinned_corpus()
    lifts = _counted_lifts(monkeypatch)
    local_bases = [
        mora_local(GeneratorSet(tuple(c), MonomialOrder.local_order(c[0].nvars))) for c in local
    ]
    global_bases = [
        buchberger_global(GeneratorSet(tuple(c), MonomialOrder.global_order(c[0].nvars)))
        for c in polys
    ]
    # The lift wins the mu=96 and mu=89 ideals.
    assert len(lifts) == 2
    assert (
        _leading_digest(local_bases)
        == "3621571b16e71552cb541c966f6c91eed33570d3f15532b74c8daa8357f8068f"
    )
    assert (
        _basis_digest(global_bases)
        == "83b7898f468f4d1c4b1227045fb0bb9fc272f215e444713493284d5b3ce90d12"
    )
    assert (
        _basis_digest(local_bases)
        == "8001b3f774572eb7ed3bd20d09b1baf8643c483a01bc0e67355d145a431f8784"
    )
    lifted = [
        _homogenized_local(GeneratorSet(tuple(c), MonomialOrder.local_order(c[0].nvars)))
        for c in local
    ]
    assert (
        _basis_digest(lifted)
        == "692141d69b5a657a765b5bebebb9a9202ce604211eb9f916bad1081eac97367f"
    )
    checked = 0
    for gens, basis in zip(local, local_bases):
        # Above the top standard degree m^N lies in the ideal, so at this
        # bound the truncated quotient sees the ideal itself.
        bound = 2 + max(map(sum, quotient_basis(basis).monomials))
        if bound > 9:
            continue
        dimension = truncated_quotient_dimension(list(gens), bound)
        for g in basis.elements:
            assert truncated_quotient_dimension(list(gens) + [g], bound) == dimension
        checked += 1
    assert checked == 34


class _RecordingMemo(dict):
    """A memo of full division (see _full_remainder) that records what its lookups find."""

    def __init__(self):
        super().__init__()
        self.found = []

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.found.append((key, value))
        return value


def _memo_counts(memo, lms):
    """Of the lookups ``memo`` recorded, how many found no newer divisor and how many one.

    A monomial that stays irreducible is recorded again with len(lms); one
    that a newer leading monomial divides is stepped and keeps its old k.
    """
    stepped = sum(memo[mon] == k < len(lms) for mon, k in memo.found)
    return len(memo.found) - stepped, stepped


def test_division_memo_changes_no_division(monkeypatch):
    # Full division in the pair loop keeps one memo per run of the monomials
    # it found irreducible, and tests one again only against the leading
    # monomials that entered since.  On the pinned corpus every division of
    # the lift is made a second time with a fresh memo, which is a division
    # without one: the remainder, its scale and the steps must be the same.
    # A recording memo stands in for each run's own, and counts the
    # monomials found in it.
    full_remainder = standard_basis._full_remainder
    memos = {}
    counts = [0, 0, 0]

    def both(p, reducers, layout, lms=(), irreducible=None):
        # Holding the run's own memo keeps its id from naming another run.
        _, memo = memos.setdefault(id(irreducible), (irreducible, _RecordingMemo()))
        memo.found.clear()
        result = full_remainder(p, reducers, layout, lms, memo)
        assert result == full_remainder(p, reducers, layout, lms, {})
        kept, stepped = _memo_counts(memo, lms)
        counts[0] += 1
        counts[1] += kept
        counts[2] += stepped
        return result

    monkeypatch.setattr(standard_basis, "_full_remainder", both)
    local, _ = _pinned_corpus()
    for gens in local:
        _finish(_lift_run(GeneratorSet(tuple(gens), MonomialOrder.local_order(gens[0].nvars))))
    # Divisions, monomials the memo spared a scan of every reducer, and
    # monomials a newer leading monomial made reducible.
    assert counts == [433, 30, 18]


def test_hard_ideals_on_each_run_alone():
    # Each run of the race, run to its end alone, finds one minimal leading
    # ideal for each hard ideal, with mu = 93, 96 and 89: direct Mora alone
    # confirms the lift's answer on mu=89, which the race gives the lift.
    for texts, mu in zip(HARD_IDEALS, (93, 96, 89)):
        gens = local_gens(texts, 3)
        bases = [
            _local_basis(gens.order, *_finish(run(gens)))
            for run in (standard_basis._direct_run, _lift_run)
        ]
        assert len({frozenset(basis.leading_monomials()) for basis in bases}) == 1
        assert [quotient_basis(basis).dimension for basis in bases] == [mu, mu]


def _entries_digest(runs):
    """A digest of runs' (layout, entries), each entry's monomials unpacked, in order."""
    digest = hashlib.sha256()
    for layout, entries in runs:
        for entry in sorted(entries, key=lambda e: layout.key(e[0])):
            terms = sorted(zip(map(layout.unpack, entry[-1]), entry[-1].values()))
            digest.update(repr((layout.unpack(entry[0]), terms)).encode() + b"\n")
        digest.update(b";\n")
    return digest.hexdigest()


def test_corner_at_the_pair_is_pinned():
    # The pair loop seeks the highest corner before it reduces a pair with an
    # element of positive ecart, so the cut applies from the first pair after
    # the corner exists.  On pullback-101's pulled-back form the direct run
    # alone takes 948 reduction steps; sought only where a weak normal form
    # would recruit or a polynomial reaches past it, the corner appeared at
    # the last step, and the run took 982.
    rng = random.Random("verify-mix:101")
    form, action = random_case(rng, max_order=6, max_vars=3, max_degree=5)
    pulled = equivariant_pullback(form, random_shear(rng, action, max_degree=3), action)
    run = standard_basis._direct_run(GeneratorSet(pulled.components, MonomialOrder.local_order(3)))
    assert sum(1 for _ in run) == 948
    # Of the generated ideals digest:0-299 (without 4), these four alone get
    # other race entries when the corner is sought at the pair: each keeps
    # its leading monomials, and its entries are those it gets when the
    # corner is sought only at a recruit or past the corner, cut at the
    # corner N (terms above N dropped, content divided out).
    runs, corners = [], []
    for s in (102, 103, 160, 245):
        form, _ = random_case(random.Random(f"digest:{s}"))
        layout, entries = standard_basis._race(
            GeneratorSet(tuple(form.components), MonomialOrder.local_order(form.nvars))
        )
        lms = [layout.unpack(e[0]) for e in standard_basis._minimalize(entries, layout)]
        runs_of_lms = standard_basis._standard_runs(lms, layout.nvars)
        corner = max(sum(prefix) + top for prefix, top in runs_of_lms)
        assert all(max(e[-1]) >> layout.shift <= corner for e in entries)
        runs.append((layout, entries))
        corners.append(corner)
    assert corners == [9, 7, 6, 8]
    assert (
        _entries_digest(runs)
        == "af9b2cfd532d495d4c38b989af9bbfb82e5b018e01b7650ed479a0099cc31f4a"
    )


def _conservation_problems(count):
    """The first ``count`` problems of the benchmark's conservation workload."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    return [
        workloads.conservation_problem(workloads.case_rng("conservation", i), 4)
        for i in range(count)
    ]


def test_global_staircase_against_sympy_oracle(monkeypatch):
    # The index pipeline and buchberger_global share one run, so comparing
    # them checks that run against itself.  Here its staircase under
    # degrevlex and deglex must be that of the leading monomials of sympy's
    # reduced Groebner basis, on the first 100 conservation deformations.
    # And no global run walks the staircase for a highest corner: every
    # ecart is zero, which is what makes the weak normal form Buchberger's
    # reduction, so each _staircase call walks once, for its quotient.
    walks = []
    standard_runs = standard_basis._standard_runs

    def counted(lms, n):
        walks.append(n)
        return standard_runs(lms, n)

    monkeypatch.setattr(standard_basis, "_standard_runs", counted)
    checked = 0
    for problem in _conservation_problems(100):
        n = len(problem["weights"])
        polys = [Polynomial(n, terms) for terms in problem["deformed"]]
        for kind, name in (("degrevlex", "grevlex"), ("deglex", "grlex")):
            order = MonomialOrder(kind, n)
            lms = [g.leading_monomial(order) for g in sympy_reduced_groebner(polys, name)]
            expected = standard_basis._quotient_runs(lms, n)
            walks.clear()
            assert _staircase(GeneratorSet(tuple(polys), order)) == expected
            assert len(walks) == 1
            checked += 1
    assert checked == 200
    # The count does see a corner walk where one happens: the local race on
    # digest:102 seeks its corner at a pair.
    form, _ = random_case(random.Random("digest:102"))
    walks.clear()
    _staircase(GeneratorSet(tuple(form.components), MonomialOrder.local_order(form.nvars)))
    assert len(walks) > 1


def _weight_counts(monomials, action):
    """The twisted per-weight counts of a list of standard monomials."""
    m, twist = action.group.order, action.volume_weight()
    counts = [0] * m
    for mon in monomials:
        counts[(action.weight_of(mon) + twist) % m] += 1
    return tuple(counts)


def test_index_pipeline_agrees_with_the_public_route():
    # The index pipeline reads a quotient off leading monomials alone: the
    # race of mora_local or the pair loop of buchberger_global, which divides
    # leading terms only, and the staircase as runs.  Its dimension and its
    # per-weight counts must be those of quotient_basis over the public
    # engines' bases, under each form's action and under probe actions whose
    # last weight has periods m, m/2 and 1 (the runs are counted residue by
    # residue), through the index helpers under the default orders and
    # through _staircase under negdeglex and deglex.
    probes = [(7, (3, 1, 2)), (6, (5, 1, 4)), (4, (1, 3, 0))]
    local = []
    for s in range(40):
        local.append(random_case(random.Random(s), max_order=6, max_vars=3, max_degree=6))
    corpus = local + [random_case(random.Random(339))]
    hard = ((1, (0, 0, 0)), (1, (0, 0, 0)), (3, (2, 2, 1)))
    for texts, (m, weights) in zip(HARD_IDEALS, hard):
        form = OneForm(tuple(P(t, 3) for t in texts))
        local.append((form, DiagonalAction(CyclicGroup(m), weights)))
    rng = random.Random("verify-mix:101")
    form, action = random_case(rng, max_order=6, max_vars=3, max_degree=5)
    local.append((equivariant_pullback(form, random_shear(rng, action, max_degree=3), action), action))
    deformed = []
    for problem in _conservation_problems(100):
        n = len(problem["weights"])
        action = DiagonalAction(CyclicGroup(problem["order"]), tuple(problem["weights"]))
        form, moved = (
            OneForm(tuple(Polynomial(n, terms) for terms in problem[key]))
            for key in ("form", "deformed")
        )
        local.append((form, action))
        deformed.append((moved, action))
    checked = 0
    for pipeline, engine, kind, cases in (
        (_origin_quotient, mora_local, "negdegrevlex", local),
        (_global_quotient, buchberger_global, "degrevlex", deformed),
        (_staircase, mora_local, "negdeglex", corpus),
        (_staircase, buchberger_global, "deglex", deformed),
    ):
        for form, action in cases:
            n = form.nvars
            gens = GeneratorSet(form.components, MonomialOrder(kind, n))
            runs = _staircase(gens) if pipeline is _staircase else pipeline(form)
            monomials = quotient_basis(engine(gens)).monomials
            assert _dimension(runs) == len(monomials)
            for m, weights in probes:
                probe = DiagonalAction(CyclicGroup(m), weights[:n])
                assert _character_of_quotient(runs, probe).coefficients == _weight_counts(
                    monomials, probe
                )
            expected = _weight_counts(monomials, action)
            assert _character_of_quotient(runs, action).coefficients == expected
            checked += 1
    assert checked == 385
    # The typed errors and their messages are those of the public route.
    trivial = DiagonalAction(CyclicGroup(1), (0, 0))

    def form_of(*texts):
        return OneForm(tuple(P(t, 2) for t in texts))

    for texts, variable in (
        (("z1*z2", "z1*z2"), 1),
        (("z1^2", "z1*z2"), 2),
        (("z1*z2 + z1^3", "z2^2*z1"), 2),
    ):
        message = f"the zero at the origin is not isolated: no pure power of z{variable} in the leading ideal"
        for index in (hom_index, index_report):
            with pytest.raises(NonIsolatedError) as caught:
                index(form_of(*texts), trivial)
            assert str(caught.value) == message
            assert caught.value.__cause__.variable == variable - 1
    for texts, variable in ((("z1*z2", "z2^2 - z2"), 1), (("z1^2 - z1", "z1*z2"), 2)):
        message = f"the affine zero set is not finite: no pure power of z{variable} in the leading ideal"
        for check in (
            lambda d: global_index_character(d, trivial),
            lambda d: conservation_check(form_of("z1^2", "z2^2"), d, trivial),
        ):
            with pytest.raises(GloballyNonZeroDimensionalError) as caught:
                check(form_of(*texts))
            assert str(caught.value) == message
            assert caught.value.__cause__.variable == variable - 1


def test_pair_update_against_quadratic_oracle():
    # _update_pairs finds the kept new pairs in one pass over the minimal new
    # lcms; the oracle scans every pair of new pairs.  Seeded insert
    # sequences under the four order kinds, with and without the lift's t,
    # in 1-4 variables with exponents 0-3, so that equal lcms and coprime
    # pairs are common.  Pairs leave the queue between inserts, as in the
    # pair loop.  After every insert the live elements, the pending pairs
    # and the queue (the heap's list itself) must be equal.
    rng = random.Random(2002)
    inserts = equal_lcms = coprime = 0
    for kind in ("degrevlex", "deglex", "negdegrevlex", "negdeglex"):
        for lift in (False, True):
            for n in range(1, 5):
                layout = standard_basis._layout(kind, n, lift)
                for _ in range(30):
                    lms = []
                    states = [([], {}, []), ([], {}, [])]
                    for _ in range(rng.randint(1, 14)):
                        mon = layout.pack(tuple(rng.randint(0, 3) for _ in range(n + lift)))
                        lcms = [layout.lcm(lms[i], mon) for i in states[0][0]]
                        equal_lcms += len(lcms) - len(set(lcms))
                        coprime += sum(lms[i] + mon == lcm for i, lcm in zip(states[0][0], lcms))
                        lms.append(mon)
                        for update, (live, pending, queue) in zip(
                            (standard_basis._update_pairs, quadratic_update_pairs), states
                        ):
                            update(lms, live, pending, queue, layout)
                        assert states[0] == states[1], (kind, lift, n, lms)
                        inserts += 1
                        while states[0][2] and rng.random() < 0.4:
                            for _, pending, queue in states:
                                _, _, i, j = heappop(queue)
                                pending.pop((i, j), None)
    assert (inserts, equal_lcms, coprime) == (7121, 2941, 2448)


def test_lift_basis_lies_in_its_ideal():
    # The lift returns its live elements dehomogenized, tails unreduced.  On
    # the small ideals of the pinned local corpus every element lies in its
    # ideal and the leading ideal is the one mora_local finds.  The mu=96
    # and mu=89 ideals, which the lift wins, are past the truncation oracle's
    # reach: there every generator reduces to zero against the lift's basis.
    checked = 0
    for s in range(40):
        gens = random_case(random.Random(s), max_order=6, max_vars=3, max_degree=6)[0].components
        ideal = GeneratorSet(tuple(gens), MonomialOrder.local_order(gens[0].nvars))
        lifted = _homogenized_local(ideal)
        bound = 2 + max(map(sum, quotient_basis(lifted).monomials))
        if bound > 9:
            continue
        assert set(lifted.leading_monomials()) == set(mora_local(ideal).leading_monomials())
        dimension = truncated_quotient_dimension(list(gens), bound)
        for g in lifted.elements:
            assert truncated_quotient_dimension(list(gens) + [g], bound) == dimension
        checked += 1
    assert checked == 34
    for texts in HARD_IDEALS[1:]:
        gens = local_gens(texts, 3)
        basis = mora_local(gens)
        assert basis.elements == _homogenized_local(gens).elements
        for g in gens.generators:
            assert normal_form(g, basis).is_zero()


def test_public_helpers_are_pinned():
    # Exact outputs of the public reduction helpers on fixed inputs, with
    # fractional and negative leading coefficients under both kinds of order.
    glob = MonomialOrder.global_order(2)
    loc = MonomialOrder.local_order(2)
    f = P("-2/3*z1^2*z2 + 5*z2^3 - 1/7", 2)
    g = P("3/4*z1*z2^2 - z1 + 2/5", 2)
    u = P("-3/2*z1 + z1^2*z2 - 4/5*z2^3", 2)
    v = P("4*z2 - 1/3*z1*z2^2 + 7/2*z1^2", 2)
    local_basis = [P("-2/3*z1^3 + z2^4", 2), P("5/2*z2^3 - z1^4*z2", 2)]
    global_basis = [P("-2/3*z1^2 + z2", 2), P("5/2*z2^2 - z1 + 1/3", 2)]
    outputs = {
        "s global": s_polynomial(f, g, glob),
        "s global swapped": s_polynomial(g, f, glob),
        "s local": s_polynomial(u, v, loc),
        "mora": mora_normal_form(P("1/3*z1^3 - 2*z1^4*z2 + z1^2*z2^2 + z2^5", 2), local_basis, loc),
        "mora to zero": mora_normal_form(
            P("z1^2*z2 - 3/2*z2^4", 2), [P("-2/3*z1^2 + z2^3", 2)], loc
        ),
        "global": global_normal_form(P("-5/3*z1^4 + z1*z2^3 - 1/2", 2), global_basis, glob),
        "normal global": normal_form(
            P("7/3*z1^3*z2 - z2^2", 2), buchberger_global(GeneratorSet(tuple(global_basis), glob))
        ),
        "normal local": normal_form(
            P("2/5*z2^3 - 3*z1*z2^4 + z1^5 + 7*z1^2*z2^2", 2), mora_local(GeneratorSet(tuple(local_basis), loc))
        ),
    }
    for name, p in outputs.items():
        assert all(type(c) is Fraction for c in p.terms.values()), name
    assert {name: format_polynomial(p) for name, p in outputs.items()} == {
        "s global": "-15/2*z2^4 + 4/3*z1^2 - 8/15*z1 + 3/14*z2",
        "s global swapped": "15/2*z2^4 - 4/3*z1^2 + 8/15*z1 - 3/14*z2",
        "s local": "-7/12*z1^2*z2^2 + 8/15*z2^4 - 7/8*z1^3",
        "mora": "-4*z1^4*z2 + 2*z2^5 + 2*z1^2*z2^2 + z2^4",
        "mora to zero": "0",
        "global": "-2/15*z1*z2 - 63/50*z1 - 2/25",
        "normal global": "-13/15*z1 + 21/10*z2 + 2/15",
        "normal local": "25*z1^5 + 4*z1^4*z2 - 75*z1*z2^4 + 175*z1^2*z2^2",
    }
    # Where no reduction step runs, the input comes back as it is.
    for p in (P("-3/2*z1 + z2^2", 2), P("1/3*z1*z2", 2), Polynomial.zero(2)):
        assert mora_normal_form(p, local_basis, loc) is p
    # Generators enter the engines as coprime integer terms.
    assert _tuple_terms(P("-2/3*z1^2 + 4/9*z2 - 8", 2)) == {(2, 0): -3, (0, 1): 2, (0, 0): -36}
    assert _tuple_terms(P("-z1 + 2*z2", 2)) == {(1, 0): -1, (0, 1): 2}
    assert _tuple_terms(Polynomial.zero(2)) == {}
    assert global_normal_form(P("-1/2*z1 + 3", 2), global_basis, glob) == P("-1/2*z1 + 3", 2)


def _tuple_lift_key(local):
    """The lift's order on tuples (z, t): total degree, then t, then ``local`` past its degree."""
    return lambda mon: (sum(mon), mon[-1], *local(mon[:-1])[1:])


def test_packed_monomials_match_exponent_tuples():
    # Every layout the engines pack with (the four order kinds and the lift
    # of each local kind, in 1 to 4 variables) against the tuple
    # definitions: the packed key orders as the tuple key does, the
    # guard-bit test is mon_divides, lcm and degree agree, and unpack
    # inverts pack (dropping the lift's t).  Exponents reach 0 and
    # 2^31 - 1, the largest a field holds, at degrees below 2^31.
    rng = random.Random(1907)
    top = 2**31 - 1

    def draw(width):
        mon = [rng.choice((0, 0, 1, 2, rng.randint(3, 9))) for _ in range(width)]
        if rng.random() < 0.3:
            i = rng.randrange(width)
            mon[i] = top - (sum(mon) - mon[i])
        return tuple(mon)

    layouts = []
    for n in range(1, 5):
        for kind in ("degrevlex", "deglex", "negdegrevlex", "negdeglex"):
            order = MonomialOrder(kind, n)
            layouts.append((standard_basis._layout(kind, n), order.key, n))
            if order.is_local:
                lift = standard_basis._layout(kind, n, True)
                layouts.append((lift, _tuple_lift_key(order.key), n + 1))
    for layout, key, width in layouts:
        mons = [(0,) * width, (top,) + (0,) * (width - 1), (0,) * (width - 1) + (top,)]
        mons += [draw(width) for _ in range(40)]
        packed = [layout.pack(mon) for mon in mons]
        for a, pa in zip(mons, packed):
            assert pa >> layout.shift == sum(a)
            assert layout.unpack(pa) == a[: layout.nvars]
            for b, pb in zip(mons, packed):
                assert (layout.key(pa) < layout.key(pb)) == (key(a) < key(b))
                assert (not (pb - pa) & layout.guard) == mon_divides(a, b)
                assert layout.lcm(pa, pb) == layout.pack(tuple(map(max, a, b)))


def test_degrees_beyond_a_field_are_input_errors():
    # One typed error, raised where generators are packed, before a Mora
    # step that would reach degree 2^31, and before such an S-polynomial;
    # a generator of degree 2^31 - 1 is accepted.
    limit = 2**31
    glob, loc = MonomialOrder.global_order(2), MonomialOrder.local_order(2)
    over, under = P(f"z1^{limit}", 2), P(f"z1^{limit - 1}", 2)
    halves = (f"z1^{limit // 2}*z2", f"z1*z2^{limit // 2}")
    local_z2 = mora_local(GeneratorSet((P("z2", 2),), loc))
    global_z2 = buchberger_global(GeneratorSet((P("z2", 2),), glob))
    refusals = [
        lambda: mora_local(GeneratorSet((over,), loc)),
        lambda: buchberger_global(GeneratorSet((over, P("z2", 2)), glob)),
        lambda: normal_form(over, local_z2),
        lambda: normal_form(over, global_z2),
        lambda: s_polynomial(over, P("z1", 2), glob),
        # A Mora step by z1 + z1^2 (ecart 1) at z1^(2^31 - 1).
        lambda: mora_normal_form(under, [P("z1 + z1^2", 2)], loc),
        # lcm z1^(2^30)*z2^(2^30), from generators of degree 2^30 + 1.
        lambda: buchberger_global(global_gens(halves, 2)),
        lambda: mora_local(local_gens(halves, 2)),
        lambda: s_polynomial(P(halves[0], 2), P(halves[1], 2), glob),
    ]
    for refuse in refusals:
        with pytest.raises(InputError, match=f"degree {limit} or more"):
            refuse()
    assert mora_local(GeneratorSet((under,), loc)).leading_monomials() == ((limit - 1, 0),)
    accepted = (under, P("z2", 2))
    assert buchberger_global(GeneratorSet(accepted, glob)).elements == accepted
    assert normal_form(under, local_z2) is under
    assert normal_form(under, global_z2) == under
    assert s_polynomial(under, P("z1", 2), glob).is_zero()


def test_fuzz_local_routes_and_indices():
    # Generated cases, seeds and sizes fixed in advance: the direct run
    # alone, the lift alone and mora_local find one per-weight character,
    # which is hom_index's, and the truncation oracle's local dimension;
    # index_report agrees with hom_index and radial_index.  The direct run
    # alone gets the race's first turn of steps, and the oracle runs where
    # its bound (two above the top standard degree) is at most 12: on seed
    # 11 (mu = 38, standard monomials up to degree 14) the oracle takes
    # about 20 s, and direct Mora alone stalls after about 850 steps, each
    # later step taking seconds, while mora_local's lift finishes in
    # milliseconds.
    unfinished, unchecked = [], []
    for seed in range(24):
        form, action = random_case(
            random.Random(f"fuzz:{seed}"), max_order=4, max_vars=3, max_degree=5
        )
        gens = GeneratorSet(tuple(form.components), MonomialOrder.local_order(form.nvars))
        hom = hom_index(form, action)
        m, twist = action.group.order, action.volume_weight()
        run = standard_basis._direct_run(gens)
        direct = standard_basis._turn(run, standard_basis._FIRST_SLICE)
        if direct is None:
            unfinished.append(seed)
        else:
            direct = _local_basis(gens.order, *direct)
        dimensions = set()
        for basis in (direct, _homogenized_local(gens), mora_local(gens)):
            if basis is None:
                continue
            monomials = quotient_basis(basis).monomials
            dimensions.add(len(monomials))
            character = [0] * m
            for mon in monomials:
                character[(action.weight_of(mon) + twist) % m] += 1
            assert tuple(character) == hom.coefficients, seed
        assert len(dimensions) == 1, seed
        if 2 + max(map(sum, monomials)) <= 12:
            assert dimensions == {local_quotient_dimension(list(form.components))}, seed
        else:
            unchecked.append(seed)
        report = index_report(form, action)
        assert report.hom == hom
        assert report.radial == radial_index(form, action)
        assert report.reduced_radial == hom
    assert unfinished == unchecked == [11]
