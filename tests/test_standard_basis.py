"""Global Groebner bases, local standard bases, and quotient extraction."""

import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from eqidx import standard_basis
from eqidx.equiv_index import DiagonalAction, OneForm, equivariant_pullback, index_report
from eqidx.errors import NonZeroDimensionalError
from eqidx.generator import random_case, random_shear
from eqidx.poly import (
    MonomialOrder,
    Polynomial,
    format_polynomial,
    mon_divides,
    parse_polynomial,
)
from eqidx.rep_rings import CyclicGroup
from eqidx.standard_basis import (
    GeneratorSet,
    ReducedBasis,
    _homogenize,
    _homogenized_local,
    _primitive,
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
    local_quotient_dimension,
    milnor_product,
    sympy_normal_form,
    sympy_reduced_groebner,
    truncated_quotient_dimension,
)


def P(text, n):
    return parse_polynomial(text, n)


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


def test_buchberger_against_sympy():
    # Every element, not only the leading monomials: the pair criteria may
    # drop only pairs that reduce to zero, and the reduced basis is unique.
    # Homogenized generators, as the lift builds them, give the many lcm
    # ties that exercise the criteria hardest.
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
        ours = buchberger_global(GeneratorSet(tuple(polys), MonomialOrder.global_order(n)))
        assert len(set(ours.elements)) == len(ours.elements)
        assert set(ours.elements) == sympy_reduced_groebner(polys)


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
        for _ in range(3):
            factor, rest = _random_polys(rng, n, 2, 4)
            p = rng.choice(gens) * factor + rest * rest
            ours = global_normal_form(p, basis, order)
            assert ours == sympy_normal_form(p, basis)
            nonzero += not ours.is_zero()
    # 39 of the 48 remainders are nonzero.
    assert nonzero == 39


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
    prim = _primitive(q)
    assert prim == P("z1^2 - 6*z2", 2)
    assert _primitive(prim) == prim
    assert _primitive(Polynomial.zero(2)).is_zero()
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

    def counted(gens, clock):
        lifts.append(gens)
        basis = yield from direct_run(gens, clock)
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


def test_all_local_engines_agree(monkeypatch):
    # mora_local returns the lift's basis only when the lift finishes
    # first; count those, so that this stays a comparison of two routes.
    lifts = _counted_lifts(monkeypatch)
    rng = random.Random(977)
    done = 0
    while done < 15:
        form, _action = random_case(rng, max_order=4, max_vars=3, max_degree=5)
        n = form.nvars
        gens = GeneratorSet(tuple(form.components), MonomialOrder.local_order(n))
        straight = mora_local(gens)
        lifted = _homogenized_local(gens)
        assert set(straight.leading_monomials()) == set(lifted.leading_monomials())
        oracle = local_quotient_dimension(list(form.components))
        assert quotient_basis(straight).dimension == oracle
        assert quotient_basis(lifted).dimension == oracle
        done += 1
    assert lifts == []


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
        "primitive": _primitive(P("-2/3*z1^2 + 4/9*z2 - 8", 2)),
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
        "primitive": "-3*z1^2 + 2*z2 - 36",
        "mora": "-4*z1^4*z2 + 2*z2^5 + 2*z1^2*z2^2 + z2^4",
        "mora to zero": "0",
        "global": "-2/15*z1*z2 - 63/50*z1 - 2/25",
        "normal global": "-13/15*z1 + 21/10*z2 + 2/15",
        "normal local": "25*z1^5 + 4*z1^4*z2 - 75*z1*z2^4 + 175*z1^2*z2^2",
    }
    # Where no reduction step runs, the input comes back as it is.
    for p in (P("-3/2*z1 + z2^2", 2), P("1/3*z1*z2", 2), Polynomial.zero(2)):
        assert mora_normal_form(p, local_basis, loc) is p
    primitive = P("-z1 + 2*z2", 2)
    assert _primitive(primitive) is primitive
    assert global_normal_form(P("-1/2*z1 + 3", 2), global_basis, glob) == P("-1/2*z1 + 3", 2)
