"""Homological and radial indices of invariant 1-forms at the origin."""

import itertools
import random
from fractions import Fraction

import pytest

from eqidx.equiv_index import (
    DiagonalAction,
    OneForm,
    StratumData,
    _character_of_quotient,
    _orbit_counts,
    check_invariance,
    equivariant_pullback,
    exterior_derivative,
    global_index_character,
    hom_index,
    index_report,
    isotropy_subgroup,
    local_index_at_point,
    radial_index,
    reduced_radial_index,
    st_sum,
)
from eqidx.errors import (
    DimensionMismatchError,
    GloballyNonZeroDimensionalError,
    GroupMismatchError,
    NonIsolatedError,
    NotEquivariantMapError,
    NotInvariantError,
    SingularLinearPartError,
)
from eqidx.generator import random_case
from eqidx.poly import MonomialOrder, parse_polynomial
from eqidx.rep_rings import (
    BurnsideElement,
    CyclicGroup,
    RepRingElement,
    Subgroup,
    divisors,
    restrict_rep,
)
from eqidx.standard_basis import GeneratorSet, _quotient_runs, mora_local, quotient_basis
from oracles import character_matches_eigenvalues, local_quotient_dimension


def make_case(m, weights, texts):
    n = len(weights)
    form = OneForm(tuple(parse_polynomial(t, n) for t in texts))
    action = DiagonalAction(CyclicGroup(m), tuple(weights))
    return form, action


def rep(m, coeffs):
    return RepRingElement(CyclicGroup(m), tuple(coeffs))


def burn(m, coeffs):
    return BurnsideElement(CyclicGroup(m), dict(coeffs))


def test_action_and_form_validation():
    G = CyclicGroup(4)
    action = DiagonalAction(G, (5, -1, 2))
    assert action.weights == (1, 3, 2)
    assert action.nvars == 3
    assert action.volume_weight() == 2
    assert action.fixed_variables(1) == (0, 1, 2)
    assert action.fixed_variables(2) == (2,)
    assert action.fixed_variables(4) == ()
    sub = action.subgroup_action(2)
    assert sub.group == CyclicGroup(2)
    assert sub.weights == (1, 1, 0)
    with pytest.raises(ValueError):
        DiagonalAction(G, ())
    with pytest.raises(ValueError):
        OneForm(())
    with pytest.raises(DimensionMismatchError):
        OneForm((parse_polynomial("z1", 1), parse_polynomial("z1 + z2", 2)))
    assert OneForm((parse_polynomial("z1", 1),)).vanishes_at_origin()
    assert not OneForm((parse_polynomial("z1 + 1", 1),)).vanishes_at_origin()


def test_exterior_derivative():
    f = parse_polynomial("z1^3 + z1*z2^2 - 4", 2)
    form = exterior_derivative(f)
    assert form.components[0] == parse_polynomial("3*z1^2 + z2^2", 2)
    assert form.components[1] == parse_polynomial("2*z1*z2", 2)


def test_check_invariance():
    form, action = make_case(2, (1,), ("z1^3",))
    assert check_invariance(form, action)
    form, action = make_case(4, (1, 2), ("z1^3", "z2"))
    assert check_invariance(form, action)
    # z1 dz1 has weight 1 + 1 != 0 mod 3, so it cannot be invariant
    form, action = make_case(3, (1,), ("z1",))
    assert not check_invariance(form, action)
    with pytest.raises(NotInvariantError):
        hom_index(form, action)
    with pytest.raises(NotInvariantError):
        index_report(form, action)


def test_hom_index_values():
    cases = [
        (1, (0,), ("z1^2",), (2,)),
        (2, (1,), ("z1^3",), (1, 2)),
        (2, (1, 1), ("z2", "z1"), (1, 0)),
        (2, (1, 0), ("z1", "z2^3"), (0, 3)),
        (3, (1,), ("z1^2",), (0, 1, 1)),
        (3, (1, 2), ("z1^2", "z2^2"), (2, 1, 1)),
        (4, (2,), ("z1",), (0, 0, 1, 0)),
        (4, (1, 2), ("z1^3", "z2"), (1, 1, 0, 1)),
        (4, (1, 3), ("z2", "z1"), (1, 0, 0, 0)),
    ]
    for m, weights, texts, expected in cases:
        form, action = make_case(m, weights, texts)
        assert hom_index(form, action) == rep(m, expected)


def test_hom_index_matches_eigenvalue_traces():
    cases = [
        (2, (1,), ("z1^3",)),
        (2, (1, 0), ("z1", "z2^3")),
        (3, (1, 2), ("z1^2", "z2^2")),
        (4, (1, 2), ("z1^3", "z2")),
        (4, (2,), ("z1",)),
    ]
    for m, weights, texts in cases:
        form, action = make_case(m, weights, texts)
        qb = quotient_basis(
            mora_local(
                GeneratorSet(form.components, MonomialOrder.local_order(form.nvars))
            )
        )
        coeffs = hom_index(form, action).coefficients
        twist = sum(weights)
        assert character_matches_eigenvalues(coeffs, qb.monomials, weights, twist)


def test_radial_index_values():
    cases = [
        (2, (1,), ("z1^3",), {1: 2, 2: -1}),
        (2, (1, 1), ("z2", "z1"), {2: 1}),
        (2, (1, 0), ("z1", "z2^3"), {1: 3, 2: -3}),
        (4, (2,), ("z1",), {2: 1, 4: -1}),
        (4, (1, 2), ("z1^3", "z2"), {1: 1, 2: -1, 4: 1}),
    ]
    for m, weights, texts, expected in cases:
        form, action = make_case(m, weights, texts)
        assert radial_index(form, action) == burn(m, expected)
        assert reduced_radial_index(form, action) == hom_index(form, action)


def test_index_report_strata():
    form, action = make_case(2, (1,), ("z1^3",))
    report = index_report(form, action)
    assert report.strata[1] == StratumData((0,), 3)
    assert report.strata[2] == StratumData((), 1)
    form, action = make_case(2, (1, 0), ("z1", "z2^3"))
    report = index_report(form, action)
    assert report.strata[1] == StratumData((0, 1), 3)
    assert report.strata[2] == StratumData((1,), 3)


def test_index_report_consistency_random():
    rng = random.Random(137)
    for _ in range(12):
        form, action = random_case(rng)
        report = index_report(form, action)
        m = action.group.order
        assert report.hom == report.reduced_radial
        assert report.hom == hom_index(form, action)
        assert report.radial == radial_index(form, action)
        assert all(c >= 0 for c in report.hom.coefficients)
        assert sorted(report.strata) == divisors(m)
        # the radial coefficients must reproduce every stratum count
        for a in divisors(m):
            data = report.strata[a]
            assert data.fixed_variables == action.fixed_variables(a)
            covered = sum(
                c * (m // b)
                for b, c in report.radial.coefficients.items()
                if b % a == 0
            )
            sign = (-1) ** (action.nvars + len(data.fixed_variables))
            assert covered == sign * data.milnor_number
        assert report.radial.virtual_point_count() == report.strata[1].milnor_number
        # every stratum's Milnor number against the truncation oracle
        for data in report.strata.values():
            keep = data.fixed_variables
            restricted = [form.components[i].restrict_to(keep) for i in keep]
            expected = local_quotient_dimension(restricted) if keep else 1
            assert data.milnor_number == expected


def test_hom_restricts_to_subgroup_index():
    cases = [
        (4, (1, 2), ("z1^3", "z2")),
        (2, (1, 0), ("z1", "z2^3")),
        (6, (1, 5), ("z1^5", "z2^5")),
    ]
    for m, weights, texts in cases:
        form, action = make_case(m, weights, texts)
        full = hom_index(form, action)
        for a in divisors(m):
            sub = Subgroup(action.group, a)
            assert restrict_rep(full, sub) == hom_index(form, action.subgroup_action(a))


def test_character_agrees_for_both_local_orders():
    cases = [
        (2, (1, 1), ("z1^3 + z1*z2^2", "z2^3 - z1^2*z2")),
        (3, (1, 2), ("z1^2", "z2^2")),
        (4, (1, 2), ("z1^3", "z2")),
    ]
    for m, weights, texts in cases:
        form, action = make_case(m, weights, texts)
        chars = []
        for kind in ("negdegrevlex", "negdeglex"):
            order = MonomialOrder(kind, form.nvars)
            lms = mora_local(GeneratorSet(form.components, order)).leading_monomials()
            chars.append(_character_of_quotient(_quotient_runs(lms, form.nvars), action))
        assert chars[0] == chars[1]
        assert chars[0] == hom_index(form, action)


def test_nonfixed_components_vanish_on_fixed_subspace():
    rng = random.Random(149)
    for _ in range(15):
        form, action = random_case(rng)
        for a in divisors(action.group.order):
            keep = action.fixed_variables(a)
            if not keep:
                continue
            for i in range(form.nvars):
                if i not in keep:
                    assert form.components[i].restrict_to(keep).is_zero()


def test_direct_sum_multiplies_indices():
    form_a, action_a = make_case(3, (1,), ("z1^2",))
    form_b, action_b = make_case(3, (2,), ("z1^2",))
    form, action = st_sum(form_a, action_a, form_b, action_b)
    assert action.weights == (1, 2)
    assert form.components == (
        parse_polynomial("z1^2", 2),
        parse_polynomial("z2^2", 2),
    )
    report = index_report(form, action)
    assert report.hom == rep(3, (2, 1, 1))
    assert report.hom == hom_index(form_a, action_a) * hom_index(form_b, action_b)
    assert report.radial == radial_index(form_a, action_a) * radial_index(
        form_b, action_b
    )
    with pytest.raises(GroupMismatchError):
        st_sum(form_a, action_a, *make_case(2, (1,), ("z1^3",)))


def test_equivariant_pullback_examples():
    form, action = make_case(2, (1,), ("z1^3",))
    same = equivariant_pullback(form, [parse_polynomial("z1", 1)], action)
    assert same.components == form.components
    doubled = equivariant_pullback(form, [parse_polynomial("2*z1", 1)], action)
    assert doubled.components == (parse_polynomial("16*z1^3", 1),)
    assert hom_index(doubled, action) == hom_index(form, action)

    form, action = make_case(2, (1, 1), ("z1^3", "z2^3"))
    shear = [parse_polynomial("z1 + z2^3", 2), parse_polynomial("z2", 2)]
    pulled = equivariant_pullback(form, shear, action)
    before = index_report(form, action)
    after = index_report(pulled, action)
    assert after.hom == before.hom
    assert after.radial == before.radial


def test_equivariant_pullback_rejections():
    form, action = make_case(2, (1, 0), ("z1", "z2^3"))
    with pytest.raises(NotEquivariantMapError):
        equivariant_pullback(
            form, [parse_polynomial("z2", 2), parse_polynomial("z1", 2)], action
        )
    form1, action1 = make_case(1, (0,), ("z1^2",))
    with pytest.raises(NotEquivariantMapError):
        equivariant_pullback(form1, [parse_polynomial("z1 + 1", 1)], action1)
    form2, action2 = make_case(1, (0, 0), ("z1^2", "z2^2"))
    with pytest.raises(SingularLinearPartError):
        equivariant_pullback(
            form2,
            [parse_polynomial("z1 + z2", 2), parse_polynomial("z1 + z2", 2)],
            action2,
        )
    with pytest.raises(DimensionMismatchError):
        equivariant_pullback(form2, [parse_polynomial("z1", 1)], action2)


def test_isotropy_subgroup():
    action = DiagonalAction(CyclicGroup(4), (2, 1))
    assert isotropy_subgroup((0, 0), action).order == 4
    assert isotropy_subgroup((1, 0), action).order == 2
    assert isotropy_subgroup((1, 1), action).order == 1
    assert isotropy_subgroup((0, Fraction(1, 2)), action).order == 1


def _fixing_elements(point, action):
    """The order of the isotropy subgroup by counting the elements that fix the point."""
    m = action.group.order
    support = [i for i, v in enumerate(point) if Fraction(v) != 0]
    return sum(1 for t in range(m) if all((t * action.weights[i]) % m == 0 for i in support))


def test_isotropy_subgroup_counts_the_fixing_elements():
    # the gcd formula against a scan of the whole group: every order up to
    # 12, every weight vector in one and two variables, every support, and
    # a few actions at the largest order a problem may have
    actions = [
        DiagonalAction(CyclicGroup(m), weights)
        for m in range(1, 13)
        for n in (1, 2)
        for weights in itertools.product(range(m), repeat=n)
    ]
    actions += [
        DiagonalAction(CyclicGroup(10_000), weights)
        for weights in ((0,), (1,), (2500, 4000), (6, 15), (9999, 5000), (0, 625))
    ]
    for action in actions:
        for support in itertools.product((0, 1), repeat=action.nvars):
            point = tuple(Fraction(-c, 3) for c in support)
            expected = _fixing_elements(point, action)
            assert isotropy_subgroup(point, action).order == expected, (action, point)
    with pytest.raises(DimensionMismatchError):
        isotropy_subgroup((1, 0, 0), DiagonalAction(CyclicGroup(4), (2, 1)))


def test_stratum_milnor_numbers_are_at_most_mu():
    # The restricted local algebra on a fixed subspace is the full one modulo
    # the variables outside it, so its dimension is at most mu; this is why
    # index_report never finds a restriction without an isolated zero.
    for seed in range(200):
        form, action = random_case(random.Random(seed))
        strata = index_report(form, action).strata
        mu = strata[1].milnor_number
        assert all(data.milnor_number <= mu for data in strata.values()), seed


def test_local_index_at_point():
    form, action = make_case(2, (1,), ("z1^3 - z1",))
    at_one = local_index_at_point(form, (1,), action)
    assert at_one == rep(1, (1,))
    at_zero = local_index_at_point(form, (0,), action)
    assert at_zero == rep(2, (0, 1))
    at_minus = local_index_at_point(form, (-1,), action)
    assert at_minus == rep(1, (1,))


def test_global_index_character():
    form, action = make_case(2, (1,), ("z1^3",))
    assert global_index_character(form, action) == rep(2, (1, 2))
    deformed, _ = make_case(2, (1,), ("z1^3 - z1",))
    assert global_index_character(deformed, action) == rep(2, (1, 2))
    bad, bad_action = make_case(1, (0, 0), ("z1^2", "z1*z2"))
    with pytest.raises(GloballyNonZeroDimensionalError):
        global_index_character(bad, bad_action)


def test_non_isolated_zero_is_rejected():
    form, action = make_case(1, (0, 0), ("z1*z2", "z1*z2"))
    with pytest.raises(NonIsolatedError):
        hom_index(form, action)
    with pytest.raises(NonIsolatedError):
        index_report(form, action)


def test_nonvanishing_form_has_zero_character_but_no_report():
    form, action = make_case(1, (0,), ("z1 + 1",))
    assert hom_index(form, action) == rep(1, (0,))
    with pytest.raises(NonIsolatedError):
        index_report(form, action)
    with pytest.raises(NonIsolatedError):
        radial_index(form, action)


def test_inconsistent_strata_are_detected():
    strata = {1: StratumData((0,), 2), 2: StratumData((), 1)}
    with pytest.raises(NonIsolatedError):
        _orbit_counts(strata, 2)
    good = {1: StratumData((0,), 3), 2: StratumData((), 1)}
    assert _orbit_counts(good, 2) == {1: -2, 2: 1}
