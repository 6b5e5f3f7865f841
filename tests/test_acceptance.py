"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every check is exact (integer and rational arithmetic only, tolerance zero).
Run with ``pytest -s`` to see the per-criterion PASS/FAIL lines.
"""

import random
import time
from contextlib import contextmanager

from eqidx.equiv_index import (
    DiagonalAction,
    OneForm,
    _character_of_quotient,
    check_invariance,
    conservation_check,
    equivariant_pullback,
    exterior_derivative,
    hom_index,
    index_report,
    st_sum,
)
from eqidx.generator import random_case, random_invariant_form, random_shear
from eqidx.poly import MonomialOrder, parse_polynomial
from eqidx.rep_rings import (
    BurnsideElement,
    CyclicGroup,
    RepRingElement,
    Subgroup,
    divisors,
    induce,
    integer_determinant,
    reduce_to_rep,
    restrict_rep,
)
from eqidx.standard_basis import GeneratorSet, _quotient_runs, mora_local


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def make_case(m, weights, texts):
    n = len(weights)
    form = OneForm(tuple(parse_polynomial(t, n) for t in texts))
    action = DiagonalAction(CyclicGroup(m), tuple(weights))
    return form, action


HAND_CASES = (
    (1, (0,), ("z1^2",)),
    (2, (1,), ("z1^3",)),
    (2, (1, 1), ("z2", "z1")),
    (2, (1, 0), ("z1", "z2^3")),
    (2, (1, 1), ("z1^3", "z2^3")),
    (2, (1, 1), ("z1^3 + z1*z2^2", "z2^3 - z1^2*z2")),
    (3, (1, 2), ("z1^2", "z2^2")),
    (3, (1, 1, 1), ("z1^2", "z2^2", "z3^2")),
    (4, (2,), ("z1",)),
    (4, (1, 2), ("z1^3", "z2")),
    (4, (1, 3), ("z2", "z1")),
    (4, (1, 1), ("z1^3 + z2^3", "z1^3 - z2^3")),
    (5, (1, 4), ("z1^4", "z2^4")),
    (6, (1, 5), ("z1^5", "z2^5")),
    (6, (2, 3), ("z1^2", "z2")),
)


def test_criterion_1_power_family():
    with criterion(1, "one-variable power family closed form"):
        start = time.perf_counter()
        for m in range(2, 7):
            G = CyclicGroup(m)
            for s in range(1, 4):
                form, action = make_case(m, (1,), (f"z1^{s * m - 1}",))
                closed = s * RepRingElement.regular(G) - RepRingElement.one(G)
                report = index_report(form, action)
                assert report.hom == closed
                assert report.reduced_radial == closed
                assert report.radial == BurnsideElement(G, {1: s, m: -1})
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"power family took {elapsed:.2f}s"


def test_criterion_2_index_coincidence():
    with criterion(2, "homological equals reduced radial"):
        start = time.perf_counter()
        for m, weights, texts in HAND_CASES:
            form, action = make_case(m, weights, texts)
            report = index_report(form, action)
            assert report.hom == report.reduced_radial
        frozen_a, action_a = make_case(2, (1, 0), ("z1", "z2^3"))
        assert hom_index(frozen_a, action_a) == RepRingElement(CyclicGroup(2), (0, 3))
        frozen_b, action_b = make_case(3, (1, 2), ("z1^2", "z2^2"))
        assert hom_index(frozen_b, action_b) == RepRingElement(
            CyclicGroup(3), (2, 1, 1)
        )
        rng = random.Random(20260819)
        for _ in range(50):
            form, action = random_case(rng, max_order=6, max_vars=3, max_degree=6)
            report = index_report(form, action)
            assert report.hom == report.reduced_radial
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"coincidence took {elapsed:.2f}s"


def test_criterion_3_direct_sums():
    with criterion(3, "direct sums multiply indices"):
        rng = random.Random(31415)
        pairs = 0
        while pairs < 10:
            m = rng.randint(1, 6)
            sides = []
            for _ in range(2):
                n = rng.randint(1, 2)
                action = DiagonalAction(
                    CyclicGroup(m), tuple(rng.randrange(m) for _ in range(n))
                )
                form = random_invariant_form(rng, action, max_degree=5)
                sides.append((form, action))
            (form_a, action_a), (form_b, action_b) = sides
            form, action = st_sum(form_a, action_a, form_b, action_b)
            combined = index_report(form, action)
            left = index_report(form_a, action_a)
            right = index_report(form_b, action_b)
            assert combined.hom == left.hom * right.hom
            assert combined.radial == left.radial * right.radial
            assert combined.reduced_radial == left.reduced_radial * right.reduced_radial
            pairs += 1


def test_criterion_4_conservation():
    with criterion(4, "deformation conserves the index"):
        form, action = make_case(2, (1,), ("z1^3",))
        deformed, _ = make_case(2, (1,), ("z1^3 - z1",))
        report = conservation_check(form, deformed, action, points=[("1",)])
        G = CyclicGroup(2)
        assert report.reference == RepRingElement(G, (1, 2))
        assert report.origin == RepRingElement(G, (0, 1))
        assert len(report.orbits) == 1
        assert report.orbits[0].induced == RepRingElement(G, (1, 1))
        assert report.total == report.reference
        assert report.matched

        families = [
            (2, (1,), ("z1^5",), ("z1^5 - z1^3",)),
            (2, (1, 1), ("z1^3", "z2^3"), ("z1^3 - z1", "z2^3 - z2")),
            (3, (1, 2), ("z1^2", "z2^2"), ("z1^2 - z2", "z2^2 - z1")),
            (4, (1, 2), ("z1^3", "z2"), ("z1^3 - z1*z2", "z2")),
            (1, (0,), ("z1^4",), ("z1^4 - z1^2",)),
            (6, (1, 5), ("z1^5", "z2^5"), ("z1^5 - z2", "z2^5 - z1")),
        ]
        for m, weights, texts, dtexts in families:
            form, action = make_case(m, weights, texts)
            deformed, _ = make_case(m, weights, dtexts)
            outcome = conservation_check(form, deformed, action)
            assert outcome.matched and outcome.total == outcome.reference


def test_criterion_5_ring_certificates():
    with criterion(5, "regular character certificates"):
        for m in range(2, 9):
            G = CyclicGroup(m)
            reg = RepRingElement.regular(G)
            assert reg.is_zero_divisor()
            for s in range(1, 5):
                x = s * reg - RepRingElement.one(G)
                det = integer_determinant(x.multiplication_matrix())
                assert abs(det) == s * m - 1
                assert det != 0
                assert not x.is_zero_divisor()


def test_criterion_6_milnor_numbers():
    with criterion(6, "Milnor numbers of product singularities"):
        action = DiagonalAction(CyclicGroup(1), (0, 0))
        for a in range(2, 6):
            for b in range(2, 6):
                f = parse_polynomial(f"z1^{a} + z2^{b}", 2)
                form = exterior_derivative(f)
                index = hom_index(form, action)
                assert index.virtual_dimension() == (a - 1) * (b - 1)


def test_criterion_7_pullback_invariance():
    with criterion(7, "pullback invariance under shears"):
        rng = random.Random(271828)
        nontrivial = 0
        attempts = 0
        while nontrivial < 5:
            attempts += 1
            assert attempts < 80, "not enough nontrivial shears found"
            form, action = random_case(rng, max_order=6, max_vars=3, max_degree=5)
            subs = random_shear(rng, action, max_degree=3)
            if all(len(phi.terms) == 1 for phi in subs):
                continue
            pulled = equivariant_pullback(form, subs, action)
            before = index_report(form, action)
            after = index_report(pulled, action)
            assert after.hom == before.hom
            assert after.radial == before.radial
            assert after.reduced_radial == before.reduced_radial
            nontrivial += 1


def test_criterion_8_structural_properties():
    with criterion(8, "ring and character properties"):
        rng = random.Random(1618)
        # reducing a virtual G-set to its character is a ring homomorphism
        for _ in range(30):
            m = rng.randint(1, 8)
            G = CyclicGroup(m)
            x = BurnsideElement(
                G, {a: rng.randint(-3, 3) for a in divisors(m)}
            )
            y = BurnsideElement(
                G, {a: rng.randint(-3, 3) for a in divisors(m)}
            )
            assert reduce_to_rep(x * y) == reduce_to_rep(x) * reduce_to_rep(y)
            assert reduce_to_rep(x + y) == reduce_to_rep(x) + reduce_to_rep(y)
            assert reduce_to_rep(BurnsideElement.one(G)) == RepRingElement.one(G)
        # induction and restriction are adjoint, coefficient by coefficient
        for m in (2, 3, 4, 6):
            G = CyclicGroup(m)
            for a in divisors(m):
                sub = Subgroup(G, a)
                H = sub.as_group()
                for i in range(a):
                    lifted = induce(sub, RepRingElement.character(H, i))
                    for j in range(m):
                        dropped = restrict_rep(RepRingElement.character(G, j), sub)
                        assert lifted.coefficients[j] == dropped.coefficients[i]
        # the character does not depend on which local order built the quotient
        for m, weights, texts in (
            (2, (1, 1), ("z1^3 + z1*z2^2", "z2^3 - z1^2*z2")),
            (3, (1, 2), ("z1^2", "z2^2")),
            (4, (1, 2), ("z1^3", "z2")),
        ):
            form, action = make_case(m, weights, texts)
            chars = []
            for kind in ("negdegrevlex", "negdeglex"):
                order = MonomialOrder(kind, form.nvars)
                lms = mora_local(GeneratorSet(form.components, order)).leading_monomials()
                chars.append(_character_of_quotient(_quotient_runs(lms, form.nvars), action))
            assert chars[0] == chars[1] == hom_index(form, action)
        # components of non-fixed weight vanish on each fixed subspace
        for _ in range(10):
            form, action = random_case(rng, max_order=6, max_vars=3, max_degree=6)
            assert check_invariance(form, action)
            for a in divisors(action.group.order):
                keep = action.fixed_variables(a)
                if not keep:
                    continue
                for i in range(form.nvars):
                    if i not in keep:
                        assert form.components[i].restrict_to(keep).is_zero()
