"""Seeded random construction of invariant 1-forms with isolated zeros.

Each component starts from a pure power of its own variable whose exponent
satisfies the weight congruence, which already gives an isolated invariant
zero on every fixed subspace; a few extra invariant monomials are then mixed
in and the candidate is rejected if its index report finds a stratum that
loses isolation; ``_form_and_report`` hands that report back with the form,
so the verify suites need not compute it again.  Everything is driven by a
caller-supplied random.Random, so suites are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .equiv_index import DiagonalAction, IndexReport, OneForm, index_report
from .errors import PreconditionError
from .poly import Polynomial
from .rep_rings import CyclicGroup

_COEFFICIENTS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-3, 2),
)

# At most this many extra monomials join each component's pure power.
_EXTRA_TERMS = 2
# Candidate forms drawn before falling back to the bare pure powers.
_ATTEMPTS = 25
# Exponent tuples drawn in search of one invariant monomial.
_MONOMIAL_TRIES = 40


def random_action(
    rng: random.Random, max_order: int = 6, max_vars: int = 3
) -> DiagonalAction:
    """A random diagonal action: uniform order in [1, max_order], uniform weights."""
    m = rng.randint(1, max_order)
    n = rng.randint(1, max_vars)
    weights = tuple(rng.randrange(m) for _ in range(n))
    return DiagonalAction(CyclicGroup(m), weights)


def _power_exponents(weight: int, m: int, max_degree: int) -> list[int]:
    """Exponents c with 1 <= c <= max_degree and (c + 1) * weight = 0 mod m."""
    r = m // gcd(weight, m) if weight % m else 1
    return [c for c in range(1, max_degree + 1) if (c + 1) % r == 0]


def _random_invariant_monomial(
    rng: random.Random,
    action: DiagonalAction,
    component: int,
    max_degree: int,
) -> tuple[int, ...] | None:
    """An exponent tuple of positive degree whose weight matches the component's.

    Rejection sampling; None when no admissible monomial turns up.  Constant
    monomials are excluded so the origin stays a zero of the form.
    """
    m = action.group.order
    n = action.nvars
    target = (-action.weights[component]) % m
    for _ in range(_MONOMIAL_TRIES):
        mon = tuple(rng.randint(0, max_degree) for _ in range(n))
        if not 1 <= sum(mon) <= max_degree:
            continue
        if action.weight_of(mon) == target:
            return mon
    return None


def random_invariant_form(
    rng: random.Random,
    action: DiagonalAction,
    max_degree: int = 6,
) -> OneForm:
    """A random invariant form with an isolated zero at the origin.

    Candidates keep a pure-power term in each component, so isolation can
    only be lost through interaction of the extra monomials; candidates where
    that happens are rejected and resampled, falling back to the bare
    pure-power form, which is always admissible.
    """
    return _form_and_report(rng, action, max_degree)[0]


def _form_and_report(
    rng: random.Random,
    action: DiagonalAction,
    max_degree: int = 6,
) -> tuple[OneForm, IndexReport]:
    """``random_invariant_form``'s form with the index report that admitted it."""
    m = action.group.order
    n = action.nvars
    anchors = []
    for i in range(n):
        choices = _power_exponents(action.weights[i], m, max_degree)
        if not choices:
            raise ValueError(
                f"no admissible pure power of degree <= {max_degree} for weight "
                f"{action.weights[i]} mod {m}"
            )
        anchors.append(rng.choice(choices))

    def anchor_monomial(i: int) -> tuple[int, ...]:
        return tuple(anchors[i] if j == i else 0 for j in range(n))

    for _ in range(_ATTEMPTS):
        comps = []
        for i in range(n):
            terms = {anchor_monomial(i): rng.choice(_COEFFICIENTS)}
            for _ in range(rng.randint(0, _EXTRA_TERMS)):
                mon = _random_invariant_monomial(rng, action, i, max_degree)
                if mon is None or mon in terms:
                    continue
                terms[mon] = rng.choice(_COEFFICIENTS)
            comps.append(Polynomial(n, terms))
        candidate = OneForm(tuple(comps))
        try:
            return candidate, index_report(candidate, action)
        except PreconditionError:
            continue
    fallback = OneForm(
        tuple(Polynomial.monomial(n, anchor_monomial(i)) for i in range(n))
    )
    return fallback, index_report(fallback, action)


def random_case(
    rng: random.Random,
    max_order: int = 6,
    max_vars: int = 3,
    max_degree: int = 6,
) -> tuple[OneForm, DiagonalAction]:
    """A random action and a random invariant form admissible for both indices."""
    action = random_action(rng, max_order=max_order, max_vars=max_vars)
    return random_invariant_form(rng, action, max_degree=max_degree), action


def random_shear(
    rng: random.Random, action: DiagonalAction, max_degree: int = 3
) -> list[Polynomial]:
    """An equivariant polynomial automorphism with identity linear part.

    One randomly chosen component receives an extra monomial of its own
    weight, supported away from its variable, so the map is a triangular
    shear and exactly invertible.  Composition multiplies degrees, so keep
    ``max_degree`` small when the result feeds a basis computation.
    """
    n = action.nvars
    subs = [Polynomial.variable(n, i) for i in range(n)]
    if n == 1:
        return subs
    target = rng.randrange(n)
    m = action.group.order
    for _ in range(60):
        mon = tuple(
            0 if j == target else rng.randint(0, max_degree) for j in range(n)
        )
        if not 1 <= sum(mon) <= max_degree:
            continue
        if action.weight_of(mon) == action.weights[target]:
            coeff = rng.choice(_COEFFICIENTS)
            subs[target] = subs[target] + Polynomial.monomial(n, mon, coeff)
            break
    return subs
