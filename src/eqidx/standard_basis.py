"""Groebner and local standard bases of polynomial ideals over the rationals.

Both engines run one pair loop: Buchberger's algorithm with pairs taken
lowest lcm degree first and pruned by Gebauer and Moeller's criteria, which
discard pairs that would reduce to zero under any monomial order.  They
differ only in the reduction; both keep their elements primitive.  The
global engine, under a degree order, divides fully and autoreduces into the
reduced Groebner basis.  The local engine computes a minimal standard basis
under a negative-degree order using Mora's weak normal form, whose reducer
selection minimizes the ecart (the gap between the degree of a polynomial
and the degree of its leading monomial) and which may recruit earlier
partial remainders as reducers; with that discipline division terminates
even though the ordering is not a well-order.  Termination can still be
impractically slow (a reducer that is a unit multiple of a variable with a
deep tail makes the leading monomial creep down one monomial at a time), so
the local reduction guards its step count, term counts and coefficient
sizes.  One rule picks the route: a run that trips a guard is abandoned and
the ideal goes through the homogenizing lift, a global Groebner basis of the
homogenized generators that always terminates and recovers a minimal
standard basis of the same ideal.  Quotient extraction enumerates the
standard monomials of a zero-dimensional leading ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product
from math import gcd, lcm
from typing import Callable, Sequence

from .errors import NonZeroDimensionalError
from .poly import (
    Monomial,
    MonomialOrder,
    Polynomial,
    _add_multiple,
    mon_degree,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
)


@dataclass(frozen=True)
class GeneratorSet:
    """Ideal generators together with the monomial order of the computation."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("at least one generator is required")
        for g in gens:
            if g.nvars != self.order.nvars:
                raise ValueError("generator and order disagree on the number of variables")
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class ReducedBasis:
    """A computed basis: reduced Groebner basis (global) or minimal standard basis (local).

    Elements are monic and no leading monomial divides another; for
    kind ``global`` the tails are fully reduced as well.  Elements are sorted
    by decreasing leading monomial.
    """

    elements: tuple[Polynomial, ...]
    order: MonomialOrder
    kind: str

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.elements)


@dataclass(frozen=True)
class QuotientBasis:
    """The standard monomials of a zero-dimensional quotient, smallest degree first."""

    monomials: tuple[Monomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial, cancelling the leading terms of f and g."""
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    lcm = mon_lcm(lmf, lmg)
    terms: dict[Monomial, Fraction] = {}
    _add_multiple(terms, 1 / f.terms[lmf], mon_div(lcm, lmf), f)
    _add_multiple(terms, -1 / g.terms[lmg], mon_div(lcm, lmg), g)
    return Polynomial._unchecked(f.nvars, terms)


def _reduce_once(h: Polynomial, lm_h: Monomial, g: Polynomial, lm_g: Monomial) -> Polynomial:
    """Cancel the leading term of h against g."""
    terms = dict(h.terms)
    _add_multiple(terms, -h.terms[lm_h] / g.terms[lm_g], mon_div(lm_h, lm_g), g)
    return Polynomial._unchecked(h.nvars, terms)


def global_normal_form(p: Polynomial, basis: Sequence[Polynomial],
                       order: MonomialOrder) -> Polynomial:
    """Remainder of full division by ``basis`` under a global order.

    Every term of the remainder is reducible by no basis element, so against
    a Groebner basis this is the canonical normal form.
    """
    if order.is_local:
        raise ValueError("global normal form requires a global order")
    return _full_remainder(p, [(g.leading_monomial(order), g) for g in basis], order)


def _full_remainder(p: Polynomial, reducers: Sequence[tuple[Monomial, Polynomial]],
                    order: MonomialOrder) -> Polynomial:
    """Full division by (leading monomial, polynomial) pairs under a global order."""
    work = dict(p.terms)
    remainder: dict[Monomial, Fraction] = {}
    key = order.key
    while work:
        lm = max(work, key=key)
        for lm_g, g in reducers:
            if mon_divides(lm_g, lm):
                _add_multiple(work, -work[lm] / g.terms[lm_g], mon_div(lm, lm_g), g)
                break
        else:
            remainder[lm] = work.pop(lm)
    return Polynomial._unchecked(p.nvars, remainder)


# Limits on one direct Mora run before the ideal is handed to the
# homogenizing lift instead.  Tame inputs use a few hundred steps, small
# coefficients and short polynomials; a creeping reduction blows all three up
# together, and the bit bound trips well before the arithmetic gets
# expensive.
_MORA_STEP_LIMIT = 2000
_MORA_TERM_LIMIT = 1500
_MORA_COEFF_BITS = 1024


class _BudgetExhausted(Exception):
    pass


def mora_normal_form(p: Polynomial, basis: Sequence[Polynomial],
                     order: MonomialOrder) -> Polynomial:
    """Mora's weak normal form of p with respect to ``basis`` under a local order.

    Returns a polynomial whose leading monomial is divisible by no leading
    monomial of the basis (or zero).  Unlike ordinary division the tail may
    keep reducible monomials: there exists a unit u with u*p = sum + result,
    which is exactly what leading-ideal and dimension computations need.
    """
    if not order.is_local:
        raise ValueError("Mora normal form requires a local order")
    reducers = [(g.leading_monomial(order), g) for g in basis if g.terms]
    return _mora_weak_nf(p, reducers, order, None)


def _primitive(p: Polynomial) -> Polynomial:
    """Rescale by a positive rational so the coefficients are coprime integers.

    Scaling changes no reduction decision (reducers are chosen by leading
    monomial alone), but keeping intermediate polynomials primitive stops the
    exponential denominator growth of repeated monic division.
    """
    if not p.terms:
        return p
    num = 0
    den = 1
    for c in p.terms.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    scale = Fraction(den, num)
    if scale == 1:
        return p
    return Polynomial._unchecked(p.nvars, {mon: c * scale for mon, c in p.terms.items()})


def _mora_weak_nf(p: Polynomial, reducers: Sequence[tuple[Monomial, Polynomial]],
                  order: MonomialOrder, budget: list[int] | None) -> Polynomial:
    """Mora's weak normal form by (leading monomial, polynomial) pairs.

    Every reduction step leaves a primitive remainder (see _primitive).  With
    a ``budget`` (a one-element list of remaining steps) every step is
    charged against it and against the term and coefficient limits, raising
    _BudgetExhausted when one runs out.
    """

    def ecart(f: Polynomial, lm: Monomial) -> int:
        return f.total_degree() - mon_degree(lm)

    # Reducer pool; entries are (lm, ecart, polynomial, insertion index).
    pool = [(lm, ecart(g, lm), g, i) for i, (lm, g) in enumerate(reducers)]
    counter = len(pool)
    h = p
    while h.terms:
        lm_h = h.leading_monomial(order)
        candidates = [e for e in pool if mon_divides(e[0], lm_h)]
        if not candidates:
            break
        if budget is not None:
            budget[0] -= 1
            lc = h.terms[lm_h]
            if (
                budget[0] < 0
                or len(h.terms) > _MORA_TERM_LIMIT
                or lc.numerator.bit_length() + lc.denominator.bit_length()
                > _MORA_COEFF_BITS
            ):
                raise _BudgetExhausted
        lm_g, ec_g, g, _ = min(
            candidates, key=lambda e: (e[1], order.key(e[0]), e[3])
        )
        if ec_g > ecart(h, lm_h):
            # Recruiting h itself keeps later reductions from raising the
            # ecart without bound; this is what makes Mora division terminate.
            pool.append((lm_h, ecart(h, lm_h), h, counter))
            counter += 1
        h = _primitive(_reduce_once(h, lm_h, g, lm_g))
    return h


def _update_pairs(lms: Sequence[Monomial], live: list[int],
                  pending: dict[tuple[int, int], Monomial], queue: list,
                  order: MonomialOrder) -> None:
    """Gebauer and Moeller's update for the newest basis element.

    An old pair is dropped when the new leading monomial m divides its lcm
    and both of its lcms with m differ from it (Buchberger's chain
    criterion).  A new pair is dropped when the lcm of another new pair
    divides its own; of several sharing one lcm only the last is kept, and
    that lcm is dropped altogether when one of its pairs has coprime leading
    monomials.  Elements whose leading monomial m divides stop taking part
    in new pairs and in reduction.  Kept pairs are queued lowest lcm degree
    first, then by order key, then by age.
    """
    t = len(lms) - 1
    m = lms[t]
    for pair, lcm in list(pending.items()):
        i, j = pair
        if mon_divides(m, lcm) and mon_lcm(lms[i], m) != lcm and mon_lcm(lms[j], m) != lcm:
            del pending[pair]
    fresh = [(i, mon_lcm(lms[i], m)) for i in live]
    kept: list[tuple[int, Monomial, bool]] = []
    for pos, (i, lcm) in enumerate(fresh):
        coprime = mon_mul(lms[i], m) == lcm
        if coprime or not (
            any(mon_divides(other, lcm) for _, other in fresh[pos + 1 :])
            or any(mon_divides(other, lcm) for _, other, _ in kept)
        ):
            kept.append((i, lcm, coprime))
    for i, lcm, coprime in kept:
        if not coprime:
            pending[(i, t)] = lcm
            heappush(queue, (mon_degree(lcm), order.key(lcm), i, t))
    live[:] = [i for i in live if not mon_divides(m, lms[i])]
    live.append(t)


def _pair_loop(generators: Sequence[Polynomial], order: MonomialOrder,
               reduce: Callable[..., Polynomial]) -> list[tuple[Monomial, Polynomial]]:
    """Buchberger's pair loop with Gebauer and Moeller's pruning, under any order.

    ``reduce(p, reducers, order)`` takes an S-polynomial to a remainder whose
    leading monomial no reducer's leading monomial divides, or to zero;
    every element the loop keeps is made primitive.  Returns the
    (leading monomial, element) pairs of the elements that still take part
    in reduction; their leading monomials generate the leading ideal.
    """
    basis: list[Polynomial] = []
    lms: list[Monomial] = []
    live: list[int] = []
    pending: dict[tuple[int, int], Monomial] = {}
    queue: list = []

    def insert(h: Polynomial) -> None:
        basis.append(_primitive(h))
        lms.append(h.leading_monomial(order))
        _update_pairs(lms, live, pending, queue, order)

    for g in generators:
        if g.terms:
            insert(g)
    while queue:
        *_, i, j = heappop(queue)
        if pending.pop((i, j), None) is None:
            continue
        h = reduce(s_polynomial(basis[i], basis[j], order), [(lms[k], basis[k]) for k in live],
                   order)
        if h.terms:
            insert(h)
    return [(lms[k], basis[k]) for k in live]


def _minimalize(pairs: Sequence[tuple[Monomial, Polynomial]],
                order: MonomialOrder) -> list[tuple[Monomial, Polynomial]]:
    """Drop elements whose leading monomial another's divides; make the rest monic.

    Takes and returns (leading monomial, element) pairs, the result sorted by
    decreasing leading monomial.
    """
    kept: list[tuple[Monomial, Polynomial]] = []
    for lm, g in sorted(pairs, key=lambda t: (mon_degree(t[0]), order.key(t[0]))):
        if not any(mon_divides(lm_k, lm) for lm_k, _ in kept):
            kept.append((lm, g.monic(order)))
    kept.sort(key=lambda t: order.key(t[0]), reverse=True)
    return kept


def buchberger_global(gens: GeneratorSet) -> ReducedBasis:
    """The reduced Groebner basis of the ideal under the (global) order of ``gens``."""
    order = gens.order
    if order.is_local:
        raise ValueError("buchberger_global requires a global order")
    live = _pair_loop(gens.generators, order, _full_remainder)
    minimal = _minimalize(live, order)
    # Once no leading monomial divides another, reduction keeps every leading
    # term, so one pass leaves every term of every element irreducible.
    reduced = [
        _full_remainder(g, minimal[:i] + minimal[i + 1 :], order)
        for i, (_, g) in enumerate(minimal)
    ]
    return ReducedBasis(tuple(reduced), order, "global")


def _homogenize(p: Polynomial) -> Polynomial:
    """Make every term of p the same total degree with a trailing new variable."""
    d = p.total_degree()
    return Polynomial._unchecked(
        p.nvars + 1,
        {mon + (d - mon_degree(mon),): c for mon, c in p.terms.items()},
    )


def _dehomogenize(p: Polynomial) -> Polynomial:
    """Set the trailing variable to one.  Homogeneous terms never collide."""
    return Polynomial._unchecked(p.nvars - 1, {mon[:-1]: c for mon, c in p.terms.items()})


def _homogenized_local(gens: GeneratorSet) -> ReducedBasis:
    """Minimal standard basis via a Groebner basis of the homogenized generators.

    Under the ``homogenized`` order the leading term of a homogeneous
    polynomial dehomogenizes to its local leading term, and any relation
    g = sum p_i f_i homogenizes to t^a g^h = sum t^(a_i) p_i^h f_i^h; so the
    dehomogenized Groebner basis elements lie in the original ideal and their
    leading monomials generate its full local leading ideal (Greuel and
    Pfister, A Singular Introduction to Commutative Algebra, section 1.7).
    """
    order = gens.order
    lifted = GeneratorSet(
        tuple(_homogenize(g) for g in gens.generators if g.terms),
        MonomialOrder("homogenized", order.nvars + 1),
    )
    polys = [_dehomogenize(b) for b in buchberger_global(lifted).elements]
    minimal = _minimalize([(g.leading_monomial(order), g) for g in polys], order)
    return ReducedBasis(tuple(g for _, g in minimal), order, "local")


def mora_local(gens: GeneratorSet) -> ReducedBasis:
    """A minimal standard basis of the ideal in the local ring at the origin.

    The pair loop of ``buchberger_global``, Gebauer and Moeller's pruning
    included, with Mora's weak normal form in place of ordinary division:
    the pair criteria and the weak normal form hold under any monomial
    order.  The result is minimal and monic; tails are not reduced, which is
    enough to determine the leading ideal and hence all quotient data.  A
    run that exceeds its budget of reduction steps, polynomial length or
    coefficient size is abandoned, and the ideal goes through the
    homogenizing lift instead, which always terminates; the leading ideal
    (and so every quotient invariant) is the same either way.
    """
    order = gens.order
    if not order.is_local:
        raise ValueError("mora_local requires a local order")
    reduce = partial(_mora_weak_nf, budget=[_MORA_STEP_LIMIT])
    try:
        live = _pair_loop(gens.generators, order, reduce)
    except _BudgetExhausted:
        return _homogenized_local(gens)
    return ReducedBasis(tuple(g for _, g in _minimalize(live, order)), order, "local")


def normal_form(p: Polynomial, basis: ReducedBasis) -> Polynomial:
    """Normal form of p: canonical remainder (global) or Mora weak form (local)."""
    if basis.kind == "global":
        return global_normal_form(p, basis.elements, basis.order)
    return mora_normal_form(p, basis.elements, basis.order)


def quotient_basis(basis: ReducedBasis) -> QuotientBasis:
    """Standard monomials of the quotient by the ideal of ``basis``.

    The quotient is finite dimensional exactly when the leading ideal
    contains a pure power of every variable; otherwise
    NonZeroDimensionalError reports a variable with no such power.  The
    monomials outside the leading ideal are returned sorted by increasing
    degree (deterministic tie-break), and they form an order ideal: any
    divisor of a standard monomial is standard.
    """
    order = basis.order
    n = order.nvars
    lms = basis.leading_monomials()
    bounds: list[int] = []
    for i in range(n):
        pure = [
            lm[i]
            for lm in lms
            if all(e == 0 for j, e in enumerate(lm) if j != i)
        ]
        if not pure:
            raise NonZeroDimensionalError(
                f"no pure power of z{i + 1} in the leading ideal", variable=i
            )
        bounds.append(min(pure))
    monomials = [
        mon
        for mon in product(*(range(b) for b in bounds))
        if not any(mon_divides(lm, mon) for lm in lms)
    ]
    ranking = MonomialOrder("degrevlex", n)
    monomials.sort(key=ranking.key)
    return QuotientBasis(tuple(monomials))
