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
standard basis of the same ideal.  Quotient extraction walks the staircase
of a zero-dimensional leading ideal to its standard monomials.

Coefficients are Fractions only at the Polynomial boundary.  Generators
enter as primitive integer term dicts (coprime integer coefficients, see
_primitive), and inside the pair loop, the S-polynomials, Mora's weak normal
form and the full division every coefficient is an int: a reduction step is
fraction-free, h <- a*h - b*z^s*g with a > 0, followed by division by the
content, so every intermediate polynomial is the primitive positive multiple
of its exact rational counterpart.  Results leave as monic Polynomials; the
public helpers (s_polynomial, the normal forms) return exact Fractions.
Order keys are computed once per monomial in a dict owned by one engine
call.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import gcd, lcm
from operator import itemgetter
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


# Inside the engines a polynomial is a dict of integer terms, kept
# primitive: coprime coefficients, a positive multiple of the polynomial it
# stands for.  A basis element travels as an entry: its leading monomial,
# its ecart (total degree minus the degree of the leading monomial) and its
# terms, the first two computed once.
IntTerms = dict[Monomial, int]
Entry = tuple[Monomial, int, IntTerms]
KeyFn = Callable[[Monomial], tuple]


class _OrderKeys(dict):
    """The order keys of the monomials one computation meets, each computed once.

    ``_OrderKeys(order).__getitem__`` is the key function of one engine call;
    the dict lives only as long as the call.
    """

    def __init__(self, order: MonomialOrder) -> None:
        super().__init__()
        self.key = order.key

    def __missing__(self, mon: Monomial) -> tuple:
        k = self[mon] = self.key(mon)
        return k


def _integer_terms(p: Polynomial) -> IntTerms:
    """The terms of _primitive(p), as ints."""
    return {mon: c.numerator for mon, c in _primitive(p).terms.items()}


def _entry(terms: IntTerms, key: KeyFn) -> Entry:
    """The entry of a nonzero polynomial: (leading monomial, ecart, terms)."""
    lm = max(terms, key=key)
    return lm, max(map(sum, terms)) - sum(lm), terms


def _monic(nvars: int, terms: IntTerms, lm: Monomial) -> Polynomial:
    """The monic Polynomial of integer terms whose leading monomial is lm."""
    lc = terms[lm]
    return Polynomial._unchecked(nvars, {mon: Fraction(c, lc) for mon, c in terms.items()})


def _cancel(f: IntTerms, lm_f: Monomial, g: IntTerms, lm_g: Monomial,
            lm: Monomial) -> tuple[IntTerms, int]:
    """The fraction-free step a*z^(lm/lm_f)*f - b*z^(lm/lm_g)*g, cancelling at lm.

    (a, b) are the leading coefficients of g and f over their gcd, signed so
    that a > 0; returns the new terms and a.  With lm the lcm of the two
    leading monomials this is an S-polynomial, with lm = lm_f a reduction
    step of f by g.
    """
    lc_f, lc_g = f[lm_f], g[lm_g]
    d = gcd(lc_f, lc_g)
    a, b = lc_g // d, lc_f // d
    if a < 0:
        a, b = -a, -b
    if lm == lm_f:
        out = {mon: a * c for mon, c in f.items()} if a != 1 else dict(f)
    else:
        out = {}
        _add_multiple(out, a, mon_div(lm, lm_f), f)
    _add_multiple(out, -b, mon_div(lm, lm_g), g)
    return out, a


def _content_free(terms: IntTerms) -> IntTerms:
    """terms over the gcd of its coefficients."""
    c = gcd(*terms.values())
    if c > 1:
        return {mon: v // c for mon, v in terms.items()}
    return terms


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial, cancelling the leading terms of f and g."""
    fi, gi = _integer_terms(f), _integer_terms(g)
    lm_f, lm_g = f.leading_monomial(order), g.leading_monomial(order)
    s, a = _cancel(fi, lm_f, gi, lm_g, mon_lcm(lm_f, lm_g))
    # s = a * lc(fi) * S(fi, gi), and S(fi, gi) = S(f, g).
    unit = a * fi[lm_f]
    return Polynomial._unchecked(f.nvars, {mon: Fraction(c, unit) for mon, c in s.items()})


def global_normal_form(p: Polynomial, basis: Sequence[Polynomial],
                       order: MonomialOrder) -> Polynomial:
    """Remainder of full division by ``basis`` under a global order.

    Every term of the remainder is reducible by no basis element, so against
    a Groebner basis this is the canonical normal form.
    """
    if order.is_local:
        raise ValueError("global normal form requires a global order")
    terms = _integer_terms(p)
    reducers = [_entry(_integer_terms(g), order.key) for g in basis]
    remainder, scale = _full_remainder(terms, reducers, order.key)
    if not remainder:
        return Polynomial._unchecked(p.nvars, {})
    # remainder = scale * (exact remainder of terms), and terms is a
    # positive multiple of p.
    first = next(iter(terms))
    unit = scale * terms[first] / p.terms[first]
    return Polynomial._unchecked(p.nvars, {mon: c / unit for mon, c in remainder.items()})


def _full_remainder(p: IntTerms, reducers: Sequence[Entry],
                    key: KeyFn) -> tuple[IntTerms, Fraction]:
    """Fraction-free full division of primitive p by basis entries under a global order.

    A step scales the terms already moved to the remainder together with the
    rest, then divides the content out of both.  Returns the primitive
    remainder and the positive s with remainder = s * (exact remainder of p).
    """
    work = dict(p)
    remainder: IntTerms = {}
    scale = Fraction(1)
    while work:
        lm = max(work, key=key)
        for lm_g, _, g in reducers:
            if mon_divides(lm_g, lm):
                work, a = _cancel(work, lm, g, lm_g, lm)
                if a != 1:
                    remainder = {mon: a * c for mon, c in remainder.items()}
                    scale *= a
                c = gcd(gcd(*work.values()), *remainder.values())
                if c > 1:
                    work = {mon: v // c for mon, v in work.items()}
                    remainder = {mon: v // c for mon, v in remainder.items()}
                    scale /= c
                break
        else:
            remainder[lm] = work.pop(lm)
    return remainder, scale


# Limits on one direct Mora run before the ideal is handed to the
# homogenizing lift instead.  Tame inputs use a few hundred steps, small
# coefficients and short polynomials; a creeping reduction blows all three up
# together, and the bit bound (a leading coefficient of _MORA_COEFF_BITS bits
# or more) trips well before the arithmetic gets expensive.
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
    After a reduction step the result is primitive; without one it is p.
    """
    if not order.is_local:
        raise ValueError("Mora normal form requires a local order")
    terms = _integer_terms(p)
    reducers = [_entry(_integer_terms(g), order.key) for g in basis if g.terms]
    h = _mora_weak_nf(terms, reducers, order.key, None)
    if h is terms:
        return p
    return Polynomial._unchecked(p.nvars, {mon: Fraction(c) for mon, c in h.items()})


def _primitive(p: Polynomial) -> Polynomial:
    """Rescale by a positive rational so the coefficients are coprime integers.

    Scaling changes no reduction decision (reducers are chosen by leading
    monomial alone), so the engines start from the primitive generators and
    keep every intermediate polynomial primitive: integer arithmetic without
    the denominator growth of repeated monic division.
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


def _mora_weak_nf(h: IntTerms, reducers: Sequence[Entry], key: KeyFn,
                  budget: list[int] | None) -> IntTerms:
    """Mora's weak normal form of primitive h by basis entries, fraction-free.

    Every reduction step leaves a primitive remainder; without a step h
    itself is returned.  With a ``budget`` (a one-element list of remaining
    steps) every step is charged against it and against the term and
    coefficient limits, raising _BudgetExhausted when one runs out.
    """
    # The reducer pool, sorted by (ecart, order key of lm, insertion index):
    # the first entry whose leading monomial divides lm(h) is the reducer of
    # least ecart, then least leading monomial, then oldest.
    pool = sorted((ec, key(lm), i, lm, g) for i, (lm, ec, g) in enumerate(reducers))
    counter = len(pool)
    while h:
        lm_h = max(h, key=key)
        for ec_g, _, _, lm_g, g in pool:
            if mon_divides(lm_g, lm_h):
                break
        else:
            break
        if budget is not None:
            budget[0] -= 1
            if (
                budget[0] < 0
                or len(h) > _MORA_TERM_LIMIT
                or h[lm_h].bit_length() >= _MORA_COEFF_BITS
            ):
                raise _BudgetExhausted
        # An ecart is never negative, so only a reducer of positive ecart can
        # exceed the ecart of h.
        if ec_g:
            ec_h = max(map(sum, h)) - sum(lm_h)
            if ec_g > ec_h:
                # Recruiting h itself keeps later reductions from raising the
                # ecart without bound; this is what makes Mora division
                # terminate.
                insort(pool, (ec_h, key(lm_h), counter, lm_h, h))
                counter += 1
        h = _content_free(_cancel(h, lm_h, g, lm_g, lm_h)[0])
    return h


def _update_pairs(lms: Sequence[Monomial], live: list[int],
                  pending: dict[tuple[int, int], Monomial], queue: list,
                  key: KeyFn) -> None:
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
            heappush(queue, (mon_degree(lcm), key(lcm), i, t))
    live[:] = [i for i in live if not mon_divides(m, lms[i])]
    live.append(t)


def _pair_loop(generators: Sequence[IntTerms], key: KeyFn,
               reduce: Callable[..., IntTerms]) -> list[Entry]:
    """Buchberger's pair loop with Gebauer and Moeller's pruning, under any order.

    The generators are primitive integer terms.  ``reduce(p, reducers,
    key)`` takes a primitive S-polynomial to a primitive remainder whose
    leading monomial no reducer's leading monomial divides, or to zero.
    Returns the entries of the elements that still take part in reduction;
    their leading monomials generate the leading ideal.
    """
    elements: list[Entry] = []
    lms: list[Monomial] = []
    live: list[int] = []
    pending: dict[tuple[int, int], Monomial] = {}
    queue: list = []

    def insert(h: IntTerms) -> None:
        elements.append(_entry(h, key))
        lms.append(elements[-1][0])
        _update_pairs(lms, live, pending, queue, key)

    for g in generators:
        if g:
            insert(g)
    while queue:
        *_, i, j = heappop(queue)
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue
        (lm_i, _, f), (lm_j, _, g) = elements[i], elements[j]
        s, _ = _cancel(f, lm_i, g, lm_j, lcm)
        h = reduce(_content_free(s), [elements[k] for k in live], key)
        if h:
            insert(h)
    return [elements[k] for k in live]


def _minimalize(entries: Sequence[tuple], key: KeyFn) -> list[tuple]:
    """Drop the elements whose leading monomial another's divides.

    Takes and returns tuples whose first item is the leading monomial, the
    result sorted by decreasing leading monomial.
    """
    kept: list[tuple] = []
    for e in sorted(entries, key=lambda e: (mon_degree(e[0]), key(e[0]))):
        if not any(mon_divides(k[0], e[0]) for k in kept):
            kept.append(e)
    kept.sort(key=lambda e: key(e[0]), reverse=True)
    return kept


def buchberger_global(gens: GeneratorSet) -> ReducedBasis:
    """The reduced Groebner basis of the ideal under the (global) order of ``gens``."""
    order = gens.order
    if order.is_local:
        raise ValueError("buchberger_global requires a global order")
    key = _OrderKeys(order).__getitem__
    live = _pair_loop(
        [_integer_terms(g) for g in gens.generators],
        key,
        lambda p, reducers, key: _full_remainder(p, reducers, key)[0],
    )
    minimal = _minimalize(live, key)
    # Once no leading monomial divides another, reduction keeps every leading
    # term, so one pass leaves every term of every element irreducible.
    reduced = [
        _monic(order.nvars, _full_remainder(g, minimal[:i] + minimal[i + 1 :], key)[0], lm)
        for i, (lm, _, g) in enumerate(minimal)
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
    minimal = _minimalize([(g.leading_monomial(order), g) for g in polys], order.key)
    return ReducedBasis(tuple(g.monic(order) for _, g in minimal), order, "local")


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
    key = _OrderKeys(order).__getitem__
    reduce = partial(_mora_weak_nf, budget=[_MORA_STEP_LIMIT])
    try:
        live = _pair_loop([_integer_terms(g) for g in gens.generators], key, reduce)
    except _BudgetExhausted:
        return _homogenized_local(gens)
    minimal = _minimalize(live, key)
    return ReducedBasis(
        tuple(_monic(order.nvars, g, lm) for lm, _, g in minimal), order, "local"
    )


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
    degree, ties broken by degrevlex, and they form an order ideal: any
    divisor of a standard monomial is standard.

    The staircase is walked by prefix.  A prefix of exponents keeps only the
    leading monomials it dominates in those positions; it is extended while
    the prefix padded with zeros is still standard, and in the last position
    the exponent runs up to the least last exponent of the kept monomials.
    Every prefix visited starts a standard monomial, so the time grows with
    the dimension times the number of leading monomials and the memory with
    the dimension, not with the box under the pure powers.
    """
    n = basis.order.nvars
    lms = basis.leading_monomials()
    for i in range(n):
        if not any(lm[i] == sum(lm) for lm in lms):
            raise NonZeroDimensionalError(
                f"no pure power of z{i + 1} in the leading ideal", variable=i
            )
    if n == 0:
        return QuotientBasis(() if lms else ((),))
    monomials: list[Monomial] = []

    def walk(prefix: Monomial, kept: Sequence[Monomial]) -> None:
        i = len(prefix)
        if i == n - 1:
            top = min(map(itemgetter(i), kept))
            monomials.extend(prefix + (e,) for e in range(top))
            return
        kept = sorted(kept, key=itemgetter(i))
        dominated: list[Monomial] = []
        j = 0
        for e in count():
            # Admit the leading monomials the prefix now dominates in
            # position i; one with a zero tail ends this prefix for good.
            while j < len(kept) and kept[j][i] <= e:
                if not any(kept[j][i + 1 :]):
                    return
                dominated.append(kept[j])
                j += 1
            walk(prefix + (e,), dominated)

    walk((), lms)
    # degrevlex: decreasing reversed exponents within a degree.
    monomials.sort(key=lambda mon: mon[::-1], reverse=True)
    monomials.sort(key=sum)
    return QuotientBasis(tuple(monomials))
