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
deep tail makes the leading monomial creep down one monomial at a time).
Two cures work together.  The highest corner: once the leading monomials
contain every monomial of some degree N, terms above N are dropped, and the
computation runs in a finite space.  And a race: direct Mora and the
homogenizing lift (the global pair loop on the homogenized generators, which
always terminates and, dehomogenized, yields a standard basis of the same
ideal) take turns of doubling numbers of reduction steps, and the first to
finish returns the basis.  Both runs leave through one exit, which keeps a
minimal set of elements and makes them monic; neither reduces the tails.
The pair loop and both reductions are generators, so direct Mora can pause
in the middle of a reduction and resume there (the lift pauses between
divisions).  Quotient extraction walks the staircase of a zero-dimensional
leading ideal to its standard monomials.

Coefficients are Fractions only at the Polynomial boundary.  Generators
enter as primitive integer term dicts (coprime integer coefficients, see
_primitive), and inside the pair loop, the S-polynomials, Mora's weak normal
form and the full division every coefficient is an int: a reduction step is
fraction-free, h <- a*h - b*z^s*g with a > 0, followed by division by the
content, so every intermediate polynomial is the primitive positive multiple
of its exact rational counterpart.  Results leave as monic Polynomials; the
public helpers (s_polynomial, the normal forms) return exact Fractions.
Order keys are computed once per monomial in a dict owned by one engine
run, and so are divisor masks.  A reduction step costs about its reducer's
terms, not the whole remainder's: each reduction keeps its remainder's
monomials sorted by order key, and full division pretests every reducer
with its divisor mask.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import gcd, inf, lcm
from operator import itemgetter
from typing import Callable, Generator, Sequence, TypeVar

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
    # The leading monomial of each element, as the engines found them.
    leading: tuple[Monomial, ...] | None = field(default=None, compare=False, repr=False)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        if self.leading is None:
            return tuple(g.leading_monomial(self.order) for g in self.elements)
        return self.leading


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
# An engine run is a generator that pauses (yields) when its clock, a
# one-element list holding the reduction steps it may still take, is spent;
# whoever resumes it first adds steps.  A run on an endless clock, [inf],
# never pauses.
Clock = list
Corner = Callable[[bool], "int | None"]
Reduce = Callable[[IntTerms, Sequence[Entry], Corner], Generator[None, None, IntTerms]]
T = TypeVar("T")


class _OrderKeys(dict):
    """The order keys of the monomials one computation meets, each computed once.

    ``_OrderKeys(order).__getitem__`` is the key function of one engine run;
    the dict lives only as long as the run.
    """

    def __init__(self, order: MonomialOrder) -> None:
        super().__init__()
        self.key = order.key

    def __missing__(self, mon: Monomial) -> tuple:
        k = self[mon] = self.key(mon)
        return k


class _Masks(dict):
    """The divisor masks of the monomials one computation meets, each computed once.

    Five bits per variable say whether its exponent is at least 1, 2, 4, 8
    and 16.  If a divides b, every bit of the mask of a is set in the mask
    of b; so a reducer whose mask has a bit outside the mask of a monomial
    cannot divide it, and that test is one AND.  Like _OrderKeys, the dict
    lives only as long as one engine run.
    """

    def __missing__(self, mon: Monomial) -> int:
        mask = 0
        for e in mon:
            bits = (1 << e.bit_length()) - 1  # one bit for each of 1, 2, 4, ... up to e
            mask = mask << 5 | bits & 31
        self[mon] = mask
        return mask


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
            lm: Monomial, created: list | None = None) -> tuple[IntTerms, int]:
    """The fraction-free step a*z^(lm/lm_f)*f - b*z^(lm/lm_g)*g, cancelling at lm.

    (a, b) are the leading coefficients of g and f over their gcd, signed so
    that a > 0; returns the new terms and a.  With lm the lcm of the two
    leading monomials this is an S-polynomial, with lm = lm_f a reduction
    step of f by g, and then the monomials it adds to those of f are
    appended to ``created``, if given.
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
    _add_multiple(out, -b, mon_div(lm, lm_g), g, created)
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
    reducers = [_entry(_integer_terms(g), order.key) for g in basis if g.terms]
    remainder, scale, _ = _full_remainder(terms, reducers, order.key, _Masks())
    if not remainder:
        return Polynomial._unchecked(p.nvars, {})
    # remainder = scale * (exact remainder of terms), and terms is a
    # positive multiple of p.
    first = next(iter(terms))
    unit = scale * terms[first] / p.terms[first]
    return Polynomial._unchecked(p.nvars, {mon: c / unit for mon, c in remainder.items()})


def _full_remainder(p: IntTerms, reducers: Sequence[Entry], key: KeyFn,
                    masks: _Masks) -> tuple[IntTerms, Fraction, int]:
    """Fraction-free full division of primitive p by basis entries under a global order.

    A step scales the terms already moved to the remainder together with the
    rest, then divides the content out of both.  The monomials still to
    divide are kept sorted by order key, and a reducer's leading monomial
    is tested for division only when its mask passes (see _Masks).  Returns
    the primitive remainder, the positive s with remainder = s * (exact
    remainder of p), and the number of steps.
    """
    work = dict(p)
    # The monomials of work in increasing order, next to stale entries whose
    # monomial a step cancelled; each step adds the monomials it creates,
    # all below the one it cancels at.
    mons = sorted(work, key=key)
    tests = [(masks[lm_g], lm_g, g) for lm_g, _, g in reducers]
    remainder: IntTerms = {}
    scale = Fraction(1)
    steps = 0
    while work:
        lm = mons.pop()
        if lm not in work:
            continue
        outside = ~masks[lm]
        for mask_g, lm_g, g in tests:
            if not mask_g & outside and mon_divides(lm_g, lm):
                steps += 1
                created: list[Monomial] = []
                work, a = _cancel(work, lm, g, lm_g, lm, created)
                for mon in created:
                    insort(mons, mon, key=key)
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
    return remainder, scale, steps


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
    h = _finish(_mora_weak_nf(order.key, [inf], terms, reducers, _no_corner))
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


def _mora_weak_nf(key: KeyFn, clock: Clock, h: IntTerms, reducers: Sequence[Entry],
                  corner: Corner) -> Generator[None, None, IntTerms]:
    """Mora's weak normal form of primitive h by basis entries, fraction-free.

    Every reduction step leaves a primitive remainder; without a step h
    itself is returned.  A generator: each step spends one step of
    ``clock``, and the reduction pauses (yields) when the clock is spent.
    ``corner(fresh)`` is the highest corner, or None while none is known
    (see _pair_loop).  A step that would recruit asks for a fresh one; once
    there is one, earlier remainders are no longer recruited, since division
    in the finite space of the monomials up to the corner terminates
    without them, and a step that could reach past it drops the terms of
    degree above a fresh corner.
    """
    # The reducer pool, sorted by (ecart, order key of lm, insertion index):
    # the first entry whose leading monomial divides lm(h) is the reducer of
    # least ecart, then least leading monomial, then oldest.
    pool = sorted((ec, key(lm), i, lm, g) for i, (lm, ec, g) in enumerate(reducers))
    counter = len(pool)
    # Only this reduction can refresh the corner while it runs (the pair
    # loop waits for it), so the value asked for last stays current.
    top = corner(False)
    # The monomials of h in increasing order, grown by the monomials each
    # step creates.  Entries whose monomial left h are stale and dropped as
    # they reach either end: the last live entry is lm(h), and under a local
    # degree order the first has the top degree of h.
    mons = sorted(h, key=key)
    lo = 0
    while h:
        while mons[-1] not in h:
            mons.pop()
        lm_h = mons[-1]
        for ec_g, _, _, lm_g, g in pool:
            if mon_divides(lm_g, lm_h):
                break
        else:
            break
        if clock[0] <= 0:
            yield
        clock[0] -= 1
        cut = None
        # An ecart is never negative, and the multiple of a reducer of ecart
        # zero has no term of degree above lm(h); so only a reducer of
        # positive ecart can raise the ecart of h or reach past the corner.
        if ec_g:
            if top is None:
                while mons[lo] not in h:
                    lo += 1
                ec_h = sum(mons[lo]) - sum(lm_h)
                if ec_g > ec_h and (top := corner(True)) is None:
                    # Recruiting h itself keeps later reductions from raising
                    # the ecart without bound; this is what makes Mora
                    # division terminate.
                    insort(pool, (ec_h, key(lm_h), counter, lm_h, h))
                    counter += 1
            if top is not None and sum(lm_h) + ec_g > top:
                cut = top = corner(True)
        created: list[Monomial] = []
        h = _cancel(h, lm_h, g, lm_g, lm_h, created)[0]
        h = _content_free(h) if cut is None else _truncated(h, cut)
        for mon in created:
            insort(mons, mon, lo, key=key)
    return h


def _truncated(terms: IntTerms, corner: int) -> IntTerms:
    """The terms of degree at most ``corner``, over their content."""
    return _content_free({mon: c for mon, c in terms.items() if sum(mon) <= corner})


def _no_corner(fresh: bool) -> None:
    """The corner of a division outside the pair loop: none is known."""
    return None


def _results(run: Generator[None, None, T]) -> Generator[T | None, None, None]:
    """The pauses of a run (None each), then its result: no StopIteration to catch."""
    yield (yield from run)


def _finish(run: Generator[None, None, T]) -> T:
    """The result of a run that never pauses, such as one on an endless clock."""
    return next(_results(run))


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


def _pair_loop(generators: Sequence[IntTerms], key: KeyFn, reduce: Reduce,
               truncate: bool) -> Generator[None, None, list[Entry]]:
    """Buchberger's pair loop with Gebauer and Moeller's pruning, under any order.

    The generators are primitive integer terms.  ``reduce(p, reducers,
    corner)`` is a generator that takes a primitive S-polynomial to a
    primitive remainder whose leading monomial no reducer's leading monomial
    divides, or to zero.  The loop is a generator too: it pauses only where
    ``reduce`` does, and returns the entries of the elements that still take
    part in reduction; their leading monomials generate the leading ideal.

    With ``truncate`` (a local degree order) the loop cuts at the highest
    corner.  Once the live leading monomials contain every monomial of some
    degree N, so does the leading ideal, and then m^N lies in the ideal of
    the local ring (Greuel and Pfister, A Singular Introduction to
    Commutative Algebra, section 1.7): the terms of degree above N can be
    dropped from any element without changing the ideal or any leading
    monomial (dropping those of degree N too would delete leading monomials
    of degree N).  The corner N is one more than the top degree of a
    standard monomial of the live leading ideal.  Terms of degree above it
    are dropped from live elements, S-polynomials and remainders, and pairs
    whose lcm lies above it are not reduced at all.  A corner found earlier
    stays valid, if less tight, as leading monomials enter, and walking the
    staircase costs about as much as a small ideal's whole computation; so
    ``highest_corner(fresh)`` returns the last one found, and walks for a
    fresh one only when asked for it and a leading monomial entered since.
    It is asked for when a polynomial reaches past the last corner and when
    a weak normal form would recruit (before any corner is known): only then
    does a tighter corner save work.
    """
    elements: list[Entry] = []
    lms: list[Monomial] = []
    live: list[int] = []
    pending: dict[tuple[int, int], Monomial] = {}
    queue: list = []
    corner: int | None = None
    stale = False  # a leading monomial entered since the corner was last sought

    def highest_corner(fresh: bool) -> int | None:
        nonlocal corner, stale
        if fresh and stale:
            stale = False
            n = len(lms[0])
            leading = [lms[k] for k in live]
            if _missing_power(leading, n) is not None:
                return None
            corner = 1 + max(map(sum, _standard_monomials(leading, n)), default=-1)
            kept = []
            for k in live:
                lm, ec, g = elements[k]
                if sum(lm) + ec > corner:
                    # A leading monomial above the corner (a redundant
                    # generator's) leaves no terms: its element is zero.
                    g = _truncated(g, corner)
                    if not g:
                        continue
                    elements[k] = (lm, max(map(sum, g)) - sum(lm), g)
                kept.append(k)
            live[:] = kept
        return corner

    def insert(h: IntTerms) -> None:
        nonlocal stale
        elements.append(_entry(h, key))
        lms.append(elements[-1][0])
        _update_pairs(lms, live, pending, queue, key)
        stale = truncate

    for g in generators:
        if g:
            insert(g)
    while queue:
        degree, _, i, j = heappop(queue)
        if corner is not None and degree > corner:
            # Pairs leave lowest lcm degree first, and every term of an
            # S-polynomial has at least the degree of its lcm.
            break
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue
        (lm_i, ec_i, f), (lm_j, ec_j, g) = elements[i], elements[j]
        s, _ = _cancel(f, lm_i, g, lm_j, lcm)
        if (ec_i or ec_j) and corner is not None and degree + max(ec_i, ec_j) > corner:
            s = _truncated(s, highest_corner(True))
        else:
            s = _content_free(s)
        h = yield from reduce(s, [elements[k] for k in live], highest_corner)
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


def _full_reduce(key: KeyFn, masks: _Masks, clock: Clock, p: IntTerms,
                 reducers: Sequence[Entry], corner: Corner) -> Generator[None, None, IntTerms]:
    """Full division for the pair loop under a global order (which has no corner).

    A generator: the division's steps are spent from ``clock`` as a whole,
    after it, and the loop pauses while the clock is overspent.
    """
    remainder, _, steps = _full_remainder(p, reducers, key, masks)
    clock[0] -= steps
    while clock[0] <= 0:
        yield
    return remainder


def buchberger_global(gens: GeneratorSet) -> ReducedBasis:
    """The reduced Groebner basis of the ideal under the (global) order of ``gens``."""
    order = gens.order
    if order.is_local:
        raise ValueError("buchberger_global requires a global order")
    key = _OrderKeys(order).__getitem__
    masks = _Masks()
    generators = [_integer_terms(g) for g in gens.generators]
    live = _finish(_pair_loop(generators, key, partial(_full_reduce, key, masks, [inf]), False))
    minimal = _minimalize(live, key)
    # Once no leading monomial divides another, reduction keeps every leading
    # term, so one pass leaves every term of every element irreducible.
    reduced = [
        _monic(order.nvars, _full_remainder(g, minimal[:i] + minimal[i + 1 :], key, masks)[0], lm)
        for i, (lm, _, g) in enumerate(minimal)
    ]
    return ReducedBasis(tuple(reduced), order, "global", tuple(map(itemgetter(0), minimal)))


def _homogenize(p: Polynomial) -> Polynomial:
    """Make every term of p the same total degree with a trailing new variable."""
    d = p.total_degree()
    return Polynomial._unchecked(
        p.nvars + 1,
        {mon + (d - mon_degree(mon),): c for mon, c in p.terms.items()},
    )


def _local_basis(order: MonomialOrder, key: KeyFn, entries: Sequence[tuple]) -> ReducedBasis:
    """The monic minimal standard basis of (leading monomial, ..., terms) tuples."""
    minimal = _minimalize(entries, key)
    elements = tuple(_monic(order.nvars, e[-1], e[0]) for e in minimal)
    return ReducedBasis(elements, order, "local", tuple(map(itemgetter(0), minimal)))


def _lift_run(gens: GeneratorSet, clock: Clock) -> Generator[None, None, ReducedBasis]:
    """Minimal standard basis via a Groebner basis of the homogenized generators.

    Under the ``homogenized`` order the leading term of a homogeneous
    polynomial dehomogenizes to its local leading term, and any relation
    g = sum p_i f_i homogenizes to t^a g^h = sum t^(a_i) p_i^h f_i^h; so the
    dehomogenized Groebner basis elements lie in the original ideal and their
    leading monomials generate its full local leading ideal (Greuel and
    Pfister, A Singular Introduction to Commutative Algebra, section 1.7).
    The global pair loop is a run that spends ``clock``; its elements are
    dehomogenized and minimalized as they are, so, as with direct Mora, the
    tails are not reduced.
    """
    key = _OrderKeys(MonomialOrder("homogenized", gens.order.nvars + 1)).__getitem__
    reduce = partial(_full_reduce, key, _Masks(), clock)
    live = yield from _pair_loop(
        [_integer_terms(_homogenize(g)) for g in gens.generators], key, reduce, False
    )
    # Setting the trailing variable to one: homogeneous terms never collide.
    local = [(lm[:-1], {mon[:-1]: c for mon, c in g.items()}) for lm, _, g in live]
    return _local_basis(gens.order, gens.order.key, local)


def _homogenized_local(gens: GeneratorSet) -> ReducedBasis:
    """The homogenizing lift of ``mora_local``, run to the end on its own."""
    return _finish(_lift_run(gens, [inf]))


def _direct_run(gens: GeneratorSet, clock: Clock) -> Generator[None, None, ReducedBasis]:
    """Direct Mora with the highest-corner cut, as a run that spends ``clock``."""
    key = _OrderKeys(gens.order).__getitem__
    reduce = partial(_mora_weak_nf, key, clock)
    live = yield from _pair_loop(
        [_integer_terms(g) for g in gens.generators], key, reduce, True
    )
    return _local_basis(gens.order, key, live)


# Reduction steps in the first turn of each run of the mora_local race;
# every later turn has twice the steps of the one before.
_FIRST_SLICE = 256


def mora_local(gens: GeneratorSet) -> ReducedBasis:
    """A minimal standard basis of the ideal in the local ring at the origin.

    Two runs race, and the first to finish returns the basis.  The direct
    run is the pair loop of ``buchberger_global``, Gebauer and Moeller's
    pruning included, with Mora's weak normal form in place of ordinary
    division (the pair criteria and the weak normal form hold under any
    monomial order) and the highest-corner cut.  The other is the
    homogenizing lift: a global Groebner basis of the homogenized
    generators, which always terminates.  The runs take turns of
    reduction steps, the direct run first; the turns double in length each
    round, so the loser spends at most about twice the winner's steps, and
    the winner depends on step counts alone.  Whichever run wins, the result
    is minimal and monic and its tails are not reduced, which is enough to
    determine the leading ideal and hence all quotient data.  The leading
    ideal is the same whichever run wins.
    """
    if not gens.order.is_local:
        raise ValueError("mora_local requires a local order")
    steps = _FIRST_SLICE
    direct_clock = [steps]
    direct = _results(_direct_run(gens, direct_clock))
    if (basis := next(direct)) is not None:
        return basis
    # Most ideals finish in the first turn; only the others start the lift.
    lift_clock = [steps]
    lift = _results(_lift_run(gens, lift_clock))
    while (basis := next(lift)) is None:
        steps *= 2
        direct_clock[0] += steps
        if (basis := next(direct)) is not None:
            break
        lift_clock[0] += steps
    return basis


def normal_form(p: Polynomial, basis: ReducedBasis) -> Polynomial:
    """Normal form of p: canonical remainder (global) or Mora weak form (local)."""
    if basis.kind == "global":
        return global_normal_form(p, basis.elements, basis.order)
    return mora_normal_form(p, basis.elements, basis.order)


def _missing_power(lms: Sequence[Monomial], n: int) -> int | None:
    """The first of n variables with no pure power among ``lms``, if any."""
    for i in range(n):
        if not any(lm[i] == sum(lm) for lm in lms):
            return i
    return None


def _standard_monomials(lms: Sequence[Monomial], n: int) -> list[Monomial]:
    """The monomials in n variables outside the ideal of ``lms``, in walk order.

    Every variable must have a pure power among ``lms``.  The staircase is
    walked by prefix.  A prefix of exponents keeps only the leading
    monomials it dominates in those positions; it is extended while the
    prefix padded with zeros is still standard, and in the last position the
    exponent runs up to the least last exponent of the kept monomials.
    Every prefix visited starts a standard monomial, so the time grows with
    the dimension times the number of leading monomials and the memory with
    the dimension, not with the box under the pure powers.
    """
    if n == 0:
        return [] if lms else [()]
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
    return monomials


def quotient_basis(basis: ReducedBasis) -> QuotientBasis:
    """Standard monomials of the quotient by the ideal of ``basis``.

    The quotient is finite dimensional exactly when the leading ideal
    contains a pure power of every variable; otherwise
    NonZeroDimensionalError reports a variable with no such power.  The
    monomials outside the leading ideal are returned sorted by increasing
    degree, ties broken by degrevlex, and they form an order ideal: any
    divisor of a standard monomial is standard.
    """
    n = basis.order.nvars
    lms = basis.leading_monomials()
    i = _missing_power(lms, n)
    if i is not None:
        raise NonZeroDimensionalError(
            f"no pure power of z{i + 1} in the leading ideal", variable=i
        )
    monomials = _standard_monomials(lms, n)
    # degrevlex: decreasing reversed exponents within a degree.
    monomials.sort(key=lambda mon: mon[::-1], reverse=True)
    monomials.sort(key=sum)
    return QuotientBasis(tuple(monomials))
