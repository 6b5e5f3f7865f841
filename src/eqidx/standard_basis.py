"""Groebner and local standard bases of polynomial ideals over the rationals.

Both engines run one pair loop with one reduction: Buchberger's algorithm
with pairs taken lowest lcm degree first and pruned by Gebauer and
Moeller's criteria, which discard pairs that would reduce to zero under any
monomial order, and Mora's weak normal form, whose reducer selection
minimizes the ecart (the gap between the degree of a polynomial and the
degree of its leading monomial) and which may recruit earlier partial
remainders as reducers; with that discipline division terminates even
though a local ordering is not a well-order.  Under a global degree order
every ecart is zero, so the weak normal form never recruits, never seeks a
corner and reduces the leading term alone, which is Buchberger's reduction
(Greuel and Pfister, A Singular Introduction to Commutative Algebra,
sections 1.6 and 1.7); buchberger_global then interreduces the minimal
elements into the reduced Groebner basis.  Under a negative-degree order
the run computes a minimal standard basis.  Termination can still be
impractically slow (a reducer that is a unit multiple of a variable with a
deep tail makes the leading monomial creep down one monomial at a time).
Two cures work together.  The highest corner: once the leading monomials
contain every monomial of some degree N, terms above N are dropped, and the
computation runs in a finite space; N is sought before a pair of positive
ecart is reduced, so the cut applies from the first pair after it exists.
And a race: direct Mora and the homogenizing lift (the pair loop on the
homogenized generators with full division, under a global order built
from the requested local one, which always terminates and, dehomogenized,
yields a standard basis of the same ideal) take turns of doubling numbers
of reduction steps, and the first to finish wins.  Every run is a
generator that yields once per reduction step it takes, and _race alone
decides how far each run goes.  A run returns its layout and its live
entries, and each entry point builds its own result from them: mora_local
keeps a minimal set of the winner's elements and makes them monic, reducing
no tails.  Quotient extraction walks the staircase of a zero-dimensional
leading ideal in runs, z^p * z_n^e for e below a top, which quotient_basis
expands into its standard monomials.

A quotient's dimension and weights depend on the leading ideal alone, so
the index computations call _staircase, which runs the race of mora_local
or the run of buchberger_global, as the order asks, and walks the
staircase of the minimal leading monomials without building a Polynomial.

Fractions and exponent tuples appear only at the Polynomial boundary.
Generators enter as primitive integer term dicts (coprime integer
coefficients, see _integer_terms) whose monomials are packed into single
ints (see _Layout), and inside the pair loop, the S-polynomials, Mora's weak
normal form and the full division every coefficient and every monomial is
an int: an order key is one XOR, a divisibility test one subtraction and
one AND, a product of monomials one addition.  A reduction step is
fraction-free, h <- a*h - b*z^s*g with a > 0, so every intermediate
polynomial is a positive multiple of its exact rational counterpart.  The
content is divided out after a step that scales (a > 1), which touches
every term anyway, and once when a reduction ends, so every polynomial a
reduction returns is primitive.  Results leave as monic Polynomials; the
public helpers (s_polynomial, the normal forms) return exact Fractions (full
division tracks its scale as two ints, and global_normal_form alone makes
it a Fraction).  A reduction step costs about its reducer's terms, not the
whole remainder's: each reduction owns its remainder, steps it in place and
keeps its monomials sorted by order key.  Full division serves only the
lift, the final interreduction and the public helpers; in the lift it
remembers, for one run, the monomials it found irreducible and how many
leading monomials had entered then, and tests such a monomial again only
against the leading monomials that entered since.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from struct import Struct
from typing import Callable, Generator, Sequence, TypeVar

from .errors import InputError, NonZeroDimensionalError
from .poly import Monomial, MonomialOrder, Polynomial, mon_degree


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


# The bits of one exponent field of a packed monomial (see _Layout), and the
# least total degree a packed monomial cannot hold.
_FIELD = 32
_ONES = (1 << _FIELD) - 1
_MAX_DEGREE = 1 << _FIELD - 1


class _Layout:
    """Monomials of one order kind in nvars variables packed into single ints.

    A monomial is its total degree above one 32-bit field per variable, 31
    exponent bits under a zero guard bit (Bachmann and Schoenemann,
    Monomial representations for Groebner bases computations, ISSAC 1998).
    The fields run in the order's precedence: z_n most significant for the
    revlex kinds, z_1 for the lex kinds, the lift's exponent t above them.
    XOR with one constant, ``key``, makes an int that compares as the
    order's tuple key does: it inverts each z field under a revlex kind and
    the degree under a local kind (the lift's order is total degree, then t,
    then the local order past its degree).  Multiplying monomials adds their
    ints, and a divides b when b - a borrows into no guard bit: ``not (b -
    a) & guard``.  Every degree stays below _MAX_DEGREE, so every exponent
    fits its field and every lcm's degree is below 2^32 - 1: _bounded checks
    it where generators are packed, and before the only steps that raise a
    degree, a Mora step by a reducer of positive ecart (deg lm(h) + ecart)
    and an S-polynomial (deg lcm + ecart).
    """

    def __init__(self, kind: str, nvars: int, lift: bool = False) -> None:
        lex = kind.endswith("deglex")
        shifts = tuple(_FIELD * (nvars - 1 - i if lex else i) for i in range(nvars))
        shifts += (_FIELD * nvars,) * lift
        self.nvars = nvars
        self.shift = shift = _FIELD * len(shifts)  # of the degree
        self.guard = sum(1 << s + _FIELD - 1 for s in shifts)
        self.fields = (1 << shift) - 1
        key = 0 if lex else (1 << _FIELD * nvars) - 1
        if kind.startswith("neg") and not lift:
            key |= _ONES << shift
        self.key: Callable[[int], int] = key.__xor__
        # An exponent adds to its field and to the degree.
        weights = tuple((1 << s) + (1 << shift) for s in shifts)
        self.pack = lambda mon: sum(map(mul, mon, weights))
        # unpack reads the z fields as bytes (dropping t): from the bottom
        # under a revlex kind, past the degree and t under a lex kind.
        fmt, byteorder, skip = (">", "big", 4 + 4 * lift) if lex else ("<", "little", 0)
        fields, width = Struct(fmt + "I" * nvars).unpack_from, 4 * len(shifts) + 4
        self.unpack = lambda mon: fields(mon.to_bytes(width, byteorder), skip)

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials: each field's larger exponent, and their sum."""
        x, y = a & self.fields, b & self.fields
        ge = ((y | self.guard) - x) & self.guard  # the guard bits of the fields where b >= a
        take = ge - (ge >> _FIELD - 1)  # and the exponent bits below them
        f = y & take | x & ~take
        return f | f % _ONES << self.shift  # the sum of the fields, as 2^32 = 1 mod 2^32 - 1


_layout = cache(_Layout)  # one per order kind, number of variables and lift flag


def _bounded(degree: int) -> None:
    """Refuse a total degree that a packed monomial cannot hold."""
    if degree >= _MAX_DEGREE:
        raise InputError(f"a monomial of degree {_MAX_DEGREE} or more is beyond the engines")


# Inside the engines a polynomial is a dict of integer terms on packed
# monomials, kept primitive: coprime coefficients, a positive multiple of
# the polynomial it stands for.  A basis element travels as an entry: its
# leading monomial, its ecart (total degree minus the degree of the leading
# monomial) and its terms, the first two computed once.
IntTerms = dict[int, int]
Entry = tuple[int, int, IntTerms]
# An engine run is a generator that yields once for each reduction step it
# takes; _race decides how far each run goes, and _finish runs one to its
# end.  A local run returns the layout of the requested order and the
# entries of its live elements, tuples whose first item is the leading
# monomial and whose last is the terms.  The pair loop's reductions are Reduce
# (see _pair_loop for their arguments).
Corner = Callable[[bool], "int | None"]
Reduce = Callable[[IntTerms, Sequence[Entry], Corner, Sequence[int], dict[int, int]],
                  Generator[None, None, IntTerms]]
T = TypeVar("T")


def _integer_terms(p: Polynomial, layout: _Layout) -> IntTerms:
    """The terms of p times the positive rational that makes them coprime ints, packed.

    Scaling changes no reduction decision (reducers are chosen by leading
    monomial alone), so the engines start from the primitive generators and
    keep every intermediate polynomial primitive: integer arithmetic without
    the denominator growth of repeated monic division.
    """
    num, den = 0, 1
    for c in p.terms.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    pack = layout.pack
    terms = {pack(mon): c.numerator // num * (den // c.denominator) for mon, c in p.terms.items()}
    _bounded(max(terms, default=0) >> layout.shift)
    return terms


def _entry(terms: IntTerms, layout: _Layout) -> Entry:
    """The entry of a nonzero polynomial: (leading monomial, ecart, terms)."""
    lm = max(terms, key=layout.key)
    return lm, (max(terms) >> layout.shift) - (lm >> layout.shift), terms


def _polynomial(layout: _Layout, terms: IntTerms, unit: int | Fraction) -> Polynomial:
    """The Polynomial of integer terms divided by ``unit``, its monomials unpacked."""
    unpack = layout.unpack
    if unit in (1, -1):  # Fraction's one-argument form is the quicker
        out = {unpack(mon): Fraction(c * unit) for mon, c in terms.items()}
    else:
        out = {unpack(mon): Fraction(c, unit) for mon, c in terms.items()}
    return Polynomial._unchecked(layout.nvars, out)


def _step(h: IntTerms, lm_h: int, g: IntTerms, lm_g: int, created: list) -> int:
    """The fraction-free step h <- a*h - b*z^(lm_h/lm_g)*g, in place, cancelling at lm_h.

    (a, b) are the leading coefficients of g and h over their gcd, signed so
    that a > 0; returns a.  h is scaled only when a is not 1, so a step
    otherwise costs the terms of g.  The monomials the step adds to those of
    h are appended to ``created``.
    """
    lc_h, lc_g = h[lm_h], g[lm_g]
    d = gcd(lc_h, lc_g)
    a, b = lc_g // d, lc_h // d
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for mon, c in h.items():
            h[mon] = a * c
    shift = lm_h - lm_g
    for mon, c in g.items():
        mon += shift
        if (s := h.get(mon)) is None:
            h[mon] = -b * c
            created.append(mon)
        elif s := s - b * c:
            h[mon] = s
        else:
            del h[mon]
    return a


def _cancel(f: IntTerms, lm_f: int, g: IntTerms, lm_g: int, lm: int) -> tuple[IntTerms, int]:
    """The S-polynomial a*z^(lm/lm_f)*f - b*z^(lm/lm_g)*g of f and g, lm their lcm.

    Returns fresh terms and the a > 0 of the step (see _step).
    """
    shift = lm - lm_f
    out = {mon + shift: c for mon, c in f.items()}
    return out, _step(out, lm, g, lm_g, [])


def _content_free(terms: IntTerms) -> tuple[IntTerms, int]:
    """terms over the gcd of its coefficients, and that gcd (1 for no terms)."""
    c = gcd(*terms.values())
    if c > 1:
        return {mon: v // c for mon, v in terms.items()}, c
    return terms, 1


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial, cancelling the leading terms of f and g."""
    layout = _layout(order.kind, order.nvars)
    (lm_f, ec_f, fi), (lm_g, ec_g, gi) = (_entry(_integer_terms(p, layout), layout) for p in (f, g))
    lm = layout.lcm(lm_f, lm_g)
    _bounded((lm >> layout.shift) + max(ec_f, ec_g))
    s, a = _cancel(fi, lm_f, gi, lm_g, lm)
    # s = a * lc(fi) * S(fi, gi), and S(fi, gi) = S(f, g).
    return _polynomial(layout, s, a * fi[lm_f])


def global_normal_form(p: Polynomial, basis: Sequence[Polynomial],
                       order: MonomialOrder) -> Polynomial:
    """Remainder of full division by ``basis`` under a global order.

    Every term of the remainder is reducible by no basis element, so against
    a Groebner basis this is the canonical normal form.
    """
    if order.is_local:
        raise ValueError("global normal form requires a global order")
    layout = _layout(order.kind, order.nvars)
    terms = _integer_terms(p, layout)
    reducers = [_entry(_integer_terms(g, layout), layout) for g in basis if g.terms]
    remainder, num, den, _ = _full_remainder(terms, reducers, layout)
    if not remainder:
        return Polynomial._unchecked(p.nvars, {})
    # remainder = num/den * (exact remainder of terms), and terms is a
    # positive multiple of p (its terms in the same order).
    unit = Fraction(num * next(iter(terms.values())), den) / next(iter(p.terms.values()))
    return _polynomial(layout, remainder, unit)


def _full_remainder(p: IntTerms, reducers: Sequence[Entry], layout: _Layout,
                    lms: Sequence[int] = (),
                    irreducible: dict[int, int] | None = None) -> tuple[IntTerms, int, int, int]:
    """Fraction-free full division of primitive p by basis entries under a global order.

    The division steps a copy of p in place, where the terms no reducer
    divides stay.  A step that scales (a > 1) scales them too, and then the
    content is divided out; the remainder is made primitive once more at
    the end.  The monomials still to divide are kept sorted by order key.
    Returns the primitive remainder, the positive ints num and den with
    remainder = num/den * (exact remainder of p), and the number of steps.
    It serves the lift's pair loop, buchberger_global's interreduction and
    global_normal_form.

    In the lift's pair loop the reducers are its live elements, ``lms`` is
    every leading monomial it has inserted, in order, and ``irreducible`` is
    its memo, kept for one run: a monomial that no reducer divides is recorded
    with k = len(lms).  An element leaves the live ones only when a later
    leading monomial divides its own (a global order has no corner to cut
    at), so no lms[:k] divides that monomial, and later it is tested only
    against lms[k:]: it becomes reducible only when one of them divides it.
    Where one does, the reducers are scanned in full, so the first divisor
    in their order, every step and the remainder are those of a division
    without the memo.  By default the memo is fresh, which is the same as
    none: a division meets each monomial once.
    """
    key, guard = layout.key, layout.guard
    if irreducible is None:
        irreducible = {}
    known = len(lms)
    work = dict(p)
    # The monomials of work still to divide in increasing order, next to
    # stale entries whose monomial a step cancelled; each step adds the
    # monomials it creates, all below the one it cancels at.
    mons = sorted(work, key=key)
    num = den = 1
    steps = 0
    while mons:
        lm = mons.pop()
        if lm not in work:
            continue
        k = irreducible.get(lm)
        if k is not None and all((lm - m) & guard for m in lms[k:]):
            irreducible[lm] = known
            continue
        for lm_g, _, g in reducers:
            if not (lm - lm_g) & guard:
                steps += 1
                created: list[int] = []
                a = _step(work, lm, g, lm_g, created)
                for mon in created:
                    insort(mons, mon, key=key)
                if a != 1:
                    work, c = _content_free(work)
                    num *= a
                    den *= c
                break
        else:
            irreducible[lm] = known
    work, c = _content_free(work)
    return work, num, den * c, steps


def mora_normal_form(p: Polynomial, basis: Sequence[Polynomial],
                     order: MonomialOrder) -> Polynomial:
    """Mora's weak normal form of p with respect to ``basis`` under a local order.

    Returns a polynomial whose leading monomial is divisible by no leading
    monomial of the basis (or zero).  Unlike ordinary division the tail may
    keep reducible monomials: there exists a unit u with u*p = sum + result,
    which is exactly what leading-ideal and dimension computations need.
    Once the basis's leading monomials hold a pure power of every variable,
    m^N lies in its ideal for their highest corner N (see _highest_corner),
    and a step that could reach past N drops the terms of degree above N,
    so the division runs in a finite space.  After a reduction step the
    result is primitive; without one it is p itself, the same object.
    """
    if not order.is_local:
        raise ValueError("Mora normal form requires a local order")
    layout = _layout(order.kind, order.nvars)
    terms = _integer_terms(p, layout)
    reducers = [_entry(_integer_terms(g, layout), layout) for g in basis if g.terms]
    corner = _highest_corner([layout.unpack(e[0]) for e in reducers], order.nvars)
    h = _finish(_mora_weak_nf(layout, terms, reducers, lambda fresh: corner))
    return p if h is terms else _polynomial(layout, h, 1)


def _mora_weak_nf(layout: _Layout, h: IntTerms, reducers: Sequence[Entry],
                  corner: Corner) -> Generator[None, None, IntTerms]:
    """Mora's weak normal form of primitive h by basis entries, fraction-free.

    The reduction copies h at its first step and steps the copy in place
    (see _step); without a step h itself is returned.  The content is
    divided out after a step that scaled, where the step has touched every
    term anyway, where the terms above the corner are cut, and once at the
    end, so the result is primitive.  A generator that yields after each
    step.  ``corner(fresh)`` is the highest corner, or None while none is
    known (see _pair_loop).  A step that would recruit asks for a fresh
    one; once there is one, earlier remainders are no longer recruited,
    since division in the finite space of the monomials up to the corner
    terminates without them, and a step that could reach past it drops the
    terms of degree above a fresh corner.
    """
    key, guard, shift = layout.key, layout.guard, layout.shift
    # The reducer pool, sorted by (ecart, order key of lm, insertion index):
    # the first entry whose leading monomial divides lm(h) is the reducer of
    # least ecart, then least leading monomial, then oldest.  A recruited
    # remainder need not be primitive: a reducer's positive multiple gives
    # a positive multiple of the same step.
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
    owned = False  # whether h is this reduction's to change in place
    while h:
        while mons[-1] not in h:
            mons.pop()
        lm_h = mons[-1]
        for ec_g, _, _, lm_g, g in pool:
            if not (lm_h - lm_g) & guard:
                break
        else:
            break
        cut = None
        # An ecart is never negative, and the multiple of a reducer of ecart
        # zero has no term of degree above lm(h); so only a reducer of
        # positive ecart can raise the ecart of h or reach past the corner.
        if ec_g:
            degree = lm_h >> shift
            _bounded(degree + ec_g)
            if top is None:
                while mons[lo] not in h:
                    lo += 1
                ec_h = (mons[lo] >> shift) - degree
                if ec_g > ec_h and (top := corner(True)) is None:
                    # Recruiting h itself keeps later reductions from raising
                    # the ecart without bound; this is what makes Mora
                    # division terminate.  The pool keeps this h, and the
                    # reduction goes on with a copy.
                    insort(pool, (ec_h, key(lm_h), counter, lm_h, h))
                    counter += 1
                    owned = False
            if top is not None and degree + ec_g > top:
                cut = top = corner(True)
        if not owned:
            h = dict(h)
            owned = True
        created: list[int] = []
        a = _step(h, lm_h, g, lm_g, created)
        if cut is not None:
            h = _truncated(h, cut, shift)
        elif a != 1:
            h, _ = _content_free(h)
        for mon in created:
            insort(mons, mon, lo, key=key)
        yield
    return _content_free(h)[0] if owned else h


def _truncated(terms: IntTerms, corner: int, shift: int) -> IntTerms:
    """The terms of degree at most ``corner``, over their content; ``shift`` places the degree."""
    above = corner + 1 << shift
    return _content_free({mon: c for mon, c in terms.items() if mon < above})[0]


def _turn(run: Generator[None, None, T], steps: int) -> T | None:
    """Resume ``run`` for up to ``steps`` yields: its result if it returns in them, else None."""
    for _ in range(steps):
        try:
            next(run)
        except StopIteration as stop:
            return stop.value
    return None


def _finish(run: Generator[None, None, T]) -> T:
    """The result of ``run``, resumed until it returns."""
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return stop.value


def _update_pairs(lms: Sequence[int], live: list[int], pending: dict[tuple[int, int], int],
                  queue: list, layout: _Layout) -> None:
    """Gebauer and Moeller's update for the newest basis element.

    An old pair is dropped when the new leading monomial m divides its lcm
    and both of its lcms with m differ from it (Buchberger's chain
    criterion).  A new pair is dropped when the lcm of another new pair
    divides its own; of several sharing one lcm only the last is kept, and
    that lcm is dropped altogether when one of its pairs has coprime leading
    monomials.  So a new pair is kept exactly when its lcm is minimal among
    the new lcms, it is the last pair with that lcm, and no pair with that
    lcm is coprime: one pass over the distinct new lcms, lowest first (a
    proper divisor has the lower degree, and the degree is the top of a
    packed monomial), checks each against the minimal ones found before it.
    Elements whose leading monomial m divides stop taking part in new pairs
    and in reduction.  Kept pairs are queued lowest lcm degree first, then
    by order key, then by age.
    """
    guard, shift = layout.guard, layout.shift
    t = len(lms) - 1
    m = lms[t]
    for pair, lcm in list(pending.items()):
        if not (lcm - m) & guard:
            i, j = pair
            if layout.lcm(lms[i], m) != lcm and layout.lcm(lms[j], m) != lcm:
                del pending[pair]
    # The new pairs by lcm: the last live element with each lcm, and the
    # lcms of coprime pairs.
    last: dict[int, int] = {}
    coprime = set()
    for i in live:
        a = lms[i]
        lcm = layout.lcm(a, m)
        if a + m == lcm:
            coprime.add(lcm)
        last[lcm] = i
    minimal: list[int] = []
    kept = []
    for lcm in sorted(last):
        for low in minimal:
            if not (lcm - low) & guard:
                break
        else:
            minimal.append(lcm)
            if lcm not in coprime:
                kept.append((last[lcm], lcm))
    kept.sort()  # pushed in the order of live, which fixes the heap's list
    for i, lcm in kept:
        pending[(i, t)] = lcm
        heappush(queue, (lcm >> shift, layout.key(lcm), i, t))
    live[:] = [i for i in live if (lms[i] - m) & guard]
    live.append(t)


def _pair_loop(generators: Sequence[IntTerms], layout: _Layout,
               reduce: Reduce) -> Generator[None, None, list[Entry]]:
    """Buchberger's pair loop with Gebauer and Moeller's pruning, under any order.

    The generators are primitive integer terms.  ``reduce(p, reducers,
    corner, lms, irreducible)`` is a generator that takes a primitive
    S-polynomial to a primitive remainder whose leading monomial no
    reducer's leading monomial divides, or to zero; it is also given the
    loop's ``highest_corner``, its leading monomials in insertion order and
    one memo dict for the run.  Direct runs, local or global, reduce by
    Mora's weak normal form, which uses the corner; the lift divides fully
    and uses the memo (see _full_remainder).  The loop is a generator too:
    it pauses only where ``reduce`` does, and returns the entries of the
    elements that still take part in reduction; their leading monomials
    generate the leading ideal.

    Under a local degree order the loop cuts at the highest corner.  Once the
    live leading monomials contain every monomial of some degree N, so does
    the leading ideal, and then m^N lies in the ideal of the local ring
    (Greuel and Pfister, A Singular Introduction to Commutative Algebra,
    section 1.7): the terms of degree above N can be dropped from any
    element without changing the ideal or any leading monomial (dropping
    those of degree N too would delete leading monomials of degree N).  N is
    the corner of the live leading monomials (see _highest_corner).  Terms
    of degree above it are dropped from live elements, S-polynomials and
    remainders, and pairs whose lcm lies above it are not reduced at all.  A corner found earlier
    stays valid, if less tight, as leading monomials enter, and walking the
    staircase costs about as much as a small ideal's whole computation; so
    ``highest_corner(fresh)`` returns the last one found, and walks for a
    fresh one only when asked for it and a leading monomial entered since.
    While none is known it is asked for before each pair with an element of
    positive ecart (under a global order, and in the homogeneous lift, every
    ecart is zero) and when a weak normal form would recruit; once one is
    known, when a polynomial reaches past it.  Only then does a corner, or a
    tighter one, save work.
    """
    shift = layout.shift
    elements: list[Entry] = []
    lms: list[int] = []
    live: list[int] = []
    pending: dict[tuple[int, int], int] = {}
    queue: list = []
    corner: int | None = None
    stale = False  # a leading monomial entered since the corner was last sought
    irreducible: dict[int, int] = {}  # see _full_remainder

    def highest_corner(fresh: bool) -> int | None:
        nonlocal corner, stale
        if fresh and stale:
            stale = False
            corner = _highest_corner([layout.unpack(lms[k]) for k in live], layout.nvars)
            if corner is None:
                return None
            kept = []
            for k in live:
                lm, ec, g = elements[k]
                if (lm >> shift) + ec > corner:
                    # A leading monomial above the corner (a redundant
                    # generator's) leaves no terms: its element is zero.
                    g = _truncated(g, corner, shift)
                    if not g:
                        continue
                    elements[k] = (lm, (max(g) >> shift) - (lm >> shift), g)
                kept.append(k)
            live[:] = kept
        return corner

    def insert(h: IntTerms) -> None:
        nonlocal stale
        elements.append(_entry(h, layout))
        lms.append(elements[-1][0])
        _update_pairs(lms, live, pending, queue, layout)
        stale = True

    for g in generators:
        if g:
            insert(g)
    while queue:
        degree, _, i, j = heappop(queue)
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue
        if corner is None and (elements[i][1] or elements[j][1]):
            highest_corner(True)
        if corner is not None and degree > corner:
            # Pairs leave lowest lcm degree first, and every term of an
            # S-polynomial has at least the degree of its lcm.
            break
        (lm_i, ec_i, f), (lm_j, ec_j, g) = elements[i], elements[j]
        ecart = max(ec_i, ec_j)
        _bounded(degree + ecart)
        s, _ = _cancel(f, lm_i, g, lm_j, lcm)
        if ecart and corner is not None and degree + ecart > corner:
            s = _truncated(s, highest_corner(True), shift)
        else:
            s, _ = _content_free(s)
        h = yield from reduce(s, [elements[k] for k in live], highest_corner, lms, irreducible)
        if h:
            insert(h)
    return [elements[k] for k in live]


def _minimalize(entries: Sequence[tuple], layout: _Layout) -> list[tuple]:
    """Drop the elements whose leading monomial another's divides.

    Takes and returns tuples whose first item is the leading monomial, the
    result sorted by decreasing leading monomial.
    """
    key, guard = layout.key, layout.guard
    # Lowest degree first, then by order key: the key with the degree kept.
    by_degree = key(0) & (1 << layout.shift) - 1
    kept: list[tuple] = []
    for e in sorted(entries, key=lambda e: e[0] ^ by_degree):
        if all((e[0] - k[0]) & guard for k in kept):
            kept.append(e)
    kept.sort(key=lambda e: key(e[0]), reverse=True)
    return kept


def _full_reduce(layout: _Layout, p: IntTerms, reducers: Sequence[Entry], corner: Corner,
                 lms: Sequence[int], irreducible: dict[int, int]) -> Generator[None, None, IntTerms]:
    """Full division for the lift's pair loop (a global order, which has no corner).

    A generator that yields once per step of the division, all after it
    (see _full_remainder, which also describes ``lms`` and ``irreducible``).
    """
    remainder, _, _, steps = _full_remainder(p, reducers, layout, lms, irreducible)
    yield from repeat(None, steps)
    return remainder


def buchberger_global(gens: GeneratorSet) -> ReducedBasis:
    """The reduced Groebner basis of the ideal under the (global) order of ``gens``.

    The run is ``_direct_run``, the direct run of ``mora_local``'s race:
    under a degree order its weak normal form reduces the leading term
    alone, which is Buchberger's reduction, and leaves the tails.
    """
    if gens.order.is_local:
        raise ValueError("buchberger_global requires a global order")
    layout, live = _finish(_direct_run(gens))
    minimal = _minimalize(live, layout)
    # Once no leading monomial divides another, reduction keeps every leading
    # term, so one pass leaves every term of every element irreducible.
    reduced = []
    for i, (lm, _, g) in enumerate(minimal):
        r = _full_remainder(g, minimal[:i] + minimal[i + 1 :], layout)[0]
        reduced.append(_polynomial(layout, r, r[lm]))
    return ReducedBasis(tuple(reduced), gens.order, "global")


def _homogenize(p: Polynomial) -> Polynomial:
    """Make every term of p the same total degree with a trailing new variable."""
    d = p.total_degree()
    return Polynomial._unchecked(
        p.nvars + 1,
        {mon + (d - mon_degree(mon),): c for mon, c in p.terms.items()},
    )


def _local_basis(order: MonomialOrder, layout: _Layout, entries: Sequence[tuple]) -> ReducedBasis:
    """The monic minimal standard basis of a local run's entries."""
    minimal = _minimalize(entries, layout)
    elements = tuple([_polynomial(layout, e[-1], e[-1][e[0]]) for e in minimal])
    return ReducedBasis(elements, order, "local")


def _lift_run(gens: GeneratorSet) -> Generator[None, None, tuple[_Layout, list[tuple]]]:
    """A local standard basis via a Groebner basis of the homogenized generators.

    Under the lift's order (see _Layout: total degree, then the exponent of
    t, then the local order of ``gens`` past its degree) the leading term of
    a homogeneous polynomial dehomogenizes to its local leading term, and any
    relation g = sum p_i f_i homogenizes to t^a g^h = sum t^(a_i) p_i^h f_i^h;
    so the dehomogenized Groebner basis elements lie in the original ideal
    and their leading monomials generate its full local leading ideal
    (Greuel and Pfister, A Singular Introduction to Commutative Algebra,
    section 1.7).  The run is the global pair loop; its elements are
    returned dehomogenized, as (leading monomial, terms), so, as with direct
    Mora, the tails are not reduced.
    """
    order = gens.order
    lift = _layout(order.kind, order.nvars, True)
    live = yield from _pair_loop(
        [_integer_terms(_homogenize(g), lift) for g in gens.generators],
        lift,
        partial(_full_reduce, lift),
    )
    # Setting t to one, which homogeneous terms survive without colliding:
    # the z fields stay, and t's field and the degree become z's degree.
    shift = lift.shift - _FIELD  # of t

    def local(mon: int) -> int:
        return mon & (1 << shift) - 1 | (mon >> lift.shift) - (mon >> shift & _ONES) << shift

    entries = [(local(lm), {local(mon): c for mon, c in g.items()}) for lm, _, g in live]
    return _layout(order.kind, order.nvars), entries


def _homogenized_local(gens: GeneratorSet) -> ReducedBasis:
    """The homogenizing lift of ``mora_local``, run to the end on its own."""
    return _local_basis(gens.order, *_finish(_lift_run(gens)))


def _direct_run(gens: GeneratorSet) -> Generator[None, None, tuple[_Layout, list[tuple]]]:
    """The pair loop under the order of ``gens`` with Mora's weak normal form, as a run.

    Under a local order this is direct Mora with the highest-corner cut.
    Under a global degree order every ecart is zero, so the weak normal form
    never recruits or seeks a corner and reduces the leading term alone:
    the run is Buchberger's algorithm, with the tails left unreduced.
    """
    layout = _layout(gens.order.kind, gens.order.nvars)
    generators = [_integer_terms(g, layout) for g in gens.generators]

    def reduce(p: IntTerms, reducers: Sequence[Entry], corner: Corner,
               lms: Sequence[int], irreducible: dict[int, int]) -> Generator[None, None, IntTerms]:
        return _mora_weak_nf(layout, p, reducers, corner)

    live = yield from _pair_loop(generators, layout, reduce)
    return layout, live


# Reduction steps in the first turn of each run of the mora_local race;
# every later turn has twice the steps of the one before.
_FIRST_SLICE = 256


def mora_local(gens: GeneratorSet) -> ReducedBasis:
    """A minimal standard basis of the ideal in the local ring at the origin.

    Two runs race, and the first to finish returns the basis.  The direct
    run is the run of ``buchberger_global``, the pair loop with Gebauer and
    Moeller's pruning and Mora's weak normal form (the pair criteria and the
    weak normal form hold under any monomial order), here with the
    highest-corner cut.  The other is the homogenizing lift: a global
    Groebner basis of the homogenized generators by full division, which
    always terminates.  The runs take turns of reduction steps, the direct
    run first; the turns double in length each
    round, so the loser spends at most about twice the winner's steps, and
    the winner depends on step counts alone.  Whichever run wins, the result
    is minimal and monic and its tails are not reduced, which is enough to
    determine the leading ideal and hence all quotient data.  The leading
    ideal is the same whichever run wins.
    """
    return _local_basis(gens.order, *_race(gens))


def _race(gens: GeneratorSet) -> tuple[_Layout, list[tuple]]:
    """The layout and live entries of the winner of the race of ``mora_local``."""
    if not gens.order.is_local:
        raise ValueError("mora_local requires a local order")
    # A run does nothing until it is first resumed, so an ideal that the
    # direct run finishes in its first turn never starts the lift.
    runs = (_direct_run(gens), _lift_run(gens))
    steps = _FIRST_SLICE
    while True:
        for run in runs:
            if (result := _turn(run, steps)) is not None:
                return result
        steps *= 2


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


def _highest_corner(lms: Sequence[Monomial], n: int) -> int | None:
    """One more than the top degree of a standard monomial of the ideal of ``lms``.

    The ideal of ``lms`` contains every monomial of that degree N, so where
    ``lms`` lead elements of an ideal under a local degree order, m^N lies
    in that ideal of the local ring (see _pair_loop).  None where n is 0 or
    a variable has no pure power among ``lms``.
    """
    if n == 0 or _missing_power(lms, n) is not None:
        return None
    return max([sum(prefix) + top for prefix, top in _standard_runs(lms, n)], default=0)


def _standard_runs(lms: Sequence[Monomial], n: int) -> list[tuple[Monomial, int]]:
    """The monomials in n >= 1 variables outside the ideal of ``lms``, as runs in walk order.

    A run (prefix, top) stands for the monomials prefix + (e,) with e < top.
    Every variable must have a pure power among ``lms``.  The staircase is
    walked by prefix.  A prefix of exponents keeps only the leading
    monomials it dominates in those positions; it is extended while the
    prefix padded with zeros is still standard, and in the last position the
    exponent runs up to the least last exponent of the kept monomials, which
    is the run's top.  Every prefix visited starts a standard monomial, so
    the time grows with the dimension times the number of leading monomials
    and the memory with the number of runs, not with the box under the pure
    powers.
    """
    runs: list[tuple[Monomial, int]] = []
    last = n - 1

    def walk(prefix: Monomial, kept: Sequence[Monomial]) -> None:
        i = len(prefix)
        if i == last:
            runs.append((prefix, min(map(itemgetter(i), kept))))
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
    return runs


def _quotient_runs(lms: Sequence[Monomial], n: int) -> list[tuple[Monomial, int]]:
    """The runs of standard monomials of the ideal of ``lms`` in n >= 1 variables.

    Raises NonZeroDimensionalError, naming the first variable with no pure
    power among ``lms``, when the quotient is not finite dimensional.
    """
    i = _missing_power(lms, n)
    if i is not None:
        raise NonZeroDimensionalError(
            f"no pure power of z{i + 1} in the leading ideal", variable=i
        )
    return _standard_runs(lms, n)


def _staircase(gens: GeneratorSet) -> list[tuple[Monomial, int]]:
    """The runs of standard monomials of the leading ideal of ``gens`` under its order.

    The leading monomials are those of ``mora_local``'s race under a local
    order and of ``buchberger_global``'s run under a global one, kept
    minimal; no Polynomial is built.  Raises NonZeroDimensionalError as
    _quotient_runs does.
    """
    layout, entries = _race(gens) if gens.order.is_local else _finish(_direct_run(gens))
    minimal = [layout.unpack(e[0]) for e in _minimalize(entries, layout)]
    return _quotient_runs(minimal, gens.order.nvars)


def quotient_basis(basis: ReducedBasis) -> QuotientBasis:
    """Standard monomials of the quotient by the ideal of ``basis``.

    The quotient is finite dimensional exactly when the leading ideal
    contains a pure power of every variable; otherwise
    NonZeroDimensionalError reports a variable with no such power.  The
    monomials outside the leading ideal are returned in increasing degrevlex
    order, and they form an order ideal: any divisor of a standard monomial
    is standard.
    """
    n = basis.order.nvars
    lms = basis.leading_monomials()
    if n == 0:
        monomials = [] if lms else [()]
    else:
        runs = _quotient_runs(lms, n)
        monomials = [prefix + (e,) for prefix, top in runs for e in range(top)]
    monomials.sort(key=MonomialOrder.global_order(n).key)
    return QuotientBasis(tuple(monomials))
